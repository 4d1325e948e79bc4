//! `ccopt-benchmark`: the benchmark's one binary.
//!
//! * `--workload W --seed N --seconds S --trace 0|1` — one run in this
//!   process (the form `BENCHMARK.json`'s command is driven in). The
//!   last line of standard output is the result object.
//! * no `--workload` — every workload, each in its own child process;
//!   `--traced` the traced ladder instead; `--repeat` both, twice,
//!   compared against the bounds; `--quick` 3 s runs.
//! * `--manifest` — print `BENCHMARK.json`.

use ccopt_benchmark::gen::Workload;
use ccopt_benchmark::ladder::{self, LadderCfg};
use ccopt_benchmark::manifest::{
    is_fixed_count, manifest_json, per_layer, END_TO_END, FAILED_SHARE_BOUND, RUN_SECONDS,
};
use ccopt_benchmark::run::{end_to_end, fingerprint};
use ccopt_benchmark::stats::{median, SliceSummary};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

const OUT_DIR: &str = "benchmark/out";
const QUICK_SECONDS: u64 = 3;

/// Durable data and scratch logs live under the build's target
/// directory: inside the checkout, on its real filesystem, ignored by
/// git.
fn data_root() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("target/benchmark"), PathBuf::from);
    target.join("data")
}

#[derive(Default)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<u64>,
    trace: bool,
    traced: bool,
    repeat: bool,
    quick: bool,
    manifest: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        seed: 1,
        ..Args::default()
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value("a workload name")?),
            "--seed" => {
                a.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                a.seconds = Some(
                    value("a number")?
                        .parse()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                a.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--traced" => a.traced = true,
            "--repeat" => a.repeat = true,
            "--quick" => a.quick = true,
            "--manifest" => a.manifest = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(a)
}

/// One `name value unit` row of a run's result.
struct Row {
    name: String,
    value: f64,
    unit: &'static str,
    /// Sample count or other context, printed beside the value.
    note: String,
}

fn row(name: &str, value: f64, unit: &'static str, note: String) -> Row {
    Row {
        name: name.to_string(),
        value,
        unit,
        note,
    }
}

/// Print the rows and the closing result object.
fn emit(
    kind: &str,
    rows: &[Row],
    correct: bool,
    attempted: u64,
    failed: u64,
) -> Result<(), String> {
    if let Some(bad) = rows.iter().find(|r| !r.value.is_finite()) {
        return Err(format!("metric {} is not a finite number", bad.name));
    }
    for r in rows {
        println!("{kind} {} {} {} {}", r.name, r.value, r.unit, r.note);
    }
    let metrics: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                r.name, r.value, r.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        metrics.join(", ")
    );
    Ok(())
}

fn run_single(w: Workload, seed: u64, seconds: u64, trace: bool) -> Result<(), String> {
    let data = data_root();
    std::fs::create_dir_all(&data).map_err(|e| format!("{}: {e}", data.display()))?;
    println!("machine: {}", fingerprint(&data));
    println!(
        "workload: {} seed={seed} seconds={seconds} trace={} clients={} load=closed-loop cc={} vars={}",
        w.name(),
        trace as u8,
        w.clients(),
        w.cc(),
        w.num_vars()
    );
    if trace {
        return run_traced(seed, seconds, &data);
    }
    let run = end_to_end(w, seed, seconds, &data)?;
    println!("inputs_fnv: {:#018x}", run.inputs_fnv);
    if let Some(e) = &run.verify_error {
        println!("VERIFICATION FAILED: {e}");
    }
    let per_slice = |f: &dyn Fn(&SliceSummary) -> String| -> String {
        run.slices.iter().map(f).collect::<Vec<_>>().join(" ")
    };
    println!("slice commits: {}", per_slice(&|s| s.commits.to_string()));
    println!(
        "slice p50_us: {}",
        per_slice(&|s| format!("{:.1}", s.p50_ns as f64 / 1e3))
    );
    println!(
        "slice p99_us: {}",
        per_slice(&|s| format!("{:.1}", s.p99_ns as f64 / 1e3))
    );
    let s = &run.summary;
    let slices = format!("(good quartile of {} slices, n={})", s.slices, s.samples);
    let setups: Vec<String> = run.setups_s.iter().map(|t| format!("{t:.3}")).collect();
    let rows = [
        row("commits_per_s", s.commits_per_s, "txn/s", slices.clone()),
        row("txn_p50_us", s.txn_p50_us, "us", slices.clone()),
        row("txn_p99_us", s.txn_p99_us, "us", slices),
        row("peak_rss_mb", run.peak_rss_mb, "MiB", "(VmHWM)".to_string()),
        row(
            "setup_s",
            median(&run.setups_s),
            "s",
            format!("(median of {})", setups.join(" ")),
        ),
    ];
    // Printed, never gated: tails a median of slices hides, the failed
    // share behind `failed`/`attempted`, the restart storm as a number.
    println!("extra tail.p999_us {} us (worst slice)", s.tail_p999_us);
    println!("extra tail.max_us {} us", s.tail_max_us);
    println!(
        "extra failed_share {} ratio ({} of {})",
        run.failed as f64 / run.attempted.max(1) as f64,
        run.failed,
        run.attempted
    );
    println!(
        "extra attempts_per_commit {} count",
        run.attempts_per_commit
    );
    println!("extra waits_per_commit {} count", run.waits_per_commit);
    if w == Workload::LibSiReadmostly {
        println!("extra live_versions_peak {} count", run.live_versions_peak);
    }
    if let Some(d) = &run.durable {
        let times: Vec<String> = d.reopen_s.iter().map(|t| format!("{t:.4}")).collect();
        println!(
            "extra wal_bytes_per_commit {} bytes",
            d.wal_bytes_per_commit
        );
        println!(
            "extra recovery_s {} s (median of {}; log in the OS page cache)",
            median(&d.reopen_s),
            times.join(" ")
        );
    }
    emit(
        "metric",
        &rows,
        run.verify_error.is_none(),
        run.attempted,
        run.failed,
    )
}

/// The traced run: the ladder is the same whichever workload is named.
fn run_traced(seed: u64, seconds: u64, data: &Path) -> Result<(), String> {
    let cfg = LadderCfg {
        seed,
        scale: (seconds as f64 / RUN_SECONDS as f64).clamp(0.05, 1.0),
        out_dir: PathBuf::from(OUT_DIR),
        data_dir: data.join(format!("ladder-{}", std::process::id())),
    };
    let l = ladder::run(&cfg);
    if l.is_ok() {
        std::fs::remove_dir_all(&cfg.data_dir)
            .map_err(|e| format!("remove {}: {e}", cfg.data_dir.display()))?;
    } else {
        println!(
            "scratch directory kept for inspection: {}",
            cfg.data_dir.display()
        );
    }
    let l = l?;
    l.notes.iter().for_each(|n| println!("{n}"));
    println!("spans written to {OUT_DIR}/trace-<rung>.jsonl");
    let rows: Vec<Row> = per_layer()
        .into_iter()
        .map(|(name, unit, _)| row(&name, l.get(&name), unit, String::new()))
        .collect();
    emit("layer", &rows, l.failed == 0, l.attempted, l.failed)
}

// ------------------------------------------------------------ orchestration

/// What a child run printed: its `metric`/`layer` rows and result line.
struct Child {
    rows: BTreeMap<String, String>,
    extras: BTreeMap<String, String>,
    result: String,
}

/// Run one workload in a child process of its own, echoing its output.
fn spawn_child(w: Workload, seed: u64, seconds: u64, trace: bool) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut child = Command::new(exe)
        .args(["--workload", w.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawn: {e}"))?;
    let mut out = Child {
        rows: BTreeMap::new(),
        extras: BTreeMap::new(),
        result: String::new(),
    };
    let stdout = child.stdout.take().expect("piped stdout");
    for line in BufReader::new(stdout).lines() {
        // Unreadable output: stop the child rather than leave it blocked
        // on a full pipe; the missing result line fails the run below.
        let Ok(line) = line else {
            let _ = child.kill();
            break;
        };
        let mut f = line.split_whitespace();
        match (f.next(), f.next(), f.next()) {
            (Some("metric" | "layer"), Some(name), Some(value)) => {
                out.rows.insert(name.to_string(), value.to_string());
            }
            (Some("extra"), Some(name), Some(value)) => {
                out.extras.insert(name.to_string(), value.to_string());
            }
            _ => {}
        }
        if line.starts_with('{') {
            out.result = line;
        } else {
            println!("  {line}");
        }
    }
    let status = child.wait().map_err(|e| format!("wait: {e}"))?;
    if !status.success() || out.result.is_empty() {
        return Err(format!("{}: child run failed ({status})", w.name()));
    }
    if !out.result.contains("\"correct\": true") {
        return Err(format!("{}: verification failed", w.name()));
    }
    Ok(out)
}

/// One full set: the six workloads (and, for `--repeat`, the traced
/// ladder), each in its own child, appended to the result file.
fn run_set(
    seed: u64,
    seconds: u64,
    e2e: bool,
    traced: bool,
    results: &mut impl Write,
) -> Result<BTreeMap<String, Child>, String> {
    let mut set = BTreeMap::new();
    let mut record = |key: String, w: Workload, trace: bool| -> Result<(), String> {
        println!("== {key} (seed {seed}, {seconds} s)");
        let child = spawn_child(w, seed, seconds, trace)?;
        writeln!(
            results,
            "{{\"workload\": \"{}\", \"seed\": {seed}, \"seconds\": {seconds}, \"trace\": {}, \"result\": {}}}",
            w.name(),
            trace as u8,
            child.result
        )
        .map_err(|e| format!("result file: {e}"))?;
        set.insert(key, child);
        Ok(())
    };
    if e2e {
        for w in Workload::ALL {
            record(w.name().to_string(), w, false)?;
        }
    }
    if traced {
        record("traced".to_string(), Workload::ServedLocal, true)?;
    }
    Ok(set)
}

/// Compare two sets run on one build: each end-to-end metric against
/// its bound, the failed share against its absolute bound, the
/// fixed-count counters for identity. Returns the number of breaches.
fn compare(a: &BTreeMap<String, Child>, b: &BTreeMap<String, Child>) -> usize {
    let mut breaches = 0;
    let num = |c: &Child, name: &str| c.rows.get(name).and_then(|v| v.parse::<f64>().ok());
    println!("== repeat: first vs second set");
    for w in Workload::ALL {
        let (ca, cb) = (&a[w.name()], &b[w.name()]);
        for m in &END_TO_END {
            let (Some(x), Some(y)) = (num(ca, m.name), num(cb, m.name)) else {
                println!("{} {}: missing", w.name(), m.name);
                breaches += 1;
                continue;
            };
            let diff = (y - x).abs() / x;
            let ok = diff <= m.bound;
            breaches += (!ok && w.is_gated()) as usize;
            println!(
                "{:<19} {:<14} {:>14.4} {:>14.4} {:<6} diff {:>6.2}% bound {:>4.0}% {}",
                w.name(),
                m.name,
                x,
                y,
                m.unit,
                diff * 100.0,
                m.bound * 100.0,
                match (ok, w.is_gated()) {
                    (true, _) => "ok",
                    (false, true) => "EXCEEDED",
                    (false, false) => "exceeded (not gated: the disk's noise)",
                }
            );
        }
        for c in [ca, cb] {
            let share = c
                .extras
                .get("failed_share")
                .and_then(|v| v.parse::<f64>().ok());
            if share.is_none_or(|s| s > FAILED_SHARE_BOUND) {
                println!(
                    "{} failed_share {share:?} exceeds {FAILED_SHARE_BOUND}",
                    w.name()
                );
                breaches += 1;
            }
        }
    }
    let (ta, tb) = (&a["traced"], &b["traced"]);
    for (name, _, _) in per_layer().into_iter().filter(|l| is_fixed_count(&l.0)) {
        let same = ta.rows.contains_key(&name) && ta.rows.get(&name) == tb.rows.get(&name);
        breaches += !same as usize;
        println!(
            "{name:<32} {:>10} {:>10} {}",
            ta.rows.get(&name).map_or("-", String::as_str),
            tb.rows.get(&name).map_or("-", String::as_str),
            if same { "identical" } else { "DIFFERS" }
        );
    }
    breaches
}

fn orchestrate(a: &Args) -> Result<(), String> {
    let seconds = a
        .seconds
        .unwrap_or(if a.quick { QUICK_SECONDS } else { RUN_SECONDS });
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
    let path = Path::new(OUT_DIR).join("results.jsonl");
    let mut results =
        std::fs::File::create(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    if a.repeat {
        let first = run_set(a.seed, seconds, true, true, &mut results)?;
        let second = run_set(a.seed, seconds, true, true, &mut results)?;
        let breaches = compare(&first, &second);
        if a.quick {
            println!("--quick: {breaches} differences beyond bounds (not applied to 3 s runs)");
        } else if breaches > 0 {
            return Err(format!("{breaches} differences beyond their bounds"));
        }
    } else {
        run_set(a.seed, seconds, !a.traced, a.traced, &mut results)?;
    }
    println!("results written to {}", path.display());
    Ok(())
}

fn main() -> ExitCode {
    let outcome = parse_args().and_then(|a| {
        if a.manifest {
            print!("{}", manifest_json());
            return Ok(());
        }
        match &a.workload {
            Some(name) => {
                let w = Workload::from_name(name).ok_or(format!("unknown workload {name}"))?;
                run_single(w, a.seed, a.seconds.unwrap_or(RUN_SECONDS), a.trace)
            }
            None => orchestrate(&a),
        }
    });
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("ccopt-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
