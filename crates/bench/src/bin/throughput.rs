//! The deterministic engine grid: `cargo run --release -p ccopt-bench --bin
//! throughput`.
//!
//! Runs every concurrency-control mechanism (all seven: the five
//! single-version ones plus MVTO and SI) against three simulated grids and
//! one message count, writes `BENCH_engine.json` next to the bench crate's
//! manifest, then prints the same cells as aligned tables. Nothing here
//! reads a wall clock: every leaf of the file is a function of the
//! configuration, so
//!
//! ```text
//! cargo run --release -p ccopt-bench --bin throughput
//! git diff --exit-code crates/bench/BENCH_engine.json
//! ```
//!
//! is the semantic regression guard — a diff means the engine decides,
//! waits, aborts or logs differently. Real time is measured by
//! `benchmark/` alone (`BENCHMARK.json` at the repo root).
//!
//! * the **open-world** grid (`open_world`): arrival-driven session
//!   streams over recycled slots — throughput, the latency distribution
//!   (mean/p50/p95), abort rate, the boundedness gauges (peak slots,
//!   peak live versions), swept over the durability modes
//!   (`none` / `group(8)` / `strict`): durable cells run against a real
//!   write-ahead log, fsyncs charge simulated time to the committing
//!   terminal, and group commit's amortized fsync is the measured claim —
//!   the harness asserts `group` retains at least half of `none`-mode
//!   throughput, and that every sampled committed history is strict (the
//!   property redo-only logging rests on);
//! * the **sharded** grid (`sharded`): the same open-world streams over a
//!   [`ccopt_engine::ShardedDb`], swept over shard count × cross-shard
//!   ratio — single-shard fast-path commits vs. two-phase cross-shard
//!   commits on real per-shard workers. Every sampled history
//!   passes the serializability oracle (SI exempt), and the `S = 1` cells
//!   are asserted **equal** to the open-world `none` cells: the sharding
//!   layer adds no simulated-time distortion;
//! * the **degraded-mode** grid (`degraded`): the same durable two-shard
//!   streams run twice per mechanism — a fault-free baseline and a run
//!   with one scripted shard panic at the stream midpoint, supervised and
//!   restarted in place from its write-ahead log. The harness asserts
//!   full service and serializability *through* the restart, and reports
//!   throughput retention (degraded over baseline) plus
//!   `recovery_replayed`, the size of the supervised recovery in replayed
//!   commits;
//! * the **messaging count** (`batched.tax`): one conflict-free stream
//!   submitted to a `ShardedDb` at `S = 1` per-op (every op a one-op
//!   request, the commit and the retire one shard message each, the
//!   lazy begin riding the first op's: `ops + 2` messages per
//!   transaction) and through
//!   [`ccopt_engine::ShardedDb::submit_group`] with whole transactions
//!   grouped per message. The engine's own `shard_msgs` counters report
//!   the message collapse exactly and are **asserted** (grouped ≤ a
//!   tenth of per-op); what a message costs is `benchmark/`'s
//!   `shard.msgs_per_txn_*` and `shard.*_us_per_txn` rungs.
//!
//! Abort and wait counts ride alongside throughput so mechanism trade-offs
//! (blocking vs. restarting vs. versioning) stay visible. Every open-world
//! and sharded cell also carries the trace plane's deterministic columns:
//! commit-latency percentiles in engine ticks (`commit_lat_ticks_p50`/`p99`,
//! from the always-on fixed-bucket histogram), the per-cell contention
//! table (`top_contended`: the most wait/abort-attributed variables) and
//! the abort attribution (`aborts_by_rule`: conflict-rule name to count).
//!
//! Schema v12 is v11 less the closed-world `results` grid and its
//! `config.batches` / `config.workload_seeds`; every remaining leaf kept its
//! path and value (`config.seed` and the timing constants are the open
//! grid's).

use ccopt_engine::durability::scratch_path;
use ccopt_engine::{CcKind, DurabilityMode};
use ccopt_sim::open_sim::{
    check_serializable, check_strict, simulate_open, simulate_open_durable, DurableConfig,
    OpenSimConfig, OpenSimResult,
};
use ccopt_sim::report::{f3, Table};
use ccopt_sim::shard_sim::{
    simulate_sharded, simulate_sharded_faulty, FaultPlan, ShardDurableConfig, ShardSimConfig,
};
use std::io::Write;

/// One open-world grid cell: the simulator's result under its labels.
struct OpenCell {
    workload: String,
    durability: String,
    r: OpenSimResult,
}

/// Durability modes swept on the open grid.
fn durability_modes() -> Vec<DurabilityMode> {
    vec![
        DurabilityMode::None,
        DurabilityMode::group(8),
        DurabilityMode::Strict,
    ]
}

/// The open-world grid: (label, config). Stream lengths are many times the
/// terminal count, so every cell exercises slot recycling and version GC;
/// every cell samples its committed history for the oracles.
fn open_workloads() -> Vec<(String, OpenSimConfig)> {
    let total = 640;
    let base = OpenSimConfig {
        terminals: 8,
        total_txns: total,
        seed: 0xC0FFEE,
        check: true,
        ..OpenSimConfig::default()
    };
    vec![
        (
            format!("open_uniform(k=8,v=32,n={total})"),
            OpenSimConfig {
                vars: 32,
                read_fraction: 0.5,
                hot_fraction: 0.1,
                ..base
            },
        ),
        (
            format!("open_hotspot(k=8,v=16,h=0.6,n={total})"),
            OpenSimConfig {
                vars: 16,
                read_fraction: 0.3,
                hot_fraction: 0.6,
                ..base
            },
        ),
    ]
}

/// One sharded grid cell: the simulator's result under its labels.
struct ShardCell {
    workload: String,
    shards: usize,
    cross_ratio: f64,
    cross_commits_observed: usize,
    r: OpenSimResult,
}

/// One degraded-mode grid cell: the same durable sharded stream run
/// twice — fault-free baseline vs. a mid-stream shard panic supervised
/// in place — so the cost of serving *through* a shard restart is a
/// measured ratio, not a claim.
struct DegradedCell {
    workload: String,
    shards: usize,
    baseline_throughput: f64,
    /// Degraded over baseline simulated throughput (1.0 = free restart).
    degraded_ratio: f64,
    /// The degraded run.
    r: OpenSimResult,
}

/// The degraded-mode grid: durable two-shard streams with one scripted
/// shard panic at the midpoint, per mechanism. Asserts full service and
/// serializability through the restart; reports throughput retention
/// and the recovery size.
fn degraded_grid() -> Vec<DegradedCell> {
    let (label, base) = open_workloads().into_iter().next().expect("uniform");
    let shards = 2;
    let mut cells = Vec::new();
    // The scripted worker panics are caught and supervised; keep their
    // backtraces out of the report (real panics still print).
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let injected = info
            .payload()
            .downcast_ref::<&str>()
            .is_some_and(|s| s.contains("injected shard-worker panic"));
        if !injected {
            prev(info);
        }
    }));
    for kind in CcKind::ALL {
        let name = kind.name();
        let scfg = ShardSimConfig::new(base, shards, 0.2);
        let tag = name.replace('/', "_");
        // Fault-free durable baseline.
        let dir = scratch_path(&format!("bench-degraded-base-{tag}"));
        let _ = std::fs::remove_dir_all(&dir);
        let dur = ShardDurableConfig::new(dir.clone(), DurabilityMode::Strict);
        let b = simulate_sharded_faulty(kind, &scfg, Some(&dur), &FaultPlan::default());
        let _ = std::fs::remove_dir_all(&dir);
        // The degraded run: panic one shard halfway through the stream.
        let dir = scratch_path(&format!("bench-degraded-{tag}"));
        let _ = std::fs::remove_dir_all(&dir);
        let dur = ShardDurableConfig {
            record_journal: true,
            ..ShardDurableConfig::new(dir.clone(), DurabilityMode::Strict)
        };
        let plan = FaultPlan::panic_at(base.total_txns / 2, 1);
        let r = simulate_sharded_faulty(kind, &scfg, Some(&dur), &plan);
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(
            r.committed, base.total_txns,
            "{name}: the stream must serve fully through the shard restart"
        );
        assert!(
            r.shard_restarts >= 1,
            "{name}: the scripted panic must be supervised"
        );
        if name != "SI" {
            check_serializable(&r).unwrap_or_else(|e| {
                panic!("{name}: non-serializable history through a shard restart: {e}")
            });
        }
        cells.push(DegradedCell {
            workload: label.clone(),
            shards,
            baseline_throughput: b.throughput,
            degraded_ratio: r.throughput / b.throughput.max(1e-12),
            r,
        });
    }
    let _ = std::panic::take_hook();
    cells
}

/// The (shards, cross_ratio) combinations swept. `S = 1` runs only at
/// ratio 0 (there is nothing to cross) and doubles as the no-distortion
/// baseline asserted against the open-world grid.
fn shard_combos() -> Vec<(usize, f64)> {
    let mut combos = vec![(1, 0.0)];
    for s in [2usize, 4, 8] {
        for r in [0.0, 0.2, 0.5] {
            combos.push((s, r));
        }
    }
    combos
}

/// The sharded grid over the open_uniform workload: shard count ×
/// cross-shard ratio, serializability-checked, with the `S = 1` cells
/// asserted identical to the open-world `none` cells.
fn sharded_grid(open_cells: &[OpenCell]) -> Vec<ShardCell> {
    let (label, base) = open_workloads().into_iter().next().expect("uniform");
    let mut cells = Vec::new();
    for (shards, cross_ratio) in shard_combos() {
        for kind in CcKind::ALL {
            let name = kind.name();
            let scfg = ShardSimConfig::new(base, shards, cross_ratio);
            let r = simulate_sharded(kind, &scfg);
            assert_eq!(
                r.committed, base.total_txns,
                "{name} did not serve the sharded {label} stream (S={shards}, x={cross_ratio})"
            );
            if name != "SI" {
                check_serializable(&r).unwrap_or_else(|e| {
                    panic!("{name} (S={shards}, x={cross_ratio}): non-serializable history: {e}")
                });
            }
            // Cross-shard transactions actually happened on crossing cells
            // (aborted ones may retry single-shard, hence observed count).
            let p = ccopt_engine::shard::Partition::new(base.vars, shards);
            let cross_observed = r
                .history
                .iter()
                .filter(|t| {
                    let mut it = t.ops.iter().map(|&(_, op)| p.shard_of(op.var));
                    let first = it.next();
                    it.any(|s| Some(s) != first)
                })
                .count();
            if shards > 1 && cross_ratio > 0.0 {
                assert!(
                    cross_observed > 0,
                    "{name}: a crossing cell must commit cross-shard transactions"
                );
            }
            if shards == 1 {
                // The no-distortion claim: S = 1 must reproduce the
                // open-world cell exactly (same workload, no durability).
                let baseline = open_cells
                    .iter()
                    .find(|c| c.workload == label && c.r.cc_name == name && c.durability == "none")
                    .expect("the open grid covers the uniform workload");
                let baseline = &baseline.r;
                assert_eq!(
                    (r.committed, r.aborts, r.waits),
                    (baseline.committed, baseline.aborts, baseline.waits),
                    "{name}: S=1 sharded cell diverged from the open-world grid"
                );
                assert!(
                    (r.throughput - baseline.throughput).abs() < 1e-12,
                    "{name}: S=1 sharded throughput {} != open-world {}",
                    r.throughput,
                    baseline.throughput
                );
            }
            cells.push(ShardCell {
                workload: label.clone(),
                shards,
                cross_ratio,
                cross_commits_observed: cross_observed,
                r,
            });
        }
    }
    cells
}

fn open_grid() -> Vec<OpenCell> {
    let mut cells = Vec::new();
    for (label, ocfg) in open_workloads() {
        for mode in durability_modes() {
            for kind in CcKind::ALL {
                let name = kind.name();
                let r: OpenSimResult = match mode {
                    DurabilityMode::None => simulate_open(kind, &ocfg),
                    mode => {
                        let path = scratch_path("bench-open");
                        let r = simulate_open_durable(
                            kind,
                            &ocfg,
                            &DurableConfig::new(path.clone(), mode),
                        );
                        let _ = std::fs::remove_file(&path);
                        r
                    }
                };
                assert_eq!(
                    r.committed, ocfg.total_txns,
                    "{name} did not serve the whole {label} stream under {mode}"
                );
                check_strict(&r).unwrap_or_else(|e| {
                    panic!("{name} under {mode} produced a non-strict history: {e}")
                });
                cells.push(OpenCell {
                    workload: label.clone(),
                    durability: mode.to_string(),
                    r,
                });
            }
        }
    }
    // The group-commit claim, asserted on every (workload, cc) pair:
    // batching fsyncs keeps durable throughput within a small factor of
    // running with no log at all.
    for c in &cells {
        if c.durability.starts_with("group") {
            let baseline = cells
                .iter()
                .find(|b| {
                    b.durability == "none" && b.workload == c.workload && b.r.cc_name == c.r.cc_name
                })
                .expect("every durable cell has a no-durability baseline");
            assert!(
                c.r.throughput >= 0.5 * baseline.r.throughput,
                "{} on {}: group-commit throughput {:.4} fell below 50% of none-mode {:.4}",
                c.r.cc_name,
                c.workload,
                c.r.throughput,
                baseline.r.throughput
            );
        }
    }
    cells
}

/// One messaging-count cell: the same conflict-free stream through the
/// per-op and the grouped `S = 1` submission paths.
struct BatchedTaxCell {
    cc: String,
    txns: usize,
    ops: usize,
    per_op_msgs: usize,
    grouped_msgs: usize,
}

/// Transactions grouped per `submit_group` message.
const TAX_GROUP: usize = 128;
/// Ops per transaction in the tax stream.
const TAX_OPS: usize = 8;

/// The tax stream: transaction `i` bumps `TAX_OPS` consecutive
/// variables owned by slot `i % TAX_GROUP`, so any `TAX_GROUP`
/// consecutive transactions touch disjoint variables — concurrent
/// group members never conflict and every path commits every
/// transaction. The difference between the paths is then pure
/// submission packaging.
fn tax_program(i: usize) -> Vec<u32> {
    (0..TAX_OPS)
        .map(|p| ((i % TAX_GROUP) * TAX_OPS + p) as u32)
        .collect()
}

/// The engine-level messaging count: one pass of the tax stream through
/// each `S = 1` submission path (see the module docs), reading the
/// engine's `shard_msgs` counter behind each: one count per job the
/// executor runs under the shard's token, in both.
fn batched_tax() -> Vec<BatchedTaxCell> {
    use ccopt_engine::{BatchOp, GroupReq, Op, ShardedDb};
    use ccopt_model::{GlobalState, VarId};

    let txns = 4_000;
    let vars = TAX_GROUP * TAX_OPS;
    let mut cells = Vec::new();
    for kind in CcKind::ALL {
        let name = kind.name();
        if !matches!(name, "strict-2PL" | "SI") {
            continue; // one locking and one multi-version representative
        }
        let init = GlobalState::from_ints(&vec![0i64; vars]);

        let bump = |v| BatchOp::Affine {
            var: VarId(v),
            a: 1,
            c: 1,
        };

        // `ShardedDb` at S = 1, one shard message per op — a one-op
        // request each (the begin rides the first) — plus commit and
        // retire: messaging at its worst.
        let per_op_msgs = {
            let mut db = ShardedDb::new(kind, init.clone(), 1);
            for i in 0..txns {
                let h = db.begin();
                for v in tax_program(i) {
                    let req = GroupReq {
                        h,
                        ops: vec![bump(v)],
                        commit: false,
                    };
                    let resp = db.submit_group(vec![req]).pop().expect("one response");
                    match resp.results.expect("per-op update")[..] {
                        [Op::Done(_)] => {}
                        ref other => {
                            panic!("{name}: per-op tax stream must not conflict: {other:?}")
                        }
                    }
                }
                assert!(matches!(db.commit(h), Ok(Op::Done(()))), "{name}: commit");
                db.retire(h).expect("per-op retire");
            }
            db.metrics().shard_msgs
        };

        // `submit_group` at S = 1, whole transactions — begins, runs,
        // commits, retires — grouped per message.
        let grouped_msgs = {
            let mut db = ShardedDb::new(kind, init, 1);
            let mut done = 0usize;
            while done < txns {
                let n = TAX_GROUP.min(txns - done);
                let reqs: Vec<GroupReq> = (done..done + n)
                    .map(|i| GroupReq {
                        h: db.begin(),
                        ops: tax_program(i).into_iter().map(bump).collect(),
                        commit: true,
                    })
                    .collect();
                for (k, resp) in db.submit_group(reqs).into_iter().enumerate() {
                    let outs = resp.results.expect("grouped run");
                    assert!(
                        outs.iter().all(|o| matches!(o, Op::Done(_))),
                        "{name}: grouped tax stream must not conflict (txn {})",
                        done + k
                    );
                    assert!(
                        matches!(resp.commit, Some(Ok(Op::Done(())))),
                        "{name}: grouped commit (txn {})",
                        done + k
                    );
                }
                done += n;
            }
            db.metrics().shard_msgs
        };

        // The acceptance gate: grouping must collapse the shard messages
        // by an order of magnitude.
        assert!(
            grouped_msgs * 10 <= per_op_msgs,
            "{name}: grouping left {grouped_msgs} of {per_op_msgs} messages standing",
        );
        cells.push(BatchedTaxCell {
            cc: name.to_string(),
            txns,
            ops: txns * TAX_OPS,
            per_op_msgs,
            grouped_msgs,
        });
    }
    cells
}

fn main() {
    let open_cells = open_grid();
    let shard_cells = sharded_grid(&open_cells);
    let degraded_cells = degraded_grid();
    let tax_cells = batched_tax();

    // The file first, the tables after: a reader that closes stdout early
    // (`throughput | head`) must not leave a stale file behind.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_engine.json");
    std::fs::write(
        path,
        to_json(
            &open_workloads()[0].1,
            &open_cells,
            &shard_cells,
            &degraded_cells,
            &tax_cells,
        ),
    )
    .expect("write BENCH_engine.json");

    let mut open_table = Table::new(
        "open-world session streams (per CC x workload x durability)",
        &[
            "workload",
            "cc",
            "dur",
            "commits",
            "aborts",
            "waits",
            "thru",
            "lat-mean",
            "lat-p95",
            "abort-rate",
            "peak-slots",
            "peak-vers",
            "syncs",
            "clat-p50",
            "clat-p99",
            "hot-var",
        ],
    );
    for c in &open_cells {
        open_table.row(&[
            c.workload.clone(),
            c.r.cc_name.clone(),
            c.durability.clone(),
            c.r.committed.to_string(),
            c.r.aborts.to_string(),
            c.r.waits.to_string(),
            f3(c.r.throughput),
            f3(c.r.latency.mean),
            f3(c.r.latency.p95),
            f3(c.r.abort_rate),
            c.r.peak_slots.to_string(),
            c.r.peak_live_versions.to_string(),
            c.r.wal_syncs.to_string(),
            c.r.commit_lat_ticks_p50.to_string(),
            c.r.commit_lat_ticks_p99.to_string(),
            c.r.top_contended
                .first()
                .map_or_else(|| "-".to_string(), |&(v, _, _)| format!("v{v}")),
        ]);
    }

    let mut shard_table = Table::new(
        "sharded session streams (per CC x shards x cross-ratio; S=1 == open-world)",
        &[
            "workload",
            "cc",
            "shards",
            "cross",
            "commits",
            "x-commits",
            "aborts",
            "waits",
            "thru",
            "lat-mean",
            "lat-p95",
            "abort-rate",
            "peak-slots",
            "peak-vers",
        ],
    );
    for c in &shard_cells {
        shard_table.row(&[
            c.workload.clone(),
            c.r.cc_name.clone(),
            c.shards.to_string(),
            format!("{:.1}", c.cross_ratio),
            c.r.committed.to_string(),
            c.cross_commits_observed.to_string(),
            c.r.aborts.to_string(),
            c.r.waits.to_string(),
            f3(c.r.throughput),
            f3(c.r.latency.mean),
            f3(c.r.latency.p95),
            f3(c.r.abort_rate),
            c.r.peak_slots.to_string(),
            c.r.peak_live_versions.to_string(),
        ]);
    }

    let mut degraded_table = Table::new(
        "degraded mode (durable 2-shard stream through a mid-run shard panic)",
        &[
            "workload", "cc", "commits", "aborts", "restarts", "thru", "baseline", "ratio",
            "replayed",
        ],
    );
    for c in &degraded_cells {
        degraded_table.row(&[
            c.workload.clone(),
            c.r.cc_name.clone(),
            c.r.committed.to_string(),
            c.r.aborts.to_string(),
            c.r.shard_restarts.to_string(),
            f3(c.r.throughput),
            f3(c.baseline_throughput),
            f3(c.degraded_ratio),
            c.r.recovery_replayed.to_string(),
        ]);
    }

    let mut tax_table = Table::new(
        "batched messaging (S=1 shard messages, per-op vs grouped)",
        &["cc", "txns", "ops", "per-op-msgs", "grouped-msgs"],
    );
    for c in &tax_cells {
        tax_table.row(&[
            c.cc.clone(),
            c.txns.to_string(),
            c.ops.to_string(),
            c.per_op_msgs.to_string(),
            c.grouped_msgs.to_string(),
        ]);
    }

    // A reader that closes stdout early (`throughput | head -1`) is done
    // reading, which is no failure: the file is already written.
    let tables = [open_table, shard_table, degraded_table, tax_table];
    if let Err(e) = print_report(path, &tables) {
        if e.kind() != std::io::ErrorKind::BrokenPipe {
            panic!("write to stdout: {e}");
        }
    }
}

/// The report on stdout: where the file went, then every table.
fn print_report(path: &str, tables: &[Table]) -> std::io::Result<()> {
    let mut out = std::io::stdout().lock();
    writeln!(out, "wrote {path}")?;
    for table in tables {
        writeln!(out, "{table}")?;
    }
    out.flush()
}

/// Encode a contention table as a JSON array of rows.
fn json_contended(rows: &[(u32, usize, usize)]) -> String {
    let rows: Vec<String> = rows
        .iter()
        .map(|&(var, waits, aborts)| {
            format!("{{\"var\": {var}, \"waits\": {waits}, \"aborts\": {aborts}}}")
        })
        .collect();
    format!("[{}]", rows.join(", "))
}

/// Encode an abort attribution as a JSON object (rule name to count).
fn json_rules(rows: &[(&'static str, usize)]) -> String {
    let rows: Vec<String> = rows
        .iter()
        .map(|&(rule, n)| format!("{rule:?}: {n}"))
        .collect();
    format!("{{{}}}", rows.join(", "))
}

/// Hand-rolled JSON (no serde in the dependency-free build environment).
/// Floats print at `{:.6}`, so a libm that differs in the last ulp of the
/// arrival process's `ln` still writes the same file. `cfg` is an open
/// grid stream: the seed and timing constants every grid shares.
fn to_json(
    cfg: &OpenSimConfig,
    open_cells: &[OpenCell],
    shard_cells: &[ShardCell],
    degraded_cells: &[DegradedCell],
    tax_cells: &[BatchedTaxCell],
) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"schema\": \"ccopt-bench/throughput/v12\",\n");
    s.push_str(&format!(
        "  \"config\": {{\"seed\": {}, \"scheduling_time\": {}, \"exec_time\": {}, \"think_time\": {}, \"retry_interval\": {}, \"restart_penalty\": {}, \"sync_time\": {}}},\n",
        cfg.seed,
        cfg.scheduling_time,
        cfg.exec_time,
        cfg.think_time,
        cfg.retry_interval,
        cfg.restart_penalty,
        cfg.sync_time,
    ));
    s.push_str("  \"open_world\": [\n");
    for (i, c) in open_cells.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"workload\": {:?}, \"cc\": {:?}, \"durability\": {:?}, \"commits\": {}, \"aborts\": {}, \"waits\": {}, \"mv_write_aborts\": {}, \"throughput\": {:.6}, \"latency_mean\": {:.6}, \"latency_p50\": {:.6}, \"latency_p95\": {:.6}, \"abort_rate\": {:.6}, \"peak_slots\": {}, \"peak_live_versions\": {}, \"versions_reclaimed\": {}, \"wal_syncs\": {}, \"commit_lat_ticks_p50\": {}, \"commit_lat_ticks_p99\": {}, \"top_contended\": {}, \"aborts_by_rule\": {}}}{}\n",
            c.workload,
            c.r.cc_name,
            c.durability,
            c.r.committed,
            c.r.aborts,
            c.r.waits,
            c.r.mv_write_aborts,
            c.r.throughput,
            c.r.latency.mean,
            c.r.latency.p50,
            c.r.latency.p95,
            c.r.abort_rate,
            c.r.peak_slots,
            c.r.peak_live_versions,
            c.r.versions_reclaimed,
            c.r.wal_syncs,
            c.r.commit_lat_ticks_p50,
            c.r.commit_lat_ticks_p99,
            json_contended(&c.r.top_contended),
            json_rules(&c.r.aborts_by_rule),
            if i + 1 == open_cells.len() { "" } else { "," },
        ));
    }
    s.push_str("  ],\n");
    s.push_str("  \"sharded\": [\n");
    for (i, c) in shard_cells.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"workload\": {:?}, \"cc\": {:?}, \"shards\": {}, \"cross_ratio\": {:.2}, \"commits\": {}, \"cross_commits\": {}, \"aborts\": {}, \"waits\": {}, \"throughput\": {:.6}, \"latency_mean\": {:.6}, \"latency_p50\": {:.6}, \"latency_p95\": {:.6}, \"abort_rate\": {:.6}, \"peak_slots\": {}, \"peak_live_versions\": {}, \"commit_lat_ticks_p50\": {}, \"commit_lat_ticks_p99\": {}, \"top_contended\": {}, \"aborts_by_rule\": {}}}{}\n",
            c.workload,
            c.r.cc_name,
            c.shards,
            c.cross_ratio,
            c.r.committed,
            c.cross_commits_observed,
            c.r.aborts,
            c.r.waits,
            c.r.throughput,
            c.r.latency.mean,
            c.r.latency.p50,
            c.r.latency.p95,
            c.r.abort_rate,
            c.r.peak_slots,
            c.r.peak_live_versions,
            c.r.commit_lat_ticks_p50,
            c.r.commit_lat_ticks_p99,
            json_contended(&c.r.top_contended),
            json_rules(&c.r.aborts_by_rule),
            if i + 1 == shard_cells.len() { "" } else { "," },
        ));
    }
    s.push_str("  ],\n");
    s.push_str("  \"degraded\": [\n");
    for (i, c) in degraded_cells.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"workload\": {:?}, \"cc\": {:?}, \"shards\": {}, \"commits\": {}, \"aborts\": {}, \"shard_restarts\": {}, \"throughput\": {:.6}, \"baseline_throughput\": {:.6}, \"degraded_ratio\": {:.6}, \"recovery_replayed\": {}}}{}\n",
            c.workload,
            c.r.cc_name,
            c.shards,
            c.r.committed,
            c.r.aborts,
            c.r.shard_restarts,
            c.r.throughput,
            c.baseline_throughput,
            c.degraded_ratio,
            c.r.recovery_replayed,
            if i + 1 == degraded_cells.len() { "" } else { "," },
        ));
    }
    s.push_str("  ],\n");
    s.push_str("  \"batched\": {\n");
    s.push_str("    \"tax\": [\n");
    for (i, c) in tax_cells.iter().enumerate() {
        s.push_str(&format!(
            "      {{\"cc\": {:?}, \"txns\": {}, \"ops\": {}, \"group\": {}, \"per_op_msgs\": {}, \"grouped_msgs\": {}}}{}\n",
            c.cc,
            c.txns,
            c.ops,
            TAX_GROUP,
            c.per_op_msgs,
            c.grouped_msgs,
            if i + 1 == tax_cells.len() { "" } else { "," },
        ));
    }
    s.push_str("    ]\n");
    s.push_str("  }\n");
    s.push_str("}\n");
    s
}
