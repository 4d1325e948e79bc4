//! Trace-plane smoke harness: `cargo run -p ccopt-bench --bin trace_smoke
//! [-- <out_dir>]`.
//!
//! Runs one traced, durable, two-shard stream per mechanism with a
//! scripted shard panic at the midpoint — the flight-recorder acceptance
//! scenario — and validates every artifact it produces:
//!
//! * the live JSONL sink is schema-valid line by line
//!   ([`validate_jsonl_line`]) with unique, totally ordering `gseq`
//!   stamps;
//! * the fault supervisor dumped the dead shard's flight-recorder ring
//!   (`flight-shard<K>.jsonl`), also schema-valid;
//! * the stream served fully through the crash and every abort in the
//!   result carries a conflict-rule attribution.
//!
//! Artifacts land under `<out_dir>` (default `target/trace-smoke`), one
//! subdirectory per mechanism, for CI to upload. Exits non-zero on any
//! validation failure (assertions), so the smoke job is a real gate.

use ccopt_engine::durability::scratch_path;
use ccopt_engine::trace::validate_jsonl_line;
use ccopt_engine::{CcKind, DurabilityMode, TraceConfig};
use ccopt_sim::open_sim::OpenSimConfig;
use ccopt_sim::shard_sim::{
    simulate_sharded_traced, FaultPlan, ShardDurableConfig, ShardSimConfig,
};
use std::path::{Path, PathBuf};

/// Validate one JSONL trace file: every line parses against the event
/// schema; `gseq` stamps strictly increase when `ordered` (ring dumps
/// and per-shard streams are emission-ordered; the shared sink is not,
/// its order is by stamp after merging). Returns the line count.
fn validate_file(path: &Path, ordered: bool) -> usize {
    let body =
        std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    let mut last_gseq = 0u64;
    let mut lines = 0usize;
    for line in body.lines() {
        validate_jsonl_line(line).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        if ordered {
            let gseq = field(line, "gseq");
            assert!(
                gseq > last_gseq,
                "{}: gseq {gseq} after {last_gseq}",
                path.display()
            );
            last_gseq = gseq;
        }
        lines += 1;
    }
    assert!(lines > 0, "{}: empty trace", path.display());
    lines
}

/// Extract a numeric field from one flat JSONL line.
fn field(line: &str, key: &str) -> u64 {
    let pat = format!("\"{key}\":");
    let start = line.find(&pat).unwrap_or_else(|| panic!("{key} in {line}")) + pat.len();
    line[start..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect::<String>()
        .parse()
        .expect("numeric field")
}

fn main() {
    let out: PathBuf = std::env::args()
        .nth(1)
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target/trace-smoke"));
    let _ = std::fs::remove_dir_all(&out);
    std::fs::create_dir_all(&out).expect("create the artifact directory");

    // The scripted worker panics are supervised; keep their backtraces
    // out of the smoke log (real panics still print).
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

    let cfg = OpenSimConfig {
        terminals: 4,
        total_txns: 80,
        vars: 8,
        hot_fraction: 0.4,
        seed: 0xBEEF,
        ..OpenSimConfig::default()
    };
    let scfg = ShardSimConfig::new(cfg, 2, 0.4);
    for kind in CcKind::ALL {
        let name = kind.name();
        let tag = name.replace('/', "_");
        let cell_dir = out.join(&tag);
        std::fs::create_dir_all(&cell_dir).expect("create the cell directory");
        let wal_dir = scratch_path(&format!("trace-smoke-{tag}"));
        let _ = std::fs::remove_dir_all(&wal_dir);
        let trace = TraceConfig::to_sink(cell_dir.join("trace.jsonl")).with_dump_dir(&cell_dir);
        let dur = ShardDurableConfig::new(wal_dir.clone(), DurabilityMode::Strict);
        let plan = FaultPlan::panic_at(cfg.total_txns / 2, 0);
        let r = simulate_sharded_traced(kind, &scfg, Some(&dur), Some(&plan), &trace);
        let _ = std::fs::remove_dir_all(&wal_dir);

        assert_eq!(
            r.committed, cfg.total_txns,
            "{name}: the stream must serve fully through the crash"
        );
        assert!(r.shard_restarts >= 1, "{name}: the panic was supervised");
        let attributed: usize = r.aborts_by_rule.iter().map(|&(_, n)| n).sum();
        assert_eq!(attributed, r.aborts, "{name}: every abort carries a rule");

        let sink_lines = validate_file(&cell_dir.join("trace.jsonl"), false);
        let dump = cell_dir.join("flight-shard0.jsonl");
        assert!(
            dump.exists(),
            "{name}: the supervisor must dump the dead shard's ring"
        );
        let dump_lines = validate_file(&dump, true);
        println!(
            "{name}: ok — {sink_lines} sink events, {dump_lines} flight-recorder events, \
             {} restarts, {} replayed, aborts {:?}",
            r.shard_restarts, r.recovery_replayed, r.aborts_by_rule
        );
    }
    let _ = std::panic::take_hook();
    println!("artifacts under {}", out.display());
}
