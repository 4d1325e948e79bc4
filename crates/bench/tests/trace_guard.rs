//! The tracing-off perf guard: with no tracer attached, the engine's
//! open-world throughput must stay within 3% of the checked-in
//! `BENCH_engine.json` baseline — the trace plane's disabled path is a
//! single branch per emission site and may not tax untraced runs.
//!
//! Throughput here is commits per unit of *simulated* time, fully
//! deterministic in the configuration, so the guard is exact: a
//! violation means the trace hooks changed what the engine decides (a
//! correctness bug), not that the machine was busy.

use ccopt_engine::CcKind;
use ccopt_sim::open_sim::{simulate_open, OpenSimConfig};

/// The `open_uniform` full-grid cell exactly as `--bin throughput`
/// configures it (no `--quick`): this must match `open_workloads` there.
fn baseline_cell() -> (String, OpenSimConfig) {
    let total = 640;
    (
        format!("open_uniform(k=8,v=32,n={total})"),
        OpenSimConfig {
            terminals: 8,
            total_txns: total,
            vars: 32,
            read_fraction: 0.5,
            hot_fraction: 0.1,
            seed: 0xC0FFEE,
            check: true,
            ..OpenSimConfig::default()
        },
    )
}

/// Pull `"throughput": <x>` for one `(workload, cc, durability=none)`
/// row out of the hand-rolled benchmark JSON.
fn baseline_throughput(json: &str, workload: &str, cc: &str) -> f64 {
    let row = json
        .lines()
        .find(|l| {
            l.contains(&format!("\"workload\": {workload:?}"))
                && l.contains(&format!("\"cc\": {cc:?}"))
                && l.contains("\"durability\": \"none\"")
        })
        .unwrap_or_else(|| panic!("no baseline row for {cc} on {workload}"));
    let key = "\"throughput\": ";
    let start = row.find(key).expect("a throughput field") + key.len();
    row[start..]
        .chars()
        .take_while(|c| c.is_ascii_digit() || *c == '.' || *c == '-')
        .collect::<String>()
        .parse()
        .expect("a numeric throughput")
}

#[test]
fn untraced_throughput_stays_within_3_percent_of_the_checked_in_baseline() {
    let json = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_engine.json"))
        .expect("the checked-in BENCH_engine.json");
    let (label, cfg) = baseline_cell();
    for kind in CcKind::ALL {
        let name = kind.name();
        let want = baseline_throughput(&json, &label, name);
        let r = simulate_open(kind, &cfg);
        assert_eq!(r.committed, cfg.total_txns, "{name}: full service");
        let drift = (r.throughput - want).abs() / want.max(1e-12);
        assert!(
            drift <= 0.03,
            "{name}: untraced throughput {:.6} drifted {:.2}% from the \
             checked-in baseline {:.6} — the disabled trace path is not free",
            r.throughput,
            drift * 100.0,
            want
        );
    }
}
