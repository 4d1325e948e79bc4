//! Experiment T3 — the Section 6 time decomposition, simulated.
//!
//! Sweeps the multiprogramming level (number of concurrent transactions)
//! and reports throughput, response time and the scheduling/waiting/
//! execution decomposition for each engine concurrency control.

use ccopt_engine::CcKind;
use ccopt_sim::engine_sim::{simulate_engine, SimConfig, SimResult};
use ccopt_sim::report::{f3, Table};
use ccopt_sim::workload::Workload;

/// Multiprogramming levels swept.
pub const LEVELS: [usize; 3] = [2, 4, 8];

/// Run the sweep; rows keyed by (level, cc).
pub fn sweep(cfg: &SimConfig) -> Vec<(usize, SimResult)> {
    let mut out = Vec::new();
    for &n in &LEVELS {
        // Scale the data size with the user count so per-variable
        // contention stays comparable across levels (the paper's regime:
        // "transactions mainly involve local computations").
        let wl = Workload::Uniform {
            n,
            steps: 3,
            vars: 2 * n,
        };
        let sys = wl.instantiate(1000 + n as u64);
        for kind in CcKind::ALL {
            out.push((n, simulate_engine(&sys, kind, cfg)));
        }
    }
    out
}

/// The printable report.
pub fn report() -> String {
    report_with(&SimConfig {
        batches: 12,
        ..SimConfig::default()
    })
}

/// Report with an explicit configuration (benches use smaller ones).
pub fn report_with(cfg: &SimConfig) -> String {
    let mut t = Table::new(
        "T3: simulated time decomposition per transaction",
        &[
            "users",
            "cc",
            "throughput",
            "response",
            "waiting",
            "scheduling",
            "aborts",
        ],
    );
    let results = sweep(cfg);
    for (n, r) in &results {
        t.row(&[
            n.to_string(),
            r.cc_name.clone(),
            f3(r.throughput),
            f3(r.response.mean),
            f3(r.waiting.mean),
            f3(r.scheduling.mean),
            r.aborts.to_string(),
        ]);
    }
    let mut out = String::new();
    out.push_str("EXPERIMENT T3 — scheduling/waiting/execution times (Section 6)\n\n");
    out.push_str(&t.to_string());
    out.push_str("\nShape: the serial strawman's waiting time dominates and grows\n");
    out.push_str("with the number of users; richer-information schedulers wait\n");
    out.push_str("less, trading some waits for aborts (T/O, OCC, SGT). Absolute\n");
    out.push_str("numbers are simulator-scale; the ordering is the paper's claim.\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_waits_dominate_at_high_mpl() {
        let cfg = SimConfig {
            batches: 6,
            seed: 11,
            ..SimConfig::default()
        };
        let results = sweep(&cfg);
        // At the largest level, serial's mean waiting exceeds SGT's.
        let at_top: Vec<_> = results
            .iter()
            .filter(|(n, _)| *n == *LEVELS.last().unwrap())
            .collect();
        let serial = at_top.iter().find(|(_, r)| r.cc_name == "serial").unwrap();
        let sgt = at_top.iter().find(|(_, r)| r.cc_name == "SGT").unwrap();
        assert!(
            serial.1.waiting.mean >= sgt.1.waiting.mean,
            "serial {} vs SGT {}",
            serial.1.waiting.mean,
            sgt.1.waiting.mean
        );
    }

    #[test]
    fn all_ccs_commit_everything() {
        let cfg = SimConfig {
            batches: 4,
            seed: 5,
            ..SimConfig::default()
        };
        for (n, r) in sweep(&cfg) {
            assert_eq!(r.commits, n * cfg.batches, "{} at {n}", r.cc_name);
        }
    }
}
