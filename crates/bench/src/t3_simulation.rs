//! Experiment T3 — the Section 6 environment, simulated.
//!
//! "Multiple users at various terminals executing transactions": the
//! open-world machine ([`ccopt_sim::simulate_open`]) runs `n` terminals
//! for `n` in [`LEVELS`], each submitting three-step update transactions
//! over `2n` variables (the data scales with the users, so per-variable
//! contention stays comparable across levels), until `40n` commits. Every
//! engine mechanism runs the same stream; the report gives throughput,
//! mean response, and the two ways a step loses time to concurrency
//! control — waits and aborts — per commit.

use ccopt_engine::CcKind;
use ccopt_sim::open_sim::{simulate_open, OpenSimConfig, OpenSimResult};
use ccopt_sim::report::{f3, Table};

/// Numbers of users (terminals) swept.
pub const LEVELS: [usize; 3] = [2, 4, 8];

/// The stream at `n` users.
fn config(n: usize) -> OpenSimConfig {
    OpenSimConfig {
        terminals: n,
        total_txns: 40 * n,
        vars: 2 * n,
        steps: (3, 3),
        read_fraction: 0.0,
        hot_fraction: 0.0,
        seed: 1000 + n as u64,
        ..OpenSimConfig::default()
    }
}

/// Run the sweep; rows keyed by (level, cc), mechanisms in
/// [`CcKind::ALL`] order.
pub fn sweep() -> Vec<(usize, OpenSimResult)> {
    let mut out = Vec::new();
    for n in LEVELS {
        let cfg = config(n);
        for kind in CcKind::ALL {
            out.push((n, simulate_open(kind, &cfg)));
        }
    }
    out
}

/// Waits per commit.
fn waits_per_commit(r: &OpenSimResult) -> f64 {
    r.waits as f64 / r.committed.max(1) as f64
}

/// The printable report.
pub fn report() -> String {
    let mut t = Table::new(
        "T3: simulated users at terminals, per engine mechanism",
        &[
            "users",
            "cc",
            "throughput",
            "response",
            "waits/commit",
            "aborts/commit",
        ],
    );
    for (n, r) in &sweep() {
        t.row(&[
            n.to_string(),
            r.cc_name.clone(),
            f3(r.throughput),
            f3(r.latency.mean),
            f3(waits_per_commit(r)),
            f3(r.abort_rate),
        ]);
    }
    let mut out = String::new();
    out.push_str("EXPERIMENT T3 — scheduling/waiting/execution times (Section 6)\n\n");
    out.push_str(&t.to_string());
    out.push_str("\nShape: the serial strawman waits most and its waits grow with\n");
    out.push_str("the number of users while its throughput stays flat;\n");
    out.push_str("richer-information schedulers wait less, trading some waits\n");
    out.push_str("for aborts (T/O, OCC, SGT). Absolute numbers are\n");
    out.push_str("simulator-scale; the ordering is the paper's claim.\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_waits_most_and_more_with_every_user() {
        let results = sweep();
        let mut serial_prev = 0.0;
        for n in LEVELS {
            let level: Vec<&OpenSimResult> = results
                .iter()
                .filter(|(m, _)| *m == n)
                .map(|(_, r)| r)
                .collect();
            assert_eq!(level.len(), CcKind::ALL.len());
            for r in &level {
                assert_eq!(r.committed, config(n).total_txns, "{} at {n}", r.cc_name);
            }
            let serial = level.iter().find(|r| r.cc_name == "serial").unwrap();
            let serial_waits = waits_per_commit(serial);
            for r in &level {
                assert!(
                    waits_per_commit(r) <= serial_waits,
                    "{} waits more than serial at {n} users: {} > {serial_waits}",
                    r.cc_name,
                    waits_per_commit(r)
                );
            }
            assert!(
                serial_waits > serial_prev,
                "serial waits/commit must grow with users: {serial_waits} at {n}"
            );
            serial_prev = serial_waits;
        }
    }
}
