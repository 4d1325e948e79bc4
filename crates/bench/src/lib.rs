//! # `ccopt-bench` — the experiment harness
//!
//! One module per paper artifact; each produces a printable report and is
//! wrapped both by the `experiments` binary (full-size runs, regenerating
//! the data recorded in `EXPERIMENTS.md`) and by the Criterion benches
//! (timing the underlying computations).
//!
//! The `throughput` binary is the engine's deterministic grid: it sweeps
//! the open-world session grid across durability modes, the sharded grid
//! across shard count × cross-shard ratio and the degraded-mode grid in
//! simulated time, plus one shard-job count, asserting the headline
//! claims in-process (full streams served, histories strict and
//! serializable, group commit retaining ≥ 50% of no-log throughput,
//! `S = 1` sharded cells equal to the open-world cells, grouped
//! submission collapsing shard jobs ≥ 10×) and writing
//! `BENCH_engine.json` (schema v12) next to this crate's manifest. No leaf reads a wall clock, so regenerating the file and
//! `git diff --exit-code`-ing it is the semantic regression guard; real
//! time is `benchmark/`'s job. The `trace_smoke` binary is the observability
//! gate: one traced, durable, mid-2PC-crash run per mechanism whose
//! JSONL sink and flight-recorder dumps it validates line by line.
//!
//! | id  | artifact | module |
//! |-----|----------|--------|
//! | F1  | Figure 1 + §4.3 (weak serializability gap)        | [`fig1`] |
//! | F2  | Figure 2 (2PL transformation)                     | [`fig2`] |
//! | F3  | Figure 3 (progress space, blocks, deadlock region)| [`fig3`] |
//! | F4  | Figure 4 (memorylessness, homotopy, common point) | [`fig4`] |
//! | F5  | Figure 5 (2PL′)                                   | [`fig5`] |
//! | T1  | class-hierarchy ladder (Thms 2–4)                 | [`t1_hierarchy`] |
//! | T2  | fixpoint ratios \|P\|/\|H\| (§6)                  | [`t2_fixpoints`] |
//! | T3  | simulated time decomposition (§6)                 | [`t3_simulation`] |
//! | T4  | structured locking (2PL vs 2PL′ vs tree)          | [`t4_structured`] |
//! | T5  | theorem adversaries (Thms 1–4)                    | [`t5_theorems`] |
//! | G1  | deadlock-region exposure (Fig. 3 corollary)       | [`g1_deadlock`] |

pub mod fig1;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod g1_deadlock;
pub mod t1_hierarchy;
pub mod t2_fixpoints;
pub mod t3_simulation;
pub mod t4_structured;
pub mod t5_theorems;

/// All experiment ids in presentation order.
pub const ALL_IDS: [&str; 11] = [
    "F1", "F2", "F3", "F4", "F5", "T1", "T2", "T3", "T4", "T5", "G1",
];

/// Run one experiment by id, returning its report.
pub fn run_experiment(id: &str) -> Option<String> {
    match id.to_ascii_uppercase().as_str() {
        "F1" => Some(fig1::report()),
        "F2" => Some(fig2::report()),
        "F3" => Some(fig3::report()),
        "F4" => Some(fig4::report()),
        "F5" => Some(fig5::report()),
        "T1" => Some(t1_hierarchy::report()),
        "T2" => Some(t2_fixpoints::report()),
        "T3" => Some(t3_simulation::report()),
        "T4" => Some(t4_structured::report()),
        "T5" => Some(t5_theorems::report()),
        "G1" => Some(g1_deadlock::report()),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_id_is_none() {
        assert!(run_experiment("nope").is_none());
    }

    #[test]
    fn ids_are_unique() {
        let set: std::collections::HashSet<_> = ALL_IDS.iter().collect();
        assert_eq!(set.len(), ALL_IDS.len());
    }
}
