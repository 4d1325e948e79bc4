//! Discrete-event simulation over the real database engine.
//!
//! Terminals submit steps of their transactions; each attempt costs
//! *scheduling time*, a granted step costs *execution time*, a blocked step
//! polls after a retry interval (accumulating *waiting time*), and an abort
//! pays a restart penalty before the transaction begins again. This is the
//! Section 6 time decomposition made operational.
//!
//! Batches are embarrassingly parallel: every batch derives its own RNG
//! stream from `(seed, batch index)` and runs a private `Database`, so the
//! parallel path produces **bit-identical** statistics to the sequential
//! one — results are reduced in batch order either way. Set
//! [`SimConfig::parallel`] to false (or `CCOPT_THREADS=1`) to force the
//! sequential path, e.g. when profiling.

use crate::event::{exp_sample, Event};
use crate::stats::Summary;
use ccopt_engine::cc::CcKind;
use ccopt_engine::db::{Database, StepOutcome};
use ccopt_model::ids::TxnId;
use ccopt_model::system::TransactionSystem;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Simulation parameters (times in abstract milliseconds).
#[derive(Clone, Copy, Debug)]
pub struct SimConfig {
    /// Cost of one scheduler decision (charged per attempt).
    pub scheduling_time: f64,
    /// Cost of executing one step.
    pub exec_time: f64,
    /// Mean think time between a terminal's steps (exponential).
    pub think_time: f64,
    /// Poll interval while a step is blocked.
    pub retry_interval: f64,
    /// Extra delay before a restarted transaction resubmits.
    pub restart_penalty: f64,
    /// Number of independent batches (system instances run to completion).
    pub batches: usize,
    /// RNG seed. Each batch uses an independent stream derived from
    /// `(seed, batch index)`, so results do not depend on whether batches
    /// run sequentially or in parallel.
    pub seed: u64,
    /// Safety valve: maximum events per batch.
    pub max_events: usize,
    /// Run batches on all cores (the default). The statistics are
    /// bit-identical either way; sequential is useful for profiling.
    pub parallel: bool,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            scheduling_time: 0.1,
            exec_time: 1.0,
            think_time: 2.0,
            retry_interval: 0.5,
            restart_penalty: 1.0,
            batches: 20,
            seed: 42,
            max_events: 200_000,
            parallel: true,
        }
    }
}

/// Aggregated simulation output.
#[derive(Clone, Debug)]
pub struct SimResult {
    /// Concurrency control name.
    pub cc_name: String,
    /// Committed transactions per unit time (across batches).
    pub throughput: f64,
    /// Per-transaction response times.
    pub response: Summary,
    /// Per-transaction waiting time (poll intervals summed).
    pub waiting: Summary,
    /// Per-transaction scheduling time (attempts × decision cost).
    pub scheduling: Summary,
    /// Total aborts across batches.
    pub aborts: usize,
    /// Aborts charged to multi-version write-write validation (subset of
    /// `aborts`; 0 for single-version mechanisms).
    pub mv_write_aborts: usize,
    /// Total wait outcomes across batches (steps that had to poll).
    pub waits: usize,
    /// Total commits across batches.
    pub commits: usize,
}

/// Raw per-batch output, reduced in batch order by [`simulate_engine`].
struct BatchOut {
    clock: f64,
    response: Vec<f64>,
    waiting: Vec<f64>,
    scheduling: Vec<f64>,
    aborts: usize,
    mv_write_aborts: usize,
    waits: usize,
    commits: usize,
}

/// The RNG stream of one batch: a pure function of `(seed, batch)`, so
/// batch results are independent of scheduling order.
fn batch_rng(seed: u64, batch: usize) -> SmallRng {
    // SplitMix-style mix keeps nearby (seed, batch) pairs decorrelated.
    let mixed = seed
        .wrapping_add((batch as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .rotate_left(17)
        ^ seed.rotate_right(23);
    SmallRng::seed_from_u64(mixed)
}

/// Run one batch to completion: instantiate the system, drive every
/// transaction to commit under a fresh CC instance, accumulate timing.
fn run_batch(sys: &TransactionSystem, kind: CcKind, cfg: &SimConfig, batch: usize) -> BatchOut {
    let mut rng = batch_rng(cfg.seed, batch);
    let n = sys.num_txns();
    let init = sys
        .space
        .initial_states
        .first()
        .cloned()
        .unwrap_or_else(|| {
            ccopt_model::state::GlobalState::from_ints(&vec![0; sys.syntax.num_vars()])
        });
    let mut db = Database::new(sys.clone(), kind.build(), init);

    let mut out = BatchOut {
        clock: 0.0,
        response: Vec::with_capacity(n),
        waiting: Vec::with_capacity(n),
        scheduling: Vec::with_capacity(n),
        aborts: 0,
        mv_write_aborts: 0,
        waits: 0,
        commits: 0,
    };
    let mut queue: BinaryHeap<Reverse<Event>> = BinaryHeap::new();
    let mut started = vec![0.0f64; n];
    let mut waited = vec![0.0f64; n];
    let mut sched = vec![0.0f64; n];
    for (terminal, start) in started.iter_mut().enumerate() {
        let at = exp_sample(&mut rng, cfg.think_time);
        *start = at;
        queue.push(Reverse(Event { time: at, terminal }));
    }

    let mut events = 0usize;
    while let Some(Reverse(ev)) = queue.pop() {
        events += 1;
        if events > cfg.max_events {
            break;
        }
        out.clock = ev.time;
        let t = TxnId(ev.terminal as u32);
        if db.committed(t) {
            continue;
        }
        sched[ev.terminal] += cfg.scheduling_time;
        match db.step(t) {
            StepOutcome::Executed { committed } => {
                if committed {
                    out.response
                        .push(out.clock + cfg.exec_time - started[ev.terminal]);
                    out.waiting.push(waited[ev.terminal]);
                    out.scheduling.push(sched[ev.terminal]);
                } else {
                    let think = exp_sample(&mut rng, cfg.think_time);
                    queue.push(Reverse(Event {
                        time: out.clock + cfg.exec_time + think,
                        terminal: ev.terminal,
                    }));
                }
            }
            StepOutcome::Waited => {
                waited[ev.terminal] += cfg.retry_interval;
                queue.push(Reverse(Event {
                    time: out.clock + cfg.retry_interval,
                    terminal: ev.terminal,
                }));
            }
            StepOutcome::Aborted => {
                queue.push(Reverse(Event {
                    time: out.clock + cfg.restart_penalty,
                    terminal: ev.terminal,
                }));
            }
            StepOutcome::AlreadyCommitted => {}
        }
    }
    out.aborts = db.metrics.aborts;
    out.mv_write_aborts = db.metrics.mv_write_aborts;
    out.waits = db.metrics.waits;
    out.commits = db.metrics.commits;
    out
}

/// Run the simulation: each batch instantiates the system once, runs every
/// transaction to commit under `kind`, and accumulates timing. Batches
/// run on all cores when `cfg.parallel` is set; the reduction is in batch
/// order, so the result is bit-identical to the sequential path.
pub fn simulate_engine(sys: &TransactionSystem, kind: CcKind, cfg: &SimConfig) -> SimResult {
    let cc_name = kind.name().to_string();
    let outs: Vec<BatchOut> = if cfg.parallel {
        ccopt_par::par_map_indexed(cfg.batches, |b| run_batch(sys, kind, cfg, b))
    } else {
        (0..cfg.batches)
            .map(|b| run_batch(sys, kind, cfg, b))
            .collect()
    };

    let mut response = Vec::new();
    let mut waiting = Vec::new();
    let mut scheduling = Vec::new();
    let mut total_time = 0.0f64;
    let mut aborts = 0usize;
    let mut mv_write_aborts = 0usize;
    let mut waits = 0usize;
    let mut commits = 0usize;
    for out in outs {
        response.extend(out.response);
        waiting.extend(out.waiting);
        scheduling.extend(out.scheduling);
        total_time += out.clock.max(1e-9);
        aborts += out.aborts;
        mv_write_aborts += out.mv_write_aborts;
        waits += out.waits;
        commits += out.commits;
    }

    SimResult {
        cc_name,
        throughput: commits as f64 / total_time,
        response: Summary::of(&response),
        waiting: Summary::of(&waiting),
        scheduling: Summary::of(&scheduling),
        aborts,
        mv_write_aborts,
        waits,
        commits,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccopt_model::systems;
    use rand::Rng;

    fn quick_cfg() -> SimConfig {
        SimConfig {
            batches: 5,
            seed: 7,
            ..SimConfig::default()
        }
    }

    #[test]
    fn all_transactions_commit() {
        let sys = systems::fig3_pair();
        let cfg = quick_cfg();
        let r = simulate_engine(&sys, CcKind::Strict2pl, &cfg);
        assert_eq!(r.commits, 2 * cfg.batches);
        assert_eq!(r.response.n, 2 * cfg.batches);
        assert!(r.throughput > 0.0);
        assert_eq!(r.cc_name, "strict-2PL");
    }

    #[test]
    fn serial_waits_more_than_sgt_on_disjoint_work() {
        // Two transactions touching disjoint variables: SGT never waits,
        // the serial strawman always serializes.
        use ccopt_model::expr::Expr;
        use ccopt_model::ic::TrueIc;
        use ccopt_model::interp::ExprInterpretation;
        use ccopt_model::syntax::SyntaxBuilder;
        use ccopt_model::system::{StateSpace, TransactionSystem};
        use std::sync::Arc;
        let syn = SyntaxBuilder::new()
            .txn("T1", |t| t.update("x").update("x").update("x"))
            .txn("T2", |t| t.update("y").update("y").update("y"))
            .build();
        let interp = ExprInterpretation::new(
            (0..2)
                .map(|_| {
                    (0..3)
                        .map(|j| Expr::add(Expr::Local(j), Expr::Const(1)))
                        .collect()
                })
                .collect(),
        );
        let sys = TransactionSystem::new(
            "disjoint",
            syn,
            Arc::new(interp),
            Arc::new(TrueIc),
            StateSpace::from_ints(&[&[0, 0]]),
        );
        let cfg = quick_cfg();
        let serial = simulate_engine(&sys, CcKind::Serial, &cfg);
        let sgt = simulate_engine(&sys, CcKind::Sgt, &cfg);
        assert!(sgt.waiting.mean <= serial.waiting.mean);
        assert_eq!(sgt.aborts, 0);
    }

    #[test]
    fn determinism_under_seed() {
        let sys = systems::fig3_pair();
        let cfg = quick_cfg();
        let a = simulate_engine(&sys, CcKind::Strict2pl, &cfg);
        let b = simulate_engine(&sys, CcKind::Strict2pl, &cfg);
        assert_eq!(a.response, b.response);
        assert_eq!(a.aborts, b.aborts);
    }

    #[test]
    fn parallel_is_bit_identical_to_sequential() {
        // The tentpole determinism claim: the parallel path must produce
        // exactly the sequential statistics, not merely statistically
        // similar ones, across workloads and mechanisms.
        for (label, sys) in [
            ("fig3", systems::fig3_pair()),
            ("banking", systems::banking()),
        ] {
            for seed in [7u64, 42, 99] {
                let par = SimConfig {
                    batches: 8,
                    seed,
                    parallel: true,
                    ..SimConfig::default()
                };
                let seq = SimConfig {
                    parallel: false,
                    ..par
                };
                let a = simulate_engine(&sys, CcKind::Sgt, &par);
                let b = simulate_engine(&sys, CcKind::Sgt, &seq);
                assert_eq!(a.response, b.response, "{label} seed {seed}");
                assert_eq!(a.waiting, b.waiting, "{label} seed {seed}");
                assert_eq!(a.scheduling, b.scheduling, "{label} seed {seed}");
                assert_eq!(a.aborts, b.aborts, "{label} seed {seed}");
                assert_eq!(a.commits, b.commits, "{label} seed {seed}");
                assert!(
                    (a.throughput - b.throughput).abs() == 0.0,
                    "{label} seed {seed}: throughput must match bit-for-bit"
                );
            }
        }
    }

    #[test]
    fn multiversion_mechanisms_run_through_the_simulator() {
        for (label, sys) in [
            ("fig3", systems::fig3_pair()),
            ("banking", systems::banking()),
        ] {
            let cfg = quick_cfg();
            let mvto = simulate_engine(&sys, CcKind::Mvto, &cfg);
            assert_eq!(mvto.commits, sys.num_txns() * cfg.batches, "{label}");
            assert_eq!(mvto.cc_name, "MVTO");
            let si = simulate_engine(&sys, CcKind::Si, &cfg);
            assert_eq!(si.commits, sys.num_txns() * cfg.batches, "{label}");
            assert_eq!(si.cc_name, "SI");
            // The parallel path stays bit-identical for the MV family too.
            let seq = SimConfig {
                parallel: false,
                ..cfg
            };
            let mvto_seq = simulate_engine(&sys, CcKind::Mvto, &seq);
            assert_eq!(mvto.response, mvto_seq.response, "{label}");
            assert_eq!(mvto.aborts, mvto_seq.aborts, "{label}");
        }
    }

    #[test]
    fn batch_streams_are_independent_of_order() {
        // Swapping which batch runs "first" cannot matter because streams
        // derive from the batch index, not from a shared generator.
        let a = batch_rng(5, 0).gen::<u64>();
        let b = batch_rng(5, 1).gen::<u64>();
        assert_ne!(a, b);
        assert_eq!(batch_rng(5, 1).gen::<u64>(), b);
    }

    #[test]
    fn banking_simulates_consistently() {
        let sys = systems::banking();
        let cfg = SimConfig {
            batches: 3,
            ..quick_cfg()
        };
        let r = simulate_engine(&sys, CcKind::Sgt, &cfg);
        assert_eq!(r.commits, 3 * 3);
    }
}
