//! Micro-benchmarks of the core building blocks.

use ccopt_engine::db::Database;
use ccopt_engine::{CcKind, ConcurrencyControl};
use ccopt_model::ids::TxnId;
use ccopt_model::state::GlobalState;
use ccopt_model::systems;
use ccopt_model::Executor;
use ccopt_schedule::enumerate::{all_schedules, count_schedules, sample_schedule};
use ccopt_schedule::graph::is_csr;
use ccopt_schedule::herbrand::HerbrandCtx;
use ccopt_schedule::schedule::Schedule;
use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

fn bench_model_execution(c: &mut Criterion) {
    let sys = systems::banking();
    let ex = Executor::new(&sys);
    let init = sys.space.initial_states[0].clone();
    let serial = Schedule::serial(&sys.format(), &[TxnId(0), TxnId(1), TxnId(2)]);
    c.bench_function("model_execute_banking_serial", |b| {
        b.iter(|| black_box(ex.run_sequence(init.clone(), serial.steps()).unwrap()))
    });
}

fn bench_herbrand(c: &mut Criterion) {
    let sys = systems::banking();
    let ctx = HerbrandCtx::for_system(&sys);
    let serial = Schedule::serial(&sys.format(), &[TxnId(2), TxnId(0), TxnId(1)]);
    c.bench_function("herbrand_symbolic_run_banking", |b| {
        b.iter(|| black_box(ctx.run_schedule(&serial).len()))
    });
}

fn bench_enumeration(c: &mut Criterion) {
    let mut g = c.benchmark_group("enumeration");
    g.bench_function("all_schedules_2_2_2", |b| {
        b.iter(|| black_box(all_schedules(&[2, 2, 2]).len()))
    });
    g.bench_function("count_schedules_banking", |b| {
        b.iter(|| black_box(count_schedules(&[3, 2, 4])))
    });
    g.bench_function("sample_schedule_banking", |b| {
        let mut rng = SmallRng::seed_from_u64(1);
        b.iter(|| black_box(sample_schedule(&[3, 2, 4], &mut rng).len()))
    });
    g.finish();
}

fn bench_csr_test(c: &mut Criterion) {
    let sys = systems::banking();
    let schedules: Vec<Schedule> = all_schedules(&sys.format()).into_iter().take(64).collect();
    c.bench_function("csr_test_banking_64", |b| {
        b.iter(|| {
            let mut n = 0;
            for h in &schedules {
                if is_csr(&sys.syntax, h) {
                    n += 1;
                }
            }
            black_box(n)
        })
    });
}

/// Per-mechanism hot-path cost: one full cycle of `begin` + `STEPS`
/// conflict-free `on_step`s per transaction + `on_commit`/`after_commit`,
/// at multiprogramming levels n ∈ {4, 64, 256}. Transactions touch private
/// variables so every decision is `Proceed` and the measured cost is pure
/// bookkeeping — exactly the tables the dense-index overhaul targets. The
/// `cc_wait_answer` group prices the other common answer, a repeated
/// `Wait`, under the three mechanisms that block on a step, and
/// `cc_release_with_waiters` a strict-2PL commit that frees waiters.
fn bench_cc_hot_path(c: &mut Criterion) {
    use ccopt_engine::{CcDecision, Op, SessionDb};
    use ccopt_model::ids::VarId;
    use ccopt_model::syntax::StepKind;
    use ccopt_model::value::Value;

    const STEPS: u32 = 4;
    for &n in &[4u32, 64, 256] {
        let mut g = c.benchmark_group(format!("cc_on_step_commit_n{n}"));
        for kind in CcKind::ALL {
            g.bench_function(kind.name(), |b| {
                b.iter(|| {
                    let mut cc = kind.build();
                    let mut tick = 0u64;
                    for t in 0..n {
                        cc.begin(TxnId(t), tick);
                        tick += 1;
                    }
                    // The serial strawman serializes everyone; interleaving
                    // would just measure Wait returns, so for it each txn
                    // runs back-to-back. The real mechanisms interleave.
                    if kind == CcKind::Serial {
                        for t in 0..n {
                            for j in 0..STEPS {
                                let _ =
                                    cc.on_step(TxnId(t), VarId(t * STEPS + j), StepKind::Update);
                                tick += 1;
                            }
                            let _ = cc.on_commit(TxnId(t), tick);
                            cc.after_commit(TxnId(t));
                        }
                    } else {
                        for j in 0..STEPS {
                            for t in 0..n {
                                let _ =
                                    cc.on_step(TxnId(t), VarId(t * STEPS + j), StepKind::Update);
                                tick += 1;
                            }
                        }
                        for t in 0..n {
                            let _ = cc.on_commit(TxnId(t), tick);
                            cc.after_commit(TxnId(t));
                            tick += 1;
                        }
                    }
                    black_box(tick)
                })
            });
        }
        g.finish();
    }

    // A wait answer: the waiter's re-request of a lock (2PL) or of a
    // dirty variable (SGT, T/O) whose holder has not finished, through the
    // session layer, as a served or in-process driver re-asks it. The edge
    // stands after the first answer, so this is the repeated-wait path.
    let mut g = c.benchmark_group("cc_wait_answer");
    for kind in [CcKind::Strict2pl, CcKind::Sgt, CcKind::Timestamp] {
        g.bench_function(kind.name(), |b| {
            let mut db = SessionDb::new(kind.build(), GlobalState::from_ints(&[0]));
            let holder = db.begin();
            let waiter = db.begin();
            let keep = |v: Value| v;
            assert!(matches!(db.update(holder, VarId(0), keep), Ok(Op::Done(_))));
            b.iter(|| {
                let answer = db.update(waiter, VarId(0), keep);
                debug_assert_eq!(answer, Ok(Op::Wait));
                black_box(answer)
            })
        });
    }
    g.finish();

    // A lock holder's release with waiters: strict 2PL's `after_commit`
    // frees the holder's lock and every waits-for edge that points at it.
    // One iteration commits the holder, re-takes its lock and has the next
    // round's waiters ask for it again (each a one-hop `Wait`), so the
    // waits are part of the price. Rounds cycle through 64 seeded waiter
    // subsets, so the slots waiting on the holder differ from one release
    // to the next, as they do when sessions wait on random holders.
    let mut g = c.benchmark_group("cc_release_with_waiters");
    for (slots, waiters) in [(32u32, 0usize), (32, 8), (32, 24), (256, 64)] {
        let mut rng = SmallRng::seed_from_u64(u64::from(slots) << 8 | waiters as u64);
        let rounds: Vec<Vec<TxnId>> = (0..64)
            .map(|_| {
                // A partial Fisher-Yates draw of `waiters` slots besides
                // the holder's slot 0.
                let mut pool: Vec<u32> = (1..slots).collect();
                for i in 0..waiters {
                    let j = rng.gen_range(i..pool.len());
                    pool.swap(i, j);
                }
                pool[..waiters].iter().map(|&w| TxnId(w)).collect()
            })
            .collect();
        g.bench_function(format!("slots{slots}_waiters{waiters}"), |b| {
            let mut cc = CcKind::Strict2pl.build();
            cc.prepare(slots as usize, 1);
            let holder = TxnId(0);
            let mut round = 0;
            b.iter(|| {
                cc.after_commit(holder);
                round = (round + 1) % rounds.len();
                cc.begin(holder, 0);
                let _ = cc.on_step(holder, VarId(0), StepKind::Update);
                for &w in &rounds[round] {
                    let answer = cc.on_step(w, VarId(0), StepKind::Update);
                    debug_assert_eq!(answer, CcDecision::Wait);
                }
                round
            })
        });
    }
    g.finish();
}

/// The durable commit path's encoding cost, isolated: one write-set +
/// commit record per iteration. `scratch_reuse` is what the engine ships
/// (one [`RecordEncoder`] per log, its scratch buffer reused across
/// commits — zero steady-state allocations); `alloc_per_commit` is the
/// naive alternative that builds a fresh encoder (and therefore a fresh
/// buffer) for every commit. The delta is the hot-path allocation fix.
fn bench_wal_encoding(c: &mut Criterion) {
    use ccopt_engine::durability::encoding::RecordEncoder;
    use ccopt_model::ids::VarId;
    use ccopt_model::value::Value;

    let writes: Vec<(VarId, Value)> = (0..16)
        .map(|i| (VarId(i), Value::Int(i as i64 * 7 - 3)))
        .collect();
    let mut g = c.benchmark_group("wal_commit_encode");
    g.bench_function("alloc_per_commit", |b| {
        let mut out = Vec::new();
        b.iter(|| {
            out.clear();
            let mut enc = RecordEncoder::new();
            enc.start_writeset(1, 2);
            for &(v, val) in &writes {
                enc.push_write(v, val);
            }
            enc.frame_into(&mut out);
            enc.commit(1);
            enc.frame_into(&mut out);
            black_box(out.len())
        })
    });
    g.bench_function("scratch_reuse", |b| {
        let mut out = Vec::new();
        let mut enc = RecordEncoder::new();
        b.iter(|| {
            out.clear();
            enc.start_writeset(1, 2);
            for &(v, val) in &writes {
                enc.push_write(v, val);
            }
            enc.frame_into(&mut out);
            enc.commit(1);
            enc.frame_into(&mut out);
            black_box(out.len())
        })
    });
    g.finish();
}

fn bench_engine(c: &mut Criterion) {
    let sys = systems::hotspot(4, 3);
    let ids: Vec<TxnId> = (0..4u32).map(TxnId).collect();
    c.bench_function("engine_hotspot_sgt_run", |b| {
        b.iter(|| {
            let mut db = Database::new(
                sys.clone(),
                CcKind::Sgt.build(),
                GlobalState::from_ints(&[0]),
            );
            black_box(db.run_round_robin(&ids, 10_000).unwrap().commits)
        })
    });
    // The multi-version end-to-end path: version installs plus watermark GC.
    c.bench_function("engine_hotspot_mvto_run", |b| {
        b.iter(|| {
            let mut db = Database::new(
                sys.clone(),
                CcKind::Mvto.build(),
                GlobalState::from_ints(&[0]),
            );
            black_box(db.run_round_robin(&ids, 10_000).unwrap().commits)
        })
    });
}

criterion_group! {
    name = micro;
    config = Criterion::default().sample_size(40);
    targets = bench_model_execution,
        bench_herbrand,
        bench_enumeration,
        bench_csr_test,
        bench_cc_hot_path,
        bench_wal_encoding,
        bench_engine
}
criterion_main!(micro);
