//! Criterion benches: one group per paper experiment, timing the
//! computation that regenerates each figure/table (reduced sizes where the
//! full experiment would dominate `cargo bench` wall-clock).

use ccopt_bench::{fig1, fig2, fig3, fig4, fig5, g1_deadlock, t1_hierarchy, t2_fixpoints};
use ccopt_core::fixpoint::fixpoint_set;
use ccopt_core::theorems::{theorem2, theorem3};
use ccopt_engine::CcKind;
use ccopt_model::systems;
use ccopt_schedulers::suite::scheduler_suite;
use ccopt_sim::open_sim::{simulate_open, OpenSimConfig};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn bench_figures(c: &mut Criterion) {
    let mut g = c.benchmark_group("figures");
    g.bench_function("F1_weak_serializability", |b| {
        b.iter(|| black_box(fig1::compute().h_in_sr))
    });
    g.bench_function("F2_2pl_transform", |b| {
        b.iter(|| black_box(fig2::report().len()))
    });
    g.bench_function("F3_progress_space", |b| {
        b.iter(|| black_box(fig3::report().len()))
    });
    g.bench_function("F4_homotopy", |b| {
        b.iter(|| black_box(fig4::report().len()))
    });
    g.bench_function("F5_2pl_prime", |b| {
        b.iter(|| black_box(fig5::report().len()))
    });
    g.finish();
}

fn bench_hierarchy_table(c: &mut Criterion) {
    c.bench_function("T1_hierarchy_rows", |b| {
        b.iter(|| black_box(t1_hierarchy::rows().len()))
    });
}

fn bench_fixpoint_ratios(c: &mut Criterion) {
    let sys = systems::fig3_pair();
    let format = sys.format();
    let mut g = c.benchmark_group("T2_fixpoints");
    for mut s in scheduler_suite(&sys) {
        let name = s.name().to_string();
        g.bench_function(name, |b| {
            b.iter(|| black_box(fixpoint_set(s.as_mut(), &format).len()))
        });
    }
    g.finish();
    c.bench_function("T2_full_table", |b| {
        b.iter(|| black_box(t2_fixpoints::rows().len()))
    });
}

fn bench_simulation(c: &mut Criterion) {
    // T3's stream at four users.
    let cfg = OpenSimConfig {
        terminals: 4,
        total_txns: 160,
        vars: 8,
        steps: (3, 3),
        read_fraction: 0.0,
        hot_fraction: 0.0,
        seed: 1004,
        ..OpenSimConfig::default()
    };
    c.bench_function("T3_open_sim_2pl", |b| {
        b.iter(|| black_box(simulate_open(CcKind::Strict2pl, &cfg).committed))
    });
}

fn bench_structured_locking(c: &mut Criterion) {
    use ccopt_locking::analysis::output_set;
    use ccopt_locking::policy::LockingPolicy;
    use ccopt_locking::tree::TreePolicy;
    use ccopt_locking::two_phase::TwoPhasePolicy;
    let chain = ccopt_bench::t4_structured::chain_syntax();
    let mut g = c.benchmark_group("T4_output_sets");
    g.bench_function("2PL_chain", |b| {
        let lts = TwoPhasePolicy.transform(&chain);
        b.iter(|| black_box(output_set(&lts).schedules.len()))
    });
    g.bench_function("tree_chain", |b| {
        let lts = TreePolicy::chain(3).transform(&chain);
        b.iter(|| black_box(output_set(&lts).schedules.len()))
    });
    g.finish();
}

fn bench_theorems(c: &mut Criterion) {
    let mut g = c.benchmark_group("T5_theorems");
    g.bench_function("theorem2_format_2_2", |b| {
        b.iter(|| black_box(theorem2(&[2, 2]).holds()))
    });
    let fig1 = systems::fig1();
    g.bench_function("theorem3_fig1", |b| {
        b.iter(|| black_box(theorem3(&fig1, 10, 3).holds()))
    });
    g.finish();
}

fn bench_geometry(c: &mut Criterion) {
    c.bench_function("G1_deadlock_fractions", |b| {
        b.iter(|| black_box(g1_deadlock::two_pl_fractions(10).len()))
    });
}

criterion_group! {
    name = paper;
    // The experiment bodies are whole-table computations; a modest sample
    // count keeps `cargo bench` wall-clock reasonable without hurting the
    // comparisons we care about (relative costs across experiments).
    config = Criterion::default().sample_size(20);
    targets = bench_figures,
        bench_hierarchy_table,
        bench_fixpoint_ratios,
        bench_simulation,
        bench_structured_locking,
        bench_theorems,
        bench_geometry
}
criterion_main!(paper);
