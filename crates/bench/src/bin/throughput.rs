//! End-to-end throughput harness: `cargo run --release -p ccopt-bench --bin
//! throughput`.
//!
//! Runs every concurrency-control mechanism (all seven: the five
//! single-version ones plus MVTO and SI) against two grids and emits both
//! aligned tables on stdout and `BENCH_engine.json` next to the bench
//! crate's manifest — a machine-readable perf trajectory for future PRs to
//! beat:
//!
//! * the **closed-world** grid (schema `results`): the paper's fixed
//!   transaction systems, swept over several workload seeds per cell;
//! * the **open-world** grid (schema `open_world`): arrival-driven session
//!   streams over recycled slots — throughput, the latency distribution
//!   (mean/p50/p95), abort rate, the boundedness gauges (peak slots,
//!   peak live versions), swept over the durability modes
//!   (`none` / `group(8)` / `strict`): durable cells run against a real
//!   write-ahead log, fsyncs charge simulated time to the committing
//!   terminal, and group commit's amortized fsync is the measured claim —
//!   the harness asserts `group` retains at least half of `none`-mode
//!   throughput, and that every sampled committed history is strict (the
//!   property redo-only logging rests on).
//!
//! * the **sharded** grid (schema `sharded`): the same open-world streams
//!   over a [`ccopt_engine::ShardedDb`], swept over shard count ×
//!   cross-shard ratio — single-shard fast-path commits vs. two-phase
//!   cross-shard commits on real per-shard worker threads. Every sampled
//!   history passes the serializability oracle (SI exempt), and the
//!   `S = 1` cells are asserted **equal** to the open-world `none` cells:
//!   the sharding layer adds no simulated-time distortion.
//!
//! * the **degraded-mode** grid (schema `degraded`): the same durable
//!   two-shard streams run twice per mechanism — a fault-free baseline
//!   and a run with one scripted shard panic at the stream midpoint,
//!   supervised and restarted in place from its write-ahead log. The
//!   harness asserts full service and serializability *through* the
//!   restart, and reports throughput retention (degraded over baseline)
//!   plus the wall-clock time-to-recover.
//!
//! Abort and wait counts ride alongside throughput so mechanism trade-offs
//! (blocking vs. restarting vs. versioning) stay visible. All simulated
//! statistics are deterministic in the config; only the wall-clock fields
//! vary run to run.
//!
//! Schema v7 adds the trace-plane observability columns to every
//! open-world and sharded cell: deterministic commit-latency percentiles
//! in engine ticks (`commit_lat_ticks_p50`/`p99`, from the always-on
//! fixed-bucket histogram), the per-cell contention table
//! (`top_contended`: the most wait/abort-attributed variables) and the
//! abort attribution (`aborts_by_rule`: conflict-rule name to count).
//! Degraded cells additionally report `recovery_replayed`, the
//! deterministic size of the supervised recovery in replayed commits.
//!
//! * the **served** grid (schema `served`): the real thing — a
//!   [`ccopt_net::Server`] on a loopback TCP socket under an open-loop
//!   fleet of wire clients ([`ccopt_client::Client`]), one OS thread per
//!   connection, arrivals on a fixed schedule that does *not* slow down
//!   when the server does. Per mechanism the harness first calibrates the
//!   closed-loop saturation throughput of the fleet, then offers
//!   0.5× / 1× / 2× that rate and reports delivered throughput, the
//!   arrival-to-ack latency distribution (p50/p99, including the
//!   open-loop queueing delay — this is where the overload hockey stick
//!   lives) and the admission-control shed rate. Unlike every other
//!   grid, these numbers are wall-clock measurements of real sockets and
//!   threads, so they vary run to run; the shape (saturation plateau,
//!   p99 blow-up and shed onset past 1×) is the reproducible claim.
//!
//! Schema v8 adds the `served` grid. `--quick` shrinks batches, stream
//! lengths and the sharded grid to one mixed cell per mechanism plus its
//! `S = 1` baseline, and shrinks the served fleet (CI); the JSON schema
//! is unchanged by `--quick`.
//!
//! Schema v9 turns the ops plane **on** for the served grid — every cell
//! now runs with the metrics sampler live and one `Subscribe` client
//! draining the trace stream for the server's whole lifetime (recorded
//! in `served_ops`) — and adds the `ops_overhead` guard: the same fixed
//! closed-loop workload run alternately against an ops-off and an
//! ops-on server (best-of-N wall clock each), reporting the observed
//! throughput ratio beside the "observation never perturbs" budget
//! (`floor`). The ratio, both absolute rates, and the subscriber's
//! delivered/dropped event counts land in the `ops_overhead` object.
//! A ratio under the floor prints a warning and does not stop the run:
//! on a two-vCPU guest the ratio of two wall clocks reads 0.44-1.59 on
//! unchanged code, so a hard gate there is decided by scheduler noise.
//!
//! Schema v10 adds the `batched` arm — the messaging-tax A/B this
//! repo's batched-submission work is measured by:
//!
//! * `batched.tax` (engine level, the acceptance gate): one
//!   deterministic conflict-free stream run three ways — direct
//!   `SessionDb` calls, per-op `ShardedDb` calls at `S = 1` (every
//!   op, the commit and the retire one mailbox round-trip each, the
//!   lazy begin riding the first op's: `ops + 2` messages per
//!   transaction — the historic ~60× overhead), and
//!   [`ccopt_engine::ShardedDb::submit_group`] with whole transactions
//!   grouped per message. Both are jobs on the engine's one shard-job
//!   executor, so the A/B isolates the packaging. Taxes are wall-clock
//!   ratios against the unsharded run, reported beside their budget
//!   (`grouped_tax_budget`, 6×; over it is a printed warning, for the
//!   same reason as above); the gate is the engine's own `shard_msgs`
//!   counters, which report the round-trip collapse exactly and are
//!   **asserted** (grouped ≤ a tenth of per-op).
//! * `batched.wire` (served level): the same closed-loop fleet — via
//!   the one shared [`closed_loop`] anchor that also calibrates the
//!   `served` grid and drives `ops_overhead` — running per-op
//!   transactions vs the wire batch opcode (`Batch`: one frame, many
//!   ops, commit included), so the RTT amortization is a measured
//!   speedup, not a claim.

use ccopt_engine::durability::scratch_path;
use ccopt_engine::{CcKind, DurabilityMode};
use ccopt_sim::engine_sim::{simulate_engine, SimConfig, SimResult};
use ccopt_sim::open_sim::{
    check_serializable, check_strict, simulate_open, simulate_open_durable, DurableConfig,
    OpenSimConfig, OpenSimResult,
};
use ccopt_sim::report::{f3, Table};
use ccopt_sim::shard_sim::{
    simulate_sharded, simulate_sharded_faulty, FaultPlan, ShardDurableConfig, ShardSimConfig,
};
use ccopt_sim::workload::Workload;
use std::time::{Duration, Instant};

/// Workload seeds swept per cell (aggregated into one row).
const SEEDS: [u64; 3] = [1, 2, 3];

struct Cell {
    workload: String,
    cc: String,
    commits: usize,
    aborts: usize,
    waits: usize,
    mv_write_aborts: usize,
    sim_throughput: f64,
    response_mean: f64,
    waiting_mean: f64,
    wall_ms: f64,
    commits_per_sec: f64,
}

fn workloads() -> Vec<Workload> {
    vec![
        Workload::Uniform {
            n: 8,
            steps: 6,
            vars: 32,
        },
        Workload::Hotspot {
            n: 8,
            steps: 6,
            vars: 32,
            hot: 0.4,
        },
        Workload::ReadMostly {
            n: 8,
            steps: 6,
            vars: 32,
            reads: 0.7,
        },
        Workload::LongReaders {
            readers: 2,
            read_steps: 10,
            writers: 6,
            write_steps: 4,
            vars: 8,
        },
        Workload::Banking,
    ]
}

/// One open-world grid cell.
struct OpenCell {
    workload: String,
    cc: String,
    durability: String,
    committed: usize,
    aborts: usize,
    waits: usize,
    mv_write_aborts: usize,
    throughput: f64,
    latency_mean: f64,
    latency_p50: f64,
    latency_p95: f64,
    abort_rate: f64,
    peak_slots: usize,
    peak_live_versions: usize,
    versions_reclaimed: usize,
    wal_syncs: usize,
    commit_lat_ticks_p50: u64,
    commit_lat_ticks_p99: u64,
    top_contended: Vec<(u32, usize, usize)>,
    aborts_by_rule: Vec<(&'static str, usize)>,
    wall_ms: f64,
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
/// terminal count, so every cell exercises slot recycling and version GC.
fn open_workloads(quick: bool) -> Vec<(String, OpenSimConfig)> {
    let total = if quick { 160 } else { 640 };
    let base = OpenSimConfig {
        terminals: 8,
        total_txns: total,
        seed: 0xC0FFEE,
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

/// One sharded grid cell.
struct ShardCell {
    workload: String,
    cc: String,
    shards: usize,
    cross_ratio: f64,
    committed: usize,
    aborts: usize,
    waits: usize,
    cross_commits_observed: usize,
    throughput: f64,
    latency_mean: f64,
    latency_p50: f64,
    latency_p95: f64,
    abort_rate: f64,
    peak_slots: usize,
    peak_live_versions: usize,
    commit_lat_ticks_p50: u64,
    commit_lat_ticks_p99: u64,
    top_contended: Vec<(u32, usize, usize)>,
    aborts_by_rule: Vec<(&'static str, usize)>,
    wall_ms: f64,
}

/// One degraded-mode grid cell: the same durable sharded stream run
/// twice — fault-free baseline vs. a mid-stream shard panic supervised
/// in place — so the cost of serving *through* a shard restart is a
/// measured ratio, not a claim.
struct DegradedCell {
    workload: String,
    cc: String,
    shards: usize,
    committed: usize,
    aborts: usize,
    shard_restarts: usize,
    throughput: f64,
    baseline_throughput: f64,
    /// Degraded over baseline simulated throughput (1.0 = free restart).
    degraded_ratio: f64,
    /// Wall-clock milliseconds of the supervised recovery (log replay
    /// and in-doubt settlement included) — the time-to-recover.
    recovery_ms: f64,
    /// Committed sub-transactions replayed by the supervised recovery —
    /// the deterministic recovery size.
    recovery_replayed: u64,
    wall_ms: f64,
}

/// The degraded-mode grid: durable two-shard streams with one scripted
/// shard panic at the midpoint, per mechanism. Asserts full service and
/// serializability through the restart; reports throughput retention
/// and time-to-recover.
fn degraded_grid(quick: bool) -> Vec<DegradedCell> {
    let (label, base) = open_workloads(quick).into_iter().next().expect("uniform");
    let base = OpenSimConfig {
        check: true,
        ..base
    };
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
        let wall = Instant::now();
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
            cc: name.to_string(),
            shards,
            committed: r.committed,
            aborts: r.aborts,
            shard_restarts: r.shard_restarts,
            throughput: r.throughput,
            baseline_throughput: b.throughput,
            degraded_ratio: r.throughput / b.throughput.max(1e-12),
            recovery_ms: r.recovery_secs * 1e3,
            recovery_replayed: r.recovery_replayed,
            wall_ms: wall.elapsed().as_secs_f64() * 1e3,
        });
    }
    let _ = std::panic::take_hook();
    cells
}

/// The (shards, cross_ratio) combinations swept. `S = 1` runs only at
/// ratio 0 (there is nothing to cross) and doubles as the no-distortion
/// baseline asserted against the open-world grid.
fn shard_combos(quick: bool) -> Vec<(usize, f64)> {
    if quick {
        vec![(1, 0.0), (4, 0.2)]
    } else {
        let mut combos = vec![(1, 0.0)];
        for s in [2usize, 4, 8] {
            for r in [0.0, 0.2, 0.5] {
                combos.push((s, r));
            }
        }
        combos
    }
}

/// The sharded grid over the open_uniform workload: shard count ×
/// cross-shard ratio, serializability-checked, with the `S = 1` cells
/// asserted identical to the open-world `none` cells.
fn sharded_grid(quick: bool, open_cells: &[OpenCell]) -> Vec<ShardCell> {
    let (label, base) = open_workloads(quick).into_iter().next().expect("uniform");
    let base = OpenSimConfig {
        check: true,
        ..base
    };
    let mut cells = Vec::new();
    for (shards, cross_ratio) in shard_combos(quick) {
        for kind in CcKind::ALL {
            let name = kind.name();
            let wall = Instant::now();
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
                    .find(|c| c.workload == label && c.cc == name && c.durability == "none")
                    .expect("the open grid covers the uniform workload");
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
                cc: name.to_string(),
                shards,
                cross_ratio,
                committed: r.committed,
                aborts: r.aborts,
                waits: r.waits,
                cross_commits_observed: cross_observed,
                throughput: r.throughput,
                latency_mean: r.latency.mean,
                latency_p50: r.latency.p50,
                latency_p95: r.latency.p95,
                abort_rate: r.abort_rate,
                peak_slots: r.peak_slots,
                peak_live_versions: r.peak_live_versions,
                commit_lat_ticks_p50: r.commit_lat_ticks_p50,
                commit_lat_ticks_p99: r.commit_lat_ticks_p99,
                top_contended: r.top_contended.clone(),
                aborts_by_rule: r.aborts_by_rule.clone(),
                wall_ms: wall.elapsed().as_secs_f64() * 1e3,
            });
        }
    }
    cells
}

fn open_grid(quick: bool) -> Vec<OpenCell> {
    let mut cells = Vec::new();
    for (label, ocfg) in open_workloads(quick) {
        // Sampled committed histories feed the strictness checker.
        let ocfg = OpenSimConfig {
            check: true,
            ..ocfg
        };
        for mode in durability_modes() {
            for kind in CcKind::ALL {
                let name = kind.name();
                let wall = Instant::now();
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
                    cc: name.to_string(),
                    durability: mode.to_string(),
                    committed: r.committed,
                    aborts: r.aborts,
                    waits: r.waits,
                    mv_write_aborts: r.mv_write_aborts,
                    throughput: r.throughput,
                    latency_mean: r.latency.mean,
                    latency_p50: r.latency.p50,
                    latency_p95: r.latency.p95,
                    abort_rate: r.abort_rate,
                    peak_slots: r.peak_slots,
                    peak_live_versions: r.peak_live_versions,
                    versions_reclaimed: r.versions_reclaimed,
                    wal_syncs: r.wal_syncs,
                    commit_lat_ticks_p50: r.commit_lat_ticks_p50,
                    commit_lat_ticks_p99: r.commit_lat_ticks_p99,
                    top_contended: r.top_contended.clone(),
                    aborts_by_rule: r.aborts_by_rule.clone(),
                    wall_ms: wall.elapsed().as_secs_f64() * 1e3,
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
                .find(|b| b.durability == "none" && b.workload == c.workload && b.cc == c.cc)
                .expect("every durable cell has a no-durability baseline");
            assert!(
                c.throughput >= 0.5 * baseline.throughput,
                "{} on {}: group-commit throughput {:.4} fell below 50% of none-mode {:.4}",
                c.cc,
                c.workload,
                c.throughput,
                baseline.throughput
            );
        }
    }
    cells
}

// ---------------------------------------------------------- served grid

/// One served grid cell: the real TCP server under an open-loop fleet at
/// a fixed offered rate. All fields are wall-clock measurements.
struct ServedCell {
    cc: &'static str,
    conns: usize,
    /// Offered rate as a multiple of the calibrated saturation rate.
    multiplier: f64,
    /// Offered arrival rate, txns/s across the whole fleet.
    offered: f64,
    arrivals: usize,
    committed: usize,
    shed: usize,
    aborted: usize,
    /// Delivered commits/s over the cell's wall time.
    throughput: f64,
    shed_rate: f64,
    lat_p50_us: u64,
    lat_p99_us: u64,
    lat_max_us: u64,
    wall_ms: f64,
}

/// What one open-loop arrival came to.
enum ServedOutcome {
    Committed,
    Shed,
    Aborted,
}

/// Run one transaction (two affine updates on random vars + commit),
/// replaying on `Restarted`. A `Shed` at begin is a dropped arrival —
/// open-loop clients do not retry, that is the admission story. `Wait`
/// answers are retried on a small backoff: a hot resend loop across a
/// 100+-connection fleet would drown the engine in retry traffic and
/// measure the spam, not the system.
fn served_txn(
    c: &mut ccopt_client::Client,
    rng: &mut rand::rngs::SmallRng,
    vars: u32,
) -> ServedOutcome {
    use ccopt_client::ClientError;
    use ccopt_engine::Op;
    use rand::Rng;

    let backoff = Duration::from_micros(200);
    let h = match c.begin() {
        Ok(h) => h,
        Err(ClientError::Shed) => return ServedOutcome::Shed,
        Err(e) => panic!("served begin: {e}"),
    };
    let (a, b) = (rng.gen_range(0..vars), rng.gen_range(0..vars));
    'attempt: for attempt in 0.. {
        if attempt >= 64 {
            c.abort(h).expect("served abort");
            return ServedOutcome::Aborted;
        }
        if attempt > 0 {
            // Jittered replay backoff: a restart storm resolves faster
            // when the contenders spread out.
            std::thread::sleep(Duration::from_micros(rng.gen_range(0..400)));
        }
        for var in [a, b] {
            loop {
                match c.update(h, var, 1, 1).expect("served update") {
                    Op::Done(_) => break,
                    Op::Wait => std::thread::sleep(backoff),
                    Op::Restarted => continue 'attempt,
                }
            }
        }
        loop {
            match c.commit(h).expect("served commit") {
                Op::Done(()) => return ServedOutcome::Committed,
                Op::Wait => std::thread::sleep(backoff),
                Op::Restarted => continue 'attempt,
            }
        }
    }
    unreachable!()
}

/// One open-loop connection: `arrivals` transactions on a fixed schedule
/// of `interval` apart, phase-shifted by `phase` so the fleet's
/// aggregate arrival process is uniform rather than `conns`-wide
/// synchronized waves (which would race the admission budget in
/// lockstep and shed alternating arrivals). Falling behind does not
/// slow the schedule down — the backlog shows up as arrival-to-ack
/// latency.
#[allow(clippy::too_many_arguments)]
fn served_conn(
    addr: std::net::SocketAddr,
    seed: u64,
    vars: u32,
    arrivals: usize,
    interval: Duration,
    phase: Duration,
) -> (usize, usize, usize, ccopt_trace::Histogram) {
    use rand::SeedableRng;
    let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
    let mut client = ccopt_client::Client::connect(addr).expect("served connect");
    let mut lat = ccopt_trace::Histogram::new();
    let (mut committed, mut shed, mut aborted) = (0, 0, 0);
    let start = Instant::now();
    for k in 0..arrivals {
        let due = interval * k as u32 + phase;
        let elapsed = start.elapsed();
        if elapsed < due {
            std::thread::sleep(due - elapsed);
        }
        match served_txn(&mut client, &mut rng, vars) {
            ServedOutcome::Committed => {
                committed += 1;
                lat.record((start.elapsed() - due).as_micros() as u64);
            }
            ServedOutcome::Shed => shed += 1,
            ServedOutcome::Aborted => aborted += 1,
        }
    }
    (committed, shed, aborted, lat)
}

/// How long a closed-loop seat is held.
enum RunFor {
    /// Run back to back until the wall clock says stop.
    Elapsed(Duration),
    /// Run until this many transactions committed on this connection.
    Commits(usize),
}

/// The shared closed-loop anchor: `conns` scoped threads each run
/// `txn` back to back — sleeping out admission sheds, not counting
/// aborts — until the goal is met. Returns (total commits, wall
/// seconds). Every wall-clock arm that needs a closed-loop rate
/// (`served` calibration, `ops_overhead`, the `batched` wire A/B)
/// anchors here, so "closed loop" means exactly one thing in this
/// harness.
fn closed_loop<F>(
    addr: std::net::SocketAddr,
    conns: usize,
    seed_base: u64,
    goal: RunFor,
    txn: F,
) -> (usize, f64)
where
    F: Fn(&mut ccopt_client::Client, &mut rand::rngs::SmallRng) -> ServedOutcome + Sync,
{
    use rand::SeedableRng;
    let (txn, goal) = (&txn, &goal);
    let wall = Instant::now();
    let total: usize = std::thread::scope(|s| {
        let handles: Vec<_> = (0..conns)
            .map(|i| {
                s.spawn(move || {
                    let mut rng = rand::rngs::SmallRng::seed_from_u64(seed_base + i as u64);
                    let mut client =
                        ccopt_client::Client::connect(addr).expect("closed-loop connect");
                    let start = Instant::now();
                    let mut n = 0usize;
                    loop {
                        match *goal {
                            RunFor::Elapsed(dur) if start.elapsed() >= dur => break,
                            RunFor::Commits(k) if n >= k => break,
                            _ => {}
                        }
                        match txn(&mut client, &mut rng) {
                            ServedOutcome::Committed => n += 1,
                            // Closed-loop shed: yield the seat race
                            // instead of hammering begin.
                            ServedOutcome::Shed => std::thread::sleep(Duration::from_micros(500)),
                            ServedOutcome::Aborted => {}
                        }
                    }
                    n
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("closed-loop conn"))
            .sum()
    });
    (total, wall.elapsed().as_secs_f64())
}

/// Closed-loop calibration: the fleet runs back to back for `dur`; its
/// aggregate commit rate is the saturation estimate the open-loop sweep
/// is anchored to.
fn served_saturation(addr: std::net::SocketAddr, conns: usize, vars: u32, dur: Duration) -> f64 {
    let (total, secs) = closed_loop(addr, conns, 0x5EED, RunFor::Elapsed(dur), |c, rng| {
        served_txn(c, rng, vars)
    });
    total as f64 / secs
}

/// What the live ops plane did while the served grid ran: the sampler
/// cadence and the lifetime totals of the one `Subscribe` client that
/// drained the trace stream alongside every cell.
struct ServedOps {
    sampler_ms: u64,
    sub_events: usize,
    sub_dropped: u64,
}

/// A live `Subscribe` client draining the server's trace stream on its
/// own thread until told to stop. `finish` returns the delivered-event
/// count and the final in-stream cumulative dropped count — the ops
/// plane's "drop, never back-pressure" contract made measurable.
struct Subscriber {
    stop: std::sync::Arc<std::sync::atomic::AtomicBool>,
    handle: std::thread::JoinHandle<(usize, u64)>,
}

fn spawn_subscriber(addr: std::net::SocketAddr) -> Subscriber {
    use std::sync::atomic::{AtomicBool, Ordering};
    let stop = std::sync::Arc::new(AtomicBool::new(false));
    let flag = std::sync::Arc::clone(&stop);
    let handle = std::thread::spawn(move || {
        let mut sub = ccopt_client::Client::connect(addr).expect("subscriber connect");
        sub.set_timeout(Some(Duration::from_millis(20)))
            .expect("subscriber timeout");
        sub.subscribe().expect("subscribe");
        let (mut events, mut dropped) = (0usize, 0u64);
        while !flag.load(Ordering::Relaxed) {
            // `Err` here is the read timeout elapsing on an idle stream;
            // loop back to check the stop flag.
            if let Ok((d, _line)) = sub.recv_event() {
                events += 1;
                dropped = d;
            }
        }
        (events, dropped)
    });
    Subscriber { stop, handle }
}

impl Subscriber {
    fn finish(self) -> (usize, u64) {
        self.stop.store(true, std::sync::atomic::Ordering::Relaxed);
        self.handle.join().expect("subscriber thread")
    }
}

/// The served grid: per mechanism, calibrate saturation then offer
/// 0.5× / 1× / 2× of it. `max_txns` is held at half the fleet size so
/// overload has an admission-control response to measure, not just a
/// queue. Since schema v9 every cell runs with the ops plane live —
/// sampler on, one subscriber draining — because those are the numbers
/// an operated production server would show.
fn served_grid(quick: bool) -> (Vec<ServedCell>, ServedOps) {
    use ccopt_net::{Server, ServerConfig};

    let conns = if quick { 16 } else { 120 };
    let vars = 256u32;
    let ccs: &[&'static str] = if quick {
        &["strict-2PL"]
    } else {
        &["strict-2PL", "SI"]
    };
    let multipliers: &[f64] = if quick { &[0.5, 2.0] } else { &[0.5, 1.0, 2.0] };
    let calib_dur = Duration::from_millis(if quick { 200 } else { 600 });
    let measure_dur = Duration::from_millis(if quick { 300 } else { 1500 });

    let sampler = Duration::from_millis(250);
    let mut ops = ServedOps {
        sampler_ms: sampler.as_millis() as u64,
        sub_events: 0,
        sub_dropped: 0,
    };
    let mut cells = Vec::new();
    for &cc in ccs {
        let server = Server::start(ServerConfig {
            cc: cc.to_string(),
            num_vars: vars as usize,
            shards: 4,
            max_txns: (conns / 2).max(8),
            sample_interval: sampler,
            ..ServerConfig::default()
        })
        .expect("served grid server");
        let addr = server.local_addr();
        // The ops plane is live for the whole cell: the sampler ticks
        // and one subscriber drains the trace stream while the fleet
        // runs — the measured throughput is an *observed* server's.
        let subscriber = spawn_subscriber(addr);

        let saturation = served_saturation(addr, conns, vars, calib_dur).max(1.0);
        for &m in multipliers {
            let offered = saturation * m;
            let per_conn = offered / conns as f64;
            let interval = Duration::from_secs_f64(1.0 / per_conn.max(1e-6));
            let arrivals_per_conn = ((measure_dur.as_secs_f64() * per_conn).ceil() as usize).max(1);

            let wall = Instant::now();
            let results: Vec<_> = std::thread::scope(|s| {
                let handles: Vec<_> = (0..conns)
                    .map(|i| {
                        let phase = interval.mul_f64(i as f64 / conns as f64);
                        s.spawn(move || {
                            served_conn(
                                addr,
                                0xFACE + i as u64,
                                vars,
                                arrivals_per_conn,
                                interval,
                                phase,
                            )
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("conn"))
                    .collect()
            });
            let wall_ms = wall.elapsed().as_secs_f64() * 1e3;

            let mut lat = ccopt_trace::Histogram::new();
            let (mut committed, mut shed, mut aborted) = (0usize, 0usize, 0usize);
            for (c, sh, ab, h) in &results {
                committed += c;
                shed += sh;
                aborted += ab;
                lat.merge(h);
            }
            let arrivals = arrivals_per_conn * conns;
            cells.push(ServedCell {
                cc,
                conns,
                multiplier: m,
                offered,
                arrivals,
                committed,
                shed,
                aborted,
                throughput: committed as f64 / (wall_ms / 1e3).max(1e-9),
                shed_rate: shed as f64 / arrivals.max(1) as f64,
                lat_p50_us: lat.quantile(0.5),
                lat_p99_us: lat.quantile(0.99),
                lat_max_us: lat.max(),
                wall_ms,
            });
        }
        let (ev, dr) = subscriber.finish();
        ops.sub_events += ev;
        ops.sub_dropped += dr;
        let stats = server.shutdown().expect("served grid drain");
        let acked: usize = cells
            .iter()
            .filter(|c| c.cc == cc)
            .map(|c| c.committed)
            .sum();
        // The server additionally counts calibration commits, hence >=.
        assert!(
            stats.commits as usize >= acked,
            "served: {acked} ack'd commits exceed the server's count of {}",
            stats.commits,
        );
    }
    assert!(ops.sub_events > 0, "the live subscriber saw traffic");
    (cells, ops)
}

/// The "observation never perturbs" budget, measured: one fixed
/// closed-loop workload (every connection commits exactly
/// `txns_per_conn` transactions, retrying sheds and aborts) run
/// alternately against an ops-off server (sampler disabled, nothing
/// subscribed) and an ops-on one (sampler at 100 ms plus one live
/// subscriber draining the trace stream). Best-of-N wall clock on each
/// side squeezes scheduler noise out of the ratio.
struct OpsOverheadCell {
    conns: usize,
    txns_per_conn: usize,
    trials: usize,
    commits_per_sec_off: f64,
    commits_per_sec_on: f64,
    /// Ops-on throughput over ops-off throughput (1.0 = free).
    ratio: f64,
    /// The budget `ratio` is reported against (under it: a warning).
    floor: f64,
    sub_events: usize,
    sub_dropped: u64,
}

fn ops_overhead(quick: bool) -> OpsOverheadCell {
    use ccopt_net::{Server, ServerConfig};

    let conns = 4usize;
    let vars = 64u32;
    let txns_per_conn = if quick { 200 } else { 800 };
    let trials = if quick { 3 } else { 5 };

    let mut sub_events = 0usize;
    let mut sub_dropped = 0u64;
    let mut run = |ops_on: bool, trial: usize| -> f64 {
        let server = Server::start(ServerConfig {
            num_vars: vars as usize,
            shards: 2,
            max_txns: conns * 2,
            sample_interval: if ops_on {
                Duration::from_millis(100)
            } else {
                Duration::ZERO
            },
            ..ServerConfig::default()
        })
        .expect("ops overhead server");
        let addr = server.local_addr();
        let subscriber = ops_on.then(|| spawn_subscriber(addr));

        let (total, secs) = closed_loop(
            addr,
            conns,
            0x0B5_0000 + (trial * conns) as u64,
            RunFor::Commits(txns_per_conn),
            |c, rng| served_txn(c, rng, vars),
        );
        debug_assert_eq!(total, conns * txns_per_conn);

        if let Some(sub) = subscriber {
            let (ev, dr) = sub.finish();
            sub_events += ev;
            sub_dropped += dr;
        }
        server.shutdown().expect("ops overhead drain");
        total as f64 / secs.max(1e-9)
    };

    let (mut best_off, mut best_on) = (0f64, 0f64);
    for t in 0..trials {
        best_off = best_off.max(run(false, t));
        best_on = best_on.max(run(true, t));
    }
    let ratio = best_on / best_off;
    assert!(sub_events > 0, "the ops-on runs streamed trace events");
    // The 3% budget is the checked-in claim; --quick (CI hardware,
    // parallel jobs, tiny run) only sanity-checks the order of
    // magnitude. Either way it is a ratio of two wall clocks, which
    // untouched code moves across the floor: report, do not abort.
    let floor = if quick { 0.70 } else { 0.97 };
    if ratio < floor {
        eprintln!("warning: ops overhead: on/off throughput ratio {ratio:.4} < {floor}");
    }
    OpsOverheadCell {
        conns,
        txns_per_conn,
        trials,
        commits_per_sec_off: best_off,
        commits_per_sec_on: best_on,
        ratio,
        floor,
        sub_events,
        sub_dropped,
    }
}

// --------------------------------------------------------- batched arm

/// One closed-loop transaction through the wire **batch** opcode: the
/// same two affine bumps as [`served_txn`], but the whole run — commit
/// included — rides a single `Batch` frame, replayed under the
/// partial-batch contract. The A/B against [`served_txn`] (which pays
/// one RTT per op plus one for the commit) is the wire RTT tax.
fn batched_txn(
    c: &mut ccopt_client::Client,
    rng: &mut rand::rngs::SmallRng,
    vars: u32,
) -> ServedOutcome {
    use ccopt_client::ClientError;
    use ccopt_engine::{BatchOp, Op};
    use ccopt_model::VarId;
    use rand::Rng;

    let backoff = Duration::from_micros(200);
    let h = match c.begin() {
        Ok(h) => h,
        Err(ClientError::Shed) => return ServedOutcome::Shed,
        Err(e) => panic!("batched begin: {e}"),
    };
    let (a, b) = (rng.gen_range(0..vars), rng.gen_range(0..vars));
    let program = [
        BatchOp::Affine {
            var: VarId(a),
            a: 1,
            c: 1,
        },
        BatchOp::Affine {
            var: VarId(b),
            a: 1,
            c: 1,
        },
    ];
    let mut cursor = 0usize;
    for attempt in 0.. {
        if attempt >= 64 {
            c.abort(h).expect("batched abort");
            return ServedOutcome::Aborted;
        }
        let (results, commit) = c
            .batch(h, &program[cursor..], true)
            .expect("batched submit");
        match results.last() {
            Some(Op::Restarted) => {
                cursor = 0;
                std::thread::sleep(Duration::from_micros(rng.gen_range(0..400)));
                continue;
            }
            Some(Op::Wait) => {
                cursor += results.len() - 1;
                std::thread::sleep(backoff);
                continue;
            }
            _ => cursor += results.len(),
        }
        match commit {
            Some(Op::Done(())) => return ServedOutcome::Committed,
            Some(Op::Wait) => std::thread::sleep(backoff),
            Some(Op::Restarted) | None => cursor = 0,
        }
    }
    unreachable!()
}

/// The wire-level batching A/B: identical servers, the identical
/// closed-loop fleet (via the one shared [`closed_loop`] anchor),
/// per-op vs batched transactions. Wall-clock, so the *speedup* shape
/// is the claim, not the absolute rates.
struct BatchedWireCell {
    cc: &'static str,
    conns: usize,
    per_op_per_sec: f64,
    batched_per_sec: f64,
    /// Batched over per-op closed-loop commit rate.
    speedup: f64,
}

fn batched_wire(quick: bool) -> BatchedWireCell {
    use ccopt_net::{Server, ServerConfig};

    let conns = if quick { 8 } else { 32 };
    let vars = 256u32;
    let dur = Duration::from_millis(if quick { 250 } else { 800 });
    let cc = "strict-2PL";
    let rate = |batched: bool| {
        let server = Server::start(ServerConfig {
            cc: cc.to_string(),
            num_vars: vars as usize,
            shards: 4,
            max_txns: conns * 2,
            ..ServerConfig::default()
        })
        .expect("batched wire server");
        let addr = server.local_addr();
        let (total, secs) = closed_loop(addr, conns, 0xBA7C, RunFor::Elapsed(dur), |c, rng| {
            if batched {
                batched_txn(c, rng, vars)
            } else {
                served_txn(c, rng, vars)
            }
        });
        server.shutdown().expect("batched wire drain");
        total as f64 / secs.max(1e-9)
    };
    let per_op_per_sec = rate(false);
    let batched_per_sec = rate(true);
    BatchedWireCell {
        cc,
        conns,
        per_op_per_sec,
        batched_per_sec,
        speedup: batched_per_sec / per_op_per_sec.max(1e-9),
    }
}

/// One engine-level messaging-tax cell: the same deterministic stream,
/// three submission paths, wall-clock ratios against the unsharded run.
struct BatchedTaxCell {
    cc: String,
    txns: usize,
    ops: usize,
    unsharded_ms: f64,
    per_op_ms: f64,
    grouped_ms: f64,
    /// Per-op `S = 1` wall over unsharded wall — the historic ~60×.
    per_op_tax: f64,
    /// Grouped `S = 1` wall over unsharded wall — reported against
    /// [`GROUPED_TAX_BUDGET`].
    grouped_tax: f64,
    per_op_msgs: usize,
    grouped_msgs: usize,
}

/// Transactions grouped per `submit_group` message.
const TAX_GROUP: usize = 128;
/// Ops per transaction in the tax stream.
const TAX_OPS: usize = 8;
/// What the grouped tax is reported against: batching should hold the
/// messaging tax to single digits. Over it is a warning, not a failure —
/// it is a ratio of two wall clocks.
const GROUPED_TAX_BUDGET: f64 = 6.0;

/// The tax stream: transaction `i` bumps `TAX_OPS` consecutive
/// variables owned by slot `i % TAX_GROUP`, so any `TAX_GROUP`
/// consecutive transactions touch disjoint variables — concurrent
/// group members never conflict and every path commits every
/// transaction. Read-modify-write affine ops, so each op does real
/// concurrency-control work and the A/B prices the *messaging*, not
/// the allocator. The difference between the paths is then pure
/// submission overhead.
fn tax_program(i: usize) -> Vec<u32> {
    (0..TAX_OPS)
        .map(|p| ((i % TAX_GROUP) * TAX_OPS + p) as u32)
        .collect()
}

/// The engine-level messaging-tax A/B — the number the batched-
/// submission work is measured by. See the module docs for the three
/// paths; the `S = 1` shard worker is a real thread behind a mailbox
/// in all sharded runs, so the wall-clock ratios price the actual
/// round-trips, and the engine's `shard_msgs` counter reports their
/// count exactly.
fn batched_tax(quick: bool) -> Vec<BatchedTaxCell> {
    use ccopt_engine::{affine_eval, BatchOp, GroupReq, Op, SessionDb, ShardedDb};
    use ccopt_model::{GlobalState, VarId};

    let txns = if quick { 1_000 } else { 4_000 };
    let vars = TAX_GROUP * TAX_OPS;
    // Best-of-N wall clock per path: the unsharded baseline is fast
    // enough that a single scheduler hiccup would swamp the ratio.
    let trials = 3;
    let mut cells = Vec::new();
    for kind in CcKind::ALL {
        let name = kind.name();
        if !matches!(name, "strict-2PL" | "SI") {
            continue; // one locking and one multi-version representative
        }
        let init = GlobalState::from_ints(&vec![0i64; vars]);

        // Path 1: direct `SessionDb` calls — no threads, no messages.
        let unsharded = || {
            let mut db = SessionDb::new(kind.build(), init.clone());
            let wall = Instant::now();
            for i in 0..txns {
                let h = db.begin();
                for v in tax_program(i) {
                    match db
                        .update(h, VarId(v), |x| affine_eval(1, 1, x))
                        .expect("unsharded update")
                    {
                        Op::Done(_) => {}
                        other => {
                            panic!("{name}: unsharded tax stream must not conflict: {other:?}")
                        }
                    }
                }
                assert!(matches!(db.commit(h), Ok(Op::Done(()))), "{name}: commit");
                db.retire(h).expect("unsharded retire");
            }
            (wall.elapsed().as_secs_f64() * 1e3, 0usize)
        };

        // Path 2: `ShardedDb` at S = 1, one mailbox round-trip per op
        // (the begin rides the first), plus commit and retire — the
        // messaging tax at its worst.
        let per_op = || {
            let mut db = ShardedDb::new(kind, init.clone(), 1);
            let wall = Instant::now();
            for i in 0..txns {
                let h = db.begin();
                for v in tax_program(i) {
                    match db
                        .update(h, VarId(v), |x| affine_eval(1, 1, x))
                        .expect("per-op update")
                    {
                        Op::Done(_) => {}
                        other => panic!("{name}: per-op tax stream must not conflict: {other:?}"),
                    }
                }
                assert!(matches!(db.commit(h), Ok(Op::Done(()))), "{name}: commit");
                db.retire(h).expect("per-op retire");
            }
            (wall.elapsed().as_secs_f64() * 1e3, db.metrics().shard_msgs)
        };

        // Path 3: `submit_group` at S = 1, whole transactions —
        // begins, runs, commits, retires — grouped per message.
        let grouped = || {
            let mut db = ShardedDb::new(kind, init.clone(), 1);
            let wall = Instant::now();
            let mut done = 0usize;
            while done < txns {
                let n = TAX_GROUP.min(txns - done);
                let reqs: Vec<GroupReq> = (done..done + n)
                    .map(|i| GroupReq {
                        h: db.begin(),
                        ops: tax_program(i)
                            .into_iter()
                            .map(|v| BatchOp::Affine {
                                var: VarId(v),
                                a: 1,
                                c: 1,
                            })
                            .collect(),
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
            (wall.elapsed().as_secs_f64() * 1e3, db.metrics().shard_msgs)
        };

        let best = |run: &dyn Fn() -> (f64, usize)| {
            (0..trials)
                .map(|_| run())
                .min_by(|a, b| a.0.total_cmp(&b.0))
                .expect("trials > 0")
        };
        let (unsharded_ms, _) = best(&unsharded);
        let (per_op_ms, per_op_msgs) = best(&per_op);
        let (grouped_ms, grouped_msgs) = best(&grouped);

        let cell = BatchedTaxCell {
            cc: name.to_string(),
            txns,
            ops: txns * TAX_OPS,
            unsharded_ms,
            per_op_ms,
            grouped_ms,
            per_op_tax: per_op_ms / unsharded_ms.max(1e-9),
            grouped_tax: grouped_ms / unsharded_ms.max(1e-9),
            per_op_msgs,
            grouped_msgs,
        };
        // The acceptance gate: batching must collapse the messaging
        // tax to single digits. The message counts are deterministic
        // and asserted; what the messages cost is wall clock, reported
        // against its budget.
        assert!(
            cell.grouped_msgs * 10 <= cell.per_op_msgs,
            "{name}: grouping left {} of {} messages standing",
            cell.grouped_msgs,
            cell.per_op_msgs
        );
        if cell.grouped_tax > GROUPED_TAX_BUDGET {
            eprintln!(
                "warning: {name}: grouped messaging tax {:.2}x exceeds the {GROUPED_TAX_BUDGET}x \
                 budget (unsharded {:.2}ms, grouped {:.2}ms; per-op was {:.2}x)",
                cell.grouped_tax, cell.unsharded_ms, cell.grouped_ms, cell.per_op_tax
            );
        }
        cells.push(cell);
    }
    cells
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");

    let cfg = SimConfig {
        batches: if quick { 8 } else { 64 },
        seed: 0xC0FFEE,
        // The multi-seed sweep below is the parallel axis; keep the inner
        // batch loop sequential so cells do not oversubscribe the machine.
        parallel: false,
        ..SimConfig::default()
    };

    let mut cells: Vec<Cell> = Vec::new();
    for wl in workloads() {
        // Banking is seed-independent; one instantiation is enough.
        let seeds: &[u64] = match wl {
            Workload::Banking => &SEEDS[..1],
            _ => &SEEDS[..],
        };
        let systems: Vec<_> = seeds.iter().map(|&s| wl.instantiate(s)).collect();
        for kind in CcKind::ALL {
            let name = kind.name();
            let wall = Instant::now();
            // Embarrassingly parallel multi-seed sweep: one simulation per
            // workload seed, reduced in seed order (deterministic).
            let results: Vec<SimResult> =
                ccopt_par::par_map(&systems, |sys| simulate_engine(sys, kind, &cfg));
            let wall_ms = wall.elapsed().as_secs_f64() * 1e3;
            let commits: usize = results.iter().map(|r| r.commits).sum();
            let aborts: usize = results.iter().map(|r| r.aborts).sum();
            let waits: usize = results.iter().map(|r| r.waits).sum();
            let mv_write_aborts: usize = results.iter().map(|r| r.mv_write_aborts).sum();
            let k = results.len() as f64;
            cells.push(Cell {
                workload: wl.name(),
                cc: name.to_string(),
                commits,
                aborts,
                waits,
                mv_write_aborts,
                sim_throughput: results.iter().map(|r| r.throughput).sum::<f64>() / k,
                response_mean: results.iter().map(|r| r.response.mean).sum::<f64>() / k,
                waiting_mean: results.iter().map(|r| r.waiting.mean).sum::<f64>() / k,
                wall_ms,
                commits_per_sec: commits as f64 / (wall_ms / 1e3).max(1e-9),
            });
        }
    }

    let mut table = Table::new(
        "engine throughput (per CC x workload)",
        &[
            "workload",
            "cc",
            "commits",
            "aborts",
            "waits",
            "mv-aborts",
            "sim-thru",
            "response",
            "waiting",
            "wall-ms",
            "commits/s",
        ],
    );
    for c in &cells {
        table.row(&[
            c.workload.clone(),
            c.cc.clone(),
            c.commits.to_string(),
            c.aborts.to_string(),
            c.waits.to_string(),
            c.mv_write_aborts.to_string(),
            f3(c.sim_throughput),
            f3(c.response_mean),
            f3(c.waiting_mean),
            format!("{:.1}", c.wall_ms),
            format!("{:.0}", c.commits_per_sec),
        ]);
    }
    println!("{table}");

    let open_cells = open_grid(quick);
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
            "wall-ms",
        ],
    );
    for c in &open_cells {
        open_table.row(&[
            c.workload.clone(),
            c.cc.clone(),
            c.durability.clone(),
            c.committed.to_string(),
            c.aborts.to_string(),
            c.waits.to_string(),
            f3(c.throughput),
            f3(c.latency_mean),
            f3(c.latency_p95),
            f3(c.abort_rate),
            c.peak_slots.to_string(),
            c.peak_live_versions.to_string(),
            c.wal_syncs.to_string(),
            c.commit_lat_ticks_p50.to_string(),
            c.commit_lat_ticks_p99.to_string(),
            c.top_contended
                .first()
                .map_or_else(|| "-".to_string(), |&(v, _, _)| format!("v{v}")),
            format!("{:.1}", c.wall_ms),
        ]);
    }
    println!("{open_table}");

    let shard_cells = sharded_grid(quick, &open_cells);
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
            "wall-ms",
        ],
    );
    for c in &shard_cells {
        shard_table.row(&[
            c.workload.clone(),
            c.cc.clone(),
            c.shards.to_string(),
            format!("{:.1}", c.cross_ratio),
            c.committed.to_string(),
            c.cross_commits_observed.to_string(),
            c.aborts.to_string(),
            c.waits.to_string(),
            f3(c.throughput),
            f3(c.latency_mean),
            f3(c.latency_p95),
            f3(c.abort_rate),
            c.peak_slots.to_string(),
            c.peak_live_versions.to_string(),
            format!("{:.1}", c.wall_ms),
        ]);
    }
    println!("{shard_table}");

    let degraded_cells = degraded_grid(quick);
    let mut degraded_table = Table::new(
        "degraded mode (durable 2-shard stream through a mid-run shard panic)",
        &[
            "workload",
            "cc",
            "commits",
            "aborts",
            "restarts",
            "thru",
            "baseline",
            "ratio",
            "recover-ms",
            "wall-ms",
        ],
    );
    for c in &degraded_cells {
        degraded_table.row(&[
            c.workload.clone(),
            c.cc.clone(),
            c.committed.to_string(),
            c.aborts.to_string(),
            c.shard_restarts.to_string(),
            f3(c.throughput),
            f3(c.baseline_throughput),
            f3(c.degraded_ratio),
            format!("{:.3}", c.recovery_ms),
            format!("{:.1}", c.wall_ms),
        ]);
    }
    println!("{degraded_table}");

    let (served_cells, served_ops) = served_grid(quick);
    let mut served_table = Table::new(
        "served system (open-loop TCP fleet vs calibrated saturation)",
        &[
            "cc",
            "conns",
            "mult",
            "offered/s",
            "arrivals",
            "commits",
            "shed",
            "aborts",
            "thru/s",
            "shed-rate",
            "p50-us",
            "p99-us",
            "max-us",
            "wall-ms",
        ],
    );
    for c in &served_cells {
        served_table.row(&[
            c.cc.to_string(),
            c.conns.to_string(),
            format!("{:.1}", c.multiplier),
            format!("{:.0}", c.offered),
            c.arrivals.to_string(),
            c.committed.to_string(),
            c.shed.to_string(),
            c.aborted.to_string(),
            format!("{:.0}", c.throughput),
            f3(c.shed_rate),
            c.lat_p50_us.to_string(),
            c.lat_p99_us.to_string(),
            c.lat_max_us.to_string(),
            format!("{:.1}", c.wall_ms),
        ]);
    }
    println!("{served_table}");
    println!(
        "served ops plane: sampler every {}ms, subscriber drained {} events ({} dropped)",
        served_ops.sampler_ms, served_ops.sub_events, served_ops.sub_dropped
    );

    let ops = ops_overhead(quick);
    println!(
        "ops overhead: off {:.0} commits/s, on {:.0} commits/s, ratio {:.4} (floor {}) \
         ({} events to the live subscriber, {} dropped)",
        ops.commits_per_sec_off,
        ops.commits_per_sec_on,
        ops.ratio,
        ops.floor,
        ops.sub_events,
        ops.sub_dropped
    );

    let tax_cells = batched_tax(quick);
    let mut tax_table = Table::new(
        "batched messaging tax (S=1 wall vs unsharded; grouped budget 6x)",
        &[
            "cc",
            "txns",
            "ops",
            "unsharded-ms",
            "per-op-ms",
            "grouped-ms",
            "per-op-tax",
            "grouped-tax",
            "per-op-msgs",
            "grouped-msgs",
        ],
    );
    for c in &tax_cells {
        tax_table.row(&[
            c.cc.clone(),
            c.txns.to_string(),
            c.ops.to_string(),
            format!("{:.2}", c.unsharded_ms),
            format!("{:.2}", c.per_op_ms),
            format!("{:.2}", c.grouped_ms),
            format!("{:.1}x", c.per_op_tax),
            format!("{:.1}x", c.grouped_tax),
            c.per_op_msgs.to_string(),
            c.grouped_msgs.to_string(),
        ]);
    }
    println!("{tax_table}");

    let wire = batched_wire(quick);
    println!(
        "batched wire A/B ({}, {} conns): per-op {:.0} commits/s, batched {:.0} commits/s, \
         speedup {:.2}x",
        wire.cc, wire.conns, wire.per_op_per_sec, wire.batched_per_sec, wire.speedup
    );

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_engine.json");
    std::fs::write(
        path,
        to_json(
            &cfg,
            &cells,
            &open_cells,
            &shard_cells,
            &degraded_cells,
            &served_cells,
            &served_ops,
            &ops,
            &tax_cells,
            &wire,
        ),
    )
    .expect("write BENCH_engine.json");
    println!("wrote {path}");
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
#[allow(clippy::too_many_arguments)]
fn to_json(
    cfg: &SimConfig,
    cells: &[Cell],
    open_cells: &[OpenCell],
    shard_cells: &[ShardCell],
    degraded_cells: &[DegradedCell],
    served_cells: &[ServedCell],
    served_ops: &ServedOps,
    ops: &OpsOverheadCell,
    tax_cells: &[BatchedTaxCell],
    wire: &BatchedWireCell,
) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"schema\": \"ccopt-bench/throughput/v10\",\n");
    s.push_str(&format!(
        "  \"config\": {{\"batches\": {}, \"seed\": {}, \"workload_seeds\": {:?}, \"scheduling_time\": {}, \"exec_time\": {}, \"think_time\": {}, \"retry_interval\": {}, \"restart_penalty\": {}, \"sync_time\": {}}},\n",
        cfg.batches,
        cfg.seed,
        SEEDS,
        cfg.scheduling_time,
        cfg.exec_time,
        cfg.think_time,
        cfg.retry_interval,
        cfg.restart_penalty,
        OpenSimConfig::default().sync_time,
    ));
    s.push_str("  \"results\": [\n");
    for (i, c) in cells.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"workload\": {:?}, \"cc\": {:?}, \"commits\": {}, \"aborts\": {}, \"waits\": {}, \"mv_write_aborts\": {}, \"sim_throughput\": {:.6}, \"response_mean\": {:.6}, \"waiting_mean\": {:.6}, \"wall_ms\": {:.3}, \"commits_per_sec\": {:.1}}}{}\n",
            c.workload,
            c.cc,
            c.commits,
            c.aborts,
            c.waits,
            c.mv_write_aborts,
            c.sim_throughput,
            c.response_mean,
            c.waiting_mean,
            c.wall_ms,
            c.commits_per_sec,
            if i + 1 == cells.len() { "" } else { "," },
        ));
    }
    s.push_str("  ],\n");
    s.push_str("  \"open_world\": [\n");
    for (i, c) in open_cells.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"workload\": {:?}, \"cc\": {:?}, \"durability\": {:?}, \"commits\": {}, \"aborts\": {}, \"waits\": {}, \"mv_write_aborts\": {}, \"throughput\": {:.6}, \"latency_mean\": {:.6}, \"latency_p50\": {:.6}, \"latency_p95\": {:.6}, \"abort_rate\": {:.6}, \"peak_slots\": {}, \"peak_live_versions\": {}, \"versions_reclaimed\": {}, \"wal_syncs\": {}, \"commit_lat_ticks_p50\": {}, \"commit_lat_ticks_p99\": {}, \"top_contended\": {}, \"aborts_by_rule\": {}, \"wall_ms\": {:.3}}}{}\n",
            c.workload,
            c.cc,
            c.durability,
            c.committed,
            c.aborts,
            c.waits,
            c.mv_write_aborts,
            c.throughput,
            c.latency_mean,
            c.latency_p50,
            c.latency_p95,
            c.abort_rate,
            c.peak_slots,
            c.peak_live_versions,
            c.versions_reclaimed,
            c.wal_syncs,
            c.commit_lat_ticks_p50,
            c.commit_lat_ticks_p99,
            json_contended(&c.top_contended),
            json_rules(&c.aborts_by_rule),
            c.wall_ms,
            if i + 1 == open_cells.len() { "" } else { "," },
        ));
    }
    s.push_str("  ],\n");
    s.push_str("  \"sharded\": [\n");
    for (i, c) in shard_cells.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"workload\": {:?}, \"cc\": {:?}, \"shards\": {}, \"cross_ratio\": {:.2}, \"commits\": {}, \"cross_commits\": {}, \"aborts\": {}, \"waits\": {}, \"throughput\": {:.6}, \"latency_mean\": {:.6}, \"latency_p50\": {:.6}, \"latency_p95\": {:.6}, \"abort_rate\": {:.6}, \"peak_slots\": {}, \"peak_live_versions\": {}, \"commit_lat_ticks_p50\": {}, \"commit_lat_ticks_p99\": {}, \"top_contended\": {}, \"aborts_by_rule\": {}, \"wall_ms\": {:.3}}}{}\n",
            c.workload,
            c.cc,
            c.shards,
            c.cross_ratio,
            c.committed,
            c.cross_commits_observed,
            c.aborts,
            c.waits,
            c.throughput,
            c.latency_mean,
            c.latency_p50,
            c.latency_p95,
            c.abort_rate,
            c.peak_slots,
            c.peak_live_versions,
            c.commit_lat_ticks_p50,
            c.commit_lat_ticks_p99,
            json_contended(&c.top_contended),
            json_rules(&c.aborts_by_rule),
            c.wall_ms,
            if i + 1 == shard_cells.len() { "" } else { "," },
        ));
    }
    s.push_str("  ],\n");
    s.push_str("  \"degraded\": [\n");
    for (i, c) in degraded_cells.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"workload\": {:?}, \"cc\": {:?}, \"shards\": {}, \"commits\": {}, \"aborts\": {}, \"shard_restarts\": {}, \"throughput\": {:.6}, \"baseline_throughput\": {:.6}, \"degraded_ratio\": {:.6}, \"recovery_ms\": {:.3}, \"recovery_replayed\": {}, \"wall_ms\": {:.3}}}{}\n",
            c.workload,
            c.cc,
            c.shards,
            c.committed,
            c.aborts,
            c.shard_restarts,
            c.throughput,
            c.baseline_throughput,
            c.degraded_ratio,
            c.recovery_ms,
            c.recovery_replayed,
            c.wall_ms,
            if i + 1 == degraded_cells.len() { "" } else { "," },
        ));
    }
    s.push_str("  ],\n");
    s.push_str("  \"served\": [\n");
    for (i, c) in served_cells.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"cc\": {:?}, \"conns\": {}, \"multiplier\": {:.2}, \"offered_per_sec\": {:.1}, \"arrivals\": {}, \"commits\": {}, \"shed\": {}, \"aborts\": {}, \"throughput\": {:.1}, \"shed_rate\": {:.6}, \"latency_us_p50\": {}, \"latency_us_p99\": {}, \"latency_us_max\": {}, \"wall_ms\": {:.3}}}{}\n",
            c.cc,
            c.conns,
            c.multiplier,
            c.offered,
            c.arrivals,
            c.committed,
            c.shed,
            c.aborted,
            c.throughput,
            c.shed_rate,
            c.lat_p50_us,
            c.lat_p99_us,
            c.lat_max_us,
            c.wall_ms,
            if i + 1 == served_cells.len() { "" } else { "," },
        ));
    }
    s.push_str("  ],\n");
    s.push_str(&format!(
        "  \"served_ops\": {{\"sampler_ms\": {}, \"subscriber\": true, \"sub_events\": {}, \"sub_dropped\": {}}},\n",
        served_ops.sampler_ms, served_ops.sub_events, served_ops.sub_dropped,
    ));
    s.push_str(&format!(
        "  \"ops_overhead\": {{\"conns\": {}, \"txns_per_conn\": {}, \"trials\": {}, \"commits_per_sec_off\": {:.1}, \"commits_per_sec_on\": {:.1}, \"ratio\": {:.6}, \"floor\": {}, \"sub_events\": {}, \"sub_dropped\": {}}},\n",
        ops.conns,
        ops.txns_per_conn,
        ops.trials,
        ops.commits_per_sec_off,
        ops.commits_per_sec_on,
        ops.ratio,
        ops.floor,
        ops.sub_events,
        ops.sub_dropped,
    ));
    s.push_str("  \"batched\": {\n");
    s.push_str(&format!(
        "    \"grouped_tax_budget\": {GROUPED_TAX_BUDGET},\n"
    ));
    s.push_str("    \"tax\": [\n");
    for (i, c) in tax_cells.iter().enumerate() {
        s.push_str(&format!(
            "      {{\"cc\": {:?}, \"txns\": {}, \"ops\": {}, \"group\": {}, \"unsharded_ms\": {:.3}, \"per_op_ms\": {:.3}, \"grouped_ms\": {:.3}, \"per_op_tax\": {:.2}, \"grouped_tax\": {:.2}, \"per_op_msgs\": {}, \"grouped_msgs\": {}}}{}\n",
            c.cc,
            c.txns,
            c.ops,
            TAX_GROUP,
            c.unsharded_ms,
            c.per_op_ms,
            c.grouped_ms,
            c.per_op_tax,
            c.grouped_tax,
            c.per_op_msgs,
            c.grouped_msgs,
            if i + 1 == tax_cells.len() { "" } else { "," },
        ));
    }
    s.push_str("    ],\n");
    s.push_str(&format!(
        "    \"wire\": {{\"cc\": {:?}, \"conns\": {}, \"per_op_per_sec\": {:.1}, \"batched_per_sec\": {:.1}, \"speedup\": {:.3}}}\n",
        wire.cc, wire.conns, wire.per_op_per_sec, wire.batched_per_sec, wire.speedup,
    ));
    s.push_str("  }\n");
    s.push_str("}\n");
    s
}
