//! The traced run: a *ladder* that pushes the same generated streams
//! through successively higher public entry points — mechanism hooks,
//! stores, `SessionDb`, `ShardedDb::submit_group`, the wire — and times
//! every call from outside. A layer's self time is its rung minus the
//! rung below on the same stream. Nothing inside the program is
//! instrumented; every number comes from timing public functions.
//!
//! Nanosecond-scale rungs are timed as whole loops (a span around a
//! 20 ns call would measure the clock); microsecond-scale rungs record
//! spans for their first [`SPAN_TXNS`] transactions in a second pass and
//! write them to `benchmark/out/trace-<rung>.jsonl`.

use crate::gen::{self, op_var, to_batch_op, Pool, Workload, SERVED_SHARDS, SMALL_VARS};
use crate::lib_driver::{check_conservation, LibCounters, LibDriver, Stop};
use crate::served::{self, run_clients, ClientDriver, Served, ServedStop};
use crate::spans::{by_name, close_txn, open_txn, timed, Spans};
use crate::stats::{p50_p99_us, sample_ns, RunSummary};
use ccopt_durability::{recover, DurabilityMode, RecordEncoder, StoreImage, Wal};
use ccopt_engine::storage::Storage;
use ccopt_engine::{
    affine_eval, cc_by_name, BatchOp, CcDecision, ConcurrencyControl, GroupReq, MvStore, Op,
    SessionDb, ShardedDb,
};
use ccopt_model::{GlobalState, StepKind, TxnId, Value, VarId};
use ccopt_net::{
    decode_request, decode_response, encode_request, encode_response, frame_into, read_frame,
    BatchCommit, BatchOutcome, Request, Response,
};
use ccopt_par::Worker;
use ccopt_trace::TraceConfig;
use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;

/// Transactions per rung whose calls are recorded as spans.
pub const SPAN_TXNS: usize = 2_000;

/// `(slug, canonical engine name)` of every mechanism, in metric order.
pub const MECHANISMS: [(&str, &str); 7] = [
    ("serial", "serial"),
    ("2pl", "strict-2PL"),
    ("to", "T/O"),
    ("occ", "OCC"),
    ("sgt", "SGT"),
    ("mvto", "MVTO"),
    ("si", "SI"),
];

pub struct LadderCfg {
    pub seed: u64,
    /// Fraction of the full rung sizes to run (1.0 at the benchmark's
    /// `run_seconds`; `--quick` runs a fifth). Rung sizes are a pure
    /// function of it, so fixed-count counters repeat exactly.
    pub scale: f64,
    /// Where `trace-<rung>.jsonl` goes.
    pub out_dir: PathBuf,
    /// Scratch directory for the write-ahead-log rungs.
    pub data_dir: PathBuf,
}

impl LadderCfg {
    fn n(&self, full: usize) -> usize {
        ((full as f64 * self.scale) as usize).max(200)
    }
}

/// What the ladder measured.
#[derive(Debug, Default)]
pub struct Ladder {
    /// Every per-layer metric, `(name, value)`, in measuring order.
    pub metrics: Vec<(String, f64)>,
    /// Transactions pushed through all rungs together.
    pub attempted: u64,
    /// Transactions that did not commit (0 on a healthy run).
    pub failed: u64,
    /// Human-readable side notes (span tables, the ledger's addends).
    pub notes: Vec<String>,
}

impl Ladder {
    fn put(&mut self, name: impl Into<String>, value: f64) {
        self.metrics.push((name.into(), value));
    }

    pub fn get(&self, name: &str) -> f64 {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .unwrap_or_else(|| panic!("ladder metric {name} not measured yet"))
    }

    fn note_spans(&mut self, rung: &str, spans: &Spans) {
        for (name, count, dur, own) in by_name(spans.spans()) {
            self.notes.push(format!(
                "span {rung}/{name}: n={count} mean={:.3}us self={:.3}us",
                dur / 1e3,
                own / 1e3
            ));
        }
    }
}

fn zeros(n: usize) -> GlobalState {
    GlobalState::from_ints(&vec![0i64; n])
}

fn batch_ops(pool: &Pool, i: usize) -> Vec<BatchOp> {
    pool.txn(i).iter().map(|&op| to_batch_op(op)).collect()
}

fn us_per(elapsed: std::time::Duration, n: usize) -> f64 {
    elapsed.as_secs_f64() * 1e6 / n as f64
}

fn ns_per(elapsed: std::time::Duration, n: usize) -> f64 {
    elapsed.as_secs_f64() * 1e9 / n as f64
}

fn write_trace(cfg: &LadderCfg, rung: &str, spans: &Spans) -> Result<(), String> {
    let path = cfg.out_dir.join(format!("trace-{rung}.jsonl"));
    spans
        .write_jsonl(&path)
        .map_err(|e| format!("write {}: {e}", path.display()))
}

// ------------------------------------------------------------ engine::cc

/// Hook calls per transaction in the direct mechanism rung: `begin`,
/// eight `on_step`, `on_commit`, `after_commit`, `retire`.
const CC_CALLS: usize = 12;

/// Drive one mechanism's hooks directly over a conflict-free stream
/// (one transaction at a time): nanoseconds per hook call.
fn cc_decide_ns(cc: &mut dyn ConcurrencyControl, stream: &Pool, n: usize) -> Result<f64, String> {
    cc.prepare(1, SMALL_VARS);
    let t = TxnId(0);
    let t0 = Instant::now();
    for i in 0..n {
        let tick = i as u64;
        cc.begin(t, tick);
        for &op in stream.txn(i) {
            if black_box(cc.on_step(t, op_var(op), StepKind::Update)) != CcDecision::Proceed {
                return Err(format!(
                    "{}: a lone transaction was not let through",
                    cc.name()
                ));
            }
        }
        if black_box(cc.on_commit(t, tick)) != CcDecision::Proceed {
            return Err(format!("{}: a lone commit was refused", cc.name()));
        }
        cc.after_commit(t);
        black_box(cc.retire(t));
    }
    Ok(ns_per(t0.elapsed(), n * CC_CALLS))
}

/// Replay `lib_2pl_hot`'s stream for a fixed number of commits under
/// `cc`: one thread, no timers, so the counters repeat exactly.
pub fn cc_replay(cc: &str, seed: u64, commits: u64) -> Result<(LibCounters, usize, usize), String> {
    let w = Workload::Lib2plHot;
    let mut d = LibDriver::new(
        cc,
        w.num_vars(),
        gen::generate(w, seed, 0),
        gen::driver_rng(w, seed, 0),
    );
    d.run(Stop::Commits(commits))?;
    d.verify()?;
    Ok((d.counters, d.db.metrics.steps_executed, d.db.num_slots()))
}

fn rung_cc(l: &mut Ladder, cfg: &LadderCfg, local: &Pool) -> Result<(), String> {
    let n = cfg.n(20_000);
    for (slug, name) in MECHANISMS {
        let mut cc = cc_by_name(name).expect("canonical mechanism name");
        l.put(
            format!("cc.{slug}.decide_ns"),
            cc_decide_ns(cc.as_mut(), local, n)?,
        );
        let (c, steps, slots) = cc_replay(name, cfg.seed, n as u64)?;
        l.put(
            format!("cc.{slug}.attempts_per_commit"),
            c.attempts_per_commit(),
        );
        l.put(format!("cc.{slug}.waits_per_commit"), c.waits_per_commit());
        l.attempted += n as u64 + c.begun;
        l.failed += c.abandoned;
        if slug == "2pl" {
            // Kept for the session rows below.
            l.notes
                .push(format!("replay 2pl: steps={steps} slots={slots}"));
            l.put("session.steps_per_commit", steps as f64 / c.commits as f64);
            l.put("session.peak_slots", slots as f64);
        }
    }
    Ok(())
}

// ------------------------------------------- engine::storage / mvstore

fn rung_stores(l: &mut Ladder, cfg: &LadderCfg, local: &Pool) -> Result<(), String> {
    let n = cfg.n(20_000);
    let mut store = Storage::new(zeros(SMALL_VARS));
    let t0 = Instant::now();
    for i in 0..n {
        for &op in local.txn(i) {
            let v = store.get(op_var(op));
            black_box(store.set(op_var(op), affine_eval(1, 1, v)));
        }
    }
    l.put("storage.get_set_ns", ns_per(t0.elapsed(), n * 8));

    // 65 536 chains, as `lib_si_readmostly`: reads over its uniform
    // reader programs, installs spread over the universe.
    let si = gen::generate(Workload::LibSiReadmostly, cfg.seed, 0);
    let mut mv = MvStore::new(zeros(gen::SI_VARS));
    let mut reads = 0usize;
    let t0 = Instant::now();
    for i in 0..n / 4 {
        for &op in si.txn(i) {
            black_box(mv.read_at(op_var(op), u64::MAX));
            reads += 1;
        }
    }
    l.put("mvstore.read_ns", ns_per(t0.elapsed(), reads.max(1)));

    let mut wts = 0u64;
    let t0 = Instant::now();
    for i in 0..n {
        for &op in local.txn(i) {
            wts += 1;
            mv.install(
                VarId(op_var(op).0 * 16 + (i % 16) as u32),
                wts,
                Value::Int(wts as i64),
            );
        }
    }
    l.put("mvstore.install_ns", ns_per(t0.elapsed(), n * 8));

    // The first sweep reclaims what the installs left; the rest are the
    // pure O(chains) sweeps every watermark advance pays.
    let sweeps = cfg.n(400) / 2;
    let t0 = Instant::now();
    for k in 0..sweeps {
        black_box(mv.gc(wts + k as u64));
    }
    l.put("mvstore.gc_us_per_call", us_per(t0.elapsed(), sweeps));
    if mv.live_versions() != gen::SI_VARS {
        return Err("mvstore: a full sweep left more than one version per chain".into());
    }

    let w = Workload::LibSiReadmostly;
    let mut d = LibDriver::new(w.cc(), w.num_vars(), si, gen::driver_rng(w, cfg.seed, 0));
    d.run(Stop::Commits(cfg.n(10_000) as u64))?;
    d.verify()?;
    l.put(
        "mvstore.live_versions_peak",
        d.counters.live_versions_peak as f64,
    );
    l.attempted += d.counters.begun;
    l.failed += d.counters.abandoned;
    Ok(())
}

// --------------------------------------------------------- engine::session

/// Sequential `begin` / `update` x 8 / `commit` / `retire` over the
/// stream; spans around every call when tracing.
fn session_pass(
    cc: &str,
    stream: &Pool,
    n: usize,
    spans: &mut Option<Spans>,
) -> Result<std::time::Duration, String> {
    let mut db = SessionDb::with_capacity(
        cc_by_name(cc).expect("canonical name"),
        zeros(SMALL_VARS),
        1,
    );
    let t0 = Instant::now();
    for i in 0..n {
        let id = i as u64;
        let root = open_txn(spans, id);
        let h = timed(spans, "begin", root, id, || db.begin());
        for &op in stream.txn(i) {
            let r = timed(spans, "update", root, id, || {
                db.update(h, op_var(op), |v| affine_eval(1, 1, v))
            });
            if !matches!(r, Ok(Op::Done(_))) {
                return Err(format!("session {cc}: sequential update answered {r:?}"));
            }
        }
        let r = timed(spans, "commit", root, id, || db.commit(h));
        if !matches!(r, Ok(Op::Done(()))) {
            return Err(format!("session {cc}: sequential commit answered {r:?}"));
        }
        timed(spans, "retire", root, id, || db.retire(h)).map_err(|e| e.to_string())?;
        close_txn(spans, root);
    }
    let elapsed = t0.elapsed();
    check_conservation(&db.committed_globals().0, n as u64 * 8)?;
    Ok(elapsed)
}

fn rung_session(l: &mut Ladder, cfg: &LadderCfg, local: &Pool) -> Result<(), String> {
    let n = cfg.n(20_000);
    let two_pl = us_per(session_pass("strict-2PL", local, n, &mut None)?, n);
    l.put("session.2pl.us_per_txn", two_pl);
    l.put(
        "session.si.us_per_txn",
        us_per(session_pass("SI", local, n, &mut None)?, n),
    );
    let below =
        (l.get("cc.2pl.decide_ns") * CC_CALLS as f64 + l.get("storage.get_set_ns") * 8.0) / 1e3;
    l.put("session.self_us_per_txn", two_pl - below);
    l.attempted += 2 * n as u64;

    let mut spans = Some(Spans::new());
    session_pass("strict-2PL", local, SPAN_TXNS.min(n), &mut spans)?;
    let spans = spans.expect("tracing pass");
    write_trace(cfg, "session", &spans)?;
    l.note_spans("session", &spans);
    Ok(())
}

// -------------------------------------------------------------- durability

fn wal_commits(wal: &mut Wal, stream: &Pool, n: usize) -> Result<std::time::Duration, String> {
    let t0 = Instant::now();
    for i in 0..n {
        let gsn = i as u64;
        wal.begin_txn(gsn);
        wal.start_commit(gsn, 0);
        for &op in stream.txn(i) {
            wal.push_write(op_var(op), Value::Int(i as i64));
        }
        wal.finish_commit(gsn, gsn)
            .map_err(|e| format!("wal commit: {e}"))?;
    }
    Ok(t0.elapsed())
}

fn rung_durability(l: &mut Ladder, cfg: &LadderCfg, local: &Pool) -> Result<(), String> {
    let n = cfg.n(20_000);
    let mut enc = RecordEncoder::new();
    let mut out = Vec::new();
    let t0 = Instant::now();
    for i in 0..n {
        out.clear();
        enc.start_writeset(i as u64, 0);
        for &op in local.txn(i) {
            enc.push_write(op_var(op), Value::Int(i as i64));
        }
        enc.frame_into(&mut out);
        black_box(&out);
    }
    l.put("encoding.record_ns", ns_per(t0.elapsed(), n));

    std::fs::create_dir_all(&cfg.data_dir)
        .map_err(|e| format!("{}: {e}", cfg.data_dir.display()))?;
    let image = StoreImage::Single(vec![Value::Int(0); SMALL_VARS]);
    let io = |e| format!("wal: {e}");

    // Strict: an fsync inside every commit. Fewer commits: each costs a
    // flush.
    let strict_n = cfg.n(2_000);
    let strict_path = cfg.data_dir.join("ladder-strict.wal");
    let mut wal = Wal::create(&strict_path, DurabilityMode::Strict, 0, &image).map_err(io)?;
    let base = wal.stats().bytes;
    l.put(
        "wal.strict_us_per_commit",
        us_per(wal_commits(&mut wal, local, strict_n)?, strict_n),
    );
    let strict_hist = wal.histograms().clone();
    let strict_bytes = (wal.stats().bytes - base) as f64 / strict_n as f64;
    drop(wal);

    // Group commit, 32 per fsync; dropped unsynced — the killed log the
    // recovery rung replays.
    let group_path = cfg.data_dir.join("ladder-group32.wal");
    let mut wal = Wal::create(&group_path, DurabilityMode::group(32), 0, &image).map_err(io)?;
    l.put(
        "wal.group32_us_per_commit",
        us_per(wal_commits(&mut wal, local, n)?, n),
    );
    let group_hist = wal.histograms().clone();
    drop(wal);

    // The public histograms keep exact sums and counts (the means) but
    // power-of-two buckets (the p99 is an upper bucket bound).
    l.put("wal.append_us", strict_hist.append_nanos.mean() / 1e3);
    l.put("wal.fsync_us", strict_hist.fsync_nanos.mean() / 1e3);
    l.put(
        "wal.fsync_p99_us",
        strict_hist.fsync_nanos.quantile(0.99) as f64 / 1e3,
    );
    l.put(
        "wal.commits_per_fsync",
        group_hist.flush_batch_commits.mean(),
    );
    l.put("wal.bytes_per_commit", strict_bytes);

    let t0 = Instant::now();
    let rec = recover(&group_path)
        .map_err(io)?
        .ok_or("recovery found no usable log")?;
    let elapsed = t0.elapsed();
    // Acknowledged-but-unflushed commits of the last partial group are
    // lost with the kill; nothing else may be.
    if rec.committed > n as u64 || rec.committed + 32 < n as u64 {
        return Err(format!(
            "recovery replayed {} of {n} commits",
            rec.committed
        ));
    }
    l.put(
        "recovery.us_per_commit",
        us_per(elapsed, rec.committed as usize),
    );
    l.attempted += (strict_n + n) as u64;
    for p in [strict_path, group_path] {
        std::fs::remove_file(&p).map_err(|e| format!("remove {}: {e}", p.display()))?;
    }
    Ok(())
}

// --------------------------------------------------------------------- par

fn rung_par(l: &mut Ladder, cfg: &LadderCfg) -> Result<(), String> {
    let n = cfg.n(20_000);
    let worker = Worker::spawn(0u64);
    let mut samples = Vec::with_capacity(n);
    for _ in 0..n {
        let t0 = Instant::now();
        worker.call(|s| *s += 1).map_err(|e| e.to_string())?;
        samples.push(sample_ns(t0.elapsed()));
    }
    let (p50, p99) = p50_p99_us(&mut samples);
    l.put("par.call_us", p50);
    l.put("par.call_p99_us", p99);
    Ok(())
}

// ------------------------------------------------------------ engine::shard

struct ShardPass {
    elapsed: std::time::Duration,
    msgs_per_txn: f64,
}

/// Push `n` transactions of `stream` through `ShardedDb::submit_group`
/// at `shards` shards, `group` transactions per call.
fn shard_pass(
    stream: &Pool,
    shards: usize,
    group: usize,
    n: usize,
    spans: &mut Option<Spans>,
) -> Result<ShardPass, String> {
    let make_cc = || cc_by_name("strict-2PL").expect("canonical name");
    let mut db = ShardedDb::with_capacity(&make_cc, zeros(SMALL_VARS), shards, group);
    let t0 = Instant::now();
    let mut done = 0usize;
    while done < n {
        let g = group.min(n - done);
        let id = done as u64;
        let root = open_txn(spans, id);
        let reqs: Vec<GroupReq> = (done..done + g)
            .map(|i| GroupReq {
                h: timed(spans, "begin", root, id, || db.begin()),
                ops: batch_ops(stream, i),
                commit: true,
            })
            .collect();
        let resps = timed(spans, "submit_group", root, id, || db.submit_group(reqs));
        close_txn(spans, root);
        for r in resps {
            let ran =
                matches!(&r.results, Ok(outs) if outs.iter().all(|o| matches!(o, Op::Done(_))));
            if !ran || !matches!(r.commit, Some(Ok(Op::Done(())))) {
                return Err(format!("submit_group: a lone transaction answered {r:?}"));
            }
        }
        done += g;
    }
    let elapsed = t0.elapsed();
    let m = db.metrics();
    if m.commits != n {
        return Err(format!(
            "sharded engine counted {} commits of {n}",
            m.commits
        ));
    }
    check_conservation(&db.committed_globals().0, n as u64 * 8)?;
    Ok(ShardPass {
        elapsed,
        msgs_per_txn: m.shard_msgs as f64 / n as f64,
    })
}

fn rung_shard(l: &mut Ladder, cfg: &LadderCfg, local: &Pool, cross: &Pool) -> Result<(), String> {
    let n = cfg.n(20_000);
    let n_cross = n;
    let s1 = us_per(shard_pass(local, 1, 1, n, &mut None)?.elapsed, n);
    let s2_local = shard_pass(local, SERVED_SHARDS, 1, n, &mut None)?;
    let s2_cross = shard_pass(cross, SERVED_SHARDS, 1, n_cross, &mut None)?;
    let local_us = us_per(s2_local.elapsed, n);
    let cross_us = us_per(s2_cross.elapsed, n_cross);
    l.put("shard.s1_us_per_txn", s1);
    l.put("shard.s2_local_us_per_txn", local_us);
    l.put("shard.s2_cross_us_per_txn", cross_us);
    let g64 = shard_pass(local, SERVED_SHARDS, 64, n, &mut None)?;
    l.put("shard.s2_local_g64_us_per_txn", us_per(g64.elapsed, n));
    let g64 = shard_pass(cross, SERVED_SHARDS, 64, n_cross, &mut None)?;
    l.put(
        "shard.s2_cross_g64_us_per_txn",
        us_per(g64.elapsed, n_cross),
    );
    l.put("shard.msgs_per_txn_local", s2_local.msgs_per_txn);
    l.put("shard.msgs_per_txn_cross", s2_cross.msgs_per_txn);
    l.put(
        "shard.self_us_per_txn",
        s1 - l.get("session.2pl.us_per_txn"),
    );
    l.put("shard.twopc_us_per_txn", cross_us - local_us);
    l.attempted += (3 * n + 2 * n_cross) as u64;

    for (rung, stream, shards, n) in [
        ("shard_s1", local, 1, SPAN_TXNS.min(n)),
        ("shard_s2_local", local, SERVED_SHARDS, SPAN_TXNS.min(n)),
        (
            "shard_s2_cross",
            cross,
            SERVED_SHARDS,
            (SPAN_TXNS / 4).min(n_cross),
        ),
    ] {
        let mut spans = Some(Spans::new());
        shard_pass(stream, shards, 1, n, &mut spans)?;
        let spans = spans.expect("tracing pass");
        write_trace(cfg, rung, &spans)?;
        l.note_spans(rung, &spans);
    }
    Ok(())
}

// --------------------------------------------------------------- net::frame

/// Nanoseconds per frame to encode-and-frame, and to unframe-and-decode,
/// one message `n` times in memory (CRC included both ways).
fn frame_codec_ns<T: PartialEq>(
    n: usize,
    encode: impl Fn(u64) -> Vec<u8>,
    decode: impl Fn(&[u8]) -> Option<T>,
    expect: &T,
) -> Result<(f64, f64), String> {
    let mut buf = Vec::new();
    let t0 = Instant::now();
    for i in 0..n {
        buf.clear();
        frame_into(&mut buf, &encode(i as u64));
        black_box(&buf);
    }
    let encode_ns = ns_per(t0.elapsed(), n);
    let mut last = None;
    let t0 = Instant::now();
    for _ in 0..n {
        let payload = read_frame(&mut black_box(&buf[..])).map_err(|e| e.to_string())?;
        last = black_box(payload.and_then(|p| decode(&p)));
    }
    let decode_ns = ns_per(t0.elapsed(), n);
    if last.as_ref() != Some(expect) {
        return Err("frame: a message did not round-trip".to_string());
    }
    Ok((encode_ns, decode_ns))
}

fn rung_frame(l: &mut Ladder, cfg: &LadderCfg, local: &Pool) -> Result<(), String> {
    let n = cfg.n(20_000);
    let req = Request::Batch {
        txn: 1,
        ops: batch_ops(local, 0),
        commit: true,
    };
    let resp = Response::Batch {
        results: (0..8)
            .map(|i| BatchOutcome::Done {
                value: Value::Int(i),
            })
            .collect(),
        commit: Some(BatchCommit::Committed),
    };
    let (enc, dec) = frame_codec_ns(
        n,
        |id| encode_request(id, black_box(&req)),
        |p| decode_request(p).ok().map(|(_, r)| r),
        &req,
    )?;
    l.put("frame.encode_req_ns", enc);
    l.put("frame.decode_req_ns", dec);
    let (enc, dec) = frame_codec_ns(
        n,
        |id| encode_response(id, black_box(&resp)),
        |p| decode_response(p).ok().map(|(_, r)| r),
        &resp,
    )?;
    l.put("frame.encode_resp_ns", enc);
    l.put("frame.decode_resp_ns", dec);
    Ok(())
}

// ------------------------------------------------------ net::server + client

/// Nanosecond durations of every span called `name`.
fn durations(spans: &Spans, name: &str) -> Vec<u32> {
    spans
        .spans()
        .iter()
        .filter(|s| s.name == name)
        .map(|s| u32::try_from(s.dur_ns()).unwrap_or(u32::MAX))
        .collect()
}

fn rung_net(l: &mut Ladder, cfg: &LadderCfg, local: &Pool) -> Result<(), String> {
    let w = Workload::ServedLocal;
    let wire = |e: ccopt_client::ClientError| format!("net rung: {e}");
    let mut served = Served::start(
        served::server_config(None, None),
        vec![local.clone()],
        w,
        cfg.seed,
        0,
    )?;

    let pings = cfg.n(5_000);
    let mut samples = Vec::with_capacity(pings);
    for _ in 0..pings {
        let t0 = Instant::now();
        served.drivers[0].client().ping().map_err(wire)?;
        samples.push(sample_ns(t0.elapsed()));
    }
    let (p50, p99) = p50_p99_us(&mut samples);
    l.put("net.ping_rtt_us", p50);
    l.put("net.ping_rtt_p99_us", p99);

    // One connection, the served_local stream: `begin` + one `batch`
    // with the commit piggybacked, every call a span.
    let n = cfg.n(5_000);
    served.drivers[0].spans = Some(Spans::new());
    run_clients(&mut served.drivers, ServedStop::Commits(n as u64))?;
    let spans = served.drivers[0].spans.take().expect("tracing pass");
    l.put(
        "net.begin_rtt_us",
        p50_p99_us(&mut durations(&spans, "begin")).0,
    );
    let batch_us = p50_p99_us(&mut durations(&spans, "batch")).0;
    l.put("net.batch_rtt_us", batch_us);
    write_trace(cfg, "net_local", &spans)?;
    l.note_spans("net_local", &spans);

    // The commit's own round trip: the same stream with the commit sent
    // apart from the batch.
    let commits = cfg.n(2_000);
    let mut samples = Vec::with_capacity(commits);
    let client = served.drivers[0].client();
    for i in 0..commits {
        let h = client.begin().map_err(wire)?;
        let (results, _) = client
            .batch(h, &batch_ops(local, n + i), false)
            .map_err(wire)?;
        if !results.iter().all(|r| matches!(r, Op::Done(_))) {
            return Err("net rung: a lone batch did not run to its end".into());
        }
        let t0 = Instant::now();
        if client.commit(h).map_err(wire)? != Op::Done(()) {
            return Err("net rung: a lone commit was refused".into());
        }
        samples.push(sample_ns(t0.elapsed()));
    }
    l.put("net.commit_rtt_us", p50_p99_us(&mut samples).0);
    l.put(
        "server.self_us_per_txn",
        batch_us - l.get("shard.s2_local_us_per_txn"),
    );

    let stats = served.stats()?;
    // pings + (begin, batch) per transaction + (begin, batch, commit)
    // per split transaction + this stats call.
    let requests = pings + 2 * n + 3 * commits + 1;
    l.put(
        "server.sheds_per_request",
        stats.sheds_total() as f64 / requests as f64,
    );
    if stats.metrics.commits != n + commits {
        return Err(format!(
            "net rung: server counted {} commits of {}",
            stats.metrics.commits,
            n + commits
        ));
    }
    l.attempted += (n + commits) as u64;
    served.kill();

    // Client-observed waits and restarts under `served_interactive`.
    let w = Workload::ServedInteractive;
    let (pools, _) = gen::generate_all(w, cfg.seed);
    let mut served = Served::start(served::server_config(None, None), pools, w, cfg.seed, 0)?;
    run_clients(
        &mut served.drivers,
        ServedStop::Commits(cfg.n(1_500) as u64),
    )?;
    served.verify()?;
    let c = served.counters();
    l.put(
        "server.requests_per_commit",
        c.requests as f64 / c.commits as f64,
    );
    l.put("server.waits_per_commit", c.waits as f64 / c.commits as f64);
    l.put(
        "server.restarts_per_commit",
        c.restarts as f64 / c.commits as f64,
    );
    l.attempted += c.begun;
    l.failed += c.failed();
    served.kill();
    Ok(())
}

// ----------------------------------------------- trace, the benchmark itself

/// How `served_local` is observed in one overhead run.
enum Observe {
    Nothing,
    /// `ServerConfig.trace` on (in-memory rings).
    ServerTrace,
    /// Benchmark-side spans around every client call.
    Spans,
}

/// Half-second slices of an overhead run (2 clients, `served_local`).
const OVERHEAD_SLICES: usize = 5;
const OVERHEAD_SLICE_S: f64 = 0.5;

fn overhead_run(
    cfg: &LadderCfg,
    observe: Observe,
) -> Result<(RunSummary, Option<Spans>, u64), String> {
    let w = Workload::ServedLocal;
    let trace = matches!(observe, Observe::ServerTrace).then(|| TraceConfig::ring(4096));
    let (pools, _) = gen::generate_all(w, cfg.seed);
    let mut served = Served::start(served::server_config(None, trace), pools, w, cfg.seed, 200)?;
    if matches!(observe, Observe::Spans) {
        served
            .drivers
            .iter_mut()
            .for_each(|d: &mut ClientDriver| d.spans = Some(Spans::new()));
    }
    let slices = run_clients(
        &mut served.drivers,
        ServedStop::Slices {
            n: OVERHEAD_SLICES,
            secs: OVERHEAD_SLICE_S,
        },
    )?;
    served.verify()?;
    let c = served.counters();
    if c.failed() > 0 {
        return Err(format!("overhead run: {} transactions failed", c.failed()));
    }
    let mut merged: Option<Spans> = None;
    for d in &mut served.drivers {
        if let Some(s) = d.spans.take() {
            match &mut merged {
                None => merged = Some(s),
                Some(m) => m.absorb(s),
            }
        }
    }
    served.kill();
    Ok((RunSummary::from_slices(&slices)?, merged, c.begun))
}

fn rung_overheads(l: &mut Ladder, cfg: &LadderCfg) -> Result<(), String> {
    let (off, _, a) = overhead_run(cfg, Observe::Nothing)?;
    let (traced, _, b) = overhead_run(cfg, Observe::ServerTrace)?;
    let (spanned, spans, c) = overhead_run(cfg, Observe::Spans)?;
    l.attempted += a + b + c;
    let share = |with: f64| (off.commits_per_s - with) / off.commits_per_s;
    l.put("trace.on_overhead_share", share(traced.commits_per_s));
    l.put("bench.span_overhead_share", share(spanned.commits_per_s));
    let spans = spans.expect("the spans run traced");
    write_trace(cfg, "served_local", &spans)?;
    l.note_spans("served_local", &spans);

    // The outside-in stage budget: what of a served_local transaction's
    // median the four measured layers do not account for.
    let addends = [
        "net.begin_rtt_us",
        "server.self_us_per_txn",
        "shard.self_us_per_txn",
        "session.2pl.us_per_txn",
    ];
    let sum: f64 = addends.iter().map(|a| l.get(a)).sum();
    l.put(
        "ledger.unattributed_share",
        (off.txn_p50_us - sum) / off.txn_p50_us,
    );
    let parts: Vec<String> = addends
        .iter()
        .map(|a| format!("{a}={:.3}", l.get(a)))
        .collect();
    l.notes.push(format!(
        "ledger served_local: txn_p50_us={:.3} (n={}) = {} + unattributed {:.3}",
        off.txn_p50_us,
        off.samples,
        parts.join(" + "),
        off.txn_p50_us - sum
    ));
    Ok(())
}

/// Run every rung. `Err` when a rung's own correctness check fails.
pub fn run(cfg: &LadderCfg) -> Result<Ladder, String> {
    std::fs::create_dir_all(&cfg.out_dir).map_err(|e| format!("{}: {e}", cfg.out_dir.display()))?;
    let local = gen::generate(Workload::ServedLocal, cfg.seed, 0);
    let cross = gen::generate(Workload::ServedCross, cfg.seed, 0);
    let mut l = Ladder::default();
    rung_cc(&mut l, cfg, &local)?;
    rung_stores(&mut l, cfg, &local)?;
    rung_session(&mut l, cfg, &local)?;
    rung_durability(&mut l, cfg, &local)?;
    rung_par(&mut l, cfg)?;
    rung_shard(&mut l, cfg, &local, &cross)?;
    rung_frame(&mut l, cfg, &local)?;
    rung_net(&mut l, cfg, &local)?;
    rung_overheads(&mut l, cfg)?;
    Ok(l)
}
