//! The served engine, with no socket, no thread and no clock: the time
//! and decoded messages in, answers out through a [`Sink`].
//!
//! [`Engine::pass`] maps one pass — the caller's `now` and the queued
//! messages: requests, connection opens and closes, drains, injected
//! faults — to the answers they get, in arrival order, then refreshes
//! the `/healthz` flags, runs the sampler and says whether serving is
//! over. Everything the pass carries for transactions is submitted as
//! one [`ShardedDb::submit_group`] call per barrier. The server
//! ([`crate::server`]) runs it under its combining lock and answers
//! through the connections' outboxes; the tests below run it with a
//! `Vec` for a sink and a clock of their own.

use crate::error::ServerError;
use crate::frame::{BatchCommit, BatchOutcome, ErrCode, Request, Response};
use crate::server::{DrainStats, ServerConfig, Shared};
use crate::stats::{ContendedVar, HealthReport, SamplePoint, ServerStats, ShardHealth};
use ccopt_engine::shard::WAIT_VALVE;
use ccopt_engine::{
    BatchOp, CcKind, GlobalTxn, GroupReq, GroupResp, Metrics, Op, SessionError, ShardedDb,
};
use ccopt_model::state::GlobalState;
use ccopt_trace::{EventKind, Histogram, Tracer};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Capacity of the sampler's time-series ring (oldest points are evicted
/// first): six minutes at the default one-second interval.
const SAMPLE_RING: usize = 360;

/// One message for the engine.
pub(crate) enum ToEngine {
    /// A connection opened.
    Conn { id: u64 },
    /// A connection closed; abort its transactions.
    Gone { id: u64 },
    /// One decoded request.
    Req {
        conn: u64,
        req_id: u64,
        req: Request,
    },
    /// Start a graceful drain (same effect as a wire `Shutdown`).
    Drain,
    /// Fault injection: panic shard `s` (see
    /// [`Server::panic_shard`](crate::Server::panic_shard)).
    PanicShard(usize),
}

/// Where the engine's answers go.
pub(crate) trait Sink {
    /// Answer request `req_id` of connection `conn`.
    fn reply(&mut self, conn: u64, req_id: u64, resp: &Response);

    /// Every answer of the pass is in: send them. Runs before the pass's
    /// sampler, so no answer waits behind a snapshot.
    fn flush(&mut self) {}
}

/// A transaction's name: its connection and the token that connection
/// numbered it with. Tokens are per connection, so a connection cannot
/// name another's transaction.
type TxnKey = (u64, u64);

/// A live transaction.
struct Live {
    h: GlobalTxn,
    /// Consecutive `Wait` answers: the distributed-deadlock valve's
    /// input, reset by an all-`Done` batch or any `Restarted`.
    waits: u32,
}

pub(crate) struct Engine {
    db: ShardedDb,
    tracer: Tracer,
    /// Live connection -> the highest token it has begun (its
    /// high-water mark; a token at or below it never begins again).
    conns: HashMap<u64, u64>,
    txns: HashMap<TxnKey, Live>,
    max_txns: usize,
    shared: Arc<Shared>,
    commits: u64,
    /// Engine "tick" for trace timestamps: one per processed message.
    tick: u64,
    /// The time of the pass in progress, as its caller gave it.
    now: Instant,
    /// Set when a drain begins: when its grace ends. `Some` is draining.
    deadline: Option<Instant>,
    grace: Duration,
    // ---- ops plane ----
    started: Instant,
    sample_interval: Duration,
    next_sample: Instant,
    prev_metrics: Metrics,
    prev_hist: Histogram,
    prev_wire_sheds: u64,
    series: VecDeque<SamplePoint>,
    stats_line: bool,
}

/// The engine is built by [`Server::start`](crate::Server::start) on its
/// caller's thread and then run by whichever thread holds the combining
/// lock.
const _: () = {
    const fn assert_send<T: Send + 'static>() {}
    assert_send::<Engine>()
};

impl Engine {
    /// Open (or recover) the database, attach the trace plane and build
    /// the engine around it, started at `now`, with a baseline snapshot
    /// already published so `/metrics` answers from the first scrape.
    pub(crate) fn open(
        cfg: &ServerConfig,
        kind: CcKind,
        shared: Arc<Shared>,
        now: Instant,
    ) -> Result<Engine, ServerError> {
        let init = GlobalState::from_ints(&vec![0; cfg.num_vars]);
        let mut db = match &cfg.dir {
            Some(dir) => ShardedDb::open(kind, init, dir, cfg.mode, cfg.shards, cfg.max_txns)?,
            None => ShardedDb::with_capacity(kind, init, cfg.shards, cfg.max_txns),
        };
        let tracer = match &cfg.trace {
            Some(tc) => {
                db.set_trace(tc)?;
                server_tracer(&db)
            }
            None => Tracer::off(),
        };
        let mut eng = Engine {
            db,
            tracer,
            conns: HashMap::new(),
            txns: HashMap::new(),
            max_txns: cfg.max_txns.max(1),
            shared,
            commits: 0,
            tick: 0,
            now,
            deadline: None,
            grace: cfg.drain_grace,
            started: now,
            sample_interval: cfg.sample_interval,
            next_sample: now + cfg.sample_interval,
            prev_metrics: Metrics::default(),
            prev_hist: Histogram::new(),
            prev_wire_sheds: 0,
            series: VecDeque::new(),
            stats_line: cfg.stats_line,
        };
        // The first sample point diffs against startup, not zero.
        let (first, hist) = eng.snapshot();
        eng.prev_metrics = first.metrics;
        eng.prev_hist = hist;
        *eng.shared.published.lock().expect("no publish panics") = Some(first);
        eng.publish_health();
        Ok(eng)
    }
}

/// The server plane's tracer: it emits as shard id S+1 (one past the
/// coordinator's S), so merged traces stay totally ordered.
fn server_tracer(db: &ShardedDb) -> Tracer {
    db.trace_hub().map_or_else(Tracer::off, |hub| {
        hub.tracer(db.partition().shards() as u32 + 1)
    })
}

/// One transaction's accumulated work inside a drain pass, on its way
/// into a [`ShardedDb::submit_group`] call: the ops of its pipelined
/// `Batch` requests, concatenated in arrival order, with each request's
/// run kept as `(req_id, n)` so it gets its own answer back.
struct PendEntry {
    key: TxnKey,
    runs: Vec<(u64, usize)>,
    /// Moved into the entry's [`GroupReq`] at flush; `runs` keep the
    /// counts.
    ops: Vec<BatchOp>,
    /// The request id of the commit-bearing request, if any. An entry
    /// with a commit is sealed — a later request on the same token
    /// flushes the whole group first (its execution depends on this
    /// outcome).
    commit_req: Option<u64>,
}

/// The per-pass accumulator of [`PendEntry`]s, in first-arrival order.
#[derive(Default)]
struct Pending {
    entries: Vec<PendEntry>,
    index: HashMap<TxnKey, usize>,
}

impl Engine {
    /// One pass at time `now`: answer `msgs` through `sink` and flush it,
    /// refresh the `/healthz` flags and run the sampler. `true` when
    /// serving is over: draining, and no transaction is left or the grace
    /// has expired. `now` is the engine's only clock: it times the drain
    /// deadline, the sampler and the uptime a snapshot reports.
    pub(crate) fn pass<S: Sink>(&mut self, now: Instant, msgs: &[ToEngine], sink: &mut S) -> bool {
        self.now = now;
        self.process(msgs, sink);
        sink.flush();
        self.publish_health();
        self.sample();
        self.deadline
            .is_some_and(|d| self.txns.is_empty() || now >= d)
    }

    /// Answer `msgs` through `sink`.
    fn process<S: Sink>(&mut self, msgs: &[ToEngine], sink: &mut S) {
        // Group submit: accumulate every transaction's batches across
        // the whole drained pass — across connections — and hand them to
        // the engine as ONE `submit_group` call per flush, so independent
        // transactions share shard messages instead of paying a round
        // trip each.
        // Requests that only read engine-adjacent state (`Ping`,
        // `Stats`, `Health`) interleave without flushing;
        // anything that mutates transaction or server lifecycle state
        // (aborts, drains, faults, dead connections) is a
        // barrier: the pending group flushes first, preserving arrival
        // order where it is observable.
        let mut pending = Pending::default();
        for m in msgs {
            self.tick += 1;
            match m {
                ToEngine::Req { conn, req_id, req } => {
                    let (conn, req_id) = (*conn, *req_id);
                    // The reader counted this request into the
                    // queue-depth gauge before sending it.
                    self.shared.queue_depth.fetch_sub(1, Ordering::Relaxed);
                    match *req {
                        Request::Batch {
                            txn,
                            ref ops,
                            commit,
                        } => self.enqueue(&mut pending, (conn, req_id), txn, ops, commit, sink),
                        Request::Ping => sink.reply(conn, req_id, &Response::Pong),
                        Request::Stats => {
                            let stats = Box::new(self.snapshot().0);
                            sink.reply(conn, req_id, &Response::Stats { stats });
                        }
                        Request::Health => {
                            let report = self.health();
                            sink.reply(conn, req_id, &Response::Health { report });
                        }
                        Request::Abort { txn } => {
                            self.flush_group(&mut pending, sink);
                            self.abort_txn(conn, req_id, txn, sink);
                        }
                        Request::Shutdown => {
                            self.flush_group(&mut pending, sink);
                            sink.reply(conn, req_id, &Response::Draining);
                            self.begin_drain();
                        }
                    }
                }
                ToEngine::Conn { id } => {
                    self.conns.insert(*id, 0);
                    if self.tracer.is_on() {
                        let t = self.tick;
                        self.tracer.emit(t, EventKind::ConnAccept { conn: *id });
                    }
                }
                ToEngine::Gone { id } => {
                    self.flush_group(&mut pending, sink);
                    self.conn_gone(*id);
                }
                ToEngine::Drain => {
                    self.flush_group(&mut pending, sink);
                    self.begin_drain();
                }
                ToEngine::PanicShard(s) => {
                    self.flush_group(&mut pending, sink);
                    if *s < self.db.partition().shards() {
                        self.db.panic_shard(*s);
                    }
                }
            }
        }
        self.flush_group(&mut pending, sink);
    }

    /// Append one `Batch` — `ops` of transaction `token`, then its commit
    /// if `commit`, asked by `(conn, req_id)` — to the pass's pending
    /// group.
    fn enqueue<S: Sink>(
        &mut self,
        pending: &mut Pending,
        (conn, req_id): (u64, u64),
        token: u64,
        ops: &[BatchOp],
        commit: bool,
        sink: &mut S,
    ) {
        // Malformed variable ids are refused before anything reaches a
        // shard, for the whole request (its contract: one response,
        // never per-op errors).
        let num_vars = self.db.partition().num_vars() as u32;
        if let Some(op) = ops.iter().find(|op| op.var().0 >= num_vars) {
            let msg = format!("variable {} outside 0..{num_vars}", op.var().0);
            let resp = Response::Err {
                code: ErrCode::Malformed,
                msg,
            };
            sink.reply(conn, req_id, &resp);
            return;
        }
        let key = (conn, token);
        if let Err(resp) = self.live(key) {
            sink.reply(conn, req_id, &resp);
            return;
        }
        if let Some(&ix) = pending.index.get(&key) {
            if pending.entries[ix].commit_req.is_some() {
                // Pipelined past a commit: what this request means
                // depends on that commit's outcome, so the group
                // flushes and the request starts a fresh entry.
                self.flush_group(pending, sink);
            }
        }
        let ix = match pending.index.get(&key) {
            Some(&ix) => ix,
            None => {
                pending.entries.push(PendEntry {
                    key,
                    runs: Vec::new(),
                    ops: Vec::new(),
                    commit_req: None,
                });
                let ix = pending.entries.len() - 1;
                pending.index.insert(key, ix);
                ix
            }
        };
        let e = &mut pending.entries[ix];
        e.ops.extend_from_slice(ops);
        e.runs.push((req_id, ops.len()));
        if commit {
            e.commit_req = Some(req_id);
        }
    }

    /// Submit the pass's pending group through
    /// [`ShardedDb::submit_group`] and answer every request it carried.
    fn flush_group<S: Sink>(&mut self, pending: &mut Pending, sink: &mut S) {
        if pending.entries.is_empty() {
            return;
        }
        let entries = std::mem::take(&mut pending.entries);
        pending.index.clear();
        let mut reqs: Vec<GroupReq> = Vec::with_capacity(entries.len());
        let mut live: Vec<(PendEntry, GlobalTxn)> = Vec::with_capacity(entries.len());
        for mut e in entries {
            // Live when enqueued, but a commit flushed ahead of it in the
            // pass may have ended it.
            let Some(h) = self.txns.get(&e.key).map(|live| live.h) else {
                for &(req_id, _) in &e.runs {
                    sink.reply(e.key.0, req_id, &unknown(e.key.1));
                }
                continue;
            };
            reqs.push(GroupReq {
                h,
                ops: std::mem::take(&mut e.ops),
                commit: e.commit_req.is_some(),
            });
            live.push((e, h));
        }
        let resps = self.db.submit_group(reqs);
        debug_assert_eq!(resps.len(), live.len());
        for ((e, h), resp) in live.into_iter().zip(resps) {
            self.settle(&e, h, resp, sink);
        }
    }

    /// Answer every request of one settled [`PendEntry`].
    fn settle<S: Sink>(&mut self, e: &PendEntry, h: GlobalTxn, resp: GroupResp, sink: &mut S) {
        let (key, conn) = (e.key, e.key.0);
        let results = match resp.results {
            Ok(results) => results,
            Err(err) => {
                // The whole entry failed before any op ran (stale
                // handle, shard down, prepared): every request it
                // carried gets the mapped error.
                for &(req_id, _) in &e.runs {
                    sink.reply(conn, req_id, &self.session_error(key, err));
                }
                return;
            }
        };
        // What a request the run stopped in (or before) answers. Once per
        // entry: a trailing `Wait` feeds the distributed-deadlock valve,
        // which may turn the whole answer into `Restarted`.
        let trailing = match results.last() {
            Some(Op::Wait) if self.waited(key) => BatchOutcome::Restarted,
            Some(Op::Wait) => BatchOutcome::Wait,
            Some(Op::Restarted) => {
                self.reset_waits(key);
                BatchOutcome::Restarted
            }
            Some(Op::Done(_)) if results.len() == e.runs.iter().map(|&(_, n)| n).sum() => {
                self.reset_waits(key);
                BatchOutcome::Wait
            }
            _ => BatchOutcome::Wait,
        };
        let mut pos = 0usize;
        for &(req_id, n) in &e.runs {
            // Past a stop, `pos` can run beyond the results.
            let mine = &results[pos.min(results.len())..];
            let avail = mine.len().min(n);
            let mut outs: Vec<BatchOutcome> = mine[..avail]
                .iter()
                .map(|r| match r {
                    Op::Done(v) => BatchOutcome::Done { value: *v },
                    Op::Wait => trailing.clone(),
                    Op::Restarted => BatchOutcome::Restarted,
                })
                .collect();
            pos += n;
            // Every op of this request that the run reached ran `Done`;
            // with `done`, it reached them all.
            let ran = outs
                .last()
                .is_none_or(|o| matches!(o, BatchOutcome::Done { .. }));
            let done = ran && avail == n;
            if ran && !done {
                // The run stopped before reaching (or finishing) this
                // request: its next op answers the trailing outcome —
                // "resume here".
                outs.push(trailing.clone());
            }
            // A request's commit is attempted if and only if its own ops
            // all completed `Done`. `None` from the group then means an
            // earlier request of the entry stopped the run — which only a
            // zero-op request can follow — so the commit runs on its own,
            // with sequential semantics: it commits whatever the
            // transaction's current attempt holds.
            let commit = if done && e.commit_req == Some(req_id) {
                let c = resp.commit.unwrap_or_else(|| {
                    let c = self.db.commit(h);
                    if let Ok(Op::Done(())) = c {
                        let _ = self.db.retire(h);
                    }
                    c
                });
                match c {
                    Ok(c) => Some(self.commit_outcome(key, c)),
                    Err(err) => {
                        sink.reply(conn, req_id, &self.session_error(key, err));
                        continue;
                    }
                }
            } else {
                None
            };
            let resp = Response::Batch {
                results: outs,
                commit,
            };
            sink.reply(conn, req_id, &resp);
        }
    }

    /// Book one commit outcome of `key` — a landed commit drops the
    /// transaction and counts, a `Wait` feeds the valve (which may turn
    /// it into a restart), a restart clears the wait streak — and say
    /// what the client is told.
    fn commit_outcome(&mut self, key: TxnKey, c: Op<()>) -> BatchCommit {
        match c {
            Op::Done(()) => {
                self.txns.remove(&key);
                self.commits += 1;
                BatchCommit::Committed
            }
            Op::Wait if self.waited(key) => BatchCommit::Restarted,
            Op::Wait => BatchCommit::Wait,
            Op::Restarted => {
                self.reset_waits(key);
                BatchCommit::Restarted
            }
        }
    }

    /// A connection closed: abort its transactions.
    fn conn_gone(&mut self, id: u64) {
        // A dead connection's transactions are aborted: nobody can ever
        // speak for their tokens again.
        let mut orphans: Vec<TxnKey> = self.txns.keys().filter(|k| k.0 == id).copied().collect();
        // In token order, so the trace is a function of the requests,
        // not of the map's hash seed.
        orphans.sort_unstable();
        for key in orphans {
            if let Some(live) = self.txns.remove(&key) {
                let _ = self.db.abort(live.h);
            }
        }
        self.conns.remove(&id);
        if self.tracer.is_on() {
            let t = self.tick;
            self.tracer.emit(t, EventKind::ConnClose { conn: id });
        }
    }

    /// The transaction `key` names: a live one, or one begun here when
    /// the token is above its connection's high-water mark. A fresh
    /// token is admitted here — refused while draining, shed at
    /// `max_txns` — and a refusal leaves the mark where it was, so the
    /// same request can be retried. `Err` is the answer otherwise.
    fn live(&mut self, key: TxnKey) -> Result<GlobalTxn, Response> {
        let (conn, token) = key;
        let Some(mark) = self.conns.get_mut(&conn) else {
            return Err(unknown(token));
        };
        if token <= *mark {
            return self
                .txns
                .get(&key)
                .map(|l| l.h)
                .ok_or_else(|| unknown(token));
        }
        if self.deadline.is_some() {
            return Err(Response::Draining);
        }
        if self.txns.len() >= self.max_txns {
            self.shared.sheds.txns.fetch_add(1, Ordering::Relaxed);
            if self.tracer.is_on() {
                let t = self.tick;
                self.tracer.emit(t, EventKind::RequestShed { conn });
            }
            return Err(Response::Shed);
        }
        *mark = token;
        let h = self.db.begin();
        self.txns.insert(key, Live { h, waits: 0 });
        Ok(h)
    }

    fn abort_txn<S: Sink>(&mut self, conn: u64, req_id: u64, token: u64, sink: &mut S) {
        let key = (conn, token);
        let resp = match self.live(key).map(|h| self.db.abort(h)) {
            Ok(Ok(())) => {
                self.txns.remove(&key);
                Response::Aborted
            }
            Ok(Err(e)) => self.session_error(key, e),
            Err(resp) => resp,
        };
        sink.reply(conn, req_id, &resp);
    }

    // ------------------------------------------------------- ops plane

    /// Build a fresh [`ServerStats`] snapshot. Read-only over the
    /// [`ShardedDb`]: aggregating counters, draining per-shard
    /// contention tallies, and cloning the sample ring — no transaction
    /// state is touched, which is what keeps `Stats` requests invisible
    /// to the data plane. The merged commit-latency histogram the
    /// percentiles were read from rides along, so the sampler does not
    /// ask every shard for it a second time.
    fn snapshot(&mut self) -> (ServerStats, Histogram) {
        let metrics = self.db.metrics();
        let gauges = self.db.gauges(8);
        let hist = gauges.commit_latency_ticks;
        let stats = ServerStats {
            uptime_ms: self.now.duration_since(self.started).as_millis() as u64,
            cc: self.db.cc_name().to_string(),
            num_vars: self.db.partition().num_vars() as u32,
            conns: self.conns.len() as u32,
            live_txns: self.txns.len() as u32,
            queue_depth: self.shared.queue_depth.load(Ordering::Relaxed) as u32,
            draining: self.deadline.is_some(),
            shards: self
                .db
                .shard_statuses()
                .iter()
                .map(|s| ShardHealth {
                    alive: s.alive,
                    down: s.down,
                    restarts: s.restarts,
                })
                .collect(),
            metrics,
            commit_p50_ticks: hist.quantile(0.5),
            commit_p99_ticks: hist.quantile(0.99),
            top_contended: gauges
                .top_contended
                .iter()
                .map(|v| ContendedVar {
                    var: v.var.0,
                    waits: v.waits as u64,
                    aborts: v.aborts as u64,
                })
                .collect(),
            sheds_pipeline: self.shared.sheds.pipeline.load(Ordering::Relaxed),
            sheds_queue: self.shared.sheds.queue.load(Ordering::Relaxed),
            sheds_txns: self.shared.sheds.txns.load(Ordering::Relaxed),
            trace_write_errors: self.db.trace_hub().map_or(0, |hub| hub.failed_writes()),
            series: self.series.iter().copied().collect(),
        };
        (stats, hist)
    }

    fn health(&mut self) -> HealthReport {
        let down = self.db.shards_down() as u32;
        HealthReport {
            degraded: down > 0,
            draining: self.deadline.is_some(),
            shards: self.db.partition().shards() as u32,
            shards_down: down,
        }
    }

    /// Refresh the `/healthz` flags. Runs every engine pass (a handful
    /// of atomic stores), and the accept thread runs a pass every 5 ms,
    /// so a shard crash flips the health endpoint within ~5 ms
    /// regardless of the sampler period.
    fn publish_health(&mut self) {
        let report = self.health();
        self.shared
            .degraded
            .store(report.degraded, Ordering::Relaxed);
        self.shared
            .draining
            .store(report.draining, Ordering::Relaxed);
        self.shared.shards.store(report.shards, Ordering::Relaxed);
        self.shared
            .shards_down
            .store(report.shards_down, Ordering::Relaxed);
    }

    /// The sampler: at the first pass at or past an interval boundary,
    /// snapshot, derive the window's [`SamplePoint`] from
    /// [`Metrics::diff`] and [`Histogram::diff`], push it into the bounded
    /// ring, and publish the snapshot for the HTTP listener.
    fn sample(&mut self) {
        if self.sample_interval.is_zero() || self.now < self.next_sample {
            return;
        }
        // One point per elapsed boundary would backfill idle periods
        // with zeros; one point per wakeup with a late timestamp keeps
        // the series honest instead.
        while self.next_sample <= self.now {
            self.next_sample += self.sample_interval;
        }
        let (snap, hist) = self.snapshot();
        let dm = snap.metrics.diff(&self.prev_metrics);
        let wire_sheds = snap.sheds_total();
        let point = SamplePoint {
            at_ms: snap.uptime_ms,
            interval_ms: self.sample_interval.as_millis() as u64,
            commits: dm.commits as u64,
            aborts: dm.aborts as u64,
            sheds: wire_sheds.saturating_sub(self.prev_wire_sheds),
            queue_depth: snap.queue_depth,
            live_txns: snap.live_txns,
            p99_ticks: hist.diff(&self.prev_hist).quantile(0.99),
        };
        self.prev_metrics = snap.metrics;
        self.prev_hist = hist;
        self.prev_wire_sheds = wire_sheds;
        if self.series.len() >= SAMPLE_RING {
            self.series.pop_front();
        }
        self.series.push_back(point);
        if self.stats_line {
            println!(
                "stats at_ms={} commits={} aborts={} sheds={} queue_depth={} \
                 live_txns={} p99_ticks={}",
                point.at_ms,
                point.commits,
                point.aborts,
                point.sheds,
                point.queue_depth,
                point.live_txns,
                point.p99_ticks
            );
        }
        let mut snap = snap;
        snap.series = self.series.iter().copied().collect();
        *self.shared.published.lock().expect("no publish panics") = Some(snap);
    }

    fn begin_drain(&mut self) {
        if self.deadline.is_none() {
            self.deadline = Some(self.now + self.grace);
            if self.tracer.is_on() {
                let t = self.tick;
                self.tracer.emit(t, EventKind::DrainStart);
            }
        }
    }

    /// The end of serving: unless `killed`, abort the stragglers, sync
    /// the logs and close the books. Returns what the server reports.
    pub(crate) fn close(&mut self, killed: bool) -> DrainStats {
        let mut stats = DrainStats {
            commits: self.commits,
            aborted_on_drain: 0,
            sheds_pipeline: self.shared.sheds.pipeline.load(Ordering::Relaxed),
            sheds_queue: self.shared.sheds.queue.load(Ordering::Relaxed),
            sheds_txns: self.shared.sheds.txns.load(Ordering::Relaxed),
            ..DrainStats::default()
        };
        if !killed {
            // In token order, as `conn_gone` aborts.
            let mut stragglers: Vec<(TxnKey, Live)> = self.txns.drain().collect();
            stragglers.sort_unstable_by_key(|&(key, _)| key);
            stats.aborted_on_drain = stragglers.len();
            for (_, live) in stragglers {
                let _ = self.db.abort(live.h);
            }
            if let Err(e) = self.db.sync() {
                stats.errors.push(format!("final log sync failed: {e}"));
            }
            if self.deadline.is_some() && self.tracer.is_on() {
                let t = self.tick;
                self.tracer.emit(t, EventKind::DrainDone);
            }
            if let Some(hub) = self.db.trace_hub() {
                if let Err(e) = hub.flush() {
                    stats.errors.push(format!("trace flush failed: {e}"));
                }
                let failed = hub.failed_writes();
                if failed > 0 {
                    stats.errors.push(format!("{failed} trace writes failed"));
                }
            }
        }
        stats
    }

    /// Record one `Wait` answer for `key` and fire the
    /// distributed-deadlock valve at [`WAIT_VALVE`] in a row: two wire
    /// clients in a cross-shard lock cycle would otherwise exchange
    /// `Wait` retries forever, because no shard-local deadlock detector
    /// can see the cycle. Firing force-restarts the transaction
    /// ([`ShardedDb::restart`]) and returns `true`: the client is told
    /// `Restarted`, which it already handles by replaying its program on
    /// the same token.
    fn waited(&mut self, key: TxnKey) -> bool {
        let Some(live) = self.txns.get_mut(&key) else {
            return false;
        };
        live.waits += 1;
        if live.waits < WAIT_VALVE {
            return false;
        }
        live.waits = 0;
        // Not restartable (already terminal): answer `Wait` and let the
        // client's next request surface the real state.
        self.db.restart(live.h).is_ok()
    }

    /// An outcome other than `Wait` ends `key`'s wait streak.
    fn reset_waits(&mut self, key: TxnKey) {
        if let Some(live) = self.txns.get_mut(&key) {
            live.waits = 0;
        }
    }

    /// Book `e`, met by `key`, and say what the client is told.
    fn session_error(&mut self, key: TxnKey, e: SessionError) -> Response {
        match e {
            SessionError::Stale => {
                self.txns.remove(&key);
                Response::Err {
                    code: ErrCode::UnknownTxn,
                    msg: "the transaction is gone".to_string(),
                }
            }
            SessionError::ShardDown => {
                // The transaction is dead; free the handle and the token.
                if let Some(live) = self.txns.remove(&key) {
                    let _ = self.db.abort(live.h);
                }
                Response::Err {
                    code: ErrCode::ShardDown,
                    msg: "owning shard crashed; begin a new transaction".to_string(),
                }
            }
            SessionError::AlreadyCommitted
            | SessionError::StillRunning
            | SessionError::Prepared => Response::Err {
                code: ErrCode::BadState,
                msg: e.to_string(),
            },
        }
    }
}

/// The answer to a request naming a token that is not live on its
/// connection.
fn unknown(token: u64) -> Response {
    Response::Err {
        code: ErrCode::UnknownTxn,
        msg: format!("no transaction {token}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{decode_response, encode_request, encode_response, read_frame, write_frame};
    use crate::Server;
    use ccopt_model::ids::VarId;
    use ccopt_model::value::Value;
    use ccopt_trace::{TraceConfig, TraceEvent};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use std::net::TcpStream;

    /// A sink that keeps every answer.
    impl Sink for Vec<(u64, u64, Response)> {
        fn reply(&mut self, conn: u64, req_id: u64, resp: &Response) {
            self.push((conn, req_id, resp.clone()));
        }
    }

    /// One connection to an engine, with no socket and a seeded clock:
    /// request ids and transaction tokens count up across passes, as a
    /// client's do, and every pass runs up to 2 ms after the last.
    struct Peer {
        eng: Engine,
        next_id: u64,
        next_txn: u64,
        now: Instant,
        clock: SmallRng,
    }

    impl Peer {
        /// A volatile engine configured as `cfg`, with connection 1 open.
        fn open(cfg: &ServerConfig) -> Peer {
            let kind = CcKind::from_name(&cfg.cc).expect("a known mechanism");
            let now = Instant::now();
            let eng =
                Engine::open(cfg, kind, Arc::default(), now).expect("a volatile engine opens");
            let mut peer = Peer {
                eng,
                next_id: 0,
                next_txn: 0,
                now,
                clock: SmallRng::seed_from_u64(49),
            };
            peer.pass(&[ToEngine::Conn { id: 1 }], &mut Vec::new());
            peer
        }

        /// One engine pass over `msgs`, a seeded step after the last one.
        /// `true` when serving is over.
        fn pass(&mut self, msgs: &[ToEngine], sink: &mut Vec<(u64, u64, Response)>) -> bool {
            self.now += Duration::from_micros(self.clock.gen_range(0..2_000));
            self.eng.pass(self.now, msgs, sink)
        }

        /// A one-shard engine running `cc`.
        fn one_shard(cc: &str) -> Peer {
            Peer::open(&ServerConfig {
                cc: cc.to_string(),
                shards: 1,
                ..ServerConfig::default()
            })
        }

        /// Run one engine pass over `reqs`, as the reader would queue
        /// them, and return their answers.
        fn ask(&mut self, reqs: Vec<Request>) -> Vec<Response> {
            let first = self.next_id;
            let msgs: Vec<ToEngine> = reqs
                .into_iter()
                .map(|req| {
                    self.eng.shared.queue_depth.fetch_add(1, Ordering::Relaxed);
                    self.next_id += 1;
                    ToEngine::Req {
                        conn: 1,
                        req_id: self.next_id - 1,
                        req,
                    }
                })
                .collect();
            let mut sink = Vec::new();
            self.pass(&msgs, &mut sink);
            let ids: Vec<(u64, u64)> = sink.iter().map(|&(conn, id, _)| (conn, id)).collect();
            let want: Vec<(u64, u64)> = (first..self.next_id).map(|id| (1, id)).collect();
            assert_eq!(ids, want, "one answer per request, in request order");
            sink.into_iter().map(|(_, _, resp)| resp).collect()
        }

        fn send(&mut self, req: Request) -> Response {
            self.ask(vec![req]).pop().expect("one answer")
        }

        /// Number the next transaction, as `Client::begin` does: it
        /// begins at its first request.
        fn begin(&mut self) -> u64 {
            self.next_txn += 1;
            self.next_txn
        }
    }

    fn batch(txn: u64, ops: Vec<BatchOp>, commit: bool) -> Request {
        Request::Batch { txn, ops, commit }
    }

    fn write(var: u32, x: i64) -> BatchOp {
        BatchOp::Write(VarId(var), Value::Int(x))
    }

    /// The answer to a batch whose first op waits (`Wait`) or whose
    /// transaction was restarted (`Restarted`), without a commit.
    fn stopped(outcome: BatchOutcome) -> Response {
        Response::Batch {
            results: vec![outcome],
            commit: None,
        }
    }

    #[test]
    fn a_zero_op_commit_behind_a_stopped_run_commits_on_its_own() {
        let mut peer = Peer::one_shard("strict-2PL");
        let (t1, t2) = (peer.begin(), peer.begin());
        let write = |x| vec![BatchOp::Write(VarId(0), Value::Int(x))];
        let held = peer.ask(vec![batch(t1, write(1), false)]);
        let done = vec![BatchOutcome::Done {
            value: Value::Int(0),
        }];
        assert_eq!(
            held,
            [Response::Batch {
                results: done,
                commit: None
            }]
        );
        // One pass: T2's write waits on T1's lock, which stops the
        // entry's run, so the group never attempts the commit behind it.
        // A zero-op request's own ops all ran, so its commit runs alone,
        // as a sequential commit would: T2 holds nothing, and commits.
        let answers = peer.ask(vec![batch(t2, write(2), false), batch(t2, vec![], true)]);
        assert_eq!(
            answers,
            [
                stopped(BatchOutcome::Wait),
                Response::Batch {
                    results: vec![],
                    commit: Some(BatchCommit::Committed),
                },
            ]
        );
        assert_eq!(peer.eng.commits, 1);
    }

    #[test]
    fn a_run_stopped_early_answers_every_later_request() {
        let mut peer = Peer::one_shard("strict-2PL");
        let (t1, t2) = (peer.begin(), peer.begin());
        peer.ask(vec![batch(t1, vec![write(0, 1)], false)]);
        // T2's first batch waits at its first op; the two requests behind
        // it in the same pass were never reached: each answers "resume
        // here", and neither's commit is attempted.
        let answers = peer.ask(vec![
            batch(t2, vec![write(0, 1), write(1, 1)], false),
            batch(t2, vec![write(2, 1)], false),
            batch(t2, vec![write(3, 1)], true),
        ]);
        let wait = stopped(BatchOutcome::Wait);
        assert_eq!(answers, [wait.clone(), wait.clone(), wait]);
        assert_eq!(peer.eng.commits, 0);
    }

    /// Send `req` `n` times; every answer must be `want`.
    fn repeat(peer: &mut Peer, n: u32, req: &Request, want: &Response) {
        for i in 1..=n {
            assert_eq!(
                &peer.send(req.clone()),
                want,
                "answer {i} of {n} to {req:?}"
            );
        }
    }

    #[test]
    fn the_valve_counts_batch_and_commit_waits_alike() {
        // Two shards put SGT in commit-order mode. T1 read x and T3 wrote
        // y; T2 wrote x after T1's read, so its commit waits for T1, and
        // its read of y waits for T3.
        let mut peer = Peer::open(&ServerConfig {
            cc: "SGT".to_string(),
            num_vars: 2,
            shards: 2,
            ..ServerConfig::default()
        });
        // Numbered in the order of their first requests.
        let (t1, t3, t2) = (peer.begin(), peer.begin(), peer.begin());
        let (x, y) = (VarId(0), VarId(1));
        assert_ne!(
            peer.eng.db.partition().shard_of(x),
            peer.eng.db.partition().shard_of(y)
        );
        peer.send(batch(t1, vec![BatchOp::Read(x)], false));
        peer.send(batch(t3, vec![write(y.0, 1)], false));
        peer.send(batch(t2, vec![write(x.0, 1)], false));
        let step = batch(t2, vec![BatchOp::Read(y)], false);
        let commit = batch(t2, vec![], true);
        let commit_answer = |outcome| Response::Batch {
            results: vec![],
            commit: Some(outcome),
        };
        // Half the streak from the step, half from the commit (a step
        // after a waiting commit is refused: the commit holds a vote).
        let half = WAIT_VALVE / 2;
        repeat(&mut peer, half, &step, &stopped(BatchOutcome::Wait));
        repeat(
            &mut peer,
            half - 1,
            &commit,
            &commit_answer(BatchCommit::Wait),
        );
        // The 24th wait in a row is a commit's: the valve fires.
        assert_eq!(peer.send(commit), commit_answer(BatchCommit::Restarted));
    }

    #[test]
    fn the_valve_fires_on_the_24th_wait_and_every_other_outcome_but_a_zero_op_batch_resets_it() {
        let mut peer = Peer::one_shard("strict-2PL");
        let wait = stopped(BatchOutcome::Wait);
        let restarted = stopped(BatchOutcome::Restarted);
        let (t1, t2, t3) = (peer.begin(), peer.begin(), peer.begin());
        // T1 holds x0, T2 holds x1, and T3 holds x2 and waits for T2 on x1.
        peer.send(batch(t1, vec![write(0, 1)], false));
        peer.send(batch(t2, vec![write(1, 1)], false));
        assert_eq!(
            peer.send(batch(t3, vec![write(2, 1), write(1, 2)], false)),
            {
                let done = BatchOutcome::Done {
                    value: Value::Int(0),
                };
                Response::Batch {
                    results: vec![done, BatchOutcome::Wait],
                    commit: None,
                }
            }
        );
        let blocked = batch(t2, vec![write(0, 2)], false);

        // Ten waits, then a deadlock restart by the mechanism: T2 asks for
        // x2, closing T2 -> T3 -> T2. That restart ends the streak.
        repeat(&mut peer, 10, &blocked, &wait);
        assert_eq!(peer.send(batch(t2, vec![write(2, 2)], false)), restarted);

        // 23 waits answer `Wait`; the 24th fires the valve.
        repeat(&mut peer, WAIT_VALVE - 1, &blocked, &wait);
        assert_eq!(peer.send(blocked.clone()), restarted);

        // The valve's own restart ends the streak too.
        repeat(&mut peer, WAIT_VALVE - 1, &blocked, &wait);
        // So does a batch whose every op runs `Done`.
        let free = batch(t2, vec![BatchOp::Read(VarId(3))], false);
        assert!(matches!(
            peer.send(free),
            Response::Batch { ref results, commit: None }
                if matches!(results[..], [BatchOutcome::Done { .. }])
        ));
        repeat(&mut peer, WAIT_VALVE - 1, &blocked, &wait);
        // A zero-op batch without a commit leaves it as it is: one more
        // wait is the 24th.
        let nothing = Response::Batch {
            results: vec![],
            commit: None,
        };
        assert_eq!(peer.send(batch(t2, vec![], false)), nothing);
        assert_eq!(peer.send(blocked), restarted);

        // A landed commit and an abort end their token: the next
        // transaction's streak starts at zero.
        let landed = peer.send(batch(t2, vec![], true));
        assert!(matches!(
            landed,
            Response::Batch {
                commit: Some(BatchCommit::Committed),
                ..
            }
        ));
        let t4 = peer.begin();
        let blocked = batch(t4, vec![write(0, 3)], false);
        repeat(&mut peer, WAIT_VALVE - 1, &blocked, &wait);
        assert_eq!(peer.send(Request::Abort { txn: t4 }), Response::Aborted);
        let t5 = peer.begin();
        let blocked = batch(t5, vec![write(0, 3)], false);
        repeat(&mut peer, WAIT_VALVE - 1, &blocked, &wait);
        assert_eq!(peer.send(blocked), restarted);
    }

    fn unknown_txn(resp: &Response) -> bool {
        matches!(
            resp,
            Response::Err {
                code: ErrCode::UnknownTxn,
                ..
            }
        )
    }

    fn done(x: i64) -> BatchOutcome {
        BatchOutcome::Done {
            value: Value::Int(x),
        }
    }

    #[test]
    fn a_conflict_free_commit_is_one_request_and_one_response() {
        let mut peer = Peer::one_shard("strict-2PL");
        let t = peer.begin();
        // `ask` checks one answer per request, in order.
        let answers = peer.ask(vec![batch(t, vec![write(0, 7), write(1, 8)], true)]);
        let committed = Response::Batch {
            results: vec![done(0), done(0)],
            commit: Some(BatchCommit::Committed),
        };
        assert_eq!(answers, [committed]);
        assert_eq!(peer.eng.commits, 1);
        assert!(peer.eng.txns.is_empty());
    }

    #[test]
    fn a_fresh_token_begins_and_a_finished_or_skipped_one_is_unknown() {
        let mut peer = Peer::one_shard("strict-2PL");
        let (t1, t2, t3) = (peer.begin(), peer.begin(), peer.begin());
        let held = Response::Batch {
            results: vec![done(0)],
            commit: None,
        };
        assert_eq!(peer.send(batch(t1, vec![write(0, 1)], false)), held);
        assert_eq!(peer.eng.txns.len(), 1, "the first request began T1");
        assert_eq!(peer.eng.conns[&1], t1);
        let landed = Response::Batch {
            results: vec![],
            commit: Some(BatchCommit::Committed),
        };
        assert_eq!(peer.send(batch(t1, vec![], true)), landed);
        // Finished: the token stays stale.
        assert!(unknown_txn(&peer.send(batch(t1, vec![write(0, 2)], false))));
        assert!(unknown_txn(&peer.send(Request::Abort { txn: t1 })));
        // T3's first request jumps the mark past T2, which never begins.
        assert_eq!(peer.send(batch(t3, vec![write(1, 1)], false)), held);
        assert!(unknown_txn(&peer.send(batch(t2, vec![write(2, 1)], true))));
        assert_eq!(peer.eng.txns.len(), 1);
        assert_eq!(peer.eng.conns[&1], t3);
    }

    #[test]
    fn a_fresh_token_while_draining_answers_draining_and_begins_nothing() {
        let mut peer = Peer::one_shard("strict-2PL");
        let (t1, t2) = (peer.begin(), peer.begin());
        peer.send(batch(t1, vec![write(0, 1)], false));
        peer.pass(&[ToEngine::Drain], &mut Vec::new());
        assert_eq!(
            peer.send(batch(t2, vec![write(1, 1)], true)),
            Response::Draining
        );
        assert_eq!(peer.send(Request::Abort { txn: t2 }), Response::Draining);
        assert_eq!(peer.eng.txns.len(), 1, "only T1 is live");
        assert_eq!(peer.eng.conns[&1], t1, "a refusal leaves the mark");
        // The transaction begun before the drain still finishes.
        let landed = peer.send(batch(t1, vec![], true));
        assert!(matches!(
            landed,
            Response::Batch {
                commit: Some(BatchCommit::Committed),
                ..
            }
        ));
        assert!(peer.pass(&[], &mut Vec::new()), "no transaction is left");
    }

    #[test]
    fn over_max_txns_the_first_request_is_shed_and_the_same_request_succeeds_later() {
        let mut peer = Peer::open(&ServerConfig {
            shards: 1,
            max_txns: 1,
            ..ServerConfig::default()
        });
        let (t1, t2) = (peer.begin(), peer.begin());
        peer.send(batch(t1, vec![write(0, 1)], false));
        let first = batch(t2, vec![write(1, 1)], true);
        assert_eq!(peer.send(first.clone()), Response::Shed);
        assert_eq!(peer.eng.shared.sheds.txns.load(Ordering::Relaxed), 1);
        assert_eq!(peer.eng.txns.len(), 1);
        assert_eq!(peer.eng.conns[&1], t1, "a shed leaves the mark");
        assert_eq!(peer.send(Request::Abort { txn: t1 }), Response::Aborted);
        let landed = Response::Batch {
            results: vec![done(0)],
            commit: Some(BatchCommit::Committed),
        };
        assert_eq!(peer.send(first), landed);
        assert_eq!(peer.eng.shared.sheds.txns.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn a_shed_first_request_skipped_by_a_later_token_is_unknown_and_renumbers() {
        let mut peer = Peer::open(&ServerConfig {
            shards: 1,
            max_txns: 1,
            ..ServerConfig::default()
        });
        let (t1, t2, t3) = (peer.begin(), peer.begin(), peer.begin());
        peer.send(batch(t1, vec![write(0, 1)], false));
        let shed = batch(t2, vec![write(1, 1)], true);
        assert_eq!(peer.send(shed), Response::Shed);
        peer.send(batch(t1, vec![], true));
        // A pipelining client's next token got in before the resend.
        let landed = Response::Batch {
            results: vec![done(0)],
            commit: Some(BatchCommit::Committed),
        };
        assert_eq!(peer.send(batch(t3, vec![write(2, 1)], true)), landed);
        assert!(unknown_txn(&peer.send(batch(t2, vec![write(1, 1)], true))));
        // Re-numbered with a new begin, the same program runs.
        let t4 = peer.begin();
        assert_eq!(peer.send(batch(t4, vec![write(1, 1)], true)), landed);
        assert_eq!(peer.eng.commits, 3);
    }

    #[test]
    fn a_malformed_first_request_begins_nothing() {
        let mut peer = Peer::one_shard("strict-2PL");
        let t = peer.begin();
        let outside = peer.eng.db.partition().num_vars() as u32;
        let bad = peer.send(batch(t, vec![write(0, 1), write(outside, 1)], true));
        assert!(matches!(
            bad,
            Response::Err {
                code: ErrCode::Malformed,
                ..
            }
        ));
        assert!(peer.eng.txns.is_empty());
        assert_eq!(peer.eng.conns[&1], 0);
        let held = Response::Batch {
            results: vec![done(0)],
            commit: None,
        };
        assert_eq!(peer.send(batch(t, vec![write(0, 1)], false)), held);
    }

    #[test]
    fn an_abort_on_a_fresh_token_answers_aborted_and_uses_the_token_up() {
        let mut peer = Peer::one_shard("strict-2PL");
        let t = peer.begin();
        assert_eq!(peer.send(Request::Abort { txn: t }), Response::Aborted);
        assert!(peer.eng.txns.is_empty());
        assert!(unknown_txn(&peer.send(batch(t, vec![write(0, 1)], true))));
    }

    /// One request from connection `conn`, in a pass of its own.
    fn ask_as(peer: &mut Peer, conn: u64, req: Request) -> Response {
        peer.eng.shared.queue_depth.fetch_add(1, Ordering::Relaxed);
        let mut sink = Vec::new();
        peer.pass(
            &[ToEngine::Req {
                conn,
                req_id: 0,
                req,
            }],
            &mut sink,
        );
        sink.pop().expect("one answer").2
    }

    /// Two connections open ten transactions each, one variable apiece
    /// across both shards; connection 1 goes away, then the engine
    /// closes with connection 2's transactions still open. Returns the
    /// whole trace.
    fn orphans_and_stragglers() -> Vec<TraceEvent> {
        let mut peer = Peer::open(&ServerConfig {
            num_vars: 20,
            shards: 2,
            trace: Some(TraceConfig::ring(1 << 12)),
            ..ServerConfig::default()
        });
        peer.pass(&[ToEngine::Conn { id: 2 }], &mut Vec::new());
        for (conn, vars) in [(1, 0..10), (2, 10..20)] {
            for (txn, var) in (1..).zip(vars) {
                let ran = ask_as(&mut peer, conn, batch(txn, vec![write(var, 1)], false));
                assert!(matches!(ran, Response::Batch { ref results, .. }
                    if matches!(results[..], [BatchOutcome::Done { .. }])));
            }
        }
        peer.pass(&[ToEngine::Gone { id: 1 }], &mut Vec::new());
        let eng = &mut peer.eng;
        assert_eq!(eng.txns.len(), 10, "connection 1's orphans are aborted");
        assert_eq!(eng.close(false).aborted_on_drain, 10);
        let trace = eng.db.trace_hub().expect("traced").merged_events();
        let aborts = trace
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Abort { .. }))
            .count();
        assert_eq!(aborts, 20, "every open transaction was aborted");
        trace
    }

    #[test]
    fn orphans_and_stragglers_are_aborted_in_token_order() {
        // Each engine's maps hash with a seed of their own: an abort
        // order taken from a map differs between the two runs.
        assert_eq!(orphans_and_stragglers(), orphans_and_stragglers());
    }

    /// Drive `peer` through a seeded script on a two-shard hot set and
    /// return every `(request, answer)` in order: a cross-shard lock
    /// cycle only the valve breaks, then seeded first requests, one-op
    /// and multi-op batches (read, write, affine; some with a commit,
    /// some zero-op), aborts, pings, `Stats` and `Health` requests and
    /// requests naming a finished or never-begun token, and last an
    /// abort of whatever is still live.
    fn seeded_script(peer: &mut Peer, seed: u64) -> Vec<(Request, Response)> {
        let mut log = Vec::new();
        let mut send = |peer: &mut Peer, req: Request| {
            let resp = peer.send(req.clone());
            log.push((req, resp.clone()));
            resp
        };
        let part = peer.eng.db.partition().clone();
        let x = part.shard_vars(0)[0].0;
        let y = part.shard_vars(1)[0].0;
        let (a, b) = (peer.begin(), peer.begin());
        send(peer, batch(a, vec![write(x, 1)], false));
        send(peer, batch(b, vec![write(y, 1)], false));
        // A holds x and waits for y, B holds y and waits for x: neither
        // shard sees the cycle, and they retry until the valve restarts A.
        while send(peer, batch(a, vec![write(y, 2)], false)) != stopped(BatchOutcome::Restarted) {
            send(peer, batch(b, vec![write(x, 2)], false));
        }
        send(peer, batch(b, vec![write(x, 2)], true));
        let replay = vec![
            write(x, 3),
            BatchOp::Affine {
                var: VarId(y),
                a: 2,
                c: 1,
            },
        ];
        send(peer, batch(a, replay, true));

        let mut rng = SmallRng::seed_from_u64(seed);
        let num_vars = part.num_vars() as u32;
        let mut live: Vec<u64> = Vec::new();
        for _ in 0..400 {
            let roll = rng.gen_range(0..100u32);
            // A fresh token's first request, a batch, begins it.
            let fresh = live.is_empty() || (roll < 12 && live.len() < 4);
            let txn = if fresh {
                live.push(peer.begin());
                peer.next_txn
            } else {
                live[rng.gen_range(0..live.len())]
            };
            let req = if !fresh && roll < 16 {
                Request::Abort { txn }
            } else if !fresh && roll < 18 {
                Request::Ping
            } else if !fresh && roll < 19 {
                Request::Stats
            } else if !fresh && roll < 20 {
                Request::Health
            } else if !fresh && roll < 24 {
                // Token 0 is never begun; a finished one stays finished.
                let stale = rng.gen_range(0..=peer.next_txn);
                let stale = if live.contains(&stale) { 0 } else { stale };
                batch(stale, vec![BatchOp::Read(VarId(0))], rng.gen_bool(0.5))
            } else {
                let ops = (0..rng.gen_range(0..=3usize))
                    .map(|_| {
                        let var = VarId(rng.gen_range(0..num_vars));
                        match rng.gen_range(0..3u32) {
                            0 => BatchOp::Read(var),
                            1 => BatchOp::Write(var, Value::Int(rng.gen_range(0..100i64))),
                            _ => BatchOp::Affine {
                                var,
                                a: rng.gen_range(1..3i64),
                                c: rng.gen_range(0..5i64),
                            },
                        }
                    })
                    .collect();
                batch(txn, ops, rng.gen_bool(0.25))
            };
            match send(peer, req) {
                Response::Aborted
                | Response::Batch {
                    commit: Some(BatchCommit::Committed),
                    ..
                } => live.retain(|&t| t != txn),
                _ => {}
            }
        }
        for txn in live {
            send(peer, Request::Abort { txn });
        }
        log
    }

    #[test]
    fn a_seeded_script_on_a_seeded_clock_gets_the_same_bytes_from_two_fresh_engines() {
        // A 3 ms sampler on passes up to 2 ms apart: `Stats` answers carry
        // uptimes and sample points, so they are a function of the clock.
        let cfg = ServerConfig {
            cc: "strict-2PL".to_string(),
            num_vars: 4,
            shards: 2,
            sample_interval: Duration::from_millis(3),
            ..ServerConfig::default()
        };
        let run = || {
            let mut peer = Peer::open(&cfg);
            let log = seeded_script(&mut peer, 49);
            (0..)
                .zip(&log)
                .map(|(req_id, (_, resp))| encode_response(req_id, resp))
                .collect::<Vec<_>>()
        };
        let (first, second) = (run(), run());
        assert_eq!(first.len(), second.len());
        for (req_id, (a, b)) in first.iter().zip(&second).enumerate() {
            assert_eq!(a, b, "answer {req_id}: {:?}", decode_response(a));
        }
        let answers = || {
            first
                .iter()
                .map(|bytes| decode_response(bytes).expect("decodes").1)
        };
        assert!(answers().any(|resp| matches!(resp, Response::Health { .. })));
        assert!(answers().any(|resp| matches!(
            resp,
            Response::Stats { ref stats } if stats.uptime_ms > 0 && !stats.series.is_empty()
        )));
    }

    #[test]
    fn a_seeded_script_gets_the_same_bytes_from_the_engine_and_from_a_served_connection() {
        let cfg = ServerConfig {
            cc: "strict-2PL".to_string(),
            num_vars: 4,
            shards: 2,
            ..ServerConfig::default()
        };
        let mut peer = Peer::open(&cfg);
        let log = seeded_script(&mut peer, 45);

        // The script reaches what it is for.
        let answers = || log.iter().map(|(_, resp)| resp);
        let batch_results = || {
            answers().flat_map(|resp| match resp {
                Response::Batch { results, .. } => results.clone(),
                _ => Vec::new(),
            })
        };
        let commits = |outcome: BatchCommit| {
            answers()
                .filter(
                    |resp| matches!(resp, Response::Batch { commit: Some(c), .. } if *c == outcome),
                )
                .count()
        };
        assert!(batch_results().filter(|o| *o == BatchOutcome::Wait).count() > 10);
        assert!(batch_results().any(|o| o == BatchOutcome::Restarted));
        assert!(commits(BatchCommit::Committed) > 5);
        assert!(answers().any(|resp| *resp == Response::Aborted));
        assert!(answers().any(|resp| matches!(
            resp,
            Response::Err {
                code: ErrCode::UnknownTxn,
                ..
            }
        )));

        // The same script, one request at a time, over a real connection.
        let server = Server::start(cfg).expect("a volatile server starts");
        let mut conn = TcpStream::connect(server.local_addr()).expect("connect");
        for (req_id, (req, resp)) in (0..).zip(&log) {
            write_frame(&mut conn, &encode_request(req_id, req)).expect("send");
            let served = read_frame(&mut conn).expect("read").expect("an answer");
            // A real server's `Stats` reports the host's uptime and queue
            // depth, not the script's clock: only its kind is compared.
            // Two engines on one clock agree on its bytes too (the test
            // above).
            if *req == Request::Stats {
                let stats = decode_response(&served).expect("decodes").1;
                assert!(matches!(stats, Response::Stats { .. }), "{stats:?}");
                continue;
            }
            assert_eq!(
                served,
                encode_response(req_id, resp),
                "request {req_id} ({req:?}): served {:?}, engine {resp:?}",
                decode_response(&served)
            );
        }
        drop(conn);
        let stats = server.shutdown().expect("drain");
        assert_eq!(stats.commits, peer.eng.commits);
        assert_eq!(stats.aborted_on_drain, 0);
    }

    #[test]
    fn a_drain_with_a_straggler_ends_at_the_first_pass_at_its_deadline() {
        let grace = Duration::from_millis(100);
        let mut peer = Peer::open(&ServerConfig {
            shards: 1,
            drain_grace: grace,
            ..ServerConfig::default()
        });
        let t = peer.begin();
        peer.send(batch(t, vec![write(0, 1)], false));
        let mut pass = |at, msgs: &[ToEngine]| peer.eng.pass(at, msgs, &mut Vec::new());
        let start = peer.now + Duration::from_millis(1);
        assert!(!pass(start, &[ToEngine::Drain]), "the straggler is live");
        for early in [Duration::from_millis(50), grace - Duration::from_nanos(1)] {
            assert!(!pass(start + early, &[]), "{early:?} into the grace");
        }
        assert!(pass(start + grace, &[]), "the deadline ends the drain");
        assert_eq!(peer.eng.close(false).aborted_on_drain, 1);
    }

    #[test]
    fn the_sampler_takes_one_point_per_late_pass_and_keeps_the_newest() {
        let cfg = ServerConfig {
            shards: 1,
            sample_interval: Duration::from_millis(10),
            ..ServerConfig::default()
        };
        let t0 = Instant::now();
        let kind = CcKind::from_name(&cfg.cc).expect("a known mechanism");
        let mut eng =
            Engine::open(&cfg, kind, Arc::default(), t0).expect("a volatile engine opens");
        // The ring's `at_ms` after one empty pass `ms` after the start.
        let mut at = |ms: u64| {
            eng.pass(t0 + Duration::from_millis(ms), &[], &mut Vec::new());
            eng.series.iter().map(|p| p.at_ms).collect::<Vec<_>>()
        };
        assert_eq!(at(9), [] as [u64; 0]);
        assert_eq!(at(10), [10]);
        assert_eq!(at(19), [10]);
        // Idle for five intervals: one point, no backfill, and the next
        // boundary is the first one after it.
        assert_eq!(at(60), [10, 60]);
        assert_eq!(at(69), [10, 60]);
        assert_eq!(at(75), [10, 60, 75]);
        let ring = SAMPLE_RING as u64;
        for k in 1..ring {
            at(75 + 10 * k);
        }
        let last = at(75 + 10 * ring);
        assert_eq!(last.len(), SAMPLE_RING, "the ring is full");
        assert_eq!(last[0], 85, "the oldest three points went first");
        assert_eq!(last[SAMPLE_RING - 1], 75 + 10 * ring);
        let published = eng
            .shared
            .published
            .lock()
            .unwrap()
            .clone()
            .expect("published");
        assert_eq!(published.uptime_ms, 75 + 10 * ring);
        assert_eq!(published.series.len(), SAMPLE_RING);
    }
}
