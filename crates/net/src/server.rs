//! The TCP front-end: connection handling, request pipelining, admission
//! control, and graceful drain over a [`ShardedDb`].
//!
//! # Threads
//!
//! One **accept** thread polls the listener; each connection gets one
//! **reader** thread (decode frames, admission-check, forward to the
//! engine). The engine has no thread of its own. It sits, with the
//! receiving end of its one bounded request queue, behind a **combining
//! lock** (`Core`): a thread that has just queued a message takes the
//! lock if it is free, drains the queue, runs one pass over what it
//! holds, lets go, and checks the queue again; a thread that finds the
//! lock taken goes straight back to `read`, and the holder runs its
//! message. The accept thread's 5 ms poll is the engine's clock: each
//! turn runs a pass too, which reads the kill flag, ends a drain whose
//! grace expired, feeds the sampler and refreshes the `/healthz` flags.
//! [`Server::start`] builds the engine — parse the mechanism, open or
//! recover the logs, attach the trace plane, publish the first stats
//! snapshot — on its caller's thread, so every start-up error is a plain
//! `Err` returned before any `ccopt-net-*` thread exists: a failed
//! `start` leaves no thread and no bound port behind. (The database's
//! shards own no thread; a durable database's logs each start at most one
//! `ccopt-wal-sync` thread, at their first overlapped fsync, joined when
//! the engine drops.) The per-connection threads — readers, drainers, subscription
//! pumps — are registered as they spawn (finished ones are reaped at the
//! next spawn), and [`Server::shutdown`], [`Server::kill`] and drop join
//! every one: when they return, no `ccopt-net-*` thread of the server is
//! left. All transaction work arrives as [`Request::Batch`] frames (a
//! single operation is a batch of one, a plain commit a batch of none),
//! and everything one pass drains, across transactions and connections,
//! is submitted as one [`ShardedDb::submit_group`] call, so pipelining
//! clients amortize the per-operation shard message (a lone request is
//! a group of one).
//!
//! Responses leave on the thread that made them. Each connection has an
//! **outbox** — a buffer of framed bytes plus the write half of the
//! socket — into which the engine encodes every response as it is
//! decided, and which it flushes once per connection at the end of the
//! pass with a single `write`: the responses to a pipelined burst share
//! one syscall, and a round trip crosses no thread but the reader that
//! brought it (or the one holding the engine). The engine never waits on
//! a client: that `write` is one
//! attempt, bounded by a send timeout of a scheduler tick, and what a
//! full socket would not take stays in the outbox for an on-demand
//! **drainer** thread that blocks in the engine's stead until the buffer
//! is empty, then exits. While a drainer owns the socket the engine only
//! appends. The reader's own answers (`Shed`, `Malformed`) and the
//! subscription pumps go through the same outbox and block in the same
//! drain routine themselves, so frames never interleave and there is one
//! write routine.
//!
//! # Admission control
//!
//! Three bounded layers, each answering [`Response::Shed`] (or the
//! equivalent) instead of queueing unboundedly:
//!
//! 1. **per-connection pipeline cap** — at most `pipeline` requests may
//!    be awaiting responses on one connection; excess requests are shed
//!    by the reader thread without ever reaching the engine. A request
//!    stops counting when the kernel has accepted its whole response, so
//!    this also bounds every outbox exactly: at most `pipeline`
//!    undelivered responses, plus the one `Shed` its reader is blocked
//!    delivering — a peer that does not read its responses stops being
//!    read from.
//! 2. **engine queue** — one bounded channel in front of the engine;
//!    readers `try_send` and shed on overflow.
//! 3. **transaction cap** — `Begin` is shed when `max_txns`
//!    transactions are live.
//!
//! # Drain
//!
//! [`Server::shutdown`] (or a wire [`Request::Shutdown`]) starts a
//! drain: new transactions are refused with [`Response::Draining`],
//! in-flight transactions get a grace period to finish, stragglers are
//! aborted, the logs are synced, and `DrainStart`/`DrainDone` trace
//! events bracket the whole episode. [`Server::kill`] is the opposite:
//! drop everything without a final sync — the crash the durability tests
//! recover from.
//!
//! # Ops plane
//!
//! The running server is introspectable without perturbing the data
//! plane:
//!
//! * [`Request::Stats`] / [`Request::Health`] answer a structured
//!   [`ServerStats`] snapshot / [`HealthReport`] computed fresh by the
//!   engine (read-only — no transaction state changes);
//! * a **sampler** run by the engine's passes snapshots [`Metrics::diff`]
//!   every [`ServerConfig::sample_interval`] into a bounded time-series
//!   ring of [`SamplePoint`]s (commits/s, shed rate, queue depth,
//!   windowed p99), carried in every snapshot;
//! * [`ServerConfig::metrics_addr`] starts a dependency-free HTTP
//!   listener serving the Prometheus text exposition at `/metrics` and
//!   liveness at `/healthz` (503 `degraded` while any shard is down);
//! * [`Request::Subscribe`] streams schema-valid JSONL trace events to
//!   the connection through a bounded per-subscriber ring
//!   ([`ServerConfig::subscriber_ring`]) that **drops and counts**
//!   instead of ever back-pressuring the engine: a pump thread forwards
//!   one bounded round of events at a time and blocks until the kernel
//!   has taken it, so a subscriber that never reads costs the engine one
//!   failed length check per event.

use crate::error::{FrameError, ServerError};
use crate::frame::{
    decode_request, frame_response_into, read_frame, BatchCommit, BatchOutcome, ErrCode, Request,
    Response,
};
use crate::stats::{
    render_prometheus, ContendedVar, HealthReport, SamplePoint, ServerStats, ShardHealth,
};
use ccopt_durability::DurabilityMode;
use ccopt_engine::{
    BatchOp, CcKind, GlobalTxn, GroupReq, GroupResp, Metrics, Op, SessionError, ShardedDb,
};
use ccopt_model::state::GlobalState;
use ccopt_trace::{EventKind, Histogram, TraceConfig, TraceSubscription, Tracer};
use std::collections::{HashMap, VecDeque};
use std::io::{BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{fence, AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, TryLockError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Capacity of the sampler's time-series ring (oldest points are evicted
/// first): six minutes at the default one-second interval.
const SAMPLE_RING: usize = 360;

/// Ceiling on trace events delivered per second per subscriber. The
/// subscription is a sampled observability stream, not a replication
/// log: pacing the pump bounds the CPU the ops plane can take from the
/// data plane on a saturated box, and the overflow shows up honestly in
/// the in-stream dropped count.
const SUBSCRIBER_RATE: usize = 10_000;

/// Server configuration. `Default` is a volatile single-machine setup
/// bound to an ephemeral localhost port.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address (`"127.0.0.1:0"` picks an ephemeral port).
    pub addr: String,
    /// Concurrency-control mechanism, by canonical name
    /// ([`ccopt_engine::MECHANISM_NAMES`]).
    pub cc: String,
    /// Size of the variable universe (requests naming a variable outside
    /// `0..num_vars` are refused as malformed).
    pub num_vars: usize,
    /// Shard count.
    pub shards: usize,
    /// Data directory for the write-ahead logs; `None` runs volatile.
    pub dir: Option<PathBuf>,
    /// Durability mode of the shard logs (ignored when `dir` is `None`).
    pub mode: DurabilityMode,
    /// Admission cap: maximum simultaneously live transactions; `Begin`
    /// beyond it is shed.
    pub max_txns: usize,
    /// Admission cap: maximum in-flight (unanswered) requests per
    /// connection; excess requests are shed by the reader thread.
    pub pipeline: usize,
    /// Admission cap: bound of the engine's request queue; overflow is
    /// shed by the reader thread.
    pub queue: usize,
    /// Trace configuration; the server adds its network-plane events to
    /// the same hub the engine traces through.
    pub trace: Option<TraceConfig>,
    /// How long a drain waits for in-flight transactions before aborting
    /// the stragglers.
    pub drain_grace: Duration,
    /// The distributed-deadlock valve: after this many *consecutive*
    /// `Wait` answers, the transaction is force-restarted
    /// ([`ShardedDb::restart`]) and the client told [`Response::
    /// Restarted`]. Cross-shard wait cycles are invisible to every
    /// shard-local deadlock detector, so without this a pair of wire
    /// clients can ping-pong `Wait` retries forever. 0 disables it.
    pub wait_valve: u32,
    /// Bind address of the ops-plane HTTP listener (`/metrics`,
    /// `/healthz`); `None` (the default) serves no HTTP.
    pub metrics_addr: Option<String>,
    /// Sampler period: the first engine pass after each interval
    /// boundary (the accept thread runs one every 5 ms) snapshots
    /// [`Metrics::diff`] into the time-series ring. `Duration::ZERO`
    /// disables the sampler (the true ops-off baseline).
    pub sample_interval: Duration,
    /// Capacity of each trace subscriber's ring. When a subscriber's
    /// connection cannot keep up, events beyond this bound are dropped
    /// and counted — never queued against the engine.
    pub subscriber_ring: usize,
    /// Print a machine-parseable `stats ...` line on stdout at every
    /// sampler tick (the `--stats-interval` flag; off by default).
    pub stats_line: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            cc: "strict-2PL".to_string(),
            num_vars: 64,
            shards: 4,
            dir: None,
            mode: DurabilityMode::None,
            max_txns: 256,
            pipeline: 64,
            queue: 1024,
            trace: None,
            drain_grace: Duration::from_secs(2),
            wait_valve: 24,
            metrics_addr: None,
            sample_interval: Duration::from_secs(1),
            subscriber_ring: 4096,
            stats_line: false,
        }
    }
}

/// What a finished server reports.
#[derive(Clone, Copy, Debug, Default)]
pub struct DrainStats {
    /// Transactions committed over the server's lifetime.
    pub commits: u64,
    /// Transactions still live when the drain grace expired, aborted to
    /// finish the drain.
    pub aborted_on_drain: usize,
    /// Requests shed by the per-connection pipeline cap.
    pub sheds_pipeline: u64,
    /// Requests shed by the bounded engine queue.
    pub sheds_queue: u64,
    /// `Begin`s shed by the live-transaction budget.
    pub sheds_txns: u64,
}

impl DrainStats {
    /// Requests refused by admission control, all three layers combined.
    pub fn sheds(&self) -> u64 {
        self.sheds_pipeline + self.sheds_queue + self.sheds_txns
    }
}

/// Per-admission-layer shed counters, shared by the reader threads (the
/// pipeline and queue layers) and the engine (the transaction budget).
/// The ledger invariant `pipeline + queue + txns == total` holds by
/// construction: there is no combined counter to drift.
#[derive(Debug, Default)]
struct ShedCounters {
    pipeline: AtomicU64,
    queue: AtomicU64,
    txns: AtomicU64,
}

/// What the engine publishes for the ops-plane HTTP listener: the last
/// sampler snapshot (for `/metrics`) plus health flags refreshed every
/// engine pass (for `/healthz`, which must flip within
/// milliseconds of a shard crash regardless of the sampler period).
#[derive(Default)]
struct OpsShared {
    published: Mutex<Option<ServerStats>>,
    degraded: AtomicBool,
    draining: AtomicBool,
    shards: AtomicU32,
    shards_down: AtomicU32,
}

/// How long one `write` may wait on a full socket before returning a
/// short count or `WouldBlock` — the bound on the engine's single flush
/// attempt. The kernel rounds it up to a scheduler tick. Set once on the
/// accepted stream: every clone shares the option, and only writes see it.
const WRITE_TICK: Duration = Duration::from_millis(1);

/// One connection's response path: framed bytes the kernel has not yet
/// accepted, plus the write half of the socket.
///
/// Every response — the engine's, the reader's `Shed` / `Malformed`
/// answers, a subscription pump's `Events` — is encoded and framed
/// straight into `buf` under the lock, so frames never interleave, and
/// exactly one thread writes the socket at a time: whoever holds the
/// lock inside [`flush_once`](Outbox::flush_once), or the one **drainer**
/// that set `busy`. The engine only ever makes the one bounded attempt of
/// `flush_once`; blocking until the peer reads is for everyone else.
struct Outbox {
    stream: TcpStream,
    state: Mutex<OutState>,
    /// Signalled when a drainer lets go of the socket.
    idle: Condvar,
}

#[derive(Default)]
struct OutState {
    /// Framed bytes; `buf[..sent]` the kernel already has.
    buf: Vec<u8>,
    sent: usize,
    /// One entry per frame with unaccepted bytes, oldest first: how many
    /// of its bytes are left, and whether it answers a request (and so
    /// returns pipeline credit once the kernel has all of it).
    frames: VecDeque<(usize, bool)>,
    /// Requests read off this connection whose responses the kernel has
    /// not accepted yet: admission layer 1 compares it to `pipeline`.
    inflight: usize,
    /// A drainer owns the socket; everyone else only appends.
    busy: bool,
    /// A write failed: the connection is gone, responses are dropped.
    dead: bool,
}

impl OutState {
    /// The kernel accepted the next `n` bytes: return the pipeline
    /// credit of every reply frame that is now wholly out.
    fn accepted(&mut self, mut n: usize) {
        while let Some((left, reply)) = self.frames.front_mut() {
            if n < *left {
                *left -= n;
                return;
            }
            n -= *left;
            if *reply {
                self.inflight -= 1;
            }
            self.frames.pop_front();
        }
    }
}

impl Outbox {
    fn new(stream: TcpStream) -> Outbox {
        Outbox {
            stream,
            state: Mutex::default(),
            idle: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, OutState> {
        self.state.lock().expect("outbox mutex poisoned")
    }

    /// Count one request read off the connection; `false` when that puts
    /// it over the `pipeline` cap. The lock makes the count exact against
    /// a flush in progress: credit for a response the client has already
    /// seen is back before its next request is judged.
    fn admit(&self, pipeline: usize) -> bool {
        let mut st = self.lock();
        st.inflight += 1;
        st.inflight <= pipeline
    }

    /// Frame one response into the buffer. `reply` frames answer a
    /// counted request; subscription events do not. Returns `true` when
    /// these are the first pending bytes of an unowned outbox — the
    /// caller then owes it a flush.
    fn push(&self, req_id: u64, resp: &Response, reply: bool) -> bool {
        let mut st = self.lock();
        if st.dead {
            return false;
        }
        let first = st.buf.is_empty() && !st.busy;
        let len = frame_response_into(&mut st.buf, req_id, resp);
        st.frames.push_back((len, reply));
        first
    }

    /// The engine's flush: **one** write attempt, bounded by
    /// [`WRITE_TICK`], and none at all while a drainer owns the socket.
    /// Returns `true` when bytes are left over: the outbox is then marked
    /// owned on behalf of the drainer the caller must start
    /// ([`drain_owned`](Outbox::drain_owned)).
    fn flush_once(&self) -> bool {
        let mut st = self.lock();
        if st.busy || st.dead || st.buf.is_empty() {
            return false;
        }
        let from = st.sent;
        match (&self.stream).write(&st.buf[from..]) {
            Ok(n) => {
                st.sent += n;
                st.accepted(n);
            }
            Err(e) if stalled(&e) => {}
            Err(_) => {
                self.die(&mut st);
                return false;
            }
        }
        if st.sent == st.buf.len() {
            st.buf.clear();
            st.sent = 0;
            return false;
        }
        st.busy = true;
        true
    }

    /// Push one response and block until the kernel has everything in
    /// the outbox — the reader's and the pumps' send. `false` when the
    /// connection is gone.
    fn send(&self, req_id: u64, resp: &Response, reply: bool) -> bool {
        self.push(req_id, resp, reply);
        let mut st = self.lock();
        while st.busy {
            st = self.idle.wait(st).expect("outbox mutex poisoned");
        }
        st.busy = true;
        drop(st);
        self.drain_owned()
    }

    /// The drainer: write until the buffer is empty, sleeping in the
    /// kernel while the peer does not read, then give the socket back.
    /// The caller has set `busy`. The lock is held only to take the next
    /// chunk and to book accepted bytes, so the engine keeps appending
    /// throughout. Returns `false` when the connection is gone.
    fn drain_owned(&self) -> bool {
        let mut chunk = Vec::new();
        let mut st = self.lock();
        while !st.dead && !st.buf.is_empty() {
            std::mem::swap(&mut chunk, &mut st.buf);
            let mut from = std::mem::take(&mut st.sent);
            drop(st);
            let mut failed = false;
            while from < chunk.len() && !failed {
                match (&self.stream).write(&chunk[from..]) {
                    Ok(0) => failed = true,
                    Ok(n) => {
                        from += n;
                        self.lock().accepted(n);
                    }
                    Err(e) if stalled(&e) => {}
                    Err(_) => failed = true,
                }
            }
            chunk.clear();
            st = self.lock();
            if failed {
                self.die(&mut st);
            }
        }
        st.busy = false;
        self.idle.notify_all();
        !st.dead
    }

    /// A write failed (or no drainer could be started): drop what is
    /// buffered, release whoever waits for the socket, and close it so
    /// the reader notices and reports the connection gone.
    fn die(&self, st: &mut OutState) {
        st.dead = true;
        st.busy = false;
        st.buf = Vec::new();
        st.frames.clear();
        self.idle.notify_all();
        let _ = self.stream.shutdown(Shutdown::Both);
    }
}

/// The write made no progress only because the peer is not reading (or a
/// signal arrived): try again.
fn stalled(e: &std::io::Error) -> bool {
    use std::io::ErrorKind::{Interrupted, TimedOut, WouldBlock};
    matches!(e.kind(), WouldBlock | TimedOut | Interrupted)
}

/// The server's per-connection threads — readers, drainers, subscription
/// pumps — which come and go while it runs, registered so that
/// [`Server::join`] can wait for every one of them.
#[derive(Clone, Default)]
struct Threads(Arc<Mutex<Vec<JoinHandle<()>>>>);

impl Threads {
    /// Spawn a thread named `name` and register it. Finished threads are
    /// reaped first, so connection churn keeps the registry as long as
    /// the live threads, not the server's history.
    fn spawn(&self, name: String, body: impl FnOnce() + Send + 'static) -> std::io::Result<()> {
        let handle = std::thread::Builder::new().name(name).spawn(body)?;
        let mut live = self.0.lock().expect("no registry update panics");
        for done in live.extract_if(.., |h| h.is_finished()) {
            let _ = done.join();
        }
        live.push(handle);
        Ok(())
    }

    /// Join every registered thread. Their sockets must already be shut
    /// down and nothing may spawn more.
    fn join_all(&self) {
        let live = std::mem::take(&mut *self.0.lock().expect("no registry update panics"));
        for h in live {
            let _ = h.join();
        }
    }
}

// ------------------------------------------------------------- messages

enum ToEngine {
    /// A connection opened; `out` is its response outbox.
    Conn { id: u64, out: Arc<Outbox> },
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
    /// Fault injection: panic shard `s`'s worker (see
    /// [`Server::panic_shard`]).
    PanicShard(usize),
}

// ------------------------------------------------------- combining lock

/// The engine behind its combining lock, and the queue in front of it.
///
/// Whoever queues a message runs [`combine`](Core::combine) next, so the
/// engine runs on the thread that brought the request whenever no other
/// thread holds it. The one message that could be stranded is a
/// sender's whose `try_lock` lost to a holder that was already letting
/// go; `pending` closes that gap. A sender counts its message in before
/// sending it, and a holder, once unlocked, reads the count again and
/// takes the lock back while it is non-zero. A `SeqCst` fence on each
/// side — the sender's between its count and its `try_lock`, the
/// holder's between its unlock and its re-read — makes at least one of
/// them see the other: the sender finds the lock free, or the holder
/// finds the count.
struct Core {
    /// The engine and the receiving end of its queue; `None` once the
    /// server has finished.
    run: Mutex<Option<Running>>,
    tx: SyncSender<ToEngine>,
    /// Messages counted in by their senders that no pass has received.
    pending: AtomicUsize,
    /// [`Server::kill`]: the next pass stops without syncing.
    kill: AtomicBool,
}

/// What the lock holder runs: the engine, its queue, and where the end
/// of serving is reported.
struct Running {
    eng: Engine,
    rx: Receiver<ToEngine>,
    done_tx: mpsc::Sender<DrainStats>,
    /// Every connection's outbox, so the end of serving can close them.
    conns: Arc<Mutex<HashMap<u64, Arc<Outbox>>>>,
    /// The messages of the pass in progress.
    batch: Vec<ToEngine>,
}

impl Core {
    /// The sender protocol: count `msg` in, then queue it, refusing a
    /// full queue; a refused message is counted out again. The caller
    /// runs [`combine`](Core::combine) after a successful send.
    fn try_send(&self, msg: ToEngine) -> Result<(), TrySendError<ToEngine>> {
        self.pending.fetch_add(1, Ordering::SeqCst);
        let sent = self.tx.try_send(msg);
        if sent.is_err() {
            self.pending.fetch_sub(1, Ordering::SeqCst);
        }
        sent
    }

    /// [`try_send`](Core::try_send), blocking while the queue is full
    /// (a holder is then draining it: the queued messages are counted
    /// in). `false` once the server has finished.
    fn send(&self, msg: ToEngine) -> bool {
        self.pending.fetch_add(1, Ordering::SeqCst);
        let sent = self.tx.send(msg).is_ok();
        if !sent {
            self.pending.fetch_sub(1, Ordering::SeqCst);
        }
        sent
    }

    /// Run the engine if no other thread holds it: pass after pass
    /// while messages are pending, then return. A taken lock returns at
    /// once — its holder runs what was queued. A pass that panicked
    /// leaves the lock poisoned: the engine is dropped, so readers see
    /// a disconnected queue and [`Server::shutdown`] reports
    /// [`ServerError::Stopped`].
    fn combine(&self) {
        fence(Ordering::SeqCst);
        loop {
            let mut held = match self.run.try_lock() {
                Ok(held) => held,
                Err(TryLockError::WouldBlock) => return,
                Err(TryLockError::Poisoned(poisoned)) => {
                    drop(poisoned.into_inner().take());
                    return;
                }
            };
            let Some(run) = held.as_mut() else {
                return;
            };
            if run.pass(&self.pending, &self.kill) {
                let run = held.take().expect("the engine ran this pass");
                run.finish(self.kill.load(Ordering::SeqCst));
                return;
            }
            if !self.let_go(held) {
                return;
            }
        }
    }

    /// Unlock the engine, then say whether a message is pending: its
    /// sender may have lost the `try_lock` to this holder, which then
    /// takes the engine back.
    fn let_go(&self, held: MutexGuard<'_, Option<Running>>) -> bool {
        drop(held);
        fence(Ordering::SeqCst);
        self.pending.load(Ordering::SeqCst) > 0
    }
}

impl Running {
    /// One turn of the engine: drain up to 256 queued messages, process
    /// them as one pass, publish health, sample. `true` when serving is
    /// over: killed, or draining with no transaction left or the grace
    /// expired.
    fn pass(&mut self, pending: &AtomicUsize, kill: &AtomicBool) -> bool {
        if kill.load(Ordering::SeqCst) {
            return true;
        }
        while self.batch.len() < 256 {
            match self.rx.try_recv() {
                Ok(m) => self.batch.push(m),
                Err(_) => break,
            }
        }
        pending.fetch_sub(self.batch.len(), Ordering::SeqCst);
        self.eng.process(&self.batch);
        self.batch.clear();
        self.eng.publish_health();
        self.eng.maybe_sample();
        let eng = &self.eng;
        eng.draining && (eng.txns.is_empty() || eng.deadline.is_none_or(|d| Instant::now() >= d))
    }

    /// The end of serving: stop the pumps, abort the stragglers and sync
    /// the logs (unless `killed`), close every connection and report.
    fn finish(self, killed: bool) {
        let Running {
            mut eng,
            done_tx,
            conns,
            ..
        } = self;
        // Stop every subscription pump before tearing the engine down.
        for entries in eng.subs.values() {
            for e in entries {
                e.stop.store(true, Ordering::SeqCst);
            }
        }

        let mut stats = DrainStats {
            commits: eng.commits,
            aborted_on_drain: 0,
            sheds_pipeline: eng.sheds.pipeline.load(Ordering::Relaxed),
            sheds_queue: eng.sheds.queue.load(Ordering::Relaxed),
            sheds_txns: eng.sheds.txns.load(Ordering::Relaxed),
        };
        if !killed {
            // Abort stragglers, sync the logs, close the books.
            let leftovers: Vec<GlobalTxn> = eng.txns.values().map(|&(h, _)| h).collect();
            stats.aborted_on_drain = leftovers.len();
            for h in leftovers {
                let _ = eng.db.abort(h);
            }
            eng.txns.clear();
            eng.waits.clear();
            let _ = eng.db.sync();
            if eng.draining && eng.tracer.is_on() {
                let t = eng.tick;
                eng.tracer.emit(t, EventKind::DrainDone);
            }
            if let Some(hub) = eng.db.trace_hub() {
                hub.flush();
            }
        }
        // Wake every connection so its threads exit.
        eng.stop.store(true, Ordering::SeqCst);
        for (_, out) in conns.lock().unwrap().drain() {
            let _ = out.stream.shutdown(Shutdown::Both);
        }
        let _ = done_tx.send(stats);
        // `killed` drops the database without the sync above: the
        // write-ahead logs close mid-stream, which is the crash the
        // recovery path serves.
    }
}

// --------------------------------------------------------------- server

/// A running server. Dropping it without calling
/// [`shutdown`](Server::shutdown) / [`kill`](Server::kill) kills it.
pub struct Server {
    addr: SocketAddr,
    metrics_addr: Option<SocketAddr>,
    core: Arc<Core>,
    done_rx: Receiver<DrainStats>,
    stop: Arc<AtomicBool>,
    conns: Arc<Mutex<HashMap<u64, Arc<Outbox>>>>,
    accept: Option<JoinHandle<()>>,
    ops_http: Option<JoinHandle<()>>,
    threads: Threads,
}

impl Server {
    /// Bind, open (or recover) the engine, and start serving. Fails
    /// synchronously on an unknown mechanism, a bind error, a log that
    /// does not recover, or a trace sink that does not open — and every
    /// fallible step runs on the calling thread before the first thread
    /// is spawned, so an `Err` leaves nothing behind: no thread, no bound
    /// port.
    pub fn start(cfg: ServerConfig) -> Result<Server, ServerError> {
        let Some(kind) = CcKind::from_name(&cfg.cc) else {
            return Err(ServerError::UnknownMechanism(cfg.cc));
        };
        let listener = TcpListener::bind(&cfg.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;

        // The ops-plane HTTP listener binds synchronously too: a bad
        // `--metrics-addr` fails `start`, not the first scrape.
        let ops_listener = match &cfg.metrics_addr {
            Some(a) => {
                let l = TcpListener::bind(a)?;
                l.set_nonblocking(true)?;
                Some(l)
            }
            None => None,
        };
        let metrics_addr = match &ops_listener {
            Some(l) => Some(l.local_addr()?),
            None => None,
        };

        let (tx, rx) = mpsc::sync_channel::<ToEngine>(cfg.queue.max(1));
        let (done_tx, done_rx) = mpsc::channel::<DrainStats>();
        let stop = Arc::new(AtomicBool::new(false));
        let sheds = Arc::new(ShedCounters::default());
        let conns = Arc::new(Mutex::new(HashMap::new()));
        let queue_depth = Arc::new(AtomicUsize::new(0));
        let threads = Threads::default();
        let ops = Arc::new(OpsShared {
            shards: AtomicU32::new(cfg.shards as u32),
            ..OpsShared::default()
        });

        // Engine startup (recovery included) happens here, on the
        // caller's thread: a log that does not open fails `start`, not
        // the first request. This is the last fallible step.
        let eng = Engine::open(
            &cfg,
            kind,
            Arc::clone(&sheds),
            Arc::clone(&stop),
            Arc::clone(&ops),
            Arc::clone(&queue_depth),
            threads.clone(),
        )?;

        let ops_http = ops_listener.map(|l| {
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name("ccopt-net-ops".to_string())
                .spawn(move || ops_http_thread(l, ops, stop))
                .expect("spawn ops http thread")
        });

        let core = Arc::new(Core {
            run: Mutex::new(Some(Running {
                eng,
                rx,
                done_tx,
                conns: Arc::clone(&conns),
                batch: Vec::with_capacity(256),
            })),
            tx,
            pending: AtomicUsize::new(0),
            kill: AtomicBool::new(false),
        });

        let accept = {
            let core = Arc::clone(&core);
            let stop = Arc::clone(&stop);
            let conns = Arc::clone(&conns);
            let queue_depth = Arc::clone(&queue_depth);
            let threads = threads.clone();
            let pipeline = cfg.pipeline.max(1);
            std::thread::Builder::new()
                .name("ccopt-net-accept".to_string())
                .spawn(move || {
                    accept_thread(
                        listener,
                        core,
                        stop,
                        sheds,
                        conns,
                        pipeline,
                        queue_depth,
                        threads,
                    )
                })
                .expect("spawn accept thread")
        };

        Ok(Server {
            addr,
            metrics_addr,
            core,
            done_rx,
            stop,
            conns,
            accept: Some(accept),
            ops_http,
            threads,
        })
    }

    /// The bound address (with the ephemeral port resolved).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The bound address of the ops-plane HTTP listener, when
    /// [`ServerConfig::metrics_addr`] was set.
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.metrics_addr
    }

    /// Fault injection (tests): panic shard `s`'s worker from the
    /// engine, exactly as [`ShardedDb::panic_shard`] does in-process —
    /// the shard dies mid-flight and supervision kicks in at its next
    /// touch. This is how the ops-plane tests flip `/healthz` to
    /// degraded mid-run.
    pub fn panic_shard(&self, s: usize) {
        self.core.send(ToEngine::PanicShard(s));
        self.core.combine();
    }

    /// Gracefully drain and stop: refuse new transactions, give
    /// in-flight ones the configured grace, abort stragglers, sync the
    /// logs, close every connection.
    pub fn shutdown(mut self) -> Result<DrainStats, ServerError> {
        self.core.send(ToEngine::Drain);
        self.core.combine();
        let stats = self.done_rx.recv().map_err(|_| ServerError::Stopped)?;
        self.join();
        Ok(stats)
    }

    /// Block until the server stops on its own (a wire
    /// [`Request::Shutdown`] drained it). This is what the `ccopt-server`
    /// binary parks on.
    pub fn wait(mut self) -> Result<DrainStats, ServerError> {
        let stats = self.done_rx.recv().map_err(|_| ServerError::Stopped)?;
        self.join();
        Ok(stats)
    }

    /// Simulated crash: stop immediately **without** a final log sync —
    /// exactly the fate committed transactions must survive under
    /// [`DurabilityMode::Strict`]. In-flight work is abandoned.
    pub fn kill(self) {
        drop(self); // dropping a running server is the kill
    }

    /// Stop and join every server thread: once this returns, no
    /// `ccopt-net-*` thread of this server is left.
    fn join(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // The accept thread first, so no connection registers behind the
        // shutdown below.
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        for (_, out) in self.conns.lock().unwrap().drain() {
            let _ = out.stream.shutdown(Shutdown::Both);
        }
        if let Some(h) = self.ops_http.take() {
            let _ = h.join();
        }
        // Every socket is shut down and nothing spawns any more: the
        // readers, drainers and pumps are on their way out (and the one
        // that finished the engine has dropped it).
        self.threads.join_all();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if self.accept.is_some() {
            // The pass this runs reads the flag; when another thread
            // holds the engine, its next pass (or the accept thread's
            // next turn) does.
            self.core.kill.store(true, Ordering::SeqCst);
            self.core.combine();
            let _ = self.done_rx.recv();
            self.join();
        }
    }
}

// --------------------------------------------------------- accept plane

#[allow(clippy::too_many_arguments)]
fn accept_thread(
    listener: TcpListener,
    core: Arc<Core>,
    stop: Arc<AtomicBool>,
    sheds: Arc<ShedCounters>,
    conns: Arc<Mutex<HashMap<u64, Arc<Outbox>>>>,
    pipeline: usize,
    queue_depth: Arc<AtomicUsize>,
    threads: Threads,
) {
    let mut next_id = 0u64;
    while !stop.load(Ordering::SeqCst) {
        // The engine's clock: a pass per turn reads the kill flag, ends
        // an expired drain, samples and refreshes `/healthz` even when
        // no request arrives. A held engine is doing all that already.
        core.combine();
        match listener.accept() {
            Ok((stream, _)) => {
                next_id += 1;
                let id = next_id;
                let _ = stream.set_nodelay(true);
                let _ = stream.set_write_timeout(Some(WRITE_TICK));
                let Ok(write_half) = stream.try_clone() else {
                    continue;
                };
                let out = Arc::new(Outbox::new(write_half));
                // Registration order matters: the engine must learn of
                // the connection before any of its requests.
                let hello = ToEngine::Conn {
                    id,
                    out: Arc::clone(&out),
                };
                if !core.send(hello) {
                    return; // engine gone; stop accepting
                }
                conns.lock().unwrap().insert(id, Arc::clone(&out));
                let core = Arc::clone(&core);
                let sheds = Arc::clone(&sheds);
                let conns = Arc::clone(&conns);
                let queue_depth = Arc::clone(&queue_depth);
                let _ = threads.spawn(format!("ccopt-net-r{id}"), move || {
                    reader_thread(stream, id, &core, out, pipeline, sheds, queue_depth);
                    conns.lock().unwrap().remove(&id);
                });
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
}

/// Decode frames, admission-check, forward — and run the engine over
/// what is queued when no other thread holds it. Every accepted request
/// produces exactly one response; the outbox's in-flight count goes up
/// here and down when the kernel has accepted that response, so
/// `pipeline` bounds both the engine's exposure to this connection and
/// the outbox length. The reader's own answers (`Shed`, `Malformed`) are
/// sent blocking: a peer that will not read its responses stops being
/// read from.
fn reader_thread(
    stream: TcpStream,
    id: u64,
    core: &Core,
    out: Arc<Outbox>,
    pipeline: usize,
    sheds: Arc<ShedCounters>,
    queue_depth: Arc<AtomicUsize>,
) {
    // One `read` per frame, and per pipelined burst, instead of a header
    // read plus a payload read.
    let mut stream = BufReader::new(stream);
    loop {
        let payload = match read_frame(&mut stream) {
            Ok(Some(p)) => p,
            Ok(None) => break, // clean close
            Err(FrameError::Io(_)) | Err(FrameError::Wire(_)) => break,
        };
        let (req_id, req) = match decode_request(&payload) {
            Ok(r) => r,
            Err(_) => {
                // The frame was intact (CRC passed) but the payload does
                // not decode. Answer when the request id is recoverable
                // (opcode byte + 8 id bytes), else close: "always answer
                // or close cleanly".
                if payload.len() >= 9 {
                    let req_id = u64::from_le_bytes(payload[1..9].try_into().unwrap());
                    out.admit(pipeline);
                    let resp = Response::Err {
                        code: ErrCode::Malformed,
                        msg: "request payload does not decode".to_string(),
                    };
                    if out.send(req_id, &resp, true) {
                        continue;
                    }
                }
                break;
            }
        };
        if !out.admit(pipeline) {
            sheds.pipeline.fetch_add(1, Ordering::Relaxed);
            if !out.send(req_id, &Response::Shed, true) {
                break;
            }
            continue;
        }
        // Count the request into the queue-depth gauge BEFORE the send:
        // once `try_send` succeeds the engine may dequeue (and decrement)
        // immediately, and add-after-send would let the gauge transiently
        // wrap below zero. A refused send undoes the increment.
        queue_depth.fetch_add(1, Ordering::Relaxed);
        match core.try_send(ToEngine::Req {
            conn: id,
            req_id,
            req,
        }) {
            Ok(()) => core.combine(),
            Err(TrySendError::Full(_)) => {
                queue_depth.fetch_sub(1, Ordering::Relaxed);
                sheds.queue.fetch_add(1, Ordering::Relaxed);
                if !out.send(req_id, &Response::Shed, true) {
                    break;
                }
            }
            Err(TrySendError::Disconnected(_)) => break,
        }
    }
    let _ = stream.get_ref().shutdown(Shutdown::Both);
    core.send(ToEngine::Gone { id });
    core.combine();
}

// --------------------------------------------------------- engine plane

/// One live trace subscription owned by a connection: the hub-side id
/// (to unsubscribe) and the stop flag its pump thread polls.
struct SubEntry {
    hub_id: u64,
    stop: Arc<AtomicBool>,
}

struct Engine {
    db: ShardedDb,
    tracer: Tracer,
    conns: HashMap<u64, Arc<Outbox>>,
    /// Outboxes this pass put their first pending bytes into: each is
    /// owed one flush when the pass ends.
    unflushed: Vec<Arc<Outbox>>,
    /// token -> (engine handle, owning connection)
    txns: HashMap<u64, (GlobalTxn, u64)>,
    /// token -> consecutive `Wait` answers (valve input; reset by any
    /// other outcome, fires [`ShardedDb::restart`] at `wait_valve`).
    waits: HashMap<u64, u32>,
    /// See [`ServerConfig::wait_valve`].
    wait_valve: u32,
    next_token: u64,
    max_txns: usize,
    num_vars: u32,
    sheds: Arc<ShedCounters>,
    commits: u64,
    /// Engine "tick" for trace timestamps: one per processed message.
    tick: u64,
    draining: bool,
    deadline: Option<Instant>,
    grace: Duration,
    // ---- ops plane ----
    cc_name: String,
    shards: usize,
    started: Instant,
    /// Live trace subscriptions by owning connection.
    subs: HashMap<u64, Vec<SubEntry>>,
    subscriber_ring: usize,
    /// Global stop flag, shared with pump threads.
    stop: Arc<AtomicBool>,
    ops: Arc<OpsShared>,
    queue_depth: Arc<AtomicUsize>,
    /// Where drainers and subscription pumps are registered.
    threads: Threads,
    sample_interval: Duration,
    next_sample: Instant,
    prev_metrics: Metrics,
    prev_hist: Histogram,
    prev_wire_sheds: u64,
    series: VecDeque<SamplePoint>,
    stats_line: bool,
}

/// The engine is built by [`Server::start`] on its caller's thread and
/// then run by whichever thread holds the combining lock.
const _: () = {
    const fn assert_send<T: Send + 'static>() {}
    assert_send::<Engine>()
};

impl Engine {
    /// Open (or recover) the database, attach the trace plane and build
    /// the engine around it, with a baseline snapshot already published
    /// so `/metrics` answers from the first scrape.
    fn open(
        cfg: &ServerConfig,
        kind: CcKind,
        sheds: Arc<ShedCounters>,
        stop: Arc<AtomicBool>,
        ops: Arc<OpsShared>,
        queue_depth: Arc<AtomicUsize>,
        threads: Threads,
    ) -> Result<Engine, ServerError> {
        let init = GlobalState::from_ints(&vec![0; cfg.num_vars]);
        let mut db = match &cfg.dir {
            Some(dir) => ShardedDb::open(kind, init, dir, cfg.mode, cfg.shards, cfg.max_txns)?,
            None => ShardedDb::with_capacity(kind, init, cfg.shards, cfg.max_txns),
        };
        let mut tracer = Tracer::off();
        if let Some(tc) = &cfg.trace {
            db.set_trace(tc)?;
            // The server plane emits as shard id S+1 (one past the
            // coordinator's S), so merged traces stay totally ordered.
            if let Some(hub) = db.trace_hub() {
                tracer = hub.tracer(cfg.shards as u32 + 1);
            }
        }
        let now = Instant::now();
        let mut eng = Engine {
            db,
            tracer,
            conns: HashMap::new(),
            unflushed: Vec::new(),
            txns: HashMap::new(),
            waits: HashMap::new(),
            wait_valve: cfg.wait_valve,
            next_token: 0,
            max_txns: cfg.max_txns.max(1),
            num_vars: cfg.num_vars as u32,
            sheds,
            commits: 0,
            tick: 0,
            draining: false,
            deadline: None,
            grace: cfg.drain_grace,
            cc_name: cfg.cc.clone(),
            shards: cfg.shards,
            started: now,
            subs: HashMap::new(),
            subscriber_ring: cfg.subscriber_ring.max(1),
            stop,
            ops,
            queue_depth,
            threads,
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
        *eng.ops.published.lock().unwrap() = Some(first);
        eng.publish_health();
        Ok(eng)
    }
}

/// One transaction's accumulated work inside a drain pass, on its way
/// into a [`ShardedDb::submit_group`] call: the ops of its pipelined
/// `Batch` requests, concatenated in arrival order, with each request's
/// run kept as `(req_id, n)` so it gets its own answer back.
struct PendEntry {
    conn: u64,
    token: u64,
    runs: Vec<(u64, usize)>,
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
    index: HashMap<(u64, u64), usize>,
}

impl Engine {
    fn process(&mut self, msgs: &[ToEngine]) {
        // Group submit: accumulate every transaction's batches across
        // the whole drained pass — across connections — and hand them to
        // the engine as ONE `submit_group` call per flush, so independent
        // transactions share shard messages instead of paying a round
        // trip each.
        // Requests that only read engine-adjacent state (`Ping`,
        // `Begin`, `Stats`, `Health`) interleave without flushing;
        // anything that mutates transaction or server lifecycle state
        // (aborts, drains, faults, subscriptions, dead connections) is a
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
                    self.queue_depth.fetch_sub(1, Ordering::Relaxed);
                    match *req {
                        Request::Batch {
                            txn,
                            ref ops,
                            commit,
                        } => self.enqueue(&mut pending, (conn, req_id), txn, ops, commit),
                        Request::Ping => self.respond(conn, req_id, &Response::Pong),
                        Request::Begin => self.begin_txn(conn, req_id),
                        Request::Stats => {
                            let stats = Box::new(self.snapshot().0);
                            self.respond(conn, req_id, &Response::Stats { stats });
                        }
                        Request::Health => {
                            let report = self.health();
                            self.respond(conn, req_id, &Response::Health { report });
                        }
                        Request::Abort { txn } => {
                            self.flush_group(&mut pending);
                            self.abort_txn(conn, req_id, txn);
                        }
                        Request::Shutdown => {
                            self.flush_group(&mut pending);
                            self.respond(conn, req_id, &Response::Draining);
                            self.begin_drain();
                        }
                        Request::Subscribe => {
                            self.flush_group(&mut pending);
                            self.subscribe(conn, req_id);
                        }
                    }
                }
                ToEngine::Conn { id, out } => {
                    self.conns.insert(*id, out.clone());
                    if self.tracer.is_on() {
                        let t = self.tick;
                        self.tracer.emit(t, EventKind::ConnAccept { conn: *id });
                    }
                }
                ToEngine::Gone { id } => {
                    self.flush_group(&mut pending);
                    self.conn_gone(*id);
                }
                ToEngine::Drain => {
                    self.flush_group(&mut pending);
                    self.begin_drain();
                }
                ToEngine::PanicShard(s) => {
                    self.flush_group(&mut pending);
                    if *s < self.shards {
                        self.db.panic_shard(*s);
                    }
                }
            }
        }
        self.flush_group(&mut pending);
        self.flush_outboxes();
    }

    /// End of a pass: every connection answered during it gets its
    /// responses in one coalesced `write`. The engine never waits on a
    /// client — what a full socket would not take is left to a drainer
    /// thread that lives until the outbox is empty.
    fn flush_outboxes(&mut self) {
        for out in self.unflushed.drain(..) {
            if out.flush_once() {
                let owned = Arc::clone(&out);
                let spawned = self.threads.spawn("ccopt-net-drain".to_string(), move || {
                    owned.drain_owned();
                });
                if spawned.is_err() {
                    out.die(&mut out.lock());
                }
            }
        }
    }

    /// Append one `Batch` — `ops` of transaction `token`, then its commit
    /// if `commit`, asked by `(conn, req_id)` — to the pass's pending
    /// group.
    fn enqueue(
        &mut self,
        pending: &mut Pending,
        (conn, req_id): (u64, u64),
        token: u64,
        ops: &[BatchOp],
        commit: bool,
    ) {
        // Malformed variable ids are refused before anything reaches a
        // shard, for the whole request (its contract: one response,
        // never per-op errors).
        if let Some(op) = ops.iter().find(|op| op.var().0 >= self.num_vars) {
            let msg = format!("variable {} outside 0..{}", op.var().0, self.num_vars);
            self.respond(
                conn,
                req_id,
                &Response::Err {
                    code: ErrCode::Malformed,
                    msg,
                },
            );
            return;
        }
        if let Some(&ix) = pending.index.get(&(conn, token)) {
            if pending.entries[ix].commit_req.is_some() {
                // Pipelined past a commit: what this request means
                // depends on that commit's outcome, so the group
                // flushes and the request starts a fresh entry.
                self.flush_group(pending);
            }
        }
        let ix = match pending.index.get(&(conn, token)) {
            Some(&ix) => ix,
            None => {
                pending.entries.push(PendEntry {
                    conn,
                    token,
                    runs: Vec::new(),
                    ops: Vec::new(),
                    commit_req: None,
                });
                let ix = pending.entries.len() - 1;
                pending.index.insert((conn, token), ix);
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
    fn flush_group(&mut self, pending: &mut Pending) {
        if pending.entries.is_empty() {
            return;
        }
        let entries = std::mem::take(&mut pending.entries);
        pending.index.clear();
        let mut reqs: Vec<GroupReq> = Vec::with_capacity(entries.len());
        let mut live: Vec<(PendEntry, GlobalTxn)> = Vec::with_capacity(entries.len());
        for e in entries {
            let Some(h) = self.owned(e.conn, e.token) else {
                for &(req_id, _) in &e.runs {
                    self.unknown(e.conn, req_id, e.token);
                }
                continue;
            };
            reqs.push(GroupReq {
                h,
                ops: e.ops.clone(),
                commit: e.commit_req.is_some(),
            });
            live.push((e, h));
        }
        let resps = self.db.submit_group(reqs);
        debug_assert_eq!(resps.len(), live.len());
        for ((e, h), resp) in live.into_iter().zip(resps) {
            self.settle(&e, h, resp);
        }
    }

    /// Answer every request of one settled [`PendEntry`].
    fn settle(&mut self, e: &PendEntry, h: GlobalTxn, resp: GroupResp) {
        let (conn, token) = (e.conn, e.token);
        let results = match resp.results {
            Ok(results) => results,
            Err(err) => {
                // The whole entry failed before any op ran (stale
                // handle, shard down, prepared): every request it
                // carried gets the mapped error.
                for &(req_id, _) in &e.runs {
                    self.session_error(conn, req_id, token, err);
                }
                return;
            }
        };
        // What a request the run stopped in (or before) answers. Once per
        // entry: a trailing `Wait` feeds the distributed-deadlock valve,
        // which may turn the whole answer into `Restarted`.
        let trailing = match results.last() {
            Some(Op::Wait) if self.waited(token, h) => BatchOutcome::Restarted,
            Some(Op::Wait) => BatchOutcome::Wait,
            Some(Op::Restarted) => {
                self.waits.remove(&token);
                BatchOutcome::Restarted
            }
            Some(Op::Done(_)) if results.len() == e.ops.len() => {
                self.waits.remove(&token);
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
                    Ok(c) => Some(self.commit_outcome(token, h, c)),
                    Err(err) => {
                        self.session_error(conn, req_id, token, err);
                        continue;
                    }
                }
            } else {
                None
            };
            self.respond(
                conn,
                req_id,
                &Response::Batch {
                    results: outs,
                    commit,
                },
            );
        }
    }

    /// Book one commit outcome of `token` — a landed commit drops the
    /// token and counts, a `Wait` feeds the valve (which may turn it into
    /// a restart), a restart clears the wait streak — and say what the
    /// client is told.
    fn commit_outcome(&mut self, token: u64, h: GlobalTxn, c: Op<()>) -> BatchCommit {
        match c {
            Op::Done(()) => {
                self.txns.remove(&token);
                self.waits.remove(&token);
                self.commits += 1;
                BatchCommit::Committed
            }
            Op::Wait if self.waited(token, h) => BatchCommit::Restarted,
            Op::Wait => BatchCommit::Wait,
            Op::Restarted => {
                self.waits.remove(&token);
                BatchCommit::Restarted
            }
        }
    }

    /// A connection closed: abort its transactions and end its trace
    /// subscriptions.
    fn conn_gone(&mut self, id: u64) {
        // A dead connection's transactions are aborted: nobody can ever
        // speak for their tokens again.
        let orphans: Vec<u64> = self
            .txns
            .iter()
            .filter(|(_, (_, c))| *c == id)
            .map(|(&tok, _)| tok)
            .collect();
        for tok in orphans {
            if let Some((h, _)) = self.txns.remove(&tok) {
                self.waits.remove(&tok);
                let _ = self.db.abort(h);
            }
        }
        // Its trace subscriptions end with it: detach from the hub (emit
        // stops immediately) and stop the pumps.
        if let Some(entries) = self.subs.remove(&id) {
            for e in entries {
                if let Some(hub) = self.db.trace_hub() {
                    hub.unsubscribe(e.hub_id);
                }
                e.stop.store(true, Ordering::SeqCst);
                if self.tracer.is_on() {
                    let t = self.tick;
                    self.tracer.emit(t, EventKind::SubscribeEnd { conn: id });
                }
            }
        }
        self.conns.remove(&id);
        if self.tracer.is_on() {
            let t = self.tick;
            self.tracer.emit(t, EventKind::ConnClose { conn: id });
        }
    }

    /// The engine handle behind `token`, when `conn` owns it. Tokens are
    /// sequential, so a connection can name another's live transaction;
    /// only the connection that began it may speak for it.
    fn owned(&self, conn: u64, token: u64) -> Option<GlobalTxn> {
        match self.txns.get(&token) {
            Some(&(h, owner)) if owner == conn => Some(h),
            _ => None,
        }
    }

    fn begin_txn(&mut self, conn: u64, req_id: u64) {
        if self.draining {
            self.respond(conn, req_id, &Response::Draining);
        } else if self.txns.len() >= self.max_txns {
            self.sheds.txns.fetch_add(1, Ordering::Relaxed);
            if self.tracer.is_on() {
                let t = self.tick;
                self.tracer.emit(t, EventKind::RequestShed { conn });
            }
            self.respond(conn, req_id, &Response::Shed);
        } else {
            let h = self.db.begin();
            self.next_token += 1;
            let token = self.next_token;
            self.txns.insert(token, (h, conn));
            self.respond(conn, req_id, &Response::Began { txn: token });
        }
    }

    fn abort_txn(&mut self, conn: u64, req_id: u64, token: u64) {
        let Some(h) = self.owned(conn, token) else {
            self.unknown(conn, req_id, token);
            return;
        };
        match self.db.abort(h) {
            Ok(()) => {
                self.txns.remove(&token);
                self.waits.remove(&token);
                self.respond(conn, req_id, &Response::Aborted);
            }
            Err(e) => self.session_error(conn, req_id, token, e),
        }
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
        let (subscribers, sub_dropped) = match self.db.trace_hub() {
            Some(hub) => (hub.subscriber_count() as u32, hub.subscribers_dropped()),
            None => (0, 0),
        };
        let stats = ServerStats {
            uptime_ms: self.started.elapsed().as_millis() as u64,
            cc: self.cc_name.clone(),
            num_vars: self.num_vars,
            conns: self.conns.len() as u32,
            live_txns: self.txns.len() as u32,
            queue_depth: self.queue_depth.load(Ordering::Relaxed) as u32,
            draining: self.draining,
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
            sheds_pipeline: self.sheds.pipeline.load(Ordering::Relaxed),
            sheds_queue: self.sheds.queue.load(Ordering::Relaxed),
            sheds_txns: self.sheds.txns.load(Ordering::Relaxed),
            subscribers,
            sub_dropped,
            series: self.series.iter().copied().collect(),
        };
        (stats, hist)
    }

    fn health(&mut self) -> HealthReport {
        let statuses = self.db.shard_statuses();
        let down = statuses.iter().filter(|s| s.down || !s.alive).count() as u32;
        HealthReport {
            degraded: down > 0,
            draining: self.draining,
            shards: statuses.len() as u32,
            shards_down: down,
        }
    }

    /// Refresh the `/healthz` flags. Runs every engine pass (a handful
    /// of atomic stores), and the accept thread runs a pass every 5 ms,
    /// so a shard crash flips the health endpoint within ~5 ms
    /// regardless of the sampler period.
    fn publish_health(&mut self) {
        let report = self.health();
        self.ops.degraded.store(report.degraded, Ordering::Relaxed);
        self.ops.draining.store(report.draining, Ordering::Relaxed);
        self.ops.shards.store(report.shards, Ordering::Relaxed);
        self.ops
            .shards_down
            .store(report.shards_down, Ordering::Relaxed);
    }

    /// The sampler: at every interval boundary, snapshot, derive the
    /// window's [`SamplePoint`] from [`Metrics::diff`] and
    /// [`Histogram::diff`], push it into the bounded ring, and publish
    /// the snapshot for the HTTP listener.
    fn maybe_sample(&mut self) {
        if self.sample_interval.is_zero() {
            return;
        }
        let now = Instant::now();
        if now < self.next_sample {
            return;
        }
        // One point per elapsed boundary would backfill idle periods
        // with zeros; one point per wakeup with a late timestamp keeps
        // the series honest instead.
        while self.next_sample <= now {
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
        *self.ops.published.lock().unwrap() = Some(snap);
    }

    /// Handle [`Request::Subscribe`]: attach a bounded ring to the trace
    /// hub (creating a sink-less hub if the server runs untraced) and
    /// spawn a pump thread ([`subscription_pump`]) that forwards buffered
    /// events to the connection, blocking in [`Outbox::send`] — never the
    /// engine — while the subscriber is slow.
    fn subscribe(&mut self, conn: u64, req_id: u64) {
        if self.draining {
            self.respond(conn, req_id, &Response::Draining);
            return;
        }
        let Some(out) = self.conns.get(&conn).cloned() else {
            return;
        };
        if self.db.trace_hub().is_none() {
            // A default config has no sink and a zero-capacity flight
            // recorder: the hub exists only to fan events out to
            // subscribers. PR 7's differential suite proved traced and
            // untraced runs behaviorally identical, so flipping tracing
            // on here does not perturb the data plane.
            if self.db.set_trace(&TraceConfig::default()).is_err() {
                self.respond(
                    conn,
                    req_id,
                    &Response::Err {
                        code: ErrCode::BadState,
                        msg: "tracing could not be enabled".to_string(),
                    },
                );
                return;
            }
            if let Some(hub) = self.db.trace_hub() {
                self.tracer = hub.tracer(self.shards as u32 + 1);
            }
        }
        let Some(hub) = self.db.trace_hub() else {
            return;
        };
        let sub = hub.subscribe(self.subscriber_ring);
        let hub_id = sub.id();
        let stop = Arc::new(AtomicBool::new(false));
        self.subs.entry(conn).or_default().push(SubEntry {
            hub_id,
            stop: Arc::clone(&stop),
        });
        {
            let t = self.tick;
            self.tracer.emit(t, EventKind::SubscribeStart { conn });
        }
        self.respond(conn, req_id, &Response::Subscribed);
        let global_stop = Arc::clone(&self.stop);
        let _ = self
            .threads
            .spawn(format!("ccopt-net-sub{hub_id}"), move || {
                subscription_pump(sub, out, req_id, stop, global_stop)
            });
    }

    fn begin_drain(&mut self) {
        if !self.draining {
            self.draining = true;
            self.deadline = Some(Instant::now() + self.grace);
            if self.tracer.is_on() {
                let t = self.tick;
                self.tracer.emit(t, EventKind::DrainStart);
            }
        }
    }

    /// Record one `Wait` answer for `token` and fire the
    /// distributed-deadlock valve when the bound is reached: two wire
    /// clients in a cross-shard lock cycle would otherwise exchange
    /// `Wait` retries forever, because no shard-local deadlock detector
    /// can see the cycle. Firing force-restarts the transaction
    /// ([`ShardedDb::restart`]) and returns `true`: the client is told
    /// `Restarted`, which it already handles by replaying its program on
    /// the same token.
    fn waited(&mut self, token: u64, h: GlobalTxn) -> bool {
        if self.wait_valve == 0 {
            return false;
        }
        let n = self.waits.entry(token).or_insert(0);
        *n += 1;
        if *n < self.wait_valve {
            return false;
        }
        self.waits.remove(&token);
        // Not restartable (already terminal): answer `Wait` and let the
        // client's next request surface the real state.
        self.db.restart(h).is_ok()
    }

    fn session_error(&mut self, conn: u64, req_id: u64, token: u64, e: SessionError) {
        let resp = match e {
            SessionError::Stale => {
                self.txns.remove(&token);
                self.waits.remove(&token);
                Response::Err {
                    code: ErrCode::UnknownTxn,
                    msg: "the transaction is gone".to_string(),
                }
            }
            SessionError::ShardDown => {
                // The transaction is dead; free the handle and the token.
                if let Some((h, _)) = self.txns.remove(&token) {
                    self.waits.remove(&token);
                    let _ = self.db.abort(h);
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
        };
        self.respond(conn, req_id, &resp);
    }

    fn unknown(&mut self, conn: u64, req_id: u64, token: u64) {
        self.respond(
            conn,
            req_id,
            &Response::Err {
                code: ErrCode::UnknownTxn,
                msg: format!("no transaction {token}"),
            },
        );
    }

    fn respond(&mut self, conn: u64, req_id: u64, resp: &Response) {
        // A closed connection is handled by the reader's `Gone`; its
        // outbox drops the response.
        if let Some(out) = self.conns.get(&conn) {
            if out.push(req_id, resp, true) {
                self.unflushed.push(Arc::clone(out));
            }
        }
    }
}

// ------------------------------------------------------------ ops plane

/// Forward a subscription's buffered trace lines to its connection.
///
/// The pump is the isolation layer between the engine and a slow
/// subscriber: it takes lines out of the bounded [`TraceSubscription`]
/// ring one round at a time and blocks in [`Outbox::send`] until the
/// kernel has accepted them. A subscriber that never reads therefore
/// stalls only this thread, with one round of frames undelivered; the
/// engine keeps emitting into the ring, which drops-and-counts on
/// overflow, and the running dropped total rides along in every
/// [`Response::Events`] frame.
///
/// Each round drains one bounded batch and packs it into as few
/// [`Response::Events`] frames as fit under a per-frame byte cap: one
/// write and one client read then carry hundreds of events instead of
/// one — the difference between an ops plane that perturbs a
/// single-core box and one that does not.
///
/// [`SUBSCRIBER_RATE`] caps delivery: at most a hundredth of it per
/// 10 ms round, the rest left to the ring's drop-and-count.
fn subscription_pump(
    sub: TraceSubscription,
    out: Arc<Outbox>,
    req_id: u64,
    stop: Arc<AtomicBool>,
    global_stop: Arc<AtomicBool>,
) {
    // A payload cap keeping every frame well under `MAX_FRAME` even with
    // maximum-length lines.
    const BATCH_BYTES: usize = 32 * 1024;
    const ROUND: Duration = Duration::from_millis(10);
    let per_round = SUBSCRIBER_RATE / 100;
    loop {
        if stop.load(Ordering::SeqCst) || global_stop.load(Ordering::SeqCst) {
            return;
        }
        let (lines, dropped) = sub.drain_up_to(per_round);
        if lines.is_empty() {
            std::thread::sleep(Duration::from_millis(2));
            continue;
        }
        let mut batch: Vec<String> = Vec::new();
        let mut bytes = 0usize;
        for line in lines {
            if !batch.is_empty() && bytes + line.len() > BATCH_BYTES {
                let lines = std::mem::take(&mut batch);
                if !out.send(req_id, &Response::Events { dropped, lines }, false) {
                    return; // connection gone
                }
                bytes = 0;
            }
            bytes += line.len();
            batch.push(line);
        }
        let last = Response::Events {
            dropped,
            lines: batch,
        };
        if !out.send(req_id, &last, false) {
            return; // connection gone
        }
        std::thread::sleep(ROUND);
    }
}

/// The dependency-free ops HTTP listener: `GET /metrics` serves the
/// Prometheus text exposition of the last published snapshot,
/// `GET /healthz` answers `200 ok` / `503 degraded` / `503 draining`
/// from flags the engine refreshes every pass.
fn ops_http_thread(listener: TcpListener, ops: Arc<OpsShared>, stop: Arc<AtomicBool>) {
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => serve_http(stream, &ops),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
}

fn serve_http(mut stream: TcpStream, ops: &OpsShared) {
    // The accepted stream may inherit the listener's nonblocking mode on
    // some platforms; the request read must block (bounded by timeout).
    let _ = stream.set_nonblocking(false);
    let _ = stream.set_read_timeout(Some(Duration::from_secs(2)));
    let mut buf = [0u8; 1024];
    let n = match stream.read(&mut buf) {
        Ok(n) if n > 0 => n,
        _ => return,
    };
    let head = String::from_utf8_lossy(&buf[..n]);
    let path = head
        .strip_prefix("GET ")
        .and_then(|r| r.split_whitespace().next())
        .unwrap_or("");
    let (status, ctype, body) = match path {
        "/metrics" => match ops.published.lock().unwrap().as_ref() {
            Some(snap) => (
                "200 OK",
                "text/plain; version=0.0.4",
                render_prometheus(snap),
            ),
            None => (
                "503 Service Unavailable",
                "text/plain",
                "no sample yet\n".to_string(),
            ),
        },
        "/healthz" => {
            if ops.degraded.load(Ordering::Relaxed) {
                let down = ops.shards_down.load(Ordering::Relaxed);
                let total = ops.shards.load(Ordering::Relaxed);
                (
                    "503 Service Unavailable",
                    "text/plain",
                    format!("degraded: {down}/{total} shards down\n"),
                )
            } else if ops.draining.load(Ordering::Relaxed) {
                (
                    "503 Service Unavailable",
                    "text/plain",
                    "draining\n".to_string(),
                )
            } else {
                ("200 OK", "text/plain", "ok\n".to_string())
            }
        }
        _ => ("404 Not Found", "text/plain", "not found\n".to_string()),
    };
    let resp = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {ctype}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    let _ = stream.write_all(resp.as_bytes());
    let _ = stream.flush();
    let _ = stream.shutdown(Shutdown::Both);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::decode_response;
    use ccopt_model::ids::VarId;
    use ccopt_model::value::Value;

    /// An outbox over one end of a loopback connection, and the peer.
    fn outbox_and_peer() -> (Arc<Outbox>, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let peer = TcpStream::connect(listener.local_addr().unwrap()).expect("connect");
        let (stream, _) = listener.accept().expect("accept");
        stream.set_write_timeout(Some(WRITE_TICK)).unwrap();
        (Arc::new(Outbox::new(stream)), peer)
    }

    #[test]
    fn credit_returns_when_the_kernel_has_the_whole_frame() {
        let (out, peer) = outbox_and_peer();
        assert!(out.admit(2));
        assert!(out.admit(2));
        assert!(!out.admit(2), "a third request in flight is over the cap");
        assert!(
            out.push(1, &Response::Pong, true),
            "first bytes owe a flush"
        );
        assert!(!out.push(2, &Response::Pong, true));
        // A subscription event rides along and returns no credit.
        let event = Response::Events {
            dropped: 0,
            lines: vec!["{}".to_string()],
        };
        assert!(!out.push(0, &event, false));
        assert_eq!(out.lock().inflight, 3, "framed is not delivered");
        assert!(!out.flush_once(), "an idle socket takes it all at once");
        assert_eq!(out.lock().inflight, 1);
        assert!(out.lock().frames.is_empty());
        for want in [1, 2, 0] {
            let payload = read_frame(&mut &peer).unwrap().expect("a frame");
            assert_eq!(decode_response(&payload).unwrap().0, want);
        }
    }

    #[test]
    fn a_full_socket_costs_the_engine_one_bounded_attempt() {
        let (out, peer) = outbox_and_peer();
        // Responses nobody reads, until one flush attempt leaves bytes
        // behind; every attempt on the way is bounded.
        let big = Response::Err {
            code: ErrCode::BadState,
            msg: "x".repeat(60_000),
        };
        let mut pushed = 0u64;
        loop {
            for _ in 0..16 {
                out.admit(usize::MAX);
                pushed += 1;
                out.push(pushed, &big, true);
            }
            let t = Instant::now();
            let left = out.flush_once();
            assert!(t.elapsed() < Duration::from_secs(1), "one bounded write");
            if left {
                break;
            }
            assert!(pushed < 100_000, "the socket never filled");
        }
        // The outbox now belongs to a drainer: the engine only appends.
        assert!(out.lock().busy);
        out.admit(usize::MAX);
        pushed += 1;
        assert!(!out.push(pushed, &Response::Pong, true), "no flush owed");
        let t = Instant::now();
        assert!(!out.flush_once());
        assert!(t.elapsed() < WRITE_TICK, "an owned socket is not touched");
        let undelivered = out.lock().inflight;
        assert!(undelivered > 1, "leftovers hold their credit");

        // The drainer delivers everything, in order, once the peer reads.
        let drainer = {
            let out = Arc::clone(&out);
            std::thread::spawn(move || out.drain_owned())
        };
        for want in 1..=pushed {
            let payload = read_frame(&mut &peer).unwrap().expect("a frame");
            assert_eq!(decode_response(&payload).unwrap().0, want);
        }
        assert!(drainer.join().unwrap(), "the connection is still alive");
        let st = out.lock();
        assert!(!st.busy && st.buf.is_empty() && st.frames.is_empty());
        assert_eq!(st.inflight, 0);
    }

    #[test]
    fn a_message_queued_while_the_engine_is_held_runs_before_the_holder_lets_go() {
        // A core with no accept thread: no clock tick can rescue a
        // stranded message.
        let cfg = ServerConfig {
            shards: 1,
            ..ServerConfig::default()
        };
        let (tx, rx) = mpsc::sync_channel(cfg.queue);
        let (done_tx, _done_rx) = mpsc::channel();
        let eng = Engine::open(
            &cfg,
            CcKind::from_name(&cfg.cc).expect("a known mechanism"),
            Arc::default(),
            Arc::default(),
            Arc::default(),
            Arc::default(),
            Threads::default(),
        )
        .expect("a volatile engine opens");
        let core = Core {
            run: Mutex::new(Some(Running {
                eng,
                rx,
                done_tx,
                conns: Arc::default(),
                batch: Vec::new(),
            })),
            tx,
            pending: AtomicUsize::new(0),
            kill: AtomicBool::new(false),
        };
        let (out, peer) = outbox_and_peer();
        assert!(out.admit(1), "the ping's pipeline credit");
        assert!(core.send(ToEngine::Conn { id: 1, out }));
        core.combine();
        assert_eq!(core.pending.load(Ordering::SeqCst), 0);

        // The test thread holds the engine. A reader queues a ping and
        // finds the lock taken: it returns at once, having run nothing.
        let held = core.run.lock().expect("not poisoned");
        let ping = ToEngine::Req {
            conn: 1,
            req_id: 7,
            req: Request::Ping,
        };
        assert!(core.try_send(ping).is_ok());
        std::thread::scope(|s| s.spawn(|| core.combine()).join().expect("no panic"));
        assert_eq!(core.pending.load(Ordering::SeqCst), 1, "nothing ran");
        peer.set_nonblocking(true).unwrap();
        let mut byte = [0u8; 1];
        let silent = (&peer).read(&mut byte).map_err(|e| e.kind());
        assert_eq!(silent, Err(std::io::ErrorKind::WouldBlock), "no answer yet");

        // The holder lets go the way `combine` does: the re-check finds
        // the ping, and the holder runs it before returning.
        if core.let_go(held) {
            core.combine();
        }
        assert_eq!(core.pending.load(Ordering::SeqCst), 0);
        let payload = read_frame(&mut &peer).unwrap().expect("the pong is there");
        let (req_id, resp) = decode_response(&payload).unwrap();
        assert_eq!((req_id, resp), (7, Response::Pong));
    }

    /// A volatile one-shard strict-2PL engine with one connection, and
    /// that connection's peer.
    fn engine_and_peer() -> (Engine, TcpStream) {
        let cfg = ServerConfig {
            shards: 1,
            ..ServerConfig::default()
        };
        let kind = CcKind::from_name(&cfg.cc).expect("a known mechanism");
        let mut eng = Engine::open(
            &cfg,
            kind,
            Arc::default(),
            Arc::default(),
            Arc::default(),
            Arc::default(),
            Threads::default(),
        )
        .expect("a volatile engine opens");
        let (out, peer) = outbox_and_peer();
        eng.process(&[ToEngine::Conn { id: 1, out }]);
        (eng, peer)
    }

    /// Run one engine pass over `reqs`, as the reader would queue them,
    /// and read back its answers.
    fn ask(eng: &mut Engine, peer: &TcpStream, reqs: Vec<Request>) -> Vec<Response> {
        let n = reqs.len();
        let msgs: Vec<ToEngine> = (0..)
            .zip(reqs)
            .map(|(req_id, req)| {
                eng.conns[&1].admit(usize::MAX);
                eng.queue_depth.fetch_add(1, Ordering::Relaxed);
                ToEngine::Req {
                    conn: 1,
                    req_id,
                    req,
                }
            })
            .collect();
        eng.process(&msgs);
        (0..n as u64)
            .map(|want| {
                let payload = read_frame(&mut &*peer).unwrap().expect("an answer");
                let (req_id, resp) = decode_response(&payload).unwrap();
                assert_eq!(req_id, want, "answers keep request order");
                resp
            })
            .collect()
    }

    fn begin(eng: &mut Engine, peer: &TcpStream) -> u64 {
        match &ask(eng, peer, vec![Request::Begin])[..] {
            [Response::Began { txn }] => *txn,
            other => panic!("begin answered {other:?}"),
        }
    }

    fn batch(txn: u64, ops: Vec<BatchOp>, commit: bool) -> Request {
        Request::Batch { txn, ops, commit }
    }

    #[test]
    fn a_zero_op_commit_behind_a_stopped_run_commits_on_its_own() {
        let (mut eng, peer) = engine_and_peer();
        let (t1, t2) = (begin(&mut eng, &peer), begin(&mut eng, &peer));
        let write = |x| vec![BatchOp::Write(VarId(0), Value::Int(x))];
        let held = ask(&mut eng, &peer, vec![batch(t1, write(1), false)]);
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
        let answers = ask(
            &mut eng,
            &peer,
            vec![batch(t2, write(2), false), batch(t2, vec![], true)],
        );
        assert_eq!(
            answers,
            [
                Response::Batch {
                    results: vec![BatchOutcome::Wait],
                    commit: None,
                },
                Response::Batch {
                    results: vec![],
                    commit: Some(BatchCommit::Committed),
                },
            ]
        );
        assert_eq!(eng.commits, 1);
    }

    #[test]
    fn a_run_stopped_early_answers_every_later_request() {
        let (mut eng, peer) = engine_and_peer();
        let (t1, t2) = (begin(&mut eng, &peer), begin(&mut eng, &peer));
        let write = |var| BatchOp::Write(VarId(var), Value::Int(1));
        ask(&mut eng, &peer, vec![batch(t1, vec![write(0)], false)]);
        // T2's first batch waits at its first op; the two requests behind
        // it in the same pass were never reached: each answers "resume
        // here", and neither's commit is attempted.
        let answers = ask(
            &mut eng,
            &peer,
            vec![
                batch(t2, vec![write(0), write(1)], false),
                batch(t2, vec![write(2)], false),
                batch(t2, vec![write(3)], true),
            ],
        );
        let wait = Response::Batch {
            results: vec![BatchOutcome::Wait],
            commit: None,
        };
        assert_eq!(answers, [wait.clone(), wait.clone(), wait]);
        assert_eq!(eng.commits, 0);
    }

    #[test]
    fn a_dead_peer_ends_the_drainer() {
        let (out, peer) = outbox_and_peer();
        let big = Response::Err {
            code: ErrCode::BadState,
            msg: "x".repeat(60_000),
        };
        let mut req_id = 0;
        while !out.flush_once() {
            for _ in 0..16 {
                req_id += 1;
                out.admit(usize::MAX);
                out.push(req_id, &big, true);
            }
        }
        let drainer = {
            let out = Arc::clone(&out);
            std::thread::spawn(move || out.drain_owned())
        };
        drop(peer); // closes with unread data: the kernel resets
        assert!(!drainer.join().unwrap(), "the drainer reports the death");
        assert!(!out.send(req_id + 1, &Response::Pong, true));
        let st = out.lock();
        assert!(st.dead && !st.busy && st.buf.is_empty());
    }
}
