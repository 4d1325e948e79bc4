//! The TCP front-end: connection handling, request pipelining, admission
//! control, and graceful drain over a [`ShardedDb`].
//!
//! # Threads
//!
//! One **accept** thread polls the listener; each connection gets one
//! **reader** thread (decode frames, admission-check, forward to the
//! engine). The engine (`engine.rs`: decoded messages in, answers out
//! through a reply sink, no socket) has no thread of its own. It sits,
//! with the receiving end of its one bounded request queue, behind a
//! **combining lock** (`Core`): a thread that has just queued a message
//! takes the lock if it is free, drains the queue, runs one pass over
//! what it holds, lets go, and checks the queue again; a thread that
//! finds the lock taken goes straight back to `read`, and the holder runs
//! its message. The holder reads the clock once per pass and hands that
//! `now` to the engine, which reads no clock of its own. The accept
//! thread's 5 ms poll runs a pass per turn too, so with no request
//! arriving the kill flag is still read, a drain whose grace expired
//! still ends, the sampler still samples and the `/healthz` flags are
//! still refreshed.
//! [`Server::start`] builds the engine — parse the mechanism, open or
//! recover the logs, attach the trace plane, publish the first stats
//! snapshot — on its caller's thread, so every start-up error is a plain
//! `Err` returned before any `ccopt-net-*` thread exists: a failed
//! `start` leaves no thread and no bound port behind. (The database's
//! shards own no thread; a durable database's logs each start at most one
//! `ccopt-wal-sync` thread, at their first overlapped fsync, joined when
//! the engine drops.) The per-connection threads — readers and drainers
//! — are registered as they spawn (finished ones are reaped at the next
//! spawn), and [`Server::shutdown`], [`Server::kill`] and drop join
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
//! socket — into which the lock holder's reply sink (`Outboxes`) encodes
//! every response as the engine decides it, and which the holder flushes
//! once per connection at the end of the pass with a single `write`: the
//! responses to a pipelined burst share one syscall, and a round trip
//! crosses no thread but the reader that brought it (or the one holding
//! the engine). The engine never waits on a client: that `write` is one
//! attempt, bounded by a send timeout of a scheduler tick, and what a
//! full socket would not take stays in the outbox for an on-demand
//! **drainer** thread that blocks in the engine's stead until the buffer
//! is empty, then exits. While a drainer owns the socket the engine only
//! appends. The reader's own answers (`Shed`, `Malformed`) go through
//! the same outbox and block in the same drain routine themselves, so
//! frames never interleave and there is one write routine.
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
//! 3. **transaction cap** — a transaction's first request is shed when
//!    `max_txns` transactions are live.
//!
//! # Drain
//!
//! [`Server::shutdown`] (or a wire [`Request::Shutdown`]) starts a
//! drain: new transactions are refused with [`Response::Draining`],
//! in-flight transactions get a grace period to finish, stragglers are
//! aborted, the logs are synced, and `DrainStart`/`DrainDone` trace
//! events bracket the whole episode. A failed final sync, a failed final
//! flush of the trace sink and any event the sink failed to write are
//! reported in [`DrainStats`]. [`Server::kill`] is the opposite:
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
//! * [`ServerConfig::trace`] with a sink (`--trace PATH`) is the served
//!   event record: every trace event of the schedule, in JSONL, with no
//!   drop-and-count between the engine and the file.
//!
//! [`ShardedDb`]: ccopt_engine::ShardedDb
//! [`ShardedDb::submit_group`]: ccopt_engine::ShardedDb::submit_group
//! [`Request::Batch`]: crate::Request::Batch
//! [`Request::Shutdown`]: crate::Request::Shutdown
//! [`Request::Stats`]: crate::Request::Stats
//! [`Request::Health`]: crate::Request::Health
//! [`HealthReport`]: crate::HealthReport
//! [`Metrics::diff`]: ccopt_engine::Metrics::diff
//! [`SamplePoint`]: crate::SamplePoint

use crate::engine::{Engine, Sink, ToEngine};
use crate::error::{FrameError, ServerError};
use crate::frame::{decode_request, frame_response_into, read_frame, ErrCode, Response};
use crate::stats::{render_prometheus, ServerStats};
use ccopt_durability::DurabilityMode;
use ccopt_engine::CcKind;
use ccopt_trace::TraceConfig;
use std::collections::{HashMap, VecDeque};
use std::io::{BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{fence, AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, TryLockError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

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
    /// Admission cap: maximum simultaneously live transactions; a
    /// transaction's first request beyond it is shed.
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
    /// Bind address of the ops-plane HTTP listener (`/metrics`,
    /// `/healthz`); `None` (the default) serves no HTTP.
    pub metrics_addr: Option<String>,
    /// Sampler period: the first engine pass after each interval
    /// boundary (the accept thread runs one every 5 ms) snapshots
    /// [`Metrics::diff`](ccopt_engine::Metrics::diff) into the
    /// time-series ring. `Duration::ZERO` disables the sampler (the true
    /// ops-off baseline).
    pub sample_interval: Duration,
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
            metrics_addr: None,
            sample_interval: Duration::from_secs(1),
            stats_line: false,
        }
    }
}

/// What a finished server reports.
#[derive(Clone, Debug, Default)]
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
    /// Transactions' first requests shed by the live-transaction budget.
    pub sheds_txns: u64,
    /// What went wrong while closing the books, one line each: a failed
    /// final log sync, a failed flush of the `--trace` sink, failed
    /// writes to it. Empty on a clean drain.
    pub errors: Vec<String>,
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
pub(crate) struct ShedCounters {
    pub(crate) pipeline: AtomicU64,
    pub(crate) queue: AtomicU64,
    pub(crate) txns: AtomicU64,
}

/// What the engine shares with the reader threads and the ops-plane HTTP
/// listener: the shed ledger and the queue-depth gauge, which the readers
/// feed too, and what the engine publishes for the listener — the last
/// sampler snapshot (for `/metrics`) plus health flags refreshed every
/// engine pass (for `/healthz`, which must flip within milliseconds of a
/// shard crash regardless of the sampler period).
#[derive(Default)]
pub(crate) struct Shared {
    pub(crate) sheds: ShedCounters,
    /// Requests queued for the engine that no pass has processed yet.
    pub(crate) queue_depth: AtomicUsize,
    pub(crate) published: Mutex<Option<ServerStats>>,
    pub(crate) degraded: AtomicBool,
    pub(crate) draining: AtomicBool,
    pub(crate) shards: AtomicU32,
    pub(crate) shards_down: AtomicU32,
}

/// How long one `write` may wait on a full socket before returning a
/// short count or `WouldBlock` — the bound on the engine's single flush
/// attempt. The kernel rounds it up to a scheduler tick. Set once on the
/// accepted stream: every clone shares the option, and only writes see it.
const WRITE_TICK: Duration = Duration::from_millis(1);

/// How long a parked request may go without an attempt before it is
/// answered `Wait` after all (see `engine.rs`, `Parked`): what a lock
/// holder that has gone silent costs the client waiting on it, plus up
/// to one accept-thread pass (5 ms).
pub(crate) const PARK_LIMIT: Duration = Duration::from_millis(2);

/// One connection's response path: framed bytes the kernel has not yet
/// accepted, plus the write half of the socket.
///
/// Every response — the engine's, the reader's `Shed` / `Malformed`
/// answers — is encoded and framed
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
    /// of its bytes are left. Every frame answers a request, and returns
    /// its pipeline credit once the kernel has all of it.
    frames: VecDeque<usize>,
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
    /// credit of every frame that is now wholly out.
    fn accepted(&mut self, mut n: usize) {
        while let Some(left) = self.frames.front_mut() {
            if n < *left {
                *left -= n;
                return;
            }
            n -= *left;
            self.inflight -= 1;
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

    /// Frame the response to one counted request into the buffer.
    /// Returns `true` when these are the first pending bytes of an
    /// unowned outbox — the caller then owes it a flush.
    fn push(&self, req_id: u64, resp: &Response) -> bool {
        let mut st = self.lock();
        if st.dead {
            return false;
        }
        let first = st.buf.is_empty() && !st.busy;
        let len = frame_response_into(&mut st.buf, req_id, resp);
        st.frames.push_back(len);
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
    /// the outbox — the reader's send. `false` when the connection is
    /// gone.
    fn send(&self, req_id: u64, resp: &Response) -> bool {
        self.push(req_id, resp);
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

/// The server's per-connection threads — readers and drainers — which
/// come and go while it runs, registered so that
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
    /// The shed ledger and queue-depth gauge the readers feed.
    shared: Arc<Shared>,
}

/// What the lock holder runs: the engine, its queue, where its answers
/// go, and where the end of serving is reported.
struct Running {
    eng: Engine,
    rx: Receiver<ToEngine>,
    done_tx: mpsc::Sender<DrainStats>,
    /// Every connection's outbox, registered before the engine hears of
    /// the connection: where its answers go, and what the end of serving
    /// closes.
    conns: Arc<Mutex<HashMap<u64, Arc<Outbox>>>>,
    /// Outboxes this pass put their first pending bytes into: each is
    /// owed one flush when the pass's answers are in.
    unflushed: Vec<Arc<Outbox>>,
    /// Where drainers are registered.
    threads: Threads,
    /// The messages of the pass in progress.
    batch: Vec<ToEngine>,
}

/// The engine's sink for one pass: the outboxes, each response framed
/// into its connection's as it is decided.
struct Outboxes<'a> {
    conns: &'a HashMap<u64, Arc<Outbox>>,
    unflushed: &'a mut Vec<Arc<Outbox>>,
    threads: &'a Threads,
}

impl Sink for Outboxes<'_> {
    fn reply(&mut self, conn: u64, req_id: u64, resp: &Response) {
        // A closed connection's outbox drops the response.
        if let Some(out) = self.conns.get(&conn) {
            if out.push(req_id, resp) {
                self.unflushed.push(Arc::clone(out));
            }
        }
    }

    /// Every connection answered during the pass gets its responses in
    /// one coalesced `write`. The engine never waits on a client — what a
    /// full socket would not take is left to a drainer thread that lives
    /// until the outbox is empty.
    fn flush(&mut self) {
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
    /// One turn of the engine: drain up to 256 queued messages and run
    /// them as one engine pass, at the time read here. `true` when
    /// serving is over: killed, or draining with no transaction left or
    /// the grace expired.
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
        // Held for the pass: an accept or a reader's exit waits for it.
        let conns = self.conns.lock().expect("no registry update panics");
        let mut sink = Outboxes {
            conns: &conns,
            unflushed: &mut self.unflushed,
            threads: &self.threads,
        };
        let over = self.eng.pass(Instant::now(), &self.batch, &mut sink);
        self.batch.clear();
        over
    }

    /// The end of serving: abort the stragglers and sync the logs
    /// (unless `killed`), close every connection and report.
    fn finish(self, killed: bool) {
        let Running {
            mut eng,
            done_tx,
            conns,
            ..
        } = self;
        let stats = eng.close(killed);
        // Wake every connection so its threads exit.
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
    /// synchronously on an unknown mechanism or a zero shard count, a
    /// bind error, a log that does not recover, or a trace sink that
    /// does not open — and every
    /// fallible step runs on the calling thread before the first thread
    /// is spawned, so an `Err` leaves nothing behind: no thread, no bound
    /// port.
    pub fn start(cfg: ServerConfig) -> Result<Server, ServerError> {
        let Some(kind) = CcKind::from_name(&cfg.cc) else {
            let msg = format!("unknown concurrency-control mechanism {:?}", cfg.cc);
            return Err(ServerError::Config(msg));
        };
        if cfg.shards == 0 {
            return Err(ServerError::Config(
                "the shard count must be at least 1".to_string(),
            ));
        }
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
        let conns = Arc::new(Mutex::new(HashMap::new()));
        let threads = Threads::default();
        let shared = Arc::new(Shared::default());

        // Engine startup (recovery included) happens here, on the
        // caller's thread: a log that does not open fails `start`, not
        // the first request. This is the last fallible step.
        let eng = Engine::open(&cfg, kind, Arc::clone(&shared), Instant::now())?;

        let ops_http = ops_listener.map(|l| {
            let (shared, stop) = (Arc::clone(&shared), Arc::clone(&stop));
            std::thread::Builder::new()
                .name("ccopt-net-ops".to_string())
                .spawn(move || ops_http_thread(l, shared, stop))
                .expect("spawn ops http thread")
        });

        let core = Arc::new(Core {
            run: Mutex::new(Some(Running {
                eng,
                rx,
                done_tx,
                conns: Arc::clone(&conns),
                unflushed: Vec::new(),
                threads: threads.clone(),
                batch: Vec::with_capacity(256),
            })),
            tx,
            pending: AtomicUsize::new(0),
            kill: AtomicBool::new(false),
            shared,
        });

        let accept = {
            let core = Arc::clone(&core);
            let stop = Arc::clone(&stop);
            let conns = Arc::clone(&conns);
            let threads = threads.clone();
            let pipeline = cfg.pipeline.max(1);
            std::thread::Builder::new()
                .name("ccopt-net-accept".to_string())
                .spawn(move || accept_thread(listener, core, stop, conns, pipeline, threads))
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
    /// engine, exactly as
    /// [`ShardedDb::panic_shard`](ccopt_engine::ShardedDb::panic_shard)
    /// does in-process — the shard dies mid-flight and supervision kicks
    /// in at its next touch. This is how the ops-plane tests flip
    /// `/healthz` to degraded mid-run.
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
    /// [`Request::Shutdown`](crate::Request::Shutdown) drained it). This
    /// is what the `ccopt-server` binary parks on.
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
        // readers and drainers are on their way out (and the one
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

fn accept_thread(
    listener: TcpListener,
    core: Arc<Core>,
    stop: Arc<AtomicBool>,
    conns: Arc<Mutex<HashMap<u64, Arc<Outbox>>>>,
    pipeline: usize,
    threads: Threads,
) {
    let mut next_id = 0u64;
    while !stop.load(Ordering::SeqCst) {
        // A pass per turn reads the kill flag, ends an expired drain,
        // samples and refreshes `/healthz` even when no request arrives.
        // A held engine is doing all that already.
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
                // Registration order matters: the outbox is in place
                // before the engine learns of the connection, and the
                // engine learns of it before any of its requests.
                conns
                    .lock()
                    .expect("no registry update panics")
                    .insert(id, Arc::clone(&out));
                if !core.send(ToEngine::Conn { id }) {
                    return; // engine gone; stop accepting
                }
                let core = Arc::clone(&core);
                let conns = Arc::clone(&conns);
                let _ = threads.spawn(format!("ccopt-net-r{id}"), move || {
                    reader_thread(stream, id, &core, out, pipeline);
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
fn reader_thread(stream: TcpStream, id: u64, core: &Core, out: Arc<Outbox>, pipeline: usize) {
    let Shared {
        sheds, queue_depth, ..
    } = &*core.shared;
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
                    if out.send(req_id, &resp) {
                        continue;
                    }
                }
                break;
            }
        };
        if !out.admit(pipeline) {
            sheds.pipeline.fetch_add(1, Ordering::Relaxed);
            if !out.send(req_id, &Response::Shed) {
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
                if !out.send(req_id, &Response::Shed) {
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

// ------------------------------------------------------------ ops plane

/// The dependency-free ops HTTP listener: `GET /metrics` serves the
/// Prometheus text exposition of the last published snapshot,
/// `GET /healthz` answers `200 ok` / `503 degraded` / `503 draining`
/// from flags the engine refreshes every pass.
fn ops_http_thread(listener: TcpListener, ops: Arc<Shared>, stop: Arc<AtomicBool>) {
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

fn serve_http(mut stream: TcpStream, ops: &Shared) {
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
    use crate::frame::{decode_response, Request};

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
        assert!(out.push(1, &Response::Pong), "first bytes owe a flush");
        assert!(!out.push(2, &Response::Pong));
        assert_eq!(out.lock().inflight, 3, "framed is not delivered");
        assert!(!out.flush_once(), "an idle socket takes it all at once");
        assert_eq!(out.lock().inflight, 1);
        assert!(out.lock().frames.is_empty());
        for want in [1, 2] {
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
                out.push(pushed, &big);
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
        assert!(!out.push(pushed, &Response::Pong), "no flush owed");
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
            Instant::now(),
        )
        .expect("a volatile engine opens");
        let (out, peer) = outbox_and_peer();
        assert!(out.admit(1), "the ping's pipeline credit");
        let core = Core {
            run: Mutex::new(Some(Running {
                eng,
                rx,
                done_tx,
                conns: Arc::new(Mutex::new(HashMap::from([(1, out)]))),
                unflushed: Vec::new(),
                threads: Threads::default(),
                batch: Vec::new(),
            })),
            tx,
            pending: AtomicUsize::new(0),
            kill: AtomicBool::new(false),
            shared: Arc::default(),
        };
        assert!(core.send(ToEngine::Conn { id: 1 }));
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
                out.push(req_id, &big);
            }
        }
        let drainer = {
            let out = Arc::clone(&out);
            std::thread::spawn(move || out.drain_owned())
        };
        drop(peer); // closes with unread data: the kernel resets
        assert!(!drainer.join().unwrap(), "the drainer reports the death");
        assert!(!out.send(req_id + 1, &Response::Pong));
        let st = out.lock();
        assert!(st.dead && !st.busy && st.buf.is_empty());
    }
}
