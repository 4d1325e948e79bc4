//! # `ccopt-par` — a persistent worker behind a mailbox
//!
//! One primitive, built on the standard library alone: [`Worker`], a
//! persistent actor — a piece of state owned by one *token*, driven
//! through a mailbox of `FnOnce(&mut T)` jobs that a dedicated OS thread
//! runs. Jobs from one sender run in send order; [`Worker::submit`]
//! returns a [`Reply`] so a coordinator can fan a batch out to several
//! workers and then collect, which is how the engine's sharded database
//! drives one worker per shard (`ccopt-engine::shard`). Whoever holds the
//! token runs the job: queued jobs run on the worker thread, a
//! [`Worker::call`] that finds the mailbox empty runs on the caller — a
//! synchronous round trip has no concurrency to buy with two thread
//! hand-offs.
//!
//! ## Fault containment
//!
//! A worker is a *fault domain*: each job runs under
//! [`std::panic::catch_unwind`], so a panicking job kills
//! only its own worker, never the process — nor the calling thread, when
//! the job ran inline. The state is dropped at the point of death, on
//! whichever thread ran the panicking job — for a shard database this
//! closes its write-ahead log *without* a final flush, which is exactly
//! crash semantics: recovery replays the durable prefix. After death every
//! interaction returns [`WorkerError`] instead of panicking, and queued
//! jobs that will never run resolve their [`Reply`]s as errors, so a
//! supervisor can detect the crash, fail the in-flight work, and respawn.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;

/// The worker died (a previous job panicked) before — or while — running
/// the interaction that returned this error.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WorkerError;

impl std::fmt::Display for WorkerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "worker dead (a job panicked)")
    }
}

impl std::error::Error for WorkerError {}

/// A boxed job for a [`Worker`]'s mailbox. It is handed the mailbox depth
/// and leaves the mailbox — decrements it — *before* it answers, so a
/// caller holding the reply finds the mailbox without it: a
/// [`Worker::call`] right after a collected fan-out runs inline.
type Job<T> = Box<dyn FnOnce(&mut T, &AtomicUsize) + Send>;

/// The pending answer of a [`Worker::submit`] call. Dropping it without
/// [`wait`](Reply::wait)ing discards the result (the job still runs).
#[derive(Debug)]
pub struct Reply<R> {
    rx: Receiver<R>,
}

impl<R> Reply<R> {
    /// Block until the worker has run the job and return its result, or
    /// [`WorkerError`] when the worker died (this job or an earlier one
    /// panicked) before producing it.
    pub fn wait(self) -> Result<R, WorkerError> {
        self.rx.recv().map_err(|_| WorkerError)
    }
}

/// What a [`Worker`]'s handle and its thread share.
struct Shared<T> {
    /// The ownership token: whoever holds the lock runs the next job with
    /// exclusive `&mut T`. `None` once the worker is dead (a job
    /// panicked) or shut down — the state has been dropped.
    state: Mutex<Option<T>>,
    alive: AtomicBool,
    /// Jobs submitted but not yet completed (mailbox depth).
    pending: AtomicUsize,
}

impl<T> Shared<T> {
    /// Wait for the ownership token.
    fn token(&self) -> MutexGuard<'_, Option<T>> {
        self.state
            .lock()
            .expect("a job's panic is caught before it can poison the token")
    }

    /// Take the token and run `f` on the state under `catch_unwind` — the
    /// one place a job executes, on whichever thread got here.
    fn run<R>(&self, f: impl FnOnce(&mut T) -> R) -> Result<R, WorkerError> {
        let mut token = self.token();
        let state = token.as_mut().ok_or(WorkerError)?;
        catch_unwind(AssertUnwindSafe(|| f(state))).map_err(|_| {
            // Fault containment: mark the domain dead *before* dropping
            // the state so observers never see a live flag over a dropped
            // state. Dropping here (mid-flight, still holding the token)
            // gives crash semantics to whatever the state owns — a WAL
            // file closes without a final flush, so recovery sees exactly
            // the durable prefix.
            self.alive.store(false, Ordering::Release);
            *token = None;
            WorkerError
        })
    }
}

/// A piece of state `T` owned by one token and served by a persistent
/// worker thread through a FIFO mailbox of closures.
///
/// Jobs submitted from the owning coordinator run strictly in submission
/// order, each with exclusive `&mut T` access — the actor pattern: the
/// state is reached only through the token, one job at a time, so `T`
/// needs no internal synchronization. Queued jobs run on the worker
/// thread; a [`call`](Worker::call) on an idle worker takes the token
/// and runs on the caller. Dropping the worker closes the mailbox,
/// drains the remaining jobs, drops `T` *on the worker thread*, and
/// joins — so resources owned by `T` (files, logs) are fully released
/// when `drop` returns.
///
/// A job that panics kills the worker, not the process: the panic is
/// caught, the state is dropped on the thread that ran the job
/// (mid-flight, as a crash would leave it), queued jobs are discarded,
/// and every later interaction returns [`WorkerError`].
pub struct Worker<T> {
    tx: Option<Sender<Job<T>>>,
    handle: Option<JoinHandle<()>>,
    shared: Arc<Shared<T>>,
}

impl<T: Send + 'static> Worker<T> {
    /// Give `state` a fresh worker thread and open its mailbox. The
    /// thread is unnamed: it shows up under its spawner's name.
    pub fn spawn(state: T) -> Worker<T> {
        Self::spawn_on(std::thread::Builder::new(), state)
    }

    /// Like [`spawn`](Self::spawn), on a thread named `name` (what
    /// `top -H` shows, and the panic message of a queued job).
    pub fn spawn_named(name: String, state: T) -> Worker<T> {
        Self::spawn_on(std::thread::Builder::new().name(name), state)
    }

    fn spawn_on(thread: std::thread::Builder, state: T) -> Worker<T> {
        let (tx, rx) = channel::<Job<T>>();
        let shared = Arc::new(Shared {
            state: Mutex::new(Some(state)),
            alive: AtomicBool::new(true),
            pending: AtomicUsize::new(0),
        });
        let handle = {
            let shared = shared.clone();
            let body = move || {
                while let Ok(job) = rx.recv() {
                    if shared.run(|state| job(state, &shared.pending)).is_err() {
                        // The worker died, under this job (which never
                        // reached its own decrement) or an inline one
                        // before it. Queued jobs die with the receiver;
                        // their Reply senders drop and every wait()
                        // resolves to Err(WorkerError).
                        shared.pending.fetch_sub(1, Ordering::Release);
                        return;
                    }
                }
                // Mailbox closed: the state goes here, on the worker
                // thread, so the join in shutdown/Drop covers it.
                let state = shared.token().take();
                drop(state);
            };
            // As `std::thread::spawn`: no thread is an unrecoverable
            // resource failure.
            thread.spawn(body).expect("failed to spawn worker thread")
        };
        Worker {
            tx: Some(tx),
            handle: Some(handle),
            shared,
        }
    }

    /// Whether the worker is still serving jobs. A `true` may be stale
    /// the instant it is read (the worker may be dying right now);
    /// `false` is definitive.
    pub fn is_alive(&self) -> bool {
        self.shared.alive.load(Ordering::Acquire)
    }

    /// Jobs submitted but not yet completed.
    pub fn queue_len(&self) -> usize {
        self.shared.pending.load(Ordering::Acquire)
    }

    /// Close the mailbox and join the worker thread in place: queued jobs
    /// drain (or die with the receiver if the worker already panicked),
    /// the state — and everything it owns, such as log file handles — is
    /// fully dropped before this returns, and every later interaction
    /// returns [`WorkerError`]. A supervisor calls this before recovering
    /// a crashed shard's log in place, guaranteeing the dying worker's
    /// file handle is closed first.
    pub fn shutdown(&mut self) {
        self.tx.take();
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
        self.shared.alive.store(false, Ordering::Release);
    }

    /// Enqueue `f` and return a [`Reply`] for its result, or
    /// [`WorkerError`] when the worker is dead. Use this to fan a batch
    /// of jobs out to several workers before collecting any of the
    /// answers — the workers run concurrently.
    pub fn submit<R: Send + 'static>(
        &self,
        f: impl FnOnce(&mut T) -> R + Send + 'static,
    ) -> Result<Reply<R>, WorkerError> {
        if !self.is_alive() {
            return Err(WorkerError);
        }
        let Some(tx) = self.tx.as_ref() else {
            // The mailbox was closed by an explicit shutdown.
            return Err(WorkerError);
        };
        let (rtx, rrx) = channel();
        self.shared.pending.fetch_add(1, Ordering::AcqRel);
        let sent = tx.send(Box::new(move |state: &mut T, pending: &AtomicUsize| {
            let out = f(state);
            pending.fetch_sub(1, Ordering::Release);
            let _ = rtx.send(out);
        }));
        if sent.is_err() {
            // The worker died between the liveness check and the send;
            // the job never entered the mailbox.
            self.shared.pending.fetch_sub(1, Ordering::Release);
            return Err(WorkerError);
        }
        Ok(Reply { rx: rrx })
    }

    /// Run `f` on the state and block for its result, or [`WorkerError`]
    /// when the worker is dead or dies running `f`. With the mailbox
    /// empty, `f` runs right here on the calling thread under the
    /// ownership token — no boxing, reply channel or wake-up; with jobs
    /// queued it goes behind them through the mailbox (FIFO holds) and
    /// runs on the worker thread.
    pub fn call<R: Send + 'static>(
        &self,
        f: impl FnOnce(&mut T) -> R + Send + 'static,
    ) -> Result<R, WorkerError> {
        // `pending` is decremented (Release) only after a queued job has
        // run, so reading 0 (Acquire) means every job submitted before
        // this call has completed (the worker thread may still be handing
        // the token back; `run` waits for it).
        if self.queue_len() == 0 && self.is_alive() {
            return self.shared.run(f);
        }
        self.submit(f)?.wait()
    }
}

impl<T> Drop for Worker<T> {
    fn drop(&mut self) {
        // Closing the channel ends the worker loop; the join guarantees
        // the state (and everything it owns) is dropped before we return.
        self.tx.take();
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A state whose drop raises a flag.
    struct Flagged(Arc<AtomicBool>);
    impl Drop for Flagged {
        fn drop(&mut self) {
            self.0.store(true, Ordering::SeqCst);
        }
    }

    #[test]
    fn worker_runs_jobs_in_order_with_exclusive_state() {
        let w = Worker::spawn(Vec::<u32>::new());
        for i in 0..100 {
            w.call(move |v| v.push(i)).unwrap();
        }
        let out = w.call(|v| v.clone()).unwrap();
        assert_eq!(out, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn named_worker_thread_carries_its_name() {
        let name = |_: &mut ()| std::thread::current().name().map(String::from);
        let w = Worker::spawn_named("ccopt-shard-7".to_string(), ());
        // A queued job runs on the worker thread...
        let queued = w.submit(name).unwrap().wait().unwrap();
        assert_eq!(queued.as_deref(), Some("ccopt-shard-7"));
        let unnamed = Worker::spawn(());
        assert_eq!(unnamed.submit(name).unwrap().wait().unwrap(), None);
        // ...and has left the mailbox by the time its reply is in, so a
        // call right after runs on the caller's.
        assert_eq!(w.queue_len(), 0, "a collected reply has left the mailbox");
        let here = std::thread::current().name().map(String::from);
        assert!(here.is_some(), "the test harness names its threads");
        assert_eq!(w.call(name).unwrap(), here);
        assert_eq!(w.queue_len(), 0, "an inline call never enters the mailbox");
    }

    #[test]
    fn call_behind_a_queued_job_keeps_fifo_on_the_worker_thread() {
        let w = Worker::spawn_named("fifo".to_string(), Vec::<u32>::new());
        let (gate_tx, gate_rx) = channel::<()>();
        let _stalled = w
            .submit(move |v| {
                let _ = gate_rx.recv();
                v.push(1);
            })
            .unwrap();
        let (thread, seen) = std::thread::scope(|scope| {
            // Open the gate only once the call sits in the mailbox behind
            // the stalled job.
            scope.spawn(|| {
                while w.queue_len() < 2 {
                    std::thread::yield_now();
                }
                gate_tx.send(()).unwrap();
            });
            w.call(|v| {
                v.push(2);
                (std::thread::current().name().map(String::from), v.clone())
            })
            .unwrap()
        });
        assert_eq!(thread.as_deref(), Some("fifo"), "queued, not inline");
        assert_eq!(seen, vec![1, 2], "the call ran after the job ahead of it");
    }

    #[test]
    fn inline_calls_and_queued_jobs_interleave_in_submission_order() {
        // Each call finds the job submitted just before it either still
        // queued (and goes behind it) or done (and runs inline): the
        // sequence must replay exactly whichever way each step falls.
        let w = Worker::spawn(Vec::<u32>::new());
        for i in 0..10_000 {
            if i % 2 == 0 {
                let _ = w.submit(move |v| v.push(i)).unwrap();
            } else {
                w.call(move |v| v.push(i)).unwrap();
            }
        }
        let out = w.call(|v| v.clone()).unwrap();
        assert_eq!(out, (0..10_000).collect::<Vec<_>>());
    }

    #[test]
    fn workers_fan_out_and_collect() {
        let workers: Vec<Worker<u64>> = (0..4).map(Worker::spawn).collect();
        let replies: Vec<Reply<u64>> = workers
            .iter()
            .map(|w| w.submit(|s| std::mem::replace(s, *s * 10)).unwrap())
            .collect();
        let got: Vec<u64> = replies.into_iter().map(|r| r.wait().unwrap()).collect();
        assert_eq!(got, vec![0, 1, 2, 3]);
        let after: Vec<u64> = workers.iter().map(|w| w.call(|s| *s).unwrap()).collect();
        assert_eq!(after, vec![0, 10, 20, 30]);
    }

    #[test]
    fn drop_joins_and_releases_state() {
        let flag = Arc::new(AtomicBool::new(false));
        let w = Worker::spawn(Flagged(flag.clone()));
        w.call(|_| ()).unwrap();
        drop(w);
        assert!(flag.load(Ordering::SeqCst), "state must drop before join");
    }

    #[test]
    fn panicking_job_kills_worker_not_process() {
        let w = Worker::spawn(0u32);
        let r = w.submit(|_| panic!("injected")).unwrap().wait();
        assert_eq!(r, Err(WorkerError));
        // The error return is the definitive death signal; the liveness
        // flag flips moments later (the reply channel drops during the
        // unwind, before the worker loop observes the panic).
        while w.is_alive() {
            std::thread::yield_now();
        }
        // Every later interaction is a clean error, never a panic.
        assert_eq!(w.submit(|s| *s).unwrap_err(), WorkerError);
        assert_eq!(w.call(|s| *s), Err(WorkerError));
    }

    #[test]
    fn panic_drops_state_on_worker_thread() {
        let flag = Arc::new(AtomicBool::new(false));
        let w = Worker::spawn(Flagged(flag.clone()));
        let bomb = w.submit(|_| panic!("injected")).unwrap();
        assert!(bomb.wait().is_err());
        // The catch-unwind path drops the state at the point of death;
        // wait for the worker thread to finish doing so.
        while !flag.load(Ordering::SeqCst) {
            std::thread::yield_now();
        }
        assert!(!w.is_alive());
    }

    #[test]
    fn inline_panic_kills_the_worker_before_call_returns() {
        let flag = Arc::new(AtomicBool::new(false));
        let mut w = Worker::spawn(Flagged(flag.clone()));
        assert_eq!(w.queue_len(), 0);
        // The mailbox is empty: the bomb runs — and is caught — right
        // here, and this thread survives it.
        assert_eq!(w.call(|_| panic!("injected")), Err(WorkerError));
        assert!(flag.load(Ordering::SeqCst), "state dropped in place");
        assert!(!w.is_alive());
        assert_eq!(w.queue_len(), 0);
        assert_eq!(w.call(|_| ()), Err(WorkerError));
        assert_eq!(w.submit(|_| ()).unwrap_err(), WorkerError);
        // The worker thread is still parked on its mailbox; closing it
        // lets the join return.
        w.shutdown();
        assert_eq!(w.call(|_| ()), Err(WorkerError));
    }

    #[test]
    fn queued_jobs_after_panic_resolve_as_errors() {
        let w = Worker::spawn(0u64);
        // A slow first job keeps the mailbox backed up so the panic and
        // the victims are all queued together.
        let _slow = w
            .submit(|_| std::thread::sleep(std::time::Duration::from_millis(20)))
            .unwrap();
        let bomb = w.submit(|_| panic!("injected")).unwrap();
        let victims: Vec<Reply<u64>> = (0..4).map(|_| w.submit(|s| *s).unwrap()).collect();
        assert!(bomb.wait().is_err());
        for v in victims {
            assert_eq!(v.wait(), Err(WorkerError));
        }
    }

    #[test]
    fn shutdown_joins_and_closes_the_mailbox() {
        let mut w = Worker::spawn(5u32);
        assert_eq!(w.call(|s| *s).unwrap(), 5);
        w.shutdown();
        assert!(!w.is_alive());
        assert_eq!(w.call(|s| *s), Err(WorkerError));
        assert!(w.submit(|s| *s).is_err());
        // Shutting down twice is fine.
        w.shutdown();
    }
}
