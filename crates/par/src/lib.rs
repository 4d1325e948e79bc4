//! # `ccopt-par` — a thread-free fault domain
//!
//! One primitive, built on the standard library alone: [`Worker`], a
//! piece of state owned by one *token* and reached only through
//! [`Worker::call`], which runs a `FnOnce(&mut T)` job on the calling
//! thread with exclusive `&mut T`. The engine's sharded database holds
//! one per shard (`ccopt-engine::shard`) and calls every shard job on its
//! own thread; the fsyncs of a durable round overlap on the logs' syncer
//! threads (`ccopt-durability`), not here. The worker starts no thread.
//!
//! ## Fault containment
//!
//! A worker is a *fault domain*: each job runs under
//! [`std::panic::catch_unwind`], so a panicking job kills only its own
//! worker, never the process nor the calling thread. The state is dropped
//! at the point of death, before `call` returns — for a shard database
//! this closes its write-ahead log *without* a final flush, which is
//! exactly crash semantics: recovery replays the durable prefix. After
//! death every call returns [`WorkerError`] instead of panicking, so a
//! supervisor can detect the crash, fail the in-flight work, and replace
//! the worker.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

/// The worker died (a previous job panicked) before — or while — running
/// the call that returned this error.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WorkerError;

impl std::fmt::Display for WorkerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "worker dead (a job panicked)")
    }
}

impl std::error::Error for WorkerError {}

/// A piece of state `T` owned by one token, run on by one job at a time.
///
/// Each [`call`](Worker::call) takes the token and runs its job with
/// exclusive `&mut T`, on the caller's thread; calls from one thread run
/// in call order. `T` needs no internal synchronization, and dropping the
/// worker drops `T` in place.
///
/// A job that panics kills the worker, not the process: the panic is
/// caught, the state is dropped mid-flight (as a crash would leave it)
/// before `call` returns, and every later call returns [`WorkerError`].
pub struct Worker<T> {
    /// The ownership token: whoever holds the lock runs the next job.
    /// `None` once the worker is dead — the state has been dropped.
    state: Mutex<Option<T>>,
    alive: AtomicBool,
}

impl<T> Worker<T> {
    /// Put `state` behind a fresh fault domain. Starts no thread: every
    /// job runs on the thread that calls it.
    pub fn spawn(state: T) -> Worker<T> {
        Worker {
            state: Mutex::new(Some(state)),
            alive: AtomicBool::new(true),
        }
    }

    /// Whether no job has panicked yet. One atomic load: it never waits
    /// for a job in flight (whose panic a `true` may miss); `false` is
    /// definitive.
    pub fn is_alive(&self) -> bool {
        self.alive.load(Ordering::Acquire)
    }

    /// Run `f` on the state, here, and return its result, or
    /// [`WorkerError`] when the worker is dead or dies running `f`.
    pub fn call<R>(&self, f: impl FnOnce(&mut T) -> R) -> Result<R, WorkerError> {
        let mut token = self
            .state
            .lock()
            .expect("a job's panic is caught before it can poison the token");
        let state = token.as_mut().ok_or(WorkerError)?;
        catch_unwind(AssertUnwindSafe(|| f(state))).map_err(|_| {
            // Mark the domain dead *before* dropping the state, so no
            // observer sees a live flag over a dropped state. Dropping
            // here, mid-flight and under the token, gives crash semantics
            // to whatever the state owns: a WAL file closes without a
            // final flush, so recovery sees exactly the durable prefix.
            self.alive.store(false, Ordering::Release);
            *token = None;
            WorkerError
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

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
        assert_eq!(w.call(|_| panic!("injected")), Err(WorkerError));
        assert!(!w.is_alive());
        // Every later call is a clean error, never a panic.
        assert_eq!(w.call(|s| *s), Err(WorkerError));
        assert_eq!(w.call(|_| ()), Err(WorkerError));
    }

    #[test]
    fn inline_panic_kills_the_worker_before_call_returns() {
        let flag = Arc::new(AtomicBool::new(false));
        let w = Worker::spawn(Flagged(flag.clone()));
        w.call(|_| ()).unwrap();
        assert!(!flag.load(Ordering::SeqCst));
        // The bomb runs — and is caught — right here, and this thread
        // survives it.
        assert_eq!(w.call(|_| panic!("injected")), Err(WorkerError));
        assert!(flag.load(Ordering::SeqCst), "state dropped in place");
        assert!(!w.is_alive());
    }
}
