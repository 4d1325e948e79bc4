//! The in-process driver: one thread multiplexing [`LIB_SESSIONS`] open
//! sessions over a [`SessionDb`], round-robin, one operation per turn.
//!
//! Livelock-proofing: a pure round-robin with immediate replay stopped
//! committing for good in the prototype (every session stuck at 6-59
//! attempts of strict-2PL). After `Op::Restarted` a session therefore
//! sits out a seeded U[1, 32 x attempt] turns (a flat U[1,32] still
//! abandoned ~40 transactions per million on the hot set), a
//! transaction is abandoned after [`MAX_ATTEMPTS`], and a watchdog
//! fails the run when no commit lands for [`STALL`]. No timer feeds a
//! decision, so with a commit-count stop every counter repeats exactly.
//!
//! The engine begins the fresh attempt the moment it answers
//! `Restarted`, so its snapshot or timestamp would age through the
//! sit-out and lose again for certain (SI writers starved this way).
//! The driver therefore aborts that attempt and begins anew when the
//! session resumes — what a client that backs off does.

use crate::gen::{op_is_rmw, op_var, rmw_count, Pool, LIB_SESSIONS};
use crate::stats::{sample_ns, SliceSummary};
use ccopt_engine::{affine_eval, cc_by_name, Op, SessionDb, Txn};
use ccopt_model::{GlobalState, Value};
use rand::rngs::SmallRng;
use rand::Rng;
use std::time::{Duration, Instant};

/// Attempts after which a transaction is abandoned and counted failed.
/// A program with several hot read-modify-writes loses ~4 of 5 attempts
/// to deadlock victims on `lib_2pl_hot` whatever it sits out, so a cap
/// of 64 still failed about one transaction per million; 256 leaves the
/// workload without failed operations.
pub const MAX_ATTEMPTS: u32 = 256;
/// No-progress bound of the watchdog.
pub const STALL: Duration = Duration::from_secs(2);

/// When a run of the driver ends.
#[derive(Clone, Copy, Debug)]
pub enum Stop {
    /// Measure `n` wall-clock slices of `secs` seconds each.
    Slices { n: usize, secs: f64 },
    /// Stop at exactly this many further commits (deterministic).
    Commits(u64),
}

/// Cumulative counters of a driver (since construction).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LibCounters {
    /// Transactions begun.
    pub begun: u64,
    pub commits: u64,
    /// Transactions given up after [`MAX_ATTEMPTS`].
    pub abandoned: u64,
    /// `Op::Restarted` outcomes (each starts a further attempt).
    pub restarts: u64,
    /// `Op::Wait` outcomes.
    pub waits: u64,
    /// Read-modify-writes of committed transactions.
    pub committed_rmw: u64,
    /// Largest `SessionDb::live_versions` seen (0 on single-version).
    pub live_versions_peak: usize,
}

impl LibCounters {
    /// Attempts started per committed transaction: the restart storm as
    /// a number, not a hang.
    pub fn attempts_per_commit(&self) -> f64 {
        (self.begun + self.restarts) as f64 / self.commits.max(1) as f64
    }

    pub fn waits_per_commit(&self) -> f64 {
        self.waits as f64 / self.commits.max(1) as f64
    }
}

struct Sess {
    h: Option<Txn>,
    /// Pool index of the program being run.
    prog: usize,
    pc: usize,
    attempts: u32,
    sit_out: u32,
    started: Instant,
}

pub struct LibDriver {
    pub db: SessionDb,
    pool: Pool,
    next: usize,
    sessions: Vec<Sess>,
    rng: SmallRng,
    pub counters: LibCounters,
}

impl LibDriver {
    /// A volatile database of `num_vars` zeroed variables under `cc`.
    pub fn new(cc: &str, num_vars: usize, pool: Pool, rng: SmallRng) -> LibDriver {
        let cc = cc_by_name(cc).expect("canonical mechanism name");
        let init = GlobalState::from_ints(&vec![0i64; num_vars]);
        let now = Instant::now();
        LibDriver {
            db: SessionDb::with_capacity(cc, init, LIB_SESSIONS),
            pool,
            next: 0,
            sessions: (0..LIB_SESSIONS)
                .map(|_| Sess {
                    h: None,
                    prog: 0,
                    pc: 0,
                    attempts: 0,
                    sit_out: 0,
                    started: now,
                })
                .collect(),
            rng,
            counters: LibCounters::default(),
        }
    }

    /// Drive until `stop`; returns the measured slices (none under
    /// [`Stop::Commits`]). `Err` when the watchdog fires.
    pub fn run(&mut self, stop: Stop) -> Result<Vec<SliceSummary>, String> {
        let (want_slices, slice_len) = match stop {
            Stop::Slices { n, secs } => (n, Duration::from_secs_f64(secs)),
            Stop::Commits(_) => (0, Duration::MAX),
        };
        let commit_goal = match stop {
            Stop::Commits(n) => self.counters.commits + n,
            Stop::Slices { .. } => u64::MAX,
        };
        let mut slices = Vec::with_capacity(want_slices);
        let mut samples: Vec<u32> = Vec::new();
        let mut slice_start = Instant::now();
        let mut last_commit = slice_start;
        let mut turns = 0u64;
        loop {
            for i in 0..self.sessions.len() {
                turns += 1;
                if turns.is_multiple_of(4096) && last_commit.elapsed() > STALL {
                    return Err(format!(
                        "watchdog: no commit for {STALL:?} ({} commits so far)",
                        self.counters.commits
                    ));
                }
                let s = &mut self.sessions[i];
                if s.sit_out > 0 {
                    s.sit_out -= 1;
                    continue;
                }
                let h = match s.h {
                    Some(h) => h,
                    // Resuming after a sit-out: same program, new attempt.
                    None if s.attempts > 0 => *s.h.insert(self.db.begin()),
                    None => {
                        s.prog = self.next;
                        self.next += 1;
                        s.pc = 0;
                        s.attempts = 1;
                        s.started = Instant::now();
                        self.counters.begun += 1;
                        *s.h.insert(self.db.begin())
                    }
                };
                let prog = self.pool.txn(s.prog);
                let committing = s.pc == prog.len();
                let outcome = if committing {
                    self.db.commit(h).expect("live handle")
                } else {
                    let op = prog[s.pc];
                    let r = if op_is_rmw(op) {
                        self.db.update(h, op_var(op), |v| affine_eval(1, 1, v))
                    } else {
                        self.db.read(h, op_var(op))
                    };
                    r.expect("live handle").map_done(|_| ())
                };
                match outcome {
                    Op::Done(()) if !committing => s.pc += 1,
                    Op::Done(()) => {
                        self.db.retire(h).expect("committed handle");
                        s.h = None;
                        s.attempts = 0;
                        let now = Instant::now();
                        last_commit = now;
                        self.counters.commits += 1;
                        self.counters.committed_rmw += rmw_count(prog) as u64;
                        if self.counters.commits.is_multiple_of(1024) {
                            if let Some(live) = self.db.live_versions() {
                                let peak = &mut self.counters.live_versions_peak;
                                *peak = (*peak).max(live);
                            }
                        }
                        if self.counters.commits == commit_goal {
                            return Ok(slices);
                        }
                        if want_slices == 0 {
                            continue;
                        }
                        if now.duration_since(slice_start) >= slice_len {
                            // The commit that crossed the boundary was
                            // acknowledged outside the slice. Summarising
                            // happens off the clock: the next slice starts
                            // when the sort is done.
                            slices.push(SliceSummary::from_samples(
                                &mut samples,
                                slice_len.as_secs_f64(),
                            ));
                            samples.clear();
                            if slices.len() == want_slices {
                                return Ok(slices);
                            }
                            slice_start = Instant::now();
                        } else {
                            samples.push(sample_ns(now.duration_since(s.started)));
                        }
                    }
                    Op::Wait => self.counters.waits += 1,
                    Op::Restarted => {
                        self.counters.restarts += 1;
                        self.db.abort(h).expect("running handle");
                        s.h = None;
                        s.pc = 0;
                        s.attempts += 1;
                        if s.attempts > MAX_ATTEMPTS {
                            s.attempts = 0;
                            self.counters.abandoned += 1;
                        } else {
                            s.sit_out = self.rng.gen_range(1..=32 * s.attempts);
                        }
                    }
                }
            }
        }
    }

    /// Conservation over the committed state, plus the engine's own
    /// commit count against the driver's.
    pub fn verify(&self) -> Result<(), String> {
        if self.db.metrics.commits as u64 != self.counters.commits {
            return Err(format!(
                "engine counted {} commits, the driver {}",
                self.db.metrics.commits, self.counters.commits
            ));
        }
        check_conservation(&self.db.committed_globals().0, self.counters.committed_rmw)
    }
}

/// Every variable starts at 0 and every write is `+1`, so the final
/// values must sum to the number of committed read-modify-writes.
pub fn check_conservation(finals: &[Value], committed_rmw: u64) -> Result<(), String> {
    let mut sum = 0i64;
    for (i, v) in finals.iter().enumerate() {
        let n = v
            .as_int()
            .ok_or_else(|| format!("variable {i} holds a non-integer {v:?}"))?;
        if n < 0 {
            return Err(format!("variable {i} went negative: {n}"));
        }
        sum += n;
    }
    if sum as u64 != committed_rmw {
        return Err(format!(
            "conservation broken: final values sum to {sum}, committed read-modify-writes {committed_rmw}"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{driver_rng, generate, Workload};

    fn driver(cc: &str, seed: u64) -> LibDriver {
        let w = Workload::Lib2plHot;
        LibDriver::new(
            cc,
            w.num_vars(),
            generate(w, seed, 0),
            driver_rng(w, seed, 0),
        )
    }

    #[test]
    fn conservation_checker_rejects_a_doctored_state() {
        let mut d = driver("strict-2PL", 1);
        d.run(Stop::Commits(500)).unwrap();
        d.verify().unwrap();
        let mut finals = d.db.committed_globals().0;
        check_conservation(&finals, d.counters.committed_rmw).unwrap();
        finals[17] = Value::Int(finals[17].as_int().unwrap() + 1);
        let err = check_conservation(&finals, d.counters.committed_rmw).unwrap_err();
        assert!(err.contains("conservation broken"), "{err}");
        // A lost increment is caught the same way.
        assert!(
            check_conservation(&d.db.committed_globals().0, d.counters.committed_rmw + 1).is_err()
        );
        assert!(check_conservation(&[Value::Bool(true), Value::Int(-1)], 0).is_err());
    }

    #[test]
    fn fixed_count_replays_repeat_exactly_under_every_mechanism() {
        for cc in ccopt_engine::MECHANISM_NAMES {
            let run = || {
                let mut d = driver(cc, 5);
                d.run(Stop::Commits(2_000)).unwrap();
                d.verify().unwrap();
                (d.counters, d.db.metrics.steps_executed, d.db.num_slots())
            };
            let (a, b) = (run(), run());
            assert_eq!(a, b, "{cc}");
            assert_eq!(a.0.commits, 2_000);
            assert!(a.0.attempts_per_commit() >= 1.0);
        }
    }

    #[test]
    fn timed_slices_hold_their_commits() {
        let mut d = driver("strict-2PL", 2);
        let slices = d.run(Stop::Slices { n: 2, secs: 0.05 }).unwrap();
        assert_eq!(slices.len(), 2);
        assert!(slices.iter().all(|s| s.commits > 0 && s.p50_ns > 0));
        let in_slices: usize = slices.iter().map(|s| s.commits).sum();
        assert!(in_slices as u64 <= d.counters.commits);
        d.verify().unwrap();
    }
}
