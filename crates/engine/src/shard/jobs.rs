//! The operation path: the scatter/gather primitive every coordinator →
//! shard interaction goes through, the shard-job executor (the only code
//! that runs data operations on a shard), and grouped submission.

use super::{GlobalTxn, ShardedDb, SubState};
use crate::session::{Op, SessionDb, SessionError, Txn};
use ccopt_durability::WalError;
use ccopt_model::ids::VarId;
use ccopt_model::syntax::StepKind;
use ccopt_model::value::Value;
use ccopt_par::{Worker, WorkerError};

/// One reply per job, tagged with its shard, in job order (`Err`: the
/// shard's worker was dead, or died running the job).
pub(super) type Replies<R> = Vec<(usize, Result<R, WorkerError>)>;

/// Whether a round overlaps its shards' fsyncs, and if so how the
/// outcome of a job's deferred fsync enters the job's reply: the merge
/// returns the reply, an error in it, or panics (killing the shard) when
/// the job's contract makes a log failure fatal.
pub(super) type Overlap<R> = Option<fn(R, Result<(), WalError>) -> R>;

/// The scatter/gather primitive — the one place that runs shard jobs.
/// Every job is a [`Worker::call`] on this thread, in order. With an
/// [`Overlap`] (a round whose jobs force a log fsync, on a database with
/// logs) every job but the last hands the fsync it forces to its log's
/// syncer thread and returns once its records are written
/// ([`SessionDb::defer_log_syncs`]); the last syncs here, and then each
/// deferred fsync is waited for, in order, and merged into its job's
/// reply. So the shards' fsyncs are in flight together.
pub(super) fn gather<R, F>(
    workers: &[Worker<SessionDb>],
    overlap: Overlap<R>,
    jobs: impl IntoIterator<Item = (usize, F)>,
) -> Replies<R>
where
    F: FnOnce(&mut SessionDb) -> R,
{
    let call = |(s, job): (usize, F)| (s, workers[s].call(job));
    let Some(merge) = overlap else {
        return jobs.into_iter().map(call).collect();
    };
    let mut jobs: Vec<_> = jobs.into_iter().collect();
    let last = jobs.pop();
    let deferred: Vec<_> = jobs
        .into_iter()
        .map(|(s, job)| {
            let reply = workers[s].call(|db: &mut SessionDb| {
                db.defer_log_syncs();
                job(db)
            });
            (s, reply)
        })
        .collect();
    let last = last.map(call);
    let waited = deferred.into_iter().map(|(s, reply)| {
        let finish = |out| workers[s].call(|db: &mut SessionDb| merge(out, db.finish_log_syncs()));
        (s, reply.and_then(finish))
    });
    waited.chain(last).collect()
}

/// One operation of a grouped submission ([`ShardedDb::submit_group`]).
///
/// The closed set of step shapes a [`ShardedDb`] runs, and the ones the
/// wire protocol expresses. Each is plain data — an update is affine, not
/// a closure — so a whole run of operations is one shard message (one
/// job under the shard's token), and every transaction reaching a shard
/// is a declared list of reads and writes. ([`SessionDb`]'s `update`
/// keeps its closure.)
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BatchOp {
    /// Observe a variable.
    Read(VarId),
    /// Blind-write a value (the observed old value rides along).
    Write(VarId, Value),
    /// Read-modify-write `v ← a·v + c` ([`affine_eval`]).
    Affine {
        /// The updated variable.
        var: VarId,
        /// Multiplier.
        a: i64,
        /// Offset.
        c: i64,
    },
}

impl BatchOp {
    /// The variable the operation touches (what routes it to a shard).
    pub fn var(&self) -> VarId {
        match *self {
            BatchOp::Read(v) | BatchOp::Write(v, _) => v,
            BatchOp::Affine { var, .. } => var,
        }
    }
}

/// One transaction's contribution to a [`ShardedDb::submit_group`] call:
/// a run of operations (possibly empty) and, optionally, the
/// transaction's commit piggybacked on the same shard message.
#[derive(Clone, Debug)]
pub struct GroupReq {
    /// The transaction the run belongs to.
    pub h: GlobalTxn,
    /// The operations, in program order (may be empty for a commit-only
    /// request).
    pub ops: Vec<BatchOp>,
    /// Attempt to commit (and retire) after the run; honored only when
    /// every operation completes [`Op::Done`].
    pub commit: bool,
}

/// What one [`GroupReq`] came to.
#[derive(Clone, Debug)]
pub struct GroupResp {
    /// Per-operation outcomes under the partial-batch contract of
    /// [`ShardedDb::submit_group`]: in submission order, stopping at the
    /// first non-[`Op::Done`] outcome.
    pub results: Result<Vec<Op<Value>>, SessionError>,
    /// The commit outcome; `None` when no commit was requested or the
    /// run did not complete. On `Ok(Op::Done(()))` the transaction was
    /// also retired — the handle is dead.
    pub commit: Option<Result<Op<()>, SessionError>>,
}

/// What a [`Job`] does once its whole run completed [`Op::Done`].
#[derive(Clone, Copy, PartialEq, Eq)]
enum Finish {
    /// Nothing: the transaction stays open.
    None,
    /// Attempt the single-shard commit.
    Commit,
    /// Attempt the commit and, when it lands, retire the sub-transaction
    /// in the same message.
    CommitRetire,
}

/// One transaction's work inside one shard message
/// ([`ShardedDb::shard_jobs`]).
struct Job {
    /// The transaction's coordinator slot (echoed in the [`JobOut`]).
    ti: usize,
    /// The open sub-transaction; `None` when the transaction has not
    /// touched this shard yet — the begin (at `gts`) rides this message.
    sub: Option<Txn>,
    gts: u64,
    /// Operations with their shard-local variable ids, in program order.
    run: Vec<(VarId, BatchOp)>,
    finish: Finish,
    /// The shard GC floor for the commit (read only when `finish`
    /// commits).
    floor: u64,
}

/// What one [`Job`] came to on its shard.
struct JobOut {
    ti: usize,
    sub: Txn,
    /// Per-operation outcomes, stopping at the first non-`Done`.
    results: Vec<Op<Value>>,
    /// Restart stamp consumed by this job (ops or commit).
    consumed: Option<u64>,
    commit: Option<Op<()>>,
    retired: bool,
}

/// A job's adopted outcome: per-operation results, and the commit's when one
/// was attempted. [`Settled`] is that, or what kept the job from running.
type Adopted = (Vec<Op<Value>>, Option<Op<()>>);
type Settled = Result<Adopted, SessionError>;

/// The affine update function of [`BatchOp::Affine`]: `a·v + c` over
/// wrapping `i64` arithmetic, reading booleans as 0/1 and symbolic terms
/// as 0 (total, so a malformed wire request can never panic a shard).
/// Public so wire clients can predict a served update's result exactly —
/// the served-vs-in-process differential test leans on this.
pub fn affine_eval(a: i64, c: i64, observed: Value) -> Value {
    let v = observed.as_int().unwrap_or(0);
    Value::Int(a.wrapping_mul(v).wrapping_add(c))
}

impl ShardedDb {
    /// [`gather`], then supervise every shard whose worker turned out
    /// dead — only once the last reply is in, so a restart never runs
    /// under a round still in flight.
    pub(super) fn scatter<R, F>(
        &mut self,
        overlap: Overlap<R>,
        jobs: impl IntoIterator<Item = (usize, F)>,
    ) -> Replies<R>
    where
        F: FnOnce(&mut SessionDb) -> R,
    {
        let replies = gather(&self.workers, overlap, jobs);
        self.supervise_dead(&replies);
        replies
    }

    // ----------------------------------------------------------- operations

    /// Submit a group of **independent transactions'** runs in as few
    /// shard messages as possible (the server's engine collects
    /// requests from many connections into one group per pass; a lone
    /// request is a group of one).
    ///
    /// Requests whose operations (and prior shard footprint) sit on a
    /// single shard are packed into **one message per shard**, carrying
    /// every such transaction's lazy begin and run — and, when
    /// [`commit`](GroupReq::commit) is set, its single-shard commit and
    /// retire too, so a whole k-op transaction costs one round trip
    /// instead of `k + 2`. Groups execute in first-appearance order of
    /// their shard; requests that span shards follow in submission
    /// order, one message per maximal same-shard run of their operations,
    /// then the ordinary [`commit`](Self::commit) (two-phase when the
    /// footprint spans shards).
    ///
    /// **Partial-batch contract**, per request: outcomes come back per
    /// operation, in submission order, and execution stops at the first
    /// non-[`Op::Done`] outcome — operations after it are **not
    /// attempted** (the results are short). A trailing [`Op::Wait`] means
    /// retry from that operation; a trailing [`Op::Restarted`] means the
    /// whole global transaction restarted and the client replays its
    /// program. The piggybacked commit is attempted only when every
    /// operation completed `Done` ([`GroupResp::commit`] is `None`
    /// otherwise). A committed request is also retired — its handle is
    /// dead on return. A request whose handle already appeared earlier in
    /// the same call joins the sequential tail: it runs after the packed
    /// messages, pre-flighted again, so it sees what the earlier request
    /// left (a committed handle answers [`SessionError::Stale`]).
    ///
    /// **Equivalence contract** (proved by the batched differential
    /// suite): the outcomes are bit-identical to driving the same
    /// requests sequentially in the canonical order above, one call per
    /// operation (a one-op request) and then a zero-op commit request —
    /// the wire's per-operation shape. Both run on the one shard-job
    /// executor, which consumes restart timestamps *lazily inside the
    /// shard*, exactly the stamp sequence one message per operation
    /// issues. One intentional divergence: the GC floor of a piggybacked
    /// commit is computed at submission (pessimistically low), so
    /// multi-version reclamation *timing* may differ; no concurrency
    /// decision reads the floor, so outcomes and final state do not.
    ///
    /// The requests are only read: pass them owned, or lend them when
    /// their operations are needed afterwards.
    pub fn submit_group(&mut self, reqs: impl AsRef<[GroupReq]>) -> Vec<GroupResp> {
        let reqs = reqs.as_ref();
        let mut resps: Vec<GroupResp> = (0..reqs.len())
            .map(|_| GroupResp {
                results: Ok(Vec::new()),
                commit: None,
            })
            .collect();
        // Classify: pack single-shard requests per shard, keep the rest
        // (cross-shard footprints, trivial no-touch commits, repeated
        // handles) for the sequential tail. A refused request is in
        // neither — its error already sits in its response.
        let mut packed: Vec<Vec<(usize, usize)>> = vec![Vec::new(); self.workers.len()];
        let mut shard_order: Vec<usize> = Vec::new();
        let mut tail: Vec<usize> = Vec::new();
        self.groups += 1;
        for (k, req) in reqs.iter().enumerate() {
            let ti = match self.preflight(req) {
                Ok(ti) => ti,
                Err(e) => {
                    resps[k].results = Err(e);
                    continue;
                }
            };
            // A handle seen earlier in this call, or a cross-shard commit
            // retry (the tail's generic commit path resumes the two-phase
            // protocol).
            let seen = std::mem::replace(&mut self.slots[ti].group, self.groups) == self.groups;
            if seen || self.is_prepared(ti) {
                tail.push(k);
                continue;
            }
            // The request's whole footprint: shards its ops touch plus
            // shards already engaged by earlier operations.
            let mut footprint = req
                .ops
                .iter()
                .map(|op| self.partition.shard_of(op.var()))
                .chain(self.slots[ti].touched.iter().map(|&s| s as usize));
            match footprint.next() {
                Some(si) if footprint.all(|s| s == si) => {
                    if packed[si].is_empty() {
                        shard_order.push(si);
                    }
                    packed[si].push((k, ti));
                }
                // Cross-shard, or no ops and nothing touched: a trivial
                // commit (or a no-op), handled in the tail without any
                // message.
                _ => tail.push(k),
            }
        }
        // One message per shard, in first-appearance order.
        for si in shard_order {
            let members = std::mem::take(&mut packed[si]);
            let jobs = members
                .iter()
                .map(|&(k, ti)| {
                    let finish = if reqs[k].commit {
                        Finish::CommitRetire
                    } else {
                        Finish::None
                    };
                    self.job(ti, si, self.localize(&reqs[k].ops), finish)
                })
                .collect();
            for (&(k, _), settled) in members.iter().zip(self.shard_jobs(si, jobs)) {
                match settled {
                    Ok((results, commit)) => {
                        resps[k].results = Ok(results);
                        resps[k].commit = commit.map(Ok);
                    }
                    Err(e) => resps[k].results = Err(e),
                }
            }
        }
        // The sequential tail: cross-shard and trivial requests, in
        // submission order.
        for k in tail {
            let req = &reqs[k];
            // Pre-flighted again: a packed group above may have crashed a
            // shard this transaction had state on, and an earlier request
            // on the same handle may have ended or prepared it.
            let ran = self
                .preflight(req)
                .and_then(|ti| self.run_across(ti, &req.ops));
            let complete = matches!(&ran, Ok(rs) if rs.len() == req.ops.len()
                && rs.iter().all(|r| matches!(r, Op::Done(_))));
            resps[k].results = ran;
            if complete && req.commit {
                let c = self.commit(req.h);
                if let Ok(Op::Done(())) = c {
                    let _ = self.retire(req.h);
                }
                resps[k].commit = Some(c);
            }
        }
        resps
    }

    /// The slot of a request's transaction when the request may run now:
    /// the transaction is running and, while a partially prepared commit
    /// is in flight (some shard's vote said wait), the request is the
    /// commit retry — no operations.
    fn preflight(&self, req: &GroupReq) -> Result<usize, SessionError> {
        let ti = self.running(req.h)?;
        if self.is_prepared(ti) && !(req.ops.is_empty() && req.commit) {
            return Err(SessionError::Prepared);
        }
        Ok(ti)
    }

    /// Run a cross-shard request's operations for slot `ti`: one job per
    /// maximal run of consecutive operations owned by the same shard, in
    /// program order, stopping at the first non-[`Op::Done`] outcome.
    fn run_across(&mut self, ti: usize, ops: &[BatchOp]) -> Result<Vec<Op<Value>>, SessionError> {
        let mut out = Vec::with_capacity(ops.len());
        while out.len() < ops.len() {
            let rest = &ops[out.len()..];
            let si = self.partition.shard_of(rest[0].var());
            let len = rest
                .iter()
                .take_while(|op| self.partition.shard_of(op.var()) == si)
                .count();
            let run = self.localize(&rest[..len]);
            let (results, _) = self.shard_job(si, self.job(ti, si, run, Finish::None))?;
            out.extend(results);
            if !matches!(out.last(), Some(Op::Done(_))) {
                break;
            }
        }
        Ok(out)
    }

    /// A same-shard run of operations, each under its shard-local id.
    fn localize(&self, ops: &[BatchOp]) -> Vec<(VarId, BatchOp)> {
        ops.iter()
            .map(|op| (self.partition.local(op.var()), *op))
            .collect()
    }

    /// Slot `ti`'s job on shard `si`. The caller has pre-flighted the
    /// transaction: running, with no vote outstanding.
    fn job(&self, ti: usize, si: usize, run: Vec<(VarId, BatchOp)>, finish: Finish) -> Job {
        let sl = &self.slots[ti];
        Job {
            ti,
            sub: match sl.subs[si] {
                SubState::Running(sub) => Some(sub),
                SubState::Absent => None,
                SubState::Prepared(_) => unreachable!("prepared transactions are refused"),
            },
            gts: sl.gts,
            run,
            finish,
            floor: match finish {
                Finish::None => 0,
                Finish::Commit | Finish::CommitRetire => self.min_active_gts(ti),
            },
        }
    }

    /// The single-shard commit — such transactions never prepare: a
    /// zero-op job that commits.
    pub(super) fn commit_local(&mut self, ti: usize, si: usize) -> Result<Op<()>, SessionError> {
        let job = self.job(ti, si, Vec::new(), Finish::Commit);
        let (_, commit) = self.shard_job(si, job)?;
        Ok(commit.expect("a zero-op run is all done, so the job commits"))
    }

    /// One job, alone in its message.
    fn shard_job(&mut self, si: usize, job: Job) -> Settled {
        self.shard_jobs(si, vec![job])
            .pop()
            .expect("one job, one outcome")
    }

    /// The shard-job executor — the only code that runs data operations
    /// on a shard: one message carrying every job (lazy begin, run,
    /// optional commit + retire), executed back-to-back under shard
    /// `si`'s ownership token, each outcome [`adopt`](Self::adopt)ed into
    /// its coordinator slot. Outcomes come back in job order.
    fn shard_jobs(&mut self, si: usize, jobs: Vec<Job>) -> Vec<Settled> {
        if self.down[si] {
            // The owning shard is permanently down (unrecoverable
            // storage); the rest of the database keeps serving.
            return jobs.iter().map(|_| Err(SessionError::ShardDown)).collect();
        }
        self.shard_msgs += 1;
        self.batched_ops += jobs.iter().map(|j| j.run.len()).sum::<usize>();
        let sent = jobs.len();
        // Restart stamps are consumed lazily, inside the shard, in
        // execution order: a shard-local restart happens in place, before
        // we see the outcome, so each job reserves (without consuming)
        // `cur + 1`, and `cur` advances only when a restart takes it.
        let base = self.next_gts;
        let job = move |db: &mut SessionDb| {
            let mut cur = base;
            let mut outs: Vec<JobOut> = Vec::with_capacity(jobs.len());
            for job in jobs {
                let sub = match job.sub {
                    Some(s) => s,
                    None => db.begin_with_ts(job.gts),
                };
                let mut results = Vec::with_capacity(job.run.len());
                let mut all_done = true;
                db.set_restart_ts(cur + 1);
                for (lv, op) in job.run {
                    let r = match op {
                        BatchOp::Read(_) => db.apply(sub, lv, StepKind::Read, |v| v),
                        BatchOp::Write(_, val) => db.apply(sub, lv, StepKind::Write, move |_| val),
                        BatchOp::Affine { a, c, .. } => {
                            db.apply(sub, lv, StepKind::Update, move |v| affine_eval(a, c, v))
                        }
                    }
                    .expect("sub is live");
                    results.push(r);
                    if !matches!(r, Op::Done(_)) {
                        all_done = false;
                        break;
                    }
                }
                let mut commit = None;
                let mut retired = false;
                if job.finish != Finish::None && all_done {
                    db.set_gc_floor(job.floor);
                    db.set_restart_ts(cur + 1);
                    let r = db.commit(sub).expect("sub is live");
                    if r == Op::Done(()) && job.finish == Finish::CommitRetire {
                        db.retire(sub).expect("sub is committed");
                        retired = true;
                    }
                    commit = Some(r);
                }
                // The run stops at its first non-`Done` outcome and the
                // commit follows an all-`Done` run, so at most one of
                // them restarted — consuming the reserved stamp.
                let restarted =
                    matches!(results.last(), Some(Op::Restarted)) || commit == Some(Op::Restarted);
                if restarted {
                    cur += 1;
                }
                outs.push(JobOut {
                    ti: job.ti,
                    sub,
                    results,
                    consumed: restarted.then_some(cur),
                    commit,
                    retired,
                });
            }
            outs
        };
        let Some((_, Ok(outs))) = self.scatter(None, [(si, job)]).pop() else {
            // The shard's worker died running this message (or before),
            // and the scatter supervised the crash — restarted the shard
            // from its log, failed every transaction with state there.
            // Report the loss. A commit in the message was never
            // acknowledged; the recovered log decides it (as after any
            // crash, an unacknowledged commit may legitimately have
            // landed). A transaction whose begin was in the message holds
            // nothing on the crashed shard, but its program needs the
            // variable: either way the client sees the standard
            // crashed-shard error, aborts and re-runs.
            return (0..sent).map(|_| Err(SessionError::ShardDown)).collect();
        };
        outs.into_iter()
            .map(|out| Ok(self.adopt(si, out)))
            .collect()
    }

    /// Fold one job's outcome into its coordinator slot: install the
    /// sub-transaction the message began, count a wait, adopt a consumed
    /// restart stamp as the transaction's new global attempt, record the
    /// commit. (A run stops at its first non-`Done` outcome and commits
    /// only after an all-`Done` run, so at most one of these happened.)
    fn adopt(&mut self, si: usize, out: JobOut) -> Adopted {
        let ti = out.ti;
        if matches!(self.slots[ti].subs[si], SubState::Absent) {
            self.slots[ti].subs[si] = SubState::Running(out.sub);
            self.slots[ti].touched.push(si as u32);
        }
        if matches!(out.results.last(), Some(Op::Wait)) || out.commit == Some(Op::Wait) {
            self.waits += 1;
        }
        if let Some(stamp) = out.consumed {
            // The shard already restarted the sub in place at `stamp`.
            self.next_gts = self.next_gts.max(stamp);
            self.global_restart_keeping(ti, Some(si), stamp);
        }
        if out.commit == Some(Op::Done(())) {
            self.land(ti, false);
            if out.retired {
                self.retires += 1;
                self.free_slot(ti);
            }
        }
        (out.results, out.commit)
    }
}
