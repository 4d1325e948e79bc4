//! The served drivers: an in-process [`Server`] and closed-loop wire
//! clients, one thread and one connection each. A client sends its next
//! request only after the previous reply (database callers wait).

use crate::gen::{self, rmw_count, to_batch_op, Pool, Workload, SERVED_SHARDS};
use crate::lib_driver::{check_conservation, MAX_ATTEMPTS, STALL};
use crate::spans::{close_txn, open_txn, timed, Spans};
use crate::stats::{sample_ns, SliceSummary};
use ccopt_client::{Client, ClientError};
use ccopt_durability::DurabilityMode;
use ccopt_engine::{BatchOp, Op};
use ccopt_model::{Value, VarId};
use ccopt_net::{Server, ServerConfig, ServerStats, MAX_BATCH_OPS};
use ccopt_trace::TraceConfig;
use rand::rngs::SmallRng;
use rand::Rng;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// The server every served workload runs against: strict-2PL, 4 096
/// variables, two shards, ops-plane sampler off. `dir` switches the
/// strict-mode write-ahead logs on.
pub fn server_config(dir: Option<PathBuf>, trace: Option<TraceConfig>) -> ServerConfig {
    ServerConfig {
        cc: "strict-2PL".to_string(),
        num_vars: gen::SMALL_VARS,
        shards: SERVED_SHARDS,
        mode: if dir.is_some() {
            DurabilityMode::Strict
        } else {
            DurabilityMode::None
        },
        dir,
        trace,
        sample_interval: Duration::ZERO,
        ..ServerConfig::default()
    }
}

/// Cumulative counters of one client (since it connected).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ClientCounters {
    /// Transactions begun, shed begins included.
    pub begun: u64,
    pub commits: u64,
    /// Begins the server's admission control refused.
    pub shed_begins: u64,
    /// Transactions given up after [`MAX_ATTEMPTS`].
    pub abandoned: u64,
    pub waits: u64,
    pub restarts: u64,
    pub committed_rmw: u64,
    /// Request frames sent (each waited for its reply).
    pub requests: u64,
}

impl ClientCounters {
    pub fn failed(&self) -> u64 {
        self.shed_begins + self.abandoned
    }

    pub fn add(&mut self, o: &ClientCounters) {
        self.begun += o.begun;
        self.commits += o.commits;
        self.shed_begins += o.shed_begins;
        self.abandoned += o.abandoned;
        self.waits += o.waits;
        self.restarts += o.restarts;
        self.committed_rmw += o.committed_rmw;
        self.requests += o.requests;
    }
}

/// How a client submits a program.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Submit {
    /// `begin`, then one `batch` frame with the commit piggybacked.
    Batch,
    /// `begin`, one `update` round trip per op, `commit`.
    PerOp,
}

pub struct ClientDriver {
    client: Client,
    pool: Pool,
    next: usize,
    rng: SmallRng,
    submit: Submit,
    pub counters: ClientCounters,
    /// Span log of the traced run; `None` measures untraced.
    pub spans: Option<Spans>,
}

fn wire(what: &str, e: ClientError) -> String {
    format!("{what}: {e}")
}

impl ClientDriver {
    pub fn connect(
        addr: SocketAddr,
        pool: Pool,
        rng: SmallRng,
        submit: Submit,
    ) -> Result<ClientDriver, String> {
        let mut client = Client::connect(addr).map_err(|e| wire("connect", e))?;
        // The watchdog of a wire client: a reply that takes longer than
        // the stall bound fails the run instead of hanging it.
        client
            .set_timeout(Some(STALL))
            .map_err(|e| wire("set_timeout", e))?;
        Ok(ClientDriver {
            client,
            pool,
            next: 0,
            rng,
            submit,
            counters: ClientCounters::default(),
            spans: None,
        })
    }

    pub fn client(&mut self) -> &mut Client {
        &mut self.client
    }

    /// Seeded back-off before resending after `Op::Wait`.
    fn backoff(rng: &mut SmallRng) {
        std::thread::sleep(Duration::from_micros(rng.gen_range(20..100)));
    }

    /// Run the next program to its end. `Ok(Some(latency))` when it
    /// committed (begin call to commit acknowledged, waits and replays
    /// included), `Ok(None)` when it failed (shed or abandoned), `Err`
    /// on a wire error or a stall.
    pub fn run_txn(&mut self) -> Result<Option<Duration>, String> {
        let ClientDriver {
            client,
            pool,
            next,
            rng,
            submit,
            counters,
            spans,
        } = self;
        let txn_id = *next as u64;
        let program = pool.txn(*next);
        *next += 1;
        counters.begun += 1;
        let t0 = Instant::now();
        let root = open_txn(spans, txn_id);
        let outcome = (|| {
            counters.requests += 1;
            let h = match timed(spans, "begin", root, txn_id, || client.begin()) {
                Ok(h) => h,
                Err(ClientError::Shed) => {
                    counters.shed_begins += 1;
                    return Ok(false);
                }
                Err(e) => return Err(wire("begin", e)),
            };
            let ops: Vec<BatchOp> = program.iter().map(|&op| to_batch_op(op)).collect();
            let mut cursor = 0usize;
            let mut attempts = 1u32;
            loop {
                if t0.elapsed() > STALL {
                    return Err(format!("watchdog: transaction {txn_id} open for {STALL:?}"));
                }
                counters.requests += 1;
                // `Some(true)`: committed; `Some(false)`: restarted.
                let step: Option<bool> = match *submit {
                    Submit::Batch => {
                        let (results, commit) = timed(spans, "batch", root, txn_id, || {
                            client.batch(h, &ops[cursor..], true)
                        })
                        .map_err(|e| wire("batch", e))?;
                        match results.last() {
                            Some(Op::Restarted) => Some(false),
                            Some(Op::Wait) => {
                                cursor += results.len() - 1;
                                None
                            }
                            _ => {
                                cursor += results.len();
                                match commit {
                                    Some(Op::Done(())) => Some(true),
                                    Some(Op::Restarted) => Some(false),
                                    Some(Op::Wait) | None => None,
                                }
                            }
                        }
                    }
                    Submit::PerOp if cursor < ops.len() => {
                        let BatchOp::Affine { var, a, c } = ops[cursor] else {
                            unreachable!("interactive programs are all read-modify-writes")
                        };
                        match timed(spans, "update", root, txn_id, || {
                            client.update(h, var.0, a, c)
                        })
                        .map_err(|e| wire("update", e))?
                        {
                            Op::Done(_) => {
                                cursor += 1;
                                continue;
                            }
                            Op::Wait => None,
                            Op::Restarted => Some(false),
                        }
                    }
                    Submit::PerOp => {
                        match timed(spans, "commit", root, txn_id, || client.commit(h))
                            .map_err(|e| wire("commit", e))?
                        {
                            Op::Done(()) => Some(true),
                            Op::Wait => None,
                            Op::Restarted => Some(false),
                        }
                    }
                };
                match step {
                    Some(true) => return Ok(true),
                    Some(false) => {
                        counters.restarts += 1;
                        cursor = 0;
                        attempts += 1;
                        if attempts > MAX_ATTEMPTS {
                            counters.requests += 1;
                            client.abort(h).map_err(|e| wire("abort", e))?;
                            counters.abandoned += 1;
                            return Ok(false);
                        }
                    }
                    None => {
                        counters.waits += 1;
                        Self::backoff(rng);
                    }
                }
            }
        })();
        close_txn(spans, root);
        Ok(if outcome? {
            counters.commits += 1;
            counters.committed_rmw += rmw_count(program) as u64;
            Some(t0.elapsed())
        } else {
            None
        })
    }
}

/// When the clients stop.
#[derive(Clone, Copy, Debug)]
pub enum ServedStop {
    /// `n` slices of `secs` seconds on one clock shared by all clients.
    Slices { n: usize, secs: f64 },
    /// This many further commits per client.
    Commits(u64),
}

/// Drive all clients concurrently, one thread each, until `stop`.
/// Returns the measured slices (none under [`ServedStop::Commits`]).
pub fn run_clients(
    drivers: &mut [ClientDriver],
    stop: ServedStop,
) -> Result<Vec<SliceSummary>, String> {
    let start = Instant::now();
    let per_client: Vec<Result<Vec<Vec<u32>>, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = drivers
            .iter_mut()
            .map(|d| {
                scope.spawn(move || match stop {
                    ServedStop::Commits(n) => {
                        let goal = d.counters.commits + n;
                        while d.counters.commits < goal {
                            d.run_txn()?;
                        }
                        Ok(Vec::new())
                    }
                    ServedStop::Slices { n, secs } => {
                        let mut slices = vec![Vec::new(); n];
                        loop {
                            let latency = d.run_txn()?;
                            // A commit belongs to the slice it was
                            // acknowledged in.
                            let i = (start.elapsed().as_secs_f64() / secs) as usize;
                            if i >= n {
                                return Ok(slices);
                            }
                            if let Some(l) = latency {
                                slices[i].push(sample_ns(l));
                            }
                        }
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect()
    });
    let mut merged: Vec<Vec<u32>> = Vec::new();
    for r in per_client {
        for (i, mut s) in r?.into_iter().enumerate() {
            if merged.len() <= i {
                merged.push(Vec::new());
            }
            merged[i].append(&mut s);
        }
    }
    let secs = match stop {
        ServedStop::Slices { secs, .. } => secs,
        ServedStop::Commits(_) => 0.0,
    };
    Ok(merged
        .iter_mut()
        .map(|s| SliceSummary::from_samples(s, secs))
        .collect())
}

/// A running server with its connected clients.
pub struct Served {
    pub server: Server,
    pub drivers: Vec<ClientDriver>,
    pub cfg: ServerConfig,
    /// Read-all verification transactions committed so far (they count
    /// in the server's commit counter, not the clients').
    pub verify_commits: u64,
}

impl Served {
    /// Start the server, connect one client per pool, and commit
    /// `warmup` transactions on each.
    pub fn start(
        cfg: ServerConfig,
        pools: Vec<Pool>,
        w: Workload,
        seed: u64,
        warmup: u64,
    ) -> Result<Served, String> {
        let server = Server::start(cfg.clone()).map_err(|e| format!("server start: {e}"))?;
        let addr = server.local_addr();
        let submit = if w == Workload::ServedInteractive {
            Submit::PerOp
        } else {
            Submit::Batch
        };
        let drivers = pools
            .into_iter()
            .enumerate()
            .map(|(c, pool)| ClientDriver::connect(addr, pool, gen::driver_rng(w, seed, c), submit))
            .collect::<Result<Vec<_>, _>>()?;
        let mut served = Served {
            server,
            drivers,
            cfg,
            verify_commits: 0,
        };
        run_clients(&mut served.drivers, ServedStop::Commits(warmup))?;
        Ok(served)
    }

    pub fn counters(&self) -> ClientCounters {
        let mut total = ClientCounters::default();
        self.drivers.iter().for_each(|d| total.add(&d.counters));
        total
    }

    pub fn stats(&mut self) -> Result<ServerStats, String> {
        self.drivers[0]
            .client()
            .stats()
            .map_err(|e| wire("stats", e))
    }

    /// Conservation through a final read-all transaction, and the
    /// server's commit counter against the clients' own.
    pub fn verify(&mut self) -> Result<(), String> {
        let finals = read_all(self.drivers[0].client(), self.cfg.num_vars)?;
        self.verify_commits += 1;
        let counters = self.counters();
        check_conservation(&finals, counters.committed_rmw)?;
        let server_commits = self.stats()?.metrics.commits as u64;
        let ours = counters.commits + self.verify_commits;
        if server_commits != ours {
            return Err(format!(
                "server counted {server_commits} commits, its clients {ours}"
            ));
        }
        Ok(())
    }

    /// Crash the server (no final log sync) after dropping the clients.
    pub fn kill(self) {
        drop(self.drivers);
        self.server.kill();
    }
}

/// Read every variable in one transaction, [`MAX_BATCH_OPS`] reads per
/// frame, then commit.
pub fn read_all(client: &mut Client, num_vars: usize) -> Result<Vec<Value>, String> {
    let h = client.begin().map_err(|e| wire("verify begin", e))?;
    let t0 = Instant::now();
    let stalled = || t0.elapsed() > STALL;
    let mut values = Vec::with_capacity(num_vars);
    'replay: while !stalled() {
        values.clear();
        while values.len() < num_vars && !stalled() {
            let end = (values.len() + MAX_BATCH_OPS).min(num_vars);
            let ops: Vec<BatchOp> = (values.len()..end)
                .map(|v| BatchOp::Read(VarId(v as u32)))
                .collect();
            let (results, _) = client
                .batch(h, &ops, false)
                .map_err(|e| wire("verify batch", e))?;
            for r in results {
                match r {
                    Op::Done(v) => values.push(v),
                    Op::Wait => break,
                    Op::Restarted => continue 'replay,
                }
            }
        }
        while !stalled() {
            match client.commit(h).map_err(|e| wire("verify commit", e))? {
                Op::Done(()) => return Ok(values),
                Op::Wait => std::thread::sleep(Duration::from_micros(50)),
                Op::Restarted => continue 'replay,
            }
        }
    }
    Err("watchdog: the read-all transaction stalled".to_string())
}

/// What the durable epilogue measured.
#[derive(Clone, Debug)]
pub struct DurableReport {
    pub wal_bytes_per_commit: f64,
    /// Reopen times of the five copies of the killed data directory,
    /// `Server::start` to first `ping` answered, seconds.
    pub reopen_s: Vec<f64>,
}

/// `served_durable`'s epilogue: kill the server, copy its data
/// directory five times, reopen each copy, and check that every
/// acknowledged commit is present (recovered increments at least the
/// acknowledged ones, at most the attempted ones — the clients are
/// idle at the kill, so the two coincide).
pub fn kill_and_reopen(mut served: Served) -> Result<DurableReport, String> {
    let dir = served
        .cfg
        .dir
        .clone()
        .expect("a durable server has a data directory");
    let stats = served.stats()?;
    let wal_bytes_per_commit = stats.metrics.wal_bytes as f64 / stats.metrics.commits.max(1) as f64;
    let acknowledged = served.counters().committed_rmw;
    let before = read_all(served.drivers[0].client(), served.cfg.num_vars)?;
    let cfg = served.cfg.clone();
    served.kill();

    let mut reopen_s = Vec::new();
    for k in 0..5 {
        let copy = dir.with_extension(format!("copy{k}"));
        copy_dir(&dir, &copy).map_err(|e| format!("copy {}: {e}", dir.display()))?;
        let t0 = Instant::now();
        let server = Server::start(ServerConfig {
            dir: Some(copy.clone()),
            ..cfg.clone()
        })
        .map_err(|e| format!("reopen: {e}"))?;
        let mut client = Client::connect(server.local_addr()).map_err(|e| wire("connect", e))?;
        client.ping().map_err(|e| wire("ping", e))?;
        reopen_s.push(t0.elapsed().as_secs_f64());
        if k == 0 {
            client
                .set_timeout(Some(STALL))
                .map_err(|e| wire("set_timeout", e))?;
            let after = read_all(&mut client, cfg.num_vars)?;
            check_conservation(&after, acknowledged)
                .map_err(|e| format!("after kill and reopen: {e}"))?;
            if after != before {
                return Err("the recovered state differs from the state before the kill".into());
            }
        }
        drop(client);
        server.kill();
        std::fs::remove_dir_all(&copy).map_err(|e| format!("remove {}: {e}", copy.display()))?;
    }
    Ok(DurableReport {
        wal_bytes_per_commit,
        reopen_s,
    })
}

fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        if entry.file_type()?.is_file() {
            std::fs::copy(entry.path(), to.join(entry.file_name()))?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn start(w: Workload, dir: Option<PathBuf>) -> Served {
        let (pools, _) = gen::generate_all(w, 11);
        Served::start(server_config(dir, None), pools, w, 11, 50).unwrap()
    }

    #[test]
    fn every_submission_path_verifies() {
        for w in [
            Workload::ServedLocal,
            Workload::ServedCross,
            Workload::ServedInteractive,
        ] {
            let mut s = start(w, None);
            run_clients(&mut s.drivers, ServedStop::Commits(100)).unwrap();
            s.verify().unwrap_or_else(|e| panic!("{}: {e}", w.name()));
            let c = s.counters();
            assert_eq!(c.commits, 2 * 150, "{}", w.name());
            assert_eq!(c.failed(), 0);
            // begin + batch, or begin + 4 updates + commit, at least.
            let per_txn = if w == Workload::ServedInteractive {
                6
            } else {
                2
            };
            assert!(c.requests >= c.commits * per_txn);
            s.kill();
        }
    }

    #[test]
    fn timed_slices_merge_both_clients() {
        let mut s = start(Workload::ServedLocal, None);
        let slices = run_clients(&mut s.drivers, ServedStop::Slices { n: 2, secs: 0.1 }).unwrap();
        assert_eq!(slices.len(), 2);
        let in_slices: usize = slices.iter().map(|x| x.commits).sum();
        assert!(in_slices > 0 && in_slices as u64 <= s.counters().commits);
        s.verify().unwrap();
        s.kill();
    }

    #[test]
    fn acknowledged_commits_survive_kill_and_reopen() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("test-durable-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut s = start(Workload::ServedDurable, Some(dir.clone()));
        run_clients(&mut s.drivers, ServedStop::Commits(100)).unwrap();
        s.verify().unwrap();
        let report = kill_and_reopen(s).unwrap();
        assert_eq!(report.reopen_s.len(), 5);
        assert!(report.wal_bytes_per_commit > 8.0 * 12.0);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
