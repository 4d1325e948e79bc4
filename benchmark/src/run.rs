//! One end-to-end run of one workload: three set-ups (the median is
//! `setup_s`), the measured slices, verification, and for
//! `served_durable` the kill-and-reopen epilogue.

use crate::gen::{self, Workload};
use crate::lib_driver::{LibDriver, Stop};
use crate::served::{self, run_clients, DurableReport, Served, ServedStop};
use crate::stats::{RunSummary, SliceSummary};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Set-ups per run: input generation, database or server start,
/// connect, fixed-count warm-up — timed each time, torn down again
/// except the last, which the measurement runs on.
pub const SETUPS: usize = 3;
/// Seconds per measured slice.
pub const SLICE_S: f64 = 1.0;

/// A workload set up and warm.
enum Ready {
    Lib(Box<LibDriver>),
    Served(Box<Served>),
}

/// What one end-to-end run produced.
#[derive(Debug)]
pub struct EndToEndRun {
    pub inputs_fnv: u64,
    pub summary: RunSummary,
    /// The measured slices, in order: drift within a run shows here
    /// before it shows in a median.
    pub slices: Vec<SliceSummary>,
    /// The run's set-up times, in order; `setup_s` is their median.
    pub setups_s: Vec<f64>,
    /// Transactions begun (warm-up included).
    pub attempted: u64,
    /// Shed begins plus abandoned transactions — or every transaction,
    /// when verification failed.
    pub failed: u64,
    /// `Some(why)` when a verification check failed.
    pub verify_error: Option<String>,
    pub attempts_per_commit: f64,
    pub waits_per_commit: f64,
    /// `lib_si_readmostly` only (0 elsewhere).
    pub live_versions_peak: usize,
    /// `served_durable` only.
    pub durable: Option<DurableReport>,
    /// `VmHWM` once the workload is verified. Taken before
    /// `served_durable`'s reopen epilogue, whose footprint is the log's
    /// length — throughput times run time, not a property of the system.
    pub peak_rss_mb: f64,
}

fn durable_dir(data_root: &Path, w: Workload) -> Option<PathBuf> {
    (w == Workload::ServedDurable)
        .then(|| data_root.join(format!("{}-{}", w.name(), std::process::id())))
}

fn set_up(w: Workload, seed: u64, data_root: &Path) -> Result<(Ready, u64), String> {
    let (mut pools, fnv) = gen::generate_all(w, seed);
    let warmup = w.warmup_txns() as u64;
    if !w.is_served() {
        let pool = pools.pop().expect("one pool per client");
        let mut d = LibDriver::new(w.cc(), w.num_vars(), pool, gen::driver_rng(w, seed, 0));
        d.run(Stop::Commits(warmup))?;
        return Ok((Ready::Lib(Box::new(d)), fnv));
    }
    let dir = durable_dir(data_root, w);
    if let Some(dir) = &dir {
        // A fresh log every set-up: stale state would be recovered.
        if dir.exists() {
            std::fs::remove_dir_all(dir).map_err(|e| format!("remove {}: {e}", dir.display()))?;
        }
    }
    let served = Served::start(served::server_config(dir, None), pools, w, seed, warmup)?;
    Ok((Ready::Served(Box::new(served)), fnv))
}

fn tear_down(ready: Ready) -> Result<(), String> {
    if let Ready::Served(s) = ready {
        let dir = s.cfg.dir.clone();
        s.kill();
        if let Some(dir) = dir {
            std::fs::remove_dir_all(&dir).map_err(|e| format!("remove {}: {e}", dir.display()))?;
        }
    }
    Ok(())
}

/// Run workload `w` for `seconds` measured one-second slices.
/// `Err` is a run that could not be measured (a stall, a wire error, a
/// slice too thin for its p99); a failed verification is an `Ok` run
/// whose `verify_error` is set and whose every transaction counts as
/// failed.
pub fn end_to_end(
    w: Workload,
    seed: u64,
    seconds: u64,
    data_root: &Path,
) -> Result<EndToEndRun, String> {
    let run = measure(w, seed, seconds, data_root);
    // A run that died mid-way leaves its logs behind: say where.
    if let (Err(_), Some(dir)) = (&run, durable_dir(data_root, w)) {
        if dir.exists() {
            println!("data directory kept for inspection: {}", dir.display());
        }
    }
    run
}

fn measure(w: Workload, seed: u64, seconds: u64, data_root: &Path) -> Result<EndToEndRun, String> {
    let mut setups_s = Vec::with_capacity(SETUPS);
    let mut last = None;
    for _ in 0..SETUPS {
        if let Some((ready, _)) = last.take() {
            tear_down(ready)?;
        }
        let t0 = Instant::now();
        last = Some(set_up(w, seed, data_root)?);
        setups_s.push(t0.elapsed().as_secs_f64());
    }
    let (ready, inputs_fnv) = last.expect("at least one set-up");
    let n = seconds.max(1) as usize;
    let mut run = match ready {
        Ready::Lib(mut d) => {
            let slices = d.run(Stop::Slices { n, secs: SLICE_S })?;
            let c = d.counters;
            EndToEndRun {
                inputs_fnv,
                summary: RunSummary::from_slices(&slices)?,
                slices,
                setups_s,
                attempted: c.begun,
                failed: c.abandoned,
                verify_error: d.verify().err(),
                attempts_per_commit: c.attempts_per_commit(),
                waits_per_commit: c.waits_per_commit(),
                live_versions_peak: c.live_versions_peak,
                durable: None,
                peak_rss_mb: peak_rss_mb()?,
            }
        }
        Ready::Served(mut s) => {
            let slices = run_clients(&mut s.drivers, ServedStop::Slices { n, secs: SLICE_S })?;
            let c = s.counters();
            let mut run = EndToEndRun {
                inputs_fnv,
                summary: RunSummary::from_slices(&slices)?,
                slices,
                setups_s,
                attempted: c.begun,
                failed: c.failed(),
                verify_error: s.verify().err(),
                attempts_per_commit: (c.begun + c.restarts) as f64 / c.commits.max(1) as f64,
                waits_per_commit: c.waits as f64 / c.commits.max(1) as f64,
                live_versions_peak: 0,
                durable: None,
                peak_rss_mb: peak_rss_mb()?,
            };
            let dir = s.cfg.dir.clone();
            if run.verify_error.is_none() && dir.is_some() {
                match served::kill_and_reopen(*s) {
                    Ok(report) => run.durable = Some(report),
                    Err(e) => run.verify_error = Some(e),
                }
            } else {
                s.kill();
            }
            // Removed on success; kept, and named, for a post-mortem.
            if let Some(dir) = dir {
                if run.verify_error.is_some() {
                    println!("data directory kept for inspection: {}", dir.display());
                } else {
                    std::fs::remove_dir_all(&dir)
                        .map_err(|e| format!("remove {}: {e}", dir.display()))?;
                }
            }
            run
        }
    };
    if run.verify_error.is_some() {
        run.failed = run.attempted;
    }
    Ok(run)
}

/// `VmHWM` of this process in MiB: the peak resident set, clients and
/// in-process server together.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// Where the numbers were taken: cores, CPU model, kernel, and the
/// filesystem type under the data directory.
pub fn fingerprint(data_root: &Path) -> String {
    let read = |p: &str| std::fs::read_to_string(p).unwrap_or_default();
    let cpu = read("/proc/cpuinfo")
        .lines()
        .find_map(|l| {
            l.strip_prefix("model name")
                .map(|r| r.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let kernel = read("/proc/sys/kernel/osrelease").trim().to_string();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    // Longest mount point that prefixes the data directory.
    let abs = std::fs::canonicalize(data_root).unwrap_or_else(|_| data_root.to_path_buf());
    let fs = read("/proc/mounts")
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, mount, fstype) = (f.next()?, f.next()?, f.next()?);
            abs.starts_with(mount)
                .then(|| (mount.len(), fstype.to_string()))
        })
        .max()
        .map_or_else(|| "unknown".to_string(), |(_, t)| t);
    let pinned = read("/proc/self/status")
        .lines()
        .find_map(|l| {
            l.strip_prefix("Cpus_allowed_list:")
                .map(|r| r.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    format!(
        "nproc={nproc} cpus_allowed={pinned} cpu=\"{cpu}\" kernel={kernel} data_fs={fs} flush=strict"
    )
}
