//! The ops plane's data model: structured server snapshots, the sampler
//! time-series, health reports, their wire codecs, and the Prometheus
//! text exposition.
//!
//! A [`ServerStats`] is what [`Request::Stats`](crate::Request::Stats)
//! returns: the engine's [`Metrics`] (including the 16-rule abort
//! attribution), commit-latency quantiles, per-shard health, the
//! admission-control shed ledger broken down by layer, live gauges, and
//! the sampler's bounded time-series of [`SamplePoint`]s. The codec
//! follows the frame module's conventions — little-endian, total
//! decoding, trailing bytes rejected by the caller's cursor — and starts
//! with a version byte so the snapshot schema can grow.
//!
//! [`render_prometheus`] turns a snapshot into the text exposition served
//! at `/metrics` (no dependencies, names under the `ccopt_` prefix);
//! [`parse_prometheus`] is the matching validator the smoke tests use.

use ccopt_durability::encoding::{put_u16, put_u32, put_u64, Cursor};
use ccopt_engine::Metrics;
use ccopt_trace::ConflictRule;

/// Version byte leading every encoded [`ServerStats`].
const STATS_VERSION: u8 = 7;

/// Most sample points ever encoded into one Stats response, keeping the
/// frame comfortably under [`MAX_FRAME`](crate::MAX_FRAME) (a point is
/// 48 bytes; 600 of them is ~28 KiB). The encoder keeps the **newest**
/// points when the ring holds more.
pub const MAX_SERIES_POINTS: usize = 600;

/// One shard's health as reported in a [`ServerStats`] snapshot (the
/// wire form of [`ccopt_engine::ShardStatus`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardHealth {
    /// The worker is serving (none of its jobs has panicked).
    pub alive: bool,
    /// The shard is permanently down (unrecoverable storage).
    pub down: bool,
    /// Supervised restarts of this shard so far.
    pub restarts: u64,
}

/// One row of the top-contended-variables table.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ContendedVar {
    /// The global variable id.
    pub var: u32,
    /// Wait decisions attributed to it.
    pub waits: u64,
    /// Aborts attributed to it.
    pub aborts: u64,
}

/// One interval of the sampler's time-series: counter *deltas* over the
/// window plus point-in-time gauges, so overload has a flight-data
/// history instead of a single cumulative sample.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SamplePoint {
    /// Milliseconds since the server started, at the sample instant.
    pub at_ms: u64,
    /// Window length in milliseconds (the configured sample interval).
    pub interval_ms: u64,
    /// Commits in the window.
    pub commits: u64,
    /// Aborts in the window.
    pub aborts: u64,
    /// Admission-control sheds in the window (pipeline + queue + txn
    /// budget layers).
    pub sheds: u64,
    /// Engine queue depth at the sample instant (gauge).
    pub queue_depth: u32,
    /// Open transactions at the sample instant (gauge).
    pub live_txns: u32,
    /// Commit-latency p99 (engine ticks) over the window.
    pub p99_ticks: u64,
}

/// The structured snapshot answering [`Request::Stats`](crate::Request).
/// Counters are cumulative since server start except inside
/// [`series`](ServerStats::series), whose points carry window deltas.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Milliseconds since the server started.
    pub uptime_ms: u64,
    /// The concurrency-control mechanism serving.
    pub cc: String,
    /// Variables in the database.
    pub num_vars: u32,
    /// Live client connections (gauge).
    pub conns: u32,
    /// Open transactions (gauge).
    pub live_txns: u32,
    /// Requests sitting in the engine queue (gauge).
    pub queue_depth: u32,
    /// The server is draining (no new transactions).
    pub draining: bool,
    /// Per-shard health, indexed by shard id.
    pub shards: Vec<ShardHealth>,
    /// The engine's counters, 16-rule abort attribution included.
    pub metrics: Metrics,
    /// Commit-latency median (engine ticks, cumulative histogram).
    pub commit_p50_ticks: u64,
    /// Commit-latency p99 (engine ticks, cumulative histogram).
    pub commit_p99_ticks: u64,
    /// Most contended variables, globally ranked (bounded table).
    pub top_contended: Vec<ContendedVar>,
    /// Requests shed at the per-connection pipeline cap (reader layer).
    pub sheds_pipeline: u64,
    /// Requests shed because the bounded engine queue was full.
    pub sheds_queue: u64,
    /// Transactions' first requests shed at the open-transaction budget
    /// (engine layer).
    pub sheds_txns: u64,
    /// Writes to the `--trace` sink that failed (each lost an event).
    /// Events still buffered when the device fails are lost at the final
    /// flush, whose error the drain reports, and are not counted here.
    pub trace_write_errors: u64,
    /// Requests held back on a `Wait` until a transaction ended, instead
    /// of answered `Wait` at once.
    pub parks: u64,
    /// Parked requests answered `Wait` after all: at the park limit, on
    /// another message from their connection, or at a drain's deadline.
    pub park_expiries: u64,
    /// The sampler's time-series, oldest first (bounded; the encoder
    /// keeps the newest [`MAX_SERIES_POINTS`]).
    pub series: Vec<SamplePoint>,
}

impl ServerStats {
    /// Total admission-control sheds across the three layers.
    pub fn sheds_total(&self) -> u64 {
        self.sheds_pipeline + self.sheds_queue + self.sheds_txns
    }

    /// Whether any shard is down or its worker dead — the condition
    /// `/healthz` reports as degraded.
    pub fn degraded(&self) -> bool {
        self.shards.iter().any(|s| s.down || !s.alive)
    }
}

/// The compact liveness answer to [`Request::Health`](crate::Request)
/// (and the substance of `/healthz`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HealthReport {
    /// A shard is permanently down or its worker is dead.
    pub degraded: bool,
    /// The server is draining.
    pub draining: bool,
    /// Total shards.
    pub shards: u32,
    /// Shards currently down or dead.
    pub shards_down: u32,
}

// --------------------------------------------------------------- codec

fn put_bool(b: &mut Vec<u8>, v: bool) {
    b.push(v as u8);
}

fn take_bool(c: &mut Cursor<'_>) -> Option<bool> {
    match c.take_u8()? {
        0 => Some(false),
        1 => Some(true),
        _ => None,
    }
}

/// The engine metric fields in wire order (everything but the rule
/// array). Encoder and decoder iterate this single list, so the two
/// cannot drift.
fn metric_fields(m: &mut Metrics) -> [&mut usize; 16] {
    [
        &mut m.steps_executed,
        &mut m.waits,
        &mut m.aborts,
        &mut m.commits,
        &mut m.mv_write_aborts,
        &mut m.versions_installed,
        &mut m.versions_reclaimed,
        &mut m.max_chain_len,
        &mut m.retires,
        &mut m.wal_records,
        &mut m.wal_syncs,
        &mut m.wal_bytes,
        &mut m.shard_restarts,
        &mut m.io_retries,
        &mut m.shard_msgs,
        &mut m.batched_ops,
    ]
}

fn put_metrics(b: &mut Vec<u8>, m: &Metrics) {
    let mut m = *m;
    for f in metric_fields(&mut m) {
        put_u64(b, *f as u64);
    }
    for &r in &m.aborts_by_rule {
        put_u64(b, r as u64);
    }
}

fn take_metrics(c: &mut Cursor<'_>) -> Option<Metrics> {
    let mut m = Metrics::default();
    for f in metric_fields(&mut m) {
        *f = c.take_u64()? as usize;
    }
    for r in &mut m.aborts_by_rule {
        *r = c.take_u64()? as usize;
    }
    Some(m)
}

/// Append the encoded snapshot to `b` (the [`Response::Stats`](crate::Response)
/// payload body). The series is clamped to its newest
/// [`MAX_SERIES_POINTS`]; bounded tables are truncated at `u16::MAX`
/// rows (never reached in practice).
pub fn put_stats(b: &mut Vec<u8>, s: &ServerStats) {
    b.push(STATS_VERSION);
    put_u64(b, s.uptime_ms);
    let cc = s.cc.as_bytes();
    let n = cc.len().min(u16::MAX as usize);
    put_u16(b, n as u16);
    b.extend_from_slice(&cc[..n]);
    put_u32(b, s.num_vars);
    put_u32(b, s.conns);
    put_u32(b, s.live_txns);
    put_u32(b, s.queue_depth);
    put_bool(b, s.draining);
    let shards = &s.shards[..s.shards.len().min(u16::MAX as usize)];
    put_u16(b, shards.len() as u16);
    for sh in shards {
        put_bool(b, sh.alive);
        put_bool(b, sh.down);
        put_u64(b, sh.restarts);
    }
    put_metrics(b, &s.metrics);
    put_u64(b, s.commit_p50_ticks);
    put_u64(b, s.commit_p99_ticks);
    let top = &s.top_contended[..s.top_contended.len().min(u16::MAX as usize)];
    put_u16(b, top.len() as u16);
    for t in top {
        put_u32(b, t.var);
        put_u64(b, t.waits);
        put_u64(b, t.aborts);
    }
    put_u64(b, s.sheds_pipeline);
    put_u64(b, s.sheds_queue);
    put_u64(b, s.sheds_txns);
    put_u64(b, s.trace_write_errors);
    put_u64(b, s.parks);
    put_u64(b, s.park_expiries);
    let skip = s.series.len().saturating_sub(MAX_SERIES_POINTS);
    let series = &s.series[skip..];
    put_u16(b, series.len() as u16);
    for p in series {
        put_u64(b, p.at_ms);
        put_u64(b, p.interval_ms);
        put_u64(b, p.commits);
        put_u64(b, p.aborts);
        put_u64(b, p.sheds);
        put_u32(b, p.queue_depth);
        put_u32(b, p.live_txns);
        put_u64(b, p.p99_ticks);
    }
}

/// Decode a snapshot from the cursor (total; `None` on truncation, an
/// unknown version, or an out-of-range flag byte). The caller checks
/// `at_end` for trailing bytes.
pub fn take_stats(c: &mut Cursor<'_>) -> Option<ServerStats> {
    if c.take_u8()? != STATS_VERSION {
        return None;
    }
    let uptime_ms = c.take_u64()?;
    let n = c.take_u16()? as usize;
    let cc = std::str::from_utf8(c.take_bytes(n)?).ok()?.to_string();
    let num_vars = c.take_u32()?;
    let conns = c.take_u32()?;
    let live_txns = c.take_u32()?;
    let queue_depth = c.take_u32()?;
    let draining = take_bool(c)?;
    let nshards = c.take_u16()? as usize;
    let mut shards = Vec::with_capacity(nshards);
    for _ in 0..nshards {
        shards.push(ShardHealth {
            alive: take_bool(c)?,
            down: take_bool(c)?,
            restarts: c.take_u64()?,
        });
    }
    let metrics = take_metrics(c)?;
    let commit_p50_ticks = c.take_u64()?;
    let commit_p99_ticks = c.take_u64()?;
    let ntop = c.take_u16()? as usize;
    let mut top_contended = Vec::with_capacity(ntop);
    for _ in 0..ntop {
        top_contended.push(ContendedVar {
            var: c.take_u32()?,
            waits: c.take_u64()?,
            aborts: c.take_u64()?,
        });
    }
    let sheds_pipeline = c.take_u64()?;
    let sheds_queue = c.take_u64()?;
    let sheds_txns = c.take_u64()?;
    let trace_write_errors = c.take_u64()?;
    let parks = c.take_u64()?;
    let park_expiries = c.take_u64()?;
    let npoints = c.take_u16()? as usize;
    let mut series = Vec::with_capacity(npoints);
    for _ in 0..npoints {
        series.push(SamplePoint {
            at_ms: c.take_u64()?,
            interval_ms: c.take_u64()?,
            commits: c.take_u64()?,
            aborts: c.take_u64()?,
            sheds: c.take_u64()?,
            queue_depth: c.take_u32()?,
            live_txns: c.take_u32()?,
            p99_ticks: c.take_u64()?,
        });
    }
    Some(ServerStats {
        uptime_ms,
        cc,
        num_vars,
        conns,
        live_txns,
        queue_depth,
        draining,
        shards,
        metrics,
        commit_p50_ticks,
        commit_p99_ticks,
        top_contended,
        sheds_pipeline,
        sheds_queue,
        sheds_txns,
        trace_write_errors,
        parks,
        park_expiries,
        series,
    })
}

/// Append an encoded health report to `b`.
pub fn put_health(b: &mut Vec<u8>, h: &HealthReport) {
    put_bool(b, h.degraded);
    put_bool(b, h.draining);
    put_u32(b, h.shards);
    put_u32(b, h.shards_down);
}

/// Decode a health report (total).
pub fn take_health(c: &mut Cursor<'_>) -> Option<HealthReport> {
    Some(HealthReport {
        degraded: take_bool(c)?,
        draining: take_bool(c)?,
        shards: c.take_u32()?,
        shards_down: c.take_u32()?,
    })
}

// ---------------------------------------------------------- exposition

fn metric(out: &mut String, name: &str, kind: &str, help: &str, body: &str) {
    out.push_str("# HELP ");
    out.push_str(name);
    out.push(' ');
    out.push_str(help);
    out.push_str("\n# TYPE ");
    out.push_str(name);
    out.push(' ');
    out.push_str(kind);
    out.push('\n');
    out.push_str(body);
}

/// Render the Prometheus text exposition of a snapshot (the `/metrics`
/// body): `# HELP`/`# TYPE` headers, `ccopt_`-prefixed names, labels for
/// the abort-rule and shed-layer breakdowns and per-shard health. No
/// dependencies — the format is lines of `name{labels} value`.
pub fn render_prometheus(s: &ServerStats) -> String {
    let mut out = String::with_capacity(4096);
    let m = &s.metrics;
    metric(
        &mut out,
        "ccopt_uptime_seconds",
        "gauge",
        "Seconds since the server started.",
        &format!("ccopt_uptime_seconds {:.3}\n", s.uptime_ms as f64 / 1e3),
    );
    metric(
        &mut out,
        "ccopt_info",
        "gauge",
        "Server identity (constant 1; labels carry the configuration).",
        &format!(
            "ccopt_info{{cc=\"{}\",shards=\"{}\",vars=\"{}\"}} 1\n",
            s.cc,
            s.shards.len(),
            s.num_vars
        ),
    );
    for (name, help, v) in [
        (
            "ccopt_commits_total",
            "Transactions committed.",
            m.commits as u64,
        ),
        (
            "ccopt_aborts_total",
            "Transaction aborts (each restart re-runs the transaction).",
            m.aborts as u64,
        ),
        (
            "ccopt_waits_total",
            "Steps that had to wait at least once.",
            m.waits as u64,
        ),
        (
            "ccopt_steps_total",
            "Steps executed (including ones later rolled back).",
            m.steps_executed as u64,
        ),
        (
            "ccopt_retires_total",
            "Finished transactions whose slot was recycled.",
            m.retires as u64,
        ),
        (
            "ccopt_wal_records_total",
            "Write-ahead-log records appended.",
            m.wal_records as u64,
        ),
        (
            "ccopt_wal_syncs_total",
            "Write-ahead-log fsyncs issued.",
            m.wal_syncs as u64,
        ),
        (
            "ccopt_wal_bytes_total",
            "Bytes written to the write-ahead log.",
            m.wal_bytes as u64,
        ),
        (
            "ccopt_shard_restarts_total",
            "Crashed shard workers restarted by the supervisor.",
            m.shard_restarts as u64,
        ),
        (
            "ccopt_shard_msgs_total",
            "Coordinator-to-shard messages on the operation path (2PC excluded).",
            m.shard_msgs as u64,
        ),
        (
            "ccopt_batched_ops_total",
            "Data operations those shard messages carried.",
            m.batched_ops as u64,
        ),
        (
            "ccopt_trace_write_errors_total",
            "Writes to the --trace sink that failed.",
            s.trace_write_errors,
        ),
        (
            "ccopt_parks_total",
            "Requests held back on a Wait until a transaction ended.",
            s.parks,
        ),
        (
            "ccopt_park_expiries_total",
            "Parked requests answered Wait after all.",
            s.park_expiries,
        ),
    ] {
        metric(&mut out, name, "counter", help, &format!("{name} {v}\n"));
    }
    let mut rules = String::new();
    for rule in ConflictRule::ALL {
        let n = m.aborts_for(rule);
        if n > 0 {
            rules.push_str(&format!(
                "ccopt_aborts_by_rule_total{{rule=\"{}\"}} {n}\n",
                rule.name()
            ));
        }
    }
    if !rules.is_empty() {
        metric(
            &mut out,
            "ccopt_aborts_by_rule_total",
            "counter",
            "Aborts broken down by the conflict rule that fired.",
            &rules,
        );
    }
    metric(
        &mut out,
        "ccopt_sheds_total",
        "counter",
        "Requests refused by admission control, by layer.",
        &format!(
            "ccopt_sheds_total{{layer=\"pipeline\"}} {}\n\
             ccopt_sheds_total{{layer=\"queue\"}} {}\n\
             ccopt_sheds_total{{layer=\"txn_budget\"}} {}\n",
            s.sheds_pipeline, s.sheds_queue, s.sheds_txns
        ),
    );
    for (name, help, v) in [
        (
            "ccopt_connections",
            "Live client connections.",
            s.conns as u64,
        ),
        ("ccopt_live_txns", "Open transactions.", s.live_txns as u64),
        (
            "ccopt_queue_depth",
            "Requests waiting in the engine queue.",
            s.queue_depth as u64,
        ),
        (
            "ccopt_draining",
            "1 while the server drains.",
            s.draining as u64,
        ),
    ] {
        metric(&mut out, name, "gauge", help, &format!("{name} {v}\n"));
    }
    metric(
        &mut out,
        "ccopt_commit_latency_ticks",
        "gauge",
        "Commit latency quantiles in engine ticks (cumulative).",
        &format!(
            "ccopt_commit_latency_ticks{{quantile=\"0.5\"}} {}\n\
             ccopt_commit_latency_ticks{{quantile=\"0.99\"}} {}\n",
            s.commit_p50_ticks, s.commit_p99_ticks
        ),
    );
    let mut up = String::new();
    let mut restarts = String::new();
    for (i, sh) in s.shards.iter().enumerate() {
        let healthy = (sh.alive && !sh.down) as u8;
        up.push_str(&format!("ccopt_shard_up{{shard=\"{i}\"}} {healthy}\n"));
        restarts.push_str(&format!(
            "ccopt_shard_restarts{{shard=\"{i}\"}} {}\n",
            sh.restarts
        ));
    }
    metric(
        &mut out,
        "ccopt_shard_up",
        "gauge",
        "1 while the shard's worker is alive and its storage recoverable.",
        &up,
    );
    metric(
        &mut out,
        "ccopt_shard_restarts",
        "counter",
        "Supervised restarts, by shard.",
        &restarts,
    );
    if !s.top_contended.is_empty() {
        let mut rows = String::new();
        for t in &s.top_contended {
            rows.push_str(&format!(
                "ccopt_contention_total{{var=\"{}\",kind=\"waits\"}} {}\n\
                 ccopt_contention_total{{var=\"{}\",kind=\"aborts\"}} {}\n",
                t.var, t.waits, t.var, t.aborts
            ));
        }
        metric(
            &mut out,
            "ccopt_contention_total",
            "counter",
            "Waits/aborts attributed to the most contended variables.",
            &rows,
        );
    }
    out
}

/// Validate a Prometheus text exposition and return its samples as
/// `(name{labels}, value)` pairs. Strict about what [`render_prometheus`]
/// emits: every non-comment line is `name[{labels}] value` with a finite
/// value, and every sample name is declared by a preceding `# TYPE`.
pub fn parse_prometheus(text: &str) -> Result<Vec<(String, f64)>, String> {
    let mut samples = Vec::new();
    let mut typed: Vec<String> = Vec::new();
    for (no, line) in text.lines().enumerate() {
        let line = line.trim_end();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split_whitespace();
            let name = parts.next().ok_or(format!("line {no}: bare # TYPE"))?;
            match parts.next() {
                Some("counter") | Some("gauge") => typed.push(name.to_string()),
                other => return Err(format!("line {no}: bad metric type {other:?}")),
            }
            continue;
        }
        if line.starts_with('#') {
            continue;
        }
        let (key, value) = line
            .rsplit_once(' ')
            .ok_or(format!("line {no}: no value: {line:?}"))?;
        let value: f64 = value
            .parse()
            .map_err(|_| format!("line {no}: bad value {value:?}"))?;
        if !value.is_finite() {
            return Err(format!("line {no}: non-finite value"));
        }
        let name = key.split('{').next().unwrap_or(key);
        if !typed.iter().any(|t| t == name) {
            return Err(format!("line {no}: sample {name:?} has no # TYPE"));
        }
        samples.push((key.to_string(), value));
    }
    if samples.is_empty() {
        return Err("no samples".into());
    }
    Ok(samples)
}

/// Fetch one sample's value by its full `name{labels}` key.
pub fn sample(samples: &[(String, f64)], key: &str) -> Option<f64> {
    samples.iter().find(|(k, _)| k == key).map(|&(_, v)| v)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo() -> ServerStats {
        let mut metrics = Metrics {
            steps_executed: 100,
            waits: 4,
            aborts: 11,
            commits: 31,
            shard_msgs: 12,
            batched_ops: 96,
            ..Metrics::default()
        };
        metrics.aborts_by_rule[ConflictRule::Deadlock.index()] = 3;
        metrics.aborts_by_rule[ConflictRule::WaitDepth.index()] = 4;
        metrics.aborts_by_rule[ConflictRule::ShardFailover.index()] = 2;
        metrics.aborts_by_rule[ConflictRule::Client.index()] = 2;
        ServerStats {
            uptime_ms: 1234,
            cc: "strict-2pl".into(),
            num_vars: 64,
            conns: 3,
            live_txns: 2,
            queue_depth: 5,
            draining: false,
            shards: vec![
                ShardHealth {
                    alive: true,
                    down: false,
                    restarts: 0,
                },
                ShardHealth {
                    alive: true,
                    down: false,
                    restarts: 2,
                },
            ],
            metrics,
            commit_p50_ticks: 3,
            commit_p99_ticks: 15,
            top_contended: vec![ContendedVar {
                var: 9,
                waits: 4,
                aborts: 6,
            }],
            sheds_pipeline: 10,
            sheds_queue: 20,
            sheds_txns: 30,
            trace_write_errors: 4,
            parks: 8,
            park_expiries: 1,
            series: vec![SamplePoint {
                at_ms: 1000,
                interval_ms: 1000,
                commits: 31,
                aborts: 7,
                sheds: 60,
                queue_depth: 5,
                live_txns: 2,
                p99_ticks: 15,
            }],
        }
    }

    #[test]
    fn stats_round_trip() {
        let s = demo();
        let mut b = Vec::new();
        put_stats(&mut b, &s);
        let mut c = Cursor::new(&b);
        let back = take_stats(&mut c).unwrap();
        assert!(c.at_end());
        assert_eq!(back, s);
        assert_eq!(back.metrics.aborts_for(ConflictRule::WaitDepth), 4);
        assert_eq!(back.sheds_total(), 60);
        assert_eq!((back.parks, back.park_expiries), (8, 1));
        assert!(!back.degraded());
    }

    #[test]
    fn truncated_stats_decode_to_none() {
        let mut b = Vec::new();
        put_stats(&mut b, &demo());
        for cut in 0..b.len() {
            let mut c = Cursor::new(&b[..cut]);
            assert!(take_stats(&mut c).is_none(), "cut at {cut}");
        }
    }

    #[test]
    fn stats_of_another_version_decode_to_none() {
        let mut b = Vec::new();
        put_stats(&mut b, &demo());
        assert!(take_stats(&mut Cursor::new(&b)).is_some());
        b[0] = 2;
        assert!(take_stats(&mut Cursor::new(&b)).is_none());
    }

    #[test]
    fn health_round_trip() {
        let h = HealthReport {
            degraded: true,
            draining: false,
            shards: 4,
            shards_down: 1,
        };
        let mut b = Vec::new();
        put_health(&mut b, &h);
        let mut c = Cursor::new(&b);
        assert_eq!(take_health(&mut c), Some(h));
        assert!(c.at_end());
    }

    #[test]
    fn series_is_clamped_to_the_newest_points() {
        let mut s = demo();
        s.series = (0..MAX_SERIES_POINTS as u64 + 50)
            .map(|i| SamplePoint {
                at_ms: i,
                ..SamplePoint::default()
            })
            .collect();
        let mut b = Vec::new();
        put_stats(&mut b, &s);
        assert!(b.len() < crate::MAX_FRAME as usize);
        let back = take_stats(&mut Cursor::new(&b)).unwrap();
        assert_eq!(back.series.len(), MAX_SERIES_POINTS);
        assert_eq!(back.series.first().unwrap().at_ms, 50);
        assert_eq!(
            back.series.last().unwrap().at_ms,
            MAX_SERIES_POINTS as u64 + 49
        );
    }

    #[test]
    fn exposition_renders_and_parses() {
        let s = demo();
        let text = render_prometheus(&s);
        let samples = parse_prometheus(&text).unwrap();
        assert_eq!(sample(&samples, "ccopt_commits_total"), Some(31.0));
        assert_eq!(sample(&samples, "ccopt_shard_msgs_total"), Some(12.0));
        assert_eq!(sample(&samples, "ccopt_batched_ops_total"), Some(96.0));
        assert_eq!(
            sample(&samples, "ccopt_trace_write_errors_total"),
            Some(4.0)
        );
        assert_eq!(sample(&samples, "ccopt_parks_total"), Some(8.0));
        assert_eq!(sample(&samples, "ccopt_park_expiries_total"), Some(1.0));
        assert_eq!(
            sample(&samples, "ccopt_aborts_by_rule_total{rule=\"deadlock\"}"),
            Some(3.0)
        );
        assert_eq!(
            sample(&samples, "ccopt_aborts_by_rule_total{rule=\"wait_depth\"}"),
            Some(4.0)
        );
        assert_eq!(
            sample(&samples, "ccopt_sheds_total{layer=\"queue\"}"),
            Some(20.0)
        );
        assert_eq!(
            sample(
                &samples,
                "ccopt_aborts_by_rule_total{rule=\"shard_failover\"}"
            ),
            Some(2.0)
        );
        let layers = samples
            .iter()
            .filter(|(k, _)| k.starts_with("ccopt_sheds_total{"));
        assert_eq!(layers.count(), 3, "pipeline, queue and txn budget");
        assert_eq!(sample(&samples, "ccopt_shard_up{shard=\"1\"}"), Some(1.0));
        assert_eq!(
            sample(&samples, "ccopt_commit_latency_ticks{quantile=\"0.99\"}"),
            Some(15.0)
        );
        // The ledger invariant holds in the exposition too.
        let by_rule: f64 = samples
            .iter()
            .filter(|(k, _)| k.starts_with("ccopt_aborts_by_rule_total{"))
            .map(|&(_, v)| v)
            .sum();
        assert_eq!(Some(by_rule), sample(&samples, "ccopt_aborts_total"));
    }

    #[test]
    fn parser_rejects_malformed_expositions() {
        assert!(parse_prometheus("").is_err());
        assert!(parse_prometheus("ccopt_x 1\n").is_err(), "no # TYPE");
        assert!(parse_prometheus("# TYPE ccopt_x histogram\nccopt_x 1\n").is_err());
        assert!(parse_prometheus("# TYPE ccopt_x gauge\nccopt_x abc\n").is_err());
    }
}
