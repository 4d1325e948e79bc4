//! `ccopt-top` — a terminal dashboard over the server's ops plane.
//!
//! ```text
//! ccopt-top --addr HOST:PORT [--interval-ms 1000] [--iters 0] [--raw]
//! ```
//!
//! Polls `Stats` every interval and redraws: throughput and shed rate
//! from the sampler's newest window, commit-latency quantiles, per-shard
//! status, the most contended variables, and the top abort rules. Each
//! poll opens with an ANSI home+clear (suppressed by `--raw`, which
//! appends frames instead — useful under a pipe). `--iters N` exits
//! after N frames (0 polls forever); connection errors exit 1, flag
//! errors exit 2.
//!
//! The view is read-only: `Stats` never touches transaction state, so
//! watching a server does not change what it does.

use ccopt_client::Client;
use ccopt_engine::trace::ConflictRule;
use ccopt_net::ServerStats;
use std::io::Write;
use std::time::Duration;

fn usage() -> ! {
    eprintln!("usage: ccopt-top --addr HOST:PORT [--interval-ms N] [--iters N] [--raw]");
    std::process::exit(2);
}

fn main() {
    let mut addr: Option<String> = None;
    let mut interval = Duration::from_millis(1000);
    let mut iters = 0u64;
    let mut raw = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut val = || args.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--addr" => addr = Some(val()),
            "--interval-ms" => interval = Duration::from_millis(parse(&val())),
            "--iters" => iters = parse(&val()),
            "--raw" => raw = true,
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }
    let Some(addr) = addr else { usage() };

    let mut client = match Client::connect(&addr) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("ccopt-top: connect {addr}: {e}");
            std::process::exit(1);
        }
    };
    let _ = client.set_timeout(Some(Duration::from_secs(5)));

    let mut frame = 0u64;
    loop {
        let stats = match client.stats() {
            Ok(s) => s,
            Err(e) => {
                eprintln!("ccopt-top: stats: {e}");
                std::process::exit(1);
            }
        };
        let mut out = String::new();
        if !raw {
            out.push_str("\x1b[H\x1b[2J");
        }
        render(&mut out, &stats);
        print!("{out}");
        let _ = std::io::stdout().flush();
        frame += 1;
        if iters > 0 && frame >= iters {
            break;
        }
        std::thread::sleep(interval);
    }
}

/// One dashboard frame. Rates come from the sampler's newest window
/// when the server has one; otherwise the cumulative counters stand in
/// (marked `total`).
fn render(out: &mut String, s: &ServerStats) {
    use std::fmt::Write as _;
    let up = s.uptime_ms / 1000;
    let _ = writeln!(
        out,
        "ccopt-top — cc={} vars={} uptime={}m{:02}s{}",
        s.cc,
        s.num_vars,
        up / 60,
        up % 60,
        if s.draining { "  [DRAINING]" } else { "" }
    );
    let _ = writeln!(
        out,
        "conns={} live_txns={} queue_depth={}",
        s.conns, s.live_txns, s.queue_depth
    );

    match s.series.last() {
        Some(p) if p.interval_ms > 0 => {
            let secs = p.interval_ms as f64 / 1000.0;
            let attempts = p.commits + p.aborts + p.sheds;
            let shed_pct = if attempts > 0 {
                100.0 * p.sheds as f64 / attempts as f64
            } else {
                0.0
            };
            let _ = writeln!(
                out,
                "window   commits/s={:.0} aborts/s={:.0} shed%={:.1} p99={} ticks",
                p.commits as f64 / secs,
                p.aborts as f64 / secs,
                shed_pct,
                p.p99_ticks
            );
        }
        _ => {
            let _ = writeln!(
                out,
                "total    commits={} aborts={} (sampler off — cumulative)",
                s.metrics.commits, s.metrics.aborts
            );
        }
    }
    let _ = writeln!(
        out,
        "latency  p50={} p99={} ticks   sheds pipeline={} queue={} txn={}",
        s.commit_p50_ticks, s.commit_p99_ticks, s.sheds_pipeline, s.sheds_queue, s.sheds_txns
    );

    let _ = writeln!(
        out,
        "batching shard_msgs={} ops={} ops/msg={:.2}",
        s.metrics.shard_msgs,
        s.metrics.batched_ops,
        s.metrics.batched_ops as f64 / s.metrics.shard_msgs.max(1) as f64
    );

    let _ = writeln!(out, "shards   ({}):", s.shards.len());
    for (i, sh) in s.shards.iter().enumerate() {
        let state = if sh.down {
            "DOWN"
        } else if !sh.alive {
            "dead"
        } else {
            "up"
        };
        let _ = writeln!(out, "  shard {i:>2}  {state:<4} restarts={}", sh.restarts);
    }

    if !s.top_contended.is_empty() {
        let _ = writeln!(out, "contended vars (waits/aborts):");
        for v in &s.top_contended {
            let _ = writeln!(out, "  x{:<6} {:>8} / {:<8}", v.var, v.waits, v.aborts);
        }
    }

    let mut rules: Vec<(usize, usize)> = s
        .metrics
        .aborts_by_rule
        .iter()
        .copied()
        .enumerate()
        .filter(|&(_, n)| n > 0)
        .collect();
    rules.sort_by_key(|&(_, n)| std::cmp::Reverse(n));
    if !rules.is_empty() {
        let _ = writeln!(out, "abort rules:");
        for (i, n) in rules.into_iter().take(6) {
            let name = ConflictRule::ALL
                .get(i)
                .map(|r| r.name())
                .unwrap_or("unknown");
            let _ = writeln!(out, "  {name:<24} {n}");
        }
    }
}

fn parse<T: std::str::FromStr>(s: &str) -> T {
    s.parse().unwrap_or_else(|_| usage())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_abort_rules_are_listed_by_name_most_first() {
        let mut s = ServerStats::default();
        s.metrics.aborts_by_rule[ConflictRule::Deadlock.index()] = 2;
        s.metrics.aborts_by_rule[ConflictRule::WaitDepth.index()] = 5;
        let mut out = String::new();
        render(&mut out, &s);
        let rules = out.split_once("abort rules:\n").expect("a rule table").1;
        let rows: Vec<&str> = rules.lines().map(str::trim).collect();
        assert_eq!(rows.len(), 2, "{out}");
        assert!(
            rows[0].starts_with("wait_depth") && rows[0].ends_with(" 5"),
            "{out}"
        );
        assert!(
            rows[1].starts_with("deadlock") && rows[1].ends_with(" 2"),
            "{out}"
        );
    }
}
