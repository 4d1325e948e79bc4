//! The `ccopt-server` binary: a [`ccopt_net::Server`] behind flags.
//!
//! ```text
//! ccopt-server [--addr 127.0.0.1:0] [--cc strict-2PL] [--shards 4]
//!              [--vars 64] [--data-dir PATH] [--durability strict|group:N|none]
//!              [--max-txns 256] [--pipeline 64] [--queue 1024]
//!              [--grace-ms 2000] [--trace PATH] [--metrics-addr A]
//!              [--stats-interval-ms N]
//! ```
//!
//! Prints `listening on <addr>` (machine-parseable — the smoke tests
//! scrape the ephemeral port from it), serves until a wire `Shutdown`
//! request drains it, then prints the drain stats and exits 0 — or 1,
//! with the reasons on stderr, when the drain's final log sync or the
//! trace sink's final flush failed, or the sink failed to write any
//! event (`--trace /dev/full`). Flag errors — an unparseable flag, and a
//! configuration `Server::start` refuses (unknown mechanism,
//! `--shards 0`) — exit 2; other startup errors (bad log, bind failure)
//! exit 1.
//!
//! `--metrics-addr` starts the ops HTTP listener (`metrics on <addr>` is
//! printed for port scraping); `--stats-interval-ms N` sets the sampler
//! period *and* turns on the periodic machine-parseable `stats ...`
//! stdout line (off by default).

use ccopt_durability::DurabilityMode;
use ccopt_net::{Server, ServerConfig, ServerError};
use ccopt_trace::TraceConfig;
use std::io::Write;
use std::time::Duration;

fn usage() -> ! {
    eprintln!(
        "usage: ccopt-server [--addr A] [--cc NAME] [--shards N] [--vars N] \
         [--data-dir PATH] [--durability strict|group:N|none] [--max-txns N] \
         [--pipeline N] [--queue N] [--grace-ms N] [--trace PATH] \
         [--metrics-addr A] [--stats-interval-ms N]"
    );
    eprintln!("mechanisms: {}", ccopt_engine::MECHANISM_NAMES.join(", "));
    std::process::exit(2);
}

fn main() {
    let mut cfg = ServerConfig::default();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut val = || args.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--addr" => cfg.addr = val(),
            "--cc" => cfg.cc = val(),
            "--shards" => cfg.shards = parse(&val()),
            "--vars" => cfg.num_vars = parse(&val()),
            "--data-dir" => cfg.dir = Some(val().into()),
            "--durability" => {
                let v = val();
                cfg.mode = match v.as_str() {
                    "strict" => DurabilityMode::Strict,
                    "none" => DurabilityMode::None,
                    s => match s.strip_prefix("group:") {
                        Some(n) => DurabilityMode::group(parse(n)),
                        None => usage(),
                    },
                };
            }
            "--max-txns" => cfg.max_txns = parse(&val()),
            "--pipeline" => cfg.pipeline = parse(&val()),
            "--queue" => cfg.queue = parse(&val()),
            "--grace-ms" => cfg.drain_grace = Duration::from_millis(parse::<u64>(&val())),
            "--trace" => cfg.trace = Some(TraceConfig::to_sink(val())),
            "--metrics-addr" => cfg.metrics_addr = Some(val()),
            "--stats-interval-ms" => {
                cfg.sample_interval = Duration::from_millis(parse::<u64>(&val()));
                cfg.stats_line = true;
            }
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }
    // A durable server defaults to strict logging unless told otherwise.
    if cfg.dir.is_some() && matches!(cfg.mode, DurabilityMode::None) {
        cfg.mode = DurabilityMode::Strict;
    }

    let server = match Server::start(cfg.clone()) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("ccopt-server: {e}");
            let mut src = std::error::Error::source(&e);
            while let Some(s) = src {
                eprintln!("  caused by: {s}");
                src = s.source();
            }
            std::process::exit(if matches!(e, ServerError::Config(_)) {
                2
            } else {
                1
            });
        }
    };
    println!("listening on {}", server.local_addr());
    if let Some(m) = server.metrics_addr() {
        println!("metrics on {m}");
    }
    println!(
        "cc={} shards={} vars={} durable={}",
        cfg.cc,
        cfg.shards,
        cfg.num_vars,
        cfg.dir.is_some()
    );
    let _ = std::io::stdout().flush();

    match server.wait() {
        Ok(stats) => {
            println!(
                "drained: commits={} aborted_on_drain={} sheds={} \
                 sheds_pipeline={} sheds_queue={} sheds_txns={}",
                stats.commits,
                stats.aborted_on_drain,
                stats.sheds(),
                stats.sheds_pipeline,
                stats.sheds_queue,
                stats.sheds_txns
            );
            for e in &stats.errors {
                eprintln!("ccopt-server: {e}");
            }
            if !stats.errors.is_empty() {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("ccopt-server: {e}");
            std::process::exit(1);
        }
    }
}

fn parse<T: std::str::FromStr>(s: &str) -> T {
    s.parse().unwrap_or_else(|_| usage())
}
