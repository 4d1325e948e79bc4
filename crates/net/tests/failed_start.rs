//! A `Server::start` that fails leaves nothing behind: every fallible
//! step — the first being the configuration check, the last the engine
//! open and the trace sink — runs on
//! the caller's thread before the first server thread is spawned, so an
//! `Err` means no `ccopt-net-*` thread and no bound port.
//!
//! Alone in its file on purpose: the thread check reads this process's
//! own task list, which tests sharing the binary would populate.

use ccopt_durability::{scratch_path, DurabilityMode};
use ccopt_net::{Server, ServerConfig, ServerError};
use ccopt_trace::TraceConfig;
use std::net::TcpListener;

/// A localhost address that was free a moment ago.
fn free_addr() -> String {
    let probe = TcpListener::bind("127.0.0.1:0").expect("bind an ephemeral port");
    probe.local_addr().expect("bound").to_string()
}

/// The `ccopt-net-*` threads of this process, by kernel `comm`.
#[cfg(target_os = "linux")]
fn server_threads() -> Vec<String> {
    std::fs::read_dir("/proc/self/task")
        .expect("list own tasks")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .map(|comm| comm.trim().to_string())
        .filter(|comm| comm.starts_with("ccopt-net-"))
        .collect()
}

#[test]
fn failed_start_releases_every_port_and_thread() {
    // Anything opened under a regular file fails with `NotADirectory`.
    let blocker = scratch_path("failed-start-blocker");
    std::fs::write(&blocker, b"not a directory").unwrap();
    let base = || ServerConfig {
        addr: free_addr(),
        metrics_addr: Some(free_addr()),
        shards: 2,
        ..ServerConfig::default()
    };
    let log_dir_is_a_file = ServerConfig {
        dir: Some(blocker.clone()),
        mode: DurabilityMode::Strict,
        ..base()
    };
    let trace_sink_under_a_file = ServerConfig {
        trace: Some(TraceConfig::to_sink(blocker.join("trace.jsonl"))),
        ..base()
    };
    let no_shards = ServerConfig {
        shards: 0,
        ..base()
    };
    // The configuration check fails first, before anything is bound.
    for (what, cfg, refused_config) in [
        ("log directory", log_dir_is_a_file, false),
        ("trace sink", trace_sink_under_a_file, false),
        ("zero shards", no_shards, true),
    ] {
        let (addr, metrics_addr) = (cfg.addr.clone(), cfg.metrics_addr.clone().unwrap());
        match Server::start(cfg) {
            Err(ServerError::Config(_)) if refused_config => {}
            Err(ServerError::Wal(_) | ServerError::Io(_)) if !refused_config => {}
            Err(other) => panic!("{what}: unexpected error {other:?}"),
            Ok(_) => panic!("{what}: start must fail"),
        }
        for bound in [addr, metrics_addr] {
            TcpListener::bind(&bound)
                .unwrap_or_else(|e| panic!("{what}: {bound} is still held after the Err: {e}"));
        }
        #[cfg(target_os = "linux")]
        assert_eq!(server_threads(), Vec::<String>::new(), "{what}");
    }
    let _ = std::fs::remove_file(&blocker);
}
