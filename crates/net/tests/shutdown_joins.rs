//! `Server::shutdown` returns only once every server thread has exited —
//! the per-connection ones too: each reader, and each drainer the engine
//! started for a full socket. And while it serves, those and the accept
//! thread are all the threads it has: the engine has none of its own.
//!
//! Alone in its file on purpose: the thread check reads this process's
//! own task list, which tests sharing the binary would populate.

use ccopt_client::Client;
use ccopt_engine::BatchOp;
use ccopt_model::ids::VarId;
use ccopt_net::{
    decode_response, encode_request, read_frame, write_frame, Request, Response, Server,
    ServerConfig, MAX_BATCH_OPS,
};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Batches the never-reading connection sends: their ~10 KiB answers
/// add up to more than loopback socket buffers take (a few MiB), and
/// they stay within the pipeline cap configured below.
const BATCHES: u64 = 768;

/// The `ccopt-net-*` threads of this process, by kernel `comm`.
fn server_threads() -> Vec<String> {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return Vec::new(); // off Linux: nothing to count
    };
    let mut names: Vec<String> = tasks
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .map(|comm| comm.trim().to_string())
        .filter(|comm| comm.starts_with("ccopt-net-"))
        .collect();
    names.sort();
    names
}

#[test]
fn shutdown_returns_after_every_connection_thread_has_exited() {
    let server = Server::start(ServerConfig {
        num_vars: 64,
        shards: 2,
        pipeline: 1024,
        drain_grace: Duration::from_millis(100),
        ..ServerConfig::default()
    })
    .expect("server starts");
    let addr = server.local_addr();

    // Two plain clients (a reader each).
    let mut one = Client::connect(addr).expect("connect a client");
    one.ping().expect("ping");
    let mut two = Client::connect(addr).expect("connect another client");
    two.ping().expect("ping");
    // No engine thread: the engine runs on whichever of these holds it.
    // (`comm` is cut at 15 bytes.)
    let threads = server_threads();
    assert_eq!(
        threads,
        ["ccopt-net-accep", "ccopt-net-r1", "ccopt-net-r2"],
        "the accept thread and two readers, nothing else"
    );

    // A pipelining connection that never reads: more batch answers than
    // the socket buffers hold, all within the pipeline cap (so nothing is
    // shed and its reader goes back to reading), leave the engine's
    // flush with bytes over, and a drainer takes the socket over.
    let stalled = TcpStream::connect(addr).expect("connect stalled client");
    // Its first request, a zero-op batch, begins the transaction.
    let txn = 1;
    let begin = Request::Batch {
        txn,
        ops: vec![],
        commit: false,
    };
    write_frame(&mut &stalled, &encode_request(1, &begin)).expect("send begin");
    let began = read_frame(&mut &stalled).expect("read").expect("began");
    let Ok((1, Response::Batch { results, .. })) = decode_response(&began) else {
        panic!("unexpected answer to begin");
    };
    assert!(results.is_empty());
    let batch = Request::Batch {
        txn,
        ops: vec![BatchOp::Read(VarId(0)); MAX_BATCH_OPS],
        commit: false,
    };
    for id in 2..2 + BATCHES {
        write_frame(&mut &stalled, &encode_request(id, &batch)).expect("send batch");
    }
    let give_up = Instant::now() + Duration::from_secs(30);
    let mut threads = server_threads();
    while !threads.iter().any(|t| t == "ccopt-net-drain") {
        assert!(Instant::now() < give_up, "no drainer: {threads:?}");
        std::thread::sleep(Duration::from_millis(5));
        threads = server_threads();
    }

    server.shutdown().expect("clean drain");
    assert_eq!(
        server_threads(),
        Vec::<String>::new(),
        "shutdown returned with server threads still running"
    );
    drop((one, two, stalled));
}
