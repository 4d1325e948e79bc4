//! Process-level smoke for the `ccopt-server` binary: a multi-connection
//! workload against a strict-durability server, a SIGKILL mid-life, a
//! recovery on the same data directory that must show **exactly** the
//! acknowledged commits, and finally a graceful wire-initiated drain
//! whose committed state round-trips through one more reopen.
//!
//! This is the served analogue of the engine's crash-recovery tests: the
//! crash is a real process kill, not a dropped struct, so it also covers
//! the binary's stdout contract (`listening on <addr>`) that operators
//! and CI scrape.

use ccopt_client::{Client, ClientError, TxnHandle};
use ccopt_durability::scratch_path;
use ccopt_engine::{BatchOp, Op};
use ccopt_model::value::Value;
use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::Duration;

const VARS: u32 = 8;
const WRITERS: usize = 3;
const TXNS_PER_WRITER: usize = 25;

struct ServerProc {
    child: Child,
    stdout: BufReader<ChildStdout>,
    addr: String,
}

fn spawn_server(dir: &Path) -> ServerProc {
    let mut child = Command::new(env!("CARGO_BIN_EXE_ccopt-server"))
        .args([
            "--addr",
            "127.0.0.1:0",
            "--cc",
            "strict-2PL",
            "--shards",
            "2",
            "--vars",
            "8",
            "--durability",
            "strict",
            "--data-dir",
        ])
        .arg(dir)
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("spawn ccopt-server");
    let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
    let mut line = String::new();
    stdout.read_line(&mut line).expect("read banner");
    let addr = line
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected banner: {line:?}"))
        .trim()
        .to_string();
    ServerProc {
        child,
        stdout,
        addr,
    }
}

fn connect(addr: &str) -> Client {
    let mut c = Client::connect(addr).expect("connect");
    c.set_timeout(Some(Duration::from_secs(10))).unwrap();
    c
}

/// Commit one increment of `var_a` and `var_b` (a cross-shard txn),
/// replaying on `Restarted` until the commit is acknowledged.
fn transfer(c: &mut Client, var_a: u32, var_b: u32) {
    let h = c.begin().expect("begin");
    'attempt: loop {
        for var in [var_a, var_b] {
            loop {
                match c.update(h, var, 1, 1).expect("update") {
                    Op::Done(_) => break,
                    Op::Wait => std::thread::sleep(Duration::from_millis(1)),
                    Op::Restarted => continue 'attempt,
                }
            }
        }
        match c.commit(h).expect("commit") {
            Op::Done(()) => return,
            Op::Wait => std::thread::sleep(Duration::from_millis(1)),
            Op::Restarted => continue 'attempt,
        }
    }
}

/// Read the full committed image through a read-only transaction.
fn snapshot(c: &mut Client) -> Vec<i64> {
    let h = c.begin().expect("begin");
    let mut out = Vec::new();
    'attempt: loop {
        out.clear();
        for var in 0..VARS {
            loop {
                match c.read(h, var).expect("read") {
                    Op::Done(v) => {
                        out.push(v.as_int().expect("int var"));
                        break;
                    }
                    Op::Wait => std::thread::sleep(Duration::from_millis(1)),
                    Op::Restarted => continue 'attempt,
                }
            }
        }
        break;
    }
    c.abort(h).expect("abort reader");
    out
}

#[test]
fn binary_survives_kill_and_drains_clean() {
    let dir = scratch_path("served-smoke");

    // ----- life 1: concurrent writers, then SIGKILL -------------------
    let server = spawn_server(&dir);
    let addr = server.addr.clone();
    let handles: Vec<_> = (0..WRITERS as u32)
        .map(|t| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut c = connect(&addr);
                for _ in 0..TXNS_PER_WRITER {
                    // Vars t and 4+t live on different halves of the
                    // keyspace, so each txn crosses shards.
                    transfer(&mut c, t, 4 + t);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("writer thread");
    }

    // Every commit above was acknowledged under strict durability, so
    // the image after a hard kill is exact, not just bounded.
    let mut expect = vec![0i64; VARS as usize];
    for t in 0..WRITERS {
        expect[t] = TXNS_PER_WRITER as i64;
        expect[4 + t] = TXNS_PER_WRITER as i64;
    }
    let mut server = server;
    server.child.kill().expect("SIGKILL");
    server.child.wait().expect("reap");

    // ----- life 2: recover, verify, write more, drain gracefully ------
    let mut server = spawn_server(&dir);
    let mut c = connect(&server.addr);
    assert_eq!(
        snapshot(&mut c),
        expect,
        "recovered image must equal the acknowledged commits"
    );
    transfer(&mut c, 0, 7); // the server keeps accepting writes post-recovery
    expect[0] += 1;
    expect[7] += 1;

    c.shutdown_server().expect("wire shutdown accepted");
    // New transactions are refused at their first request while
    // draining (the server may finish closing first, which surfaces as an
    // I/O error — both are clean).
    let h = c.begin().expect("begin");
    match c.read(h, 0) {
        Err(ClientError::Draining) | Err(ClientError::Io(_)) => {}
        other => panic!("a first request during drain: {other:?}"),
    }
    let status = server.child.wait().expect("reap");
    assert!(status.success(), "drained server exits 0, got {status:?}");
    let mut tail = String::new();
    std::io::Read::read_to_string(&mut server.stdout, &mut tail).expect("drain stats");
    assert!(
        tail.contains("drained: commits="),
        "binary reports drain stats, got {tail:?}"
    );

    // ----- life 3: the drained image reopens exactly ------------------
    let mut server = spawn_server(&dir);
    let mut c = connect(&server.addr);
    assert_eq!(snapshot(&mut c), expect, "drained image reopens exactly");
    let h = c.begin().expect("begin");
    assert!(c.write(h, 3, Value::Int(0)).is_ok());
    c.shutdown_server().expect("second drain");
    assert!(server.child.wait().expect("reap").success());

    std::fs::remove_dir_all(&dir).ok();
}

/// One canary transaction through the wire **batch** path: both vars
/// written to the same `seq` in a single `Batch{..., commit: true}`
/// frame, replayed under the partial-batch contract (trailing `Wait` =
/// resume from that op, trailing `Restarted` = replay the program)
/// until the commit is acknowledged. Returns `false` when the socket
/// dies instead — the expected end once the server is SIGKILLed.
fn batch_canary(c: &mut Client, h: TxnHandle, var_a: u32, var_b: u32, seq: i64) -> bool {
    let program = [
        BatchOp::Write(ccopt_model::VarId(var_a), Value::Int(seq)),
        BatchOp::Write(ccopt_model::VarId(var_b), Value::Int(seq)),
    ];
    let mut cursor = 0usize;
    loop {
        let (results, commit) = match c.batch(h, &program[cursor..], true) {
            Ok(r) => r,
            Err(ClientError::Shed) => {
                std::thread::sleep(Duration::from_millis(1));
                continue;
            }
            Err(_) => return false,
        };
        match results.last() {
            Some(Op::Restarted) => {
                cursor = 0;
                continue;
            }
            Some(Op::Wait) => {
                cursor += results.len() - 1;
                std::thread::sleep(Duration::from_millis(1));
                continue;
            }
            _ => cursor += results.len(),
        }
        debug_assert_eq!(cursor, program.len());
        match commit {
            Some(Op::Done(())) => return true,
            Some(Op::Wait) => {
                // Resubmit the (now empty) remainder until the commit
                // stops waiting.
                std::thread::sleep(Duration::from_millis(1));
            }
            Some(Op::Restarted) | None => cursor = 0,
        }
    }
}

/// The mid-batch crash: writers stream multi-var canary transactions
/// through the wire batch opcode while the server takes a SIGKILL, and
/// the recovered image must show **per-transaction** atomicity — every
/// canary pair equal (no torn transaction, even though both writes and
/// the commit shared one frame) and at least every *acknowledged*
/// sequence present — never "whatever prefix of the batch got applied".
#[test]
fn kill_mid_batch_preserves_per_transaction_atomicity() {
    let dir = scratch_path("served-batch-kill");
    let mut server = spawn_server(&dir);
    let addr = server.addr.clone();

    // Writer t owns the cross-shard canary pair (t, 4+t) and bumps it
    // with consecutive seq values until the server disappears.
    let handles: Vec<_> = (0..WRITERS as u32)
        .map(|t| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut c = connect(&addr);
                let mut acked = 0i64;
                for seq in 1.. {
                    let h = c.begin().expect("begin");
                    if !batch_canary(&mut c, h, t, 4 + t, seq) {
                        break;
                    }
                    acked = seq;
                }
                (t as usize, acked)
            })
        })
        .collect();

    // Let the writers get deep into their stream, then pull the plug
    // mid-flight: some batch frames will be in the engine, some on the
    // wire, some half-committed.
    std::thread::sleep(Duration::from_millis(400));
    server.child.kill().expect("SIGKILL");
    server.child.wait().expect("reap");
    let acked: Vec<(usize, i64)> = handles
        .into_iter()
        .map(|h| h.join().expect("writer thread"))
        .collect();
    assert!(
        acked.iter().any(|&(_, n)| n > 0),
        "at least one canary must be acknowledged before the kill for \
         the recovery assertion to mean anything: {acked:?}"
    );

    // Recover and check the canaries. Strict durability acknowledged
    // exactly `acked[t]`; a commit that was in flight at the kill may
    // also have landed — but only as a whole transaction.
    let mut server = spawn_server(&dir);
    let mut c = connect(&server.addr);
    let image = snapshot(&mut c);
    for &(t, n) in &acked {
        let (a, b) = (image[t], image[t + 4]);
        assert_eq!(
            a, b,
            "writer {t}: canary pair torn ({a} vs {b}) — atomicity must \
             be per-transaction, never per-batch-prefix"
        );
        assert!(
            a >= n,
            "writer {t}: acknowledged seq {n} missing after recovery (found {a})"
        );
        assert!(
            a <= n + 1,
            "writer {t}: recovered seq {a} was never submitted (acked {n})"
        );
    }

    // The recovered server still takes batches, and drains clean.
    let h = c.begin().expect("begin");
    assert!(batch_canary(&mut c, h, 0, 7, 1_000), "post-recovery batch");
    c.shutdown_server().expect("drain");
    assert!(server.child.wait().expect("reap").success());

    std::fs::remove_dir_all(&dir).ok();
}

/// A configuration `Server::start` refuses is a flag error: exit 2 with
/// the reason on stderr, never a panic (101) or a bound port.
#[test]
fn refused_configurations_exit_2_without_a_panic() {
    for args in [["--shards", "0"], ["--cc", "no-such-cc"]] {
        let out = Command::new(env!("CARGO_BIN_EXE_ccopt-server"))
            .args(["--addr", "127.0.0.1:0"])
            .args(args)
            .output()
            .expect("run ccopt-server");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(
            stderr.contains("invalid configuration"),
            "{args:?}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{args:?}: nothing was served");
    }
}

/// A drain that loses its event record is not a clean exit: with
/// `--trace /dev/full` the sink cannot write a byte, so the binary names
/// the failure on stderr and exits non-zero instead of reporting a clean
/// drain.
#[cfg(target_os = "linux")]
#[test]
fn a_drain_whose_trace_cannot_be_written_exits_non_zero() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_ccopt-server"))
        .args([
            "--addr",
            "127.0.0.1:0",
            "--shards",
            "1",
            "--trace",
            "/dev/full",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn ccopt-server");
    let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
    let mut line = String::new();
    stdout.read_line(&mut line).expect("read banner");
    let addr = line
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected banner: {line:?}"))
        .trim()
        .to_string();
    let mut c = connect(&addr);
    let h = c.begin().expect("begin");
    let (_, commit) = c
        .batch(h, &[BatchOp::Read(ccopt_model::VarId(0))], true)
        .expect("batch");
    assert_eq!(commit, Some(Op::Done(())));
    c.shutdown_server().expect("wire shutdown accepted");
    let status = child.wait().expect("reap");
    let mut stderr = String::new();
    std::io::Read::read_to_string(&mut child.stderr.take().expect("piped stderr"), &mut stderr)
        .expect("read stderr");
    assert!(!status.success(), "a lost trace exits non-zero: {stderr}");
    assert!(stderr.contains("trace"), "the failure is named: {stderr:?}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}
