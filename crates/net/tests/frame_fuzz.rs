//! Wire-protocol robustness, mirroring the WAL's `wal_fuzz.rs`:
//! truncation, bit flips, and oversized length prefixes — against the
//! decoders (totality: `Err`, never a panic) and against a **live
//! server** (it answers or closes the abused connection cleanly, and
//! keeps serving well-formed connections afterwards). CI runs a reduced
//! case count (`CI` env var); local runs go deeper.

use ccopt_client::Client;
use ccopt_engine::BatchOp;
use ccopt_model::value::Value;
use ccopt_model::VarId;
use ccopt_net::{
    decode_request, decode_response, encode_request, frame_into, read_frame, BatchCommit,
    BatchOutcome, ErrCode, FrameError, Request, Response, Server, ServerConfig, WireError,
    MAX_BATCH_OPS, MAX_FRAME,
};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::io::Write;
use std::net::TcpStream;
use std::time::Duration;

fn cases() -> u32 {
    if std::env::var_os("CI").is_some() {
        8
    } else {
        48
    }
}

fn sample_batch(rng: &mut SmallRng) -> Request {
    let ops = (0..rng.gen_range(0..6usize))
        .map(|_| {
            let var = VarId(rng.gen_range(0..128));
            match rng.gen_range(0..3u32) {
                0 => BatchOp::Read(var),
                1 => BatchOp::Write(var, Value::Int(rng.gen_range(-1000..1000))),
                _ => BatchOp::Affine {
                    var,
                    a: rng.gen_range(-9..9),
                    c: rng.gen_range(-9..9),
                },
            }
        })
        .collect();
    Request::Batch {
        txn: rng.gen(),
        ops,
        commit: rng.gen(),
    }
}

/// What begins a transaction: the first request naming its token.
fn first_request() -> Request {
    Request::Batch {
        txn: 1,
        ops: vec![],
        commit: false,
    }
}

fn sample_requests(rng: &mut SmallRng) -> Vec<Request> {
    let mut reqs = vec![
        sample_batch(rng),
        Request::Ping,
        Request::Shutdown,
        Request::Stats,
        Request::Health,
        Request::Batch {
            txn: rng.gen(),
            ops: vec![],
            commit: true,
        },
        Request::Abort { txn: rng.gen() },
        Request::Batch {
            txn: rng.gen(),
            ops: vec![BatchOp::Read(VarId(rng.gen_range(0..128)))],
            commit: false,
        },
        Request::Batch {
            txn: rng.gen(),
            ops: vec![BatchOp::Write(
                VarId(rng.gen_range(0..128)),
                Value::Int(rng.gen_range(-1000..1000)),
            )],
            commit: false,
        },
        Request::Batch {
            txn: rng.gen(),
            ops: vec![BatchOp::Affine {
                var: VarId(rng.gen_range(0..128)),
                a: rng.gen_range(-9..9),
                c: rng.gen_range(-9..9),
            }],
            commit: false,
        },
    ];
    reqs.truncate(rng.gen_range(3..=reqs.len()));
    reqs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    /// Decoding arbitrary bytes never panics: every byte soup is either
    /// a valid message or a `WireError`.
    #[test]
    fn decoders_are_total_on_random_bytes(seed in 0u64..100_000) {
        let mut rng = SmallRng::seed_from_u64(seed);
        for _ in 0..32 {
            let n = rng.gen_range(0..64usize);
            let bytes: Vec<u8> = (0..n).map(|_| rng.gen::<u32>() as u8).collect();
            let _ = decode_request(&bytes);
            let _ = decode_response(&bytes);
        }
    }

    /// Truncating or flipping a valid frame stream never panics the
    /// frame reader, and a flipped frame never decodes silently as a
    /// *different* valid message without the CRC catching it first.
    #[test]
    fn framed_streams_survive_truncation_and_flips(seed in 0u64..100_000) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut wire = Vec::new();
        for (i, req) in sample_requests(&mut rng).iter().enumerate() {
            frame_into(&mut wire, &encode_request(i as u64, req));
        }
        // Truncation at any byte: reads yield frames then EOF or error.
        for _ in 0..8 {
            let cut = rng.gen_range(0..=wire.len());
            let mut r = &wire[..cut];
            while let Ok(Some(p)) = read_frame(&mut r) {
                let _ = decode_request(&p);
            }
        }
        // A single bit flip: every frame that still validates its CRC
        // must decode to the identical request (the flip either hits a
        // frame, which the CRC rejects, or hits nothing we return).
        for _ in 0..8 {
            let mut bad = wire.clone();
            let at = rng.gen_range(0..bad.len());
            bad[at] ^= 1 << rng.gen_range(0..8u32);
            let mut r = &bad[..];
            while let Ok(Some(p)) = read_frame(&mut r) {
                let _ = decode_request(&p);
            }
        }
    }

    /// The batch opcode's payload decoder is total: truncation at every
    /// byte, and an op-count field rewritten to lie (including counts
    /// past [`MAX_BATCH_OPS`], which must be refused before any
    /// allocation), yield `Err` — never a panic, never a bogus `Ok`
    /// claiming more ops than the payload carries.
    #[test]
    fn batch_payload_decoder_is_total(seed in 0u64..100_000) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let req = sample_batch(&mut rng);
        let ops_len = match &req {
            Request::Batch { ops, .. } => ops.len(),
            _ => unreachable!(),
        };
        let payload = encode_request(rng.gen(), &req);
        // Truncation at every byte boundary.
        for cut in 0..payload.len() {
            let _ = decode_request(&payload[..cut]);
        }
        // The count field (opcode + id + txn + commit = byte 18) lies.
        for count in [ops_len as u64 + 1, 999, MAX_BATCH_OPS as u64, MAX_BATCH_OPS as u64 + 1, u16::MAX as u64] {
            let mut bad = payload.clone();
            bad[18..20].copy_from_slice(&(count as u16).to_le_bytes());
            match decode_request(&bad) {
                Ok((_, Request::Batch { ops, .. })) => assert_eq!(
                    ops.len(),
                    count as usize,
                    "a decode that claims success must have read every op"
                ),
                Ok(other) => panic!("count lie decoded as {other:?}"),
                Err(_) => {}
            }
        }
        // Arbitrary trailing garbage after a valid batch payload.
        let mut padded = payload.clone();
        padded.extend((0..rng.gen_range(1..8usize)).map(|_| rng.gen::<u32>() as u8));
        assert!(decode_request(&padded).is_err(), "trailing bytes must be rejected");
    }
}

#[test]
fn oversized_length_prefix_is_refused_before_allocation() {
    for len in [MAX_FRAME + 1, u32::MAX / 2, u32::MAX] {
        let mut wire = Vec::new();
        wire.extend_from_slice(&len.to_le_bytes());
        wire.extend_from_slice(&0u32.to_le_bytes());
        wire.extend_from_slice(&[0u8; 16]);
        match read_frame(&mut &wire[..]) {
            Err(FrameError::Wire(WireError::Oversized { len: got })) => assert_eq!(got, len),
            other => panic!("length {len} not refused: {other:?}"),
        }
    }
}

/// Abuse a live server with garbage, truncated frames, oversized
/// prefixes, and bit-flipped valid traffic. The server must never die:
/// after every abusive connection, a well-formed connection still
/// commits.
#[test]
fn live_server_survives_garbage_connections() {
    let server = Server::start(ServerConfig {
        num_vars: 16,
        shards: 2,
        ..ServerConfig::default()
    })
    .expect("server starts");
    let addr = server.local_addr();
    let mut rng = SmallRng::seed_from_u64(0xFEED);

    for round in 0..12 {
        let mut s = TcpStream::connect(addr).expect("connect");
        s.set_write_timeout(Some(Duration::from_secs(2))).unwrap();
        match round % 4 {
            0 => {
                // Pure garbage bytes.
                let n = rng.gen_range(1..256usize);
                let junk: Vec<u8> = (0..n).map(|_| rng.gen::<u32>() as u8).collect();
                let _ = s.write_all(&junk);
            }
            1 => {
                // An oversized length prefix.
                let mut wire = Vec::new();
                wire.extend_from_slice(&u32::MAX.to_le_bytes());
                wire.extend_from_slice(&rng.gen::<u32>().to_le_bytes());
                let _ = s.write_all(&wire);
            }
            2 => {
                // A valid frame cut short.
                let mut wire = Vec::new();
                frame_into(&mut wire, &encode_request(1, &first_request()));
                let cut = rng.gen_range(1..wire.len());
                let _ = s.write_all(&wire[..cut]);
            }
            _ => {
                // Valid traffic with one flipped bit.
                let mut wire = Vec::new();
                frame_into(&mut wire, &encode_request(1, &first_request()));
                frame_into(&mut wire, &encode_request(2, &Request::Ping));
                let at = rng.gen_range(0..wire.len());
                wire[at] ^= 1 << rng.gen_range(0..8u32);
                let _ = s.write_all(&wire);
            }
        }
        drop(s);

        // The server is still alive and serving.
        let mut good = Client::connect(addr).expect("server still accepts");
        good.set_timeout(Some(Duration::from_secs(5))).unwrap();
        let h = good.begin().expect("server still begins");
        assert!(matches!(
            good.write(h, 0, Value::Int(round as i64)).expect("op"),
            ccopt_engine::Op::Done(_)
        ));
        assert!(matches!(
            good.commit(h).expect("commit"),
            ccopt_engine::Op::Done(())
        ));
    }
    let stats = server.shutdown().expect("drain");
    assert!(stats.commits >= 12, "every good connection committed");
}

/// The batch opcode against a live server: truncated batch frames,
/// op counts rewritten past [`MAX_BATCH_OPS`], and **interleaved
/// partial frames** — a connection that dribbles half a batch frame
/// while other connections run real batch traffic. The server answers
/// or closes every abused connection and keeps serving batches.
#[test]
fn live_server_survives_batch_abuse_and_interleaved_partials() {
    let server = Server::start(ServerConfig {
        num_vars: 16,
        shards: 2,
        ..ServerConfig::default()
    })
    .expect("server starts");
    let addr = server.local_addr();
    let mut rng = SmallRng::seed_from_u64(0x000B_A7C4);

    // A connection that never finishes its frame: send the first half
    // of a valid batch frame and leave the socket open across all the
    // rounds below — the reader must not wedge the engine on it.
    let mut dribble = TcpStream::connect(addr).expect("connect");
    dribble
        .set_write_timeout(Some(Duration::from_secs(2)))
        .unwrap();
    {
        let mut wire = Vec::new();
        frame_into(&mut wire, &encode_request(9, &sample_batch(&mut rng)));
        dribble.write_all(&wire[..wire.len() / 2]).unwrap();
    }

    for round in 0..9 {
        let mut s = TcpStream::connect(addr).expect("connect");
        s.set_write_timeout(Some(Duration::from_secs(2))).unwrap();
        match round % 3 {
            0 => {
                // A batch frame cut short mid-op.
                let mut wire = Vec::new();
                frame_into(&mut wire, &encode_request(1, &sample_batch(&mut rng)));
                let cut = rng.gen_range(1..wire.len());
                let _ = s.write_all(&wire[..cut]);
            }
            1 => {
                // The op count rewritten to an oversized lie — the CRC
                // is recomputed so only the decoder can refuse it.
                let mut payload = encode_request(2, &sample_batch(&mut rng));
                payload[18..20].copy_from_slice(&((MAX_BATCH_OPS + 1) as u16).to_le_bytes());
                let mut wire = Vec::new();
                frame_into(&mut wire, &payload);
                let _ = s.write_all(&wire);
                // "Answer or close": the id is recoverable, so an
                // answer must come back if the socket stays open.
                s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
                if let Ok(Some(p)) = read_frame(&mut s) {
                    let (id, resp) = decode_response(&p).expect("decodes");
                    assert_eq!(id, 2);
                    assert!(matches!(resp, ccopt_net::Response::Err { .. }));
                }
            }
            _ => {
                // Another partial frame, interleaved with the dribbler:
                // a few more bytes trickle onto the long-lived socket
                // too, still never completing its frame.
                let mut wire = Vec::new();
                frame_into(&mut wire, &encode_request(3, &sample_batch(&mut rng)));
                let _ = s.write_all(&wire[..wire.len().min(9)]);
                let _ = dribble.write_all(&[rng.gen::<u32>() as u8]);
            }
        }
        drop(s);

        // Well-formed batch traffic still commits.
        let mut good = Client::connect(addr).expect("server still accepts");
        good.set_timeout(Some(Duration::from_secs(5))).unwrap();
        let h = good.begin().expect("server still begins");
        let (results, commit) = good
            .batch(
                h,
                &[
                    BatchOp::Write(VarId(round as u32), Value::Int(round as i64)),
                    BatchOp::Affine {
                        var: VarId(round as u32),
                        a: 1,
                        c: 1,
                    },
                ],
                true,
            )
            .expect("batch still served");
        assert_eq!(results.len(), 2);
        assert!(matches!(commit, Some(ccopt_engine::Op::Done(()))));
    }
    drop(dribble);
    let stats = server.shutdown().expect("drain");
    assert!(stats.commits >= 9, "every good batch committed");
}

/// The ops opcodes under the same abuse: truncated and bit-flipped
/// `Stats` / `Health` frames are answered or the
/// connection closed — never a panic, never a wedged server — and the
/// ops plane still answers a well-formed snapshot afterwards.
#[test]
fn ops_opcodes_survive_truncation_and_flips_against_a_live_server() {
    let server = Server::start(ServerConfig {
        num_vars: 8,
        shards: 2,
        ..ServerConfig::default()
    })
    .expect("server starts");
    let addr = server.local_addr();
    let mut rng = SmallRng::seed_from_u64(0x0B5C_F7A6);

    let ops_reqs = [Request::Stats, Request::Health];
    for round in 0..12 {
        let req = &ops_reqs[round % ops_reqs.len()];
        let mut s = TcpStream::connect(addr).expect("connect");
        s.set_write_timeout(Some(Duration::from_secs(2))).unwrap();
        let mut wire = Vec::new();
        frame_into(&mut wire, &encode_request(1, req));
        if round % 2 == 0 {
            // Cut short mid-frame.
            let cut = rng.gen_range(1..wire.len());
            let _ = s.write_all(&wire[..cut]);
        } else {
            // One flipped bit somewhere in the frame.
            let at = rng.gen_range(0..wire.len());
            wire[at] ^= 1 << rng.gen_range(0..8u32);
            let _ = s.write_all(&wire);
        }
        drop(s);

        // The ops plane still answers a clean snapshot.
        let mut good = Client::connect(addr).expect("server still accepts");
        good.set_timeout(Some(Duration::from_secs(5))).unwrap();
        let stats = good.stats().expect("stats still served");
        assert_eq!(stats.shards.len(), 2);
        good.health().expect("health still served");
    }
    server.shutdown().expect("drain");
}

/// A stale client's frames — opcodes 3-6, the retired per-op `Read`,
/// `Write`, `Update` and `Commit`, with a token and a variable for
/// operands, and 2 and 11, the retired `Begin` and live trace
/// `Subscribe`, bare — are each answered `Err{Malformed}` under their
/// request id, and the same connection then serves a `Batch`, which
/// begins its transaction. A stale server's `Began` (response 2) does not
/// decode.
#[test]
fn retired_opcode_is_answered_malformed_and_the_connection_serves_on() {
    let server = Server::start(ServerConfig {
        num_vars: 8,
        shards: 1,
        ..ServerConfig::default()
    })
    .expect("server starts");
    let mut s = TcpStream::connect(server.local_addr()).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut roundtrip = |payload: &[u8]| {
        let mut wire = Vec::new();
        frame_into(&mut wire, payload);
        s.write_all(&wire).unwrap();
        let p = read_frame(&mut s).expect("frame").expect("answered");
        decode_response(&p).expect("decodes")
    };
    for (req_id, op) in (31u64..).zip([2u8, 3, 4, 5, 6, 11]) {
        let mut stale = vec![op];
        stale.extend_from_slice(&req_id.to_le_bytes());
        if op != 2 && op != 11 {
            stale.extend_from_slice(&1u64.to_le_bytes()); // txn
            stale.extend_from_slice(&0u32.to_le_bytes()); // var
        }
        let (id, resp) = roundtrip(&stale);
        assert_eq!(id, req_id, "opcode {op}");
        assert!(
            matches!(
                resp,
                Response::Err {
                    code: ErrCode::Malformed,
                    ..
                }
            ),
            "opcode {op}: {resp:?}"
        );
    }
    let mut began = vec![2u8];
    began.extend_from_slice(&41u64.to_le_bytes()); // req_id
    began.extend_from_slice(&1u64.to_le_bytes()); // txn
    assert_eq!(decode_response(&began), Err(WireError::Malformed));
    let batch = Request::Batch {
        txn: 1,
        ops: vec![BatchOp::Write(VarId(0), Value::Int(7))],
        commit: true,
    };
    assert_eq!(
        roundtrip(&encode_request(43, &batch)),
        (
            43,
            Response::Batch {
                results: vec![BatchOutcome::Done {
                    value: Value::Int(0)
                }],
                commit: Some(BatchCommit::Committed),
            }
        )
    );
    let stats = server.shutdown().expect("drain");
    assert_eq!(stats.commits, 1);
}

/// A frame whose *payload* is malformed (good CRC, bad contents) gets an
/// answer — the protocol promise is "answer or close", and with the
/// request id recoverable the server answers.
#[test]
fn malformed_payload_with_recoverable_id_is_answered() {
    let server = Server::start(ServerConfig {
        num_vars: 8,
        shards: 1,
        ..ServerConfig::default()
    })
    .expect("server starts");
    let mut s = TcpStream::connect(server.local_addr()).expect("connect");
    // Opcode 0xEE does not exist; id 77 is recoverable from bytes 1..9.
    let mut payload = vec![0xEE];
    payload.extend_from_slice(&77u64.to_le_bytes());
    let mut wire = Vec::new();
    frame_into(&mut wire, &payload);
    s.write_all(&wire).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let resp = read_frame(&mut s)
        .expect("frame")
        .expect("answered, not closed");
    let (id, resp) = decode_response(&resp).expect("decodes");
    assert_eq!(id, 77);
    assert!(matches!(resp, ccopt_net::Response::Err { .. }));
    server.shutdown().expect("drain");
}
