//! The wire protocol: CRC-framed requests and responses.
//!
//! Every message travels as one frame with the write-ahead log's framing
//! convention ([`ccopt_durability::encoding`]):
//!
//! ```text
//! [payload_len: u32 LE] [crc32(payload): u32 LE] [payload bytes]
//! ```
//!
//! so both ends validate each message independently and detect
//! corruption or desynchronization at the frame boundary. Payloads begin
//! with a one-byte opcode followed by the **request id** — a client-chosen
//! `u64` echoed verbatim in the response, which is what lets a connection
//! pipeline many requests and match answers out of a single ordered
//! stream. All integers are little-endian; [`Value`]s use the WAL's
//! tagged value codec verbatim ([`encoding::put_value`] /
//! [`encoding::Cursor::take_value`]).
//!
//! Decoding is **total**: any byte sequence either decodes or returns a
//! [`WireError`]; nothing in this module panics on wire input, and a
//! frame's length prefix is checked against [`MAX_FRAME`]
//! *before* any allocation.

use crate::error::{FrameError, WireError};
use crate::stats::{self, HealthReport, ServerStats};
use ccopt_durability::encoding::{self, frame_with, Cursor};
use ccopt_engine::BatchOp;
use ccopt_model::ids::VarId;
use ccopt_model::value::Value;
use std::io::{Read, Write};

/// Largest accepted payload. Every legitimate message is tens of bytes
/// (a Stats snapshot a few tens of KiB); the cap exists so a hostile or
/// corrupt length prefix cannot balloon allocation.
pub const MAX_FRAME: u32 = 64 * 1024;

/// Largest operation count accepted in one [`Request::Batch`], checked
/// at decode time **before** any per-op allocation — a hostile count
/// prefix cannot balloon allocation any more than a hostile frame
/// length can. Generous: a batch this size still fits [`MAX_FRAME`]
/// with the largest per-op encoding.
pub const MAX_BATCH_OPS: usize = 1024;

// Request opcodes. 2 (the retired `Begin`), 3-6 (the retired per-op
// `Read`/`Write`/`Update` and plain `Commit`) and 11 (the retired live
// trace `Subscribe`) stay unassigned, so a stale client's frame is
// malformed.
const OP_PING: u8 = 1;
const OP_ABORT: u8 = 7;
const OP_SHUTDOWN: u8 = 8;
const OP_STATS: u8 = 9;
const OP_HEALTH: u8 = 10;
const OP_BATCH: u8 = 12;

// Response opcodes. 2 (the retired `Began`), 3-6 (the retired per-op
// answers `Done`/`Wait`/`Restarted`/`Committed`) and 13-14 (the retired
// `Subscribed`/`Events`) stay unassigned.
const RESP_PONG: u8 = 1;
const RESP_ABORTED: u8 = 7;
const RESP_SHED: u8 = 8;
const RESP_DRAINING: u8 = 9;
const RESP_ERR: u8 = 10;
const RESP_STATS: u8 = 11;
const RESP_HEALTH: u8 = 12;
const RESP_BATCH: u8 = 15;

// Per-op tags inside a Batch request.
const BOP_READ: u8 = 0;
const BOP_WRITE: u8 = 1;
const BOP_AFFINE: u8 = 2;

// Per-op outcome tags inside a Batch response.
const BOUT_DONE: u8 = 0;
const BOUT_WAIT: u8 = 1;
const BOUT_RESTARTED: u8 = 2;

/// A client request. Transactions are named by client-numbered tokens,
/// one namespace per connection: the first request naming a token above
/// every token the connection has named before begins that transaction
/// (under admission control), and a token at or below that mark that is
/// not live answers [`ErrCode::UnknownTxn`]. All transaction work travels as
/// [`Request::Batch`]: a run of `n ≥ 0` operations, optionally followed
/// by the commit (a single operation is a batch of one, a plain commit a
/// batch of none). Operations mirror the session API's op surface, with
/// the arbitrary update closure narrowed to the affine family
/// `v ← a·v + c` ([`ccopt_engine::affine_eval`]) so an update is plain
/// data on the wire.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// Liveness probe; answered [`Response::Pong`].
    Ping,
    /// Abort the transaction (the token dies; on a fresh token, the
    /// transaction begins and ends here).
    Abort {
        /// The transaction token.
        txn: u64,
    },
    /// Ask the server to drain gracefully and exit; answered
    /// [`Response::Draining`].
    Shutdown,
    /// Ask for the full introspection snapshot; answered
    /// [`Response::Stats`]. Read-only and engine-cheap — safe to poll.
    Stats,
    /// Ask for the compact liveness report; answered
    /// [`Response::Health`].
    Health,
    /// Operations of **one transaction** in one frame, the only request
    /// that does transaction work: one RTT for a whole run, the way
    /// [`ccopt_engine::ShardedDb::submit_group`] is one message per
    /// shard below. Answered by exactly one [`Response::Batch`] (or a
    /// whole-request refusal: `Err`, never per-op errors). At most
    /// [`MAX_BATCH_OPS`] operations; more is malformed.
    Batch {
        /// The transaction token.
        txn: u64,
        /// The operations, in program order; empty for a plain commit.
        ops: Vec<BatchOp>,
        /// Commit the transaction after the last operation; attempted
        /// only when every one of *this request's* operations completes
        /// `Done` (always, for an empty run). The token dies on
        /// [`BatchCommit::Committed`].
        commit: bool,
    },
}

/// Why the server refused a request outright (the payload of
/// [`Response::Err`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrCode {
    /// The transaction token is not live: already finished, or skipped
    /// by a later token's first request. Begin a new transaction.
    UnknownTxn,
    /// The request decoded as a frame but not as a meaningful operation
    /// (unknown variable id, bad opcode reported at decode time, ...).
    Malformed,
    /// The shard owning the touched variable crashed mid-flight; nothing
    /// uncommitted there survives. The transaction is dead — begin a new
    /// one (the rest of the database keeps serving).
    ShardDown,
    /// The operation is illegal in the transaction's current state (e.g.
    /// operating on a transaction parked in a prepared two-phase commit).
    BadState,
}

impl ErrCode {
    fn to_byte(self) -> u8 {
        match self {
            ErrCode::UnknownTxn => 0,
            ErrCode::Malformed => 1,
            ErrCode::ShardDown => 2,
            ErrCode::BadState => 3,
        }
    }

    fn from_byte(b: u8) -> Option<ErrCode> {
        Some(match b {
            0 => ErrCode::UnknownTxn,
            1 => ErrCode::Malformed,
            2 => ErrCode::ShardDown,
            3 => ErrCode::BadState,
            _ => return None,
        })
    }
}

impl std::fmt::Display for ErrCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ErrCode::UnknownTxn => write!(f, "unknown transaction token"),
            ErrCode::Malformed => write!(f, "malformed request"),
            ErrCode::ShardDown => write!(f, "owning shard is down"),
            ErrCode::BadState => write!(f, "illegal in the transaction's current state"),
        }
    }
}

/// One operation's outcome inside a [`Response::Batch`], the session
/// layer's [`Op`](ccopt_engine::Op) values on the wire: `Done` carries
/// the observed value (for a write, the overwritten one), a trailing
/// `Wait` means resume the program **from that operation**, a trailing
/// `Restarted` means the whole transaction restarted under a fresh
/// timestamp — replay its program on the same token.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BatchOutcome {
    /// The operation executed; `value` is the observed value.
    Done {
        /// The observed value.
        value: Value,
    },
    /// The operation blocked; retry from it.
    Wait,
    /// The transaction restarted; replay its program.
    Restarted,
}

/// The commit's outcome inside a [`Response::Batch`], the session
/// layer's `Op<()>` on the wire: the token dies on `Committed`, survives
/// the other two (retry the commit / replay the program).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BatchCommit {
    /// The commit is durable (to the configured durability mode).
    Committed,
    /// The commit blocked; retry it (a zero-op [`Request::Batch`] with
    /// `commit` set).
    Wait,
    /// Commit-time validation failed and the transaction restarted;
    /// replay its program.
    Restarted,
}

/// A server response, echoing the request's id. Transaction work is
/// answered by [`Response::Batch`], whose outcomes carry the session
/// layer's [`Op`](ccopt_engine::Op) semantics onto the wire.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Response {
    /// The server is alive.
    Pong,
    /// The abort took effect.
    Aborted,
    /// Admission control refused the request: a bounded queue was full.
    /// Back off and retry; the transaction state is unchanged (a shed
    /// first request began nothing, a shed operation never reached the
    /// engine). One exception: a shed first request whose connection
    /// has since had a later token's first request admitted is
    /// skipped, and resending it answers `UnknownTxn`; a pipelining
    /// client re-numbers such a transaction with a new `begin`.
    Shed,
    /// The server is draining: no new transactions. Also the
    /// acknowledgement of [`Request::Shutdown`].
    Draining,
    /// The request was refused outright.
    Err {
        /// Why.
        code: ErrCode,
        /// Human-readable detail (short, ASCII).
        msg: String,
    },
    /// The introspection snapshot ([`Request::Stats`]).
    Stats {
        /// The snapshot (boxed: it dwarfs every other variant).
        stats: Box<ServerStats>,
    },
    /// The liveness report ([`Request::Health`]).
    Health {
        /// The report.
        report: HealthReport,
    },
    /// The outcomes of a [`Request::Batch`] — the **partial-batch
    /// contract**: `results` comes back in submission order and stops
    /// at the first non-`Done` outcome (operations after it were not
    /// attempted; the vector is short). `commit` is present exactly when
    /// the request asked for one *and* every one of its operations
    /// completed `Done` — so a zero-op commit is always answered.
    Batch {
        /// Per-operation outcomes, short at the first non-`Done`.
        results: Vec<BatchOutcome>,
        /// The piggybacked commit's outcome, when attempted.
        commit: Option<BatchCommit>,
    },
}

// ------------------------------------------------------------- framing

/// Append one frame (length + CRC + payload) to `out`.
pub fn frame_into(out: &mut Vec<u8>, payload: &[u8]) {
    frame_with(out, |out| out.extend_from_slice(payload));
}

/// Write one frame to a stream (no flush; callers batch and flush).
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> std::io::Result<()> {
    let mut buf = Vec::with_capacity(8 + payload.len());
    frame_into(&mut buf, payload);
    w.write_all(&buf)
}

/// Read one frame off a stream. `Ok(None)` is a clean EOF **at a frame
/// boundary** (the peer closed between messages); EOF inside a frame is
/// an error like any other truncation. The length prefix is validated
/// against [`MAX_FRAME`] before the payload is
/// allocated, and the checksum before the payload is returned.
pub fn read_frame(r: &mut impl Read) -> Result<Option<Vec<u8>>, FrameError> {
    let mut head = [0u8; 8];
    let mut got = 0;
    while got < head.len() {
        match r.read(&mut head[got..]) {
            Ok(0) if got == 0 => return Ok(None),
            Ok(0) => {
                return Err(FrameError::Io(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "eof inside a frame header",
                )))
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    let len = encoding::frame_len(&head);
    if len > MAX_FRAME {
        return Err(FrameError::Wire(WireError::Oversized { len }));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    if !encoding::frame_intact(&head, &payload) {
        return Err(FrameError::Wire(WireError::Checksum));
    }
    Ok(Some(payload))
}

// ------------------------------------------------------------ requests

/// Encode a request payload (frame it with [`frame_into`] /
/// [`write_frame`] to put it on a wire).
pub fn encode_request(req_id: u64, req: &Request) -> Vec<u8> {
    let mut b = Vec::with_capacity(32);
    let op = match req {
        Request::Ping => OP_PING,
        Request::Abort { .. } => OP_ABORT,
        Request::Shutdown => OP_SHUTDOWN,
        Request::Stats => OP_STATS,
        Request::Health => OP_HEALTH,
        Request::Batch { .. } => OP_BATCH,
    };
    b.push(op);
    b.extend_from_slice(&req_id.to_le_bytes());
    match *req {
        Request::Ping | Request::Shutdown | Request::Stats | Request::Health => {}
        Request::Batch {
            txn,
            ref ops,
            commit,
        } => {
            debug_assert!(ops.len() <= MAX_BATCH_OPS);
            b.extend_from_slice(&txn.to_le_bytes());
            b.push(commit as u8);
            b.extend_from_slice(&(ops.len().min(MAX_BATCH_OPS) as u16).to_le_bytes());
            for op in ops.iter().take(MAX_BATCH_OPS) {
                match *op {
                    BatchOp::Read(var) => {
                        b.push(BOP_READ);
                        b.extend_from_slice(&var.0.to_le_bytes());
                    }
                    BatchOp::Write(var, value) => {
                        b.push(BOP_WRITE);
                        b.extend_from_slice(&var.0.to_le_bytes());
                        encoding::put_value(&mut b, value);
                    }
                    BatchOp::Affine { var, a, c } => {
                        b.push(BOP_AFFINE);
                        b.extend_from_slice(&var.0.to_le_bytes());
                        b.extend_from_slice(&a.to_le_bytes());
                        b.extend_from_slice(&c.to_le_bytes());
                    }
                }
            }
        }
        Request::Abort { txn } => {
            b.extend_from_slice(&txn.to_le_bytes());
        }
    }
    b
}

/// Decode a request payload. Total: any byte sequence either decodes or
/// returns [`WireError::Malformed`] (trailing bytes included).
pub fn decode_request(payload: &[u8]) -> Result<(u64, Request), WireError> {
    let mut c = Cursor::new(payload);
    let op = c.take_u8().ok_or(WireError::Malformed)?;
    let req_id = c.take_u64().ok_or(WireError::Malformed)?;
    let req = match op {
        OP_PING => Request::Ping,
        OP_ABORT => Request::Abort {
            txn: c.take_u64().ok_or(WireError::Malformed)?,
        },
        OP_SHUTDOWN => Request::Shutdown,
        OP_STATS => Request::Stats,
        OP_HEALTH => Request::Health,
        OP_BATCH => {
            let txn = c.take_u64().ok_or(WireError::Malformed)?;
            let commit = match c.take_u8().ok_or(WireError::Malformed)? {
                0 => false,
                1 => true,
                _ => return Err(WireError::Malformed),
            };
            let count = c.take_u16().ok_or(WireError::Malformed)? as usize;
            if count > MAX_BATCH_OPS {
                return Err(WireError::Malformed);
            }
            let mut ops = Vec::with_capacity(count);
            for _ in 0..count {
                let op = match c.take_u8().ok_or(WireError::Malformed)? {
                    BOP_READ => BatchOp::Read(VarId(c.take_u32().ok_or(WireError::Malformed)?)),
                    BOP_WRITE => BatchOp::Write(
                        VarId(c.take_u32().ok_or(WireError::Malformed)?),
                        c.take_value().ok_or(WireError::Malformed)?,
                    ),
                    BOP_AFFINE => BatchOp::Affine {
                        var: VarId(c.take_u32().ok_or(WireError::Malformed)?),
                        a: c.take_u64().ok_or(WireError::Malformed)? as i64,
                        c: c.take_u64().ok_or(WireError::Malformed)? as i64,
                    },
                    _ => return Err(WireError::Malformed),
                };
                ops.push(op);
            }
            Request::Batch { txn, ops, commit }
        }
        _ => return Err(WireError::Malformed),
    };
    if !c.at_end() {
        return Err(WireError::Malformed);
    }
    Ok((req_id, req))
}

// ----------------------------------------------------------- responses

/// Encode a response payload.
pub fn encode_response(req_id: u64, resp: &Response) -> Vec<u8> {
    let mut b = Vec::with_capacity(32);
    encode_response_into(&mut b, req_id, resp);
    b
}

/// Append one whole response frame to `out`, encoded in place (the
/// server's outbox path). Returns the frame's length in bytes.
pub(crate) fn frame_response_into(out: &mut Vec<u8>, req_id: u64, resp: &Response) -> usize {
    let len = frame_with(out, |out| encode_response_into(out, req_id, resp));
    debug_assert!(len <= 8 + MAX_FRAME as usize);
    len
}

fn encode_response_into(b: &mut Vec<u8>, req_id: u64, resp: &Response) {
    let op = match resp {
        Response::Pong => RESP_PONG,
        Response::Aborted => RESP_ABORTED,
        Response::Shed => RESP_SHED,
        Response::Draining => RESP_DRAINING,
        Response::Err { .. } => RESP_ERR,
        Response::Stats { .. } => RESP_STATS,
        Response::Health { .. } => RESP_HEALTH,
        Response::Batch { .. } => RESP_BATCH,
    };
    b.push(op);
    b.extend_from_slice(&req_id.to_le_bytes());
    match resp {
        Response::Err { code, msg } => {
            b.push(code.to_byte());
            let bytes = msg.as_bytes();
            let n = bytes.len().min(u16::MAX as usize);
            b.extend_from_slice(&(n as u16).to_le_bytes());
            b.extend_from_slice(&bytes[..n]);
        }
        Response::Stats { stats } => stats::put_stats(b, stats),
        Response::Health { report } => stats::put_health(b, report),
        Response::Batch { results, commit } => {
            debug_assert!(results.len() <= MAX_BATCH_OPS);
            let count = results.len().min(MAX_BATCH_OPS);
            b.extend_from_slice(&(count as u16).to_le_bytes());
            for r in &results[..count] {
                match r {
                    BatchOutcome::Done { value } => {
                        b.push(BOUT_DONE);
                        encoding::put_value(b, *value);
                    }
                    BatchOutcome::Wait => b.push(BOUT_WAIT),
                    BatchOutcome::Restarted => b.push(BOUT_RESTARTED),
                }
            }
            b.push(match commit {
                None => 0,
                Some(BatchCommit::Committed) => 1,
                Some(BatchCommit::Wait) => 2,
                Some(BatchCommit::Restarted) => 3,
            });
        }
        _ => {}
    }
}

/// Decode a response payload. Total, like [`decode_request`].
pub fn decode_response(payload: &[u8]) -> Result<(u64, Response), WireError> {
    let mut c = Cursor::new(payload);
    let op = c.take_u8().ok_or(WireError::Malformed)?;
    let req_id = c.take_u64().ok_or(WireError::Malformed)?;
    let resp = match op {
        RESP_PONG => Response::Pong,
        RESP_ABORTED => Response::Aborted,
        RESP_SHED => Response::Shed,
        RESP_DRAINING => Response::Draining,
        RESP_ERR => {
            let code = ErrCode::from_byte(c.take_u8().ok_or(WireError::Malformed)?)
                .ok_or(WireError::Malformed)?;
            let n = c.take_u16().ok_or(WireError::Malformed)? as usize;
            let bytes = c.take_bytes(n).ok_or(WireError::Malformed)?;
            let msg = std::str::from_utf8(bytes)
                .map_err(|_| WireError::Malformed)?
                .to_string();
            Response::Err { code, msg }
        }
        RESP_STATS => Response::Stats {
            stats: Box::new(stats::take_stats(&mut c).ok_or(WireError::Malformed)?),
        },
        RESP_HEALTH => Response::Health {
            report: stats::take_health(&mut c).ok_or(WireError::Malformed)?,
        },
        RESP_BATCH => {
            let count = c.take_u16().ok_or(WireError::Malformed)? as usize;
            if count > MAX_BATCH_OPS {
                return Err(WireError::Malformed);
            }
            let mut results = Vec::with_capacity(count);
            for _ in 0..count {
                let r = match c.take_u8().ok_or(WireError::Malformed)? {
                    BOUT_DONE => BatchOutcome::Done {
                        value: c.take_value().ok_or(WireError::Malformed)?,
                    },
                    BOUT_WAIT => BatchOutcome::Wait,
                    BOUT_RESTARTED => BatchOutcome::Restarted,
                    _ => return Err(WireError::Malformed),
                };
                results.push(r);
            }
            let commit = match c.take_u8().ok_or(WireError::Malformed)? {
                0 => None,
                1 => Some(BatchCommit::Committed),
                2 => Some(BatchCommit::Wait),
                3 => Some(BatchCommit::Restarted),
                _ => return Err(WireError::Malformed),
            };
            Response::Batch { results, commit }
        }
        _ => return Err(WireError::Malformed),
    };
    if !c.at_end() {
        return Err(WireError::Malformed);
    }
    Ok((req_id, resp))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_requests() -> Vec<Request> {
        vec![
            Request::Ping,
            Request::Abort { txn: 7 },
            Request::Shutdown,
            Request::Stats,
            Request::Health,
            Request::Batch {
                txn: 7,
                ops: vec![
                    BatchOp::Read(VarId(3)),
                    BatchOp::Write(VarId(4), Value::Int(-9)),
                    BatchOp::Affine {
                        var: VarId(5),
                        a: -2,
                        c: i64::MAX,
                    },
                ],
                commit: true,
            },
            Request::Batch {
                txn: 8,
                ops: vec![],
                commit: false,
            },
            Request::Batch {
                txn: 9,
                ops: vec![],
                commit: true,
            },
        ]
    }

    fn all_responses() -> Vec<Response> {
        vec![
            Response::Pong,
            Response::Aborted,
            Response::Shed,
            Response::Draining,
            Response::Err {
                code: ErrCode::UnknownTxn,
                msg: "token 9 was retired".into(),
            },
            Response::Stats {
                stats: Box::new(ServerStats {
                    uptime_ms: 99,
                    cc: "occ".into(),
                    num_vars: 8,
                    shards: vec![crate::stats::ShardHealth {
                        alive: true,
                        down: false,
                        restarts: 1,
                    }],
                    series: vec![crate::stats::SamplePoint {
                        at_ms: 50,
                        commits: 2,
                        ..Default::default()
                    }],
                    ..Default::default()
                }),
            },
            Response::Health {
                report: HealthReport {
                    degraded: true,
                    draining: false,
                    shards: 2,
                    shards_down: 1,
                },
            },
            Response::Batch {
                results: vec![
                    BatchOutcome::Done {
                        value: Value::Int(12),
                    },
                    BatchOutcome::Done {
                        value: Value::Bool(false),
                    },
                    BatchOutcome::Restarted,
                ],
                commit: None,
            },
            Response::Batch {
                results: vec![BatchOutcome::Done {
                    value: Value::Int(1),
                }],
                commit: Some(BatchCommit::Committed),
            },
            Response::Batch {
                results: vec![BatchOutcome::Wait],
                commit: Some(BatchCommit::Wait),
            },
            Response::Batch {
                results: vec![],
                commit: Some(BatchCommit::Restarted),
            },
        ]
    }

    #[test]
    fn every_request_round_trips() {
        for req in all_requests() {
            let p = encode_request(11, &req);
            assert_eq!(decode_request(&p), Ok((11, req)));
        }
    }

    #[test]
    fn every_response_round_trips() {
        for resp in all_responses() {
            let p = encode_response(13, &resp);
            assert_eq!(decode_response(&p), Ok((13, resp)));
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut p = encode_request(1, &Request::Ping);
        p.push(0);
        assert_eq!(decode_request(&p), Err(WireError::Malformed));
    }

    #[test]
    fn oversized_batch_op_count_is_rejected_before_allocating() {
        // A hand-built Batch payload claiming u16::MAX ops with no op
        // bytes behind the claim: the count check must fire before any
        // per-op decoding or allocation.
        let mut p = Vec::new();
        p.push(OP_BATCH);
        p.extend_from_slice(&1u64.to_le_bytes()); // req_id
        p.extend_from_slice(&7u64.to_le_bytes()); // txn
        p.push(0); // commit = false
        p.extend_from_slice(&u16::MAX.to_le_bytes()); // op count
        assert_eq!(decode_request(&p), Err(WireError::Malformed));
    }

    #[test]
    fn batch_commit_flag_must_be_boolean() {
        let mut p = encode_request(
            1,
            &Request::Batch {
                txn: 7,
                ops: vec![],
                commit: false,
            },
        );
        // Flip the commit flag byte (right after opcode + req_id + txn)
        // to a non-boolean value.
        p[1 + 8 + 8] = 2;
        assert_eq!(decode_request(&p), Err(WireError::Malformed));
    }

    #[test]
    fn retired_opcodes_are_malformed() {
        // Opcode 2 once carried `Begin` and its answer `Began`, opcodes
        // 3-6 `Read`/`Write`/`Update`/`Commit` and their answers
        // `Done`/`Wait`/`Restarted`/`Committed`; request 11
        // was the live trace `Subscribe`, answered by responses 13
        // (`Subscribed`) and 14 (`Events`). All stay unassigned. Each is
        // tried bare and with the operand bytes a stale peer would have
        // sent (a token, a variable, a value, a dropped count).
        let mut value = Vec::new();
        encoding::put_value(&mut value, Value::Int(5));
        let bodies: [&[u8]; 4] = [
            &[],
            &7u64.to_le_bytes(),
            &[7, 0, 0, 0, 0, 0, 0, 0, 3, 0, 0, 0],
            &value,
        ];
        let payload = |op: u8, body: &[u8]| {
            let mut p = vec![op];
            p.extend_from_slice(&1u64.to_le_bytes());
            p.extend_from_slice(body);
            p
        };
        for body in bodies {
            for op in [2u8, 3, 4, 5, 6, 11] {
                let p = payload(op, body);
                assert_eq!(
                    decode_request(&p),
                    Err(WireError::Malformed),
                    "request {op}"
                );
            }
            for op in [2u8, 3, 4, 5, 6, 13, 14] {
                let p = payload(op, body);
                assert_eq!(
                    decode_response(&p),
                    Err(WireError::Malformed),
                    "response {op}"
                );
            }
        }
    }

    #[test]
    fn frames_round_trip_over_a_stream() {
        let mut wire = Vec::new();
        for req in all_requests() {
            write_frame(&mut wire, &encode_request(1, &req)).unwrap();
        }
        let mut r = &wire[..];
        for req in all_requests() {
            let p = read_frame(&mut r).unwrap().expect("frame present");
            assert_eq!(decode_request(&p).unwrap().1, req);
        }
        assert!(read_frame(&mut r).unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn oversized_length_prefix_is_rejected_without_allocating() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&u32::MAX.to_le_bytes());
        wire.extend_from_slice(&0u32.to_le_bytes());
        match read_frame(&mut &wire[..]) {
            Err(FrameError::Wire(WireError::Oversized { len })) => assert_eq!(len, u32::MAX),
            other => panic!("expected Oversized, got {other:?}"),
        }
    }
}
