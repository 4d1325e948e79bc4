//! # `ccopt-client` — the wire client
//!
//! A blocking TCP client for the served system (`ccopt-net`) that
//! mirrors the in-process session API, so a program written against
//! [`SessionDb`](ccopt_engine::SessionDb) reads identically over the
//! wire: [`Client::begin`] returns a [`TxnHandle`], operations return
//! [`Op<Value>`](Op) with the same `Done` / `Wait` / `Restarted`
//! semantics (`Wait` = retry the same call, `Restarted` = replay the
//! program on the same handle), and [`Client::commit`] returns
//! `Op<()>`.
//!
//! An [`Op::Wait`] may arrive up to one park limit (2 ms, plus at most
//! one 5 ms idle pass of the server) after its request: a request that
//! would wait on another connection's transaction is held by the server
//! and answered in the pass where that transaction ends — usually
//! `Done`, so the call returns once the blocker is gone, with no retry
//! — and only a wait that outlives the limit is answered `Wait`.
//!
//! Two surfaces share one socket:
//!
//! * the **sync surface** (`read`/`write`/`update`/`commit`/`batch`/
//!   `abort`) sends one request and blocks for its response — the
//!   differential tests use it to pin wire semantics to the in-process
//!   engine. Transaction work has one wire shape, [`Request::Batch`]:
//!   `read`/`write`/`update` send a batch of one op and `commit` a batch
//!   of none with the commit flag set, each unpacked back into its
//!   `Op`;
//! * the **pipelined surface** ([`Client::send`] / [`Client::recv`])
//!   exposes raw request ids so a driver can keep many requests in
//!   flight on one connection — the open-loop bench uses it to push a
//!   connection past the server's admission caps.
//!
//! A third, read-only **ops surface** ([`Client::stats`],
//! [`Client::health`]) speaks the introspection opcodes; the `ccopt-top`
//! binary is built on it.
//!
//! A transaction begins at its first request; there is no begin frame.
//! [`Client::begin`] sends nothing: it numbers the connection's next
//! transaction (1, 2, 3, …), and the server begins it when the first
//! request naming that number arrives. Tokens are per connection, so a
//! handle means nothing on another connection. A token whose first
//! request comes after a later token's is refused as unknown: make each
//! handle's first request in `begin` order.
//!
//! Admission-control refusals surface as typed errors, on a
//! transaction's first request: [`ClientError::Shed`] (back off and
//! retry the same request) and [`ClientError::Draining`] (the server is
//! going away). A pipelining client that has sent a later token's first
//! request behind a shed one retries with a new [`Client::begin`]
//! instead: the later token's admission skipped the shed one, which now
//! answers as unknown.

use ccopt_engine::{BatchOp, Op};
use ccopt_model::ids::VarId;
use ccopt_model::value::Value;
use ccopt_net::error::{FrameError, WireError};
use ccopt_net::frame::{
    decode_response, encode_request, read_frame, write_frame, BatchCommit, BatchOutcome, ErrCode,
    Request, Response,
};
use ccopt_net::stats::{HealthReport, ServerStats};
use std::fmt;
use std::io;
use std::io::BufReader;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// A wire-client failure, following the `WalError` pattern: `Display` +
/// `std::error::Error` with `source()` chaining to the I/O or wire
/// cause. Server-side per-request refusals are data, not I/O, so they
/// get their own variants.
#[derive(Debug)]
pub enum ClientError {
    /// The socket failed (connect, send, or receive).
    Io(io::Error),
    /// The server's bytes did not frame or decode.
    Wire(WireError),
    /// Admission control refused the request; back off and retry.
    Shed,
    /// The server is draining: no new transactions (existing ones may
    /// still finish).
    Draining,
    /// The server refused the request outright.
    Server {
        /// Why.
        code: ErrCode,
        /// The server's detail message.
        msg: String,
    },
    /// The server answered something the protocol does not allow here
    /// (e.g. a `Pong` to a `Batch`), or an unknown request id.
    Protocol(String),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(_) => write!(f, "socket I/O failed"),
            ClientError::Wire(e) => write!(f, "invalid server frame: {e}"),
            ClientError::Shed => {
                write!(f, "request shed by admission control; retry after backoff")
            }
            ClientError::Draining => write!(f, "server is draining"),
            ClientError::Server { code, msg } => write!(f, "server refused: {code} ({msg})"),
            ClientError::Protocol(what) => write!(f, "protocol violation: {what}"),
        }
    }
}

impl std::error::Error for ClientError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClientError::Io(e) => Some(e),
            ClientError::Wire(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<FrameError> for ClientError {
    fn from(e: FrameError) -> Self {
        match e {
            FrameError::Io(e) => ClientError::Io(e),
            FrameError::Wire(e) => ClientError::Wire(e),
        }
    }
}

/// A transaction of one connection, named by the token [`Client::begin`]
/// numbered it with. Epoch-style staleness is enforced server-side: a
/// finished token answers `UnknownTxn`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct TxnHandle {
    token: u64,
}

impl TxnHandle {
    /// The wire token (for the pipelined surface's raw requests).
    pub fn token(self) -> u64 {
        self.token
    }
}

/// What [`Client::batch`] answers: the per-op outcomes (submission
/// order, stopping at the first non-`Done`) and the commit's outcome
/// when one was requested and attempted.
pub type BatchReply = (Vec<Op<Value>>, Option<Op<()>>);

/// A connection to a `ccopt-server`.
///
/// Receives are buffered: one kernel read can deliver many pipelined
/// responses.
pub struct Client {
    stream: BufReader<TcpStream>,
    next_req: u64,
    next_txn: u64,
}

impl Client {
    /// Connect to a server.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client, ClientError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client {
            stream: BufReader::with_capacity(64 * 1024, stream),
            next_req: 0,
            next_txn: 0,
        })
    }

    /// Bound every receive; `None` blocks forever (the default).
    pub fn set_timeout(&mut self, t: Option<Duration>) -> Result<(), ClientError> {
        self.stream.get_ref().set_read_timeout(t)?;
        Ok(())
    }

    // ----------------------------------------------------- sync surface

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        match self.roundtrip(&Request::Ping)? {
            Response::Pong => Ok(()),
            other => Err(unexpected("Ping", &other)),
        }
    }

    /// Number the connection's next transaction; sends nothing (the
    /// pipelined surface puts [`TxnHandle::token`] into its own
    /// requests). The server begins the transaction at its first
    /// request, where admission refusals surface as
    /// [`ClientError::Shed`] / [`ClientError::Draining`].
    pub fn begin(&mut self) -> Result<TxnHandle, ClientError> {
        self.next_txn += 1;
        Ok(TxnHandle {
            token: self.next_txn,
        })
    }

    /// Observe variable `var`. [`Op`] semantics mirror the session API.
    pub fn read(&mut self, h: TxnHandle, var: u32) -> Result<Op<Value>, ClientError> {
        only_outcome(self.batch(h, &[BatchOp::Read(VarId(var))], false)?)
    }

    /// Blind-write `value` to `var`; the observed old value rides along.
    pub fn write(
        &mut self,
        h: TxnHandle,
        var: u32,
        value: Value,
    ) -> Result<Op<Value>, ClientError> {
        let op = BatchOp::Write(VarId(var), value);
        only_outcome(self.batch(h, &[op], false)?)
    }

    /// Read-modify-write `var ← a·var + c`
    /// ([`ccopt_engine::affine_eval`]), atomic under the owning shard's
    /// concurrency control.
    pub fn update(
        &mut self,
        h: TxnHandle,
        var: u32,
        a: i64,
        c: i64,
    ) -> Result<Op<Value>, ClientError> {
        let op = BatchOp::Affine {
            var: VarId(var),
            a,
            c,
        };
        only_outcome(self.batch(h, &[op], false)?)
    }

    /// Commit. `Op::Done(())` means durable to the server's configured
    /// mode and the handle is finished; `Wait` = retry the commit;
    /// `Restarted` = validation failed, replay the program on the same
    /// handle. On the wire this is a zero-op [`Client::batch`], whose
    /// commit is always attempted.
    pub fn commit(&mut self, h: TxnHandle) -> Result<Op<()>, ClientError> {
        match self.batch(h, &[], true)? {
            (results, Some(c)) if results.is_empty() => Ok(c),
            other => Err(ClientError::Protocol(format!(
                "unexpected answer to Commit: {other:?}"
            ))),
        }
    }

    /// Submit many operations — optionally followed by the commit — in
    /// **one frame**, the batched analogue of pipelining `read`/
    /// `write`/`update` (+ `commit`) calls: one RTT for the whole run
    /// instead of one per op. Returns the per-op outcomes and the
    /// commit's outcome under the partial-batch contract: `results` is
    /// in submission order and stops at the first non-`Done` outcome
    /// (a trailing [`Op::Wait`] = resume from that op, a trailing
    /// [`Op::Restarted`] = replay the whole program on the same
    /// handle); the commit outcome is `Some` only when `commit` was
    /// requested **and** every op completed `Done` — `Some(Op::Done
    /// (()))` finishes the handle.
    pub fn batch(
        &mut self,
        h: TxnHandle,
        ops: &[BatchOp],
        commit: bool,
    ) -> Result<BatchReply, ClientError> {
        let req = Request::Batch {
            txn: h.token,
            ops: ops.to_vec(),
            commit,
        };
        match self.roundtrip(&req)? {
            Response::Batch { results, commit } => Ok((
                results
                    .into_iter()
                    .map(|r| match r {
                        BatchOutcome::Done { value } => Op::Done(value),
                        BatchOutcome::Wait => Op::Wait,
                        BatchOutcome::Restarted => Op::Restarted,
                    })
                    .collect(),
                commit.map(|c| match c {
                    BatchCommit::Committed => Op::Done(()),
                    BatchCommit::Wait => Op::Wait,
                    BatchCommit::Restarted => Op::Restarted,
                }),
            )),
            Response::Shed => Err(ClientError::Shed),
            Response::Draining => Err(ClientError::Draining),
            Response::Err { code, msg } => Err(ClientError::Server { code, msg }),
            other => Err(unexpected("Batch", &other)),
        }
    }

    /// Abort; the handle is finished either way.
    pub fn abort(&mut self, h: TxnHandle) -> Result<(), ClientError> {
        match self.roundtrip(&Request::Abort { txn: h.token })? {
            Response::Aborted => Ok(()),
            Response::Shed => Err(ClientError::Shed),
            Response::Draining => Err(ClientError::Draining),
            Response::Err { code, msg } => Err(ClientError::Server { code, msg }),
            other => Err(unexpected("Abort", &other)),
        }
    }

    /// Ask the server to drain gracefully and exit.
    pub fn shutdown_server(&mut self) -> Result<(), ClientError> {
        match self.roundtrip(&Request::Shutdown)? {
            Response::Draining => Ok(()),
            other => Err(unexpected("Shutdown", &other)),
        }
    }

    // ----------------------------------------------------- ops surface

    /// Fetch the server's structured [`ServerStats`] snapshot: engine
    /// counters with abort attribution, commit-latency quantiles,
    /// per-shard health, the per-layer shed ledger, gauges, and the
    /// sampler's time-series.
    pub fn stats(&mut self) -> Result<ServerStats, ClientError> {
        match self.roundtrip(&Request::Stats)? {
            Response::Stats { stats } => Ok(*stats),
            other => Err(unexpected("Stats", &other)),
        }
    }

    /// Fetch the compact liveness report (`/healthz` over the wire).
    pub fn health(&mut self) -> Result<HealthReport, ClientError> {
        match self.roundtrip(&Request::Health)? {
            Response::Health { report } => Ok(report),
            other => Err(unexpected("Health", &other)),
        }
    }

    // ------------------------------------------------ pipelined surface

    /// Send a request without waiting; returns its request id. Pair with
    /// [`recv`](Client::recv) to drain responses in server order.
    pub fn send(&mut self, req: &Request) -> Result<u64, ClientError> {
        self.next_req += 1;
        let id = self.next_req;
        write_frame(&mut self.stream.get_ref(), &encode_request(id, req))?;
        Ok(id)
    }

    /// Receive the next response in stream order as `(request id,
    /// response)`. An EOF here means the server closed the connection.
    pub fn recv(&mut self) -> Result<(u64, Response), ClientError> {
        let payload = read_frame(&mut self.stream)?.ok_or_else(|| {
            ClientError::Io(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ))
        })?;
        decode_response(&payload).map_err(ClientError::Wire)
    }

    // ------------------------------------------------------------ plumbing

    fn roundtrip(&mut self, req: &Request) -> Result<Response, ClientError> {
        let id = self.send(req)?;
        let (got, resp) = self.recv()?;
        if got != id {
            return Err(ClientError::Protocol(format!(
                "response for request {got}, expected {id}"
            )));
        }
        Ok(resp)
    }
}

fn unexpected(what: &str, got: &Response) -> ClientError {
    ClientError::Protocol(format!("unexpected response to {what}: {got:?}"))
}

/// The one outcome of a one-op batch without a commit: how `read`,
/// `write` and `update` travel.
fn only_outcome(reply: BatchReply) -> Result<Op<Value>, ClientError> {
    match reply {
        (results, None) if results.len() == 1 => Ok(results[0]),
        other => Err(ClientError::Protocol(format!(
            "unexpected answer to an operation: {other:?}"
        ))),
    }
}
