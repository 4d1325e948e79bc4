//! # `ccopt-net` — the served system
//!
//! The engine so far ran in-process: one address space, simulated
//! arrival streams. This crate is ROADMAP item 3's "millions of users
//! story": a TCP front-end serving the session API over a
//! length-prefixed, CRC-framed wire protocol, so concurrency-control
//! mechanisms face *real* concurrent load — independent clients on real
//! sockets — instead of a driver loop.
//!
//! * [`frame`] — the wire protocol: the write-ahead log's framing
//!   convention (`[len][crc32][payload]`, [`ccopt_durability::encoding`])
//!   carrying request/response payloads with client-chosen request ids
//!   for pipelining; decoding is total (never panics on wire input);
//! * `engine` (private) — the engine, with no socket and no thread: it
//!   owns a [`ccopt_engine::ShardedDb`], maps each pass of decoded
//!   messages to answers (submitting the pass's transaction work as one
//!   [`ccopt_engine::ShardedDb::submit_group`] call), and hands every
//!   answer to a reply sink taken as a generic parameter; its unit tests
//!   drive it with a `Vec` for a sink;
//! * [`server`] — the [`Server`]: an accept thread and one reader
//!   thread per connection around the engine behind a combining lock
//!   (run by whichever of them finds it free), whose holder is the
//!   engine's sink over the connections' outboxes (one coalesced, bounded
//!   `write` per connection per pass); it sheds load at three bounded
//!   layers and drains gracefully on shutdown;
//! * [`stats`] — the ops plane's data model: [`ServerStats`] snapshots
//!   (answering [`Request::Stats`]), the sampler's [`SamplePoint`]
//!   time-series, [`HealthReport`], their total wire codecs, and the
//!   dependency-free Prometheus text exposition served at `/metrics`;
//! * [`error`] — [`ServerError`] / [`WireError`] / [`FrameError`]
//!   following the `WalError` pattern (Display + Error + source
//!   chaining).
//!
//! The `ccopt-server` binary wraps [`Server`] with flags
//! (`--addr --cc --shards --data-dir ...`); `ccopt-client` is the
//! mirror-image client crate; `docs/SERVER.md` specifies the protocol,
//! admission control, and drain semantics.

mod engine;
pub mod error;
pub mod frame;
pub mod server;
pub mod stats;

pub use error::{FrameError, ServerError, WireError};
pub use frame::{
    decode_request, decode_response, encode_request, encode_response, frame_into, read_frame,
    write_frame, BatchCommit, BatchOutcome, ErrCode, Request, Response, MAX_BATCH_OPS, MAX_FRAME,
};
pub use server::{DrainStats, Server, ServerConfig};
pub use stats::{
    parse_prometheus, render_prometheus, sample, ContendedVar, HealthReport, SamplePoint,
    ServerStats, ShardHealth,
};
