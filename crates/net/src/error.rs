//! Error types of the served system, following the WAL's `WalError`
//! pattern: precise variants, `Display` + `std::error::Error` with
//! `source()` chaining for I/O causes, and **total decoding** — malformed
//! input surfaces as an `Err` (or closes the connection), never a panic.

use ccopt_durability::WalError;
use std::fmt;
use std::io;

/// A frame or payload that does not decode. These are protocol-level
/// verdicts about *bytes*, so they are `Eq` and carry no I/O cause.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// The frame's length prefix exceeds [`MAX_FRAME`](crate::MAX_FRAME).
    /// Rejected *before* allocating, so a hostile length cannot balloon
    /// memory.
    Oversized {
        /// The claimed payload length.
        len: u32,
    },
    /// The frame's CRC32 does not match its payload (corruption or a
    /// desynchronized stream; the connection closes, as re-framing after
    /// a bad checksum is guesswork).
    Checksum,
    /// The payload is truncated, has an unknown tag, carries trailing
    /// bytes, or a field does not decode (e.g. invalid UTF-8 in an error
    /// message).
    Malformed,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Oversized { len } => write!(
                f,
                "frame length {len} exceeds the {} byte protocol maximum",
                crate::MAX_FRAME
            ),
            WireError::Checksum => write!(f, "frame checksum mismatch"),
            WireError::Malformed => write!(f, "malformed payload"),
        }
    }
}

impl std::error::Error for WireError {}

/// Reading one frame off a stream failed.
#[derive(Debug)]
pub enum FrameError {
    /// The socket failed (includes EOF in the middle of a frame).
    Io(io::Error),
    /// The bytes arrived but do not form a valid frame.
    Wire(WireError),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Io(_) => write!(f, "frame read failed"),
            FrameError::Wire(e) => write!(f, "invalid frame: {e}"),
        }
    }
}

impl std::error::Error for FrameError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FrameError::Io(e) => Some(e),
            FrameError::Wire(e) => Some(e),
        }
    }
}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        FrameError::Io(e)
    }
}

impl From<WireError> for FrameError {
    fn from(e: WireError) -> Self {
        FrameError::Wire(e)
    }
}

/// Starting or stopping a [`Server`](crate::Server) failed.
#[derive(Debug)]
pub enum ServerError {
    /// Binding the listener or configuring a socket failed.
    Io(io::Error),
    /// The configuration cannot be served: the concurrency-control name
    /// is not one of [`MECHANISM_NAMES`](ccopt_engine::MECHANISM_NAMES),
    /// or there are no shards.
    Config(String),
    /// Opening the durable engine (write-ahead logs, recovery) failed.
    Wal(WalError),
    /// The server's engine is gone without a drain report: a pass over
    /// its queue panicked, and the engine was dropped.
    Stopped,
}

impl fmt::Display for ServerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServerError::Io(_) => write!(f, "server socket I/O failed"),
            ServerError::Config(what) => write!(f, "invalid configuration: {what}"),
            ServerError::Wal(_) => write!(f, "opening the durable engine failed"),
            ServerError::Stopped => write!(f, "the server is already stopped"),
        }
    }
}

impl std::error::Error for ServerError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServerError::Io(e) => Some(e),
            ServerError::Wal(e) => Some(e),
            ServerError::Config(_) | ServerError::Stopped => None,
        }
    }
}

impl From<io::Error> for ServerError {
    fn from(e: io::Error) -> Self {
        ServerError::Io(e)
    }
}

impl From<WalError> for ServerError {
    fn from(e: WalError) -> Self {
        ServerError::Wal(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error as _;

    #[test]
    fn sources_chain_to_the_cause() {
        let e = FrameError::from(io::Error::new(io::ErrorKind::UnexpectedEof, "eof"));
        assert!(e.source().is_some());
        let e = ServerError::from(io::Error::new(io::ErrorKind::AddrInUse, "busy"));
        assert!(e.source().is_some());
        assert!(ServerError::Config("no shards".into()).source().is_none());
        let _ = format!("{e} {e:?}");
    }
}
