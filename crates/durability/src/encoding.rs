//! Wire format of the write-ahead log.
//!
//! The file starts with a fixed header (magic, format version, store kind,
//! variable count). Every record after it is framed as
//!
//! ```text
//! [payload_len: u32 LE] [crc32(payload): u32 LE] [payload bytes]
//! ```
//!
//! so the recovery scan can validate each record independently and stop at
//! the first frame whose length runs past the file or whose checksum fails
//! — a torn tail truncates cleanly at a record boundary, never replaying a
//! partial record. Payloads begin with a one-byte tag
//! ([`TAG_BEGIN`]..[`TAG_CHECKPOINT`]); all integers are little-endian.
//!
//! The hot commit path encodes through a [`RecordEncoder`], whose scratch
//! buffer is reused across commits — one record costs zero allocations
//! once the buffer has grown to the write-set's working size.
//!
//! The served system's wire protocol (`ccopt-net`) frames its messages
//! the same way: [`frame_with`] is the one place a frame header is
//! written, and [`frame_len`] and [`frame_intact`] the one place it is
//! read and checked.

use crate::StoreImage;
use ccopt_model::ids::VarId;
use ccopt_model::term::TermId;
use ccopt_model::value::Value;

/// File magic: the first 8 bytes of every WAL.
pub const MAGIC: [u8; 8] = *b"CCOPTWAL";
/// Format version recorded in the header.
pub const FORMAT_VERSION: u32 = 1;
/// Total header length: magic + version + store kind + variable count.
pub const HEADER_LEN: usize = 8 + 4 + 1 + 4;

/// Record payload tags.
pub const TAG_BEGIN: u8 = 1;
/// A committed transaction's write-set (after-images), logged just before
/// its commit record.
pub const TAG_WRITESET: u8 = 2;
/// The commit point: a transaction is durable iff this record is intact.
pub const TAG_COMMIT: u8 = 3;
/// An abort (informational: recovery discards the write-set, if any).
pub const TAG_ABORT: u8 = 4;
/// A full store snapshot; recovery restarts from the latest intact one.
pub const TAG_CHECKPOINT: u8 = 5;
/// A two-phase-commit prepare: the write-set of a cross-shard transaction
/// voted yes on this shard, durable *before* the coordinator decides.
/// Recovery parks it as in-doubt until a matching [`TAG_RESOLVE`] (in the
/// log, or consulted from the coordinator shard's log).
pub const TAG_PREPARE: u8 = 6;
/// The outcome of a prepared cross-shard transaction: commit applies the
/// parked prepare's write-set, abort discards it. On the coordinator
/// shard this record *is* the atomic commit point of the global
/// transaction.
pub const TAG_RESOLVE: u8 = 7;

/// Which store shape a log belongs to (recorded in the header so recovery
/// rebuilds the right one).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StoreKind {
    /// One committed value per variable.
    Single,
    /// Per-variable version chains.
    Multi,
}

impl StoreKind {
    fn to_byte(self) -> u8 {
        match self {
            StoreKind::Single => 0,
            StoreKind::Multi => 1,
        }
    }

    fn from_byte(b: u8) -> Option<StoreKind> {
        match b {
            0 => Some(StoreKind::Single),
            1 => Some(StoreKind::Multi),
            _ => None,
        }
    }
}

impl std::fmt::Display for StoreKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreKind::Single => write!(f, "single-version"),
            StoreKind::Multi => write!(f, "multi-version"),
        }
    }
}

// ----------------------------------------------------------------- crc32

/// CRC-32 (IEEE 802.3, the zlib polynomial), slicing-by-8: each step
/// folds eight bytes through eight tables, and a tail shorter than eight
/// bytes goes through the bytewise table.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut crc = !0u32;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let lo = u32::from_le_bytes([c[0], c[1], c[2], c[3]]) ^ crc;
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

/// `CRC32_TABLES[0]` is the bytewise table; `CRC32_TABLES[k][i]` is the
/// CRC of byte `i` followed by `k` zero bytes.
static CRC32_TABLES: [[u32; 256]; 8] = crc32_tables();

const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        t[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

// ------------------------------------------------------------ primitives

/// Append a little-endian u16.
pub fn put_u16(buf: &mut Vec<u8>, v: u16) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Append a little-endian u32.
pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Append a little-endian u64.
pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Append a tagged [`Value`] (the codec [`Cursor::take_value`] reads).
/// Public because the served system's wire protocol (`ccopt-net`) reuses
/// the WAL's value encoding verbatim.
pub fn put_value(buf: &mut Vec<u8>, v: Value) {
    match v {
        Value::Int(i) => {
            buf.push(0);
            buf.extend_from_slice(&i.to_le_bytes());
        }
        Value::Bool(b) => {
            buf.push(1);
            buf.push(b as u8);
        }
        Value::Term(t) => {
            buf.push(2);
            put_u32(buf, t.0);
        }
    }
}

/// Sequential reader over a byte slice; every take returns `None` at the
/// first short read, which the scan treats as a torn record.
pub struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// A cursor over `buf` starting at offset 0.
    pub fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    /// Bytes consumed so far.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Has every byte been consumed?
    pub fn at_end(&self) -> bool {
        self.pos == self.buf.len()
    }

    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        let s = self.buf.get(self.pos..end)?;
        self.pos = end;
        Some(s)
    }

    /// Read one byte.
    pub fn take_u8(&mut self) -> Option<u8> {
        self.take(1).map(|s| s[0])
    }

    /// Read a little-endian u16.
    pub fn take_u16(&mut self) -> Option<u16> {
        self.take(2)
            .map(|s| u16::from_le_bytes(s.try_into().unwrap()))
    }

    /// Read `n` raw bytes.
    pub fn take_bytes(&mut self, n: usize) -> Option<&'a [u8]> {
        self.take(n)
    }

    /// Read a little-endian u32.
    pub fn take_u32(&mut self) -> Option<u32> {
        self.take(4)
            .map(|s| u32::from_le_bytes(s.try_into().unwrap()))
    }

    /// Read a little-endian u64.
    pub fn take_u64(&mut self) -> Option<u64> {
        self.take(8)
            .map(|s| u64::from_le_bytes(s.try_into().unwrap()))
    }

    /// Read a tagged [`Value`].
    pub fn take_value(&mut self) -> Option<Value> {
        match self.take_u8()? {
            0 => {
                let s = self.take(8)?;
                Some(Value::Int(i64::from_le_bytes(s.try_into().unwrap())))
            }
            1 => match self.take_u8()? {
                0 => Some(Value::Bool(false)),
                1 => Some(Value::Bool(true)),
                _ => None,
            },
            2 => Some(Value::Term(TermId(self.take_u32()?))),
            _ => None,
        }
    }
}

// --------------------------------------------------------------- framing

/// Append one frame to `out`: the header, then the payload `fill` writes
/// in place behind it (no intermediate payload buffer). Returns the
/// frame's length in bytes, header included.
pub fn frame_with(out: &mut Vec<u8>, fill: impl FnOnce(&mut Vec<u8>)) -> usize {
    let head = out.len();
    out.extend_from_slice(&[0; 8]);
    fill(out);
    let payload = &out[head + 8..];
    let (len, crc) = (payload.len() as u32, crc32(payload));
    out[head..head + 4].copy_from_slice(&len.to_le_bytes());
    out[head + 4..head + 8].copy_from_slice(&crc.to_le_bytes());
    out.len() - head
}

/// The payload length a frame header announces (bound it before
/// allocating that much).
pub fn frame_len(head: &[u8; 8]) -> u32 {
    u32::from_le_bytes(head[..4].try_into().unwrap())
}

/// Does `payload` match the checksum its frame header `head` carries?
pub fn frame_intact(head: &[u8; 8], payload: &[u8]) -> bool {
    u32::from_le_bytes(head[4..].try_into().unwrap()) == crc32(payload)
}

// ---------------------------------------------------------------- header

/// Encode the file header.
pub fn encode_header(store_kind: StoreKind, num_vars: u32) -> Vec<u8> {
    let mut h = Vec::with_capacity(HEADER_LEN);
    h.extend_from_slice(&MAGIC);
    put_u32(&mut h, FORMAT_VERSION);
    h.push(store_kind.to_byte());
    put_u32(&mut h, num_vars);
    h
}

/// Decode the file header; `None` when the prefix is not an intact header
/// of a format version this build reads.
pub fn decode_header(bytes: &[u8]) -> Option<(StoreKind, u32)> {
    let mut c = Cursor::new(bytes.get(..HEADER_LEN)?);
    if c.take(8)? != MAGIC {
        return None;
    }
    if c.take_u32()? != FORMAT_VERSION {
        return None;
    }
    let kind = StoreKind::from_byte(c.take_u8()?)?;
    let num_vars = c.take_u32()?;
    Some((kind, num_vars))
}

// --------------------------------------------------------------- encoder

/// Reusable record encoder: payloads are assembled in a scratch buffer
/// that persists across records, so steady-state encoding allocates
/// nothing (the hot-path contract of the commit sequence
/// `start_writeset` / `push_write`* / `frame_into`).
#[derive(Default, Debug)]
pub struct RecordEncoder {
    scratch: Vec<u8>,
    /// Offset of a write-set's count field, patched by `frame_into`.
    count_at: Option<usize>,
    count: u32,
}

impl RecordEncoder {
    /// A fresh encoder with an empty scratch buffer.
    pub fn new() -> Self {
        RecordEncoder::default()
    }

    fn reset(&mut self, tag: u8) {
        self.scratch.clear();
        self.count_at = None;
        self.count = 0;
        self.scratch.push(tag);
    }

    /// Encode a `Begin { gsn }` payload.
    pub fn begin(&mut self, gsn: u64) {
        self.reset(TAG_BEGIN);
        put_u64(&mut self.scratch, gsn);
    }

    /// Encode a `Commit { gsn }` payload.
    pub fn commit(&mut self, gsn: u64) {
        self.reset(TAG_COMMIT);
        put_u64(&mut self.scratch, gsn);
    }

    /// Encode an `Abort { gsn }` payload.
    pub fn abort(&mut self, gsn: u64) {
        self.reset(TAG_ABORT);
        put_u64(&mut self.scratch, gsn);
    }

    /// Start a `WriteSet { gsn, cts, .. }` payload; push the after-images
    /// with [`push_write`](Self::push_write), then frame.
    pub fn start_writeset(&mut self, gsn: u64, cts: u64) {
        self.reset(TAG_WRITESET);
        put_u64(&mut self.scratch, gsn);
        put_u64(&mut self.scratch, cts);
        self.count_at = Some(self.scratch.len());
        put_u32(&mut self.scratch, 0); // patched by frame_into
    }

    /// Start a `Prepare { gsn, gtid, cts, coord, .. }` payload (the 2PC
    /// vote of one shard); push the after-images with
    /// [`push_write`](Self::push_write), then frame.
    pub fn start_prepare(&mut self, gsn: u64, gtid: u64, cts: u64, coord: u32) {
        self.reset(TAG_PREPARE);
        put_u64(&mut self.scratch, gsn);
        put_u64(&mut self.scratch, gtid);
        put_u64(&mut self.scratch, cts);
        put_u32(&mut self.scratch, coord);
        self.count_at = Some(self.scratch.len());
        put_u32(&mut self.scratch, 0); // patched by frame_into
    }

    /// Encode a `Resolve { gtid, commit }` payload.
    pub fn resolve(&mut self, gtid: u64, commit: bool) {
        self.reset(TAG_RESOLVE);
        put_u64(&mut self.scratch, gtid);
        self.scratch.push(commit as u8);
    }

    /// Append one `(var, after-image)` pair to an open write-set or
    /// prepare record.
    pub fn push_write(&mut self, var: VarId, value: Value) {
        debug_assert!(self.count_at.is_some(), "push_write outside a write-set");
        put_u32(&mut self.scratch, var.0);
        put_value(&mut self.scratch, value);
        self.count += 1;
    }

    /// Encode a `Checkpoint { floor, image }` payload.
    pub fn checkpoint(&mut self, floor: u64, image: &StoreImage) {
        self.reset(TAG_CHECKPOINT);
        put_u64(&mut self.scratch, floor);
        match image {
            StoreImage::Single(vals) => {
                self.scratch.push(StoreKind::Single.to_byte());
                put_u32(&mut self.scratch, vals.len() as u32);
                for &v in vals {
                    put_value(&mut self.scratch, v);
                }
            }
            StoreImage::Multi(chains) => {
                self.scratch.push(StoreKind::Multi.to_byte());
                put_u32(&mut self.scratch, chains.len() as u32);
                for chain in chains {
                    put_u32(&mut self.scratch, chain.len() as u32);
                    for &(wts, v) in chain {
                        put_u64(&mut self.scratch, wts);
                        put_value(&mut self.scratch, v);
                    }
                }
            }
        }
    }

    /// Frame the encoded payload (length + CRC32 + bytes) onto `out`,
    /// patching the write-set count if one is open. The scratch buffer is
    /// retained for the next record.
    pub fn frame_into(&mut self, out: &mut Vec<u8>) {
        if let Some(at) = self.count_at.take() {
            self.scratch[at..at + 4].copy_from_slice(&self.count.to_le_bytes());
        }
        frame_with(out, |out| out.extend_from_slice(&self.scratch));
    }

    /// Current scratch capacity (observability for the allocation tests).
    pub fn scratch_capacity(&self) -> usize {
        self.scratch.capacity()
    }
}

/// Split one framed record off the front of `bytes`: `Some((payload,
/// frame_len))` when the frame is complete and its checksum matches.
pub fn split_frame(bytes: &[u8]) -> Option<(&[u8], usize)> {
    let head = bytes.first_chunk()?;
    let end = 8 + frame_len(head) as usize;
    let payload = bytes.get(8..end)?;
    frame_intact(head, payload).then_some((payload, end))
}

/// Offsets (relative to the start of `records`, i.e. just past the file
/// header) at which each intact framed record *ends* — the crash
/// boundaries the differential tests truncate at.
pub fn frame_boundaries(records: &[u8]) -> Vec<usize> {
    let mut out = Vec::new();
    let mut pos = 0;
    while let Some((_, frame)) = split_frame(&records[pos..]) {
        pos += frame;
        out.push(pos);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_the_ieee_check_value() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn slicing_by_8_matches_the_bytewise_crc() {
        let bytewise = |bytes: &[u8]| {
            let mut crc = !0u32;
            for &b in bytes {
                crc = (crc >> 8) ^ CRC32_TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
            }
            !crc
        };
        let data: Vec<u8> = (0..308u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect();
        for start in 0..8 {
            for len in 0..=300 {
                let bytes = &data[start..start + len];
                assert_eq!(crc32(bytes), bytewise(bytes), "start {start}, len {len}");
            }
        }
    }

    #[test]
    fn header_roundtrip_and_rejection() {
        let h = encode_header(StoreKind::Multi, 7);
        assert_eq!(h.len(), HEADER_LEN);
        assert_eq!(decode_header(&h), Some((StoreKind::Multi, 7)));
        assert_eq!(decode_header(&h[..HEADER_LEN - 1]), None);
        let mut bad = h.clone();
        bad[0] ^= 0xFF;
        assert_eq!(decode_header(&bad), None);
        let mut wrong_version = h;
        wrong_version[8] = 99;
        assert_eq!(decode_header(&wrong_version), None);
    }

    #[test]
    fn values_roundtrip_through_the_cursor() {
        let mut buf = Vec::new();
        for v in [
            Value::Int(-42),
            Value::Int(i64::MAX),
            Value::Bool(true),
            Value::Bool(false),
            Value::Term(TermId(9)),
        ] {
            buf.clear();
            put_value(&mut buf, v);
            let mut c = Cursor::new(&buf);
            assert_eq!(c.take_value(), Some(v));
            assert!(c.at_end());
        }
    }

    #[test]
    fn framed_records_validate_and_reject_flips() {
        let mut enc = RecordEncoder::new();
        let mut out = Vec::new();
        enc.start_writeset(3, 17);
        enc.push_write(VarId(0), Value::Int(5));
        enc.push_write(VarId(2), Value::Bool(true));
        enc.frame_into(&mut out);
        enc.commit(3);
        enc.frame_into(&mut out);
        let (payload, frame) = split_frame(&out).expect("first frame intact");
        assert_eq!(payload[0], TAG_WRITESET);
        let (payload2, frame2) = split_frame(&out[frame..]).expect("second frame intact");
        assert_eq!(payload2[0], TAG_COMMIT);
        assert_eq!(frame + frame2, out.len());
        assert_eq!(frame_boundaries(&out), vec![frame, frame + frame2]);
        // Any single bit flip anywhere shortens the intact prefix: the
        // flipped record (or a record behind a corrupted length field)
        // never validates.
        for i in 0..out.len() {
            let mut bad = out.clone();
            bad[i] ^= 0x10;
            assert!(
                frame_boundaries(&bad).len() < 2,
                "flip at byte {i} went undetected"
            );
        }
    }

    #[test]
    fn scratch_is_reused_across_records() {
        let mut enc = RecordEncoder::new();
        let mut out = Vec::new();
        enc.start_writeset(0, 0);
        for i in 0..64 {
            enc.push_write(VarId(i), Value::Int(i as i64));
        }
        enc.frame_into(&mut out);
        let cap = enc.scratch_capacity();
        for gsn in 1..100u64 {
            out.clear();
            enc.start_writeset(gsn, gsn);
            for i in 0..64 {
                enc.push_write(VarId(i), Value::Int(i as i64));
            }
            enc.frame_into(&mut out);
        }
        assert_eq!(
            enc.scratch_capacity(),
            cap,
            "steady-state encoding must not reallocate the scratch buffer"
        );
    }
}
