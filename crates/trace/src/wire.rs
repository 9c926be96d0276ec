//! Shared wire-format primitives for the binary trace codec.
//!
//! [`crate::codec`] (whole-trace) and [`crate::stream`] (incremental)
//! speak the same byte format; this module holds the single copy of the
//! varint/zigzag/tag encoding, the header layout, and the record
//! encode/decode logic, so hardening against corrupt inputs lands in one
//! place.
//!
//! Decoding reads from one of two [`ByteSource`]s: [`CountingReader`]
//! over any [`Read`] (the whole-trace and streaming readers, frame
//! headers, the corpus prologue) and [`SliceCursor`] over bytes already
//! in memory (corpus chunk bodies, frame payloads). Both track the byte
//! offset consumed so far and raise the same errors at the same offsets:
//! every corrupt-path [`TraceError`] reports *where* in the input the
//! problem was detected, which is what makes fuzzer findings and
//! truncated-download reports actionable. [`read_record_body`] is
//! generic over the two, so there is one record decoder.

use std::io::Read;

use ev8_util::bytebuf::ByteBuf;

use crate::error::TraceError;
use crate::types::{BranchKind, BranchRecord, Outcome, Pc};

/// Magic bytes identifying a trace file.
pub const MAGIC: [u8; 4] = *b"EV8T";

/// Current format version.
pub const VERSION: u16 = 1;

/// Trace names longer than this are rejected as corrupt rather than
/// allocated: a flipped bit in the name-length varint must not buy a
/// multi-GiB `vec![0; len]`.
pub(crate) const MAX_NAME_LEN: usize = 1 << 16;

/// Cap on the record-count *preallocation* (not on the trace size).
/// A record is at least 4 encoded bytes, so an honest 2^16-record trace
/// is ≥ 256 KiB of input; preallocating beyond this from an unvalidated
/// header would let a forged count field reserve gigabytes up front.
/// Longer traces simply grow the vector as records actually parse.
pub(crate) const RECORD_PREALLOC_CAP: usize = 1 << 16;

pub(crate) const KIND_MASK: u8 = 0b0111;
pub(crate) const TAKEN_BIT: u8 = 0b1000;

pub(crate) fn kind_to_tag(kind: BranchKind) -> u8 {
    match kind {
        BranchKind::Conditional => 0,
        BranchKind::Unconditional => 1,
        BranchKind::Call => 2,
        BranchKind::Return => 3,
        BranchKind::IndirectJump => 4,
    }
}

pub(crate) fn kind_from_tag(tag: u8) -> Option<BranchKind> {
    Some(match tag {
        0 => BranchKind::Conditional,
        1 => BranchKind::Unconditional,
        2 => BranchKind::Call,
        3 => BranchKind::Return,
        4 => BranchKind::IndirectJump,
        _ => return None,
    })
}

pub(crate) fn zigzag_encode(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

pub(crate) fn zigzag_decode(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

pub(crate) fn put_varint(buf: &mut ByteBuf, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.put_u8(byte);
            return;
        }
        buf.put_u8(byte | 0x80);
    }
}

/// Where the record decoder reads its bytes from: a position-tracking
/// byte source whose errors carry the offset they were detected at.
pub(crate) trait ByteSource {
    /// Bytes consumed so far, plus the source's base offset.
    fn offset(&self) -> u64;

    /// Reads one byte; running out is [`TraceError::UnexpectedEof`] at
    /// the current offset.
    fn read_u8(&mut self) -> Result<u8, TraceError>;

    /// Reads an LEB128 varint, rejecting encodings wider than 64 bits
    /// with [`TraceError::Corrupt`] at the offset where it started.
    fn read_varint(&mut self) -> Result<u64, TraceError>;

    /// Builds a [`TraceError::Corrupt`] at the current offset.
    fn corrupt(&self, what: &'static str) -> TraceError {
        TraceError::Corrupt {
            what,
            offset: self.offset(),
        }
    }
}

/// A [`Read`] adapter that counts consumed bytes, so decode errors can
/// say at which offset the input went wrong.
pub(crate) struct CountingReader<R> {
    inner: R,
    offset: u64,
}

impl<R: Read> CountingReader<R> {
    pub(crate) fn new(inner: R) -> Self {
        CountingReader { inner, offset: 0 }
    }

    /// Mutable access to the wrapped reader. The corpus decoder uses
    /// this to snapshot (and then disable) its prologue CRC accumulator
    /// once the checksummed header + index region has been consumed.
    pub(crate) fn get_mut(&mut self) -> &mut R {
        &mut self.inner
    }

    /// Reads exactly `buf.len()` bytes; a short read reports
    /// [`TraceError::UnexpectedEof`] at the offset where the data ran out.
    pub(crate) fn read_exact(&mut self, buf: &mut [u8]) -> Result<(), TraceError> {
        match self.inner.read_exact(buf) {
            Ok(()) => {
                self.offset += buf.len() as u64;
                Ok(())
            }
            Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => {
                Err(TraceError::UnexpectedEof {
                    offset: self.offset,
                })
            }
            Err(e) => Err(TraceError::Io(e)),
        }
    }

    /// Reads one byte, returning `Ok(None)` on clean end-of-stream — the
    /// record-boundary probe streamed traces use to detect their end.
    pub(crate) fn try_read_u8(&mut self) -> Result<Option<u8>, TraceError> {
        let mut byte = [0u8; 1];
        match self.inner.read_exact(&mut byte) {
            Ok(()) => {
                self.offset += 1;
                Ok(Some(byte[0]))
            }
            Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => Ok(None),
            Err(e) => Err(TraceError::Io(e)),
        }
    }
}

/// The LEB128 decode loop, for any [`ByteSource`]. Overflow is reported
/// at `start`, the offset of the varint's first byte.
#[inline(always)]
fn read_varint_from<S: ByteSource>(src: &mut S, start: u64) -> Result<u64, TraceError> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let b = src.read_u8()?;
        if shift >= 64 || (shift == 63 && (b & 0x7f) > 1) {
            return Err(TraceError::Corrupt {
                what: "varint overflow",
                offset: start,
            });
        }
        v |= ((b & 0x7f) as u64) << shift;
        if b & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

impl<R: Read> ByteSource for CountingReader<R> {
    fn offset(&self) -> u64 {
        self.offset
    }

    fn read_u8(&mut self) -> Result<u8, TraceError> {
        let mut byte = [0u8; 1];
        self.read_exact(&mut byte)?;
        Ok(byte[0])
    }

    fn read_varint(&mut self) -> Result<u64, TraceError> {
        read_varint_from(self, self.offset)
    }
}

/// A cursor over bytes already in memory: the [`ByteSource`] for corpus
/// chunk bodies and frame payloads. Same errors at the same offsets as
/// a [`CountingReader`] over the same bytes, without a `Read` call per
/// field.
///
/// Its methods, [`read_varint_from`] and the record decoder are
/// `#[inline(always)]`: left to the heuristics, the varint read stays an
/// out-of-line call that returns its `Result` through memory, which
/// roughly doubled the corpus record path's cost per record.
pub(crate) struct SliceCursor<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Offset of `bytes[0]` in the enclosing stream, so errors report
    /// stream positions, not slice positions.
    base: u64,
}

impl<'a> SliceCursor<'a> {
    /// A cursor at the start of `bytes`, which sit at `base` in the
    /// enclosing stream.
    pub(crate) fn new_at(bytes: &'a [u8], base: u64) -> Self {
        SliceCursor {
            bytes,
            pos: 0,
            base,
        }
    }
}

impl ByteSource for SliceCursor<'_> {
    #[inline(always)]
    fn offset(&self) -> u64 {
        self.base + self.pos as u64
    }

    #[inline(always)]
    fn read_u8(&mut self) -> Result<u8, TraceError> {
        match self.bytes.get(self.pos) {
            Some(&b) => {
                self.pos += 1;
                Ok(b)
            }
            None => Err(TraceError::UnexpectedEof {
                offset: self.offset(),
            }),
        }
    }

    #[inline(always)]
    fn read_varint(&mut self) -> Result<u64, TraceError> {
        // Most deltas and gaps fit one byte.
        if let Some(&b) = self.bytes.get(self.pos) {
            if b & 0x80 == 0 {
                self.pos += 1;
                return Ok(u64::from(b));
            }
        }
        read_varint_from(self, self.offset())
    }
}

/// Cumulative consumption limits for one streaming session.
///
/// PR 3 hardened the decoders against *structurally* forged input (a
/// corrupt count field cannot buy a giant preallocation). Long-running
/// sessions need the complementary *cumulative* guarantee: a client that
/// sends perfectly well-formed input forever must still be cut off. A
/// `SessionBudget` meters three things:
///
/// * the per-frame payload cap ([`SessionBudget::check_frame_len`]) —
///   rejected before any payload allocation;
/// * total bytes consumed across the session
///   ([`SessionBudget::charge_bytes`]);
/// * total records decoded across the session
///   ([`SessionBudget::charge_records`]).
///
/// Every rejection is a structured [`TraceError`] carrying the byte
/// offset at which the budget ran out, so server logs and close frames
/// can report exactly where a client crossed the line.
#[derive(Clone, Copy, Debug)]
pub struct SessionBudget {
    max_frame_len: u64,
    max_bytes: u64,
    max_records: u64,
    bytes: u64,
    records: u64,
}

/// Default per-frame payload cap: 1 MiB.
pub const DEFAULT_FRAME_CAP: u64 = 1 << 20;

impl SessionBudget {
    /// A budget with the given per-frame cap and cumulative limits.
    pub fn new(max_frame_len: u64, max_bytes: u64, max_records: u64) -> Self {
        SessionBudget {
            max_frame_len,
            max_bytes,
            max_records,
            bytes: 0,
            records: 0,
        }
    }

    /// A budget that never trips (all limits at `u64::MAX`).
    pub fn unlimited() -> Self {
        SessionBudget::new(u64::MAX, u64::MAX, u64::MAX)
    }

    /// The per-frame payload cap.
    pub fn max_frame_len(&self) -> u64 {
        self.max_frame_len
    }

    /// Bytes charged so far.
    pub fn bytes_used(&self) -> u64 {
        self.bytes
    }

    /// Records charged so far.
    pub fn records_used(&self) -> u64 {
        self.records
    }

    /// Validates a declared frame-payload length against the per-frame
    /// cap, *before* anything is allocated or read.
    ///
    /// # Errors
    ///
    /// [`TraceError::FrameTooLarge`] at `offset` when `len` exceeds the
    /// cap.
    pub fn check_frame_len(&self, len: u64, offset: u64) -> Result<(), TraceError> {
        if len > self.max_frame_len {
            return Err(TraceError::FrameTooLarge {
                len,
                cap: self.max_frame_len,
                offset,
            });
        }
        Ok(())
    }

    /// Charges `n` bytes against the cumulative session byte budget.
    ///
    /// # Errors
    ///
    /// [`TraceError::BudgetExceeded`] at `offset` when the charge would
    /// cross the limit (the charge is still recorded, so the reported
    /// usage shows what was attempted).
    pub fn charge_bytes(&mut self, n: u64, offset: u64) -> Result<(), TraceError> {
        self.bytes = self.bytes.saturating_add(n);
        if self.bytes > self.max_bytes {
            return Err(TraceError::BudgetExceeded {
                what: "session bytes",
                used: self.bytes,
                limit: self.max_bytes,
                offset,
            });
        }
        Ok(())
    }

    /// Charges `n` records against the cumulative session record budget.
    ///
    /// # Errors
    ///
    /// [`TraceError::BudgetExceeded`] at `offset` when the charge would
    /// cross the limit.
    pub fn charge_records(&mut self, n: u64, offset: u64) -> Result<(), TraceError> {
        self.records = self.records.saturating_add(n);
        if self.records > self.max_records {
            return Err(TraceError::BudgetExceeded {
                what: "session records",
                used: self.records,
                limit: self.max_records,
                offset,
            });
        }
        Ok(())
    }
}

/// Decoded trace-file header.
pub(crate) struct Header {
    pub(crate) name: String,
    /// Record count declared by the header (0 for streamed traces).
    pub(crate) count: u64,
    pub(crate) instruction_count: u64,
}

/// Encodes the header. Streamed writers pass zero counts.
pub(crate) fn put_header(buf: &mut ByteBuf, name: &str, count: u64, instruction_count: u64) {
    buf.put_slice(&MAGIC);
    buf.put_u16_le(VERSION);
    put_varint(buf, name.len() as u64);
    buf.put_slice(name.as_bytes());
    put_varint(buf, count);
    put_varint(buf, instruction_count);
}

/// Decodes and validates the header: magic, version, bounded name.
pub(crate) fn read_header<R: Read>(r: &mut CountingReader<R>) -> Result<Header, TraceError> {
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if magic != MAGIC {
        return Err(TraceError::BadMagic { found: magic });
    }
    let mut ver = [0u8; 2];
    r.read_exact(&mut ver)?;
    let version = u16::from_le_bytes(ver);
    if version != VERSION {
        return Err(TraceError::UnsupportedVersion { found: version });
    }
    let len_at = r.offset();
    let name_len = r.read_varint()? as usize;
    if name_len > MAX_NAME_LEN {
        return Err(TraceError::Corrupt {
            what: "unreasonable name length",
            offset: len_at,
        });
    }
    let mut name_bytes = vec![0u8; name_len];
    let name_at = r.offset();
    r.read_exact(&mut name_bytes)?;
    let name = String::from_utf8(name_bytes).map_err(|_| TraceError::Corrupt {
        what: "trace name is not utf-8",
        offset: name_at,
    })?;
    let count = r.read_varint()?;
    let instruction_count = r.read_varint()?;
    Ok(Header {
        name,
        count,
        instruction_count,
    })
}

/// Encodes one record given the previous record's fall-through PC.
pub(crate) fn put_record(buf: &mut ByteBuf, rec: &BranchRecord, prev_next: Pc) {
    let mut tag = kind_to_tag(rec.kind);
    if rec.is_taken() {
        tag |= TAKEN_BIT;
    }
    buf.put_u8(tag);
    // Wrapping two's-complement deltas: PCs span the full u64 space, so
    // the difference can exceed i64 — the wrap is reversed bit-exactly
    // by the wrapping add on decode.
    let pc_delta = rec.pc.as_u64().wrapping_sub(prev_next.as_u64()) as i64;
    put_varint(buf, zigzag_encode(pc_delta));
    let tgt_delta = rec.target.as_u64().wrapping_sub(rec.pc.as_u64()) as i64;
    put_varint(buf, zigzag_encode(tgt_delta));
    put_varint(buf, rec.gap as u64);
}

/// Decodes one record (tag and body) given the previous record's
/// fall-through PC.
#[inline(always)]
pub(crate) fn read_record<S: ByteSource>(
    r: &mut S,
    prev_next: Pc,
) -> Result<BranchRecord, TraceError> {
    let tag_at = r.offset();
    let tag = r.read_u8()?;
    read_record_body(r, tag, tag_at, prev_next)
}

/// Decodes the body of one record, `tag` having already been read at
/// offset `tag_at`: the one record decoder, behind every reader (the
/// stream reader calls it directly because it must probe the tag byte
/// itself to detect clean EOS).
#[inline(always)]
pub(crate) fn read_record_body<S: ByteSource>(
    r: &mut S,
    tag: u8,
    tag_at: u64,
    prev_next: Pc,
) -> Result<BranchRecord, TraceError> {
    let kind = kind_from_tag(tag & KIND_MASK).ok_or(TraceError::Corrupt {
        what: "unknown branch kind tag",
        offset: tag_at,
    })?;
    let taken = tag & TAKEN_BIT != 0;
    if kind.is_always_taken() && !taken {
        return Err(TraceError::Corrupt {
            what: "non-conditional branch marked not-taken",
            offset: tag_at,
        });
    }
    let pc_delta = zigzag_decode(r.read_varint()?);
    let pc = Pc::new(prev_next.as_u64().wrapping_add(pc_delta as u64));
    let tgt_delta = zigzag_decode(r.read_varint()?);
    let target = Pc::new(pc.as_u64().wrapping_add(tgt_delta as u64));
    let gap_at = r.offset();
    let gap = r.read_varint()?;
    let gap = u32::try_from(gap).map_err(|_| TraceError::Corrupt {
        what: "gap exceeds u32",
        offset: gap_at,
    })?;
    Ok(BranchRecord {
        pc,
        target,
        kind,
        outcome: Outcome::from(taken),
        gap,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zigzag_roundtrip() {
        for v in [
            0i64,
            1,
            -1,
            63,
            -64,
            i64::MAX,
            i64::MIN,
            123456789,
            -987654321,
        ] {
            assert_eq!(zigzag_decode(zigzag_encode(v)), v);
        }
    }

    #[test]
    fn varint_roundtrip() {
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            let mut buf = ByteBuf::new();
            put_varint(&mut buf, v);
            let mut r = CountingReader::new(buf.as_ref());
            assert_eq!(r.read_varint().unwrap(), v);
        }
    }

    #[test]
    fn varint_overflow_rejected_with_offset() {
        // Eleven continuation bytes encode more than 64 bits; the error
        // reports the offset where the varint *started*.
        let mut bytes = vec![0u8; 3];
        bytes.extend_from_slice(&[0xffu8; 11]);
        let mut r = CountingReader::new(bytes.as_slice());
        let mut skip = [0u8; 3];
        r.read_exact(&mut skip).unwrap();
        match r.read_varint() {
            Err(TraceError::Corrupt { what, offset }) => {
                assert_eq!(what, "varint overflow");
                assert_eq!(offset, 3);
            }
            other => panic!("expected corrupt varint, got {other:?}"),
        }
    }

    #[test]
    fn counting_reader_tracks_offsets() {
        let data = [1u8, 2, 3, 4, 5];
        let mut r = CountingReader::new(data.as_slice());
        assert_eq!(r.offset(), 0);
        assert_eq!(r.read_u8().unwrap(), 1);
        assert_eq!(r.offset(), 1);
        let mut two = [0u8; 2];
        r.read_exact(&mut two).unwrap();
        assert_eq!(r.offset(), 3);
        assert_eq!(r.try_read_u8().unwrap(), Some(4));
        assert_eq!(r.read_u8().unwrap(), 5);
        // Clean end: try_read reports None, read_exact reports EOF at 5.
        assert_eq!(r.try_read_u8().unwrap(), None);
        match r.read_u8() {
            Err(TraceError::UnexpectedEof { offset: 5 }) => {}
            other => panic!("expected eof at 5, got {other:?}"),
        }
    }

    /// Reads `bytes` as varints through both byte sources, each placed
    /// at stream offset 100, until the first error; returns the
    /// rendered outcomes.
    fn varints_both_ways(bytes: &[u8]) -> (String, String) {
        fn drain(src: &mut impl ByteSource) -> String {
            let mut out = String::new();
            loop {
                let r = src.read_varint();
                out.push_str(&format!("{r:?}@{} ", src.offset()));
                if r.is_err() {
                    return out;
                }
            }
        }
        let mut prefixed = vec![0u8; 100];
        prefixed.extend_from_slice(bytes);
        let mut counting = CountingReader::new(prefixed.as_slice());
        let mut skip = vec![0u8; 100];
        counting.read_exact(&mut skip).unwrap();
        let a = drain(&mut counting);
        let b = drain(&mut SliceCursor::new_at(bytes, 100));
        (a, b)
    }

    #[test]
    fn slice_cursor_matches_counting_reader() {
        let mut encoded = ByteBuf::new();
        for v in [0u64, 1, 127, 128, 300, 1 << 35, u64::MAX] {
            put_varint(&mut encoded, v);
        }
        let encoded = encoded.into_vec();
        let mut cases = vec![encoded.clone(), vec![0xff; 11], vec![0x80, 0x80]];
        // Ten-byte varints whose last byte overflows 64 bits or not.
        cases.push([vec![0xff; 9], vec![0x01]].concat());
        cases.push([vec![0xff; 9], vec![0x02]].concat());
        for cut in 0..encoded.len() {
            cases.push(encoded[..cut].to_vec());
        }
        for bytes in &cases {
            let (counting, slice) = varints_both_ways(bytes);
            assert_eq!(counting, slice, "bytes {bytes:02x?}");
        }
    }

    #[test]
    fn eof_mid_varint_reports_offset() {
        let bytes = [0x80u8, 0x80]; // two continuation bytes, then nothing
        let mut r = CountingReader::new(bytes.as_slice());
        match r.read_varint() {
            Err(TraceError::UnexpectedEof { offset: 2 }) => {}
            other => panic!("expected eof at 2, got {other:?}"),
        }
    }
}
