//! Compact binary on-disk trace format.
//!
//! Traces of 100M-instruction-class workloads hold millions of branch
//! records, so the format is delta- and varint-encoded:
//!
//! ```text
//! header:  magic "EV8T" | version u16 LE | name len varint | name bytes
//!          | record count varint | instruction count varint
//! record:  tag byte | pc delta (zigzag varint, from previous record's
//!          next-pc) | target delta (zigzag varint, from this pc) | gap varint
//! tag:     bits 0..3 = branch kind, bit 3 = taken
//! ```
//!
//! The encoding primitives live in the crate-private `wire` module,
//! shared with [`crate::stream`]. Decoding is hardened against corrupt
//! input: every structural error is a [`TraceError`] carrying the byte
//! offset, and length fields from unvalidated headers never drive large
//! allocations.
//!
//! The functions are generic over [`std::io::Read`] / [`std::io::Write`];
//! a `&mut` reference can be passed wherever a reader or writer is expected.
//!
//! # Example
//!
//! ```
//! # fn main() -> Result<(), ev8_trace::TraceError> {
//! use ev8_trace::{codec, BranchRecord, Pc, TraceBuilder};
//!
//! let mut b = TraceBuilder::new("roundtrip");
//! b.run(2);
//! b.branch(BranchRecord::conditional(Pc::new(0x100), Pc::new(0x80), true));
//! let t = b.finish();
//!
//! let mut buf = Vec::new();
//! codec::write_trace(&mut buf, &t)?;
//! let back = codec::read_trace(&mut buf.as_slice())?;
//! assert_eq!(back, t);
//! # Ok(())
//! # }
//! ```

use std::io::{Read, Write};

use ev8_util::bytebuf::ByteBuf;

use crate::error::TraceError;
use crate::trace::Trace;
use crate::types::Pc;
use crate::wire::{self, ByteSource, CountingReader, RECORD_PREALLOC_CAP};

pub use crate::wire::{MAGIC, VERSION};

/// Writes a trace in the binary format.
///
/// # Errors
///
/// Returns [`TraceError::Io`] when the underlying writer fails.
pub fn write_trace<W: Write>(mut w: W, trace: &Trace) -> Result<(), TraceError> {
    let mut buf = ByteBuf::with_capacity(64 + trace.len() * 6);
    wire::put_header(
        &mut buf,
        trace.name(),
        trace.len() as u64,
        trace.instruction_count(),
    );

    let mut prev_next = Pc::default();
    for rec in trace.iter() {
        wire::put_record(&mut buf, rec, prev_next);
        prev_next = rec.next_pc();

        // Flush periodically to bound memory for very large traces.
        if buf.len() >= 1 << 20 {
            w.write_all(&buf)?;
            buf.clear();
        }
    }
    w.write_all(&buf)?;
    Ok(())
}

/// Reads a complete trace written by [`write_trace`].
///
/// # Errors
///
/// Returns [`TraceError::BadMagic`], [`TraceError::UnsupportedVersion`],
/// [`TraceError::Corrupt`] or [`TraceError::UnexpectedEof`] on malformed
/// input (each carrying the byte offset where the problem was detected),
/// and [`TraceError::Io`] on reader failure.
pub fn read_trace<R: Read>(r: R) -> Result<Trace, TraceError> {
    let mut r = CountingReader::new(r);
    let header = wire::read_header(&mut r)?;
    let count = header.count as usize;

    // The count field is attacker-controlled until the records actually
    // parse: preallocate at most RECORD_PREALLOC_CAP entries and let
    // honest long traces grow organically.
    let mut records = Vec::with_capacity(count.min(RECORD_PREALLOC_CAP));
    let mut prev_next = Pc::default();
    for _ in 0..count {
        let rec = wire::read_record(&mut r, prev_next)?;
        prev_next = rec.next_pc();
        records.push(rec);
    }

    let expected = records.len() as u64 + records.iter().map(|r| r.gap as u64).sum::<u64>();
    if expected != header.instruction_count {
        return Err(r.corrupt("instruction count mismatch"));
    }
    Ok(Trace::from_parts(
        header.name,
        records,
        header.instruction_count,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::TraceBuilder;
    use crate::types::{BranchKind, BranchRecord};

    fn sample_trace() -> Trace {
        let mut b = TraceBuilder::new("codec-sample");
        let mut pc = Pc::new(0x1_0000);
        for i in 0..500u64 {
            b.run(i % 7);
            let kind = match i % 11 {
                0 => BranchKind::Call,
                1 => BranchKind::Return,
                2 => BranchKind::Unconditional,
                3 => BranchKind::IndirectJump,
                _ => BranchKind::Conditional,
            };
            let target = Pc::new(pc.as_u64().wrapping_add((i * 36) % 4096 + 4));
            let rec = if kind.is_conditional() {
                BranchRecord::conditional(pc, target, i % 3 != 0)
            } else {
                BranchRecord::always_taken(pc, target, kind)
            };
            pc = rec.next_pc().advance(i % 5);
            b.branch(rec);
        }
        b.finish()
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let t = sample_trace();
        let mut buf = Vec::new();
        write_trace(&mut buf, &t).unwrap();
        let back = read_trace(&mut buf.as_slice()).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn roundtrip_empty_trace() {
        let t = Trace::default();
        let mut buf = Vec::new();
        write_trace(&mut buf, &t).unwrap();
        let back = read_trace(&mut buf.as_slice()).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn bad_magic_detected() {
        let mut buf = Vec::new();
        write_trace(&mut buf, &sample_trace()).unwrap();
        buf[0] = b'X';
        assert!(matches!(
            read_trace(&mut buf.as_slice()),
            Err(TraceError::BadMagic { .. })
        ));
    }

    #[test]
    fn bad_version_detected() {
        let mut buf = Vec::new();
        write_trace(&mut buf, &sample_trace()).unwrap();
        buf[4] = 0xff;
        buf[5] = 0xff;
        assert!(matches!(
            read_trace(&mut buf.as_slice()),
            Err(TraceError::UnsupportedVersion { found: 0xffff })
        ));
    }

    #[test]
    fn truncation_detected_with_offset() {
        let mut buf = Vec::new();
        write_trace(&mut buf, &sample_trace()).unwrap();
        buf.truncate(buf.len() - 3);
        match read_trace(&mut buf.as_slice()) {
            Err(TraceError::UnexpectedEof { offset }) => {
                assert!(offset as usize <= buf.len());
                assert!(offset > 0);
            }
            other => panic!("expected eof, got {other:?}"),
        }
    }

    #[test]
    fn empty_input_is_eof_at_zero() {
        assert!(matches!(
            read_trace(&mut [][..].as_ref()),
            Err(TraceError::UnexpectedEof { offset: 0 })
        ));
    }

    #[test]
    fn corrupt_kind_tag_reports_offset() {
        let mut b = TraceBuilder::new("t");
        b.branch(BranchRecord::conditional(
            Pc::new(0x100),
            Pc::new(0x80),
            true,
        ));
        let mut buf = Vec::new();
        write_trace(&mut buf, &b.finish()).unwrap();
        // Header: 4 magic + 2 version + 1 name len + 1 name + 2 counts =
        // 10 bytes; the first record's tag is at offset 10.
        buf[10] = 0x07;
        match read_trace(&mut buf.as_slice()) {
            Err(TraceError::Corrupt { what, offset }) => {
                assert_eq!(what, "unknown branch kind tag");
                assert_eq!(offset, 10);
            }
            other => panic!("expected corrupt tag, got {other:?}"),
        }
    }

    #[test]
    fn encoding_is_compact() {
        // Sequential branches with small deltas should cost only a few
        // bytes per record.
        let t = sample_trace();
        let mut buf = Vec::new();
        write_trace(&mut buf, &t).unwrap();
        assert!(
            buf.len() < t.len() * 8 + 64,
            "expected compact encoding, got {} bytes for {} records",
            buf.len(),
            t.len()
        );
    }
}
