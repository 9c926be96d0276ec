//! Corruption robustness for the corpus container: seeded mutations —
//! bit flips, truncation, splices, overwrites — over real corpus bytes
//! must always surface as a typed [`TraceError`] with a bounded byte
//! offset, never a panic, never a length-field-driven fabrication, and
//! never a silently wrong trace. A dense 10k-seed single-byte sweep over
//! the chunk payload region additionally proves the per-chunk CRC has no
//! blind spots: *every* body mutation is caught by checksum.

use ev8_faults::fuzz;
use ev8_predictors::gshare::Gshare;
use ev8_sim::simulator::simulate_corpus;
use ev8_sim::{simulate, SimResult};
use ev8_trace::corpus::{write_corpus_chunked, CorpusReader};
use ev8_trace::frame::{decode_records, encode_records};
use ev8_trace::{BranchKind, BranchRecord, Pc, SessionBudget, Trace, TraceBuilder, TraceError};
use ev8_util::bytebuf::ByteBuf;
use ev8_util::crc::crc32;
use ev8_util::rng::{DefaultRng, Rng};
use ev8_workloads::spec95;

/// First byte of the chunk payload region (everything past the header,
/// chunk index and prologue CRC), found empirically: the prologue CRC is
/// verified when the reader is opened, so the first position whose flip
/// surfaces as a *chunk* checksum mismatch is the first stored payload
/// byte. Every earlier flip fails at open time — either a parse bounds
/// error or the header checksum.
fn find_body_start(bytes: &[u8]) -> usize {
    for pos in 0..bytes.len() {
        let mut mutated = bytes.to_vec();
        mutated[pos] ^= 0x5a;
        if matches!(
            decode(&mutated),
            Err(TraceError::ChecksumMismatch {
                what: "corpus chunk",
                ..
            })
        ) {
            return pos;
        }
    }
    panic!("no chunk payload region found");
}

fn spec95_corpus() -> (Trace, Vec<u8>) {
    let trace = spec95::cached("compress", 0.001).expect("known benchmark");
    let mut bytes = Vec::new();
    // A small chunk length so mutations land across many chunk bodies,
    // not one giant payload.
    write_corpus_chunked(&mut bytes, &trace, 1024).expect("encode");
    ((*trace).clone(), bytes)
}

fn tiny_corpus() -> (Trace, Vec<u8>) {
    let mut b = TraceBuilder::new("tiny");
    for i in 0..24u64 {
        b.branch(
            BranchRecord::conditional(Pc::new(0x4000 + i * 8), Pc::new(0x9000), i % 2 == 0)
                .with_gap((i % 7) as u32),
        );
    }
    let trace = b.finish();
    let mut bytes = Vec::new();
    write_corpus_chunked(&mut bytes, &trace, 4).expect("encode");
    (trace, bytes)
}

fn decode(bytes: &[u8]) -> Result<Trace, TraceError> {
    CorpusReader::new(bytes)?.read_trace()
}

/// The robustness contract for one corrupted input: no panic (the call
/// itself), and on error a bounded offset for every offset-carrying
/// variant — an offset pointing far past the input would send someone
/// debugging a real corrupt file to the wrong place.
fn check_outcome(original: &Trace, mutated: &[u8], seed: u64) {
    match decode(mutated) {
        Ok(trace) => {
            // Corruption the format cannot distinguish from the original
            // (identity mutations, garbage appended after the last
            // chunk) must decode to exactly the original — anything else
            // is a silently wrong trace.
            assert_eq!(
                trace, *original,
                "seed {seed}: corrupted corpus decoded Ok but differs from source"
            );
        }
        Err(e) => {
            // Splices insert at most 64 bytes; allow that much slack on
            // top of the mutated length.
            let bound = mutated.len() as u64 + 64;
            match e {
                TraceError::Corrupt { offset, .. }
                | TraceError::UnexpectedEof { offset }
                | TraceError::FrameTooLarge { offset, .. }
                | TraceError::ChecksumMismatch { offset, .. } => {
                    assert!(
                        offset <= bound,
                        "seed {seed}: error offset {offset} beyond input of {} bytes ({e})",
                        mutated.len()
                    );
                }
                TraceError::BadMagic { .. }
                | TraceError::UnsupportedVersion { .. }
                | TraceError::Io(_) => {}
                // TraceError is non_exhaustive-ish across growth; any
                // typed variant satisfies the contract.
                _ => {}
            }
        }
    }
}

#[test]
fn seeded_mutations_never_panic_and_never_lie() {
    // The full fuzz::corrupt menu over both a real spec95 corpus and a
    // tiny multi-chunk synthetic one. Every seed must resolve to a typed
    // outcome; Ok outcomes must be bit-identical to the source.
    for (original, bytes) in [spec95_corpus(), tiny_corpus()] {
        for seed in 0..600u64 {
            let mutated = fuzz::corrupt(&bytes, seed);
            check_outcome(&original, &mutated, seed);
        }
    }
}

#[test]
fn truncation_at_every_prefix_is_typed() {
    // Exhaustive, not sampled: every prefix of the tiny corpus either
    // fails typed or (full length) decodes exactly.
    let (original, bytes) = tiny_corpus();
    for keep in 0..=bytes.len() {
        match decode(&bytes[..keep]) {
            Ok(trace) => {
                assert_eq!(
                    keep,
                    bytes.len(),
                    "proper prefix of {keep} bytes decoded Ok"
                );
                assert_eq!(trace, original);
            }
            Err(_) => assert_ne!(keep, bytes.len(), "the intact corpus must decode"),
        }
    }
}

#[test]
fn body_sweep_bounds_hold() {
    // The 10k sweep below starts where `find_body_start` says the
    // payload begins. Pin the other side of that boundary: mutating any
    // byte *before* it trips the prologue CRC or a parse bounds error —
    // the prologue is checksum-covered too, never silently accepted.
    let (_, bytes) = spec95_corpus();
    let body_start = find_body_start(&bytes);
    assert!(
        bytes.len() > body_start + 4096,
        "corpus too small for a meaningful body sweep ({} bytes, prologue {body_start})",
        bytes.len()
    );
    for pos in 0..body_start {
        let mut mutated = bytes.clone();
        mutated[pos] ^= 0x5a;
        assert!(
            decode(&mutated).is_err(),
            "prologue byte {pos} flipped without detection"
        );
    }
}

#[test]
fn checksum_catches_every_body_mutation_in_a_10k_seed_sweep() {
    // 10_000 deterministic single-byte XORs over the chunk payload
    // region. The per-chunk CRC is computed over the *stored* bytes and
    // verified before any decompression or parsing, so every one of
    // these must surface as ChecksumMismatch — zero blind spots, and no
    // chance for a flipped payload byte to reach the LZ decoder or the
    // wire parser.
    let (_, bytes) = spec95_corpus();
    let body_start = find_body_start(&bytes);
    let body = bytes.len() - body_start;
    for seed in 0..10_000u64 {
        let pos = body_start + (seed.wrapping_mul(2_654_435_761) % body as u64) as usize;
        let xor = (seed % 255) as u8 + 1; // never the identity
        let mut mutated = bytes.clone();
        mutated[pos] ^= xor;
        match decode(&mutated) {
            Err(TraceError::ChecksumMismatch { what, offset, .. }) => {
                assert_eq!(what, "corpus chunk", "seed {seed}: wrong checksum region");
                assert!(
                    (offset as usize) <= bytes.len(),
                    "seed {seed}: checksum offset {offset} out of file"
                );
            }
            other => panic!(
                "seed {seed}: body byte {pos} ^ {xor:#04x} escaped the chunk CRC: {:?}",
                other.map(|t| t.len())
            ),
        }
    }
}

#[test]
fn mutated_counts_cannot_fabricate_records() {
    // A corrupted record-count field must not drive allocation or yield
    // more records than the input could possibly encode. Successful
    // decodes of mutated inputs are already pinned bit-identical above;
    // here we check the structural bound the faults crate defines holds
    // for every Ok outcome across another seed band.
    let (_, bytes) = tiny_corpus();
    for seed in 10_000..11_000u64 {
        let mutated = fuzz::corrupt(&bytes, seed);
        if let Ok(trace) = decode(&mutated) {
            assert!(
                trace.len() <= fuzz::max_plausible_records(mutated.len()),
                "seed {seed}: {} records from {} bytes",
                trace.len(),
                mutated.len()
            );
        }
    }
}

/// A multi-chunk corpus whose chunks take both storage methods: the
/// first half is a two-branch loop the LZ coder shrinks, the second half
/// has arbitrary 64-bit PCs and targets whose ten-byte varint deltas it
/// cannot, so those chunks are stored raw and a re-sealed mutation of
/// their bytes goes straight to the record decoder.
fn mixed_corpus() -> Vec<u8> {
    let mut rng = DefaultRng::seed_from_u64(0x5eed);
    let mut b = TraceBuilder::new("mixed");
    for i in 0..24u64 {
        let pc = Pc::new(0x4000 + (i % 2) * 0x40);
        b.run(3);
        b.branch(BranchRecord::conditional(pc, Pc::new(0x3f00), i % 2 == 0));
    }
    for i in 0..24u64 {
        let pc = Pc::new(rng.next_u64());
        let target = Pc::new(rng.next_u64());
        b.run(rng.gen_range(0u64..300));
        if i % 5 == 0 {
            b.branch(BranchRecord::always_taken(pc, target, BranchKind::Call));
        } else {
            b.branch(BranchRecord::conditional(
                pc,
                target,
                rng.gen_range(0u32..2) == 1,
            ));
        }
    }
    let mut bytes = Vec::new();
    write_corpus_chunked(&mut bytes, &b.finish(), 6).expect("encode");
    bytes
}

/// Where one chunk lives in a corpus file.
struct ChunkLayout {
    /// Offset of the chunk's `crc:u32le` in the index.
    crc_at: usize,
    /// 0 = stored raw, 1 = LZ.
    method: u8,
    /// The stored payload's byte range.
    body: std::ops::Range<usize>,
}

fn read_varint(bytes: &[u8], pos: &mut usize) -> u64 {
    let mut v = 0u64;
    let mut shift = 0;
    loop {
        let b = bytes[*pos];
        *pos += 1;
        v |= u64::from(b & 0x7f) << shift;
        if b & 0x80 == 0 {
            return v;
        }
        shift += 7;
    }
}

/// Parses an intact corpus's prologue (format version 1, see
/// `ev8_trace::corpus`): every chunk's layout, plus the offset of the
/// prologue CRC.
fn layout(bytes: &[u8]) -> (Vec<ChunkLayout>, usize) {
    let mut pos = 6; // magic + version
    let name_len = read_varint(bytes, &mut pos) as usize;
    pos += name_len;
    for _ in 0..3 {
        read_varint(bytes, &mut pos); // records, instructions, chunk_len
    }
    let chunk_count = read_varint(bytes, &mut pos);
    let mut entries = Vec::new();
    for _ in 0..chunk_count {
        read_varint(bytes, &mut pos); // records
        read_varint(bytes, &mut pos); // raw_len
        let comp_len = read_varint(bytes, &mut pos) as usize;
        let method = bytes[pos];
        entries.push((pos + 1, method, comp_len));
        pos += 5;
    }
    let prologue_crc_at = pos;
    let mut body_at = pos + 4;
    let chunks = entries
        .into_iter()
        .map(|(crc_at, method, comp_len)| {
            let body = body_at..body_at + comp_len;
            body_at += comp_len;
            ChunkLayout {
                crc_at,
                method,
                body,
            }
        })
        .collect();
    assert_eq!(body_at, bytes.len(), "layout walk must end at the file end");
    (chunks, prologue_crc_at)
}

/// Recomputes one chunk's CRC and then the prologue CRC, so a mutated
/// body passes both checksums.
fn reseal(bytes: &mut [u8], chunk: &ChunkLayout, prologue_crc_at: usize) {
    let crc = crc32(&bytes[chunk.body.clone()]);
    bytes[chunk.crc_at..chunk.crc_at + 4].copy_from_slice(&crc.to_le_bytes());
    let crc = crc32(&bytes[..prologue_crc_at]);
    bytes[prologue_crc_at..prologue_crc_at + 4].copy_from_slice(&crc.to_le_bytes());
}

fn parity_predictor() -> Gshare {
    Gshare::new(10, 8)
}

/// The block path: every record of every `next_block` block, in order.
fn block_path(bytes: &[u8]) -> Result<Trace, TraceError> {
    let mut reader = CorpusReader::new(bytes)?;
    let name = reader.name().to_owned();
    let mut records = Vec::new();
    let mut instructions = 0u64;
    while let Some(block) = reader.next_block()? {
        instructions += block.instruction_count();
        records.extend(block.iter());
    }
    Ok(Trace::from_parts(name, records, instructions))
}

/// The record path, twice: `for_each` collecting the records, and
/// `simulate_corpus` scoring them.
fn record_path(
    bytes: &[u8],
) -> (
    Result<Vec<BranchRecord>, TraceError>,
    Result<SimResult, TraceError>,
) {
    let listed = CorpusReader::new(bytes).and_then(|reader| {
        let mut records = Vec::new();
        reader.for_each(|r| records.push(*r)).map(|()| records)
    });
    let simulated = CorpusReader::new(bytes).and_then(|r| simulate_corpus(parity_predictor(), r));
    (listed, simulated)
}

/// Asserts that the record path, the block path and `read_trace` agree
/// on `bytes`: the same error (variant, `what` and offset), or equal
/// records and the in-RAM simulation result.
fn assert_paths_agree(bytes: &[u8], case: &str) {
    let blocks = block_path(bytes);
    let (listed, simulated) = record_path(bytes);
    let whole = CorpusReader::new(bytes).and_then(|r| r.read_trace());
    match (&blocks, &listed, &simulated, &whole) {
        (Ok(trace), Ok(records), Ok(result), Ok(whole)) => {
            assert_eq!(records, trace.records(), "{case}: record path records differ");
            assert_eq!(whole, trace, "{case}: read_trace differs from the blocks");
            assert_eq!(
                *result,
                simulate(parity_predictor(), trace),
                "{case}: simulate_corpus differs from the in-RAM run"
            );
        }
        (Err(b), Err(l), Err(s), Err(w)) => {
            let want = format!("{b:?}");
            assert_eq!(format!("{l:?}"), want, "{case}: for_each error differs");
            assert_eq!(format!("{s:?}"), want, "{case}: simulate_corpus error differs");
            assert_eq!(format!("{w:?}"), want, "{case}: read_trace error differs");
        }
        _ => panic!(
            "{case}: paths disagree on success: blocks {:?}, for_each {:?}, simulate {:?}, read_trace {:?}",
            blocks.as_ref().map(Trace::len),
            listed.as_ref().map(Vec::len),
            simulated.as_ref().map(|_| ()),
            whole.as_ref().map(Trace::len)
        ),
    }
}

#[test]
fn the_mixed_corpus_uses_both_storage_methods() {
    let bytes = mixed_corpus();
    let (chunks, _) = layout(&bytes);
    assert_eq!(chunks.len(), 8);
    assert!(chunks.iter().any(|c| c.method == 0), "no stored chunk");
    assert!(chunks.iter().any(|c| c.method == 1), "no LZ chunk");
}

#[test]
fn record_and_block_paths_agree_on_seeded_mutations() {
    for bytes in [tiny_corpus().1, mixed_corpus()] {
        assert_paths_agree(&bytes, "intact");
        for seed in 0..1_500u64 {
            assert_paths_agree(&fuzz::corrupt(&bytes, seed), &format!("seed {seed}"));
        }
    }
}

#[test]
fn record_and_block_paths_agree_on_resealed_body_mutations() {
    // Every byte of every chunk body, under three XOR masks, with both
    // checksums re-sealed: the CRC passes, so the LZ decoder (method 1)
    // or the record decoder (method 0) has to catch the damage — or
    // decode it into different but well-formed records on both paths.
    let bytes = mixed_corpus();
    let (chunks, prologue_crc_at) = layout(&bytes);
    let mut decoder_errors = 0usize;
    for (c, chunk) in chunks.iter().enumerate() {
        for pos in chunk.body.clone() {
            for xor in [0x01u8, 0x80, 0xff] {
                let mut mutated = bytes.clone();
                mutated[pos] ^= xor;
                reseal(&mut mutated, chunk, prologue_crc_at);
                assert_paths_agree(&mutated, &format!("chunk {c} byte {pos} ^ {xor:#04x}"));
                if let Err(TraceError::Corrupt { .. } | TraceError::UnexpectedEof { .. }) =
                    block_path(&mutated)
                {
                    decoder_errors += 1;
                }
            }
        }
    }
    assert!(
        decoder_errors > 100,
        "only {decoder_errors} re-sealed mutations reached a decoder error"
    );
}

#[test]
fn record_and_block_paths_agree_on_every_truncation() {
    for bytes in [tiny_corpus().1, mixed_corpus()] {
        for keep in 0..=bytes.len() {
            assert_paths_agree(&bytes[..keep], &format!("prefix {keep}"));
        }
    }
}

#[test]
fn corpus_error_offsets_are_pinned() {
    // The parity tests hold the two paths to each other; this holds
    // them to the past. Every input those tests decode, rendered as the
    // block path's outcome (the error, or the record count), in order:
    // the CRC-32 of that transcript and its error count were recorded
    // from the reader whose chunk bodies decoded through a `Read`
    // adapter, so any drift in an error variant, message or offset
    // moves them.
    let mut transcript = String::new();
    let mut record = |bytes: &[u8]| {
        let outcome = block_path(bytes).map(|trace| trace.len());
        transcript.push_str(&format!("{outcome:?}\n"));
    };
    for bytes in [tiny_corpus().1, mixed_corpus()] {
        for seed in 0..1_500u64 {
            record(&fuzz::corrupt(&bytes, seed));
        }
        for keep in 0..=bytes.len() {
            record(&bytes[..keep]);
        }
    }
    let bytes = mixed_corpus();
    let (chunks, prologue_crc_at) = layout(&bytes);
    for chunk in &chunks {
        for pos in chunk.body.clone() {
            for xor in [0x01u8, 0x80, 0xff] {
                let mut mutated = bytes.clone();
                mutated[pos] ^= xor;
                reseal(&mut mutated, chunk, prologue_crc_at);
                record(&mutated);
            }
        }
    }
    let errors = transcript.lines().filter(|l| l.starts_with("Err")).count();
    assert_eq!((errors, crc32(transcript.as_bytes())), (5165, 0x65bc_8430));
}

/// Records for the frame pins: small deltas, ten-byte deltas, every
/// kind and gaps past one varint byte.
fn frame_records() -> Vec<BranchRecord> {
    let mut rng = DefaultRng::seed_from_u64(0xf4a3e);
    (0..40u64)
        .map(|i| {
            let pc = if i % 3 == 0 {
                Pc::new(rng.next_u64())
            } else {
                Pc::new(0x8000 + i * 12)
            };
            let target = Pc::new(0x9000 + (i % 5) * 0x100);
            let rec = match i % 6 {
                0 => BranchRecord::always_taken(pc, target, BranchKind::Call),
                1 => BranchRecord::always_taken(pc, target, BranchKind::Return),
                _ => BranchRecord::conditional(pc, target, i % 4 == 1),
            };
            rec.with_gap((i * 37 % 400) as u32)
        })
        .collect()
}

/// Decodes `payload` as one RECORDS frame at session offset 1000 and
/// renders the outcome: the error, or the decoded records.
fn frame_outcome(payload: &[u8]) -> String {
    let mut cursor = Pc::new(0x40);
    let mut out = Vec::new();
    let result = decode_records(
        payload,
        &mut cursor,
        &mut SessionBudget::unlimited(),
        1000,
        &mut out,
    );
    format!("{result:?} {out:?}")
}

#[test]
fn frame_decode_error_offsets_are_pinned() {
    let records = frame_records();
    let mut payload = ByteBuf::new();
    encode_records(&mut payload, &records, &mut Pc::new(0x40));
    let payload = payload.into_vec();

    // Hand-built cases, offsets by construction.
    let mut bad_kind = payload.clone();
    bad_kind[1] = 0x07;
    assert!(frame_outcome(&bad_kind)
        .starts_with(r#"Err(Corrupt { what: "unknown branch kind tag", offset: 1001 })"#));
    let mut not_taken_call = payload.clone();
    not_taken_call[1] = 0x02;
    assert!(frame_outcome(&not_taken_call).starts_with(
        r#"Err(Corrupt { what: "non-conditional branch marked not-taken", offset: 1001 })"#
    ));
    let mut overflow = vec![1u8, 0x08];
    overflow.extend_from_slice(&[0xff; 11]);
    assert!(frame_outcome(&overflow)
        .starts_with(r#"Err(Corrupt { what: "varint overflow", offset: 1002 })"#));
    let wide_gap = [1u8, 0x08, 0x00, 0x00, 0x80, 0x80, 0x80, 0x80, 0x10];
    assert!(frame_outcome(&wide_gap)
        .starts_with(r#"Err(Corrupt { what: "gap exceeds u32", offset: 1004 })"#));
    let short = &payload[..payload.len() - 1];
    assert!(frame_outcome(short).starts_with(&format!(
        "Err(UnexpectedEof {{ offset: {} }})",
        1000 + short.len()
    )));

    // The sweep: every truncation and every byte under four XOR masks.
    // The CRC-32 of every rendered outcome, in order, was recorded from
    // the frame decoder before its record decode moved onto a slice
    // cursor; any drift in an error variant, message or offset moves it.
    let mut digest = Vec::new();
    let mut errors = 0usize;
    let mut tally = |outcome: String| {
        errors += usize::from(outcome.starts_with("Err"));
        digest.extend_from_slice(outcome.as_bytes());
        digest.push(b'\n');
    };
    for keep in 0..payload.len() {
        tally(frame_outcome(&payload[..keep]));
    }
    for pos in 0..payload.len() {
        for xor in [0x01u8, 0x10, 0x80, 0xff] {
            let mut mutated = payload.clone();
            mutated[pos] ^= xor;
            tally(frame_outcome(&mutated));
        }
    }
    assert_eq!((errors, crc32(&digest)), (1377, 0x4389_b580));
}
