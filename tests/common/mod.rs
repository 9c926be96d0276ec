//! Arbitrary-trace generators shared by the equivalence suites.

use ev8_trace::{BranchKind, BranchRecord, Outcome, Pc, Trace, TraceBuilder};
use ev8_util::prop::Gen;

const KINDS: [BranchKind; 5] = [
    BranchKind::Conditional,
    BranchKind::Unconditional,
    BranchKind::Call,
    BranchKind::Return,
    BranchKind::IndirectJump,
];

/// Arbitrary record, including wide-PC and wide-gap extremes so the
/// flat view's escape side tables are exercised, not just the packed
/// fast path.
pub fn arb_record(g: &mut Gen) -> BranchRecord {
    let kind = *g.choose(&KINDS);
    let taken = g.bool() || kind.is_always_taken();
    let pc = if g.range(0u32..16) == 0 {
        // Past the u32 instruction-word range: forces the escape list.
        0xFFFF_FFFF_0000_0000u64 | (g.u32() as u64 * 4)
    } else {
        g.u32() as u64 * 4
    };
    let gap = if g.range(0u32..16) == 0 {
        g.range(255u32..100_000)
    } else {
        g.range(0u32..255)
    };
    BranchRecord {
        pc: Pc::new(pc),
        target: Pc::new(g.u32() as u64 * 4),
        kind,
        outcome: Outcome::from(taken),
        gap,
    }
}

/// Arbitrary trace of 0..400 [`arb_record`]s (empty traces included).
pub fn arb_trace(g: &mut Gen) -> Trace {
    let records = g.vec(0..400, arb_record);
    let mut b = TraceBuilder::new("prop");
    for r in &records {
        b.branch(*r);
    }
    b.finish()
}
