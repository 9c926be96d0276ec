//! The EV8 index functions (§7 of the paper).
//!
//! The four logical tables live in eight physical arrays (four banks ×
//! prediction/hysteresis), which constrains the indices:
//!
//! * **8 shared, unhashed bits**: the bank number `(i1,i0)` (§6) and the
//!   wordline number `(i10..i5) = (h3,h2,h1,h0,a8,a7)` — wordline decode
//!   is on the critical path, so these bits cannot be hashed.
//! * **Column bits** `(i15..i11)` (`(i13..i11)` for the 16K-entry BIM):
//!   only a single 2-input XOR gate is allowed per bit.
//! * **Unshuffle bits** `(i4,i3,i2)`: select the prediction inside the
//!   8-bit word read from the array; computed a cycle earlier, so
//!   arbitrarily wide XOR trees are allowed ("11 bits are XORed in the
//!   unshuffling function on table G1").
//!
//! The concrete equations below follow §7.4-7.5 of the paper. The
//! available text of the paper has a few typographically lost terms
//! (noted `reconstructed` in comments); the reconstructions obey the
//! paper's stated design rules: single-XOR column bits preferring history
//! bits, distinct XOR pairs across tables, per-slot bits `a4..a2` present
//! in the unshuffle, and path bits `z5`/`z6` from the previous fetch
//! block mixed into BIM and the unshuffles.
//!
//! Notation (§7.3): `H = (h20..h0)` is the three-blocks-old lghist,
//! `A = (a52..a2)` the fetch-block/branch address, `Z` the previous fetch
//! block's address, `I = (i15..i0)` the table index with `(i1,i0)` the
//! bank, `(i4,i3,i2)` the offset in the 8-bit word, `(i10..i5)` the
//! wordline and the highest bits the column.

use ev8_trace::Pc;

use crate::banks::BankId;
use crate::config::WordlineMode;

/// One hashed index bit: the XOR of the listed address (`a_i`), history
/// (`h_i`) and previous-block (`z_i`) bits, held as three masks so that
/// it evaluates as a single parity however many terms it has.
#[derive(Clone, Copy, Debug)]
struct Terms {
    a: u64,
    h: u64,
    z: u64,
}

impl Terms {
    /// The XOR of `a_i` for each `i` in `a`, `h_i` for each `i` in `h`
    /// and `z_i` for each `i` in `z`. A bit listed twice cancels, as in
    /// the XOR it stands for.
    const fn new(a: &[u32], h: &[u32], z: &[u32]) -> Self {
        const fn mask(bits: &[u32]) -> u64 {
            let mut m = 0u64;
            let mut i = 0;
            while i < bits.len() {
                m ^= 1 << bits[i];
                i += 1;
            }
            m
        }
        Terms {
            a: mask(a),
            h: mask(h),
            z: mask(z),
        }
    }
}

/// The three unshuffle bits `(i4, i3, i2)` of a table.
type Unshuffle = [Terms; 3];

/// All inputs the EV8 index functions consume for one branch.
#[derive(Clone, Copy, Debug)]
pub struct IndexInputs {
    /// The branch's PC (bits ≥ 5 equal the fetch block address bits).
    pub pc: Pc,
    /// The visible (three-blocks-old) lghist value; bit 0 = `h0`.
    pub history: u64,
    /// Address of the previous fetch block (`Z`), zero at stream start.
    pub z: Pc,
    /// The bank selected for this fetch block.
    pub bank: BankId,
    /// Wordline selection variant (Fig 9 axis).
    pub wordline: WordlineMode,
}

impl IndexInputs {
    #[inline]
    fn a(&self, i: u32) -> u64 {
        self.pc.bit(i)
    }

    #[inline]
    fn h(&self, i: u32) -> u64 {
        (self.history >> i) & 1
    }

    #[inline]
    fn z(&self, i: u32) -> u64 {
        self.z.bit(i)
    }

    /// The shared 6-bit wordline number `(i10..i5)`.
    ///
    /// EV8 mode: `(h3,h2,h1,h0,a8,a7)` — four history bits make wordline
    /// use far more uniform than pure address bits (§7.3). Address-only
    /// mode: `(a12..a7)`.
    pub fn wordline_bits(&self) -> u64 {
        match self.wordline {
            WordlineMode::HistoryAndAddress => {
                (self.h(3) << 5)
                    | (self.h(2) << 4)
                    | (self.h(1) << 3)
                    | (self.h(0) << 2)
                    | (self.a(8) << 1)
                    | self.a(7)
            }
            WordlineMode::AddressOnly => {
                (self.a(12) << 5)
                    | (self.a(11) << 4)
                    | (self.a(10) << 3)
                    | (self.a(9) << 2)
                    | (self.a(8) << 1)
                    | self.a(7)
            }
        }
    }

    /// The value of one hashed index bit for these inputs.
    #[inline]
    fn parity(&self, t: &Terms) -> u64 {
        let x = (self.pc.as_u64() & t.a) ^ (self.history & t.h) ^ (self.z.as_u64() & t.z);
        u64::from(x.count_ones() & 1)
    }

    /// The 3-bit offset `(i4, i3, i2)` in the 8-bit word.
    #[inline]
    fn offset(&self, u: &Unshuffle) -> u64 {
        (self.parity(&u[0]) << 2) | (self.parity(&u[1]) << 1) | self.parity(&u[2])
    }

    fn assemble(&self, column: u64, offset: u64, column_bits: u32) -> usize {
        debug_assert!(offset < 8);
        debug_assert!(column < (1 << column_bits));
        let wl = self.wordline_bits();
        ((column << 11) | (wl << 5) | (offset << 2) | self.bank as u64) as usize
    }

    /// BIM index (14 bits: 3 column, 6 wordline, 3 offset, 2 bank).
    ///
    /// §7.4: BIM's extra bits use path information from the last fetch
    /// block `Z`: `(i13,i12,i11,i4,i3,i2) = (a11, a10⊕z5, a9⊕z6, a4,
    /// a3⊕z5, a2⊕z6)` (the `z`-XORed terms are reconstructed).
    pub fn bim(&self) -> usize {
        const OFFSET: Unshuffle = [
            Terms::new(&[4], &[], &[]),
            Terms::new(&[3], &[], &[5]),
            Terms::new(&[2], &[], &[6]),
        ];
        let column = (self.a(11) << 2) | ((self.a(10) ^ self.z(5)) << 1) | (self.a(9) ^ self.z(6));
        self.assemble(column, self.offset(&OFFSET), 3)
    }

    /// G0 index (16 bits).
    ///
    /// §7.5: G0 and Meta share `i15` and `i14`. Column
    /// `(i15..i11) = (h7⊕h11, h8⊕h12, h5⊕h10, h3⊕h12, a10⊕h6)` (the three
    /// low column bits are reconstructed; the two shared ones come from
    /// the Meta equations). Unshuffle:
    /// `i4 = a4⊕a12⊕h5⊕h8⊕h11⊕z5` (reconstructed),
    /// `i3 = a3⊕a11⊕h9⊕h10⊕h12⊕z6⊕a5`,
    /// `i2 = a2⊕a14⊕a10⊕h6⊕h4⊕h7⊕a6`.
    pub fn g0(&self) -> usize {
        const OFFSET: Unshuffle = [
            Terms::new(&[4, 12], &[5, 8, 11], &[5]),
            Terms::new(&[3, 11, 5], &[9, 10, 12], &[6]),
            Terms::new(&[2, 14, 10, 6], &[6, 4, 7], &[]),
        ];
        let column = ((self.h(7) ^ self.h(11)) << 4)
            | ((self.h(8) ^ self.h(12)) << 3)
            | ((self.h(5) ^ self.h(10)) << 2)
            | ((self.h(3) ^ self.h(12)) << 1)
            | (self.a(10) ^ self.h(6));
        self.assemble(column, self.offset(&OFFSET), 5)
    }

    /// G1 index (16 bits).
    ///
    /// §7.5 (verbatim): column `(i15..i11) = (h19⊕h12, h18⊕h11, h17⊕h10,
    /// h16⊕h4, h15⊕h20)`. Unshuffle:
    /// `i4 = a4⊕h9⊕h14⊕h15⊕h16⊕z6` (slot bit restored),
    /// `i3 = a3⊕a4⊕a11⊕a14⊕a6⊕h4⊕h6⊕a10⊕a13⊕h5⊕h11⊕h13⊕h18⊕h19⊕h20⊕z5`
    /// (the 11-plus-bit XOR tree the paper highlights),
    /// `i2 = a2⊕a5⊕a9⊕h4⊕h8⊕h7⊕h10⊕h12⊕h13⊕h14⊕h17`.
    pub fn g1(&self) -> usize {
        const OFFSET: Unshuffle = [
            Terms::new(&[4], &[9, 14, 15, 16], &[6]),
            Terms::new(
                &[3, 4, 11, 14, 6, 10, 13],
                &[4, 6, 5, 11, 13, 18, 19, 20],
                &[5],
            ),
            Terms::new(&[2, 5, 9], &[4, 8, 7, 10, 12, 13, 14, 17], &[]),
        ];
        let column = ((self.h(19) ^ self.h(12)) << 4)
            | ((self.h(18) ^ self.h(11)) << 3)
            | ((self.h(17) ^ self.h(10)) << 2)
            | ((self.h(16) ^ self.h(4)) << 1)
            | (self.h(15) ^ self.h(20));
        self.assemble(column, self.offset(&OFFSET), 5)
    }

    /// Meta index (16 bits).
    ///
    /// §7.5 (verbatim): column `(i15..i11) = (h7⊕h11, h8⊕h12, h5⊕h13,
    /// h4⊕h9, a9⊕h6)`. Unshuffle:
    /// `i4 = a4⊕a10⊕a5⊕h7⊕h10⊕h14⊕h13⊕z5`,
    /// `i3 = a3⊕a12⊕a14⊕a6⊕h4⊕h6⊕h8⊕h14`,
    /// `i2 = a2⊕a9⊕a11⊕a13⊕h5⊕h9⊕h11⊕h12⊕z6`.
    pub fn meta(&self) -> usize {
        const OFFSET: Unshuffle = [
            Terms::new(&[4, 10, 5], &[7, 10, 14, 13], &[5]),
            Terms::new(&[3, 12, 14, 6], &[4, 6, 8, 14], &[]),
            Terms::new(&[2, 9, 11, 13], &[5, 9, 11, 12], &[6]),
        ];
        let column = ((self.h(7) ^ self.h(11)) << 4)
            | ((self.h(8) ^ self.h(12)) << 3)
            | ((self.h(5) ^ self.h(13)) << 2)
            | ((self.h(4) ^ self.h(9)) << 1)
            | (self.a(9) ^ self.h(6));
        self.assemble(column, self.offset(&OFFSET), 5)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inputs(pc: u64, history: u64, z: u64, bank: BankId) -> IndexInputs {
        IndexInputs {
            pc: Pc::new(pc),
            history,
            z: Pc::new(z),
            bank,
            wordline: WordlineMode::HistoryAndAddress,
        }
    }

    #[test]
    fn indices_fit_table_sizes() {
        for seed in 0..200u64 {
            let pc = seed.wrapping_mul(0x9E37_79B9) & 0xF_FFFF;
            let h = seed.wrapping_mul(0x85EB_CA6B);
            let z = seed.wrapping_mul(0xC2B2_AE35) & 0xF_FFFF;
            let iv = inputs(pc, h, z, (seed % 4) as BankId);
            assert!(iv.bim() < 1 << 14);
            assert!(iv.g0() < 1 << 16);
            assert!(iv.g1() < 1 << 16);
            assert!(iv.meta() < 1 << 16);
        }
    }

    #[test]
    fn bank_bits_are_the_low_two() {
        for bank in 0..4u8 {
            let iv = inputs(0x1234_5678, 0xABCDEF, 0x8765_4320, bank);
            assert_eq!((iv.bim() & 0b11) as u8, bank);
            assert_eq!((iv.g0() & 0b11) as u8, bank);
            assert_eq!((iv.g1() & 0b11) as u8, bank);
            assert_eq!((iv.meta() & 0b11) as u8, bank);
        }
    }

    #[test]
    fn wordline_is_shared_across_tables() {
        let iv = inputs(0xDEAD_BEE0, 0x13579B, 0x2468_ACE0, 2);
        let wl = iv.wordline_bits();
        for idx in [iv.bim(), iv.g0(), iv.g1(), iv.meta()] {
            assert_eq!(((idx >> 5) & 0x3F) as u64, wl);
        }
    }

    #[test]
    fn wordline_equation_matches_paper() {
        // (i10..i5) = (h3,h2,h1,h0,a8,a7)
        let iv = inputs(0b1_1000_0000, 0b1010, 0, 0);
        // h3=1,h2=0,h1=1,h0=0, a8=1, a7=1
        assert_eq!(iv.wordline_bits(), 0b10_1011);
    }

    #[test]
    fn address_only_wordline_uses_high_pc_bits() {
        let mut iv = inputs(0b1_1111_1000_0000, u64::MAX, 0, 0);
        iv.wordline = WordlineMode::AddressOnly;
        // a12..a7 = 0b111111
        assert_eq!(iv.wordline_bits(), 0b11_1111);
        // History must not affect the address-only wordline.
        let mut iv2 = iv;
        iv2.history = 0;
        assert_eq!(iv.wordline_bits(), iv2.wordline_bits());
    }

    #[test]
    fn slots_within_a_block_map_to_distinct_offsets() {
        // The 8 instructions of a fetch block share everything except
        // pc bits 4..2; the unshuffle must keep their 8 predictions
        // distinct within the 8-bit word (a bijection on slots).
        let base = 0x4_0120u64 & !0b11111;
        for (h, z) in [(0u64, 0u64), (0x155555, 0x3220), (0xFFFFF, 0x1040)] {
            for table in 0..4 {
                let mut seen = [false; 8];
                for slot in 0..8u64 {
                    let iv = inputs(base + 4 * slot, h, z, 1);
                    let idx = match table {
                        0 => iv.bim(),
                        1 => iv.g0(),
                        2 => iv.g1(),
                        _ => iv.meta(),
                    };
                    let offset = (idx >> 2) & 0b111;
                    assert!(!seen[offset], "slot collision in table {table}");
                    seen[offset] = true;
                }
            }
        }
    }

    #[test]
    fn eight_predictions_lie_in_one_word() {
        // All slots of a block share bank, wordline and column — i.e. the
        // index differs only in bits 4..2 (§6.1: "eight predictions lie in
        // a single 8-bit word").
        let base = 0x7_8900u64 & !0b11111;
        let word_of = |idx: usize| idx & !0b11100;
        let r0 = inputs(base, 0x3_1415, 0x9260, 3);
        for table in 0..4 {
            let f = |iv: &IndexInputs| match table {
                0 => iv.bim(),
                1 => iv.g0(),
                2 => iv.g1(),
                _ => iv.meta(),
            };
            let w = word_of(f(&r0));
            for slot in 1..8u64 {
                let iv = inputs(base + 4 * slot, 0x3_1415, 0x9260, 3);
                assert_eq!(word_of(f(&iv)), w, "table {table} slot {slot}");
            }
        }
    }

    #[test]
    fn g0_and_meta_share_top_column_bits() {
        for seed in 0..100u64 {
            let iv = inputs(
                seed.wrapping_mul(0x9E37_79B9) & 0xFFFFF,
                seed.wrapping_mul(0x85EB_CA6B),
                seed.wrapping_mul(0xC2B2_AE35) & 0xFFFFF,
                0,
            );
            assert_eq!(iv.g0() >> 14, iv.meta() >> 14, "i15/i14 must be shared");
        }
    }

    #[test]
    fn history_length_budgets_respected() {
        // G0 may only see h0..h12 (13 bits), Meta h0..h14, G1 h0..h20,
        // BIM h0..h3: flipping history bits beyond each budget must not
        // change that table's index.
        let base_h = 0x0u64;
        let probe = |table: usize, h: u64| {
            let iv = inputs(0x5_4321 & !0b11, h, 0x1_0000, 2);
            match table {
                0 => iv.bim(),
                1 => iv.g0(),
                2 => iv.g1(),
                _ => iv.meta(),
            }
        };
        for (table, budget) in [(0usize, 4u32), (1, 13), (2, 21), (3, 15)] {
            let base_idx = probe(table, base_h);
            for bit in budget..40 {
                assert_eq!(
                    probe(table, base_h | (1 << bit)),
                    base_idx,
                    "table {table} leaked history bit {bit}"
                );
            }
            // And at least one in-budget bit does matter.
            let mut influenced = false;
            for bit in 0..budget {
                if probe(table, base_h | (1 << bit)) != base_idx {
                    influenced = true;
                    break;
                }
            }
            assert!(influenced, "table {table} ignores its history entirely");
        }
    }

    #[test]
    fn z_path_bits_influence_bim_and_unshuffles() {
        let a = inputs(0x5_4320, 0x12345, 0b00_00000, 1);
        let b = inputs(0x5_4320, 0x12345, 0b11_00000, 1); // z6,z5 flipped
        assert_ne!(a.bim(), b.bim(), "BIM must use Z path bits");
        assert_ne!(a.g0(), b.g0(), "G0 unshuffle must use Z path bits");
        assert_ne!(a.g1(), b.g1(), "G1 unshuffle must use Z path bits");
        assert_ne!(a.meta(), b.meta(), "Meta unshuffle must use Z path bits");
    }

    #[test]
    fn tables_decorrelate_on_history() {
        // Two histories that collide in one table's column should rarely
        // collide in the others (§7.5 principle 3). Spot-check: find a G0
        // column collision and verify G1/Meta disperse.
        let mk = |h: u64| inputs(0x9_8760, h, 0x4_0000, 0);
        let base = mk(0x00155);
        let mut dispersed = 0;
        let mut collisions = 0;
        for h in 0..4096u64 {
            let other = mk(h);
            if h != 0x00155 && other.g0() == base.g0() {
                collisions += 1;
                if other.g1() != base.g1() || other.meta() != base.meta() {
                    dispersed += 1;
                }
            }
        }
        if collisions > 0 {
            assert!(
                dispersed * 10 >= collisions * 9,
                "G0 collisions should disperse elsewhere: {dispersed}/{collisions}"
            );
        }
    }

    /// Exact indices at fixed inputs, recorded from the term-by-term
    /// equations: a dropped, added or moved term flips some bit in about
    /// half of these rows, which the structural tests above cannot see.
    #[test]
    fn indices_match_recorded_values() {
        #[rustfmt::skip]
        const ROWS: [(u64, u64, u64, BankId, [usize; 4]); 16] = [
            (0x00000000, 0x000000, 0x00000000, 0, [0x0000, 0x0000, 0x0000, 0x0000]),
            (0xfffffffc, 0x1fffff, 0xffffffe0, 3, [0x27f3, 0x07ef, 0x07e7, 0x07e7]),
            (0x024d40c4, 0x1c38a0, 0xf4ffab80, 0, [0x0024, 0x7028, 0x0820, 0x4020]),
            (0xdf156004, 0x104858, 0x280d4000, 1, [0x0405, 0x9c11, 0x5c15, 0x9c15]),
            (0xe5f2fa24, 0x0b6bec, 0xe94fbb60, 2, [0x360a, 0x7e12, 0xf60a, 0x561a]),
            (0x246bd64c, 0x0a4932, 0xd88f4980, 3, [0x190f, 0xe90f, 0xf113, 0xf90b]),
            (0xab1801d8, 0x166dac, 0xe46dcbe0, 0, [0x1e74, 0x5678, 0x0e78, 0x4664]),
            (0xd813cc84, 0x027f1d, 0xc58b3f20, 1, [0x26ad, 0xaeb1, 0xd6a9, 0xa6b5]),
            (0xff557a74, 0x00a128, 0xed1a7520, 2, [0x3c1e, 0x7416, 0x0c06, 0x4c06]),
            (0xa59fc1f0, 0x19869e, 0x43bffc60, 3, [0x1f7f, 0xb763, 0xa77b, 0x877b]),
            (0x084c2e00, 0x1f7bb4, 0x49ff1da0, 0, [0x2a08, 0x3a0c, 0x2a18, 0x0a1c]),
            (0xff34b9bc, 0x01bf26, 0x415bbe40, 1, [0x2b79, 0x937d, 0xfb79, 0x9369]),
            (0xb80887c0, 0x0c23e7, 0x5880aae0, 2, [0x03ee, 0xe3f2, 0xc3e2, 0xd3ea]),
            (0x2826f774, 0x0ca73c, 0x66ec7c20, 3, [0x0e5f, 0x5e5f, 0xfe5f, 0x4e4f]),
            (0x1ce4b510, 0x14244e, 0x82869700, 0, [0x1750, 0x3748, 0x6f58, 0x2f44]),
            (0xa87bd4a0, 0x143356, 0x5d2586e0, 1, [0x0b2d, 0x1331, 0xdb25, 0x2b2d]),
        ];
        for (pc, h, z, bank, expected) in ROWS {
            let iv = inputs(pc, h, z, bank);
            assert_eq!(
                [iv.bim(), iv.g0(), iv.g1(), iv.meta()],
                expected,
                "pc={pc:#x} h={h:#x} z={z:#x} bank={bank}"
            );
        }
    }
}
