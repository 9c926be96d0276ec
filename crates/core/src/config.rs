//! Configuration of the EV8 predictor and its experimental variants.

use ev8_predictors::twobcgskew::TableConfig;

/// How the global history register is built and delivered — the
//  information-vector axis of Fig 7.
/// See §5 of the paper.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HistoryMode {
    /// Conventional branch history: one bit per conditional branch,
    /// available immediately ("ghist" in Fig 7).
    Ghist,
    /// Block-compressed history: one bit per fetch block.
    Lghist {
        /// XOR the outcome with PC bit 4 of the block's last conditional
        /// branch ("lghist+path" vs "lghist,no path" in Fig 7).
        path_bit: bool,
        /// Deliver the history three fetch blocks late, as the real EV8
        /// pipeline forces ("3-old lghist" in Fig 7).
        three_blocks_old: bool,
        /// Patch the index with path information (addresses) from the
        /// three most recent fetch blocks — recovering most of the loss
        /// from the delayed history ("EV8 info vector" in Fig 7).
        path_patch: bool,
    },
}

impl HistoryMode {
    /// The full EV8 information vector: three-blocks-old lghist with path
    /// bits, patched with the last three block addresses.
    pub const fn ev8() -> Self {
        HistoryMode::Lghist {
            path_bit: true,
            three_blocks_old: true,
            path_patch: true,
        }
    }

    /// Immediate lghist including path information.
    pub const fn lghist_path() -> Self {
        HistoryMode::Lghist {
            path_bit: true,
            three_blocks_old: false,
            path_patch: false,
        }
    }

    /// Immediate lghist without path information.
    pub const fn lghist_no_path() -> Self {
        HistoryMode::Lghist {
            path_bit: false,
            three_blocks_old: false,
            path_patch: false,
        }
    }

    /// Three-blocks-old lghist (with path bit) but without the address
    /// patch.
    pub const fn lghist_3old() -> Self {
        HistoryMode::Lghist {
            path_bit: true,
            three_blocks_old: true,
            path_patch: false,
        }
    }
}

/// How the shared 6-bit wordline index is chosen — the Fig 9 axis.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WordlineMode {
    /// Only PC address bits (the natural choice, but "the distribution of
    /// the accesses over the BIM table entries were unbalanced").
    AddressOnly,
    /// The EV8 choice: 4 history bits + 2 address bits,
    /// `(i10..i5) = (h3,h2,h1,h0,a8,a7)`.
    HistoryAndAddress,
}

/// How table indices are computed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IndexScheme {
    /// Unconstrained hashing over all information bits (the academic
    /// baseline — "complete hash" in Fig 9), using the skewing family of
    /// `ev8_predictors::skew`.
    CompleteHash,
    /// The hardware-constrained EV8 functions of §7: shared unhashed bank
    /// + wordline bits, single-XOR column bits, wide-XOR unshuffle.
    Ev8 {
        /// Wordline selection variant.
        wordline: WordlineMode,
    },
}

/// Full configuration of an [`crate::Ev8Predictor`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Ev8Config {
    /// The bimodal table geometry (entries, history length, hysteresis).
    pub bim: TableConfig,
    /// Skewed bank G0.
    pub g0: TableConfig,
    /// Skewed bank G1.
    pub g1: TableConfig,
    /// The meta-predictor bank.
    pub meta: TableConfig,
    /// Information-vector mode.
    pub history: HistoryMode,
    /// Index-function scheme.
    pub index: IndexScheme,
}

impl Ev8Config {
    /// The shipping EV8 configuration (Table 1 + §5 + §7): 352 Kbits,
    /// history lengths 4/13/21/15, half-size hysteresis on G0 and Meta,
    /// three-blocks-old path-compressed history, engineered index
    /// functions.
    pub const fn ev8() -> Self {
        Ev8Config {
            bim: TableConfig::new(14, 4),
            g0: TableConfig::with_half_hysteresis(16, 13),
            g1: TableConfig::new(16, 21),
            meta: TableConfig::with_half_hysteresis(16, 15),
            history: HistoryMode::ev8(),
            index: IndexScheme::Ev8 {
                wordline: WordlineMode::HistoryAndAddress,
            },
        }
    }

    /// A 4×64K-entry (512 Kbit) unconstrained predictor with conventional
    /// history — the Fig 7/9 "no constraints" baseline. History lengths
    /// 0/17/27/20 as in §8.2.
    pub const fn unconstrained_512k() -> Self {
        Ev8Config {
            bim: TableConfig::new(16, 0),
            g0: TableConfig::new(16, 17),
            g1: TableConfig::new(16, 27),
            meta: TableConfig::new(16, 20),
            history: HistoryMode::Ghist,
            index: IndexScheme::CompleteHash,
        }
    }

    /// A 4×64K-entry predictor with the best *lghist* history lengths the
    /// paper reports (15/23/17 for G0/G1/Meta — "the optimal lghist
    /// history length is shorter than the optimal real branch history").
    pub const fn lghist_512k(history: HistoryMode) -> Self {
        Ev8Config {
            bim: TableConfig::new(16, 0),
            g0: TableConfig::new(16, 15),
            g1: TableConfig::new(16, 23),
            meta: TableConfig::new(16, 17),
            history,
            index: IndexScheme::CompleteHash,
        }
    }

    /// Returns a copy with a different history mode.
    pub const fn with_history(mut self, history: HistoryMode) -> Self {
        self.history = history;
        self
    }

    /// Returns a copy with a different index scheme.
    pub const fn with_index(mut self, index: IndexScheme) -> Self {
        self.index = index;
        self
    }

    /// The four table geometries in BIM/G0/G1/Meta order.
    pub const fn tables(&self) -> [TableConfig; 4] {
        [self.bim, self.g0, self.g1, self.meta]
    }

    /// Longest history length any table uses.
    pub fn max_history(&self) -> u32 {
        self.bim
            .history_length
            .max(self.g0.history_length)
            .max(self.g1.history_length)
            .max(self.meta.history_length)
    }

    /// Total storage in bits over the eight physical arrays.
    pub fn storage_bits(&self) -> u64 {
        self.tables()
            .iter()
            .map(|t| (1u64 << t.index_bits) + (1u64 << t.hysteresis_index_bits))
            .sum()
    }
}

impl Default for Ev8Config {
    fn default() -> Self {
        Self::ev8()
    }
}

/// Number of predictor banks (4-way interleaving, §6).
pub const NUM_BANKS: u64 = 4;

/// Instructions per fetch block (§2).
pub const FETCH_BLOCK_INSTRUCTIONS: u64 = 8;

/// The pipeline delay, in fetch blocks, of the history available to the
/// predictor (§5.1: blocks A, B, C are in flight when D is predicted).
pub const HISTORY_DELAY_BLOCKS: usize = 3;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ev8_budget_matches_table1() {
        let c = Ev8Config::ev8();
        assert_eq!(c.storage_bits(), 352 * 1024);
        assert_eq!(c.bim.index_bits, 14);
        assert_eq!(c.g0.index_bits, 16);
        assert_eq!(c.g0.hysteresis_index_bits, 15);
        assert_eq!(c.g1.hysteresis_index_bits, 16);
        assert_eq!(c.meta.hysteresis_index_bits, 15);
        assert_eq!(c.max_history(), 21);
    }

    #[test]
    fn unconstrained_is_512k() {
        let c = Ev8Config::unconstrained_512k();
        assert_eq!(c.storage_bits(), 512 * 1024);
        assert_eq!(c.index, IndexScheme::CompleteHash);
        assert_eq!(c.history, HistoryMode::Ghist);
    }

    #[test]
    fn history_mode_constructors() {
        assert_eq!(
            HistoryMode::ev8(),
            HistoryMode::Lghist {
                path_bit: true,
                three_blocks_old: true,
                path_patch: true
            }
        );
        assert_eq!(
            HistoryMode::lghist_no_path(),
            HistoryMode::Lghist {
                path_bit: false,
                three_blocks_old: false,
                path_patch: false
            }
        );
        assert_eq!(
            HistoryMode::lghist_3old(),
            HistoryMode::Lghist {
                path_bit: true,
                three_blocks_old: true,
                path_patch: false
            }
        );
    }

    #[test]
    fn with_modifiers() {
        let c = Ev8Config::ev8()
            .with_history(HistoryMode::Ghist)
            .with_index(IndexScheme::CompleteHash);
        assert_eq!(c.history, HistoryMode::Ghist);
        assert_eq!(c.index, IndexScheme::CompleteHash);
        // Geometry unchanged.
        assert_eq!(c.storage_bits(), 352 * 1024);
    }

    #[test]
    fn default_is_ev8() {
        assert_eq!(Ev8Config::default(), Ev8Config::ev8());
    }
}
