//! The predictor-side observability hook ([`ObservedPredictor`]) and the
//! unified [`ConditionalBranchPredictor`] capability trait.
//!
//! The paper's arguments are component-level — which bank served a
//! prediction, what the chooser did, whether the §6 bank sequence really
//! is conflict-free — so the simulator needs a per-branch provenance
//! channel from the predictor. [`ObservedPredictor`] is that channel: an
//! *opt-in* extension of [`BranchPredictor`] whose observed step performs
//! exactly the same state transition as
//! [`BranchPredictor::predict_and_update`] but returns the full
//! [`Provenance`] of each conditional branch.
//!
//! Like the fault injector, the observed step is a compile-time hook of
//! `ev8-sim`'s simulation kernel: `simulate` monomorphizes the plain
//! `predict_and_update` step, and only `simulate_observed` and the
//! attribution-collecting server sessions go through this trait. The
//! plain hot path carries no observer check at all (see the
//! `observe_hook` group in `BENCH_sim.json`).
//!
//! [`ConditionalBranchPredictor`] closes the loop across predictor
//! *generations*: it is the full capability bundle — predict/update
//! (serial and batched stepping both run on [`BranchPredictor`] alone),
//! [`FaultTarget`] array introspection, and [`ObservedPredictor`]
//! provenance — that the cross-generation experiments quantify over. A
//! predictor that implements the two capability traits gets the unified
//! trait for free via the blanket impl, and with it admission to the
//! fault-injection campaigns, the attribution observer and the shootout,
//! with no per-family glue. Bimodal, gshare, 2Bc-gskew and TAGE all
//! qualify here; the EV8 predictor joins in `ev8-core`, where its
//! implementation lives.

use ev8_trace::BranchRecord;

use crate::bimodal::Bimodal;
use crate::gshare::Gshare;
use crate::introspect::FaultTarget;
use crate::predictor::BranchPredictor;
use crate::provenance::Provenance;
use crate::tage::Tage;
use crate::twobcgskew::TwoBcGskew;

/// A branch predictor that can report per-branch provenance.
///
/// Implementations must make the observed step *state-identical* to the
/// plain [`BranchPredictor::predict_and_update`]: running the same trace
/// through either entry point leaves the predictor in the same state and
/// produces the same predictions. The unit and property suites check
/// this for every implementation.
pub trait ObservedPredictor: BranchPredictor {
    /// Processes one trace record exactly like
    /// [`BranchPredictor::predict_and_update`], returning the full
    /// [`Provenance`] for conditional records (`None` otherwise).
    fn predict_and_update_observed(&mut self, record: &BranchRecord) -> Option<Provenance>;

    /// The §6 successive-fetch-block bank-collision count, for predictors
    /// with banked storage (`None` when the predictor has no bank
    /// sequencer). Must be 0 on every EV8 run — the conflict-free
    /// interleave is a construction guarantee, and the observability
    /// layer asserts it.
    fn bank_collisions(&self) -> Option<u64> {
        None
    }
}

/// The full capability bundle the cross-generation experiments quantify
/// over: trace-driven prediction ([`BranchPredictor`], inherited through
/// [`ObservedPredictor`]), per-branch provenance, and fault-array
/// introspection ([`FaultTarget`]).
///
/// Never implemented directly — the blanket impl grants it to every type
/// with both capabilities, so `Box<dyn ConditionalBranchPredictor>` is
/// the one currency the SEU campaign, the attribution observer, the
/// batched sweep engine and the shootout all accept.
pub trait ConditionalBranchPredictor: ObservedPredictor + FaultTarget {}

impl<P: ObservedPredictor + FaultTarget + ?Sized> ConditionalBranchPredictor for P {}

/// Routes a conditional record through an inherent
/// `predict_update_observed(pc, outcome)` method and everything else
/// through [`BranchPredictor::note_noncond`] — the shared shape of every
/// non-fetch-block predictor's observed step.
macro_rules! observed_via_inherent {
    ($ty:ty) => {
        impl ObservedPredictor for $ty {
            /// Mirrors the plain [`BranchPredictor::predict_and_update`]
            /// routing: conditional records go through the
            /// provenance-producing update, everything else through
            /// [`BranchPredictor::note_noncond`].
            #[inline]
            fn predict_and_update_observed(&mut self, record: &BranchRecord) -> Option<Provenance> {
                if record.kind.is_conditional() {
                    Some(self.predict_update_observed(record.pc, record.outcome))
                } else {
                    self.note_noncond(record);
                    None
                }
            }
        }
    };
}

observed_via_inherent!(TwoBcGskew);
observed_via_inherent!(Gshare);
observed_via_inherent!(Bimodal);
observed_via_inherent!(Tage);

impl<P: ObservedPredictor + ?Sized> ObservedPredictor for &mut P {
    #[inline]
    fn predict_and_update_observed(&mut self, record: &BranchRecord) -> Option<Provenance> {
        (**self).predict_and_update_observed(record)
    }

    #[inline]
    fn bank_collisions(&self) -> Option<u64> {
        (**self).bank_collisions()
    }
}

impl<P: ObservedPredictor + ?Sized> ObservedPredictor for Box<P> {
    #[inline]
    fn predict_and_update_observed(&mut self, record: &BranchRecord) -> Option<Provenance> {
        (**self).predict_and_update_observed(record)
    }

    #[inline]
    fn bank_collisions(&self) -> Option<u64> {
        (**self).bank_collisions()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tage::TageConfig;
    use crate::twobcgskew::TwoBcGskewConfig;
    use ev8_trace::{BranchKind, Outcome, Pc};

    fn stream(len: u64) -> Vec<BranchRecord> {
        let mut x = 0xFEED_5EEDu64;
        (0..len)
            .map(|i| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                if i % 11 == 7 {
                    BranchRecord::always_taken(Pc::new(0x9000), Pc::new(0xA000), BranchKind::Call)
                } else {
                    BranchRecord::conditional(
                        Pc::new(0x1000 + (x % 257) * 4),
                        Pc::new(0x2000),
                        (x >> 20) & 0b11 != 0,
                    )
                }
            })
            .collect()
    }

    /// Observed path ≡ plain path, state included, for every family that
    /// derives equality.
    fn assert_state_identity<P: ObservedPredictor + Clone + PartialEq + std::fmt::Debug>(
        plain: &mut P,
    ) {
        let mut observed = plain.clone();
        for (i, rec) in stream(3000).iter().enumerate() {
            let p = plain.predict_and_update(rec);
            let prov = observed.predict_and_update_observed(rec);
            assert_eq!(p, prov.as_ref().map(|v| v.overall), "record {i}");
            assert_eq!(prov.is_some(), rec.kind.is_conditional(), "record {i}");
        }
        assert_eq!(*plain, observed, "observed path diverged from plain path");
    }

    #[test]
    fn observed_is_state_identical_across_the_family() {
        assert_state_identity(&mut Bimodal::new(9));
        assert_state_identity(&mut Gshare::new(10, 13));
        assert_state_identity(&mut TwoBcGskew::new(TwoBcGskewConfig::equal(8, 6)));
        assert_state_identity(&mut Tage::new(TageConfig::geometric(7, 4, 6, 9, 2, 20)));
    }

    #[test]
    fn unbanked_predictors_report_no_collision_counter() {
        assert_eq!(ObservedPredictor::bank_collisions(&Bimodal::new(4)), None);
        assert_eq!(ObservedPredictor::bank_collisions(&Gshare::new(4, 4)), None);
        assert_eq!(
            ObservedPredictor::bank_collisions(&Tage::new(TageConfig::geometric(4, 2, 4, 5, 2, 6))),
            None
        );
    }

    #[test]
    fn boxed_unified_trait_object_dispatches_every_capability() {
        // The whole point of the unified trait: one boxed currency that
        // predicts, observes and exposes fault arrays.
        let roster: Vec<Box<dyn ConditionalBranchPredictor>> = vec![
            Box::new(Bimodal::new(6)),
            Box::new(Gshare::new(6, 6)),
            Box::new(TwoBcGskew::new(TwoBcGskewConfig::equal(6, 4))),
            Box::new(Tage::new(TageConfig::geometric(5, 3, 5, 7, 2, 9))),
        ];
        for mut p in roster {
            let rec = BranchRecord::conditional(Pc::new(0x100), Pc::new(0x200), true);
            let prov = p.predict_and_update_observed(&rec).expect("conditional");
            assert_eq!(prov.outcome, Outcome::Taken);
            let arrays = p.fault_arrays();
            assert!(!arrays.is_empty());
            let total: usize = arrays.iter().map(|a| a.bits).sum();
            assert_eq!(total as u64, p.storage_bits(), "{}", p.name());
            // Capabilities compose: a fault through the box perturbs the
            // same state the observed step just trained.
            p.flip_bit(0, 0);
        }
    }

    #[test]
    fn single_component_provenance_reconciles() {
        // Degenerate provenance still satisfies the attribution
        // arithmetic: one vote everywhere, consistent chosen side.
        let mut g = Gshare::new(8, 8);
        let mut b = Bimodal::new(8);
        for rec in stream(500) {
            if let Some(p) = g.predict_and_update_observed(&rec) {
                assert_eq!(p.bim, p.majority);
                assert_eq!(p.g0, p.g1);
                assert_eq!(p.overall, p.majority);
                assert!(!p.meta_trained);
                assert_eq!(p.bank, None);
            }
            if let Some(p) = b.predict_and_update_observed(&rec) {
                assert_eq!(p.overall, p.bim);
                assert!(!p.meta_trained);
            }
        }
    }
}
