//! Per-prediction attribution and event tracing — the observability layer.
//!
//! Aggregate misp/KI hides everything the paper actually argues about:
//! which of BIM/G0/G1 provided a prediction, whether Meta chose the right
//! side, what the §4.2 partial update did, and whether the §6 bank
//! interleave really is conflict-free. [`simulate_observed`] runs the
//! simulation kernel with its `Observe` hook, which consumes the
//! per-branch [`Provenance`] the predictor emits through
//! [`ObservedPredictor`] and hands it to an [`Observer`].
//!
//! Like `simulate_with_faults`, the observed run is its own
//! monomorphization of the kernel: [`crate::simulate`] runs the `()`
//! hook and carries no observer check at all (the `observe_hook` group in
//! `BENCH_sim.json` records what an armed no-op observer costs).
//!
//! Four observers are provided:
//!
//! * [`NullObserver`] — the no-op, for measuring hook overhead;
//! * [`ProvenanceSummary`] — the bounded O(1) counters the prediction
//!   service reports per session (provider, wrong-by, Meta, §4.2
//!   actions, §6 bank collisions);
//! * [`Attribution`] — the full counting observer: the summary's
//!   counters plus totals, Meta writes, vote patterns and a
//!   per-static-branch histogram, which [`Attribution::reconcile`]
//!   cross-checks *exactly* against the run's [`SimResult`] together
//!   with the §6 bank-collision invariant;
//! * [`JsonlObserver`] — a structured JSONL event stream (one object per
//!   prediction, via `ev8_util::json`) for offline analysis.

use std::collections::HashMap;
use std::io::Write;

use ev8_predictors::observe::ObservedPredictor;
use ev8_predictors::provenance::Provenance;
use ev8_predictors::twobcgskew::ChosenComponent;
use ev8_trace::Trace;
use ev8_util::json::JsonObject;

use crate::kernel::{run, Observe};
use crate::metrics::SimResult;
use crate::session::ProvenanceSummary;

/// A sink for per-branch prediction provenance.
///
/// Observers are deliberately dumb sinks: all invariants live in the
/// concrete implementations, so composing observers (see the tuple impl)
/// never changes what any one of them records.
pub trait Observer {
    /// Called once per dynamic conditional branch, after the predictor
    /// updated.
    fn on_prediction(&mut self, p: &Provenance);

    /// Called once at the end of the run with the predictor's §6
    /// bank-collision counter (`None` for unbanked predictors).
    fn on_finish(&mut self, bank_collisions: Option<u64>) {
        let _ = bank_collisions;
    }
}

/// The no-op observer: every hook is an empty inlinable body. Used by the
/// `observe_hook` bench to measure the armed-but-idle cost of the
/// observed loop.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullObserver;

impl Observer for NullObserver {
    #[inline(always)]
    fn on_prediction(&mut self, _p: &Provenance) {}

    #[inline(always)]
    fn on_finish(&mut self, _bank_collisions: Option<u64>) {}
}

impl<O: Observer + ?Sized> Observer for &mut O {
    fn on_prediction(&mut self, p: &Provenance) {
        (**self).on_prediction(p);
    }

    fn on_finish(&mut self, bank_collisions: Option<u64>) {
        (**self).on_finish(bank_collisions);
    }
}

/// Fan-out: both observers see every event (e.g. attribution counters
/// plus a JSONL stream in one run).
impl<A: Observer, B: Observer> Observer for (A, B) {
    fn on_prediction(&mut self, p: &Provenance) {
        self.0.on_prediction(p);
        self.1.on_prediction(p);
    }

    fn on_finish(&mut self, bank_collisions: Option<u64>) {
        self.0.on_finish(bank_collisions);
        self.1.on_finish(bank_collisions);
    }
}

/// Per-static-branch counts collected by [`Attribution`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PcStats {
    /// Dynamic predictions of this static branch.
    pub predictions: u64,
    /// Mispredictions of this static branch.
    pub mispredictions: u64,
}

/// The counting observer: full per-table attribution of a run.
///
/// Every counter is defined so the totals reconcile *exactly*:
/// `provider_bimodal + provider_majority == predictions`,
/// `wrong_by_bimodal + wrong_by_majority == mispredictions`, the action
/// and vote-pattern arrays each sum to `predictions`, and the per-PC map
/// sums to both totals. [`Attribution::reconcile`] checks all of it
/// against the run's own [`SimResult`] — any divergence means the
/// attribution channel and the scoreboard disagree about the same run.
#[derive(Clone, Debug, Default)]
pub struct Attribution {
    /// Dynamic conditional branches observed.
    pub predictions: u64,
    /// Observed mispredictions.
    pub mispredictions: u64,
    /// The counters shared with the prediction service's bounded
    /// per-session summary: provider and wrong-by per side, Meta
    /// decisive/correct, the §4.2 action histogram and the §6
    /// bank-collision counter (`None` for unbanked predictors, `Some(0)`
    /// for a healthy EV8 run).
    pub summary: ProvenanceSummary,
    /// Branches whose update wrote the Meta table (train or strengthen).
    pub meta_writes: u64,
    /// Histogram over the 3-bit (BIM, G0, G1)-correct vote pattern;
    /// index 7 is unanimous-right, 0 unanimous-wrong (see
    /// [`Provenance::vote_pattern`]).
    pub vote_patterns: [u64; 8],
    per_pc: HashMap<u64, PcStats>,
}

impl Attribution {
    /// An empty attribution (all counters zero).
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct static conditional branches seen.
    pub fn static_branches(&self) -> usize {
        self.per_pc.len()
    }

    /// Per-static-branch counts for one PC, if it was seen.
    pub fn pc_stats(&self, pc: u64) -> Option<PcStats> {
        self.per_pc.get(&pc).copied()
    }

    /// The `n` static branches with the most mispredictions, descending
    /// (ties broken by ascending PC for determinism).
    pub fn top_mispredicting(&self, n: usize) -> Vec<(u64, PcStats)> {
        let mut all: Vec<(u64, PcStats)> = self.per_pc.iter().map(|(&pc, &s)| (pc, s)).collect();
        all.sort_by(|a, b| {
            b.1.mispredictions
                .cmp(&a.1.mispredictions)
                .then(a.0.cmp(&b.0))
        });
        all.truncate(n);
        all
    }

    /// Distribution of per-static-branch misprediction counts in log2
    /// buckets: `("0", …)`, `("1", …)`, `("2-3", …)`, `("4-7", …)` and so
    /// on. Bucket values count *static branches*.
    pub fn misp_histogram(&self) -> Vec<(String, u64)> {
        let mut buckets: Vec<u64> = Vec::new();
        let mut zero = 0u64;
        for s in self.per_pc.values() {
            if s.mispredictions == 0 {
                zero += 1;
                continue;
            }
            let b = 63 - s.mispredictions.leading_zeros() as usize; // floor(log2)
            if buckets.len() <= b {
                buckets.resize(b + 1, 0);
            }
            buckets[b] += 1;
        }
        let mut out = vec![("0".to_owned(), zero)];
        for (b, &count) in buckets.iter().enumerate() {
            let lo = 1u64 << b;
            let hi = (1u64 << (b + 1)) - 1;
            let label = if lo == hi {
                lo.to_string()
            } else {
                format!("{lo}-{hi}")
            };
            out.push((label, count));
        }
        out
    }

    /// Cross-checks every attribution total against the loop's own
    /// [`SimResult`] and the §6 invariant. Returns the first discrepancy
    /// as an error string.
    pub fn reconcile(&self, result: &SimResult) -> Result<(), String> {
        let check = |name: &str, got: u64, want: u64| -> Result<(), String> {
            if got == want {
                Ok(())
            } else {
                Err(format!(
                    "{name}: attribution says {got}, result says {want}"
                ))
            }
        };
        let summary = &self.summary;
        check("predictions", self.predictions, result.conditional_branches)?;
        check("mispredictions", self.mispredictions, result.mispredictions)?;
        check(
            "provider sum",
            summary.provider_bimodal + summary.provider_majority,
            self.predictions,
        )?;
        check(
            "wrong-provider sum",
            summary.wrong_by_bimodal + summary.wrong_by_majority,
            self.mispredictions,
        )?;
        check(
            "action histogram sum",
            summary.actions.iter().sum(),
            self.predictions,
        )?;
        check(
            "vote-pattern histogram sum",
            self.vote_patterns.iter().sum(),
            self.predictions,
        )?;
        check(
            "meta-correct within decisive",
            summary.meta_correct.min(summary.meta_decisive),
            summary.meta_correct,
        )?;
        let pc_pred: u64 = self.per_pc.values().map(|s| s.predictions).sum();
        let pc_misp: u64 = self.per_pc.values().map(|s| s.mispredictions).sum();
        check("per-PC prediction sum", pc_pred, self.predictions)?;
        check("per-PC misprediction sum", pc_misp, self.mispredictions)?;
        if let Some(n) = summary.bank_collisions {
            if n != 0 {
                return Err(format!(
                    "§6 violated: {n} successive-fetch-block bank collisions (must be 0)"
                ));
            }
        }
        Ok(())
    }
}

impl Observer for Attribution {
    fn on_prediction(&mut self, p: &Provenance) {
        self.summary.on_prediction(p);
        self.predictions += 1;
        let correct = p.correct();
        if !correct {
            self.mispredictions += 1;
        }
        if p.meta_trained {
            self.meta_writes += 1;
        }
        self.vote_patterns[p.vote_pattern()] += 1;
        let e = self.per_pc.entry(p.pc.as_u64()).or_default();
        e.predictions += 1;
        if !correct {
            e.mispredictions += 1;
        }
    }

    fn on_finish(&mut self, bank_collisions: Option<u64>) {
        self.summary.on_finish(bank_collisions);
    }
}

/// Streams one JSON object per prediction (plus a final summary object)
/// to any [`Write`] sink — the offline-analysis event stream.
///
/// Schema per prediction event (all outcomes as 0/1 bits):
///
/// ```json
/// {"event":"prediction","trace":"gcc","pc":4096,"outcome":1,
///  "bim":1,"g0":0,"g1":1,"majority":1,"chosen":"majority","overall":1,
///  "action":"strengthened","meta_trained":false,"bank":2}
/// ```
///
/// and the final event:
///
/// ```json
/// {"event":"finish","trace":"gcc","predictions":..,"bank_collisions":0}
/// ```
pub struct JsonlObserver<W: Write> {
    out: W,
    trace: String,
    events: u64,
    buf: String,
}

impl<W: Write> JsonlObserver<W> {
    /// Creates a stream writing to `out`, labeling every event with
    /// `trace`.
    pub fn new(out: W, trace: impl Into<String>) -> Self {
        JsonlObserver {
            out,
            trace: trace.into(),
            events: 0,
            buf: String::with_capacity(256),
        }
    }

    /// Consumes the observer and returns the sink (e.g. to recover a
    /// `Vec<u8>` buffer after the run).
    pub fn into_inner(self) -> W {
        self.out
    }

    fn emit(&mut self) {
        self.buf.push('\n');
        self.out
            .write_all(self.buf.as_bytes())
            .expect("JSONL event stream write failed");
    }
}

impl<W: Write> Observer for JsonlObserver<W> {
    fn on_prediction(&mut self, p: &Provenance) {
        self.events += 1;
        self.buf.clear();
        let mut o = JsonObject::new();
        o.field("event", &"prediction")
            .field("trace", &self.trace)
            .field("pc", &p.pc.as_u64())
            .field("outcome", &p.outcome.as_bit())
            .field("bim", &p.bim.as_bit())
            .field("g0", &p.g0.as_bit())
            .field("g1", &p.g1.as_bit())
            .field("majority", &p.majority.as_bit())
            .field(
                "chosen",
                &match p.chosen {
                    ChosenComponent::Bimodal => "bimodal",
                    ChosenComponent::Majority => "majority",
                },
            )
            .field("overall", &p.overall.as_bit())
            .field("action", &p.action.label())
            .field("meta_trained", &p.meta_trained)
            .field("bank", &p.bank);
        o.finish_into(&mut self.buf);
        self.emit();
    }

    fn on_finish(&mut self, bank_collisions: Option<u64>) {
        self.buf.clear();
        let mut o = JsonObject::new();
        o.field("event", &"finish")
            .field("trace", &self.trace)
            .field("predictions", &self.events)
            .field("bank_collisions", &bank_collisions);
        o.finish_into(&mut self.buf);
        self.emit();
        self.out.flush().expect("JSONL event stream flush failed");
    }
}

/// Runs an [`ObservedPredictor`] over a trace with immediate update,
/// delivering every conditional branch's [`Provenance`] to `observer`
/// and, at the end, the predictor's §6 bank-collision counter.
///
/// This is the simulation kernel with the `Observe` hook: the same
/// record routing and scoring as [`crate::simulate`], and the observed
/// predictor step is state-identical to the plain one, so for any
/// predictor implementing both entry points the returned [`SimResult`]
/// matches `simulate`'s exactly (pinned by `tests/differential.rs`).
pub fn simulate_observed<P: ObservedPredictor, O: Observer>(
    mut predictor: P,
    trace: &Trace,
    observer: &mut O,
) -> SimResult {
    let Ok(result) = run(trace, &mut predictor, &mut Observe(observer));
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use ev8_core::Ev8Predictor;
    use ev8_trace::{BranchKind, BranchRecord, Pc, TraceBuilder};

    fn mixed_trace(n: u64) -> Trace {
        let mut b = TraceBuilder::new("mixed");
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        for i in 0..n {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            b.run(x >> 58);
            let pc = Pc::new(0x1000 + (i % 23) * 0x10);
            if i % 7 == 3 {
                b.branch(BranchRecord::always_taken(
                    pc,
                    Pc::new(pc.as_u64() + 0x100),
                    BranchKind::Call,
                ));
            } else {
                b.branch(BranchRecord::conditional(
                    pc,
                    Pc::new(pc.as_u64() + 0x40),
                    (x >> 33) & 0b11 != 0,
                ));
            }
        }
        b.finish()
    }

    #[test]
    fn attribution_reconciles_exactly() {
        let t = mixed_trace(5000);
        let mut attr = Attribution::new();
        let r = simulate_observed(Ev8Predictor::ev8(), &t, &mut attr);
        attr.reconcile(&r).expect("attribution must reconcile");
        assert_eq!(attr.summary.bank_collisions, Some(0));
        assert!(attr.static_branches() > 0);
        assert!(attr.summary.meta_correct <= attr.summary.meta_decisive);
        assert!(attr.summary.meta_decisive <= attr.predictions);
    }

    #[test]
    fn reconcile_detects_tampering() {
        let t = mixed_trace(500);
        let mut attr = Attribution::new();
        let r = simulate_observed(Ev8Predictor::ev8(), &t, &mut attr);
        let mut broken = attr.clone();
        broken.predictions += 1;
        assert!(broken.reconcile(&r).is_err());
        let mut broken = attr.clone();
        broken.summary.wrong_by_majority += 1;
        assert!(broken.reconcile(&r).is_err());
        let mut broken = attr;
        broken.summary.bank_collisions = Some(3);
        let err = broken.reconcile(&r).unwrap_err();
        assert!(err.contains("§6"), "unexpected error: {err}");
    }

    #[test]
    fn top_mispredicting_is_sorted_and_deterministic() {
        let t = mixed_trace(4000);
        let mut attr = Attribution::new();
        let r = simulate_observed(Ev8Predictor::ev8(), &t, &mut attr);
        let top = attr.top_mispredicting(5);
        assert!(top.len() <= 5);
        for w in top.windows(2) {
            assert!(
                w[0].1.mispredictions > w[1].1.mispredictions
                    || (w[0].1.mispredictions == w[1].1.mispredictions && w[0].0 < w[1].0)
            );
        }
        let total_top: u64 = top.iter().map(|(_, s)| s.mispredictions).sum();
        assert!(total_top <= r.mispredictions);
        // Histogram covers every static branch once.
        let hist_total: u64 = attr.misp_histogram().iter().map(|(_, c)| c).sum();
        assert_eq!(hist_total, attr.static_branches() as u64);
    }

    #[test]
    fn tuple_observer_feeds_both_sinks() {
        let t = mixed_trace(800);
        let mut pair = (Attribution::new(), Attribution::new());
        let r = simulate_observed(Ev8Predictor::ev8(), &t, &mut pair);
        assert_eq!(pair.0.predictions, r.conditional_branches);
        assert_eq!(pair.0.predictions, pair.1.predictions);
        assert_eq!(pair.0.mispredictions, pair.1.mispredictions);
    }

    #[test]
    fn jsonl_stream_emits_one_line_per_prediction_plus_summary() {
        let t = mixed_trace(200);
        let mut obs = JsonlObserver::new(Vec::new(), t.name());
        let r = simulate_observed(Ev8Predictor::ev8(), &t, &mut obs);
        let bytes = obs.into_inner();
        let text = String::from_utf8(bytes).expect("stream is UTF-8");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len() as u64, r.conditional_branches + 1);
        assert!(lines[0].starts_with(r#"{"event":"prediction","trace":"mixed""#));
        assert!(lines[0].contains(r#""action":"#));
        let last = lines.last().unwrap();
        assert!(last.starts_with(r#"{"event":"finish""#));
        assert!(last.contains(r#""bank_collisions":0"#));
    }
}
