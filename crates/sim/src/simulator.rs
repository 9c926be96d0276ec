//! Trace-driven simulators: immediate update and commit-time (delayed)
//! update.

use std::collections::VecDeque;

use ev8_faults::{FaultInjector, FaultLog, FaultPlan};
use ev8_predictors::introspect::FaultTarget;
use ev8_predictors::BranchPredictor;
use ev8_trace::corpus::CorpusReader;
use ev8_trace::{BranchRecord, Outcome, Trace, TraceError};

use crate::kernel::{run, Tally};
use crate::metrics::SimResult;

/// Runs a predictor over a trace with **immediate update** — the paper's
/// methodology (§8.1.1). Every record is passed to the predictor
/// ([`BranchPredictor::predict_and_update`]), so path-sensitive predictors
/// see the full control flow.
pub fn simulate<P: BranchPredictor>(mut predictor: P, trace: &Trace) -> SimResult {
    let Ok(result) = run(trace, &mut predictor, &mut ());
    result
}

/// Runs a predictor over a streaming corpus decode with immediate
/// update — [`simulate`] fed from disk instead of RAM.
///
/// Chunks decode one at a time into packed [`ev8_trace::FlatTrace`]
/// blocks (see [`CorpusReader::next_block`]), so the 24 B/record AoS
/// [`Trace`] is never materialized: resident memory is one chunk
/// regardless of trace length. The per-record step is the same kernel
/// step as [`simulate`]'s, and the corpus totals are validated during
/// the walk, so for an uncorrupted corpus of the same trace the returned
/// [`SimResult`] is bit-identical to the in-RAM path (pinned over
/// chunk-straddling arbitrary traces by `tests/differential.rs` and for
/// the full Table 2 suite by `tests/corpus_pipeline.rs`).
///
/// # Errors
///
/// Propagates the first decode error ([`ev8_trace::TraceError`]) —
/// checksum mismatch, structural corruption, truncation — without
/// returning any partial result.
pub fn simulate_corpus<P: BranchPredictor, R: std::io::Read>(
    mut predictor: P,
    reader: CorpusReader<R>,
) -> Result<SimResult, TraceError> {
    run(reader, &mut predictor, &mut ())
}

/// Runs a predictor over a trace with immediate update while injecting
/// faults from `plan` — one injector [step](FaultInjector::step) per
/// conditional branch, *before* the branch is predicted, so a strike can
/// corrupt the very next lookup.
///
/// The injector is the simulation kernel's step hook for this run:
/// monomorphization gives it its own loop, so [`simulate`] carries no
/// per-branch flag test and no dead injector state (the `sim_hot_loop`
/// bench records what the armed hook costs).
///
/// Faults are *soft errors*, not logical writes: they go straight to the
/// storage arrays via
/// [`FaultTarget`] and bypass the predictor's write-enable accounting, so
/// `prediction_writes`/`hysteresis_writes` in the result still count only
/// the predictor's own update traffic.
///
/// Returns the simulation result plus the injector's [`FaultLog`] (how
/// many faults landed, per array). With `plan.rate == 0.0` the result is
/// identical to [`simulate`] — the injector draws from its RNG but never
/// touches the tables.
pub fn simulate_with_faults<P: BranchPredictor + FaultTarget>(
    mut predictor: P,
    trace: &Trace,
    plan: FaultPlan,
) -> (SimResult, FaultLog) {
    let mut injector = FaultInjector::new(plan, &predictor);
    let Ok(result) = run(trace, &mut predictor, &mut injector);
    (result, injector.into_log())
}

/// Runs a predictor with **fully stale updates**: *both* the table write
/// and the history shift for a branch happen only after `window` further
/// conditional branches — i.e. without any speculative history update.
///
/// This is deliberately the *wrong* way to build a deep-pipeline
/// predictor: Hao, Chang and Patt (the paper's reference \[8\], recalled in
/// §3) showed that speculative history update is essential, and this
/// simulator demonstrates why — history-correlated patterns become
/// invisible when the register lags the fetch stream. The faithful
/// commit-time model (speculative history, delayed counter writes) is
/// `TwoBcGskewConfig::with_commit_window`, validated by the
/// [`crate::experiments::delayed_update`] experiment.
///
/// This is a different update model from the kernel's immediate update,
/// so it keeps its own loop.
pub fn simulate_stale_update<P: BranchPredictor>(
    mut predictor: P,
    trace: &Trace,
    window: usize,
) -> SimResult {
    let mut tally = Tally::default();
    let mut inflight = VecDeque::with_capacity(window + 1);
    for record in trace.iter() {
        if record.kind.is_conditional() {
            let prediction = predictor.predict(record.pc);
            tally.conditional_branches += 1;
            if prediction != record.outcome {
                tally.mispredictions += 1;
            }
            inflight.push_back(*record);
            if inflight.len() > window {
                let commit = inflight.pop_front().expect("non-empty");
                predictor.update_record(&commit);
            }
        } else {
            predictor.note_noncond(record);
        }
    }
    while let Some(commit) = inflight.pop_front() {
        predictor.update_record(&commit);
    }
    tally.into_result(
        trace.name().to_owned(),
        format!("{} [stale, window {window}]", predictor.name()),
        trace.instruction_count(),
    )
}

/// A perfect predictor (always right) — gives the misp/KI floor of zero
/// and is useful for harness self-checks.
///
/// The oracle is stateless: it answers from the [`BranchRecord`] handed
/// to [`BranchPredictor::predict_and_update`], which is how [`simulate`]
/// drives it. The PC-only [`BranchPredictor::predict`] entry point has no
/// record to consult and statically answers not-taken.
#[derive(Clone, Copy, Debug, Default)]
pub struct Oracle;

impl Oracle {
    /// Creates an oracle.
    pub fn new() -> Self {
        Oracle
    }
}

impl BranchPredictor for Oracle {
    fn predict(&self, _pc: ev8_trace::Pc) -> Outcome {
        Outcome::NotTaken
    }

    fn update(&mut self, _pc: ev8_trace::Pc, _outcome: Outcome) {}

    fn predict_and_update(&mut self, record: &BranchRecord) -> Option<Outcome> {
        record.kind.is_conditional().then_some(record.outcome)
    }

    fn name(&self) -> String {
        "oracle".to_owned()
    }

    fn storage_bits(&self) -> u64 {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ev8_predictors::bimodal::Bimodal;
    use ev8_predictors::gshare::Gshare;
    use ev8_predictors::{AlwaysNotTaken, AlwaysTaken};
    use ev8_trace::{Pc, TraceBuilder};

    fn biased_trace(n: u64, taken_period: u64) -> Trace {
        let mut b = TraceBuilder::new("biased");
        for i in 0..n {
            b.run(5);
            b.branch(BranchRecord::conditional(
                Pc::new(0x1000),
                Pc::new(0x2000),
                i % taken_period != 0,
            ));
        }
        b.finish()
    }

    #[test]
    fn oracle_never_mispredicts() {
        let t = biased_trace(500, 3);
        let r = simulate(Oracle::new(), &t);
        assert_eq!(r.mispredictions, 0);
        assert_eq!(r.misp_per_ki(), 0.0);
        assert_eq!(r.conditional_branches, 500);
    }

    #[test]
    fn static_predictors_bound_the_range() {
        let t = biased_trace(300, 3);
        let taken = simulate(AlwaysTaken, &t);
        let not_taken = simulate(AlwaysNotTaken, &t);
        // The branch is taken 2/3 of the time.
        assert_eq!(taken.mispredictions, 100);
        assert_eq!(not_taken.mispredictions, 200);
        assert!(taken.accuracy() > not_taken.accuracy());
    }

    #[test]
    fn learning_predictor_beats_static() {
        let t = biased_trace(300, 4);
        let bimodal = simulate(Bimodal::new(10), &t);
        let taken = simulate(AlwaysTaken, &t);
        assert!(bimodal.mispredictions <= taken.mispredictions + 2);
    }

    #[test]
    fn result_counts_are_consistent() {
        let t = biased_trace(100, 2);
        let r = simulate(Bimodal::new(8), &t);
        assert_eq!(r.instructions, t.instruction_count());
        assert_eq!(r.conditional_branches, t.conditional_count());
        assert!(r.mispredictions <= r.conditional_branches);
        assert_eq!(r.trace, "biased");
    }

    #[test]
    fn stale_history_destroys_correlation() {
        // The [8] effect: a period-5 pattern is trivial for gshare with
        // up-to-date history, and unlearnable when the history register
        // lags 32 branches behind.
        let t = biased_trace(4000, 5);
        let imm = simulate(Gshare::new(12, 10), &t);
        let stale = simulate_stale_update(Gshare::new(12, 10), &t, 32);
        assert!(
            stale.mispredictions > imm.mispredictions * 5,
            "stale {} should be far worse than immediate {}",
            stale.mispredictions,
            imm.mispredictions
        );
    }

    #[test]
    fn stale_with_zero_window_equals_immediate() {
        let t = biased_trace(1000, 3);
        let imm = simulate(Gshare::new(10, 8), &t);
        let stale = simulate_stale_update(Gshare::new(10, 8), &t, 0);
        assert_eq!(imm.mispredictions, stale.mispredictions);
    }

    #[test]
    fn stale_update_spares_history_free_predictors() {
        // Bimodal has no history register, so staleness costs only the
        // slower counter warmup.
        let t = biased_trace(2000, 50);
        let imm = simulate(Bimodal::new(10), &t);
        let stale = simulate_stale_update(Bimodal::new(10), &t, 32);
        // Staleness costs at most the warmup window (the first `window`
        // predictions come from untrained counters); in steady state the
        // bimodal predictor is unaffected.
        assert!(
            stale.mispredictions <= imm.mispredictions + 32 + 5,
            "stale {} vs immediate {}",
            stale.mispredictions,
            imm.mispredictions
        );
    }

    #[test]
    fn stale_drains_inflight_at_end() {
        // A window larger than the trace still trains everything by the
        // end (drain loop), so a second pass improves.
        let t = biased_trace(50, 1000);
        let mut p = Gshare::new(10, 0);
        let first = simulate_stale_update(&mut p, &t, 1000);
        assert!(first.conditional_branches == 50);
        let second = simulate(&mut p, &t);
        assert!(second.mispredictions <= first.mispredictions);
    }

    #[test]
    fn heavy_seu_rate_costs_accuracy() {
        use ev8_faults::FaultPlan;
        use ev8_predictors::twobcgskew::{TwoBcGskew, TwoBcGskewConfig};
        let t = biased_trace(4000, 5);
        let clean = simulate(TwoBcGskew::new(TwoBcGskewConfig::equal(8, 8)), &t);
        // One SEU per branch into a small predictor is a blizzard; the
        // curve must move the right way, and nothing may panic.
        let (hit, log) = simulate_with_faults(
            TwoBcGskew::new(TwoBcGskewConfig::equal(8, 8)),
            &t,
            FaultPlan::seu(1.0).with_seed(3),
        );
        assert_eq!(log.injected(), hit.conditional_branches);
        assert!(
            hit.mispredictions > clean.mispredictions,
            "SEU storm {} should beat clean {}",
            hit.mispredictions,
            clean.mispredictions
        );
    }

    #[test]
    fn faulted_sim_is_deterministic() {
        use ev8_faults::FaultPlan;
        use ev8_predictors::twobcgskew::{TwoBcGskew, TwoBcGskewConfig};
        let t = biased_trace(1500, 4);
        let run = || {
            simulate_with_faults(
                TwoBcGskew::new(TwoBcGskewConfig::equal(9, 9)),
                &t,
                FaultPlan::seu(0.05).with_seed(11),
            )
        };
        let (a, la) = run();
        let (b, lb) = run();
        assert_eq!(a.mispredictions, b.mispredictions);
        assert_eq!(la.injected(), lb.injected());
        assert_eq!(la.by_array(), lb.by_array());
    }

    #[test]
    fn commit_window_predictor_tracks_immediate() {
        // §8.1.1 in miniature: speculative history + delayed counter
        // writes stays close to immediate update.
        use ev8_predictors::twobcgskew::{TwoBcGskew, TwoBcGskewConfig};
        let t = biased_trace(4000, 5);
        let imm = simulate(TwoBcGskew::new(TwoBcGskewConfig::equal(10, 10)), &t);
        let del = simulate(
            TwoBcGskew::new(TwoBcGskewConfig::equal(10, 10).with_commit_window(64)),
            &t,
        );
        // Measure the gap against the branch count: in steady state the
        // two agree, so the difference is bounded by the warmup window.
        let gap = (imm.mispredictions as f64 - del.mispredictions as f64).abs()
            / imm.conditional_branches as f64;
        assert!(
            gap < 0.03,
            "immediate {} vs commit-window {} over {} branches",
            imm.mispredictions,
            del.mispredictions,
            imm.conditional_branches
        );
    }
}
