//! The predict-and-score kernel: the one per-record loop body behind
//! every trace-driven front door.
//!
//! The paper's metric comes from one loop (§8.1.1): feed every record to
//! the predictor with immediate update, count the conditional branches
//! it predicted and the ones it got wrong. [`Tally::step`] is that loop
//! body, [`run`] is that loop over a whole [`TraceSource`], and every
//! `simulate*` front door in this crate is a call into one of the two.
//! What varies between the front doors is expressed as two type
//! parameters, resolved at compile time:
//!
//! * a [`RecordSource`]: the AoS [`Trace`], the packed [`FlatTrace`], a
//!   `(&FlatTrace, Range<usize>)` slice of one (the windowed run's and
//!   the sampler's passes), or a streaming [`CorpusReader`] decode — the
//!   only source that can fail;
//! * a [`StepHook`]: `()` calls the plain
//!   [`BranchPredictor::predict_and_update`]; a [`FaultInjector`] steps
//!   before each conditional record, then predicts; [`Observe`] calls
//!   [`ObservedPredictor::predict_and_update_observed`] and hands the
//!   [`Provenance`](ev8_predictors::provenance::Provenance) to an
//!   [`Observer`].
//!
//! Monomorphization gives every (source, hook, predictor) triple its own
//! loop, so the `()` hook compiles to the plain predict-and-score loop
//! with no per-branch hook test; the `sim_hot_loop` bench's paired
//! `fault_hook_zero_rate_overhead` and `observe_hook_noop_overhead`
//! ratios measure what the armed hooks cost on top of it.
//!
//! A [`SimResult`] is assembled in one place, [`Tally::into_result`].

use std::convert::Infallible;
use std::io::Read;
use std::ops::Range;

use ev8_faults::FaultInjector;
use ev8_predictors::introspect::FaultTarget;
use ev8_predictors::observe::ObservedPredictor;
use ev8_predictors::BranchPredictor;
use ev8_trace::corpus::CorpusReader;
use ev8_trace::{BranchRecord, FlatTrace, Outcome, Trace, TraceError};

use crate::metrics::SimResult;
use crate::observe::Observer;

/// The scoreboard of a run, or of one slice of a run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    /// Conditional branches predicted.
    pub conditional_branches: u64,
    /// Mispredictions among them.
    pub mispredictions: u64,
}

impl Tally {
    /// Passes one record through `predictor` via `hook` and scores the
    /// prediction, if the record was a conditional branch. The
    /// misprediction count is branchless.
    #[inline]
    pub(crate) fn step<P: ?Sized, H: StepHook<P>>(
        &mut self,
        predictor: &mut P,
        record: &BranchRecord,
        hook: &mut H,
    ) {
        if let Some(prediction) = hook.predict_and_update(predictor, record) {
            self.conditional_branches += 1;
            self.mispredictions += u64::from(prediction != record.outcome);
        }
    }

    /// Steps every record of `source` through `predictor`, returning the
    /// tally of that pass.
    ///
    /// # Errors
    ///
    /// Propagates the source's first error (only a corpus decode can
    /// fail).
    #[inline]
    pub(crate) fn over<S: RecordSource, P: ?Sized, H: StepHook<P>>(
        source: S,
        predictor: &mut P,
        hook: &mut H,
    ) -> Result<Tally, S::Error> {
        let mut tally = Tally::default();
        source.for_each_record(|record| tally.step(predictor, record, hook))?;
        Ok(tally)
    }

    /// This tally under a run header: the [`SimResult`] of a run of
    /// `predictor` over `instructions` instructions of `trace`.
    pub(crate) fn into_result(
        self,
        trace: String,
        predictor: String,
        instructions: u64,
    ) -> SimResult {
        SimResult {
            trace,
            predictor,
            instructions,
            conditional_branches: self.conditional_branches,
            mispredictions: self.mispredictions,
        }
    }
}

/// Runs `predictor` over every record of `source` with immediate update
/// and returns the scored [`SimResult`]. The hook's
/// [`finish`](StepHook::finish) runs once, after the last record.
///
/// # Errors
///
/// Propagates the source's first error, without a partial result.
/// In-RAM sources are [`Infallible`]: `let Ok(result) = run(..);`.
pub(crate) fn run<S: TraceSource, P: BranchPredictor + ?Sized, H: StepHook<P>>(
    source: S,
    predictor: &mut P,
    hook: &mut H,
) -> Result<SimResult, S::Error> {
    let (trace, instructions) = source.header();
    let trace = trace.to_owned();
    let tally = Tally::over(source, predictor, hook)?;
    hook.finish(predictor);
    Ok(tally.into_result(trace, predictor.name(), instructions))
}

/// What the kernel does with one record on top of scoring it.
pub(crate) trait StepHook<P: ?Sized> {
    /// Processes one record with immediate update, returning the
    /// prediction for a conditional record and `None` otherwise.
    fn predict_and_update(&mut self, predictor: &mut P, record: &BranchRecord) -> Option<Outcome>;

    /// Called once at the end of a [`run`].
    #[inline]
    fn finish(&mut self, predictor: &P) {
        let _ = predictor;
    }
}

/// The plain step: no hook at all.
impl<P: BranchPredictor + ?Sized> StepHook<P> for () {
    #[inline(always)]
    fn predict_and_update(&mut self, predictor: &mut P, record: &BranchRecord) -> Option<Outcome> {
        predictor.predict_and_update(record)
    }
}

/// One injector [step](FaultInjector::step) per conditional record,
/// *before* it is predicted, so a strike can corrupt the very next
/// lookup.
impl<P: BranchPredictor + FaultTarget> StepHook<P> for FaultInjector {
    #[inline]
    fn predict_and_update(&mut self, predictor: &mut P, record: &BranchRecord) -> Option<Outcome> {
        if record.kind.is_conditional() {
            self.step(predictor);
        }
        predictor.predict_and_update(record)
    }
}

/// The observer adapter: steps through the provenance-producing entry
/// point and hands every conditional branch's provenance to the wrapped
/// [`Observer`]; at the end of a [`run`] the observer receives the
/// predictor's §6 bank-collision counter.
pub(crate) struct Observe<O>(pub(crate) O);

impl<P: ObservedPredictor + ?Sized, O: Observer> StepHook<P> for Observe<O> {
    #[inline]
    fn predict_and_update(&mut self, predictor: &mut P, record: &BranchRecord) -> Option<Outcome> {
        let provenance = predictor.predict_and_update_observed(record)?;
        self.0.on_prediction(&provenance);
        Some(provenance.overall)
    }

    fn finish(&mut self, predictor: &P) {
        self.0.on_finish(predictor.bank_collisions());
    }
}

/// A stream of records the kernel can walk once, in order.
pub(crate) trait RecordSource {
    /// Why a walk can stop early ([`Infallible`] for in-RAM sources).
    type Error;

    /// Calls `f` on every record, in trace order.
    ///
    /// # Errors
    ///
    /// The first error of the underlying stream.
    fn for_each_record(self, f: impl FnMut(&BranchRecord)) -> Result<(), Self::Error>;
}

/// A source that is a whole trace, and so names a [`SimResult`].
pub(crate) trait TraceSource: RecordSource {
    /// The trace name and its total instruction count.
    fn header(&self) -> (&str, u64);
}

impl RecordSource for &Trace {
    type Error = Infallible;

    #[inline]
    fn for_each_record(self, f: impl FnMut(&BranchRecord)) -> Result<(), Infallible> {
        self.iter().for_each(f);
        Ok(())
    }
}

impl TraceSource for &Trace {
    fn header(&self) -> (&str, u64) {
        (self.name(), self.instruction_count())
    }
}

impl RecordSource for &FlatTrace {
    type Error = Infallible;

    #[inline]
    fn for_each_record(self, f: impl FnMut(&BranchRecord)) -> Result<(), Infallible> {
        self.for_each(f);
        Ok(())
    }
}

impl TraceSource for &FlatTrace {
    fn header(&self) -> (&str, u64) {
        (self.name(), self.instruction_count())
    }
}

/// A contiguous slice of a packed trace, walked with
/// [`FlatTrace::for_each_in`].
impl RecordSource for (&FlatTrace, Range<usize>) {
    type Error = Infallible;

    #[inline]
    fn for_each_record(self, f: impl FnMut(&BranchRecord)) -> Result<(), Infallible> {
        self.0.for_each_in(self.1, f);
        Ok(())
    }
}

/// A streaming corpus decode: one chunk resident at a time, totals
/// validated during the walk.
impl<R: Read> RecordSource for CorpusReader<R> {
    type Error = TraceError;

    #[inline]
    fn for_each_record(self, f: impl FnMut(&BranchRecord)) -> Result<(), TraceError> {
        self.for_each(f)
    }
}

impl<R: Read> TraceSource for CorpusReader<R> {
    fn header(&self) -> (&str, u64) {
        (self.name(), self.instruction_count())
    }
}
