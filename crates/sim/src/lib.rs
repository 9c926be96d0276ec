//! Trace-driven simulation harness and the paper's experiments.
//!
//! The paper's methodology (§8.1.1): "Trace driven branch simulations with
//! immediate update were used to explore the design space ... The metric
//! used to report the results is mispredictions per 1000 instructions
//! (misp/KI)."
//!
//! Every trace-driven front door below runs one predict-and-score
//! kernel (a private `kernel` module): one per-record step that feeds a
//! record to the predictor and scores the prediction into a [`Tally`],
//! and one `run(source, predictor, hook)` that builds the [`SimResult`]
//! header once. The record source (AoS [`ev8_trace::Trace`], packed
//! [`ev8_trace::FlatTrace`], a slice of one, or a streaming corpus
//! decode) and the step hook (none, a fault injector, or an observer)
//! are type parameters, so each combination is monomorphized into its
//! own loop and the plain loop carries no hook test. The differential
//! matrix (`tests/differential.rs`) pins every front door against
//! [`simulate`], field for field, for every predictor family.
//!
//! * [`simulator`] — [`simulate`] runs any
//!   [`ev8_predictors::BranchPredictor`] over a trace with immediate
//!   update; [`simulate_with_faults`] is the same run with an
//!   `ev8_faults` injector stepped per branch; [`simulate_corpus`] is
//!   the same run fed by a streaming
//!   [`ev8_trace::corpus::CorpusReader`] decode, bit-identical to
//!   [`simulate`] on the same trace without ever materializing it;
//!   [`simulate_stale_update`] models a predictor with *no speculative
//!   history update* (the pathology the paper's reference \[8\] warns
//!   about) in a loop of its own, while the faithful commit-time model
//!   lives in `TwoBcGskewConfig::with_commit_window` (validated by
//!   [`experiments::delayed_update`]).
//! * [`batch`] — the sweep engine: [`simulate_many`] steps K predictor
//!   configurations per record in one pass over a packed
//!   [`ev8_trace::FlatTrace`], bit-identical to K serial [`simulate`]
//!   calls; [`simulate_flat`] is the single-config flat-trace run;
//!   [`simulate_gshare_sweep`] is the transposed engine for gshare
//!   history-length sweeps.
//! * [`observe`] — the opt-in observability layer: [`simulate_observed`]
//!   runs the kernel with an [`observe::Observer`] hook, feeding
//!   per-branch provenance into attribution counters, runtime invariant
//!   checks (§6 bank collisions, exact count reconciliation) and an
//!   optional JSONL event stream.
//! * [`window`] — windowed single-trace parallelism:
//!   [`simulate_windowed`] splits one flat trace into contiguous windows
//!   with warmup prefixes, simulates them on worker threads, and splices
//!   the scoreboards — bit-identical to serial at full warmup and with a
//!   measured, convergent misprediction error otherwise.
//! * [`session`] — [`SessionSim`], the prediction service's incremental
//!   per-session run: one kernel step per streamed record, with the
//!   bounded [`ProvenanceSummary`] observer when attribution is on.
//! * [`sampling`] — SimPoint-style weighted phase sampling:
//!   [`simulate_sampled`] profiles per-interval branch-behaviour
//!   vectors in one streaming pass, clusters them with a deterministic
//!   in-tree k-means, simulates one warm representative per phase and
//!   returns a population-weighted estimate with the |sampled − full|
//!   misp/KI delta recorded next to every number.
//! * [`metrics`] — [`SimResult`] with misp/KI,
//!   accuracy and counts.
//! * [`sweep`] — parallel execution of simulation jobs over worker
//!   threads (`std::thread::scope`).
//! * [`report`] — aligned text tables for experiment output.
//! * [`experiments`] — one module per table/figure of the paper's
//!   evaluation (Tables 1-3, Figures 5-10), each regenerating the paper's
//!   rows/series on the synthetic SPECINT95 suite.
//!
//! # Example
//!
//! ```
//! use ev8_predictors::gshare::Gshare;
//! use ev8_sim::simulator::simulate;
//! use ev8_workloads::spec95;
//!
//! let trace = spec95::benchmark("compress").unwrap().generate_scaled(0.001);
//! let result = simulate(Gshare::new(14, 14), &trace);
//! assert!(result.misp_per_ki() >= 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod experiments;
mod kernel;
pub mod metrics;
pub mod observe;
pub mod report;
pub mod sampling;
pub mod session;
pub mod simulator;
pub mod sweep;
pub mod window;

pub use batch::{simulate_flat, simulate_gshare_sweep, simulate_many};
pub use kernel::Tally;
pub use metrics::SimResult;
pub use observe::simulate_observed;
pub use sampling::{
    cluster_intervals, profile_intervals, simulate_sampled, validate_sampled, AgeCurve, Interval,
    Phase, SampledRun, SampledVsFull, SamplingConfig, TailSample,
};
pub use session::{ProvenanceSummary, SessionSim, SessionSummary};
pub use simulator::{simulate, simulate_corpus, simulate_stale_update, simulate_with_faults};
pub use window::{simulate_windowed, WindowPlan, WindowedRun};
