//! The differential matrix: every trace-driven front door of `ev8-sim`
//! against the reference `simulate`, `SimResult` field for field.
//!
//! Rows are the predictor families the experiments use (bimodal, gshare,
//! 2Bc-gskew at the EV8 budget, the EV8 itself and TAGE at the EV8
//! budget); columns are the front doors: the packed-trace loops, the
//! streaming corpus decode with records straddling chunk boundaries,
//! the windowed splice at full warmup, the server's incremental session
//! (attribution on and off, fed record by record and in chunks), the
//! fault-injecting loop at rate 0, the observed loop with a no-op and a
//! counting observer, and the phase sampler on its degenerate
//! full-coverage plans. Inputs are seeded arbitrary traces with wide
//! (> u32) PCs and wide gaps, plus the empty trace.
//!
//! A failure panics with an `EV8_PROP_CASE_SEED`/`EV8_PROP_SCALE` pair
//! reproducing the minimal counterexample (`ev8_util::prop`).

mod common;

use std::sync::Arc;

use common::arb_trace;
use ev8_util::prop::{check, Gen};
use ev8_util::prop_assert_eq;

use ev8_core::Ev8Predictor;
use ev8_faults::FaultPlan;
use ev8_predictors::bimodal::Bimodal;
use ev8_predictors::gshare::Gshare;
use ev8_predictors::observe::ConditionalBranchPredictor;
use ev8_predictors::tage::{Tage, TageConfig};
use ev8_predictors::twobcgskew::{TwoBcGskew, TwoBcGskewConfig};
use ev8_sim::experiments::factory;
use ev8_sim::observe::{Attribution, NullObserver};
use ev8_sim::sweep::RunPolicy;
use ev8_sim::{
    simulate, simulate_corpus, simulate_flat, simulate_many, simulate_observed, simulate_sampled,
    simulate_windowed, simulate_with_faults, SamplingConfig, SessionSim, SimResult, WindowPlan,
};
use ev8_trace::corpus::{write_corpus_chunked, CorpusReader};
use ev8_trace::{FlatTrace, Trace};

const CASES: u64 = 48;

/// The per-case geometry knobs a front door takes beyond the trace.
struct Knobs {
    chunk_len: usize,
    window_len: usize,
    workers: usize,
    interval_len: usize,
    phases: usize,
    fault_seed: u64,
}

impl Knobs {
    fn arb(g: &mut Gen) -> Self {
        Knobs {
            chunk_len: g.range(1u32..24) as usize,
            window_len: g.range(16u32..160) as usize,
            workers: g.range(1u32..4) as usize,
            interval_len: g.range(1u32..96) as usize,
            phases: g.range(1u32..5) as usize,
            fault_seed: g.u64(),
        }
    }
}

/// One row of the matrix: every front door for one family over one
/// trace, each compared with `simulate`.
fn row<P: ConditionalBranchPredictor + 'static>(
    family: &str,
    make: fn() -> P,
    trace: &Trace,
    knobs: &Knobs,
) -> Result<(), String> {
    let serial = simulate(make(), trace);
    let flat = Arc::new(FlatTrace::from_trace(trace));
    let expect = |door: &str, got: &SimResult| -> Result<(), String> {
        if *got == serial {
            Ok(())
        } else {
            Err(format!(
                "{family}: {door}\n  got  {got:?}\n  want {serial:?}"
            ))
        }
    };

    expect("simulate_flat", &simulate_flat(make(), &flat))?;
    for (k, result) in simulate_many(&mut [make(), make()], &flat)
        .iter()
        .enumerate()
    {
        expect(&format!("simulate_many[{k}]"), result)?;
    }

    let mut bytes = Vec::new();
    write_corpus_chunked(&mut bytes, trace, knobs.chunk_len).map_err(|e| e.to_string())?;
    let reader = CorpusReader::new(bytes.as_slice()).map_err(|e| e.to_string())?;
    let streamed = simulate_corpus(make(), reader).map_err(|e| e.to_string())?;
    expect(
        &format!("simulate_corpus (chunk {})", knobs.chunk_len),
        &streamed,
    )?;

    let fac = factory(make);
    let plan = WindowPlan::new(knobs.window_len, flat.len());
    let windowed = {
        let fac = Arc::clone(&fac);
        simulate_windowed(
            move || fac(),
            &flat,
            plan,
            knobs.workers,
            &RunPolicy::default(),
        )
    };
    expect(
        &format!("simulate_windowed (window {})", knobs.window_len),
        &windowed.result,
    )?;
    prop_assert_eq!(windowed.per_window.len(), plan.windows(flat.len()));
    let spliced: u64 = windowed.per_window.iter().map(|w| w.mispredictions).sum();
    prop_assert_eq!(spliced, serial.mispredictions);

    let mut attribution = Attribution::new();
    let observed = simulate_observed(make(), trace, &mut attribution);
    expect("simulate_observed (Attribution)", &observed)?;
    attribution
        .reconcile(&observed)
        .map_err(|e| format!("{family}: attribution: {e}"))?;
    expect(
        "simulate_observed (NullObserver)",
        &simulate_observed(make(), trace, &mut NullObserver),
    )?;

    for on in [false, true] {
        for by_record in [false, true] {
            let mut session = SessionSim::new(Box::new(make()), on);
            let summary = if by_record {
                // Declared count 0: the session sums `1 + gap` itself.
                session.begin(trace.name(), 0);
                for record in trace.iter() {
                    session.feed(record);
                }
                session.finish()
            } else {
                session.begin(trace.name(), trace.instruction_count());
                session.feed_all(trace.records());
                session.finish()
            };
            let door = format!("SessionSim (attribution {on}, by record {by_record})");
            expect(&door, &summary.result)?;
            let want = on.then_some(attribution.summary);
            if summary.attribution != want {
                return Err(format!(
                    "{family}: {door}: summary {:?} vs attribution {want:?}",
                    summary.attribution
                ));
            }
        }
    }

    let plan = FaultPlan::seu(0.0).with_seed(knobs.fault_seed);
    let (faulted, log) = simulate_with_faults(make(), trace, plan);
    expect("simulate_with_faults (rate 0)", &faulted)?;
    prop_assert_eq!(log.injected(), 0u64);

    let config = SamplingConfig {
        interval_len: knobs.interval_len,
        phases: knobs.phases,
        dims: 8,
        warmup_len: flat.len(),
        seed: knobs.fault_seed,
        max_iters: 4,
        anchor_intervals: 0,
        tail_samples: usize::MAX,
    };
    let full_anchor = SamplingConfig {
        anchor_intervals: usize::MAX,
        tail_samples: 0,
        ..config
    };
    for (door, config, sampled) in [
        ("simulate_sampled (every interval sampled)", config, true),
        ("simulate_sampled (full anchor)", full_anchor, false),
    ] {
        let run = simulate_sampled(&fac, &flat, &config);
        expect(door, &run.estimate)?;
        prop_assert_eq!(run.estimated_mispredictions, serial.mispredictions as f64);
        let (samples, anchored) = if sampled {
            (run.intervals, 0)
        } else {
            (0, run.intervals)
        };
        prop_assert_eq!(run.samples.len(), samples);
        prop_assert_eq!(run.anchor_intervals, anchored);
        prop_assert_eq!(run.simulated_records, flat.len());
    }
    Ok(())
}

/// Every family over one trace.
fn matrix(trace: &Trace, knobs: &Knobs) -> Result<(), String> {
    row("bimodal", || Bimodal::new(12), trace, knobs)?;
    row("gshare", || Gshare::new(12, 12), trace, knobs)?;
    row(
        "2bcgskew [ev8_size]",
        || TwoBcGskew::new(TwoBcGskewConfig::ev8_size()),
        trace,
        knobs,
    )?;
    row("ev8", Ev8Predictor::ev8, trace, knobs)?;
    row(
        "tage [ev8_budget]",
        || Tage::new(TageConfig::ev8_budget()),
        trace,
        knobs,
    )
}

#[test]
fn every_front_door_equals_simulate_on_arbitrary_traces() {
    check(
        "every_front_door_equals_simulate_on_arbitrary_traces",
        CASES,
        |g| {
            let trace = arb_trace(g);
            let knobs = Knobs::arb(g);
            matrix(&trace, &knobs)
        },
    );
}

#[test]
fn every_front_door_equals_simulate_on_the_empty_trace() {
    let knobs = Knobs {
        chunk_len: 1,
        window_len: 16,
        workers: 2,
        interval_len: 8,
        phases: 2,
        fault_seed: 7,
    };
    matrix(&Trace::default(), &knobs).unwrap();
}
