//! Equivalence guarantees for the batched sweep engine: `simulate_many`
//! over a packed `FlatTrace` must be *bit-identical* to K serial
//! `simulate` calls over the source `Trace` — same `SimResult` fields
//! and same post-run predictor state (checked through the 2Bc-gskew
//! write-accounting counters, the most fragile observable).
//!
//! Property cases are driven by the in-tree deterministic harness
//! (`ev8_util::prop`); a failure panics with an
//! `EV8_PROP_CASE_SEED`/`EV8_PROP_SCALE` pair reproducing the minimal
//! counterexample. The suite-level check (also run by the CI sweep
//! smoke, see `scripts/ci.sh`) covers the real generated benchmarks.
//!
//! The one-predictor-per-front-door pins (`simulate_flat`, the corpus
//! stream, the windowed splice at full warmup, sessions, the observed
//! and faulted loops, the sampler) live in the differential matrix,
//! `tests/differential.rs`.

mod common;

use common::arb_trace;
use ev8_util::prop::check;
use ev8_util::prop_assert_eq;

use ev8_core::smt::SmtEv8;
use ev8_core::{Ev8Config, Ev8Predictor};
use ev8_predictors::bimodal::Bimodal;
use ev8_predictors::gshare::Gshare;
use ev8_predictors::tage::{Tage, TageConfig};
use ev8_predictors::twobcgskew::{TwoBcGskew, TwoBcGskewConfig, UpdatePolicy};
use ev8_predictors::BranchPredictor;
use ev8_sim::sweep::RunPolicy;
use ev8_sim::{
    simulate, simulate_flat, simulate_gshare_sweep, simulate_many, simulate_windowed, WindowPlan,
};
use ev8_trace::{BranchRecord, FlatTrace, Outcome};
use ev8_workloads::spec95;

const CASES: u64 = 64;

#[test]
fn flat_view_reconstructs_arbitrary_traces_exactly() {
    check(
        "flat_view_reconstructs_arbitrary_traces_exactly",
        CASES,
        |g| {
            let trace = arb_trace(g);
            let flat = FlatTrace::from_trace(&trace);
            prop_assert_eq!(flat.iter().collect::<Vec<_>>(), trace.records());
            prop_assert_eq!(flat.len(), trace.len());
            prop_assert_eq!(flat.instruction_count(), trace.instruction_count());
            prop_assert_eq!(flat.conditional_count(), trace.conditional_count());
            Ok(())
        },
    );
}

#[test]
fn simulate_many_is_bit_identical_to_serial_simulate() {
    check(
        "simulate_many_is_bit_identical_to_serial_simulate",
        CASES,
        |g| {
            let trace = arb_trace(g);
            let flat = FlatTrace::from_trace(&trace);
            // A heterogeneous roster with varied index/history geometry so
            // different state-machine families interleave in one pass;
            // parameters are drawn once and used to build both rosters.
            let bim_bits = g.range(4u32..12);
            let gshare_bits = g.range(4u32..12);
            let gshare_hist = g.range(0u32..16);
            let gskew_bits = g.range(4u32..10);
            let gskew_hist = g.range(0u32..12);
            let tage_config = TageConfig::geometric(
                g.range(4u32..9),
                g.range(1u32..6) as usize,
                g.range(4u32..8),
                g.range(5u32..11),
                g.range(2u32..5),
                g.range(8u32..40),
            );
            let mut batch: Vec<Box<dyn BranchPredictor>> = vec![
                Box::new(Bimodal::new(bim_bits)),
                Box::new(Gshare::new(gshare_bits, gshare_hist)),
                Box::new(TwoBcGskew::new(TwoBcGskewConfig::equal(
                    gskew_bits, gskew_hist,
                ))),
                Box::new(Ev8Predictor::ev8()),
                Box::new(Tage::new(tage_config.clone())),
            ];
            let serial = vec![
                simulate(Bimodal::new(bim_bits), &trace),
                simulate(Gshare::new(gshare_bits, gshare_hist), &trace),
                simulate(
                    TwoBcGskew::new(TwoBcGskewConfig::equal(gskew_bits, gskew_hist)),
                    &trace,
                ),
                simulate(Ev8Predictor::ev8(), &trace),
                simulate(Tage::new(tage_config), &trace),
            ];
            let batched = simulate_many(&mut batch, &flat);
            prop_assert_eq!(batched, serial);
            Ok(())
        },
    );
}

#[test]
fn simulate_many_matches_serial_write_accounting() {
    // Exact SimResult equality plus exact predictor *state* equality:
    // the write-enable counters record every table write the predictor
    // performed, so equal traffic pins the full update sequence.
    check(
        "simulate_many_matches_serial_write_accounting",
        CASES,
        |g| {
            let trace = arb_trace(g);
            let flat = FlatTrace::from_trace(&trace);
            let config = TwoBcGskewConfig::equal(g.range(4u32..10), g.range(0u32..12));
            let mut batched_predictor = TwoBcGskew::new(config);
            let mut serial_predictor = TwoBcGskew::new(config);
            let batched = simulate_many(std::slice::from_mut(&mut batched_predictor), &flat);
            let serial = simulate(&mut serial_predictor, &trace);
            prop_assert_eq!(&batched[0], &serial);
            prop_assert_eq!(
                batched_predictor.write_traffic(),
                serial_predictor.write_traffic()
            );
            Ok(())
        },
    );
}

#[test]
fn simulate_many_matches_serial_tage_full_state() {
    // TAGE derives structural equality, so the batched-vs-serial pin is
    // the *entire* predictor: every tagged entry, useful counter, the
    // use_alt chooser, the allocation LFSR and the reset phase.
    check("simulate_many_matches_serial_tage_full_state", CASES, |g| {
        let trace = arb_trace(g);
        let flat = FlatTrace::from_trace(&trace);
        let config = TageConfig::geometric(
            g.range(4u32..8),
            g.range(1u32..5) as usize,
            g.range(4u32..7),
            g.range(5u32..10),
            g.range(2u32..5),
            g.range(8u32..24),
        );
        let mut batched_predictor = Tage::new(config.clone());
        let mut serial_predictor = Tage::new(config);
        let batched = simulate_many(std::slice::from_mut(&mut batched_predictor), &flat);
        let serial = simulate(&mut serial_predictor, &trace);
        prop_assert_eq!(&batched[0], &serial);
        prop_assert_eq!(batched_predictor, serial_predictor);
        Ok(())
    });
}

#[test]
fn gshare_sweep_matches_serial_on_arbitrary_traces() {
    // The specialized gshare sweep (the transposed-stream engine behind
    // `simulate_gshare_sweep`) against K serial runs, over arbitrary
    // traces including escape-table extremes, with geometry drawn per
    // case — including history lengths that force the long-history
    // route to `simulate_many`.
    check(
        "gshare_sweep_matches_serial_on_arbitrary_traces",
        CASES,
        |g| {
            let trace = arb_trace(g);
            let flat = FlatTrace::from_trace(&trace);
            let index_bits = g.range(4u32..14);
            let histories: Vec<u32> = (0..g.range(1u32..8)).map(|_| g.range(0u32..40)).collect();
            let serial: Vec<_> = histories
                .iter()
                .map(|&h| simulate(Gshare::new(index_bits, h), &trace))
                .collect();
            prop_assert_eq!(simulate_gshare_sweep(index_bits, &histories, &flat), serial);
            Ok(())
        },
    );
}

#[test]
fn windowed_splice_converges_to_serial_as_warmup_grows() {
    // The windowed engine's accuracy contract: at full warmup the splice
    // is *bit-identical* to serial (delta exactly zero), and
    // conditional-branch accounting is exact at *every* warmup — only
    // the misprediction count can drift, and per-window sums must
    // reconcile with the spliced total.
    check(
        "windowed_splice_converges_to_serial_as_warmup_grows",
        CASES / 2,
        |g| {
            let trace = arb_trace(g);
            let flat = std::sync::Arc::new(FlatTrace::from_trace(&trace));
            let bits = g.range(4u32..10);
            let hist = g.range(0u32..10);
            let factory = move || Gshare::new(bits, hist);
            let serial = simulate_flat(factory(), &flat);
            let window_len = g.range(1u32..130) as usize;
            let policy = RunPolicy::default();
            let mut deltas = Vec::new();
            for warmup in [0usize, 32, 128, flat.len()] {
                let plan = WindowPlan::new(window_len, warmup);
                let run = simulate_windowed(factory, &flat, plan, 3, &policy);
                prop_assert_eq!(run.result.conditional_branches, serial.conditional_branches);
                let spliced: u64 = run.per_window.iter().map(|w| w.mispredictions).sum();
                prop_assert_eq!(spliced, run.result.mispredictions);
                deltas.push(run.result.mispredictions.abs_diff(serial.mispredictions));
                if plan.is_exact_for(flat.len()) {
                    prop_assert_eq!(run.result.clone(), serial.clone());
                }
            }
            // Full warmup is always exact.
            prop_assert_eq!(*deltas.last().unwrap(), 0u64);
            Ok(())
        },
    );
}

/// The CI windowed smoke: real generated benchmarks, bit-accounted —
/// the spliced totals at a practical warmup are compared against the
/// serial golden counts, and a full-warmup splice must be exact.
#[test]
fn windowed_splice_is_bit_accounted_on_real_benchmarks() {
    let policy = RunPolicy::default();
    for name in ["compress", "m88ksim"] {
        let flat = spec95::cached_flat(name, 0.002).unwrap();
        // A 256-entry table: the 2048-record warmup below cycles the
        // whole working set several times, so the residual window error
        // is genuinely cold-start history, not an under-warmed table.
        let factory = || Gshare::new(8, 6);
        let serial = simulate_flat(factory(), &flat);
        let exact = simulate_windowed(
            factory,
            &flat,
            WindowPlan::new(4096, flat.len()),
            4,
            &policy,
        );
        assert_eq!(exact.result, serial, "{name}: full-warmup splice");
        // Warmup-error account, the numbers DESIGN.md §14 quotes: the
        // misprediction delta vs serial must shrink as warmup grows
        // (this host's generated traces: compress 284 -> 87 -> 17,
        // m88ksim 138 -> 43 -> 0) and land within 2% of the golden
        // count at the longest warmup.
        let mut deltas = Vec::new();
        for warmup in [512usize, 2048, 8192] {
            let windowed =
                simulate_windowed(factory, &flat, WindowPlan::new(4096, warmup), 4, &policy);
            assert_eq!(
                windowed.result.conditional_branches, serial.conditional_branches,
                "{name}: windowed branch accounting at warmup {warmup}"
            );
            deltas.push(
                windowed
                    .result
                    .mispredictions
                    .abs_diff(serial.mispredictions),
            );
        }
        assert!(
            deltas.windows(2).all(|w| w[1] <= w[0]),
            "{name}: warmup error must shrink as warmup grows, got {deltas:?}"
        );
        assert!(
            *deltas.last().unwrap() <= serial.mispredictions / 50,
            "{name}: residual delta {} of {} at 8192-record warmup",
            deltas.last().unwrap(),
            serial.mispredictions
        );
    }
}

/// The CI sweep smoke (`scripts/ci.sh`, `EV8_SWEEP_BUDGET`): one batched
/// 8-config sweep over real generated benchmarks, asserted equal to the
/// serial results field-for-field.
#[test]
fn batched_suite_sweep_matches_serial_on_real_benchmarks() {
    let histories = [0u32, 2, 4, 6, 8, 10, 12, 14];
    for name in ["compress", "m88ksim", "go"] {
        let trace = spec95::cached(name, 0.002).unwrap();
        let flat = spec95::cached_flat(name, 0.002).unwrap();
        let mut batch: Vec<Gshare> = histories.iter().map(|&h| Gshare::new(12, h)).collect();
        let batched = simulate_many(&mut batch, &flat);
        for (&h, b) in histories.iter().zip(&batched) {
            let serial = simulate(Gshare::new(12, h), &trace);
            assert_eq!(*b, serial, "{name} gshare h={h}");
        }
    }
}

/// One step of a predictor under test: the prediction for a conditional
/// record, `None` otherwise.
type Step = Box<dyn FnMut(&BranchRecord) -> Option<Outcome>>;

fn ev8_step(config: Ev8Config) -> Step {
    let mut p = Ev8Predictor::new(config);
    Box::new(move |r| p.predict_and_update(r))
}

fn smt1_step(config: Ev8Config) -> Step {
    let mut smt = SmtEv8::new(config, 1);
    Box::new(move |r| smt.predict_and_update(0, r))
}

fn gskew_step(config: TwoBcGskewConfig) -> Step {
    let mut p = TwoBcGskew::new(config);
    Box::new(move |r| p.predict_and_update(r))
}

/// Three front doors onto one 2Bc-gskew table set, compared
/// prediction-for-prediction over the whole suite:
///
/// * the SMT EV8 with one thread context is the EV8 (§3: SMT adds only
///   per-thread history), for the shipping design and the unconstrained
///   512 Kbit baseline;
/// * the EV8 with conventional history and complete-hash indexing is
///   2Bc-gskew at the same 512 Kbit geometry.
///
/// Both sides of each row share the table read and the §4.2 update, so
/// `golden_misp` pins their absolute counts as well.
#[test]
fn shared_table_predictors_agree_prediction_for_prediction() {
    type Pair = (fn() -> Step, fn() -> Step);
    let rows: [(&str, Pair); 3] = [
        (
            "smt1 == ev8 [ev8]",
            (
                || smt1_step(Ev8Config::ev8()),
                || ev8_step(Ev8Config::ev8()),
            ),
        ),
        (
            "smt1 == ev8 [unconstrained_512k]",
            (
                || smt1_step(Ev8Config::unconstrained_512k()),
                || ev8_step(Ev8Config::unconstrained_512k()),
            ),
        ),
        (
            "ev8 [unconstrained_512k] == 2bcgskew [size_512k]",
            (
                || ev8_step(Ev8Config::unconstrained_512k()),
                || gskew_step(TwoBcGskewConfig::size_512k()),
            ),
        ),
    ];
    for name in spec95::NAMES {
        let trace = spec95::cached(name, 0.01).unwrap();
        for (row, (left, right)) in &rows {
            let (mut l, mut r) = (left(), right());
            let mut conditionals = 0u64;
            for (i, rec) in trace.iter().enumerate() {
                let (pl, pr) = (l(rec), r(rec));
                assert_eq!(pl, pr, "{name}: {row}: record {i} diverged");
                conditionals += pl.is_some() as u64;
            }
            assert_eq!(conditionals, trace.conditional_count(), "{name}: {row}");
        }
    }
}

/// The fused step against its definition, over the whole suite: each
/// row's `predict_and_update` must return, record for record, what
/// `predict` followed by `update_record` predicts on a twin predictor.
#[test]
fn fused_step_equals_predict_then_update_record() {
    type Make = fn() -> Box<dyn BranchPredictor>;
    let rows: [(&str, Make); 5] = [
        ("2bcgskew [ev8_size, partial]", || {
            Box::new(TwoBcGskew::new(TwoBcGskewConfig::ev8_size()))
        }),
        ("2bcgskew [ev8_size, total]", || {
            Box::new(TwoBcGskew::new(
                TwoBcGskewConfig::ev8_size().with_update_policy(UpdatePolicy::Total),
            ))
        }),
        ("2bcgskew [size_512k, commit 0]", || {
            Box::new(TwoBcGskew::new(
                TwoBcGskewConfig::size_512k().with_commit_window(0),
            ))
        }),
        ("2bcgskew [size_512k, commit 8]", || {
            Box::new(TwoBcGskew::new(
                TwoBcGskewConfig::size_512k().with_commit_window(8),
            ))
        }),
        ("tage [ev8_budget]", || {
            Box::new(Tage::new(TageConfig::ev8_budget()))
        }),
    ];
    for name in spec95::NAMES {
        let trace = spec95::cached(name, 0.01).unwrap();
        for (row, make) in &rows {
            let (mut fused, mut split) = (make(), make());
            for (i, rec) in trace.iter().enumerate() {
                let expected = rec.kind.is_conditional().then(|| split.predict(rec.pc));
                split.update_record(rec);
                assert_eq!(
                    fused.predict_and_update(rec),
                    expected,
                    "{name}: {row}: record {i}"
                );
            }
        }
    }
}
