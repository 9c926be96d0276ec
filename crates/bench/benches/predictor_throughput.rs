//! Prediction throughput of every implemented scheme on a fixed
//! workload chunk: how many branches per second each predictor sustains
//! in trace-driven simulation.

use ev8_util::bench::Harness;

use ev8_core::Ev8Predictor;
use ev8_predictors::agree::Agree;
use ev8_predictors::bimodal::Bimodal;
use ev8_predictors::bimode::Bimode;
use ev8_predictors::egskew::EGskew;
use ev8_predictors::gselect::Gselect;
use ev8_predictors::gshare::Gshare;
use ev8_predictors::local::LocalPredictor;
use ev8_predictors::perceptron::Perceptron;
use ev8_predictors::tage::{Tage, TageConfig};
use ev8_predictors::tournament::Tournament;
use ev8_predictors::twobcgskew::{TwoBcGskew, TwoBcGskewConfig};
use ev8_predictors::yags::Yags;
use ev8_predictors::BranchPredictor;
use std::sync::Arc;

use ev8_sim::simulator::simulate;
use ev8_trace::Trace;
use ev8_workloads::spec95;

fn bench_trace() -> Arc<Trace> {
    spec95::cached("perl", 0.002).expect("known benchmark")
}

type Make = Box<dyn Fn() -> Box<dyn BranchPredictor>>;

fn predictors() -> Vec<(&'static str, Make)> {
    vec![
        ("bimodal", Box::new(|| Box::new(Bimodal::new(14)))),
        ("gshare", Box::new(|| Box::new(Gshare::new(16, 16)))),
        ("gselect", Box::new(|| Box::new(Gselect::new(16, 8)))),
        ("local", Box::new(|| Box::new(LocalPredictor::new(10, 10)))),
        (
            "tournament",
            Box::new(|| Box::new(Tournament::alpha_21264())),
        ),
        ("egskew", Box::new(|| Box::new(EGskew::new(14, 14)))),
        (
            "2bcgskew-512k",
            Box::new(|| Box::new(TwoBcGskew::new(TwoBcGskewConfig::size_512k()))),
        ),
        // The paper's predictors at the EV8's 352 Kbit budget.
        ("ev8", Box::new(|| Box::new(Ev8Predictor::ev8()))),
        (
            "2bcgskew-352k",
            Box::new(|| Box::new(TwoBcGskew::new(TwoBcGskewConfig::ev8_size()))),
        ),
        (
            "tage-352k",
            Box::new(|| Box::new(Tage::new(TageConfig::ev8_budget()))),
        ),
        ("bimode", Box::new(|| Box::new(Bimode::paper_544k()))),
        ("yags-288k", Box::new(|| Box::new(Yags::paper_288k()))),
        ("agree", Box::new(|| Box::new(Agree::new(14, 16, 14)))),
        ("perceptron", Box::new(|| Box::new(Perceptron::new(10, 24)))),
    ]
}

fn main() {
    let mut h = Harness::from_env();
    let trace = bench_trace();
    let branches = trace.conditional_count();
    let mut group = h.group("predictor_throughput");
    group.throughput(branches);
    group.sample_size(10);
    for (name, make) in predictors() {
        group.bench(name, |b| b.iter(|| simulate(make(), &trace)));
    }
    group.finish();
}
