//! The EV8 reproduction's benchmark: four workloads over the paper's
//! predictors, the on-disk corpus, the phase sampler and the server,
//! with end-to-end metrics checked against exact references, and a
//! traced run that times each layer. See `BENCHMARK.md` beside this
//! crate for the metrics, their units and what each should move.

#![forbid(unsafe_code)]

pub mod layers;
pub mod manifest;
pub mod reference;
pub mod spans;
pub mod stats;
pub mod suite;
