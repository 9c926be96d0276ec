//! The windowed single-trace bench, recorded into the shared
//! `BENCH_sim.json` as **`windowed/<bench>`**: one trace, one predictor,
//! split into warmup-prefixed windows over `run_parallel_with` and
//! spliced (`simulate_windowed`). The entry records realized
//! branches/sec — the single-trace throughput acceptance number —
//! *next to* the signed misprediction delta vs the serial run and the
//! exact geometry, so the speed/accuracy trade is auditable from the
//! JSON alone. A full-warmup splice is asserted bit-identical to serial
//! before timing; the recorded run uses a bounded warmup.
//!
//! Sampling follows the `sweep_batched` scheme (see its module doc for
//! the host-noise rationale): every sample interleaves one run of both
//! series and the ratio is the median of per-sample ratios.
//! `EV8_BENCH_SAMPLES` and `EV8_SWEEP_SCALE` override the sample count
//! and trace scale (CI smoke sets 1 and 0.02).

use std::time::{Duration, Instant};

use ev8_util::bench::black_box;
use ev8_util::json::JsonObject;

use ev8_predictors::gshare::Gshare;
use ev8_sim::sweep::{default_workers, RunPolicy};
use ev8_sim::{simulate_flat, simulate_windowed, WindowPlan};
use ev8_workloads::spec95;

const DEFAULT_SWEEP_SCALE: f64 = 0.2;
const DEFAULT_SAMPLES: usize = 7;

const INDEX_BITS: u32 = 16;

/// Windowed-run geometry: ~half-million-record windows with a 64K-record
/// warmup (~12% redundant work per window). Chosen so the suite traces
/// split into several windows at the default scale while the warmup
/// stays long enough to rebuild a 64K-entry table's hot set.
const WINDOW_LEN: usize = 1 << 19;
const WARMUP_LEN: usize = 1 << 16;

const BENCHMARKS: [&str; 8] = [
    "go", "ijpeg", "gcc", "m88ksim", "compress", "li", "perl", "vortex",
];

fn sweep_scale() -> f64 {
    std::env::var("EV8_SWEEP_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(DEFAULT_SWEEP_SCALE)
}

fn time<R>(mut f: impl FnMut() -> R) -> Duration {
    let start = Instant::now();
    black_box(f());
    start.elapsed()
}

fn median_of(mut values: Vec<f64>) -> f64 {
    values.sort_by(|a, b| a.total_cmp(b));
    values[values.len() / 2]
}

const SERIES: usize = 2;
const SERIAL_SINGLE: usize = 0;
const WINDOWED_SINGLE: usize = 1;

fn median_ns(samples: &[[Duration; SERIES]], series: usize) -> u64 {
    median_of(
        samples
            .iter()
            .map(|s| s[series].as_nanos() as f64)
            .collect(),
    ) as u64
}

fn paired_ratio(samples: &[[Duration; SERIES]], num: usize, den: usize) -> f64 {
    median_of(
        samples
            .iter()
            .map(|s| s[num].as_secs_f64() / s[den].as_secs_f64())
            .collect(),
    )
}

fn main() {
    let samples_per_series: usize = std::env::var("EV8_BENCH_SAMPLES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(DEFAULT_SAMPLES);
    let filter = std::env::args().nth(1).filter(|a| !a.starts_with('-'));
    let scale = sweep_scale();
    let workers = default_workers();
    let policy = RunPolicy::default();
    let single = || Gshare::new(INDEX_BITS, 14);
    let mut entries: Vec<(String, String)> = Vec::new();

    for name in BENCHMARKS {
        if let Some(f) = &filter {
            if !format!("windowed_{name}").contains(f.as_str()) {
                continue;
            }
        }
        let flat = spec95::cached_flat(name, scale).expect("known benchmark");
        let plan = WindowPlan::new(WINDOW_LEN, WARMUP_LEN.min(flat.len().saturating_sub(1)));

        // Equivalence before timing (also warms both paths): the
        // windowed splice must be bit-identical to serial when warmup
        // covers the whole prefix.
        let serial_misp: u64;
        {
            let serial_single = simulate_flat(single(), &flat);
            serial_misp = serial_single.mispredictions;
            let exact = WindowPlan::new(WINDOW_LEN, flat.len());
            let spliced = simulate_windowed(single, &flat, exact, workers, &policy);
            assert_eq!(
                spliced.result, serial_single,
                "{name}: full-warmup windowed splice diverged from serial"
            );
        }

        let mut samples: Vec<[Duration; SERIES]> = Vec::with_capacity(samples_per_series);
        let mut windowed_misp = 0u64;
        for _ in 0..samples_per_series {
            let mut wm = 0u64;
            samples.push([
                time(|| simulate_flat(single(), &flat)),
                time(|| {
                    let run = simulate_windowed(single, &flat, plan, workers, &policy);
                    wm = run.result.mispredictions;
                    run
                }),
            ]);
            windowed_misp = wm;
        }

        let branches = flat.conditional_count() as f64;
        let windowed_ns = median_ns(&samples, WINDOWED_SINGLE);
        let windowed_branches_per_sec =
            branches / Duration::from_nanos(windowed_ns.max(1)).as_secs_f64();
        let misp_delta = windowed_misp as i64 - serial_misp as i64;
        println!(
            "windowed_{name}: {:.1}M branches/sec ({} windows of {} + {} warmup, {workers} workers)  \
             misp delta {misp_delta:+} of {serial_misp} ({:.4}%)",
            windowed_branches_per_sec / 1e6,
            plan.windows(flat.len()),
            plan.window_len,
            plan.warmup_len,
            100.0 * misp_delta as f64 / serial_misp.max(1) as f64,
        );

        let mut windowed = JsonObject::new();
        windowed
            .field("benchmark", &name)
            .field("scale", &scale)
            .field("conditional_branches", &flat.conditional_count())
            .field("records", &(flat.len() as u64))
            .field("samples", &(samples.len() as u64))
            .field("window_len", &(plan.window_len as u64))
            .field("warmup_len", &(plan.warmup_len as u64))
            .field("windows", &(plan.windows(flat.len()) as u64))
            .field("workers", &(workers as u64))
            .field("serial_single_ns", &median_ns(&samples, SERIAL_SINGLE))
            .field("windowed_single_ns", &windowed_ns)
            .field(
                "windowed_speedup",
                &paired_ratio(&samples, SERIAL_SINGLE, WINDOWED_SINGLE),
            )
            .field("windowed_branches_per_sec", &windowed_branches_per_sec)
            .field("serial_mispredictions", &serial_misp)
            .field("windowed_mispredictions", &windowed_misp)
            .field("misp_delta", &(misp_delta as f64))
            .field(
                "misp_delta_pct",
                &(100.0 * misp_delta as f64 / serial_misp.max(1) as f64),
            );
        entries.push((format!("windowed/{name}"), windowed.finish()));
    }

    match ev8_bench::merge_bench_json(&entries) {
        Ok(path) => println!("merged {} windowed entries into {path}", entries.len()),
        Err(e) => eprintln!("could not write bench json: {e}"),
    }
}
