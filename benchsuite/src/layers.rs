//! The traced run: per-layer metrics from spans around the benchmark's
//! own calls into each crate's public functions.
//!
//! Every per-branch call is timed as a whole pass, one span per pass,
//! divided by the pass's count; no span is ever opened per call. Each
//! workload is set up once and runs one job under its own tracer, and the
//! probes below add the passes the workloads' loops hide (per-trace
//! `simulate_many`, decode-only corpus passes, the sampler's stages, an
//! in-process `SessionSim`, each predictor family's step, predict, index
//! and construct). The end-to-end numbers are never taken from a traced
//! run; its own overhead is the traced minus the untraced median job time
//! of the selected workload.

use std::collections::BTreeMap;
use std::fs;
use std::hint::black_box;

use ev8_core::Ev8Predictor;
use ev8_predictors::gshare::Gshare;
use ev8_predictors::tage::{Tage, TageConfig};
use ev8_predictors::twobcgskew::{TwoBcGskew, TwoBcGskewConfig};
use ev8_predictors::BranchPredictor;
use ev8_server::client::DEFAULT_CHUNK;
use ev8_server::Client;
use ev8_sim::{
    cluster_intervals, profile_intervals, simulate_corpus, simulate_flat, simulate_many,
    SamplingConfig, SessionSim,
};
use ev8_trace::{FlatTrace, Pc};

use crate::reference::{self, RefTable};
use crate::spans::{self_time_ns, Tracer};
use crate::stats;
use crate::suite::{
    gshare, measure, open_corpus, Bench, CorpusStream, Measured, PaperRam, Sampled, ServerSessions,
    Settings, Workload, SERVER_SPEC,
};

/// Every per-layer metric, with its unit, in report order.
pub const PER_LAYER: [(&str, &str); 43] = [
    ("workloads.generate_s", "s"),
    ("workloads.records", "count"),
    ("trace.flat_pack_s", "s"),
    ("trace.corpus_write_s", "s"),
    ("trace.corpus_bytes_per_record", "B/record"),
    ("trace.corpus_open_ms", "ms"),
    ("trace.next_block_ns_per_record", "ns/record"),
    ("trace.blocks", "count"),
    ("core.ev8.step_ns", "ns/branch"),
    ("core.ev8.predict_ns", "ns/branch"),
    ("core.ev8.index_ns", "ns/branch"),
    ("core.ev8.update_ns", "ns/branch"),
    ("core.ev8.construct_us", "us"),
    ("predictors.gskew.step_ns", "ns/branch"),
    ("predictors.gskew.predict_ns", "ns/branch"),
    ("predictors.gskew.update_ns", "ns/branch"),
    ("predictors.gskew.construct_us", "us"),
    ("predictors.tage.step_ns", "ns/branch"),
    ("predictors.tage.predict_ns", "ns/branch"),
    ("predictors.tage.index_ns", "ns/branch"),
    ("predictors.tage.update_ns", "ns/branch"),
    ("predictors.tage.construct_us", "us"),
    ("predictors.gshare.step_ns", "ns/branch"),
    ("predictors.gshare.predict_ns", "ns/branch"),
    ("predictors.gshare.update_ns", "ns/branch"),
    ("predictors.gshare.construct_us", "us"),
    ("sim.grid.serial_s", "s"),
    ("sim.grid.critical_path_s", "s"),
    ("sim.grid.parallel_efficiency", "ratio"),
    ("sim.corpus.overhead", "ratio"),
    ("sim.sampling.profile_s", "s"),
    ("sim.sampling.cluster_s", "s"),
    ("sim.sampling.rest_s", "s"),
    ("sim.sampling.reduction", "ratio"),
    ("sim.session.feed_ns_per_record", "ns/record"),
    ("server.handshake_ms", "ms"),
    ("server.session_client_ms", "ms"),
    ("server.io_share", "ratio"),
    ("server.frames_per_session", "count"),
    ("server.sessions_rejected", "count"),
    ("server.sessions_failed", "count"),
    ("tracing.overhead_s", "s"),
    ("tracing.traced_wall_s", "s"),
];

/// Constructions timed per predictor family.
const CONSTRUCTS: usize = 10;
/// Rounds of step, predict and index passes per predictor family.
const PASSES: usize = 3;

/// The traced run's results.
pub struct Traced {
    /// Per-layer metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Checked operations over every job of the run.
    pub attempted: u64,
    /// Failed checks over every job of the run.
    pub failed: u64,
    /// The selected workload's untraced measurement.
    pub untraced: Measured,
    /// Span summaries: (tracer, span name, count, total s, self s).
    pub span_summary: Vec<(&'static str, &'static str, usize, f64, f64)>,
}

/// Sums spans per name: count, total and self seconds.
fn summarize(
    label: &'static str,
    tracer: &Tracer,
    out: &mut Vec<(&'static str, &'static str, usize, f64, f64)>,
) {
    let spans = tracer.spans();
    let mut by_name: BTreeMap<&'static str, (usize, u64, u64)> = BTreeMap::new();
    for s in &spans {
        let e = by_name.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.duration_ns();
        e.2 += self_time_ns(s, &spans);
    }
    for (name, (n, total, own)) in by_name {
        out.push((label, name, n, total as f64 / 1e9, own as f64 / 1e9));
    }
}

fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len().max(1) as f64
}

/// Times one predictor family on `flat`, one span per pass: `CONSTRUCTS`
/// constructions, then [`PASSES`] rounds of a `predict_and_update` pass
/// followed by predict-only and (where the family exposes one)
/// index-only passes over the same records from the state the step pass
/// left. Each metric is its median pass over the conditional-branch
/// count. `names` are the family's `[step_ns, predict_ns, index_ns,
/// update_ns, construct_us]` metrics; each pass's span carries its
/// metric's name.
fn probe_family<P: BranchPredictor>(
    tracer: &Tracer,
    flat: &FlatTrace,
    new: impl Fn() -> P,
    predict: impl Fn(&P, Pc),
    index: Option<impl Fn(&P, Pc)>,
    names: [&'static str; 5],
    metrics: &mut BTreeMap<&'static str, f64>,
) {
    let [step, predict_ns, index_ns, update, construct] = names;
    for _ in 0..CONSTRUCTS {
        black_box(tracer.span(None, construct, |_| new()));
    }
    let mut p = new();
    for _ in 0..PASSES {
        tracer.span(None, step, |_| {
            flat.for_each(|r| {
                black_box(p.predict_and_update(r));
            })
        });
        conditional_pass(tracer, predict_ns, flat, &p, &predict);
        if let Some(index) = &index {
            conditional_pass(tracer, index_ns, flat, &p, index);
        }
    }
    let per_branch = |name| {
        stats::median(&tracer.durations_s(name)).unwrap_or(f64::NAN) * 1e9
            / flat.conditional_count() as f64
    };
    metrics.insert(step, per_branch(step));
    metrics.insert(predict_ns, per_branch(predict_ns));
    if index.is_some() {
        metrics.insert(index_ns, per_branch(index_ns));
    }
    metrics.insert(update, per_branch(step) - per_branch(predict_ns));
    metrics.insert(
        construct,
        tracer.total_s(construct) / CONSTRUCTS as f64 * 1e6,
    );
}

/// One span around `f` applied to every conditional record of `flat`.
fn conditional_pass<P>(
    tracer: &Tracer,
    name: &'static str,
    flat: &FlatTrace,
    p: &P,
    f: impl Fn(&P, Pc),
) {
    tracer.span(None, name, |_| {
        flat.for_each(|r| {
            if r.kind.is_conditional() {
                f(p, r.pc);
            }
        })
    });
}

/// `suite_paper_ram` once, per-trace `simulate_many`, and the four
/// predictor families on gcc.
fn probe_paper(
    s: &Settings,
    refs: &RefTable,
    t: &Tracer,
    m: &mut BTreeMap<&'static str, f64>,
) -> (u64, u64) {
    let mut b = t.span(None, "setup", |id| PaperRam::setup(s, t, id));
    let job = t.span(None, "job", |id| b.job(refs, t, id));
    for flat in &b.flats {
        let mut preds: Vec<Box<dyn BranchPredictor>> = b.configs.iter().map(|(_, f)| f()).collect();
        t.span(None, "sim.simulate_many", |_| {
            black_box(simulate_many(&mut preds, flat))
        });
    }
    // The EV8s of these passes are audited like the job's.
    let collision_free = b.collisions.swap(0, std::sync::atomic::Ordering::Relaxed) == 0;
    m.insert("workloads.generate_s", t.total_s("workloads.generate"));
    m.insert(
        "workloads.records",
        b.flats.iter().map(|f| f.len() as f64).sum(),
    );
    m.insert("trace.flat_pack_s", t.total_s("trace.flat_pack"));
    let serial = t.total_s("sim.simulate_many");
    m.insert("sim.grid.serial_s", serial);
    m.insert(
        "sim.grid.critical_path_s",
        t.durations_s("sim.simulate_many")
            .into_iter()
            .fold(0.0, f64::max),
    );
    m.insert(
        "sim.grid.parallel_efficiency",
        serial / (b.workers as f64 * t.total_s("sim.run_grid")),
    );

    let gcc = &b.flats[1];
    probe_family(
        t,
        gcc,
        Ev8Predictor::ev8,
        |p, pc| {
            black_box(p.predict_at(p.indices(pc)));
        },
        Some(|p: &Ev8Predictor, pc| {
            black_box(p.indices(pc));
        }),
        [
            "core.ev8.step_ns",
            "core.ev8.predict_ns",
            "core.ev8.index_ns",
            "core.ev8.update_ns",
            "core.ev8.construct_us",
        ],
        m,
    );
    probe_family(
        t,
        gcc,
        || TwoBcGskew::new(TwoBcGskewConfig::ev8_size()),
        |p, pc| {
            black_box(p.predict_detail(pc));
        },
        None::<fn(&TwoBcGskew, Pc)>,
        [
            "predictors.gskew.step_ns",
            "predictors.gskew.predict_ns",
            "",
            "predictors.gskew.update_ns",
            "predictors.gskew.construct_us",
        ],
        m,
    );
    let tables = TageConfig::ev8_budget().tables.len();
    probe_family(
        t,
        gcc,
        || Tage::new(TageConfig::ev8_budget()),
        |p, pc| {
            black_box(p.predict_detail(pc));
        },
        Some(|p: &Tage, pc| {
            for j in 0..tables {
                black_box(p.table_index(j, pc));
            }
        }),
        [
            "predictors.tage.step_ns",
            "predictors.tage.predict_ns",
            "predictors.tage.index_ns",
            "predictors.tage.update_ns",
            "predictors.tage.construct_us",
        ],
        m,
    );
    probe_family(
        t,
        gcc,
        gshare,
        |p: &Gshare, pc| {
            black_box(p.predict(pc));
        },
        None::<fn(&Gshare, Pc)>,
        [
            "predictors.gshare.step_ns",
            "predictors.gshare.predict_ns",
            "",
            "predictors.gshare.update_ns",
            "predictors.gshare.construct_us",
        ],
        m,
    );
    (job.attempted + 1, job.failed + u64::from(!collision_free))
}

/// `suite_corpus_stream` once, then serial decode-only, corpus and
/// in-RAM passes over the same files.
fn probe_corpus(
    s: &Settings,
    refs: &RefTable,
    t: &Tracer,
    m: &mut BTreeMap<&'static str, f64>,
) -> Result<(u64, u64), String> {
    let mut b = t.span(None, "setup", |id| CorpusStream::setup(s, t, id))?;
    let job = t.span(None, "job", |id| b.job(refs, t, id));
    let (mut records, mut blocks, mut bytes) = (0u64, 0u64, 0u64);
    for path in &b.files {
        bytes += fs::metadata(path).map_err(|e| e.to_string())?.len();
        let mut reader = open_corpus(path)?;
        records += reader.record_count();
        t.span(None, "trace.next_block_pass", |_| {
            while let Some(block) = reader.next_block().map_err(|e| e.to_string())? {
                blocks += 1;
                black_box(&block);
            }
            Ok::<(), String>(())
        })?;
        let reader = open_corpus(path)?;
        t.span(None, "sim.corpus_serial", |_| {
            black_box(simulate_corpus(gshare(), reader))
        })
        .map_err(|e| e.to_string())?;
        let flat =
            FlatTrace::from_trace(&open_corpus(path)?.read_trace().map_err(|e| e.to_string())?);
        t.span(None, "sim.flat_serial", |_| {
            black_box(simulate_flat(gshare(), &flat))
        });
    }
    m.insert("trace.corpus_write_s", t.total_s("trace.corpus_write"));
    m.insert(
        "trace.corpus_bytes_per_record",
        bytes as f64 / records as f64,
    );
    m.insert(
        "trace.corpus_open_ms",
        mean(&t.durations_s("trace.corpus_open")) * 1e3,
    );
    m.insert(
        "trace.next_block_ns_per_record",
        t.total_s("trace.next_block_pass") * 1e9 / records as f64,
    );
    m.insert("trace.blocks", blocks as f64);
    m.insert(
        "sim.corpus.overhead",
        t.total_s("sim.corpus_serial") / t.total_s("sim.flat_serial"),
    );
    Box::new(b).finish();
    Ok((job.attempted, job.failed))
}

/// `suite_sampled` once, plus the sampler's profile and cluster stages
/// timed apart on the same inputs.
fn probe_sampled(
    s: &Settings,
    refs: &RefTable,
    t: &Tracer,
    m: &mut BTreeMap<&'static str, f64>,
) -> (u64, u64) {
    let mut b = t.span(None, "setup", |id| Sampled::setup(s, t, id));
    let job = t.span(None, "job", |id| b.job(refs, t, id));
    for (i, _) in b.cells() {
        let flat = &b.flats[i];
        let config = SamplingConfig::auto(flat.len());
        let intervals = t.span(None, "sim.profile_intervals", |_| {
            profile_intervals(flat, &config)
        });
        t.span(None, "sim.cluster_intervals", |_| {
            black_box(cluster_intervals(&intervals, &config))
        });
    }
    let (profile, cluster) = (
        t.total_s("sim.profile_intervals"),
        t.total_s("sim.cluster_intervals"),
    );
    m.insert("sim.sampling.profile_s", profile);
    m.insert("sim.sampling.cluster_s", cluster);
    m.insert(
        "sim.sampling.rest_s",
        t.total_s("sim.simulate_sampled") - profile - cluster,
    );
    m.insert("sim.sampling.reduction", job.reduction);
    (job.attempted, job.failed)
}

/// `server_sessions` once, an in-process `SessionSim` pass over the same
/// records, and the server's own failure counters.
fn probe_server(
    s: &Settings,
    refs: &RefTable,
    t: &Tracer,
    m: &mut BTreeMap<&'static str, f64>,
) -> Result<(u64, u64), String> {
    let mut b = t.span(None, "setup", |id| ServerSessions::setup(s, t, id))?;
    let job = t.span(None, "job", |id| b.job(refs, t, id));
    let mut records = 0u64;
    let mut frames = 0.0;
    for trace in &b.traces {
        let mut sim = SessionSim::new(SERVER_SPEC.build(), false);
        sim.begin(trace.name(), trace.instruction_count());
        t.span(None, "sim.session.feed", |_| {
            for r in trace.records() {
                sim.feed(r);
            }
        });
        black_box(sim.finish());
        records += trace.len() as u64;
        // HELLO, BEGIN, the RECORDS frames, END and BYE.
        frames += (4 + trace.len().div_ceil(DEFAULT_CHUNK)) as f64;
    }
    let mut client =
        Client::connect_unix(&b.sock, SERVER_SPEC, false).map_err(|e| e.to_string())?;
    let stats = client.server_stats().map_err(|e| e.to_string())?;
    client.bye().map_err(|e| e.to_string())?;
    let feed = t.total_s("sim.session.feed");
    m.insert(
        "sim.session.feed_ns_per_record",
        feed * 1e9 / records as f64,
    );
    m.insert(
        "server.handshake_ms",
        mean(&t.durations_s("server.handshake")) * 1e3,
    );
    m.insert(
        "server.session_client_ms",
        mean(&t.durations_s("server.run_trace")) * 1e3,
    );
    m.insert(
        "server.io_share",
        1.0 - feed / t.total_s("server.run_trace"),
    );
    m.insert("server.frames_per_session", frames / b.traces.len() as f64);
    m.insert("server.sessions_rejected", stats.sessions_rejected as f64);
    m.insert("server.sessions_failed", stats.sessions_failed as f64);
    b.stop();
    Ok((job.attempted, job.failed))
}

/// Runs `w` untraced and traced for half of `seconds` each (for the
/// tracing overhead), then every layer probe once.
///
/// # Errors
///
/// A message when a measurement or probe fails to run.
pub fn traced_run(w: Workload, s: &Settings, seconds: f64) -> Result<Traced, String> {
    let untraced = measure(w, s, seconds / 2.0, &Tracer::off())?;
    let traced_tracer = Tracer::on();
    let traced = measure(w, s, seconds / 2.0, &traced_tracer)?;
    let needs: Vec<_> = Workload::ALL.iter().flat_map(|k| k.needs(s)).collect();
    let (refs, _) = reference::load(s.seed, &s.work_dir, &needs, s.workers)?;

    let mut metrics = BTreeMap::new();
    let mut span_summary = Vec::new();
    let mut attempted = untraced.attempted() + traced.attempted();
    let mut failed = untraced.failed() + traced.failed();
    let tracers = [Tracer::on(), Tracer::on(), Tracer::on(), Tracer::on()];
    let counts = [
        probe_paper(s, &refs, &tracers[0], &mut metrics),
        probe_corpus(s, &refs, &tracers[1], &mut metrics)?,
        probe_sampled(s, &refs, &tracers[2], &mut metrics),
        probe_server(s, &refs, &tracers[3], &mut metrics)?,
    ];
    for (a, f) in counts {
        attempted += a;
        failed += f;
    }
    for (k, tracer) in Workload::ALL.iter().zip(&tracers) {
        summarize(k.name(), tracer, &mut span_summary);
    }
    summarize("traced_run", &traced_tracer, &mut span_summary);
    metrics.insert("tracing.overhead_s", traced.wall_s() - untraced.wall_s());
    metrics.insert("tracing.traced_wall_s", traced.wall_s());
    Ok(Traced {
        metrics,
        attempted,
        failed,
        untraced,
        span_summary,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    #[test]
    fn traced_run_reports_every_per_layer_metric() {
        let s = Settings {
            seed: 0,
            suite_scale: 0.0005,
            server_scale: 0.0002,
            workers: 2,
            work_dir: PathBuf::from(".bench_work/test-traced"),
        };
        let t = traced_run(Workload::CorpusStream, &s, 0.0).unwrap();
        assert_eq!(t.failed, 0);
        for (name, _) in PER_LAYER {
            let v = t
                .metrics
                .get(name)
                .unwrap_or_else(|| panic!("{name} missing"));
            assert!(v.is_finite(), "{name} = {v}");
        }
        assert_eq!(t.metrics.len(), PER_LAYER.len());
        assert!(t
            .span_summary
            .iter()
            .any(|(_, n, ..)| *n == "sim.simulate_corpus"));
    }

    #[test]
    fn per_layer_names_match_benchmark_json() {
        let json = include_str!("../../BENCHMARK.json");
        let start = json.find("\"per_layer\"").expect("per_layer key");
        let section = &json[start..];
        for (name, unit) in PER_LAYER {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(section.contains(&entry), "{entry} not in BENCHMARK.json");
        }
        assert_eq!(section.matches("\"name\"").count(), PER_LAYER.len());
    }
}
