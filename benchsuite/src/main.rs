//! `ev8-benchsuite --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints the run manifest and every metric by name and unit, then, as
//! the last line, one JSON object with `correct`, `attempted`, `failed`
//! and `metrics` (the end-to-end metrics untraced, the per-layer metrics
//! traced). `--write-references` recomputes the stored default-seed
//! references instead.

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use ev8_benchsuite::layers::{traced_run, PER_LAYER};
use ev8_benchsuite::manifest::{json_str, manifest};
use ev8_benchsuite::reference::{self, Key, RefTable};
use ev8_benchsuite::spans::Tracer;
use ev8_benchsuite::stats;
use ev8_benchsuite::suite::{
    measure, sampled_id, Measured, Sampled, Settings, Workload, END_TO_END,
};

/// Where runs keep their corpus files, reference cache and socket,
/// relative to the directory the benchmark runs from.
const WORK_DIR: &str = ".bench_work";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 0, 10.0, false);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(&v).ok_or(format!("unknown workload {v}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    Ok(Args {
        workload: workload.ok_or(format!(
            "--workload is required: one of {}",
            names.join(", ")
        ))?,
        seed,
        seconds,
        trace,
    })
}

/// The final result line.
fn result_line(
    attempted: u64,
    failed: u64,
    metrics: &[(&str, f64, &str)],
) -> Result<String, String> {
    let mut body = Vec::with_capacity(metrics.len());
    for (name, value, unit) in metrics {
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite: {value}"));
        }
        body.push(format!(
            "{}: {{\"value\": {value}, \"unit\": {}}}",
            json_str(name),
            json_str(unit)
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0 && attempted > 0,
        body.join(", ")
    ))
}

/// Prints the human-readable metric lines of an untraced measurement.
fn print_end_to_end(m: &Measured) {
    let w = m.workload.name();
    for ((name, unit), value) in END_TO_END.iter().zip(m.end_to_end()) {
        println!("metric {w} {name} {value} {unit}");
    }
    println!(
        "metric {w} error_rate {} ratio ({} failed of {} attempted)",
        m.failed() as f64 / m.attempted().max(1) as f64,
        m.failed(),
        m.attempted()
    );
    if m.workload == Workload::Sampled {
        let err = m.jobs.iter().map(|j| j.max_rel_err).fold(0.0, f64::max);
        let reduction = m.jobs.first().map_or(0.0, |j| j.reduction);
        println!("metric {w} sampled_max_rel_err {err} ratio (record reduction {reduction:.2}x)");
    }
    if m.workload == Workload::ServerSessions {
        let ms = m.session_ms();
        let p50 = stats::median(&ms).unwrap_or(f64::NAN);
        println!("metric {w} session_p50_ms {p50} ms ({} sessions)", ms.len());
        match stats::tail(&ms) {
            Some(t) => println!(
                "metric {w} session_tail_ms {} ms (p{} of {} sessions, >= {} beyond)",
                t.value,
                t.percentile,
                t.samples,
                stats::MIN_BEYOND
            ),
            None => println!(
                "metric {w} session_tail_ms n/a ms ({} sessions: too few)",
                ms.len()
            ),
        }
    }
}

/// The reference cells a run needs: its workload's, or every workload's
/// for the traced run.
fn needs(args: &Args, s: &Settings) -> Vec<reference::Need> {
    let workloads = if args.trace {
        &Workload::ALL[..]
    } else {
        std::slice::from_ref(&args.workload)
    };
    workloads.iter().flat_map(|w| w.needs(s)).collect()
}

/// Completes the reference cache in a child process and waits for it,
/// so the measured process never holds the memory of the serial
/// reference runs: computed in-process, they raised `peak_rss_mib` on
/// `suite_sampled` from 33 to 47 MiB.
fn prepare_references(argv: &[String]) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let status = Command::new(exe)
        .arg(PREPARE)
        .args(argv)
        .status()
        .map_err(|e| format!("reference child: {e}"))?;
    if status.success() {
        Ok(())
    } else {
        Err(format!("reference child failed: {status}"))
    }
}

fn run(args: &Args) -> Result<String, String> {
    let s = Settings::new(args.seed, PathBuf::from(WORK_DIR));
    if !args.trace {
        let m = measure(args.workload, &s, args.seconds, &Tracer::off())?;
        println!(
            "manifest {}",
            manifest(args.workload, &s, args.seconds, false, &m)
        );
        print_end_to_end(&m);
        let metrics: Vec<(&str, f64, &str)> = END_TO_END
            .iter()
            .zip(m.end_to_end())
            .map(|((n, u), v)| (*n, v, *u))
            .collect();
        return result_line(m.attempted(), m.failed(), &metrics);
    }
    let t = traced_run(args.workload, &s, args.seconds)?;
    println!(
        "manifest {}",
        manifest(args.workload, &s, args.seconds, true, &t.untraced)
    );
    for (tracer, name, n, total, own) in &t.span_summary {
        println!("span {tracer} {name} count={n} total_s={total:.6} self_s={own:.6}");
    }
    let mut metrics = Vec::with_capacity(PER_LAYER.len());
    for (name, unit) in PER_LAYER {
        let value = *t
            .metrics
            .get(name)
            .ok_or(format!("per-layer metric {name} missing"))?;
        println!("layer {name} {value} {unit}");
        metrics.push((name, value, unit));
    }
    println!(
        "metric {} tracing_overhead_s {} s (traced {} s vs untraced {} s median job)",
        args.workload.name(),
        t.metrics["tracing.overhead_s"],
        t.metrics["tracing.traced_wall_s"],
        t.untraced.wall_s()
    );
    result_line(t.attempted, t.failed, &metrics)
}

/// Recomputes the default seed's stored references: every workload's
/// cells with the serial path, plus the sampled estimates it pins.
fn write_references() -> Result<String, String> {
    let s = Settings::new(0, PathBuf::from(WORK_DIR));
    let needs: Vec<_> = Workload::ALL.iter().flat_map(|w| w.needs(&s)).collect();
    let mut table = RefTable::default();
    table.ensure(&needs, s.workers);
    let sampled = Sampled::setup(&s, &Tracer::off(), None);
    let inputs = &sampled.inputs;
    let runs = sampled.runs(&Tracer::off(), None);
    for ((i, pred), run) in sampled.cells().into_iter().zip(runs) {
        table.insert(
            Key::new(inputs.scale, &inputs.specs[i].name, &sampled_id(pred)),
            reference::Cell {
                fingerprint: inputs.fingerprints[i],
                conditional: run.estimate.conditional_branches,
                mispredictions: run.estimate.mispredictions,
            },
        );
    }
    let path = reference::stored_default_path();
    std::fs::write(&path, table.render()).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(format!("wrote {} cells to {}", table.len(), path.display()))
}

/// The flag the reference child runs under.
const PREPARE: &str = "--prepare-references";

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = if argv.iter().any(|a| a == "--write-references") {
        write_references().map(Some)
    } else if argv.first().is_some_and(|a| a == PREPARE) {
        parse_args(argv.into_iter().skip(1)).and_then(|args| {
            let s = Settings::new(args.seed, PathBuf::from(WORK_DIR));
            reference::load(s.seed, &s.work_dir, &needs(&args, &s), s.workers).map(|_| None)
        })
    } else {
        parse_args(argv.iter().cloned())
            .and_then(|args| prepare_references(&argv).and_then(|()| run(&args)))
            .map(Some)
    };
    match outcome {
        Ok(line) => {
            if let Some(line) = line {
                println!("{line}");
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("ev8-benchsuite: {e}");
            ExitCode::FAILURE
        }
    }
}
