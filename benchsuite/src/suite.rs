//! The four workloads: their set-up, their timed job and the exact check
//! of every cell a job produces.
//!
//! Each workload drives a different copy of the predict-and-score loop:
//! `run_grid`/`simulate_many` over packed traces in RAM, `simulate_corpus`
//! over an on-disk corpus, `simulate_sampled`, and `SessionSim` behind
//! the server. Traces come from `ProgramSpec::generate_scaled` and
//! `FlatTrace::from_trace` on specs whose seeds are mixed with the run's
//! seed; no call consults the `EV8_CORPUS_DIR` disk tier.

use std::fs::{self, File};
use std::io::{BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use ev8_core::Ev8Predictor;
use ev8_predictors::gshare::Gshare;
use ev8_predictors::tage::{Tage, TageConfig};
use ev8_predictors::twobcgskew::{TwoBcGskew, TwoBcGskewConfig};
use ev8_predictors::BranchPredictor;
use ev8_server::client::DEFAULT_CHUNK;
use ev8_server::{Client, PredictorSpec, Server, ServerConfig, ServerError, ServerHandle};
use ev8_sim::experiments::{factory, run_grid, Factory};
use ev8_sim::{
    simulate, simulate_corpus, simulate_sampled, SampledRun, SampledVsFull, SamplingConfig,
    SimResult,
};
use ev8_trace::corpus::{write_corpus, CorpusReader};
use ev8_trace::{BranchRecord, FlatTrace, Outcome, Pc, Trace};
use ev8_workloads::program::ProgramSpec;
use ev8_workloads::spec95;

use crate::reference::{self, Key, Need, RefTable};
use crate::spans::Tracer;
use crate::stats;

/// Trace scale of the three suite workloads (fraction of the paper's
/// 100M-instruction traces): ~1M conditional branches over the suite.
pub const SUITE_SCALE: f64 = 0.02;
/// Trace scale of the server sessions: ~60K records a session, enough
/// sessions a run for a p99 with ten samples beyond it.
pub const SERVER_SCALE: f64 = 0.005;
/// gshare geometry of the corpus and server workloads: 2^17 2-bit
/// counters (256 Kbit), 17 history bits.
pub const GSHARE_BITS: u32 = 17;
/// See [`GSHARE_BITS`].
pub const GSHARE_HISTORY: u32 = 17;
/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 7;
/// Jobs per run at least, however short `--seconds` is.
pub const MIN_JOBS: usize = 3;

/// The end-to-end metrics every workload reports, with their units.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("branches_per_s", "1/s"),
    ("peak_rss_mib", "MiB"),
];

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The Table 2 suite in RAM through `run_grid` for the EV8,
    /// 2Bc-gskew and TAGE.
    PaperRam,
    /// The suite streamed from an on-disk corpus through gshare.
    CorpusStream,
    /// `simulate_sampled` over the suite for the EV8 and TAGE.
    Sampled,
    /// Closed-loop client sessions against an in-process server.
    ServerSessions,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::PaperRam,
        Workload::CorpusStream,
        Workload::Sampled,
        Workload::ServerSessions,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperRam => "suite_paper_ram",
            Workload::CorpusStream => "suite_corpus_stream",
            Workload::Sampled => "suite_sampled",
            Workload::ServerSessions => "server_sessions",
        }
    }

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The predictors whose exact counts the workload checks.
    pub fn preds(self) -> &'static [Pred] {
        match self {
            Workload::PaperRam => &[Pred::Ev8, Pred::Gskew, Pred::Tage],
            Workload::Sampled => &[Pred::Ev8, Pred::Tage],
            Workload::CorpusStream | Workload::ServerSessions => &[Pred::Gshare],
        }
    }

    /// The trace scale the workload runs at.
    pub fn scale(self, s: &Settings) -> f64 {
        match self {
            Workload::ServerSessions => s.server_scale,
            _ => s.suite_scale,
        }
    }

    /// The reference cells the workload's checks need.
    pub fn needs(self, s: &Settings) -> Vec<Need> {
        let scale = self.scale(s);
        suite_specs(s.seed)
            .into_iter()
            .flat_map(|spec| {
                self.preds().iter().map(move |&pred| Need {
                    spec: spec.clone(),
                    scale,
                    pred,
                })
            })
            .collect()
    }
}

/// The predictors the workloads run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Pred {
    /// `Ev8Predictor::ev8()`.
    Ev8,
    /// `TwoBcGskew::new(TwoBcGskewConfig::ev8_size())`, 352 Kbit.
    Gskew,
    /// `Tage::new(TageConfig::ev8_budget())`, 352 Kbit.
    Tage,
    /// `Gshare::new(17, 17)`, 256 Kbit.
    Gshare,
}

impl Pred {
    /// The id used in reference files.
    pub fn id(self) -> &'static str {
        match self {
            Pred::Ev8 => "ev8",
            Pred::Gskew => "gskew",
            Pred::Tage => "tage",
            Pred::Gshare => "gshare",
        }
    }

    /// The serial reference run: `ev8_sim::simulate` over the AoS trace.
    pub fn simulate_serial(self, trace: &Trace) -> SimResult {
        match self {
            Pred::Ev8 => simulate(Ev8Predictor::ev8(), trace),
            Pred::Gskew => simulate(TwoBcGskew::new(TwoBcGskewConfig::ev8_size()), trace),
            Pred::Tage => simulate(Tage::new(TageConfig::ev8_budget()), trace),
            Pred::Gshare => simulate(gshare(), trace),
        }
    }

    /// A factory for the workloads' simulation loops. EV8 instances add their
    /// bank-collision count to `collisions` when dropped.
    pub fn factory(self, collisions: &Arc<AtomicU64>) -> Factory {
        match self {
            Pred::Ev8 => {
                let collisions = Arc::clone(collisions);
                factory(move || AuditedEv8 {
                    inner: Ev8Predictor::ev8(),
                    collisions: Arc::clone(&collisions),
                })
            }
            Pred::Gskew => factory(|| TwoBcGskew::new(TwoBcGskewConfig::ev8_size())),
            Pred::Tage => factory(|| Tage::new(TageConfig::ev8_budget())),
            Pred::Gshare => factory(gshare),
        }
    }
}

/// The gshare the corpus and server workloads run.
pub fn gshare() -> Gshare {
    Gshare::new(GSHARE_BITS, GSHARE_HISTORY)
}

/// The server-side spec of [`gshare`].
pub const SERVER_SPEC: PredictorSpec = PredictorSpec::Gshare {
    index_bits: GSHARE_BITS,
    history: GSHARE_HISTORY,
};

/// The EV8 predictor, reporting its §6 bank-collision count when
/// dropped so the loops that own their predictors can be audited.
struct AuditedEv8 {
    inner: Ev8Predictor,
    collisions: Arc<AtomicU64>,
}

impl BranchPredictor for AuditedEv8 {
    fn predict(&self, pc: Pc) -> Outcome {
        self.inner.predict(pc)
    }
    fn update(&mut self, pc: Pc, outcome: Outcome) {
        self.inner.update(pc, outcome)
    }
    fn note_noncond(&mut self, record: &BranchRecord) {
        self.inner.note_noncond(record)
    }
    fn update_record(&mut self, record: &BranchRecord) {
        self.inner.update_record(record)
    }
    #[inline]
    fn predict_and_update(&mut self, record: &BranchRecord) -> Option<Outcome> {
        self.inner.predict_and_update(record)
    }
    fn name(&self) -> String {
        self.inner.name()
    }
    fn storage_bits(&self) -> u64 {
        self.inner.storage_bits()
    }
}

impl Drop for AuditedEv8 {
    fn drop(&mut self) {
        self.collisions
            .fetch_add(self.inner.bank_collisions(), Ordering::Relaxed);
    }
}

/// What a run is configured with.
#[derive(Clone, Debug)]
pub struct Settings {
    /// Mixed into every spec's seed; 0 keeps the calibrated seeds.
    pub seed: u64,
    /// Scale of the suite workloads.
    pub suite_scale: f64,
    /// Scale of the server sessions.
    pub server_scale: f64,
    /// Worker threads (`default_workers()`, at most `nproc`).
    pub workers: usize,
    /// Directory for the corpus, the reference cache and the socket.
    pub work_dir: PathBuf,
}

impl Settings {
    /// The benchmark's settings for `seed`.
    pub fn new(seed: u64, work_dir: PathBuf) -> Settings {
        Settings {
            seed,
            suite_scale: SUITE_SCALE,
            server_scale: SERVER_SCALE,
            workers: ev8_sim::sweep::default_workers(),
            work_dir,
        }
    }
}

/// Mixes the run seed into a spec seed; seed 0 is the identity.
pub fn mix_seed(spec_seed: u64, seed: u64) -> u64 {
    spec_seed ^ seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// The eight Table 2 specs with `seed` mixed into each.
pub fn suite_specs(seed: u64) -> Vec<ProgramSpec> {
    spec95::suite()
        .into_iter()
        .map(|mut spec| {
            spec.seed = mix_seed(spec.seed, seed);
            spec
        })
        .collect()
}

/// The fingerprint of `spec` scaled as `generate_scaled(scale)` scales it.
pub fn scaled_fingerprint(spec: &ProgramSpec, scale: f64) -> u64 {
    let mut scaled = spec.clone();
    scaled.instructions = ((spec.instructions as f64) * scale).max(1.0) as u64;
    scaled.fingerprint()
}

/// Maps `f` over `items` on up to `workers` scoped threads, keeping
/// input order. (`ev8_sim::sweep::run_parallel` takes `'static` jobs;
/// these closures borrow the tracer, the references and the traces.)
pub fn par_map<T: Sync, R: Send>(
    items: &[T],
    workers: usize,
    f: impl Fn(&T) -> R + Sync,
) -> Vec<R> {
    let next = AtomicUsize::new(0);
    let out: Mutex<Vec<Option<R>>> = Mutex::new((0..items.len()).map(|_| None).collect());
    thread::scope(|s| {
        for _ in 0..workers.clamp(1, items.len().max(1)) {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else { break };
                let r = f(item);
                out.lock().expect("result slots poisoned")[i] = Some(r);
            });
        }
    });
    out.into_inner()
        .expect("result slots poisoned")
        .into_iter()
        .map(|r| r.expect("every item mapped"))
        .collect()
}

/// One timed job's outcome.
#[derive(Clone, Debug, Default)]
pub struct JobResult {
    /// Host seconds of the timed calls.
    pub wall_s: f64,
    /// Conditional branches simulated (summed over predictors).
    pub branches: u64,
    /// Checked operations: cells, sessions, collision audits.
    pub attempted: u64,
    /// Checked operations that failed.
    pub failed: u64,
    /// Per-session client latencies (server workload only), ms.
    pub session_ms: Vec<f64>,
    /// Largest sampled-vs-full relative misp/KI error (sampled only).
    pub max_rel_err: f64,
    /// Records in the full traces over records simulated (sampled only).
    pub reduction: f64,
}

impl JobResult {
    fn timed(start: Instant) -> JobResult {
        JobResult {
            wall_s: start.elapsed().as_secs_f64(),
            ..JobResult::default()
        }
    }

    /// Counts one checked operation.
    fn tally(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Checks one simulated cell against its reference.
    fn check_cell(&mut self, refs: &RefTable, key: &Key, fingerprint: u64, r: &SimResult) {
        self.branches += r.conditional_branches;
        self.tally(refs.matches(key, fingerprint, r.conditional_branches, r.mispredictions));
    }

    /// Audits the EV8 bank-collision counter (§6: must stay 0).
    fn check_collisions(&mut self, collisions: &AtomicU64) {
        self.tally(collisions.swap(0, Ordering::Relaxed) == 0);
    }
}

/// A workload after set-up.
pub trait Bench {
    /// Runs one timed job, then checks its outputs.
    fn job(&mut self, refs: &RefTable, tracer: &Tracer, parent: Option<u64>) -> JobResult;
    /// Releases the workload's resources (server, corpus files).
    fn finish(self: Box<Self>) {}
}

/// The suite's specs at one scale with their scaled fingerprints.
#[derive(Clone, Debug)]
pub struct Inputs {
    /// Seed-mixed specs in Table 2 order.
    pub specs: Vec<ProgramSpec>,
    /// `scaled_fingerprint(spec, scale)` per spec.
    pub fingerprints: Vec<u64>,
    /// Trace scale.
    pub scale: f64,
}

impl Inputs {
    /// The inputs of `w` under `s`.
    pub fn new(w: Workload, s: &Settings) -> Inputs {
        let scale = w.scale(s);
        let specs = suite_specs(s.seed);
        let fingerprints = specs
            .iter()
            .map(|sp| scaled_fingerprint(sp, scale))
            .collect();
        Inputs {
            specs,
            fingerprints,
            scale,
        }
    }

    fn key(&self, i: usize, pred: &str) -> Key {
        Key::new(self.scale, &self.specs[i].name, pred)
    }

    /// Generates the trace of spec `i`.
    ///
    /// Set-up generates on one thread: with two, which traces overlap in
    /// memory depends on scheduling, and the RSS high-water mark moved
    /// by 7% between runs (40.2–43.0 MiB on `suite_sampled`, against
    /// 33.2–33.3 MiB on one thread).
    fn generate(&self, i: usize, tracer: &Tracer, parent: Option<u64>) -> Trace {
        tracer.span(parent, "workloads.generate", |_| {
            self.specs[i].generate_scaled(self.scale)
        })
    }

    /// Generates every trace.
    pub fn generate_all(&self, tracer: &Tracer, parent: Option<u64>) -> Vec<Trace> {
        (0..self.specs.len())
            .map(|i| self.generate(i, tracer, parent))
            .collect()
    }

    /// Generates and packs every trace, dropping each AoS trace once
    /// packed.
    pub fn generate_flat(&self, tracer: &Tracer, parent: Option<u64>) -> Vec<Arc<FlatTrace>> {
        (0..self.specs.len())
            .map(|i| {
                let trace = self.generate(i, tracer, parent);
                Arc::new(tracer.span(parent, "trace.flat_pack", |_| FlatTrace::from_trace(&trace)))
            })
            .collect()
    }
}

/// `suite_paper_ram`: `run_grid` over the packed suite.
pub struct PaperRam {
    /// Specs and fingerprints.
    pub inputs: Inputs,
    /// Packed traces, Table 2 order.
    pub flats: Vec<Arc<FlatTrace>>,
    /// Predictor configurations, in [`Workload::preds`] order.
    pub configs: Vec<(String, Factory)>,
    /// EV8 bank collisions since the last audit.
    pub collisions: Arc<AtomicU64>,
    /// `run_grid` workers.
    pub workers: usize,
}

impl PaperRam {
    /// Generates and packs the suite.
    pub fn setup(s: &Settings, tracer: &Tracer, parent: Option<u64>) -> PaperRam {
        let inputs = Inputs::new(Workload::PaperRam, s);
        let flats = inputs.generate_flat(tracer, parent);
        let collisions = Arc::new(AtomicU64::new(0));
        let configs = Workload::PaperRam
            .preds()
            .iter()
            .map(|p| (p.id().to_owned(), p.factory(&collisions)))
            .collect();
        PaperRam {
            inputs,
            flats,
            configs,
            collisions,
            workers: s.workers,
        }
    }
}

impl Bench for PaperRam {
    fn job(&mut self, refs: &RefTable, tracer: &Tracer, parent: Option<u64>) -> JobResult {
        let start = Instant::now();
        let grid = tracer.span(parent, "sim.run_grid", |_| {
            run_grid(&self.flats, &self.configs, self.workers)
        });
        let mut r = JobResult::timed(start);
        for (pred, row) in Workload::PaperRam.preds().iter().zip(&grid) {
            for (i, result) in row.iter().enumerate() {
                let key = self.inputs.key(i, pred.id());
                r.check_cell(refs, &key, self.inputs.fingerprints[i], result);
            }
        }
        r.check_collisions(&self.collisions);
        r
    }
}

/// `suite_corpus_stream`: `simulate_corpus` over corpus files.
pub struct CorpusStream {
    /// Specs and fingerprints.
    pub inputs: Inputs,
    /// One corpus file per benchmark, Table 2 order.
    pub files: Vec<PathBuf>,
    /// The directory holding them (removed by `finish`).
    pub dir: PathBuf,
    /// Streaming workers.
    pub workers: usize,
}

static UNIQUE: AtomicU64 = AtomicU64::new(0);

/// A fresh path under `work_dir` for this process.
fn unique_path(work_dir: &Path, stem: &str) -> PathBuf {
    let n = UNIQUE.fetch_add(1, Ordering::Relaxed);
    work_dir.join(format!("{stem}-{}-{n}", std::process::id()))
}

/// Opens a corpus file for streaming.
pub fn open_corpus(path: &Path) -> Result<CorpusReader<BufReader<File>>, String> {
    let file = File::open(path).map_err(|e| format!("{}: {e}", path.display()))?;
    CorpusReader::new(BufReader::new(file)).map_err(|e| format!("{}: {e}", path.display()))
}

impl CorpusStream {
    /// Generates the suite and writes one corpus file per benchmark.
    ///
    /// # Errors
    ///
    /// A message when a file cannot be written.
    pub fn setup(
        s: &Settings,
        tracer: &Tracer,
        parent: Option<u64>,
    ) -> Result<CorpusStream, String> {
        let inputs = Inputs::new(Workload::CorpusStream, s);
        let dir = unique_path(&s.work_dir, "corpus");
        fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let mut files = Vec::with_capacity(inputs.specs.len());
        for (i, spec) in inputs.specs.iter().enumerate() {
            let trace = inputs.generate(i, tracer, parent);
            let path = dir.join(format!("{}.ev8c", spec.name));
            tracer.span(parent, "trace.corpus_write", |_| {
                let mut out = BufWriter::new(File::create(&path).map_err(|e| e.to_string())?);
                write_corpus(&mut out, &trace).map_err(|e| e.to_string())?;
                out.flush().map_err(|e| e.to_string())
            })?;
            files.push(path);
        }
        Ok(CorpusStream {
            inputs,
            files,
            dir,
            workers: s.workers,
        })
    }
}

impl Bench for CorpusStream {
    fn job(&mut self, refs: &RefTable, tracer: &Tracer, parent: Option<u64>) -> JobResult {
        let start = Instant::now();
        let results = par_map(&self.files, self.workers, |path| {
            let reader = tracer.span(parent, "trace.corpus_open", |_| open_corpus(path))?;
            tracer
                .span(parent, "sim.simulate_corpus", |_| {
                    simulate_corpus(gshare(), reader)
                })
                .map_err(|e| e.to_string())
        });
        let mut r = JobResult::timed(start);
        for (i, result) in results.iter().enumerate() {
            match result {
                Ok(result) => {
                    let key = self.inputs.key(i, Pred::Gshare.id());
                    r.check_cell(refs, &key, self.inputs.fingerprints[i], result);
                }
                Err(_) => r.tally(false),
            }
        }
        r
    }

    fn finish(self: Box<Self>) {
        let _ = fs::remove_dir_all(&self.dir);
    }
}

/// `suite_sampled`: `simulate_sampled` per (benchmark, predictor).
pub struct Sampled {
    /// Specs and fingerprints.
    pub inputs: Inputs,
    /// Packed traces, Table 2 order.
    pub flats: Vec<Arc<FlatTrace>>,
    /// Predictors and factories, in [`Workload::preds`] order.
    pub factories: Vec<(Pred, Factory)>,
    /// EV8 bank collisions since the last audit.
    pub collisions: Arc<AtomicU64>,
    /// Workers the cells are spread over.
    pub workers: usize,
}

impl Sampled {
    /// Generates and packs the suite.
    pub fn setup(s: &Settings, tracer: &Tracer, parent: Option<u64>) -> Sampled {
        let inputs = Inputs::new(Workload::Sampled, s);
        let flats = inputs.generate_flat(tracer, parent);
        let collisions = Arc::new(AtomicU64::new(0));
        let factories = Workload::Sampled
            .preds()
            .iter()
            .map(|&p| (p, p.factory(&collisions)))
            .collect();
        Sampled {
            inputs,
            flats,
            factories,
            collisions,
            workers: s.workers,
        }
    }

    /// The (trace, predictor) cells of one job, benchmark-major.
    pub fn cells(&self) -> Vec<(usize, Pred)> {
        (0..self.flats.len())
            .flat_map(|i| self.factories.iter().map(move |(p, _)| (i, *p)))
            .collect()
    }

    /// The sampled runs of one job, in [`Sampled::cells`] order, each
    /// cell a single-threaded `simulate_sampled` call, the cells spread
    /// over the workers.
    pub fn runs(&self, tracer: &Tracer, parent: Option<u64>) -> Vec<SampledRun> {
        let k = self.factories.len();
        let cells: Vec<usize> = (0..self.flats.len() * k).collect();
        par_map(&cells, self.workers, |&c| {
            let (flat, f) = (&self.flats[c / k], &self.factories[c % k].1);
            tracer.span(parent, "sim.simulate_sampled", |_| {
                simulate_sampled(f, flat, &SamplingConfig::auto(flat.len()))
            })
        })
    }
}

/// The key of a sampled estimate pinned at the default seed.
pub fn sampled_id(pred: Pred) -> String {
    format!("sampled-{}", pred.id())
}

impl Bench for Sampled {
    fn job(&mut self, refs: &RefTable, tracer: &Tracer, parent: Option<u64>) -> JobResult {
        let start = Instant::now();
        let runs = self.runs(tracer, parent);
        let mut r = JobResult::timed(start);
        let total: usize = runs.iter().map(|run| run.total_records).sum();
        let simulated: usize = runs.iter().map(|run| run.simulated_records).sum();
        r.reduction = total as f64 / simulated.max(1) as f64;
        for ((i, pred), run) in self.cells().into_iter().zip(runs) {
            let flat = &self.flats[i];
            let fp = self.inputs.fingerprints[i];
            let est = &run.estimate;
            r.branches += est.conditional_branches;
            let Some(full) = refs.get(&self.inputs.key(i, pred.id()), fp) else {
                r.tally(false);
                continue;
            };
            // The estimate's counts of instructions and branches are exact.
            r.tally(
                est.conditional_branches == full.conditional
                    && est.instructions == flat.instruction_count(),
            );
            // The estimate itself is pinned where a stored value exists.
            if let Some(pinned) = refs.get(&self.inputs.key(i, &sampled_id(pred)), fp) {
                r.tally(pinned.mispredictions == est.mispredictions);
            }
            let full = SimResult {
                instructions: flat.instruction_count(),
                conditional_branches: full.conditional,
                mispredictions: full.mispredictions,
                ..SimResult::default()
            };
            let err = SampledVsFull { full, sampled: run }.relative_error();
            r.max_rel_err = r.max_rel_err.max(err);
        }
        r.check_collisions(&self.collisions);
        r
    }
}

/// `server_sessions`: one connection at a time, one trace per session.
pub struct ServerSessions {
    /// Specs and fingerprints.
    pub inputs: Inputs,
    /// The traces the sessions stream, Table 2 order.
    pub traces: Vec<Trace>,
    /// The server's Unix socket.
    pub sock: PathBuf,
    handle: ServerHandle,
    join: JoinHandle<ev8_server::ServerStats>,
}

/// One client session: connect and handshake, stream one trace, `BYE`.
pub fn session(
    sock: &Path,
    trace: &Trace,
    tracer: &Tracer,
    parent: Option<u64>,
) -> Result<ev8_sim::SessionSummary, ServerError> {
    let mut client = tracer.span(parent, "server.handshake", |_| {
        Client::connect_unix(sock, SERVER_SPEC, false)
    })?;
    let summary = tracer.span(parent, "server.run_trace", |_| {
        client.run_trace(trace, DEFAULT_CHUNK)
    })?;
    tracer.span(parent, "server.bye", |_| client.bye())?;
    Ok(summary)
}

impl ServerSessions {
    /// Generates the traces and starts a server on a fresh socket.
    ///
    /// # Errors
    ///
    /// A message when the socket cannot be bound.
    pub fn setup(
        s: &Settings,
        tracer: &Tracer,
        parent: Option<u64>,
    ) -> Result<ServerSessions, String> {
        let inputs = Inputs::new(Workload::ServerSessions, s);
        let traces = inputs.generate_all(tracer, parent);
        fs::create_dir_all(&s.work_dir).map_err(|e| format!("{}: {e}", s.work_dir.display()))?;
        let sock = unique_path(&s.work_dir, "srv").with_extension("sock");
        let (handle, join) = tracer.span(parent, "server.start", |_| {
            let mut server = Server::new(ServerConfig::default());
            server
                .bind_unix(&sock)
                .map_err(|e| format!("{}: {e}", sock.display()))?;
            let handle = server.handle();
            Ok::<_, String>((handle, thread::spawn(move || server.serve())))
        })?;
        Ok(ServerSessions {
            inputs,
            traces,
            sock,
            handle,
            join,
        })
    }

    /// Stops the server and returns its final stats.
    pub fn stop(self) -> ev8_server::ServerStats {
        self.handle.shutdown();
        let stats = self.join.join().expect("server thread panicked");
        let _ = fs::remove_file(&self.sock);
        stats
    }
}

impl Bench for ServerSessions {
    fn job(&mut self, refs: &RefTable, tracer: &Tracer, parent: Option<u64>) -> JobResult {
        let start = Instant::now();
        let mut outcomes = Vec::with_capacity(self.traces.len());
        for trace in &self.traces {
            let t = Instant::now();
            let outcome = session(&self.sock, trace, tracer, parent);
            outcomes.push((t.elapsed().as_secs_f64() * 1e3, outcome));
        }
        let mut r = JobResult::timed(start);
        for (i, (ms, outcome)) in outcomes.into_iter().enumerate() {
            r.session_ms.push(ms);
            match outcome {
                Ok(summary)
                    if summary.result.instructions == self.traces[i].instruction_count() =>
                {
                    let key = self.inputs.key(i, Pred::Gshare.id());
                    r.check_cell(refs, &key, self.inputs.fingerprints[i], &summary.result);
                }
                _ => r.tally(false),
            }
        }
        r
    }

    fn finish(self: Box<Self>) {
        self.stop();
    }
}

/// Sets up workload `w`.
///
/// # Errors
///
/// A message when a file or socket cannot be created.
pub fn setup(
    w: Workload,
    s: &Settings,
    tracer: &Tracer,
    parent: Option<u64>,
) -> Result<Box<dyn Bench>, String> {
    Ok(match w {
        Workload::PaperRam => Box::new(PaperRam::setup(s, tracer, parent)),
        Workload::CorpusStream => Box::new(CorpusStream::setup(s, tracer, parent)?),
        Workload::Sampled => Box::new(Sampled::setup(s, tracer, parent)),
        Workload::ServerSessions => Box::new(ServerSessions::setup(s, tracer, parent)?),
    })
}

/// Resets the process's RSS high-water mark; false when the kernel
/// refused.
pub fn reset_peak_rss() -> bool {
    fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// The process's RSS high-water mark (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// One workload's measurement.
#[derive(Clone, Debug)]
pub struct Measured {
    /// The workload.
    pub workload: Workload,
    /// Seconds of each set-up.
    pub setup_s: Vec<f64>,
    /// Every timed job, in order.
    pub jobs: Vec<JobResult>,
    /// RSS high-water mark over set-up and jobs, MiB.
    pub peak_rss_mib: f64,
    /// Whether the high-water mark was reset before set-up.
    pub rss_reset: bool,
    /// Where the references came from.
    pub ref_source: String,
}

impl Measured {
    /// Median set-up seconds.
    pub fn setup_s(&self) -> f64 {
        stats::median(&self.setup_s).unwrap_or(0.0)
    }

    /// Median job seconds.
    pub fn wall_s(&self) -> f64 {
        let walls: Vec<f64> = self.jobs.iter().map(|j| j.wall_s).collect();
        stats::median(&walls).unwrap_or(0.0)
    }

    /// Branches of one job over the median job time.
    pub fn branches_per_s(&self) -> f64 {
        let branches = self.jobs.first().map_or(0, |j| j.branches);
        branches as f64 / self.wall_s()
    }

    /// Checked operations over all jobs.
    pub fn attempted(&self) -> u64 {
        self.jobs.iter().map(|j| j.attempted).sum()
    }

    /// Failed operations over all jobs.
    pub fn failed(&self) -> u64 {
        self.jobs.iter().map(|j| j.failed).sum()
    }

    /// Every session latency of every job, ms.
    pub fn session_ms(&self) -> Vec<f64> {
        self.jobs
            .iter()
            .flat_map(|j| j.session_ms.iter().copied())
            .collect()
    }

    /// The end-to-end metrics, in [`END_TO_END`] order.
    pub fn end_to_end(&self) -> [f64; 4] {
        [
            self.setup_s(),
            self.wall_s(),
            self.branches_per_s(),
            self.peak_rss_mib,
        ]
    }
}

/// Loads the references, sets `w` up, runs timed jobs until `seconds`
/// have passed (at least [`MIN_JOBS`]), reads the RSS high-water mark of
/// that one set-up and its jobs, then times [`SETUP_REPS`]` - 1` more
/// set-ups, each torn down before the next.
///
/// # Errors
///
/// A message when references, set-up or the RSS reading fail.
pub fn measure(
    w: Workload,
    s: &Settings,
    seconds: f64,
    tracer: &Tracer,
) -> Result<Measured, String> {
    let (refs, ref_source) = reference::load(s.seed, &s.work_dir, &w.needs(s), s.workers)?;
    let rss_reset = reset_peak_rss();
    let timed_setup = || {
        let start = Instant::now();
        let bench = tracer.span(None, "setup", |id| setup(w, s, tracer, id))?;
        Ok::<_, String>((bench, start.elapsed().as_secs_f64()))
    };
    let (mut bench, first) = timed_setup()?;
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut jobs = Vec::new();
    while jobs.len() < MIN_JOBS || Instant::now() < deadline {
        jobs.push(tracer.span(None, "job", |id| bench.job(&refs, tracer, id)));
    }
    let peak = peak_rss_mib().ok_or("cannot read VmHWM from /proc/self/status")?;
    bench.finish();
    let mut setup_s = vec![first];
    for _ in 1..SETUP_REPS {
        let (bench, secs) = timed_setup()?;
        bench.finish();
        setup_s.push(secs);
    }
    Ok(Measured {
        workload: w,
        setup_s,
        jobs,
        peak_rss_mib: peak,
        rss_reset,
        ref_source,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tiny-scale copy of the benchmark's settings, working in a
    /// directory of the test's own.
    fn tiny(seed: u64, test: &str) -> Settings {
        Settings {
            seed,
            suite_scale: 0.0005,
            server_scale: 0.0002,
            workers: 2,
            work_dir: PathBuf::from(".bench_work").join(test),
        }
    }

    #[test]
    fn seed_zero_keeps_the_calibrated_seeds() {
        let calibrated = spec95::suite();
        let mixed = suite_specs(0);
        assert!(calibrated.iter().zip(&mixed).all(|(a, b)| a.seed == b.seed));
        let other = suite_specs(3);
        assert!(calibrated.iter().zip(&other).all(|(a, b)| a.seed != b.seed));
        assert_eq!(suite_specs(3)[0].seed, other[0].seed);
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn par_map_keeps_order() {
        let items: Vec<u64> = (0..37).collect();
        assert_eq!(
            par_map(&items, 3, |x| x * 2),
            items.iter().map(|x| x * 2).collect::<Vec<_>>()
        );
        assert!(par_map(&Vec::<u64>::new(), 2, |x| *x).is_empty());
    }

    #[test]
    fn smoke_every_workload_at_tiny_scale() {
        for (seed, w) in [
            (0, Workload::PaperRam),
            (5, Workload::CorpusStream),
            (0, Workload::Sampled),
            (7, Workload::ServerSessions),
        ] {
            let m = measure(w, &tiny(seed, "smoke"), 0.0, &Tracer::off()).unwrap();
            assert_eq!(m.jobs.len(), MIN_JOBS, "{}", w.name());
            assert_eq!(m.setup_s.len(), SETUP_REPS);
            assert!(m.attempted() > 0);
            assert_eq!(m.failed(), 0, "{} failed a check", w.name());
            assert!(
                m.end_to_end().iter().all(|v| v.is_finite() && *v > 0.0),
                "{}",
                w.name()
            );
            if w == Workload::ServerSessions {
                assert_eq!(m.session_ms().len(), MIN_JOBS * 8);
            }
        }
    }

    #[test]
    fn a_wrong_reference_is_counted_as_a_failure() {
        let s = tiny(0, "wrong-reference");
        let needs = Workload::CorpusStream.needs(&s);
        let mut refs = RefTable::default();
        refs.ensure(&needs, 2);
        let mut bench = CorpusStream::setup(&s, &Tracer::off(), None).unwrap();
        let good = bench.job(&refs, &Tracer::off(), None);
        assert_eq!((good.attempted, good.failed), (8, 0));
        // Corrupt one cell: exactly one check fails.
        let inputs = Inputs::new(Workload::CorpusStream, &s);
        let key = inputs.key(1, "gshare");
        let cell = refs.get(&key, inputs.fingerprints[1]).unwrap();
        refs.insert(
            key,
            reference::Cell {
                mispredictions: cell.mispredictions + 1,
                ..cell
            },
        );
        let bad = bench.job(&refs, &Tracer::off(), None);
        assert_eq!((bad.attempted, bad.failed), (8, 1));
        Box::new(bench).finish();
    }
}
