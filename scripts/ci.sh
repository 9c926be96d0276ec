#!/usr/bin/env bash
# Offline CI gate for the EV8 branch predictor reproduction.
#
# The build is hermetic — every dependency is an in-tree path crate — so
# this script must pass on a machine with no network access at all
# (--offline makes cargo fail fast instead of probing a registry).
#
#   scripts/ci.sh          # tier-1 + lints
#   scripts/ci.sh --quick  # skip the release build (debug test run only)
#
# Tier-1 (ROADMAP.md): cargo build --release && cargo test -q
set -euo pipefail
cd "$(dirname "$0")/.."

QUICK=0
for arg in "$@"; do
    case "$arg" in
        --quick) QUICK=1 ;;
        *) echo "usage: scripts/ci.sh [--quick]" >&2; exit 2 ;;
    esac
done

run() {
    echo "==> $*"
    "$@"
}

if [ "$QUICK" -eq 0 ]; then
    run cargo build --release --offline
fi
run cargo test -q --workspace --offline

# The benchmark (benchsuite/) is a workspace of its own, so the pass
# above never compiles it; it drives the predictors' public API, so
# build it and run its self-tests here.
run cargo test --release --offline --manifest-path benchsuite/Cargo.toml

# budgeted NAME ENV_VAR DEFAULT -- CMD...
# Runs CMD against a wall-clock budget of ${ENV_VAR:-DEFAULT} seconds and
# fails the gate if it runs over. The timing line drops a trailing
# " smoke" from NAME; the error line keeps it.
budgeted() {
    local name="$1" var="$2" default="$3"
    if [ "$#" -lt 5 ] || [ "$4" != "--" ]; then
        echo "usage: budgeted NAME ENV_VAR DEFAULT -- CMD..." >&2
        exit 2
    fi
    shift 4
    local budget="${!var:-$default}" start elapsed
    start=$(date +%s)
    "$@"
    elapsed=$(( $(date +%s) - start ))
    echo "==> ${name% smoke} wall-clock: ${elapsed}s (budget ${budget}s)"
    if [ "$elapsed" -gt "$budget" ]; then
        echo "error: ${name} exceeded its ${budget}s wall-clock budget" >&2
        exit 1
    fi
}

# The heaviest tier-1 suite runs against a wall-clock budget. With the
# memoized trace provider and parallel fan-out it finishes in well under
# a minute; the generous default budget only trips on a real regression
# (e.g. the trace cache silently regenerating at every call site).
budgeted paper_shapes EV8_PAPER_SHAPES_BUDGET 180 -- \
    run cargo test -q --test paper_shapes --offline

# Robustness smoke, also budgeted: ten thousand fixed-seed trace
# corruptions through both decoders (far past the 256-mutation floor the
# fuzz contract requires) plus the SEU fault-injection campaign across
# three benchmarks. Every case replays from a literal seed, so a failure
# here is a one-line reproduction.
budgeted fault_injection EV8_FAULTS_BUDGET 120 -- \
    run cargo test -q --test fault_injection --offline

# Observability smoke, budgeted like the suites above: the golden
# misprediction fixture (exact counters for every benchmark × predictor
# pair — re-bless intended changes with EV8_BLESS_GOLDEN=1) plus one
# pass of the attribution experiment at one-sample scale, which
# exercises the observed simulation loop end-to-end and asserts the
# reconciliation and §6 zero-collision invariants in-process.
observability_smoke() {
    run cargo test -q --test golden_misp --offline
    run env EV8_SCALE=0.002 cargo run -q --release --offline -p ev8-bench --bin attribution
}
budgeted "observability smoke" EV8_OBSERVE_BUDGET 120 -- observability_smoke

# Equivalence smoke, budgeted: the batched-vs-serial suite
# (simulate_many / simulate_gshare_sweep bit-identity over generated
# traces, including predictor write-accounting state, and the windowed
# splice's accounting) and the differential matrix (every simulation
# front door against simulate, field for field, for every predictor
# family) must stay cheap — they guard the kernel every experiment run
# leans on, so a budget blowout here means trace memoization or the
# simulation hot loop regressed.
equivalence_smoke() {
    run cargo test -q --test batched_equivalence --offline
    run cargo test -q --test differential --offline
}
budgeted "equivalence smoke" EV8_SWEEP_BUDGET 120 -- equivalence_smoke

# Cross-generation smoke, budgeted: the TAGE property suite (tagged-table
# invariants under arbitrary streams, with literal-seed replay) plus one
# shootout pass at a small scale — bimodal/gshare/2Bc-gskew/TAGE at the
# EV8 bit budget through the unified predictor trait, the experiment the
# tage-beats-gshare acceptance gate lives in.
shootout_smoke() {
    run cargo test -q --test tage_properties --offline
    run env EV8_SCALE=0.002 cargo run -q --release --offline -p ev8-bench --bin shootout
}
budgeted "shootout smoke" EV8_SHOOTOUT_BUDGET 120 -- shootout_smoke

# Prediction-service smoke, budgeted: the chaos acceptance suite drives
# a live Unix-socket server with 16 well-behaved concurrent clients plus
# injected adversaries (seeded corrupt frame streams, truncated frames,
# mid-stream disconnects, slowloris writers) and asserts no panic, every
# stall reaped by the watchdog, healthy summaries bit-identical to the
# serial simulator, and a clean counter-reconciled drain. The suite
# finishes in a few seconds; the budget trips on supervision regressions
# that turn reaping or draining into waiting.
budgeted server_chaos EV8_SERVER_BUDGET 120 -- \
    run cargo test -q --test server_chaos --offline

# Corpus smoke, budgeted: the on-disk container's whole contract — the
# property roundtrip suite (arbitrary traces across chunk sizes), the
# golden byte-level format pin (re-bless intended format changes with
# EV8_BLESS_GOLDEN=1 after bumping CORPUS_VERSION), the corruption sweep
# (10k seeded body mutations, all caught by the chunk CRC), and the
# differential pipeline pin (streaming decode → simulate bit-identical
# to the in-RAM path, cache tier, server BEGIN_WORKLOAD end-to-end).
# Then the builder binary round-trips a real store on disk at smoke
# scale and re-verifies every chunk checksum through the catalog.
corpus_smoke() {
    run cargo test -q -p ev8-trace --test corpus_roundtrip --offline
    run cargo test -q --test corpus_format --offline
    run cargo test -q --test corpus_corruption --offline
    run cargo test -q --test corpus_pipeline --offline
    local dir="$PWD/target/corpus-smoke"
    rm -rf "$dir"
    run env EV8_SCALE=0.002 cargo run -q --release --offline -p ev8-bench --bin corpus -- build "$dir"
    run cargo run -q --release --offline -p ev8-bench --bin corpus -- verify "$dir"
    rm -rf "$dir"
}
budgeted "corpus smoke" EV8_CORPUS_BUDGET 120 -- corpus_smoke

# Sampling smoke, budgeted: the phase-sampling estimator's whole
# contract — the integration properties (seeded k-means determinism
# across threads, weights partitioning the intervals, the degenerate
# full-coverage config bit-identical to the serial simulator), the
# golden estimate fixture (re-bless intended estimator changes with
# EV8_BLESS_GOLDEN=1), and one pass of the H2P taxonomy study at smoke
# scale, which reconciles every per-PC histogram in-process.
sampling_smoke() {
    run cargo test -q --test sampling_properties --offline
    run cargo test -q --test golden_sampling --offline
    run env EV8_SCALE=0.002 cargo run -q --release --offline -p ev8-bench --bin h2p
}
budgeted "sampling smoke" EV8_SAMPLING_BUDGET 120 -- sampling_smoke

# Benchmark reference smoke, budgeted: the built benchmark binary runs
# the paper's predictors (suite_paper_ram) and the phase sampler
# (suite_sampled) at the default seed, whose results it checks against
# the stored references in benchsuite/references/seed-0.txt. The
# self-tests above compute their references with the same predictor
# code at a tiny scale, so only this step catches a predictor change
# that moves a misprediction count. Each run's last line must report
# "correct": true.
bench_reference_smoke() {
    run cargo build --release --offline --quiet --manifest-path benchsuite/Cargo.toml
    local w last
    for w in suite_paper_ram suite_sampled; do
        last=$(benchsuite/target/release/ev8-benchsuite \
            --workload "$w" --seed 0 --seconds 1 --trace 0 | tail -n 1)
        echo "$last"
        case "$last" in
            *'"correct": true'*) ;;
            *) echo "error: $w does not match the stored references" >&2; exit 1 ;;
        esac
    done
}
budgeted "bench reference smoke" EV8_BENCH_REF_BUDGET 120 -- bench_reference_smoke

# Benches are plain `fn main()` binaries on the in-tree harness: build
# them all, then smoke-run them at one sample per benchmark
# (EV8_BENCH_SAMPLES overrides per-group sample sizes, so this stays
# fast; EV8_BENCH_JSON keeps the smoke from overwriting the committed
# BENCH_sim.json numbers). Proper timing runs remain a manual step.
run cargo build --benches --offline
if [ "$QUICK" -eq 0 ]; then
    # cargo runs bench binaries from the package directory, so the
    # redirect path must be absolute.
    # EV8_SWEEP_SCALE drops the sweep bench to smoke-sized traces; the
    # recorded numbers in BENCH_sim.json come from a manual run at the
    # bench's default scale.
    # EV8_SHOOTOUT_SCALE likewise keeps the accuracy-recording shootout
    # group at smoke size.
    # EV8_CORPUS_SCALE keeps the corpus codec group at smoke size too.
    # EV8_SAMPLING_SCALE keeps the sampling accuracy grid at smoke size
    # (the acceptance envelope only asserts at scale >= 0.5).
    run env EV8_BENCH_SAMPLES=1 EV8_SWEEP_SCALE=0.02 EV8_SHOOTOUT_SCALE=0.002 \
        EV8_CORPUS_SCALE=0.002 EV8_SAMPLING_SCALE=0.002 \
        EV8_BENCH_JSON="$PWD/target/bench-smoke.json" \
        cargo bench --offline -p ev8-bench
fi

run cargo clippy --all-targets --offline -- -D warnings
run cargo fmt --check

echo "==> CI OK"
