#!/usr/bin/env bash
# The tier-1 gate: everything must pass before a change lands.
# Mirrors what reviewers run locally — build, full test suite, lints,
# formatting — and fails fast on the first broken stage.
set -euo pipefail

cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release

echo "==> observers are owned: no Rc in production code"
# A world that is plain data clones into an independent fork of its run;
# an Rc handle would share state between the copies. Production is each
# file under crates/*/src up to its first #[cfg(test)] line, the cut
# scripts/loc.sh counts.
RC=$(git ls-files 'crates/*/src/*.rs' \
    | xargs awk 'FNR==1{stop=0} /^#\[cfg\(test\)\]/{stop=1}
        !stop && /(^|[^A-Za-z0-9_])Rc(<|::)/{print FILENAME ":" FNR ": " $0}')
if [ -n "$RC" ]; then
    echo "$RC"
    echo "FAIL: Rc in production code"
    exit 1
fi

echo "==> observers record through &mut self: no RefCell in production code"
# The testbed's observers are plain data that record through &mut self,
# so a world has one owner and no borrow flag on its hot path. Same cut
# as above. profiler.rs is the one exception: perfbench times
# Profiler::scope through a shared reference, so its timings sit behind
# a RefCell.
REFCELL=$(git ls-files 'crates/*/src/*.rs' | grep -vx 'crates/vrio-sim/src/profiler.rs' \
    | xargs awk 'FNR==1{stop=0} /^#\[cfg\(test\)\]/{stop=1}
        !stop && /(^|[^A-Za-z0-9_])RefCell([^A-Za-z0-9_]|$)/{print FILENAME ":" FNR ": " $0}')
if [ -n "$REFCELL" ]; then
    echo "$REFCELL"
    echo "FAIL: RefCell in production code"
    exit 1
fi

echo "==> cargo test -q"
cargo test -q

echo "==> vendored bytes and rand: zero-copy and stream unit tests"
# third_party/ is outside the workspace's default members, so the plain
# run above does not reach these. Every simulated number rests on the
# vendored rand stream (determinism per seed, range bounds).
cargo test -q -p bytes
cargo test -q -p rand

echo "==> property tests on a rotating seed"
# The plain run above replays each property's fixed case stream; this one
# mixes a date-derived seed in, so every day explores new cases. A failure
# prints the seed; rerun it with the same PROPTEST_SEED.
PROPTEST_SEED=${PROPTEST_SEED:-$(date -u +%Y%m%d)}
echo "    PROPTEST_SEED=$PROPTEST_SEED"
PROPTEST_SEED=$PROPTEST_SEED cargo test -q \
    -p vrio-repro --test reliability_props \
    -p vrio --test admission_props --test dynamic_props --test health_props \
    --test interpose_props --test poll_props --test proto_props --test steering_props \
    -p vrio-block --test block_props \
    -p vrio-net --test tso_props \
    -p vrio-sim --test queue_props --test round_props \
    -p vrio-trace --test hist_props \
    -p vrio-virtio --test mem_props --test ring_conformance --test virtqueue_props

echo "==> perfbench: every workload builds, runs and matches its digest"
# perfbench is a package of its own, outside the workspace, so the steps
# above never compile it; it uses the public API of the crates it measures.
PB=$(mktemp -d)
for w in rr-rack blk-storm sweep-scaling; do
    python3 perfbench/run.py --workload "$w" --seed 1 --seconds 1 --trace 0 \
        > "$PB/out" 2> "$PB/err" \
        || { cat "$PB/err"; echo "FAIL: perfbench $w exited non-zero"; exit 1; }
    tail -n 1 "$PB/out" | grep -q '"correct": *true' \
        || { cat "$PB/err" "$PB/out"; echo "FAIL: perfbench $w did not report \"correct\": true"; exit 1; }
    echo "    $w: correct"
done
rm -rf "$PB"
# run.py builds without --locked, so a run that rewrote perfbench's lock
# file (or anything else the benchmark reads) would otherwise pass.
git diff --exit-code -- perfbench BENCHMARK.json \
    || { echo "FAIL: the perfbench runs changed committed benchmark files"; exit 1; }

echo "==> trace/report smoke test"
SMOKE=$(mktemp -d)
cargo run --release -q -p vrio-bench --bin repro -- \
    --quick --tab3 --trace "$SMOKE/trace" --json "$SMOKE/json" > /dev/null
# The per-core busy slices come from the VCPU and backend interval logs.
cargo run --release -q -p vrio-bench --bin checkjson -- \
    "$SMOKE/trace/TRACE_tab3.json" --chrome \
    --require-event vcpu_busy --require-event backend_busy
cargo run --release -q -p vrio-bench --bin checkjson -- \
    "$SMOKE/json/BENCH_tab3.json" \
    --require schema_version \
    --require models.optimum.breakdown.stage_sum_us \
    --require models.vrio.breakdown.stages.wire.mean_us \
    --require models.baseline.metrics.counters
rm -rf "$SMOKE"

echo "==> determinism gate: identical reruns"
DET=$(mktemp -d)
cargo run --release -q -p vrio-bench --bin repro -- \
    --quick --tab3 --json "$DET/run1" > /dev/null
cargo run --release -q -p vrio-bench --bin repro -- \
    --quick --tab3 --json "$DET/run2" > /dev/null
diff "$DET/run1/BENCH_tab3.json" "$DET/run2/BENCH_tab3.json" \
    || { echo "FAIL: BENCH_tab3.json differs between identical runs"; exit 1; }

echo "==> determinism gate: sweep is thread-count invariant"
cargo run --release -q -p vrio-bench --bin repro -- \
    --quick --sweep smoke --threads 1 --json "$DET/t1" > /dev/null 2> /dev/null
cargo run --release -q -p vrio-bench --bin repro -- \
    --quick --sweep smoke --threads 4 --json "$DET/t4" > /dev/null 2> /dev/null
diff "$DET/t1/BENCH_sweep_smoke.json" "$DET/t4/BENCH_sweep_smoke.json" \
    || { echo "FAIL: sweep JSON differs between --threads 1 and --threads 4"; exit 1; }

echo "==> regression gate: sweep matches the committed baseline exactly"
# Every number in the document is simulated, so any difference is a change
# in behaviour. A change that moves it on purpose re-commits the baseline
# (EXPERIMENTS.md, "Perf trajectory").
diff "$DET/t4/BENCH_sweep_smoke.json" benches/baseline.json \
    || { echo "FAIL: BENCH_sweep_smoke.json differs from benches/baseline.json"; exit 1; }

echo "==> determinism gate: repro --all is thread-count invariant"
cargo run --release -q -p vrio-bench --bin repro -- \
    --quick --all --threads 1 > "$DET/all1.txt"
cargo run --release -q -p vrio-bench --bin repro -- \
    --quick --all --threads 2 > "$DET/all2.txt"
diff "$DET/all1.txt" "$DET/all2.txt" \
    || { echo "FAIL: repro --quick --all stdout differs between --threads 1 and --threads 2"; exit 1; }

echo "==> oracle gate: invariant-checked runs are byte-identical"
cargo run --release -q -p vrio-bench --bin repro -- \
    --quick --tab3 --oracle --json "$DET/orc" > /dev/null
diff "$DET/run1/BENCH_tab3.json" "$DET/orc/BENCH_tab3.json" \
    || { echo "FAIL: --oracle changed BENCH_tab3.json (oracle must be observe-only)"; exit 1; }
cargo run --release -q -p vrio-bench --bin repro -- \
    --quick --sweep smoke --threads 4 --oracle --json "$DET/orcsweep" > /dev/null 2> /dev/null
diff "$DET/t4/BENCH_sweep_smoke.json" "$DET/orcsweep/BENCH_sweep_smoke.json" \
    || { echo "FAIL: --oracle changed BENCH_sweep_smoke.json (oracle must be observe-only)"; exit 1; }
echo "==> chaos gate: campaign survives the primary kill, thread-count invariant"
cargo run --release -q -p vrio-bench --bin repro -- \
    --quick --chaos primary-kill --threads 1 --json "$DET/ch1" > /dev/null 2> /dev/null
cargo run --release -q -p vrio-bench --bin repro -- \
    --quick --chaos primary-kill --threads 4 --json "$DET/ch4" > /dev/null 2> /dev/null
diff "$DET/ch1/BENCH_chaos_primary-kill.json" "$DET/ch4/BENCH_chaos_primary-kill.json" \
    || { echo "FAIL: chaos JSON differs between --threads 1 and --threads 4"; exit 1; }
# ge-storm carries block traffic through loss, retransmission and stale
# timers; its BENCH and TELEM documents must not depend on the threads.
cargo run --release -q -p vrio-bench --bin repro -- \
    --quick --chaos ge-storm --telemetry --threads 1 --json "$DET/gs1" > /dev/null 2> /dev/null
cargo run --release -q -p vrio-bench --bin repro -- \
    --quick --chaos ge-storm --telemetry --threads 4 --json "$DET/gs4" > /dev/null 2> /dev/null
for doc in BENCH TELEM; do
    diff "$DET/gs1/${doc}_chaos_ge-storm.json" "$DET/gs4/${doc}_chaos_ge-storm.json" \
        || { echo "FAIL: ge-storm $doc differs between --threads 1 and --threads 4"; exit 1; }
done
cargo run --release -q -p vrio-bench --bin checkjson -- \
    "$DET/ch4/BENCH_chaos_primary-kill.json" \
    --require schema_version \
    --require campaign.outages \
    --require summary.min_availability \
    --require summary.total_dropped \
    --require summary.drops.fault_loss \
    --require summary.drops.shed_queue

echo "==> telemetry gate: sampling and profiling are observe-only"
cargo run --release -q -p vrio-bench --bin repro -- \
    --quick --tab3 --telemetry --profile --trace "$DET/telem" --json "$DET/telem" > /dev/null
diff "$DET/run1/BENCH_tab3.json" "$DET/telem/BENCH_tab3.json" \
    || { echo "FAIL: --telemetry/--profile changed BENCH_tab3.json (must be observe-only)"; exit 1; }
# Every run samples on the same fixed grid: 330 points over the quick
# horizon. A sampling series that dropped or repeated an occurrence
# would change the count.
cargo run --release -q -p vrio-bench --bin checkjson -- \
    "$DET/telem/TELEM_tab3.json" --telem \
    --require-track steer.iohost0.worker0.depth \
    --require-track retx.outstanding \
    --require-track slo.vm0.completed \
    --require-points retx.outstanding 330
cargo run --release -q -p vrio-bench --bin checkjson -- \
    "$DET/telem/PROF_tab3.json" --prof
cargo run --release -q -p vrio-bench --bin checkjson -- \
    "$DET/telem/TRACE_tab3.json" --chrome

echo "==> telemetry gate: sampled sweep is thread-count invariant"
# (the plain-vs-sampled sweep comparison is section-level — the spec block
# records the telemetry flag itself — and lives in the cargo test suite;
# this stage proves the sampled run is thread-count deterministic end to end)
cargo run --release -q -p vrio-bench --bin repro -- \
    --quick --sweep smoke --telemetry --threads 1 --json "$DET/tm1" > /dev/null 2> /dev/null
cargo run --release -q -p vrio-bench --bin repro -- \
    --quick --sweep smoke --telemetry --threads 4 --json "$DET/tm4" > /dev/null 2> /dev/null
diff "$DET/tm1/BENCH_sweep_smoke.json" "$DET/tm4/BENCH_sweep_smoke.json" \
    || { echo "FAIL: sampled BENCH_sweep_smoke.json differs between --threads 1 and --threads 4"; exit 1; }
diff "$DET/tm1/TELEM_sweep_smoke.json" "$DET/tm4/TELEM_sweep_smoke.json" \
    || { echo "FAIL: TELEM_sweep_smoke.json differs between --threads 1 and --threads 4"; exit 1; }
cargo run --release -q -p vrio-bench --bin checkjson -- \
    "$DET/tm4/TELEM_sweep_smoke.json" --telem
echo "==> ring gate: layouts are invisible above the ring"
# Table 3 regenerated on packed rings must be byte-identical to the split
# table (DESIGN.md §13: feature negotiation may change notification
# economics only), and the full differential grid must be conformant.
cargo run --release -q -p vrio-bench --bin repro -- \
    --quick --tab3 --out "$DET/rsplit" > /dev/null
cargo run --release -q -p vrio-bench --bin repro -- \
    --quick --tab3 --ring packed --out "$DET/rpacked" > /dev/null
diff "$DET/rsplit/tab3.txt" "$DET/rpacked/tab3.txt" \
    || { echo "FAIL: tab3 differs between --ring split and --ring packed"; exit 1; }
cargo run --release -q -p vrio-bench --bin repro -- \
    --quick --rings --differential > /dev/null
rm -rf "$DET"

echo "==> cargo doc --no-deps (warnings denied)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps -q

echo "==> cargo clippy --all-targets -- -D warnings"
cargo clippy --all-targets -- -D warnings

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> line-coverage floor (skipped when cargo-llvm-cov is absent)"
if cargo llvm-cov --version > /dev/null 2>&1; then
    FLOOR=$(cat benches/coverage-floor.txt)
    cargo llvm-cov --workspace --summary-only --fail-under-lines "$FLOOR"
else
    echo "    cargo-llvm-cov not installed; the coverage job in CI enforces the floor"
fi

echo "==> Rust line counts (information, not a gate)"
scripts/loc.sh | sed 's/^/    /'

echo "==> tier-1 gate passed"
