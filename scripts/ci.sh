#!/usr/bin/env sh
# Full per-PR gate: the tier-1 suite (default preset), a grep that keeps
# Dataset::TotalRecords off the engines' run paths, a grep that keeps thread
# creation out of src/runtime/ (every parallel stage goes through RunWorkers
# in src/common/thread_pool.h), the sanitized builds —
# fault-injection / wire-hardening / degradation / shuffle suites under
# ASan+UBSan, and the threaded-engine / shuffle / spill / morsel suites under
# TSan (filters live in CMakePresets.json) — then the smoke-mode
# perf gate (bench_compare over two bench_smoke runs + checked-in fixtures),
# the full-size bench gates (bench_groupmap, bench_spill, bench_morsel,
# bench_shuffle_skew), the bench/e2e smoke, a forked-worker fault smoke
# (every worker corrupts a frame; both forked engines must still match
# sequential, with every segment re-executed in-process), the same fault
# combined with spill-frame faults under a budget that spills, and one
# --explain bottleneck report as a human-readable tail.
set -eu
cd "$(dirname "$0")/.."

cmake --preset default
cmake --build --preset default -j "${CI_JOBS:-$(nproc)}"
ctest --preset default -j "${CI_JOBS:-$(nproc)}"

# --- one scan path --------------------------------------------------------------
# The pipeline engines take their record counts from the input index and the
# map tasks (docs/scheduling.md): no run path may walk the whole input on one
# thread through Dataset::TotalRecords.
if grep -n 'TotalRecords(' src/runtime/engine.h src/runtime/process_engine.h; then
  echo "ci.sh: TotalRecords( appears in src/runtime/engine.h or process_engine.h" >&2
  exit 1
fi

# --- one fork-join ---------------------------------------------------------------
# Every parallel stage of a run is one RunWorkers call (docs/scheduling.md),
# which joins all its threads before it returns or rethrows: no stage may
# start threads of its own or bring back a task pool.
if grep -rnE 'ThreadPool|RunParallel|std::j?thread' src/runtime/; then
  echo "ci.sh: ThreadPool, RunParallel or std::thread appears in src/runtime/" >&2
  exit 1
fi

cmake --preset asan
cmake --build --preset asan -j "${CI_JOBS:-$(nproc)}"
ctest --preset asan -j "${CI_JOBS:-$(nproc)}"

cmake --preset tsan
cmake --build --preset tsan -j "${CI_JOBS:-$(nproc)}"
ctest --preset tsan -j "${CI_JOBS:-$(nproc)}"

# --- perf-regression gate (smoke mode) ---------------------------------------
# Two back-to-back bench_smoke runs diffed with a loose threshold: on shared CI
# hardware this only catches gross regressions (binary-level slowdowns, not
# single-digit noise); the tight-threshold behaviour is pinned by the fixture
# checks below and the bench_compare_* ctest entries.
gate_dir=build/perf_gate
rm -rf "$gate_dir"
mkdir -p "$gate_dir/base" "$gate_dir/cand"
(cd "$gate_dir/base" && ../../bench/bench_smoke >/dev/null)
(cd "$gate_dir/cand" && ../../bench/bench_smoke >/dev/null)
build/bench/bench_compare "$gate_dir/base/BENCH_smoke.json" \
  "$gate_dir/cand/BENCH_smoke.json" --threshold 0.5 --min-wall-ms 5

# Fixture assertions: the gate must pass identical + noisy inputs and fail the
# +20% regression fixture.
build/bench/bench_compare bench/fixtures/BENCH_gate_base.json \
  bench/fixtures/BENCH_gate_noise.json >/dev/null
if build/bench/bench_compare bench/fixtures/BENCH_gate_base.json \
  bench/fixtures/BENCH_gate_regress.json >/dev/null; then
  echo "ci.sh: bench_compare failed to flag the regression fixture" >&2
  exit 1
fi

# --- group-table throughput gate ---------------------------------------------
# Full-size flat-vs-node grouping sweep; the binary itself enforces >= 1.3x
# insert throughput at 1M groups and exits nonzero below it. The fixture pair
# pins bench_compare's verdicts on this report shape, mirroring the
# bench_groupmap_compare_* ctest entries.
(cd "$gate_dir" && ../../build/bench/bench_groupmap)
build/bench/bench_compare bench/fixtures/BENCH_groupmap_base.json \
  bench/fixtures/BENCH_groupmap_base.json >/dev/null
if build/bench/bench_compare bench/fixtures/BENCH_groupmap_base.json \
  bench/fixtures/BENCH_groupmap_regress.json >/dev/null; then
  echo "ci.sh: bench_compare failed to flag the groupmap regression fixture" >&2
  exit 1
fi

# --- memory-budget / spill gate ----------------------------------------------
# Full-size spill-vs-in-memory measurement; the binary itself enforces that
# every budgeted engine spills, keeps peak_tracked_bytes under the budget, and
# stays within 2.5x of the in-memory wall. The fixture pair pins
# bench_compare's verdicts on this report shape, mirroring the
# bench_spill_compare_* ctest entries.
(cd "$gate_dir" && ../../build/bench/bench_spill)
build/bench/bench_compare bench/fixtures/BENCH_spill_base.json \
  bench/fixtures/BENCH_spill_base.json >/dev/null
if build/bench/bench_compare bench/fixtures/BENCH_spill_base.json \
  bench/fixtures/BENCH_spill_regress.json >/dev/null; then
  echo "ci.sh: bench_compare failed to flag the spill regression fixture" >&2
  exit 1
fi

# --- morsel map-scheduling gate ----------------------------------------------
# Full-size zipf-skewed segment layout; the binary itself enforces >= 1.3x
# modeled map makespan over static per-segment dispatch and byte-identical
# outputs across morsel granularities, exiting nonzero otherwise.
(cd "$gate_dir" && ../../build/bench/bench_morsel)

# --- reduce-scheduling skew gate ---------------------------------------------
# Zipf-skewed key runs (one hot group plus a flat tail); the binary itself
# enforces >= 1.5x modeled shuffle+reduce makespan for the partitioned
# largest-first shuffle over one partition with a static-stride reduce at
# 4 and 8 slots, and that both configs' reduce outputs equal, key by key, the
# workload grouped directly; it exits nonzero otherwise.
(cd "$gate_dir" && ../../build/bench/bench_shuffle_skew)

# --- end-to-end benchmark smoke ------------------------------------------------
# bench/e2e is its own CMake project: its ctest smoke runs all five engines
# against the sequential oracle on the benchmark's four workload shapes,
# including the memory-budgeted one, which no tier-1 test builds.
cmake -S bench/e2e -B build/e2e
cmake --build build/e2e -j "${CI_JOBS:-$(nproc)}"
ctest --test-dir build/e2e

# --- forked-worker fault smoke ------------------------------------------------
# Every worker spawn, retries included, corrupts its first segment frame: each
# lineage is killed, respawned, and finally re-executed in-process. query_cli
# exits 1 if either forked engine diverges from the sequential output, and
# the smoke fails unless both forked engines' faults: lines report that all
# 12 segments ran in-process — a fault that missed every segment frame would
# otherwise pass while testing no recovery.
fault_out=$(build/examples/query_cli G1 --records 40000 --engine forked \
  --fault 'corrupt:worker=*:frame=0')
printf '%s\n' "$fault_out"
if [ "$(printf '%s\n' "$fault_out" |
  grep -c '^  faults: .* 12 segments ran in-process$')" -ne 2 ]; then
  echo "ci.sh: the fault smoke did not run all 12 segments in-process on both forked engines" >&2
  exit 1
fi

# --- pipe + spill fault smoke --------------------------------------------------
# Forked pipes and spill runs share one frame writer and fault hook. Under a
# budget that spills, the same pipe fault plus a corrupt spill frame on every
# write: each spill fails its read-back twice and its run is put back in
# memory, so no spill: line may appear, and both forked engines must still
# match sequential with all 12 segments in-process. With only the run's first
# spill frame corrupted, the fresh-file retry succeeds and both engines must
# print a spill: line, which proves that this budget spills at all.
spill_fault='corrupt:worker=*:frame=0;spill-corrupt:worker=*:frame='
for spill_frame in '*' 0; do
  both_out=$(build/examples/query_cli G1 --records 40000 --engine forked \
    --memory-budget 256k --fault "$spill_fault$spill_frame")
  printf '%s\n' "$both_out"
  in_process=$(printf '%s\n' "$both_out" |
    grep -c '^  faults: .* 12 segments ran in-process$' || true)
  spilled=$(printf '%s\n' "$both_out" | grep -c '^  spill:' || true)
  want_spilled=2
  if [ "$spill_frame" = '*' ]; then
    want_spilled=0
  fi
  if [ "$in_process" -ne 2 ] || [ "$spilled" -ne "$want_spilled" ]; then
    echo "ci.sh: pipe + spill fault smoke (spill frame=$spill_frame):" \
      "$in_process engines ran 12 segments in-process (want 2)," \
      "$spilled printed a spill: line (want $want_spilled)" >&2
    exit 1
  fi
done

# --- bottleneck report -------------------------------------------------------
# One skewed shuffle run with --explain so every CI log carries a current
# critical-path / straggler / cost-model summary.
build/examples/query_cli G1 --records 60000 --engine mapreduce --explain

echo "ci.sh: tier-1 + sanitized suites + perf gate passed"
