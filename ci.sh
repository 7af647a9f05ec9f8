#!/usr/bin/env bash
# CI driver: lints, then builds the Release, debug-checks, and ASan/UBSan
# configurations and runs the full test suite in each, then reruns the
# threaded join tests under TSan with up to 8 join workers (data races in
# the parallel join only show up with real concurrency, whatever the
# host's core count).
#
# Usage: ./ci.sh [--skip-tsan]
set -euo pipefail
cd "$(dirname "$0")"

JOBS="$(nproc 2>/dev/null || echo 2)"
GENERATOR_ARGS=()
command -v ninja >/dev/null 2>&1 && GENERATOR_ARGS=(-G Ninja)

build_and_test() {
  local dir="$1"
  shift
  echo "=== configure ${dir} ($*) ==="
  cmake -B "${dir}" -S . "${GENERATOR_ARGS[@]}" "$@"
  echo "=== build ${dir} ==="
  cmake --build "${dir}" -j "${JOBS}"
}

# overhead_sweep DIR TAG FLAGS...: runs the fig12 sweep at its default
# 120x120 size (over 1 s of CPU per run) OVERHEAD_RUNS times sinks-off and
# OVERHEAD_RUNS times with FLAGS, interleaved (base, armed, base, ...), so
# that drift over the minutes the pairs take (frequency scaling, a
# neighbour's load) falls on both sides alike. Records land in
# DIR/TAG_base_N.json and DIR/TAG_armed_N.json; FLAGS may name the armed
# run's capture files DIR/TAG_capture_N.* with the placeholder @OUT@.
OVERHEAD_RUNS=5
overhead_sweep() {
  local dir="$1" tag="$2"
  shift 2
  local run flags
  for run in $(seq 1 "${OVERHEAD_RUNS}"); do
    ./build-release/bench/bench_fig12_tau_efficiency \
      --json_out="${dir}/${tag}_base_${run}.json" > /dev/null
    flags=("${@//@OUT@/${dir}/${tag}_capture_${run}}")
    ./build-release/bench/bench_fig12_tau_efficiency "${flags[@]}" \
      --json_out="${dir}/${tag}_armed_${run}.json" > /dev/null
  done
  check_record "${dir}/${tag}"_base_*.json "${dir}/${tag}"_armed_*.json
}

# overhead_gate DIR TAG FLOOR_PCT LABEL: compares the records of
# overhead_sweep DIR TAG on process CPU time, per cell the minimum over
# every trial of every run (the sample value process_cpu_seconds_min).
# CPU time does not count the time the host spends on other processes,
# and the minimum drops the runs that a cache or frequency disturbance
# slowed, so a sampler's real cost, which every run pays, is what is left.
# The median per-cell delta must stay within max(FLOOR_PCT, 3 x noise),
# where a cell's noise is how far the runs' second-best minimum sits from
# the best one on each side (combined in quadrature), and the median is
# taken over cells. When 3 x noise exceeds the floor, the budget cannot be
# resolved on this host, and the line says UNRESOLVED instead of OK.
overhead_gate() {
  python3 - "$@" <<'PY'
import glob, json, math, statistics, sys
directory, tag, floor, label = sys.argv[1:5]
floor = float(floor)
KEY = "process_cpu_seconds_min"

def cells(side):
    """{cell name: sorted per-run minimum process CPU seconds}."""
    paths = sorted(glob.glob(f"{directory}/{tag}_{side}_*.json"))
    assert len(paths) >= 5, f"{label}: {len(paths)} {side} runs, need >= 5"
    out = {}
    for path in paths:
        with open(path) as f:
            record = json.load(f)
        for sample in record["samples"]:
            if sample.get("skipped"):
                continue
            value = sample["values"][KEY]
            out.setdefault(sample["name"], []).append(value)
    return {name: sorted(values) for name, values in out.items()}

def spread_pct(values):
    return (values[1] - values[0]) / values[0] * 100.0

base, armed = cells("base"), cells("armed")
deltas, noises = [], []
for name, cur in armed.items():
    ref = base.get(name)
    if ref is None or ref[0] <= 0 or len(ref) < 2 or len(cur) < 2:
        continue
    delta_pct = (cur[0] - ref[0]) / ref[0] * 100.0
    noise_pct = math.hypot(spread_pct(ref), spread_pct(cur))
    deltas.append(delta_pct)
    noises.append(noise_pct)
    print(f"  {name}: {delta_pct:+.2f}% (noise {noise_pct:.2f}%, "
          f"base {ref[0] * 1e3:.2f} ms)")
assert deltas, "no comparable cells between sinks-off and armed runs"
median_delta = statistics.median(deltas)
median_noise = statistics.median(noises)
threshold = max(floor, 3.0 * median_noise)
assert median_delta <= threshold, \
    f"{label} overhead beyond budget: median {median_delta:+.2f}% " \
    f"over {len(deltas)} cells (threshold {threshold:.2f}%)"
if threshold > floor:
    print(f"{label} overhead UNRESOLVED (threshold {threshold:.2f}% > "
          f"budget {floor:g}%): median {median_delta:+.2f}% over "
          f"{len(deltas)} cells; noise hides the budget on this host")
else:
    print(f"{label} overhead OK: median {median_delta:+.2f}% over "
          f"{len(deltas)} cells, threshold {threshold:.2f}% "
          f"({floor:g}% floor, 3x noise-gated)")
PY
}

# check_record FILE...: every --json_out run record has the v1 BenchResult
# shape (util/run_record.h) that overhead_gate and the legs below read:
# schema_version 1, the top-level fields with their JSON types, and a name
# plus wall/CPU stats on every measured (non-skipped) sample.
check_record() {
  python3 - "$@" <<'PY'
import json, sys
FIELDS = {"harness": str, "git": dict, "build": dict, "hardware": dict,
          "params": dict, "samples": list, "wall_seconds_total": (int, float),
          "peak_rss_bytes": int, "metrics": dict}
STATS = {"trials": int, "min": (int, float), "median": (int, float),
         "mean": (int, float), "stddev": (int, float), "max": (int, float)}
for path in sys.argv[1:]:
    with open(path) as f:
        record = json.load(f)
    version = record.get("schema_version")
    assert version == 1, f"{path}: schema_version {version!r}, expected 1"
    for field, kind in FIELDS.items():
        assert isinstance(record.get(field), kind), \
            f"{path}: field {field!r} missing or mistyped"
    measured = [s for s in record["samples"] if not s.get("skipped")]
    for i, sample in enumerate(measured):
        assert isinstance(sample.get("name"), str), f"{path}: sample {i} name"
        for series in ("wall_seconds", "cpu_seconds"):
            stats = sample.get(series)
            assert isinstance(stats, dict) and all(
                isinstance(stats.get(k), kind) for k, kind in STATS.items()), \
                f"{path}: {sample['name']}: {series} missing or mistyped"
    print(f"run record OK: {path} ({len(measured)} measured samples)")
PY
}
# 0. Static analysis. The project linter has no dependencies and always
# runs (self-test first, so a broken linter cannot pass a broken tree).
# clang-tidy and clang-format are optional in the CI image: their runners
# skip with a notice when the binaries are absent, and diff against the
# checked-in baselines when present, failing only on NEW findings.
echo "=== lint ==="
python3 tools/simj_lint.py --self-test
python3 tools/simj_lint.py
# statusz_poll parses with flame.py's folded-stack parser: test the parser
# first, before any build.
python3 tools/flame.py --self-test
python3 tools/statusz_poll.py --self-test
if command -v clang-format >/dev/null 2>&1; then
  clang-format --dry-run --Werror src/*/*.h src/*/*.cc tests/*.cc \
    tests/*.h bench/*.h bench/*.cpp examples/*.cpp
  echo "format OK"
else
  echo "format SKIPPED (clang-format not installed)"
fi

# 0a. Lock-order analysis (DESIGN.md §11): extract the static
# lock-acquisition graph from the simj::Mutex annotations and fail on any
# cycle (a potential ABBA deadlock). Pure python, always runs; self-test
# first so a broken extractor cannot bless a cyclic tree.
echo "=== lock order ==="
python3 tools/lock_order.py --self-test
python3 tools/lock_order.py --json /dev/null

# 0b. Thread-safety analysis (clang-only): the SIMJ_GUARDED_BY /
# SIMJ_REQUIRES contracts in src/ are no-op attributes under GCC, so this
# leg syntax-checks every src TU under clang's -Wthread-safety as errors,
# then proves the analysis is actually live by compiling
# tests/thread_safety_check.cc both ways (clean as-is, rejected with
# -DSIMJ_THREAD_SAFETY_EXPECT_FAIL). Skips with a notice when clang++ is
# absent from the CI image.
echo "=== thread safety (clang) ==="
if command -v clang++ >/dev/null 2>&1; then
  TS_FLAGS=(-std=c++20 -Isrc -fsyntax-only
            -Wthread-safety -Wthread-safety-beta
            -Werror=thread-safety -Werror=thread-safety-beta)
  for tu in src/*/*.cc; do
    clang++ "${TS_FLAGS[@]}" "${tu}"
  done
  clang++ "${TS_FLAGS[@]}" tests/thread_safety_check.cc
  if clang++ "${TS_FLAGS[@]}" -DSIMJ_THREAD_SAFETY_EXPECT_FAIL \
      tests/thread_safety_check.cc 2>/dev/null; then
    echo "ERROR: -Wthread-safety accepted an unannotated access to a"
    echo "SIMJ_GUARDED_BY field — the analysis is not actually running."
    exit 1
  fi
  echo "thread safety OK ($(ls src/*/*.cc | wc -l) TUs + expect-fail probe)"
else
  echo "thread safety SKIPPED (clang++ not installed; GCC ignores the"
  echo "  annotations — run this leg on a machine with clang to enforce them)"
fi

# 1. Release: the configuration benchmarks and users run. Warnings are
# errors in CI (-DSIMJ_WERROR=ON) in every configuration below; the build
# exports compile_commands.json for clang-tidy.
build_and_test build-release -DCMAKE_BUILD_TYPE=Release -DSIMJ_WERROR=ON
ctest --test-dir build-release --output-on-failure -j "${JOBS}"
python3 tools/run_clang_tidy.py --build-dir build-release

# 1x. Cluster simulator, widened: plain ctest runs the test's default seed
# count; CI differential-tests the sharded join against the serial oracle
# across 20 distinct fault schedules, both transports, 1-8 workers. Any
# assertion carries the failing seed in its scope trace, so a red run is
# reproducible with --seeds=1 after editing the seed base, or by rerunning
# the printed seed.
echo "=== cluster sim (20 seeds) ==="
./build-release/tests/cluster_sim_test --seeds=20

# 1y. Cluster observability smoke: a faulted 4-worker sharded join with the
# trace and flight-recorder sinks on. The merged Chrome trace must carry a
# named lane per worker and an attempt span for every shard execution the
# flight recorder saw — requeued retries included — and the events dump
# must satisfy the simj_flight_v1 schema with the restart story intact.
echo "=== cluster observability smoke ==="
CLUSTER_DIR="$(mktemp -d)"
trap 'rm -rf "${CLUSTER_DIR}"' EXIT
./build-release/bench/bench_shard_scaling \
  --workers=4 --transport=thread --max_pairs_per_shard=16 \
  --sim_seed=5 --death_probability=0.3 --slow_probability=0.1 \
  --num_certain=40 --num_uncertain=40 \
  --trace_out="${CLUSTER_DIR}/cluster_trace.json" \
  --events_out="${CLUSTER_DIR}/cluster_events.json" > /dev/null
python3 - "${CLUSTER_DIR}" <<'PY'
import json, sys
d = sys.argv[1]
with open(f"{d}/cluster_trace.json") as f:
    trace = json.load(f)
events = trace["traceEvents"]
lanes = {e["pid"]: e["args"]["name"]
         for e in events if e.get("name") == "process_name"}
for worker in range(4):
    assert f"worker-{worker}" in lanes.values(), \
        f"missing lane worker-{worker}: {lanes}"
assert lanes.get(1) == "simj", lanes

with open(f"{d}/cluster_events.json") as f:
    flight = json.load(f)
assert flight["schema"] == "simj_flight_v1", flight["schema"]
assert isinstance(flight["dropped"], int)
for event in flight["events"]:
    assert {"seq", "ts_us", "type", "worker", "shard", "attempt",
            "detail"} <= event.keys(), event
seqs = [e["seq"] for e in flight["events"]]
assert seqs == sorted(seqs), "flight events out of seq order"
by_type = {}
for e in flight["events"]:
    by_type.setdefault(e["type"], []).append(e)
assert by_type.get("requeue"), "fault plan injected no requeues"
assert by_type.get("restart"), "no worker restart recorded"
# One shared queue: shards are only ever dispatched, never dealt or stolen.
assert not {"deal", "steal"} & by_type.keys(), sorted(by_type)

# Every executed attempt (a dispatch) appears as a span in the executing
# worker's lane; requeued shards therefore show attempt>0 spans.
spans = {e["name"]: e for e in events if e["ph"] == "X"}
worker_pids = {name: pid for pid, name in lanes.items()}
for e in by_type.get("dispatch", []):
    name = f"shard-{e['shard']}/attempt-{e['attempt']}"
    assert name in spans, f"no span for executed attempt {name}"
    expected_pid = worker_pids[f"worker-{e['worker']}"]
    assert spans[name]["pid"] == expected_pid, (name, spans[name])
    assert spans[name]["args"]["trace_id"], name
retried = [e for e in by_type.get("requeue", [])
           if f"shard-{e['shard']}/attempt-{e['attempt'] + 1}" in spans]
assert retried, "no retried shard produced an attempt>0 span"
print(f"cluster observability OK: {len(lanes)} lanes, "
      f"{len(spans)} spans, {len(flight['events'])} flight events, "
      f"{len(by_type.get('requeue', []))} requeues, "
      f"{len(by_type.get('restart', []))} restarts")
PY

# 1a. Debug-checks: the full suite with every SIMJ_DCHECK live, so the
# internal invariants (GED postconditions, join counter identities, SimP
# ranges, per-input graph validation) are enforced on every test.
build_and_test build-dcheck -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DSIMJ_DEBUG_CHECKS=ON -DSIMJ_WERROR=ON
ctest --test-dir build-dcheck --output-on-failure -j "${JOBS}"

# 1b. Observability smoke: run a small join with every sink enabled, then
# validate that the Chrome trace is well-formed JSON with the expected span
# names, that the metrics exposition is non-empty, and that the run record
# has the v1 shape (check_record; every later leg checks its records too).
echo "=== observability smoke ==="
SMOKE_DIR="$(mktemp -d)"
trap 'rm -rf "${SMOKE_DIR}" "${CLUSTER_DIR}"' EXIT
./build-release/bench/bench_fig13_group_number \
  --num_certain=8 --num_uncertain=8 --threads=8 \
  --metrics_out="${SMOKE_DIR}/metrics.txt" \
  --trace_out="${SMOKE_DIR}/trace.json" \
  --json_out="${SMOKE_DIR}/result.json" \
  --log_json="${SMOKE_DIR}/log.jsonl" \
  --explain=1 --explain_every=16 \
  --explain_out="${SMOKE_DIR}/explains.txt" > /dev/null
python3 - "${SMOKE_DIR}" <<'PY'
import json, sys, collections
d = sys.argv[1]
with open(f"{d}/trace.json") as f:
    trace = json.load(f)
events = trace["traceEvents"]
assert events, "trace has no events"
for e in events:
    assert {"name", "ph", "pid", "tid"} <= e.keys(), e
    if e["ph"] == "X":
        assert "ts" in e and "dur" in e, e
names = {e["name"] for e in events if e["ph"] == "X"}
required = {"simjoin", "css_filter", "markov_filter", "group_partition",
            "verify", "ged_astar"}
missing = required - names
assert not missing, f"missing spans: {missing}"
tids = {e["tid"] for e in events if e["ph"] == "X"}
assert len(tids) > 1, f"expected spans from multiple workers, got tids={tids}"
metrics = open(f"{d}/metrics.txt").read()
assert "simj_join_pairs_total" in metrics, "exposition missing join counters"
assert "_bucket{le=" in metrics, "exposition missing histogram buckets"
explains = open(f"{d}/explains.txt").read()
assert "<q=" in explains, "explain dump is empty"
with open(f"{d}/log.jsonl") as f:
    log_lines = [json.loads(line) for line in f if line.strip()]
for entry in log_lines:
    assert {"ts", "level", "file", "line", "tid", "msg"} <= entry.keys(), entry
print(f"smoke OK: {len(events)} trace events, {len(tids)} worker lanes, "
      f"{len(metrics.splitlines())} exposition lines, "
      f"{len(log_lines)} structured log lines")
PY
check_record "${SMOKE_DIR}/result.json"

# 1cc. Profiler smoke (DESIGN.md §12): a faulted 4-worker forked-process
# cluster run with --profile_out must produce ONE merged simj_profile_v1
# record with a non-empty section for the coordinator and for every
# worker — samples crossed the pipe protocol from fork()ed children, were
# symbolized child-side, and merged under per-worker labels — while every
# (transport, workers) cell still reproduces the serial oracle
# (identical==1; the bench exits nonzero otherwise). Then the flamegraph
# pipeline renders the record to SVG, and the fig12 sweep is run with
# sampling armed at 99 Hz: its process-CPU overhead over interleaved
# sinks-off runs must stay under 0.5% (or within 3x the runs' noise on a
# noisy host; see overhead_gate).
#
# Fault plan: death_probability=0.03 with 64-pair shards (not leg 1y's
# 0.3/16). Deaths are a pure function of (seed, shard, attempt), so each
# join of the 158-shard plan loses the same 6 shard attempts, well inside
# the 4 workers' restart budget (max_worker_restarts=4 each): the forked
# workers run every shard, and the leg asserts that they ran most of them
# (fallback_shards), not the coordinator's inline fallback. At 0.1 every
# worker used up its restarts in every join and the fallback ran the
# rest. The pairs are 14-vertex, 18-edge graphs at tau=4, so verification
# dominates and each shard costs milliseconds of CPU, past the kernel's
# CPU-timer tick (~4 ms): every worker section held 57 or more samples in
# each of three runs on a 4-core host, in about 1 s.
#
# Symbolization: every worker section must name the A* search loop (an
# anonymous-namespace function in simj::ged, named from .symtab through
# libbacktrace), and frames left as bench_shard_scaling+0x... must sit in
# under 1% of each section's samples. PLT stubs are trampolines that no
# symbol table names, so frames inside the binary's .plt sections (found
# with readelf) are not counted.
echo "=== profiler smoke ==="
./build-release/bench/bench_shard_scaling \
  --workers=4 --transport=process --max_pairs_per_shard=64 \
  --sim_seed=5 --death_probability=0.03 --slow_probability=0.1 \
  --num_certain=100 --num_uncertain=100 \
  --num_vertices=14 --num_edges=18 --tau=4 \
  --profile_hz=1000 --profile_out="${SMOKE_DIR}/cluster_profile.json" \
  --json_out="${SMOKE_DIR}/cluster_profiled.json" > /dev/null
python3 - "${SMOKE_DIR}" <<'PY'
import json, sys
d = sys.argv[1]
with open(f"{d}/cluster_profile.json") as f:
    profile = json.load(f)
assert profile["schema"] == "simj_profile_v1", profile["schema"]
assert profile["hz"] == 1000, profile["hz"]
assert profile["samples"] > 0, "profile captured no samples"
for key in ("period_us", "duration_seconds", "dropped", "truncated"):
    assert key in profile, f"missing {key}"
sections = {s["label"]: s for s in profile["sections"]}
labels = sorted(sections)
assert "coordinator" in sections, labels
for worker in range(4):
    label = f"worker-{worker}"
    assert label in sections, f"missing section {label}: {labels}"
for label, section in sections.items():
    assert section["samples"] > 0, f"section {label} is empty"
    assert section["stacks"], f"section {label} has no stacks"
    for stack in section["stacks"]:
        assert stack["thread"] and stack["count"] > 0 and stack["frames"], \
            (label, stack)

import subprocess
binary = "bench_shard_scaling"
plt = []
for line in subprocess.run(["readelf", "-SW", f"build-release/bench/{binary}"],
                           check=True, capture_output=True,
                           text=True).stdout.splitlines():
    fields = line.replace("[ ", "[").split()
    if len(fields) > 5 and fields[1].startswith(".plt"):
        start = int(fields[3], 16)
        plt.append((start, start + int(fields[5], 16)))
def unnamed(frame):
    if not frame.startswith(binary + "+0x"):
        return False
    offset = int(frame.split("+")[1], 16)
    return not any(start <= offset < end for start, end in plt)
for worker in range(4):
    section = sections[f"worker-{worker}"]
    stacks = section["stacks"]
    assert any(f.startswith("simj::ged") and "Search" in f
               for stack in stacks for f in stack["frames"]), \
        f"worker-{worker} never names the A* search loop"
    lost = sum(stack["count"] for stack in stacks
               if any(unnamed(f) for f in stack["frames"]))
    assert lost < 0.01 * section["samples"], \
        f"worker-{worker}: {lost} of {section['samples']} samples unnamed"

with open(f"{d}/cluster_profiled.json") as f:
    record = json.load(f)
measured = [s for s in record["samples"] if not s.get("skipped")]
assert measured, "profiled cluster run measured nothing"
for sample in measured:
    values = sample["values"]
    assert values.get("identical") == 1.0, \
        f"profiled run diverged from the serial oracle: {sample['name']}"
    assert values["requeues"] > 0, "fault plan injected no requeues"
    assert values["fallback_shards"] < values["shards"] / 2, \
        f"the inline fallback ran most shards: {values}"
print(f"cluster profile OK: {profile['samples']} samples, "
      f"sections {labels}, dropped {profile['dropped']}, "
      f"{len(measured)} identical cells")
PY
python3 tools/flame.py "${SMOKE_DIR}/cluster_profile.json" \
  -o "${SMOKE_DIR}/cluster_flame.svg"
python3 - "${SMOKE_DIR}" <<'PY'
import sys
svg = open(f"{sys.argv[1]}/cluster_flame.svg").read()
assert svg.lstrip().startswith("<svg"), svg[:80]
assert "coordinator" in svg and "worker-0" in svg, "flamegraph lost sections"
print(f"flamegraph OK: {len(svg)} bytes of SVG")
PY
# Overhead gate (overhead_sweep and overhead_gate above): five sinks-off
# and five armed fig12 sweeps, interleaved, compared on per-cell process
# CPU time.
check_record "${SMOKE_DIR}/cluster_profiled.json"
overhead_sweep "${SMOKE_DIR}" fig12_prof \
  --profile_hz=99 --profile_out=@OUT@.profile.json
overhead_gate "${SMOKE_DIR}" fig12_prof 0.5 profiler

# 1cd. Heap smoke (DESIGN.md §13): the memory-axis mirror of leg 1cc. A
# faulted 4-worker forked-process cluster run with --heap_out must produce
# ONE merged simj_heap_v1 record with a non-empty section for the
# coordinator and for every worker — allocation samples were recorded by
# the countdown hooks inside fork()ed children, symbolized child-side,
# shipped as drain deltas over the pipe protocol, and merged under
# per-worker labels — while every (transport, workers) cell still
# reproduces the serial oracle. Then the flamegraph pipeline renders the
# record to SVG (alloc_bytes: cumulative allocation is monotone, so every
# shipped stack is renderable even when its live-byte delta went
# negative), and leg 1cc's fig12 sweep is rerun with the default
# 512 KiB/sample rate armed: its process-CPU overhead over interleaved
# sinks-off runs must stay under 1% (or within 3x the runs' noise).
#
# sample_bytes=4096 for the cluster capture (not the 512 KiB default): a
# forked child runs a few dozen 64-pair shards of the default 10-vertex
# graphs and allocates only a few hundred KiB, so at the default rate a
# worker section would be a coin flip — the assertion would test luck,
# not the delta-shipping plumbing. The fault plan is leg 1cc's (4
# requeues per join of this 135-shard plan, no fallback shard), and the
# leg asserts the same way that the forked workers ran most shards.
echo "=== heap smoke ==="
./build-release/bench/bench_shard_scaling \
  --workers=4 --transport=process --max_pairs_per_shard=64 \
  --sim_seed=5 --death_probability=0.03 --slow_probability=0.1 \
  --num_certain=100 --num_uncertain=100 \
  --heap_sample_bytes=4096 --heap_out="${SMOKE_DIR}/cluster_heap.json" \
  --json_out="${SMOKE_DIR}/cluster_heaped.json" > /dev/null
python3 - "${SMOKE_DIR}" <<'PY'
import json, sys
d = sys.argv[1]
with open(f"{d}/cluster_heap.json") as f:
    heap = json.load(f)
assert heap["schema"] == "simj_heap_v1", heap["schema"]
assert heap["sample_bytes"] == 4096, heap["sample_bytes"]
for key in ("duration_seconds", "inuse_bytes", "inuse_objects",
            "alloc_bytes", "alloc_objects", "dropped", "truncated"):
    assert key in heap, f"missing {key}"
assert heap["alloc_bytes"] > 0, "capture sampled no allocations"
sections = {s["label"]: s for s in heap["sections"]}
labels = sorted(sections)
assert "coordinator" in sections, labels
for worker in range(4):
    label = f"worker-{worker}"
    assert label in sections, f"missing section {label}: {labels}"
for label, section in sections.items():
    assert section["alloc_bytes"] > 0, f"section {label} saw no allocations"
    assert section["stacks"], f"section {label} has no stacks"
    for stack in section["stacks"]:
        assert stack["thread"] and stack["frames"], (label, stack)
        # Worker stacks are drain deltas: live counters may be negative
        # (freed after an earlier ship), cumulative ones never are.
        assert stack["alloc_bytes"] >= 0 and stack["alloc_objects"] >= 0, \
            (label, stack)

with open(f"{d}/cluster_heaped.json") as f:
    record = json.load(f)
measured = [s for s in record["samples"] if not s.get("skipped")]
assert measured, "heap-profiled cluster run measured nothing"
for sample in measured:
    values = sample["values"]
    assert values.get("identical") == 1.0, \
        f"heap-profiled run diverged from the serial oracle: {sample['name']}"
    assert values["requeues"] > 0, "fault plan injected no requeues"
    assert values["fallback_shards"] < values["shards"] / 2, \
        f"the inline fallback ran most shards: {values}"
print(f"cluster heap OK: {heap['alloc_objects']} sampled allocations "
      f"({heap['alloc_bytes']} bytes), sections {labels}, "
      f"dropped {heap['dropped']}, {len(measured)} identical cells")
PY
python3 tools/flame.py --metric alloc_bytes \
  "${SMOKE_DIR}/cluster_heap.json" -o "${SMOKE_DIR}/cluster_heap.svg"
python3 - "${SMOKE_DIR}" <<'PY'
import sys
svg = open(f"{sys.argv[1]}/cluster_heap.svg").read()
assert svg.lstrip().startswith("<svg"), svg[:80]
assert "coordinator" in svg and "worker-0" in svg, "heap flamegraph lost sections"
print(f"heap flamegraph OK: {len(svg)} bytes of SVG")
PY
# Overhead gate: same interleaved process-CPU protocol as leg 1cc, with
# a 1% floor — the armed allocation path does real work per new/delete
# (countdown decrement, and table bookkeeping on the sampled ones), so
# its budget is looser than the timer-driven CPU profiler's 0.5%.
check_record "${SMOKE_DIR}/cluster_heaped.json"
overhead_sweep "${SMOKE_DIR}" fig12_heap \
  --heap_sample_bytes=524288 --heap_out=@OUT@.heap.json
overhead_gate "${SMOKE_DIR}" fig12_heap 1 "heap profiler"

# 1d. Live-introspection smoke: the same join sweep twice, server-off then
# with --statusz_port on a fixed loopback port. A concurrent scraper hits
# all four endpoints mid-run and checks that /metricsz parses as Prometheus
# exposition, /statusz join progress is monotone in (joins_started,
# completed_pairs), and at least one sample shows nonzero progress with a
# finite ETA. The server-on run passes the pair-time budget
# (--slow_pair_ms) explicitly: its monitor thread, the heartbeats and
# /statusz run together at 8 threads, and at least one /statusz sample must
# list a worker heartbeat, which shows heartbeats arm with no request. The
# explain dumps from both runs must be byte-identical: the server and the
# watchdog observe the join, they never steer it. Both runs join 80x80
# graphs of 14 vertices and 18 edges, which takes over 3 s on a 4-core
# host: the default 16x16 sweep ended in about 0.15 s, before the
# scraper's first /statusz read.
echo "=== live introspection smoke ==="
STATUSZ_PORT=18573
LIVE_INPUT=(--num_certain=80 --num_uncertain=80 --num_vertices=14
            --num_edges=18)
./build-release/bench/bench_fig13_group_number \
  "${LIVE_INPUT[@]}" --threads=8 \
  --explain=1 --explain_every=1 \
  --explain_out="${SMOKE_DIR}/explains_off.txt" \
  --json_out="${SMOKE_DIR}/live_off.json" > /dev/null
./build-release/bench/bench_fig13_group_number \
  "${LIVE_INPUT[@]}" --threads=8 \
  --statusz_port="${STATUSZ_PORT}" --progress_every=64 --slow_pair_ms=1000 \
  --explain=1 --explain_every=1 \
  --explain_out="${SMOKE_DIR}/explains_on.txt" \
  --json_out="${SMOKE_DIR}/live_on.json" > /dev/null &
BENCH_PID=$!
python3 - "${STATUSZ_PORT}" <<'PY' || {
import json, sys, time, urllib.error, urllib.request
port = int(sys.argv[1])
base = f"http://127.0.0.1:{port}"

def get(path, timeout=2.0):
    with urllib.request.urlopen(base + path, timeout=timeout) as response:
        return response.read().decode("utf-8")

deadline = time.time() + 60
samples = []
heartbeat_samples = 0
metrics_ok = tracez_ok = healthz_ok = False
server_seen = False
while time.time() < deadline:
    try:
        status = json.loads(get("/statusz"))
    except (urllib.error.URLError, OSError, ConnectionError):
        if server_seen:
            break  # server gone: the bench finished and stopped it
        time.sleep(0.01)
        continue
    server_seen = True
    join = status.get("join") or {}
    samples.append((join.get("joins_started", 0),
                    join.get("completed_pairs", 0),
                    join.get("total_pairs", 0),
                    join.get("eta_seconds", -1.0)))
    if join.get("heartbeats"):
        heartbeat_samples += 1
    try:
        if not metrics_ok:
            text = get("/metricsz")
            # Minimal exposition parse: every non-comment line is
            # `name[{labels}] value` with a float value.
            for line in text.splitlines():
                if not line or line.startswith("#"):
                    continue
                name, _, value = line.rpartition(" ")
                assert name, f"bad exposition line: {line!r}"
                float(value)
            assert "simj_build_info{" in text, "missing simj_build_info gauge"
            assert "simj_join_pairs_total" in text, "missing join counters"
            metrics_ok = True
        if not tracez_ok:
            tracez = json.loads(get("/tracez"))
            assert "threads" in tracez, tracez
            tracez_ok = True
        if not healthz_ok:
            health = json.loads(get("/healthz"))
            assert health.get("status") in ("ok", "degraded"), health
            if health["status"] == "degraded":
                assert health.get("reason"), health
            healthz_ok = True
    except (urllib.error.URLError, OSError, ConnectionError):
        break
assert samples, "never scraped /statusz while the bench ran"
assert metrics_ok and tracez_ok and healthz_ok, \
    (metrics_ok, tracez_ok, healthz_ok)
previous = (0, 0)
live = 0
for joins, done, total, eta in samples:
    key = (joins, done)
    assert key >= previous, f"progress went backwards: {previous} -> {key}"
    previous = key
    if done > 0 and eta >= 0:
        live += 1
assert live > 0, f"no sample with nonzero progress and finite ETA: {samples}"
assert heartbeat_samples > 0, "no /statusz sample listed a worker heartbeat"
print(f"live scrape OK: {len(samples)} /statusz samples, "
      f"{live} with nonzero progress and finite ETA, "
      f"{heartbeat_samples} with a worker heartbeat")
PY
  kill "${BENCH_PID}" 2>/dev/null || true
  wait "${BENCH_PID}" 2>/dev/null || true
  exit 1
}
wait "${BENCH_PID}"
check_record "${SMOKE_DIR}/live_off.json" "${SMOKE_DIR}/live_on.json"
cmp "${SMOKE_DIR}/explains_off.txt" "${SMOKE_DIR}/explains_on.txt"
echo "live introspection OK: server-on explain dump identical to server-off"

# 2. ASan + UBSan: memory and UB bugs across the whole suite.
build_and_test build-asan -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DSIMJ_SANITIZE="address;undefined" -DSIMJ_WERROR=ON
ctest --test-dir build-asan --output-on-failure -j "${JOBS}"

# 3. TSan: the property/determinism tests run the parallel join's shared
# chunk cursor with up to 8 workers; run them (and the other threaded join
# tests) race-checked.
# cluster_sim_test rides along for the coordinator + in-process transport
# (its process transport self-disables under TSan: fork from a threaded
# parent deadlocks the TSan runtime, and the child shares no memory anyway).
# profiler_test and shard_test race-check the shared sampled-stack core's
# merge/accumulate paths and the shard frame codec (the CPU capture tests
# skip themselves: StartProfiling refuses under TSan). templates_test
# race-checks TemplateQa::Answer's thread-local alignment and tree-distance
# scratch with four threads sharing one TemplateQa. ged_diff_test runs the
# A* and greedy GED kernels from four threads at once over shared graphs,
# each thread on its own per-thread scratch. graph_test copies and
# restricts one shared UncertainGraph from four threads at once, so the
# copy-on-write structure's reference count is shared between threads.
if [[ "${1:-}" != "--skip-tsan" ]]; then
  build_and_test build-tsan -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DSIMJ_SANITIZE=thread -DSIMJ_WERROR=ON
  TSAN_OPTIONS="halt_on_error=1" ctest --test-dir build-tsan \
    --output-on-failure \
    -R 'join_property_test|join_determinism_test|join_test|metrics_test|trace_test|explain_test|log_test|statusz_test|progress_test|cluster_sim_test|flight_recorder_test|heap_profiler_test|profiler_test|shard_test|templates_test|ged_diff_test|graph_test'
fi

echo "CI OK"
