#!/usr/bin/env python3
"""Compare two BenchResult run records (util/run_record.h, --json_out=).

Matches samples across the two records by (harness, sample name) — the
sample name is a pure function of the measured join configuration — and
reports per-sample wall-time and CPU-time deltas of the trial medians
(CPU rows carry a " [cpu]" suffix), plus one whole-process peak-RSS
delta row. Deltas are noise-aware: a change only counts as a
regression/improvement when it exceeds both --min_delta_pct and
--noise_sigmas combined trial standard deviations, so a jittery 2%
wobble on a noisy sample is not a finding while a clean 2% shift on a
tight sample can be. Peak RSS is a single point per record (no trials),
so its noise term is zero and only --min_delta_pct gates it.

When both records embed a `simj_profile_v1` profile (--profile_out=, see
util/profiler.h), the comparison also names the top-N symbols whose
self-time share regressed between the two profiles — warn-only triage
notes pointing at *which code* got hotter, alongside the sample deltas
saying *how much* slower. When both embed a `simj_heap_v1` record
(--heap_out=, see util/heap_profiler.h) it likewise names the top-N
allocation sites (leaf frames) whose live bytes grew beyond the sampled
profile's own statistical noise — warn-only, pointing at *which code*
holds more memory when peak RSS moves.

Exit status:
  0  no regression beyond --fail_above_pct (or no --fail_above_pct given:
     report-only mode always exits 0 unless inputs are malformed)
  1  at least one regression beyond --fail_above_pct
  2  malformed input (unreadable file, schema mismatch)

Usage:
  tools/bench_compare.py BASELINE.json CURRENT.json
      [--fail_above_pct PCT] [--min_delta_pct PCT] [--noise_sigmas N]
  tools/bench_compare.py --schema-check FILE [FILE...]
  tools/bench_compare.py --self-test

The schema is versioned (schema_version); this tool understands version 1
and refuses other versions rather than misreading them.
"""

import argparse
import json
import math
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import flame  # noqa: E402  (tools/flame.py: leaf-frame aggregation)

SUPPORTED_SCHEMA_VERSIONS = (1,)

# Fields every version-1 record must carry, with their JSON types.
V1_REQUIRED = {
    "schema_version": int,
    "harness": str,
    "git": dict,
    "build": dict,
    "hardware": dict,
    "params": dict,
    "samples": list,
    "wall_seconds_total": (int, float),
    "peak_rss_bytes": int,
    "metrics": dict,
}

V1_STATS_REQUIRED = {
    "trials": int,
    "min": (int, float),
    "median": (int, float),
    "mean": (int, float),
    "stddev": (int, float),
    "max": (int, float),
}


class SchemaError(Exception):
    pass


def validate_record(record, origin="<record>"):
    """Raises SchemaError unless `record` is a well-formed v1 BenchResult."""
    if not isinstance(record, dict):
        raise SchemaError(f"{origin}: top level must be a JSON object")
    for field, kind in V1_REQUIRED.items():
        if field not in record:
            raise SchemaError(f"{origin}: missing field '{field}'")
        if not isinstance(record[field], kind):
            raise SchemaError(
                f"{origin}: field '{field}' has type "
                f"{type(record[field]).__name__}"
            )
    version = record["schema_version"]
    if version not in SUPPORTED_SCHEMA_VERSIONS:
        raise SchemaError(
            f"{origin}: schema_version {version} not supported "
            f"(supported: {list(SUPPORTED_SCHEMA_VERSIONS)})"
        )
    for i, sample in enumerate(record["samples"]):
        where = f"{origin}: samples[{i}]"
        if not isinstance(sample, dict) or "name" not in sample:
            raise SchemaError(f"{where}: must be an object with a 'name'")
        for series in ("wall_seconds", "cpu_seconds"):
            stats = sample.get(series)
            if not isinstance(stats, dict):
                raise SchemaError(f"{where}: missing '{series}' stats")
            for field, kind in V1_STATS_REQUIRED.items():
                if not isinstance(stats.get(field), kind):
                    raise SchemaError(
                        f"{where}: {series}.{field} missing or mistyped"
                    )
        if not isinstance(sample.get("values", {}), dict):
            raise SchemaError(f"{where}: 'values' must be an object")
        # Optional within v1: harnesses mark configurations they declined
        # to measure (e.g. a 4-thread scaling row on a 2-core host) with
        # "skipped": true. Absence means false — no schema bump.
        if not isinstance(sample.get("skipped", False), bool):
            raise SchemaError(f"{where}: 'skipped' must be a boolean")
    # Optional within v1: profiled runs (--profile_out=) embed the raw
    # simj_profile_v1 object under "profile". Absence means unprofiled —
    # no schema bump. Deep validation of the profile body belongs to the
    # profiler's own schema (util/profiler.h, ci.sh smoke leg); here we
    # only insist it is an object so compare_profiles can sniff it.
    if "profile" in record and not isinstance(record["profile"], dict):
        raise SchemaError(f"{origin}: 'profile' must be an object")
    # Optional within v1: heap-profiled runs (--heap_out=) embed the raw
    # simj_heap_v1 object under "heap". Same contract as "profile".
    if "heap" in record and not isinstance(record["heap"], dict):
        raise SchemaError(f"{origin}: 'heap' must be an object")
    return record


def load_record(path):
    try:
        with open(path, encoding="utf-8") as handle:
            record = json.load(handle)
    except (OSError, json.JSONDecodeError) as error:
        raise SchemaError(f"{path}: {error}") from error
    return validate_record(record, origin=path)


# ---------------------------------------------------------------------------
# Comparison
# ---------------------------------------------------------------------------


# Distributed-scheduler counters compared across the two records' embedded
# metrics snapshots. A jump in steals/requeues/restarts between runs of
# the same bench often explains a wall-time delta (fault injection turned
# on, a flakier host) — surfaced as warn-only notes, never an exit status:
# scheduling churn is workload-dependent, not a regression by itself.
SCHEDULER_COUNTERS = (
    "simj_dist_steals_total",
    "simj_dist_shards_requeued_total",
    "simj_dist_worker_restarts_total",
)


def compare_scheduler_counters(baseline, current):
    """Warn-only notes for distributed-scheduler counter changes."""
    base_counters = baseline.get("metrics", {}).get("counters", {})
    cur_counters = current.get("metrics", {}).get("counters", {})
    notes = []
    for name in SCHEDULER_COUNTERS:
        if name not in base_counters and name not in cur_counters:
            continue  # single-process bench: no dist counters at all
        base_value = base_counters.get(name, 0)
        cur_value = cur_counters.get(name, 0)
        if base_value == cur_value:
            continue
        notes.append(
            f"scheduler counter {name}: {base_value} -> {cur_value} "
            f"({cur_value - base_value:+d}, warn-only)"
        )
    return notes


class Delta:
    """One matched measurement's median change, classified against noise.

    `unit` selects formatting only ("s" for seconds, "bytes" for RSS);
    the classification math is identical for every unit.
    """

    def __init__(self, name, base_stats, cur_stats, min_delta_pct,
                 noise_sigmas, unit="s"):
        self.name = name
        self.unit = unit
        self.base_median = base_stats["median"]
        self.cur_median = cur_stats["median"]
        if self.base_median > 0:
            self.delta_pct = (
                (self.cur_median - self.base_median) / self.base_median * 100.0
            )
            combined_stddev = math.hypot(
                base_stats["stddev"], cur_stats["stddev"]
            )
            self.noise_pct = combined_stddev / self.base_median * 100.0
        else:
            self.delta_pct = 0.0
            self.noise_pct = 0.0
        self.threshold_pct = max(min_delta_pct, noise_sigmas * self.noise_pct)
        if self.delta_pct > self.threshold_pct:
            self.verdict = "REGRESSION"
        elif self.delta_pct < -self.threshold_pct:
            self.verdict = "IMPROVEMENT"
        else:
            self.verdict = "ok"

    def _format_value(self, value):
        if self.unit == "bytes":
            return f"{value / 1048576.0:.1f} MiB"
        return f"{value:.6f}s"

    def __str__(self):
        return (
            f"{self.verdict:>11}  {self.name}: "
            f"{self._format_value(self.base_median)} -> "
            f"{self._format_value(self.cur_median)} "
            f"({self.delta_pct:+.1f}%, noise ±{self.noise_pct:.1f}%, "
            f"threshold {self.threshold_pct:.1f}%)"
        )


def record_stacks(record, counter):
    """(frames, value) for each stack of an embedded profile or heap record
    that has frames and an integer `counter`; records come from disk, so
    anything else is skipped rather than trusted."""
    stacks = []
    for section in record.get("sections", []):
        for stack in section.get("stacks", []):
            frames = stack.get("frames", [])
            value = stack.get(counter, 0)
            if frames and isinstance(value, int):
                stacks.append((frames, value))
    return stacks


def compare_profiles(baseline, current, top_n=5):
    """Warn-only notes naming symbols whose self-time share regressed.

    Requires both records to carry an embedded simj_profile_v1 object
    (--profile_out= wiring in bench_util.h); silent otherwise — most runs
    are unprofiled and that must not look like a finding.
    """
    base_prof = baseline.get("profile")
    cur_prof = current.get("profile")
    if not isinstance(base_prof, dict) or not isinstance(cur_prof, dict):
        return []
    for origin, prof in (("baseline", base_prof), ("current", cur_prof)):
        if prof.get("schema") != "simj_profile_v1":
            return [f"embedded {origin} profile has unknown schema "
                    f"{prof.get('schema')!r}; profile diff skipped"]
    # A stack's samples go to its leaf frame, the function on-CPU,
    # matching flame-graph self time.
    base_counts, base_total = flame.leaf_totals(
        s for s in record_stacks(base_prof, "count") if s[1] > 0)
    cur_counts, cur_total = flame.leaf_totals(
        s for s in record_stacks(cur_prof, "count") if s[1] > 0)
    if base_total == 0 or cur_total == 0:
        return ["embedded profile has no samples; profile diff skipped"]
    moves = []
    for symbol in set(base_counts) | set(cur_counts):
        base_share = base_counts.get(symbol, 0) / base_total * 100.0
        cur_share = cur_counts.get(symbol, 0) / cur_total * 100.0
        moves.append((cur_share - base_share, symbol, base_share, cur_share))
    moves.sort(key=lambda m: (-m[0], m[1]))
    notes = []
    for delta_pp, symbol, base_share, cur_share in moves[:top_n]:
        if delta_pp <= 0:
            break  # sorted desc: nothing hotter beyond this point
        notes.append(
            f"profile self-time regressed: {symbol} "
            f"{base_share:.1f}% -> {cur_share:.1f}% ({delta_pp:+.1f}pp, "
            "warn-only)"
        )
    return notes


def _mib(n):
    return f"{n / 1048576.0:.1f} MiB"


def compare_heaps(baseline, current, top_n=5, noise_sigmas=3.0):
    """Warn-only notes naming leaf frames whose live bytes grew.

    Requires both records to carry an embedded simj_heap_v1 object
    (--heap_out= wiring in bench_util.h); silent otherwise. Gating is
    stddev-aware for the *sampling* noise inherent to a sampled heap
    profile: a leaf holding B bytes was estimated from roughly
    B / sample_bytes samples, so its standard error is about
    sqrt(B * sample_bytes). A growth only becomes a note when it exceeds
    `noise_sigmas` combined standard errors — a one-sample wobble on a
    coarsely-sampled profile is not a finding.
    """
    base_heap = baseline.get("heap")
    cur_heap = current.get("heap")
    if not isinstance(base_heap, dict) or not isinstance(cur_heap, dict):
        return []
    for origin, heap in (("baseline", base_heap), ("current", cur_heap)):
        if heap.get("schema") != "simj_heap_v1":
            return [f"embedded {origin} heap record has unknown schema "
                    f"{heap.get('schema')!r}; heap diff skipped"]
    base_sb = max(int(base_heap.get("sample_bytes", 0)), 1)
    cur_sb = max(int(cur_heap.get("sample_bytes", 0)), 1)
    # Live bytes per leaf frame, the function that called the allocator,
    # so growth attributes to the allocation site.
    base_counts, _ = flame.leaf_totals(record_stacks(base_heap, "inuse_bytes"))
    cur_counts, _ = flame.leaf_totals(record_stacks(cur_heap, "inuse_bytes"))
    moves = []
    for leaf in set(base_counts) | set(cur_counts):
        base_bytes = base_counts.get(leaf, 0)
        cur_bytes = cur_counts.get(leaf, 0)
        delta = cur_bytes - base_bytes
        sigma = math.sqrt(max(base_bytes, 0) * base_sb
                          + max(cur_bytes, 0) * cur_sb)
        if delta > noise_sigmas * sigma:
            moves.append((delta, leaf, base_bytes, cur_bytes, sigma))
    moves.sort(key=lambda m: (-m[0], m[1]))
    notes = []
    for delta, leaf, base_bytes, cur_bytes, sigma in moves[:top_n]:
        notes.append(
            f"heap inuse grew: {leaf} {_mib(base_bytes)} -> "
            f"{_mib(cur_bytes)} ({_mib(delta)} more, beyond "
            f"{noise_sigmas:g} sigma ~ {_mib(noise_sigmas * sigma)} "
            "sampling noise, warn-only)"
        )
    return notes


def compare_records(baseline, current, min_delta_pct=2.0, noise_sigmas=3.0,
                    profile_top=5):
    """Returns (deltas, missing_names, added_names, notes)."""
    notes = []
    if baseline["harness"] != current["harness"]:
        notes.append(
            "harness mismatch: baseline "
            f"'{baseline['harness']}' vs current '{current['harness']}' — "
            "samples are matched by name anyway, interpret with care"
        )
    if baseline["params"] != current["params"]:
        notes.append(
            f"params differ: baseline {baseline['params']} vs "
            f"current {current['params']}"
        )
    skipped = sorted(
        {s["name"] for s in baseline["samples"] if s.get("skipped")}
        | {s["name"] for s in current["samples"] if s.get("skipped")}
    )
    for name in skipped:
        notes.append(f"sample skipped (not compared): {name}")
    base_samples = {s["name"]: s for s in baseline["samples"]
                    if not s.get("skipped")}
    cur_samples = {s["name"]: s for s in current["samples"]
                   if not s.get("skipped")}
    deltas = []
    for name in base_samples:
        if name not in cur_samples:
            continue
        deltas.append(
            Delta(name, base_samples[name]["wall_seconds"],
                  cur_samples[name]["wall_seconds"], min_delta_pct,
                  noise_sigmas))
        deltas.append(
            Delta(f"{name} [cpu]", base_samples[name]["cpu_seconds"],
                  cur_samples[name]["cpu_seconds"], min_delta_pct,
                  noise_sigmas))
    # Peak RSS is one point per record, not a trial series: synthesize a
    # zero-stddev Stats so the same classifier applies with noise = 0 and
    # only --min_delta_pct gating the verdict.
    base_rss = baseline["peak_rss_bytes"]
    cur_rss = current["peak_rss_bytes"]
    if base_rss > 0:
        deltas.append(
            Delta("peak_rss_bytes (whole process)",
                  {"median": float(base_rss), "stddev": 0.0},
                  {"median": float(cur_rss), "stddev": 0.0},
                  min_delta_pct, noise_sigmas, unit="bytes"))
    deltas.sort(key=lambda d: -d.delta_pct)
    missing = sorted(set(base_samples) - set(cur_samples) - set(skipped))
    added = sorted(set(cur_samples) - set(base_samples) - set(skipped))
    notes.extend(compare_scheduler_counters(baseline, current))
    notes.extend(compare_profiles(baseline, current, profile_top))
    notes.extend(compare_heaps(baseline, current, profile_top, noise_sigmas))
    return deltas, missing, added, notes


def run_compare(args):
    try:
        baseline = load_record(args.baseline)
        current = load_record(args.current)
    except SchemaError as error:
        print(f"bench_compare: {error}", file=sys.stderr)
        return 2
    deltas, missing, added, notes = compare_records(
        baseline, current, args.min_delta_pct, args.noise_sigmas,
        args.profile_top
    )
    print(
        f"bench_compare: {baseline['harness']} "
        f"(baseline {baseline.get('git', {}).get('sha', '')[:12] or '?'} vs "
        f"current {current.get('git', {}).get('sha', '')[:12] or '?'})"
    )
    for note in notes:
        print(f"  note: {note}")
    for name in missing:
        print(f"  note: sample only in baseline: {name}")
    for name in added:
        print(f"  note: sample only in current: {name}")
    for delta in deltas:
        print(f"  {delta}")
    if not deltas:
        print("  no matching samples")
    regressions = [d for d in deltas if d.verdict == "REGRESSION"]
    if args.fail_above_pct is not None:
        failing = [
            d for d in regressions if d.delta_pct > args.fail_above_pct
        ]
        if failing:
            print(
                f"bench_compare: FAIL — {len(failing)} regression(s) beyond "
                f"--fail_above_pct={args.fail_above_pct}"
            )
            return 1
    if regressions:
        print(f"bench_compare: {len(regressions)} regression(s) (warn-only)")
    else:
        print("bench_compare: OK")
    return 0


def run_schema_check(paths):
    status = 0
    for path in paths:
        try:
            record = load_record(path)
        except SchemaError as error:
            print(f"bench_compare: {error}", file=sys.stderr)
            status = 2
            continue
        print(
            f"{path}: OK (schema v{record['schema_version']}, "
            f"harness {record['harness']}, {len(record['samples'])} samples)"
        )
    return status


# ---------------------------------------------------------------------------
# Self test
# ---------------------------------------------------------------------------


def make_record(medians, stddev=0.001, harness="bench_selftest"):
    """A synthetic v1 record with one sample per (name -> median wall s)."""
    samples = []
    for name, median in medians.items():
        stats = {
            "trials": 3,
            "min": median - stddev,
            "median": median,
            "mean": median,
            "stddev": stddev,
            "max": median + stddev,
        }
        samples.append(
            {
                "name": name,
                "wall_seconds": dict(stats),
                "cpu_seconds": dict(stats),
                "values": {"results": 42},
            }
        )
    return {
        "schema_version": 1,
        "harness": harness,
        "unix_time_seconds": 0.0,
        "git": {"sha": "f" * 40, "dirty": False},
        "build": {
            "compiler": "testc 1.0",
            "build_type": "Release",
            "sanitizers": "",
            "debug_checks": False,
        },
        "hardware": {"hardware_concurrency": 8, "page_size_bytes": 4096},
        "params": {"threads": "1", "repeat": "3"},
        "samples": samples,
        "wall_seconds_total": sum(medians.values()) * 4,
        "peak_rss_bytes": 100 << 20,
        "metrics": {"counters": {}, "gauges": {}, "histograms": {}},
    }


def self_test(repo):
    failures = []

    def check(condition, what):
        if not condition:
            failures.append(what)

    base = make_record({"eff tau=2": 1.0, "eff tau=3": 2.0})
    validate_record(base, "synthetic")

    # Identical runs: no regression, no improvement.
    deltas, missing, added, _ = compare_records(base, make_record(
        {"eff tau=2": 1.0, "eff tau=3": 2.0}))
    check(all(d.verdict == "ok" for d in deltas), "identical runs flagged")
    check(not missing and not added, "identical runs mismatched samples")

    # A synthetic 20% slowdown on one sample must be detected — on both
    # the wall row and its companion [cpu] row (make_record mirrors the
    # stats into cpu_seconds).
    slow = make_record({"eff tau=2": 1.2, "eff tau=3": 2.0})
    deltas, _, _, _ = compare_records(base, slow)
    by_name = {d.name: d for d in deltas}
    check(by_name["eff tau=2"].verdict == "REGRESSION",
          "20% slowdown not detected")
    check(by_name["eff tau=2 [cpu]"].verdict == "REGRESSION",
          "20% CPU slowdown not detected")
    check(by_name["eff tau=3"].verdict == "ok",
          "unchanged sample misflagged")

    # A 20% speedup is an improvement, not a regression.
    fast = make_record({"eff tau=2": 0.8, "eff tau=3": 2.0})
    deltas, _, _, _ = compare_records(base, fast)
    by_name = {d.name: d for d in deltas}
    check(by_name["eff tau=2"].verdict == "IMPROVEMENT",
          "20% speedup not reported as improvement")

    # A 2% wobble on a noisy sample (stddev 5% of median) stays quiet ...
    noisy_base = make_record({"eff noisy": 1.0}, stddev=0.05)
    noisy_cur = make_record({"eff noisy": 1.02}, stddev=0.05)
    deltas, _, _, _ = compare_records(noisy_base, noisy_cur)
    check({d.name: d for d in deltas}["eff noisy"].verdict == "ok",
          "noisy 2% wobble misflagged")
    # ... but the same 2% shift on a tight sample (stddev 0.1%) is real —
    # noise awareness must scale the threshold, not blanket-suppress.
    tight_base = make_record({"eff tight": 1.0}, stddev=0.001)
    tight_cur = make_record({"eff tight": 1.05}, stddev=0.001)
    deltas, _, _, _ = compare_records(tight_base, tight_cur)
    check({d.name: d for d in deltas}["eff tight"].verdict == "REGRESSION",
          "tight 5% shift missed")

    # Added/removed samples are reported, not silently dropped.
    deltas, missing, added, _ = compare_records(
        base, make_record({"eff tau=2": 1.0, "eff tau=4": 1.0}))
    check(missing == ["eff tau=3"], "missing sample not reported")
    check(added == ["eff tau=4"], "added sample not reported")

    # Schema validation: rejects wrong versions and missing fields.
    bad_version = make_record({"x": 1.0})
    bad_version["schema_version"] = 99
    try:
        validate_record(bad_version, "bad-version")
        check(False, "schema_version 99 accepted")
    except SchemaError:
        pass
    bad_fields = make_record({"x": 1.0})
    del bad_fields["peak_rss_bytes"]
    try:
        validate_record(bad_fields, "bad-fields")
        check(False, "missing peak_rss_bytes accepted")
    except SchemaError:
        pass

    # "skipped": true is valid v1 (a <4-core host skips scaling rows) and
    # excludes the sample from comparison on either side.
    with_skip = make_record({"scaling t=1": 1.0, "scaling t=4": 0.0})
    for sample in with_skip["samples"]:
        if sample["name"] == "scaling t=4":
            sample["skipped"] = True
    validate_record(with_skip, "with-skip")
    deltas, missing, added, notes = compare_records(
        with_skip, make_record({"scaling t=1": 1.0, "scaling t=4": 0.9}))
    check(not any("scaling t=4" in d.name for d in deltas),
          "skipped sample entered delta comparison")
    check(not missing and not added,
          "skipped sample misreported as missing/added")
    check(any("skipped" in note for note in notes),
          "skipped sample not surfaced as a note")
    bad_skip = make_record({"x": 1.0})
    bad_skip["samples"][0]["skipped"] = "yes"
    try:
        validate_record(bad_skip, "bad-skip")
        check(False, "non-boolean 'skipped' accepted")
    except SchemaError:
        pass

    # Scheduler-counter comparison: changes surface as warn-only notes and
    # never flip a verdict or the exit path.
    dist_base = make_record({"shard w=4": 1.0})
    dist_base["metrics"]["counters"] = {
        "simj_dist_steals_total": 3,
        "simj_dist_shards_requeued_total": 0,
        "simj_dist_worker_restarts_total": 0,
    }
    dist_cur = make_record({"shard w=4": 1.0})
    dist_cur["metrics"]["counters"] = {
        "simj_dist_steals_total": 9,
        "simj_dist_shards_requeued_total": 4,
        "simj_dist_worker_restarts_total": 2,
    }
    deltas, _, _, notes = compare_records(dist_base, dist_cur)
    check(all(d.verdict == "ok" for d in deltas),
          "counter churn flipped a wall-time verdict")
    check(any("simj_dist_steals_total: 3 -> 9 (+6" in n for n in notes),
          "steal counter change not noted")
    check(any("simj_dist_shards_requeued_total: 0 -> 4" in n for n in notes),
          "requeue counter change not noted")
    check(any("simj_dist_worker_restarts_total: 0 -> 2" in n for n in notes),
          "restart counter change not noted")
    # A counter present on one side only compares against 0; identical
    # values and single-process records (no dist counters) stay silent.
    one_sided = make_record({"shard w=4": 1.0})
    one_sided["metrics"]["counters"] = {"simj_dist_steals_total": 5}
    notes = compare_scheduler_counters(make_record({"shard w=4": 1.0}),
                                       one_sided)
    check(notes == ["scheduler counter simj_dist_steals_total: 0 -> 5 "
                    "(+5, warn-only)"], f"one-sided counter notes: {notes}")
    check(compare_scheduler_counters(dist_base, dist_base) == [],
          "identical counters produced notes")
    check(compare_scheduler_counters(make_record({"a": 1.0}),
                                     make_record({"a": 1.0})) == [],
          "single-process records produced scheduler notes")

    # Peak RSS compares through the same classifier: a 30% bloat is a
    # regression row, a 1% wobble (under --min_delta_pct) stays quiet,
    # and a zero-RSS baseline produces no row rather than dividing by it.
    rss_base = make_record({"eff tau=2": 1.0})
    rss_cur = make_record({"eff tau=2": 1.0})
    rss_cur["peak_rss_bytes"] = int(rss_base["peak_rss_bytes"] * 1.30)
    deltas, _, _, _ = compare_records(rss_base, rss_cur)
    rss_rows = [d for d in deltas if d.unit == "bytes"]
    check(len(rss_rows) == 1 and rss_rows[0].verdict == "REGRESSION",
          "30% RSS bloat not detected")
    check("MiB" in str(rss_rows[0]), "RSS row not formatted in MiB")
    rss_cur["peak_rss_bytes"] = int(rss_base["peak_rss_bytes"] * 1.01)
    deltas, _, _, _ = compare_records(rss_base, rss_cur)
    rss_rows = [d for d in deltas if d.unit == "bytes"]
    check(rss_rows[0].verdict == "ok", "1% RSS wobble misflagged")
    rss_zero = make_record({"eff tau=2": 1.0})
    rss_zero["peak_rss_bytes"] = 0
    deltas, _, _, _ = compare_records(rss_zero, rss_cur)
    check(not any(d.unit == "bytes" for d in deltas),
          "zero-RSS baseline produced an RSS row")

    # A CPU-only regression (wall flat, e.g. more threads burning the same
    # wall time) is caught by the [cpu] row.
    cpu_base = make_record({"eff tau=2": 1.0})
    cpu_cur = make_record({"eff tau=2": 1.0})
    for sample in cpu_cur["samples"]:
        for field in ("min", "median", "mean", "max"):
            sample["cpu_seconds"][field] *= 1.25
    deltas, _, _, _ = compare_records(cpu_base, cpu_cur)
    by_name = {d.name: d for d in deltas}
    check(by_name["eff tau=2"].verdict == "ok",
          "flat wall time misflagged alongside CPU regression")
    check(by_name["eff tau=2 [cpu]"].verdict == "REGRESSION",
          "CPU-only regression missed")

    # Embedded-profile diff: names the symbols whose self-time share grew.
    def make_profile(symbol_counts):
        total = sum(symbol_counts.values())
        return {
            "schema": "simj_profile_v1",
            "hz": 99,
            "period_us": 10101.01,
            "duration_seconds": 1.0,
            "samples": total,
            "dropped": 0,
            "truncated": 0,
            "sections": [{
                "label": "coordinator",
                "samples": total,
                "dropped": 0,
                "truncated": 0,
                "stacks": [
                    {"thread": "main", "count": count,
                     "frames": ["Run", symbol]}
                    for symbol, count in sorted(symbol_counts.items())
                ],
            }],
        }

    prof_base = make_record({"eff tau=2": 1.0})
    prof_base["profile"] = make_profile({"Verify": 30, "Prune": 70})
    prof_cur = make_record({"eff tau=2": 1.0})
    prof_cur["profile"] = make_profile({"Verify": 60, "Prune": 40})
    validate_record(prof_base, "with-profile")
    notes = compare_profiles(prof_base, prof_cur)
    check(len(notes) == 1 and "Verify" in notes[0] and "+30.0pp" in notes[0],
          f"profile self-time regression not named: {notes}")
    check(not any("Prune" in n for n in notes),
          "improved symbol misreported as profile regression")
    # Unprofiled records (the common case) must stay silent, and the diff
    # rides through compare_records as notes.
    check(compare_profiles(make_record({"x": 1.0}),
                           make_record({"x": 1.0})) == [],
          "unprofiled records produced profile notes")
    _, _, _, notes = compare_records(prof_base, prof_cur)
    check(any("profile self-time regressed: Verify" in n for n in notes),
          "profile diff not surfaced through compare_records")
    # --profile_top bounds the list.
    wide_base = make_record({"x": 1.0})
    wide_base["profile"] = make_profile(
        {f"Sym{i}": 10 for i in range(8)} | {"Cold": 920})
    wide_cur = make_record({"x": 1.0})
    wide_cur["profile"] = make_profile(
        {f"Sym{i}": 100 for i in range(8)} | {"Cold": 200})
    check(len(compare_profiles(wide_base, wide_cur, top_n=3)) == 3,
          "--profile_top did not bound the regression list")
    # A mangled embedded profile degrades to a note, never a crash.
    bad_prof = make_record({"x": 1.0})
    bad_prof["profile"] = {"schema": "simj_profile_v99"}
    notes = compare_profiles(bad_prof, prof_cur)
    check(len(notes) == 1 and "unknown schema" in notes[0],
          "unknown profile schema not surfaced")
    not_dict = make_record({"x": 1.0})
    not_dict["profile"] = "folded text"
    try:
        validate_record(not_dict, "bad-profile")
        check(False, "non-object 'profile' accepted")
    except SchemaError:
        pass

    # Embedded-heap diff: names leaf frames whose live bytes grew beyond
    # the sampling noise; shrinks and sub-noise wobbles stay silent.
    def make_heap(leaf_inuse, sample_bytes=4096):
        return {
            "schema": "simj_heap_v1",
            "sample_bytes": sample_bytes,
            "duration_seconds": 1.0,
            "sections": [{
                "label": "coordinator",
                "stacks": [
                    {"thread": "main", "inuse_bytes": inuse,
                     "inuse_objects": max(inuse // 1024, 1),
                     "alloc_bytes": inuse * 2,
                     "alloc_objects": max(inuse // 512, 1),
                     "frames": ["Run", leaf]}
                    for leaf, inuse in sorted(leaf_inuse.items())
                ],
            }],
        }

    heap_base = make_record({"eff tau=2": 1.0})
    heap_base["heap"] = make_heap({"BuildIndex": 4 << 20, "Verify": 1 << 20})
    heap_cur = make_record({"eff tau=2": 1.0})
    heap_cur["heap"] = make_heap({"BuildIndex": 16 << 20, "Verify": 1 << 19})
    validate_record(heap_base, "with-heap")
    notes = compare_heaps(heap_base, heap_cur)
    check(len(notes) == 1 and "BuildIndex" in notes[0]
          and "4.0 MiB -> 16.0 MiB" in notes[0] and "warn-only" in notes[0],
          f"heap inuse growth not named: {notes}")
    check(not any("Verify" in n for n in notes),
          "shrinking leaf misreported as heap growth")
    # A growth smaller than noise_sigmas standard errors of the sampling
    # estimate is gated: 16 KiB growth on a 512 KiB-sampled profile is
    # within one sample's wobble.
    wobble_base = make_record({"x": 1.0})
    wobble_base["heap"] = make_heap({"BuildIndex": 4 << 20},
                                    sample_bytes=512 * 1024)
    wobble_cur = make_record({"x": 1.0})
    wobble_cur["heap"] = make_heap({"BuildIndex": (4 << 20) + (16 << 10)},
                                   sample_bytes=512 * 1024)
    check(compare_heaps(wobble_base, wobble_cur) == [],
          "sub-noise heap wobble misflagged")
    # Unheaped records (the common case) stay silent; the diff rides
    # through compare_records as notes; unknown schemas degrade to a note.
    check(compare_heaps(make_record({"x": 1.0}),
                        make_record({"x": 1.0})) == [],
          "unheaped records produced heap notes")
    _, _, _, notes = compare_records(heap_base, heap_cur)
    check(any("heap inuse grew: BuildIndex" in n for n in notes),
          "heap diff not surfaced through compare_records")
    bad_heap = make_record({"x": 1.0})
    bad_heap["heap"] = {"schema": "simj_heap_v99"}
    notes = compare_heaps(bad_heap, heap_cur)
    check(len(notes) == 1 and "unknown schema" in notes[0],
          "unknown heap schema not surfaced")
    heap_not_dict = make_record({"x": 1.0})
    heap_not_dict["heap"] = "folded text"
    try:
        validate_record(heap_not_dict, "bad-heap")
        check(False, "non-object 'heap' accepted")
    except SchemaError:
        pass
    # A leaf present only in current compares against zero bytes.
    new_leaf_cur = make_record({"x": 1.0})
    new_leaf_cur["heap"] = make_heap({"BuildIndex": 4 << 20,
                                      "Spill": 8 << 20})
    notes = compare_heaps(heap_base, new_leaf_cur)
    check(any("Spill" in n and "0.0 MiB -> 8.0 MiB" in n for n in notes),
          f"new allocation site not reported: {notes}")

    # The checked-in golden record (tests/golden) must satisfy the schema —
    # it is the contract between the C++ writer and this reader.
    golden = os.path.join(repo, "tests", "golden", "bench_result_v1.json")
    if os.path.exists(golden):
        try:
            record = load_record(golden)
            check(record["harness"] == "bench_golden",
                  "golden record harness drifted")
        except SchemaError as error:
            check(False, f"golden record fails schema: {error}")
    else:
        check(False, f"golden record missing: {golden}")

    for failure in failures:
        print(f"self-test: {failure}")
    if not failures:
        print("self-test OK: 47 cases")
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("baseline", nargs="?")
    parser.add_argument("current", nargs="?")
    parser.add_argument("--fail_above_pct", type=float, default=None,
                        help="exit 1 when a sample regresses beyond this "
                             "percentage (default: warn-only)")
    parser.add_argument("--min_delta_pct", type=float, default=2.0,
                        help="ignore deltas smaller than this percentage")
    parser.add_argument("--noise_sigmas", type=float, default=3.0,
                        help="ignore deltas within this many combined trial "
                             "standard deviations")
    parser.add_argument("--profile_top", type=int, default=5,
                        help="when both records embed a profile, name at "
                             "most this many regressed self-time symbols")
    parser.add_argument("--schema-check", nargs="+", metavar="FILE",
                        help="validate FILEs against the schema and exit")
    parser.add_argument("--self-test", action="store_true",
                        help="verify the comparator against synthetic runs")
    args = parser.parse_args()

    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if args.self_test:
        sys.exit(self_test(repo))
    if args.schema_check:
        sys.exit(run_schema_check(args.schema_check))
    if not args.baseline or not args.current:
        parser.error("need BASELINE and CURRENT records (or --self-test / "
                     "--schema-check)")
    sys.exit(run_compare(args))


if __name__ == "__main__":
    main()
