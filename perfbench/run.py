#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark of the join and of online Q/A.

Run from the root of a checkout:

    python3 perfbench/run.py --workload <er_filter|er_verify|er_sharded|qa> \
        --seed <n> --seconds <s> --trace <0|1>

The first run configures and builds perfbench/ (which compiles ../src) in
Release mode under .bench_build/; later runs only rebuild what changed.
The benchmark binary's report lines and its final JSON result line are
passed through to stdout; build output goes to stderr. Each run also
leaves a run record (provenance, report, result) under
.bench_build/records/ and, for traced runs, its spans under
.bench_build/traces/ (gzipped Chrome trace JSON). See perfbench/NOTES.md for the workloads and metrics.
"""

import argparse
import gzip
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
BUILD_TYPE = "Release"
WORKLOADS = ("er_filter", "er_verify", "er_sharded", "qa")
# Leaves headroom under the 180 s a run may take once built.
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no simj sources next to perfbench/ (expected ../src)")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    if subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(BUILD_DIR, "perfbench")


def source_id():
    """The git commit when the checkout is a repository, else a digest of
    the sources the binary is built from."""
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if sha.returncode == 0 and sha.stdout.strip():
            return "git:" + sha.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "sha256:" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    binary = build()
    name = "%s-seed%d-trace%s" % (args.workload, args.seed, args.trace)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", args.trace]
    trace_path = os.path.join(BUILD_ROOT, "traces", name + ".json")
    if args.trace == "1":
        os.makedirs(os.path.dirname(trace_path), exist_ok=True)
        command += ["--trace_out", trace_path]
    provenance = {"nproc": os.cpu_count(), "build_type": BUILD_TYPE,
                  "source": source_id(), "unix_time": time.time()}

    # subprocess.run kills and reaps its child on any exception, this one
    # included, so a terminated run leaves no benchmark process behind.
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark run exceeded %d s" % RUN_TIMEOUT_S)
    if run.returncode != 0:
        fail("benchmark exited with code %d" % run.returncode)
    lines = run.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        fail("benchmark printed no result line")

    if os.path.isfile(trace_path):
        with open(trace_path, "rb") as src, \
                gzip.open(trace_path + ".gz", "wb", compresslevel=1) as dst:
            shutil.copyfileobj(src, dst)
        os.remove(trace_path)
    os.makedirs(os.path.join(BUILD_ROOT, "records"), exist_ok=True)
    with open(os.path.join(BUILD_ROOT, "records", name + ".json"), "w") as f:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "trace": int(args.trace),
                   "provenance": provenance, "report": lines[:-1],
                   "result": result}, f, indent=2)
    print("# provenance: nproc=%s build_type=%s source=%s" %
          (provenance["nproc"], BUILD_TYPE, provenance["source"]))
    sys.stdout.write(run.stdout if run.stdout.endswith("\n")
                     else run.stdout + "\n")
    sys.stdout.flush()


if __name__ == "__main__":
    main()
