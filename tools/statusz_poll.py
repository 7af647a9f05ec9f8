#!/usr/bin/env python3
"""Poll a running harness's /statusz and render a one-line live summary.

A join launched with --statusz_port=8080 serves a JSON status document on
127.0.0.1 (see src/util/statusz.h). This tool scrapes it and prints

  [run] 1234/20000 pairs  6.2%  831.0 pairs/s  eta 22.6s  workers 8  \
rss 84 MB  hb w0:3ms w1:151ms  cluster 5/12 shards q=[2,1,0,3] requeued 1

once (the default) or repeatedly with --watch, overwriting the line in
place like a progress bar. The `hb` segment lists per-worker heartbeat
ages (present when the join runs with heartbeats armed); the `cluster`
segment summarizes /clusterz (live shard queue depths, per-worker state,
requeue/fallback totals) and is silently omitted for builds or runs
without a distributed coordinator — /clusterz answering 404 is not an
error. Exit status: 0 on a successful scrape, 2 when /statusz is
unreachable or returns malformed JSON.

With --profile=SECONDS the tool instead triggers an on-demand CPU capture
via /profilez (see util/profiler.h), saves the folded-stack output to
--profile_out (render it with tools/flame.py), and prints the top-5
hottest frames by self time. A 404 means the binary serves /statusz but
was built without the profiler — reported and exited 0, not an error; a
409 means another capture is already in flight.

With --heap=SECONDS it triggers an on-demand heap capture via /heapz (see
util/heap_profiler.h), saves the four-counter folded output to
--heap_out (render with tools/flame.py --metric inuse_bytes), and prints
the top-5 allocation sites by live (in-use) bytes. 404 (built without
the heap profiler, e.g. under a sanitizer) and 503 (profiler refused to
arm) are tolerated and exit 0; 409 means a capture is already running.

Usage:
  tools/statusz_poll.py [--port PORT] [--host HOST]
      [--watch] [--interval SECONDS]
  tools/statusz_poll.py --profile SECONDS [--hz HZ]
      [--profile_out FILE.folded]
  tools/statusz_poll.py --heap SECONDS [--sample_bytes N]
      [--heap_out FILE.folded]
  tools/statusz_poll.py --self-test
"""

import argparse
import contextlib
import io
import json
import os
import sys
import time
import urllib.error
import urllib.parse
import urllib.request

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import flame  # noqa: E402  (tools/flame.py: the folded-stack parser)


def fetch_status(host: str, port: int, timeout: float = 2.0) -> dict:
    url = f"http://{host}:{port}/statusz"
    with urllib.request.urlopen(url, timeout=timeout) as response:
        return json.loads(response.read().decode("utf-8"))


def fetch_clusterz(host: str, port: int, timeout: float = 2.0):
    """Best-effort /clusterz scrape; None when absent (404) or unreadable."""
    url = f"http://{host}:{port}/clusterz"
    try:
        with urllib.request.urlopen(url, timeout=timeout) as response:
            return json.loads(response.read().decode("utf-8"))
    except (urllib.error.URLError, OSError, json.JSONDecodeError, ValueError):
        return None


def leaf_sums(text: str, n_counts: int = 1):
    """(leaf -> per-column sums, per-column totals) from folded text.

    Each line is read by flame.parse_folded_line and its counters are
    credited to the stack's leaf frame — the function on-CPU, or the one
    that called the allocator — as flame.self_shares credits self time.
    Every column sums through, so drained (negative) in-use heap deltas
    subtract. Malformed lines are skipped rather than failing the capture.
    """
    leaves = {}
    totals = [0] * n_counts
    for line in text.splitlines():
        try:
            parsed = flame.parse_folded_line(line, n_counts)
        except ValueError:
            continue
        if parsed is None:
            continue
        frames, counts = parsed
        slot = leaves.setdefault(frames[-1], [0] * n_counts)
        for i, count in enumerate(counts):
            slot[i] += count
            totals[i] += count
    return leaves, totals


def top_leaves(leaves: dict, total: int, n: int = 5):
    """Top-n (leaf, sums, share_pct) by the first column, ties by name."""
    ranked = sorted(leaves.items(), key=lambda kv: (-kv[1][0], kv[0]))
    return [(leaf, sums, 100.0 * sums[0] / total if total > 0 else 0.0)
            for leaf, sums in ranked[:n]]


def format_bytes(n: int) -> str:
    """1234567 -> '1.2 MB'; negatives keep their sign (drained deltas)."""
    sign = "-" if n < 0 else ""
    n = abs(n)
    if n < 1024:
        return f"{sign}{n} B"
    for unit, scale in (("KB", 1024), ("MB", 1024 ** 2), ("GB", 1024 ** 3)):
        if n < scale * 1024 or unit == "GB":
            return f"{sign}{n / scale:.1f} {unit}"
    return f"{sign}{n} B"  # unreachable


def summarize_profile(body: str, out_path: str) -> None:
    leaves, (total,) = leaf_sums(body)
    print(f"statusz_poll: {total} samples across {len(leaves)} leaf frames "
          f"saved to {out_path} (render: tools/flame.py {out_path})")
    if total == 0:
        print("statusz_poll: no samples (idle process or window too short)")
        return
    print("top frames by self time:")
    for frame, (count,), share in top_leaves(leaves, total):
        print(f"  {share:5.1f}%  {count:>6}  {frame}")


def summarize_heap(body: str, out_path: str) -> None:
    leaves, totals = leaf_sums(body, len(flame.HEAP_METRICS))
    inuse_bytes, inuse_objects, alloc_bytes, alloc_objects = totals
    print(f"statusz_poll: {format_bytes(inuse_bytes)} live in "
          f"{inuse_objects} sampled objects ({format_bytes(alloc_bytes)} "
          f"allocated) across {len(leaves)} leaf frames saved to "
          f"{out_path} (render: tools/flame.py --metric inuse_bytes "
          f"{out_path})")
    if alloc_objects == 0:
        print("statusz_poll: no sampled allocations (quiet window or "
              "sample_bytes too large)")
        return
    print("top frames by live bytes:")
    for frame, (live, objects, _, _), share in top_leaves(leaves,
                                                          inuse_bytes):
        print(f"  {share:5.1f}%  {format_bytes(live):>10}  "
              f"{objects:>6} objs  {frame}")


def run_capture(url: str, seconds: float, announce: str, out_path: str,
                summarize, profiler: str, tolerated=(404,)) -> int:
    """Triggers a /profilez or /heapz capture at url, saves its folded body
    to out_path and prints summarize's top frames. Exit status 0 on
    success and on a tolerated status (404: built without the profiler;
    503: the profiler refused to arm), 2 on 409 and any other error."""
    endpoint = urllib.parse.urlsplit(url).path
    print(f"statusz_poll: capturing {announce} via {url}")
    try:
        # The server blocks for the whole capture window; give it margin.
        with urllib.request.urlopen(url, timeout=seconds + 15.0) as response:
            body = response.read().decode("utf-8", errors="replace")
    except urllib.error.HTTPError as error:
        detail = error.read().decode("utf-8", errors="replace").strip()
        if error.code == 404 and 404 in tolerated:
            print(f"statusz_poll: {endpoint} not found (404) — binary built "
                  f"without the {profiler}; nothing captured")
            return 0
        if error.code in tolerated:
            print(f"statusz_poll: {profiler} unavailable ({error.code}): "
                  f"{detail}")
            return 0
        if error.code == 409:
            print(f"statusz_poll: capture already in flight (409): {detail}",
                  file=sys.stderr)
        else:
            print(f"statusz_poll: {endpoint} failed ({error.code}): "
                  f"{detail}", file=sys.stderr)
        return 2
    except (urllib.error.URLError, OSError) as error:
        print(f"statusz_poll: cannot reach {url}: {error}", file=sys.stderr)
        return 2
    with open(out_path, "w", encoding="utf-8") as handle:
        handle.write(body)
    summarize(body, out_path)
    return 0


def render_heartbeats(join: dict) -> str:
    """`hb w0:3ms w1:151ms` from the join's per-worker heartbeat ages."""
    beats = join.get("heartbeats") or []
    if not beats:
        return ""
    parts = [
        f"w{b.get('worker', '?')}:{b.get('age_ms', 0.0):.0f}ms"
        for b in beats
    ]
    return "hb " + " ".join(parts)


def render_clusterz(clusterz: dict) -> str:
    """One segment summarizing the live distributed coordinator."""
    if not clusterz or not clusterz.get("active"):
        return ""
    coord = clusterz.get("coordinator") or {}
    workers = coord.get("workers") or []
    depths = ",".join(str(w.get("queue_depth", 0)) for w in workers)
    dead = sum(1 for w in workers if w.get("state") == "dead")
    segment = (
        f"cluster {coord.get('done', 0)}/{coord.get('num_shards', 0)} shards"
        f"  q=[{depths}]  requeued {coord.get('requeued', 0)}"
    )
    if coord.get("fallback", 0):
        segment += f"  fallback {coord['fallback']}"
    if dead:
        segment += f"  dead {dead}"
    return segment


def render_line(status: dict, clusterz: dict = None) -> str:
    join = status.get("join") or {}
    total = join.get("total_pairs", 0)
    done = join.get("completed_pairs", 0)
    pct = 100.0 * done / total if total else 0.0
    rate = join.get("pairs_per_second", 0.0)
    eta = join.get("eta_seconds", -1.0)
    eta_text = f"eta {eta:.1f}s" if eta >= 0 else "eta ?"
    state = "run" if join.get("active") else "idle"
    rss_mb = status.get("rss_bytes", 0) / (1024.0 * 1024.0)
    line = (
        f"[{state}] {done}/{total} pairs  {pct:.1f}%  {rate:.1f} pairs/s  "
        f"{eta_text}  workers {join.get('workers', 0)}  rss {rss_mb:.0f} MB"
    )
    for segment in (render_heartbeats(join), render_clusterz(clusterz or {})):
        if segment:
            line += "  " + segment
    return line


def self_test() -> int:
    status = {
        "rss_bytes": 88 * 1024 * 1024,
        "join": {
            "active": True,
            "total_pairs": 20000,
            "completed_pairs": 1234,
            "pairs_per_second": 831.0,
            "eta_seconds": 22.6,
            "workers": 8,
        },
    }
    line = render_line(status)
    assert "1234/20000 pairs" in line, line
    assert "6.2%" in line, line
    assert "eta 22.6s" in line, line
    assert "workers 8" in line, line
    assert "rss 88 MB" in line, line
    assert line.startswith("[run]"), line

    idle = render_line({"join": {"active": False, "total_pairs": 0}})
    assert idle.startswith("[idle]"), idle
    assert "eta ?" in idle, idle

    # A status document with no join section (harness before its first
    # join) must render, not crash.
    bare = render_line({"rss_bytes": 0})
    assert "0/0 pairs" in bare, bare

    # Heartbeat ages render per worker, in order.
    with_beats = render_line({
        "join": {
            "active": True,
            "total_pairs": 10,
            "heartbeats": [
                {"worker": 0, "age_ms": 3.2, "q": 1, "g": 2},
                {"worker": 2, "age_ms": 151.0, "q": 4, "g": 0},
            ],
        },
    })
    assert "hb w0:3ms w2:151ms" in with_beats, with_beats

    # /clusterz summary: queue depths, requeues, dead workers, fallback.
    clusterz = {
        "active": True,
        "coordinator": {
            "num_shards": 12,
            "done": 5,
            "requeued": 1,
            "fallback": 2,
            "workers": [
                {"worker": 0, "queue_depth": 2, "state": "alive"},
                {"worker": 1, "queue_depth": 0, "state": "dead"},
                {"worker": 2, "queue_depth": 3, "state": "alive"},
            ],
        },
    }
    with_cluster = render_line({"join": {"active": True}}, clusterz)
    assert "cluster 5/12 shards" in with_cluster, with_cluster
    assert "q=[2,0,3]" in with_cluster, with_cluster
    assert "requeued 1" in with_cluster, with_cluster
    assert "fallback 2" in with_cluster, with_cluster
    assert "dead 1" in with_cluster, with_cluster

    # No /clusterz (404 or single-process build) and inactive coordinators
    # add nothing to the line.
    assert render_clusterz(None) == ""
    assert render_clusterz({"active": False, "coordinator": None}) == ""
    assert "cluster" not in render_line({"join": {}}, None)

    def printed(function, *args):
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            function(*args)
        return buffer.getvalue()

    # --profile: self time goes to the leaf frame, malformed/comment/blank
    # lines are skipped, ties break by name.
    folded = (
        "# comment\n"
        "\n"
        "coordinator;main;Join;Verify 30\n"
        "coordinator;main;Join;Prune 55\n"
        "coordinator;t1;Join;Verify 10\n"
        "not a folded line\n"
        "coordinator;t1;Join;Expand 5\n"
    )
    leaves, totals = leaf_sums(folded)
    assert totals == [100], (leaves, totals)
    assert leaves == {"Verify": [40], "Prune": [55], "Expand": [5]}, leaves
    tie = top_leaves(leaf_sums("a;B 5\na;A 5\n")[0], 10)
    assert [frame for frame, *_ in tie] == ["A", "B"], tie
    assert leaf_sums("# nothing\n\n") == ({}, [0])
    summary = printed(summarize_profile, folded, "p.folded").splitlines()
    assert summary[0].startswith(
        "statusz_poll: 100 samples across 3 leaf frames saved to p.folded"), \
        summary
    assert summary[1:] == ["top frames by self time:",
                           "   55.0%      55  Prune",
                           "   40.0%      40  Verify",
                           "    5.0%       5  Expand"], summary
    assert "no samples" in printed(summarize_profile, "", "p.folded")

    # --heap: four counters aggregate onto the leaf frame; malformed lines
    # are skipped; negative in-use deltas (possible in drained remote
    # sections) sum through.
    heap_folded = (
        "# comment\n"
        "coordinator;main;Join;BuildIndex 4096 2 8192 4\n"
        "coordinator;t1;Join;BuildIndex 1024 1 1024 1\n"
        "coordinator;main;Join;Verify 512 1 2048 3\n"
        "worker-1;serve;Verify -256 -1 1024 2\n"
        "not heap folded\n"
        "also;not;heap 12\n"
    )
    heap_leaves, heap_totals = leaf_sums(heap_folded, 4)
    assert heap_totals == [5376, 3, 12288, 10], heap_totals
    assert heap_leaves["BuildIndex"] == [5120, 3, 9216, 5], heap_leaves
    assert heap_leaves["Verify"] == [256, 0, 3072, 5], heap_leaves
    summary = printed(summarize_heap, heap_folded, "h.folded").splitlines()
    assert summary[0].startswith(
        "statusz_poll: 5.2 KB live in 3 sampled objects (12.0 KB allocated) "
        "across 2 leaf frames saved to h.folded"), summary
    assert summary[1:] == ["top frames by live bytes:",
                           "   95.2%      5.0 KB       3 objs  BuildIndex",
                           "    4.8%       256 B       0 objs  Verify"], \
        summary
    # Zero-total in-use renders 0% shares rather than dividing by zero.
    freed = printed(summarize_heap, "a;X 0 0 64 1\n", "h.folded")
    assert freed.endswith("top frames by live bytes:\n"
                          "    0.0%         0 B       0 objs  X\n"), freed
    assert "no sampled allocations" in printed(summarize_heap, "", "h.folded")

    # run_capture's exit statuses, against a stubbed urlopen: 404 and the
    # heap profiler's 503 are tolerated, 409 and other errors are not.
    def stub_urlopen(code, body=b""):
        def urlopen(url, timeout):
            if code != 200:
                raise urllib.error.HTTPError(url, code, "stub", {},
                                             io.BytesIO(b"detail"))
            return contextlib.nullcontext(io.BytesIO(body))
        return urlopen

    profile = (summarize_profile, "profiler", (404,))
    heap = (summarize_heap, "heap profiler", (404, 503))
    real_urlopen = urllib.request.urlopen
    try:
        for capture, code, body, want in (
                (profile, 404, b"", 0), (heap, 404, b"", 0),
                (profile, 409, b"", 2), (heap, 409, b"", 2),
                (profile, 503, b"", 2), (heap, 503, b"", 0),
                (heap, 500, b"", 2), (profile, 200, b"a;B 5\n", 0),
                (profile, 200, b"a;B x\n", 0)):
            urllib.request.urlopen = stub_urlopen(code, body)
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                got = run_capture("http://127.0.0.1:1/profilez", 1.0, "stub",
                                  os.devnull, *capture)
            assert got == want, (capture, code, body, got)
    finally:
        urllib.request.urlopen = real_urlopen

    assert format_bytes(512) == "512 B", format_bytes(512)
    assert format_bytes(5376) == "5.2 KB", format_bytes(5376)
    assert format_bytes(3 * 1024 * 1024) == "3.0 MB"
    assert format_bytes(-2048) == "-2.0 KB", format_bytes(-2048)
    assert format_bytes(5 * 1024 ** 3) == "5.0 GB"

    print("statusz_poll.py self-test: OK")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8080)
    parser.add_argument("--watch", action="store_true",
                        help="poll until interrupted, updating one line")
    parser.add_argument("--interval", type=float, default=1.0,
                        help="seconds between polls with --watch")
    parser.add_argument("--profile", type=float, metavar="SECONDS",
                        help="trigger a /profilez capture of this many "
                             "seconds instead of polling /statusz")
    parser.add_argument("--hz", type=int, default=99,
                        help="sampling frequency for --profile")
    parser.add_argument("--profile_out", default="statusz_profile.folded",
                        help="where --profile saves the folded stacks")
    parser.add_argument("--heap", type=float, metavar="SECONDS",
                        help="trigger a /heapz capture of this many "
                             "seconds instead of polling /statusz")
    parser.add_argument("--sample_bytes", type=int, default=512 * 1024,
                        help="heap sampling interval for --heap "
                             "(bytes per sample, default 512 KiB)")
    parser.add_argument("--heap_out", default="statusz_heap.folded",
                        help="where --heap saves the folded stacks")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    if args.self_test:
        return self_test()
    if args.profile is not None:
        url = (f"http://{args.host}:{args.port}/profilez?seconds="
               f"{args.profile:g}&hz={args.hz}&format=folded")
        return run_capture(url, args.profile,
                           f"{args.profile:g}s at {args.hz} Hz",
                           args.profile_out, summarize_profile, "profiler")
    if args.heap is not None:
        url = (f"http://{args.host}:{args.port}/heapz?seconds={args.heap:g}"
               f"&sample_bytes={args.sample_bytes}&format=folded")
        return run_capture(url, args.heap,
                           f"heap for {args.heap:g}s (1 sample per "
                           f"~{args.sample_bytes} bytes)", args.heap_out,
                           summarize_heap, "heap profiler",
                           tolerated=(404, 503))

    try:
        while True:
            try:
                status = fetch_status(args.host, args.port)
            except (urllib.error.URLError, OSError, json.JSONDecodeError,
                    ValueError) as error:
                print(f"statusz_poll: cannot scrape "
                      f"http://{args.host}:{args.port}/statusz: {error}",
                      file=sys.stderr)
                return 2
            line = render_line(status, fetch_clusterz(args.host, args.port))
            if args.watch:
                print("\r\x1b[K" + line, end="", flush=True)
                time.sleep(args.interval)
            else:
                print(line)
                return 0
    except KeyboardInterrupt:
        print()
        return 0


if __name__ == "__main__":
    sys.exit(main())
