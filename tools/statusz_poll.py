#!/usr/bin/env python3
"""Poll a running harness's /statusz and render a one-line live summary.

A join launched with --statusz_port=8080 serves a JSON status document on
127.0.0.1 (see src/util/statusz.h). This tool scrapes it and prints

  [run] 1234/20000 pairs  6.2%  831.0 pairs/s  eta 22.6s  workers 8  \
rss 84 MB  hb w0:3ms w1:151ms  cluster 5/12 shards q=[2,1,0,3] requeued 1

once (the default) or repeatedly with --watch, overwriting the line in
place like a progress bar. The `hb` segment lists per-worker heartbeat
ages (present while a join runs); the `cluster`
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

Usage:
  tools/statusz_poll.py [--port PORT] [--host HOST]
      [--watch] [--interval SECONDS]
  tools/statusz_poll.py --profile SECONDS [--hz HZ]
      [--profile_out FILE.folded]
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


def leaf_sums(text: str):
    """(leaf -> self samples, total samples) from folded text.

    Each line is read by flame.parse_folded_line and credited to its leaf
    frame by flame.leaf_totals. Malformed lines are skipped rather than
    failing the capture.
    """
    stacks = []
    for line in text.splitlines():
        try:
            parsed = flame.parse_folded_line(line)
        except ValueError:
            continue
        if parsed is not None:
            frames, (count,) = parsed
            stacks.append((frames, count))
    return flame.leaf_totals(stacks)


def top_leaves(leaves: dict, total: int, n: int = 5):
    """Top-n (leaf, count, share_pct) by count, ties by name."""
    ranked = sorted(leaves.items(), key=lambda kv: (-kv[1], kv[0]))
    return [(leaf, count, 100.0 * count / total if total > 0 else 0.0)
            for leaf, count in ranked[:n]]


def summarize_profile(body: str, out_path: str) -> None:
    leaves, total = leaf_sums(body)
    print(f"statusz_poll: {total} samples across {len(leaves)} leaf frames "
          f"saved to {out_path} (render: tools/flame.py {out_path})")
    if total == 0:
        print("statusz_poll: no samples (idle process or window too short)")
        return
    print("top frames by self time:")
    for frame, count, share in top_leaves(leaves, total):
        print(f"  {share:5.1f}%  {count:>6}  {frame}")


def run_capture(url: str, seconds: float, announce: str,
                out_path: str) -> int:
    """Triggers a /profilez capture at url, saves its folded body to
    out_path and prints the top frames. Exit status 0 on success and on
    404 (built without the profiler), 2 on 409, 503 and any other error."""
    print(f"statusz_poll: capturing {announce} via {url}")
    try:
        # The server blocks for the whole capture window; give it margin.
        with urllib.request.urlopen(url, timeout=seconds + 15.0) as response:
            body = response.read().decode("utf-8", errors="replace")
    except urllib.error.HTTPError as error:
        detail = error.read().decode("utf-8", errors="replace").strip()
        if error.code == 404:
            print("statusz_poll: /profilez not found (404) — binary built "
                  "without the profiler; nothing captured")
            return 0
        if error.code == 409:
            print(f"statusz_poll: capture already in flight (409): {detail}",
                  file=sys.stderr)
        else:
            print(f"statusz_poll: /profilez failed ({error.code}): "
                  f"{detail}", file=sys.stderr)
        return 2
    except (urllib.error.URLError, OSError) as error:
        print(f"statusz_poll: cannot reach {url}: {error}", file=sys.stderr)
        return 2
    with open(out_path, "w", encoding="utf-8") as handle:
        handle.write(body)
    summarize_profile(body, out_path)
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
    dead = sum(1 for w in workers if w.get("state") == "dead")
    segment = (
        f"cluster {coord.get('done', 0)}/{coord.get('num_shards', 0)} shards"
        f"  queued {coord.get('queued', 0)}  requeued {coord.get('requeued', 0)}"
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

    # /clusterz summary: queued shards, requeues, dead workers, fallback.
    clusterz = {
        "active": True,
        "coordinator": {
            "num_shards": 12,
            "done": 5,
            "queued": 4,
            "requeued": 1,
            "fallback": 2,
            "workers": [
                {"worker": 0, "state": "alive"},
                {"worker": 1, "state": "dead"},
                {"worker": 2, "state": "alive"},
            ],
        },
    }
    with_cluster = render_line({"join": {"active": True}}, clusterz)
    assert "cluster 5/12 shards" in with_cluster, with_cluster
    assert "queued 4" in with_cluster, with_cluster
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
    leaves, total = leaf_sums(folded)
    assert total == 100, (leaves, total)
    assert leaves == {"Verify": 40, "Prune": 55, "Expand": 5}, leaves
    tie = top_leaves(leaf_sums("a;B 5\na;A 5\n")[0], 10)
    assert [frame for frame, *_ in tie] == ["A", "B"], tie
    assert leaf_sums("# nothing\n\n") == ({}, 0)
    summary = printed(summarize_profile, folded, "p.folded").splitlines()
    assert summary[0].startswith(
        "statusz_poll: 100 samples across 3 leaf frames saved to p.folded"), \
        summary
    assert summary[1:] == ["top frames by self time:",
                           "   55.0%      55  Prune",
                           "   40.0%      40  Verify",
                           "    5.0%       5  Expand"], summary
    assert "no samples" in printed(summarize_profile, "", "p.folded")

    # run_capture's exit statuses, against a stubbed urlopen: 404 is
    # tolerated, 409 and other errors are not.
    def stub_urlopen(code, body=b""):
        def urlopen(url, timeout):
            if code != 200:
                raise urllib.error.HTTPError(url, code, "stub", {},
                                             io.BytesIO(b"detail"))
            return contextlib.nullcontext(io.BytesIO(body))
        return urlopen

    real_urlopen = urllib.request.urlopen
    try:
        for code, body, want in (
                (404, b"", 0), (409, b"", 2), (503, b"", 2),
                (200, b"a;B 5\n", 0), (200, b"a;B x\n", 0)):
            urllib.request.urlopen = stub_urlopen(code, body)
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                got = run_capture("http://127.0.0.1:1/profilez", 1.0, "stub",
                                  os.devnull)
            assert got == want, (code, body, got)
    finally:
        urllib.request.urlopen = real_urlopen

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
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    if args.self_test:
        return self_test()
    if args.profile is not None:
        url = (f"http://{args.host}:{args.port}/profilez?seconds="
               f"{args.profile:g}&hz={args.hz}&format=folded")
        return run_capture(url, args.profile,
                           f"{args.profile:g}s at {args.hz} Hz",
                           args.profile_out)

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
