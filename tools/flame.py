#!/usr/bin/env python3
"""Render simj CPU and heap profiles as self-contained SVG flamegraphs.

Input is either Brendan-Gregg folded-stack text (one
"section;thread;root;...;leaf count" line per aggregated stack — what
/profilez?format=folded and prof::FoldedText emit) or a `simj_profile_v1`
JSON record (what --profile_out writes); the format is sniffed from the
first non-space byte. The SVG is a static icicle layout — frames widen
with their inclusive sample count, nested by call depth, with <title>
tooltips carrying exact counts and percentages — and needs no JavaScript
or external assets.

Heap profiles (`simj_heap_v1`, from --heap_out) carry four
counters per stack — inuse_bytes inuse_objects alloc_bytes alloc_objects
— instead of one sample count. Select the rendered counter with
--metric; heap folded text has the four counters as trailing columns and
needs --metric too (the default `samples` expects the one-count CPU
shape). Heap stacks whose selected counter is <= 0 (possible for in-use
deltas drained mid-capture) are skipped — a flame frame cannot have
negative width. JSON stacks with no frames or a non-integer counter are
skipped too: captures are read from disk, not trusted.

Modes:
  tools/flame.py profile.json -o flame.svg       # render one profile
  tools/flame.py --metric inuse_bytes heap.json  # heap: live bytes
  tools/flame.py --diff old.json new.json        # hot-path delta report
  tools/flame.py --self-test                     # offline unit checks

--diff compares per-symbol self-time *shares* (fraction of total samples
in which the symbol is the leaf frame), so two captures of different
lengths compare cleanly; it prints the top-N symbols whose share moved,
worst regression first. With a heap --metric it compares shares of that
counter instead. Exit status: 0 on success (including a diff with no
movement), 2 on malformed input.
"""

import argparse
import html
import json
import sys

# Layout constants (pixels). Width is fixed; depth grows the height.
WIDTH = 1200
ROW_HEIGHT = 17
TEXT_PAD = 3
MIN_LABEL_WIDTH = 35  # below this, draw the rect but skip the label
FONT_SIZE = 11

# Warm palette cycled by depth so adjacent rows are distinguishable
# without per-symbol hashing (keeps the SVG byte-stable across runs).
PALETTE = [
    "#e4572e", "#e98a15", "#f2a33c", "#d1495b", "#c75146",
    "#ba5a31", "#e26d5c", "#d68c45", "#f4a259", "#bc4b51",
]


# Heap folded lines carry these four counters, in this column order,
# after the semicolon-joined stack (the simj_heap_v1 stack fields).
HEAP_METRICS = ("inuse_bytes", "inuse_objects", "alloc_bytes",
                "alloc_objects")


def metric_unit(metric):
    """Display unit for a --metric value ("samples" for CPU)."""
    if metric.endswith("_bytes"):
        return "bytes"
    if metric.endswith("_objects"):
        return "objects"
    return "samples"


def _is_int(token):
    try:
        int(token)
    except ValueError:
        return False
    return True


def parse_folded_line(line, n_counts=1):
    """One folded line -> (frames_tuple, [count, ...]), None if blank or a
    #-comment. n_counts is 1 for CPU text and len(HEAP_METRICS) for heap
    text; every counter is returned, negative ones included. Raises
    ValueError on a malformed line.
    """
    line = line.strip()
    if not line or line.startswith("#"):
        return None
    tokens = line.split(" ")
    if len(tokens) <= n_counts:
        raise ValueError("no count field")
    if (n_counts == 1 and len(tokens) > len(HEAP_METRICS)
            and all(_is_int(t) for t in tokens[-len(HEAP_METRICS):])):
        raise ValueError(f"four trailing counters look like heap folded "
                         f"text; pass --metric {'/'.join(HEAP_METRICS)}")
    try:
        counts = [int(t) for t in tokens[-n_counts:]]
    except ValueError as error:
        raise ValueError(f"bad count in {tokens[-n_counts:]!r}") from error
    frames = tuple(f for f in " ".join(tokens[:-n_counts]).split(";") if f)
    if not frames:
        raise ValueError("empty stack")
    return frames, counts


def parse_folded(text, metric="samples"):
    """Folded text -> list of (frames_tuple, count).

    The section and thread fields are kept as the two outermost frames so
    one graph shows coordinator vs worker sections side by side. With a
    heap metric each line must end in the four heap counters; the
    requested column is selected and non-positive stacks are dropped.
    """
    column = HEAP_METRICS.index(metric) if metric in HEAP_METRICS else None
    n_counts = 1 if column is None else len(HEAP_METRICS)
    stacks = []
    for line_number, line in enumerate(text.splitlines(), start=1):
        try:
            parsed = parse_folded_line(line, n_counts)
        except ValueError as error:
            raise ValueError(f"line {line_number}: {error}") from error
        if parsed is None:
            continue
        frames, counts = parsed
        count = counts[0] if column is None else counts[column]
        if column is not None and count <= 0:
            continue
        stacks.append((frames, count))
    return stacks


def capture_stacks(record, counter):
    """(frames_tuple, value) for each stack of a parsed simj_profile_v1
    ("count") or simj_heap_v1 (a HEAP_METRICS counter) record.

    The section label and thread become the two outermost frames, as in
    folded text. Stacks with no frames or a non-integer counter are
    skipped.
    """
    stacks = []
    for section in record.get("sections", []):
        label = section.get("label", "?")
        for stack in section.get("stacks", []):
            frames = stack.get("frames")
            value = stack.get(counter, 0)
            if not frames or not isinstance(value, int):
                continue
            stacks.append(((label, stack.get("thread", "?"), *frames), value))
    return stacks


def load_stacks(text, metric="samples"):
    """Sniffs JSON vs folded text; returns (stacks, resolved_metric).

    The resolved metric differs from the argument only when a
    simj_heap_v1 record arrives without an explicit heap metric, in which
    case it defaults to inuse_bytes (live memory is the usual question).
    """
    stripped = text.lstrip()
    if not stripped.startswith("{"):
        return parse_folded(text, metric), metric
    record = json.loads(stripped)
    schema = record.get("schema")
    if schema == "simj_heap_v1":
        if metric == "samples":
            metric = "inuse_bytes"
        return [s for s in capture_stacks(record, metric) if s[1] > 0], metric
    if schema != "simj_profile_v1":
        raise ValueError(f"not a simj_profile_v1 or simj_heap_v1 record "
                         f"(schema={schema!r})")
    if metric in HEAP_METRICS:
        raise ValueError(f"--metric {metric} needs a simj_heap_v1 record "
                         f"(schema={schema!r})")
    return capture_stacks(record, "count"), metric


class Node:
    """One frame in the merged call tree."""

    __slots__ = ("name", "total", "self_count", "children")

    def __init__(self, name):
        self.name = name
        self.total = 0       # inclusive samples
        self.self_count = 0  # samples with this frame as the leaf
        self.children = {}   # name -> Node, insertion-ordered


def build_tree(stacks):
    root = Node("all")
    for frames, count in stacks:
        root.total += count
        node = root
        for frame in frames:
            child = node.children.get(frame)
            if child is None:
                child = node.children[frame] = Node(frame)
            child.total += count
            node = child
        node.self_count += count
    return root


def tree_depth(node):
    if not node.children:
        return 1
    return 1 + max(tree_depth(child) for child in node.children.values())


def render_svg(stacks, title="simj CPU profile", unit="samples"):
    """Static icicle SVG: root row on top, leaves at the bottom."""
    root = build_tree(stacks)
    if root.total <= 0:
        raise ValueError(f"profile contains no {unit}")
    depth = tree_depth(root)
    height = depth * ROW_HEIGHT + 40
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
        f'height="{height}" font-family="monospace" '
        f'font-size="{FONT_SIZE}">',
        f'<rect width="{WIDTH}" height="{height}" fill="#fdf6ec"/>',
        f'<text x="{WIDTH / 2:.0f}" y="16" text-anchor="middle" '
        f'font-size="14">{html.escape(title)} '
        f'({root.total} {unit})</text>',
    ]

    def emit(node, x, row, width):
        y = 28 + row * ROW_HEIGHT
        color = PALETTE[row % len(PALETTE)]
        pct = 100.0 * node.total / root.total
        tooltip = f"{node.name}: {node.total} {unit} ({pct:.2f}%)"
        if node.self_count:
            tooltip += f", {node.self_count} self"
        parts.append(
            f'<g><title>{html.escape(tooltip)}</title>'
            f'<rect x="{x:.2f}" y="{y}" width="{max(width, 0.5):.2f}" '
            f'height="{ROW_HEIGHT - 1}" fill="{color}" stroke="#fdf6ec" '
            f'stroke-width="0.5"/>')
        if width >= MIN_LABEL_WIDTH:
            label = html.escape(_fit_label(node.name, width))
            parts.append(
                f'<text x="{x + TEXT_PAD:.2f}" y="{y + ROW_HEIGHT - 5}" '
                f'fill="#241c15">{label}</text>')
        parts.append("</g>")
        child_x = x
        for child in node.children.values():
            child_width = width * child.total / node.total
            emit(child, child_x, row + 1, child_width)
            child_x += child_width

    emit(root, 0.0, 0, float(WIDTH))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _fit_label(name, width):
    max_chars = max(int((width - 2 * TEXT_PAD) / (FONT_SIZE * 0.62)), 1)
    if len(name) <= max_chars:
        return name
    if max_chars <= 2:
        return name[:max_chars]
    return name[: max_chars - 2] + ".."


def leaf_totals(stacks):
    """(leaf -> summed count, grand total) over (frames, count) stacks.

    Each stack's count is credited to its leaf frame: the function on-CPU
    (self time) or the one that called the allocator. Counts sum as they
    are, so negative in-use heap deltas subtract.
    """
    totals = {}
    grand_total = 0
    for frames, count in stacks:
        grand_total += count
        leaf = frames[-1]
        totals[leaf] = totals.get(leaf, 0) + count
    return totals, grand_total


def self_shares(stacks):
    """symbol -> fraction of all samples where it is the leaf frame."""
    totals, grand_total = leaf_totals(stacks)
    if grand_total == 0:
        return {}
    return {name: count / grand_total for name, count in totals.items()}


def diff_report(old_stacks, new_stacks, top_n=10):
    """Top-N symbols by absolute self-share movement, regressions first.

    Returns a list of (symbol, old_share, new_share, delta) with delta =
    new - old; positive delta means the symbol burns a larger share now.
    """
    old = self_shares(old_stacks)
    new = self_shares(new_stacks)
    rows = []
    for symbol in set(old) | set(new):
        old_share = old.get(symbol, 0.0)
        new_share = new.get(symbol, 0.0)
        delta = new_share - old_share
        if abs(delta) > 1e-12:
            rows.append((symbol, old_share, new_share, delta))
    rows.sort(key=lambda row: -row[3])
    return rows[:top_n]


def format_diff(rows):
    if not rows:
        return "no self-time movement between the two profiles\n"
    lines = ["self-time share movement (new - old), regressions first:"]
    width = max(len(row[0]) for row in rows)
    for symbol, old_share, new_share, delta in rows:
        lines.append(f"  {symbol:<{width}}  {old_share * 100:6.2f}% -> "
                     f"{new_share * 100:6.2f}%  ({delta * 100:+.2f}%)")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Self-test.


def self_test():
    checks = 0

    def check(condition, message):
        nonlocal checks
        checks += 1
        if not condition:
            raise AssertionError(f"self-test case {checks}: {message}")

    folded = ("coordinator;main;JoinPairs;EvaluatePair 6\n"
              "coordinator;main;JoinPairs;EvaluatePair;Verify 3\n"
              "worker-0;serve;JoinPairs;EvaluatePair 1\n")
    stacks = parse_folded(folded)
    check(len(stacks) == 3, "parse_folded stack count")
    check(stacks[0][0] == ("coordinator", "main", "JoinPairs",
                           "EvaluatePair"), "parse_folded frames")
    check(stacks[1][1] == 3, "parse_folded count")
    check(parse_folded("# comment\n\n") == [], "comments and blanks skipped")
    try:
        parse_folded("JoinPairs notanumber\n")
        check(False, "bad count should raise")
    except ValueError:
        check(True, "bad count raises ValueError")

    # The last stack of each section has no frames or a non-integer
    # count: captures are read from disk, so such stacks are skipped.
    record = {
        "schema": "simj_profile_v1", "hz": 99,
        "sections": [
            {"label": "coordinator", "stacks": [
                {"thread": "main", "count": 4,
                 "frames": ["JoinPairs", "EvaluatePair"]},
                {"thread": "main", "count": 5, "frames": []}]},
            {"label": "worker-1", "stacks": [
                {"thread": "serve", "count": 2, "frames": ["Verify"]},
                {"thread": "serve", "count": "7", "frames": ["Verify"]}]},
        ],
    }
    json_stacks, _ = load_stacks(json.dumps(record))
    check(len(json_stacks) == 2,
          "profile json stack count, malformed stacks skipped")
    check(json_stacks[0][0][0] == "coordinator",
          "section label becomes root frame")
    check(json_stacks[1][0] == ("worker-1", "serve", "Verify"),
          "worker frames include thread")
    try:
        load_stacks('{"schema":"other_v1"}')
        check(False, "wrong schema should raise")
    except ValueError:
        check(True, "wrong schema raises ValueError")
    check(load_stacks(folded)[0] == stacks, "load_stacks sniffs folded text")

    # Heap profiles: four counters per stack, column picked by --metric.
    heap_record = {
        "schema": "simj_heap_v1", "sample_bytes": 524288,
        "sections": [
            {"label": "coordinator", "stacks": [
                {"thread": "main", "inuse_bytes": 4096, "inuse_objects": 2,
                 "alloc_bytes": 8192, "alloc_objects": 4,
                 "frames": ["JoinPairs", "BuildIndex"]},
                {"thread": "io", "inuse_bytes": 0, "inuse_objects": 0,
                 "alloc_bytes": 1024, "alloc_objects": 1,
                 "frames": ["ReadGraph"]},
                {"thread": "io", "inuse_bytes": 256, "inuse_objects": 1,
                 "alloc_bytes": 256, "alloc_objects": 1, "frames": []}]},
            {"label": "worker-1", "stacks": [
                {"thread": "serve", "inuse_bytes": -512, "inuse_objects": -1,
                 "alloc_bytes": 2048, "alloc_objects": 2,
                 "frames": ["Verify"]}]},
        ],
    }
    heap_text = json.dumps(heap_record)
    inuse, _ = load_stacks(heap_text, "inuse_bytes")
    check(inuse == [(("coordinator", "main", "JoinPairs", "BuildIndex"),
                     4096)],
          "inuse_bytes keeps only positive live stacks with frames")
    alloc, _ = load_stacks(heap_text, "alloc_bytes")
    check(len(alloc) == 3 and alloc[2][1] == 2048,
          "alloc_bytes keeps every allocating stack")
    check(load_stacks(heap_text, "alloc_objects")[0][0][1] == 4,
          "alloc_objects selects the object counter")
    # load_stacks resolves heap JSON to inuse_bytes by default.
    default_stacks, default_metric = load_stacks(heap_text)
    check(default_metric == "inuse_bytes" and default_stacks == inuse,
          "heap json defaults to inuse_bytes")
    try:
        load_stacks(json.dumps(record), "inuse_bytes")
        check(False, "heap metric against cpu schema should raise")
    except ValueError:
        check(True, "heap metric against cpu schema raises")

    heap_folded = ("coordinator;main;JoinPairs;BuildIndex 4096 2 8192 4\n"
                   "coordinator;io;ReadGraph 0 0 1024 1\n"
                   "worker-1;serve;Verify -512 -1 2048 2\n")
    check(parse_folded(heap_folded, "inuse_bytes") == inuse,
          "heap folded matches heap json for inuse_bytes")
    check(parse_folded(heap_folded, "alloc_objects")[1][1] == 1,
          "heap folded selects trailing column by metric")
    try:
        parse_folded(heap_folded)
        check(False, "heap folded without metric should raise")
    except ValueError:
        check(True, "heap folded without metric raises on extra columns")
    try:
        parse_folded(folded, "inuse_bytes")
        check(False, "cpu folded with heap metric should raise")
    except ValueError:
        check(True, "cpu folded with heap metric raises")

    heap_svg = render_svg(alloc, title="heap self-test", unit="bytes")
    check("11264 bytes" in heap_svg, "heap svg totals use byte unit")
    check(metric_unit("inuse_bytes") == "bytes"
          and metric_unit("alloc_objects") == "objects"
          and metric_unit("samples") == "samples", "metric_unit mapping")

    root = build_tree(stacks)
    check(root.total == 10, "tree total")
    coord = root.children["coordinator"]
    check(coord.total == 9, "section subtotal")
    evaluate = coord.children["main"].children["JoinPairs"].children[
        "EvaluatePair"]
    check(evaluate.total == 9, "inclusive count merges suffixes")
    check(evaluate.self_count == 6, "self count excludes nested Verify")
    check(tree_depth(root) == 6, "tree depth")

    svg = render_svg(stacks, title="self-test")
    check(svg.startswith("<svg"), "svg opens")
    check(svg.rstrip().endswith("</svg>"), "svg closes")
    check("EvaluatePair" in svg, "wide frame labeled")
    check("10 samples" in svg, "total in title")
    # 10 tree nodes (root + 9 frames) + the background rect.
    check(svg.count("<rect") == 11, "one rect per node plus background")
    try:
        render_svg([])
        check(False, "empty profile should raise")
    except ValueError:
        check(True, "empty profile raises ValueError")

    shares = self_shares(stacks)
    check(abs(shares["EvaluatePair"] - 0.7) < 1e-9, "leaf self share")
    check(abs(shares["Verify"] - 0.3) < 1e-9, "nested leaf self share")

    old = parse_folded("c;m;A;B 50\nc;m;A;C 50\n")
    new = parse_folded("c;m;A;B 90\nc;m;A;C 10\n")
    rows = diff_report(old, new)
    check(rows[0][0] == "B" and abs(rows[0][3] - 0.4) < 1e-9,
          "regression sorted first")
    check(rows[-1][0] == "C" and abs(rows[-1][3] + 0.4) < 1e-9,
          "improvement sorted last")
    check(diff_report(old, old) == [], "identical profiles show no movement")
    # A heap diff (--metric inuse_bytes) compares live-byte shares: Verify
    # goes from freed to holding half of the sampled live bytes.
    grown = json.loads(heap_text)
    grown["sections"][1]["stacks"][0]["inuse_bytes"] = 4096
    heap_rows = diff_report(inuse, load_stacks(json.dumps(grown),
                                               "inuse_bytes")[0])
    check([(r[0], round(r[3], 9)) for r in heap_rows]
          == [("Verify", 0.5), ("BuildIndex", -0.5)],
          "heap inuse_bytes diff")
    check("B" in format_diff(rows) and "+40.00%" in format_diff(rows),
          "diff report formatting")
    check(format_diff([]).startswith("no self-time movement"),
          "empty diff message")

    check(_fit_label("short", 400.0) == "short", "label fits untouched")
    check(_fit_label("a" * 200, 60.0).endswith(".."), "long label elided")

    print(f"flame.py self-test: {checks} cases passed")
    return 0


def main():
    parser = argparse.ArgumentParser(
        description="folded-stack / simj_profile_v1 -> SVG flamegraph")
    parser.add_argument("inputs", nargs="*",
                        help="profile file(s); two with --diff")
    parser.add_argument("-o", "--output", default="flame.svg",
                        help="SVG output path (default flame.svg)")
    parser.add_argument("--title", default="simj CPU profile")
    parser.add_argument("--diff", action="store_true",
                        help="compare two profiles' self-time shares")
    parser.add_argument("--top", type=int, default=10,
                        help="rows in the --diff report (default 10)")
    parser.add_argument("--metric", default="samples",
                        choices=("samples",) + HEAP_METRICS,
                        help="counter to render: samples (CPU, default) "
                             "or a simj_heap_v1 counter")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    if args.self_test:
        return self_test()

    try:
        if args.diff:
            if len(args.inputs) != 2:
                parser.error("--diff needs exactly two input files")
            with open(args.inputs[0]) as f:
                old_stacks, _ = load_stacks(f.read(), args.metric)
            with open(args.inputs[1]) as f:
                new_stacks, _ = load_stacks(f.read(), args.metric)
            sys.stdout.write(format_diff(diff_report(old_stacks, new_stacks,
                                                     args.top)))
            return 0
        if len(args.inputs) != 1:
            parser.error("expected exactly one input file (or --diff)")
        with open(args.inputs[0]) as f:
            stacks, metric = load_stacks(f.read(), args.metric)
        title = args.title
        if metric != "samples" and title == parser.get_default("title"):
            title = f"simj heap profile ({metric})"
        svg = render_svg(stacks, title=title, unit=metric_unit(metric))
    except (ValueError, json.JSONDecodeError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    with open(args.output, "w") as f:
        f.write(svg)
    total = sum(count for _, count in stacks)
    print(f"wrote {args.output}: {total} {metric_unit(metric)}, "
          f"{len(stacks)} distinct stacks")
    return 0


if __name__ == "__main__":
    sys.exit(main())
