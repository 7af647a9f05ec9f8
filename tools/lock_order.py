#!/usr/bin/env python3
"""Static lock-order analysis over the simj::Mutex capability annotations.

Extracts the static lock-acquisition graph from the C++ sources:

  * every `Mutex <name>;` declaration inside a class/struct becomes a
    capability node named `Class::member` (the same names DESIGN.md §11 and
    the SIMJ_GUARDED_BY annotations use);
  * every `MutexLock guard(expr);` acquisition is tracked through the
    enclosing braces, so acquiring B while A is still in scope yields the
    edge A -> B;
  * calls made while holding a lock add edges to every capability the
    callee may (transitively) acquire, via a may-acquire fixpoint over a
    name-based call graph. A method call whose name several classes
    define resolves to the classes its receiver is declared as (see
    receiver_types), and to all of them when that is unknown;
  * indirection the static walk cannot follow (std::function, virtual
    dispatch) is covered by declared edges: a comment of the form
    `// simj-lock-order: Class::mu -> Other::mu` anywhere in the tree.

The combined graph must be acyclic: a cycle is a potential ABBA deadlock
and fails the run (exit 1). CI runs this after the lint leg (ci.sh); the
DOT/JSON outputs are deterministic so they can be diffed across commits.

The extractor is deliberately conservative: an unresolvable acquisition or
callee produces a warning, never a silent drop, and over-approximate edges
(e.g. a `.Record(` call matching both FlightRecorder::Record and
Tracer::Record) are acceptable as long as the over-approximation stays
acyclic.

Usage:
  tools/lock_order.py [--root src] [--dot FILE] [--json FILE] [-v]
  tools/lock_order.py --self-test
"""

import argparse
import json
import os
import re
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import simj_lint  # noqa: E402  (tools/simj_lint.py: the C++ scanner)

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# The annotation vocabulary itself declares no program state worth walking.
EXCLUDE_FILES = {os.path.join("src", "util", "sync.h")}

# Call names never treated as user-defined callees. The sync primitives
# would otherwise alias unrelated methods (cv_.Wait(mu_) is NOT a call to a
# user-defined Wait), and the std names are pure noise.
SKIP_CALL_NAMES = {
    "Wait", "NotifyOne", "NotifyAll", "Lock", "Unlock", "TryLock",
    "lock", "unlock", "try_lock", "wait", "notify_one", "notify_all",
}

# Macros modeled as calls: SIMJ_LOG(level) << ... funnels into log.cc's
# free Write(), which takes the sink mutex.
MACRO_CALLS = {"SIMJ_LOG": ["Write"]}

CPP_KEYWORDS = {
    "if", "for", "while", "switch", "return", "sizeof", "catch", "throw",
    "new", "delete", "static_cast", "dynamic_cast", "const_cast",
    "reinterpret_cast", "alignof", "alignas", "decltype", "typeid",
    "assert", "defined", "int", "char", "bool", "void", "float", "double",
    "auto", "operator", "noexcept", "static_assert", "co_await", "co_return",
}

DECLARED_EDGE_RE = re.compile(r"simj-lock-order:\s*([\w:]+)\s*->\s*([\w:]+)")

_MUTEX_DECL_RE = re.compile(r"(?:mutable\s+)?(?:simj::)?\bMutex\s+(\w+)\s*$")
_MUTEXLOCK_RE = re.compile(r"\bMutexLock\s+\w+\s*\((.*)\)\s*$")
_CLASS_RE = re.compile(
    r"\b(?:class|struct)\s+"
    r"(?:alignas\s*\([^)]*\)\s*|SIMJ_\w+(?:\s*\([^)]*\))?\s+)*"
    r"([A-Za-z_]\w*)")
_CALL_RE = re.compile(
    r"(\.|->|::)?\s*((?:[A-Za-z_]\w*::)*~?[A-Za-z_]\w*)\s*\(")
_FUNC_NAME_RE = re.compile(r"((?:[A-Za-z_]\w*::)*~?[A-Za-z_]\w*)\s*\(")
# The identifier right before a call's `.` or `->`.
_RECEIVER_RE = re.compile(r"\b([A-Za-z_]\w*)\s*$")


def code_text(raw):
    """simj_lint's comment and literal blanking, then every preprocessor
    line (with its continuations) blanked too, so macro bodies never count
    as braces or statements. Newlines are kept, so line numbers survive."""
    lines = simj_lint.strip_comments_and_strings(raw).split("\n")
    continued = False
    for i, line in enumerate(lines):
        if continued or line.startswith("#"):
            continued = line.endswith("\\")
            lines[i] = ""
    return "\n".join(lines)


class Ctx:
    """One entry in the brace-context stack."""

    def __init__(self, kind, name, depth):
        self.kind = kind  # 'namespace' | 'class' | 'function' | 'block'
        self.name = name
        self.depth = depth


class FunctionInfo:
    def __init__(self, name, cls, path):
        self.name = name          # unqualified name
        self.cls = cls            # enclosing class name or ""
        self.path = path
        self.acquisitions = []    # [(capability, line)]
        # [(callee_name, is_method, held tuple, line, receiver or None)]
        self.calls = []
        self.direct_edges = []    # [(a, b, line)]
        self.code = ""            # signature and body text


class Analysis:
    def __init__(self):
        self.capabilities = {}    # "Class::member" -> (path, line)
        self.caps_by_member = {}  # member -> set of "Class::member"
        self.caps_by_class = {}   # class -> {member -> cap}
        self.caps_by_file = {}    # stem-or-path -> set of caps
        self.functions = []       # [FunctionInfo]
        self.declared_edges = []  # [(a, b, path, line)]
        self.code_by_file = {}    # path -> code_text
        self.warnings = []

    def warn(self, msg):
        if msg not in self.warnings:
            self.warnings.append(msg)

    def add_capability(self, cls, member, path, line):
        cap = "%s::%s" % (cls, member)
        self.capabilities[cap] = (path, line)
        self.caps_by_member.setdefault(member, set()).add(cap)
        self.caps_by_class.setdefault(cls, {})[member] = cap
        stem = os.path.splitext(os.path.basename(path))[0]
        self.caps_by_file.setdefault(path, set()).add(cap)
        self.caps_by_file.setdefault("stem:" + stem, set()).add(cap)


def innermost_class(stack):
    for ctx in reversed(stack):
        if ctx.kind == "class":
            return ctx.name
    return ""


def in_function(stack):
    return any(ctx.kind == "function" for ctx in stack)


def classify_header(header, stack):
    """Classify the statement text preceding a `{`."""
    text = header.strip()
    if text.startswith("namespace"):
        m = re.match(r"namespace\s+([A-Za-z_][\w:]*)?", text)
        return "namespace", (m.group(1) or "") if m else ""
    if in_function(stack):
        return "block", ""
    if not text.startswith("enum"):
        m = _CLASS_RE.search(text)
        # A base-class list or plain body brace both follow the name; a
        # `class Foo;` forward declaration never reaches here (no brace).
        if m and ("class" in text.split()[:3] or "struct" in text.split()[:3]):
            return "class", m.group(1)
    # Function definition: the header must contain a parameter list. Strip
    # trailing specifiers and any constructor initializer list first.
    body = re.sub(r"\b(const|noexcept|override|final|mutable)\b", " ", text)
    body = re.sub(r"SIMJ_\w+(\s*\([^)]*\))?", " ", body)
    if "(" in body and body.rstrip().endswith((")", ":")) or re.search(
            r"\)\s*:\s*", body):
        for m in _FUNC_NAME_RE.finditer(text):
            name = m.group(1)
            base = name.rsplit("::", 1)[-1]
            if base in CPP_KEYWORDS or base.startswith("SIMJ_"):
                continue
            return "function", name
        return "function", "<anon>"
    return "block", ""


def resolve_capability(analysis, expr, cls, path):
    """Maps a MutexLock argument expression to a capability name."""
    expr = expr.strip()
    expr = re.sub(r"^\*", "", expr)
    has_object = False
    member = expr
    for sep in ("->", "."):
        if sep in member:
            prefix, member = member.rsplit(sep, 1)
            if prefix.strip() not in ("this", ""):
                has_object = True
    member = member.strip()
    if not re.fullmatch(r"\w+", member):
        return None
    # 1. Member of the enclosing class (bare `mu_` / `this->mu_`).
    if not has_object and cls and member in analysis.caps_by_class.get(cls, {}):
        return analysis.caps_by_class[cls][member]
    candidates = analysis.caps_by_member.get(member, set())
    if len(candidates) == 1:
        return next(iter(candidates))
    # 2. Unique among capabilities declared in this file.
    local = candidates & analysis.caps_by_file.get(path, set())
    if len(local) == 1:
        return next(iter(local))
    # 3. Unique among this file and its header/impl twin (same stem).
    stem = os.path.splitext(os.path.basename(path))[0]
    twin = candidates & analysis.caps_by_file.get("stem:" + stem, set())
    if len(twin) == 1:
        return next(iter(twin))
    return None


def scan_file(analysis, path, rel):
    with open(path, encoding="utf-8") as f:
        raw = f.read()
    for i, line in enumerate(raw.splitlines(), 1):
        m = DECLARED_EDGE_RE.search(line)
        if m:
            analysis.declared_edges.append((m.group(1), m.group(2), rel, i))
    text = code_text(raw)
    analysis.code_by_file[rel] = text

    stack = []           # [Ctx]
    depth = 0
    buf = []             # current statement text
    line_no = 1
    pending = []         # second pass: (FunctionInfo-index resolution deferred)
    current_fn = None
    fn_start = 0         # text index of current_fn's opening brace
    held = []            # [(capability, entry_depth, line)]
    fn_stack = []        # saved (current_fn, held) around nested... (none)

    def statement_done(stmt, at_line):
        nonlocal current_fn
        cls = innermost_class(stack)
        # Capability declaration (class scope only).
        dm = _MUTEX_DECL_RE.search(stmt.strip())
        if dm and cls and not in_function(stack):
            analysis.add_capability(cls, dm.group(1), rel, at_line)
            return
        # Acquisition.
        am = _MUTEXLOCK_RE.search(stmt.strip())
        if am and current_fn is not None:
            cap = resolve_capability(analysis, am.group(1), current_fn.cls, rel)
            if cap is None:
                analysis.warn("%s:%d: cannot resolve MutexLock argument '%s'"
                              % (rel, at_line, am.group(1).strip()))
                return
            for held_cap, _, _ in held:
                if held_cap != cap:
                    current_fn.direct_edges.append((held_cap, cap, at_line))
            held.append((cap, depth, at_line))
            current_fn.acquisitions.append((cap, at_line))
            return
        record_calls(stmt, at_line)

    def record_calls(stmt, at_line):
        if current_fn is None:
            return
        snapshot = tuple(c for c, _, _ in held)
        for m in _CALL_RE.finditer(stmt):
            sep, name = m.group(1), m.group(2)
            base = name.rsplit("::", 1)[-1]
            if base in CPP_KEYWORDS or base in SKIP_CALL_NAMES:
                continue
            if base in MACRO_CALLS:
                for target in MACRO_CALLS[base]:
                    current_fn.calls.append(
                        (target, False, snapshot, at_line, None))
                continue
            if base.startswith("SIMJ_") or re.fullmatch(r"[A-Z][A-Z0-9_]+",
                                                        base):
                continue  # other macros
            is_method = sep in (".", "->")
            receiver = None
            if is_method:
                rm = _RECEIVER_RE.search(stmt, 0, m.start(1))
                receiver = rm.group(1) if rm else None
            current_fn.calls.append(
                (base, is_method, snapshot, at_line, receiver))

    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            line_no += 1
            buf.append(" ")
        elif c == "{":
            header = "".join(buf).strip()
            buf = []
            depth += 1
            kind, name = classify_header(header, stack)
            if kind == "function":
                record_calls(header, line_no)  # calls in e.g. ctor init lists
                cls = innermost_class(stack)
                fname = name
                if "::" in name:
                    cls = name.rsplit("::", 2)[-2]
                    fname = name.rsplit("::", 1)[-1]
                current_fn = FunctionInfo(fname, cls, rel)
                current_fn.code = header
                fn_start = i
                analysis.functions.append(current_fn)
            elif kind == "block" and current_fn is not None:
                record_calls(header, line_no)
            stack.append(Ctx(kind, name, depth))
        elif c == "}":
            stmt = "".join(buf).strip()
            if stmt:
                statement_done(stmt, line_no)
            buf = []
            if stack and stack[-1].depth == depth:
                ctx = stack.pop()
                if ctx.kind == "function":
                    current_fn.code += text[fn_start:i + 1]
                    current_fn = None
                    held = []
            depth -= 1
            held = [h for h in held if h[1] <= depth]
        elif c == ";":
            stmt = "".join(buf).strip()
            if stmt:
                statement_done(stmt, line_no)
            buf = []
        else:
            buf.append(c)
        i += 1


# Words that may precede a name without declaring it.
_NOT_A_TYPE = ("return", "case", "else", "delete", "new", "throw", "goto")


def receiver_types(analysis, caller, receiver, classes):
    """The classes of `classes` that `receiver`, in a method call made by
    `caller`, is declared as; empty when unknown. In order:
      * bound by a structured binding or range-for in the caller: the
        classes its range is declared as, in the caller or in its file
        (and the file's header);
      * declared in the caller (a parameter or local): the classes of that
        declaration, none when it names a type outside `classes` (a base
        class whose virtual call may reach any of them);
      * otherwise (a member or global): the classes its file (and the
        file's header) declares it as."""
    scope = analysis.code_by_file.get(caller.path, "")
    if caller.path.endswith(".cc"):
        scope += analysis.code_by_file.get(
            os.path.splitext(caller.path)[0] + ".h", "")
    name = re.escape(receiver)
    ranges = set()
    for pattern in (r"\[[^\]]*\b%s\b[^\]]*\]\s*:\s*(\w+)" % name,
                    r"(?:\bauto|[&*])\s*%s\s*:\s*(\w+)" % name):
        ranges.update(re.findall(pattern, caller.code))
    if ranges:
        found = set()
        for source in ranges:
            found |= simj_lint.receiver_classes(classes, source,
                                                caller.code + scope)
        return found
    declaration = re.compile(
        r"\b(?!(?:%s)\b)[A-Za-z_]\w*[\s>*&]+(?:const\b[\s*&]*)?%s\s*[=;,)({\[]"
        % ("|".join(_NOT_A_TYPE), name))
    if declaration.search(caller.code):
        return simj_lint.receiver_classes(classes, receiver, caller.code)
    return simj_lint.receiver_classes(classes, receiver, scope)


def build_graph(analysis):
    """Returns (edges dict: (a,b) -> [site,...]) after the call-graph
    may-acquire fixpoint."""
    # Index function definitions by name.
    defs_by_name = {}
    for idx, fn in enumerate(analysis.functions):
        defs_by_name.setdefault(fn.name, []).append(idx)

    def resolve_call(caller, name, is_method, receiver):
        targets = []
        for idx in defs_by_name.get(name, []):
            fn = analysis.functions[idx]
            if is_method and not fn.cls:
                continue  # a method call cannot hit a free function
            targets.append(idx)
        classes = {analysis.functions[t].cls for t in targets}
        if receiver and len(classes) > 1:
            declared = receiver_types(analysis, caller, receiver, classes)
            if declared:
                targets = [t for t in targets
                           if analysis.functions[t].cls in declared]
        return targets

    # may_acquire fixpoint.
    may = [set(c for c, _ in fn.acquisitions) for fn in analysis.functions]
    changed = True
    while changed:
        changed = False
        for idx, fn in enumerate(analysis.functions):
            for name, is_method, _, _, receiver in fn.calls:
                for t in resolve_call(fn, name, is_method, receiver):
                    if not may[t] <= may[idx]:
                        may[idx] |= may[t]
                        changed = True

    edges = {}

    def add_edge(a, b, site):
        if a == b:
            analysis.warn("%s: '%s' may be re-acquired while held "
                          "(via an over-approximate call edge)" % (site, a))
            return
        edges.setdefault((a, b), [])
        if site not in edges[(a, b)]:
            edges[(a, b)].append(site)

    for fn in analysis.functions:
        for a, b, line in fn.direct_edges:
            add_edge(a, b, "%s:%d" % (fn.path, line))
        for name, is_method, snapshot, line, receiver in fn.calls:
            if not snapshot:
                continue
            for t in resolve_call(fn, name, is_method, receiver):
                for b in may[t]:
                    for a in snapshot:
                        add_edge(a, b, "%s:%d (via %s)"
                                 % (fn.path, line, name))
    for a, b, path, line in analysis.declared_edges:
        for cap in (a, b):
            if cap not in analysis.capabilities:
                analysis.warn("%s:%d: declared edge references unknown "
                              "capability '%s'" % (path, line, cap))
        if a != b:
            edges.setdefault((a, b), [])
            site = "%s:%d (declared)" % (path, line)
            if site not in edges[(a, b)]:
                edges[(a, b)].append(site)
    return edges


def find_cycles(edges):
    adj = {}
    for (a, b), _ in edges.items():
        adj.setdefault(a, set()).add(b)
    WHITE, GREY, BLACK = 0, 1, 2
    color = {}
    cycles = []

    def dfs(node, path):
        color[node] = GREY
        path.append(node)
        for nxt in sorted(adj.get(node, ())):
            if color.get(nxt, WHITE) == GREY:
                cycles.append(path[path.index(nxt):] + [nxt])
            elif color.get(nxt, WHITE) == WHITE:
                dfs(nxt, path)
        path.pop()
        color[node] = BLACK

    for node in sorted(adj):
        if color.get(node, WHITE) == WHITE:
            dfs(node, [])
    return cycles


def render_dot(analysis, edges):
    lines = ["digraph lock_order {"]
    lines.append('  rankdir=LR;')
    for cap in sorted(analysis.capabilities):
        lines.append('  "%s";' % cap)
    for (a, b) in sorted(edges):
        declared = all("(declared)" in s for s in edges[(a, b)]) and \
            bool(edges[(a, b)])
        style = ' [style=dashed]' if declared else ""
        lines.append('  "%s" -> "%s"%s;' % (a, b, style))
    lines.append("}")
    return "\n".join(lines) + "\n"


def render_json(analysis, edges, cycles):
    return json.dumps({
        "capabilities": {
            cap: "%s:%d" % loc
            for cap, loc in sorted(analysis.capabilities.items())
        },
        "edges": [
            {"from": a, "to": b, "sites": sorted(edges[(a, b)])}
            for (a, b) in sorted(edges)
        ],
        "declared_edges": [
            {"from": a, "to": b, "site": "%s:%d" % (p, l)}
            for a, b, p, l in sorted(analysis.declared_edges)
        ],
        "cycles": [list(c) for c in cycles],
        "warnings": sorted(analysis.warnings),
    }, indent=2, sort_keys=False) + "\n"


def analyze(root, repo_root=REPO_ROOT):
    analysis = Analysis()
    paths = []
    for dirpath, _, names in os.walk(root):
        for name in sorted(names):
            if not name.endswith((".cc", ".h")):
                continue
            full = os.path.join(dirpath, name)
            rel = os.path.relpath(full, repo_root)
            if rel in EXCLUDE_FILES:
                continue
            paths.append((full, rel))
    # Two passes: capabilities must all be known before acquisitions are
    # resolved, and headers declare capabilities that .cc files acquire.
    for full, rel in sorted(paths):
        with open(full, encoding="utf-8") as f:
            raw = f.read()
        text = code_text(raw)
        _collect_capabilities(analysis, text, rel)
    for full, rel in sorted(paths):
        scan_file(analysis, full, rel)
    return analysis


def _collect_capabilities(analysis, text, rel):
    """First pass: walk braces only far enough to attribute Mutex members."""
    stack = []
    depth = 0
    buf = []
    line_no = 1
    for c in text:
        if c == "\n":
            line_no += 1
            buf.append(" ")
        elif c == "{":
            header = "".join(buf).strip()
            buf = []
            depth += 1
            kind, name = classify_header(header, stack)
            stack.append(Ctx(kind, name, depth))
        elif c == "}":
            buf = []
            if stack and stack[-1].depth == depth:
                stack.pop()
            depth -= 1
        elif c == ";":
            stmt = "".join(buf).strip()
            buf = []
            cls = innermost_class(stack)
            dm = _MUTEX_DECL_RE.search(stmt)
            if dm and cls and not in_function(stack):
                cap = "%s::%s" % (cls, dm.group(1))
                if cap not in analysis.capabilities:
                    analysis.add_capability(cls, dm.group(1), rel, line_no)
        else:
            buf.append(c)


def run(root, dot_path, json_path, verbose):
    analysis = analyze(root)
    edges = build_graph(analysis)
    cycles = find_cycles(edges)
    if dot_path:
        with open(dot_path, "w", encoding="utf-8") as f:
            f.write(render_dot(analysis, edges))
    if json_path:
        with open(json_path, "w", encoding="utf-8") as f:
            f.write(render_json(analysis, edges, cycles))
    if verbose or not (dot_path or json_path):
        sys.stdout.write(render_json(analysis, edges, cycles))
    for w in analysis.warnings:
        print("lock_order: warning: %s" % w, file=sys.stderr)
    if cycles:
        for cycle in cycles:
            print("lock_order: LOCK-ORDER CYCLE: %s" % " -> ".join(cycle),
                  file=sys.stderr)
        return 1
    print("lock_order: %d capabilities, %d edges, acyclic"
          % (len(analysis.capabilities), len(edges)), file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# Self-test

SELF_TEST_CASES = [
    # (name, source, expect_cycle, expected_edges, forbidden_edges)
    ("abba_deadlock", """
struct A { Mutex a_mu; };
struct B { Mutex b_mu; };
void First(A& a, B& b) {
  MutexLock l1(a.a_mu);
  MutexLock l2(b.b_mu);
}
void Second(A& a, B& b) {
  MutexLock l1(b.b_mu);
  MutexLock l2(a.a_mu);
}
""", True, [("A::a_mu", "B::b_mu"), ("B::b_mu", "A::a_mu")], []),
    ("consistent_order", """
struct A { Mutex a_mu; };
struct B { Mutex b_mu; };
void First(A& a, B& b) {
  MutexLock l1(a.a_mu);
  MutexLock l2(b.b_mu);
}
void Second(A& a, B& b) {
  MutexLock l1(a.a_mu);
  {
    MutexLock l2(b.b_mu);
  }
}
""", False, [("A::a_mu", "B::b_mu")], [("B::b_mu", "A::a_mu")]),
    ("sequential_blocks_no_edge", """
struct A { Mutex a_mu; };
struct B { Mutex b_mu; };
void Sequential(A& a, B& b) {
  {
    MutexLock l1(a.a_mu);
  }
  {
    MutexLock l2(b.b_mu);
  }
}
""", False, [], [("A::a_mu", "B::b_mu"), ("B::b_mu", "A::a_mu")]),
    ("interprocedural_cycle", """
struct A { Mutex a_mu; };
struct B { Mutex b_mu; };
void TakeB(B& b) {
  MutexLock l(b.b_mu);
}
void TakeA(A& a) {
  MutexLock l(a.a_mu);
}
void Caller1(A& a, B& b) {
  MutexLock l(a.a_mu);
  TakeB(b);
}
void Caller2(A& a, B& b) {
  MutexLock l(b.b_mu);
  TakeA(a);
}
""", True, [("A::a_mu", "B::b_mu"), ("B::b_mu", "A::a_mu")], []),
    ("declared_edge_cycle", """
struct A { Mutex a_mu; };
struct B { Mutex b_mu; };
void First(A& a, B& b) {
  MutexLock l1(a.a_mu);
  MutexLock l2(b.b_mu);
}
// The indirect path back is declared, closing the cycle:
// simj-lock-order: B::b_mu -> A::a_mu
""", True, [("A::a_mu", "B::b_mu"), ("B::b_mu", "A::a_mu")], []),
    ("member_methods_and_fixpoint", """
class Pool {
 public:
  void Loop();
 private:
  Mutex mu_;
};
struct Queue { Mutex mu; };
void Pool::Loop() {
  MutexLock lock(mu_);
  for (int i = 0; i < 4; ++i) {
    Queue q;
    MutexLock qlock(q.mu);
  }
}
""", False, [("Pool::mu_", "Queue::mu")], [("Queue::mu", "Pool::mu_")]),
    ("receiver_declared_type", """
class Histogram {
 public:
  int Snapshot() const;
};
class Progress {
 public:
  int Snapshot();
 private:
  Mutex mu_;
};
class Registry {
 public:
  int Snapshot() const;
 private:
  Mutex mu_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};
struct Poller {
  Mutex mu;
};
int Histogram::Snapshot() const { return 0; }
int Progress::Snapshot() {
  MutexLock lock(mu_);
  return 1;
}
int Registry::Snapshot() const {
  MutexLock lock(mu_);
  int total = 0;
  for (const auto& [name, histogram] : histograms_) {
    total += histogram->Snapshot();
  }
  return total;
}
int Poll(Poller& poller, Progress& progress) {
  MutexLock lock(poller.mu);
  return progress.Snapshot();
}
""", False, [("Poller::mu", "Progress::mu_")],
     [("Registry::mu_", "Progress::mu_"), ("Poller::mu", "Registry::mu_")]),
    ("base_class_receiver_keeps_all", """
class Sink {
 public:
  virtual void Write() = 0;
};
class CaptureSink : public Sink {
 public:
  void Write() override;
 private:
  Mutex mu_;
};
class QuietSink : public Sink {
 public:
  void Write() override;
};
struct SinkState {
  Mutex mu;
  Sink* slot;
};
void CaptureSink::Write() {
  MutexLock lock(mu_);
}
void QuietSink::Write() {}
QuietSink& Quiet() {
  static QuietSink sink;
  return sink;
}
void Log(SinkState& state) {
  MutexLock lock(state.mu);
  Sink* sink = state.slot;
  sink->Write();
}
""", False, [("SinkState::mu", "CaptureSink::mu_")], []),
]


def self_test():
    failures = 0
    for name, source, expect_cycle, expected, forbidden in SELF_TEST_CASES:
        with tempfile.TemporaryDirectory() as tmp:
            src = os.path.join(tmp, "case.cc")
            with open(src, "w", encoding="utf-8") as f:
                f.write(source)
            analysis = analyze(tmp, repo_root=tmp)
            edges = build_graph(analysis)
            cycles = find_cycles(edges)
        problems = []
        if expect_cycle and not cycles:
            problems.append("expected a cycle, found none")
        if not expect_cycle and cycles:
            problems.append("unexpected cycle: %s" % cycles)
        for e in expected:
            if e not in edges:
                problems.append("missing edge %s -> %s" % e)
        for e in forbidden:
            if e in edges:
                problems.append("forbidden edge %s -> %s present" % e)
        if problems:
            failures += 1
            print("self-test FAIL %-28s %s" % (name, "; ".join(problems)))
            print("  edges: %s" % sorted(edges))
        else:
            print("self-test ok   %-28s (%d edges%s)"
                  % (name, len(edges), ", cycle" if cycles else ""))
    if failures:
        print("lock_order self-test: %d FAILURES" % failures)
        return 1
    print("lock_order self-test: all %d cases passed" % len(SELF_TEST_CASES))
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=os.path.join(REPO_ROOT, "src"),
                        help="directory tree to analyze (default: src/)")
    parser.add_argument("--dot", help="write the lock graph as DOT")
    parser.add_argument("--json", help="write the lock graph as JSON")
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="print the JSON report to stdout")
    parser.add_argument("--self-test", action="store_true",
                        help="run the built-in extraction/cycle test cases")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    return run(args.root, args.dot, args.json, args.verbose)


if __name__ == "__main__":
    sys.exit(main())
