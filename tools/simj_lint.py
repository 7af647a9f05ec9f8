#!/usr/bin/env python3
"""Project linter for repo-specific contracts that generic tools can't see.

Rules (see DESIGN.md "Correctness tooling"):

  no-exceptions      src/ is Status-only: no `throw`, `try {`, or `catch (`.
  no-raw-random      all randomness flows through util/rng (deterministic,
                     seedable): no rand()/srand()/time()/std::random_device
                     outside src/util/rng.*.
  no-direct-io       src/core, src/ged, src/graph, src/matching never write
                     to stdout/stderr directly; output goes through
                     metrics/trace/explain. bench/ and examples/ are also
                     linted so harness prints need an explicit allow(io).
  no-raw-logging     src/ never logs with raw fprintf(stderr, ...),
                     std::cerr, or std::cout — diagnostics go through
                     SIMJ_LOG (util/log.h) so sinks, levels, and JSON
                     output stay centralized. src/util/log.cc (the sink
                     implementation) is exempt by path.
  no-naked-new       no bare `new`; owning allocations use containers or
                     smart pointers. Intentional leaky singletons carry an
                     allow(new) pragma.
  no-raw-sockets     src/ never opens sockets or includes socket headers;
                     all network I/O lives in src/util/statusz.cc (the
                     embedded introspection server), which is exempt by
                     path. Keeps the "at most one file touches the
                     network" audit surface honest.
  no-raw-subprocess  src/ never forks, execs, opens raw pipes, or signals
                     processes directly; all child-process plumbing lives
                     in src/util/subprocess.cc (the framed-pipe worker
                     runner), which is exempt by path. Mirrors
                     no-raw-sockets: one auditable file per privileged
                     syscall family.
  no-raw-allocator-interposition
                     global operator new/delete replacements and malloc/
                     free-family interposition (definitions, not calls)
                     live only in src/util/heap_profiler.cc — the sampling
                     heap profiler, which is exempt by path. Two
                     replacements of the global allocator in one binary is
                     an ODR violation the linker won't always catch.
                     Mirrors no-raw-sockets: one auditable file per
                     privileged hook. Waivable with allow(allocator).
  unconsumed-status  a call to a function returning Status/StatusOr (names
                     harvested from src/**/*.h) must not be a bare
                     discarded statement, and `(void)` discards must use
                     SIMJ_IGNORE_STATUS or carry an allow(discard) pragma.
  nodiscard-contract util/status.h must keep Status and StatusOr declared
                     [[nodiscard]] at class level.
  fork-safety        the child branch after ::fork() (the window before
                     exec/_exit) may only call async-signal-safe
                     allowlisted functions — the parent's locks are
                     permanently frozen in the child, so a hidden malloc
                     or SIMJ_LOG there can deadlock (DESIGN.md §11).
  signal-handler-safety
                     the body of any function registered as a signal
                     handler (via sigaction's sa_handler/sa_sigaction or
                     signal()) may only call async-signal-safe allowlisted
                     functions — write/clock_gettime-class syscalls,
                     backtrace(), and std::atomic member ops (sig-atomic
                     stores) — because the handler can interrupt a thread
                     mid-malloc or mid-lock (DESIGN.md §12). Waivable with
                     allow(signal-handler).
  explicit-memory-order
                     std::atomic member operations in src/ must pass an
                     explicit std::memory_order argument; a bare .load()
                     defaults to seq_cst, hiding the author's intent and
                     the cost. Waivable with allow(memory-order).

Suppression pragmas (the pragma is a comment, checked before stripping):

  ... violating code ...  // simj-lint: allow(rule)        same line
  // simj-lint: allow(rule)                                 next line
  // simj-lint: allow-file(rule)                            whole file
                                                            (first 30 lines)

Usage:
  tools/simj_lint.py [--repo DIR] [--baseline FILE] [--update-baseline]
                     [--self-test] [paths...]

Default paths: src bench examples. Exits 1 when findings not covered by the
baseline exist, 0 otherwise. The baseline (tools/simj_lint_baseline.txt)
stores one fingerprint per historical finding so CI fails only on *new*
findings; it ships empty because the tree is clean.
"""

import argparse
import hashlib
import os
import re
import sys

LINT_EXTENSIONS = (".cc", ".cpp", ".cxx", ".h", ".hpp")

PRAGMA_RE = re.compile(r"//\s*simj-lint:\s*(allow|allow-file)\(([a-z-]+(?:\s*,\s*[a-z-]+)*)\)")

# Short pragma spellings accepted alongside the full rule names.
PRAGMA_SHORTHAND = {
    "io": "no-direct-io",
    "new": "no-naked-new",
    "discard": "unconsumed-status",
    "exceptions": "no-exceptions",
    "random": "no-raw-random",
    "logging": "no-raw-logging",
    "sockets": "no-raw-sockets",
    "subprocess": "no-raw-subprocess",
    "allocator": "no-raw-allocator-interposition",
    "fork": "fork-safety",
    "signal-handler": "signal-handler-safety",
    "memory-order": "explicit-memory-order",
}

# ---------------------------------------------------------------------------
# Source model
# ---------------------------------------------------------------------------


class SourceFile:
    """A lint unit: raw lines, comment/string-stripped lines, pragmas."""

    def __init__(self, path, rel, text):
        self.path = path
        self.rel = rel
        self.raw_lines = text.splitlines()
        self.code_lines = strip_comments_and_strings(text).splitlines()
        self.line_allows = {}  # line number (1-based) -> set of rules
        self.file_allows = set()
        for i, line in enumerate(self.raw_lines, start=1):
            for kind, rules in PRAGMA_RE.findall(line):
                names = {
                    PRAGMA_SHORTHAND.get(r.strip(), r.strip())
                    for r in rules.split(",")
                }
                if kind == "allow-file":
                    if i <= 30:
                        self.file_allows |= names
                else:
                    # A pragma covers its own line and the following line,
                    # so it can trail the violation or sit above it.
                    self.line_allows.setdefault(i, set()).update(names)
                    self.line_allows.setdefault(i + 1, set()).update(names)

    def allowed(self, rule, line_number):
        return rule in self.file_allows or rule in self.line_allows.get(
            line_number, set()
        )


def strip_comments_and_strings(text):
    """Blanks out comments and string/char literal bodies, keeping line
    structure so findings report real line numbers."""
    out = []
    i = 0
    n = len(text)
    state = "code"  # code | line_comment | block_comment | string | char
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line_comment"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block_comment"
                out.append("  ")
                i += 2
                continue
            if c == '"':
                # Raw strings: skip to the matching delimiter wholesale.
                if out and out[-1] == "R":
                    match = re.match(r'R"([^()\s\\]{0,16})\(', text[i - 1 :])
                    if match:
                        delim = ")" + match.group(1) + '"'
                        end = text.find(delim, i)
                        if end < 0:
                            end = n
                        chunk = text[i - 1 : end + len(delim)]
                        out[-1] = ""
                        out.append("".join("\n" if ch == "\n" else " " for ch in chunk))
                        i = end + len(delim)
                        continue
                state = "string"
                out.append('"')
                i += 1
                continue
            if c == "'":
                state = "char"
                out.append("'")
                i += 1
                continue
            out.append(c)
            i += 1
        elif state == "line_comment":
            if c == "\n":
                state = "code"
                out.append("\n")
            else:
                out.append(" ")
            i += 1
        elif state == "block_comment":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
                continue
            out.append("\n" if c == "\n" else " ")
            i += 1
        elif state in ("string", "char"):
            quote = '"' if state == "string" else "'"
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == quote:
                state = "code"
                out.append(quote)
            elif c == "\n":  # unterminated; keep line structure
                state = "code"
                out.append("\n")
            else:
                out.append(" ")
            i += 1
    return "".join(out)


# ---------------------------------------------------------------------------
# Rules
# ---------------------------------------------------------------------------


class Finding:
    def __init__(self, rel, line, rule, message, line_text):
        self.rel = rel
        self.line = line
        self.rule = rule
        self.message = message
        self.line_text = line_text

    def fingerprint(self):
        # Line numbers shift with unrelated edits; fingerprint on the
        # normalized offending line instead.
        normalized = re.sub(r"\s+", " ", self.line_text.strip())
        digest = hashlib.sha256(
            f"{self.rel}:{self.rule}:{normalized}".encode()
        ).hexdigest()[:16]
        return f"{self.rel}:{self.rule}:{digest}"

    def __str__(self):
        return f"{self.rel}:{self.line}: [{self.rule}] {self.message}"


def in_dir(rel, *dirs):
    rel = rel.replace(os.sep, "/")
    return any(rel == d or rel.startswith(d + "/") for d in dirs)


EXCEPTION_RE = re.compile(r"\b(throw)\b|\b(try)\s*\{|\b(catch)\s*\(")
RANDOM_RE = re.compile(r"\b(rand|srand|time)\s*\(|\bstd::random_device\b")
IO_RE = re.compile(r"\b(printf|fprintf|puts|fputs|putchar)\s*\(|\bstd::(cout|cerr|clog)\b")
LOGGING_RE = re.compile(r"\b(fprintf)\s*\(\s*stderr\b|\bstd::(cerr|cout)\b")
# Naked allocation. The lookahead skips placement-new syntax `new (` and
# the token sequence `new[]` (which only occurs in `operator new[]`
# declarations — policed by no-raw-allocator-interposition instead);
# preprocessor lines (`#include <new>`) are skipped at the check site.
NEW_RE = re.compile(r"\bnew\b(?!\s*(?:\(|\[\]))")
# Socket headers and ::-qualified POSIX socket calls. The lookbehind keeps
# std::bind (the functional one) from matching `::bind(`.
SOCKET_INCLUDE_RE = re.compile(
    r'#\s*include\s*[<"](?:sys/socket\.h|netinet/[^>"]+|arpa/inet\.h)[>"]'
)
SOCKET_CALL_RE = re.compile(
    r"(?<!std)::(socket|bind|listen|accept|connect|setsockopt|recv|send|"
    r"shutdown|getsockname)\s*\("
)
# Process-control headers and ::-qualified POSIX process/pipe calls. Only
# ::-qualified spellings count (matching the project convention for raw
# syscalls), so methods like ChildProcess::Kill() don't trip the rule.
SUBPROCESS_INCLUDE_RE = re.compile(
    r'#\s*include\s*[<"](?:sys/wait\.h|spawn\.h)[>"]'
)
SUBPROCESS_CALL_RE = re.compile(
    r"(?<!std)::(fork|vfork|pipe2?|execve?|execvpe?|execlp?|posix_spawnp?|"
    r"waitpid|waitid|wait[34]?|kill|killpg|system|popen)\s*\("
)
VOID_DISCARD_RE = re.compile(r"\(\s*void\s*\)\s*([A-Za-z_][A-Za-z0-9_:]*)\s*\(")
# Global allocator replacement: any mention of `operator new`/`operator
# delete` (replacing, declaring, or ::operator-calling the global ones all
# belong next to the replacement), plus *definitions* of the C allocator
# entry points (a return type directly before the name — plain calls like
# `std::free(p)` or `::free(p)` don't match).
OPERATOR_ALLOC_RE = re.compile(r"\boperator\s+(new|delete)\b")
ALLOC_INTERPOSE_RE = re.compile(
    r'^\s*(?:extern\s*"[^"]*"\s*)?(?:void\s*\*|void|int)\s+'
    r"(malloc|calloc|realloc|free|cfree|aligned_alloc|posix_memalign|"
    r"memalign|valloc|pvalloc)\s*\("
)

# --- fork-safety ---
# Only these may run in a forked child before exec/_exit: the async-signal-
# safe syscall wrappers plus the project's own child entry points (which are
# audited to stay on this list transitively).
FORK_SAFE_CALLS = {
    "close", "_exit", "dup", "dup2", "read", "write",
    "execl", "execle", "execlp", "execv", "execve", "execvp",
    "CloseAllFdsExcept", "child_main",
}
FORK_RE = re.compile(r"::fork\s*\(\s*\)")
# The child branch: the first `== 0)` comparison after the fork call.
CHILD_BRANCH_RE = re.compile(r"==\s*0\s*\)\s*")
FORK_CALL_RE = re.compile(r"(::)?\b([A-Za-z_]\w*)\s*\(")
FORK_CALL_SKIP = {
    "if", "for", "while", "switch", "return", "sizeof",
    "static_cast", "reinterpret_cast", "const_cast", "int",
}

# --- signal-handler-safety ---
# How handlers get registered: a sigaction struct member assignment or the
# legacy signal() call. SIG_IGN/SIG_DFL are not functions and are skipped.
SIGNAL_REGISTER_RES = [
    re.compile(r"\.\s*sa_(?:handler|sigaction)\s*=\s*&?\s*([A-Za-z_]\w*)"),
    re.compile(r"\bsignal\s*\(\s*[^,()]+,\s*&?\s*([A-Za-z_]\w*)\s*\)"),
]
# What a handler body may call: async-signal-safe syscall wrappers,
# backtrace() (after a warmup call outside signal context), and
# std::atomic member operations (the C++ spelling of sig-atomic stores).
SIGNAL_SAFE_CALLS = {
    "write", "read", "close", "clock_gettime", "syscall", "backtrace",
    "_exit", "sigemptyset", "sigaddset",
    "load", "store", "exchange", "fetch_add", "fetch_sub", "fetch_and",
    "fetch_or", "fetch_xor", "compare_exchange_weak",
    "compare_exchange_strong",
}


def check_signal_handler_safety(source, emit):
    """Finds functions registered as signal handlers and flags any call in
    their (brace-balanced) bodies outside the async-signal-safe allowlist."""
    text = "\n".join(source.code_lines)

    def line_of(pos):
        return text.count("\n", 0, pos) + 1

    handlers = set()
    for register_re in SIGNAL_REGISTER_RES:
        for match in register_re.finditer(text):
            name = match.group(1)
            if name not in ("SIG_IGN", "SIG_DFL", "SIG_ERR"):
                handlers.add(name)
    for name in sorted(handlers):
        # The handler's definition in this file; registrations of handlers
        # defined elsewhere can't be analyzed here (their own file is).
        definition = re.search(
            r"\bvoid\s+%s\s*\([^)]*\)\s*\{" % re.escape(name), text
        )
        if definition is None:
            continue
        start = definition.end() - 1
        depth = 0
        end = start
        for end in range(start, len(text)):
            if text[end] == "{":
                depth += 1
            elif text[end] == "}":
                depth -= 1
                if depth == 0:
                    break
        body = text[start:end]
        for call in FORK_CALL_RE.finditer(body):
            called = call.group(2)
            if called in FORK_CALL_SKIP or called in SIGNAL_SAFE_CALLS:
                continue
            if called == name:
                continue  # recursion is odd but not an allowlist escape
            emit(
                "signal-handler-safety", line_of(start + call.start()),
                f"'{called}' called inside signal handler '{name}' — "
                "handlers may interrupt a thread mid-malloc/mid-lock, so "
                "only async-signal-safe calls (write, clock_gettime, "
                "backtrace, atomics) are legal; allowlist or annotate "
                "allow(signal-handler)",
            )


# --- explicit-memory-order ---
ATOMIC_OP_RE = re.compile(
    r"(?:\.|->)\s*(load|store|exchange|fetch_add|fetch_sub|fetch_and|"
    r"fetch_or|fetch_xor|compare_exchange_weak|compare_exchange_strong)"
    r"\s*\("
)


def check_fork_safety(source, emit):
    """Walks every `::fork()` child branch and flags calls outside the
    async-signal-safe allowlist."""
    text = "\n".join(source.code_lines)

    def line_of(pos):
        return text.count("\n", 0, pos) + 1

    for fork in FORK_RE.finditer(text):
        branch = CHILD_BRANCH_RE.search(text, fork.end(), fork.end() + 2000)
        if branch is None:
            continue  # fork result never compared against 0 nearby
        start = branch.end()
        if start < len(text) and text[start] == "{":
            # Braced child block: window is the matching brace span.
            depth = 0
            end = start
            for end in range(start, len(text)):
                if text[end] == "{":
                    depth += 1
                elif text[end] == "}":
                    depth -= 1
                    if depth == 0:
                        break
        else:
            # Single-statement branch: window runs to the semicolon.
            end = text.find(";", start)
            end = len(text) if end < 0 else end
        window = text[start:end]
        for call in FORK_CALL_RE.finditer(window):
            name = call.group(2)
            if name in FORK_CALL_SKIP:
                continue
            if name in FORK_SAFE_CALLS:
                continue
            emit(
                "fork-safety", line_of(start + call.start()),
                f"'{name}' called in the fork()..._exit window — only "
                "async-signal-safe calls are legal in the child (the "
                "parent's locks are frozen); allowlist or annotate "
                "allow(fork)",
            )


def check_memory_order(source, emit):
    """Flags std::atomic member operations whose (multi-line, paren-
    balanced) argument list lacks an explicit memory_order."""
    lines = source.code_lines
    for index, line in enumerate(lines):
        for match in ATOMIC_OP_RE.finditer(line):
            # Join from the opening paren until parens balance (atomics
            # with explicit orders routinely wrap).
            args = []
            depth = 0
            done = False
            row, col = index, match.end() - 1
            while row < len(lines) and row < index + 12 and not done:
                segment = lines[row][col:]
                for offset, ch in enumerate(segment):
                    if ch == "(":
                        depth += 1
                    elif ch == ")":
                        depth -= 1
                        if depth == 0:
                            args.append(segment[:offset])
                            done = True
                            break
                if not done:
                    args.append(segment)
                row += 1
                col = 0
            if "memory_order" not in "".join(args):
                emit(
                    "explicit-memory-order", index + 1,
                    f"atomic '{match.group(1)}' without an explicit "
                    "std::memory_order — say seq_cst if you mean it "
                    "(or annotate allow(memory-order))",
                )

STATUS_DECL_RE = re.compile(
    r"^\s*(?:\[\[nodiscard\]\]\s*)?(?:inline\s+|static\s+|constexpr\s+)*"
    r"(?:simj::)?Status(?:Or<[^;=]*>)?\s+([A-Za-z_][A-Za-z0-9_]*)\s*\(",
    re.MULTILINE,
)

# Any function declaration: a return type, then the name and '('. Consulted
# only for names that STATUS_DECL_RE also harvested.
ANY_DECL_RE = re.compile(
    r"^\s*(?:\[\[nodiscard\]\]\s*)?(?:inline\s+|static\s+|constexpr\s+|"
    r"virtual\s+)*((?:const\s+)?[A-Za-z_][A-Za-z0-9_:]*(?:<[^;{}()]*>)?)"
    r"[\s*&]+([A-Za-z_][A-Za-z0-9_]*)\s*\(",
    re.MULTILINE,
)
STATUS_TYPE_RE = re.compile(r"^(?:simj::)?Status(?:Or<.*>)?$")
# Words ANY_DECL_RE would take for a return type in a statement.
NOT_A_TYPE = {"return", "else", "case", "new", "delete", "throw", "co_return"}
CLASS_OPEN_RE = re.compile(
    r"\b(?:class|struct)\s+([A-Za-z_][A-Za-z0-9_]*)[^;{}()]*\{")

# Names that return Status/StatusOr but are unconditionally safe to call as
# statements never (empty), or that the harvest would misfire on.
HARVEST_SKIP = {"Ok"}


def enclosing_class(code, pos):
    """The innermost class or struct whose body contains `pos`, or None."""
    inner = None
    for match in CLASS_OPEN_RE.finditer(code, 0, pos):
        body = code[match.end():pos]
        if body.count("{") >= body.count("}"):
            inner = match.group(1)
    return inner


class StatusFunctions:
    """Functions that src/ headers declare to return Status or StatusOr.

    A name some header also declares with another return type (a void
    WallTimer::Restart beside the Status ShardWorker::Restart) is shared:
    a call to it is known to return Status only when it is qualified with,
    or its receiver is declared as, a class that returns Status from it.
    """

    def __init__(self, header_texts):
        self.names = set()
        self.classes = {}  # name -> classes whose member returns Status
        self.shared = set()
        codes = [strip_comments_and_strings(text) for text in header_texts]
        for code in codes:
            for match in STATUS_DECL_RE.finditer(code):
                name = match.group(1)
                if name in HARVEST_SKIP:
                    continue
                self.names.add(name)
                self.classes.setdefault(name, set()).add(
                    enclosing_class(code, match.start()))
        for code in codes:
            for match in ANY_DECL_RE.finditer(code):
                kind, name = match.group(1), match.group(2)
                if (name in self.names and kind not in NOT_A_TYPE
                        and not STATUS_TYPE_RE.match(kind)):
                    self.shared.add(name)

    def __contains__(self, name):
        return name in self.names

    def returns_status(self, name, qualifier, receiver, code):
        """Whether `qualifier::name(` or `receiver.name(` returns Status."""
        if name not in self.names:
            return False
        if name not in self.shared:
            return True
        classes = self.classes[name] - {None}
        if qualifier:
            return qualifier in classes
        return receiver is not None and bool(
            receiver_classes(classes, receiver, code))


def receiver_classes(classes, receiver, code):
    """The classes of `classes` that `code` declares `receiver` as: a
    `Class receiver`, `Class* receiver`, `const Class& receiver` or
    `std::unique_ptr<Class> receiver` declaration (the class name, then
    only `>`, `*`, `&`, `const` and spaces before the receiver)."""
    return {cls for cls in classes
            if re.search(r"\b%s\b[\s>*&]*(?:const\b[\s*&]*)?\b%s\b"
                         % (re.escape(cls), re.escape(receiver)), code)}


def harvest_status_functions(repo, extra_headers=()):
    """Collects the Status/StatusOr-returning functions of src headers."""
    texts = list(extra_headers)
    src = os.path.join(repo, "src")
    for dirpath, _, filenames in os.walk(src):
        for filename in filenames:
            if not filename.endswith(".h"):
                continue
            path = os.path.join(dirpath, filename)
            try:
                texts.append(
                    open(path, encoding="utf-8", errors="replace").read())
            except OSError:
                continue
    return StatusFunctions(texts)


def lint_file(source, status_functions):
    rel = source.rel.replace(os.sep, "/")
    findings = []

    def emit(rule, line_number, message):
        if source.allowed(rule, line_number):
            return
        findings.append(
            Finding(rel, line_number, rule, message,
                    source.raw_lines[line_number - 1]
                    if line_number <= len(source.raw_lines) else "")
        )

    check_exceptions = in_dir(rel, "src")
    check_random = not rel.startswith("src/util/rng")
    check_io = in_dir(
        rel, "src/core", "src/ged", "src/graph", "src/matching", "bench",
        "examples"
    )
    # The sink implementation itself is the one place raw stderr is legal.
    check_logging = in_dir(rel, "src") and rel != "src/util/log.cc"
    # The introspection server is the one file allowed to touch the network.
    check_sockets = (
        in_dir(rel, "src", "bench", "examples")
        and rel != "src/util/statusz.cc"
    )
    # The framed-pipe worker runner is the one file allowed to fork/exec.
    check_subprocess = (
        in_dir(rel, "src", "bench", "examples")
        and rel != "src/util/subprocess.cc"
    )
    # The sampling heap profiler is the one file allowed to replace the
    # global allocator.
    check_allocator = (
        in_dir(rel, "src", "bench", "examples")
        and rel != "src/util/heap_profiler.cc"
    )

    bare_call_re = None
    code = "\n".join(source.code_lines)
    if status_functions.names:
        joined = "|".join(sorted(status_functions.names))
        # A statement that *starts* with a harvested call: nothing consumes
        # the returned status. Group 1 is the qualifier/receiver chain.
        bare_call_re = re.compile(
            r"^\s*((?:[A-Za-z_][A-Za-z0-9_]*(?:::|\.|->))*)(%s)\s*\("
            % joined
        )

    if in_dir(rel, "src"):
        check_fork_safety(source, emit)
        check_signal_handler_safety(source, emit)
        check_memory_order(source, emit)

    previous = ""
    for line_number, line in enumerate(source.code_lines, start=1):
        if check_exceptions:
            match = EXCEPTION_RE.search(line)
            if match:
                keyword = match.group(1) or match.group(2) or match.group(3)
                emit(
                    "no-exceptions", line_number,
                    f"'{keyword}' in src/ — this codebase is Status-only "
                    "(util/status.h)",
                )
        if check_random:
            match = RANDOM_RE.search(line)
            if match:
                what = match.group(1) or "std::random_device"
                emit(
                    "no-raw-random", line_number,
                    f"raw '{what}' — use util/rng so runs stay seeded and "
                    "reproducible",
                )
        if check_io:
            match = IO_RE.search(line)
            if match:
                what = match.group(1) or f"std::{match.group(2)}"
                emit(
                    "no-direct-io", line_number,
                    f"direct '{what}' I/O — route output through "
                    "metrics/trace/explain (or annotate a harness print "
                    "with allow(io))",
                )
        if check_logging:
            match = LOGGING_RE.search(line)
            if match:
                what = match.group(1) or f"std::{match.group(2)}"
                emit(
                    "no-raw-logging", line_number,
                    f"raw '{what}' logging in src/ — use SIMJ_LOG "
                    "(util/log.h) so level filtering and JSON sinks apply "
                    "(or annotate allow(logging))",
                )
        match = NEW_RE.search(line)
        if match and not line.lstrip().startswith("#"):
            emit(
                "no-naked-new", line_number,
                "naked 'new' — own allocations with containers or "
                "std::make_unique (leaky singletons: annotate allow(new))",
            )
        if check_sockets:
            match = SOCKET_INCLUDE_RE.search(line) or SOCKET_CALL_RE.search(line)
            if match:
                what = (match.group(1) if match.re is SOCKET_CALL_RE
                        else "socket header include")
                emit(
                    "no-raw-sockets", line_number,
                    f"raw socket use ('{what}') — all network I/O belongs "
                    "in src/util/statusz.cc (or annotate allow(sockets))",
                )
        if check_subprocess:
            match = (SUBPROCESS_INCLUDE_RE.search(line)
                     or SUBPROCESS_CALL_RE.search(line))
            if match:
                what = (match.group(1) if match.re is SUBPROCESS_CALL_RE
                        else "process-control header include")
                emit(
                    "no-raw-subprocess", line_number,
                    f"raw process control ('{what}') — fork/exec/pipe/wait "
                    "plumbing belongs in src/util/subprocess.cc (or "
                    "annotate allow(subprocess))",
                )
        if check_allocator:
            match = OPERATOR_ALLOC_RE.search(line) or ALLOC_INTERPOSE_RE.match(line)
            if match:
                what = (f"operator {match.group(1)}"
                        if match.re is OPERATOR_ALLOC_RE
                        else f"{match.group(1)} definition")
                emit(
                    "no-raw-allocator-interposition", line_number,
                    f"global allocator hook ('{what}') — operator "
                    "new/delete replacement and malloc-family interposition "
                    "belong in src/util/heap_profiler.cc (or annotate "
                    "allow(allocator))",
                )
        if bare_call_re:
            match = bare_call_re.match(line)
            # `return Foo();`-style lines don't match (they start with
            # `return`), and continuation lines like `StatusOr<T> x =\n
            # Foo(...)` are filtered by requiring the previous code line to
            # end a statement or block.
            at_statement_start = (
                not previous.strip()
                or previous.rstrip().endswith((";", "{", "}"))
                or previous.lstrip().startswith("#")
            )
            if match and at_statement_start:
                last = re.search(r"(\w+)(::|\.|->)$", match.group(1))
                qualified = last is not None and last.group(2) == "::"
                qualifier = last.group(1) if qualified else None
                receiver = last.group(1) if last and not qualified else None
                if status_functions.returns_status(
                        match.group(2), qualifier, receiver, code):
                    emit(
                        "unconsumed-status", line_number,
                        f"result of '{match.group(2)}' (returns "
                        "Status/StatusOr) is discarded — handle it or use "
                        "SIMJ_IGNORE_STATUS",
                    )
            match = VOID_DISCARD_RE.search(line)
            parts = match.group(1).split("::") if match else []
            if match and status_functions.returns_status(
                    parts[-1], parts[-2] if len(parts) > 1 else None, None,
                    code):
                emit(
                    "unconsumed-status", line_number,
                    f"'(void)' discard of '{match.group(1)}' — use "
                    "SIMJ_IGNORE_STATUS or annotate allow(discard)",
                )
        if line.strip():
            previous = line
    return findings


def lint_contract(repo):
    """util/status.h must keep the class-level [[nodiscard]] contract."""
    findings = []
    path = os.path.join(repo, "src/util/status.h")
    try:
        text = open(path, encoding="utf-8").read()
    except OSError:
        return [Finding("src/util/status.h", 1, "nodiscard-contract",
                        "util/status.h is missing", "")]
    for needle, what in [
        (r"class\s+\[\[nodiscard\]\]\s+Status\b", "Status"),
        (r"class\s+\[\[nodiscard\]\]\s+StatusOr\b", "StatusOr"),
    ]:
        if not re.search(needle, text):
            findings.append(
                Finding(
                    "src/util/status.h", 1, "nodiscard-contract",
                    f"class {what} must be declared [[nodiscard]] so ignored "
                    "statuses fail the build", needle,
                )
            )
    return findings


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


def collect_files(repo, paths):
    for path in paths:
        absolute = os.path.join(repo, path)
        if os.path.isfile(absolute):
            yield absolute
            continue
        for dirpath, dirnames, filenames in os.walk(absolute):
            dirnames[:] = [d for d in dirnames if not d.startswith(".")]
            for filename in sorted(filenames):
                if filename.endswith(LINT_EXTENSIONS):
                    yield os.path.join(dirpath, filename)


def run_lint(repo, paths):
    status_functions = harvest_status_functions(repo)
    findings = lint_contract(repo)
    for path in collect_files(repo, paths):
        rel = os.path.relpath(path, repo)
        try:
            text = open(path, encoding="utf-8", errors="replace").read()
        except OSError as error:
            print(f"simj_lint: cannot read {rel}: {error}", file=sys.stderr)
            continue
        findings.extend(lint_file(SourceFile(path, rel, text), status_functions))
    return findings


def load_baseline(path):
    try:
        with open(path, encoding="utf-8") as handle:
            return {
                line.strip()
                for line in handle
                if line.strip() and not line.startswith("#")
            }
    except OSError:
        return set()


# ---------------------------------------------------------------------------
# Self test: every rule must catch its seeded violation and respect pragmas.
# ---------------------------------------------------------------------------

SELF_TEST_CASES = [
    # (virtual path, snippet, rule expected to fire)
    ("src/core/bad_throw.cc", "void F() { throw 1; }\n", "no-exceptions"),
    ("src/core/bad_try.cc", "void F() { try { G(); } catch (...) {} }\n",
     "no-exceptions"),
    ("src/core/bad_rand.cc", "int F() { return rand(); }\n", "no-raw-random"),
    ("src/workload/bad_seed.cc",
     "#include <ctime>\nlong F() { return time(nullptr); }\n",
     "no-raw-random"),
    ("src/ged/bad_device.cc",
     "#include <random>\nstd::random_device dev;\n", "no-raw-random"),
    ("src/ged/bad_print.cc",
     '#include <cstdio>\nvoid F() { printf("x"); }\n', "no-direct-io"),
    ("src/graph/bad_cout.cc",
     "#include <iostream>\nvoid F() { std::cout << 1; }\n", "no-direct-io"),
    ("src/core/bad_new.cc", "int* F() { return new int(3); }\n",
     "no-naked-new"),
    ("src/core/bad_status.cc",
     "#include \"sparql/parser.h\"\nvoid F() {\n  ParseSparql(\"\", d);\n}\n",
     "unconsumed-status"),
    ("src/core/bad_void.cc",
     "#include \"sparql/parser.h\"\nvoid F() { (void)ParseSparql(\"\", d); }\n",
     "unconsumed-status"),
    # Restart is shared (see SELF_TEST_HEADERS): flagged where the receiver
    # or qualifier is the class whose Restart returns Status.
    ("src/dist/bad_shared_name.cc",
     "void F(Worker* worker) {\n  worker->Restart();\n}\n",
     "unconsumed-status"),
    ("src/dist/bad_shared_name_void.cc",
     "void F() { (void)Worker::Restart(); }\n", "unconsumed-status"),
    ("src/util/bad_stderr.cc",
     '#include <cstdio>\nvoid F() { fprintf(stderr, "x\\n"); }\n',
     "no-raw-logging"),
    ("src/nlp/bad_cerr.cc",
     '#include <iostream>\nvoid F() { std::cerr << "x"; }\n',
     "no-raw-logging"),
    ("src/workload/bad_cout.cc",
     "#include <iostream>\nvoid F() { std::cout << 1; }\n",
     "no-raw-logging"),
    ("src/core/bad_opnew.cc",
     "#include <new>\nvoid* operator new(std::size_t n);\n",
     "no-raw-allocator-interposition"),
    ("src/core/bad_opdelete.cc",
     "void operator delete(void* p) noexcept;\n",
     "no-raw-allocator-interposition"),
    ("src/util/bad_malloc_def.cc",
     "#include <cstddef>\n"
     "extern \"C\" void* malloc(std::size_t n) { return nullptr; }\n",
     "no-raw-allocator-interposition"),
    ("bench/bad_free_def.cc",
     "void free(void* p) {}\n",
     "no-raw-allocator-interposition"),
    ("src/core/bad_opnew_call.cc",
     "void* F(std::size_t n) { return ::operator new(n); }\n",
     "no-raw-allocator-interposition"),
    ("src/core/bad_socket_header.cc",
     "#include <sys/socket.h>\nvoid F();\n", "no-raw-sockets"),
    ("src/core/bad_socket_call.cc",
     "void F() { int fd = ::socket(2, 1, 0); ::listen(fd, 16); }\n",
     "no-raw-sockets"),
    ("bench/bad_connect.cc",
     "#include <netinet/in.h>\nvoid F();\n", "no-raw-sockets"),
    ("src/core/bad_fork.cc",
     "void F() { if (::fork() == 0) { ::_exit(0); } }\n",
     "no-raw-subprocess"),
    ("src/dist/bad_wait_header.cc",
     "#include <sys/wait.h>\nvoid F();\n", "no-raw-subprocess"),
    ("src/graph/bad_pipe.cc",
     "void F(int* fds) { ::pipe(fds); ::kill(1, 9); }\n",
     "no-raw-subprocess"),
    ("bench/bad_system.cc",
     'void F() { ::system("ls"); }\n', "no-raw-subprocess"),
    ("src/util/subprocess.cc",
     "void F() {\n  pid_t pid = ::fork();\n  if (pid == 0) {\n"
     '    printf("child\\n");\n    ::_exit(0);\n  }\n}\n',
     "fork-safety"),
    ("src/util/subprocess.cc",
     "void F() {\n  pid_t pid = ::fork();\n  if (pid == 0) {\n"
     "    SIMJ_LOG(WARN) << \"in child\";\n    ::_exit(0);\n  }\n}\n",
     "fork-safety"),
    ("src/util/bad_handler_malloc.cc",
     "void OnProf(int) {\n  void* p = malloc(8);\n  free(p);\n}\n"
     "void F() {\n  struct sigaction sa{};\n  sa.sa_handler = &OnProf;\n"
     "  ::sigaction(SIGPROF, &sa, nullptr);\n}\n",
     "signal-handler-safety"),
    ("src/util/bad_handler_log.cc",
     "void OnTerm(int) {\n  SIMJ_LOG(WARN) << \"dying\";\n}\n"
     "void F() { ::signal(SIGTERM, OnTerm); }\n",
     "signal-handler-safety"),
    ("src/util/bad_handler_sigaction_member.cc",
     "void OnSegv(int) { printf(\"boom\"); }\n"
     "void F() {\n  struct sigaction sa{};\n  sa.sa_sigaction = OnSegv;\n}\n",
     "signal-handler-safety"),
    ("src/core/bad_atomic_store.cc",
     "#include <atomic>\nvoid F(std::atomic<int>& a) { a.store(1); }\n",
     "explicit-memory-order"),
    ("src/core/bad_atomic_fetch.cc",
     "#include <atomic>\nstd::atomic<int> c;\n"
     "int F() { return c.fetch_add(1); }\n",
     "explicit-memory-order"),
]

# Headers harvested beside src/'s: a void Restart next to a Status one.
SELF_TEST_HEADERS = [
    "class Timer {\n public:\n  void Restart();\n};\n",
    "class Worker {\n public:\n  [[nodiscard]] Status Restart();\n};\n",
]

SELF_TEST_CLEAN = [
    # The void Restart, and a receiver whose type is not known.
    ("src/core/ok_shared_name_void.cc",
     "void F(Timer& timer) {\n  timer.Restart();\n}\n"),
    ("src/core/ok_shared_name_unknown.cc",
     "void F() {\n  auto& w = Pick();\n  w.Restart();\n}\n"),
    ("src/core/ok_pragma_new.cc",
     "int* F() { return new int(3); }  // simj-lint: allow(new)\n"),
    ("src/core/ok_snprintf.cc",
     '#include <cstdio>\nvoid F(char* b) { std::snprintf(b, 4, "x"); }\n'),
    ("bench/ok_allow_io.cpp",
     "// simj-lint: allow-file(io)\n#include <iostream>\n"
     "void F() { std::cout << 1; }\n"),
    ("src/core/ok_comment.cc",
     "// a comment may say throw or rand() or new freely\nvoid F();\n"),
    ("src/core/ok_string.cc",
     'const char* kMessage = "do not throw here";\n'),
    ("src/core/ok_registry.cc",
     "struct Registry {};\nRegistry MakeRegistry();\n"),
    ("src/core/ok_ignore.cc",
     "#include \"sparql/parser.h\"\n"
     "void F() { SIMJ_IGNORE_STATUS(ParseSparql(\"\", d)); }\n"),
    # The sink implementation is path-exempt from no-raw-logging.
    ("src/util/log.cc",
     '#include <cstdio>\nvoid F() { fprintf(stderr, "sink\\n"); }\n'),
    ("src/workload/ok_logging_pragma.cc",
     '#include <cstdio>\n'
     'void F() { fprintf(stderr, "x\\n"); }  // simj-lint: allow(logging)\n'),
    # fprintf to a real file (not stderr) is not raw logging.
    ("src/util/ok_fprintf_file.cc",
     "#include <cstdio>\nvoid F(FILE* f) { fprintf(f, \"x\\n\"); }\n"),
    # The introspection server is path-exempt from no-raw-sockets.
    ("src/util/statusz.cc",
     "#include <sys/socket.h>\nvoid F() { ::socket(2, 1, 0); }\n"),
    # std::bind (the functional one) is not ::bind(2).
    ("src/core/ok_std_bind.cc",
     "#include <functional>\nauto F() { return std::bind(G, 1); }\n"),
    ("src/workload/ok_sockets_pragma.cc",
     "// simj-lint: allow-file(sockets)\n#include <sys/socket.h>\n"
     "void F() { ::socket(2, 1, 0); }\n"),
    # The framed-pipe worker runner is path-exempt from no-raw-subprocess.
    ("src/util/subprocess.cc",
     "#include <sys/wait.h>\nvoid F() { if (::fork() == 0) ::_exit(0); }\n"),
    # Method names that shadow the syscalls (ChildProcess::Kill, a worker's
    # Wait) are not ::-qualified syscalls.
    ("src/dist/ok_kill_method.cc",
     "#include \"util/subprocess.h\"\n"
     "void F(simj::subprocess::ChildProcess* c) { c->Kill(); c->Wait(); }\n"),
    ("src/workload/ok_subprocess_pragma.cc",
     "// simj-lint: allow-file(subprocess)\n"
     "void F() { ::kill(1, 9); }\n"),
    # The real child window: only allowlisted async-signal-safe calls.
    ("src/util/subprocess.cc",
     "void F() {\n  pid_t pid = ::fork();\n  if (pid == 0) {\n"
     "    CloseAllFdsExcept(a, b);\n    int code = child_main(a, b);\n"
     "    ::close(a);\n    ::_exit(code);\n  }\n}\n"),
    # A fork-window violation can be waived per line.
    ("src/util/subprocess.cc",
     "void F() {\n  if (::fork() == 0) {\n"
     "    setup_child();  // simj-lint: allow(fork)\n    ::_exit(0);\n  }\n}\n"),
    # A handler restricted to the async-signal-safe allowlist is clean.
    ("src/util/ok_handler_safe.cc",
     "#include <atomic>\nstd::atomic<int> hits;\n"
     "void OnProf(int) {\n"
     "  const int saved_errno = errno;\n"
     "  void* frames[8];\n"
     "  int depth = ::backtrace(frames, 8);\n"
     "  if (depth > 0) hits.fetch_add(1, std::memory_order_relaxed);\n"
     "  ::write(2, \"\", 0);\n  errno = saved_errno;\n}\n"
     "void F() {\n  struct sigaction sa{};\n  sa.sa_handler = &OnProf;\n}\n"),
    # Registering SIG_IGN/SIG_DFL registers no function.
    ("src/util/ok_handler_ignore.cc",
     "void F() { ::signal(SIGPIPE, SIG_IGN); }\n"),
    # A handler-body violation can be waived per line.
    ("src/util/ok_handler_pragma.cc",
     "void OnTerm(int) {\n"
     "  Flush();  // simj-lint: allow(signal-handler)\n}\n"
     "void F() { ::signal(SIGTERM, OnTerm); }\n"),
    # A function merely named like a handler but never registered is free.
    ("src/util/ok_not_registered.cc",
     "void OnProf(int) { malloc(8); }  // simj-lint: allow(new)\n"),
    # The sampling heap profiler is path-exempt from allocator
    # interposition (and `operator new[]`/`#include <new>` don't trip
    # no-naked-new, whose target is naked allocation expressions).
    ("src/util/heap_profiler.cc",
     "#include <new>\n"
     "void* operator new(std::size_t n) { return SimjAlloc(n); }\n"
     "void* operator new[](std::size_t n) { return SimjAlloc(n); }\n"
     "void operator delete(void* p) noexcept { SimjFree(p); }\n"),
    # Calls into the allocator (not definitions) are not interposition.
    ("src/core/ok_free_call.cc",
     "#include <cstdlib>\nvoid F(void* p) { std::free(p); }\n"),
    ("src/core/ok_malloc_wrapper.cc",
     "void* MyAlloc(std::size_t n);\n"),
    # An interposition violation can be waived per line.
    ("src/core/ok_alloc_pragma.cc",
     "void* operator new(std::size_t n);  // simj-lint: allow(allocator)\n"),
    # Explicit orders satisfy the rule even when the call wraps lines.
    ("src/core/ok_mo_multiline.cc",
     "#include <atomic>\nstd::atomic<int> c;\nvoid F() {\n  c.store(1,\n"
     "      std::memory_order_relaxed);\n}\n"),
    # std::exchange (the <utility> one) is not an atomic member op.
    ("src/core/ok_std_exchange.cc",
     "#include <utility>\nint F(int& x) { return std::exchange(x, 3); }\n"),
    ("src/core/ok_mo_pragma.cc",
     "#include <atomic>\nstd::atomic<int> c;\n"
     "int F() { return c.load(); }  // simj-lint: allow(memory-order)\n"),
]

def self_test(repo):
    status_functions = harvest_status_functions(repo, SELF_TEST_HEADERS)
    if "ParseSparql" not in status_functions:
        print("self-test: FAILED to harvest ParseSparql from src headers")
        return 1
    failures = 0
    for rel, snippet, rule in SELF_TEST_CASES:
        findings = lint_file(SourceFile(rel, rel, snippet), status_functions)
        if not any(f.rule == rule for f in findings):
            print(f"self-test: expected [{rule}] finding in {rel}, got "
                  f"{[str(f) for f in findings]}")
            failures += 1
    for rel, snippet in SELF_TEST_CLEAN:
        findings = lint_file(SourceFile(rel, rel, snippet), status_functions)
        if findings:
            print(f"self-test: expected no findings in {rel}, got "
                  f"{[str(f) for f in findings]}")
            failures += 1
    if failures == 0:
        cases = len(SELF_TEST_CASES) + len(SELF_TEST_CLEAN)
        print(f"self-test OK: {cases} cases")
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("paths", nargs="*", default=None)
    parser.add_argument("--repo", default=None,
                        help="repository root (default: parent of tools/)")
    parser.add_argument("--baseline", default=None,
                        help="baseline file of known-finding fingerprints")
    parser.add_argument("--update-baseline", action="store_true")
    parser.add_argument("--self-test", action="store_true",
                        help="verify every rule catches its seeded violation")
    args = parser.parse_args()

    repo = args.repo or os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))
    )
    if args.self_test:
        sys.exit(self_test(repo))

    paths = args.paths or ["src", "bench", "examples"]
    baseline_path = args.baseline or os.path.join(
        repo, "tools", "simj_lint_baseline.txt"
    )
    findings = run_lint(repo, paths)

    if args.update_baseline:
        with open(baseline_path, "w", encoding="utf-8") as handle:
            handle.write("# simj_lint baseline: one fingerprint per known "
                         "finding. New findings fail CI.\n")
            for finding in sorted(findings, key=lambda f: f.fingerprint()):
                handle.write(finding.fingerprint() + "\n")
        print(f"baseline updated: {len(findings)} finding(s)")
        return

    baseline = load_baseline(baseline_path)
    new_findings = [f for f in findings if f.fingerprint() not in baseline]
    for finding in new_findings:
        print(finding)
    suppressed = len(findings) - len(new_findings)
    if new_findings:
        print(f"simj_lint: {len(new_findings)} new finding(s)"
              + (f", {suppressed} baselined" if suppressed else ""))
        sys.exit(1)
    print(f"simj_lint OK"
          + (f" ({suppressed} baselined finding(s))" if suppressed else ""))


if __name__ == "__main__":
    main()
