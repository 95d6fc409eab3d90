#!/usr/bin/env python3
"""anufs_lint: project-invariant static analysis for the anufs tree.

Five rules, each encoding an invariant the test suite can only probe
dynamically but the source can prove statically:

  D1 determinism   No unordered-container iteration and no ambient
                   randomness/wall-clock reads in simulation code.
                   RunResult, the exporters, and the golden traces must
                   be pure functions of (config, seed); hash-order
                   iteration and clock reads are the two ways
                   nondeterminism has historically leaked in. Raw clock
                   and RNG primitives are confined to sim/random and
                   obs/profile.
  H1 hot-path      Functions marked ANUFS_HOT (request routing, cache
                   probes, scheduler dispatch, the serving-mode reader
                   batch loop) must not transitively reach allocation,
                   throwing-container operations, or blocking calls
                   (mutex locks, condition waits, sleeps, joins).
                   ANUFS_COLD functions are explicit slow-path
                   boundaries the traversal does not cross.
  T1 trace-sync    The trace category universe must agree everywhere it
                   is spelled: the Category enum in obs/trace.h, the
                   name table in obs/trace.cpp, kAllCategories' bit
                   width, scripts/check_trace_schema.py, and every
                   ANUFS_TRACE call site in src/.
  G1 generation    Every mutating RegionMap method must advance a
                   generation stamp (generation_, membership_stamp_,
                   part_stamps_/touch()) directly or via a callee, so
                   derived state (PlacementCache) can never silently
                   survive a mutation.
  P1 parsing       No string-to-number call (std::sto*, strto*, ato*)
                   in src/, tools/, bench/*.cpp or examples/*.cpp outside
                   common/line_reader.h, the one home of the input token
                   grammar.

Waivers: a finding on line N is suppressed when line N, or the block of
comment lines immediately above it, contains

    // anufs-lint: safe(RULE) <reason>

The reason is mandatory by convention and reviewed like any other code.

The checker is deliberately compiler-free: it lexes (comments, strings,
and preprocessor lines are blanked with line structure preserved) and
matches tokens, so it runs anywhere Python 3 runs. Translation units
come from the CMake compile database when one exists; headers are
discovered by walking src/; P1 also walks tools/, bench/*.cpp and
examples/*.cpp. Exit status: 0 clean, 1 findings, 2 usage
or internal error.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

RULES = ("D1", "H1", "T1", "G1", "P1")

# ---------------------------------------------------------------------------
# Lexing: blank comments, string/char literals, and preprocessor lines,
# preserving every byte position so offsets map 1:1 to the original file.
# ---------------------------------------------------------------------------


def lex(text: str) -> str:
    out = list(text)
    i, n = 0, len(text)

    def blank(a: int, b: int) -> None:
        for k in range(a, b):
            if out[k] not in ("\n", "\r"):
                out[k] = " "

    while i < n:
        c = text[i]
        two = text[i : i + 2]
        if two == "//":
            j = text.find("\n", i)
            j = n if j < 0 else j
            blank(i, j)
            i = j
        elif two == "/*":
            j = text.find("*/", i + 2)
            j = n if j < 0 else j + 2
            blank(i, j)
            i = j
        elif c == '"':
            if i >= 1 and text[i - 1] == "R":  # raw string R"delim(...)delim"
                m = re.match(r'R"([^(\s]*)\(', text[i - 1 :])
                if m:
                    close = ")" + m.group(1) + '"'
                    j = text.find(close, i + len(m.group(0)) - 1)
                    j = n if j < 0 else j + len(close)
                    blank(i - 1, j)
                    i = j
                    continue
            j = i + 1
            while j < n and text[j] != '"':
                j += 2 if text[j] == "\\" else 1
            blank(i + 1, min(j, n))
            i = min(j, n) + 1
        elif c == "'":
            j = i + 1
            while j < n and text[j] != "'":
                j += 2 if text[j] == "\\" else 1
            blank(i + 1, min(j, n))
            i = min(j, n) + 1
        else:
            i += 1

    cleaned = "".join(out)
    # Blank preprocessor directives (with continuation lines) so #define
    # bodies never masquerade as code.
    lines = cleaned.split("\n")
    k = 0
    while k < len(lines):
        if lines[k].lstrip().startswith("#"):
            while True:
                cont = lines[k].rstrip().endswith("\\")
                lines[k] = " " * len(lines[k])
                if not cont or k + 1 >= len(lines):
                    break
                k += 1
        k += 1
    return "\n".join(lines)


def line_of(text: str, offset: int) -> int:
    return text.count("\n", 0, offset) + 1


# ---------------------------------------------------------------------------
# Waivers
# ---------------------------------------------------------------------------

WAIVER_RE = re.compile(r"anufs-lint:\s*safe\((\w+)\)")
COMMENT_ONLY_RE = re.compile(r"^\s*(//|\*|/\*)")


def waived(raw_lines: list[str], line: int, rule: str) -> bool:
    """True when `line` (1-based) or the comment block above it carries a
    safe(rule) waiver."""

    def has(ln: int) -> bool:
        return any(
            m.group(1) == rule for m in WAIVER_RE.finditer(raw_lines[ln - 1])
        )

    if line <= len(raw_lines) and has(line):
        return True
    ln = line - 1
    while ln >= 1 and COMMENT_ONLY_RE.match(raw_lines[ln - 1]):
        if has(ln):
            return True
        ln -= 1
    return False


class Finding:
    def __init__(self, path: Path, line: int, rule: str, message: str):
        self.path, self.line, self.rule, self.message = path, line, rule, message

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: {self.rule}: {self.message}"


class SourceFile:
    def __init__(self, path: Path):
        self.path = path
        self.raw = path.read_text(encoding="utf-8", errors="replace")
        self.raw_lines = self.raw.split("\n")
        self.clean = lex(self.raw)


# ---------------------------------------------------------------------------
# Function extraction: a scope-stack scanner good enough for this tree's
# style (Google-ish C++, no function-try-blocks, no K&R surprises).
# ---------------------------------------------------------------------------

SCOPE_KEYWORDS_RE = re.compile(r"\b(namespace|class|struct|union|enum)\b")
NOT_FUNC_NAMES = {
    "if", "for", "while", "switch", "return", "do", "else", "catch",
    "sizeof", "alignof", "decltype", "static_assert", "new", "delete",
}


class Func:
    def __init__(self, path, name, cls, line, body, body_line, hot, cold,
                 is_const):
        self.path = path
        self.name = name          # unqualified name ('' for operators)
        self.cls = cls            # enclosing/qualifying class, or ''
        self.line = line          # definition line (of the opening brace)
        self.body = body          # cleaned body text, braces excluded
        self.body_line = body_line  # 1-based line of the body's first char
        self.hot = hot
        self.cold = cold
        self.is_const = is_const

    @property
    def label(self) -> str:
        return f"{self.cls}::{self.name}" if self.cls else self.name


def _depth0_has(chunk: str, ch: str) -> bool:
    depth = 0
    prev = ""
    for c in chunk:
        if c == "(":
            depth += 1
        elif c == ")":
            depth -= 1
        elif c == ch and depth == 0:
            if ch == "=" and (prev in "=<>!+-*/&|^" or ch == prev):
                prev = c
                continue
            return True
        prev = c
    return False


def _scope_name(chunk: str) -> str:
    head = re.split(r"(?<!:):(?!:)", chunk, maxsplit=1)[0]
    idents = re.findall(r"[A-Za-z_]\w*", head)
    return idents[-1] if idents else ""


def _func_name(chunk: str) -> tuple[str, str]:
    """(class, name) of the function a definition chunk introduces."""
    if "operator" in chunk:
        return "", ""
    par = chunk.find("(")
    head = chunk[:par] if par >= 0 else chunk
    m = re.search(r"([A-Za-z_]\w*(?:\s*::\s*~?[A-Za-z_]\w*)+|~?[A-Za-z_]\w*)\s*$",
                  head)
    if not m:
        return "", ""
    parts = [p.strip() for p in m.group(1).split("::")]
    name = parts[-1]
    cls = parts[-2] if len(parts) >= 2 else ""
    return cls, name


def extract_functions(src: SourceFile) -> list[Func]:
    return extract(src)[0]


def extract(src: SourceFile) -> tuple[list[Func], list[tuple[str, str, str]]]:
    """(function definitions, [(attr, class, name)] from declarations).

    Hot/cold markers usually sit on the header declaration while the
    body lives in a .cpp; the declaration list lets callers propagate
    the marker to the same (class, name) definition.
    """
    text = src.clean
    funcs: list[Func] = []
    decl_attrs: list[tuple[str, str, str]] = []
    scope_stack: list[tuple[str, str]] = []  # (kind, name)
    chunk_start = 0
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c in ";":
            chunk = text[chunk_start:i]
            am = re.search(r"\bANUFS_(HOT|COLD)\b", chunk)
            if am and "(" in chunk:
                cls, name = _func_name(chunk)
                cls = cls or next(
                    (nm for kind, nm in reversed(scope_stack)
                     if kind in ("class", "struct", "union")), "")
                if name:
                    decl_attrs.append((am.group(1), cls, name))
            chunk_start = i + 1
        elif c == "}":
            if scope_stack:
                scope_stack.pop()
            chunk_start = i + 1
        elif c == "{":
            chunk = text[chunk_start:i]
            skw = SCOPE_KEYWORDS_RE.search(chunk)
            cls_ctx = next(
                (nm for kind, nm in reversed(scope_stack)
                 if kind in ("class", "struct", "union")), "")
            if skw:
                scope_stack.append((skw.group(1), _scope_name(chunk)))
                chunk_start = i + 1
            elif "(" in chunk and ")" in chunk and not _depth0_has(chunk, "="):
                cls, name = _func_name(chunk)
                if name in NOT_FUNC_NAMES:
                    scope_stack.append(("block", ""))
                    chunk_start = i + 1
                else:
                    # Function definition: capture to the matching brace.
                    depth, j = 1, i + 1
                    while j < n and depth:
                        if text[j] == "{":
                            depth += 1
                        elif text[j] == "}":
                            depth -= 1
                        j += 1
                    body = text[i + 1 : j - 1]
                    funcs.append(Func(
                        path=src.path,
                        name=name,
                        cls=cls or cls_ctx,
                        line=line_of(text, i),
                        body=body,
                        body_line=line_of(text, i + 1),
                        hot="ANUFS_HOT" in chunk,
                        cold="ANUFS_COLD" in chunk,
                        is_const=bool(re.search(r"\)\s*const\b[^()]*$", chunk)),
                    ))
                    i = j
                    chunk_start = j
                    continue
            else:
                scope_stack.append(("init", ""))
                chunk_start = i + 1
        i += 1
    return funcs, decl_attrs


# ---------------------------------------------------------------------------
# D1: determinism
# ---------------------------------------------------------------------------

UNORDERED_DECL_RE = re.compile(r"\bstd\s*::\s*unordered_(?:map|set|multimap|multiset)\s*<")
RANGE_FOR_RE = re.compile(r"\bfor\s*\([^;()]*?:\s*(?:\*?\s*)?([A-Za-z_][\w.]*(?:->\w+)*)\s*\)")
CLOCK_TOKENS = [
    (re.compile(r"\bstd\s*::\s*random_device\b"), "std::random_device"),
    (re.compile(r"(?<![\w.])s?rand\s*\("), "rand()/srand()"),
    (re.compile(r"\bsteady_clock\s*::\s*now\b"), "steady_clock::now"),
    (re.compile(r"\bsystem_clock\s*::\s*now\b"), "system_clock::now"),
    (re.compile(r"\bhigh_resolution_clock\s*::\s*now\b"),
     "high_resolution_clock::now"),
    (re.compile(r"\bgettimeofday\s*\("), "gettimeofday"),
    (re.compile(r"\bclock_gettime\s*\("), "clock_gettime"),
    (re.compile(r"\bstd\s*::\s*time\s*\("), "std::time"),
]
# sim/random and obs/profile are the historical confinement points for
# raw RNG/clock primitives; serving mode (src/serve and its pacing
# helper) is the one subsystem that legitimately runs against WALL time
# — real threads, real QPS — and its placement answers are proven
# timing-independent by tests/serve_equivalence_test.cpp rather than by
# this rule.
D1_EXEMPT_PATHS = ("sim/random", "sim/pacing", "obs/profile", "src/serve/")


def unordered_names(src: SourceFile) -> set[str]:
    """Names declared with an unordered container type in this file."""
    names: set[str] = set()
    for m in UNORDERED_DECL_RE.finditer(src.clean):
        # Walk the template argument list to its closing '>'.
        depth, j = 1, m.end()
        text = src.clean
        while j < len(text) and depth:
            if text[j] == "<":
                depth += 1
            elif text[j] == ">":
                depth -= 1
            j += 1
        tail = text[j:]
        dm = re.match(r"\s*&?\s*([A-Za-z_]\w*)\s*(?:[;,={(\[]|$)", tail)
        if dm:
            names.add(dm.group(1))
    return names


def check_d1(sources: list[SourceFile]) -> list[Finding]:
    findings: list[Finding] = []
    # Unordered-typed names are collected globally: members declared in a
    # header are iterated from the .cpp, and auto& aliases keep the name.
    unordered: set[str] = set()
    for src in sources:
        unordered |= unordered_names(src)
    for src in sources:
        rel = src.path.as_posix()
        exempt = any(p in rel for p in D1_EXEMPT_PATHS)
        for m in RANGE_FOR_RE.finditer(src.clean):
            name = m.group(1).split(".")[-1].split(">")[-1]
            if name in unordered:
                ln = line_of(src.clean, m.start())
                if not waived(src.raw_lines, ln, "D1"):
                    findings.append(Finding(
                        src.path, ln, "D1",
                        f"iteration over unordered container '{m.group(1)}' "
                        "(hash order is not deterministic; iterate a sorted "
                        "copy, keep an incremental aggregate, or waive with "
                        "a safe(D1) proof of order-independence)"))
        if exempt:
            continue
        for pattern, label in CLOCK_TOKENS:
            for m in pattern.finditer(src.clean):
                ln = line_of(src.clean, m.start())
                if not waived(src.raw_lines, ln, "D1"):
                    findings.append(Finding(
                        src.path, ln, "D1",
                        f"ambient nondeterminism source '{label}' (raw "
                        "clock/RNG reads are confined to sim/random, "
                        "sim/pacing, obs/profile, and src/serve)"))
    return findings


# ---------------------------------------------------------------------------
# H1: hot paths must not allocate or take throwing container operations
# ---------------------------------------------------------------------------

H1_BANNED = [
    (re.compile(r"\bnew\b(?!\s*\()"), "operator new"),
    (re.compile(r"\bnew\s*\("), "operator new"),
    (re.compile(r"\bmalloc\s*\("), "malloc"),
    (re.compile(r"\bcalloc\s*\("), "calloc"),
    (re.compile(r"\brealloc\s*\("), "realloc"),
    (re.compile(r"\bstd\s*::\s*map\s*<"), "std::map construction"),
    (re.compile(r"\bthrow\b"), "throw"),
    (re.compile(r"\.\s*push_back\s*\("), ".push_back"),
    (re.compile(r"\.\s*emplace_back\s*\("), ".emplace_back"),
    (re.compile(r"\.\s*emplace\s*\("), ".emplace"),
    (re.compile(r"\.\s*insert\s*\("), ".insert"),
    (re.compile(r"\.\s*resize\s*\("), ".resize"),
    (re.compile(r"\.\s*reserve\s*\("), ".reserve"),
    (re.compile(r"\.\s*assign\s*\("), ".assign"),
    (re.compile(r"\.\s*at\s*\("), ".at (throws)"),
    # Blocking calls: a hot path that can park its thread is not a hot
    # path. The serving-mode reader batch (serve::serve_batch, called by
    # LookupService::run_batch) is the motivating obligation — readers
    # must never block on the control plane, and these patterns are how
    # that promise would break.
    (re.compile(r"\.\s*lock\s*\("), ".lock (blocks)"),
    (re.compile(r"\bstd\s*::\s*lock_guard\s*<"), "std::lock_guard (blocks)"),
    (re.compile(r"\bstd\s*::\s*unique_lock\s*<"), "std::unique_lock (blocks)"),
    (re.compile(r"\.\s*wait\s*\("), ".wait (blocks)"),
    (re.compile(r"\.\s*wait_for\s*\("), ".wait_for (blocks)"),
    (re.compile(r"\.\s*wait_until\s*\("), ".wait_until (blocks)"),
    (re.compile(r"\bsleep_for\s*\("), "sleep_for (blocks)"),
    (re.compile(r"\bsleep_until\s*\("), "sleep_until (blocks)"),
    (re.compile(r"\.\s*join\s*\("), ".join (blocks)"),
]
CALL_RE = re.compile(r"([A-Za-z_]\w*)\s*\(")


def check_h1(sources: list[SourceFile]) -> list[Finding]:
    findings: list[Finding] = []
    by_name: dict[str, list[Func]] = {}
    srcs: dict[Path, SourceFile] = {s.path: s for s in sources}
    all_funcs: list[Func] = []
    # Hot/cold markers usually live on the header declaration while the
    # body lives in a .cpp; propagate by (class, name) so an unrelated
    # class's same-named method (e.g. another tuner's retune) is not
    # swept in.
    hot_keys: set[tuple[str, str]] = set()
    cold_keys: set[tuple[str, str]] = set()
    extracted: list[list[Func]] = []
    for src in sources:
        funcs, decl_attrs = extract(src)
        extracted.append(funcs)
        for attr, cls, name in decl_attrs:
            (hot_keys if attr == "HOT" else cold_keys).add((cls, name))
    for funcs in extracted:
        for fn in funcs:
            fn.hot = fn.hot or (fn.cls, fn.name) in hot_keys
            fn.cold = fn.cold or (fn.cls, fn.name) in cold_keys
            all_funcs.append(fn)
            if fn.name:
                by_name.setdefault(fn.name, []).append(fn)

    def scan(fn: Func, root: Func, chain: list[str],
             visited: set[tuple[Path, int]], reported: set) -> None:
        key = (fn.path, fn.line)
        if key in visited:
            return
        visited.add(key)
        src = srcs[fn.path]
        for pattern, label in H1_BANNED:
            for m in pattern.finditer(fn.body):
                ln = fn.body_line - 1 + fn.body.count("\n", 0, m.start()) + 1
                rkey = (fn.path, ln, label, root.label)
                if rkey in reported:
                    continue
                if waived(src.raw_lines, ln, "H1"):
                    continue
                reported.add(rkey)
                via = " -> ".join(chain + [fn.label])
                findings.append(Finding(
                    fn.path, ln, "H1",
                    f"'{label}' reachable from hot function "
                    f"'{root.label}' (via {via}); move it behind an "
                    "ANUFS_COLD boundary or waive with a safe(H1) "
                    "amortization argument"))
        for m in CALL_RE.finditer(fn.body):
            callee = m.group(1)
            for target in by_name.get(callee, []):
                if target.cold:
                    continue  # explicit slow-path boundary
                scan(target, root, chain + [fn.label], visited, reported)

    reported: set = set()
    for fn in all_funcs:
        if fn.hot:
            scan(fn, fn, [], set(), reported)
    return findings


# ---------------------------------------------------------------------------
# T1: trace category universe agreement
# ---------------------------------------------------------------------------

TRACE_SITE_RE = re.compile(
    r"\bANUFS_TRACE\s*\(\s*(?:::)?\s*(?:anufs\s*::\s*)?(?:obs\s*::\s*)?"
    r"Category\s*::\s*(k\w+)")


def check_t1(sources: list[SourceFile], root: Path) -> list[Finding]:
    findings: list[Finding] = []
    trace_h = root / "src" / "obs" / "trace.h"
    trace_cpp = root / "src" / "obs" / "trace.cpp"
    schema_py = root / "scripts" / "check_trace_schema.py"
    for req in (trace_h, trace_cpp, schema_py):
        if not req.exists():
            findings.append(Finding(
                req, 1, "T1", "schema file missing (cannot cross-check the "
                "trace category universe)"))
            return findings

    h_src = SourceFile(trace_h)
    enum_m = re.search(r"enum\s+class\s+Category[^{]*\{(.*?)\}", h_src.clean,
                       re.S)
    enum: dict[str, int] = {}
    if enum_m:
        base = line_of(h_src.clean, enum_m.start(1))
        for m in re.finditer(r"(k\w+)\s*=\s*1u\s*<<\s*(\d+)", enum_m.group(1)):
            enum[m.group(1)] = int(m.group(2))
    if not enum:
        findings.append(Finding(trace_h, 1, "T1",
                                "could not parse the Category enum"))
        return findings

    bits = sorted(enum.values())
    if bits != list(range(len(bits))):
        findings.append(Finding(
            trace_h, base, "T1",
            f"Category bits are not dense 0..{len(bits) - 1}: {bits}"))
    all_m = re.search(r"kAllCategories\s*=\s*\(1u\s*<<\s*(\d+)\)\s*-\s*1",
                      h_src.clean)
    if all_m and int(all_m.group(1)) != len(enum):
        findings.append(Finding(
            trace_h, line_of(h_src.clean, all_m.start()), "T1",
            f"kAllCategories covers {all_m.group(1)} bits but the enum has "
            f"{len(enum)} categories"))

    cpp_src = SourceFile(trace_cpp)
    # The name table pairs Category::kX with its wire name; string
    # literals are blanked by the lexer, so read them from the raw text.
    table: dict[str, str] = {}
    for m in re.finditer(r"\{\s*Category::(k\w+)\s*,\s*\"(\w+)\"\s*\}",
                         cpp_src.raw):
        table[m.group(1)] = m.group(2)
    for name in enum:
        if name not in table:
            findings.append(Finding(
                trace_cpp, 1, "T1",
                f"enum member '{name}' missing from the kCategories name "
                "table"))
    for name in table:
        if name not in enum:
            findings.append(Finding(
                trace_cpp, 1, "T1",
                f"kCategories entry '{name}' has no Category enum member"))

    schema_text = schema_py.read_text(encoding="utf-8")
    cat_m = re.search(r"CATEGORIES\s*=\s*\{([^}]*)\}", schema_text)
    schema_names = set(re.findall(r"\"(\w+)\"|'(\w+)'",
                                  cat_m.group(1))) if cat_m else set()
    schema_names = {a or b for a, b in schema_names}
    wire_names = set(table.values())
    for missing in sorted(wire_names - schema_names):
        findings.append(Finding(
            schema_py, 1, "T1",
            f"trace category '{missing}' missing from CATEGORIES"))
    for extra in sorted(schema_names - wire_names):
        findings.append(Finding(
            schema_py, 1, "T1",
            f"CATEGORIES entry '{extra}' is not a trace category"))

    for src in sources:
        for m in TRACE_SITE_RE.finditer(src.clean):
            if m.group(1) not in enum:
                ln = line_of(src.clean, m.start())
                if not waived(src.raw_lines, ln, "T1"):
                    findings.append(Finding(
                        src.path, ln, "T1",
                        f"ANUFS_TRACE uses unknown category "
                        f"'{m.group(1)}' (not in obs/trace.h)"))
    return findings


# ---------------------------------------------------------------------------
# G1: RegionMap mutators must stamp
# ---------------------------------------------------------------------------

BUMP_RE = re.compile(
    r"\+\+\s*[\w.]*generation_|[\w.]*generation_\s*(?:\+\+|=[^=])|"
    r"[\w.]*membership_stamp_\s*=[^=]|[\w.]*part_stamps_\s*(?:\[|=[^=]|\.)|"
    r"\btouch\s*\(")
G1_CLASS = "RegionMap"


def check_g1(sources: list[SourceFile]) -> list[Finding]:
    findings: list[Finding] = []
    methods: list[Func] = []
    srcs: dict[Path, SourceFile] = {s.path: s for s in sources}
    for src in sources:
        for fn in extract_functions(src):
            if fn.cls == G1_CLASS and fn.name:
                methods.append(fn)
    by_name: dict[str, list[Func]] = {}
    for fn in methods:
        by_name.setdefault(fn.name, []).append(fn)

    def bumps(fn: Func, visited: set[tuple[Path, int]]) -> bool:
        key = (fn.path, fn.line)
        if key in visited:
            return False
        visited.add(key)
        if BUMP_RE.search(fn.body):
            return True
        for m in CALL_RE.finditer(fn.body):
            for target in by_name.get(m.group(1), []):
                if bumps(target, visited):
                    return True
        return False

    for fn in methods:
        if fn.is_const or fn.name == G1_CLASS or fn.name.startswith("~"):
            continue
        if bumps(fn, set()):
            continue
        src = srcs[fn.path]
        if waived(src.raw_lines, fn.line, "G1"):
            continue
        findings.append(Finding(
            fn.path, fn.line, "G1",
            f"mutating method '{fn.label}' never bumps a generation stamp "
            "(generation_/membership_stamp_/part_stamps_/touch()); derived "
            "caches would survive this mutation"))
    return findings


# ---------------------------------------------------------------------------
# P1: number parsing stays in the line reader
# ---------------------------------------------------------------------------

NUMBER_PARSE_RE = re.compile(
    r"\bstd\s*::\s*sto(?:i|l|ll|ul|ull|f|d|ld)\b"
    r"|\bstrto(?:d|f|ld|l|ll|ul|ull)\b|\bato(?:f|i|l|ll)\b")
P1_HOME = "src/common/line_reader.h"


def check_p1(sources: list[SourceFile]) -> list[Finding]:
    findings: list[Finding] = []
    for src in sources:
        if src.path.as_posix().endswith(P1_HOME):
            continue
        for m in NUMBER_PARSE_RE.finditer(src.clean):
            ln = line_of(src.clean, m.start())
            if not waived(src.raw_lines, ln, "P1"):
                findings.append(Finding(
                    src.path, ln, "P1", f"number conversion '{m.group(0)}' "
                    f"outside {P1_HOME} (use to_double/to_u64/to_u32)"))
    return findings


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


def collect_sources(root: Path, compile_db: Path | None,
                    explicit: list[Path]) -> list[Path]:
    if explicit:
        return explicit
    paths: set[Path] = set()
    src_root = root / "src"
    if compile_db and compile_db.exists():
        try:
            for entry in json.loads(compile_db.read_text(encoding="utf-8")):
                p = Path(entry["file"])
                if not p.is_absolute():
                    p = Path(entry.get("directory", ".")) / p
                p = p.resolve()
                if p.exists() and src_root.resolve() in p.parents:
                    paths.add(p)
        except (json.JSONDecodeError, KeyError, OSError) as err:
            print(f"anufs_lint: warning: unreadable compile database "
                  f"{compile_db}: {err}", file=sys.stderr)
    if not paths:
        paths |= {p.resolve() for p in src_root.rglob("*.cpp")}
    # Headers never appear in the compile database; walk them directly.
    paths |= {p.resolve() for p in src_root.rglob("*.h")}
    return sorted(paths)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="anufs_lint",
        description="Project-invariant static analysis (D1/H1/T1/G1/P1).")
    parser.add_argument("--root", type=Path, default=Path("."),
                        help="repository root (default: cwd)")
    parser.add_argument("--compile-db", type=Path, default=None,
                        help="compile_commands.json "
                        "(default: <root>/build/compile_commands.json)")
    parser.add_argument("--rules", default=",".join(RULES),
                        help="comma-separated rule subset (default: all)")
    parser.add_argument("--list-files", action="store_true",
                        help="print the scanned file set and exit")
    parser.add_argument("files", nargs="*", type=Path,
                        help="explicit files to scan (fixture mode; "
                        "overrides tree discovery)")
    args = parser.parse_args(argv)

    rules = [r.strip().upper() for r in args.rules.split(",") if r.strip()]
    for r in rules:
        if r not in RULES:
            print(f"anufs_lint: unknown rule '{r}'", file=sys.stderr)
            return 2

    root = args.root.resolve()
    compile_db = args.compile_db or root / "build" / "compile_commands.json"
    try:
        paths = collect_sources(root, compile_db, args.files)
    except OSError as err:
        print(f"anufs_lint: {err}", file=sys.stderr)
        return 2
    if args.list_files:
        for p in paths:
            print(p)
        return 0
    sources = []
    for p in paths:
        try:
            sources.append(SourceFile(p))
        except OSError as err:
            print(f"anufs_lint: {err}", file=sys.stderr)
            return 2

    findings: list[Finding] = []
    if "D1" in rules:
        findings += check_d1(sources)
    if "H1" in rules:
        findings += check_h1(sources)
    if "T1" in rules:
        findings += check_t1(sources, root)
    if "G1" in rules:
        findings += check_g1(sources)
    if "P1" in rules:
        # Command-line flags convert numbers too (not in fixture mode).
        drivers = [] if args.files else sorted(
            list((root / "tools").rglob("*.cpp")) +
            list((root / "bench").glob("*.cpp")) +
            list((root / "examples").glob("*.cpp")))
        findings += check_p1(sources + [SourceFile(p) for p in drivers])

    findings.sort(key=lambda f: (str(f.path), f.line, f.rule))
    for f in findings:
        print(f)
    if findings:
        print(f"anufs_lint: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
