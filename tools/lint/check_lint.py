#!/usr/bin/env python3
"""Repo-specific multi-pass lint for tcpdemux, the `lint`-labelled ctest.

Enforces invariants that -Wall and clang-tidy cannot express. The
analyzer is a framework of per-rule passes: simple line rules are
regexes, semantic passes (include layering, atomics discipline, lock
discipline, header hygiene) get the stripped source and the include
graph. Findings are stable-sorted and exportable as JSON
(tcpdemux.lint.v1) for CI artifacts; tools/lint/validate_findings.py
checks the export.

Line rules:

  no-random          rand()/srand()/std::rand anywhere: all randomness goes
                     through <random> engines (sim::Rng) so runs are seeded
                     and reproducible.
  raw-owning-memory  no raw owning new/delete in src/core: PCB memory
                     belongs to core/pcb_slab.h and page memory to
                     core/page_memory.h (exempt files), the RCU chain node
                     belongs to the epoch manager (its sites carry an
                     explicit NOLINT(raw-owning-memory) marker), and
                     everything else to std containers. Include
                     directives (`#include <new>`) are not allocations.
  pcb-construction   no `new Pcb`, `make_unique<Pcb>` or `unique_ptr<Pcb>`
                     anywhere in src/ outside core/pcb_slab.h: the slab is
                     the one PCB allocation path, so every PCB is a
                     line-aligned slot the validator can account for. (The
                     RCU node embeds its Pcb and is built as a Node.)
  page-mapping       mmap/munmap/madvise only inside core/page_memory.h:
                     one audited shim owns alignment, huge-page advice,
                     the non-Linux fallback and the ASan slack poisoning,
                     so no table or slab grows a private mapping path.
  seed-rotation      net::next_seed( is called in src/ only by
                     core/sequent_hash.cc (SequentDemuxer::rotate_seed,
                     the one table-seed rotation: allocate first, keep
                     the seed on refusal, re-place every resident, count
                     once)
                     and core/sharded_demuxer.cc (the steering seed). Its
                     declaration and definition (first parameter a type)
                     are not calls.
  prefetch-discipline
                     __builtin_prefetch only inside core/prefetch.h
                     (prefetch_read): one audited shim keeps prefetches
                     portable and greppable.
  byte-order         network-order header fields are only touched through
                     net/byte_order.h: no htons/ntohl family, no
                     __builtin_bswap, no reinterpret_cast to multi-byte
                     integer pointers.
  include-hygiene    no <bits/...> internals, no "../" relative includes.
  wire-parse         no hand-rolled multi-byte loads (buf[i] << 8 | ...)
                     from wire buffers outside net/byte_order.h.
  telemetry-registry no mutable static integer/atomic counters in src/core:
                     instrumentation goes through DemuxStats /
                     report::Telemetry.
  simd-discipline    vector/hash intrinsics (_mm_*, NEON v*q_*, __crc32*,
                     and their headers) only inside the audited shim
                     net/crc32c.h: its hardware path ships next to its
                     portable table fallback and a runtime-verifiable
                     backend report, and no other file scatters ifdef'd
                     intrinsics through the tree.
  rng-discipline     no raw std::mt19937 engines in src/sim, src/tcp, or
                     src/net outside sim/rng.h: generators draw through
                     sim::Rng so every trace is reproducible from one seed.
                     (net/frame_fault.cc carries a documented inline
                     exemption: net sits below sim in the layering DAG, so
                     it cannot include sim/rng.h without inverting a layer;
                     its engine is caller-seeded and deterministic.)

Semantic passes:

  include-guard      headers use the canonical TCPDEMUX_<PATH>_H_ guard.
  include-first      every src .cc includes its own header first, so each
                     header is proven self-contained.
  include-layering   src/ modules may only include downward along the
                     architecture DAG (net, report, analytic at the base;
                     core above net+report; tcp above core; sim above tcp).
                     A sharded pipeline cannot quietly invert a layer.
  atomics-discipline every atomic load/store/fetch_*/exchange/
                     compare_exchange in src/core names an explicit
                     std::memory_order. The paper's whole argument is that
                     demultiplexing cost is memory behavior; orderings are
                     part of the algorithm and must be visible, never
                     seq_cst-by-default. Also covers the incremental-resize
                     bookkeeping (DESIGN.md "Incremental resize &
                     degradation ladder"): migration cursor/residents/
                     backoff fields are single-writer plain members by
                     design, so declaring one std::atomic outside the
                     audited concurrent primitives is flagged — an atomic
                     sprinkle there hides the race from TSan without
                     adding a protocol.
  lock-discipline    no bare std::mutex/std::shared_mutex (or std lock
                     RAII, std::condition_variable, std::once_flag/
                     call_once) in src/core, src/report, or src/tcp
                     outside core/thread_annotations.h: locks must be the
                     capability-annotated core::Mutex so -Wthread-safety
                     covers them (TCPDEMUX_THREAD_SAFETY=ON), and
                     migration start/finish coordination must not grow
                     ad-hoc sync primitives invisible to that analysis.
  test-only-module   every src/ header is reached from the sources of a
                     non-test binary: the walk starts at every file under
                     bench/, examples/ and rxbench/, follows quoted
                     #includes (resolved beside the including file, then
                     under src/), and lets each src/**/X.h pull in its own
                     X.cc. A header no benchmark, example or rxbench
                     source reaches is a module only tests call, which
                     the paper's measurements never run. The deliberate
                     test tools core/validate.h and net/frame_fault.h are
                     exempt by name.

Usage: check_lint.py [repo-root] [--json FILE]
Exit codes: 0 = clean, 1 = violations, 2 = lint configuration broken
(e.g. a rule exempts a file that no longer exists — exemptions must be
pruned when their file goes away, or they silently blanket new code).

Suppress a finding with a trailing  // NOLINT(<rule>)  comment, or a
// NOLINTNEXTLINE(<rule>)  comment on the line above. Fixture trees under
tests/lint_fixtures/ are skipped by the repo walk (they contain planted
violations) and linted by the fixture ctest instead.
"""

import argparse
import json
import os
import re
import sys

SCHEMA = "tcpdemux.lint.v1"

# Directories walked from the repo root.
TOP_DIRS = ("src", "tests", "bench", "examples", "tools")

# Directory names whose subtrees are never linted by the repo walk.
# lint_fixtures holds planted violations exercised by the fixture ctest.
SKIP_DIR_NAMES = {"lint_fixtures"}

# The architecture DAG, derived from the actual #include graph: each
# src/<module> may include only from the listed modules. net, report, and
# analytic are base layers (no cross-module includes); core sits above
# net+report; tcp above core; sim is the top composition layer and may
# additionally drive tcp machines and analytic models.
LAYERING = {
    "analytic": {"analytic"},
    "net": {"net"},
    "report": {"report"},
    "core": {"core", "net", "report"},
    "tcp": {"tcp", "core", "net", "report"},
    "sim": {"sim", "tcp", "core", "net", "report", "analytic"},
}

NOLINT = re.compile(r"//\s*NOLINT\(([a-z-]+(?:,\s*[a-z-]+)*)\)")
NOLINTNEXTLINE = re.compile(r"//\s*NOLINTNEXTLINE\(([a-z-]+(?:,\s*[a-z-]+)*)\)")


class Finding:
    """One lint violation, sortable into the stable report order."""

    __slots__ = ("file", "line", "rule", "message")

    def __init__(self, file: str, line: int, rule: str, message: str):
        self.file = file
        self.line = line
        self.rule = rule
        self.message = message

    def sort_key(self):
        return (self.file, self.line, self.rule, self.message)

    def render(self) -> str:
        return f"{self.file}:{self.line}: [{self.rule}] {self.message}"

    def to_json(self) -> dict:
        return {
            "file": self.file,
            "line": self.line,
            "rule": self.rule,
            "message": self.message,
        }


class FileContext:
    """A linted file: raw text, comment/string-stripped text, suppressions."""

    def __init__(self, root: str, rel: str):
        self.rel = rel
        with open(os.path.join(root, rel), encoding="utf-8") as f:
            self.raw_lines = f.read().splitlines()
        in_block = False
        self.stripped_lines = []
        for raw in self.raw_lines:
            stripped, in_block = strip_code(raw, in_block)
            self.stripped_lines.append(stripped)
        # Rules that need declaration-shaped text: deleted/defaulted
        # special members are declarations, not owning operator delete.
        self.decl_lines = [
            re.sub(r"=\s*(?:delete|default)\b", "", line)
            for line in self.stripped_lines
        ]

    def suppressed(self, lineno: int) -> set:
        """Rules NOLINT-suppressed on 1-based line `lineno`."""
        rules = set()
        m = NOLINT.search(self.raw_lines[lineno - 1])
        if m:
            rules |= {r.strip() for r in m.group(1).split(",")}
        if lineno >= 2:
            m = NOLINTNEXTLINE.search(self.raw_lines[lineno - 2])
            if m:
                rules |= {r.strip() for r in m.group(1).split(",")}
        return rules


def strip_code(line: str, in_block_comment: bool) -> tuple:
    """Blanks out comments and string/char literals, preserving length.

    Good enough for line-oriented rules: no raw strings or line
    continuations in this codebase (and the lint would flag the pattern
    inside them conservatively anyway).
    """
    out = []
    i, n = 0, len(line)
    while i < n:
        if in_block_comment:
            end = line.find("*/", i)
            if end < 0:
                out.append(" " * (n - i))
                i = n
            else:
                out.append(" " * (end + 2 - i))
                i = end + 2
                in_block_comment = False
            continue
        ch = line[i]
        nxt = line[i + 1] if i + 1 < n else ""
        if ch == "/" and nxt == "/":
            out.append(" " * (n - i))
            break
        if ch == "/" and nxt == "*":
            in_block_comment = True
            i += 2
            out.append("  ")
            continue
        if ch in "\"'":
            quote = ch
            j = i + 1
            while j < n:
                if line[j] == "\\":
                    j += 2
                    continue
                if line[j] == quote:
                    break
                j += 1
            out.append(quote + " " * (min(j, n - 1) - i))
            i = min(j, n - 1) + 1
            continue
        out.append(ch)
        i += 1
    return "".join(out), in_block_comment


class Rule:
    """A lint pass: scoped to path prefixes, with audited exempt files."""

    name = ""
    scopes = ()
    exempt = ()

    def applies_to(self, rel: str) -> bool:
        if rel in self.exempt:
            return False
        return any(
            rel.startswith(scope + "/") or rel == scope
            for scope in self.scopes
        )

    def check(self, ctx: FileContext) -> list:
        raise NotImplementedError

    def run(self, ctx: FileContext) -> list:
        if not self.applies_to(ctx.rel):
            return []
        return [
            f
            for f in self.check(ctx)
            if self.name not in ctx.suppressed(f.line)
        ]


class RegexRule(Rule):
    """Flags every stripped line matching a pattern."""

    # Subclasses may run on declaration-normalized text (see FileContext)
    # or on the raw line (include-path rules: strip_code blanks string
    # literals, and an #include's path IS a string literal).
    use_decl_lines = False
    use_raw_lines = False

    def __init__(self, name, pattern, scopes, message, exempt=()):
        self.name = name
        self.pattern = re.compile(pattern)
        self.scopes = scopes
        self.message = message
        self.exempt = exempt

    def check(self, ctx: FileContext) -> list:
        if self.use_raw_lines:
            lines = ctx.raw_lines
        elif self.use_decl_lines:
            lines = ctx.decl_lines
        else:
            lines = ctx.stripped_lines
        return [
            Finding(ctx.rel, lineno, self.name, self.message)
            for lineno, code in enumerate(lines, 1)
            if self.pattern.search(code)
        ]


class DeclRegexRule(RegexRule):
    use_decl_lines = True


class RawRegexRule(RegexRule):
    use_raw_lines = True


class IncludeGuardRule(Rule):
    """src headers carry the canonical TCPDEMUX_<PATH>_H_ guard."""

    name = "include-guard"
    scopes = ("src",)

    @staticmethod
    def guard_for(rel_path: str) -> str:
        stem = re.sub(r"[/.]", "_", rel_path.upper())
        return f"TCPDEMUX_{stem}_"

    def applies_to(self, rel: str) -> bool:
        return super().applies_to(rel) and rel.endswith(".h")

    def check(self, ctx: FileContext) -> list:
        expected = self.guard_for(ctx.rel[len("src/"):])
        m = re.search(r"#\s*ifndef\s+(\S+)", "\n".join(ctx.stripped_lines))
        if m is not None and m.group(1) == expected:
            return []
        got = m.group(1) if m else "none"
        return [
            Finding(ctx.rel, 1, self.name,
                    f"expected guard {expected}, found {got}")
        ]


class IncludeFirstRule(Rule):
    """Every src .cc includes its own header first (self-containment)."""

    name = "include-first"
    scopes = ("src",)

    def __init__(self, root: str):
        self.root = root

    def applies_to(self, rel: str) -> bool:
        return super().applies_to(rel) and rel.endswith(".cc")

    def check(self, ctx: FileContext) -> list:
        own_header = ctx.rel[len("src/"):-len(".cc")] + ".h"
        if not os.path.exists(os.path.join(self.root, "src", own_header)):
            return []
        # Paths live inside string literals, which strip_code blanks —
        # find the directive in stripped text, read the path from raw.
        for lineno, (raw, code) in enumerate(
                zip(ctx.raw_lines, ctx.stripped_lines), 1):
            if not re.match(r"\s*#\s*include\b", code):
                continue
            m = re.search(r'#\s*include\s*["<]([^">]+)[">]', raw)
            if m and m.group(1) != own_header:
                return [
                    Finding(ctx.rel, lineno, self.name,
                            f'first include must be "{own_header}" '
                            f"(found {m.group(1)})")
                ]
            return []
        return []


def quoted_includes(ctx: FileContext):
    """Yields (lineno, path) for each live `#include "path"` in ctx."""
    # Paths live inside string literals, which strip_code blanks — find
    # the directive in stripped text, read the path from raw.
    for lineno, (raw, code) in enumerate(
            zip(ctx.raw_lines, ctx.stripped_lines), 1):
        if not re.match(r"\s*#\s*include\b", code):
            continue
        m = re.search(r'#\s*include\s*"([^"]+)"', raw)
        if m is not None:
            yield lineno, m.group(1)


class IncludeLayeringRule(Rule):
    """src modules include only downward along the architecture DAG."""

    name = "include-layering"
    scopes = ("src",)

    def check(self, ctx: FileContext) -> list:
        parts = ctx.rel.split("/")
        if len(parts) < 3 or parts[1] not in LAYERING:
            return []
        module = parts[1]
        allowed = LAYERING[module]
        findings = []
        for lineno, path in quoted_includes(ctx):
            target = path.split("/")[0]
            if target in LAYERING and target not in allowed:
                order = " > ".join(
                    ("sim", "tcp", "core", "net|report|analytic"))
                findings.append(
                    Finding(ctx.rel, lineno, self.name,
                            f"src/{module} may not include src/{target}: "
                            f"the module DAG is {order}; inverting a layer "
                            "couples the lower module to its own callers"))
        return findings


class AtomicsDisciplineRule(Rule):
    """Atomic operations in src/core name an explicit std::memory_order."""

    name = "atomics-discipline"
    scopes = ("src/core",)

    # Member-call spelling only: `std::exchange(...)`, `std::atomic_...`
    # free functions and non-atomic .clear()/.load of other APIs are not
    # matched. Preceded by `.` or `->` keeps std::exchange out.
    CALL = re.compile(
        r"(?:\.|->)\s*"
        r"(load|store|exchange|fetch_add|fetch_sub|fetch_and|fetch_or|"
        r"fetch_xor|compare_exchange_weak|compare_exchange_strong)"
        r"\s*\(")

    # Incremental-resize bookkeeping declared atomic. The migration state
    # (drain cursor, resident count, defer backoff) is single-writer by
    # design — the Demuxer API imposes external synchronization and the
    # TSan cell enforces it. An atomic field there would silence the race
    # detector while providing no ordering protocol. The audited
    # concurrent primitives keep their atomics (they ARE the protocol).
    MIGRATION_ATOMIC = re.compile(
        r"\bstd::atomic(?:<[^;{]*>|_\w+)?\s+\w*"
        r"(?:cursor|resident|debt|backoff|retry|migrat)\w*\s*[{;=]")
    MIGRATION_EXEMPT = (
        "src/core/epoch.h", "src/core/epoch.cc",
        "src/core/rcu_demuxer.h", "src/core/concurrent_demuxer.h",
        "src/core/fault_inject.h",
    )

    def check(self, ctx: FileContext) -> list:
        findings = []
        for lineno, code in enumerate(ctx.stripped_lines, 1):
            for m in self.CALL.finditer(code):
                args = self._call_args(ctx.stripped_lines, lineno - 1,
                                       m.end() - 1)
                if "memory_order" not in args:
                    findings.append(
                        Finding(ctx.rel, lineno, self.name,
                                f"atomic {m.group(1)}() must name an "
                                "explicit std::memory_order: orderings are "
                                "part of the algorithm (seq_cst-by-default "
                                "hides the protocol and the cost)"))
            if (ctx.rel not in self.MIGRATION_EXEMPT
                    and self.MIGRATION_ATOMIC.search(code)):
                findings.append(
                    Finding(ctx.rel, lineno, self.name,
                            "migration/resize bookkeeping (cursor, "
                            "residents, backoff) is single-writer by "
                            "design: declaring it std::atomic hides the "
                            "race from TSan without adding a protocol — "
                            "keep it plain and let the concurrency suite "
                            "gate (see DESIGN.md, incremental resize)"))
        return findings

    @staticmethod
    def _call_args(lines, line_idx, open_paren_col) -> str:
        """Text between the call's parentheses, spanning lines if needed."""
        depth = 0
        collected = []
        i, j = line_idx, open_paren_col
        while i < len(lines):
            line = lines[i]
            while j < len(line):
                ch = line[j]
                if ch == "(":
                    depth += 1
                elif ch == ")":
                    depth -= 1
                    if depth == 0:
                        collected.append(line[open_paren_col:j]
                                         if i == line_idx else line[:j])
                        return "\n".join(collected)
                j += 1
            collected.append(line[open_paren_col:] if i == line_idx
                             else line)
            i, j = i + 1, 0
            open_paren_col = 0
        return "\n".join(collected)


class LockDisciplineRule(Rule):
    """Locks in concurrency-bearing modules are the annotated wrappers."""

    name = "lock-discipline"
    scopes = ("src/core", "src/report", "src/tcp")
    exempt = ("src/core/thread_annotations.h",)

    BARE = re.compile(
        r"\bstd::(mutex|shared_mutex|recursive_mutex|timed_mutex|"
        r"recursive_timed_mutex|scoped_lock|lock_guard|unique_lock|"
        r"shared_lock)\b")

    # Ad-hoc coordination primitives: a condition_variable needs a bare
    # std::mutex (itself banned here), and once_flag/call_once is hidden
    # one-shot synchronization — both invisible to -Wthread-safety. The
    # incremental-resize migration added exactly the kind of start/finish
    # lifecycle these get bolted onto; its discipline is single-writer
    # methods on the owning table, not a side channel.
    COORD = re.compile(
        r"\bstd::(condition_variable(?:_any)?|once_flag|call_once)\b")

    def check(self, ctx: FileContext) -> list:
        findings = []
        for lineno, code in enumerate(ctx.stripped_lines, 1):
            m = self.BARE.search(code)
            if m:
                findings.append(
                    Finding(ctx.rel, lineno, self.name,
                            f"bare std::{m.group(1)} is invisible to "
                            "-Wthread-safety: use the capability-annotated "
                            "core::Mutex / core::MutexLock family from "
                            "core/thread_annotations.h"))
            m = self.COORD.search(code)
            if m:
                findings.append(
                    Finding(ctx.rel, lineno, self.name,
                            f"std::{m.group(1)} is ad-hoc coordination "
                            "invisible to -Wthread-safety: migration and "
                            "lifecycle hand-offs go through the annotated "
                            "core::Mutex family or the single-writer "
                            "method discipline (DESIGN.md, incremental "
                            "resize), never a side-channel primitive"))
        return findings


class TestOnlyModuleRule(Rule):
    """Every src header is reached from a non-test binary's sources."""

    name = "test-only-module"
    scopes = ("src",)
    exempt = ("src/core/validate.h", "src/net/frame_fault.h")
    ROOT_DIRS = ("bench", "examples", "rxbench")

    def __init__(self, root: str):
        self.root = root
        self._reached = None

    def applies_to(self, rel: str) -> bool:
        return super().applies_to(rel) and rel.endswith(".h")

    def check(self, ctx: FileContext) -> list:
        if self._reached is None:
            self._reached = self._walk()
        if ctx.rel in self._reached:
            return []
        return [
            Finding(ctx.rel, 1, self.name,
                    "no bench/, examples/ or rxbench/ source reaches this "
                    "header through quoted #includes: a module only tests "
                    "call is code no measurement runs — delete it, or "
                    "exempt a deliberate test tool by name")
        ]

    def _walk(self) -> set:
        """Repo-relative paths reached from the ROOT_DIRS sources."""
        pending = []
        for top in self.ROOT_DIRS:
            for dirpath, _, files in os.walk(os.path.join(self.root, top)):
                pending.extend(
                    os.path.relpath(os.path.join(dirpath, name), self.root)
                    for name in files
                    if name.endswith((".h", ".cc", ".cpp")))
        reached = set()
        while pending:
            rel = pending.pop()
            if rel in reached:
                continue
            reached.add(rel)
            for _, path in quoted_includes(FileContext(self.root, rel)):
                for cand in (os.path.join(os.path.dirname(rel), path),
                             os.path.join("src", path)):
                    if os.path.isfile(os.path.join(self.root, cand)):
                        pending.append(os.path.normpath(cand))
                        break
            own_cc = rel[:-len(".h")] + ".cc"
            if (rel.startswith("src/") and rel.endswith(".h")
                    and os.path.isfile(os.path.join(self.root, own_cc))):
                pending.append(own_cc)
        return reached


def build_rules(root: str) -> list:
    return [
        RegexRule(
            "no-random",
            r"\b(?:std::)?s?rand\s*\(",
            ("src", "tests", "bench", "examples"),
            "use a seeded <random> engine (see sim/rng.h), never C rand()",
        ),
        RegexRule(
            "byte-order",
            r"\b(?:htons|htonl|ntohs|ntohl|__builtin_bswap(?:16|32|64))\b",
            ("src",),
            "touch network-order fields only through net/byte_order.h",
        ),
        RegexRule(
            "byte-order",
            r"reinterpret_cast<\s*(?:const\s+)?(?:std::)?u?int(?:16|32|64)_t\s*\*",
            ("src",),
            "no pointer-cast loads of wire data: use net/byte_order.h "
            "(misaligned access is UB)",
        ),
        DeclRegexRule(
            "raw-owning-memory",
            # An include directive names the header <new>; it owns nothing.
            r"^(?!\s*#\s*include\b).*(?<![\w:])(?:new|delete)\b(?!\s*\()",
            ("src/core",),
            "raw owning new/delete in src/core is reserved for the PCB "
            "slab (core/pcb_slab.h), the page shim (core/page_memory.h) "
            "and the epoch-owned RCU node; use the owning containers or "
            "mark the owner with NOLINT(raw-owning-memory)",
            ("src/core/pcb_slab.h", "src/core/page_memory.h"),
        ),
        RegexRule(
            "pcb-construction",
            r"\bnew\s*(?:\([^)]*\)\s*)?(?:[\w:]*::)?Pcb\b"
            r"|\b(?:make_unique|unique_ptr)\s*<\s*(?:const\s+)?"
            r"(?:[\w:]*::)?Pcb\b",
            ("src",),
            "PCBs come from the owning demuxer's PcbSlab "
            "(core/pcb_slab.h): no new Pcb, make_unique<Pcb> or "
            "unique_ptr<Pcb> — a PCB outside the slab is misaligned and "
            "invisible to the validator's slot accounting",
            ("src/core/pcb_slab.h",),
        ),
        RegexRule(
            "page-mapping",
            r"\b(?:mmap|mmap64|munmap|mremap|madvise)\b",
            ("src", "tests", "bench", "examples", "tools"),
            "map, unmap and advise pages only through core/page_memory.h "
            "(map_pages, unmap_pages, advise_huge, collapse_huge, "
            "PageVector): one shim owns alignment, huge-page policy and "
            "the ASan slack poisoning",
            ("src/core/page_memory.h",),
        ),
        RegexRule(
            "seed-rotation",
            r"\bnext_seed\s*\((?!\s*(?:const\s+)?(?:std::)?u?int\d+_t\b)",
            ("src",),
            "rotate a table's hash seed only through "
            "SequentDemuxer::rotate_seed (core/sequent_hash.cc): one "
            "protocol allocates first, keeps the seed on refusal, re-places "
            "every resident and counts the rotation once",
            ("src/core/sequent_hash.cc", "src/core/sharded_demuxer.cc"),
        ),
        RegexRule(
            "prefetch-discipline",
            r"__builtin_prefetch\b",
            ("src", "tests", "bench", "examples"),
            "call core/prefetch.h's prefetch_read instead of the raw "
            "intrinsic (portability no-op off GNU/Clang, one greppable "
            "shim)",
            ("src/core/prefetch.h",),
        ),
        RegexRule(
            "include-hygiene",
            r"#\s*include\s*<bits/",
            ("src", "tests", "bench", "examples"),
            "never include libstdc++ internals",
        ),
        # Raw-line rule: the path in an #include is a string literal, which
        # strip_code blanks — the stripped-text form of this pattern can
        # never fire (a latent hole in the old flat-list lint, caught by
        # the fixture suite).
        RawRegexRule(
            "include-hygiene",
            r'#\s*include\s*"\.\./',
            ("src", "tests", "bench", "examples"),
            'repo includes are rooted at src/ ("core/pcb.h"), not relative',
        ),
        RegexRule(
            "wire-parse",
            r"\[[^\]]*\]\s*\)?\s*<<\s*(?:8|16|24)\b",
            ("src",),
            "no hand-rolled multi-byte wire loads (buf[i] << 8): read "
            "attacker-controlled bytes through net/byte_order.h so bounds "
            "checks live in one audited place",
            ("src/net/byte_order.h", "src/net/checksum.cc"),
        ),
        RegexRule(
            "telemetry-registry",
            # Mutable static counters: `static std::atomic...` or a static
            # integer with an initializer. `static constexpr`/`static
            # const` never match (the type must follow `static` directly),
            # and static member *functions* returning integers are
            # excluded by refusing '(' or ';' before the '='.
            r"(?<![\w_])static\s+(?:(?:std::)?atomic\b"
            r"|(?:std::)?(?:u?int(?:8|16|32|64)_t|size_t|unsigned|long|int)"
            r"\b[^();]*=)",
            ("src/core",),
            "no ad-hoc mutable static counters in src/core: route "
            "instrumentation through DemuxStats / report::Telemetry so it "
            "is per-demuxer, resettable, and exported",
        ),
        RegexRule(
            "simd-discipline",
            r"(?:\b_mm_\w+|\b_mm256_\w+|\b__m128i?\b|\b__m256i?d?\b"
            r"|\bv(?:ld1|st1|ceq|dup|and|orr|min|max)q?_\w+"
            r"|\b__crc32c?[bhwd]\b"
            r"|#\s*include\s*<(?:\w*mmintrin|arm_neon|arm_acle)\.h>)",
            ("src", "tests", "bench", "examples"),
            "vector/hash intrinsics live only in the audited shim "
            "net/crc32c.h: one portable header keeps the hardware path "
            "paired with its table fallback and runtime dispatch",
            ("src/net/crc32c.h",),
        ),
        RegexRule(
            "rng-discipline",
            r"\bstd::mt19937(?:_64)?\b",
            ("src/sim", "src/tcp", "src/net"),
            "generators must draw randomness through sim::Rng (sim/rng.h),"
            " never a raw std::mt19937: one seed, one engine, reproducible"
            " traces",
            ("src/sim/rng.h",),
        ),
        IncludeGuardRule(),
        IncludeFirstRule(root),
        IncludeLayeringRule(),
        AtomicsDisciplineRule(),
        LockDisciplineRule(),
        TestOnlyModuleRule(root),
    ]


def validate_exemptions(root: str, rules: list) -> list:
    """Every exempt path must still exist: a stale entry would silently
    blanket whatever file later reuses the name. Returns error strings."""
    errors = []
    for rule in rules:
        for rel in rule.exempt:
            if not os.path.exists(os.path.join(root, rel)):
                errors.append(
                    f"lint configuration: rule '{rule.name}' exempts "
                    f"'{rel}', which does not exist — prune the stale "
                    "exempt entry")
    return errors


def lint_tree(root: str, rules: list):
    """Walks the repo and returns (findings, files_checked)."""
    findings = []
    checked = 0
    for top in TOP_DIRS:
        for dirpath, dirnames, files in os.walk(os.path.join(root, top)):
            dirnames[:] = sorted(
                d for d in dirnames if d not in SKIP_DIR_NAMES)
            for name in sorted(files):
                if not name.endswith((".h", ".cc", ".cpp")):
                    continue
                rel = os.path.relpath(os.path.join(dirpath, name), root)
                ctx = FileContext(root, rel)
                for rule in rules:
                    findings.extend(rule.run(ctx))
                checked += 1
    findings.sort(key=Finding.sort_key)
    return findings, checked


def to_json_doc(findings: list, checked: int) -> dict:
    by_rule = {}
    for f in findings:
        by_rule[f.rule] = by_rule.get(f.rule, 0) + 1
    return {
        "schema": SCHEMA,
        "files_checked": checked,
        "violations": len(findings),
        "findings_by_rule": dict(sorted(by_rule.items())),
        "findings": [f.to_json() for f in findings],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="tcpdemux repo lint (multi-pass)")
    parser.add_argument("root", nargs="?", default=".",
                        help="repo root to lint (default: cwd)")
    parser.add_argument("--json", metavar="FILE", default=None,
                        help="write findings as tcpdemux.lint.v1 JSON")
    args = parser.parse_args(argv)

    root = os.path.abspath(args.root)
    rules = build_rules(root)

    config_errors = validate_exemptions(root, rules)
    if config_errors:
        for error in config_errors:
            print(error, file=sys.stderr)
        return 2

    findings, checked = lint_tree(root, rules)
    for finding in findings:
        print(finding.render())
    print(f"lint: {checked} files checked, {len(findings)} violation(s)")

    if args.json is not None:
        doc = to_json_doc(findings, checked)
        with open(args.json, "w", encoding="utf-8") as f:
            json.dump(doc, f, indent=2, sort_keys=False)
            f.write("\n")
        print(f"lint: findings written to {args.json}")

    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
