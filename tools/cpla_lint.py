#!/usr/bin/env python3
"""cpla-lint: project-specific static analysis for the CPLA repository.

Cross-file checks no generic linter knows about:

  fault-site-undeclared   every CPLA_FAULT_POINT("...") string used in src/
                          must be declared in src/util/fault_sites.hpp
  fault-site-unused       every site declared in src/util/fault_sites.hpp
                          must have a CPLA_FAULT_POINT in src/
  fault-site-unknown-arm  every site a test arms (arm / arm_always / disarm)
                          must exist as a fault point in src/ or in the
                          arming file itself (injector unit tests)
  metric-unregistered     every metric name tests/bench query against the
                          global registry must be registered by
                          instrumentation in src/
  no-direct-stdout        library code must not print directly (std::cout,
                          printf, fprintf(stdout/stderr), puts); route
                          output through src/util/logging
  solver-nondeterminism   no rand()/srand()/std::random_device inside the
                          solver modules (la, lp, ilp, sdp); solvers must
                          be bit-reproducible across runs
  missing-pragma-once     every header starts with #pragma once  [--fix]
  using-namespace-header  no `using namespace` at any scope in headers

Determinism-contract checks, keyed off src/util/determinism_contract.hpp
(the registry of bit-identity TUs and order-sensitive directories; all
three are skipped when the registry header is absent, e.g. in fixtures):

  determinism-fp-contract   every TU in kBitIdentityTUs must be compiled
                            with -ffp-contract=off; the owning
                            CMakeLists.txt is parsed (including one level
                            of ${var} indirection through set / list(APPEND))
                            to prove the flag is actually applied
  determinism-omp-reduction no `#pragma omp ... reduction(...)` and no
                            `#pragma omp atomic` inside a registered TU —
                            reassociated or racing accumulation breaks
                            bit-identity
  unordered-iteration       no range-for over a std::unordered_{map,set}
                            declared in the same file, inside the
                            directories listed in kOrderSensitiveDirs
                            (iteration order reaches solver inputs there)

Concurrency/suppression hygiene:

  mutex-guard-coverage      no raw std::mutex / std::condition_variable
                            members in src/ (use cpla::Mutex / CondVar from
                            src/util/mutex.hpp so Clang Thread Safety
                            Analysis sees them); every `Mutex x;` member in
                            a src/ header must have at least one
                            CPLA_GUARDED_BY(x) in the same file
  suppression-rationale     every `// cpla-lint: allow(check)` comment must
                            carry a trailing ` -- why` rationale; this
                            check cannot itself be suppressed

Surface audit:

  option-unset              every field of a `struct ...Options` in src/
                            must be named as `.field` by some file under
                            tests/, bench/, examples/, perfbench/ or tools/;
                            a value only src/ ever sets is a constant.
                            Matching is by name, so a dead field whose name
                            another struct's live field shares still passes
  option-struct-unused      every `struct ...Options` in src/ must be named
                            by some other src/ code (a parameter, a member,
                            a use): a struct nothing takes is dead surface,
                            whatever its fields' names match

Findings print as `path:line: [check] message` or, with --format json, as a
machine-readable document (schema cpla-lint-v1). `--fix` applies the safe
fixes (inserting #pragma once, appending missing fault-site declarations to
the registry). A finding can be suppressed for one line with a trailing
`// cpla-lint: allow(check-name) -- rationale` comment; an allow comment
alone on a line suppresses the line below it. `--list-suppressions` prints
the full suppression inventory; `--self-test` runs the linter's own test
suite (tests/lint/lint_selftest.py).

Exit status: 0 clean, 1 findings, 2 usage or internal error.

Dependency-free by design: stdlib only, so it runs in any CI image and as a
ctest with no environment setup.
"""

from __future__ import annotations

import argparse
import json
import re
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

SCHEMA = "cpla-lint-v1"

CHECKS = (
    "fault-site-undeclared",
    "fault-site-unused",
    "fault-site-unknown-arm",
    "metric-unregistered",
    "no-direct-stdout",
    "solver-nondeterminism",
    "missing-pragma-once",
    "using-namespace-header",
    "determinism-fp-contract",
    "determinism-omp-reduction",
    "unordered-iteration",
    "mutex-guard-coverage",
    "suppression-rationale",
    "option-unset",
    "option-struct-unused",
)

REGISTRY_RELPATH = Path("src/util/fault_sites.hpp")
DETERMINISM_RELPATH = Path("src/util/determinism_contract.hpp")
# Files allowed to hold raw std:: synchronisation primitives: the annotated
# wrapper itself and the annotation macros.
RAW_SYNC_EXEMPT = ("src/util/mutex.hpp", "src/util/mutex.cpp", "src/util/thread_annotations.hpp")
SOLVER_DIRS = ("la", "lp", "ilp", "sdp")
HEADER_SUFFIXES = (".hpp", ".h")
SOURCE_SUFFIXES = (".hpp", ".h", ".cpp", ".cc")
# Where an option field counts as set from outside the library.
OPTION_CALLER_DIRS = ("tests", "bench", "examples", "perfbench", "tools")
FP_CONTRACT_FLAG = "-ffp-contract=off"

ALLOW_RE = re.compile(r"cpla-lint:\s*allow\(([a-z0-9_,\s-]+)\)(?:\s*--\s*(.*\S))?")
FAULT_POINT_RE = re.compile(r'CPLA_FAULT_POINT\s*\(\s*"([^"]+)"\s*\)')
ARM_RE = re.compile(r'\b(?:arm|arm_always|disarm)\s*\(\s*"([^"]+)"')
METRIC_RE = re.compile(r'(?<![A-Za-z0-9_])(counter|gauge|histogram)\s*\(\s*"([^"]+)"\s*([,)])')
SCOPED_PHASE_RE = re.compile(r'\bScopedPhase\s+\w+\s*[({]\s*"([^"]+)"\s*([,)}])')
GLOBAL_RECEIVER_RE = re.compile(r"(?:\bobs\s*::\s*)?\bmetrics\s*\(\s*\)\s*\.\s*$")
USING_NAMESPACE_RE = re.compile(r"^\s*using\s+namespace\b")
STDOUT_PATTERNS = (
    (re.compile(r"\bstd\s*::\s*cout\b"), "std::cout"),
    (re.compile(r"\bstd\s*::\s*cerr\b"), "std::cerr"),
    (re.compile(r"(?<![\w:.])(?:std\s*::\s*)?printf\s*\("), "printf"),
    (
        re.compile(r"(?<![\w:.])(?:std\s*::\s*)?v?fprintf\s*\(\s*(?:stdout|stderr)\b"),
        "fprintf(stdout/stderr)",
    ),
    (re.compile(r"(?<![\w:.])(?:std\s*::\s*)?puts\s*\("), "puts"),
    (re.compile(r"(?<![\w:.])(?:std\s*::\s*)?putchar\s*\("), "putchar"),
    (
        re.compile(
            r"(?<![\w:.])(?:std\s*::\s*)?(?:fputs|fputc|fwrite)"
            r"\s*\([^()]*,\s*(?:stdout|stderr)\s*\)"
        ),
        "fputs/fwrite(stdout/stderr)",
    ),
)
NONDETERMINISM_PATTERNS = (
    (re.compile(r"(?<![\w:.])(?:std\s*::\s*)?s?rand\s*\("), "rand()/srand()"),
    (re.compile(r"\bstd\s*::\s*random_device\b"), "std::random_device"),
)
OMP_PATTERNS = (
    (re.compile(r"#\s*pragma\s+omp\b[^\n]*\breduction\s*\("), "OpenMP reduction clause"),
    (re.compile(r"#\s*pragma\s+omp\s+atomic\b"), "#pragma omp atomic"),
)
UNORDERED_DECL_RE = re.compile(r"\bstd\s*::\s*unordered_(?:map|set|multimap|multiset)\s*<")
RANGE_FOR_RE = re.compile(
    r"\bfor\s*\([^();]*?:\s*([A-Za-z_]\w*(?:\s*(?:\.|->)\s*\w+)*)\s*\)"
)
RAW_SYNC_RE = re.compile(
    r"\bstd\s*::\s*(mutex|timed_mutex|recursive_mutex|recursive_timed_mutex|"
    r"shared_mutex|shared_timed_mutex|condition_variable(?:_any)?)\s+\w+\s*[;={]"
)
# Terminator set covers `Mutex m;`, `Mutex m{};`, and `Mutex m = ...;`
# (MutexLock locals don't match: `Mutex` is bounded by \b\s+).
MUTEX_MEMBER_RE = re.compile(r"\bMutex\s+(\w+)\s*[;={]")
GUARDED_BY_RE = re.compile(r"\bCPLA_(?:PT_)?GUARDED_BY\s*\(\s*(\w+)\s*\)")
OPTIONS_STRUCT_RE = re.compile(r"\bstruct\s+(\w*Options)\s*(?::[^;{}()]*)?\{")
MEMBER_ACCESS_RE = re.compile(r"\.\s*([A-Za-z_]\w*)")
FUNCTION_HEAD_RE = re.compile(r"\)\s*(?:const|noexcept|override|final|\s)*$")
NON_FIELD_STMT_RE = re.compile(
    r"^(?:static|using|typedef|friend|template|enum|struct|class|union)\b"
)
CMAKE_ARRAY_RES = {
    "tus": re.compile(r"kBitIdentityTUs\s*\[\s*\]\s*=\s*\{([^}]*)\}"),
    "dirs": re.compile(r"kOrderSensitiveDirs\s*\[\s*\]\s*=\s*\{([^}]*)\}"),
}


@dataclass
class Finding:
    check: str
    path: Path
    line: int
    message: str
    fixable: bool = False

    def render(self, root: Path) -> str:
        try:
            rel = self.path.resolve().relative_to(root.resolve())
        except ValueError:
            rel = self.path
        return f"{rel}:{self.line}: [{self.check}] {self.message}"


@dataclass
class Suppression:
    """One `// cpla-lint: allow(...)` comment, as written in the file."""

    line: int  # 1-based line the comment sits on
    checks: set[str]
    rationale: str | None  # text after ` -- `, None when absent


@dataclass
class SourceFile:
    """One scanned file: raw text, comment-stripped text, suppressions."""

    path: Path
    raw: str
    code: str  # comments blanked out, strings and line structure preserved
    allows: dict[int, set[str]]  # 1-based line -> suppressed check names
    suppressions: list[Suppression] = field(default_factory=list)

    @property
    def code_lines(self) -> list[str]:
        return self.code.splitlines()


def strip_comments(text: str) -> str:
    """Blanks // and /* */ comment bodies, preserving newlines, string and
    character literals (including escapes), and raw string literals. Keeping
    offsets identical to the input makes every downstream regex line-accurate.
    """
    out = list(text)
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if ch == "/" and nxt == "/":
            while i < n and text[i] != "\n":
                out[i] = " "
                i += 1
        elif ch == "/" and nxt == "*":
            out[i] = out[i + 1] = " "
            i += 2
            while i < n and not (text[i] == "*" and i + 1 < n and text[i + 1] == "/"):
                if text[i] != "\n":
                    out[i] = " "
                i += 1
            if i < n:
                out[i] = out[i + 1] = " "
                i += 2
        elif ch == "R" and nxt == '"' and (i == 0 or not text[i - 1].isalnum()):
            m = re.match(r'R"([^(\s]*)\(', text[i:])
            if m:
                end = text.find(f"){m.group(1)}\"", i + m.end())
                i = n if end < 0 else end + len(m.group(1)) + 2
            else:
                i += 1
        elif ch in "\"'":
            quote = ch
            i += 1
            while i < n and text[i] != quote:
                i += 2 if text[i] == "\\" else 1
            i += 1
        else:
            i += 1
    return "".join(out)


def parse_allows(raw: str) -> tuple[dict[int, set[str]], list[Suppression]]:
    allows: dict[int, set[str]] = {}
    suppressions: list[Suppression] = []
    for lineno, line in enumerate(raw.splitlines(), start=1):
        m = ALLOW_RE.search(line)
        if not m:
            continue
        checks = {name.strip() for name in m.group(1).split(",")}
        suppressions.append(Suppression(lineno, checks, m.group(2)))
        allows.setdefault(lineno, set()).update(checks)
        # An allow comment alone on a line covers the line below it, so a
        # suppression never has to stretch an already-long statement.
        if line[: m.start()].strip() in ("", "//", "/*", "*"):
            allows.setdefault(lineno + 1, set()).update(checks)
    return allows, suppressions


def load(path: Path) -> SourceFile:
    raw = path.read_text(encoding="utf-8", errors="replace")
    allows, suppressions = parse_allows(raw)
    return SourceFile(
        path=path, raw=raw, code=strip_comments(raw), allows=allows, suppressions=suppressions
    )


def line_of(text: str, offset: int) -> int:
    return text.count("\n", 0, offset) + 1


class Repo:
    def __init__(self, root: Path) -> None:
        self.root = root
        self.src = self._glob(root / "src")
        self.tests = self._glob(root / "tests")
        self.bench = self._glob(root / "bench")

    @staticmethod
    def _glob(base: Path, suffixes: tuple[str, ...] = SOURCE_SUFFIXES) -> list[SourceFile]:
        if not base.is_dir():
            return []
        paths = sorted(
            p
            for p in base.rglob("*")
            if p.is_file()
            and p.suffix in suffixes
            # The lint self-test corpus holds deliberately broken mini-repos;
            # they are linted via --root, never as part of the real tree.
            # (Relative to the scan base, so --root can point INTO a fixture.)
            and "lint/data" not in p.relative_to(base).as_posix()
        )
        return [load(p) for p in paths]

    @property
    def headers(self) -> list[SourceFile]:
        return [
            f for f in (*self.src, *self.tests, *self.bench) if f.path.suffix in HEADER_SUFFIXES
        ]

    def registry(self) -> SourceFile | None:
        target = (self.root / REGISTRY_RELPATH).resolve()
        for f in self.src:
            if f.path.resolve() == target:
                return f
        return None

    def determinism(self) -> tuple[SourceFile | None, list[str], list[str]]:
        """The determinism-contract registry and its two arrays: registered
        bit-identity TUs and order-sensitive directories (repo-relative
        paths). (None, [], []) when the registry header is absent, which
        switches the three determinism checks off entirely.
        """
        target = (self.root / DETERMINISM_RELPATH).resolve()
        for f in self.src:
            if f.path.resolve() == target:
                tus = parse_string_array(f.code, CMAKE_ARRAY_RES["tus"])
                dirs = parse_string_array(f.code, CMAKE_ARRAY_RES["dirs"])
                return f, tus, dirs
        return None, [], []


def parse_string_array(code: str, array_re: re.Pattern[str]) -> list[str]:
    m = array_re.search(code)
    if not m:
        return []
    return re.findall(r'"([^"\n]+)"', m.group(1))


def cmake_commands(text: str) -> list[tuple[str, str, int]]:
    """Top-level CMake command invocations as (lowercased name, raw argument
    text, 1-based line). Quoted arguments (with escapes) and # comments are
    honoured so parentheses inside strings or comments do not derail the
    balanced-paren scan. Control flow (if/else) is NOT evaluated — every
    branch's commands are returned, which is the conservative choice for a
    static contract check.
    """
    cmds: list[tuple[str, str, int]] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
        elif ch == '"':
            i += 1
            while i < n and text[i] != '"':
                i += 2 if text[i] == "\\" else 1
            i += 1
        elif ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            k = j
            while k < n and text[k] in " \t":
                k += 1
            if k < n and text[k] == "(":
                depth, m_ = 0, k
                while m_ < n:
                    c = text[m_]
                    if c == '"':
                        m_ += 1
                        while m_ < n and text[m_] != '"':
                            m_ += 2 if text[m_] == "\\" else 1
                    elif c == "#":
                        while m_ < n and text[m_] != "\n":
                            m_ += 1
                        continue
                    elif c == "(":
                        depth += 1
                    elif c == ")":
                        depth -= 1
                        if depth == 0:
                            break
                    m_ += 1
                cmds.append((text[i:j].lower(), text[k + 1 : m_], line_of(text, i)))
                i = m_ + 1
                continue
            i = j
        else:
            i += 1
    return cmds


def cmake_tokens(argtext: str) -> list[str]:
    """Splits CMake argument text into tokens, unquoting and splitting
    embedded ;-lists the way CMake itself flattens them.
    """
    out: list[str] = []
    for t in re.findall(r'"(?:[^"\\]|\\.)*"|\S+', argtext):
        if t.startswith('"') and t.endswith('"') and len(t) >= 2:
            t = t[1:-1]
        out.extend(part for part in t.split(";") if part)
    return out


def cmake_expanded_commands(text: str) -> list[tuple[str, list[str], int]]:
    """cmake_commands with one level of ${var} expansion: set(v ...) and
    list(APPEND v ...) are interpreted in order, and later ${v} references
    are replaced by the accumulated value. One level is enough to see
    through the `set(_flags ...)` + `set_source_files_properties(...
    "${_flags}")` idiom without re-implementing CMake.
    """
    variables: dict[str, list[str]] = {}

    def expand(tokens: list[str]) -> list[str]:
        out: list[str] = []
        for t in tokens:
            if "${" in t:
                t = re.sub(
                    r"\$\{(\w+)\}", lambda m: ";".join(variables.get(m.group(1), [])), t
                )
                out.extend(part for part in t.split(";") if part)
            else:
                out.append(t)
        return out

    cmds: list[tuple[str, list[str], int]] = []
    for name, argtext, line in cmake_commands(text):
        tokens = expand(cmake_tokens(argtext))
        if name == "set" and tokens:
            variables[tokens[0]] = tokens[1:]
        elif name == "list" and len(tokens) >= 2 and tokens[0].upper() == "APPEND":
            variables.setdefault(tokens[1], []).extend(tokens[2:])
        cmds.append((name, tokens, line))
    return cmds


class Linter:
    def __init__(self, repo: Repo, fix: bool) -> None:
        self.repo = repo
        self.fix = fix
        self.findings: list[Finding] = []
        self.fixed: list[Finding] = []

    def report(
        self, check: str, f: SourceFile, line: int, message: str, fixable: bool = False
    ) -> None:
        if check in f.allows.get(line, set()):
            return
        self.findings.append(Finding(check, f.path, line, message, fixable))

    def run(self) -> list[Finding]:
        self.check_fault_sites()
        self.check_metrics()
        self.check_no_direct_stdout()
        self.check_solver_nondeterminism()
        self.check_headers()
        self.check_determinism_contract()
        self.check_mutex_guard_coverage()
        self.check_option_unset()
        self.check_option_struct_unused()
        self.check_suppression_rationale()
        return self.findings

    # ---- fault-injection site registry ---------------------------------

    def check_fault_sites(self) -> None:
        registry = self.repo.registry()
        declared: dict[str, int] = {}
        if registry is not None:
            for m in re.finditer(r'"([^"\n]+)"', registry.code):
                declared.setdefault(m.group(1), line_of(registry.code, m.start()))

        used: dict[str, tuple[SourceFile, int]] = {}
        missing: list[tuple[str, SourceFile, int]] = []
        for f in self.repo.src:
            if registry is not None and f.path == registry.path:
                continue
            for m in FAULT_POINT_RE.finditer(f.code):
                site = m.group(1)
                used.setdefault(site, (f, line_of(f.code, m.start())))
                if site not in declared:
                    missing.append((site, f, line_of(f.code, m.start())))

        for site, f, line in missing:
            self.report(
                "fault-site-undeclared",
                f,
                line,
                f'fault site "{site}" is not declared in {REGISTRY_RELPATH}',
                fixable=True,
            )
        if missing and self.fix and registry is not None:
            self.fix_registry(registry, sorted({site for site, _, _ in missing}))

        if registry is not None:
            for site, line in sorted(declared.items()):
                if site not in used:
                    self.report(
                        "fault-site-unused",
                        registry,
                        line,
                        f'declared fault site "{site}" has no CPLA_FAULT_POINT in src/',
                    )

        for f in (*self.repo.tests, *self.repo.bench):
            local = {m.group(1) for m in FAULT_POINT_RE.finditer(f.code)}
            for m in ARM_RE.finditer(f.code):
                site = m.group(1)
                if site not in used and site not in local:
                    self.report(
                        "fault-site-unknown-arm",
                        f,
                        line_of(f.code, m.start()),
                        f'armed fault site "{site}" does not exist in src/ '
                        "(renamed or deleted? the test is arming a dead string)",
                    )

    def fix_registry(self, registry: SourceFile, sites: list[str]) -> None:
        text = registry.raw
        anchor = text.find("inline constexpr const char* kAll[]")
        end = text.find("};", anchor)
        if anchor < 0 or end < 0:
            return
        decls = "".join(
            f'inline constexpr char {constant_name(site)}[] = "{site}";\n' for site in sites
        )
        entries = "".join(f"    {constant_name(site)},\n" for site in sites)
        text = text[:anchor] + decls + "\n" + text[anchor:end] + entries + text[end:]
        registry.path.write_text(text, encoding="utf-8")
        for fnd in self.findings:
            if fnd.check == "fault-site-undeclared":
                self.fixed.append(fnd)
        self.findings = [f for f in self.findings if f.check != "fault-site-undeclared"]

    # ---- metric-name cross-check ---------------------------------------

    def check_metrics(self) -> None:
        registered: set[str] = set()
        for f in self.repo.src:
            for m in METRIC_RE.finditer(f.code):
                if self.is_global_receiver(f.code, m.start()):
                    registered.add(m.group(2))
            for m in SCOPED_PHASE_RE.finditer(f.code):
                if m.group(2) != ",":  # second arg means a non-global registry
                    registered.add(f"phase.{m.group(1)}.ms")

        # Only names under a subsystem prefix src actually instruments are
        # checked; local-registry unit-test names ("test.counter") pass free.
        prefixes = {name.split(".", 1)[0] for name in registered}

        for f in (*self.repo.tests, *self.repo.bench):
            local = {
                f"phase.{m.group(1)}.ms"
                for m in SCOPED_PHASE_RE.finditer(f.code)
            }
            for m in METRIC_RE.finditer(f.code):
                name = m.group(2)
                if not self.is_global_receiver(f.code, m.start()):
                    continue
                if name.split(".", 1)[0] not in prefixes:
                    continue
                if name in registered or name in local:
                    continue
                self.report(
                    "metric-unregistered",
                    f,
                    line_of(f.code, m.start()),
                    f'metric "{name}" is queried here but never registered by '
                    "instrumentation in src/ (renamed? typo?)",
                )

    @staticmethod
    def is_global_receiver(code: str, start: int) -> bool:
        """True for `obs::metrics().counter(` / bare `counter(` (helper
        functions forwarding to the global registry); False for calls on any
        other receiver (`reg.counter(` — a local registry).
        """
        head = code[:start].rstrip()
        if head.endswith("."):
            return bool(GLOBAL_RECEIVER_RE.search(head))
        return True

    # ---- direct stdout and nondeterminism ------------------------------

    def check_no_direct_stdout(self) -> None:
        for f in self.repo.src:
            if f.path.stem == "logging" or "util/logging" in f.path.as_posix():
                continue
            for pattern, label in STDOUT_PATTERNS:
                for m in pattern.finditer(f.code):
                    self.report(
                        "no-direct-stdout",
                        f,
                        line_of(f.code, m.start()),
                        f"library code must not print via {label}; "
                        "use LOG_INFO/LOG_WARN (src/util/logging.hpp)",
                    )

    def check_solver_nondeterminism(self) -> None:
        solver_roots = [(self.repo.root / "src" / d).resolve() for d in SOLVER_DIRS]
        for f in self.repo.src:
            resolved = f.path.resolve()
            if not any(root in resolved.parents for root in solver_roots):
                continue
            for pattern, label in NONDETERMINISM_PATTERNS:
                for m in pattern.finditer(f.code):
                    self.report(
                        "solver-nondeterminism",
                        f,
                        line_of(f.code, m.start()),
                        f"{label} in a solver module breaks run-to-run "
                        "reproducibility; thread cpla::Rng through instead",
                    )

    # ---- determinism contract (src/util/determinism_contract.hpp) ------

    def check_determinism_contract(self) -> None:
        registry, tus, dirs = self.repo.determinism()
        if registry is None:
            return
        for tu in tus:
            self.check_fp_contract_tu(registry, tu)
            self.check_omp_tu(tu)
        self.check_unordered_iteration(dirs)

    def check_fp_contract_tu(self, registry: SourceFile, tu: str) -> None:
        tu_path = self.repo.root / tu
        reg_line = self.registry_entry_line(registry, tu)
        if not tu_path.is_file():
            self.report(
                "determinism-fp-contract",
                registry,
                reg_line,
                f'registered bit-identity TU "{tu}" does not exist (renamed or deleted? '
                "update the registry)",
            )
            return
        cml_path = tu_path.parent / "CMakeLists.txt"
        if not cml_path.is_file():
            self.report(
                "determinism-fp-contract",
                registry,
                reg_line,
                f'no CMakeLists.txt next to registered TU "{tu}"; cannot prove '
                f"{FP_CONTRACT_FLAG} is applied",
            )
            return
        cml = load(cml_path)
        basename = tu_path.name
        mention_line = 1
        commands = cmake_expanded_commands(cml.raw)
        # Conditional nesting depth per command: add_compile_options inside
        # an if() branch proves nothing (the branch may never be taken), so
        # directory-wide acceptance requires depth 0.
        depth = 0
        depths: list[int] = []
        for name, _tokens, _line in commands:
            if name == "endif":
                depth = max(0, depth - 1)
            depths.append(depth)
            if name == "if":
                depth += 1
        target = None  # name of the add_library/add_executable owning the TU
        target_line: int | None = None
        for name, tokens, line in commands:
            if basename not in tokens:
                continue
            mention_line = line
            if name in ("add_library", "add_executable") and target is None and tokens:
                target, target_line = tokens[0], line
            # Per-TU flags (set_source_files_properties ... COMPILE_OPTIONS)
            # or any other command that names both the TU and the flag.
            if FP_CONTRACT_FLAG in tokens:
                return
        for idx, (name, tokens, line) in enumerate(commands):
            if FP_CONTRACT_FLAG not in tokens:
                continue
            # Directory-wide flags only reach targets defined *after* the
            # add_compile_options call, and only unconditionally when the
            # call sits outside every if() branch.
            if (
                name == "add_compile_options"
                and depths[idx] == 0
                and (target_line is None or line < target_line)
            ):
                return
            # Target-wide flags must name the target that compiles the TU;
            # a flag on an unrelated target proves nothing.
            if name == "target_compile_options" and tokens and tokens[0] == target:
                return
        self.report(
            "determinism-fp-contract",
            cml,
            mention_line,
            f'registered bit-identity TU "{tu}" is not compiled with {FP_CONTRACT_FLAG} '
            f"(contract: {DETERMINISM_RELPATH}); FMA contraction is "
            "compiler-discretionary and breaks bit-identical replay",
        )

    @staticmethod
    def registry_entry_line(registry: SourceFile, tu: str) -> int:
        at = registry.code.find(f'"{tu}"')
        return line_of(registry.code, at) if at >= 0 else 1

    def check_omp_tu(self, tu: str) -> None:
        tu_path = (self.repo.root / tu).resolve()
        for f in self.repo.src:
            if f.path.resolve() != tu_path:
                continue
            for pattern, label in OMP_PATTERNS:
                for m in pattern.finditer(f.code):
                    self.report(
                        "determinism-omp-reduction",
                        f,
                        line_of(f.code, m.start()),
                        f"{label} in bit-identity TU {tu}: reduction order (and "
                        "atomic update order) varies with thread count; accumulate "
                        f"in a pinned order instead (contract: {DETERMINISM_RELPATH})",
                    )

    def check_unordered_iteration(self, dirs: list[str]) -> None:
        roots = [(self.repo.root / d).resolve() for d in dirs]
        for f in self.repo.src:
            resolved = f.path.resolve()
            if not any(root in resolved.parents for root in roots):
                continue
            declared = unordered_decl_names(f.code)
            if not declared:
                continue
            for m in RANGE_FOR_RE.finditer(f.code):
                name = re.split(r"\.|->", m.group(1))[-1].strip()
                if name not in declared:
                    continue
                self.report(
                    "unordered-iteration",
                    f,
                    line_of(f.code, m.start()),
                    f'range-for over std::unordered container "{name}" in an '
                    "order-sensitive directory: hash-bucket order can reach solver "
                    "inputs; iterate a sorted container or add a rationale'd "
                    "allow(unordered-iteration) if the loop is order-independent",
                )

    # ---- mutex annotation coverage --------------------------------------

    def check_mutex_guard_coverage(self) -> None:
        for f in self.repo.src:
            rel = self.relpath(f)
            if rel in RAW_SYNC_EXEMPT:
                continue
            for m in RAW_SYNC_RE.finditer(f.code):
                self.report(
                    "mutex-guard-coverage",
                    f,
                    line_of(f.code, m.start()),
                    f"raw std::{m.group(1)} member: use cpla::Mutex / cpla::CondVar "
                    "(src/util/mutex.hpp) so Clang Thread Safety Analysis can see it",
                )
            if f.path.suffix not in HEADER_SUFFIXES:
                continue
            spans = class_body_spans(f.code)
            for m in MUTEX_MEMBER_RE.finditer(f.code):
                name = m.group(1)
                # Scope the guarded-name search to the innermost enclosing
                # class/struct body: two classes in one header each owning a
                # `Mutex mu;` must each annotate their own guarded data.
                span = innermost_span(spans, m.start())
                region = f.code[span[0] : span[1]] if span else f.code
                guarded = {g.group(1) for g in GUARDED_BY_RE.finditer(region)}
                if name in guarded:
                    continue
                self.report(
                    "mutex-guard-coverage",
                    f,
                    line_of(f.code, m.start()),
                    f'Mutex member "{name}" has no CPLA_GUARDED_BY({name}) in its '
                    "enclosing class: annotate the data it protects (or it protects "
                    "nothing and should be removed)",
                )

    def relpath(self, f: SourceFile) -> str:
        try:
            return f.path.resolve().relative_to(self.repo.root.resolve()).as_posix()
        except ValueError:
            return f.path.as_posix()

    # ---- option surface audit -------------------------------------------

    def check_option_unset(self) -> None:
        named: set[str] = set()
        for d in OPTION_CALLER_DIRS:
            for f in Repo._glob(self.repo.root / d, (*SOURCE_SUFFIXES, ".py")):
                named.update(m.group(1) for m in MEMBER_ACCESS_RE.finditer(f.code))
        for f in self.repo.src:
            for m in OPTIONS_STRUCT_RE.finditer(f.code):
                for name, offset in option_fields(f.code, m.end() - 1):
                    if name in named:
                        continue
                    self.report(
                        "option-unset",
                        f,
                        line_of(f.code, offset),
                        f'{m.group(1)}::{name} is set by nothing outside src/: make it a '
                        "constant at its point of use, or add a rationale'd "
                        "allow(option-unset)",
                    )

    def check_option_struct_unused(self) -> None:
        code = "\n".join(f.code for f in self.repo.src)
        for f in self.repo.src:
            for m in OPTIONS_STRUCT_RE.finditer(f.code):
                name = m.group(1)
                # The definition itself is the one expected occurrence.
                if len(re.findall(rf"\b{name}\b", code)) > 1:
                    continue
                self.report(
                    "option-struct-unused",
                    f,
                    line_of(f.code, m.start()),
                    f"struct {name} is used by nothing else in src/: no function takes it "
                    "and no type holds it, so delete it",
                )

    # ---- suppression hygiene --------------------------------------------

    def check_suppression_rationale(self) -> None:
        for f in (*self.repo.src, *self.repo.tests, *self.repo.bench):
            for s in f.suppressions:
                if s.rationale:
                    continue
                # Deliberately bypasses report(): a rationale-less allow()
                # must not be able to suppress the check that polices it.
                self.findings.append(
                    Finding(
                        "suppression-rationale",
                        f.path,
                        s.line,
                        f"suppression allow({', '.join(sorted(s.checks))}) has no "
                        "rationale; write `// cpla-lint: allow(check) -- why`",
                    )
                )

    # ---- header hygiene -------------------------------------------------

    def check_headers(self) -> None:
        for f in self.repo.headers:
            if "#pragma once" not in f.code:
                self.report(
                    "missing-pragma-once",
                    f,
                    1,
                    "header lacks #pragma once",
                    fixable=True,
                )
                if self.fix:
                    f.path.write_text("#pragma once\n\n" + f.raw, encoding="utf-8")
                    self.fixed.append(self.findings.pop())
            for lineno, line in enumerate(f.code_lines, start=1):
                if USING_NAMESPACE_RE.match(line):
                    self.report(
                        "using-namespace-header",
                        f,
                        lineno,
                        "`using namespace` in a header leaks into every "
                        "includer; qualify names instead",
                    )


def constant_name(site: str) -> str:
    parts = re.split(r"[._-]", site)
    return "k" + "".join(p.capitalize() for p in parts if p)


def class_body_spans(code: str) -> list[tuple[int, int]]:
    """Brace-matched `{...}` extents of every class/struct/union body in the
    (comment-stripped) code, including nested ones. Forward declarations and
    function definitions never match (the head may not contain `;`, braces,
    or parens between the keyword and the opening brace).
    """
    spans: list[tuple[int, int]] = []
    for m in re.finditer(r"\b(?:class|struct|union)\b[^;{}()]*\{", code):
        open_brace = m.end() - 1
        depth = 0
        for i in range(open_brace, len(code)):
            if code[i] == "{":
                depth += 1
            elif code[i] == "}":
                depth -= 1
                if depth == 0:
                    spans.append((open_brace, i + 1))
                    break
    return spans


def option_fields(code: str, open_brace: int) -> list[tuple[str, int]]:
    """(name, offset) of every data member declared directly in the struct
    body opening at `open_brace`: top-level statements of the body, minus
    nested types, aliases, statics and member functions. A member's name is
    the last identifier before its initializer (`= ...`, `{...}`) or array
    bound.
    """
    fields: list[tuple[str, int]] = []
    depth, start, inner = 0, open_brace + 1, open_brace
    for i in range(open_brace, len(code)):
        ch = code[i]
        if ch == "{":
            depth += 1
            if depth == 2:
                inner = i
        elif ch == "}":
            depth -= 1
            if depth == 0:
                break
            # An inline member function's body ends its statement without
            # a `;`; a brace initializer or nested type does not.
            if depth == 1 and FUNCTION_HEAD_RE.search(code[start:inner]):
                start = i + 1
        elif ch == ";" and depth == 1:
            stmt, start_of_stmt = code[start:i], start
            start = i + 1
            # Access specifiers share a statement with the member after them.
            head = re.sub(r"\b(?:public|private|protected)\s*:", " ", stmt)
            decl = re.split(r"[={]", head, maxsplit=1)[0]
            decl = re.sub(r"\[[^\]]*\]", "", strip_angles(decl)).strip()
            if not decl or "(" in decl or NON_FIELD_STMT_RE.match(decl):
                continue
            m = re.search(r"([A-Za-z_]\w*)\s*$", decl)
            if m and m.group(1) not in ("const", "mutable"):
                at = re.split(r"[={]", stmt, maxsplit=1)[0].rfind(m.group(1))
                fields.append((m.group(1), start_of_stmt + at))
    return fields


def strip_angles(text: str) -> str:
    """Drops balanced `<...>` template argument lists, so parentheses in a
    `std::function<void(int)>` member do not read as a function."""
    out, depth = [], 0
    for ch in text:
        if ch == "<":
            depth += 1
        elif ch == ">" and depth > 0:
            depth -= 1
        elif depth == 0:
            out.append(ch)
    return "".join(out)


def innermost_span(spans: list[tuple[int, int]], pos: int) -> tuple[int, int] | None:
    """The tightest span containing `pos`, or None if none does."""
    best: tuple[int, int] | None = None
    for span in spans:
        if span[0] <= pos < span[1] and (best is None or span[0] > best[0]):
            best = span
    return best


def unordered_decl_names(code: str) -> dict[str, int]:
    """Names declared in this file with a std::unordered_{map,set,...} type
    (locals, members, and reference parameters alike), mapped to the line of
    the declaration. Template arguments are skipped by balancing angle
    brackets, so nested templates don't confuse the name capture.
    """
    names: dict[str, int] = {}
    for m in UNORDERED_DECL_RE.finditer(code):
        i, depth, n = m.end() - 1, 0, len(code)
        while i < n:
            if code[i] == "<":
                depth += 1
            elif code[i] == ">":
                depth -= 1
                if depth == 0:
                    break
            i += 1
        dm = re.match(r"\s*[&*]?\s*([A-Za-z_]\w*)", code[i + 1 : i + 200])
        if dm and dm.group(1) != "const":
            names.setdefault(dm.group(1), line_of(code, m.start()))
    return names


def list_suppressions(repo: Repo, root: Path, fmt: str) -> int:
    """Inventory of every allow() comment in the tree. The suppression
    budget is review-visible this way: a PR that grows the list shows up in
    the diff of this command's output, not just in a silent comment.
    """
    rows: list[tuple[str, int, list[str], str | None]] = []
    for f in (*repo.src, *repo.tests, *repo.bench):
        for s in f.suppressions:
            try:
                rel = f.path.resolve().relative_to(root).as_posix()
            except ValueError:
                rel = f.path.as_posix()
            rows.append((rel, s.line, sorted(s.checks), s.rationale))
    if fmt == "json":
        doc = {
            "schema": SCHEMA,
            "suppressions": [
                {"file": rel, "line": line, "checks": checks, "rationale": rationale}
                for rel, line, checks, rationale in rows
            ],
        }
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        for rel, line, checks, rationale in rows:
            why = f" -- {rationale}" if rationale else "  (NO RATIONALE)"
            print(f"{rel}:{line}: allow({', '.join(checks)}){why}")
        print(f"cpla-lint: {len(rows)} suppression(s)", file=sys.stderr)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="cpla_lint.py", description="Project-specific static analysis for CPLA."
    )
    parser.add_argument(
        "--root",
        type=Path,
        default=Path(__file__).resolve().parent.parent,
        help="repository root to scan (default: this file's repo)",
    )
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument(
        "--fix", action="store_true", help="apply safe fixes (pragma once, registry append)"
    )
    parser.add_argument("--list-checks", action="store_true", help="print check names and exit")
    parser.add_argument(
        "--list-suppressions",
        action="store_true",
        help="print every cpla-lint allow() comment with its rationale and exit",
    )
    parser.add_argument(
        "--self-test",
        action="store_true",
        help="run the linter's own test suite (tests/lint/lint_selftest.py)",
    )
    args = parser.parse_args(argv)

    if args.list_checks:
        for check in CHECKS:
            print(check)
        return 0

    if args.self_test:
        selftest = Path(__file__).resolve().parent.parent / "tests" / "lint" / "lint_selftest.py"
        if not selftest.is_file():
            print(f"cpla-lint: self-test not found at {selftest}", file=sys.stderr)
            return 2
        return subprocess.call([sys.executable, str(selftest)])

    root = args.root.resolve()
    if not (root / "src").is_dir():
        print(f"cpla-lint: no src/ under {root}", file=sys.stderr)
        return 2

    if args.list_suppressions:
        return list_suppressions(Repo(root), root, args.format)

    linter = Linter(Repo(root), fix=args.fix)
    findings = linter.run()

    if args.format == "json":
        doc = {
            "schema": SCHEMA,
            "root": str(root),
            "findings": [
                {
                    "check": f.check,
                    "file": str(f.path.resolve().relative_to(root)),
                    "line": f.line,
                    "message": f.message,
                    "fixable": f.fixable,
                }
                for f in findings
            ],
            "fixed": [
                {"check": f.check, "file": str(f.path.resolve().relative_to(root)), "line": f.line}
                for f in linter.fixed
            ],
        }
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        for f in findings:
            print(f.render(root))
        for f in linter.fixed:
            print(f"fixed: {f.render(root)}")
        if findings:
            print(f"cpla-lint: {len(findings)} finding(s)", file=sys.stderr)

    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
