#!/usr/bin/env python3
"""Self-test for tools/cpla_lint.py.

Three contracts, each of which has caught a real class of linter rot in other
projects:

  1. every check fires on its seeded-violation fixture (a check that cannot
     fail is decoration, not analysis),
  2. a clean fixture and the real repository produce zero findings,
  3. --fix repairs what it claims to repair, idempotently.

Fixtures live in tests/lint/data/<check_name>/ as miniature repo roots. The
test runs the linter in-process (no subprocess per case) through its main()
so argument parsing and exit codes are covered too.
"""

from __future__ import annotations

import io
import json
import shutil
import sys
import tempfile
import unittest
from contextlib import redirect_stdout
from pathlib import Path
from typing import Any

REPO_ROOT = Path(__file__).resolve().parent.parent.parent
DATA = REPO_ROOT / "tests" / "lint" / "data"

sys.path.insert(0, str(REPO_ROOT / "tools"))

import cpla_lint  # noqa: E402


def run_lint(*argv: str) -> tuple[int, dict[str, Any]]:
    out = io.StringIO()
    with redirect_stdout(out):
        rc = cpla_lint.main([*argv, "--format", "json"])
    return rc, json.loads(out.getvalue())


class FixtureFiring(unittest.TestCase):
    """Every check fires — and only that check — on its seeded fixture."""

    def assert_fires(self, check: str) -> None:
        fixture = DATA / check.replace("-", "_")
        self.assertTrue(fixture.is_dir(), f"missing fixture dir {fixture}")
        rc, doc = run_lint("--root", str(fixture))
        self.assertEqual(rc, 1, f"{check}: linter should exit 1 on its fixture")
        fired = {f["check"] for f in doc["findings"]}
        self.assertIn(check, fired, f"{check}: expected the check to fire, got {fired}")
        self.assertEqual(
            fired, {check}, f"{check}: fixture should trip exactly one check, got {fired}"
        )

    def test_every_check_has_a_firing_fixture(self) -> None:
        for check in cpla_lint.CHECKS:
            with self.subTest(check=check):
                self.assert_fires(check)

    def test_finding_shape(self) -> None:
        rc, doc = run_lint("--root", str(DATA / "no_direct_stdout"))
        self.assertEqual(rc, 1)
        self.assertEqual(doc["schema"], "cpla-lint-v1")
        for f in doc["findings"]:
            self.assertIn("check", f)
            self.assertIn("file", f)
            self.assertGreater(f["line"], 0)
            self.assertTrue(f["message"])

    def test_stdout_fixture_reports_each_call(self) -> None:
        _, doc = run_lint("--root", str(DATA / "no_direct_stdout"))
        lines = {f["line"] for f in doc["findings"]}
        self.assertEqual(
            len(lines), 3, "std::cout, printf, and fwrite(stdout) are separate findings"
        )


class OptionUnset(unittest.TestCase):
    """Only the seeded field fires: statics, nested types, member functions,
    brace-initialized and std::function members parse as they should, and
    the allow comment exempts its field."""

    def test_only_the_seeded_field_fires(self) -> None:
        rc, doc = run_lint("--root", str(DATA / "option_unset"))
        self.assertEqual(rc, 1)
        self.assertEqual(
            [(f["check"], f["line"]) for f in doc["findings"]], [("option-unset", 14)]
        )
        self.assertIn("WidgetOptions::step", doc["findings"][0]["message"])

    def test_setting_the_field_from_a_test_clears_it(self) -> None:
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp) / "fixture"
            shutil.copytree(DATA / "option_unset", root)
            (root / "tests").mkdir()
            (root / "tests" / "widget_test.cpp").write_text(
                "void f(cpla::widget::WidgetOptions* o) { o->step = 1.0; }\n"
                "void g(cpla::widget::WidgetOptions o) { o.step = 1.0; }\n"
            )
            rc, doc = run_lint("--root", str(root))
            self.assertEqual(doc["findings"], [])
            self.assertEqual(rc, 0)

    def test_field_parser_on_a_brace_initialized_member(self) -> None:
        code = (
            "struct FlowOptions {\n"
            "  sdp::SdpOptions sdp{.max_iterations = 60, .tol = 1e-5};\n"
            "  long counts[4] = {0, 0, 0, 0};\n"
            "  const std::atomic<bool>* stop = nullptr;\n"
            "};\n"
        )
        m = cpla_lint.OPTIONS_STRUCT_RE.search(code)
        fields = cpla_lint.option_fields(code, m.end() - 1)
        self.assertEqual([name for name, _ in fields], ["sdp", "counts", "stop"])


class OptionReadOnly(unittest.TestCase):
    """A field outside src/ code only reads (a test, a comparison, a copy into
    a local) is still unset; assignments, compound assignments, chained
    assignments and designated initializers set theirs."""

    def test_read_only_fields_fire(self) -> None:
        rc, doc = run_lint("--root", str(DATA / "option_read_only"))
        self.assertEqual(rc, 1)
        self.assertEqual(
            [(f["check"], f["line"]) for f in doc["findings"]],
            [("option-unset", 12), ("option-unset", 14)],
        )
        self.assertIn("WidgetOptions::verbose", doc["findings"][0]["message"])
        self.assertIn("WidgetOptions::retries", doc["findings"][1]["message"])

    def test_assigning_them_clears_them(self) -> None:
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp) / "fixture"
            shutil.copytree(DATA / "option_read_only", root)
            (root / "tests").mkdir()
            (root / "tests" / "widget_test.cpp").write_text(
                "void f(cpla::widget::WidgetOptions* o) { o->verbose = true; }\n"
                "void g(cpla::widget::WidgetOptions o[2]) { o[1].retries = 3; }\n"
            )
            rc, doc = run_lint("--root", str(root))
            self.assertEqual(doc["findings"], [])
            self.assertEqual(rc, 0)

    def test_assigned_members(self) -> None:
        code = (
            "opt.eco.critical_ratio = 0.03;\n"
            "p->rows[2].cap += 1;\n"
            "Foo f{.alpha = 1, .beta{2}};\n"
            "if (opt.gamma == 1 && opt.delta <= 2 && opt.eps != 3) {}\n"
            "double x = opt.zeta;\n"
            "run(opt.eta);\n"
        )
        self.assertEqual(
            cpla_lint.assigned_members(code),
            {"eco", "critical_ratio", "rows", "cap", "alpha", "beta"},
        )


class OptionStructUnused(unittest.TestCase):
    """An Options struct nothing else in src/ names fires, even when its
    fields pass option-unset through a same-named field elsewhere."""

    def test_only_the_unused_struct_fires(self) -> None:
        rc, doc = run_lint("--root", str(DATA / "option_struct_unused"))
        self.assertEqual(rc, 1)
        self.assertEqual(
            [(f["check"], f["line"]) for f in doc["findings"]], [("option-struct-unused", 7)]
        )
        self.assertIn("LegacyOptions", doc["findings"][0]["message"])

    def test_a_src_parameter_clears_it(self) -> None:
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp) / "fixture"
            shutil.copytree(DATA / "option_struct_unused", root)
            (root / "src" / "widget" / "legacy.cpp").write_text(
                '#include "src/widget/widget.hpp"\n'
                "double legacy_scale(const cpla::widget::LegacyOptions& o) { return o.scale; }\n"
            )
            rc, doc = run_lint("--root", str(root))
            self.assertEqual(doc["findings"], [])
            self.assertEqual(rc, 0)


class CleanTrees(unittest.TestCase):
    def test_clean_fixture_is_clean(self) -> None:
        rc, doc = run_lint("--root", str(DATA / "clean"))
        self.assertEqual(doc["findings"], [])
        self.assertEqual(rc, 0)

    def test_real_repository_is_clean(self) -> None:
        rc, doc = run_lint("--root", str(REPO_ROOT))
        self.assertEqual(
            [f"{f['file']}:{f['line']} {f['check']}" for f in doc["findings"]],
            [],
            "the real tree must lint clean (fix the finding or the check)",
        )
        self.assertEqual(rc, 0)


class Suppression(unittest.TestCase):
    def test_allow_comment_suppresses_one_line(self) -> None:
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp) / "fixture"
            shutil.copytree(DATA / "solver_nondeterminism", root)
            src = root / "src" / "sdp" / "perturb.cpp"
            patched = [
                line.rstrip("\n")
                + "  // cpla-lint: allow(solver-nondeterminism) -- seeded by the self-test"
                if "rand()" in line or "random_device rd" in line
                else line.rstrip("\n")
                for line in src.read_text().splitlines()
            ]
            src.write_text("\n".join(patched) + "\n")
            rc, doc = run_lint("--root", str(root))
            self.assertEqual(doc["findings"], [])
            self.assertEqual(rc, 0)

    def test_standalone_allow_line_covers_the_line_below(self) -> None:
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp) / "fixture"
            shutil.copytree(DATA / "no_direct_stdout", root)
            src = next((root / "src").rglob("*.cpp"))
            patched = []
            for line in src.read_text().splitlines():
                if "std::cout" in line:
                    patched.append("  // cpla-lint: allow(no-direct-stdout) -- self-test seed")
                patched.append(line)
            src.write_text("\n".join(patched) + "\n")
            _, doc = run_lint("--root", str(root))
            fired = [f for f in doc["findings"] if f["check"] == "no-direct-stdout"]
            self.assertEqual(len(fired), 2, "only the std::cout line is covered")

    def test_rationale_less_allow_fires_and_cannot_self_suppress(self) -> None:
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp) / "fixture"
            shutil.copytree(DATA / "suppression_rationale", root)
            src = root / "src" / "eco" / "noisy.cpp"
            # Escalate the seed: try to suppress the policing check itself,
            # still without a rationale. It must fire anyway.
            src.write_text(
                src.read_text().replace(
                    "allow(no-direct-stdout)",
                    "allow(no-direct-stdout, suppression-rationale)",
                )
            )
            rc, doc = run_lint("--root", str(root))
            self.assertEqual(rc, 1)
            self.assertEqual(
                {f["check"] for f in doc["findings"]}, {"suppression-rationale"}
            )

    def test_list_suppressions_inventory(self) -> None:
        rc, doc = run_lint("--root", str(DATA / "suppression_rationale"), "--list-suppressions")
        self.assertEqual(rc, 0)
        self.assertEqual(len(doc["suppressions"]), 1)
        entry = doc["suppressions"][0]
        self.assertEqual(entry["checks"], ["no-direct-stdout"])
        self.assertIsNone(entry["rationale"])
        self.assertTrue(entry["file"].endswith("noisy.cpp"))


# The fault points the registered TUs carry (lagr_engine.cpp, cholesky.cpp,
# solver.cpp), keyed by their registry constant.
MINI_REPO_FAULT_SITES = {
    "kLagrSolve": "lagr.solve",
    "kCholeskyFactor": "la.cholesky.factor",
    "kSdpNumerical": "sdp.solve.numerical",
    "kSdpIterlimit": "sdp.solve.iterlimit",
}


class DeterminismAcceptance(unittest.TestCase):
    """The contract the registry header promises: removing -ffp-contract=off
    from a registered TU's CMake lists, or adding an OpenMP reduction to the
    TU, turns the real repository's lint red. Exercised on a copy of the
    real src/core build files (target cpla_core, per-source COMPILE_OPTIONS
    inside a compiler-id if()) so the test proves the production CMake idiom
    is parsed, not a toy.
    """

    def make_mini_repo(self, tmp: str) -> Path:
        root = Path(tmp) / "repo"
        for rel in (
            "src/util/determinism_contract.hpp",
            # The mini repo must carry every registered TU (and its CMake
            # proof) to lint clean.
            "src/sta/timing_graph.cpp",
            "src/sta/path_enum.cpp",
            "src/sta/CMakeLists.txt",
            "src/core/lagr_engine.cpp",
            "src/core/CMakeLists.txt",
            "src/la/cholesky.cpp",
            "src/la/CMakeLists.txt",
            "src/sdp/solver.cpp",
            "src/sdp/CMakeLists.txt",
        ):
            dst = root / rel
            dst.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy(REPO_ROOT / rel, dst)
        # Declare exactly the fault sites the copied TUs use (copying the
        # real registry would trip fault-site-unused for every site whose TU
        # isn't here).
        self.write_fault_sites(root, MINI_REPO_FAULT_SITES)
        return root

    @staticmethod
    def write_fault_sites(root: Path, sites: dict[str, str]) -> None:
        path = root / "src" / "util" / "fault_sites.hpp"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            "#pragma once\n"
            "namespace cpla::fault_sites {\n"
            + "".join(f'inline constexpr char {k}[] = "{v}";\n' for k, v in sites.items())
            + f"inline constexpr const char* kAll[] = {{{', '.join(sites)}}};\n"
            "}  // namespace cpla::fault_sites\n"
        )

    def test_copied_production_files_are_clean(self) -> None:
        with tempfile.TemporaryDirectory() as tmp:
            rc, doc = run_lint("--root", str(self.make_mini_repo(tmp)))
            self.assertEqual(doc["findings"], [])
            self.assertEqual(rc, 0)

    def test_dropping_fp_contract_flag_fails_the_lint(self) -> None:
        with tempfile.TemporaryDirectory() as tmp:
            root = self.make_mini_repo(tmp)
            cml = root / "src" / "core" / "CMakeLists.txt"
            text = cml.read_text()
            self.assertIn("-ffp-contract=off", text)
            cml.write_text(text.replace("-ffp-contract=off", ""))
            rc, doc = run_lint("--root", str(root))
            self.assertEqual(rc, 1)
            self.assertEqual(
                {f["check"] for f in doc["findings"]}, {"determinism-fp-contract"}
            )

    def test_adding_an_omp_reduction_fails_the_lint(self) -> None:
        with tempfile.TemporaryDirectory() as tmp:
            root = self.make_mini_repo(tmp)
            tu = root / "src" / "core" / "lagr_engine.cpp"
            lines = tu.read_text().splitlines()
            # Inject after the include block, inside the TU proper.
            after_includes = max(i for i, line in enumerate(lines) if line.startswith("#include"))
            lines.insert(after_includes + 1, "#pragma omp parallel for reduction(+ : acc)")
            tu.write_text("\n".join(lines) + "\n")
            rc, doc = run_lint("--root", str(root))
            self.assertEqual(rc, 1)
            self.assertEqual(
                {f["check"] for f in doc["findings"]}, {"determinism-omp-reduction"}
            )

    def drop_flag(self, root: Path) -> Path:
        """Strips -ffp-contract=off from the mini repo's CMakeLists and
        returns the file, so each case can re-add the flag in one shape."""
        cml = root / "src" / "core" / "CMakeLists.txt"
        text = cml.read_text()
        self.assertIn("-ffp-contract=off", text)
        cml.write_text(text.replace("-ffp-contract=off", ""))
        return cml

    def test_blanket_flag_after_the_target_does_not_count(self) -> None:
        # add_compile_options only reaches targets defined after it.
        with tempfile.TemporaryDirectory() as tmp:
            root = self.make_mini_repo(tmp)
            cml = self.drop_flag(root)
            cml.write_text(cml.read_text() + '\nadd_compile_options("-ffp-contract=off")\n')
            rc, doc = run_lint("--root", str(root))
            self.assertEqual(rc, 1)
            self.assertEqual(
                {f["check"] for f in doc["findings"]}, {"determinism-fp-contract"}
            )

    def test_blanket_flag_before_the_target_counts(self) -> None:
        with tempfile.TemporaryDirectory() as tmp:
            root = self.make_mini_repo(tmp)
            cml = self.drop_flag(root)
            cml.write_text('add_compile_options("-ffp-contract=off")\n' + cml.read_text())
            rc, doc = run_lint("--root", str(root))
            self.assertEqual(doc["findings"], [])
            self.assertEqual(rc, 0)

    def test_blanket_flag_inside_an_if_branch_does_not_count(self) -> None:
        with tempfile.TemporaryDirectory() as tmp:
            root = self.make_mini_repo(tmp)
            cml = self.drop_flag(root)
            cml.write_text(
                "if(CPLA_NEVER_SET_OPTION)\n"
                '  add_compile_options("-ffp-contract=off")\n'
                "endif()\n" + cml.read_text()
            )
            rc, doc = run_lint("--root", str(root))
            self.assertEqual(rc, 1)
            self.assertEqual(
                {f["check"] for f in doc["findings"]}, {"determinism-fp-contract"}
            )

    def test_flag_on_an_unrelated_target_does_not_count(self) -> None:
        with tempfile.TemporaryDirectory() as tmp:
            root = self.make_mini_repo(tmp)
            cml = self.drop_flag(root)
            cml.write_text(
                cml.read_text() + "\nadd_library(cpla_other other.cpp)\n"
                'target_compile_options(cpla_other PRIVATE "-ffp-contract=off")\n'
            )
            rc, doc = run_lint("--root", str(root))
            self.assertEqual(rc, 1)
            self.assertEqual(
                {f["check"] for f in doc["findings"]}, {"determinism-fp-contract"}
            )

    def test_flag_on_the_owning_target_counts(self) -> None:
        with tempfile.TemporaryDirectory() as tmp:
            root = self.make_mini_repo(tmp)
            cml = self.drop_flag(root)
            cml.write_text(
                cml.read_text()
                + '\ntarget_compile_options(cpla_core PRIVATE "-ffp-contract=off")\n'
            )
            rc, doc = run_lint("--root", str(root))
            self.assertEqual(doc["findings"], [])
            self.assertEqual(rc, 0)

    def test_registry_pointing_at_a_deleted_tu_fails_the_lint(self) -> None:
        with tempfile.TemporaryDirectory() as tmp:
            root = self.make_mini_repo(tmp)
            (root / "src" / "core" / "lagr_engine.cpp").unlink()
            # Drop the TU's fault site with it so only the determinism check
            # can fire.
            sites = {k: v for k, v in MINI_REPO_FAULT_SITES.items() if v != "lagr.solve"}
            self.write_fault_sites(root, sites)
            rc, doc = run_lint("--root", str(root))
            self.assertEqual(rc, 1)
            self.assertEqual(
                {f["check"] for f in doc["findings"]}, {"determinism-fp-contract"}
            )


class CMakeExpansion(unittest.TestCase):
    def test_set_and_list_append_expand_one_level(self) -> None:
        # The `set(_flags ...)` + `list(APPEND _flags ...)` +
        # `set_source_files_properties(... "${_flags}")` idiom must resolve to
        # the flag tokens, so a per-TU flag routed through a variable counts.
        text = (
            'set(_flags "-mavx2")\n'
            'list(APPEND _flags "-ffp-contract=off")\n'
            'set_source_files_properties(kernel.cpp PROPERTIES COMPILE_OPTIONS "${_flags}")\n'
        )
        name, tokens, line = cpla_lint.cmake_expanded_commands(text)[-1]
        self.assertEqual(name, "set_source_files_properties")
        self.assertEqual(line, 3)
        self.assertIn("kernel.cpp", tokens)
        self.assertIn("-mavx2", tokens)
        self.assertIn("-ffp-contract=off", tokens)


class FixMode(unittest.TestCase):
    def fix_and_recheck(self, fixture: str, check: str) -> None:
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp) / "fixture"
            shutil.copytree(DATA / fixture, root)
            rc, doc = run_lint("--root", str(root), "--fix")
            self.assertEqual({f["check"] for f in doc["fixed"]}, {check})
            rc, doc = run_lint("--root", str(root))
            self.assertEqual(
                [f for f in doc["findings"] if f["check"] == check],
                [],
                f"--fix did not clear {check}",
            )

    def test_fix_pragma_once(self) -> None:
        self.fix_and_recheck("missing_pragma_once", "missing-pragma-once")

    def test_fix_registry_append(self) -> None:
        self.fix_and_recheck("fault_site_undeclared", "fault-site-undeclared")

    def test_fixed_registry_parses_as_the_canonical_shape(self) -> None:
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp) / "fixture"
            shutil.copytree(DATA / "fault_site_undeclared", root)
            run_lint("--root", str(root), "--fix")
            text = (root / "src" / "util" / "fault_sites.hpp").read_text()
            self.assertIn(
                'inline constexpr char kWidgetSolveOverflow[] = "widget.solve.overflow";', text
            )
            self.assertIn("kWidgetSolveOverflow,", text)


class CommentStripping(unittest.TestCase):
    def test_strings_survive_comments_die(self) -> None:
        code = (
            'a("keep");\n'
            '// b("dies")\n'
            '/* c("dies\ntoo") */ d("keep2");\n'
            'e("slash // not comment");\n'
        )
        stripped = cpla_lint.strip_comments(code)
        self.assertIn('"keep"', stripped)
        self.assertIn('"keep2"', stripped)
        self.assertIn('"slash // not comment"', stripped)
        self.assertNotIn("dies", stripped)
        self.assertEqual(stripped.count("\n"), code.count("\n"), "line structure preserved")


if __name__ == "__main__":
    unittest.main(verbosity=2)
