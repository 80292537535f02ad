import os
import stat
import subprocess
import sys

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from summer.bench import (
    Scenario,
    Verdict,
    VerdictKind,
    evaluate,
    load_manifest,
    normalize,
    report,
    run_benchmark,
)

CORPUS = os.path.join(os.path.dirname(__file__), "..", "corpus", "manifest.json")
RUN_BENCH = os.path.join(os.path.dirname(__file__), "..", "scripts", "run_bench.py")
SUMMER_TOOL = f"{sys.executable} -m summer merge"


class TestNormalize:
    def test_blank_lines_dropped_and_whitespace_stripped(self):
        assert normalize("a\n\n  b\t c\n") == "a\nbc"

    def test_java_import_blocks_sorted(self):
        a = "import b.B;\nimport a.A;\n\nclass T {}\n"
        b = "import a.A;\nimport b.B;\nclass T {}\n"
        assert normalize(a, "java") == normalize(b, "java")

    def test_scattered_import_blocks_sort_within_themselves(self):
        text = "import z.Z;\nimport y.Y;\nclass A {}\nimport c.C;\nimport b.B;\n"
        got = normalize(text, "java")
        assert got.split("\n") == [
            "importy.Y;",
            "importz.Z;",
            "classA{}",
            "importb.B;",
            "importc.C;",
        ]

    def test_import_prefix_requires_the_token(self):
        # "importantVar" must not be treated as an import statement.
        text = "importantVar = 1;\nimport a.A;\nimportantB = 2;\n"
        got = normalize(text, "java")
        assert got.split("\n")[0] == "importantVar=1;"

    def test_identical_inputs(self):
        assert normalize("x\n") == normalize("x\n")

    @given(st.text(max_size=200), st.sampled_from(["java", "other"]))
    @settings(max_examples=150)
    def test_idempotent(self, text, kind):
        once = normalize(text, kind)
        assert normalize(once, kind) == once


def fake_tool(tmp_path, name, body):
    path = tmp_path / name
    path.write_text("#!/bin/sh\n" + body)
    path.chmod(path.stat().st_mode | stat.S_IEXEC)
    return str(path)


@pytest.fixture
def tiny_scenario(tmp_path):
    d = tmp_path / "scn"
    d.mkdir()
    (d / "base.txt").write_text("i++\nFoo\n")
    (d / "left.txt").write_text("i--\nFoo\n")
    (d / "right.txt").write_text("i+=1\nBar\n")
    (d / "expected.txt").write_text("i-=1\nBar\n")
    return Scenario(
        id="tiny",
        base=str(d / "base.txt"),
        left=str(d / "left.txt"),
        right=str(d / "right.txt"),
        expected=str(d / "expected.txt"),
        kind="other",
    )


class TestEvaluate:
    def test_literal_match_with_real_tool(self, tiny_scenario):
        verdict = evaluate(tiny_scenario, SUMMER_TOOL, timeout=60)
        assert verdict.kind is VerdictKind.LITERAL_MATCH

    def test_mismatch(self, tmp_path, tiny_scenario):
        tool = fake_tool(tmp_path, "wrong.sh", 'printf "something else" > "$2"\n')
        verdict = evaluate(tiny_scenario, tool)
        assert verdict.kind is VerdictKind.MISMATCH
        assert verdict.detail

    def test_conflict_exit_code(self, tmp_path, tiny_scenario):
        tool = fake_tool(tmp_path, "conflict.sh", "exit 1\n")
        assert evaluate(tiny_scenario, tool).kind is VerdictKind.TOOL_CONFLICT

    def test_crash_exit_code(self, tmp_path, tiny_scenario):
        tool = fake_tool(tmp_path, "crash.sh", "exit 3\n")
        assert evaluate(tiny_scenario, tool).kind is VerdictKind.TOOL_ERROR

    def test_timeout(self, tmp_path, tiny_scenario):
        tool = fake_tool(tmp_path, "slow.sh", "sleep 5\n")
        verdict = evaluate(tiny_scenario, tool, timeout=0.3)
        assert verdict.kind is VerdictKind.TOOL_ERROR
        assert verdict.detail == "timeout"

    def test_corpus_files_untouched(self, tiny_scenario):
        before = open(tiny_scenario.left).read()
        evaluate(tiny_scenario, SUMMER_TOOL, timeout=60)
        assert open(tiny_scenario.left).read() == before


class TestReport:
    def scen(self, kind):
        return Scenario("s", "b", "l", "r", "e", kind)

    def test_percentage_rounding(self):
        verdicts = [(self.scen("java"), Verdict(VerdictKind.LITERAL_MATCH))] * 34
        verdicts += [(self.scen("java"), Verdict(VerdictKind.MISMATCH))] * 72
        rep = report(verdicts)
        row = next(r for r in rep.rows if r["kind"] == "java")
        assert row["total"] == 106 and row["literal_matches"] == 34
        assert row["literal_accuracy"] == "32.1%"  # 34/106 = 32.075..%

    def test_zero_and_full(self):
        zero = report([(self.scen("other"), Verdict(VerdictKind.MISMATCH))] * 5)
        assert zero.rows[-1]["literal_accuracy"] == "0.0%"
        full = report([(self.scen("other"), Verdict(VerdictKind.LITERAL_MATCH))] * 5)
        assert full.rows[-1]["literal_accuracy"] == "100.0%"

    def test_totals_equal_verdict_counts(self):
        verdicts = [
            (self.scen("java"), Verdict(VerdictKind.LITERAL_MATCH)),
            (self.scen("java"), Verdict(VerdictKind.TOOL_CONFLICT)),
            (self.scen("other"), Verdict(VerdictKind.TOOL_ERROR)),
            (self.scen("other"), Verdict(VerdictKind.MISMATCH)),
        ]
        rep = report(verdicts)
        overall = rep.rows[-1]
        assert overall["total"] == 4
        assert (
            overall["literal_matches"]
            + overall["mismatches"]
            + overall["conflicts"]
            + overall["errors"]
        ) == 4


class TestBundledCorpus:
    """The bundled scenarios pin this engine's behavior: 8 literal matches,
    and its documented misses (version bumping, row ordering and the
    duplicated doc tag) and the conflict when an extraction's anchor is
    gone."""

    @pytest.fixture(scope="class")
    def corpus_run(self):
        return run_benchmark(CORPUS, SUMMER_TOOL, timeout=120)

    def test_corpus_run(self, corpus_run):
        verdicts, rep = corpus_run
        by_id = {s.id: v for s, v in verdicts}
        assert by_id["one-token-edit"].kind is VerdictKind.LITERAL_MATCH
        assert by_id["rename-vs-add"].kind is VerdictKind.LITERAL_MATCH
        assert by_id["extract-method"].kind is VerdictKind.LITERAL_MATCH
        assert by_id["inline-definition"].kind is VerdictKind.LITERAL_MATCH
        assert by_id["parallel-imports"].kind is VerdictKind.LITERAL_MATCH
        assert by_id["whitespace-noise"].kind is VerdictKind.LITERAL_MATCH
        assert by_id["module-rename-sweep"].kind is VerdictKind.LITERAL_MATCH
        assert by_id["escape-doubling"].kind is VerdictKind.LITERAL_MATCH
        # Characterized misses: the engine output is pinned, not asserted
        # as developer-equal.
        assert by_id["doc-tag-space-vs-tab"].kind is VerdictKind.MISMATCH
        assert by_id["version-bump"].kind is VerdictKind.MISMATCH
        assert by_id["table-rows"].kind is VerdictKind.MISMATCH
        assert by_id["extract-anchor-gone"].kind is VerdictKind.TOOL_CONFLICT
        overall = rep.rows[-1]
        assert overall["total"] == 12 and overall["literal_matches"] == 8

    def test_script_runs_from_an_uninstalled_checkout(self, corpus_run, tmp_path):
        # The script must hand src/ to the merge tool's own interpreter; with
        # no PYTHONPATH that child cannot import summer otherwise.
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        proc = subprocess.run(
            [sys.executable, RUN_BENCH], cwd=tmp_path, env=env,
            capture_output=True, text=True, timeout=600,
        )
        assert proc.returncode == 0, proc.stderr
        got = proc.stdout.split("\n\n")[0].splitlines()
        want = [
            f"{s.id:<24} {v.kind.value}" + (f"  ({v.detail})" if v.detail else "")
            for s, v in corpus_run[0]
        ]
        assert got == want

    def test_pinned_characterizations(self):
        # The version scenario bumps the wrong component; both sides of the
        # escape scenario make the same edit, which is applied once.
        from summer.engine import merge

        scenarios = {s.id: s for s in load_manifest(CORPUS)}

        def run(sid):
            s = scenarios[sid]
            out = merge(
                {"": open(s.base).read()},
                {"": open(s.left).read()},
                {"": open(s.right).read()},
            )
            assert out.ok
            return out.result[""]

        assert "3.4.3-SNAPSHOT" in run("version-bump")
        escapes = scenarios["escape-doubling"]
        assert run("escape-doubling") == open(escapes.left).read()
        merged_doc = run("doc-tag-space-vs-tab")
        assert "@since 0.4.0" in merged_doc and "@since\t0.4.0" in merged_doc
