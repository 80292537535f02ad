"""Smoke runs of the standalone scripts, which import engine names directly.

Each runs as a subprocess from a scratch directory with PYTHONPATH removed,
so the script's own path set-up must find the uninstalled checkout's src/.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(tmp_path, name, *args):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc.stdout.splitlines()


def test_fuzz_roundtrip(tmp_path):
    lines = run_script(tmp_path, "fuzz_roundtrip.py", "100", "1")
    assert lines[-1].startswith(
        "100 cases round-tripped byte-exactly, kept the merge laws, bounded distances, "
        "bag bounds and atom invariants in "
    )
    assert lines[-1].endswith("(seed 0x1)")


def test_bigblock(tmp_path):
    lines = run_script(tmp_path, "bigblock.py")
    rows = [line for line in lines if line.startswith("| `")]
    assert len(rows) == 5
    assert [row.split("`")[1].split()[0] for row in rows] == ["crlf"] * 4 + ["grow"]


def test_ladder_scale(tmp_path):
    lines = run_script(tmp_path, "ladder_scale.py", "1")
    assert lines[0].startswith("| tokens | merge | ratio |")
    assert lines[0].endswith("| direction | ratio |")
    rows = [line for line in lines[2:] if line.startswith("| ")]
    assert len(rows) == 4
    assert all(row.count("|") == lines[0].count("|") for row in rows)


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git on the PATH")
def test_differential(tmp_path):
    lines = run_script(tmp_path, "differential.py", "--cases", "10", "--seed", "1")
    for mode, labels in (
        ("line-disjoint", ("agree", "summer conflict", "git conflict",
                           "summer clean but different")),
        ("same-line", ("git clean", "summer right where git conflicts", "summer conflict",
                       "summer silently wrong")),
    ):
        at = lines.index(f"{mode}, 10 cases, seed 1:")
        counts = dict(line.strip().split(": ") for line in lines[at + 1 : at + 1 + len(labels)])
        assert tuple(counts) == labels
        assert sum(map(int, counts.values())) == 10
