"""Literal-match evaluation harness over (base, left, right, expected) trios.

A scenario hands three files to a merge command following the merge-driver
convention (``tool BASE LEFT RIGHT`` writes its result into LEFT, exit 0
clean / 1 conflict). The harness compares the tool's output with the
developer's merge after normalization: blank lines dropped, all whitespace
stripped, and for Java files contiguous import blocks sorted.
"""

from __future__ import annotations

import argparse
import json
import os
import shlex
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from enum import Enum

from .tokens import tokenize


class VerdictKind(Enum):
    LITERAL_MATCH = "literal_match"
    MISMATCH = "mismatch"
    TOOL_CONFLICT = "tool_conflict"
    TOOL_ERROR = "tool_error"


@dataclass(frozen=True, slots=True)
class Verdict:
    kind: VerdictKind
    detail: str = ""


@dataclass(frozen=True, slots=True)
class Scenario:
    id: str
    base: str
    left: str
    right: str
    expected: str
    kind: str  # "java" | "other"


def _first_token(line: str) -> str:
    toks = tokenize(line).tokens
    for t in toks:
        if not t.text.isspace():
            return t.text
    return ""


def normalize(content: str, kind: str = "other") -> str:
    """Drop blank lines, strip all whitespace, sort Java import blocks."""
    entries: list[tuple[str, bool]] = []
    for line in content.split("\n"):
        stripped = "".join(ch for ch in line if not ch.isspace())
        if not stripped:
            continue
        entries.append((stripped, _first_token(line) == "import"))
    if kind == "java":
        out: list[str] = []
        block: list[str] = []
        for text, is_import in entries:
            if is_import:
                block.append(text)
            else:
                out.extend(sorted(block))
                block = []
                out.append(text)
        out.extend(sorted(block))
        return "\n".join(out)
    return "\n".join(text for text, _ in entries)


def load_manifest(path: str) -> list[Scenario]:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    root = os.path.dirname(os.path.abspath(path))
    scenarios = []
    for obj in doc["scenarios"]:
        scenarios.append(
            Scenario(
                id=obj["id"],
                base=os.path.join(root, obj["base"]),
                left=os.path.join(root, obj["left"]),
                right=os.path.join(root, obj["right"]),
                expected=os.path.join(root, obj["expected"]),
                kind=obj.get("kind", "other"),
            )
        )
    return scenarios


def _read(path: str) -> str:
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError:
        return raw.decode("latin-1")


def _diff_summary(got: str, want: str) -> str:
    got_lines = got.split("\n")
    want_lines = want.split("\n")
    for i, (g, w) in enumerate(zip(got_lines, want_lines)):
        if g != w:
            return f"first difference at normalized line {i + 1}: {g!r} != {w!r}"
    return (
        f"line counts differ: {len(got_lines)} vs {len(want_lines)}"
        if len(got_lines) != len(want_lines)
        else "contents differ"
    )


def evaluate(
    scenario: Scenario, merge_command: str | list[str], timeout: float = 30.0
) -> Verdict:
    """Run the merge command on a scratch copy of the scenario's trio."""
    cmd = shlex.split(merge_command) if isinstance(merge_command, str) else list(merge_command)
    ext = os.path.splitext(scenario.base)[1]
    with tempfile.TemporaryDirectory(prefix="summer-bench-") as td:
        paths = {}
        for role, source in (
            ("base", scenario.base),
            ("left", scenario.left),
            ("right", scenario.right),
        ):
            dest = os.path.join(td, role + ext)
            shutil.copyfile(source, dest)
            paths[role] = dest
        try:
            proc = subprocess.run(
                cmd + [paths["base"], paths["left"], paths["right"]],
                capture_output=True,
                timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            return Verdict(VerdictKind.TOOL_ERROR, "timeout")
        except OSError as exc:
            return Verdict(VerdictKind.TOOL_ERROR, str(exc))
        if proc.returncode == 1:
            return Verdict(
                VerdictKind.TOOL_CONFLICT, proc.stderr.decode("utf-8", "replace").strip()
            )
        if proc.returncode != 0:
            return Verdict(VerdictKind.TOOL_ERROR, f"exit code {proc.returncode}")
        merged = normalize(_read(paths["left"]), scenario.kind)
    expected = normalize(_read(scenario.expected), scenario.kind)
    if merged == expected:
        return Verdict(VerdictKind.LITERAL_MATCH)
    return Verdict(VerdictKind.MISMATCH, _diff_summary(merged, expected))


@dataclass
class Report:
    rows: list[dict]
    text: str


def report(verdicts: list[tuple[Scenario, Verdict]]) -> Report:
    """Accuracy table shaped like the usual benchmark summary: counts and
    literal accuracy per kind plus overall."""
    kinds = sorted({s.kind for s, _ in verdicts})
    rows: list[dict] = []

    def row(label: str, pairs: list[tuple[Scenario, Verdict]]) -> dict:
        total = len(pairs)
        count = lambda k: sum(1 for _, v in pairs if v.kind is k)  # noqa: E731
        matches = count(VerdictKind.LITERAL_MATCH)
        pct = 100.0 * matches / total if total else 0.0
        return {
            "kind": label,
            "total": total,
            "literal_matches": matches,
            "mismatches": count(VerdictKind.MISMATCH),
            "conflicts": count(VerdictKind.TOOL_CONFLICT),
            "errors": count(VerdictKind.TOOL_ERROR),
            "literal_accuracy": f"{pct:.1f}%",
        }

    for kind in kinds:
        rows.append(row(kind, [(s, v) for s, v in verdicts if s.kind == kind]))
    rows.append(row("overall", verdicts))
    header = f"{'kind':<10} {'total':>5} {'lit.':>5} {'mis.':>5} {'conf.':>5} {'err.':>5} {'lit. accuracy':>14}"
    lines = [header, "-" * len(header)]
    for r in rows:
        lines.append(
            f"{r['kind']:<10} {r['total']:>5} {r['literal_matches']:>5} "
            f"{r['mismatches']:>5} {r['conflicts']:>5} {r['errors']:>5} "
            f"{r['literal_accuracy']:>14}"
        )
    return Report(rows, "\n".join(lines))


def run_benchmark(
    manifest: str, tool: str, timeout: float = 30.0
) -> tuple[list[tuple[Scenario, Verdict]], Report]:
    """Evaluate every scenario (worker pool; each runs in its own scratch
    directory) and aggregate the verdicts in manifest order."""
    scenarios = load_manifest(manifest)
    workers = min(8, os.cpu_count() or 1, max(1, len(scenarios)))
    with ThreadPoolExecutor(max_workers=workers) as pool:
        results = list(pool.map(lambda s: evaluate(s, tool, timeout=timeout), scenarios))
    verdicts = list(zip(scenarios, results))
    return verdicts, report(verdicts)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="summer-bench", description="Literal-match merge benchmark harness."
    )
    sub = parser.add_subparsers(dest="action", required=True)
    p = sub.add_parser("run", help="evaluate a merge tool over a manifest")
    p.add_argument("manifest")
    p.add_argument("--tool", required=True, help="merge command (BASE LEFT RIGHT appended)")
    p.add_argument("--timeout", type=float, default=30.0, help="seconds per scenario")
    p.add_argument("--json", dest="json_out", help="also write machine-readable rows here")
    args = parser.parse_args(argv)
    try:
        verdicts, rep = run_benchmark(args.manifest, args.tool, timeout=args.timeout)
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for scenario, verdict in verdicts:
        detail = f"  ({verdict.detail})" if verdict.detail else ""
        print(f"{scenario.id:<24} {verdict.kind.value}{detail}")
    print()
    print(rep.text)
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "verdicts": [
                        {"id": s.id, "kind": v.kind.value, "detail": v.detail}
                        for s, v in verdicts
                    ],
                    "report": rep.rows,
                },
                fh,
                indent=2,
            )
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
