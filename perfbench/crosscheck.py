#!/usr/bin/env python3
"""Check the generated references against ``git merge-file``.

    python3 perfbench/crosscheck.py [--cases N] [--seeds 0,1,2]

For each seed and case of the ``ladder``, ``tree`` and ``replay``
generators, git's own three-way line merge of the generated sides must be
clean and equal the reference the benchmark scores summer against. A
generator bug then shows up here instead of posing as an engine regression.
Exits 1 on the first disagreement. Needs ``git`` on the PATH; writes only
under ``.perfbench/`` of the checkout and removes what it wrote.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import workloads  # noqa: E402


def git_merge(work: str, current: str, base: str, other: str) -> tuple[int, str]:
    paths = []
    for role, text in (("current", current), ("base", base), ("other", other)):
        path = os.path.join(work, role)
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        paths.append(path)
    proc = subprocess.run(["git", "merge-file", "-p", *paths], capture_output=True, timeout=60)
    return proc.returncode, proc.stdout.decode("utf-8")


def cases(seed: int, count: int):
    """(label, current, base, other, reference) for every file of every case."""
    for case in range(count):
        base, left, right, ref = workloads.ladder_case(case, workloads.spelling(seed, 0, 2))
        yield f"ladder seed {seed} case {case}", left, base, right, ref
        base_t, left_t, right_t, ref_t = workloads.tree_case(case, workloads.spelling(seed, 0, 6))
        for path in sorted(base_t):
            renamed = path.replace("/File", "/Renamed")
            left_path = renamed if renamed in left_t else path
            yield (f"tree seed {seed} case {case} {path}", left_t[left_path], base_t[path],
                   right_t[path], ref_t[left_path])
    words = workloads.spelling(seed, 0, 3)
    base_lines, changed_lines, lines = workloads.replay_change(words)
    base, changed = workloads._join(base_lines), workloads._join(changed_lines)
    for case in range(count):
        drifted, ref = workloads.replay_case(seed, case, base_lines, changed_lines, lines, words)
        yield f"replay seed {seed} case {case}", changed, base, drifted, ref


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--cases", type=int, default=4)
    parser.add_argument("--seeds", default="0,1,2")
    args = parser.parse_args()
    work = os.path.join(ROOT, ".perfbench", "crosscheck")
    os.makedirs(work, exist_ok=True)
    checked = 0
    try:
        for seed in (int(s) for s in args.seeds.split(",")):
            for label, current, base, other, ref in cases(seed, args.cases):
                code, merged = git_merge(work, current, base, other)
                if code != 0 or merged != ref:
                    print(f"{label}: git merge-file exit {code}, "
                          f"{'equal to' if merged == ref else 'differs from'} the reference")
                    return 1
                checked += 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"{checked} merges: git merge-file agrees with every reference")
    return 0


if __name__ == "__main__":
    sys.exit(main())
