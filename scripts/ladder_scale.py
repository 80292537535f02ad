#!/usr/bin/env python3
"""Time merge, decompose, dissect and direction choice on growing ladders.

Builds `ladder_case(CASE)` from perfbench/workloads.py with `LADDER_LINES`
multiplied by 1, 2, 4 and 8 (about 8.1k to 64.8k tokens a file), and prints
one markdown table row per size: tokens, the merge of base, left and right,
the decompose of base to left, the replay of that decomposition on right
(`apply_steps`, the steps computed once beforehand), `dissect(base, left,
"")` and the direction choice `determine_direction(base, left, right)`,
each the best wall time of REPEATS runs and its ratio to the row before (the
cost of one doubling).
The tokenizer cache is cleared before each run, so every run is cold.

Usage: python3 scripts/ladder_scale.py [REPEATS] [CASE]
"""

from __future__ import annotations

import os
import sys
import time

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import workloads  # noqa: E402
from summer.align import dissect  # noqa: E402
from summer.engine import apply_steps, decompose, determine_direction, merge  # noqa: E402
from summer.tokens import tokenize, tokenize_cached  # noqa: E402

FACTORS = (1, 2, 4, 8)


def best_of(repeats: int, fn, *args) -> float:
    best = float("inf")
    for _ in range(repeats):
        tokenize_cached.cache_clear()
        start = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - start)
    return best


def main(argv: list[str]) -> int:
    repeats = int(argv[0]) if argv else 1
    case = int(argv[1]) if len(argv) > 1 else 3
    lines = workloads.LADDER_LINES
    words = workloads.spelling(workloads.CHECK_SEED, 0, 2)
    print(
        "| tokens | merge | ratio | decompose (left) | ratio | replay | ratio "
        "| dissect (left) | ratio | direction | ratio |"
    )
    print("| --- |" + " --- |" * 10)
    prev = None
    try:
        for factor in FACTORS:
            workloads.LADDER_LINES = lines * factor
            base, left, right, _ref = workloads.ladder_case(case, words)
            tokens = len(tokenize(base).tokens)
            m = best_of(repeats, merge, {"": base}, {"": left}, {"": right})
            d = best_of(repeats, decompose, {"": base}, {"": left})
            steps = decompose({"": base}, {"": left})
            r = best_of(repeats, apply_steps, {"": right}, steps)
            x = best_of(repeats, dissect, base, left, "")
            c = best_of(repeats, determine_direction, {"": base}, {"": left}, {"": right})
            ratios = [f"{t / p:.1f}x" for t, p in zip((m, d, r, x, c), prev)] if prev else [""] * 5
            print(
                f"| {tokens / 1000:.1f}k | {m:.2f} s | {ratios[0]} | {d:.2f} s | {ratios[1]} "
                f"| {r * 1000:.2f} ms | {ratios[2]} | {x * 1000:.1f} ms | {ratios[3]} "
                f"| {c * 1000:.2f} ms | {ratios[4]} |",
                flush=True,
            )
            prev = m, d, r, x, c
    finally:
        workloads.LADDER_LINES = lines
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
