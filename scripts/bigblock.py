#!/usr/bin/env python3
"""Time `dissect` on change blocks as large as the file, with peak memory.

Two kinds of case, each one replace block for the token alignment:
- `crlf N`: a ladder-style text of N lines (`item<i> = value<i>;`, 9
  tokens a line) against its whole-file \\n -> \\r\\n conversion, so every
  line holds one substituted token; N is 100, 200, 400 and 900.
- `grow N`: 2 lines replaced by N ladder-style lines (14 tokens against
  9 N); N is 1,500.

Each case runs in its own child process, one after another, so that each
child's peak RSS (`ru_maxrss`) is that case's alone. The child prints one
markdown table row: the case, tokens a side, the `dissect` wall time and its
own peak RSS, interpreter included.

Usage: python3 scripts/bigblock.py
"""

from __future__ import annotations

import os
import resource
import subprocess
import sys
import time

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
sys.path.insert(0, os.path.join(ROOT, "src"))

CASES = (("crlf", 100), ("crlf", 200), ("crlf", 400), ("crlf", 900), ("grow", 1500))


def ladder_text(lines: int) -> str:
    return "".join(f"item{i} = value{i};\n" for i in range(lines))


def run_case(kind: str, lines: int) -> None:
    from summer.align import dissect
    from summer.tokens import _token_texts

    if kind == "crlf":
        source = ladder_text(lines)
        target = source.replace("\n", "\r\n")
    else:
        source, target = "x = y;\nz = w;\n", ladder_text(lines)
    start = time.perf_counter()
    dissect(source, target, "t")
    elapsed = time.perf_counter() - start
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    sides = f"{len(_token_texts(source))} / {len(_token_texts(target))}"
    print(f"| `{kind} {lines}` | {sides} | {elapsed:.2f} s | {rss_mb:.0f} MB |", flush=True)


def main(argv: list[str]) -> int:
    if argv:
        run_case(argv[0], int(argv[1]))
        return 0
    print("| case | tokens (source / target) | `dissect` | peak RSS |")
    print("| --- | --- | --- | --- |", flush=True)
    for kind, lines in CASES:
        subprocess.run([sys.executable, os.path.abspath(__file__), kind, str(lines)], check=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
