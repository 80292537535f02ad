#!/usr/bin/env python3
"""Differential check of single-file merges against ``git merge-file``.

Each seeded case builds a base file of code-like lines, and every case runs
through ``summer.engine.merge`` and through ``git merge-file -p``. The
script runs two modes and prints how many cases fall in each class.

Line-disjoint mode: the left and right sides each replace a few lines with
edited copies, on disjoint lines that are never adjacent, so git's
three-way line merge is clean and is the merge a user expects.

- agree: summer and git produce the same text;
- summer conflict: summer reports a conflict;
- git conflict: git reports a conflict (never expected here);
- summer clean but different: summer exits clean with another text (a
  silent wrong merge).

Same-line mode: on each of 1 to 3 lines, both sides change a different
name, call or number token, at least 4 tokens apart. A line merge
conflicts on these; the expected merge holds both changes. This measures
the claim that token-level rules resolve what a line merge cannot.

- git clean: git merges the case (never expected here);
- summer right where git conflicts: summer's result is the expected merge;
- summer conflict: summer reports a conflict;
- summer silently wrong: summer exits clean with another text.

Usage: python3 scripts/differential.py [--cases 400] [--seed 1]
Needs ``git`` on the PATH and writes only to a temporary directory.
Exits 1 if summer raises, printing the case; otherwise 0.
"""

from __future__ import annotations

import argparse
import os
import random
import subprocess
import sys
import tempfile
import traceback
from collections import Counter

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from summer.engine import merge  # noqa: E402
from summer.tokens import tokenize  # noqa: E402

NAMES = ["count", "total", "index", "value", "buffer", "result", "offset", "limit"]
CALLS = ["read", "write", "check", "update", "parse", "emit"]


def line(rng: random.Random) -> str:
    name, call = rng.choice(NAMES), rng.choice(CALLS)
    shape = rng.randrange(3)
    if shape == 0:
        return f"    {name} = {call}({rng.choice(NAMES)}, {rng.randrange(100)});\n"
    if shape == 1:
        return f"    if ({name} > {rng.randrange(100)}) {call}({name});\n"
    return f"    {call}({name}.{rng.choice(NAMES)});\n"


def edit(rng: random.Random, text: str) -> str:
    """The line with one name, call or number changed, or a new line."""
    words = [w for w in NAMES + CALLS if w in text]
    if words and rng.random() < 0.7:
        old = rng.choice(words)
        return text.replace(old, rng.choice([w for w in NAMES + CALLS if w != old]), 1)
    fresh = line(rng)
    return fresh if fresh != text else text.replace(";", "; // changed", 1)


def case(rng: random.Random) -> tuple[str, str, str]:
    """(base, left, right) with each side's edited lines at least two apart
    from the other side's."""
    lines = [line(rng) for _ in range(rng.randrange(8, 40))]
    taken: dict[int, str] = {}
    for side in ("left", "right"):
        for _ in range(rng.randrange(1, 4)):
            i = rng.randrange(len(lines))
            if all(abs(i - j) >= 2 for j, owner in taken.items() if owner != side):
                taken[i] = side
    sides = {}
    for side in ("left", "right"):
        sides[side] = "".join(
            edit(rng, text) if taken.get(i) == side else text for i, text in enumerate(lines)
        )
    return "".join(lines), sides["left"], sides["right"]


def git_merge(work: str, base: str, left: str, right: str) -> tuple[int, str]:
    paths = []
    for role, text in (("left", left), ("base", base), ("right", right)):
        path = os.path.join(work, role)
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        paths.append(path)
    proc = subprocess.run(["git", "merge-file", "-p", *paths], capture_output=True, timeout=60)
    return proc.returncode, proc.stdout.decode("utf-8")


def changed_token(rng: random.Random, token: str) -> str:
    """Another number, name or call than the token."""
    if token.isdigit():
        return str((int(token) + rng.randrange(1, 100)) % 100)
    pool = NAMES if token in NAMES else CALLS
    return rng.choice([w for w in pool if w != token])


def same_line_case(rng: random.Random) -> tuple[str, str, str, str]:
    """(base, left, right, expected): on 1 to 3 lines, each side changes
    one name, call or number token, the two at least 4 tokens apart;
    expected holds both changes."""
    lines = [line(rng) for _ in range(rng.randrange(8, 40))]
    sides = {"left": list(lines), "right": list(lines), "expected": list(lines)}
    for i in rng.sample(range(len(lines)), rng.randrange(1, 4)):
        toks = [t.text for t in tokenize(lines[i]).tokens]
        slots = [k for k, t in enumerate(toks) if t in NAMES or t in CALLS or t.isdigit()]
        a, b = rng.choice([(a, b) for a in slots for b in slots if b - a >= 4])
        if rng.random() < 0.5:
            a, b = b, a
        new = {a: changed_token(rng, toks[a]), b: changed_token(rng, toks[b])}
        for side, changed in (("left", (a,)), ("right", (b,)), ("expected", (a, b))):
            sides[side][i] = "".join(new[k] if k in changed else t for k, t in enumerate(toks))
    return "".join(lines), *("".join(sides[s]) for s in ("left", "right", "expected"))


def disjoint_verdict(git_code: int, git_text: str, outcome, expected: str | None) -> str:
    if git_code != 0:
        return "git conflict"
    if not outcome.ok:
        return "summer conflict"
    return "agree" if outcome.result == {"": git_text} else "summer clean but different"


def same_line_verdict(git_code: int, git_text: str, outcome, expected: str | None) -> str:
    if git_code == 0:
        return "git clean"
    if not outcome.ok:
        return "summer conflict"
    if outcome.result == {"": expected}:
        return "summer right where git conflicts"
    return "summer silently wrong"


MODES = {
    "line-disjoint": (
        lambda rng: (*case(rng), None),
        disjoint_verdict,
        ("agree", "summer conflict", "git conflict", "summer clean but different"),
    ),
    "same-line": (
        same_line_case,
        same_line_verdict,
        (
            "git clean",
            "summer right where git conflicts",
            "summer conflict",
            "summer silently wrong",
        ),
    ),
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--cases", type=int, default=400)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as work:
        for mode, (make, verdict, labels) in MODES.items():
            rng = random.Random(args.seed)
            counts: Counter[str] = Counter()
            for n in range(args.cases):
                base, left, right, expected = make(rng)
                code, merged = git_merge(work, base, left, right)
                try:
                    outcome = merge({"": base}, {"": left}, {"": right})
                except Exception:
                    traceback.print_exc()
                    print(f"{mode} case {n}: summer raised")
                    print("base  =", repr(base))
                    print("left  =", repr(left))
                    print("right =", repr(right))
                    return 1
                counts[verdict(code, merged, outcome, expected)] += 1
            print(f"{mode}, {args.cases} cases, seed {args.seed}:")
            for label in labels:
                print(f"  {label}: {counts[label]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
