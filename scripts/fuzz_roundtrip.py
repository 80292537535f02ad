#!/usr/bin/env python3
"""Standalone round-trip fuzzer: decompose then replay must be byte-exact.

Each case also checks the merge laws merge(B, B, X), merge(B, X, B) and
merge(B, X, X) == X for its base B and target X, and that the bounded
distance levenshtein(B, X, limit=k) agrees with d = levenshtein(B, X) at
k = d and at k = d - 1, where the distance is over the limit by one: both
must return d. At k = the length gap of B and X, where the search's band is
one diagonal wide, it must return d if d is the gap, else the gap + 1 or d
(the latter where it was computed in full). The bag distance of B's and X's
token lists, which rename pairing uses as a bound, must not exceed their
Levenshtein distance. The atoms of dissect(B, X) must tile both sides from
offset 0, every identity run must be nonempty, every substitution one token
for another, and no two neighbouring atoms may both be identity runs,
insertions or deletions. The context units walked from every atom
boundary, either way, must end where the edits end and where `tokenize`
ends each token of an identity run.

Each case also has a byte variant: its target with a few bytes that are not
UTF-8 spliced in, drawn from a second generator seeded by (seed, case) so the
main stream of cases does not change. Read as the CLI reads files (PEP 383
surrogateescape), it must survive decompose, the step document and replay,
and the one-sided merge merge(B, B, X), byte for byte.

Usage: python3 scripts/fuzz_roundtrip.py [CASES] [SEED]
Prints a failure reproduction (base and target repr) and exits 1 on the
first divergence; exits 0 after all cases pass.
"""

from __future__ import annotations

import os
import random
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from summer.align import dissect  # noqa: E402
from summer.distance import _bag_distance, _bags, levenshtein  # noqa: E402
from summer.engine import apply_steps, decompose, merge  # noqa: E402
from summer.stepio import parse_steps, serialize_steps  # noqa: E402
from summer.tokens import tokenize  # noqa: E402

ALPHABET = [
    "alpha", "beta", "gamma", "x", "y", "z", "0", "17", "+", "-", "=", ";",
    ",", "(", ")", "{", "}", " ", "  ", "\n", "\t", "\r\n", "_", '"',
]


def mutate(rng: random.Random, tokens: list[str]) -> list[str]:
    t = list(tokens)
    for _ in range(rng.randrange(0, 8)):
        op = rng.choice(["sub", "ins", "del", "move", "block_ins"])
        if not t:
            op = "ins"
        if op == "sub":
            t[rng.randrange(len(t))] = rng.choice(ALPHABET)
        elif op == "ins":
            t.insert(rng.randrange(len(t) + 1), rng.choice(ALPHABET))
        elif op == "del":
            del t[rng.randrange(len(t))]
        elif op == "block_ins":
            k = rng.randrange(len(t) + 1)
            t[k:k] = [rng.choice(ALPHABET) for _ in range(rng.randrange(1, 6))]
        else:
            i = rng.randrange(len(t))
            j = min(len(t), i + rng.randrange(1, 10))
            block = t[i:j]
            del t[i:j]
            k = rng.randrange(len(t) + 1)
            t[k:k] = block
    return t


def with_bytes(rng: random.Random, text: str) -> bytes:
    """text as UTF-8 with one to three runs of one or two bytes >= 0x80 spliced in."""
    raw = bytearray(text.encode("utf-8"))
    for _ in range(rng.randrange(1, 4)):
        k = rng.randrange(len(raw) + 1)
        raw[k:k] = bytes(rng.randrange(0x80, 0x100) for _ in range(rng.randrange(1, 3)))
    return bytes(raw)


def byte_faults(base: str, raw: bytes) -> list[str]:
    """The byte-variant checks that raw, read as the CLI reads it, fails."""
    target = {"": raw.decode("utf-8", "surrogateescape")}
    steps = parse_steps(serialize_steps(decompose({"": base}, target)))
    faults = []
    for name, out in (
        ("byte round trip", apply_steps({"": base}, steps)),
        ("byte merge(B, B, X)", merge({"": base}, {"": base}, target)),
    ):
        if not out.ok or out.result[""].encode("utf-8", "surrogateescape") != raw:
            faults.append(name)
    return faults


def atom_faults(source: str, target: str) -> list[str]:
    """The atom and context-unit invariants that dissect(source, target) breaks."""
    bucket = dissect(source, target, "")
    faults = []
    lo = ro = 0
    prev = None
    edges = [(0, 0)]  # unit edges read off tokenize: atom ends, and token ends inside runs
    at = []  # the index in edges of each atom boundary
    for a in bucket.atoms:
        if (a.lhs_start, a.rhs_start) != (lo, ro):
            faults.append(f"atom {a!r} does not tile")
        kind = "=" if a.lhs == a.rhs else "+" if not a.lhs else "-" if not a.rhs else "~"
        if kind == "=" and not a.lhs:
            faults.append(f"atom {a!r} is an empty identity run")
        if kind == "~" and any(len(tokenize(side).tokens) != 1 for side in (a.lhs, a.rhs)):
            faults.append(f"atom {a!r} is not one token a side")
        if kind == prev and kind in "=+-":
            faults.append(f"atom {a!r} continues a run of its kind")
        prev = kind
        at.append(len(edges) - 1)
        if kind == "=":
            edges += [(lo + t.end, ro + t.end) for t in tokenize(a.lhs).tokens]
        else:
            edges.append((lo + len(a.lhs), ro + len(a.rhs)))
        lo += len(a.lhs)
        ro += len(a.rhs)
    at.append(len(edges) - 1)
    if (lo, ro) != (len(source), len(target)):
        faults.append("atoms do not cover both sides")
    for i, k in enumerate(at):
        if [*bucket.reach(i, 1)] != edges[k:] or [*bucket.reach(i, -1)] != edges[k::-1]:
            faults.append(f"context units walked from atom boundary {i} are not tokenize's")
    return faults


def main() -> int:
    cases = int(sys.argv[1]) if len(sys.argv) > 1 else 2000
    seed = int(sys.argv[2], 0) if len(sys.argv) > 2 else 0x5EED
    rng = random.Random(seed)
    started = time.perf_counter()
    for case in range(cases):
        toks = [rng.choice(ALPHABET) for _ in range(rng.randrange(0, 200))]
        base = {"": "".join(toks)}
        target_toks = mutate(rng, toks)
        target = {"": "".join(target_toks)}
        steps = decompose(base, target)
        checks = {"round trip": apply_steps(base, steps)}
        for name, sides in (
            ("merge(B, B, X)", (base, target)),
            ("merge(B, X, B)", (target, base)),
            ("merge(B, X, X)", (target, target)),
        ):
            checks[name] = merge(base, *sides)
        failed = [name for name, out in checks.items() if not out.ok or out.result != target]
        d = levenshtein(base[""], target[""])
        gap = abs(len(base[""]) - len(target[""]))
        for k in (d - 1, d, gap):
            if levenshtein(base[""], target[""], limit=k) not in {min(d, k + 1), d}:
                failed.append(f"levenshtein limit={k}")
        if _bag_distance(*_bags([toks, target_toks])) > levenshtein(toks, target_toks):
            failed.append("bag distance over levenshtein")
        failed += atom_faults(base[""], target[""])
        raw = with_bytes(random.Random(f"{seed}:{case}"), target[""])
        failed += byte_faults(base[""], raw)
        if failed:
            print(f"FAIL at case {case}: {', '.join(failed)}")
            print("base   =", repr(base[""]))
            print("target =", repr(target[""]))
            print("bytes  =", repr(raw))
            return 1
        if case and case % 500 == 0:
            print(f"...{case} cases ok")
    elapsed = time.perf_counter() - started
    print(
        f"{cases} cases round-tripped byte-exactly, kept the merge laws, "
        f"bounded distances, bag bounds and atom invariants in {elapsed:.1f}s (seed {seed:#x})"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
