"""Pinned step documents: decompose and merge output must stay byte-identical.

Every case hashes what the engine produces for a fixed input: the step
document of each corpus scenario's left and right decomposition, the merge
outcome of each scenario, seeded random-token cases built with the
generator in tests/test_engine.py, and perfbench's generated workloads: the
line diff of a ladder case at two sizes, and the pairing and merge of tree
cases. A change that alters any of them on
purpose regenerates the pins with

    PYTHONPATH=src python tests/test_step_digests.py --write

and says so in its change notes.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "perfbench"))

import tests.test_engine as engine_tests  # noqa: E402
import workloads  # noqa: E402
from summer.align import line_diff  # noqa: E402
from summer.bench import load_manifest  # noqa: E402
from summer.engine import decompose, merge, pair_entries  # noqa: E402
from summer.stepio import serialize_steps  # noqa: E402
from summer.tokens import tokenize  # noqa: E402

DIGESTS = os.path.join(HERE, "step_digests.json")
CORPUS = os.path.join(HERE, "..", "corpus", "manifest.json")
RANDOM_CASES = 200
ENTRY_SET_CASES = 40
RANDOM_MERGES = 60
LADDER_FACTORS = (1, 8)  # multiples of workloads.LADDER_LINES
TREE_CASES = 3


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8", "surrogatepass")).hexdigest()


def _read(path: str) -> str:
    with open(path, "rb") as fh:
        return fh.read().decode("utf-8")


def _steps_doc(base: dict[str, str], changed: dict[str, str]) -> str:
    return serialize_steps(decompose(base, changed))


def _merge_repr(base: dict[str, str], left: dict[str, str], right: dict[str, str]) -> str:
    out = merge(base, left, right)
    return repr((out.ok, out.result))


def _cases():
    """Yield (case name, text to hash) for every pinned case."""
    for s in load_manifest(CORPUS):
        base, left, right = ({"": _read(p)} for p in (s.base, s.left, s.right))
        yield f"corpus/{s.id}/decompose-left", _steps_doc(base, left)
        yield f"corpus/{s.id}/decompose-right", _steps_doc(base, right)
        yield f"corpus/{s.id}/merge", _merge_repr(base, left, right)

    gen = engine_tests.TestRoundTripProperty()
    alphabet = gen.ALPHABET
    for seed in range(RANDOM_CASES):
        rng = random.Random(seed)
        toks = [rng.choice(alphabet) for _ in range(rng.randrange(0, 120))]
        base = {"": "".join(toks)}
        target = {"": "".join(gen.mutate(rng, toks))}
        yield f"random/{seed}", _steps_doc(base, target)

    names_pool = ["src/a.txt", "src/b.py", "lib/util.go", "notes.md"]
    for seed in range(ENTRY_SET_CASES):
        rng = random.Random(10_000 + seed)
        names = rng.sample(names_pool, rng.randrange(1, 4))
        base = {
            nm: "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 60)))
            for nm in names
        }
        target = {}
        for nm in names:
            toks = [t.text for t in tokenize(base[nm]).tokens]
            content = "".join(gen.mutate(rng, toks))
            roll = rng.random()
            if roll < 0.15:
                continue
            target[nm if roll > 0.35 else "moved/" + nm] = content
        yield f"entries/{seed}", _steps_doc(base, target)

    for seed in range(RANDOM_MERGES):
        rng = random.Random(20_000 + seed)
        toks = [rng.choice(alphabet) for _ in range(rng.randrange(1, 80))]
        base = {"": "".join(toks)}
        left = {"": "".join(gen.mutate(rng, toks))}
        right = {"": "".join(gen.mutate(rng, toks))}
        yield f"merge/{seed}", _merge_repr(base, left, right)

    lines = workloads.LADDER_LINES
    words = workloads.spelling(workloads.CHECK_SEED, 0, 2)
    try:
        for factor in LADDER_FACTORS:
            workloads.LADDER_LINES = lines * factor
            base, left, right, _ref = workloads.ladder_case(3, words)
            yield f"ladder/3x{factor}/line_diff", repr(line_diff(base, left))
            if factor == 1:
                yield "ladder/3x1/decompose-left", _steps_doc({"": base}, {"": left})
                yield "ladder/3x1/decompose-right", _steps_doc({"": base}, {"": right})
    finally:
        workloads.LADDER_LINES = lines

    words = workloads.spelling(workloads.CHECK_SEED, 0, 6)
    for case in range(TREE_CASES):
        base, left, right, _ref = workloads.tree_case(case, words)
        yield f"tree/{case}/pair_entries", repr(tuple(pair_entries(base, left)))
        yield f"tree/{case}/decompose-left", _steps_doc(base, left)
        yield f"tree/{case}/decompose-right", _steps_doc(base, right)
        yield f"tree/{case}/merge", _merge_repr(base, left, right)


def compute_digests() -> dict[str, str]:
    return {name: _sha(text) for name, text in _cases()}


def test_step_documents_unchanged():
    with open(DIGESTS, encoding="utf-8") as fh:
        pinned = json.load(fh)
    got = compute_digests()
    changed = sorted(n for n in pinned.keys() & got.keys() if pinned[n] != got[n])
    missing = sorted(pinned.keys() - got.keys())
    extra = sorted(got.keys() - pinned.keys())
    assert not (changed or missing or extra), (
        f"step documents changed for {len(changed)} case(s): {changed}; "
        f"pinned but not produced: {missing}; produced but not pinned: {extra}"
    )


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_step_digests.py --write")
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(compute_digests(), fh, indent=1, sort_keys=True)
        fh.write("\n")
