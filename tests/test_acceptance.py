"""Acceptance criteria, one test per criterion.

Each test prints a PASS line on success (visible with ``pytest -s`` or in
the captured output section); tolerances are pinned in the assertions.
Criterion 10 deliberately does not reproduce any external benchmark's
headline numbers: the bundled corpus is desk scale, and the round-trip,
precision, alignment, and boundary properties stand in for them.
"""

from __future__ import annotations

import random
import sys
import time

import pytest

from summer.align import BucketSet, dissect
from summer.bench import normalize, run_benchmark
from summer.engine import (
    Conflict,
    DirectionReason,
    Side,
    apply_steps,
    decompose,
    determine_direction,
    merge,
)
from summer.moves import MoveRule, apply_move
from summer.rules import (
    RewriteRule,
    classification_metrics,
    decompose_rewrites_trace,
)
from summer.tokens import tokenize
from tests.conftest import (
    EXTRACT_BASE,
    EXTRACT_CAPTURE_ON_RIGHT,
    EXTRACT_EXPECTED_MERGE,
    EXTRACT_LEFT,
    EXTRACT_RIGHT,
    EXTRACT_RIGHT_AFTER_MOVE,
)
from tests.test_bench import CORPUS, SUMMER_TOOL


def ok(criterion: int, message: str) -> None:
    print(f"ACCEPTANCE {criterion:>2} PASS: {message}", file=sys.stderr)


# --- independent reference scorer (used by criterion 6) ----------------------

def _ref_boundaries(s: str) -> set[int]:
    bounds = {0, len(s)}
    for tok in tokenize(s).tokens:
        bounds.add(tok.offset)
        bounds.add(tok.end)
    return bounds


def _ref_occurrences(source: str, needle: str) -> list[int]:
    bounds = _ref_boundaries(source)
    out: list[int] = []
    i = 0
    while i <= len(source) - len(needle):
        if source.startswith(needle, i) and i in bounds and (i + len(needle)) in bounds:
            out.append(i)
            i += len(needle)
        else:
            i += 1
    return out


def _ref_projection(bucket, offset: int) -> set[int]:
    opts: set[int] = set()
    for a in bucket.atoms:
        s0, s1 = a.lhs_start, a.lhs_start + len(a.lhs)
        t0, t1 = a.rhs_start, a.rhs_start + len(a.rhs)
        if s0 == offset:
            opts.add(t0)
        if s1 == offset:
            opts.add(t1)
        if a.lhs == a.rhs and s0 < offset < s1:
            opts.add(t0 + (offset - s0))
    if offset == 0:
        opts.add(0)
    if offset == len(bucket.source):
        opts.add(len(bucket.target))
    return opts


def reference_precision(rule: RewriteRule, buckets: BucketSet) -> float:
    tp = fp = 0
    for bucket in buckets:
        target = bucket.target
        for start in _ref_occurrences(bucket.source, rule.lhs):
            end = start + len(rule.lhs)
            t1s = _ref_projection(bucket, start)
            t2s = _ref_projection(bucket, end)
            if any(
                t1 <= t2 and target[t1:t2] == rule.rhs for t1 in t1s for t2 in t2s
            ):
                tp += 1
            else:
                fp += 1
    return tp / (tp + fp) if tp + fp else 0.0


# --- shared fuzz machinery ----------------------------------------------------

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
        else:  # block move
            i = rng.randrange(len(t))
            j = min(len(t), i + rng.randrange(1, 10))
            block = t[i:j]
            del t[i:j]
            k = rng.randrange(len(t) + 1)
            t[k:k] = block
    return t


def fuzz_pair(rng: random.Random, max_tokens: int = 200) -> tuple[str, str]:
    base_tokens = [rng.choice(ALPHABET) for _ in range(rng.randrange(0, max_tokens))]
    return "".join(base_tokens), "".join(mutate(rng, base_tokens))


# --- criteria ------------------------------------------------------------------

def test_criterion_01_one_token_merge_end_to_end():
    base = {"a": "i++", "b": "Foo"}
    left = {"a": "i--", "b": "Foo"}
    right = {"a": "i+=1", "b": "Bar"}
    merge(base, left, right)  # warm caches; timing covers the call itself
    t0 = time.perf_counter()
    outcome = merge(base, left, right)
    elapsed_ms = (time.perf_counter() - t0) * 1000
    assert outcome.ok
    assert outcome.result == {"a": "i-=1", "b": "Bar"}
    assert elapsed_ms < 50
    ok(1, f"merge produced {{i-=1, Bar}} exactly in {elapsed_ms:.1f} ms")


def test_criterion_02_tokenization_golden():
    got = [t.text for t in tokenize("n=0xFF_0f").tokens]
    assert got == ["n", "=", "0", "xFF", "_", "0", "f"]
    ok(2, "tokenize('n=0xFF_0f') == [n, =, 0, xFF, _, 0, f]")


def test_criterion_03_rule_metrics_goldens(rename_corpus):
    cases = [
        ("github", "gitlab", 2, 0),
        ("bc.", "Program.", 1, 0),
        ("\n", '\nimport "fmt"\n', 1, 6),
        ("func", 'import "fmt"\nfunc', 1, 0),
    ]
    for lhs, rhs, tp, fp in cases:
        got = classification_metrics(RewriteRule(lhs, rhs), rename_corpus)
        assert (got.tp, got.fp) == (tp, fp), (lhs, rhs, got)
    ok(3, "all four documented (tp, fp) pairs hold exactly on the pinned corpus")


def test_criterion_04_move_rule_golden():
    steps = decompose({"": EXTRACT_BASE}, {"": EXTRACT_LEFT})
    moves = [s for s in steps if isinstance(s, MoveRule)]
    assert len(moves) == 1
    move = moves[0]
    app = apply_move({"": EXTRACT_RIGHT}, move)
    assert app.captures == [EXTRACT_CAPTURE_ON_RIGHT]
    assert app.texts[""] == EXTRACT_RIGHT_AFTER_MOVE
    outcome = apply_steps({"": EXTRACT_RIGHT}, steps)
    assert outcome.ok
    assert outcome.result == {"": EXTRACT_EXPECTED_MERGE}
    assert "runCheck" in outcome.result[""]
    assert "obj.notNull();\n\t\tobj.validate();" in outcome.result[""]
    ok(4, "move step reproduces the pinned post-move text and final merge exactly")


def test_criterion_05_and_08_round_trip_and_boundaries():
    rng = random.Random(0x5EED)
    cases = 1000
    timed = 0.0
    audited_sites = 0
    for case in range(cases):
        base_s, target_s = fuzz_pair(rng)
        base = {"": base_s}
        target = {"": target_s}
        t0 = time.perf_counter()
        steps = decompose(base, target)
        outcome = apply_steps(base, steps)
        timed += time.perf_counter() - t0
        assert outcome.ok, (case, base_s, target_s)
        assert outcome.result == target, (case, base_s, target_s)
        # Criterion 8: audit recorded sites against pre-step boundaries.
        state = base
        for step in steps:
            bounds = {p: _ref_boundaries(t) for p, t in state.items()}
            stepped = apply_steps(state, [step])
            for applied in stepped.applied_steps:
                for site in applied.sites:
                    if site.role in ("content", "antecedent"):
                        assert site.start in bounds[site.path]
                        assert site.end in bounds[site.path]
                        audited_sites += 1
            state = stepped.result
    assert timed < 60.0
    ok(5, f"{cases} fuzz cases round-tripped byte-exactly in {timed:.1f} s")
    outcome = apply_steps(
        {"": "public class Republican"}, [RewriteRule("public", "private")]
    )
    assert outcome.result == {"": "private class Republican"}
    ok(8, f"{audited_sites} recorded sites respected token boundaries; "
          "Republican left untouched")


def test_criterion_06_precision_property():
    rng = random.Random(0xBEEF)
    checked = 0
    for _ in range(1000):
        base_s, target_s = fuzz_pair(rng, max_tokens=120)
        buckets = BucketSet((dissect(base_s, target_s, "t"),))
        _, trace = decompose_rewrites_trace(buckets)
        for round_trace in trace:
            for rule, _metrics in round_trace.ranked:
                assert reference_precision(rule, round_trace.buckets) > 0.5, rule
                checked += 1
    ok(6, f"{checked} retained rules recomputed above precision 0.5 "
          "under the reference scorer")


def test_criterion_07_alignment_oracle():
    from summer.distance import _alignment

    def oracle(a, b):
        prev = list(range(len(b) + 1))
        for i, x in enumerate(a, 1):
            cur = [i] + [0] * len(b)
            for j, y in enumerate(b, 1):
                cur[j] = min(
                    prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (0 if x == y else 1)
                )
            prev = cur
        return prev[-1]

    def cost(parts):
        # Each part is one token pair, one token, or an identity.
        return sum(lhs != rhs for lhs, rhs in parts)

    rng = random.Random(0xA11E)
    for _ in range(500):
        a = "".join(rng.choice(ALPHABET) for _ in range(rng.randrange(0, 50)))
        b = "".join(rng.choice(ALPHABET) for _ in range(rng.randrange(0, 50)))
        a_toks = [t.text for t in tokenize(a).tokens]
        b_toks = [t.text for t in tokenize(b).tokens]
        assert cost(_alignment(a_toks, b_toks)) == oracle(a_toks, b_toks)
    ok(7, "500 random pairs aligned at exactly the oracle's Levenshtein cost")


def test_criterion_09_direction_rules():
    base = {"F": "x\n", "G": "y\n"}
    forced = determine_direction(base, {"G": "y\n"}, {"F": "x!\n", "G": "y\n"})
    assert forced.decomposed_side is Side.LEFT
    assert forced.reason is DirectionReason.DELETION_FORCED

    cross = determine_direction(
        {"A": "a\n", "B": "b\n"}, {"B": "b!\n"}, {"A": "a!\n"}
    )
    assert isinstance(cross, Conflict)

    distance = determine_direction(
        {"a": "i++", "b": "Foo"}, {"a": "i--", "b": "Foo"}, {"a": "i+=1", "b": "Bar"}
    )
    assert distance.decomposed_side is Side.LEFT
    assert distance.reason is DirectionReason.DISTANCE
    ok(9, "deletion-forced, cross-delete conflict, and distance fixtures agree")


def test_criterion_10_benchmark_protocol():
    rng = random.Random(0x10)
    for _ in range(1000):
        text = "".join(rng.choice(ALPHABET) for _ in range(rng.randrange(0, 120)))
        kind = rng.choice(["java", "other"])
        once = normalize(text, kind)
        assert normalize(once, kind) == once
    verdicts, rep = run_benchmark(CORPUS, SUMMER_TOOL, timeout=120)
    assert len(verdicts) == 12
    kinds = [row["kind"] for row in rep.rows]
    assert kinds == ["java", "other", "overall"]
    for row in rep.rows:
        assert row["literal_accuracy"].endswith("%")
        assert row["total"] == (
            row["literal_matches"] + row["mismatches"] + row["conflicts"] + row["errors"]
        )
    ok(10, "normalize idempotent on 1000 texts; bundled corpus produced the "
           "accuracy table (external headline numbers intentionally out of scope)")


def test_criterion_11_performance_sanity():
    lines = [f"name{i} = value{i};\n" for i in range(1112)]
    base = "".join(lines)
    assert len(tokenize(base).tokens) >= 10000
    changed = list(lines)
    for k in range(50):
        idx = (k * 22 + 3) % len(lines)
        changed[idx] = f"name{idx} = patched{idx};\n"
    target = "".join(changed)
    t0 = time.perf_counter()
    steps = decompose({"": base}, {"": target})
    elapsed = time.perf_counter() - t0
    outcome = apply_steps({"": base}, steps)
    assert outcome.ok and outcome.result == {"": target}
    assert elapsed < 5.0
    ok(11, f"10k-token decompose with 50 scattered edits took {elapsed:.2f} s")
