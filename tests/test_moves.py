import random

import pytest

from summer.align import BucketSet, dissect
from summer.moves import (
    MovePattern,
    _is_trivial,
    _longest_shared,
    apply_move,
    find_move,
    get_precise_move,
    match_pattern,
)
from summer.rules import WINDOW
from summer.tokens import Joined
from tests.conftest import (
    DELETION,
    EXTRACT_BASE,
    EXTRACT_CAPTURE_ON_RIGHT,
    EXTRACT_EXPECTED_MERGE,
    EXTRACT_LEFT,
    EXTRACT_RIGHT,
    EXTRACT_SHARED,
    INSERTION,
    SUBSTITUTION,
    atom_kind,
    core_atom,
    token_offsets,
)

INLINE_BASE = "def inc(): return x+1\n# uses\na = inc()\nb = inc()\nc = inc()\n"
INLINE_TARGET = "# uses\na = x+1\nb = x+1\nc = x+1\n"


@pytest.fixture
def extract_buckets() -> BucketSet:
    return BucketSet((dissect(EXTRACT_BASE, EXTRACT_LEFT, "content:a.java"),))


@pytest.fixture
def inline_buckets() -> BucketSet:
    return BucketSet((dissect(INLINE_BASE, INLINE_TARGET, "content:m.py"),))


class TestMatchPattern:
    def test_lazy_minimal_capture(self):
        text = "( aa bb ) tail ( cc ) x"
        pattern = MovePattern("(", ")")
        matches = match_pattern(Joined.of([text]), pattern)
        assert [text[c0:c1] for _, _, c0, c1 in matches] == [" aa bb ", " cc "]

    def test_capture_must_be_nonempty(self):
        assert match_pattern(Joined.of(["()"]), MovePattern("(", ")")) == []

    def test_anchors_respect_token_boundaries(self):
        # "public" inside "Republican" is not a prefix site.
        matches = match_pattern(
            Joined.of(["Republican public x end"]), MovePattern("public", "end")
        )
        assert len(matches) == 1
        assert matches[0][0] == len("Republican ")

    def test_anchorless_patterns_rejected(self):
        with pytest.raises(ValueError):
            match_pattern(Joined.of(["x"]), MovePattern("", "x"))


class TestFindLongestShared:
    def test_extraction_body(self, extract_buckets):
        bucket = extract_buckets.buckets[0]
        ins = next(a for a in bucket.atoms if atom_kind(a) == INSERTION)
        shared = _longest_shared(ins.rhs, extract_buckets, "lhs")
        assert shared is not None
        s, offset, occurrences = shared
        assert s == EXTRACT_SHARED
        assert ins.rhs[offset:].startswith(s)
        assert len(occurrences) == 1

    def test_no_deletion_or_substitution_edits(self):
        corpus = BucketSet((dissect("a\n", "a\nnew line of text\n", "t"),))
        bucket = corpus.buckets[0]
        ins = next(a for a in bucket.atoms if atom_kind(a) == INSERTION)
        assert _longest_shared(ins.rhs, corpus, "lhs") is None

    def test_no_common_tokens(self):
        corpus = BucketSet(
            (dissect("ab\n", "\n", "t1"), dissect("q\n", "q\nxy\n", "t2"))
        )
        bucket = corpus.buckets[1]
        ins = next(a for a in bucket.atoms if atom_kind(a) == INSERTION)
        assert _longest_shared(ins.rhs, corpus, "lhs") is None

    def test_trivial_candidates_rejected(self):
        # A shared bare symbol is too trivial to move.
        corpus = BucketSet((dissect("x ; y\n", "x y\n;\n", "t"),))
        bucket = corpus.buckets[0]
        for a in bucket.atoms:
            if atom_kind(a) == INSERTION:
                assert _longest_shared(a.rhs, corpus, "lhs") is None


def _reference_longest_shared(probe, buckets, side):
    """The probe as a walk from every atom of every bucket, identity runs
    included; an edit is an atom whose sides differ."""

    def qualifies(atom):
        return atom.lhs != atom.rhs and bool(getattr(atom, side))

    best, found = "", []
    for bidx, bucket in enumerate(buckets):
        if bucket.label.startswith("name:"):
            continue
        atoms = bucket.atoms
        for u, first in enumerate(atoms):
            if not qualifies(first):
                continue
            text = ""
            for v in range(u, len(atoms)):
                text += getattr(atoms[v], side)
                if len(text) > len(probe) or text not in probe:
                    break
                if not qualifies(atoms[v]):
                    continue
                if len(text) > len(best) and next(Joined.of([probe]).find(text), -1) >= 0:
                    best, found = text, []
                if text == best:
                    found.append((bidx, u, v + 1))
    if not best or _is_trivial(best):
        return None
    occurrences = []
    for o in found:
        if not occurrences or occurrences[-1][0] != o[0] or occurrences[-1][2] <= o[1]:
            occurrences.append(o)
    return best, next(Joined.of([probe]).find(best)), occurrences


_WORDS = ["a", "b", "x1", "foo", "(", ")", ";", " ", "  ", "="]


def _random_corpus(rng):
    """One to three dissections whose targets move, copy, drop and reword
    lines of their sources."""
    buckets = []
    for b in range(rng.randint(1, 3)):
        lines = [
            "".join(rng.choice(_WORDS) for _ in range(rng.randint(1, 6))) + "\n"
            for _ in range(rng.randint(1, 8))
        ]
        target = list(lines)
        for _ in range(rng.randint(1, 4)):
            op = rng.randrange(4)
            i = rng.randrange(len(target) + 1)
            if op == 0 and target:
                target.insert(i, target.pop(rng.randrange(len(target))))
            elif op == 1:
                target.insert(i, rng.choice(lines))
            elif op == 2 and target:
                del target[rng.randrange(len(target))]
            elif target:
                j = rng.randrange(len(target))
                target[j] = target[j].replace(rng.choice(_WORDS), rng.choice(_WORDS), 1)
        label = f"name:{b}" if rng.random() < 0.1 else f"content:{b}"
        buckets.append(dissect("".join(lines), "".join(target), label))
    return BucketSet(tuple(buckets))


class TestLongestShared:
    def test_matches_walk_over_every_atom(self):
        rng = random.Random(11)
        probes = shared = 0
        for _ in range(1000):
            buckets = _random_corpus(rng)
            for bucket in buckets:
                for atom in bucket.atoms:
                    for side, probe in (("lhs", atom.rhs), ("rhs", atom.lhs)):
                        if atom.lhs == atom.rhs or not probe:
                            continue
                        found = _longest_shared(probe, buckets, side)
                        assert found == _reference_longest_shared(probe, buckets, side)
                        probes += 1
                        shared += found is not None
        assert probes > 3000 and shared > 400

    @pytest.mark.parametrize("run", [200, 400])
    def test_probe_reads_no_identity_run(self, run):
        # A line moved across an identity run: the probe reads the atoms
        # around the two edits, not the run between them.
        body = "".join(f"line {i} = step({i});\n" for i in range(run))
        moved = "moved(x, y);\n"
        buckets = BucketSet((dissect(moved + body, body + moved, "content:m"),))
        bucket = buckets[0]
        reads = []

        class Counted(tuple):
            def __getitem__(self, i):
                reads.append(i)
                return tuple.__getitem__(self, i)

            def __iter__(self):
                for i in range(len(self)):
                    yield self[i]

        assert len(bucket.cores) == 2
        bucket.__dict__["atoms"] = Counted(bucket.atoms)
        found = _longest_shared(moved, buckets, "lhs")
        assert len(reads) <= 4
        assert found == (moved, 0, [(0, 0, 1)])


class TestFindExtract:
    def test_flagship_extraction(self, extract_buckets):
        pool = {}
        core = core_atom(extract_buckets, 0, INSERTION)
        find_move(extract_buckets, 0, core, pool, WINDOW)
        assert len(pool) == 1
        (move,) = pool
        a, c = move.antecedent, move.consequent
        assert a.lhs == MovePattern("\n\t\t", "\n\t\tListeners")
        assert a.rhs == "\n\t\trunCheck(obj);\n\t\tListeners"
        assert c.lhs == "\n\n"
        assert c.rhs == MovePattern(
            "\n\n\n\tpublic void runCheck(O obj) {\n\t\t", "\n\t}\n"
        )
        assert (move.metrics.tp, move.metrics.fp) == (2, 0)

    def test_metrics_are_component_sums(self, extract_buckets):
        moves = get_precise_move(extract_buckets, WINDOW)
        assert moves and moves[0].metrics.tp == 2

    def test_insertion_without_source_elsewhere(self):
        corpus = BucketSet((dissect("a\nb\n", "a\nfresh new text\nb\n", "t"),))
        pool = {}
        find_move(corpus, 0, core_atom(corpus, 0, INSERTION), pool, WINDOW)
        assert pool == {}

    def test_wrong_kind_rejected(self, extract_buckets):
        identity = core_atom(extract_buckets, 0, None)
        with pytest.raises(ValueError):
            find_move(extract_buckets, 0, identity, {}, WINDOW)
        substituted = BucketSet((dissect("a x b\n", "a y b\n", "t"),))
        core = core_atom(substituted, 0, SUBSTITUTION)
        with pytest.raises(ValueError):
            find_move(substituted, 0, core, {}, WINDOW)

    def test_two_site_extraction(self, monkeypatch):
        # Both call sites share their bracketing context, so one antecedent
        # must cover them; the block definition lands once at the top.
        base = (
            "void f() {\n\tstep one();\n\tstep two();\n\tfinish();\n}\n"
            "void g() {\n\tstep one();\n\tstep two();\n\tfinish();\n}\n"
        )
        left = (
            "void helper() {\n\tstep one();\n\tstep two();\n}\n"
            "void f() {\n\thelper();\n\tfinish();\n}\n"
            "void g() {\n\thelper();\n\tfinish();\n}\n"
        )
        corpus = BucketSet((dissect(base, left, "t"),))
        moves = get_precise_move(corpus, 3)
        assert moves
        app = apply_move({"": base}, moves[0])
        assert len(app.antecedent_sites) == 2
        assert app.texts[""] == left
        # Through the engine: move retained, byte-exact round trip. The move
        # pass runs at the start window only, and needs 3 here.
        from summer.engine import apply_steps, decompose

        monkeypatch.setattr("summer.engine.WINDOW", 3)
        steps = decompose({"": base}, {"": left})
        assert moves[0] in steps
        out = apply_steps({"": base}, steps)
        assert out.ok and out.result == {"": left}


class TestFindInline:
    def test_flagship_inline(self, inline_buckets):
        moves = get_precise_move(inline_buckets, WINDOW)
        assert len(moves) == 1
        move = moves[0]
        assert move.antecedent.lhs.literal_prefix == "def inc(): return "
        app = apply_move({"": INLINE_BASE}, move)
        assert app.captures == ["x+1"]
        assert len(app.consequent_sites) == 3
        assert app.texts[""] == INLINE_TARGET

    def test_deletion_without_shared_substring(self):
        corpus = BucketSet((dissect("a\nsolitary line\n", "a\n", "t"),))
        pool = {}
        find_move(corpus, 0, core_atom(corpus, 0, DELETION), pool, WINDOW)
        assert pool == {}

    def test_wrong_kind_rejected(self, inline_buckets):
        with pytest.raises(ValueError):
            find_move(inline_buckets, 0, core_atom(inline_buckets, 0, None), {}, WINDOW)


class TestGetPreciseMove:
    def test_substitution_only_buckets(self):
        corpus = BucketSet((dissect("a x b\n", "a y b\n", "t"),))
        assert get_precise_move(corpus, WINDOW) == []

    def test_novel_insertion_only(self):
        corpus = BucketSet((dissect("a\n", "a\nbrand new words\n", "t"),))
        assert get_precise_move(corpus, WINDOW) == []

    def test_extract_and_inline_probes_share_region_once(self, extract_buckets):
        # The deletion inside the call-site block also probes for an inline
        # move; overlap claiming keeps exactly one move for the region.
        moves = get_precise_move(extract_buckets, WINDOW)
        assert len(moves) == 1

    def test_name_buckets_ignored(self):
        corpus = BucketSet((dissect("bc.go", "Program.go", "name:bc.go"),))
        assert get_precise_move(corpus, WINDOW) == []


class TestMoveApplication:
    def test_adaptation_to_local_wording(self, extract_buckets):
        moves = get_precise_move(extract_buckets, WINDOW)
        app = apply_move({"": EXTRACT_RIGHT}, moves[0])
        assert app.captures == [EXTRACT_CAPTURE_ON_RIGHT]
        assert app.texts[""] == EXTRACT_EXPECTED_MERGE
        assert not app.soft_conflict

    def test_capture_is_token_minimal(self, extract_buckets):
        moves = get_precise_move(extract_buckets, WINDOW)
        pattern = moves[0].antecedent.lhs
        bounds = token_offsets(EXTRACT_RIGHT)
        (start, end, c0, c1), = match_pattern(Joined.of([EXTRACT_RIGHT]), pattern)
        assert c0 in bounds and c1 in bounds
        # No shorter boundary-to-boundary capture completes the pattern.
        suffix = pattern.literal_suffix
        for q in range(c0 + 1, c1):
            if q in bounds:
                assert not EXTRACT_RIGHT.startswith(suffix, q)

    def test_soft_conflict_on_differing_captures(self):
        move_corpus = BucketSet(
            (dissect("( one )\n( one )\nend\n", "[]\n[]\nend\n( one )\n", "t"),)
        )
        # Hand-built move: capture bracketed text at two sites with differing
        # content; the first capture feeds the backreference.
        from summer.moves import Antecedent, Consequent, MoveRule

        move = MoveRule(
            Antecedent(MovePattern("(", ")"), "[]"),
            Consequent("end", MovePattern("end (", ")")),
        )
        app = apply_move({"": "( one )\n( two )\nend"}, move)
        assert app.soft_conflict
        assert app.captures[0] == " one "
        assert app.texts[""] == "[]\n[]\nend ( one )"
