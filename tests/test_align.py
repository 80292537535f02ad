import hypothesis.strategies as st
from hypothesis import given, settings

from summer.align import (
    Bucket,
    BucketSet,
    EditKind,
    _best_anchor,
    align_tokens,
    dissect,
    line_diff,
    split_lines,
)
from summer.tokens import tokenize
from tests.conftest import RENAME_CONTENT_SRC, RENAME_CONTENT_TGT


def shapes(instances):
    return [(e.kind, e.lhs, e.rhs) for e in instances]


class TestSplitLines:
    def test_basic(self):
        assert split_lines("a\nb\n") == ["a\n", "b\n"]
        assert split_lines("a\nb") == ["a\n", "b"]
        assert split_lines("") == []
        assert split_lines("\n") == ["\n"]

    def test_carriage_return_is_content(self):
        assert split_lines("a\r\nb") == ["a\r\n", "b"]

    @given(st.text(max_size=120))
    def test_partition(self, s):
        assert "".join(split_lines(s)) == s


class TestLineDiff:
    def test_identical_inputs_have_no_change_blocks(self):
        ops = line_diff("a\nb\n", "a\nb\n")
        assert [op[0] for op in ops] == ["equal"]

    def test_single_block(self):
        ops = line_diff("a\nb\n", "a\nc\n")
        assert [op[0] for op in ops] == ["equal", "replace"]

    def test_rename_content_pair_blocks(self):
        ops = line_diff(RENAME_CONTENT_SRC, RENAME_CONTENT_TGT)
        tags = [op[0] for op in ops]
        assert tags == ["replace", "equal", "replace", "equal"]

    def test_pure_insert_and_delete(self):
        assert [op[0] for op in line_diff("a\n", "a\nb\n")] == ["equal", "insert"]
        assert [op[0] for op in line_diff("a\nb\n", "a\n")] == ["equal", "delete"]

    @given(st.lists(st.sampled_from(["a\n", "b\n", "c\n", "dd\n"]), max_size=14),
           st.lists(st.sampled_from(["a\n", "b\n", "c\n", "dd\n"]), max_size=14))
    def test_opcode_script_is_valid(self, a_lines, b_lines):
        a = "".join(a_lines)
        b = "".join(b_lines)
        ops = line_diff(a, b)
        la, lb = split_lines(a), split_lines(b)
        pa = pb = 0
        for tag, a0, a1, b0, b1 in ops:
            assert (a0, b0) == (pa, pb)
            assert a0 <= a1 and b0 <= b1
            if tag == "equal":
                assert la[a0:a1] == lb[b0:b1] and a1 > a0
            elif tag == "delete":
                assert a1 > a0 and b1 == b0
            elif tag == "insert":
                assert b1 > b0 and a1 == a0
            else:
                assert a1 > a0 and b1 > b0
            pa, pb = a1, b1
        assert (pa, pb) == (len(la), len(lb))


def pairwise_anchor(a, alo, ahi, b, blo, bhi):
    """Reference anchor search: enumerate the occurrence pairs of the rarest
    common lines, taken in order of first occurrence in a, 256 pairs at
    most, and keep the least (rarity, j, i); then extend the run."""
    count_a: dict[str, int] = {}
    pos_a: dict[str, list[int]] = {}
    for i in range(alo, ahi):
        count_a[a[i]] = count_a.get(a[i], 0) + 1
        pos_a.setdefault(a[i], []).append(i)
    count_b: dict[str, int] = {}
    pos_b: dict[str, list[int]] = {}
    for j in range(blo, bhi):
        count_b[b[j]] = count_b.get(b[j], 0) + 1
        pos_b.setdefault(b[j], []).append(j)
    common = [ln for ln in count_a if ln in count_b]
    if not common:
        return None
    common.sort(key=lambda ln: count_a[ln] + count_b[ln])
    rarest = count_a[common[0]] + count_b[common[0]]
    best = None
    budget = 256
    for ln in common:
        rarity = count_a[ln] + count_b[ln]
        if rarity > rarest:
            break
        for i in pos_a[ln]:
            for j in pos_b[ln]:
                key = (rarity, j, i)
                if best is None or key < best:
                    best = key
                budget -= 1
                if budget <= 0:
                    break
            if budget <= 0:
                break
        if budget <= 0:
            break
    _, j, i = best
    n = 1
    while i + n < ahi and j + n < bhi and a[i + n] == b[j + n]:
        n += 1
    return i, j, n


@st.composite
def repetitive_line_lists(draw):
    """Two line lists over 1 to 6 distinct lines, so that lines repeat and
    the 256-pair anchor budget is crossed. Half the draws hold every line
    equally often on each side, so that all lines tie on rarity."""
    lines = [f"l{c}\n" for c in range(draw(st.integers(1, 6)))]
    if draw(st.booleans()):
        return [
            draw(st.permutations(lines * draw(st.integers(0, 80 // len(lines)))))
            for _ in range(2)
        ]
    return [draw(st.lists(st.sampled_from(lines), max_size=80)) for _ in range(2)]


class TestRepetitiveLines:
    @given(repetitive_line_lists())
    @settings(max_examples=300)
    def test_ops_tile_and_alternate(self, lists):
        la, lb = lists
        ops = line_diff("".join(la), "".join(lb))
        pa = pb = 0
        for tag, a0, a1, b0, b1 in ops:
            assert (a0, b0) == (pa, pb) and (a0 < a1 or b0 < b1)
            if tag == "equal":
                assert la[a0:a1] == lb[b0:b1]
            pa, pb = a1, b1
        assert (pa, pb) == (len(la), len(lb))
        for prev, op in zip(ops, ops[1:]):
            assert (prev[0] == "equal") != (op[0] == "equal")

    @given(repetitive_line_lists())
    @settings(max_examples=300)
    def test_anchor_matches_pair_enumeration(self, lists):
        la, lb = lists
        assert _best_anchor(la, 0, len(la), lb, 0, len(lb)) == pairwise_anchor(
            la, 0, len(la), lb, 0, len(lb)
        )


class TestAlignTokens:
    def test_file_rename(self):
        assert shapes(align_tokens("bc.go", "Program.go")) == [
            (EditKind.SUBSTITUTION, "bc", "Program"),
            (EditKind.IDENTITY, ".go", ".go"),
        ]

    def test_equal_sequences_collapse_to_one_identity(self):
        assert shapes(align_tokens("a b", "a b")) == [(EditKind.IDENTITY, "a b", "a b")]

    def test_substitutions_stay_per_token(self):
        # One instance per modified token, so single-symbol rules can form.
        assert shapes(align_tokens("i++", "i--")) == [
            (EditKind.IDENTITY, "i", "i"),
            (EditKind.SUBSTITUTION, "+", "-"),
            (EditKind.SUBSTITUTION, "+", "-"),
        ]

    def test_insertion_run_coalesces(self):
        got = align_tokens("a z", "a b c z")
        assert (EditKind.INSERTION, "", "b c ") in [(e.kind, e.lhs, e.rhs) for e in got] or any(
            e.kind is EditKind.INSERTION and "b" in e.rhs and "c" in e.rhs for e in got
        )

    def levenshtein_oracle(self, a, b):
        prev = list(range(len(b) + 1))
        for i, x in enumerate(a, 1):
            cur = [i] + [0] * len(b)
            for j, y in enumerate(b, 1):
                cur[j] = min(
                    prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (0 if x == y else 1)
                )
            prev = cur
        return prev[-1]

    def cost(self, instances):
        total = 0
        for e in instances:
            if e.kind is EditKind.IDENTITY:
                continue
            if e.kind is EditKind.SUBSTITUTION:
                total += 1
            elif e.kind is EditKind.INSERTION:
                total += len(tokenize(e.rhs).tokens)
            else:
                total += len(tokenize(e.lhs).tokens)
        return total

    @given(
        st.text(alphabet="ab+ \n1", max_size=24),
        st.text(alphabet="ab+ \n1", max_size=24),
    )
    @settings(max_examples=150)
    def test_cost_is_optimal(self, x, y):
        xs = [t.text for t in tokenize(x).tokens]
        ys = [t.text for t in tokenize(y).tokens]
        got = align_tokens(x, y)
        assert self.cost(got) == self.levenshtein_oracle(xs, ys)


class TestDissect:
    def test_rename_content_bucket_structure(self):
        bucket = dissect(RENAME_CONTENT_SRC, RENAME_CONTENT_TGT, "content")
        kinds = [e.kind for e in bucket.edits]
        assert kinds == [
            EditKind.IDENTITY,
            EditKind.SUBSTITUTION,
            EditKind.IDENTITY,
            EditKind.INSERTION,
            EditKind.IDENTITY,
            EditKind.SUBSTITUTION,
            EditKind.IDENTITY,
            EditKind.SUBSTITUTION,
            EditKind.IDENTITY,
        ]
        assert bucket.edits[1].lhs == "github" and bucket.edits[1].rhs == "gitlab"
        assert bucket.edits[3].rhs == 'import "fmt"\n'
        assert bucket.edits[5].lhs == "div" and bucket.edits[5].rhs == "res"

    def test_identical_pair(self):
        bucket = dissect("same\n", "same\n", "t")
        assert shapes(bucket.edits) == [(EditKind.IDENTITY, "same\n", "same\n")]

    def test_empty_to_content(self):
        bucket = dissect("", "x", "t")
        assert shapes(bucket.edits) == [(EditKind.INSERTION, "", "x")]

    def test_both_empty(self):
        assert dissect("", "", "t").edits == ()

    def test_spans_cover_both_sides(self):
        bucket = dissect(RENAME_CONTENT_SRC, RENAME_CONTENT_TGT, "t")
        lo = ro = 0
        for e in bucket.edits:
            assert e.lhs_span == (lo, lo + len(e.lhs))
            assert e.rhs_span == (ro, ro + len(e.rhs))
            lo += len(e.lhs)
            ro += len(e.rhs)
        assert lo == len(RENAME_CONTENT_SRC) and ro == len(RENAME_CONTENT_TGT)

    @given(st.text(max_size=120), st.text(max_size=120))
    @settings(max_examples=200)
    def test_reconstruction(self, source, target):
        bucket = dissect(source, target, "t")
        assert bucket.source == source
        assert bucket.target == target
        for e in bucket.edits:
            if e.kind is EditKind.IDENTITY:
                assert e.lhs == e.rhs

    @given(st.text(max_size=80), st.text(max_size=80))
    @settings(max_examples=60)
    def test_determinism(self, source, target):
        a = dissect(source, target, "t")
        b = dissect(source, target, "t")
        assert shapes(a.edits) == shapes(b.edits)


def atom_offsets(bucket: Bucket, p: int) -> list[int] | None:
    """Reference projection over token-level atoms, scanned linearly: every
    atom start at p (the end of the source included), else the linear image
    of p inside an identity token, else None."""
    atoms = []  # (lhs start, lhs end, rhs start, identity)
    for e in bucket.edits:
        (l0, l1), r0 = e.lhs_span, e.rhs_span[0]
        if e.kind is EditKind.IDENTITY:
            for t in tokenize(e.lhs).tokens:
                atoms.append((l0 + t.offset, l0 + t.end, r0 + t.offset, True))
        else:
            atoms.append((l0, l1, r0, False))
    atoms.append((len(bucket.source), len(bucket.source), len(bucket.target), False))
    at = [r0 for l0, _, r0, _ in atoms if l0 == p]
    inside = [r0 + p - l0 for l0, l1, r0, identity in atoms if identity and l0 < p < l1]
    return at or inside or None


class TestTargetOffsets:
    @given(st.text("ab (x)1\n", max_size=60), st.text("ab (x)1\n", max_size=60))
    @settings(max_examples=300)
    def test_matches_atom_projection(self, source, target):
        bucket = dissect(source, target, "t")
        for p in range(-1, len(source) + 2):
            assert bucket.target_offsets(p) == atom_offsets(bucket, p)

    def test_insertion_at_boundary_offers_both_ends(self):
        bucket = dissect("a b", "a X b", "t")
        p = bucket.source.index("b")
        assert bucket.target_offsets(p) == [2, 4]
        assert bucket.agrees(p, p + 1, "X b") and bucket.agrees(p, p + 1, "b")


class TestBucketSet:
    def test_unique_labels_enforced(self):
        import pytest

        b = dissect("a", "b", "x")
        with pytest.raises(ValueError):
            BucketSet((b, dissect("c", "d", "x")))
