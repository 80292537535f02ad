import os
import sys
import tracemalloc
from itertools import islice

import hypothesis.strategies as st
from hypothesis import example, given, settings

import summer.align as align
from summer.align import (
    Atom,
    Bucket,
    BucketSet,
    _best_anchor,
    _index,
    dissect,
    line_diff,
    split_lines,
)
from summer.distance import _alignment
from summer.rules import FIXUP_ROUNDS, WINDOW, RewriteRule, _unique_anchor_rule
from summer.tokens import _token_texts, tokenize
from tests.conftest import (
    DELETION,
    INSERTION,
    RENAME_CONTENT_SRC,
    RENAME_CONTENT_TGT,
    SUBSTITUTION,
    atom_kind,
)


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
    most, and keep the least (rarity, j, i): the anchor is (i, j)."""
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
    return i, j


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


@st.composite
def mostly_unique_line_lists(draw):
    """Two line lists of mostly distinct lines, a few of them repeated, so
    that most anchors are read off the per-diff index."""
    def side():
        lines = [f"u{k}\n" for k in draw(st.lists(st.integers(0, 40), unique=True, max_size=40))]
        for _ in range(draw(st.integers(0, 3))):
            lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(["d\n", "u0\n"])))
        return lines
    return side(), side()


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

    @given(st.one_of(repetitive_line_lists(), mostly_unique_line_lists()), st.data())
    @settings(max_examples=600)
    def test_anchor_matches_pair_enumeration(self, lists, data):
        # The whole lists, and a sub-region: its first occurrences and
        # counts are the region's, not the list's. Mostly distinct lines
        # take the index's answer, repeated ones the region count's.
        la, lb = lists
        region = []
        for lines in (la, lb):
            lo = data.draw(st.integers(0, len(lines)))
            region += [lo, data.draw(st.integers(lo, len(lines)))]
        for alo, ahi, blo, bhi in [(0, len(la), 0, len(lb)), region]:
            assert _best_anchor(la, alo, ahi, lb, blo, bhi, _index(la, lb)) == pairwise_anchor(
                la, alo, ahi, lb, blo, bhi
            )


def region_counts(monkeypatch):
    """Count the calls that fall through to the region count."""
    calls = []
    counted = align._region_anchor

    def spy(*args):
        calls.append(args)
        return counted(*args)

    monkeypatch.setattr(align, "_region_anchor", spy)
    return calls


class TestIndexedAnchor:
    """`_best_anchor` reads the anchor off the per-diff index where the first
    common line it meets in b is held once by each side, and counts the
    region otherwise; either way it answers as the region count does."""

    def anchor(self, monkeypatch, a, b, region=None):
        a, b = [f"{x}\n" for x in a], [f"{x}\n" for x in b]
        alo, ahi, blo, bhi = region or (0, len(a), 0, len(b))
        calls = region_counts(monkeypatch)
        got = _best_anchor(a, alo, ahi, b, blo, bhi, _index(a, b))
        assert got == pairwise_anchor(a, alo, ahi, b, blo, bhi)
        return got, len(calls)

    def test_duplicated_line_met_first(self, monkeypatch):
        # "d" is held twice by a, so the region is counted: "x" is rarer.
        assert self.anchor(monkeypatch, "pdxd", "dx") == ((2, 1), 1)

    def test_unique_line_read_off_the_index(self, monkeypatch):
        assert self.anchor(monkeypatch, "pdxd", "qxd") == ((2, 1), 0)

    def test_first_unique_line_256_into_the_region(self, monkeypatch):
        # The 256 rarest lines before it in a use up the pair budget, so the
        # region count picks a0, met second in b.
        a = [f"a{k}" for k in range(300)]
        assert self.anchor(monkeypatch, a, ["a299", *a[:256]]) == ((0, 1), 1)
        assert self.anchor(monkeypatch, a, ["a255", *a[:255]]) == ((255, 0), 0)
        assert self.anchor(monkeypatch, a, ["a256", *a[1:256]], (1, 300, 0, 256)) == ((256, 0), 0)

    def test_unique_line_held_by_a_outside_its_region(self, monkeypatch):
        assert self.anchor(monkeypatch, "xyz", "xz", (1, 3, 0, 2)) == ((2, 1), 0)

    def test_no_common_line(self, monkeypatch):
        assert self.anchor(monkeypatch, "xy", "zw") == (None, 0)
        assert self.anchor(monkeypatch, "xyz", "xw", (1, 3, 0, 2)) == (None, 0)
        # A line a repeats outside its region sends the walk to the count.
        assert self.anchor(monkeypatch, "ddx", "dw", (2, 3, 0, 2)) == (None, 1)

    def test_ladder_never_counts_a_region(self, monkeypatch):
        # perfbench's ladder at 8x its size: 653 anchors, every one read off
        # the index.
        sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "perfbench"))
        import workloads

        monkeypatch.setattr(workloads, "LADDER_LINES", 8 * workloads.LADDER_LINES)
        base, left, _right, _ref = workloads.ladder_case(3, workloads.spelling(workloads.CHECK_SEED, 0, 2))
        calls = region_counts(monkeypatch)
        anchors = []
        walked = align._best_anchor
        monkeypatch.setattr(align, "_best_anchor", lambda *args: anchors.append(1) or walked(*args))
        line_diff(base, left)
        assert len(anchors) == 653 and calls == []


def pairs(atoms):
    return [(a.lhs, a.rhs) for a in atoms]


def kinds(bucket):
    """Atom kinds in order, each identity run read as one None."""
    out = []
    for atom in bucket.atoms:
        kind = atom_kind(atom)
        if kind is not None or not out or out[-1] is not None:
            out.append(kind)
    return out


class TestAlignTokens:
    def test_file_rename(self):
        assert dissect("bc.go", "Program.go", "t").atoms == (
            Atom("bc", "Program", 0, 0),
            Atom(".go", ".go", 2, 7),
        )

    def test_equal_sequences_collapse_to_one_identity(self):
        # One identity run, one atom; its tokens are context units; no edit.
        bucket = dissect("a b", "a b", "t")
        assert pairs(bucket.atoms) == [("a b", "a b")]
        assert [*bucket.reach(0, 1)] == [(0, 0), (1, 1), (2, 2), (3, 3)]
        assert bucket.cores == ()

    def test_substitutions_stay_per_token(self):
        # One atom per modified token, so single-symbol rules can form.
        assert pairs(dissect("i++", "i--", "t").atoms) == [("i", "i"), ("+", "-"), ("+", "-")]

    def test_insertion_run_coalesces(self):
        got = dissect("a z", "a b c z", "t").atoms
        assert [atom_kind(a) for a in got] == [None, INSERTION, None]
        assert pairs(got)[1] == ("", "b c ")

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

    @given(
        st.text(alphabet="ab+ \n1", max_size=24),
        st.text(alphabet="ab+ \n1", max_size=24),
    )
    @settings(max_examples=150)
    def test_cost_is_optimal(self, x, y):
        xs, ys = _token_texts(x), _token_texts(y)
        parts = _alignment(xs, ys)
        assert [lhs for lhs, _ in parts if lhs] == xs
        assert [rhs for _, rhs in parts if rhs] == ys
        assert sum(lhs != rhs for lhs, rhs in parts) == self.levenshtein_oracle(xs, ys)


def reference_token_parts(del_tokens, add_tokens):
    """The cost table the diagonal-search alignment replaced, kept as its
    oracle: suffix costs in full, then a left-to-right walk preferring
    match > sub > del > ins wherever the cost stays minimal."""
    n, m = len(del_tokens), len(add_tokens)
    # cost[i][j] = distance between del_tokens[i:] and add_tokens[j:]
    cost = [[0] * (m + 1) for _ in range(n + 1)]
    for j in range(m + 1):
        cost[n][j] = m - j
    for i in range(n - 1, -1, -1):
        row = cost[i]
        below = cost[i + 1]
        row[m] = n - i
        di = del_tokens[i]
        for j in range(m - 1, -1, -1):
            if di == add_tokens[j]:
                row[j] = below[j + 1]
            else:
                row[j] = 1 + min(below[j + 1], below[j], row[j + 1])
    parts = []
    i = j = 0
    while i < n or j < m:
        c = cost[i][j]
        if i < n and j < m and c == (del_tokens[i] != add_tokens[j]) + cost[i + 1][j + 1]:
            parts.append((del_tokens[i], add_tokens[j]))
            i += 1
            j += 1
        elif i < n and c == 1 + cost[i + 1][j]:
            parts.append((del_tokens[i], ""))
            i += 1
        else:
            parts.append(("", add_tokens[j]))
            j += 1
    return parts


TOKENS = ["x", "y", "(", ")", " ", "\n", "\r\n", "17"]


@st.composite
def tie_heavy_token_lists(draw):
    """Token-list pairs full of ties: small alphabets, and either a long run
    both sides share or one side at least 20 times the other's length."""
    tokens = st.sampled_from(draw(st.sampled_from([["a"], ["a", "b"], ["a", "b", "("], TOKENS])))
    if draw(st.booleans()):
        short = draw(st.lists(tokens, max_size=3))
        long = draw(st.lists(tokens, min_size=60, max_size=90))
        return (short, long) if draw(st.booleans()) else (long, short)
    a, b, run = (draw(st.lists(tokens, max_size=size)) for size in (20, 20, 30))
    cut_a, cut_b = draw(st.integers(0, len(a))), draw(st.integers(0, len(b)))
    return a[:cut_a] + run + a[cut_a:], b[:cut_b] + run + b[cut_b:]


class TestAlignmentOracle:
    """`_alignment` against the table, part for part: the same tie-break,
    not only the same cost."""

    @given(tie_heavy_token_lists())
    @settings(max_examples=600)
    @example(([], []))
    @example(([], ["a", "b"]))
    @example((["a", "b"], []))
    @example((["a"] * 5, ["b"] * 5))  # all substitutions
    @example((["a", "b"] * 3, ["b", "a"] * 3))
    @example((["a"], ["b"] * 25))  # one side 25 times the other
    @example((["b"] * 25, ["a", "b"]))
    def test_parts_equal_the_table(self, pair):
        a, b = pair
        assert _alignment(a, b) == reference_token_parts(a, b)

    @given(st.lists(st.sampled_from(TOKENS), max_size=30))
    @settings(max_examples=200)
    def test_all_substitution_blocks(self, a):
        # Every token replaced by one the other side never holds.
        b = [t + "!" for t in a]
        assert _alignment(a, b) == reference_token_parts(a, b) == list(zip(a, b))


def reference_runs(source, target):
    """The two-step construction the atoms replaced: parts tagged with their
    kind (from the line op, or from the two sides of a token part) coalesce
    into instances, each substitution alone."""
    a, b = split_lines(source), split_lines(target)
    line_kinds = {"equal": None, "delete": DELETION, "insert": INSERTION}
    parts = []
    for tag, a0, a1, b0, b1 in line_diff(source, target):
        lhs, rhs = "".join(a[a0:a1]), "".join(b[b0:b1])
        if tag == "replace":
            parts += [
                (atom_kind(Atom(x, y, 0, 0)), x, y)
                for x, y in reference_token_parts(_token_texts(lhs), _token_texts(rhs))
            ]
        else:
            parts.append((line_kinds[tag], lhs, rhs))
    instances = []
    for kind, lhs, rhs in parts:
        if not instances or kind != instances[-1][0] or kind == SUBSTITUTION:
            instances.append([kind, "", ""])
        instances[-1][1] += lhs
        instances[-1][2] += rhs
    atoms = []
    lo = ro = 0
    for _, lhs, rhs in instances:
        atoms.append(Atom(lhs, rhs, lo, ro))
        lo += len(lhs)
        ro += len(rhs)
    return tuple(atoms)


def reference_atoms(source, target):
    """The per-token layout: `reference_runs` with each identity run split
    into its tokens, one atom each."""
    atoms = []
    for a in reference_runs(source, target):
        if atom_kind(a) is None:
            atoms += [
                Atom(t.text, t.text, a.lhs_start + t.offset, a.rhs_start + t.offset)
                for t in tokenize(a.lhs).tokens
            ]
        else:
            atoms.append(a)
    return tuple(atoms)


# Line breaks followed by indentation, \r\n and tabs, so that tokens span
# the junction of an equal line op and a replaced line's first token.
_PIECES = ["a", "x", "y", "17", "(", ")", " ", "  ", "\t", "\n", "\r\n", "\n  "]
_texts = st.lists(st.sampled_from(_PIECES), max_size=30).map("".join)


class TestDissect:
    @given(_texts, _texts)
    @settings(max_examples=400)
    @example("a\n  x\n", "a\n  y\n")
    @example("a\r\n\tx\r\n", "a\r\n\ty\r\n")
    @example("", "x\n")
    @example("x\n", "")
    def test_atoms_match_instance_reference(self, source, target):
        assert dissect(source, target, "t").atoms == reference_runs(source, target)

    def test_identity_run_tokenized_across_line_ops(self):
        # "\n  " ends the equal line "a\n" and begins the replaced "  x\n":
        # one identity run, whose last context unit is that one token.
        bucket = dissect("a\n  x\n", "a\n  y\n", "t")
        assert pairs(bucket.atoms) == [("a\n  ", "a\n  "), ("x", "y"), ("\n", "\n")]
        assert [*bucket.reach(1, -1)] == [(4, 4), (1, 1), (0, 0)]

    def test_rename_content_bucket_structure(self):
        bucket = dissect(RENAME_CONTENT_SRC, RENAME_CONTENT_TGT, "content")
        assert kinds(bucket) == [
            None,
            SUBSTITUTION,
            None,
            INSERTION,
            None,
            SUBSTITUTION,
            None,
            SUBSTITUTION,
            None,
        ]
        edits = [bucket.atoms[i] for i in bucket.cores]
        assert edits[0].lhs == "github" and edits[0].rhs == "gitlab"
        assert edits[1].rhs == 'import "fmt"\n'
        assert edits[2].lhs == "div" and edits[2].rhs == "res"

    def test_identical_pair(self):
        bucket = dissect("same\n", "same\n", "t")
        assert pairs(bucket.atoms) == [("same\n", "same\n")]
        assert bucket.cores == ()

    def test_empty_to_content(self):
        assert dissect("", "x", "t").atoms == (Atom("", "x", 0, 0),)

    def test_both_empty(self):
        assert dissect("", "", "t").atoms == ()

    def test_spans_cover_both_sides(self):
        bucket = dissect(RENAME_CONTENT_SRC, RENAME_CONTENT_TGT, "t")
        lo = ro = 0
        for a in bucket.atoms:
            assert (a.lhs_start, a.rhs_start) == (lo, ro)
            lo += len(a.lhs)
            ro += len(a.rhs)
        assert lo == len(RENAME_CONTENT_SRC) and ro == len(RENAME_CONTENT_TGT)

    @given(st.text(max_size=120), st.text(max_size=120))
    @settings(max_examples=200)
    def test_reconstruction(self, source, target):
        bucket = dissect(source, target, "t")
        assert bucket.source == source
        assert bucket.target == target
        identity = [atom_kind(a) is None for a in bucket.atoms]
        assert not any(map(bool.__and__, identity, identity[1:]))
        for n, a in enumerate(bucket.atoms):
            if identity[n]:
                # Walked either way, a run's units are its tokens.
                toks = tokenize(a.lhs).tokens
                ends = [(a.lhs_start + t.end, a.rhs_start + t.end) for t in toks]
                starts = [(a.lhs_start + t.offset, a.rhs_start + t.offset) for t in toks]
                assert ends and [*islice(bucket.reach(n, 1), 1, len(ends) + 1)] == ends
                assert [*islice(bucket.reach(n + 1, -1), 1, len(toks) + 1)] == starts[::-1]

    @given(st.text(max_size=80), st.text(max_size=80))
    @settings(max_examples=60)
    def test_determinism(self, source, target):
        a = dissect(source, target, "t")
        b = dissect(source, target, "t")
        assert a.atoms == b.atoms


def ladder_text(lines):
    return "".join(f"item{i} = value{i};\n" for i in range(lines))


def peak_traced_bytes(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestLargeBlocks:
    """A replace block as large as the file. Aligning it keeps one frontier
    per edit level, each as wide as its band of diagonals, so memory does not
    grow with the product of the two token counts."""

    def test_whole_file_line_ending_conversion(self):
        # Every line differs, so the file is one block: one substituted
        # line-break token a line, among 1,800 tokens a side.
        source = ladder_text(200)
        target = source.replace("\n", "\r\n")
        assert len(dissect(source, target, "t").cores) == 200
        assert peak_traced_bytes(dissect, source, target, "t") < 10 * 2**20

    def test_two_lines_replaced_by_many(self):
        # 14 tokens against 13,500, at distance 13,490: 13,491 levels, each
        # band at most five diagonals wide.
        source, target = "x = y;\nz = w;\n", ladder_text(1500)
        assert line_diff(source, target) == [("replace", 0, 2, 0, 1500)]
        assert peak_traced_bytes(dissect, source, target, "t") < 10 * 2**20


class TestBucketFields:
    @given(_texts, _texts)
    @settings(max_examples=300)
    def test_match_per_atom_reference(self, source, target):
        bucket = dissect(source, target, "t")
        atoms = reference_runs(source, target)
        assert bucket.atoms == atoms
        assert bucket.source == "".join(a.lhs for a in atoms)
        assert bucket.target == "".join(a.rhs for a in atoms)
        assert bucket.cores == tuple(i for i, a in enumerate(atoms) if a.lhs != a.rhs)
        assert bucket._starts == (
            [a.lhs_start for a in atoms] + [len(source)],
            [a.rhs_start for a in atoms] + [len(target)],
        )


def atom_offsets(bucket: Bucket, p: int) -> list[int] | None:
    """Reference projection over the atoms, scanned linearly: every atom
    start at p (the end of the source included), else the linear image of p
    inside an identity run, else None."""
    spans = [
        (a.lhs_start, a.lhs_start + len(a.lhs), a.rhs_start, atom_kind(a) is None)
        for a in bucket.atoms
    ]
    spans.append((len(bucket.source), len(bucket.source), len(bucket.target), False))
    at = [r0 for l0, _, r0, _ in spans if l0 == p]
    inside = [r0 + p - l0 for l0, l1, r0, identity in spans if identity and l0 < p < l1]
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

    def test_span_inside_one_identity_run(self):
        # A literal rewritten inside text the alignment keeps is an fp; a
        # span whose text is already rhs (a capture can fill it so) agrees.
        bucket = dissect("keep this line\nold\n", "keep this line\nnew\n", "t")
        p = bucket.source.index("this")
        assert not bucket.agrees(p, p + 4, "that")
        assert bucket.agrees(p, p + 4, "this")

    @given(st.text("ab (x)1\n", max_size=30), st.text("ab (x)1\n", max_size=30))
    @settings(max_examples=200)
    def test_agrees_matches_offsets(self, source, target):
        bucket = dissect(source, target, "t")
        for start in range(len(source) + 1):
            for end in range(start, len(source) + 1):
                for rhs in {source[start:end], target[start:end], "x"}:
                    t1s = atom_offsets(bucket, start) or []
                    t2s = atom_offsets(bucket, end) or []
                    want = any(t1 <= t2 and target[t1:t2] == rhs for t1 in t1s for t2 in t2s)
                    assert bucket.agrees(start, end, rhs) == want


def token_window(atoms, core, j, k):
    """Source span, lhs and rhs of the window j atoms before the per-token
    atom `core` and k after, clipped at the ends."""
    lo, hi = max(0, core - j), min(len(atoms), core + 1 + k)
    span = (atoms[lo].lhs_start, atoms[hi - 1].lhs_start + len(atoms[hi - 1].lhs))
    return span, "".join(a.lhs for a in atoms[lo:hi]), "".join(a.rhs for a in atoms[lo:hi])


def unit_window(bucket, core, j, k):
    """The same window read off `Bucket.reach` from the coalesced atom `core`."""
    s, t = [*islice(bucket.reach(core, -1), j + 1)][-1]
    e, u = [*islice(bucket.reach(core + 1, 1), k + 1)][-1]
    return (s, e), bucket.source[s:e], bucket.target[t:u]


def token_anchor_rule(bidx, core, buckets, atoms):
    """`_unique_anchor_rule` as it read the per-token atoms: m atoms either
    side of the core, m = 0, 1, ..."""
    joined = buckets.joined
    for m in range(len(atoms) + 1):
        lo, hi = max(0, core - m), min(len(atoms), core + 1 + m)
        lhs = "".join(a.lhs for a in atoms[lo:hi])
        rhs = "".join(a.rhs for a in atoms[lo:hi])
        if not lhs or lhs == rhs:
            continue
        found = joined.find(lhs)
        if next(found, -1) == joined.starts[bidx] + atoms[lo].lhs_start and next(found, -1) < 0:
            return RewriteRule(lhs, rhs, fallback=True)
        if lo == 0 and hi == len(atoms):
            return None
    return None


# The pieces above with numerics that are symbols (², ½, Ⅷ), a decimal digit
# that is not ASCII (٣), the underscore, the whitespace \x85 and a combining
# mark, alone and beside the letters and digits they split or join.
_UNIT_PIECES = _PIECES + ["²", "½", "Ⅷ", "٣", "_", "\x85", "\u0301"]
_UNIT_PIECES += ["x²", "a\u0301", "٣1", "_a"]
_unit_texts = st.lists(st.sampled_from(_UNIT_PIECES), max_size=30).map("".join)


def edit_pairs(source, target):
    """The bucket, the per-token atoms, and (coalesced, per-token) index
    pairs of each edit atom."""
    bucket = dissect(source, target, "t")
    atoms = reference_atoms(source, target)
    cores = [i for i, a in enumerate(atoms) if atom_kind(a) is not None]
    assert [atoms[i] for i in cores] == [bucket.atoms[c] for c in bucket.cores]
    return bucket, atoms, list(zip(bucket.cores, cores))


class TestContextUnits:
    """Windows cut from coalesced identity runs equal windows over the
    per-token atoms: the same units, so the same rules."""

    @given(_unit_texts, _unit_texts)
    @settings(max_examples=300)
    @example("a\n  x\n", "a\n  y\n")
    @example("x²½Ⅷ y", "x²½Ⅷ z")
    @example("a\u0301b\x85٣1 q", "a\u0301b\x85٣1 r")
    def test_windows_match_per_token_atoms(self, source, target):
        bucket, atoms, pairs_ = edit_pairs(source, target)
        for core, token_core in pairs_:
            # Every window a decompose can reach: it widens at most once a round.
            for j in range(WINDOW + FIXUP_ROUNDS + 1):
                for k in range(WINDOW + FIXUP_ROUNDS + 1):
                    assert unit_window(bucket, core, j, k) == token_window(atoms, token_core, j, k)

    @given(st.lists(st.tuples(_unit_texts, _unit_texts), min_size=1, max_size=3))
    @settings(max_examples=200)
    @example([("a x a x", "a y a x")])
    @example([("f(x) f(x)", "f(y) f(x)"), ("f(x)", "f(x)")])
    def test_unique_anchor_matches_per_token_atoms(self, pairs_of_texts):
        buckets = BucketSet(
            tuple(dissect(s, t, f"t{i}") for i, (s, t) in enumerate(pairs_of_texts))
        )
        for bidx, (source, target) in enumerate(pairs_of_texts):
            _, atoms, pairs_ = edit_pairs(source, target)
            for core, token_core in pairs_:
                assert _unique_anchor_rule(bidx, core, buckets) == token_anchor_rule(
                    bidx, token_core, buckets, atoms
                )


class TestBucketSet:
    def test_unique_labels_enforced(self):
        import pytest

        b = dissect("a", "b", "x")
        with pytest.raises(ValueError):
            BucketSet((b, dissect("c", "d", "x")))
