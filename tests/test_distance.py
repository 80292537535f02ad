from collections import Counter

import hypothesis.strategies as st
from hypothesis import example, given, settings

from summer.distance import _bag_distance, _bags, _bit_vector_cheaper, _trim_common, levenshtein

# Multi-character pieces make long shared runs and repeats; "\r\n", the
# private-use characters and the lone surrogates (which hold undecodable
# bytes) must count as the ordinary characters they are.
PIECES = ["a", "b", "ab", "ba", "x=1;", " ", "\n", "\r\n", "\r", "\ue000", "\ue041", "\ue0ff",
          "\udc80", "\udcff"]
TOKENS = ["foo", "bar", "(", ")", " ", "\n", "\r\n", "\ue041", "1"]

texts = st.lists(st.sampled_from(PIECES), max_size=30).map("".join)
token_lists = st.lists(st.sampled_from(TOKENS), max_size=40)


def oracle(a, b):
    prev = list(range(len(b) + 1))
    for i, x in enumerate(a, 1):
        cur = [i] + [0] * len(b)
        for j, y in enumerate(b, 1):
            cur[j] = min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (x != y))
        prev = cur
    return prev[-1]


def check_limit(a, b, d, k):
    # Over the limit is k + 1, or d itself where it was computed in full.
    got = levenshtein(a, b, limit=k)
    assert got == d if d <= k else got in (k + 1, d), (a, b, k, got)


def check_every_limit(a, b):
    # Limits run from 0 past the longer side, so they cover length gaps
    # larger than the limit and, on the longer inputs, both sides of the
    # search/bit-vector crossover.
    d = levenshtein(a, b)
    assert d == oracle(a, b)
    for k in range(max(len(a), len(b)) + 2):
        check_limit(a, b, d, k)


class TestBoundedLevenshtein:
    @given(texts, texts)
    @example("", "")
    @example("", "\r\n\ue041")
    @example("ab", "ab" + "\r\n" * 12)
    @example("\r\n" * 9 + "x", "x")
    @settings(max_examples=300)
    def test_strings(self, a, b):
        check_every_limit(a, b)

    @given(token_lists, token_lists)
    @example([], ["foo"])
    @example(["(", "foo"], ["(", "foo", ")", ")", ")", ")"])
    @settings(max_examples=200)
    def test_token_lists(self, a, b):
        check_every_limit(a, b)

    def test_both_sides_of_the_crossover(self):
        # Isolated substitutions of a character `a` lacks each cost one edit,
        # so d is known; the outermost ones keep the inputs from being trimmed.
        n = 200
        crossover = next(k for k in range(n) if _bit_vector_cheaper(n, n, k))
        assert crossover > 2
        a = "ab" * (n // 2)
        for d in (crossover - 1, crossover, crossover + 1):
            sites = {0, n - 1, *range(3, 3 + 7 * (d - 2), 7)}
            b = "".join("\ue041" if i in sites else c for i, c in enumerate(a))
            assert levenshtein(a, b) == d
            for k in (crossover - 1, crossover):
                check_limit(a, b, d, k)

    def test_insertion_searched_in_a_narrow_band(self):
        # Every line of a 17.8k-character text gains a suffix: the distance
        # is the gap g, and at limit g the band is one diagonal wide, so the
        # search runs. At that limit a same-length rewrite, whose band is
        # up to g + 1 wide, goes to the bit-vector.
        text = "".join(f"val{i} = size{i};\n" for i in range(1000))
        longer = "".join(f"val{i} = size{i};//\n" for i in range(1000))
        rewritten = text.replace(";", ",")
        g = len(longer) - len(text)
        assert len(text) == 17_780 and g == 2000
        assert searched(text, longer, g) and searched(longer, text, g)
        assert levenshtein(text, longer, limit=g) == levenshtein(longer, text, limit=g) == g
        assert not searched(text, rewritten, g)


def searched(a, b, k):
    """Whether levenshtein(a, b, limit=k) runs the diagonal search."""
    a, b = _trim_common(a, b)
    n, m = max(len(a), len(b)), min(len(a), len(b))
    return m > 0 and n - m <= k and not _bit_vector_cheaper(n, m, k)


@st.composite
def unbalanced_pairs(draw):
    """A token list and a copy with tokens deleted (the length gap) and up
    to three substituted by one the list lacks, either side the longer."""
    a = draw(st.lists(st.sampled_from(TOKENS), min_size=40, max_size=80))
    b = list(a)
    for _ in range(draw(st.integers(1, 8))):
        del b[draw(st.integers(0, len(b) - 1))]
    for _ in range(draw(st.integers(0, 3))):
        b[draw(st.integers(0, len(b) - 1))] = "\ue0ff"
    return (b, a) if draw(st.booleans()) else (a, b)


class TestBandEdges:
    """The search keeps only the band of diagonals that can still reach the
    end diagonal, in rows as wide as that band. Its edges move with the
    length gap and the limit, so these pairs put the gap at the limit or
    one under it, and the distance at the limit or one over it."""

    @given(unbalanced_pairs())
    @example((["bar"] + ["foo"] * 40 + [")"], ["foo"] * 40))  # gap 2, distance 2
    @example((["("] + ["foo"] * 40 + [")"], ["bar"] + ["foo"] * 36 + ["\ue0ff"]))  # gap 4, distance 6
    @example((["(", ")"] * 20, ["\ue0ff"] + ["(", ")"] * 18 + ["("]))
    @example((["bar"] + ["foo"] * 45, ["foo"] * 45 + ["bar"]))  # gap 0, distance 2
    @example((["("] + ["foo", ")"] * 124, ["bar"] + ["foo", "(", ")", "foo", ")"] * 62 + ["bar"]))  # gap 63, distance 64
    @settings(max_examples=300)
    def test_gap_and_distance_at_the_limit(self, pair):
        a, b = pair
        d = levenshtein(a, b)
        assert d == oracle(a, b)
        gap = abs(len(a) - len(b))
        for k in {gap, gap + 1, d - 1, d}:
            if k < 0:
                continue
            if searched(a, b, k):
                assert levenshtein(a, b, limit=k) == (d if d <= k else k + 1), (a, b, k)
            else:
                check_limit(a, b, d, k)

    def test_examples_run_the_search(self):
        # Neither side's ends are shared, so nothing is trimmed away.
        cases = [
            (["bar"] + ["foo"] * 40 + [")"], ["foo"] * 40, {2: 2, 3: 2}),
            (["("] + ["foo"] * 40 + [")"], ["bar"] + ["foo"] * 36 + ["\ue0ff"], {4: 5, 5: 6, 6: 6}),
            (["bar"] + ["foo"] * 45, ["foo"] * 45 + ["bar"], {0: 1, 1: 2, 2: 2}),
            (["("] + ["foo", ")"] * 124, ["bar"] + ["foo", "(", ")", "foo", ")"] * 62 + ["bar"],
             {63: 64, 64: 64}),
        ]
        for a, b, results in cases:
            for k, want in results.items():
                assert searched(a, b, k) and searched(b, a, k), (a, b, k)
                assert levenshtein(a, b, limit=k) == levenshtein(b, a, limit=k) == want, (a, b, k)


class TestBagDistance:
    @given(texts, texts)
    @settings(max_examples=300)
    def test_strings(self, a, b):
        assert _bag_distance(*_bags([a, b])) <= levenshtein(a, b)

    @given(token_lists, token_lists)
    @settings(max_examples=300)
    def test_token_lists(self, a, b):
        assert _bag_distance(*_bags([a, b])) <= levenshtein(a, b)

    @given(st.lists(token_lists, min_size=1, max_size=5))
    @settings(max_examples=200)
    def test_bags_count_every_shared_item(self, seqs):
        # Sizes and pairwise intersections are the multisets', whichever
        # sequences share the bit layout.
        bags = _bags(seqs)
        for x, bx in zip(seqs, bags):
            assert bx.bit_count() == len(x)
            for y, by in zip(seqs, bags):
                assert (bx & by).bit_count() == sum((Counter(x) & Counter(y)).values())

    def test_permuted_and_disjoint_bags(self):
        # A permutation of one bag shares every item; disjoint bags share none.
        a, b = "x=1;\r\n\ue041", "\ue0411;\n\r=x"
        assert _bag_distance(*_bags([a, b])) == 0 < levenshtein(a, b)
        a, b = ["foo", "(", ")", "\r\n"], ["bar", "\ue041", "1"]
        assert _bag_distance(*_bags([a, b])) == 4 == levenshtein(a, b)
