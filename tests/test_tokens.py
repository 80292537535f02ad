import hypothesis.strategies as st
import pytest
from hypothesis import example, given

from summer.tokens import (
    CharCategory,
    _aligned,
    _runs,
    Joined,
    _token_texts,
    classify_char,
    tokenize,
)
from tests.conftest import token_offsets


def texts(token_texts):
    return [t.text for t in token_texts.tokens]


class TestClassifyChar:
    @pytest.mark.parametrize(
        "ch,cat",
        [
            ("5", CharCategory.DIGIT),
            ("_", CharCategory.SYMBOL),
            ("\t", CharCategory.WHITESPACE),
            ("a", CharCategory.LETTER),
            ("Z", CharCategory.LETTER),
            ("+", CharCategory.SYMBOL),
            (" ", CharCategory.WHITESPACE),
            ("\n", CharCategory.WHITESPACE),
            ("\r", CharCategory.WHITESPACE),
            ("é", CharCategory.LETTER),
            ("٣", CharCategory.DIGIT),  # Arabic-Indic decimal digit
        ],
    )
    def test_categories(self, ch, cat):
        assert classify_char(ch) is cat

    @given(st.characters())
    def test_total_function(self, ch):
        assert classify_char(ch) in CharCategory


class TestTokenize:
    def test_mixed_number_literal(self):
        assert texts(tokenize("n=0xFF_0f")) == ["n", "=", "0", "xFF", "_", "0", "f"]

    def test_empty(self):
        assert tokenize("").tokens == ()

    def test_symbols_stand_alone(self):
        assert texts(tokenize("i++")) == ["i", "+", "+"]

    def test_whitespace_run(self):
        assert texts(tokenize("  \tfoo")) == ["  \t", "foo"]

    @given(st.text(max_size=200))
    def test_partition(self, s):
        assert "".join(texts(tokenize(s))) == s

    @given(st.text(max_size=200))
    def test_maximality_and_symbol_singletons(self, s):
        toks = tokenize(s).tokens
        for tok in toks:
            assert tok.text
            assert all(classify_char(c) is tok.category for c in tok.text)
            if tok.category is CharCategory.SYMBOL:
                assert len(tok.text) == 1
        for a, b in zip(toks, toks[1:]):
            if a.category is not CharCategory.SYMBOL:
                assert a.category is not b.category

    @given(st.text(max_size=200))
    def test_offsets_contiguous(self, s):
        pos = 0
        for tok in tokenize(s).tokens:
            assert tok.offset == pos
            pos = tok.end
        assert pos == len(s)

    @given(st.text(max_size=120))
    def test_idempotence(self, s):
        once = texts(tokenize(s))
        again = texts(tokenize("".join(once)))
        assert once == again


def reference_tokens(s: str) -> list[tuple[str, CharCategory, int]]:
    """The per-character loop that defines tokenization: classify each
    character, extend a run while the category holds, and end a symbol
    after one character."""
    out = []
    i, n = 0, len(s)
    while i < n:
        cat = classify_char(s[i])
        j = i + 1
        if cat is not CharCategory.SYMBOL:
            while j < n and classify_char(s[j]) is cat:
                j += 1
        out.append((s[i:j], cat, i))
        i = j
    return out


# Characters where a regex class and a str predicate could part ways:
# numeric non-digits (², ½, Ⅷ) that `\w` holds but are no letters, a
# non-ASCII decimal digit, underscore, combining accents, and whitespace
# beyond ASCII's (file and group separators, NEL, line separator).
TRICKY = "²½Ⅷ٣_\u0301\u0308\x1c\x1d\x1e\x1f\x85\u2028\r\n"
tricky_text = st.text(
    alphabet=st.one_of(st.sampled_from(TRICKY + "a1 +"), st.characters()), max_size=200
)


class TestTokenizeOracle:
    @given(tricky_text)
    @example("a²b½cⅧ٣3__\u0301x\r\n\x85\u2028")
    def test_matches_reference_loop(self, s):
        assert list(tokenize(s).tokens) == reference_tokens(s)

    def test_every_code_point_between_a_letter_and_a_digit(self):
        # One string "a" + c + "1" for every non-surrogate code point c,
        # tokenized in slices that each end on "1" before an "a": a digit
        # to letter change is a boundary, so each slice's tokens are the
        # whole string's, shifted, and memory stays small.
        points = [c for c in range(0x110000) if not 0xD800 <= c <= 0xDFFF]
        for k in range(0, len(points), 1 << 14):
            s = "".join(f"a{chr(c)}1" for c in points[k : k + (1 << 14)])
            assert list(tokenize(s).tokens) == reference_tokens(s), hex(points[k])


class TestTokenTexts:
    @given(st.one_of(tricky_text, st.text(st.characters(max_codepoint=127), max_size=200)))
    @example("a²b½cⅧ٣3__\x85 x")
    @example("if (x_1 >= 0x2F) {\r\n\treturn;\x1c}")
    def test_match_the_runs(self, s):
        assert _token_texts(s) == [text for text, _, _ in _runs(s)]


# The CLI reads each undecodable byte of a file as one lone surrogate,
# U+DC80..U+DCFF; private-use characters are ordinary symbols of UTF-8 text.
SURROGATE_BYTES = "".join(chr(0xDC80 + b) for b in range(128))
PRIVATE_USE = "".join(chr(0xE000 + b) for b in range(256))


class TestBoundaryPredicate:
    """The scan's boundary test at every offset i: the suffix from i is an
    aligned occurrence exactly when i is a token offset, and so is the prefix
    up to i."""

    @given(tricky_text)
    @example("_")
    @example("a_b1_")
    @example("x²y2")
    @example("1½2")
    @example("٣3x٣")
    @example("a\r\nb")
    @example("\r\n\r\n")
    @example("cafe\u0301 e\u0301\u0301")
    @example(SURROGATE_BYTES)
    @example("ab" + SURROGATE_BYTES + "12")
    @example("x\udcff1\udc80y")
    @example(PRIVATE_USE)
    @example("ab" + PRIVATE_USE + "12")
    def test_agrees_with_token_offsets(self, s):
        bounds = token_offsets(s)
        for i in range(len(s)):
            assert (next(_aligned(s, s[i:], i), -1) == i) == (i in bounds), (s, i)
        for i in range(1, len(s) + 1):
            assert (next(_aligned(s, s[:i]), -1) == 0) == (i in bounds), (s, i)


def brute_force_matches(source: str, needle: str) -> list[int]:
    """Independent oracle: check every offset against the token offsets."""
    bounds = token_offsets(source)
    out = []
    i = 0
    while i <= len(source) - len(needle):
        if (
            source.startswith(needle, i)
            and i in bounds
            and (i + len(needle)) in bounds
        ):
            out.append(i)
            i += len(needle)
        else:
            i += 1
    return out


def find_matches(text: str, needle: str) -> list[int]:
    return list(Joined.of([text]).find(needle))


class TestFindMatches:
    def test_word_boundary_rejects_interior(self):
        assert find_matches("public class Republican", "public") == [0]

    def test_single_symbol(self):
        assert find_matches("i+=1", "+") == [1]

    def test_no_interior_boundary(self):
        assert find_matches("aaaa", "aa") == brute_force_matches("aaaa", "aa") == []

    def test_empty_needle_rejected(self):
        with pytest.raises(ValueError):
            find_matches("x", "")

    @given(st.text(max_size=80), st.text(min_size=1, max_size=6))
    def test_matches_agree_with_oracle(self, source, needle):
        assert find_matches(source, needle) == brute_force_matches(source, needle)

    @given(st.text(max_size=80), st.text(min_size=1, max_size=6))
    def test_boundary_soundness(self, source, needle):
        bounds = token_offsets(source)
        for start in find_matches(source, needle):
            assert start in bounds
            assert start + len(needle) in bounds


# \x00 and \x01 are the first separators Joined.of tries.
JOINED_ALPHABET = st.sampled_from(["a", "b", "é", "1", " ", "\n", ".", "\x00", "\x01"])


class TestJoined:
    """A joined text behaves as its texts, each scanned and rewritten alone."""

    @given(
        st.lists(st.text(JOINED_ALPHABET, max_size=12), max_size=4),
        st.text(JOINED_ALPHABET, min_size=1, max_size=3),
        st.text(JOINED_ALPHABET, max_size=3),
    )
    @example(["x", "x"], "x", "\x00")
    @example(["a", "", "a.a"], "a", "b")
    def test_behaves_as_its_texts(self, texts, lhs, rhs):
        joined = Joined.of(texts)
        assert joined.sep not in "".join(texts)
        assert joined.split() == texts
        located: list[list[int]] = [[] for _ in texts]
        for start in joined.find(lhs):
            i, local = joined.locate(start)
            located[i].append(local)
        assert located == [brute_force_matches(t, lhs) for t in texts]
        rewritten, spans = joined.rewrite(lhs, rhs)
        assert len(spans) == sum(map(len, located))
        want = []
        for t in texts:
            pieces, pos = [], 0
            for start in brute_force_matches(t, lhs):
                pieces += t[pos:start], rhs
                pos = start + len(lhs)
            want.append("".join(pieces) + t[pos:])
        assert rewritten.split() == want
        assert rewritten.sep not in "".join(want)

    @given(st.lists(st.text(JOINED_ALPHABET, max_size=12), min_size=1, max_size=4))
    def test_needle_holding_the_separator_matches_nothing(self, texts):
        joined = Joined.of(texts)
        assert list(joined.find(joined.sep)) == []
        assert list(joined.find("a" + joined.sep + "a")) == []

    def test_empty_needle_rejected(self):
        with pytest.raises(ValueError):
            Joined.of(["x", "y"]).find("")

    def test_separator_skips_held_and_non_symbol_characters(self):
        assert Joined.of(["\x00", "a\x01"]).sep == "\x02"
        # \x09 to \x0d are whitespace.
        held = "".join(map(chr, range(9)))
        assert Joined.of([held]).sep == "\x0e"
