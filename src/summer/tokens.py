"""Character classification, tokenization, and token-boundary substring search.

Every piece of text the engine touches (file contents, file names) is split
into tokens of four character categories. A token is a maximal run of
same-category characters, except that each symbol character is its own token.
`classify_char` defines the categories; the tokenizer finds the runs in one
regex scan of the text (`_runs`), and `tokenize` wraps them as `Token`s;
`_token_texts` lists the texts alone.
All pattern matching downstream is required to start and end on token
boundaries of the text being searched. `_aligned` decides each end of an
occurrence from the character beyond it, so matching needs no tokenization.
`Joined` holds many texts as one, so that one scan and one splice apply a rule
to all of them: scoring, the fix-up rounds, moves and replay all go through it.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from collections.abc import Iterator, Sequence
from enum import Enum, auto
from functools import lru_cache
from itertools import accumulate, count, groupby
from operator import add
from typing import NamedTuple


class CharCategory(Enum):
    DIGIT = auto()
    LETTER = auto()
    WHITESPACE = auto()
    SYMBOL = auto()


def classify_char(ch: str) -> CharCategory:
    """Classify a single character into one of the four categories.

    Whitespace and letters follow the Unicode definitions; digits are decimal
    digits (Nd). Everything else, including underscore, is a symbol.
    """
    if ch.isspace():
        return CharCategory.WHITESPACE
    if ch.isdecimal():
        return CharCategory.DIGIT
    if ch.isalpha():
        return CharCategory.LETTER
    return CharCategory.SYMBOL


class Token(NamedTuple):
    """One token: its text, category, and offset into the source string."""

    text: str
    category: CharCategory
    offset: int

    @property
    def end(self) -> int:
        return self.offset + len(self.text)


class TokenString(NamedTuple):
    """A string together with its tokens."""

    source: str
    tokens: tuple[Token, ...]


# Group i matches a run of the i-th CharCategory. `\d` is `str.isdecimal` and
# `\s` is `str.isspace`. `[^\W\d_]` holds every letter, and also the numeric
# characters that are not decimal digits (², ½, Ⅷ), which are symbols: `_runs`
# splits a letter run holding any of them.
_RUNS = re.compile(r"(\d+)|([^\W\d_]+)|(\s+)|(.)", re.S)
_GROUP_CATEGORY = (None, *CharCategory)


def _runs(s: str) -> Iterator[tuple[str, CharCategory, int]]:
    """(text, category, offset) of every token of s, in order, from one scan."""
    letter = CharCategory.LETTER
    for m in _RUNS.finditer(s):
        text = m.group()
        category = _GROUP_CATEGORY[m.lastindex]
        if category is not letter or text.isalpha():
            yield text, category, m.start()
            continue
        offset = m.start()
        for alpha, chars in groupby(text, str.isalpha):
            for piece in ["".join(chars)] if alpha else chars:
                yield piece, letter if alpha else CharCategory.SYMBOL, offset
                offset += len(piece)


# The same scan without categories: on ASCII, `[^\W\d_]` is exactly isalpha.
_TEXTS = re.compile(r"\d+|[^\W\d_]+|\s+|.", re.S)


def _token_texts(s: str) -> list[str]:
    """The texts of the tokens of s, in order."""
    if s.isascii():
        return _TEXTS.findall(s)
    return [text for text, _, _ in _runs(s)]


def tokenize(s: str) -> TokenString:
    """Partition a string into maximal same-category runs; symbols stand alone.

    The concatenation of the token texts always equals the input.
    """
    return TokenString(s, tuple(Token(*run) for run in _runs(s)))


# Nothing in the engine calls this cache; perfbench clears it before each op
# and reports its hit ratio, so it stays until the benchmark stops asking.
@lru_cache(maxsize=512)
def tokenize_cached(s: str) -> TokenString:
    return tokenize(s)


# The categories of the ASCII characters; others are classified as met.
_ASCII = {chr(c): classify_char(chr(c)) for c in range(128)}


def _aligned(text: str, needle: str, pos: int = 0) -> Iterator[int]:
    """The occurrences of a nonempty needle at or after pos that start and end
    on token boundaries, lazily, leftmost and non-overlapping. A token runs
    across an end of an occurrence when the character beyond it has the
    category of the needle's character at that end, unless that is SYMBOL."""
    n, get, symbol = len(needle), _ASCII.get, CharCategory.SYMBOL
    head = get(needle[0]) or classify_char(needle[0])
    tail = get(needle[-1]) or classify_char(needle[-1])
    i = text.find(needle, pos)
    while i >= 0:
        j = i + n
        if (i and (get(text[i - 1]) or classify_char(text[i - 1])) is head is not symbol) or (
            j < len(text) and (get(text[j]) or classify_char(text[j])) is tail is not symbol
        ):
            i = text.find(needle, i + 1)
        else:
            yield i
            i = text.find(needle, j)


class Joined(NamedTuple):
    """Texts joined by `sep`, a symbol character none of them holds, and the
    offset where each starts. An offset next to a symbol is a token boundary,
    so a needle without `sep` matches here where it matches in each text, and
    one with it matches nothing: one scan and one splice rewrite every text."""

    text: str
    sep: str
    starts: list[int]

    @classmethod
    def of(cls, texts: Sequence[str]) -> Joined:
        """The texts joined by the first symbol character from \\x00 up that
        none of them holds."""
        held = "".join(texts)
        symbol = CharCategory.SYMBOL
        sep = next(c for c in map(chr, count()) if c not in held and classify_char(c) is symbol)
        starts = [*accumulate([len(t) + 1 for t in texts], initial=0)][:-1]
        return cls(sep.join(texts), sep, starts)

    def find(self, needle: str) -> Iterator[int]:
        """The starts of the aligned occurrences of a nonempty needle (`_aligned`)."""
        if not needle:
            raise ValueError("needle must be nonempty")
        return iter(()) if self.sep in needle else _aligned(self.text, needle)

    def locate(self, offset: int) -> tuple[int, int]:
        """(index of the text holding offset, offset within that text)."""
        i = bisect_right(self.starts, offset) - 1
        return i, offset - self.starts[i]

    def splice(self, spans: Sequence[tuple[int, int]], rhs: str) -> Joined:
        """Each of the ordered, disjoint spans, none crossing a separator, replaced
        by rhs; rejoined under another separator if rhs holds `sep`."""
        if not spans:
            return self
        text, sep, starts = self
        pieces: list[str] = []
        pos = 0
        for start, end in spans:
            pieces += text[pos:start], rhs
            pos = end
        pieces.append(text[pos:])
        if starts[-1] > spans[0][0]:  # each later start moves by what the spans before it grew
            growth = [0] * (len(starts) + 1)
            for start, end in spans:
                growth[bisect_right(starts, start)] += len(rhs) - end + start
            starts = [*map(add, starts, accumulate(growth))]
        out = Joined("".join(pieces), sep, starts)
        return Joined.of(out.split()) if sep in rhs else out

    def rewrite(self, lhs: str, rhs: str) -> tuple[Joined, list[tuple[int, int]]]:
        """Every aligned lhs rewritten to rhs in one frozen scan, and the spans."""
        spans = [(start, start + len(lhs)) for start in self.find(lhs)]
        return self.splice(spans, rhs), spans

    def split(self) -> list[str]:
        """The texts."""
        text, starts = self.text, self.starts
        return [text[a : b - 1] for a, b in zip(starts, [*starts[1:], len(text) + 1])]
