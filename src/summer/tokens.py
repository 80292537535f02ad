"""Character classification, tokenization, and token-boundary substring search.

Every piece of text the engine touches (file contents, file names) is split
into tokens of four character categories. A token is a maximal run of
same-category characters, except that each symbol character is its own token.
`classify_char` defines the categories; the tokenizer finds the runs in one
regex scan of the text (`_runs`), and `tokenize` wraps them as `Token`s;
`_token_texts` lists the texts alone.
All pattern matching downstream is required to start and end on token
boundaries of the text being searched. Whether an offset is a boundary is
decided from the two characters around it, so matching needs no tokenization.
"""

from __future__ import annotations

import re
from collections.abc import Iterator
from enum import Enum, auto
from functools import lru_cache
from itertools import groupby
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


# Tokenization is referentially transparent, so this caches by source string
# the token lists of the shared substrings the move pass weighs. Within one
# merge such a text is seldom asked for twice: the benchmark workloads see no
# hits.
@lru_cache(maxsize=512)
def tokenize_cached(s: str) -> TokenString:
    return tokenize(s)


# The categories of the ASCII characters; others are classified as met.
_ASCII = {chr(c): classify_char(chr(c)) for c in range(128)}


def _at_boundary(s: str, i: int) -> bool:
    """True if offset i of s starts or ends a token of ``tokenize(s)``.

    The ends of the string are boundaries; inside it, a token ends after
    every symbol and wherever the character category changes.
    """
    if i <= 0 or i >= len(s):
        return True
    a, b = s[i - 1], s[i]
    before = _ASCII.get(a) or classify_char(a)
    return before is CharCategory.SYMBOL or before is not (_ASCII.get(b) or classify_char(b))


def _find_aligned(text: str, needle: str, pos: int) -> int:
    """Offset of the first occurrence of ``needle`` at or after ``pos`` that
    starts and ends on token boundaries, or -1."""
    while True:
        i = text.find(needle, pos)
        if i < 0 or (_at_boundary(text, i) and _at_boundary(text, i + len(needle))):
            return i
        pos = i + 1


def find_matches(text: str, needle: str) -> list[int]:
    """All boundary-aligned occurrences of ``needle``, leftmost and non-overlapping.

    An occurrence qualifies only if both its start and its end offsets are
    token boundaries of the text. After a qualifying match ending at offset
    e, the scan resumes at e; a rejected occurrence is skipped by one
    character.
    """
    if not needle:
        raise ValueError("needle must be nonempty")
    out: list[int] = []
    i = _find_aligned(text, needle, 0)
    while i >= 0:
        out.append(i)
        i = _find_aligned(text, needle, i + len(needle))
    return out
