"""Alignment of a (source, target) string pair into ordered atoms.

The pipeline is: line-level histogram diff (rare lines anchor the split),
then token-level Levenshtein alignment inside each change block (paths of
`distance`'s diagonal search, in memory that grows with its band). The result
is a Bucket, an ordered tuple of atoms whose left sides concatenate to the
source and right sides to the target.

An atom is one identity run (its two sides equal), or one edit (its sides
differ): substitutions stay one token pair per atom so that rule synthesis can
expand each modified token independently. Rule synthesis reads its atoms, the
indices of its edit atoms, its projection of source offsets into the target,
and its context units: a whole edit, or one token cut off an identity run only
where a window reaches it (`Bucket.reach`). A BucketSet holds one bucket per
artifact and their sources as one `tokens.Joined`, so that scoring and
rewriting scan the whole corpus at once.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter
from collections.abc import Iterator
from functools import cached_property
from itertools import groupby
from operator import add, itemgetter
from typing import NamedTuple

from .distance import _alignment
from .tokens import Joined, _runs, _token_texts


class Atom(NamedTuple):
    """One identity run (lhs == rhs, nonempty, never next to another), or one
    edit (lhs != rhs): a substituted token pair, or a whole inserted or
    deleted run. The starts place it in its bucket's source and target."""

    lhs: str
    rhs: str
    lhs_start: int
    rhs_start: int


class Bucket:
    """A labeled, ordered tuple of atoms for one artifact, and the
    projection of its source offsets into its target."""

    def __init__(self, label: str, atoms: tuple[Atom, ...]) -> None:
        self.label = label
        self.atoms = atoms

    @cached_property
    def source(self) -> str:
        return "".join(map(itemgetter(0), self.atoms))

    @cached_property
    def target(self) -> str:
        return "".join(map(itemgetter(1), self.atoms))

    @cached_property
    def cores(self) -> tuple[int, ...]:
        """Indices of the edit atoms, in order."""
        return tuple(i for i, (lhs, rhs, _, _) in enumerate(self.atoms) if lhs != rhs)

    @cached_property
    def _starts(self) -> tuple[list[int], list[int]]:
        return (
            [*map(itemgetter(2), self.atoms), len(self.source)],
            [*map(itemgetter(3), self.atoms), len(self.target)],
        )

    def target_offsets(self, p: int) -> list[int] | None:
        """Candidate target offsets for source offset p; None if undefined.

        Inside identity text the projection is linear. At an atom boundary
        it is every atom start there: an insertion anchored at the boundary
        may or may not be covered by a span ending there.
        """
        b_lhs, b_rhs = self._starts
        lo = bisect_left(b_lhs, p)
        if lo < len(b_lhs) and b_lhs[lo] == p:
            return b_rhs[lo : bisect_right(b_lhs, p)]
        idx = lo - 1  # p lies strictly inside this atom
        if idx < 0 or idx >= len(self.atoms) or self.atoms[idx].lhs != self.atoms[idx].rhs:
            return None
        return [b_rhs[idx] + (p - b_lhs[idx])]

    def reach(self, i: int, step: int) -> Iterator[tuple[int, int]]:
        """(source, target) offsets of the start of atom i, then of a window
        edge after each further context unit outward, to the bucket's end:
        from atom i - 1 down for step -1, from atom i up for step 1. A unit is
        a whole edit, or one token of an identity run tokenized alone (a
        backward walk tokenizes the run reversed: the same tokens, reversed)."""
        b_lhs, b_rhs = self._starts
        yield b_lhs[i], b_rhs[i]
        atoms = self.atoms
        for n in range(i - 1, -1, -1) if step < 0 else range(i, len(atoms)):
            lhs, rhs, lo, ro = atoms[n]
            if lhs != rhs:
                yield (lo, ro) if step < 0 else (b_lhs[n + 1], b_rhs[n + 1])
                continue
            for text, _, p in _runs(lhs if step > 0 else lhs[::-1]):
                p = p + len(text) if step > 0 else len(lhs) - p - len(text)
                yield lo + p, ro + p

    def agrees(self, start: int, end: int, rhs: str) -> bool:
        """True if rewriting source[start:end] to rhs matches the alignment."""
        b_lhs = self._starts[0]
        idx = bisect_right(b_lhs, start) - 1
        if b_lhs[idx] < start and end < b_lhs[idx + 1] and self.atoms[idx].lhs == self.atoms[idx].rhs:
            return self.source[start:end] == rhs  # inside one identity run, which stays
        t1s = self.target_offsets(start)
        t2s = self.target_offsets(end) if t1s else None
        if not t2s:
            return False
        tgt = self.target
        for t1 in t1s:
            for t2 in t2s:
                if t1 <= t2 and tgt[t1:t2] == rhs:
                    return True
        return False


# A renamed entry's name bucket is labeled NAME_PREFIX + old path.
NAME_PREFIX = "name:"


def is_name_label(label: str) -> bool:
    return label.startswith(NAME_PREFIX)


class BucketSet:
    def __init__(self, buckets: tuple[Bucket, ...]) -> None:
        if len({b.label for b in buckets}) != len(buckets):
            raise ValueError("bucket labels must be unique")
        self.buckets = buckets

    @cached_property
    def joined(self) -> Joined:
        """The bucket sources as one text: one scan scores a rule against all."""
        return Joined.of([b.source for b in self.buckets])

    @cached_property
    def edit_count(self) -> int:
        """Edit atoms in the set."""
        return sum(len(b.cores) for b in self.buckets)

    def __iter__(self):
        return iter(self.buckets)

    def __getitem__(self, index: int) -> Bucket:
        return self.buckets[index]

    def __len__(self) -> int:
        return len(self.buckets)


def split_lines(s: str) -> list[str]:
    """Split after every \\n, keeping it. \\r is ordinary content."""
    if not s:
        return []
    lines = s.split("\n")
    out = [line + "\n" for line in lines[:-1]]
    if lines[-1]:
        out.append(lines[-1])
    return out


# --- line-level histogram diff -------------------------------------------

def line_diff(source: str, target: str) -> list[tuple[str, int, int, int, int]]:
    """Line-level edit script as (tag, a0, a1, b0, b1) opcodes.

    Tags are 'equal', 'replace', 'delete', 'insert'; neighbouring ops never
    share a tag class (no two equal ops, no two change ops). Change blocks
    pair a run of deleted lines with a run of added lines. Anchors are chosen
    histogram style (see `_best_anchor`): a common line of lowest occurrence
    count, the one that comes first in the target.
    """
    return _histogram(split_lines(source), split_lines(target))


def _equal(out, a0, a1, b0, b1) -> None:
    """Append an equal op, extending the last op if it is equal too."""
    if out and out[-1][0] == "equal":
        _, a0, _, b0, _ = out.pop()
    out.append(("equal", a0, a1, b0, b1))


# Occurrence pairs of a region's rarest lines after which the anchor search
# takes no more lines (see `_region_anchor`).
ANCHOR_PAIRS = 256


def _index(a: list[str], b: list[str]) -> tuple[Counter, Counter, dict[str, int]]:
    """Each side's line counts, and each line's first index in a."""
    return Counter(a), Counter(b), dict(zip(reversed(a), range(len(a) - 1, -1, -1)))


def _histogram(a: list[str], b: list[str]) -> list[tuple[str, int, int, int, int]]:
    """`line_diff` of two line lists."""
    # Iterative in-order traversal; deep alternating diffs would otherwise
    # blow the recursion limit. An anchor or a common prefix or suffix sits
    # between any two change ops, so only equal ops ever need merging.
    out: list[tuple[str, int, int, int, int]] = []
    index = _index(a, b)
    stack: list[tuple] = [("region", 0, len(a), 0, len(b))]
    while stack:
        kind, alo, ahi, blo, bhi = stack.pop()
        if kind == "equal":
            _equal(out, alo, ahi, blo, bhi)
            continue
        pre = 0
        while alo + pre < ahi and blo + pre < bhi and a[alo + pre] == b[blo + pre]:
            pre += 1
        if pre:
            _equal(out, alo, alo + pre, blo, blo + pre)
            alo += pre
            blo += pre
        suf = 0
        while alo < ahi - suf and blo < bhi - suf and a[ahi - 1 - suf] == b[bhi - 1 - suf]:
            suf += 1
        if suf:
            stack.append(("equal", ahi - suf, ahi, bhi - suf, bhi))
            ahi -= suf
            bhi -= suf
        anchor = _best_anchor(a, alo, ahi, b, blo, bhi, index)
        if anchor is None:
            if alo < ahi and blo < bhi:
                out.append(("replace", alo, ahi, blo, bhi))
            elif alo < ahi:
                out.append(("delete", alo, ahi, blo, blo))
            elif blo < bhi:
                out.append(("insert", alo, alo, blo, bhi))
        else:
            i, j = anchor
            n = 1
            while i + n < ahi and j + n < bhi and a[i + n] == b[j + n]:
                n += 1
            stack.append(("region", i + n, ahi, j + n, bhi))
            stack.append(("equal", i, i + n, j, j + n))
            stack.append(("region", alo, i, blo, j))
    return out


def _best_anchor(a, alo, ahi, b, blo, bhi, index) -> tuple[int, int] | None:
    """Pick (i, j) anchoring a[alo:ahi] against b[blo:bhi], or None if the
    two share no line: the answer of `_region_anchor`, read off `_index(a, b)`
    where it can be.

    Walk b's region from blo past the lines that a's region does not hold. If
    the walk ends at bhi, the regions share no line. If the first line it
    meets is held once by each whole side, at a-index i with i - alo <
    ANCHOR_PAIRS, its rarity (2) is the lowest possible, no common line
    comes before it in b, and fewer than ANCHOR_PAIRS rarest lines (one pair
    each) come before it in a's region, so the region count would pick it
    too. Otherwise the region is counted. The lines walked past become the
    left sub-region, which holds no common line, so the walks of one diff
    cost O(len(b)) in all.
    """
    count_a, count_b, first_a = index
    for j in range(blo, bhi):
        n = count_a[b[j]]
        if n == 1 and not alo <= first_a[b[j]] < ahi:
            continue  # held by a only outside its region
        if n:
            i = first_a[b[j]]
            if n == 1 and count_b[b[j]] == 1 and i - alo < ANCHOR_PAIRS:
                return i, j
            return _region_anchor(a, alo, ahi, b, blo, bhi)
    return None


def _region_anchor(a, alo, ahi, b, blo, bhi) -> tuple[int, int] | None:
    """Pick (i, j) anchoring a[alo:ahi] against b[blo:bhi], or None if the
    two share no line.

    A line's rarity is its occurrence count on both sides together. The
    anchor line is, among the rarest common lines, the one whose first
    occurrence in b comes earliest; i and j are its first occurrences. The
    caller extends the match forward from (i, j) into a run; its length
    never affects the choice.

    Rarest lines compete in order of first occurrence in a, and only until
    their occurrence pairs (count_a * count_b per line) add up to
    ANCHOR_PAIRS. The cap bounds the search on a region of a few lines
    repeated many times, where the pairs grow quadratically; it decides
    which lines compete there, so the anchors, and the step documents built
    on them, depend on its value.
    """
    count_a = Counter(a[alo:ahi])
    count_b = Counter(b[blo:bhi])
    common = list(filter(count_b.__contains__, count_a))  # first-occurrence order in a
    if not common:
        return None
    rarest = min(map(add, map(count_a.__getitem__, common), map(count_b.__getitem__, common)))
    lines: set[str] = set()
    budget = ANCHOR_PAIRS
    for ln in common:
        n, m = count_a[ln], count_b[ln]
        if n + m == rarest:
            lines.add(ln)
            budget -= n * m
            if budget <= 0:
                break
    j = next(j for j in range(blo, bhi) if b[j] in lines)
    return a.index(b[j], alo, ahi), j


# --- token-level alignment -------------------------------------------------

Part = tuple[str, str]  # (lhs, rhs)


def _run_kind(part: Part) -> str:
    """Identity, insertion, deletion or substitution, told by the sides."""
    lhs, rhs = part
    return "=" if lhs == rhs else "+" if not lhs else "-" if not rhs else "~"


def _atoms(parts: list[Part]) -> tuple[Atom, ...]:
    """Coalesce identity, insertion and deletion runs of parts (each
    substitution stays its own atom), placed from offset 0."""
    atoms: list[Atom] = []
    lo = ro = 0
    for kind, run in groupby(parts, _run_kind):
        run = list(run)
        if kind != "~":
            lhs = "".join(map(itemgetter(0), run))
            run = [(lhs, lhs if kind == "=" else "".join(map(itemgetter(1), run)))]
        for lhs, rhs in run:
            atoms.append(Atom(lhs, rhs, lo, ro))
            lo += len(lhs)
            ro += len(rhs)
    return tuple(atoms)


def dissect(source: str, target: str, label: str) -> Bucket:
    """Break one coarse string edit into an ordered bucket of atoms."""
    parts: list[Part] = []
    a = split_lines(source)
    b = split_lines(target)
    for tag, a0, a1, b0, b1 in _histogram(a, b):
        del_text = "".join(a[a0:a1])
        add_text = "".join(b[b0:b1])
        if tag == "replace":
            parts.extend(_alignment(_token_texts(del_text), _token_texts(add_text)))
        else:
            parts.append((del_text, add_text))
    bucket = Bucket(label, _atoms(parts))
    assert bucket.source == source and bucket.target == target
    return bucket
