"""Exact Levenshtein distances and minimal token alignments.

Unbounded distances use Myers' bit-parallel algorithm with Python big ints as
bit vectors, so whole-file character distances stay tractable without C
extensions. One diagonal-transition search (Ukkonen 1985; Myers 1986) serves
both bounded distances (`limit=k`) and token alignment paths: k + 1 levels
of at most k - gap + 1 diagonals, C-speed slice comparisons along them, and
memory that grows with the band of diagonals kept, not with the input size.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Hashable, Iterable, Iterator, Sequence
from itertools import accumulate


def _common_prefix(a: Sequence, i: int, b: Sequence, j: int) -> int:
    """Length of the common prefix of a[i:] and b[j:].

    Gallops over doubling slice lengths until one differs, then bisects the
    last step; every comparison is one C-speed slice comparison, so a run of
    length L costs O(log L) Python steps and O(L) compared items.
    """
    n = min(len(a) - i, len(b) - j)
    lo, step = 0, 1  # a[i:i+lo] == b[j:j+lo]
    while lo < n:
        hi = min(n, lo + step)
        if a[i + lo : i + hi] != b[j + lo : j + hi]:
            break
        lo, step = hi, step * 2
    else:
        return n
    while hi - lo > 1:  # the first difference lies in [lo, hi)
        mid = (lo + hi) // 2
        if a[i + lo : i + mid] == b[j + lo : j + mid]:
            lo = mid
        else:
            hi = mid
    return lo


def _trim_common(a: Sequence, b: Sequence) -> tuple[Sequence, Sequence]:
    head = _common_prefix(a, 0, b, 0)
    a, b = a[head:], b[head:]
    tail = _common_prefix(a[::-1], 0, b[::-1], 0)
    return a[: len(a) - tail], b[: len(b) - tail]


def _bit_vector_cheaper(n: int, m: int, k: int) -> bool:
    """Whether Myers' full bit-vector costs less than a diagonal search to k.

    Level e of the search keeps the diagonals within e of diagonal 0 and
    within k - e of the end one, g = n - m away: ((k+1)² - g²)/2 in all,
    about. The bit-vector runs n rows of big-int operations on ⌈m/64⌉-word
    integers. Timed on CPython 3.11 (x86-64) over ladder and corpus text, in
    units of one word of a row (0.04-0.07 µs): a row costs ⌈m/64⌉ + 20, a
    kept diagonal 8-11 (taken as 12) and a level 68-91 (taken as 80). On
    17.8k-character texts the search runs to k = 934, or 2,045 at g = 1,800.
    """
    return 6 * ((k + 1) ** 2 - (n - m) ** 2) + 80 * (k + 1) > n * (-(-m // 64) + 20)


def levenshtein(
    a: Sequence[Hashable], b: Sequence[Hashable], *, limit: int | None = None
) -> int:
    """Unit-cost edit distance between two sequences (strings included).

    With `limit`, a distance over `limit` is reported as `limit + 1`, unless
    it was computed in full anyway (an empty side, or inputs on which the
    bit-vector costs less than the bounded search). So a result other than
    `limit + 1` is always the exact distance.
    """
    a, b = _trim_common(a, b)
    if not a or not b:
        return len(a) + len(b)
    if len(a) < len(b):
        a, b = b, a
    if limit is not None:
        if len(a) - len(b) > limit:
            return limit + 1
        if not _bit_vector_cheaper(len(a), len(b), limit):
            levels = enumerate(_frontiers(a, b, limit))
            return next((e for e, lv in levels if _reaches(lv, len(b) - len(a), len(a))), limit + 1)
    return _bit_vector(a, b)


def _frontiers(a: Sequence, b: Sequence, k: int) -> Iterator[tuple[int, list[int]]]:
    """Ukkonen 1985 / Landau-Vishkin: level e's frontier (lo, row), e = 0..k.

    row[d - lo + 2] is the furthest row i on diagonal d = j - i that e edits
    reach, derived from level e-1 on diagonals d-1, d, d+1, then slid along
    matches. Only the band of diagonals that can still reach the end diagonal
    within k edits is kept, and its neighbours never need the others, so each
    kept row is exact. Two sentinels pad each side of a band-wide row.
    """
    n, m = len(a), len(b)
    end = m - n
    unreached = -n - m - 2
    plo, prev = 0, [unreached, unreached, -1, unreached, unreached]  # row 0 of diagonal 0
    for e in range(k + 1):
        lo = max(-e, end - (k - e))
        row = [unreached, unreached]
        for x, d in enumerate(range(lo, min(e, end + (k - e)) + 1), lo - plo + 2):
            i = min(max(prev[x] + 1, prev[x + 1] + 1, prev[x - 1]), n, m - d)
            if i < n and i + d < m and a[i] == b[i + d]:
                i += _common_prefix(a, i, b, i + d)
            row.append(i)
        row += (unreached, unreached)
        yield lo, row
        plo, prev = lo, row


def _reaches(level: tuple[int, list[int]], d: int, i: int) -> bool:
    """Whether a frontier holds diagonal d at row i or further."""
    lo, row = level
    x = d - lo + 2
    return 0 <= x < len(row) and row[x] >= i


def _alignment(a: Sequence[str], b: Sequence[str]) -> list[tuple[str, str]]:
    """Minimal-cost parts of token lists, (x, x), (x, ""), ("", y) or (x, y),
    walked left to right: equal tokens match, else sub > del > ins while the
    cost stays minimal. dist(a[i:], b[j:]) <= t is one lookup in the frontiers
    of the reversed lists searched to the exact distance (level t, diagonal
    (m - j) - (n - i), row n - i); the walk asks it only of cells next to a
    minimal path, which lie in the searched band."""
    n, m = len(a), len(b)
    c = levenshtein(a, b)  # dist(a[i:], b[j:]) as the walk goes
    levels = list(_frontiers(a[::-1], b[::-1], c))
    parts: list[tuple[str, str]] = []
    i = j = 0
    while i < n or j < m:
        d, rest = (m - j) - (n - i), n - i - 1
        if i < n and j < m and (a[i] == b[j] or _reaches(levels[c - 1], d, rest)):
            c -= a[i] != b[j]
            parts.append((a[i], b[j]))
            i, j = i + 1, j + 1
        elif i < n and _reaches(levels[c - 1], d + 1, rest):
            parts.append((a[i], ""))
            c, i = c - 1, i + 1
        else:
            parts.append(("", b[j]))
            c, j = c - 1, j + 1
    return parts


def _bit_vector(a: Sequence, b: Sequence) -> int:
    # Myers 1999, column-wise over pattern b.
    m = len(b)
    masks: dict[Hashable, int] = {}
    for i, item in enumerate(b):
        masks[item] = masks.get(item, 0) | (1 << i)
    vp = (1 << m) - 1
    vn = 0
    score = m
    high_bit = 1 << (m - 1)
    for item in a:
        eq = masks.get(item, 0)
        xv = eq | vn
        d0 = (((eq & vp) + vp) ^ vp) | xv
        hp = vn | ~(d0 | vp)
        hn = d0 & vp
        if hp & high_bit:
            score += 1
        elif hn & high_bit:
            score -= 1
        hp = (hp << 1) | 1
        hn = hn << 1
        vp = hn | ~(d0 | hp)
        vn = d0 & hp
    return score


def _bags(seqs: Iterable[Iterable[Hashable]]) -> list[int]:
    """Multisets as bit sets: each item owns a block of bits as wide as its
    largest count in any of the sequences, and a sequence holding it c times
    sets the block's low c bits. So |a ∩ b| of two multisets is
    (a & b).bit_count(), and |a| is a.bit_count()."""
    counts = [Counter(seq) for seq in seqs]
    width: Counter = Counter()
    for count in counts:
        width |= count
    low = dict(zip(width, accumulate(width.values(), initial=0)))
    return [sum(((1 << c) - 1) << low[item] for item, c in count.items()) for count in counts]


def _bag_distance(a: int, b: int) -> int:
    """max(|a|, |b|) - |a ∩ b| for sequences given as `_bags`: a lower bound
    on their Levenshtein distance (Bartolini, Ciaccia and Patella 2002), since
    an alignment with d edits matches at least max(|a|, |b|) - d shared items."""
    return max(a.bit_count(), b.bit_count()) - (a & b).bit_count()


def similarity(a: Sequence[Hashable], b: Sequence[Hashable]) -> float:
    """Normalized edit similarity in [0, 1]; empty-vs-empty counts as 1."""
    longest = max(len(a), len(b))
    if longest == 0:
        return 1.0
    return 1.0 - levenshtein(a, b) / longest
