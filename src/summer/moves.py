"""Move rules: text movement (extract / inline) with capture and backreference.

A move rule is "if the antecedent matches, execute the consequent". The
antecedent's left side is a one-slot pattern (literal prefix, capture slot,
literal suffix); the consequent's right side is a template carrying a
backreference to the captured text. Extraction is many-to-one: the antecedent
rewrites each site the moved text left, the consequent inserts it (with the
site-local wording it captured) at the new location. Inlining mirrors this:
the same construction with the two site lists swapped.

The moved text is found by probing each inserted or deleted block for the
longest text that other edits share with it. An atom is an identity run or
an edit (align.Bucket.cores lists a bucket's edits); a shared range starts and
ends at an edit, so a probe walks only from them, reading runs whole.
Windows grow by context units around their range, as rewrite rules do.

Antecedent candidates are scored by simulating capture matching against the
corpus, because the lazy capture can under-reach when the suffix anchor is
too weak; only the simulation sees that.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import NamedTuple

from .align import Bucket, BucketSet, is_name_label
from .rules import (
    Candidate,
    Form,
    RuleMetrics,
    _expand,
    _literal_form,
    _select,
    _span,
    typed,
)
from .tokens import Joined, _aligned, _token_texts


@typed()
class MovePattern(NamedTuple):
    """One-slot pattern: literal_prefix [capture] literal_suffix."""

    literal_prefix: str
    literal_suffix: str

    def fill(self, capture: str) -> str:
        return self.literal_prefix + capture + self.literal_suffix


@typed()
class Antecedent(NamedTuple):
    """Capture-matching rewrite: pattern lhs, literal rhs."""

    lhs: MovePattern
    rhs: str


@typed()
class Consequent(NamedTuple):
    """Literal-matching rewrite whose rhs backreferences the capture."""

    lhs: str
    rhs: MovePattern


@typed(2)
class MoveRule(NamedTuple):
    antecedent: Antecedent
    consequent: Consequent
    metrics: RuleMetrics = RuleMetrics(0, 0)  # left out of equality and hash


def match_pattern(joined: Joined, pattern: MovePattern) -> list[tuple[int, int, int, int]]:
    """Leftmost non-overlapping capture matches as (start, end, cap0, cap1)
    in the joined text, each inside one text. The prefix and suffix must land
    on token boundaries; the capture is the lazily shortest nonempty
    boundary-to-boundary span before the first valid suffix occurrence. A
    prefix with no suffix before its text ends resumes the scan at the next.
    """
    prefix, suffix = pattern.literal_prefix, pattern.literal_suffix
    if not prefix or not suffix:
        raise ValueError("matching requires nonempty anchors around the capture")
    text, sep = joined.text, joined.sep
    out: list[tuple[int, int, int, int]] = []
    if sep in prefix or sep in suffix:
        return out
    i = next(_aligned(text, prefix), -1)
    while i >= 0:
        cap0 = i + len(prefix)
        cap1 = next(_aligned(text, suffix, cap0 + 1), -1)
        if cap1 < 0:
            return out  # a later prefix site has no suffix after it either
        stop = text.find(sep, cap0, cap1)
        if stop >= 0:
            i = next(_aligned(text, prefix, stop + 1), -1)
            continue
        end = cap1 + len(suffix)
        out.append((i, end, cap0, cap1))
        i = next(_aligned(text, prefix, end), -1)
    return out


# --- shared-substring search -------------------------------------------------

def _is_trivial(s: str) -> bool:
    """Fewer than three tokens, or no letter or digit token (a token is one
    exactly when its first character is)."""
    texts = _token_texts(s)
    return len(texts) < 3 or not any(t[0].isalpha() or t[0].isdecimal() for t in texts)


def _searchable(buckets: BucketSet) -> list[int]:
    return [i for i, bucket in enumerate(buckets) if not is_name_label(bucket.label)]


Range = tuple[int, int, int]  # (bucket index, atom lo, atom hi exclusive)


def _longest_shared(
    probe: str, buckets: BucketSet, side: str
) -> tuple[str, int, list[Range]] | None:
    """Longest atom-aligned substring of the probe found on `side` of edits,
    its first token-aligned offset in the probe, and its leftmost
    non-overlapping occurrences in each bucket.

    Candidate ranges start and end at edit atoms with a nonempty `side`
    (deletions and substitutions for side lhs, insertions and substitutions
    for side rhs), so a probe walks only from a bucket's edit atoms; identity
    runs may appear inside. The probe occurrence must sit on probe token
    boundaries. An occurrence of the final best scanned before the range that
    made it best would have made it best itself, so one scan collects them
    all; overlaps within a bucket are then dropped, leftmost first.
    """
    best, offset = "", -1
    found: list[Range] = []
    for bidx in _searchable(buckets):
        atoms = buckets[bidx].atoms
        for u in buckets[bidx].cores:
            text = ""
            for v in range(u, len(atoms)):
                atom = atoms[v]
                part = getattr(atom, side)
                text += part
                if not text or len(text) > len(probe) or text not in probe:
                    break
                if not part or atom.lhs == atom.rhs:
                    continue
                if len(text) > len(best):
                    first = next(_aligned(probe, text), -1)
                    if first >= 0:
                        best, offset, found = text, first, []
                if text == best:
                    found.append((bidx, u, v + 1))
    if not best or _is_trivial(best):
        return None
    occurrences = found[:1]
    for b, lo, hi in found[1:]:
        if occurrences[-1][0] != b or occurrences[-1][2] <= lo:
            occurrences.append((b, lo, hi))
    return best, offset, occurrences


# --- candidate construction ---------------------------------------------------

def _antecedent_form(bucket: Bucket, core: int, offset: int, n: int) -> Form:
    """Form of the capture patterns around an atom range starting at atom
    `core`, whose lhs holds the moved text (length n) `offset` characters in;
    the capture slot replaces it."""
    source, target = bucket.source, bucket.target
    slot = bucket.atoms[core].lhs_start + offset

    def order(s: int, e: int, t: int, u: int) -> tuple | None:
        prefix, suffix = source[s:slot], source[slot + n : e]
        if not prefix or not suffix:
            return None
        return (len(prefix) + len(suffix), prefix, suffix, target[t:u])

    def build(order: tuple, j: int, k: int, t: int) -> tuple:
        _, prefix, suffix, rhs = order
        pattern = MovePattern(prefix, suffix)

        def matcher(joined: Joined) -> list[tuple[int, int]]:
            return [m[:2] for m in match_pattern(joined, pattern)]

        return Antecedent(pattern, rhs), matcher, rhs

    return order, build


def _consequent_form(bucket: Bucket, core: int, offset: int, n: int) -> Form:
    """Form of the consequents around an atom range starting at atom `core`,
    whose rhs holds the moved text (length n) `offset` characters in; the
    capture slot replaces it."""
    slot = bucket.atoms[core].rhs_start + offset

    def consequent(j: int, k: int, t: int, lhs: str, rhs: str) -> Consequent:
        return Consequent(lhs, MovePattern(rhs[: slot - t], rhs[slot - t + n :]))

    return _literal_form(bucket, consequent)


def _best(
    buckets: BucketSet, sites: list, form_at: Callable, n: int, window: int
) -> Candidate | None:
    """Best precise candidate that `form_at` builds around any of the sites
    (bucket index, lo, hi, offset of the moved text of length n)."""
    pool: dict = {}
    for b, lo, hi, offset in sites:
        form = form_at(buckets[b], lo, offset, n)
        _expand(buckets, b, lo, hi, window, pool, form)
    return next(_select(pool.values(), buckets), None)


def find_move(buckets: BucketSet, bucket_index: int, core: int, pool: dict, window: int) -> None:
    """Extraction or inlining around the edit at atom `core` of a bucket; adds
    at most one move to the pool.

    An insertion is an extraction target: text deleted at one or more sites
    (side "lhs") reappears inside the inserted block. A deletion is an
    inlined definition: its text reappears on the changed side (side "rhs")
    of one or more other edits. The antecedent captures the moved text where
    it was deleted; the consequent writes it back where it was inserted.
    """
    atom = buckets[bucket_index].atoms[core]
    if atom.lhs and atom.rhs:  # an identity run or a substitution
        raise ValueError("find_move requires an insertion or deletion edit")
    side, own = ("rhs", atom.lhs) if atom.lhs else ("lhs", atom.rhs)
    found = _longest_shared(own, buckets, side)
    if found is None:
        return
    s, off, occurrences = found
    here = [(bucket_index, core, core + 1, off)]
    there = [(b, lo, hi, 0) for b, lo, hi in occurrences]  # each reads exactly s
    # The moved text is deleted at the antecedent's sites and inserted at the
    # consequent's.
    a_sites, c_sites = (there, here) if side == "lhs" else (here, there)
    a_best = _best(buckets, a_sites, _antecedent_form, len(s), window)
    if a_best is None:
        return
    c_best = _best(buckets, c_sites, _consequent_form, len(s), window)
    if c_best is None:
        return
    move = MoveRule(a_best.rule, c_best.rule, a_best.metrics + c_best.metrics)
    if move in pool:
        return
    a, c = move.antecedent, move.consequent
    order = (
        -len(s),
        len(a.lhs.literal_prefix) + len(a.lhs.literal_suffix) + len(c.lhs),
        a.lhs.literal_prefix,
        a.lhs.literal_suffix,
        c.lhs,
    )
    # A move claims every occurrence of the moved text, not only the cores
    # its chosen antecedent and consequent grew from.
    claims = a_best.claims + c_best.claims
    claims += [(b, _span(buckets[b].atoms, lo, hi)) for b, lo, hi in occurrences]
    pool[move] = Candidate(move, move.metrics, order, claims)


def get_precise_move(buckets: BucketSet, window: int) -> list[MoveRule]:
    """All retained move rules, best first, pairwise non-overlapping."""
    pool: dict = {}
    for bucket_index in _searchable(buckets):
        bucket = buckets[bucket_index]
        for core in bucket.cores:
            atom = bucket.atoms[core]
            if not (atom.lhs and atom.rhs):  # an insertion or a deletion
                find_move(buckets, bucket_index, core, pool, window)
    return [c.rule for c in _select(pool.values())]


# --- application ---------------------------------------------------------------

class MoveApplication(NamedTuple):
    texts: dict[str, str]
    captures: list[str]
    antecedent_sites: list[tuple[str, int, int]]  # (key, start, end)
    consequent_sites: list[tuple[str, int, int]]
    soft_conflict: bool


def apply_move(texts: dict[str, str], move: MoveRule) -> MoveApplication:
    """Run one move over a keyed set of texts, joined into one. Phase one
    rewrites every antecedent match and records captures; phase two expands
    the consequent with the first capture and rewrites its matches. Sites are
    offsets into each text as its phase found it. Zero-match policies (skip
    vs conflict) are the caller's business."""
    keys = list(texts)
    joined = Joined.of(list(texts.values()))
    matches = match_pattern(joined, move.antecedent.lhs)
    if not matches:
        return MoveApplication(dict(texts), [], [], [], False)
    captures = [joined.text[c0:c1] for _, _, c0, c1 in matches]
    a_sites = [(keys[i], p, p + e - s) for s, e, _, _ in matches for i, p in [joined.locate(s)]]
    joined = joined.splice([m[:2] for m in matches], move.antecedent.rhs)
    out, spans = joined.rewrite(move.consequent.lhs, move.consequent.rhs.fill(captures[0]))
    c_sites = [(keys[i], p, p + e - s) for s, e in spans for i, p in [joined.locate(s)]]
    return MoveApplication(
        dict(zip(keys, out.split())), captures, a_sites, c_sites, len(set(captures)) > 1
    )
