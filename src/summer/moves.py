"""Move rules: text movement (extract / inline) with capture and backreference.

A move rule is "if the antecedent matches, execute the consequent". The
antecedent's left side is a one-slot pattern (literal prefix, capture slot,
literal suffix); the consequent's right side is a template carrying a
backreference to the captured text. Extraction is many-to-one: the antecedent
rewrites each site the moved text left, the consequent inserts it (with the
site-local wording it captured) at the new location. Inlining mirrors this.

Antecedent candidates are scored by simulating capture matching against the
corpus, because the lazy capture can under-reach when the suffix anchor is
too weak; only the simulation sees that.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .align import Atom, BucketSet, EditInstance
from .rules import (
    Candidate,
    RuleMetrics,
    _expand,
    _literal_form,
    _select,
    _span,
    apply_rewrite_to_text,
)
from .tokens import CharCategory, _find_aligned, find_matches, tokenize_cached


@dataclass(frozen=True, slots=True)
class MovePattern:
    """One-slot pattern: literal_prefix [capture] literal_suffix."""

    literal_prefix: str
    literal_suffix: str

    def fill(self, capture: str) -> str:
        return self.literal_prefix + capture + self.literal_suffix


@dataclass(frozen=True, slots=True)
class Antecedent:
    """Capture-matching rewrite: pattern lhs, literal rhs."""

    lhs: MovePattern
    rhs: str


@dataclass(frozen=True, slots=True)
class Consequent:
    """Literal-matching rewrite whose rhs backreferences the capture."""

    lhs: str
    rhs: MovePattern


@dataclass(frozen=True, slots=True)
class MoveRule:
    antecedent: Antecedent
    consequent: Consequent
    metrics: RuleMetrics = field(default=RuleMetrics(0, 0), compare=False)


@dataclass(frozen=True, slots=True)
class SharedSubstring:
    """The moved text and the edits whose changed side contains it."""

    s: str
    sites: tuple[tuple[int, int], ...]  # (bucket index, edit index)


@dataclass(frozen=True, slots=True)
class _Occurrence:
    bucket: int
    lo: int  # atom range, inclusive
    hi: int  # atom range, exclusive
    edit_index: int


def match_pattern(text: str, pattern: MovePattern) -> list[tuple[int, int, int, int]]:
    """Leftmost non-overlapping capture matches as (start, end, cap0, cap1).

    The prefix and suffix must land on token boundaries; the capture is the
    lazily shortest nonempty boundary-to-boundary span before the first valid
    suffix occurrence.
    """
    prefix, suffix = pattern.literal_prefix, pattern.literal_suffix
    if not prefix or not suffix:
        raise ValueError("matching requires nonempty anchors around the capture")
    out: list[tuple[int, int, int, int]] = []
    i = _find_aligned(text, prefix, 0)
    while i >= 0:
        cap0 = i + len(prefix)
        cap1 = _find_aligned(text, suffix, cap0 + 1)
        if cap1 < 0:
            return out  # a later prefix site has no suffix after it either
        end = cap1 + len(suffix)
        out.append((i, end, cap0, cap1))
        i = _find_aligned(text, prefix, end)
    return out


# --- shared-substring search -------------------------------------------------

def _contribution(atom: Atom, side: str) -> str:
    return atom.lhs if side == "lhs" else atom.rhs


def _qualifies(atom: Atom, side: str) -> bool:
    return atom.edit_index is not None and bool(_contribution(atom, side))


def _is_trivial(s: str) -> bool:
    toks = tokenize_cached(s).tokens
    if len(toks) < 3:
        return True
    return not any(
        t.category in (CharCategory.LETTER, CharCategory.DIGIT) for t in toks
    )


def _searchable(buckets: BucketSet) -> list[int]:
    return [i for i, bucket in enumerate(buckets) if not bucket.label.startswith("name:")]


def _longest_shared(
    probe: str, buckets: BucketSet, side: str
) -> tuple[str, list[_Occurrence]] | None:
    """Longest atom-aligned substring of the probe found on `side` of edits,
    and its leftmost non-overlapping occurrences in each bucket.

    Candidate ranges start and end at deletion/substitution atoms (side lhs)
    or insertion/substitution atoms (side rhs); identity atoms may appear
    inside. The probe occurrence must sit on probe token boundaries. An
    occurrence of the final best scanned before the range that made it best
    would have made it best itself, so one scan collects them all; overlaps
    within a bucket are then dropped, leftmost first.
    """
    best = ""
    found: list[_Occurrence] = []
    for bidx in _searchable(buckets):
        atoms = buckets[bidx].atoms
        for u, first in enumerate(atoms):
            if not _qualifies(first, side):
                continue
            text = ""
            for v in range(u, len(atoms)):
                text += _contribution(atoms[v], side)
                if len(text) > len(probe) or text not in probe:
                    break
                if not _qualifies(atoms[v], side):
                    continue
                if len(text) > len(best) and find_matches(probe, text):
                    best, found = text, []
                if text == best:
                    found.append(_Occurrence(bidx, u, v + 1, first.edit_index))
    if not best or _is_trivial(best):
        return None
    occurrences: list[_Occurrence] = []
    for o in found:
        last = occurrences[-1] if occurrences else None
        if last is None or last.bucket != o.bucket or last.hi <= o.lo:
            occurrences.append(o)
    return best, occurrences


def find_longest_shared(
    edit: EditInstance, buckets: BucketSet, side: str
) -> SharedSubstring | None:
    """Public probe: side='lhs' matches the edit's rhs against deletion and
    substitution sources elsewhere; side='rhs' mirrors it for inlining."""
    probe = edit.rhs if side == "lhs" else edit.lhs
    if not probe:
        return None
    found = _longest_shared(probe, buckets, side)
    if found is None:
        return None
    s, occurrences = found
    return SharedSubstring(s, tuple((o.bucket, o.edit_index) for o in occurrences))


# --- candidate construction ---------------------------------------------------

def _antecedent_form(atoms: tuple[Atom, ...], core_lo: int, core_hi: int, head: str, tail: str):
    """Form of the capture patterns around the atom range [core_lo, core_hi),
    whose lhs reads head + capture + tail."""

    def form(j: int, k: int, lo: int, hi: int):
        prefix = "".join(a.lhs for a in atoms[lo:core_lo]) + head
        suffix = tail + "".join(a.lhs for a in atoms[core_hi:hi])
        if not prefix or not suffix:
            return None
        rhs = "".join(a.rhs for a in atoms[lo:hi])
        pattern = MovePattern(prefix, suffix)
        return (
            Antecedent(pattern, rhs),
            (len(prefix) + len(suffix), prefix, suffix, rhs),
            lambda source: [m[:2] for m in match_pattern(source, pattern)],
            rhs,
        )

    return form


def _consequent_form(atoms: tuple[Atom, ...], core_lo: int, offset: int, n: int):
    """Form of the consequents around a core whose rhs holds the moved text
    (length n) `offset` characters in; the capture slot replaces it."""

    def consequent(j: int, k: int, lo: int, lhs: str, rhs: str) -> Consequent:
        slot = atoms[core_lo].rhs_start - atoms[lo].rhs_start + offset
        return Consequent(lhs, MovePattern(rhs[:slot], rhs[slot + n :]))

    return _literal_form(atoms, consequent)


def _best(pool: dict) -> Candidate | None:
    return min(
        (c for c in pool.values() if c.metrics.precise), key=Candidate.rank, default=None
    )


def find_move(
    buckets: BucketSet, bucket_index: int, core: int, pool: dict, cfg
) -> None:
    """Extraction or inlining around the edit at atom `core` of a bucket; adds
    at most one move to the pool.

    An insertion is an extraction target: text deleted at one or more sites
    (side "lhs") reappears inside the inserted block. A deletion is an
    inlined definition: its text reappears on the changed side (side "rhs")
    of one or more other edits. The antecedent captures the moved text where
    it was deleted; the consequent writes it back where it was inserted.
    """
    atom = buckets[bucket_index].atoms[core]
    if atom.lhs and atom.rhs:  # an identity token or a substitution
        raise ValueError("find_move requires an insertion or deletion edit")
    side, own = ("rhs", atom.lhs) if atom.lhs else ("lhs", atom.rhs)
    found = _longest_shared(own, buckets, side)
    if found is None:
        return
    s, occurrences = found
    s_in_own = find_matches(own, s)
    if not s_in_own:
        return
    off = s_in_own[0]
    if side == "lhs":
        # Each deletion site is captured whole; the block holds s at `off`.
        a_cores = [(o.bucket, o.lo, o.hi, "", "") for o in occurrences]
        c_cores = [(bucket_index, core, core + 1, off)]
    else:
        # The definition is captured inside its own lhs; each reuse site's
        # rhs is exactly s.
        head, tail = atom.lhs[:off], atom.lhs[off + len(s) :]
        a_cores = [(bucket_index, core, core + 1, head, tail)]
        c_cores = [(o.bucket, o.lo, o.hi, 0) for o in occurrences]
    a_pool: dict = {}
    for b, lo, hi, head, tail in a_cores:
        form = _antecedent_form(buckets[b].atoms, lo, hi, head, tail)
        _expand(buckets, b, lo, hi, cfg.window, a_pool, form)
    a_best = _best(a_pool)
    if a_best is None:
        return
    c_pool: dict = {}
    for b, lo, hi, offset in c_cores:
        form = _consequent_form(buckets[b].atoms, lo, offset, len(s))
        _expand(buckets, b, lo, hi, cfg.window, c_pool, form)
    c_best = _best(c_pool)
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
    claims += [(o.bucket, _span(buckets[o.bucket].atoms, o.lo, o.hi)) for o in occurrences]
    pool[move] = Candidate(move, move.metrics, order, claims)


def get_precise_move(buckets: BucketSet, cfg) -> list[MoveRule]:
    """All retained move rules, best first, pairwise non-overlapping."""
    pool: dict = {}
    for bucket_index in _searchable(buckets):
        for core, atom in enumerate(buckets[bucket_index].atoms):
            if not (atom.lhs and atom.rhs):  # an insertion or a deletion
                find_move(buckets, bucket_index, core, pool, cfg)
    return [c.rule for c in _select(pool.values())]


# --- application ---------------------------------------------------------------

@dataclass
class MoveApplication:
    texts: dict[str, str]
    captures: list[str]
    antecedent_sites: list[tuple[str, int, int]]
    consequent_sites: list[tuple[str, int, int]]
    soft_conflict: bool
    after_antecedent: dict[str, str] = field(default_factory=dict)  # post phase one


def apply_move(texts: dict[str, str], move: MoveRule) -> MoveApplication:
    """Run one move over a keyed set of texts.

    Phase one rewrites every antecedent match and records captures; phase two
    expands the consequent with the first capture and rewrites its matches.
    Zero-match policies (skip vs conflict) are the caller's business.
    """
    captures: list[str] = []
    a_sites: list[tuple[str, int, int]] = []
    after_a: dict[str, str] = {}
    for key, text in texts.items():
        matches = match_pattern(text, move.antecedent.lhs)
        if not matches:
            after_a[key] = text
            continue
        pieces: list[str] = []
        pos = 0
        for start, end, c0, c1 in matches:
            captures.append(text[c0:c1])
            a_sites.append((key, start, end))
            pieces.append(text[pos:start])
            pieces.append(move.antecedent.rhs)
            pos = end
        pieces.append(text[pos:])
        after_a[key] = "".join(pieces)
    if not captures:
        return MoveApplication(dict(texts), [], [], [], False, dict(texts))
    replacement = move.consequent.rhs.fill(captures[0])
    c_sites: list[tuple[str, int, int]] = []
    out: dict[str, str] = {}
    for key, text in after_a.items():
        new_text, sites = apply_rewrite_to_text(text, move.consequent.lhs, replacement)
        out[key] = new_text
        c_sites.extend((key, s0, s1) for s0, s1 in sites)
    return MoveApplication(
        out,
        captures,
        a_sites,
        c_sites,
        soft_conflict=len(set(captures)) > 1,
        after_antecedent=after_a,
    )
