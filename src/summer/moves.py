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

from .align import Bucket, BucketSet, EditInstance, EditKind
from .rules import (
    Atom,
    ClaimMap,
    RuleMetrics,
    Scorer,
    apply_rewrite_to_text,
)
from .tokens import CharCategory, _find_aligned, find_matches, tokenize_cached


@dataclass(frozen=True, slots=True)
class MovePattern:
    """One-slot pattern: literal_prefix [capture] literal_suffix."""

    literal_prefix: str
    has_capture: bool
    literal_suffix: str

    def fill(self, capture: str) -> str:
        if not self.has_capture:
            return self.literal_prefix + self.literal_suffix
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
    if not pattern.has_capture or not prefix or not suffix:
        raise ValueError("matching requires a capture slot with nonempty anchors")
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
    return [
        i for i, b in enumerate(buckets.buckets) if not b.label.startswith("name:")
    ]


def _longest_shared(
    probe: str, buckets: BucketSet, scorer: Scorer, side: str
) -> tuple[str, list[_Occurrence]] | None:
    """Longest atom-aligned substring of the probe found on `side` of edits.

    Candidate ranges start and end at deletion/substitution atoms (side lhs)
    or insertion/substitution atoms (side rhs); identity atoms may appear
    inside. The probe occurrence must sit on probe token boundaries.
    """
    best = ""
    searchable = _searchable(buckets)
    for bidx in searchable:
        atoms = scorer.atoms(bidx)
        n = len(atoms)
        for u in range(n):
            if not _qualifies(atoms[u], side):
                continue
            text = ""
            for v in range(u, n):
                text += _contribution(atoms[v], side)
                if len(text) > len(probe) or text not in probe:
                    break
                if (
                    _qualifies(atoms[v], side)
                    and len(text) > len(best)
                    and find_matches(probe, text)
                ):
                    best = text
    if not best or _is_trivial(best):
        return None
    occurrences: list[_Occurrence] = []
    for bidx in searchable:
        atoms = scorer.atoms(bidx)
        n = len(atoms)
        u = 0
        while u < n:
            if not _qualifies(atoms[u], side):
                u += 1
                continue
            text = ""
            matched_hi = -1
            for v in range(u, n):
                text += _contribution(atoms[v], side)
                if len(text) > len(best) or not best.startswith(text):
                    break
                if text == best and _qualifies(atoms[v], side):
                    matched_hi = v + 1
                    break
            if matched_hi > 0:
                occurrences.append(
                    _Occurrence(bidx, u, matched_hi, atoms[u].edit_index)
                )
                u = matched_hi
            else:
                u += 1
    if not occurrences:
        return None
    return best, occurrences


def find_longest_shared(
    edit: EditInstance, buckets: BucketSet, side: str
) -> SharedSubstring | None:
    """Public probe: side='lhs' matches the edit's rhs against deletion and
    substitution sources elsewhere; side='rhs' mirrors it for inlining."""
    probe = edit.rhs if side == "lhs" else edit.lhs
    if not probe:
        return None
    found = _longest_shared(probe, buckets, Scorer(buckets), side)
    if found is None:
        return None
    s, occurrences = found
    return SharedSubstring(s, tuple((o.bucket, o.edit_index) for o in occurrences))


# --- candidate construction ---------------------------------------------------

@dataclass
class _PatternCandidate:
    pattern: MovePattern
    rhs: str
    metrics: RuleMetrics
    tp_sites: list[tuple[int, int, int]]
    span: tuple[int, int]
    bucket: int


@dataclass
class _PlainCandidate:
    lhs: str
    rhs: str
    slot: int  # capture-slot offset within rhs
    metrics: RuleMetrics
    tp_sites: list[tuple[int, int, int]]
    span: tuple[int, int]
    bucket: int


def _usable(metrics: RuleMetrics) -> bool:
    return metrics.tp >= 1 and metrics.precision > 0.5


def _pattern_rank(c: _PatternCandidate):
    return (
        -c.metrics.precision,
        -c.metrics.tp,
        len(c.pattern.literal_prefix) + len(c.pattern.literal_suffix),
        c.pattern.literal_prefix,
        c.pattern.literal_suffix,
        c.rhs,
    )


def _plain_rank(c: _PlainCandidate):
    return (-c.metrics.precision, -c.metrics.tp, len(c.lhs), c.lhs, c.rhs)


def _span(atoms: list[Atom], lo: int, hi: int) -> tuple[int, int]:
    return (atoms[lo].lhs_span[0], atoms[hi - 1].lhs_span[1])


def _antecedent_candidates_around(
    bucket_index: int,
    core_lo: int,
    core_hi: int,
    head: str,
    tail: str,
    scorer: Scorer,
    window: int,
    seen: set,
) -> list[_PatternCandidate]:
    """Capture-pattern expansions of the atom range [core_lo, core_hi), whose
    lhs reads head + capture + tail; `seen` skips keys already scored."""
    atoms = scorer.atoms(bucket_index)
    out: list[_PatternCandidate] = []
    for j in range(window + 1):
        lo = max(0, core_lo - j)
        prefix = "".join(a.lhs for a in atoms[lo:core_lo]) + head
        if not prefix:
            continue
        for k in range(window + 1):
            hi = min(len(atoms), core_hi + k)
            suffix = tail + "".join(a.lhs for a in atoms[core_hi:hi])
            if not suffix:
                continue
            rhs = "".join(a.rhs for a in atoms[lo:hi])
            key = (prefix, suffix, rhs)
            if key in seen:
                continue
            seen.add(key)
            pattern = MovePattern(prefix, True, suffix)
            metrics, sites = scorer.score_matches(
                lambda source: [m[:2] for m in match_pattern(source, pattern)], rhs
            )
            out.append(
                _PatternCandidate(
                    pattern, rhs, metrics, sites, _span(atoms, lo, hi), bucket_index
                )
            )
    return [c for c in out if _usable(c.metrics)]


def _consequent_candidates_around(
    bucket_index: int,
    core_lo: int,
    core_hi: int,
    s_offset_in_core: int,
    scorer: Scorer,
    window: int,
    seen: set,
) -> list[_PlainCandidate]:
    """Plain-rule expansions of the atom range [core_lo, core_hi); the capture
    slot lands at `s_offset_in_core` characters into the range's rhs."""
    atoms = scorer.atoms(bucket_index)
    out: list[_PlainCandidate] = []
    for j in range(window + 1):
        lo = max(0, core_lo - j)
        for k in range(window + 1):
            hi = min(len(atoms), core_hi + k)
            lhs = "".join(a.lhs for a in atoms[lo:hi])
            rhs = "".join(a.rhs for a in atoms[lo:hi])
            if not lhs or lhs == rhs or (lhs, rhs) in seen:
                continue
            seen.add((lhs, rhs))
            slot = (
                sum(len(a.rhs) for a in atoms[lo:core_lo]) + s_offset_in_core
            )
            metrics, sites = scorer.score(lhs, rhs)
            out.append(
                _PlainCandidate(
                    lhs, rhs, slot, metrics, sites, _span(atoms, lo, hi), bucket_index
                )
            )
    return [c for c in out if _usable(c.metrics)]


@dataclass
class MoveEntry:
    move: MoveRule
    shared_len: int
    claims: list[tuple[int, tuple[int, int]]]


class MovePool:
    def __init__(self) -> None:
        self.entries: dict[tuple, MoveEntry] = {}

    def add(self, entry: MoveEntry) -> None:
        a, c = entry.move.antecedent, entry.move.consequent
        key = (
            a.lhs.literal_prefix,
            a.lhs.literal_suffix,
            a.rhs,
            c.lhs,
            c.rhs.literal_prefix,
            c.rhs.literal_suffix,
        )
        if key not in self.entries:
            self.entries[key] = entry

    def values(self) -> list[MoveEntry]:
        return list(self.entries.values())


def _bucket_position(buckets: BucketSet, b: Bucket) -> int:
    return next(idx for idx, bb in enumerate(buckets.buckets) if bb is b)


def find_move(
    i: int,
    b: Bucket,
    buckets: BucketSet,
    pool: MovePool,
    cfg,
    scorer: Scorer | None = None,
) -> None:
    """Extraction or inlining around edit i; adds at most one move to the pool.

    An insertion is an extraction target: text deleted at one or more sites
    (side "lhs") reappears inside the inserted block. A deletion is an
    inlined definition: its text reappears on the changed side (side "rhs")
    of one or more other edits. The antecedent captures the moved text where
    it was deleted; the consequent writes it back where it was inserted.
    """
    edit = b.edits[i]
    if edit.kind is EditKind.INSERTION:
        side, own = "lhs", edit.rhs
    elif edit.kind is EditKind.DELETION:
        side, own = "rhs", edit.lhs
    else:
        raise ValueError("find_move requires an insertion or deletion edit")
    scorer = scorer or Scorer(buckets)
    found = _longest_shared(own, buckets, scorer, side)
    if found is None:
        return
    s, occurrences = found
    bucket_index = _bucket_position(buckets, b)
    atoms = scorer.atoms(bucket_index)
    core = next(idx for idx, a in enumerate(atoms) if a.edit_index == i)
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
        head, tail = edit.lhs[:off], edit.lhs[off + len(s) :]
        a_cores = [(bucket_index, core, core + 1, head, tail)]
        c_cores = [(o.bucket, o.lo, o.hi, 0) for o in occurrences]
    a_seen: set[tuple[str, str, str]] = set()
    a_cands = [
        c
        for args in a_cores
        for c in _antecedent_candidates_around(*args, scorer, cfg.window, a_seen)
    ]
    if not a_cands:
        return
    c_seen: set[tuple[str, str]] = set()
    c_cands = [
        c
        for args in c_cores
        for c in _consequent_candidates_around(*args, scorer, cfg.window, c_seen)
    ]
    if not c_cands:
        return
    a_best = min(a_cands, key=_pattern_rank)
    c_best = min(c_cands, key=_plain_rank)
    antecedent = Antecedent(a_best.pattern, a_best.rhs)
    consequent = Consequent(
        c_best.lhs,
        MovePattern(
            c_best.rhs[: c_best.slot], True, c_best.rhs[c_best.slot + len(s) :]
        ),
    )
    move = MoveRule(antecedent, consequent, a_best.metrics + c_best.metrics)
    claims = _entry_claims(occurrences, scorer, edit, bucket_index, a_best, c_best)
    pool.add(MoveEntry(move, len(s), claims))


def _entry_claims(occurrences, scorer, edit, bucket_index, a_best, c_best):
    claims: list[tuple[int, tuple[int, int]]] = [
        (bucket_index, edit.lhs_span),
        (a_best.bucket, a_best.span),
        (c_best.bucket, c_best.span),
    ]
    for occ in occurrences:
        claims.append((occ.bucket, _span(scorer.atoms(occ.bucket), occ.lo, occ.hi)))
    claims.extend((bkt, (s0, s1)) for bkt, s0, s1 in a_best.tp_sites)
    claims.extend((bkt, (s0, s1)) for bkt, s0, s1 in c_best.tp_sites)
    return claims


def _move_rank(entry: MoveEntry):
    m = entry.move.metrics
    a = entry.move.antecedent
    c = entry.move.consequent
    return (
        -m.precision,
        -m.tp,
        -entry.shared_len,
        len(a.lhs.literal_prefix) + len(a.lhs.literal_suffix) + len(c.lhs),
        a.lhs.literal_prefix,
        a.lhs.literal_suffix,
        c.lhs,
    )


def get_precise_move(buckets: BucketSet, cfg) -> list[MoveRule]:
    """All retained move rules, best first, pairwise non-overlapping."""
    scorer = Scorer(buckets)
    pool = MovePool()
    for bidx in _searchable(buckets):
        b = buckets.buckets[bidx]
        for i, inst in enumerate(b.edits):
            if inst.kind in (EditKind.INSERTION, EditKind.DELETION):
                find_move(i, b, buckets, pool, cfg, scorer=scorer)
    kept: list[MoveRule] = []
    claims = ClaimMap()
    for entry in sorted(pool.values(), key=_move_rank):
        m = entry.move.metrics
        if m.tp == 0 or m.precision <= 0.5:
            continue
        if any(claims.overlaps(bkt, span) for bkt, span in entry.claims):
            continue
        for bkt, span in entry.claims:
            claims.claim(bkt, span)
        kept.append(entry.move)
    return kept


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
