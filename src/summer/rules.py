"""Synthesis of precise string-rewriting rules from bucketed edit instances.

Candidate rules are formed by expanding each non-identity edit with context
units: a unit is either a whole neighboring non-identity instance or one
token peeled from a neighboring identity instance, nearest tokens first.
Each candidate is scored corpus-wide: a match site counts as a true positive
when replacing it reproduces exactly what the alignment demands there, and
as a false positive otherwise. Rules at precision <= 0.5 are dropped; the
survivors are ranked and greedily retained so that no two rules claim the
same stretch of source.

A fix-up loop replays retained rules, re-dissects whatever still differs,
and tries again with a growing context window; exact-anchor fallback rules
(minimal context that is unique corpus-wide) close out anything left.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field, replace

from .align import Bucket, BucketSet, EditKind, dissect
from .distance import levenshtein
from .tokens import find_matches, tokenize, tokenize_cached


@dataclass(frozen=True, slots=True)
class RuleMetrics:
    tp: int
    fp: int

    @property
    def precision(self) -> float:
        total = self.tp + self.fp
        return self.tp / total if total else 0.0

    def __add__(self, other: "RuleMetrics") -> "RuleMetrics":
        return RuleMetrics(self.tp + other.tp, self.fp + other.fp)


@dataclass(frozen=True, slots=True)
class RewriteRule:
    """A reusable pattern lhs -> rhs applied by token-boundary replacement."""

    lhs: str
    rhs: str
    origin: tuple[int, int, int, int] | None = field(default=None, compare=False)
    fallback: bool = field(default=False, compare=False)

    def __post_init__(self) -> None:
        if self.lhs == self.rhs:
            raise ValueError("rewrite rule requires lhs != rhs")


@dataclass(frozen=True, slots=True)
class ExtractionConfig:
    window: int = 2
    window_max: int = 8
    max_fixup_rounds: int = 6

    def __post_init__(self) -> None:
        if not (0 <= self.window <= self.window_max):
            raise ValueError("need 0 <= window <= window_max")


# --- bucket atomization and target projection -------------------------------

@dataclass(frozen=True, slots=True)
class Atom:
    """Context unit: one identity token, or one whole non-identity instance."""

    lhs: str
    rhs: str
    lhs_span: tuple[int, int]
    rhs_span: tuple[int, int]
    edit_index: int | None  # None for identity tokens


def atomize(bucket: Bucket) -> list[Atom]:
    atoms: list[Atom] = []
    for idx, inst in enumerate(bucket.edits):
        if inst.kind is EditKind.IDENTITY:
            base_l = inst.lhs_span[0]
            base_r = inst.rhs_span[0]
            for tok in tokenize(inst.lhs).tokens:
                atoms.append(
                    Atom(
                        tok.text,
                        tok.text,
                        (base_l + tok.offset, base_l + tok.end),
                        (base_r + tok.offset, base_r + tok.end),
                        None,
                    )
                )
        else:
            atoms.append(Atom(inst.lhs, inst.rhs, inst.lhs_span, inst.rhs_span, idx))
    return atoms


class BucketIndex:
    """Offset projection from a bucket's source into its target.

    At instance boundaries the projection is a small candidate set: an
    insertion anchored exactly at a boundary may or may not be covered by a
    span ending or starting there.
    """

    def __init__(self, bucket: Bucket):
        self.bucket = bucket
        self.source = bucket.source
        self.target = bucket.target
        self.atoms = atomize(bucket)
        self._b_lhs = [a.lhs_span[0] for a in self.atoms] + [len(self.source)]
        self._b_rhs = [a.rhs_span[0] for a in self.atoms] + [len(self.target)]

    def target_offsets(self, p: int) -> list[int] | None:
        """Candidate target offsets for source offset p; None if undefined."""
        lo = bisect_left(self._b_lhs, p)
        if lo < len(self._b_lhs) and self._b_lhs[lo] == p:
            hi = bisect_right(self._b_lhs, p)
            return self._b_rhs[lo:hi]
        # Strictly inside the atom preceding insertion point `lo`.
        idx = lo - 1
        if idx < 0 or idx >= len(self.atoms):
            return None
        atom = self.atoms[idx]
        if atom.edit_index is not None:
            return None
        return [atom.rhs_span[0] + (p - atom.lhs_span[0])]

    def agrees(self, start: int, end: int, rhs: str) -> bool:
        """True if rewriting source[start:end] to rhs matches the alignment."""
        t1s = self.target_offsets(start)
        if not t1s:
            return False
        t2s = self.target_offsets(end)
        if not t2s:
            return False
        tgt = self.target
        for t1 in t1s:
            for t2 in t2s:
                if t1 <= t2 and tgt[t1:t2] == rhs:
                    return True
        return False


@dataclass
class PoolEntry:
    rule: RewriteRule
    metrics: RuleMetrics
    origin_bucket: int
    origin_span: tuple[int, int]
    core_span: tuple[int, int]
    tp_sites: list[tuple[int, int, int]]  # (bucket index, start, end)


class CandidatePool:
    """Candidate rules keyed by (lhs, rhs), insertion-ordered."""

    def __init__(self) -> None:
        self.entries: dict[tuple[str, str], PoolEntry] = {}

    def __contains__(self, key: tuple[str, str]) -> bool:
        return key in self.entries

    def __len__(self) -> int:
        return len(self.entries)

    def add(self, entry: PoolEntry) -> None:
        key = (entry.rule.lhs, entry.rule.rhs)
        if key not in self.entries:
            self.entries[key] = entry

    def values(self) -> list[PoolEntry]:
        return list(self.entries.values())


class Scorer:
    """Shared per-corpus state for scoring many candidates cheaply."""

    def __init__(self, buckets: BucketSet):
        self.buckets = buckets
        self.indexes = [BucketIndex(b) for b in buckets]

    def atoms(self, bucket_index: int) -> list[Atom]:
        return self.indexes[bucket_index].atoms

    def score(self, lhs: str, rhs: str) -> tuple[RuleMetrics, list[tuple[int, int, int]]]:
        """Corpus-wide tp/fp and tp sites of the plain rule lhs -> rhs."""
        if not lhs:
            raise ValueError("rule with empty lhs is unscorable; needs context expansion")
        n = len(lhs)
        return self.score_matches(
            lambda source: [(start, start + n) for start in find_matches(source, lhs)],
            rhs,
        )

    def score_matches(
        self, matcher: Callable[[str], Iterable[tuple[int, int]]], rhs: str
    ) -> tuple[RuleMetrics, list[tuple[int, int, int]]]:
        """Score rewriting to `rhs` every (start, end) that `matcher` finds in
        a bucket source: a site is a tp when the alignment agrees there."""
        tp = fp = 0
        tp_sites: list[tuple[int, int, int]] = []
        for bidx, index in enumerate(self.indexes):
            for start, end in matcher(index.source):
                if index.agrees(start, end, rhs):
                    tp += 1
                    tp_sites.append((bidx, start, end))
                else:
                    fp += 1
        return RuleMetrics(tp, fp), tp_sites


def classification_metrics(rule: RewriteRule, buckets: BucketSet) -> RuleMetrics:
    """Corpus-wide tp/fp for one rule. Raises ValueError on an empty lhs."""
    metrics, _ = Scorer(buckets).score(rule.lhs, rule.rhs)
    return metrics


def expand_edit(
    i: int,
    b: Bucket,
    buckets: BucketSet,
    pool: CandidatePool,
    cfg: ExtractionConfig,
    scorer: Scorer | None = None,
) -> None:
    """Expand edit i of bucket b into scored candidates over the (j, k) grid."""
    if b.edits[i].kind is EditKind.IDENTITY:
        raise ValueError("expand_edit requires a non-identity edit")
    if scorer is None:
        scorer = Scorer(buckets)
    bucket_index = next(idx for idx, bb in enumerate(buckets) if bb is b)
    atoms = scorer.atoms(bucket_index)
    core = next(idx for idx, a in enumerate(atoms) if a.edit_index == i)
    w = cfg.window
    seen: set[tuple[str, str]] = set()
    for j in range(w + 1):
        lo = max(0, core - j)
        for k in range(w + 1):
            hi = min(len(atoms), core + 1 + k)
            lhs = "".join(a.lhs for a in atoms[lo:hi])
            rhs = "".join(a.rhs for a in atoms[lo:hi])
            key = (lhs, rhs)
            if not lhs or lhs == rhs or key in seen:
                continue
            seen.add(key)
            if key in pool:
                continue
            metrics, tp_sites = scorer.score(lhs, rhs)
            span = (atoms[lo].lhs_span[0], atoms[hi - 1].lhs_span[1])
            pool.add(
                PoolEntry(
                    RewriteRule(lhs, rhs, origin=(bucket_index, i, j, k)),
                    metrics,
                    bucket_index,
                    span,
                    b.edits[i].lhs_span,
                    tp_sites,
                )
            )


def _rank_key(entry: PoolEntry):
    return (
        -entry.metrics.precision,
        -entry.metrics.tp,
        len(entry.rule.lhs),
        entry.rule.lhs,
        entry.rule.rhs,
    )


def spans_overlap(a: tuple[int, int], b: tuple[int, int]) -> bool:
    """Half-open interval overlap; zero-width spans behave as points."""
    if a[0] == a[1] and b[0] == b[1]:
        return a[0] == b[0]
    if a[0] == a[1]:
        return b[0] <= a[0] < b[1]
    if b[0] == b[1]:
        return a[0] <= b[0] < a[1]
    return a[0] < b[1] and b[0] < a[1]


class ClaimMap:
    """Per-bucket interval claims; rejects overlapping claims."""

    def __init__(self) -> None:
        self._claims: dict[int, list[tuple[int, int]]] = {}

    def overlaps(self, bucket: int, span: tuple[int, int]) -> bool:
        return any(spans_overlap(span, c) for c in self._claims.get(bucket, ()))

    def claim(self, bucket: int, span: tuple[int, int]) -> None:
        insort(self._claims.setdefault(bucket, []), span)


def sort_and_filter(pool: CandidatePool) -> list[tuple[RewriteRule, RuleMetrics]]:
    """Drop imprecise candidates, rank the rest, retain non-overlapping ones.

    A retained rule claims its origin expansion span and every tp site; a
    later candidate touching a claimed span in the same bucket is skipped.
    """
    kept: list[tuple[RewriteRule, RuleMetrics]] = []
    claims = ClaimMap()
    for entry in sorted(pool.values(), key=_rank_key):
        if entry.metrics.tp == 0 or entry.metrics.precision <= 0.5:
            continue
        regions = [
            (entry.origin_bucket, entry.origin_span),
            (entry.origin_bucket, entry.core_span),
        ] + [(b, (s, e)) for b, s, e in entry.tp_sites]
        if any(claims.overlaps(b, span) for b, span in regions):
            continue
        for b, span in regions:
            claims.claim(b, span)
        kept.append((entry.rule, entry.metrics))
    return kept


def get_precise_rewriting(
    buckets: BucketSet, cfg: ExtractionConfig
) -> list[RewriteRule]:
    return [rule for rule, _ in ranked_rewriting(buckets, cfg)]


def ranked_rewriting(
    buckets: BucketSet, cfg: ExtractionConfig
) -> list[tuple[RewriteRule, RuleMetrics]]:
    pool = CandidatePool()
    scorer = Scorer(buckets)
    for b in buckets:
        for i, inst in enumerate(b.edits):
            if inst.kind is not EditKind.IDENTITY:
                expand_edit(i, b, buckets, pool, cfg, scorer=scorer)
    return sort_and_filter(pool)


# --- application -------------------------------------------------------------

def apply_rewrite_to_text(text: str, lhs: str, rhs: str) -> tuple[str, list[tuple[int, int]]]:
    """One frozen left-to-right token-boundary scan; output is not rescanned."""
    sites = find_matches(text, lhs)
    if not sites:
        return text, []
    pieces: list[str] = []
    pos = 0
    for start in sites:
        pieces.append(text[pos:start])
        pieces.append(rhs)
        pos = start + len(lhs)
    pieces.append(text[pos:])
    return "".join(pieces), [(s, s + len(lhs)) for s in sites]


# --- the fix-up loop ---------------------------------------------------------

@dataclass
class RoundTrace:
    buckets: BucketSet
    window: int
    ranked: list[tuple[RewriteRule, RuleMetrics]]


def _token_texts(s: str) -> list[str]:
    return [t.text for t in tokenize_cached(s).tokens]


def _residual(current: dict[str, str], targets: dict[str, str]) -> int:
    return sum(
        levenshtein(_token_texts(current[label]), _token_texts(targets[label]))
        for label in current
    )


def _redissect(current: dict[str, str], targets: dict[str, str]) -> BucketSet:
    return BucketSet(
        tuple(dissect(current[label], targets[label], label) for label in current)
    )


def decompose_rewrites(buckets: BucketSet, cfg: ExtractionConfig) -> list[RewriteRule]:
    rules, _ = decompose_rewrites_trace(buckets, cfg)
    return rules


def decompose_rewrites_trace(
    buckets: BucketSet, cfg: ExtractionConfig
) -> tuple[list[RewriteRule], list[RoundTrace]]:
    """Rewrite-rule sequence whose replay turns every source into its target.

    Replay is byte-exact whenever no two buckets share a source string while
    demanding different targets (rules rewrite the whole corpus at once, so
    such twins are inseparable; engine.decompose covers that case with
    structural steps).
    """
    current = {b.label: b.source for b in buckets}
    targets = {b.label: b.target for b in buckets}
    steps: list[RewriteRule] = []
    trace: list[RoundTrace] = []
    if current == targets:
        return steps, trace
    window = cfg.window
    prev = _residual(current, targets)
    bucket_set = buckets
    for _ in range(cfg.max_fixup_rounds):
        ranked = ranked_rewriting(bucket_set, replace(cfg, window=window))
        trace.append(RoundTrace(bucket_set, window, ranked))
        for rule, _metrics in ranked:
            for label in current:
                current[label], _ = apply_rewrite_to_text(
                    current[label], rule.lhs, rule.rhs
                )
            steps.append(rule)
        if current == targets:
            return steps, trace
        dist = _residual(current, targets)
        if dist >= prev:
            if window < cfg.window_max:
                window += 1
            else:
                break
        prev = min(prev, dist)
        bucket_set = _redissect(current, targets)
    steps.extend(_exact_anchor_fallback(current, targets))
    return steps, trace


def _exact_anchor_fallback(
    current: dict[str, str], targets: dict[str, str]
) -> list[RewriteRule]:
    """Anchor rules with the minimal context unique across the whole corpus.

    One rule is emitted and applied at a time, left to right, re-dissecting
    in between: a rule's context may overlap neighboring edits, so later
    anchors must be derived from the already-patched text.
    """
    out: list[RewriteRule] = []
    guard = 0
    limit = 10000
    while current != targets and guard < limit:
        guard += 1
        progressed = False
        bucket_set = _redissect(current, targets)
        for bucket in bucket_set:
            if bucket.source == bucket.target:
                continue
            atoms = atomize(bucket)
            edit_positions = [i for i, a in enumerate(atoms) if a.edit_index is not None]
            for core in edit_positions:
                rule = _unique_anchor_rule(atoms, core, current, bucket.label)
                if rule is None:
                    continue
                for label in current:
                    current[label], _ = apply_rewrite_to_text(
                        current[label], rule.lhs, rule.rhs
                    )
                out.append(rule)
                progressed = True
                break
            if progressed:
                break
        if not progressed:
            break
    return out


def _unique_anchor_rule(
    atoms: list[Atom], core: int, current: dict[str, str], own_label: str
) -> RewriteRule | None:
    for m in range(len(atoms) + 1):
        lo = max(0, core - m)
        hi = min(len(atoms), core + 1 + m)
        lhs = "".join(a.lhs for a in atoms[lo:hi])
        rhs = "".join(a.rhs for a in atoms[lo:hi])
        if not lhs or lhs == rhs:
            continue
        hits: list[tuple[str, int]] = []
        for label, text in current.items():
            hits.extend((label, h) for h in find_matches(text, lhs))
            if len(hits) > 1:
                break
        if hits == [(own_label, atoms[lo].lhs_span[0])]:
            return RewriteRule(lhs, rhs, fallback=True)
        if lo == 0 and hi == len(atoms):
            return None
    return None
