"""Synthesis of precise string-rewriting rules from the atoms of buckets.

Candidate rules are formed by expanding each edit atom with context units
(`align.Bucket.reach`), nearest first: a whole edit, or one identity token.
Each candidate is scored corpus-wide, in one scan of the bucket sources
joined into one text (`BucketSet.joined`): a match site counts as a true
positive when replacing it reproduces exactly what the alignment demands
there, and as a false positive otherwise. A literal candidate's scan stops
once its false positives show it cannot clear the bar (see `_score`).
Rules at precision <= 0.5 are dropped; the survivors are ranked and
greedily retained so that no two rules claim the same stretch of source.
Move rules (moves.py) are built on the same window grid, scored by the
same scan and retained by the same selection pass.

A fix-up loop replays retained rules on the joined sources, one scan and one
splice a rule, re-dissects only the buckets those rules rewrote, and tries
again, widening the context window whenever a round leaves no fewer token
edits in that dissection; exact-anchor fallback rules (minimal context with
one hit in the joined text) close out anything left. The BucketSet is the
loop's only state: every bucket a round did not rewrite keeps its atoms and
offset projection.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import defaultdict
from collections.abc import Callable, Iterable
from itertools import islice, zip_longest
from typing import Any, NamedTuple

from .align import Atom, Bucket, BucketSet, dissect
from .tokens import Joined, _token_texts


def typed(width: int | None = None) -> Callable[[type], type]:
    """Class decorator for a NamedTuple rule or step record: it equals only its
    own type, comparing and hashing its first `width` fields (all by default).
    As bare tuples, MovePattern("a", "b") == FileAdd("a", "b") == ("a", "b")."""

    def decorate(cls: type) -> type:
        cls.__eq__ = eq = lambda a, b: type(a) is type(b) and a[:width] == b[:width]
        cls.__ne__ = lambda a, b: not eq(a, b)
        cls.__hash__ = lambda a: hash(a[:width])
        return cls

    return decorate


class RuleMetrics(NamedTuple):
    tp: int
    fp: int

    @property
    def precision(self) -> float:
        total = self.tp + self.fp
        return self.tp / total if total else 0.0

    @property
    def precise(self) -> bool:
        """The retention bar: precision above one half (so at least one tp)."""
        return self.precision > 0.5

    def __add__(self, other: "RuleMetrics") -> "RuleMetrics":
        return RuleMetrics(self.tp + other.tp, self.fp + other.fp)


class RewriteRule:
    """A reusable pattern lhs -> rhs applied by token-boundary replacement.

    Equality and hash read lhs and rhs: `origin`, the (bucket index, core
    atom index counting identity runs whole, j, k units) of the window the
    rule grew from, and `fallback` only say where it came from.
    """

    __slots__ = ("lhs", "rhs", "origin", "fallback")

    def __init__(
        self, lhs: str, rhs: str, origin: tuple[int, ...] | None = None, fallback: bool = False
    ) -> None:
        if lhs == rhs:
            raise ValueError("rewrite rule requires lhs != rhs")
        self.lhs, self.rhs, self.origin, self.fallback = lhs, rhs, origin, fallback

    def __eq__(self, other: object) -> bool:
        return type(other) is RewriteRule and (self.lhs, self.rhs) == (other.lhs, other.rhs)

    def __hash__(self) -> int:
        return hash((self.lhs, self.rhs))

    def __repr__(self) -> str:
        return f"RewriteRule({self.lhs!r}, {self.rhs!r})"


FIXUP_ROUNDS = 6  # rule rounds before the exact-anchor fallback takes over
WINDOW = 2  # the window the move pass and the first rewrite round use


# --- scoring -------------------------------------------------------------------

Region = tuple[int, tuple[int, int]]  # (bucket index, source span)


class Candidate(NamedTuple):
    """A scored rule, its tie-break order after precision and tp, and the
    regions it claims once retained."""

    rule: Any
    metrics: RuleMetrics
    order: tuple
    claims: list[Region]

    def rank(self) -> tuple:
        return (-self.metrics.precision, -self.metrics.tp, *self.order)


Matcher = Callable[[Joined], Iterable[tuple[int, int]]]  # joined sources -> spans


def _score(buckets: BucketSet, lhs: str | Matcher, rhs: str) -> tuple[RuleMetrics, list[Region]]:
    """Corpus-wide tp/fp and tp sites of rewriting to `rhs` every match of a
    literal `lhs`, or every span a capture matcher finds, in one scan of the
    joined bucket sources: a site is a tp when its bucket's alignment agrees
    there.

    A literal scan stops once the candidate can no longer clear the bar. A
    literal candidate rewrites lhs to a different rhs, and on identity text
    the alignment demands the text itself, so a tp site covers a whole edit
    atom or touches an insertion point. Matches do not overlap, so a
    deletion or substitution lies inside at most one tp site, and an
    insertion point touches at most two (one ending there, one starting
    there). Hence tp <= 2 x (edit atoms), and once fp reaches that cap,
    tp / (tp + fp) <= 0.5 whatever the rest of the scan holds: the candidate
    is imprecise, and a precise one never reaches the cap, so its metrics
    are exact. A capture can fill prefix + capture + suffix to equal rhs on
    identity text, a tp with no edit, so capture matchers are scored in full.
    """
    joined = buckets.joined
    starts = joined.starts
    if isinstance(lhs, str):
        spans, cap = ((s, s + len(lhs)) for s in joined.find(lhs)), 2 * buckets.edit_count
    else:
        spans, cap = lhs(joined), None
    tp = fp = 0
    tp_sites: list[Region] = []
    for start, end in spans:
        bidx = bisect_right(starts, start) - 1
        offset = starts[bidx]
        span = (start - offset, end - offset)
        if buckets[bidx].agrees(*span, rhs):
            tp += 1
            tp_sites.append((bidx, span))
        else:
            fp += 1
            if fp == cap:
                break
    return RuleMetrics(tp, fp), tp_sites


def classification_metrics(rule: RewriteRule, buckets: BucketSet) -> RuleMetrics:
    """Corpus-wide tp/fp for one rule, every match counted. Raises ValueError
    on an empty lhs, which `Joined.find` cannot scan for."""
    # A matcher is scored in full, where the literal's scan would stop at the bar.
    lhs = rule.lhs
    metrics, _ = _score(buckets, lambda j: ((s, s + len(lhs)) for s in j.find(lhs)), rule.rhs)
    return metrics


# --- candidate synthesis and selection ----------------------------------------

def _span(atoms: tuple[Atom, ...], lo: int, hi: int) -> tuple[int, int]:
    return (atoms[lo].lhs_start, atoms[hi - 1].lhs_start + len(atoms[hi - 1].lhs))


def _expand(
    buckets: BucketSet, bidx: int, lo: int, hi: int, window: int, pool: dict, form: Callable
) -> None:
    """Score the rules that `form(j, k, s, e, t, u)` builds on the (j, k)
    window grid, clipped at the bucket's ends: source[s:e] and target[t:u]
    reach j context units before the core atoms [lo, hi) and k after.

    `form` returns (rule, order, lhs, rhs), or None when the window makes
    no rule; lhs is a literal or a capture matcher, as `_score` takes it. A
    rule already in `pool` keeps its first entry. A candidate claims its
    window, the core and every tp site.
    """
    bucket = buckets[bidx]
    befores = [*islice(bucket.reach(lo, -1), window + 1)]
    afters = [*islice(bucket.reach(hi, 1), window + 1)]
    core = (bidx, (befores[0][0], afters[0][0]))
    for j, (s, t) in enumerate(befores):
        for k, (e, u) in enumerate(afters):
            formed = form(j, k, s, e, t, u)
            if formed is None or formed[0] in pool:
                continue
            rule, order, lhs, rhs = formed
            metrics, sites = _score(buckets, lhs, rhs)
            claims = [(bidx, (s, e)), core, *sites]
            pool[rule] = Candidate(rule, metrics, order, claims)


def _literal_form(bucket: Bucket, rule_at: Callable) -> Callable:
    """Form of the rules rewriting a window's source text to its target text;
    `rule_at(j, k, t, lhs, rhs)` builds the rule, t the window's target start."""
    source, target = bucket.source, bucket.target

    def form(j: int, k: int, s: int, e: int, t: int, u: int):
        lhs, rhs = source[s:e], target[t:u]
        if not lhs or lhs == rhs:
            return None
        return rule_at(j, k, t, lhs, rhs), (len(lhs), lhs, rhs), lhs, rhs

    return form


def expand_edit(buckets: BucketSet, bucket_index: int, core: int, pool: dict, window: int) -> None:
    """Expand the edit at atom `core` of a bucket into scored rewrite candidates."""
    bucket = buckets[bucket_index]
    if bucket.atoms[core].lhs == bucket.atoms[core].rhs:
        raise ValueError("expand_edit requires an edit atom")
    form = _literal_form(
        bucket,
        lambda j, k, t, lhs, rhs: RewriteRule(lhs, rhs, origin=(bucket_index, core, j, k)),
    )
    _expand(buckets, bucket_index, core, core + 1, window, pool, form)


def _select(candidates: Iterable[Candidate]) -> list[Candidate]:
    """Rank the candidates above the precision bar and retain, best first,
    each one whose claims overlap no retained candidate's claims.

    A span [s, e) claims the offsets s..e-1; a zero-width span at p claims
    p alone, as [p, p + 1) does. Two claims overlap when they share an
    offset, so each bucket's claimed offsets are kept as one flat sorted
    list of disjoint runs, [start, end, start, end, ...], and a claim is
    tested with one bisect.
    """
    kept: list[Candidate] = []
    claimed: defaultdict[int, list[int]] = defaultdict(list)
    for cand in sorted((c for c in candidates if c.metrics.precise), key=Candidate.rank):
        spans = [(claimed[bucket], s, max(e, s + 1)) for bucket, (s, e) in cand.claims]
        for runs, s, e in spans:
            i = bisect_right(runs, s)
            if i & 1 or (i < len(runs) and runs[i] < e):  # s in a run, or a run starts before e
                break
        else:
            for runs, s, e in spans:
                # Merge [s, e) with the runs it overlaps or touches: an odd
                # index lies inside or at the end of a run, which keeps its bound.
                i, j = bisect_left(runs, s), bisect_right(runs, e)
                runs[i:j] = [s, e][i & 1 : 2 - (j & 1)]
            kept.append(cand)
    return kept


def sort_and_filter(pool: dict) -> list[tuple[RewriteRule, RuleMetrics]]:
    """Drop imprecise candidates, rank the rest, retain non-overlapping ones.

    A retained rule claims its origin expansion span, its core edit and
    every tp site; a later candidate touching a claimed span in the same
    bucket is skipped.
    """
    return [(c.rule, c.metrics) for c in _select(pool.values())]


def get_precise_rewriting(buckets: BucketSet, window: int) -> list[tuple[RewriteRule, RuleMetrics]]:
    """Retained rewrite rules with their metrics, best first."""
    pool: dict = {}
    for bucket_index, bucket in enumerate(buckets):
        for core in bucket.cores:
            expand_edit(buckets, bucket_index, core, pool, window)
    return sort_and_filter(pool)


# --- the fix-up loop ---------------------------------------------------------

class RoundTrace(NamedTuple):
    buckets: BucketSet
    window: int
    ranked: list[tuple[RewriteRule, RuleMetrics]]


def _redissect(buckets: BucketSet, sources: Iterable[str]) -> BucketSet:
    """Each bucket whose source changed, dissected again against its own
    target; every other bucket stays the same object, atoms and all."""
    return BucketSet(
        tuple(
            b if s == b.source else dissect(s, b.target, b.label)
            for b, s in zip(buckets, sources, strict=True)
        )
    )


def _rewritten(buckets: BucketSet, rules: Iterable[RewriteRule]) -> list[str] | None:
    """Every bucket source with the rules applied in order, each in one scan
    of the joined sources, or None once every source equals its target."""
    joined = buckets.joined
    for rule in rules:
        joined, _ = joined.rewrite(rule.lhs, rule.rhs)
    sources = joined.split()
    if all(s == b.target for s, b in zip(sources, buckets)):
        return None
    return sources


def _cost(buckets: BucketSet) -> int:
    """Token edits a dissection still demands: one per substitution, plus
    the tokens of every inserted or deleted run."""
    return sum(
        1 if a.lhs and a.rhs else len(_token_texts(a.lhs or a.rhs))
        for bucket in buckets
        for a in (bucket.atoms[i] for i in bucket.cores)
    )


def decompose_rewrites(buckets: BucketSet) -> list[RewriteRule]:
    rules, _ = decompose_rewrites_trace(buckets)
    return rules


def decompose_rewrites_trace(buckets: BucketSet) -> tuple[list[RewriteRule], list[RoundTrace]]:
    """Rewrite-rule sequence whose replay turns every source into its target.

    Replay is byte-exact whenever no two buckets share a source string while
    demanding different targets (rules rewrite the whole corpus at once, so
    such twins are inseparable; engine.decompose covers that case with
    structural steps).
    """
    steps: list[RewriteRule] = []
    trace: list[RoundTrace] = []
    if all(b.source == b.target for b in buckets):
        return steps, trace
    window = WINDOW
    prev = _cost(buckets)
    for _ in range(FIXUP_ROUNDS):
        ranked = get_precise_rewriting(buckets, window)
        trace.append(RoundTrace(buckets, window, ranked))
        steps.extend(rule for rule, _metrics in ranked)
        sources = _rewritten(buckets, (rule for rule, _metrics in ranked))
        if sources is None:
            return steps, trace
        buckets = _redissect(buckets, sources)
        cost = _cost(buckets)
        if cost >= prev:
            window += 1
        prev = min(prev, cost)
    steps.extend(_exact_anchor_fallback(buckets))
    return steps, trace


def _exact_anchor_fallback(buckets: BucketSet) -> list[RewriteRule]:
    """Anchor rules with the minimal context unique across the whole corpus.

    One rule is emitted and applied at a time, left to right, re-dissecting
    in between: a rule's context may overlap neighboring edits, so later
    anchors must be derived from the already-patched text.
    """
    out: list[RewriteRule] = []
    for _ in range(10000):
        anchors = (
            _unique_anchor_rule(bidx, core, buckets)
            for bidx, bucket in enumerate(buckets)
            for core in bucket.cores
        )
        rule = next(filter(None, anchors), None)
        if rule is None:
            break
        out.append(rule)
        sources = _rewritten(buckets, (rule,))
        if sources is None:
            break
        buckets = _redissect(buckets, sources)
    return out


def _unique_anchor_rule(bidx: int, core: int, buckets: BucketSet) -> RewriteRule | None:
    """The narrowest window around the core, as many context units before it
    as after, whose lhs has exactly one aligned hit in the joined sources,
    the window's own."""
    joined = buckets.joined
    bucket = buckets[bidx]
    source, target = bucket.source, bucket.target
    s = t = e = u = 0
    for before, after in zip_longest(bucket.reach(core, -1), bucket.reach(core + 1, 1)):
        (s, t), (e, u) = before or (s, t), after or (e, u)
        lhs, rhs = source[s:e], target[t:u]
        if not lhs or lhs == rhs:
            continue
        found = joined.find(lhs)
        if next(found, -1) == joined.starts[bidx] + s and next(found, -1) < 0:
            return RewriteRule(lhs, rhs, fallback=True)
    return None
