"""Synthesis of precise string-rewriting rules from the atoms of buckets.

Candidate rules are formed by expanding each edit atom with context units
(`align.Bucket.reach`), nearest first: a whole edit, or one identity token.
Every window of every edit is formed, in order, and a rule keeps the first
window that formed it. A candidate is scored corpus-wide, in one scan of the
bucket sources joined into one text (`BucketSet.joined`): a match site counts
as a true positive when replacing it reproduces exactly what the alignment
demands there, and as a false positive otherwise. A literal candidate's scan
stops once its false positives show it cannot clear the bar (see `_score`).
Rules at precision <= 0.5 are dropped; the survivors are ranked and
greedily retained so that no two rules claim the same stretch of source.

Scoring is lazy (`_select`): a candidate is scored only when the selection
reaches it under an upper bound of its rank, and is dropped unscored once
its window or edit is claimed. What is retained, and in what order, is
exactly what scoring every candidate first would give. Move rules
(moves.py) are built on the same window grid, their antecedents as capture
patterns, scored by the same scan and retained by the same selection.

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
from collections.abc import Callable, Iterable, Iterator
from heapq import heapify, heappop, heappush
from itertools import islice, zip_longest
from math import inf
from typing import Any, NamedTuple

from .align import Atom, Bucket, BucketSet, dissect
from .tokens import _token_texts


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
    """A rule, its tie-break order after precision and tp, and the regions it
    claims once retained: its window, its core, then every tp site.

    `_expand` forms a candidate pending: `metrics` is None, `claims` holds
    the window and the core alone, and `lhs` -> `rhs` is scored only when
    the selection reaches it (`_select`)."""

    rule: Any
    metrics: RuleMetrics | None
    order: tuple
    claims: list[Region]
    lhs: str | tuple[str, str] = ""
    rhs: str = ""

    def rank(self) -> tuple:
        return (-self.metrics.precision, -self.metrics.tp, *self.order)


def _score(
    buckets: BucketSet, lhs: str | tuple[str, str], rhs: str, cap: int | None
) -> tuple[RuleMetrics, list[Region]]:
    """Corpus-wide tp/fp and tp sites of rewriting to `rhs` every match of a
    literal `lhs` (`Joined.find`), or of a capture pattern (prefix, suffix)
    (`Joined.match`), in one scan of the joined bucket sources: a site is a
    tp when its bucket's alignment agrees there. The scan stops once fp
    reaches `cap`; with None it runs in full.

    `_select` caps a literal at 2 x (edit atoms), past which it cannot clear
    the bar. A literal candidate rewrites lhs to a different rhs, and on
    identity text the alignment demands the text itself, so a tp site
    covers a whole edit atom or touches an insertion point. Matches do not
    overlap, so a deletion or substitution lies inside at most one tp site,
    and an insertion point touches at most two (one ending there, one
    starting there). Hence tp <= 2 x (edit atoms), and once fp reaches that
    cap, tp / (tp + fp) <= 0.5 whatever the rest of the scan holds: the
    candidate is imprecise, and a precise one never reaches the cap, so its
    metrics are exact. The same cap bounds a pending literal's tp before it
    is scored. A capture can fill prefix + capture + suffix to equal rhs on
    identity text, a tp with no edit, so a capture has no such bound and is
    scored in full.
    """
    joined = buckets.joined
    starts = joined.starts
    if isinstance(lhs, str):
        spans = ((s, s + len(lhs)) for s in joined.find(lhs))
    else:
        spans = (m[:2] for m in joined.match(*lhs))
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
    metrics, _ = _score(buckets, rule.lhs, rule.rhs, None)
    return metrics


# --- candidate synthesis and selection ----------------------------------------

def _span(atoms: tuple[Atom, ...], lo: int, hi: int) -> tuple[int, int]:
    return (atoms[lo].lhs_start, atoms[hi - 1].lhs_start + len(atoms[hi - 1].lhs))


Form = tuple[Callable, Callable]  # (order, build), see `_expand`


def _expand(
    buckets: BucketSet, bidx: int, lo: int, hi: int, window: int, pool: dict, form: Form
) -> None:
    """Add to `pool` the candidates that `form` makes on the (j, k) window
    grid, clipped at the bucket's ends: source[s:e] and target[t:u] reach j
    context units before the core atoms [lo, hi) and k after.

    `form` is (order, build): `order(s, e, t, u)` is the window's tie-break
    order after precision and tp, or None when the window makes no rule, and
    `build(order, j, k, t)` gives the rule and the lhs and rhs that `_score`
    takes, a literal or a capture pattern. Only a new order is built.
    The pool is keyed by order, which names the rule: its literal and rhs,
    or its capture pattern and rhs. (Two consequents that split one literal
    at different slots share an order; they score alike, so the first
    formed wins their tie either way.) A rule already in `pool` keeps its
    first entry. A candidate is formed pending, claiming its window and the
    core.
    """
    bucket = buckets[bidx]
    befores = [*islice(bucket.reach(lo, -1), window + 1)]
    afters = [*islice(bucket.reach(hi, 1), window + 1)]
    core = (bidx, (befores[0][0], afters[0][0]))
    order_at, build = form
    for j, (s, t) in enumerate(befores):
        for k, (e, u) in enumerate(afters):
            order = order_at(s, e, t, u)
            if order is None or order in pool:
                continue
            rule, lhs, rhs = build(order, j, k, t)
            pool[order] = Candidate(rule, None, order, [(bidx, (s, e)), core], lhs, rhs)


def _literal_form(bucket: Bucket, rule_at: Callable) -> Form:
    """Form of the rules rewriting a window's source text to its target text;
    `rule_at(j, k, t, lhs, rhs)` builds the rule, t the window's target start."""
    source, target = bucket.source, bucket.target

    def order(s: int, e: int, t: int, u: int) -> tuple | None:
        lhs, rhs = source[s:e], target[t:u]
        return (len(lhs), lhs, rhs) if lhs and lhs != rhs else None

    def build(order: tuple, j: int, k: int, t: int) -> tuple:
        _, lhs, rhs = order
        return rule_at(j, k, t, lhs, rhs), lhs, rhs

    return order, build


def expand_edit(buckets: BucketSet, bucket_index: int, core: int, pool: dict, window: int) -> None:
    """Expand the edit at atom `core` of a bucket into rewrite candidates."""
    bucket = buckets[bucket_index]
    if bucket.atoms[core].lhs == bucket.atoms[core].rhs:
        raise ValueError("expand_edit requires an edit atom")
    form = _literal_form(
        bucket,
        lambda j, k, t, lhs, rhs: RewriteRule(lhs, rhs, origin=(bucket_index, core, j, k)),
    )
    _expand(buckets, bucket_index, core, core + 1, window, pool, form)


def _overlaps(claimed: dict[int, list[int]], claims: list[Region]) -> bool:
    """True if a claim shares an offset with the claimed runs of its bucket.

    A span [s, e) claims the offsets s..e-1; a zero-width span at p claims
    p alone, as [p, p + 1) does. Each bucket's claimed offsets are kept as
    one flat sorted list of disjoint runs, [start, end, start, end, ...], so
    a claim is tested with one bisect.
    """
    for bucket, (s, e) in claims:
        runs = claimed.get(bucket)
        if runs:
            # s lies in a run, or a run starts before e
            i = bisect_right(runs, s)
            if i & 1 or (i < len(runs) and runs[i] < max(e, s + 1)):
                return True
    return False


def _select(
    candidates: Iterable[Candidate], buckets: BucketSet | None = None
) -> Iterator[Candidate]:
    """The precise candidates, best rank first, each yielded when its claims
    overlap no claim yielded before it, with every pending candidate scored
    against `buckets` only when it can still be retained.

    This is the lazy greedy of Minoux (1978). A pending candidate waits
    under the optimistic key (-1.0, -bound, *order): its precision is at
    most 1, and its tp at most the bound. A literal's bound is the least of
    2 x (edit atoms) (see `_score`) and the count of its core's source text
    in the joined sources. The count bounds tp because every tp site is an
    aligned match of the window's text, which holds the core's text at a
    fixed offset, and aligned matches do not overlap, so neither do those
    copies; `str.count` counts the most disjoint copies there are. It counts
    plain text, not token-aligned occurrences: a core's edges need not be
    token boundaries (a change block starting before a line's indentation,
    or one token cut off an identity run). An insertion's core text is
    empty, and its count, one more than the text's length, exceeds any
    number of disjoint nonempty matches. A capture's tp has no bound, so its
    bound is infinite and it is scored before anything is retained. So a
    candidate's exact rank is never better than its key.

    Every key ends in the candidate's pool index, so no two compare equal,
    and one heap pops them best first. A popped candidate whose claims
    overlap a retained claim is dropped: for a pending one that is its
    window or core, and claims only grow, so its exact turn would drop it
    too. Otherwise a pending candidate is scored, with the literal's cap,
    and if precise it waits again under its exact rank, claiming its tp
    sites too; an exact one is retained. Ties fall to pool order. So what
    is yielded, and in what order, is what ranking every candidate scored
    and retaining greedily yields.
    """
    claimed: dict[int, list[int]] = {}
    bounds: dict[str, int] = {}  # core text -> bound, for this text
    queue: list[tuple] = []
    for n, cand in enumerate(candidates):
        if cand.metrics is None:
            bound = inf
            if isinstance(cand.lhs, str):
                bidx, (s, e) = cand.claims[1]
                core = buckets[bidx].source[s:e]
                bound = bounds.get(core)
                if bound is None:
                    bound = bounds[core] = min(2 * buckets.edit_count, buckets.joined.text.count(core))
            queue.append(((-1.0, -bound, *cand.order, n), cand))
        elif cand.metrics.precise:
            queue.append(((*cand.rank(), n), cand))
    heapify(queue)
    while queue:
        key, cand = heappop(queue)
        if _overlaps(claimed, cand.claims):
            continue
        if cand.metrics is None:
            cap = 2 * buckets.edit_count if isinstance(cand.lhs, str) else None
            metrics, sites = _score(buckets, cand.lhs, cand.rhs, cap)
            tp, fp = metrics
            if tp > fp:  # precise: its rank is (-tp / (tp + fp), -tp, *order)
                cand = Candidate(cand.rule, metrics, cand.order, cand.claims + sites)
                heappush(queue, ((-tp / (tp + fp), -tp, *cand.order, key[-1]), cand))
            continue
        for bucket, (s, e) in cand.claims:
            runs = claimed.setdefault(bucket, [])
            # Merge [s, e) with the runs it overlaps or touches: an odd
            # index lies inside or at the end of a run, which keeps its bound.
            e = max(e, s + 1)
            i, j = bisect_left(runs, s), bisect_right(runs, e)
            runs[i:j] = [s, e][i & 1 : 2 - (j & 1)]
        yield cand


def sort_and_filter(
    pool: dict, buckets: BucketSet | None = None
) -> list[tuple[RewriteRule, RuleMetrics]]:
    """The retained rules of a pool with their metrics, best first
    (`_select`; `buckets` scores its pending candidates).

    A retained rule claims its origin expansion span, its core edit and
    every tp site; a later candidate touching a claimed span in the same
    bucket is skipped.
    """
    return [(c.rule, c.metrics) for c in _select(pool.values(), buckets)]


def get_precise_rewriting(buckets: BucketSet, window: int) -> list[tuple[RewriteRule, RuleMetrics]]:
    """Retained rewrite rules with their metrics, best first."""
    pool: dict = {}
    for bucket_index, bucket in enumerate(buckets):
        for core in bucket.cores:
            expand_edit(buckets, bucket_index, core, pool, window)
    return sort_and_filter(pool, buckets)


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
