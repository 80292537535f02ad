"""Merge orchestration: bucket mapping, direction choice, decompose, apply.

A snapshot is a mapping from path to content; single-file callers use one
anonymous entry under "". Decomposing a (base, changed) pair produces a step
sequence: structural file steps, then move rules, then rewrite rules. Rules
apply to every entry's content and name, so a class rename expressed once
travels across the whole tree. Replaying the sequence on the base reproduces
the changed side byte for byte; merge replays it on the other branch.
"""

from __future__ import annotations

import heapq
import re
from enum import Enum, auto
from itertools import groupby
from typing import NamedTuple

from .align import NAME_PREFIX, Bucket, BucketSet, dissect, is_name_label
from .distance import _bag_distance, _bags, levenshtein, similarity
from .moves import MoveRule, apply_move, get_precise_move
from .rules import WINDOW, RewriteRule, _redissect, decompose_rewrites, typed
from .tokens import Joined, _token_texts

Snapshot = dict[str, str]


@typed()
class FileAdd(NamedTuple):
    path: str
    content: str


@typed()
class FileDelete(NamedTuple):
    path: str


Step = RewriteRule | MoveRule | FileAdd | FileDelete


class Side(Enum):
    LEFT = auto()
    RIGHT = auto()


class DirectionReason(Enum):
    DELETION_FORCED = auto()
    DISTANCE = auto()
    TIE = auto()


@typed(2)
class MergeDirection(NamedTuple):
    decomposed_side: Side
    reason: DirectionReason
    pairing: Pairing  # the decomposed side's pair_entries; left out of equality and hash


class Conflict(NamedTuple):
    diagnostic: str


class Site(NamedTuple):
    path: str
    start: int
    end: int
    role: str  # content | name | antecedent | consequent


class AppliedStep(NamedTuple):
    step: Step
    count: int
    sites: tuple[Site, ...] = ()


class MergeOutcome:
    __slots__ = ("result", "conflict", "applied_steps", "diagnostics")

    def __init__(self, result: Snapshot | None, conflict: Conflict | None,
                 applied_steps: list[AppliedStep] | None = None,
                 diagnostics: list[str] | None = None) -> None:
        self.result, self.conflict = result, conflict
        self.applied_steps = [] if applied_steps is None else applied_steps
        self.diagnostics = [] if diagnostics is None else diagnostics

    @property
    def ok(self) -> bool:
        return self.conflict is None


# --- pairing and bucket mapping ------------------------------------------------

class Pairing(NamedTuple):
    pairs: list[tuple[str, str]]  # (base path, other path), renames included
    deleted: list[str]
    added: list[str]


def pair_entries(base: Snapshot, other: Snapshot) -> Pairing:
    """Pair by path, then detect renames: identical content first, then the
    best token-level similarity above 0.5, taken greedily in (-similarity,
    base path, other path) order. The bag distance is at most the Levenshtein
    distance, so a pair's bound 1 - bag/longest is at least its similarity: a
    heap of bounds, each replaced by the exact key once it reaches the top,
    pops the pairs in that order, until one side has no entry left."""
    pairs = [(p, p) for p in sorted(base) if p in other]
    removed = [p for p in sorted(base) if p not in other]
    added = [p for p in sorted(other) if p not in base]
    if removed and added:
        by_content: dict[str, list[str]] = {}
        for p in added:
            by_content.setdefault(other[p], []).append(p)
        still_removed = []
        for p in removed:
            bucket = by_content.get(base[p])
            if bucket:
                q = bucket.pop(0)
                pairs.append((p, q))
                added.remove(q)
            else:
                still_removed.append(p)
        removed = still_removed
    if removed and added:
        removed_tokens = {p: _token_texts(base[p]) for p in removed}
        added_tokens = {q: _token_texts(other[q]) for q in added}
        bags = _bags([*removed_tokens.values(), *added_tokens.values()])
        removed_bags, added_bags = bags[: len(removed_tokens)], bags[len(removed_tokens) :]
        heap = []  # (-similarity or its upper bound, p, q, exact)
        for (p, ptoks), pbag in zip(removed_tokens.items(), removed_bags):
            for (q, qtoks), qbag in zip(added_tokens.items(), added_bags):
                # Never 0: equal contents, "" included, were paired above.
                longest = max(len(ptoks), len(qtoks))
                bound = 1.0 - _bag_distance(pbag, qbag) / longest
                if bound > 0.5:
                    heap.append((-bound, p, q, False))
        heapq.heapify(heap)
        while heap and removed_tokens and added_tokens:
            _key, p, q, exact = heapq.heappop(heap)
            if p not in removed_tokens or q not in added_tokens:
                continue
            if exact:
                pairs.append((p, q))
                del removed_tokens[p], added_tokens[q]
                continue
            sim = similarity(removed_tokens[p], added_tokens[q])
            if sim > 0.5:
                heapq.heappush(heap, (-sim, p, q, True))
        removed, added = list(removed_tokens), list(added_tokens)
    pairs.sort()
    return Pairing(pairs, removed, added)


def map_to_buckets(
    base: Snapshot, changed: Snapshot, pairing: Pairing | None = None
) -> tuple[BucketSet, list[Step]]:
    """Buckets for every changed artifact plus structural add/delete steps.

    A renamed entry yields a name bucket (old name => new name) and, when its
    content changed too, a content bucket. Unchanged entries stay out of the
    corpus entirely. `pairing` is `pair_entries(base, changed)`, computed
    here unless the caller has it.
    """
    if pairing is None:
        pairing = pair_entries(base, changed)
    buckets: list[Bucket] = []
    for old, new in pairing.pairs:
        if old != new:
            buckets.append(dissect(old, new, NAME_PREFIX + old))
        if base[old] != changed[new]:
            buckets.append(dissect(base[old], changed[new], f"content:{old}"))
    steps: list[Step] = [FileDelete(p) for p in pairing.deleted]
    steps += [FileAdd(p, changed[p]) for p in pairing.added]
    return BucketSet(tuple(buckets)), steps


# --- merge direction -------------------------------------------------------------

def _distance_terms(base: Snapshot, pairing: Pairing, side: Snapshot) -> list[tuple[str, str]]:
    """The text pairs whose distances add up to a side's distance to base:
    renamed names, changed contents, and every entry the side deletes or
    adds, against the empty text."""
    terms = [(old, new) for old, new in pairing.pairs if old != new]
    terms += [(base[old], side[new]) for old, new in pairing.pairs if base[old] != side[new]]
    terms += [(base[p], "") for p in pairing.deleted]
    return terms + [("", side[p]) for p in pairing.added]


def _total_within(
    terms: list[tuple[str, str]], limit: int, memo: dict[int, tuple[int, int]]
) -> int | None:
    """The sum of the terms' distances if it is at most limit, else None.

    memo maps a term's position to (result, the limit it was computed
    under). A result of that limit + 1 only says the distance is over it;
    any other result is exact. A term is computed again only when its
    budget could settle such a bound.
    """
    budget = limit
    for pos, (a, b) in enumerate(terms):
        found, under = memo.get(pos, (0, -1))
        if found == under + 1 <= budget:
            found = levenshtein(a, b, limit=budget)
            memo[pos] = (found, budget)
        budget -= found
        if budget < 0:
            return None
    return limit - budget


def determine_direction(
    base: Snapshot, left: Snapshot, right: Snapshot
) -> MergeDirection | Conflict:
    """The side to decompose: a side that deletes an entry the other
    modifies, else the side with the smaller total Levenshtein distance to
    base (left on a tie).

    Distances are exact but computed only as far as the comparison needs:
    one limit bounds both sides until one fits under it. A term's distance
    is at least its length gap, and 1 if its texts differ: the limit starts
    at the smaller side's sum of these bounds, and its excess over that
    doubles (0, 1, 3, 7, ...), so the work grows with the closer side's
    excess, not with the file sizes.
    """
    lp = pair_entries(base, left)
    rp = pair_entries(base, right)
    l_deleted = set(lp.deleted)
    r_deleted = set(rp.deleted)
    l_modified = {
        old for old, new in lp.pairs if old != new or base[old] != left[new]
    }
    r_modified = {
        old for old, new in rp.pairs if old != new or base[old] != right[new]
    }
    left_forced = l_deleted & r_modified
    right_forced = r_deleted & l_modified
    if left_forced and right_forced:
        return Conflict(
            "cross delete/modify: left deletes %s while right deletes %s"
            % (sorted(left_forced), sorted(right_forced))
        )
    if left_forced:
        return MergeDirection(Side.LEFT, DirectionReason.DELETION_FORCED, lp)
    if right_forced:
        return MergeDirection(Side.RIGHT, DirectionReason.DELETION_FORCED, rp)

    lterms, rterms = _distance_terms(base, lp, left), _distance_terms(base, rp, right)
    lmemo: dict[int, tuple[int, int]] = {}
    rmemo: dict[int, tuple[int, int]] = {}
    seed = min(sum(max(abs(len(a) - len(b)), a != b) for a, b in t) for t in (lterms, rterms))
    excess = 0
    while True:
        ld = _total_within(lterms, seed + excess, lmemo)
        rd = _total_within(rterms, seed + excess, rmemo)
        if ld is not None or rd is not None:
            break
        excess = 2 * excess + 1
    if rd is None or (ld is not None and ld < rd):
        return MergeDirection(Side.LEFT, DirectionReason.DISTANCE, lp)
    if ld is None or rd < ld:
        return MergeDirection(Side.RIGHT, DirectionReason.DISTANCE, rp)
    return MergeDirection(Side.LEFT, DirectionReason.TIE, lp)


# --- decompose -------------------------------------------------------------------

def decompose(base: Snapshot, changed: Snapshot, *, pairing: Pairing | None = None) -> list[Step]:
    """Steps sufficient to reproduce `changed` from `base`, move rules first.

    Pass one extracts move rules and applies them to a simulation of the
    source side; pass two decomposes the residual into rewrite rules. The
    replay is verified before returning; anything a rule sequence cannot
    express (or got wrong on entries outside the corpus) is patched with
    structural override steps so the round trip always holds. `pairing` is
    `pair_entries(base, changed)` when the caller has it already.
    """
    buckets, structural = map_to_buckets(base, changed, pairing)
    moves: list[MoveRule] = []
    for mv in get_precise_move(buckets, WINDOW):
        app = apply_move({b.label: b.source for b in buckets if not is_name_label(b.label)}, mv)
        if not app.captures or not app.consequent_sites:
            continue
        moves.append(mv)
        buckets = _redissect(buckets, (app.texts.get(b.label, b.source) for b in buckets))
    steps: list[Step] = [*structural, *moves, *decompose_rewrites(buckets)]
    return _verify_and_patch(base, changed, steps)


def _verify_and_patch(base: Snapshot, changed: Snapshot, steps: list[Step]) -> list[Step]:
    """The steps plus the structural patches that turn their replay on `base`
    into `changed`. A replay that fails (a rule misbehaved outside the
    corpus, e.g. a name collision or a move whose consequent has no anchor
    on some entry) is dropped: `base` is patched with no steps."""
    replay = apply_steps(base, steps).result
    if replay is None:
        steps, replay = [], base
    patches: list[Step] = [FileDelete(p) for p in sorted(replay) if p not in changed]
    patches += [FileAdd(p, changed[p]) for p in sorted(changed) if replay.get(p) != changed[p]]
    return steps + patches


# --- applying steps -------------------------------------------------------------

def apply_steps(target: Snapshot, steps: list[Step]) -> MergeOutcome:
    """Replay a step sequence on a snapshot. A run of rewrite rules works on the
    joined contents and names (`_rewrite`); a move runs its antecedent phase
    first; a structural step touches exactly the paths it names."""
    entries: dict[str, str] = dict(target)
    applied: list[AppliedStep] = []
    diagnostics: list[str] = []
    for rewrites, run in groupby(steps, lambda step: isinstance(step, RewriteRule)):
        if rewrites:
            entries, conflict = _rewrite(entries, list(run), applied)
        for step in () if rewrites else run:
            conflict, sites = None, []
            if isinstance(step, FileAdd):
                entries[step.path] = step.content
            elif isinstance(step, FileDelete):
                if entries.pop(step.path, None) is None:
                    conflict = f"delete of missing path {step.path!r}"
            elif isinstance(step, MoveRule):
                app = apply_move(entries, step)
                if app.captures and not app.consequent_sites:
                    conflict = (
                        "move rule antecedent matched but consequent "
                        f"{step.consequent.lhs!r} has no application site"
                    )
                elif app.soft_conflict:
                    diagnostics.append("move rule captured differing texts; first capture used")
                entries = app.texts
                sites = [Site(*site, "antecedent") for site in app.antecedent_sites]
                sites += [Site(*site, "consequent") for site in app.consequent_sites]
            else:
                raise TypeError(f"unknown step type: {step!r}")
            if conflict is not None:
                break
            count = len(sites) if isinstance(step, MoveRule) else 1
            applied.append(AppliedStep(step, count, tuple(sites)))
        if conflict is not None:
            return MergeOutcome(None, Conflict(conflict), applied)
    return MergeOutcome(entries, None, applied, diagnostics)


def _rewrite(
    entries: Snapshot, rules: list[RewriteRule], applied: list[AppliedStep]
) -> tuple[Snapshot, str | None]:
    """The entries after the rules, each one scan and splice of the joined contents
    (and names), and the first name collision. Sites go by entry, content first."""
    paths = list(entries)
    contents, names = Joined.of(list(entries.values())), Joined.of(paths)
    for rule in rules:
        contents, sites = _sited(contents, rule, paths, "content")
        if rule.lhs in names.text:
            after, name_sites = _sited(names, rule, paths, "name")
            renamed, seen = after.split(), set()
            clash = next((p for p in renamed if p in seen or seen.add(p)), None)
            if clash is not None:
                conflict = f"rewrite {rule.lhs!r} -> {rule.rhs!r} renames two entries to {clash!r}"
                return entries, conflict
            order = {p: i for i, p in enumerate(paths)}
            sites = sorted(sites + name_sites, key=lambda s: (order[s.path], s.role == "name"))
            names, paths = after, renamed
        applied.append(AppliedStep(rule, len(sites), tuple(sites)))
    return dict(zip(paths, contents.split())), None


def _sited(
    joined: Joined, rule: RewriteRule, paths: list[str], role: str
) -> tuple[Joined, list[Site]]:
    """The rule applied to the joined texts, the i-th of them paths[i]'s, and its sites."""
    after, spans = joined.rewrite(rule.lhs, rule.rhs)
    sites = []
    for start, end in spans:
        i, local = joined.locate(start)
        sites.append(Site(paths[i], local, local + end - start, role))
    return after, sites


# --- merge -----------------------------------------------------------------------

# A lone surrogate is no UTF-8 text: the CLI reads each undecodable byte of
# a file as one, U+DC80..U+DCFF.
_SURROGATE = re.compile("[\ud800-\udfff]")


def _settle(
    base: Snapshot, left: Snapshot, right: Snapshot
) -> tuple[dict[str, str | None], Conflict | None]:
    """Entries merged whole, outside the decomposition: binary entries (some
    side's content holds a lone surrogate), and entries all three sides hold
    that both sides changed alike. An entry one side left as in base takes
    the other side's; an entry both sides left alike takes theirs (None when
    both deleted it); else a conflict. A path both sides add with different
    contents is a conflict too: the decomposed side's `FileAdd` would
    overwrite the other's."""
    alike = {p for p in base if p in left and p in right and left[p] == right[p] != base[p]}
    binary = {
        p for snap in (base, left, right) for p, v in snap.items()
        if not v.isascii() and _SURROGATE.search(v)
    }
    settled: dict[str, str | None] = {}
    for p in sorted(binary | alike):
        b, lv, rv = base.get(p), left.get(p), right.get(p)
        if lv == b:
            settled[p] = rv
        elif rv == b or lv == rv:
            settled[p] = lv
        else:
            return {}, Conflict(f"binary entry {p!r} changed on both sides")
    for p in sorted(left.keys() & right.keys() - base.keys()):
        if left[p] != right[p]:
            return {}, Conflict(f"entry {p!r} added on both sides with different contents")
    return settled, None


def merge(base: Snapshot, left: Snapshot, right: Snapshot) -> MergeOutcome:
    """Three-way merge: decompose the simpler side, replay it on the other.

    Equal sides are the merge as they are, and so is an entry both sides
    changed alike (`_settle`): replaying one side's change on a side that
    already holds it would apply it twice. An entry whose content on some
    side holds undecodable bytes (lone surrogates) is settled whole too:
    one side's change is taken, and a change on both sides is a conflict.
    """
    if left == right:
        return MergeOutcome(dict(left), None)
    settled, conflict = _settle(base, left, right)
    if conflict:
        return MergeOutcome(None, conflict)
    base, left, right = (
        {p: v for p, v in snap.items() if p not in settled} for snap in (base, left, right)
    )
    direction = determine_direction(base, left, right)
    if isinstance(direction, Conflict):
        return MergeOutcome(None, direction)
    if direction.decomposed_side is Side.LEFT:
        source, apply_target = left, right
    else:
        source, apply_target = right, left
    steps = decompose(base, source, pairing=direction.pairing)
    outcome = apply_steps(apply_target, steps)
    if outcome.ok:
        assert outcome.result is not None
        outcome.result.update({p: v for p, v in settled.items() if v is not None})
    return outcome
