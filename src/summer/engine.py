"""Merge orchestration: bucket mapping, direction choice, decompose, apply.

A snapshot is a mapping from path to content; single-file callers use one
anonymous entry under "". Decomposing a (base, changed) pair produces a step
sequence: structural file steps, then move rules, then rewrite rules. Rules
apply to every entry's content and name, so a class rename expressed once
travels across the whole tree. Replaying the sequence on the base reproduces
the changed side byte for byte; merge replays it on the other branch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum, auto

from .align import Bucket, BucketSet, dissect
from .distance import levenshtein, similarity
from .moves import MoveRule, apply_move
from .rules import (
    ExtractionConfig,
    RewriteRule,
    _token_texts,
    apply_rewrite_to_text,
    decompose_rewrites,
)

Snapshot = dict[str, str]


@dataclass(frozen=True, slots=True)
class FileAdd:
    path: str
    content: str


@dataclass(frozen=True, slots=True)
class FileDelete:
    path: str


@dataclass(frozen=True, slots=True)
class FileRename:
    old: str
    new: str


Step = RewriteRule | MoveRule | FileAdd | FileDelete | FileRename


class Side(Enum):
    LEFT = auto()
    RIGHT = auto()


class DirectionReason(Enum):
    DELETION_FORCED = auto()
    DISTANCE = auto()
    TIE = auto()


@dataclass(frozen=True, slots=True)
class MergeDirection:
    decomposed_side: Side
    reason: DirectionReason


@dataclass(frozen=True, slots=True)
class Conflict:
    diagnostic: str


@dataclass(frozen=True, slots=True)
class Site:
    path: str
    start: int
    end: int
    role: str  # content | name | antecedent | consequent


@dataclass(frozen=True, slots=True)
class AppliedStep:
    step: Step
    count: int
    sites: tuple[Site, ...] = ()


@dataclass
class MergeOutcome:
    result: Snapshot | None
    conflict: Conflict | None
    applied_steps: list[AppliedStep] = field(default_factory=list)
    diagnostics: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.conflict is None


# --- pairing and bucket mapping ------------------------------------------------

@dataclass
class Pairing:
    pairs: list[tuple[str, str]]  # (base path, other path), renames included
    deleted: list[str]
    added: list[str]


def pair_entries(base: Snapshot, other: Snapshot) -> Pairing:
    """Pair by path, then detect renames: identical content first, then the
    best token-level similarity above 0.5."""
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
        scored = []
        for p in removed:
            ptoks = _token_texts(base[p])
            for q in added:
                sim = similarity(ptoks, _token_texts(other[q]))
                if sim > 0.5:
                    scored.append((-sim, p, q))
        taken_p: set[str] = set()
        taken_q: set[str] = set()
        for _negsim, p, q in sorted(scored):
            if p in taken_p or q in taken_q:
                continue
            pairs.append((p, q))
            taken_p.add(p)
            taken_q.add(q)
        removed = [p for p in removed if p not in taken_p]
        added = [q for q in added if q not in taken_q]
    pairs.sort()
    return Pairing(pairs, removed, added)


def map_to_buckets(base: Snapshot, changed: Snapshot) -> tuple[BucketSet, list[Step]]:
    """Buckets for every changed artifact plus structural add/delete steps.

    A renamed entry yields a name bucket (old name => new name) and, when its
    content changed too, a content bucket. Unchanged entries stay out of the
    corpus entirely.
    """
    pairing = pair_entries(base, changed)
    buckets: list[Bucket] = []
    for old, new in pairing.pairs:
        if old != new:
            buckets.append(dissect(old, new, f"name:{old}"))
        if base[old] != changed[new]:
            buckets.append(dissect(base[old], changed[new], f"content:{old}"))
    steps: list[Step] = [FileDelete(p) for p in pairing.deleted]
    steps += [FileAdd(p, changed[p]) for p in pairing.added]
    return BucketSet(tuple(buckets)), steps


# --- merge direction -------------------------------------------------------------

def determine_direction(
    base: Snapshot, left: Snapshot, right: Snapshot
) -> MergeDirection | Conflict:
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
        return MergeDirection(Side.LEFT, DirectionReason.DELETION_FORCED)
    if right_forced:
        return MergeDirection(Side.RIGHT, DirectionReason.DELETION_FORCED)

    def dist(pairing: Pairing, side: Snapshot) -> int:
        total = 0
        for old, new in pairing.pairs:
            total += levenshtein(base[old], side[new])
            if old != new:
                total += levenshtein(old, new)
        total += sum(len(base[p]) for p in pairing.deleted)
        total += sum(len(side[p]) for p in pairing.added)
        return total

    ld = dist(lp, left)
    rd = dist(rp, right)
    if ld < rd:
        return MergeDirection(Side.LEFT, DirectionReason.DISTANCE)
    if rd < ld:
        return MergeDirection(Side.RIGHT, DirectionReason.DISTANCE)
    return MergeDirection(Side.LEFT, DirectionReason.TIE)


# --- decompose -------------------------------------------------------------------

def _content_keys(texts: dict[str, str]) -> dict[str, str]:
    return {k: v for k, v in texts.items() if not k.startswith("name:")}


def decompose(
    base: Snapshot, changed: Snapshot, cfg: ExtractionConfig | None = None
) -> list[Step]:
    """Steps sufficient to reproduce `changed` from `base`, move rules first.

    Pass one extracts move rules and applies them to a simulation of the
    source side; pass two decomposes the residual into rewrite rules. The
    replay is verified before returning; anything a rule sequence cannot
    express (or got wrong on entries outside the corpus) is patched with
    structural override steps so the round trip always holds.
    """
    from .moves import get_precise_move

    cfg = cfg or ExtractionConfig()
    buckets, structural = map_to_buckets(base, changed)
    current = {b.label: b.source for b in buckets}
    targets = {b.label: b.target for b in buckets}
    moves: list[MoveRule] = []
    if any(b.edits for b in buckets):
        for mv in get_precise_move(buckets, cfg):
            contents = _content_keys(current)
            app = apply_move(contents, mv)
            if not app.captures or not app.consequent_sites:
                continue
            moves.append(mv)
            current.update(app.texts)
    rewrites: list[RewriteRule] = []
    if current != targets:
        residual = BucketSet(
            tuple(dissect(current[lbl], targets[lbl], lbl) for lbl in current)
        )
        rewrites = decompose_rewrites(residual, cfg)
    steps: list[Step] = list(structural) + list(moves) + list(rewrites)
    return _verify_and_patch(base, changed, steps)


def _verify_and_patch(base: Snapshot, changed: Snapshot, steps: list[Step]) -> list[Step]:
    outcome = apply_steps(base, steps)
    if not outcome.ok:
        # A rule misbehaved outside the corpus (e.g. a name collision or a
        # move whose consequent has no anchor on some entry). Fall back to
        # plain structural reproduction.
        steps = [FileDelete(p) for p in sorted(base) if p not in changed]
        steps += [
            FileAdd(p, changed[p])
            for p in sorted(changed)
            if base.get(p) != changed[p]
        ]
        return steps
    replay = outcome.result
    assert replay is not None
    patches: list[Step] = []
    for p in sorted(replay):
        if p not in changed:
            patches.append(FileDelete(p))
    for p in sorted(changed):
        if replay.get(p) != changed[p]:
            patches.append(FileAdd(p, changed[p]))
    return steps + patches


# --- applying steps -------------------------------------------------------------

def apply_steps(target: Snapshot, steps: list[Step]) -> MergeOutcome:
    """Replay a step sequence on a snapshot.

    Every rewrite performs one frozen scan per entry (content and name);
    move rules run their antecedent phase before their consequent phase.
    Structural steps touch exactly the paths they name.
    """
    entries: dict[str, str] = dict(target)
    applied: list[AppliedStep] = []
    diagnostics: list[str] = []
    for step in steps:
        if isinstance(step, FileAdd):
            entries[step.path] = step.content
            applied.append(AppliedStep(step, 1))
        elif isinstance(step, FileDelete):
            if step.path not in entries:
                return MergeOutcome(
                    None, Conflict(f"delete of missing path {step.path!r}"), applied
                )
            del entries[step.path]
            applied.append(AppliedStep(step, 1))
        elif isinstance(step, FileRename):
            if step.old not in entries or step.new in entries:
                return MergeOutcome(
                    None,
                    Conflict(f"rename {step.old!r} -> {step.new!r} not applicable"),
                    applied,
                )
            entries[step.new] = entries.pop(step.old)
            applied.append(AppliedStep(step, 1))
        elif isinstance(step, RewriteRule):
            sites: list[Site] = []
            new_entries: dict[str, str] = {}
            for path in entries:
                content, cs = apply_rewrite_to_text(entries[path], step.lhs, step.rhs)
                sites.extend(Site(path, s, e, "content") for s, e in cs)
                new_path = path
                if path:
                    new_path, ns = apply_rewrite_to_text(path, step.lhs, step.rhs)
                    sites.extend(Site(path, s, e, "name") for s, e in ns)
                if new_path in new_entries:
                    return MergeOutcome(
                        None,
                        Conflict(
                            f"rewrite {step.lhs!r} -> {step.rhs!r} renames two "
                            f"entries to {new_path!r}"
                        ),
                        applied,
                    )
                new_entries[new_path] = content
            entries = new_entries
            applied.append(AppliedStep(step, len(sites), tuple(sites)))
        elif isinstance(step, MoveRule):
            app = apply_move(entries, step)
            if app.captures and not app.consequent_sites:
                return MergeOutcome(
                    None,
                    Conflict(
                        "move rule antecedent matched but consequent "
                        f"{step.consequent.lhs!r} has no application site"
                    ),
                    applied,
                )
            if app.soft_conflict:
                diagnostics.append(
                    "move rule captured differing texts; first capture used"
                )
            entries = app.texts
            sites = tuple(
                [Site(p, s, e, "antecedent") for p, s, e in app.antecedent_sites]
                + [Site(p, s, e, "consequent") for p, s, e in app.consequent_sites]
            )
            applied.append(AppliedStep(step, len(sites), sites))
        else:
            raise TypeError(f"unknown step type: {step!r}")
    return MergeOutcome(entries, None, applied, diagnostics)


# --- merge -----------------------------------------------------------------------

def _resolve_binary(
    base: Snapshot, left: Snapshot, right: Snapshot, paths: set[str]
) -> tuple[dict[str, str | None], Conflict | None]:
    resolved: dict[str, str | None] = {}
    for p in sorted(paths):
        b, lv, rv = base.get(p), left.get(p), right.get(p)
        if lv == b:
            resolved[p] = rv
        elif rv == b or lv == rv:
            resolved[p] = lv
        else:
            return {}, Conflict(f"binary entry {p!r} changed on both sides")
    return resolved, None


def merge(
    base: Snapshot,
    left: Snapshot,
    right: Snapshot,
    cfg: ExtractionConfig | None = None,
    binary_paths: set[str] | None = None,
) -> MergeOutcome:
    """Three-way merge: decompose the simpler side, replay it on the other.

    Equal sides are the merge as they are: replaying one side's change on a
    side that already holds it would apply it twice.
    """
    if left == right:
        return MergeOutcome(dict(left), None)
    cfg = cfg or ExtractionConfig()
    binary_paths = set(binary_paths or ())
    resolved: dict[str, str | None] = {}
    if binary_paths:
        resolved, conflict = _resolve_binary(base, left, right, binary_paths)
        if conflict:
            return MergeOutcome(None, conflict)
        base = {p: v for p, v in base.items() if p not in binary_paths}
        left = {p: v for p, v in left.items() if p not in binary_paths}
        right = {p: v for p, v in right.items() if p not in binary_paths}
    direction = determine_direction(base, left, right)
    if isinstance(direction, Conflict):
        return MergeOutcome(None, direction)
    if direction.decomposed_side is Side.LEFT:
        source, apply_target = left, right
    else:
        source, apply_target = right, left
    steps = decompose(base, source, cfg)
    outcome = apply_steps(apply_target, steps)
    if outcome.ok and resolved:
        assert outcome.result is not None
        for p, content in resolved.items():
            if content is not None:
                outcome.result[p] = content
    return outcome
