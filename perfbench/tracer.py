"""Per-layer tracing of summer, installed from outside the program.

``Tracer.install`` wraps the public functions of eight summer modules and
rebinds each wrapper in every ``summer.*`` namespace that binds the original
(engine, rules and moves import names directly, so patching the defining
module alone would miss most calls), except ``summer.bench``, whose
normalisation of the corpus references is the benchmark's checking work. ``uninstall`` puts the originals back.

Layer-boundary functions record a span (name, start, end, parent span, op
id) in memory. Hot functions are aggregated into counters instead of spans.
Every wrapped call, span or counter, sits on one call stack, so a function's
self time is its duration minus the time of the wrapped calls inside it.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from collections import defaultdict

MODULES = ("tokens", "align", "distance", "moves", "rules", "engine", "stepio", "cli")

# Per-character and per-interval predicates: a wrapper would cost more than
# the call itself, so their time stays in their caller's self time.
UNWRAPPED = {"tokens.classify_char", "rules.spans_overlap"}

# Called thousands of times an op: counted, never recorded as spans.
AGGREGATED = {
    "tokens.tokenize",
    "tokens.find_matches",
    "distance.levenshtein",
    "distance.similarity",
    "align.split_lines",
    "rules.atomize",
    "rules.apply_rewrite_to_text",
    "moves.match_pattern",
    "stepio.step_to_obj",
    "stepio.obj_to_step",
}

# Distance work is split by the nearest of these enclosing calls.
SECTIONS = ("engine.determine_direction", "engine.pair_entries", "rules.decompose_rewrites")


def _add_tokenize(t, args, result):
    t.cur["tokens.tokenize.chars"] += len(args[0])


def _common_prefix(a, b) -> int:
    """Length of the common prefix, by bisection over slice comparisons."""
    lo, hi = 0, min(len(a), len(b))
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if a[:mid] == b[:mid]:
            lo = mid
        else:
            hi = mid - 1
    return lo


def _add_levenshtein(t, args, result):
    # Cells of the table the algorithm fills: levenshtein trims the common
    # prefix and suffix first.
    a, b = args
    head = _common_prefix(a, b)
    a, b = a[head:], b[head:]
    tail = _common_prefix(a[::-1], b[::-1])
    cells = (len(a) - tail) * (len(b) - tail)
    t.cur[f"distance.levenshtein.{t.section()}.cells"] += cells


def _add_map_to_buckets(t, args, result):
    t.cur["engine.buckets"] += len(result[0])
    t.structural = len(result[1])


def _add_decompose(t, args, result):
    structural_kinds = ("FileAdd", "FileDelete")
    patched = sum(1 for s in result if type(s).__name__ in structural_kinds)
    t.cur["engine.steps_emitted"] += len(result)
    t.cur["engine.override_steps"] += patched - t.structural


def _add_apply_steps(t, args, result):
    t.cur["engine.apply_steps.sites"] += sum(a.count for a in result.applied_steps)


def _add_sort_and_filter(t, args, result):
    t.cur["rules.candidates_scored"] += len(args[0])
    t.cur["rules.kept"] += len(result)


def _add_decompose_rewrites_trace(t, args, result):
    rules, rounds = result
    t.cur["rules.fixup_rounds"] += len(rounds)
    t.cur["rules.fallback_rules"] += sum(1 for r in rules if r.fallback)


def _add_get_precise_move(t, args, result):
    t.cur["moves.rules_kept"] += len(result)


def _add_serialize_steps(t, args, result):
    t.cur["stepio.doc_bytes"] += len(result.encode())


HOOKS = {
    "tokens.tokenize": _add_tokenize,
    "distance.levenshtein": _add_levenshtein,
    "engine.map_to_buckets": _add_map_to_buckets,
    "engine.decompose": _add_decompose,
    "engine.apply_steps": _add_apply_steps,
    "rules.sort_and_filter": _add_sort_and_filter,
    "rules.decompose_rewrites_trace": _add_decompose_rewrites_trace,
    "moves.get_precise_move": _add_get_precise_move,
    "stepio.serialize_steps": _add_serialize_steps,
}


def _unit(name: str) -> str:
    last = name.rsplit(".", 1)[-1]
    if last == "s" or last.endswith("_s"):
        return "s"
    if last.endswith("ratio"):
        return "ratio"
    if last.endswith("bytes"):
        return "bytes"
    if last == "chars":
        return "chars"
    return "count"


class Tracer:
    """Spans and counters of the wrapped calls, split into set-up and op phases."""

    def __init__(self) -> None:
        self.spans: list[tuple | None] = []  # (name, start, end, parent index, op id)
        self.phases = {"setup": defaultdict(float), "op": defaultdict(float)}
        self.cur = self.phases["setup"]
        self.op_id: object = "setup"
        self.stack: list[list] = []  # [name, child seconds, nearest span index, section]
        self.structural = 0
        self._saved: list[tuple[object, str, object]] = []

    # --- installation ---------------------------------------------------------

    def install(self) -> None:
        wrappers = {}
        for short in MODULES:
            module = sys.modules[f"summer.{short}"]
            for name, fn in vars(module).items():
                qual = f"{short}.{name}"
                if (
                    inspect.isfunction(fn)
                    and fn.__module__ == module.__name__
                    and not name.startswith("_")
                    and qual not in UNWRAPPED
                ):
                    wrappers[fn] = self._wrap(qual, fn)
        for mod_name, namespace in list(sys.modules.items()):
            # summer.bench is the harness's own reference normalisation, not summer's work.
            if mod_name == "summer.bench" or (mod_name != "summer" and not mod_name.startswith("summer.")):
                continue
            for attr, value in list(vars(namespace).items()):
                wrapper = wrappers.get(value) if inspect.isfunction(value) else None
                if wrapper is not None:
                    self._saved.append((namespace, attr, value))
                    setattr(namespace, attr, wrapper)

    def uninstall(self) -> None:
        for namespace, attr, original in reversed(self._saved):
            setattr(namespace, attr, original)
        self._saved.clear()

    def section(self) -> str:
        return self.stack[-1][3].rsplit(".", 1)[-1] if self.stack else "other"

    def _wrap(self, qual: str, fn):
        perf = time.perf_counter
        stack = self.stack
        spans = self.spans
        aggregated = qual in AGGREGATED
        hook = HOOKS.get(qual)
        tracer = self

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            parent_span = parent[2] if parent else -1
            section = qual if qual in SECTIONS else (parent[3] if parent else "other")
            if aggregated:
                frame = [qual, 0.0, parent_span, section]
            else:
                frame = [qual, 0.0, len(spans), section]
                spans.append(None)
            stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent[1] += duration
                cur = tracer.cur
                cur[qual + ".calls"] += 1
                cur[qual + ".s"] += duration
                cur[qual + ".self_s"] += duration - frame[1]
                cur["self_total"] += duration - frame[1]
                if not aggregated:
                    spans[frame[2]] = (qual, start, end, parent_span, tracer.op_id)
                if qual in ("distance.levenshtein", "distance.similarity"):
                    key = f"{qual}.{section.rsplit('.', 1)[-1]}"
                    cur[key + ".calls"] += 1
                    cur[key + ".self_s"] += duration - frame[1]
            if hook is not None:
                stack.append(frame)  # hooks that ask for the section see this call's
                hook_start = perf()
                try:
                    hook(tracer, args, result)
                finally:
                    stack.pop()
                    if parent is not None:  # bookkeeping is not the caller's self time
                        parent[1] += perf() - hook_start
            return result

        return wrapper

    # --- phases -----------------------------------------------------------------

    def begin(self, op_id: object) -> None:
        self.op_id = op_id
        self.cur = self.phases["setup" if op_id == "setup" else "op"]

    def add_cache_info(self, info) -> None:
        """Fold in ``tokenize_cached.cache_info()`` read just before a clear."""
        self.cur["cache.hits"] += info.hits
        self.cur["cache.misses"] += info.misses

    # --- results ------------------------------------------------------------------

    def _span_totals(self) -> dict[str, float]:
        """Span-derived times: verify vs replay, and CLI time outside the merge."""
        spans = self.spans
        totals: dict[str, float] = defaultdict(float)

        def has_ancestor(index: int, name: str) -> bool:
            while index >= 0:
                span = spans[index]
                if span[0] == name:
                    return True
                index = span[3]
            return False

        for span in spans:
            if span is None:
                continue
            name, start, end, parent, op = span
            phase = "setup" if op == "setup" else "op"
            if name == "engine.apply_steps":
                kind = "verify" if has_ancestor(parent, "engine.decompose") else "replay"
                totals[f"{phase}.engine.{kind}.s"] += end - start
            elif name == "cli.main":
                totals[f"{phase}.cli.io_s"] += end - start
            elif name == "engine.merge" and has_ancestor(parent, "cli.main"):
                totals[f"{phase}.cli.io_s"] -= end - start
        return totals

    def layer_metrics(self, n_ops: int) -> dict[str, tuple[float, str]]:
        """Per-layer values for one set-up plus one average op."""
        setup, op = self.phases["setup"], self.phases["op"]
        spans = self._span_totals()

        def per(key: str) -> float:
            return setup.get(key, 0.0) + op.get(key, 0.0) / n_ops

        def span_per(key: str) -> float:
            return spans.get(f"setup.{key}", 0.0) + spans.get(f"op.{key}", 0.0) / n_ops

        def ratio(num: str, den: list[str]) -> float:
            total = sum(setup.get(k, 0.0) + op.get(k, 0.0) for k in den)
            return (setup.get(num, 0.0) + op.get(num, 0.0)) / total if total else 0.0

        out = {
            "tokens.tokenize.calls": per("tokens.tokenize.calls"),
            "tokens.tokenize.chars": per("tokens.tokenize.chars"),
            "tokens.tokenize.self_s": per("tokens.tokenize.self_s"),
            "tokens.find_matches.calls": per("tokens.find_matches.calls"),
            "tokens.find_matches.self_s": per("tokens.find_matches.self_s"),
            "tokens.tokenize_cached.hit_ratio": ratio("cache.hits", ["cache.hits", "cache.misses"]),
            "align.dissect.calls": per("align.dissect.calls"),
            "align.dissect.self_s": per("align.dissect.self_s"),
            "align.line_diff.self_s": per("align.line_diff.self_s"),
            "align.align_tokens.self_s": per("align.align_tokens.self_s"),
        }
        for section in SECTIONS:
            short = section.rsplit(".", 1)[-1]
            for stat in ("calls", "cells", "self_s"):
                key = f"distance.levenshtein.{short}.{stat}"
                out[key] = per(key)
        out.update({
            "engine.pair_entries.s": per("engine.pair_entries.s"),
            "engine.pair_entries.similarity_calls": per("distance.similarity.pair_entries.calls"),
            "engine.determine_direction.s": per("engine.determine_direction.s"),
            "engine.map_to_buckets.s": per("engine.map_to_buckets.s"),
            "engine.buckets": per("engine.buckets"),
            "engine.decompose.s": per("engine.decompose.s"),
            "engine.verify.s": span_per("engine.verify.s"),
            "engine.replay.s": span_per("engine.replay.s"),
            "engine.apply_steps.sites": per("engine.apply_steps.sites"),
            "engine.steps_emitted": per("engine.steps_emitted"),
            "engine.override_steps": per("engine.override_steps"),
            "moves.get_precise_move.s": per("moves.get_precise_move.s"),
            "moves.apply_move.calls": per("moves.apply_move.calls"),
            "moves.apply_move.self_s": per("moves.apply_move.self_s"),
            "moves.rules_kept": per("moves.rules_kept"),
            "rules.decompose_rewrites.s": per("rules.decompose_rewrites.s"),
            "rules.fixup_rounds": per("rules.fixup_rounds"),
            "rules.candidates_scored": per("rules.candidates_scored"),
            "rules.kept_ratio": ratio("rules.kept", ["rules.candidates_scored"]),
            "rules.fallback_rules": per("rules.fallback_rules"),
            "rules.apply_rewrite_to_text.calls": per("rules.apply_rewrite_to_text.calls"),
            "rules.apply_rewrite_to_text.self_s": per("rules.apply_rewrite_to_text.self_s"),
            "stepio.parse_steps.s": per("stepio.parse_steps.s"),
            "stepio.serialize_steps.s": per("stepio.serialize_steps.s"),
            "stepio.doc_bytes": per("stepio.doc_bytes"),
            "cli.io_s": span_per("cli.io_s"),
        })
        return {name: (value, _unit(name)) for name, value in out.items()}

    def op_self_seconds(self) -> float:
        return self.phases["op"].get("self_total", 0.0)

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                [dict(zip(("name", "start", "end", "parent", "op"), s)) for s in self.spans if s],
                fh,
            )
