"""Versioned JSON wire format for step sequences.

Strings ride inside JSON, so tabs, newlines, and other control characters
survive verbatim. Move patterns are carried structurally (prefix and suffix
around the capture slot) rather than with an in-band marker character, so no
file content can ever collide with the slot.
"""

from __future__ import annotations

import json

from .engine import FileAdd, FileDelete, Step
from .moves import Antecedent, Consequent, MovePattern, MoveRule
from .rules import RewriteRule

FORMAT_VERSION = 1


def step_to_obj(step: Step) -> dict:
    if isinstance(step, RewriteRule):
        return {"kind": "rewrite", "lhs": step.lhs, "rhs": step.rhs}
    if isinstance(step, MoveRule):
        return {
            "kind": "move",
            "antecedent": {
                "prefix": step.antecedent.lhs.literal_prefix,
                "suffix": step.antecedent.lhs.literal_suffix,
                "rhs": step.antecedent.rhs,
            },
            "consequent": {
                "lhs": step.consequent.lhs,
                "prefix": step.consequent.rhs.literal_prefix,
                "suffix": step.consequent.rhs.literal_suffix,
            },
        }
    if isinstance(step, FileAdd):
        return {"kind": "file_add", "path": step.path, "content": step.content}
    if isinstance(step, FileDelete):
        return {"kind": "file_delete", "path": step.path}
    raise TypeError(f"unknown step: {step!r}")


def _str(obj: dict, name: str) -> str:
    value = obj.get(name) if isinstance(obj, dict) else None
    if not isinstance(value, str):
        raise ValueError(f"malformed step: {obj!r} needs a string {name!r}")
    return value


def _needle(obj: dict, name: str) -> str:
    value = _str(obj, name)
    if not value:  # replay cannot search for it, and decompose emits none
        raise ValueError(f"malformed step: {obj!r} needs a nonempty {name!r}")
    return value


def obj_to_step(obj: object) -> Step:
    if not isinstance(obj, dict):
        raise ValueError(f"malformed step: {obj!r}")
    kind = obj.get("kind")
    if kind == "rewrite":
        return RewriteRule(_needle(obj, "lhs"), _str(obj, "rhs"))
    if kind == "move":
        a = obj.get("antecedent")
        c = obj.get("consequent")
        return MoveRule(
            Antecedent(MovePattern(_needle(a, "prefix"), _needle(a, "suffix")), _str(a, "rhs")),
            Consequent(_needle(c, "lhs"), MovePattern(_str(c, "prefix"), _str(c, "suffix"))),
        )
    if kind == "file_add":
        return FileAdd(_str(obj, "path"), _str(obj, "content"))
    if kind == "file_delete":
        return FileDelete(_str(obj, "path"))
    raise ValueError(f"unknown step kind: {kind!r}")


def serialize_steps(steps: list[Step]) -> str:
    doc = {"version": FORMAT_VERSION, "steps": [step_to_obj(s) for s in steps]}
    return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"


def parse_steps(text: str) -> list[Step]:
    doc = json.loads(text)
    if not isinstance(doc, dict) or doc.get("version") != FORMAT_VERSION:
        raise ValueError("unsupported step document version")
    if not isinstance(doc.get("steps"), list):
        raise ValueError("step document has no list of steps")
    return [obj_to_step(o) for o in doc["steps"]]
