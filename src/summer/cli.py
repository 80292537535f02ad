"""Command-line frontend: decompose, rebase, and merge over files or trees.

Exit codes follow the git merge-driver convention: 0 clean, 1 conflict,
2 usage or I/O error. ``summer merge %O %A %B`` rewrites %A in place.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from typing import NamedTuple

from .engine import Snapshot, apply_steps, decompose, merge
from .stepio import parse_steps, serialize_steps

SKIP_DIRS = {".git"}


class CliError(Exception):
    pass

# Bytes of non-UTF-8 files map into the private-use area, one char per byte.
# PUA characters classify as symbols, so such content degrades to a stream
# of single-byte symbol tokens and matching becomes per-byte, reversibly.
_BYTE_BASE = 0xE000
_BYTE_CHAR = re.compile(f"[{chr(_BYTE_BASE)}-{chr(_BYTE_BASE + 0xFF)}]")


def _decode_binary(raw: bytes) -> str:
    return "".join(chr(_BYTE_BASE + b) for b in raw)


def _encode_binary(content: str) -> bytes:
    out = bytearray()
    for ch in content:
        code = ord(ch)
        if _BYTE_BASE <= code <= _BYTE_BASE + 0xFF:
            out.append(code - _BYTE_BASE)
        else:
            out.extend(ch.encode("utf-8"))
    return bytes(out)


class _Encodings(NamedTuple):
    """How result entries go back to bytes. A path some input held as
    undecodable bytes is written as bytes. Content made only of byte
    characters is too (a step added, renamed or replaced a binary entry),
    unless some input held that path as UTF-8 text with such characters.
    Everything else is UTF-8."""

    binary: set[str]  # paths some input held as undecodable bytes
    text: set[str]  # paths some input held as UTF-8 holding byte characters

    def encode(self, path: str, content: str) -> bytes:
        if path in self.binary or (
            path not in self.text and not _BYTE_CHAR.sub("", content)
        ):
            return _encode_binary(content)
        return content.encode("utf-8")


def _load_file(path: str) -> tuple[str, bool]:
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        return raw.decode("utf-8"), False
    except UnicodeDecodeError:
        return _decode_binary(raw), True


def _walk_tree(root: str):
    """Yield (relative path with "/" separators, full path) for every file
    under root, in sorted order, skipping SKIP_DIRS."""
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(d for d in dirnames if d not in SKIP_DIRS)
        for name in sorted(filenames):
            full = os.path.join(dirpath, name)
            yield os.path.relpath(full, root).replace(os.sep, "/"), full


def _load_tree(root: str) -> tuple[Snapshot, set[str]]:
    snap: Snapshot = {}
    binary: set[str] = set()
    for rel, full in _walk_tree(root):
        text, is_binary = _load_file(full)
        snap[rel] = text
        if is_binary:
            binary.add(rel)
    return snap, binary


def _load_input(path: str) -> tuple[Snapshot, set[str], bool]:
    """Returns (snapshot, binary paths, is_directory)."""
    if os.path.isdir(path):
        snap, binary = _load_tree(path)
        return snap, binary, True
    if os.path.isfile(path):
        text, is_binary = _load_file(path)
        return {"": text}, ({""} if is_binary else set()), False
    raise CliError(f"no such file or directory: {path}")


def _load_uniform(paths: list[str]) -> tuple[list[Snapshot], _Encodings, bool]:
    loaded = [_load_input(p) for p in paths]
    kinds = {is_dir for _, _, is_dir in loaded}
    if len(kinds) != 1:
        raise CliError("inputs must be uniformly files or uniformly directories")
    enc = _Encodings(set(), set())
    for snap, binary, _ in loaded:
        enc.binary.update(binary)
        enc.text.update(
            path for path, content in snap.items()
            if path not in binary and _BYTE_CHAR.search(content)
        )
    return [snap for snap, _, _ in loaded], enc, kinds.pop()


def _write_tree(root: str, snap: Snapshot, enc: _Encodings) -> None:
    for rel in snap:
        if os.path.isabs(rel) or any(part in ("", ".", "..") for part in rel.split("/")):
            raise CliError(f"unsafe path {rel!r}: absolute, or with an empty, '.' or '..' part")
    for rel, full in _walk_tree(root):
        if rel not in snap:
            os.remove(full)
    for rel, content in snap.items():
        full = os.path.join(root, rel.replace("/", os.sep))
        os.makedirs(os.path.dirname(full) or ".", exist_ok=True)
        with open(full, "wb") as fh:
            fh.write(enc.encode(rel, content))


def _write_output(
    snap: Snapshot, enc: _Encodings, is_dir: bool, dest: str | None
) -> None:
    if is_dir:
        if dest is None:
            raise CliError("directory mode requires a destination tree")
        _write_tree(dest, snap, enc)
        return
    content = snap.get("", "")
    if dest is None:
        sys.stdout.write(content)
    else:
        with open(dest, "wb") as fh:
            fh.write(enc.encode("", content))


def cmd_decompose(args: argparse.Namespace) -> int:
    snaps, _enc, _is_dir = _load_uniform([args.base, args.changed])
    base, changed = snaps
    steps = decompose(base, changed)
    text = serialize_steps(steps)
    if args.steps_out:
        with open(args.steps_out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_rebase(args: argparse.Namespace) -> int:
    if args.steps_in:
        if len(args.paths) != 1:
            raise CliError("rebase with --steps-in takes exactly one target path")
        with open(args.steps_in, encoding="utf-8") as fh:
            steps = parse_steps(fh.read())
        (target,), enc, is_dir = _load_uniform(args.paths)
        target_path = args.paths[0]
    else:
        if len(args.paths) != 3:
            raise CliError("rebase takes BASE CHANGED TARGET, or --steps-in FILE TARGET")
        snaps, enc, is_dir = _load_uniform(args.paths)
        base, changed, target = snaps
        steps = decompose(base, changed)
        target_path = args.paths[2]
    outcome = apply_steps(target, steps)
    dest = args.output if args.output else (target_path if is_dir else None)
    return _finish(args, outcome, enc, is_dir, dest)


def cmd_merge(args: argparse.Namespace) -> int:
    snaps, enc, is_dir = _load_uniform([args.base, args.left, args.right])
    base, left, right = snaps
    outcome = merge(base, left, right, binary_paths=enc.binary)
    return _finish(args, outcome, enc, is_dir, args.output if args.output else args.left)


def _finish(
    args: argparse.Namespace, outcome, enc: _Encodings, is_dir: bool, dest: str | None
) -> int:
    """Report a conflict (exit 1), or print the notes unless --quiet and
    write the result (exit 0)."""
    if not outcome.ok:
        print(f"conflict: {outcome.conflict.diagnostic}", file=sys.stderr)
        return 1
    if not args.quiet:
        for note in outcome.diagnostics:
            print(f"note: {note}", file=sys.stderr)
    _write_output(outcome.result, enc, is_dir, dest)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="summer",
        description="Token-level merge: decompose changes into rewrite/move "
        "rules and replay them.",
    )
    sub = parser.add_subparsers(dest="action", required=True)

    p = sub.add_parser("decompose", help="summarize BASE->CHANGED as steps")
    p.add_argument("base")
    p.add_argument("changed")
    p.add_argument("--steps-out", help="write the step JSON here instead of stdout")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser(
        "rebase", help="apply decomposed steps onto TARGET (stdout in file mode)"
    )
    p.add_argument("paths", nargs="+", metavar="PATH",
                   help="BASE CHANGED TARGET, or TARGET with --steps-in")
    p.add_argument("--steps-in", help="step JSON produced by decompose")
    p.add_argument("--output", help="write result here instead of the default")
    p.add_argument("--quiet", action="store_true", help="suppress notes")
    p.set_defaults(func=cmd_rebase)

    p = sub.add_parser(
        "merge", help="three-way merge BASE LEFT RIGHT (writes LEFT in place)"
    )
    p.add_argument("base")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--output", help="write result here instead of LEFT")
    p.add_argument("--quiet", action="store_true", help="suppress notes")
    p.set_defaults(func=cmd_merge)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CliError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
