"""Command-line frontend: decompose, rebase, and merge over files or trees.

Exit codes follow the git merge-driver convention: 0 clean, 1 conflict,
2 usage or I/O error. ``summer merge %O %A %B`` rewrites %A in place.
"""

from __future__ import annotations

import argparse
import os
import sys

from .engine import Snapshot, apply_steps, decompose, merge
from .stepio import parse_steps, serialize_steps

SKIP_DIRS = {".git"}


class CliError(Exception):
    pass


# Bytes that are not UTF-8 ride as the lone surrogates U+DC80..U+DCFF, as
# os.walk hands over undecodable file names (PEP 383). Such characters are
# symbols, so decompose and rebase match them per byte, and every write
# turns them back into the bytes they stand for.
def _load_file(path: str) -> str:
    with open(path, "rb") as fh:
        return fh.read().decode("utf-8", "surrogateescape")


def _encode(text: str) -> bytes:
    return text.encode("utf-8", "surrogateescape")


def _walk_tree(root: str):
    """Yield (relative path with "/" separators, full path) for every file
    under root, in sorted order, skipping SKIP_DIRS."""
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(d for d in dirnames if d not in SKIP_DIRS)
        for name in sorted(filenames):
            full = os.path.join(dirpath, name)
            yield os.path.relpath(full, root).replace(os.sep, "/"), full


def _load_input(path: str) -> tuple[Snapshot, bool]:
    """Returns (snapshot, is_directory)."""
    if os.path.isdir(path):
        return {rel: _load_file(full) for rel, full in _walk_tree(path)}, True
    if os.path.isfile(path):
        return {"": _load_file(path)}, False
    raise CliError(f"no such file or directory: {path}")


def _load_uniform(paths: list[str]) -> tuple[list[Snapshot], bool]:
    loaded = [_load_input(p) for p in paths]
    kinds = {is_dir for _, is_dir in loaded}
    if len(kinds) != 1:
        raise CliError("inputs must be uniformly files or uniformly directories")
    return [snap for snap, _ in loaded], kinds.pop()


def _write(dest: str | bytes | None, data: bytes) -> None:
    """Write data to dest, or to stdout when dest is None."""
    if dest is None:
        sys.stdout.flush()
        sys.stdout.buffer.write(data)
        sys.stdout.buffer.flush()
    else:
        with open(dest, "wb") as fh:
            fh.write(data)


def _emptied(path: bytes) -> bool:
    """Whether removing every file the tree walk finds under a directory
    leaves only directories there: it is no link, and holds no link to a
    directory and nothing the walk skips."""
    if os.path.islink(path):
        return False
    for dirpath, names, _ in os.walk(path):
        for name in names:
            if os.fsdecode(name) in SKIP_DIRS or os.path.islink(os.path.join(dirpath, name)):
                return False
    return True


def _write_tree(root: str, snap: Snapshot) -> None:
    """Make the tree at root hold exactly snap. Every path and content is
    checked and encoded before any file is removed or written: no path may
    also be a directory, of another path or of something that stays. So a
    directory where a file must go holds only files that snap drops, and
    is removed once they are."""
    dirs = {rel[:i] for rel in snap for i, ch in enumerate(rel) if ch == "/"}
    out = []
    for rel, content in snap.items():
        if os.path.isabs(rel) or any(part in ("", ".", "..") for part in rel.split("/")):
            raise CliError(f"unsafe path {rel!r}: absolute, or with an empty, '.' or '..' part")
        full = os.fsencode(os.path.join(root, rel.replace("/", os.sep)))
        if rel in dirs or os.path.isdir(full) and not _emptied(full):
            raise CliError(f"path {rel!r} is both a file and a directory")
        out.append((full, _encode(content)))
    for rel, full in _walk_tree(root):
        if rel not in snap:
            os.remove(full)
    for full, data in out:
        if os.path.isdir(full):
            for emptied, _, _ in os.walk(full, topdown=False):
                os.rmdir(emptied)
        os.makedirs(os.path.dirname(full) or b".", exist_ok=True)
        _write(full, data)


def _write_output(snap: Snapshot, is_dir: bool, dest: str | None) -> None:
    if not is_dir:
        _write(dest, _encode(snap.get("", "")))
    elif dest is None:
        raise CliError("directory mode requires a destination tree")
    else:
        _write_tree(dest, snap)


def cmd_decompose(args: argparse.Namespace) -> int:
    (base, changed), _is_dir = _load_uniform([args.base, args.changed])
    _write(args.steps_out, serialize_steps(decompose(base, changed)).encode("utf-8"))
    return 0


def cmd_rebase(args: argparse.Namespace) -> int:
    if args.steps_in:
        if len(args.paths) != 1:
            raise CliError("rebase with --steps-in takes exactly one target path")
        with open(args.steps_in, encoding="utf-8") as fh:
            steps = parse_steps(fh.read())
        (target,), is_dir = _load_uniform(args.paths)
        target_path = args.paths[0]
    else:
        if len(args.paths) != 3:
            raise CliError("rebase takes BASE CHANGED TARGET, or --steps-in FILE TARGET")
        (base, changed, target), is_dir = _load_uniform(args.paths)
        steps = decompose(base, changed)
        target_path = args.paths[2]
    outcome = apply_steps(target, steps)
    dest = args.output if args.output else (target_path if is_dir else None)
    return _finish(args, outcome, is_dir, dest)


def cmd_merge(args: argparse.Namespace) -> int:
    (base, left, right), is_dir = _load_uniform([args.base, args.left, args.right])
    outcome = merge(base, left, right)
    return _finish(args, outcome, is_dir, args.output if args.output else args.left)


def _finish(args: argparse.Namespace, outcome, is_dir: bool, dest: str | None) -> int:
    """Report a conflict (exit 1), or print the notes unless --quiet and
    write the result (exit 0)."""
    if not outcome.ok:
        print(f"conflict: {outcome.conflict.diagnostic}", file=sys.stderr)
        return 1
    if not args.quiet:
        for note in outcome.diagnostics:
            print(f"note: {note}", file=sys.stderr)
    _write_output(outcome.result, is_dir, dest)
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
