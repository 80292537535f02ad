"""The four benchmark workloads: input generators, references and op runners.

Every generated input is a pure function of a case index and a spelling.
The case index fixes the edit structure (which lines change and how); the
spelling renames the letter identifiers. A run's check set (its first
``check_ops`` ops), whose correctness is scored, is always spelled with
``CHECK_SEED``, so its shares are the same for every ``--seed`` by
construction: summer breaks ties between rules on their text, so a
spelling can change which rule wins. ``--seed`` spells the timing ops after
the check set (on ``replay``, it draws their drift), so the texts of a run
stay new.

References are never produced by summer: generated workloads compose the two
sides line by line (their edits touch disjoint, non-adjacent lines), and the
corpus uses the developer's ``expected.*`` merge under ``summer.bench``'s
normalization. ``crosscheck.py`` compares the generated references with
``git merge-file``.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
import shutil
import string
import subprocess
import sys
from dataclasses import dataclass, field

CLEAN, CONFLICT, ERROR = "clean", "conflict", "error"
SPAWN_TIMEOUT_S = 60.0
RESERVED_WORDS = {"wrap", "file", "renamed", "java", "import", "package", "public", "class"}
CHECK_SEED = 0  # spells the check set, whatever --seed is


def spelling(seed: int, variant: int, count: int) -> list[str]:
    """``count`` distinct lowercase words of lengths 4..(3 + count).

    Lengths depend only on the position, so two spellings of one case have
    texts of equal length; ``variant`` gives a second spelling of a seed.
    """
    rng = random.Random(f"spelling-{seed}-{variant}")
    words: list[str] = []
    while len(words) < count:
        w = "".join(rng.choice(string.ascii_lowercase) for _ in range(4 + len(words)))
        if w not in words and w not in RESERVED_WORDS:
            words.append(w)
    return words


def _join(lines: list[str]) -> str:
    return "\n".join(lines) + "\n"


def _far_from(candidates: range, taken: set[int]) -> list[int]:
    """Lines at least two away from every taken line (disjoint, non-adjacent)."""
    return [i for i in candidates if all(abs(i - j) > 1 for j in taken)]


@dataclass
class Op:
    """One op: a key identifying its input (None where inputs must repeat), the
    reference snapshot, and the workload-specific input in ``payload``."""

    key: object
    reference: dict[str, str]
    payload: dict = field(default_factory=dict)


@dataclass
class Outcome:
    status: str  # clean | conflict | error
    entries: int
    correct: int
    silent_wrong: int


def compare_snapshot(status: str, result: dict[str, str] | None, reference: dict[str, str]) -> Outcome:
    """Score a merge result entry by entry against its reference.

    Entries of ops that conflicted or errored count as not correct; entries
    of clean exits that differ from the reference are silent wrongs.
    """
    entries = len(reference)
    if status != CLEAN or result is None:
        return Outcome(status, entries, 0, 0)
    correct = sum(1 for p, text in reference.items() if result.get(p) == text)
    return Outcome(CLEAN, entries, correct, entries - correct)


# --- ladder -------------------------------------------------------------------

LADDER_LINES = 900  # 9 tokens a line: ~8.1k tokens a file


def ladder_case(case: int, words: list[str]):
    """Base, left, right and line-wise reference of one ladder merge.

    Left edits one line in 22 (a new value number, or an added term); right
    wraps a sparser set of values, two or more lines from any left edit.
    """
    rng = random.Random(f"ladder-{case}")
    n = LADDER_LINES
    a, b = words[0], words[1]
    base = [f"{a}{i} = {b}{i};" for i in range(n)]
    left, right = list(base), list(base)
    left_lines = set(range(rng.randrange(22), n, 22))
    for i in sorted(left_lines):
        if rng.random() < 0.5:
            left[i] = f"{a}{i} = {b}{rng.randrange(n)};"
        else:
            left[i] = f"{a}{i} = {b}{i} + {rng.randrange(100)};"
    right_lines = set(rng.sample(_far_from(range(n), left_lines), n // 66))
    for i in right_lines:
        right[i] = f"{a}{i} = wrap({b}{i});"
    ref = [left[i] if i in left_lines else right[i] for i in range(n)]
    return _join(base), _join(left), _join(right), _join(ref)


# --- tree ---------------------------------------------------------------------

TREE_FILES = 200
TREE_RENAMED = 40
TREE_RIGHT = 30


def _java_file(i: int, cls: str, w: list[str], ret_op: str, ret_val: int) -> list[str]:
    pkg, fld, get, setter = w[0], w[1], w[2], w[3]
    return [
        f"package {pkg}{i % 10};",
        "",
        "import java.util.List;",
        "",
        f"public class {cls}{i} {{",
        f"    private int {fld}{i} = {i * 7 % 1000};",
        "",
        f"    public int {get}{i}() {{",
        f"        return {fld}{i} {ret_op} {ret_val};",
        "    }",
        "",
        f"    public void {setter}{i}(int x) {{",
        f"        {fld}{i} = x;",
        "    }",
        "}",
    ]


def tree_case(case: int, words: list[str]):
    """Base, left, right and reference snapshots of one directory merge.

    Left renames 40 classes (``File{i}`` to ``Renamed{i}``, path and class
    line) and turns their ``+`` into ``*``; right adds a method to 30 files drawn
    independently. Right's edit is the larger, so left is decomposed.
    """
    rng = random.Random(f"tree-{case}")
    renamed = set(rng.sample(range(TREE_FILES), TREE_RENAMED))
    extended = set(rng.sample(range(TREE_FILES), TREE_RIGHT))
    desc, tag = words[4], words[5]
    base, left, right, ref = {}, {}, {}, {}
    for i in range(TREE_FILES):
        ret_val = rng.randrange(100)
        path = f"src/{words[0]}{i % 10}/File{i}.java"
        lines = _java_file(i, "File", words, "+", ret_val)
        base[path] = _join(lines)
        left_lines = lines
        left_path = path
        if i in renamed:
            left_path = f"src/{words[0]}{i % 10}/Renamed{i}.java"
            left_lines = _java_file(i, "Renamed", words, "*", ret_val)
        left[left_path] = _join(left_lines)
        added = [
            "",
            f"    public String {desc}{i}() {{",
            f'        return "{tag}{rng.randrange(1000)}" + {words[1]}{i};',
            "    }",
        ]
        # Right's method goes after the setter's closing brace (line 13),
        # five lines below left's last edit (line 8).
        right_lines = lines[:14] + added + lines[14:] if i in extended else lines
        right[path] = _join(right_lines)
        ref_lines = left_lines[:14] + added + left_lines[14:] if i in extended else left_lines
        ref[left_path] = _join(ref_lines)
    return base, left, right, ref


# --- replay -------------------------------------------------------------------

REPLAY_LINES = 600
REPLAY_EVERY = 15  # one edited line in 15: ~40 edits, ~40 rules


def replay_change(words: list[str]):
    """The dense ladder change the step document is decomposed from."""
    rng = random.Random("replay-change")
    a, b = words[0], words[1]
    base = [f"{a}{i} = {b}{i};" for i in range(REPLAY_LINES)]
    changed = list(base)
    lines = set(range(rng.randrange(REPLAY_EVERY), REPLAY_LINES, REPLAY_EVERY))
    for i in sorted(lines):
        changed[i] = f"{a}{i} = {b}{i} * {rng.randrange(2, 100)};"
    return base, changed, lines


def replay_case(seed: int, case: int, base: list[str], changed: list[str], changed_lines: set[int],
                words: list[str]):
    """A drifted copy of the base and the line-wise reference of replaying onto it.

    The drift wraps 12 values, two or more lines from any changed line.
    """
    rng = random.Random(f"replay-{seed}-{case}")
    b = words[1]
    drifted = list(base)
    drift = set(rng.sample(_far_from(range(len(base)), changed_lines), 12))
    for i in drift:
        drifted[i] = base[i].replace(f"{b}{i};", f"{b}{i}.{words[2]}({rng.randrange(10)});")
    ref = [changed[i] if i in changed_lines else drifted[i] for i in range(len(base))]
    return _join(drifted), _join(ref)


# --- workloads ----------------------------------------------------------------


class Workload:
    """Set-up, op generation, the timed op and its check for one workload.

    ``setup`` runs after summer is imported and is part of ``setup_s``;
    ``make_op`` builds op ``k``'s input outside the timed region; ``run``
    is the timed region; ``check`` scores its result.
    """

    name = ""
    check_ops = 1
    spawns = False  # ops run in a child process, one at a time

    def __init__(self, root: str, seed: int, summer: dict):
        self.root = root
        self.seed = seed
        self.summer = summer

    def setup(self) -> None:
        pass

    def spelling_seed(self, k: int) -> int:
        """The seed that spells op ``k``: fixed for the check set."""
        return CHECK_SEED if k < self.check_ops else self.seed

    def input_size(self) -> dict:
        raise NotImplementedError

    def make_op(self, k: int, variant: int = 0) -> Op:
        raise NotImplementedError

    def run(self, op: Op, in_process: bool = True):
        raise NotImplementedError

    def check(self, op: Op, result) -> Outcome:
        raise NotImplementedError


class _MergeWorkload(Workload):
    """In-process ``engine.merge`` on generated snapshots."""

    def run(self, op: Op, in_process: bool = True):
        outcome = self.summer["engine"].merge(*op.payload["sides"])
        return (CLEAN if outcome.ok else CONFLICT), outcome.result

    def check(self, op: Op, result) -> Outcome:
        status, snapshot = result
        return compare_snapshot(status, snapshot, op.reference)


class Ladder(_MergeWorkload):
    name = "ladder"
    check_ops = 4

    def input_size(self) -> dict:
        base, _, _, _ = ladder_case(0, spelling(CHECK_SEED, 0, 2))
        return {"files": 1, "lines": LADDER_LINES, "tokens": _tokens(self.summer, base)}

    def make_op(self, k: int, variant: int = 0) -> Op:
        base, left, right, ref = ladder_case(k, spelling(self.spelling_seed(k), variant, 2))
        return Op((base, left, right), {"": ref}, {"sides": ({"": base}, {"": left}, {"": right})})


class Tree(_MergeWorkload):
    name = "tree"
    check_ops = 3

    def input_size(self) -> dict:
        base, _, _, _ = tree_case(0, spelling(CHECK_SEED, 0, 6))
        text = "".join(base.values())
        return {"files": TREE_FILES, "renamed": TREE_RENAMED, "extended": TREE_RIGHT,
                "tokens": _tokens(self.summer, text)}

    def make_op(self, k: int, variant: int = 0) -> Op:
        base, left, right, ref = tree_case(k, spelling(self.spelling_seed(k), variant, 6))
        key = tuple(sorted(base.items())) + tuple(sorted(left.items())) + tuple(sorted(right.items()))
        return Op(key, ref, {"sides": (base, left, right)})


class Replay(Workload):
    """``rebase --steps-in`` in process: ``parse_steps`` then ``apply_steps``."""

    name = "replay"
    check_ops = 8

    def setup(self) -> None:
        self.words = spelling(CHECK_SEED, 0, 3)
        base, changed, lines = replay_change(self.words)
        steps = self.summer["engine"].decompose({"": _join(base)}, {"": _join(changed)})
        self.doc = self.summer["stepio"].serialize_steps(steps)
        self.base, self.changed, self.changed_lines = base, changed, lines

    def input_size(self) -> dict:
        steps = self.summer["stepio"].parse_steps(self.doc)
        return {"files": 1, "lines": REPLAY_LINES, "tokens": _tokens(self.summer, _join(self.base)),
                "doc_steps": len(steps), "doc_bytes": len(self.doc.encode())}

    def make_op(self, k: int, variant: int = 0) -> Op:
        # The step document is fixed by set-up, so a second variant of op k
        # comes from another drift case, not another spelling.
        case = k if variant == 0 else -1 - k
        drifted, ref = replay_case(self.spelling_seed(k), case, self.base, self.changed, self.changed_lines,
                                   self.words)
        return Op(drifted, {"": ref}, {"target": {"": drifted}})

    def run(self, op: Op, in_process: bool = True):
        steps = self.summer["stepio"].parse_steps(self.doc)
        outcome = self.summer["engine"].apply_steps(op.payload["target"], steps)
        return (CLEAN if outcome.ok else CONFLICT), outcome.result

    def check(self, op: Op, result) -> Outcome:
        status, snapshot = result
        return compare_snapshot(status, snapshot, op.reference)


PEAK_TAG = "perfbench-vmhwm-kb"
CHILD = f"""
import runpy, sys
try:
    runpy.run_module("summer", run_name="__main__", alter_sys=True)
finally:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                sys.stderr.write("{PEAK_TAG} " + line.split()[1] + "\\n")
"""


class Corpus(Workload):
    """The bundled scenarios, merged the way git runs a merge driver.

    End-to-end ops spawn ``python -m summer merge BASE LEFT RIGHT`` one at a
    time; a pool would measure the two-core scheduler instead. The child runs
    summer's ``__main__`` through ``runpy`` as ``-m`` does, then reports its
    own peak RSS (``getrusage`` would also count the pages it had from the
    parent before ``exec``). The traced run calls ``cli.main`` in process, so
    wrappers can see inside it. Scenarios repeat from pass to pass (there are only 12), in a seeded
    order; each spawned op is a fresh interpreter, so nothing carries over.
    """

    name = "corpus"
    spawns = True
    child_peak_kb = 0

    def setup(self) -> None:
        bench = self.summer["bench"]
        self.scenarios = bench.load_manifest(os.path.join(self.root, "corpus", "manifest.json"))
        self.check_ops = len(self.scenarios)
        self.expected = {s.id: bench.normalize(bench._read(s.expected), s.kind) for s in self.scenarios}
        self.work = work_dir(self.root)
        os.makedirs(self.work, exist_ok=True)
        self.env = dict(os.environ, PYTHONPATH=os.path.join(self.root, "src"))

    def input_size(self) -> dict:
        return {"files": len(self.scenarios),
                "bytes": sum(os.path.getsize(p) for s in self.scenarios for p in (s.base, s.left, s.right))}

    def make_op(self, k: int, variant: int = 0) -> Op:
        n = len(self.scenarios)
        order = list(range(n))
        random.Random(f"corpus-{self.seed}-{k // n}").shuffle(order)
        scenario = self.scenarios[order[k % n]]
        ext = os.path.splitext(scenario.base)[1]
        work = os.path.join(self.work, "op")
        shutil.rmtree(work, ignore_errors=True)
        os.makedirs(work)
        paths = []
        for role, source in (("base", scenario.base), ("left", scenario.left), ("right", scenario.right)):
            dest = os.path.join(work, role + ext)
            shutil.copyfile(source, dest)
            paths.append(dest)
        return Op(None, {"": self.expected[scenario.id]}, {"paths": paths, "kind": scenario.kind})

    def run(self, op: Op, in_process: bool = True):
        args = ["merge", *op.payload["paths"]]
        if in_process:
            with contextlib.redirect_stderr(io.StringIO()):
                code = self.summer["cli"].main(args)
        else:
            try:
                proc = subprocess.run(
                    [sys.executable, "-c", CHILD, *args],
                    env=self.env, capture_output=True, timeout=SPAWN_TIMEOUT_S,
                )
            except subprocess.TimeoutExpired:
                return ERROR, None
            code = proc.returncode
            for line in proc.stderr.decode("utf-8", "replace").splitlines():
                if line.startswith(PEAK_TAG):
                    self.child_peak_kb = max(self.child_peak_kb, int(line.split()[1]))
        return {0: CLEAN, 1: CONFLICT}.get(code, ERROR), None

    def check(self, op: Op, result) -> Outcome:
        status, _ = result
        merged = None
        if status == CLEAN:
            bench = self.summer["bench"]
            merged = {"": bench.normalize(bench._read(op.payload["paths"][1]), op.payload["kind"])}
        return compare_snapshot(status, merged, op.reference)


def work_dir(root: str) -> str:
    """Scratch space for spawned ops, inside the checkout; removed after a run."""
    return os.path.join(root, ".perfbench", "work")


def _tokens(summer: dict, text: str) -> int:
    return len(summer["tokens"].tokenize(text).tokens)


WORKLOADS = {w.name: w for w in (Ladder, Tree, Corpus, Replay)}
