import json
import os
import subprocess
import sys

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from summer.cli import main
from summer.engine import FileAdd, FileDelete, apply_steps, decompose, merge
from summer.moves import Antecedent, Consequent, MovePattern, MoveRule
from summer.rules import RewriteRule
from summer.stepio import parse_steps, serialize_steps


def write(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


@pytest.fixture
def trio(tmp_path):
    base = tmp_path / "base.txt"
    left = tmp_path / "left.txt"
    right = tmp_path / "right.txt"
    write(base, "i++")
    write(left, "i--")
    write(right, "i+=1")
    return base, left, right


class TestStepSerialization:
    def test_round_trip_all_kinds(self):
        steps = [
            RewriteRule("+", "-"),
            RewriteRule("a\tb", "c\nd"),
            MoveRule(
                Antecedent(MovePattern("\n\t\t", "\n\t\tL"), "\n\t\tr();\n\t\tL"),
                Consequent("\n\n", MovePattern("\n\npre ", " post\n")),
            ),
            FileAdd("dir/new.txt", "content\nwith\tcontrols\x07"),
            FileDelete("gone.txt"),
        ]
        assert parse_steps(serialize_steps(steps)) == steps

    @given(
        st.text(min_size=1, max_size=20),
        st.text(max_size=20),
        st.text(min_size=1, max_size=8),
        st.text(min_size=1, max_size=8),
    )
    @settings(max_examples=60)
    def test_round_trip_arbitrary_strings(self, lhs, rhs, prefix, suffix):
        if lhs == rhs:
            rhs = rhs + "!"
        steps = [
            RewriteRule(lhs, rhs),
            MoveRule(
                Antecedent(MovePattern(prefix, suffix), rhs),
                Consequent(lhs, MovePattern(prefix, suffix)),
            ),
        ]
        assert parse_steps(serialize_steps(steps)) == steps

    def test_version_checked(self):
        with pytest.raises(ValueError):
            parse_steps('{"version": 99, "steps": []}')


class TestDecomposeCommand:
    def test_stdout_steps(self, trio, capsys):
        base, left, _ = trio
        assert main(["decompose", str(base), str(left)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["steps"] == [{"kind": "rewrite", "lhs": "+", "rhs": "-"}]

    def test_steps_out_file(self, trio, tmp_path):
        base, left, _ = trio
        out = tmp_path / "steps.json"
        assert main(["decompose", str(base), str(left), "--steps-out", str(out)]) == 0
        assert parse_steps(read(out)) == [RewriteRule("+", "-")]

    def test_identical_files_empty_steps(self, trio, capsys):
        base, _, _ = trio
        assert main(["decompose", str(base), str(base)]) == 0
        assert json.loads(capsys.readouterr().out)["steps"] == []

    def test_missing_file_exits_2(self, tmp_path):
        assert main(["decompose", str(tmp_path / "nope"), str(tmp_path / "nope2")]) == 2

    def test_no_quiet_flag(self, trio, capsys):
        # It prints no notes, so there is nothing to silence.
        base, left, _ = trio
        with pytest.raises(SystemExit) as exc:
            main(["decompose", str(base), str(left), "--quiet"])
        assert exc.value.code == 2
        assert "--quiet" in capsys.readouterr().err


def _move(prefix="(", suffix=")", lhs="END"):
    """A move step object whose antecedent matches nothing in "i+=1"."""
    return {
        "kind": "move",
        "antecedent": {"prefix": prefix, "suffix": suffix, "rhs": "[]"},
        "consequent": {"lhs": lhs, "prefix": "<", "suffix": ">"},
    }


class TestRebaseCommand:
    def test_three_path_form(self, trio, capsys):
        base, left, right = trio
        assert main(["rebase", str(base), str(left), str(right)]) == 0
        assert capsys.readouterr().out == "i-=1"

    def test_steps_in_form(self, trio, tmp_path, capsys):
        base, left, right = trio
        steps_file = tmp_path / "steps.json"
        write(steps_file, serialize_steps([RewriteRule("+", "-")]))
        assert main(["rebase", "--steps-in", str(steps_file), str(right)]) == 0
        assert capsys.readouterr().out == "i-=1"

    def test_empty_steps_leave_target_unchanged(self, trio, tmp_path, capsys):
        _, _, right = trio
        steps_file = tmp_path / "steps.json"
        write(steps_file, serialize_steps([]))
        assert main(["rebase", "--steps-in", str(steps_file), str(right)]) == 0
        assert capsys.readouterr().out == "i+=1"

    @pytest.mark.parametrize(
        "doc",
        [
            {"version": 1},
            {"version": 1, "steps": [{"kind": "rewrite", "lhs": "+"}]},
            {"version": 1, "steps": ["x"]},
            {"version": 1, "steps": [{"kind": "rewrite", "lhs": 1, "rhs": "-"}]},
            {"version": 1, "steps": [{"kind": "move", "antecedent": {}, "consequent": {}}]},
            # Empty needles, which replay cannot search for and decompose never emits.
            {"version": 1, "steps": [{"kind": "rewrite", "lhs": "", "rhs": "-"}]},
            {"version": 1, "steps": [_move(prefix="")]},
            {"version": 1, "steps": [_move(suffix="")]},
            # Its antecedent matches nothing, so replay would never reach it.
            {"version": 1, "steps": [_move(lhs="")]},
        ],
    )
    def test_malformed_steps_exit_2(self, trio, tmp_path, capsys, doc):
        # Exit 1 means "conflict" to git; a bad step document is a usage error.
        _, _, right = trio
        steps_file = tmp_path / "steps.json"
        write(steps_file, json.dumps(doc))
        assert main(["rebase", "--steps-in", str(steps_file), str(right)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert read(right) == "i+=1"

    def test_file_rename_kind_exits_2(self, tmp_path, capsys):
        # decompose never emits a rename step: a renamed entry travels as a
        # rewrite of its name.
        target = tmp_path / "target"
        target.mkdir()
        write(target / "old.txt", "a\n")
        doc = {"version": 1, "steps": [{"kind": "file_rename", "old": "old.txt", "new": "new.txt"}]}
        steps_file = tmp_path / "steps.json"
        write(steps_file, json.dumps(doc))
        assert main(["rebase", "--steps-in", str(steps_file), str(target)]) == 2
        assert "unknown step kind: 'file_rename'" in capsys.readouterr().err
        assert read(target / "old.txt") == "a\n"
        assert not (target / "new.txt").exists()

    @pytest.mark.parametrize(
        "step",
        [FileAdd("../escaped.txt", "x\n"), RewriteRule("a", "../a")],
    )
    def test_steps_cannot_write_outside_the_tree(self, tmp_path, capsys, step):
        target = tmp_path / "target"
        target.mkdir()
        write(target / "a.txt", "a\n")
        steps_file = tmp_path / "steps.json"
        write(steps_file, serialize_steps([step]))
        rc = main(["rebase", "--steps-in", str(steps_file), str(target)])
        assert rc == 2
        assert "unsafe path" in capsys.readouterr().err
        assert not (tmp_path / "escaped.txt").exists()
        assert not (tmp_path / "a.txt").exists()
        assert read(target / "a.txt") == "a\n"

    # A high surrogate stands for no byte, so no result holding one can be
    # written; only a step document can carry it. Nothing may change on disk.
    UNWRITABLE = "\ud800"

    def test_unwritable_result_leaves_the_output_file(self, tmp_path, capsys):
        write(tmp_path / "target.txt", "a\n")
        write(tmp_path / "out.txt", "keep\n")
        steps_file = tmp_path / "steps.json"
        doc = {"version": 1, "steps": [{"kind": "rewrite", "lhs": "a", "rhs": self.UNWRITABLE}]}
        write(steps_file, json.dumps(doc))
        args = ["rebase", "--steps-in", str(steps_file), str(tmp_path / "target.txt")]
        assert main([*args, "--output", str(tmp_path / "out.txt")]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert read(tmp_path / "out.txt") == "keep\n"

    @pytest.mark.parametrize("where", ["content", "name"])
    def test_unwritable_result_leaves_the_tree(self, tmp_path, capsys, where):
        target = tmp_path / "target"
        target.mkdir()
        files = {"a.txt": "a\n", "z.txt": "z\n"}
        for rel, text in files.items():
            write(target / rel, text)
        bad = {"content": "c\n" + self.UNWRITABLE, "name": "c\n"}[where]
        steps = [
            {"kind": "file_delete", "path": "z.txt"},
            {"kind": "file_add", "path": "c.txt", "content": bad},
            {"kind": "rewrite", "lhs": "a", "rhs": "A"},
        ]
        if where == "name":
            steps.append({"kind": "rewrite", "lhs": "c", "rhs": self.UNWRITABLE})
        steps_file = tmp_path / "steps.json"
        write(steps_file, json.dumps({"version": 1, "steps": steps}))
        assert main(["rebase", "--steps-in", str(steps_file), str(target)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert {p.name: read(p) for p in target.iterdir()} == files

    @staticmethod
    def tree_state(root) -> dict:
        """Every file with its text and every directory (as None) under root."""
        return {
            p.relative_to(root).as_posix(): read(p) if p.is_file() else None
            for p in root.rglob("*")
        }

    def rebase_tree(self, tmp_path, files: dict, steps: list) -> tuple[int, dict, dict]:
        """Exit code of rebasing a tree of `files` with `steps`, and the
        tree's state before and after."""
        target = tmp_path / "target"
        for rel, text in files.items():
            (target / rel).parent.mkdir(parents=True, exist_ok=True)
            write(target / rel, text)
        steps_file = tmp_path / "steps.json"
        write(steps_file, json.dumps({"version": 1, "steps": steps}))
        before = self.tree_state(target)
        rc = main(["rebase", "--steps-in", str(steps_file), str(target)])
        return rc, before, self.tree_state(target)

    @pytest.mark.parametrize(
        "files, added",
        [
            # The steps add a file below a file the tree keeps, "a".
            ({"a": "a\n", "z": "z\n"}, "a/b"),
            # The steps add a file where the tree keeps a directory.
            ({"q/b": "b\n", "z": "z\n"}, "q"),
            # ... or where a directory holds only what the tree walk skips.
            ({"q/.git/b": "b\n", "z": "z\n"}, "q"),
        ],
    )
    def test_path_clash_leaves_the_tree(self, tmp_path, capsys, files, added):
        steps = [
            {"kind": "file_add", "path": added, "content": "new\n"},
            {"kind": "file_delete", "path": "z"},
        ]
        rc, before, after = self.rebase_tree(tmp_path, files, steps)
        assert rc == 2
        clash = added.split("/")[0]
        assert f"path {clash!r} is both a file and a directory" in capsys.readouterr().err
        assert after == before

    def test_file_never_replaces_a_link_to_a_directory(self, tmp_path, capsys):
        outside = tmp_path / "outside"
        (outside / "empty").mkdir(parents=True)
        files = {"z": "z\n"}
        target = tmp_path / "target"
        target.mkdir()
        (target / "q").symlink_to(outside, target_is_directory=True)
        steps = [{"kind": "file_add", "path": "q", "content": "q\n"}]
        rc, before, after = self.rebase_tree(tmp_path, files, steps)
        assert rc == 2
        assert "path 'q' is both a file and a directory" in capsys.readouterr().err
        assert after == before
        assert (target / "q").is_symlink() and (outside / "empty").is_dir()

    def test_file_replaces_the_directory_it_empties(self, tmp_path):
        files = {"q/b": "b\n", "q/c/d": "d\n", "z": "z\n"}
        steps = [
            {"kind": "file_delete", "path": "q/b"},
            {"kind": "file_delete", "path": "q/c/d"},
            {"kind": "file_add", "path": "q", "content": "q\n"},
        ]
        rc, _, after = self.rebase_tree(tmp_path, files, steps)
        assert rc == 0
        assert after == {"q": "q\n", "z": "z\n"}

    def test_output_flag(self, trio, tmp_path):
        base, left, right = trio
        dest = tmp_path / "merged.txt"
        assert main(["rebase", str(base), str(left), str(right), "--output", str(dest)]) == 0
        assert read(dest) == "i-=1"

    def test_move_conflict_exits_1(self, tmp_path, capsys):
        from tests.conftest import EXTRACT_BASE, EXTRACT_LEFT, EXTRACT_RIGHT

        base = tmp_path / "b.java"
        left = tmp_path / "l.java"
        target = tmp_path / "t.java"
        write(base, EXTRACT_BASE)
        write(left, EXTRACT_LEFT)
        write(target, EXTRACT_RIGHT.replace("\t}\n\n}", "\t}\n}"))
        assert main(["rebase", str(base), str(left), str(target)]) == 1
        assert "conflict" in capsys.readouterr().err

    def test_wrong_arity_exits_2(self, trio):
        base, left, _ = trio
        assert main(["rebase", str(base), str(left)]) == 2

    @pytest.mark.parametrize("quiet", [False, True])
    def test_quiet_suppresses_notes(self, tmp_path, capsys, quiet):
        # Two captures differ, so replay notes that it used the first.
        target = tmp_path / "t.txt"
        write(target, "(a) (b) END")
        steps_file = tmp_path / "steps.json"
        move = MoveRule(
            Antecedent(MovePattern("(", ")"), "[]"),
            Consequent("END", MovePattern("END (", ")")),
        )
        write(steps_file, serialize_steps([move]))
        argv = ["rebase", "--steps-in", str(steps_file), str(target)]
        assert main(argv + ["--quiet"] * quiet) == 0
        out, err = capsys.readouterr()
        assert out == "[] [] END (a)"
        note = "note: move rule captured differing texts; first capture used\n"
        assert err == ("" if quiet else note)


class TestMergeCommand:
    def test_writes_left_in_place(self, trio):
        base, left, right = trio
        assert main(["merge", str(base), str(left), str(right)]) == 0
        assert read(left) == "i-=1"

    def test_output_flag_preserves_left(self, trio, tmp_path):
        base, left, right = trio
        dest = tmp_path / "out.txt"
        assert main(["merge", str(base), str(left), str(right), "--output", str(dest)]) == 0
        assert read(dest) == "i-=1"
        assert read(left) == "i--"

    def test_left_equals_base(self, trio, tmp_path):
        base, _, right = trio
        dest = tmp_path / "out.txt"
        assert main(["merge", str(base), str(base), str(right), "--output", str(dest)]) == 0
        assert read(dest) == "i+=1"

    def test_cross_delete_modify_directories_exit_1(self, tmp_path, capsys):
        for name, files in (
            ("base", {"A": "a\n", "B": "b\n"}),
            ("left", {"B": "b changed\n"}),
            ("right", {"A": "a changed\n"}),
        ):
            d = tmp_path / name
            d.mkdir()
            for fn, text in files.items():
                write(d / fn, text)
        rc = main(["merge", str(tmp_path / "base"), str(tmp_path / "left"), str(tmp_path / "right")])
        assert rc == 1

    def test_add_add_directories_exit_1(self, tmp_path, capsys):
        for name, files in (
            ("base", {"a": "x = 1\n"}),
            ("left", {"a": "x = 1\n", "n": "L\n"}),
            ("right", {"a": "x = 2\n", "n": "R\n"}),
        ):
            d = tmp_path / name
            d.mkdir()
            for fn, text in files.items():
                write(d / fn, text)
        rc = main(["merge", str(tmp_path / "base"), str(tmp_path / "left"), str(tmp_path / "right")])
        assert rc == 1
        assert "'n' added on both sides" in capsys.readouterr().err
        assert read(tmp_path / "left" / "n") == "L\n"

    def test_directory_merge_in_place(self, tmp_path):
        for name, files in (
            ("base", {"a.txt": "i++", "sub/b.txt": "Foo"}),
            ("left", {"a.txt": "i--", "sub/b.txt": "Foo"}),
            ("right", {"a.txt": "i+=1", "sub/b.txt": "Bar"}),
        ):
            d = tmp_path / name
            for fn, text in files.items():
                p = d / fn
                p.parent.mkdir(parents=True, exist_ok=True)
                write(p, text)
        (tmp_path / "left" / ".git").mkdir()
        write(tmp_path / "left" / ".git" / "HEAD", "ref: nothing")
        rc = main(["merge", str(tmp_path / "base"), str(tmp_path / "left"), str(tmp_path / "right")])
        assert rc == 0
        assert read(tmp_path / "left" / "a.txt") == "i-=1"
        assert read(tmp_path / "left" / "sub" / "b.txt") == "Bar"
        assert (tmp_path / "left" / ".git" / "HEAD").exists()

    def test_directory_rebase_with_rename(self, tmp_path):
        # A renamed file travels through name-bucket rules; the target tree
        # is updated in place, dropping the old path.
        for name, files in (
            ("base", {"bc.go": 'import bc "github.com/x"\n', "keep.txt": "k\n"}),
            ("changed", {"Program.go": 'import bc "gitlab.com/x"\n', "keep.txt": "k\n"}),
            ("target", {"bc.go": 'import bc "github.com/x"\n', "keep.txt": "k\n"}),
        ):
            d = tmp_path / name
            d.mkdir()
            for fn, text in files.items():
                write(d / fn, text)
        rc = main([
            "rebase",
            str(tmp_path / "base"),
            str(tmp_path / "changed"),
            str(tmp_path / "target"),
        ])
        assert rc == 0
        assert not (tmp_path / "target" / "bc.go").exists()
        assert read(tmp_path / "target" / "Program.go") == 'import bc "gitlab.com/x"\n'
        assert read(tmp_path / "target" / "keep.txt") == "k\n"

    def test_mixed_file_and_directory_exits_2(self, trio, tmp_path):
        base, left, _ = trio
        d = tmp_path / "dir"
        d.mkdir()
        assert main(["merge", str(base), str(left), str(d)]) == 2


# Random bytes, and texts of words, digits and separators with stray bytes.
BYTE_TEXTS = st.one_of(
    st.binary(max_size=24),
    st.lists(st.sampled_from([b"ab", b"1", b" ", b"\n", b"\xff", b"\xc3", b"\xc3\xa9", b"+"]),
             max_size=16).map(b"".join),
)


class TestBinaryEntries:
    def test_single_side_binary_change_merges(self, tmp_path):
        base_bytes = b"\x89PNG\x00\x01\xff\xfe"
        new_bytes = b"\x89PNG\x00\x02\xff\xfe\x80"
        (tmp_path / "base.bin").write_bytes(base_bytes)
        (tmp_path / "left.bin").write_bytes(base_bytes)
        (tmp_path / "right.bin").write_bytes(new_bytes)
        dest = tmp_path / "out.bin"
        rc = main([
            "merge",
            str(tmp_path / "base.bin"),
            str(tmp_path / "left.bin"),
            str(tmp_path / "right.bin"),
            "--output", str(dest),
        ])
        assert rc == 0
        assert dest.read_bytes() == new_bytes

    def test_both_sides_binary_change_conflicts(self, tmp_path):
        (tmp_path / "base.bin").write_bytes(b"\xff\x00\x01")
        (tmp_path / "left.bin").write_bytes(b"\xff\x00\x02")
        (tmp_path / "right.bin").write_bytes(b"\xff\x00\x03")
        rc = main([
            "merge",
            str(tmp_path / "base.bin"),
            str(tmp_path / "left.bin"),
            str(tmp_path / "right.bin"),
        ])
        assert rc == 1

    def test_binary_rebase_round_trips_bytes(self, tmp_path):
        # Decompose/rebase treat undecodable bytes as per-byte symbol tokens.
        base_bytes = b"\x00\x01\x02\x03\xfe\xff"
        changed_bytes = b"\x00\x01\x99\x03\xfe\xff"
        (tmp_path / "base.bin").write_bytes(base_bytes)
        (tmp_path / "changed.bin").write_bytes(changed_bytes)
        (tmp_path / "target.bin").write_bytes(base_bytes)
        dest = tmp_path / "out.bin"
        rc = main([
            "rebase",
            str(tmp_path / "base.bin"),
            str(tmp_path / "changed.bin"),
            str(tmp_path / "target.bin"),
            "--output", str(dest),
        ])
        assert rc == 0
        assert dest.read_bytes() == changed_bytes


    BASE_BYTES, CHANGED_BYTES = b"\x00\x01\x02\x03\xfe\xff", b"\x00\x01\x99\x03\xfe\xff"

    def write_pair(self, tmp_path):
        (tmp_path / "base.bin").write_bytes(self.BASE_BYTES)
        (tmp_path / "changed.bin").write_bytes(self.CHANGED_BYTES)
        return str(tmp_path / "base.bin"), str(tmp_path / "changed.bin")

    def test_binary_rebase_to_stdout_writes_the_bytes(self, tmp_path, capsysbinary):
        base, changed = self.write_pair(tmp_path)
        assert main(["rebase", base, changed, base]) == 0
        assert capsysbinary.readouterr().out == self.CHANGED_BYTES

    def test_binary_step_document_is_utf8_json(self, tmp_path):
        # Undecodable bytes are spelled as JSON escapes, "\\udc99" for 0x99.
        steps = tmp_path / "steps.json"
        assert main(["decompose", *self.write_pair(tmp_path), "--steps-out", str(steps)]) == 0
        text = steps.read_bytes().decode("utf-8")
        assert "\\udc99" in text and json.loads(text)["version"] == 1
        base = {"": self.BASE_BYTES.decode("utf-8", "surrogateescape")}
        replayed = apply_steps(base, parse_steps(text)).result[""]
        assert replayed.encode("utf-8", "surrogateescape") == self.CHANGED_BYTES

    @given(BYTE_TEXTS, BYTE_TEXTS)
    @settings(max_examples=150, deadline=None)
    def test_arbitrary_bytes_round_trip(self, base_bytes, changed_bytes):
        # Decoded as the CLI decodes them, any bytes survive decompose, the
        # step document and replay, and a one-sided merge.
        base, changed = ({"": raw.decode("utf-8", "surrogateescape")} for raw in (base_bytes, changed_bytes))
        steps = parse_steps(serialize_steps(decompose(base, changed)))
        for out in (apply_steps(base, steps), merge(base, base, changed)):
            assert out.ok and out.result[""].encode("utf-8", "surrogateescape") == changed_bytes

    PNG = b"\x89PNG\x00\x01\xff\xfe"

    def rebase_steps_in(self, tmp_path, base, changed):
        # decompose BASE CHANGED, then replay the step document onto BASE.
        for name, files in (("base", base), ("changed", changed), ("target", base)):
            (tmp_path / name).mkdir()
            for rel, data in files.items():
                (tmp_path / name / rel).write_bytes(data)
        steps = tmp_path / "steps.json"
        tree = lambda name: str(tmp_path / name)
        assert main(["decompose", tree("base"), tree("changed"), "--steps-out", str(steps)]) == 0
        assert main(["rebase", "--steps-in", str(steps), tree("target")]) == 0
        return tmp_path / "target"

    def test_steps_in_adds_binary_file(self, tmp_path):
        target = self.rebase_steps_in(
            tmp_path, {"a.txt": b"a\n"}, {"a.txt": b"a\n", "img.bin": self.PNG}
        )
        assert (target / "img.bin").read_bytes() == self.PNG

    def test_steps_in_turns_text_into_binary(self, tmp_path):
        target = self.rebase_steps_in(
            tmp_path, {"a.dat": b"placeholder\n"}, {"a.dat": self.PNG}
        )
        assert (target / "a.dat").read_bytes() == self.PNG

    def test_steps_in_carries_undecodable_names(self, tmp_path):
        name, added = (os.fsdecode(raw) for raw in (b"a\xff.txt", b"new\xfe.txt"))
        changed = {name: b"k = \xff2\n", added: self.PNG}
        target = self.rebase_steps_in(tmp_path, {name: b"k = \xff1\n"}, changed)
        assert {p.name: p.read_bytes() for p in target.iterdir()} == changed
        assert sorted(os.listdir(bytes(target))) == [b"a\xff.txt", b"new\xfe.txt"]

    def test_steps_in_renames_binary_file(self, tmp_path):
        target = tmp_path / "target"
        target.mkdir()
        (target / "img.bin").write_bytes(self.PNG)
        steps = tmp_path / "steps.json"
        write(steps, serialize_steps([RewriteRule("img", "pic")]))
        assert main(["rebase", "--steps-in", str(steps), str(target)]) == 0
        assert [p.name for p in target.iterdir()] == ["pic.bin"]
        assert (target / "pic.bin").read_bytes() == self.PNG


class TestPrivateUseText:
    # Undecodable bytes ride as U+DC80..U+DCFF, so private-use characters in
    # a UTF-8 file are ordinary text and are written back as UTF-8.
    TEXT = "key = \ue041\n"

    def test_file_merge_keeps_utf8(self, tmp_path):
        write(tmp_path / "base.txt", self.TEXT)
        write(tmp_path / "left.txt", self.TEXT + "x\n")
        write(tmp_path / "right.txt", self.TEXT)
        args = ["merge", *(str(tmp_path / f) for f in ("base.txt", "left.txt", "right.txt"))]
        assert main(args) == 0
        assert read(tmp_path / "left.txt") == self.TEXT + "x\n"

    def test_directory_merge_keeps_utf8(self, tmp_path):
        for name, other in (("base", "a\n"), ("left", "a\n"), ("right", "b\n")):
            (tmp_path / name).mkdir()
            write(tmp_path / name / "pua.txt", self.TEXT)
            write(tmp_path / name / "other.txt", other)
        args = ["merge", *(str(tmp_path / d) for d in ("base", "left", "right"))]
        assert main(args) == 0
        assert read(tmp_path / "left" / "pua.txt") == self.TEXT
        assert read(tmp_path / "left" / "other.txt") == "b\n"


class TestConsoleEntry:
    def test_module_invocation(self, trio):
        base, _, right = trio
        proc = subprocess.run(
            [sys.executable, "-m", "summer", "decompose", str(base), str(right)],
            capture_output=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["steps"]

    def test_import_leaves_dataclasses_out(self):
        # A merge driver starts once per file; importing dataclasses (and the
        # inspect module under it) costs start-up that nothing on the merge
        # path needs.
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, summer.cli; print('dataclasses' in sys.modules)"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_package_import_loads_no_submodule(self):
        # `python -m summer` imports the package first; the CLI decides what
        # else to load.
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, summer; print([m for m in sys.modules if m.startswith('summer.')])"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"
