import itertools
import random
from collections import Counter

import pytest

import summer.engine
import summer.rules
from summer.align import dissect
from summer.distance import levenshtein, similarity
from summer.engine import (
    AppliedStep,
    Conflict,
    DirectionReason,
    FileAdd,
    FileDelete,
    Side,
    Site,
    apply_steps,
    decompose,
    determine_direction,
    map_to_buckets,
    merge,
    pair_entries,
)
from summer.moves import MoveRule
from summer.rules import RewriteRule
from summer.tokens import tokenize
from tests.conftest import (
    EXTRACT_BASE,
    EXTRACT_EXPECTED_MERGE,
    EXTRACT_LEFT,
    EXTRACT_RIGHT,
    RENAME_CONTENT_SRC,
    RENAME_CONTENT_TGT,
    SUBSTITUTION,
    atom_kind,
    token_offsets,
)


class TestMapToBuckets:
    def test_rename_with_content_change(self):
        base = {"bc.go": RENAME_CONTENT_SRC}
        changed = {"Program.go": RENAME_CONTENT_TGT}
        buckets, steps = map_to_buckets(base, changed)
        assert steps == []
        labels = [b.label for b in buckets]
        assert labels == ["name:bc.go", "content:bc.go"]
        name_bucket = buckets.buckets[0]
        assert [(atom_kind(a), a.lhs, a.rhs) for a in name_bucket.atoms] == [
            (SUBSTITUTION, "bc", "Program"),
            (None, ".go", ".go"),
        ]
        # The identity run gives its tokens as context units, one at a time.
        assert [*name_bucket.reach(1, 1)] == [(2, 7), (3, 8), (5, 10)]

    def test_unchanged_snapshot(self):
        snap = {"a": "x", "b": "y"}
        buckets, steps = map_to_buckets(snap, dict(snap))
        assert len(buckets) == 0 and steps == []

    def test_pure_deletion(self):
        buckets, steps = map_to_buckets({"a": "x", "b": "y"}, {"a": "x"})
        assert len(buckets) == 0
        assert steps == [FileDelete("b")]

    def test_pure_addition(self):
        buckets, steps = map_to_buckets({"a": "x"}, {"a": "x", "b": "y"})
        assert steps == [FileAdd("b", "y")]

    def test_dissimilar_content_not_treated_as_rename(self):
        buckets, steps = map_to_buckets(
            {"a": "completely different text"}, {"b": "zzz qqq 123"}
        )
        assert FileDelete("a") in steps and FileAdd("b", "zzz qqq 123") in steps

    def test_rename_pairing_prefers_exact_content(self):
        base = {"old1": "same content here", "old2": "other things"}
        changed = {"new1": "same content here", "new2": "other thingz"}
        pairing = pair_entries(base, changed)
        assert ("old1", "new1") in pairing.pairs
        assert ("old2", "new2") in pairing.pairs


class TestPairEntries:
    @staticmethod
    def greedy_over_all_similarities(base, other):
        # Reference: identical contents first, then the full similarity of
        # every removed x added pair, taken greedily in (-sim, p, q) order.
        def texts(s):
            return [t.text for t in tokenize(s).tokens]

        pairs = [(p, p) for p in sorted(base) if p in other]
        removed = [p for p in sorted(base) if p not in other]
        added = [q for q in sorted(other) if q not in base]
        for p in list(removed):
            q = next((q for q in added if other[q] == base[p]), None)
            if q is not None:
                pairs.append((p, q))
                removed.remove(p)
                added.remove(q)
        scored = sorted(
            (-similarity(texts(base[p]), texts(other[q])), p, q) for p in removed for q in added
        )
        for negsim, p, q in scored:
            if negsim < -0.5 and p in removed and q in added:
                pairs.append((p, q))
                removed.remove(p)
                added.remove(q)
        return sorted(pairs), removed, added, scored

    def test_agrees_with_greedy_over_all_similarities(self):
        # Snapshots draw contents from a small pool, so duplicate contents
        # and pairs of equal similarity are common, and the (p, q) order
        # breaks their ties.
        gen = TestRoundTripProperty()
        rng = random.Random(0x9A1)
        seen = set()
        for _ in range(400):
            pool = [
                [rng.choice(gen.ALPHABET) for _ in range(rng.randrange(0, 12))]
                for _ in range(rng.randrange(1, 4))
            ]
            base, other = {}, {}
            for i in range(rng.randrange(1, 7)):
                toks = rng.choice(pool)
                base[f"b{i}"] = "".join(toks)
                roll = rng.random()
                if roll < 0.15:
                    continue
                name = f"b{i}" if roll < 0.3 else f"n{rng.randrange(8)}"
                other[name] = "".join(gen.mutate(rng, toks) if rng.random() < 0.7 else toks)
            for j in range(rng.randrange(0, 3)):
                other[f"a{j}"] = "".join(rng.choice(pool))
            got = pair_entries(base, other)
            *expected, scored = self.greedy_over_all_similarities(base, other)
            assert [got.pairs, got.deleted, got.added] == expected, (base, other)
            above = [key for key in scored if key[0] < -0.5]
            flags = {
                "renamed": above, "deleted": got.deleted, "added": got.added,
                "empty": "" in [*base.values(), *other.values()],
                # equal similarities contending for one entry
                "tie": any(
                    s == t and (p == p2 or q == q2)
                    for (s, p, q), (t, p2, q2) in itertools.combinations(above, 2)
                ),
            }
            seen.update(flag for flag, hit in flags.items() if hit)
        assert seen >= {"renamed", "deleted", "added", "tie", "empty"}

    def test_one_similarity_per_rename(self, monkeypatch):
        # Java-like files, each renamed with its class and edited: a wrong
        # pair's bag bound falls below every right pair's similarity, so only
        # the pairs taken are scored in full.
        def java_file(i, cls, op):
            return (
                f"package pkg{i % 3};\n\nimport java.util.List;\n\n"
                f"public class {cls}{i} {{\n"
                f"    private int count{i} = {i * 7 % 100};\n\n"
                f"    public int getCount{i}() {{\n"
                f"        return count{i} {op} {i + 3};\n"
                f"    }}\n}}\n"
            )

        base = {f"src/File{i}.java": java_file(i, "File", "+") for i in range(12)}
        changed = {f"src/Renamed{i}.java": java_file(i, "Renamed", "*") for i in range(12)}
        calls = []
        sim = summer.engine.similarity
        monkeypatch.setattr(
            summer.engine, "similarity", lambda a, b: calls.append(1) or sim(a, b)
        )
        pairing = pair_entries(base, changed)
        renames = [(f"src/File{i}.java", f"src/Renamed{i}.java") for i in range(12)]
        assert pairing.pairs == sorted(renames)
        assert len(calls) == 12


class TestDetermineDirection:
    def test_deletion_forced(self):
        base = {"F": "x\n", "G": "y\n"}
        left = {"G": "y\n"}
        right = {"F": "x changed\n", "G": "y\n"}
        d = determine_direction(base, left, right)
        assert d.decomposed_side is Side.LEFT
        assert d.reason is DirectionReason.DELETION_FORCED

    def test_cross_delete_modify_conflicts(self):
        base = {"A": "a\n", "B": "b\n"}
        left = {"B": "b changed\n"}          # deletes A, modifies B
        right = {"A": "a changed\n"}         # modifies A, deletes B
        assert isinstance(determine_direction(base, left, right), Conflict)

    def test_distance_prefers_simpler_side(self):
        base = {"a": "i++", "b": "Foo"}
        left = {"a": "i--", "b": "Foo"}
        right = {"a": "i+=1", "b": "Bar"}
        d = determine_direction(base, left, right)
        assert d.decomposed_side is Side.LEFT
        assert d.reason is DirectionReason.DISTANCE

    def test_tie_breaks_left(self):
        base = {"a": "x"}
        d = determine_direction(base, {"a": "y"}, {"a": "z"})
        assert d.decomposed_side is Side.LEFT and d.reason is DirectionReason.TIE

    def test_both_delete_same_file_is_not_forced(self):
        base = {"F": "x\n", "G": "y\n"}
        d = determine_direction(base, {"G": "y\n"}, {"G": "y\n"})
        assert not isinstance(d, Conflict)
        assert d.reason is not DirectionReason.DELETION_FORCED

    @staticmethod
    def full_distance_direction(base, left, right):
        def total(side):
            p = pair_entries(base, side)
            return (
                sum(levenshtein(base[o], side[n]) + levenshtein(o, n) for o, n in p.pairs)
                + sum(len(base[o]) for o in p.deleted)
                + sum(len(side[n]) for n in p.added)
            )

        ld, rd = total(left), total(right)
        if ld == rd:
            return Side.LEFT, DirectionReason.TIE
        return (Side.LEFT if ld < rd else Side.RIGHT), DirectionReason.DISTANCE

    def test_agrees_with_full_distances(self):
        # Multi-entry snapshots; each side edits every entry with the
        # round-trip generator, renames some and may add one.
        gen = TestRoundTripProperty()
        rng = random.Random(0xD1EC)
        names = ["src/a.txt", "src/b.py", "lib/util.go", "notes.md"]
        seen = set()
        for _ in range(300):
            base = {
                nm: "".join(rng.choice(gen.ALPHABET) for _ in range(rng.randrange(0, 80)))
                for nm in rng.sample(names, rng.randrange(1, 5))
            }
            sides = []
            for _ in range(2):
                side = {}
                for nm, text in base.items():
                    toks = [t.text for t in tokenize(text).tokens]
                    side[nm if rng.random() < 0.7 else "moved/" + nm] = "".join(
                        gen.mutate(rng, toks)
                    )
                if rng.random() < 0.2:
                    side["brand/new.txt"] = "fresh\n"
                sides.append(side)
            got = determine_direction(base, *sides)
            if isinstance(got, Conflict) or got.reason is DirectionReason.DELETION_FORCED:
                continue
            expected = self.full_distance_direction(base, *sides)
            assert (got.decomposed_side, got.reason) == expected, (base, sides)
            seen.add(expected)
        assert len(seen) == 3  # left and right by distance, and ties

    def test_agrees_at_the_seed_edges(self):
        # The limit starts at the smaller side's sum of per-entry bounds: the
        # length gap, and 1 where the texts differ. Sides that only insert or
        # only delete have their gaps as distance, so the first limit is
        # already exact; both sides often share one edit count per entry,
        # which makes equal bound sums and equal totals.
        rng = random.Random(0x5EED)
        names = ["src/a.txt", "src/b.py", "lib/util.go"]

        def edit(text, mode, count):
            chars = list(text)
            for _ in range(count):
                if mode == "insert" or not chars:
                    chars.insert(rng.randrange(len(chars) + 1), rng.choice("ab;\n"))
                elif mode == "delete":
                    del chars[rng.randrange(len(chars))]
                else:
                    chars[rng.randrange(len(chars))] = "\ue041"
            return "".join(chars)

        seen = Counter()
        for _ in range(300):
            base = {
                nm: "".join(rng.choice("ab =;\n") for _ in range(rng.randrange(1, 60)))
                for nm in rng.sample(names, rng.randrange(1, 4))
            }
            counts = {nm: rng.randrange(6) for nm in base}
            sides = []
            for _ in range(2):
                mode = rng.choice(["insert", "delete", "substitute"])
                shared = rng.random() < 0.7
                sides.append({
                    nm: edit(text, mode, counts[nm] if shared else rng.randrange(6))
                    for nm, text in base.items()
                })
            got = determine_direction(base, *sides)
            expected = self.full_distance_direction(base, *sides)
            assert (got.decomposed_side, got.reason) == expected, (base, sides)
            seen[expected] += 1
        assert len(seen) == 3 and min(seen.values()) >= 20, seen

    def test_insertions_settle_at_the_first_limit(self, monkeypatch):
        # Right only inserts g characters, so its distance is its gap; left
        # substitutes characters and inserts more, so its gap is larger. The
        # first limit is right's gap: right fits in a one-diagonal band and
        # left is over its gap, each in one bounded call.
        base = "".join(f"value{i} = weight{i};\n" for i in range(300))
        lines = base.splitlines(keepends=True)
        right = "".join(ln[:-2] + " + 1;\n" if i % 10 == 0 else ln for i, ln in enumerate(lines))
        left = "".join(
            ln.replace("=", ":") + "// checked\n" if i % 7 == 0 else ln
            for i, ln in enumerate(lines)
        )
        g = len(right) - len(base)
        assert g == 120 < len(left) - len(base)
        calls = []

        def counted(a, b, *, limit=None):
            found = levenshtein(a, b, limit=limit)
            calls.append((b, limit, found))
            return found

        monkeypatch.setattr(summer.engine, "levenshtein", counted)
        got = determine_direction({"f": base}, {"f": left}, {"f": right})
        assert (got.decomposed_side, got.reason) == (Side.RIGHT, DirectionReason.DISTANCE)
        assert [(limit, found) for b, limit, found in calls if b == right] == [(g, g)]
        assert len([b for b, _, _ in calls if b == left]) <= 1


class TestDecompose:
    def test_single_symbol_rule(self):
        steps = decompose({"a": "i++", "b": "Foo"}, {"a": "i--", "b": "Foo"})
        assert [type(s) for s in steps] == [RewriteRule]
        assert (steps[0].lhs, steps[0].rhs) == ("+", "-")

    def test_no_change(self):
        assert decompose({"a": "x"}, {"a": "x"}) == []

    def test_extraction_yields_move_step(self):
        steps = decompose({"": EXTRACT_BASE}, {"": EXTRACT_LEFT})
        assert len(steps) == 1 and isinstance(steps[0], MoveRule)

    def test_move_steps_precede_rewrites(self):
        # Extraction plus an unrelated token change in the same commit.
        base = {"": EXTRACT_BASE + "int zz = 1;\n"}
        changed = {"": EXTRACT_LEFT + "int zz = 2;\n"}
        steps = decompose(base, changed)
        kinds = [
            0 if isinstance(s, (FileAdd, FileDelete)) else
            1 if isinstance(s, MoveRule) else 2
            for s in steps
        ]
        assert kinds == sorted(kinds)
        assert any(isinstance(s, MoveRule) for s in steps)
        assert any(isinstance(s, RewriteRule) for s in steps)
        out = apply_steps(base, steps)
        assert out.ok and out.result == changed

    def test_identical_sources_different_targets_patched(self):
        # Rules rewrite the whole corpus at once; twins are inseparable and
        # must fall back to structural overrides.
        base = {"a": "same", "b": "same"}
        changed = {"a": "left", "b": "right"}
        steps = decompose(base, changed)
        out = apply_steps(base, steps)
        assert out.ok and out.result == changed

    def test_atoms_built_once_per_dissection(self, monkeypatch):
        # Only dissect builds atoms; the move pass and the first rewrite
        # round read the same dissection.
        calls = []

        def counted(source, target, label):
            calls.append(label)
            return dissect(source, target, label)

        for module in (summer.engine, summer.rules):
            monkeypatch.setattr(module, "dissect", counted)
        base = "a = foo(1);\nb = foo(2);\n"
        steps = decompose({"": base}, {"": base.replace("foo", "bar")})
        assert steps == [RewriteRule("foo", "bar")]
        assert calls == ["content:"]

    def test_round_redissects_only_rewritten_buckets(self, monkeypatch):
        # Round one settles a.txt; b.txt needs a window of 6, so its rule
        # comes four rounds later and settles everything. No round before
        # that rewrites b.txt, and the last round leaves nothing to dissect.
        calls = Counter()

        def counted(source, target, label):
            calls[label] += 1
            return dissect(source, target, label)

        for module in (summer.engine, summer.rules):
            monkeypatch.setattr(module, "dissect", counted)
        base = {"a.txt": "total = 1;", "b.txt": "x p q k p q p q k p q y"}
        changed = {"a.txt": "total = 2;", "b.txt": "x p q j p q p q k p q y"}
        steps = decompose(base, changed)
        assert calls == {"content:a.txt": 2, "content:b.txt": 1}
        out = apply_steps(base, steps)
        assert out.ok and out.result == changed


class TestApplySteps:
    def test_rewrite_applies_at_token_boundaries(self):
        out = apply_steps({"": "i+=1"}, [RewriteRule("+", "-")])
        assert out.ok and out.result == {"": "i-=1"}
        assert out.applied_steps[0].count == 1

    def test_republican_untouched(self):
        out = apply_steps(
            {"": "public class Republican"}, [RewriteRule("public", "private")]
        )
        assert out.result == {"": "private class Republican"}

    def test_zero_application_is_fine(self):
        out = apply_steps({"": "abc"}, [RewriteRule("zzz", "q")])
        assert out.ok and out.applied_steps[0].count == 0

    def test_rules_rewrite_entry_names(self):
        out = apply_steps(
            {"src/bc.go": "package bc\n"}, [RewriteRule("bc.", "Program.")]
        )
        assert out.ok and set(out.result) == {"src/Program.go"}

    def test_name_collision_conflicts(self):
        out = apply_steps(
            {"a1.txt": "x", "a2.txt": "y"}, [RewriteRule("1", "2")]
        )
        assert not out.ok
        assert out.conflict.diagnostic == "rewrite '1' -> '2' renames two entries to 'a2.txt'"

    def test_first_name_collision_named_and_earlier_steps_kept(self):
        # a1 and a2 both become a2, then b1 and b2 both become b2: the
        # diagnostic names the first collision, and only the steps before
        # the failing rewrite count as applied.
        add = FileAdd("c", "q")
        out = apply_steps(
            {"a1": "w", "a2": "x", "b1": "y", "b2": "z"}, [add, RewriteRule("1", "2")]
        )
        assert out.result is None and out.diagnostics == []
        assert out.conflict.diagnostic == "rewrite '1' -> '2' renames two entries to 'a2'"
        assert out.applied_steps == [AppliedStep(add, 1)]

    def test_sites_in_entry_order_content_before_name(self):
        out = apply_steps({"a1": "x1", "b": "1 1"}, [RewriteRule("1", "2")])
        assert out.ok and out.result == {"a2": "x2", "b": "2 2"}
        assert list(out.result) == ["a2", "b"]
        assert out.applied_steps == [
            AppliedStep(
                RewriteRule("1", "2"),
                4,
                (
                    Site("a1", 1, 2, "content"),
                    Site("a1", 1, 2, "name"),
                    Site("b", 0, 1, "content"),
                    Site("b", 2, 3, "content"),
                ),
            )
        ]

    def test_rule_writing_a_control_character(self):
        # \x00 is the first symbol character, the one texts are joined by
        # whenever none of them holds it.
        out = apply_steps({"a": "x", "b": "x"}, [RewriteRule("x", "\x00")])
        assert out.ok and out.result == {"a": "\x00", "b": "\x00"}
        assert out.applied_steps[0].count == 2

    def test_decompose_writing_a_control_character(self):
        base = {"a": "p q\n", "b": "p r\n"}
        changed = {"a": "p\x00q\n", "b": "p\x00r\n"}
        steps = decompose(base, changed)
        assert RewriteRule(" ", "\x00") in steps
        assert not any(isinstance(s, FileAdd) for s in steps)
        out = apply_steps(base, steps)
        assert out.ok and out.result == changed

    def test_delete_missing_path_conflicts(self):
        out = apply_steps({"a": "x"}, [FileDelete("nope")])
        assert not out.ok
        assert out.conflict.diagnostic == "delete of missing path 'nope'"

    def test_move_consequent_failure_conflicts(self):
        steps = decompose({"": EXTRACT_BASE}, {"": EXTRACT_LEFT})
        # The right side lost the blank line the consequent anchors on.
        broken = EXTRACT_RIGHT.replace("\t}\n\n}", "\t}\n}")
        out = apply_steps({"": broken}, steps)
        assert not out.ok
        assert out.conflict.diagnostic == (
            "move rule antecedent matched but consequent '\\n\\n' has no application site"
        )

    def test_file_add_overwrites(self):
        out = apply_steps({"a": "x"}, [FileAdd("a", "y")])
        assert out.ok and out.result == {"a": "y"}


class TestMerge:
    def test_one_token_merge(self):
        out = merge(
            {"a": "i++", "b": "Foo"},
            {"a": "i--", "b": "Foo"},
            {"a": "i+=1", "b": "Bar"},
        )
        assert out.ok and out.result == {"a": "i-=1", "b": "Bar"}

    def test_neutrality(self):
        base = {"a": "i++", "b": "Foo"}
        right = {"a": "i+=1", "b": "Bar"}
        left = {"a": "i--", "b": "Foo"}
        assert merge(base, base, right).result == right
        assert merge(base, left, base).result == left

    def test_cross_delete_modify_conflict(self):
        base = {"A": "a\n", "B": "b\n"}
        out = merge(base, {"B": "b changed\n"}, {"A": "a changed\n"})
        assert not out.ok

    def test_deletion_forced_merge_drops_the_file(self):
        base = {"F": "x\n", "G": "y\n"}
        left = {"G": "y\n"}
        right = {"F": "x changed\n", "G": "y\n"}
        out = merge(base, left, right)
        assert out.ok and out.result == {"G": "y\n"}

    def test_both_sides_deleting_same_file_conflicts(self):
        # Deleting a path that is already gone on the apply side is a
        # specified conflict; parallel deletions therefore refuse to merge.
        base = {"F": "x\n", "G": "y\n"}
        out = merge(base, {"G": "y\n"}, {"G": "y2\n"})
        assert not out.ok and "missing path" in out.conflict.diagnostic

    def test_binary_entry_single_side_change(self):
        base = {"bin": "\x80\x81", "t": "x"}
        left = {"bin": "\x80\x81", "t": "y"}
        right = {"bin": "\xfe\xff", "t": "x"}
        out = merge(base, left, right, binary_paths={"bin"})
        assert out.ok and out.result == {"bin": "\xfe\xff", "t": "y"}

    def test_binary_entry_both_sides_changed_conflicts(self):
        base = {"bin": "\x80"}
        out = merge(base, {"bin": "\x81"}, {"bin": "\x82"}, binary_paths={"bin"})
        assert not out.ok

    def test_path_added_on_both_sides_with_different_contents_conflicts(self):
        # The decomposed side's FileAdd would overwrite the other side's file.
        out = merge({"a": "x = 1\n"}, {"a": "x = 1\n", "n": "L\n"}, {"a": "x = 2\n", "n": "R\n"})
        assert not out.ok
        assert out.conflict.diagnostic == "entry 'n' added on both sides with different contents"

    def test_path_added_alike_on_both_sides_merges(self):
        out = merge({"a": "x = 1\n"}, {"a": "x = 1\n", "n": "L\n"}, {"a": "x = 2\n", "n": "L\n"})
        assert out.ok and out.result == {"a": "x = 2\n", "n": "L\n"}

    def test_entry_changed_alike_is_taken_as_it_is(self):
        # Both sides escape the same line; left also edits another entry.
        # Replaying left's escapes on right would double every backslash.
        escaped = "run.args=-J-XX\\:PermSize\\=128m"
        base = {"a.txt": "run.args=-J-XX:PermSize=128m", "b.txt": "name=x\n"}
        left = {"a.txt": escaped, "b.txt": "name=y\n"}
        right = {"a.txt": escaped, "b.txt": "name=x\n"}
        out = merge(base, left, right)
        assert out.ok and out.result == {"a.txt": escaped, "b.txt": "name=y\n"}

    def test_one_pairing_per_side(self, monkeypatch):
        # determine_direction pairs both sides; decompose reuses the pairing
        # of the side it decomposes.
        calls = []
        pair = summer.engine.pair_entries
        monkeypatch.setattr(
            summer.engine, "pair_entries", lambda base, other: calls.append(other) or pair(base, other)
        )
        left = {"a": "i--", "b": "Foo"}
        right = {"a": "i+=1", "b": "Bar"}
        out = merge({"a": "i++", "b": "Foo"}, left, right)
        assert out.ok and calls == [left, right]

    @pytest.mark.xfail(
        strict=True,
        reason="an edit both sides make inside one entry, next to differing edits, "
        "is applied twice",
    )
    def test_edit_made_alike_next_to_other_edits(self):
        # Both sides escape the same line; left also changes x to y. The
        # merge exits clean with the escapes doubled.
        base = {"": "run.args=-J-XX:PermSize=128m\nname=x\n"}
        right = {"": "run.args=-J-XX\\:PermSize\\=128m\nname=x\n"}
        left = {"": "run.args=-J-XX\\:PermSize\\=128m\nname=y\n"}
        out = merge(base, left, right)
        assert not out.ok or out.result == left


class TestRoundTripProperty:
    ALPHABET = [
        "foo", "bar", "baz", "x", "y", "1", "23", "+", "-", "=", ";", "(", ")",
        " ", "  ", "\n", "\t", "\r\n", "_",
    ]

    def mutate(self, rng: random.Random, tokens: list[str]) -> list[str]:
        t = list(tokens)
        for _ in range(rng.randrange(0, 7)):
            op = rng.choice(["sub", "ins", "del", "move"])
            if not t:
                op = "ins"
            if op == "sub":
                t[rng.randrange(len(t))] = rng.choice(self.ALPHABET)
            elif op == "ins":
                t.insert(rng.randrange(len(t) + 1), rng.choice(self.ALPHABET))
            elif op == "del":
                del t[rng.randrange(len(t))]
            else:
                i = rng.randrange(len(t))
                j = min(len(t), i + rng.randrange(1, 9))
                block = t[i:j]
                del t[i:j]
                k = rng.randrange(len(t) + 1)
                t[k:k] = block
        return t

    def test_round_trip_on_random_edits(self):
        rng = random.Random(0xC0FFEE)
        for _ in range(150):
            base_tokens = [
                rng.choice(self.ALPHABET) for _ in range(rng.randrange(0, 120))
            ]
            base = {"": "".join(base_tokens)}
            target = {"": "".join(self.mutate(rng, base_tokens))}
            steps = decompose(base, target)
            out = apply_steps(base, steps)
            assert out.ok and out.result == target

    def test_merge_laws(self):
        # A side that made no change takes the other's, and equal changes
        # are the merge: merge(B, B, X) == merge(B, X, B) == merge(B, X, X) == X.
        rng = random.Random(0x1A35)
        for _ in range(100):
            toks = [rng.choice(self.ALPHABET) for _ in range(rng.randrange(1, 80))]
            base = {"": "".join(toks)}
            x = {"": "".join(self.mutate(rng, toks))}
            for left, right in ((base, x), (x, base), (x, x)):
                out = merge(base, left, right)
                assert out.ok and out.result == x, (base, left, right)

    def test_round_trip_multi_entry(self):
        rng = random.Random(7)
        for _ in range(30):
            base = {}
            target = {}
            for name in ("m/a.txt", "m/b.txt"):
                toks = [rng.choice(self.ALPHABET) for _ in range(rng.randrange(0, 60))]
                base[name] = "".join(toks)
                target[name] = "".join(self.mutate(rng, toks))
            steps = decompose(base, target)
            out = apply_steps(base, steps)
            assert out.ok and out.result == target

    def test_round_trip_with_entry_set_mutations(self):
        # Renames, deletions, and additions of whole entries, on top of
        # content edits; names flow through the same rule machinery.
        from summer.tokens import tokenize

        rng = random.Random(0xD1CE)
        names_pool = ["src/a.txt", "src/b.py", "lib/util.go", "notes.md"]
        for _ in range(60):
            names = rng.sample(names_pool, rng.randrange(1, 4))
            base = {
                nm: "".join(rng.choice(self.ALPHABET) for _ in range(rng.randrange(0, 60)))
                for nm in names
            }
            target = {}
            for nm in names:
                toks = [t.text for t in tokenize(base[nm]).tokens]
                content = "".join(self.mutate(rng, toks))
                roll = rng.random()
                if roll < 0.15:
                    continue
                key = nm if roll > 0.35 else "moved/" + nm
                target[key] = content
            if rng.random() < 0.25:
                target["brand/new.txt"] = "fresh\n"
            steps = decompose(base, target)
            out = apply_steps(base, steps)
            assert out.ok and out.result == target, (base, target)

    def test_boundary_discipline_auditable(self):
        # Rewrite and antecedent sites must sit on pre-step token boundaries;
        # consequent sites on boundaries of the post-antecedent text.
        rng = random.Random(99)
        from summer.moves import match_pattern
        from summer.tokens import Joined

        for _ in range(40):
            toks = [rng.choice(self.ALPHABET) for _ in range(rng.randrange(1, 80))]
            base = {"": "".join(toks)}
            target = {"": "".join(self.mutate(rng, toks))}
            steps = decompose(base, target)
            state = base
            for step in steps:
                pre_bounds = {
                    path: token_offsets(text) for path, text in state.items()
                }
                mid_bounds = pre_bounds
                if isinstance(step, MoveRule):
                    # The texts after phase one: every antecedent match rewritten.
                    a = step.antecedent
                    mid_bounds = {}
                    for path, text in state.items():
                        joined = Joined.of([text])
                        spans = [m[:2] for m in match_pattern(joined, a.lhs)]
                        mid_bounds[path] = token_offsets(joined.splice(spans, a.rhs).text)
                out = apply_steps(state, [step])
                assert out.ok
                for applied in out.applied_steps:
                    for site in applied.sites:
                        if site.role in ("content", "antecedent"):
                            assert site.start in pre_bounds[site.path]
                            assert site.end in pre_bounds[site.path]
                        elif site.role == "consequent":
                            assert site.start in mid_bounds[site.path]
                state = out.result
            assert state == target


class TestExtractionScenario:
    def test_decompose_and_apply_to_other_side(self):
        steps = decompose({"": EXTRACT_BASE}, {"": EXTRACT_LEFT})
        out = apply_steps({"": EXTRACT_RIGHT}, steps)
        assert out.ok
        assert out.result == {"": EXTRACT_EXPECTED_MERGE}
