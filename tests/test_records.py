"""Record semantics the engine relies on, whatever form the records take:
step and rule records equal only records of their own type, fields left out
of equality are left out of the hash too, and constructors validate."""

import pytest

from summer.align import BucketSet, dissect
from summer.engine import (
    DirectionReason,
    FileAdd,
    FileDelete,
    FileRename,
    MergeDirection,
    Pairing,
    Side,
)
from summer.moves import Antecedent, Consequent, MovePattern, MoveRule
from summer.rules import RewriteRule, RuleMetrics


class TestTypedEquality:
    def test_two_string_records_differ_by_type(self):
        records = [FileAdd("a", "b"), FileRename("a", "b"), RewriteRule("a", "b")]
        for i, x in enumerate(records):
            assert x == type(x)("a", "b")
            assert not x != type(x)("a", "b")
            assert x != ("a", "b") and ("a", "b") != x
            assert not x == ("a", "b") and not ("a", "b") == x
            for y in records[i + 1 :]:
                assert x != y and y != x
                assert not x == y
        assert len(set(records)) == 3

    def test_one_string_and_pattern_records_differ_by_type(self):
        assert FileDelete("a") != ("a",) and ("a",) != FileDelete("a")
        pattern = MovePattern("p", "s")
        assert pattern == MovePattern("p", "s")
        assert pattern != ("p", "s") and pattern != RewriteRule("p", "s")
        assert Antecedent(pattern, "r") != (pattern, "r")
        assert Consequent("l", pattern) != ("l", pattern)


class TestLeftOutFields:
    def test_rewrite_rule_origin_and_fallback(self):
        plain = RewriteRule("a", "b")
        marked = RewriteRule("a", "b", origin=(1, 2, 3, 4), fallback=True)
        assert plain == marked and hash(plain) == hash(marked)
        assert marked.origin == (1, 2, 3, 4) and marked.fallback
        assert plain.origin is None and not plain.fallback

    def test_move_rule_metrics(self):
        a = Antecedent(MovePattern("p", "s"), "r")
        c = Consequent("l", MovePattern("x", "y"))
        plain = MoveRule(a, c)
        scored = MoveRule(a, c, RuleMetrics(3, 1))
        assert plain == scored and hash(plain) == hash(scored)
        assert plain.metrics == RuleMetrics(0, 0)
        assert {plain: 1}[scored] == 1

    def test_merge_direction_pairing(self):
        one = MergeDirection(Side.LEFT, DirectionReason.TIE, Pairing([("a", "a")], [], []))
        two = MergeDirection(Side.LEFT, DirectionReason.TIE, Pairing([], ["b"], ["c"]))
        assert one == two and hash(one) == hash(two)
        assert one != MergeDirection(Side.RIGHT, DirectionReason.TIE, one.pairing)


class TestValidation:
    def test_rewrite_rule_rejects_identity(self):
        with pytest.raises(ValueError):
            RewriteRule("a", "a")

    def test_bucket_set_rejects_duplicate_labels(self):
        with pytest.raises(ValueError):
            BucketSet((dissect("a", "b", "x"), dissect("c", "d", "x")))
