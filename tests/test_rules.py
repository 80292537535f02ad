import pytest

from summer.align import BucketSet, EditKind, dissect
from summer.rules import (
    Candidate,
    ExtractionConfig,
    RewriteRule,
    RuleMetrics,
    apply_rewrite_to_text,
    classification_metrics,
    decompose_rewrites,
    decompose_rewrites_trace,
    expand_edit,
    get_precise_rewriting,
    sort_and_filter,
)
from tests.conftest import core_atom


def replay(buckets: BucketSet, rules) -> dict[str, str]:
    current = {b.label: b.source for b in buckets}
    for rule in rules:
        for label in current:
            current[label], _ = apply_rewrite_to_text(current[label], rule.lhs, rule.rhs)
    return current


def targets(buckets: BucketSet) -> dict[str, str]:
    return {b.label: b.target for b in buckets}


class TestClassificationMetrics:
    """Pinned tp/fp pairs on the module-rename corpus (see conftest)."""

    def metrics(self, corpus, lhs, rhs):
        return classification_metrics(RewriteRule(lhs, rhs), corpus)

    def test_host_rename_rule(self, rename_corpus):
        assert self.metrics(rename_corpus, "github", "gitlab") == RuleMetrics(2, 0)

    def test_contexted_file_rename_rule(self, rename_corpus):
        assert self.metrics(rename_corpus, "bc.", "Program.") == RuleMetrics(1, 0)

    def test_newline_anchored_insertion_rule(self, rename_corpus):
        got = self.metrics(rename_corpus, "\n", '\nimport "fmt"\n')
        assert got == RuleMetrics(1, 6)

    def test_following_token_anchored_insertion_rule(self, rename_corpus):
        got = self.metrics(rename_corpus, "func", 'import "fmt"\nfunc')
        assert got == RuleMetrics(1, 0)

    def test_uncontexted_rename_is_ambiguous(self, rename_corpus):
        got = self.metrics(rename_corpus, "bc", "Program")
        assert got.tp == 1 and got.fp >= 1
        assert got.precision <= 0.5

    def test_rule_whose_lhs_never_occurs(self, rename_corpus):
        assert self.metrics(rename_corpus, "zzz", "qqq") == RuleMetrics(0, 0)

    def test_empty_lhs_is_unscorable(self, rename_corpus):
        with pytest.raises(ValueError):
            classification_metrics(RewriteRule("", "x"), rename_corpus)


def entry(lhs, rhs, tp, fp, bucket=0, span=(0, 1), core=(0, 1), sites=()):
    """A pool item as expand_edit makes it: claims are the expansion span,
    the core edit and every tp site."""
    rule = RewriteRule(lhs, rhs)
    claims = [(bucket, span), (bucket, core)] + [(b, (s, e)) for b, s, e in sites]
    return rule, Candidate(rule, RuleMetrics(tp, fp), (len(lhs), lhs, rhs), claims)


class TestSortAndFilter:
    def test_precision_exactly_half_is_dropped(self):
        pool = dict([entry("a", "b", tp=1, fp=1)])
        assert sort_and_filter(pool) == []

    def test_ambiguous_rule_loses_to_precise_one(self):
        pool = dict(
            [
                entry("github", "gitlab", tp=2, fp=0, span=(0, 6), core=(0, 6)),
                entry("bc", "Program", tp=1, fp=2, bucket=1, span=(0, 2), core=(0, 2)),
            ]
        )
        kept = sort_and_filter(pool)
        assert [r.lhs for r, _ in kept] == ["github"]

    def test_empty_pool(self):
        assert sort_and_filter({}) == []

    def test_zero_tp_dropped(self):
        pool = dict([entry("a", "b", tp=0, fp=0)])
        assert sort_and_filter(pool) == []

    def test_same_core_claimed_once(self):
        pool = dict(
            [
                entry("x", "y", tp=1, fp=0, span=(4, 5), core=(4, 5), sites=[(0, 4, 5)]),
                entry("ax", "ay", tp=1, fp=0, span=(3, 5), core=(4, 5), sites=[(0, 3, 5)]),
            ]
        )
        kept = sort_and_filter(pool)
        assert [r.lhs for r, _ in kept] == ["x"]


class TestExpandEdit:
    def test_host_rename_candidate_present(self, rename_corpus):
        pool = {}
        core = core_atom(rename_corpus, 0, EditKind.SUBSTITUTION)
        expand_edit(rename_corpus, 0, core, pool, ExtractionConfig())
        e = pool[RewriteRule("github", "gitlab")]
        assert (e.metrics.tp, e.metrics.fp) == (2, 0)

    def test_insertion_contexts_from_both_sides(self, rename_corpus):
        pool = {}
        core = core_atom(rename_corpus, 2, EditKind.INSERTION)
        expand_edit(rename_corpus, 2, core, pool, ExtractionConfig())
        nl = pool[RewriteRule("\n", '\nimport "fmt"\n')].metrics
        fn = pool[RewriteRule("func", 'import "fmt"\nfunc')].metrics
        assert (nl.tp, nl.fp) == (1, 6)
        assert (fn.tp, fn.fp) == (1, 0)

    def test_identity_edit_rejected(self, rename_corpus):
        with pytest.raises(ValueError):
            expand_edit(rename_corpus, 2, core_atom(rename_corpus, 2, None), {}, ExtractionConfig())

    def test_candidate_count_bounded_by_window_grid(self):
        corpus = BucketSet((dissect("a b x c d", "a b y c d", "t"),))
        core = core_atom(corpus, 0, EditKind.SUBSTITUTION)
        for w in (0, 1, 2, 3):
            pool = {}
            expand_edit(corpus, 0, core, pool, ExtractionConfig(window=w))
            assert len(pool) <= (w + 1) ** 2


class TestGetPreciseRewriting:
    def test_rename_corpus_walkthrough(self, rename_corpus):
        ranked = get_precise_rewriting(rename_corpus, ExtractionConfig())
        as_pairs = [(r.lhs, r.rhs) for r, _ in ranked]
        assert ("github", "gitlab") in as_pairs
        assert ("bc.", "Program.") in as_pairs
        assert ("bc", "Program") not in as_pairs
        assert replay(rename_corpus, [r for r, _ in ranked]) == targets(rename_corpus)

    def test_all_identity_buckets_give_nothing(self):
        corpus = BucketSet((dissect("same", "same", "t"),))
        assert get_precise_rewriting(corpus, ExtractionConfig()) == []

    def test_lone_substitution(self):
        corpus = BucketSet((dissect("x", "y", "t"),))
        ranked = get_precise_rewriting(corpus, ExtractionConfig())
        assert [(r.lhs, r.rhs, m) for r, m in ranked] == [("x", "y", RuleMetrics(1, 0))]


class TestDecomposeRewrites:
    def test_identical_sources(self):
        corpus = BucketSet((dissect("a", "a", "t"),))
        assert decompose_rewrites(corpus, ExtractionConfig()) == []

    def test_rename_corpus_replay_is_exact(self, rename_corpus):
        rules = decompose_rewrites(rename_corpus, ExtractionConfig())
        assert replay(rename_corpus, rules) == targets(rename_corpus)

    def test_fixup_rounds_repair_partial_first_round(self):
        # Round one cannot claim every changed k (their sites overlap), so a
        # second round must finish the job; the final replay is exact.
        corpus = BucketSet((dissect("k k k ", "j j k ", "t"),))
        rules, trace = decompose_rewrites_trace(corpus, ExtractionConfig())
        assert replay(corpus, rules) == targets(corpus)
        assert len(trace) >= 2
        assert len(rules) >= 2

    def test_window_escalation_when_near_context_is_ambiguous(self):
        # The two k sites agree on every context unit up to distance 5, so
        # no rule survives filtering until the window grows to 6.
        src = "x p q k p q p q k p q y"
        tgt = "x p q j p q p q k p q y"
        corpus = BucketSet((dissect(src, tgt, "t"),))
        rules, trace = decompose_rewrites_trace(corpus, ExtractionConfig())
        assert replay(corpus, rules) == targets(corpus)
        assert max(t.window for t in trace) >= 3
        assert not any(r.fallback for r in rules)

    def test_fallback_rules_used_when_window_capped(self, monkeypatch):
        monkeypatch.setattr("summer.rules.WINDOW_MAX", 0)
        corpus = BucketSet((dissect("k k k ", "j j k ", "t"),))
        cfg = ExtractionConfig(window=0)
        rules = decompose_rewrites(corpus, cfg)
        assert replay(corpus, rules) == targets(corpus)
        assert any(r.fallback for r in rules)

    def test_retained_rules_satisfy_precision_threshold(self, rename_corpus):
        _, trace = decompose_rewrites_trace(rename_corpus, ExtractionConfig())
        for round_trace in trace:
            for rule, metrics in round_trace.ranked:
                recomputed = classification_metrics(rule, round_trace.buckets)
                assert recomputed == metrics
                assert recomputed.precision > 0.5

    def test_determinism(self, rename_corpus):
        a = decompose_rewrites(rename_corpus, ExtractionConfig())
        b = decompose_rewrites(rename_corpus, ExtractionConfig())
        assert [(r.lhs, r.rhs) for r in a] == [(r.lhs, r.rhs) for r in b]


class TestApplyRewrite:
    def test_no_rescan_of_produced_text(self):
        # ": -> \:" must not fire on the backslash-colon it just wrote.
        out, sites = apply_rewrite_to_text("a:b:c", ":", "\\:")
        assert out == "a\\:b\\:c"
        assert len(sites) == 2

    def test_boundary_discipline(self):
        out, sites = apply_rewrite_to_text("public class Republican", "public", "private")
        assert out == "private class Republican"
        assert sites == [(0, 6)]

    def test_zero_applications_allowed(self):
        out, sites = apply_rewrite_to_text("abc", "zzz", "qqq")
        assert out == "abc" and sites == []
