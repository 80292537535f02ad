import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

import summer.rules as rules
from summer.align import Bucket, BucketSet, dissect
from summer.moves import MovePattern
from summer.rules import (
    WINDOW,
    Candidate,
    RewriteRule,
    RuleMetrics,
    _score,
    _select,
    classification_metrics,
    decompose_rewrites,
    decompose_rewrites_trace,
    expand_edit,
    get_precise_rewriting,
    sort_and_filter,
)
from summer.tokens import CharCategory, Joined, classify_char
from tests.conftest import INSERTION, SUBSTITUTION, core_atom


def replay(buckets: BucketSet, rules) -> dict[str, str]:
    current = {b.label: b.source for b in buckets}
    for rule in rules:
        for label in current:
            current[label] = Joined.of([current[label]]).rewrite(rule.lhs, rule.rhs)[0].text
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


# "\x00" in a source makes the joined text pick another separator.
PIECES = ["a", "ab", "b", "1", "22", " ", "\n", "(", ")", "=", ".", "_", "\x00", "\x01", "é"]
pieces_text = st.lists(st.sampled_from(PIECES), max_size=10).map("".join)
LABELS = ["a.txt", "src/b.py", "c", "name:a.txt", "name:src/b.py", "content:c"]


@st.composite
def corpora(draw) -> BucketSet:
    """1 to 5 buckets; empty sources, and targets either unrelated or the
    source with one stretch replaced."""
    labels = draw(st.lists(st.sampled_from(LABELS), min_size=1, max_size=5, unique=True))
    buckets = []
    for label in labels:
        source = draw(pieces_text)
        if draw(st.booleans()):
            target = draw(pieces_text)
        else:
            i = draw(st.integers(0, len(source)))
            j = draw(st.integers(i, len(source)))
            target = source[:i] + draw(pieces_text) + source[j:]
        buckets.append(dissect(source, target, label))
    return BucketSet(tuple(buckets))


@st.composite
def needles(draw, buckets: BucketSet, side: str) -> str:
    """A nonempty stretch of some bucket's source or target, or random text,
    now and then with the joined text's separator inside."""
    texts = [getattr(b, side) for b in buckets]
    text = draw(st.one_of(st.sampled_from(texts), pieces_text))
    i = draw(st.integers(0, len(text)))
    needle = text[i : draw(st.integers(i, len(text)))] or draw(st.sampled_from(PIECES))
    if draw(st.integers(0, 9)) == 0:
        k = draw(st.integers(0, len(needle)))
        needle = needle[:k] + buckets.joined.sep + needle[k:]
    return needle


def reference_score(buckets: BucketSet, spans_in, rhs: str):
    """Per-bucket scoring: every bucket source scanned on its own."""
    tp = fp = 0
    sites = []
    for bidx, bucket in enumerate(buckets):
        for start, end in spans_in(bucket.source):
            if bucket.agrees(start, end, rhs):
                tp += 1
                sites.append((bidx, (start, end)))
            else:
                fp += 1
    return RuleMetrics(tp, fp), sites


class TestJoinedScoring:
    """Scoring over the joined sources equals scanning each source."""

    @given(corpora())
    @settings(max_examples=100)
    def test_joined_text(self, buckets):
        joined, sep, starts = buckets.joined
        assert classify_char(sep) is CharCategory.SYMBOL
        assert not any(sep in b.source for b in buckets)
        assert joined.split(sep) == buckets.joined.split() == [b.source for b in buckets]
        assert [joined[s : s + len(b.source)] for s, b in zip(starts, buckets)] == [
            b.source for b in buckets
        ]

    def test_match_at_the_start_of_a_later_source(self):
        buckets = BucketSet(
            (dissect("a b", "a c", "x"), dissect("", "", "y"), dissect("b c", "c c", "z"))
        )
        got = _score(buckets, "b", "c", 2 * buckets.edit_count)
        assert got == (RuleMetrics(2, 0), [(0, (2, 3)), (2, (0, 1))])

    @given(st.data())
    @settings(max_examples=250)
    def test_literal_candidates(self, data):
        buckets = data.draw(corpora())
        lhs = data.draw(needles(buckets, "source"))
        rhs = data.draw(st.one_of(needles(buckets, "target"), pieces_text))
        if lhs == rhs:
            return  # no candidate rewrites a text to itself
        want = reference_score(
            buckets, lambda s: [(i, i + len(lhs)) for i in Joined.of([s]).find(lhs)], rhs
        )
        # Uncapped, the literal is scored in full; under the bar's cap, its
        # scan may stop once the candidate cannot clear the bar.
        assert _score(buckets, lhs, rhs, None) == want
        metrics, sites = _score(buckets, lhs, rhs, 2 * buckets.edit_count)
        if want[0].precise:
            assert (metrics, sites) == want
        else:
            assert not metrics.precise

    @given(st.data())
    @settings(max_examples=250)
    def test_capture_candidates(self, data):
        buckets = data.draw(corpora())
        prefix = data.draw(needles(buckets, "source"))
        suffix = data.draw(needles(buckets, "source"))
        rhs = data.draw(st.one_of(needles(buckets, "target"), pieces_text))
        self.check_capture(buckets, MovePattern(prefix, suffix), rhs)

    def test_capture_whose_only_suffix_is_in_a_later_source(self):
        buckets = BucketSet((dissect("a(b", "a(c", "x"), dissect("c)d(e)", "c)d", "y")))
        self.check_capture(buckets, MovePattern("(", ")"), "()")

    def check_capture(self, buckets, pattern, rhs):
        starts = buckets.joined.starts
        per_bucket = [
            (bidx, m)
            for bidx, b in enumerate(buckets)
            for m in Joined.of([b.source]).match(*pattern)
        ]
        found = []
        for m in buckets.joined.match(*pattern):
            bidx = max(i for i, s in enumerate(starts) if s <= m[0])
            found.append((bidx, tuple(x - starts[bidx] for x in m)))
        assert found == per_bucket

        want = reference_score(
            buckets, lambda s: [m[:2] for m in Joined.of([s]).match(*pattern)], rhs
        )
        assert _score(buckets, pattern, rhs, None) == want


class TestBarBound:
    def corpus(self) -> BucketSet:
        # 50 lines read "v = 1;" and stay; the first and last line change
        # their 1 to 2. So "1 -> 2" has 2 tp sites, 50 fp sites and a cap of
        # 2 x 2 edit atoms.
        source = "w = 1;\n" + "v = 1;\n" * 50 + "u = 1;\n"
        target = "w = 2;\n" + "v = 1;\n" * 50 + "u = 2;\n"
        return BucketSet((dissect(source, target, "t"),))

    def count_agrees(self, monkeypatch) -> list:
        calls = []
        agrees = Bucket.agrees

        def counted(self, start, end, rhs):
            calls.append((start, end))
            return agrees(self, start, end, rhs)

        monkeypatch.setattr(Bucket, "agrees", counted)
        return calls

    def test_scoring_stops_at_the_cap(self, monkeypatch):
        buckets = self.corpus()
        cap = 2 * buckets.edit_count
        assert cap == 4
        calls = self.count_agrees(monkeypatch)
        metrics, _ = _score(buckets, "1", "2", cap)
        assert not metrics.precise
        assert metrics.fp == cap
        assert len(calls) <= cap + metrics.tp

    def test_classification_metrics_counts_every_match(self, monkeypatch):
        buckets = self.corpus()
        calls = self.count_agrees(monkeypatch)
        assert classification_metrics(RewriteRule("1", "2"), buckets) == RuleMetrics(2, 50)
        assert len(calls) == 52


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


def spans_overlap(a: tuple[int, int], b: tuple[int, int]) -> bool:
    """Half-open interval overlap; zero-width spans behave as points."""
    if a[0] == a[1] and b[0] == b[1]:
        return a[0] == b[0]
    if a[0] == a[1]:
        return b[0] <= a[0] < b[1]
    if b[0] == b[1]:
        return a[0] <= b[0] < a[1]
    return a[0] < b[1] and b[0] < a[1]


def pairwise_select(candidates):
    """Reference selection: test every claim of a candidate against every
    claim retained so far in its bucket."""
    kept = []
    claimed: dict[int, list[tuple[int, int]]] = {}
    for cand in sorted((c for c in candidates if c.metrics.precise), key=Candidate.rank):
        if any(
            spans_overlap(span, other)
            for bucket, span in cand.claims
            for other in claimed.get(bucket, ())
        ):
            continue
        for bucket, span in cand.claims:
            claimed.setdefault(bucket, []).append(span)
        kept.append(cand)
    return kept


# Short spans over a few offsets, a quarter of them zero-width, so that
# claims nest, touch and meet at run ends.
_spans = st.tuples(st.integers(0, 12), st.sampled_from([0, 1, 1, 2, 3, 5])).map(
    lambda t: (t[0], t[0] + t[1])
)


@st.composite
def claim_pools(draw):
    """Candidates over three buckets, each claiming a window, a core inside
    it (window ⊇ core, as expand_edit claims them) and a few sites."""
    pool = []
    for k in range(draw(st.integers(0, 24))):
        bucket = draw(st.integers(0, 2))
        lo, hi = draw(_spans)
        core_lo = draw(st.integers(lo, hi))
        core = (core_lo, draw(st.integers(core_lo, hi)))
        sites = draw(st.lists(st.tuples(st.integers(0, 2), _spans), max_size=3))
        metrics = RuleMetrics(draw(st.integers(0, 3)), draw(st.integers(0, 1)))
        order = (draw(st.integers(0, 2)), k)
        pool.append(Candidate(k, metrics, order, [(bucket, (lo, hi)), (bucket, core), *sites]))
    return pool


def claims_of(*claims):
    return [Candidate(k, RuleMetrics(1, 0), (k,), list(c)) for k, c in enumerate(claims)]


class TestSelect:
    @given(claim_pools())
    @settings(max_examples=500)
    # A point at a run's end is free, at its start taken.
    @example(claims_of([(0, (2, 5))], [(0, (5, 5))], [(0, (2, 2))]))
    # Adjacent spans merge into one run; a point inside it is taken.
    @example(claims_of([(0, (2, 4))], [(0, (4, 6))], [(0, (3, 3))], [(0, (4, 4))], [(0, (6, 6))]))
    # Points claim one offset: a point beside a point is free.
    @example(claims_of([(0, (3, 3))], [(0, (4, 4))], [(0, (2, 3))], [(0, (3, 4))]))
    # The same span in another bucket is free.
    @example(claims_of([(0, (0, 9)), (0, (3, 4))], [(1, (0, 9))], [(2, (8, 8)), (0, (9, 9))]))
    def test_matches_pairwise_reference(self, pool):
        assert [c.rule for c in _select(pool)] == [c.rule for c in pairwise_select(pool)]


def scored(buckets: BucketSet, pool: dict) -> list[Candidate]:
    """Every candidate of a pool with its metrics and tp sites, each one
    scored in full."""
    out = []
    for cand in pool.values():
        if cand.metrics is None:
            metrics, sites = _score(buckets, cand.lhs, cand.rhs, None)
            cand = cand._replace(metrics=metrics, claims=cand.claims + sites)
        out.append(cand)
    return out


class TestExpandEdit:
    def test_host_rename_candidate_present(self, rename_corpus):
        pool = {}
        core = core_atom(rename_corpus, 0, SUBSTITUTION)
        expand_edit(rename_corpus, 0, core, pool, WINDOW)
        e = pool[len("github"), "github", "gitlab"]  # keyed by order
        assert e.rule == RewriteRule("github", "gitlab")
        assert e.metrics is None  # pending until the selection reaches it
        metrics, _ = _score(rename_corpus, e.lhs, e.rhs, None)
        assert (metrics.tp, metrics.fp) == (2, 0)

    def test_insertion_contexts_from_both_sides(self, rename_corpus):
        pool = {}
        core = core_atom(rename_corpus, 2, INSERTION)
        expand_edit(rename_corpus, 2, core, pool, WINDOW)
        by_rule = {c.rule: c.metrics for c in scored(rename_corpus, pool)}
        nl = by_rule[RewriteRule("\n", '\nimport "fmt"\n')]
        fn = by_rule[RewriteRule("func", 'import "fmt"\nfunc')]
        assert (nl.tp, nl.fp) == (1, 6)
        assert (fn.tp, fn.fp) == (1, 0)

    def test_identity_edit_rejected(self, rename_corpus):
        with pytest.raises(ValueError):
            expand_edit(rename_corpus, 2, core_atom(rename_corpus, 2, None), {}, WINDOW)

    def test_candidate_count_bounded_by_window_grid(self):
        corpus = BucketSet((dissect("a b x c d", "a b y c d", "t"),))
        core = core_atom(corpus, 0, SUBSTITUTION)
        for w in (0, 1, 2, 3):
            pool = {}
            expand_edit(corpus, 0, core, pool, w)
            assert len(pool) <= (w + 1) ** 2


class TestGetPreciseRewriting:
    def test_rename_corpus_walkthrough(self, rename_corpus):
        ranked = get_precise_rewriting(rename_corpus, WINDOW)
        as_pairs = [(r.lhs, r.rhs) for r, _ in ranked]
        assert ("github", "gitlab") in as_pairs
        assert ("bc.", "Program.") in as_pairs
        assert ("bc", "Program") not in as_pairs
        assert replay(rename_corpus, [r for r, _ in ranked]) == targets(rename_corpus)

    def test_all_identity_buckets_give_nothing(self):
        corpus = BucketSet((dissect("same", "same", "t"),))
        assert get_precise_rewriting(corpus, WINDOW) == []

    def test_lone_substitution(self):
        corpus = BucketSet((dissect("x", "y", "t"),))
        ranked = get_precise_rewriting(corpus, WINDOW)
        assert [(r.lhs, r.rhs, m) for r, m in ranked] == [("x", "y", RuleMetrics(1, 0))]


def eager_rewriting(buckets: BucketSet, window: int) -> list[tuple[RewriteRule, RuleMetrics]]:
    """Reference: every formed candidate scored with `_score`, then the
    pairwise selection."""
    pool: dict = {}
    for bidx, bucket in enumerate(buckets):
        for core in bucket.cores:
            expand_edit(buckets, bidx, core, pool, window)
    return [(c.rule, c.metrics) for c in pairwise_select(scored(buckets, pool))]


def spelled(ranked) -> list[tuple]:
    """Retained rules as the step document and the fix-up rounds read them."""
    return [(r.lhs, r.rhs, r.origin, m) for r, m in ranked]


# One edit repeated over many buckets; the last one's lhs starts mid-token
# when a line's indentation changes.
SHARED_EDITS = [("File", "Renamed"), ("+", "*"), ("1", "22"), ("ab", "b"), ("\n    ", "\n  ")]


@st.composite
def rename_corpora(draw) -> BucketSet:
    """2 to 12 buckets sharing one edit: each source strings pieces, copies
    of the edit's lhs and its own number, and its target rewrites some of
    those copies."""
    old, new = draw(st.sampled_from(SHARED_EDITS))
    buckets = []
    for i in range(draw(st.integers(2, 12))):
        parts = draw(st.lists(st.sampled_from([old, old, str(i), *PIECES]), max_size=10))
        keep = draw(st.lists(st.booleans(), min_size=len(parts), max_size=len(parts)))
        target = "".join(new if p == old and not k else p for p, k in zip(parts, keep))
        buckets.append(dissect("".join(parts), target, f"f{i}"))
    return BucketSet(tuple(buckets))


LINES = ["a = 1;\n", "    b(a);\n", "\n", "x\n", "  y = a + 1;\n", "}\n"]


@st.composite
def insertion_corpora(draw) -> BucketSet:
    """1 to 5 buckets of whole lines whose targets only insert lines."""
    buckets = []
    for i in range(draw(st.integers(1, 5))):
        source = draw(st.lists(st.sampled_from(LINES), max_size=8))
        target = list(source)
        for _ in range(draw(st.integers(1, 3))):
            target.insert(draw(st.integers(0, len(target))), draw(st.sampled_from(LINES)))
        buckets.append(dissect("".join(source), "".join(target), f"f{i}"))
    return BucketSet(tuple(buckets))


# The change block starts at an indented line: the widened indentation
# "    " -> "        " begins inside the whitespace token "\n    ", so its
# lhs has no token-aligned occurrence, yet its window has a tp.
INDENT_WIDENED = BucketSet(
    (dissect("class A:\n    x = 1\n", "# A\nclass A:\n        x = 1\n", "c"),)
)
STATEMENTS = ["x = 1", "b(a)", "}", "class A:", "# A"]


@st.composite
def reindent_corpora(draw) -> BucketSet:
    """1 to 3 buckets of indented lines whose targets re-indent some lines
    and insert others: an edit of indentation after a newline starts inside
    the whitespace token that holds both."""
    indents = st.sampled_from(["", "  ", "    ", "\t"])
    buckets = []
    for i in range(draw(st.integers(1, 3))):
        source, target = [], []
        for _ in range(draw(st.integers(1, 5))):
            text = draw(st.sampled_from(STATEMENTS))
            if draw(st.booleans()):
                target.append(draw(indents) + draw(st.sampled_from(STATEMENTS)) + "\n")
            indent = draw(indents)
            source.append(indent + text + "\n")
            target.append((draw(indents) if draw(st.booleans()) else indent) + text + "\n")
        buckets.append(dissect("".join(source), "".join(target), f"f{i}"))
    return BucketSet(tuple(buckets))


def java_class(i: int, name: str, op: str) -> str:
    return (
        f"public class {name}{i} {{\n"
        f"    private int count{i} = {i * 7 % 1000};\n"
        f"    public int get{i}() {{\n"
        f"        return count{i} {op} {i % 13};\n"
        "    }\n"
        "}\n"
    )


def rename_tree(n: int) -> BucketSet:
    """n renamed classes, path and content, the way perfbench's tree
    workload renames them: `File{i}` to `Renamed{i}` and `+` to `*`, with
    each file's own number in the context of every edit."""
    buckets = []
    for i in range(n):
        path = f"src/File{i}.java"
        buckets.append(dissect(java_class(i, "File", "+"), java_class(i, "Renamed", "*"), path))
        buckets.append(dissect(path, f"src/Renamed{i}.java", "name:" + path))
    return BucketSet(tuple(buckets))


class TestLazySelection:
    """Scoring only what can still be retained keeps the eager outcome."""

    @given(
        st.one_of(rename_corpora(), insertion_corpora(), reindent_corpora(), corpora()),
        st.integers(0, 3),
    )
    @settings(max_examples=300, deadline=None)
    @example(buckets=INDENT_WIDENED, window=2)
    def test_equals_eager_reference(self, buckets, window):
        want = spelled(eager_rewriting(buckets, window))
        assert spelled(get_precise_rewriting(buckets, window)) == want

    def test_rename_tree_scores_what_it_keeps(self, monkeypatch):
        buckets = rename_tree(40)
        want = spelled(eager_rewriting(buckets, WINDOW))
        calls = []
        score = rules._score
        monkeypatch.setattr(rules, "_score", lambda *args: calls.append(args) or score(*args))
        assert spelled(get_precise_rewriting(buckets, WINDOW)) == want
        assert [(lhs, rhs) for lhs, rhs, _, _ in want] == [("File", "Renamed"), ("+", "*")]
        assert len(calls) <= 4


class TestDecomposeRewrites:
    def test_identical_sources(self):
        corpus = BucketSet((dissect("a", "a", "t"),))
        assert decompose_rewrites(corpus) == []

    def test_rename_corpus_replay_is_exact(self, rename_corpus):
        rules = decompose_rewrites(rename_corpus)
        assert replay(rename_corpus, rules) == targets(rename_corpus)

    def test_fixup_rounds_repair_partial_first_round(self):
        # Round one cannot claim every changed k (their sites overlap), so a
        # second round must finish the job; the final replay is exact.
        corpus = BucketSet((dissect("k k k ", "j j k ", "t"),))
        rules, trace = decompose_rewrites_trace(corpus)
        assert replay(corpus, rules) == targets(corpus)
        assert len(trace) >= 2
        assert len(rules) >= 2

    def test_window_escalation_when_near_context_is_ambiguous(self):
        # The two k sites agree on every context unit up to distance 5, so
        # no rule survives filtering until the window grows to 6.
        src = "x p q k p q p q k p q y"
        tgt = "x p q j p q p q k p q y"
        corpus = BucketSet((dissect(src, tgt, "t"),))
        rules, trace = decompose_rewrites_trace(corpus)
        assert replay(corpus, rules) == targets(corpus)
        assert max(t.window for t in trace) >= 3
        assert not any(r.fallback for r in rules)

    def test_fallback_rules_used_when_window_capped(self, monkeypatch):
        monkeypatch.setattr("summer.rules.FIXUP_ROUNDS", 0)
        corpus = BucketSet((dissect("k k k ", "j j k ", "t"),))
        rules = decompose_rewrites(corpus)
        assert replay(corpus, rules) == targets(corpus)
        assert any(r.fallback for r in rules)

    def test_retained_rules_satisfy_precision_threshold(self, rename_corpus):
        _, trace = decompose_rewrites_trace(rename_corpus)
        for round_trace in trace:
            for rule, metrics in round_trace.ranked:
                recomputed = classification_metrics(rule, round_trace.buckets)
                assert recomputed == metrics
                assert recomputed.precision > 0.5

    def test_determinism(self, rename_corpus):
        a = decompose_rewrites(rename_corpus)
        b = decompose_rewrites(rename_corpus)
        assert [(r.lhs, r.rhs) for r in a] == [(r.lhs, r.rhs) for r in b]


class TestApplyRewrite:
    def test_no_rescan_of_produced_text(self):
        # ": -> \:" must not fire on the backslash-colon it just wrote.
        out, sites = Joined.of(["a:b:c"]).rewrite(":", "\\:")
        assert out.text == "a\\:b\\:c"
        assert len(sites) == 2

    def test_boundary_discipline(self):
        out, sites = Joined.of(["public class Republican"]).rewrite("public", "private")
        assert out.text == "private class Republican"
        assert sites == [(0, 6)]

    def test_zero_applications_allowed(self):
        out, sites = Joined.of(["abc"]).rewrite("zzz", "qqq")
        assert out.text == "abc" and sites == []
