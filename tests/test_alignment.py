import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tablesync.alignment import (
    SIMILARITY_THRESHOLD,
    Alignment,
    AlignmentPair,
    align_deterministic,
    align_llm,
    greedy_key_matches,
    majority_vote,
    multi_vote_align,
    score_alignment,
    alignment_from_doc,
    alignment_to_doc,
)
from tablesync.errors import EmptyVoteSet, UniverseMismatch
from tablesync.gateway import Gateway
from tablesync.stub import StubBackend, StubRuleSet
from test_similarity import key_similarity


LEFT_KEYS = ("k1", "k2", "k3", "k4")
RIGHT_KEYS = ("r1", "r2", "r3", "r4")


def mk_alignment(edges, left=LEFT_KEYS, right=RIGHT_KEYS) -> Alignment:
    return Alignment.build(left, right, edges)


class TestBuild:
    def test_partition_property(self):
        alignment = mk_alignment([("k1", "r1"), ("k2", "r2")])
        assert alignment.unaligned_left == {"k3", "k4"}
        assert alignment.unaligned_right == {"r3", "r4"}
        assert alignment.left_universe == set(LEFT_KEYS)
        assert alignment.right_universe == set(RIGHT_KEYS)

    def test_regroups_multi_alignments(self):
        alignment = mk_alignment([("k1", "r1"), ("k2", "r1")])
        assert alignment.pairs == (AlignmentPair(("k1", "k2"), ("r1",)),)

    def test_edge_outside_universe(self):
        with pytest.raises(UniverseMismatch):
            mk_alignment([("nope", "r1")])

    def test_canonical_order_is_stable(self):
        a = mk_alignment([("k1", "r1"), ("k2", "r2")])
        b = mk_alignment([("k2", "r2"), ("k1", "r1")])
        assert a == b

    def test_doc_round_trip(self):
        alignment = mk_alignment([("k1", "r1"), ("k2", "r1"), ("k3", "r3")])
        assert alignment_from_doc(alignment_to_doc(alignment)) == alignment


class TestDeterministic:
    def test_identical_tables_fully_aligned(self, mk_table):
        table = mk_table([("Name", "x"), ("Country", "y")])
        alignment = align_deterministic(table, table)
        assert alignment.edges() == {("name", "name"), ("country", "country")}
        assert not alignment.unaligned_left and not alignment.unaligned_right

    def test_token_overlap_alignment(self, mk_table):
        # dice({birth, date}, {date, of, birth}) = 0.8 >= 0.5
        a = mk_table([("Birth date", "x")])
        b = mk_table([("Date of birth", "x")])
        alignment = align_deterministic(a, b)
        assert alignment.edges() == {("birth date", "date of birth")}

    def test_disjoint_keys_unaligned(self, mk_table):
        a = mk_table([("aaa", "1"), ("bbb", "2")])
        b = mk_table([("xxx", "1"), ("yyy", "2")])
        alignment = align_deterministic(a, b)
        assert not alignment.pairs
        assert alignment.unaligned_left == {"aaa", "bbb"}

    def test_deterministic_given_inputs(self, mk_table):
        a = mk_table([("Population", "1"), ("Population count", "2")])
        b = mk_table([("Population", "9")])
        assert align_deterministic(a, b) == align_deterministic(a, b)
        # greedy best-match gives the exact key the single slot
        assert align_deterministic(a, b).edges() == {("population", "population")}


def pairwise_reference(left_keys, right_keys):
    """Greedy matching that scores each pair with key_similarity."""
    scored = []
    for l in dict.fromkeys(left_keys):
        for r in dict.fromkeys(right_keys):
            score = key_similarity(l, r)
            if score >= SIMILARITY_THRESHOLD:
                scored.append((-score, l, r))
    scored.sort()
    taken_left, taken_right, matches = set(), set(), []
    for _, l, r in scored:
        if l not in taken_left and r not in taken_right:
            taken_left.add(l)
            taken_right.add(r)
            matches.append((l, r))
    return matches


key_words = st.sampled_from(
    ["Birth", "birth", "date", "Date:", "of", "place", "name", "birthdate", "Geburt", "x", "ab", "cd"]
)
match_key = st.one_of(
    st.lists(key_words, min_size=1, max_size=3).map(" ".join),
    st.text("abcd -:.", min_size=1, max_size=8).filter(str.strip),
    # Shorter than a trigram.
    st.text("abx", min_size=1, max_size=2),
    # Trigrams shared only across a token boundary ("ab cd" / "xab cdx"),
    # none at all ("ab cd" / "abcd"), or a short token shared without a
    # trigram ("x" / "of x").
    st.sampled_from(["ab cd", "abcd", "xab cdx", "x", "of x", "x of"]),
)
# Case and whitespace variants that normalize alike.
spellings = st.sampled_from(
    [str, str.upper, str.title, lambda key: f"  {key}\t", lambda key: key.replace(" ", " \n ")]
)
match_keys = st.lists(
    st.tuples(match_key, spellings).map(lambda pair: pair[1](pair[0])), max_size=12
).flatmap(lambda keys: st.permutations(keys + keys[::3]))  # with repeated keys


class TestGreedyKeyMatches:
    @given(match_keys, match_keys)
    @settings(max_examples=200)
    def test_equals_pairwise_key_similarity(self, left, right):
        assert greedy_key_matches(left, right) == pairwise_reference(left, right)

    def test_equals_pairwise_reference_on_fixture_corpus(self, instances):
        tables = [table for inst in instances for table in (inst.source, inst.reference, inst.gold)]
        for a in tables:
            for b in tables:
                assert greedy_key_matches(a.keys(), b.keys()) == pairwise_reference(a.keys(), b.keys())

    def test_keys_sharing_nothing_are_never_scored(self):
        # 3000 x 3000 distinct CJK characters, no token or trigram shared
        # across the sides: scoring every pair would take 9M scores (> 10 s).
        left = [chr(0x4E00 + i) for i in range(3000)]
        right = [chr(0x4E00 + 3000 + i) for i in range(3000)]
        start = time.perf_counter()
        assert greedy_key_matches(left, right) == []
        assert time.perf_counter() - start < 1.0


class TestLlmAlign:
    def test_stub_alignment_on_same_language_tables(self, mk_table, stub_gateway):
        a = mk_table([("Name", "x"), ("Country", "y"), ("Extra", "z")])
        b = mk_table([("Name", "x"), ("Country", "y")])
        alignment = align_llm(a, b, "stub-model", stub_gateway)
        assert alignment.edges() == {("name", "name"), ("country", "country")}
        assert alignment.unaligned_left == {"extra"}

    def test_reanchoring_of_slightly_off_echo(self, mk_table):
        # Canned response echoes "Birth Date" for the real key "Birth date:".
        rules = StubRuleSet(
            canned_responses=(("matching Table G keys", '[["Birth Date","Birth Date"]]'),)
        )
        gateway = Gateway(StubBackend(rules))
        a = mk_table([("Birth date:", "x")])
        b = mk_table([("Birth date", "y")])
        diagnostics = []
        alignment = align_llm(a, b, "m", gateway, diagnostics=diagnostics)
        assert alignment.edges() == {("birth date", "birth date")}

    def test_reanchoring_tie_picks_smaller_key(self, mk_table):
        # The echo is one edit from both real keys (distance 0.1 each).
        rules = StubRuleSet(
            canned_responses=(("matching Table G keys", '[["abcdefghij","Name"]]'),)
        )
        gateway = Gateway(StubBackend(rules))
        a = mk_table([("abcdefghiz", "x"), ("abcdefghiy", "y")])
        b = mk_table([("Name", "z")])
        diagnostics = []
        alignment = align_llm(a, b, "m", gateway, diagnostics=diagnostics)
        assert alignment.edges() == {("abcdefghiy", "name")}
        assert diagnostics == ["re-anchored 'abcdefghij' -> 'abcdefghiy'"]

    def test_unanchorable_key_dropped_with_diagnostic(self, mk_table):
        rules = StubRuleSet(
            canned_responses=(("matching Table G keys", '[["Completely Unrelated","Name"]]'),)
        )
        gateway = Gateway(StubBackend(rules))
        a = mk_table([("Name", "x")])
        b = mk_table([("Name", "y")])
        diagnostics = []
        alignment = align_llm(a, b, "m", gateway, diagnostics=diagnostics)
        assert not alignment.pairs
        assert any("dropped" in d for d in diagnostics)

    def test_empty_tables_empty_alignment(self, mk_table, stub_gateway):
        alignment = align_llm(mk_table([]), mk_table([]), "stub-model", stub_gateway)
        assert not alignment.pairs


class TestMajorityVote:
    def test_unanimity(self):
        vote = mk_alignment([("k1", "r1")])
        assert majority_vote([vote, vote, vote]) == vote

    def test_two_against_one(self):
        x = mk_alignment([("k1", "r1")])
        y = mk_alignment([("k1", "r2")])
        assert majority_vote([x, x, y]) == x

    def test_permutation_invariance(self):
        x = mk_alignment([("k1", "r1"), ("k2", "r2")])
        y = mk_alignment([("k1", "r1")])
        z = mk_alignment([("k2", "r2")])
        assert majority_vote([x, y, z]) == majority_vote([z, x, y])

    def test_empty_votes_rejected(self):
        with pytest.raises(EmptyVoteSet):
            majority_vote([])

    def test_universe_mismatch_rejected(self):
        x = mk_alignment([("k1", "r1")])
        y = mk_alignment([("k1", "r1")], left=("k1",), right=("r1",))
        with pytest.raises(UniverseMismatch):
            majority_vote([x, y])

    def test_strict_majority_with_even_votes(self):
        x = mk_alignment([("k1", "r1")])
        empty = mk_alignment([])
        # 2 of 4 is not strictly more than half
        assert majority_vote([x, x, empty, empty]) == empty


edges_strategy = st.sets(
    st.tuples(st.sampled_from(LEFT_KEYS), st.sampled_from(RIGHT_KEYS)), max_size=6
)
votes_strategy = st.lists(edges_strategy.map(mk_alignment), min_size=1, max_size=7)


class TestVotingProperties:
    @given(edges_strategy, st.integers(min_value=1, max_value=5))
    @settings(max_examples=200)
    def test_idempotence(self, edges, copies):
        vote = mk_alignment(edges)
        assert majority_vote([vote] * copies) == vote

    @given(votes_strategy, st.randoms(use_true_random=False))
    @settings(max_examples=200)
    def test_permutation_invariance(self, votes, rng):
        shuffled = list(votes)
        rng.shuffle(shuffled)
        assert majority_vote(shuffled) == majority_vote(votes)

    @given(votes_strategy)
    @settings(max_examples=200)
    def test_no_invented_edges(self, votes):
        union = set().union(*(v.edges() for v in votes))
        assert majority_vote(votes).edges() <= union


class TestMultiVote:
    def test_degenerate_is_deterministic_result(self, mk_table):
        a = mk_table([("Name", "x")])
        b = mk_table([("Name", "y")])
        assert multi_vote_align(a, b, [], 1) == align_deterministic(a, b)

    def test_all_stub_voters_agree(self, mk_table, stub_gateway):
        a = mk_table([("Name", "x"), ("Country", "y")])
        b = mk_table([("Name", "x"), ("Country", "y")])
        result = multi_vote_align(a, b, ["m1", "m2"], 3, stub_gateway)
        assert result == align_deterministic(a, b)

    def test_majority_side_wins_two_to_one(self, mk_table):
        # Deterministic vote and model m1 say name<->name; model m2 abstains.
        rules = StubRuleSet(canned_responses=(("matching Table G keys", "[]"),))
        gateway = Gateway(StubBackend(rules))
        a = mk_table([("Name", "x")])
        b = mk_table([("Name", "y")])
        result = multi_vote_align(a, b, ["m2"], 1, gateway)
        # 1 deterministic vs 1 empty model vote: 1 of 2 is not a majority
        assert not result.pairs
        three = multi_vote_align(a, b, ["m2", "m2b"], 1, Gateway(StubBackend(StubRuleSet())))
        assert three.edges() == {("name", "name")}

    def test_rounds_must_be_positive(self, mk_table):
        with pytest.raises(ValueError):
            multi_vote_align(mk_table([]), mk_table([]), [], 0)


class TestScoreAlignment:
    def test_exact_match(self):
        alignment = mk_alignment([("k1", "r1")])
        score = score_alignment(alignment, alignment)
        assert (score.precision, score.recall, score.f1) == (1.0, 1.0, 1.0)

    def test_empty_prediction_convention(self):
        pred = mk_alignment([])
        gold = mk_alignment([("k1", "r1")])
        score = score_alignment(pred, gold)
        assert score.precision == 1.0
        assert score.recall == 0.0
        assert score.f1 == 0.0

    def test_hand_counted_mixed_case(self):
        gold = mk_alignment([("k1", "r1"), ("k2", "r2"), ("k3", "r3"), ("k4", "r4")])
        pred = mk_alignment([("k1", "r1"), ("k2", "r2"), ("k3", "r4")])
        score = score_alignment(pred, gold)
        assert score.precision == pytest.approx(2 / 3)
        assert score.recall == pytest.approx(1 / 2)
        assert score.f1 == pytest.approx(4 / 7)
