from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterable

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tablesync.alignment import (
    SIMILARITY_THRESHOLD,
    Alignment,
    align_deterministic,
    align_llm,
    greedy_key_matches,
    majority_vote,
    multi_vote_align,
    score_alignment,
    alignment_from_doc,
    alignment_to_doc,
)
from tablesync.errors import UniverseMismatch
from tablesync.gateway import Gateway
from tablesync.stub import StubBackend, StubRuleSet
from conftest import FaultBackend
from test_similarity import key_similarity


def answering_align(text: str) -> Gateway:
    """A stub gateway whose every align prompt gets `text` as its answer."""
    return Gateway(FaultBackend(StubRuleSet(), {"align": text}))


LEFT_KEYS = ("k1", "k2", "k3", "k4")
RIGHT_KEYS = ("r1", "r2", "r3", "r4")


def mk_alignment(edges) -> Alignment:
    return Alignment.build(LEFT_KEYS, RIGHT_KEYS, edges)


class TestBuild:
    def test_partition_property(self):
        alignment = mk_alignment([("k1", "r1"), ("k2", "r2")])
        assert alignment.unaligned_left == {"k3", "k4"}
        assert alignment.unaligned_right == {"r3", "r4"}
        assert alignment.left_universe == set(LEFT_KEYS)
        assert alignment.right_universe == set(RIGHT_KEYS)
        assert alignment.by_right == {"r1": ("k1",), "r2": ("k2",)}
        empty = mk_alignment([])
        assert empty.by_right == {}
        assert empty.unaligned_right == set(RIGHT_KEYS)

    def test_regroups_multi_alignments(self):
        alignment = mk_alignment([("k1", "r1"), ("k2", "r1")])
        assert alignment.pairs == ((("k1", "k2"), ("r1",)),)
        many = mk_alignment([("k3", "r2"), ("k1", "r2"), ("k2", "r2"), ("k3", "r4")])
        assert many.by_right == {"r2": ("k1", "k2", "k3"), "r4": ("k3",)}
        assert many.unaligned_right == {"r1", "r3"}

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


# The alignment that stored its groups, leftovers and edges side by side,
# kept verbatim (class renamed) as the reference the derived ones must equal.
@dataclass(frozen=True)
class AlignmentPair:
    """One correspondence; either side may hold several keys (multi-alignment)."""

    left: tuple[str, ...]
    right: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.left or not self.right:
            raise ValueError("alignment pair sides must be nonempty")
        object.__setattr__(self, "left", tuple(sorted(self.left)))
        object.__setattr__(self, "right", tuple(sorted(self.right)))

    def edges(self) -> Iterable[tuple[str, str]]:
        for l in self.left:
            for r in self.right:
                yield (l, r)


@dataclass(frozen=True)
class ReferenceAlignment:
    pairs: tuple[AlignmentPair, ...]
    unaligned_left: frozenset[str]
    unaligned_right: frozenset[str]
    edge_set: frozenset[tuple[str, str]]

    @staticmethod
    def build(
        left_universe: Iterable[str],
        right_universe: Iterable[str],
        edges: Iterable[tuple[str, str]],
    ) -> ReferenceAlignment:
        """Canonical alignment from atomic edges.

        Edges are regrouped into maximal multi-alignments (connected components
        of the bipartite edge graph); unaligned sets are the leftovers.
        """
        left_all = frozenset(left_universe)
        right_all = frozenset(right_universe)
        edge_set = frozenset(edges)
        for l, r in edge_set:
            if l not in left_all or r not in right_all:
                raise UniverseMismatch(f"edge ({l!r}, {r!r}) outside the key universes")

        # Union-find over left/right nodes to regroup multi-alignments.
        parent: dict[tuple[str, str], tuple[str, str]] = {}

        def find(node: tuple[str, str]) -> tuple[str, str]:
            parent.setdefault(node, node)
            while parent[node] != node:
                parent[node] = parent[parent[node]]
                node = parent[node]
            return node

        def union(a: tuple[str, str], b: tuple[str, str]) -> None:
            parent[find(a)] = find(b)

        for l, r in edge_set:
            union(("L", l), ("R", r))

        groups: dict[tuple[str, str], tuple[set[str], set[str]]] = {}
        for l, r in edge_set:
            root = find(("L", l))
            left_keys, right_keys = groups.setdefault(root, (set(), set()))
            left_keys.add(l)
            right_keys.add(r)

        pairs = tuple(
            sorted(
                (AlignmentPair(tuple(ls), tuple(rs)) for ls, rs in groups.values()),
                key=lambda p: (p.left, p.right),
            )
        )
        used_left = {l for l, _ in edge_set}
        used_right = {r for _, r in edge_set}
        return ReferenceAlignment(pairs, left_all - used_left, right_all - used_right, edge_set)


def reference_alignment_to_doc(alignment: ReferenceAlignment) -> dict:
    return {
        "pairs": [[list(p.left), list(p.right)] for p in alignment.pairs],
        "edges": sorted(list(edge) for edge in alignment.edge_set),
        "unaligned_left": sorted(alignment.unaligned_left),
        "unaligned_right": sorted(alignment.unaligned_right),
    }


# Both sides draw from one small alphabet, so a key can lie in both universes
# and reading the wrong end of an edge still gives a different answer.
universe_keys = st.sets(st.sampled_from("abcde"), max_size=5)


@st.composite
def universes_and_edges(draw):
    left = sorted(draw(universe_keys))
    right = sorted(draw(universe_keys))
    candidates = [(l, r) for l in left for r in right]
    edges = draw(st.lists(st.sampled_from(candidates), unique=True) if candidates else st.just([]))
    return left, right, edges


class TestAgainstStoredReference:
    @given(universes_and_edges(), universes_and_edges(), st.randoms(use_true_random=False))
    @settings(max_examples=300)
    def test_derived_fields_equal_the_stored_ones(self, drawn, other, rng):
        left, right, edges = drawn
        alignment = Alignment.build(left, right, edges)
        reference = ReferenceAlignment.build(left, right, edges)
        assert alignment.pairs == tuple((p.left, p.right) for p in reference.pairs)
        assert alignment.unaligned_left == reference.unaligned_left
        assert alignment.unaligned_right == reference.unaligned_right
        assert alignment.by_right.keys() == {r for _, r in edges}
        for r, lefts in alignment.by_right.items():
            assert list(lefts) == sorted(l for l, other in edges if other == r)
        assert alignment.unaligned_right == set(right) - alignment.by_right.keys()
        doc = alignment_to_doc(alignment)
        assert doc == reference_alignment_to_doc(reference)
        assert alignment_from_doc(doc) == alignment
        assert alignment_from_doc({key: doc[key] for key in doc if key != "edges"}) == Alignment.build(
            left, right, [edge for pair in reference.pairs for edge in pair.edges()]
        )

        shuffled = list(edges)
        rng.shuffle(shuffled)
        assert Alignment.build(reversed(left), reversed(right), shuffled) == alignment
        other_alignment = Alignment.build(*other)
        assert (other_alignment == alignment) == (ReferenceAlignment.build(*other) == reference)


class TestDeterministic:
    def test_identical_tables_fully_aligned(self, mk_table):
        table = mk_table([("Name", "x"), ("Country", "y")])
        alignment = align_deterministic(table, table)
        assert alignment.edges == {("name", "name"), ("country", "country")}
        assert not alignment.unaligned_left and not alignment.unaligned_right

    def test_token_overlap_alignment(self, mk_table):
        # dice({birth, date}, {date, of, birth}) = 0.8 >= 0.5
        a = mk_table([("Birth date", "x")])
        b = mk_table([("Date of birth", "x")])
        alignment = align_deterministic(a, b)
        assert alignment.edges == {("birth date", "date of birth")}

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
        assert align_deterministic(a, b).edges == {("population", "population")}


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
    # Exact pairs: equal token sets in another order.
    @example(left=["birth date", "place"], right=["Date Birth", "birth place"])
    # Exact pairs: equal trigram sets and no shared token, sorting ahead of
    # an equal normalized form.
    @example(left=["aaaa"], right=["aaaa", "aaa"])
    # Equal trigram sets and a shared token: 2/3, not exact, so 4/5 wins.
    @example(left=["aaa aaa", "aaaa aaa b"], right=["aaa aaaa"])
    # Two left spellings, of one and of two normalized forms, compete for one exact partner.
    @example(left=["date of birth", "Birth of date", "of birth date:"], right=["birth date of"])
    # A left key whose exact partner is taken falls back to its next best score.
    @example(left=["birth date", "date birth"], right=["Birth Date", "birth date place"])
    def test_equals_pairwise_key_similarity(self, left, right):
        assert greedy_key_matches(left, right) == pairwise_reference(left, right)

    def test_equals_pairwise_reference_on_fixture_corpus(self, instances):
        tables = [table for inst in instances for table in (inst.source, inst.reference, inst.gold)]
        for a in tables:
            for b in tables:
                assert greedy_key_matches(a.keys(), b.keys()) == pairwise_reference(a.keys(), b.keys())

    def test_alike_keys_are_matched_without_scoring(self, monkeypatch):
        # Every left key has a right key with an equal token set, so all
        # 3000 are matched by lookup and no pair's overlap is counted.
        def overlaps(*_):
            raise AssertionError("a pair was scored")

        monkeypatch.setattr("tablesync.alignment._overlaps", overlaps)
        left = [f"key {i}" for i in range(3000)]
        right = [f"{i} KEY" for i in range(3000)]
        assert greedy_key_matches(left, right) == sorted(zip(left, right))

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
        alignment = align_llm(a, b, "stub-model", stub_gateway, diagnostics=[])
        assert alignment.edges == {("name", "name"), ("country", "country")}
        assert alignment.unaligned_left == {"extra"}

    def test_reanchoring_of_slightly_off_echo(self, mk_table):
        # The answer echoes "Birth Date" for the real key "Birth date:".
        gateway = answering_align('[["Birth Date","Birth Date"]]')
        a = mk_table([("Birth date:", "x")])
        b = mk_table([("Birth date", "y")])
        diagnostics = []
        alignment = align_llm(a, b, "m", gateway, diagnostics=diagnostics)
        assert alignment.edges == {("birth date", "birth date")}

    def test_reanchoring_tie_picks_smaller_key(self, mk_table):
        # The echo is one edit from both real keys (distance 0.1 each).
        gateway = answering_align('[["abcdefghij","Name"]]')
        a = mk_table([("abcdefghiz", "x"), ("abcdefghiy", "y")])
        b = mk_table([("Name", "z")])
        diagnostics = []
        alignment = align_llm(a, b, "m", gateway, diagnostics=diagnostics)
        assert alignment.edges == {("abcdefghiy", "name")}
        assert diagnostics == ["re-anchored 'abcdefghij' -> 'abcdefghiy'"]

    def test_unanchorable_key_dropped_with_diagnostic(self, mk_table):
        gateway = answering_align('[["Completely Unrelated","Name"]]')
        a = mk_table([("Name", "x")])
        b = mk_table([("Name", "y")])
        diagnostics = []
        alignment = align_llm(a, b, "m", gateway, diagnostics=diagnostics)
        assert not alignment.pairs
        assert any("dropped" in d for d in diagnostics)

    def test_empty_tables_empty_alignment(self, mk_table, stub_gateway):
        alignment = align_llm(mk_table([]), mk_table([]), "stub-model", stub_gateway, diagnostics=[])
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
        union = set().union(*(v.edges for v in votes))
        assert majority_vote(votes).edges <= union


class TestMultiVote:
    def test_degenerate_is_deterministic_result(self, mk_table, stub_gateway):
        a = mk_table([("Name", "x")])
        b = mk_table([("Name", "y")])
        assert multi_vote_align(a, b, [], 1, stub_gateway) == align_deterministic(a, b)

    def test_all_stub_voters_agree(self, mk_table, stub_gateway):
        a = mk_table([("Name", "x"), ("Country", "y")])
        b = mk_table([("Name", "x"), ("Country", "y")])
        result = multi_vote_align(a, b, ["m1", "m2"], 3, stub_gateway)
        assert result == align_deterministic(a, b)

    def test_majority_side_wins_two_to_one(self, mk_table):
        # Deterministic vote and model m1 say name<->name; model m2 abstains.
        gateway = answering_align("[]")
        a = mk_table([("Name", "x")])
        b = mk_table([("Name", "y")])
        result = multi_vote_align(a, b, ["m2"], 1, gateway)
        # 1 deterministic vs 1 empty model vote: 1 of 2 is not a majority
        assert not result.pairs
        three = multi_vote_align(a, b, ["m2", "m2b"], 1, Gateway(StubBackend(StubRuleSet())))
        assert three.edges == {("name", "name")}


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
