"""Key correspondence between tables: deterministic matching, LLM matching, voting."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, Sequence

from . import prompts
from .errors import EmptyVoteSet, UniverseMismatch
from .gateway import RETRY_ATTEMPT_OFFSET, CompletionRequest, Gateway  # noqa: F401 - offset re-exported
from .similarity import normalized_edit_distance, trigrams
from .tables import InfoTable, language_name, normalize_key, parse_table, serialize_table

SIMILARITY_THRESHOLD = 0.5
REANCHOR_MAX_DISTANCE = 0.2
# Distinct keys whose matching features are kept for the life of the process.
KEY_FEATURES_CACHED = 2048


@dataclass(frozen=True)
class Alignment:
    """Two key universes and the atomic edges asserted between them.

    Keys are normalized, and alignments with equal universes and edges are
    equal. The edges may be a strict subset of a multi-alignment group's
    cartesian product (majority voting must not invent correspondences); the
    groups and the unaligned leftovers are derived from them.
    """

    left_universe: frozenset[str]
    right_universe: frozenset[str]
    edges: frozenset[tuple[str, str]]

    @staticmethod
    def build(
        left_universe: Iterable[str],
        right_universe: Iterable[str],
        edges: Iterable[tuple[str, str]],
    ) -> Alignment:
        """Alignment of frozen copies of its inputs; each edge joins a key of each universe."""
        alignment = Alignment(frozenset(left_universe), frozenset(right_universe), frozenset(edges))
        for l, r in alignment.edges:
            if l not in alignment.left_universe or r not in alignment.right_universe:
                raise UniverseMismatch(f"edge ({l!r}, {r!r}) outside the key universes")
        return alignment

    @property
    def unaligned_left(self) -> frozenset[str]:
        return self.left_universe - {l for l, _ in self.edges}

    @property
    def unaligned_right(self) -> frozenset[str]:
        return self.right_universe - {r for _, r in self.edges}

    @cached_property
    def pairs(self) -> tuple[tuple[tuple[str, ...], tuple[str, ...]], ...]:
        """The maximal multi-alignments, (sorted left keys, sorted right keys)
        in sorted order: the connected components of the bipartite edge graph."""
        parent: dict[tuple[str, str], tuple[str, str]] = {}

        def find(node: tuple[str, str]) -> tuple[str, str]:
            parent.setdefault(node, node)
            while parent[node] != node:
                parent[node] = parent[parent[node]]
                node = parent[node]
            return node

        for l, r in self.edges:
            parent[find(("L", l))] = find(("R", r))

        groups: dict[tuple[str, str], tuple[set[str], set[str]]] = {}
        for l, r in self.edges:
            left_keys, right_keys = groups.setdefault(find(("L", l)), (set(), set()))
            left_keys.add(l)
            right_keys.add(r)
        return tuple(sorted((tuple(sorted(ls)), tuple(sorted(rs))) for ls, rs in groups.values()))


@dataclass(frozen=True)
class AlignmentScore:
    precision: float
    recall: float
    f1: float


@lru_cache(maxsize=KEY_FEATURES_CACHED)
def _key_features(key: str) -> tuple[str, frozenset[str], frozenset[str]]:
    """A key's normalized form, token set and trigram set."""
    norm = normalize_key(key)
    return norm, frozenset(norm.split()), trigrams(norm)


def _keys_by_norm(keys: Iterable[str]) -> dict[str, list[str]]:
    """Distinct original spellings grouped under their normalized form."""
    groups: dict[str, list[str]] = {}
    for key in dict.fromkeys(keys):
        groups.setdefault(_key_features(key)[0], []).append(key)
    return groups


def _overlaps(features: Iterable[str], index: dict[str, list[str]]) -> dict[str, int]:
    """Per indexed key, how many of the features it shares."""
    counts: dict[str, int] = {}
    for feature in features:
        for other in index.get(feature, ()):
            counts[other] = counts.get(other, 0) + 1
    return counts


def greedy_key_matches(left_keys: Sequence[str], right_keys: Sequence[str]) -> list[tuple[str, str]]:
    """Greedy one-to-one best matches over original key spellings.

    A pair scores 1.0 when the normalized keys are equal; otherwise the Dice
    coefficient of their token sets, or of their character trigrams when
    they share no token. A pair sharing neither scores 0, so the right keys
    are indexed by normalized form, token and trigram, and each left key is
    scored from overlap counts against only the keys its postings reach.
    Candidates below the similarity threshold stay unmatched. Ties break on
    score, then lexicographic key order, so the result is deterministic.
    """
    right = _keys_by_norm(right_keys)
    token_index: dict[str, list[str]] = {}
    gram_index: dict[str, list[str]] = {}
    sizes: dict[str, tuple[int, int]] = {}
    for norm, spellings in right.items():
        _, tokens, grams = _key_features(spellings[0])
        sizes[norm] = (len(tokens), len(grams))
        for token in tokens:
            token_index.setdefault(token, []).append(norm)
        for gram in grams:
            gram_index.setdefault(gram, []).append(norm)

    scored = []
    for norm, lefts in _keys_by_norm(left_keys).items():
        _, tokens, grams = _key_features(lefts[0])
        # Equal normalized forms have equal token sets: their Dice is exactly 1.0.
        scores = {
            other: 2.0 * n / (len(tokens) + sizes[other][0])
            for other, n in _overlaps(tokens, token_index).items()
        }
        for other, n in _overlaps(grams, gram_index).items():
            if other not in scores:
                scores[other] = 2.0 * n / (len(grams) + sizes[other][1])
        for other, score in scores.items():
            if score >= SIMILARITY_THRESHOLD:
                scored.extend((-score, l, r) for l in lefts for r in right[other])
    scored.sort()
    taken_left: set[str] = set()
    taken_right: set[str] = set()
    matches: list[tuple[str, str]] = []
    for _, l, r in scored:
        if l in taken_left or r in taken_right:
            continue
        taken_left.add(l)
        taken_right.add(r)
        matches.append((l, r))
    return matches


def align_deterministic(a: InfoTable, b: InfoTable) -> Alignment:
    """String-similarity alignment of two same-language tables."""
    matches = greedy_key_matches(a.keys(), b.keys())
    edges = [(_key_features(l)[0], _key_features(r)[0]) for l, r in matches]
    return Alignment.build(a.normalized_keys(), b.normalized_keys(), edges)


def _reanchor(echoed: str, table: InfoTable, diagnostics: list[str] | None) -> str | None:
    """Map a model-echoed key onto a real table key, or drop it."""
    norm = normalize_key(echoed)
    real = table.normalized_keys()
    if norm in real:
        return norm
    distance, best = min(
        ((normalized_edit_distance(norm, key), key) for key in real),
        default=(None, None),
    )
    if best is not None and distance <= REANCHOR_MAX_DISTANCE:
        if diagnostics is not None:
            diagnostics.append(f"re-anchored {echoed!r} -> {best!r}")
        return best
    if diagnostics is not None:
        diagnostics.append(f"dropped unanchorable key {echoed!r}")
    return None


def align_llm(
    a: InfoTable,
    b: InfoTable,
    model_id: str,
    gateway: Gateway,
    *,
    attempt: int = 0,
    diagnostics: list[str] | None = None,
) -> Alignment:
    """Prompted alignment of table A against table G(=b), with fuzzy re-anchoring."""
    if a.language == b.language:
        language = language_name(a.language)
    else:
        language = f"{language_name(a.language)} / {language_name(b.language)}"
    prompt = prompts.fill(
        prompts.ALIGN,
        language=language,
        table_a=serialize_table(a),
        table_g=serialize_table(b),
    )
    request = CompletionRequest(prompt=prompt, model_id=model_id, tag="align")
    pairs, _ = gateway.complete_parsed(request, parse_table, attempt=attempt)

    edges: list[tuple[str, str]] = []
    for row in pairs:
        left = _reanchor(row.key, a, diagnostics)
        right = _reanchor(row.value, b, diagnostics)
        if left is not None and right is not None:
            edges.append((left, right))
    return Alignment.build(a.normalized_keys(), b.normalized_keys(), edges)


def majority_vote(votes: Sequence[Alignment]) -> Alignment:
    """Edges kept iff they appear in strictly more than half the votes.

    Votes must share both key universes. Multi-alignments are exploded into
    atomic edges for counting and regrouped afterwards; counting makes the
    result independent of vote order.
    """
    if not votes:
        raise EmptyVoteSet("majority voting needs at least one vote")
    left = votes[0].left_universe
    right = votes[0].right_universe
    for vote in votes[1:]:
        if vote.left_universe != left or vote.right_universe != right:
            raise UniverseMismatch("votes cover different key universes")
    counts: dict[tuple[str, str], int] = {}
    for vote in votes:
        for edge in vote.edges:
            counts[edge] = counts.get(edge, 0) + 1
    majority = [edge for edge, n in counts.items() if 2 * n > len(votes)]
    return Alignment.build(left, right, majority)


def multi_vote_align(
    a: InfoTable,
    b: InfoTable,
    models: Sequence[str],
    rounds: int,
    gateway: Gateway,
) -> Alignment:
    """Per-model majority over repeated runs, then a final majority that also
    includes the deterministic aligner's vote. The models x rounds runs are
    independent and overlap through `gateway.map`."""
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    jobs = [(model_id, r) for model_id in models for r in range(rounds)]
    runs = gateway.map(lambda job: align_llm(a, b, job[0], gateway, attempt=job[1]), jobs)
    votes = [align_deterministic(a, b)]
    votes += [majority_vote(runs[i : i + rounds]) for i in range(0, len(runs), rounds)]
    return majority_vote(votes)


def score_alignment(pred: Alignment, gold: Alignment) -> AlignmentScore:
    """Edge-level precision/recall/F1; an empty denominator scores 1 by convention."""
    pred_edges = pred.edges
    gold_edges = gold.edges
    hits = len(pred_edges & gold_edges)
    precision = hits / len(pred_edges) if pred_edges else 1.0
    recall = hits / len(gold_edges) if gold_edges else 1.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return AlignmentScore(precision, recall, f1)


def alignment_to_doc(alignment: Alignment) -> dict:
    """JSON-able document: pair list per the alignment output schema, explicit
    unaligned sections, and the atomic edges backing the groups."""
    return {
        "pairs": [[list(left), list(right)] for left, right in alignment.pairs],
        "edges": sorted(list(edge) for edge in alignment.edges),
        "unaligned_left": sorted(alignment.unaligned_left),
        "unaligned_right": sorted(alignment.unaligned_right),
    }


def alignment_from_doc(doc: dict) -> Alignment:
    left_keys: set[str] = set(doc.get("unaligned_left", ()))
    right_keys: set[str] = set(doc.get("unaligned_right", ()))
    for left, right in doc["pairs"]:
        left_keys.update(left)
        right_keys.update(right)
    if "edges" in doc:
        edges = [(l, r) for l, r in doc["edges"]]
    else:
        edges = [(l, r) for left, right in doc["pairs"] for l in left for r in right]
    return Alignment.build(left_keys, right_keys, edges)
