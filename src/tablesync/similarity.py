"""String similarity primitives for key matching."""

from __future__ import annotations

from typing import NamedTuple

from .tables import normalize_key


def _dice(a: frozenset[str], b: frozenset[str]) -> float:
    """Dice coefficient of two sets; 0 when either is empty."""
    if not a or not b:
        return 0.0
    return 2.0 * len(a & b) / (len(a) + len(b))


def token_dice(a: str, b: str) -> float:
    """Dice coefficient over whitespace-token sets."""
    return _dice(frozenset(a.split()), frozenset(b.split()))


def trigrams(text: str) -> frozenset[str]:
    if len(text) < 3:
        return frozenset((text,)) if text else frozenset()
    return frozenset(text[i : i + 3] for i in range(len(text) - 2))


def trigram_dice(a: str, b: str) -> float:
    return _dice(trigrams(a), trigrams(b))


class KeyFeatures(NamedTuple):
    """A key's normalized form with its token and trigram sets, derived once
    so that scoring a pair only intersects sets."""

    norm: str
    tokens: frozenset[str]
    grams: frozenset[str]


def key_features(key: str) -> KeyFeatures:
    norm = normalize_key(key)
    return KeyFeatures(norm, frozenset(norm.split()), trigrams(norm))


def feature_similarity(a: KeyFeatures, b: KeyFeatures) -> float:
    """Token-set Dice over normalized keys, character-trigram backoff when disjoint."""
    if a.norm == b.norm:
        return 1.0
    score = _dice(a.tokens, b.tokens)
    return score if score > 0.0 else _dice(a.grams, b.grams)


def key_similarity(a: str, b: str) -> float:
    return feature_similarity(key_features(a), key_features(b))


def levenshtein(a: str, b: str) -> int:
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return len(a)
    previous = list(range(len(b) + 1))
    for i, ca in enumerate(a):
        current = [i + 1]
        for j, cb in enumerate(b):
            current.append(min(previous[j + 1] + 1, current[j] + 1, previous[j] + (ca != cb)))
        previous = current
    return previous[-1]


def normalized_edit_distance(a: str, b: str) -> float:
    longest = max(len(a), len(b))
    if longest == 0:
        return 0.0
    return levenshtein(a, b) / longest
