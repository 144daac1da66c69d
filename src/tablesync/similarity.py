"""String similarity primitives for key matching."""

from __future__ import annotations


def trigrams(text: str) -> frozenset[str]:
    if len(text) < 3:
        return frozenset((text,)) if text else frozenset()
    return frozenset(text[i : i + 3] for i in range(len(text) - 2))


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
