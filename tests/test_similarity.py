import pytest
from hypothesis import given
from hypothesis import strategies as st

from tablesync.alignment import greedy_key_matches
from tablesync.similarity import levenshtein, normalized_edit_distance, trigrams
from tablesync.tables import normalize_key


# Pairwise key similarity, the rule `greedy_key_matches` implements through
# its token and trigram indexes; kept here as the reference the matcher is
# compared against (see test_alignment.pairwise_reference).


def _dice(a: frozenset[str], b: frozenset[str]) -> float:
    """Dice coefficient of two sets; 0 when either is empty."""
    if not a or not b:
        return 0.0
    return 2.0 * len(a & b) / (len(a) + len(b))


def token_dice(a: str, b: str) -> float:
    """Dice coefficient over whitespace-token sets."""
    return _dice(frozenset(a.split()), frozenset(b.split()))


def trigram_dice(a: str, b: str) -> float:
    return _dice(trigrams(a), trigrams(b))


def key_similarity(a: str, b: str) -> float:
    """Token-set Dice over normalized keys, character-trigram backoff when disjoint."""
    na, nb = normalize_key(a), normalize_key(b)
    if na == nb:
        return 1.0
    score = token_dice(na, nb)
    return score if score > 0.0 else trigram_dice(na, nb)


def test_token_dice_hand_computed():
    # {birth, date} vs {date, of, birth}: 2 * 2 / (2 + 3)
    assert token_dice("birth date", "date of birth") == pytest.approx(0.8)
    assert greedy_key_matches(["birth date"], ["date of birth"]) == [("birth date", "date of birth")]


def test_token_dice_disjoint():
    assert token_dice("born", "birth date") == 0.0


def test_trigram_backoff_used_when_tokens_disjoint():
    # "birthdate" and "birth date" share no tokens but plenty of trigrams.
    assert key_similarity("birthdate", "birth-date") > 0.5
    assert greedy_key_matches(["birthdate"], ["birth-date"]) == [("birthdate", "birth-date")]


def test_identical_keys_score_one():
    assert key_similarity("Birth Date", " birth  date: ") == 1.0
    # An exact match outranks a partial one for the same right key.
    left = ["Birth", "Birth Date"]
    assert greedy_key_matches(left, [" birth  date: "]) == [("Birth Date", " birth  date: ")]


def test_trigram_dice_short_strings():
    assert trigram_dice("ab", "ab") == 1.0
    assert trigram_dice("ab", "cd") == 0.0


def test_levenshtein():
    assert levenshtein("kitten", "sitting") == 3
    assert levenshtein("", "abc") == 3
    assert levenshtein("same", "same") == 0


def test_normalized_edit_distance():
    assert normalized_edit_distance("", "") == 0.0
    assert normalized_edit_distance("abcd", "abce") == pytest.approx(0.25)


def reference_key_similarity(a: str, b: str) -> float:
    na, nb = normalize_key(a), normalize_key(b)
    if na == nb:
        return 1.0
    ta, tb = set(na.split()), set(nb.split())
    if ta and tb and ta & tb:
        return 2.0 * len(ta & tb) / (len(ta) + len(tb))
    ga = {na[i : i + 3] for i in range(len(na) - 2)} or {na}
    gb = {nb[i : i + 3] for i in range(len(nb) - 2)} or {nb}
    return 2.0 * len(ga & gb) / (len(ga) + len(gb))


similarity_keys = st.text("ab c-:.", min_size=1, max_size=10).filter(str.strip)


@given(similarity_keys, similarity_keys)
def test_key_similarity_equals_reference_bit_for_bit(a, b):
    assert key_similarity(a, b) == reference_key_similarity(a, b)
