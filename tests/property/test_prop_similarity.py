"""Property-based tests for string similarity measures."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.textproc.similarity import (
    jaro,
    jaro_winkler,
    levenshtein,
    token_set_jaccard,
)

words = st.text(
    alphabet=st.characters(min_codepoint=97, max_codepoint=122),
    min_size=0,
    max_size=12,
)


class TestLevenshteinProperties:
    @given(words, words)
    def test_symmetry(self, left, right):
        assert levenshtein(left, right) == levenshtein(right, left)

    @given(words)
    def test_identity(self, word):
        assert levenshtein(word, word) == 0

    @given(words, words)
    def test_bounded_by_longer_length(self, left, right):
        assert levenshtein(left, right) <= max(len(left), len(right))

    @given(words, words)
    def test_at_least_length_difference(self, left, right):
        assert levenshtein(left, right) >= abs(len(left) - len(right))

    @given(words, words, words)
    @settings(max_examples=50)
    def test_triangle_inequality(self, a, b, c):
        assert levenshtein(a, c) <= levenshtein(a, b) + levenshtein(b, c)

    @given(words, words)
    def test_limit_consistent_with_exact(self, left, right):
        exact = levenshtein(left, right)
        limited = levenshtein(left, right, limit=3)
        if exact <= 3:
            assert limited == exact
        else:
            assert limited > 3


class TestSimilarityRanges:
    @given(words, words)
    def test_jaro_in_unit_interval(self, left, right):
        assert 0.0 <= jaro(left, right) <= 1.0

    @given(words, words)
    def test_jaro_winkler_in_unit_interval(self, left, right):
        assert 0.0 <= jaro_winkler(left, right) <= 1.0

    @given(words, words)
    def test_jaro_winkler_at_least_jaro(self, left, right):
        assert jaro_winkler(left, right) >= jaro(left, right) - 1e-12

    @given(words, words)
    def test_jaro_symmetry(self, left, right):
        assert jaro(left, right) == jaro(right, left)

    @given(words)
    def test_identity_scores_one(self, word):
        if word:
            assert jaro(word, word) == 1.0
            assert jaro_winkler(word, word) == 1.0


class TestTokenJaccard:
    token_sets = st.lists(words.filter(bool), min_size=0, max_size=5).map(set)

    @given(token_sets, token_sets)
    def test_symmetry(self, left, right):
        assert token_set_jaccard(left, right) == token_set_jaccard(right, left)

    @given(token_sets)
    def test_identity(self, tokens):
        assert token_set_jaccard(tokens, tokens) == 1.0

    @given(token_sets, token_sets)
    def test_unit_interval(self, left, right):
        assert 0.0 <= token_set_jaccard(left, right) <= 1.0
