"""Unit tests for string similarity measures."""

import pytest

from repro.textproc.similarity import (
    jaro,
    jaro_winkler,
    levenshtein,
    token_set_jaccard,
)


class TestLevenshtein:
    def test_identical(self):
        assert levenshtein("abc", "abc") == 0

    def test_empty_cases(self):
        assert levenshtein("", "abc") == 3
        assert levenshtein("abc", "") == 3
        assert levenshtein("", "") == 0

    def test_substitution(self):
        assert levenshtein("kitten", "sitten") == 1

    def test_classic(self):
        assert levenshtein("kitten", "sitting") == 3

    def test_limit_early_exit(self):
        assert levenshtein("aaaa", "bbbb", limit=1) > 1

    def test_limit_length_gap(self):
        assert levenshtein("a", "abcdef", limit=2) > 2

    def test_within_limit_exact(self):
        assert levenshtein("abcd", "abed", limit=2) == 1


class TestJaro:
    def test_identical(self):
        assert jaro("martha", "martha") == 1.0

    def test_empty(self):
        assert jaro("", "abc") == 0.0

    def test_known_value(self):
        assert jaro("martha", "marhta") == pytest.approx(0.9444, abs=1e-3)

    def test_no_match(self):
        assert jaro("abc", "xyz") == 0.0


class TestJaroWinkler:
    def test_prefix_boost(self):
        assert jaro_winkler("prefixed", "prefixes") > jaro(
            "prefixed", "prefixes"
        )

    def test_identical(self):
        assert jaro_winkler("same", "same") == 1.0

    def test_bounded(self):
        assert jaro_winkler("dwayne", "duane") <= 1.0


class TestTokenJaccard:
    def test_identical(self):
        assert token_set_jaccard({"a", "b", "c"}, {"a", "b", "c"}) == 1.0

    def test_reordered(self):
        assert token_set_jaccard(
            set("university of adelaide".split()),
            set("adelaide of university".split()),
        ) == 1.0

    def test_partial(self):
        assert token_set_jaccard({"a", "b"}, {"b", "c"}) == pytest.approx(1 / 3)

    def test_both_empty(self):
        assert token_set_jaccard(set(), set()) == 1.0

    def test_one_empty(self):
        assert token_set_jaccard({"a"}, set()) == 0.0
