"""Property-based tests for normalisation."""

from hypothesis import given
from hypothesis import strategies as st

from repro.textproc.normalize import (
    normalize_attribute,
    normalize_name,
    singularize,
)

words = st.text(
    alphabet=st.characters(min_codepoint=97, max_codepoint=122),
    min_size=1,
    max_size=12,
)
phrases = st.lists(words, min_size=1, max_size=4).map(" ".join)
messy = st.text(max_size=40)


class TestNormalizeName:
    @given(messy)
    def test_idempotent(self, text):
        once = normalize_name(text)
        assert normalize_name(once) == once

    @given(messy)
    def test_lowercase(self, text):
        assert normalize_name(text) == normalize_name(text).lower()

    @given(messy)
    def test_no_leading_trailing_space(self, text):
        result = normalize_name(text)
        assert result == result.strip()


class TestNormalizeAttribute:
    @given(phrases)
    def test_idempotent(self, phrase):
        once = normalize_attribute(phrase)
        assert normalize_attribute(once) == once

    @given(phrases)
    def test_case_insensitive(self, phrase):
        assert normalize_attribute(phrase.upper()) == normalize_attribute(
            phrase
        )

    @given(phrases)
    def test_separator_insensitive(self, phrase):
        underscored = phrase.replace(" ", "_")
        assert normalize_attribute(underscored) == normalize_attribute(phrase)


class TestSingularize:
    @given(words)
    def test_idempotent_modulo_rules(self, word):
        once = singularize(word)
        assert singularize(once) == singularize(once)

    @given(words)
    def test_lowercase_output(self, word):
        assert singularize(word) == singularize(word).lower()
