"""Unit tests for the lexical-pattern engine."""

import pytest

from repro.errors import ParseError
from repro.textproc.patterns import LexicalPattern, induce_pattern
from repro.textproc.tokenize import tokenize_words


def match_text(pattern, text, *, anchored=False):
    """Match ``text`` the way the extractors do: tokenized first."""
    return pattern.match_tokens(tokenize_words(text), anchored=anchored)


class TestCompilation:
    def test_duplicate_slots_rejected(self):
        with pytest.raises(ParseError):
            LexicalPattern("<A> of <A>")

    def test_empty_pattern_rejected(self):
        with pytest.raises(ParseError):
            LexicalPattern("   ")

    def test_empty_slot_rejected(self):
        with pytest.raises(ParseError):
            LexicalPattern("<> of x")

    def test_bad_max_slot_tokens(self):
        with pytest.raises(ParseError):
            LexicalPattern("<A>", max_slot_tokens=0)

    def test_slot_names_recorded(self):
        pattern = LexicalPattern("the <A> of <E>")
        assert pattern.slot_names == ("A", "E")


class TestMatching:
    def test_literal_case_insensitive(self):
        pattern = LexicalPattern("the <A> of <E>")
        matches = match_text(pattern, "The capital of France")
        assert len(matches) == 1
        assert matches[0].text("A") == "capital"
        assert matches[0].text("E") == "France"

    def test_alternation(self):
        pattern = LexicalPattern("what|who is <E>")
        assert match_text(pattern, "Who is Alice")
        assert match_text(pattern, "What is this")
        assert not match_text(pattern, "Where is this")

    def test_optional_group_present(self):
        # Anchored matching forces the slot to consume the full tail,
        # so the optional determiner is taken by the group, not by E.
        pattern = LexicalPattern("the <A> of [the|a|an] <E>")
        matches = match_text(
            pattern, "the capital of the United States", anchored=True
        )
        assert matches[0].text("E") == "United States"

    def test_optional_group_absent(self):
        pattern = LexicalPattern("the <A> of [the|a|an] <E>")
        matches = match_text(pattern, "the capital of France")
        assert matches[0].text("E") == "France"

    def test_multi_token_slot(self):
        pattern = LexicalPattern("the <A> of <E>")
        matches = match_text(pattern, "the head of state of Atlantis")
        assert matches  # A may span "head" with E spanning rest, etc.

    def test_slot_cannot_cross_punctuation(self):
        pattern = LexicalPattern("the <A> of <E>")
        matches = match_text(pattern, "the end. of story")
        assert not matches

    def test_anchored_requires_full_consumption(self):
        pattern = LexicalPattern("<E> 's <A>")
        assert match_text(pattern, "France's capital", anchored=True)
        # Trailing punctuation cannot be absorbed by a slot, so the
        # anchored match fails on un-stripped queries.
        assert not match_text(pattern, "France's capital?", anchored=True)

    def test_unanchored_scans(self):
        pattern = LexicalPattern("<E> 's <A>")
        matches = match_text(pattern, "see France's capital now")
        assert matches

    def test_validator_forces_backtracking(self):
        entities = {"united states"}
        pattern = LexicalPattern(
            "the <A> of <E>",
            validators={"E": lambda toks: " ".join(toks).lower() in entities},
        )
        matches = match_text(pattern, "the capital of united states")
        assert matches[0].text("E") == "united states"

    def test_validator_rejects_all(self):
        pattern = LexicalPattern(
            "the <A> of <E>", validators={"E": lambda toks: False}
        )
        assert not match_text(pattern, "the capital of France")

    def test_multiple_matches(self):
        pattern = LexicalPattern("x <A> y")
        matches = match_text(pattern, "x a y and x b y")
        assert [m.text("A") for m in matches] == ["a", "b"]

    def test_max_slot_tokens_enforced(self):
        pattern = LexicalPattern("the <A> end", max_slot_tokens=2)
        assert match_text(pattern, "the a b end")
        assert not match_text(pattern, "the a b c end")

    def test_empty_tokens(self):
        pattern = LexicalPattern("<A>")
        assert pattern.match_tokens([]) == []


class TestInducePattern:
    def test_basic_induction(self):
        tokens = tokenize_words("The capital of France is Paris.")
        pattern = induce_pattern(
            tokens, {"A": (1, 2), "E": (3, 4), "V": (5, 6)}
        )
        assert pattern is not None
        assert pattern.source == "the <A> of <E> is <V> ."
        matches = match_text(pattern, "the currency of Japan is Yen .")
        assert matches and matches[0].text("V") == "Yen"

    def test_overlapping_spans_rejected(self):
        tokens = tokenize_words("a b c d")
        assert induce_pattern(tokens, {"X": (0, 2), "Y": (1, 3)}) is None

    def test_out_of_range_rejected(self):
        tokens = tokenize_words("a b")
        assert induce_pattern(tokens, {"X": (0, 5)}) is None

    def test_empty_span_rejected(self):
        tokens = tokenize_words("a b c")
        assert induce_pattern(tokens, {"X": (1, 1)}) is None

    def test_no_slots_rejected(self):
        assert induce_pattern(tokenize_words("a b"), {}) is None
