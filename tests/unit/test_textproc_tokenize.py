"""Unit tests for word tokenization."""

from repro.textproc.tokenize import detokenize, tokenize_words


class TestTokenizeWords:
    def test_simple_split(self):
        assert tokenize_words("the quick fox") == ["the", "quick", "fox"]

    def test_trailing_punctuation_separated(self):
        assert tokenize_words("Hello, world!") == ["Hello", ",", "world", "!"]

    def test_question_mark(self):
        assert tokenize_words("why?") == ["why", "?"]

    def test_possessive_split(self):
        assert tokenize_words("France's capital") == [
            "France", "'s", "capital",
        ]

    def test_plural_possessive(self):
        assert tokenize_words("the kings' crown") == [
            "the", "kings", "'", "crown",
        ]

    def test_parentheses(self):
        assert tokenize_words("(see below)") == ["(", "see", "below", ")"]

    def test_hyphen_kept(self):
        assert tokenize_words("well-known fact") == ["well-known", "fact"]

    def test_numbers_kept(self):
        assert tokenize_words("pop. 67,000,000") == ["pop", ".", "67,000,000"]

    def test_empty(self):
        assert tokenize_words("") == []

    def test_only_punctuation(self):
        assert tokenize_words("...") == [".", ".", "."]


class TestDetokenize:
    def test_punctuation_attaches(self):
        assert detokenize(["Hello", ",", "world", "!"]) == "Hello, world!"

    def test_possessive_attaches(self):
        assert detokenize(["France", "'s", "capital"]) == "France's capital"

    def test_roundtrip_words(self):
        text = "plain words only"
        assert detokenize(tokenize_words(text)) == text

    def test_empty(self):
        assert detokenize([]) == ""
