"""Unit tests for name/attribute normalisation."""

from repro.textproc.normalize import (
    is_probable_misspelling,
    normalize_attribute,
    normalize_name,
    singularize,
)


class TestNormalizeName:
    def test_lowercase_and_trim(self):
        assert normalize_name("  Birth Place  ") == "birth place"

    def test_collapse_whitespace(self):
        assert normalize_name("a   b\tc") == "a b c"

    def test_strip_edge_punctuation(self):
        assert normalize_name("Capital:") == "capital"
        assert normalize_name("(note)") == "note"

    def test_internal_punctuation_kept(self):
        assert normalize_name("check-in time") == "check-in time"


class TestSingularize:
    def test_regular_plural(self):
        assert singularize("pages") == "page"

    def test_ies_plural(self):
        assert singularize("countries") == "country"

    def test_es_plural(self):
        assert singularize("churches") == "church"

    def test_irregular(self):
        assert singularize("children") == "child"
        assert singularize("people") == "person"

    def test_invariant(self):
        assert singularize("series") == "series"

    def test_ss_not_stripped(self):
        assert singularize("address") == "address"

    def test_us_not_stripped(self):
        assert singularize("campus") == "campus"


class TestNormalizeAttribute:
    def test_underscores_folded(self):
        assert normalize_attribute("publication_date") == "publication date"

    def test_hyphens_folded(self):
        assert normalize_attribute("birth-place") == "birth place"

    def test_final_word_singularised(self):
        assert normalize_attribute("Official Languages") == "official language"

    def test_colon_stripped(self):
        assert normalize_attribute("Capital:") == "capital"

    def test_empty(self):
        assert normalize_attribute("") == ""


class TestMisspellingDetection:
    def test_close_typo_detected(self):
        assert is_probable_misspelling("capital", "capitol")

    def test_identical_not_misspelling(self):
        assert not is_probable_misspelling("capital", "capital")

    def test_distant_words_rejected(self):
        assert not is_probable_misspelling("capital", "population")

    def test_two_edits_on_long_words(self):
        assert is_probable_misspelling("publication", "publicaiton")

    def test_short_words_strict(self):
        # 1 edit allowed at length <= 6
        assert is_probable_misspelling("price", "pricce")
        assert not is_probable_misspelling("cat", "cut ox")

    def test_empty_rejected(self):
        assert not is_probable_misspelling("", "x")
