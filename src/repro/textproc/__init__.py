"""Text substrate: tokenization, sentences, similarity, normalisation,
and the lexical-pattern engine."""

from repro.textproc.memo import clear_similarity_caches, publish_cache_metrics
from repro.textproc.normalize import (
    canonical_key,
    is_probable_misspelling,
    normalize_attribute,
    normalize_name,
    singularize,
)
from repro.textproc.patterns import (
    LexicalPattern,
    PatternMatch,
    induce_pattern,
    match_any,
)
from repro.textproc.sentences import split_sentences
from repro.textproc.similarity import (
    jaro,
    jaro_winkler,
    levenshtein,
    levenshtein_similarity,
    name_similarity,
    token_jaccard,
    token_set_jaccard,
)
from repro.textproc.tokenize import detokenize, normalize_token, tokenize_words

__all__ = [
    "LexicalPattern",
    "PatternMatch",
    "canonical_key",
    "clear_similarity_caches",
    "detokenize",
    "induce_pattern",
    "is_probable_misspelling",
    "jaro",
    "jaro_winkler",
    "levenshtein",
    "levenshtein_similarity",
    "match_any",
    "name_similarity",
    "normalize_attribute",
    "normalize_name",
    "normalize_token",
    "publish_cache_metrics",
    "singularize",
    "split_sentences",
    "token_jaccard",
    "token_set_jaccard",
    "tokenize_words",
]
