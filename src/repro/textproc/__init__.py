"""Text substrate: tokenization, sentences, similarity, normalisation,
and the lexical-pattern engine — the token- and set-level forms the
extractors and the entity layer call (``match_tokens`` on a tokenized
sequence, ``token_set_jaccard`` on precomputed token sets)."""

from repro.textproc.memo import clear_similarity_caches, publish_cache_metrics
from repro.textproc.normalize import (
    is_probable_misspelling,
    normalize_attribute,
    normalize_name,
    singularize,
)
from repro.textproc.patterns import LexicalPattern, PatternMatch, induce_pattern
from repro.textproc.sentences import split_sentences
from repro.textproc.similarity import (
    jaro,
    jaro_winkler,
    levenshtein,
    token_set_jaccard,
)
from repro.textproc.tokenize import detokenize, tokenize_words

__all__ = [
    "LexicalPattern",
    "PatternMatch",
    "clear_similarity_caches",
    "detokenize",
    "induce_pattern",
    "is_probable_misspelling",
    "jaro",
    "jaro_winkler",
    "levenshtein",
    "normalize_attribute",
    "normalize_name",
    "publish_cache_metrics",
    "singularize",
    "split_sentences",
    "token_set_jaccard",
    "tokenize_words",
]
