"""Property-based tests for the lexical-pattern engine."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.textproc.patterns import LexicalPattern, induce_pattern
from repro.textproc.tokenize import detokenize, tokenize_words

words = st.text(
    alphabet=st.characters(min_codepoint=97, max_codepoint=122),
    min_size=1,
    max_size=8,
)
token_lists = st.lists(words, min_size=1, max_size=10)


class TestMatchingInvariants:
    @given(token_lists)
    @settings(max_examples=80)
    def test_single_slot_matches_any_single_token(self, tokens):
        pattern = LexicalPattern("<X>", max_slot_tokens=1)
        matches = pattern.match_tokens(tokens)
        assert len(matches) == len(tokens)
        assert [m.text("X") for m in matches] == tokens

    @given(token_lists)
    @settings(max_examples=80)
    def test_matches_are_ordered_and_disjoint(self, tokens):
        pattern = LexicalPattern("<X>", max_slot_tokens=2)
        matches = pattern.match_tokens(tokens)
        for before, after in zip(matches, matches[1:]):
            assert before.end <= after.start

    @given(token_lists, words)
    @settings(max_examples=80)
    def test_literal_matches_every_occurrence(self, tokens, needle):
        pattern = LexicalPattern(needle)
        matches = pattern.match_tokens(tokens)
        assert len(matches) == sum(
            1 for token in tokens if token.lower() == needle
        )

    @given(token_lists)
    @settings(max_examples=80)
    def test_bindings_within_span(self, tokens):
        pattern = LexicalPattern("<X> <Y>", max_slot_tokens=2)
        for match in pattern.match_tokens(tokens):
            bound = match.bindings["X"] + match.bindings["Y"]
            assert bound == list(tokens[match.start : match.end])


class TestInductionRoundTrip:
    @given(st.lists(words, min_size=3, max_size=8))
    @settings(max_examples=80)
    def test_induced_pattern_matches_source_sentence(self, tokens):
        # Abstract the middle token into a slot; the pattern must match
        # the original sentence and bind that token.
        middle = len(tokens) // 2
        pattern = induce_pattern(tokens, {"V": (middle, middle + 1)})
        assert pattern is not None
        matches = pattern.match_tokens(tokens, anchored=True)
        assert matches
        assert matches[0].bindings["V"] == [tokens[middle]]


class TestTokenizeDetokenize:
    @given(st.lists(words, min_size=1, max_size=8).map(" ".join))
    @settings(max_examples=80)
    def test_roundtrip_plain_words(self, text):
        assert detokenize(tokenize_words(text)) == text


# ----------------------------------------------------------------------
# The required-word prefilter answers exactly what the full scan does.

_VOCAB = ["the", "of", "is", "a", "x", "y", "z", "'s"]
_PUNCT = [".", ","]

_cased = st.sampled_from(_VOCAB).flatmap(
    lambda word: st.sampled_from([word, word.upper(), word.capitalize()])
)
_prefilter_tokens = st.lists(
    st.one_of(_cased, _cased, st.sampled_from(_PUNCT)), max_size=9
)

_alternation = st.lists(
    st.sampled_from(_VOCAB), min_size=1, max_size=3, unique=True
).map("|".join)
_chunk = st.one_of(
    _alternation,
    _alternation.map(lambda words: f"[{words}]"),
    st.just("<SLOT>"),
)


@st.composite
def _pattern_sources(draw):
    chunks = draw(st.lists(_chunk, min_size=1, max_size=5))
    slot = 0
    for i, chunk in enumerate(chunks):
        if chunk == "<SLOT>":
            chunks[i] = f"<S{slot}>"
            slot += 1
    return " ".join(chunks)


def _no_x(candidate):
    return "x" not in [token.lower() for token in candidate]


class TestPrefilterEquivalence:
    @given(
        _pattern_sources(),
        _prefilter_tokens,
        st.booleans(),
        st.integers(min_value=1, max_value=3),
        st.booleans(),
    )
    @settings(max_examples=600, deadline=None)
    def test_match_tokens_equals_prefilter_free_scan(
        self, source, tokens, anchored, max_slot_tokens, validated
    ):
        from tests.oracles.pattern_matcher import match_tokens_reference

        validators = {"S0": _no_x} if validated else None
        pattern = LexicalPattern(
            source, max_slot_tokens=max_slot_tokens, validators=validators
        )
        assert pattern.match_tokens(
            tokens, anchored=anchored
        ) == match_tokens_reference(pattern, tokens, anchored=anchored)

    def test_missing_literal_skips_the_scan(self, monkeypatch):
        """A sentence without one of the pattern's literal words never
        reaches the backtracking matcher."""
        calls = []
        real = LexicalPattern._match_at
        monkeypatch.setattr(
            LexicalPattern,
            "_match_at",
            lambda self, *args: calls.append(args) or real(self, *args),
        )
        pattern = LexicalPattern("the <A> of [the|a] <E> is|was <V> .")
        assert pattern.match_tokens("the x y z is a .".split()) == []
        assert pattern.match_tokens([]) == []
        assert calls == []
        assert pattern.match_tokens("The x OF a y Was z .".split())
        assert calls


class TestTokenizerFastPath:
    @given(
        st.lists(
            st.text(alphabet="aBs1'.,(\"-é ", min_size=0, max_size=6),
            max_size=6,
        ).map(" ".join)
    )
    @settings(max_examples=300)
    def test_equals_splitting_every_chunk(self, text):
        from repro.textproc.tokenize import _split_token

        assert tokenize_words(text) == [
            token for raw in text.split() for token in _split_token(raw)
        ]
