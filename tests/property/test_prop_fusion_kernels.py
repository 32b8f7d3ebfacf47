"""Property tests: the fusion kernels equal their dict-loop oracles.

Small claim sets reach the corners the generated worlds of
``tests/unit/test_fusion_compiled.py`` do not: one-source items,
single-candidate items, confidences of exactly 0.0 and 1.0, the same
claim asserted twice.  Every method in ``src/`` must return what
``tests.oracles.fusion_loops`` returns — ``==`` on everything a
:class:`FusionResult` carries — with the early exit on and off.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FusionError
from repro.fusion.base import Claim, ClaimSet
from tests.oracles.fusion_loops import PAIRS, assert_same_result

_confidences = st.one_of(
    st.sampled_from([0.0, 1.0]),
    st.floats(min_value=0.0, max_value=1.0),
)


@st.composite
def claim_sets(draw):
    n_items = draw(st.integers(1, 6))
    n_sources = draw(st.integers(1, 5))
    n_values = draw(st.integers(1, 4))
    records = draw(
        st.lists(
            st.tuples(
                st.integers(0, n_items - 1),
                st.integers(0, n_values - 1),
                st.integers(0, n_sources - 1),
                st.sampled_from(["ex1", "ex2"]),
                _confidences,
            ),
            min_size=1,
            max_size=24,
        )
    )
    repeated = draw(st.lists(st.sampled_from(records), max_size=3))
    return ClaimSet(
        Claim((f"e{item}", "p"), f"v{value}", f"v{value}", f"s{source}",
              extractor, confidence)
        for item, value, source, extractor, confidence in records + repeated
    )


_COARSE = [0.0, 0.5, 1.0]


@st.composite
def shared_evidence(draw):
    """Many pairs of equal evidence: ``(claims, source_weights)`` over
    2–4 sources, confidences and weights from three values, the three
    kinds of item mixed — one claimer, several claimers of one value,
    contested."""
    sources = [f"s{index}" for index in range(draw(st.integers(2, 4)))]
    pick_source = st.sampled_from(sources)
    pick_conf = st.sampled_from(_COARSE)
    claims = []
    kinds = st.sampled_from(["one claimer", "several claimers", "contested"])
    for item in range(draw(st.integers(1, 30))):
        key = (f"e{item}", "p")
        kind = draw(kinds)
        if kind == "one claimer":
            rows = [("v0", draw(pick_source))]
        elif kind == "several claimers":
            chosen = draw(st.lists(pick_source, min_size=2, unique=True))
            rows = [("v0", source) for source in chosen]
        else:
            rows = draw(st.lists(
                st.tuples(st.sampled_from(["v0", "v1", "v2"]), pick_source),
                min_size=2, max_size=6,
            ).filter(lambda rows: len({value for value, _ in rows}) >= 2))
        for value, source in rows:
            claims.append(
                Claim(key, value, value, source, "ex", draw(pick_conf))
            )
    weights = {
        source: draw(st.sampled_from(_COARSE)) for source in sources
    }
    return ClaimSet(claims), weights


class TestKernelsEqualOracles:
    @pytest.mark.parametrize("name", sorted(PAIRS))
    @pytest.mark.parametrize("tolerance", [None, 0.0])
    @given(claims=claim_sets())
    @settings(max_examples=60, deadline=None)
    def test_same_result(self, name, tolerance, claims):
        method_cls, oracle_cls = PAIRS[name]
        kwargs = {} if tolerance is None else {"tolerance": tolerance}
        # Neither side raises: a source whose claims all carry 0.0
        # (Investment's divisor) stakes nothing on both.
        assert_same_result(
            method_cls(**kwargs).fuse(claims),
            oracle_cls(**kwargs).fuse(claims),
        )

    @pytest.mark.parametrize("use_confidence", [False, True])
    @given(case=shared_evidence())
    @settings(max_examples=80, deadline=None)
    def test_multitruth_over_shared_evidence(self, use_confidence, case):
        """Pairs of equal evidence share one computation per round;
        pairs that differ in any slot must not."""
        claims, weights = case
        kwargs = dict(source_weights=weights, use_confidence=use_confidence)
        method_cls, oracle_cls = PAIRS["multitruth"]
        assert_same_result(
            method_cls(**kwargs).fuse(claims),
            oracle_cls(**kwargs).fuse(claims),
        )

    @pytest.mark.parametrize("name", sorted(PAIRS))
    def test_empty_claim_set_refused(self, name):
        for method_cls in PAIRS[name]:
            with pytest.raises(FusionError):
                method_cls().fuse(ClaimSet([]))
