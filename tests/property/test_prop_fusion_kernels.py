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


def _outcome(method, claims):
    """The fused result, or ``ZeroDivisionError``.

    Investment divides by a source's summed claim confidence, so a
    source whose claims all carry 0.0 makes the loops raise; the kernel
    has to raise the same.
    """
    try:
        return method.fuse(claims)
    except ZeroDivisionError:
        return ZeroDivisionError


class TestKernelsEqualOracles:
    @pytest.mark.parametrize("name", sorted(PAIRS))
    @pytest.mark.parametrize("tolerance", [None, 0.0])
    @given(claims=claim_sets())
    @settings(max_examples=60, deadline=None)
    def test_same_result(self, name, tolerance, claims):
        method_cls, oracle_cls = PAIRS[name]
        kwargs = {} if tolerance is None else {"tolerance": tolerance}
        result = _outcome(method_cls(**kwargs), claims)
        reference = _outcome(oracle_cls(**kwargs), claims)
        if reference is ZeroDivisionError:
            assert result is ZeroDivisionError
        else:
            assert_same_result(result, reference)

    @pytest.mark.parametrize("name", sorted(PAIRS))
    def test_empty_claim_set_refused(self, name):
        for method_cls in PAIRS[name]:
            with pytest.raises(FusionError):
                method_cls().fuse(ClaimSet([]))
