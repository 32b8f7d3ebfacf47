"""Property tests: the correlation walk equals the per-pair scan.

``CorrelationEstimator.estimate`` walks the claims once in sorted item
order; ``tests.oracles.correlation_scan`` scores each pair over its
common items.  Both must return the same estimate — ``dependence``
items in order and ``weights`` — for either dimension, any
``min_common_items`` floor, and whether the claims come as a shuffled
list (duplicate keys included) or as a ``ClaimSet``.

Item names sort differently as strings and as numbers (``e10`` before
``e2``), and every case carries the corners the walk branches on: an
item with one claim, a key claimed twice, and a party claiming two
values of one item.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fusion.base import Claim, ClaimSet
from repro.fusion.correlations import CorrelationEstimator
from tests.oracles.correlation_scan import CorrelationEstimatorScan

ITEMS = [(f"e{n}", p) for n in (1, 2, 10, 11) for p in ("a", "b")]
SOURCES = ("s0", "s1", "s2", "s3", "s4")
EXTRACTORS = ("x0", "x1", "x2")


@st.composite
def claim_lists(draw) -> list[Claim]:
    drawn = draw(
        st.lists(
            st.tuples(
                st.sampled_from(ITEMS),
                st.sampled_from(("u", "v", "w")),
                st.sampled_from(SOURCES),
                st.sampled_from(EXTRACTORS),
                st.sampled_from((0.25, 1.0)),
            ),
            max_size=40,
        )
    )
    claims = [
        Claim(item, value, value.upper(), source, extractor, confidence)
        for item, value, source, extractor, confidence in drawn
    ]
    claims += [
        # One claim on an item nobody else claims.
        Claim(("lone", "a"), "u", "U", "s0", "x0"),
        # A party claiming two values of one item.
        Claim(("e3", "a"), "u", "U", "s1", "x1"),
        Claim(("e3", "a"), "v", "V", "s1", "x1"),
        Claim(("e3", "a"), "v", "V", "s2", "x2"),
    ]
    if claims[0].item != ("lone", "a"):
        # The same key again, at another confidence.
        first = claims[0]
        claims.append(Claim(first.item, first.value, first.lexical,
                            first.source_id, first.extractor_id, 0.5))
    random.Random(draw(st.integers(0, 2**16))).shuffle(claims)
    return claims


@given(
    claim_lists(),
    st.sampled_from(("source", "extractor")),
    st.integers(1, 4),
)
@settings(max_examples=200, deadline=None)
def test_the_walk_equals_the_scan(claims, by, min_common_items):
    expected = CorrelationEstimatorScan(
        by=by, min_common_items=min_common_items
    ).estimate(claims)
    estimator = CorrelationEstimator(by=by, min_common_items=min_common_items)
    for given_claims in (claims, ClaimSet(claims)):
        got = estimator.estimate(given_claims)
        assert list(got.dependence.items()) == list(
            expected.dependence.items()
        )
        assert list(got.weights.items()) == list(expected.weights.items())
