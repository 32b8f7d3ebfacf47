"""Property-based tests for the MapReduce engine."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mapreduce.engine import MapReduceJob

records = st.lists(
    st.tuples(st.integers(min_value=0, max_value=9), st.integers()),
    max_size=60,
)


def sum_job():
    return MapReduceJob(
        lambda record: [(record[0], record[1])],
        lambda key, values: [(key, sum(values))],
    )


class TestEngineInvariants:
    @given(records)
    @settings(max_examples=60)
    def test_matches_direct_aggregation(self, data):
        expected = {}
        for key, value in data:
            expected[key] = expected.get(key, 0) + value
        assert dict(sum_job().run(data)) == expected

    @given(records)
    @settings(max_examples=60)
    def test_stats_accounting(self, data):
        job = sum_job()
        output = job.run(data)
        assert job.stats.input_records == len(data)
        assert job.stats.map_output_records == len(data)
        assert job.stats.output_records == len(output)
        assert job.stats.reduce_groups == len({key for key, _ in data})
