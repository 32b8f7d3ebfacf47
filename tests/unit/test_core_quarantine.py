"""Unit tests for the malformed-record quarantine sink."""

import pytest

from repro.core.quarantine import Quarantine, guard_records
from repro.errors import QuarantineOverflowError
from repro.faults import FaultPlan


class TestQuarantine:
    def test_divert_counts_per_source(self):
        quarantine = Quarantine()
        quarantine.divert("dom", "<broken>")
        quarantine.divert("dom", "<worse>")
        quarantine.divert("webtext", "")
        assert quarantine.total == 3
        assert quarantine.counts == {"dom": 2, "webtext": 1}

    def test_samples_are_bounded(self):
        quarantine = Quarantine(sample_limit=2)
        for i in range(5):
            quarantine.divert("dom", f"record-{i}")
        assert len(quarantine.samples["dom"]) == 2
        assert quarantine.counts["dom"] == 5

    def test_overflow_raises(self):
        quarantine = Quarantine(capacity=2)
        quarantine.divert("dom", "a")
        quarantine.divert("dom", "b")
        with pytest.raises(QuarantineOverflowError):
            quarantine.divert("dom", "c")

    def test_caught_overflow_leaves_counters_consistent(self):
        """Regression: ``divert`` mutated counters before raising.

        Stage isolation catches the overflow and carries on, so a sink
        at capacity must stay exactly at capacity — totals, per-source
        counts and samples all unchanged — across any number of caught
        overflows.
        """
        quarantine = Quarantine(capacity=2)
        quarantine.divert("dom", "a")
        quarantine.divert("dom", "b")
        before = quarantine.to_dict()
        for _ in range(3):  # caught-and-continue, repeatedly
            with pytest.raises(QuarantineOverflowError):
                quarantine.divert("webtext", "overflowing")
        assert quarantine.to_dict() == before
        assert quarantine.total == quarantine.capacity
        assert "webtext" not in quarantine.counts
        assert "webtext" not in quarantine.samples

    def test_to_dict_is_sorted_and_json_shaped(self):
        quarantine = Quarantine()
        quarantine.divert("webtext", "w")
        quarantine.divert("dom", "d")
        snapshot = quarantine.to_dict()
        assert list(snapshot["counts"]) == ["dom", "webtext"]
        assert snapshot["total"] == 2
        assert all(
            isinstance(examples, list)
            for examples in snapshot["samples"].values()
        )
        # The sink counts and samples; it holds no records.
        assert set(snapshot) == {"total", "counts", "samples"}


class TestGuardRecords:
    def test_valid_records_pass_through_in_order(self):
        quarantine = Quarantine()
        records = ["a", "b", "c"]
        clean = guard_records(
            records, lambda r: isinstance(r, str), quarantine, "dom"
        )
        assert clean == records
        assert quarantine.total == 0

    def test_invalid_records_are_diverted(self):
        quarantine = Quarantine()
        clean = guard_records(
            ["a", None, "b", 7], lambda r: isinstance(r, str),
            quarantine, "dom",
        )
        assert clean == ["a", "b"]
        assert quarantine.counts == {"dom": 2}

    def test_injected_corruption_is_diverted_with_reason(self):
        plan = FaultPlan(seed=3).corrupt("records:dom", index=1)
        quarantine = Quarantine()
        clean = guard_records(
            ["a", "b", "c"], lambda r: isinstance(r, str), quarantine,
            "dom", plan=plan,
        )
        assert clean == ["a", "c"]
        assert quarantine.counts == {"dom": 1}
        assert quarantine.samples["dom"][0].startswith("injected-corruption")

    def test_start_index_addresses_later_slices(self):
        plan = FaultPlan(seed=3).corrupt("records:dom", index=10)
        quarantine = Quarantine()
        clean = guard_records(
            ["a", "b"], lambda r: True, quarantine, "dom",
            plan=plan, start_index=9,
        )
        assert clean == ["a"]
