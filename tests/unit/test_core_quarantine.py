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
        # No dead-letter hold in use -> report bytes unchanged.
        assert "held" not in snapshot


class TestDeadLetterHold:
    def test_retained_records_are_listable_and_inspectable(self):
        quarantine = Quarantine()
        quarantine.divert("stream", {"id": 1}, reason="poison", retain=True)
        quarantine.divert("stream", {"id": 2}, reason="poison", retain=True)
        quarantine.divert("dom", "broken")  # not retained

        held = quarantine.held_items()
        assert [(source, record) for source, _r, record in held] == [
            ("stream", {"id": 1}), ("stream", {"id": 2}),
        ]
        assert all(reason == "poison" for _s, reason, _r in held)
        assert quarantine.held_items("dom") == []
        # Inspection is non-destructive.
        assert len(quarantine.held_items("stream")) == 2

    def test_drain_pops_exactly_once(self):
        quarantine = Quarantine()
        quarantine.divert("stream", "delta-a", reason="poison", retain=True)
        quarantine.divert("stream", "delta-b", reason="poison", retain=True)

        assert quarantine.drain("stream") == ["delta-a", "delta-b"]
        assert quarantine.drain("stream") == []
        assert quarantine.held_items("stream") == []
        # Diversion accounting survives the drain.
        assert quarantine.counts == {"stream": 2}
        assert quarantine.total == 2

    def test_to_dict_reports_held_counts_when_in_use(self):
        quarantine = Quarantine()
        quarantine.divert("stream", "delta", reason="poison", retain=True)
        assert quarantine.to_dict()["held"] == {"stream": 1}

    def test_drain_entries_keeps_reasons(self):
        quarantine = Quarantine()
        quarantine.divert("stream", "delta-a", reason="poison", retain=True)
        quarantine.divert("stream", "delta-b", reason="worse", retain=True)
        assert quarantine.drain_entries("stream") == [
            ("poison", "delta-a"), ("worse", "delta-b"),
        ]
        assert quarantine.drain_entries("stream") == []

    def test_repark_restores_order_without_recounting(self):
        # A drain that could not complete (backpressure mid-requeue)
        # re-parks its unprocessed tail; the entries must come back
        # ahead of anything diverted meanwhile and must not be
        # double-counted as new diversions.
        quarantine = Quarantine()
        quarantine.divert("stream", "delta-a", reason="poison", retain=True)
        quarantine.divert("stream", "delta-b", reason="poison", retain=True)

        entries = quarantine.drain_entries("stream")
        quarantine.divert("stream", "delta-c", reason="poison", retain=True)
        quarantine.repark("stream", entries[1:])  # delta-a was processed

        assert [r for _s, _reason, r in quarantine.held_items("stream")] == [
            "delta-b", "delta-c",
        ]
        assert quarantine.total == 3  # repark is not a new failure
        assert quarantine.counts == {"stream": 3}

    def test_repark_of_nothing_is_a_noop(self):
        quarantine = Quarantine()
        quarantine.repark("stream", [])
        assert quarantine.held_items("stream") == []


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
            "dom", plan=plan, scope="records:dom",
        )
        assert clean == ["a", "c"]
        assert quarantine.counts == {"dom": 1}
        assert quarantine.samples["dom"][0].startswith("injected-corruption")

    def test_start_index_addresses_later_slices(self):
        plan = FaultPlan(seed=3).corrupt("records:dom", index=10)
        quarantine = Quarantine()
        clean = guard_records(
            ["a", "b"], lambda r: True, quarantine, "dom",
            plan=plan, scope="records:dom", start_index=9,
        )
        assert clean == ["a"]
