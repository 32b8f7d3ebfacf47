"""Unit tests for the serving event log (offsets, backpressure, compaction)."""

import pytest

from repro.errors import BackpressureError, ServingError
from repro.incremental.delta import ClaimDelta
from repro.obs.metrics import MetricsRegistry
from repro.rdf.triple import Provenance, ScoredTriple, Triple, Value
from repro.serving.stream import EventLog, delta_event_id


def delta(subject="e1", value="v1", label="d"):
    return ClaimDelta(
        added=[
            ScoredTriple(
                Triple(subject, "attr", Value(value)),
                Provenance("src", "ex"),
                0.7,
            )
        ],
        retracted=[],
        label=label,
    )


class TestEventIds:
    def test_content_digest_is_stable_and_content_sensitive(self):
        assert delta_event_id(delta()) == delta_event_id(delta())
        assert delta_event_id(delta()) != delta_event_id(delta(value="v2"))
        assert delta_event_id(delta()).startswith("sha:")

    def test_append_defaults_to_content_id_and_accepts_override(self):
        log = EventLog()
        auto = log.append(delta())
        manual = log.append(delta(), event_id="explicit-7")
        assert auto.event_id == delta_event_id(delta())
        assert manual.event_id == "explicit-7"


class TestOffsets:
    def test_offsets_are_dense_append_order(self):
        log = EventLog()
        events = [log.append(delta(value=f"v{i}")) for i in range(4)]
        assert [event.offset for event in events] == [0, 1, 2, 3]
        assert log.head == 4
        assert log.next_event() is events[0]

    def test_delivery_does_not_advance_only_commit_does(self):
        log = EventLog()
        first = log.append(delta(value="a"))
        log.append(delta(value="b"))
        # Re-reading redelivers the same event: at-least-once.
        assert log.next_event() is first
        assert log.next_event() is first
        assert log.lag == 2
        log.commit_offset(1)
        assert log.next_event().offset == 1
        assert log.committed == 1

    def test_caught_up_group_gets_none(self):
        log = EventLog()
        assert log.next_event() is None

    def test_commit_cannot_rewind_or_overrun(self):
        log = EventLog()
        log.append(delta())
        log.commit_offset(1)
        with pytest.raises(ServingError):
            log.commit_offset(0)  # rewind
        with pytest.raises(ServingError):
            log.commit_offset(2)  # past head


class TestBackpressure:
    def test_backlog_bound_sheds_load_with_reason(self):
        metrics = MetricsRegistry()
        log = EventLog(capacity=2, metrics=metrics)
        log.append(delta(value="a"))
        log.append(delta(value="b"))
        with pytest.raises(BackpressureError) as excinfo:
            log.append(delta(value="c"))
        assert excinfo.value.reason == "consumer-lag"
        # Rejected, not silently dropped: the log is untouched and the
        # rejection is counted.
        assert log.head == 2
        assert (
            metrics.counter(
                "stream_rejected_total", reason="consumer-lag"
            ).value
            == 1
        )

    def test_consumer_progress_relieves_backpressure(self):
        log = EventLog(capacity=2)
        log.append(delta(value="a"))
        log.append(delta(value="b"))
        log.commit_offset(1)
        assert log.append(delta(value="c")).offset == 2


class TestCompaction:
    def fill(self, log, n, *, start=0):
        return [log.append(delta(value=f"v{start + i}")) for i in range(n)]

    def test_committed_prefix_compacts_behind_logical_offsets(self):
        metrics = MetricsRegistry()
        log = EventLog(capacity=1024, metrics=metrics)
        events = self.fill(log, 4)
        log.commit_offset(3)

        assert log.base == 3  # 3 droppable of 4 buffered -> compacted
        assert log.head == 4  # logical offsets unaffected
        assert log.lag == 1
        assert log.next_event() is events[3]  # retained suffix delivered
        assert metrics.counter("stream_compacted_total").value == 3

    def test_compaction_drops_only_the_committed_prefix(self):
        log = EventLog()
        events = self.fill(log, 4)
        assert log.compact() == 0  # nothing committed: nothing to drop
        log.commit_offset(1)
        assert log.base == 0  # 1 droppable of 4: not yet worth a sweep
        assert log.compact() == 1  # an explicit compaction drops it
        assert (log.base, log.head, log.committed) == (1, 4, 1)
        assert log.next_event() is events[1]
        log.commit_offset(4)
        assert log.base == log.head == 4
        assert log.next_event() is None
