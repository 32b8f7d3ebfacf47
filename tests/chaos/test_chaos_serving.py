"""Chaos tests: the serving layer under crashed, retried, poisoned ingest.

The contract under test, at every ``stream:*`` crash point and the
engine-internal ``stage:incremental-*`` ones:

* **no torn reads** — a reader only ever observes a committed
  :class:`~repro.serving.version.KBVersion`; a crash mid-step leaves
  reads byte-identical to the last commit;
* **exactly-once effects** — redelivery after any crash applies every
  delta's effects exactly once, and the healed end state is
  byte-identical to a fault-free run of the same stream;
* **degrade, don't stop** — a poison delta is parked in the
  dead-letter hold and serving continues (stale, flagged degraded)
  from the last good version.

All faults come from seeded :class:`~repro.faults.FaultPlan`
schedules; nothing here sleeps or depends on wall time.
"""

import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.errors import BackpressureError
from repro.faults import FaultPlan, InjectedFault, RetryPolicy
from repro.fusion.knowledge_fusion import KnowledgeFusion
from repro.incremental import ClaimDelta, canonical_claims
from repro.incremental import engine as engine_mod
from repro.obs.metrics import MetricsRegistry
from repro.rdf.store import TripleStore
from repro.rdf.triple import Provenance, ScoredTriple, Triple, Value
from repro.serving.server import KBServer
from repro.serving.stream import EventLog
from repro.synth.claims import ClaimWorldConfig, generate_claim_world
from repro.synth.deltas import (
    DeltaStreamConfig,
    generate_delta_stream,
    scored_from_claims,
)
from tests.oracles import read_index as read_index_oracle

# Consumer crash points outside the retried apply loop: step() raises
# and the served state must be a committed version at each of them.
CONSUMER_CRASH_SCOPES = [
    "stream:deliver", "stream:commit", "stream:post-commit",
]


def world():
    corpus = scored_from_claims(
        generate_claim_world(
            ClaimWorldConfig(seed=17, n_items=10, n_sources=4)
        ).claims
    )
    return generate_delta_stream(
        corpus, DeltaStreamConfig(seed=17, parts=3)
    )


def make_server(
    *,
    stream_plan=None,
    engine_plan=None,
    retry=None,
    capacity=1024,
    metrics=None,
    stream=None,
):
    base, deltas = stream or world()
    store = TripleStore()
    store.add_all(base)
    engine = KnowledgeFusion(
        tolerance=0.0, max_iterations=8, fault_plan=engine_plan
    ).begin_incremental(store)
    server = KBServer(
        engine,
        EventLog(capacity, metrics=metrics),
        retry=retry or RetryPolicy(max_attempts=3, backoff_base=0.0),
        fault_plan=stream_plan,
        metrics=metrics,
    )
    return server, deltas


def reference_bytes():
    """Canonical verdict bytes of a fault-free run of the same stream."""
    server, deltas = make_server()
    for delta in deltas:
        server.publish(delta)
    outcomes = server.drain()
    assert all(outcome.action == "applied" for outcome in outcomes)
    return server.versions.current.canonical_bytes()


REFERENCE = reference_bytes()


def disjoint_worlds(n_worlds=4):
    """(base, deltas) over ``n_worlds`` disjoint components, the deltas
    one world's each, dealt round-robin: every delta re-fuses one
    component and patches the read index over it."""
    base, streams = [], []
    for index in range(n_worlds):
        prefix = f"w{index}/"
        corpus = [
            ScoredTriple(
                Triple(
                    prefix + one.triple.subject,
                    one.triple.predicate,
                    one.triple.obj,
                ),
                Provenance(
                    prefix + one.provenance.source_id,
                    one.provenance.extractor_id,
                ),
                one.confidence,
            )
            for one in scored_from_claims(
                generate_claim_world(
                    ClaimWorldConfig(seed=40 + index, n_items=8, n_sources=4)
                ).claims
            )
        ]
        world_base, world_deltas = generate_delta_stream(
            corpus, DeltaStreamConfig(seed=40 + index, parts=3)
        )
        base.extend(world_base)
        streams.append(world_deltas)
    return base, [delta for part in zip(*streams) for delta in part]


def assert_reads_match_the_oracle(reader, result):
    """Every ranking and predicate read of ``reader`` equals the cold
    oracle's on ``result``, with ``==``."""
    ranking = read_index_oracle.ranking(result)
    assert reader.top_entities(len(ranking)) == [
        (subject, score) for score, subject in ranking
    ]
    holders = read_index_oracle.by_predicate(result)
    for predicate in sorted({item[1] for item in result.truths}):
        assert [
            view.subject for view in reader.scan_predicate(predicate)
        ] == holders.get(predicate, [])


class TestConsumerCrashes:
    @pytest.mark.parametrize("scope", CONSUMER_CRASH_SCOPES)
    def test_crash_leaves_reads_on_a_committed_version(self, scope):
        plan = FaultPlan(seed=5).crash(scope, index=1)
        server, deltas = make_server(stream_plan=plan)
        for delta in deltas:
            server.publish(delta)

        assert server.step().action == "applied"  # offset 0 is clean
        committed = server.versions.current
        committed_bytes = committed.canonical_bytes()
        reader_before = server.reader()

        with pytest.raises(InjectedFault):
            server.step()  # crash at offset 1, inside `scope`

        # No torn reads: the served version is a committed one, and a
        # reader pinned before the crash still answers identically.
        current = server.versions.current
        assert current.version_id in (
            committed.version_id,      # crash before the rebind
            committed.version_id + 1,  # crash after the rebind
        )
        assert reader_before.version.canonical_bytes() == committed_bytes
        # The version/offset/fence are one atomic unit: whatever
        # committed is internally consistent.
        assert len(current.applied) == current.version_id

    @pytest.mark.parametrize("scope", CONSUMER_CRASH_SCOPES)
    def test_healed_drain_is_byte_identical_to_fault_free(self, scope):
        plan = FaultPlan(seed=5).crash(scope, index=1)
        server, deltas = make_server(stream_plan=plan)
        for delta in deltas:
            server.publish(delta)

        with pytest.raises(InjectedFault):
            server.drain()

        # The crash was transient infrastructure; restartable without it.
        server.fault_plan = None
        outcomes = server.drain()
        assert outcomes  # redelivery resumed from the committed offset

        status = server.status()
        assert status.lag_events == 0
        assert not status.degraded
        # Every delta applied exactly once, whether the crashed event
        # was re-applied (pre-commit crash) or fence-skipped
        # (post-commit crash).
        assert status.applied_events == len(deltas)
        assert server.versions.current.canonical_bytes() == REFERENCE

    def test_post_commit_crash_redelivery_hits_the_fence(self):
        plan = FaultPlan(seed=5).crash("stream:post-commit", index=1)
        server, deltas = make_server(stream_plan=plan)
        for delta in deltas:
            server.publish(delta)
        with pytest.raises(InjectedFault):
            server.drain()
        server.fault_plan = None
        actions = [outcome.action for outcome in server.drain()]
        # Offset 1 committed before the crash -> redelivered -> skipped.
        assert actions == ["skipped", "applied"]
        assert server.versions.current.canonical_bytes() == REFERENCE

    def test_commit_crash_redelivery_commits_the_engines_apply(self):
        plan = FaultPlan(seed=5).crash("stream:commit", index=1)
        server, deltas = make_server(stream_plan=plan)
        for delta in deltas:
            server.publish(delta)
        with pytest.raises(InjectedFault):
            server.drain()
        # The engine applied the delta but the version never committed.
        assert server.engine.sequence == 2
        assert server.versions.current.version_id == 1
        server.fault_plan = None
        actions = [outcome.action for outcome in server.drain()]
        # Redelivery misses the fence and finds the engine ahead: it
        # commits the engine's apply instead of applying again.
        assert actions == ["applied", "applied"]
        assert server.engine.sequence == len(deltas)
        assert server.versions.current.canonical_bytes() == REFERENCE

    def test_a_failing_redelivery_after_a_commit_crash_is_not_parked(self):
        # Regression: the redelivered apply used to run again, and when
        # it exhausted its retries the delta was parked as poison while
        # the engine held it, so the next applied delta served it.
        plan = FaultPlan(seed=5).crash("stream:commit", index=1)
        server, deltas = make_server(stream_plan=plan)
        for delta in deltas:
            server.publish(delta)
        with pytest.raises(InjectedFault):
            server.drain()
        server.fault_plan = FaultPlan(seed=5).crash(
            "stream:apply", index=1, attempts=0
        )
        assert [o.action for o in server.drain()] == ["applied", "applied"]
        assert server.status().quarantined_held == 0
        assert server.versions.current.canonical_bytes() == REFERENCE


class TestApplyRetries:
    def test_transient_apply_crash_is_retried_with_backoff(self):
        sleeps = []
        plan = FaultPlan(seed=5).crash("stream:apply", index=1, attempts=2)
        server, deltas = make_server(
            stream_plan=plan,
            retry=RetryPolicy(
                max_attempts=3, backoff_base=0.5, sleep=sleeps.append
            ),
        )
        for delta in deltas:
            server.publish(delta)
        outcomes = server.drain()
        assert [outcome.action for outcome in outcomes] == ["applied"] * 3
        assert outcomes[1].attempts == 3
        assert sleeps == [0.5, 1.0]  # deterministic, fake-timed
        assert server.versions.current.canonical_bytes() == REFERENCE

    def test_a_slow_apply_has_no_deadline(self):
        # An apply that finished has committed: a deadline breach would
        # retry it and apply the delta twice, so the policy's timeout
        # never applies to it.
        plan = FaultPlan(seed=5).slow(
            "stream:apply", seconds=99.0, index=None, attempts=0
        )
        server, deltas = make_server(
            stream_plan=plan,
            retry=RetryPolicy(max_attempts=3, timeout=1.0),
        )
        for delta in deltas:
            server.publish(delta)
        outcomes = server.drain()
        assert [outcome.action for outcome in outcomes] == ["applied"] * 3
        assert [outcome.attempts for outcome in outcomes] == [1] * 3
        assert server.engine.sequence == len(deltas)
        assert server.versions.current.canonical_bytes() == REFERENCE

    @pytest.mark.parametrize(
        "scope", ["stage:incremental-journal", "stage:incremental-fusion"]
    )
    def test_engine_internal_pre_commit_crash_is_retried(self, scope):
        # Engine-internal faults are not attempt-aware, so model a
        # transient one the way it really happens: the infrastructure
        # recovers while the consumer backs off before its retry.
        server, deltas = make_server(
            engine_plan=FaultPlan(seed=5).crash(scope)
        )

        def heal(_seconds):
            server.engine.fault_plan = None

        server.retry = RetryPolicy(
            max_attempts=3, backoff_base=0.0, sleep=heal
        )
        for delta in deltas:
            server.publish(delta)
        outcomes = server.drain()
        assert [outcome.action for outcome in outcomes] == ["applied"] * 3
        assert outcomes[0].attempts == 2  # first apply crashed, retried
        assert server.versions.current.canonical_bytes() == REFERENCE

    def test_engine_commit_crash_is_detected_not_reapplied(self):
        # The engine's own post-commit crash: apply_delta raises *after*
        # its internal commit.  Re-applying would double the delta; the
        # sequence check must treat it as applied instead.
        plan = FaultPlan(seed=5).crash("stage:incremental-commit")
        server, deltas = make_server(engine_plan=plan)
        for delta in deltas:
            server.publish(delta)
        outcomes = server.drain()
        assert [outcome.action for outcome in outcomes] == ["applied"] * 3
        assert outcomes[0].attempts == 1
        assert server.engine.sequence == 3  # one apply per delta
        assert server.versions.current.canonical_bytes() == REFERENCE


class TestNestedRetries:
    """The server retries a whole apply, and the fuse's MapReduce job
    inside it retries each component task.  A task that used up its
    own attempts is final for the apply around it: the two budgets
    add, they never multiply."""

    def make_nested(self, *, engine_plan=None, stream_plan=None, sleep=None):
        retry = RetryPolicy(max_attempts=3, backoff_base=0.0)
        metrics = MetricsRegistry()
        base, deltas = world()
        store = TripleStore()
        store.add_all(base)
        engine = KnowledgeFusion(
            tolerance=0.0, max_iterations=8, retry=retry, metrics=metrics
        ).begin_incremental(store)
        engine.fault_plan = engine_plan  # after the prime, which fuses too
        server = KBServer(
            engine,
            EventLog(1024),
            retry=retry if sleep is None else RetryPolicy(
                max_attempts=3, backoff_base=0.0, sleep=sleep
            ),
            fault_plan=stream_plan,
            metrics=metrics,
        )
        return server, deltas, metrics

    def test_an_exhausted_component_task_is_not_rerun_by_the_server(self):
        plan = FaultPlan(seed=5).crash("reduce", index=0, attempts=0)
        server, deltas, metrics = self.make_nested(engine_plan=plan)
        primed = metrics.snapshot().counters
        server.publish(deltas[0])
        (outcome,) = server.drain()
        assert outcome.action == "poisoned"
        assert outcome.attempts == 1
        assert "reduce task 0 failed after 3 attempt(s)" in outcome.error
        counters = metrics.snapshot().counters

        def spent(name):
            return counters.get(name, 0) - primed.get(name, 0)

        # One job, whose reduce task 0 ran 3 times: 2 retries (not 3
        # jobs and 6 retries under a server that re-ran the apply).
        assert spent("mapreduce_jobs_total") == 1
        assert spent("mapreduce_retries_total") == 2
        assert spent("stream_retries_total") == 0

    def test_a_transient_apply_crash_is_still_retried(self):
        plan = FaultPlan(seed=5).crash("stream:apply", index=0, attempts=2)
        server, deltas, _ = self.make_nested(stream_plan=plan)
        for delta in deltas:
            server.publish(delta)
        outcomes = server.drain()
        assert [outcome.action for outcome in outcomes] == ["applied"] * 3
        assert outcomes[0].attempts == 3
        assert server.versions.current.canonical_bytes() == REFERENCE

    @pytest.mark.parametrize(
        "scope", ["stage:incremental-journal", "stage:incremental-fusion"]
    )
    def test_an_engine_crash_is_still_retried(self, scope):
        def heal(_seconds):
            server.engine.fault_plan = None

        server, deltas, _ = self.make_nested(
            engine_plan=FaultPlan(seed=5).crash(scope), sleep=heal
        )
        for delta in deltas:
            server.publish(delta)
        outcomes = server.drain()
        assert [outcome.action for outcome in outcomes] == ["applied"] * 3
        assert outcomes[0].attempts == 2
        assert server.versions.current.canonical_bytes() == REFERENCE


class TestPoisonDeltas:
    def plan_for_last(self, deltas):
        # Permanent crash (attempts=0) pinned to the last event offset.
        return FaultPlan(seed=5).crash(
            "stream:apply", index=len(deltas) - 1, attempts=0
        )

    def test_poison_degrades_serving_without_stopping_it(self):
        metrics = MetricsRegistry()
        server, deltas = make_server(metrics=metrics)
        server.fault_plan = self.plan_for_last(deltas)
        for delta in deltas:
            server.publish(delta)
        outcomes = server.drain()

        assert [outcome.action for outcome in outcomes] == [
            "applied", "applied", "poisoned",
        ]
        assert outcomes[-1].error is not None
        status = server.status()
        assert status.degraded
        assert status.poisoned == 1
        assert status.quarantined_held == 1
        assert status.lag_events == 0  # the consumer moved past it
        # The parked delta is listed with its reason; listing is a read.
        ((reason, event),) = server.parked
        assert reason.startswith("poison-delta: InjectedFault")
        assert event.offset == len(deltas) - 1
        assert event.delta is deltas[-1]
        # Reads keep answering from the last good KB content.
        good = server.engine.result.canonical_bytes()
        assert server.reader().version.canonical_bytes() == good
        assert metrics.gauge("serving_degraded").value == 1.0
        assert (
            metrics.counter("stream_events_poisoned_total").value == 1
        )

    def test_requeue_applies_exactly_once_and_heals(self):
        server, deltas = make_server()
        server.fault_plan = self.plan_for_last(deltas)
        for delta in deltas:
            server.publish(delta)
        server.drain()

        server.fault_plan = None  # the poison cause is gone
        requeued = server.requeue_quarantined()
        assert len(requeued) == 1
        # Derived id: the original is fenced and would be skipped.
        assert requeued[0].event_id.endswith("#requeue")
        outcomes = server.drain()
        assert [outcome.action for outcome in outcomes] == ["applied"]

        status = server.status()
        assert not status.degraded
        assert status.quarantined_held == 0
        assert server.versions.current.canonical_bytes() == REFERENCE
        # The dead-letter drain is exactly-once: nothing left to requeue.
        assert server.requeue_quarantined() == []

    def test_applied_events_leaves_out_the_poisoned(self):
        # Regression: applied_events was the version id, which a
        # poisoned delta advances too.
        server, deltas = make_server()
        server.fault_plan = self.plan_for_last(deltas)
        for delta in deltas:
            server.publish(delta)
        server.drain()
        status = server.status()
        assert (status.applied_events, status.poisoned) == (2, 1)

        server.fault_plan = None
        server.requeue_quarantined()
        server.drain()
        status = server.status()
        assert (status.applied_events, status.poisoned) == (3, 1)

    def poison_storm(self, count):
        """A server whose every apply fails, fed ``count`` distinct
        deltas and drained: each one is parked."""
        server, _ = make_server(retry=RetryPolicy(max_attempts=1))
        server.fault_plan = FaultPlan(seed=5).crash(
            "stream:apply", index=None, attempts=0
        )
        for index in range(count):
            server.publish(ClaimDelta(label=f"poison-{index}"))
        outcomes = server.drain()
        assert [outcome.action for outcome in outcomes] == [
            "poisoned"
        ] * count
        return server

    def test_a_thousand_and_first_poison_delta_is_parked(self):
        # Regression: the hold shared the pipeline's record sink and its
        # capacity of 1 000, which counted every diversion a server ever
        # made, so the 1 001st poison delta raised QuarantineOverflowError
        # inside step(), and so did every redelivery of it.
        server = self.poison_storm(1001)
        status = server.status()
        assert status.quarantined_held == status.poisoned == 1001
        assert status.lag_events == 0

    def test_requeued_poison_deltas_park_again_under_the_same_fault(self):
        server = self.poison_storm(1000)
        assert len(server.requeue_quarantined()) == 1000
        assert server.status().quarantined_held == 0
        assert server.step().action == "poisoned"
        status = server.status()
        assert (status.quarantined_held, status.lag_events) == (1, 999)
        assert status.poisoned == 1001


class TestDeliveryDuplicates:
    def test_duplicate_publish_is_applied_exactly_once(self):
        server, deltas = make_server()
        for delta in deltas:
            server.publish(delta)
        server.publish(deltas[1])  # producer retry: same content id
        actions = [outcome.action for outcome in server.drain()]
        assert actions == ["applied", "applied", "applied", "skipped"]
        assert server.engine.sequence == len(deltas)
        assert server.versions.current.canonical_bytes() == REFERENCE

    def test_a_retry_published_after_its_original_compacted_is_skipped(
        self,
    ):
        # Regression: the fence used to forget an id once the log had
        # compacted every occurrence of it, so a producer retry of D
        # published after D was drained re-applied D, retracting the
        # claim a later delta had re-added.
        def claim(subject, value, source):
            return ScoredTriple(
                Triple(subject, "p", Value(value)),
                Provenance(source, "ex"),
                0.8,
            )

        store = TripleStore()
        store.add_all([claim("a", "1", "s1"), claim("c", "3", "s1")])
        server = KBServer(
            KnowledgeFusion(tolerance=0.0, max_iterations=8)
            .begin_incremental(store)
        )
        retract = ClaimDelta(
            added=[claim("c", "4", "s1")],
            retracted=[Triple("a", "p", Value("1"))],
            label="D",
        )
        readd = ClaimDelta(added=[claim("a", "1", "s1")], label="D2")
        actions = []
        for delta in (retract, readd, retract):
            server.publish(delta)
            actions += [outcome.action for outcome in server.drain()]

        assert actions == ["applied", "applied", "skipped"]
        assert server.log.base == 3  # D's first occurrence compacted
        store = server.versions.current.store
        assert len(store.claims_for_item("a", "p")) == 1


class TestBackpressure:
    def test_lagging_consumer_sheds_load_then_recovers(self):
        server, deltas = make_server(capacity=2)
        server.publish(deltas[0])
        server.publish(deltas[1])
        with pytest.raises(BackpressureError) as excinfo:
            server.publish(deltas[2])
        assert excinfo.value.reason == "consumer-lag"
        assert server.step().action == "applied"  # consumer progresses
        server.publish(deltas[2])  # accepted now
        server.drain()
        assert server.versions.current.canonical_bytes() == REFERENCE


class TestSnapshotIsolation:
    def test_pinned_reader_is_immune_to_concurrent_commits(self):
        server, deltas = make_server()
        for delta in deltas:
            server.publish(delta)
        stale = server.reader()
        stale_bytes = stale.version.canonical_bytes()
        stale_top = stale.top_entities(5)

        server.drain()

        # The old pin still answers from version 0, bit for bit.
        assert stale.version.version_id == 0
        assert stale.version.canonical_bytes() == stale_bytes
        assert stale.top_entities(5) == stale_top
        # A fresh reader sees the new head.
        fresh = server.reader()
        assert fresh.version.version_id == len(deltas)
        assert fresh.version.canonical_bytes() == REFERENCE


    def test_a_pin_survives_every_patch_of_the_read_index(
        self, monkeypatch
    ):
        """A reader pinned at version 0 and never read from answers its
        ranking and predicate scans from version 0's result after the
        whole stream has patched the index: a patch copies what it
        changes, never the prior version's lists or scores."""
        patches = []
        patch = engine_mod.patched
        monkeypatch.setattr(
            engine_mod, "patched",
            lambda prior, *rest: patches.append(prior) or patch(prior, *rest),
        )
        server, deltas = make_server(stream=disjoint_worlds())
        pinned = server.reader()
        for delta in deltas:
            server.publish(delta)
        outcomes = server.drain()

        assert [outcome.action for outcome in outcomes] == (
            ["applied"] * len(deltas)
        )
        # The prime built the index cold; every delta patched the
        # index of the version before it.
        assert patches[0] is None
        assert len(patches) == len(deltas) + 1
        assert None not in patches[1:]
        assert pinned.version.version_id == 0
        assert_reads_match_the_oracle(pinned, pinned.version.result)
        assert_reads_match_the_oracle(
            server.reader(), server.versions.current.result
        )

    def test_a_poisoned_successor_serves_its_predecessors_index(self):
        server, deltas = make_server(stream=disjoint_worlds())
        server.fault_plan = FaultPlan(seed=5).crash(
            "stream:apply", index=2, attempts=0
        )
        for delta in deltas:
            server.publish(delta)
        server.drain(max_events=2)
        before = server.versions.current
        outcome = server.step()
        assert outcome.action == "poisoned"
        after = server.versions.current
        assert after.version_id == before.version_id + 1
        assert after.read_index is before.read_index
        assert after.result is before.result
        # The next good delta patches on from the served index.
        assert server.step().action == "applied"
        assert_reads_match_the_oracle(
            server.reader(), server.versions.current.result
        )

    def test_reader_thread_racing_the_writer_sees_committed_versions(self):
        """The one two-thread run in the repository: a writer drains
        twelve deltas while a reader re-pins and looks up a fixed item
        set.  Versions arrive in order, every pin answers after the
        join as it did when read, and the end state is a cold
        re-fusion's."""
        corpus = scored_from_claims(
            generate_claim_world(
                ClaimWorldConfig(seed=23, n_items=120, n_sources=4)
            ).claims
        )
        server, deltas = make_server(
            stream=generate_delta_stream(
                corpus, DeltaStreamConfig(seed=23, parts=12)
            )
        )
        items = sorted({one.triple.item for one in corpus})[:8]
        for delta in deltas:
            server.publish(delta)
        first_read, drained = threading.Event(), threading.Event()
        seen = []  # (pinned reader, its answers), in read order

        def read():
            while True:
                last = drained.is_set()
                reader = server.reader()
                seen.append(
                    (reader, [reader.lookup(*item) for item in items])
                )
                first_read.set()
                if last:
                    return

        def write():
            try:
                assert first_read.wait(timeout=60)
                return server.drain()
            finally:
                drained.set()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=2) as pool:
                reading, writing = pool.submit(read), pool.submit(write)
                outcomes = writing.result(timeout=120)
                reading.result(timeout=120)
        finally:
            sys.setswitchinterval(interval)

        assert len(outcomes) == len(deltas) >= 10
        assert all(outcome.action == "applied" for outcome in outcomes)
        ids = [reader.version.version_id for reader, _ in seen]
        assert ids == sorted(ids)
        assert (ids[0], ids[-1]) == (0, len(deltas))
        for reader, answers in seen:
            assert [reader.lookup(*item) for item in items] == answers
        cold = KnowledgeFusion(tolerance=0.0, max_iterations=8).fuse(
            canonical_claims(server.engine.store.copy())
        )
        assert server.versions.current.canonical_bytes() == (
            cold.canonical_bytes()
        )


class TestDeterminism:
    def test_identical_fault_schedules_converge_identically(self):
        runs = []
        for _ in range(2):
            plan = (
                FaultPlan(seed=9)
                .crash("stream:apply", index=0, attempts=1)
                .crash("stream:post-commit", index=2)
            )
            server, deltas = make_server(stream_plan=plan)
            for delta in deltas:
                server.publish(delta)
            with pytest.raises(InjectedFault):
                server.drain()
            server.fault_plan = None
            actions = [outcome.action for outcome in server.drain()]
            runs.append(
                (actions, server.versions.current.canonical_bytes())
            )
        assert runs[0] == runs[1]
        assert runs[0][1] == REFERENCE


class TestRequeueBackpressure:
    def test_requeue_under_backpressure_loses_no_delta(self):
        # Regression: requeue_quarantined() used to pop the dead-letter
        # hold *before* publishing; a mid-loop BackpressureError
        # silently lost the failed delta and everything behind it.
        metrics = MetricsRegistry()
        server, deltas = make_server(capacity=2, metrics=metrics)
        server.fault_plan = FaultPlan(seed=5).crash(
            "stream:apply", index=0, attempts=0
        )
        server.publish(deltas[0])
        server.publish(deltas[1])
        assert server.step().action == "poisoned"  # delta 0 parked
        server.fault_plan = None

        server.publish(deltas[2])  # backlog == capacity: log is full
        with pytest.raises(BackpressureError):
            server.requeue_quarantined()

        # The unpublished delta is back in the hold, not vanished.
        assert server.status().quarantined_held == 1
        assert (
            metrics.counter("stream_requeue_deferred_total").value == 1
        )
        assert metrics.counter("stream_requeued_total").value == 0

        server.drain()  # consumer catches up, relieving backpressure
        requeued = server.requeue_quarantined()
        assert len(requeued) == 1
        assert requeued[0].delta.label == deltas[0].label
        assert [o.action for o in server.drain()] == ["applied"]
        status = server.status()
        assert status.quarantined_held == 0
        assert status.lag_events == 0

    def test_deferred_tail_preserves_order(self):
        # Two parked deltas, room for neither: both must survive a
        # shed requeue in their original order.
        server, deltas = make_server(capacity=2)
        server.fault_plan = (
            FaultPlan(seed=5)
            .crash("stream:apply", index=0, attempts=0)
            .crash("stream:apply", index=1, attempts=0)
        )
        server.publish(deltas[0])
        server.publish(deltas[1])
        assert [o.action for o in server.drain()] == [
            "poisoned", "poisoned",
        ]
        server.fault_plan = None

        server.publish(deltas[2])
        server.publish(deltas[0])  # duplicate content: fills the log
        with pytest.raises(BackpressureError):
            server.requeue_quarantined()
        # Both back in the hold, in diversion order, reasons intact.
        assert [event.offset for _reason, event in server.parked] == [0, 1]
        assert all(
            reason.startswith("poison-delta: InjectedFault")
            for reason, _event in server.parked
        )


class TestCompaction:
    def test_drain_bytes_identical_before_and_after_compaction(self):
        # capacity=1 forces a compaction after every commit; the
        # served verdicts must be byte-identical to the uncompacted
        # reference run.
        for capacity in (1, 2, 1024):
            server, deltas = make_server(capacity=capacity)
            for delta in deltas:
                server.publish(delta)
                outcomes = server.drain()
                assert all(o.action == "applied" for o in outcomes)
            if capacity < len(deltas):
                assert server.log.base > 0  # compaction really ran
            assert server.versions.current.canonical_bytes() == REFERENCE
            assert server.status().applied_events == len(deltas)

    def test_fence_keeps_a_window_of_twice_the_capacity(self):
        # The fence holds the ids of the last 2 x capacity fenced
        # events, oldest first, not one id per event forever.
        for capacity in (1, 2):
            server, deltas = make_server(capacity=capacity)
            published = []
            for delta in deltas:
                published.append(server.publish(delta).event_id)
                server.drain()
            current = server.versions.current
            assert current.version_id == len(deltas)
            window = min(current.version_id, 2 * capacity)
            assert len(current.applied) == window
            assert tuple(current.applied) == tuple(published[-window:])
            # The lifetime statistic is the version count, not the fence.
            assert server.status().applied_events == len(deltas)

    def test_redelivery_before_compaction_still_hits_the_fence(self):
        # The window must never drop an id the log can still deliver: a
        # post-commit crash leaves the event retained (uncommitted),
        # so redelivery finds it fenced even at capacity=1.
        plan = FaultPlan(seed=5).crash("stream:post-commit", index=1)
        server, deltas = make_server(stream_plan=plan, capacity=1)
        server.publish(deltas[0])
        server.drain()
        server.publish(deltas[1])
        with pytest.raises(InjectedFault):
            server.step()
        server.fault_plan = None
        assert [o.action for o in server.drain()] == ["skipped"]
        server.publish(deltas[2])
        server.drain()
        assert server.versions.current.canonical_bytes() == REFERENCE
