"""A state machine over one ``KBServer`` and its event log.

Hypothesis drives a server whose log holds 1–4 events, so backpressure
and compaction fire on most steps, through publishes of fresh deltas,
republishes of earlier ones (producer retries, whether or not their
original is still in the fence window), steps, drains, a crash at each
``stream:*`` scope followed by a heal, a poison delta, and requeues of
the dead-letter hold.  The model is a bag of claims plus the window of
fenced ids:

* every consumed event's action is the model's — skipped iff its id is
  in the window, else applied (or poisoned, when its apply was made to
  fail) — and the committed fence *is* the model's window;
* at quiescence the served ``canonical_bytes`` equal a cold
  ``begin_incremental`` prime over the bag (invariant 1);
* every published delta is applied, parked in the server's dead-letter
  list, or pending in the log (invariant 2).
"""

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.errors import BackpressureError
from repro.faults import FaultPlan, InjectedFault, RetryPolicy
from repro.fusion.knowledge_fusion import KnowledgeFusion
from repro.incremental.delta import ClaimDelta
from repro.rdf.store import TripleStore
from repro.rdf.triple import Provenance, ScoredTriple, Triple, Value
from repro.serving.server import KBServer
from repro.serving.stream import EventLog, StreamEvent

triples = st.builds(
    Triple,
    st.sampled_from(["a", "b", "c"]),
    st.sampled_from(["p", "q"]),
    st.builds(Value, st.sampled_from(["1", "2", "3"])),
)
claims = st.builds(
    ScoredTriple,
    triples,
    st.builds(Provenance, st.sampled_from(["s1", "s2", "s3"]), st.just("ex")),
    st.sampled_from([0.3, 0.6, 0.9]),
)
deltas = st.builds(
    ClaimDelta,
    added=st.lists(claims, max_size=3),
    retracted=st.lists(triples, max_size=2),
)

#: Consumer crash points outside the retried apply: the step raises.
CRASH_SCOPES = ["stream:deliver", "stream:commit", "stream:post-commit"]


def fusion():
    return KnowledgeFusion(tolerance=0.0, max_iterations=8)


class ServingMachine(RuleBasedStateMachine):
    @initialize(
        capacity=st.integers(1, 4),
        base=st.lists(claims, min_size=1, max_size=8),
    )
    def prime(self, capacity, base):
        store = TripleStore()
        store.add_all(base)
        self.server = KBServer(
            fusion().begin_incremental(store),
            EventLog(capacity),
            retry=RetryPolicy(max_attempts=2, backoff_base=0.0),
        )
        self.window_size = 2 * capacity
        # The model: the bag (claim key -> claim) and the fence window.
        self.bag = self.applied_to({}, ClaimDelta(added=base))
        self.window = []
        # offset -> the published event; offset -> what consuming it did.
        self.published = {}
        self.fate = {}
        # Offsets of poisoned events requeued as a later event.
        self.requeued = set()
        # The offset whose delta the engine holds but no version does.
        self.engine_ahead = None
        self.checked_version = None

    # -- the model --------------------------------------------------------
    @staticmethod
    def applied_to(bag, delta):
        """``bag`` after ``delta``: retractions first, then additions,
        a claim key keeping its highest confidence."""
        gone = set(delta.retracted)
        after = {key: one for key, one in bag.items() if key[0] not in gone}
        for scored in delta.added:
            key = (scored.triple, scored.provenance)
            held = after.get(key)
            if held is None or held.confidence < scored.confidence:
                after[key] = scored
        return after

    def fenced(self, event, action):
        """Record a consumed event as the model sees it."""
        self.engine_ahead = None
        if action == "skipped":
            # A redelivery after a post-commit crash keeps its fate.
            self.fate.setdefault(event.offset, action)
            return
        self.fate[event.offset] = action
        self.window = (self.window + [event.event_id])[-self.window_size:]
        if action == "applied":
            self.bag = self.applied_to(self.bag, event.delta)

    def expected(self, event, *, poison=False):
        """What consuming ``event`` does.  The engine refuses a delta
        that would leave nothing to fuse, which poisons it; a delta the
        engine already holds is applied whatever its apply would do."""
        if event.event_id in self.window:
            return "skipped"
        if event.offset == self.engine_ahead:
            return "applied"
        if poison or not self.applied_to(self.bag, event.delta):
            return "poisoned"
        return "applied"

    # -- rules ----------------------------------------------------------
    def publish(self, delta):
        try:
            event = self.server.publish(delta)
        except BackpressureError:
            assert self.server.log.lag == self.server.log.capacity
            return
        self.published[event.offset] = event

    @rule(delta=deltas)
    def publish_fresh(self, delta):
        self.publish(delta)

    @precondition(lambda self: self.published)
    @rule(data=st.data())
    def republish(self, data):
        offset = data.draw(st.sampled_from(sorted(self.published)))
        self.publish(self.published[offset].delta)

    @rule()
    def step(self):
        event = self.server.log.next_event()
        outcome = self.server.step()
        if event is None:
            assert outcome is None
            return
        assert event.event_id == self.published[event.offset].event_id
        assert (outcome.offset, outcome.event_id) == (
            event.offset, event.event_id,
        )
        assert outcome.action == self.expected(event)
        self.fenced(event, outcome.action)

    @rule()
    def drain(self):
        while self.server.log.lag:
            self.step()
        assert self.server.step() is None

    @precondition(lambda self: self.server.log.lag)
    @rule(scope=st.sampled_from(CRASH_SCOPES))
    def crash_and_heal(self, scope):
        event = self.server.log.next_event()
        before = self.server.versions.current
        self.server.fault_plan = FaultPlan(seed=1).crash(
            scope, index=event.offset
        )
        try:
            outcome = self.server.step()
        except InjectedFault:
            outcome = None
        finally:
            self.server.fault_plan = None
        after = self.server.versions.current
        if outcome is not None:
            # A fence hit ends the step before the commit scopes fire.
            assert scope != "stream:deliver"
            assert outcome.action == self.expected(event) == "skipped"
            self.fenced(event, "skipped")
        elif after is not before:
            # Crashed after the rebind: the event is fenced, its offset
            # not acknowledged, so it is delivered again.
            assert scope == "stream:post-commit"
            self.fenced(event, self.expected(event))
            assert self.server.log.next_event() is event
        else:
            assert scope != "stream:post-commit"
            assert self.server.log.next_event() is event
            if scope == "stream:commit" and self.expected(event) == "applied":
                # The engine committed the delta; its version did not.
                self.engine_ahead = event.offset

    @precondition(lambda self: self.server.log.lag)
    @rule()
    def poison(self):
        event = self.server.log.next_event()
        self.server.fault_plan = FaultPlan(seed=1).crash(
            "stream:apply", index=event.offset, attempts=0
        )
        try:
            outcome = self.server.step()
        finally:
            self.server.fault_plan = None
        assert outcome.action == self.expected(event, poison=True)
        self.fenced(event, outcome.action)

    @rule()
    def requeue(self):
        held, head = self.held(), self.server.log.head
        try:
            self.server.requeue_quarantined()
        except BackpressureError:
            # What could not be published is parked again, in order.
            assert self.server.log.lag == self.server.log.capacity
            assert held[len(held) - len(self.held()):] == self.held()
        else:
            assert self.held() == []
        # Each requeued delta is a new event under a derived id.
        for offset, new in zip(held, range(head, self.server.log.head)):
            original = self.published[offset]
            self.published[new] = StreamEvent(
                new, f"{original.event_id}#requeue", original.delta
            )
            self.requeued.add(offset)

    # -- invariants -----------------------------------------------------
    def held(self):
        """Offsets of the parked events, in hold order."""
        return [event.offset for _reason, event in self.server.parked]

    @invariant()
    def the_fence_is_the_model_window(self):
        assert tuple(self.server.versions.current.applied) == tuple(self.window)

    @invariant()
    def every_delta_is_applied_parked_or_pending(self):
        log, held = self.server.log, set(self.held())
        assert held == {
            offset
            for offset, action in self.fate.items()
            if action == "poisoned" and offset not in self.requeued
        }
        for offset in self.published:
            assert (
                offset >= log.committed
                or self.fate[offset] in ("applied", "skipped")
                or offset in held
                or offset in self.requeued
            ), offset

    @invariant()
    def quiescent_reads_equal_a_cold_prime_of_the_bag(self):
        version = self.server.versions.current
        if self.server.log.lag or version is self.checked_version:
            return
        store = TripleStore()
        store.add_all(self.bag.values())
        cold = fusion().begin_incremental(store)
        assert version.canonical_bytes() == cold.result.canonical_bytes()
        self.checked_version = version


class TestServingMachine(ServingMachine.TestCase):
    settings = settings(
        max_examples=250, stateful_step_count=40, deadline=None
    )


@pytest.mark.slow
class TestServingMachineLong(ServingMachine.TestCase):
    settings = settings(
        max_examples=1500, stateful_step_count=60, deadline=None
    )
