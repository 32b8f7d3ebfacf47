"""Serving example: a crash-riddled stream converges to the batch truth.

Spins up a :class:`repro.serving.server.KBServer` over a seeded claim
world, then streams the rest of the corpus at it as deltas while
injecting every failure mode the serving layer is built for:

* a **transient apply crash** (retried with deterministic backoff),
* a **post-commit crash** (the event is redelivered and the dedup
  fence skips it),
* a **duplicate publish** (the producer "retried"; same content id,
  skipped),
* a **poison delta** (parked with its reason in the server's
  dead-letter list, ``server.parked``; serving keeps answering,
  degraded, from the last good version; then re-enqueued and applied
  exactly once).

At the end the demo asserts the served verdicts are **byte-identical**
to a straight batch run — one ``KnowledgeFusion.fuse`` over the whole
corpus with no stream, no faults, no retries — and prints the version
history and a few reads.

Usage::

    PYTHONPATH=src python examples/serving_demo.py
"""

from repro.faults import FaultPlan, InjectedFault, RetryPolicy
from repro.fusion.knowledge_fusion import KnowledgeFusion
from repro.incremental import canonical_claims
from repro.obs.metrics import MetricsRegistry
from repro.rdf.store import TripleStore
from repro.serving.server import KBServer
from repro.serving.stream import EventLog
from repro.synth.claims import ClaimWorldConfig, generate_claim_world
from repro.synth.deltas import (
    DeltaStreamConfig,
    generate_delta_stream,
    scored_from_claims,
)


def build_world():
    world = generate_claim_world(
        ClaimWorldConfig(seed=23, n_items=12, n_sources=5)
    )
    scored = scored_from_claims(world.claims)
    # retract_fraction=0: the stream *partitions* the corpus, so the
    # fully-drained server must equal a batch fusion over all of it.
    base, deltas = generate_delta_stream(
        scored,
        DeltaStreamConfig(seed=23, parts=4, retract_fraction=0.0),
    )
    return scored, base, deltas


def main() -> int:
    scored, base, deltas = build_world()
    store = TripleStore()
    store.add_all(base)
    engine = KnowledgeFusion(
        tolerance=0.0, max_iterations=8
    ).begin_incremental(store)

    sleeps = []
    plan = (
        FaultPlan(seed=23)
        # Offset 0: crashes once inside the apply, then succeeds.
        .crash("stream:apply", index=0, attempts=1)
        # Offset 1: crashes after the version commit, before the
        # offset ack -> redelivered -> fence-skipped.
        .crash("stream:post-commit", index=1)
        # Offset 3: permanently poisoned (until requeued later).
        .crash("stream:apply", index=3, attempts=0)
    )
    metrics = MetricsRegistry()
    server = KBServer(
        engine,
        EventLog(capacity=64, metrics=metrics),
        retry=RetryPolicy(
            max_attempts=3, backoff_base=0.25, sleep=sleeps.append
        ),
        fault_plan=plan,
        metrics=metrics,
    )

    print(f"primed: {server.versions.current.describe()}")
    for delta in deltas:
        server.publish(delta)
    server.publish(deltas[2])  # producer retry: duplicate content id
    print(f"published {server.log.head} events ({len(deltas)} distinct)")

    outcomes = []
    while True:
        try:
            outcome = server.step()
        except InjectedFault as fault:
            print(f"  consumer crashed: {fault} -- restarting")
            continue
        if outcome is None:
            break
        outcomes.append(outcome)
        print(
            f"  offset {outcome.offset}: {outcome.action} "
            f"(attempts={outcome.attempts}, "
            f"version={outcome.version_id})"
        )
    print(f"retry backoffs taken: {sleeps}")

    status = server.status()
    print(
        f"degraded={status.degraded} poisoned={status.poisoned} "
        f"held={status.quarantined_held} lag={status.lag_events}"
    )
    assert status.degraded and status.quarantined_held == 1

    # The poison cause is gone: empty the server's dead-letter list
    # (server.parked) and reapply.
    server.fault_plan = None
    requeued = server.requeue_quarantined()
    print(f"requeued {len(requeued)} dead-letter delta(s)")
    for outcome in server.drain():
        print(
            f"  offset {outcome.offset}: {outcome.action} "
            f"(version={outcome.version_id})"
        )
    assert not server.status().degraded

    # The ground truth: one batch fusion over the whole corpus.
    batch_store = TripleStore()
    batch_store.add_all(scored)
    batch = KnowledgeFusion(tolerance=0.0, max_iterations=8).fuse(
        canonical_claims(batch_store)
    )
    served = server.versions.current
    assert served.canonical_bytes() == batch.canonical_bytes(), (
        "served state diverged from the batch run"
    )
    print(
        f"\nfinal version {served.version_id} "
        f"(sequence {served.sequence}) is byte-identical to the "
        "fault-free batch fusion"
    )

    reader = server.reader()
    print("top entities:")
    for subject, score in reader.top_entities(3):
        print(f"  {subject}: {score:.3f}")
        for view in reader.scan_subject(subject)[:2]:
            print(f"    {view.predicate} = {view.best()}")
    applied = metrics.counter("stream_events_applied_total").value
    skipped = metrics.counter("stream_duplicates_skipped_total").value
    print(f"applied={applied:.0f} duplicate-skipped={skipped:.0f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
