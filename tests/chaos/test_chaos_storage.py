"""Chaos tests for the segment store: crashes cannot tear a segment.

The contract under test: a crash injected at any durability phase of a
flush or compaction (before the temp write, before the segment rename,
before the manifest rename, after the manifest but before the
in-memory commit) leaves the directory recoverable at exactly the
previous-or-new flush point — reopening never sees a torn segment,
never loses durable claims, and a retry after the fault converges to
the same state a fault-free run produces.
"""

import json

import pytest

from repro.faults import FaultPlan, InjectedFault
from repro.obs import MetricsRegistry
from repro.rdf.segments import SegmentBackend, SegmentReader
from repro.rdf.store import TripleStore
from repro.rdf.triple import Provenance, ScoredTriple, Triple, Value


def claim(subject, predicate, value, source="src", extractor="ex",
          conf=1.0):
    return ScoredTriple(
        Triple(subject, predicate, Value(value)),
        Provenance(source, extractor),
        conf,
    )


CORPUS = [
    claim(f"s{i % 7}", f"p{i % 3}", f"v{i}", source=f"src{i % 5}",
          conf=0.5 + (i % 10) / 20)
    for i in range(40)
]


def _manifest_segments(directory):
    """Names of the segment files the on-disk manifest references."""
    return json.loads((directory / "MANIFEST.json").read_text())["segments"]


def _reopen(directory):
    return TripleStore(SegmentBackend(directory))


class TestFlushCrashes:
    @pytest.mark.parametrize("phase", [0, 1, 2, 3])
    def test_reopen_is_pre_or_post_flush_never_torn(self, tmp_path, phase):
        directory = tmp_path / "s"
        baseline = TripleStore(SegmentBackend(directory, memtable_limit=100))
        baseline.add_all(CORPUS[:20])
        baseline.flush()
        pre = baseline.claims()
        baseline.close()

        plan = FaultPlan(seed=7).crash("storage:flush", index=phase)
        backend = SegmentBackend(
            directory, memtable_limit=100, fault_plan=plan
        )
        store = TripleStore(backend)
        store.add_all(CORPUS[20:])
        post = store.claims()
        with pytest.raises(InjectedFault):
            store.flush()

        # The crashed writer's in-memory view is still fully correct.
        assert store.claims() == post

        # Disk is at exactly the previous or the new flush point.
        recovered = _reopen(directory).claims()
        if phase < 3:
            assert recovered == pre  # manifest never landed
        else:
            assert recovered == post  # manifest landed; commit didn't

        # A retry with the transient fault gone converges to the
        # fault-free outcome, with no duplicated rows from the
        # half-finished attempt.
        backend.fault_plan = None
        store.flush()
        assert store.claims() == post
        assert _reopen(directory).claims() == post

    def test_auto_flush_crash_surfaces_but_store_stays_usable(
        self, tmp_path
    ):
        plan = FaultPlan(seed=7).crash("storage:flush", index=0)
        backend = SegmentBackend(
            tmp_path / "s", memtable_limit=5, fault_plan=plan
        )
        store = TripleStore(backend)
        with pytest.raises(InjectedFault):
            store.add_all(CORPUS)
        # Whatever made it in is still queryable and internally
        # consistent.
        assert len(store) == len(store.claims())
        backend.fault_plan = None
        remaining = [
            scored for scored in CORPUS
            if scored not in store.claims()
        ]
        store.add_all(remaining)
        store.flush()
        reference = TripleStore()
        reference.add_all(CORPUS)
        assert _reopen(tmp_path / "s").claims() == reference.claims()


class TestCompactionCrashes:
    @pytest.mark.parametrize("phase", [0, 1, 2, 3])
    def test_content_is_invariant_across_crash_points(self, tmp_path, phase):
        directory = tmp_path / "s"
        plan = FaultPlan(seed=7).crash("storage:compaction", index=phase)
        registry = MetricsRegistry()
        backend = SegmentBackend(
            directory,
            memtable_limit=5,
            compact_threshold=100,  # keep auto-compaction out of the way
            fault_plan=plan,
            metrics=registry,
        )
        store = TripleStore(backend)
        store.add_all(CORPUS)
        assert store.remove(CORPUS[0].triple) == 1
        store.flush()
        expected = store.claims()
        assert registry.snapshot().gauges["storage_segments"] > 1

        with pytest.raises(InjectedFault):
            store.compact()

        # Compaction never changes logical content, so every crash
        # point must recover to the same claims — only the physical
        # layout (old segments vs one canonical segment) may differ.
        assert store.claims() == expected
        assert _reopen(directory).claims() == expected

        backend.fault_plan = None
        store.compact()
        assert store.claims() == expected
        assert registry.snapshot().gauges["storage_segments"] == 1
        (name,) = _manifest_segments(directory)
        reader = SegmentReader(directory / name)
        assert reader.canonical
        reader.close()
        assert _reopen(directory).claims() == expected

    def test_crashed_compaction_leaves_no_referenced_garbage(
        self, tmp_path
    ):
        directory = tmp_path / "s"
        plan = FaultPlan(seed=7).crash("storage:compaction", index=2)
        backend = SegmentBackend(
            directory, memtable_limit=5, compact_threshold=100,
            fault_plan=plan,
        )
        store = TripleStore(backend)
        store.add_all(CORPUS)
        store.flush()
        with pytest.raises(InjectedFault):
            store.compact()
        # The abandoned canonical segment is unreferenced; open-time
        # recovery sweeps it and every temp file.
        SegmentBackend(directory)
        on_disk = {path.name for path in directory.glob("seg-*")}
        assert on_disk == set(_manifest_segments(directory))
        assert list(directory.glob("*.tmp")) == []


class TestFaultFreeEquivalence:
    @pytest.mark.parametrize("phase", [0, 1, 2, 3])
    def test_survived_schedule_matches_fault_free_bytes(
        self, tmp_path, phase
    ):
        """A run that retries through a crash ends byte-identical (via
        claims equality, which pins the fusion input) to a run that
        never faulted."""
        clean = TripleStore(
            SegmentBackend(tmp_path / "clean", memtable_limit=100)
        )
        clean.add_all(CORPUS)
        clean.flush()

        plan = FaultPlan(seed=7).crash("storage:flush", index=phase)
        backend = SegmentBackend(
            tmp_path / "chaos", memtable_limit=100, fault_plan=plan
        )
        chaotic = TripleStore(backend)
        chaotic.add_all(CORPUS)
        with pytest.raises(InjectedFault):
            chaotic.flush()
        backend.fault_plan = None
        chaotic.flush()

        assert chaotic.claims() == clean.claims()
        assert (
            _reopen(tmp_path / "chaos").claims()
            == _reopen(tmp_path / "clean").claims()
        )
