"""Unit tests for the mmapped segment storage backend."""

import hashlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

from repro.errors import StoreError
from repro.obs import MetricsRegistry
from repro.obs.schema import validate_metrics
from repro.rdf.backend import MemoryBackend
from repro.rdf.segments import (
    SegmentBackend,
    SegmentReader,
    build_segment_bytes,
)
from repro.rdf.store import TripleStore
from repro.rdf.triple import Provenance, ScoredTriple, Triple, Value


def claim(subject, predicate, value, source="src", extractor="ex",
          conf=1.0, locator=""):
    return ScoredTriple(
        Triple(subject, predicate, Value(value)),
        Provenance(source, extractor, locator),
        conf,
    )


def seg_store(tmp_path, **kwargs):
    kwargs.setdefault("memtable_limit", 4)
    return TripleStore(SegmentBackend(tmp_path / "store", **kwargs))


CORPUS = [
    claim("france", "capital", "Paris", source="a", conf=0.9),
    claim("france", "capital", "Lyon", source="b", conf=0.4),
    claim("france", "population", "67M", source="a", conf=0.7),
    claim("germany", "capital", "Berlin", source="a", conf=0.8),
    claim("germany", "capital", "Berlin", source="b", conf=0.6,
          locator="page-7"),
    claim("spain", "capital", "Madrid", source="c", extractor="dom"),
]


class TestSegmentFile:
    def test_round_trips_rows_and_tombstones(self, tmp_path):
        rows = [(i + 1, scored) for i, scored in enumerate(CORPUS)]
        tombs = [(Triple("old", "p", Value("v")), 99)]
        path = tmp_path / "one.seg"
        path.write_bytes(build_segment_bytes(rows, tombs))
        reader = SegmentReader(path)
        assert reader.n_rows == len(CORPUS)
        assert [reader.row_scored(i) for i in range(reader.n_rows)] == CORPUS
        assert list(reader.iter_tombstones()) == tombs
        assert not reader.canonical
        reader.close()

    def test_columns_are_zero_copy_views(self, tmp_path):
        rows = [(i + 1, scored) for i, scored in enumerate(CORPUS)]
        path = tmp_path / "one.seg"
        path.write_bytes(build_segment_bytes(rows, []))
        reader = SegmentReader(path)
        assert isinstance(reader.col_seq, memoryview)
        assert isinstance(reader.col_confidence, memoryview)
        assert reader.col_confidence[0] == pytest.approx(0.9)
        reader.close()

    def test_subject_slice_finds_all_rows(self, tmp_path):
        rows = [(i + 1, scored) for i, scored in enumerate(CORPUS)]
        path = tmp_path / "one.seg"
        path.write_bytes(build_segment_bytes(rows, []))
        reader = SegmentReader(path)
        france = sorted(reader.subject_rows("france"))
        assert france == [0, 1, 2]
        assert list(reader.subject_rows("narnia")) == []
        reader.close()

    def test_rejects_foreign_files(self, tmp_path):
        path = tmp_path / "junk.seg"
        path.write_bytes(b"NOTASEGMENT-----plus some trailing bytes")
        with pytest.raises(StoreError):
            SegmentReader(path)

    @pytest.mark.skipif(
        sys.byteorder != "little", reason="segments are native-endian"
    )
    @pytest.mark.parametrize(
        "canonical, digest",
        [
            (False, "b8b3271504a8307754f8338e2d7e1a30"
                    "448dfbf6d8cb3d0db73e8aa677e67cf6"),
            (True, "5e87a942a007e7f95b92ef7d3d491c63"
                   "63a298913bd6b26032bc337a972c3fad"),
        ],
    )
    def test_format_version_1_bytes_are_pinned(self, canonical, digest):
        # Taken from the writer that listed the columns by hand: the
        # declared layout must lay the same bytes down.
        rows = [(i + 1, scored) for i, scored in enumerate(CORPUS)]
        tombs = [(Triple("old", "p", Value("v")), 99)]
        blob = build_segment_bytes(rows, tombs, canonical=canonical)
        assert len(blob) == 1192
        assert hashlib.sha256(blob).hexdigest() == digest

    def test_refuses_a_file_of_the_wrong_length(self, tmp_path):
        # Every aligned prefix: inside the header, the tables, each
        # column.  Eight bytes short used to open with n_rows == 6 and
        # five key hashes, so the dedup filter missed a stored key.
        rows = [(i + 1, scored) for i, scored in enumerate(CORPUS)]
        tombs = [(Triple("old", "p", Value("v")), 99)]
        blob = build_segment_bytes(rows, tombs)
        path = tmp_path / "cut.seg"
        wrong = [blob[:cut] for cut in range(8, len(blob), 8)]
        wrong.append(blob + bytes(8))
        for damaged in wrong:
            path.write_bytes(damaged)
            with pytest.raises(StoreError):
                SegmentReader(path)
        path.write_bytes(blob)
        reader = SegmentReader(path)
        assert len(reader.key_hashes) == reader.n_rows == len(CORPUS)
        reader.close()


class TestSegmentBackendSemantics:
    def test_mirrors_memory_backend_on_basics(self, tmp_path):
        mem, seg = TripleStore(), seg_store(tmp_path)
        for scored in CORPUS:
            mem.add(scored)
            seg.add(scored)
        assert len(seg) == len(mem)
        assert seg.claims() == mem.claims()
        assert seg.subjects() == mem.subjects()
        assert seg.predicates() == mem.predicates()
        assert seg.predicates("france") == mem.predicates("france")
        assert seg.objects("france", "capital") == mem.objects(
            "france", "capital"
        )
        for triple in [s.triple for s in CORPUS]:
            assert (triple in seg) == (triple in mem)
            assert seg.claims(triple) == mem.claims(triple)
        assert sorted(map(str, seg.match(subject="france"))) == sorted(
            map(str, mem.match(subject="france"))
        )
        assert seg.match() == mem.match()

    def test_confidence_refresh_keeps_position(self, tmp_path):
        seg = seg_store(tmp_path, memtable_limit=2)  # forces flushes
        for scored in CORPUS:
            seg.add(scored)
        refreshed = CORPUS[0].with_confidence(0.95)
        seg.add(refreshed)
        assert len(seg) == len(CORPUS)
        assert seg.claims()[0].confidence == pytest.approx(0.95)

    def test_lower_confidence_duplicate_is_noop(self, tmp_path):
        seg = seg_store(tmp_path, memtable_limit=2)
        for scored in CORPUS:
            seg.add(scored)
        seg.flush()
        seg.add(CORPUS[0].with_confidence(0.1))
        assert seg.claims()[0].confidence == pytest.approx(0.9)
        assert len(seg) == len(CORPUS)

    def test_remove_then_readd_moves_to_end(self, tmp_path):
        mem, seg = TripleStore(), seg_store(tmp_path, memtable_limit=3)
        for store in (mem, seg):
            store.add_all(CORPUS)
            store.flush()
            assert store.remove(CORPUS[0].triple) == 1
            store.add(CORPUS[0])
        assert seg.claims() == mem.claims()
        assert seg.claims()[-1] == CORPUS[0]

    def test_remove_covers_segment_and_memtable_copies(self, tmp_path):
        seg = seg_store(tmp_path, memtable_limit=100)
        berlin = Triple("germany", "capital", Value("Berlin"))
        seg.add_all(CORPUS)
        seg.flush()  # both Berlin claims now segment-resident
        seg.add(claim("germany", "capital", "Berlin", source="b",
                      conf=0.99, locator="page-7"))  # memtable shadow
        assert seg.remove(berlin) == 2
        assert berlin not in seg
        assert seg.claims(berlin) == []
        assert "germany" not in seg.subjects()
        assert len(seg) == len(CORPUS) - 2

    def test_remove_of_memtable_only_keys_writes_no_tombstone(
        self, tmp_path
    ):
        backend = SegmentBackend(tmp_path / "s", memtable_limit=100)
        store = TripleStore(backend)
        store.add(CORPUS[0])
        assert store.remove(CORPUS[0].triple) == 1
        assert backend._tomb == {}
        assert len(store) == 0

    def test_missing_remove_returns_zero(self, tmp_path):
        seg = seg_store(tmp_path)
        seg.add_all(CORPUS)
        assert seg.remove(Triple("narnia", "capital", Value("x"))) == 0

    def test_add_all_enforces_memtable_limit_mid_batch(self, tmp_path):
        registry = MetricsRegistry()
        backend = SegmentBackend(
            tmp_path / "s", memtable_limit=2, metrics=registry
        )
        TripleStore(backend).add_all(CORPUS)
        # A 6-claim batch with a 2-entry memtable spills three times —
        # the batch never accumulates past the limit.
        assert registry.snapshot().counters["storage_flushes_total"] == 3
        assert len(backend._mem) == 0

    def test_add_all_accepts_a_one_shot_stream(self, tmp_path):
        backend = SegmentBackend(tmp_path / "s", memtable_limit=2)
        store = TripleStore(backend)
        store.add_all(iter(CORPUS))
        reference = TripleStore()
        reference.add_all(CORPUS)
        assert store.claims() == reference.claims()

    def test_journal_identity_contract_survives_flush_pressure(
        self, tmp_path
    ):
        # The delta journal checks `existing is scored` right after a
        # refreshing add; a refresh install must never trigger the
        # auto-flush that would replace the object with a segment copy.
        # memtable_limit=1 makes any flush check fire immediately, so
        # the refresh surviving proves refreshes skip the check.
        seg = seg_store(tmp_path, memtable_limit=1)
        seg.add_all(CORPUS)
        seg.flush()
        refreshed = CORPUS[3].with_confidence(0.99)
        seg.add(refreshed)
        assert any(
            existing is refreshed
            for existing in seg.claims(refreshed.triple)
        )


class TestDurability:
    def test_reopen_recovers_last_flush(self, tmp_path):
        directory = tmp_path / "s"
        store = TripleStore(SegmentBackend(directory, memtable_limit=100))
        store.add_all(CORPUS)
        store.remove(CORPUS[1].triple)
        store.flush()
        reopened = TripleStore(SegmentBackend(directory))
        assert reopened.claims() == store.claims()
        assert len(reopened) == len(store)
        assert reopened.subjects() == store.subjects()

    def test_unflushed_memtable_is_volatile(self, tmp_path):
        directory = tmp_path / "s"
        store = TripleStore(SegmentBackend(directory, memtable_limit=100))
        store.add_all(CORPUS)
        store.flush()
        store.add(claim("late", "p", "v"))  # never flushed
        reopened = TripleStore(SegmentBackend(directory))
        assert len(reopened) == len(CORPUS)

    def test_open_sweeps_unreferenced_segments_and_temps(self, tmp_path):
        directory = tmp_path / "s"
        store = TripleStore(SegmentBackend(directory, memtable_limit=100))
        store.add_all(CORPUS)
        store.flush()
        (directory / "seg-999-999.seg").write_bytes(b"orphan")
        (directory / "whatever.tmp").write_bytes(b"orphan")
        TripleStore(SegmentBackend(directory))
        assert not (directory / "seg-999-999.seg").exists()
        assert not (directory / "whatever.tmp").exists()


class TestCompaction:
    def test_compaction_folds_to_one_canonical_segment(self, tmp_path):
        directory = tmp_path / "s"
        registry = MetricsRegistry()
        store = TripleStore(
            SegmentBackend(directory, memtable_limit=2, metrics=registry)
        )
        store.add_all(CORPUS)
        store.flush()
        store.remove(CORPUS[0].triple)
        store.flush()
        before = store.claims()
        store.compact()
        assert registry.snapshot().gauges["storage_segments"] == 1
        # Old segment files are gone from disk.
        (path,) = directory.glob("seg-*.seg")
        reader = SegmentReader(path)
        assert reader.canonical
        assert reader.n_tombs == 0
        reader.close()
        assert store.claims() == before

    def test_canonical_fast_path_matches_general_merge(self, tmp_path):
        backend = SegmentBackend(tmp_path / "s", memtable_limit=2)
        store = TripleStore(backend)
        store.add_all(CORPUS)
        store.compact()
        fast = list(iter(store))
        # Defeat the fast path by adding a memtable entry.
        extra = claim("zz", "p", "v")
        store.add(extra)
        general = list(iter(store))
        assert general[:-1] == fast
        assert general[-1] == extra

    def test_auto_compaction_bounds_segment_count(self, tmp_path):
        registry = MetricsRegistry()
        store = TripleStore(
            SegmentBackend(
                tmp_path / "s", memtable_limit=1, compact_threshold=3,
                metrics=registry,
            )
        )
        for i in range(30):
            store.add(claim(f"s{i}", "p", f"v{i}"))
        assert registry.snapshot().gauges["storage_segments"] < 3 + 1


class TestCopyAndLifecycle:
    def test_copy_is_independent_for_mutations(self, tmp_path):
        seg = seg_store(tmp_path, memtable_limit=100)
        seg.add_all(CORPUS)
        seg.flush()
        staged = seg.copy()
        staged.add(claim("new", "p", "v"))
        staged.remove(CORPUS[0].triple)
        assert len(seg) == len(CORPUS)
        assert CORPUS[0].triple in seg
        assert CORPUS[0].triple not in staged
        assert len(staged) == len(CORPUS)  # -1 removed, +1 added

    def test_close_releases_mmaps(self, tmp_path):
        registry = MetricsRegistry()
        store = TripleStore(
            SegmentBackend(tmp_path / "s", memtable_limit=2, metrics=registry)
        )
        store.add_all(CORPUS)
        store.flush()
        assert registry.snapshot().gauges["storage_open_mmaps"] > 0
        store.close()
        assert registry.snapshot().gauges["storage_open_mmaps"] == 0

    def test_merge_between_backends(self, tmp_path):
        seg = seg_store(tmp_path)
        seg.add_all(CORPUS[:3])
        other = TripleStore()
        other.add_all(CORPUS[3:])
        seg.add_all(other.claims())
        mem = TripleStore()
        mem.add_all(CORPUS)
        assert seg.claims() == mem.claims()

    def test_validates_knobs(self, tmp_path):
        with pytest.raises(StoreError):
            SegmentBackend(tmp_path / "a", memtable_limit=0)
        with pytest.raises(StoreError):
            SegmentBackend(tmp_path / "b", compact_threshold=1)


class TestStorageMetrics:
    def test_storage_metrics_publish_and_validate(self, tmp_path):
        registry = MetricsRegistry()
        backend = SegmentBackend(
            tmp_path / "s", memtable_limit=2, compact_threshold=3,
            metrics=registry,
        )
        store = TripleStore(backend)
        store.add_all(CORPUS)
        store.flush()
        store.remove(CORPUS[0].triple)
        store.flush()
        store.compact()
        snapshot = registry.snapshot()
        counters = snapshot.counters
        assert counters["storage_flushes_total"] >= 2
        assert counters["storage_compactions_total"] >= 1
        assert counters["storage_tombstones_total"] >= 1
        assert counters["storage_segments_written_total"] >= 3
        assert snapshot.gauges["storage_segments"] == 1
        assert snapshot.gauges["storage_segment_bytes"] > 0
        assert snapshot.gauges["storage_open_mmaps"] == 1
        histograms = snapshot.histograms
        assert histograms["storage_flush_seconds"].count >= 2
        assert histograms["storage_compaction_seconds"].count >= 1
        # The exported document passes the obs schema validator.
        assert validate_metrics(snapshot.to_json_dict()) == []

    def test_timing_metrics_stay_out_of_deterministic_subset(
        self, tmp_path
    ):
        registry = MetricsRegistry()
        backend = SegmentBackend(
            tmp_path / "s", memtable_limit=2, metrics=registry
        )
        TripleStore(backend).add_all(CORPUS)
        backend.flush()
        deterministic = registry.snapshot().deterministic_subset()
        assert "storage_flush_seconds" not in deterministic["histograms"]
        assert "storage_flushes_total" in deterministic["counters"]


class TestMemoryBackendBatchAddAll:
    def test_batch_add_all_equals_repeated_add(self):
        one, batch = MemoryBackend(), MemoryBackend()
        corpus = CORPUS + [
            CORPUS[0].with_confidence(0.95),  # refresh inside the batch
            CORPUS[2].with_confidence(0.1),  # dedup no-op
        ]
        for scored in corpus:
            one.add(scored)
        batch.add_all(corpus)
        assert list(one.iter_claims()) == list(batch.iter_claims())
        assert one.subjects() == batch.subjects()
        assert one.predicates() == batch.predicates()
        assert one.match() == batch.match()
        assert len(one) == len(batch)


# Streams 200 000 distinct claims with 600-byte lexicals into a segment
# store (``segment``), a memory store (``memory``) or nowhere (``probe``:
# the interpreter-plus-imports baseline) and prints the peak of its own
# anonymous resident memory, sampled every 500 claims.  Anonymous, not
# total: ``ru_maxrss`` is inherited from the spawning process, and total
# RSS counts the touched pages of mmapped segment files, which are page
# cache the kernel may drop.
_INGEST_CHILD = """
import json, sys
from repro.rdf.segments import SegmentBackend
from repro.rdf.store import TripleStore
from repro.rdf.triple import Provenance, ScoredTriple, Triple, Value

role, directory = sys.argv[1:]
peak = 0

def sample():
    global peak
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("RssAnon:"):
                peak = max(peak, int(line.split()[1]) * 1024)

def stream(n_claims=200_000, pad="x" * 600):
    for i in range(n_claims):
        if i % 500 == 0:
            sample()
        yield ScoredTriple(
            Triple(f"item-{i % (n_claims // 4):07d}", f"p{i % 5}",
                   Value.string(f"{pad}-{i}")),
            Provenance(f"src-{i % 97}", "bulk"),
            0.5 + (i % 50) / 100,
        )

count = 0
if role != "probe":
    # Full compaction materializes the corpus; it has its own tests.
    store = TripleStore(
        SegmentBackend(directory, memtable_limit=2000, compact_threshold=10**9)
        if role == "segment" else None
    )
    store.add_all(stream())
    store.flush()
    count = len(store)
sample()
print(json.dumps({"claims": count, "peak_anon_bytes": peak}))
"""


@pytest.mark.slow
@pytest.mark.skipif(
    not sys.platform.startswith("linux"), reason="reads /proc/self/status"
)
def test_segment_ingest_stays_under_a_budget_the_corpus_exceeds(tmp_path):
    """A corpus at least twice a 96 MiB headroom budget streams into a
    segment store under the budget (memtable 2 000 claims), while the
    same corpus in a memory store goes over it."""
    budget = 96 << 20
    src = pathlib.Path(__file__).resolve().parents[2] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = f"{src}{os.pathsep}{env.get('PYTHONPATH', '')}"

    def spawn(role):
        proc = subprocess.run(
            [sys.executable, "-c", _INGEST_CHILD, role,
             str(tmp_path / "segments")],
            env=env, capture_output=True, text=True, check=True, timeout=600,
        )
        return json.loads(proc.stdout.splitlines()[-1])

    baseline = spawn("probe")["peak_anon_bytes"]
    segment, memory = spawn("segment"), spawn("memory")
    assert segment["claims"] == memory["claims"] == 200_000
    assert memory["peak_anon_bytes"] - baseline >= 2 * budget
    assert segment["peak_anon_bytes"] - baseline <= budget
