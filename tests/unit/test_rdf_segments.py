"""Unit tests for the mmapped segment storage backend."""

import base64
import collections
import hashlib
import json
import os
import pathlib
import struct
import subprocess
import sys
import zlib

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
from repro.fusion.base import FusionResult
from repro.fusion.readindex import patched
from repro.rdf.store import TripleStore
from repro.rdf.triple import Provenance, ScoredTriple, Triple, Value
from repro.serving.query import KBReader
from repro.serving.version import KBVersion


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


# The two files version 3 wrote for CORPUS plus one tombstone, plain
# and canonical (zlib, then base64).  No writer of that format is kept,
# so its bytes are kept here to show that a reader refuses them.
VERSION_3_BLOBS = {
    False: (
        "eNoLcg0I8g92dWdmQAVsUJoRSntAaRY0+bSixLzkVHYoLz21KDcxr5IVyi0uSMzMg5mc"
        "n5MCJB2gPJgoTGdyYkFmSWIOF5RbkF9QmpNYkpmfB3NAAYRKQLMfZlVAYlFmMcxxPpX5"
        "cGvNzH1hap1Si3Iy82A838SUoswUmPFlUNoAzX0w+UQYIwnGSAaTGlAeExqdWgEzISU/"
        "F4s69HAuSExP1TVH2MeE5g4WNP+yMeAHjGg0EwF1DESah+4udPeRCxiJtJdS8wipO3sG"
        "BN7Yz5oJAjft08DgGZT/0t4YDB7bQ1R/sE9GCwcmtHgiNhxZcOhjxhHvMBoASVs6fg=="
    ),
    True: (
        "eNoLcg0I8g92dWdmgABGKM2GxveA0ixo8mlFiXnJqexQXnpqUW5iXiUrlFtckJiZBzM5"
        "PycFSDpAeTBRmM7kxILMksQcLii3IL+gNCexJDM/D+aAAgiVgGY/zKqAxKLMYpjjfCrz"
        "4daamfvC1DqlFuVk5sF4vokpRZkpMOPLoLQBmvtg8okwRhKMkQwmNaA8JjQ6tQJmQkp+"
        "LhZ1DGj+KEhMT9U1R9jHhOYOFjT/sjHgB4xoNBMBdQxEmofuLnT3kQsYibSXUvMIqTt7"
        "BgTe2M+aCQI37dPA4BmU/9LeGAwe20NUf7BPRgsHJrR4IjYcWXDoY8YR7zAaAE0LOn8="
    ),
}


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
        france = sorted(
            reader.subject_rows(reader.string_id("subjects", "france"))
        )
        assert france == [0, 1, 2]
        assert reader.string_id("subjects", "narnia") is None
        reader.close()

    def test_rejects_foreign_files(self, tmp_path):
        path = tmp_path / "junk.seg"
        path.write_bytes(b"NOTASEGMENT-----plus some trailing bytes")
        with pytest.raises(StoreError):
            SegmentReader(path)

    @pytest.mark.skipif(
        sys.byteorder != "little", reason="segments are native-endian"
    )
    def test_format_version_4_bytes_are_pinned(self):
        # These bytes decode to the rows, tombstones and SPO entries of
        # version 3's pinned blob, string for string and number for
        # number: only the header (no flags; each table's entry count
        # and byte length) and the tables (UTF-8 bytes plus a column
        # of end offsets, no length prefixes) are laid down anew.
        rows = [(i + 1, scored) for i, scored in enumerate(CORPUS)]
        tombs = [(Triple("old", "p", Value("v")), 99)]
        blob = build_segment_bytes(rows, tombs)
        assert len(blob) == 1000
        assert hashlib.sha256(blob).hexdigest() == (
            "dfff7deeaef1fbeb67dd3a43d1a0c23e"
            "278257e16283049ad0595c52d837db3d"
        )

    @pytest.mark.skipif(
        sys.byteorder != "little", reason="segments are native-endian"
    )
    @pytest.mark.parametrize(
        "canonical, digest",
        [
            (False, "13a6ad73e892d3f852f96b1e063b3aa7"
                    "3fb4e41ba690ad11e0bf7a8162db153e"),
            (True, "f987941f6593511515ec5def41ad1688"
                   "2360f88d42c36c15088c481a4dcbfe7d"),
        ],
    )
    def test_format_version_3_bytes_are_pinned(
        self, tmp_path, canonical, digest
    ):
        # The very bytes version 3 wrote, plain and canonical, are
        # refused by their version, not misread as a version-4 file.
        blob = zlib.decompress(base64.b64decode(VERSION_3_BLOBS[canonical]))
        assert len(blob) == 960
        assert hashlib.sha256(blob).hexdigest() == digest
        path = tmp_path / "v3.seg"
        path.write_bytes(blob)
        with pytest.raises(
            StoreError, match="unsupported segment version 3"
        ):
            SegmentReader(path)

    def test_refuses_a_version_1_file(self, tmp_path):
        # A version-1 file also holds POS / OSP permutations, a
        # version-2 file a key-hash column, a version-3 file
        # length-prefixed tables and a flags field; no reader of any
        # is kept, so each is refused, not misread.
        rows = [(i + 1, scored) for i, scored in enumerate(CORPUS)]
        path = tmp_path / "old.seg"
        for version in (1, 2, 3):
            blob = bytearray(build_segment_bytes(rows, []))
            struct.pack_into("=q", blob, 8, version)
            path.write_bytes(bytes(blob))
            with pytest.raises(
                StoreError, match=f"unsupported segment version {version}"
            ):
                SegmentReader(path)

    def test_refuses_a_file_of_the_wrong_length(self, tmp_path):
        # Every aligned prefix: inside the header, the tables, each
        # column.  Eight bytes short used to open with n_rows == 6 and
        # its last column, subj_start, one entry short.
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
        assert reader.n_rows == len(reader.col_confidence) == len(CORPUS)
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
            assert store.remove(CORPUS[0].triple) == [CORPUS[0]]
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
        # Both, in iteration order: the memtable shadow at its
        # segment-resident claim's position.
        assert seg.remove(berlin) == [
            CORPUS[3],
            claim("germany", "capital", "Berlin", source="b", conf=0.99,
                  locator="page-7"),
        ]
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
        assert store.remove(CORPUS[0].triple) == [CORPUS[0]]
        assert backend._tomb == {}
        assert len(store) == 0

    def test_missing_remove_returns_zero(self, tmp_path):
        seg = seg_store(tmp_path)
        seg.add_all(CORPUS)
        assert seg.remove(Triple("narnia", "capital", Value("x"))) == []

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

    @pytest.mark.skipif(
        not os.path.isdir("/proc/self/fd"), reason="counts /proc/self/fd"
    )
    def test_a_refused_segment_leaves_none_mapped(self, tmp_path):
        """A listed segment refused at open (here cut by 8 bytes) makes
        the open raise with the segments it already opened unmapped:
        errors kept alive — each traceback holds its half-built
        backend — hold no file descriptor."""
        directory = tmp_path / "s"
        backend = SegmentBackend(directory, memtable_limit=100)
        backend.add_all(CORPUS[:3])
        backend.flush()
        backend.add_all(CORPUS[3:])
        backend.flush()
        backend.close()
        names = json.loads((directory / "MANIFEST.json").read_text())
        assert len(names["segments"]) == 2
        cut = directory / names["segments"][-1]
        cut.write_bytes(cut.read_bytes()[:-8])

        def open_descriptors():
            return len(os.listdir("/proc/self/fd"))

        kept = []
        before = open_descriptors()
        for _ in range(5):
            with pytest.raises(StoreError, match="its header says") as info:
                SegmentBackend(directory)
            kept.append(info.value)
        assert open_descriptors() == before


def _open_descriptors():
    return len(os.listdir("/proc/self/fd"))


def _damaged_store(directory, damage):
    """A two-segment store (``CORPUS[:3]`` then ``CORPUS[3:]``), closed,
    its second segment's bytes replaced by ``damage(bytes)``."""
    backend = SegmentBackend(directory, memtable_limit=100)
    backend.add_all(CORPUS[:3])
    backend.flush()
    backend.add_all(CORPUS[3:])
    backend.flush()
    backend.close()
    names = json.loads((directory / "MANIFEST.json").read_text())
    damaged = directory / names["segments"][-1]
    damaged.write_bytes(damage(damaged.read_bytes()))
    return damaged


def _offsets(utf8, count, edit):
    """A damage: the end offsets of the table whose bytes are ``utf8``
    (``count`` entries; its offsets column lies just before them)
    replaced by ``edit(offsets)``."""

    def damage(blob):
        at = blob.index(utf8) - 8 * (count + 1)
        shape = f"={count + 1}q"
        ends = edit(list(struct.unpack_from(shape, blob, at)))
        return blob[:at] + struct.pack(shape, *ends) + blob[at + 8 * len(ends):]

    return damage


# Offset damages, each one a check of the decode alone would miss:
# without it the table decodes into strings cut at the wrong bytes.
def _past(ends):
    return ends[:-1] + [ends[-1] + 1]  # the last entry gains a pad byte


def _decreasing(ends):
    return [0, -1] + ends[2:]  # the first entry reads all but the last byte


def _not_from_zero(ends):
    return [1] + ends[1:]  # the first entry loses its first byte


class TestCorruptStringTablesAreRefused:
    """A string table whose bytes are not UTF-8, or whose end offsets
    do not climb from 0 to its byte length, is refused with
    ``StoreError`` naming the file and the table, not decoded into a
    ``UnicodeDecodeError`` or into strings cut at the wrong bytes."""

    @pytest.mark.skipif(
        not os.path.isdir("/proc/self/fd"), reason="counts /proc/self/fd"
    )
    @pytest.mark.parametrize(
        "damage",
        [
            lambda blob: blob.replace(b"spain", b"\xffpain"),
            _offsets(b"germanyspain", 2, _past),
            _offsets(b"germanyspain", 2, _decreasing),
            _offsets(b"germanyspain", 2, _not_from_zero),
        ],
        ids=["not-utf8", "end-past", "decreasing", "not-from-zero"],
    )
    def test_a_corrupt_subjects_table_is_refused_at_open(
        self, tmp_path, damage
    ):
        """The subject route decodes each segment's subjects table as
        the segment opens: the open raises, with the segments it
        already opened unmapped."""
        directory = tmp_path / "s"
        damaged = _damaged_store(directory, damage)
        kept = []
        before = _open_descriptors()
        for _ in range(5):
            with pytest.raises(
                StoreError, match="corrupt subjects table"
            ) as info:
                SegmentBackend(directory)
            assert str(damaged) in str(info.value)
            kept.append(info.value)
        assert _open_descriptors() == before

    @pytest.mark.parametrize(
        "damage",
        [
            lambda blob: blob.replace(b"capital", b"\xffapital"),
            _offsets(b"capital", 1, _past),
            _offsets(b"capital", 1, _decreasing),
            _offsets(b"capital", 1, _not_from_zero),
        ],
        ids=["not-utf8", "end-past", "decreasing", "not-from-zero"],
    )
    def test_a_corrupt_predicates_table_is_refused_at_first_read(
        self, tmp_path, damage
    ):
        directory = tmp_path / "s"
        damaged = _damaged_store(directory, damage)
        backend = SegmentBackend(directory)
        try:
            with pytest.raises(
                StoreError, match="corrupt predicates table"
            ) as info:
                backend.count_for_item("germany", "capital")
            assert str(damaged) in str(info.value)
            # The first segment's tables are whole: its reads answer.
            assert backend.count_for_item("france", "capital") == 2
        finally:
            backend.close()


def _tombstoned_store(directory):
    """A closed two-segment store whose second segment holds one
    tombstone, of ``CORPUS[0]`` (held by the first), and the name of
    that second segment."""
    backend = SegmentBackend(directory, memtable_limit=100)
    backend.add_all(CORPUS[:3])
    backend.flush()
    backend.remove(CORPUS[0].triple)
    backend.add_all(CORPUS[3:])
    backend.flush()
    backend.close()
    names = json.loads((directory / "MANIFEST.json").read_text())
    return directory / names["segments"][-1]


def test_reopening_decodes_no_table_for_a_tombstone(tmp_path):
    """A tombstone's strings are read entry by entry at open: no reader
    decodes its predicates or lexicals table until a read needs it."""
    directory = tmp_path / "s"
    second = _tombstoned_store(directory)
    backend = SegmentBackend(directory)
    try:
        readers = backend._segments
        assert [reader.path for reader in readers][-1] == second
        assert readers[-1].n_tombs == 1
        for reader in readers:
            assert not {"predicates", "lexicals"} & set(vars(reader))
        assert CORPUS[0].triple in backend._tomb
        assert not backend.contains_triple(CORPUS[0].triple)
        assert backend.count_for_item("france", "capital") == 1
    finally:
        backend.close()


@pytest.mark.skipif(
    not os.path.isdir("/proc/self/fd"), reason="counts /proc/self/fd"
)
@pytest.mark.parametrize(
    "edit",
    [
        lambda ends, i: ends[:i + 1] + [ends[-1] + 8] + ends[i + 2:],
        lambda ends, i: ends[:i] + [ends[i + 1] + 1] + ends[i + 1:],
    ],
    ids=["end-past", "decreasing"],
)
def test_a_corrupt_tombstone_entry_is_refused_at_open(tmp_path, edit):
    """The offsets of the entry a tombstone names are checked before it
    is read: a bad one refuses the open, the segments already opened
    unmapped."""
    directory = tmp_path / "s"
    second = _tombstoned_store(directory)
    reader = SegmentReader(second)
    lexical = reader.tomb_lexical[0]
    utf8 = bytes(reader.lexicals_utf8)
    count = len(reader.lexicals_end) - 1
    reader.close()
    blob = second.read_bytes()
    second.write_bytes(
        _offsets(utf8, count, lambda ends: edit(ends, lexical))(blob)
    )
    kept = []
    before = _open_descriptors()
    for _ in range(5):
        with pytest.raises(StoreError, match="corrupt lexicals table") as info:
            SegmentBackend(directory)
        assert str(second) in str(info.value)
        kept.append(info.value)
    assert _open_descriptors() == before


def _listing(*extra):
    """A manifest edit: the good segment list plus ``extra`` names."""
    return lambda good: {**good, "segments": good["segments"] + list(extra)}


class TestManifestIsRefusedNotMisread:
    """A manifest that is not what a flush writes — not JSON, not an
    object, a field missing or of the wrong type, a segment name that
    is not a bare ``seg-*.seg`` name, a listed file that is gone — is
    refused with ``StoreError`` at open, before the orphan sweep: the
    store's segment file is still there afterwards."""

    @pytest.mark.parametrize("edit", [
        lambda good: b"{not json",
        lambda good: b"\xff\xfe",
        lambda good: [good],
        lambda good: None,
        lambda good: {k: v for k, v in good.items() if k != "version"},
        lambda good: {k: v for k, v in good.items() if k != "live"},
        lambda good: {**good, "version": 2},
        lambda good: {**good, "version": True},
        lambda good: {**good, "next_seq": str(good["next_seq"])},
        lambda good: {**good, "live": float(good["live"])},
        lambda good: {**good, "segments": good["segments"][0]},
        _listing(7),
        _listing("../seg-1-1.seg"),
        _listing("sub/seg-1-1.seg"),
        _listing("MANIFEST.json"),
        _listing("seg-1-1.seg"),  # no such file
    ], ids=[
        "not-json", "not-utf8", "list", "null", "no-version", "no-live",
        "version-2", "version-true", "next-seq-str", "live-float",
        "segments-str", "name-int", "name-dotdot", "name-separator",
        "name-manifest", "name-missing",
    ])
    def test_refused_before_any_file_is_swept(self, tmp_path, edit):
        directory = tmp_path / "s"
        store = SegmentBackend(directory, memtable_limit=100)
        store.add_all(CORPUS)
        store.flush()
        store.close()
        manifest = directory / "MANIFEST.json"
        good = json.loads(manifest.read_text())
        (segment,) = good["segments"]
        bad = edit(good)
        if not isinstance(bad, bytes):
            bad = json.dumps(bad).encode()
        manifest.write_bytes(bad)
        with pytest.raises(StoreError):
            SegmentBackend(directory)
        assert (directory / segment).exists()
        manifest.write_text(json.dumps(good))
        assert SegmentBackend(directory).claims() == CORPUS


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
        assert reader.n_tombs == 0
        assert reader.col_seq.tolist() == sorted(reader.col_seq.tolist())
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


@pytest.fixture
def read_work(monkeypatch):
    """Calls, while the test runs, of the reader's units of read work —
    a string-id probe, a row materialization, a row's string key, a
    whole-column scan, a segment's item, subject or triple slice (the
    row helpers that take a subject id) — and of ``Triple.__eq__`` and
    ``Value.__eq__`` (counted as ``"Value.__eq__"``), the units of a
    walk over memtable keys; ``"Triple"`` counts the triples built."""
    counts = collections.Counter()

    def count(owner, name, unit=None):
        raw = getattr(owner, name)

        def counted(*args, **kwargs):
            counts[unit or name] += 1
            return raw(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    count(SegmentReader, "string_id")
    count(SegmentReader, "row_scored")
    count(SegmentReader, "row_key")
    count(SegmentReader, "live_rows")
    count(SegmentReader, "item_rows")
    count(SegmentReader, "subject_rows")
    count(SegmentReader, "triple_rows")
    count(Triple, "__eq__")
    count(Value, "__eq__", "Value.__eq__")
    count(Triple, "__post_init__", "Triple")
    return counts


class TestReadsCostTheAnswer:
    """An item, triple or subject read — and a ``remove`` — on a store
    carrying hundreds of tombstones and a full memtable does the work
    of the same call on a store holding only its live claims, in the
    same number of segments: counts, not time, in the style of
    ``tests/unit/test_collector_budget.py``.  The slack is one call
    per segment (a segment missing a string answers in fewer probes).
    Projecting the tombstone map onto every segment per read, or
    walking the memtable, is hundreds of calls over it."""

    SEGMENTS = 5

    @staticmethod
    def _corpus():
        # 250 subjects x 2 predicates x 4 values, a second source on
        # every third triple.
        first = [
            claim(f"s{i // 8:03d}", f"p{i % 2}", f"v{(i // 2) % 4}",
                  source="a", conf=0.5 + (i % 5) / 10)
            for i in range(2000)
        ]
        return first + [
            ScoredTriple(one.triple, Provenance("b", "ex"), 0.4)
            for one in first[::3]
        ]

    @classmethod
    def _stores(cls, tmp_path):
        corpus = cls._corpus()
        heavy = SegmentBackend(
            tmp_path / "heavy", memtable_limit=10**6,
            compact_threshold=10**6,
        )
        quarter = -(-len(corpus) // 4)
        for start in range(0, len(corpus), quarter):
            heavy.add_all(corpus[start:start + quarter])
            heavy.flush()
        dead = [one.triple for one in corpus[:2000:6]]  # 334 triples
        for triple in dead[:150]:
            assert heavy.remove(triple)
        heavy.flush()  # a fifth segment: tombstones only
        for triple in dead[150:]:
            assert heavy.remove(triple)
        # The memtable: a new value on every item, and 50 of the dead
        # triples back under a new source.
        for index, one in enumerate(corpus[:2000:4]):
            heavy.add(claim(one.triple.subject, one.triple.predicate,
                            f"new-{index}", source="m", conf=0.7))
        for triple in dead[::7][:50]:
            heavy.add(ScoredTriple(triple, Provenance("z", "ex"), 0.9))
        assert len(heavy._segments) == cls.SEGMENTS
        assert len(heavy._tomb) >= 300 and len(heavy._mem) >= 500

        live = heavy.claims()
        light = SegmentBackend(
            tmp_path / "light", memtable_limit=10**6,
            compact_threshold=10**6,
        )
        fifth = -(-len(live) // cls.SEGMENTS)
        for start in range(0, len(live), fifth):
            light.add_all(live[start:start + fifth])
            light.flush()
        assert len(light._segments) == cls.SEGMENTS
        assert not light._tomb and not light._mem
        assert light.claims() == live
        return corpus, dead, heavy, light

    def test_reads_do_the_work_of_a_store_without_tombstones_or_memtable(
        self, tmp_path, read_work
    ):
        corpus, dead, heavy, light = self._stores(tmp_path)
        probes = [
            dead[1],  # tombstoned in a flushed segment
            dead[200],  # tombstoned in the memtable
            dead[7],  # tombstoned, then back in the memtable
            corpus[4].triple,  # its item has a memtable claim
            corpus[9].triple,  # the memtable never touched its item
            Triple("s-none", "p0", Value("v0")),  # absent
        ]

        def work(call):
            read_work.clear()
            answer = call()
            return answer, dict(read_work)

        for triple in probes:
            subject, predicate = triple.item
            for name, call in [
                ("claims_for_item",
                 lambda store: store.claims_for_item(subject, predicate)),
                ("count_for_item",
                 lambda store: store.count_for_item(subject, predicate)),
                ("claims", lambda store: store.claims(triple)),
                ("contains_triple",
                 lambda store: store.contains_triple(triple)),
                ("predicates", lambda store: store.predicates(subject)),
                ("remove", lambda store: store.copy().remove(triple)),
            ]:
                heavy_answer, heavy_work = work(lambda: call(heavy))
                light_answer, light_work = work(lambda: call(light))
                assert heavy_answer == light_answer, (name, triple)
                # A memtable hit may answer with less (contains_triple
                # of a revived triple reads no segment), never more.
                for unit in ("string_id", "row_scored", "__eq__"):
                    assert heavy_work.get(unit, 0) <= (
                        light_work.get(unit, 0) + self.SEGMENTS
                    ), (name, triple, unit, heavy_work, light_work)

    def test_counts_and_subject_predicates_decode_no_claim(
        self, tmp_path, read_work
    ):
        """``count_for_item``, a reader's ``lookup`` (which reads the
        count) and ``predicates(subject)`` build no claim and examine
        exactly the item's (the subject's) rows of each segment, dead
        ones included: no whole-column scan.  Their answers are the
        decoding reads'."""
        corpus, dead, heavy, light = self._stores(tmp_path)
        store = TripleStore(heavy)
        reader = KBReader(KBVersion(
            version_id=0, sequence=0, store=store,
            result=FusionResult(method="none"),
            read_index=patched(None, FusionResult(method="none")),
        ))

        def rows_of(subject, predicate=None):
            # Candidate rows by a scan of the subject / predicate columns.
            total = 0
            for seg in heavy._segments:
                sid = seg.string_id("subjects", subject)
                pid = seg.string_id("predicates", predicate or "")
                total += sum(
                    1 for row in range(seg.n_rows)
                    if seg.col_subject[row] == sid
                    and (predicate is None or seg.col_predicate[row] == pid)
                )
            return total

        probes = [dead[1], dead[200], dead[7], corpus[4].triple,
                  corpus[9].triple, Triple("s-none", "p0", Value("v0"))]
        examined = 0
        for triple in probes:
            subject, predicate = triple.item
            decoded = heavy.claims_for_item(subject, predicate)
            subject_claims = [
                one for one in heavy.claims() if one.triple.subject == subject
            ]
            for call, answer, rows in [
                (lambda: heavy.count_for_item(subject, predicate),
                 len(decoded), rows_of(subject, predicate)),
                (lambda: reader.lookup(subject, predicate).claims,
                 len(decoded), rows_of(subject, predicate)),
                (lambda: heavy.predicates(subject),
                 {one.triple.predicate for one in subject_claims},
                 rows_of(subject)),
            ]:
                read_work.clear()
                assert call() == answer, triple
                assert read_work["row_scored"] == 0, triple
                assert read_work["live_rows"] == 0, triple
                assert read_work["row_key"] == rows, triple
                examined += rows
        assert examined > 0


def test_memtable_pattern_match_walks_each_key_once(tmp_path, read_work):
    """``match(obj=…)`` and ``match(predicate=…)`` over the memtable walk
    its claim keys once: a ``Value.__eq__`` per key at most, plus a
    constant.  The memtable is a memory backend, which keeps one index
    (SPO) because every stage reads by item; a pattern with an unbound
    subject is a one-shot query, and its answers are the memory
    backend's."""
    backend = SegmentBackend(tmp_path / "store", memtable_limit=10**6)
    memory = MemoryBackend()
    # 200 subjects x 3 predicates, two values per item out of 40, a
    # second source on every fifth claim.
    corpus = [
        claim(f"s{i // 6:03d}", f"p{i % 3}", f"v{i % 40}", source="a")
        for i in range(1200)
    ]
    corpus += [
        ScoredTriple(one.triple, Provenance("b", "ex"), 0.5)
        for one in corpus[::5]
    ]
    for one in corpus:
        assert backend.add(one) == memory.add(one)
    assert len(backend._mem) == len(backend) >= 1000
    assert not backend._segments
    for value in (Value("v0"), Value("v17"), Value("absent")):
        read_work.clear()
        found = backend.match(obj=value)
        work = read_work["Value.__eq__"]
        assert work <= len(backend._mem) + 2, (value, work)
        assert found == memory.match(obj=value)
        assert len(found) == len(set(found))
    for predicate in ("p0", "p2", "absent"):
        read_work.clear()
        found = backend.match(predicate=predicate)
        assert read_work["Value.__eq__"] <= len(backend._mem) + 2
        assert found == memory.match(predicate=predicate)
        assert len(found) == len(set(found))


def test_segment_pattern_match_builds_each_row_once(tmp_path, read_work):
    """With segments in play, ``match(obj=…)`` and ``match(predicate=…)``
    walk the live claims once in position order: at most one
    ``row_scored`` per stored row — three segments, tombstones and a
    memtable included — and the answers are the memory backend's,
    element for element.  No file keeps a POS or OSP index."""
    backend = SegmentBackend(tmp_path / "store", memtable_limit=10**6,
                             compact_threshold=10**6)
    memory = MemoryBackend()
    corpus = [
        claim(f"s{i // 6:03d}", f"p{i % 3}", f"v{i % 40}", source="a")
        for i in range(900)
    ]
    corpus += [
        ScoredTriple(one.triple, Provenance("b", "ex"), 0.5)
        for one in corpus[::5]
    ]
    third = len(corpus) // 3
    for start in range(0, len(corpus), third):
        for one in corpus[start:start + third]:
            assert backend.add(one) == memory.add(one)
        backend.flush()
    for one in corpus[:300:7]:
        assert backend.remove(one.triple) == memory.remove(one.triple)
    for index, one in enumerate(corpus[100:400:3]):
        # Refreshes of flushed claims, and new claims of old items.
        for fresh in (one.with_confidence(1.0),
                      claim(one.triple.subject, one.triple.predicate,
                            f"m{index % 9}", source="m")):
            assert backend.add(fresh) == memory.add(fresh)
    assert len(backend._segments) >= 3
    assert backend._tomb and backend._mem
    stored = sum(seg.n_rows for seg in backend._segments)
    for value in (Value("v0"), Value("m3"), Value("absent")):
        read_work.clear()
        found = backend.match(obj=value)
        assert read_work["row_scored"] <= stored, value
        assert found == memory.match(obj=value)
    for predicate in ("p0", "p2", "absent"):
        read_work.clear()
        found = backend.match(predicate=predicate)
        assert read_work["row_scored"] <= stored, predicate
        assert found == memory.match(predicate=predicate)
    assert backend.match(predicate="p1", obj=Value("v1")) == memory.match(
        predicate="p1", obj=Value("v1")
    )
    assert backend.match() == memory.match()


def test_a_key_in_several_segments_counts_once(tmp_path):
    """Each refresh shadows a flushed key, so after three flushes the
    key has a row in every segment; a triple tombstoned and re-added
    (into the memtable) leaves a dead row: the count is still the
    number of claims the item read returns."""
    backend = SegmentBackend(tmp_path / "store", memtable_limit=10**6,
                             compact_threshold=10**6)
    first = claim("e", "p", "v1", source="a", conf=0.2)
    backend.add_all([first, claim("e", "p", "v2", source="b")])
    backend.flush()
    backend.add(first.with_confidence(0.5))
    backend.flush()
    backend.add(first.with_confidence(0.9))
    backend.remove(Triple("e", "p", Value("v2")))
    backend.flush()
    backend.add(claim("e", "p", "v2", source="c"))
    assert len(backend._segments) == 3
    decoded = backend.claims_for_item("e", "p")
    assert [one.provenance.source_id for one in decoded] == ["a", "c"]
    assert backend.count_for_item("e", "p") == 2
    assert backend.predicates("e") == {"p"}


def test_an_item_nothing_shadows_is_read_without_a_fold(tmp_path, read_work):
    """An item whose rows sit in one segment, with no tombstone and no
    memtable claim, is read without a fold, though the store carries
    tombstones, a memtable and four segments: a reader's ``lookup``
    (the count) builds no claim and no triple and examines exactly the
    item's rows, and ``claims_for_item`` builds each row once and
    reads no row key.  An item that needs the fold builds only each
    segment key's winning row."""
    backend = SegmentBackend(tmp_path / "store", memtable_limit=10**6,
                             compact_threshold=10**6)
    # 30 subjects x 2 predicates x 2 sources, a segment per 10 subjects.
    corpus = [
        claim(f"s{i // 4:03d}", f"p{i % 2}", f"v{i % 3}",
              source=f"src{(i // 2) % 2}", conf=0.5)
        for i in range(120)
    ]
    for start in range(0, len(corpus), 40):
        backend.add_all(corpus[start:start + 40])
        backend.flush()
    backend.remove(corpus[0].triple)  # the item ("s000", "p0")
    backend.flush()
    backend.add(corpus[5].with_confidence(0.9))  # ("s001", "p1")
    backend.add(claim("s002", "p0", "fresh", source="m"))
    assert len(backend._segments) == 4
    assert backend._tomb and backend._mem
    reader = KBReader(KBVersion(
        version_id=0, sequence=0, store=TripleStore(backend),
        result=FusionResult(method="none"),
        read_index=patched(None, FusionResult(method="none")),
    ))
    memory = MemoryBackend()
    for one in corpus:
        memory.add(one)
    memory.remove(corpus[0].triple)
    memory.add(corpus[5].with_confidence(0.9))
    memory.add(claim("s002", "p0", "fresh", source="m"))

    plain = [(f"s{n:03d}", f"p{n % 2}") for n in range(3, 30, 4)]
    for subject, predicate in plain:
        (rows,) = [
            found for seg in backend._segments
            if (sid := seg.string_id("subjects", subject)) is not None
            and (found := seg.item_rows(sid, predicate))
        ]
        assert all(dead.item != (subject, predicate) for dead in backend._tomb)
        assert not backend._mem.count_for_item(subject, predicate)
        read_work.clear()
        view = reader.lookup(subject, predicate)
        assert view.claims == len(rows) == memory.count_for_item(
            subject, predicate
        )
        assert read_work["row_scored"] == 0
        assert read_work["Triple"] == 0
        assert read_work["row_key"] == len(rows)
        read_work.clear()
        claims = backend.claims_for_item(subject, predicate)
        assert claims == memory.claims_for_item(subject, predicate)
        assert read_work["row_scored"] == len(rows)
        assert read_work["row_key"] == 0

    for item, from_segments in [
        (("s000", "p0"), 1),  # tombstoned: one live key of two
        (("s001", "p1"), 1),  # one key of two shadowed by the memtable
        (("s002", "p0"), 2),  # a memtable claim besides two keys
    ]:
        read_work.clear()
        claims = backend.claims_for_item(*item)
        assert claims == memory.claims_for_item(*item)
        assert read_work["row_scored"] == from_segments, item
        assert backend.count_for_item(*item) == len(claims)


def _assert_answers_agree(backend, memory, items) -> None:
    """``count_for_item``, ``claims_for_item`` and
    ``predicates(subject)`` of ``backend`` equal ``memory``'s on every
    item, and so do those of a copy of each."""
    for store, model in ((backend, memory), (backend.copy(), memory.copy())):
        for subject, predicate in items:
            assert store.count_for_item(subject, predicate) == (
                model.count_for_item(subject, predicate)
            ), (subject, predicate)
            assert store.claims_for_item(subject, predicate) == (
                model.claims_for_item(subject, predicate)
            ), (subject, predicate)
        for subject in {subject for subject, _predicate in items}:
            assert store.predicates(subject) == model.predicates(subject)


def test_tombstoned_items_track_remove_compact_reopen_and_refresh(tmp_path):
    """The tombstoned-item set decides which rows a read probes against
    the tombstones, and which items skip the fold; after each step that
    changes it — a ``remove`` on a staged copy, which leaves its source
    alone; a flush and a reopen, which reads it back from the tombstone
    columns; ``compact()``, which empties it; a key refreshed into the
    memtable and flushed into a second segment — the store and a copy
    of it answer as the memory backend does."""
    directory = tmp_path / "store"
    backend = SegmentBackend(directory, memtable_limit=10**6,
                             compact_threshold=10**6)
    memory = MemoryBackend()
    corpus = [
        claim(f"e{i % 5}", f"p{i % 2}", f"v{i % 4}", source=f"s{i % 3}",
              conf=0.1 + (i % 7) / 10)
        for i in range(40)
    ]
    for one in corpus:
        assert backend.add(one) == memory.add(one)
    backend.flush()
    items = sorted({one.triple.item for one in corpus}) + [("e9", "p0")]
    _assert_answers_agree(backend, memory, items)

    # A remove on a staged copy: the source keeps its answers.
    staged, model = backend.copy(), memory.copy()
    gone = corpus[3].triple
    assert staged.remove(gone) == model.remove(gone)
    assert gone.item in staged._tomb_items
    assert gone.item not in backend._tomb_items
    _assert_answers_agree(staged, model, items)
    _assert_answers_agree(backend, memory, items)

    # Flushed, then read back from the tombstone columns at open.
    staged.flush()
    backend, memory = SegmentBackend(directory), model
    assert backend._tomb_items == {gone.item}
    _assert_answers_agree(backend, memory, items)

    backend.compact()
    assert not backend._tomb_items and len(backend._segments) == 1
    _assert_answers_agree(backend, memory, items)

    # A key refreshed into the memtable shadows its segment row, then
    # is flushed into a second segment beside it; a removed triple
    # comes back under a new position.
    refreshed = corpus[8].with_confidence(1.0)
    assert backend.add(refreshed) == memory.add(refreshed)
    assert backend.remove(corpus[9].triple) == memory.remove(
        corpus[9].triple
    )
    assert backend.add(corpus[9]) == memory.add(corpus[9])
    _assert_answers_agree(backend, memory, items)
    backend.flush()
    assert len(backend._segments) == 2
    _assert_answers_agree(backend, memory, items)
    _assert_answers_agree(SegmentBackend(directory), memory, items)


def _assert_routed_reads_agree(backend, memory, subjects) -> None:
    """Every subject-keyed read of ``backend`` — ``count_for_item``,
    ``claims_for_item``, ``predicates(subject)``, ``match(subject=…)``
    and ``contains_triple`` — answers as ``memory`` does, element for
    element, on ``subjects`` (present or not) and every predicate the
    two stores name.  ``match(subject=…)`` with an unbound predicate
    is compared as a sorted list: the memory backend groups it by
    predicate, the segment backend answers in position order."""
    predicates = sorted(memory.predicates() | {"p-none"})
    for subject in subjects:
        assert backend.predicates(subject) == memory.predicates(subject)
        assert sorted(map(str, backend.match(subject=subject))) == sorted(
            map(str, memory.match(subject=subject))
        ), subject
        for predicate in predicates:
            item = (subject, predicate)
            assert backend.claims_for_item(*item) == (
                memory.claims_for_item(*item)
            ), item
            assert backend.count_for_item(*item) == (
                memory.count_for_item(*item)
            ), item
            assert backend.match(subject=subject, predicate=predicate) == (
                memory.match(subject=subject, predicate=predicate)
            ), item
    for triple in memory.match() + [Triple("s-none", "p0", Value("v0"))]:
        if triple.subject in subjects:
            assert backend.contains_triple(triple) == (
                memory.contains_triple(triple)
            ), triple


def _route_from_scratch(segments) -> dict:
    """The subject route of ``segments`` built over all of them."""
    route = {}
    for seg in segments:
        starts = seg.subj_start
        for sid, name in enumerate(seg.subjects):
            if starts[sid] != starts[sid + 1]:
                route[name] = route.get(name, ()) + ((seg, sid),)
    return route


def _assert_route_exact(backend) -> None:
    assert backend._route == _route_from_scratch(backend._segments)


def test_the_subject_route_follows_every_segment_change(tmp_path):
    """Subject-keyed reads visit only the segments the subject route
    names; after each change of the segment list — a flush, a
    ``copy()`` whose sibling flushes, a ``remove`` tombstoning a
    segment-resident row, a compaction, close and reopen — with
    subjects held by several segments, the store answers as the memory
    backend does, and its route is the one built from scratch over its
    segments.  A flush extends the route: a subject the new segment
    does not hold keeps its entry, the same tuple."""
    directory = tmp_path / "store"
    backend = SegmentBackend(directory, memtable_limit=10**6,
                             compact_threshold=10**6)
    memory = MemoryBackend()
    _assert_route_exact(backend)

    def add(claims, store=backend, model=memory):
        for one in claims:
            assert store.add(one) == model.add(one)

    # 12 subjects; every flush below adds rows of subjects an earlier
    # segment already holds, and one subject of its own.
    corpus = [
        claim(f"e{i % 12:02d}", f"p{i % 3}", f"v{i % 5}", source=f"s{i % 4}",
              conf=0.1 + (i % 9) / 10)
        for i in range(120)
    ]
    subjects = sorted({one.triple.subject for one in corpus}) + [
        "e-new", "e-staged", "s-none",
    ]
    add(corpus[:60])
    backend.flush()
    _assert_route_exact(backend)
    _assert_routed_reads_agree(backend, memory, subjects)
    add(corpus[60:])
    add([claim("e-new", "p0", "fresh", source="m")])
    backend.flush()
    _assert_route_exact(backend)
    assert len(backend._segments) == 2
    assert len(backend._routed("e00")) == 2
    _assert_routed_reads_agree(backend, memory, subjects)

    # A refresh of a segment-resident claim, flushed into a third
    # segment: the subject is now held by three, the others keep their
    # entries.
    add([corpus[0].with_confidence(1.0)])
    _assert_routed_reads_agree(backend, memory, subjects)
    kept = {s: backend._route[s] for s in ("e01", "e11", "e-new")}
    backend.flush()
    _assert_route_exact(backend)
    assert len(backend._routed(corpus[0].triple.subject)) == 3
    assert all(backend._route[s] is entry for s, entry in kept.items())
    _assert_routed_reads_agree(backend, memory, subjects)

    # A staged copy shares the route; its flush rebinds its own and
    # leaves the source's alone.
    staged, model = backend.copy(), memory.copy()
    assert staged._route is backend._route
    route = backend._route
    add([claim("e-staged", "p1", "x", source="m"),
         claim("e01", "p1", "staged", source="m")], staged, model)
    staged.flush()
    assert staged._route is not backend._route
    assert backend._route is route
    _assert_route_exact(staged)
    _assert_route_exact(backend)
    _assert_routed_reads_agree(staged, model, subjects)
    _assert_routed_reads_agree(backend, memory, subjects)
    assert backend.count_for_item("e-staged", "p1") == 0

    # A remove tombstoning segment-resident rows, then flushed.
    gone = corpus[13].triple
    assert backend.remove(gone) == memory.remove(gone)
    _assert_routed_reads_agree(backend, memory, subjects)
    backend.flush()
    _assert_route_exact(backend)
    _assert_routed_reads_agree(backend, memory, subjects)

    backend.compact()
    _assert_route_exact(backend)
    assert len(backend._segments) == 1
    assert all(len(backend._routed(s)) <= 1 for s in subjects)
    _assert_routed_reads_agree(backend, memory, subjects)

    add([claim("e02", "p2", "after", source="m")])
    backend.flush()
    _assert_route_exact(backend)
    _assert_routed_reads_agree(backend, memory, subjects)
    backend.close()
    # A closed store reads no segment: its route went with them.
    assert not backend._segments
    _assert_route_exact(backend)
    assert backend.count_for_item("e02", "p2") == 0
    assert backend.predicates("e02") == set()
    reopened = SegmentBackend(directory)
    try:
        _assert_route_exact(reopened)
        assert len(reopened._segments) == 2
        _assert_routed_reads_agree(reopened, memory, subjects)
    finally:
        reopened.close()


def test_a_read_touches_only_the_segments_holding_its_subject(
    tmp_path, read_work
):
    """On a six-segment store where each subject's rows sit in one
    segment, ``count_for_item`` and ``claims_for_item`` read one item
    slice, ``predicates(subject)`` one subject slice, and a subject no
    segment holds reads none: a read's work is bounded by the segments
    holding its subject, not by the segment count."""
    backend = SegmentBackend(tmp_path / "store", memtable_limit=10**6,
                             compact_threshold=10**6)
    memory = MemoryBackend()
    # 24 subjects x 2 predicates x 2 values, four subjects a segment.
    corpus = [
        claim(f"e{i // 4:02d}", f"p{i % 2}", f"v{(i // 2) % 2}", source="a")
        for i in range(96)
    ]
    for start in range(0, len(corpus), 16):
        for one in corpus[start:start + 16]:
            assert backend.add(one) == memory.add(one)
        backend.flush()
    assert len(backend._segments) == 6
    backend.predicates("e00")  # builds the route, outside the counts

    for subject in ("e00", "e13", "e23"):
        held = [
            seg for seg in backend._segments
            if seg.string_id("subjects", subject) is not None
        ]
        assert len(held) == 1
        for predicate in ("p0", "p1", "p-none"):
            read_work.clear()
            assert backend.count_for_item(subject, predicate) == (
                memory.count_for_item(subject, predicate)
            )
            assert read_work["item_rows"] == 1, (subject, predicate)
            read_work.clear()
            assert backend.claims_for_item(subject, predicate) == (
                memory.claims_for_item(subject, predicate)
            )
            assert read_work["item_rows"] == 1, (subject, predicate)
        read_work.clear()
        assert backend.predicates(subject) == memory.predicates(subject)
        assert read_work["subject_rows"] == 1, subject
        assert read_work["item_rows"] == 0, subject

    read_work.clear()
    assert backend.count_for_item("s-none", "p0") == 0
    assert backend.claims_for_item("s-none", "p0") == []
    assert backend.predicates("s-none") == set()
    assert not backend.contains_triple(Triple("s-none", "p0", Value("v0")))
    assert read_work["item_rows"] == read_work["subject_rows"] == 0
    assert read_work["string_id"] == 0


def test_the_dedup_probe_reads_only_the_segments_holding_its_subject(
    tmp_path, read_work
):
    """``add``'s dedup probe is the triple read restricted to the
    claim's key.  On a six-segment store where each subject's rows sit
    in one segment, re-adding a stored claim, refreshing one and adding
    a new claim of a held subject each read one triple slice; a claim
    of a subject no segment holds reads none.  Every ``add`` answers
    as the memory backend's."""
    backend = SegmentBackend(tmp_path / "store", memtable_limit=10**6,
                             compact_threshold=10**6)
    memory = MemoryBackend()
    # 24 subjects x 2 predicates x 2 values, four subjects a segment.
    corpus = [
        claim(f"e{i // 4:02d}", f"p{i % 2}", f"v{(i // 2) % 2}", source="a",
              conf=0.5)
        for i in range(96)
    ]
    for start in range(0, len(corpus), 16):
        for one in corpus[start:start + 16]:
            assert backend.add(one) == memory.add(one)
        backend.flush()
    assert len(backend._segments) == 6

    for one, visits in [
        (corpus[0], 1),  # stored: no change
        (corpus[17].with_confidence(0.4), 1),  # stored higher: no change
        (corpus[17].with_confidence(0.9), 1),  # a refresh
        (corpus[50].with_confidence(0.5), 1),  # stored equal: no change
        (claim("e13", "p0", "v-new", source="a"), 1),  # a new value
        (claim("e13", "p0", "v0", source="b"), 1),  # a new source
        (claim("e23", "p-new", "v0", source="a"), 1),  # a new predicate
        (claim("s-none", "p0", "v0", source="a"), 0),  # a new subject
    ]:
        read_work.clear()
        assert backend.add(one) == memory.add(one), one
        assert read_work["triple_rows"] == visits, one
        if not visits:
            assert read_work["string_id"] == 0, one
    assert backend.claims() == memory.claims()
    backend.flush()
    assert backend.claims() == memory.claims()


def test_a_new_claim_decodes_no_segment_table(tmp_path, monkeypatch):
    """``add``'s dedup probe compares a candidate row's lexical and
    provenance as bytes in the map.  Ingesting claims whose subjects
    and items recur across seven segments — every claim new, a new
    value or a stored triple under a new source — decodes no segment's
    lexicals or locators table and asks no lexical id; neither does
    re-adding or refreshing a stored claim.  Every ``add`` answers as
    the memory backend's."""
    backend = SegmentBackend(tmp_path / "store", memtable_limit=400,
                             compact_threshold=10**6)
    memory = MemoryBackend()
    asked = collections.Counter()
    string_id = SegmentReader.string_id

    def counted(reader, table, text):
        asked[table] += 1
        return string_id(reader, table, text)

    monkeypatch.setattr(SegmentReader, "string_id", counted)
    # 40 subjects x 3 predicates x 5 values, the 600 triples once under
    # each of five sources.
    corpus = [
        claim(f"e{i % 40:02d}", f"p{i // 40 % 3}", f"v{i // 120 % 5}",
              source=f"s{i // 600}", locator=f"page-{i % 7}", conf=0.5)
        for i in range(3000)
    ]
    again = [corpus[5], corpus[1234].with_confidence(0.9), corpus[2999]]
    for one in corpus + again:
        assert backend.add(one) == memory.add(one), one
    assert len(backend._segments) == 7
    for seg in backend._segments:
        assert "lexicals" not in vars(seg) and "locators" not in vars(seg)
    assert asked["lexicals"] == asked["locators"] == 0
    assert backend.claims() == memory.claims()


def test_one_segment_streams_in_the_memory_backends_order(tmp_path):
    """A store holding one segment and nothing over it streams that
    segment's rows as the live claims.  Every way to one segment — a
    first flush after a memtable refresh and a remove + re-add, a
    copy() that flushes first, a reopen, a compaction — leaves them in
    the memory backend's order."""

    def assert_streams(backend, memory):
        assert len(backend._segments) == 1 and backend._settled()
        assert list(backend.iter_claims()) == list(memory.iter_claims())

    def churn(store):
        store.add_all(CORPUS)
        store.add(CORPUS[1].with_confidence(0.95))  # a memtable refresh
        store.remove(CORPUS[0].triple)
        store.add(CORPUS[0])  # re-added: moves to the end

    directory = tmp_path / "s"
    backend = SegmentBackend(directory, memtable_limit=10**6,
                             compact_threshold=10**6)
    memory = MemoryBackend()
    churn(backend)
    churn(memory)
    staged, model = backend.copy(), memory.copy()
    for store in (staged, model):
        store.add(claim("zz", "p", "v"))
    staged.flush()  # the copy flushes first
    assert_streams(staged, model)
    backend.flush()
    assert_streams(backend, memory)
    assert_streams(SegmentBackend(directory), memory)

    # Two segments and a tombstone, compacted back to one.
    for store in (backend, memory):
        store.add(CORPUS[2].with_confidence(0.99))
        store.remove(CORPUS[3].triple)
        store.add(claim("aa", "p", "v"))
    backend.flush()
    assert len(backend._segments) == 2
    backend.compact()
    assert_streams(backend, memory)
    assert_streams(SegmentBackend(directory), memory)


class TestCountRefusesWhatTheClaimReadRefuses:
    """A segment row the claim read refuses — here a confidence outside
    [0, 1] or an empty source, written into the file after the flush —
    makes ``count_for_item`` and ``predicates(subject)`` raise the
    exception ``claims_for_item`` raises, and the row's neighbours
    still count."""

    @staticmethod
    def _corrupted(tmp_path, old: bytes, new: bytes) -> SegmentBackend:
        backend = SegmentBackend(tmp_path / "store", memtable_limit=10**6)
        backend.add_all([
            claim("e", "p", "v1", source="a", conf=0.5),
            claim("e", "p", "v2", source="b", conf=0.123456789),
            claim("f", "p", "v1", source="a", conf=0.5),
            claim("e", "q", "v3", source="zz-last", conf=0.5),
        ])
        backend.flush()
        backend.close()
        (path,) = (tmp_path / "store").glob("seg-*.seg")
        blob = path.read_bytes()
        assert blob.count(old) == 1
        path.write_bytes(blob.replace(old, new))
        return SegmentBackend(tmp_path / "store")

    @pytest.mark.parametrize("old, new, item", [
        (struct.pack("=d", 0.123456789), struct.pack("=d", 1.5),
         ("e", "p")),
        (struct.pack("=d", 0.123456789), struct.pack("=d", float("nan")),
         ("e", "p")),
        # The last source interned reads as "": its start offset moved
        # to its end, the source before it gaining its bytes.
        (struct.pack("=4q", 0, 1, 2, 9) + b"abzz-last",
         struct.pack("=4q", 0, 1, 9, 9) + b"abzz-last", ("e", "q")),
    ])
    def test_same_exception_as_the_claim_read(self, tmp_path, old, new, item):
        backend = self._corrupted(tmp_path, old, new)

        def raised(call):
            with pytest.raises(Exception) as info:
                call()
            return type(info.value)

        try:
            refused = raised(lambda: backend.claims_for_item(*item))
            assert refused is ValueError
            assert raised(lambda: backend.count_for_item(*item)) is refused
            assert raised(lambda: backend.predicates(item[0])) is refused
            assert backend.count_for_item("f", "p") == 1
            assert backend.predicates("f") == {"p"}
        finally:
            backend.close()


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
