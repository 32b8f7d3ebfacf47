"""Disk-resident LSM-style storage backend over mmapped segment files.

The :class:`SegmentBackend` keeps claims in append-only **segment
files** plus a small in-memory **memtable**, which is a
:class:`~repro.rdf.backend.MemoryBackend` plus each claim key's
position seqno:

* mutations land in the memtable; when it crosses ``memtable_limit``
  live entries it is *flushed* to a new immutable segment file;
* ``remove`` writes a **tombstone** (triple + sequence number) — a
  segment row is live iff its seqno is greater than the newest
  tombstone seqno for its triple — and returns the claims it dropped;
* **compaction** merges every segment into one (unique keys,
  position-ordered, max confidence folded, no tombstones) and drops
  the rest.  A store of one segment and nothing over it — a first
  flush or compaction output — iterates by streaming that segment;
* an item, triple or subject read — and ``remove`` and the dedup probe
  of ``add``, which is the triple read restricted to the claim's key —
  costs its answer: a subject route (subject → the segments holding
  its rows, with its id in each; extended by each segment as it opens
  or is flushed, rebuilt from the one segment a compaction leaves)
  names the segments to visit, so a never-stored subject is one dict
  miss; candidate rows come from their CSR slices and memtable claims
  from the same read of the memtable's SPO index.  A triple read is a
  filtered item read: the item's run of rows, kept when kind, seqno
  and the row's lexical bytes in the map match; the dedup probe
  compares provenance bytes the same way, so a new claim decodes no
  table (the predicates aside).  A row is probed
  against the tombstone map, by its own triple, only when its item is
  in the set of tombstoned items.  Every stage reads by item, so a
  file keeps one index, SPO, as the memtable does: a ``match`` with an
  unbound subject walks the live claims once, in position order.  The
  claim read folds rows on their string keys and builds only each
  key's winning row; ``count_for_item`` and ``predicates(subject)``
  fold the same keys and build no claim.  An item whose rows sit in
  one segment, with no tombstone and no memtable claim, needs no fold
  (a segment's keys are unique): its count is its rows and its claim
  read builds each row once.  Only the whole-column scans behind
  ``subjects()`` / ``predicates()`` project the tombstone map onto a
  segment's rows, once per segment, by the same triple read.

A segment file is the :mod:`repro.fusion.compiled` idiom spilled to
disk: string-interning tables plus flat ``array('q')``/``array('d')``
columns, mmapped read-only at open and accessed zero-copy through
``memoryview.cast``.  Each intern table is its entries' UTF-8 bytes
plus a column of end offsets, so entry *i* is a slice of the map that
a probe compares in place.  The subjects table is decoded when the
segment opens or is flushed (the route reads it), every other table
on the first read that builds a string of it, one slice per offset
pair.  A table whose bytes are not UTF-8, or whose offsets do not
climb from 0 to its byte length, is refused with ``StoreError`` when
it is decoded.  A tombstone's strings are read at open entry by entry
(:meth:`SegmentReader.text`), each entry's two offsets and its UTF-8
checked alone, so reopening decodes no table for them.  A CSR-style SPO
permutation makes a subject, item or
triple lookup a slice scan instead of a full scan.

Byte layout, version 4 (all integers native-endian int64, every
column padded to 8 bytes)::

    header   : magic "REPROSEG" | version | n_rows | n_tombs
               | (count | nbytes) for each of the 6 tables
    tables   : 6 string tables (subjects, predicates, lexicals,
               sources, extractors, locators), each:
               end offsets[q*(count+1)], the first 0 | utf8[nbytes]
    rows     : seq[q] subject[q] predicate[q] lexical[q] kind[q]
               source[q] extractor[q] locator[q] confidence[d]
               (one column = n_rows contiguous values)
    tombs    : seq[q] subject[q] predicate[q] lexical[q] kind[q]
    indexes  : spo_perm[q*n_rows]  subj_start[q*(n_subjects+1)]

The code states this layout once, as ``_TABLES``, ``_HEADER`` and
``_COLUMNS``: the writer, the reader and ``SegmentReader.close`` walk
that declaration, and the end of the one walk is the length the file
must have — a file that is shorter or longer than its header implies
is refused with ``StoreError`` at open rather than mapped into short
columns, and so is a version other than this module's (version 1
files also held POS / OSP permutations, version 2 files a per-row
key-hash column, version 3 files length-prefixed tables and a flags
field).  A manifest
that is not the object ``_write_manifest`` writes, or that lists a
segment name it would not mint or a file that is gone, is refused
with ``StoreError`` before any file is opened or swept.

Durability model: segment + manifest writes follow the checkpoint
temp-file pattern (write temp, ``os.replace``), so a crash mid-flush
or mid-compaction leaves either the previous manifest or the new one —
never a torn store.  The memtable is volatile: reopening a directory
recovers exactly the state as of the last completed flush.  Injected
faults (chaos tests) hook ``storage:flush`` / ``storage:compaction``
scopes with the phase as the task index.

Ordering contract (see :mod:`repro.rdf.backend`): every claim key's
position is the seqno of its first *live* add; iteration sorts live
keys by that position, reproducing ``MemoryBackend``'s dict insertion
order — confidence refreshes keep their position, remove + re-add
moves to the end — so fusion verdicts are byte-identical.  A refreshed
segment-resident claim enters the memtable at its old position, so the
memtable's own order is not position order; its index and its
position map gain and lose keys together, so a flush pairs them by
order.

Concurrency model: one live writer lineage per directory.  ``copy()``
shares the immutable segment readers and, copy-on-write, the memtable's
index (cheap staging for the incremental engine); whichever copy
flushes last owns the on-disk manifest.
"""

from __future__ import annotations

import itertools
import json
import mmap
import os
import re
import struct
import time
from array import array
from collections.abc import Iterator
from pathlib import Path

from repro.errors import StoreError
from repro.faults import fire
from repro.rdf.backend import MemoryBackend, StorageBackend
from repro.rdf.triple import (
    Provenance,
    ScoredTriple,
    Triple,
    Value,
    ValueKind,
)

__all__ = ["SegmentBackend", "SegmentReader"]

_MAGIC = b"REPROSEG"
_VERSION = 4

# Fixed object-kind encoding (column values index this tuple).
_KINDS = (
    ValueKind.STRING,
    ValueKind.NUMBER,
    ValueKind.DATE,
    ValueKind.ENTITY,
)
_KIND_INDEX = {kind: index for index, kind in enumerate(_KINDS)}
# A kind column value read as _KINDS reads it: refused (IndexError) or
# made the index of the kind it names.
_KIND_CODES = tuple(range(len(_KINDS)))

_MANIFEST = "MANIFEST.json"

# Module-level so two backends in one process never mint the same
# segment or temp file name (same trick as the checkpoint store).
_SERIAL = itertools.count()
# What _write_segment_file mints: a bare name, so a manifest entry can
# neither leave the directory nor name a file no flush wrote.
_SEGMENT_NAME = re.compile(r"seg-[0-9]+-[0-9]+\.seg")


# The byte layout, declared once: build_segment_bytes writes,
# SegmentReader maps and SegmentReader.close drops exactly this walk
# (the module docstring draws the same picture), so the end of the
# walk is the length a valid file must have.
_TABLES = (
    "subjects", "predicates", "lexicals", "sources", "extractors",
    "locators",
)
# The header after magic and version: the row and tombstone counts,
# then each table's entry count and UTF-8 byte length.
_HEADER = struct.Struct("=8sq" + "qq" + "qq" * len(_TABLES))
# (reader attribute, array type code, length) in file order, each
# column padded to 8 bytes.  A length is a header count: a table's
# byte length for its UTF-8 column, or a table name for a CSR offset
# column — one entry per id of that table, plus the end.
_COLUMNS = tuple(
    column
    for table in _TABLES
    for column in (
        (f"{table}_end", "q", table),
        (f"{table}_utf8", "B", f"{table}_bytes"),
    )
) + (
    ("col_seq", "q", "n_rows"),
    ("col_subject", "q", "n_rows"),
    ("col_predicate", "q", "n_rows"),
    ("col_lexical", "q", "n_rows"),
    ("col_kind", "q", "n_rows"),
    ("col_source", "q", "n_rows"),
    ("col_extractor", "q", "n_rows"),
    ("col_locator", "q", "n_rows"),
    ("col_confidence", "d", "n_rows"),
    ("tomb_seq", "q", "n_tombs"),
    ("tomb_subject", "q", "n_tombs"),
    ("tomb_predicate", "q", "n_tombs"),
    ("tomb_lexical", "q", "n_tombs"),
    ("tomb_kind", "q", "n_tombs"),
    ("spo_perm", "q", "n_rows"),
    ("subj_start", "q", "subjects"),
)


def _claim_key(scored: ScoredTriple) -> tuple:
    """A claim's key spelled as :meth:`SegmentReader.row_key` spells a
    row's."""
    triple, prov = scored.triple, scored.provenance
    return (
        triple.subject, triple.predicate, triple.obj.lexical,
        _KIND_INDEX[triple.obj.kind], prov.source_id, prov.extractor_id,
        prov.locator,
    )


def _intern(table: dict[str, int], value: str) -> int:
    index = table.get(value)
    if index is None:
        index = len(table)
        table[value] = index
    return index


def build_segment_bytes(
    rows: list[tuple[int, ScoredTriple]],
    tombs: list[tuple[Triple, int]],
) -> bytes:
    """Serialize claims + tombstones into one segment blob.

    ``rows`` are ``(seqno, claim)`` in the order they should be stored
    (compaction stores them position-sorted).  Columns are filled by
    name; ``_COLUMNS`` decides where each lands.
    """
    n = len(rows)
    ids: dict[str, dict[str, int]] = {name: {} for name in _TABLES}

    def interned(table: str, strings) -> array:
        seen = ids[table]
        return array("q", [_intern(seen, text) for text in strings])

    triples = [scored.triple for _seq, scored in rows]
    objects = [triple.obj for triple in triples]
    provs = [scored.provenance for _seq, scored in rows]
    dead = [triple for triple, _seq in tombs]
    col = {
        "col_seq": array("q", [seq for seq, _scored in rows]),
        "col_subject": interned("subjects", [t.subject for t in triples]),
        "col_predicate": interned(
            "predicates", [t.predicate for t in triples]
        ),
        "col_lexical": interned("lexicals", [o.lexical for o in objects]),
        "col_kind": array("q", [_KIND_INDEX[o.kind] for o in objects]),
        "col_source": interned("sources", [p.source_id for p in provs]),
        "col_extractor": interned(
            "extractors", [p.extractor_id for p in provs]
        ),
        "col_locator": interned("locators", [p.locator for p in provs]),
        "col_confidence": array(
            "d", [scored.confidence for _seq, scored in rows]
        ),
        # Tombstones intern after the rows: ids are first-seen order.
        "tomb_seq": array("q", [seq for _triple, seq in tombs]),
        "tomb_subject": interned("subjects", [t.subject for t in dead]),
        "tomb_predicate": interned(
            "predicates", [t.predicate for t in dead]
        ),
        "tomb_lexical": interned("lexicals", [t.obj.lexical for t in dead]),
        "tomb_kind": array("q", [_KIND_INDEX[t.obj.kind] for t in dead]),
    }

    # The one CSR index, SPO: row numbers sorted by subject, predicate,
    # object then seq, and per subject id where its slice starts.
    subs, preds, lexes, kinds, seqs = (
        col[name] for name in (
            "col_subject", "col_predicate", "col_lexical", "col_kind",
            "col_seq",
        )
    )
    col["spo_perm"] = array(
        "q",
        sorted(
            range(n),
            key=lambda i: (subs[i], preds[i], lexes[i], kinds[i], seqs[i]),
        ),
    )
    n_subjects = len(ids["subjects"])
    starts = col["subj_start"] = array("q", bytes(8 * (n_subjects + 1)))
    for i in subs:
        starts[i + 1] += 1
    for i in range(n_subjects):
        starts[i + 1] += starts[i]

    # Each string table: its entries' UTF-8 bytes back to back, and
    # where each entry ends (after a leading 0), so entry i is the
    # slice between offsets i and i + 1.
    counts = [n, len(tombs)]
    for table in _TABLES:
        raws = [text.encode("utf-8") for text in ids[table]]
        col[f"{table}_end"] = array(
            "q", itertools.accumulate(map(len, raws), initial=0)
        )
        col[f"{table}_utf8"] = utf8 = b"".join(raws)
        counts += (len(raws), len(utf8))

    out = bytearray(_HEADER.pack(_MAGIC, _VERSION, *counts))
    for name, _code, _length in _COLUMNS:
        out += col[name]
        out += bytes(-len(out) % 8)
    return bytes(out)


def _read_table(utf8: memoryview, ends: memoryview) -> list[str]:
    """One string table's entries, entry i the bytes between its
    offsets i and i + 1; ``ValueError`` when an entry is not UTF-8 or
    the offsets do not climb from 0 to the table's byte length."""
    raw = utf8.tobytes()
    bounds = ends.tolist()
    if bounds[:1] != [0] or bounds[-1] != len(raw) or bounds != sorted(bounds):
        raise ValueError("string table offsets do not climb from 0 to its end")
    return [
        raw[start:end].decode("utf-8")
        for start, end in zip(bounds, bounds[1:])
    ]


class _StringTable:
    """One of a reader's string tables, decoded on its first read and
    then kept as a plain attribute of the reader, which shadows this
    descriptor.  (A ``__getattr__`` on the reader would make every
    attribute read of it — each column read of a row — take the slow
    lookup path.)"""

    def __init__(self, name: str) -> None:
        self.name = name

    def __get__(self, reader, owner=None):
        if reader is None:
            return self
        try:
            table = _read_table(
                getattr(reader, f"{self.name}_utf8"),
                getattr(reader, f"{self.name}_end"),
            )
        except ValueError as exc:
            raise StoreError(
                f"corrupt {self.name} table: {reader.path}"
            ) from exc
        setattr(reader, self.name, table)
        return table


class SegmentReader:
    """Zero-copy read access to one mmapped segment file.

    Columns are ``memoryview.cast`` views straight over the mmap — no
    deserialization at open; even the string intern tables are decoded
    lazily, on the first query that needs them, so opening (and
    ingest-only use) touches a handful of pages regardless of segment
    size.  Readers are immutable and safely shareable between a
    backend and its ``copy()`` lineage (and, via the OS page cache,
    between processes mapping the same file).
    """

    def __init__(self, path: str | os.PathLike) -> None:
        self.path = Path(path)
        self._file = open(self.path, "rb")
        try:
            self._mm = mmap.mmap(self._file.fileno(), 0,
                                 access=mmap.ACCESS_READ)
        except ValueError:
            self._file.close()
            raise StoreError(f"empty or unmappable segment: {self.path}")
        buf = memoryview(self._mm)
        size = self.nbytes = len(buf)
        if size < _HEADER.size:
            raise self._refused(buf, "truncated segment header")
        magic, version, n_rows, n_tombs, *tables = _HEADER.unpack_from(buf, 0)
        if magic != _MAGIC:
            raise self._refused(buf, "not a segment file")
        if version != _VERSION:
            raise self._refused(
                buf, f"unsupported segment version {version}"
            )
        self.n_rows = n_rows
        self.n_tombs = n_tombs

        counts = {"n_rows": n_rows, "n_tombs": n_tombs}
        for name, count, nbytes in zip(_TABLES, tables[::2], tables[1::2]):
            counts[name] = count + 1
            counts[f"{name}_bytes"] = nbytes
        # The layout's walk ends where the file must: a short file
        # would map short columns (rows past their end), a long one
        # was not written by build_segment_bytes.
        spans = []
        offset = _HEADER.size
        for name, code, length in _COLUMNS:
            end = offset + struct.calcsize(code) * counts[length]
            spans.append((name, code, offset, end))
            offset = end + -end % 8
        if offset != size:
            raise self._refused(
                buf, f"segment is {size} bytes, its header says {offset}"
            )

        self._views: list[memoryview] = [buf]
        for name, code, start, end in spans:
            view = buf[start:end].cast(code)
            self._views.append(view)
            setattr(self, name, view)
        # table name -> {string: id}, built on a table's first lookup;
        # the tables themselves are decoded on first use (_StringTable).
        self._ids: dict[str, dict[str, int]] = {}

    def _refused(self, buf: memoryview, why: str) -> StoreError:
        """Release the file and mmap; the error for the caller to raise."""
        buf.release()
        self._mm.close()
        self._file.close()
        return StoreError(f"{why}: {self.path}")

    def close(self) -> None:
        """Release the mmap.  Invalidates every column view."""
        views = self.__dict__.pop("_views", None)
        if views is None:
            return
        for name, _code, _length in _COLUMNS:
            self.__dict__.pop(name, None)
        for view in reversed(views):
            view.release()
        self._mm.close()
        self._file.close()

    def string_id(self, table: str, text: str) -> int | None:
        """Id of ``text`` in one string table, ``None`` if absent."""
        ids = self._ids.get(table)
        if ids is None:
            ids = self._ids[table] = {
                string: i for i, string in enumerate(getattr(self, table))
            }
        return ids.get(text)

    # -- row materialization -------------------------------------------
    def row_scored(self, row: int) -> ScoredTriple:
        return ScoredTriple(
            Triple(
                self.subjects[self.col_subject[row]],
                self.predicates[self.col_predicate[row]],
                Value(
                    self.lexicals[self.col_lexical[row]],
                    _KINDS[self.col_kind[row]],
                ),
            ),
            Provenance(
                self.sources[self.col_source[row]],
                self.extractors[self.col_extractor[row]],
                self.locators[self.col_locator[row]],
            ),
            self.col_confidence[row],
        )

    def row_key(self, row: int) -> tuple:
        """One row's claim key as its strings — ``(subject, predicate,
        lexical, kind, source, extractor, locator)``, the kind as its
        index in ``_KINDS`` — with no object built.

        Refuses every row :meth:`row_scored` refuses, with the same
        exception: the strings are read in its order, and a row that
        fails a check is handed to it to raise.
        """
        subject = self.subjects[self.col_subject[row]]
        predicate = self.predicates[self.col_predicate[row]]
        lexical = self.lexicals[self.col_lexical[row]]
        kind = _KIND_CODES[self.col_kind[row]]
        if not (lexical and subject and predicate):
            self.row_scored(row)
        source = self.sources[self.col_source[row]]
        extractor = self.extractors[self.col_extractor[row]]
        locator = self.locators[self.col_locator[row]]
        if not (
            source and extractor and 0.0 <= self.col_confidence[row] <= 1.0
        ):
            self.row_scored(row)
        return (subject, predicate, lexical, kind, source, extractor, locator)

    # -- slice access --------------------------------------------------
    def subject_rows(self, sid: int) -> list[int]:
        """Row indexes of one subject, via the SPO permutation slice."""
        return self.spo_perm[
            self.subj_start[sid]:self.subj_start[sid + 1]
        ].tolist()

    def entry(self, table: str, i: int) -> memoryview:
        """Entry ``i`` of ``table`` as its UTF-8 bytes, sliced from the
        map: a probe compares it with no table decoded."""
        ends = getattr(self, f"{table}_end")
        return getattr(self, f"{table}_utf8")[ends[i]:ends[i + 1]]

    def triple_rows(
        self, sid: int, triple: Triple, tomb_seq: int
    ) -> list[int]:
        """Live row indexes asserting exactly ``triple``: the rows of
        its item of its kind, newer than ``tomb_seq``, whose lexical
        bytes in the map are its lexical's."""
        kind = _KIND_INDEX[triple.obj.kind]
        lexical = triple.obj.lexical.encode("utf-8")
        seqs = self.col_seq
        kinds = self.col_kind
        lexes = self.col_lexical
        return [
            row
            for row in self.item_rows(sid, triple.predicate)
            if kinds[row] == kind
            and seqs[row] > tomb_seq
            and self.entry("lexicals", lexes[row]) == lexical
        ]

    def provenance_rows(
        self, rows: list[int], prov: Provenance
    ) -> list[int]:
        """Those of ``rows`` whose source, extractor and locator bytes
        in the map are ``prov``'s."""
        source, extractor, locator = (
            text.encode("utf-8")
            for text in (prov.source_id, prov.extractor_id, prov.locator)
        )
        return [
            row
            for row in rows
            if self.entry("sources", self.col_source[row]) == source
            and self.entry("extractors", self.col_extractor[row]) == extractor
            and self.entry("locators", self.col_locator[row]) == locator
        ]

    def item_rows(self, sid: int, predicate: str) -> list[int]:
        """Row indexes of one data item: the run of its subject's SPO
        slice that holds its predicate (the slice is sorted by
        predicate id)."""
        pid = self.string_id("predicates", predicate)
        if pid is None:
            return []
        perm = self.spo_perm
        preds = self.col_predicate
        starts = self.subj_start
        rows: list[int] = []
        for index in range(starts[sid], starts[sid + 1]):
            row = perm[index]
            if preds[row] == pid:
                rows.append(row)
            elif rows:
                break
        return rows

    def live_rows(
        self, tomb: dict[Triple, int]
    ) -> Iterator[int]:
        """All live row indexes, in storage order.

        A whole-column scan, so the tombstone map is projected onto
        this segment's rows once — each tombstone's triple read, as
        :meth:`triple_rows` reads it, names the rows it kills — and
        each row is one set probe.
        """
        seqs = self.col_seq
        dead: set[int] = set()
        for triple, seq in tomb.items():
            sid = self.string_id("subjects", triple.subject)
            if sid is not None:
                dead.update(
                    row for row in self.triple_rows(sid, triple, -1)
                    if seqs[row] <= seq
                )
        if not dead:
            return iter(range(self.n_rows))
        return (row for row in range(self.n_rows) if row not in dead)

    def text(self, table: str, i: int) -> str:
        """Entry ``i`` of ``table`` decoded on its own, its offsets
        checked first — ``0 <= end[i] <= end[i + 1] <=`` the table's
        byte length — so no table is decoded; ``StoreError`` when they
        or its UTF-8 are corrupt."""
        ends = getattr(self, f"{table}_end")
        utf8 = getattr(self, f"{table}_utf8")
        if 0 <= i < len(ends) - 1:
            start, end = ends[i], ends[i + 1]
            if 0 <= start <= end <= len(utf8):
                try:
                    return str(utf8[start:end], "utf-8")
                except UnicodeDecodeError:
                    pass
        raise StoreError(f"corrupt {table} table: {self.path}")

    def iter_tombstones(self) -> Iterator[tuple[Triple, int]]:
        """Each tombstone's triple and sequence number, its strings
        read entry by entry (:meth:`text`): reopening a store decodes
        no table for its tombstones."""
        text = self.text
        for i in range(self.n_tombs):
            yield (
                Triple(
                    text("subjects", self.tomb_subject[i]),
                    text("predicates", self.tomb_predicate[i]),
                    Value(
                        text("lexicals", self.tomb_lexical[i]),
                        _KINDS[self.tomb_kind[i]],
                    ),
                ),
                self.tomb_seq[i],
            )


# ``reader.subjects[id]`` and the other tables of _TABLES.
for _table in _TABLES:
    setattr(SegmentReader, _table, _StringTable(_table))


def _routed_with(route: dict[str, tuple], *segs: SegmentReader) -> dict:
    """A copy of ``route`` extended by ``segs`` in order: ``(seg, subject
    id)`` for each subject holding rows in ``seg`` (a subject only its
    tombstones name holds none).  Decodes the subjects tables."""
    route = route.copy()
    for seg in segs:
        starts = seg.subj_start
        for sid, name in enumerate(seg.subjects):
            if starts[sid] != starts[sid + 1]:
                route[name] = route.get(name, ()) + ((seg, sid),)
    return route


class SegmentBackend(StorageBackend):
    """LSM-style triple storage: memtable + mmapped segments + manifest.

    Parameters
    ----------
    directory:
        Where segments and the manifest live; created if absent.
        Reopening a directory recovers the state of the last completed
        flush.
    memtable_limit:
        Live memtable entries that trigger an automatic flush.
    compact_threshold:
        Segment count that triggers an automatic compaction after a
        flush.
    metrics:
        Optional :class:`repro.obs.MetricsRegistry`; publishes the
        ``storage_*`` counters/gauges/histograms.
    fault_plan:
        Optional :class:`repro.faults.FaultPlan`; flush/compaction
        phases call its crash hook under the ``storage:flush`` /
        ``storage:compaction`` scopes (index = phase).
    """

    name = "segment"

    def __init__(
        self,
        directory: str | os.PathLike,
        *,
        memtable_limit: int = 8192,
        compact_threshold: int = 8,
        metrics=None,
        fault_plan=None,
    ) -> None:
        if memtable_limit < 1:
            raise StoreError("memtable_limit must be >= 1")
        if compact_threshold < 2:
            raise StoreError("compact_threshold must be >= 2")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.memtable_limit = memtable_limit
        self.compact_threshold = compact_threshold
        self.metrics = metrics
        self.fault_plan = fault_plan
        self._segments: list[SegmentReader] = []
        self._names: list[str] = []
        # The memtable: its claims, indexed as any memory store, and
        # each claim key's position seqno.  The two gain and lose keys
        # together, so they iterate in step; a refreshed
        # segment-resident claim keeps its old position, so their
        # order is not position order.
        self._mem = MemoryBackend()
        self._positions: dict[tuple[Triple, Provenance], int] = {}
        self._mem_tombs: list[tuple[Triple, int]] = []
        # triple -> newest tombstone seqno (memtable + all segments)
        self._tomb: dict[Triple, int] = {}
        # The items of _tomb's triples: a row whose item is not here
        # needs no tombstone probe.  Shared with copy() siblings as the
        # route is: rebound, never updated in place, once open.
        self._tomb_items: set[tuple[str, str]] = set()
        # The subject route, subject -> ((segment, subject id), ...) in
        # segment order (_routed_with): rebound whenever the segment
        # list changes, never updated in place, shared with copy().
        self._route: dict[str, tuple] = {}
        self._seq = 0
        self._live = 0
        self._open_directory()

    # -- open / manifest -----------------------------------------------
    def _open_directory(self) -> None:
        manifest = self.directory / _MANIFEST
        names: list[str] = []
        if manifest.exists():
            # Refused before any segment is opened or swept: a
            # malformed manifest deletes nothing.
            try:
                state = json.loads(manifest.read_text())
            except ValueError as exc:  # not JSON, or not UTF-8
                raise StoreError(f"unreadable manifest: {manifest}") from exc
            names = state.get("segments") if isinstance(state, dict) else None
            if not (
                isinstance(names, list)
                and state.get("version") == 1
                and all(
                    type(state.get(key)) is int
                    for key in ("version", "next_seq", "live")
                )
                and all(
                    isinstance(name, str) and _SEGMENT_NAME.fullmatch(name)
                    for name in names
                )
            ):
                raise StoreError(f"malformed manifest: {manifest}")
            missing = [
                name for name in names if not (self.directory / name).is_file()
            ]
            if missing:
                raise StoreError(
                    f"manifest lists missing segments {missing}: {manifest}"
                )
            self._seq = state["next_seq"]
            self._live = state["live"]
        try:
            for name in names:
                reader = SegmentReader(self.directory / name)
                self._segments.append(reader)
                self._names.append(name)
                for triple, seq in reader.iter_tombstones():
                    if seq > self._tomb.get(triple, -1):
                        self._tomb[triple] = seq
            self._route = _routed_with({}, *self._segments)
        except BaseException:
            # The raised error's traceback holds this backend: unmap
            # the segments already opened rather than leave them mapped
            # for as long as the error lives.
            for reader in self._segments:
                reader.close()
            raise
        self._tomb_items = {triple.item for triple in self._tomb}
        self._sweep_orphans(set(names))
        self._publish_gauges()

    def _sweep_orphans(self, referenced: set[str]) -> None:
        """Drop segment/temp files the manifest does not reference.

        Only called at open time, when no sibling ``copy()`` lineage
        can be holding them.
        """
        for candidate in self.directory.glob("seg-*.seg"):
            if candidate.name not in referenced:
                try:
                    candidate.unlink()
                except OSError:
                    pass
        for orphan in self.directory.glob("*.tmp"):
            try:
                orphan.unlink()
            except OSError:
                pass

    def _write_manifest(self) -> None:
        blob = json.dumps(
            {
                "version": 1,
                "next_seq": self._seq,
                "live": self._live,
                "segments": self._names,
            }
        ).encode()
        temp = self.directory / (
            f"{_MANIFEST}.{os.getpid()}.{next(_SERIAL)}.tmp"
        )
        temp.write_bytes(blob)
        os.replace(temp, self.directory / _MANIFEST)

    def _write_segment_file(self, blob: bytes) -> str:
        name = f"seg-{os.getpid()}-{next(_SERIAL)}.seg"
        temp = self.directory / f"{name}.tmp"
        temp.write_bytes(blob)
        return name

    # -- metrics hooks -------------------------------------------------
    def _count(self, metric: str, amount: int = 1) -> None:
        if self.metrics is not None:
            self.metrics.counter(metric).inc(amount)

    def _observe_seconds(self, metric: str, seconds: float) -> None:
        if self.metrics is not None:
            self.metrics.histogram(metric).observe(seconds)

    def _publish_gauges(self) -> None:
        if self.metrics is None:
            return
        self.metrics.gauge("storage_segments").set(len(self._segments))
        self.metrics.gauge("storage_segment_bytes").set(
            sum(reader.nbytes for reader in self._segments)
        )
        self.metrics.gauge("storage_open_mmaps").set(len(self._segments))
        self.metrics.gauge("storage_memtable_claims").set(len(self._mem))

    # -- size / iteration ----------------------------------------------
    def __len__(self) -> int:
        return self._live

    def _tomb_seq(self, triple: Triple) -> int:
        return self._tomb.get(triple, -1)

    def iter_claims(self) -> Iterator[ScoredTriple]:
        if not self._segments:
            # All positions were minted fresh into the memtable, so
            # dict order *is* position order: stream it zero-copy.
            return self._mem.iter_claims()
        if self._settled():
            only = self._segments[0]
            return (only.row_scored(row) for row in range(only.n_rows))
        return (scored for _pos, scored in self._ordered_entries())

    def _settled(self) -> bool:
        """One segment and nothing over it, so its rows are the live
        claims: unique, confidence-folded and in position order.  One
        segment is a first flush, whose seqnos were minted ascending in
        memtable order, or compaction output, written in position
        order; only a flush adds a segment, and a flush after a remove
        leaves two."""
        return len(self._segments) == 1 and not self._mem and not self._tomb

    def _routed(self, subject: str) -> tuple:
        """``(segment, subject id)`` for each segment holding rows of
        ``subject``, in segment order."""
        return self._route.get(subject, ())

    def _held(
        self, subject: str, rows_of, *args
    ) -> list[tuple[SegmentReader, list]]:
        """``(segment, rows)`` for each segment the route names for
        ``subject`` where the candidate rows ``rows_of(seg, sid, *args)``
        are not empty."""
        return [
            (seg, rows)
            for seg, sid in self._routed(subject)
            if (rows := rows_of(seg, sid, *args))
        ]

    def _fold(self, held, mem_claims: list[ScoredTriple]) -> list[list]:
        """Merge segment rows + memtable claims into position order.

        ``held`` is :meth:`_held`'s answer and ``mem_claims`` are the
        memtable claims of the answer.  Returns ``[position, claim]``
        per live key, sorted by position.  A memtable entry is
        authoritative for its key (its position was resolved against
        the segments at add time, and its confidence is by construction
        the maximum).  The other keys fold their live rows
        (:meth:`_live_keys`) on their :meth:`SegmentReader.row_key`
        strings — first position, max confidence — and only each key's
        winning row is built.

        When one segment holds every row, the memtable holds none of
        the answer and no row's item has a tombstone, there is nothing
        to fold (a segment's keys are unique): each row is built once,
        in position order.
        """
        tomb_items = self._tomb_items
        if len(held) == 1 and not mem_claims:
            ((seg, rows),) = held
            if not tomb_items or tomb_items.isdisjoint(
                (seg.subjects[seg.col_subject[row]],
                 seg.predicates[seg.col_predicate[row]])
                for row in rows
            ):
                seqs = seg.col_seq
                return [
                    [seqs[row], seg.row_scored(row)]
                    for row in sorted(rows, key=seqs.__getitem__)
                ]
        positions = self._positions
        entries = [
            [positions[(scored.triple, scored.provenance)], scored]
            for scored in mem_claims
        ]
        shadowed = set(map(_claim_key, mem_claims))
        won: dict[tuple, list] = {}  # key -> [first position, seg, row]
        for seg, row, key in self._live_keys(held):
            if key in shadowed:
                continue
            seq = seg.col_seq[row]
            entry = won.get(key)
            if entry is None:
                won[key] = [seq, seg, row]
                continue
            if seq < entry[0]:
                entry[0] = seq
            if seg.col_confidence[row] > entry[1].col_confidence[entry[2]]:
                entry[1], entry[2] = seg, row
        entries.extend(
            [seq, seg.row_scored(row)] for seq, seg, row in won.values()
        )
        entries.sort(key=lambda entry: entry[0])
        return entries

    def _live_keys(self, held) -> Iterator[tuple[SegmentReader, int, tuple]]:
        """``(segment, row, row key)`` for every live row of ``held``,
        a key once per segment holding it.  Each row is refused as
        :meth:`SegmentReader.row_key` refuses it; it is dead when a
        tombstone of its own triple is at least as new, probed only for
        a row whose item has a tombstone — so a read pays for its
        candidates and not for the tombstone map."""
        tomb = self._tomb
        tomb_items = self._tomb_items
        for seg, rows in held:
            seqs = seg.col_seq
            for row in rows:
                key = seg.row_key(row)
                if (key[0], key[1]) in tomb_items and seqs[row] <= tomb.get(
                    Triple(key[0], key[1], Value(key[2], _KINDS[key[3]])), -1
                ):
                    continue
                yield seg, row, key

    def _ordered_entries(self) -> list[list]:
        return self._fold(
            [(seg, range(seg.n_rows)) for seg in self._segments if seg.n_rows],
            list(self._mem.iter_claims()),
        )

    def contains_triple(self, triple: Triple) -> bool:
        if self._mem.contains_triple(triple):
            return True
        tomb_seq = self._tomb_seq(triple)
        return any(
            seg.triple_rows(sid, triple, tomb_seq)
            for seg, sid in self._routed(triple.subject)
        )

    # -- mutation ------------------------------------------------------
    def add(self, scored: ScoredTriple) -> bool:
        """Install one claim; True iff the store changed.

        A confidence refresh (memtable- or segment-resident) keeps its
        position.  Only a brand-new key is followed by the auto-flush
        size check — per claim, so a batch far larger than the memtable
        streams through ``add_all`` in bounded memory, spilling a
        segment every ``memtable_limit`` fresh claims.
        """
        key = (scored.triple, scored.provenance)
        if key in self._positions:
            # A refresh keeps its position.
            return self._mem.add(scored)
        existing = self._segment_lookup(scored)
        if existing is not None:
            conf, position = existing
            if conf < scored.confidence:
                # Refresh of a segment-resident claim: shadow it in
                # the memtable at its original position.
                self._positions[key] = position
                self._mem.add(scored)
                return True
            return False
        self._seq += 1
        self._positions[key] = self._seq
        self._mem.add(scored)
        self._live += 1
        self._maybe_flush()
        return True

    def _segment_lookup(
        self, scored: ScoredTriple
    ) -> tuple[float, int] | None:
        """(max confidence, first seqno) of the live segment rows of
        ``scored``'s key: the triple read, restricted to the claim's
        provenance (:meth:`SegmentReader.provenance_rows`), so the probe
        decodes no table but predicates.  A matched row whose
        confidence is not a probability is refused as the claim read
        refuses it."""
        triple = scored.triple
        best: tuple[float, int] | None = None
        held = self._held(
            triple.subject, SegmentReader.triple_rows, triple,
            self._tomb_seq(triple),
        )
        for seg, rows in held:
            for row in seg.provenance_rows(rows, scored.provenance):
                conf, seq = seg.col_confidence[row], seg.col_seq[row]
                if not 0.0 <= conf <= 1.0:
                    seg.row_scored(row)
                best = (conf, seq) if best is None else (
                    max(best[0], conf), min(best[1], seq)
                )
        return best

    def remove(self, triple: Triple) -> list[ScoredTriple]:
        tomb_seq = self._tomb_seq(triple)
        held = self._held(
            triple.subject, SegmentReader.triple_rows, triple, tomb_seq
        )
        dropped = self._mem.remove(triple)
        lost = [entry[1] for entry in self._fold(held, dropped)]
        for scored in dropped:
            del self._positions[(scored.triple, scored.provenance)]
        if not lost:
            return lost
        if held:
            # Only segment-resident rows need a tombstone; pure
            # memtable keys are simply purged.
            self._seq += 1
            self._tomb[triple] = self._seq
            self._mem_tombs.append((triple, self._seq))
            if triple.item not in self._tomb_items:
                self._tomb_items = self._tomb_items | {triple.item}
            self._count("storage_tombstones_total")
        self._live -= len(lost)
        self._maybe_flush()
        return lost

    # -- flush / compaction --------------------------------------------
    def _maybe_flush(self) -> None:
        if len(self._mem) >= self.memtable_limit:
            self.flush()
            if len(self._segments) >= self.compact_threshold:
                self.compact()

    def flush(self) -> None:
        """Spill the memtable (claims + tombstones) to a new segment.

        Atomic via the checkpoint temp-file pattern: segment temp →
        ``os.replace`` → manifest temp → ``os.replace``.  A crash at
        any point leaves the directory recoverable at the previous or
        the new flush point, never torn; the in-memory state is only
        advanced after the manifest lands, so a failed flush can
        simply be retried.
        """
        if not self._mem and not self._mem_tombs:
            return
        started = time.perf_counter()
        fire(self.fault_plan, "storage:flush", 0)
        # The two memtable dicts iterate in step: no key is hashed.
        rows = list(zip(self._positions.values(), self._mem.iter_claims()))
        blob = build_segment_bytes(rows, list(self._mem_tombs))
        name = self._write_segment_file(blob)
        fire(self.fault_plan, "storage:flush", 1)
        os.replace(self.directory / f"{name}.tmp", self.directory / name)
        fire(self.fault_plan, "storage:flush", 2)
        self._names.append(name)
        try:
            self._write_manifest()
            fire(self.fault_plan, "storage:flush", 3)
        except BaseException:
            self._names.pop()
            raise
        reader = SegmentReader(self.directory / name)
        self._segments.append(reader)
        self._route = _routed_with(self._route, reader)
        # Rebound, not cleared: a copy() may share the memtable's index.
        self._mem = MemoryBackend()
        self._positions = {}
        self._mem_tombs.clear()
        self._count("storage_flushes_total")
        self._count("storage_segments_written_total")
        self._observe_seconds(
            "storage_flush_seconds", time.perf_counter() - started
        )
        self._publish_gauges()

    def compact(self) -> None:
        """Merge all segments into one.

        Folds duplicate keys to their max confidence, drops dead rows
        and every tombstone, and stores rows in position order, so the
        store is :meth:`_settled` and iterates by streaming the one
        segment.  Replaced segment files are unlinked best-effort after
        the new manifest lands — a crash in between only leaves
        orphans for the next open to sweep.
        """
        self.flush()
        if not self._segments or self._settled():
            return
        started = time.perf_counter()
        fire(self.fault_plan, "storage:compaction", 0)
        rows = [
            (entry[0], entry[1]) for entry in self._ordered_entries()
        ]
        blob = build_segment_bytes(rows, [])
        name = self._write_segment_file(blob)
        fire(self.fault_plan, "storage:compaction", 1)
        os.replace(self.directory / f"{name}.tmp", self.directory / name)
        fire(self.fault_plan, "storage:compaction", 2)
        old_names = self._names
        self._names = [name]
        try:
            self._write_manifest()
            fire(self.fault_plan, "storage:compaction", 3)
        except BaseException:
            self._names = old_names
            raise
        # Old readers are dropped, not closed: a copy() lineage may
        # still share them (mmaps survive the unlink; the OS reclaims
        # on GC).
        self._segments = [SegmentReader(self.directory / name)]
        self._route = _routed_with({}, self._segments[0])
        self._tomb.clear()
        self._tomb_items = set()
        for old in old_names:
            try:
                (self.directory / old).unlink()
            except OSError:
                pass
        self._count("storage_compactions_total")
        self._count("storage_segments_written_total")
        self._observe_seconds(
            "storage_compaction_seconds", time.perf_counter() - started
        )
        self._publish_gauges()

    def close(self) -> None:
        """Release every mmap.  Invalidates copies sharing the readers."""
        for reader in self._segments:
            reader.close()
        self._segments = []
        self._route = {}
        self._publish_gauges()

    # -- lookup --------------------------------------------------------
    def claims(self, triple: Triple | None = None) -> list[ScoredTriple]:
        if triple is None:
            return [scored for scored in self.iter_claims()]
        tomb_seq = self._tomb_seq(triple)
        entries = self._fold(
            self._held(
                triple.subject, SegmentReader.triple_rows, triple, tomb_seq
            ),
            self._mem.claims(triple),
        )
        return [entry[1] for entry in entries]

    def claims_for_item(
        self, subject: str, predicate: str
    ) -> list[ScoredTriple]:
        entries = self._fold(
            self._held(subject, SegmentReader.item_rows, predicate),
            self._mem.claims_for_item(subject, predicate),
        )
        return [entry[1] for entry in entries]

    def count_for_item(self, subject: str, predicate: str) -> int:
        held = self._held(subject, SegmentReader.item_rows, predicate)
        if (
            len(held) == 1
            and (subject, predicate) not in self._tomb_items
            and not self._mem.count_for_item(subject, predicate)
        ):
            # One segment's keys are unique and nothing shadows them:
            # the count is its rows, each refused as the fold would.
            ((seg, rows),) = held
            for row in rows:
                seg.row_key(row)
            return len(rows)
        keys = {key for _seg, _row, key in self._live_keys(held)}
        # A memtable key shadows the segment rows of its claim.
        keys.update(
            map(_claim_key, self._mem.claims_for_item(subject, predicate))
        )
        return len(keys)

    def match(
        self,
        subject: str | None = None,
        predicate: str | None = None,
        obj: Value | None = None,
    ) -> list[Triple]:
        if subject is None:
            # No index leads to an unbound subject: one walk of the
            # live claims in position order, as the memory backend
            # walks its claim keys, so the answers are its answers.
            claims = self.iter_claims()
        elif predicate is None:
            mem = self._mem
            entries = self._fold(
                self._held(subject, SegmentReader.subject_rows),
                [
                    scored
                    for each in mem.predicates(subject)
                    for scored in mem.claims_for_item(subject, each)
                ],
            )
            claims = (entry[1] for entry in entries)
        else:
            claims = self.claims_for_item(subject, predicate)
        return list(
            dict.fromkeys(
                scored.triple
                for scored in claims
                if (predicate is None or scored.triple.predicate == predicate)
                and (obj is None or scored.triple.obj == obj)
            )
        )

    def objects(self, subject: str, predicate: str) -> set[Value]:
        return {
            triple.obj
            for triple in self.match(subject=subject, predicate=predicate)
        }

    def _live_column_strings(self, column_name: str) -> set[str]:
        """Distinct strings of one column across live segment rows."""
        out: set[str] = set()
        for seg in self._segments:
            column = getattr(seg, f"col_{column_name}")
            table = getattr(seg, f"{column_name}s")
            ids = {column[row] for row in seg.live_rows(self._tomb)}
            out.update(table[i] for i in ids)
        return out

    def subjects(self) -> set[str]:
        out = self._live_column_strings("subject")
        out.update(self._mem.subjects())
        return out

    def predicates(self, subject: str | None = None) -> set[str]:
        if subject is None:
            out = self._live_column_strings("predicate")
            out.update(self._mem.predicates())
            return out
        held = self._held(subject, SegmentReader.subject_rows)
        out = {key[1] for _seg, _row, key in self._live_keys(held)}
        out.update(self._mem.predicates(subject))
        return out

    # -- bulk ----------------------------------------------------------
    def copy(self) -> "SegmentBackend":
        """A staged sibling sharing the immutable segment readers.

        The memtable (a memory backend's copy-on-write ``copy()`` and
        one dict copy of its positions), tombstones and counters are
        copied; the segment readers, the directory and the subject route
        are shared — segments are immutable and the route is rebound
        by whoever flushes, so both lineages read them safely.  Whichever
        lineage flushes last owns the on-disk manifest; the incremental
        engine's stage-then-commit flow keeps exactly one lineage
        mutating at a time.
        """
        clone = SegmentBackend.__new__(SegmentBackend)
        clone.directory = self.directory
        clone.memtable_limit = self.memtable_limit
        clone.compact_threshold = self.compact_threshold
        clone.metrics = self.metrics
        clone.fault_plan = self.fault_plan
        clone._segments = list(self._segments)
        clone._names = list(self._names)
        clone._mem = self._mem.copy()
        clone._positions = self._positions.copy()
        clone._mem_tombs = list(self._mem_tombs)
        clone._tomb = dict(self._tomb)
        clone._tomb_items = self._tomb_items
        clone._route = self._route
        clone._seq = self._seq
        clone._live = self._live
        return clone
