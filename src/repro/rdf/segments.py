"""Disk-resident LSM-style storage backend over mmapped segment files.

The :class:`SegmentBackend` keeps claims in append-only **segment
files** plus a small in-memory **memtable**:

* mutations land in the memtable; when it crosses ``memtable_limit``
  live entries it is *flushed* to a new immutable segment file;
* ``remove`` writes a **tombstone** (triple + sequence number) — a
  segment row is live iff its seqno is greater than the newest
  tombstone seqno for its triple;
* **compaction** merges every segment into one *canonical* segment
  (unique keys, insertion-ordered, max confidence folded, no
  tombstones) and drops the rest.

A segment file is the :mod:`repro.fusion.compiled` idiom spilled to
disk: string-interning tables plus flat ``array('q')``/``array('d')``
columns, mmapped read-only at open and accessed zero-copy through
``memoryview.cast``.  The intern tables are *lazy*: each is length-
prefixed so opening a segment skips over them without touching their
pages, and strings are only decoded when a query actually needs them —
an ingest-only workload never materializes them at all.  CSR-style
SPO/POS/OSP permutation indexes make bound-position lookups slice
scans instead of full scans, and a per-row **key-hash column**
(blake2b-64 of the full claim key) feeds an in-memory hash filter so
the dedup probe for a never-seen claim is a set miss, not a per-
segment string lookup.

Byte layout (all integers native-endian int64, every section 8-byte
aligned)::

    header   : magic "REPROSEG" | version | flags | n_rows | n_tombs
    tables   : 6 string tables (subjects, predicates, lexicals,
               sources, extractors, locators), each:
               nbytes | count | (byte_len | utf8 bytes)*count | pad
               (nbytes spans the whole table, enabling lazy skip)
    rows     : seq[q] subject[q] predicate[q] lexical[q] kind[q]
               source[q] extractor[q] locator[q] confidence[d]
               (one column = n_rows contiguous values)
    tombs    : seq[q] subject[q] predicate[q] lexical[q] kind[q]
    indexes  : spo_perm[q*n_rows]  subj_start[q*(n_subjects+1)]
               pos_perm[q*n_rows]  pred_start[q*(n_predicates+1)]
               osp_perm[q*n_rows]  lex_start[q*(n_lexicals+1)]
               keyhash[q*n_rows]

``flags`` bit 0 marks a *canonical* segment (compaction output),
enabling the streaming iteration fast path.  The code states this
layout once, as ``_TABLES`` and ``_COLUMNS``: the writer, the reader
and ``SegmentReader.close`` walk that declaration, and the end of the
walk is the length the file must have — a file that is shorter or
longer than its header implies is refused with ``StoreError`` at open
rather than mapped into short columns.  (A corrupt manifest or a
listed-but-missing segment is not checked here.)

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
moves to the end — so fusion verdicts are byte-identical.

Concurrency model: one live writer lineage per directory.  ``copy()``
shares the immutable segment readers (cheap staging for the
incremental engine); whichever copy flushes last owns the on-disk
manifest.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import mmap
import os
import struct
import time
from array import array
from collections.abc import Iterator
from pathlib import Path

from repro.errors import StoreError
from repro.rdf.backend import StorageBackend
from repro.rdf.triple import (
    Provenance,
    ScoredTriple,
    Triple,
    Value,
    ValueKind,
)

__all__ = ["SegmentBackend", "SegmentReader"]

_MAGIC = b"REPROSEG"
_VERSION = 1
_FLAG_CANONICAL = 1
_HEADER = struct.Struct("=8sqqqq")

# Fixed object-kind encoding (column values index this tuple).
_KINDS = (
    ValueKind.STRING,
    ValueKind.NUMBER,
    ValueKind.DATE,
    ValueKind.ENTITY,
)
_KIND_INDEX = {kind: index for index, kind in enumerate(_KINDS)}

_MANIFEST = "MANIFEST.json"

# Module-level so two backends in one process never mint the same
# segment or temp file name (same trick as the checkpoint store).
_SERIAL = itertools.count()


# The byte layout, declared once: build_segment_bytes writes,
# SegmentReader maps and SegmentReader.close drops exactly this walk
# (the module docstring draws the same picture), so the end of the
# walk is the length a valid file must have.
_TABLES = (
    "subjects", "predicates", "lexicals", "sources", "extractors",
    "locators",
)
# (reader attribute, array type code, length) in file order.  A length
# is a header count, or a table name for a CSR offset column: one
# entry per id of that table, plus the end.
_COLUMNS = (
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
    ("pos_perm", "q", "n_rows"),
    ("pred_start", "q", "predicates"),
    ("osp_perm", "q", "n_rows"),
    ("lex_start", "q", "lexicals"),
    ("key_hashes", "q", "n_rows"),
)


def _append_table(out: bytearray, strings: list[str]) -> None:
    start = len(out)
    out.extend(struct.pack("=qq", 0, len(strings)))  # nbytes backfilled
    for text in strings:
        raw = text.encode("utf-8")
        out.extend(struct.pack("=q", len(raw)))
        out.extend(raw)
    out.extend(b"\x00" * (-len(out) % 8))
    struct.pack_into("=q", out, start, len(out) - start)


def _key_hash(triple: Triple, prov: Provenance) -> int:
    """Deterministic 64-bit hash of a full claim key.

    Process-independent (unlike ``hash()`` under ``PYTHONHASHSEED``),
    so hashes computed at build time match hashes computed by any
    later reader.  Collisions — including separator ambiguity — only
    cost a wasted exact lookup, never a wrong answer: the hash filter
    gates the probe, the interned-id comparison decides it.
    """
    raw = "\x1f".join(
        (
            triple.subject,
            triple.predicate,
            triple.obj.lexical,
            str(_KIND_INDEX[triple.obj.kind]),
            prov.source_id,
            prov.extractor_id,
            prov.locator,
        )
    ).encode("utf-8", "surrogatepass")
    digest = hashlib.blake2b(raw, digest_size=8).digest()
    return struct.unpack("=q", digest)[0]


def _intern(table: dict[str, int], value: str) -> int:
    index = table.get(value)
    if index is None:
        index = len(table)
        table[value] = index
    return index


def build_segment_bytes(
    rows: list[tuple[int, ScoredTriple]],
    tombs: list[tuple[Triple, int]],
    *,
    canonical: bool = False,
) -> bytes:
    """Serialize claims + tombstones into one segment blob.

    ``rows`` are ``(seqno, claim)`` in the order they should be stored
    (compaction stores them position-sorted and sets ``canonical``).
    Columns are filled by name; ``_COLUMNS`` decides where each lands.
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
        "key_hashes": array("q", map(_key_hash, triples, provs)),
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

    def index(perm: str, starts: str, table: str, *order: str) -> None:
        # One CSR index: row numbers sorted by the ``order`` columns
        # then seq, and per id of ``table`` where its slice starts.
        a, b, c, d = (col[name] for name in order)
        seqs = col["col_seq"]
        col[perm] = array(
            "q",
            sorted(
                range(n), key=lambda i: (a[i], b[i], c[i], d[i], seqs[i])
            ),
        )
        n_ids = len(ids[table])
        offsets = col[starts] = array("q", bytes(8 * (n_ids + 1)))
        for i in a:
            offsets[i + 1] += 1
        for i in range(n_ids):
            offsets[i + 1] += offsets[i]

    index("spo_perm", "subj_start", "subjects",
          "col_subject", "col_predicate", "col_lexical", "col_kind")
    index("pos_perm", "pred_start", "predicates",
          "col_predicate", "col_lexical", "col_kind", "col_subject")
    index("osp_perm", "lex_start", "lexicals",
          "col_lexical", "col_kind", "col_subject", "col_predicate")

    out = bytearray()
    out.extend(
        _HEADER.pack(
            _MAGIC,
            _VERSION,
            _FLAG_CANONICAL if canonical else 0,
            n,
            len(tombs),
        )
    )
    for name in _TABLES:
        _append_table(out, list(ids[name]))
    for name, _code, _length in _COLUMNS:
        out.extend(col[name].tobytes())
    return bytes(out)


def _read_table(buf: memoryview, offset: int) -> list[str]:
    (count,) = struct.unpack_from("=q", buf, offset + 8)
    offset += 16
    strings: list[str] = []
    for _ in range(count):
        (length,) = struct.unpack_from("=q", buf, offset)
        offset += 8
        strings.append(bytes(buf[offset:offset + length]).decode("utf-8"))
        offset += length
    return strings


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
        magic, version, flags, n_rows, n_tombs = _HEADER.unpack_from(buf, 0)
        if magic != _MAGIC:
            raise self._refused(buf, "not a segment file")
        if version != _VERSION:
            raise self._refused(
                buf, f"unsupported segment version {version}"
            )
        self.canonical = bool(flags & _FLAG_CANONICAL)
        self.n_rows = n_rows
        self.n_tombs = n_tombs

        # Record where each intern table lives without decoding it —
        # the nbytes prefix lets us hop over the string payloads.
        counts = {"n_rows": n_rows, "n_tombs": n_tombs}
        offset = _HEADER.size
        self._table_offsets: dict[str, int] = {}
        for name in _TABLES:
            if offset + 16 > size:
                raise self._refused(buf, "segment ends inside its tables")
            nbytes, count = struct.unpack_from("=qq", buf, offset)
            self._table_offsets[name] = offset
            counts[name] = count + 1
            offset += nbytes
        # The layout's walk ends where the file must: a short file
        # would map short columns (a key missing from the dedup
        # filter), a long one was not written by build_segment_bytes.
        expected = offset + 8 * sum(
            counts[length] for _name, _code, length in _COLUMNS
        )
        if expected != size:
            raise self._refused(
                buf, f"segment is {size} bytes, its header says {expected}"
            )

        self._views: list[memoryview] = [buf]
        for name, code, length in _COLUMNS:
            end = offset + 8 * counts[length]
            view = buf[offset:end].cast(code)
            self._views.append(view)
            setattr(self, name, view)
            offset = end
        # table name -> {string: id}, built on a table's first lookup.
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

    def __getattr__(self, name: str) -> list[str]:
        # Reached only for an attribute not set yet: a string table is
        # decoded on the first query that needs it, then kept as a
        # plain attribute (``reader.subjects[id]``).
        offset = self.__dict__.get("_table_offsets", {}).get(name)
        if offset is None:
            raise AttributeError(name)
        buf = memoryview(self._mm)
        try:
            table = _read_table(buf, offset)
        finally:
            buf.release()
        self.__dict__[name] = table
        return table

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

    def row_provenance(self, row: int) -> Provenance:
        return Provenance(
            self.sources[self.col_source[row]],
            self.extractors[self.col_extractor[row]],
            self.locators[self.col_locator[row]],
        )

    # -- slice access --------------------------------------------------
    def subject_rows(self, subject: str) -> Iterator[int]:
        """Row indexes of one subject, via the SPO permutation slice."""
        sid = self.string_id("subjects", subject)
        if sid is None:
            return iter(())
        lo, hi = self.subj_start[sid], self.subj_start[sid + 1]
        perm = self.spo_perm
        return (perm[i] for i in range(lo, hi))

    def predicate_rows(self, predicate: str) -> Iterator[int]:
        pid = self.string_id("predicates", predicate)
        if pid is None:
            return iter(())
        lo, hi = self.pred_start[pid], self.pred_start[pid + 1]
        perm = self.pos_perm
        return (perm[i] for i in range(lo, hi))

    def object_rows(self, obj: Value) -> Iterator[int]:
        lid = self.string_id("lexicals", obj.lexical)
        if lid is None:
            return iter(())
        kind = _KIND_INDEX[obj.kind]
        lo, hi = self.lex_start[lid], self.lex_start[lid + 1]
        perm = self.osp_perm
        kinds = self.col_kind
        return (
            perm[i] for i in range(lo, hi) if kinds[perm[i]] == kind
        )

    def triple_rows(self, triple: Triple, tomb_seq: int) -> list[int]:
        """Live row indexes asserting exactly ``triple``."""
        pid = self.string_id("predicates", triple.predicate)
        lid = self.string_id("lexicals", triple.obj.lexical)
        if pid is None or lid is None:
            return []
        kind = _KIND_INDEX[triple.obj.kind]
        seqs = self.col_seq
        preds = self.col_predicate
        lexes = self.col_lexical
        kinds = self.col_kind
        return [
            row
            for row in self.subject_rows(triple.subject)
            if preds[row] == pid
            and lexes[row] == lid
            and kinds[row] == kind
            and seqs[row] > tomb_seq
        ]

    def intern_tomb_map(
        self, tomb: dict[Triple, int]
    ) -> dict[tuple[int, int, int, int], int]:
        """Project a triple-keyed tombstone map onto this segment's ids.

        Triples whose strings this segment never interned cannot match
        any row here and are skipped.
        """
        out: dict[tuple[int, int, int, int], int] = {}
        for triple, seq in tomb.items():
            sid = self.string_id("subjects", triple.subject)
            if sid is None:
                continue
            pid = self.string_id("predicates", triple.predicate)
            lid = self.string_id("lexicals", triple.obj.lexical)
            if pid is None or lid is None:
                continue
            out[(sid, pid, lid, _KIND_INDEX[triple.obj.kind])] = seq
        return out

    def live_rows(
        self, tomb: dict[Triple, int]
    ) -> Iterator[int]:
        """All live row indexes, in storage order."""
        if not tomb:
            return iter(range(self.n_rows))
        tomb_ids = self.intern_tomb_map(tomb)
        if not tomb_ids:
            return iter(range(self.n_rows))
        seqs = self.col_seq
        subs = self.col_subject
        preds = self.col_predicate
        lexes = self.col_lexical
        kinds = self.col_kind

        def generate():
            for row in range(self.n_rows):
                dead_at = tomb_ids.get(
                    (subs[row], preds[row], lexes[row], kinds[row])
                )
                if dead_at is None or seqs[row] > dead_at:
                    yield row

        return generate()

    def iter_tombstones(self) -> Iterator[tuple[Triple, int]]:
        for i in range(self.n_tombs):
            yield (
                Triple(
                    self.subjects[self.tomb_subject[i]],
                    self.predicates[self.tomb_predicate[i]],
                    Value(
                        self.lexicals[self.tomb_lexical[i]],
                        _KINDS[self.tomb_kind[i]],
                    ),
                ),
                self.tomb_seq[i],
            )

    def lookup_key(
        self,
        triple: Triple,
        prov: Provenance,
        tomb_seq: int,
    ) -> tuple[float, int] | None:
        """(max confidence, first seqno) of live rows for one claim key."""
        src = self.string_id("sources", prov.source_id)
        ext = self.string_id("extractors", prov.extractor_id)
        loc = self.string_id("locators", prov.locator)
        if src is None or ext is None or loc is None:
            return None
        srcs = self.col_source
        exts = self.col_extractor
        locs = self.col_locator
        seqs = self.col_seq
        confs = self.col_confidence
        best: tuple[float, int] | None = None
        for row in self.triple_rows(triple, tomb_seq):
            if srcs[row] != src or exts[row] != ext or locs[row] != loc:
                continue
            if best is None:
                best = (confs[row], seqs[row])
            else:
                best = (
                    max(best[0], confs[row]),
                    min(best[1], seqs[row]),
                )
        return best


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
        # (triple, provenance) -> (position seqno, stored claim);
        # entries are replaced, never written into, so a copy() is one
        # dict copy.
        self._mem: dict[tuple[Triple, Provenance], tuple] = {}
        self._mem_tombs: list[tuple[Triple, int]] = []
        # triple -> newest tombstone seqno (memtable + all segments)
        self._tomb: dict[Triple, int] = {}
        # Key hashes of every segment-resident row (live or not): the
        # dedup probe for a never-stored claim is one set miss instead
        # of a per-segment string lookup.  ~tens of bytes per key —
        # the in-RAM role a bloom filter plays in production LSMs.
        # Shared with copy() siblings: rebound, never updated in place,
        # once the directory is open.
        self._key_filter: set[int] = set()
        self._seq = 0
        self._live = 0
        self._open_directory()

    # -- open / manifest -----------------------------------------------
    def _open_directory(self) -> None:
        manifest = self.directory / _MANIFEST
        names: list[str] = []
        if manifest.exists():
            state = json.loads(manifest.read_text())
            names = list(state["segments"])
            self._seq = int(state["next_seq"])
            self._live = int(state["live"])
        for name in names:
            reader = SegmentReader(self.directory / name)
            self._segments.append(reader)
            self._names.append(name)
            self._key_filter.update(reader.key_hashes)
            for triple, seq in reader.iter_tombstones():
                if seq > self._tomb.get(triple, -1):
                    self._tomb[triple] = seq
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

    # -- fault / metrics hooks -----------------------------------------
    def _fault(self, scope: str, phase: int) -> None:
        if self.fault_plan is not None:
            self.fault_plan.task_delay(scope, phase, 0)

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
            return (entry[1] for entry in self._mem.values())
        only = self._segments[0]
        if (
            len(self._segments) == 1
            and only.canonical
            and not self._mem
            and not self._tomb
        ):
            # Canonical fast path: rows are already unique,
            # position-ordered and confidence-folded.
            return (only.row_scored(row) for row in range(only.n_rows))
        return (scored for _pos, scored in self._ordered_entries())

    def _fold(self, segment_rows, mem_pred) -> dict:
        """Merge segment rows + memtable entries into per-key entries.

        ``segment_rows(seg)`` yields candidate row indexes (liveness
        is checked here); ``mem_pred(key)`` filters memtable entries.
        Returns ``{key: [position, claim]}`` with max confidence
        folded; the memtable entry, when present, is authoritative for
        both (its position was resolved against the segments at add
        time, and its confidence is by construction the maximum).
        """
        merged: dict = {}
        for seg in self._segments:
            tomb_ids = (
                seg.intern_tomb_map(self._tomb) if self._tomb else {}
            )
            seqs = seg.col_seq
            subs = seg.col_subject
            preds = seg.col_predicate
            lexes = seg.col_lexical
            kinds = seg.col_kind
            confs = seg.col_confidence
            for row in segment_rows(seg):
                seq = seqs[row]
                if tomb_ids:
                    dead_at = tomb_ids.get(
                        (subs[row], preds[row], lexes[row], kinds[row])
                    )
                    if dead_at is not None and seq <= dead_at:
                        continue
                scored = seg.row_scored(row)
                key = (scored.triple, scored.provenance)
                entry = merged.get(key)
                if entry is None:
                    merged[key] = [seq, scored]
                else:
                    if seq < entry[0]:
                        entry[0] = seq
                    if confs[row] > entry[1].confidence:
                        entry[1] = scored
        for key, entry in self._mem.items():
            if not mem_pred(key):
                continue
            merged[key] = [entry[0], entry[1]]
        return merged

    def _ordered_entries(self) -> list[list]:
        merged = self._fold(
            lambda seg: range(seg.n_rows), lambda key: True
        )
        return sorted(merged.values(), key=lambda entry: entry[0])

    def contains_triple(self, triple: Triple) -> bool:
        for key in self._mem:
            if key[0] == triple:
                return True
        tomb_seq = self._tomb_seq(triple)
        return any(
            seg.triple_rows(triple, tomb_seq) for seg in self._segments
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
        entry = self._mem.get(key)
        if entry is not None:
            if entry[1].confidence < scored.confidence:
                # A refresh keeps its position.
                self._mem[key] = (entry[0], scored)
                return True
            return False
        existing = self._segment_lookup(key)
        if existing is not None:
            conf, position = existing
            if conf < scored.confidence:
                # Refresh of a segment-resident claim: shadow it in
                # the memtable at its original position.
                self._mem[key] = (position, scored)
                return True
            return False
        self._seq += 1
        self._mem[key] = (self._seq, scored)
        self._live += 1
        self._maybe_flush()
        return True

    def _segment_lookup(
        self, key: tuple[Triple, Provenance]
    ) -> tuple[float, int] | None:
        triple, prov = key
        if _key_hash(triple, prov) not in self._key_filter:
            return None
        tomb_seq = self._tomb_seq(triple)
        best: tuple[float, int] | None = None
        for seg in self._segments:
            found = seg.lookup_key(triple, prov, tomb_seq)
            if found is None:
                continue
            if best is None:
                best = found
            else:
                best = (max(best[0], found[0]), min(best[1], found[1]))
        return best

    def remove(self, triple: Triple) -> int:
        mem_keys = [key for key in self._mem if key[0] == triple]
        tomb_seq = self._tomb_seq(triple)
        seg_keys: set = set()
        for seg in self._segments:
            for row in seg.triple_rows(triple, tomb_seq):
                seg_keys.add((triple, seg.row_provenance(row)))
        victims = set(mem_keys) | seg_keys
        if not victims:
            return 0
        for key in mem_keys:
            del self._mem[key]
        if seg_keys:
            # Only segment-resident rows need a tombstone; pure
            # memtable keys are simply purged.
            self._seq += 1
            self._tomb[triple] = self._seq
            self._mem_tombs.append((triple, self._seq))
            self._count("storage_tombstones_total")
        self._live -= len(victims)
        self._maybe_flush()
        return len(victims)

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
        self._fault("storage:flush", 0)
        rows = [
            (entry[0], entry[1]) for entry in self._mem.values()
        ]
        blob = build_segment_bytes(rows, list(self._mem_tombs))
        name = self._write_segment_file(blob)
        self._fault("storage:flush", 1)
        os.replace(self.directory / f"{name}.tmp", self.directory / name)
        self._fault("storage:flush", 2)
        self._names.append(name)
        try:
            self._write_manifest()
            self._fault("storage:flush", 3)
        except BaseException:
            self._names.pop()
            raise
        reader = SegmentReader(self.directory / name)
        self._segments.append(reader)
        self._key_filter = self._key_filter.union(reader.key_hashes)
        self._mem.clear()
        self._mem_tombs.clear()
        self._count("storage_flushes_total")
        self._count("storage_segments_written_total")
        self._observe_seconds(
            "storage_flush_seconds", time.perf_counter() - started
        )
        self._publish_gauges()

    def compact(self) -> None:
        """Merge all segments into one canonical segment.

        Folds duplicate keys to their max confidence, drops dead rows
        and every tombstone, and stores rows in position order with
        the canonical flag set (enabling the streaming iteration fast
        path).  Replaced segment files are unlinked best-effort after
        the new manifest lands — a crash in between only leaves
        orphans for the next open to sweep.
        """
        self.flush()
        if not self._segments:
            return
        if (
            len(self._segments) == 1
            and self._segments[0].canonical
            and not self._tomb
        ):
            return
        started = time.perf_counter()
        self._fault("storage:compaction", 0)
        rows = [
            (entry[0], entry[1]) for entry in self._ordered_entries()
        ]
        blob = build_segment_bytes(rows, [], canonical=True)
        name = self._write_segment_file(blob)
        self._fault("storage:compaction", 1)
        os.replace(self.directory / f"{name}.tmp", self.directory / name)
        self._fault("storage:compaction", 2)
        old_names = self._names
        self._names = [name]
        try:
            self._write_manifest()
            self._fault("storage:compaction", 3)
        except BaseException:
            self._names = old_names
            raise
        # Old readers are dropped, not closed: a copy() lineage may
        # still share them (mmaps survive the unlink; the OS reclaims
        # on GC).
        self._segments = [SegmentReader(self.directory / name)]
        self._key_filter = set(self._segments[0].key_hashes)
        self._tomb.clear()
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
        self._publish_gauges()

    # -- lookup --------------------------------------------------------
    def claims(self, triple: Triple | None = None) -> list[ScoredTriple]:
        if triple is None:
            return [scored for scored in self.iter_claims()]
        tomb_seq = self._tomb_seq(triple)
        merged = self._fold(
            lambda seg: seg.triple_rows(triple, tomb_seq),
            lambda key: key[0] == triple,
        )
        return [
            entry[1]
            for entry in sorted(merged.values(), key=lambda e: e[0])
        ]

    def claims_for_item(
        self, subject: str, predicate: str
    ) -> list[ScoredTriple]:
        def rows(seg):
            preds = seg.col_predicate
            pid = seg.string_id("predicates", predicate)
            if pid is None:
                return ()
            return (
                row
                for row in seg.subject_rows(subject)
                if preds[row] == pid
            )

        merged = self._fold(
            rows,
            lambda key: (
                key[0].subject == subject and key[0].predicate == predicate
            ),
        )
        return [
            entry[1]
            for entry in sorted(merged.values(), key=lambda e: e[0])
        ]

    def match(
        self,
        subject: str | None = None,
        predicate: str | None = None,
        obj: Value | None = None,
    ) -> list[Triple]:
        if subject is not None:
            merged = self._fold(
                lambda seg: seg.subject_rows(subject),
                lambda key: key[0].subject == subject,
            )
        elif predicate is not None:
            merged = self._fold(
                lambda seg: seg.predicate_rows(predicate),
                lambda key: key[0].predicate == predicate,
            )
        elif obj is not None:
            merged = self._fold(
                lambda seg: seg.object_rows(obj),
                lambda key: key[0].obj == obj,
            )
        else:
            merged = self._fold(
                lambda seg: range(seg.n_rows), lambda key: True
            )
        seen: set[Triple] = set()
        out: list[Triple] = []
        for entry in sorted(merged.values(), key=lambda e: e[0]):
            triple = entry[1].triple
            if triple in seen:
                continue
            if predicate is not None and triple.predicate != predicate:
                continue
            if obj is not None and triple.obj != obj:
                continue
            seen.add(triple)
            out.append(triple)
        return out

    def objects(self, subject: str, predicate: str) -> set[Value]:
        return {
            triple.obj
            for triple in self.match(subject=subject, predicate=predicate)
        }

    def _live_column_strings(self, column_name: str) -> set[str]:
        """Distinct strings of one column across live rows + memtable."""
        out: set[str] = set()
        for seg in self._segments:
            column = getattr(seg, f"col_{column_name}")
            table = getattr(seg, f"{column_name}s")
            ids = {column[row] for row in seg.live_rows(self._tomb)}
            out.update(table[i] for i in ids)
        return out

    def subjects(self) -> set[str]:
        out = self._live_column_strings("subject")
        out.update(key[0].subject for key in self._mem)
        return out

    def predicates(self, subject: str | None = None) -> set[str]:
        if subject is None:
            out = self._live_column_strings("predicate")
            out.update(key[0].predicate for key in self._mem)
            return out
        merged = self._fold(
            lambda seg: seg.subject_rows(subject),
            lambda key: key[0].subject == subject,
        )
        return {entry[1].triple.predicate for entry in merged.values()}

    # -- bulk ----------------------------------------------------------
    def copy(self) -> "SegmentBackend":
        """A staged sibling sharing the immutable segment readers.

        The memtable (one dict copy: its entries are tuples),
        tombstones and counters are copied; the segment readers, the
        directory and the key filter are shared — segments are
        immutable and the filter is rebound by whoever flushes, so
        both lineages read them safely.  Whichever
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
        clone._mem = dict(self._mem)
        clone._mem_tombs = list(self._mem_tombs)
        clone._tomb = dict(self._tomb)
        clone._key_filter = self._key_filter
        clone._seq = self._seq
        clone._live = self._live
        return clone
