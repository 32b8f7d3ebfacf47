"""Versioned KB handle: snapshot-isolated reads by construction.

The serving layer never lets a reader observe in-flight ingest state.
Everything a read can touch is packaged into an immutable
:class:`KBVersion` — the claim store, the fusion verdicts, their read
index (the top-k ranking and the per-predicate subject lists), and the
ingest bookkeeping (consumed offset + dedup fence) that produced them
— and the only way the served state changes is
:meth:`VersionedKB.commit` rebinding the current-version attribute.
A single attribute rebind is atomic under the interpreter, so a reader
that pinned version *N* keeps answering from *N* while version *N+1*
commits; there is no observable torn state, mirroring the
single-rebind commit the incremental engine already proves chaos-safe
(:mod:`repro.incremental.engine`).

Version stores follow the engine's copy-on-write discipline: each
committed :class:`~repro.incremental.engine._FusionState` owns a store
that is never mutated again (deltas journal against copies), so a
``KBVersion`` can hold the engine's store *by reference* — zero-copy
over the segment backend's mmapped files — and still be immutable.
Callers outside that discipline should hold a
:meth:`repro.rdf.store.TripleStore.copy` instead.

The read index follows the same discipline: the engine builds it when
it primes and patches a copy of it over each delta's region
(:func:`repro.fusion.readindex.patched`), never the one a committed
version holds, so a version carries its engine state's index by
reference and a reader pinned to it reads it as built.  A poisoned
delta's successor carries its predecessor's index object with its
result.  A version is always handed its index; nothing here builds
one.

The dedup fence is an insertion-ordered dict of ids (values ``None``),
oldest first, so a membership test is one hash probe; the server builds
each successor's as a copy trimmed to its window
(:mod:`repro.serving.server`) and never mutates a committed one.  It is
part of the version so that the fence, the consumed offset and the
served state commit as one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ServingError
from repro.fusion.base import FusionResult
from repro.fusion.readindex import ReadIndex
from repro.rdf.store import TripleStore

__all__ = ["KBVersion", "VersionedKB"]


@dataclass(frozen=True, slots=True)
class KBVersion:
    """One committed, immutable serving state.

    ``version_id`` counts commits (0 is the primed base corpus);
    ``sequence`` is the incremental engine's delta counter for this
    state.  ``read_index`` is the ranking and predicate index of
    ``result`` that :class:`~repro.serving.query.KBReader` reads.
    ``applied`` is the dedup fence: the ids of the most recently
    fenced events, oldest first — redelivered or duplicate-published
    events whose id is in it are skipped, never re-applied.
    ``offset`` is the next event-log offset this version expects,
    so a restarted consumer resumes exactly where the committed state
    left off.
    """

    version_id: int
    sequence: int
    store: TripleStore
    result: FusionResult
    read_index: ReadIndex
    offset: int = 0
    applied: dict[str, None] = field(default_factory=dict)
    label: str = ""

    def canonical_bytes(self) -> bytes:
        """Canonical serialization of the served verdicts.

        Delegates to :meth:`FusionResult.canonical_bytes`; two versions
        serving byte-identical decisions compare equal here regardless
        of how many redeliveries or retries produced them.
        """
        return self.result.canonical_bytes()

    def describe(self) -> dict:
        """JSON-ready summary (no claim payloads)."""
        return {
            "version_id": self.version_id,
            "sequence": self.sequence,
            "offset": self.offset,
            "claims": len(self.store),
            "fused_items": len(self.result.truths),
            "label": self.label,
        }


class VersionedKB:
    """The atomically-swapped current-version handle.

    ``current`` is the committed :class:`KBVersion`; ``commit()``
    installs a successor with one attribute rebind.  Commits must be
    monotonic in ``version_id`` — the serving consumer is the single
    writer, and a stale commit (e.g. from a logic bug resurrecting an
    old state) is refused rather than silently regressing reads.
    """

    def __init__(self, initial: KBVersion) -> None:
        if initial.version_id < 0:
            raise ServingError("initial version_id must be >= 0")
        self._current = initial

    @property
    def current(self) -> KBVersion:
        """The most recently committed version.

        The returned object is frozen and its store is never mutated
        (copy-on-write discipline), so holding it pins it: it stays
        valid forever — staleness, not corruption, is the only cost.
        """
        return self._current

    def commit(self, version: KBVersion) -> KBVersion:
        """Install a successor version (the single-rebind commit point).

        Raises :class:`~repro.errors.ServingError` unless
        ``version.version_id`` is exactly one past the current id.
        """
        current = self._current
        if version.version_id != current.version_id + 1:
            raise ServingError(
                f"non-monotonic commit: version {version.version_id} "
                f"after {current.version_id}"
            )
        # The commit point: everything before this line is invisible
        # to readers, everything after is fully visible.
        self._current = version
        return version
