"""Versioned KB handle: snapshot-isolated reads by construction.

The serving layer never lets a reader observe in-flight ingest state.
Everything a read can touch is packaged into an immutable
:class:`KBVersion` — the claim store, the fusion verdicts, and the
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
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ServingError
from repro.fusion.base import FusionResult
from repro.rdf.store import TripleStore

__all__ = ["KBVersion", "VersionedKB"]


@dataclass(frozen=True, slots=True)
class KBVersion:
    """One committed, immutable serving state.

    ``version_id`` counts commits (0 is the primed base corpus);
    ``sequence`` is the incremental engine's delta counter for this
    state.  ``applied`` is the dedup fence: the event ids whose deltas
    are folded into this version — redelivered or duplicate-published
    events whose id is in the fence are skipped, never re-applied.
    ``offset`` is the next event-log offset this version expects,
    so a restarted consumer resumes exactly where the committed state
    left off.
    """

    version_id: int
    sequence: int
    store: TripleStore
    result: FusionResult
    offset: int = 0
    applied: frozenset[str] = field(default_factory=frozenset)
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
            "applied_events": len(self.applied),
            "claims": len(self.store),
            "fused_items": len(self.result.truths),
            "label": self.label,
        }


class VersionedKB:
    """The atomically-swapped current-version handle.

    ``pin()`` hands out the current :class:`KBVersion`; ``commit()``
    installs a successor with one attribute rebind.  Commits must be
    monotonic in ``version_id`` — the serving consumer is the single
    writer, and a stale commit (e.g. from a logic bug resurrecting an
    old state) is refused rather than silently regressing reads.
    """

    def __init__(self, initial: KBVersion) -> None:
        if initial.version_id < 0:
            raise ServingError("initial version_id must be >= 0")
        self._current = initial
        self._commits = 0

    @property
    def current(self) -> KBVersion:
        """The most recently committed version (not pinned — live)."""
        return self._current

    @property
    def commits(self) -> int:
        """How many successor versions have been committed."""
        return self._commits

    def pin(self) -> KBVersion:
        """Pin the current version for torn-free reads.

        The returned object is frozen and its store is never mutated
        (copy-on-write discipline), so the pin stays valid forever —
        staleness, not corruption, is the only cost of holding it.
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
        self._commits += 1
        return version
