"""Checkpoint/resume support for the end-to-end pipeline.

A long pipeline run that dies in fusion should not have to redo
extraction: stage outputs are spilled to a checkpoint directory and
``KnowledgeBaseConstructionPipeline.run(resume=True)`` restores them
instead of recomputing.  Two rules keep resume safe:

* **Fingerprinted** — every checkpoint embeds a fingerprint hashed
  from the *data-determining* config fields (world/generator/extractor
  configs, seeds, toggles that change what gets extracted).  A
  checkpoint whose fingerprint does not match the current config is
  silently treated as absent — stale state is rejected, never merged.
  Execution knobs (fusion sharding, retry policy, fault plan, the
  checkpoint directory itself) are deliberately excluded: they
  change *how* a run executes, not *what* it computes, so a run
  interrupted by an injected fault can resume without one.
* **Atomic** — payloads are pickled to a temp file and ``os.replace``d
  into place, so a crash mid-write leaves either the old checkpoint or
  none, never a truncated one (unreadable files are also treated as
  absent).

Checkpointed stages (in pipeline order):

* ``"extraction"`` — everything stages 1–5 produced: snapshots,
  extractor outputs, seed sets, Set_E, mention classes, plus the
  report fragments (timings, health) those stages generated;
* ``"claims"`` — the scored claim list after entity/attribute
  resolution and confidence scoring;
* ``"incremental"`` — the post-delta claim corpus and delta sequence
  written by ``run_incremental()``, so resume and delta-apply compose
  (a resumed session primes its incremental engine from the last
  applied delta, not from the original claims).

Fusion and later stages always rerun: they are comparatively cheap and
depend on fusion toggles outside the fingerprint.
"""

from __future__ import annotations

import hashlib
import itertools
import os
import pickle
import time
from pathlib import Path

__all__ = ["CHECKPOINT_STAGES", "CheckpointStore", "config_fingerprint"]

CHECKPOINT_STAGES = ("extraction", "claims", "incremental")

# A temp file younger than this is assumed to belong to a live writer
# (another process mid-``save``); the save-path sweep leaves it alone.
_STALE_TEMP_SECONDS = 60.0

# Module-level so two stores in one process can never mint the same
# ``<stage>.ckpt.<pid>.<n>.tmp`` name.
_TEMP_SERIAL = itertools.count()

# PipelineConfig fields that determine the *data* a run produces.
_FINGERPRINT_FIELDS = (
    "world",
    "kb_pair",
    "querylog",
    "websites",
    "webtext",
    "discover_new_entities",
    "functionality_source",
    "resolve_attributes",
    # The storage backend does not change fused *verdicts* (that
    # equivalence is property-tested), but an "incremental" checkpoint
    # resumed under a different backend would silently detach the
    # checkpointed delta sequence from the segment directory's on-disk
    # lineage — so backend identity participates in the fingerprint.
    "storage_backend",
)


def config_fingerprint(config: object) -> str:
    """Hash the data-determining fields of a pipeline config.

    Accepts any object exposing the fingerprint fields (dataclass
    ``repr``s are deterministic for identically-constructed configs),
    so changing a seed, a generator knob or an extraction toggle yields
    a different fingerprint and invalidates existing checkpoints.
    """
    parts = [
        f"{name}={getattr(config, name)!r}" for name in _FINGERPRINT_FIELDS
    ]
    return hashlib.sha256("\x1e".join(parts).encode()).hexdigest()


class CheckpointStore:
    """Pickle-per-stage checkpoint directory with fingerprint checks.

    Temp-file hygiene: a process dying between ``write_bytes`` and
    ``os.replace`` orphans its temp file, so (a) temp names embed the
    writing process's pid plus a module-wide serial — concurrent runs
    (or two stores in one process) can never clobber each other's
    in-flight temp file — and (b) both :meth:`save` and :meth:`clear`
    sweep ``*.tmp`` siblings left by earlier crashes.  Sweeps only
    treat *this process's own* temps (pid embedded in the name) as
    fair game unconditionally; anything else — another pid's, the
    legacy pid-less naming — is deleted only once it looks abandoned
    (older than :data:`_STALE_TEMP_SECONDS`), because when tenants
    share one checkpoint root a sibling store may be mid-``save`` and
    deleting its in-flight temp out from under its ``os.replace``
    loses that checkpoint.  Both sweeps are best-effort: a
    concurrently-vanishing file is not an error.

    ``metrics`` (optional) is a :class:`repro.obs.MetricsRegistry`;
    when set, the store counts ``checkpoint_saves_total`` /
    ``checkpoint_loads_total`` / ``checkpoint_stale_total`` /
    ``checkpoint_misses_total`` (per stage) and
    ``checkpoint_temps_swept_total``.
    """

    def __init__(
        self,
        directory: str | os.PathLike,
        fingerprint: str,
        *,
        metrics=None,
    ) -> None:
        self.directory = Path(directory)
        self.fingerprint = fingerprint
        self.metrics = metrics

    def path(self, stage: str) -> Path:
        return self.directory / f"{stage}.ckpt"

    def _temp_path(self, stage: str) -> Path:
        """A temp name unique across stores and processes."""
        serial = next(_TEMP_SERIAL)
        return self.directory / (
            f"{stage}.ckpt.{os.getpid()}.{serial}.tmp"
        )

    def _count(self, name: str, stage: str | None = None) -> None:
        if self.metrics is not None:
            if stage is None:
                self.metrics.counter(name).inc()
            else:
                self.metrics.counter(name, stage=stage).inc()

    def sweep_temp_files(
        self,
        stage: str | None = None,
        *,
        max_age: float | None = None,
    ) -> int:
        """Remove orphaned ``*.tmp`` files; returns how many went away.

        With ``stage`` set only that stage's temps are swept (the
        ``save`` path); without it every checkpoint temp in the
        directory is (the ``clear`` path).  With ``max_age`` set, temps
        modified within the last ``max_age`` seconds are skipped — they
        may belong to a live concurrent writer.  Without ``max_age``
        only temps this process wrote (its pid in the name) go
        unconditionally; foreign temps — another pid's, or the legacy
        pid-less ``<stage>.ckpt.tmp`` naming — still get the
        :data:`_STALE_TEMP_SECONDS` age gate, since a store sharing
        the directory may be mid-``save``.
        """
        pattern = f"{stage}.ckpt*.tmp" if stage else "*.ckpt*.tmp"
        own_marker = f".ckpt.{os.getpid()}."
        removed = 0
        for orphan in self.directory.glob(pattern):
            try:
                age_gate = max_age
                if age_gate is None and own_marker not in orphan.name:
                    age_gate = _STALE_TEMP_SECONDS
                if age_gate is not None:
                    age = time.time() - orphan.stat().st_mtime
                    if age < age_gate:
                        continue  # possibly a live writer's temp
                orphan.unlink()
                removed += 1
            except OSError:
                pass  # already gone or held elsewhere: not our orphan
        if removed and self.metrics is not None:
            self.metrics.counter("checkpoint_temps_swept_total").inc(removed)
        return removed

    def save(self, stage: str, payload: object) -> Path:
        """Atomically write one stage's checkpoint."""
        self.directory.mkdir(parents=True, exist_ok=True)
        self.sweep_temp_files(stage, max_age=_STALE_TEMP_SECONDS)
        blob = pickle.dumps(
            {"fingerprint": self.fingerprint, "stage": stage,
             "payload": payload},
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        target = self.path(stage)
        temp = self._temp_path(stage)
        temp.write_bytes(blob)
        os.replace(temp, target)
        self._count("checkpoint_saves_total", stage)
        return target

    def load(self, stage: str):
        """Return the stage payload, or None if missing/stale/unreadable."""
        target = self.path(stage)
        if not target.exists():
            self._count("checkpoint_misses_total", stage)
            return None
        try:
            envelope = pickle.loads(target.read_bytes())
        except Exception:
            self._count("checkpoint_misses_total", stage)
            return None  # truncated or foreign file: treat as absent
        if not isinstance(envelope, dict):
            self._count("checkpoint_misses_total", stage)
            return None
        if envelope.get("fingerprint") != self.fingerprint:
            self._count("checkpoint_stale_total", stage)
            return None  # stale: produced by a different config/seed
        self._count("checkpoint_loads_total", stage)
        return envelope.get("payload")

    def clear(self) -> int:
        """Delete every checkpoint (and orphaned temp) file.

        Returns how many files were removed, temps included.
        """
        removed = 0
        for stage in CHECKPOINT_STAGES:
            target = self.path(stage)
            if target.exists():
                target.unlink()
                removed += 1
        removed += self.sweep_temp_files()
        return removed
