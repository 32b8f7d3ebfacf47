"""Configuration of the end-to-end pipeline (:mod:`repro.core.pipeline`)."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import PipelineError
from repro.faults import FaultPlan, RetryPolicy
from repro.synth.kb_snapshots import KbPairConfig
from repro.synth.querylog import QueryLogConfig
from repro.synth.websites import WebsiteConfig
from repro.synth.webtext import WebTextConfig
from repro.synth.world import WorldConfig

__all__ = ["PipelineConfig"]


@dataclass(slots=True)
class PipelineConfig:
    """All knobs of the end-to-end run."""

    world: WorldConfig = field(default_factory=WorldConfig)
    kb_pair: KbPairConfig = field(default_factory=KbPairConfig)
    querylog: QueryLogConfig = field(default_factory=QueryLogConfig)
    websites: WebsiteConfig = field(default_factory=WebsiteConfig)
    webtext: WebTextConfig = field(default_factory=WebTextConfig)
    # New-entity creation (Sec. 3.1): when on, Set_E is still the
    # Freebase snapshot's entity sets, but pages naming unknown
    # entities harvest mention facts, and joint resolution links or
    # clusters them into new entities before fusion.
    discover_new_entities: bool = False
    # Functional/non-functional handling: "schema" uses the world
    # catalogs' functional flags; "estimated" derives functionality
    # degrees from the claims (repro.fusion.functionality) — the
    # unsupervised option the paper's Sec. 1 calls for.
    functionality_source: str = "schema"
    use_hierarchy: bool = True
    use_source_correlations: bool = True
    use_extractor_correlations: bool = True
    use_confidence: bool = True
    resolve_attributes: bool = True
    # Convergence tolerance forwarded to the multi-truth core; None
    # keeps the core's default.  Set 0.0 to pin the iteration count —
    # the regime in which run_incremental() is byte-identical to a
    # full re-fusion.
    fusion_tolerance: float | None = None
    # -- Fault tolerance ------------------------------------------------
    # Retry policy for the fusion MapReduce job.  Setting it (or
    # ``fault_plan``) runs the core fuse per connected component of the
    # claim graph (repro.fusion.sharding) as the reduce tasks of a
    # MapReduce job, each retried under this policy; None with a fault
    # plan means one attempt.  Truths are identical to the unsharded
    # fuse; beliefs match bit-for-bit at tolerance 0 (see the sharding
    # module's early-exit caveat).
    retry: RetryPolicy | None = None
    # Deterministic fault plan (repro.faults) injected into the stage
    # fault points, record validation and the fusion job.  Testing
    # only; None in production runs.
    fault_plan: FaultPlan | None = None
    # Deadline in seconds for each extraction stage (measured work time
    # plus any injected slow-call seconds); overruns degrade the stage.
    stage_timeout: float | None = None
    # Minimum number of healthy extractor outputs required to proceed
    # to fusion; fewer raises PipelineError.
    min_sources: int = 1
    # Directory for stage checkpoints (None disables checkpointing).
    checkpoint_dir: str | None = None
    # -- Storage --------------------------------------------------------
    # Claim-store backend behind the incremental engine's TripleStore:
    # "memory" keeps the original dict-resident store; "segment" spills
    # claims to mmapped LSM-style segment files under storage_dir, so
    # the corpus is disk-bound instead of RAM-bound.  Fusion verdicts
    # are byte-identical either way (the backends share one claim
    # iteration order; see repro.rdf.backend).
    storage_backend: str = "memory"
    # Segment-file directory, required when storage_backend="segment".
    # The directory is owned by the run lineage: reopening it primes
    # from the last flushed state (adds of already-present claims
    # deduplicate away).
    storage_dir: str | None = None
    # Memtable entries that trigger an automatic segment flush.
    memtable_limit: int = 8192

    def validate(self) -> None:
        """Raise :class:`PipelineError` on an out-of-range knob."""
        if self.min_sources < 0:
            raise PipelineError("min_sources must be >= 0")
        if self.stage_timeout is not None and self.stage_timeout <= 0:
            raise PipelineError("stage_timeout must be positive")
        if self.functionality_source not in ("schema", "estimated"):
            raise PipelineError(
                "functionality_source must be 'schema' or 'estimated', "
                f"got {self.functionality_source!r}"
            )
        if self.storage_backend not in ("memory", "segment"):
            raise PipelineError(
                "storage_backend must be 'memory' or 'segment', "
                f"got {self.storage_backend!r}"
            )
        if self.storage_backend == "segment" and not self.storage_dir:
            raise PipelineError(
                "storage_backend='segment' requires storage_dir"
            )
        if self.memtable_limit < 1:
            raise PipelineError("memtable_limit must be >= 1")
