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
    resolve_attributes: bool = True
    # Convergence tolerance forwarded to the multi-truth core; None
    # keeps the core's default.  Set 0.0 to pin the iteration count.
    # A fuse and every version serve() commits both exit per connected
    # component, so the two agree byte for byte at any tolerance.
    fusion_tolerance: float | None = None
    # -- Fault tolerance ------------------------------------------------
    # Retry policy for the tasks of the fusion MapReduce job (a reduce
    # group per connected component of the claim graph,
    # repro.fusion.knowledge_fusion); None means one attempt.  It
    # decides only whether a failed task is retried, never the beliefs.
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
    # None keeps the dict-resident memory store; a directory spills
    # claims to mmapped LSM-style segment files there, so the corpus is
    # disk-bound instead of RAM-bound.  Fusion verdicts are
    # byte-identical either way (fusion reads the claims in ClaimSet
    # order, whatever order a backend holds them in).  The directory is
    # owned by the run lineage: reopening it primes from the last
    # flushed state (adds of already-present claims deduplicate away).
    storage_dir: str | None = None
    # Memtable entries that trigger an automatic segment flush.
    memtable_limit: int = 8192

    def validate(self) -> None:
        """Raise :class:`PipelineError` on an out-of-range knob."""
        if self.min_sources < 0:
            raise PipelineError("min_sources must be >= 0")
        if self.stage_timeout is not None and self.stage_timeout <= 0:
            raise PipelineError("stage_timeout must be positive")
        if self.memtable_limit < 1:
            raise PipelineError("memtable_limit must be >= 1")
