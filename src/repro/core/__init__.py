"""Core: the unified confidence criterion, KB augmentation, and the
end-to-end Figure-1 pipeline."""

from repro.core.augmentation import (
    AugmentationReport,
    augment_kb,
)
from repro.core.checkpoint import CheckpointStore, config_fingerprint
from repro.core.confidence import (
    DEFAULT_EXTRACTOR_PRIORS,
    ConfidenceScorer,
)
from repro.core.config import PipelineConfig
from repro.core.pipeline import (
    KnowledgeBaseConstructionPipeline,
    PipelineHealth,
    PipelineReport,
    StageTiming,
)
from repro.core.quarantine import Quarantine, guard_records

__all__ = [
    "AugmentationReport",
    "CheckpointStore",
    "ConfidenceScorer",
    "DEFAULT_EXTRACTOR_PRIORS",
    "KnowledgeBaseConstructionPipeline",
    "PipelineConfig",
    "PipelineHealth",
    "PipelineReport",
    "Quarantine",
    "StageTiming",
    "augment_kb",
    "config_fingerprint",
    "guard_records",
]
