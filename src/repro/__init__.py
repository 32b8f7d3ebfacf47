"""repro — reproduction of "Generating Actionable Knowledge from Big
Data" (SIGMOD 2015 PhD Symposium).

A complete knowledge-base-construction framework: knowledge extraction
from four source types (existing KBs, query streams, DOM trees, Web
texts) with unified confidence scoring, followed by knowledge fusion
(multi-truth, hierarchy-aware, correlation- and confidence-aware),
entity linking/discovery, KB augmentation, and every substrate those
phases depend on (RDF store, HTML/DOM parser, text processing,
synthetic-world generators, a local MapReduce engine).

Quick start::

    from repro import KnowledgeBaseConstructionPipeline

    pipeline = KnowledgeBaseConstructionPipeline()
    report = pipeline.run()
    print(report.fusion_report.precision)
"""

from repro.core.config import PipelineConfig
from repro.core.pipeline import (
    KnowledgeBaseConstructionPipeline,
    PipelineHealth,
    PipelineReport,
)
from repro.errors import (
    DeltaError,
    QuarantineOverflowError,
    ReproError,
    RetryExhaustedError,
    StageTimeoutError,
)
from repro.faults import FaultPlan, RetryPolicy
from repro.fusion.knowledge_fusion import KnowledgeFusion
from repro.incremental import ClaimDelta, IncrementalFusion, load_delta, save_delta
from repro.obs import MetricsRegistry, MetricsSnapshot, SpanTracer
from repro.rdf.triple import Provenance, ScoredTriple, Triple, Value
from repro.synth.world import GroundTruthWorld, WorldConfig

__version__ = "1.0.0"

__all__ = [
    "ClaimDelta",
    "DeltaError",
    "FaultPlan",
    "GroundTruthWorld",
    "IncrementalFusion",
    "KnowledgeBaseConstructionPipeline",
    "KnowledgeFusion",
    "load_delta",
    "save_delta",
    "MetricsRegistry",
    "MetricsSnapshot",
    "PipelineConfig",
    "PipelineHealth",
    "PipelineReport",
    "Provenance",
    "QuarantineOverflowError",
    "ReproError",
    "RetryExhaustedError",
    "RetryPolicy",
    "ScoredTriple",
    "SpanTracer",
    "StageTimeoutError",
    "Triple",
    "Value",
    "WorldConfig",
    "__version__",
]
