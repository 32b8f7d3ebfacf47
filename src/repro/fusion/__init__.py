"""Knowledge fusion: truth discovery over multi-source, multi-extractor
claims — baselines (VOTE/ACCU/POPACCU), multi-truth Bayesian fusion,
hierarchy reasoning, correlation discounts, confidence weighting, and
the paper's combined method."""

from repro.fusion.accu import Accu, PopAccu
from repro.fusion.calibration import (
    SourceCalibration,
    calibrate_sources,
    claim_world_oracle,
    world_oracle,
)
from repro.fusion.base import (
    Claim,
    ClaimSet,
    ClaimSetStats,
    FusionMethod,
    FusionResult,
    value_key,
)
from repro.fusion.compiled import EvidenceTables, VoteTables, compile_evidence, compile_votes
from repro.fusion.confidence_weighted import GeneralizedSums, Investment
from repro.fusion.functionality import (
    FunctionalityEstimate,
    FunctionalityEstimator,
    functional_oracle_from_claims,
)
from repro.fusion.correlations import CorrelationEstimate, CorrelationEstimator
from repro.fusion.hierarchy import CasefoldHierarchy, HierarchicalFusion
from repro.fusion.knowledge_fusion import KnowledgeFusion
from repro.fusion.multitruth import MultiTruth
from repro.fusion.sharding import ShardStats, fuse_sharded, shard_claims
from repro.fusion.vote import Vote

__all__ = [
    "Accu",
    "CasefoldHierarchy",
    "Claim",
    "ClaimSet",
    "ClaimSetStats",
    "CorrelationEstimate",
    "CorrelationEstimator",
    "EvidenceTables",
    "FunctionalityEstimate",
    "FunctionalityEstimator",
    "FusionMethod",
    "FusionResult",
    "GeneralizedSums",
    "HierarchicalFusion",
    "Investment",
    "KnowledgeFusion",
    "MultiTruth",
    "PopAccu",
    "ShardStats",
    "SourceCalibration",
    "Vote",
    "VoteTables",
    "calibrate_sources",
    "compile_evidence",
    "compile_votes",
    "functional_oracle_from_claims",
    "fuse_sharded",
    "claim_world_oracle",
    "shard_claims",
    "world_oracle",
    "value_key",
]
