"""Entity layer: linking, joint discovery, attribute resolution."""

from repro.entity.blocking import (
    BlockingStats,
    MinHashLSH,
    QGramIndex,
    SurfaceBlockingIndex,
    shingle_surface,
)
from repro.entity.discovery import (
    EntityCluster,
    JointEntityResolver,
    MentionRecord,
    ResolutionOutcome,
    resolve_mention_triples,
)
from repro.entity.linking import (
    EntityLinker,
    LinkDecision,
    SurfaceForm,
    form_similarity,
    is_mention,
    mention_subject,
)
from repro.entity.resolution import (
    AttributeResolution,
    AttributeResolver,
    apply_resolution,
    build_value_profiles,
)

__all__ = [
    "AttributeResolution",
    "AttributeResolver",
    "BlockingStats",
    "EntityCluster",
    "EntityLinker",
    "JointEntityResolver",
    "LinkDecision",
    "MentionRecord",
    "MinHashLSH",
    "QGramIndex",
    "ResolutionOutcome",
    "SurfaceBlockingIndex",
    "SurfaceForm",
    "apply_resolution",
    "build_value_profiles",
    "form_similarity",
    "is_mention",
    "mention_subject",
    "resolve_mention_triples",
    "shingle_surface",
]
