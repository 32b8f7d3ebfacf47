"""``EntityLinker`` and ``JointEntityResolver`` without the blocking index.

The scans ``src/`` promises to answer: a fuzzy probe is scored against
*every* catalog surface of its pool (classes in insertion order,
surfaces within each class), and an unlinked mention against *every*
cluster of its class, in creation order; the first strictly better
score wins.  Whatever candidate generation the two put in front of the
scorer must leave the verdicts — linked entities, scores above the
threshold, clusters — unchanged.

The resolve loop below is the resolver's former small-pool path, moved
here unchanged apart from the index it no longer maintains.  Neither
class calls ``observe_candidates``: a scan reports no tier-2 query.
"""

from __future__ import annotations

from repro.entity.discovery import (
    CLUSTER_THRESHOLD,
    EntityCluster,
    JointEntityResolver,
    MentionRecord,
    ResolutionOutcome,
)
from repro.entity.linking import (
    MIN_LINK_SIMILARITY,
    EntityLinker,
    LinkDecision,
    SurfaceForm,
    form_similarity,
)
from repro.rdf.ontology import Entity
from repro.textproc.normalize import normalize_name

__all__ = ["ScanEntityLinker", "ScanJointEntityResolver"]


class ScanEntityLinker(EntityLinker):
    """:class:`EntityLinker` scoring every catalog surface of the pool."""

    def __init__(self, entity_index: dict[str, Entity]) -> None:
        super().__init__(entity_index)
        self._by_class: dict[str, list[tuple[str, Entity]]] = {}
        for surface, entity in self._exact.items():
            self._by_class.setdefault(entity.class_name, []).append(
                (surface, entity)
            )
        self._forms = {
            norm: SurfaceForm.from_norm(norm) for norm in self._exact
        }

    def link(self, surface: str, class_name: str | None = None) -> LinkDecision:
        normalized = normalize_name(surface)
        stats = self.blocking_stats
        exact = self._exact.get(normalized)
        if exact is not None and (
            class_name is None or exact.class_name == class_name
        ):
            stats.tier1_hits += 1
            return LinkDecision(surface, exact, 1.0)
        probe = SurfaceForm.from_norm(normalized)
        best: Entity | None = None
        best_score = 0.0
        if class_name is None:
            candidates = [
                pair for pairs in self._by_class.values() for pair in pairs
            ]
        else:
            candidates = self._by_class.get(class_name, [])
        stats.tier3_scored += len(candidates)
        for candidate_surface, entity in candidates:
            score = form_similarity(probe, self._forms[candidate_surface])
            if score > best_score:
                best, best_score = entity, score
        if best is not None and best_score >= MIN_LINK_SIMILARITY:
            return LinkDecision(surface, best, best_score)
        return LinkDecision(surface, None, best_score)


class ScanJointEntityResolver(JointEntityResolver):
    """:class:`JointEntityResolver` scoring every cluster of the class."""

    def resolve(self, mentions: list[MentionRecord]) -> ResolutionOutcome:
        outcome = ResolutionOutcome()
        clusters_by_class: dict[str, list[EntityCluster]] = {}
        # class -> cluster ordinal -> forms of its distinct surfaces.
        forms_by_class: dict[str, list[list[SurfaceForm]]] = {}
        stats = self.blocking_stats
        counter = 0
        for mention in sorted(
            mentions, key=lambda record: (-len(record.surface), record.surface)
        ):
            decision: LinkDecision = self.linker.link(
                mention.surface, mention.class_name
            )
            if decision.linked:
                outcome.linked[mention.surface] = decision.entity
                continue
            clusters = clusters_by_class.setdefault(mention.class_name, [])
            forms = forms_by_class.setdefault(mention.class_name, [])
            best_cluster: EntityCluster | None = None
            best_ordinal = -1
            best_score = 0.0
            probe = SurfaceForm.build(mention.surface)
            stats.tier3_scored += len(clusters)
            for ordinal in range(len(clusters)):
                score = self._cluster_score(
                    probe, mention, clusters[ordinal], forms[ordinal]
                )
                if score > best_score:
                    best_cluster = clusters[ordinal]
                    best_ordinal = ordinal
                    best_score = score
            if best_cluster is not None and best_score >= CLUSTER_THRESHOLD:
                if mention.surface not in best_cluster.surfaces:
                    forms[best_ordinal].append(probe)
                best_cluster.surfaces.add(mention.surface)
                best_cluster.profile |= mention.facts
                if len(mention.surface) > len(best_cluster.name):
                    best_cluster.name = mention.surface
            else:
                counter += 1
                cluster = EntityCluster(
                    cluster_id=(
                        f"new/{mention.class_name.lower()}/{counter:04d}"
                    ),
                    class_name=mention.class_name,
                    name=mention.surface,
                    surfaces={mention.surface},
                    profile=set(mention.facts),
                )
                forms.append([probe])
                clusters.append(cluster)
        outcome.clusters = [
            cluster
            for clusters in clusters_by_class.values()
            for cluster in clusters
        ]
        return outcome
