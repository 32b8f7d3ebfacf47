"""Joint entity linking and new-entity discovery.

Open IE adds entities the KB has never seen.  Following the paper's
plan (improving Wick et al.'s joint model, Sec. 3.1), mentions are
resolved *jointly*: each mention either links to an existing entity or
joins a cluster of co-referring unseen mentions; clusters maintain a
compact representation (canonical name + attribute/value profile) that
subsequent mentions are compared against, so linking decisions inform
discovery and vice versa.

The clustering is greedy agglomerative over a combined signal:

* name similarity between mention surface and cluster name, and
* attribute overlap: Jaccard of (attribute, value) pairs observed with
  the mention vs. the cluster profile.

Each class keeps a :class:`repro.entity.blocking.SurfaceBlockingIndex`
over its clusters, grown as clusters are created and joined; an
unlinked mention is scored only against the clusters the index
proposes, in creation order, so the greedy argmax ties break exactly
like the full scan of ``tests/oracles/entity_scan.py``.  Unlike the
linker there is no tier-1 exact shortcut here — an exact surface match
does not imply the best blended score, because the profile term can
favour another cluster.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.entity.blocking import BlockingStats, SurfaceBlockingIndex
from repro.entity.linking import (
    EntityLinker,
    LinkDecision,
    SurfaceForm,
    form_similarity,
    is_mention,
    mention_subject,
)
from repro.rdf.ontology import Entity
from repro.rdf.triple import ScoredTriple, Triple

#: The blended score at which a mention joins a discovered cluster.
CLUSTER_THRESHOLD = 0.82
#: The weight of profile (fact) overlap against name similarity.
PROFILE_WEIGHT = 0.35


@dataclass(slots=True)
class MentionRecord:
    """One mention to resolve: surface + observed facts."""

    surface: str
    class_name: str
    facts: set[tuple[str, str]] = field(default_factory=set)  # (attr, value)


@dataclass(slots=True)
class EntityCluster:
    """A discovered (new) entity: its mentions and profile."""

    cluster_id: str
    class_name: str
    name: str  # canonical: the longest mention surface
    surfaces: set[str] = field(default_factory=set)
    profile: set[tuple[str, str]] = field(default_factory=set)

    def to_entity(self) -> Entity:
        """Materialise the cluster as an ontology entity."""
        aliases = tuple(
            sorted(surface for surface in self.surfaces if surface != self.name)
        )
        return Entity(self.cluster_id, self.name, self.class_name, aliases)


@dataclass(slots=True)
class ResolutionOutcome:
    """Results of joint resolution."""

    linked: dict[str, Entity] = field(default_factory=dict)  # surface -> entity
    clusters: list[EntityCluster] = field(default_factory=list)

    def new_entities(self) -> list[Entity]:
        return [cluster.to_entity() for cluster in self.clusters]


class _ClassBlock:
    """Blocking state for one class: index + per-cluster surface forms."""

    __slots__ = ("index", "forms")

    def __init__(self) -> None:
        self.index = SurfaceBlockingIndex()
        # cluster ordinal -> forms of its distinct surfaces.
        self.forms: list[list[SurfaceForm]] = []

    def new_cluster(self, form: SurfaceForm, facts) -> None:
        ordinal = len(self.forms)
        self.forms.append([form])
        self.index.add(ordinal, form.norm, form.content_tokens)
        for pair in facts:
            self.index.add_pair(ordinal, pair)

    def join(self, ordinal: int, form: SurfaceForm, new_facts) -> None:
        self.forms[ordinal].append(form)
        self.index.add(ordinal, form.norm, form.content_tokens)
        for pair in new_facts:
            self.index.add_pair(ordinal, pair)


class JointEntityResolver:
    """Greedy joint linking + discovery over a stream of mentions.

    A mention joins the best-scoring cluster of its class when the
    score reaches :data:`CLUSTER_THRESHOLD`; the score blends name
    similarity with profile overlap, the latter weighted
    :data:`PROFILE_WEIGHT`.
    """

    def __init__(self, linker: EntityLinker) -> None:
        self.linker = linker
        self.blocking_stats = BlockingStats("discovery")

    def resolve(self, mentions: list[MentionRecord]) -> ResolutionOutcome:
        """Resolve all mentions jointly.

        Mentions are processed longest-surface first so cluster
        canonical names prefer complete titles over fragments.
        """
        outcome = ResolutionOutcome()
        clusters_by_class: dict[str, list[EntityCluster]] = {}
        blocks: dict[str, _ClassBlock] = {}
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
            best_cluster: EntityCluster | None = None
            best_ordinal = -1
            best_score = 0.0
            block = blocks.get(mention.class_name)
            if block is None:
                block = blocks[mention.class_name] = _ClassBlock()
            probe = SurfaceForm.build(mention.surface)
            ordinals = block.index.candidates(
                probe.norm, probe.content_tokens, mention.facts
            )
            stats.observe_candidates(len(ordinals), len(clusters))
            stats.tier3_scored += len(ordinals)
            for ordinal in ordinals:
                score = self._cluster_score(
                    probe, mention, clusters[ordinal], block.forms[ordinal]
                )
                if score > best_score:
                    best_cluster = clusters[ordinal]
                    best_ordinal = ordinal
                    best_score = score
            if best_cluster is not None and best_score >= CLUSTER_THRESHOLD:
                new_facts = mention.facts - best_cluster.profile
                if mention.surface not in best_cluster.surfaces:
                    block.join(best_ordinal, probe, new_facts)
                else:
                    for pair in new_facts:
                        block.index.add_pair(best_ordinal, pair)
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
                block.new_cluster(probe, mention.facts)
                clusters.append(cluster)
        outcome.clusters = [
            cluster
            for clusters in clusters_by_class.values()
            for cluster in clusters
        ]
        return outcome

    def _cluster_score(
        self,
        probe: SurfaceForm,
        mention: MentionRecord,
        cluster: EntityCluster,
        forms: list[SurfaceForm],
    ) -> float:
        name_score = max(form_similarity(probe, form) for form in forms)
        return self._blend(name_score, mention.facts, cluster.profile)

    def _blend(self, name_score: float, facts, profile) -> float:
        if not facts or not profile:
            return name_score
        overlap = len(facts & profile)
        union = len(facts | profile)
        profile_score = overlap / union if union else 0.0
        return (
            (1 - PROFILE_WEIGHT) * name_score
            + PROFILE_WEIGHT * profile_score
        )


def resolve_mention_triples(
    triples: list[ScoredTriple],
    mention_classes: dict[str, str],
    resolver: JointEntityResolver,
) -> tuple[list[ScoredTriple], ResolutionOutcome]:
    """Rewrite mention-subject triples through joint resolution.

    Mention surfaces (from pages whose entity was unknown to ``Set_E``)
    are linked or clustered jointly; each triple's subject is rewritten
    to the linked entity's id or the new cluster's id.  Non-mention
    triples pass through untouched.
    """
    facts_by_surface: dict[str, set[tuple[str, str]]] = {}
    for scored in triples:
        if not is_mention(scored.triple.subject):
            continue
        for surface, class_name in mention_classes.items():
            if mention_subject(surface) == scored.triple.subject:
                facts_by_surface.setdefault(surface, set()).add(
                    (scored.triple.predicate, scored.triple.obj.lexical)
                )
    mentions = [
        MentionRecord(surface, mention_classes[surface],
                      facts_by_surface.get(surface, set()))
        for surface in mention_classes
    ]
    outcome = resolver.resolve(mentions)

    subject_of: dict[str, str] = {}
    for surface, entity in outcome.linked.items():
        subject_of[mention_subject(surface)] = entity.entity_id
    for cluster in outcome.clusters:
        for surface in cluster.surfaces:
            subject_of[mention_subject(surface)] = cluster.cluster_id

    rewritten: list[ScoredTriple] = []
    for scored in triples:
        target = subject_of.get(scored.triple.subject)
        if target is None:
            rewritten.append(scored)
        else:
            rewritten.append(
                ScoredTriple(
                    Triple(target, scored.triple.predicate, scored.triple.obj),
                    scored.provenance,
                    scored.confidence,
                )
            )
    return rewritten, outcome
