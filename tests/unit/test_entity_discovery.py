"""Unit tests for joint entity linking and discovery."""

import pytest

from repro.entity.discovery import (
    JointEntityResolver,
    MentionRecord,
    resolve_mention_triples,
)
from repro.entity.linking import EntityLinker, mention_subject
from repro.rdf.ontology import Entity
from repro.rdf.triple import Provenance, ScoredTriple, Triple, Value


@pytest.fixture
def resolver():
    linker = EntityLinker(
        {"france": Entity("country/1", "France", "Country")}
    )
    return JointEntityResolver(linker)


class TestLinking:
    def test_known_mention_links(self, resolver):
        outcome = resolver.resolve(
            [MentionRecord("France", "Country")]
        )
        assert outcome.linked["France"].entity_id == "country/1"
        assert not outcome.clusters


class TestDiscovery:
    def test_new_mention_creates_cluster(self, resolver):
        outcome = resolver.resolve(
            [MentionRecord("Atlantis", "Country")]
        )
        assert len(outcome.clusters) == 1
        entity = outcome.new_entities()[0]
        assert entity.name == "Atlantis"
        assert entity.class_name == "Country"
        assert entity.entity_id.startswith("new/country/")

    def test_similar_mentions_cluster_together(self, resolver):
        outcome = resolver.resolve(
            [
                MentionRecord("Republic of Atlantis", "Country"),
                MentionRecord("Atlantis Republic", "Country"),
            ]
        )
        assert len(outcome.clusters) == 1
        assert len(outcome.clusters[0].surfaces) == 2

    def test_longest_surface_becomes_name(self, resolver):
        outcome = resolver.resolve(
            [
                MentionRecord("Atlantis", "Country"),
                MentionRecord("Republic of Atlantis", "Country"),
            ]
        )
        # Sorted longest-first, so the long form seeds the cluster name.
        assert outcome.clusters[0].name == "Republic of Atlantis"

    def test_dissimilar_mentions_stay_apart(self, resolver):
        outcome = resolver.resolve(
            [
                MentionRecord("Atlantis", "Country"),
                MentionRecord("Zubrovia", "Country"),
            ]
        )
        assert len(outcome.clusters) == 2

    def test_classes_never_mix(self, resolver):
        outcome = resolver.resolve(
            [
                MentionRecord("Atlantis", "Country"),
                MentionRecord("Atlantis", "Book"),
            ]
        )
        assert len(outcome.clusters) == 2

    def test_profile_overlap_helps_clustering(self):
        # The names score 0.81, under the cluster threshold on their
        # own; the shared profile lifts the blend over it.
        facts = {("capital", "arko"), ("currency", "zed"), ("gdp", "9")}

        def clusters(profile):
            resolver = JointEntityResolver(EntityLinker({}))
            return resolver.resolve(
                [
                    MentionRecord("Zub Kingdom", "Country", set(profile)),
                    MentionRecord("Zubland", "Country", set(profile)),
                ]
            ).clusters

        assert len(clusters(set())) == 2
        together = clusters(facts)
        assert len(together) == 1
        assert together[0].profile == facts

    def test_cluster_ids_unique(self, resolver):
        outcome = resolver.resolve(
            [
                MentionRecord("Aaa Bbb", "Country"),
                MentionRecord("Ccc Ddd", "Country"),
                MentionRecord("Eee Fff", "Country"),
            ]
        )
        ids = [cluster.cluster_id for cluster in outcome.clusters]
        assert len(ids) == len(set(ids))

    def test_aliases_on_materialised_entity(self, resolver):
        outcome = resolver.resolve(
            [
                MentionRecord("Republic of Atlantis", "Country"),
                MentionRecord("Atlantis Republic", "Country"),
            ]
        )
        entity = outcome.new_entities()[0]
        assert "Atlantis Republic" in entity.aliases


class TestResolveMentionTriples:
    def test_surfaces_sharing_a_subject_share_its_facts(self):
        """Two surfaces that normalise to one mention subject both get
        its facts; a surface no triple names gets an empty set; a
        triple whose subject is no mention passes through."""
        handed: list[MentionRecord] = []

        class Recording(JointEntityResolver):
            def resolve(self, mentions):
                handed.extend(mentions)
                return super().resolve(mentions)

        mention_classes = {
            "Atlantis": "Country",
            "Zubrovia": "Country",
            "  ATLANTIS ": "Country",
        }
        subject = mention_subject("Atlantis")
        assert mention_subject("  ATLANTIS ") == subject

        def scored(subject, predicate, lexical):
            return ScoredTriple(
                Triple(subject, predicate, Value(lexical)),
                Provenance("site", "dom"), 0.9,
            )

        known = scored("country/1", "capital", "Paris")
        triples = [
            scored(subject, "capital", "Arko"),
            known,
            scored(subject, "currency", "zed"),
        ]
        rewritten, outcome = resolve_mention_triples(
            triples, mention_classes, Recording(EntityLinker({}))
        )
        assert [mention.surface for mention in handed] == list(mention_classes)
        facts = {("capital", "Arko"), ("currency", "zed")}
        assert {mention.surface: mention.facts for mention in handed} == {
            "Atlantis": facts,
            "Zubrovia": set(),
            "  ATLANTIS ": facts,
        }
        assert rewritten[1] is known
        (target,) = {triple.triple.subject for triple in rewritten[::2]}
        assert target in {cluster.cluster_id for cluster in outcome.clusters}
