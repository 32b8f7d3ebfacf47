"""Unit tests for joint entity linking and discovery."""

import pytest

from repro.entity.discovery import (
    JointEntityResolver,
    MentionRecord,
)
from repro.entity.linking import EntityLinker
from repro.rdf.ontology import Entity


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
