"""Unit tests for entity linking."""

import pytest

import repro.entity.linking as linking
from repro.entity.linking import (
    MIN_LINK_SIMILARITY,
    EntityLinker,
    SurfaceForm,
    is_mention,
    mention_subject,
)
from repro.rdf.ontology import Entity


@pytest.fixture
def linker():
    entities = {
        "the silent river": Entity(
            "book/1", "The Silent River", "Book", ("Silent River",)
        ),
        "silent river": Entity(
            "book/1", "The Silent River", "Book", ("Silent River",)
        ),
        "university of adelaide": Entity(
            "univ/1", "University of Adelaide", "University"
        ),
        "france": Entity("country/1", "France", "Country"),
    }
    return EntityLinker(entities)


class TestMentionIds:
    def test_mention_subject_normalises(self):
        assert mention_subject("  The Book ") == "mention:the book"

    def test_is_mention(self):
        assert is_mention("mention:x")
        assert not is_mention("book/1")


class TestExactLinking:
    def test_exact_match(self, linker):
        decision = linker.link("The Silent River")
        assert decision.linked
        assert decision.entity.entity_id == "book/1"
        assert decision.score == 1.0

    def test_case_insensitive(self, linker):
        assert linker.link("FRANCE").linked

    def test_alias_match(self, linker):
        assert linker.link("Silent River").entity.entity_id == "book/1"

    def test_class_restriction(self, linker):
        assert linker.link("France", class_name="Country").linked
        assert not linker.link("France", class_name="Book").linked


class TestFuzzyLinking:
    def test_misspelling_links(self, linker):
        decision = linker.link("Universty of Adelaide")
        assert decision.linked
        assert decision.entity.entity_id == "univ/1"
        assert decision.score < 1.0

    def test_reordering_links(self, linker):
        decision = linker.link("Adelaide University")
        assert decision.linked

    def test_unrelated_stays_unlinked(self, linker):
        decision = linker.link("Completely Different Name Here")
        assert not decision.linked
        assert decision.entity is None

    def test_threshold_respected(self):
        linker = EntityLinker({"france": Entity("c/1", "France", "Country")})
        below, above = linker.link("Fransisco"), linker.link("Frankreich")
        assert below.score < MIN_LINK_SIMILARITY <= above.score
        assert (below.linked, above.linked) == (False, True)

    def test_fuzzy_class_restriction(self, linker):
        decision = linker.link("Universty of Adelaide", class_name="Book")
        assert not decision.linked


class TestPrecomputedCatalog:
    """The catalog is normalised/tokenised once, at construction."""

    @pytest.fixture
    def catalog(self):
        return {
            f"entity number {i:03d}": Entity(f"e/{i}", f"E{i}", "Thing")
            for i in range(120)
        }

    @pytest.mark.parametrize("blocked", [True, False])
    def test_link_does_not_retokenize_catalog(
        self, catalog, monkeypatch, blocked
    ):
        # Both sides of the pool-size choice: tiers 2-3, and the scan.
        linker = EntityLinker(catalog, brute_floor=0 if blocked else 10**9)
        normalize_calls = []
        real_normalize = linking.normalize_name
        monkeypatch.setattr(
            linking,
            "normalize_name",
            lambda surface: (
                normalize_calls.append(surface) or real_normalize(surface)
            ),
        )
        form_calls = []
        real_from_norm = SurfaceForm.from_norm.__func__
        monkeypatch.setattr(
            SurfaceForm,
            "from_norm",
            classmethod(
                lambda cls, norm: (
                    form_calls.append(norm) or real_from_norm(cls, norm)
                )
            ),
        )
        probes = ["entity number 005", "entity numbr 042", "unrelated thing"]
        for probe in probes:
            linker.link(probe)
        # One normalisation per probe and at most one probe form per
        # link call — never one per catalog entry.
        assert normalize_calls == probes
        assert len(form_calls) <= len(probes)
