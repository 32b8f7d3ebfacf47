"""Unit tests for the DOM extractor (Algorithm 1)."""

import pytest

from repro.extract.dom import DomExtractorConfig, DomTreeExtractor
from repro.extract.seeds import SeedSet
from repro.rdf.ontology import Entity
from repro.synth.websites import WebPage, Website


def make_page(url, entity_surface, rows, entity_id="book/1"):
    """An infobox-style page: h1 + table of th/td rows."""
    body_rows = "".join(
        f"<tr><th>{label}</th><td>{value}</td></tr>" for label, value in rows
    )
    html = (
        "<html><body>"
        "<nav><a href='#'>Home</a></nav>"
        f"<h1 class='entity-name'>{entity_surface}</h1>"
        f"<table class='infobox'>{body_rows}</table>"
        "</body></html>"
    )
    return WebPage(url, html, entity_id, entity_surface, ())


def make_site(pages, class_name="Book"):
    return Website("www.example.com", class_name, "table", list(pages))


@pytest.fixture
def entity_index():
    return {
        "the silent river": Entity(
            "book/1", "The Silent River", "Book", ()
        ),
        "golden empire": Entity("book/2", "Golden Empire", "Book", ()),
    }


def run(entity_index, seeds, pages, config=None):
    extractor = DomTreeExtractor(
        entity_index,
        {"Book": SeedSet("Book", seeds)},
        config or DomExtractorConfig(min_attribute_support=1),
    )
    return extractor, extractor.extract([make_site(pages)])


class TestDiscovery:
    def test_siblings_of_seed_discovered(self, entity_index):
        page = make_page(
            "u1", "The Silent River",
            [("Author", "Jane Doe"), ("Publisher", "Acme"), ("Genre", "Drama")],
        )
        extractor, output = run(entity_index, ["author"], [page])
        assert output.attribute_names("Book") == {
            "author", "publisher", "genre",
        }
        assert "publisher" in extractor.enriched_seeds("Book")

    def test_page_without_entity_skipped(self, entity_index):
        page = make_page("u1", "Unknown Title", [("Author", "X")])
        _, output = run(entity_index, ["author"], [page])
        assert not output.attributes
        assert not output.triples

    def test_page_without_seed_pair_skipped(self, entity_index):
        page = make_page("u1", "The Silent River", [("Publisher", "Acme")])
        _, output = run(entity_index, ["author"], [page])
        assert not output.attributes

    def test_entity_of_other_class_ignored(self, entity_index):
        page = make_page("u1", "The Silent River", [("Author", "X")])
        site = Website("www.example.com", "Film", "table", [page])
        extractor = DomTreeExtractor(
            entity_index,
            {"Film": SeedSet("Film", ["author"])},
            DomExtractorConfig(min_attribute_support=1),
        )
        output = extractor.extract([site])
        assert not output.attributes

    def test_values_not_discovered_as_attributes(self, entity_index):
        page = make_page(
            "u1", "The Silent River",
            [("Author", "Jane Doe"), ("Publisher", "Acme Books")],
        )
        _, output = run(entity_index, ["author"], [page])
        assert "jane doe" not in output.attribute_names("Book")
        assert "acme book" not in output.attribute_names("Book")

    def test_chrome_text_not_discovered(self, entity_index):
        page = make_page("u1", "The Silent River", [("Author", "X")])
        _, output = run(entity_index, ["author"], [page])
        assert "home" not in output.attribute_names("Book")

    def test_numeric_labels_filtered(self, entity_index):
        page = make_page(
            "u1", "The Silent River", [("Author", "X"), ("2014", "Y")]
        )
        _, output = run(entity_index, ["author"], [page])
        assert "2014" not in output.attribute_names("Book")


class TestSupportThreshold:
    def test_min_support_two_requires_two_pages(self, entity_index):
        pages = [
            make_page("u1", "The Silent River", [("Author", "A"), ("Genre", "G")]),
            make_page(
                "u2", "Golden Empire", [("Author", "B"), ("Pages", "100")],
                entity_id="book/2",
            ),
        ]
        extractor = DomTreeExtractor(
            entity_index,
            {"Book": SeedSet("Book", ["author"])},
            DomExtractorConfig(min_attribute_support=2),
        )
        output = extractor.extract([make_site(pages)])
        # 'genre' and 'page' each appear on one page only.
        assert output.attribute_names("Book") == {"author"}


class TestTriples:
    def test_label_value_adjacency(self, entity_index):
        page = make_page(
            "u1", "The Silent River",
            [("Author", "Jane Doe"), ("Genre", "Drama")],
        )
        _, output = run(entity_index, ["author"], [page])
        facts = {
            (s.triple.predicate, s.triple.obj.lexical) for s in output.triples
        }
        assert ("author", "Jane Doe") in facts
        assert ("genre", "Drama") in facts

    def test_triples_only_for_accepted_attributes(self, entity_index):
        pages = [
            make_page("u1", "The Silent River", [("Author", "A"), ("Noise", "X")]),
            make_page(
                "u2", "Golden Empire", [("Author", "B")], entity_id="book/2"
            ),
        ]
        extractor = DomTreeExtractor(
            entity_index,
            {"Book": SeedSet("Book", ["author"])},
            DomExtractorConfig(min_attribute_support=2),
        )
        output = extractor.extract([make_site(pages)])
        predicates = {s.triple.predicate for s in output.triples}
        assert predicates == {"author"}

    def test_provenance(self, entity_index):
        page = make_page("u1", "The Silent River", [("Author", "A")])
        _, output = run(entity_index, ["author"], [page])
        assert output.triples[0].provenance.source_id == "www.example.com"
        assert output.triples[0].provenance.extractor_id == "dom"
        assert output.triples[0].provenance.locator == "u1"

    def test_subject_is_linked_entity(self, entity_index):
        page = make_page("u1", "The Silent River", [("Author", "A")])
        _, output = run(entity_index, ["author"], [page])
        assert all(s.triple.subject == "book/1" for s in output.triples)


class TestRootlessPages:
    """A page whose markup has no single root element — top-level
    siblings, or text straight under ``#document`` — has no tag path
    between its entity node and a label outside the entity's top-level
    element: such labels are no candidates, and the page costs the
    other sites of the call nothing."""

    ROOTLESS = [
        "<h1>The Silent River</h1><p>Author</p><p>Jane Doe</p>",
        "The Silent River<p>Author</p><p>Jane Doe</p>",
        "<h1>The Silent River</h1><table><tr><th>Author</th>"
        "<td>Jane Doe</td></tr></table>",
    ]

    @staticmethod
    def _extract(entity_index, sites):
        extractor = DomTreeExtractor(
            entity_index,
            {"Book": SeedSet("Book", ["author"])},
            DomExtractorConfig(min_attribute_support=1),
        )
        return extractor.extract(sites)

    @pytest.mark.parametrize("html", ROOTLESS)
    def test_a_rootless_page_leaves_other_sites_alone(
        self, entity_index, html
    ):
        rooted = Website("www.example.com", "Book", "table", [
            make_page("u1", "Golden Empire",
                      [("Author", "A"), ("Genre", "Drama")],
                      entity_id="book/2"),
        ])
        rootless = Website("www.rootless.org", "Book", "list", [
            WebPage("r1", html, "book/1", "The Silent River", ()),
        ])
        alone = self._extract(entity_index, [rooted])
        mixed = self._extract(entity_index, [rootless, rooted])
        assert alone.triples
        assert mixed.triples == alone.triples
        assert mixed.attribute_names("Book") == alone.attribute_names("Book")

    @pytest.mark.parametrize("html", ROOTLESS)
    def test_a_rootless_page_yields_no_pair_across_roots(
        self, entity_index, html
    ):
        rootless = Website("www.rootless.org", "Book", "list", [
            WebPage("r1", html, "book/1", "The Silent River", ()),
        ])
        output = self._extract(entity_index, [rootless])
        assert not output.triples


class TestGeneratedSites:
    def test_all_layouts_extract(self, world, seed_sets, websites):
        extractor = DomTreeExtractor(world.entity_index(), seed_sets)
        output = extractor.extract(websites)
        styles = {site.style for site in websites}
        assert len(styles) >= 2
        assert output.triples
        for class_name in world.classes():
            assert output.attribute_count(class_name) > 0

    def test_attribute_precision_reasonable(self, world, seed_sets, websites):
        extractor = DomTreeExtractor(world.entity_index(), seed_sets)
        output = extractor.extract(websites)
        for class_name in world.classes():
            found = output.attribute_names(class_name)
            gold = set(world.attribute_names(class_name))
            precision = len(found & gold) / max(1, len(found))
            assert precision > 0.6


class TestMentionAnchors:
    def _config(self):
        return DomExtractorConfig(
            min_attribute_support=1, allow_mention_anchors=True
        )

    def test_unknown_entity_page_harvests_mentions(self, entity_index):
        page = make_page(
            "u1", "Unknown Epic",
            [("Author", "Jane Doe"), ("Genre", "Drama")],
        )
        known = make_page(
            "u2", "The Silent River", [("Author", "Someone")]
        )
        extractor = DomTreeExtractor(
            entity_index,
            {"Book": SeedSet("Book", ["author", "genre"])},
            self._config(),
        )
        output = extractor.extract([make_site([known, page])])
        subjects = {s.triple.subject for s in output.triples}
        assert "mention:unknown epic" in subjects
        assert extractor.mention_classes == {"Unknown Epic": "Book"}

    def test_mention_pages_only_harvest_seed_attributes(self, entity_index):
        page = make_page(
            "u1", "Unknown Epic",
            [("Author", "Jane Doe"), ("Novelty", "Thing")],
        )
        extractor = DomTreeExtractor(
            entity_index,
            {"Book": SeedSet("Book", ["author"])},
            self._config(),
        )
        output = extractor.extract([make_site([page])])
        predicates = {
            s.triple.predicate
            for s in output.triples
            if s.triple.subject.startswith("mention:")
        }
        assert "novelty" not in predicates

    def test_mention_pages_carry_no_discovery_evidence(self, entity_index):
        page = make_page(
            "u1", "Unknown Epic",
            [("Author", "Jane Doe"), ("Genre", "Drama")],
        )
        extractor = DomTreeExtractor(
            entity_index,
            {"Book": SeedSet("Book", ["author"])},
            self._config(),
        )
        output = extractor.extract([make_site([page])])
        # 'genre' appeared only on a mention page: not discovered.
        assert "genre" not in output.attribute_names("Book")

    def test_disabled_by_default(self, entity_index):
        page = make_page("u1", "Unknown Epic", [("Author", "X")])
        extractor = DomTreeExtractor(
            entity_index,
            {"Book": SeedSet("Book", ["author"])},
            DomExtractorConfig(min_attribute_support=1),
        )
        output = extractor.extract([make_site([page])])
        assert not output.triples
        assert not extractor.mention_classes
