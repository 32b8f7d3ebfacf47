"""Unit tests for the website generator."""

import pytest

from repro.errors import GenerationError
from repro.htmldom.parser import parse_html
from repro.htmldom.serialize import to_html
from repro.synth.websites import (
    LAYOUT_STYLES,
    WebsiteConfig,
    generate_websites,
)


class TestValidation:
    def test_zero_sites_rejected(self, world):
        with pytest.raises(GenerationError):
            generate_websites(world, WebsiteConfig(sites_per_class=0))

    def test_inverted_attribute_range_rejected(self, world):
        with pytest.raises(GenerationError):
            generate_websites(
                world,
                WebsiteConfig(
                    min_attributes_per_page=9, max_attributes_per_page=3
                ),
            )


class TestStructure:
    def test_sites_per_class(self, world, websites):
        by_class = {}
        for site in websites:
            by_class.setdefault(site.class_name, []).append(site)
        for class_name in world.classes():
            assert len(by_class[class_name]) == 2

    def test_styles_rotate(self, websites):
        styles = {site.style for site in websites}
        assert styles <= set(LAYOUT_STYLES)
        assert len(styles) >= 2

    def test_pages_have_entity_heading(self, websites):
        page = websites[0].pages[0]
        headings = [
            node.text
            for node, chain in parse_html(page.html).iter_texts()
            if chain[-1].tag == "h1"
        ]
        assert headings == [page.entity_surface]

    def test_pages_parse_and_contain_gold_rows(self, websites):
        for site in websites[:4]:
            for page in site.pages[:3]:
                doc = parse_html(page.html)
                text = " ".join(node.text for node, _ in doc.iter_texts())
                for mention in page.gold[:3]:
                    assert mention.value in text

    def test_pages_serialise_their_generated_tree(self, websites):
        # A page is what the parser reads back: to_html of its parse is
        # the page, byte for byte.
        for site in websites[:4]:
            for page in site.pages[:3]:
                assert to_html(parse_html(page.html)) == page.html

    def test_urls_unique(self, websites):
        urls = [page.url for site in websites for page in site.pages]
        assert len(urls) == len(set(urls))

    def test_gold_entities_match_page(self, websites):
        for site in websites[:4]:
            for page in site.pages[:3]:
                for mention in page.gold:
                    assert mention.entity_id == page.entity_id


class TestGoldCorrectness:
    def test_value_is_true_flag(self, world, websites):
        from repro.fusion.base import value_key

        for site in websites:
            for page in site.pages:
                for mention in page.gold:
                    truths = {
                        value_key(v)
                        for v in world.true_values(
                            mention.entity_id, mention.attribute
                        )
                    }
                    # The flag records truth of the *unformatted* value;
                    # formatting variants may change case only.
                    if mention.value_is_true:
                        assert value_key(mention.value) in truths

    def test_error_rate_roughly_respected(self, world):
        sites = generate_websites(
            world,
            WebsiteConfig(
                seed=1, sites_per_class=1, pages_per_site=10, error_rate=0.0,
                label_misspell_rate=0.0, label_synonym_rate=0.0,
            ),
        )
        mentions = [m for s in sites for p in s.pages for m in p.gold]
        assert all(m.value_is_true for m in mentions)

    def test_deterministic(self, world):
        config = WebsiteConfig(seed=4, sites_per_class=1, pages_per_site=5)
        first = generate_websites(world, config)
        second = generate_websites(world, config)
        assert first[0].pages[0].html == second[0].pages[0].html
