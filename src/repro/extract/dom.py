"""DOM-tree attribute extraction — Algorithm 1 of the paper.

Given a class ``T``, websites about ``T``, the entity set of ``T`` and a
seed attribute set (from query stream + existing KBs), the algorithm:

1. parses every page and classifies text nodes into **entity nodes**
   (text names an entity of ``T``) and **non-entity nodes**;
2. on pages containing at least one (entity, seed-attribute) pair,
   extracts the tag paths between the entity node and each seed label,
   cleans noisy tags, and keeps them as the page's *induced tag path
   pattern set*;
3. compares every other non-entity node's tag path against the induced
   patterns; similar nodes are recognised as **new attributes** and
   added to the seed set (enriching ``SEED_SET(T)`` as the loop runs);
4. keeps iterating over a site while the seed set grows, then moves to
   the next site (with a per-site cap, the paper's "certain
   threshold").

Beyond attribute names, the extractor also emits **value triples**: for
each recognised label node, the next non-label text node in document
order is taken as the attribute's value on that page (the label/value
adjacency that every generated layout — and most real infobox layouts —
exhibits).
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field

from repro.entity.linking import mention_subject
from repro.extract.base import ExtractorOutput
from repro.extract.seeds import SeedSet
from repro.htmldom.node import ElementNode, TextNode
from repro.htmldom.parser import parse_html
from repro.htmldom.tagpath import RelativeTagPath, relative_path
from repro.rdf.ontology import Entity
from repro.rdf.triple import Provenance, ScoredTriple, Triple, Value
from repro.synth.websites import Website
from repro.textproc.normalize import normalize_attribute

EXTRACTOR_ID = "dom"


@dataclass(slots=True)
class DomExtractorConfig:
    """Thresholds of Algorithm 1."""

    similarity_threshold: float = 0.92
    max_new_attributes_per_site: int = 400
    min_attribute_support: int = 2  # distinct pages for a *new* attribute
    max_label_tokens: int = 6
    max_passes_per_site: int = 3
    # New-entity creation support (Sec. 3.1): pages whose heading names
    # no known entity still harvest values for *seed* attributes, with
    # mention subjects that joint entity resolution later links or
    # clusters into new entities.
    allow_mention_anchors: bool = False


# A page's non-blank text nodes in document order, each with the
# elements above it (``ElementNode.iter_texts``).
_Texts = list[tuple[TextNode, tuple[ElementNode, ...]]]


@dataclass(slots=True)
class _LabelNode:
    """A non-entity text node that may be an attribute label."""

    order: int  # document order among text nodes
    chain: tuple[ElementNode, ...]
    canonical: str
    path: RelativeTagPath | None = None


@dataclass(slots=True)
class _AttributeEvidence:
    pages: set[str] = field(default_factory=set)
    sites: set[str] = field(default_factory=set)
    entities: set[str] = field(default_factory=set)
    support: int = 0
    is_seed: bool = False


class DomTreeExtractor:
    """Algorithm 1 over generated (or any) websites.

    Parameters
    ----------
    entity_index:
        Surface form (lower-case) → :class:`Entity`; the ``Set_E`` of
        Algorithm 1, typically the Freebase snapshot's entity sets.
    seed_sets:
        Per-class seed attribute sets; the extractor works on copies and
        enriches them.
    """

    def __init__(
        self,
        entity_index: dict[str, Entity],
        seed_sets: dict[str, SeedSet],
        config: DomExtractorConfig | None = None,
    ) -> None:
        self.config = config or DomExtractorConfig()
        self._index = {
            surface.lower(): entity for surface, entity in entity_index.items()
        }
        self._seeds = {
            class_name: seed.copy() for class_name, seed in seed_sets.items()
        }
        # Pages already processed successfully; multi-pass site loops
        # must not double-count their evidence or re-emit their triples.
        self._done_pages: set[str] = set()
        # Mention surface -> class name, for joint entity resolution.
        self.mention_classes: dict[str, str] = {}

    # ------------------------------------------------------------------
    def extract(self, websites: Iterable[Website]) -> ExtractorOutput:
        """Run Algorithm 1 over all websites; returns attributes + triples."""
        output = ExtractorOutput(EXTRACTOR_ID)
        evidence: dict[tuple[str, str], _AttributeEvidence] = {}
        pending: list[tuple[tuple[str, str], ScoredTriple]] = []
        for site in websites:
            self._extract_site(site, output, evidence, pending)
        accepted: set[tuple[str, str]] = set()
        for (class_name, name), record in evidence.items():
            if not record.is_seed and (
                len(record.pages) < self.config.min_attribute_support
            ):
                continue
            accepted.add((class_name, name))
            output.add_attribute(
                class_name,
                name,
                support=record.support,
                entity_support=max(1, len(record.entities)),
                sources=record.sites,
            )
        # Triples are only trustworthy for attributes that survived the
        # support threshold — per-page noise labels never produce facts.
        output.triples = [
            scored for key, scored in pending if key in accepted
        ]
        return output

    def enriched_seeds(self, class_name: str) -> SeedSet:
        """The enriched seed set for a class after extraction."""
        return self._seeds[class_name]

    # ------------------------------------------------------------------
    def _extract_site(
        self,
        site: Website,
        output: ExtractorOutput,
        evidence: dict[tuple[str, str], _AttributeEvidence],
        pending: list[tuple[tuple[str, str], ScoredTriple]],
    ) -> None:
        class_name = site.class_name
        seeds = self._seeds.setdefault(class_name, SeedSet(class_name))
        new_for_site = 0
        for _ in range(self.config.max_passes_per_site):
            grew = False
            for page in site.pages:
                if page.url in self._done_pages:
                    continue
                processed, page_new = self._extract_page(
                    site, page.html, page.url, class_name, seeds,
                    evidence, pending,
                )
                if processed:
                    self._done_pages.add(page.url)
                new_for_site += page_new
                grew = grew or page_new > 0
                if new_for_site >= self.config.max_new_attributes_per_site:
                    return  # the paper's per-site threshold: move on
            if not grew:
                break  # |A_T| did not increase: traverse another site

    def _extract_page(
        self,
        site: Website,
        html: str,
        url: str,
        class_name: str,
        seeds: SeedSet,
        evidence: dict[tuple[str, str], _AttributeEvidence],
        pending: list[tuple[tuple[str, str], ScoredTriple]],
    ) -> tuple[bool, int]:
        texts = list(parse_html(html).iter_texts())

        # Classify text nodes: entity vs non-entity.
        anchor: int | None = None  # the entity node's document order
        anchor_entity: Entity | None = None
        labels: list[_LabelNode] = []
        for order, (node, chain) in enumerate(texts):
            surface = node.text.strip().lower()
            entity = self._index.get(surface)
            if entity is not None and entity.class_name == class_name:
                if anchor is None:
                    anchor = order
                    anchor_entity = entity
                continue
            canonical = normalize_attribute(node.text)
            labels.append(_LabelNode(order, chain, canonical))
        mention_mode = False
        if anchor is None:
            if not self.config.allow_mention_anchors:
                # Algorithm 1 requires an entity of Set_E on the page;
                # such pages are final (no seed growth changes them).
                return True, 0
            anchor = self._heading_node(texts)
            if anchor is None:
                return True, 0
            mention_mode = True
            labels = [label for label in labels if label.order != anchor]
        anchor_node, anchor_chain = texts[anchor]
        # A label outside the anchor's top-level element (a page with no
        # single root) has no tag path to it.
        root = anchor_chain[0] if anchor_chain else None
        labels = [one for one in labels if one.chain and one.chain[0] is root]

        # Induced tag-path pattern set: paths from the entity node to
        # every seed-attribute label on this page.
        induced: list[RelativeTagPath] = []
        for label in labels:
            if label.canonical and label.canonical in seeds:
                label.path = relative_path(anchor_chain, label.chain)
                induced.append(label.path)
        if not induced:
            return False, 0  # no (A, E) pair yet: revisit on a later pass

        # Compare every other non-entity node against the induced set.
        new_count = 0
        label_orders: dict[int, _LabelNode] = {}
        for label in labels:
            if label.path is None:
                label.path = relative_path(anchor_chain, label.chain)
            similarity = max(
                label.path.similarity(pattern) for pattern in induced
            )
            if similarity < self.config.similarity_threshold:
                continue
            if not self._acceptable_label(label.canonical):
                continue
            label_orders[label.order] = label
            if mention_mode:
                # Mention pages harvest values for seed attributes only;
                # they carry no Set_E evidence for attribute discovery.
                if label.canonical in seeds:
                    label_orders[label.order] = label
                continue
            key = (class_name, label.canonical)
            record = evidence.setdefault(key, _AttributeEvidence())
            if label.canonical in seeds:
                record.is_seed = True
            elif seeds.add(label.canonical):
                new_count += 1
            record.pages.add(url or site.site_id)
            record.sites.add(site.site_id)
            record.entities.add(anchor_entity.entity_id)
            record.support += 1

        # Value triples: the next non-label text node after each label.
        if mention_mode:
            surface = " ".join(anchor_node.text.split())
            subject = mention_subject(surface)
            self.mention_classes[surface] = class_name
        else:
            subject = anchor_entity.entity_id
        for order, label in sorted(label_orders.items()):
            value_node = self._value_node(texts, order, label_orders, anchor)
            if value_node is None:
                continue
            value_text = " ".join(value_node.text.split())
            if not value_text:
                continue
            pending.append(
                (
                    (class_name, label.canonical),
                    ScoredTriple(
                        Triple(
                            subject,
                            label.canonical,
                            Value(value_text),
                        ),
                        Provenance(
                            source_id=site.site_id,
                            extractor_id=EXTRACTOR_ID,
                            locator=url,
                        ),
                    ),
                )
            )
        return True, new_count

    # ------------------------------------------------------------------
    def _acceptable_label(self, canonical: str) -> bool:
        """Filter obviously non-attribute label texts."""
        if not canonical:
            return False
        words = canonical.split(" ")
        if len(words) > self.config.max_label_tokens:
            return False
        if any(word.isdigit() for word in words):
            return False
        if len(canonical) > 48:
            return False
        return True

    @staticmethod
    def _heading_node(texts: _Texts) -> int | None:
        """The page-title text node's order: the first h1/h2 text."""
        for order, (_, chain) in enumerate(texts):
            if chain and chain[-1].tag in ("h1", "h2"):
                return order
        return None

    @staticmethod
    def _value_node(
        texts: _Texts,
        label_order: int,
        label_orders: dict[int, "_LabelNode"],
        anchor_order: int,
    ) -> TextNode | None:
        """The value for a label: the next text node in document order
        that is neither another label nor the entity anchor."""
        for offset in (1, 2, 3):
            order = label_order + offset
            if order >= len(texts):
                return None
            if order == anchor_order:
                continue
            if order in label_orders:
                return None  # immediately followed by another label
            return texts[order][0]
        return None
