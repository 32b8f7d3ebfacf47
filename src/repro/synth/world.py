"""The seeded ground-truth world.

Every synthetic source (KB snapshots, query streams, websites, text
corpora) is generated as a noisy, partial view of one
:class:`GroundTruthWorld`.  The world doubles as the gold standard for
every evaluation: it knows the full attribute universe per class, every
entity, and every true fact (including hierarchical truths — a fact
whose value is ``Adelaide`` also makes ``South Australia`` and
``Australia`` true for the same data item, per the paper's value-
hierarchy discussion).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.errors import GenerationError
from repro.rdf.ontology import Attribute, Entity, Ontology, OntologyClass
from repro.rdf.store import TripleStore
from repro.rdf.triple import Provenance, ScoredTriple, Triple, Value, ValueKind
from repro.synth import names
from repro.synth.catalog import (
    CLASS_NAMES,
    AttributeSpec,
    ClassCatalog,
    build_all_catalogs,
    generate_locations,
)

_TRUTH_PROVENANCE = Provenance(source_id="world", extractor_id="truth")

_PERSON_ATTRIBUTE_HINTS = (
    "author", "director", "president", "minister", "chancellor", "producer",
    "screenwriter", "composer", "translator", "owner", "dean", "protagonist",
    "alumni", "artist", "professor",
)


@dataclass(slots=True)
class WorldConfig:
    """Parameters of the generated world.

    Defaults give a laptop-scale world (a few hundred entities) that
    still exhibits every phenomenon the paper discusses; benchmarks
    scale the counts up.
    """

    seed: int = 7
    entities_per_class: dict[str, int] = field(
        default_factory=lambda: {
            "Book": 60,
            "Film": 60,
            "Country": 40,
            "University": 50,
            "Hotel": 40,
        }
    )
    universe_sizes: dict[str, int] | None = None
    location_countries: int = 12
    location_regions: int = 4
    location_cities: int = 5
    value_pool_size: int = 24
    multi_value_max: int = 3
    alias_probability: float = 0.35

    def validate(self) -> None:
        for class_name, count in self.entities_per_class.items():
            if class_name not in CLASS_NAMES:
                raise GenerationError(f"unknown class {class_name!r}")
            if count < 1:
                raise GenerationError(
                    f"entities_per_class[{class_name!r}] must be >= 1"
                )
        if self.value_pool_size < 2:
            raise GenerationError("value_pool_size must be >= 2")
        if self.multi_value_max < 1:
            raise GenerationError("multi_value_max must be >= 1")


class GroundTruthWorld:
    """The complete synthetic world: schema, entities, facts, hierarchy."""

    def __init__(self, config: WorldConfig | None = None) -> None:
        self.config = config or WorldConfig()
        self.config.validate()
        self._rng = random.Random(self.config.seed)
        self.catalogs: dict[str, ClassCatalog] = build_all_catalogs(
            self._rng, self.config.universe_sizes
        )
        self.hierarchy, self.cities = generate_locations(
            self._rng,
            self.config.location_countries,
            self.config.location_regions,
            self.config.location_cities,
        )
        self.ontology = Ontology()
        self.truth = TripleStore()
        # (class_name, attribute_name) -> pool of candidate lexical values
        self._value_pools: dict[tuple[str, str], list[str]] = {}
        self._build()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _build(self) -> None:
        for class_name in self.config.entities_per_class:
            catalog = self.catalogs[class_name]
            cls = OntologyClass(
                class_name,
                attributes=[
                    Attribute(
                        spec.name,
                        functional=spec.functional,
                        value_kind=spec.value_kind,
                        hierarchical=spec.hierarchical,
                    )
                    for spec in catalog.attributes
                ],
            )
            self.ontology.add_class(cls)
            self._populate_entities(cls, catalog)

    def _populate_entities(
        self, cls: OntologyClass, catalog: ClassCatalog
    ) -> None:
        rng = self._rng
        count = self.config.entities_per_class[cls.name]
        used_names: set[str] = set()
        for index in range(count):
            name = self._fresh_entity_name(cls.name, used_names)
            entity_id = f"{cls.name.lower()}/{index:04d}"
            aliases: tuple[str, ...] = ()
            if rng.random() < self.config.alias_probability:
                alias = self._alias_for(name)
                if alias and alias != name:
                    aliases = (alias,)
            entity = Entity(entity_id, name, cls.name, aliases)
            cls.add_entity(entity)
            self._populate_facts(cls.name, catalog, entity)

    def _fresh_entity_name(self, class_name: str, used: set[str]) -> str:
        rng = self._rng
        makers = {
            "Book": names.title_name,
            "Film": names.title_name,
            "Country": names.country_name,
            "University": names.university_name,
            "Hotel": names.hotel_name,
        }
        maker = makers[class_name]
        for _ in range(2000):
            candidate = maker(rng)
            if candidate not in used:
                used.add(candidate)
                return candidate
        raise GenerationError(f"entity name space exhausted for {class_name}")

    @staticmethod
    def _alias_for(name: str) -> str | None:
        """A natural alias: drop a leading article or reorder
        "University of X" ↔ "X University"."""
        if name.startswith("The "):
            return name[4:]
        if name.startswith("University of "):
            return f"{name[len('University of '):]} University"
        if name.endswith(" University"):
            return f"University of {name[: -len(' University')]}"
        return None

    def _populate_facts(
        self, class_name: str, catalog: ClassCatalog, entity: Entity
    ) -> None:
        rng = self._rng
        for spec in catalog.attributes:
            presence = min(0.95, 0.25 + 0.7 * spec.web_propensity)
            if rng.random() > presence:
                continue
            truth_count = (
                1
                if spec.functional
                else rng.randint(1, self.config.multi_value_max)
            )
            pool = self.value_pool(class_name, spec)
            values = rng.sample(pool, min(truth_count, len(pool)))
            for lexical in values:
                triple = Triple(
                    entity.entity_id, spec.name, Value(lexical, spec.value_kind)
                )
                self.truth.add(ScoredTriple(triple, _TRUTH_PROVENANCE, 1.0))

    # ------------------------------------------------------------------
    # Value pools
    # ------------------------------------------------------------------
    def value_pool(
        self, class_name: str, spec: AttributeSpec
    ) -> list[str]:
        """The pool of candidate values for one attribute.

        Truths are sampled from this pool, and so are *plausible wrong
        values* injected by noisy sources — which is what makes fusion
        non-trivial (wrong values look like real ones).
        """
        key = (class_name, spec.name)
        pool = self._value_pools.get(key)
        if pool is None:
            pool = self._make_value_pool(spec)
            self._value_pools[key] = pool
        return pool

    def _make_value_pool(self, spec: AttributeSpec) -> list[str]:
        rng = self._rng
        size = self.config.value_pool_size
        if spec.hierarchical:
            return rng.sample(self.cities, min(size, len(self.cities)))
        if spec.value_kind is ValueKind.NUMBER:
            magnitude = 10 ** rng.randint(1, 6)
            values = {
                str(rng.randint(max(1, magnitude // 10), magnitude))
                for _ in range(size * 2)
            }
            return sorted(values)[:size]
        if spec.value_kind is ValueKind.DATE:
            values = {
                f"{rng.randint(1850, 2014)}-{rng.randint(1, 12):02d}-"
                f"{rng.randint(1, 28):02d}"
                for _ in range(size * 2)
            }
            return sorted(values)[:size]
        if any(hint in spec.name for hint in _PERSON_ATTRIBUTE_HINTS):
            values_set: set[str] = set()
            while len(values_set) < size:
                values_set.add(names.person_name(rng))
            return sorted(values_set)
        values_set = set()
        while len(values_set) < size:
            word_count = rng.choice([1, 1, 2])
            values_set.add(
                " ".join(names.invented_word(rng, 2) for _ in range(word_count))
            )
        return sorted(values_set)

    # ------------------------------------------------------------------
    # Gold-standard queries
    # ------------------------------------------------------------------
    def classes(self) -> tuple[str, ...]:
        return self.ontology.class_names

    def entities(self, class_name: str) -> tuple[Entity, ...]:
        return self.ontology.cls(class_name).entities

    def attribute_names(self, class_name: str) -> tuple[str, ...]:
        """The full ground-truth attribute universe of a class."""
        return self.catalogs[class_name].names()

    def true_leaf_values(self, entity_id: str, attribute: str) -> set[str]:
        """The asserted (most specific) true values of a data item."""
        return {
            value.lexical for value in self.truth.objects(entity_id, attribute)
        }

    def true_values(self, entity_id: str, attribute: str) -> set[str]:
        """All true values including hierarchy generalisations.

        A leaf truth of ``Adelaide`` makes ``South Australia`` and
        ``Australia`` true too.
        """
        leaves = self.true_leaf_values(entity_id, attribute)
        expanded = set(leaves)
        for leaf in leaves:
            expanded.update(self.hierarchy.ancestors(leaf))
        return expanded

    def facts(self) -> list[Triple]:
        """Every asserted (leaf-level) true triple."""
        return self.truth.match()

    def entity_index(self) -> dict[str, Entity]:
        """Surface form → entity index across all classes."""
        return self.ontology.entity_index()
