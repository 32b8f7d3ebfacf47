"""Synthetic snapshots of existing knowledge bases.

The paper uses four representative KBs (Table 1: YAGO, DBpedia,
Freebase, NELL) and extracts attributes from two of them (Table 2:
Freebase + DBpedia).  We generate each snapshot as a noisy, partial
view of the ground-truth world:

* a KB has an **official schema** per class — the small attribute set
  the paper reports as "original" (e.g. 9 properties for Freebase's
  University type);
* its **instance data** uses a larger attribute set (unmapped/raw
  properties, cross-type property usage) — this is why extraction from
  a KB's instance data recovers *more* attributes than its schema
  (Table 2's "Extrac." columns);
* each KB renders attribute names in its own convention (DBpedia
  camelCase, Freebase ``class/snake_case`` keys), so combining KBs
  requires normalisation and duplicate removal;
* instance values are wrong at a per-KB error rate, drawn from the
  attribute's plausible-value pool.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.errors import GenerationError
from repro.rdf.ontology import Entity
from repro.rdf.store import TripleStore
from repro.rdf.triple import Provenance, ScoredTriple, Triple, Value
from repro.synth.catalog import AttributeSpec
from repro.synth.noise import corrupt_value
from repro.synth.world import GroundTruthWorld

# Per-class calibration from Table 2 of the paper:
# (dbpedia_schema, dbpedia_instance, freebase_schema, freebase_instance,
#  combined) attribute counts.
PAPER_TABLE2: dict[str, tuple[int, int, int, int, int]] = {
    "Book": (21, 48, 5, 19, 60),
    "Film": (53, 53, 54, 54, 92),
    "Country": (191, 360, 22, 150, 489),
    "University": (21, 484, 9, 57, 518),
    "Hotel": (18, 216, 7, 56, 255),
}

# Table 1 of the paper: (# entities in millions, # attributes).
PAPER_TABLE1: dict[str, tuple[float, int]] = {
    "YAGO": (10.0, 100),
    "DBpedia": (4.0, 6000),
    "Freebase": (25.0, 4000),
    "NELL": (0.3, 500),
}


def render_name(attribute: str, class_name: str, naming: str) -> str:
    """Render a canonical attribute name in a KB's naming convention."""
    words = attribute.split(" ")
    if naming == "camel":
        return words[0] + "".join(word.capitalize() for word in words[1:])
    if naming == "snake":
        return f"{class_name.lower()}/{'_'.join(words)}"
    if naming == "label":
        return attribute
    raise GenerationError(f"unknown naming convention {naming!r}")


def decamelize(name: str) -> str:
    """Invert camelCase rendering: ``publicationDate`` → ``publication date``."""
    out: list[str] = []
    for char in name:
        if char.isupper() and out:
            out.append(" ")
        out.append(char.lower())
    return "".join(out)


@dataclass(slots=True)
class KbClassView:
    """One class as seen inside a KB snapshot."""

    class_name: str
    schema_attributes: tuple[str, ...]  # KB-rendered official schema
    instance_attributes: tuple[str, ...]  # KB-rendered, used in instance data
    entities: tuple[Entity, ...]


@dataclass(slots=True)
class KbSnapshot:
    """A generated snapshot of one knowledge base."""

    kb_id: str
    naming: str
    classes: dict[str, KbClassView] = field(default_factory=dict)
    store: TripleStore = field(default_factory=TripleStore)

    def entity_count(self) -> int:
        return sum(len(view.entities) for view in self.classes.values())

    def attribute_count(self) -> int:
        """Distinct attribute names anywhere in the KB (schema + usage)."""
        names = {
            attribute
            for view in self.classes.values()
            for attribute in view.schema_attributes + view.instance_attributes
        }
        return len(names)


@dataclass(slots=True)
class KbPairConfig:
    """Configuration for the Freebase+DBpedia pair of Table 2."""

    seed: int = 11
    coverage: float = 0.6  # chance an entity's true fact appears in the KB
    error_rate_dbpedia: float = 0.05
    error_rate_freebase: float = 0.03
    entity_ratio_dbpedia: float = 0.7
    entity_ratio_freebase: float = 1.0
    table2: dict[str, tuple[int, int, int, int, int]] = field(
        default_factory=lambda: dict(PAPER_TABLE2)
    )


def build_kb_pair(
    world: GroundTruthWorld, config: KbPairConfig | None = None
) -> tuple[KbSnapshot, KbSnapshot]:
    """Generate the (Freebase-like, DBpedia-like) snapshot pair.

    Attribute-set sizes per class follow the Table 2 calibration,
    clamped to the world's universe sizes; the overlap between the two
    KBs' instance attribute sets is chosen so that the union matches the
    paper's "Combine" column.
    """
    cfg = config or KbPairConfig()
    rng = random.Random(cfg.seed)
    freebase = KbSnapshot("freebase", "snake")
    dbpedia = KbSnapshot("dbpedia", "camel")

    for class_name in world.classes():
        calibration = cfg.table2.get(class_name)
        if calibration is None:
            raise GenerationError(f"no Table-2 calibration for {class_name!r}")
        db_schema, db_instance, fb_schema, fb_instance, combined = calibration
        universe = list(world.attribute_names(class_name))
        total = len(universe)
        db_instance = min(db_instance, total)
        fb_instance = min(fb_instance, total)
        combined = min(combined, total)
        overlap = max(0, db_instance + fb_instance - combined)

        rng.shuffle(universe)
        db_set = universe[:db_instance]
        shared = rng.sample(db_set, min(overlap, len(db_set)))
        complement = [name for name in universe if name not in db_set]
        fb_only_needed = fb_instance - len(shared)
        if fb_only_needed > len(complement):
            raise GenerationError(
                f"universe of {class_name!r} too small for calibration"
            )
        fb_set = shared + complement[:fb_only_needed]

        db_schema_set = rng.sample(db_set, min(db_schema, len(db_set)))
        fb_schema_set = rng.sample(fb_set, min(fb_schema, len(fb_set)))

        _fill_snapshot_class(
            dbpedia, world, class_name, db_schema_set, db_set,
            cfg.entity_ratio_dbpedia, cfg.coverage, cfg.error_rate_dbpedia,
            rng,
        )
        _fill_snapshot_class(
            freebase, world, class_name, fb_schema_set, fb_set,
            cfg.entity_ratio_freebase, cfg.coverage, cfg.error_rate_freebase,
            rng,
        )
    return freebase, dbpedia


def _fill_snapshot_class(
    snapshot: KbSnapshot,
    world: GroundTruthWorld,
    class_name: str,
    schema_attributes: list[str],
    instance_attributes: list[str],
    entity_ratio: float,
    coverage: float,
    error_rate: float,
    rng: random.Random,
) -> None:
    """Populate one class of a snapshot with entities and noisy facts."""
    all_entities = list(world.entities(class_name))
    count = max(1, round(len(all_entities) * entity_ratio))
    entities = rng.sample(all_entities, min(count, len(all_entities)))
    rendered_schema = tuple(
        render_name(name, class_name, snapshot.naming)
        for name in schema_attributes
    )
    rendered_instance = tuple(
        render_name(name, class_name, snapshot.naming)
        for name in instance_attributes
    )
    snapshot.classes[class_name] = KbClassView(
        class_name, rendered_schema, rendered_instance, tuple(entities)
    )

    provenance = Provenance(source_id=snapshot.kb_id, extractor_id="kb-load")
    catalog = world.catalogs[class_name]
    specs: dict[str, AttributeSpec] = {
        spec.name: spec for spec in catalog.attributes
    }
    # Track attributes that appeared on at least one entity so every
    # instance attribute is discoverable.
    appeared: set[str] = set()
    for entity in entities:
        for attribute in instance_attributes:
            true_leaves = world.true_leaf_values(entity.entity_id, attribute)
            if not true_leaves:
                continue
            if rng.random() > coverage:
                continue
            appeared.add(attribute)
            spec = specs[attribute]
            lexical = rng.choice(sorted(true_leaves))
            if rng.random() < error_rate:
                lexical = corrupt_value(
                    lexical, rng, world.value_pool(class_name, spec)
                )
            snapshot.store.add(
                ScoredTriple(
                    Triple(
                        entity.entity_id,
                        render_name(attribute, class_name, snapshot.naming),
                        Value(lexical, spec.value_kind),
                    ),
                    provenance,
                )
            )
    # Force one usage for any instance attribute that never appeared.
    for attribute in instance_attributes:
        if attribute in appeared or not entities:
            continue
        entity = rng.choice(entities)
        spec = specs[attribute]
        pool = world.value_pool(class_name, spec)
        snapshot.store.add(
            ScoredTriple(
                Triple(
                    entity.entity_id,
                    render_name(attribute, class_name, snapshot.naming),
                    Value(rng.choice(pool), spec.value_kind),
                ),
                provenance,
            )
        )


@dataclass(slots=True)
class RepresentativeKbConfig:
    """Scaling for the Table-1 snapshots.

    Entity counts scale so the largest KB (Freebase, 25M) covers the
    whole world; attribute counts scale so the largest vocabulary
    (DBpedia, 6000) covers the whole universe.
    """

    seed: int = 13
    coverage: float = 0.5
    error_rates: dict[str, float] = field(
        default_factory=lambda: {
            "YAGO": 0.02,
            "DBpedia": 0.05,
            "Freebase": 0.03,
            "NELL": 0.15,
        }
    )


def build_representative_snapshots(
    world: GroundTruthWorld, config: RepresentativeKbConfig | None = None
) -> dict[str, KbSnapshot]:
    """Generate the four Table-1 snapshots (YAGO, DBpedia, Freebase, NELL)."""
    cfg = config or RepresentativeKbConfig()
    rng = random.Random(cfg.seed)
    max_entities_m = max(spec[0] for spec in PAPER_TABLE1.values())
    max_attributes = max(spec[1] for spec in PAPER_TABLE1.values())
    world_entities = sum(
        len(world.entities(class_name)) for class_name in world.classes()
    )
    universe_total = sum(
        len(world.attribute_names(class_name))
        for class_name in world.classes()
    )
    namings = {
        "YAGO": "camel",
        "DBpedia": "camel",
        "Freebase": "snake",
        "NELL": "label",
    }
    snapshots: dict[str, KbSnapshot] = {}
    for kb_name, (entities_m, attributes) in PAPER_TABLE1.items():
        entity_target = max(1, round(world_entities * entities_m / max_entities_m))
        attribute_target = max(
            1, round(universe_total * attributes / max_attributes)
        )
        snapshots[kb_name] = _build_scaled_snapshot(
            world,
            kb_name.lower(),
            namings[kb_name],
            entity_target,
            attribute_target,
            cfg.coverage,
            cfg.error_rates[kb_name],
            rng,
        )
    return snapshots


def _build_scaled_snapshot(
    world: GroundTruthWorld,
    kb_id: str,
    naming: str,
    entity_target: int,
    attribute_target: int,
    coverage: float,
    error_rate: float,
    rng: random.Random,
) -> KbSnapshot:
    """One snapshot with approximate global entity/attribute targets."""
    snapshot = KbSnapshot(kb_id, naming)
    class_names = list(world.classes())
    world_entities = sum(
        len(world.entities(class_name)) for class_name in class_names
    )
    universe_total = sum(
        len(world.attribute_names(class_name)) for class_name in class_names
    )
    for class_name in class_names:
        class_entities = len(world.entities(class_name))
        class_universe = len(world.attribute_names(class_name))
        entity_share = max(
            1, round(entity_target * class_entities / world_entities)
        )
        attribute_share = max(
            1, round(attribute_target * class_universe / universe_total)
        )
        universe = list(world.attribute_names(class_name))
        rng.shuffle(universe)
        chosen = universe[: min(attribute_share, len(universe))]
        schema = chosen[: max(1, len(chosen) // 3)]
        _fill_snapshot_class(
            snapshot, world, class_name, schema, chosen,
            entity_share / class_entities, coverage, error_rate, rng,
        )
    return snapshot
