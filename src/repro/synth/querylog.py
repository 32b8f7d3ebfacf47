"""Synthetic search-engine query stream.

The paper combines Google and AOL logs into a 29,283,918-record stream
and reports, per class, how many records are *relevant* (mention a
class entity) and how many *credible attributes* the extractor finds
(Table 3).  This generator emits a scaled stream with the same
structure:

* relevant records mention a recognised entity; a class-dependent share
  of them carry *attribute intent*, phrased exactly in the patterns the
  extractor knows ("what is the A of E", "the A of E", "E's A") plus
  free-form variants;
* Hotel queries are dominated by navigational/transactional intent
  ("cheap deals", "book now"), so essentially no attribute-intent
  records exist — reproducing the paper's N/A for Hotel;
* the rest of the stream is noise: word salad, navigation, other
  domains.

Every record carries optional gold annotations (used only by
evaluation, never by the extractor).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import accumulate

from repro.errors import GenerationError
from repro.synth import names
from repro.synth.catalog import AttributeSpec
from repro.synth.noise import misspell_phrase
from repro.synth.world import GroundTruthWorld

# Table 3 of the paper: relevant query records per class.
PAPER_TABLE3_RELEVANT: dict[str, int] = {
    "Book": 259_556,
    "Film": 403_672,
    "Country": 393_244,
    "University": 24_633,
    "Hotel": 15_544,
}
PAPER_TOTAL_RECORDS = 29_283_918

# Share of relevant records that carry attribute intent.  Hotel queries
# are navigational, which is why the paper found no credible attributes.
DEFAULT_ATTRIBUTE_INTENT_SHARE: dict[str, float] = {
    "Book": 0.55,
    "Film": 0.35,
    "Country": 0.6,
    "University": 0.55,
    "Hotel": 0.01,
}

_NOISE_NAVIGATION = [
    "login page", "free email", "weather today", "news headlines",
    "video streaming", "maps directions", "online shopping", "song lyrics",
    "sports scores", "stock prices", "recipe ideas", "job listings",
]
_HOTEL_TRANSACTIONAL = [
    "cheap deals {entity}", "book {entity} online", "{entity} discount code",
    "{entity} last minute booking", "best price {entity}", "{entity} reviews",
    "{entity} photos", "deals near {entity}",
]
_ENTITY_ONLY_FORMS = [
    "{entity}", "{entity} wiki", "{entity} official site", "{entity} news",
    "about {entity}", "{entity} 2014",
]


@dataclass(frozen=True, slots=True)
class QueryRecord:
    """One query-log record with optional gold annotations.

    Extractors must only read ``text``; the ``gold_*`` fields exist for
    evaluation (they say which fact, if any, the record realises).
    """

    record_id: int
    text: str
    gold_class: str | None = None
    gold_entity: str | None = None  # entity_id
    gold_attribute: str | None = None  # canonical attribute name


@dataclass(slots=True)
class QueryLogConfig:
    """Scaled query-stream parameters (defaults follow Table 3)."""

    seed: int = 17
    scale: float = 0.001
    relevant_counts: dict[str, int] = field(
        default_factory=lambda: dict(PAPER_TABLE3_RELEVANT)
    )
    total_records: int = PAPER_TOTAL_RECORDS
    attribute_intent_share: dict[str, float] = field(
        default_factory=lambda: dict(DEFAULT_ATTRIBUTE_INTENT_SHARE)
    )
    misspell_rate: float = 0.06
    zipf_exponent: float = 1.1
    max_noise_records: int = 200_000

    def validate(self) -> None:
        if not 0 < self.scale <= 1:
            raise GenerationError("scale must be in (0, 1]")
        if self.zipf_exponent <= 0:
            raise GenerationError("zipf_exponent must be positive")


def generate_query_log(
    world: GroundTruthWorld, config: QueryLogConfig | None = None
) -> list[QueryRecord]:
    """Generate the scaled query stream for all classes in the world."""
    cfg = config or QueryLogConfig()
    cfg.validate()
    rng = random.Random(cfg.seed)
    records: list[QueryRecord] = []
    record_id = 0

    for class_name in world.classes():
        relevant_total = cfg.relevant_counts.get(class_name, 0)
        count = max(1, round(relevant_total * cfg.scale))
        intent_share = cfg.attribute_intent_share.get(class_name, 0.4)
        draws = _class_draws(world, class_name, cfg.zipf_exponent)
        for _ in range(count):
            record_id += 1
            records.append(
                _relevant_record(draws, intent_share, record_id, rng, cfg)
            )

    relevant_count = len(records)
    relevant_share = (
        sum(cfg.relevant_counts.values()) / cfg.total_records
    )
    noise_count = min(
        cfg.max_noise_records,
        max(0, round(relevant_count / relevant_share) - relevant_count),
    )
    for _ in range(noise_count):
        record_id += 1
        records.append(QueryRecord(record_id, _noise_query(rng)))
    rng.shuffle(records)
    return records


@dataclass(frozen=True, slots=True)
class _ClassDraws:
    """What every relevant record of one class draws from: the entities
    by Zipf rank and the attributes by query propensity × Zipf rank,
    each with the cumulative weights ``rng.choices`` bisects."""

    class_name: str
    entities: tuple
    entity_cum_weights: list[float]
    attributes: list[AttributeSpec]
    attribute_cum_weights: list[float]


def _class_draws(
    world: GroundTruthWorld, class_name: str, zipf_exponent: float
) -> _ClassDraws:
    entities = world.entities(class_name)
    attributes = sorted(
        world.catalogs[class_name].attributes,
        key=lambda spec: -spec.query_propensity,
    )
    return _ClassDraws(
        class_name,
        entities,
        list(accumulate(
            1.0 / (rank + 1) ** zipf_exponent
            for rank in range(len(entities))
        )),
        attributes,
        list(accumulate(
            spec.query_propensity / (rank + 1) ** zipf_exponent
            for rank, spec in enumerate(attributes)
        )),
    )


def _relevant_record(
    draws: _ClassDraws,
    intent_share: float,
    record_id: int,
    rng: random.Random,
    cfg: QueryLogConfig,
) -> QueryRecord:
    class_name = draws.class_name
    entity = rng.choices(
        draws.entities, cum_weights=draws.entity_cum_weights, k=1
    )[0]
    surface = rng.choice(entity.surface_forms())
    if rng.random() < 0.7:
        surface = surface.lower()
    if rng.random() < cfg.misspell_rate:
        surface = misspell_phrase(surface, rng)

    if class_name == "Hotel" and rng.random() > intent_share:
        form = rng.choice(_HOTEL_TRANSACTIONAL + _ENTITY_ONLY_FORMS)
        return QueryRecord(
            record_id,
            form.format(entity=surface),
            gold_class=class_name,
            gold_entity=entity.entity_id,
        )
    if rng.random() > intent_share:
        form = rng.choice(_ENTITY_ONLY_FORMS)
        return QueryRecord(
            record_id,
            form.format(entity=surface),
            gold_class=class_name,
            gold_entity=entity.entity_id,
        )

    attribute = rng.choices(
        draws.attributes, cum_weights=draws.attribute_cum_weights, k=1
    )[0]
    attr_surface = attribute.name
    if rng.random() < cfg.misspell_rate:
        attr_surface = misspell_phrase(attr_surface, rng)
    text = _attribute_intent_query(attr_surface, surface, attribute, rng)
    return QueryRecord(
        record_id,
        text,
        gold_class=class_name,
        gold_entity=entity.entity_id,
        gold_attribute=attribute.name,
    )


def _attribute_intent_query(
    attribute_surface: str,
    entity_surface: str,
    attribute: AttributeSpec,
    rng: random.Random,
) -> str:
    """Instantiate one of the paper's query patterns."""
    wh_word = "what"
    if any(
        hint in attribute.name
        for hint in ("author", "director", "president", "minister",
                     "chancellor", "owner", "founder")
    ):
        wh_word = "who"
    elif "date" in attribute.name or "founded" in attribute.name:
        wh_word = rng.choice(["what", "when"])
    elif attribute.name.startswith(("number", "total")):
        wh_word = rng.choice(["what", "how"])

    determiner = rng.choice(["the ", "", "a "])
    shape = rng.random()
    if shape < 0.45:
        return f"{wh_word} is the {attribute_surface} of {determiner}{entity_surface}"
    if shape < 0.75:
        return f"the {attribute_surface} of {determiner}{entity_surface}"
    return f"{entity_surface}'s {attribute_surface}"


def _noise_query(rng: random.Random) -> str:
    """An irrelevant query (navigation or word salad)."""
    if rng.random() < 0.5:
        return rng.choice(_NOISE_NAVIGATION)
    word_count = rng.randint(2, 5)
    return " ".join(
        names.invented_word(rng, rng.choice([1, 2])).lower()
        for _ in range(word_count)
    )
