"""Per-class attribute catalogs and value vocabularies.

The paper evaluates five representative Freebase classes: Book, Film,
Country, University and Hotel (Tables 2 and 3).  For each class this
module defines an *attribute universe*: a curated core of realistic
attribute names plus deterministically generated extensions, large
enough to cover the per-class attribute counts the paper reports
(e.g. 518 combined attributes for University).

The universe is the ground-truth schema space; KB snapshots, query
streams, websites and text corpora all draw their attributes from it,
which is what makes cross-source extraction and fusion meaningful.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.errors import GenerationError
from repro.rdf.hierarchy import ValueHierarchy
from repro.rdf.triple import ValueKind
from repro.synth import names

CLASS_NAMES = ("Book", "Film", "Country", "University", "Hotel")


@dataclass(frozen=True, slots=True)
class AttributeSpec:
    """Ground-truth description of one attribute in a class universe.

    ``query_propensity`` controls how often the attribute appears in
    attribute-intent queries (Table 3's extraction source);
    ``web_propensity`` controls how often websites/texts mention it.
    """

    name: str
    functional: bool = True
    value_kind: ValueKind = ValueKind.STRING
    hierarchical: bool = False
    query_propensity: float = 0.5
    web_propensity: float = 0.7


# Curated attribute cores.  Names are lower-case, space-separated, as
# produced by repro.textproc.normalize.normalize_attribute.
_CORE: dict[str, list[AttributeSpec]] = {
    "Book": [
        AttributeSpec("author", True, ValueKind.STRING, False, 0.9, 0.95),
        AttributeSpec("publication date", True, ValueKind.DATE, False, 0.7, 0.9),
        AttributeSpec("publisher", True, ValueKind.STRING, False, 0.6, 0.85),
        AttributeSpec("genre", False, ValueKind.STRING, False, 0.7, 0.8),
        AttributeSpec("number of pages", True, ValueKind.NUMBER, False, 0.5, 0.8),
        AttributeSpec("language", True, ValueKind.STRING, False, 0.5, 0.7),
        AttributeSpec("isbn", True, ValueKind.STRING, False, 0.4, 0.8),
        AttributeSpec("setting", False, ValueKind.STRING, True, 0.3, 0.5),
        AttributeSpec("protagonist", False, ValueKind.STRING, False, 0.4, 0.5),
        AttributeSpec("series", True, ValueKind.STRING, False, 0.4, 0.5),
        AttributeSpec("translator", False, ValueKind.STRING, False, 0.2, 0.4),
        AttributeSpec("edition", True, ValueKind.STRING, False, 0.2, 0.4),
        AttributeSpec("cover artist", True, ValueKind.STRING, False, 0.1, 0.3),
        AttributeSpec("dedication", True, ValueKind.STRING, False, 0.1, 0.2),
        AttributeSpec("price", True, ValueKind.NUMBER, False, 0.5, 0.6),
    ],
    "Film": [
        AttributeSpec("director", True, ValueKind.STRING, False, 0.9, 0.95),
        AttributeSpec("release date", True, ValueKind.DATE, False, 0.8, 0.9),
        AttributeSpec("cast", False, ValueKind.STRING, False, 0.8, 0.9),
        AttributeSpec("genre", False, ValueKind.STRING, False, 0.7, 0.8),
        AttributeSpec("running time", True, ValueKind.NUMBER, False, 0.5, 0.8),
        AttributeSpec("budget", True, ValueKind.NUMBER, False, 0.5, 0.6),
        AttributeSpec("box office", True, ValueKind.NUMBER, False, 0.6, 0.6),
        AttributeSpec("producer", False, ValueKind.STRING, False, 0.4, 0.6),
        AttributeSpec("screenwriter", False, ValueKind.STRING, False, 0.4, 0.6),
        AttributeSpec("composer", True, ValueKind.STRING, False, 0.3, 0.5),
        AttributeSpec("filming location", False, ValueKind.STRING, True, 0.4, 0.5),
        AttributeSpec("rating", True, ValueKind.STRING, False, 0.6, 0.7),
        AttributeSpec("language", True, ValueKind.STRING, False, 0.4, 0.6),
        AttributeSpec("studio", True, ValueKind.STRING, False, 0.3, 0.5),
        AttributeSpec("sequel", True, ValueKind.STRING, False, 0.3, 0.3),
    ],
    "Country": [
        AttributeSpec("capital", True, ValueKind.STRING, True, 0.9, 0.95),
        AttributeSpec("population", True, ValueKind.NUMBER, False, 0.9, 0.95),
        AttributeSpec("area", True, ValueKind.NUMBER, False, 0.6, 0.85),
        AttributeSpec("currency", True, ValueKind.STRING, False, 0.7, 0.85),
        AttributeSpec("official language", False, ValueKind.STRING, False, 0.7, 0.85),
        AttributeSpec("president", True, ValueKind.STRING, False, 0.8, 0.8),
        AttributeSpec("prime minister", True, ValueKind.STRING, False, 0.6, 0.7),
        AttributeSpec("gdp", True, ValueKind.NUMBER, False, 0.6, 0.7),
        AttributeSpec("national anthem", True, ValueKind.STRING, False, 0.4, 0.5),
        AttributeSpec("national flower", True, ValueKind.STRING, False, 0.3, 0.4),
        AttributeSpec("calling code", True, ValueKind.STRING, False, 0.4, 0.6),
        AttributeSpec("time zone", False, ValueKind.STRING, False, 0.4, 0.6),
        AttributeSpec("largest city", True, ValueKind.STRING, True, 0.5, 0.7),
        AttributeSpec("continent", True, ValueKind.STRING, False, 0.5, 0.7),
        AttributeSpec("independence day", True, ValueKind.DATE, False, 0.4, 0.5),
        AttributeSpec("life expectancy", True, ValueKind.NUMBER, False, 0.4, 0.5),
        AttributeSpec("literacy rate", True, ValueKind.NUMBER, False, 0.3, 0.5),
        AttributeSpec("climate", False, ValueKind.STRING, False, 0.4, 0.5),
        AttributeSpec("religion", False, ValueKind.STRING, False, 0.4, 0.5),
        AttributeSpec("neighboring country", False, ValueKind.STRING, False, 0.3, 0.5),
    ],
    "University": [
        AttributeSpec("chancellor", True, ValueKind.STRING, False, 0.6, 0.8),
        AttributeSpec("location", True, ValueKind.STRING, True, 0.7, 0.9),
        AttributeSpec("founded", True, ValueKind.DATE, False, 0.6, 0.85),
        AttributeSpec("enrollment", True, ValueKind.NUMBER, False, 0.6, 0.8),
        AttributeSpec("motto", True, ValueKind.STRING, False, 0.4, 0.6),
        AttributeSpec("tuition", True, ValueKind.NUMBER, False, 0.8, 0.7),
        AttributeSpec("acceptance rate", True, ValueKind.NUMBER, False, 0.7, 0.6),
        AttributeSpec("ranking", True, ValueKind.NUMBER, False, 0.8, 0.7),
        AttributeSpec("campus size", True, ValueKind.NUMBER, False, 0.3, 0.5),
        AttributeSpec("mascot", True, ValueKind.STRING, False, 0.4, 0.5),
        AttributeSpec("colors", False, ValueKind.STRING, False, 0.3, 0.5),
        AttributeSpec("faculty count", True, ValueKind.NUMBER, False, 0.3, 0.5),
        AttributeSpec("notable alumni", False, ValueKind.STRING, False, 0.5, 0.6),
        AttributeSpec("library", False, ValueKind.STRING, False, 0.2, 0.4),
        AttributeSpec("endowment", True, ValueKind.NUMBER, False, 0.4, 0.5),
    ],
    "Hotel": [
        AttributeSpec("location", True, ValueKind.STRING, True, 0.3, 0.9),
        AttributeSpec("star rating", True, ValueKind.NUMBER, False, 0.3, 0.85),
        AttributeSpec("number of rooms", True, ValueKind.NUMBER, False, 0.2, 0.8),
        AttributeSpec("check in time", True, ValueKind.STRING, False, 0.2, 0.7),
        AttributeSpec("check out time", True, ValueKind.STRING, False, 0.2, 0.7),
        AttributeSpec("amenities", False, ValueKind.STRING, False, 0.2, 0.7),
        AttributeSpec("room rate", True, ValueKind.NUMBER, False, 0.3, 0.7),
        AttributeSpec("parking", True, ValueKind.STRING, False, 0.1, 0.6),
        AttributeSpec("pet policy", True, ValueKind.STRING, False, 0.1, 0.5),
        AttributeSpec("restaurant", False, ValueKind.STRING, False, 0.1, 0.5),
        AttributeSpec("opened", True, ValueKind.DATE, False, 0.1, 0.5),
        AttributeSpec("owner", True, ValueKind.STRING, False, 0.1, 0.4),
    ],
}

# Nouns used to mint extension attributes, per class.
_EXTENSION_NOUNS: dict[str, list[str]] = {
    "Book": [
        "chapter", "reprint", "review", "award", "illustration", "appendix",
        "preface", "paperback", "hardcover", "audiobook", "royalty",
        "manuscript", "footnote", "glossary", "anthology", "foreword",
    ],
    "Film": [
        "scene", "trailer", "premiere", "award", "stunt", "soundtrack",
        "costume", "reel", "subtitle", "screening", "remake", "poster",
        "cameo", "franchise", "script", "casting",
    ],
    "Country": [
        "export", "import", "province", "river", "border", "railway",
        "highway", "airport", "harbor", "festival", "tax", "election",
        "embassy", "ministry", "census", "forest", "island", "lake",
        "mountain", "museum", "newspaper", "parliament", "pension",
        "tariff", "tourism", "treaty", "university", "visa", "volcano",
        "wage",
    ],
    "University": [
        "department", "laboratory", "professor", "scholarship", "dormitory",
        "lecture", "seminar", "institute", "fellowship", "dean", "campus",
        "stadium", "journal", "grant", "thesis", "graduate", "alumni",
        "archive", "chapel", "clinic", "college", "course", "degree",
        "exchange", "faculty", "gallery", "museum", "observatory",
        "press", "union",
    ],
    "Hotel": [
        "suite", "spa", "gym", "pool", "lounge", "banquet", "concierge",
        "shuttle", "minibar", "balcony", "terrace", "ballroom", "buffet",
        "laundry", "valet", "wifi",
    ],
}

# Templates used to mint extension attribute names from nouns.
_EXTENSION_TEMPLATES = [
    "number of {noun}s",
    "{noun} count",
    "{noun} policy",
    "{noun} fee",
    "annual {noun} budget",
    "{noun} capacity",
    "main {noun}",
    "largest {noun}",
    "oldest {noun}",
    "{noun} rating",
    "{noun} name",
    "total {noun} revenue",
    "{noun} schedule",
    "{noun} history",
    "famous {noun}",
    "official {noun}",
    "first {noun}",
    "per capita {noun}",
    "{noun} director",
    "{noun} address",
]

# Default universe sizes, chosen to exceed the paper's per-class
# combined attribute counts (Table 2: up to 518 for University).
DEFAULT_UNIVERSE_SIZES: dict[str, int] = {
    "Book": 140,
    "Film": 180,
    "Country": 620,
    "University": 640,
    "Hotel": 330,
}


@dataclass(frozen=True, slots=True)
class ClassCatalog:
    """The attribute universe of one class."""

    class_name: str
    attributes: tuple[AttributeSpec, ...]

    def names(self) -> tuple[str, ...]:
        return tuple(attribute.name for attribute in self.attributes)

    def __len__(self) -> int:
        return len(self.attributes)


def build_catalog(
    class_name: str,
    rng: random.Random,
    universe_size: int | None = None,
) -> ClassCatalog:
    """Build the attribute universe for one of the five classes.

    The curated core comes first; extension attributes are minted from
    class-specific nouns and templates until the universe size is
    reached.  Extension attributes get lower query/web propensities
    than core ones (long-tail behaviour).
    """
    if class_name not in _CORE:
        raise GenerationError(f"unknown class {class_name!r}")
    size = universe_size or DEFAULT_UNIVERSE_SIZES[class_name]
    core = list(_CORE[class_name])
    if size < len(core):
        return ClassCatalog(class_name, tuple(core[:size]))

    seen = {spec.name for spec in core}
    extensions: list[AttributeSpec] = []
    nouns = list(_EXTENSION_NOUNS[class_name])
    # Extend the noun pool with invented words when templates x curated
    # nouns cannot reach the requested universe size.
    needed = size - len(core)
    while len(nouns) * len(_EXTENSION_TEMPLATES) < needed * 2:
        nouns.append(names.invented_word(rng, 2).lower())

    combos = [
        (template, noun) for noun in nouns for template in _EXTENSION_TEMPLATES
    ]
    rng.shuffle(combos)
    for template, noun in combos:
        if len(extensions) >= needed:
            break
        name = template.format(noun=noun)
        if name in seen:
            continue
        seen.add(name)
        extensions.append(
            AttributeSpec(
                name=name,
                functional=rng.random() < 0.8,
                value_kind=(
                    ValueKind.NUMBER
                    if template.startswith(("number", "total", "per capita"))
                    or "count" in template
                    or "fee" in template
                    or "capacity" in template
                    else ValueKind.STRING
                ),
                hierarchical=False,
                query_propensity=rng.uniform(0.01, 0.25),
                web_propensity=rng.uniform(0.05, 0.45),
            )
        )
    if len(extensions) < needed:
        raise GenerationError(
            f"could not mint {needed} extension attributes for {class_name!r}"
        )
    return ClassCatalog(class_name, tuple(core + extensions))


def build_all_catalogs(
    rng: random.Random,
    universe_sizes: dict[str, int] | None = None,
) -> dict[str, ClassCatalog]:
    """Catalogs for all five representative classes."""
    sizes = dict(DEFAULT_UNIVERSE_SIZES)
    if universe_sizes:
        sizes.update(universe_sizes)
    return {
        class_name: build_catalog(class_name, rng, sizes[class_name])
        for class_name in CLASS_NAMES
    }


def generate_locations(
    rng: random.Random,
    countries: int = 12,
    regions_per_country: int = 4,
    cities_per_region: int = 5,
) -> tuple[ValueHierarchy, list[str]]:
    """Generate a three-level location hierarchy.

    Returns the hierarchy plus the list of leaf city names; hierarchical
    attribute values are drawn from the leaves so fusion can reason up
    the chain (city → region → country).
    """
    if countries < 1 or regions_per_country < 1 or cities_per_region < 1:
        raise GenerationError("location hierarchy sizes must be positive")
    hierarchy = ValueHierarchy()
    cities: list[str] = []
    used: set[str] = set()

    def fresh(maker) -> str:
        for _ in range(1000):
            candidate = maker(rng)
            if candidate not in used:
                used.add(candidate)
                return candidate
        raise GenerationError("name space exhausted generating locations")

    for _ in range(countries):
        country = fresh(names.country_name)
        for _ in range(regions_per_country):
            region = fresh(names.place_name)
            hierarchy.add_edge(region, country)
            for _ in range(cities_per_region):
                city = fresh(names.place_name)
                hierarchy.add_edge(city, region)
                cities.append(city)
    return hierarchy, cities
