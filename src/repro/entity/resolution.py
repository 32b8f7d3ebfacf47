"""Attribute resolution: misspellings, synonyms and sub-attributes.

The fusion phase "identifies the misspellings, synonyms, and
sub-attributes" among extracted attribute names (Sec. 3).  The resolver
builds a mapping ``variant → canonical`` per class:

* **misspellings** — small edit distance to a better-supported name;
* **synonyms** — token permutations ("date of publication" ↔
  "publication date", minus connective words) and qualifier wrappers
  added by noisy sources ("official publisher" → "publisher",
  "price of record" → "price");
* **value-profile merges** — two names whose observed
  (entity, value) pairs largely coincide describe the same attribute
  even when their surfaces differ;
* **sub-attributes** — a name that *extends* another by a specialising
  modifier ("main library" vs "library") is recorded as a child, not
  merged: its facts remain valid but more specific.

Resolution always maps lower-supported variants onto higher-supported
canonicals, so a typo never absorbs the true spelling.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field

from repro.entity.blocking import BlockingStats, QGramIndex
from repro.rdf.triple import ScoredTriple, Triple
from repro.textproc.normalize import is_probable_misspelling

# Qualifier wrappers that noisy sources prepend/append to a base name.
_QUALIFIER_PREFIXES = ("official", "total", "overall")
_QUALIFIER_SUFFIXES = ("of record",)

# Specialising modifiers marking a sub-attribute rather than a synonym.
_SUBATTRIBUTE_MODIFIERS = (
    "main", "first", "largest", "oldest", "primary", "famous",
)

_CONNECTIVES = frozenset({"of", "the", "a", "an", "in", "for"})

#: Value-profile Jaccard at which two attribute names merge.
PROFILE_JACCARD = 0.5


@dataclass(slots=True)
class AttributeResolution:
    """The resolver's verdict for one class."""

    class_name: str
    canonical_map: dict[str, str] = field(default_factory=dict)
    sub_attributes: dict[str, str] = field(default_factory=dict)  # child -> parent

    def resolve(self, name: str) -> str:
        """Canonical name for a possibly-variant attribute name."""
        return self.canonical_map.get(name, name)


def _content_tokens(name: str) -> frozenset[str]:
    return frozenset(
        token for token in name.split(" ") if token not in _CONNECTIVES
    )


def _strip_qualifiers(name: str) -> str:
    for prefix in _QUALIFIER_PREFIXES:
        if name.startswith(prefix + " ") and len(name) > len(prefix) + 1:
            return name[len(prefix) + 1 :]
    for suffix in _QUALIFIER_SUFFIXES:
        if name.endswith(" " + suffix) and len(name) > len(suffix) + 1:
            return name[: -(len(suffix) + 1)]
    return name


def _specialising_parent(name: str) -> str | None:
    """The parent name when ``name`` is a sub-attribute, else None."""
    for modifier in _SUBATTRIBUTE_MODIFIERS:
        if name.startswith(modifier + " ") and len(name) > len(modifier) + 1:
            return name[len(modifier) + 1 :]
    return None


class AttributeResolver:
    """Resolve attribute-name variants for one class.

    Parameters
    ----------
    support:
        Canonical name → evidence support; higher support wins merges.
    value_profiles:
        Optional name → set of (subject, value) pairs from extracted
        triples; used for profile-based merging.
    stats:
        Optional shared :class:`repro.entity.blocking.BlockingStats`
        (the pipeline passes one per run so per-class resolvers
        aggregate into a single "attributes" site).
    """

    def __init__(
        self,
        class_name: str,
        support: dict[str, int],
        value_profiles: dict[str, set[tuple[str, str]]] | None = None,
        *,
        stats: BlockingStats | None = None,
    ) -> None:
        self.class_name = class_name
        self.support = dict(support)
        self.value_profiles = value_profiles or {}
        self.stats = stats if stats is not None else BlockingStats("attributes")

    def run(self) -> AttributeResolution:
        resolution = AttributeResolution(self.class_name)
        names = sorted(
            self.support, key=lambda name: (-self.support[name], name)
        )
        self._tokens_cache = {name: _content_tokens(name) for name in names}
        # Blocking indexes over the accepted canonicals.  Each of the
        # four merge checks admits a cheap necessary condition, so a
        # variant only has to be compared against canonicals sharing
        # its full stripped name, its content-token set, at least one
        # 3-gram (or the short pool) for the misspelling window, or at
        # least one profile pair — instead of every canonical seen so
        # far (the O(n²) scan kept in tests/oracles/attribute_scan.py).
        self._rank: dict[str, int] = {}  # canonical -> acceptance order
        self._canonicals: list[str] = []  # acceptance order -> canonical
        self._by_tokens: dict[frozenset[str], list[int]] = {}
        self._qgrams = QGramIndex()
        self._by_pair: dict[tuple[str, str], list[int]] = {}
        for name in names:
            target = self._find_target(name)
            if target is None:
                parent = _specialising_parent(name)
                if parent is not None and parent in self.support:
                    resolution.sub_attributes[name] = parent
                self._accept_canonical(name)
            else:
                resolution.canonical_map[name] = target
        return resolution

    def _accept_canonical(self, name: str) -> None:
        """Insert a newly accepted canonical into the blocking indexes."""
        member = len(self._canonicals)
        self._rank[name] = member
        self._canonicals.append(name)
        tokens = self._tokens_cache[name]
        if tokens:
            self._by_tokens.setdefault(tokens, []).append(member)
        self._qgrams.add(member, name)
        for pair in self.value_profiles.get(name) or ():
            self._by_pair.setdefault(pair, []).append(member)

    def _find_target(self, name: str) -> str | None:
        """The canonical name this variant should merge into, if any.

        Gathers candidates from the blocking indexes (a superset of
        every canonical any check could match — the q-gram filter is
        exact over the misspelling window, see
        :class:`repro.entity.blocking.QGramIndex`) and replays the
        checks against them in acceptance order, so the verdict is
        identical to scanning the full canonical list.
        """
        stripped = _strip_qualifiers(name)
        tokens = self._tokens_cache[name]
        profile = self.value_profiles.get(name)
        name_len = len(name)

        candidates: set[int] = set()
        rank = self._rank.get(stripped)
        if rank is not None:
            candidates.add(rank)
        if tokens:
            candidates.update(self._by_tokens.get(tokens, ()))
        self._qgrams.candidates(name, candidates)
        if profile:
            for pair in profile:
                candidates.update(self._by_pair.get(pair, ()))

        self.stats.observe_candidates(len(candidates), len(self._canonicals))
        for member in sorted(candidates):
            self.stats.tier3_scored += 1
            target = self._canonicals[member]
            if stripped == target:
                return target  # qualifier wrapper
            if tokens and tokens == self._tokens_cache[target]:
                return target  # token permutation ("date of publication")
            if abs(name_len - len(target)) <= 2 and is_probable_misspelling(
                name, target, normalized=True
            ):
                return target
            if profile and self._profiles_match(profile, target):
                return target
        return None

    def _profiles_match(
        self, profile: set[tuple[str, str]], target: str
    ) -> bool:
        other = self.value_profiles.get(target)
        if not other:
            return False
        # Intersect small-into-large and derive the union size
        # arithmetically — this comparison runs for every
        # (variant, canonical) pair, and building union sets dominated
        # the resolver's profile pass.
        if len(profile) > len(other):
            overlap = len(other & profile)
        else:
            overlap = len(profile & other)
        union = len(profile) + len(other) - overlap
        if union == 0:
            return False
        # Containment-leaning Jaccard: a low-support variant whose
        # profile sits inside the canonical's profile should merge.
        smaller = min(len(profile), len(other))
        return (
            overlap / union >= PROFILE_JACCARD
            or (smaller > 0 and overlap / smaller >= 0.8 and overlap >= 3)
        )


def build_value_profiles(
    triples: Iterable[ScoredTriple],
) -> dict[str, set[tuple[str, str]]]:
    """Name → set of (subject, casefolded value) pairs across claims."""
    profiles: dict[str, set[tuple[str, str]]] = {}
    for scored in triples:
        triple = scored.triple
        profiles.setdefault(triple.predicate, set()).add(
            (triple.subject, triple.obj.lexical.casefold())
        )
    return profiles


def apply_resolution(
    triples: Iterable[ScoredTriple],
    resolutions: dict[str, AttributeResolution],
    class_of_subject,
) -> list[ScoredTriple]:
    """Rewrite triple predicates through per-class resolutions.

    ``class_of_subject`` maps a subject id to its class name (or None
    when unknown — such triples pass through unchanged).
    """
    rewritten: list[ScoredTriple] = []
    for scored in triples:
        class_name = class_of_subject(scored.triple.subject)
        resolution = resolutions.get(class_name) if class_name else None
        if resolution is None:
            rewritten.append(scored)
            continue
        predicate = resolution.resolve(scored.triple.predicate)
        if predicate == scored.triple.predicate:
            rewritten.append(scored)
        else:
            rewritten.append(
                ScoredTriple(
                    Triple(
                        scored.triple.subject, predicate, scored.triple.obj
                    ),
                    scored.provenance,
                    scored.confidence,
                )
            )
    return rewritten
