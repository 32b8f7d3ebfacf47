"""Source-copying scenario generator: plagiarists replicating errors.

Inter-source copying is the central hazard "From Data Fusion to
Knowledge Fusion" names: a clique of sources replicating one victim's
claims makes every shared error look independently confirmed, and
correlation-blind fusion happily promotes it.  A :class:`CopyingWorld`
builds that hazard with full ground truth:

* a pool of honest **independent** sources with individual accuracies;
* one low-accuracy **victim** source;
* configurable **copiers** that replicate a fraction of the victim's
  claims — errors included — with optional per-claim *mutation* (the
  copier garbles what it copied) and optional *lag* (the victim later
  corrects some of its errors, but the copiers replicated the
  pre-correction claims, so the error outlives its origin).

The gold standard records exactly which wrong values the copiers
replicated (``copied_errors``), so an eval can score **copied-error
suppression**: the fraction of replicated errors fusion kept out of
the KB.  Comparing correlation-aware vs correlation-blind fusion on
this world is the on/off table
:func:`repro.core.scenarios.run_copying` renders.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.errors import GenerationError
from repro.fusion.base import Claim, ClaimSet, Item

__all__ = ["CopyingConfig", "CopyingWorld", "generate_copying_world"]

#: Extractor id stamped on every claim of the copying world.
COPYING_EXTRACTOR = "synthetic"


@dataclass(slots=True)
class CopyingConfig:
    """Parameters of a copying world."""

    seed: int = 0
    n_items: int = 80
    # Honest sources claiming independently.
    n_independent: int = 4
    # Per-independent accuracy; None spreads 0.65..0.9.
    independent_accuracies: list[float] | None = None
    # The victim's accuracy (low: its errors are what copiers spread).
    victim_accuracy: float = 0.5
    n_copiers: int = 3
    # Chance a copier replicates any given victim claim.
    copy_fraction: float = 0.9
    # Chance a replicated claim is garbled into a fresh wrong value.
    mutation_rate: float = 0.05
    # Copier lag: with ``lag > 0`` the victim corrects
    # ``correction_rate`` of its errors *after* the copiers replicated
    # them — the published victim claims are post-correction, the
    # copies are pre-correction, so some copied errors no longer have
    # the victim's own vote.
    lag: int = 0
    correction_rate: float = 0.5
    # Chance any source observes any item.
    coverage: float = 0.75
    # Wrong values available per item.
    false_pool: int = 5
    predicate: str = "attr"

    def validate(self) -> None:
        if self.n_items < 1:
            raise GenerationError("n_items must be >= 1")
        if self.n_independent < 1 or self.n_copiers < 0:
            raise GenerationError(
                "need at least one independent source and >= 0 copiers"
            )
        if not 0 < self.coverage <= 1:
            raise GenerationError("coverage must lie in (0, 1]")
        for name in (
            "victim_accuracy", "copy_fraction", "mutation_rate",
            "correction_rate",
        ):
            rate = getattr(self, name)
            if not 0 <= rate <= 1:
                raise GenerationError(f"{name} must lie in [0, 1]")
        if self.lag < 0:
            raise GenerationError("lag must be >= 0")
        if self.false_pool < 1:
            raise GenerationError("false_pool must be >= 1")


@dataclass(slots=True)
class CopyingWorld:
    """A generated copying regime plus its gold standard."""

    claims: ClaimSet
    truths: dict[Item, set[str]] = field(default_factory=dict)
    victim: str = "victim"
    copiers: tuple[str, ...] = ()
    independents: tuple[str, ...] = ()
    source_accuracy: dict[str, float] = field(default_factory=dict)
    # item -> wrong values at least one copier replicated verbatim
    # from the victim's (pre-correction) claims.
    copied_errors: dict[Item, set[str]] = field(default_factory=dict)

    def total_copied_errors(self) -> int:
        return sum(len(values) for values in self.copied_errors.values())

    def copied_error_outcome(
        self, decided: dict[Item, set[str]]
    ) -> tuple[int, int]:
        """``(suppressed, leaked)`` copied errors under a verdict set.

        A copied error *leaks* when fusion decided it true; otherwise
        it was suppressed.
        """
        suppressed = 0
        leaked = 0
        for item, values in self.copied_errors.items():
            chosen = decided.get(item, set())
            for value in values:
                if value in chosen:
                    leaked += 1
                else:
                    suppressed += 1
        return suppressed, leaked

    def precision_of(self, decided: dict[Item, set[str]]) -> float:
        """Fraction of decided values that are true."""
        total = 0
        correct = 0
        for item, values in decided.items():
            gold = self.truths.get(item, set())
            for value in values:
                total += 1
                if value in gold:
                    correct += 1
        return correct / total if total else 0.0

    def recall_of(self, decided: dict[Item, set[str]]) -> float:
        """Fraction of gold truths that were decided."""
        total = 0
        correct = 0
        for item, gold in self.truths.items():
            for value in gold:
                total += 1
                if value in decided.get(item, set()):
                    correct += 1
        return correct / total if total else 0.0


def generate_copying_world(
    config: CopyingConfig | None = None,
) -> CopyingWorld:
    """Build a copying world per the configuration."""
    cfg = config or CopyingConfig()
    cfg.validate()
    rng = random.Random(cfg.seed)

    accuracies = cfg.independent_accuracies
    if accuracies is None:
        accuracies = [
            0.65 + 0.25 * index / max(1, cfg.n_independent - 1)
            for index in range(cfg.n_independent)
        ]
    independents = [
        f"indep{index:02d}" for index in range(cfg.n_independent)
    ]
    copiers = [f"copier{index:02d}" for index in range(cfg.n_copiers)]

    world = CopyingWorld(
        ClaimSet(),
        copiers=tuple(copiers),
        independents=tuple(independents),
    )
    for index, source in enumerate(independents):
        world.source_accuracy[source] = accuracies[index % len(accuracies)]
    world.source_accuracy[world.victim] = cfg.victim_accuracy
    for copier in copiers:
        world.source_accuracy[copier] = cfg.victim_accuracy

    items: list[Item] = []
    falses_of: dict[Item, list[str]] = {}
    for index in range(cfg.n_items):
        item: Item = (f"entity{index:03d}", cfg.predicate)
        items.append(item)
        world.truths[item] = {f"true-{index:03d}"}
        falses_of[item] = [
            f"false-{index:03d}-{f}" for f in range(cfg.false_pool)
        ]

    def emit(source: str, item: Item, value: str) -> None:
        world.claims.add(
            Claim(
                item=item,
                value=value,
                lexical=value,
                source_id=source,
                extractor_id=COPYING_EXTRACTOR,
                confidence=1.0,
            )
        )

    # Independent sources observe honestly (per accuracy).
    for source in independents:
        accuracy = world.source_accuracy[source]
        for item in items:
            if rng.random() > cfg.coverage:
                continue
            (truth,) = world.truths[item]
            value = (
                truth if rng.random() < accuracy
                else rng.choice(falses_of[item])
            )
            emit(source, item, value)

    # The victim's original observations — the corpus the copiers see.
    original: list[tuple[Item, str]] = []
    for item in items:
        if rng.random() > cfg.coverage:
            continue
        (truth,) = world.truths[item]
        value = (
            truth if rng.random() < cfg.victim_accuracy
            else rng.choice(falses_of[item])
        )
        original.append((item, value))

    # With lag, the victim corrects some errors *after* the copiers
    # took their copy; the victim publishes the corrected claims.
    published = list(original)
    if cfg.lag > 0:
        for position, (item, value) in enumerate(original):
            (truth,) = world.truths[item]
            if value != truth and rng.random() < cfg.correction_rate:
                published[position] = (item, truth)
    for item, value in published:
        emit(world.victim, item, value)

    # Copiers replicate the pre-correction corpus, errors included.
    for copier in copiers:
        for item, value in original:
            if rng.random() > cfg.copy_fraction:
                continue
            copied = value
            if rng.random() < cfg.mutation_rate:
                copied = rng.choice(falses_of[item])
            emit(copier, item, copied)
            (truth,) = world.truths[item]
            if copied == value and copied != truth:
                world.copied_errors.setdefault(item, set()).add(copied)

    if not len(world.claims):
        raise GenerationError(
            "copying world produced no claims; raise coverage or n_items"
        )
    return world
