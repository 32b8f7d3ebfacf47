"""Temporal-drift scenario generator: ground truth that moves.

The static claim worlds evaluate fusion against a truth frozen at
generation time; real corpora drift — facts change, entities appear
and disappear, attributes get renamed.  A :class:`DriftingWorld` makes
that drift a first-class, seeded object: epoch 0 fixes an initial
truth and a noisy base claim corpus, then every later epoch mutates
the truth (value changes, births, deaths, attribute renames) and emits
the corresponding source observations as one
:class:`~repro.incremental.delta.ClaimDelta` — retract the stale
claims, add fresh observations of the new truth.  Publishing the epoch
deltas to ``Pipeline.serve()``'s server runs the whole incremental +
serving stack against truth that moves, and
:mod:`repro.evalx.freshness` scores every served version against the
truth *of its own epoch* versus the *current* truth (freshness lag /
staleness — the uncertainty dimension the Jarnac survey calls out).

Everything is a pure function of :class:`DriftConfig`: the same seed
yields a byte-identical base corpus, delta stream and epoch-truth
sequence (pinned by ``tests/property/test_prop_drift.py``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.errors import GenerationError
from repro.incremental.delta import ClaimDelta
from repro.rdf.triple import Provenance, ScoredTriple, Triple, Value

__all__ = ["DriftConfig", "DriftEpoch", "DriftingWorld", "EpochTruth"]

Item = tuple[str, str]

#: Extractor id stamped on every drift observation.
DRIFT_EXTRACTOR = "drift"


@dataclass(slots=True)
class DriftConfig:
    """Parameters of a drifting world."""

    seed: int = 0
    # Entities alive at epoch 0.
    n_items: int = 40
    n_sources: int = 6
    # Mutation epochs after the base epoch (the delta stream length).
    epochs: int = 5
    # Chance a source observes an item each time it is (re)emitted.
    coverage: float = 0.85
    # Per-source accuracy; None spreads 0.6..0.95 over the sources.
    source_accuracies: list[float] | None = None
    # Per epoch: fraction of surviving items whose true value changes.
    value_change_rate: float = 0.25
    # Per epoch: new items, as a fraction of the initial population.
    birth_rate: float = 0.10
    # Per epoch: fraction of live items retired (never all of them).
    death_rate: float = 0.05
    # Per epoch: fraction of surviving items whose attribute is renamed.
    rename_rate: float = 0.05
    # Wrong values available per item.
    false_pool: int = 4
    # Base attribute name (renames derive ``attr~r<epoch>`` from it).
    predicate: str = "attr"

    def validate(self) -> None:
        if self.n_items < 1 or self.n_sources < 1:
            raise GenerationError("items and sources must be >= 1")
        if self.epochs < 1:
            raise GenerationError("epochs must be >= 1")
        if not 0 < self.coverage <= 1:
            raise GenerationError("coverage must lie in (0, 1]")
        for name in (
            "value_change_rate", "birth_rate", "death_rate", "rename_rate"
        ):
            rate = getattr(self, name)
            if not 0 <= rate <= 1:
                raise GenerationError(f"{name} must lie in [0, 1]")
        if self.false_pool < 1:
            raise GenerationError("false_pool must be >= 1")


@dataclass(frozen=True, slots=True)
class EpochTruth:
    """The ground truth at one epoch, plus what changed to reach it.

    ``truths`` maps every live item to its (single) true value at this
    epoch.  The event tuples record the epoch's mutations: ``born`` /
    ``died`` are subjects, ``renamed`` is ``(subject, old_predicate,
    new_predicate)`` and ``changed`` is ``(subject, old_value,
    new_value)``.  Epoch 0 has no events.
    """

    epoch: int
    truths: dict[Item, set[str]]
    born: tuple[str, ...] = ()
    died: tuple[str, ...] = ()
    renamed: tuple[tuple[str, str, str], ...] = ()
    changed: tuple[tuple[str, str, str], ...] = ()

    def to_json_dict(self) -> dict:
        return {
            "epoch": self.epoch,
            "items": len(self.truths),
            "truths": {
                f"{subject}|{predicate}": sorted(values)
                for (subject, predicate), values in sorted(
                    self.truths.items()
                )
            },
            "born": list(self.born),
            "died": list(self.died),
            "renamed": [list(event) for event in self.renamed],
            "changed": [list(event) for event in self.changed],
        }


@dataclass(frozen=True, slots=True)
class DriftEpoch:
    """One mutation epoch: the new truth and the delta that reports it."""

    truth: EpochTruth
    delta: ClaimDelta


@dataclass(slots=True)
class _ItemState:
    """One live entity: its current attribute, truth and live claims."""

    subject: str
    predicate: str
    index: int
    generation: int = 0
    claimed: list[Triple] = field(default_factory=list)

    @property
    def item(self) -> Item:
        return (self.subject, self.predicate)

    def truth(self) -> str:
        return f"val-{self.index:03d}-g{self.generation}"

    def falses(self, pool: int) -> list[str]:
        return [f"bad-{self.index:03d}-{f}" for f in range(pool)]


class DriftingWorld:
    """A seeded world whose truth mutates over epochs.

    Construction precomputes everything: ``base`` (the epoch-0 claim
    corpus), ``epochs`` (one :class:`DriftEpoch` per mutation epoch,
    in order) and the per-epoch truth snapshots reachable via
    :meth:`truth_at`.  Prime a store/engine on ``base``, then apply
    ``epochs[k].delta`` in order; after ``k`` applied deltas the
    engine's state corresponds to epoch ``k``'s truth.
    """

    def __init__(self, config: DriftConfig | None = None) -> None:
        self.config = config or DriftConfig()
        self.config.validate()
        cfg = self.config
        rng = random.Random(cfg.seed)

        accuracies = cfg.source_accuracies
        if accuracies is None:
            accuracies = [
                0.6 + 0.35 * index / max(1, cfg.n_sources - 1)
                for index in range(cfg.n_sources)
            ]
        self.sources = [
            f"source{index:02d}" for index in range(cfg.n_sources)
        ]
        self.source_accuracy = {
            source: accuracies[index % len(accuracies)]
            for index, source in enumerate(self.sources)
        }

        self._states: dict[str, _ItemState] = {}
        self._next_index = 0
        self.base: list[ScoredTriple] = []
        self.epochs: list[DriftEpoch] = []
        self._truths: list[dict[Item, set[str]]] = []

        for _ in range(cfg.n_items):
            state = self._spawn()
            self.base.extend(self._observe(state, rng))
        if not self.base:
            raise GenerationError(
                "drift base corpus is empty; raise coverage or n_items"
            )
        self._truths.append(self._snapshot())

        for epoch in range(1, cfg.epochs + 1):
            self.epochs.append(self._mutate(epoch, rng))
            self._truths.append(self._snapshot())

    # ------------------------------------------------------------------
    @property
    def current_epoch(self) -> int:
        """The newest epoch index (== number of deltas)."""
        return len(self.epochs)

    def truth_at(self, epoch: int) -> dict[Item, set[str]]:
        """The ground truth after ``epoch`` deltas (0 = base truth)."""
        return self._truths[epoch]

    def deltas(self) -> list[ClaimDelta]:
        return [drift_epoch.delta for drift_epoch in self.epochs]

    # ------------------------------------------------------------------
    def _spawn(self) -> _ItemState:
        index = self._next_index
        self._next_index += 1
        state = _ItemState(
            subject=f"entity{index:03d}",
            predicate=self.config.predicate,
            index=index,
        )
        self._states[state.subject] = state
        return state

    def _observe(
        self, state: _ItemState, rng: random.Random
    ) -> list[ScoredTriple]:
        """Every source's (noisy) claim about one item's current truth.

        Appends the claimed triples to the state's live-claim list so a
        later mutation can retract exactly what is in the store.
        """
        cfg = self.config
        truth = state.truth()
        falses = state.falses(cfg.false_pool)
        observed: list[ScoredTriple] = []
        fresh: set[Triple] = set(state.claimed)
        for source in self.sources:
            if rng.random() > cfg.coverage:
                continue
            value = (
                truth
                if rng.random() < self.source_accuracy[source]
                else rng.choice(falses)
            )
            triple = Triple(
                state.subject, state.predicate, Value.string(value)
            )
            observed.append(
                ScoredTriple(
                    triple, Provenance(source, DRIFT_EXTRACTOR), 1.0
                )
            )
            if triple not in fresh:
                fresh.add(triple)
                state.claimed.append(triple)
        return observed

    def _retract_all(self, state: _ItemState) -> list[Triple]:
        """Drop (and return) every live claimed triple of one item."""
        retracted = state.claimed
        state.claimed = []
        return retracted

    def _snapshot(self) -> dict[Item, set[str]]:
        return {
            state.item: {state.truth()}
            for state in self._states.values()
        }

    def _mutate(self, epoch: int, rng: random.Random) -> DriftEpoch:
        """One epoch of drift: sample events, emit the matching delta."""
        cfg = self.config
        alive = sorted(self._states)

        n_deaths = min(
            int(round(cfg.death_rate * len(alive))), len(alive) - 1
        )
        died = rng.sample(alive, n_deaths) if n_deaths > 0 else []
        survivors = [subject for subject in alive if subject not in set(died)]

        n_renames = int(round(cfg.rename_rate * len(survivors)))
        renamed = rng.sample(survivors, n_renames) if n_renames else []
        remaining = [
            subject for subject in survivors if subject not in set(renamed)
        ]

        n_changes = int(round(cfg.value_change_rate * len(remaining)))
        changed = rng.sample(remaining, n_changes) if n_changes else []

        n_births = int(round(cfg.birth_rate * cfg.n_items))

        retracted: list[Triple] = []
        added: list[ScoredTriple] = []
        rename_events: list[tuple[str, str, str]] = []
        change_events: list[tuple[str, str, str]] = []

        for subject in died:
            retracted.extend(self._retract_all(self._states.pop(subject)))

        for subject in renamed:
            state = self._states[subject]
            old_predicate = state.predicate
            retracted.extend(self._retract_all(state))
            state.predicate = f"{cfg.predicate}~r{epoch}"
            rename_events.append((subject, old_predicate, state.predicate))
            added.extend(self._observe(state, rng))

        for subject in changed:
            state = self._states[subject]
            old_value = state.truth()
            retracted.extend(self._retract_all(state))
            state.generation += 1
            change_events.append((subject, old_value, state.truth()))
            added.extend(self._observe(state, rng))

        born: list[str] = []
        for _ in range(n_births):
            state = self._spawn()
            born.append(state.subject)
            added.extend(self._observe(state, rng))

        if not any(state.claimed for state in self._states.values()):
            raise GenerationError(
                f"epoch {epoch} would leave the claim store empty; "
                "lower the mutation rates or raise coverage"
            )
        truth = EpochTruth(
            epoch=epoch,
            truths=self._snapshot(),
            born=tuple(born),
            died=tuple(died),
            renamed=tuple(rename_events),
            changed=tuple(change_events),
        )
        delta = ClaimDelta(
            added=added, retracted=retracted, label=f"epoch-{epoch}"
        )
        return DriftEpoch(truth=truth, delta=delta)
