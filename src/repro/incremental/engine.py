"""Dirty-component re-fusion over a journalled claim store.

Fusion couples an item to its sources and a source to its items, so a
delta that touches a handful of items can only change verdicts inside
the connected components of the claim graph it lands in (see
:mod:`repro.fusion.sharding`).  The :class:`IncrementalFusion` engine
exploits that, and keeps the work of a delta proportional to the
*region* it lands in rather than to the store:

1. the current claim corpus lives in a :class:`TripleStore`; each
   delta is journalled against a *copy* of it (retract, then add);
2. claims are read into a :class:`ClaimSet` (deduplicated, then in
   the set's canonical claim-key order), so the fused output is a
   function of store *content*, not of journal history.  The key
   starts with the data item, so the canonical order is the items in
   sorted order, each followed by its own claims: the committed state
   caches the canonical claims *per item* (one flat list plus
   per-item spans), and a delta re-reads only its dirty items from
   the staged store;
3. the canonical claim set is partitioned into connected components,
   each with its items and sources.  The prior components that hold a
   dirty item or a dirty source form the delta's region: only the
   region is re-weighted, re-sharded and (where its claims moved)
   re-fused; every other component's entry is carried over untouched.
   The region's claims are slices of the cached corpus (all of it,
   when the region holds every component), and they stay grouped by
   item from there to the kernel: the reweighted list, a shard of it
   and its hierarchy expansion are each adopted by a :class:`ClaimSet`
   as they stand, a kernel's compile walks the item spans — no stage
   hashes a claim into a set of its own.  A component is reused iff a
   prior entry has its sources, items and reweighted claims; under
   unchanged extractor weights only a re-read item's run can differ,
   so only those runs are compared (a prime compares nothing);
4. the merged result is patched, not re-merged: the committed state
   keeps its own copies of the merged belief and source-quality maps,
   and a delta copies them, drops the keys of the region's prior
   entries and adds those of its fresh ones; the functional constraint
   runs on the fresh entries' items alone, and the truth sets it
   rebinds are kept as a small item → truths overlay.  ``truths`` is
   rebuilt with one ``dict.update`` per entry and the overlay laid
   over it, so it iterates in the same order as a cold prime's.  When
   the region is every component the maps are merged from the fresh
   entries alone;
5. the read index the serving layer reads (the top-k ranking and the
   per-predicate subject lists, :mod:`repro.fusion.readindex`) is
   patched the same way: built cold at the prime, after a weight shift
   and when the region is every component, otherwise copied and
   re-derived for the subjects the region holds before or after the
   delta.  Such a subject's score is re-summed over all its items in
   ``truths`` order (:func:`_touched` reads that order off the
   entries: entry order, then each entry's result order), so it adds
   as a cold build adds; every other subject's items lie in carried
   components, whose order and verdicts the delta kept;
6. the merged result, its read index and the new component cache are
   committed as a single state-object swap, so a crash anywhere before
   the commit leaves the engine fully pre-delta (the torn-state chaos
   contract).

Two estimation details make the reuse exact rather than approximate:

* extractor-correlation weights are global (extractors span
  components), so they are re-estimated per delta.  With fewer than
  two extractors they are the estimator's own early exit, read off the
  corpus's per-extractor claim count (its census, which a delta moves
  by the runs it swaps); with two or more the estimator reads every
  cached claim.  Weights equal to the committed ones leave
  every component outside the region bit-for-bit as it was; a shifted
  weight can change any item's reweighted claims: every run is compared
  and the delta degenerates to a full recompute where they moved, the
  correct price for a global parameter shift;
* source-correlation weights are component-local by construction
  (sources in different components share no items, and the estimator
  ignores pairs without common items), so a component is fused on its
  own, as in every fuse.

The engine is the fuse plus a component cache: one dispatch, one
merge.  It runs the steps that define a fuse
(:mod:`repro.fusion.knowledge_fusion`) through the fusion object's
public methods — ``extractor_weights``, ``reweighted``,
``fuse_component`` and ``functional_rebinds`` — sends the components
its cache misses through the fuse's dispatch,
:func:`~repro.fusion.sharding.fuse_sharded` (one MapReduce job, with
the fusion's retry policy, fault plan and metrics; none when nothing
misses), and merges with the fuse's merge,
:func:`~repro.fusion.sharding.patch_results`.

Per delta, the journal (a ``remove`` per retracted triple, an ``add``
per claim) and the dirty-item re-read (a ``claims_for_item`` per dirty
item) are O(delta) on both backends, each item or triple read off an
index; the staged store copy shares the memory backend's index leaves
(and the segment backend's memtable, which is one) copy-on-write and
costs the paths the journal writes; comparing the re-read runs and
the census are O(delta); re-weighting, sharding, fusion, the
functional constraint, the belief / source-quality patch and the
read-index patch are O(region) — the latter a ``bisect`` per touched
subject in the corpus and per touched ranking or subject-list entry,
plus a walk of the carried entries' sources when a touched subject has
items outside the region.  What stays O(store) is copying at C speed:
the successor corpus (:meth:`_Corpus.replaced`, slice copies of the
cached claims, items and counts around the re-read items), the two
copies of each merged map (the engine's and the served result's), the
``truths`` rebuild, one ``dict.update`` per component, and the read
index's score dict, its ranking and each touched predicate's subject
list (pointer copies, as are its ``bisect`` moves).  So are the
extractor estimate with two or more extractors, which reads every
claim, and after a weight shift the comparison of every run.
Putting the entries back in first-item order, and the merge's round
counts, are O(components).

None of this builds a long-lived container per item or per claim —
each is walked by every later full collector pass, and enough of them
per delta put such a pass inside every delta (CPython starts one when
the containers promoted since the last exceed a quarter of the
long-lived heap, and it costs ≈ 0.45 µs per tracked container, so a
promoted container is paid for about four times over, ≈ 2 µs, whatever
the heap size): claim groups are flat tables (:class:`~repro.fusion.base.ClaimSet`, :class:`_Corpus`), and
the component cache and the merged result share one ``frozenset`` of
truths per item (:func:`~repro.fusion.sharding.patch_results`).

Byte-identity contract: ``apply_delta(delta)`` and a full
``fuse(canonical_claims(store))`` over the post-delta store produce
results whose :meth:`~repro.fusion.base.FusionResult.canonical_bytes`
agree exactly — both fuse component by component, so a component's
early exit is the same in either.
"""

from __future__ import annotations

import time
from bisect import bisect_left
from collections import Counter
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from functools import partial
from itertools import accumulate, chain
from math import copysign
from operator import attrgetter

from repro.errors import DeltaError
from repro.faults import fire
from repro.fusion.base import Claim, ClaimSet, FusionResult, Item
from repro.fusion.readindex import ReadIndex, patched
from repro.fusion.sharding import (
    MergedMaps,
    fuse_sharded,
    patch_results,
    shard_claims,
)
from repro.incremental.delta import ClaimDelta
from repro.incremental.journal import DeltaJournal, DeltaReceipt
from repro.rdf.store import TripleStore

__all__ = [
    "ComponentEntry",
    "DeltaOutcome",
    "IncrementalFusion",
    "canonical_claims",
]


def canonical_claims(store: TripleStore) -> ClaimSet:
    """The store's claims as a :class:`ClaimSet`, in its canonical
    order: two stores that hold the same claims — whatever add/remove
    history produced them — yield byte-identical fusion."""
    return ClaimSet.from_scored_triples(store.claims())


#: Raised when a delta leaves nothing to fuse (and on an empty prime).
_EMPTY_STORE = (
    "claim store is empty; refusing to fuse nothing "
    "(did the delta retract every claim?)"
)

_extractor_of = attrgetter("extractor_id")


class _Corpus:
    """Every canonical, deduplicated claim of a store, item by item.

    ``claims`` is the global canonical order (pre-reweight): ``items``
    is sorted, and item ``i`` owns the ``counts[i]`` claims from
    ``starts[i]`` on.  ``census`` counts the claims of each extractor
    (none at zero).  Flat lists rather than a container
    per item: a store has about as many items as claims, and the
    collector walks every container a long-lived state holds.
    Never mutated once built; :meth:`replaced` derives the successor.
    """

    __slots__ = ("claims", "items", "counts", "starts", "census")

    def __init__(
        self,
        claims: list[Claim],
        items: list[Item],
        counts: list[int],
        census: Counter[str],
    ) -> None:
        self.claims = claims
        self.items = items
        self.counts = counts
        self.starts = list(accumulate(counts, initial=0))
        self.census = census

    @classmethod
    def of(cls, claims: ClaimSet) -> "_Corpus":
        """Index a canonically ordered claim set."""
        items, ordered, starts = claims.spans()
        counts = [end - begin for begin, end in zip(starts, starts[1:])]
        census = Counter(map(_extractor_of, ordered))
        return cls(list(ordered), items, counts, census)

    def claims_of(self, item: Item) -> list[Claim]:
        at = bisect_left(self.items, item)
        if at == len(self.items) or self.items[at] != item:
            return []
        return self.claims[self.starts[at]:self.starts[at + 1]]

    def replaced(self, fresh: dict[Item, list[Claim]]) -> "_Corpus":
        """A corpus where each item of ``fresh`` holds exactly those
        claims (none: the item is gone); every other item is kept.

        One merge pass: the runs between the sorted dirty items are
        copied over as slices — O(store) in list copying, whatever the
        size of the delta.  The census moves by the runs swapped.
        """
        claims: list[Claim] = []
        items: list[Item] = []
        counts: list[int] = []
        # Counted claim by claim at C speed; subtracted extractor by
        # extractor at the end.
        census, gone = self.census.copy(), Counter()
        old_items, starts = self.items, self.starts
        done = 0  # items of this corpus already carried or replaced
        for item in sorted(fresh):
            at = bisect_left(old_items, item, done)
            claims += self.claims[starts[done]:starts[at]]
            items += old_items[done:at]
            counts += self.counts[done:at]
            new = fresh[item]
            if new:
                claims += new
                items.append(item)
                counts.append(len(new))
                census.update(map(_extractor_of, new))
            held = at < len(old_items) and old_items[at] == item
            if held:
                gone.update(
                    map(_extractor_of, self.claims[starts[at]:starts[at + 1]])
                )
            done = at + held
        claims += self.claims[starts[done]:]
        items += old_items[done:]
        counts += self.counts[done:]
        census.subtract(gone)
        return _Corpus(claims, items, counts, +census)

    def spans(self, wanted: Iterable[Item]) -> list[tuple[int, int]]:
        """The items of ``wanted`` (sorted) this corpus holds, as
        maximal ``[lo, hi)`` runs of item indexes: one ``bisect`` where
        a run begins, a comparison per item inside it."""
        items = self.items
        spans: list[tuple[int, int]] = []
        lo = hi = 0
        for item in wanted:
            if hi < len(items) and items[hi] == item:
                hi += 1
                continue
            at = bisect_left(items, item, hi)
            if at < len(items) and items[at] == item:
                if hi > lo:
                    spans.append((lo, hi))
                lo, hi = at, at + 1
        if hi > lo:
            spans.append((lo, hi))
        return spans

    def claims_in(self, spans: list[tuple[int, int]]) -> Iterator[Claim]:
        """The claims of the items in ``spans``, in canonical order."""
        starts = self.starts
        return chain.from_iterable(
            self.claims[starts[lo]:starts[hi]] for lo, hi in spans
        )


def _same_claims(now: ClaimSet, before: ClaimSet) -> bool:
    """Whether two claim lists agree claim by claim in all six fields,
    a confidence as its ``repr`` reads: ``-0.0`` is not ``0.0``, nor
    ``1`` ``1.0``."""
    return len(now) == len(before) and all(
        new is old
        or new == old
        and type(new.confidence) is type(old.confidence)
        and copysign(1.0, new.confidence) == copysign(1.0, old.confidence)
        for new, old in zip(now, before)
    )


def _first_item(entry: ComponentEntry) -> Item:
    """Where an entry's component first appears in the canonical
    order: the key entries are kept in."""
    return entry.items[0]


def _touched(
    corpus: _Corpus,
    entries: list[ComponentEntry],
    region: list[ComponentEntry],
    fresh: list[ComponentEntry],
) -> list[Item]:
    """What a delta's read-index patch re-derives: every item of each
    subject the region holds, before or after the delta, in the merged
    ``truths`` order — entry order, then each entry's result order —
    then the region's items the delta emptied.

    Such a subject's other items lie in carried entries, found by the
    source of each item's first claim, so the entries walked are the
    fresh ones and the carried ones holding a touched subject.
    """
    fresh_items = {item for entry in fresh for item in entry.items}
    emptied = [
        item
        for entry in region
        for item in entry.items
        if item not in fresh_items
    ]
    subjects = {item[0] for item in chain(fresh_items, emptied)}
    items, starts, claims = corpus.items, corpus.starts, corpus.claims
    sources = set()
    for subject in subjects:
        at = bisect_left(items, (subject,))
        while at < len(items) and items[at][0] == subject:
            if items[at] not in fresh_items:
                sources.add(claims[starts[at]].source_id)
            at += 1
    holders = {id(entry): entry for entry in fresh}
    if sources:
        for entry in entries:
            if not sources.isdisjoint(entry.sources):
                holders.setdefault(id(entry), entry)
    return [
        item
        for entry in sorted(holders.values(), key=_first_item)
        for item in entry.result.truths
        if item[0] in subjects
    ] + emptied


@dataclass(slots=True)
class ComponentEntry:
    """Cached fusion of one connected component.

    A delta reads a carried entry's sources, items and truths,
    never its belief or source-quality map: those reach the merged
    result only when the entry is fresh, and leave it only when the
    entry is in a later delta's region."""

    sources: frozenset[str]
    # The component's own fused sub-result, *before* the functional
    # constraint, which is applied on the merged result.
    result: FusionResult
    # The component's data items, sorted; ``items[0]`` is where the
    # component first appears in the global canonical order.
    items: tuple[Item, ...]


@dataclass(slots=True)
class _FusionState:
    """Everything one committed engine state consists of.

    ``apply_delta`` builds a complete replacement state off to the
    side and installs it with a single attribute rebind — the commit
    point of the no-torn-state contract.  Nothing reachable from a
    committed state is mutated afterwards; successor states share its
    claims and carried-over entries, and patch copies of its
    ``merged`` maps.
    """

    store: TripleStore
    corpus: _Corpus
    extractor_weights: dict[str, float]
    # Ordered by first canonical item, as ``shard_claims`` numbers them.
    entries: list[ComponentEntry]
    result: FusionResult
    # The engine's own copies of ``result``'s maps, which the next
    # delta's merge patches (``result`` is the caller's to change).
    merged: MergedMaps
    # ``result``'s ranking and predicate index, patched per delta.
    read_index: ReadIndex
    sequence: int = 0


@dataclass(slots=True)
class DeltaOutcome:
    """Accounting of one applied delta."""

    sequence: int
    receipt: DeltaReceipt
    result: FusionResult
    components: int
    dirty_components: int
    reused_components: int
    # Items whose cached verdicts were carried over unfused.
    reused_verdicts: int
    # Claims inside the re-fused (dirty) components.
    refused_claims: int
    # True when every component was re-fused — the delta degenerated
    # to a full re-fusion (e.g. a global extractor-weight shift).
    degenerate: bool
    wall_seconds: float = 0.0


@dataclass(slots=True)
class _ComputeStats:
    dirty_components: int = 0
    reused_components: int = 0
    reused_verdicts: int = 0
    refused_claims: int = 0


class IncrementalFusion:
    """Cached per-component fusion state plus the delta-apply loop.

    Built via :meth:`KnowledgeFusion.begin_incremental`, with that
    object's metrics, fault plan and functionality oracle, all three
    fixed at construction.
    """

    def __init__(self, fusion, store: TripleStore) -> None:
        self.fusion = fusion
        self.functional_of = fusion.functional_of
        self.metrics = fusion.metrics
        self.fault_plan = fusion.fault_plan
        self._initial_store = store
        self._state: _FusionState | None = None

    # -- public state ---------------------------------------------------
    @property
    def store(self) -> TripleStore:
        return (
            self._state.store
            if self._state is not None
            else self._initial_store
        )

    @property
    def claims(self) -> ClaimSet:
        """The canonical claim set of the committed store (built here)."""
        self._require_primed()
        return ClaimSet(self._state.corpus.claims)

    @property
    def result(self) -> FusionResult:
        self._require_primed()
        return self._state.result

    @property
    def read_index(self) -> ReadIndex:
        """The read index of :attr:`result`; a later delta patches a
        copy of it."""
        self._require_primed()
        return self._state.read_index

    @property
    def sequence(self) -> int:
        return self._state.sequence if self._state is not None else -1

    @property
    def components(self) -> int:
        self._require_primed()
        return len(self._state.entries)

    def _require_primed(self) -> None:
        if self._state is None:
            raise DeltaError("incremental engine not primed yet")

    # -- lifecycle ------------------------------------------------------
    def prime(self) -> FusionResult:
        """Fuse the initial store in full, caching every component."""
        store = self._initial_store
        claims = canonical_claims(store)
        if len(claims) == 0:
            raise DeltaError(_EMPTY_STORE)
        corpus = _Corpus.of(claims)
        weights = self._extractor_weights(corpus)
        entries = self._fuse_shards(
            corpus, [(0, len(corpus.items))], weights, [], _ComputeStats()
        )
        result, merged, read_index = self._merge(entries, corpus)
        self._state = _FusionState(
            store=store,
            corpus=corpus,
            extractor_weights=weights,
            entries=entries,
            result=result,
            merged=merged,
            read_index=read_index,
        )
        self._count("incremental_primes_total")
        self._gauge("incremental_components", len(entries))
        return self._state.result

    def apply_delta(self, delta: ClaimDelta) -> DeltaOutcome:
        """Journal one delta and re-fuse only its dirty components.

        All mutation is staged against copies; the engine's visible
        state changes in a single commit at the end, so a crash (or an
        injected fault) mid-apply leaves the store *and* the cached
        result exactly pre-delta.  Fault scopes, in order:
        ``stage:incremental-journal`` (before any staging),
        ``stage:incremental-fusion`` (after journalling, before
        re-fusion), ``stage:incremental-commit`` (after the commit —
        a crash there leaves fully post-delta state).
        """
        self._require_primed()
        started = time.perf_counter()
        injected = fire(self.fault_plan, "stage:incremental-journal")

        staged = self._state.store.copy()
        receipt = DeltaJournal(staged).apply(delta)
        receipt.sequence = self._state.sequence + 1

        injected += fire(self.fault_plan, "stage:incremental-fusion")
        state, stats = self._advance(staged, receipt)

        # -- commit: one attribute rebind -------------------------------
        self._state = state

        wall = time.perf_counter() - started + injected
        components = len(state.entries)
        outcome = DeltaOutcome(
            sequence=state.sequence,
            receipt=receipt,
            result=state.result,
            components=components,
            dirty_components=stats.dirty_components,
            reused_components=stats.reused_components,
            reused_verdicts=stats.reused_verdicts,
            refused_claims=stats.refused_claims,
            degenerate=stats.dirty_components == components,
            wall_seconds=wall,
        )
        self._publish(outcome)
        fire(self.fault_plan, "stage:incremental-commit")
        return outcome

    # -- internals ------------------------------------------------------
    def _advance(
        self, staged: TripleStore, receipt: DeltaReceipt
    ) -> tuple[_FusionState, _ComputeStats]:
        """The successor of the committed state over ``staged``.

        Re-reads the receipt's dirty items, re-estimates the global
        extractor weights, then re-fuses the delta's region and patches
        the merged result by it — or re-fuses and merges everything,
        when the weights moved.
        """
        prior = self._state
        corpus = prior.corpus.replaced(
            {
                item: list(
                    ClaimSet.from_scored_triples(
                        staged.claims_for_item(*item)
                    )
                )
                for item in receipt.dirty_items
            }
        )
        if not corpus.claims:
            raise DeltaError(_EMPTY_STORE)

        weights = self._extractor_weights(corpus)
        stats = _ComputeStats()
        shifted = weights != prior.extractor_weights
        if shifted:
            entries = self._fuse_shards(
                corpus, [(0, len(corpus.items))], weights, prior.entries,
                stats,
            )
            result, merged, read_index = self._merge(entries, corpus)
        else:
            entries, region, fresh = self._refuse_region(
                receipt, corpus, weights, stats
            )
            result, merged, read_index = self._merge(
                entries, corpus, region, fresh
            )
        return (
            _FusionState(
                store=staged,
                corpus=corpus,
                extractor_weights=weights,
                entries=entries,
                result=result,
                merged=merged,
                read_index=read_index,
                sequence=prior.sequence + 1,
            ),
            stats,
        )

    def _extractor_weights(self, corpus: _Corpus) -> dict[str, float]:
        """The fusion's extractor weights over ``corpus``.  Below two
        extractors they are the estimator's own early exit, read off
        the census: no claim is walked."""
        if len(corpus.census) < 2 and self.fusion.use_extractor_correlations:
            return dict.fromkeys(sorted(corpus.census), 1.0)
        return self.fusion.extractor_weights(corpus.claims)

    def _merge(
        self,
        entries: list[ComponentEntry],
        corpus: _Corpus,
        region: list[ComponentEntry] | None = None,
        fresh: list[ComponentEntry] = (),
    ) -> tuple[FusionResult, MergedMaps, ReadIndex]:
        """The merged, constrained result over ``entries`` and its read
        index: patched from the committed state's maps and index by a
        delta's ``region`` (the prior entries it replaced) and its
        ``fresh`` entries, or built whole without a region or when it
        is every prior entry."""
        fusion = self.fusion
        constrain = partial(
            fusion.functional_rebinds, functional_of=self.functional_of
        )
        results = [entry.result for entry in entries]
        if region is None or len(region) == len(self._state.entries):
            result, merged = patch_results(
                fusion.name, results, constrain=constrain
            )
            return result, merged, patched(None, result)
        result, merged = patch_results(
            fusion.name,
            results,
            constrain=constrain,
            prior=self._state.merged,
            dropped=[entry.result for entry in region],
            fresh=[entry.result for entry in fresh],
        )
        return result, merged, patched(
            self._state.read_index,
            result,
            _touched(corpus, entries, region, fresh),
        )

    def _refuse_region(
        self,
        receipt: DeltaReceipt,
        corpus: _Corpus,
        weights: dict[str, float],
        stats: _ComputeStats,
    ) -> tuple[
        list[ComponentEntry], list[ComponentEntry], list[ComponentEntry]
    ]:
        """Re-fuse the components a delta can have changed, carrying
        every other entry of the committed state over untouched: every
        entry, the region's prior entries and its fresh ones.

        A prior component is in the region iff it holds a dirty source
        or a source that claimed a dirty item before: every changed
        claim joins a dirty item to a dirty source, so no component
        outside the region lost, gained or merged anything.
        """
        prior = self._state
        touched = set(receipt.dirty_sources)
        new_items: list[Item] = []
        for item in receipt.dirty_items:
            before = prior.corpus.claims_of(item)
            if before:
                touched.add(before[0].source_id)
            else:
                new_items.append(item)
        carried: list[ComponentEntry] = []
        region: list[ComponentEntry] = []
        for entry in prior.entries:
            if touched.isdisjoint(entry.sources):
                carried.append(entry)
            else:
                region.append(entry)
        stats.reused_components = len(carried)
        stats.reused_verdicts = sum(
            len(entry.result.truths) for entry in carried
        )
        # The region's items — its entries' (each tuple sorted) and
        # those new to the store — as slices of the corpus: all of it,
        # in one, when the region holds every entry.
        spans = corpus.spans(
            sorted(chain(new_items, *(entry.items for entry in region)))
        )
        fresh = self._fuse_shards(
            corpus, spans, weights, region, stats, receipt.dirty_items
        )
        entries = sorted(carried + fresh, key=_first_item)
        return entries, region, fresh

    def _fuse_shards(
        self,
        corpus: _Corpus,
        spans: list[tuple[int, int]],
        weights: dict[str, float],
        prior: list[ComponentEntry],
        stats: _ComputeStats,
        dirty: set[Item] | None = None,
    ) -> list[ComponentEntry]:
        """One entry per component of the corpus items in ``spans``
        (``[lo, hi)`` index runs): cached or re-fused.

        A component is clean iff a ``prior`` entry has its sources, its
        items and its reweighted claims (:meth:`_holds` compares the runs
        of its ``dirty`` items, all of them without ``dirty`` as after a
        weight shift); that entry is reused verbatim.  The others are
        fused by one :func:`~repro.fusion.sharding.fuse_sharded` job,
        none when every component is clean.
        """
        fusion = self.fusion
        working = fusion.reweighted(corpus.claims_in(spans), weights)
        cache = {entry.sources: entry for entry in prior}
        entries: list[ComponentEntry] = []
        # The entries the cache misses, and their shards: one job fills
        # in their results once every one is known.
        missed: list[ComponentEntry] = []
        shards: list[ClaimSet] = []
        for shard in shard_claims(working):
            sources = frozenset(shard.sources())
            items = tuple(shard.items())
            entry = cache.get(sources)
            if (
                entry is not None
                and entry.items == items
                and self._holds(shard, items, corpus, weights, dirty)
            ):
                stats.reused_components += 1
                stats.reused_verdicts += len(entry.result.truths)
            else:
                entry = ComponentEntry(sources, None, items)
                missed.append(entry)
                shards.append(shard)
                stats.dirty_components += 1
                stats.refused_claims += len(shard)
            entries.append(entry)
        if missed:
            results, _shard_stats = fuse_sharded(
                fusion.fuse_component,
                shards,
                retry=fusion.retry,
                fault_plan=self.fault_plan,
                metrics=self.metrics,
            )
            for entry, result in zip(missed, results):
                entry.result = result
        return entries

    def _holds(
        self, shard: ClaimSet, items: tuple[Item, ...], corpus: _Corpus,
        weights: dict[str, float], dirty: set[Item] | None,
    ) -> bool:
        """Whether ``shard`` (over ``items``, which a committed entry
        has) has that entry's claims too: the committed claims of those
        items, reweighted by the committed weights."""
        prior, reweighted = self._state, self.fusion.reweighted
        if dirty is None:
            compared, now = items, shard
        else:
            compared = [item for item in items if item in dirty]
            now = reweighted(corpus.claims_in(corpus.spans(compared)), weights)
        before = reweighted(
            prior.corpus.claims_in(prior.corpus.spans(compared)),
            prior.extractor_weights,
        )
        return not compared or _same_claims(now, before)

    # -- plumbing -------------------------------------------------------
    def _count(self, name: str, amount: int = 1) -> None:
        if self.metrics is not None and amount:
            self.metrics.counter(name).inc(amount)

    def _gauge(self, name: str, value: float) -> None:
        if self.metrics is not None:
            self.metrics.gauge(name).set(value)

    def _publish(self, outcome: DeltaOutcome) -> None:
        self._count("incremental_deltas_total")
        self._count(
            "incremental_dirty_components", outcome.dirty_components
        )
        self._count("incremental_reused_verdicts", outcome.reused_verdicts)
        self._count("incremental_claims_added_total", outcome.receipt.added)
        self._count(
            "incremental_claims_removed_total",
            outcome.receipt.removed_claims,
        )
        if outcome.degenerate:
            self._count("incremental_degenerate_total")
        self._gauge("incremental_components", outcome.components)
        if self.metrics is not None:
            self.metrics.histogram("incremental_delta_seconds").observe(
                outcome.wall_seconds
            )
