"""Dirty-component re-fusion over a journalled claim store.

Fusion couples an item to its sources and a source to its items, so a
delta that touches a handful of items can only change verdicts inside
the connected components of the claim graph it lands in (see
:mod:`repro.fusion.sharding`).  The :class:`IncrementalFusion` engine
exploits that, and keeps the work of a delta proportional to the
*region* it lands in rather than to the store:

1. the current claim corpus lives in a :class:`TripleStore`; each
   delta is journalled against a *copy* of it (retract, then add);
2. claims are canonicalized (sorted on a total key, then deduplicated
   through :meth:`ClaimSet.from_scored_triples`), so the fused output
   is a function of store *content*, not of journal history.  The
   sort key starts with the data item, so the canonical order is the
   items in sorted order, each followed by its own claims: the
   committed state caches the canonical claims *per item* (one flat
   list plus per-item spans), and a delta re-reads only its dirty
   items from the staged store;
3. the canonical claim set is partitioned into connected components;
   each component carries its items, its sources and a content
   digest.  The prior components that hold a dirty item or a dirty
   source form the delta's region: only the region is re-weighted,
   re-sharded and (where a digest moved) re-fused; every other
   component's entry is carried over untouched.  The region's claims
   are slices of the cached corpus (all of it, when the region holds
   every component), and they stay grouped by item from there to the
   kernel: the reweighted list, a shard of it and its hierarchy
   expansion are each adopted by a :class:`ClaimSet` as they stand,
   ``compile_claims`` walks the item runs — no stage hashes a claim
   into a set of its own.  A component's digest is the hash of its
   items' digests in item order; the corpus keeps one digest per item
   (of its *reweighted* claims), so under unchanged extractor weights
   a delta digests its re-read items and nothing else;
4. the merged result plus the new component cache are committed as a
   single state-object swap, so a crash anywhere before the commit
   leaves the engine fully pre-delta (the torn-state chaos contract).

Two estimation details make the reuse exact rather than approximate:

* extractor-correlation weights are global (extractors span
  components), so they are re-estimated per delta — one pass over the
  cached claims in global canonical order (the estimator's float sums
  follow set-insertion order, so the order is part of the
  byte-identity contract).  Weights equal to the committed ones leave
  every component outside the region bit-for-bit as it was; a shifted
  weight can change any item's digest: every item is digested again
  and the delta degenerates to a full recompute, which is the correct
  price for a global parameter shift (a configured
  ``functional_refresh`` re-derives its oracle from all claims and
  takes the same path, with the digests it has);
* source-correlation weights are component-local by construction
  (sources in different components share no items, and the estimator
  ignores pairs without common items), so the engine estimates them
  per component inside :meth:`_fuse_component` and still matches the
  global estimate bit for bit.

Per delta, the journal (one ``remove_all`` call, an ``add`` per claim)
and the dirty-item re-read (one ``claims_for_items`` call) are O(delta)
on the segment backend and one walk of the claim dict each on the
memory backend, which has no per-item index; the staged store copy
shares the memory backend's index leaves copy-on-write and costs the
paths the journal writes; re-weighting / sharding / fusion are
O(region) and digesting O(delta), and three passes stay O(store) with
small constants: the successor corpus (:meth:`_Corpus.replaced`, a
slice-copying merge of the cached claims, items, counts and digests
with the re-read items), the extractor estimate — one read of the
claims and nothing else when they name a single extractor, the vote
table of every claim otherwise — and the disjoint-union
:meth:`_merge`.  Putting the entries back in first-item order is a
sort of O(components) nearly sorted keys.

None of this builds a long-lived container per item or per claim —
each is walked by every later full collector pass, and enough of them
per delta put such a pass inside every delta (CPython starts one when
the containers promoted since the last exceed a quarter of the
long-lived heap, and it costs ≈ 0.45 µs per tracked container, so a
promoted container is paid for about four times over, ≈ 2 µs, whatever
the heap size): claim groups are flat tables (:class:`~repro.fusion.base.ClaimSet`, :class:`_Corpus`), and
the component cache and the merged result share one ``frozenset`` of
truths per item (:func:`~repro.fusion.sharding.merge_results`).

Byte-identity contract: with ``KnowledgeFusion(tolerance=0)``,
``apply_delta(delta)`` and a full ``fuse(canonical_claims(store))``
over the post-delta store produce results whose
:meth:`~repro.fusion.base.FusionResult.canonical_bytes` agree exactly.
At a nonzero tolerance, per-component early exit keeps engine-to-engine
determinism but may differ from a *global* fuse by up to the tolerance
(the standard sharding caveat).
"""

from __future__ import annotations

import hashlib
import time
from bisect import bisect_left
from collections import deque
from collections.abc import Iterable
from dataclasses import dataclass
from itertools import accumulate, chain

from repro.errors import DeltaError
from repro.fusion.base import Claim, ClaimSet, FusionResult, Item
from repro.fusion.sharding import merge_results, shard_claims
from repro.incremental.delta import ClaimDelta
from repro.incremental.journal import (
    RECEIPT_TAIL,
    DeltaJournal,
    DeltaReceipt,
)
from repro.rdf.store import TripleStore
from repro.rdf.triple import ScoredTriple

__all__ = [
    "ComponentEntry",
    "DeltaOutcome",
    "IncrementalFusion",
    "canonical_claims",
]


def _scored_sort_key(scored: ScoredTriple):
    triple = scored.triple
    provenance = scored.provenance
    return (
        triple.subject,
        triple.predicate,
        triple.obj.kind.value,
        triple.obj.lexical,
        provenance.source_id,
        provenance.extractor_id,
        provenance.locator,
        scored.confidence,
    )


def canonical_claims(store: TripleStore) -> ClaimSet:
    """The store's claims as a canonically-ordered :class:`ClaimSet`.

    Sorting on a total key before building the claim set makes the
    fused output a pure function of store *content*: two stores that
    hold the same claims — regardless of the add/remove history that
    produced them — yield byte-identical claim sets, hence
    byte-identical fusion (float accumulation order included).
    """
    return _canonicalize(store.claims())


def _canonicalize(scored: Iterable[ScoredTriple]) -> ClaimSet:
    return ClaimSet.from_scored_triples(
        sorted(scored, key=_scored_sort_key)
    )


#: Raised when a delta leaves nothing to fuse (and on an empty prime).
_EMPTY_STORE = (
    "claim store is empty; refusing to fuse nothing "
    "(did the delta retract every claim?)"
)


class _Corpus:
    """Every canonical, deduplicated claim of a store, item by item.

    ``claims`` is the global canonical order (pre-reweight): ``items``
    is sorted, and item ``i`` owns the ``counts[i]`` claims from
    ``starts[i]`` on; ``digests[i]`` is :func:`_item_digest` of its
    *reweighted* run, ``None`` until :meth:`IncrementalFusion.
    _fuse_shards` has seen that run (it fills them in before the state
    holding the corpus is committed).  Flat lists rather than a
    container per item: a store has about as many items as claims, and
    the collector walks every container a long-lived state holds.
    Otherwise never mutated once built; :meth:`replaced` derives the
    successor.
    """

    __slots__ = ("claims", "items", "counts", "starts", "digests")

    def __init__(
        self,
        claims: list[Claim],
        items: list[Item],
        counts: list[int],
        digests: list[bytes | None],
    ) -> None:
        self.claims = claims
        self.items = items
        self.counts = counts
        self.starts = list(accumulate(counts, initial=0))
        self.digests = digests

    @classmethod
    def of(cls, claims: ClaimSet) -> "_Corpus":
        """Index a canonically ordered claim set."""
        items = claims.items()
        counts = [len(run) for _item, run in claims.runs()]
        return cls(list(claims), items, counts, [None] * len(items))

    def claims_of(self, item: Item) -> list[Claim]:
        at = bisect_left(self.items, item)
        if at == len(self.items) or self.items[at] != item:
            return []
        return self.claims[self.starts[at]:self.starts[at + 1]]

    def replaced(self, fresh: dict[Item, list[Claim]]) -> "_Corpus":
        """A corpus where each item of ``fresh`` holds exactly those
        claims (none: the item is gone) and no digest yet; every other
        item is kept, digest included.

        One merge pass: the runs between the sorted dirty items are
        copied over as slices — O(store) in list copying, whatever the
        size of the delta.
        """
        claims: list[Claim] = []
        items: list[Item] = []
        counts: list[int] = []
        digests: list[bytes | None] = []
        old_items, starts = self.items, self.starts
        done = 0  # items of this corpus already carried or replaced
        for item in sorted(fresh):
            at = bisect_left(old_items, item, done)
            claims += self.claims[starts[done]:starts[at]]
            items += old_items[done:at]
            counts += self.counts[done:at]
            digests += self.digests[done:at]
            new = fresh[item]
            if new:
                claims += new
                items.append(item)
                counts.append(len(new))
                digests.append(None)
            held = at < len(old_items) and old_items[at] == item
            done = at + held
        claims += self.claims[starts[done]:]
        items += old_items[done:]
        counts += self.counts[done:]
        digests += self.digests[done:]
        return _Corpus(claims, items, counts, digests)

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


def _item_digest(run: list[Claim]) -> bytes:
    """Content digest of one item's (reweighted) claims: 16 bytes,
    since a corpus keeps one per item."""
    signature = sorted(
        (
            claim.item,
            claim.value,
            claim.lexical,
            claim.source_id,
            claim.extractor_id,
            claim.confidence,
        )
        for claim in run
    )
    return hashlib.blake2b(repr(signature).encode(), digest_size=16).digest()


@dataclass(slots=True)
class ComponentEntry:
    """Cached fusion of one connected component."""

    sources: frozenset[str]
    content_hash: str
    n_claims: int
    # The component's own fused sub-result, *before* the functional
    # constraint (which is applied on the merged result so a changed
    # functionality oracle never invalidates the cache).
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
    claims and carried-over entries.
    """

    store: TripleStore
    corpus: _Corpus
    extractor_weights: dict[str, float]
    # Ordered by first canonical item, as ``shard_claims`` numbers them.
    entries: list[ComponentEntry]
    result: FusionResult
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

    def to_json_dict(self) -> dict:
        return {
            "sequence": self.sequence,
            "receipt": self.receipt.to_json_dict(),
            "components": self.components,
            "dirty_components": self.dirty_components,
            "reused_components": self.reused_components,
            "reused_verdicts": self.reused_verdicts,
            "refused_claims": self.refused_claims,
            "degenerate": self.degenerate,
            "wall_seconds": self.wall_seconds,
            "fused_items": len(self.result.truths),
        }


@dataclass(slots=True)
class _ComputeStats:
    dirty_components: int = 0
    reused_components: int = 0
    reused_verdicts: int = 0
    refused_claims: int = 0


class IncrementalFusion:
    """Cached per-component fusion state plus the delta-apply loop.

    Built via :meth:`KnowledgeFusion.begin_incremental`; not intended
    to be constructed from scratch elsewhere (it drives the fusion
    object's private preparation helpers to guarantee byte-identity
    with full re-fusion).
    """

    def __init__(
        self,
        fusion,
        store: TripleStore,
        *,
        functional_refresh=None,
        metrics=None,
        fault_plan=None,
    ) -> None:
        self.fusion = fusion
        self.functional_refresh = functional_refresh
        self.metrics = metrics
        self.fault_plan = fault_plan
        # The last RECEIPT_TAIL receipts; ``sequence`` counts them all.
        self.receipts: deque[DeltaReceipt] = deque(maxlen=RECEIPT_TAIL)
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
        weights = self._extractor_weights(corpus.claims)
        entries = self._recompute(corpus, weights, [], _ComputeStats())
        self._state = _FusionState(
            store=store,
            corpus=corpus,
            extractor_weights=weights,
            entries=entries,
            result=self._merge(entries),
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
        injected = self._fault("stage:incremental-journal")

        staged = self._state.store.copy()
        receipt = DeltaJournal(staged).apply(delta)
        receipt.sequence = self._state.sequence + 1

        injected += self._fault("stage:incremental-fusion")
        state, stats = self._advance(staged, receipt)

        # -- commit: one attribute rebind -------------------------------
        self._state = state
        self.receipts.append(receipt)

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
        self._fault("stage:incremental-commit")
        return outcome

    # -- internals ------------------------------------------------------
    def _advance(
        self, staged: TripleStore, receipt: DeltaReceipt
    ) -> tuple[_FusionState, _ComputeStats]:
        """The successor of the committed state over ``staged``.

        Re-reads the receipt's dirty items, re-estimates the global
        extractor weights, then re-fuses the delta's region — or
        everything, when the weights moved.
        """
        prior = self._state
        corpus = prior.corpus.replaced(
            {
                item: list(_canonicalize(scored))
                for item, scored in staged.claims_for_items(
                    receipt.dirty_items
                ).items()
            }
        )
        if not corpus.claims:
            raise DeltaError(_EMPTY_STORE)

        weights = self._extractor_weights(corpus.claims)
        stats = _ComputeStats()
        shifted = weights != prior.extractor_weights
        if shifted:
            # Any reweighted run can have moved: no digest stands.
            corpus.digests = [None] * len(corpus.items)
        if shifted or self.functional_refresh is not None:
            entries = self._recompute(corpus, weights, prior.entries, stats)
        else:
            entries = self._refuse_region(receipt, corpus, weights, stats)
        return (
            _FusionState(
                store=staged,
                corpus=corpus,
                extractor_weights=weights,
                entries=entries,
                result=self._merge(entries),
                sequence=prior.sequence + 1,
            ),
            stats,
        )

    def _extractor_weights(
        self, claims: Iterable[Claim]
    ) -> dict[str, float]:
        """Global extractor weights over all claims, canonical order."""
        if not self.fusion.use_extractor_correlations:
            return {}
        return self.fusion._extractor_weights(claims)

    def _recompute(
        self,
        corpus: _Corpus,
        weights: dict[str, float],
        prior: list[ComponentEntry],
        stats: _ComputeStats,
    ) -> list[ComponentEntry]:
        """Every component from all canonical claims: the prime, and
        the fallback when a delta moved a global parameter."""
        entries = self._fuse_shards(
            corpus, [(0, len(corpus.items))], weights, prior, stats
        )
        if self.functional_refresh is not None:
            self.fusion.functional_of = self.functional_refresh(
                ClaimSet.adopt(corpus.claims)
            )
        return entries

    def _refuse_region(
        self,
        receipt: DeltaReceipt,
        corpus: _Corpus,
        weights: dict[str, float],
        stats: _ComputeStats,
    ) -> list[ComponentEntry]:
        """Re-fuse the components a delta can have changed, carrying
        every other entry of the committed state over untouched.

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
        fresh = self._fuse_shards(corpus, spans, weights, region, stats)
        return sorted(carried + fresh, key=lambda entry: entry.items[0])

    def _fuse_shards(
        self,
        corpus: _Corpus,
        spans: list[tuple[int, int]],
        weights: dict[str, float],
        prior: list[ComponentEntry],
        stats: _ComputeStats,
    ) -> list[ComponentEntry]:
        """One entry per component of the corpus items in ``spans``
        (``[lo, hi)`` index runs): cached or re-fused.

        A component whose source set and content digest — the hash of
        its items' digests, in item order — match a ``prior`` entry is
        clean; its entry is reused verbatim.  Only the items without a
        digest yet (a delta's re-read ones; all, after a weight shift)
        are digested here, on their reweighted runs.
        """
        fusion = self.fusion
        claims = list(
            chain.from_iterable(
                corpus.claims[corpus.starts[lo]:corpus.starts[hi]]
                for lo, hi in spans
            )
        )
        working = (
            fusion._apply_extractor_weights(claims, weights)
            if fusion.use_extractor_correlations
            else ClaimSet.adopt(claims)
        )
        # The working set's runs are the corpus items of the spans, in
        # order: the k-th run is digested into the k-th index.
        digests = corpus.digests
        digest_of: dict[Item, bytes] = {}
        runs = working.runs()
        for lo, hi in spans:
            for index, (item, run) in zip(range(lo, hi), runs):
                if digests[index] is None:
                    digests[index] = _item_digest(run)
                digest_of[item] = digests[index]
        cache = {entry.sources: entry for entry in prior}
        entries: list[ComponentEntry] = []
        for shard in shard_claims(working):
            sources = frozenset(shard.sources())
            items = tuple(shard.items())
            digest = hashlib.sha256(
                b"".join(map(digest_of.__getitem__, items))
            ).hexdigest()
            cached = cache.get(sources)
            if cached is not None and cached.content_hash == digest:
                entries.append(cached)
                stats.reused_components += 1
                stats.reused_verdicts += len(cached.result.truths)
            else:
                entries.append(
                    ComponentEntry(
                        sources=sources,
                        content_hash=digest,
                        n_claims=len(shard),
                        result=self._fuse_component(shard),
                        items=items,
                    )
                )
                stats.dirty_components += 1
                stats.refused_claims += len(shard)
        return entries

    def _fuse_component(self, shard: ClaimSet) -> FusionResult:
        """Fuse one component exactly as the global run would.

        Source-correlation weights are estimated on the shard alone —
        identical to the global estimate restricted to the shard,
        because no dependence pair crosses a component boundary.
        """
        fusion = self.fusion
        source_weights = (
            fusion._source_weights(shard)
            if fusion.use_source_correlations
            else None
        )
        return fusion._base_method(source_weights).fuse(shard)

    def _merge(self, entries: list[ComponentEntry]) -> FusionResult:
        """The served result: the disjoint union of the entries,
        functionally constrained."""
        merged = merge_results(
            self.fusion.name, (entry.result for entry in entries)
        )
        if self.fusion.functional_of is not None:
            self.fusion._constrain_functional(merged)
        return merged

    # -- plumbing -------------------------------------------------------
    def _fault(self, scope: str) -> float:
        """Fire an injected fault point; returns injected slow seconds."""
        if self.fault_plan is None:
            return 0.0
        return self.fault_plan.task_delay(scope, 0, 0)

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
