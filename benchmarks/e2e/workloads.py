"""The four workloads: inputs from a seed, timed phases, output checks.

Every workload is a closed loop with one client in one thread: the
next operation starts when the previous one returned.  All four walk
the same end-to-end path — inputs → fused KB version 0 → published
deltas → committed versions → reads — in different proportions, so
each stresses different layers (see ``spec.WORKLOADS`` for why each
exists and README.md for which layer should move which metric).

A workload has three steps, kept apart so that the traced pass wraps
exactly the program's work:

``generate(seed, sizes)``
    every input, from the seed alone (counted in ``setup_s``);
``execute(inputs, sizes, rec, state)``
    the timed phases, recording samples into a :class:`Recorder` and
    what the checks need into a caller-owned :class:`State`;
``verify(inputs, state, rec)``
    the output checks, outside every timed interval and outside the
    tracing context (they call the same public functions).
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import random
import shutil
import tempfile
import time
from collections import Counter
from dataclasses import dataclass, field, replace
from pathlib import Path

from repro.core.pipeline import (
    KnowledgeBaseConstructionPipeline,
    PipelineConfig,
)
from repro.errors import BackpressureError
from repro.evalx.freshness import truth_metrics
from repro.evalx.metrics import evaluate_fusion
from repro.fusion.knowledge_fusion import KnowledgeFusion
from repro.obs import MetricsRegistry
from repro.rdf.segments import SegmentBackend
from repro.rdf.store import TripleStore
from repro.rdf.triple import Provenance, ScoredTriple, Triple
from repro.serving.server import KBServer
from repro.serving.stream import EventLog
from repro.serving.tenancy import TenantManager
from repro.synth.claims import ClaimWorldConfig, generate_claim_world
from repro.synth.deltas import (
    DeltaStreamConfig,
    generate_delta_stream,
    scored_from_claims,
)
from repro.synth.tenants import TenantMixConfig, build_tenant_workload

from benchmarks.e2e import OUT_DIR
from benchmarks.e2e.hostspeed import HostSampler
from benchmarks.e2e.spec import (
    BLOCK_READS,
    RUN_SECONDS,
)

__all__ = ["Recorder", "State", "WORKLOAD_CLASSES", "sha256_hex"]

now = time.perf_counter


def sha256_hex(payload: bytes | str) -> str:
    if isinstance(payload, str):
        payload = payload.encode()
    return hashlib.sha256(payload).hexdigest()


def scratch_dir() -> Path:
    """A fresh directory inside the checkout (removed by the caller)."""
    OUT_DIR.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix="tmp-", dir=OUT_DIR))


#: Span of the benchmark's own work inside a traced section (read
#: plans, digests, collections), so ``unattributed_share`` is time that
#: neither the program's layers nor the benchmark claim.
GLUE_SPAN = "bench:glue"


class Recorder:
    """What one ``execute`` + ``verify`` measured and checked."""

    def __init__(self, tracer=None, sampler: HostSampler | None = None):
        self.tracer = tracer
        # Never started, a sampler reports speed 1 and takes no time.
        self.sampler = sampler or HostSampler()
        # Repeated timings by section ("build_wall_s", "read_s", ...),
        # the host sampler's own time taken out.
        self.samples: dict[str, list[float]] = {}
        # When each of them ran, (start, end) on the clock, for
        # ``sampler.speed_over``; ``spans["read_s"]`` is per block.
        self.spans: dict[str, list[tuple[float, float]]] = {}
        # Single values ("claims_committed", ...).
        self.values: dict[str, float] = {}
        self.attempted = 0
        self.failed = 0
        self.checks: dict[str, bool] = {}
        # Sampled reads awaiting verification:
        # (version, kind, subject, predicate, observed).
        self.sampled_reads: list[tuple] = []
        # Group of each 100-read block of ``samples["read_s"]``.
        self.block_groups: list = []

    def mark(self) -> tuple[float, float]:
        """The clock, and the seconds the sampler has taken so far."""
        return now(), self.sampler.busy

    def sample(self, key: str, began, ended) -> None:
        """One timing of section ``key`` between two :meth:`mark`s."""
        self.samples.setdefault(key, []).append(
            (ended[0] - began[0]) - (ended[1] - began[1])
        )
        self.spans.setdefault(key, []).append((began[0], ended[0]))

    def add(self, key: str, amount: float) -> None:
        self.values[key] = self.values.get(key, 0.0) + amount

    def op(self, ok: bool = True) -> None:
        self.ops(1, 0 if ok else 1)

    def ops(self, attempted: int, failed: int) -> None:
        self.attempted += attempted
        self.failed += failed

    def check(self, name: str, ok: bool) -> None:
        """Record one output check (repeats of a name are conjoined)."""
        self.checks[name] = self.checks.get(name, True) and bool(ok)
        self.op(bool(ok))

    def glue(self):
        """Span over the benchmark's own untimed work in a traced run."""
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.span(GLUE_SPAN)

    def settle(self) -> None:
        """Collect garbage before a timed section (outside its clock)."""
        with self.glue():
            gc.collect()

    @contextlib.contextmanager
    def timed(self, key: str):
        """One repeat of section ``key``, settled first."""
        self.settle()
        began = self.mark()
        yield
        self.sample(key, began, self.mark())


# ----------------------------------------------------------------------
# The fixed read block.

#: Per 25 reads: 22 ``lookup``, 1 ``scan_subject``, 1
#: ``scan_predicate(limit=20)``, 1 ``top_entities(10)`` — 88/4/4/4 per
#: 100-read block.
_KIND_BY_SLOT = (
    ("lookup",) * 22 + ("scan_subject", "scan_predicate", "top_entities")
)
SCAN_LIMIT = 20
TOP_K = 10
#: Coprime to the 25-read cycle of kinds, so every kind gets sampled.
VERIFY_EVERY = 49


#: Golden-ratio rotation: ``frac(u + i·φ)`` fills [0, 1) evenly for any
#: run of consecutive ``i`` and for any fixed stride of them.
_PHI = 0.6180339887498949


def _balanced_pick(ordered: list, turn: float, slot: int):
    """The ``slot``-th of a block's four picks from a cost-ordered list.

    One pick per quartile, mirrored in pairs — at ``turn`` ∈ [0, 1) the
    four sit at ``t``, ``2 − t``, ``2 + t`` and ``4 − t`` quarters — so
    where one pick of a pair moves to a cheaper entry the other moves
    to a dearer one, and the four together cost about the same at
    every ``turn``.
    """
    quarter = (turn, 2.0 - turn, 2.0 + turn, 4.0 - turn)[slot]
    return ordered[min(len(ordered) - 1, int(quarter / 4.0 * len(ordered)))]


def read_plan(version, rng: random.Random, blocks: int) -> list[tuple]:
    """``blocks`` × 100 seeded reads over one pinned version.

    Lookups walk the sorted subjects (and, per subject, predicates) by
    a golden-ratio rotation from a seeded start.  The scans are 8 % of
    the reads and most of the time, and one costs 1× to 100× another
    (a ``scan_subject`` is one lookup per predicate of the subject, a
    ``scan_predicate`` one per holder up to the limit), so their
    targets are not a lottery: every block scans one subject from each
    quartile of the subjects ordered by predicate count, and one
    predicate from each quartile of the predicates ordered by fused
    holders, rotating inside the quartiles from a seeded start (see
    :func:`_balanced_pick`).  Every block is then the same mix of cheap
    and expensive reads, whatever the seed.
    """
    store = version.store
    subjects = sorted(store.subjects())
    predicates_of = {
        subject: sorted(store.predicates(subject)) for subject in subjects
    }
    by_width = sorted(subjects, key=lambda s: (len(predicates_of[s]), s))
    holders = Counter(
        predicate
        for (_subject, predicate), values in version.result.truths.items()
        if values
    )
    by_holders = sorted(holders, key=lambda p: (holders[p], p))
    start_subject, start_predicate, start_scan = (
        rng.random(), rng.random(), rng.random()
    )
    period = len(_KIND_BY_SLOT)
    plan = []
    for index in range(blocks * BLOCK_READS):
        kind = _KIND_BY_SLOT[index % period]
        block, offset = divmod(index, BLOCK_READS)
        # The block's turn, and which of its four scans of a kind.
        turn = (start_scan + block * _PHI) % 1.0
        slot = offset // period
        if kind == "scan_subject":
            subject = _balanced_pick(by_width, turn, slot)
        else:
            subject = subjects[
                int((start_subject + index * _PHI) % 1.0 * len(subjects))
            ]
        if kind == "scan_predicate":
            predicate = _balanced_pick(by_holders, turn, slot)
        else:
            predicates = predicates_of[subject]
            predicate = predicates[
                int((start_predicate + index * _PHI * _PHI) % 1.0
                    * len(predicates))
            ]
        plan.append((kind, subject, predicate))
    return plan


def run_reads(reader, plan: list[tuple], rec: Recorder, group="") -> None:
    """Run whole read blocks on one pinned reader, timing every read.

    Records every latency (``read_s``) and, per 100-read block, its
    ``group``: blocks of one group are repeats of the same work (the
    same store behind them), and the read metrics are taken over the
    blocks of a group before they are averaged over the groups.
    """
    latencies = rec.samples.setdefault("read_s", [])
    sampler = rec.sampler
    for index, (kind, subject, predicate) in enumerate(plan):
        started, busy = rec.mark()
        if index % BLOCK_READS == 0:
            block_started = started
        if kind == "lookup":
            observed = reader.lookup(subject, predicate)
        elif kind == "scan_subject":
            observed = reader.scan_subject(subject)
        elif kind == "scan_predicate":
            observed = reader.scan_predicate(predicate, limit=SCAN_LIMIT)
        else:
            observed = reader.top_entities(TOP_K)
        ended = now()
        latencies.append(ended - started - (sampler.busy - busy))
        rec.op()
        if (index + 1) % BLOCK_READS == 0:
            rec.block_groups.append(group)
            rec.spans.setdefault("read_s", []).append((block_started, ended))
        if len(latencies) % VERIFY_EVERY == 0:
            rec.sampled_reads.append(
                (reader.version, kind, subject, predicate, observed)
            )


def _fact_tuple(view) -> tuple:
    return (
        view.subject,
        view.predicate,
        view.values,
        tuple(view.beliefs[value] for value in view.values),
        view.claims,
    )


def _direct_read(version, claim_counts, kind, subject, predicate):
    """One read's answer computed straight from ``version.result``."""
    result = version.result

    def fact(subject_, predicate_):
        item = (subject_, predicate_)
        values = tuple(sorted(result.truths.get(item, ())))
        return (
            subject_,
            predicate_,
            values,
            tuple(result.belief.get((item, v), 0.0) for v in values),
            claim_counts[item],
        )

    if kind == "lookup":
        return [fact(subject, predicate)]
    if kind == "scan_subject":
        return [
            fact(subject, p)
            for p in sorted(p for s, p in claim_counts if s == subject)
        ]
    if kind == "scan_predicate":
        holders = sorted(
            s for (s, p), values in result.truths.items()
            if p == predicate and values
        )
        return [fact(s, predicate) for s in holders[:SCAN_LIMIT]]
    scores: dict[str, float] = {}
    for (s, p), values in result.truths.items():
        for value in values:
            scores[s] = scores.get(s, 0.0) + result.belief.get(
                ((s, p), value), 0.0
            )
    ranked = sorted(scores.items(), key=lambda pair: (-pair[1], pair[0]))
    return ranked[:TOP_K]


def verify_sampled_reads(rec: Recorder) -> None:
    """1-in-50 reads must equal a direct computation from the result."""
    counts_by_version: dict[int, Counter] = {}
    mismatches = 0
    for version, kind, subject, predicate, observed in rec.sampled_reads:
        counts = counts_by_version.get(id(version))
        if counts is None:
            counts = Counter(
                (claim.triple.subject, claim.triple.predicate)
                for claim in version.store
            )
            counts_by_version[id(version)] = counts
        expected = _direct_read(version, counts, kind, subject, predicate)
        if kind == "lookup":
            got = [_fact_tuple(observed)]
        elif kind == "top_entities":
            got = observed
        else:
            got = [_fact_tuple(view) for view in observed]
        mismatches += got != expected
    rec.check("sampled_reads_match_result", mismatches == 0)
    rec.sampled_reads.clear()


# ----------------------------------------------------------------------
# Shared serving phases.


def delta_size(delta) -> int:
    return len(delta.added) + len(delta.retracted)


def probe_item(delta) -> tuple[str, str]:
    """The data item a delta's visibility is probed with."""
    if delta.added:
        return delta.added[0].triple.item
    return delta.retracted[0].item


def ingest(server, deltas, rec: Recorder, after_delta=None) -> None:
    """Per delta: publish → step → pin a reader → first lookup.

    ``delta_visible_s`` runs from entering ``publish`` to the first
    ``lookup`` answered by a reader pinned after the commit returned;
    the ingest wall is publish + step only.  ``after_delta(number,
    reader)`` then gets the fresh reader (cold caches), outside both.
    """
    for number, delta in enumerate(deltas):
        subject, predicate = probe_item(delta)
        began = rec.mark()
        try:
            server.publish(delta)
        except BackpressureError:
            rec.op(False)
            continue
        rec.op()
        outcome = server.step()
        stepped = rec.mark()
        reader = server.reader()
        reader.lookup(subject, predicate)
        rec.sample("delta_visible_s", began, rec.mark())
        rec.sample("ingest_s", began, stepped)
        applied = outcome is not None and outcome.action == "applied"
        rec.op(applied)
        if applied:
            rec.add("claims_committed", delta_size(delta))
        if after_delta is not None:
            after_delta(number, reader)


def spread(repeats: int, gaps: int) -> list[int]:
    """How many of ``repeats`` fall into each of ``gaps`` gaps, evenly.

    The short repeated sections of a workload (cold primes, read
    blocks) run a few at a time in the gaps between its long ones, not
    in one stretch: this host slows down for seconds at a time, and
    repeats that sit together are disturbed together.
    """
    return [
        (gap + 1) * repeats // gaps - gap * repeats // gaps
        for gap in range(gaps)
    ]


class PinnedReads:
    """The read blocks of one pinned reader, run a few at a time."""

    def __init__(self, reader, rng, blocks: int, rec: Recorder, group=""):
        self.reader, self.rec, self.group = reader, rec, group
        with rec.glue():
            self.plan = read_plan(reader.version, rng, blocks)

    def run(self, blocks: int) -> None:
        reads = blocks * BLOCK_READS
        chunk, self.plan = self.plan[:reads], self.plan[reads:]
        run_reads(self.reader, chunk, self.rec, self.group)


def web_config(seed: int, sizes: dict, **overrides) -> PipelineConfig:
    """The default web world with every generator seed offset by ``seed``."""
    cfg = PipelineConfig(**overrides)
    for name in ("world", "kb_pair", "querylog", "websites", "webtext"):
        part = getattr(cfg, name)
        setattr(cfg, name, replace(part, seed=part.seed + seed))
    cfg.querylog.scale = sizes["query_scale"]
    if "entities_per_class" in sizes:  # smoke sizes only
        cfg.world.entities_per_class = dict.fromkeys(
            cfg.world.entities_per_class, sizes["entities_per_class"]
        )
        cfg.websites.pages_per_site = sizes["pages_per_site"]
        cfg.webtext.documents_per_source = sizes["documents_per_source"]
    return cfg


#: The web world shrunk for the self-tests.
SMOKE_WEB = {
    "query_scale": 0.0001, "entities_per_class": 8,
    "pages_per_site": 4, "documents_per_source": 3,
}


def fresh_web_prime(config, world, claims) -> bytes:
    """Fused bytes of a cold prime on ``claims`` (the check's oracle)."""
    pipeline = KnowledgeBaseConstructionPipeline(config, world=world)
    pipeline.all_triples = list(claims)
    return pipeline.serve().versions.current.canonical_bytes()


def claim_world_fusion(metrics=None) -> KnowledgeFusion:
    """Fusion settings of the claim-world workloads (the ones
    ``TenantRuntime`` hard-codes, so both serve the same way)."""
    return KnowledgeFusion(tolerance=0.0, max_iterations=8, metrics=metrics)


def fresh_claim_prime(claims) -> bytes:
    """As :func:`fresh_web_prime`, for the claim-world workloads."""
    store = TripleStore()
    store.add_all(claims)
    engine = claim_world_fusion().begin_incremental(store)
    return engine.result.canonical_bytes()


def check_served(rec: Recorder, server, fresh_prime) -> bytes:
    """The served version must equal a cold prime on its own claims.

    Returns the served version's canonical bytes.
    """
    served = server.versions.current.canonical_bytes()
    fresh = fresh_prime(server.engine.store.claims())
    rec.check("served_equals_fresh_prime", fresh == served)
    return served


@dataclass(slots=True)
class State:
    """What ``execute`` hands to ``verify`` and to the metric table.

    The caller creates it, passes it to ``execute`` and ``verify``,
    and calls :meth:`release` in a ``finally`` — so scratch
    directories go away even when a phase raises.
    """

    # Filled by ``execute``: the live objects ``verify`` inspects.
    extra: dict = field(default_factory=dict)
    # Filled by ``verify``, outside the measured section.
    fused_f1: float = 0.0
    output_bytes: bytes = b""  # hashed into ``output_digest``
    snapshot: object = None  # MetricsSnapshot of the program's registry
    stored_bytes: int = 0
    live_claims: int = 0
    scratch: Path | None = None
    open_stores: list = field(default_factory=list)

    def release(self) -> None:
        for store in self.open_stores:
            store.close()
        self.open_stores.clear()
        if self.scratch is not None:
            shutil.rmtree(self.scratch, ignore_errors=True)
            self.scratch = None


class Workload:
    """Base: sizes by mode and the ``--seconds`` scaling."""

    name = ""
    # Sizes of the untraced run at ``RUN_SECONDS``; ``TRACED`` and
    # ``SMOKE`` override some of them.
    FULL: dict = {}
    TRACED: dict = {}
    SMOKE: dict = {}
    # Repeat counts that scale with ``--seconds`` (never below 1).
    SCALED: tuple[str, ...] = ()
    # ``generate`` runs this often; ``setup_s`` takes the median.
    SETUP_REPEATS = 3

    def sizes(self, seconds: float, *, trace: bool, smoke: bool) -> dict:
        sizes = dict(self.FULL)
        factor = seconds / RUN_SECONDS
        for key in self.SCALED:
            sizes[key] = max(1, round(sizes[key] * factor))
        if trace:
            sizes.update(self.TRACED)
        if smoke:
            sizes.update(self.SMOKE)
        return sizes


# ----------------------------------------------------------------------


class WebBuild(Workload):
    """Figure-1 batch builds, then the built KB put in service."""

    name = "web_build"
    FULL = {
        "query_scale": 0.002, "builds": 2,
        "tail_parts": 2, "tail_base_fraction": 0.9, "read_blocks": 10,
    }
    # One build to one tail delta: the untraced run's proportions.
    TRACED = {"builds": 1, "tail_parts": 1, "read_blocks": 2}
    SMOKE = {**SMOKE_WEB, "builds": 2, "read_blocks": 1}
    SCALED = ("builds",)
    # Already the longest run; world construction is 0.7 s a time.
    SETUP_REPEATS = 1

    def generate(self, seed: int, sizes: dict):
        config = web_config(seed, sizes)
        return {
            "seed": seed,
            "config": config,
            "pipeline": KnowledgeBaseConstructionPipeline(config),
        }

    def input_digest(self, inputs) -> str:
        pipeline = inputs["pipeline"]
        return sha256_hex(repr((inputs["config"], pipeline.world.facts())))

    def execute(self, inputs, sizes: dict, rec: Recorder, state: State):
        pipeline = inputs["pipeline"]
        rng = random.Random(inputs["seed"])
        digests = []
        for _ in range(sizes["builds"]):
            with rec.timed("build_wall_s"):
                report = pipeline.run()
            rec.op(report.health.status == "ok")
            with rec.glue():
                digests.append(
                    sha256_hex(report.fusion_result.canonical_bytes())
                )

        # The tail: serve the built KB — prime on 90 % of its claims,
        # stream the rest in as deltas; the reader pinned at version 0
        # serves its read blocks before and after every delta.
        with rec.glue():
            base, deltas = generate_delta_stream(
                pipeline.all_triples,
                DeltaStreamConfig(
                    seed=inputs["seed"],
                    parts=sizes["tail_parts"],
                    base_fraction=sizes["tail_base_fraction"],
                ),
            )
        pipeline.all_triples = base
        with rec.timed("prime_s"):
            server = pipeline.serve()
        reads = PinnedReads(server.reader(), rng, sizes["read_blocks"], rec)
        blocks = spread(sizes["read_blocks"], len(deltas) + 1)
        reads.run(blocks[0])
        ingest(
            server, deltas, rec,
            after_delta=lambda number, _fresh: reads.run(blocks[number + 1]),
        )
        state.extra.update(digests=digests, report=report, server=server)

    def verify(self, inputs, state: State, rec: Recorder) -> None:
        digests = state.extra["digests"]
        pipeline = inputs["pipeline"]
        rec.check("builds_share_one_digest", len(set(digests)) == 1)
        served = check_served(
            rec, state.extra["server"],
            lambda claims: fresh_web_prime(
                inputs["config"], pipeline.world, claims
            ),
        )
        verify_sampled_reads(rec)
        state.fused_f1 = state.extra["report"].fusion_report.f1
        state.output_bytes = digests[-1].encode() + served
        state.snapshot = pipeline.metrics.snapshot()


class WebServe(Workload):
    """Full re-fusion per delta on the web world, reads on cold readers."""

    name = "web_serve"
    FULL = {
        "query_scale": 0.002, "parts": 16, "primes": 4, "deltas": 6,
        "read_blocks": 1,
    }
    TRACED = {"primes": 1, "deltas": 3}
    SMOKE = {**SMOKE_WEB, "primes": 1, "deltas": 3}
    # The set-up holds a full build; repeating it would double the run.
    SETUP_REPEATS = 1
    SCALED = ("deltas",)

    def generate(self, seed: int, sizes: dict):
        config = web_config(seed, sizes, fusion_tolerance=0.0)
        pipeline = KnowledgeBaseConstructionPipeline(config)
        pipeline.run()
        base, deltas = generate_delta_stream(
            pipeline.all_triples,
            DeltaStreamConfig(seed=seed, parts=sizes["parts"]),
        )
        return {
            "seed": seed,
            "config": config,
            "world": pipeline.world,
            "base": base,
            "deltas": deltas,
        }

    def input_digest(self, inputs) -> str:
        return sha256_hex(
            repr((inputs["config"], inputs["base"], inputs["deltas"]))
        )

    def execute(self, inputs, sizes: dict, rec: Recorder, state: State):
        rng = random.Random(inputs["seed"])

        def cold_prime():
            pipeline = KnowledgeBaseConstructionPipeline(
                inputs["config"], world=inputs["world"]
            )
            # all_triples is the documented priming source of serve().
            pipeline.all_triples = inputs["base"]
            with rec.timed("prime_s"):
                server = pipeline.serve()
            return pipeline, server

        # Cold primes on fresh pipelines: the first one serves, the
        # others are spread over the deltas.
        pipeline, server = cold_prime()
        deltas = inputs["deltas"][: sizes["deltas"]]
        primes = spread(sizes["primes"] - 1, len(deltas))

        def after_delta(number, fresh):
            PinnedReads(fresh, rng, sizes["read_blocks"], rec).run(
                sizes["read_blocks"]
            )
            for _ in range(primes[number]):
                cold_prime()

        ingest(server, deltas, rec, after_delta)
        state.extra.update(server=server, pipeline=pipeline)

    def verify(self, inputs, state: State, rec: Recorder) -> None:
        server = state.extra["server"]
        state.output_bytes = check_served(
            rec, server,
            lambda claims: fresh_web_prime(
                inputs["config"], inputs["world"], claims
            ),
        )
        verify_sampled_reads(rec)
        state.fused_f1 = evaluate_fusion(
            inputs["world"], server.versions.current.result
        ).f1
        state.snapshot = state.extra["pipeline"].metrics.snapshot()


class ShardSegment(Workload):
    """Tiny one-component deltas over many components, on segments."""

    name = "shard_segment"
    FULL = {
        "worlds": 240, "items": 12, "sources": 5, "parts": 4,
        "memtable_limit": 1000, "primes": 9, "deltas": 100,
        "reopens": 5, "read_blocks": 30,
    }
    TRACED = {"primes": 1, "deltas": 60, "reopens": 1, "read_blocks": 5}
    SMOKE = {
        "worlds": 12, "memtable_limit": 40, "primes": 1, "deltas": 20,
        "reopens": 1, "read_blocks": 1,
    }
    SCALED = ("deltas", "read_blocks")

    def generate(self, seed: int, sizes: dict):
        base: list[ScoredTriple] = []
        streams = []
        truths: dict = {}
        for index in range(sizes["worlds"]):
            world = generate_claim_world(
                ClaimWorldConfig(
                    seed=seed * 1000 + index,
                    n_items=sizes["items"],
                    n_sources=sizes["sources"],
                )
            )
            prefix = f"w{index:03d}/"
            scored = [
                ScoredTriple(
                    Triple(
                        prefix + one.triple.subject,
                        one.triple.predicate,
                        one.triple.obj,
                    ),
                    Provenance(
                        prefix + one.provenance.source_id,
                        one.provenance.extractor_id,
                        one.provenance.locator,
                    ),
                    one.confidence,
                )
                for one in scored_from_claims(world.claims)
            ]
            for (subject, predicate), gold in world.truths.items():
                truths[(prefix + subject, predicate)] = gold
            world_base, world_deltas = generate_delta_stream(
                scored,
                DeltaStreamConfig(
                    seed=seed * 1000 + index, parts=sizes["parts"]
                ),
            )
            base.extend(world_base)
            streams.append(world_deltas)
        # Round-robin over worlds: consecutive deltas touch different
        # components, each delta exactly one.
        deltas = [
            stream[part]
            for part in range(sizes["parts"])
            for stream in streams
        ]
        return {"seed": seed, "base": base, "deltas": deltas, "truths": truths}

    def input_digest(self, inputs) -> str:
        return sha256_hex(repr((inputs["base"], inputs["deltas"])))

    @staticmethod
    def _open(directory, sizes: dict, registry, base=None) -> KBServer:
        """Open (or create) the segment directory and prime a server."""
        store = TripleStore(
            SegmentBackend(
                directory,
                memtable_limit=sizes["memtable_limit"],
                metrics=registry,
            )
        )
        if base is not None:
            store.add_all(base)
        engine = claim_world_fusion(registry).begin_incremental(store)
        return KBServer(
            engine, EventLog(4096, metrics=registry), metrics=registry
        )

    def execute(self, inputs, sizes: dict, rec: Recorder, state: State):
        rng = random.Random(inputs["seed"])
        registry = MetricsRegistry()
        state.scratch = scratch_dir()
        directory = state.scratch / "served"

        def cold_prime(target) -> KBServer:
            with rec.timed("prime_s"):
                server = self._open(target, sizes, registry, inputs["base"])
            return server

        # Cold primes on fresh directories: the first one serves, the
        # others are spread over the deltas.
        server = cold_prime(directory)
        deltas = inputs["deltas"][: sizes["deltas"]]
        primes = spread(sizes["primes"] - 1, len(deltas))

        def after_delta(number, _fresh):
            for turn in range(primes[number]):
                spare = cold_prime(state.scratch / f"spare-{number}-{turn}")
                spare.engine.store.close()

        ingest(server, deltas, rec, after_delta)
        began = rec.mark()
        server.engine.store.flush()  # the durability point
        rec.sample("ingest_s", began, rec.mark())
        with rec.glue():  # close() zeroes the storage gauges
            state.snapshot = registry.snapshot()
        server.engine.store.close()

        # Cold start to first read, on the flushed directory; every
        # store reopened then serves its share of the read blocks.
        subject, predicate = probe_item(deltas[-1])
        blocks = spread(sizes["read_blocks"], sizes["reopens"])
        for index in range(sizes["reopens"]):
            with rec.timed("reopen_s"):
                reopened = self._open(directory, sizes, None)
                reader = reopened.reader()
                reader.lookup(subject, predicate)
            rec.op()
            PinnedReads(reader, rng, blocks[index], rec).run(blocks[index])
            if index + 1 < sizes["reopens"]:
                with rec.glue():  # sampled answers are checked off it
                    verify_sampled_reads(rec)
                reopened.engine.store.close()
        # verify() reads claims and sampled answers off the last one.
        state.open_stores.append(reopened.engine.store)
        state.extra.update(
            server=server, reopened=reopened, directory=directory
        )

    def verify(self, inputs, state: State, rec: Recorder) -> None:
        served = state.extra["server"].versions.current
        reopened = state.extra["reopened"]
        state.output_bytes = check_served(rec, reopened, fresh_claim_prime)
        rec.check(
            "reopened_equals_served",
            served.canonical_bytes() == state.output_bytes,
        )
        verify_sampled_reads(rec)
        state.fused_f1 = truth_metrics(
            served.result.truths, inputs["truths"]
        ).f1
        state.live_claims = len(reopened.engine.store)
        state.stored_bytes = sum(
            path.stat().st_size
            for path in state.extra["directory"].iterdir()
        )


class TenantMix(Workload):
    """Many small single-component stores behind one fair-share loop."""

    name = "tenant_mix"
    FULL = {
        "tenants": 12, "items": 200, "sources": 6, "parts": 12,
        "primes": 9, "read_blocks": 8,
    }
    TRACED = {"tenants": 4, "primes": 1, "read_blocks": 2}
    SMOKE = {
        "tenants": 3, "items": 12, "parts": 3, "primes": 1, "read_blocks": 1,
    }
    SCALED = ("tenants",)

    def generate(self, seed: int, sizes: dict):
        mix = TenantMixConfig(
            n_tenants=sizes["tenants"],
            seed=seed * 10_007,
            n_items=sizes["items"],
            n_sources=sizes["sources"],
            parts=sizes["parts"],
            epochs=sizes["parts"],
        )
        return {
            "seed": seed,
            "workloads": [
                build_tenant_workload(spec) for spec in mix.specs()
            ],
        }

    def input_digest(self, inputs) -> str:
        return sha256_hex(
            repr([(w.spec, w.base, w.deltas) for w in inputs["workloads"]])
        )

    def execute(self, inputs, sizes: dict, rec: Recorder, state: State):
        rng = random.Random(inputs["seed"])
        state.scratch = scratch_dir()

        def cold_prime():
            registry = MetricsRegistry()
            primed = len(rec.samples.get("prime_s", ()))
            root = state.scratch / f"prime-{primed}"
            with rec.timed("prime_s"):
                manager = TenantManager(
                    inputs["workloads"], metrics=registry,
                    checkpoint_root=root,
                )
            return manager, registry

        # Cold primes of the whole fleet: the first one is drained, the
        # others are spread over the rounds.  So are the read blocks:
        # every tenant's reader is pinned at version 0 and serves one
        # block per pass (a tenant's blocks are a group: tenants differ
        # in kind and size) while the rounds commit newer versions.
        manager, registry = cold_prime()
        primes = spread(sizes["primes"] - 1, sizes["parts"])
        passes = spread(sizes["read_blocks"], sizes["parts"])
        reads = {
            name: PinnedReads(
                manager.tenant(name).server.reader(), rng,
                sizes["read_blocks"], rec, group=name,
            )
            for name in manager.names()
        }

        # The closed-loop client regains control only when a round
        # returns, so a round's first-published delta is visible to it
        # at: round start → round returned → first lookup.
        probe = manager.tenant(manager.names()[0])
        rounds = 0
        while True:
            began = rec.mark()
            if manager.drain_fair(max_rounds=1) == 0:
                break
            drained = rec.mark()
            reader = probe.server.reader()
            reader.lookup(*probe_item(probe.pending[probe.published - 1]))
            rec.sample("delta_visible_s", began, rec.mark())
            rec.sample("ingest_s", began, drained)
            for _ in range(passes[rounds]):
                for pinned in reads.values():
                    pinned.run(1)
            for _ in range(primes[rounds]):
                cold_prime()
            rounds += 1
        began = rec.mark()
        manager.checkpoint_all()
        report = manager.eval_rows(rounds=rounds)
        rec.sample("ingest_s", began, rec.mark())

        for name in manager.names():
            runtime = manager.tenant(name)
            unpublished = len(runtime.pending) - runtime.published
            # One publish and one step per delta.
            rec.ops(
                2 * len(runtime.pending),
                2 * unpublished + runtime.server.status().poisoned,
            )
            rec.add(
                "claims_committed",
                sum(map(delta_size, runtime.pending[: runtime.published])),
            )
        state.extra.update(manager=manager, report=report, registry=registry)

    def verify(self, inputs, state: State, rec: Recorder) -> None:
        manager = state.extra["manager"]
        rows = state.extra["report"].rows
        served = [
            check_served(rec, manager.tenant(name).server, fresh_claim_prime)
            for name in manager.names()
        ]
        verify_sampled_reads(rec)
        state.fused_f1 = sum(row.f1 for row in rows) / len(rows)
        state.output_bytes = b"".join(served)
        state.snapshot = state.extra["registry"].snapshot()


WORKLOAD_CLASSES = {
    cls.name: cls for cls in (WebBuild, WebServe, ShardSegment, TenantMix)
}
