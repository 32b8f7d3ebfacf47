"""Unit tests for versioned-KB handles and the pinned query surface."""

import collections
import dataclasses

import pytest

from repro.errors import ServingError
from repro.fusion.base import FusionResult
from repro.fusion.knowledge_fusion import KnowledgeFusion
from repro.fusion.readindex import patched
from repro.incremental import ClaimDelta, canonical_claims
from repro.obs.metrics import LabeledRegistry, MetricsRegistry
from repro.rdf.store import TripleStore
from repro.rdf.triple import Provenance, ScoredTriple, Triple, Value
from repro.serving.query import KBReader
from repro.serving.server import KBServer
from repro.serving.version import KBVersion, VersionedKB


def claim(subject, predicate, value, source, conf=0.8):
    return ScoredTriple(
        Triple(subject, predicate, Value(value)),
        Provenance(source, "ex"),
        conf,
    )


CORPUS = [
    # Three sources agree on Paris, one dissents: fused-true = Paris.
    claim("france", "capital", "Paris", "s1", 0.9),
    claim("france", "capital", "Paris", "s2", 0.8),
    claim("france", "capital", "Paris", "s3", 0.8),
    claim("france", "capital", "Lyon", "s4", 0.3),
    claim("france", "population", "67M", "s1", 0.7),
    claim("france", "population", "67M", "s2", 0.7),
    claim("germany", "capital", "Berlin", "s1", 0.9),
    claim("germany", "capital", "Berlin", "s2", 0.9),
    claim("spain", "capital", "Madrid", "s1", 0.8),
]


def build_version(corpus=CORPUS, version_id=0):
    store = TripleStore()
    store.add_all(corpus)
    result = KnowledgeFusion(tolerance=0.0, max_iterations=8).fuse(
        canonical_claims(store)
    )
    return KBVersion(
        version_id=version_id, sequence=0, store=store, result=result,
        read_index=patched(None, result),
    )


@pytest.fixture(scope="module")
def version():
    return build_version()


class TestVersionedKB:
    def test_pin_returns_the_committed_version(self, version):
        kb = VersionedKB(version)
        assert kb.current is version
        assert kb.current.version_id == 0

    def test_commit_is_strictly_monotonic(self, version):
        kb = VersionedKB(version)
        successor = build_version(version_id=1)
        kb.commit(successor)
        assert kb.current is successor
        assert kb.current.version_id == 1
        with pytest.raises(ServingError):
            kb.commit(build_version(version_id=1))  # replayed commit
        with pytest.raises(ServingError):
            kb.commit(build_version(version_id=3))  # skipped commit

    def test_pinned_version_survives_later_commits(self, version):
        kb = VersionedKB(version)
        pinned = kb.current
        kb.commit(build_version(version_id=1))
        assert pinned is version
        assert kb.current is not pinned

    def test_describe_is_json_shaped(self, version):
        summary = version.describe()
        assert summary["version_id"] == 0
        assert summary["claims"] == len(CORPUS)
        assert summary["fused_items"] == len(version.result.truths)

    def test_describe_agrees_with_the_server_status(self):
        # Regression: describe() reported the size of the dedup fence,
        # which ages with log compaction, as "applied_events".  The
        # status counts the version's commits less the poisoned ones;
        # with nothing poisoned that is the version id.
        store = TripleStore()
        store.add_all(CORPUS)
        server = KBServer(
            KnowledgeFusion(tolerance=0.0, max_iterations=8)
            .begin_incremental(store)
        )
        for index in range(4):
            server.publish(
                ClaimDelta(
                    added=[claim(f"city{index}", "capital", "x", "s1")]
                )
            )
        assert len(server.drain()) == 4
        summary = server.versions.current.describe()
        status = dataclasses.asdict(server.status())
        shared = summary.keys() & status.keys()
        assert shared >= {"version_id", "sequence"}
        assert {key: summary[key] for key in shared} == {
            key: status[key] for key in shared
        }
        assert status["applied_events"] == summary["version_id"] == 4


class TestPointLookups:
    def test_lookup_returns_fused_truth_with_belief(self, version):
        # Value keys come back normalized (lowercased) by fusion.
        view = KBReader(version).lookup("france", "capital")
        assert view.values == ("paris",)
        assert view.best() == "paris"
        assert view.beliefs["paris"] > 0.5
        assert view.claims == 4  # every claim on the item, losers too

    def test_lookup_on_unknown_item_is_empty(self, version):
        view = KBReader(version).lookup("atlantis", "capital")
        assert view.is_empty()
        assert view.best() is None
        assert view.claims == 0

    def test_belief_of_losing_and_unknown_values(self, version):
        item = ("france", "capital")
        winner = version.result.belief_of(item, "paris")
        loser = version.result.belief_of(item, "lyon")
        assert KBReader(version).lookup(*item).beliefs == {"paris": winner}
        assert winner > loser > 0.0
        assert version.result.belief_of(item, "nowhere") == 0.0


class TestScans:
    def test_scan_subject_is_predicate_sorted_and_complete(self, version):
        views = KBReader(version).scan_subject("france")
        assert [view.predicate for view in views] == [
            "capital", "population",
        ]
        assert views[0].best() == "paris"
        assert views[1].best() == "67m"

    def test_scan_predicate_is_subject_sorted_and_bounded(self, version):
        reader = KBReader(version)
        views = reader.scan_predicate("capital")
        assert [view.subject for view in views] == [
            "france", "germany", "spain",
        ]
        assert [view.subject for view in reader.scan_predicate(
            "capital", limit=2
        )] == ["france", "germany"]

    def test_scan_predicate_skips_undecided_items(self, version):
        views = KBReader(version).scan_predicate("capital")
        assert all(not view.is_empty() for view in views)


class TestFactView:
    @staticmethod
    def _fields(version, subject, predicate):
        """A view's five fields as a reader has always computed them:
        the truth set sorted, a belief per value (0.0 when the result
        holds none) and the store's claim count for the item."""
        item = (subject, predicate)
        values = tuple(sorted(version.result.truths.get(item, ())))
        return (
            subject,
            predicate,
            values,
            {value: version.result.belief_of(item, value)
             for value in values},
            len(version.store.claims_for_item(subject, predicate)),
        )

    def test_a_view_is_read_only(self, version):
        view = KBReader(version).lookup("france", "capital")
        for field in ("subject", "predicate", "values", "beliefs", "claims"):
            with pytest.raises(AttributeError):
                setattr(view, field, None)
        assert view.values == ("paris",)

    def test_reads_return_the_fields_of_their_items(self, version):
        reader = KBReader(version)
        items = sorted(version.result.truths) + [
            ("atlantis", "capital"), ("france", "anthem"),
        ]
        for subject, predicate in items:
            view = reader.lookup(subject, predicate)
            expected = self._fields(version, subject, predicate)
            # A view is a tuple: it equals the plain tuple of its fields.
            assert view == expected
            assert (view.subject, view.predicate, view.values,
                    view.beliefs, view.claims) == expected
        for subject in ("france", "germany", "spain", "atlantis"):
            assert reader.scan_subject(subject) == [
                self._fields(version, subject, predicate)
                for predicate in sorted(version.store.predicates(subject))
            ]
        for predicate in ("capital", "population", "anthem"):
            holders = sorted(
                subject for (subject, each), values
                in version.result.truths.items()
                if each == predicate and values
            )
            assert reader.scan_predicate(predicate) == [
                self._fields(version, subject, predicate)
                for subject in holders
            ]

    def test_a_truth_set_of_several_values_is_sorted(self):
        item = ("france", "language")
        result = FusionResult(
            method="none",
            truths={item: frozenset({"occitan", "breton", "french"})},
            belief={(item, "french"): 0.9, (item, "breton"): 0.4},
        )
        view = KBReader(KBVersion(
            version_id=0, sequence=0, store=TripleStore(), result=result,
            read_index=patched(None, result),
        )).lookup(*item)
        assert view.values == ("breton", "french", "occitan")
        assert view.beliefs == {
            "breton": 0.4, "french": 0.9, "occitan": 0.0,
        }
        assert view.best() == "french" and view.claims == 0


class TestTopEntities:
    def test_ranking_is_deterministic_and_bounded(self, version):
        reader = KBReader(version)
        top = reader.top_entities(2)
        assert len(top) == 2
        assert top[0][0] == "france"  # two fused facts beat one
        assert top == reader.top_entities(2)  # cached, stable
        assert [s for s, _ in reader.top_entities(10)] == sorted(
            {"france", "germany", "spain"},
            key=lambda s: (-dict(reader.top_entities(10))[s], s),
        )

    def test_k_at_or_below_zero_answers_nothing(self, version):
        # A negative k used to slice from the end: every entity but
        # the last |k|.  It is clamped as scan_predicate clamps limit.
        reader = KBReader(version)
        assert len(reader.top_entities(3)) == 3
        for k in (0, -1, -2, -10):
            assert reader.top_entities(k) == []


class TestReadMetrics:
    def test_reads_are_counted_by_kind(self, version):
        metrics = MetricsRegistry()
        reader = KBReader(version, metrics=metrics)
        reader.lookup("france", "capital")
        reader.scan_subject("france")
        reader.top_entities(1)
        # scan_subject fans out into per-predicate lookups.
        lookups = metrics.counter("serving_reads_total", kind="lookup")
        assert lookups.value == 3
        assert (
            metrics.counter(
                "serving_reads_total", kind="scan_subject"
            ).value
            == 1
        )

    def test_a_labelled_view_renders_each_kind_once_per_reader(
        self, version, monkeypatch
    ):
        """Behind a tenant's ``LabeledRegistry`` the counts per tenant
        are what a fresh ``counter(...).inc()`` per read records, but a
        reader asks the view for each kind's handle at most once."""
        resolved = []
        raw = LabeledRegistry.counter

        def counting(view, name, **labels):
            resolved.append((id(view), name, labels.get("kind")))
            return raw(view, name, **labels)

        monkeypatch.setattr(LabeledRegistry, "counter", counting)
        registry = MetricsRegistry()
        script = {
            "a": [("lookup", ("france", "capital"))] * 3
            + [("scan_subject", ("france",))] * 2
            + [("scan_predicate", ("capital",)), ("top_entities", (1,))]
            + [("top_entities", (2,))],
            "b": [("lookup", ("spain", "capital")),
                  ("scan_subject", ("germany",))],
        }
        views = {}
        for tenant, reads in script.items():
            views[tenant] = registry.labeled(tenant=tenant)
            reader = KBReader(version, metrics=views[tenant])
            for kind, args in reads:
                getattr(reader, kind)(*args)
        assert sorted(collections.Counter(resolved).values()) == [1] * 6
        assert {(view, kind) for view, _name, kind in resolved} == {
            (id(views["a"]), kind)
            for kind in ("lookup", "scan_subject", "scan_predicate",
                         "top_entities")
        } | {(id(views["b"]), kind) for kind in ("lookup", "scan_subject")}

        # The same series and counts as one handle per read, a scan's
        # inner lookups counted: france has two predicates, germany
        # one, and three entities hold a fused capital.
        monkeypatch.setattr(LabeledRegistry, "counter", raw)
        expected = MetricsRegistry()
        for tenant, kinds in {
            "a": ["lookup"] * (3 + 2 * 2 + 3) + ["scan_subject"] * 2
            + ["scan_predicate"] + ["top_entities"] * 2,
            "b": ["lookup"] * 2 + ["scan_subject"],
        }.items():
            for kind in kinds:
                expected.labeled(tenant=tenant).counter(
                    "serving_reads_total", kind=kind
                ).inc()
        assert registry.snapshot().counters == expected.snapshot().counters


class CountingStore(TripleStore):
    """TripleStore that counts the reader-visible access paths."""

    def __init__(self):
        super().__init__()
        self.match_calls = 0
        self.count_for_item_calls = 0

    def match(self, *args, **kwargs):
        self.match_calls += 1
        return super().match(*args, **kwargs)

    def count_for_item(self, *args, **kwargs):
        self.count_for_item_calls += 1
        return super().count_for_item(*args, **kwargs)


class TestScanPredicateShortCircuit:
    """Regression: a bounded scan must not materialize the store.

    ``scan_predicate`` used to pull *every* matching triple out of the
    store, dedupe and sort the full subject set, and only then apply
    ``limit`` — a limit-1 scan over a large predicate paid for the
    whole corpus.  It now walks a lazily-built per-predicate index of
    fused-true subjects, so a bounded scan touches exactly the
    subjects it returns.
    """

    def build(self, n_subjects=200):
        corpus = []
        for index in range(n_subjects):
            subject = f"entity{index:04d}"
            corpus.append(claim(subject, "capital", f"city{index}", "s1"))
            corpus.append(claim(subject, "capital", f"city{index}", "s2"))
        store = CountingStore()
        store.add_all(corpus)
        result = KnowledgeFusion(tolerance=0.0, max_iterations=8).fuse(
            canonical_claims(store)
        )
        store.match_calls = 0
        store.count_for_item_calls = 0
        return store, KBVersion(
            version_id=0, sequence=0, store=store, result=result,
            read_index=patched(None, result),
        )

    def test_limit_1_touches_one_subject(self):
        store, version = self.build()
        views = KBReader(version).scan_predicate("capital", limit=1)
        assert [view.subject for view in views] == ["entity0000"]
        assert store.match_calls == 0, (
            "bounded scan materialized the store's full subject set"
        )
        # A lookup's one store read is its item's claim count.
        assert store.count_for_item_calls == 1, (
            "bounded scan looked up more subjects than it returned"
        )

    def test_unbounded_scan_is_unchanged(self):
        store, version = self.build(n_subjects=25)
        views = KBReader(version).scan_predicate("capital")
        assert [view.subject for view in views] == [
            f"entity{index:04d}" for index in range(25)
        ]

    def test_limit_zero_and_missing_predicate(self):
        _store, version = self.build(n_subjects=5)
        reader = KBReader(version)
        assert reader.scan_predicate("capital", limit=0) == []
        assert reader.scan_predicate("nope") == []
