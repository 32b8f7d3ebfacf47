"""Property tests: blocked cascade verdicts are identical to the full scan.

Seeded random worlds are replayed through the blocked path and the
full scan of the three blocking sites — mention linking and joint
discovery with ``brute_floor`` at 0 against a floor above the pool,
attribute resolution against ``tests.oracles.attribute_scan``.  The
LSH tier is probabilistic by design but deterministic
under the pinned seeds, so these pins are stable: a pass today is a
pass forever (the same contract PR 2 established for the attribute
resolver's first blocking pass).
"""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.entity.blocking import QGramIndex
from repro.entity.discovery import JointEntityResolver, MentionRecord
from repro.entity.linking import EntityLinker
from repro.entity.resolution import AttributeResolver
from repro.rdf.ontology import Entity
from repro.textproc.similarity import levenshtein
from tests.oracles.attribute_scan import ScanAttributeResolver

# A brute_floor no pool reaches: every query takes the full scan.
SCAN = 10**9

_LETTERS = "abcdefghijklmnopqrstuvwxyz"


def _word(rng, lo=4, hi=10):
    return "".join(rng.choice(_LETTERS) for _ in range(rng.randint(lo, hi)))


def _typo(rng, word):
    kind = rng.randrange(4)
    i = rng.randrange(len(word))
    if kind == 0 and len(word) > 1:  # transpose
        i = rng.randrange(len(word) - 1)
        return word[:i] + word[i + 1] + word[i] + word[i + 2:]
    if kind == 1 and len(word) > 1:  # drop
        return word[:i] + word[i + 1:]
    if kind == 2:  # duplicate
        return word[:i] + word[i] + word[i:]
    return word[:i] + rng.choice(_LETTERS) + word[i + 1:]  # substitute


def _surfaces(rng, count):
    """Multi-word names over a shared vocabulary (near pairs common)."""
    vocab = [_word(rng) for _ in range(max(20, count // 3))]
    return [
        " ".join(rng.choice(vocab) for _ in range(rng.randint(1, 3)))
        for _ in range(count)
    ]


def _probes(rng, surfaces, count):
    """Probe mix: exacts, misspellings, permutations, wrappers, noise."""
    probes = []
    for _ in range(count):
        kind = rng.random()
        base = rng.choice(surfaces)
        words = base.split()
        if kind < 0.35:
            probes.append(base)
        elif kind < 0.6:
            i = rng.randrange(len(words))
            words[i] = _typo(rng, words[i])
            probes.append(" ".join(words))
        elif kind < 0.75:
            rng.shuffle(words)
            probes.append(" ".join(words))
        elif kind < 0.85:
            probes.append("the " + base)
        else:
            probes.append(
                " ".join(_word(rng) for _ in range(rng.randint(1, 3)))
            )
    return probes


class TestLinkerEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_blocked_verdicts_match_brute(self, seed):
        rng = random.Random(1000 + seed)
        classes = ("Book", "City", "Person")
        catalog = {}
        for i, surface in enumerate(_surfaces(rng, 220)):
            catalog[surface] = Entity(
                f"e/{i}", surface, classes[i % len(classes)]
            )
        blocked = EntityLinker(catalog, brute_floor=0)
        brute = EntityLinker(catalog, brute_floor=SCAN)
        surfaces = list(catalog)
        for probe in _probes(rng, surfaces, 150):
            for class_name in (None, rng.choice(classes)):
                fast = blocked.link(probe, class_name)
                slow = brute.link(probe, class_name)
                assert fast.linked == slow.linked, (probe, class_name)
                if fast.linked:
                    assert fast.entity.entity_id == slow.entity.entity_id
                    assert fast.score == slow.score
        stats = blocked.blocking_stats
        assert stats.queries > 0
        assert stats.pruned > 0  # blocking actually pruned work
        assert brute.blocking_stats.queries == 0


def _scaled_catalog(rng, size):
    """``size`` distinct 3-word names over an ~n^(1/3) vocabulary, so
    near-neighbour density stays realistic instead of saturating."""
    vocab = [
        _word(rng, 4, 9) for _ in range(max(60, round(4 * size ** (1 / 3))))
    ]
    names = set()
    while len(names) < size:
        names.add(" ".join(rng.choice(vocab) for _ in range(3)))
    return {
        name: Entity(f"e/{i}", name, "Thing")
        for i, name in enumerate(sorted(names))
    }


def _typo_probes(rng, names, count):
    """Misspelled catalog names — the expensive fuzzy-match hot path."""
    probes = []
    for _ in range(count):
        words = rng.choice(names).split()
        index = rng.randrange(len(words))
        word = words[index]
        position = rng.randrange(len(word))
        words[index] = (
            word[:position] + rng.choice(_LETTERS) + word[position + 1:]
        )
        probes.append(" ".join(words))
    return probes


@pytest.mark.slow
def test_blocked_verdicts_match_the_scan_at_scale():
    """10 000 and 100 000 entities, 100 typo probes each (the scan
    answers the first 30 at 100k: ~2.5 s a probe).  Counts, not
    clocks, say blocking still blocks: candidates per query grow by
    less than the catalog did, and at 100k at least nine tenths of
    the catalog never reach the scorer."""
    def verdicts(linker, probes):
        return [
            (d.entity.entity_id, d.score) if d.linked else None
            for d in map(linker.link, probes)
        ]

    per_query = {}
    for size, scanned in ((10_000, 100), (100_000, 30)):
        rng = random.Random(20_150_000 + size)
        catalog = _scaled_catalog(rng, size)
        probes = _typo_probes(rng, list(catalog), 100)
        blocked = EntityLinker(catalog)
        scan = EntityLinker(catalog, brute_floor=len(catalog))
        assert verdicts(blocked, probes)[:scanned] == verdicts(
            scan, probes[:scanned]
        )
        stats = blocked.blocking_stats
        assert scan.blocking_stats.queries == 0
        per_query[size] = stats.tier2_candidates / stats.queries
        pruned_share = stats.pruned / (stats.pruned + stats.tier2_candidates)
    assert per_query[100_000] / per_query[10_000] < 10
    assert pruned_share >= 0.9


class TestDiscoveryEquivalence:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_blocked_outcomes_match_brute(self, seed):
        rng = random.Random(2000 + seed)
        known = _surfaces(rng, 50)
        catalog = {
            surface: Entity(f"e/{i}", surface, "Thing")
            for i, surface in enumerate(known)
        }
        pool = _surfaces(rng, 150) + known[:10]
        attrs = [_word(rng) for _ in range(12)]
        values = [_word(rng) for _ in range(20)]
        mentions = [
            MentionRecord(
                surface,
                "Thing",
                {
                    (rng.choice(attrs), rng.choice(values))
                    for _ in range(rng.randint(0, 3))
                },
            )
            for surface in _probes(rng, pool, 220)
        ]

        def clone(records):
            return [
                MentionRecord(m.surface, m.class_name, set(m.facts))
                for m in records
            ]

        blocked = JointEntityResolver(
            EntityLinker(catalog, brute_floor=0), brute_floor=0
        )
        brute = JointEntityResolver(
            EntityLinker(catalog, brute_floor=SCAN), brute_floor=SCAN
        )
        fast = blocked.resolve(clone(mentions))
        slow = brute.resolve(clone(mentions))
        assert {s: e.entity_id for s, e in fast.linked.items()} == {
            s: e.entity_id for s, e in slow.linked.items()
        }

        def canon(outcome):
            return [
                (
                    cluster.cluster_id,
                    cluster.class_name,
                    cluster.name,
                    sorted(cluster.surfaces),
                    sorted(cluster.profile),
                )
                for cluster in outcome.clusters
            ]

        assert canon(fast) == canon(slow)
        assert blocked.blocking_stats.queries > 0
        assert blocked.blocking_stats.pruned > 0


class TestAttributeResolverEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_blocked_resolutions_match_brute(self, seed):
        rng = random.Random(3000 + seed)
        vocab = [_word(rng, 4, 9) for _ in range(40)]
        names = sorted({
            " ".join(rng.choice(vocab) for _ in range(rng.randint(1, 3)))
            for _ in range(180)
        })
        variants = []
        for name in names[:70]:
            words = name.split()
            roll = rng.random()
            if roll < 0.4:
                i = rng.randrange(len(words))
                words[i] = _typo(rng, words[i])
                variants.append(" ".join(words))
            elif roll < 0.55 and len(words) > 1:
                rng.shuffle(words)
                variants.append(" of ".join(words))
            elif roll < 0.7:
                variants.append("official " + name)
            elif roll < 0.8:
                variants.append(name + " of record")
            else:
                variants.append("main " + name)  # sub-attribute shape
        support = {}
        for name in names:
            support[name] = rng.randint(60, 120)
        for variant in variants:
            support.setdefault(variant, rng.randint(1, 40))
        subjects = [f"s{i}" for i in range(30)]
        profiles = {}
        for name in support:
            if rng.random() < 0.7:
                profiles[name] = {
                    (rng.choice(subjects), _word(rng))
                    for _ in range(rng.randint(1, 6))
                }
        # Force some profile-identical pairs (the value-profile merge).
        for left, right in zip(names[:10], names[10:20]):
            if left in profiles:
                profiles[right] = set(profiles[left])
        blocked = AttributeResolver("Thing", support, profiles).run()
        brute = ScanAttributeResolver("Thing", support, profiles).run()
        assert blocked.canonical_map == brute.canonical_map
        assert blocked.sub_attributes == brute.sub_attributes


# ----------------------------------------------------------------------
# The q-gram count filter is exact over the misspelling window, and the
# resolver built on it answers what the full scan answers.  Three
# letters keep near pairs (and repeated grams) common; lengths 1-20
# cross every regime of the filter: no gram at all (< 3), ``need <= 0``
# (<= 8, short pool + any shared gram), ``need == 1`` (9), and the
# counting regime above, with members on both sides of the short-pool
# length.

_abc = st.one_of(
    st.text(alphabet="abc", min_size=1, max_size=20),
    st.text(alphabet="abc", min_size=6, max_size=12),  # the boundaries
)
# "x" never occurs in a probe: an edit writing it creates no new gram.
_edit = st.tuples(
    st.sampled_from("sid"), st.integers(0, 20), st.sampled_from("abcx")
)


def _apply_edits(word, edits):
    for kind, where, char in edits:
        where %= len(word) + 1  # spread over the word, whatever its length
        if kind == "i":
            word = word[:where] + char + word[where:]
        elif where < len(word):
            tail = word[where + 1:]
            word = word[:where] + (char if kind == "s" else "") + tail
    return word


@st.composite
def _probe_and_members(draw):
    probe = draw(_abc)
    near = draw(st.lists(st.lists(_edit, max_size=2), max_size=6))
    members = [_apply_edits(probe, edits) for edits in near]
    # Two substitutions one gram width apart wipe out the most grams
    # two edits can (all six of a name of length 8).
    for first in draw(st.lists(st.integers(0, 20), max_size=3)):
        first %= len(probe)
        members.append(
            _apply_edits(probe, [("s", first, "x"), ("s", first + 3, "x")])
        )
    members += draw(st.lists(_abc, max_size=6))
    return probe, [member for member in members if member]


class TestQGramCountFilter:
    @given(_probe_and_members())
    @example(("aaaaaaaa", ["aabaabaa"]))  # length 8: no gram survives
    @example(("aaaaaaaaa", ["aabaabaaa"]))  # length 9: exactly one does
    @example(("aabaabaaaa", ["aaaaaaaa"]))  # need == 2, member in the pool
    @settings(max_examples=1500, deadline=None)
    def test_candidates_cover_the_misspelling_window(self, case):
        probe, members = case
        index = QGramIndex()
        for member, name in enumerate(members):
            index.add(member, name)
        found: set[int] = set()
        index.candidates(probe, found)
        for member, name in enumerate(members):
            if (
                abs(len(name) - len(probe)) <= 2
                and levenshtein(name, probe) <= 2
            ):
                assert member in found, (probe, name)

    def test_far_members_are_not_scored(self):
        """The filter prunes: a long probe does not drag in every name
        that merely shares one of its grams."""
        index = QGramIndex()
        names = ["publication date", "publisher", "public library",
                 "date of birth", "publication dates"]
        for member, name in enumerate(names):
            index.add(member, name)
        found: set[int] = set()
        index.candidates("publication date", found)
        assert found == {0, 4}


_name_words = st.sampled_from(
    ["ab", "abc", "abca", "bcab", "cabcab", "abcabcab", "bcabcabca",
     "of", "the", "main", "official", "total", "record"]
)
_names = st.one_of(
    st.lists(_name_words, min_size=1, max_size=3).map(" ".join),
    _abc,
)
_pairs = st.sets(
    st.tuples(st.sampled_from(["s1", "s2", "s3"]), st.sampled_from("uvw")),
    max_size=4,
)


class TestBlockingEquivalence:
    @given(
        st.dictionaries(_names, st.integers(1, 6), min_size=1, max_size=14),
        st.data(),
    )
    @settings(max_examples=400, deadline=None)
    def test_blocked_run_equals_brute_run(self, support, data):
        variants = data.draw(
            st.lists(
                st.tuples(
                    st.sampled_from(sorted(support)),
                    st.lists(_edit, min_size=1, max_size=2),
                    st.integers(1, 6),
                ),
                max_size=6,
            )
        )
        support = dict(support)
        for name, edits, count in variants:
            variant = " ".join(_apply_edits(name, edits).split())
            if variant:
                support.setdefault(variant, count)
        profiles = {
            name: pairs
            for name in sorted(support)
            if (pairs := data.draw(_pairs))
        }
        blocked = AttributeResolver("T", support, profiles).run()
        brute = ScanAttributeResolver("T", support, profiles).run()
        assert blocked.canonical_map == brute.canonical_map
        assert blocked.sub_attributes == brute.sub_attributes
