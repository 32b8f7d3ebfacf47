"""Blocking for entity matching: MinHash/LSH + exact q-gram filters.

The entity layer's hot paths — mention linking, joint cluster
resolution and attribute-variant resolution — all reduce to "find the
best match for one probe among N candidates".  Scanning all N with the
expensive scorers (``form_similarity``, ``_profiles_match``) is
quadratic over a corpus whose probes also number ~N; "From Data Fusion
to Knowledge Fusion" is blunt that fusion quality work is moot when
candidate matching cannot keep up.  This module supplies the candidate
generators that turn those scans into a 3-tier cascade:

* **tier 1 — exact key**: a normalised-surface hash hit (handled by the
  callers; free).
* **tier 2 — cheap blocked fuzzy**: candidates from this module — the
  union of banded MinHash/LSH bucket collisions (Jaccard-family
  similarity over token + character shingles), inverted token postings
  (bounded, for permutation/containment shapes), a short prefix bucket
  (misspellings that keep their head), and profile-pair postings.
* **tier 3 — expensive scorer**: the original similarity functions run
  only on tier-2 survivors, replayed in the same order the brute-force
  loop would have visited them, so the argmax (and its tie-breaking)
  is preserved.

Everything is deterministic and seed-stable: hash permutations come
from a seeded PRNG over CRC32 shingle hashes (never the salted builtin
``hash``), so two processes — or two runs years apart — build the same
signatures and the same buckets.

:class:`QGramIndex` is the one *exact* blocker: a q-gram count filter.
A pair within the misspelling window (edit distance <= 2, length
difference <= 2) keeps all but 6 of the probe's 3-gram positions, so a
probe of length L only has to be scored against members holding the
grams of at least L - 8 of them; probes too short for that bound
(L <= 8) fall back to "any shared gram" plus a small pool of short
names that is scanned exhaustively.  AttributeResolver's misspelling
tier uses it instead of a length-window scan, keeping its verdicts
provably identical to brute force.

Candidate sets from :class:`SurfaceBlockingIndex` are *probabilistic*
supersets: the LSH tier can in principle miss a pair whose shingle
Jaccard is low even though the expensive scorer would accept it.  The
repo's contract is therefore pinned empirically — property tests replay
seeded worlds through both paths and require byte-identical verdicts —
and callers fall back to brute force outright for small pools
(``brute_floor``), where blocking buys nothing.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass, field

__all__ = [
    "BlockingStats",
    "MinHashLSH",
    "QGramIndex",
    "SurfaceBlockingIndex",
    "shingle_surface",
]

# Mersenne prime 2^31 - 1: the modulus of the universal hash family
# h(x) = (a*x + b) mod P used for the MinHash permutations.
_PRIME = 2_147_483_647

# Defaults shared by every SurfaceBlockingIndex (linker, discovery).
# 32 permutations banded 16x2 favours recall: a pair with shingle
# Jaccard s collides in >= 1 band with probability 1 - (1 - s^2)^16
# (~0.99 at s = 0.5, the typo regime), at the cost of admitting some
# low-similarity pairs that tier 3 then rejects.
DEFAULT_NUM_PERM = 32
DEFAULT_BANDS = 16
DEFAULT_SEED = 2015

# Posting lists longer than this are skipped at query time: a token
# shared by thousands of surfaces has no blocking power, and unioning
# its posting list would reintroduce the linear scan.  Deterministic,
# so candidate sets stay a pure function of the indexed corpus.
DEFAULT_TOKEN_CAP = 2048

# Pools at or below this size are scanned brute-force by the callers:
# index maintenance costs more than it saves, and the reference loop
# is trivially verdict-identical.
DEFAULT_BRUTE_FLOOR = 64

_PREFIX_LEN = 4
_SUFFIX_LEN = 4

# Short-surface pool: Jaro-Winkler accepts single-edit pairs of short
# strings that share no 3-gram, token, or affix bucket ("nzj" ~
# "ndzj"), so surfaces this short are pooled and scanned exhaustively
# by probes short enough to sit in their edit window.  Longer pairs
# within one edit always keep their 4-char prefix or suffix intact
# (the two regions are disjoint from length 8 up), so the affix
# buckets cover them exactly.
_SHORT_SURFACE_LEN = 7
_SHORT_SURFACE_QUERY_LEN = 9

# QGramIndex geometry: q-gram width, the edit budget the misspelling
# check allows, and the longest name kept in the short pool — one char
# below the length from which a name is sure to share a gram with
# anything inside its window, L - (q-1) - q*k >= 1 (see the class
# docstring).
_Q = 3
_EDIT_BUDGET = 2
_SHORT_POOL_LEN = _Q * (_EDIT_BUDGET + 1) - 1


def _shingle_hash(shingle: str) -> int:
    """Deterministic 32-bit hash of one shingle (process-stable)."""
    return zlib.crc32(shingle.encode("utf-8"))


def shingle_surface(norm: str, tokens: frozenset[str] | None = None):
    """Shingle set of a normalised surface: tokens + char 3-grams.

    Token shingles make permutations and containments near-identical
    under Jaccard; character 3-grams keep misspelled pairs similar even
    when no token survives the typo.  Surfaces shorter than 3 chars
    contribute themselves.
    """
    if tokens is None:
        tokens = frozenset(norm.split())
    if len(norm) >= _Q:
        grams = {norm[i:i + _Q] for i in range(len(norm) - _Q + 1)}
    else:
        grams = {norm} if norm else set()
    return frozenset(grams | set(tokens))


@dataclass(slots=True)
class BlockingStats:
    """Cascade accounting for one blocking site (linker/discovery/...).

    Count-type only — pure functions of the corpus and seeds, so they
    ride the obs determinism contract.  ``publish`` bridges the totals
    into a :class:`repro.obs.MetricsRegistry`; like
    ``publish_cache_metrics`` it must run once per run against a fresh
    registry, and takes the registry as an argument so the entity layer
    keeps no obs import.
    """

    site: str
    tier1_hits: int = 0          # exact-key resolutions (no scoring)
    tier2_candidates: int = 0    # candidates produced by blocking
    tier3_scored: int = 0        # expensive-scorer invocations
    pruned: int = 0              # pool entries blocking skipped
    queries: int = 0             # probes that reached tier 2
    fallback_queries: int = 0    # probes brute-forced (small pool/off)
    # candidate-set size -> number of probes that saw it (histogram
    # source; bounded by the variety of candidate-set sizes).
    candidate_sizes: dict[int, int] = field(default_factory=dict)

    def observe_candidates(self, count: int, pool: int) -> None:
        self.queries += 1
        self.tier2_candidates += count
        self.pruned += max(0, pool - count)
        self.candidate_sizes[count] = self.candidate_sizes.get(count, 0) + 1

    def publish(self, registry, index: "SurfaceBlockingIndex | None" = None):
        """Fold the totals into a metrics registry (+= semantics)."""
        site = self.site
        registry.counter("blocking_tier1_hits_total", site=site).inc(
            self.tier1_hits
        )
        registry.counter("blocking_tier2_candidates_total", site=site).inc(
            self.tier2_candidates
        )
        registry.counter("blocking_tier3_scored_total", site=site).inc(
            self.tier3_scored
        )
        registry.counter("blocking_candidates_pruned_total", site=site).inc(
            self.pruned
        )
        registry.counter("blocking_queries_total", site=site).inc(
            self.queries
        )
        registry.counter("blocking_fallback_queries_total", site=site).inc(
            self.fallback_queries
        )
        candidates = registry.histogram("blocking_candidates", site=site)
        for size in sorted(self.candidate_sizes):
            for _ in range(self.candidate_sizes[size]):
                candidates.observe(size)
        if index is not None:
            buckets = registry.histogram("blocking_bucket_size", site=site)
            for size in index.bucket_sizes():
                buckets.observe(size)


class MinHashLSH:
    """Banded MinHash index over shingle sets, seeded and stable.

    ``num_perm`` hash permutations are split into ``bands`` bands of
    ``num_perm // bands`` rows; two sets land in the same bucket of a
    band when their signatures agree on every row of that band, which
    happens with probability ``s^rows`` for Jaccard similarity ``s``,
    so a pair collides somewhere with ``1 - (1 - s^rows)^bands`` —
    0.94 at ``s = 0.4`` and 0.99 at ``s = 0.5`` with the defaults (16
    bands of 2 rows).
    Members are integer ids assigned by the caller.
    """

    __slots__ = (
        "num_perm", "bands", "rows", "_params", "_row_cache", "_buckets",
    )

    def __init__(
        self,
        *,
        num_perm: int = DEFAULT_NUM_PERM,
        bands: int = DEFAULT_BANDS,
        seed: int = DEFAULT_SEED,
    ) -> None:
        if num_perm < 1 or bands < 1 or num_perm % bands:
            raise ValueError(
                f"num_perm ({num_perm}) must be a positive multiple of "
                f"bands ({bands})"
            )
        self.num_perm = num_perm
        self.bands = bands
        self.rows = num_perm // bands
        rng = random.Random(seed)
        self._params = tuple(
            (rng.randrange(1, _PRIME), rng.randrange(0, _PRIME))
            for _ in range(num_perm)
        )
        # shingle -> its value under every permutation; shingles repeat
        # massively across surfaces (small token/3-gram alphabets), so
        # this cache does most of the signature work exactly once.
        self._row_cache: dict[str, tuple[int, ...]] = {}
        # band index -> band key tuple -> member ids.
        self._buckets: list[dict[tuple[int, ...], list[int]]] = [
            {} for _ in range(bands)
        ]

    def _rows_of(self, shingle: str) -> tuple[int, ...]:
        cached = self._row_cache.get(shingle)
        if cached is None:
            base = _shingle_hash(shingle)
            cached = tuple(
                (a * base + b) % _PRIME for a, b in self._params
            )
            self._row_cache[shingle] = cached
        return cached

    def signature(self, shingles) -> tuple[int, ...]:
        """The MinHash signature of a shingle set (empty set => sentinel
        signature of all ``_PRIME``)."""
        signature = [_PRIME] * self.num_perm
        for shingle in shingles:
            row = self._rows_of(shingle)
            signature = [
                mine if mine < theirs else theirs
                for mine, theirs in zip(signature, row)
            ]
        return tuple(signature)

    def _band_keys(self, signature: tuple[int, ...]):
        rows = self.rows
        for band in range(self.bands):
            yield band, signature[band * rows:(band + 1) * rows]

    def add(self, member: int, shingles) -> None:
        signature = self.signature(shingles)
        for band, key in self._band_keys(signature):
            self._buckets[band].setdefault(key, []).append(member)

    def candidates(self, shingles, into: set[int]) -> None:
        """Union every colliding bucket's members into ``into``."""
        signature = self.signature(shingles)
        for band, key in self._band_keys(signature):
            members = self._buckets[band].get(key)
            if members:
                into.update(members)

    def bucket_sizes(self):
        """Sizes of every non-empty bucket (histogram source)."""
        for buckets in self._buckets:
            for members in buckets.values():
                yield len(members)


class SurfaceBlockingIndex:
    """Tier-2 candidate generator over (id, normalised surface) pairs.

    Ids are caller-assigned ints whose ascending order must equal the
    brute-force visitation order — candidates are returned sorted, so
    the tier-3 replay keeps the reference loop's tie-breaking.

    Six sub-blocks feed the candidate union:

    * LSH bucket collisions over :func:`shingle_surface` shingles;
    * inverted token postings (skipped per-token beyond ``token_cap``
      members — ubiquitous tokens have no blocking power);
    * ``_PREFIX_LEN``-char prefix and ``_SUFFIX_LEN``-char suffix
      buckets (same cap): a surface within one edit of the probe keeps
      at least one of the two affixes intact once both sides reach
      length 8, exactly the regime where Jaro-Winkler is most generous;
    * a short-surface pool (norm ≤ ``_SHORT_SURFACE_LEN``) scanned by
      probes of norm ≤ ``_SHORT_SURFACE_QUERY_LEN``, covering the tiny
      strings whose 3-grams and affixes a single edit destroys;
    * profile-pair postings (:meth:`add_pair`) for callers whose score
      blends in (attribute, value) overlap.
    """

    __slots__ = (
        "_lsh", "token_cap", "_tokens", "_prefixes", "_suffixes",
        "_short", "_pairs", "_size",
    )

    def __init__(
        self,
        *,
        num_perm: int = DEFAULT_NUM_PERM,
        bands: int = DEFAULT_BANDS,
        seed: int = DEFAULT_SEED,
        token_cap: int = DEFAULT_TOKEN_CAP,
    ) -> None:
        self._lsh = MinHashLSH(num_perm=num_perm, bands=bands, seed=seed)
        self.token_cap = token_cap
        self._tokens: dict[str, set[int]] = {}
        self._prefixes: dict[str, set[int]] = {}
        self._suffixes: dict[str, set[int]] = {}
        self._short: set[int] = set()
        self._pairs: dict[object, set[int]] = {}
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def add(self, member: int, norm: str, tokens: frozenset[str]) -> None:
        """Index one surface under ``member`` (re-adds are idempotent
        for the posting blocks; the LSH tier stores one entry per
        distinct surface added)."""
        self._size += 1
        self._lsh.add(member, shingle_surface(norm, tokens))
        for token in tokens:
            self._tokens.setdefault(token, set()).add(member)
        if norm:
            self._prefixes.setdefault(norm[:_PREFIX_LEN], set()).add(member)
            self._suffixes.setdefault(norm[-_SUFFIX_LEN:], set()).add(member)
        if len(norm) <= _SHORT_SURFACE_LEN:
            self._short.add(member)

    def add_pair(self, member: int, pair) -> None:
        """Index one profile (attribute, value) pair for ``member``."""
        self._pairs.setdefault(pair, set()).add(member)

    def candidates(
        self, norm: str, tokens: frozenset[str], pairs=()
    ) -> list[int]:
        """Sorted candidate ids for one probe surface (+profile)."""
        found: set[int] = set()
        self._lsh.candidates(shingle_surface(norm, tokens), found)
        cap = self.token_cap
        for token in tokens:
            posting = self._tokens.get(token)
            if posting is not None and len(posting) <= cap:
                found.update(posting)
        if norm:
            for bucket in (
                self._prefixes.get(norm[:_PREFIX_LEN]),
                self._suffixes.get(norm[-_SUFFIX_LEN:]),
            ):
                if bucket is not None and len(bucket) <= cap:
                    found.update(bucket)
        if len(norm) <= _SHORT_SURFACE_QUERY_LEN:
            found.update(self._short)
        for pair in pairs:
            posting = self._pairs.get(pair)
            if posting is not None:
                found.update(posting)
        return sorted(found)

    def bucket_sizes(self):
        return self._lsh.bucket_sizes()


class QGramIndex:
    """Exact candidate generation for the misspelling window.

    Guarantees: for names ``x`` and ``y`` with ``|len(x) - len(y)| <= 2``
    and ``levenshtein(x, y) <= 2`` (the widest window
    ``is_probable_misspelling`` accepts), ``candidates(x)`` contains
    ``y`` whenever ``y`` was added.

    Count filter: each edit touches at most ``q`` of the probe's
    ``L - q + 1`` gram positions, and an untouched position's gram
    occurs verbatim in the other string, so a member within ``k`` edits
    contains the grams of at least ``need = L - q + 1 - q*k`` probe
    positions (``L - 8`` at ``q=3``, ``k=2``).  Members counted below
    ``need`` are dropped.  The bound promises nothing for probes of
    ``L <= 8`` (``need <= 0``): those take every member sharing a gram
    plus the short pool: read from the member's side, the same bound
    leaves a member of length >= 9 at least one gram position intact
    in the probe, so the postings find it, and shorter members sit in
    the short pool.
    """

    __slots__ = ("_grams", "_short")

    def __init__(self) -> None:
        # gram -> members containing it, each listed once.
        self._grams: dict[str, list[int]] = {}
        self._short: list[int] = []

    def add(self, member: int, name: str) -> None:
        grams = dict.fromkeys(
            name[i:i + _Q] for i in range(len(name) - _Q + 1)
        )
        for gram in grams:
            self._grams.setdefault(gram, []).append(member)
        if len(name) <= _SHORT_POOL_LEN:
            self._short.append(member)

    def candidates(self, name: str, into: set[int]) -> None:
        """Union every member that could sit in ``name``'s misspelling
        window into ``into`` (a superset; callers re-check exactly)."""
        positions = len(name) - _Q + 1
        need = positions - _Q * _EDIT_BUDGET
        if need <= 0:
            into.update(self._short)
            need = 1
        shared: dict[int, int] = {}
        for i in range(positions):
            for member in self._grams.get(name[i:i + _Q], ()):
                shared[member] = shared.get(member, 0) + 1
        into.update(
            member for member, count in shared.items() if count >= need
        )
