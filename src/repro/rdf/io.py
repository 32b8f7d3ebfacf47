"""Persistence for triple stores: the claims TSV format.

One claim per line with subject, predicate, object lexical, object
kind, source, extractor, locator and confidence (tab-separated, header
line, escaped tabs/newlines) — lossless, so a reloaded store holds the
same claims.  ``repro pipeline --export`` writes it and ``repro query``
reads it.
"""

from __future__ import annotations

import pathlib

from repro.errors import StoreError
from repro.rdf.store import TripleStore
from repro.rdf.triple import Provenance, ScoredTriple, Triple, Value, ValueKind

_TSV_HEADER = (
    "subject\tpredicate\tobject\tkind\tsource\textractor\tlocator\tconfidence"
)


def _escape(field: str) -> str:
    return (
        field.replace("\\", "\\\\")
        .replace("\t", "\\t")
        .replace("\n", "\\n")
        .replace("\r", "\\r")
    )


def _unescape(field: str) -> str:
    out: list[str] = []
    index = 0
    while index < len(field):
        char = field[index]
        if char == "\\" and index + 1 < len(field):
            nxt = field[index + 1]
            mapped = {"\\": "\\", "t": "\t", "n": "\n", "r": "\r"}.get(nxt)
            if mapped is not None:
                out.append(mapped)
                index += 2
                continue
        out.append(char)
        index += 1
    return "".join(out)


def dump_claims_tsv(store: TripleStore, path: str | pathlib.Path) -> int:
    """Write every claim to a TSV file; returns the claim count."""
    lines = [_TSV_HEADER]
    claims = sorted(
        store.claims(),
        key=lambda s: (
            s.triple.subject, s.triple.predicate, s.triple.obj.lexical,
            s.provenance.source_id, s.provenance.extractor_id,
        ),
    )
    for scored in claims:
        triple = scored.triple
        provenance = scored.provenance
        lines.append(
            "\t".join(
                [
                    _escape(triple.subject),
                    _escape(triple.predicate),
                    _escape(triple.obj.lexical),
                    triple.obj.kind.value,
                    _escape(provenance.source_id),
                    _escape(provenance.extractor_id),
                    _escape(provenance.locator),
                    repr(scored.confidence),
                ]
            )
        )
    pathlib.Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
    return len(claims)


def load_claims_tsv(path: str | pathlib.Path) -> TripleStore:
    """Read a claims TSV file back into a store."""
    text = pathlib.Path(path).read_text(encoding="utf-8")
    lines = text.splitlines()
    if not lines or lines[0] != _TSV_HEADER:
        raise StoreError(f"{path}: not a claims TSV file (bad header)")
    store = TripleStore()
    for number, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        fields = line.split("\t")
        if len(fields) != 8:
            raise StoreError(f"{path}:{number}: expected 8 fields")
        subject, predicate, lexical, kind, source, extractor, locator, conf = (
            fields
        )
        try:
            value_kind = ValueKind(kind)
        except ValueError as exc:
            raise StoreError(f"{path}:{number}: unknown kind {kind!r}") from exc
        try:
            confidence = float(conf)
        except ValueError as exc:
            raise StoreError(f"{path}:{number}: bad confidence") from exc
        store.add(
            ScoredTriple(
                Triple(
                    _unescape(subject),
                    _unescape(predicate),
                    Value(_unescape(lexical), value_kind),
                ),
                Provenance(
                    _unescape(source), _unescape(extractor), _unescape(locator)
                ),
                confidence,
            )
        )
    return store
