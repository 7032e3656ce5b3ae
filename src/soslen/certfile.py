"""Canonical certificate documents.

A certificate file is a single JSON object with sorted keys, no
insignificant whitespace and a trailing newline, so canonical emissions are
byte-identical across runs:

    {"field": "Q(sqrt 6, sqrt 7)",
     "format_version": 1,
     "gram": [... r*r canonical element strings, row-major ...],
     "rows": [[...], ...]}

Element strings use the rendering "q0 + q1*sqrt(m) + q2*sqrt(n) + q3*sqrt(mn)"
with exact "p/q" rationals.  Parsing returns the embedded data even when the
rows fail to reproduce the Gram matrix; verification is a separate step.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from math import isqrt

from .fields import Field, field_from_descriptor, format_descriptor
from .forms import Certificate, GramForm, VerifyResult, verify_certificate
from .radicals import Radical, parse_radical, render_radical

FORMAT_VERSION = 1


class SchemaError(ValueError):
    def __init__(self, location: str, message: str) -> None:
        super().__init__(f"{location}: {message}")
        self.location = location


class IntegrityError(ValueError):
    """The document parses but its rows do not certify its Gram matrix."""


@dataclass(frozen=True)
class CertificateDocument:
    field: Field
    gram: GramForm
    rows: tuple[tuple[Radical, ...], ...]


def document_from_certificate(gram: GramForm, cert: Certificate) -> CertificateDocument:
    rows = tuple(tuple(v.to_radical() for v in row) for row in cert.rows)
    return CertificateDocument(gram.field, gram, rows)


def emit_certificate(doc: CertificateDocument) -> str:
    payload = {
        "format_version": FORMAT_VERSION,
        "field": format_descriptor(doc.field.shape),
        "gram": [render_radical(e) for row in doc.gram.entries for e in row],
        "rows": [[render_radical(v) for v in row] for row in doc.rows],
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def parse_certificate(text: str) -> CertificateDocument:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError("$", f"not valid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise SchemaError("$", "top level must be an object")
    for key in ("format_version", "field", "gram", "rows"):
        if key not in payload:
            raise SchemaError(f"$.{key}", "missing required key")
    if payload["format_version"] != FORMAT_VERSION:
        raise SchemaError("$.format_version", f"unsupported version {payload['format_version']!r}")
    try:
        field = field_from_descriptor(payload["field"])
    except ValueError as exc:
        raise SchemaError("$.field", str(exc)) from None
    gram_list = payload["gram"]
    if not isinstance(gram_list, list) or not gram_list:
        raise SchemaError("$.gram", "must be a nonempty array")
    r = isqrt(len(gram_list))
    if r * r != len(gram_list):
        raise SchemaError("$.gram", f"length {len(gram_list)} is not a perfect square")
    entries = []
    for i in range(r):
        row = []
        for j in range(r):
            cell = gram_list[i * r + j]
            try:
                row.append(parse_radical(field.shape, cell))
            except ValueError as exc:
                raise SchemaError(f"$.gram[{i * r + j}]", str(exc)) from None
        entries.append(tuple(row))
    try:
        gram = GramForm(field, tuple(entries))
    except ValueError as exc:
        raise SchemaError("$.gram", str(exc)) from None
    if not isinstance(payload["rows"], list):
        raise SchemaError("$.rows", "must be an array")
    rows = []
    for k, row in enumerate(payload["rows"]):
        if not isinstance(row, list) or len(row) != r:
            raise SchemaError(f"$.rows[{k}]", f"must be an array of {r} entries")
        parsed = []
        for j, cell in enumerate(row):
            try:
                parsed.append(parse_radical(field.shape, cell))
            except ValueError as exc:
                raise SchemaError(f"$.rows[{k}][{j}]", str(exc)) from None
        rows.append(tuple(parsed))
    return CertificateDocument(field, gram, tuple(rows))


def verify_document(doc: CertificateDocument) -> VerifyResult:
    """Membership plus exact Gram reproduction for the document's rows."""
    field = doc.field
    rows = []
    for k, row in enumerate(doc.rows):
        if all(v.is_zero() for v in row):
            return VerifyResult(False, f"zero-row:{k}")
        elems = []
        for j, v in enumerate(row):
            coords = field.coords_of(v)
            if coords is None:
                return VerifyResult(False, f"row-entry-not-integral:{k},{j}")
            elems.append(field.element_from_coords(coords))
        rows.append(tuple(elems))
    cert = Certificate(field, doc.gram.rank, tuple(rows))
    return verify_certificate(doc.gram, cert)


def to_certificate(doc: CertificateDocument) -> tuple[GramForm, Certificate]:
    """The verified (gram, certificate) pair; raises IntegrityError otherwise."""
    result = verify_document(doc)
    if not result.ok:
        raise IntegrityError(result.reason or "certificate does not verify")
    field = doc.field
    rows = tuple(
        tuple(field.element(v) for v in row) for row in doc.rows
    )
    return doc.gram, Certificate(field, doc.gram.rank, rows)
