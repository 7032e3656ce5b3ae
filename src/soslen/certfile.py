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

Entries are read and written on integer numerators by `soslen.radicals`
(`read_numerators`, `render_numerators`), and `Field.coords_of_numerators`
turns an entry into integral-basis coordinates, or reports that it is not
integral.  The Gram matrix is kept as the coordinates of 2G and each row
entry as an OElement, or, outside the ring of integers, as the Radical it
denotes.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import isqrt

from .fields import Field, OElement, field_from_descriptor, format_descriptor
from .forms import Certificate, GramForm, VerifyResult, verify_certificate
from .radicals import Radical, Shape, read_numerators, render_numerators, value_type

FORMAT_VERSION = 1


class SchemaError(ValueError):
    def __init__(self, location: str, message: str) -> None:
        super().__init__(f"{location}: {message}")
        self.location = location


class IntegrityError(ValueError):
    """The document parses but its rows do not certify its Gram matrix."""


@value_type
class CertificateDocument:
    """A field, a Gram form and certificate rows, as a file records them.

    A row entry is kept as an OElement, or, when it is not integral, as the
    Radical it denotes; `rows` gives every entry as a Radical, rebuilt on
    each access.
    """

    field: Field
    gram: GramForm
    _entries: tuple[tuple[OElement | Radical, ...], ...]

    def __init__(self, field: Field, gram: GramForm, rows) -> None:
        if gram.field != field:
            raise ValueError("gram matrix must live in the field")
        entries = []
        for row in rows:
            if len(row) != gram.rank:
                raise ValueError("row dimension must equal the rank")
            out = []
            for v in row:
                coords = field.coords_of(v)
                out.append(v if coords is None else OElement(field, coords))
            entries.append(tuple(out))
        self._set(field, gram, tuple(entries))

    @classmethod
    def _of_entries(cls, field: Field, gram: GramForm, entries) -> CertificateDocument:
        doc = cls.__new__(cls)
        doc._set(field, gram, entries)
        return doc

    def _set(self, field: Field, gram: GramForm, entries) -> None:
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "gram", gram)
        object.__setattr__(self, "_entries", entries)

    @property
    def rows(self) -> tuple[tuple[Radical, ...], ...]:
        return tuple(
            tuple(v if isinstance(v, Radical) else v.to_radical() for v in row)
            for row in self._entries
        )

    def __repr__(self) -> str:
        return (
            f"CertificateDocument({self.field.shape}, rank={self.gram.rank}, "
            f"rows={len(self._entries)})"
        )


def document_from_certificate(gram: GramForm, cert: Certificate) -> CertificateDocument:
    if cert.field != gram.field or cert.rank != gram.rank:
        raise ValueError("certificate field and rank must match the gram matrix")
    return CertificateDocument._of_entries(gram.field, gram, cert.rows)


def emit_certificate(doc: CertificateDocument) -> str:
    field = doc.field
    payload = {
        "format_version": FORMAT_VERSION,
        "field": format_descriptor(field.shape),
        "gram": [
            render_numerators(field.shape, field.numerators_of_coords(c), 8)
            for row in doc.gram.doubled
            for c in row
        ],
        "rows": [[str(v) for v in row] for row in doc._entries],
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def _read_entry(shape: Shape, cell: object, location: str) -> tuple[tuple[int, ...], int]:
    """`read_numerators` of a cell, its faults raised as SchemaErrors."""
    if not isinstance(cell, str):
        raise SchemaError(location, "must be a string")
    try:
        return read_numerators(shape, cell)
    except ValueError as exc:  # also int()'s limit on digit count
        raise SchemaError(location, str(exc)) from None


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
    version = payload["format_version"]
    # True and 1.0 compare equal to 1 but are not the integer version
    if type(version) is not int or version != FORMAT_VERSION:
        raise SchemaError("$.format_version", f"unsupported version {version!r}")
    if not isinstance(payload["field"], str):
        raise SchemaError("$.field", "must be a string")
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
    cells = [_read_entry(field.shape, cell, f"$.gram[{k}]") for k, cell in enumerate(gram_list)]
    try:
        gram = GramForm.from_numerators(field, [cells[i * r : (i + 1) * r] for i in range(r)])
    except ValueError as exc:
        raise SchemaError("$.gram", str(exc)) from None
    if not isinstance(payload["rows"], list):
        raise SchemaError("$.rows", "must be an array")
    entries = []
    for k, row in enumerate(payload["rows"]):
        if not isinstance(row, list) or len(row) != r:
            raise SchemaError(f"$.rows[{k}]", f"must be an array of {r} entries")
        out = []
        for j, cell in enumerate(row):
            u, den = _read_entry(field.shape, cell, f"$.rows[{k}][{j}]")
            coords = field.coords_of_numerators(u, den)
            if coords is None:
                out.append(Radical(field.shape, tuple(Fraction(p, den) for p in u)))
            else:
                out.append(OElement(field, coords))
        entries.append(tuple(out))
    return CertificateDocument._of_entries(field, gram, tuple(entries))


def verify_document(doc: CertificateDocument) -> VerifyResult:
    """Membership plus exact Gram reproduction for the document's rows."""
    for k, row in enumerate(doc._entries):
        if all(v.is_zero() for v in row):
            return VerifyResult(False, f"zero-row:{k}")
        for j, v in enumerate(row):
            if isinstance(v, Radical):
                return VerifyResult(False, f"row-entry-not-integral:{k},{j}")
    return verify_certificate(doc.gram, Certificate(doc.field, doc.gram.rank, doc._entries))


def to_certificate(doc: CertificateDocument) -> tuple[GramForm, Certificate]:
    """The verified (gram, certificate) pair; raises IntegrityError otherwise."""
    result = verify_document(doc)
    if not result.ok:
        raise IntegrityError(result.reason or "certificate does not verify")
    return doc.gram, Certificate(doc.field, doc.gram.rank, doc._entries)
