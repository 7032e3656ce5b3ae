"""Certificate compression through the rational integers.

Any sums-of-squares certificate for a rank-r form over a degree-d ring of
integers expands, coordinate by coordinate over the integral basis, into an
integer Gram matrix of rank at most rd.  Re-representing that matrix as a
sum of squares over Z and lifting the rows back along the basis compresses
the original certificate to at most g(rd) squares, where g is the exact
table value for integer forms.

With V the input rows' coordinate vectors and W the compressed rows,
W^T W = V^T V (verified by `represent`), so the lifted rows have exactly the
Gram of the input rows: `descend` checks only the certificate it returns,
which verifies exactly when the input does.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul

from .fields import Field
from .forms import Certificate, GramForm, verify_certificate
from .gtable import Exact, g_table
from .radicals import RATIONAL_SHAPE
from . import fields
from .search import ExceedsBound, Represented, represent


class CertificateInvalidError(ValueError):
    """The input certificate does not verify against its Gram matrix."""


class CompressionError(RuntimeError):
    """No representation within the target budget exists.

    With an explicit target this is a verdict: the certificate does not
    compress to that many rows through Z.  With the table target it cannot
    happen for a verified input.
    """

    def __init__(self, depth: int) -> None:
        super().__init__(f"no representation with at most {depth} squares")
        self.depth = depth


class TargetUnknownError(ValueError):
    """No exact table value is available for the expanded rank."""


@dataclass(frozen=True)
class DescentProblem:
    field: Field
    gram: GramForm
    input_cert: Certificate


@dataclass(frozen=True)
class ExpandedGram:
    """Integer Gram of the basis-coordinate vectors of a certificate.

    Flat index p = j*d + i addresses basis coordinate i of form variable j.
    """

    rank: int
    degree: int
    zgram: tuple[tuple[int, ...], ...]


def expand(problem: DescentProblem) -> ExpandedGram:
    """The integer Gram V^T V of the rows' integral-basis coordinate vectors V,
    a pure expansion: whether the rows certify the Gram is not checked."""
    d = problem.field.degree
    r = problem.gram.rank
    rows = problem.input_cert.rows
    vectors = [tuple(row[j].coords[i] for row in rows) for j in range(r) for i in range(d)]
    zgram = tuple(tuple(sum(map(mul, u, v)) for v in vectors) for u in vectors)
    return ExpandedGram(r, d, zgram)


def compress(e: ExpandedGram, target: int) -> tuple[tuple[int, ...], ...]:
    """An integer matrix W with W^T W equal to the expanded Gram and at most
    `target` rows; zero columns are dropped before the search."""
    rd = e.rank * e.degree
    support = [p for p in range(rd) if any(e.zgram[p])]
    if not support:
        return ()
    rational = fields.make_field(RATIONAL_SHAPE)
    doubled = tuple(tuple((2 * e.zgram[p][q],) for q in support) for p in support)
    outcome = represent(GramForm.from_doubled(rational, doubled), target)
    if isinstance(outcome, ExceedsBound):
        raise CompressionError(outcome.bound)
    if not isinstance(outcome, Represented):
        raise AssertionError(f"expanded Gram rejected: {outcome}")
    rows = []
    for row in outcome.certificate.rows:
        full = [0] * rd
        for pos, value in zip(support, row):
            full[pos] = value.coords[0]
        rows.append(tuple(full))
    return tuple(rows)


def lift(
    w: tuple[tuple[int, ...], ...], e: ExpandedGram, field: Field
) -> Certificate:
    """Reassemble integer rows into ring elements along the integral basis."""
    d, r = e.degree, e.rank
    rows = []
    for wrow in w:
        row = tuple(
            field.element_from_coords(tuple(wrow[j * d + i] for i in range(d)))
            for j in range(r)
        )
        if any(not v.is_zero() for v in row):
            rows.append(row)
    return Certificate(field, r, tuple(rows))


def _input_failure(problem: DescentProblem) -> str | None:
    """Why the input does not certify the problem's Gram, or None."""
    if problem.gram.field != problem.field:
        return "field-mismatch"
    return verify_certificate(problem.gram, problem.input_cert).reason


def descend(problem: DescentProblem, target: int | None = None) -> Certificate:
    """Compress a certificate to at most g(rank * degree) squares.

    The compression budget never exceeds the input row count: the stacked
    coordinate matrix is itself a witness of that size, so a certificate
    already at or under the table value cannot grow.

    Only the returned certificate is verified.  An input that does not verify
    raises CertificateInvalidError, whatever the target; a valid input whose
    lift does not verify raises AssertionError.
    """
    field, gram, cert = problem.field, problem.gram, problem.input_cert
    if cert.rank != gram.rank or not field == gram.field == cert.field:
        raise CertificateInvalidError(_input_failure(problem))  # expand would misindex
    rd = gram.rank * field.degree
    if target is None:
        entry = g_table(rd)
        if not isinstance(entry, Exact):
            raise TargetUnknownError(
                f"no exact table value for rank {rd}; pass an explicit target"
            )
        target = entry.value
    e = expand(problem)
    try:
        out = lift(compress(e, min(target, len(cert.rows))), e, field)
        check = verify_certificate(gram, out)
        if not check.ok:
            raise AssertionError(f"lifted certificate does not verify: {check.reason}")
    except (CompressionError, AssertionError):
        if failure := _input_failure(problem):
            raise CertificateInvalidError(failure) from None
        raise
    if len(out.rows) > target:
        raise AssertionError(f"{len(out.rows)} rows exceed the target {target}")
    return out
