"""Certificate compression through the rational integers.

Any sums-of-squares certificate for a rank-r form over a degree-d ring of
integers expands, coordinate by coordinate over the integral basis, into an
integer Gram matrix of rank at most rd.  Re-representing that matrix as a
sum of squares over Z and lifting the rows back along the basis compresses
the original certificate to at most g(rd) squares, where g is the exact
table value for integer forms.
"""

from __future__ import annotations

from dataclasses import dataclass

from .fields import Field
from .forms import Certificate, GramForm, verify_certificate
from .gtable import Exact, g_table
from .radicals import RATIONAL_SHAPE
from . import fields
from .search import Represented, Unsat, represent


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
    """Decompose certificate entries over the integral basis and assemble
    the integer Gram of the coordinate vectors."""
    check = verify_certificate(problem.gram, problem.input_cert)
    if not check.ok:
        raise CertificateInvalidError(check.reason or "certificate does not verify")
    field = problem.field
    d = field.degree
    r = problem.gram.rank
    rows = problem.input_cert.rows
    n = len(rows)
    vectors = []
    for j in range(r):
        for i in range(d):
            vectors.append(tuple(rows[k][j].coords[i] for k in range(n)))
    rd = r * d
    zgram = tuple(
        tuple(sum(a * b for a, b in zip(vectors[p], vectors[q])) for q in range(rd))
        for p in range(rd)
    )
    expanded = ExpandedGram(r, d, zgram)
    _check_expansion(problem, expanded)
    return expanded


def _check_expansion(problem: DescentProblem, e: ExpandedGram) -> None:
    """Lifting the expanded generators must reproduce the original Gram:
    the basis products weighted by twice the integer Gram give the
    coordinates of 2G."""
    tensor = problem.field._mul_tensor
    d, r = e.degree, e.rank
    for j in range(r):
        for j2 in range(r):
            total = [0] * d
            for i in range(d):
                for i2 in range(d):
                    z = 2 * e.zgram[j * d + i][j2 * d + i2]
                    if z:
                        for k, t in enumerate(tensor[i][i2]):
                            total[k] += z * t
            assert tuple(total) == problem.gram.doubled[j][j2], "expansion lost exactness"


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
    if isinstance(outcome, Unsat):
        raise CompressionError(outcome.depth)
    assert isinstance(outcome, Represented), f"expanded Gram rejected: {outcome}"
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


def descend(problem: DescentProblem, target: int | None = None) -> Certificate:
    """Compress a certificate to at most g(rank * degree) squares.

    The compression budget never exceeds the input row count: the stacked
    coordinate matrix is itself a witness of that size, so a certificate
    already at or under the table value cannot grow.
    """
    rd = problem.gram.rank * problem.field.degree
    if target is None:
        entry = g_table(rd)
        if not isinstance(entry, Exact):
            raise TargetUnknownError(
                f"no exact table value for rank {rd}; pass an explicit target"
            )
        target = entry.value
    e = expand(problem)
    budget = min(target, len(problem.input_cert.rows))
    w = compress(e, budget)
    out = lift(w, e, problem.field)
    check = verify_certificate(problem.gram, out)
    assert check.ok, f"lifted certificate does not verify: {check.reason}"
    assert len(out.rows) <= target
    return out
