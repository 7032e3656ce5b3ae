"""Gram matrices of quadratic forms and their sums-of-squares certificates."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .fields import Field, NotIntegralError, OElement
from .radicals import Radical


def _doubled_outer_sum(field: Field, rank: int, rows) -> list[list[tuple[int, ...]]]:
    """Integral coordinates of twice the sum of row (x) row over rows of
    OElements."""
    zero = (0,) * field.degree
    total = [[zero] * rank for _ in range(rank)]
    for row in rows:
        for i in range(rank):
            for j in range(i, rank):
                p = field.mul_coords(row[i].coords, row[j].coords)
                total[i][j] = tuple(a + 2 * b for a, b in zip(total[i][j], p))
    for i in range(rank):
        for j in range(i):
            total[i][j] = total[j][i]
    return total


class GramForm:
    """A symmetric Gram matrix over a field's ring of integers.

    Diagonal entries must be integral and doubled off-diagonal entries
    integral (classical integrality); a form that is a sum of squares of
    integral linear forms automatically has all entries integral.  So 2G is
    integral for every GramForm: `doubled` holds its integral-basis
    coordinates, which every computation reads, and `entries` the matrix
    itself.
    """

    __slots__ = ("field", "rank", "entries", "doubled")

    def __init__(self, field: Field, entries: tuple[tuple[Radical, ...], ...]) -> None:
        r = len(entries)
        if r < 1 or any(len(row) != r for row in entries):
            raise ValueError("entries must form a square matrix of rank >= 1")
        if any(e.shape != field.shape for row in entries for e in row):
            raise ValueError("entry shape does not match the field")
        doubled: list[list[tuple[int, ...]]] = [[()] * r for _ in range(r)]
        for i in range(r):
            for j in range(i, r):
                e = entries[i][j]
                if e != entries[j][i]:
                    raise ValueError("gram matrix must be symmetric")
                c = field.coords_of(e.scale(2))
                # an entry is integral iff every coordinate of its double is even
                if i == j and (c is None or any(v % 2 for v in c)):
                    raise NotIntegralError(f"diagonal entry {e} is not integral")
                if c is None:
                    raise NotIntegralError(f"doubled off-diagonal {e} is not integral")
                doubled[i][j] = doubled[j][i] = c
        self._set(field, tuple(tuple(row) for row in entries), doubled)

    def _set(self, field: Field, entries, doubled) -> None:
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "rank", len(entries))
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "doubled", tuple(tuple(row) for row in doubled))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("GramForm values are immutable")

    @classmethod
    def from_doubled(cls, field: Field, doubled) -> GramForm:
        """The Gram matrix G whose double 2G has the given integral-basis
        coordinates (int tuples); the entries are derived from them."""
        r = len(doubled)
        if r < 1 or any(len(row) != r for row in doubled):
            raise ValueError("coordinates must form a square matrix of rank >= 1")
        half = Fraction(1, 2)
        entries: list[list] = [[None] * r for _ in range(r)]
        for i in range(r):
            for j in range(i, r):
                c = doubled[i][j]
                if len(c) != field.degree:
                    raise ValueError("coordinate count must equal the field degree")
                if c != doubled[j][i]:
                    raise ValueError("gram matrix must be symmetric")
                e = field.radical_of_coords(c).scale(half)
                if i == j and any(v % 2 for v in c):
                    raise NotIntegralError(f"diagonal entry {e} is not integral")
                entries[i][j] = entries[j][i] = e
        gram = cls.__new__(cls)
        gram._set(field, tuple(tuple(row) for row in entries), doubled)
        return gram

    @classmethod
    def from_element(cls, alpha: OElement) -> GramForm:
        return cls.from_doubled(alpha.field, ((tuple(2 * c for c in alpha.coords),),))

    @classmethod
    def from_rows(cls, field: Field, rows: list[tuple[OElement, ...]] | tuple) -> GramForm:
        """The Gram matrix sum of row_i (x) row_i of integral row vectors."""
        if not rows:
            raise ValueError("at least one row is required to infer the rank")
        return cls.from_doubled(field, _doubled_outer_sum(field, len(rows[0]), rows))

    @classmethod
    def zero(cls, field: Field, rank: int) -> GramForm:
        z = (0,) * field.degree
        return cls.from_doubled(field, tuple((z,) * rank for _ in range(rank)))

    def is_zero(self) -> bool:
        return not any(c for row in self.doubled for e in row for c in e)

    def integral_coords(self) -> tuple[tuple[tuple[int, ...], ...], ...] | None:
        """Per-entry integral coordinates, or None if some entry is not in O."""
        if any(c % 2 for row in self.doubled for e in row for c in e):
            return None
        return tuple(tuple(tuple(c // 2 for c in e) for e in row) for row in self.doubled)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GramForm):
            return NotImplemented
        return self.field == other.field and self.doubled == other.doubled

    def __hash__(self) -> int:
        return hash((self.field.shape.radicands, self.doubled))

    def __repr__(self) -> str:
        return f"GramForm({self.field.shape}, rank={self.rank})"


def perp_unit(gram: GramForm) -> GramForm:
    """The orthogonal sum gram (+) <1>, one rank higher."""
    d = gram.field.degree
    zero = (0,) * d
    rows = [row + (zero,) for row in gram.doubled]
    rows.append((zero,) * gram.rank + ((2,) + (0,) * (d - 1),))
    return GramForm.from_doubled(gram.field, rows)


def totally_psd(gram: GramForm) -> bool:
    """Exact total positive semidefiniteness of the Gram matrix, tested on
    2G, whose semidefiniteness is that of G."""
    return gram.field.coords_psd(gram.doubled)


def gram_rank(gram: GramForm) -> int:
    """Rank of the matrix over the field (equal at every embedding).

    A symmetric matrix of rank k has a nonsingular principal k x k
    submatrix and no larger one, so the rank is the largest order of a
    nonzero principal minor of 2G; a full-rank Gram costs one determinant.
    """
    field = gram.field
    m = gram.doubled
    for size in range(gram.rank, 0, -1):
        for subset in itertools.combinations(range(gram.rank), size):
            if any(field.det_coords([[m[i][j] for j in subset] for i in subset])):
                return size
    return 0


class Certificate:
    """A sums-of-squares witness: rows V with sum row^T row equal to a Gram."""

    __slots__ = ("field", "rank", "rows")

    def __init__(
        self, field: Field, rank: int, rows: tuple[tuple[OElement, ...], ...]
    ) -> None:
        for row in rows:
            if len(row) != rank:
                raise ValueError("row dimension must equal the rank")
            if all(v.is_zero() for v in row):
                raise ValueError("certificates must not contain zero rows")
            for v in row:
                if v.field != field:
                    raise ValueError("row entries must live in the field")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "rows", tuple(tuple(row) for row in rows))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Certificate values are immutable")

    def __len__(self) -> int:
        return len(self.rows)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Certificate):
            return NotImplemented
        return (
            self.field == other.field
            and self.rank == other.rank
            and self.rows == other.rows
        )

    def __repr__(self) -> str:
        return f"Certificate({self.field.shape}, rank={self.rank}, rows={len(self.rows)})"


@dataclass(frozen=True)
class VerifyResult:
    ok: bool
    reason: str | None = None

    def __bool__(self) -> bool:
        return self.ok


def verify_certificate(gram: GramForm, cert: Certificate) -> VerifyResult:
    """Exact check that the rows reproduce the Gram matrix."""
    if cert.field != gram.field:
        return VerifyResult(False, "field-mismatch")
    if cert.rank != gram.rank:
        return VerifyResult(False, "rank-mismatch")
    for k, row in enumerate(cert.rows):
        if all(v.is_zero() for v in row):
            return VerifyResult(False, f"zero-row:{k}")
        for v in row:
            if v.field != gram.field:
                return VerifyResult(False, f"entry-field-mismatch:{k}")
    total = _doubled_outer_sum(gram.field, gram.rank, cert.rows)
    for i in range(gram.rank):
        for j in range(i, gram.rank):
            # a half-integral entry has an odd coordinate and matches no row sum
            if gram.doubled[i][j] != total[i][j]:
                return VerifyResult(False, f"gram-mismatch:{i},{j}")
    return VerifyResult(True)
