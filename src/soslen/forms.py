"""Gram matrices of quadratic forms and their sums-of-squares certificates."""

from __future__ import annotations

from dataclasses import dataclass

from .fields import Field, NotIntegralError, OElement
from .radicals import Radical


def _outer_sum(field: Field, rank: int, rows) -> list[list[tuple[int, ...]]]:
    """Integral coordinates of the sum of row (x) row over rows of OElements."""
    zero = (0,) * field.degree
    total = [[zero] * rank for _ in range(rank)]
    for row in rows:
        for i in range(rank):
            for j in range(i, rank):
                p = field.mul_coords(row[i].coords, row[j].coords)
                total[i][j] = tuple(a + b for a, b in zip(total[i][j], p))
    for i in range(rank):
        for j in range(i):
            total[i][j] = total[j][i]
    return total


class GramForm:
    """A symmetric Gram matrix over a field's ring of integers.

    Diagonal entries must be integral and doubled off-diagonal entries
    integral (classical integrality); a form that is a sum of squares of
    integral linear forms automatically has all entries integral.
    """

    __slots__ = ("field", "rank", "entries")

    def __init__(self, field: Field, entries: tuple[tuple[Radical, ...], ...]) -> None:
        r = len(entries)
        if r < 1 or any(len(row) != r for row in entries):
            raise ValueError("entries must form a square matrix of rank >= 1")
        two = Radical.from_rational(field.shape, 2)
        for i in range(r):
            for j in range(r):
                e = entries[i][j]
                if e.shape != field.shape:
                    raise ValueError("entry shape does not match the field")
                if e != entries[j][i]:
                    raise ValueError("gram matrix must be symmetric")
                if i == j and field.coords_of(e) is None:
                    raise NotIntegralError(f"diagonal entry {e} is not integral")
                if i != j and field.coords_of(two * e) is None:
                    raise NotIntegralError(f"doubled off-diagonal {e} is not integral")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "rank", r)
        object.__setattr__(self, "entries", tuple(tuple(row) for row in entries))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("GramForm values are immutable")

    @classmethod
    def from_element(cls, alpha: OElement) -> GramForm:
        return cls(alpha.field, ((alpha.to_radical(),),))

    @classmethod
    def from_rows(cls, field: Field, rows: list[tuple[OElement, ...]] | tuple) -> GramForm:
        """The Gram matrix sum of row_i (x) row_i of integral row vectors."""
        if not rows:
            raise ValueError("at least one row is required to infer the rank")
        total = _outer_sum(field, len(rows[0]), rows)
        return cls(
            field, tuple(tuple(field.radical_of_coords(c) for c in row) for row in total)
        )

    @classmethod
    def zero(cls, field: Field, rank: int) -> GramForm:
        z = Radical.zero(field.shape)
        return cls(field, tuple(tuple(z for _ in range(rank)) for _ in range(rank)))

    def is_zero(self) -> bool:
        return all(e.is_zero() for row in self.entries for e in row)

    def integral_coords(self) -> tuple[tuple[tuple[int, ...], ...], ...] | None:
        """Per-entry integral coordinates, or None if some entry is not in O."""
        out = []
        for row in self.entries:
            crow = []
            for e in row:
                c = self.field.coords_of(e)
                if c is None:
                    return None
                crow.append(c)
            out.append(tuple(crow))
        return tuple(out)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GramForm):
            return NotImplemented
        return self.field == other.field and self.entries == other.entries

    def __hash__(self) -> int:
        return hash((self.field.shape.radicands, self.entries))

    def __repr__(self) -> str:
        return f"GramForm({self.field.shape}, rank={self.rank})"


def perp_unit(gram: GramForm) -> GramForm:
    """The orthogonal sum gram (+) <1>, one rank higher."""
    shape = gram.field.shape
    zero = Radical.zero(shape)
    r = gram.rank
    rows = []
    for i in range(r):
        rows.append(tuple(gram.entries[i]) + (zero,))
    rows.append(tuple(zero for _ in range(r)) + (Radical.one(shape),))
    return GramForm(gram.field, tuple(rows))


def totally_psd(gram: GramForm) -> bool:
    """Exact total positive semidefiniteness of the Gram matrix.

    Tested on 2G, whose entries are integral by the classical integrality
    of GramForm and whose semidefiniteness is that of G.
    """
    field = gram.field
    doubled = [[field.coords_of(e.scale(2)) for e in row] for row in gram.entries]
    return field.coords_psd(doubled)


def gram_rank(gram: GramForm) -> int:
    """Rank of the matrix over the field (equal at every embedding)."""
    m = [list(row) for row in gram.entries]
    n = gram.rank
    rank = 0
    for col in range(n):
        piv = next((r for r in range(rank, n) if not m[r][col].is_zero()), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = m[rank][col].inverse()
        m[rank] = [v * inv for v in m[rank]]
        for r in range(n):
            if r != rank and not m[r][col].is_zero():
                f = m[r][col]
                m[r] = [v - f * p for v, p in zip(m[r], m[rank])]
        rank += 1
    return rank


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
    field = gram.field
    total = _outer_sum(field, gram.rank, cert.rows)
    for i in range(gram.rank):
        for j in range(i, gram.rank):
            # an entry outside O has no coordinates and matches no row sum
            if field.coords_of(gram.entries[i][j]) != total[i][j]:
                return VerifyResult(False, f"gram-mismatch:{i},{j}")
    return VerifyResult(True)
