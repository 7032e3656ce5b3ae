"""Rings of integers of the supported field shapes.

A Field carries a verified integral basis of the maximal order, found on
integers: each integral element is y/4 with y integer radical coordinates,
and y/k is integral iff k^(d-i) divides the X^i-coefficient of the integer
characteristic polynomial of y, whose roots, the conjugates of y, flip the
signs of y's coordinates.  The integral y are brought to a canonical
triangular basis, and a discriminant equal to the conductor-discriminant
prediction certifies that the order is maximal, not a smaller one.
"""

from __future__ import annotations

import itertools
import math
from functools import cached_property, lru_cache, reduce
from math import isqrt, lcm
from operator import add, mul, sub
from typing import Callable

from .radicals import (
    Embedding,
    Radical,
    Rat,
    Shape,
    _clear_denominators,
    parse_descriptor,
    render_numerators,
    value_type,
)

EMBEDDING_TABLE_BITS = 96
_TABLE_GUARD_BITS = 64  # extra bits of each root under the table entries
_INV_SQRT_BITS = 16
_MID_SCALE = 2.0 ** -(EMBEDDING_TABLE_BITS + 1)  # float of (lo + hi) / 2 / 2^table bits

#: Fields kept by make_field; programs use a few shapes, a rebuild is cheap.
FIELD_CACHE_SIZE = 64


class NotIntegralError(ValueError):
    """The element is not in the ring of integers."""


def _quadratic_disc(n: int) -> int:
    return n if n % 4 == 1 else 4 * n


def expected_discriminant(shape: Shape) -> int:
    if not shape.radicands:
        return 1
    if len(shape.radicands) == 1:
        return _quadratic_disc(shape.radicands[0])
    disc = 1
    for r in shape.basis_radicands[1:]:
        disc *= _quadratic_disc(r)
    return disc


def _integer_charpoly(shape: Shape, y: tuple[int, ...]) -> list[int]:
    """Coefficients of prod over embeddings of (X - sigma(y)), constant
    first, for integer radical coordinates y.  The conjugates of y flip the
    signs of its coordinates, and the product is rational."""
    zero = (0,) * shape.degree
    coeffs = [(1,) + zero[1:]]
    for emb in shape.embeddings:
        root = tuple(s * v for s, v in zip(shape.embedding_signs(emb), y))
        # times (X - root): new_i = old_{i-1} - old_i * root
        coeffs = [
            tuple(a - b for a, b in zip(lower, shape.mul(c, root)))
            for lower, c in zip([zero] + coeffs, coeffs + [zero])
        ]
    assert not any(v for c in coeffs for v in c[1:])
    return [c[0] for c in coeffs]


def _is_integral_numerator(shape: Shape, y: tuple[int, ...], k: int) -> bool:
    """Whether y/k is an algebraic integer: its characteristic polynomial
    has X^i-coefficient p_i / k^(d-i), where p is that of y."""
    d = shape.degree
    return all(p % k ** (d - i) == 0 for i, p in enumerate(_integer_charpoly(shape, y)))


def is_algebraic_integer(x: Radical) -> bool:
    k, y = _clear_denominators(x)
    return _is_integral_numerator(x.shape, y, k)


def _echelon_basis(rows: list[list[int]], dim: int) -> list[list[int]]:
    """Canonical lower-triangular basis of the lattice spanned by rows.

    Row k of the result has its last nonzero entry at column k, a positive
    pivot, and entries below each earlier pivot reduced into [0, pivot).
    """
    pool = [list(r) for r in rows if any(r)]
    basis: list[list[int]] = [[] for _ in range(dim)]
    for col in range(dim - 1, -1, -1):
        active = [r for r in pool if r[col] != 0]
        pool = [r for r in pool if r[col] == 0]
        if not active:
            raise ValueError("generators do not span a full-rank lattice")
        while len(active) > 1:
            active.sort(key=lambda r: abs(r[col]))
            p = active[0]
            survivors = [p]
            for r in active[1:]:
                q = r[col] // p[col]
                reduced = [a - q * b for a, b in zip(r, p)]
                if reduced[col] != 0:
                    survivors.append(reduced)
                elif any(reduced):
                    pool.append(reduced)
            if len(survivors) == 1:
                break
            active = survivors
        pivot = active[0]
        if pivot[col] < 0:
            pivot = [-a for a in pivot]
        basis[col] = pivot
    for i in range(dim):
        for j in range(i - 1, -1, -1):
            q = basis[i][j] // basis[j][j]
            if q:
                basis[i] = [a - q * b for a, b in zip(basis[i], basis[j])]
    return basis


def _invert_matrix(m: list[list[Rat]]) -> list[list[Rat]]:
    n = len(m)
    aug = [[Rat(v) for v in row] + [Rat(int(i == j)) for j in range(n)] for i, row in enumerate(m)]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = Rat(1) / aug[col][col]
        aug[col] = [v * inv for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [v - f * p for v, p in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def _multiplier(tensor) -> Callable[[tuple[int, ...], tuple[int, ...]], tuple[int, ...]]:
    """The product of coordinate tuples for the multiplication tensor, as
    straight-line code: tensor[i][j] holds the coordinates of b_i b_j, which
    equal those of b_j b_i, so each pair i <= j is multiplied once, and
    output k sums the pair products with the integer weights tensor[i][j][k].
    The generated source holds nothing but those integers."""
    d = len(tensor)
    lines = [
        "def mul_coords(a, b):",
        f"    {''.join(f'a{i}, ' for i in range(d))}= a",
        f"    {''.join(f'b{i}, ' for i in range(d))}= b",
    ]
    sums: list[list[str]] = [[] for _ in range(d)]
    for i in range(d):
        for j in range(i, d):
            if tensor[i][j] != tensor[j][i]:
                raise AssertionError("basis products do not commute")
            cross = "" if i == j else f" + a{j} * b{i}"
            lines.append(f"    p{i}_{j} = a{i} * b{j}{cross}")
            for k, w in enumerate(tensor[i][j]):
                if w:
                    term = f"p{i}_{j}" if abs(w) == 1 else f"{abs(w)} * p{i}_{j}"
                    sums[k].append(("+ " if w > 0 else "- ") + term)
    outputs = [" ".join(terms).removeprefix("+ ") or "0" for terms in sums]
    lines.append(f"    return ({''.join(f'{out}, ' for out in outputs)})")
    namespace: dict = {}
    exec("\n".join(lines), namespace)
    return namespace["mul_coords"]


class Field:
    """A ring of integers with its integral basis and real embeddings."""

    def __init__(self, shape: Shape) -> None:
        self.shape = shape
        self.degree = shape.degree
        self.embeddings: tuple[Embedding, ...] = shape.embeddings
        self.integral_basis: tuple[Radical, ...] = self._build_basis()
        self._prepare_membership()
        self._prepare_arithmetic()
        self.discriminant = self._trace_form_determinant()
        expected = expected_discriminant(shape)
        if self.discriminant != expected:
            raise AssertionError(
                f"basis discriminant {self.discriminant} differs from the "
                f"predicted {expected} for {shape}"
            )
        self._prepare_embedding_tables()

    # construction ------------------------------------------------------

    def _build_basis(self) -> tuple[Radical, ...]:
        """The canonical basis of the maximal order, on integer rows y = 4x:
        the radical basis (rows 4 e_i) and every nonzero residue y mod 4
        with y/4 integral (the halves are 2y/4), brought to echelon form.
        Keeps the rows' columns for numerators_of_coords."""
        shape = self.shape
        d = self.degree
        rows = [[4 * (i == j) for j in range(d)] for i in range(d)]
        for y in itertools.product(range(4), repeat=d):
            if any(y) and _is_integral_numerator(shape, y, 4):
                rows.append(list(y))
        rows = _echelon_basis(rows, d)
        self._basis_columns4 = tuple(zip(*rows))
        basis = tuple(Radical(shape, tuple(Rat(v, 4) for v in row)) for row in rows)
        assert basis[0] == Radical.one(shape), "1 must generate the rational part"
        for b in basis:
            assert is_algebraic_integer(b)
        return basis

    def _prepare_membership(self) -> None:
        m = [[Rat(q) for q in b.coords] for b in self.integral_basis]
        inv = _invert_matrix(m)
        den = lcm(*(v.denominator for row in inv for v in row))
        self._minv_den = den
        self._minv_int = [[int(v * den) for v in row] for row in inv]
        self._minv_cols = tuple(zip(*self._minv_int))
        # |sigma(x)| <= t at every embedding bounds the radical coordinate of
        # sqrt(r_j) by t / (d sqrt(r_j)), and coordinate i of x by the sum
        # over j of that times |minv[j][i]| / den.  With 1/sqrt(r_j) rounded
        # up to 2^16 / q_j, q_j = isqrt(r_j 2^32), and t = s / 2^48 for an
        # integer s, coordinate i is at most s * _box_nums[i] / _box_den.
        roots = [isqrt(r << (2 * _INV_SQRT_BITS)) for r in self.shape.basis_radicands]
        common = lcm(*roots)
        d = self.degree
        self._box_nums = tuple(
            sum(common // q * abs(self._minv_int[j][i]) for j, q in enumerate(roots))
            for i in range(d)
        )
        self._box_den = (
            common * d * den << (EMBEDDING_TABLE_BITS // 2 - _INV_SQRT_BITS)
        )

    def _prepare_arithmetic(self) -> None:
        d = self.degree
        tensor: list[list[tuple[int, ...]]] = []
        for i in range(d):
            row = []
            for j in range(d):
                prod = self.integral_basis[i] * self.integral_basis[j]
                coords = self.coords_of(prod)
                if coords is None:
                    raise AssertionError("integral basis is not closed under products")
                row.append(coords)
            tensor.append(row)
        self._mul_tensor = tuple(tuple(r) for r in tensor)
        self.mul_coords = _multiplier(self._mul_tensor)
        traces = []
        for b in self.integral_basis:
            t = b.trace()
            assert t.denominator == 1
            traces.append(t.numerator)
        self._basis_traces = tuple(traces)

    def _trace_form_determinant(self) -> int:
        """det [Tr(b_i b_j)], the discriminant of the basis."""
        # trace-form entries are rational, written as t * basis[0] = t * 1
        pad = (0,) * (self.degree - 1)
        gram = [[(self.trace_of_coords(prod),) + pad for prod in row] for row in self._mul_tensor]
        order = tuple(range(self.degree))
        return self.minor(gram, order, order, {})[0]

    def norm_of_coords(self, coords: tuple[int, ...]) -> int:
        """N(x), the product of the embedding values of x: the conjugates of
        the radical numerators y = 4x flip the signs of y's coordinates, and
        their product is 4^d N(x), a rational."""
        shape = self.shape
        y = self.numerators_of_coords(coords)
        conjugates = [tuple(map(mul, shape.embedding_signs(emb), y)) for emb in self.embeddings]
        return reduce(shape.mul, conjugates)[0] // 4**self.degree

    def _prepare_embedding_tables(self) -> None:
        # sigma(b) 2^96 is the sum of y_i s_i sqrt(r_i) 2^96 / 4 for b = y/4;
        # sqrt(r_i) 2^(96 + guard) is q_i for r_0 = 1 and in (q_i, q_i + 1)
        # for the others, and the sum is rounded outward to 2^96
        bits = EMBEDDING_TABLE_BITS + _TABLE_GUARD_BITS
        roots = [isqrt(r << 2 * bits) for r in self.shape.basis_radicands]
        div = 4 << _TABLE_GUARD_BITS
        lo_tab = []
        hi_tab = []
        for emb in self.embeddings:
            signs = self.shape.embedding_signs(emb)
            lo_row = []
            hi_row = []
            for y in zip(*self._basis_columns4):
                v = list(map(mul, y, signs))
                mid = sum(map(mul, v, roots))
                lo_row.append((mid + sum(min(a, 0) for a in v[1:])) // div)
                hi_row.append(-(-(mid + sum(max(a, 0) for a in v[1:])) // div))
            lo_tab.append(tuple(lo_row))
            hi_tab.append(tuple(hi_row))
        self._emb_lo = tuple(lo_tab)
        self._emb_hi = tuple(hi_tab)
        # the widest enclosure of a basis element: 0 only in degree 1, where
        # the tables, and the floats read off them, are exact
        self._table_width = max(h - l for row in zip(lo_tab, hi_tab) for l, h in zip(*row))
        # the basis at every embedding as floats, the midpoints of the
        # enclosures, and per coordinate the weight of |c| in the error of
        # the float sum of c times them at any embedding: (d + 3) 2^-53
        # |float| covers the rounding of c, of the product and of the sum,
        # and the half-width the distance of the midpoint from the truth
        self._emb_floats = tuple(
            tuple([(l + h) * _MID_SCALE for l, h in zip(*row)]) for row in zip(lo_tab, hi_tab)
        )
        weights = [
            [(self.degree + 3) * 2.0**-53 * abs(f) + (h - l) * _MID_SCALE for f, l, h in zip(*row)]
            for row in zip(self._emb_floats, lo_tab, hi_tab)
        ]
        self._emb_float_weights = tuple(map(max, zip(*weights)))
        # (lo, hi) of each basis element at every embedding, from which the
        # column scan encloses its prefixes and its slice supports
        self._basis_enclosures = tuple(
            tuple(zip(col_lo, col_hi)) for col_lo, col_hi in zip(zip(*lo_tab), zip(*hi_tab))
        )

    # conversions ---------------------------------------------------------

    def coords_of(self, x: Radical) -> tuple[int, ...] | None:
        """Integral-basis coordinates of x, or None when x is not integral."""
        if x.shape != self.shape:
            raise ValueError("element shape does not match the field")
        den, u = _clear_denominators(x)
        return self.coords_of_numerators(u, den)

    def coords_of_numerators(self, u: tuple[int, ...], den: int) -> tuple[int, ...] | None:
        """Integral-basis coordinates of u/den, for integer radical
        coordinates u and den > 0, or None when it is not integral."""
        div = self._minv_den * den
        out = []
        for col in self._minv_cols:
            q, r = divmod(sum(map(mul, u, col)), div)
            if r:
                return None
            out.append(q)
        return tuple(out)

    def element(self, x: Radical) -> OElement:
        if x.shape != self.shape:
            raise ValueError("element shape does not match the field")
        den, u = _clear_denominators(x)
        return self.element_of_numerators(u, den)

    def element_of_numerators(self, u: tuple[int, ...], den: int) -> OElement:
        """The element u/den; NotIntegralError when it is not integral."""
        coords = self.coords_of_numerators(u, den)
        if coords is None:
            e = render_numerators(self.shape, u, den)
            raise NotIntegralError(f"{e} is not integral in {self.shape}")
        return OElement(self, coords)

    def element_from_coords(self, coords: tuple[int, ...]) -> OElement:
        return OElement(self, tuple(int(c) for c in coords))

    def numerators_of_coords(self, coords: tuple[int, ...]) -> tuple[int, ...]:
        """The integer radical coordinates y of 4x, for x with the given
        integral-basis coordinates."""
        return tuple([sum(map(mul, coords, col)) for col in self._basis_columns4])

    def radical_of_coords(self, coords: tuple[int, ...]) -> Radical:
        return Radical(self.shape, tuple(Rat(y, 4) for y in self.numerators_of_coords(coords)))

    def zero(self) -> OElement:
        return OElement(self, (0,) * self.degree)

    def one(self) -> OElement:
        return OElement(self, (1,) + (0,) * (self.degree - 1))

    # coordinate arithmetic (hot paths stay on plain int tuples) -----------

    def minor(self, m, rows: tuple, cols: tuple, memo: dict) -> tuple[int, ...]:
        """det m[rows, cols] for a symmetric matrix m of coordinate tuples, by
        expansion along the first row.  Minors of size >= 2 are memoized in
        memo, which serves one matrix: m[rows, cols] and m[cols, rows] share
        an entry."""
        if len(rows) == 1:
            return m[rows[0]][cols[0]]
        key = (rows, cols) if rows <= cols else (cols, rows)
        det = memo.get(key)
        if det is None:
            det = (0,) * self.degree
            first, below = m[rows[0]], rows[1:]
            for j, c in enumerate(cols):
                if any(first[c]):
                    term = self.mul_coords(
                        first[c], self.minor(m, below, cols[:j] + cols[j + 1 :], memo)
                    )
                    det = tuple(map(sub if j % 2 else add, det, term))
            memo[key] = det
        return det

    def trace_of_coords(self, coords: tuple[int, ...]) -> int:
        return sum(map(mul, coords, self._basis_traces))

    def interval_of_coords(
        self, coords: tuple[int, ...], emb_index: int
    ) -> tuple[int, int]:
        """Integer enclosure of the embedding value, scaled by 2^table bits."""
        lo_row = self._emb_lo[emb_index]
        hi_row = self._emb_hi[emb_index]
        lo = hi = 0
        for c, l, h in zip(coords, lo_row, hi_row):
            if c > 0:
                lo += c * l
                hi += c * h
            elif c < 0:
                lo += c * h
                hi += c * l
        return lo, hi

    def floats_of_coords(self, coords: tuple[int, ...]) -> tuple[list[float], float]:
        """The embedding values as floats, from the basis floats, and a
        bound on the distance of each from the truth, which is 0 when they
        are exact."""
        n_emb = len(self.embeddings)
        if not any(coords):
            return [0.0] * n_emb, 0.0
        try:
            if not self._table_width:  # degree 1, where the basis is 1
                (c,) = coords
                value = float(c)
                return [value], 0.0 if abs(c) < 2**53 else 2.0**-52 * abs(value)
            return (
                [sum(map(mul, coords, row)) for row in self._emb_floats],
                sum(map(mul, map(abs, coords), self._emb_float_weights)) * (1 + 2.0**-40),
            )
        except OverflowError:
            return [0.0] * n_emb, math.inf

    def sign_of_coords(self, coords: tuple[int, ...], emb_index: int) -> int:
        """Exact sign of an integral element at the indexed embedding."""
        if not any(coords):
            return 0
        lo, hi = self.interval_of_coords(coords, emb_index)
        if lo > 0:
            return 1
        if hi < 0:
            return -1
        return self.radical_of_coords(coords).sign_at(self.embeddings[emb_index])

    @cached_property
    def _local_floors(self) -> tuple[int, dict[tuple[int, ...], int]]:
        """The mask 2^e - 1 of the coordinates mod 2^e O, e = max(2, 8 // d)
        (at most 256 residues), and the least number of squares summing to
        each residue that is a sum of squares mod 2^e O: one square is added
        per level, until a level reaches no new residue.  For e >= 2,
        (x + 2^(e-1) y)^2 = x^2 + 2^e xy + 2^(2e-2) y^2, so the squares mod
        2^e O are those of x mod 2^(e-1) O."""
        d = self.degree
        e = max(2, 8 // d)
        mask = (1 << e) - 1
        squares = {
            tuple([c & mask for c in self.mul_coords(x, x)])
            for x in itertools.product(range(1 << (e - 1)), repeat=d)
        }
        floors: dict[tuple[int, ...], int] = {}
        level, k = {(0,) * d}, 0
        while level:
            floors.update(dict.fromkeys(level, k))
            k += 1
            sums = {tuple([(u + v) & mask for u, v in zip(a, s)]) for a in level for s in squares}
            level = sums - floors.keys()
        return mask, floors

    def local_floor(self, coords: tuple[int, ...]) -> int | None:
        """The least k such that the integral element is a sum of k squares
        mod 2^e O (`_local_floors`), or None when it is no sum of squares
        there.  Reduction mod 2^e O is a ring map, so an element that is a
        sum of k squares in O is one mod 2^e O, and of every larger number
        of them, since 0 is a square: k is a lower bound on its length."""
        mask, floors = self._local_floors
        return floors.get(tuple([c & mask for c in coords]))

    def coords_totally_nonneg(self, coords: tuple[int, ...]) -> bool:
        return all(
            self.sign_of_coords(coords, e) >= 0 for e in range(len(self.embeddings))
        )

    def coords_totally_positive(self, coords: tuple[int, ...]) -> bool:
        return any(coords) and self.coords_totally_nonneg(coords)

    def coords_psd(self, m) -> bool:
        """Exact total positive semidefiniteness of a symmetric matrix of
        coordinate tuples, of size at least 1.

        At each embedding, a symmetric matrix with at most one nonpositive
        eigenvalue is PSD iff its determinant is >= 0, since the other
        eigenvalues are positive.  A matrix whose leading block of one size
        less is positive definite is such a matrix (Cauchy interlacing), and
        so is a rank-1 downdate A - vv^T of a positive definite A, which
        `search._minor_screens` uses.  So the leading minors are signed
        first: all of them totally positive make m totally positive definite
        (Sylvester's criterion), and one negative at some embedding is a
        negative principal minor.  A nonzero element has no zero conjugate,
        so otherwise some leading minor is 0, and then every principal minor
        is required to be totally nonnegative, each signed once: the other
        diagonal entries first, then the larger minors through the same
        memo, without the leading ones already signed.
        """
        r = len(m)
        memo: dict = {}
        det = m[0][0]
        size = 1  # the size of det, the leading minor being signed
        while any(det):
            if not self.coords_totally_nonneg(det):
                return False
            if size == r:
                return True
            size += 1
            lead = tuple(range(size))
            det = self.minor(m, lead, lead, memo)
        for i in range(1, r):
            if not self.coords_totally_nonneg(m[i][i]):
                return False
        for n in range(2, r + 1):
            subsets = itertools.combinations(range(r), n)
            if n <= size:
                next(subsets)  # the leading minor, signed above
            for subset in subsets:
                if not self.coords_totally_nonneg(self.minor(m, subset, subset, memo)):
                    return False
        return True

    def __eq__(self, other: object) -> bool:
        if other is self:  # make_field keeps one Field per shape
            return True
        if not isinstance(other, Field):
            return NotImplemented
        return self.shape == other.shape

    def __hash__(self) -> int:
        return hash(self.shape)

    def __reduce__(self):
        # rebuilt from its shape: `mul_coords` is generated and cannot be pickled
        return make_field, (self.shape,)

    def __repr__(self) -> str:
        return f"Field({self.shape})"


@lru_cache(maxsize=FIELD_CACHE_SIZE)
def make_field(shape: Shape) -> Field:
    return Field(shape)


@lru_cache(maxsize=FIELD_CACHE_SIZE)
def field_from_descriptor(text: str) -> Field:
    return make_field(parse_descriptor(text))


@value_type
class OElement:
    """An algebraic integer as integer coordinates over the integral basis."""

    field: Field
    coords: tuple[int, ...]

    def __init__(self, field: Field, coords: tuple[int, ...]) -> None:
        if len(coords) != field.degree:
            raise ValueError("coordinate count must equal the field degree")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "coords", tuple(coords))

    def _check(self, other: OElement) -> None:
        if self.field != other.field:
            raise ValueError("operands must live in the same field")

    def __add__(self, other: OElement) -> OElement:
        self._check(other)
        return OElement(self.field, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: OElement) -> OElement:
        self._check(other)
        return OElement(self.field, tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> OElement:
        return OElement(self.field, tuple(-a for a in self.coords))

    def __mul__(self, other: OElement) -> OElement:
        self._check(other)
        return OElement(self.field, self.field.mul_coords(self.coords, other.coords))

    def is_zero(self) -> bool:
        return not any(self.coords)

    def trace(self) -> int:
        return self.field.trace_of_coords(self.coords)

    def to_radical(self) -> Radical:
        return self.field.radical_of_coords(self.coords)

    def sign_at_index(self, emb_index: int) -> int:
        return self.field.sign_of_coords(self.coords, emb_index)

    def __str__(self) -> str:
        field = self.field
        return render_numerators(field.shape, field.numerators_of_coords(self.coords), 4)

    def __repr__(self) -> str:
        return f"OElement({self.field.shape}, {self.coords})"
