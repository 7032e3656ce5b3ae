"""Exact arithmetic and sign determination in Q(sqrt(m), sqrt(n)).

Numbers are stored as exact rational coordinates over the radical basis
(1, sqrt(m), sqrt(n), sqrt(c)) where c = mn/gcd(m,n)^2, so that all three
radicands stay squarefree and the basis is linearly independent over Q.
Quadratic fields use (1, sqrt(n)); the rationals use (1).

Real-embedding signs are decided exactly, with no approximation, in the
tower Q < Q(sqrt m) < Q(sqrt m, sqrt n) on integer numerators: the sign of
a + b sqrt(r) is that of a when a and b agree, and otherwise that of a times
the sign of a^2 - b^2 r, which is one level down and is not 0.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm

Rat = Fraction

#: A real embedding, given by the signs it assigns to sqrt(m) and sqrt(n).
#: () for Q, (s1,) for quadratic, (s1, s2) for biquadratic shapes.
Embedding = tuple[int, ...]

#: Largest radicand accepted; larger ones are refused before the
#: squarefree test, whose trial division up to sqrt(r) would not finish.
MAX_RADICAND = 10**9


class InvalidRadicandError(ValueError):
    """Radicands must be squarefree, distinct integers > 1."""


def is_squarefree(n: int) -> bool:
    if n < 1:
        return False
    d = 2
    while d * d <= n:
        if n % (d * d) == 0:
            return False
        d += 1
    return True


@dataclass(frozen=True)
class Shape:
    """Field shape: no radicand (Q), one (quadratic) or two (biquadratic)."""

    radicands: tuple[int, ...]

    def __post_init__(self) -> None:
        rs = self.radicands
        if len(rs) > 2:
            raise InvalidRadicandError("at most two radicands are supported")
        for r in rs:
            if r <= 1:
                raise InvalidRadicandError(f"radicand {r} must exceed 1")
            if r > MAX_RADICAND:
                raise InvalidRadicandError(f"radicand {r} exceeds {MAX_RADICAND}")
            if not is_squarefree(r):
                raise InvalidRadicandError(f"radicand {r} is not squarefree")
        if len(rs) == 2 and rs[0] >= rs[1]:
            raise InvalidRadicandError("radicands must satisfy m < n")

    @property
    def degree(self) -> int:
        return 1 << len(self.radicands)

    @cached_property
    def basis_radicands(self) -> tuple[int, ...]:
        """Radicands under the coordinates: () -> (1,), (n,) -> (1, n),
        (m, n) -> (1, m, n, c) with c = mn/gcd(m, n)^2."""
        if not self.radicands:
            return (1,)
        if len(self.radicands) == 1:
            return (1, self.radicands[0])
        m, n = self.radicands
        g = gcd(m, n)
        return (1, m, n, (m // g) * (n // g))

    @cached_property
    def embeddings(self) -> tuple[Embedding, ...]:
        """All real embeddings, identity first."""
        if not self.radicands:
            return ((),)
        if len(self.radicands) == 1:
            return ((1,), (-1,))
        return ((1, 1), (1, -1), (-1, 1), (-1, -1))

    def embedding_signs(self, emb: Embedding) -> tuple[int, ...]:
        """Signs applied to each coordinate (1, sqrt m, sqrt n, sqrt c)."""
        if not self.radicands:
            return (1,)
        if len(self.radicands) == 1:
            return (1, emb[0])
        s1, s2 = emb
        return (1, s1, s2, s1 * s2)

    @cached_property
    def _mul_table(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """(target index, integer factor) for products of basis radicals."""
        d = self.degree
        if d == 1:
            return (((0, 1),),)
        if d == 2:
            n = self.radicands[0]
            return (((0, 1), (1, 1)), ((1, 1), (0, n)))
        m, n = self.radicands
        g = gcd(m, n)
        c = (m // g) * (n // g)
        # sqrt(m) sqrt(n) = g sqrt(c); sqrt(m) sqrt(c) = (m/g) sqrt(n); etc.
        return (
            ((0, 1), (1, 1), (2, 1), (3, 1)),
            ((1, 1), (0, m), (3, g), (2, m // g)),
            ((2, 1), (3, g), (0, n), (1, n // g)),
            ((3, 1), (2, m // g), (1, n // g), (0, c)),
        )

    def mul(self, a: tuple, b: tuple) -> tuple:
        """Product of two radical-coordinate tuples, of ints or Fractions."""
        table = self._mul_table
        out = [0] * self.degree
        for i, x in enumerate(a):
            if not x:
                continue
            row = table[i]
            for j, y in enumerate(b):
                if y:
                    k, factor = row[j]
                    out[k] += x * y * factor
        return tuple(out)

    def __str__(self) -> str:
        if not self.radicands:
            return "Q"
        if len(self.radicands) == 1:
            return f"Q(sqrt {self.radicands[0]})"
        return f"Q(sqrt {self.radicands[0]}, sqrt {self.radicands[1]})"


RATIONAL_SHAPE = Shape(())


def _sign(v: int) -> int:
    return (v > 0) - (v < 0)


def _quadratic_sign(a: int, b: int, r: int) -> int:
    """Sign of a + b sqrt(r) for integers a, b and a non-square r > 1."""
    sa, sb = _sign(a), _sign(b)
    if sa == sb or not sb:
        return sa
    if not sa:
        return sb
    return sa * _sign(a * a - b * b * r)


def _clear_denominators(x: Radical) -> tuple[int, tuple[int, ...]]:
    """(k, y) with x = y/k, k > 0 and y integer radical coordinates."""
    k = lcm(*(q.denominator for q in x.coords))
    return k, tuple(q.numerator * (k // q.denominator) for q in x.coords)


@dataclass(frozen=True, slots=True, init=False, repr=False)
class Radical:
    """An exact element q0 + q1 sqrt(m) + q2 sqrt(n) + q3 sqrt(c) of a shape."""

    shape: Shape
    coords: tuple[Rat, ...]

    def __init__(self, shape: Shape, coords: tuple[Rat, ...]) -> None:
        if len(coords) != shape.degree:
            raise ValueError("coordinate count must equal the shape degree")
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "coords", tuple(Rat(q) for q in coords))

    @classmethod
    def from_rational(cls, shape: Shape, q: Rat | int) -> Radical:
        coords = [Rat(q)] + [Rat(0)] * (shape.degree - 1)
        return cls(shape, tuple(coords))

    @classmethod
    def zero(cls, shape: Shape) -> Radical:
        return cls.from_rational(shape, 0)

    @classmethod
    def one(cls, shape: Shape) -> Radical:
        return cls.from_rational(shape, 1)

    @classmethod
    def sqrt_generator(cls, shape: Shape, index: int) -> Radical:
        """sqrt(m) for index 0, sqrt(n) for index 1."""
        coords = [Rat(0)] * shape.degree
        coords[index + 1] = Rat(1)
        return cls(shape, tuple(coords))

    def is_zero(self) -> bool:
        return all(q == 0 for q in self.coords)

    def _check_shape(self, other: Radical) -> None:
        if self.shape != other.shape:
            raise ValueError("operands must share a shape")

    def __add__(self, other: Radical) -> Radical:
        self._check_shape(other)
        return Radical(self.shape, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: Radical) -> Radical:
        self._check_shape(other)
        return Radical(self.shape, tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> Radical:
        return Radical(self.shape, tuple(-a for a in self.coords))

    def __mul__(self, other: Radical) -> Radical:
        self._check_shape(other)
        return Radical(self.shape, self.shape.mul(self.coords, other.coords))

    def scale(self, q: Rat | int) -> Radical:
        q = Rat(q)
        return Radical(self.shape, tuple(a * q for a in self.coords))

    def trace(self) -> Rat:
        """Sum over all embeddings; the radical parts cancel."""
        return self.shape.degree * self.coords[0]

    def sign_at(self, emb: Embedding) -> int:
        """Exact sign of the embedding value: -1, 0 or +1."""
        _, u = _clear_denominators(self)
        y = [v * s for v, s in zip(u, self.shape.embedding_signs(emb))]
        rs = self.shape.radicands
        if not rs:
            return _sign(y[0])
        if len(rs) == 1:
            return _quadratic_sign(y[0], y[1], rs[0])
        # x = u / k and sqrt(c) = sqrt(m) sqrt(n) / g, so g k x is
        # P + Q sqrt(n) with P = a + b sqrt(m) and Q = e + f sqrt(m)
        m, n = rs
        g = gcd(m, n)
        a, b, e, f = g * y[0], g * y[1], g * y[2], y[3]
        sp, sq = _quadratic_sign(a, b, m), _quadratic_sign(e, f, m)
        if sp == sq or not sq:
            return sp
        if not sp:
            return sq
        # P^2 - n Q^2, which is not 0 as sqrt(n) is not in Q(sqrt m)
        return sp * _quadratic_sign(
            a * a + m * b * b - n * (e * e + m * f * f), 2 * (a * b - n * e * f), m
        )

    def __str__(self) -> str:
        return render_radical(self)

    def __repr__(self) -> str:
        return f"Radical({self.shape}, {self.coords})"


def render_radical(x: Radical) -> str:
    """Canonical rendering "q0 + q1*sqrt(m) + q2*sqrt(n) + q3*sqrt(mn)".

    Coefficients are printed against the literal radicands m, n and mn; for
    shapes with gcd(m, n) = g > 1 the stored sqrt(c) coordinate is rescaled
    by 1/g exactly.
    """
    shape = x.shape
    if not shape.radicands:
        return str(x.coords[0])
    if len(shape.radicands) == 1:
        n = shape.radicands[0]
        return f"{x.coords[0]} + {x.coords[1]}*sqrt({n})"
    m, n = shape.radicands
    g = gcd(m, n)
    q3 = x.coords[3] / g
    return (
        f"{x.coords[0]} + {x.coords[1]}*sqrt({m})"
        f" + {x.coords[2]}*sqrt({n}) + {q3}*sqrt({m * n})"
    )


_TERM_RE = re.compile(r"^(-?\d+(?:/\d+)?)(?:\*sqrt\((\d+)\))?$")


def parse_radical(shape: Shape, text: str) -> Radical:
    """Parse the canonical rendering back into a value of the given shape."""
    parts = [p.strip() for p in text.replace(" ", "").split("+")]
    expected = _rendered_radicands(shape)
    if len(parts) != len(expected):
        raise ValueError(f"expected {len(expected)} terms, got {len(parts)}")
    coords: list[Rat] = []
    for part, want in zip(parts, expected):
        m = _TERM_RE.match(part)
        if not m:
            raise ValueError(f"malformed term {part!r}")
        rad = int(m.group(2)) if m.group(2) else 1
        if rad != want:
            raise ValueError(f"term {part!r} has radicand {rad}, expected {want}")
        try:
            coords.append(Rat(m.group(1)))
        except ZeroDivisionError:
            raise ValueError(f"term {part!r} has a zero denominator") from None
    return from_literal_coords(shape, tuple(coords))


def _rendered_radicands(shape: Shape) -> tuple[int, ...]:
    if not shape.radicands:
        return (1,)
    if len(shape.radicands) == 1:
        return (1, shape.radicands[0])
    m, n = shape.radicands
    return (1, m, n, m * n)


def from_literal_coords(shape: Shape, coords: tuple[Rat, ...]) -> Radical:
    """Build a value from coordinates over (1, sqrt m, sqrt n, sqrt(mn)),
    the way elements are written down, rescaling sqrt(mn) onto sqrt(c)."""
    if len(coords) != shape.degree:
        raise ValueError(
            f"shape {shape} needs {shape.degree} coordinates, got {len(coords)}"
        )
    coords = tuple(Rat(q) for q in coords)
    if len(shape.radicands) == 2:
        m, n = shape.radicands
        g = gcd(m, n)
        coords = coords[:3] + (coords[3] * g,)
    return Radical(shape, coords)


def to_literal_coords(x: Radical) -> tuple[Rat, ...]:
    """Coordinates over (1, sqrt m, sqrt n, sqrt(mn)); inverse of the above."""
    if len(x.shape.radicands) == 2:
        m, n = x.shape.radicands
        g = gcd(m, n)
        return x.coords[:3] + (x.coords[3] / g,)
    return x.coords


def parse_coords(shape: Shape, text: str) -> Radical:
    """Parse the comma grammar "q0,q1[,q2,q3]" of literal coordinates."""
    parts = [p.strip() for p in text.split(",")]
    try:
        coords = tuple(Rat(p) for p in parts)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad coordinate list {text!r}: {exc}") from None
    return from_literal_coords(shape, coords)

