"""Exact arithmetic and sign determination in Q(sqrt(m), sqrt(n)).

Numbers are stored as exact rational coordinates over the radical basis
(1, sqrt(m), sqrt(n), sqrt(c)) where c = mn/gcd(m,n)^2, so that all three
radicands stay squarefree and the basis is linearly independent over Q.
Quadratic fields use (1, sqrt(n)); the rationals use (1).

Real-embedding signs are decided exactly: a zero test on coordinates first,
then adaptive outward-rounded dyadic interval refinement, which terminates
because a nonzero element has a nonzero image under every embedding.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, isqrt

Rat = Fraction

#: A real embedding, given by the signs it assigns to sqrt(m) and sqrt(n).
#: () for Q, (s1,) for quadratic, (s1, s2) for biquadratic shapes.
Embedding = tuple[int, ...]

INITIAL_SIGN_BITS = 32


class InvalidRadicandError(ValueError):
    """Radicands must be squarefree, distinct integers > 1."""


class NegativeValueError(ValueError):
    """Square-root bound requested for a negative embedding value."""


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

    def __str__(self) -> str:
        if not self.radicands:
            return "Q"
        if len(self.radicands) == 1:
            return f"Q(sqrt {self.radicands[0]})"
        return f"Q(sqrt {self.radicands[0]}, sqrt {self.radicands[1]})"


RATIONAL_SHAPE = Shape(())


def quadratic_shape(n: int) -> Shape:
    return Shape((n,))


def biquadratic_shape(m: int, n: int) -> Shape:
    return Shape((m, n))


@dataclass(frozen=True)
class Interval:
    """Dyadic enclosure [lo/2^exp, hi/2^exp] of a real embedding value."""

    lo_num: int
    hi_num: int
    exp: int
    bits: int

    @property
    def lo(self) -> Rat:
        return Rat(self.lo_num, 1 << self.exp)

    @property
    def hi(self) -> Rat:
        return Rat(self.hi_num, 1 << self.exp)

    @property
    def width(self) -> Rat:
        return Rat(self.hi_num - self.lo_num, 1 << self.exp)

    def sign(self) -> int | None:
        """Sign if the interval excludes 0, else None."""
        if self.lo_num > 0:
            return 1
        if self.hi_num < 0:
            return -1
        return None


def _sqrt_enclosure(r: int, exp: int) -> tuple[int, int]:
    """Integers (s, s') with s/2^exp <= sqrt(r) <= s'/2^exp."""
    if r == 1:
        s = 1 << exp
        return s, s
    s = isqrt(r << (2 * exp))
    return s, s + 1


class Radical:
    """An exact element q0 + q1 sqrt(m) + q2 sqrt(n) + q3 sqrt(c) of a shape."""

    __slots__ = ("shape", "coords")

    def __init__(self, shape: Shape, coords: tuple[Rat, ...]) -> None:
        if len(coords) != shape.degree:
            raise ValueError("coordinate count must equal the shape degree")
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "coords", tuple(Rat(q) for q in coords))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Radical values are immutable")

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

    def is_rational(self) -> bool:
        return all(q == 0 for q in self.coords[1:])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Radical):
            return NotImplemented
        return self.shape == other.shape and self.coords == other.coords

    def __hash__(self) -> int:
        return hash((self.shape.radicands, self.coords))

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
        table = self.shape._mul_table
        out = [Rat(0)] * self.shape.degree
        for i, a in enumerate(self.coords):
            if a == 0:
                continue
            row = table[i]
            for j, b in enumerate(other.coords):
                if b == 0:
                    continue
                k, factor = row[j]
                out[k] += a * b * factor
        return Radical(self.shape, tuple(out))

    def __pow__(self, n: int) -> Radical:
        if n < 0:
            return self.inverse() ** (-n)
        out = Radical.one(self.shape)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def scale(self, q: Rat | int) -> Radical:
        q = Rat(q)
        return Radical(self.shape, tuple(a * q for a in self.coords))

    def conjugate(self, emb: Embedding) -> Radical:
        """The image under emb, expressed back in the same coordinates."""
        signs = self.shape.embedding_signs(emb)
        return Radical(self.shape, tuple(s * q for s, q in zip(signs, self.coords)))

    def norm(self) -> Rat:
        """Product over all embeddings; always rational."""
        prod = Radical.one(self.shape)
        for emb in self.shape.embeddings:
            prod = prod * self.conjugate(emb)
        assert prod.is_rational()
        return prod.coords[0]

    def trace(self) -> Rat:
        """Sum over all embeddings; the radical parts cancel."""
        return self.shape.degree * self.coords[0]

    def inverse(self) -> Radical:
        if self.is_zero():
            raise ZeroDivisionError("radical element is zero")
        prod = Radical.one(self.shape)
        for emb in self.shape.embeddings[1:]:
            prod = prod * self.conjugate(emb)
        n = (self * prod).coords[0]
        return prod.scale(Rat(1, 1) / n)

    def interval(self, emb: Embedding, bits: int) -> Interval:
        """Enclosure of the embedding value with width <= 2^-bits."""
        if bits < 1:
            raise ValueError("bits must be at least 1")
        signs = self.shape.embedding_signs(emb)
        slack = sum(abs(q.numerator) // q.denominator + 2 for q in self.coords) + 2
        exp = bits + slack.bit_length() + 2
        lo = hi = 0
        for q, s, r in zip(self.coords, signs, self.shape.basis_radicands):
            if q == 0:
                continue
            num = q.numerator * s
            den = q.denominator
            slo, shi = _sqrt_enclosure(r, exp)
            if num >= 0:
                lo += (num * slo) // den
                hi += -((-num * shi) // den)
            else:
                lo += (num * shi) // den
                hi += -((-num * slo) // den)
        return Interval(lo, hi, exp, bits)

    def sign_at(self, emb: Embedding) -> int:
        """Exact sign of the embedding value: -1, 0 or +1."""
        if self.is_zero():
            return 0
        bits = INITIAL_SIGN_BITS
        while True:
            s = self.interval(emb, bits).sign()
            if s is not None:
                return s
            bits *= 2

    def is_totally_nonnegative(self) -> bool:
        return all(self.sign_at(e) >= 0 for e in self.shape.embeddings)

    def is_totally_positive(self) -> bool:
        return all(self.sign_at(e) > 0 for e in self.shape.embeddings)

    def sqrt_upper_bound(self, emb: Embedding) -> Rat:
        """A rational B with sqrt(v) <= B <= sqrt(v) + 1 for the embedding
        value v; raises NegativeValueError when v < 0."""
        if self.sign_at(emb) < 0:
            raise NegativeValueError(f"negative at embedding {emb}")
        hi = self.interval(emb, 2).hi
        if hi <= 0:
            return Rat(0)
        scaled = (hi.numerator * 16) // hi.denominator
        return Rat(isqrt(scaled) + 1, 4)

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
        coords.append(Rat(m.group(1)))
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


def format_coords(x: Radical) -> str:
    return ",".join(str(q) for q in to_literal_coords(x))
