"""Exact arithmetic and sign determination in Q(sqrt(m), sqrt(n)).

Numbers are stored as exact rational coordinates over the radical basis
(1, sqrt(m), sqrt(n), sqrt(c)) where c = mn/gcd(m,n)^2, so that all three
radicands stay squarefree and the basis is linearly independent over Q.
Quadratic fields use (1, sqrt(n)); the rationals use (1).

Real-embedding signs are decided exactly, with no approximation, in the
tower Q < Q(sqrt m) < Q(sqrt m, sqrt n) on integer numerators: the sign of
a + b sqrt(r) is that of a when a and b agree, and otherwise that of a times
the sign of a^2 - b^2 r, which is one level down and is not 0.

Every text input is read here alone, under one space rule (`_spaceless`),
and element text, "q0 + q1*sqrt(m) + q2*sqrt(n) + q3*sqrt(mn)", is written
here too: certificate files, the command line and `str(x)` all use
`render_numerators` and `read_numerators`, on integer numerators.
"""

from __future__ import annotations

import re
from dataclasses import FrozenInstanceError, dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, isqrt, lcm

Rat = Fraction

#: A real embedding, given by the signs it assigns to sqrt(m) and sqrt(n).
#: () for Q, (s1,) for quadratic, (s1, s2) for biquadratic shapes.
Embedding = tuple[int, ...]

#: Largest radicand accepted; larger ones are refused before the
#: squarefree test, whose trial division up to sqrt(r) would not finish.
MAX_RADICAND = 10**9


class InvalidRadicandError(ValueError):
    """Radicands must be squarefree, distinct integers > 1."""


def _frozen(self, name, *value):
    raise FrozenInstanceError(f"{type(self).__name__} is immutable: cannot set or delete {name!r}")


def value_type(cls):
    """The package's value idiom: a frozen slotted dataclass with its own
    constructor and repr, which sets its fields with object.__setattr__.
    Setting or deleting any name raises FrozenInstanceError (dataclass's own
    check raises TypeError for a name that is not a field)."""
    cls = dataclass(frozen=True, slots=True, init=False, repr=False)(cls)
    cls.__setattr__ = cls.__delattr__ = _frozen
    return cls


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
    def written(self) -> tuple[tuple[int, ...], tuple[str, ...], tuple[int, ...]]:
        """How elements are written: per term, its radicand (1, m, n, mn),
        the text after its coefficient, and the factor from the written
        coefficient to the stored one (g on sqrt(mn) = g sqrt(c), else 1)."""
        if len(self.radicands) == 2:
            m, n = self.radicands
            written, factors = (1, m, n, m * n), (1, 1, 1, gcd(m, n))
        else:
            written, factors = (1,) + self.radicands, (1,) * self.degree
        return written, tuple(f"*sqrt({w})" if w > 1 else "" for w in written), factors

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
        _, m, n, c = self.basis_radicands
        g = gcd(m, n)
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
        """The field descriptor "Q", "Q(sqrt N)" or "Q(sqrt M, sqrt N)"."""
        inner = ", ".join(f"sqrt {r}" for r in self.radicands)
        return f"Q({inner})" if inner else "Q"


RATIONAL_SHAPE = Shape(())
format_descriptor = Shape.__str__


def _spaceless(text: str) -> str:
    """The space rule of all text input but counts: drop ASCII spaces, keep the rest."""
    return text.replace(" ", "")


def parse_descriptor(text: str) -> Shape:
    """Read "Q", "Q(sqrt N)" or "Q(sqrt M, sqrt N)" as `Shape.__str__` writes
    it, M and N in ASCII digits, under the space rule."""
    m = re.fullmatch(r"Q(?:\(sqrt([0-9]+)(?:,sqrt([0-9]+))?\))?", _spaceless(text))
    if m is None:
        raise InvalidRadicandError(f"cannot parse field descriptor {text!r}")
    return Shape(tuple(int(r) for r in m.groups() if r))


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


@value_type
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
        return cls(shape, (q,) + (0,) * (shape.degree - 1))

    @classmethod
    def zero(cls, shape: Shape) -> Radical:
        return cls.from_rational(shape, 0)

    @classmethod
    def one(cls, shape: Shape) -> Radical:
        return cls.from_rational(shape, 1)

    @classmethod
    def sqrt_generator(cls, shape: Shape, index: int) -> Radical:
        """sqrt(m) for index 0, sqrt(n) for index 1."""
        return cls(shape, tuple(int(k == index + 1) for k in range(shape.degree)))

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


_TERM_RE = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?(?:\*sqrt\(([0-9]+)\))?")


def render_numerators(shape: Shape, u: tuple[int, ...], den: int) -> str:
    """The canonical rendering "q0 + q1*sqrt(m) + q2*sqrt(n) + q3*sqrt(mn)"
    of u / den, for integer radical coordinates u and den > 0: each
    coefficient "p" or "p/q" in lowest terms, against the literal radicands
    m, n and mn (`Shape.written`)."""
    _, suffixes, factors = shape.written
    terms = []
    for p, suffix, factor in zip(u, suffixes, factors):
        q = den * factor
        g = gcd(p, q)
        terms.append(f"{p // g}{suffix}" if g == q else f"{p // g}/{q // g}{suffix}")
    return " + ".join(terms)


def read_numerators(shape: Shape, text: str) -> tuple[tuple[int, ...], int]:
    """(u, den) with the element written in text equal to u / den over the
    radical basis, den > 0 and u integers.  The first term is "p" or "p/q",
    each later one "p*sqrt(k)" or "p/q*sqrt(k)" (ASCII digits, q nonzero,
    under the space rule), k the written radicand of its place; anything
    else, or a coefficient beyond int()'s digit limit, raises ValueError."""
    written, _, factors = shape.written
    parts = _spaceless(text).split("+")
    if len(parts) != len(written):
        raise ValueError(f"expected {len(written)} terms, got {len(parts)}")
    nums, dens = [], []
    for part, want, factor in zip(parts, written, factors):
        m = _TERM_RE.fullmatch(part)
        if m is None or (want == 1 and m[3] is not None):
            raise ValueError(f"malformed term {part!r}")
        num, den, rad = m.groups()
        rad = int(rad) if rad else 1
        if rad != want:
            raise ValueError(f"term {part!r} has radicand {rad}, expected {want}")
        den = int(den) if den else 1
        if not den:
            raise ValueError(f"term {part!r} has a zero denominator")
        nums.append(int(num) * factor)
        dens.append(den)
    common = lcm(*dens)
    if common == 1:
        return tuple(nums), 1
    return tuple(p * (common // q) for p, q in zip(nums, dens)), common


def read_coords(shape: Shape, text: str) -> tuple[tuple[int, ...], int]:
    """(u, den) as `read_numerators` gives them, of "q0,q1[,q2,q3]" over 1, sqrt m,
    sqrt n, sqrt(mn), each "p" or "p/q" like a term's coefficient (no exponent,
    whose expansion could take minutes), under the space rule; else ValueError."""
    coords = []
    for part in _spaceless(text).split(","):
        m = _TERM_RE.fullmatch(part)
        try:
            if m is None or m[3] is not None:
                raise ValueError(f"malformed coordinate {part!r}")
            coords.append(Rat(int(m[1]), int(m[2] or 1)))
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"bad coordinate list {text!r}: {exc}") from None
    den, u = _clear_denominators(from_literal_coords(shape, tuple(coords)))
    return u, den


def read_triangle(shape: Shape, text: str) -> list[list[tuple[tuple[int, ...], int]]]:
    """The cells (u, den) for `GramForm.from_numerators` of a row-major upper
    triangle of ";"-separated `read_coords` entries, none empty (not dropped)."""
    entries = text.split(";")
    if not all(map(_spaceless, entries)):
        raise ValueError(f"empty entry in --gram {text!r}")
    k = len(entries)
    r = (isqrt(8 * k + 1) - 1) // 2
    if r * (r + 1) // 2 != k:
        raise ValueError(f"{k} entries do not fill an upper triangle (expected r*(r+1)/2)")
    cells = iter([read_coords(shape, e) for e in entries])
    upper = [[next(cells) for _ in range(i, r)] for i in range(r)]
    return [[upper[min(i, j)][abs(i - j)] for j in range(r)] for i in range(r)]


def read_count(text: str) -> int | None:
    """A count in ASCII digits alone, else None: int() also reads signs and spaces."""
    return int(text) if text.isascii() and text.isdigit() else None


def render_radical(x: Radical) -> str:
    """The canonical rendering of x (`render_numerators`)."""
    den, u = _clear_denominators(x)
    return render_numerators(x.shape, u, den)


def parse_radical(shape: Shape, text: str) -> Radical:
    """Parse the canonical rendering back into a value of the given shape."""
    u, den = read_numerators(shape, text)
    return Radical(shape, tuple(Rat(p, den) for p in u))


def from_literal_coords(shape: Shape, coords: tuple[Rat, ...]) -> Radical:
    """Build a value from coordinates over (1, sqrt m, sqrt n, sqrt(mn)),
    the way elements are written down, rescaling sqrt(mn) onto sqrt(c)."""
    if len(coords) != shape.degree:
        raise ValueError(f"shape {shape} needs {shape.degree} coordinates, got {len(coords)}")
    _, _, factors = shape.written
    return Radical(shape, tuple(Rat(q) * f for q, f in zip(coords, factors)))


def to_literal_coords(x: Radical) -> tuple[Rat, ...]:
    """Coordinates over (1, sqrt m, sqrt n, sqrt(mn)); inverse of the above."""
    _, _, factors = x.shape.written
    return tuple(q / f for q, f in zip(x.coords, factors))


def parse_coords(shape: Shape, text: str) -> Radical:
    """The value whose literal coordinates text gives (`read_coords`)."""
    u, den = read_coords(shape, text)
    return Radical(shape, tuple(Rat(p, den) for p in u))
