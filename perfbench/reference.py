"""Independent exact checks for benchmark outputs.

Nothing here imports soslen.  Field elements are tuples of Fractions over
the radical basis 1, sqrt(m), sqrt(n), sqrt(c) (c the squarefree part of
mn), which is the public coordinate format of the library's `Radical`.
Products of basis radicals, conjugates and integrality are computed here
from first principles, so a certificate accepted by `verify` is a sums of
squares witness over the ring of integers whatever the library computed.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt

# Exact values of g_Z(n), the largest finite sums-of-squares length among
# integer forms of rank n (Mordell, Ko): the descent output bound.
G_EXACT = {1: 4, 2: 5, 3: 6, 4: 7, 5: 8}


class Arith:
    """Exact arithmetic in Q, Q(sqrt n) or Q(sqrt m, sqrt n)."""

    def __init__(self, radicands: tuple[int, ...]) -> None:
        if not radicands:
            rads = (1,)
            signs = [{1: 1}]
        elif len(radicands) == 1:
            (n,) = radicands
            rads = (1, n)
            signs = [{1: 1, n: s} for s in (1, -1)]
        else:
            m, n = radicands
            g = gcd(m, n)
            c = (m // g) * (n // g)
            rads = (1, m, n, c)
            signs = [
                {1: 1, m: s1, n: s2, c: s1 * s2} for s1 in (1, -1) for s2 in (1, -1)
            ]
        self.rads = rads
        self.degree = len(rads)
        index = {r: k for k, r in enumerate(rads)}
        # sqrt(a) sqrt(b) = g sqrt((a/g)(b/g)) for squarefree a, b, g = gcd(a, b)
        self.table = [
            [(index[(a // gcd(a, b)) * (b // gcd(a, b))], gcd(a, b)) for b in rads]
            for a in rads
        ]
        self.conj_signs = [tuple(s[r] for r in rads) for s in signs]
        self.zero = (Fraction(0),) * self.degree
        self.one = (Fraction(1),) + self.zero[1:]

    def add(self, x, y):
        return tuple(a + b for a, b in zip(x, y))

    def sub(self, x, y):
        return tuple(a - b for a, b in zip(x, y))

    def mul(self, x, y):
        out = [Fraction(0)] * self.degree
        for i, a in enumerate(x):
            if a:
                row = self.table[i]
                for j, b in enumerate(y):
                    if b:
                        k, g = row[j]
                        out[k] += a * b * g
        return tuple(out)

    def is_integral(self, x) -> bool:
        """x is an algebraic integer iff its characteristic polynomial, the
        product of (t - sigma(x)) over all embeddings, has integer
        coefficients."""
        poly = [self.one]  # coefficients, constant term first
        for signs in self.conj_signs:
            y = tuple(s * q for s, q in zip(signs, x))
            nxt = [self.zero] * (len(poly) + 1)
            for k, c in enumerate(poly):
                nxt[k + 1] = self.add(nxt[k + 1], c)
                nxt[k] = self.sub(nxt[k], self.mul(y, c))
            poly = nxt
        return all(
            c[0].denominator == 1 and not any(c[1:]) for c in poly
        )

    def gram_of_rows(self, rows, rank: int):
        """Sum of row (x) row over the rows, as a rank x rank matrix."""
        gram = [[self.zero] * rank for _ in range(rank)]
        for row in rows:
            for i in range(rank):
                for j in range(rank):
                    gram[i][j] = self.add(gram[i][j], self.mul(row[i], row[j]))
        return tuple(tuple(r) for r in gram)

    def verify(self, gram, rows) -> str | None:
        """None when the rows are nonzero integral vectors whose squares sum
        to gram, else the first reason they are not."""
        r = len(gram)
        for k, row in enumerate(rows):
            if len(row) != r:
                return f"certificate row {k} has {len(row)} entries, rank is {r}"
            if not any(any(v) for v in row):
                return f"certificate row {k} is zero"
            for v in row:
                if not self.is_integral(v):
                    return f"certificate row {k} has a non-integral entry"
        if self.gram_of_rows(rows, r) != tuple(tuple(row) for row in gram):
            return "certificate rows do not sum to the Gram matrix"
        return None


def quadratic_length(n: int, alpha, limit: int = 3) -> int | None:
    """Least k <= limit with alpha a sum of k squares in the ring of integers
    of Q(sqrt n), or None.  alpha = (p, q) stands for p + q sqrt(n).

    Every summand x^2 of a sum of squares equal to alpha has
    trace(x^2) <= trace(alpha), so enumerating that finite set of squares
    and testing sums of up to `limit` of them is exhaustive.
    """
    p0, q0 = alpha
    if p0 == 0 and q0 == 0:
        return 0
    den = 2 if n % 4 == 1 else 1
    half_trace = Fraction(p0)  # trace(x^2) / 2 = p^2 + n q^2 <= p0
    scaled = int(half_trace * den * den)
    umax = isqrt(max(scaled, 0))
    vmax = isqrt(max(scaled // n, 0))
    squares = set()
    for u in range(-umax, umax + 1):
        for v in range(0, vmax + 1):
            if den == 2 and (u - v) % 2:
                continue
            if u == 0 and v == 0:
                continue
            p = Fraction(u, den)
            q = Fraction(v, den)
            if p * p + n * q * q <= half_trace:
                squares.add((p * p + n * q * q, 2 * p * q))
    target = (Fraction(p0), Fraction(q0))
    if target in squares:
        return 1
    if limit >= 2:
        rests = [(target[0] - s[0], target[1] - s[1]) for s in squares]
        if any(rest in squares for rest in rests):
            return 2
        if limit >= 3:
            for rest in rests:
                if rest[0] <= 0:
                    continue
                for s in squares:
                    if (rest[0] - s[0], rest[1] - s[1]) in squares:
                        return 3
    return None
