"""Exact radical arithmetic, embeddings and sign determination."""

import random
from fractions import Fraction as F
from math import isqrt

import pytest

from soslen import (
    InvalidRadicandError,
    Radical,
    Shape,
    from_literal_coords,
    parse_coords,
    parse_radical,
    render_radical,
    to_literal_coords,
)

Q = Shape(())
Q6 = Shape((6,))
Q17 = Shape((17,))
Q67 = Shape((6, 7))


def lit(shape, *coords):
    return from_literal_coords(shape, tuple(F(c) for c in coords))


class TestShape:
    def test_degrees(self):
        assert Q.degree == 1 and Q6.degree == 2 and Q67.degree == 4

    def test_rejects_non_squarefree(self):
        with pytest.raises(InvalidRadicandError):
            Shape((12,))
        with pytest.raises(InvalidRadicandError):
            Shape((4, 7))

    def test_rejects_bad_pairs(self):
        with pytest.raises(InvalidRadicandError):
            Shape((7, 6))
        with pytest.raises(InvalidRadicandError):
            Shape((6, 6))
        with pytest.raises(InvalidRadicandError):
            Shape((1, 6))

    def test_shared_factor_allowed(self):
        # gcd(10, 65) = 5: the third radicand is 10*65/25 = 26
        s = Shape((10, 65))
        assert s.basis_radicands == (1, 10, 65, 26)

    def test_embedding_counts(self):
        assert len(Q.embeddings) == 1
        assert len(Q6.embeddings) == 2
        assert len(Q67.embeddings) == 4


class TestArithmetic:
    def test_one_plus_sqrt6_squared(self):
        x = lit(Q67, 1, 1, 0, 0)
        assert x * x == lit(Q67, 7, 2, 0, 0)

    def test_multiplication_by_zero(self):
        x = lit(Q67, 43, 1, -8, 1)
        assert (x * Radical.zero(Q67)).is_zero()

    def test_half_plus_half_sqrt17_squared(self):
        x = Radical(Q17, (F(1, 2), F(1, 2)))
        assert x * x == Radical(Q17, (F(9, 2), F(1, 2)))

    def test_cross_radicals(self):
        s6 = Radical.sqrt_generator(Q67, 0)
        s7 = Radical.sqrt_generator(Q67, 1)
        assert s6 * s7 == lit(Q67, 0, 0, 0, 1)
        s42 = s6 * s7
        assert s6 * s42 == s7.scale(6)
        assert s42 * s42 == Radical.from_rational(Q67, 42)

    def test_shared_factor_products(self):
        s = Shape((10, 65))
        s10 = Radical.sqrt_generator(s, 0)
        s65 = Radical.sqrt_generator(s, 1)
        prod = s10 * s65  # sqrt(650) = 5 sqrt(26)
        assert prod.coords == (F(0), F(0), F(0), F(5))

    def test_trace_and_norm(self):
        x = lit(Q67, 43, 1, -8, 1)
        assert x.trace() == 172
        s6 = Radical.sqrt_generator(Q6, 0)
        assert s6.trace() == 0


class TestIntervals:
    def test_rational_point_is_exact(self):
        iv = Radical.from_rational(Q6, 2).interval((1,), 10)
        assert iv.lo == 2 and iv.hi == 2

    def test_sqrt6_conjugate_enclosure(self):
        # oracle: 24494^2 <= 6*10^8 < 24495^2, so sqrt(6) is inside
        # (2.4494, 2.4495) and its conjugate inside (-2.4495, -2.4494)
        assert 24494 == isqrt(6 * 10**8)
        iv = Radical.sqrt_generator(Q6, 0).interval((-1,), 30)
        assert F(-24495, 10**4) < iv.lo <= iv.hi < F(-24494, 10**4)
        assert iv.width <= F(1, 2**30)

    def test_quartic_value_enclosure(self):
        # oracle bounds by integer square roots at scale 10^4
        b6, b7, b42 = isqrt(6 * 10**8), isqrt(7 * 10**8), isqrt(42 * 10**8)
        lo = F(43) + F(b6, 10**4) - 8 * F(b7 + 1, 10**4) + F(b42, 10**4)
        hi = F(43) + F(b6 + 1, 10**4) - 8 * F(b7, 10**4) + F(b42 + 1, 10**4)
        assert F(307, 10) < lo and hi < F(308, 10)
        x = lit(Q67, 43, 1, -8, 1)
        iv = x.interval((1, 1), 20)
        assert F(307, 10) < iv.lo <= iv.hi < F(308, 10)
        assert iv.lo <= hi and iv.hi >= lo  # overlaps the oracle window

    def test_widths_shrink_and_share_the_value(self):
        rng = random.Random(7)
        for _ in range(50):
            shape = rng.choice((Q, Q6, Q17, Q67))
            coords = tuple(
                F(rng.randint(-40, 40), rng.choice((1, 2, 4)))
                for _ in range(shape.degree)
            )
            x = Radical(shape, coords)
            for emb in shape.embeddings:
                prev = None
                tight = x.interval(emb, 120)
                for bits in (8, 16, 32, 64):
                    iv = x.interval(emb, bits)
                    assert iv.width <= F(1, 2**bits)
                    # encloses the true value, located by the tighter interval
                    assert iv.lo <= tight.hi and iv.hi >= tight.lo
                    if prev is not None:
                        assert iv.width <= prev.width
                    prev = iv


class TestSigns:
    def test_zero(self):
        for emb in Q67.embeddings:
            assert Radical.zero(Q67).sign_at(emb) == 0

    def test_one_plus_sqrt6_conjugate(self):
        assert lit(Q6, 1, 1).sign_at((-1,)) == -1
        assert lit(Q6, 1, 1).sign_at((1,)) == 1

    def test_eleven_plus_sqrt17_halves(self):
        # 11^2 > 17, so both embeddings are positive
        x = Radical(Q17, (F(11, 2), F(1, 2)))
        assert x.sign_at((1,)) == 1 and x.sign_at((-1,)) == 1

    def test_sign_of_negation(self):
        rng = random.Random(11)
        for _ in range(40):
            shape = rng.choice((Q6, Q17, Q67))
            x = Radical(
                shape,
                tuple(F(rng.randint(-9, 9), 2) for _ in range(shape.degree)),
            )
            for emb in shape.embeddings:
                assert x.sign_at(emb) == -(-x).sign_at(emb)
                assert (x * x).sign_at(emb) >= 0

    def test_quadratic_sign_matches_integer_oracle(self):
        # sign of a + b sqrt(n) from the signs of a, b and a^2 vs b^2 n
        def oracle(a, b, n, s):
            b = b * s
            if a == 0 and b == 0:
                return 0
            if a >= 0 and b >= 0:
                return 1 if (a or b) else 0
            if a <= 0 and b <= 0:
                return -1
            big_a = a * a > b * b * n
            if a > 0:
                return 1 if big_a else -1
            return -1 if big_a else 1

        rng = random.Random(13)
        for _ in range(300):
            n = rng.choice((2, 3, 5, 6, 17))
            a, b = rng.randint(-20, 20), rng.randint(-20, 20)
            x = lit(Shape((n,)), a, b)
            for s, emb in ((1, (1,)), (-1, (-1,))):
                assert x.sign_at(emb) == oracle(a, b, n, s)

    def test_total_positivity(self):
        assert Radical.one(Q67).is_totally_positive()
        assert not lit(Q6, 1, 1).is_totally_nonnegative()
        assert lit(Q67, 43, 1, -8, 1).is_totally_positive()

    def test_zero_iff_coords_zero(self):
        x = lit(Q67, 0, 0, 0, 0)
        assert x.is_zero() and x.sign_at((1, 1)) == 0
        y = Radical(Q67, (F(0), F(0), F(1, 4), F(0)))
        assert y.sign_at((1, 1)) != 0


class TestTextForms:
    def test_render_examples(self):
        assert render_radical(lit(Q67, 43, 1, -8, 1)) == (
            "43 + 1*sqrt(6) + -8*sqrt(7) + 1*sqrt(42)"
        )
        assert render_radical(Radical(Q17, (F(9, 2), F(1, 2)))) == (
            "9/2 + 1/2*sqrt(17)"
        )
        assert render_radical(Radical.from_rational(Q, 5)) == "5"

    def test_render_uses_literal_radicand_for_shared_factors(self):
        s = Shape((10, 65))
        x = Radical(s, (F(0), F(0), F(0), F(5)))  # 5 sqrt(26) = sqrt(650)
        assert render_radical(x) == "0 + 0*sqrt(10) + 0*sqrt(65) + 1*sqrt(650)"
        assert parse_radical(s, render_radical(x)) == x

    def test_parse_render_roundtrip(self):
        rng = random.Random(23)
        for _ in range(200):
            shape = rng.choice((Q, Q6, Q17, Q67))
            x = Radical(
                shape,
                tuple(
                    F(rng.randint(-99, 99), rng.randint(1, 12))
                    for _ in range(shape.degree)
                ),
            )
            assert parse_radical(shape, render_radical(x)) == x

    def test_parse_rejects_malformed(self):
        with pytest.raises(ValueError):
            parse_radical(Q6, "1 + 2")
        with pytest.raises(ValueError):
            parse_radical(Q6, "1 + 2*sqrt(7)")
        with pytest.raises(ValueError):
            parse_radical(Q6, "bogus")

    def test_coords_grammar(self):
        x = parse_coords(Q67, "43,1,-8,1")
        assert x == lit(Q67, 43, 1, -8, 1)
        assert parse_coords(Q17, "11/2,1/2") == Radical(Q17, (F(11, 2), F(1, 2)))
        with pytest.raises(ValueError):
            parse_coords(Q17, "1,2,3")

    def test_literal_coords_roundtrip_shared_factor(self):
        s = Shape((10, 65))
        x = from_literal_coords(s, (F(0), F(0), F(0), F(7)))
        assert x.coords[3] == 35  # 7 sqrt(650) = 35 sqrt(26)
        assert to_literal_coords(x) == (F(0), F(0), F(0), F(7))
