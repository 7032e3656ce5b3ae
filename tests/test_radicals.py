"""Exact radical arithmetic, embeddings and sign determination."""

import random
import re
from decimal import Decimal, localcontext
from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soslen import (
    InvalidRadicandError,
    Radical,
    Shape,
    from_literal_coords,
    make_field,
    parse_coords,
    parse_radical,
    render_radical,
    to_literal_coords,
)
from soslen.fields import EMBEDDING_TABLE_BITS
from soslen.radicals import read_numerators, render_numerators

import reference_text

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
        def signs(x):
            return [x.sign_at(emb) for emb in x.shape.embeddings]

        assert signs(Radical.one(Q67)) == [1, 1, 1, 1]
        assert signs(lit(Q6, 1, 1)) == [1, -1]
        # 43 - sqrt 6 - 8 sqrt 7 - sqrt 42 > 43 - 2.45 - 21.17 - 6.49 > 0
        assert signs(lit(Q67, 43, 1, -8, 1)) == [1, 1, 1, 1]

    def test_zero_iff_coords_zero(self):
        x = lit(Q67, 0, 0, 0, 0)
        assert x.is_zero() and x.sign_at((1, 1)) == 0
        y = Radical(Q67, (F(0), F(0), F(1, 4), F(0)))
        assert y.sign_at((1, 1)) != 0


ORACLE_SHAPES = (Q, Shape((5,)), Q17, Q67, Shape((10, 65)), Shape((6, 15)))


def decimal_value(x, emb, scale=1):
    """The embedding value times scale at 120 digits, from the stdlib only."""
    with localcontext() as ctx:
        ctx.prec = 120
        return scale * sum(
            Decimal(q.numerator) / Decimal(q.denominator) * s * Decimal(r).sqrt()
            for q, s, r in zip(x.coords, x.shape.embedding_signs(emb), x.shape.basis_radicands)
        )


def decimal_sign(x, emb):
    value = decimal_value(x, emb)
    if x.is_zero():
        return 0
    # far above the oracle's own error, so its sign is the true one
    assert abs(value) > Decimal(10) ** -90
    return 1 if value > 0 else -1


@st.composite
def radicals(draw, shape):
    """Random coordinates over 1, 2 and 4, or u*u - k with k the integer
    nearest u*u at one embedding, which nearly cancels there."""
    coords = tuple(
        F(draw(st.integers(-(10**6), 10**6)), draw(st.sampled_from((1, 2, 4))))
        for _ in range(shape.degree)
    )
    u = Radical(shape, coords)
    if not draw(st.booleans()):
        return u
    emb = draw(st.sampled_from(shape.embeddings))
    k = draw(st.integers(-1, 1)) + int(decimal_value(u * u, emb).to_integral_value())
    return u * u - Radical.from_rational(shape, k)


class TestSignOracle:
    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(data=st.data(), shape=st.sampled_from(ORACLE_SHAPES))
    def test_sign_matches_decimal(self, data, shape):
        x = data.draw(radicals(shape))
        y = data.draw(radicals(shape))
        for emb in shape.embeddings:
            assert x.sign_at(emb) == decimal_sign(x, emb)
            assert (x * y).sign_at(emb) == x.sign_at(emb) * y.sign_at(emb)

    @pytest.mark.parametrize(
        "shape, coords",
        [
            (Shape((5,)), (9, -4)),
            (Q17, (33, -8)),
            (Q67, (5, -2, 0, 0)),
            (Q67, (8, 0, -3, 0)),
            (Q67, (13, 0, 0, -2)),
            (Shape((10, 65)), (19, -6, 0, 0)),
            (Shape((10, 65)), (51, 0, 0, -2)),  # 51 - 10 sqrt 26
            (Shape((6, 15)), (4, 0, -1, 0)),
            (Shape((6, 15)), (19, 0, 0, -2)),  # 19 - 6 sqrt 10
        ],
    )
    def test_unit_powers_near_zero(self, shape, coords):
        # a - b sqrt(r) with a^2 - b^2 r = 1 is 1 / (a + b sqrt r), and its
        # powers approach 0 at the identity embedding
        x = lit(shape, *coords)
        y = x
        for _ in range(8):
            for emb in shape.embeddings:
                assert y.sign_at(emb) == decimal_sign(y, emb) == 1
            y = y * x

    @pytest.mark.parametrize("shape", ORACLE_SHAPES, ids=str)
    def test_tables_enclose_the_basis(self, shape):
        f = make_field(shape)
        for e, emb in enumerate(f.embeddings):
            for k, b in enumerate(f.integral_basis):
                value = decimal_value(b, emb, 2**EMBEDDING_TABLE_BITS)
                assert f._emb_lo[e][k] <= value <= f._emb_hi[e][k]


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

    @pytest.mark.parametrize(
        "text",
        # \u0663 and \uff13 are 3 in other scripts, which int() would read
        ["1e3", "1e3000000", "1e1000000000", "0.5", "1/2e5", "+1", "1*sqrt(6)", "\u0663", "1/\uff13"],
    )
    def test_coords_are_integers_or_fractions_only(self, text):
        # Fraction would accept the exponents, and take minutes to expand them
        with pytest.raises(ValueError, match="malformed coordinate"):
            parse_coords(Q6, f"{text},0")

    def test_coords_zero_denominator_and_digit_limit(self):
        with pytest.raises(ValueError, match="bad coordinate list"):
            parse_coords(Q6, "1/0,1")
        with pytest.raises(ValueError, match="bad coordinate list"):
            parse_coords(Q6, "7" * 5000 + ",1")

    @pytest.mark.parametrize("radicands", [(10, 65), (6, 15)])
    def test_numerators_with_shared_factors(self, radicands):
        # g = gcd(m, n) > 1: the written sqrt(mn) coefficient is the stored
        # sqrt(c) coordinate over g
        s = Shape(radicands)
        m, n = radicands
        text = f"1/2 + 0*sqrt({m}) + -3*sqrt({n}) + 1*sqrt({m * n})"
        u, den = read_numerators(s, text)
        assert den == 2 and u == (1, 0, -6, 2 * gcd(m, n))
        assert render_numerators(s, u, den) == text
        assert parse_radical(s, text) == reference_text.parse_radical(s, text)
        rng = random.Random(radicands[1])
        for _ in range(100):
            x = Radical(s, tuple(F(rng.randint(-40, 40), rng.randint(1, 12)) for _ in range(4)))
            text = reference_text.render_radical(x)
            assert render_radical(x) == text
            u, den = read_numerators(s, text)
            assert Radical(s, tuple(F(p, den) for p in u)) == x

    def test_read_keeps_the_common_denominator_and_render_reduces(self):
        s = Shape((5,))
        assert read_numerators(s, "2/4 + -0*sqrt(5)") == ((2, 0), 4)
        assert render_numerators(s, (2, 0), 4) == "1/2 + 0*sqrt(5)"
        assert read_numerators(s, " 3 + 1 * sqrt( 5 ) ") == ((3, 1), 1)

    @pytest.mark.parametrize(
        "shape, text, message",
        [
            (Q6, "1", "expected 2 terms, got 1"),
            (Q6, "1/2 + 1/0*sqrt(6)", "term '1/0*sqrt(6)' has a zero denominator"),
            (Q6, "1 + 2*sqrt(7)", "term '2*sqrt(7)' has radicand 7, expected 6"),
            (Q6, "1 + 2*sqrt(6) + 3", "expected 2 terms, got 3"),
            (Q6, "1 + 2.5*sqrt(6)", "malformed term '2.5*sqrt(6)'"),
            (Q, "1e3", "malformed term '1e3'"),
            # digits are ASCII: int() would read \u0663 as 3
            (Shape((5,)), "\u0663 + 1*sqrt(5)", "malformed term '\u0663'"),
            (Q6, "1 + 1*sqrt(\u0666)", "malformed term '1*sqrt(\u0666)'"),
            (Q6, "1/\u0662 + 1*sqrt(6)", "malformed term '1/\u0662'"),
            # the first term is a coefficient alone, never c*sqrt(1)
            (Q, "3*sqrt(1)", "malformed term '3*sqrt(1)'"),
            (Shape((5,)), "3*sqrt(1) + 1*sqrt(5)", "malformed term '3*sqrt(1)'"),
            (Q67, "1/2*sqrt(1) + 0*sqrt(6) + 0*sqrt(7) + 1*sqrt(42)", "malformed term '1/2*sqrt(1)'"),
            (Q6, "1 + 3*sqrt(1)", "term '3*sqrt(1)' has radicand 1, expected 6"),
            # spaces are ignored, no other whitespace is
            (Q, "3\n", "malformed term '3\\n'"),
            (Q, "1\t", "malformed term '1\\t'"),
            (Q6, "1 + 2*sqrt(6)\r\n", "malformed term '2*sqrt(6)\\r\\n'"),
            (Q6, "\u00a01 + 2*sqrt(6)", "malformed term '\\xa01'"),
        ],
    )
    def test_read_errors(self, shape, text, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            read_numerators(shape, text)
        with pytest.raises(ValueError, match=re.escape(message)):
            reference_text.parse_radical(shape, text)

    def test_read_refuses_a_coefficient_beyond_the_digit_limit(self):
        with pytest.raises(ValueError):
            read_numerators(Q6, "1 + " + "7" * 5000 + "*sqrt(6)")

    def test_literal_coords_roundtrip_shared_factor(self):
        s = Shape((10, 65))
        x = from_literal_coords(s, (F(0), F(0), F(0), F(7)))
        assert x.coords[3] == 35  # 7 sqrt(650) = 35 sqrt(26)
        assert to_literal_coords(x) == (F(0), F(0), F(0), F(7))
