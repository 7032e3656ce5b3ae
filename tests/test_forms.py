"""Gram forms, total positive semidefiniteness and certificate checking."""

import random
from fractions import Fraction as F

import pytest

from soslen import (
    Certificate,
    GramForm,
    NotIntegralError,
    Radical,
    Shape,
    from_literal_coords,
    gram_rank,
    make_field,
    perp_unit,
    totally_psd,
    verify_certificate,
)

Q = make_field(Shape(()))
Q6 = make_field(Shape((6,)))
Q17 = make_field(Shape((17,)))


def rational_gram(*rows):
    sh = Q.shape
    return GramForm(
        Q, tuple(tuple(Radical.from_rational(sh, v) for v in row) for row in rows)
    )


def zelt(k):
    return Q.element_from_coords((k,))


class TestGramForm:
    def test_symmetry_required(self):
        sh = Q.shape
        with pytest.raises(ValueError):
            GramForm(Q, ((Radical.from_rational(sh, 1), Radical.from_rational(sh, 2)),
                         (Radical.from_rational(sh, 3), Radical.from_rational(sh, 1))))

    def test_diagonal_must_be_integral(self):
        sh = Q17.shape
        with pytest.raises(NotIntegralError):
            GramForm(Q17, ((Radical(sh, (F(1, 3), F(0))),),))

    def test_half_integral_off_diagonal_allowed(self):
        # classically integral: 2 * offdiagonal lies in the ring
        sh = Q.shape
        half = Radical(sh, (F(1, 2),))
        one = Radical.one(sh)
        g = GramForm(Q, ((one, half), (half, one)))
        assert g.integral_coords() is None  # but not fully integral

    def test_third_integral_off_diagonal_rejected(self):
        sh = Q.shape
        third = Radical(sh, (F(1, 3),))
        one = Radical.one(sh)
        with pytest.raises(NotIntegralError):
            GramForm(Q, ((one, third), (third, one)))

    def test_from_rows_matches_outer_sum(self):
        rows = [(zelt(1), zelt(2)), (zelt(0), zelt(1)), (zelt(-1), zelt(1))]
        g = GramForm.from_rows(Q, rows)
        assert g.entries[0][0] == Radical.from_rational(Q.shape, 2)
        assert g.entries[0][1] == Radical.from_rational(Q.shape, 1)
        assert g.entries[1][1] == Radical.from_rational(Q.shape, 6)


class TestTotallyPsd:
    def test_identity(self):
        assert totally_psd(rational_gram((1, 0), (0, 1)))

    def test_indefinite_unit(self):
        g = GramForm.from_element(Q6.element(from_literal_coords(Q6.shape, (F(1), F(1)))))
        assert not totally_psd(g)

    def test_interior_negative_entry_is_caught(self):
        # leading and trailing minors all vanish; only the middle principal
        # minor exposes the negative entry
        g = rational_gram((0, 0, 0), (0, -1, 0), (0, 0, 0))
        assert not totally_psd(g)

    def test_psd_singular(self):
        assert totally_psd(rational_gram((1, 1), (1, 1)))
        assert totally_psd(rational_gram((0, 0), (0, 0)))

    def test_negative_offdiagonal_psd(self):
        assert totally_psd(rational_gram((2, -1), (-1, 1)))
        assert not totally_psd(rational_gram((1, 2), (2, 1)))

    def test_half_integral_off_diagonal(self):
        sh = Q.shape
        one = Radical.one(sh)
        half, three_halves = Radical(sh, (F(1, 2),)), Radical(sh, (F(3, 2),))
        assert totally_psd(GramForm(Q, ((one, half), (half, one))))
        assert not totally_psd(GramForm(Q, ((one, three_halves), (three_halves, one))))
        # over Q(sqrt 6): det = 2 - (7 + 2 sqrt 6)/4 is negative at one
        # embedding only, while sqrt(6)/2 leaves det = 1/2 at both
        sh6 = Q6.shape
        two, one6 = Radical.from_rational(sh6, 2), Radical.one(sh6)
        b = Radical(sh6, (F(1, 2), F(1, 2)))
        assert not totally_psd(GramForm(Q6, ((two, b), (b, one6))))
        c = Radical(sh6, (F(0), F(1, 2)))
        assert totally_psd(GramForm(Q6, ((two, c), (c, one6))))

    def test_length_seven_form_is_totally_psd(self):
        from soslen.suite import length_seven_binary_form

        f, gram = length_seven_binary_form(17)
        assert totally_psd(gram)


class TestRankAndPerp:
    def test_gram_rank(self):
        assert gram_rank(rational_gram((1, 1), (1, 1))) == 1
        assert gram_rank(rational_gram((1, 0), (0, 1))) == 2
        assert gram_rank(rational_gram((0, 0), (0, 0))) == 0

    def test_perp_unit_blocks(self):
        g = rational_gram((7,))
        pu = perp_unit(g)
        assert pu.rank == 2
        assert pu.entries[0][0] == Radical.from_rational(Q.shape, 7)
        assert pu.entries[1][1] == Radical.one(Q.shape)
        assert pu.entries[0][1].is_zero()


class TestVerifyCertificate:
    def test_two_ones_certify_two(self):
        g = rational_gram((2,))
        cert = Certificate(Q, 1, ((zelt(1),), (zelt(1),)))
        assert verify_certificate(g, cert).ok

    def test_wrong_sum_fails(self):
        g = rational_gram((2,))
        cert = Certificate(Q, 1, ((zelt(1),),))
        res = verify_certificate(g, cert)
        assert not res.ok and res.reason == "gram-mismatch:0,0"

    def test_half_integral_gram_is_a_mismatch(self):
        sh = Q.shape
        one, half = Radical.one(sh), Radical(sh, (F(1, 2),))
        g = GramForm(Q, ((one, half), (half, one)))
        cert = Certificate(Q, 2, ((zelt(1), zelt(0)), (zelt(0), zelt(1))))
        res = verify_certificate(g, cert)
        assert not res.ok and res.reason == "gram-mismatch:0,1"

    def test_zero_rows_rejected_at_construction(self):
        with pytest.raises(ValueError):
            Certificate(Q, 1, ((zelt(0),),))

    def test_seven_row_witness_for_the_length_seven_form(self):
        # 7 + w^2 as five squares plus the two mixed rows, w = (1+sqrt n)/2
        from soslen.suite import length_seven_binary_form

        f, gram = length_seven_binary_form(17)
        sh = f.shape
        w = f.element(Radical(sh, (F(1, 2), F(1, 2))))
        half5 = f.element(Radical(sh, (F(5, 2), F(1, 2))))  # (5+sqrt17)/2
        five = f.element(Radical(sh, (F(5), F(1))))  # 5+sqrt17
        z = f.zero()
        rows = (
            (f.element_from_coords((2, 0)), z),
            (f.one(), z),
            (f.one(), z),
            (f.one(), z),
            (w, z),
            (half5, f.one()),
            (five, w),
        )
        cert = Certificate(f, 2, rows)
        assert verify_certificate(gram, cert).ok

    def test_signed_permutation_invariance(self):
        rng = random.Random(31)
        for _ in range(40):
            field = random.Random(rng.random()).choice((Q, Q6, Q17))
            r = rng.choice((2, 3))
            rows = []
            for _ in range(rng.randint(1, 4)):
                row = tuple(
                    field.element_from_coords(
                        tuple(rng.randint(-2, 2) for _ in range(field.degree))
                    )
                    for _ in range(r)
                )
                if any(not v.is_zero() for v in row):
                    rows.append(row)
            if not rows:
                continue
            gram = GramForm.from_rows(field, rows)
            cert = Certificate(field, r, tuple(rows))
            assert verify_certificate(gram, cert).ok
            perm = list(range(r))
            rng.shuffle(perm)
            signs = [rng.choice((1, -1)) for _ in range(r)]
            prows = tuple(
                tuple(
                    row[perm[j]] if signs[j] == 1 else -row[perm[j]]
                    for j in range(r)
                )
                for row in rows
            )
            pentries = tuple(
                tuple(
                    gram.entries[perm[i]][perm[j]].scale(signs[i] * signs[j])
                    for j in range(r)
                )
                for i in range(r)
            )
            pgram = GramForm(field, pentries)
            pcert = Certificate(field, r, prows)
            assert verify_certificate(pgram, pcert).ok
