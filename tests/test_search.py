"""The exhaustive representation search and length computation."""

import random
from fractions import Fraction as F

import pytest

from soslen import (
    ExceedsBound,
    GramForm,
    NotIntegral,
    NotSoS,
    NotTotallyPsd,
    Radical,
    Represented,
    Shape,
    Unsat,
    candidate_rows,
    element_length,
    from_literal_coords,
    length,
    length_certificate,
    make_field,
    perp_unit,
    represent,
    verify_certificate,
)
from reference_search import reference_represent

Q = make_field(Shape(()))
Q2 = make_field(Shape((2,)))
Q6 = make_field(Shape((6,)))
Q17 = make_field(Shape((17,)))


def zgram(*rows):
    sh = Q.shape
    return GramForm(
        Q, tuple(tuple(Radical.from_rational(sh, v) for v in row) for row in rows)
    )


def zelt(k):
    return Q.element_from_coords((k,))


class TestCandidateRows:
    def test_unit_form_has_unique_row(self):
        rows = candidate_rows(zgram((1,)))
        assert [[v.coords for v in row] for row in rows] == [[(1,)]]

    def test_two_has_only_one(self):
        rows = candidate_rows(zgram((2,)))
        assert [[v.coords for v in row] for row in rows] == [[(1,)]]

    def test_half_unit_contains_both_generators(self):
        x = Q17.element(Radical(Q17.shape, (F(11, 2), F(1, 2))))
        rows = candidate_rows(GramForm.from_element(x))
        names = {str(row[0].to_radical()) for row in rows}
        assert "1 + 0*sqrt(17)" in names
        assert "1/2 + 1/2*sqrt(17)" in names

    def test_rows_are_sign_normalized_and_ordered(self):
        g = zgram((5, 0), (0, 5))
        rows = candidate_rows(g)
        keys = []
        for row in rows:
            first = next(v for v in row if not v.is_zero())
            assert first.sign_at_index(0) > 0
            keys.append(sum((v * v).trace() for v in row))
        assert keys == sorted(keys, reverse=True)


class TestRepresent:
    def test_identity_rank_two(self):
        out = represent(zgram((1, 0), (0, 1)), 2)
        assert isinstance(out, Represented)
        assert [[v.coords[0] for v in row] for row in out.certificate.rows] == [
            [1, 0],
            [0, 1],
        ]

    def test_seven_over_z(self):
        g = zgram((7,))
        assert isinstance(represent(g, 3), Unsat)
        out = represent(g, 4)
        assert isinstance(out, Represented)
        assert len(out.certificate.rows) == 4

    def test_not_totally_psd(self):
        g = GramForm.from_element(Q6.element(from_literal_coords(Q6.shape, (F(1), F(1)))))
        assert isinstance(represent(g, 5), NotTotallyPsd)

    def test_not_integral(self):
        sh = Q.shape
        half = Radical(sh, (F(1, 2),))
        one = Radical.one(sh)
        g = GramForm(Q, ((one, half), (half, one)))
        assert isinstance(represent(g, 5), NotIntegral)

    def test_zero_form(self):
        out = represent(zgram((0,)), 0)
        assert isinstance(out, Represented) and len(out.certificate.rows) == 0

    def test_budget_zero_nonzero_form(self):
        assert isinstance(represent(zgram((1,)), 0), Unsat)

    def test_every_representation_verifies(self):
        rng = random.Random(41)
        for _ in range(40):
            field = (Q, Q2, Q6)[rng.randint(0, 2)]
            r = rng.choice((1, 2))
            rows = []
            for _ in range(rng.randint(1, 4)):
                row = tuple(
                    field.element_from_coords(
                        tuple(rng.randint(-2, 2) for _ in range(field.degree))
                    )
                    for _ in range(r)
                )
                rows.append(row)
            gram = GramForm.from_rows(field, rows)
            out = represent(gram, 8)
            assert isinstance(out, Represented)
            assert verify_certificate(gram, out.certificate).ok

    def test_ordered_matches_reference_search(self):
        rng = random.Random(43)
        for _ in range(25):
            field = (Q, Q2)[rng.randint(0, 1)]
            r = rng.choice((1, 2))
            rows = [
                tuple(
                    field.element_from_coords(
                        tuple(rng.randint(-1, 1) for _ in range(field.degree))
                    )
                    for _ in range(r)
                )
                for _ in range(rng.randint(1, 2))
            ]
            gram = GramForm.from_rows(field, rows)
            for budget in (1, 2, 3):
                fast = represent(gram, budget)
                slow = reference_represent(gram, budget)
                assert type(fast) is type(slow)

    def test_determinism(self):
        g = zgram((50, 7), (7, 10))
        a = represent(g, 6)
        b = represent(g, 6)
        assert isinstance(a, Represented)
        assert a.certificate == b.certificate


class TestLength:
    def test_zero(self):
        assert length(zgram((0,)), 0) == 0
        assert length(zgram((0, 0), (0, 0)), 3) == 0

    def test_lagrange_small(self):
        for k, want in [(1, 1), (2, 2), (3, 3), (4, 1), (6, 3), (7, 4), (12, 3)]:
            assert element_length(zelt(k), 4) == want

    def test_exceeds_bound(self):
        assert element_length(zelt(7), 3) == ExceedsBound(3)

    def test_not_sos_outcomes(self):
        g = GramForm.from_element(Q6.element(from_literal_coords(Q6.shape, (F(1), F(1)))))
        res = length(g, 5)
        assert isinstance(res, NotSoS) and res.reason == "not-totally-psd"

    def test_sos_filter_excludes_non_sums(self):
        # 2+sqrt2 is totally positive but no candidate square fits under it
        x = Q2.element(from_literal_coords(Q2.shape, (F(2), F(1))))
        assert element_length(x, 6) == ExceedsBound(6)

    def test_four_plus_two_sqrt2(self):
        x = Q2.element(from_literal_coords(Q2.shape, (F(4), F(2))))
        assert element_length(x, 6) == 2

    def test_unique_two_square_value(self):
        x = Q17.element(Radical(Q17.shape, (F(11, 2), F(1, 2))))
        res = length_certificate(GramForm.from_element(x), 4)
        value, cert = res
        assert value == 2
        names = [str(row[0].to_radical()) for row in cert.rows]
        assert names == ["1/2 + 1/2*sqrt(17)", "1 + 0*sqrt(17)"]

    def test_one(self):
        assert element_length(Q.one(), 2) == 1

    def test_perp_unit_increments(self):
        g7 = zgram((7,))
        assert length(g7, 5) == 4
        assert length(perp_unit(g7), 6) == 5
        i1 = zgram((1,))
        assert length(perp_unit(i1), 3) == 2

    def test_perp_unit_rank3_length8(self):
        from soslen.suite import length_seven_binary_form

        f, gram = length_seven_binary_form(17)
        assert length(perp_unit(gram), 9) == 8

    def test_randomized_increment_property(self):
        rng = random.Random(47)
        for _ in range(30):
            field = (Q, Q2, Q17)[rng.randint(0, 2)]
            r = rng.choice((1, 2))
            rows = [
                tuple(
                    field.element_from_coords(
                        tuple(rng.randint(-2, 2) for _ in range(field.degree))
                    )
                    for _ in range(r)
                )
                for _ in range(rng.randint(1, 3))
            ]
            gram = GramForm.from_rows(field, rows)
            t = length(gram, 10)
            assert isinstance(t, int)
            assert length(perp_unit(gram), t + 2) == t + 1


class TestPoolCap:
    def test_oversized_search_space_raises(self):
        from soslen import SearchSpaceError

        g = zgram((10**6, 0, 0), (0, 10**6, 0), (0, 0, 10**6))
        with pytest.raises(SearchSpaceError):
            represent(g, 6)


class TestKnownValues:
    def test_quartic_pythagoras_witness(self):
        f = make_field(Shape((6, 7)))
        alpha = f.element(from_literal_coords(f.shape, (F(43), F(1), F(-8), F(1))))
        gram = GramForm.from_element(alpha)
        assert isinstance(represent(gram, 6), Unsat)
        out = represent(gram, 7)
        assert isinstance(out, Represented)
        assert verify_certificate(gram, out.certificate).ok

    def test_binary_length_seven_form(self):
        from soslen.suite import length_seven_binary_form

        f, gram = length_seven_binary_form(17)
        assert length(gram, 8) == 7

    def test_shifted_unit_square_length_five(self):
        from soslen.suite import seven_plus_half_square

        f, alpha = seven_plus_half_square(17)
        assert alpha.to_radical() == Radical(f.shape, (F(23, 2), F(1, 2)))
        assert element_length(alpha, 6) == 5
