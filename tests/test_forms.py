"""Gram forms, total positive semidefiniteness and certificate checking."""

import copy
import dataclasses
import pickle
import random
from fractions import Fraction as F

import pytest

from soslen import (
    Certificate,
    CertificateDocument,
    GramForm,
    NotIntegralError,
    OElement,
    Radical,
    Shape,
    document_from_certificate,
    emit_certificate,
    from_literal_coords,
    gram_rank,
    make_field,
    parse_certificate,
    perp_unit,
    to_certificate,
    totally_psd,
    verify_certificate,
)

Q = make_field(Shape(()))
Q5 = make_field(Shape((5,)))
Q6 = make_field(Shape((6,)))
Q17 = make_field(Shape((17,)))
Q67 = make_field(Shape((6, 7)))


def rational_gram(*rows):
    sh = Q.shape
    return GramForm(
        Q, tuple(tuple(Radical.from_rational(sh, v) for v in row) for row in rows)
    )


def zelt(k):
    return Q.element_from_coords((k,))


def same_gram(g, field, entries):
    """g is equal to, and hashes like, the Gram built from its entries."""
    ref = GramForm(field, entries)
    return g == ref and hash(g) == hash(ref) and g.entries == ref.entries


def fraction_rank(gram):
    """Rank over the field by plain Fraction elimination over Q.

    Each entry e becomes the d x d rational matrix of x -> e * x in the
    radical basis; the block matrix then has rank d times the field rank.
    """
    shape, d = gram.field.shape, gram.field.degree
    units = [Radical(shape, tuple(F(int(k == i)) for k in range(d))) for i in range(d)]
    m = [
        [(e * u).coords[k] for e in row for u in units]
        for row in gram.entries
        for k in range(d)
    ]
    rank = 0
    for col in range(len(m[0])):
        piv = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for r in range(len(m)):
            if r != rank and m[r][col]:
                f = m[r][col] / m[rank][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[rank])]
        rank += 1
    assert rank % d == 0
    return rank // d


def random_element(rng, field):
    """An element with coordinates in {-2, ..., 2}, zero one time in three."""
    if rng.random() < 1 / 3:
        return field.zero()
    return field.element_from_coords(tuple(rng.randint(-2, 2) for _ in range(field.degree)))


def full_outer_sum(field, rank, rows):
    """Coordinates of twice the sum of row (x) row, every product taken."""
    total = [[(0,) * field.degree] * rank for _ in range(rank)]
    for row in rows:
        for i in range(rank):
            for j in range(rank):
                p = field.mul_coords(row[i].coords, row[j].coords)
                total[i][j] = tuple(a + 2 * b for a, b in zip(total[i][j], p))
    return total


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
        assert g == rational_gram((2, 1), (1, 6))
        assert hash(g) == hash(rational_gram((2, 1), (1, 6)))

    def test_coordinate_constructors_match_entries(self):
        sh = Q17.shape
        alpha = Q17.element(Radical(sh, (F(5, 2), F(1, 2))))
        assert same_gram(GramForm.from_element(alpha), Q17, ((alpha.to_radical(),),))
        z = Radical.zero(Q6.shape)
        assert same_gram(GramForm.zero(Q6, 2), Q6, ((z, z), (z, z)))
        w = Q17.element(Radical(sh, (F(1, 2), F(1, 2))))
        rows = [(w, Q17.one()), (Q17.one(), -w)]
        entries = tuple(
            tuple((rows[0][i] * rows[0][j] + rows[1][i] * rows[1][j]).to_radical() for j in range(2))
            for i in range(2)
        )
        assert same_gram(GramForm.from_rows(Q17, rows), Q17, entries)

    def test_doubled_holds_the_coordinates_of_2g(self):
        sh = Q.shape
        half = Radical(sh, (F(1, 2),))
        g = GramForm(Q, ((Radical.one(sh), half), (half, Radical.from_rational(sh, 3))))
        assert g.doubled == (((2,), (1,)), ((1,), (6,)))
        assert GramForm.from_doubled(Q, g.doubled) == g
        with pytest.raises(NotIntegralError):
            GramForm.from_doubled(Q, (((1,),),))
        with pytest.raises(ValueError):
            GramForm.from_doubled(Q, (((2,), (1,)), ((3,), (2,))))


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
        # every 1 x 1 principal minor vanishes
        assert gram_rank(rational_gram((0, 1), (1, 0))) == 2
        # the leading 2 x 2 minor vanishes
        assert gram_rank(rational_gram((1, 1, 0), (1, 1, 0), (0, 0, 1))) == 2
        assert gram_rank(rational_gram((1, F(1, 2)), (F(1, 2), 1))) == 2

    def test_rank_over_number_fields(self):
        # (w, w + 1) = w (1, w) with w = (1 + sqrt 5)/2: rank 1 over Q(sqrt 5)
        w = Q5.element_from_coords((0, 1))
        g = GramForm.from_rows(Q5, [(Q5.one(), w), (w, w + Q5.one())])
        assert gram_rank(g) == 1 and fraction_rank(g) == 1
        # v and sqrt(6) v span one line; the third row adds a second
        s6 = Q67.element(Radical.sqrt_generator(Q67.shape, 0))
        one, zero = Q67.one(), Q67.zero()
        v = (one, s6, zero)
        rows = [v, tuple(s6 * x for x in v), (zero, zero, one)]
        g = GramForm.from_rows(Q67, rows)
        assert gram_rank(g) == 2 and fraction_rank(g) == 2

    @pytest.mark.parametrize("field", [Q, Q5, Q67], ids=str)
    def test_rank_matches_fraction_elimination(self, field):
        rng = random.Random(f"rank:{field.shape}")
        not_psd = 0
        for trial in range(60):
            psd = trial % 2 == 0
            n = rng.randint(1, 4)
            entries = [[Radical.zero(field.shape)] * n for _ in range(n)]
            for k in range(rng.randint(1, 4)):
                v = [
                    field.element_from_coords(
                        tuple(rng.randint(-2, 2) for _ in range(field.degree))
                    ).to_radical()
                    for _ in range(n)
                ]
                sign = 1 if psd else (-1 if k == 0 else rng.choice((1, -1)))
                for i in range(n):
                    for j in range(n):
                        entries[i][j] = entries[i][j] + (v[i] * v[j]).scale(sign)
            g = GramForm(field, tuple(tuple(row) for row in entries))
            assert gram_rank(g) == fraction_rank(g)
            if psd:
                assert totally_psd(g)
            elif not totally_psd(g):
                not_psd += 1
        assert not_psd >= 10

    def test_perp_unit_blocks(self):
        g = rational_gram((7,))
        pu = perp_unit(g)
        assert pu.rank == 2
        assert pu.entries[0][0] == Radical.from_rational(Q.shape, 7)
        assert pu.entries[1][1] == Radical.one(Q.shape)
        assert pu.entries[0][1].is_zero()
        assert pu == rational_gram((7, 0), (0, 1))
        assert hash(pu) == hash(rational_gram((7, 0), (0, 1)))
        pu = perp_unit(rational_gram((1, F(1, 2)), (F(1, 2), 1)))
        assert pu == rational_gram((1, F(1, 2), 0), (F(1, 2), 1, 0), (0, 0, 1))
        assert totally_psd(pu)
        assert pu.integral_coords() is None
        assert gram_rank(pu) == 3


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

    @pytest.mark.parametrize("field", [Q, Q5, Q67], ids=lambda f: str(f.shape))
    def test_a_zero_certificate_column_under_a_nonzero_entry(self, field):
        # products with a zero entry are skipped; the entries they stand
        # for are still compared
        rng = random.Random(f"zero-column:{field.shape}")
        zero, one = field.zero(), field.one()
        checked = 0
        while checked < 5:
            x, y = (random_element(rng, field) for _ in range(2))
            if x.is_zero() or y.is_zero():
                continue
            checked += 1
            cert = Certificate(field, 2, ((x, zero),))
            # (x, y)(x, y)^T: entry (0, 1) is xy, where the certificate gives 0
            res = verify_certificate(GramForm.from_rows(field, [(x, y)]), cert)
            assert not res.ok and res.reason == "gram-mismatch:0,1"
            # <x^2> (+) <y^2>: entry (1, 1) is y^2
            res = verify_certificate(GramForm.from_rows(field, [(x, zero), (zero, y)]), cert)
            assert not res.ok and res.reason == "gram-mismatch:1,1"
        # the padded rows of G without the unit row of G (+) <1>
        g = perp_unit(GramForm.from_element(one))
        res = verify_certificate(g, Certificate(field, 2, ((one, zero),)))
        assert not res.ok and res.reason == "gram-mismatch:1,1"

    @pytest.mark.parametrize("field", [Q, Q5, Q67], ids=lambda f: str(f.shape))
    def test_perp_padded_certificates(self, field):
        # rows V of G with a zero column put in at c, and e_c, certify G
        # with <1> put in at c; the sums equal those taken without the skip
        rng = random.Random(f"perp-padded:{field.shape}")
        zero, one = field.zero(), field.one()
        for _ in range(12):
            r = rng.randint(1, 3)
            rows = [tuple(random_element(rng, field) for _ in range(r)) for _ in range(3)]
            rows = [row for row in rows if any(not v.is_zero() for v in row)]
            if not rows:
                continue
            c = rng.randint(0, r)
            padded = [row[:c] + (zero,) + row[c:] for row in rows]
            padded.append(tuple(one if j == c else zero for j in range(r + 1)))
            gram = GramForm.from_rows(field, rows)
            order = list(range(r))
            order.insert(c, r)
            g = perp_unit(gram)
            g = GramForm.from_doubled(field, [[g.doubled[a][b] for b in order] for a in order])
            assert g == GramForm.from_doubled(field, full_outer_sum(field, r + 1, padded))
            assert verify_certificate(g, Certificate(field, r + 1, tuple(padded))).ok
            assert gram.doubled == tuple(map(tuple, full_outer_sum(field, r, rows)))

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


def _value_pairs():
    """Each value class with one value of it built two ways over Q(sqrt 5):
    from its exact entries and from integral coordinates, or through a
    certificate file."""
    sh = Q5.shape
    w = Radical(sh, (F(1, 2), F(1, 2)))  # (1 + sqrt5)/2, the basis element (0, 1)
    omega = Q5.element_from_coords((0, 1))
    two, three = Radical.from_rational(sh, 2), Radical.from_rational(sh, 3)
    rows = ((Q5.one(), omega), (Q5.one(), Q5.zero()))
    cert = Certificate(Q5, 2, rows)
    doc = document_from_certificate(GramForm.from_rows(Q5, rows), cert)
    return {
        Radical: (w, omega.to_radical()),
        OElement: (Q5.element(w), omega),
        GramForm: (
            GramForm(Q5, ((two, w), (w, three))),
            GramForm.from_doubled(Q5, (((4, 0), (0, 2)), ((0, 2), (6, 0)))),
        ),
        Certificate: (cert, to_certificate(parse_certificate(emit_certificate(doc)))[1]),
        CertificateDocument: (doc, parse_certificate(emit_certificate(doc))),
    }


VALUE_PAIRS = _value_pairs()


@pytest.mark.parametrize("cls", list(VALUE_PAIRS), ids=lambda c: c.__name__)
class TestValueContract:
    def test_fields_cannot_be_assigned(self, cls):
        value, _ = VALUE_PAIRS[cls]
        for f in dataclasses.fields(value):
            before = getattr(value, f.name)
            with pytest.raises(AttributeError):
                setattr(value, f.name, before)
            assert getattr(value, f.name) is before
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(value, f.name)
            assert getattr(value, f.name) is before

    def test_other_names_cannot_be_set_or_deleted(self, cls):
        # FrozenInstanceError is an AttributeError, not the TypeError that
        # dataclass's frozen check raises on a slotted class
        value, _ = VALUE_PAIRS[cls]
        with pytest.raises(AttributeError):
            value.extra = 1
        with pytest.raises(AttributeError):
            del value.extra
        assert not hasattr(value, "extra")

    @pytest.mark.parametrize("copier", [copy.copy, copy.deepcopy], ids=["copy", "deepcopy"])
    def test_copies_are_equal_values(self, cls, copier):
        value, _ = VALUE_PAIRS[cls]
        dup = copier(value)
        assert type(dup) is cls
        assert dup == value and hash(dup) == hash(value)

    @pytest.mark.parametrize("protocol", range(2, pickle.HIGHEST_PROTOCOL + 1))
    def test_pickles_to_an_equal_value(self, cls, protocol):
        # a Field pickles as its shape and comes back as make_field's field
        value, _ = VALUE_PAIRS[cls]
        dup = pickle.loads(pickle.dumps(value, protocol))
        assert type(dup) is cls
        assert dup == value and hash(dup) == hash(value)
        if hasattr(value, "field"):
            assert dup.field is value.field

    def test_built_two_ways_is_one_value(self, cls):
        a, b = VALUE_PAIRS[cls]
        assert a is not b
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1


def test_an_element_never_equals_its_radical():
    for field in (Q, Q5, Q67):
        alpha = field.element_from_coords(tuple(range(1, field.degree + 1)))
        x = alpha.to_radical()
        assert alpha != x and x != alpha
        assert field.element(x) == alpha and len({alpha, x}) == 2
