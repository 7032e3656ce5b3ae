"""Integral bases, membership and ring arithmetic of the field layer."""

import itertools
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soslen import (
    InvalidRadicandError,
    NotIntegralError,
    Radical,
    Shape,
    expected_discriminant,
    format_descriptor,
    from_literal_coords,
    is_algebraic_integer,
    make_field,
    parse_descriptor,
    render_radical,
)
from reference_mul import tensor_mul
from reference_search import characteristic_polynomial
from test_search import SCAN_SHAPES


def lit(shape, *coords):
    return from_literal_coords(shape, tuple(F(c) for c in coords))


class TestDescriptorGrammar:
    @pytest.mark.parametrize(
        "text,radicands",
        [
            ("Q", ()),
            ("Q(sqrt 17)", (17,)),
            ("Q(sqrt17)", (17,)),
            ("  Q ( sqrt 6 , sqrt 7 ) ", (6, 7)),
            ("Q(sqrt 10, sqrt 65)", (10, 65)),
            # a space is ignored anywhere, as in an element's text
            ("Q ( s qrt 1 7 )", (17,)),
        ],
    )
    def test_parse(self, text, radicands):
        assert parse_descriptor(text).radicands == radicands

    def test_roundtrip(self):
        for shape in (Shape(()), Shape((6,)), Shape((13, 15))):
            assert parse_descriptor(format_descriptor(shape)) == shape

    def test_rejects(self):
        for bad in (
            "Q(sqrt -3)",
            "Q[sqrt 5]",
            "F(sqrt 5)",
            "Q(sqrt 4)",
            "",
            # refused by size before the squarefree test could run for ages
            "Q(sqrt 1000000000000000000000000000057)",
            # radicands are ASCII digits: int() would read these as 6 and 7
            "Q(sqrt \u0666)",
            "Q(sqrt 6, sqrt \u0667)",
            "Q(sqrt \uff16)",
            # no whitespace but the ASCII space is ignored
            "Q(sqrt 6)\n",
            "Q(sqrt\t6)",
            "Q(sqrt 6,\r\nsqrt 7)",
            "Q(sqrt\u00a06)",
        ):
            with pytest.raises(InvalidRadicandError):
                parse_descriptor(bad)


class TestQuadraticBases:
    def test_one_mod_four_uses_half_integers(self):
        f = make_field(Shape((17,)))
        assert [render_radical(b) for b in f.integral_basis] == [
            "1 + 0*sqrt(17)",
            "1/2 + 1/2*sqrt(17)",
        ]
        assert f.discriminant == 17

    def test_other_residues_use_plain_sqrt(self):
        for n, disc in ((6, 24), (2, 8), (3, 12), (7, 28)):
            f = make_field(Shape((n,)))
            assert f.integral_basis[1] == Radical.sqrt_generator(f.shape, 0)
            assert f.discriminant == disc


class TestBiquadraticBases:
    @pytest.mark.parametrize("n", [17, 21, 29, 33, 37, 41, 53, 57, 61])
    def test_sqrt10_family_reproduces_customary_basis(self, n):
        """For n = 1 (mod 4) coprime to 10 the maximal order is generated by
        (1, sqrt 10, (1+sqrt n)/2, sqrt 10 (1+sqrt n)/2)."""
        f = make_field(Shape((10, n)))
        sh = f.shape
        w = lit(sh, F(1, 2), 0, F(1, 2), 0)
        s10 = Radical.sqrt_generator(sh, 0)
        expected = (Radical.one(sh), s10, w, s10 * w)
        got = f.integral_basis
        # same module: both bases express each other integrally
        for x in expected:
            assert f.coords_of(x) is not None
        span = make_span_matrix(expected)
        for b in got:
            assert solve_integral(span, b)

    def test_sqrt10_65_customary_module_has_index_five(self):
        """gcd(10, 65) = 5 makes sqrt(26) = sqrt(650)/5 integral, so the
        customary module misses it and sits at index 5 in the true order."""
        f = make_field(Shape((10, 65)))
        assert f.discriminant == expected_discriminant(f.shape) == 270400
        sh = f.shape
        sqrt26 = Radical(sh, (F(0), F(0), F(0), F(1)))
        assert is_algebraic_integer(sqrt26)
        assert f.coords_of(sqrt26) is not None
        w = lit(sh, F(1, 2), 0, F(1, 2), 0)
        s10 = Radical.sqrt_generator(sh, 0)
        customary = (Radical.one(sh), s10, w, s10 * w)
        for x in customary:
            assert f.coords_of(x) is not None  # customary module is a suborder
        span = make_span_matrix(customary)
        assert not solve_integral(span, sqrt26)
        index = module_index(f, customary)
        assert index == 5

    def test_corpus_fields_verify(self):
        for m, n in ((6, 7), (13, 15), (11, 57), (11, 61), (11, 65)):
            f = make_field(Shape((m, n)))
            assert f.discriminant == expected_discriminant(f.shape)
            assert f.integral_basis[0] == Radical.one(f.shape)
            for b in f.integral_basis:
                assert is_algebraic_integer(b)

    def test_basis_products_are_integral(self):
        f = make_field(Shape((13, 15)))
        for b1 in f.integral_basis:
            for b2 in f.integral_basis:
                assert f.coords_of(b1 * b2) is not None


class TestIntegralityDifferential:
    """x = (integer combination of the basis) + c/k is integral exactly when
    membership finds its coordinates; k ranges over denominators that both
    do and do not occur in the integral basis."""

    @pytest.mark.parametrize(
        "shape",
        [Shape(()), Shape((5,)), Shape((17,)), Shape((6, 7)), Shape((13, 15)), Shape((10, 65))],
        ids=str,
    )
    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(data=st.data())
    def test_matches_membership(self, shape, data):
        f = make_field(shape)
        ints = st.tuples(*[st.integers(-9, 9)] * f.degree)
        k = data.draw(st.integers(1, 4), label="k")
        c = data.draw(ints, label="c")
        x = f.radical_of_coords(data.draw(ints, label="basis coords")) + Radical(
            shape, tuple(F(v, k) for v in c)
        )
        assert is_algebraic_integer(x) == (f.coords_of(x) is not None)
        poly = characteristic_polynomial(x)
        assert len(poly) == f.degree + 1 and poly[-1] == 1
        assert -poly[-2] == x.trace()
        value = Radical.zero(shape)
        for coeff in reversed(poly):
            value = value * x + Radical.from_rational(shape, coeff)
        assert value.is_zero()


def make_span_matrix(basis):
    return [list(b.coords) for b in basis]


def solve_integral(span, x):
    """Whether x is an integer combination of the span rows (exact)."""
    m = [row[:] for row in span]
    target = list(x.coords)
    n = len(m)
    coeffs = [[F(int(i == j)) for j in range(n)] for i in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != 0), None)
        if piv is None:
            continue
        m[col], m[piv] = m[piv], m[col]
        coeffs[col], coeffs[piv] = coeffs[piv], coeffs[col]
        inv = F(1) / m[col][col]
        m[col] = [v * inv for v in m[col]]
        coeffs[col] = [v * inv for v in coeffs[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                factor = m[r][col]
                m[r] = [v - factor * p for v, p in zip(m[r], m[col])]
                coeffs[r] = [v - factor * p for v, p in zip(coeffs[r], coeffs[col])]
    sol = [F(0)] * n
    for col in range(n):
        sol = [s + target[col] * c for s, c in zip(sol, coeffs[col])]
    residual = [sum(sol[i] * span[i][j] for i in range(n)) for j in range(n)]
    if residual != list(x.coords):
        return False
    return all(v.denominator == 1 for v in sol)


def module_index(field, submodule_basis):
    """Index of the submodule inside the field's maximal order."""
    det = F(1)
    coords = []
    for b in submodule_basis:
        c = field.coords_of(b)
        assert c is not None
        coords.append([F(v) for v in c])
    n = len(coords)
    mat = [row[:] for row in coords]
    for col in range(n):
        piv = next(r for r in range(col, n) if mat[r][col] != 0)
        mat[col], mat[piv] = mat[piv], mat[col]
        if piv != col:
            det = -det
        det *= mat[col][col]
        inv = F(1) / mat[col][col]
        mat[col] = [v * inv for v in mat[col]]
        for r in range(col + 1, n):
            if mat[r][col] != 0:
                factor = mat[r][col]
                mat[r] = [v - factor * p for v, p in zip(mat[r], mat[col])]
    return abs(det)


class TestMembership:
    def test_basis_element_coords(self):
        f = make_field(Shape((17,)))
        el = f.element(Radical(f.shape, (F(1, 2), F(1, 2))))
        assert el.coords == (0, 1)

    def test_non_integral_rejected(self):
        f = make_field(Shape((17,)))
        with pytest.raises(NotIntegralError):
            f.element(Radical(f.shape, (F(0), F(1, 2))))
        assert f.coords_of(Radical(f.shape, (F(0), F(1, 2)))) is None

    def test_quartic_witness_is_integral(self):
        f = make_field(Shape((6, 7)))
        alpha = lit(f.shape, 43, 1, -8, 1)
        el = f.element(alpha)
        assert el.to_radical() == alpha
        assert el.trace() == 172

    def test_roundtrip_randomized(self):
        rng = random.Random(5)
        for shape in (Shape(()), Shape((5,)), Shape((6, 7)), Shape((10, 65))):
            f = make_field(shape)
            for _ in range(100):
                coords = tuple(rng.randint(-50, 50) for _ in range(f.degree))
                el = f.element_from_coords(coords)
                back = f.element(el.to_radical())
                assert back.coords == coords


class TestElementOps:
    def test_ring_identities(self):
        f = make_field(Shape((17,)))
        one = f.one()
        w = f.element_from_coords((0, 1))
        assert one * one == one
        assert (w * w).to_radical() == Radical(f.shape, (F(9, 2), F(1, 2)))

    def test_one_plus_sqrt2_squared(self):
        f = make_field(Shape((2,)))
        x = f.element(lit(f.shape, 1, 1))
        assert (x * x).to_radical() == lit(f.shape, 3, 2)

    def test_traces(self):
        f = make_field(Shape((6,)))
        assert f.one().trace() == 2
        assert f.element(Radical.sqrt_generator(f.shape, 0)).trace() == 0
        f4 = make_field(Shape((6, 7)))
        assert f4.one().trace() == 4

    def test_randomized_ring_axioms(self):
        rng = random.Random(9)
        f = make_field(Shape((13, 15)))
        for _ in range(50):
            a = f.element_from_coords(tuple(rng.randint(-4, 4) for _ in range(4)))
            b = f.element_from_coords(tuple(rng.randint(-4, 4) for _ in range(4)))
            c = f.element_from_coords(tuple(rng.randint(-4, 4) for _ in range(4)))
            assert (a + b) * c == a * c + b * c
            assert a * b == b * a
            assert (a * b).to_radical() == a.to_radical() * b.to_radical()

    @pytest.mark.parametrize("shape", SCAN_SHAPES + [Shape((2, 5)), Shape((6, 15))], ids=str)
    def test_mul_coords_matches_tensor_loop(self, shape):
        f = make_field(shape)
        d = f.degree
        rng = random.Random(sum(shape.radicands) + 83)
        samples = [(0,) * d, (1,) + (0,) * (d - 1), (-1,) * d]
        samples += [tuple((0, -1, 1)[(k + i) % 3] for i in range(d)) for k in range(3)]
        for bits in (3, 30, 64, 200):
            for _ in range(6):
                # some coordinates 0, the rest up to +-2^bits
                samples.append(
                    tuple(rng.choice((0, 1)) * rng.randint(-(2**bits), 2**bits) for _ in range(d))
                )
        samples.append((2**200,) * d)
        samples.append((-(2**200),) + (2**200 - 1,) * (d - 1))
        for a in samples:
            for b in samples:
                assert f.mul_coords(a, b) == tensor_mul(f._mul_tensor, a, b), (a, b)

    def test_mixed_fields_rejected(self):
        f1, f2 = make_field(Shape((2,))), make_field(Shape((3,)))
        with pytest.raises(ValueError):
            f1.one() + f2.one()


def leibniz_det(entries, rows, cols):
    """det entries[rows, cols] of Radicals as the signed sum over
    permutations, in Radical arithmetic only."""
    total = Radical.zero(entries[0][0].shape)
    for perm in itertools.permutations(range(len(rows))):
        inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
        term = Radical.one(total.shape)
        for i, j in zip(rows, perm):
            term = term * entries[i][cols[j]]
        total = total - term if inversions % 2 else total + term
    return total


def _symmetric_radicals(rng, field, n, kind):
    """A symmetric n x n matrix of integral Radicals: a sum of outer
    products (kind "psd", or "indefinite" with signs), plain random
    entries, one of those with its last index a copy of its first
    ("copy"), or a sum of outer products with its second row and column
    zero, so that only principal minors off the leading ones can be
    negative ("zero").

    The kinds around Sylvester's criterion: a sum of outer products plus a
    multiple of the identity, totally positive definite ("definite"); that
    with t sqrt(m) added to one diagonal entry, definite at the embeddings
    where sqrt(m) > 0 and often not at the others ("split"); P^T A P for a
    definite A of size n - 1 and P = [I | w], whose leading block is
    definite and whose whole is singular and PSD ("singular"); and a
    definite A of size n - 1 bordered by a nonzero column b and a last
    diagonal entry 0 or 1, whose last leading minor is often negative
    ("bordered")."""
    shape = field.shape

    def element():
        coords = tuple(rng.randint(-2, 2) for _ in range(field.degree))
        return field.radical_of_coords(coords)

    if kind == "definite":
        m = _symmetric_radicals(rng, field, n, "psd")
        for i in range(n):
            m[i][i] = m[i][i] + Radical.one(shape).scale(rng.randint(1, 2))
        return m
    if kind == "split":
        m = _symmetric_radicals(rng, field, n, "definite")
        if shape.radicands:
            i = rng.randrange(n)
            root = Radical.sqrt_generator(shape, rng.randrange(len(shape.radicands)))
            m[i][i] = m[i][i] + root.scale(rng.randint(10, 100))
        return m
    if kind == "singular":
        inner = _symmetric_radicals(rng, field, n - 1, "definite")
        w = [rng.randint(-1, 1) for _ in range(n - 1)]
        w[rng.randrange(n - 1)] = rng.choice((-1, 1))
        p = [[int(i == j) for j in range(n - 1)] + [w[i]] for i in range(n - 1)]
        m = [[Radical.zero(shape)] * n for _ in range(n)]
        for a in range(n):
            for b in range(n):
                for i in range(n - 1):
                    for j in range(n - 1):
                        if p[i][a] and p[j][b]:
                            m[a][b] = m[a][b] + inner[i][j].scale(p[i][a] * p[j][b])
        return m
    if kind == "bordered":
        inner = _symmetric_radicals(rng, field, n - 1, "definite")
        b = [element().scale(3) for _ in range(n - 1)]
        b[0] = b[0] + Radical.one(shape).scale(rng.choice((-21, 21)))  # b != 0
        m = [row + [x] for row, x in zip(inner, b)]
        return m + [b + [Radical.one(shape).scale(rng.randint(0, 1))]]
    if kind == "copy":
        inner = _symmetric_radicals(rng, field, n - 1, rng.choice(("psd", "random")))
        index = list(range(n - 1)) + [0]
        return [[inner[a][b] for b in index] for a in index]
    if kind == "zero":
        # plus x^2, k x y, y^2 at 0 and n - 1, k >= 2: on its own, a totally
        # nonnegative diagonal with a negative minor
        m = _symmetric_radicals(rng, field, n, "psd")
        x, y, last = element(), element(), n - 1
        m[0][0] = m[0][0] + x * x
        m[last][last] = m[last][last] + y * y
        m[0][last] = m[last][0] = m[0][last] + (x * y).scale(rng.choice((2, 3)))
        zero = Radical.zero(shape)
        return [[zero if 1 in (i, j) else e for j, e in enumerate(row)] for i, row in enumerate(m)]
    if kind == "random":
        m = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                m[i][j] = m[j][i] = element()
        return m
    m = [[Radical.zero(shape)] * n for _ in range(n)]
    for k in range(rng.randint(1, n + 1)):
        v = [element() for _ in range(n)]
        sign = -1 if kind == "indefinite" and (k == 0 or rng.random() < 0.5) else 1
        for i in range(n):
            for j in range(n):
                m[i][j] = m[i][j] + (v[i] * v[j]).scale(sign)
    return m


class TestMinors:
    """`Field.minor` and `Field.coords_psd` against Leibniz determinants in
    `Radical` arithmetic and exact `sign_at`, which share no code with the
    coordinate multiplication."""

    @pytest.mark.parametrize("radicands", [(), (5,), (6, 7), (10, 65)], ids=str)
    def test_minors_and_psd_match_radical_determinants(self, radicands, monkeypatch):
        field = make_field(Shape(radicands))
        rng = random.Random(f"minors:{radicands}")
        kinds = (
            "psd", "indefinite", "random", "copy", "zero",
            "definite", "split", "singular", "bordered",
        )
        # the sides of Sylvester's criterion: totally definite; definite at
        # one embedding and not PSD at another; a definite leading block
        # with a singular PSD whole; definite leading blocks and a last
        # leading minor negative at some embedding
        seen = dict.fromkeys(
            ("psd", "not psd", "singular", "definite", "split", "definite block", "negative last"),
            0,
        )
        if not radicands:
            del seen["split"]
        signed = []
        nonneg = field.coords_totally_nonneg
        monkeypatch.setattr(field, "coords_totally_nonneg", lambda c: signed.append(c) or nonneg(c))
        for trial in range(45 if field.degree < 4 else 27):
            n = rng.randint(2, 4)
            entries = _symmetric_radicals(rng, field, n, kinds[trial % len(kinds)])
            m = [[field.coords_of(x) for x in row] for row in entries]
            pairs = [
                (rows, cols)
                for size in range(1, n + 1)
                for rows in itertools.combinations(range(n), size)
                for cols in itertools.combinations(range(n), size)
            ]
            rng.shuffle(pairs)
            shared: dict = {}
            for rows, cols in pairs:
                det = field.minor(m, rows, cols, shared)
                assert det == field.minor(m, rows, cols, {}), (rows, cols)
                oracle = leibniz_det(entries, rows, cols)
                assert field.radical_of_coords(det) == oracle, (rows, cols)
            principal = {
                subset: [leibniz_det(entries, subset, subset).sign_at(emb) for emb in field.embeddings]
                for size in range(1, n + 1)
                for subset in itertools.combinations(range(n), size)
            }
            psd_at = [
                all(signs[e] >= 0 for signs in principal.values())
                for e in range(len(field.embeddings))
            ]
            # the leading minors' signs, smallest first
            leading = [principal[tuple(range(size))] for size in range(1, n + 1)]
            definite_at = [all(signs[e] > 0 for signs in leading) for e in range(len(psd_at))]
            psd = all(psd_at)
            signed.clear()
            assert field.coords_psd(m) == psd, entries
            assert len(signed) <= len(principal), "a minor signed twice"
            seen["psd" if psd else "not psd"] += 1
            seen["singular"] += leibniz_det(entries, tuple(range(n)), tuple(range(n))).is_zero()
            seen["definite"] += all(definite_at)
            if radicands:
                seen["split"] += any(definite_at) and not all(psd_at)
            lead_definite = all(s > 0 for signs in leading[:-1] for s in signs)
            seen["definite block"] += lead_definite and psd and 0 in leading[-1]
            seen["negative last"] += lead_definite and -1 in leading[-1]
        assert all(seen.values()), seen


class TestNorm:
    """`Field.norm_of_coords`, the product of the conjugates of x's radical
    numerators, against the constant term of the characteristic polynomial
    in `Radical` arithmetic, which expands the whole polynomial, and against
    the product of x's embedding floats, which comes from the embedding
    tables and not from `Shape.mul`."""

    @pytest.mark.parametrize("radicands", [(), (5,), (6, 7), (13, 15), (10, 65)], ids=str)
    def test_matches_the_characteristic_polynomial(self, radicands):
        field = make_field(Shape(radicands))
        shape = field.shape
        d = field.degree
        # the discriminant is the trace-form determinant
        assert field.discriminant == expected_discriminant(shape)
        assert field.norm_of_coords(field.one().coords) == 1
        one = Radical.one(shape)
        # units (a + b sqrt(r_i)) / c, of norm +-1 in Q(sqrt r_i), as (a, i, b, c)
        units = {
            (): [],
            (5,): [(1, 0, 1, 2)],
            (6, 7): [(5, 0, 2, 1), (8, 1, 3, 1)],
            (13, 15): [(3, 0, 1, 2), (4, 1, 1, 1)],
            (10, 65): [(3, 0, 1, 1), (8, 1, 1, 1)],
        }[radicands]
        unit_coords = [field.coords_of(one), field.coords_of(-one)]
        for a, i, b, c in units:
            unit = one.scale(a) + Radical.sqrt_generator(shape, i).scale(b)
            unit_coords.append(field.coords_of(unit.scale(F(1, c))))
        rng = random.Random(f"norm:{radicands}")
        seeded = [tuple(rng.randint(-20, 20) for _ in range(d)) for _ in range(30)]
        for coords in [(0,) * d] + unit_coords + seeded:
            norm = characteristic_polynomial(field.radical_of_coords(coords))[0] * (-1) ** d
            assert field.norm_of_coords(coords) == norm, coords
            values, _ = field.floats_of_coords(coords)
            assert abs(math.prod(values) - norm) <= 1e-9 * max(1, abs(norm)), coords
        assert all(abs(field.norm_of_coords(c)) == 1 for c in unit_coords)
