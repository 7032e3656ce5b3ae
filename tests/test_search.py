"""The exhaustive representation search and length computation."""

import itertools
import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction as F
from math import isqrt
from operator import add, gt, mul, sub
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soslen import (
    Certificate,
    ExceedsBound,
    GramForm,
    NotSoS,
    Radical,
    Represented,
    Shape,
    candidate_rows,
    element_length,
    from_literal_coords,
    gram_rank,
    length,
    length_certificate,
    make_field,
    perp_unit,
    represent,
    verify_certificate,
)
from soslen import search
from soslen.fields import Field
from soslen.gtable import g_table
from soslen.search import (
    RowPool,
    SearchSpaceError,
    _column_values,
    _search,
)
from soslen.suite import _random_rows, totally_positive_elements
import reference_search
from reference_scan import half_box_scan
from reference_search import (
    ProductPool,
    _remainder_psd,
    exact_prune_search,
    principal_minors_nonneg,
    reference_represent,
)

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
        assert represent(g, 3) == ExceedsBound(3)
        out = represent(g, 4)
        assert isinstance(out, Represented)
        assert len(out.certificate.rows) == 4

    def test_witness_check_survives_optimize(self):
        # python -O strips assert statements; a witness that fails its exact
        # check must still raise from represent and length_certificate
        code = (
            "from soslen import GramForm, Shape, VerifyResult, length_certificate, make_field\n"
            "from soslen import represent, search\n"
            "search.verify_certificate = lambda gram, cert: VerifyResult(False, 'patched')\n"
            "g = GramForm.from_element(make_field(Shape(())).element_from_coords((7,)))\n"
            "for call in (lambda: represent(g, 4), lambda: length_certificate(g, 4)):\n"
            "    try:\n"
            "        print(call())\n"
            "    except AssertionError as exc:\n"
            "        print('raised', exc)\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
        proc = subprocess.run(
            [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "raised internal soundness failure: patched\n" * 2, proc.stdout

    def test_not_totally_psd(self):
        g = GramForm.from_element(Q6.element(from_literal_coords(Q6.shape, (F(1), F(1)))))
        assert represent(g, 5) == NotSoS("not-totally-psd")

    def test_not_integral(self):
        # 2G is integral and G is not; integrality is decided on the whole
        # Gram, before the unit column of G (+) <1> is split off
        sh = Q.shape
        half = Radical(sh, (F(1, 2),))
        one = Radical.one(sh)
        g = GramForm(Q, ((one, half), (half, one)))
        for gram in (g, perp_unit(g)):
            assert represent(gram, 5) == NotSoS("not-integral")
            assert length_certificate(gram, 5) == NotSoS("not-integral")
            assert length(gram, 5) == NotSoS("not-integral")
            with pytest.raises(ValueError, match="gram matrix is not integral"):
                candidate_rows(gram)

    def test_zero_form(self):
        out = represent(zgram((0,)), 0)
        assert isinstance(out, Represented) and len(out.certificate.rows) == 0

    def test_budget_zero_nonzero_form(self):
        assert represent(zgram((1,)), 0) == ExceedsBound(0)

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

    def test_huge_bound_stops_at_trace_quotient(self):
        # 30+sqrt6 is totally positive but not a sum of squares; no
        # representation has more than trace / (smallest row key) rows
        x = Q6.element(from_literal_coords(Q6.shape, (F(30), F(1))))
        start = time.perf_counter()
        assert element_length(x, 10**9) == ExceedsBound(10**9)
        assert time.perf_counter() - start < 2

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
        g = zgram((10**6, 0, 0), (0, 10**6, 0), (0, 0, 10**6))
        with pytest.raises(SearchSpaceError):
            represent(g, 6)


def _inverse(m):
    """Inverse of a square Fraction matrix by Gauss-Jordan elimination."""
    n = len(m)
    aug = [
        [F(v) for v in row] + [F(int(i == j)) for j in range(n)]
        for i, row in enumerate(m)
    ]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col])
        aug[col], aug[piv] = aug[piv], aug[col]
        aug[col] = [v / aug[col][col] for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [v - f * p for v, p in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def brute_column_values(field, diag):
    """Every nonzero x in O with diag - x^2 totally nonnegative.

    sigma(x)^2 <= sigma(diag) everywhere gives trace(x^2) <= t = trace(diag),
    and trace(x^2) = c^T T c for the trace form T, so c_i^2 <= t (T^-1)_ii.
    """
    d = field.degree
    unit = [tuple(int(i == j) for j in range(d)) for i in range(d)]
    gram = [
        [field.trace_of_coords(field.mul_coords(a, b)) for b in unit] for a in unit
    ]
    inv = _inverse(gram)
    t = field.trace_of_coords(diag)
    if t <= 0:
        return set()
    limits = [math.isqrt(int(t * inv[i][i])) for i in range(d)]
    out = set()
    for x in itertools.product(*(range(-b, b + 1) for b in limits)):
        if not any(x):
            continue
        sq = field.mul_coords(x, x)
        if field.coords_totally_nonneg(tuple(a - b for a, b in zip(diag, sq))):
            out.add(x)
    return out


def reference_pool(field, icoords, columns):
    """The sorted candidate rows of RowPool: the rows v of the product of
    brute-force columns with G - vv^T totally PSD, with every principal
    minor signed (`principal_minors_nonneg`), each
    as (key, flat, cols, outer, floats of vv^T); outer and floats hold the
    upper triangle column by column."""
    d = field.degree
    n_emb = len(field.embeddings)
    r = len(columns)
    slots = [(i, j) for j in range(r) for i in range(j + 1)]
    zero = (0,) * d
    columns = [[zero] + sorted(vals) for vals in columns]
    rows = []
    for cols in itertools.product(*columns):
        lead = next((v for v in cols if any(v)), None)
        if lead is None or field.sign_of_coords(lead, 0) < 0:
            continue
        remainder = [
            [
                tuple(g - p for g, p in zip(icoords[i][j], field.mul_coords(cols[i], cols[j])))
                for j in range(r)
            ]
            for i in range(r)
        ]
        if not principal_minors_nonneg(field, remainder):
            continue
        squares = [field.mul_coords(v, v) for v in cols]
        key = sum(field.trace_of_coords(s) for s in squares)
        flat = tuple(c for v in cols for c in v)
        outer = tuple(c for i, j in slots for c in field.mul_coords(cols[i], cols[j]))
        # the entries of vv^T, each at every embedding, from the interval
        # midpoints of the columns
        mids = [
            [sum(field.interval_of_coords(v, e)) * 2.0**-97 for e in range(n_emb)]
            for v in cols
        ]
        floats = tuple(a * b for i, j in slots for a, b in zip(mids[i], mids[j]))
        rows.append((key, flat, cols, outer, floats))
    rows.sort(key=lambda t: (t[0], t[1]), reverse=True)
    return rows


SCAN_SHAPES = [Shape(rads) for rads in ((), (5,), (17,), (6, 7), (13, 15), (10, 65))]

# (unit of a quadratic subfield in radical coordinates, largest k) for the
# diagonals u^(2k): large at one embedding and small at its conjugates
SUBFIELD_UNITS = {
    (2, 5): [((1, 1, 0, 0), 3), ((F(1, 2), 0, F(1, 2), 0), 3), ((3, 0, 0, 1), 1)],
    (6, 7): [((5, 2, 0, 0), 1), ((8, 0, 3, 0), 1), ((13, 0, 0, 2), 1)],
}


def _unit_squares(field):
    """The even powers u^(2k) of `SUBFIELD_UNITS` in integral coordinates."""
    out = []
    for unit, top in SUBFIELD_UNITS[field.shape.radicands]:
        u = field.element(from_literal_coords(field.shape, tuple(F(c) for c in unit))).coords
        power = u
        for _ in range(top):
            out.append(field.mul_coords(power, power))
            power = field.mul_coords(power, u)
    return out


def _sum_of_squares(field, diag, xs):
    for x in xs:
        diag = tuple(map(add, diag, field.mul_coords(x, x)))
    return diag


def _random_element(rng, field, spread):
    return tuple(rng.randint(-spread, spread) for _ in range(field.degree))


def _plus_four(gram):
    """gram (+) <4>, one rank higher."""
    field = gram.field
    zero = (0,) * field.degree
    rows = [row + (zero,) for row in gram.doubled]
    rows.append((zero,) * gram.rank + ((8,) + zero[1:],))
    return GramForm.from_doubled(field, rows)


class TestColumnScan:
    @pytest.mark.parametrize("shape", SCAN_SHAPES, ids=str)
    def test_matches_brute_force(self, shape):
        field = make_field(shape)
        rng = random.Random(53 + sum(shape.radicands))
        d = field.degree
        spread = 3 if d < 4 else 1
        diagonals = [(0,) * d, (1,) + (0,) * (d - 1)]
        for _ in range(20 if d < 4 else 8):
            diag = (rng.randint(0, 3),) + (0,) * (d - 1)
            for _ in range(rng.randint(1, 3)):
                x = _random_element(rng, field, spread)
                diag = tuple(a + b for a, b in zip(diag, field.mul_coords(x, x)))
            diagonals.append(diag)
        for diag in diagonals:
            records = _column_values(field, diag)
            coords = [v.coords for v in records]
            negated = [tuple(-c for c in x) for x in coords]
            assert len(set(coords + negated)) == 2 * len(coords)
            assert set(coords + negated) == brute_column_values(field, diag), diag
            for v in records:
                assert field.sign_of_coords(v.coords, 0) > 0
                sq = field.mul_coords(v.coords, v.coords)
                assert v.square == sq
                assert v.trace == field.trace_of_coords(sq)
                for e in range(len(field.embeddings)):
                    lo, hi = field.interval_of_coords(v.coords, e)
                    assert v.values[e] == (lo + hi) * 2.0**-97
                    assert v.square_values[e] == v.values[e] ** 2

    @pytest.mark.parametrize("shape", SCAN_SHAPES, ids=str)
    def test_pool_matches_reference_pool(self, shape):
        field = make_field(shape)
        rng = random.Random(59 + sum(shape.radicands))
        d = field.degree
        cache = {}
        for rank in (1, 2, 3):
            made = 0
            while made < (5 if d < 4 else 3):
                spread = 2 if d < 4 and rank < 3 else 1
                rows = [
                    tuple(
                        field.element_from_coords(_random_element(rng, field, spread))
                        for _ in range(rank)
                    )
                    for _ in range(rng.randint(1, 2 if d < 4 else 1))
                ]
                gram = GramForm.from_rows(field, rows)
                icoords = gram.integral_coords()
                diagonals = [icoords[j][j] for j in range(rank)]
                for diag in diagonals:
                    if diag not in cache:
                        cache[diag] = brute_column_values(field, diag)
                columns = [cache[diag] for diag in diagonals]
                if math.prod(len(vals) + 1 for vals in columns) > 4000:
                    continue  # keeps the pure-Python reference pool quick
                made += 1
                pool = RowPool(gram)
                ref = reference_pool(field, icoords, columns)
                assert pool.cols == tuple(t[2] for t in ref), diagonals
                assert pool.keys == tuple(t[0] for t in ref)
                assert pool.outers == tuple(t[3] for t in ref)
                assert pool.floats == tuple(t[4] for t in ref)

    @pytest.mark.parametrize("shape", SCAN_SHAPES[:4], ids=str)
    def test_inconclusive_screens_are_decided_exactly(self, shape, monkeypatch):
        # G - vv^T = 0 for the row of a one-row Gram, and the row 2 e_last
        # of G (+) <4> leaves G (+) <0>: exact zero minors, which a float
        # screen with a nonzero error band cannot sign, so the exact test
        # must decide them.  Over Q the floats are exact integers, the band
        # is 0 and the screen decides every minor itself.  G has no unit
        # column, which the searches split off before any pool is built
        # (`_split_units`): its diagonal entries are 2x^2, of trace at
        # least 2 degree.
        field = make_field(shape)
        rng = random.Random(67 + sum(shape.radicands))
        exact_calls = []
        coords_psd = field.coords_psd

        def counted(m):
            exact_calls.append(len(m))
            return coords_psd(m)

        monkeypatch.setattr(field, "coords_psd", counted)
        one = field.one()
        for rank in (2, 3):
            row = (field.zero(),)
            while not all(any(v.coords) for v in row):
                row = tuple(
                    field.element_from_coords(_random_element(rng, field, 1))
                    for _ in range(rank)
                )
            single = GramForm.from_rows(field, [row])
            grams = [single, _plus_four(GramForm.from_rows(field, [row[1:]] * 2))]
            if rank == 2:
                grams.append(_plus_four(GramForm.from_rows(field, [(one, one)])))
            for gram in grams:
                icoords = gram.integral_coords()
                exact_calls.clear()
                pool = RowPool(gram)
                assert bool(exact_calls) == (field.degree > 1)
                columns = [brute_column_values(field, icoords[j][j]) for j in range(gram.rank)]
                ref = reference_pool(field, icoords, columns)
                assert pool.cols == tuple(t[2] for t in ref)
                assert pool.keys == tuple(t[0] for t in ref)
                assert pool.outers == tuple(t[3] for t in ref)
                assert pool.floats == tuple(t[4] for t in ref)
            sign = 1 if row[0].sign_at_index(0) > 0 else -1
            assert tuple(tuple(sign * c for c in v.coords) for v in row) in RowPool(single).cols

    def test_oversized_box_raises_before_scan(self):
        field = make_field(Shape((6, 7)))
        with pytest.raises(SearchSpaceError, match="coordinate box"):
            _column_values(field, (10**6, 0, 0, 0))

    def test_square_equal_to_the_diagonal_fits(self):
        # sqrt2^2 = 2 at both embeddings: sqrt2 meets the root of 2, so it
        # stays in range and the exact test keeps it
        assert [v.coords for v in _column_values(Q2, (2, 0))] == [(0, 1), (1, 0)]

    def test_diagonal_negative_somewhere_is_not_scanned(self, monkeypatch):
        def no_scan(*args):
            raise AssertionError("scanned")

        monkeypatch.setattr(search, "_slice_range", no_scan)
        # 1 - sqrt2 < 0 at the identity embedding
        assert _column_values.__wrapped__(Q2, (1, -1)) == () == half_box_scan(Q2, (1, -1))
        # the box refusal still comes first
        with pytest.raises(SearchSpaceError, match="coordinate box"):
            _column_values.__wrapped__(Q2, (2 * 10**6, -2 * 10**6))

    @pytest.mark.parametrize("shape", SCAN_SHAPES, ids=str)
    def test_matches_half_box_scan_on_boundary_diagonals(self, shape):
        # diag = x^2 and x^2 + y^2: x, and y when x = 0, meet the diagonal
        # exactly at every embedding
        field = make_field(shape)
        rng = random.Random(71 + sum(shape.radicands))
        d = field.degree
        spread = 3 if d < 4 else 1
        for _ in range(10 if d < 4 else 5):
            x = _random_element(rng, field, spread)
            y = _random_element(rng, field, spread)
            square = field.mul_coords(x, x)
            for diag in (square, tuple(map(add, square, field.mul_coords(y, y)))):
                records = _column_values(field, diag)
                assert records == half_box_scan(field, diag), diag
                if any(x):
                    assert x in {v.coords for v in records} | {
                        tuple(-c for c in v.coords) for v in records
                    }

    @pytest.mark.parametrize("shape", SCAN_SHAPES, ids=str)
    @settings(derandomize=True, max_examples=25, deadline=None)
    @given(data=st.data())
    def test_matches_half_box_scan_on_sums_of_squares(self, shape, data):
        field = make_field(shape)
        spread = 3 if field.degree < 4 else 1
        coords = st.tuples(*[st.integers(-spread, spread)] * field.degree)
        diag = (data.draw(st.integers(0, 3), label="integer"),) + (0,) * (field.degree - 1)
        for x in data.draw(st.lists(coords, min_size=1, max_size=3), label="squares"):
            diag = tuple(map(add, diag, field.mul_coords(x, x)))
        assert _column_values(field, diag) == half_box_scan(field, diag)

    @pytest.mark.parametrize("radicands", list(SUBFIELD_UNITS), ids=str)
    def test_matches_half_box_scan_on_unit_diagonals(self, radicands):
        # all of u^(2k) sits at one embedding: the slice of a prefix is long
        # and thin, and the box limits are far from it
        field = make_field(Shape(radicands))
        rng = random.Random(73 + sum(radicands))
        for square in _unit_squares(field):
            u = next(v.coords for v in _column_values(field, square))
            assert field.mul_coords(u, u) == square
            for count in (0, 1, 2):
                xs = [_random_element(rng, field, 1) for _ in range(count)]
                diag = _sum_of_squares(field, square, xs)
                assert _column_values(field, diag) == half_box_scan(field, diag), diag

    def test_matches_half_box_scan_on_forms_biquad_diagonals(self, monkeypatch):
        # the diagonals of Grams of 2-3 rows with {-1, 0, 1} coordinates
        field = make_field(Shape((13, 15)))
        rng = random.Random(79)
        created = [0, 0, 0, 0]  # prefixes of length 1, 2 and 3, and points
        slice_range = search._slice_range

        def counted(bounds, prefix, limit):
            first, last = slice_range(bounds, prefix, limit)
            start = first if any(prefix) else max(first, 0)
            created[len(prefix)] += len(range(start, last + 1))
            return first, last

        monkeypatch.setattr(search, "_slice_range", counted)
        for _ in range(24):
            xs = [_random_element(rng, field, 1) for _ in range(rng.randint(2, 3))]
            diag = _sum_of_squares(field, (0,) * 4, xs)
            assert _column_values.__wrapped__(field, diag) == half_box_scan(field, diag), diag
        # the counts of the exact slice ranges, narrowest coordinate first: a
        # bound that stays sound but is looser scans more, and so does the
        # basis order (228, 1184 and 2894 prefixes here)
        assert created[0] <= 47 and created[1] <= 95 and created[2] <= 460, created
        assert created[3] <= 2199, created

    @pytest.mark.parametrize("shape", SCAN_SHAPES + [Shape((2, 5))], ids=str)
    @settings(derandomize=True, max_examples=25, deadline=None)
    @given(data=st.data())
    def test_slice_ranges_hold_every_live_prefix(self, shape, data):
        # at every level, the range solved for the scan-order prefix of each
        # member of the half box must contain the member's coordinate; the
        # scan keeps the member of +-x whose first nonzero coordinate in scan
        # order is positive
        field = make_field(shape)
        spread = 2 if field.degree < 4 else 1
        coords = st.tuples(*[st.integers(-spread, spread)] * field.degree)
        diag = (data.draw(st.integers(0, 3), label="integer"),) + (0,) * (field.degree - 1)
        if shape.radicands in SUBFIELD_UNITS and data.draw(st.booleans(), label="unit"):
            diag = tuple(map(add, diag, data.draw(st.sampled_from(_unit_squares(field)))))
        xs = data.draw(st.lists(coords, min_size=1, max_size=3), label="squares")
        diag = _sum_of_squares(field, diag, xs)
        solved = {}
        slice_range = search._slice_range

        def recorded(bounds, prefix, limit):
            solved[prefix] = slice_range(bounds, prefix, limit)
            return solved[prefix]

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(search, "_slice_range", recorded)
            records = _column_values.__wrapped__(field, diag)
        expected = half_box_scan(field, diag)
        assert records == expected
        order = search._scan_order(field)
        for v in expected:
            x = tuple(v.coords[j] for j in order)
            if next(c for c in x if c) < 0:
                x = tuple(-c for c in x)
            for i in range(field.degree):
                first, last = solved[x[:i]]
                assert first <= x[i] <= last, (diag, v.coords, i)

    def test_scan_order_is_narrowest_box_first(self):
        assert search._scan_order(make_field(Shape(()))) == (0,)
        for shape in SCAN_SHAPES[1:] + [Shape((2, 5))]:
            field = make_field(shape)
            order = search._scan_order(field)
            assert sorted(order) == list(range(field.degree))
            assert [field._box_nums[j] for j in order] == sorted(field._box_nums), shape

    @pytest.mark.parametrize("radicands", [(5,), (6, 7), (13, 15)], ids=str)
    def test_records_do_not_depend_on_the_scan_order(self, radicands, monkeypatch):
        # every order of the coordinates solves its own slice ranges, and
        # returns the same records in the same order
        field = make_field(Shape(radicands))
        rng = random.Random(83 + sum(radicands))
        diags = []
        for _ in range(4):
            xs = [_random_element(rng, field, 1) for _ in range(rng.randint(2, 3))]
            diags.append(_sum_of_squares(field, (0,) * field.degree, xs))
        if radicands in SUBFIELD_UNITS:
            diags.append(_unit_squares(field)[0])
        expected = [half_box_scan(field, diag) for diag in diags]
        assert all(expected)
        search._slice_supports.cache_clear()
        try:
            for order in itertools.permutations(range(field.degree)):
                monkeypatch.setattr(search, "_scan_order", lambda _, order=order: order)
                search._slice_supports.cache_clear()
                records = [_column_values.__wrapped__(field, diag) for diag in diags]
                assert records == expected, order
        finally:
            monkeypatch.undo()
            search._slice_supports.cache_clear()


class TestColumnBounds:
    """The bounds `_column_values` keeps with its records, which both float
    screens read, hold every record, checked against the records' exact
    integer enclosures."""

    @pytest.mark.parametrize("shape", SCAN_SHAPES, ids=str)
    def test_bounds_hold_every_column_record(self, shape):
        field = make_field(shape)
        rng = random.Random(97 + sum(shape.radicands))
        d = field.degree
        n_emb = len(field.embeddings)
        scale = F(2**96)
        spread = 2 if d < 4 else 1
        zero_columns = records = 0
        for rank in (1, 2, 3):
            for _ in range(4):
                # the last column of every other Gram is zero in every row
                zero_last = rank > 1 and rng.random() < 0.5
                rows = [
                    tuple(
                        field.zero()
                        if zero_last and j == rank - 1
                        else field.element_from_coords(_random_element(rng, field, spread))
                        for j in range(rank)
                    )
                    for _ in range(rng.randint(1, 3))
                ]
                icoords = GramForm.from_rows(field, rows).integral_coords()
                columns = [_column_values(field, icoords[j][j]) for j in range(rank)]
                for values in columns:
                    bound, err = values.bound, values.err
                    if not values:
                        zero_columns += 1
                        assert bound == err == (0.0,) * n_emb
                    for v in values:
                        records += 1
                        for e in range(n_emb):
                            lo, hi = field.interval_of_coords(v.coords, e)
                            # sigma_e(x) lies in [lo, hi] / 2^96
                            assert max(abs(lo), abs(hi)) <= F(bound[e]) * scale, (v, e)
                            value = F(v.values[e]) * scale
                            distance = max(abs(value - lo), abs(value - hi))
                            assert distance <= F(err[e]) * scale, (v, e)
                    if d == 1:
                        assert not any(err)
        assert zero_columns and records > 30, (zero_columns, records)

    def test_a_nonzero_diagonal_without_values_gets_zero(self):
        # 2 - sqrt2 is totally positive, and no nonzero x in Z[sqrt2] has
        # x^2 <= 2 - sqrt2 at both embeddings
        empty = _column_values(Q2, (2, -1))
        assert empty == ()
        assert empty.bound == empty.err == (0.0, 0.0)
        full = _column_values(Q2, (2, 0))
        assert all(full.bound) and all(full.err)

    @pytest.mark.parametrize("radicands", [(5,), (6, 7), (13, 15)], ids=str)
    def test_bounds_do_not_read_the_pool_cap(self, radicands, monkeypatch):
        # the error of a column float comes from the diagonal's coordinate
        # box, not from the cap that refuses oversized boxes and pools; the
        # uncached scan computes the bounds again under the patched cap
        field = make_field(Shape(radicands))
        rng = random.Random(101 + sum(radicands))
        spread = 2 if field.degree < 4 else 1
        diagonals = []
        for rank in (1, 2, 3):
            rows = [
                tuple(
                    field.element_from_coords(_random_element(rng, field, spread))
                    for _ in range(rank)
                )
                for _ in range(2)
            ]
            icoords = GramForm.from_rows(field, rows).integral_coords()
            diagonals += [icoords[j][j] for j in range(rank)]

        def bounds():
            scans = [_column_values.__wrapped__(field, diag) for diag in diagonals]
            return [(values.bound, values.err) for values in scans]

        before = bounds()
        assert any(any(err) for _, err in before)
        monkeypatch.setattr(search, "POOL_ROW_CAP", 10**30)
        assert bounds() == before


class TestSharedColumns:
    """`RowPool` reads a diagonal n > 0 over Z under the key isqrt(n)^2
    (`search._column_key`), and every rank-1 pool on one column shares its
    sorted rows (`_Values.rank1_rows`)."""

    def test_integer_keys_give_the_scan_of_n(self):
        for n in range(-3, 2001):
            key = search._column_key(Q, (n,))
            records = _column_values(Q, key)
            assert records == half_box_scan(Q, (n,)), n
            root = isqrt(max(n, 0))
            assert [v.coords for v in records] == [(x,) for x in range(1, root + 1)], n
            if records:
                assert key == (root * root,) and records.bound[0] >= root
            pool = RowPool(zgram((n,)))
            assert pool.cols == tuple(((x,),) for x in range(root, 0, -1)), n
            assert pool.root == (n,) and pool.trace == n
        # one scan per integer square root
        assert len({search._column_key(Q, (n,)) for n in range(1, 2001)}) == isqrt(2000)
        # the key is the diagonal itself over larger rings
        assert search._column_key(Q2, (5, 1)) == (5, 1)

    def test_rank_one_pools_share_their_rows(self):
        for low, high in ((zgram((9999,)), zgram((9801,))), (zgram((10000,)), zgram((10001,)))):
            a, b = RowPool(low), RowPool(high)
            for name in ("keys", "cols", "outers", "floats", "neg_keys", "outer_index"):
                assert getattr(a, name) is getattr(b, name), name
            assert a.diag_floats is a.floats is b.floats
            assert a.root != b.root and a.trace != b.trace
            assert a.screen is not b.screen
            assert a.screen.root_floats != b.screen.root_floats
        # a pool of a larger ring shares the rows of its diagonal too
        gram = GramForm.from_doubled(Q2, [[(14, 4)]])  # 7 + 2 sqrt2
        a, b = RowPool(gram), RowPool(gram)
        assert a.cols is b.cols and a.outer_index is b.outer_index and a.screen is not b.screen
        assert all(type(getattr(a, name)) is tuple for name in ("keys", "cols", "outers", "floats"))

    def test_rank_two_pools_build_no_rank_one_rows(self):
        _column_values.cache_clear()
        gram = zgram((5, 1), (1, 7))
        pool = RowPool(gram)
        assert len(pool) > 0
        for n in (5, 7):
            assert "rank1_rows" not in vars(_column_values(Q, search._column_key(Q, (n,))))
        RowPool(zgram((6,)))
        assert "rank1_rows" in vars(_column_values(Q, (4,)))

    def test_searches_leave_the_shared_rows_unchanged(self):
        # 7 and 8 read the column of 4; 7 + 2 sqrt2 is read twice
        sqrt2_gram = GramForm.from_doubled(Q2, [[(14, 4)]])
        for one, other in ((zgram((7,)), zgram((8,))), (sqrt2_gram, sqrt2_gram)):
            pools = [RowPool(one), RowPool(other)]
            field, diag = one.field, one.integral_coords()[0][0]
            rows = _column_values(field, search._column_key(field, diag)).rank1_rows
            before = (rows[:5], dict(rows[5]))
            for gram, pool in zip((one, other), pools):
                for budget in range(1, 5):
                    indices = _search(pool, budget, {})
                    if indices is not None:
                        cert = search._certificate(gram, [], pool, indices)
                        assert verify_certificate(gram, cert).ok
                        break
                else:
                    raise AssertionError(f"no witness of {gram} by at most 4 squares")
            for pool in pools:
                assert (pool.keys, pool.cols, pool.outers, pool.floats, pool.neg_keys) == rows[:5]
                assert pool.outer_index is rows[5]
            assert (rows[:5], rows[5]) == before


class TestPrunedPoolDifferential:
    """`RowPool` keeps only rows v with G - vv^T totally PSD; the full
    product of column values, `ProductPool`, is the reference."""

    @staticmethod
    def product_size(gram):
        icoords = gram.integral_coords()
        return math.prod(
            2 * len(_column_values(gram.field, icoords[j][j])) + 1 for j in range(gram.rank)
        )

    @pytest.mark.parametrize("radicands", [(), (5,), (6, 7)], ids=str)
    def test_verdicts_and_witnesses_match_the_product_pool(self, radicands):
        field = make_field(Shape(radicands))
        rng = random.Random(71 + sum(radicands))
        spread = 1 if len(radicands) == 2 else 2
        grams = []
        for rank in (2, 3):
            made = 0
            while made < 8:
                rows = [
                    tuple(
                        field.element_from_coords(_random_element(rng, field, spread))
                        for _ in range(rank)
                    )
                    for _ in range(rng.randint(1, 3))
                ]
                gram = GramForm.from_rows(field, rows)
                # small products keep the unordered reference search quick
                if gram.is_zero() or self.product_size(gram) > 300:
                    continue
                made += 1
                grams.append((gram, len(rows)))
                if rank == 2:
                    grams.append((perp_unit(gram), len(rows) + 1))
        for gram, s_max in grams:
            full = ProductPool(gram)
            assert len(RowPool(gram)) <= len(full)
            t, cert = length_certificate(gram, s_max)
            for budget in range(t + 1):
                fast = represent(gram, budget)
                assert isinstance(fast, Represented) == (budget == t)
                if len(full) <= 150:
                    assert type(fast) is type(reference_represent(gram, budget))
            # the first witness of the ordered search over the product pool
            for budget in range(1, t):
                assert _search(full, budget, {}) is None
            indices = _search(full, t, {})
            assert cert.rows == full.rows_as_elements(indices)

    @pytest.mark.parametrize(
        "radicands,ranks", [((), (3, 4)), ((5,), (3, 4)), ((6, 7), (3,))], ids=str
    )
    def test_definite_levels_keep_the_product_pool_rows(self, radicands, ranks):
        # Grams of rank r from at least r rows, so that their leading blocks
        # are often totally positive definite and the pool screens those
        # levels by the leading minor alone; a third of them have a last
        # column that is a signed sum of earlier ones, so that the whole is
        # singular behind a definite leading block.  The reference keeps the
        # rows of the full product with G - vv^T totally PSD, every
        # principal minor signed (`_remainder_psd`).  Entries are 0 or +-1
        # times a basis element, which keeps the full products small.
        field = make_field(Shape(radicands))
        d, n_emb = field.degree, len(field.embeddings)
        rng = random.Random(113 + sum(radicands))

        def entry():
            coords = [0] * d
            if rng.random() < 0.6:
                coords[rng.randrange(d)] = rng.choice((-1, 1))
            return field.element_from_coords(tuple(coords))

        def definite(icoords, size):
            lead = tuple(range(size))
            return all(
                any(det) and field.coords_totally_nonneg(det)
                for det in (field.minor(icoords, lead[:n], lead[:n], {}) for n in range(1, size + 1))
            )

        for rank in ranks:
            seen = {"definite": 0, "definite block, singular whole": 0}
            made = 0
            while made < (12 if d < 4 else 6):
                rows = [[entry() for _ in range(rank - 1)] for _ in range(rng.randint(rank, rank + 1))]
                if made % 3 == 2:
                    signs = [rng.choice((-1, 0, 1)) for _ in range(rank - 1)]
                    signs[rng.randrange(rank - 1)] = rng.choice((-1, 1))
                    for row in rows:
                        last = field.zero()
                        for sign, x in zip(signs, row):
                            last = last + x if sign > 0 else last - x if sign < 0 else last
                        row.append(last)
                else:
                    for row in rows:
                        row.append(entry())
                gram = GramForm.from_rows(field, [tuple(row) for row in rows])
                icoords = gram.integral_coords()
                if not definite(icoords, rank - 1) or self.product_size(gram) > 2000:
                    continue
                made += 1
                full_rank = any(field.minor(icoords, tuple(range(rank)), tuple(range(rank)), {}))
                seen["definite"] += definite(icoords, rank)
                seen["definite block, singular whole"] += not full_rank
                columns = [
                    _column_values(field, search._column_key(field, icoords[j][j]))
                    for j in range(rank)
                ]
                screens = search._minor_screens(field, icoords, columns)
                for k in range(2, rank):
                    if definite(icoords, k + 1):
                        assert len(screens[k]) == n_emb, k  # the leading minor alone
                pool, full = RowPool(gram), ProductPool(gram)
                kept = [
                    i
                    for i, outer in enumerate(full.outers)
                    if _remainder_psd(full, full.subtract(full.root, outer))
                ]
                assert pool.cols == tuple(full.cols[i] for i in kept)
                assert pool.keys == tuple(full.keys[i] for i in kept)
                assert pool.outers == tuple(full.outers[i] for i in kept)
                assert pool.floats == tuple(full.floats[i] for i in kept)
            assert all(seen.values()), (rank, seen)


class CountingMemo(dict):
    """A search memo that counts its lookups: one per expanded node."""

    lookups = 0

    def get(self, key, default=None):
        self.lookups += 1
        return super().get(key, default)


def _searched_like_length(gram, s_max):
    """(indices, nodes) of `_search` and of the exact-prune oracle over the
    budgets `length_certificate` tries, up to the first representation."""
    pool = RowPool(gram)
    tr0 = pool.trace
    lower = max(1, gram_rank(gram), -(-tr0 // pool.keys[0]))
    fast, slow = CountingMemo(), CountingMemo()
    found = []
    for budget in range(lower, min(s_max, tr0 // pool.keys[-1]) + 1):
        found.append(
            (_search(pool, budget, fast), exact_prune_search(pool, pool.root, budget, slow))
        )
        if found[-1][0] is not None:
            break
    return found, fast.lookups, slow.lookups


class TestFloatScreen:
    """`_search` cuts a remainder only when its carried floats prove a
    principal minor negative; the ordered search with exact prunes,
    `exact_prune_search`, is the oracle."""

    @pytest.mark.parametrize("radicands", [(), (5,), (6, 7)], ids=str)
    def test_same_witnesses_and_nodes_as_exact_prunes(self, radicands):
        field = make_field(Shape(radicands))
        rng = random.Random(79 + sum(radicands))
        spread, most = (1, 4) if len(radicands) == 2 else (2, 5)
        nodes = 0
        for rank in (1, 2, 3, 4):
            made = 0
            while made < 5:
                rows = [
                    tuple(
                        field.element_from_coords(_random_element(rng, field, spread))
                        for _ in range(rank)
                    )
                    for _ in range(rng.randint(2, most - rank // 2))
                ]
                gram = GramForm.from_rows(field, rows)
                if gram.is_zero() or TestPrunedPoolDifferential.product_size(gram) > 3000:
                    continue
                made += 1
                for g in (gram, perp_unit(gram)) if rank < 4 else (gram,):
                    found, fast, slow = _searched_like_length(g, len(rows) + 1)
                    for ours, oracle in found:
                        assert ours == oracle
                    assert found[-1][0] is not None
                    assert fast == slow
                    nodes += fast
        assert nodes > 100

    def test_perp_unit_case_instance(self):
        # instance 7 of suite case perp-unit over Q(sqrt 6, sqrt 7): rank 3
        # with 559 pool rows, whose budget-4 search expands 85 nodes: no row
        # is forced, and the square-norm test cuts the budget-3 and budget-2
        # nodes that cannot finish (819 nodes without it)
        field = make_field(Shape((6, 7)))
        rng = random.Random(f"perp-unit:{field.shape}")
        for _ in range(8):
            rows = _random_rows(rng, field, rng.choice((1, 2)), 3, 1)
        gram = perp_unit(GramForm.from_rows(field, rows))
        found, fast, slow = _searched_like_length(gram, 6)
        assert [len(ours) if ours else None for ours, _ in found] == [None, 4]
        assert all(ours == oracle for ours, oracle in found)
        assert fast == slow == 85

    @pytest.mark.parametrize("radicands", [(), (5,), (6, 7)], ids=str)
    @settings(derandomize=True, max_examples=30, deadline=None)
    @given(data=st.data())
    def test_a_cut_remainder_is_not_totally_psd(self, radicands, data):
        # remainders subtract pool rows from G as the DFS does, floats
        # included: either the rows G is built from, with the unit row of
        # perp_unit(G), which leave totally PSD remainders down to 0, or
        # any pool rows, which overshoot
        field = make_field(Shape(radicands))
        spread = 1 if len(radicands) == 2 else 2
        rank = data.draw(st.integers(1, 3), label="rank")
        coords = st.tuples(*[st.integers(-spread, spread)] * field.degree)
        rows = data.draw(
            st.lists(st.tuples(*[coords] * rank), min_size=1, max_size=3), label="rows"
        )
        gram = GramForm.from_rows(
            field, [tuple(field.element_from_coords(c) for c in row) for row in rows]
        )
        if data.draw(st.booleans(), label="perp_unit"):
            gram = perp_unit(gram)
            zero = (0,) * field.degree
            rows = [row + (zero,) for row in rows] + [(zero,) * rank + (field.one().coords,)]
        if gram.is_zero() or TestPrunedPoolDifferential.product_size(gram) > 3000:
            return
        pool = RowPool(gram)
        index = {cols: idx for idx, cols in enumerate(pool.cols)}
        own = []
        for row in rows:
            lead = next((c for c in row if any(c)), None)
            if lead is not None:
                sign = field.sign_of_coords(lead, 0)
                own.append(index[tuple(tuple(sign * c for c in col) for col in row)])
        picks = data.draw(
            st.one_of(
                st.just(own), st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=6)
            ),
            label="picks",
        )
        budget = data.draw(st.integers(len(picks), 6), label="budget")
        screen = pool.screen
        rem = pool.root
        remf, diag_band, level_bands = screen.start(budget)
        if field.degree == 1:
            assert not any(diag_band) and not any(map(any, level_bands))
        for idx in picks:
            caps = list(map(add, screen.diag_of(remf), diag_band))
            cut_diagonal = any(map(gt, pool.diag_floats[idx], caps))
            remf = list(map(sub, remf, pool.floats[idx]))
            rem = tuple(map(sub, rem, pool.outers[idx]))
            cut = cut_diagonal or (bool(screen.levels) and screen.rejects(remf, level_bands))
            if cut:
                assert not _remainder_psd(pool, rem)
        if picks == own:
            assert not any(rem)

    def test_exact_zero_and_singular_remainders_are_kept(self):
        # G = vv^T leaves 0, and the unit row of perp_unit(vv^T) leaves
        # vv^T (+) <0>: exactly singular, never cut
        for radicands in ((), (5,), (6, 7)):
            field = make_field(Shape(radicands))
            rng = random.Random(83 + sum(radicands))
            for rank in (1, 2, 3):
                row = tuple(
                    field.element_from_coords(_random_element(rng, field, 1))
                    for _ in range(rank)
                )
                single = GramForm.from_rows(field, [row])
                if single.is_zero():
                    continue
                for gram in (single, perp_unit(single)):
                    pool = RowPool(gram)
                    screen = pool.screen
                    rem0 = pool.root
                    root, diag_band, level_bands = screen.start(3)
                    caps = list(map(add, screen.diag_of(root), diag_band))
                    for idx, outer in enumerate(pool.outers):
                        rem = tuple(map(sub, rem0, outer))
                        if not _remainder_psd(pool, rem):
                            continue
                        assert not any(map(gt, pool.diag_floats[idx], caps))
                        remf = list(map(sub, root, pool.floats[idx]))
                        assert not (screen.levels and screen.rejects(remf, level_bands))


def _element_or_zero(rng, field, spread):
    """A random element, zero one time in three, so that Grams of such rows
    have zero entries off the diagonal."""
    if rng.randrange(3) == 0:
        return field.element_from_coords((0,) * field.degree)
    return field.element_from_coords(_random_element(rng, field, spread))


class TestColumnSupports:
    """Grams with zero entries off the diagonal, whose columns are nonzero in
    some pool rows only: the search that cuts by square norms returns the
    indices of the scan without that cut, and expands the nodes of the
    exact-prune oracle."""

    @pytest.mark.parametrize("radicands", [(), (5,), (6, 7)], ids=str)
    def test_same_indices_and_nodes_as_the_scan(self, radicands, monkeypatch):
        field = make_field(Shape(radicands))
        rng = random.Random(89 + sum(radicands))
        spread = 1 if len(radicands) == 2 else 2
        grams = []
        for rank in (1, 2, 3):
            made = 0
            while made < 6:
                rows = [
                    tuple(_element_or_zero(rng, field, spread) for _ in range(rank))
                    for _ in range(rng.randint(1, 3))
                ]
                gram = GramForm.from_rows(field, rows)
                if gram.is_zero() or TestPrunedPoolDifferential.product_size(gram) > 3000:
                    continue
                made += 1
                grams.append((gram, len(rows) + 1))
                if rank < 3:
                    grams.append((perp_unit(gram), len(rows) + 2))
        zero = (0,) * field.degree
        assert any(
            e == zero for gram, _ in grams for row in gram.doubled for e in row
        ), "no Gram with a zero entry"
        test = search._square_norms
        cuts = []

        def watched(*args):
            holds = test(*args)
            cuts.append(not holds)
            return holds

        nodes = 0
        for gram, s_max in grams:
            pool = RowPool(gram)
            for budget in range(1, s_max + 1):
                pruned, exact = CountingMemo(), CountingMemo()
                monkeypatch.setattr(search, "_square_norms", watched)
                ours = _search(pool, budget, pruned)
                assert ours == exact_prune_search(pool, pool.root, budget, exact), budget
                assert pruned.lookups == exact.lookups, budget
                nodes += pruned.lookups
                # the scan: the same search without the square-norm cut
                monkeypatch.setattr(search, "_square_norms", lambda *args: True)
                assert ours == _search(pool, budget, {}), budget
        assert nodes > 100
        assert any(cuts), "the square-norm test cut no node"


def _prune_cases(case):
    """(field, [(gram, s_max)]) for a case of `TestSquareMinorPrune`."""
    if case == "tail:(13, 15):2:3:1":
        # the three-row tail instance, 19,337 pool rows, of length 3
        field = make_field(Shape((13, 15)))
        rows = [
            [(0, -1, 1, -1), (1, 0, 1, -1)],
            [(0, 1, 1, -1), (-1, -1, -1, 1)],
            [(1, -1, -1, 0), (1, -1, 0, -1)],
        ]
        rows = [tuple(map(field.element_from_coords, row)) for row in rows]
        return field, [(GramForm.from_rows(field, rows), 3)]
    radicands = (6, 7) if case == "(6, 7)" else (13, 15)
    field = make_field(Shape(radicands))
    rng = random.Random(f"forced:{radicands}")
    grams = []
    while len(grams) < 4:
        rows = _random_rows(rng, field, 2, 3, 1)
        if len(rows) < 2:
            continue
        gram = GramForm.from_rows(field, rows)
        perp = perp_unit(gram)
        # pools of 33 to 1,500 rows, small enough for a quick unpruned
        # search; G's pool is perp_unit(G)'s without the unit row
        if not 32 < len(candidate_rows(perp)) - 1 <= 1500:
            continue
        grams += [(gram, len(rows) + 1), (perp, len(rows) + 1)]
    return field, grams


class TestSquareMinorPrune:
    """A node whose budget b is at least 2 and at most the rank has no
    completion when the norm of a b x b principal minor of its remainder is
    not the square of an integer (Cauchy-Binet, `search._square_norms`)."""

    @pytest.mark.parametrize("case", ["(6, 7)", "(13, 15)", "tail:(13, 15):2:3:1"])
    def test_same_indices_as_without_the_prune(self, case, monkeypatch):
        # the oracle without its copy of the test is the reference
        monkeypatch.setattr(reference_search, "_square_minors", lambda *args: True)
        test = search._square_norms
        cuts = []

        def watched(*args):
            holds = test(*args)
            cuts.append(not holds)
            return holds

        monkeypatch.setattr(search, "_square_norms", watched)
        field, grams = _prune_cases(case)
        for g, s_max in grams:
            t, cert = length_certificate(g, s_max)
            # the pool length_certificate kept, when g has no unit column;
            # g's whole pool, unit column and all, otherwise
            pool = search._kept(g).row_pool()
            for budget in range(1, t + 1):
                ours = _search(pool, budget, {})
                assert ours == exact_prune_search(pool, pool.root, budget, {}), budget
                assert (ours is not None) == (budget == t)
            assert cert == Certificate(field, g.rank, pool.rows_as_elements(ours))
        assert any(cuts), case

    @pytest.mark.parametrize("radicands", [(), (5,), (6, 7)], ids=str)
    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(data=st.data())
    def test_every_minor_of_a_sum_of_squares_passes(self, radicands, data):
        field = make_field(Shape(radicands))
        spread = 1 if len(radicands) == 2 else 3
        r = data.draw(st.integers(1, 4), label="r")
        budget = data.draw(st.integers(1, r), label="budget")
        coords = st.tuples(*[st.integers(-spread, spread)] * field.degree)
        rows = data.draw(
            st.lists(st.tuples(*[coords] * r), max_size=budget), label="rows"
        )
        # V^T V for the rows V, zero rows padding them to `budget`
        rem = []
        for i, j in search._slot_pairs(r):
            entry = (0,) * field.degree
            for row in rows:
                entry = tuple(map(add, entry, field.mul_coords(row[i], row[j])))
            rem += entry
        assert search._square_norms(field, r, tuple(rem), budget)

    def test_negative_and_non_square_norms_fail(self):
        # 2 x 2 remainders (0, 1; 1, 0), det -1, and (2, 0; 0, 1), det 2,
        # over Q, and (phi, 0; 0, 1) over Q(sqrt 5), det phi of norm -1
        q5 = make_field(Shape((5,)))
        for field, flat in (
            (Q, (0, 1, 0)),
            (Q, (2, 0, 1)),
            (q5, (0, 1, 0, 0, 1, 0)),
        ):
            assert not search._square_norms(field, 2, flat, 2), (field, flat)
        assert search._square_norms(Q, 2, (4, 0, 1), 2)


def _unit_columns(gram):
    """The columns c of gram with G_cc = 1 and G_cj = 0 for j != c."""
    icoords = gram.integral_coords()
    one = gram.field.one().coords
    r = gram.rank
    return [
        c
        for c in range(r)
        if icoords[c][c] == one and not any(any(icoords[c][j]) for j in range(r) if j != c)
    ]


class TestUnitColumnSplit:
    """`represent` and `length_certificate` split unit columns off before
    they search (`_split_units`): the rows of G are those of G without them,
    with a zero put in, and e_c, so length(G (+) <1>^k) = length(G) + k.
    The pools here are built whole, without the split; the exact filter of
    the brute-force product, `reference_pool`, is their reference, and
    `_search` over them is the reference for the split answers."""

    @staticmethod
    def length_and_splits(gram, monkeypatch, s_max=12):
        """length_certificate(gram, s_max) and the unit columns each call of
        `_split_units` found."""
        split = search._split_units
        splits = []

        def counted(gram):
            units, rest = split(gram)
            splits.append(units)
            return units, rest

        with monkeypatch.context() as m:
            m.setattr(search, "_split_units", counted)
            res = length_certificate(gram, s_max)
        return res, splits

    @staticmethod
    def assert_reference_pool(pool, gram):
        field = gram.field
        icoords = gram.integral_coords()
        columns = [brute_column_values(field, icoords[j][j]) for j in range(gram.rank)]
        ref = reference_pool(field, icoords, columns)
        assert pool.cols == tuple(t[2] for t in ref)
        assert pool.keys == tuple(t[0] for t in ref)
        assert pool.outers == tuple(t[3] for t in ref)
        assert pool.floats == tuple(t[4] for t in ref)

    @staticmethod
    def unit_grams(field, rng, count, spread, limit=2000):
        """G (+) <1> of seeded Grams G of rank 1 and 2, with the unit column
        first, in the middle and last, and G (+) <1> (+) <1>."""
        grams = []
        while len(grams) < count:
            rank = 1 + len(grams) % 2
            rows = [
                tuple(
                    field.element_from_coords(_random_element(rng, field, spread))
                    for _ in range(rank)
                )
                for _ in range(rng.randint(1, 2))
            ]
            x = GramForm.from_rows(field, rows)
            twice = perp_unit(perp_unit(x))
            # small products keep the whole pools quick
            if x.is_zero() or TestPrunedPoolDifferential.product_size(twice) > limit:
                continue
            for position in range(rank + 1):
                order = list(range(rank))
                order.insert(position, rank)
                grams.append(_signed_permutation(perp_unit(x), order, [1] * (rank + 1)))
            grams.append(twice)
        return grams

    @pytest.mark.parametrize("radicands", [(), (5,), (6, 7)], ids=str)
    def test_split_pools_match_the_reference(self, radicands, monkeypatch):
        field = make_field(Shape(radicands))
        rng = random.Random(97 + sum(radicands))
        spread = 1 if len(radicands) == 2 else 2
        one = field.one()
        identity = perp_unit(perp_unit(GramForm.from_element(one)))
        grams = [identity] + self.unit_grams(field, rng, 12, spread)
        zero = (0,) * field.degree
        for gram in grams:
            units = _unit_columns(gram)
            assert units
            res, splits = self.length_and_splits(gram, monkeypatch)
            # one pass splits every unit column
            assert splits == [units]
            pool = RowPool(gram)
            self.assert_reference_pool(pool, gram)
            # the rows are e_c and those of the rest with zeros put in
            keep = [j for j in range(gram.rank) if j not in units]
            rest = [c for c in pool.cols if not any(c[j] != zero for j in units)]
            if keep:
                doubled = [[gram.doubled[i][j] for j in keep] for i in keep]
                g = GramForm.from_doubled(field, doubled)
                rest_pool = RowPool(g)
                assert tuple(tuple(c[j] for j in keep) for c in rest) == rest_pool.cols
            assert sorted(set(pool.cols) - set(rest)) == [
                tuple(one.coords if j == c else zero for j in range(gram.rank))
                for c in reversed(units)
            ]
            t, cert = res
            assert cert.rows == pool.rows_as_elements(_search(pool, t, {}))

    @pytest.mark.parametrize("radicands", [(), (5,), (6, 7), (13, 15)], ids=str)
    def test_split_answers_match_the_unsplit_search(self, radicands):
        # at every budget up to the length, ExceedsBound below it and the same
        # certificate at it as `_search` over the whole pool
        field = make_field(Shape(radicands))
        rng = random.Random(f"unit-split:{radicands}")
        spread = 1 if len(radicands) == 2 else 2
        one = field.one()
        grams = [
            perp_unit(perp_unit(GramForm.from_element(one))),  # the rank-3 identity
            perp_unit(GramForm.zero(field, 1)),  # <0> (+) <1>
        ]
        grams += self.unit_grams(field, rng, 20, spread, limit=1000)
        if len(radicands) < 2 or radicands == (6, 7):
            # the first 8 Grams of suite case perp-unit, as it draws them
            suite_rng = random.Random(f"perp-unit:{field.shape}")
            for _ in range(8):
                rank = suite_rng.choice((1, 2))
                rows = _random_rows(suite_rng, field, rank, 3, 2 if field.degree == 1 else 1)
                grams.append(perp_unit(GramForm.from_rows(field, rows)))
        below = 0
        for gram in grams:
            k = len(_unit_columns(gram))
            res = length_certificate(gram, 12)
            assert isinstance(res, tuple), gram
            t, cert = res
            assert k <= t
            pool = RowPool(gram)
            for budget in range(t):
                assert represent(gram, budget) == ExceedsBound(budget), budget
                assert _search(pool, budget, {}) is None, budget
                below += budget < k
            whole = Certificate(field, gram.rank, pool.rows_as_elements(_search(pool, t, {})))
            out = represent(gram, t)
            assert isinstance(out, Represented)
            assert cert == out.certificate == whole
        assert below > 0

    @pytest.mark.parametrize("radicands", [(), (5,), (6, 7)], ids=str)
    def test_edge_cases(self, radicands):
        field = make_field(Shape(radicands))
        one, zero = field.one(), field.zero()
        identity = perp_unit(perp_unit(GramForm.from_element(one)))
        rows = ((one, zero, zero), (zero, one, zero), (zero, zero, one))
        assert length_certificate(identity, 3) == (3, Certificate(field, 3, rows))
        assert length_certificate(identity, 2) == ExceedsBound(2)
        assert represent(identity, 2) == ExceedsBound(2)
        zero_plus_one = perp_unit(GramForm.zero(field, 1))
        unit_row = Certificate(field, 2, ((zero, one),))
        assert length_certificate(zero_plus_one, 5) == (1, unit_row)
        assert length_certificate(zero_plus_one, 0) == ExceedsBound(0)
        assert represent(zero_plus_one, 0) == ExceedsBound(0)
        assert represent(zero_plus_one, 3) == Represented(unit_row)
        # a rest that is not totally PSD, at every budget
        g = perp_unit(GramForm.from_doubled(field, [[(-2,) + (0,) * (field.degree - 1)]]))
        assert length_certificate(g, 0) == NotSoS("not-totally-psd")
        assert represent(g, 0) == NotSoS("not-totally-psd")
        # e_0 goes before the rows of <2>, whose key, trace(1), it shares
        two = GramForm.from_doubled(field, [[(4,) + (0,) * (field.degree - 1)]])
        _, cert = length_certificate(_signed_permutation(perp_unit(two), [1, 0], [1, 1]), 3)
        assert cert.rows == ((one, zero), (zero, one), (zero, one))
        # an inner bound is the outer one: <7> (+) <1> over Z has length 5
        if field.degree == 1:
            assert length_certificate(perp_unit(zgram((7,))), 4) == ExceedsBound(4)
            assert length(perp_unit(zgram((7,))), 5) == 5

    @pytest.mark.parametrize("radicands", [(), (5,), (6, 7)], ids=str)
    def test_a_unit_diagonal_with_an_off_diagonal_entry_is_not_split(
        self, radicands, monkeypatch
    ):
        # G = (1, a)(1, a)^T + (0, y)(0, y)^T: G_00 = 1 and G_01 = a, and
        # the row (1, a), G's first row, leaves <y^2>
        field = make_field(Shape(radicands))
        rng = random.Random(101 + sum(radicands))
        zero, one = field.zero(), field.one()
        made = 0
        while made < 3:
            a, y = (field.element_from_coords(_random_element(rng, field, 1)) for _ in range(2))
            if not any(a.coords) or not any(y.coords):
                continue
            made += 1
            gram = GramForm.from_rows(field, [(one, a), (zero, y)])
            assert _unit_columns(gram) == []
            _, splits = self.length_and_splits(gram, monkeypatch)
            assert splits == [[]]
            pool = RowPool(gram)
            self.assert_reference_pool(pool, gram)
            assert (one.coords, a.coords) in pool.cols

    def test_a_unit_other_than_one_is_not_split(self, monkeypatch):
        # 3 + 2 sqrt2 = (1 + sqrt2)^2 is a totally positive unit: its column
        # holds +-(1 + sqrt2), not +-1
        gram = GramForm.from_doubled(Q2, [[(6, 4), (0, 0)], [(0, 0), (4, 0)]])
        _, splits = self.length_and_splits(gram, monkeypatch)
        assert splits == [[]]
        pool = RowPool(gram)
        self.assert_reference_pool(pool, gram)
        assert ((1, 1), (0, 0)) in pool.cols

    def test_a_rank_one_gram_is_not_split(self, monkeypatch):
        # rank 1 returns before the ring's one is made
        def made(self):
            raise AssertionError("one() called")

        gram = GramForm.from_element(Q2.one())
        monkeypatch.setattr(type(Q2), "one", made)
        assert search._split_units(gram) == ([], gram)

    def test_a_refused_pool_stays_refused(self, monkeypatch):
        # G (+) <1> with G = diag(10^6, 10^5) over Z: 2001 * 633 * 3 rows
        # exceed POOL_ROW_CAP, though G's own 2001 * 633 do not
        gram = perp_unit(zgram((10**6, 0), (0, 10**5)))
        assert _unit_columns(gram) == [2]

        def enumerated(*args):
            raise AssertionError("rows enumerated")

        monkeypatch.setattr(search, "_fitting_rows", enumerated)
        with pytest.raises(SearchSpaceError, match="candidate space"):
            RowPool(gram)
        # the searches split the unit column off first, so G (+) <1> is
        # refused exactly when G is: here G's box of about 6.3 million points
        big = zgram((10**13,))
        for g in (big, perp_unit(big)):
            for call in (lambda: represent(g, 5), lambda: length_certificate(g, 5)):
                with pytest.raises(SearchSpaceError, match="coordinate box"):
                    call()


class TestPoolCache:
    """The searches keep the search of the last Gram they met (`search._kept`):
    its PSD verdict, its pool, its memo, the next budget to search and its
    witness, so the length of G (+) <1> answers from the search that the
    length of G made."""

    @staticmethod
    def counted(monkeypatch, *names):
        """Clear the kept search and record the first argument of every call
        of each search.<name>, in one list per name."""
        calls = []
        for name in names:
            seen = []
            calls.append(seen)

            def wrapped(*args, _call=getattr(search, name), _seen=seen):
                _seen.append(args[0])
                return _call(*args)

            monkeypatch.setattr(search, name, wrapped)
        search._kept.cache_clear()
        return calls

    def test_perp_unit_reuses_the_pool_of_g(self, monkeypatch):
        field = make_field(Shape((6, 7)))
        gram = GramForm.from_rows(field, _random_rows(random.Random(5), field, 2, 2, 1))
        assert _unit_columns(gram) == []
        perp = perp_unit(gram)
        builds, searches, psd, ranks = self.counted(
            monkeypatch, "RowPool", "_search", "totally_psd", "gram_rank"
        )
        t, _ = length_certificate(gram, 10)
        assert builds == [gram] and psd == [gram] and ranks == [gram] and searches
        del builds[:], searches[:], psd[:], ranks[:]
        warm = length_certificate(perp, t + 2)
        assert builds == searches == psd == ranks == []
        assert search._kept.cache_info().maxsize == 1
        assert search._kept.cache_info().currsize == 1
        # the certificate of a cold call, which searches G again
        search._kept.cache_clear()
        assert warm == length_certificate(perp, t + 2)
        assert warm[0] == t + 1
        assert builds == [gram] and searches

    def test_perp_unit_reads_no_integral_coordinates(self, monkeypatch):
        # the warm call splits the unit column off 2G and finds G's kept
        # search: no integral coordinates are derived and no pool is built
        field = make_field(Shape((5,)))
        gram = GramForm.from_rows(field, _random_rows(random.Random(11), field, 2, 2, 2))
        perp = perp_unit(gram)
        (builds,) = self.counted(monkeypatch, "RowPool")
        derived = []
        integral_coords = GramForm.integral_coords

        def watched(g):
            derived.append(g)
            return integral_coords(g)

        monkeypatch.setattr(GramForm, "integral_coords", watched)
        t, _ = length_certificate(gram, 10)
        assert builds == [gram] and derived == [gram]
        del builds[:], derived[:]
        assert length_certificate(perp, t + 2)[0] == t + 1
        assert builds == derived == []

    def test_keyed_by_field_and_gram(self, monkeypatch):
        (builds,) = self.counted(monkeypatch, "RowPool")
        q3 = make_field(Shape((3,)))
        # 4 + 2 sqrt2, 4 + 2 sqrt3 and 5 + 2 sqrt2: an odd sqrt coefficient
        # lies outside the span of the squares, which builds no pool
        g2 = GramForm.from_doubled(Q2, [[(8, 4)]])
        g3 = GramForm.from_doubled(q3, [[(8, 4)]])
        other = GramForm.from_doubled(Q2, [[(10, 4)]])
        kept = []
        for g in (g2, g3, g3, other, g2):
            length_certificate(g, 10)
            kept.append(search._kept(g))
            assert search._kept.cache_info().currsize == 1
        # only the last search is kept: g2 is searched again after `other`
        assert builds == [g2, g3, other, g2]
        assert kept[0].pool.field is Q2 and kept[1].pool.field is q3 and kept[2] is kept[1]
        assert kept[0].pool.cols != kept[1].pool.cols != kept[3].pool.cols
        assert kept[4] is not kept[0] and kept[4].pool.cols == kept[0].pool.cols

    def test_a_cached_pool_equals_a_fresh_one(self, monkeypatch):
        (builds,) = self.counted(monkeypatch, "RowPool")
        field = make_field(Shape((5,)))
        gram = GramForm.from_rows(field, _random_rows(random.Random(9), field, 2, 3, 1))
        cached = search._kept(gram).row_pool()
        equal = GramForm.from_doubled(field, gram.doubled)
        again = search._kept(equal).row_pool()
        assert again is cached and len(builds) == 1
        fresh = RowPool(gram)
        assert cached.cols == fresh.cols
        assert cached.keys == fresh.keys
        assert cached.outers == fresh.outers
        assert cached.floats == fresh.floats

    def test_a_refusal_is_not_cached(self, monkeypatch):
        builds, psd = self.counted(monkeypatch, "RowPool", "totally_psd")
        gram = zgram((10**13,))  # a coordinate box of about 6.3 million points
        for call in (lambda: length_certificate(gram, 5), lambda: represent(gram, 5)) * 2:
            with pytest.raises(SearchSpaceError, match="coordinate box"):
                call()
        # every call builds again; the PSD verdict is kept
        assert builds == [gram] * 4
        assert psd == [gram]
        assert search._kept(gram).pool is None


class TestEntryPointsAgree:
    """`represent` and `length_certificate` answer through one path
    (`search._answer`): at every budget b both give `NotSoS` with the same
    reason, or both `ExceedsBound(b)`, and `represent` gives `Represented`
    exactly when the length is at most b."""

    @staticmethod
    def check(gram, top):
        whole = length_certificate(gram, 12)
        for budget in range(top + 1):
            fixed, shortest = represent(gram, budget), length_certificate(gram, budget)
            if isinstance(whole, NotSoS):
                assert fixed == shortest == whole, (gram, budget)
            elif isinstance(whole, tuple) and whole[0] <= budget:
                assert shortest == whole, (gram, budget)
                assert isinstance(fixed, Represented), (gram, budget)
                assert len(fixed.certificate.rows) <= budget
                assert verify_certificate(gram, fixed.certificate).ok
            else:
                assert fixed == shortest == ExceedsBound(budget), (gram, budget)
        return whole

    def test_special_grams(self):
        one, half = Radical.one(Q.shape), Radical(Q.shape, (F(1, 2),))
        not_integral = GramForm(Q, ((one, half), (half, one)))
        not_psd = GramForm.from_element(Q6.element(from_literal_coords(Q6.shape, (F(1), F(1)))))
        outside = GramForm.from_element(Q6.element(from_literal_coords(Q6.shape, (F(300), F(7)))))
        two = GramForm.from_doubled(Q6, [[(4, 0)]])
        cases = [
            (not_integral, NotSoS("not-integral")),
            (perp_unit(not_integral), NotSoS("not-integral")),
            (not_psd, NotSoS("not-totally-psd")),
            (perp_unit(not_psd), NotSoS("not-totally-psd")),
            (zgram((1, 2), (2, 1)), NotSoS("not-totally-psd")),
            (outside, ExceedsBound(12)),
            (perp_unit(outside), ExceedsBound(12)),
            (perp_unit(perp_unit(GramForm.from_element(Q6.one()))), 3),
            (perp_unit(zgram((7,))), 5),
            (perp_unit(GramForm.zero(Q6, 1)), 1),
            (_signed_permutation(perp_unit(two), [1, 0], [1, 1]), 3),
            (GramForm.zero(Q6, 2), 0),
            (zgram((0,)), 0),
        ]
        for gram, want in cases:
            whole = self.check(gram, 6)
            assert (whole[0] if isinstance(whole, tuple) else whole) == want, gram

    @pytest.mark.parametrize("radicands", [(), (5,), (6, 7)], ids=str)
    def test_seeded_grams(self, radicands):
        field = make_field(Shape(radicands))
        rng = random.Random(f"entry-points:{radicands}")
        spread = 1 if len(radicands) == 2 else 2
        checked = 0
        while checked < 10:
            gram = GramForm.from_rows(field, _random_rows(rng, field, 1 + checked % 2, 3, spread))
            if len(candidate_rows(gram)) > 2000:
                continue
            checked += 1
            for g in (gram, perp_unit(gram)):
                whole = self.check(g, 7)
                assert isinstance(whole, tuple), g


class TestKeptSearchDifferential:
    """Every answer from a kept search is the answer of a cold one: the same
    verdict, the same `ExceedsBound.bound` and the same certificate,
    whatever the kept search answered or searched before."""

    @staticmethod
    def cold(call, *args):
        search._kept.cache_clear()
        try:
            return call(*args)
        finally:
            search._kept.cache_clear()

    @pytest.mark.parametrize("radicands", [(), (5,), (6, 7)], ids=str)
    def test_warm_answers_equal_cold_ones(self, radicands, monkeypatch):
        field = make_field(Shape(radicands))
        rng = random.Random(f"kept-search:{radicands}")
        spread = 1 if len(radicands) == 2 else 2
        checked = 0
        while checked < 8:
            rank = 1 + checked % 2
            gram = GramForm.from_rows(field, _random_rows(rng, field, rank, 3, spread))
            if gram.is_zero() or len(candidate_rows(gram)) > 2000:
                continue
            checked += 1
            t, _ = self.cold(length_certificate, gram, 12)
            perp = perp_unit(gram)
            calls = [(length_certificate, gram, t - 1), (length_certificate, gram, t + 1)]
            calls += [(length_certificate, gram, t - 1), (length_certificate, perp, t + 2)]
            calls += [(represent, gram, b) for b in range(t + 1)]
            expected = [self.cold(*call) for call in calls]
            builds = []
            build = search.RowPool
            with monkeypatch.context() as m:
                m.setattr(search, "RowPool", lambda *args: builds.append(1) or build(*args))
                warm = [call[0](*call[1:]) for call in calls]
            assert warm == expected, gram
            assert expected[0] == ExceedsBound(t - 1) and expected[1][0] == t
            assert expected[3][0] == t + 1
            assert [type(res) for res in expected[4:]] == [ExceedsBound] * t + [Represented]
            # one pool serves every warm call
            assert len(builds) == 1


def _parities(coords):
    """The coordinates mod 2 as a bit mask, coordinate i at bit i."""
    return sum((c & 1) << i for i, c in enumerate(coords))


SPAN_SHAPES = [(), (2,), (3,), (5,), (6,), (13,), (2, 5), (6, 7), (13, 15), (10, 65)]


class TestSquareSpan:
    """x = sum c_i b_i has x^2 = sum c_i b_i^2 mod 2O, so every sum of
    squares lies in the F_2-span of the b_i^2 mod 2O
    (`Field.coords_in_square_span`); a Gram with a diagonal entry outside it
    is answered without a pool."""

    @pytest.mark.parametrize("radicands", [(), (2,), (5,), (6, 7), (13, 15)], ids=str)
    def test_every_diagonal_of_a_sum_of_squares_is_in_the_span(self, radicands):
        field = make_field(Shape(radicands))
        rng = random.Random(f"square-span:{radicands}")
        spread = 3 if field.degree == 1 else 2
        for i in range(40):
            gram = GramForm.from_rows(field, _random_rows(rng, field, 1 + i % 3, 6, spread))
            icoords = gram.integral_coords()
            for j in range(gram.rank):
                assert field.coords_in_square_span(icoords[j][j]), (gram, j)
            assert search._Kept(gram).in_span

    @pytest.mark.parametrize("radicands", SPAN_SHAPES, ids=str)
    def test_the_span_of_the_squares_of_zero_one_vectors(self, radicands):
        field = make_field(Shape(radicands))
        d = field.degree
        span = {0}
        for x in itertools.product((0, 1), repeat=d):
            square = _parities(field.mul_coords(x, x))
            span |= {m ^ square for m in span}
        rng = random.Random(f"square-span-brute:{radicands}")
        for y in itertools.product((0, 1), repeat=d):
            want = _parities(y) in span
            assert field.coords_in_square_span(y) == want, y
            # only the parities count
            shifted = tuple(c + 2 * rng.randint(-50, 50) for c in y)
            assert field.coords_in_square_span(shifted) == want, shifted

    @pytest.mark.parametrize("radicands", [(), (5,)], ids=str)
    def test_the_span_is_all_of_o_where_siegel_says_so(self, radicands):
        # Q and Q(sqrt 5) are the fields where every totally positive integer
        # is a sum of squares, so no parity can be excluded there
        field = make_field(Shape(radicands))
        for y in itertools.product((0, 1), repeat=field.degree):
            assert field.coords_in_square_span(y)

    def test_answers_equal_those_without_the_test(self, monkeypatch):
        elements = []
        for radicands in ((6,), (7,), (10,), (13,)):
            elements += totally_positive_elements(make_field(Shape(radicands)), 80)
        assert len(elements) == 2708

        def answers():
            search._kept.cache_clear()
            return [element_length(alpha, 10**9) for alpha in elements]

        with_test = answers()
        with monkeypatch.context() as m:
            m.setattr(Field, "coords_in_square_span", lambda self, coords: True)
            without = answers()
        search._kept.cache_clear()
        assert with_test == without
        outside = [a for a in elements if not a.field.coords_in_square_span(a.coords)]
        assert sum(isinstance(res, ExceedsBound) for res in with_test) == 936
        assert len(outside) == 902
        assert all(element_length(a, 10**9) == ExceedsBound(10**9) for a in outside)

    def test_outside_the_span_no_pool_is_built(self, monkeypatch):
        builds = []
        build = search.RowPool
        monkeypatch.setattr(search, "RowPool", lambda *args: builds.append(args) or build(*args))
        search._kept.cache_clear()
        one, zero = (2, 0), (0, 0)
        alpha = GramForm.from_doubled(Q2, [[(8, 2)]])  # 4 + sqrt2
        # the unit column is split off first, and the rest is 4 + sqrt2
        unit = GramForm.from_doubled(Q2, [[one, zero], [zero, (8, 2)]])
        for gram in (alpha, unit):
            for budget in range(7):
                assert represent(gram, budget) == ExceedsBound(budget)
            assert length_certificate(gram, 10**9) == ExceedsBound(10**9)
        assert builds == []
        assert search._kept(GramForm.from_doubled(Q2, [[(8, 2)]])).pool is None
        # a Gram that is not totally PSD says so, wherever its diagonal lies
        negative = GramForm.from_doubled(Q2, [[(-2, 2)]])  # -1 + sqrt2
        assert represent(negative, 3) == NotSoS("not-totally-psd")
        assert length_certificate(negative, 3) == NotSoS("not-totally-psd")
        assert builds == []


class TestPaperCap:
    """Deepening stops at g_Z(r d), the paper's bound, where `gtable` is
    exact: a Gram of r columns over a ring of degree d that is a sum of
    squares is one of at most that many."""

    def test_an_element_in_the_span_stops_at_g_z_of_d(self, monkeypatch):
        field = make_field(Shape((13,)))
        alpha = field.element_from_coords((38, 29))  # 38 + 29 (1 + sqrt13)/2
        assert field.coords_in_square_span(alpha.coords)
        budgets = []
        run = search._search
        monkeypatch.setattr(
            search, "_search", lambda pool, budget, memo: budgets.append(budget) or run(pool, budget, memo)
        )
        search._kept.cache_clear()
        assert element_length(alpha, 10**9) == ExceedsBound(10**9)
        pool = search._kept(GramForm.from_element(alpha)).pool
        assert pool.trace // pool.keys[-1] > g_table(2).value
        assert max(budgets) == g_table(2).value == 5

    @pytest.mark.parametrize("n", range(1, 6))
    def test_the_bound_is_attained_over_z(self, n):
        # I_(n-1) (+) <7> has length n + 3 = g_Z(n): the unit columns are
        # split off, and 7 needs g_Z(1) = 4 squares
        search._kept.cache_clear()
        gram = zgram(*[[7 if i == j == n - 1 else int(i == j) for j in range(n)] for i in range(n)])
        assert length(gram, 10**9) == n + 3 == g_table(n).value

def _signed_permutation(gram, order, signs):
    """P^T G P for the signed permutation P whose column i is signs[i] times
    the unit vector of order[i]: entry (i, j) is signs[i] signs[j] G[order[i]][order[j]]."""
    doubled = gram.doubled
    return GramForm.from_doubled(
        gram.field,
        [
            [
                tuple(signs[i] * signs[j] * c for c in doubled[a][b])
                for j, b in enumerate(order)
            ]
            for i, a in enumerate(order)
        ],
    )


class TestSignedPermutations:
    """Metamorphic: a signed permutation P is in GL_r(O), so P^T G P has the
    length of G."""

    @pytest.mark.parametrize("radicands", [(), (5,), (6, 7)], ids=str)
    @settings(derandomize=True, max_examples=15, deadline=None)
    @given(data=st.data())
    def test_unit_column_in_every_position(self, radicands, data):
        field = make_field(Shape(radicands))
        spread = 1 if len(radicands) == 2 else 2
        rank = data.draw(st.integers(1, 2), label="rank")
        coords = st.tuples(*[st.integers(-spread, spread)] * field.degree)
        rows = data.draw(
            st.lists(st.tuples(*[coords] * rank), min_size=1, max_size=3), label="rows"
        )
        gram = GramForm.from_rows(
            field, [tuple(field.element_from_coords(c) for c in row) for row in rows]
        )
        if gram.is_zero():
            return
        perp = perp_unit(gram)
        if TestPrunedPoolDifferential.product_size(perp) > 3000:
            return
        t = length(perp, len(rows) + 1)
        assert t == length(gram, len(rows)) + 1
        # the unit column of perp_unit(G) is column `rank`
        for position in range(rank + 1):
            order = list(data.draw(st.permutations(range(rank)), label="order"))
            order.insert(position, rank)
            signs = data.draw(
                st.lists(st.sampled_from((1, -1)), min_size=rank + 1, max_size=rank + 1),
                label="signs",
            )
            moved = _signed_permutation(perp, order, signs)
            assert moved.integral_coords()[position][position] == field.one().coords
            assert length(moved, t) == t, (order, signs)


def _conjugate_rows(field, emb, rows):
    """sigma(rows) for the automorphism sigma that flips the signs of the
    radical coordinates as the embedding emb does, back in integral-basis
    coordinates."""
    signs = field.shape.embedding_signs(emb)
    out = []
    for row in rows:
        images = []
        for v in row:
            image = Radical(field.shape, tuple(map(mul, signs, v.to_radical().coords)))
            coords = field.coords_of(image)
            assert coords is not None, "O_K is Galois-stable"
            images.append(field.element_from_coords(coords))
        out.append(tuple(images))
    return out


class TestGaloisConjugates:
    """Metamorphic: an automorphism sigma of K maps O_K onto itself, so
    sigma(G) has the length of G.  The integral basis is not Galois-stable,
    so sigma(G) has other coordinates, boxes and pools than G."""

    @pytest.mark.parametrize("radicands", [(5,), (6,), (6, 7), (13, 15), (10, 65)], ids=str)
    def test_conjugate_grams_have_the_same_length(self, radicands):
        field = make_field(Shape(radicands))
        d = field.degree
        rng = random.Random(f"galois:{radicands}")
        conjugates = 0
        for rank in (1, 2) * 6:
            # two rows of rank 2 over a biquadratic ring can reach 10^5 pool rows
            count = rng.randint(1, 2 if rank == 1 or d < 4 else 1)
            rows = [
                tuple(
                    field.element_from_coords(_random_element(rng, field, 2 if d < 4 else 1))
                    for _ in range(rank)
                )
                for _ in range(count)
            ]
            gram = GramForm.from_rows(field, rows)
            if gram.is_zero():
                continue
            t = length(gram, count)
            assert isinstance(t, int)
            for emb in field.embeddings[1:]:
                image = GramForm.from_rows(field, _conjugate_rows(field, emb, rows))
                signs = field.shape.embedding_signs(emb)
                assert [[e.coords for e in row] for row in image.entries] == [
                    [tuple(map(mul, signs, e.coords)) for e in row] for row in gram.entries
                ]
                assert length(image, count) == t, (rows, emb)
                conjugates += 1
        assert conjugates >= 10 * (len(field.embeddings) - 1)


class TestUnimodularChanges:
    """Metamorphic: U = I + k E_ij is in GL_r(O), and v -> U^T v maps the
    rows that fit under G onto those that fit under U^T G U, so the pool
    size and the length of G are those of U^T G U."""

    @pytest.mark.parametrize("radicands", [(), (2,), (5,), (6, 7), (13, 15)], ids=str)
    @settings(derandomize=True, max_examples=20, deadline=None)
    @given(data=st.data())
    def test_pool_size_and_length_are_kept(self, radicands, data):
        field = make_field(Shape(radicands))
        d = field.degree
        coords = st.tuples(*[st.integers(-1, 1)] * d)
        rows = data.draw(st.lists(st.tuples(coords, coords), min_size=1, max_size=2), label="rows")
        if d > 2:
            k = (data.draw(st.sampled_from((1, -1)), label="k"),) + (0,) * (d - 1)
        else:
            k = data.draw(coords, label="k")
        i, j = data.draw(st.permutations((0, 1)), label="ij")
        moved = []
        for row in rows:
            row = list(row)
            # (U^T v)_j = v_j + k v_i
            row[j] = tuple(map(add, row[j], field.mul_coords(k, row[i])))
            moved.append(row)

        def gram_of(rows):
            return GramForm.from_rows(
                field, [tuple(map(field.element_from_coords, row)) for row in rows]
            )

        gram, changed = gram_of(rows), gram_of(moved)
        assert len(candidate_rows(changed)) == len(candidate_rows(gram))
        assert length(changed, 6) == length(gram, 6)


class TestKnownValues:
    def test_quartic_pythagoras_witness(self):
        f = make_field(Shape((6, 7)))
        alpha = f.element(from_literal_coords(f.shape, (F(43), F(1), F(-8), F(1))))
        gram = GramForm.from_element(alpha)
        assert represent(gram, 6) == ExceedsBound(6)
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
