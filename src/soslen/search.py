"""Exhaustive backtracking search for sums-of-squares representations.

A Gram matrix G over O is a sum of s squares of integral linear forms iff
G = sum of v (x) v over at most s nonzero rows v in O^r.  The search picks
rows in a fixed nonincreasing order (trace of the row norm, then integer
coordinates), which removes the signed-permutation symmetry of the target
sum-of-squares lattice; exhaustiveness comes from complete candidate
enumeration inside conjugate-bound coordinate boxes plus prunes that only
discard provably infeasible branches:

  * a Gram is not searched at all when a diagonal entry lies outside the
    span of the squares: x = sum c_i b_i has x^2 = sum c_i b_i^2 mod 2O,
    so every sum of squares, each diagonal entry of a representation
    among them, has its coordinate parities in the F_2-span of those of
    the b_i^2 (`Field.coords_in_square_span`); `_Kept` tests it once per
    Gram, before any pool is built;
  * a branch dies when a principal minor of its remainder is proven
    negative at some embedding: the DFS carries the remainder's embedding
    values as floats, starting from those of G (`RowPool.root`), and cuts
    only when a float lies below minus an error band fixed once per search
    (`_Screen`); a remainder the floats cannot decide is searched on, and
    the exact leaf tests decide it;
  * rows are nonincreasing, so when key * budget < trace(remainder) no
    completion exists;
  * at budget 1 the remainder must equal a candidate outer product, found
    by dictionary lookup;
  * at a budget b with 2 <= b <= r, a remainder V^T V with V of at most b
    rows (zero rows pad V to b) has det(rem_S) = det(V_S)^2 for every set S
    of b columns (Cauchy-Binet), so N(det rem_S) is the square of an
    integer; a node where some S fails that integer test has no completion
    (`_square_norms`).

Candidate rows are assembled from column values: for each diagonal entry,
`_column_values` scans half of its coordinate box, emits one record for each
fitting pair +-x, holding x^2, its trace and the values of x and x^2 at
every embedding as floats, and keeps the result in a bounded cache.  The scan
fixes the coordinates c_j of x = sum c_j b_j one at a time, narrowest box
first (`_scan_order`; below, b_j is the basis in that order), sorts the
records back into product order of the basis, and solves each coordinate's
range on the real slice of the prefix, which holds every member: for
d - i embeddings E with [sigma_e(b_j)], e in E, j >= i, invertible, the w
with sum over E of w_e sigma_e(b_j) = [j = i] for j >= i gives
c_i = sum over E of w_e sigma_e(x) - (a linear form in c_0..c_{i-1}),
because the later coordinates drop out; at the last coordinate E is one
embedding.  Each |sigma_e(x)| is at most sqrt(sigma_e(diag)), so every such
E bounds c_i, whatever the later coordinates are, and all of them together
give the exact range on the slice.  w is rounded to integers once per field
and level, and the rounding residuals, enclosed exactly, only widen the
range.

Over Z the column values of n > 0 are 1..isqrt(n), so a pool looks n up
under the key isqrt(n)^2 (`_column_key`), and the integers between two
squares share one scan.  A rank-1 pool's rows are all of its column's
records, so they are sorted and indexed once per cached column, on its
first rank-1 use, and every rank-1 pool on that column shares them
(`_Values.rank1_rows`).

Every row v of a representation leaves a totally PSD remainder, so
G - vv^T is totally PSD; `RowPool` keeps exactly those rows.  It extends
row prefixes one column at a time, keeps a prefix only while the leading
block of G - vv^T stays totally PSD, and multiplies the off-diagonal
entries of surviving prefixes only.  Where G's leading block on columns
0..k is totally positive definite, the prefix's leading minor on those
columns decides alone: at each embedding, a rank-1 downdate A - vv^T of a
positive definite A has at most one nonpositive eigenvalue (its eigenvalues
interlace those of A), so it is PSD iff its determinant is >= 0
(`_minor_screens`).  Symmetric matrices (G, the outer
products vv^T, the remainders and their floats) are flat upper triangles
laid out column by column, (0,0), (0,1), (1,1), (0,2), ... (`_slot_pairs`),
so the outer product of a prefix is the front of that of every row it
grows into, and a new column appends its entries.

A unit column c, with G_cc = 1 and every other entry of the column 0, is
split off where the search starts (`_answer`, for both entry points): a
value x there has sigma(x)^2 <= 1 at every embedding, so x is 0 or +-1
(Kronecker), a row with x = +-1 is +-e_c, because the zero diagonal entry it
leaves at c zeroes the rest of the remainder's column, and the other rows
are those of G without column c.  So the representations of G (+) <1>^k are
those of G with the k rows e_c put in, length(G (+) <1>^k) = length(G) + k,
and the search of G (+) <1> is G's: `_kept` keeps the last Gram's search
(PSD verdict, pool, memo, next budget, witness) until the next Gram.

Every minor is exact before it is read as a float: one memoized expansion,
`Field.minor`, gives them all.  Both float screens, the pool's minor screens
and the DFS's `_Screen`, bound vv^T by the bounds `_column_values` caches.

Deepening stops at g_Z(r d) for a Gram of r columns over a ring of degree
d where `gtable` is exact: by the paper's theorem, which `descent` runs on
one certificate, every representation compresses to at most that many rows.

Every verdict is exact: a prune fires only on a proof, from integer
enclosures or from floats with a proven error band, and a representation is
found only by exact lookups.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import isqrt
from operator import add, gt, itemgetter, lt, mul, neg, sub
from typing import NamedTuple

from .fields import _MID_SCALE, FIELD_CACHE_SIZE, Field, OElement
from .fields import EMBEDDING_TABLE_BITS as _EMB_BITS
from .forms import Certificate, GramForm, gram_rank, totally_psd, verify_certificate
from .gtable import Exact, g_table

POOL_ROW_CAP = 2_000_000
SEARCH_CACHE_CAP = 1 << 22  # entries in the memo of (remainder, budget)


class SearchSpaceError(RuntimeError):
    """A coordinate box or the candidate row pool exceeds POOL_ROW_CAP; a
    diagonal n over Z is refused on the box of its key isqrt(n)^2
    (`_column_key`), which holds the same values."""


@dataclass(frozen=True)
class Represented:
    certificate: Certificate


@dataclass(frozen=True)
class ExceedsBound:
    """No representation by at most `bound` squares."""

    bound: int


@dataclass(frozen=True)
class NotSoS:
    """Not a sum of squares at all: "not-integral" or "not-totally-psd"."""

    reason: str


class _Column(NamedTuple):
    """A candidate column value x with what every row containing +-x needs;
    x is the member of the pair that is positive at the identity embedding."""

    coords: tuple[int, ...]
    square: tuple[int, ...]
    trace: int  # trace(x^2)
    square_values: tuple[float, ...]  # sigma_e(x^2) as floats, values[e]^2
    # sigma_e(x) as floats: interval midpoints, within 2^-52 |value| plus
    # the interval's half-width of the truth
    values: tuple[float, ...]

    def negated(self) -> _Column:
        """The record of -x, for one pool build; only x is cached."""
        return _Column(
            tuple(map(neg, self.coords)),
            self.square,
            self.trace,
            self.square_values,
            tuple([-v for v in self.values]),
        )


class _Values(tuple):
    """The records of `_column_values`, with their `bound` and `err` there,
    and the rows of every rank-1 pool that reads them (`rank1_rows`), kept
    with the records in the column cache; columns that only pools of rank
    >= 2 read never build them."""

    def __new__(cls, records, bound: tuple[float, ...], err: tuple[float, ...]) -> _Values:
        self = super().__new__(cls, records)
        self.bound, self.err = bound, err
        return self

    @cached_property
    def rank1_rows(self) -> tuple:
        """`_sorted_rows` of the rank-1 pools on these records, built on the
        first rank-1 use and shared by every such pool: the rows of <n> are
        all the column values of n, since n - x^2 is totally nonnegative
        exactly for them."""
        return _sorted_rows([(v.trace, (v.coords,), v.square, v.square_values) for v in self])


_SLICE_BITS = 40  # support weights are 2^40 w, rounded to integers


def _float_solve(m: list[list[float]], rhs: list[float]) -> list[float] | None:
    """x with m x = rhs in floats, by Gauss-Jordan elimination with partial
    pivoting, or None when a pivot is below 2^-30 of the largest entry."""
    n = len(m)
    tiny = 2.0**-30 * max(abs(v) for row in m for v in row)
    rows = [row + [v] for row, v in zip(m, rhs)]
    for col in range(n):
        best = max(range(col, n), key=lambda r: abs(rows[r][col]))
        if abs(rows[best][col]) <= tiny:
            return None
        rows[col], rows[best] = rows[best], rows[col]
        pivot = rows[col]
        for r in range(n):
            if r != col:
                f = rows[r][col] / pivot[col]
                rows[r] = [a - f * b for a, b in zip(rows[r], pivot)]
    return [row[n] / row[r] for r, row in enumerate(rows)]


def _scan_order(field: Field) -> tuple[int, ...]:
    """The basis indices by increasing box limit, ties in basis order."""
    return tuple(sorted(range(field.degree), key=field._box_nums.__getitem__))


@lru_cache(maxsize=FIELD_CACHE_SIZE)
def _slice_supports(field: Field) -> tuple[tuple[int, ...], tuple[tuple[tuple, ...], ...]]:
    """(order, levels): `_scan_order`, and per level i the supports of
    `_column_values`'s slice bound over the basis b_j = b_order[j] in scan
    order: (weights, coeffs, errs) for each set E of degree - i embeddings
    on which B_E = [sigma_e(b_j)], j >= i, is invertible in floats; at the
    last level each support is one embedding.

    weights holds (e, |W_e|) with W = 2^40 w rounded, for the float solution
    w of B_E^T w = e_i.  The real M_j = sum over E of W_e sigma_e(b_j) is
    enclosed exactly from the basis enclosures, and errs[j] bounds
    2^96 |M_j - a_j| for the integers a_j: the rounded M_j for j < i, which
    coeffs holds, 2^40 for j = i and 0 for j > i.  The float solve only
    makes the bound tight; the enclosures make it sound.
    """
    deg = field.degree
    order = _scan_order(field)
    floats = [[row[j] for j in order] for row in field._emb_floats]
    basis = [field._basis_enclosures[j] for j in order]
    levels = []
    for i in range(deg):
        supports = []
        for support in itertools.combinations(range(len(field.embeddings)), deg - i):
            w = _float_solve(
                [[floats[e][j] for e in support] for j in range(i, deg)],
                [1.0] + [0.0] * (deg - i - 1),
            )
            if w is None:
                continue
            weights = [(e, round(x * 2.0**_SLICE_BITS)) for e, x in zip(support, w)]
            coeffs = []
            errs = []
            for j in range(deg):
                ends = [sorted([weight * end for end in basis[j][e]]) for e, weight in weights]
                lo = sum([low for low, _ in ends])
                hi = sum([high for _, high in ends])
                if j < i:
                    a = (lo + hi + (1 << _EMB_BITS)) >> (_EMB_BITS + 1)
                    coeffs.append(a)
                else:
                    a = 1 << _SLICE_BITS if j == i else 0
                errs.append(max(hi - (a << _EMB_BITS), (a << _EMB_BITS) - lo))
            supports.append(
                (tuple([(e, abs(weight)) for e, weight in weights]), tuple(coeffs), tuple(errs))
            )
        levels.append(tuple(supports))
    return order, tuple(levels)


def _slice_range(bounds, prefix: tuple[int, ...], limit: int) -> tuple[int, int]:
    """(first, last): the coordinates c_i that the slice bounds leave to the
    prefix c_0..c_{i-1}, within the box limit; bounds holds (coeffs, t) per
    support, and |2^40 c_i + sum of c_j coeffs[j]| <= t."""
    first, last = -limit, limit
    for coeffs, t in bounds:
        dot = sum(map(mul, prefix, coeffs))
        f = -((t + dot) >> _SLICE_BITS)
        if f > first:
            first = f
        f = (t - dot) >> _SLICE_BITS
        if f < last:
            last = f
    return first, last


def _box_limits(field: Field, diag_ivs) -> list[int]:
    """Per basis coordinate, the largest |c_j| of an x with sigma(x)^2 <=
    sigma(diag) at every embedding, from the diagonal's enclosures diag_ivs:
    sqrt(sigma(diag)) <= ceil(sqrt(hi)) / 2^(table bits / 2) at each
    embedding."""
    root_sum = 0
    for _, hi in diag_ivs:
        root = isqrt(max(hi, 0))
        root_sum += root + (root * root < hi)
    return [root_sum * num // field._box_den for num in field._box_nums]


def _column_key(field: Field, diag_coords: tuple[int, ...]) -> tuple[int, ...]:
    """The diagonal under which `RowPool` looks up the column values of
    diag_coords: over Z, a diagonal n > 0 is read as isqrt(n)^2, whose
    members x, 1 <= x <= isqrt(n), are those of n, so the integers between
    two squares share one scan and one set of rank-1 rows."""
    if field.degree == 1 and diag_coords[0] > 0:
        return (isqrt(diag_coords[0]) ** 2,)
    return diag_coords


@lru_cache(maxsize=1 << 13)
def _column_values(field: Field, diag_coords: tuple[int, ...]) -> _Values:
    """All nonzero x in O with sigma(x)^2 <= sigma(diag) at every embedding,
    as one record for each pair +-x, with the bounds that both float
    screens read.  `RowPool` calls it on `_column_key` of each diagonal, so
    over Z the records and bounds of n are those of isqrt(n)^2.

    The integral-basis box is the pull-back of the conjugate bounds
    |sigma(x)| <= sqrt(sigma(diag)), read off the diagonal's integer
    enclosures, so every grid point is already integral.  Membership holds
    for x exactly when it holds for -x, so only the half of the box after 0
    in the scan's product order is scanned, and each hit yields one record
    for the pair +-x, which share their square, its trace and its square's
    floats; the values of x at the embeddings come from the same interval
    tests.
    A box of more than POOL_ROW_CAP points raises SearchSpaceError before
    the scan, and a diagonal negative at some embedding has no values.

    Coordinates are fixed one at a time in `_scan_order`, narrowest box
    first, so the scan tree is narrow at the top; b_j and c_j below are in
    that order.  The records are sorted back into product order of the
    basis, so the order changes the work, not the records.  With R_e =
    isqrt(2^table bits * the upper end of sigma_e(diag)) + 1, every member
    has |2^table bits sigma_e(x)| <= R_e.  For the coordinate c_i after a
    prefix c_0..c_{i-1}, take a support E of d - i embeddings with B_E =
    [sigma_e(b_j)], e in E, j >= i, invertible, and w with B_E^T w = e_i:
    then sum over E of w_e sigma_e(x) = c_i + sum over j < i of c_j A_j,
    with A_j = sum over E of w_e sigma_e(b_j), since the later coordinates
    drop out.  So c_i lies within sum |w_e| R_e of -sum c_j A_j, on the
    real slice of the prefix, whatever the later coordinates are.  Any
    support gives a sound range, and every support together gives the
    exact range on the slice (LP duality).  `_slice_supports` holds w
    scaled and rounded to integers W, and the identity holds for W with
    coefficients M_j = sum over E of W_e sigma_e(b_j); the rounding leaves
    residuals M_j - a_j against integers a_j, each enclosed exactly and
    times the box limit of c_j, so the integer bound only widens the real
    one.  The box limits clamp the range.

    At the last coordinate d - i = 1, so each support is one embedding.
    On the points visited there, interval tests decide membership and the
    sign at the identity embedding unless they are inconclusive; then exact
    sign tests decide.

    Bounds: bound[e] is at least every record's |sigma_e(x)|, since each
    record has |sigma_e(x)| <= sqrt(sigma_e(diag)) <= bound[e], read off
    the upper end of the enclosure; under the Z key it is read off
    isqrt(n)^2, which bounds every record of n too.  Each record has a
    float within err[e] of it: the rounded midpoint of x's enclosure, whose
    half-width is at most the widest basis enclosure times sum |c_j| <= the
    sum of the box limits, halved.  Both are raised by 2^-40 of themselves
    for their own rounding, both are 0 without records, and err is 0 with
    exact embedding tables (degree 1).
    """
    deg = field.degree
    n_emb = len(field.embeddings)
    interval = field.interval_of_coords
    diag_ivs = [interval(diag_coords, e) for e in range(n_emb)]
    box = _box_limits(field, diag_ivs)
    nothing = (0.0,) * n_emb
    order, levels = _slice_supports(field)
    limits = [box[j] for j in order]
    size = 1
    for limit in limits:
        size *= 2 * limit + 1
    if size > POOL_ROW_CAP:
        raise SearchSpaceError(
            f"coordinate box of {size} points exceeds {POOL_ROW_CAP}"
        )
    shift = 1 << _EMB_BITS
    roots = []
    for _, hi in diag_ivs:
        if hi < 0:
            return _Values((), nothing, nothing)  # sigma_e(diag) < 0 <= sigma_e(x)^2
        roots.append(isqrt(hi * shift))
    # x^2 <= diag is proven at e once max(xlo^2, xhi^2) <= floors[e]
    floors = [lo * shift for lo, _ in diag_ivs]
    # per level, (coeffs, t) for each support
    slices = []
    for supports in levels:
        level = []
        for weights, coeffs, errs in supports:
            # |2^96 (2^40 c_i + sum c_j a_j)| <= sum |W_e| R_e + sum |c_j| errs[j]
            top = sum([w * (roots[e] + 1) for e, w in weights]) + sum(map(mul, limits, errs))
            level.append((coeffs, top >> _EMB_BITS))
        slices.append(level)
    # basis[i][e] is the enclosure at embedding e of the basis element fixed
    # at level i; records hold coordinates in basis order
    basis = [field._basis_enclosures[j] for j in order]
    place = None if order == tuple(range(deg)) else itemgetter(*map(order.index, range(deg)))
    square_of = field.mul_coords
    values: list[_Column] = []
    # (coords, xlo and xhi at each embedding) of every prefix that can fit;
    # its first nonzero coordinate in scan order is positive, which keeps
    # the half box
    prefixes = [((), (0,) * n_emb, (0,) * n_emb)]
    for i in range(deg):
        enclosures = basis[i]
        limit = limits[i]
        final = i == deg - 1
        extended = []
        for prefix, plo, phi in prefixes:
            first, last = _slice_range(slices[i], prefix, limit)
            if not any(prefix):
                # 0 is not a column value
                first = max(first, 1 if final else 0)
            for c in range(first, last + 1):
                coords = prefix + (c,)
                if not final:
                    if c > 0:
                        xlo = [p + c * lo for p, (lo, _) in zip(plo, enclosures)]
                        xhi = [q + c * hi for q, (_, hi) in zip(phi, enclosures)]
                    else:
                        xlo = [p + c * hi for p, (_, hi) in zip(plo, enclosures)]
                        xhi = [q + c * lo for q, (lo, _) in zip(phi, enclosures)]
                    extended.append((coords, xlo, xhi))
                    continue
                exact_needed = False
                mids = []
                for (lo, hi), p, q, floor in zip(enclosures, plo, phi, floors):
                    if c > 0:
                        a = p + c * lo
                        b = q + c * hi
                    else:
                        a = p + c * hi
                        b = q + c * lo
                    if not mids:
                        id_lo, id_hi = a, b
                    if a * a > floor or b * b > floor:
                        exact_needed = True
                    mids.append((a + b) * _MID_SCALE)
                if place:
                    coords = place(coords)
                square = square_of(coords, coords)
                if exact_needed and not field.coords_totally_nonneg(
                    tuple(map(sub, diag_coords, square))
                ):
                    continue
                trace = field.trace_of_coords(square)
                if id_lo > 0 or id_hi < 0:
                    positive = id_lo > 0
                else:
                    positive = field.sign_of_coords(coords, 0) > 0
                record = _Column(coords, square, trace, tuple([m * m for m in mids]), tuple(mids))
                values.append(record if positive else record.negated())
        prefixes = extended
    if place:
        # product order of the member whose first nonzero coordinate is positive
        zero = (0,) * deg
        values.sort(key=lambda v: v.coords if v.coords > zero else tuple(map(neg, v.coords)))
    if not values:
        return _Values((), nothing, nothing)
    absolute = field._table_width * sum(box) * _MID_SCALE * (1 + 2.0**-40)
    bound = tuple([math.sqrt(hi * 2.0**-_EMB_BITS) * (1 + 2.0**-40) for _, hi in diag_ivs])
    err = tuple([2.0**-52 * top + absolute if absolute else 0.0 for top in bound])
    return _Values(values, bound, err)


_SCREEN_SLACK = 2.0**-30


def _minor_screens(field: Field, icoords, columns) -> list[list[tuple]]:
    """Float tests for the principal minors of G - vv^T, per new column k,
    for rows whose column values are the records of columns, within their
    bounds (`_column_values`).

    For S = T + {k} with T a nonempty subset of the earlier columns,
    det(G_S - v_S v_S^T) = det(G_S) - v_S^T adj(G_S) v_S.  The determinant
    and the adjugate are exact elements of O (`Field.minor`), read as floats
    D, A at each embedding; a row prefix turns the minor into
    c0 - x (c1 + c2 x) in the value x of column k.  Each test is
    (e, D, pairs, cross, A_kk, band): pairs holds (a, b, A_ab) for a = b and
    (a, b, 2 A_ab) for a < b in T, cross holds (a, 2 A_ka) for a in T, and
    band >= |computed - exact|:
      * rad: the distance of D and of every A_ab from the exact value,
        times the bounds s_a s_b on |sigma_e(v_a v_b)|;
      * vterm: each column float is within e_a of sigma_e(x), which moves
        v_a v_b by at most e_a (s_b + e_b) + e_b (s_a + e_a);
      * rounding: at most (2|S|^2 + 4) 2^-53 times mag, the sum of the
        absolute values of all terms, which 2^-30 mag covers with room for
        the rounding of band itself.  With exact embedding tables (degree 1)
        every float is an exact integer, and below 2^53 so is every partial
        result: then nothing is rounded and the band is 0.
    A test whose band is not finite decides nothing.  A minor with det(G_S)
    and adj(G_S) both 0 is 0 for every row and gets no test.

    At a definite level k, where G's leading block on S = (0..k) is totally
    positive definite, S is the only test.  At each embedding, a rank-1
    downdate A - vv^T of a positive definite A has at most one nonpositive
    eigenvalue, so it is PSD iff det(A - vv^T) >= 0 (`Field.coords_psd`):
    a prefix that passes this test leaves the whole block PSD, whatever
    its other minors were, and one that fails it leaves a negative minor.
    The definite block is G_S, column k included: definite first k columns
    alone would leave G_S free to have a negative eigenvalue, and then
    G_S - vv^T two negative ones with a positive determinant; only the
    totally PSD G that pools are built for rules that out.  Definiteness
    is read by Sylvester's criterion from the leading minors det(G_S), the
    first minor each level computes, and only at rank >= 3: level 1 has
    one test whatever G is.
    """
    r = len(icoords)
    n_emb = len(field.embeddings)
    width = field._table_width
    bound, err = [v.bound for v in columns], [v.err for v in columns]
    minors: dict = {}  # shared by all screens
    screens: list[list[tuple]] = [[] for _ in range(r)]
    # whether G's leading block on columns 0..k is totally positive definite
    definite = r >= 3 and field.coords_totally_positive(icoords[0][0])
    for k in range(1, r):
        if definite:
            lead = tuple(range(k + 1))
            definite = field.coords_totally_positive(field.minor(icoords, lead, lead, minors))
        # the full leading minor first: it rejects the most prefixes, and at
        # a definite level it is the only one
        for size in range(k, k - 1 if definite else 0, -1):
            for subset in itertools.combinations(range(k), size):
                S = subset + (k,)
                n = len(S)
                det = field.minor(icoords, S, S, minors)
                # adj(G_S) is symmetric; entry (p, q) is the (q, p) cofactor
                cof = {}
                for p in range(n):
                    for q in range(p, n):
                        c = field.minor(icoords, S[:q] + S[q + 1 :], S[:p] + S[p + 1 :], minors)
                        cof[p, q] = tuple(map(neg, c)) if (p + q) % 2 else c
                if not any(det) and not any(any(c) for c in cof.values()):
                    continue
                dets, det_err = field.floats_of_coords(det)
                adj = {pq: field.floats_of_coords(c) for pq, c in cof.items()}
                for e in range(n_emb):
                    D, rad = dets[e], det_err
                    A = {pq: (values[e], dist) for pq, (values, dist) in adj.items()}
                    mag = abs(D)
                    vterm = 0.0
                    for (p, q), (value, dist) in A.items():
                        a, b = S[p], S[q]
                        sa, ea, sb, eb = bound[a][e], err[a][e], bound[b][e], err[b][e]
                        times = 1 if p == q else 2
                        mag += times * abs(value) * (sa + ea) * (sb + eb)
                        rad += times * dist * sa * sb
                        vterm += times * abs(value) * (ea * (sb + eb) + eb * (sa + ea))
                    if width or rad or mag >= 2.0**53:
                        band = (rad + vterm + _SCREEN_SLACK * mag) * (1 + 2.0**-20)
                    else:
                        band = 0.0
                    if not band < math.inf:
                        screens[k].append((e, 0.0, (), (), 0.0, math.inf))
                        continue
                    last = n - 1
                    pairs = tuple(
                        (S[p], S[q], value * (1 if p == q else 2))
                        for (p, q), (value, _) in A.items()
                        if q < last
                    )
                    cross = tuple((S[p], 2 * A[p, last][0]) for p in range(last))
                    screens[k].append((e, D, pairs, cross, A[last, last][0], band))
    return screens


def _remainder_block(icoords, entries, size: int) -> list[list[tuple[int, ...]]]:
    """The leading size x size block of G - vv^T, where entries holds the
    upper triangle of that block of vv^T in slot order (`_slot_pairs`)."""
    block: list[list] = [[None] * size for _ in range(size)]
    for (i, j), entry in zip(_slot_pairs(size), entries):
        block[i][j] = block[j][i] = tuple(map(sub, icoords[i][j], entry))
    return block


def _fitting_rows(field: Field, icoords, columns) -> list[tuple]:
    """(key, cols, outer, floats) of every sign-normalized row v of two or
    more columns whose columns are column values (`_column_values`) and for
    which G - vv^T is totally PSD; outer and floats hold vv^T in slot order
    (`_slot_pairs`), exactly and at every embedding.  Rank-1 rows are the
    column's records (`_Values.rank1_rows`).

    Rows grow one column at a time.  A prefix is (its column records, the
    entries of its outer product, their floats, whether a column is nonzero
    yet): a new column x appends the prefix's columns times x, then x^2.
    The block of G - vv^T on the prefix's columns is totally PSD: its
    diagonal fits the column boxes, the minors without the newest column
    were tested before, and those with it are screened here, or at a
    definite level the leading minor alone, which decides the whole block
    (`_minor_screens`).  A screen that cannot decide sends
    the whole block to the exact test.  Rows start with a value positive at
    the identity embedding, so an all-zero prefix continues only with zero
    or a column record, and other prefixes with zero or either sign of one.
    """
    r = len(columns)
    d = field.degree
    n_emb = len(field.embeddings)
    zero_entry = (0,) * d
    zero = _Column(zero_entry, zero_entry, 0, (0.0,) * n_emb, (0.0,) * n_emb)
    mul_coords = field.mul_coords
    screens = _minor_screens(field, icoords, columns)
    prefixes = [((v,), (v.square,), v.square_values, True) for v in columns[0]]
    prefixes.append(((zero,), (zero_entry,), zero.square_values, False))
    decorated = []
    for k in range(1, r):
        last = k == r - 1
        leads = columns[k]
        signed = (zero,) + leads + tuple([v.negated() for v in leads])
        unstarted = leads if last else (zero,) + leads
        extended = []
        for row, entries, floats, started in prefixes:
            tests = []
            for e, D, pairs, cross, akk, band in screens[k]:
                c0 = D
                for a, b, coeff in pairs:
                    c0 -= coeff * row[a].values[e] * row[b].values[e]
                c1 = 0.0
                for a, coeff in cross:
                    c1 += coeff * row[a].values[e]
                tests.append((e, c0, c1, akk, band))
            for x in signed if started else unstarted:
                xv = x.values
                exact = False
                for e, c0, c1, c2, band in tests:
                    t = xv[e]
                    q = c0 - t * (c1 + c2 * t)
                    if q < band:
                        if q < -band:
                            break
                        exact = True
                else:
                    if x is zero:
                        new_entries = entries + (zero_entry,) * (k + 1)
                    else:
                        xc = x.coords
                        products = tuple([mul_coords(c.coords, xc) for c in row])
                        new_entries = entries + products + (x.square,)
                    if exact and not field.coords_psd(
                        _remainder_block(icoords, new_entries, k + 1)
                    ):
                        continue
                    new_row = row + (x,)
                    new_floats = (
                        floats
                        + tuple(itertools.chain.from_iterable([map(mul, c.values, xv) for c in row]))
                        + x.square_values
                    )
                    if not last:
                        extended.append((new_row, new_entries, new_floats, started or x is not zero))
                        continue
                    cols = tuple([c.coords for c in new_row])
                    outer = tuple(itertools.chain.from_iterable(new_entries))
                    decorated.append((sum([c.trace for c in new_row]), cols, outer, new_floats))
        prefixes = extended
    return decorated


def _sorted_rows(decorated: list[tuple]) -> tuple:
    """(keys, cols, outers, floats, neg_keys, outer_index) of the rows
    (key, cols, outer, floats), sorted by (key, cols) descending; cols is
    unique, so later fields are never compared.  The rows are tuples and
    outer_index maps each outer product to its index; `_search` only reads
    them."""
    decorated.sort(reverse=True)
    keys = tuple([t[0] for t in decorated])
    outers = tuple([t[2] for t in decorated])
    return (
        keys,
        tuple([t[1] for t in decorated]),
        outers,
        tuple([t[3] for t in decorated]),
        tuple([-k for k in keys]),
        {o: i for i, o in enumerate(outers)},
    )


def _slot_pairs(r: int) -> list[tuple[int, int]]:
    """The entries (i, j), i <= j, of a symmetric r x r matrix in slot order:
    column by column, (0, 0), (0, 1), (1, 1), (0, 2), ..., so (i, j) is slot
    j(j+1)/2 + i and the first k(k+1)/2 slots are the leading k x k block."""
    return [(i, j) for j in range(r) for i in range(j + 1)]


def _getter(indices):
    """itemgetter(*indices), which returns a tuple for one index too."""
    if len(indices) == 1:
        (i,) = indices
        return lambda seq: (seq[i],)
    return itemgetter(*indices)


@lru_cache(maxsize=64)
def _screen_indices(r: int, n_emb: int) -> tuple:
    """(`_minor_levels`, getter of the diagonal floats, column by column)."""
    diagonal = [t for t, (i, j) in enumerate(_slot_pairs(r)) if i == j]
    return _minor_levels(r, n_emb), _getter([t * n_emb + e for t in diagonal for e in range(n_emb)])


@lru_cache(maxsize=64)
def _square_indices(r: int, d: int) -> tuple:
    """(subsets, offsets): subsets[b] holds the b-subsets of range(r), and
    entry (i, j) of a flat remainder starts at offsets[i][j]."""
    slot = {ij: t for t, ij in enumerate(_slot_pairs(r))}
    offsets = tuple(tuple(slot[min(i, j), max(i, j)] * d for j in range(r)) for i in range(r))
    return tuple(tuple(itertools.combinations(range(r), b)) for b in range(r + 1)), offsets


def _square_norms(field: Field, r: int, rem, budget: int) -> bool:
    """Whether N(det rem_S) is the square of an integer for every set S of
    `budget` columns of the flat r x r remainder rem, as it is when rem is
    V^T V for V of at most `budget` rows: det(rem_S) = det(V_S)^2 by
    Cauchy-Binet, and N(det V_S) is an integer."""
    d = field.degree
    subsets, offsets = _square_indices(r, d)
    m = [[rem[o : o + d] for o in row] for row in offsets]
    minors: dict = {}
    for S in subsets[budget]:
        n = field.norm_of_coords(field.minor(m, S, S, minors))
        if n < 0 or isqrt(n) ** 2 != n:
            return False
    return True


def _minor_levels(r: int, n_emb: int) -> tuple:
    """Index programs that evaluate every principal minor of size 2..r of a
    symmetric r x r matrix held as floats, entry by entry in slot order
    (`_slot_pairs`), each at the n_emb embeddings.

    Minors are expanded along their first row: det M[R, C] is the sum over j
    of (-1)^j M[R_0, C_j] det M[R - R_0, C - C_j].  Level k holds, at every
    embedding, the size-k minors that the principal minors of size >= k
    need, principal ones first; M[R, C] and M[C, R] share one entry.  A
    level is (terms, checks, principal): terms[j] = (getter of the entries
    M[R_0, C_j], getter of the minors det M[R - R_0, C - C_j] in the level
    below, which for k = 2 are entries), checks gets the principal minors,
    `principal` of them per embedding.
    """
    slot = {ij: t for t, ij in enumerate(_slot_pairs(r))}

    def canon(rows, cols):
        return (rows, cols) if rows <= cols else (cols, rows)

    by_size = {}
    upper: list = []
    for k in range(r, 1, -1):
        principal = [(S, S) for S in itertools.combinations(range(r), k)]
        below = {
            canon(R[1:], C[:j] + C[j + 1 :]) for R, C in upper for j in range(k + 1)
        }
        by_size[k] = (principal, sorted(below - set(principal)))
        upper = principal + by_size[k][1]
    levels = []
    position: dict = {}
    for k in range(2, r + 1):
        principal, others = by_size[k]
        minors = principal + others
        terms = []
        for j in range(k):
            entries = [
                slot[min(R[0], C[j]), max(R[0], C[j])] * n_emb + e
                for e in range(n_emb)
                for R, C in minors
            ]
            if k == 2:
                subs = [
                    slot[min(R[1], C[1 - j]), max(R[1], C[1 - j])] * n_emb + e
                    for e in range(n_emb)
                    for R, C in minors
                ]
            else:
                count = len(position)
                subs = [
                    e * count + position[canon(R[1:], C[:j] + C[j + 1 :])]
                    for e in range(n_emb)
                    for R, C in minors
                ]
            terms.append((_getter(entries), _getter(subs)))
        checks = _getter(
            [e * len(minors) + p for e in range(n_emb) for p in range(len(principal))]
        )
        levels.append((tuple(terms), checks, len(principal)))
        position = {m: p for p, m in enumerate(minors)}
    return tuple(levels)


class _Screen:
    """The DFS prune: a remainder is cut only when a principal minor of it is
    proven negative at some embedding, read from floats the DFS carries.

    The DFS starts from the floats of the pool's root G
    (`Field.floats_of_coords`) and subtracts a row's floats per child.  The
    minors are evaluated level by level, all embeddings at once
    (`_minor_levels`), and each level is tested as soon as it is computed;
    the full minor is built from the smaller ones, so testing those on the
    way costs nothing.  Bands are fixed once per search of
    budget s, per embedding e:
      * entries: every column value x of the pool has |sigma_e(x)| <= B and
        a float within eps of it, the largest of the column bounds and of
        their errors (`_column_values`).  With B' = B + eps an entry of vv^T
        and its float, one rounded product, are at most B'^2, and the float
        is within delta = 2 eps B' + 2^-53 B'^2;
      * remainders: a path subtracts at most s rows from G, whose entries
        and their floats are at most N with floats within eta0, so every
        remainder entry and its float are at most E = N + s B'^2 (times
        1 + 2^-50) plus eta, where eta = eta0 + s (delta + 2^-52 E) bounds
        the error of its float: each subtraction adds one row error and one
        rounding.  N <= max_j sigma_e(G_jj), so E is about
        (s + 1) max_j sigma_e(G_jj);
      * a size-k minor of floats within eta of entries at most E differs
        from the exact one by at most k! k eta E'^(k-1), with E' = E + eta,
        and its evaluation by first-row expansion rounds each of its k!
        products at most k(k+1)/2 times, which k! k^2 2^-52 E'^k covers;
      * the diagonal test compares a row's diagonal float with the carried
        diagonal plus eta + 2^-52 E', which also covers the rounding of
        that sum.
    Each band is raised by 2^-20 of itself for its own rounding; a band that
    is not finite or not a number cuts nothing, since no comparison with it
    holds.  With exact embedding tables (degree 1) every float is an
    integer, and when r! E^r < 2^52 every partial result is exact too: then
    every band is 0 and the screen decides every minor itself.  A remainder
    the screen cannot cut stays in the search, which costs nodes but no
    verdict: the leaf tests are exact.
    """

    def __init__(self, field: Field, root, columns) -> None:
        """For a pool whose flat Gram is root and whose column values are
        columns, with their bounds (`_column_values`)."""
        r = len(columns)
        d = field.degree
        self.rank = r
        self.levels, self.diag_of = _screen_indices(r, len(field.embeddings))
        self.exact_tables = field._table_width == 0
        self.factorials = [math.factorial(k) for k in range(r + 1)]
        # the floats of root, slot by slot, eta0, their largest error, and
        # per embedding the largest entry plus eta0
        values, errs = zip(
            *[field.floats_of_coords(root[t : t + d]) for t in range(0, len(root), d)]
        )
        self.eta0 = eta0 = max(errs)
        self.root_floats = list(itertools.chain.from_iterable(values))
        self.sizes = [(max(map(abs, at)) + eta0) * (1 + 2.0**-50) for at in zip(*values)]
        # entry[e] >= |sigma_e(v_i v_j)| and its float, delta[e] >= its error
        self.entry: list[float] = []
        self.delta: list[float] = []
        for tops, epss in zip(zip(*[v.bound for v in columns]), zip(*[v.err for v in columns])):
            eps = max(epss)
            big = max(tops) + eps
            entry = big * big * (1 + 2.0**-50)
            self.entry.append(entry)
            self.delta.append((2 * eps * big + 2.0**-53 * entry) * (1 + 2.0**-50))

    def start(self, budget: int) -> tuple[list[float], list[float], list[list[float]]]:
        """The floats of the root, the diagonal bands and, per level, the
        negated minor bands, for a search of `budget` rows from the root."""
        eta0 = self.eta0
        r = self.rank
        factorials = self.factorials
        diag: list[float] = []  # per embedding
        per_level: list[list[float]] = [[] for _ in self.levels]
        for top, entry, delta in zip(self.sizes, self.entry, self.delta):
            reach = (top + budget * entry) * (1 + 2.0**-50)
            if self.exact_tables and eta0 == 0 and factorials[r] * reach**r < 2.0**52:
                diag.append(0.0)
                for level, (_, _, principal) in zip(per_level, self.levels):
                    level += [0.0] * principal
                continue
            eta = eta0 + budget * (delta + 2.0**-52 * reach)
            reach += eta
            diag.append((eta + 2.0**-52 * reach) * (1 + 2.0**-20))
            for k, (level, (_, _, principal)) in enumerate(zip(per_level, self.levels), 2):
                band = factorials[k] * (k * eta * reach ** (k - 1) + k * k * 2.0**-52 * reach**k)
                level += [-band * (1 + 2.0**-20)] * principal
        return self.root_floats, diag * r, per_level

    def rejects(self, f, level_bands) -> bool:
        """Whether some principal minor of size >= 2 of the remainder with
        floats f is proven negative: its float is below -band."""
        prev = f
        for (terms, checks, _), bands in zip(self.levels, level_bands):
            (entries, minors), *rest = terms
            acc = map(mul, entries(f), minors(prev))
            for j, (entries, minors) in enumerate(rest):
                acc = map(add if j % 2 else sub, acc, map(mul, entries(f), minors(prev)))
            prev = list(acc)
            if any(map(lt, checks(prev), bands)):
                return True
        return False


class RowPool:
    """The rows v with G - vv^T totally PSD, in canonical nonincreasing order.

    These are the only rows that can occur in a representation of G, since
    every remainder of the search is totally PSD and at most G.  Rows are
    normalized so that their first nonzero column is positive at the
    identity embedding, and sorted by (key, cols) descending, where the key
    is trace(v . v) and cols the column coordinates, compared as their
    concatenation.  Each row keeps its outer product exactly and as floats
    at every embedding, with its diagonal floats apart, for `_search` and
    its `_Screen`.  The pool reads G's integral coordinates once, and a G
    with an entry outside O raises ValueError.

    Column values are looked up under `_column_key` of each diagonal entry.
    The rows of a rank-1 pool are its column's `_Values.rank1_rows`, shared
    by every rank-1 pool on that column and read-only; only the root, the
    trace and the `_Screen` are its own.  Pools of rank >= 2 sort their
    rows from `_fitting_rows` themselves (`_sorted_rows`).

    A unit column c of G, G_cc = 1 and G_cj = 0 for j != c, holds only 0 and
    +-1: sigma(x)^2 <= 1 at every embedding makes a nonzero x a root of
    unity (Kronecker).  So the rows are e_c and those of G without column c
    with a zero put in; the searches split such columns off before they
    build a pool (`_split_units`), and a pool built here goes through the
    generic screens.
    """

    def __init__(self, gram: GramForm) -> None:
        icoords = gram.integral_coords()
        if icoords is None:
            raise ValueError("gram matrix is not integral")
        field = gram.field
        r = gram.rank
        self.field = field
        self.rank = r
        columns = [_column_values(field, _column_key(field, icoords[j][j])) for j in range(r)]
        size_estimate = 1
        for vals in columns:
            size_estimate *= 2 * len(vals) + 1  # a record stands for +-x
        if size_estimate > POOL_ROW_CAP:
            raise SearchSpaceError(
                f"candidate space of about {size_estimate} rows exceeds {POOL_ROW_CAP}"
            )
        rows = (
            columns[0].rank1_rows
            if r == 1
            else _sorted_rows(_fitting_rows(field, icoords, columns))
        )
        self.keys, self.cols, self.outers, self.floats, self.neg_keys, self.outer_index = rows
        # remainders, outer products and pool rows are flat int tuples of
        # length r(r+1)/2 * d: the upper triangle column by column
        # (`_slot_pairs`), d coordinates per slot; root is G's
        self.root = tuple(c for i, j in _slot_pairs(r) for c in icoords[i][j])
        self.trace = sum([field.trace_of_coords(icoords[j][j]) for j in range(r)])
        self.zero_flat = (0,) * len(self.root)
        self.screen = _Screen(field, self.root, columns)
        diag = self.screen.diag_of
        self.diag_floats = self.floats if r == 1 else [diag(f) for f in self.floats]

    def __len__(self) -> int:
        return len(self.cols)

    def rows_as_elements(self, indices: list[int]) -> tuple[tuple[OElement, ...], ...]:
        field = self.field
        return tuple(
            tuple(field.element_from_coords(c) for c in self.cols[idx])
            for idx in indices
        )


def _search(pool: RowPool, budget: int, memo: dict) -> list[int] | None:
    """Indices of at most `budget` nonincreasing pool rows summing to the
    pool's root G.

    A node carries its remainder exactly, as floats and by trace.  A child
    is cut when its diagonal or, once it would be searched further, one of
    its principal minors is proven negative (`_Screen`); the exact leaf
    tests decide the rest.  A node whose budget b is at least 2 and at most
    the rank has no completion when a b x b principal minor of its
    remainder fails the square-norm test (`_square_norms`), and the memo
    records it.
    """
    field = pool.field
    rank = pool.rank
    keys = pool.keys
    neg_keys = pool.neg_keys
    outers = pool.outers
    floats = pool.floats
    diag_floats = pool.diag_floats
    outer_index = pool.outer_index
    zero = pool.zero_flat
    screen = pool.screen
    diag_of = screen.diag_of
    root_floats, diag_band, level_bands = screen.start(budget)
    rejects = screen.rejects if screen.levels else None
    memo_get = memo.get

    def dfs(rem, remf, tr: int, budget: int, start: int) -> list[int] | None:
        if rem == zero:
            return []
        if budget == 0:
            return None
        if tr <= 0:
            return None
        cached = memo_get((rem, budget))
        if cached is not None and cached <= start:
            return None
        if budget == 1:
            idx = outer_index.get(rem)
            if idx is not None and idx >= start:
                return [idx]
        elif budget > rank or _square_norms(field, rank, rem, budget):
            # rows are nonincreasing, so a row's key is at most tr and at
            # least tr / budget
            first = bisect_left(neg_keys, -tr, lo=start)
            last = bisect_right(neg_keys, -tr // budget, lo=first)
            caps = list(map(add, diag_of(remf), diag_band))
            for idx, diagonal in zip(range(first, last), diag_floats[first:last]):
                if any(map(gt, diagonal, caps)):
                    continue
                if budget == 2:
                    # the last row is a lookup: no minor screen, no memo entry
                    rem2 = tuple(map(sub, rem, outers[idx]))
                    if rem2 == zero:
                        return [idx]
                    idx2 = outer_index.get(rem2)
                    if idx2 is not None and idx2 >= idx:
                        return [idx, idx2]
                    continue
                remf2 = list(map(sub, remf, floats[idx]))
                if rejects is not None and rejects(remf2, level_bands):
                    continue
                rem2 = tuple(map(sub, rem, outers[idx]))
                if rem2 == zero:
                    return [idx]
                tail = dfs(rem2, remf2, tr - keys[idx], budget - 1, idx)
                if tail is not None:
                    return [idx] + tail
        if cached is None or start < cached:
            if len(memo) < SEARCH_CACHE_CAP:
                memo[(rem, budget)] = start
        return None

    return dfs(pool.root, root_floats, pool.trace, budget, 0)


class _Kept:
    """The search of one Gram, kept across calls by `_kept`, which keeps the
    last one only, so the length of G (+) <1> right after G's finds G's: its
    PSD verdict, whether its diagonal lies in the span of the squares, its
    pool (built on first use; a refused one is not kept), one memo for every
    budget and call, the next budget `shortest` has not searched and, once
    one succeeds, its witness; `search` and `shortest` are the queries of
    `_answer`."""

    def __init__(self, gram: GramForm) -> None:
        self.gram = gram
        self.psd = totally_psd(gram)
        # each G_jj of a representation is a sum of squares; 2G_jj is even
        field = gram.field
        self.in_span = all(
            field.coords_in_square_span([c >> 1 for c in gram.doubled[j][j]])
            for j in range(gram.rank)
        )
        self.pool: RowPool | None = None
        self.memo: dict = {}
        self.next: int | None = None
        self.found: list[int] | None = None

    def row_pool(self) -> RowPool:
        if self.pool is None:
            self.pool = RowPool(self.gram)
        return self.pool

    def search(self, budget: int) -> list[int] | None:
        """Pool indices of a representation of the totally PSD gram by at
        most `budget` rows, or None: a search of this budget alone, on the
        kept pool and memo, so it finds the certificate a cold search
        finds.  A Gram whose diagonal lies outside the span of the squares
        has none at all."""
        if self.gram.is_zero():
            return []
        if not self.in_span:
            return None
        return _search(self.row_pool(), budget, self.memo)

    def shortest(self, s_max: int) -> list[int] | None:
        """Pool indices of a shortest representation of the totally PSD gram
        by at most s_max >= 0 rows, or None.  Budgets are deepened upward from
        a sound lower bound (matrix rank, remainder-trace quotient), each call
        from the first one not yet searched, so the first witness is of
        minimal size and answers every later call.  None has more than
        trace(G) / (smallest row key) rows, nor more than g_Z(r d) for a
        Gram of r columns over a ring of degree d (the paper's bound, where
        `g_table` is exact), so no larger budget is searched.  A Gram whose
        diagonal lies outside the span of the squares has none at all.
        """
        if self.gram.is_zero():
            return []
        if not self.in_span:
            return None
        pool = self.row_pool()
        if len(pool) == 0:
            return None
        if self.next is None:
            self.next = max(1, gram_rank(self.gram), -(-pool.trace // pool.keys[0]))
        top = min(s_max, pool.trace // pool.keys[-1])
        cap = g_table(self.gram.rank * self.gram.field.degree)
        if isinstance(cap, Exact):
            top = min(top, cap.value)
        while self.found is None and self.next <= top:
            self.found = _search(pool, self.next, self.memo)
            self.next += 1
        if self.found is not None and len(self.found) <= s_max:
            return self.found
        return None


_kept = lru_cache(maxsize=1)(_Kept)


def _split_units(gram: GramForm) -> tuple[list[int], GramForm | None]:
    """The unit columns c of gram, G_cc = 1 and G_cj = 0 for j != c, read
    off 2G as 2G_cc = 2 and 2G_cj = 0, and gram without them, None when no
    column is left; rank 1 is not split.  The rest has no unit column, since
    removing one changes no other column."""
    r = gram.rank
    if r == 1:
        return [], gram
    doubled = gram.doubled
    two = tuple([2 * c for c in gram.field.one().coords])
    units = [
        c
        for c in range(r)
        if doubled[c][c] == two and not any(any(doubled[c][j]) for j in range(r) if j != c)
    ]
    if not units:
        return units, gram
    keep = [j for j in range(r) if j not in units]
    if not keep:
        return units, None
    return units, GramForm.from_doubled(gram.field, [[doubled[i][j] for j in keep] for i in keep])


def _certificate(
    gram: GramForm, units: list[int], pool: RowPool | None, indices: list[int]
) -> Certificate:
    """The pool rows at indices with a zero put in at each unit column of
    gram, and e_c for each unit column c, in pool order (key, then cols,
    descending), checked exactly against gram."""
    field = gram.field
    r = gram.rank
    rows = [(pool.keys[idx], list(pool.cols[idx])) for idx in indices]
    if units:
        zero, one = (0,) * field.degree, field.one().coords
        for _, cols in rows:
            for c in units:  # ascending, so each zero lands at its column
                cols.insert(c, zero)
        # the key of e_c is trace(1), the degree
        rows += [(field.degree, [one if j == c else zero for j in range(r)]) for c in units]
        rows.sort(reverse=True)
    cert = Certificate(
        field, r, tuple(tuple(map(field.element_from_coords, cols)) for _, cols in rows)
    )
    check = verify_certificate(gram, cert)
    if not check.ok:
        raise AssertionError(f"internal soundness failure: {check.reason}")
    return cert


def candidate_rows(gram: GramForm) -> tuple[tuple[OElement, ...], ...]:
    """The ordered candidate rows of a totally PSD Gram G: every sign-normalized
    row v with G - vv^T totally PSD, which includes every row of every
    representation; ValueError if an entry of G is not in O."""
    pool = RowPool(gram)
    return pool.rows_as_elements(list(range(len(pool))))


def _answer(gram: GramForm, bound: int, query) -> Certificate | ExceedsBound | NotSoS:
    """The one path to a search answer: a checked certificate of gram by at
    most `bound` squares, or why there is none.  Integrality is read on all
    of gram, then its unit columns are split off; query(kept, budget) gives
    pool indices of the totally PSD rest (`_kept`) by at most bound - (unit
    columns) rows, or None, and `_certificate` pads them with the unit rows."""
    if not gram.is_integral():
        return NotSoS("not-integral")
    units, rest = _split_units(gram)
    kept = None if rest is None else _kept(rest)
    if kept is not None and not kept.psd:
        return NotSoS("not-totally-psd")
    budget = bound - len(units)
    if budget < 0:
        return ExceedsBound(bound)
    indices = [] if kept is None else query(kept, budget)
    if indices is None:
        return ExceedsBound(bound)
    return _certificate(gram, units, kept and kept.pool, indices)


def represent(gram: GramForm, budget: int) -> Represented | ExceedsBound | NotSoS:
    """Decide whether gram is a sum of at most `budget` squares of forms
    (`_answer` with `_Kept.search`, one search of that budget)."""
    if budget < 0:
        raise ValueError("budget must be nonnegative")
    answer = _answer(gram, budget, _Kept.search)
    return Represented(answer) if isinstance(answer, Certificate) else answer


def length_certificate(
    gram: GramForm, s_max: int
) -> tuple[int, Certificate] | ExceedsBound | NotSoS:
    """Minimal number of squares representing gram plus a witness
    (`_answer` with `_Kept.shortest`): that of the rest after the unit split
    plus one per unit column, so the length of G (+) <1> after that of G
    searches nothing."""
    if s_max < 0:
        raise ValueError("s_max must be nonnegative")
    answer = _answer(gram, s_max, _Kept.shortest)
    return (len(answer.rows), answer) if isinstance(answer, Certificate) else answer


def length(gram: GramForm, s_max: int) -> int | ExceedsBound | NotSoS:
    """Minimal number of squares representing gram, searched up to s_max."""
    res = length_certificate(gram, s_max)
    if isinstance(res, tuple):
        return res[0]
    return res


def element_length(alpha: OElement, s_max: int) -> int | ExceedsBound | NotSoS:
    """Minimal number of squares summing to alpha in its ring of integers."""
    return length(GramForm.from_element(alpha), s_max)
