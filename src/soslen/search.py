"""Exhaustive backtracking search for sums-of-squares representations.

A Gram matrix G over O is a sum of s squares of integral linear forms iff
G = sum of v (x) v over at most s nonzero rows v in O^r.  The search picks
rows in a fixed nonincreasing order (trace of the row norm, then integer
coordinates), which removes the signed-permutation symmetry of the target
sum-of-squares lattice; exhaustiveness comes from complete candidate
enumeration inside conjugate-bound coordinate boxes plus prunes that only
discard provably infeasible branches:

  * a branch dies when the remainder is not totally positive semidefinite;
  * rows are nonincreasing, so when key * budget < trace(remainder) no
    completion exists;
  * at budget 1 the remainder must equal a candidate outer product, found
    by dictionary lookup.

Candidate rows are assembled from column values: for each diagonal entry,
`_column_values` scans half of its coordinate box, emits each fitting value
as the pair +-x together with x^2, its trace and its interval lows, and
keeps the result in a bounded cache.  `RowPool` only combines columns and
multiplies the off-diagonal entries.

All decisions are exact; dyadic interval bounds are used only when they are
conclusive, with an exact sign fallback otherwise.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import isqrt
from operator import neg
from typing import NamedTuple

from .fields import EMBEDDING_TABLE_BITS as _EMB_BITS
from .fields import Field, OElement
from .forms import Certificate, GramForm, gram_rank, totally_psd, verify_certificate

POOL_ROW_CAP = 2_000_000
SEARCH_CACHE_CAP = 1 << 22  # entries in each of the memo and the PSD cache
_INV_SQRT_BITS = 16


class SearchSpaceError(RuntimeError):
    """A coordinate box or the candidate row pool exceeds POOL_ROW_CAP."""


@dataclass(frozen=True)
class Represented:
    certificate: Certificate


@dataclass(frozen=True)
class Unsat:
    depth: int


@dataclass(frozen=True)
class NotTotallyPsd:
    pass


@dataclass(frozen=True)
class NotIntegral:
    pass


SearchOutcome = Represented | Unsat | NotTotallyPsd | NotIntegral


@dataclass(frozen=True)
class ExceedsBound:
    bound: int


@dataclass(frozen=True)
class NotSoS:
    reason: str


def _inv_sqrt_upper(r: int) -> Fraction:
    """A rational upper bound on 1/sqrt(r)."""
    return Fraction(1 << _INV_SQRT_BITS, isqrt(r << (2 * _INV_SQRT_BITS)))


class _Column(NamedTuple):
    """A candidate column value x with what every row containing it needs."""

    coords: tuple[int, ...]
    square: tuple[int, ...]
    trace: int  # trace(x^2)
    lows: tuple[int, ...]  # lower ends of sigma_e(x^2), scaled by 2^table bits
    positive: bool  # sigma(x) > 0 at the identity embedding


@lru_cache(maxsize=1 << 13)
def _column_values(field: Field, diag_coords: tuple[int, ...]) -> tuple[_Column, ...]:
    """All nonzero x in O with sigma(x)^2 <= sigma(diag) at every embedding.

    The integral-basis box is the pull-back of the conjugate bounds
    |sigma(x)| <= sqrt(sigma(diag)), read off the diagonal's integer
    enclosures, so every grid point is already integral.  Membership holds
    for x exactly when it holds for -x, so only the half of the box after 0
    in product order is scanned and each hit yields the pair +-x, which
    share their square, its trace and its interval lows.  Interval tests
    decide membership and the sign at the identity embedding unless they
    are inconclusive; then exact sign tests decide.  A box of more than
    POOL_ROW_CAP points raises SearchSpaceError before the scan.
    """
    deg = field.degree
    n_emb = len(field.embeddings)
    interval = field.interval_of_coords
    diag_ivs = [interval(diag_coords, e) for e in range(n_emb)]
    # sqrt(sigma(diag)) <= ceil(sqrt(hi)) / 2^(table bits / 2) at each embedding
    root_sum = 0
    for _, hi in diag_ivs:
        root = isqrt(max(hi, 0))
        root_sum += root + (root * root < hi)
    scale = Fraction(root_sum, (1 << (_EMB_BITS // 2)) * deg * field._minv_den)
    inv_roots = [_inv_sqrt_upper(r) for r in field.shape.basis_radicands]
    minv = field._minv_int
    limits = [
        int(scale * sum(inv_roots[j] * abs(minv[j][i]) for j in range(deg)))
        for i in range(deg)
    ]
    size = 1
    for limit in limits:
        size *= 2 * limit + 1
    if size > POOL_ROW_CAP:
        raise SearchSpaceError(
            f"coordinate box of {size} points exceeds {POOL_ROW_CAP}"
        )
    box = itertools.product(*(range(-limit, limit + 1) for limit in limits))
    shift = 1 << _EMB_BITS
    values: list[_Column] = []
    # the box is symmetric, so 0 is its middle point in product order
    for coords in itertools.islice(box, size // 2 + 1, None):
        exact_needed = False
        ok = True
        for e in range(n_emb):
            xlo, xhi = interval(coords, e)
            if not e:
                id_lo, id_hi = xlo, xhi
            top = max(xlo * xlo, xhi * xhi)
            dlo, dhi = diag_ivs[e]
            if top <= dlo * shift:
                continue
            low = 0 if xlo <= 0 <= xhi else min(xlo * xlo, xhi * xhi)
            if low > dhi * shift:
                ok = False
                break
            exact_needed = True
        if not ok:
            continue
        square = field.mul_coords(coords, coords)
        if exact_needed and not field.coords_totally_nonneg(
            tuple(a - b for a, b in zip(diag_coords, square))
        ):
            continue
        trace = field.trace_of_coords(square)
        lows = tuple([interval(square, e)[0] for e in range(n_emb)])
        if id_lo > 0 or id_hi < 0:
            positive = id_lo > 0
        else:
            positive = field.sign_of_coords(coords, 0) > 0
        values.append(_Column(coords, square, trace, lows, positive))
        negated = tuple(map(neg, coords))
        values.append(_Column(negated, square, trace, lows, not positive))
    return tuple(values)


class RowPool:
    """Candidate rows for a Gram matrix, in canonical nonincreasing order."""

    def __init__(self, gram: GramForm, icoords) -> None:
        field = gram.field
        r = gram.rank
        self.field = field
        self.rank = r
        d = field.degree
        n_emb = len(field.embeddings)
        columns = [_column_values(field, icoords[j][j]) for j in range(r)]
        size_estimate = 1
        for vals in columns:
            size_estimate *= len(vals) + 1
        if size_estimate > POOL_ROW_CAP:
            raise SearchSpaceError(
                f"candidate space of about {size_estimate} rows exceeds {POOL_ROW_CAP}"
            )
        zero_entry = (0,) * d
        zero = _Column(zero_entry, zero_entry, 0, (0,) * n_emb, False)
        mul = field.mul_coords
        decorated = []
        # rows are normalized so that their first nonzero column is positive
        # at the identity embedding; `lead` is the index of that column
        for lead in range(r):
            choices = (
                [(zero,)] * lead
                + [[v for v in columns[lead] if v.positive]]
                + [(zero,) + vals for vals in columns[lead + 1 :]]
            )
            for row in itertools.product(*choices):
                cols, squares, row_traces, lows, _ = zip(*row)
                outer: list[int] = []
                for i in range(r):
                    outer += squares[i]
                    for j in range(i + 1, r):
                        outer += mul(cols[i], cols[j])
                flat = tuple(itertools.chain(*cols))
                lows = tuple(itertools.chain(*lows))
                decorated.append((sum(row_traces), flat, cols, tuple(outer), lows))
        # remainders, outer products and pool rows are flat int tuples of
        # length r(r+1)/2 * d: upper-triangle slots, d coordinates per slot
        # tri_index[i][j] = tri_index[j][i] is the slot of entry (i, j)
        self.tri_index = [
            [(min(i, j) * (2 * r - min(i, j) - 1)) // 2 + max(i, j) for j in range(r)]
            for i in range(r)
        ]
        # by (key, flat); flat is unique, so later fields are never compared
        decorated.sort(reverse=True)
        self.cols = [t[2] for t in decorated]
        self.keys = [t[0] for t in decorated]
        self.outers = [t[3] for t in decorated]
        self.diag_lo = [t[4] for t in decorated]
        self.n_emb = n_emb
        self.neg_keys = [-k for k in self.keys]
        self.outer_index = {o: i for i, o in enumerate(self.outers)}
        self.zero_flat = (0,) * (r * (r + 1) // 2 * d)
        traces = field._basis_traces
        self.trace_slots = [
            (self.tri_index[j][j] * d + i, traces[i])
            for j in range(r)
            for i in range(d)
            if traces[i]
        ]
        self.degree = d

    def __len__(self) -> int:
        return len(self.cols)

    def remainder_of(self, icoords) -> tuple[int, ...]:
        r = self.rank
        return tuple(
            c for i in range(r) for j in range(i, r) for c in icoords[i][j]
        )

    def trace_of(self, rem) -> int:
        return sum(rem[pos] * w for pos, w in self.trace_slots)

    def subtract(self, rem, outer):
        return tuple(a - b for a, b in zip(rem, outer))

    def diag_upper_bounds(self, rem) -> tuple[int, ...]:
        """Upper interval ends of the diagonal at every embedding, in the
        same (column, embedding) order as the per-row lower bounds."""
        field = self.field
        d = self.degree
        out = []
        for j in range(self.rank):
            slot = self.tri_index[j][j]
            entry = rem[slot * d : (slot + 1) * d]
            for e in range(self.n_emb):
                out.append(field.interval_of_coords(entry, e)[1])
        return tuple(out)

    def remainder_psd(self, rem) -> bool:
        d = self.degree
        return self.field.coords_psd(
            [[rem[slot * d : (slot + 1) * d] for slot in row] for row in self.tri_index]
        )

    def rows_as_elements(self, indices: list[int]) -> tuple[tuple[OElement, ...], ...]:
        field = self.field
        return tuple(
            tuple(field.element_from_coords(c) for c in self.cols[idx])
            for idx in indices
        )


def _search(
    pool: RowPool, rem0, budget: int, memo: dict, psd_cache: dict | None = None
) -> list[int] | None:
    """Indices of at most `budget` nonincreasing pool rows summing to rem0."""
    keys = pool.keys
    neg_keys = pool.neg_keys
    outers = pool.outers
    outer_index = pool.outer_index
    diag_lo = pool.diag_lo
    zero = pool.zero_flat
    n = len(keys)
    slots = pool.rank * pool.n_emb
    if psd_cache is None:
        psd_cache = {}

    def psd(rem) -> bool:
        v = psd_cache.get(rem)
        if v is None:
            v = pool.remainder_psd(rem)
            if len(psd_cache) < SEARCH_CACHE_CAP:
                psd_cache[rem] = v
        return v

    def dfs(rem, budget: int, start: int) -> list[int] | None:
        if rem == zero:
            return []
        if budget == 0:
            return None
        tr = pool.trace_of(rem)
        if tr <= 0:
            return None
        cached = memo.get((rem, budget))
        if cached is not None and cached <= start:
            return None
        if budget == 1:
            idx = outer_index.get(rem)
            if idx is not None and idx >= start:
                return [idx]
        else:
            first = bisect_left(neg_keys, -tr, lo=start)
            rem_hi = pool.diag_upper_bounds(rem)
            for idx in range(first, n):
                k = keys[idx]
                if k * budget < tr:
                    break
                lows = diag_lo[idx]
                feasible = True
                for t in range(slots):
                    if rem_hi[t] < lows[t]:
                        feasible = False
                        break
                if not feasible:
                    continue
                rem2 = pool.subtract(rem, outers[idx])
                if rem2 == zero:
                    return [idx]
                if budget == 2:
                    # the last row is a lookup: no PSD test, no memo entry
                    idx2 = outer_index.get(rem2)
                    if idx2 is not None and idx2 >= idx:
                        return [idx, idx2]
                elif psd(rem2):
                    tail = dfs(rem2, budget - 1, idx)
                    if tail is not None:
                        return [idx] + tail
        if cached is None or start < cached:
            if len(memo) < SEARCH_CACHE_CAP:
                memo[(rem, budget)] = start
        return None

    return dfs(rem0, budget, 0)


def _certificate(pool: RowPool, gram: GramForm, indices: list[int]) -> Certificate:
    cert = Certificate(gram.field, gram.rank, pool.rows_as_elements(indices))
    check = verify_certificate(gram, cert)
    assert check.ok, f"internal soundness failure: {check.reason}"
    return cert


def candidate_rows(gram: GramForm) -> tuple[tuple[OElement, ...], ...]:
    """The complete ordered candidate row list for a totally PSD Gram."""
    icoords = gram.integral_coords()
    if icoords is None:
        raise ValueError("gram matrix is not integral")
    pool = RowPool(gram, icoords)
    return pool.rows_as_elements(list(range(len(pool))))


def represent(gram: GramForm, budget: int) -> SearchOutcome:
    """Decide whether gram is a sum of at most `budget` squares of forms."""
    if budget < 0:
        raise ValueError("budget must be nonnegative")
    icoords = gram.integral_coords()
    if icoords is None:
        return NotIntegral()
    if not totally_psd(gram):
        return NotTotallyPsd()
    pool = RowPool(gram, icoords)
    rem0 = pool.remainder_of(icoords)
    indices = _search(pool, rem0, budget, {})
    if indices is None:
        return Unsat(budget)
    return Represented(_certificate(pool, gram, indices))


def length_certificate(
    gram: GramForm, s_max: int
) -> tuple[int, Certificate] | ExceedsBound | NotSoS:
    """Minimal number of squares representing gram plus a witness.

    Budgets are deepened upward from a sound lower bound (matrix rank and
    the remainder-trace quotient), so the first representation found is of
    minimal size and all smaller budgets were searched exhaustively.  No
    representation has more than trace(G) / (smallest row key) rows, so
    budgets above that are never searched.
    """
    if s_max < 0:
        raise ValueError("s_max must be nonnegative")
    icoords = gram.integral_coords()
    if icoords is None:
        return NotSoS("not-integral")
    if not totally_psd(gram):
        return NotSoS("not-totally-psd")
    if gram.is_zero():
        return 0, Certificate(gram.field, gram.rank, ())
    pool = RowPool(gram, icoords)
    if len(pool) == 0:
        return ExceedsBound(s_max)
    rem0 = pool.remainder_of(icoords)
    tr0 = pool.trace_of(rem0)
    lower = max(1, gram_rank(gram), -(-tr0 // pool.keys[0]))
    if lower > s_max:
        return ExceedsBound(s_max)
    memo: dict = {}
    psd_cache: dict = {}
    for s in range(lower, min(s_max, tr0 // pool.keys[-1]) + 1):
        indices = _search(pool, rem0, s, memo, psd_cache)
        if indices is not None:
            return len(indices), _certificate(pool, gram, indices)
    return ExceedsBound(s_max)


def length(gram: GramForm, s_max: int) -> int | ExceedsBound | NotSoS:
    """Minimal number of squares representing gram, searched up to s_max."""
    res = length_certificate(gram, s_max)
    if isinstance(res, tuple):
        return res[0]
    return res


def element_length(alpha: OElement, s_max: int) -> int | ExceedsBound | NotSoS:
    """Minimal number of squares summing to alpha in its ring of integers."""
    return length(GramForm.from_element(alpha), s_max)
