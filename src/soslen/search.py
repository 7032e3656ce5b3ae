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

All decisions are exact; dyadic interval bounds are used only when they are
conclusive, with an exact sign fallback otherwise.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from .fields import EMBEDDING_TABLE_BITS as _EMB_BITS
from .fields import Field, OElement
from .forms import Certificate, GramForm, gram_rank, totally_psd, verify_certificate
from .radicals import Radical

POOL_ROW_CAP = 2_000_000
_INV_SQRT_BITS = 16


class SearchSpaceError(RuntimeError):
    """The candidate row pool exceeds the configured cap."""


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


def _column_values(
    field: Field, diag: Radical, diag_coords: tuple[int, ...]
) -> list[tuple[int, ...]]:
    """All nonzero x in O with sigma(x)^2 <= sigma(diag) at every embedding.

    Enumerates integral-basis coordinates inside the box obtained by pulling
    the conjugate bounds back through the basis, so every grid point is
    already integral; candidates near the boundary fall back to an exact
    sign test.  Results are cached per field and diagonal entry.
    """
    cached = field._column_cache.get(diag_coords)
    if cached is not None:
        return cached
    deg = field.degree
    bound_sum = Fraction(0)
    for emb in field.embeddings:
        bound_sum += diag.sqrt_upper_bound(emb)
    radical_bounds = [
        bound_sum * _inv_sqrt_upper(r) / deg for r in field.shape.basis_radicands
    ]
    minv, minv_den = field._minv_int, field._minv_den
    ranges = []
    for i in range(deg):
        bound = sum(
            radical_bounds[j] * abs(Fraction(minv[j][i], minv_den))
            for j in range(deg)
        )
        limit = int(bound)
        ranges.append(range(-limit, limit + 1))
    n_emb = len(field.embeddings)
    diag_ivs = [field.interval_of_coords(diag_coords, e) for e in range(n_emb)]
    shift = 1 << _EMB_BITS
    values: list[tuple[int, ...]] = []
    for coords in itertools.product(*ranges):
        if not any(coords):
            continue
        exact_needed = False
        ok = True
        for e in range(n_emb):
            xlo, xhi = field.interval_of_coords(coords, e)
            top = max(xlo * xlo, xhi * xhi)
            dlo, dhi = diag_ivs[e]
            if top <= dlo * shift:
                continue
            low = 0 if xlo <= 0 <= xhi else min(xlo * xlo, xhi * xhi)
            if low > dhi * shift:
                ok = False
                break
            exact_needed = True
        if ok and exact_needed:
            sq = field.mul_coords(coords, coords)
            rem = tuple(a - b for a, b in zip(diag_coords, sq))
            ok = field.coords_totally_nonneg(rem)
        if ok:
            values.append(coords)
    field._column_cache[diag_coords] = values
    return values


class RowPool:
    """Candidate rows for a Gram matrix, in canonical nonincreasing order."""

    def __init__(self, gram: GramForm, icoords, row_cap: int = POOL_ROW_CAP) -> None:
        field = gram.field
        r = gram.rank
        self.field = field
        self.rank = r
        d = field.degree
        zero_entry = (0,) * d
        column_values = [
            _column_values(field, gram.entries[j][j], icoords[j][j]) for j in range(r)
        ]
        size_estimate = 1
        for vals in column_values:
            size_estimate *= len(vals) + 1
        if size_estimate > row_cap:
            raise SearchSpaceError(
                f"candidate space of about {size_estimate} rows exceeds {row_cap}"
            )
        # positive representative first: rows are normalized so that their
        # first nonzero coordinate is positive at the identity embedding
        positives = [
            [v for v in vals if field.sign_of_coords(v, 0) > 0]
            for vals in column_values
        ]
        rows: list[tuple[tuple[int, ...], ...]] = []

        def build(j: int, acc: list[tuple[int, ...]], leading: bool) -> None:
            if j == r:
                if not leading:
                    rows.append(tuple(acc))
                return
            if leading:
                acc.append(zero_entry)
                build(j + 1, acc, True)
                acc.pop()
                for v in positives[j]:
                    acc.append(v)
                    build(j + 1, acc, False)
                    acc.pop()
            else:
                acc.append(zero_entry)
                build(j + 1, acc, False)
                acc.pop()
                for v in column_values[j]:
                    acc.append(v)
                    build(j + 1, acc, False)
                    acc.pop()

        build(0, [], True)

        # remainders, outer products and pool rows are flat int tuples of
        # length r(r+1)/2 * d: upper-triangle slots, d coordinates per slot
        # tri_index[i][j] = tri_index[j][i] is the slot of entry (i, j)
        self.tri_index = [
            [(min(i, j) * (2 * r - min(i, j) - 1)) // 2 + max(i, j) for j in range(r)]
            for i in range(r)
        ]
        n_emb = len(field.embeddings)
        decorated = []
        for cols in rows:
            outer: list[int] = []
            key = 0
            diag_lo: list[int] = []
            diag_hi: list[int] = []
            for i in range(r):
                for j in range(i, r):
                    p = field.mul_coords(cols[i], cols[j])
                    outer.extend(p)
                    if i == j:
                        key += field.trace_of_coords(p)
                        for e in range(n_emb):
                            lo, hi = field.interval_of_coords(p, e)
                            diag_lo.append(lo)
                            diag_hi.append(hi)
            flat = tuple(c for col in cols for c in col)
            decorated.append((key, flat, cols, tuple(outer), tuple(diag_lo)))
        decorated.sort(key=lambda t: (t[0], t[1]), reverse=True)
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
            if len(memo) < 1 << 22:
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
    minimal size and all smaller budgets were searched exhaustively.
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
    for s in range(lower, s_max + 1):
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
