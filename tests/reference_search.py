"""The reference searches that tests compare the ordered search with.

`reference_search` explores every row permutation, so it is exponentially
slower than `soslen.search._search`.  It runs over `ProductPool`, the full
product of the column values, built here without `RowPool` and its PSD
screen, and never uses the canonical-order prunes, which makes it an
independent check of `ExceedsBound`.

`exact_prune_search` is the ordered search as it was before its prunes read
floats: the same DFS, with the diagonal prune on integer enclosures and an
exact, cached PSD test of every remainder it descends into.  It cuts the
nodes `_search` cuts by Cauchy-Binet with its own test, `_square_minors`,
which takes Leibniz determinants in `Radical` arithmetic and norms from the
characteristic polynomial.
"""

import itertools
from bisect import bisect_left
from fractions import Fraction
from math import isqrt

from soslen import Certificate, ExceedsBound, GramForm, Radical, Represented, verify_certificate
from soslen.fields import _integer_charpoly
from soslen.radicals import _clear_denominators
from soslen.search import (
    SEARCH_CACHE_CAP,
    _Column,
    _column_values,
    _Screen,
)


def characteristic_polynomial(x: Radical) -> list[Fraction]:
    """Coefficients of prod over embeddings of (X - sigma(x)), constant first."""
    k, y = _clear_denominators(x)
    d = x.shape.degree
    return [Fraction(p, k ** (d - i)) for i, p in enumerate(_integer_charpoly(x.shape, y))]


def _slots(r: int) -> list[tuple[int, int]]:
    """The upper-triangle entries (i, j) of an r x r matrix in the flat
    order of `RowPool`: column by column."""
    return [(i, j) for j in range(r) for i in range(j + 1)]


def _entries(pool, flat) -> dict:
    """The entries (i, j), i <= j, of a flat remainder or outer product."""
    d = pool.field.degree
    return {ij: flat[t * d : (t + 1) * d] for t, ij in enumerate(_slots(pool.rank))}


def _trace(pool, rem) -> int:
    """The trace of a flat remainder: that of its diagonal entries."""
    return sum(pool.field.trace_of_coords(x) for x in _diagonal(pool, rem))


class ProductPool:
    """Every sign-normalized row whose columns fit the diagonal boxes, in
    `RowPool` order, with the attributes and helpers `_search` reads."""

    def __init__(self, gram: GramForm) -> None:
        icoords = gram.integral_coords()
        field = gram.field
        r = gram.rank
        d = field.degree
        n_emb = len(field.embeddings)
        self.field, self.rank = field, r
        zero_entry = (0,) * d
        zero = _Column(zero_entry, zero_entry, 0, (0.0,) * n_emb, (0.0,) * n_emb)
        # column records hold the member of +-x positive at the identity
        # embedding; `lead` is the index of the row's first nonzero column
        columns = [_column_values(field, icoords[j][j]) for j in range(r)]
        signed = [(zero,) + vals + tuple(v.negated() for v in vals) for vals in columns]
        slots = _slots(r)
        decorated = []
        for lead in range(r):
            choices = [(zero,)] * lead + [columns[lead]] + signed[lead + 1 :]
            for row in itertools.product(*choices):
                cols = tuple(v.coords for v in row)
                outer = tuple(c for i, j in slots for c in field.mul_coords(cols[i], cols[j]))
                key = sum(v.trace for v in row)
                flat = tuple(itertools.chain(*cols))
                floats = tuple(
                    a * b for i, j in slots for a, b in zip(row[i].values, row[j].values)
                )
                decorated.append((key, flat, cols, outer, floats))
        decorated.sort(reverse=True)
        self.keys = [t[0] for t in decorated]
        self.cols = [t[2] for t in decorated]
        self.outers = [t[3] for t in decorated]
        self.floats = [t[4] for t in decorated]
        self.neg_keys = [-k for k in self.keys]
        self.outer_index = {o: i for i, o in enumerate(self.outers)}
        self.zero_flat = (0,) * (r * (r + 1) // 2 * d)
        self.root = tuple(c for i, j in slots for c in icoords[i][j])
        self.trace = _trace(self, self.root)
        self.screen = _Screen(field, self.root, columns)
        self.diag_floats = [self.screen.diag_of(f) for f in self.floats]

    def __len__(self) -> int:
        return len(self.keys)

    def subtract(self, rem, outer):
        return tuple(a - b for a, b in zip(rem, outer))

    def rows_as_elements(self, indices):
        field = self.field
        return tuple(
            tuple(field.element_from_coords(c) for c in self.cols[idx]) for idx in indices
        )


def reference_search(pool: ProductPool, rem0, budget: int) -> list[int] | None:
    """Plain exhaustive search without the canonical-order restriction."""
    zero = pool.zero_flat

    def dfs(rem, budget: int) -> list[int] | None:
        if rem == zero:
            return []
        if budget == 0:
            return None
        tr = _trace(pool, rem)
        if tr <= 0:
            return None
        for idx in range(len(pool.keys)):
            if pool.keys[idx] > tr:
                continue
            rem2 = pool.subtract(rem, pool.outers[idx])
            if rem2 == zero:
                return [idx]
            if _remainder_psd(pool, rem2):
                tail = dfs(rem2, budget - 1)
                if tail is not None:
                    return [idx] + tail
        return None

    return dfs(rem0, budget)


def _diagonal(pool, flat) -> tuple[tuple[int, ...], ...]:
    """The diagonal entries of a flat remainder or outer product."""
    entry = _entries(pool, flat)
    return tuple(entry[j, j] for j in range(pool.rank))


def principal_minors_nonneg(field, m) -> bool:
    """Exact total positive semidefiniteness of a symmetric matrix of
    coordinate tuples: every principal minor is signed at every embedding.
    It takes no shortcut by leading minors, so it shares no code with
    `Field.coords_psd` or the definite levels of the pool's screens."""
    memo: dict = {}
    return all(
        field.coords_totally_nonneg(field.minor(m, subset, subset, memo))
        for size in range(1, len(m) + 1)
        for subset in itertools.combinations(range(len(m)), size)
    )


def _remainder_psd(pool, rem) -> bool:
    """Exact total positive semidefiniteness of a flat remainder."""
    r = pool.rank
    entry = _entries(pool, rem)
    return principal_minors_nonneg(
        pool.field, [[entry[min(i, j), max(i, j)] for j in range(r)] for i in range(r)]
    )


def _leibniz(m, S) -> Radical:
    """det m[S, S] by the Leibniz formula, for a matrix m of `Radical`s."""
    total = Radical.zero(m[0][0].shape)
    for perm in itertools.permutations(range(len(S))):
        term = Radical.one(total.shape)
        for i, p in enumerate(perm):
            term = term * m[S[i]][S[p]]
        inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
        total = total - term if inversions % 2 else total + term
    return total


def _square_minors(pool, rem, budget: int) -> bool:
    """Whether every principal minor of size `budget` of a flat remainder
    has a norm that is the square of an integer, as Cauchy-Binet asks of
    V^T V for V of at most `budget` rows.  The norm is the constant term of
    the characteristic polynomial times (-1)^degree."""
    field = pool.field
    d = field.degree
    r = pool.rank
    entry = _entries(pool, rem)
    m = [
        [field.radical_of_coords(entry[min(i, j), max(i, j)]) for j in range(r)]
        for i in range(r)
    ]
    for S in itertools.combinations(range(r), budget):
        norm = characteristic_polynomial(_leibniz(m, S))[0] * (-1) ** d
        assert norm.denominator == 1, "the norm of an algebraic integer"
        if norm < 0 or isqrt(norm.numerator) ** 2 != norm:
            return False
    return True


def exact_prune_search(pool, rem0, budget: int, memo: dict):
    """Indices of at most `budget` nonincreasing pool rows summing to rem0,
    by the ordered search with exact prunes; a node whose budget b is at
    least 2 and at most the rank has no completion when a b x b principal
    minor of its remainder fails `_square_minors`, as in `_search`."""
    field = pool.field
    n_emb = len(field.embeddings)
    keys = pool.keys
    neg_keys = pool.neg_keys
    outers = pool.outers
    outer_index = pool.outer_index
    # lower ends of the diagonal of every row's outer product, per embedding
    diag_lo = [
        tuple(field.interval_of_coords(x, e)[0] for x in _diagonal(pool, o) for e in range(n_emb))
        for o in outers
    ]
    zero = pool.zero_flat
    n = len(keys)
    slots = pool.rank * n_emb
    psd_cache: dict = {}

    def psd(rem) -> bool:
        v = psd_cache.get(rem)
        if v is None:
            v = _remainder_psd(pool, rem)
            if len(psd_cache) < SEARCH_CACHE_CAP:
                psd_cache[rem] = v
        return v

    def dfs(rem, budget: int, start: int):
        if rem == zero:
            return []
        if budget == 0:
            return None
        tr = _trace(pool, rem)
        if tr <= 0:
            return None
        cached = memo.get((rem, budget))
        if cached is not None and cached <= start:
            return None
        if budget == 1:
            idx = outer_index.get(rem)
            if idx is not None and idx >= start:
                return [idx]
        elif budget > pool.rank or _square_minors(pool, rem, budget):
            first = bisect_left(neg_keys, -tr, lo=start)
            rem_hi = tuple(
                field.interval_of_coords(x, e)[1]
                for x in _diagonal(pool, rem)
                for e in range(n_emb)
            )
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
                rem2 = tuple(a - b for a, b in zip(rem, outers[idx]))
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


def reference_represent(gram: GramForm, budget: int) -> Represented | ExceedsBound:
    """`represent` for an integral, totally PSD Gram, by the reference search."""
    assert gram.is_integral(), "the reference search takes integral Grams"
    pool = ProductPool(gram)
    indices = reference_search(pool, pool.root, budget)
    if indices is None:
        return ExceedsBound(budget)
    cert = Certificate(gram.field, gram.rank, pool.rows_as_elements(indices))
    assert verify_certificate(gram, cert).ok
    return Represented(cert)
