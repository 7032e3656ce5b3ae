"""The unordered reference search that tests compare the ordered search with.

It explores every row permutation, so it is exponentially slower than
`soslen.search._search`.  It runs over `ProductPool`, the full product of
the column values, built here without `RowPool` and its PSD screen, and
never uses the canonical-order prunes, which makes it an independent check
of `Unsat`.
"""

import itertools

from soslen import Certificate, GramForm, Represented, Unsat, verify_certificate
from soslen.search import _Column, _column_values


class ProductPool:
    """Every sign-normalized row whose columns fit the diagonal boxes, in
    `RowPool` order, with the attributes and helpers `_search` reads."""

    def __init__(self, gram: GramForm, icoords) -> None:
        field = gram.field
        r = gram.rank
        d = field.degree
        n_emb = len(field.embeddings)
        self.field, self.rank, self.degree, self.n_emb = field, r, d, n_emb
        zero_entry = (0,) * d
        zero = _Column(zero_entry, zero_entry, 0, (0,) * n_emb, (0.0,) * n_emb)
        # column records hold the member of +-x positive at the identity
        # embedding; `lead` is the index of the row's first nonzero column
        columns = [_column_values(field, icoords[j][j]) for j in range(r)]
        signed = [(zero,) + vals + tuple(v.negated() for v in vals) for vals in columns]
        decorated = []
        for lead in range(r):
            choices = [(zero,)] * lead + [columns[lead]] + signed[lead + 1 :]
            for row in itertools.product(*choices):
                cols = tuple(v.coords for v in row)
                outer = tuple(
                    c
                    for i in range(r)
                    for j in range(i, r)
                    for c in field.mul_coords(cols[i], cols[j])
                )
                key = sum(v.trace for v in row)
                flat = tuple(itertools.chain(*cols))
                lows = tuple(itertools.chain(*(v.lows for v in row)))
                decorated.append((key, flat, cols, outer, lows))
        decorated.sort(reverse=True)
        self.keys = [t[0] for t in decorated]
        self.cols = [t[2] for t in decorated]
        self.outers = [t[3] for t in decorated]
        self.diag_lo = [t[4] for t in decorated]
        self.neg_keys = [-k for k in self.keys]
        self.outer_index = {o: i for i, o in enumerate(self.outers)}
        self.zero_flat = (0,) * (r * (r + 1) // 2 * d)
        self.slots = [(i, j) for i in range(r) for j in range(i, r)]
        self.diag_slots = [self.slots.index((j, j)) for j in range(r)]
        self.slot_of = {ij: s for s, ij in enumerate(self.slots)}

    def __len__(self) -> int:
        return len(self.keys)

    def entry(self, rem, slot: int) -> tuple[int, ...]:
        return rem[slot * self.degree : (slot + 1) * self.degree]

    def remainder_of(self, icoords) -> tuple[int, ...]:
        return tuple(c for i, j in self.slots for c in icoords[i][j])

    def trace_of(self, rem) -> int:
        return sum(self.field.trace_of_coords(self.entry(rem, s)) for s in self.diag_slots)

    def subtract(self, rem, outer):
        return tuple(a - b for a, b in zip(rem, outer))

    def diag_upper_bounds(self, rem) -> tuple[int, ...]:
        return tuple(
            self.field.interval_of_coords(self.entry(rem, s), e)[1]
            for s in self.diag_slots
            for e in range(self.n_emb)
        )

    def remainder_psd(self, rem) -> bool:
        r = self.rank
        return self.field.coords_psd(
            [
                [self.entry(rem, self.slot_of[min(i, j), max(i, j)]) for j in range(r)]
                for i in range(r)
            ]
        )

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
        tr = pool.trace_of(rem)
        if tr <= 0:
            return None
        for idx in range(len(pool.keys)):
            if pool.keys[idx] > tr:
                continue
            rem2 = pool.subtract(rem, pool.outers[idx])
            if rem2 == zero:
                return [idx]
            if pool.remainder_psd(rem2):
                tail = dfs(rem2, budget - 1)
                if tail is not None:
                    return [idx] + tail
        return None

    return dfs(rem0, budget)


def reference_represent(gram: GramForm, budget: int) -> Represented | Unsat:
    """`represent` for an integral, totally PSD Gram, by the reference search."""
    icoords = gram.integral_coords()
    assert icoords is not None, "the reference search takes integral Grams"
    pool = ProductPool(gram, icoords)
    indices = reference_search(pool, pool.remainder_of(icoords), budget)
    if indices is None:
        return Unsat(budget)
    cert = Certificate(gram.field, gram.rank, pool.rows_as_elements(indices))
    assert verify_certificate(gram, cert).ok
    return Represented(cert)
