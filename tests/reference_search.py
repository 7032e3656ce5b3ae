"""The unordered reference search that tests compare the ordered search with.

It explores every row permutation, so it is exponentially slower than
`soslen.search._search`; it shares only the candidate pool, never the
canonical-order prunes, which makes it an independent check of `Unsat`.
"""

from soslen import Certificate, GramForm, Represented, Unsat, verify_certificate
from soslen.search import RowPool


def reference_search(pool: RowPool, rem0, budget: int) -> list[int] | None:
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
    pool = RowPool(gram, icoords)
    indices = reference_search(pool, pool.remainder_of(icoords), budget)
    if indices is None:
        return Unsat(budget)
    cert = Certificate(gram.field, gram.rank, pool.rows_as_elements(indices))
    assert verify_certificate(gram, cert).ok
    return Represented(cert)
