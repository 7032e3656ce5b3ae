"""The half-box column scan that `soslen.search._column_values` is compared with.

It visits every point of the half coordinate box and tests each one by its
integer enclosures, one embedding at a time, so it is slower than the
library's scan, which solves coordinate ranges; both must return the same
records in the same order.
"""

import itertools
from fractions import Fraction
from math import isqrt

from soslen.fields import EMBEDDING_TABLE_BITS
from soslen.search import _Column

_INV_SQRT_BITS = 16
_MID_SCALE = 2.0 ** -(EMBEDDING_TABLE_BITS + 1)


def _inv_sqrt_upper(r):
    return Fraction(1 << _INV_SQRT_BITS, isqrt(r << (2 * _INV_SQRT_BITS)))


def half_box_scan(field, diag_coords):
    """One record for each pair +-x of nonzero x in O with
    sigma(x)^2 <= sigma(diag) at every embedding, in product order of the
    member whose first nonzero coordinate is positive."""
    deg = field.degree
    n_emb = len(field.embeddings)
    interval = field.interval_of_coords
    diag_ivs = [interval(diag_coords, e) for e in range(n_emb)]
    root_sum = 0
    for _, hi in diag_ivs:
        root = isqrt(max(hi, 0))
        root_sum += root + (root * root < hi)
    scale = Fraction(root_sum, (1 << (EMBEDDING_TABLE_BITS // 2)) * deg * field._minv_den)
    inv_roots = [_inv_sqrt_upper(r) for r in field.shape.basis_radicands]
    minv = field._minv_int
    limits = [
        int(scale * sum(inv_roots[j] * abs(minv[j][i]) for j in range(deg)))
        for i in range(deg)
    ]
    size = 1
    for limit in limits:
        size *= 2 * limit + 1
    box = itertools.product(*(range(-limit, limit + 1) for limit in limits))
    shift = 1 << EMBEDDING_TABLE_BITS
    values = []
    mids = [0] * n_emb
    for coords in itertools.islice(box, size // 2 + 1, None):
        exact_needed = False
        ok = True
        for e in range(n_emb):
            xlo, xhi = interval(coords, e)
            mids[e] = xlo + xhi
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
        if id_lo > 0 or id_hi < 0:
            positive = id_lo > 0
        else:
            positive = field.sign_of_coords(coords, 0) > 0
        floats = tuple([m * _MID_SCALE for m in mids])
        record = _Column(coords, square, trace, tuple([x * x for x in floats]), floats)
        values.append(record if positive else record.negated())
    return tuple(values)
