"""The tensor-loop product that `soslen.fields.Field.mul_coords` is compared with.

`Field.mul_coords` is straight-line code generated from the multiplication
tensor; this loop reads the same tensor entry by entry, so both must agree
on every pair of coordinate tuples.
"""


def tensor_mul(tensor, a, b):
    """sum over i, j of a_i b_j times the coordinates of b_i b_j."""
    d = len(tensor)
    out = [0] * d
    for i in range(d):
        ai = a[i]
        if not ai:
            continue
        row = tensor[i]
        for j in range(d):
            bj = b[j]
            if not bj:
                continue
            f = ai * bj
            t = row[j]
            for k in range(d):
                if t[k]:
                    out[k] += f * t[k]
    return tuple(out)
