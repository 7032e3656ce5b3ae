"""The element text written and read on Fractions: an oracle for the integer
writer and reader of `soslen.radicals` (`render_numerators`,
`read_numerators`) that shares no code with them.

An element is "q0 + q1*sqrt(m) + q2*sqrt(n) + q3*sqrt(mn)" over the literal
radicands; the library stores the last coordinate over sqrt(c), c = mn/g^2
with g = gcd(m, n), so the written q3 is the stored one divided by g.
"""

import re
from fractions import Fraction
from math import gcd

from soslen import Radical, Shape

_TERM_RE = re.compile(r"(-?[0-9]+(?:/[0-9]+)?)(?:\*sqrt\(([0-9]+)\))?")


def render_radical(x: Radical) -> str:
    shape = x.shape
    if not shape.radicands:
        return str(x.coords[0])
    if len(shape.radicands) == 1:
        n = shape.radicands[0]
        return f"{x.coords[0]} + {x.coords[1]}*sqrt({n})"
    m, n = shape.radicands
    q3 = x.coords[3] / gcd(m, n)
    return (
        f"{x.coords[0]} + {x.coords[1]}*sqrt({m})"
        f" + {x.coords[2]}*sqrt({n}) + {q3}*sqrt({m * n})"
    )


def _rendered_radicands(shape: Shape) -> tuple[int, ...]:
    if not shape.radicands:
        return (1,)
    if len(shape.radicands) == 1:
        return (1, shape.radicands[0])
    m, n = shape.radicands
    return (1, m, n, m * n)


def parse_radical(shape: Shape, text: str) -> Radical:
    parts = text.replace(" ", "").split("+")
    expected = _rendered_radicands(shape)
    if len(parts) != len(expected):
        raise ValueError(f"expected {len(expected)} terms, got {len(parts)}")
    coords = []
    for part, want in zip(parts, expected):
        m = _TERM_RE.fullmatch(part)
        if not m or (want == 1 and m.group(2)):
            raise ValueError(f"malformed term {part!r}")
        rad = int(m.group(2)) if m.group(2) else 1
        if rad != want:
            raise ValueError(f"term {part!r} has radicand {rad}, expected {want}")
        try:
            coords.append(Fraction(m.group(1)))
        except ZeroDivisionError:
            raise ValueError(f"term {part!r} has a zero denominator") from None
    if len(shape.radicands) == 2:
        coords[3] *= gcd(*shape.radicands)
    return Radical(shape, tuple(coords))
