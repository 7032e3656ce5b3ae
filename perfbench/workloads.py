"""The benchmark's seeded workloads.

Each workload makes instance i from (seed, i) alone, runs it through the
public soslen API (`run`, timed), turns the result into plain data
(`observe`, untimed) and checks that data against the independent
reference in `reference.py` (`check`, untimed).  Instances cycle through
fixed strata (field, rank, row count, ...) so that every run of a few
seconds sees the same mix of input shapes; only the coordinates depend on
the seed.

Library functions are always looked up as module attributes at call time
(`lib.search.length_certificate`, never a name bound by `from ... import`),
so the traced run sees every call through its wrappers.
"""

from __future__ import annotations

import functools
import random
from fractions import Fraction as F

from reference import G_EXACT, Arith, quadratic_length

# Z-bases of the rings of integers, in radical coordinates.  Inputs are
# integer combinations of these, so they do not depend on the basis the
# library happens to compute.
INTEGRAL_BASES = {
    (): ((F(1),),),
    (2,): ((F(1), F(0)), (F(0), F(1))),
    (3,): ((F(1), F(0)), (F(0), F(1))),
    (5,): ((F(1), F(0)), (F(1, 2), F(1, 2))),
    (6,): ((F(1), F(0)), (F(0), F(1))),
    (6, 7): (
        (F(1), F(0), F(0), F(0)),
        (F(0), F(1), F(0), F(0)),
        (F(0), F(0), F(1), F(0)),
        (F(0), F(1, 2), F(0), F(1, 2)),
    ),
    (2, 5): (
        (F(1), F(0), F(0), F(0)),
        (F(0), F(1), F(0), F(0)),
        (F(1, 2), F(0), F(1, 2), F(0)),
        (F(0), F(1, 2), F(0), F(1, 2)),
    ),
    (13, 15): (
        (F(1), F(0), F(0), F(0)),
        (F(1, 2), F(1, 2), F(0), F(0)),
        (F(0), F(0), F(1), F(0)),
        (F(0), F(0), F(1, 2), F(1, 2)),
    ),
}

@functools.cache
def arith(shape: tuple[int, ...]) -> Arith:
    return Arith(shape)


def _random_rows(rng: random.Random, shape, rank: int, count: int):
    """`count` nonzero rows of ring elements with integral-basis
    coordinates in {-1, 0, 1}, in radical coordinates."""
    basis = INTEGRAL_BASES[shape]
    d = len(basis)
    rows = []
    while len(rows) < count:
        coeffs = [[rng.randint(-1, 1) for _ in range(d)] for _ in range(rank)]
        if not any(any(c) for c in coeffs):
            continue
        rows.append(
            tuple(
                tuple(sum(c * b[k] for c, b in zip(cs, basis)) for k in range(d))
                for cs in coeffs
            )
        )
    return tuple(rows)


def _elements(lib, field, rows):
    Radical = lib.radicals.Radical
    return [tuple(field.element(Radical(field.shape, v)) for v in row) for row in rows]


def _coords(radical_matrix):
    return tuple(tuple(e.coords for e in row) for row in radical_matrix)


def _cert_rows(cert):
    return tuple(tuple(v.to_radical().coords for v in row) for row in cert.rows)


def _perturb(rows):
    """The rows with 1 added to their first entry: no longer a witness."""
    first = rows[0]
    bumped = (tuple(first[0][k] + (k == 0) for k in range(len(first[0]))),)
    return (bumped + first[1:],) + tuple(rows[1:])


class Workload:
    """Shared defaults; `cert_key` names the observed certificate rows."""

    cert_key = "cert"

    def prepare(self, lib) -> None:
        """Untimed set-up of the checks, once per run."""

    def has_certificate(self, obs) -> bool:
        return bool(obs.get(self.cert_key))

    def bad_certificate(self, obs) -> dict:
        return dict(obs, **{self.cert_key: _perturb(obs[self.cert_key])})


class FormsBiquad(Workload):
    """length(G) and length(G (+) <1>) for Grams built from random rows."""

    name = "forms-biquad"
    shapes = ((6, 7), (2, 5), (13, 15))
    # (field, rank, rows).  Rank-2 two-row inputs over Q(sqrt 13, sqrt 15)
    # are left out: their pools reach 10^5 rows and single instances 20 s,
    # so a run holds too few of them for a steady throughput (README.md).
    strata = tuple(
        [(sh, 1, k) for sh in shapes for k in (1, 2, 3)]
        + [(sh, 2, 1) for sh in shapes]
        + [(sh, 2, 2) for sh in shapes[:2]]
    )
    s_max = 10
    # instances over which exact work counts and the peak RSS are taken:
    # fixed work, about a third of a 30 s run at the commit that set it
    prefix = 280

    def instance(self, seed: int, i: int) -> dict:
        shape, rank, count = self.strata[i % len(self.strata)]
        rng = random.Random(f"{self.name}:{seed}:{i}")
        return {"shape": shape, "rank": rank, "rows": _random_rows(rng, shape, rank, count)}

    def run(self, lib, fields, inst):
        field = fields[inst["shape"]]
        gram = lib.forms.GramForm.from_rows(field, _elements(lib, field, inst["rows"]))
        res = lib.search.length_certificate(gram, self.s_max)
        perp = lib.forms.perp_unit(gram)
        perp_res = None
        if isinstance(res, tuple):
            perp_res = lib.search.length_certificate(perp, res[0] + 2)
        return gram, res, perp, perp_res

    def observe(self, lib, out) -> dict:
        gram, res, perp, perp_res = out
        obs = {"gram": _coords(gram.entries), "perp_gram": _coords(perp.entries)}
        for key, r in (("", res), ("perp_", perp_res)):
            if isinstance(r, tuple):
                obs[key + "length"] = r[0]
                obs[key + "cert"] = _cert_rows(r[1])
            else:
                obs[key + "length"] = repr(r)
        return obs

    def check(self, inst, obs) -> str | None:
        a = arith(inst["shape"])
        rank = inst["rank"]
        gram = a.gram_of_rows(inst["rows"], rank)
        if obs["gram"] != gram:
            return "Gram matrix differs from the sum of the input rows"
        t = obs["length"]
        if not isinstance(t, int):
            return f"length of a sum of squares gave {t}"
        if not 1 <= t <= len(inst["rows"]):
            return f"length {t} outside 1..{len(inst['rows'])} (the input rows)"
        if len(obs["cert"]) != t:
            return f"length {t} with a {len(obs['cert'])}-row certificate"
        reason = a.verify(gram, obs["cert"])
        if reason:
            return reason
        perp = tuple(row + (a.zero,) for row in gram) + ((a.zero,) * rank + (a.one,),)
        if obs["perp_gram"] != perp:
            return "perp_unit(G) is not G (+) <1>"
        if obs["perp_length"] != t + 1:
            return f"length(G (+) <1>) is {obs['perp_length']}, length(G) is {t}"
        if len(obs["perp_cert"]) != t + 1:
            return "perp_unit certificate size differs from its length"
        return a.verify(perp, obs["perp_cert"])

    def wrong_verdict(self, obs) -> dict:
        return dict(obs, perp_length=obs["length"] + 2)


def _totally_positive(n: int, trace_bound: int):
    """All totally positive integers of Q(sqrt n) with trace <= bound, as
    (p, q) for p + q sqrt(n)."""
    den = 2 if n % 4 == 1 else 1
    out = []
    for u in range(1, trace_bound * den // 2 + 1):
        for v in range(-u, u + 1):
            if den == 2 and (u - v) % 2:
                continue
            if u * u > n * v * v:  # both conjugates (u +- v sqrt n)/den > 0
                out.append((F(u, den), F(v, den)))
    return out


class ElementsQuadratic(Workload):
    """Rank-1 lengths: integers against the four-square oracle and totally
    positive quadratic integers against an exhaustive search below."""

    name = "elements-quadratic"
    shapes = ((), (2,), (3,), (5,))
    strata = ((), (2,), (), (3,), (), (5,))
    int_bound = 5000  # the suite's `lagrange` range
    trace_bound = 60  # the suite's `thm15` range
    s_max = {(): 4, (2,): 5, (3,): 5, (5,): 5}
    prefix = 6000

    def __init__(self) -> None:
        self.pools = {sh: _totally_positive(sh[0], self.trace_bound) for sh in self.shapes if sh}
        self.oracle = None

    def prepare(self, lib) -> None:
        self.oracle = lib.suite.four_square_oracle(self.int_bound)

    def instance(self, seed: int, i: int) -> dict:
        shape = self.strata[i % len(self.strata)]
        rng = random.Random(f"{self.name}:{seed}:{i}")
        if shape:
            alpha = rng.choice(self.pools[shape])
        else:
            alpha = (F(rng.randint(0, self.int_bound)),)
        return {"shape": shape, "alpha": alpha}

    def run(self, lib, fields, inst):
        field = fields[inst["shape"]]
        alpha = field.element(lib.radicals.Radical(field.shape, inst["alpha"]))
        gram = lib.forms.GramForm.from_element(alpha)
        return lib.search.length_certificate(gram, self.s_max[inst["shape"]])

    def observe(self, lib, out) -> dict:
        if isinstance(out, tuple):
            return {"length": out[0], "cert": _cert_rows(out[1])}
        return {"length": None, "outcome": type(out).__name__}

    def expected(self, inst) -> int | None:
        if not inst["shape"]:
            return self.oracle[int(inst["alpha"][0])]
        return quadratic_length(inst["shape"][0], inst["alpha"])

    def check(self, inst, obs) -> str | None:
        want = self.expected(inst)
        if want is None:
            if obs.get("outcome") != "ExceedsBound":
                return f"not a sum of squares, library gave length {obs['length']}"
            return None
        if obs["length"] != want:
            return f"length {obs['length']}, reference {want}"
        if len(obs["cert"]) != want:
            return f"length {want} with a {len(obs['cert'])}-row certificate"
        a = arith(inst["shape"])
        return a.verify(((inst["alpha"],),), obs["cert"])

    def wrong_verdict(self, obs) -> dict:
        return dict(obs, length=obs["length"] + 1)


class CertsDescent(Workload):
    """Write, read, verify and compress certificates built from random rows."""

    cert_key = "rows"
    name = "certs-descent"
    shapes = ((), (2,), (5,), (6,), (6, 7))
    # (field, rank, rows): the row count drives the cost, so it is part of
    # the stratum rather than drawn, which keeps the tail steady across seeds
    strata = tuple(
        (shape, rank, count)
        for count in range(1, 13)
        for shape, rank in (((2,), 1), ((2,), 2), ((5,), 1), ((5,), 2), ((6,), 1), ((6,), 2), ((6, 7), 1))
    )
    prefix = 700

    def instance(self, seed: int, i: int) -> dict:
        shape, rank, count = self.strata[i % len(self.strata)]
        rng = random.Random(f"{self.name}:{seed}:{i}")
        return {"shape": shape, "rank": rank, "rows": _random_rows(rng, shape, rank, count)}

    def run(self, lib, fields, inst):
        cf = lib.certfile
        field = fields[inst["shape"]]
        rows = tuple(_elements(lib, field, inst["rows"]))
        gram = lib.forms.GramForm.from_rows(field, rows)
        cert = lib.forms.Certificate(field, inst["rank"], rows)
        text = cf.emit_certificate(cf.document_from_certificate(gram, cert))
        gram_in, cert_in = cf.to_certificate(cf.parse_certificate(text))
        out = lib.descent.descend(lib.descent.DescentProblem(field, gram_in, cert_in))
        out_text = cf.emit_certificate(cf.document_from_certificate(gram_in, out))
        verdict = cf.verify_document(cf.parse_certificate(out_text))
        return text, out_text, verdict

    def observe(self, lib, out) -> dict:
        text, out_text, verdict = out
        cf = lib.certfile
        doc = cf.parse_certificate(out_text)
        return {
            "gram": _coords(doc.gram.entries),
            "rows": tuple(tuple(v.coords for v in row) for row in doc.rows),
            "verified": verdict.ok,
            "stable": cf.emit_certificate(cf.parse_certificate(text)) == text
            and cf.emit_certificate(doc) == out_text,
        }

    def check(self, inst, obs) -> str | None:
        a = arith(inst["shape"])
        rank = inst["rank"]
        gram = a.gram_of_rows(inst["rows"], rank)
        if obs["gram"] != gram:
            return "compressed certificate carries another Gram matrix"
        if not obs["stable"]:
            return "certificate documents are not byte-stable"
        if not obs["verified"]:
            return "verify_document rejected the compressed certificate"
        bound = G_EXACT[rank * a.degree]
        if len(obs["rows"]) > bound:
            return f"{len(obs['rows'])} rows exceed g({rank * a.degree}) = {bound}"
        return a.verify(gram, obs["rows"])

    def wrong_verdict(self, obs) -> dict:
        return dict(obs, verified=not obs["verified"])


WORKLOADS = {w.name: w for w in (FormsBiquad, ElementsQuadratic, CertsDescent)}
