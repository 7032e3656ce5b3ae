"""Reproducibility suite: the explicit computations the library re-derives.

Each case recomputes a published value from scratch with exhaustive search
budgets one above the expected length, so both the witness (representable
at the length) and the obstruction (unsatisfiable one below it) are
exercised on every run.  Verdicts and computed values are deterministic;
wall times are informational only.
"""

from __future__ import annotations

import json
import random
from dataclasses import asdict, dataclass
from fractions import Fraction
from math import isqrt
from pathlib import Path
from time import perf_counter

from .certfile import document_from_certificate, emit_certificate
from .fields import Field, OElement, make_field
from .forms import Certificate, GramForm, perp_unit, verify_certificate
from .gtable import Exact, g_table
from .radicals import Radical, Shape, render_radical
from .search import (
    ExceedsBound,
    element_length,
    length,
    length_certificate,
)
from . import descent as descent_mod

_ALPHA10_NS = (17, 21, 29, 33, 37, 41, 53, 57, 61, 65)
_ALPHA11_NS = (57, 61, 65)
_PETERS_NS = (17, 29, 33)
_DIRECT_NS = (17, 21, 29)

_NOTE_65 = (
    "The table gives length 5 here; the proven length over the verified "
    "maximal order is 3. gcd(10, 65) = 5, so sqrt(26) = sqrt(650)/5 is "
    "integral and the module generated by (1, sqrt(10), (1+sqrt(65))/2, "
    "sqrt(10)(1+sqrt(65))/2) is an index-5 proper suborder; the 3-square "
    "decomposition uses elements outside that suborder."
)
_NOTE_69 = (
    "n = 69 sits outside the tabulated parameter ranges on either side; the "
    "value is established here by direct exhaustive search."
)


def extended_direct_ns() -> tuple[int, ...]:
    """Squarefree n = 1 (mod 4) with 17 <= n <= 101."""
    out = []
    for n in range(17, 102, 4):
        d = 2
        squarefree = True
        while d * d <= n:
            if n % (d * d) == 0:
                squarefree = False
                break
            d += 1
        if squarefree:
            out.append(n)
    return tuple(out)


@dataclass(frozen=True)
class SuiteParams:
    ns: tuple[int, ...] | None = None
    trace_bound: int = 60
    five_fields: tuple[int, ...] = (17,)
    lagrange_bound: int = 5000
    cert_dir: Path | None = None


@dataclass
class SuiteReport:
    case: str
    field: str
    input: str
    expected: str
    computed: str
    verdict: str
    seconds: float
    certificate: str | None = None
    note: str | None = None

    def to_dict(self) -> dict:
        return asdict(self)


def write_report(reports: list[SuiteReport], path: str | Path) -> None:
    payload = {"reports": [r.to_dict() for r in reports]}
    Path(path).write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


# element and form builders -------------------------------------------------


def length_seven_binary_form(n: int) -> tuple[Field, GramForm]:
    """The binary form over Q(sqrt n), n = 1 (mod 4) squarefree, whose
    length is seven: Gram [[A, B/2], [B/2, C]] for
    A = (3n+77+26 sqrt n)/2, B = 10+n+7 sqrt n, C = (n+5+2 sqrt n)/4."""
    f = make_field(Shape((n,)))
    sh = f.shape
    a = Radical(sh, (Fraction(3 * n + 77, 2), Fraction(13)))
    b_half = Radical(sh, (Fraction(10 + n, 2), Fraction(7, 2)))
    c = Radical(sh, (Fraction(n + 5, 4), Fraction(1, 2)))
    return f, GramForm(f, ((a, b_half), (b_half, c)))


def binary_form_witness(m: int, n: int) -> tuple[Field, OElement]:
    """The value of the length-seven binary form at (1, sqrt m), taken in
    the ring of integers of Q(sqrt m, sqrt n)."""
    sh = Shape((m, n)) if m < n else Shape((n, m))
    f = make_field(sh)
    idx = sh.radicands.index(m)
    sqrt_m = Radical.sqrt_generator(sh, idx)
    sqrt_n = Radical.sqrt_generator(sh, 1 - idx)
    one = Radical.one(sh)
    a = one.scale(Fraction(3 * n + 77, 2)) + sqrt_n.scale(13)
    b = one.scale(10 + n) + sqrt_n.scale(7)
    c = one.scale(Fraction(n + 5, 4)) + sqrt_n.scale(Fraction(1, 2))
    return f, f.element(a + b * sqrt_m + c * (sqrt_m * sqrt_m))


def seven_plus_half_square(n: int) -> tuple[Field, OElement]:
    """7 + ((1 + sqrt n)/2)^2 in Q(sqrt n) for n = 1 (mod 4)."""
    f = make_field(Shape((n,)))
    w = Radical(f.shape, (Fraction(1, 2), Fraction(1, 2)))
    return f, f.element(Radical.from_rational(f.shape, 7) + w * w)


def totally_positive_elements(f: Field, trace_bound: int) -> list[OElement]:
    """All totally positive integers of the quadratic field with trace at
    most trace_bound, ordered by (trace, coordinates)."""
    assert f.degree == 2
    n = f.shape.radicands[0]
    t1 = f.integral_basis[1].trace().numerator
    b_max = trace_bound // isqrt(n) + 1
    out = []
    for a in range(1, trace_bound + 1):
        for b in range(-b_max, b_max + 1):
            tr = 2 * a + b * t1
            if not 0 < tr <= trace_bound:
                continue
            coords = (a, b)
            if f.sign_of_coords(coords, 0) > 0 and f.sign_of_coords(coords, 1) > 0:
                out.append(f.element_from_coords(coords))
    out.sort(key=lambda e: (e.trace(), e.coords))
    return out


def four_square_oracle(bound: int) -> list[int]:
    """Dynamic-programming minimal square counts for 0..bound."""
    counts = [0] + [5] * bound
    for k in range(1, bound + 1):
        best = 5
        j = 1
        while j * j <= k:
            c = counts[k - j * j] + 1
            if c < best:
                best = c
            j += 1
        counts[k] = best
    return counts


# case implementations ------------------------------------------------------


def _emit(params: SuiteParams, case: str, index: int, gram: GramForm, cert: Certificate) -> str | None:
    if params.cert_dir is None:
        return None
    path = Path(params.cert_dir) / f"{case}-{index:02d}.json"
    path.write_text(emit_certificate(document_from_certificate(gram, cert)))
    return str(path)


def _length_report(
    params: SuiteParams,
    case: str,
    index: int,
    f: Field,
    label: str,
    gram: GramForm,
    expected: int,
    note: str | None = None,
) -> SuiteReport:
    t0 = perf_counter()
    res = length_certificate(gram, expected + 1)
    cert_path = None
    if isinstance(res, tuple):
        value, cert = res
        computed = str(value)
        cert_path = _emit(params, case, index, gram, cert)
    elif isinstance(res, ExceedsBound):
        computed = f">{res.bound}"
    else:
        computed = f"not-sos:{res.reason}"
    return SuiteReport(
        case=case,
        field=str(f.shape),
        input=label,
        expected=str(expected),
        computed=computed,
        verdict="pass" if computed == str(expected) else "fail",
        seconds=round(perf_counter() - t0, 3),
        certificate=cert_path,
        note=note,
    )


def _case_lemma52(params: SuiteParams) -> list[SuiteReport]:
    reports = []
    witnesses = (
        ((6, 7), (Fraction(43), Fraction(1), Fraction(-8), Fraction(1))),
        ((13, 15), (Fraction(114), Fraction(15), Fraction(20), Fraction(6))),
    )
    from .radicals import from_literal_coords

    for i, ((m, n), coords) in enumerate(witnesses):
        f = make_field(Shape((m, n)))
        alpha = f.element(from_literal_coords(f.shape, coords))
        gram = GramForm.from_element(alpha)
        reports.append(
            _length_report(params, "lemma52", i, f, render_radical(alpha.to_radical()), gram, 7)
        )
    return reports


def _case_prop53_direct(params: SuiteParams) -> list[SuiteReport]:
    ns = params.ns or _DIRECT_NS
    reports = []
    for i, n in enumerate(ns):
        f, gram = length_seven_binary_form(n)
        label = "; ".join(
            render_radical(gram.entries[i2][j2])
            for i2 in range(2)
            for j2 in range(i2, 2)
        )
        note = _NOTE_69 if n == 69 else None
        reports.append(
            _length_report(params, "prop53-direct", i, f, label, gram, 7, note)
        )
    return reports


def _element_case(case: str, default_ns, build, expected, notes=None):
    """A case of one element length per n: build(n) gives the field and
    element, expected(n) its length and notes.get(n) an optional note."""

    def run(params: SuiteParams) -> list[SuiteReport]:
        reports = []
        for i, n in enumerate(params.ns or default_ns):
            f, alpha = build(n)
            label = render_radical(alpha.to_radical())
            gram = GramForm.from_element(alpha)
            note = notes.get(n) if notes else None
            reports.append(_length_report(params, case, i, f, label, gram, expected(n), note))
        return reports

    return run


def _alpha10_length(n: int) -> int:
    if n == 65:
        return 3  # corrected from the tabulated 5, see _NOTE_65
    return 7 if n <= 53 else 5


def _case_thm15(params: SuiteParams) -> list[SuiteReport]:
    reports = []
    bound = params.trace_bound
    for n in (2, 3, 5):
        f = make_field(Shape((n,)))
        t0 = perf_counter()
        lengths = []
        for alpha in totally_positive_elements(f, bound):
            res = element_length(alpha, 5)
            if isinstance(res, int):
                lengths.append(res)
        computed = f"max length {max(lengths)}"
        reports.append(
            SuiteReport(
                case="thm15",
                field=str(f.shape),
                input=f"all totally positive, trace <= {bound}",
                expected="max length 3",
                computed=computed,
                verdict="pass" if computed == "max length 3" else "fail",
                seconds=round(perf_counter() - t0, 3),
            )
        )
    for n in (6, 7):
        reports.append(_witness_report(params, n, 4, bound))
    found = None
    for n in params.five_fields:
        report = _witness_report(params, n, 5, bound)
        reports.append(report)
        if report.verdict == "pass":
            found = n
            break
    if found is None and params.five_fields:
        reports[-1].note = "no length-5 witness located; raise the trace bound"
    return reports


def _witness_report(params: SuiteParams, n: int, target: int, bound: int) -> SuiteReport:
    f = make_field(Shape((n,)))
    t0 = perf_counter()
    witness = None
    for alpha in totally_positive_elements(f, bound):
        if element_length(alpha, target + 1) == target:
            witness = alpha
            break
    if witness is not None:
        computed = f"length {target} at {render_radical(witness.to_radical())}"
        verdict = "pass"
    else:
        computed = f"no length-{target} element with trace <= {bound}"
        verdict = "fail"
    return SuiteReport(
        case="thm15",
        field=str(f.shape),
        input=f"scan for length-{target} witness, trace <= {bound}",
        expected=f"length-{target} witness exists",
        computed=computed,
        verdict=verdict,
        seconds=round(perf_counter() - t0, 3),
    )


def _random_rows(rng: random.Random, f: Field, rank: int, max_rows: int, bound: int):
    rows = []
    for _ in range(rng.randint(1, max_rows)):
        row = tuple(
            f.element_from_coords(
                tuple(rng.randint(-bound, bound) for _ in range(f.degree))
            )
            for _ in range(rank)
        )
        rows.append(row)
    return rows


def _case_perp_unit(params: SuiteParams) -> list[SuiteReport]:
    shapes = (Shape(()), Shape((5,)), Shape((6, 7)))
    reports = []
    for shape in shapes:
        f = make_field(shape)
        rng = random.Random(f"perp-unit:{shape}")
        t0 = perf_counter()
        failures = []
        count = 100
        for i in range(count):
            rank = rng.choice((1, 2))
            bound = 2 if f.degree == 1 else 1
            rows = _random_rows(rng, f, rank, 3, bound)
            gram = GramForm.from_rows(f, rows)
            t = length(gram, 10)
            assert isinstance(t, int), "forms built from rows are sums of squares"
            lifted = length(perp_unit(gram), t + 2)
            if lifted != t + 1:
                failures.append((i, t, lifted))
        computed = (
            f"{count - len(failures)}/{count} satisfied length+1"
            if failures
            else f"{count}/{count} satisfied length+1"
        )
        reports.append(
            SuiteReport(
                case="perp-unit",
                field=str(shape),
                input=f"count={count}, ranks 1-2, seeded",
                expected=f"{count}/{count} satisfied length+1",
                computed=computed,
                verdict="pass" if not failures else "fail",
                seconds=round(perf_counter() - t0, 3),
            )
        )
    return reports


def _case_lagrange(params: SuiteParams) -> list[SuiteReport]:
    bound = params.lagrange_bound
    f = make_field(Shape(()))
    t0 = perf_counter()
    oracle = four_square_oracle(bound)
    mismatches = 0
    worst = 0
    for k in range(bound + 1):
        got = element_length(f.element_from_coords((k,)), 4)
        if got != oracle[k]:
            mismatches += 1
        if isinstance(got, int):
            worst = max(worst, got)
        else:
            mismatches += 1
    computed = f"{mismatches} mismatches, max length {worst}"
    return [
        SuiteReport(
            case="lagrange",
            field="Q",
            input=f"0 <= k <= {bound}",
            expected="0 mismatches, max length 4",
            computed=computed,
            verdict="pass" if computed == "0 mismatches, max length 4" else "fail",
            seconds=round(perf_counter() - t0, 3),
        )
    ]


def _case_descent_roundtrip(params: SuiteParams) -> list[SuiteReport]:
    rng = random.Random("descent-roundtrip")
    field_shapes = (Shape((2,)), Shape((5,)), Shape((6,)))
    t0 = perf_counter()
    count = 50
    failures = []
    for i in range(count):
        f = make_field(field_shapes[i % len(field_shapes)])
        rank = rng.choice((1, 2))
        rows = _random_rows(rng, f, rank, 12, 1)
        gram = GramForm.from_rows(f, rows)
        cert_rows = tuple(r for r in rows if any(not v.is_zero() for v in r))
        cert = Certificate(f, rank, cert_rows)
        problem = descent_mod.DescentProblem(f, gram, cert)
        out = descent_mod.descend(problem)
        entry = g_table(2 * rank)
        assert isinstance(entry, Exact)
        if len(out.rows) > entry.value or not verify_certificate(gram, out).ok:
            failures.append(i)
    computed = f"{count - len(failures)}/{count} compressed and verified"
    return [
        SuiteReport(
            case="descent-roundtrip",
            field="Q(sqrt 2) / Q(sqrt 5) / Q(sqrt 6)",
            input=f"count={count}, ranks 1-2, rows <= 12, seeded",
            expected=f"{count}/{count} compressed and verified",
            computed=computed,
            verdict="pass" if not failures else "fail",
            seconds=round(perf_counter() - t0, 3),
        )
    ]


_CASES = {
    "lemma52": _case_lemma52,
    "prop53-direct": _case_prop53_direct,
    "prop53-alpha10": _element_case(
        "prop53-alpha10",
        _ALPHA10_NS,
        lambda n: binary_form_witness(10, n),
        _alpha10_length,
        {65: _NOTE_65},
    ),
    "prop53-alpha11": _element_case(
        "prop53-alpha11", _ALPHA11_NS, lambda n: binary_form_witness(11, n), lambda n: 7
    ),
    "peters": _element_case("peters", _PETERS_NS, seven_plus_half_square, lambda n: 5),
    "thm15": _case_thm15,
    "perp-unit": _case_perp_unit,
    "lagrange": _case_lagrange,
    "descent-roundtrip": _case_descent_roundtrip,
}
CASE_IDS = tuple(_CASES)


def run_suite(
    cases: list[str] | tuple[str, ...] | None = None,
    *,
    ns: tuple[int, ...] | None = None,
    trace_bound: int = 60,
    five_fields: tuple[int, ...] = (17,),
    lagrange_bound: int = 5000,
    cert_dir: str | Path | None = None,
) -> list[SuiteReport]:
    """Run the selected cases (all by default) and return ordered reports."""
    selected = list(cases) if cases else list(CASE_IDS)
    for case in selected:
        if case not in _CASES:
            raise ValueError(f"unknown suite case {case!r}; known: {', '.join(CASE_IDS)}")
    params = SuiteParams(
        ns=tuple(ns) if ns else None,
        trace_bound=trace_bound,
        five_fields=tuple(five_fields),
        lagrange_bound=lagrange_bound,
        cert_dir=Path(cert_dir) if cert_dir else None,
    )
    if params.cert_dir is not None:
        params.cert_dir.mkdir(parents=True, exist_ok=True)
    reports: list[SuiteReport] = []
    for case in selected:
        reports.extend(_CASES[case](params))
    return reports
