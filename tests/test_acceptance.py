"""Acceptance gate: the target values, each re-derived by exhaustive search.

All arithmetic is exact, so every criterion asserts exact equalities or
exhaustive-search verdicts; the printed wall times are informational only.
Run with `pytest -s tests/test_acceptance.py` to see one line per criterion.

Criteria 1, 2, 3 and 4 run the length cases of `soslen.suite` and hold each
report's field, input and computed length to the tables below, not to the
suite's own expectations.  Each length comes from `length_certificate`,
which searches every budget from a sound lower bound upward, so a reported
length is an exhaustive `ExceedsBound` below it plus an exactly verified witness at
it.

Criterion 3 corrects one tabulated value.  Over Q(sqrt 10, sqrt 65) the
table gives length 5, but the radicands share the factor 5, so
sqrt(26) = sqrt(650)/5 is an algebraic integer outside the customary module
(1, sqrt 10, (1+sqrt 65)/2, sqrt 10 (1+sqrt 65)/2), an index-5 suborder.
Over the verified maximal order the element has length 3.  The test asserts
3 and carries the proof: a pinned 3-square witness checked by exact
arithmetic, and `ExceedsBound` at budget 2 from both the ordered and the
unordered reference search.
"""

import os
import random
import time
from fractions import Fraction as F

import pytest

from soslen import (
    Certificate,
    ExceedsBound,
    GramForm,
    Radical,
    Represented,
    Shape,
    document_from_certificate,
    emit_certificate,
    extended_direct_ns,
    make_field,
    parse_certificate,
    render_radical,
    represent,
    run_suite,
    verify_certificate,
    verify_document,
)
from soslen.suite import binary_form_witness
from reference_search import characteristic_polynomial, reference_represent


def announce(name: str, ok: bool, t0: float, detail: str = "") -> None:
    state = "PASS" if ok else "FAIL"
    print(f"{state} {name} ({time.perf_counter() - t0:.1f}s) {detail}".rstrip())


def mismatches(reports, table) -> list:
    """Reports whose (field, input, computed) differ from the table's row,
    or whose verdict is not a pass."""
    got = [(r.field, r.input, r.computed, r.verdict) for r in reports]
    want = [(*row, "pass") for row in table]
    if len(got) != len(want):
        return [("report count", len(want), len(got))]
    return [(w, g) for w, g in zip(want, got) if w != g]


def check_suite(name: str, cases: list[str], table, ns=None) -> None:
    t0 = time.perf_counter()
    bad = mismatches(run_suite(cases, ns=ns), table)
    announce(name, not bad, t0, detail=f"mismatches: {bad}" if bad else "")
    assert not bad, bad


# (field, input, length) of the suite reports behind criteria 1, 2 and 4
QUARTIC_LENGTH_SEVEN = (
    ("Q(sqrt 6, sqrt 7)", "43 + 1*sqrt(6) + -8*sqrt(7) + 1*sqrt(42)", "7"),
    ("Q(sqrt 13, sqrt 15)", "114 + 15*sqrt(13) + 20*sqrt(15) + 6*sqrt(195)", "7"),
)
FIVE_SQUARE_ELEMENTS = (
    ("Q(sqrt 17)", "23/2 + 1/2*sqrt(17)", "5"),
    ("Q(sqrt 29)", "29/2 + 1/2*sqrt(29)", "5"),
    ("Q(sqrt 33)", "31/2 + 1/2*sqrt(33)", "5"),
)


def binary_form_length_seven(ns) -> list:
    """Rows for the binary forms with Gram entries A = (3n+77+26 sqrt n)/2,
    B/2 = (10+n+7 sqrt n)/2 and C = (n+5+2 sqrt n)/4."""
    return [
        (
            f"Q(sqrt {n})",
            f"{F(3 * n + 77, 2)} + 13*sqrt({n}); {F(10 + n, 2)} + 7/2*sqrt({n}); "
            f"{F(n + 5, 4)} + 1/2*sqrt({n})",
            "7",
        )
        for n in ns
    ]


def test_criterion_1_quartic_pythagoras_witnesses():
    check_suite("criterion-1 quartic-length-seven", ["lemma52"], QUARTIC_LENGTH_SEVEN)


def test_criterion_2_binary_form_base_set():
    check_suite(
        "criterion-2 binary-form-length-seven",
        ["prop53-direct"],
        binary_form_length_seven((17, 21, 29)),
    )


@pytest.mark.skipif(
    not os.environ.get("SOSLEN_EXTENDED"),
    reason="extended sweep (17 <= n <= 101) is enabled by SOSLEN_EXTENDED=1",
)
def test_criterion_2_binary_form_extended():
    ns = extended_direct_ns()
    check_suite(
        "criterion-2-extended binary-form-length-seven",
        ["prop53-direct"],
        binary_form_length_seven(ns),
        ns=ns,
    )


# A 3-square witness for binary_form_witness(10, 65), that is for
# 311 + 75 sqrt 10 + 18 sqrt 65 + 35 sqrt 26: coordinates over
# (1, sqrt 10, sqrt 65, sqrt 26), each with its characteristic polynomial
# (constant term first).  None lies in the customary index-5 suborder.
ALPHA_10_65_WITNESS = (
    ((F(13, 2), F(9, 2), F(1, 2), F(1, 2)), (22244, 3588, -197, -26, 1)),
    ((F(1, 2), F(1, 2), F(1, 2), F(1, 2)), (40, -80, -49, -2, 1)),
    ((F(3), F(1, 2), F(0), F(1, 2)), (-65, 0, 36, -12, 1)),
)


def check_alpha_10_65_has_length_three() -> None:
    """Length 3 at (10, 65), proved apart from element_length: the pinned
    witness is integral and exact, and the unordered reference search finds
    no 2-square representation."""
    f, alpha = binary_form_witness(10, 65)
    squares = Radical.zero(f.shape)
    rows = []
    for coords, charpoly in ALPHA_10_65_WITNESS:
        w = Radical(f.shape, coords)
        # a monic integer polynomial with root w makes w an algebraic integer
        assert tuple(characteristic_polynomial(w)) == charpoly, (coords, charpoly)
        at_w = Radical.zero(f.shape)
        for c in reversed(charpoly):
            at_w = at_w * w + Radical.from_rational(f.shape, c)
        assert at_w.is_zero(), (coords, charpoly)
        squares = squares + w * w
        rows.append((f.element(w),))
    assert squares == alpha.to_radical(), squares
    gram = GramForm.from_element(alpha)
    assert verify_certificate(gram, Certificate(f, 1, tuple(rows))).ok
    below = reference_represent(gram, 2)
    assert below == ExceedsBound(2), f"reference search found {below}"


def test_criterion_3_biquadratic_witness_lengths():
    t0 = time.perf_counter()
    expectations = [(10, n, 7) for n in (17, 21, 29, 33, 37, 41, 53)]
    expectations += [(10, n, 5) for n in (57, 61)]
    expectations += [(10, 65, 3)]  # the table gives 5; see the module docstring
    expectations += [(11, n, 7) for n in (57, 61, 65)]
    table = []
    for m, n, expected in expectations:
        f, alpha = binary_form_witness(m, n)
        table.append((str(f.shape), render_radical(alpha.to_radical()), str(expected)))
    bad = mismatches(run_suite(["prop53-alpha10", "prop53-alpha11"]), table)
    try:
        assert not bad, (
            f"expected lengths not reproduced: {bad}; for (10, 65) the "
            "expectation is the proven length 3 over the maximal order, where "
            "sqrt(26) is integral, not the tabulated 5"
        )
        check_alpha_10_65_has_length_three()
    except AssertionError:
        announce(
            "criterion-3 biquadratic-witnesses", False, t0,
            detail=f"mismatches: {bad}" if bad else "(10, 65) proof",
        )
        raise
    announce("criterion-3 biquadratic-witnesses", True, t0)


def test_criterion_4_five_square_elements():
    check_suite("criterion-4 five-square-elements", ["peters"], FIVE_SQUARE_ELEMENTS)


def test_criterion_5_quadratic_pythagoras_spot_checks():
    t0 = time.perf_counter()
    reports = run_suite(["thm15"])
    bad = [r for r in reports if r.verdict != "pass"]
    announce(
        "criterion-5 quadratic-pythagoras", not bad, t0,
        detail="" if not bad else f"failures: {[(r.field, r.computed) for r in bad]}",
    )
    assert not bad


def test_criterion_6_four_square_oracle_equivalence():
    t0 = time.perf_counter()
    # the suite case compares element_length(k, 4) with four_square_oracle
    (report,) = run_suite(["lagrange"])
    ok = (
        report.verdict == "pass"
        and report.input == "0 <= k <= 5000"
        and report.computed == "0 mismatches, max length 4"
    )
    announce("criterion-6 four-square-oracle", ok, t0, detail="" if ok else report.computed)
    assert ok, report


def test_criterion_7_unit_block_increments_length():
    t0 = time.perf_counter()
    reports = run_suite(["perp-unit"])
    bad = [r for r in reports if r.verdict != "pass"]
    announce("criterion-7 unit-block-increment", not bad, t0)
    assert not bad


def test_criterion_8_integer_certificates_within_table_bound():
    t0 = time.perf_counter()
    rng = random.Random("integer-table-sanity")
    f = make_field(Shape(()))
    for _ in range(200):
        r = rng.choice((1, 2, 3))
        rows = [
            tuple(f.element_from_coords((rng.randint(-3, 3),)) for _ in range(r))
            for _ in range(rng.randint(1, 10))
        ]
        gram = GramForm.from_rows(f, rows)
        out = represent(gram, r + 3)
        assert isinstance(out, Represented), (r, rows)
        assert verify_certificate(gram, out.certificate).ok
    announce("criterion-8 integer-table-sanity", True, t0)


def test_criterion_9_descent_roundtrip():
    t0 = time.perf_counter()
    reports = run_suite(["descent-roundtrip"])
    bad = [r for r in reports if r.verdict != "pass"]
    announce("criterion-9 descent-roundtrip", not bad, t0)
    assert not bad


def test_criterion_10_certificate_format(tmp_path):
    t0 = time.perf_counter()
    rng = random.Random("certificate-format")
    fields = [make_field(s) for s in (Shape(()), Shape((2,)), Shape((17,)), Shape((6, 7)))]
    for _ in range(1000):
        f = fields[rng.randint(0, 3)]
        r = rng.choice((1, 2))
        rows = [
            tuple(
                f.element_from_coords(
                    tuple(rng.randint(-9, 9) for _ in range(f.degree))
                )
                for _ in range(r)
            )
            for _ in range(rng.randint(1, 5))
        ]
        rows = [row for row in rows if any(not v.is_zero() for v in row)]
        gram = GramForm.from_rows(f, rows) if rows else GramForm.zero(f, r)
        doc = document_from_certificate(gram, Certificate(f, r, tuple(rows)))
        text = emit_certificate(doc)
        assert emit_certificate(parse_certificate(text)) == text
    reports = run_suite(["lemma52", "peters"], cert_dir=tmp_path)
    emitted = [r.certificate for r in reports if r.certificate]
    assert emitted
    for path in emitted:
        with open(path) as handle:
            doc = parse_certificate(handle.read())
        assert verify_document(doc).ok
    announce("criterion-10 certificate-format", True, t0)
