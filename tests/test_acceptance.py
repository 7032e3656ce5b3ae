"""Acceptance gate: the target values, each re-derived by exhaustive search.

All arithmetic is exact, so every criterion asserts exact equalities or
exhaustive-search verdicts; the printed wall times are informational only.
Run with `pytest -s tests/test_acceptance.py` to see one line per criterion.

Criterion 3 corrects one tabulated value.  Over Q(sqrt 10, sqrt 65) the
table gives length 5, but the radicands share the factor 5, so
sqrt(26) = sqrt(650)/5 is an algebraic integer outside the customary module
(1, sqrt 10, (1+sqrt 65)/2, sqrt 10 (1+sqrt 65)/2), an index-5 suborder.
Over the verified maximal order the element has length 3.  The test asserts
3 and carries the proof: a pinned 3-square witness checked by exact
arithmetic, and an Unsat at budget 2 from both the ordered and the
unordered reference search.
"""

import os
import random
import time
from fractions import Fraction as F

import pytest

from soslen import (
    Certificate,
    GramForm,
    Radical,
    Represented,
    Shape,
    Unsat,
    document_from_certificate,
    emit_certificate,
    from_literal_coords,
    make_field,
    parse_certificate,
    render_radical,
    represent,
    run_suite,
    verify_certificate,
    verify_document,
)
from soslen.fields import characteristic_polynomial
from soslen.suite import (
    binary_form_witness,
    length_seven_binary_form,
    seven_plus_half_square,
)
from reference_search import reference_represent


def announce(name: str, ok: bool, t0: float, detail: str = "") -> None:
    state = "PASS" if ok else "FAIL"
    print(f"{state} {name} ({time.perf_counter() - t0:.1f}s) {detail}".rstrip())


def dual_check(gram: GramForm, expected: int) -> None:
    """Unsatisfiable one below the expected length, representable at it."""
    below = represent(gram, expected - 1)
    assert isinstance(below, Unsat), f"expected Unsat at {expected - 1}, got {below}"
    at = represent(gram, expected)
    assert isinstance(at, Represented), f"expected Represented at {expected}, got {at}"
    assert verify_certificate(gram, at.certificate).ok


def test_criterion_1_quartic_pythagoras_witnesses():
    t0 = time.perf_counter()
    witnesses = (
        ((6, 7), (43, 1, -8, 1)),
        ((13, 15), (114, 15, 20, 6)),
    )
    try:
        for (m, n), coords in witnesses:
            f = make_field(Shape((m, n)))
            alpha = f.element(from_literal_coords(f.shape, tuple(F(c) for c in coords)))
            dual_check(GramForm.from_element(alpha), 7)
    except AssertionError:
        announce("criterion-1 quartic-length-seven", False, t0)
        raise
    announce("criterion-1 quartic-length-seven", True, t0)


def test_criterion_2_binary_form_base_set():
    t0 = time.perf_counter()
    try:
        for n in (17, 21, 29):
            _, gram = length_seven_binary_form(n)
            dual_check(gram, 7)
    except AssertionError:
        announce("criterion-2 binary-form-length-seven", False, t0)
        raise
    announce("criterion-2 binary-form-length-seven", True, t0)


@pytest.mark.skipif(
    not os.environ.get("SOSLEN_EXTENDED"),
    reason="extended sweep (17 <= n <= 101) is enabled by SOSLEN_EXTENDED=1",
)
def test_criterion_2_binary_form_extended():
    from soslen import extended_direct_ns

    t0 = time.perf_counter()
    for n in extended_direct_ns():
        _, gram = length_seven_binary_form(n)
        dual_check(gram, 7)
    announce("criterion-2-extended binary-form-length-seven", True, t0)


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
    assert isinstance(below, Unsat), f"reference search found {below}"


def test_criterion_3_biquadratic_witness_lengths():
    t0 = time.perf_counter()
    expectations = [(10, n, 7) for n in (17, 21, 29, 33, 37, 41, 53)]
    expectations += [(10, n, 5) for n in (57, 61)]
    expectations += [(10, 65, 3)]  # the table gives 5; see the module docstring
    expectations += [(11, n, 7) for n in (57, 61, 65)]
    # the suite cases compute the lengths; this table, not the suite's own
    # expectations, is what they are held to
    reports = run_suite(["prop53-alpha10", "prop53-alpha11"])
    assert len(reports) == len(expectations)
    mismatches = []
    for (m, n, expected), report in zip(expectations, reports):
        f, alpha = binary_form_witness(m, n)
        subject = (str(f.shape), render_radical(alpha.to_radical()))
        if (
            (report.field, report.input) != subject
            or report.computed != str(expected)
            or report.verdict != "pass"
        ):
            mismatches.append((m, n, expected, report.computed))
    try:
        assert not mismatches, (
            f"expected lengths not reproduced: {mismatches}; for (10, 65) the "
            "expectation is the proven length 3 over the maximal order, where "
            "sqrt(26) is integral, not the tabulated 5"
        )
        check_alpha_10_65_has_length_three()
    except AssertionError:
        announce(
            "criterion-3 biquadratic-witnesses", False, t0,
            detail=f"mismatches: {mismatches}" if mismatches else "(10, 65) proof",
        )
        raise
    announce("criterion-3 biquadratic-witnesses", True, t0)


def test_criterion_4_five_square_elements():
    t0 = time.perf_counter()
    try:
        for n in (17, 29, 33):
            _, alpha = seven_plus_half_square(n)
            dual_check(GramForm.from_element(alpha), 5)
    except AssertionError:
        announce("criterion-4 five-square-elements", False, t0)
        raise
    announce("criterion-4 five-square-elements", True, t0)


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
