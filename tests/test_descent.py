"""Certificate compression through the rational integers."""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from soslen import descent
from soslen import (
    Certificate,
    CertificateInvalidError,
    DescentProblem,
    Exact,
    GramForm,
    Shape,
    TargetUnknownError,
    compress,
    descend,
    expand,
    g_table,
    length,
    lift,
    make_field,
    verify_certificate,
)

Q = make_field(Shape(()))
Q2 = make_field(Shape((2,)))


def problem_ten_ones():
    gram = GramForm.from_element(Q2.element_from_coords((10, 0)))
    cert = Certificate(Q2, 1, tuple((Q2.one(),) for _ in range(10)))
    return DescentProblem(Q2, gram, cert)


def problem_shifted_square():
    gram = GramForm.from_element(Q2.element_from_coords((4, 2)))
    cert = Certificate(
        Q2, 1, ((Q2.element_from_coords((1, 1)),), (Q2.one(),))
    )
    return DescentProblem(Q2, gram, cert)


class TestExpand:
    def test_ten_ones(self):
        e = expand(problem_ten_ones())
        assert e.zgram == ((10, 0), (0, 0))

    def test_shifted_square(self):
        e = expand(problem_shifted_square())
        assert e.zgram == ((2, 1), (1, 1))

    def test_rational_identity_descent(self):
        gram = GramForm.from_element(Q.element_from_coords((9,)))
        cert = Certificate(Q, 1, ((Q.element_from_coords((3,)),),))
        e = expand(DescentProblem(Q, gram, cert))
        assert e.zgram == ((9,),)

    def test_expansion_reproduces_gram_randomized(self):
        rng = random.Random(53)
        for shape in (Shape((2,)), Shape((5,)), Shape((6, 7))):
            f = make_field(shape)
            for _ in range(10):
                r = rng.choice((1, 2))
                rows = [
                    tuple(
                        f.element_from_coords(
                            tuple(rng.randint(-2, 2) for _ in range(f.degree))
                        )
                        for _ in range(r)
                    )
                    for _ in range(rng.randint(1, 4))
                ]
                rows = [row for row in rows if any(not v.is_zero() for v in row)]
                if not rows:
                    continue
                gram = GramForm.from_rows(f, rows)
                problem = DescentProblem(f, gram, Certificate(f, r, tuple(rows)))
                e = expand(problem)
                # V: one line per certificate row, its coordinates stacked
                v = tuple(tuple(c for x in row for c in x.coords) for row in rows)
                rd = r * f.degree
                vtv = tuple(
                    tuple(sum(line[p] * line[q] for line in v) for q in range(rd))
                    for p in range(rd)
                )
                assert e.zgram == vtv
                assert lift(v, e, f).rows == tuple(rows)
                out = descend(problem, target=len(rows))
                assert verify_certificate(gram, out).ok


class TestCompressAndLift:
    def test_compress_drops_zero_columns(self):
        e = expand(problem_ten_ones())
        w = compress(e, 5)
        assert all(row[1] == 0 for row in w)
        total = sum(row[0] * row[0] for row in w)
        assert total == 10 and len(w) <= 5

    def test_compress_binary(self):
        e = expand(problem_shifted_square())
        w = compress(e, 5)
        for p in range(2):
            for q in range(2):
                assert sum(row[p] * row[q] for row in w) == e.zgram[p][q]

    def test_lift_roundtrip(self):
        p = problem_shifted_square()
        e = expand(p)
        w = compress(e, 5)
        out = lift(w, e, Q2)
        assert verify_certificate(p.gram, out).ok

    def test_zero_certificate(self):
        gram = GramForm.zero(Q2, 1)
        cert = Certificate(Q2, 1, ())
        out = descend(DescentProblem(Q2, gram, cert))
        assert len(out.rows) == 0


class TestDescend:
    def test_ten_ones_compresses_to_at_most_five(self):
        p = problem_ten_ones()
        out = descend(p)
        assert len(out.rows) <= 5
        assert verify_certificate(p.gram, out).ok

    def test_idempotence_on_short_inputs(self):
        p = problem_shifted_square()
        out = descend(p)
        assert len(out.rows) <= len(p.input_cert.rows)
        assert verify_certificate(p.gram, out).ok

    def test_rational_rank1_bound_four(self):
        gram = GramForm.from_element(Q.element_from_coords((30,)))
        rows = tuple((Q.element_from_coords((1,)),) for _ in range(30))
        out = descend(DescentProblem(Q, gram, Certificate(Q, 1, rows)))
        assert len(out.rows) <= 4
        assert verify_certificate(gram, out).ok

    def test_unknown_target_needs_explicit_value(self):
        f = make_field(Shape((6, 7)))
        rows = [(f.one(), f.zero()), (f.zero(), f.one())]
        gram = GramForm.from_rows(f, rows)
        cert = Certificate(f, 2, tuple(rows))
        problem = DescentProblem(f, gram, cert)
        with pytest.raises(TargetUnknownError):
            descend(problem)  # rank*degree = 8 has only an upper bound
        out = descend(problem, target=10)
        assert verify_certificate(gram, out).ok

    def test_randomized_roundtrip_with_bound(self):
        rng = random.Random(59)
        shapes = (Shape((2,)), Shape((5,)), Shape((6,)))
        for i in range(25):
            f = make_field(shapes[i % 3])
            r = rng.choice((1, 2))
            rows = [
                tuple(
                    f.element_from_coords(
                        tuple(rng.randint(-1, 1) for _ in range(2))
                    )
                    for _ in range(r)
                )
                for _ in range(rng.randint(1, 12))
            ]
            rows = [row for row in rows if any(not v.is_zero() for v in row)]
            gram = GramForm.from_rows(f, rows) if rows else GramForm.zero(f, r)
            cert = Certificate(f, r, tuple(rows))
            out = descend(DescentProblem(f, gram, cert))
            entry = g_table(2 * r)
            assert isinstance(entry, Exact)
            assert len(out.rows) <= entry.value
            assert len(out.rows) <= max(len(rows), 0) or not rows
            assert verify_certificate(gram, out).ok


class TestDescendContract:
    """descend verifies only the certificate it returns; the input is
    checked again only to name a failure."""

    @staticmethod
    def seven_ones_for_eight():
        gram = GramForm.from_element(Q.element_from_coords((8,)))
        cert = Certificate(Q, 1, tuple((Q.one(),) for _ in range(7)))
        return DescentProblem(Q, gram, cert)

    @pytest.mark.parametrize("target", [None, 3], ids=["table", "below-rows"])
    def test_gram_mismatch_is_invalid_at_any_target(self, target):
        # 7 = 4 + 1 + 1 + 1 compresses at the table target 4, not at 3
        p = self.seven_ones_for_eight()
        with pytest.raises(CertificateInvalidError) as err:
            descend(p, target=target)
        reason = verify_certificate(p.gram, p.input_cert).reason
        assert reason == "gram-mismatch:0,0" and str(err.value) == reason

    @pytest.mark.parametrize(
        "gram, cert",
        [
            (GramForm.zero(Q, 2), Certificate(Q, 1, ((Q.one(),),))),
            (GramForm.zero(Q2, 1), Certificate(Q, 1, ((Q.one(),),))),
        ],
        ids=["rank", "field"],
    )
    def test_mismatch_is_invalid_before_expand(self, monkeypatch, gram, cert):
        def no_expand(problem):
            raise AssertionError("expand ran")

        monkeypatch.setattr(descent, "expand", no_expand)
        with pytest.raises(CertificateInvalidError) as err:
            descend(DescentProblem(gram.field, gram, cert))
        assert str(err.value) == verify_certificate(gram, cert).reason

    def test_unsound_lift_is_an_internal_error(self, monkeypatch):
        lift_ok = descent.lift

        def bumped(w, e, field):
            w = ((w[0][0] + 1,) + w[0][1:],) + w[1:]
            return lift_ok(w, e, field)

        monkeypatch.setattr(descent, "lift", bumped)
        with pytest.raises(AssertionError, match="lifted certificate"):
            descend(problem_ten_ones())

    def test_valid_input_is_verified_once(self, monkeypatch):
        calls = []

        def counted(gram, cert):
            calls.append(cert)
            return verify_certificate(gram, cert)

        monkeypatch.setattr(descent, "verify_certificate", counted)
        out = descend(problem_ten_ones())
        assert calls == [out]


    def test_internal_checks_survive_optimize(self):
        # python -O strips assert statements; a rejected expansion and a
        # result above the target must still raise from descend
        code = (
            "from soslen import Certificate, DescentProblem, GramForm, NotSoS, Shape\n"
            "from soslen import descend, descent, make_field\n"
            "Q = make_field(Shape(()))\n"
            "gram = GramForm.from_element(Q.element_from_coords((3,)))\n"
            "p = DescentProblem(Q, gram, Certificate(Q, 1, ((Q.one(),),) * 3))\n"
            "compress = descent.compress\n"
            "patches = [\n"
            "    ('represent', lambda gram, budget: NotSoS('not-totally-psd')),\n"
            "    ('compress', lambda e, target: compress(e, 3)),\n"
            "]\n"
            "for name, patch in patches:\n"
            "    original = getattr(descent, name)\n"
            "    setattr(descent, name, patch)\n"
            "    try:\n"
            "        print(descend(p, target=1))\n"
            "    except AssertionError as exc:\n"
            "        print('raised', exc)\n"
            "    setattr(descent, name, original)\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
        proc = subprocess.run(
            [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == (
            "raised expanded Gram rejected: NotSoS(reason='not-totally-psd')\n"
            "raised 3 rows exceed the target 1\n"
        ), proc.stdout


class TestGTable:
    def test_exact_values(self):
        assert g_table(1) == Exact(4)
        assert g_table(2) == Exact(5)
        assert g_table(6) == Exact(10)

    def test_bounds_and_unknown(self):
        from soslen import Unknown, UpperBound

        assert g_table(8) == UpperBound(37)
        assert g_table(10) == UpperBound(68)
        assert g_table(7) == Unknown()
        assert g_table(11) == Unknown()

    def test_invalid_rank(self):
        with pytest.raises(ValueError):
            g_table(0)


class TestPaperBound:
    """The bound g_O(r) <= g_Z(rd) on seeded Grams G = sum of vv^T with
    rd <= 6, where g_Z is exact: the length of G is found within g_Z(rd),
    and it is at most the size of the certificate that `descend` makes from
    the input rows, which is at most g_Z(rd)."""

    @pytest.mark.parametrize(
        "radicands, top_rank", [((), 4), ((5,), 3), ((6,), 2), ((6, 7), 1), ((13, 15), 1)], ids=str
    )
    def test_length_within_the_descended_certificate(self, radicands, top_rank):
        field = make_field(Shape(radicands))
        d = field.degree
        rng = random.Random(f"paper-bound:{radicands}")
        spread = 2 if d == 1 else 1
        for i in range(15):
            rank = 1 + i * top_rank // 15
            bound = g_table(rank * d).value
            # up to two rows more than the bound, none of them zero
            count = rng.randint(1, bound + 2)
            rows = []
            while len(rows) < count:
                row = tuple(
                    field.element_from_coords(tuple(rng.randint(-spread, spread) for _ in range(d)))
                    for _ in range(rank)
                )
                if any(not v.is_zero() for v in row):
                    rows.append(row)
            gram = GramForm.from_rows(field, rows)
            t = length(gram, bound)
            assert isinstance(t, int), (rows, t)
            out = descend(DescentProblem(field, gram, Certificate(field, rank, tuple(rows))))
            assert verify_certificate(gram, out).ok
            assert t <= len(out.rows) <= bound, (rows, t, len(out.rows))
