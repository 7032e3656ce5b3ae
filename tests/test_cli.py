"""End-to-end command-line interface behaviour and exit codes."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from soslen.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestFieldInfo:
    def test_biquadratic(self, capsys):
        code, out, _ = run(capsys, "field", "info", "Q(sqrt 10, sqrt 17)")
        assert code == 0
        assert "degree: 4" in out
        assert "discriminant: 462400" in out
        assert "1/2 + 0*sqrt(10) + 1/2*sqrt(17) + 0*sqrt(170)" in out

    def test_bad_descriptor(self, capsys):
        # an oversized radicand is refused before its squarefree test
        for text in ("Q(sqrt 12)", "Q(sqrt 1000000000000000000000000000057)"):
            start = time.perf_counter()
            code, _, err = run(capsys, "field", "info", text)
            assert time.perf_counter() - start < 2, text
            assert code == 2, text
            assert "input error" in err, text

    def test_digits_in_other_scripts_are_input_errors(self, capsys):
        # int() reads \u0666 as 6 and \u0663 as 3; the grammar is ASCII digits
        for argv in (
            ("field", "info", "Q(sqrt \u0666)"),
            ("elem", "length", "Q(sqrt 6)", "--coords", "\u0663,1"),
            ("form", "length", "Q", "--gram", "\u0663"),
        ):
            code, out, err = run(capsys, *argv)
            assert code == 2 and out == "", argv
            assert err.startswith("input error: "), argv


class TestElemLength:
    def test_quartic_witness(self, capsys):
        code, out, _ = run(
            capsys,
            "elem", "length", "Q(sqrt 6, sqrt 7)",
            "--coords", "43,1,-8,1", "--max-squares", "8",
        )
        assert code == 0 and "length: 7" in out

    def test_non_integral_input(self, capsys):
        code, _, err = run(
            capsys, "elem", "length", "Q(sqrt 17)", "--coords", "1/2,1"
        )
        assert code == 2

    @pytest.mark.parametrize("coords", ["1e3000000", "1e1000000000"])
    def test_exponent_is_an_input_error_at_once(self, capsys, coords):
        # Fraction("1e3000000") would expand the power before failing
        for argv in (
            ("elem", "length", "Q", "--coords", coords),
            ("form", "length", "Q", "--gram", f"1;0;{coords}"),
        ):
            start = time.perf_counter()
            code, out, err = run(capsys, *argv)
            assert time.perf_counter() - start < 1, argv
            assert code == 2 and out == "", argv
            assert err == f"input error: bad coordinate list {coords!r}: malformed coordinate {coords!r}\n"

    @pytest.mark.parametrize("text", ["7\t", "7\n", "\t7", "7,\t1"])
    def test_whitespace_other_than_spaces_is_an_input_error(self, capsys, text):
        # certificate entries refuse it too; only spaces are ignored
        for argv in (
            ("elem", "length", "Q(sqrt 5)" if "," in text else "Q", "--coords", text),
            ("form", "length", "Q", "--gram", text.replace(",", ";0;")),
        ):
            code, out, err = run(capsys, *argv)
            assert code == 2 and out == "", argv
            assert err.startswith("input error: bad coordinate list "), argv

    def test_spaces_around_a_coordinate_are_ignored(self, capsys):
        for argv in (
            ("elem", "length", "Q", "--coords", " 7 "),
            ("form", "length", "Q", "--gram", " 7 "),
        ):
            code, out, _ = run(capsys, *argv)
            assert code == 0 and out == "length: 4\n", argv

    def test_not_sos(self, capsys):
        code, out, _ = run(
            capsys, "elem", "length", "Q(sqrt 6)", "--coords", "1,1"
        )
        assert code == 1 and "not a sum of squares" in out

    def test_exceeds_bound(self, capsys):
        code, out, _ = run(
            capsys, "elem", "length", "Q", "--coords", "7", "--max-squares", "3"
        )
        assert code == 1 and "exceeds 3" in out

    def test_huge_bound_returns_promptly(self, capsys):
        start = time.perf_counter()
        code, out, _ = run(
            capsys,
            "elem", "length", "Q(sqrt 6)", "--coords", "30,1",
            "--max-squares", "1000000000",
        )
        assert time.perf_counter() - start < 2
        assert code == 1 and "exceeds 1000000000" in out

    def test_certificate_output(self, capsys, tmp_path):
        path = tmp_path / "cert.json"
        code, out, _ = run(
            capsys,
            "elem", "length", "Q", "--coords", "10", "--cert-out", str(path),
        )
        assert code == 0
        code2, out2, _ = run(capsys, "verify", "--cert-in", str(path))
        assert code2 == 0 and "verified" in out2


class TestFormCommands:
    def test_form_length(self, capsys):
        code, out, _ = run(
            capsys,
            "form", "length", "Q", "--gram", "2;1;1", "--max-squares", "5",
        )
        assert code == 0 and "length: 2" in out

    def test_form_represent_yes(self, capsys):
        code, out, _ = run(
            capsys, "form", "represent", "Q", "--gram", "1;0;1", "--squares", "2"
        )
        assert code == 0 and "represented with 2 squares" in out

    def test_form_represent_no(self, capsys):
        code, out, _ = run(
            capsys, "form", "represent", "Q", "--gram", "7", "--squares", "3"
        )
        assert code == 1 and out == "no representation with at most 3 squares\n"

    def test_form_not_psd(self, capsys):
        code, out, _ = run(
            capsys, "form", "represent", "Q", "--gram", "1;2;1", "--squares", "4"
        )
        assert code == 1 and out == "not totally positive semidefinite\n"

    def test_form_not_integral(self, capsys):
        # 1/2 off the diagonal: 2G is integral, G is not
        code, out, _ = run(capsys, "form", "length", "Q", "--gram", "1;1/2;1")
        assert code == 1 and "not a sum of squares (not-integral)" in out
        code, out, _ = run(
            capsys, "form", "represent", "Q", "--gram", "1;1/2;1", "--squares", "3"
        )
        assert code == 1 and out == "gram matrix has entries outside the ring of integers\n"

    def test_oversized_search_is_undecided(self, capsys):
        # exit 1 would claim a verified negative; the cap decides nothing
        for argv in (
            ("form", "length", "Q", "--gram", "1000000;0;1000000"),
            # the coordinate box is refused before it is scanned
            ("elem", "length", "Q(sqrt 6, sqrt 7)", "--coords", "1000000,0,0,0"),
        ):
            start = time.perf_counter()
            code, out, err = run(capsys, *argv)
            assert time.perf_counter() - start < 2, argv
            assert code == 4, argv
            assert out == ""
            assert err.startswith("undecided: ") and err.count("\n") == 1

    def test_bad_triangle(self, capsys):
        code, _, err = run(
            capsys, "form", "length", "Q", "--gram", "1;2", "--max-squares", "4"
        )
        assert code == 2

    @pytest.mark.parametrize("gram", ["2;1;;2", "1;;2;3", "2;1;2;"])
    def test_empty_gram_entry(self, capsys, gram):
        # a dropped entry would shift the later ones into other positions
        code, out, err = run(capsys, "form", "length", "Q", "--gram", gram)
        assert code == 2 and out == ""
        assert err.startswith("input error: empty entry")


class TestDescendVerify:
    def test_descend_pipeline(self, capsys, tmp_path):
        path = tmp_path / "in.json"
        path.write_text(
            '{"field":"Q(sqrt 2)","format_version":1,"gram":["10 + 0*sqrt(2)"],'
            '"rows":[["1 + 0*sqrt(2)"],["1 + 0*sqrt(2)"],["1 + 0*sqrt(2)"],'
            '["1 + 0*sqrt(2)"],["1 + 0*sqrt(2)"],["1 + 0*sqrt(2)"],'
            '["1 + 0*sqrt(2)"],["1 + 0*sqrt(2)"],["1 + 0*sqrt(2)"],'
            '["1 + 0*sqrt(2)"]]}\n'
        )
        code, out, _ = run(capsys, "descend", "--cert-in", str(path))
        assert code == 0
        payload = json.loads(out)
        assert len(payload["rows"]) <= 5
        out_path = tmp_path / "out.json"
        out_path.write_text(out)
        code2, out2, _ = run(capsys, "verify", "--cert-in", str(out_path))
        assert code2 == 0

    def test_descend_below_length_is_a_verdict(self, capsys, tmp_path):
        # 7 has length 4 over Z, so no compression reaches one row
        path = tmp_path / "seven.json"
        code, _, _ = run(
            capsys, "elem", "length", "Q", "--coords", "7", "--cert-out", str(path)
        )
        assert code == 0
        code, out, err = run(capsys, "descend", "--cert-in", str(path), "--target", "1")
        assert code == 1 and "not compressible" in out and not err

    def test_descend_rejects_bad_certificate(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            '{"field":"Q","format_version":1,"gram":["2"],"rows":[["3"]]}\n'
        )
        code, out, _ = run(capsys, "descend", "--cert-in", str(path))
        assert code == 1 and "does not verify" in out

    def test_verify_schema_error(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{}")
        code, _, err = run(capsys, "verify", "--cert-in", str(path))
        assert code == 2

    def test_verify_missing_file(self, capsys):
        code, _, err = run(capsys, "verify", "--cert-in", "/nonexistent.json")
        assert code == 2

    def test_directory_as_cert_out_is_input_error(self, capsys, tmp_path):
        # exit 1 would claim the length was checked and found false
        code, out, err = run(
            capsys,
            "elem", "length", "Q(sqrt 6, sqrt 7)", "--coords", "43,1,-8,1",
            "--cert-out", str(tmp_path),
        )
        assert code == 2 and out == ""
        assert err.startswith("input error: ") and err.count("\n") == 1
        assert "Traceback" not in out + err

    @pytest.mark.parametrize("kind", ["directory", "missing parent"])
    @pytest.mark.parametrize(
        "argv",
        [
            ("elem", "length", "Q(sqrt 6, sqrt 7)", "--coords", "43,1,-8,1"),
            ("form", "length", "Q", "--gram", "2;1;1"),
        ],
        ids=["elem", "form"],
    )
    def test_bad_cert_out_is_refused_before_the_search(
        self, capsys, tmp_path, monkeypatch, kind, argv
    ):
        def no_search(*args):
            raise AssertionError("searched before the output path was checked")

        monkeypatch.setattr("soslen.cli.length_certificate", no_search)
        path = tmp_path if kind == "directory" else tmp_path / "absent" / "cert.json"
        code, out, err = run(capsys, *argv, "--cert-out", str(path))
        assert code == 2 and out == ""
        assert err.startswith("input error: ") and err.count("\n") == 1
        assert not (tmp_path / "absent").exists()

    @pytest.mark.parametrize(
        "text, location",
        [
            ('{"field":"Q","format_version":1,"gram":["1/0"],"rows":[]}', "$.gram[0]"),
            (
                '{"field":"Q(sqrt 5)","format_version":1,"gram":["1 + 0*sqrt(5)"],'
                '"rows":[["1/0 + 0*sqrt(5)"]]}',
                "$.rows[0][0]",
            ),
            ('{"field":"Q","format_version":1,"gram":[1],"rows":[]}', "$.gram[0]"),
            ('{"field":"Q","format_version":1,"gram":["1"],"rows":[[1]]}', "$.rows[0][0]"),
            ('{"field":7,"format_version":1,"gram":["1"],"rows":[]}', "$.field"),
            # digits in other scripts, which int() would read as 5 and 1
            ('{"field":"Q(sqrt \u0665)","format_version":1,"gram":["1 + 0*sqrt(5)"],"rows":[]}', "$.field"),
            ('{"field":"Q","format_version":1,"gram":["\u0661"],"rows":[]}', "$.gram[0]"),
            ('{"field":"Q","format_version":1,"gram":["1"],"rows":[["\u0661"]]}', "$.rows[0][0]"),
            ('{"field":"Q","format_version":1,"gram":["1*sqrt(1)"],"rows":[]}', "$.gram[0]"),
            # whitespace other than spaces, which the element text does not ignore
            ('{"field":"Q","format_version":1,"gram":["1\\n"],"rows":[["1"]]}', "$.gram[0]"),
            ('{"field":"Q","format_version":1,"gram":["1"],"rows":[["1\\t"]]}', "$.rows[0][0]"),
        ],
    )
    @pytest.mark.parametrize("command", ["verify", "descend"])
    def test_malformed_certificate_is_input_error(self, capsys, tmp_path, text, location, command):
        # exit 1 would claim the certificate was checked and found false
        path = tmp_path / "malformed.json"
        path.write_text(text + "\n")
        code, out, err = run(capsys, command, "--cert-in", str(path))
        assert code == 2 and out == ""
        assert err.startswith(f"input error: {location}: ") and err.count("\n") == 1


class TestSuiteCli:
    def test_single_case_with_report(self, capsys, tmp_path):
        report = tmp_path / "report.json"
        code, out, _ = run(
            capsys,
            "suite", "run", "--case", "peters", "--n", "17",
            "--report", str(report),
        )
        assert code == 0
        assert "PASS" in out and "peters" in out
        payload = json.loads(report.read_text())
        assert payload["reports"][0]["verdict"] == "pass"

    def test_directory_as_report_is_input_error(self, capsys, tmp_path):
        code, out, err = run(
            capsys, "suite", "run", "--case", "peters", "--n", "17", "--report", str(tmp_path)
        )
        assert code == 2 and out == ""
        assert err.startswith("input error: ") and err.count("\n") == 1
        assert "Traceback" not in out + err

    def test_report_in_missing_directory_is_refused_before_the_run(
        self, capsys, tmp_path, monkeypatch
    ):
        def no_run(*args, **kwargs):
            raise AssertionError("ran the suite before the report path was checked")

        monkeypatch.setattr("soslen.suite.run_suite", no_run)
        report = tmp_path / "absent" / "report.json"
        code, out, err = run(capsys, "suite", "run", "--case", "peters", "--report", str(report))
        assert code == 2 and out == ""
        assert err.startswith("input error: ") and err.count("\n") == 1

    def test_unknown_case_rejected(self, capsys):
        code, out, err = run(capsys, "suite", "run", "--case", "nonsense")
        assert code == 2 and out == ""
        assert err.startswith("input error: unknown suite case 'nonsense'; known: ")
        assert "peters" in err

    def test_cli_import_leaves_suite_unloaded(self):
        # a fresh interpreter: this process has imported soslen.suite already
        code = "import sys, soslen.cli\nassert 'soslen.suite' not in sys.modules\n"
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
        )
        assert proc.returncode == 0, proc.stderr


class TestModuleEntryPoint:
    def test_python_dash_m(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
        proc = subprocess.run(
            [sys.executable, "-m", "soslen", "gtable", "2"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 0 and proc.stdout == "g(2) = 5\n"


class TestGTableCli:
    def test_values(self, capsys):
        code, out, _ = run(capsys, "gtable", "2")
        assert code == 0 and "g(2) = 5" in out
        code, out, _ = run(capsys, "gtable", "8")
        assert "g(8) <= 37" in out
        code, out, _ = run(capsys, "gtable", "9")
        assert "unknown" in out


class TestIntegerOptions:
    @pytest.mark.parametrize(
        "argv",
        [
            ("elem", "length", "Q", "--coords", "7", "--max-squares", "{}"),
            ("form", "length", "Q", "--gram", "7", "--max-squares", "{}"),
            ("form", "represent", "Q", "--gram", "7", "--squares", "{}"),
            ("descend", "--cert-in", "cert.json", "--target", "{}"),
            ("gtable", "{}"),
            ("suite", "run", "--case", "peters", "--n", "17,{}"),
        ],
        ids=lambda argv: argv[-2],
    )
    # int() reads \u0663 and \uff13 as 3, and takes signs, spaces and
    # underscores; the options take ASCII digits only
    @pytest.mark.parametrize("value", ["\u0663", "\uff13", "\u00b3", "-1", "+3", " 3", "3_0"])
    def test_ascii_digits_only(self, capsys, argv, value):
        with pytest.raises(SystemExit) as exc:
            main([a.format(value) for a in argv])
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        assert "expected ASCII digits" in captured.err

    def test_ascii_digits_are_read(self, capsys):
        code, out, _ = run(capsys, "elem", "length", "Q", "--coords", "7", "--max-squares", "0004")
        assert code == 0 and out == "length: 4\n"
        code, out, _ = run(capsys, "form", "represent", "Q", "--gram", "7", "--squares", "3")
        assert code == 1 and out == "no representation with at most 3 squares\n"
