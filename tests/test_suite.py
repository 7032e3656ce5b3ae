"""Suite plumbing: oracles, element scans and report determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

from soslen import Shape, make_field, run_suite
from soslen.suite import (
    extended_direct_ns,
    four_square_oracle,
    totally_positive_elements,
    write_report,
)


class TestOracles:
    def test_four_square_oracle_spot_values(self):
        counts = four_square_oracle(50)
        assert counts[0] == 0
        assert counts[1] == 1 and counts[4] == 1 and counts[49] == 1
        assert counts[2] == 2 and counts[50] == 2
        assert counts[3] == 3 and counts[6] == 3
        assert counts[7] == 4 and counts[15] == 4 and counts[28] == 4

    def test_oracle_never_exceeds_four(self):
        assert max(four_square_oracle(2000)) == 4


class TestElementScan:
    def test_matches_brute_force_for_sqrt2(self):
        f = make_field(Shape((2,)))
        got = {e.coords for e in totally_positive_elements(f, 12)}
        expected = set()
        for a in range(1, 13):
            for b in range(-12, 13):
                if 2 * a <= 12 and a * a > 2 * b * b:
                    if a > 0:
                        expected.add((a, b))
        assert got == expected

    def test_scan_is_sorted_by_trace(self):
        f = make_field(Shape((5,)))
        elements = totally_positive_elements(f, 20)
        traces = [e.trace() for e in elements]
        assert traces == sorted(traces)
        assert all(e.sign_at_index(i) > 0 for e in elements[:20] for i in range(2))

    def test_extended_ns(self):
        ns = extended_direct_ns()
        assert ns[0] == 17 and ns[-1] == 101
        assert 69 in ns
        assert 45 not in ns and 49 not in ns and 25 not in ns


class TestReports:
    def test_verdicts_deterministic_across_runs(self):
        a = run_suite(["peters"], ns=(17,))
        b = run_suite(["peters"], ns=(17,))
        strip = lambda rs: [(r.case, r.input, r.expected, r.computed, r.verdict) for r in rs]
        assert strip(a) == strip(b)

    def test_report_file_schema(self, tmp_path):
        reports = run_suite(["peters"], ns=(17,))
        path = tmp_path / "r.json"
        write_report(reports, path)
        payload = json.loads(path.read_text())
        entry = payload["reports"][0]
        for key in ("case", "field", "input", "expected", "computed", "verdict", "seconds"):
            assert key in entry

    def test_emitted_certificates_reverify(self, tmp_path):
        from soslen import parse_certificate, verify_document

        reports = run_suite(["lemma52"], cert_dir=tmp_path)
        paths = [r.certificate for r in reports if r.certificate]
        assert paths
        for p in paths:
            doc = parse_certificate(open(p).read())
            assert verify_document(doc).ok

    def test_n69_gap_is_noted(self):
        reports = run_suite(["prop53-direct"], ns=(69,))
        assert reports[0].verdict == "pass"
        assert reports[0].note is not None and "69" in reports[0].note


class TestLazyImport:
    def test_suite_loads_on_first_use(self):
        # a fresh interpreter: this process has imported soslen.suite already
        code = (
            "import sys, soslen\n"
            "assert 'soslen.suite' not in sys.modules\n"
            "from soslen import CASE_IDS, SuiteReport, extended_direct_ns, run_suite, write_report\n"
            "assert soslen.suite is sys.modules['soslen.suite']\n"
            "assert soslen.run_suite is soslen.suite.run_suite and CASE_IDS\n"
            "assert callable(soslen.suite.four_square_oracle)\n"
            "try:\n"
            "    soslen.no_such_name\n"
            "except AttributeError:\n"
            "    pass\n"
            "else:\n"
            "    raise AssertionError('no AttributeError')\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
