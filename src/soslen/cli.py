"""Command-line interface.

Exit codes: 0 success or verified; 1 verified-false, unsatisfiable at the
budget, or not a sum of squares; 2 input error; 3 internal assertion;
4 undecided, because the search space exceeds the candidate row cap.
"""

from __future__ import annotations

import argparse
import sys
from math import isqrt
from pathlib import Path

from .certfile import (
    IntegrityError,
    SchemaError,
    document_from_certificate,
    emit_certificate,
    parse_certificate,
    to_certificate,
    verify_document,
)
from .descent import CompressionError, DescentProblem, descend
from .fields import Field, NotIntegralError, field_from_descriptor
from .forms import GramForm
from .gtable import Exact, UpperBound, g_table
from .radicals import InvalidRadicandError, Radical, parse_coords
from .search import (
    ExceedsBound,
    NotSoS,
    Represented,
    SearchSpaceError,
    length_certificate,
    represent,
)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3
EXIT_UNDECIDED = 4


def _count(text: str) -> int:
    """The argparse type of the integer options: ASCII digits only, since
    int() also reads digits of other scripts, signs, spaces and
    underscores; anything else is a usage error (exit 2)."""
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(f"expected ASCII digits, got {text!r}")
    return int(text)


def _counts(text: str) -> list[int]:
    """The argparse type of a comma-separated list of `_count`s."""
    return [_count(v) for v in text.split(",") if v]


def _parse_gram(f: Field, text: str) -> GramForm:
    entries = text.split(";")
    if not all(e.strip(" ") for e in entries):
        raise ValueError(f"empty entry in --gram {text!r}")
    k = len(entries)
    r = (isqrt(8 * k + 1) - 1) // 2
    if r * (r + 1) // 2 != k:
        raise ValueError(
            f"{k} entries do not fill an upper triangle (expected r*(r+1)/2)"
        )
    parsed = iter([parse_coords(f.shape, e) for e in entries])
    matrix: list[list[Radical]] = [[None] * r for _ in range(r)]  # type: ignore[list-item]
    for i in range(r):
        for j in range(i, r):
            matrix[i][j] = matrix[j][i] = next(parsed)
    return GramForm(f, tuple(map(tuple, matrix)))


def _check_output_path(path: str) -> None:
    """Refuse, before any search, an output path that cannot be written: a
    directory, or a file in a directory that does not exist."""
    target = Path(path)
    if target.is_dir():
        raise IsADirectoryError(f"output path is a directory: {path}")
    if not target.parent.is_dir():
        raise FileNotFoundError(f"no such directory for the output path: {path}")


def _write_certificate(path: str, gram: GramForm, cert) -> None:
    Path(path).write_text(emit_certificate(document_from_certificate(gram, cert)))


def _cmd_field_info(args) -> int:
    f = field_from_descriptor(args.descriptor)
    print(f"field: {f.shape}")
    print(f"degree: {f.degree}")
    print(f"discriminant: {f.discriminant}")
    for i, b in enumerate(f.integral_basis):
        print(f"basis[{i}]: {b}")
    return EXIT_OK


def _report_length(gram: GramForm, s_max: int, cert_out: str | None) -> int:
    if cert_out:
        _check_output_path(cert_out)
    res = length_certificate(gram, s_max)
    if isinstance(res, NotSoS):
        print(f"not a sum of squares ({res.reason})")
        return EXIT_NEGATIVE
    if isinstance(res, ExceedsBound):
        print(f"length exceeds {res.bound}")
        return EXIT_NEGATIVE
    value, cert = res
    print(f"length: {value}")
    if cert_out:
        _write_certificate(cert_out, gram, cert)
        print(f"certificate written to {cert_out}")
    return EXIT_OK


def _cmd_elem_length(args) -> int:
    f = field_from_descriptor(args.descriptor)
    alpha = f.element(parse_coords(f.shape, args.coords))
    return _report_length(GramForm.from_element(alpha), args.max_squares, args.cert_out)


def _cmd_form_length(args) -> int:
    f = field_from_descriptor(args.descriptor)
    gram = _parse_gram(f, args.gram)
    return _report_length(gram, args.max_squares, args.cert_out)


def _cmd_form_represent(args) -> int:
    f = field_from_descriptor(args.descriptor)
    gram = _parse_gram(f, args.gram)
    outcome = represent(gram, args.squares)
    if isinstance(outcome, Represented):
        print(f"represented with {len(outcome.certificate.rows)} squares")
        for row in outcome.certificate.rows:
            print("  " + " | ".join(map(str, row)))
        return EXIT_OK
    if isinstance(outcome, ExceedsBound):
        print(f"no representation with at most {outcome.bound} squares")
    else:
        messages = {
            "not-totally-psd": "not totally positive semidefinite",
            "not-integral": "gram matrix has entries outside the ring of integers",
        }
        print(messages[outcome.reason])
    return EXIT_NEGATIVE


def _cmd_descend(args) -> int:
    doc = parse_certificate(Path(args.cert_in).read_text())
    try:
        gram, cert = to_certificate(doc)
    except IntegrityError as exc:
        print(f"input certificate does not verify: {exc}")
        return EXIT_NEGATIVE
    problem = DescentProblem(doc.field, gram, cert)
    try:
        out = descend(problem, target=args.target)
    except CompressionError as exc:
        if args.target is None:
            raise  # the table value guarantees a compression
        print(f"not compressible through Z: {exc}")
        return EXIT_NEGATIVE
    sys.stdout.write(emit_certificate(document_from_certificate(gram, out)))
    return EXIT_OK


def _cmd_verify(args) -> int:
    doc = parse_certificate(Path(args.cert_in).read_text())
    result = verify_document(doc)
    if result.ok:
        print(f"verified: {len(doc.rows)} rows reproduce the gram matrix")
        return EXIT_OK
    print(f"verification failed: {result.reason}")
    return EXIT_NEGATIVE


def _cmd_gtable(args) -> int:
    entry = g_table(args.rank)
    if isinstance(entry, Exact):
        print(f"g({args.rank}) = {entry.value}")
    elif isinstance(entry, UpperBound):
        print(f"g({args.rank}) <= {entry.value}")
    else:
        print(f"g({args.rank}) unknown")
    return EXIT_OK


def _cmd_suite_run(args) -> int:
    from .suite import run_suite, write_report  # only this command needs it

    if args.report:
        _check_output_path(args.report)
    ns = None
    if args.n:
        ns = tuple(v for chunk in args.n for v in chunk)
    reports = run_suite(args.case or None, ns=ns, cert_dir=args.cert_dir)
    failed = 0
    for r in reports:
        status = r.verdict.upper()
        if r.verdict != "pass":
            failed += 1
        line = f"{status:4} {r.case:18} {r.field:22} expected {r.expected} computed {r.computed} ({r.seconds}s)"
        print(line)
        if r.note:
            print(f"     note: {r.note}")
    if args.report:
        write_report(reports, args.report)
        print(f"report written to {args.report}")
    print(f"{len(reports) - failed}/{len(reports)} checks passed")
    return EXIT_OK if failed == 0 else EXIT_NEGATIVE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="soslen",
        description="Exact sums-of-squares lengths over rings of integers of "
        "real quadratic and biquadratic fields",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_field = sub.add_parser("field", help="field inspection")
    field_sub = p_field.add_subparsers(dest="subcommand", required=True)
    p_info = field_sub.add_parser("info", help="degree, integral basis, discriminant")
    p_info.add_argument("descriptor", help='e.g. "Q", "Q(sqrt 6)", "Q(sqrt 6, sqrt 7)"')
    p_info.set_defaults(func=_cmd_field_info)

    p_elem = sub.add_parser("elem", help="ring element operations")
    elem_sub = p_elem.add_subparsers(dest="subcommand", required=True)
    p_elen = elem_sub.add_parser("length", help="minimal number of squares")
    p_elen.add_argument("descriptor")
    p_elen.add_argument("--coords", required=True, help='"q0,q1[,q2,q3]" over 1, sqrt(m), sqrt(n), sqrt(mn)')
    p_elen.add_argument("--max-squares", type=_count, default=8)
    p_elen.add_argument("--cert-out")
    p_elen.set_defaults(func=_cmd_elem_length)

    p_form = sub.add_parser("form", help="quadratic form operations")
    form_sub = p_form.add_subparsers(dest="subcommand", required=True)
    p_flen = form_sub.add_parser("length", help="minimal number of squares of linear forms")
    p_flen.add_argument("descriptor")
    p_flen.add_argument("--gram", required=True, help="upper triangle, row-major, entries ';'-separated")
    p_flen.add_argument("--max-squares", type=_count, default=8)
    p_flen.add_argument("--cert-out")
    p_flen.set_defaults(func=_cmd_form_length)
    p_frep = form_sub.add_parser("represent", help="decide representability at a fixed budget")
    p_frep.add_argument("descriptor")
    p_frep.add_argument("--gram", required=True)
    p_frep.add_argument("--squares", type=_count, required=True)
    p_frep.set_defaults(func=_cmd_form_represent)

    p_desc = sub.add_parser("descend", help="compress a certificate through the integers")
    p_desc.add_argument("--cert-in", required=True)
    p_desc.add_argument("--target", type=_count, default=None)
    p_desc.set_defaults(func=_cmd_descend)

    p_ver = sub.add_parser("verify", help="check a certificate file")
    p_ver.add_argument("--cert-in", required=True)
    p_ver.set_defaults(func=_cmd_verify)

    p_gt = sub.add_parser("gtable", help="largest finite length over Z by rank")
    p_gt.add_argument("rank", type=_count)
    p_gt.set_defaults(func=_cmd_gtable)

    p_suite = sub.add_parser("suite", help="reproducibility suite")
    suite_sub = p_suite.add_subparsers(dest="subcommand", required=True)
    p_run = suite_sub.add_parser("run", help="run suite cases")
    p_run.add_argument("--case", action="append", help="repeatable case filter")
    p_run.add_argument(
        "--n",
        action="append",
        type=_counts,
        help="comma-separated n list for the n-parametrized cases "
        "prop53-direct, prop53-alpha10, prop53-alpha11 and peters",
    )
    p_run.add_argument("--report", help="write a JSON report")
    p_run.add_argument("--cert-dir", help="directory for emitted certificates")
    p_run.set_defaults(func=_cmd_suite_run)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InvalidRadicandError, NotIntegralError, SchemaError, ValueError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except SearchSpaceError as exc:
        print(f"undecided: {exc}", file=sys.stderr)
        return EXIT_UNDECIDED
    except (AssertionError, CompressionError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
