"""Command-line interface.

Exit codes: 0 success or verified; 1 verified-false, unsatisfiable at the
budget, or not a sum of squares; 2 input error; 3 internal assertion;
4 undecided, because the search space exceeds the candidate row cap.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .certfile import (
    IntegrityError,
    document_from_certificate,
    emit_certificate,
    parse_certificate,
    to_certificate,
    verify_document,
)
from .descent import CompressionError, DescentProblem, descend
from .fields import field_from_descriptor
from .forms import GramForm
from .gtable import Exact, UpperBound, g_table
from .radicals import read_coords, read_count, read_triangle
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


class _Parser(argparse.ArgumentParser):
    """An argparse parser whose usage errors, like input errors, print one line."""

    def error(self, message: str):
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")

    def parse_known_args(self, args=None, namespace=None):
        # argparse takes a value that starts with `-` for an option: --coords=-1,0
        args = list(sys.argv[1:] if args is None else args)
        for i in range(len(args) - 2, -1, -1):
            if args[i] in ("--coords", "--gram") and args[i + 1].startswith("-"):
                args[i : i + 2] = [f"{args[i]}={args[i + 1]}"]
        return super().parse_known_args(args, namespace)


def _count(text: str) -> int:
    """The argparse type of the integer options (`read_count`)."""
    if (count := read_count(text)) is None:
        raise argparse.ArgumentTypeError(f"expected ASCII digits, got {text!r}")
    return count


def _counts(text: str) -> list[int]:
    """The argparse type of a comma-separated list of `_count`s, none empty."""
    return [_count(v) for v in text.split(",")]


def _check_output_path(path: str) -> None:
    """Refuse, before any search, an output path that cannot be written: a
    directory, or a file in a directory that does not exist."""
    target = Path(path)
    if target.is_dir():
        raise IsADirectoryError(f"output path is a directory: {path}")
    if not target.parent.is_dir():
        raise FileNotFoundError(f"no such directory for the output path: {path}")


def _cmd_field_info(args) -> int:
    f = field_from_descriptor(args.descriptor)
    print(f"field: {f.shape}")
    print(f"degree: {f.degree}")
    print(f"discriminant: {f.discriminant}")
    for i, b in enumerate(f.integral_basis):
        print(f"basis[{i}]: {b}")
    return EXIT_OK


def _gram(args) -> GramForm:
    """The Gram matrix of --gram, or the 1 x 1 one of the element --coords gives."""
    f = field_from_descriptor(args.descriptor)
    if args.gram is None:
        return GramForm.from_element(f.element_of_numerators(*read_coords(f.shape, args.coords)))
    return GramForm.from_numerators(f, read_triangle(f.shape, args.gram))


def _cmd_length(args) -> int:
    gram = _gram(args)
    if args.cert_out:
        _check_output_path(args.cert_out)
    res = length_certificate(gram, args.max_squares)
    if isinstance(res, NotSoS):
        print(f"not a sum of squares ({res.reason})")
        return EXIT_NEGATIVE
    if isinstance(res, ExceedsBound):
        print(f"length exceeds {res.bound}")
        return EXIT_NEGATIVE
    value, cert = res
    print(f"length: {value}")
    if args.cert_out:
        Path(args.cert_out).write_text(emit_certificate(document_from_certificate(gram, cert)))
        print(f"certificate written to {args.cert_out}")
    return EXIT_OK


def _cmd_form_represent(args) -> int:
    outcome = represent(_gram(args), args.squares)
    if isinstance(outcome, Represented):
        print(f"represented with {len(outcome.certificate.rows)} squares")
        for row in outcome.certificate.rows:
            print("  " + " | ".join(map(str, row)))
        return EXIT_OK
    if isinstance(outcome, ExceedsBound):
        print(f"no representation with at most {outcome.bound} squares")
    elif outcome.reason == "not-integral":
        print("gram matrix has entries outside the ring of integers")
    else:
        print("not totally positive semidefinite")
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
    ns = tuple(v for chunk in args.n or () for v in chunk)
    reports = run_suite(args.case or None, ns=ns, cert_dir=args.cert_dir)
    for r in reports:
        status = r.verdict.upper()
        print(f"{status:4} {r.case:18} {r.field:22} expected {r.expected} computed {r.computed} ({r.seconds}s)")
        if r.note:
            print(f"     note: {r.note}")
    failed = sum(r.verdict != "pass" for r in reports)
    if args.report:
        write_report(reports, args.report)
        print(f"report written to {args.report}")
    print(f"{len(reports) - failed}/{len(reports)} checks passed")
    return EXIT_OK if failed == 0 else EXIT_NEGATIVE


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    coords_help = '"q0,q1[,q2,q3]" over 1, sqrt(m), sqrt(n), sqrt(mn); spaces are ignored'
    p_elen.add_argument("--coords", required=True, help=coords_help)
    p_elen.add_argument("--max-squares", type=_count, default=8)
    p_elen.add_argument("--cert-out")
    p_elen.set_defaults(func=_cmd_length, gram=None)

    p_form = sub.add_parser("form", help="quadratic form operations")
    form_sub = p_form.add_subparsers(dest="subcommand", required=True)
    p_flen = form_sub.add_parser("length", help="minimal number of squares of linear forms")
    p_flen.add_argument("descriptor")
    gram_help = "upper triangle, row-major, entries ';'-separated and each like --coords"
    p_flen.add_argument("--gram", required=True, help=gram_help)
    p_flen.add_argument("--max-squares", type=_count, default=8)
    p_flen.add_argument("--cert-out")
    p_flen.set_defaults(func=_cmd_length)
    p_frep = form_sub.add_parser("represent", help="decide representability at a fixed budget")
    p_frep.add_argument("descriptor")
    p_frep.add_argument("--gram", required=True, help=gram_help)
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
    n_help = "comma-separated n list for prop53-direct, prop53-alpha10, prop53-alpha11 and peters"
    p_run.add_argument("--n", action="append", type=_counts, help=n_help)
    p_run.add_argument("--report", help="write a JSON report")
    p_run.add_argument("--cert-dir", help="directory for emitted certificates")
    p_run.set_defaults(func=_cmd_suite_run)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # SchemaError, NotIntegralError, InvalidRadicandError
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
