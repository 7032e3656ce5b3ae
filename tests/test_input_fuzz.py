"""Every text input of the command line, fuzzed in process through `cli.main`.

Inputs are valid strings of the input grammar, the same strings with one
character inserted, deleted or replaced (control characters, other
whitespace and digits of other scripts among the replacements), nested
JSON and long digit runs.  For every one of them no exception escapes
`main`; a refusal exits 2 with one line on standard error, an input error
or a usage error; and a string of the grammar is never refused.  Searches stay tiny: at most 3 squares,
coordinates of at most 2 digits.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path
from unittest import mock

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from soslen import (
    Certificate,
    GramForm,
    Shape,
    document_from_certificate,
    emit_certificate,
    make_field,
    parse_certificate,
)
from soslen.cli import main

FUZZ = settings(
    derandomize=True, max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

# what an edit puts in: grammar characters, other whitespace, control
# characters, and digits that int() reads but the grammar does not
EDIT_CHARS = "0123456789 -+/*,;()Qqsrt_.e\t\n\r\x00\x0b\x0c\x1b  ٣３³é"

SEARCH_SHAPES = [(), (2,), (5,), (6,)]
FIELD_SHAPES = SEARCH_SHAPES + [(13,), (2, 3), (6, 7), (10, 65)]


def run(argv):
    """(exit code, stdout, stderr, whether argparse refused the command line)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code, usage = main(argv), False
        except SystemExit as exc:
            code, usage = exc.code, True
    return code, out.getvalue(), err.getvalue(), usage


def option(name: str, value: str, joined: bool) -> list[str]:
    """`name=value` or `name value`: the command line reads both alike, also
    a value that starts with `-`."""
    return [f"{name}={value}"] if joined else [name, value]


def check(argv, valid: bool):
    code, out, err, usage = run(argv)
    if valid:
        assert code in (0, 1) and not usage and err == "", (argv, code, err)
    elif code == 2:
        assert out == "" and err.count("\n") == 1 and err.endswith("\n"), (argv, out, err)
        assert (": error: " in err) if usage else err.startswith("input error: "), (argv, err)
    else:
        assert code in (0, 1) and not usage, (argv, code, err)
    assert "Traceback" not in err
    return code


@st.composite
def spaced(draw, text: str) -> str:
    """text with up to three ASCII spaces put in anywhere."""
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(text)))
        text = text[:i] + " " + text[i:]
    return text


@st.composite
def edited(draw, valid: st.SearchStrategy) -> str:
    """A valid string with one character inserted, deleted or replaced."""
    text = draw(valid)
    i = draw(st.integers(0, len(text)))
    c = draw(st.sampled_from(EDIT_CHARS))
    kind = draw(st.sampled_from(("insert", "delete", "replace")))
    if kind == "insert":
        return text[:i] + c + text[i:]
    return text[:i] + (c if kind == "replace" else "") + text[i + 1 :]


def long_digits(valid: st.SearchStrategy) -> st.SearchStrategy:
    """A valid string with its first digit run grown past int()'s 4,300 digit limit."""

    def grow(text: str) -> str:
        i = next((k for k, ch in enumerate(text) if ch.isdigit()), len(text))
        return text[:i] + "7" * 5000 + text[i:]

    return valid.map(grow)


def fuzzed(valid: st.SearchStrategy) -> st.SearchStrategy:
    return st.one_of(edited(valid), long_digits(valid))


descriptors = st.sampled_from(FIELD_SHAPES).flatmap(lambda r: spaced(str(Shape(r))))


def coord_lists(degree: int, low: int = -99) -> st.SearchStrategy:
    return st.lists(st.integers(low, 99).map(str), min_size=degree, max_size=degree).map(",".join)


@st.composite
def element_args(draw):
    shape = draw(st.sampled_from(SEARCH_SHAPES))
    coords = draw(coord_lists(1 << len(shape)).flatmap(spaced))
    return str(Shape(shape)), coords


@st.composite
def gram_args(draw):
    shape = draw(st.sampled_from(SEARCH_SHAPES[:3]))
    rank = draw(st.integers(1, 2))
    entries = [
        draw(coord_lists(1 << len(shape), low=-20 if i == j else -99).flatmap(spaced))
        for i in range(rank)
        for j in range(i, rank)
    ]
    return str(Shape(shape)), ";".join(entries)


class TestFieldInfo:
    @FUZZ
    @given(descriptors)
    def test_valid(self, text):
        assert check(["field", "info", text], valid=True) == 0

    @FUZZ
    @given(fuzzed(descriptors))
    def test_fuzzed(self, text):
        check(["field", "info", text], valid=False)


class TestElemLength:
    @FUZZ
    @given(element_args(), st.booleans())
    def test_valid(self, args, joined):
        descriptor, coords = args
        argv = ["elem", "length", descriptor, *option("--coords", coords, joined)]
        check([*argv, "--max-squares", "3"], valid=True)

    @FUZZ
    @given(
        element_args().flatmap(lambda a: st.tuples(st.just(a[0]), fuzzed(st.just(a[1])))),
        st.booleans(),
    )
    def test_fuzzed(self, args, joined):
        descriptor, coords = args
        argv = ["elem", "length", descriptor, *option("--coords", coords, joined)]
        check([*argv, "--max-squares", "3"], valid=False)


class TestFormCommands:
    @FUZZ
    @given(gram_args(), st.sampled_from(("length", "represent")), st.booleans())
    def test_valid(self, args, command, joined):
        descriptor, gram = args
        budget = ["--max-squares", "3"] if command == "length" else ["--squares", "3"]
        check(["form", command, descriptor, *option("--gram", gram, joined), *budget], valid=True)

    @FUZZ
    @given(
        gram_args().flatmap(lambda a: st.tuples(st.just(a[0]), fuzzed(st.just(a[1])))),
        st.sampled_from(("length", "represent")),
        st.booleans(),
    )
    def test_fuzzed(self, args, command, joined):
        descriptor, gram = args
        budget = ["--max-squares", "3"] if command == "length" else ["--squares", "3"]
        check(["form", command, descriptor, *option("--gram", gram, joined), *budget], valid=False)


@st.composite
def certificates(draw) -> str:
    """The canonical file of a certificate of random rows."""
    field = make_field(Shape(draw(st.sampled_from(SEARCH_SHAPES[:3]))))
    rank = draw(st.integers(1, 2))
    element = st.lists(st.integers(-3, 3), min_size=field.degree, max_size=field.degree).map(
        lambda c: field.element_from_coords(tuple(c))
    )
    rows = draw(
        st.lists(st.tuples(*[element] * rank), min_size=1, max_size=3).filter(
            lambda rows: all(any(not v.is_zero() for v in row) for row in rows)
        )
    )
    gram = GramForm.from_rows(field, rows)
    return emit_certificate(document_from_certificate(gram, Certificate(field, rank, tuple(rows))))


@st.composite
def nested(draw) -> str:
    """JSON nested far deeper than any certificate, alone or as a value in one."""
    depth = draw(st.sampled_from((10, 500, 1000, 5000, 100_000)))
    opening = draw(st.sampled_from(('{"a":', "[", '{"rows":')))
    closed = draw(st.booleans())
    closing = ("}" if opening.startswith("{") else "]") * depth if closed else ""
    inner = opening * depth + ("1" if opening.startswith("{") else "") + closing
    where = draw(st.sampled_from(("alone", "format_version", "rows")))
    if where == "alone":
        return inner
    if where == "format_version":
        return '{"field":"Q","format_version":' + inner + ',"gram":["1"],"rows":[]}'
    return '{"field":"Q","format_version":1,"gram":["1"],"rows":[[' + inner + "]]}"


@st.composite
def duplicated(draw) -> str:
    """A certificate with one of its keys given twice."""
    text = draw(certificates())
    key = draw(st.sampled_from(("field", "format_version", "gram", "rows")))
    value = json.dumps(json.loads(text)[key], separators=(",", ":"))
    return text.rstrip("\n")[:-1] + f',"{key}":{value}}}\n'


def verify(text: str):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cert.json"
        path.write_text(text)
        return check(["verify", "--cert-in", str(path)], valid=False)


class TestVerify:
    @FUZZ
    @given(certificates())
    def test_valid(self, text):
        assert verify(text) == 0

    @FUZZ
    @given(fuzzed(certificates()))
    def test_fuzzed(self, text):
        verify(text)
        try:
            doc = parse_certificate(text)
        except ValueError:
            return
        once = emit_certificate(doc)
        assert emit_certificate(parse_certificate(once)) == once

    @FUZZ
    @given(nested())
    def test_nested(self, text):
        assert verify(text) == 2

    @FUZZ
    @given(duplicated())
    def test_duplicate_keys(self, text):
        assert verify(text) == 2


counts = st.integers(1, 10**6).map(str)


class TestIntegerOptions:
    @FUZZ
    @given(st.one_of(counts, fuzzed(counts)))
    def test_rank_and_max_squares(self, text):
        valid = text.isascii() and text.isdigit() and len(text) < 4300 and int(text) > 0
        check(["gtable", text], valid=valid)
        check(["elem", "length", "Q", "--coords", "7", "--max-squares", text], valid=valid)

    @FUZZ
    @given(st.one_of(counts, fuzzed(counts.map(lambda t: f"17,{t}"))))
    def test_n_list(self, text):
        items = text.split(",")
        valid = all(v.isascii() and v.isdigit() and len(v) < 4300 for v in items)
        with mock.patch("soslen.suite.run_suite", return_value=[]):
            check(["suite", "run", "--case", "peters", "--n", text], valid=valid)
