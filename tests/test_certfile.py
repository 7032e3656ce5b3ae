"""Canonical certificate documents: round trips, schema and integrity."""

import json
import random
from fractions import Fraction as F
from math import isqrt
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soslen import (
    Certificate,
    CertificateDocument,
    GramForm,
    Radical,
    SchemaError,
    Shape,
    VerifyResult,
    document_from_certificate,
    emit_certificate,
    field_from_descriptor,
    make_field,
    parse_certificate,
    parse_radical,
    to_certificate,
    to_literal_coords,
    verify_certificate,
    verify_document,
)
from soslen.certfile import IntegrityError

import reference_text

Q = make_field(Shape(()))
Q2 = make_field(Shape((2,)))
Q67 = make_field(Shape((6, 7)))


def doc_two_ones():
    gram = GramForm.from_element(Q.element_from_coords((2,)))
    cert = Certificate(Q, 1, ((Q.one(),), (Q.one(),)))
    return document_from_certificate(gram, cert)


class TestCanonicalForm:
    def test_emit_is_canonical_json(self):
        text = emit_certificate(doc_two_ones())
        assert text.endswith("\n")
        payload = json.loads(text)
        assert list(payload) == sorted(payload)
        assert text == json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"

    def test_roundtrip_byte_identical(self):
        text = emit_certificate(doc_two_ones())
        assert emit_certificate(parse_certificate(text)) == text

    def test_randomized_roundtrips(self):
        rng = random.Random(61)
        fields = (Q, Q2, Q67)
        for _ in range(100):
            f = fields[rng.randint(0, 2)]
            r = rng.choice((1, 2))
            rows = [
                tuple(
                    f.element_from_coords(
                        tuple(rng.randint(-3, 3) for _ in range(f.degree))
                    )
                    for _ in range(r)
                )
                for _ in range(rng.randint(1, 4))
            ]
            rows = [row for row in rows if any(not v.is_zero() for v in row)]
            gram = GramForm.from_rows(f, rows) if rows else GramForm.zero(f, r)
            cert = Certificate(f, r, tuple(rows))
            doc = document_from_certificate(gram, cert)
            text = emit_certificate(doc)
            again = parse_certificate(text)
            assert emit_certificate(again) == text
            assert verify_document(again).ok


class TestSchemaErrors:
    def test_not_json(self):
        with pytest.raises(SchemaError) as err:
            parse_certificate("not json")
        assert err.value.location == "$"

    def test_missing_key(self):
        with pytest.raises(SchemaError) as err:
            parse_certificate('{"format_version":1,"field":"Q","gram":["1"]}')
        assert err.value.location == "$.rows"

    def test_bad_version(self):
        with pytest.raises(SchemaError) as err:
            parse_certificate('{"format_version":99,"field":"Q","gram":["1"],"rows":[]}')
        assert err.value.location == "$.format_version"

    @pytest.mark.parametrize("version", ["true", "1.0", '"1"'])
    def test_version_must_be_an_integer(self, version):
        # true and 1.0 compare equal to 1 in Python but are not the version
        with pytest.raises(SchemaError) as err:
            parse_certificate(f'{{"format_version":{version},"field":"Q","gram":["1"],"rows":[]}}')
        assert err.value.location == "$.format_version"

    def test_bad_field(self):
        with pytest.raises(SchemaError) as err:
            parse_certificate('{"format_version":1,"field":"X","gram":["1"],"rows":[]}')
        assert err.value.location == "$.field"

    def test_non_square_gram(self):
        with pytest.raises(SchemaError) as err:
            parse_certificate('{"format_version":1,"field":"Q","gram":["1","2"],"rows":[]}')
        assert err.value.location == "$.gram"

    def test_bad_entry_location(self):
        with pytest.raises(SchemaError) as err:
            parse_certificate(
                '{"format_version":1,"field":"Q","gram":["1"],"rows":[["oops"]]}'
            )
        assert err.value.location == "$.rows[0][0]"

    def test_asymmetric_gram(self):
        with pytest.raises(SchemaError):
            parse_certificate(
                '{"format_version":1,"field":"Q","gram":["1","2","3","1"],"rows":[]}'
            )

    @pytest.mark.parametrize(
        "field, gram, rows, location",
        [
            ('"Q"', '["1/0"]', "[]", "$.gram[0]"),
            ('"Q(sqrt 5)"', '["1 + 0*sqrt(5)"]', '[["1/0 + 0*sqrt(5)"]]', "$.rows[0][0]"),
            ('"Q"', "[1]", "[]", "$.gram[0]"),
            ('"Q"', '["1"]', "[[1]]", "$.rows[0][0]"),
            ('"Q"', '["1", null, "0", "1"]', "[]", "$.gram[1]"),
            ("5", '["1"]', "[]", "$.field"),
            ("null", '["1"]', "[]", "$.field"),
        ],
    )
    def test_malformed_cells_are_schema_errors(self, field, gram, rows, location):
        text = f'{{"format_version":1,"field":{field},"gram":{gram},"rows":{rows}}}'
        with pytest.raises(SchemaError) as err:
            parse_certificate(text)
        assert err.value.location == location

    @pytest.mark.parametrize(
        "text",
        [
            '{"a":' * 1000,
            "[" * 100_000,
            "[" * 5000 + "]" * 5000,
            # int()'s digit limit, met while the JSON is read
            '{"format_version":' + "1" * 5000 + ',"field":"Q","gram":["1"],"rows":[]}',
        ],
        ids=["deep-object", "deep-array", "deep-closed", "long-integer"],
    )
    def test_unreadable_json_is_a_schema_error_at_the_root(self, text):
        # a RecursionError from json.loads once escaped as a traceback
        with pytest.raises(SchemaError) as err:
            parse_certificate(text)
        assert err.value.location == "$"

    @pytest.mark.parametrize("key", ["gram", "rows", "field", "format_version"])
    def test_duplicate_keys_are_refused(self, key):
        # json keeps the last value: this file once read its second gram, ["1"]
        base = '{"field":"Q","format_version":1,"gram":["4"],"rows":[["2"]]'
        value = {"gram": '["1"]', "rows": '[["1"]]', "field": '"Q"', "format_version": "1"}[key]
        with pytest.raises(SchemaError, match="duplicate key") as err:
            parse_certificate(base + f',"{key}":{value}}}')
        assert err.value.location == f"$.{key}"

    def test_a_key_repeated_in_a_nested_object_is_refused(self):
        text = '{"extra":{"a":1,"a":2},"field":"Q","format_version":1,"gram":["4"],"rows":[["2"]]}'
        with pytest.raises(SchemaError, match="duplicate key") as err:
            parse_certificate(text)
        assert err.value.location == "$.a"

    def test_unknown_keys_stay_accepted(self):
        text = '{"extra":{"a":1},"field":"Q","format_version":1,"gram":["4"],"rows":[["2"]]}'
        assert verify_document(parse_certificate(text)).ok

    def test_zero_denominator_in_parse_radical(self):
        with pytest.raises(ValueError, match="zero denominator"):
            parse_radical(Shape((5,)), "1/0 + 0*sqrt(5)")


class TestIntegrity:
    def test_tampered_row_fails_verification_but_parses(self):
        text = emit_certificate(doc_two_ones())
        payload = json.loads(text)
        payload["rows"][0][0] = "3"
        tampered = json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
        doc = parse_certificate(tampered)  # parse succeeds
        res = verify_document(doc)
        assert not res.ok and res.reason == "gram-mismatch:0,0"
        with pytest.raises(IntegrityError):
            to_certificate(doc)

    def test_non_integral_row_reported(self):
        gram = GramForm.from_element(Q2.element_from_coords((1, 0)))
        doc = parse_certificate(
            '{"field":"Q(sqrt 2)","format_version":1,'
            '"gram":["1 + 0*sqrt(2)"],"rows":[["1/2 + 0*sqrt(2)"]]}'
        )
        res = verify_document(doc)
        assert not res.ok and res.reason == "row-entry-not-integral:0,0"

    def test_verified_documents_convert(self):
        gram, cert = to_certificate(doc_two_ones())
        assert len(cert.rows) == 2

    def test_document_rows_must_match_the_rank(self):
        # such a document would be emitted as one that parse_certificate refuses
        gram = GramForm.from_rows(Q, [(Q.one(), Q.one())])
        with pytest.raises(ValueError, match="row dimension"):
            CertificateDocument(Q, gram, [(Radical.one(Shape(())),)])
        with pytest.raises(ValueError, match="rank"):
            document_from_certificate(gram, Certificate(Q, 1, ((Q.one(),),)))

    def test_document_gram_must_live_in_the_field(self):
        gram = GramForm.from_element(Q.element_from_coords((2,)))
        one = Radical.one(Shape((2,)))
        with pytest.raises(ValueError, match="field"):
            CertificateDocument(Q2, gram, [(one,), (one,)])
        with pytest.raises(ValueError, match="field"):
            document_from_certificate(gram, Certificate(Q2, 1, ((Q2.one(),),)))


# Shapes of the differential test: Q, quadratic, biquadratic, and two
# biquadratic shapes whose radicands share a factor, where the written
# sqrt(mn) coefficient is rescaled onto the stored sqrt(c) coordinate.
DIFF_SHAPES = [Shape(()), Shape((5,)), Shape((6,)), Shape((6, 7)), Shape((10, 65)), Shape((6, 15))]


def written_radicands(shape):
    if len(shape.radicands) == 2:
        m, n = shape.radicands
        return (1, m, n, m * n)
    return (1,) + shape.radicands


def write_rational(data, q):
    """q as a term coefficient, not canonically: scaled by k over k,
    zero-padded, and 0 sometimes as "-0"."""
    k = data.draw(st.integers(1, 3), label="k")
    num, den = q.numerator * k, q.denominator * k
    sign = "-" if num < 0 or (num == 0 and data.draw(st.booleans(), label="-0")) else ""
    text = sign + "0" * data.draw(st.integers(0, 2), label="pad") + str(abs(num))
    if den != 1 or data.draw(st.booleans(), label="/1"):
        text += "/" + "0" * data.draw(st.integers(0, 1), label="den pad") + str(den)
    return text


def write_entry(data, x):
    text = " + ".join(
        write_rational(data, q) + ("" if w == 1 else f"*sqrt({w})")
        for q, w in zip(to_literal_coords(x), written_radicands(x.shape))
    )
    for p in sorted(data.draw(st.lists(st.integers(0, len(text)), max_size=3), label="spaces"), reverse=True):
        text = text[:p] + " " + text[p:]
    return text


def reference_parse(text):
    """The document read through Radicals: the Fraction reader of
    reference_text per cell, and the Gram checked for symmetry and
    integrality entry by entry on them."""
    payload = json.loads(text)
    field = field_from_descriptor(payload["field"])
    cells = payload["gram"]
    r = isqrt(len(cells))
    read = reference_text.parse_radical
    entries = [[read(field.shape, cells[i * r + j]) for j in range(r)] for i in range(r)]
    doubled = [[None] * r for _ in range(r)]
    for i in range(r):
        for j in range(i, r):
            e = entries[i][j]
            if e != entries[j][i]:
                raise ValueError("gram matrix must be symmetric")
            c = field.coords_of(e.scale(2))
            if i == j and (c is None or any(v % 2 for v in c)):
                raise ValueError(f"diagonal entry {e} is not integral")
            if c is None:
                raise ValueError(f"doubled off-diagonal {e} is not integral")
            doubled[i][j] = doubled[j][i] = c
    rows = tuple(tuple(read(field.shape, c) for c in row) for row in payload["rows"])
    return field, GramForm.from_doubled(field, doubled), rows


def reference_verify(field, gram, rows):
    elems = []
    for k, row in enumerate(rows):
        if all(v.is_zero() for v in row):
            return VerifyResult(False, f"zero-row:{k}")
        for j, v in enumerate(row):
            if field.coords_of(v) is None:
                return VerifyResult(False, f"row-entry-not-integral:{k},{j}")
        elems.append(tuple(field.element(v) for v in row))
    return verify_certificate(gram, Certificate(field, gram.rank, tuple(elems)))


def reference_emit(field, gram, rows):
    render_radical = reference_text.render_radical
    payload = {
        "format_version": 1,
        "field": str(field.shape),
        "gram": [render_radical(e) for row in gram.entries for e in row],
        "rows": [[render_radical(v) for v in row] for row in rows],
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


class TestIntegerPathDifferential:
    """The integer reader and writer against the Fraction text of
    reference_text.py, which shares no code with them, on documents with half-integral off-diagonal Gram entries, non-integral
    and zero rows, and terms written non-canonically."""

    @pytest.mark.parametrize("shape", DIFF_SHAPES, ids=str)
    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(data=st.data())
    def test_matches_radical_path(self, shape, data):
        f = make_field(shape)
        ints = st.tuples(*[st.integers(-5, 5)] * f.degree)
        r = data.draw(st.integers(1, 2), label="rank")
        rows = []
        for _ in range(data.draw(st.integers(0, 3), label="rows")):
            row = []
            for _ in range(r):
                x = f.radical_of_coords(data.draw(ints, label="entry"))
                k = data.draw(st.sampled_from((1, 1, 1, 2, 3)), label="den")
                if k > 1:  # usually not integral
                    x = x + Radical.from_rational(shape, F(1, k))
                row.append(x)
            rows.append(row)
        if rows and data.draw(st.booleans(), label="gram of rows"):
            gram = [
                [
                    sum((row[i] * row[j] for row in rows), Radical.zero(shape))
                    for j in range(r)
                ]
                for i in range(r)
            ]
        else:
            gram = [[None] * r for _ in range(r)]
            for i in range(r):
                for j in range(i, r):
                    c = data.draw(ints, label="2G entry")
                    if i == j and not data.draw(st.integers(0, 9), label="odd diagonal"):
                        c = (c[0] | 1,) + c[1:]
                    elif i == j:
                        c = tuple(2 * v for v in c)
                    gram[i][j] = gram[j][i] = f.radical_of_coords(c).scale(F(1, 2))
            if r == 2 and not data.draw(st.integers(0, 9), label="asymmetric"):
                gram[1][0] = gram[1][0] + Radical.one(shape)
        text = json.dumps(
            {
                "field": str(shape),
                "format_version": 1,
                "gram": [write_entry(data, e) for row in gram for e in row],
                "rows": [[write_entry(data, v) for v in row] for row in rows],
            }
        )
        try:
            field, ref_gram, ref_rows = reference_parse(text)
        except ValueError as exc:
            with pytest.raises(SchemaError) as err:
                parse_certificate(text)
            assert str(err.value) == f"$.gram: {exc}"
            return
        doc = parse_certificate(text)
        assert doc.gram.doubled == ref_gram.doubled
        assert doc.rows == ref_rows
        assert doc == CertificateDocument(field, ref_gram, ref_rows)
        result = verify_document(doc)
        assert result == reference_verify(field, ref_gram, ref_rows)
        assert emit_certificate(doc) == reference_emit(field, ref_gram, ref_rows)
        if result.ok:
            gram_out, cert = to_certificate(doc)
            assert gram_out == ref_gram
            assert cert.rows == tuple(tuple(f.element(v) for v in row) for row in ref_rows)


SUITE_CERTS = sorted((Path(__file__).parent / "data" / "suite-certs").glob("*.json"))


class TestGoldenSuiteCertificates:
    """The certificates `soslen suite run --cert-dir` writes, kept byte for
    byte: each verifies and is emitted again unchanged, by the library and
    by the Fraction text of reference_text.py."""

    def test_all_are_present(self):
        assert len(SUITE_CERTS) == 21

    @pytest.mark.parametrize("path", SUITE_CERTS, ids=lambda p: p.stem)
    def test_verifies_and_emits_the_same_bytes(self, path):
        text = path.read_text()
        doc = parse_certificate(text)
        assert verify_document(doc).ok
        assert emit_certificate(doc) == text
        gram, cert = to_certificate(doc)
        assert emit_certificate(document_from_certificate(gram, cert)) == text
        assert reference_emit(*reference_parse(text)) == text
