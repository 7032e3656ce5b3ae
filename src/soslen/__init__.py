"""Exact sums-of-squares lengths over rings of integers of totally real
quadratic and biquadratic fields, with certificate compression through Z."""

from .radicals import (
    Embedding,
    InvalidRadicandError,
    Radical,
    Shape,
    RATIONAL_SHAPE,
    from_literal_coords,
    parse_coords,
    parse_radical,
    render_radical,
    to_literal_coords,
)
from .fields import (
    Field,
    NotIntegralError,
    OElement,
    expected_discriminant,
    field_from_descriptor,
    format_descriptor,
    is_algebraic_integer,
    make_field,
    parse_descriptor,
)
from .forms import (
    Certificate,
    GramForm,
    VerifyResult,
    gram_rank,
    perp_unit,
    totally_psd,
    verify_certificate,
)
from .search import (
    ExceedsBound,
    NotSoS,
    Represented,
    SearchSpaceError,
    candidate_rows,
    element_length,
    length,
    length_certificate,
    represent,
)
from .descent import (
    CertificateInvalidError,
    CompressionError,
    DescentProblem,
    ExpandedGram,
    TargetUnknownError,
    compress,
    descend,
    expand,
    lift,
)
from .gtable import Exact, GEntry, Unknown, UpperBound, g_table
from .certfile import (
    CertificateDocument,
    IntegrityError,
    SchemaError,
    document_from_certificate,
    emit_certificate,
    parse_certificate,
    to_certificate,
    verify_document,
)

__version__ = "0.1.0"

# The reproducibility suite (its cases and witness builders) is imported on
# first use, so that library users do not pay for it at import time.
_SUITE_NAMES = ("CASE_IDS", "SuiteReport", "extended_direct_ns", "run_suite", "write_report")


def __getattr__(name: str):
    if name == "suite" or name in _SUITE_NAMES:
        import importlib

        suite = importlib.import_module(".suite", __name__)
        return suite if name == "suite" else getattr(suite, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
