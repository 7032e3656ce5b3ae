"""Exact sums-of-squares lengths over rings of integers of totally real
quadratic and biquadratic fields, with certificate compression through Z."""

from .radicals import (
    Embedding,
    Interval,
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
    NotIntegral,
    NotSoS,
    NotTotallyPsd,
    Represented,
    SearchSpaceError,
    Unsat,
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
from .suite import (
    CASE_IDS,
    SuiteReport,
    extended_direct_ns,
    run_suite,
    write_report,
)

__version__ = "0.1.0"
