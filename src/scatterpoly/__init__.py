"""Scattered linearized polynomials over finite fields: testers, rank-metric
code reports, plane-curve audits and exhaustive verification campaigns."""

from . import curve, gf, linpoly, rankcode, scattered, suites
from .gf import (
    CeilingExceeded,
    ContextMismatch,
    Embedding,
    FFElt,
    FieldCtx,
    FieldError,
    embed,
    enumerate_elements,
    frobenius,
    make_field,
    norm_rel,
    trace_rel,
)
from .linpoly import NormalizedInstance, QPoly, as_matrix, compose_mod, evaluate, kernel_dim, normalize
from .rankcode import CodeSpec, MRDReport, min_distance, min_distances, scattered_mrd_bridge
from .scattered import (
    LinearSetReport,
    ScanEntry,
    ScatterVerdict,
    find_many_roots_completion,
    find_many_roots_completions,
    inequality_case_table,
    irreducible_component_inequality,
    is_scattered,
    linear_set_report,
    not_scattered_verdict,
    pair_product_image,
    scan_extensions,
    scatter_test,
    scatter_test_kernel,
    scattered_many,
)
from .curve import (
    AffineCount,
    BivarPoly,
    ProjPointSet,
    UnivarPoly,
    branch_series,
    build_scatter_curve,
    count_affine,
    exact_divide,
    geometric_transform,
    hasse_weil_gap,
    infinity_chart,
    is_ordinary,
    line_restriction,
    multiplicity,
    points_at_infinity,
    resultant_in_y,
    scatter_curve_numerator,
)

__version__ = "0.1.0"
