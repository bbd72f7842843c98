"""Numeric integrability diagnostics for almost-complex structures.

Evaluates a structure field J (with J^2 = -I pointwise) and a metric on a
coordinate chart, computes the Nijenhuis tensor, the symmetrised (4,0)
tensor built from it and its double trace, the scalar obstruction
-d_j(J^i_l J^k_l) d_i J^j_k, and the sixteen-term expansion ledger whose
cancellations relate all of these, reporting every identity residual at a
point.
"""

__version__ = "0.1.0"

from .expr import (
    ExprDomainError,
    ExprError,
    ExprNameError,
    ExprSyntaxError,
    bind_and_eval,
    parse_expr,
    to_source,
)
from .geometry import (
    AcsValidation,
    ChartSpec,
    ConjugationField,
    ExplicitField,
    GeometryError,
    JetMatrix,
    MetricError,
    MetricField,
    NormalChange,
    PullbackField,
    SingularFrameError,
    christoffel,
    normal_transform,
    random_conjugation_acs,
    standard_block,
    validate_acs,
)
from .jets import Jet, JetDomainError, constant, jet_apply, seed_variable
from .nijenhuis import (
    big_n,
    contraction_scalar,
    double_trace,
    j_swap_residual,
    nijenhuis_reduced,
    nijenhuis_standard,
)
from .obstruction import (
    ObstructionReport,
    TermLedger,
    identity_report,
    obstruction_scalar,
    report_from_jets,
    term_ledger,
)
from .scan import GridSpec, ScanSummary, run_scan
from .selftest import SelfTestReport, run_selftest
from .structures import (
    StructureError,
    StructureFile,
    gallery,
    gallery_names,
    load_structure,
    parse_structure,
    serialize_structure,
)

__all__ = [
    "__version__",
    "AcsValidation",
    "ChartSpec",
    "ConjugationField",
    "ExplicitField",
    "ExprDomainError",
    "ExprError",
    "ExprNameError",
    "ExprSyntaxError",
    "GeometryError",
    "GridSpec",
    "Jet",
    "JetDomainError",
    "JetMatrix",
    "MetricError",
    "MetricField",
    "NormalChange",
    "ObstructionReport",
    "PullbackField",
    "ScanSummary",
    "SelfTestReport",
    "SingularFrameError",
    "StructureError",
    "StructureFile",
    "TermLedger",
    "big_n",
    "bind_and_eval",
    "christoffel",
    "constant",
    "contraction_scalar",
    "double_trace",
    "gallery",
    "gallery_names",
    "identity_report",
    "j_swap_residual",
    "jet_apply",
    "load_structure",
    "nijenhuis_reduced",
    "nijenhuis_standard",
    "normal_transform",
    "obstruction_scalar",
    "parse_expr",
    "parse_structure",
    "random_conjugation_acs",
    "report_from_jets",
    "run_scan",
    "run_selftest",
    "seed_variable",
    "serialize_structure",
    "standard_block",
    "term_ledger",
    "to_source",
    "validate_acs",
]
