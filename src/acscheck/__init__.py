"""Numeric integrability diagnostics for almost-complex structures.

Evaluates a structure field J (with J^2 = -I pointwise) and a metric on a
coordinate chart, computes the Nijenhuis tensor, the symmetrised (4,0)
tensor built from it and its double trace, the scalar obstruction
-d_j(J^i_l J^k_l) d_i J^j_k, and the sixteen-term expansion ledger whose
cancellations relate all of these, reporting every identity residual at a
point.

Each public name is imported from its submodule on first access (PEP 562),
so ``import acscheck`` loads no submodule and a command loads only what it
runs.
"""

import importlib

__version__ = "0.1.0"

# Public name -> the submodule that defines it.
_EXPORTS = {
    name: module
    for module, names in (
        ("expr", "ExprDomainError ExprError ExprNameError ExprSyntaxError bind_and_eval parse_expr to_source"),
        ("geometry", "ChartSpec ConjugationField ExplicitField GeometryError JetMatrix"
                     " MetricError MetricField NormalChange PullbackField SingularFrameError christoffel"
                     " random_conjugation_acs standard_block validate_acs"),
        ("jets", "Jet JetDomainError constant jet_apply seed_variable"),
        ("nijenhuis", "big_n contraction_scalar double_trace j_swap_residual nijenhuis_reduced"
                      " nijenhuis_standard"),
        ("obstruction", "cancellation_residuals identity_report obstruction_scalar render_report"
                        " report_from_jets term_ledger"),
        ("scan", "GridSpec ScanSummary run_scan"),
        ("selftest", "SelfTestReport run_selftest"),
        ("structures", "StructureError StructureFile gallery gallery_names load_structure parse_structure"
                       " serialize_structure"),
    )
    for name in names.split()
}

__all__ = ["__version__", *_EXPORTS]


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value
