"""The report's kernels as batched matrix products.

Each kernel that `check`, `verify-derivation` and `scan` reach, and the two
selftest kernels beside them, is a chain of `@` on reshaped or swapped
views; none calls `einsum`.  Here each one is checked against its earlier
einsum form in `tests/oracle.py` to 1e-13 relative, and each batch row
against the same kernel on that point alone, bit for bit.

"Relative" means: an array against its largest entry at the point; a scalar
against the sum of the absolute values of the products it adds up (its
reference on the absolute values of its operands), since a scalar that is a
cancellation has no scale of its own.
"""

import numpy as np
import pytest

import oracle
from acscheck import geometry, nijenhuis, obstruction
from acscheck.cli import main
from acscheck.geometry import JetMatrix, NormalChange
from test_acceptance import PULLBACK4_COMPATIBLE

REL = 1e-13


def _assert_array_close(got, ref):
    lead = ref.shape[:1]
    err = np.abs(got - ref).reshape(lead + (-1,)).max(-1)
    assert np.all(err <= REL * np.abs(ref).reshape(lead + (-1,)).max(-1))


def _assert_scalar_close(got, ref, products):
    assert np.all(np.abs(got - ref) <= REL * np.abs(products))


@pytest.mark.parametrize("dim", [2, 4, 6])
def test_kernels_match_einsum_references(rng, dim):
    a = np.abs
    for _ in range(4):
        jm, g = oracle.random_jets(rng, dim, 16)
        j, d = jm.values, jm.partials
        comps = nijenhuis.nijenhuis_standard(jm)
        g_inv = np.linalg.inv(g.values)
        _assert_array_close(comps, oracle.nijenhuis_standard_einsum(j, d))
        _assert_array_close(nijenhuis.nijenhuis_reduced(jm), oracle.nijenhuis_reduced_einsum(j, d))
        _assert_array_close(geometry.contract_first(j, d), oracle.ledger_jd_einsum(j, d))
        gamma = geometry.christoffel(g)
        _assert_array_close(gamma, oracle.christoffel_einsum(g.values, g.partials))
        change = NormalChange.from_metric(g)
        quad = oracle.normal_quad_einsum(change.gamma, change.a)
        _assert_array_close(quad, oracle.normal_quad_einsum(gamma, change.a))
        _assert_array_close(
            change.transform_endomorphism(jm).partials,
            oracle.transform_endomorphism_partials_einsum(change.a, change.a_inv, change.gamma, j, d),
        )
        _assert_scalar_close(
            nijenhuis.j_swap_residual(comps, j),
            oracle.j_swap_residual_einsum(comps, j),
            oracle.j_swap_residual_einsum(a(comps), a(j)),
        )
        _assert_scalar_close(
            nijenhuis.double_trace(comps, j, g_inv),
            oracle.double_trace_einsum(comps, j, g_inv),
            oracle.double_trace_einsum(a(comps), a(j), a(g_inv)),
        )
        _assert_scalar_close(
            obstruction.obstruction_scalar(jm),
            oracle.obstruction_scalar_einsum(j, d),
            oracle.obstruction_scalar_einsum(a(j), a(d)),
        )
        _assert_scalar_close(
            obstruction.term_ledger(jm)["first_quadratic"],
            oracle.first_quadratic_einsum(j, d),
            oracle.first_quadratic_einsum(a(j), a(d)),
        )


def _kernels(jm: JetMatrix, g: JetMatrix):
    """Every rewritten kernel's output at the points of `jm` and `g`."""
    comps = nijenhuis.nijenhuis_standard(jm)
    change = NormalChange.from_metric(g)
    ledger = obstruction.term_ledger(jm)
    euclid = np.eye(jm.n)  # unbatched, as the Euclidean report passes it
    return {
        "nijenhuis_standard": comps,
        "nijenhuis_reduced": nijenhuis.nijenhuis_reduced(jm),
        "j_swap_residual": nijenhuis.j_swap_residual(comps, jm.values),
        "double_trace": nijenhuis.double_trace(comps, jm.values, np.linalg.inv(g.values)),
        "double_trace_euclidean": nijenhuis.double_trace(comps, jm.values, euclid),
        "obstruction_scalar": obstruction.obstruction_scalar(jm),
        "ledger_terms": np.stack([ledger[name] for name in obstruction.TERM_NAMES], -1),
        "first_quadratic": ledger["first_quadratic"],
        "christoffel": geometry.christoffel(g),
        "quad": oracle.normal_quad_einsum(change.gamma, change.a),
        "transform_endomorphism": change.transform_endomorphism(jm).partials,
    }


@pytest.mark.parametrize("batch", [7, 128])
@pytest.mark.parametrize("dim", [2, 4, 6])
def test_batch_rows_have_single_point_bits(rng, dim, batch):
    jm, g = oracle.random_jets(rng, dim, batch)
    batched = _kernels(jm, g)
    for b in range(batch):
        alone = _kernels(JetMatrix(jm.values[b], jm.partials[b]), JetMatrix(g.values[b], g.partials[b]))
        for name, value in alone.items():
            assert np.asarray(value).tobytes() == batched[name][b].tobytes(), (name, b)


def _refuse_einsum(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("einsum was called")

    monkeypatch.setattr(np, "einsum", refuse)


@pytest.mark.parametrize("structure", ["gallery:pullback4", "compatible"])
def test_commands_call_no_einsum(tmp_path, capsys, monkeypatch, structure):
    if structure == "compatible":
        structure = str(tmp_path / "compatible.acs")
        (tmp_path / "compatible.acs").write_text(PULLBACK4_COMPATIBLE)
    _refuse_einsum(monkeypatch)
    point = "--point=0.3,-0.2,0.5,0.7"
    assert main(["check", structure, point]) == 0
    assert main(["check", structure, point, "--json"]) == 0
    assert main(["verify-derivation", structure, point]) == 0
    out = tmp_path / "scan.csv"
    assert main(["scan", structure, "--grid=-1:1:3,-1:1:3,-1:1:3,-1:1:3", "--out", str(out)]) == 0
    assert "scan: 81 points, 0 flagged\n" in capsys.readouterr().out
