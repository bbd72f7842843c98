"""The factored contractions against their verbatim index patterns.

`NormalChange`, `term_ledger` and `contraction_scalar` evaluate their
many-operand contractions as chains of two-operand products through shared
intermediates, and `double_trace` contracts the trace of the (4,0) tensor
`big_n` without forming it.  Here each one is checked against the verbatim einsum of its
index pattern, within 1e-14 of the sum of the absolute values of the
products it adds up.

The inputs are random jets, not a gallery structure: a metric with random
symmetric partials has Christoffel symbols of order one, so the correction
terms are not noise (under the compatible `pullback4` metric the partials
in normal coordinates are rounding noise and would hide a wrong formula).
"""

import numpy as np
import pytest

import oracle
from acscheck.geometry import NormalChange, christoffel
from acscheck.nijenhuis import big_n, contraction_scalar, double_trace, nijenhuis_standard
from acscheck.obstruction import term_ledger

REL = 1e-14


def _verbatim(spec, *operands):
    """The einsum of `spec` over a leading batch axis, and the same sum of
    the absolute values of its products."""
    inputs, output = spec.split("->")
    full = ",".join("..." + s for s in inputs.split(",")) + "->..." + output
    return np.einsum(full, *operands), np.einsum(full, *map(np.abs, operands))


def _assert_close(got, parts):
    """`got` equals the signed sum of the verbatim `parts` within REL of the
    sum of their absolute products."""
    want = sum(sign * value for sign, (value, _) in parts)
    bound = sum(scale for _, (_, scale) in parts)
    assert np.all(np.abs(got - want) <= REL * bound)


CASES = [(dim, batch) for dim in (2, 4, 6) for batch in (1, 7)]


@pytest.mark.parametrize("dim,batch", CASES)
def test_transform_endomorphism_matches_verbatim(rng, dim, batch):
    jm, g = oracle.random_jets(rng, dim, batch)
    change = NormalChange.from_metric(g)
    a, a_inv, gamma = change.a, change.a_inv, christoffel(g, np.linalg.inv(g.values))
    got = change.transform_endomorphism(jm)
    vals = a_inv @ jm.values @ a
    assert np.array_equal(got.values, vals)
    assert np.max(np.abs(gamma)) > 0.1  # the correction terms are not noise
    _assert_close(got.partials, [
        (+1, _verbatim("ai,kij,kc,jb->cab", a_inv, jm.partials, a, a)),
        (+1, _verbatim("ai,imn,me,nc,eb->cab", a_inv, gamma, a, a, vals)),
        (-1, _verbatim("ae,ei,imn,mb,nc->cab", vals, a_inv, gamma, a, a)),
    ])


@pytest.mark.parametrize("dim,batch", CASES)
def test_transform_metric_matches_verbatim(rng, dim, batch):
    # the tests' transformed metric (criterion 5 and test_geometry rely on it)
    _, g = oracle.random_jets(rng, dim, batch)
    change = NormalChange.from_metric(g)
    a, quad = change.a, oracle.normal_quad_einsum(change.gamma, change.a)
    got = oracle.transform_metric(change, g)
    _assert_close(got.partials, [
        (+1, _verbatim("iac,ij,jb->cab", quad, g.values, a)),
        (+1, _verbatim("ia,kij,kc,jb->cab", a, g.partials, a, a)),
        (+1, _verbatim("ia,ij,jbc->cab", a, g.values, quad)),
    ])


FOUR_OPERAND_TERMS = {
    "II1": (-1, "qr,ks,irk,isq->"),
    "II2": (+1, "qi,ks,irk,rsq->"),
    "II5": (+1, "qr,pi,srp,isq->"),
    "III1": (-1, "qi,pi,srp,rsq->"),
}

# on (J, jd, jd) for line I and on (J, d, d) for line IV
THREE_OPERAND_TERMS = {
    "I1": (-1, "ks,irk,isr->"),
    "I2": (+1, "ks,irk,rsi->"),
    "I3": (+1, "pi,srp,isr->"),
    "I4": (-1, "pi,srp,rsi->"),
    "IV1": (+1, "qr,isq,irs->"),
    "IV2": (-1, "qi,rsq,irs->"),
    "IV3": (-1, "qr,isq,sri->"),
    "IV4": (+1, "qi,rsq,sri->"),
}


@pytest.mark.parametrize("dim,batch", CASES)
def test_ledger_matches_verbatim(rng, dim, batch):
    jm, _ = oracle.random_jets(rng, dim, batch)
    j, d = jm.values, jm.partials
    jd = oracle.ledger_jd_einsum(j, d)
    ledger = term_ledger(jm)
    for name, (sign, spec) in FOUR_OPERAND_TERMS.items():
        _assert_close(ledger[name], [(sign, _verbatim(spec, j, j, jd, d))])
    for name, (sign, spec) in THREE_OPERAND_TERMS.items():
        t = d if name.startswith("IV") else jd
        _assert_close(ledger[name], [(sign, _verbatim(spec, j, t, t))])
    _assert_close(ledger["first_quadratic"], [(-1, _verbatim("kt,ip,jp,ilk,jtl->", j, j, j, d, d))])


@pytest.mark.parametrize("dim,batch", CASES)
def test_double_trace_matches_tensor_trace(rng, dim, batch):
    jm, g = oracle.random_jets(rng, dim, batch)
    j, g_inv = jm.values, np.linalg.inv(g.values)
    assert np.max(np.abs(np.swapaxes(j, -1, -2) @ g.values @ j - g.values)) > 0.1  # not J-compatible
    comps = nijenhuis_standard(jm)
    want = np.einsum("...ia,...kb,...ikab->...", g_inv, g_inv, big_n(comps, j, g.values))
    # sum of |products| of one addend of big_n, traced; the four are equal
    spec = "...ia,...kb,...rik,...sra,...ts,...tb->..."
    bound = np.einsum(spec, *map(np.abs, (g_inv, g_inv, comps, comps, j, g.values)), optimize=True)
    assert np.all(np.abs(double_trace(comps, j, g_inv) - want) <= REL * bound)


@pytest.mark.parametrize("dim,batch", CASES)
def test_contraction_matches_verbatim(rng, dim, batch):
    jm, _ = oracle.random_jets(rng, dim, batch)
    comps = nijenhuis_standard(jm)
    got = contraction_scalar(comps, jm.values)
    _assert_close(got, [(+1, _verbatim("rik,sri,ks->", comps, comps, jm.values))])
