"""The batched self-test against its earlier per-sample, expression-tree form.

`run_selftest` evaluates each dimension's samples as batches of arrays, of
at most `obstruction.BATCH` samples and `obstruction.FLOATS` floats of one
kind each.
Every count, failure line and residual must have the bits that the
per-sample reference `oracle.run_selftest_per_sample` gives, and the array
jets of the random frames and metrics must have the bits of their
expression trees' evaluation.
"""

import itertools
import re
import time

import numpy as np
import pytest

import oracle
from acscheck import expr, geometry, obstruction, selftest
from acscheck._pcg64 import Streams
from acscheck.geometry import ChartSpec, random_conjugation_acs
from acscheck.obstruction import CANCELLATION_LABELS, report_from_jets
from acscheck.structures import StructureFile, parse_structure, serialize_structure

COND = r" frame_cond=\d\.\d{3}e[+-]\d\d"


def _refuse_trees(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("an expression tree was evaluated")

    monkeypatch.setattr(expr, "bind_and_eval", refuse)
    monkeypatch.setattr(expr, "eval_table", refuse)


def _assert_same_report(new, ref):
    assert new.checks == ref.checks
    assert all(re.search(COND + "$", line) for line in new.failures)
    assert [re.sub(COND + "$", "", line) for line in new.failures] == ref.failures
    assert list(new.residuals) == list(ref.residuals)
    for name, values in ref.residuals.items():
        assert new.residuals[name].typecode == "d", name
        assert np.array(new.residuals[name]).tobytes() == np.array(values).tobytes(), name
    assert re.sub(COND, "", new.render_text()) == ref.render_text()


def _batch_sizes(monkeypatch, *args):
    """The text of `run_selftest(*args)` and the samples of each batch it evaluates."""
    sizes = []

    def spy(j_jm, g_jm, points):
        if g_jm is None:  # one Euclidean report a batch
            sizes.append(len(points))
        return report_from_jets(j_jm, g_jm, points)

    monkeypatch.setattr(selftest, "report_from_jets", spy)
    return selftest.run_selftest(*args).render_text(), sizes


@pytest.mark.parametrize("seed", [5, 13])
@pytest.mark.parametrize("degree", [0, 1, 2, 3])
def test_batched_selftest_equals_per_sample_reference(monkeypatch, degree, seed):
    ref = oracle.run_selftest_per_sample((2, 4, 6), 6, degree, seed)
    _refuse_trees(monkeypatch)
    new = selftest.run_selftest((2, 4, 6), 6, degree, seed)
    _assert_same_report(new, ref)
    if degree == 0:  # constant frames: N = 0, so zero propagation applies
        assert new.checks[selftest._CHECK_NAMES[5]] == [18, 18]


def test_batched_failure_lines_equal_per_sample_reference(monkeypatch):
    # a zero tolerance fails every sample whose ledger residual is not 0
    for module in (selftest, oracle):
        monkeypatch.setattr(module, "TOL_LEDGER", 0.0)
    ref = oracle.run_selftest_per_sample((2, 4), 4, 2, 7)
    new = selftest.run_selftest((2, 4), 4, 2, 7)
    assert ref.failures
    _assert_same_report(new, ref)


# the random metric feeds only the rows built from its report: checks, failure
# lines and every other residual row keep their bits under any metric rule
def test_the_metric_feeds_only_its_two_residual_rows(monkeypatch):
    metric_rows = ("double trace vs obstruction (random SPD metric)", "metric independence of double trace")
    args = (2, 4, 6), 33, 2, 9  # the ledger row fails at dim 6, sample 14
    drawn = selftest.run_selftest(*args)
    assert len(drawn.failures) == 1 and " dim=6 sample=14 " in drawn.failures[0]

    def identity(streams, points):
        n = points.shape[-1]
        return geometry.JetMatrix(np.tile(np.eye(n), (len(points), 1, 1)), np.zeros((len(points), n, n, n)))

    monkeypatch.setattr(selftest, "_spd_metrics", identity)
    euclidean = selftest.run_selftest(*args)
    assert euclidean.checks == drawn.checks and euclidean.failures == drawn.failures
    others = [name for name in selftest._RESIDUAL_NAMES if name not in metric_rows]
    assert len(others) == 12
    for name in others:
        assert euclidean.residuals[name].tobytes() == drawn.residuals[name].tobytes(), name
    assert not any(euclidean.residuals[metric_rows[1]])  # the identity metric is the Euclidean one
    assert any(drawn.residuals[metric_rows[1]])


def test_cancellation_rows_follow_the_labels():
    dim, samples, degree, seed = 4, 3, 2, 9
    report = selftest.run_selftest((dim,), samples, degree, seed)
    rows = [f"cancellation {label}" for label in CANCELLATION_LABELS]
    assert list(report.residuals)[5:13] == rows
    lines = report.render_text().splitlines()
    for header in ("identity residuals", "residual histograms"):
        start = next(k for k, line in enumerate(lines) if line.startswith(header))
        table = lines[start + 1 : lines.index("", start)]
        labels = [line.split("  cancellation ")[1] for line in table if "  cancellation " in line]
        assert labels == list(CANCELLATION_LABELS)
    # each row holds its own label's value: replay every sample on its own
    for b in range(samples):
        rng = np.random.default_rng([seed, dim, b])
        field = random_conjugation_acs(dim, degree, int(rng.integers(0, 2**63 - 1)))
        point = rng.uniform(0.0, 1.0, dim)
        rep = report_from_jets(field.eval(ChartSpec.default(dim), point), None, point)
        for label, row in zip(CANCELLATION_LABELS, rows):
            assert report.residuals[row][b] == rep["cancellation_residuals"][label], (b, label)


@pytest.mark.parametrize("dim", [2, 4, 6])
@pytest.mark.parametrize("degree", [0, 1, 2, 3])
def test_random_conjugation_ast_unchanged(dim, degree):
    for seed in (0, 42, 174700889916724084):
        field = random_conjugation_acs(dim, degree, seed)
        ref = oracle.random_conjugation_acs_ast(dim, degree, seed)
        assert field == ref


@pytest.mark.parametrize("batch", [1, 7])
@pytest.mark.parametrize("dim", [2, 4, 6])
@pytest.mark.parametrize("degree", [0, 1, 2, 3])
def test_array_frame_jets_equal_tree_evaluation(rng, batch, dim, degree):
    chart = ChartSpec.default(dim)
    seeds = [int(s) for s in rng.integers(0, 2**63 - 1, batch)]
    points = rng.uniform(-1.0, 1.0, (batch, dim))  # both signs of every coordinate
    expo, coeffs = geometry._random_frames(dim, degree, seeds)
    diag = (..., range(dim), range(dim))
    frame_values, frame_partials = geometry._polynomial_jets(expo, coeffs, points)
    frame_values[diag] += 1.0  # the AST's 1 + poly
    jm = geometry._conjugate(frame_values, frame_partials)
    for b, seed in enumerate(seeds):
        field = random_conjugation_acs(dim, degree, seed)
        av, ap, _ = expr.eval_table(field.frame, chart, points[b])
        assert frame_values[b].tobytes() == av.tobytes()
        assert frame_partials[b].tobytes() == ap.tobytes()
        pv, pp = geometry._polynomial_jets(expo, coeffs[b], points[b])  # one point, unbatched
        pv[diag] += 1.0
        assert pv.tobytes() == av.tobytes() and pp.tobytes() == ap.tobytes()
        one = field.eval(chart, points[b])
        assert jm.values[b].tobytes() == one.values.tobytes()
        assert jm.partials[b].tobytes() == one.partials.tobytes()
        assert jm.frame_cond[b] == one.frame_cond


@pytest.mark.parametrize("batch", [1, 7])
@pytest.mark.parametrize("dim", [2, 4, 6])
def test_array_metric_jets_equal_tree_evaluation(rng, batch, dim):
    chart = ChartSpec.default(dim)
    points = rng.uniform(0.0, 1.0, (batch, dim))
    streams = Streams([[dim, b] for b in range(batch)])
    g = selftest._spd_metrics(streams, points)
    np.linalg.cholesky(g.values)  # every returned metric is positive definite
    for b, point in enumerate(points):
        s = np.random.default_rng([dim, b])
        one = oracle.random_spd_metric_ast(s, chart, point).eval(chart, point)
        assert oracle.pcg64_state(streams, b) == s.bit_generator.state["state"]  # the same draws, in order
        assert g.values[b].tobytes() == one.values.tobytes()
        assert g.partials[b].tobytes() == one.partials.tobytes()


def test_batched_metric_draws_equal_per_sample_draws():
    # streams [6, 433] and [6, 1578] give a first draw that is not SPD at their point
    dim, indices = 6, [430, 431, 432, 433, 434, 1578]
    chart = ChartSpec.default(dim)
    fresh = lambda: Streams([[dim, b] for b in indices])
    streams, probes = fresh(), fresh()
    points = streams.uniform(0.0, 1.0, (dim,))
    probes.uniform(0.0, 1.0, (dim,))  # the points
    first = selftest._metric_coeffs(probes, dim)
    values, partials = geometry._polynomial_jets(selftest._metric_exponents(dim), first, points)
    shifted = []
    for b, v in enumerate(values):
        try:
            np.linalg.cholesky(v)
        except np.linalg.LinAlgError:
            shifted.append(b)
    assert shifted == [3, 5]
    g = selftest._spd_metrics(streams, points)
    for b in (0, 1, 2, 4):  # a first draw that passes keeps its bits
        assert g.values[b].tobytes() == values[b].tobytes() and g.partials[b].tobytes() == partials[b].tobytes()
    for b, index in enumerate(indices):
        alone, tree = Streams([[dim, index]]), np.random.default_rng([dim, index])
        point = alone.uniform(0.0, 1.0, (dim,))[0]
        assert tree.uniform(0.0, 1.0, dim).tobytes() == point.tobytes() == points[b].tobytes()
        one = selftest._spd_metrics(alone, point[None])  # the sample alone, as a batch of one
        ref = oracle.random_spd_metric_ast(tree, chart, point).eval(chart, point)
        assert g.values[b].tobytes() == one.values[0].tobytes() == ref.values.tobytes()
        assert g.partials[b].tobytes() == one.partials[0].tobytes() == ref.partials.tobytes()
        state = tree.bit_generator.state["state"]  # the same draws, in order
        assert oracle.pcg64_state(streams, b) == oracle.pcg64_state(alone, 0) == state


def test_monomials_are_computed_once():
    assert geometry._monomials(6, 2) is geometry._monomials(6, 2)
    assert len(geometry._monomials(6, 2)) == 28


def test_monomials_are_the_exponents_of_total_degree_at_most_d_in_order():
    for n in range(1, 7):
        for d in range(4):
            brute = sorted(e for e in itertools.product(range(d + 1), repeat=n) if sum(e) <= d)
            assert geometry._monomials(n, d) == tuple(brute), (n, d)
    assert len(geometry._monomials(16, 2)) == 153  # C(18, 2), not 3^16 tuples walked


SEEDS = (11, 12, 13, 14, 15, 42)


# one sample a block, set by the sample count or, at degree 3, by the float budget
@pytest.mark.parametrize(
    "degree, limit, seed",
    [(2, "BATCH", seed) for seed in SEEDS] + [(3, "FLOATS", seed) for seed in SEEDS],
    ids=[str(seed) for seed in SEEDS] + [f"floats-{seed}" for seed in SEEDS],
)
def test_blocks_of_one_give_the_text_of_the_default_blocks(monkeypatch, degree, limit, seed):
    default = selftest.run_selftest((2, 4, 6), 5, degree, seed).render_text()
    monkeypatch.setattr(obstruction, limit, 1)
    assert _batch_sizes(monkeypatch, (2, 4, 6), 5, degree, seed) == (default, [1] * 15)


def test_repeated_dimensions_fill_their_own_residuals(monkeypatch):
    ref = oracle.run_selftest_per_sample((4, 4), 3, 1, 1)
    _refuse_trees(monkeypatch)
    _assert_same_report(selftest.run_selftest((4, 4), 3, 1, 1), ref)


# a report is a Record: it compares equal to the report of the same arguments
def test_equal_runs_give_equal_reports():
    first = selftest.run_selftest((2, 4), 3, 1, 7)
    assert first == selftest.run_selftest((2, 4), 3, 1, 7)
    assert first != selftest.run_selftest((2, 4), 3, 1, 8)


def test_the_float_budget_splits_large_frames(monkeypatch):
    # C(9, 3) = 84, C(11, 3) = 165 and C(13, 3) = 286 terms an entry; C(17, 3) = 680 leaves one sample a batch
    assert (obstruction.BATCH, obstruction.FLOATS) == (128, 1 << 18)
    for dim, block in zip((2, 6, 8, 10, 14), (128, 86, 24, 9, 1)):  # one sample more than a batch
        assert _batch_sizes(monkeypatch, (dim,), block + 1, 3, 0)[1] == [block, 1], dim
    assert _batch_sizes(monkeypatch, (16,), 65, 0, 0)[1] == [64, 1]  # 16^3 report floats a sample


def test_failure_lines_name_the_sample_across_blocks(monkeypatch):
    # blocks of 3 split each dimension's 4 samples; a zero tolerance fails most of them
    for module in (selftest, oracle):
        monkeypatch.setattr(module, "TOL_LEDGER", 0.0)
    ref = oracle.run_selftest_per_sample((2, 4), 4, 2, 7)
    monkeypatch.setattr(obstruction, "BATCH", 3)
    new = selftest.run_selftest((2, 4), 4, 2, 7)
    assert any(" sample=3 " in line for line in ref.failures)
    _assert_same_report(new, ref)


def test_random_frames_read_back_from_a_structure_file_up_to_the_parser_limit():
    field = random_conjugation_acs(8, 4, 0)  # 495 terms an entry
    sf = StructureFile(ChartSpec.default(8), field, None)
    assert parse_structure(serialize_structure(sf)) == sf
    # 680 terms an entry: the diagonal entries, 1 + the sum, are the deepest
    frame = random_conjugation_acs(14, 3, 0).frame
    for i in range(14):
        assert expr.parse_expr(expr.to_source(frame[i][i])) == frame[i][i]


# the terms are counted, not listed: listing the 501,501 monomials of (2, 1000) took 7.6 s
@pytest.mark.parametrize(
    "dim, degree, terms", [(16, 3, 969), (10, 4, 1001), (18, 3, 1330), (2, 1000, 501501), (2, 100000, 5000150001)]
)
def test_random_frames_too_deep_to_read_back_are_refused(dim, degree, terms):
    message = f"^a random frame with {terms} terms per entry nests too deeply for a structure file$"
    start = time.perf_counter()
    with pytest.raises(ValueError, match=message):
        random_conjugation_acs(dim, degree, 0)
    assert time.perf_counter() - start < 1.0
