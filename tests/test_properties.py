"""Property test of the CLI contract on generated 4-D structure files.

Every input ends one of two ways: a report with an exit code for its verdict,
or exit 1 with a one-line error.  A scan writes one row per grid point, and
each row is either finite or flagged ``error:``.  The files cover explicit,
conjugation and pullback fields built from random expressions with exp, log,
sqrt, division and powers, with and without a metric section.  A second
family perturbs the expblock4 pattern slightly off J^2 = -I and checks it
under ``--tol-alg 1``, where a real ledger anomaly (exit 3) is reachable.
The same files check that serialising a structure and parsing it back gives
an equal structure and the same text.
"""

import contextlib
import csv
import io
import math
import tempfile
from pathlib import Path

from hypothesis import example, given
from hypothesis import strategies as st

from test_cli_scan import NEAR_ACS4, NEAR_ACS4_POINT
from acscheck.cli import main
from acscheck.expr import to_source
from acscheck.structures import parse_structure, serialize_structure

_VARS = ("x1", "x2", "x3", "x4")


def _exprs():
    leaves = st.one_of(
        st.tuples(st.just("const"), st.sampled_from((0.0, 0.5, 1.0, 2.0, 3.0))),
        st.tuples(st.just("var"), st.sampled_from(_VARS)),
    )

    def extend(children):
        return st.one_of(
            st.tuples(st.sampled_from(("add", "sub", "mul", "div", "pow")), children, children),
            st.tuples(st.just("neg"), children),
            st.tuples(st.sampled_from(("exp", "log", "sqrt")), children),
        )

    return st.recursive(leaves, extend, max_leaves=5).map(to_source)


_INDEX = st.integers(1, 4)
_PAIR = st.tuples(_INDEX, _INDEX)


def _entries(draw, keys, max_size):
    """Distinct `<key> = <expression>` lines."""
    chosen = draw(st.dictionaries(keys, _exprs(), max_size=max_size))
    return [" ".join(map(str, k)) + f" = {e}" for k, e in chosen.items()]


@st.composite
def _structures(draw):
    kind = draw(st.sampled_from(("explicit", "conjugation", "pullback")))
    lines = ["[chart]", "dim = 4", "[J]", f"kind = {kind}"]
    if kind == "explicit":
        # the expblock4 pattern, a valid J wherever f is finite and non-zero,
        # plus entries in the first block that usually break J^2 = -I
        f = draw(_exprs())
        lines += ["1 2 = -1", "2 1 = 1", f"3 4 = -({f})", f"4 3 = 1/({f})"]
        lines += _entries(draw, st.sampled_from(((1, 1), (1, 3), (2, 4), (4, 1))), 2)
    elif kind == "conjugation":
        lines += _entries(draw, _PAIR, 3)
    else:
        lines += _entries(draw, _INDEX.map(lambda i: (i,)), 3)
    if draw(st.booleans()):
        lines.append("[metric]")
        for i, j in draw(st.sets(_PAIR.map(sorted).map(tuple), min_size=1, max_size=3)):
            entry = draw(_exprs())
            if i == j:
                lines.append(f"{i} {i} = 1 + ({entry})^2")
            else:
                lines += [f"{i} {j} = {entry}", f"{j} {i} = {entry}"]
    return "\n".join(lines) + "\n"


@given(_structures())
def test_serialized_structure_parses_back_equal(text):
    sf = parse_structure(text)
    canonical = serialize_structure(sf)
    again = parse_structure(canonical)
    assert again == sf
    assert serialize_structure(again) == canonical


_COORD = st.one_of(
    st.floats(-3.0, 3.0, allow_nan=False),
    st.sampled_from((0.0, 800.0, -800.0, 1e-300)),
)


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


_VERDICTS = {0: "consistent", 2: "invalid-acs", 3: "ledger-anomaly"}


def _check(path, point, *flags):
    """Run `check`; exit 1 prints one stderr line and no report, any other
    exit prints the report of its verdict and nothing on stderr."""
    point_arg = ",".join(format(v, ".17g") for v in point)
    code, out, err = _run(["check", str(path), f"--point={point_arg}", *flags])
    if code == 1:
        assert out == "" and err.endswith("\n") and err.count("\n") == 1
    else:
        assert err == "" and f"\nverdict: {_VERDICTS[code]}\n" in out
    return code


@given(
    _structures(),
    st.lists(_COORD, min_size=4, max_size=4),
    st.lists(st.tuples(_COORD, st.integers(1, 2)), min_size=4, max_size=4),
)
def test_cli_ends_in_a_report_or_one_line_error(text, point, axes):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "structure.acs"
        path.write_text(text, encoding="utf-8")
        _check(path, point)

        grid = ",".join(f"{lo!r}:{lo + 0.5!r}:{count}" for lo, count in axes)
        out = Path(tmp) / "scan.csv"
        code, _, err = _run(["scan", str(path), f"--grid={grid}", "--out", str(out)])
        assert (code, err) == (0, "")
        with out.open(encoding="utf-8") as handle:
            rows = list(csv.reader(handle))[1:]
    assert len(rows) == math.prod(count for _, count in axes)
    for row in rows:
        numbers, status = [float(v) for v in row[4:-1]], row[-1]
        assert status.startswith("error: ") or all(map(math.isfinite, numbers))


_SMALL = st.sampled_from((0.0, 0.001, 0.01, 0.05))


@st.composite
def _near_acs(draw):
    """The expblock4 pattern with small polynomial terms added to entries of
    its first block and its off-block corners, so J^2 + I is small but not 0."""
    lines = ["[chart]", "dim = 4", "[J]", "2 1 = 1", "3 4 = -exp(x1)", "4 3 = exp(-x1)"]
    monomial = st.lists(st.sampled_from(_VARS), min_size=1, max_size=2).map("*".join)
    perturbed = draw(st.sets(st.sampled_from(("1 3", "1 4", "2 3", "2 4", "3 1")), max_size=2))
    lines.append(f"1 2 = -1-{draw(_SMALL)!r}*{draw(monomial)}")
    lines += [f"{key} = {draw(_SMALL)!r}*{draw(monomial)}" for key in sorted(perturbed)]
    return "\n".join(lines) + "\n"


@given(_near_acs(), st.lists(st.floats(-1.0, 1.0, allow_nan=False), min_size=4, max_size=4))
@example(NEAR_ACS4, list(NEAR_ACS4_POINT))
def test_near_acs_under_loose_tolerance_ends_in_a_report_or_one_line_error(text, point):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "structure.acs"
        path.write_text(text, encoding="utf-8")
        code = _check(path, point, "--tol-alg", "1")
    if (text, point) == (NEAR_ACS4, list(NEAR_ACS4_POINT)):
        assert code == 3  # the measured real ledger anomaly
