"""Output checks for the acscheck benchmark, and the expected values they use.

Every check returns a list of error strings; an empty list means the output
is correct.  Expected values are derived with sympy through
``tests/symbolic.py`` (exact J, Nijenhuis tensor from Lie brackets, and the
obstruction scalar transcribed index by index), never copied from an earlier
run of the program.  The checks themselves import neither sympy nor acscheck,
so they can be tested on hand-made outputs.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import re

# Tolerances for values compared with an exact (sympy) result.
REL = 1e-9
ABS = 1e-12
# Ceiling for quantities that must vanish (N, contraction, compatible-metric
# obstruction), as in the acceptance tests.
ZERO = 1e-8
# Ceiling for the pointwise J^2 = -I residual of a reported point.
J_SQUARED = 1e-9
MAX_ERRORS = 5

SCAN_NUMERIC = ("n_max_abs", "obstruction", "contraction", "identity_residual_contraction")


def close(got: float, want: float) -> bool:
    return abs(got - want) <= max(REL * abs(want), ABS)


def grid_points(axes):
    """Row-major grid coordinates (last axis fastest), as numpy's linspace."""
    values = []
    for lo, hi, count in axes:
        if count == 1:
            values.append([lo])
        else:
            step = (hi - lo) / (count - 1)
            values.append([lo + i * step for i in range(count - 1)] + [hi])
    return itertools.product(*values)


def _finite(text: str):
    try:
        value = float(text)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


def check_scan(csv_text: str, stdout: str, axes, var_names, row_check, summary_max):
    """Check a `scan` CSV and its summary.

    `row_check(coords, values)` returns an error string or None for one row
    (`values` maps the numeric column names to floats).  `summary_max(rows)`
    returns an error string or None for the summary's max |obstruction|,
    given every row's (coords, values).
    """
    errors = []
    rows = list(csv.reader(io.StringIO(csv_text)))
    header = list(var_names) + list(SCAN_NUMERIC) + ["status"]
    if not rows or rows[0] != header:
        return [f"csv header {rows[0] if rows else None!r}, expected {header!r}"]
    body = rows[1:]
    expected = list(grid_points(axes))
    if len(body) != len(expected):
        errors.append(f"csv has {len(body)} rows, grid has {len(expected)} points")
    parsed = []
    for index, (row, want) in enumerate(zip(body, expected)):
        if len(errors) >= MAX_ERRORS:
            break
        where = f"row {index + 1}"
        if len(row) != len(header):
            errors.append(f"{where}: {len(row)} fields, expected {len(header)}")
            continue
        numbers = [_finite(v) for v in row[:-1]]
        if any(v is None for v in numbers):
            errors.append(f"{where}: non-finite or unparsable field in {row!r}")
            continue
        coords, values = numbers[: len(var_names)], numbers[len(var_names):]
        if any(abs(c - w) > 1e-12 * (1.0 + abs(w)) for c, w in zip(coords, want)):
            errors.append(f"{where}: coordinates {coords} are not grid point {list(want)}")
            continue
        if row[-1] != "consistent":
            errors.append(f"{where}: status {row[-1]!r}")
            continue
        values = dict(zip(SCAN_NUMERIC, values))
        problem = row_check(coords, values)
        if problem:
            errors.append(f"{where} at {coords}: {problem}")
            continue
        parsed.append((coords, values))
    if errors:
        return errors
    lines = stdout.splitlines()
    if not lines or lines[0] != f"scan: {len(expected)} points, 0 flagged":
        errors.append(f"scan summary line {lines[0] if lines else None!r}")
    match = re.match(r"max \|obstruction\| = (\S+) at ", lines[1] if len(lines) > 1 else "")
    if not match or _finite(match.group(1)) is None:
        errors.append(f"scan max line {lines[1] if len(lines) > 1 else None!r}")
    else:
        problem = summary_max(float(match.group(1)), parsed)
        if problem:
            errors.append(problem)
    return errors


def euclid_row_check(obstruction_of):
    """Rows of pullback4 under the Euclidean metric: N = 0, contraction 0,
    obstruction equal to the exact closed form `obstruction_of(coords)`."""

    def check(coords, values):
        if values["n_max_abs"] > ZERO:
            return f"n_max_abs {values['n_max_abs']!r} > {ZERO}"
        if abs(values["contraction"]) > ZERO:
            return f"|contraction| {values['contraction']!r} > {ZERO}"
        want = obstruction_of(coords)
        if not close(values["obstruction"], want):
            return f"obstruction {values['obstruction']!r}, exact {want!r}"
        return None

    return check


def euclid_summary_check(obstruction_of):
    def check(reported, rows):
        want = max(abs(obstruction_of(coords)) for coords, _ in rows)
        if not close(reported, want):
            return f"summary max |obstruction| {reported!r}, exact {want!r}"
        return None

    return check


def metric_row_check(coords, values):
    """Rows of pullback4 under its J-compatible metric: N = 0, obstruction 0."""
    if values["n_max_abs"] > ZERO:
        return f"n_max_abs {values['n_max_abs']!r} > {ZERO}"
    if abs(values["obstruction"]) > ZERO:
        return f"|obstruction| {values['obstruction']!r} > {ZERO}"
    return None


def metric_summary_check(reported, rows):
    if abs(reported) > ZERO:
        return f"summary max |obstruction| {reported!r} > {ZERO}"
    return None


_INVARIANT = re.compile(r"^\s+(\d+)/(\d+)\s+(\S.*)$")


def check_selftest(stdout: str, returncode: int, dims, samples: int, degree: int, seed: int):
    """`selftest` text: exit 0, every hard invariant n/n with the right totals."""
    errors = []
    if returncode != 0:
        errors.append(f"selftest exit code {returncode}")
    lines = stdout.splitlines()
    header = (
        f"self-test: dims={','.join(str(d) for d in dims)} "
        f"samples={samples} degree={degree} seed={seed}"
    )
    if not lines or lines[0] != header:
        errors.append(f"selftest header {lines[0] if lines else None!r}")
    try:
        start = lines.index("hard invariants") + 2
    except ValueError:
        return errors + ["selftest has no hard-invariant table"]
    total = samples * len(dims)
    dim2 = samples * sum(1 for d in dims if d == 2)
    invariants = 0
    for line in itertools.takewhile(bool, lines[start:]):
        match = _INVARIANT.match(line)
        if not match:
            errors.append(f"selftest invariant line {line!r}")
            continue
        invariants += 1
        passed, applicable, name = int(match.group(1)), int(match.group(2)), match.group(3)
        if passed != applicable:
            errors.append(f"selftest invariant failed: {line.strip()!r}")
        if name.startswith("zero propagation"):
            if not dim2 <= applicable <= total:
                errors.append(f"zero propagation applies to {applicable} samples, expected {dim2}..{total}")
        elif applicable != total:
            errors.append(f"{name!r} applies to {applicable} samples, expected {total}")
    if invariants != 7:
        errors.append(f"selftest lists {invariants} hard invariants, expected 7")
    for line in lines:
        match = re.match(r"^\s+(\S+) / (\S+) / (\S+)\s", line)
        if match and any(_finite(v) is None for v in match.groups()):
            errors.append(f"selftest residual line {line.strip()!r} is not finite")
    if not lines or lines[-1] != "overall: PASS":
        errors.append(f"selftest last line {lines[-1] if lines else None!r}")
    return errors


def _scalars(report: dict):
    yield "j_squared_residual", report["j_squared_residual"]
    for key in ("n_max_abs", "obstruction", "contraction", "double_trace",
                "identity_residual_trace", "identity_residual_contraction"):
        yield key, report[key]
    for group in ("ledger", "cancellation_residuals"):
        for key, value in report[group].items():
            yield f"{group}.{key}", value


def check_report(stdout: str, stderr: str, returncode: int, point, expected: dict):
    """`check --json` output at `point`.

    `expected` holds `n_max_abs` and `obstruction` (exact values, or None for
    "must vanish"), and `all_zero` (every scalar exactly 0).
    """
    if returncode != 0:
        return [f"check exit code {returncode}: {stderr.strip()[-200:]!r}"]
    if stderr:
        return [f"check wrote to stderr: {stderr.strip()[-200:]!r}"]
    try:
        report = json.loads(stdout)
    except ValueError as exc:
        return [f"check output is not JSON: {exc}"]
    errors = []
    if report.get("point") != list(point):
        errors.append(f"check point {report.get('point')!r}, asked {list(point)!r}")
    if report.get("verdict") != "consistent":
        errors.append(f"check verdict {report.get('verdict')!r}")
    scalars = dict(_scalars(report))
    bad = [k for k, v in scalars.items() if not isinstance(v, float) or not math.isfinite(v)]
    if bad:
        return errors + [f"check non-finite scalars {bad}"]
    if scalars["j_squared_residual"] > J_SQUARED:
        errors.append(f"j_squared_residual {scalars['j_squared_residual']!r} > {J_SQUARED}")
    for key in ("n_max_abs", "obstruction"):
        want = expected[key]
        got = scalars[key]
        if want is None:
            if abs(got) > ZERO:
                errors.append(f"|{key}| {got!r} > {ZERO}")
        elif not close(got, want):
            errors.append(f"{key} {got!r}, exact {want!r}")
    if expected.get("all_zero"):
        nonzero = [k for k, v in scalars.items() if v != 0.0]
        if nonzero:
            errors.append(f"scalars not 0: {nonzero}")
    return errors


def probe_succeeded(stderr: str, returncode: int) -> bool:
    """An input the program cannot evaluate must end in exit code 1 and one
    line on stderr, never a traceback."""
    return returncode == 1 and len(stderr.splitlines()) == 1 and "Traceback" not in stderr


# ---------------------------------------------------------------------------
# Expected values, derived with sympy (imported on first use).


def derive_euclid(gallery_name: str):
    """Exact obstruction of a gallery structure under the Euclidean metric.

    Returns (closed form as text, float function of the coordinates, errors);
    errors name a failed premise (J^2 != -I, N not identically 0).
    """
    import sympy
    import symbolic
    from acscheck.structures import gallery

    sf = gallery(gallery_name)
    xs = symbolic.coordinates(sf.chart)
    j = symbolic.field_matrix(sf.j_field, xs)
    errors = []
    if sympy.simplify(j * j + sympy.eye(len(xs))) != sympy.zeros(len(xs)):
        errors.append(f"{gallery_name}: J^2 != -I symbolically")
    if any(c != 0 for c in symbolic.nijenhuis(j, xs)):
        errors.append(f"{gallery_name}: Nijenhuis tensor is not identically 0")
    obs = symbolic.obstruction(j, xs)
    return str(obs), sympy.lambdify(xs, obs, "math"), errors


def derive_compatible(path):
    """Premises of the metric scan: the structure file's metric is
    Dphi^T Dphi for its own map phi, that metric is J-compatible, and N = 0."""
    import sympy
    import symbolic
    from acscheck.structures import load_structure

    sf = load_structure(path)
    xs = symbolic.coordinates(sf.chart)
    j = symbolic.field_matrix(sf.j_field, xs)
    dphi = symbolic.jacobian(sf.j_field.components, xs)
    g = dphi.T * dphi
    errors = []
    if sympy.expand(symbolic.matrix(sf.metric.entries, xs) - g) != sympy.zeros(len(xs)):
        errors.append(f"{path}: metric is not Dphi^T Dphi")
    if sympy.simplify(j.T * g * j - g) != sympy.zeros(len(xs)):
        errors.append(f"{path}: metric is not J-compatible")
    if any(c != 0 for c in symbolic.nijenhuis(j, xs)):
        errors.append(f"{path}: Nijenhuis tensor is not identically 0")
    return errors


def derive_point_values(spec: str, points):
    """Exact n_max_abs and Euclidean obstruction of a structure at points.

    `spec` is `gallery:<name>` or a structure file path.  A structure with a
    metric gets `obstruction: None` (it must vanish: every metric in this
    benchmark is J-compatible, which `derive_compatible` proves).
    """
    import sympy
    import symbolic
    from acscheck.structures import gallery, load_structure

    sf = gallery(spec[8:]) if spec.startswith("gallery:") else load_structure(spec)
    xs = symbolic.coordinates(sf.chart)
    j = symbolic.field_matrix(sf.j_field, xs)
    comps = [c for c in symbolic.nijenhuis(j, xs) if c != 0]
    obs = None if sf.metric is not None else symbolic.obstruction(j, xs)
    out = []
    for point in points:
        at = {x: sympy.Rational(v) for x, v in zip(xs, point)}
        n_max = max((abs(float(c.subs(at).evalf(30))) for c in comps), default=0.0)
        out.append(
            {
                "n_max_abs": n_max,
                "obstruction": None if obs is None else float(obs.subs(at).evalf(30)),
                "all_zero": spec.startswith("gallery:standard2n:"),
            }
        )
    return out
