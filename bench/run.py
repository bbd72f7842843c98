"""Benchmark acscheck end to end through its CLI, and per layer in a traced run.

Run from the root of a checkout (the program is imported from `src/`):

    python3 bench/run.py --workload scan-euclid --seed 1 --seconds 25 --trace 0

Workloads: scan-euclid, scan-metric, selftest, check-cold (see README.md).
With `--trace 0` every acscheck invocation is its own process, run one at a
time with BLAS threads pinned to 1, and the end-to-end metrics are printed;
their times are scaled to a reference host speed, which a fixed calibration
loop measures between invocations (see README.md).
With `--trace 1` the same invocations run in this process through
`acscheck.cli.main`, once plain and once with every module's public
functions wrapped, and the per-layer metrics are printed.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
Spans, CSVs and a run report are written under `bench/out/`.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TESTS = ROOT / "tests"
OUT = Path("bench/out")  # paths below are relative to ROOT, the working directory
METRIC_FILE = "bench/structures/pullback4_compatible.acs"
PROBE_FILE = "bench/structures/overflow2.acs"

WORKLOADS = ("scan-euclid", "scan-metric", "selftest", "check-cold")
# Structures every round of cold checks visits, at CHECK_POINTS seeded points each.
CHECK_SPECS = (
    "gallery:standard2n:4",
    "gallery:expblock4",
    "gallery:shear4",
    "gallery:pullback4",
    METRIC_FILE,
)
CHECK_POINTS = 2
EUCLID_COUNTS = (10, 10, 10, 10)
METRIC_COUNTS = (8, 8, 8, 8)
# A fixed selftest seed: some seeds fail a hard invariant (see README.md).
SELFTEST = {"dims": (2, 4, 6), "samples": 20, "degree": 2, "seed": 42}
MIN_ROUNDS = 2  # repetitions within a run are compared byte for byte
# A set-up sample is taken before an invocation whenever this much time has
# passed since the last one, so that the samples span the whole run.
SETUP_EVERY_S = 1.5
IMPORT_REPEATS = 5
# Calibration: its work, and the time it takes at the reference speed, near
# its median on the development machine (see README.md).
CAL_LOOP = 400_000
CAL_NUMPY = 2_000
CAL_REF_S = 0.080

END_TO_END = {"setup_s": "s", "points_per_ref_s": "points/s", "peak_rss_mb": "MB"}
# Per-layer metrics of the result line: the layers that run in every
# workload's traced run, which ends with one round of in-process checks on
# CHECK_SPECS.  TABLE_ONLY layers run in one or two workloads; they are
# printed in the table and written to the run report.
PER_LAYER = {
    "cli.import_ms": "ms",
    "structures.load_ms": "ms",
    "expr.eval_us": "us",
    "jets.ops_per_point": "count",
    "geometry.field_eval_us.pullback": "us",
    "geometry.field_eval_us.conjugation": "us",
    "geometry.field_eval_us.explicit": "us",
    "geometry.metric_eval_us": "us",
    "geometry.normal_change_us": "us",
    "geometry.validate_acs_us": "us",
    "nijenhuis.standard_us": "us",
    "nijenhuis.standard_calls_per_point": "count",
    "nijenhuis.big_n_us": "us",
    "nijenhuis.double_trace_us": "us",
    "nijenhuis.contraction_us": "us",
    "obstruction.scalar_us": "us",
    "obstruction.ledger_us": "us",
    "obstruction.report_self_us": "us",
    "trace.overhead_pct": "%",
}
TABLE_ONLY = {"scan.self_us_per_row": "us", "selftest.draw_us": "us", "selftest.self_us_per_sample": "us"}


@dataclass
class Result:
    """What one acscheck invocation produced."""

    wall: float
    returncode: int
    stdout: str
    stderr: str
    rss_mb: Optional[float] = None


@dataclass
class Op:
    """One acscheck invocation: its arguments, the work units it performs,
    and the check of its output, which returns (units failed, errors)."""

    kind: str  # scan | selftest | check | probe
    argv: list
    units: int
    verify: Callable[[Result], tuple]
    csv_path: Optional[Path] = None


@dataclass
class Workload:
    name: str
    setup_specs: tuple
    main: list
    coverage: list = field(default_factory=list)  # traced run only
    notes: dict = field(default_factory=dict)
    premise_errors: list = field(default_factory=list)


class Spawner:
    """Children started through bench/spawn.py, a small process, so that
    their peak RSS does not include this process's memory."""

    def __init__(self):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        self.proc = subprocess.Popen(
            [sys.executable, "bench/spawn.py"], stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True, env=env,
        )

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.proc.stdin.close()
        self.proc.stdout.close()
        self.proc.wait(timeout=60)

    def run(self, argv: list) -> Result:
        """Run one child to its end: its wall time, exit code, output, peak RSS."""
        out, err = OUT / "child.stdout", OUT / "child.stderr"
        request = {"argv": argv, "stdout": str(out), "stderr": str(err)}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("bench/spawn.py ended unexpectedly")
        reply = json.loads(line)
        return Result(
            reply["wall"],
            reply["returncode"],
            out.read_text(encoding="utf-8", errors="replace"),
            err.read_text(encoding="utf-8", errors="replace"),
            reply["rss_mb"],
        )

    def run_cli(self, args: list) -> Result:
        return self.run([sys.executable, "-m", "acscheck.cli", *args])


def run_in_process(args: list) -> Result:
    """`acscheck.cli.main` in this process; an escaping exception is reported
    as the interpreter would report it: exit code 1, traceback on stderr."""
    from acscheck import cli

    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(args)
        except Exception:  # the program's uncaught error is the outcome measured
            traceback.print_exc()
            code = 1
    return Result(time.perf_counter() - start, code, out.getvalue(), err.getvalue())


# ---------------------------------------------------------------------------
# Workload inputs, made from the seed, with their output checks.


def seeded_grid(seed: int, counts) -> list:
    rng = random.Random(seed * 7919 + 1)
    return [(-rng.uniform(0.5, 1.5), rng.uniform(0.5, 1.5), c) for c in counts]


def check_ops(seed: int) -> list:
    """Cold `check --json` on every structure of CHECK_SPECS at seeded points
    in [-1, 1]^4, each compared with values derived by sympy."""
    import checks

    rng = random.Random(seed * 7919 + 2)
    ops = []
    for spec in CHECK_SPECS:
        points = [tuple(rng.uniform(-1.0, 1.0) for _ in range(4)) for _ in range(CHECK_POINTS)]
        for point, expected in zip(points, checks.derive_point_values(spec, points)):

            def verify(result, point=point, expected=expected):
                if result.returncode == 1:
                    return 1, []
                return 0, checks.check_report(result.stdout, result.stderr, result.returncode, point, expected)

            argv = ["check", spec, "--point=" + ",".join(repr(v) for v in point), "--json"]
            ops.append(Op("check", argv, 1, verify))
    return ops


def probe_op() -> Op:
    """Overflow probe: exp(800) must end in a one-line error, not a traceback."""
    import checks

    def verify(result):
        return (0 if checks.probe_succeeded(result.stderr, result.returncode) else 1), []

    return Op("probe", ["check", PROBE_FILE, "--point", "800,0"], 1, verify)


def slabs(axes) -> list:
    """The grid `axes` cut into one grid per value of x1, its slowest axis,
    so that a round is several invocations and a run holds enough of them
    for a steady median rate; the slabs' points are the grid's, in order."""
    import checks

    return [((x1, x1, 1), *axes[1:]) for (x1,) in checks.grid_points(axes[:1])]


def scan_op(name: str, spec: str, axes, row_check, summary_check) -> Op:
    import checks

    csv_path = OUT / f"{name}.csv"
    var_names = [f"x{i + 1}" for i in range(len(axes))]
    rows = 1
    for _, _, count in axes:
        rows *= count

    def verify(result):
        if result.returncode == 1:
            return rows, []
        if result.returncode != 0:
            return 0, [f"scan exit code {result.returncode}"]
        text = csv_path.read_text(encoding="utf-8")
        flagged = sum(1 for line in text.splitlines()[1:] if ",error: " in line)
        return flagged, checks.check_scan(text, result.stdout, axes, var_names, row_check, summary_check)

    grid = "--grid=" + ",".join(f"{lo!r}:{hi!r}:{c}" for lo, hi, c in axes)
    return Op("scan", ["scan", spec, grid, "--out", str(csv_path)], rows, verify, csv_path)


def build_workload(name: str, seed: int) -> Workload:
    """Inputs and expected values of one workload; sympy runs here, before
    anything is timed."""
    import checks

    if name == "check-cold":
        wl = Workload(name, CHECK_SPECS, check_ops(seed) + [probe_op()])
        wl.notes["checks"] = [op.argv[1:3] for op in wl.main]
    elif name == "scan-euclid":
        axes = seeded_grid(seed, EUCLID_COUNTS)
        closed_form, obstruction_of, errors = checks.derive_euclid("pullback4")

        def exact(coords):
            return obstruction_of(*coords)

        ops = [scan_op(f"{name}-{k}", "gallery:pullback4", slab,
                       checks.euclid_row_check(exact), checks.euclid_summary_check(exact))
               for k, slab in enumerate(slabs(axes))]
        wl = Workload(name, ("gallery:pullback4",), ops, premise_errors=errors)
        wl.notes.update(grid=axes, exact_obstruction=closed_form)
    elif name == "scan-metric":
        axes = seeded_grid(seed, METRIC_COUNTS)
        ops = [scan_op(f"{name}-{k}", METRIC_FILE, slab, checks.metric_row_check, checks.metric_summary_check)
               for k, slab in enumerate(slabs(axes))]
        wl = Workload(name, (METRIC_FILE,), ops)
        wl.notes["grid"] = axes
    elif name == "selftest":
        params = SELFTEST
        samples = params["samples"] * len(params["dims"])

        def verify(result):
            if result.returncode == 1:
                return samples, []
            return 0, checks.check_selftest(result.stdout, result.returncode, **params)

        argv = ["selftest", "--dims", ",".join(map(str, params["dims"])), "--samples",
                str(params["samples"]), "--degree", str(params["degree"]), "--seed", str(params["seed"])]
        wl = Workload(name, (), [Op("selftest", argv, samples, verify)])
        wl.notes["selftest"] = params
    else:
        raise ValueError(f"unknown workload {name!r}")
    if name != "check-cold":
        wl.coverage = check_ops(seed)
    wl.premise_errors += checks.derive_compatible(METRIC_FILE)  # every workload checks it
    return wl


# ---------------------------------------------------------------------------
# Running, timing and checking.


class Tally:
    """Operations attempted and failed, output errors, and output digests."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list = []
        self.digests: dict = {}

    def record(self, key, op: Op, result: Result) -> None:
        failed, errors = op.verify(result)
        self.attempted += op.units
        self.failed += failed
        self.errors += [f"{op.kind} {op.argv[1]}: {e}" for e in errors]
        h = hashlib.sha256(result.stdout.encode())
        if op.csv_path is not None and op.csv_path.exists():
            h.update(op.csv_path.read_bytes())
        self.digests.setdefault(key, set()).add(h.hexdigest())

    def nondeterministic(self) -> list:
        """Repetitions of one invocation must give byte-identical output."""
        return [f"{' '.join(key)}: {len(d)} different outputs" for key, d in self.digests.items() if len(d) > 1]


def run_rounds(ops: list, tally: Tally, runner, seconds: float, min_rounds: int, before=None) -> list:
    """Whole rounds of `ops`, at least `min_rounds`, then more while one
    more round of the mean length still ends within `seconds`.  `before`
    runs before every invocation."""
    rounds = []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if len(rounds) >= min_rounds and elapsed * (len(rounds) + 1) / len(rounds) > seconds:
            return rounds
        results = []
        for op in ops:
            if before is not None:
                before()
            result = runner(op.argv)
            tally.record(tuple(op.argv[:3]), op, result)
            results.append(result)
        rounds.append(results)


def setup_argv(specs) -> list:
    """A fresh interpreter that imports acscheck and loads `specs`."""
    code = (
        "import acscheck.cli\n"
        "from acscheck.structures import gallery, load_structure\n"
        f"for s in {list(specs)!r}:\n"
        "    gallery(s[8:]) if s.startswith('gallery:') else load_structure(s)\n"
    )
    return [sys.executable, "-c", code]


def run_checked(spawner: Spawner, argv: list) -> Result:
    result = spawner.run(argv)
    if result.returncode != 0:
        raise RuntimeError(f"{argv[2][:40]!r} failed: {result.stderr.strip()[-300:]}")
    return result


def measure_import_ms(spawner: Spawner) -> list:
    code = "import time\nt = time.perf_counter()\nimport acscheck.cli\nprint(time.perf_counter() - t)\n"
    return [1000.0 * float(run_checked(spawner, [sys.executable, "-c", code]).stdout)
            for _ in range(IMPORT_REPEATS)]


def untraced(spawner: Spawner, wl: Workload, seconds: int, tally: Tally, report: dict) -> dict:
    """Whole rounds of the workload's invocations, each its own process.
    The host's speed is measured by `calibrate` before every invocation and
    after the last; each time is scaled to the reference speed by the
    calibration next to it (see README.md)."""
    argv = setup_argv(wl.setup_specs)
    run_checked(spawner, argv)  # compiles bytecode on a fresh checkout
    calibrate()  # first-call costs of the calibration itself
    cal, setup, last = [], [], [-SETUP_EVERY_S]

    def before():
        cal.append(calibrate())
        if time.perf_counter() - last[0] >= SETUP_EVERY_S:
            setup.append((run_checked(spawner, argv).wall, cal[-1]))
            last[0] = time.perf_counter()

    rounds = run_rounds(wl.main, tally, spawner.run_cli, seconds, MIN_ROUNDS, before)
    cal.append(calibrate())
    done = [(op, r) for results in rounds for op, r in zip(wl.main, results)]
    work = [(op, r, (cal[i] + cal[i + 1]) / 2) for i, (op, r) in enumerate(done) if op.kind != "probe"]
    report.update(
        calibration_s=cal, setup_s=[w for w, _ in setup], setup_calibration_s=[c for _, c in setup],
        rounds=len(rounds), units=[op.units for op, _, _ in work], walls_s=[r.wall for _, r, _ in work],
        peak_rss_mb=[r.rss_mb for _, r, _ in work],
        unscaled={"setup_s": statistics.median(w for w, _ in setup),
             "points_per_s": statistics.median(op.units / r.wall for op, r, _ in work)},
    )
    return {
        "setup_s": statistics.median(w * CAL_REF_S / c for w, c in setup),
        "points_per_ref_s": statistics.median(op.units / r.wall * c / CAL_REF_S for op, r, c in work),
        "peak_rss_mb": max(r.rss_mb for _, r, _ in work),
    }


def calibrate() -> float:
    """Seconds taken by a fixed piece of work that shares no code with
    acscheck: interpreted integer arithmetic, then small numpy calls (numpy
    dispatch on 4x4 arrays is what acscheck's per-point layers mostly do)."""
    import numpy as np

    start = time.perf_counter()
    total = 0
    for i in range(CAL_LOOP):
        total += i * i % 7
    a = np.arange(16.0).reshape(4, 4) / 7 + 4 * np.eye(4)
    for _ in range(CAL_NUMPY):
        b = np.einsum("ij,jk->ik", a, a)
        np.linalg.solve(a, b[:, 0])
        float(np.abs(b).max())
    return time.perf_counter() - start


def traced(spawner: Spawner, wl: Workload, tally: Tally, report: dict) -> dict:
    """The workload in this process, once plain (the reference time) and
    once with every layer wrapped, then one wrapped round of checks on
    CHECK_SPECS so that every layer has calls.  The cheap ops run once before
    all of it, so that first-call costs, large beside one check, fall in
    neither timed pass."""
    import tracing

    import_ms = measure_import_ms(spawner)
    cheap = [op for op in wl.main if op.kind in ("check", "probe")] + wl.coverage
    run_rounds(cheap, tally, run_in_process, 0, 1)
    start = time.perf_counter()
    run_rounds(wl.main, tally, run_in_process, 0, 1)
    plain_wall = time.perf_counter() - start
    tracer = tracing.Tracer()
    tracer.install()
    try:
        start = time.perf_counter()
        run_rounds(wl.main, tally, run_in_process, 0, 1)
        traced_wall = time.perf_counter() - start
        main_spans, main_ops = len(tracer.spans), tracer.counts["jets.ops"]
        if wl.coverage:
            run_rounds(wl.coverage, tally, run_in_process, 0, 1)
    finally:
        tracer.uninstall()
    work = [op for op in wl.main if op.kind != "probe"]
    layers = tracing.layer_metrics(
        tracer.self_times(),
        Counter(name for name, *_ in tracer.spans[:main_spans]),
        main_ops,
        units=sum(op.units for op in work),
        rows=sum(op.units for op in work if op.kind == "scan"),
        samples=sum(op.units for op in work if op.kind == "selftest"),
    )
    layers["cli.import_ms"] = statistics.median(import_ms)
    layers["trace.overhead_pct"] = 100.0 * (traced_wall / plain_wall - 1.0)
    spans_path = OUT / f"trace-{wl.name}.jsonl"
    tracer.write(spans_path)
    report.update(
        import_ms=import_ms,
        plain_wall_s=plain_wall,
        traced_wall_s=traced_wall,
        spans=len(tracer.spans),
        main_spans=main_spans,
        spans_file=str(spans_path),
        self_times={k: {"calls": c, "self_s": t} for k, (c, t) in sorted(tracer.self_times().items())},
        counts=dict(tracer.counts),
        layers=layers,
    )
    return layers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "acscheck" / "cli.py").is_file() or not (TESTS / "symbolic.py").is_file():
        print(f"bench: no acscheck source under {ROOT} (need src/acscheck and tests/symbolic.py)",
              file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path[:0] = [str(SRC), str(TESTS)]
    OUT.mkdir(exist_ok=True)

    with Spawner() as spawner:  # started while this process is still small
        wl = build_workload(args.workload, args.seed)
        tally = Tally()
        report = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "inputs": wl.notes}
        if args.trace:
            values = traced(spawner, wl, tally, report)
            units = {**PER_LAYER, **TABLE_ONLY}
        else:
            values = untraced(spawner, wl, args.seconds, tally, report)
            units = END_TO_END
    errors = wl.premise_errors + tally.errors + tally.nondeterministic()
    report.update(attempted=tally.attempted, failed=tally.failed, errors=errors,
                  digests={" ".join(k): sorted(d) for k, d in tally.digests.items()})
    (OUT / f"report-{wl.name}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1, default=str) + "\n", encoding="utf-8")

    print(f"{wl.name} seed={args.seed}: attempted {tally.attempted}, failed {tally.failed}, "
          f"output errors {len(errors)}")
    for error in errors[:10]:
        print(f"  error: {error}")
    for name, unit in units.items():
        print(f"  {name:<38} {values[name]:>14.6g} {unit}")
    for name, value in report.get("unscaled", {}).items():
        print(f"  {name + ' (unscaled)':<38} {value:>14.6g} {END_TO_END.get(name, 'points/s')}")
    keep = PER_LAYER if args.trace else END_TO_END
    result = {
        "correct": not errors,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in keep.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
