"""Write the output of a fixed set of acscheck invocations to OUT_DIR.

    python3 tests/determinism.py OUT_DIR [--src SRC]

Run it for two versions of the program and compare the two directories with
`diff -r`: no difference means the two give byte-identical text, JSON, CSV,
stderr and exit codes on this set (README, "Command line").  `--src` names
the `src/` directory to import acscheck from (default: the one beside this
script), so one copy of this script serves both versions.

The set, built from the benchmark's inputs in `bench/run.py`:

- `check` and `verify-derivation`, text and `--json`, on the five structures
  of the benchmark's cold checks, at their seeded points for seeds 1 to 3;
- `scan` over both benchmark grids (Euclidean and compatible-metric
  `pullback4`) at seeds 1 to 3, with the CSV named relative to OUT_DIR;
- `selftest --dims 2,4,6 --samples 100 --degree 2` at seeds 11 to 15 and 42,
  and `selftest --dims 6 --samples 1600 --degree 1 --seed 6`;
- `selftest --dims 2,4,6,8 --samples 30 --degree 3 --seed 6`, which prints
  failure lines with their `frame_cond`;
- `selftest --dims 2,4 --samples 7 --degree 0` at seeds 2**32 + 1 and
  2**64 + 1, whose entropies `[seed, dim, index]` are four and five 32-bit
  words, `selftest --dims 8 --samples 1 --seed 0` and
  `selftest --dims 6 --samples 400 --degree 3 --seed 6`;
- frames refused as singular, from the structures of STRUCTURES, written to
  OUT_DIR: `check` at an exactly singular conjugation frame and pullback
  Jacobian and scans across them, and a scan of the nearly singular frame
  `[[1, 1], [1, 1 + x1]]` over `-1e-12 <= x1 <= 1e-12`;
- powers with an exponent that reads a variable: `check` of `x1^(x2*x2)`,
  as an explicit entry and as a pullback component, at `(-0.5, 0)` and
  `(0.5, 0)`, scans of the explicit entry over `-1:1:5,-1:1:5` and
  `0.5:2:3,-1:1:3`, and `check` of `2^x1` in both forms;
- fields that overflow to non-finite entries at `x1 = 0.5`, one of each
  kind;
- `check` of `random_conjugation_acs(8, 3, ILL_FIELD_SEED)`, serialised to
  OUT_DIR, at ILL_POINT: sample 8 of dimension 8 of the selftest above, a
  valid conjugation whose max|J| is 2.38e4;
- four refusals: the benchmark's overflow probe, `selftest --seed -1`,
  `selftest --degree -1` and `check --point 0.1,,0.2,0.3,0.4`;
- five more refusals: `check` of entries nested past the parser's limits
  (NESTED: 400 parentheses, 1,200 minus signs, 985 minus signs before
  `x1`, and a sum of 1,000 terms), and a scan whose axis of 10**17 points
  no 64-bit address space can hold;
- `check` at the origin of MIRRORED, written to OUT_DIR: a 2-D structure
  whose `[metric]` gives `1 2` and `2 1` as the same entry, a sum 790
  levels deep, so that parsing compares two trees of that height;
- `selftest --dims 18 --samples 2 --degree 0 --seed 0` and
  `selftest --dims 16 --samples 100 --degree 0 --seed 0`, where both
  metric draws, and 95 of the 100, are not positive definite at their
  point, so that their constant term is shifted to one that is;
- a scan of `standard2n:66` over a one-point grid of 66 axes, more than
  the 64 dimensions numpy's `unravel_index` takes;
- `selftest --dims 2,4 --samples 600 --degree 1 --seed 3`, whose samples
  run in five blocks of `obstruction.BATCH` (128) or fewer per dimension;
- `selftest --dims 8,10 --samples 64 --degree 3 --seed 1`, whose samples
  run in blocks of 24 and of 9, the most that `obstruction.FLOATS` admits,
  and `selftest --dims 4,4 --samples 3 --degree 1 --seed 1`, a dimension
  given twice;
- a scan of `standard2n:24` over `0:1:40` and 23 axes `0:0:1`, which runs
  in chunks of 18, 18 and 4 points: 24^3 report floats a point, the most
  that `obstruction.FLOATS` admits;
- SHEAR4_METRIC, written to OUT_DIR: `shear4`'s `J` under a polynomial SPD
  metric it is not compatible with, so that its obstruction does not vanish
  and shows how far numbers on the metric path move.  `check --json` and
  `verify-derivation` at the two SHEAR4_METRIC_POINTS, and a scan over
  `-1:1:3` on each axis;
- scans whose points repeat their jets: `gallery:expblock4`, which reads
  `x1` alone, over `-1:1:5` on each axis (5 distinct jets across 5
  chunks), and the singular conjugation frame over `-1:1:3,0:1:100`, whose
  100 failing points at `x1 = 0` span two chunks;
- a scan of the conjugation `1 2 = x1` over `-0.0:0:2,0:0:1`, whose first
  row is at `x1 = -0.0`, and a scan of the benchmark's overflow probe over
  `600:800:64,0:1:4`, where every report is non-finite, so that both chunks
  are run again point by point;
- scans whose points repeat the coordinates their fields read: the
  constant `standard2n:8` over 512 points in four chunks, the pullback
  `2 = x2 + sin(x1)`, which reads `x1` alone, over `-1:1:3,-1:1:200` with
  `x2` fastest, and the singular conjugation frame over `-1:1:3,0:1:1000`,
  whose chunks of points 896..1023 and 1920..2047 each hold two values of
  `x1`, one of them failing.
- scans whose axes repeat or sign their values, where a chunk formats each
  distinct axis value once: `pullback4` over `-0.0:1:3,-1:1:3,-0.0:0:2,0:1:2`,
  whose read axes `x1` and `x3` start at `-0.0`, and over
  `0.5:0.5:3,0.1:0.3:7,0.1:0.3:7,0.5:0.5:3`, whose equal values of `x1`
  are one key and whose steps of 0.3/6 are not exact, and `standard2n:4`
  over `1e-300:1e300:3` on each axis.

Every other metric case above has a vanishing obstruction (the compatible
`pullback4`) or a constant `J` (MIRRORED).  Besides the invocations,
`random-frame-16-3.out` holds the outcome of `random_conjugation_acs(16, 3,
0)`, a frame whose 969-term entries nest too deeply for a structure file:
its one-line refusal, or `built` where it is not refused.

Every invocation runs in this process through `acscheck.cli.main`, with
OUT_DIR as the working directory; an exception that escapes `main` is
recorded as a process would end: exit 1 and a traceback's first and last
lines on stderr.  Per invocation NAME the directory holds
NAME.out (stdout), NAME.err (stderr, when there is any) and NAME.csv for a
scan; `invocations.txt` lists each name, its arguments and its exit code.
It writes 218 files.  Not collected by pytest; about 4 s on a 2-vCPU x86-64
host.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import io
import os
import random
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 2, 3)
SELFTEST_SEEDS = (11, 12, 13, 14, 15, 42)
STRUCTURES = {  # file name -> structure text
    "singular-conjugation.acs": "[chart]\ndim = 2\n[J]\nkind = conjugation\n1 1 = x1\n",
    "singular-pullback.acs": "[chart]\ndim = 2\n[J]\nkind = pullback\n1 = x1^2\n",
    "near-singular.acs": "[chart]\ndim = 2\n[J]\nkind = conjugation\n1 2 = 1\n2 1 = 1\n2 2 = 1 + x1\n",
    "square-exponent-explicit.acs": "[chart]\ndim = 2\n[J]\n1 2 = -1 - x1^(x2*x2)\n2 1 = 1/(1 + x1^(x2*x2))\n",
    "square-exponent-pullback.acs": "[chart]\ndim = 2\n[J]\nkind = pullback\n1 = x1 + x1^(x2*x2)\n",
    "float-base-explicit.acs": "[chart]\ndim = 2\n[J]\n1 2 = -2^x1\n2 1 = 2^(-x1)\n",
    "float-base-pullback.acs": "[chart]\ndim = 2\n[J]\nkind = pullback\n1 = 2^x1 + x2\n",
    "non-finite-explicit.acs": "[chart]\ndim = 2\n[J]\n1 2 = -1e300*x1*1e300\n",
    "non-finite-conjugation.acs": "[chart]\ndim = 2\n[J]\nkind = conjugation\n1 1 = 1e300*x1*1e300\n",
    "non-finite-pullback.acs": "[chart]\ndim = 2\n[J]\nkind = pullback\n1 = 1e300*x1*x1*1e300\n",
    "conjugation-x1.acs": "[chart]\ndim = 2\n[J]\nkind = conjugation\n1 2 = x1\n",
    "pullback-sine.acs": "[chart]\ndim = 2\n[J]\nkind = pullback\n2 = x2 + sin(x1)\n",
}
DEEP_SUM = "+".join(["x1"] * 791)  # a tree of 790 levels
MIRRORED = f"[chart]\ndim = 2\n[J]\n1 2 = -1\n2 1 = 1\n[metric]\n1 2 = {DEEP_SUM}\n2 1 = {DEEP_SUM}\n"
# diagonally dominant, so positive definite on [-1, 1]^4
SHEAR4_METRIC = (
    "[chart]\ndim = 4\n[J]\nkind = conjugation\n1 3 = x1\n[metric]\n1 1 = 2 + x1^2\n1 2 = 0.3*x2\n"
    "1 3 = 0.2*x1*x4\n2 2 = 1.5 + x3^2\n2 4 = 0.1*x1\n3 3 = 1 + x2^2\n4 4 = 2 + x3*x4\n"
)
SHEAR4_METRIC_POINTS = ("0.3,-0.2,0.5,0.7", "-0.6,0.4,0.1,-0.8")
NESTED = {  # name -> an entry nested too deeply for the parser or the AST walkers
    "parentheses": "-" + "(" * 400 + "1" + ")" * 400,
    "minuses": "-" * 1200 + "1",
    "minuses-x1": "-" * 985 + "x1",
    "sum": "+".join(["1"] * 1000),
}


ILL_FIELD_SEED = 1467295807674471777
ILL_POINT = (
    "0.80480963670686523,0.036042293462262509,0.47643494467726144,0.85689565664129874,"
    "0.17347221800568668,0.39013736506786012,0.33555348186956413,0.11906631159965186"
)


def _bench():
    spec = importlib.util.spec_from_file_location("acscheck_bench_run", ROOT / "bench" / "run.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _slug(spec: str) -> str:
    return spec.removeprefix("gallery:").replace(":", "-") if spec.startswith("gallery:") else Path(spec).stem


def _structure(spec: str) -> str:
    return spec if spec.startswith("gallery:") else str(ROOT / spec)


def invocations(bench) -> list:
    """(name, argv) pairs, in a fixed order."""
    out = []
    for seed in SEEDS:
        rng = random.Random(seed * 7919 + 2)  # the points of bench/run.py's check_ops
        for spec in bench.CHECK_SPECS:
            for k in range(bench.CHECK_POINTS):
                point = "--point=" + ",".join(repr(rng.uniform(-1.0, 1.0)) for _ in range(4))
                for command, json in (("check", ""), ("check", "--json"), ("verify-derivation", "")):
                    name = f"{command}{json.replace('--', '-')}-{_slug(spec)}-s{seed}p{k}"
                    out.append((name, [command, _structure(spec), point, *([json] if json else [])]))
    for seed in SEEDS:
        for kind, spec, counts in (
            ("euclid", "gallery:pullback4", bench.EUCLID_COUNTS),
            ("metric", bench.METRIC_FILE, bench.METRIC_COUNTS),
        ):
            name = f"scan-{kind}-s{seed}"
            grid = "--grid=" + ",".join(f"{lo!r}:{hi!r}:{c}" for lo, hi, c in bench.seeded_grid(seed, counts))
            out.append((name, ["scan", _structure(spec), grid, "--out", f"{name}.csv"]))
    for seed in SELFTEST_SEEDS:
        args = ["--dims", "2,4,6", "--samples", "100", "--degree", "2", "--seed", str(seed)]
        out.append((f"selftest-s{seed}", ["selftest", *args]))
    out.append(("selftest-dim6-s6", ["selftest", "--dims", "6", "--samples", "1600", "--degree", "1", "--seed", "6"]))
    args = ["--dims", "2,4,6,8", "--samples", "30", "--degree", "3", "--seed", "6"]
    out.append(("selftest-dim8-s6", ["selftest", *args]))
    for seed in ("4294967297", "18446744073709551617"):  # entropies of four and five words
        out.append((f"selftest-s{seed}", ["selftest", "--dims", "2,4", "--samples", "7", "--degree", "0", "--seed", seed]))
    out.append(("selftest-dim8-one", ["selftest", "--dims", "8", "--samples", "1", "--seed", "0"]))
    args = ["--dims", "6", "--samples", "400", "--degree", "3", "--seed", "6"]
    out.append(("selftest-dim6-degree3", ["selftest", *args]))
    for kind in ("conjugation", "pullback"):
        name = f"singular-{kind}"
        out.append((f"check-{name}", ["check", f"{name}.acs", "--point", "0,0"]))
        out.append((f"scan-{name}", ["scan", f"{name}.acs", "--grid=-1:1:3,0:0:1", "--out", f"scan-{name}.csv"]))
    near = ["near-singular.acs", "--grid=-1e-12:1e-12:5,0:0:1", "--out", "scan-near-singular.csv"]
    out.append(("scan-near-singular", ["scan", *near]))
    for form in ("explicit", "pullback"):
        for x1 in ("-0.5", "0.5"):
            out.append((f"check-square-exponent-{form}-{x1}", ["check", f"square-exponent-{form}.acs", f"--point={x1},0"]))
        out.append((f"check-float-base-{form}", ["check", f"float-base-{form}.acs", "--point=0.7,-0.2", "--json"]))
    for k, grid in enumerate(("-1:1:5,-1:1:5", "0.5:2:3,-1:1:3")):
        name = f"scan-square-exponent-{k}"
        out.append((name, ["scan", "square-exponent-explicit.acs", f"--grid={grid}", "--out", f"{name}.csv"]))
    for kind in ("explicit", "conjugation", "pullback"):
        out.append((f"check-non-finite-{kind}", ["check", f"non-finite-{kind}.acs", "--point", "0.5,0"]))
    out.append(("check-ill-conditioned", ["check", "ill-conditioned.acs", "--point", ILL_POINT]))
    out.append(("probe-overflow", ["check", _structure(bench.PROBE_FILE), "--point", "800,0"]))
    out.append(("refuse-seed", ["selftest", "--dims", "2", "--samples", "1", "--seed", "-1"]))
    out.append(("refuse-degree", ["selftest", "--dims", "2", "--samples", "1", "--degree", "-1"]))
    out.append(("refuse-empty-point-field", ["check", "gallery:shear4", "--point", "0.1,,0.2,0.3,0.4"]))
    for name in NESTED:
        out.append((f"refuse-nested-{name}", ["check", f"nested-{name}.acs", "--point", "0,0"]))
    huge = ["gallery:pullback4", f"--grid=0:1:{10**17},0:0:1,0:0:1,0:0:1", "--out", "refuse-huge-grid.csv"]
    out.append(("refuse-huge-grid", ["scan", *huge]))
    out.append(("check-mirrored-deep-metric", ["check", "mirrored-deep-metric.acs", "--point", "0,0"]))
    out.append(("selftest-dim18", ["selftest", "--dims", "18", "--samples", "2", "--degree", "0", "--seed", "0"]))
    out.append(("selftest-dim16", ["selftest", "--dims", "16", "--samples", "100", "--degree", "0", "--seed", "0"]))
    axes66 = ["gallery:standard2n:66", "--grid=" + ",".join(["0:0:1"] * 66), "--out", "scan-66-axes.csv"]
    out.append(("scan-66-axes", ["scan", *axes66]))
    for k, point in enumerate(SHEAR4_METRIC_POINTS):
        out.append((f"check-json-shear4-metric-p{k}", ["check", "shear4-metric.acs", f"--point={point}", "--json"]))
        out.append((f"verify-derivation-shear4-metric-p{k}", ["verify-derivation", "shear4-metric.acs", f"--point={point}"]))
    grid = ["--grid=-1:1:3,-1:1:3,-1:1:3,-1:1:3", "--out", "scan-shear4-metric.csv"]
    out.append(("scan-shear4-metric", ["scan", "shear4-metric.acs", *grid]))
    args = ["--dims", "2,4", "--samples", "600", "--degree", "1", "--seed", "3"]
    out.append(("selftest-blocks", ["selftest", *args]))
    args = ["--dims", "8,10", "--samples", "64", "--degree", "3", "--seed", "1"]
    out.append(("selftest-float-budget", ["selftest", *args]))
    args = ["--dims", "4,4", "--samples", "3", "--degree", "1", "--seed", "1"]
    out.append(("selftest-repeated-dims", ["selftest", *args]))
    axes24 = ["gallery:standard2n:24", "--grid=" + ",".join(["0:1:40"] + ["0:0:1"] * 23), "--out", "scan-24-axes.csv"]
    out.append(("scan-24-axes", ["scan", *axes24]))
    grid = ["--grid=-1:1:5,-1:1:5,-1:1:5,-1:1:5", "--out", "scan-expblock4-repeats.csv"]
    out.append(("scan-expblock4-repeats", ["scan", "gallery:expblock4", *grid]))
    grid = ["--grid=-1:1:3,0:1:100", "--out", "scan-singular-conjugation-repeats.csv"]
    out.append(("scan-singular-conjugation-repeats", ["scan", "singular-conjugation.acs", *grid]))
    grid = ["--grid=-0.0:0:2,0:0:1", "--out", "scan-negative-zero-bound.csv"]
    out.append(("scan-negative-zero-bound", ["scan", "conjugation-x1.acs", *grid]))
    grid = ["--grid=600:800:64,0:1:4", "--out", "scan-overflow-every-point.csv"]
    out.append(("scan-overflow-every-point", ["scan", _structure(bench.PROBE_FILE), *grid]))
    grid = ["--grid=" + ",".join(["-1:1:4"] * 4 + ["0:1:2"] + ["0:0:1"] * 3), "--out", "scan-standard2n-8-chunks.csv"]
    out.append(("scan-standard2n-8-chunks", ["scan", "gallery:standard2n:8", *grid]))
    grid = ["--grid=-1:1:3,-1:1:200", "--out", "scan-pullback-sine.csv"]
    out.append(("scan-pullback-sine", ["scan", "pullback-sine.acs", *grid]))
    grid = ["--grid=-1:1:3,0:1:1000", "--out", "scan-singular-conjugation-chunks.csv"]
    out.append(("scan-singular-conjugation-chunks", ["scan", "singular-conjugation.acs", *grid]))
    for name, spec, axes in (
        ("scan-negative-zero-read-axes", "gallery:pullback4", "-0.0:1:3,-1:1:3,-0.0:0:2,0:1:2"),
        ("scan-equal-and-inexact-values", "gallery:pullback4", "0.5:0.5:3,0.1:0.3:7,0.1:0.3:7,0.5:0.5:3"),
        ("scan-wide-magnitudes", "gallery:standard2n:4", ",".join(["1e-300:1e300:3"] * 4)),
    ):
        out.append((name, ["scan", spec, f"--grid={axes}", "--out", f"{name}.csv"]))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out_dir", type=Path)
    parser.add_argument("--src", type=Path, default=ROOT / "src", help="directory holding the acscheck package")
    args = parser.parse_args(argv)
    bench = _bench()  # also pins the BLAS threads to one, before numpy loads
    sys.path.insert(0, str(args.src.resolve()))
    from acscheck.cli import main as acscheck
    from acscheck.geometry import ChartSpec, random_conjugation_acs
    from acscheck.structures import StructureFile, serialize_structure

    args.out_dir.mkdir(parents=True, exist_ok=True)
    os.chdir(args.out_dir)
    for name, text in STRUCTURES.items():
        Path(name).write_text(text, encoding="utf-8")
    for name, entry in NESTED.items():
        Path(f"nested-{name}.acs").write_text(f"[chart]\ndim = 2\n[J]\n1 2 = {entry}\n", encoding="utf-8")
    Path("mirrored-deep-metric.acs").write_text(MIRRORED, encoding="utf-8")
    Path("shear4-metric.acs").write_text(SHEAR4_METRIC, encoding="utf-8")
    ill = StructureFile(ChartSpec.default(8), random_conjugation_acs(8, 3, ILL_FIELD_SEED), None)
    Path("ill-conditioned.acs").write_text(serialize_structure(ill), encoding="utf-8")
    try:
        random_conjugation_acs(16, 3, 0)
        outcome = "built"
    except ValueError as exc:
        outcome = f"ValueError: {exc}"
    Path("random-frame-16-3.out").write_text(outcome + "\n", encoding="utf-8")
    lines = []
    for name, argv_ in invocations(bench):
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = acscheck(argv_)
            except Exception as exc:  # what a process would print, and its exit code
                stderr.write("Traceback (most recent call last):\n" + "".join(traceback.format_exception_only(exc)))
                code = 1
        Path(f"{name}.out").write_text(stdout.getvalue(), encoding="utf-8")
        if stderr.getvalue():
            Path(f"{name}.err").write_text(stderr.getvalue(), encoding="utf-8")
        shown = [a.replace(str(ROOT), ".") for a in argv_]
        lines.append(f"{name} exit={code}: acscheck {' '.join(shown)}\n")
    Path("invocations.txt").write_text("".join(lines), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
