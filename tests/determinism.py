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
- three refusals: the benchmark's overflow probe, `selftest --seed -1` and
  `selftest --degree -1`.

Every invocation runs in this process through `acscheck.cli.main`, with
OUT_DIR as the working directory.  Per invocation NAME the directory holds
NAME.out (stdout), NAME.err (stderr, when there is any) and NAME.csv for a
scan; `invocations.txt` lists each name, its arguments and its exit code.
Not collected by pytest; about 4 s on a 2-vCPU x86-64 host.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import io
import os
import random
import sys
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
}


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
    out.append(("probe-overflow", ["check", _structure(bench.PROBE_FILE), "--point", "800,0"]))
    out.append(("refuse-seed", ["selftest", "--dims", "2", "--samples", "1", "--seed", "-1"]))
    out.append(("refuse-degree", ["selftest", "--dims", "2", "--samples", "1", "--degree", "-1"]))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out_dir", type=Path)
    parser.add_argument("--src", type=Path, default=ROOT / "src", help="directory holding the acscheck package")
    args = parser.parse_args(argv)
    bench = _bench()  # also pins the BLAS threads to one, before numpy loads
    sys.path.insert(0, str(args.src.resolve()))
    from acscheck.cli import main as acscheck

    args.out_dir.mkdir(parents=True, exist_ok=True)
    os.chdir(args.out_dir)
    for name, text in STRUCTURES.items():
        Path(name).write_text(text, encoding="utf-8")
    lines = []
    for name, argv_ in invocations(bench):
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = acscheck(argv_)
        Path(f"{name}.out").write_text(stdout.getvalue(), encoding="utf-8")
        if stderr.getvalue():
            Path(f"{name}.err").write_text(stderr.getvalue(), encoding="utf-8")
        shown = [a.replace(str(ROOT), ".") for a in argv_]
        lines.append(f"{name} exit={code}: acscheck {' '.join(shown)}\n")
    Path("invocations.txt").write_text("".join(lines), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
