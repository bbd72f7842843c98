"""Command-line interface.

Exit codes: 0 = consistent report / suite passed, 1 = operational error
(bad flags, unreadable file, singular metric, ...), 2 = the structure fails
the pointwise J^2 = -I check, 3 = ledger anomaly (expansion total and
contraction disagree at the requested tolerance; also used by `selftest`
for hard-invariant failures).
"""

from __future__ import annotations

import gc

if __name__ == "__main__":  # a process: no collections while it imports
    gc.disable()

import argparse
import atexit
import contextlib
import math
import os
import sys

from . import __version__
from .obstruction import (
    VERDICT_CONSISTENT,
    VERDICT_INVALID_ACS,
    VERDICT_LEDGER_ANOMALY,
    _tolerance_fault,
    identity_report,
    render_report,
)
from .structures import (
    StructureFile,
    gallery,
    gallery_description,
    gallery_names,
    load_structure,
    serialize_structure,
)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INVALID_ACS = 2
EXIT_LEDGER_ANOMALY = 3

_VERDICT_EXIT = {
    VERDICT_CONSISTENT: EXIT_OK,
    VERDICT_INVALID_ACS: EXIT_INVALID_ACS,
    VERDICT_LEDGER_ANOMALY: EXIT_LEDGER_ANOMALY,
}


class _ArgumentParser(argparse.ArgumentParser):
    # usage problems are operational errors, not structure verdicts
    def error(self, message):
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


# `scan` and `selftest` are imported when their command runs, so that a
# `check` loads neither; these names stay here for callers that patch them.
def run_scan(*args, **kwargs):
    from .scan import run_scan

    return run_scan(*args, **kwargs)


def run_selftest(*args, **kwargs):
    from .selftest import run_selftest

    return run_selftest(*args, **kwargs)


def _load(spec: str) -> StructureFile:
    if spec.startswith("gallery:"):
        return gallery(spec.split(":", 1)[1])
    return load_structure(spec)


def point(text: str) -> tuple[float, ...]:
    """--point: comma-separated finite coordinates."""
    coords = tuple(float(p) for p in text.split(","))  # float("") refuses an empty field
    for k, value in enumerate(coords, start=1):
        if not math.isfinite(value):
            raise argparse.ArgumentTypeError(f"coordinate {k} is not finite: {value}")
    return coords


def tolerance(text: str) -> float:
    """--tol-alg, --tol-identity: a finite, non-negative number."""
    value = float(text)
    if fault := _tolerance_fault(value):
        raise argparse.ArgumentTypeError(fault)
    return value


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


def dims(text: str) -> tuple[int, ...]:
    """--dims: comma-separated dimensions."""
    try:
        return tuple(int(d) for d in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from None


def _cmd_check(args) -> int:
    sf = _load(args.structure)
    rep = identity_report(
        sf.j_field, sf.metric, sf.chart, args.point, tol_alg=args.tol_alg, tol_identity=args.tol_identity
    )
    if args.json:
        import json  # only --json needs it; a cold start skips its import

        sys.stdout.write(json.dumps(rep, indent=2) + "\n")
    else:
        sys.stdout.write(render_report(rep, ledger_detail=args.ledger_detail))
    return _VERDICT_EXIT[rep["verdict"]]


def _cmd_scan(args) -> int:
    from .scan import GridSpec

    sf = _load(args.structure)
    grid = GridSpec.parse(args.grid)
    summary = run_scan(sf, grid, args.out, tol_alg=args.tol_alg, tol_identity=args.tol_identity)
    sys.stdout.write(summary.render_text())
    return EXIT_OK


def _cmd_gallery(args) -> int:
    if args.action == "list":
        for name in gallery_names():
            sys.stdout.write(f"{name:<16} {gallery_description(name)}\n")
        return EXIT_OK
    if not args.name:
        raise ValueError("gallery show needs a structure name")
    sys.stdout.write(serialize_structure(gallery(args.name)))
    return EXIT_OK


def _cmd_selftest(args) -> int:
    report = run_selftest(args.dims, args.samples, args.degree, args.seed)
    sys.stdout.write(report.render_text())
    return EXIT_OK if report.all_passed() else EXIT_LEDGER_ANOMALY


def _add_point_arguments(p: argparse.ArgumentParser, ledger_detail: bool) -> None:
    p.add_argument("structure", help="structure file path, or gallery:<name>")
    p.add_argument(
        "--point",
        required=True,
        type=point,
        help="comma-separated finite coordinates, e.g. 0,0,0,0",
    )
    p.add_argument("--json", action="store_true", help="emit the JSON report")
    _add_tolerance_arguments(p)
    p.set_defaults(ledger_detail=ledger_detail)


def _add_tolerance_arguments(p: argparse.ArgumentParser) -> None:
    for flag, what in (
        ("--tol-alg", "tolerance for the J^2 = -I check"),
        ("--tol-identity", "relative tolerance for ledger-vs-contraction"),
    ):
        p.add_argument(flag, type=tolerance, default=1e-9, help=f"{what} (default 1e-9)")


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="acscheck",
        description=(
            "Numeric integrability diagnostics for almost-complex structures: "
            "Nijenhuis tensor, obstruction scalar, and the identity ledger "
            "relating them."
        ),
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_ArgumentParser)

    p_check = sub.add_parser("check", help="full report for one structure at one point")
    _add_point_arguments(p_check, ledger_detail=False)
    p_check.set_defaults(func=_cmd_check)

    p_verify = sub.add_parser(
        "verify-derivation",
        help="ledger-focused report: all sixteen expansion terms and residuals",
    )
    _add_point_arguments(p_verify, ledger_detail=True)
    p_verify.set_defaults(func=_cmd_check)

    p_scan = sub.add_parser("scan", help="evaluate a grid of points and write a CSV")
    p_scan.add_argument("structure", help="structure file path, or gallery:<name>")
    p_scan.add_argument(
        "--grid", required=True, help="per-axis lo:hi:count, comma separated"
    )
    p_scan.add_argument("--out", required=True, help="output CSV path")
    _add_tolerance_arguments(p_scan)
    p_scan.set_defaults(func=_cmd_scan)

    p_gallery = sub.add_parser("gallery", help="list or print the built-in structures")
    p_gallery.add_argument("action", choices=("list", "show"))
    p_gallery.add_argument("name", nargs="?", default=None)
    p_gallery.set_defaults(func=_cmd_gallery)

    p_selftest = sub.add_parser("selftest", help="randomised invariant suite and residual tables")
    p_selftest.add_argument("--dims", type=dims, default="2,4", help="comma-separated even dims")
    p_selftest.add_argument("--samples", type=positive_int, default=25)
    p_selftest.add_argument("--degree", type=non_negative_int, default=2)
    p_selftest.add_argument("--seed", type=non_negative_int, default=0)
    p_selftest.set_defaults(func=_cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_ERROR
    except (OSError, ValueError) as exc:
        sys.stderr.write(f"acscheck: error: {exc}\n")
        return EXIT_ERROR
    except MemoryError as exc:  # numpy's names the allocation; Python's own has no text
        sys.stderr.write(f"acscheck: error: out of memory: {exc}".removesuffix(": ") + "\n")
        return EXIT_ERROR


# How `run` ends the process; a test replaces it, so that pytest goes on.
_exit = os._exit


def run() -> None:
    # Freezing first moves the import-time objects out of the collector's
    # generations, so that no collection walks them; the command then runs
    # with the normal collector (`python -m` switched it off for the imports).
    gc.freeze()
    gc.enable()
    code = main()
    # No module teardown: the exit does what an output depends on, flushing
    # stdio and running the atexit handlers, and leaves (README, "Start-up
    # cost").  `main` leaves the collector alone for library callers.
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except OSError as exc:  # a closed pipe ends as an OSError in `main` does
        code = EXIT_ERROR
        with contextlib.suppress(OSError):
            sys.stderr.write(f"acscheck: error: {exc}\n")
            sys.stderr.flush()
    atexit._run_exitfuncs()
    _exit(code)


if __name__ == "__main__":
    run()
