"""List the lines of `src/acscheck` that no test runs.

    python3 tests/line_hits.py [PYTEST_ARGS ...]

Runs the suite (pytest's `testpaths`, or PYTEST_ARGS) in this process under
a line tracer, `sys.settrace` and `threading.settrace`, that records only
frames whose code lives in `src/acscheck`.  It then prints, file by file,
each executable line (a line of some code object's `co_lines`) that no test
ran, as `path:line: source`, and the count.  Lines run only in a child
process (`tests/test_cli_process.py`) count as not run.  The suite's exit
code is printed, not returned: the listing is the product.  Not collected
by pytest; about 2 minutes on a 2-vCPU x86-64 host, twice the untraced
suite.
"""

from __future__ import annotations

import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "acscheck"


def executable_lines(path: Path) -> set:
    """The line numbers that some code object compiled from `path` runs,
    without the first line of each function body's code object: the `def`
    (or decorator) line runs in the enclosing code, not in the function."""
    lines, todo = set(), [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while todo:
        code = todo.pop()
        own = {line for _, _, line in code.co_lines() if line}  # None or 0: no source line
        if code.co_name != "<module>":
            own.discard(code.co_firstlineno)
        lines |= own
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def main(argv=None) -> int:
    import pytest

    os.chdir(ROOT)  # pytest reads its testpaths only when run from the root
    prefix = str(PACKAGE) + "/"
    hits = set()

    def local(frame, event, arg):
        if event == "line":
            hits.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", *(argv or [])])
    finally:
        still = sys.gettrace() is tracer
        sys.settrace(None)
        threading.settrace(None)
    if not still:
        print("warning: the tracer was replaced during the run; the listing is incomplete")
    missed = 0
    for path in sorted(PACKAGE.glob("*.py")):
        run = {line for name, line in hits if name == str(path)}
        source = path.read_text(encoding="utf-8").splitlines()
        for line in sorted(executable_lines(path) - run):
            print(f"{path.relative_to(ROOT)}:{line}: {source[line - 1].strip()}")
            missed += 1
    print(f"{missed} lines not run (pytest exit code {int(code)})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
