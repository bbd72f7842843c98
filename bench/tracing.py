"""In-process tracing of acscheck's public functions, for per-layer figures.

The benchmark's traced run wraps functions of every module from outside the
program: a wrapper records a span (name, start, end, parent) per call, or
only counts calls for functions too small and frequent to time.  Names bound
at import are patched where they are used (e.g. `acscheck.scan.identity_report`),
so every call site sees the wrapper.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import json
from collections import Counter
from time import perf_counter

# (module or class path, attribute, span name).  A span name may be patched
# at several call sites; each call makes one span.
SPANNED = (
    ("acscheck.cli", "gallery", "structures.load"),
    ("acscheck.cli", "load_structure", "structures.load"),
    ("acscheck.expr", "bind_and_eval", "expr.eval"),
    ("acscheck.geometry.ExplicitField", "eval", "geometry.field_eval.explicit"),
    ("acscheck.geometry.ConjugationField", "eval", "geometry.field_eval.conjugation"),
    ("acscheck.geometry.PullbackField", "eval", "geometry.field_eval.pullback"),
    ("acscheck.geometry.MetricField", "eval", "geometry.metric_eval"),
    ("acscheck.geometry.NormalChange", "from_metric", "geometry.normal_change.from_metric"),
    ("acscheck.geometry.NormalChange", "transform_endomorphism", "geometry.normal_change.transform"),
    ("acscheck.geometry", "validate_acs", "geometry.validate_acs"),
    ("acscheck.geometry", "random_conjugation_acs", "selftest.draw"),
    ("acscheck.nijenhuis", "nijenhuis_standard", "nijenhuis.standard"),
    ("acscheck.nijenhuis", "big_n", "nijenhuis.big_n"),
    ("acscheck.nijenhuis", "double_trace", "nijenhuis.double_trace"),
    ("acscheck.nijenhuis", "contraction_scalar", "nijenhuis.contraction"),
    ("acscheck.obstruction", "obstruction_scalar", "obstruction.scalar"),
    ("acscheck.obstruction", "term_ledger", "obstruction.ledger"),
    ("acscheck.obstruction", "report_from_jets", "obstruction.report"),
    ("acscheck.selftest", "report_from_jets", "obstruction.report"),
    ("acscheck.obstruction", "identity_report", "obstruction.identity_report"),
    ("acscheck.cli", "identity_report", "obstruction.identity_report"),
    ("acscheck.scan", "identity_report", "obstruction.identity_report"),
    ("acscheck.cli", "run_scan", "scan.run_scan"),
    ("acscheck.cli", "run_selftest", "selftest.run_selftest"),
)
# Called hundreds of thousands of times per selftest: counted, not timed.
COUNTED = (("acscheck.jets", "jet_apply", "jets.ops"),)


def _resolve(path: str):
    import importlib

    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for attr in parts[cut:]:
            obj = getattr(obj, attr)
        return obj
    raise ImportError(path)


class Tracer:
    """Spans and call counts of one traced run."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def span(self, name: str, fn):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            record[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()

        return wrapper

    def counter(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        for table, make in ((SPANNED, self.span), (COUNTED, self.counter)):
            for owner_path, attr, name in table:
                owner = _resolve(owner_path)
                raw = owner.__dict__[attr]
                self._saved.append((owner, attr, raw))
                if isinstance(raw, classmethod):
                    setattr(owner, attr, classmethod(make(name, raw.__func__)))
                else:
                    setattr(owner, attr, make(name, raw))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def self_times(self) -> dict[str, tuple[int, float]]:
        """name -> (calls, total self seconds); self = span minus its children."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, list] = {}
        for (name, start, end, _), inner in zip(self.spans, child):
            entry = out.setdefault(name, [0, 0.0])
            entry[0] += 1
            entry[1] += end - start - inner
        return {name: (calls, total) for name, (calls, total) in out.items()}

    def write(self, path) -> None:
        """Spans as JSON lines: name, start and end in seconds, parent index."""
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent in self.spans:
                handle.write(json.dumps([name, round(start, 9), round(end, 9), parent]) + "\n")


def layer_metrics(self_times: dict, main_calls: Counter, main_ops: int, units: int, rows: int, samples: int):
    """Per-layer figures.  Times are self times per call, over every span;
    per-point counts and per-row or per-sample times are over the workload's
    own operations (`main_calls`, `main_ops`: span and jet-op counts of
    them), whose `units` count scan rows, selftest samples and checks."""

    def per_call_us(*names, per=None):
        calls = sum(self_times.get(n, (0, 0.0))[0] for n in names)
        total = sum(self_times.get(n, (0, 0.0))[1] for n in names)
        denominator = calls if per is None else self_times.get(per, (0, 0.0))[0]
        return 1e6 * total / denominator if denominator else 0.0

    def per_unit_us(name, n):
        return 1e6 * self_times.get(name, (0, 0.0))[1] / n if n else 0.0

    return {
        "structures.load_ms": per_call_us("structures.load") / 1000.0,
        "expr.eval_us": per_call_us("expr.eval"),
        "jets.ops_per_point": main_ops / units,
        "geometry.field_eval_us.pullback": per_call_us("geometry.field_eval.pullback"),
        "geometry.field_eval_us.conjugation": per_call_us("geometry.field_eval.conjugation"),
        "geometry.field_eval_us.explicit": per_call_us("geometry.field_eval.explicit"),
        "geometry.metric_eval_us": per_call_us("geometry.metric_eval"),
        "geometry.normal_change_us": per_call_us(
            "geometry.normal_change.from_metric",
            "geometry.normal_change.transform",
            per="geometry.normal_change.from_metric",
        ),
        "geometry.validate_acs_us": per_call_us("geometry.validate_acs"),
        "nijenhuis.standard_us": per_call_us("nijenhuis.standard"),
        "nijenhuis.standard_calls_per_point": main_calls["nijenhuis.standard"] / units,
        "nijenhuis.big_n_us": per_call_us("nijenhuis.big_n"),
        "nijenhuis.double_trace_us": per_call_us("nijenhuis.double_trace"),
        "nijenhuis.contraction_us": per_call_us("nijenhuis.contraction"),
        "obstruction.scalar_us": per_call_us("obstruction.scalar"),
        "obstruction.ledger_us": per_call_us("obstruction.ledger"),
        "obstruction.report_self_us": per_call_us("obstruction.report"),
        "scan.self_us_per_row": per_unit_us("scan.run_scan", rows),
        "selftest.draw_us": per_call_us("selftest.draw"),
        "selftest.self_us_per_sample": per_unit_us("selftest.run_selftest", samples),
    }
