"""The benchmark's traced run wraps acscheck's functions by name.

`bench/tracing.py` lists them as (owner, attribute) pairs and replaces
`owner.__dict__[attribute]` when it installs its wrappers, so a rename or a
removed import in the program breaks the traced run.  The module is loaded
here from its path, as it is, without being edited.
"""

import importlib.util
from pathlib import Path

import pytest

# scan and selftest bind obstruction's functions at import: imported inside
# install(), they would bind its wrappers, which are then wrapped again
from acscheck import cli, obstruction, scan, selftest

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("acscheck_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


@pytest.mark.parametrize("owner_path,attr,name", tracing.SPANNED + tracing.COUNTED)
def test_traced_name_resolves(owner_path, attr, name):
    owner = tracing._resolve(owner_path)
    raw = owner.__dict__[attr]
    assert callable(raw) or isinstance(raw, classmethod), (owner_path, attr)


def test_selftest_names_stay_traced():
    names = {(owner, attr) for owner, attr, _ in tracing.SPANNED}
    assert {
        ("acscheck.selftest", "report_from_jets"),
        ("acscheck.geometry", "random_conjugation_acs"),
        ("acscheck.geometry.ConjugationField", "eval"),
        ("acscheck.geometry.MetricField", "eval"),
    } <= names


def test_install_wraps_and_uninstall_restores(capsys):
    tracer = tracing.Tracer()
    before = cli.run_selftest
    tracer.install()
    try:
        assert cli.run_selftest is not before
        assert cli.main(["selftest", "--dims", "2", "--samples", "2", "--degree", "1"]) == 0
    finally:
        tracer.uninstall()
    assert cli.run_selftest is before
    capsys.readouterr()
    calls = {name: calls for name, (calls, _) in tracer.self_times().items()}
    # one batched report per dimension, for each of the two metrics
    assert calls["selftest.run_selftest"] == 1 and calls["obstruction.report"] == 2


def test_traced_scan_records_one_report_per_chunk(tmp_path, capsys):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        grid = f"0:1:{2 * obstruction.BATCH + 1},0:1:1,0:1:1,0:1:1"  # two full chunks and one point
        argv = ["scan", "gallery:pullback4", "--grid", grid, "--out", str(tmp_path / "s.csv")]
        assert cli.main(argv) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    calls = {name: calls for name, (calls, _) in tracer.self_times().items()}
    # every point's jets differ, so each chunk evaluates and reports all its points
    assert calls["geometry.field_eval.pullback"] == calls["obstruction.report"] == 3
    assert calls["obstruction.identity_report"] == 3


def test_traced_failing_scan_retries_through_the_chunk_path(tmp_path, capsys):
    # J is singular at x1 = 0, so the chunk of three points raises and each
    # point is run again as a chunk of one
    path = tmp_path / "singular.acs"
    path.write_text("[chart]\ndim = 2\n[J]\nkind = conjugation\n1 1 = x1\n", encoding="utf-8")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        argv = ["scan", str(path), "--grid=-1:1:3,0:0:1", "--out", str(tmp_path / "s.csv")]
        assert cli.main(argv) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    calls = {name: calls for name, (calls, _) in tracer.self_times().items()}
    # the chunk and its three points are evaluated; the two that pass are reported
    assert calls["geometry.field_eval.conjugation"] == 4 and calls["obstruction.report"] == 2
    assert calls["obstruction.identity_report"] == 4
