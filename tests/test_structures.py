import numpy as np
import pytest

from acscheck.expr import Const, Var
from acscheck.geometry import ConjugationField, MetricField, PullbackField
from acscheck.structures import (
    StructureError,
    StructureFile,
    gallery,
    gallery_names,
    load_structure,
    parse_structure,
    serialize_structure,
)

STANDARD2 = """
# constant block structure
[chart]
dim = 2

[J]
1 2 = -1
2 1 = 1
"""


def test_parse_standard_block():
    sf = parse_structure(STANDARD2)
    assert sf.chart.n == 2
    assert sf.metric is None
    jm = sf.j_field.eval(sf.chart, (0.0, 0.0))
    assert np.array_equal(jm.values, [[0.0, -1.0], [1.0, 0.0]])


def test_missing_metric_means_euclidean():
    sf = parse_structure(STANDARD2)
    assert sf.metric is None


def test_odd_dimension_rejected():
    with pytest.raises(StructureError, match="dimension must be even"):
        parse_structure("[chart]\ndim = 3\n[J]\n")


def test_unknown_variable_rejected_with_line():
    text = "[chart]\ndim = 2\n[J]\n1 2 = -y\n"
    with pytest.raises(StructureError, match="line 4.*unknown variable"):
        parse_structure(text)


def test_expression_error_reports_line():
    text = "[chart]\ndim = 2\n[J]\n1 2 = 1 + * 2\n"
    with pytest.raises(StructureError, match="line 4"):
        parse_structure(text)


def test_index_out_of_range():
    text = "[chart]\ndim = 2\n[J]\n3 1 = 1\n"
    with pytest.raises(StructureError, match="out of range"):
        parse_structure(text)


def test_duplicate_entry_rejected():
    text = "[chart]\ndim = 2\n[J]\n1 2 = 1\n1 2 = 2\n"
    with pytest.raises(StructureError, match="duplicate entry"):
        parse_structure(text)


def test_unknown_section_rejected():
    with pytest.raises(StructureError, match="unknown section"):
        parse_structure("[stuff]\n")


def test_content_before_section_rejected():
    with pytest.raises(StructureError, match="before any section"):
        parse_structure("dim = 2\n[chart]\ndim = 2\n[J]\n")


def test_missing_sections():
    with pytest.raises(StructureError, match="missing .chart."):
        parse_structure("[J]\n1 2 = 1\n")
    with pytest.raises(StructureError, match="missing .J."):
        parse_structure("[chart]\ndim = 2\n")


def test_metric_entry_mirrored():
    text = "[chart]\ndim = 2\n[J]\n1 2 = -1\n2 1 = 1\n[metric]\n1 2 = x1\n"
    sf = parse_structure(text)
    gm = sf.metric.eval(sf.chart, (0.25, 0.0))
    assert gm.values[0, 1] == 0.25
    assert gm.values[1, 0] == 0.25


def test_metric_conflicting_entries_rejected():
    # either line order names the lower-triangle line and the upper pair
    for entries, line in (("1 2 = x1\n2 1 = x2\n", 8), ("2 1 = x2\n1 2 = x1\n", 7)):
        text = "[chart]\ndim = 2\n[J]\n1 2 = -1\n2 1 = 1\n[metric]\n" + entries
        with pytest.raises(StructureError, match=rf"^line {line}: asymmetric metric entries for \(1,2\)$"):
            parse_structure(text)


@pytest.mark.parametrize(
    "section,entry,form",
    [
        ("[J]", "1 = x1", "<row> <col>"),
        ("[J]\nkind = conjugation", "1 2 3 = x1", "<row> <col>"),
        ("[J]\nkind = pullback", "1 2 = x1", "<i>"),
        ("[J]\n1 2 = -1\n2 1 = 1\n[metric]", "a b = 1", "<row> <col>"),
    ],
)
def test_bad_entry_line_message(section, entry, form):
    text = f"[chart]\ndim = 2\n{section}\n{entry}\n"
    lineno = text.count("\n")
    with pytest.raises(StructureError) as info:
        parse_structure(text)
    assert str(info.value) == f"line {lineno}: expected '{form} = <expression>'"


@pytest.mark.parametrize("name", ["pi", "e", "1a", "x y", ""])
def test_variable_name_the_expressions_cannot_read_rejected(name):
    text = f"[chart]\ndim = 2\nvars = {name}, v\n[J]\n1 2 = -1\n2 1 = 1\n"
    with pytest.raises(StructureError, match=f"^line 3: bad variable name {name!r}"):
        parse_structure(text)


def test_variable_named_pi_is_not_shadowed_by_the_constant():
    # with `pi` accepted, 'exp(pi*y)' would read the constant and J would be J0
    text = "[chart]\ndim = 2\nvars = {}, y\n[J]\n1 2 = -exp({}*y)\n2 1 = exp(-{}*y)\n"
    with pytest.raises(StructureError, match="line 3: bad variable name 'pi'"):
        parse_structure(text.format("pi", "pi", "pi"))
    sf = parse_structure(text.format("u", "u", "u"))
    assert sf.j_field.eval(sf.chart, (0.5, 0.5)).values[0, 1] == -np.exp(0.5 * 0.5)


@pytest.mark.parametrize(
    "text,line,key",
    [
        ("[chart]\ndim = 2\ndim = 2\n[J]\n", 3, "dim"),
        ("[chart]\ndim = 2\nvars = u, v\nvars = a, b\n[J]\n", 4, "vars"),
        ("[chart]\nname = a\ndim = 2\nname = b\n[J]\n", 4, "name"),
        ("[chart]\ndim = 2\ndescription = a\ndescription = a\n[J]\n", 4, "description"),
        ("[chart]\ndim = 2\n[J]\nkind = explicit\n1 2 = -1\nkind = conjugation\n", 6, "kind"),
    ],
)
def test_repeated_key_rejected(text, line, key):
    with pytest.raises(StructureError, match=f"^line {line}: repeated key {key!r}$"):
        parse_structure(text)


@pytest.mark.parametrize(
    "text,message",
    [
        ("[chart]\ndim = 2\n[J]\n1 2 = -1\n[chart]\n", "line 5: duplicate section [chart]"),
        ("[chart]\ndim 2\n[J]\n", "line 2: expected 'key = value' or an entry line"),
        ("[chart]\ndim = two\n[J]\n", "line 2: bad dimension 'two'"),
        ("[chart]\ndim = 2\nsize = 2\n[J]\n", "line 3: unknown chart key 'size'"),
        ("[chart]\nvars = u, v\n[J]\n", "chart section must set 'dim'"),
        ("[chart]\ndim = 2\n[J]\nkind = spiral\n", "line 4: unknown J kind 'spiral'"),
    ],
)
def test_structure_file_refusal_names_its_line(text, message):
    with pytest.raises(StructureError) as info:
        parse_structure(text)
    assert str(info.value) == message


def test_gallery_dimension_must_be_an_integer():
    with pytest.raises(StructureError) as info:
        gallery("standard2n:x")
    assert str(info.value) == "bad gallery dimension in 'standard2n:x'"


def test_vars_and_metadata():
    text = (
        "[chart]\ndim = 2\nvars = u, v\nname = demo\ndescription = two words\n"
        "[J]\n1 2 = -exp(u)\n2 1 = exp(-u)\n"
    )
    sf = parse_structure(text)
    assert sf.chart.var_names == ("u", "v")
    assert sf.name == "demo"
    assert sf.description == "two words"


def test_pullback_kind_parses():
    text = "[chart]\ndim = 4\n[J]\nkind = pullback\n2 = x2 + x1^2\n4 = x4 + x1*x3\n"
    sf = parse_structure(text)
    assert isinstance(sf.j_field, PullbackField)
    assert sf.j_field.components[0] == Var("x1")


def test_conjugation_kind_parses_with_identity_default():
    text = "[chart]\ndim = 4\n[J]\nkind = conjugation\n1 3 = x1\n"
    sf = parse_structure(text)
    assert isinstance(sf.j_field, ConjugationField)
    assert sf.j_field.frame[0][0] == Const(1.0)
    assert sf.j_field.frame[0][2] == Var("x1")


def test_round_trip_gallery_structures():
    for name in ("standard2n:2", "standard2n:6", "expblock4", "shear4", "pullback4"):
        sf = gallery(name)
        text = serialize_structure(sf)
        again = parse_structure(text)
        assert again == sf
        # a second cycle is byte-stable
        assert serialize_structure(again) == text


def test_round_trip_file_with_metric(tmp_path):
    text = (
        "[chart]\ndim = 2\nname = disk\n"
        "[J]\n1 2 = -1\n2 1 = 1\n"
        "[metric]\n1 1 = exp(2*x1)\n2 2 = exp(2*x1)\n"
    )
    path = tmp_path / "disk.txt"
    path.write_text(text, encoding="utf-8")
    sf = load_structure(path)
    assert sf.name == "disk"
    cycled = parse_structure(serialize_structure(sf))
    assert cycled == sf


def test_serialize_refuses_a_field_that_is_not_a_j_kind():
    sf = gallery("expblock4")
    metric = MetricField(((Const(1.0), Const(0.0)), (Const(0.0), Const(1.0))))
    with pytest.raises(StructureError, match="^cannot serialise a J field of type MetricField$"):
        serialize_structure(StructureFile(sf.chart, metric, sf.metric, sf.name, sf.description))


def test_load_structure_default_name(tmp_path):
    path = tmp_path / "mystruct.txt"
    path.write_text(STANDARD2, encoding="utf-8")
    assert load_structure(path).name == "mystruct"


def test_gallery_names_and_errors():
    names = gallery_names()
    assert "expblock4" in names and "pullback4" in names
    with pytest.raises(StructureError):
        gallery("nope")
    with pytest.raises(StructureError):
        gallery("standard2n:5")
    sf = gallery("standard2n:8")
    assert sf.chart.n == 8


def test_gallery_expblock4_valid_everywhere(rng):
    from acscheck.geometry import validate_acs

    sf = gallery("expblock4")
    for _ in range(20):
        point = rng.uniform(-2.0, 2.0, 4)
        assert validate_acs(sf.j_field.eval(sf.chart, point)).ok


def test_gallery_pullback4_frame_invertible_everywhere(rng):
    sf = gallery("pullback4")
    for _ in range(20):
        point = rng.uniform(-3.0, 3.0, 4)
        jm = sf.j_field.eval(sf.chart, point)
        assert np.isfinite(jm.values).all()
