"""The record base class that replaces dataclasses in the package.

Callers and the README rely on construction by position or keyword,
immutability, equality by exact type and field values, a matching hash, the
dataclass repr text and the field checks of ChartSpec and GridSpec.
"""

import numpy as np
import pytest

from acscheck._record import Record
from acscheck.geometry import ChartSpec, ConjugationField, ExplicitField, JetMatrix
from acscheck.scan import GridSpec
from acscheck.selftest import SelfTestReport
from acscheck.structures import StructureFile, gallery, parse_structure

TABLE = ((("const", 0.0), ("const", -1.0)), (("const", 1.0), ("const", 0.0)))


class Pair(Record):
    left: int
    right: int = 7


# Example records shaped like small expression nodes (the package's own
# expression trees are plain tuples).
class Const(Record):
    value: float


class Var(Record):
    name: str


class Binary(Record):
    op: str
    left: Record
    right: Record


def test_fields_are_the_annotations_in_order():
    assert Pair._fields == ("left", "right")
    assert Binary._fields == ("op", "left", "right")
    assert SelfTestReport._fields[0] == "dims" and SelfTestReport._fields[-1] == "failures"


def test_positional_and_keyword_construction_agree():
    assert Binary("add", Var("x"), Const(1.0)) == Binary(op="add", right=Const(1.0), left=Var("x"))
    assert Pair(1, right=2) == Pair(1, 2) == Pair(right=2, left=1)
    assert Pair(1).right == 7 and Pair(left=1).right == 7
    jm = JetMatrix(np.eye(2), np.zeros((2, 2, 2)))
    assert jm.frame_cond is None
    assert StructureFile(ChartSpec.default(2), ExplicitField(TABLE), None).name == ""


@pytest.mark.parametrize(
    "cls,args,kwargs,message",
    [
        (Pair, (1, 2, 3), {}, "takes 2 positional arguments but 3 were given"),
        (Pair, (), {}, "missing required argument 'left'"),
        (Pair, (), {"right": 2}, "missing required argument 'left'"),
        (Pair, (1,), {"middle": 2}, "unexpected keyword argument 'middle'"),
        (Pair, (1,), {"left": 2}, "multiple values for argument 'left'"),
        (Const, (1.0, 2.0), {}, "takes 1 positional arguments but 2 were given"),
        (Var, (), {"value": "x"}, "unexpected keyword argument 'value'"),
    ],
)
def test_a_call_that_does_not_fit_is_a_type_error(cls, args, kwargs, message):
    with pytest.raises(TypeError, match=message):
        cls(*args, **kwargs)


def test_assignment_and_deletion_raise_attribute_error():
    node = Const(1.0)
    with pytest.raises(AttributeError):
        node.value = 2.0
    with pytest.raises(AttributeError):
        node.other = 2.0
    with pytest.raises(AttributeError):
        del node.value
    assert node.value == 1.0


def test_equality_needs_the_exact_type_and_equal_fields():
    assert ExplicitField(TABLE) == ExplicitField(TABLE)
    assert ExplicitField(TABLE) != ConjugationField(TABLE)
    assert Const(1.0) != Const(2.0)
    assert Const(1.0) != (1.0,) and (1.0,) != Const(1.0)
    assert Pair(1, 2) != Pair(2, 1)
    assert gallery("shear4") == gallery("shear4")
    assert gallery("shear4") != gallery("expblock4")


def test_hash_matches_equality():
    assert hash(Binary("mul", Var("x"), Const(2.0))) == hash(Binary("mul", Var("x"), Const(2.0)))
    assert len({Const(1.0), Const(1.0), Const(2.0), Var("x")}) == 3
    assert hash(gallery("pullback4")) == hash(gallery("pullback4"))
    with pytest.raises(TypeError):  # a record holding a dict is not hashable
        hash(SelfTestReport(*[{}] * len(SelfTestReport._fields)))


def test_repr_is_the_dataclass_text():
    assert repr(Const(1.5)) == "Const(value=1.5)"
    assert repr(Binary("pow", Var("x1"), Const(-2.0))) == (
        "Binary(op='pow', left=Var(name='x1'), right=Const(value=-2.0))"
    )
    text = "[chart]\ndim = 2\nname = tiny\n[J]\n1 2 = -1\n2 1 = 1\n[metric]\n1 1 = exp(x1)\n"
    assert repr(parse_structure(text)) == (
        "StructureFile(chart=ChartSpec(n=2, var_names=('x1', 'x2')), "
        "j_field=ExplicitField(entries=((('const', 0.0), ('neg', ('const', 1.0))), "
        "(('const', 1.0), ('const', 0.0)))), "
        "metric=MetricField(entries=((('exp', ('var', 'x1')), ('const', 0.0)), "
        "(('const', 0.0), ('const', 1.0)))), name='tiny', description='')"
    )


@pytest.mark.parametrize("keywords", [False, True])
def test_post_init_checks_run_on_every_construction(keywords):
    def build(cls, *args):
        return cls(**dict(zip(cls._fields, args))) if keywords else cls(*args)

    with pytest.raises(ValueError, match="dimension must be even and positive"):
        build(ChartSpec, 3, ("x", "y", "z"))
    with pytest.raises(ValueError, match="reserved, or not a name"):
        build(ChartSpec, 2, ("pi", "y"))
    with pytest.raises(ValueError, match="count must be >= 1"):
        build(GridSpec, ((0.0, 1.0, 2), (0.0, 1.0, 0)))
    with pytest.raises(ValueError, match="lo <= hi"):
        build(GridSpec, ((1.0, 0.0, 3),))
    assert build(ChartSpec, 2, ("u", "v")).var_names == ("u", "v")
