"""The tuple-spec file grammar: parsing, validation, round-trip."""

import pickle
import re
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

from irrmeasure import (ContinuedFraction, NumberSpec, QuadraticSurd,
                        TupleSpecFile, parse_spec, serialize_spec)
from irrmeasure.cf import DEFAULT_COMPARE_DEPTH, DEFAULT_DEPTH_CAP
from irrmeasure.errors import RadicandError, SpecSemanticError, SpecSyntaxError
from irrmeasure.specfile import DEFAULT_T_MAX

DOC = Path(__file__).resolve().parent.parent / "docs" / "specfile.md"

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


def test_to_cf_builds_a_fresh_stream_and_a_parsed_spec_pickles():
    # a spec entry is a plain value: each to_cf call builds its own
    # stream, and pickling needs no hook
    spec = parse_spec(EXAMPLE)
    for number in spec.numbers:
        first, second = number.to_cf(100), number.to_cf(100)
        assert first is not second
        assert first.prefix(5) == second.prefix(5)
    copy = pickle.loads(pickle.dumps(spec))
    assert copy == spec
    assert [n.to_cf().prefix(5) for n in copy.numbers] == [
        (1, 1, 1, 1, 1), (1, 2, 2, 2, 2), (3, 1, 4, 1, 5)]


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


@pytest.mark.parametrize("data, error, message, where", [
    (b"[x]\nkind = spiral\n", SpecSemanticError,
     "[x] kind must be one of periodic, finite, surd", "x"),
    (b"[x]\nkind = periodic\npreperiod = [1]\n", SpecSemanticError,
     "[x] periodic entries need period", "x"),
    (b"[x]\nkind = periodic\npreperiod = [1]\nperiod = 3\n", SpecSemanticError,
     "[x] period must be an integer list [a, b, ...]", "x"),
    (b"[x]\nkind = surd\nrational = 1/0\nroot = 1\nradicand = 2\n",
     SpecSyntaxError, "line 3, column 12: fraction with zero denominator", (3, 12)),
    (b"t_max = a=b\n", SpecSyntaxError,
     "line 1, column 9: cannot parse value 'a=b'", (1, 9)),
    (b"t_max = 5\r\n# caf\xc3\xa9 \xe9\n", SpecSyntaxError,
     "line 2, column 8: input is not valid UTF-8", (2, 8)),
    (b"t_max = 5\nt_max = 6\n", SpecSemanticError,
     "[global settings] duplicate key 't_max'", "global settings"),
    (b"[x]\nkind = finite\nkind = surd\n", SpecSemanticError,
     "[x] duplicate key 'kind'", "x"),
], ids=["unknown-kind", "missing-key", "wrong-type", "zero-denominator",
        "unparseable", "invalid-utf8", "duplicate-global", "duplicate-in-block"])
def test_hostile_input_names_its_cause(data, error, message, where):
    with pytest.raises(error) as info:
        parse_spec(data)
    assert str(info.value) == f"[specfile.parse_spec] {message}"
    if error is SpecSyntaxError:
        assert (info.value.line, info.value.column) == where
    else:
        assert info.value.entity == where


_HUGE = "1" + "0" * 5000       # past the interpreter's 4,300-digit limit


@pytest.mark.parametrize("text, line, column", [
    (f"t_max = {_HUGE}\n", 1, 9),
    (f"[x]\nkind = surd\nrational = {_HUGE}/3\nroot = 1\nradicand = 2\n", 3, 12),
    (f"[x]\nkind = surd\nrational = 1/{_HUGE}\nroot = 1\nradicand = 2\n", 3, 12),
    (f"[x]\nkind = finite\ncoefficients = [1, {_HUGE}]\n", 3, 16),
], ids=["global", "numerator", "denominator", "list-item"])
def test_integer_literals_past_the_digit_limit_are_syntax_errors(text, line, column):
    with pytest.raises(SpecSyntaxError, match="integer literal in '.*' has too many digits") as info:
        parse_spec(text)
    assert (info.value.line, info.value.column) == (line, column)


def test_global_key_validation():
    with pytest.raises(SpecSemanticError):
        parse_spec(b"unknown_setting = 3\n")
    with pytest.raises(SpecSemanticError):
        parse_spec(b"t_max = 10\nburn_in = 20\n")
    with pytest.raises(SpecSemanticError):
        parse_spec(b"t_max = 0\n")
    with pytest.raises(SpecSemanticError):
        parse_spec(b"[x]\nkind = finite\ncoefficients = [1]\nperiod = [2]\n")


def test_a_numeric_out_dir_is_kept_as_a_path_string():
    assert parse_spec(b"out_dir = 5\n").out_dir == "5"


def test_roundtrip_example():
    spec = parse_spec(EXAMPLE)
    assert parse_spec(serialize_spec(spec)) == spec


_name = st.from_regex(r"[a-z][a-z0-9_]{0,8}", fullmatch=True)
_coeff = st.integers(min_value=1, max_value=50)
_a0 = st.integers(min_value=-50, max_value=50)


def _led_by_a0(draw, max_size):
    return (draw(_a0),) + tuple(draw(st.lists(_coeff, max_size=max_size - 1)))


@st.composite
def _number(draw, name):
    kind = draw(st.sampled_from(["periodic", "finite", "surd"]))
    if kind == "periodic":
        return NumberSpec(name=name, kind=kind, preperiod=_led_by_a0(draw, 4),
                          period=tuple(draw(st.lists(_coeff, min_size=1, max_size=4))))
    if kind == "finite":
        return NumberSpec(name=name, kind=kind, coefficients=_led_by_a0(draw, 6))
    return NumberSpec(name=name, kind=kind,
                      rational=draw(st.fractions(min_value=-5, max_value=5)),
                      root=draw(st.fractions(min_value=-3, max_value=3).filter(bool)),
                      radicand=draw(st.sampled_from([2, 3, 5, 6, 7, 8, 10, 12])))


@given(st.lists(_name, unique=True, min_size=0, max_size=4).flatmap(
    lambda names: st.tuples(*[_number(n) for n in names])),
    st.integers(min_value=1, max_value=10 ** 6))
def test_roundtrip_generated_specs(numbers, t_max):
    spec = TupleSpecFile(numbers=tuple(numbers), t_max=t_max)
    text = serialize_spec(spec)
    assert parse_spec(text) == spec
    assert repr(parse_spec(text)) == repr(spec)  # field types agree too
    assert parse_spec(text.encode()) == spec
    assert serialize_spec(parse_spec(text)) == text


_any_coeff = st.integers(min_value=-2, max_value=9)


@st.composite
def _payload(draw):
    """A number block's kind and payload, valid or not: coefficients <= 0
    past a0, empty lists, zero and negative roots, and radicands that are
    0, negative or perfect squares."""
    kind = draw(st.sampled_from(["periodic", "finite", "surd"]))
    if kind == "periodic":
        return kind, {"preperiod": tuple(draw(st.lists(_any_coeff, max_size=4))),
                      "period": tuple(draw(st.lists(_any_coeff, max_size=4)))}
    if kind == "finite":
        return kind, {"coefficients": tuple(draw(st.lists(_any_coeff, max_size=5)))}
    return kind, {"rational": draw(st.fractions(min_value=-5, max_value=5,
                                                max_denominator=7)),
                  "root": draw(st.just(Fraction(0)) | st.fractions(
                      min_value=-3, max_value=3, max_denominator=5)),
                  "radicand": draw(st.integers(min_value=-4, max_value=30))}


def _constructor_rejects(kind, payload) -> bool:
    try:
        if kind == "periodic":
            ContinuedFraction.periodic(payload["preperiod"], payload["period"])
        elif kind == "finite":
            ContinuedFraction.from_coefficients(payload["coefficients"])
        else:
            QuadraticSurd(payload["rational"], payload["root"], payload["radicand"])
    except (ValueError, RadicandError):
        return True
    return False


@given(_payload())
@example(("periodic", {"preperiod": (1,), "period": (2, 0)}))
@example(("periodic", {"preperiod": (0, -1), "period": (1,)}))
@example(("periodic", {"preperiod": (1,), "period": ()}))
@example(("periodic", {"preperiod": (), "period": (1,)}))
@example(("periodic", {"preperiod": (), "period": (0,)}))
@example(("finite", {"coefficients": (-3, 0)}))
@example(("finite", {"coefficients": ()}))
@example(("surd", {"rational": Fraction(1), "root": Fraction(0), "radicand": 2}))
@example(("surd", {"rational": Fraction(1), "root": Fraction(-1), "radicand": 2}))
@example(("surd", {"rational": Fraction(0), "root": Fraction(1), "radicand": 0}))
@example(("surd", {"rational": Fraction(0), "root": Fraction(1), "radicand": -3}))
@example(("surd", {"rational": Fraction(0), "root": Fraction(1), "radicand": 9}))
def test_parser_rejects_exactly_what_the_constructors_reject(block):
    # the value rules live in the constructors; the spec adds only the
    # grammar rule that a preperiod holds at least a0
    kind, payload = block
    text = serialize_spec(TupleSpecFile(
        numbers=(NumberSpec(name="x", kind=kind, **payload),)))
    rejected = (_constructor_rejects(kind, payload)
                or (kind == "periodic" and not payload["preperiod"]))
    try:
        parse_spec(text)
    except SpecSemanticError as exc:
        assert rejected and exc.entity == "x"
    else:
        assert not rejected


def test_format_doc_examples_parse():
    # every fenced number block in the format doc is a spec file of its
    # own, and the stream it builds reads its first coefficients
    fenced = re.findall(r"^```.*?\n(.*?)^```$", DOC.read_text(),
                        re.MULTILINE | re.DOTALL)
    examples = [block for block in fenced if block.startswith("[")]
    names = []
    for text in examples:
        (number,) = parse_spec(text).numbers
        number.to_cf().prefix(5)
        names.append(number.name)
    assert names == ["root2", "probe", "golden"]


def test_format_doc_defaults_match_the_constants():
    rows = {}
    for line in DOC.read_text().splitlines():
        if line.startswith("| `"):
            cells = [cell.strip() for cell in line.strip("|").split("|")]
            rows[cells[0].strip("`")] = cells[-1]
    defaults = {"t_max": DEFAULT_T_MAX, "depth_cap": DEFAULT_DEPTH_CAP,
                "max_compare_depth": DEFAULT_COMPARE_DEPTH}
    assert {key: int(rows[key]) for key in defaults} == defaults
