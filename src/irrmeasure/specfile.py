"""Tuple-spec files: a hand-editable `key = value` block format.

    # global settings come first
    t_max = 10000
    burn_in = 100

    [phi]
    kind = periodic
    preperiod = [1]
    period = [1]

    [root2]
    kind = surd
    rational = 0
    root = 1
    radicand = 2

`[name]` opens a number block; `key = value` lines fill it. Values are
integers, fractions `p/q`, integer lists `[a, b, c]`, or bare words
(paths). `#` starts a comment. The formal EBNF lives in docs/specfile.md.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .cf import ContinuedFraction, DEFAULT_DEPTH_CAP, surd_to_cf
from .errors import RadicandError, SpecSemanticError, SpecSyntaxError
from .surd import QuadraticSurd

#: horizon of a spec file that sets no t_max
DEFAULT_T_MAX = 10_000

KINDS = ("periodic", "finite", "surd")
GLOBAL_KEYS = ("t_max", "burn_in", "depth_cap", "max_compare_depth", "out_dir")
NUMBER_KEYS = {
    "periodic": ("kind", "preperiod", "period"),
    "finite": ("kind", "coefficients"),
    "surd": ("kind", "rational", "root", "radicand"),
}

_HEADER = re.compile(r"\[\s*([A-Za-z_][A-Za-z0-9_\-]*)\s*\]\s*$")
_SETTING = re.compile(r"([A-Za-z_][A-Za-z0-9_\-]*)\s*=\s*(.*?)\s*$")
_INT = re.compile(r"[+-]?\d+$")
_FRACTION = re.compile(r"([+-]?\d+)\s*/\s*(\d+)$")
_LIST = re.compile(r"\[(.*)\]$")


@dataclass(frozen=True)
class NumberSpec:
    """One named number entry; the payload fields used depend on kind.
    A surd entry's value is certified once: parsing validates it and
    to_cf reuses it. Equality compares the fields only."""

    name: str
    kind: str
    preperiod: tuple[int, ...] = ()
    period: tuple[int, ...] = ()
    coefficients: tuple[int, ...] = ()
    rational: Fraction = Fraction(0)
    root: Fraction = Fraction(0)
    radicand: int = 0

    def to_cf(self, depth_cap: int = DEFAULT_DEPTH_CAP) -> ContinuedFraction:
        if self.kind == "periodic":
            return ContinuedFraction.periodic(self.preperiod, self.period,
                                              depth_cap=depth_cap)
        if self.kind == "finite":
            return ContinuedFraction.from_coefficients(self.coefficients,
                                                       depth_cap=depth_cap)
        return surd_to_cf(self._surd, depth_cap=depth_cap)

    @cached_property
    def _surd(self) -> QuadraticSurd:
        return QuadraticSurd(self.rational, self.root, self.radicand)


@dataclass(frozen=True)
class TupleSpecFile:
    numbers: tuple[NumberSpec, ...]
    t_max: int = DEFAULT_T_MAX
    burn_in: int | None = None
    depth_cap: int | None = None
    max_compare_depth: int | None = None
    out_dir: str | None = None


def _parse_value(raw: str, line_no: int, column: int):
    if _INT.match(raw):
        return int(raw)
    m = _FRACTION.match(raw)
    if m:
        num, den = int(m.group(1)), int(m.group(2))
        if den == 0:
            raise SpecSyntaxError("fraction with zero denominator",
                                  line=line_no, column=column)
        return Fraction(num, den)
    m = _LIST.match(raw)
    if m:
        body = m.group(1).strip()
        if not body:
            return ()
        items = []
        for part in body.split(","):
            part = part.strip()
            if not _INT.match(part):
                raise SpecSyntaxError(f"list item {part!r} is not an integer",
                                      line=line_no, column=column)
            items.append(int(part))
        return tuple(items)
    if re.match(r"[^\s#=\[\]]+$", raw):
        return raw  # bare word (paths etc.)
    raise SpecSyntaxError(f"cannot parse value {raw!r}", line=line_no,
                          column=column)


def _positive_int(value, key: str, entity: str) -> int | None:
    """value when it is None or a positive integer."""
    if value is None:
        return None
    if not isinstance(value, int) or value < 1:
        raise SpecSemanticError(f"{key} must be a positive integer, got {value!r}",
                                entity=entity)
    return value


def _as_fraction(value, key: str, entity: str) -> Fraction:
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    raise SpecSemanticError(f"{key} must be an integer or a fraction p/q",
                            entity=entity)


def _coeff_list(value, key: str, entity: str, *, first_is_a0: bool) -> tuple[int, ...]:
    if not isinstance(value, tuple):
        raise SpecSemanticError(f"{key} must be an integer list [a, b, ...]",
                                entity=entity)
    for i, a in enumerate(value):
        if (i > 0 or not first_is_a0) and a < 1:
            raise SpecSemanticError(
                f"{key}: coefficient a_{i} = {a} must be >= 1 (zero or "
                "negative partial quotients are rejected)", entity=entity)
    return value


def _build_number(name: str, pairs: dict[str, object]) -> NumberSpec:
    kind = pairs.get("kind")
    if kind not in KINDS:
        raise SpecSemanticError(f"kind must be one of {', '.join(KINDS)}",
                                entity=name)
    allowed = NUMBER_KEYS[kind]
    for key in pairs:
        if key not in allowed:
            raise SpecSemanticError(f"key {key!r} is not valid for kind {kind}",
                                    entity=name)
    if kind == "periodic":
        if "preperiod" not in pairs or "period" not in pairs:
            raise SpecSemanticError("periodic entries need preperiod and period",
                                    entity=name)
        preperiod = _coeff_list(pairs["preperiod"], "preperiod", name,
                                first_is_a0=True)
        period = _coeff_list(pairs["period"], "period", name, first_is_a0=False)
        if not preperiod:
            raise SpecSemanticError("preperiod must contain at least a0",
                                    entity=name)
        if not period:
            raise SpecSemanticError("period must be nonempty", entity=name)
        return NumberSpec(name=name, kind=kind, preperiod=preperiod, period=period)
    if kind == "finite":
        if "coefficients" not in pairs:
            raise SpecSemanticError("finite entries need coefficients", entity=name)
        coeffs = _coeff_list(pairs["coefficients"], "coefficients", name,
                             first_is_a0=True)
        if not coeffs:
            raise SpecSemanticError("coefficients must be nonempty", entity=name)
        return NumberSpec(name=name, kind=kind, coefficients=coeffs)
    # surd
    for key in ("rational", "root", "radicand"):
        if key not in pairs:
            raise SpecSemanticError(f"surd entries need {key}", entity=name)
    rational = _as_fraction(pairs["rational"], "rational", name)
    root = _as_fraction(pairs["root"], "root", name)
    radicand = pairs["radicand"]
    if not isinstance(radicand, int):
        raise SpecSemanticError("radicand must be an integer", entity=name)
    if root == 0:
        raise SpecSemanticError("root coefficient must be nonzero", entity=name)
    number = NumberSpec(name=name, kind=kind, rational=rational, root=root,
                        radicand=radicand)
    try:
        number._surd  # certified here once; to_cf reuses it
    except RadicandError as exc:
        raise SpecSemanticError(str(exc), entity=name) from exc
    return number


def parse_spec(data: bytes | str) -> TupleSpecFile:
    """Parse and validate a tuple-spec file.

    Syntax errors carry line and column; semantic errors carry the
    offending entity's name.
    """
    if isinstance(data, bytes):
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise SpecSyntaxError("input is not valid UTF-8", line=1,
                                  column=1) from exc
    else:
        text = data
    globals_seen: dict[str, object] = {}
    blocks: list[tuple[str, dict[str, object]]] = []
    names: set[str] = set()
    current: dict[str, object] | None = None
    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        indent = len(line) - len(line.lstrip())
        stripped = line.strip()
        m = _HEADER.match(stripped)
        if m:
            name = m.group(1)
            if name in names:
                raise SpecSemanticError(f"duplicate number name {name!r}",
                                        entity=name)
            names.add(name)
            current = {}
            blocks.append((name, current))
            continue
        m = _SETTING.match(stripped)
        if not m:
            raise SpecSyntaxError(f"expected `[name]` or `key = value`, got "
                                  f"{stripped!r}", line=line_no, column=indent + 1)
        key, raw_value = m.group(1), m.group(2)
        value = _parse_value(raw_value, line_no,
                             indent + m.start(2) + 1)
        target = globals_seen if current is None else current
        scope = "global settings" if current is None else blocks[-1][0]
        if key in target:
            raise SpecSemanticError(f"duplicate key {key!r}", entity=scope)
        if current is None and key not in GLOBAL_KEYS:
            raise SpecSemanticError(
                f"unknown global key {key!r} (known: {', '.join(GLOBAL_KEYS)})",
                entity="global settings")
        target[key] = value

    numbers = tuple(_build_number(name, pairs) for name, pairs in blocks)
    globals_seen.setdefault("t_max", DEFAULT_T_MAX)
    t_max, burn_in, depth_cap, max_compare_depth = (
        _positive_int(globals_seen.get(key), key, "global settings")
        for key in ("t_max", "burn_in", "depth_cap", "max_compare_depth"))
    if burn_in is not None and t_max < burn_in:
        raise SpecSemanticError(f"t_max = {t_max} must be >= burn_in = {burn_in}",
                                entity="global settings")
    out_dir = globals_seen.get("out_dir")
    if out_dir is not None and not isinstance(out_dir, str):
        out_dir = str(out_dir)
    return TupleSpecFile(numbers=numbers, t_max=t_max, burn_in=burn_in,
                         depth_cap=depth_cap, max_compare_depth=max_compare_depth,
                         out_dir=out_dir)


def _format_fraction(x: Fraction) -> str:
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def _format_list(xs: tuple[int, ...]) -> str:
    return "[" + ", ".join(map(str, xs)) + "]"


def serialize_spec(spec: TupleSpecFile) -> str:
    """Canonical text form; parse_spec(serialize_spec(s)) == s."""
    lines = [f"{key} = {value}" for key in GLOBAL_KEYS
             if (value := getattr(spec, key)) is not None]
    for number in spec.numbers:
        lines += ["", f"[{number.name}]", f"kind = {number.kind}"]
        if number.kind == "periodic":
            lines.append(f"preperiod = {_format_list(number.preperiod)}")
            lines.append(f"period = {_format_list(number.period)}")
        elif number.kind == "finite":
            lines.append(f"coefficients = {_format_list(number.coefficients)}")
        else:
            lines.append(f"rational = {_format_fraction(number.rational)}")
            lines.append(f"root = {_format_fraction(number.root)}")
            lines.append(f"radicand = {number.radicand}")
    return "\n".join(lines) + "\n"
