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

This module checks only the format: keys, value types, and that a
preperiod holds at least a0. The value rules of an entry, and their
messages, belong to the constructor it feeds: ContinuedFraction.periodic
and .from_coefficients, and QuadraticSurd for a surd entry.
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
_INT_LIST = (tuple, "an integer list [a, b, ...]")
_RATIONAL = ((int, Fraction), "an integer or a fraction p/q")
#: each kind's payload keys in printing order, with the parsed types
#: each accepts and their description
NUMBER_KEYS = {
    "periodic": {"preperiod": _INT_LIST, "period": _INT_LIST},
    "finite": {"coefficients": _INT_LIST},
    "surd": {"rational": _RATIONAL, "root": _RATIONAL,
             "radicand": (int, "an integer")},
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


def _build_number(name: str, pairs: dict[str, object]) -> NumberSpec:
    """The entry of one block. Its value is checked by the constructor it
    feeds: to_cf() for a periodic or finite entry, the surd certification
    for a surd entry, which stays unexpanded."""
    kind = pairs.get("kind")
    if kind not in KINDS:
        raise SpecSemanticError(f"kind must be one of {', '.join(KINDS)}",
                                entity=name)
    keys = NUMBER_KEYS[kind]
    for key in pairs:
        if key != "kind" and key not in keys:
            raise SpecSemanticError(f"key {key!r} is not valid for kind {kind}",
                                    entity=name)
    for key, entry in keys.items():
        if key not in pairs:
            raise SpecSemanticError(f"{kind} entries need {key}", entity=name)
        types, description = entry
        if not isinstance(pairs[key], types):
            raise SpecSemanticError(f"{key} must be {description}", entity=name)
        if entry is _RATIONAL:
            pairs[key] = Fraction(pairs[key])
    if kind == "periodic" and not pairs["preperiod"]:
        raise SpecSemanticError("preperiod must contain at least a0", entity=name)
    number = NumberSpec(name=name, **pairs)
    try:
        if kind == "surd":
            number._surd  # certified here once; to_cf reuses it
        else:
            number.to_cf()
    except (ValueError, RadicandError) as exc:
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
            # the first bad byte's line and column, as the parser counts them
            lines = (data[:exc.start].decode("utf-8") + "?").splitlines()
            raise SpecSyntaxError("input is not valid UTF-8", line=len(lines),
                                  column=len(lines[-1])) from exc
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
        column = indent + m.start(2) + 1
        try:
            value = _parse_value(raw_value, line_no, column)
        except ValueError as exc:   # int() past the interpreter's digit limit
            raise SpecSyntaxError(f"an integer literal in {key!r} has too many "
                                  "digits", line=line_no, column=column) from exc
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


def _format_value(value) -> str:
    if isinstance(value, tuple):
        return "[" + ", ".join(map(str, value)) + "]"
    return str(value)    # a Fraction prints as p/q, or as p when whole


def serialize_spec(spec: TupleSpecFile) -> str:
    """Canonical text form; parse_spec(serialize_spec(s)) == s."""
    lines = [f"{key} = {_format_value(value)}" for key in GLOBAL_KEYS
             if (value := getattr(spec, key)) is not None]
    for number in spec.numbers:
        lines += ["", f"[{number.name}]", f"kind = {number.kind}"]
        lines += [f"{key} = {_format_value(getattr(number, key))}"
                  for key in NUMBER_KEYS[number.kind]]
    return "\n".join(lines) + "\n"
