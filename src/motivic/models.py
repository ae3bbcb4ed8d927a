"""Strict line-oriented model files.

Each file declares exactly one datum with `kind = resolution | polyhedron |
variety | series | presburger`, followed by the fields of that datum.  Lines
are `key = value` pairs or table rows (`divisor ...`, `stratum ...`); `#`
starts a comment.  Unknown keys are rejected, and printing then reparsing a
model reproduces it.

One reader serves every kind.  A kind declares its keys once: a parser per
single key (the last line with a key wins), its repeated keys and row words,
the keys it requires, and the builder that makes its datum.
"""
from __future__ import annotations

import ast
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .errors import ParseError, ValidationError
from .grring import HodgeRational
from .jets import JetVariety, SemiAlgCondition, parse_semialg
from .motvol import Divisor, PolyhedralStratum, ResolutionData, Stratum
from .parsing import (format_int_poly, format_motclass, format_series_num,
                      format_sum, parse_int_poly, parse_motclass,
                      parse_series_num, split_affine)
from .polyhedra import NewtonPolyhedron
from .presburger import (Affine, PresburgerSet, format_condition,
                         parse_condition)
from .series import RationalMotSeries


@dataclass
class VarietyModel:
    variety: JetVariety
    condition_text: Optional[str] = None
    param_names: Tuple[str, ...] = ()
    # the parsed condition_text, read once with the model
    condition: Optional[SemiAlgCondition] = field(default=None, compare=False)


@dataclass
class PolyhedronModel:
    # either a bare polyhedron (for zeta evaluation) ...
    delta: Optional[NewtonPolyhedron] = None
    # ... or a weighted list of strata (for volume evaluation)
    dimension: Optional[int] = None
    strata: Tuple[PolyhedralStratum, ...] = ()


@dataclass
class PresburgerModel:
    pset: PresburgerSet
    names: Tuple[str, ...]
    maps: Tuple[Affine, ...] = ()


@dataclass
class ModelFile:
    kind: str
    datum: object

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ModelFile):
            return NotImplemented
        return print_model(self) == print_model(other)


def _at(lineno: int, read: Callable, *args):
    """read(*args), with `line N: ` put before a diagnostic it raises; the
    builders read their deferred lines through it."""
    try:
        return read(*args)
    except (ParseError, ValidationError) as exc:
        raise ParseError(f"line {lineno}: {exc}")


def _split_kv(line: str) -> Tuple[str, str]:
    if "=" not in line:
        raise ParseError(f"expected 'key = value', got {line!r}")
    key, _, value = line.partition("=")
    return key.strip(), value.strip()


# -- value parsers: (text, key) -> value --------------------------------------

def _int(value: str, what: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ParseError(f"{what} must be an integer, got {value!r}")


def _names(value: str, what: str) -> Tuple[str, ...]:
    names = tuple(value.split())
    for i, name in enumerate(names):
        if name in names[:i]:
            raise ParseError(f"{what} names {name!r} twice")
    return names


def _class(value: str, key: str):
    return parse_motclass(value)


def _fraction(value: str, key: str) -> Fraction:
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"bad rational number {value!r}")


def _hodge_poly(value: str, key: str) -> HodgeRational:
    return HodgeRational(parse_int_poly(value, ("u", "v")))


def _generators(value: str, key: str) -> List[Tuple[int, ...]]:
    try:
        raw = ast.literal_eval(value)
    except (ValueError, SyntaxError):
        raise ParseError(f"bad generator list {value!r}")
    if (not isinstance(raw, list) or not raw
            or not all(isinstance(g, list) and all(type(e) is int for e in g)
                       for g in raw)):
        raise ParseError("generators must be a list of integer lists")
    return [tuple(g) for g in raw]


def _polyhedron(value: str, key: str) -> NewtonPolyhedron:
    gens = _generators(value, key)
    try:
        return NewtonPolyhedron(len(gens[0]), gens)
    except ValueError as exc:
        raise ParseError(str(exc))


def _den_factors(value: str, key: str) -> List[Tuple[int, int]]:
    out = []
    for chunk in value.replace("(", " (").split():
        nums = chunk[1:-1].split(",")
        if not (chunk.startswith("(") and chunk.endswith(")")) or len(nums) != 2:
            raise ParseError(f"bad denominator factor {chunk!r}; expected (a,b)")
        out.append((_int(nums[0].strip(), "a"), _int(nums[1].strip(), "b")))
    return out


# -- row parsers: line -> row -------------------------------------------------

def _row_fields(texts: Sequence[str], parsers: Dict[str, Callable]) -> Dict[str, object]:
    """The `key = value` fields of a stratum row, each read by its parser."""
    out = {}
    for text in texts:
        key, value = _split_kv(text.strip())
        if key not in parsers:
            raise ParseError(f"unknown stratum field {key!r}")
        out[key] = parsers[key](value, key)
    return out


def _divisor(line: str) -> Divisor:
    parts = line.split()
    if len(parts) < 3:
        raise ParseError("divisor line needs a name and nu=VALUE")
    attrs: Dict[str, int] = {}
    for item in parts[2:]:
        k, _, v = item.partition("=")
        if k not in ("nu", "N") or not v:
            raise ParseError(f"unknown divisor attribute {item!r}")
        attrs[k] = _int(v, k)
    if "nu" not in attrs:
        raise ParseError("divisor line needs nu=VALUE")
    return Divisor(parts[1], attrs["nu"], attrs.get("N"))


def _resolution_stratum(line: str) -> Stratum:
    rest = line[len("stratum"):].strip()
    if "|" not in rest:
        raise ParseError("stratum line needs '|' before its fields")
    subset, _, fields = rest.partition("|")
    f = _row_fields(fields.split("|"),
                    {"class": _class, "chi": _fraction, "hodge": _hodge_poly})
    return Stratum(frozenset(subset.split()), cls=f.get("class"),
                   chi=f.get("chi"), hodge=f.get("hodge"))


def _polyhedron_stratum(line: str) -> PolyhedralStratum:
    rest = line[len("stratum"):].strip()
    if not rest.startswith("|"):
        raise ParseError("polyhedron stratum line starts with '|'")
    f = _row_fields(rest[1:].split("|"), {"class": _class, "generators": _polyhedron})
    if "class" not in f:
        raise ParseError("polyhedron stratum needs a class")
    return PolyhedralStratum(f["class"], f.get("generators"))


# -- builders: what was read -> datum -----------------------------------------
# `f` maps each single key that was given to its value (a key without a
# parser to its (line number, text)), and each repeated key and row word to
# its list.

def _build_resolution(f) -> ResolutionData:
    try:
        return ResolutionData(f["dimension"], f["divisor"], f["stratum"],
                              declared_Y=f.get("total"))
    except ValidationError as exc:
        raise ParseError(str(exc))


def _build_polyhedron(f) -> PolyhedronModel:
    delta = None
    if "generators" in f:
        gens = f["generators"]
        try:
            delta = NewtonPolyhedron(f.get("k", len(gens[0])), gens)
        except (ValueError, ValidationError) as exc:
            raise ParseError(str(exc))
    strata = f["stratum"]
    if delta is None and not strata:
        raise ParseError("polyhedron model needs generators or strata")
    if strata and "dimension" not in f:
        raise ParseError("polyhedron strata need a 'dimension' line")
    return PolyhedronModel(delta=delta, dimension=f.get("dimension"),
                           strata=tuple(strata))


def _build_variety(f) -> VarietyModel:
    names, params = f["vars"], f.get("params", ())
    polys = [_at(lineno, parse_int_poly, text, names) for lineno, text in f["poly"]]
    try:
        X = JetVariety(len(names), polys, f["dimension"], names)
    except ValidationError as exc:
        raise ParseError(str(exc))
    if "condition" not in f:
        return VarietyModel(X, None, params)
    lineno, text = f["condition"]
    return VarietyModel(X, text, params, _at(lineno, parse_semialg, text, names, params))


def _build_series(f) -> RationalMotSeries:
    try:
        return RationalMotSeries(f["num"], f.get("den", []))
    except ValueError as exc:
        raise ParseError(str(exc))


def _map(text: str, names: Sequence[str]) -> Affine:
    coeffs, const = split_affine(parse_int_poly(text, names), len(names),
                                 f"map {text!r} is not affine")
    if const < 0 or any(c < 0 for c in coeffs):
        raise ParseError(f"map {text!r} has a negative coefficient; image maps "
                         "must have nonnegative coefficients")
    return Affine(coeffs, const)


def _build_presburger(f) -> PresburgerModel:
    names = f["vars"]
    lineno, text = f["condition"]
    condition = _at(lineno, parse_condition, text, names)
    maps = tuple(_at(lineno, _map, text, names) for lineno, text in f["map"])
    return PresburgerModel(PresburgerSet(len(names), condition), names, maps)


@dataclass(frozen=True)
class _Kind:
    keys: Dict[str, Optional[Callable[[str, str], object]]]
    build: Callable[[Dict[str, object]], object]
    required: Tuple[str, ...] = ()
    repeated: Tuple[str, ...] = ()
    rows: Dict[str, Callable[[str], object]] = field(default_factory=dict)


_KINDS: Dict[str, _Kind] = {
    "resolution": _Kind({"dimension": _int, "total": _class}, _build_resolution,
                        required=("dimension",),
                        rows={"divisor": _divisor, "stratum": _resolution_stratum}),
    "polyhedron": _Kind({"k": _int, "generators": _generators, "dimension": _int},
                        _build_polyhedron, rows={"stratum": _polyhedron_stratum}),
    "variety": _Kind({"vars": _names, "dimension": _int, "params": _names,
                      "condition": None}, _build_variety,
                     required=("vars", "dimension"), repeated=("poly",)),
    "series": _Kind({"num": lambda value, key: parse_series_num(value),
                     "den": _den_factors}, _build_series, required=("num",)),
    "presburger": _Kind({"vars": _names, "condition": None}, _build_presburger,
                        required=("vars", "condition"), repeated=("map",)),
}


def parse_model(text: str) -> ModelFile:
    lines = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append((lineno, line))
    if not lines:
        raise ParseError("empty model file")
    lineno, first = lines[0]
    # a diagnostic raised while a line is read names that line
    try:
        key, kind = _split_kv(first)
        if key != "kind":
            raise ParseError("the first line must declare the kind")
        if kind not in _KINDS:
            raise ParseError(f"unknown kind {kind!r}; expected one of {', '.join(_KINDS)}")
        spec = _KINDS[kind]
        fields: Dict[str, object] = {name: [] for name in (*spec.repeated, *spec.rows)}
        for lineno, line in lines[1:]:
            word = line.split(None, 1)[0]
            if word in spec.rows:
                fields[word].append(spec.rows[word](line))
                continue
            key, value = _split_kv(line)
            if key in spec.repeated:
                fields[key].append((lineno, value))
            elif key not in spec.keys:
                raise ParseError(f"unknown key {key!r} in a {kind} model")
            elif spec.keys[key] is None:
                fields[key] = (lineno, value)
            else:
                fields[key] = spec.keys[key](value, key)
    except (ParseError, ValidationError) as exc:
        raise ParseError(f"line {lineno}: {exc}")
    for key in spec.required:
        if key not in fields:
            raise ParseError(f"{kind} model needs a {key!r} line")
    return ModelFile(kind, spec.build(fields))


# -- printing ---------------------------------------------------------------

def _format_hodge_poly(h: HodgeRational) -> str:
    if h.den:
        raise ValidationError("realization-only hodge data must be polynomial")
    return format_int_poly(h.num, ("u", "v"))


def print_model(m: ModelFile) -> str:
    out = [f"kind = {m.kind}"]
    if m.kind == "resolution":
        res: ResolutionData = m.datum
        out.append(f"dimension = {res.d}")
        for div in res.divisors:
            line = f"divisor {div.name} nu={div.nu}"
            if div.N is not None:
                line += f" N={div.N}"
            out.append(line)
        for s in res.strata:
            subset = " ".join(sorted(s.I))
            prefix = f"stratum {subset} |" if subset else "stratum |"
            if s.cls is not None:
                out.append(f"{prefix} class = {format_motclass(s.cls)}")
            else:
                out.append(f"{prefix} chi = {s.chi} "
                           f"| hodge = {_format_hodge_poly(s.hodge)}")
        if res.declared_Y is not None:
            out.append(f"total = {format_motclass(res.declared_Y)}")
    elif m.kind == "polyhedron":
        pm: PolyhedronModel = m.datum
        if pm.delta is not None:
            out.append(f"k = {pm.delta.k}")
            out.append("generators = "
                       + str([list(g) for g in pm.delta.generators]))
        if pm.dimension is not None:
            out.append(f"dimension = {pm.dimension}")
        for s in pm.strata:
            line = f"stratum | class = {format_motclass(s.cls)}"
            if s.delta is not None:
                line += " | generators = " + str([list(g) for g in s.delta.generators])
            out.append(line)
    elif m.kind == "variety":
        vm: VarietyModel = m.datum
        out.append("vars = " + " ".join(vm.variety.names))
        out.append(f"dimension = {vm.variety.d}")
        for p in vm.variety.polys:
            out.append("poly = " + format_int_poly(p, vm.variety.names))
        if vm.param_names:
            out.append("params = " + " ".join(vm.param_names))
        if vm.condition_text is not None:
            out.append("condition = " + vm.condition_text)
    elif m.kind == "series":
        P: RationalMotSeries = m.datum
        out.append("num = " + format_series_num(P.num))
        if P.den:
            out.append("den = " + " ".join(f"({a},{b})" for a, b in P.den))
    elif m.kind == "presburger":
        pm2: PresburgerModel = m.datum
        out.append("vars = " + " ".join(pm2.names))
        out.append("condition = " + format_condition(pm2.pset.condition, pm2.names))
        for phi in pm2.maps:
            terms = [(c, name) for name, c in zip(pm2.names, phi.coeffs) if c]
            if phi.const:
                terms.append((phi.const, ""))
            out.append("map = " + format_sum(terms))
    else:
        raise ValueError(f"unknown kind {m.kind!r}")
    return "\n".join(out) + "\n"
