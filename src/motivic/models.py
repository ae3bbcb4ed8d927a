"""Strict line-oriented model files.

Each file declares exactly one datum with `kind = resolution | polyhedron |
variety | series | presburger`, followed by the fields of that datum.  Lines
are `key = value` pairs or table rows (`divisor ...`, `stratum ...`); `#`
starts a comment.  Unknown keys are rejected, and printing then reparsing a
model reproduces it.
"""
from __future__ import annotations

import ast
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import ParseError, ValidationError
from .grring import HodgeRational, MotClass
from .jets import JetVariety, SemiAlgCondition, parse_semialg
from .motvol import Divisor, PolyhedralStratum, ResolutionData, Stratum
from .parsing import (format_int_poly, format_motclass, format_series_num,
                      format_sum, parse_int_poly, parse_motclass,
                      parse_series_num, split_affine)
from .polyhedra import NewtonPolyhedron
from .presburger import (Affine, PresburgerSet, format_condition,
                         parse_condition)
from .series import RationalMotSeries

KINDS = ("resolution", "polyhedron", "variety", "series", "presburger")


@dataclass
class VarietyModel:
    variety: JetVariety
    condition_text: Optional[str] = None
    param_names: Tuple[str, ...] = ()

    def condition(self) -> Optional[SemiAlgCondition]:
        if self.condition_text is None:
            return None
        return parse_semialg(self.condition_text, self.variety.names,
                             self.param_names)


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


def _fail(lineno: int, msg: str) -> None:
    raise ParseError(f"line {lineno}: {msg}")


def _split_kv(line: str, lineno: int) -> Tuple[str, str]:
    if "=" not in line:
        _fail(lineno, f"expected 'key = value', got {line!r}")
    key, _, value = line.partition("=")
    return key.strip(), value.strip()


def _names(value: str, lineno: int, what: str) -> Tuple[str, ...]:
    names = tuple(value.split())
    for i, name in enumerate(names):
        if name in names[:i]:
            _fail(lineno, f"{what} names {name!r} twice")
    return names


def _int(value: str, lineno: int, what: str) -> int:
    try:
        return int(value)
    except ValueError:
        _fail(lineno, f"{what} must be an integer, got {value!r}")


def _lines(text: str) -> List[Tuple[int, str]]:
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append((lineno, line))
    return out


def parse_model(text: str) -> ModelFile:
    lines = _lines(text)
    if not lines:
        raise ParseError("empty model file")
    lineno, first = lines[0]
    key, value = _split_kv(first, lineno)
    if key != "kind":
        _fail(lineno, "the first line must declare the kind")
    if value not in KINDS:
        _fail(lineno, f"unknown kind {value!r}; expected one of {', '.join(KINDS)}")
    body = lines[1:]
    if value == "resolution":
        return ModelFile("resolution", _parse_resolution(body))
    if value == "polyhedron":
        return ModelFile("polyhedron", _parse_polyhedron(body))
    if value == "variety":
        return ModelFile("variety", _parse_variety(body))
    if value == "series":
        return ModelFile("series", _parse_series(body))
    return ModelFile("presburger", _parse_presburger(body))


# -- resolution -------------------------------------------------------------

def _parse_fraction(value: str, lineno: int) -> Fraction:
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError):
        _fail(lineno, f"bad rational number {value!r}")


def _parse_hodge_poly(value: str) -> HodgeRational:
    return HodgeRational(parse_int_poly(value, ("u", "v")))


def _parse_resolution(body) -> ResolutionData:
    dimension: Optional[int] = None
    divisors: List[Divisor] = []
    strata: List[Stratum] = []
    declared: Optional[MotClass] = None
    for lineno, line in body:
        word = line.split(None, 1)[0]
        if word == "divisor":
            parts = line.split()
            if len(parts) < 3:
                _fail(lineno, "divisor line needs a name and nu=VALUE")
            name = parts[1]
            nu: Optional[int] = None
            N: Optional[int] = None
            for item in parts[2:]:
                k, _, v = item.partition("=")
                if k == "nu" and v:
                    nu = _int(v, lineno, "nu")
                elif k == "N" and v:
                    N = _int(v, lineno, "N")
                else:
                    _fail(lineno, f"unknown divisor attribute {item!r}")
            if nu is None:
                _fail(lineno, "divisor line needs nu=VALUE")
            try:
                divisors.append(Divisor(name, nu, N))
            except ValidationError as exc:
                _fail(lineno, str(exc))
        elif word == "stratum":
            rest = line[len("stratum"):].strip()
            if "|" not in rest:
                _fail(lineno, "stratum line needs '|' before its fields")
            subset_part, _, fields_part = rest.partition("|")
            subset = frozenset(subset_part.split())
            cls = chi = hodge = None
            for field_text in fields_part.split("|"):
                k, v = _split_kv(field_text.strip(), lineno)
                if k == "class":
                    cls = parse_motclass(v)
                elif k == "chi":
                    chi = _parse_fraction(v, lineno)
                elif k == "hodge":
                    hodge = _parse_hodge_poly(v)
                else:
                    _fail(lineno, f"unknown stratum field {k!r}")
            try:
                strata.append(Stratum(subset, cls=cls, chi=chi, hodge=hodge))
            except ValidationError as exc:
                _fail(lineno, str(exc))
        else:
            k, v = _split_kv(line, lineno)
            if k == "dimension":
                dimension = _int(v, lineno, "dimension")
            elif k == "total":
                declared = parse_motclass(v)
            else:
                _fail(lineno, f"unknown key {k!r} in a resolution model")
    if dimension is None:
        raise ParseError("resolution model needs a 'dimension' line")
    try:
        return ResolutionData(dimension, divisors, strata, declared_Y=declared)
    except ValidationError as exc:
        raise ParseError(str(exc))


# -- polyhedron -------------------------------------------------------------

def _parse_generators(value: str, lineno: int) -> List[Tuple[int, ...]]:
    try:
        raw = ast.literal_eval(value)
    except (ValueError, SyntaxError):
        _fail(lineno, f"bad generator list {value!r}")
    if (not isinstance(raw, list) or not raw
            or not all(isinstance(g, list) and all(type(e) is int for e in g)
                       for g in raw)):
        _fail(lineno, "generators must be a list of integer lists")
    return [tuple(g) for g in raw]


def _parse_polyhedron(body) -> PolyhedronModel:
    k: Optional[int] = None
    gens = None
    dimension: Optional[int] = None
    strata: List[PolyhedralStratum] = []
    for lineno, line in body:
        word = line.split(None, 1)[0]
        if word == "stratum":
            rest = line[len("stratum"):].strip()
            if not rest.startswith("|"):
                _fail(lineno, "polyhedron stratum line starts with '|'")
            cls = None
            delta = None
            for field_text in rest[1:].split("|"):
                kk, v = _split_kv(field_text.strip(), lineno)
                if kk == "class":
                    cls = parse_motclass(v)
                elif kk == "generators":
                    g = _parse_generators(v, lineno)
                    try:
                        delta = NewtonPolyhedron(len(g[0]), g)
                    except (ValueError, ValidationError) as exc:
                        _fail(lineno, str(exc))
                else:
                    _fail(lineno, f"unknown stratum field {kk!r}")
            if cls is None:
                _fail(lineno, "polyhedron stratum needs a class")
            strata.append(PolyhedralStratum(cls, delta))
        else:
            kk, v = _split_kv(line, lineno)
            if kk == "k":
                k = _int(v, lineno, "k")
            elif kk == "generators":
                gens = _parse_generators(v, lineno)
            elif kk == "dimension":
                dimension = _int(v, lineno, "dimension")
            else:
                _fail(lineno, f"unknown key {kk!r} in a polyhedron model")
    delta = None
    if gens is not None:
        if k is None:
            k = len(gens[0])
        try:
            delta = NewtonPolyhedron(k, gens)
        except (ValueError, ValidationError) as exc:
            raise ParseError(str(exc))
    if delta is None and not strata:
        raise ParseError("polyhedron model needs generators or strata")
    if strata and dimension is None:
        raise ParseError("polyhedron strata need a 'dimension' line")
    return PolyhedronModel(delta=delta, dimension=dimension, strata=tuple(strata))


# -- variety ----------------------------------------------------------------

def _parse_variety(body) -> VarietyModel:
    names: Optional[Tuple[str, ...]] = None
    polys: List[Dict[Tuple[int, ...], int]] = []
    poly_lines: List[Tuple[int, str]] = []
    dimension: Optional[int] = None
    params: Tuple[str, ...] = ()
    condition_text: Optional[str] = None
    for lineno, line in body:
        k, v = _split_kv(line, lineno)
        if k == "vars":
            names = _names(v, lineno, "vars")
        elif k == "poly":
            poly_lines.append((lineno, v))
        elif k == "dimension":
            dimension = _int(v, lineno, "dimension")
        elif k == "params":
            params = _names(v, lineno, "params")
        elif k == "condition":
            condition_text = v
        else:
            _fail(lineno, f"unknown key {k!r} in a variety model")
    if names is None:
        raise ParseError("variety model needs a 'vars' line")
    if dimension is None:
        raise ParseError("variety model needs a 'dimension' line")
    for lineno, text in poly_lines:
        try:
            polys.append(parse_int_poly(text, names))
        except ParseError as exc:
            _fail(lineno, str(exc))
    try:
        X = JetVariety(len(names), polys, dimension, names)
    except ValidationError as exc:
        raise ParseError(str(exc))
    model = VarietyModel(X, condition_text=condition_text, param_names=params)
    if condition_text is not None:
        model.condition()  # validate eagerly
    return model


# -- series -----------------------------------------------------------------

def _parse_den_factors(value: str, lineno: int) -> List[Tuple[int, int]]:
    out = []
    for chunk in value.replace("(", " (").split():
        chunk = chunk.strip()
        if not chunk:
            continue
        if not (chunk.startswith("(") and chunk.endswith(")")):
            _fail(lineno, f"bad denominator factor {chunk!r}; expected (a,b)")
        nums = chunk[1:-1].split(",")
        if len(nums) != 2:
            _fail(lineno, f"bad denominator factor {chunk!r}; expected (a,b)")
        out.append((_int(nums[0].strip(), lineno, "a"),
                    _int(nums[1].strip(), lineno, "b")))
    return out


def _parse_series(body) -> RationalMotSeries:
    num = None
    den: List[Tuple[int, int]] = []
    for lineno, line in body:
        k, v = _split_kv(line, lineno)
        if k == "num":
            num = parse_series_num(v)
        elif k == "den":
            den = _parse_den_factors(v, lineno)
        else:
            _fail(lineno, f"unknown key {k!r} in a series model")
    if num is None:
        raise ParseError("series model needs a 'num' line")
    try:
        return RationalMotSeries(num, den)
    except ValueError as exc:
        raise ParseError(str(exc))


# -- presburger -------------------------------------------------------------

def _parse_affine_map(value: str, names: Sequence[str], lineno: int) -> Affine:
    coeffs, const = split_affine(parse_int_poly(value, names), len(names),
                                 f"line {lineno}: map {value!r} is not affine")
    if const < 0 or any(c < 0 for c in coeffs):
        _fail(lineno, f"map {value!r} has a negative coefficient; image maps "
                      "must have nonnegative coefficients")
    return Affine(coeffs, const)


def _parse_presburger(body) -> PresburgerModel:
    names: Optional[Tuple[str, ...]] = None
    condition = None
    maps: List[Affine] = []
    map_lines: List[Tuple[int, str]] = []
    for lineno, line in body:
        k, v = _split_kv(line, lineno)
        if k == "vars":
            names = _names(v, lineno, "vars")
        elif k == "condition":
            condition = (lineno, v)
        elif k == "map":
            map_lines.append((lineno, v))
        else:
            _fail(lineno, f"unknown key {k!r} in a presburger model")
    if names is None:
        raise ParseError("presburger model needs a 'vars' line")
    if condition is None:
        raise ParseError("presburger model needs a 'condition' line")
    cond = parse_condition(condition[1], names)
    for lineno, text in map_lines:
        maps.append(_parse_affine_map(text, names, lineno))
    return PresburgerModel(PresburgerSet(len(names), cond), names, tuple(maps))


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
