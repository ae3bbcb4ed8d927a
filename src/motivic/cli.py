"""Command-line interface: parse model files, run one computation, print
exact results.  Exit codes: 0 success, 1 domain error, 2 parse error."""
from __future__ import annotations

import argparse
import csv
import io
import os
import sys
from fractions import Fraction
from typing import List, Optional, Sequence

from .errors import MotivicError, ParseError, ValidationError
from .grring import chi_realize, hodge_realize
from .jets import (count_semialg, enumerate_jets, image_count,
                   oesterle_sequence, poincare_table, stabilized_table)
from .models import (ModelFile, PolyhedronModel, PresburgerModel, VarietyModel,
                     parse_model)
from .motvol import (ResolutionData, kontsevich_invariant, realize_volume,
                     volume_from_polyhedra, volume_from_resolution,
                     volume_with_ideal)
from .parsing import format_hodge, format_motclass, parse_motclass
from .polyhedra import z_of_delta
from .presburger import format_ratfunc, genfun, genfun_image
from .series import compare_counts, expand, limit_of_coefficients

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_PARSE = 2


def _read_model(path: str, kind: str) -> ModelFile:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}")
    model = parse_model(text)
    if model.kind != kind:
        raise ParseError(f"{path}: expected a {kind} model, found {model.kind}")
    return model


def _emit_csv(rows: List[Sequence], header: Sequence[str],
              output: Optional[str]) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)
    text = buf.getvalue()
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _resolution_arg(args) -> ResolutionData:
    return _read_model(args.model, "resolution").datum


def _cmd_volume(args) -> int:
    print(format_motclass(volume_from_resolution(_resolution_arg(args))))
    return EXIT_OK


def _cmd_volume_ideal(args) -> int:
    print(format_motclass(volume_with_ideal(_resolution_arg(args))))
    return EXIT_OK


def _cmd_volume_polyhedra(args) -> int:
    pm: PolyhedronModel = _read_model(args.model, "polyhedron").datum
    if not pm.strata:
        raise ValidationError("the polyhedron model declares no strata")
    print(format_motclass(volume_from_polyhedra(pm.dimension, list(pm.strata))))
    return EXIT_OK


def _cmd_kontsevich(args) -> int:
    print(format_motclass(kontsevich_invariant(_resolution_arg(args))))
    return EXIT_OK


def _realize(args, target: str) -> int:
    if os.path.exists(args.input):
        res = _read_model(args.input, "resolution").datum
        value = realize_volume(res, target)
    else:
        cls = parse_motclass(args.input)
        value = chi_realize(cls) if target == "chi" else hodge_realize(cls)
    if target == "chi":
        print(value)
    else:
        print(format_hodge(value))
    return EXIT_OK


def _cmd_chi(args) -> int:
    return _realize(args, "chi")


def _cmd_hodge(args) -> int:
    return _realize(args, "hodge")


def _cmd_zdelta(args) -> int:
    pm: PolyhedronModel = _read_model(args.model, "polyhedron").datum
    if pm.delta is None:
        raise ValidationError("the polyhedron model declares no generators")
    print(format_motclass(z_of_delta(pm.delta)))
    return EXIT_OK


def _cmd_genfun(args) -> int:
    pm: PresburgerModel = _read_model(args.model, "presburger").datum
    if pm.maps:
        f = genfun_image(pm.pset, list(pm.maps))
    else:
        f = genfun(pm.pset)
    print(format_ratfunc(f))
    return EXIT_OK


def _cmd_series_expand(args) -> int:
    P = _read_model(args.model, "series").datum
    for n, c in enumerate(expand(P, args.n)):
        print(f"{n}: {format_motclass(c)}")
    return EXIT_OK


def _cmd_series_limit(args) -> int:
    P = _read_model(args.model, "series").datum
    print(format_motclass(limit_of_coefficients(P, args.d)))
    return EXIT_OK


def _cmd_series_check(args) -> int:
    P = _read_model(args.model, "series").datum
    counts: List[int] = []
    try:
        with open(args.counts, "r", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise ParseError(f"{args.counts}: empty CSV")
            for row in reader:
                counts.append(int(row[-1]))
    except (OSError, ValueError, IndexError) as exc:
        raise ParseError(f"{args.counts}: {exc}")
    report = compare_counts(P, args.q, counts)
    for line in report.lines():
        print(line)
    return EXIT_OK if report.passed else EXIT_DOMAIN


def _variety_arg(args) -> VarietyModel:
    return _read_model(args.model, "variety").datum


def _cmd_jets_count(args) -> int:
    vm = _variety_arg(args)
    if args.j:
        print(image_count(vm.variety, args.n, args.j, args.q, budget=args.budget))
    else:
        print(enumerate_jets(vm.variety, args.n, args.q, budget=args.budget))
    return EXIT_OK


def _cmd_jets_poincare(args) -> int:
    vm = _variety_arg(args)
    table = poincare_table(vm.variety, args.q, args.n_max, args.j_max,
                           budget=args.budget)
    _emit_csv([(n, N_n, int(stable)) for n, N_n, stable in table],
              ("n", "N_n", "stable"), args.output)
    return EXIT_OK


def _cmd_jets_greenberg(args) -> int:
    vm = _variety_arg(args)
    table = stabilized_table(vm.variety, args.q, args.n_max, args.j_max,
                             budget=args.budget)
    rows = [(n, res.N_n, n + res.j_star if res.stable else "", int(res.stable))
            for n, res in enumerate(table)]
    _emit_csv(rows, ("n", "N_n", "gamma_hat", "stable"), args.output)
    return EXIT_OK if all(res.stable for res in table) else EXIT_DOMAIN


def _cmd_jets_oesterle(args) -> int:
    vm = _variety_arg(args)
    seq = oesterle_sequence(vm.variety, args.q, args.n_max, args.j_max,
                            budget=args.budget)
    _emit_csv([(n, r.numerator, r.denominator) for n, r in enumerate(seq)],
              ("n", "ratio_num", "ratio_den"), args.output)
    tail = [abs(b - a) for a, b in zip(seq, seq[1:])]
    if seq and seq[-1] < Fraction(1, 1000) and all(x <= y for x, y in
                                                  zip(tail[1:], tail[:-1])):
        print("warning: sequence tends to 0; the declared dimension may be "
              "too large", file=sys.stderr)
    return EXIT_OK


def _cmd_semialg_count(args) -> int:
    vm = _variety_arg(args)
    cond = vm.condition()
    if cond is None:
        raise ValidationError("the variety model declares no condition")
    try:
        params = tuple(int(x) for x in args.params.split(",")) if args.params else ()
    except ValueError:
        raise ParseError(f"--params must be comma-separated integers, "
                         f"got {args.params!r}")
    if len(params) != len(vm.param_names):
        raise ParseError(f"--params gives {len(params)} values, the model declares "
                         f"{len(vm.param_names)} parameters")
    true_count, unknown = count_semialg(vm.variety, cond, args.n, args.q,
                                        params=params, j_max=args.j_max,
                                        budget=args.budget)
    print(f"definitely_true={true_count} unknown={unknown}")
    return EXIT_OK


def _nonnegative_int(text: str) -> int:
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {text!r}")
    return int(text)


def _add_jet_flags(p: argparse.ArgumentParser, n_max: bool = False,
                   j: bool = False) -> None:
    p.add_argument("--q", type=int, required=True, help="prime field size")
    if n_max:
        p.add_argument("--n-max", type=_nonnegative_int, required=True, dest="n_max")
    else:
        p.add_argument("--n", type=_nonnegative_int, required=True,
                       help="truncation level")
    if j:
        p.add_argument("--j", type=_nonnegative_int, default=0,
                       help="count the level-n truncations of level-(n+J) jets "
                            "(default 0: all level-n jets)")
    else:
        p.add_argument("--j-max", type=_nonnegative_int, default=6, dest="j_max",
                       help="maximum extra lifting depth (default 6)")
    p.add_argument("--budget", type=int, default=None,
                   help="node-expansion budget for the whole command (default "
                        "from MOTIVIC_JETS_BUDGET or 10^8)")
    p.add_argument("--threads", type=int, default=1,
                   help="accepted and ignored: jet commands run in one thread")
    p.add_argument("--output", default=None, help="CSV output path")


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="motivic", allow_abbrev=False,
        description="Exact motivic-volume, zeta, generating-function, and "
                    "jet-counting computations.")
    sub = top.add_subparsers(dest="command", required=True)

    def command(name, fn, help_text):
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)
        p.set_defaults(fn=fn)
        return p

    for name, fn in (("volume", _cmd_volume), ("volume-ideal", _cmd_volume_ideal),
                     ("kontsevich", _cmd_kontsevich)):
        command(name, fn, f"{name} of a resolution model").add_argument("model")

    command("volume-polyhedra", _cmd_volume_polyhedra,
            "volume of a polyhedron model with strata").add_argument("model")

    for name, fn in (("chi", _cmd_chi), ("hodge", _cmd_hodge)):
        p = command(name, fn, f"{name} realization of a class literal "
                              "or resolution model")
        p.add_argument("input", help="a class expression or a model path")

    command("zdelta", _cmd_zdelta,
            "zeta value of a Newton polyhedron").add_argument("model")
    command("genfun", _cmd_genfun,
            "generating function of a Presburger model").add_argument("model")

    p = command("series-expand", _cmd_series_expand, "expand a series model")
    p.add_argument("model")
    p.add_argument("--n", type=_nonnegative_int, required=True)

    p = command("series-limit", _cmd_series_limit,
                "limit of a_n L^{-(n+1)d} for a series model")
    p.add_argument("model")
    p.add_argument("--d", type=int, required=True)

    p = command("series-check", _cmd_series_check,
                "compare a series model against a count table")
    p.add_argument("model")
    p.add_argument("counts", help="CSV whose last column holds the counts")
    p.add_argument("--q", type=int, required=True)

    p = command("jets-count", _cmd_jets_count, "count level-n jets")
    p.add_argument("model")
    _add_jet_flags(p, j=True)

    for name, fn, help_text in (
            ("jets-poincare", _cmd_jets_poincare, "stabilized count table"),
            ("jets-greenberg", _cmd_jets_greenberg, "stabilization-level table"),
            ("jets-oesterle", _cmd_jets_oesterle,
             "scaled count sequence N_n / q^{(n+1)d}")):
        p = command(name, fn, help_text)
        p.add_argument("model")
        _add_jet_flags(p, n_max=True)

    p = command("semialg-count", _cmd_semialg_count,
                "three-valued counting of a condition on jets")
    p.add_argument("model")
    _add_jet_flags(p)
    p.add_argument("--params", default="", help="comma-separated parameters")

    return top


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_PARSE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.fn(args)
    except (ParseError, ValidationError) as exc:
        print(f"error[{type(exc).__name__}]: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except MotivicError as exc:
        print(f"error[{type(exc).__name__}]: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
