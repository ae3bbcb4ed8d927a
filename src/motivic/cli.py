"""Command-line interface: parse model files, run one computation, print
exact results.  Exit codes: 0 success, 1 domain error, 2 parse error.

Each subcommand is one entry of `COMMANDS`.  `main` reads the model file its
first argument names and hands the datum to the entry's run function.
"""
from __future__ import annotations

import argparse
import csv
import functools
import io
import os
import sys
from fractions import Fraction
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from .errors import DigitLimit, MotivicError, ParseError, ValidationError
from .grring import chi_realize, hodge_realize
from .jets import (count_semialg, enumerate_jets, image_count,
                   oesterle_sequence, poincare_table, stabilized_table)
from .models import ModelFile, parse_model
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
    writer.writerows(rows)
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(buf.getvalue())
    else:
        sys.stdout.write(buf.getvalue())


# -- run functions: (datum, args) -> exit code or None ------------------------
# They name the functions they call through this module's globals, so a
# caller that replaces one of those globals (a tracer, a test) is seen here.

def _chi(x, args) -> None:
    print(realize_volume(x, "chi") if isinstance(x, ResolutionData) else chi_realize(x))


def _hodge(x, args) -> None:
    print(format_hodge(realize_volume(x, "hodge") if isinstance(x, ResolutionData)
                       else hodge_realize(x)))


def _volume_polyhedra(pm, args) -> None:
    if not pm.strata:
        raise ValidationError("the polyhedron model declares no strata")
    print(format_motclass(volume_from_polyhedra(pm.dimension, list(pm.strata))))


def _zdelta(pm, args) -> None:
    if pm.delta is None:
        raise ValidationError("the polyhedron model declares no generators")
    print(format_motclass(z_of_delta(pm.delta)))


def _genfun(pm, args) -> None:
    f = genfun_image(pm.pset, list(pm.maps)) if pm.maps else genfun(pm.pset)
    print(format_ratfunc(f))


def _series_expand(P, args) -> None:
    for n, c in enumerate(expand(P, args.n)):
        print(f"{n}: {format_motclass(c)}")


def _series_check(P, args) -> int:
    try:
        with open(args.counts, "r", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        if not rows:
            raise ParseError(f"{args.counts}: empty CSV")
        try:  # the first row is a header unless its last field is an integer
            counts = [int(rows[0][-1])]
        except (ValueError, IndexError):
            counts = []
        counts += [int(row[-1]) for row in rows[1:]]
    except (OSError, ValueError, IndexError) as exc:
        raise ParseError(f"{args.counts}: {exc}")
    if not counts:
        raise ParseError(f"{args.counts}: no count rows")
    report = compare_counts(P, args.q, counts)
    for line in report.lines():
        print(line)
    return EXIT_OK if report.passed else EXIT_DOMAIN


def _jets_count(vm, args) -> None:
    if args.j:
        count = image_count(vm.variety, args.n, args.j, args.q, budget=args.budget)
    else:
        count = enumerate_jets(vm.variety, args.n, args.q, budget=args.budget)
    print(count)


def _jets_poincare(vm, args) -> None:
    table = poincare_table(vm.variety, args.q, args.n_max, args.j_max,
                           budget=args.budget)
    _emit_csv([(n, N_n, int(stable)) for n, N_n, stable in table],
              ("n", "N_n", "stable"), args.output)


def _jets_greenberg(vm, args) -> int:
    table = stabilized_table(vm.variety, args.q, args.n_max, args.j_max,
                             budget=args.budget)
    rows = [(n, res.N_n, res.gamma if res.stable else "", int(res.stable))
            for n, res in enumerate(table)]
    _emit_csv(rows, ("n", "N_n", "gamma_hat", "stable"), args.output)
    return EXIT_OK if all(res.stable for res in table) else EXIT_DOMAIN


def _jets_oesterle(vm, args) -> None:
    seq = oesterle_sequence(vm.variety, args.q, args.n_max, args.j_max,
                            budget=args.budget)
    _emit_csv([(n, r.numerator, r.denominator) for n, r in enumerate(seq)],
              ("n", "ratio_num", "ratio_den"), args.output)
    tail = [abs(b - a) for a, b in zip(seq, seq[1:])]
    if seq and seq[-1] < Fraction(1, 1000) and all(x <= y for x, y in
                                                  zip(tail[1:], tail[:-1])):
        print("warning: sequence tends to 0; the declared dimension may be "
              "too large", file=sys.stderr)


def _semialg_count(vm, args) -> None:
    if vm.condition is None:
        raise ValidationError("the variety model declares no condition")
    try:
        params = tuple(int(x) for x in args.params.split(",")) if args.params else ()
    except ValueError:
        raise ParseError(f"--params must be comma-separated integers, "
                         f"got {args.params!r}")
    if len(params) != len(vm.param_names):
        raise ParseError(f"--params gives {len(params)} values, the model declares "
                         f"{len(vm.param_names)} parameters")
    true_count, unknown = count_semialg(vm.variety, vm.condition, args.n, args.q,
                                        params=params, j_max=args.j_max,
                                        budget=args.budget)
    print(f"definitely_true={true_count} unknown={unknown}")


# -- flags --------------------------------------------------------------------

def _int_at_least(low: int, what: str):
    def parse(text: str) -> int:
        if not text.isdecimal() or int(text) < low:
            raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}")
        return int(text)
    return parse


_nonnegative_int = _int_at_least(0, "a nonnegative integer")
_positive_int = _int_at_least(1, "a positive integer")
_field_size = _int_at_least(2, "an integer >= 2")


def _flag(*names: str, **options) -> Tuple[Tuple[str, ...], Dict[str, object]]:
    """The arguments of one `add_argument` call."""
    return names, options


MODEL = _flag("model")
Q = _flag("--q", type=int, required=True, help="prime field size")
N = _flag("--n", type=_nonnegative_int, required=True, help="truncation level")
N_MAX = _flag("--n-max", type=_nonnegative_int, required=True, dest="n_max")
J = _flag("--j", type=_nonnegative_int, default=0,
          help="count the level-n truncations of level-(n+J) jets "
               "(default 0: all level-n jets)")
J_MAX = _flag("--j-max", type=_nonnegative_int, default=6, dest="j_max",
              help="levels searched below the last row to certify it (default 6)")
BUDGET = _flag("--budget", type=_nonnegative_int, default=None,
               help="node-expansion budget for the whole command (default "
                    "from MOTIVIC_JETS_BUDGET or 10^8)")
THREADS = _flag("--threads", type=int, default=1,
                help="accepted and ignored: jet commands run in one thread")
TABLE_FLAGS = (MODEL, Q, N_MAX, J_MAX, BUDGET, THREADS,
               _flag("--output", default=None, help="CSV output path"))
CLASS_OR_MODEL = _flag("model", metavar="input",
                       help="a class expression or a model path")


class Command(NamedTuple):
    """One subcommand; its argument `model` names a model of `kind`, or with
    `literal` may instead be a class literal (text naming no file)."""
    help: str
    kind: str
    run: Callable[[object, argparse.Namespace], Optional[int]]
    flags: Tuple[tuple, ...] = (MODEL,)  # `_flag` values
    literal: bool = False


COMMANDS: Dict[str, Command] = {
    "volume": Command(
        "volume of a resolution model", "resolution",
        lambda res, args: print(format_motclass(volume_from_resolution(res)))),
    "volume-ideal": Command(
        "volume-ideal of a resolution model", "resolution",
        lambda res, args: print(format_motclass(volume_with_ideal(res)))),
    "kontsevich": Command(
        "kontsevich of a resolution model", "resolution",
        lambda res, args: print(format_motclass(kontsevich_invariant(res)))),
    "volume-polyhedra": Command(
        "volume of a polyhedron model with strata", "polyhedron", _volume_polyhedra),
    "chi": Command(
        "chi realization of a class literal or resolution model", "resolution",
        _chi, (CLASS_OR_MODEL,), literal=True),
    "hodge": Command(
        "hodge realization of a class literal or resolution model", "resolution",
        _hodge, (CLASS_OR_MODEL,), literal=True),
    "zdelta": Command("zeta value of a Newton polyhedron", "polyhedron", _zdelta),
    "genfun": Command(
        "generating function of a Presburger model", "presburger", _genfun),
    "series-expand": Command(
        "expand a series model", "series", _series_expand,
        (MODEL, _flag("--n", type=_nonnegative_int, required=True))),
    "series-limit": Command(
        "limit of a_n L^{-(n+1)d} for a series model", "series",
        lambda P, args: print(format_motclass(limit_of_coefficients(P, args.d))),
        (MODEL, _flag("--d", type=_positive_int, required=True))),
    "series-check": Command(
        "compare a series model against a count table", "series", _series_check,
        (MODEL, _flag("counts", help="CSV whose last column holds the counts"),
         _flag("--q", type=_field_size, required=True))),
    "jets-count": Command(
        "count level-n jets", "variety", _jets_count,
        (MODEL, Q, N, J, BUDGET, THREADS)),
    "jets-poincare": Command(
        "certified table of arc counts", "variety", _jets_poincare, TABLE_FLAGS),
    "jets-greenberg": Command(
        "certified table with Greenberg's gamma(n)", "variety", _jets_greenberg, TABLE_FLAGS),
    "jets-oesterle": Command(
        "scaled count sequence N_n / q^{(n+1)d}", "variety", _jets_oesterle,
        TABLE_FLAGS),
    "semialg-count": Command(
        "three-valued counting of a condition on jets", "variety", _semialg_count,
        (MODEL, Q, N, J_MAX, BUDGET, THREADS,
         _flag("--params", default="", help="comma-separated parameters"))),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="motivic", allow_abbrev=False,
        description="Exact motivic-volume, zeta, generating-function, and "
                    "jet-counting computations.")
    sub = top.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help, allow_abbrev=False)
        for names, options in command.flags:
            p.add_argument(*names, **options)
    return top


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_PARSE if exc.code not in (0, None) else EXIT_OK
    command = COMMANDS[args.command]
    try:
        if command.literal and not os.path.exists(args.model):
            datum = parse_motclass(args.model)
        else:
            datum = _read_model(args.model, command.kind).datum
        return command.run(datum, args) or EXIT_OK
    except (ParseError, ValidationError) as exc:
        error, code = exc, EXIT_PARSE
    except MotivicError as exc:
        error, code = exc, EXIT_DOMAIN
    except ValueError as exc:
        # the interpreter's limit on converting between integers and text,
        # which this program leaves as it is; any other ValueError is a bug
        if "integer string conversion" not in str(exc):
            raise
        error, code = DigitLimit(
            f"a number exceeds the limit ({sys.get_int_max_str_digits()} digits) "
            "for integer string conversion; the PYTHONINTMAXSTRDIGITS "
            "environment variable raises it"), EXIT_DOMAIN
    print(f"error[{type(error).__name__}]: {error}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
