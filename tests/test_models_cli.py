"""Model files and the command-line interface."""
import os
import pathlib
import re
import subprocess
import sys
import types
from typing import List

import pytest

import motivic.cli as cli
from motivic.cli import COMMANDS, build_parser, main
from motivic.errors import ParseError
from motivic.models import parse_model, print_model
from motivic.parsing import parse_int_poly

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def fx(name: str) -> str:
    return str(FIXTURES / name)


ALL_FIXTURES = ["blowup.model", "ideal_a1.model", "crepant_chain.model",
                "delta23.model", "polyvol.model", "node.model", "line.model",
                "cusp.model", "a1_cond.model", "node.series", "den_num.series",
                "pres_mixed.model", "pres_image.model"]


class TestModelFiles:
    @pytest.mark.parametrize("name", ALL_FIXTURES)
    def test_roundtrip(self, name):
        text = (FIXTURES / name).read_text()
        model = parse_model(text)
        printed = print_model(model)
        assert parse_model(printed) == model
        assert print_model(parse_model(printed)) == printed

    def test_unknown_kind(self):
        with pytest.raises(ParseError):
            parse_model("kind = banana\n")

    def test_unknown_key_rejected(self):
        with pytest.raises(ParseError):
            parse_model("kind = variety\nvars = x\ndimension = 1\ncolor = red\n")

    def test_last_line_of_a_key_wins(self):
        model = parse_model("kind = variety\nvars = x y\ndimension = 0\ndimension = 1\n")
        assert model.datum.variety.d == 1

    def test_nu_zero_rejected(self):
        with pytest.raises(ParseError, match="nu"):
            parse_model("kind = resolution\ndimension = 2\n"
                        "divisor E nu=0\nstratum | class = 1\n")

    def test_location_in_diagnostics(self):
        with pytest.raises(ParseError, match="line 3"):
            parse_model("kind = variety\nvars = x\nwhat\n")

    def test_empty_file(self):
        with pytest.raises(ParseError):
            parse_model("   \n# only a comment\n")

    def test_long_flat_polynomial(self):
        assert parse_int_poly("x" + "+x" * 3000, ["x"]) == {(1,): 3001}

    @pytest.mark.parametrize("gens", ["[[True, 2]]", "[[1, 2], [3, False]]"])
    def test_generators_must_be_ints(self, gens):
        # True is an int to isinstance, but it is not the text 1
        with pytest.raises(ParseError, match="integer lists"):
            parse_model(f"kind = polyhedron\ngenerators = {gens}\n")
        with pytest.raises(ParseError, match="integer lists"):
            parse_model("kind = polyhedron\ndimension = 1\n"
                        f"stratum | class = 1 | generators = {gens}\n")


RES = "kind = resolution\ndimension = 2\n"
POLY = "kind = polyhedron\n"
VAR = "kind = variety\nvars = x\n"
SER = "kind = series\n"
PRES = "kind = presburger\nvars = i\n"

# One single-fault model file per diagnostic of the model reader, with the
# whole error line it prints after 'error[ParseError]: ', and a model on
# which the computation stops, with its whole line.
DIAGNOSTICS = [
    ("", "empty model file"),
    ("# only a comment\n", "empty model file"),
    ("what\n", "line 1: expected 'key = value', got 'what'"),
    ("dimension = 2\n", "line 1: the first line must declare the kind"),
    ("kind = banana\n", "line 1: unknown kind 'banana'; expected one of resolution, "
                        "polyhedron, variety, series, presburger"),
    (RES + "divisor E\n", "line 3: divisor line needs a name and nu=VALUE"),
    (RES + "divisor E nu=x\n", "line 3: nu must be an integer, got 'x'"),
    (RES + "divisor E nu=1 N=x\n", "line 3: N must be an integer, got 'x'"),
    (RES + "divisor E nu=1 mu=1\n", "line 3: unknown divisor attribute 'mu=1'"),
    (RES + "divisor E N=1\n", "line 3: divisor line needs nu=VALUE"),
    (RES + "divisor E nu=0\n", "line 3: divisor 'E': nu must be >= 1, got 0"),
    (RES + "divisor E nu=1 N=-1\n", "line 3: divisor 'E': N must be >= 0, got -1"),
    (RES + "stratum E class = 1\n", "line 3: stratum line needs '|' before its fields"),
    (RES + "stratum | class\n", "line 3: expected 'key = value', got 'class'"),
    (RES + "stratum | class = L +\n", "line 3: unexpected end of expression in 'L +'"),
    (RES + "stratum | chi = x | hodge = 1\n", "line 3: bad rational number 'x'"),
    (RES + "stratum | chi = 1 | hodge = u +\n", "line 3: unexpected end of expression in 'u +'"),
    (RES + "stratum | color = red\n", "line 3: unknown stratum field 'color'"),
    (RES + "stratum | chi = 1\n",
     "line 3: stratum []: needs an exact class or both chi and hodge"),
    ("kind = resolution\ndimension = x\n", "line 2: dimension must be an integer, got 'x'"),
    (RES + "total = L +\n", "line 3: unexpected end of expression in 'L +'"),
    (RES + "color = red\n", "line 3: unknown key 'color' in a resolution model"),
    ("kind = resolution\nstratum | class = 1\n", "resolution model needs a 'dimension' line"),
    ("kind = resolution\ndimension = 0\n", "dimension must be positive, got 0"),
    (RES + "divisor E nu=1\ndivisor E nu=2\n", "duplicate divisor names"),
    (RES + "stratum F | class = 1\n", "stratum ['F'] references unknown divisors"),
    (RES + "stratum | class = 1\nstratum | class = L\n", "duplicate stratum for subset []"),
    (POLY + "generators = [[1,\n", "line 2: bad generator list '[[1,'"),
    (POLY + "generators = []\n", "line 2: generators must be a list of integer lists"),
    (POLY + "dimension = 1\nstratum class = 1\n",
     "line 3: polyhedron stratum line starts with '|'"),
    (POLY + "dimension = 1\nstratum | class\n", "line 3: expected 'key = value', got 'class'"),
    (POLY + "dimension = 1\nstratum | class = 1 | generators = [[0]]\n",
     "line 3: generator (0,) has an entry < 1"),
    (POLY + "dimension = 1\nstratum | color = red\n", "line 3: unknown stratum field 'color'"),
    (POLY + "dimension = 1\nstratum | generators = [[1]]\n",
     "line 3: polyhedron stratum needs a class"),
    (POLY + "k = x\ngenerators = [[1]]\n", "line 2: k must be an integer, got 'x'"),
    (POLY + "dimension = x\n", "line 2: dimension must be an integer, got 'x'"),
    (POLY + "color = red\n", "line 2: unknown key 'color' in a polyhedron model"),
    (POLY + "k = 3\ngenerators = [[1, 2]]\n",
     "generator (1, 2) has wrong dimension (expected 3)"),
    (POLY + "k = 0\ngenerators = [[1, 2]]\n", "ambient dimension must be positive"),
    (POLY, "polyhedron model needs generators or strata"),
    (POLY + "stratum | class = 1\n", "polyhedron strata need a 'dimension' line"),
    ("kind = variety\nvars = x x\ndimension = 1\n", "line 2: vars names 'x' twice"),
    (VAR + "params = a a\ndimension = 1\n", "line 3: params names 'a' twice"),
    (VAR + "dimension = x\n", "line 3: dimension must be an integer, got 'x'"),
    (VAR + "dimension = 1\ncolor = red\n", "line 4: unknown key 'color' in a variety model"),
    ("kind = variety\ndimension = 1\n", "variety model needs a 'vars' line"),
    (VAR, "variety model needs a 'dimension' line"),
    (VAR + "dimension = 1\npoly = x +\n", "line 4: unexpected end of expression in 'x +'"),
    (VAR + "dimension = 2\n", "declared dimension 2 outside [0, 1]"),
    (VAR + "dimension = 1\ncondition = (ordmod {x} 2)\n",
     "line 4: 'ordmod' needs (ordmod f modulus residue)"),
    (SER + "num = 1\nden = 1,1\n", "line 3: bad denominator factor '1,1'; expected (a,b)"),
    (SER + "num = 1\nden = (1,1,1)\n",
     "line 3: bad denominator factor '(1,1,1)'; expected (a,b)"),
    (SER + "num = 1\nden = (x,1)\n", "line 3: a must be an integer, got 'x'"),
    (SER + "num = 1\nden = (1,x)\n", "line 3: b must be an integer, got 'x'"),
    (SER + "num = (L\n", "line 2: unexpected end of expression in '(L'"),
    (SER + "num = 1\ncolor = red\n", "line 3: unknown key 'color' in a series model"),
    (SER + "den = (1,1)\n", "series model needs a 'num' line"),
    (SER + "num = 1\nden = (1,0)\n", "denominator factor (1 - L^1 T^0) needs b >= 1"),
    ("kind = presburger\nvars = i i\ncondition = true\n", "line 2: vars names 'i' twice"),
    (PRES + "condition = true\ncolor = red\n",
     "line 4: unknown key 'color' in a presburger model"),
    ("kind = presburger\ncondition = true\n", "presburger model needs a 'vars' line"),
    (PRES, "presburger model needs a 'condition' line"),
    (PRES + "condition = true\nmap = i*i\n", "line 4: map 'i*i' is not affine"),
    (PRES + "condition = true\nmap = i - 1\n",
     "line 4: map 'i - 1' has a negative coefficient; image maps must have "
     "nonnegative coefficients"),
    (PRES + "condition = (>= i\n", "line 3: unbalanced parentheses in condition"),
    (RES + "stratum | class = L$1\n", "line 3: unexpected character '$' at column 2"),
    (RES + "stratum | class = L $ 1\n", "line 3: unexpected character '$' at column 3"),
    (RES + "stratum | class = (L 1\n", "line 3: expected ')' at column 4, got '1'"),
    (RES + "stratum | class = L)\n", "line 3: trailing input ')' at column 2"),
    (RES + "stratum | class = *L\n", "line 3: unexpected token '*' at column 1"),
    (VAR + "dimension = 1\npoly = x^y\n", "line 4: exponent must be an integer at column 3"),
    ("kind = variety\nvars = x y z\ndimension = 2\npoly = (x+y+z)^1000\n",
     "line 4: expression multiplies more than 2000000 pairs of terms"),
    (PRES + "condition = (>= i 0) (>= i 1)\n", "line 3: trailing input after condition"),
    (PRES + "condition = (>= i {0)\n", "line 3: unmatched '{' at column 7 in condition"),
    (PRES + "condition = )\n", "line 3: unexpected ')' in condition"),
    (PRES + "condition = \n", "line 3: unexpected end of condition"),
    (PRES + "condition = maybe\n", "line 3: bad condition token 'maybe'"),
    (PRES + "condition = ()\n", "line 3: empty condition"),
    (PRES + "condition = (not)\n", "line 3: 'not' needs exactly one argument"),
    (PRES + "condition = (>= () 0)\n", "line 3: empty affine expression"),
    (PRES + "condition = (>= (-) 0)\n", "line 3: '-' needs at least one argument"),
    (PRES + "condition = (>= (* i) 0)\n", "line 3: '*' needs exactly two arguments"),
    (PRES + "condition = (>= (/ i 2) 0)\n", "line 3: unknown affine operator '/'"),
    (PRES + "condition = (mod i 2)\n", "line 3: 'mod' needs (mod expr modulus residue)"),
    (VAR + "dimension = 1\ncondition = (ord>= (x) 1)\n",
     "line 4: expected a {polynomial} literal, got ['x']"),
    (VAR + "dimension = 1\ncondition = (ord>= {x})\n",
     "line 4: 'ord>=' needs (op f [g] offset)"),
    (VAR + "dimension = 1\ncondition = (ordmod {x} a 0)\n",
     "line 4: 'ordmod' modulus and residue must be integers"),
    (VAR + "dimension = 1\ncondition = (ac= {a1})\n", "line 4: 'ac=' needs (ac= h f1 ...)"),
    # a model that reads well, on which the computation stops: at q = 2 the
    # level-1 jets (0, t), (t, 0) and (t, t) of y^4 - x^9 are open, and a
    # search to level 1 does not decide them
    ("kind = variety\nvars = x y\ndimension = 1\npoly = y^4 - x^9\n"
     "condition = (ordmod {x} 2 0)\n",
     "error[Unstable]: level-1 arcs not certified: 3 open level-1 jets undecided after "
     "a search to level 1"),
]

# a subcommand that reads each kind of model
READER = {"resolution": ["volume"], "polyhedron": ["zdelta"],
          "variety": ["semialg-count", "--q", "2", "--n", "1", "--j-max", "0"],
          "series": ["series-limit", "--d", "1"], "presburger": ["genfun"]}


class TestModelDiagnostics:
    @pytest.mark.parametrize("body, message", DIAGNOSTICS)
    def test_one_fault_one_line(self, body, message, tmp_path, capsys):
        path = tmp_path / "fault.model"
        path.write_text(body)
        kind = body.partition("\n")[0].partition("= ")[2]
        argv = READER.get(kind, READER["resolution"])
        line = message if message.startswith("error[") else f"error[ParseError]: {message}"
        assert main([argv[0], str(path)] + argv[1:]) == (2 if "[ParseError]" in line else 1)
        assert capsys.readouterr() == ("", line + "\n")

    def test_wrong_kind(self, capsys):
        assert main(["zdelta", fx("node.model")]) == 2
        assert capsys.readouterr() == (
            "", f"error[ParseError]: {fx('node.model')}: expected a polyhedron model, "
                "found variety\n")


class TestCliExitCodes:
    def test_success(self, capsys):
        assert main(["volume", fx("blowup.model")]) == 0
        assert capsys.readouterr().out.strip() == "1"

    def test_domain_error_is_one(self, capsys):
        assert main(["chi", "(L^2+L)/(L^3-1)"]) == 1
        assert "ChiUndefined" in capsys.readouterr().err

    def test_parse_error_is_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.model"
        bad.write_text("kind = resolution\n")
        assert main(["volume", str(bad)]) == 2

    def test_missing_file_is_two(self):
        assert main(["volume", "/nonexistent/x.model"]) == 2

    def test_bad_flags_is_two(self, capsys):
        assert main(["jets-count", fx("node.model")]) == 2

    def test_wrong_kind_is_two(self):
        assert main(["volume", fx("node.model")]) == 2

    @pytest.mark.parametrize("argv", [
        ["jets-count", fx("node.model"), "--q", "2", "--n", "-1"],
        ["jets-count", fx("node.model"), "--q", "2", "--n", "1", "--j", "-1"],
        ["jets-count", fx("node.model"), "--q", "2", "--n", "1", "--j-max", "1"],
        ["jets-poincare", fx("node.model"), "--q", "2", "--n-max", "1",
         "--j-max", "-1"],
        ["jets-oesterle", fx("node.model"), "--q", "2", "--n-max", "-1"],
        ["jets-poincare", fx("node.model"), "--q", "2", "--n-m", "1"],
        ["series-expand", fx("node.series"), "--n", "-3"],
        ["semialg-count", fx("a1_cond.model"), "--q", "2", "--n", "-2"],
        ["semialg-count", fx("a1_cond.model"), "--q", "2", "--n", "2",
         "--params", "x"],
        ["semialg-count", fx("a1_cond.model"), "--q", "2", "--n", "2",
         "--params", "1"],
        ["chi", "(" * 3000 + "L" + ")" * 3000],
        ["chi", "1" + "-" * 3000 + "1"],
        ["jets-count", fx("node.model"), "--q", "2", "--n", "1",
         "--output", "unused.csv"],
        ["semialg-count", fx("a1_cond.model"), "--q", "2", "--n", "2",
         "--output", "unused.csv"],
        ["series-limit", fx("node.series"), "--d", "0"],
        ["series-limit", fx("node.series"), "--d", "-1"],
        ["series-check", fx("node.series"), fx("node_counts.csv"), "--q", "1"],
        ["series-check", fx("node.series"), fx("node_counts.csv"), "--q", "0"],
        ["series-check", fx("node.series"), fx("node_counts.csv"), "--q", "-3"],
        ["series-check", fx("node.series"), fx("header_only.csv"), "--q", "2"],
        ["jets-count", fx("node.model"), "--q", "2", "--n", "1", "--budget", "-1"],
        ["jets-poincare", fx("node.model"), "--q", "2", "--n-max", "1",
         "--budget", "-1"],
    ])
    def test_bad_input_is_two(self, argv, capsys):
        assert main(argv) == 2

    @pytest.mark.parametrize("body", [
        "vars = i j\ncondition = (>= i 0)\nmap = i - j\n",
        "vars = i\ncondition = (>= i 0)\nmap = i - 1\n",
        "vars = i\ncondition = (mod i 0 0)\n",
        "vars = i\ncondition = " + "(not " * 2000 + "(>= i 0)" + ")" * 2000 + "\n",
        "vars = i i\ncondition = (>= (- 3 i) 0)\n",
    ])
    def test_bad_presburger_model_is_two(self, body, tmp_path, capsys):
        path = tmp_path / "bad.model"
        path.write_text("kind = presburger\n" + body)
        assert main(["genfun", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error[ParseError]")

    @pytest.mark.parametrize("body", [
        "vars = x x\ndimension = 1\npoly = x\n",
        "vars = x\nparams = n n\ndimension = 1\ncondition = (ord>= {x} {1} n)\n",
    ])
    def test_duplicate_variety_name_is_two(self, body, tmp_path, capsys):
        path = tmp_path / "dup.model"
        path.write_text("kind = variety\n" + body)
        assert main(["jets-count", str(path), "--q", "2", "--n", "1"]) == 2
        assert "twice" in capsys.readouterr().err

    def test_deep_jet_condition_is_two(self, tmp_path):
        path = tmp_path / "deep.model"
        path.write_text("kind = variety\nvars = x\ndimension = 1\ncondition = "
                        + "(not " * 2000 + "(ordmod {x} 2 0)" + ")" * 2000 + "\n")
        assert main(["semialg-count", str(path), "--q", "2", "--n", "1"]) == 2


    PLANE = "vars = x y\ndimension = 2\n"
    LINE = "vars = x y\ndimension = 1\npoly = y\n"
    COUNT = ["jets-count", "{model}", "--q", "97", "--n", "5000"]
    POINCARE = ["jets-poincare", "{model}", "--q", "97", "--n-max", "2500",
                "--j-max", "0"]

    @pytest.mark.parametrize("curve, argv", [
        pytest.param(PLANE, COUNT, id="count-plane"),
        pytest.param(LINE, COUNT, id="count-line"),
        pytest.param(PLANE, POINCARE, id="poincare-plane"),
        pytest.param(LINE, POINCARE, id="poincare-line"),
        pytest.param(None, ["chi", "10^5000"], id="chi-power"),
        pytest.param(None, ["hodge", "10^5000"], id="hodge-power"),
        pytest.param(None, ["chi", "7" * 5000], id="chi-literal"),
    ])
    def test_count_past_the_digit_limit_is_one(self, curve, argv, tmp_path, capsys):
        limit = sys.get_int_max_str_digits()
        if not limit:
            pytest.skip("integer string conversion is unlimited in this interpreter")
        path = tmp_path / "curve.model"
        if curve is not None:
            path.write_text("kind = variety\n" + curve)
        assert main([a.replace("{model}", str(path)) for a in argv]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error[DigitLimit]") and err.count("\n") == 1
        assert f"({limit} digits)" in err
        assert sys.get_int_max_str_digits() == limit

    def test_residue_classes_past_the_budget_are_one(self, tmp_path, capsys):
        # 99999999999 classes of i are refused before any is unfolded
        path = tmp_path / "huge.model"
        path.write_text("kind = presburger\nvars = i\ncondition = (mod i 99999999999 1)\n")
        assert main(["genfun", str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error[BudgetExceeded]") and err.count("\n") == 1

    def test_undecodable_model_is_two(self, tmp_path, capsys):
        path = tmp_path / "m.series"
        path.write_bytes(b"kind = series\nnum = L\xff\n")
        assert main(["series-expand", str(path), "--n", "3"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error[ParseError]: cannot read {path}: 'utf-8' codec")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("output", ["missing/x.csv", "."])
    def test_unwritable_output_is_two(self, output, tmp_path, capsys):
        target = tmp_path / output
        assert main(["jets-oesterle", fx("node.model"), "--q", "3", "--n-max", "2",
                     "--output", str(target)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error[ValidationError]: cannot write {target}: ")
        assert err.count("\n") == 1

    def test_other_value_errors_propagate(self, monkeypatch):
        import motivic.cli as cli

        def broken(cls):
            raise ValueError("not about digits")
        monkeypatch.setattr(cli, "chi_realize", broken)
        with pytest.raises(ValueError, match="not about digits"):
            main(["chi", "L"])


def _valid_argv(name: str) -> List[str]:
    """An argv that names every flag of the command, each with the value 2."""
    argv = [name]
    for names, options in COMMANDS[name].flags:
        argv += [names[0], "2"] if names[0].startswith("-") else [names[0] + ".x"]
    return argv


def _refused_argvs(name: str) -> List[List[str]]:
    """-h, a missing required flag (else the model), a bad integer where the
    command takes one, and an unrecognized trailing argument."""
    argv, flags = _valid_argv(name), COMMANDS[name].flags
    required = [names[0] for names, options in flags if options.get("required")]
    cut = argv.index(required[0]) if required else 1
    out = [argv + ["-h"], argv[:cut] + argv[cut + 2 if required else cut + 1:],
           argv + ["extra"]]
    if any(options.get("type") for _, options in flags):
        flag = next(names[0] for names, options in flags if options.get("type"))
        out.append(argv + [flag, "x"])
    return out


class TestDispatch:
    """`main` parses a known command with its own parser; the result equals
    the top parser's, and every refusal prints what the top parser prints."""

    @pytest.mark.parametrize("name", list(COMMANDS))
    def test_valid_argv_gives_the_same_namespace(self, name, monkeypatch):
        seen = []
        monkeypatch.setitem(COMMANDS, name, COMMANDS[name]._replace(
            run=lambda datum, args: seen.append(args), literal=False))
        monkeypatch.setattr(cli, "_read_model",
                            lambda path, kind: types.SimpleNamespace(datum=None))
        argv = _valid_argv(name)
        assert main(argv) == 0
        assert seen == [build_parser().parse_args(argv)]

    @pytest.mark.parametrize("argv", [
        pytest.param(argv, id=f"{name}-{i}")
        for name in COMMANDS for i, argv in enumerate(_refused_argvs(name))]
        + [pytest.param(["no-such-command", "x"], id="unknown"),
           pytest.param([], id="empty"), pytest.param(["-h"], id="top-help")])
    def test_refusal_prints_what_the_top_parser_prints(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        printed = capsys.readouterr()
        assert main(argv) == exc.value.code
        assert capsys.readouterr() == printed

    def test_console_entry_reads_sys_argv(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(FIXTURES.parent.parent / "src")]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        proc = subprocess.run(
            [sys.executable, "-m", "motivic.cli", "jets-count", fx("node.model"),
             "--q", "2", "--n", "1"], env=env, capture_output=True, text=True, timeout=60)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "8\n", "")


class TestWorkBounds:
    """Short inputs that once ran without end: each prints its value or one
    error line."""

    @pytest.mark.parametrize("literal, code, line", [
        ("1/(L^30030-1)", 1, "error[ChiUndefined]: chi undefined for 1/(L^30030-1): "
                             "(L-1)^1 does not divide the numerator"),
        ("1/(L^10000000-1)", 1, "error[ChiUndefined]: chi undefined for "
                                "1/(L^10000000-1): (L-1)^1 does not divide the numerator"),
        ("(L^100000000-1)/(L-1)", 1,
         "error[BudgetExceeded]: exact division over 100000001 exponents, more than "
         "the bound of 2000000"),
        ("(L^7-1)/(L^30030-1)", 0, "1/4290"),
        ("(L^1000000-1)/(L-1)", 0, "1000000"),
        ("(L+1)^100000", 2,
         "error[ParseError]: expression multiplies more than 2000000 pairs of terms"),
        # a power is computed by squaring and charged for the bits its
        # coefficients grow by, so neither runs e products of growing integers
        ("3^1999999", 2,
         "error[ParseError]: expression multiplies more than 2000000 pairs of terms"),
        ("(L^2)^1999999", 0, "1"),
        # the factors over a denominator cancel as the power is built, not at the end
        ("((L^30-1)/(L^30-1))^400", 0, "1"),
        pytest.param("7" * 4000 + "^1000", 2, "error[ParseError]: expression multiplies "
                     "more than 2000000 pairs of terms", id="4000-digit-base^1000"),
    ])
    def test_chi_literal(self, literal, code, line, capsys):
        assert main(["chi", literal]) == code
        assert capsys.readouterr() == ((line + "\n", "") if code == 0 else ("", line + "\n"))

    def test_series_expand_past_the_bound(self, capsys):
        # 10^8 + 1 coefficient slots are refused before any is made
        assert main(["series-expand", fx("node.series"), "--n", "100000000"]) == 1
        assert capsys.readouterr() == (
            "", "error[BudgetExceeded]: expanding a series to n = 100000000 takes more "
                "than 1000000 coefficient slots and term updates\n")

    def test_zdelta_past_the_division_span(self, tmp_path, capsys):
        # two cones of ~10^5 parallelepiped points, whose sum has denominator
        # exponents near 10^10
        path = tmp_path / "wide.model"
        path.write_text("kind = polyhedron\ngenerators = [[100000, 1], [1, 99999]]\n")
        assert main(["zdelta", str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error[BudgetExceeded]: exact division over ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("generators, code, out, err", [
        # one cone of 99,999 points: its class is printed
        pytest.param("[[100000, 1], [1, 2]]", 0,
                     ("(L^199998 - L^199997 + ", "+ L^2 - 1)/(L^199999-1)\n"), "", id="value"),
        # one cone of 999,999 points, whose denominator exponent 1999999 lies
        # just inside the division span; dividing by L - 1 alone would make about
        # 4 * 10^6 term updates, and dividing by the cyclotomic factors up to
        # Phi_117647 ran for minutes before the update bound
        pytest.param("[[1000000, 1], [1, 2]]", 1, ("", ""),
                     "error[BudgetExceeded]: exact division over 2000000 exponents by 2 "
                     "terms, more than the bound of 2000000 term updates\n", id="refused"),
    ])
    def test_zdelta_near_the_division_bounds(self, generators, code, out, err, tmp_path,
                                             capsys):
        path = tmp_path / "cone.model"
        path.write_text(f"kind = polyhedron\ngenerators = {generators}\n")
        assert main(["zdelta", str(path)]) == code
        got = capsys.readouterr()
        assert got.out.startswith(out[0]) and got.out.endswith(out[1])
        assert got.err == err


class TestCliOutputs:
    def test_volume_ideal(self, capsys):
        assert main(["volume-ideal", fx("ideal_a1.model")]) == 0
        assert capsys.readouterr().out.strip() == "(L^2 - L)/(L^2-1)"

    def test_kontsevich(self, capsys):
        assert main(["kontsevich", fx("crepant_chain.model")]) == 0
        assert capsys.readouterr().out.strip() == "1"

    def test_chi_literal(self, capsys):
        assert main(["chi", "(L-1)/(L^4-1)"]) == 0
        assert capsys.readouterr().out.strip() == "1/4"

    @pytest.mark.parametrize("text, value", [
        ("1" + "+1" * 3000, "3001"),
        ("L" + "*L" * 3000, "1"),
    ])
    def test_chi_of_a_long_flat_literal(self, text, value, capsys):
        assert main(["chi", text]) == 0
        assert capsys.readouterr().out.strip() == value

    def test_chi_model(self, capsys):
        assert main(["chi", fx("blowup.model")]) == 0
        assert capsys.readouterr().out.strip() == "1"

    def test_hodge(self, capsys):
        assert main(["hodge", fx("blowup.model")]) == 0
        assert capsys.readouterr().out.strip() == "1"

    def test_zdelta(self, capsys):
        assert main(["zdelta", fx("delta23.model")]) == 0
        assert capsys.readouterr().out.strip() == "(L^4 - L^3 + L^2 - 1)/(L^5-1)"

    def test_volume_polyhedra(self, capsys):
        assert main(["volume-polyhedra", fx("polyvol.model")]) == 0
        assert capsys.readouterr().out.strip() == "1"

    def test_genfun(self, capsys):
        assert main(["genfun", fx("pres_image.model")]) == 0
        out = capsys.readouterr().out.strip()
        assert "/(1 - " in out

    def test_series_expand_and_limit(self, capsys):
        assert main(["series-expand", fx("node.series"), "--n", "2"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out == ["0: 2*L - 1", "1: 2*L^2 - 1", "2: 2*L^3 - 1"]
        assert main(["series-limit", fx("node.series"), "--d", "1"]) == 0
        assert capsys.readouterr().out.strip() == "2"

    def test_series_check_pass_and_fail(self, tmp_path, capsys):
        csv_path = tmp_path / "counts.csv"
        csv_path.write_text("n,j,count\n0,0,3\n1,0,7\n2,0,15\n")
        assert main(["series-check", fx("node.series"), str(csv_path),
                     "--q", "2"]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "PASS"
        csv_path.write_text("n,j,count\n0,0,3\n1,0,8\n")
        assert main(["series-check", fx("node.series"), str(csv_path),
                     "--q", "2"]) == 1
        assert capsys.readouterr().out.splitlines()[-1] == "FAIL"

    @pytest.mark.parametrize("argv, code, pinned", [
        (["series-expand", fx("den_num.series"), "--n", "12"], 0, "den_num_expand.txt"),
        (["series-check", fx("den_num.series"), fx("den_num_counts.csv"), "--q", "3"], 1,
         "den_num_check.txt"),
    ])
    def test_series_with_denominators_pinned(self, argv, code, pinned, capsys):
        # numerator classes over (L-1) and (L^2-1); the bytes were printed by
        # the expansion that added whole classes at every step
        assert main(argv) == code
        assert capsys.readouterr() == ((FIXTURES / pinned).read_text(), "")

    @pytest.mark.parametrize("text", ["3\n7\n", "n,N_n\n0,3\n1,7\n"])
    def test_series_check_header_is_optional(self, text, tmp_path, capsys):
        csv_path = tmp_path / "counts.csv"
        csv_path.write_text(text)
        assert main(["series-check", fx("node.series"), str(csv_path), "--q", "2"]) == 0
        assert capsys.readouterr() == (
            "n=0 expected=3 actual=3 ok\nn=1 expected=7 actual=7 ok\nPASS\n", "")

    def test_jets_count(self, capsys):
        assert main(["jets-count", fx("node.model"), "--q", "2", "--n", "1"]) == 0
        assert capsys.readouterr().out.strip() == "8"

    def test_jets_count_lifting_depth(self, capsys):
        assert main(["jets-count", fx("cusp.model"), "--q", "5", "--n", "3",
                     "--j", "1"]) == 0
        assert capsys.readouterr().out.strip() == "625"

    def test_jets_poincare_csv(self, tmp_path, capsys):
        out_path = tmp_path / "t.csv"
        assert main(["jets-poincare", fx("node.model"), "--q", "2",
                     "--n-max", "3", "--j-max", "6",
                     "--output", str(out_path)]) == 0
        assert out_path.read_text() == \
            "n,N_n,stable\n0,3,1\n1,7,1\n2,15,1\n3,31,1\n"

    def test_jets_greenberg(self, capsys):
        assert main(["jets-greenberg", fx("node.model"), "--q", "2",
                     "--n-max", "2", "--j-max", "6"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "n,N_n,gamma_hat,stable"
        assert lines[2] == "1,7,2,1"
        assert lines[3] == "2,15,4,1"

    def test_jets_oesterle(self, capsys):
        assert main(["jets-oesterle", fx("node.model"), "--q", "2",
                     "--n-max", "2", "--j-max", "6"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1:] == ["0,3,2", "1,7,4", "2,15,8"]

    def test_semialg_count(self, capsys):
        assert main(["semialg-count", fx("a1_cond.model"), "--q", "2",
                     "--n", "3"]) == 0
        assert capsys.readouterr().out.strip() == \
            "definitely_true=10 unknown=1"

    def test_semialg_count_decided_subtrees_within_budget(self, capsys):
        # ord x is decided on each jet with x != 0, so its level-6 jets are
        # counted in closed form, not built one by one
        assert main(["semialg-count", fx("a1_cond.model"), "--q", "5",
                     "--n", "6", "--budget", "20"]) == 0
        assert capsys.readouterr().out == "definitely_true=65104 unknown=1\n"

    @pytest.mark.parametrize("body, argv, expected", [
        # x^1200 = 0 mod t^3 iff x(0) = 0: the level-2 jets (0, x1, x2)
        pytest.param("dimension = 0\npoly = x^1200\n", ["jets-count", "--n", "2"],
                     "4\n", id="jets-count"),
        pytest.param("dimension = 1\ncondition = (ordmod {x^1200} 2 0)\n",
                     ["semialg-count", "--n", "1"], "definitely_true=2 unknown=2\n",
                     id="semialg-count"),
    ])
    def test_high_degree_monomials(self, body, argv, expected, tmp_path, capsys):
        # the chain of a monomial of degree 1200 is built without recursion
        path = tmp_path / "high.model"
        path.write_text("kind = variety\nvars = x\n" + body)
        assert main([argv[0], str(path), "--q", "2"] + argv[1:]) == 0
        assert capsys.readouterr() == (expected, "")

    def test_outputs_are_deterministic(self, capsys):
        runs = []
        for _ in range(2):
            assert main(["genfun", fx("pres_mixed.model")]) == 0
            runs.append(capsys.readouterr().out)
        assert runs[0] == runs[1]


class TestBudgetEnvVar:
    def test_env_budget_override(self, capsys, monkeypatch):
        monkeypatch.setenv("MOTIVIC_JETS_BUDGET", "5")
        code = main(["jets-count", fx("node.model"), "--q", "3", "--n", "4"])
        assert code == 1
        assert "BudgetExceeded" in capsys.readouterr().err

    def test_budget_error_names_units_and_level(self, capsys):
        # 5 units end inside the 9-point level-0 scan of F_3^2; 300 units
        # end on a level-4 jet of the cusp table
        assert main(["jets-count", fx("node.model"), "--q", "3", "--n", "4",
                     "--budget", "5"]) == 1
        assert capsys.readouterr().err == (
            "error[BudgetExceeded]: jet enumeration exceeded the budget of 5 node"
            " expansions: all 5 units used, stopped while scanning level-0 points\n")
        assert main(["jets-poincare", fx("cusp.model"), "--q", "5", "--n-max", "6",
                     "--j-max", "4", "--budget", "300"]) == 1
        assert capsys.readouterr().err == (
            "error[BudgetExceeded]: jet enumeration exceeded the budget of 300 node"
            " expansions: all 300 units used, stopped while expanding a level-4 jet\n")

    @pytest.mark.parametrize("raw", ["-1", "x"])
    def test_env_budget_must_be_nonnegative(self, capsys, monkeypatch, raw):
        monkeypatch.setenv("MOTIVIC_JETS_BUDGET", raw)
        code = main(["jets-count", fx("node.model"), "--q", "2", "--n", "1"])
        assert code == 2
        assert "error[ValidationError]: MOTIVIC_JETS_BUDGET" in capsys.readouterr().err

    def test_flag_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("MOTIVIC_JETS_BUDGET", "5")
        code = main(["jets-count", fx("node.model"), "--q", "2", "--n", "1",
                     "--budget", "100000"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "8"


class TestReadme:
    def test_cli_table_is_the_command_table(self):
        readme = (pathlib.Path(__file__).parent.parent / "README.md").read_text()
        section = readme.partition("## Command-line usage")[2].partition("\n## ")[0]
        rows = re.findall(r"^\| `([a-z-]+)[^`]*` \| ([^|]+) \|", section, re.M)
        assert [name for name, _ in rows] == list(COMMANDS)
        for name, given in rows:
            assert f"{COMMANDS[name].kind} model" in given, name
