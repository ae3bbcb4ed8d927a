"""Model files and the command-line interface."""
import os
import pathlib

import pytest

from motivic.cli import main
from motivic.errors import ParseError
from motivic.models import parse_model, print_model

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def fx(name: str) -> str:
    return str(FIXTURES / name)


ALL_FIXTURES = ["blowup.model", "ideal_a1.model", "crepant_chain.model",
                "delta23.model", "polyvol.model", "node.model", "line.model",
                "cusp.model", "a1_cond.model", "node.series",
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
    ])
    def test_bad_input_is_two(self, argv, capsys):
        assert main(argv) == 2

    @pytest.mark.parametrize("body", [
        "vars = i j\ncondition = (>= i 0)\nmap = i - j\n",
        "vars = i\ncondition = (>= i 0)\nmap = i - 1\n",
        "vars = i\ncondition = (mod i 0 0)\n",
        "vars = i\ncondition = " + "(not " * 2000 + "(>= i 0)" + ")" * 2000 + "\n",
    ])
    def test_bad_presburger_model_is_two(self, body, tmp_path, capsys):
        path = tmp_path / "bad.model"
        path.write_text("kind = presburger\n" + body)
        assert main(["genfun", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error[ParseError]")

    def test_deep_jet_condition_is_two(self, tmp_path):
        path = tmp_path / "deep.model"
        path.write_text("kind = variety\nvars = x\ndimension = 1\ncondition = "
                        + "(not " * 2000 + "(ordmod {x} 2 0)" + ")" * 2000 + "\n")
        assert main(["semialg-count", str(path), "--q", "2", "--n", "1"]) == 2


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

    def test_flag_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("MOTIVIC_JETS_BUDGET", "5")
        code = main(["jets-count", fx("node.model"), "--q", "2", "--n", "1",
                     "--budget", "100000"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "8"
