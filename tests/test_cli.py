import csv
import json
import math
import os
import sys

import numpy as np
import pytest

from szego import asymptotics, hankel, rational
from szego.cli import _apply_config, _build_parser, main
from szego.sampling import random_coords, random_generic


U5 = '{"terms":[{"pole":[0,-1],"coeffs":[[2,0]]},{"pole":[0,-2],"coeffs":[[-4,0]]}]}'
SOLITON = '{"terms":[{"pole":[0,-1],"coeffs":[[1,0]]}]}'


def read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


class TestSpectrumCommand:
    def test_double_eigenvalue_symbol(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = main(["spectrum", "--symbol", U5, "--out", str(out)])
        assert code == 0
        doc = read_json(out / "spectrum.json")
        assert doc["genericity"] == "non_generic"
        assert all(abs(v**2 - 1.0 / 9.0) < 1e-12 for v in doc["lambda"])
        assert "non_generic" in capsys.readouterr().out

    def test_rank_one(self, tmp_path):
        out = tmp_path / "run"
        assert main(["spectrum", "--symbol", SOLITON, "--out", str(out)]) == 0
        doc = read_json(out / "spectrum.json")
        assert doc["genericity"] == "strongly_generic"
        assert len(doc["lambda"]) == 1

    def test_malformed_json_exits_2(self, capsys):
        assert main(["spectrum", "--symbol", "{broken"]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ("Infinity", "-Infinity", "NaN"))
    def test_non_finite_symbol_exits_2(self, bad, capsys):
        # unchecked, an infinite coefficient becomes the zero symbol (exit 3)
        # and a NaN one an untyped LinAlgError traceback
        for symbol in (f'{{"terms":[{{"pole":[0,-1],"coeffs":[[{bad},0]]}}]}}',
                       f'{{"terms":[{{"pole":[{bad},-1],"coeffs":[[1,0]]}}]}}'):
            assert main(["spectrum", "--symbol", symbol]) == 2
            assert "finite" in capsys.readouterr().err

    def test_zero_symbol_exits_3(self):
        assert main(["spectrum", "--symbol", '{"terms": []}']) == 3

    def test_symbol_from_file(self, tmp_path):
        p = tmp_path / "u.json"
        p.write_text(U5)
        assert main(["spectrum", "--symbol", str(p), "--out",
                     str(tmp_path / "o")]) == 0

    @pytest.mark.parametrize("flag", ("--seed", "--tol"))
    def test_options_of_other_commands_exit_2(self, flag, capsys):
        # only roundtrip reads --seed, and only roundtrip and validate --tol
        assert main(["spectrum", "--symbol", SOLITON, flag, "1"]) == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestEvolveCommand:
    def test_soliton_pole_column(self, tmp_path):
        out = tmp_path / "run"
        code = main(["evolve", "--symbol", SOLITON, "--times", "0,1,2",
                     "--out", str(out)])
        assert code == 0
        with open(out / "trajectory.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        want = [(0.0, -1.0), (0.5, -1.0), (1.0, -1.0)]
        for row, (re, im) in zip(rows, want):
            assert abs(float(row["pole_1_re"]) - re) < 1e-10
            assert abs(float(row["pole_1_im"]) - im) < 1e-10

    def test_conserved_columns_flat(self, tmp_path):
        out = tmp_path / "run"
        assert main(["evolve", "--symbol", U5, "--times", "lin:-3:3:7",
                     "--out", str(out)]) == 0
        with open(out / "trajectory.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        for col in ("J2", "J4", "J6", "J8", "H12"):
            vals = [float(r[col]) for r in rows]
            assert max(vals) - min(vals) < 1e-9 * max(vals)

    def test_json_format_and_determinism(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["evolve", "--symbol", U5, "--times", "log:0.5:50:9",
                         "--format", "json", "--out", str(out)]) == 0
        assert (a / "trajectory.json").read_bytes() == \
            (b / "trajectory.json").read_bytes()

    def test_config_file_defaults_and_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("times = 0,1,2\nformat = json\n")
        out1 = tmp_path / "a"
        assert main(["evolve", "--symbol", SOLITON, "--config", str(cfg),
                     "--out", str(out1)]) == 0
        doc = read_json(out1 / "trajectory.json")
        assert [r[0] for r in doc["rows"]] == [0.0, 1.0, 2.0]
        out2 = tmp_path / "b"
        assert main(["evolve", "--symbol", SOLITON, "--config", str(cfg),
                     "--times", "0,5", "--out", str(out2)]) == 0
        doc = read_json(out2 / "trajectory.json")
        assert [r[0] for r in doc["rows"]] == [0.0, 5.0]

    def test_required_times_from_config_only_for_that_call(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("times = -1,0,1\n")
        out = tmp_path / "a"
        assert main(["evolve", "--symbol", SOLITON, "--config", str(cfg),
                     "--out", str(out)]) == 0
        with open(out / "trajectory.csv", newline="") as fh:
            assert [float(r["time"]) for r in csv.DictReader(fh)] == [-1.0, 0.0, 1.0]
        # --times is required again
        assert main(["evolve", "--symbol", SOLITON]) == 2

    def test_bad_choice_in_config_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("format = xml\n")
        assert main(["evolve", "--symbol", SOLITON, "--times", "0",
                     "--config", str(cfg)]) == 2
        assert "bad config value" in capsys.readouterr().err

    def test_unknown_config_key_exits_2(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("bogus = 1\n")
        assert main(["evolve", "--symbol", SOLITON, "--times", "0",
                     "--config", str(cfg)]) == 2

    @pytest.mark.parametrize("spec", ("lin:0:1", "log:1:x:3", "nan", "0,inf",
                                      "lin:nan:1:3", "log:1:inf:3"))
    def test_malformed_times_exit_2(self, spec, capsys):
        assert main(["evolve", "--symbol", SOLITON, "--times", spec]) == 2
        assert "bad times spec" in capsys.readouterr().err

    def test_non_finite_sobolev_index_exits_2(self, capsys):
        assert main(["evolve", "--symbol", SOLITON, "--times", "0",
                     "--hs", "1,nan"]) == 2
        assert "bad list" in capsys.readouterr().err

    def test_help_returns_0(self, capsys):
        assert main(["evolve", "--help"]) == 0
        assert "--times" in capsys.readouterr().out

    @pytest.mark.parametrize("observables, columns", (
        ("poles", ["pole_1_re", "pole_1_im"]),
        ("coefficients", ["coeff_1_re", "coeff_1_im"]),
        ("poles,coefficients,solitons",
         ["pole_1_re", "pole_1_im", "coeff_1_re", "coeff_1_im", "remainder_L2"]),
    ))
    def test_observable_subsets_keep_their_columns(self, tmp_path, observables, columns):
        # unchecked, poles alone raised an untyped IndexError, and coefficients
        # alone and the remainder of solitons were dropped from the table
        out = tmp_path / "run"
        assert main(["evolve", "--symbol", SOLITON, "--times", "0,1",
                     "--observables", observables, "--out", str(out)]) == 0
        with open(out / "trajectory.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert list(rows[0]) == ["time", *columns]
        assert [float(r["time"]) for r in rows] == [0.0, 1.0]
        if "remainder_L2" in columns:   # one soliton is its own resolution
            assert all(float(r["remainder_L2"]) < 1e-13 for r in rows)

    @pytest.mark.parametrize("observables", ("bogus", "poles,", "norms,J"))
    def test_unknown_observable_exits_2(self, tmp_path, observables, capsys):
        out = tmp_path / "run"
        assert main(["evolve", "--symbol", SOLITON, "--times", "0",
                     "--observables", observables, "--out", str(out)]) == 2
        assert "error: unknown observable" in capsys.readouterr().err
        assert not out.exists()

    def test_manifest_lists_artifacts(self, tmp_path):
        out = tmp_path / "run"
        assert main(["evolve", "--symbol", SOLITON, "--times", "0,1",
                     "--out", str(out)]) == 0
        manifest = read_json(out / "manifest.json")
        files = sorted(os.listdir(out))
        files.remove("manifest.json")
        assert manifest["artifacts"] == files
        assert manifest["command"] == "evolve"
        assert "wall_time_s" in manifest


@pytest.mark.parametrize("argv", (
    ["spectrum", "--symbol", SOLITON],
    ["evolve", "--symbol", SOLITON, "--times", "lin:0:1:3", "--hs", "1"],
    ["solitons", "--symbol", SOLITON, "--times", "log:1:10:6"],
    ["growth", "--symbol", SOLITON, "--times", "log:1e2:1e4:5", "--s", "1"],
    ["actionangle", "--symbol", SOLITON],
    ["roundtrip", "--n", "1", "--count", "1"],
    ["validate", "--symbol", SOLITON, "--t", "0.01", "--L", "100",
     "--M", "4096", "--dt", "1e-2", "--tol", "1"],
))
def test_manifest_config_is_the_parsed_options(tmp_path, argv):
    out = tmp_path / "run"
    assert main([*argv, "--out", str(out)]) == 0
    parsed = vars(_build_parser().parse_args(argv))
    want = {k: v for k, v in parsed.items() if k not in ("func", "command", "out")}
    manifest = read_json(out / "manifest.json")
    assert manifest["command"] == argv[0]
    assert manifest["config"] == want
    assert "symbol" in want or argv[0] == "roundtrip"


@pytest.mark.parametrize("spec", ("", ","))
@pytest.mark.parametrize("command", ("evolve", "solitons", "growth"))
def test_empty_times_exit_2(tmp_path, command, spec, capsys):
    out = tmp_path / "run"
    assert main([command, "--symbol", SOLITON, "--times", spec, "--out", str(out)]) == 2
    assert "times spec needs at least one point" in capsys.readouterr().err
    assert not out.exists()


class TestSolitonsCommand:
    def test_report(self, tmp_path):
        rng = np.random.default_rng(31)
        from szego.sampling import random_strongly_generic
        from szego.rational import to_json_dict

        u = random_strongly_generic(2, rng)
        sym = json.dumps(to_json_dict(u))
        out = tmp_path / "run"
        code = main(["solitons", "--symbol", sym, "--times", "log:1e2:1e4:61",
                     "--s", "0,1", "--out", str(out)])
        assert code == 0
        doc = read_json(out / "solitons.json")
        assert len(doc["solitons"]) == 2
        assert all(-1.2 < e < -0.8 for e in doc["decay_exponents"])
        with open(out / "remainder.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 61


class TestGrowthCommand:
    def test_slope_near_one(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = main(["growth", "--symbol", U5, "--times", "log:1e2:1e4:13",
                     "--s", "1", "--out", str(out)])
        assert code == 0
        doc = read_json(out / "growth.json")
        assert abs(doc["fits"][0]["slope"] - 1.0) < 0.05
        assert doc["double_eigenvalue"]["lambda_sq"] == pytest.approx(1 / 9, abs=1e-12)

    def test_time_zero_exits_3(self, tmp_path, capsys):
        # a fit through t = 0 wrote "slope": NaN and exited 0
        out = tmp_path / "run"
        code = main(["growth", "--symbol", U5, "--times", "lin:0:10:11", "--out", str(out)])
        assert code == 3
        assert "power-law fit" in capsys.readouterr().err
        assert not (out / "growth.json").exists()

    def test_one_recovery_for_every_s(self, tmp_path, monkeypatch):
        calls = []
        inner = asymptotics._recover_many

        def counted(*args):
            calls.append(args)
            return inner(*args)

        monkeypatch.setattr(asymptotics, "_recover_many", counted)
        code = main(["growth", "--symbol", U5, "--s", "0.75,1,2", "--out", str(tmp_path / "run")])
        assert code == 0
        assert len(read_json(tmp_path / "run" / "growth.json")["fits"]) == 3
        assert len(calls) == 1


class TestActionAngleCommand:
    def test_forward(self, tmp_path):
        out = tmp_path / "run"
        assert main(["actionangle", "--symbol", SOLITON, "--out", str(out)]) == 0
        doc = read_json(out / "actionangle.json")
        assert doc["coords"]["actions_i"][0] == pytest.approx(2 * math.pi)

    def test_inverse_roundtrip_report(self, tmp_path):
        coords = json.dumps({
            "actions_i": [2 * math.pi],
            "actions_lambda": [math.pi],
            "angles": [math.pi / 2],
            "gammas": [0.0],
        })
        out = tmp_path / "run"
        assert main(["actionangle", "--coords", coords, "--out", str(out)]) == 0
        doc = read_json(out / "actionangle.json")
        assert doc["max_error"] < 1e-9
        pole = doc["symbol"]["terms"][0]["pole"]
        assert abs(pole[0]) < 1e-9 and abs(pole[1] + 1.0) < 1e-9


    def test_non_numeric_coords_exit_2(self, capsys):
        coords = json.dumps({"actions_i": ["x"], "actions_lambda": [math.pi],
                             "angles": [0.0], "gammas": [0.0]})
        assert main(["actionangle", "--coords", coords]) == 2
        assert "malformed coordinates JSON" in capsys.readouterr().err


class TestRoundtripCommand:
    def test_random_m3(self, tmp_path):
        out = tmp_path / "run"
        code = main(["roundtrip", "--n", "3", "--count", "3", "--seed", "7",
                     "--out", str(out)])
        assert code == 0
        doc = read_json(out / "roundtrip.json")
        assert doc["max_coords_error"] < 1e-7
        assert doc["max_symbol_l2_error"] < 1e-7
        assert read_json(out / "manifest.json")["config"]["tol"] == 1e-7

    def test_sampled_symbol_decomposed_once(self, monkeypatch, tmp_path):
        # per round trip: chi_inverse of the coordinates, the sampler's decomposition
        # of its accepted (scaled) draw, which chi reuses, and chi_inverse of chi's
        # coordinates; the L2 error is the closed form, with no residue integral
        rng, want = np.random.default_rng(0), []
        for _ in range(2):
            random_coords(3, rng)
            want.append(random_generic(3, rng))
        calls = {"eigendecompose": [], "inner_product": []}

        def counting(fn, seen):
            return lambda *a, **kw: seen.append(a[0]) or fn(*a, **kw)

        originals = {"eigendecompose": hankel.eigendecompose,
                     "inner_product": rational.inner_product}
        for mod in [m for name, m in sys.modules.items() if name.startswith("szego")]:
            for name, fn in originals.items():
                if getattr(mod, name, None) is fn:
                    monkeypatch.setattr(mod, name, counting(fn, calls[name]))
        assert main(["roundtrip", "--n", "3", "--count", "2",
                     "--out", str(tmp_path / "run")]) == 0
        assert len(calls["eigendecompose"]) == 6 and calls["inner_product"] == []
        # the sampler's draws are random_generic's at its defaults
        assert all(w == v for w, v in zip(want, calls["eigendecompose"][1::3]))

    def test_non_numeric_config_value_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n = abc\n")
        assert main(["roundtrip", "--config", str(cfg)]) == 2
        assert "bad config value" in capsys.readouterr().err

    @pytest.mark.parametrize("line", ("n = 0", "count = -3", "tol = nan", "tol = -1"))
    def test_out_of_range_config_value_exits_2(self, tmp_path, capsys, line):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        assert main(["roundtrip", "--config", str(cfg)]) == 2
        assert "bad config value" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", (
        ("--n", "-2"), ("--n", "0"), ("--count", "-3"), ("--count", "0"),
        ("--tol", "nan"), ("--tol", "inf"), ("--tol", "-1"), ("--tol", "0")))
    def test_bad_number_exits_2(self, tmp_path, capsys, flag, value):
        # unchecked, --n -2 raised an untyped ValueError, --count 0 and
        # --tol nan passed without a check, and --tol -1 exited 4
        out = tmp_path / "run"
        assert main(["roundtrip", "--n", "2", "--count", "1", flag, value,
                     "--out", str(out)]) == 2
        assert flag in capsys.readouterr().err
        assert not out.exists()

    def test_tolerance_exceeded_exits_4(self, tmp_path):
        code = main(["roundtrip", "--n", "2", "--count", "1", "--seed", "7",
                     "--tol", "1e-30"])
        assert code == 4

    def test_config_does_not_leak_into_the_next_call(self, tmp_path):
        # the parser is built once per process; a config must not change it
        cfg = tmp_path / "run.cfg"
        cfg.write_text("tol = 1e-3\ncount = 1\n")
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["roundtrip", "--n", "2", "--seed", "7", "--config", str(cfg),
                     "--out", str(a)]) == 0
        assert read_json(a / "manifest.json")["config"]["tol"] == 1e-3
        assert main(["roundtrip", "--n", "2", "--seed", "7", "--out", str(b)]) == 0
        config = read_json(b / "manifest.json")["config"]
        assert config["tol"] == 1e-7 and config["count"] == 10


class TestValidateCommand:
    def test_small_budget_passes(self, tmp_path):
        out = tmp_path / "run"
        code = main(["validate", "--symbol", SOLITON, "--t", "0.25",
                     "--L", "100", "--M", str(2**12), "--dt", "1e-3",
                     "--out", str(out)])
        assert code == 0
        doc = read_json(out / "validate.json")
        assert doc["l2_error"] < 2e-4
        assert doc["j2_drift_oracle"] < 1e-12
        assert read_json(out / "manifest.json")["config"]["tol"] == 2e-4

    def test_zero_time_step_exits_2(self):
        code = main(["validate", "--symbol", SOLITON, "--t", "0.05",
                     "--L", "100", "--M", str(2**12), "--dt", "0"])
        assert code == 2

    @pytest.mark.parametrize("word, want", (("true", True), ("TRUE", True),
                                            ("false", False), ("False", False)))
    def test_boolean_config_key(self, tmp_path, word, want):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"convergence = {word}\n")
        parser = _build_parser()
        argv = _apply_config(parser, ["validate", "--symbol", SOLITON,
                                      "--config", str(cfg)])
        assert parser.parse_args(argv).convergence is want

    def test_non_boolean_config_value_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("convergence = maybe\n")
        assert main(["validate", "--symbol", SOLITON, "--config", str(cfg)]) == 2
        assert "bad config value for 'convergence'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ("roundtrip", "validate"))
    @pytest.mark.parametrize("tol", ("nan", "-inf", "-1e-3"))
    def test_bad_tolerance_exits_2(self, command, tol, capsys):
        given = {"roundtrip": ["--n", "2"], "validate": ["--symbol", SOLITON]}[command]
        assert main([command, *given, "--tol", tol]) == 2
        assert "--tol" in capsys.readouterr().err

    def test_tight_tolerance_exits_4(self):
        code = main(["validate", "--symbol", SOLITON, "--t", "0.25",
                     "--L", "100", "--M", str(2**12), "--dt", "1e-3",
                     "--tol", "1e-12"])
        assert code == 4

    def test_convergence_flag_with_nondivisible_budget(self, tmp_path):
        # the convergence window picks its own step count, so a dt that does
        # not divide min(|t|, 1) must still work
        out = tmp_path / "run"
        code = main(["validate", "--symbol", SOLITON, "--t", "0.5",
                     "--L", "100", "--M", str(2**12), "--dt", "2e-3",
                     "--convergence", "--out", str(out)])
        assert code == 0
        doc = read_json(out / "validate.json")
        assert 3.5 < doc["self_convergence"]["order"] < 4.5
