import csv
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from mfpricelab.cli import RunSpec, main, parse_config, run
from mfpricelab.errors import ConfigError
from mfpricelab.models import preset

SRC = Path(__file__).resolve().parents[1] / "src"

MINIMAL = """
[run]
model = zero
command = solve
out_dir = {out}
"""

FULL_MODEL = """
[grid]
n = 2
l = 1
m = 4
T = 1.0
L = 1.0

[factor]
kind = correlated-bm
rho = 0.5

[informed]
lambda = 1.0
weight = 0.5
cost_mode = affine
running_cost = constant
running_cost.value = 0.25
terminal_cost = constant
terminal_cost.value = 0.5
vol_common = constant
vol_common.value = 0.2
vol_idio = constant
vol_idio.value = 0.3

[standard]
lambda = 1.0
weight = 0.5
cost_mode = affine
running_cost = constant
running_cost.value = 0.25
terminal_cost = constant
terminal_cost.value = 0.5
vol_common = constant
vol_common.value = 0.2
vol_idio = constant
vol_idio.value = 0.3

[run]
command = solve
seed = 123
samples = 1500
tol = 1e-6
out_dir = {out}
"""


def write(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestParseConfig:
    def test_minimal_preset_defaults(self, tmp_path):
        spec = parse_config(write(tmp_path, MINIMAL.format(out=tmp_path)))
        assert spec.command == "solve"
        assert spec.model.name == "zero"
        assert spec.model.solver == preset("zero").solver
        assert not {"samples", "tol", "max_iter", "mode", "min_bucket"} & set(spec.run)

    def test_solver_settings_fold_into_model(self, tmp_path):
        cfg = MINIMAL.format(out=tmp_path) + (
            "samples = 1234\ntol = 1e-5\nmax_iter = 7\nmode = markov\nmin_bucket = 7\n")
        solver = parse_config(write(tmp_path, cfg)).model.solver
        assert (solver.samples, solver.tol, solver.max_iter, solver.mode,
                solver.min_bucket) == (1234, 1e-5, 7, "markov", 7)

    def test_readme_example_parses(self, tmp_path):
        # the README's config example uses only keys the parser knows
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        example = readme.split("```ini\n", 1)[1].split("```", 1)[0]
        spec = parse_config(write(tmp_path, example))
        assert spec.command == "solve" and spec.model.solver.samples == 20000

    def test_parse_twice_identical(self, tmp_path):
        path = write(tmp_path, FULL_MODEL.format(out=tmp_path))
        a = parse_config(path)
        b = parse_config(path)
        assert a.run == b.run and a.command == b.command
        assert a.model.grid == b.model.grid

    def test_unknown_key_rejected(self, tmp_path):
        cfg = MINIMAL.format(out=tmp_path) + "wibble = 3\n"
        with pytest.raises(ConfigError, match="wibble"):
            parse_config(write(tmp_path, cfg))

    def test_unknown_section_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="mystery"):
            parse_config(write(tmp_path, "[mystery]\nx = 1\n"))

    def test_syntax_error_reports_line(self, tmp_path):
        bad = "[run]\nmodel = zero\nthis line has no equals\n"
        with pytest.raises(ConfigError, match="line 3"):
            parse_config(write(tmp_path, bad))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            parse_config(tmp_path / "absent.ini")

    def test_full_model_construction(self, tmp_path):
        spec = parse_config(write(tmp_path, FULL_MODEL.format(out=tmp_path)))
        assert spec.model.grid.n == 2 and spec.model.bounds.L == 1.0
        assert spec.model.informed.lam == 1.0

    def test_unknown_command(self, tmp_path):
        cfg = MINIMAL.format(out=tmp_path).replace("command = solve", "command = dance")
        with pytest.raises(ConfigError):
            parse_config(write(tmp_path, cfg))


class TestRun:
    def test_solve_deterministic_artifacts(self, tmp_path):
        out = tmp_path / "out"
        path = write(tmp_path, FULL_MODEL.format(out=out))
        status, manifest = run(parse_config(path))
        assert status == 0
        assert (out / "equilibrium.csv").exists()
        assert (out / "report.txt").exists()
        data = json.loads((out / "manifest.json").read_text())
        assert data["status"] == 0
        assert all(c["passed"] for c in data["checks"])
        assert data["config"]["run"]["seed"] == 123

    def test_repeat_run_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            path = write(tmp_path, FULL_MODEL.format(out=out), name=f"{out.name}.ini")
            status, _ = run(parse_config(path))
            assert status == 0
        assert (out1 / "equilibrium.csv").read_bytes() == (out2 / "equilibrium.csv").read_bytes()

    def test_clearing_needs_four_sizes(self, tmp_path):
        cfg = MINIMAL.format(out=tmp_path).replace("command = solve", "command = clearing")
        cfg += "n_values = 8\n"
        with pytest.raises(ConfigError, match="4"):
            run(parse_config(write(tmp_path, cfg)))

    def test_validate_command(self, tmp_path):
        out = tmp_path / "v"
        cfg = MINIMAL.format(out=out).replace("command = solve", "command = validate")
        status, manifest = run(parse_config(write(tmp_path, cfg)))
        assert status == 0
        assert (out / "validation.txt").exists()

    @pytest.mark.parametrize("levels", ["1", "2,1", "1,1", "1,2,3", "0,1"])
    def test_refine_rejects_bad_levels(self, tmp_path, levels):
        # fewer than two, not ascending, or deeper than the grid (n = 2)
        cfg = MINIMAL.format(out=tmp_path).replace("command = solve", "command = refine")
        cfg += f"levels = {levels}\n"
        with pytest.raises(ConfigError, match="levels"):
            run(parse_config(write(tmp_path, cfg)))

    def test_refine_reads_mode(self, tmp_path):
        # refine solves each level in the configured key mode
        csv = {}
        for mode in ("prefix", "markov"):
            out = tmp_path / mode
            cfg = ("[run]\nmodel = terminal-common-noise\ncommand = refine\n"
                   f"out_dir = {out}\nseeds = 1\nsamples = 1500\nmode = {mode}\n")
            run(parse_config(write(tmp_path, cfg, name=f"{mode}.ini")))
            csv[mode] = (out / "refinement.csv").read_bytes()
        assert csv["prefix"] != csv["markov"]

    def test_clearing_reads_min_bucket(self, tmp_path, conditioner_builds):
        # the equilibrium solve and the rate study both pool below min_bucket
        cfg = ("[run]\nmodel = deterministic\ncommand = clearing\n"
               f"out_dir = {tmp_path / 'c'}\nsamples = 500\nmin_bucket = 7\n"
               "n_values = 8,16,32,64\nseeds = 1\nn_scenarios = 4\n")
        run(parse_config(write(tmp_path, cfg)))
        assert len(conditioner_builds) == 3 and set(conditioner_builds) == {7}

    def test_deep_solve_defaults_to_markov(self, tmp_path):
        # with no mode set, a grid deeper than n = 2 is solved on Markov keys
        out = tmp_path / "deep"
        cfg = ("[grid]\nn = 3\n\n[run]\nmodel = deterministic\ncommand = solve\n"
               f"out_dir = {out}\nsamples = 1000\n")
        status, manifest = run(parse_config(write(tmp_path, cfg)))
        assert status == 0
        assert "warning: markov key mode" in (out / "report.txt").read_text()
        assert manifest["config"]["solver"]["mode"] is None

    def test_exit_status_reflects_checks(self, tmp_path):
        # an unconverged solve (max_iter too small on a moving map) must exit 1
        out = tmp_path / "w"
        cfg = ("[run]\nmodel = single-informed\ncommand = solve\n"
               f"out_dir = {out}\nsamples = 800\nmax_iter = 1\ntol = 1e-9\n")
        status, manifest = run(parse_config(write(tmp_path, cfg)))
        assert status == 1
        [check] = [c for c in manifest["checks"] if c["name"] == "converged"]
        assert not check["passed"]
        # the detail states the residual, the tol and the iterations used
        assert re.fullmatch(r"map residual \d\.\d{3}e[+-]\d\d, tol 1e-09, 1 of 1 iterations",
                            check["detail"])


class TestMainEntry:
    def test_main_solve_preset(self, tmp_path, capsys):
        rc = main(["solve", "--model", "deterministic", "--out-dir", str(tmp_path / "m"),
                   "--samples", "1000"])
        assert rc == 0
        assert "[PASS]" in capsys.readouterr().out

    @pytest.mark.parametrize("where", ["config", "flag"])
    def test_max_iter_zero_is_config_error(self, tmp_path, capsys, where):
        cfg = MINIMAL.format(out=tmp_path / "z")
        if where == "config":
            argv = ["solve", "--config", str(write(tmp_path, cfg + "max_iter = 0\n"))]
        else:
            argv = ["solve", "--config", str(write(tmp_path, cfg)), "--max-iter", "0"]
        assert main(argv) == 2
        assert "max_iter" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0", "-5"])
    def test_min_bucket_below_one_is_config_error(self, tmp_path, capsys, conditioner_builds,
                                                  value):
        cfg = MINIMAL.format(out=tmp_path / "mb") + f"min_bucket = {value}\n"
        assert main(["solve", "--config", str(write(tmp_path, cfg))]) == 2
        assert "min_bucket" in capsys.readouterr().err
        assert conditioner_builds == []

    def test_undeclared_factor_read_exits_3(self, tmp_path, capsys):
        # the informed terminal cost reads the factor, which reads_factor (false) withholds
        cfg = FULL_MODEL.format(out=tmp_path / "f").replace(
            "terminal_cost = constant\nterminal_cost.value = 0.5\nvol_common",
            "terminal_cost = clipped-factor\nvol_common", 1)
        assert main(["solve", "--config", str(write(tmp_path, cfg))]) == 3
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("error: population I: terminal_cost failed on the factor c = None")

    def test_clearing_sizes_checked_before_solve(self, tmp_path, capsys, conditioner_builds):
        # four sizes spanning less than two octaves: refused before any solve
        cfg = ("[run]\nmodel = clearing\ncommand = clearing\n"
               f"out_dir = {tmp_path / 'c'}\nsamples = 400\nseeds = 1\nn_scenarios = 4\n"
               "n_values = 8,9,10,11\n")
        assert main(["clearing", "--config", str(write(tmp_path, cfg))]) == 2
        assert "octaves" in capsys.readouterr().err
        assert conditioner_builds == []

    def test_clearing_empty_population_before_solve(self, tmp_path, capsys, conditioner_builds):
        # at informed weight 0.5 a market of one agent has no standard agent
        cfg = ("[run]\nmodel = clearing\ncommand = clearing\n"
               f"out_dir = {tmp_path / 'c'}\nsamples = 400\nseeds = 1\nn_scenarios = 4\n"
               "n_values = 1,2,4,8\n")
        assert main(["clearing", "--config", str(write(tmp_path, cfg))]) == 2
        assert "N=1" in capsys.readouterr().err
        assert conditioner_builds == []

    def test_informed_and_solve_label_keys_alike(self, tmp_path):
        # the same batch and key mode give both artifacts the same keys
        keys = {}
        for command, name in (("solve", "equilibrium.csv"), ("informed", "informed.csv")):
            out = tmp_path / command
            main([command, "--model", "single-informed", "--samples", "2000", "--seed", "5",
                  "--out-dir", str(out)])
            with open(out / name, newline="", encoding="utf-8") as fh:
                keys[command] = list(dict.fromkeys((r["interval"], r["key"])
                                                   for r in csv.DictReader(fh)))
        assert keys["solve"] == keys["informed"]
        assert ("1", "-1.5") in keys["solve"] and ("0", "root") in keys["solve"]

    def test_clearing_needs_two_scenarios_before_solve(self, tmp_path, capsys, conditioner_builds):
        # one seed of one scenario has no standard error: refused before any solve
        cfg = ("[run]\nmodel = clearing\ncommand = clearing\n"
               f"out_dir = {tmp_path / 'c'}\nsamples = 400\nseeds = 1\nn_scenarios = 1\n"
               "n_values = 8,16,32,64\n")
        assert main(["clearing", "--config", str(write(tmp_path, cfg))]) == 2
        assert "seeds * n_scenarios" in capsys.readouterr().err
        assert conditioner_builds == []

    @pytest.mark.parametrize("key", ["N_S", "penalty_scaling", "damping"])
    def test_informed_scenario_keys_unknown(self, tmp_path, capsys, key):
        # the informed check has no scenario settings, and the solver no damping
        cfg = MINIMAL.format(out=tmp_path / "s") + f"{key} = 10\n"
        assert main(["informed", "--config", str(write(tmp_path, cfg))]) == 2
        assert f"unknown key {key!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("command,key,value", [
        *(pytest.param("solve", key, "abc", id=key)
          for key in ("seed", "seeds", "levels", "n_values", "n_scenarios", "probe_budget")),
        ("clearing", "seeds", "0"), ("validate", "probe_budget", "0"), ("solve", "--seed", "-1")])
    def test_bad_run_integer_is_config_error(self, tmp_path, capsys, command, key, value):
        cfg = MINIMAL.format(out=tmp_path / "b")
        if key.startswith("--"):
            argv = [key, value]
        else:
            cfg += f"{key} = {value}\n"
            argv = []
        assert main([command, "--config", str(write(tmp_path, cfg)), *argv]) == 2
        assert f"[run] {key.lstrip('-')}: expected" in capsys.readouterr().err

    @pytest.mark.parametrize("model,section,text", [
        ("zero", "grid", "n = 0"),
        ("zero", "grid", "L = x"),
        ("zero", "grid", "L = -1"),
        (None, "factor", "rho = 3"),
        (None, "factor", "rho = nan"),
        (None, "factor", "kind = bogus"),
        ("single-informed", "factor", "rho = 0.9"),
    ])
    def test_grid_and_factor_values(self, tmp_path, capsys, model, section, text):
        # a bad [grid] or [factor] value exits 2 naming its section; a good
        # [factor] value is applied to a preset and echoed in the manifest
        out = tmp_path / "gf"
        if model:
            cfg = f"[run]\nmodel = {model}\nout_dir = {out}\n"
        else:
            cfg = FULL_MODEL.format(out=out)
        cfg += f"[{section}]\n{text}\n"
        rc = main(["validate", "--config", str(write(tmp_path, cfg))])
        if text == "rho = 0.9":
            assert rc == 0
            manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
            assert manifest["config"]["factor"] == {"kind": "correlated-bm", "rho": 0.9}
        else:
            assert rc == 2
            assert f"[{section}]" in capsys.readouterr().err

    def test_lone_undersized_key_warns(self, tmp_path):
        # one sample: every interval has a single key below min_bucket, which
        # no other key can be pooled with
        out = tmp_path / "one"
        main(["solve", "--model", "terminal-common-noise", "--samples", "1",
              "--out-dir", str(out)])
        report = (out / "report.txt").read_text(encoding="utf-8")
        assert "warning: 4 undersized keys (below min_bucket 30) are alone" in report

    def test_import_loads_no_scipy(self):
        # numpy is the only runtime dependency
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
        code = ("import sys, mfpricelab, mfpricelab.cli; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out.strip() == "[]"

    def test_solve_csv_independent_of_hash_seed(self, tmp_path):
        # results depend on (config, seed) only, not on the process's str hashing
        csv = []
        for hash_seed in ("0", "1"):
            out = tmp_path / hash_seed
            env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                       PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
            subprocess.run([sys.executable, "-m", "mfpricelab.cli", "solve",
                            "--model", "terminal-common-noise", "--samples", "2000",
                            "--out-dir", str(out)], env=env, check=True, capture_output=True)
            csv.append((out / "equilibrium.csv").read_bytes())
        assert csv[0] == csv[1]

    def test_convex_solve_independent_of_blas_threads(self, tmp_path):
        # the inner products of the Anderson weights, over the price and the
        # adjoint slabs, and of the cold solves' relaxation factor are numpy
        # reductions, not BLAS calls, so the price and the report do not
        # depend on the BLAS thread count (clearing at 8000 samples, for time)
        for model, extra in (("general-convex", ""), ("clearing", "samples = 8000\n")):
            cfg = write(tmp_path, f"[run]\nmodel = {model}\ncommand = solve\n{extra}")
            outputs = []
            for threads in ("1", "2"):
                out = tmp_path / model / threads
                env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                           PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
                subprocess.run([sys.executable, "-m", "mfpricelab.cli", "solve",
                                "--config", str(cfg), "--out-dir", str(out)],
                               env=env, check=True, capture_output=True)
                outputs.append([(out / name).read_bytes()
                                for name in ("equilibrium.csv", "report.txt")])
            assert outputs[0] == outputs[1], model

    def test_main_config_error(self, tmp_path, capsys):
        rc = main(["solve", "--model", "not-a-preset"])
        assert rc == 2
        assert "configuration error" in capsys.readouterr().err

    def test_refine_default_levels_fit_the_grid(self, tmp_path):
        # levels default to 1..min(3, n): a preset at n = 2 refines levels 1, 2
        cfg = MINIMAL.format(out=tmp_path / "r").replace("command = solve", "command = refine")
        assert main(["refine", "--config", str(write(tmp_path, cfg))]) == 0
        data = json.loads((tmp_path / "r" / "manifest.json").read_text())
        assert data["config"]["run"]["levels"] == [1, 2]

    def test_refine_too_shallow_grid_is_config_error(self, tmp_path, capsys):
        # the clearing preset has n = 1: no two levels to compare
        rc = main(["refine", "--model", "clearing", "--out-dir", str(tmp_path)])
        assert rc == 2
        assert "levels" in capsys.readouterr().err

    @pytest.mark.parametrize("model", ["zero", "clearing"])
    def test_model_flag_and_config_share_run_defaults(self, tmp_path, model):
        out = tmp_path / "out"
        manifest = out / "manifest.json"
        assert main(["validate", "--model", model, "--out-dir", str(out)]) == 0
        from_flag = json.loads(manifest.read_text())["config"]["run"]
        cfg = write(tmp_path, f"[run]\nmodel = {model}\nout_dir = {out}\n")
        assert main(["validate", "--config", str(cfg)]) == 0
        from_config = json.loads(manifest.read_text())["config"]["run"]
        assert from_flag == from_config
