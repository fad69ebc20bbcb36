import csv
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from robust_trees import (
    DegenerateVariance,
    SolveReport,
    default_sweep_lambdas,
    exp_correlation,
    exp_lambda_sweep,
    exp_relative_tables,
    pearson_r,
    write_csv,
)
from robust_trees import cli

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

TINY_CORR = dict(n_instances=2, grid_side=3, n_train=3, n_trees=8, depth=1,
                 lambdas=(0.1,), couplings=("N",), seed=0)


class TestPearson:
    def test_known_value(self):
        assert pearson_r([1, 2, 3], [2, 4, 5]) == pytest.approx(0.9820,
                                                                abs=1e-4)

    def test_perfect_line(self):
        assert pearson_r([1, 2, 3], [2, 4, 6]) == pytest.approx(1.0)
        assert pearson_r([1, 2, 3], [-1, -2, -3]) == pytest.approx(-1.0)

    def test_degenerate(self):
        with pytest.raises(DegenerateVariance):
            pearson_r([1, 1, 1], [2, 4, 5])


class TestWriteCsv:
    def test_formats_floats_to_six_places(self, tmp_path):
        path = tmp_path / "o.csv"
        write_csv(path, ["a", "b"], [{"a": 1 / 3, "b": "x"}])
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        assert rows == [{"a": "0.333333", "b": "x"}]


class TestCorrelation:
    def test_shapes_and_range(self, tmp_path):
        out = exp_correlation(out_dir=str(tmp_path), **TINY_CORR)
        assert len(out["pairs"]) == 2 * 8
        assert len(out["summary"]) == 3
        pooled = [r for r in out["summary"] if r["instance_seed"] == -1]
        assert len(pooled) == 1
        assert -1.0 <= pooled[0]["pearson_r"] <= 1.0
        for row in out["summary"]:
            # Tiny per-instance cells may be flat and come back as NaN.
            r = row["pearson_r"]
            assert np.isnan(r) or -1.0 <= r <= 1.0
        for row in out["pairs"]:
            # Coupling "N" hands the shared adversary n_samples times the
            # per-sample amount, so it dominates the per-sample one.
            assert row["global_value"] >= row["local_value"] - 1e-9
        with open(tmp_path / "correlation_pairs.csv") as fh:
            header = fh.readline().strip().split(",")
        assert header == ["instance_seed", "tree", "lam", "coupling",
                          "local_value", "global_value"]
        with open(tmp_path / "correlation_summary.csv") as fh:
            assert fh.readline().strip().split(",") == [
                "lam", "coupling", "instance_seed", "pearson_r"]

    def test_deterministic_and_worker_invariant(self):
        serial = exp_correlation(**TINY_CORR)
        again = exp_correlation(**TINY_CORR)
        parallel = exp_correlation(workers=2, **TINY_CORR)
        assert serial["pairs"] == again["pairs"]
        assert serial["pairs"] == parallel["pairs"]


class TestLambdaSweep:
    def test_default_grid(self):
        lams = default_sweep_lambdas()
        assert len(lams) == 16
        assert lams[:3] == [0.0, 0.01, 0.02]
        assert lams[-3:] == [0.16, 0.18, 0.2]
        assert lams == sorted(lams)

    def test_cross_evaluation_inequalities(self, tmp_path):
        out = exp_lambda_sweep(out_dir=str(tmp_path), n_instances=2,
                               grid_side=3, n_train=3, depth=1,
                               lambdas=(0.0, 0.2), seed=0)
        assert len(out["rows"]) == 4
        for row in out["rows"]:
            assert row["both_converged"]
            # A tree scored under the other budget cannot beat that
            # budget's own optimum, and the shared budget (n_samples
            # times the per-sample one) dominates the per-sample one.
            assert (row["local_tree_under_global"]
                    >= row["global_opt"] - 1e-9)
            assert (row["global_tree_under_local"]
                    >= row["local_opt"] - 1e-9)
            assert row["global_opt"] >= row["local_opt"] - 1e-9
        for zero in (r for r in out["rows"] if r["lam"] == 0.0):
            assert zero["local_tree_globally_optimal"]
            assert zero["global_tree_locally_optimal"]
        # Seed 0 includes an instance where the shared-budget tree is
        # strictly suboptimal for the per-sample budget.
        assert any(not r["global_tree_locally_optimal"]
                   for r in out["rows"] if r["lam"] == 0.2)
        with open(tmp_path / "sweep_summary.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["lam"] for r in rows] == ["0.000000", "0.200000"]


class TestRelativeTables:
    def test_scaled_rows_and_summary(self, tmp_path):
        out = exp_relative_tables(out_dir=str(tmp_path), grid_sides=(3,),
                                  train_sizes=(3,), n_instances=1,
                                  n_test=4, depth=1, lam=0.05,
                                  heuristic_time_limit=5.0, seed=0)
        methods = {r["method"] for r in out["raw"]}
        assert methods == {"nominal", "H1", "Htree"}
        assert {r["method"] for r in out["scaled"]} == {"H1", "Htree"}
        for row in out["scaled"]:
            # The baseline is the exact nominal optimum, so nobody
            # scores below it on nominal training cost.
            if row["metric"] == "nominal_train":
                assert row["scaled_pct"] >= -1e-9
        summary = out["summary"]
        assert len(summary) == 1 * 1 * 2 * 2 * 3
        for row in summary:
            assert np.isfinite(row["mean_scaled_pct"])
        with open(tmp_path / "tables_summary.csv") as fh:
            header = fh.readline().strip().split(",")
        assert header == ["grid_side", "n_train", "kind", "method",
                          "metric", "mean_scaled_pct"]


class TestCli:
    def _generate(self, tmp_path, **kwargs):
        path = tmp_path / "inst.json"
        argv = ["generate", "--grid", "3", "--train", "3", "--test", "2",
                "--seed", "1", "--out", str(path)]
        assert cli.main(argv) == cli.EXIT_OK
        return path

    def test_generate_solve_evaluate_chain(self, tmp_path):
        inst = self._generate(tmp_path)
        solved = tmp_path / "solved.json"
        argv = ["solve", "--instance", str(inst), "--method", "SG",
                "--kind", "global", "--lambda", "0.05", "--depth", "1",
                "--out", str(solved)]
        assert cli.main(argv) == cli.EXIT_OK
        payload = json.loads(solved.read_text())
        assert payload["report"]["optimal"] is True
        tree_file = tmp_path / "tree.json"
        tree_file.write_text(json.dumps(payload["tree"]))
        scored = tmp_path / "scores.json"
        argv = ["evaluate", "--instance", str(inst), "--tree",
                str(tree_file), "--kind", "global", "--lambda", "0.05",
                "--out", str(scored)]
        assert cli.main(argv) == cli.EXIT_OK
        scores = json.loads(scored.read_text())
        assert scores["robust_train"] == pytest.approx(
            payload["report"]["objective"], abs=1e-9)
        assert scores["nominal_train"] <= scores["robust_train"] + 1e-9

    def test_explicit_gamma_overrides_lambda(self, tmp_path):
        inst = self._generate(tmp_path)
        out = tmp_path / "s.json"
        argv = ["solve", "--instance", str(inst), "--method", "H1",
                "--gamma", "2.5", "--kind", "local", "--out", str(out)]
        assert cli.main(argv) == cli.EXIT_OK
        payload = json.loads(out.read_text())
        assert payload["budget"] == {"kind": "local", "gamma": 2.5}

    def test_post_process_flag(self, tmp_path):
        inst = self._generate(tmp_path)
        out = tmp_path / "s.json"
        argv = ["solve", "--instance", str(inst), "--method", "Htree",
                "--depth", "1", "--time-limit", "5", "--post-process",
                "--out", str(out)]
        assert cli.main(argv) == cli.EXIT_OK
        payload = json.loads(out.read_text())
        if "post_processed_objective" in payload:
            assert (payload["post_processed_objective"]
                    <= payload["report"]["objective"] + 1e-9)

    def test_missing_instance_is_error(self, tmp_path, capsys):
        code = cli.main(["solve", "--instance",
                         str(tmp_path / "nope.json")])
        assert code == cli.EXIT_ERROR
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("method", ["SG", "Htree", "H1"])
    def test_instance_of_the_wrong_width_is_error(self, tmp_path, capsys,
                                                  method):
        inst = self._generate(tmp_path)
        raw = json.loads(inst.read_text())
        for part in ("train", "test"):
            raw[part]["samples"] = [row[:5] for row in raw[part]["samples"]]
        inst.write_text(json.dumps(raw))
        code = cli.main(["solve", "--instance", str(inst), "--method",
                         method, "--depth", "1", "--time-limit", "5"])
        assert code == cli.EXIT_ERROR
        assert "sample rows do not match n_items" in capsys.readouterr().err

    def test_label_naming_no_scenario_is_error(self, tmp_path, capsys):
        inst = self._generate(tmp_path)
        raw = json.loads(inst.read_text())
        raw["train"]["labels"][0] = 7
        inst.write_text(json.dumps(raw))
        code = cli.main(["solve", "--instance", str(inst), "--method", "H1"])
        assert code == cli.EXIT_ERROR
        assert "train labels must name one of the 3" in capsys.readouterr().err

    @pytest.mark.parametrize("budget", [["--gamma", "1"],
                                        ["--lambda", "0.05"]],
                             ids=["gamma", "lambda"])
    def test_negative_depth_is_error(self, tmp_path, capsys, budget):
        inst = self._generate(tmp_path)
        code = cli.main(["solve", "--instance", str(inst), "--method", "SG",
                         "--depth", "-1", *budget])
        assert code == cli.EXIT_ERROR
        assert "depth must be nonnegative" in capsys.readouterr().err

    def test_unknown_flag_is_error(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["solve", "--frobnicate"])
        assert exc.value.code == cli.EXIT_ERROR

    def test_non_optimal_solve_returns_incumbent_code(self, tmp_path,
                                                      monkeypatch):
        inst = self._generate(tmp_path)

        def stub(train, budget, space, depth, time_limit):
            from robust_trees import DecisionTree

            tree = DecisionTree(0, [], [], space.enumerate()[:1])
            return SolveReport("SG", tree, 1.0, 1.0, 1, 0.0, False, False)

        monkeypatch.setattr(cli, "scenario_generation", stub)
        code = cli.main(["solve", "--instance", str(inst), "--method",
                         "SG", "--out", str(tmp_path / "o.json")])
        assert code == cli.EXIT_INCUMBENT

    def test_exp_corr_subcommand(self, tmp_path):
        out_dir = tmp_path / "corr"
        argv = ["exp-corr", "--out", str(out_dir), "--instances", "1",
                "--trees", "4", "--grid", "3", "--train", "3",
                "--depth", "1"]
        assert cli.main(argv) == cli.EXIT_OK
        assert (out_dir / "correlation_pairs.csv").exists()
        assert (out_dir / "correlation_summary.csv").exists()

    def _generate_then_solve(self, command, tmp_path):
        """Run ``generate`` then ``solve --method H1`` through ``command``.

        The child's PYTHONPATH starts with the directory holding the
        ``robust_trees`` package this session imported, so it runs the
        same code whatever the working directory.
        """
        package_root = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [package_root, env.get("PYTHONPATH")]))
        inst = tmp_path / "inst.json"
        proc = subprocess.run(
            [*command, "generate", "--grid", "3", "--train", "3",
             "--test", "2", "--out", str(inst)],
            capture_output=True, text=True, timeout=120, env=env)
        assert proc.returncode == 0, proc.stderr
        proc = subprocess.run(
            [*command, "solve", "--instance", str(inst), "--method", "H1"],
            capture_output=True, text=True, timeout=120, env=env)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["report"]["method"] == "H1"

    def test_console_script_installed(self, tmp_path):
        # Launch the declared entry point the way pip's generated wrapper
        # does, so no install is needed to check that it works.
        tomllib = pytest.importorskip("tomllib")
        with open(PYPROJECT, "rb") as fh:
            target = tomllib.load(fh)["project"]["scripts"]["robust-trees"]
        module, attr = target.split(":")
        wrapper = (f"import sys; from {module} import {attr}; "
                   f"sys.exit({attr}())")
        self._generate_then_solve([sys.executable, "-c", wrapper], tmp_path)

    def test_python_m_runs_the_cli(self):
        # A fresh interpreter with only the package directory on its path.
        package_root = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=package_root)
        proc = subprocess.run([sys.executable, "-m", "robust_trees", "--help"],
                              capture_output=True, text=True, timeout=120,
                              env=env)
        assert proc.returncode == 0, proc.stderr
        assert "usage:" in proc.stdout

    @pytest.mark.skipif(shutil.which("robust-trees") is None,
                        reason="robust-trees executable not on PATH "
                               "(package not installed)")
    def test_console_script_on_path(self, tmp_path):
        self._generate_then_solve(["robust-trees"], tmp_path)
