import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from scipy.integrate import trapezoid

from resodyn import cli, statistics
from resodyn.cli import main
from resodyn.verify import CheckResult

FIG_ARGS = [
    "--delta", "1", "--d", "1", "--v", "0.75",
    "--gamma1", "0.5", "--gamma2", "0.5", "--theta", "0.3141592653589793",
]


@pytest.fixture
def runner():
    return CliRunner()


def _reject_constant(token):
    raise ValueError(f"non-standard JSON constant {token}")


def read_csv(path):
    comments, header, rows = [], None, []
    with open(path) as handle:
        for line in handle:
            line = line.rstrip("\n")
            if line.startswith("#"):
                comments.append(line)
            elif header is None:
                header = line.split(",")
            else:
                rows.append([float(x) for x in line.split(",")])
    return comments, header, np.array(rows)


class TestSweepCommand:
    def test_reference_sweep(self, runner, tmp_path):
        out = tmp_path / "sweep.csv"
        result = runner.invoke(
            main,
            ["two-level", "sweep", *FIG_ARGS,
             "--alpha-min", "-2", "--alpha-max", "2", "--steps", "801",
             "-o", str(out)],
        )
        assert result.exit_code == 0
        comments, header, rows = read_csv(out)
        assert header == [
            "alpha", "E1", "E2", "Gamma1", "Gamma2", "Re_f", "Im_f",
            "dGamma1", "dE1", "U11_re", "U12_im", "ep_distance",
        ]
        assert rows.shape == (801, 12)
        assert comments[0].startswith("# resodyn ")
        # openness and total energy are conserved row by row
        np.testing.assert_allclose(rows[:, 1] + rows[:, 2], 0.0, atol=1e-13)
        np.testing.assert_allclose(rows[:, 3] + rows[:, 4], 1.0, atol=1e-13)

    def test_single_point(self, runner, tmp_path):
        out = tmp_path / "point.csv"
        result = runner.invoke(
            main,
            ["two-level", "sweep", "--delta", "1", "--d", "1", "--v", "0.75",
             "--gamma1", "0.5", "--gamma2", "0.5",
             "--theta", "1.5707963267948966",
             "--alpha-min", "0", "--alpha-max", "0", "--steps", "1",
             "-o", str(out)],
        )
        assert result.exit_code == 0
        _, _, rows = read_csv(out)
        assert rows.shape == (1, 12)
        assert rows[0, 0] == 0.0

    def test_json_format(self, runner):
        result = runner.invoke(
            main,
            ["two-level", "sweep", *FIG_ARGS,
             "--alpha-min", "0", "--alpha-max", "1", "--steps", "3",
             "--format", "json"],
        )
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert len(payload["rows"]) == 3
        assert payload["rows"][0]["alpha"] == 0.0

    def test_json_rows_are_strict_json_at_an_exceptional_point(self, runner):
        # eps = nu at alpha = 0, so the first row's mixing, velocities and U
        # are undefined; RFC 8259 has no NaN token, so they are written null
        result = runner.invoke(
            main,
            ["two-level", "sweep", "--delta", "0.5", "--d", "0", "--v", "0.1",
             "--gamma1", "0.5", "--gamma2", "0.5", "--theta", "0",
             "--alpha-min", "0", "--alpha-max", "1", "--steps", "3", "--format", "json"],
        )
        assert result.exit_code == 0
        rows = json.loads(result.output, parse_constant=_reject_constant)["rows"]
        assert [k for k, v in rows[0].items() if v is None] == [
            "Im_f", "Re_f", "U11_re", "U12_im", "dE1", "dGamma1"]
        assert rows[0]["Gamma1"] == 0.5 and rows[0]["ep_distance"] == 0.0
        assert None not in rows[1].values()

    def test_invalid_params_exit_one(self, runner):
        result = runner.invoke(
            main,
            ["two-level", "sweep", "--delta", "1", "--d", "1", "--v", "0.75",
             "--gamma1", "-0.5", "--gamma2", "0.5", "--theta", "0.3",
             "--alpha-min", "0", "--alpha-max", "1", "--steps", "3"],
        )
        assert result.exit_code == 1

    def test_missing_flag_exit_one(self, runner):
        result = runner.invoke(main, ["two-level", "sweep", "--delta", "1"])
        assert result.exit_code == 1
        # named by the flags the user types
        assert "missing required option(s): --d, --v, --gamma1," in result.output

    def test_config_file_merging(self, runner, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({
            "delta": 1.0, "d": 1.0, "v": 0.75, "gamma1": 0.5, "gamma2": 0.5,
            "theta": 0.3141592653589793, "alpha_min": -1.0, "alpha_max": 1.0,
            "steps": 5,
        }))
        out = tmp_path / "sweep.csv"
        result = runner.invoke(
            main,
            ["two-level", "sweep", "--config", str(config), "--steps", "7",
             "-o", str(out)],
        )
        assert result.exit_code == 0
        _, _, rows = read_csv(out)
        assert rows.shape[0] == 7  # explicit flag beats the config value

    def test_unknown_config_key_rejected(self, runner, tmp_path):
        config = tmp_path / "bad.json"
        config.write_text(json.dumps({"delta": 1.0, "bogus_key": 3}))
        result = runner.invoke(main, ["two-level", "sweep", "--config", str(config)])
        assert result.exit_code == 1
        assert "bogus_key" in result.output


class TestCriticalPointsCommand:
    def test_reference_point(self, runner):
        result = runner.invoke(
            main,
            ["two-level", "critical-points", *FIG_ARGS,
             "--bracket-min", "-2", "--bracket-max", "2"],
        )
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert abs(payload["alpha_circ"] - (-0.5)) <= 1e-10
        assert abs(payload["alpha_star"] - (-0.17473960898)) <= 1e-8
        assert abs(payload["U_at_star"]["U11"]["im"]) <= 1e-12
        assert payload["f_at_star"]["re"] > 0.3

    def test_empty_bracket_exit_two(self, runner):
        result = runner.invoke(
            main,
            ["two-level", "critical-points", *FIG_ARGS,
             "--bracket-min", "0.5", "--bracket-max", "2"],
        )
        assert result.exit_code == 2
        assert "sign change" in result.output


class TestEnsembleCommand:
    def test_histogram_output(self, runner, tmp_path):
        out = tmp_path / "hist.csv"
        result = runner.invoke(
            main,
            ["ensemble", "--model", "picket-fence", "--n", "250", "--m", "1",
             "--realizations", "40", "--window", "25", "--seed", "7",
             "-o", str(out)],
        )
        assert result.exit_code == 0
        comments, header, rows = read_csv(out)
        assert header == ["bin_left", "bin_right", "bin_center", "count", "density", "pdf"]
        assert rows.shape == (61, 6)
        assert any(c.startswith("# second_moment:") for c in comments)
        assert rows[:, 3].sum() <= 40 * 25
        # the single-channel curve is NaN exactly at the singular center bin
        centers, pdf = rows[:, 2], rows[:, 5]
        np.testing.assert_array_equal(np.isnan(pdf), np.abs(centers) < 1e-10)
        assert np.isnan(pdf[30])

    def test_seed_reproducibility_bytes(self, runner, tmp_path):
        args = ["ensemble", "--model", "picket-fence", "--n", "250", "--m", "1",
                "--realizations", "20", "--window", "25", "--seed", "11"]
        paths = []
        for tag, threads in (("a", "1"), ("b", "3")):
            samples = tmp_path / f"samples_{tag}.csv"
            out = tmp_path / f"hist_{tag}.csv"
            result = runner.invoke(
                main, [*args, "--threads", threads, "-o", str(out),
                       "--samples-out", str(samples)],
            )
            assert result.exit_code == 0
            paths.append(samples)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_goe_direct_threads_bytes(self, runner, tmp_path):
        # the GOE direct route calls eigh, whose bytes would follow the BLAS
        # thread count if the sampler did not pin it
        args = ["ensemble", "--model", "goe", "--route", "direct", "--n", "120",
                "--m", "2", "--realizations", "40", "--window", "25", "--seed", "5"]
        samples, runtimes = [], []
        for threads in ("1", "2"):
            out = tmp_path / f"hist_{threads}.csv"
            samples.append(tmp_path / f"samples_{threads}.csv")
            result = runner.invoke(
                main, [*args, "--threads", threads, "-o", str(out),
                       "--samples-out", str(samples[-1])],
            )
            assert result.exit_code == 0, result.output
            comments, _, _ = read_csv(out)
            line = next(c for c in comments if c.startswith("# runtime: "))
            runtimes.append(json.loads(line.removeprefix("# runtime: ")))
        assert samples[0].read_bytes() == samples[1].read_bytes()
        assert b"# runtime:" not in samples[0].read_bytes()
        assert runtimes[0]["workers"] == 1 and runtimes[0]["reason"] is None
        if runtimes[1]["blas_threads"] == 1:
            assert runtimes[1]["workers"] == 2 and runtimes[1]["reason"] is None
        else:
            assert runtimes[1] == {"workers": 1, "reason": "BLAS thread control unavailable",
                                   "blas": "unknown", "blas_threads": None}

    def test_fresh_seed_is_echoed(self, runner, tmp_path):
        out = tmp_path / "hist.csv"
        result = runner.invoke(
            main,
            ["ensemble", "--model", "picket-fence", "--n", "50", "--m", "1",
             "--realizations", "5", "--window", "11", "-o", str(out)],
        )
        assert result.exit_code == 0
        comments, _, _ = read_csv(out)
        seed_line = next(c for c in comments if c.startswith("# seed: "))
        assert seed_line != "# seed: null"

    def test_memory_guard(self, runner):
        result = runner.invoke(
            main,
            ["ensemble", "--model", "picket-fence", "--n", "250", "--m", "1",
             "--realizations", "10", "--window", "25", "--seed", "1",
             "--max-memory-mb", "1"],
        )
        assert result.exit_code == 1
        assert "memory" in result.output.lower()

    def test_memory_guard_counts_threads(self, runner, tmp_path, monkeypatch):
        # N=600 projects ~19.2 MiB per direct-route worker: one fits under
        # 24 MiB, two do not; the representation route holds no N x N matrix
        sampled = []
        real = cli.sample_velocities_direct
        monkeypatch.setattr(cli, "sample_velocities_direct",
                            lambda *a, **k: sampled.append(k) or real(*a, **k))
        args = ["ensemble", "--model", "picket-fence", "--n", "600", "--m", "1",
                "--realizations", "2", "--window", "25", "--seed", "1",
                "-o", str(tmp_path / "hist.csv")]
        refused = runner.invoke(main, [*args, "--threads", "2", "--max-memory-mb", "24"])
        assert refused.exit_code == 1
        assert "projected memory 39 MiB" in refused.output
        assert sampled == []
        # one worker projects seven matrices, 19.2 MiB: over a cap of 19, and
        # printed rounded up so that it does not read as the cap itself
        tight = runner.invoke(main, [*args, "--threads", "1", "--max-memory-mb", "19"])
        assert tight.exit_code == 1
        assert "projected memory 20 MiB exceeds the --max-memory-mb cap of 19" in tight.output
        assert sampled == []
        serial = runner.invoke(main, [*args, "--threads", "1", "--max-memory-mb", "24"])
        assert serial.exit_code == 0, serial.output
        assert sampled == [{"workers": 1}]
        rep = runner.invoke(main, [*args, "--route", "representation", "--threads", "4",
                                   "--max-memory-mb", "1"])
        assert rep.exit_code == 0, rep.output

    @pytest.mark.parametrize("cap, workers", [("19", None), ("24", 1), ("45", 2), ("60", 3)])
    def test_default_threads_fit_under_the_cap(self, runner, tmp_path, monkeypatch,
                                               cap, workers):
        # without --threads the direct route takes every usable core whose
        # ~19.2 MiB worker fits, at least one; one that does not fit is refused
        sampled = []
        monkeypatch.setattr(cli, "_usable_cores", lambda: 3)
        real = cli.sample_velocities_direct
        monkeypatch.setattr(cli, "sample_velocities_direct",
                            lambda *a, **k: sampled.append(k["workers"]) or real(*a, **k))
        result = runner.invoke(
            main,
            ["ensemble", "--model", "picket-fence", "--n", "600", "--m", "1",
             "--realizations", "2", "--window", "25", "--seed", "1",
             "--max-memory-mb", cap, "-o", str(tmp_path / "hist.csv")],
        )
        if workers is None:
            assert result.exit_code == 1
            assert "projected memory 20 MiB" in result.output
            assert sampled == []
        else:
            assert result.exit_code == 0, result.output
            assert sampled == [workers]

    def test_memory_guard_counts_one_sample_per_representation_realization(
        self, runner, tmp_path, monkeypatch
    ):
        # 100,000 realizations keep 100,000 samples (0.8 MB), not 25 per
        # realization (19 MiB); the spy samples only 10 of them
        sampled = []
        real = cli.sample_velocities_representation
        monkeypatch.setattr(
            cli, "sample_velocities_representation",
            lambda cfg, **k: sampled.append(cfg.realizations)
            or real(replace(cfg, realizations=10), **k),
        )
        args = ["ensemble", "--model", "pf", "--route", "representation", "--n", "250",
                "--m", "2", "--window", "25", "--seed", "1",
                "-o", str(tmp_path / "hist.csv")]
        result = runner.invoke(main, [*args, "--realizations", "100000",
                                      "--max-memory-mb", "19"])
        assert result.exit_code == 0, result.output
        assert sampled == [100000]
        refused = runner.invoke(main, [*args, "--realizations", "140000",
                                       "--max-memory-mb", "1"])
        assert refused.exit_code == 1
        assert "projected memory 2 MiB exceeds the --max-memory-mb cap of 1" in refused.output
        assert sampled == [100000]

    @staticmethod
    def _runtime(path):
        comments, _, _ = read_csv(path)
        line = next(c for c in comments if c.startswith("# runtime: "))
        return json.loads(line.removeprefix("# runtime: "))

    def test_representation_route(self, runner, tmp_path):
        # picket-fence realizations hold the GIL throughout: serial, with the reason
        out = tmp_path / "hist.csv"
        result = runner.invoke(
            main,
            ["ensemble", "--model", "picket-fence", "--n", "250", "--m", "2",
             "--realizations", "500", "--window", "25", "--seed", "3",
             "--route", "representation", "--threads", "2", "-o", str(out)],
        )
        assert result.exit_code == 0
        runtime = self._runtime(out)
        assert runtime["workers"] == 1
        assert runtime["reason"] == "realization too small for threads"

    def test_goe_representation_defaults_to_every_usable_core(self, runner, tmp_path):
        out = tmp_path / "hist.csv"
        result = runner.invoke(
            main,
            ["ensemble", "--model", "goe", "--n", "250", "--m", "2",
             "--realizations", "20", "--window", "25", "--seed", "3",
             "--route", "representation", "-o", str(out)],
        )
        assert result.exit_code == 0, result.output
        runtime = self._runtime(out)
        assert runtime["workers"] == statistics._usable_cores()
        assert runtime["reason"] is None

    @pytest.mark.filterwarnings("ignore:window of 4 levels truncates")
    @pytest.mark.parametrize("model, route", [("pf", "direct"), ("goe", "direct"),
                                              ("goe", "representation")])
    def test_small_realizations_run_serially(self, runner, tmp_path, model, route):
        # at N=12 two threads took twice the serial time; they are not used
        out = tmp_path / "hist.csv"
        result = runner.invoke(
            main,
            ["ensemble", "--model", model, "--route", route, "--n", "12", "--m", "2",
             "--realizations", "20", "--window", "4", "--seed", "3",
             "--threads", "2", "-o", str(out)],
        )
        assert result.exit_code == 0, result.output
        runtime = self._runtime(out)
        assert runtime["workers"] == 1
        assert runtime["reason"] == "realization too small for threads"

    @pytest.mark.parametrize("value", [0, -2])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_threads_below_one_refused_before_sampling(self, runner, tmp_path, monkeypatch,
                                                       value, source):
        sampled = []
        monkeypatch.setattr(cli, "sample_velocities_direct", lambda *a, **k: sampled.append(k))
        args = ["ensemble", "--model", "goe", "--n", "20", "--m", "2", "--realizations", "2",
                "--window", "5", "--seed", "1"]
        if source == "flag":
            args += ["--threads", str(value)]
        else:
            path = tmp_path / "ensemble.json"
            path.write_text(json.dumps({"threads": value}))
            args += ["--config", str(path)]
        result = runner.invoke(main, args)
        assert result.exit_code == 1
        assert result.output.splitlines() == [f"Error: threads must be >= 1, got {value}"]
        assert sampled == []

    def test_config_bins_refused_before_sampling(self, runner, tmp_path, monkeypatch):
        sampled = []
        monkeypatch.setattr(cli, "sample_velocities_direct", lambda *a, **k: sampled.append(k))
        path = tmp_path / "ensemble.json"
        path.write_text(json.dumps({"bins": 0}))
        result = runner.invoke(
            main,
            ["ensemble", "--model", "goe", "--n", "20", "--m", "2", "--realizations", "2",
             "--window", "5", "--seed", "1", "--config", str(path)],
        )
        assert result.exit_code == 1
        assert result.output.splitlines() == ["Error: bins must be >= 1, got 0"]
        assert sampled == []

    def test_channel_count_refused_before_sampling(self, runner, monkeypatch):
        sampled = []
        monkeypatch.setattr(cli, "sample_velocities_direct", lambda *a, **k: sampled.append(k))
        result = runner.invoke(
            main,
            ["ensemble", "--model", "goe", "--n", "20", "--m", "5001",
             "--realizations", "2", "--window", "5", "--seed", "1"],
        )
        assert result.exit_code == 1
        assert "at most 5000" in result.output
        assert sampled == []


class TestDistCommand:
    @pytest.mark.parametrize("config, error", [
        ({"model": "banana", "n_channels": 2},
         "Error: config file: Invalid value for '--model': 'banana' is not one of "
         "'goe', 'picket-fence', 'pf'."),
        ({"model": "goe", "n_channels": "two"},
         "Error: config file: Invalid value for '--m': 'two' is not a valid integer."),
    ], ids=["choice", "integer"])
    def test_config_value_gets_the_flag_check(self, runner, tmp_path, config, error):
        path = tmp_path / "dist.json"
        path.write_text(json.dumps(config))
        result = runner.invoke(main, ["dist", "--config", str(path), "--y", "1"])
        assert result.exit_code == 1
        assert result.output.splitlines() == [error]

    def test_rigid_kernel_at_zero(self, runner):
        result = runner.invoke(main, ["dist", "--model", "pf", "--m", "1", "--y", "0"])
        assert result.exit_code == 0
        line = result.output.strip().splitlines()[-1]
        values = line.split(",")
        assert float(values[2]) == math.pi / 4.0
        assert values[3] == "nan" and values[5] == "1"

    @pytest.mark.parametrize(
        "grid_args",
        [["--y-min", "-0.3", "--y-max", "0.7", "--steps", "11"], ["--y", "1e-11"]],
    )
    def test_rigid_single_channel_near_zero_is_marked(self, runner, grid_args):
        # the linspace point next to zero is 5.55e-17, not 0.0
        result = runner.invoke(main, ["dist", "--model", "pf", "--m", "1", *grid_args])
        assert result.exit_code == 0, result.output
        rows = [line.split(",") for line in result.output.strip().splitlines()
                if not line.startswith(("#", "y,"))]
        marked = [row for row in rows if row[5] == "1"]
        assert len(marked) == 1 and marked[0][3] == "nan"
        assert abs(float(marked[0][0])) < 1e-10
        assert all(row[3] != "nan" for row in rows if row[5] == "0")

    def test_goe_curve_normalization(self, runner, tmp_path):
        out = tmp_path / "dist.csv"
        result = runner.invoke(
            main,
            ["dist", "--model", "goe", "--m", "2", "--y-min", "-10",
             "--y-max", "10", "--steps", "2001", "-o", str(out)],
        )
        assert result.exit_code == 0
        _, header, rows = read_csv(out)
        grid, pdf = rows[:, 0], rows[:, 3]
        from resodyn import velocity_cdf

        covered = trapezoid(pdf, grid)
        tail = 2.0 * velocity_cdf(-10.0, 2, "goe")
        assert abs(covered + tail - 1.0) <= 1e-4

    def test_rigid_curve_normalization(self, runner, tmp_path):
        out = tmp_path / "dist.csv"
        result = runner.invoke(
            main,
            ["dist", "--model", "pf", "--m", "2", "--y-min", "-12",
             "--y-max", "12", "--steps", "2001", "-o", str(out)],
        )
        assert result.exit_code == 0
        _, _, rows = read_csv(out)
        assert abs(trapezoid(rows[:, 3], rows[:, 0]) - 1.0) <= 1e-4


class TestVerifyCommand:
    def test_fast_report(self, runner, tmp_path):
        out = tmp_path / "report.json"
        result = runner.invoke(main, ["verify", "fast", "-o", str(out)])
        assert result.exit_code == 0, result.output
        payload = json.loads(out.read_text())
        assert payload["passed"] is True
        assert payload["level"] == "fast"
        assert payload["runtime"] is None  # no direct-route draws at this level
        assert len(payload["checks"]) >= 10
        assert all(c["passed"] for c in payload["checks"])
        assert "checks passed" in result.output
        for check in payload["checks"]:
            assert isinstance(check["value"], (float, list)), check
            assert isinstance(check["seconds"], float) and check["seconds"] >= 0.0
        spot = next(c for c in payload["checks"] if c["name"] == "kernel_spot_values")
        assert spot["value"] == spot["tolerance"] == [2.0 / 3.0, math.pi / 4.0]

    def test_report_carries_the_draw_runtime(self, runner, tmp_path, monkeypatch):
        drawn = {"workers": 2, "reason": None, "blas": "OpenBLAS 0", "blas_threads": 1}
        results = [
            CheckResult("kernel_spot_values", True, "spot"),
            CheckResult("rigid_variance_monte_carlo", True, "z", runtime=drawn),
        ]
        monkeypatch.setattr(cli, "run_checks", lambda level, seed: results)
        out = tmp_path / "report.json"
        with_report = runner.invoke(main, ["verify", "full", "-o", str(out)])
        plain = runner.invoke(main, ["verify", "full"])
        assert with_report.exit_code == plain.exit_code == 0
        assert with_report.output == plain.output
        assert json.loads(out.read_text())["runtime"] == drawn

    def test_report_writes_a_non_finite_value_as_null(self, runner, tmp_path, monkeypatch):
        results = [CheckResult("kernel_spot_values", False, "nan", value=float("nan"),
                               tolerance=(1.0, math.inf))]
        monkeypatch.setattr(cli, "run_checks", lambda level, seed: results)
        out = tmp_path / "report.json"
        assert runner.invoke(main, ["verify", "fast", "-o", str(out)]).exit_code == 3
        check = json.loads(out.read_text(), parse_constant=_reject_constant)["checks"][0]
        assert check["value"] is None and check["tolerance"] == [1.0, None]


def _fresh_env() -> dict:
    """The environment of a fresh interpreter that imports this checkout's resodyn."""
    src = Path(cli.__file__).resolve().parents[1]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (str(src), os.environ.get("PYTHONPATH"))))}


def _loaded_after(code: str) -> list[str]:
    """The scipy modules loaded after running `code` in a fresh interpreter."""
    probe = (f"{code}\nimport json, sys\nprint(json.dumps(sorted(m for m in sys.modules "
             f"if m.split('.')[0] == 'scipy')))")
    done = subprocess.run([sys.executable, "-c", probe],
                          env=_fresh_env(), capture_output=True, text=True, timeout=120, check=True)
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize("module", ["resodyn", "resodyn.cli", "resodyn.verify"])
def test_import_leaves_scipy_stats_unloaded(module):
    # start-up loads numpy and click only; each scipy module is imported
    # inside the function that uses it
    assert _loaded_after(f"import {module}") == []


@pytest.mark.parametrize("args", [
    ["dist", "--model", "pf", "--m", "1", "--steps", "41"],
    ["two-level", "sweep", *FIG_ARGS, "--alpha-min", "-2", "--alpha-max", "2",
     "--steps", "801"],
    ["ensemble", "--model", "pf", "--route", "direct", "--n", "40", "--m", "2",
     "--realizations", "4", "--window", "5", "--seed", "3"],
    ["ensemble", "--model", "goe", "--route", "direct", "--n", "40", "--m", "2",
     "--realizations", "4", "--window", "5", "--seed", "3"],
], ids=["dist", "two-level-sweep", "ensemble-pf-direct", "ensemble-goe-direct"])
def test_command_leaves_deferred_scipy_unloaded(args, tmp_path):
    # standalone_mode=False: a failing command raises, and the probe exits non-zero
    out = tmp_path / "out.csv"
    code = (f"from resodyn.cli import main\n"
            f"main.main(args={[*args, '-o', str(out)]!r}, standalone_mode=False)")
    assert _loaded_after(code) == []
    assert out.stat().st_size > 0


@pytest.mark.parametrize("args", [
    ["dist", "--model", "pf", "--y", "1"],
    ["ensemble", "--model", "goe", "--n", "20", "--realizations", "2", "--window", "5",
     "--seed", "1"],
], ids=["dist", "ensemble"])
def test_channel_count_limit(args, tmp_path):
    # the analytic curves stop at MAX_CHANNELS = 5000; above it the command
    # refuses the flag on one line instead of failing after the work
    def run(m):
        return subprocess.run(
            [sys.executable, "-m", "resodyn.cli", *args, "--m", str(m),
             "-o", str(tmp_path / "out.csv")],
            env=_fresh_env(), capture_output=True, text=True, timeout=120)

    assert run(5000).returncode == 0
    refused = run(5001)
    assert refused.returncode == 1
    assert "Traceback" not in refused.stdout + refused.stderr
    assert refused.stderr.splitlines() == ["Error: m must be at most 5000, got 5001"]


@pytest.mark.parametrize("args, config, flags", [
    (["dist", "--steps", "5"], {"model": "goe", "n_channels": "2"},
     ["--model", "goe", "--m", "2"]),
    (["two-level", "sweep", *FIG_ARGS], {"alpha_min": "-1", "alpha_max": 1, "steps": "5"},
     ["--alpha-min", "-1", "--alpha-max", "1", "--steps", "5"]),
], ids=["dist", "two-level-sweep"])
def test_config_string_converts_like_the_flag(args, config, flags, runner, tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config))
    from_config = runner.invoke(main, [*args, "--config", str(path)])
    from_flags = runner.invoke(main, [*args, *flags])
    assert from_config.exit_code == from_flags.exit_code == 0
    assert from_config.output == from_flags.output


_ENSEMBLE_ARGS = ["ensemble", "--model", "goe", "--n", "20", "--m", "2",
                  "--realizations", "2", "--window", "5", "--seed", "1"]


@pytest.mark.parametrize("args, error", [
    ([*_ENSEMBLE_ARGS, "--bins", "0"], "Error: bins must be >= 1, got 0"),
    ([*_ENSEMBLE_ARGS, "--range-max", "-1"],
     "Error: range-max must be positive and finite, got -1.0"),
    (["two-level", "critical-points", *FIG_ARGS, "--bracket-min", "-2",
      "--bracket-max", "2", "--scan-points", "-1"],
     "Error: scan-points must be >= 3, got -1"),
    (["verify", "full", "--seed", "-1"],
     "Error: seed must be an unsigned 64-bit integer, got -1"),
    ([*_ENSEMBLE_ARGS, "--seed", "-1"], "Error: seed must be an unsigned 64-bit integer"),
    ([*_ENSEMBLE_ARGS, "--m", "0"], "Error: need at least one channel"),
    (["dist", "--model", "pf", "--m", "0"], "Error: m must be >= 1"),
    (["two-level", "sweep", "--delta", "1", "--d", "1", "--v", "0.75",
      "--gamma1", "-0.5", "--gamma2", "0.5", "--theta", "0.3",
      "--alpha-min", "0", "--alpha-max", "1", "--steps", "3"],
     "Error: partial width sums gamma1, gamma2 must be nonnegative"),
], ids=["bins", "range-max", "scan-points", "verify-seed", "ensemble-seed", "ensemble-m",
        "dist-m", "two-level-gamma"])
def test_out_of_range_option(args, error, tmp_path):
    # refused on one Error: line, without the usage lines, and not as a
    # numpy traceback or a numerical failure (exit 2)
    refused = subprocess.run(
        [sys.executable, "-m", "resodyn.cli", *args, "-o", str(tmp_path / "out")],
        env=_fresh_env(), capture_output=True, text=True, timeout=120)
    assert refused.returncode == 1
    assert "Traceback" not in refused.stdout + refused.stderr
    assert refused.stderr.splitlines() == [error]
