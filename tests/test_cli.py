"""Command-line interface tests: outputs, exit codes, determinism, config."""

import dataclasses
import io
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import seirv
import bench_pins
from conftest import CLI_RUN_FLAGS, INIT_FLAGS
from golden import TABLE, versions
from seirv import analysis, calibration, cli, control, equilibria, model
from seirv.cli import EXIT_NUMERICAL, EXIT_OK, EXIT_VALIDATION, main
from seirv.model import BetaSchedule, DEFAULT_PARAMS, population_closed_form

FAST = ["--dt", "0.1", "--horizon", "200"]
ROOT = Path(__file__).resolve().parents[1]


def run_cli(args):
    return main(args)


def read_csv(path):
    lines = path.read_text(encoding="utf-8").strip().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def test_simulate_writes_trajectory_with_conserved_population(tmp_path):
    out = tmp_path / "traj.csv"
    assert run_cli(["simulate", *FAST, "--out", str(out)]) == EXIT_OK
    header, rows = read_csv(out)
    assert header == ["time", "S", "E", "I", "R", "V", "N"]
    assert len(rows) == 2001
    times = np.array([float(r[0]) for r in rows])
    n = np.array([float(r[6]) for r in rows])
    exact = population_closed_form(DEFAULT_PARAMS, 1e9 + 1.0, times)
    assert float(np.max(np.abs(n - exact))) / (1e9 + 1.0) < 1e-8


def test_simulate_rejects_zero_horizon(tmp_path, capsys):
    code = run_cli(["simulate", "--horizon", "0", "--out", str(tmp_path / "x.csv")])
    assert code == EXIT_VALIDATION
    assert "horizon" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_characteristics_rejects_nonfinite_horizon(capsys, value):
    assert run_cli(["characteristics", "--horizon", value]) == EXIT_VALIDATION
    assert "horizon" in capsys.readouterr().err


def test_simulate_controlled_run_extinguishes(tmp_path):
    out = tmp_path / "c.csv"
    code = run_cli(["simulate", "--c1", "0.1", "--c2", "0.1", "--dt", "0.05",
                    "--horizon", "2000", "--out", str(out)])
    assert code == EXIT_OK
    _, rows = read_csv(out)
    assert float(rows[-1][3]) < 1.0  # terminal infected count below one


def test_simulate_numerical_failure_exit_code(tmp_path, capsys):
    code = run_cli(["simulate", "--beta", "1.0", "--i0", "1e9", "--dt", "0.1",
                    "--horizon", "10", "--out", str(tmp_path / "d.csv")])
    assert code == EXIT_NUMERICAL
    assert "numerical failure" in capsys.readouterr().err


def test_equilibria_report(tmp_path):
    out = tmp_path / "eq.json"
    assert run_cli(["equilibria", "--c1", "0.1", "--c2", "0.1", "--out", str(out)]) == EXIT_OK
    report = json.loads(out.read_text(encoding="utf-8"))
    assert report["threshold"]["rc"] == pytest.approx(0.5937, abs=1e-3)
    assert report["endemic"] is None
    assert report["routh_hurwitz"] is None
    assert report["mfe_spectrum"]["stable"] is True

    out2 = tmp_path / "eq2.json"
    assert run_cli(["equilibria", "--out", str(out2)]) == EXIT_OK
    report2 = json.loads(out2.read_text(encoding="utf-8"))
    assert report2["threshold"]["rc"] == pytest.approx(13.03, abs=0.1)
    assert report2["endemic"] is not None
    assert report2["routh_hurwitz"]["stable"] is True


def test_equilibria_rejects_zero_mu(capsys):
    assert run_cli(["equilibria", "--mu", "0"]) == EXIT_VALIDATION
    assert "mu" in capsys.readouterr().err


def test_sensitivity_reproduces_reference_file(tmp_path):
    out = tmp_path / "sens.csv"
    assert run_cli(["sensitivity", "--out", str(out)]) == EXIT_OK
    header, rows = read_csv(out)
    assert header == ["parameter", "value"]
    values = {name: float(v) for name, v in rows}
    reference = {
        "sigma1": 0.2277, "sigma2": 0.2186, "c1": -0.2396, "c2": -0.4983,
        "beta": 0.5, "eta1": -0.2495, "eta2": -0.1469,
    }
    for name, expected in reference.items():
        assert abs(values[name] - expected) < 5e-4


@pytest.mark.parametrize("control", ["--c1", "--c2"])
def test_sensitivity_at_a_control_of_one(control, capsys):
    assert run_cli(["sensitivity", control, "1", "--out", "-"]) == EXIT_OK
    assert "c1,-" in capsys.readouterr().out


def test_region_map_output(tmp_path):
    out = tmp_path / "region.csv"
    assert run_cli(["region", "--resolution", "11", "--out", str(out)]) == EXIT_OK
    header, rows = read_csv(out)
    assert header == ["c1", "c2", "label", "separatrix_c2"]
    assert len(rows) == 121
    labels = {r[2] for r in rows}
    assert labels == {"growth", "extinction"}


def test_characteristics_output(tmp_path):
    out = tmp_path / "chars.json"
    assert run_cli(["characteristics", "--dt", "0.05", "--horizon", "2000",
                    "--out", str(out)]) == EXIT_OK
    chars = json.loads(out.read_text(encoding="utf-8"))
    assert abs(chars["i_max"] - 8e8) < 0.1 * 8e8
    assert 0 <= chars["t_m"] <= 2000
    assert chars["i_tot"] > 0


def test_optimize_rejects_nan_tolerance(capsys):
    assert run_cli(["optimize", "--eps-k", "nan"]) == EXIT_VALIDATION
    assert "eps_k" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_optimize_rejects_nonfinite_start(capsys, value):
    code = run_cli(["optimize", "--dt", "0.5", "--horizon", "50", "--n-cool", "1",
                    "--n-perturb", "1", "--max-outer", "1",
                    "--start-c1", value, "--start-c2", "0.3"])
    assert code == EXIT_VALIDATION
    assert "start" in capsys.readouterr().err


def test_unset_solver_flags_keep_library_defaults(tmp_path, monkeypatch):
    seen = {}

    def fake_optimize(p, cp, start, sa, init, cfg):
        seen["sa"] = sa
        return control.OptimRun(((0.1, 0.1, 1.0, "start"),), (0.1, 0.1), 1.0)

    def fake_fit(series, p, **kwargs):
        seen["fit"] = kwargs
        return calibration.FitResult(BetaSchedule((), (1e-9,)), 0.0, (0.0,), math.nan, (1.0,))

    monkeypatch.setattr(control, "hybrid_optimize", fake_optimize)
    monkeypatch.setattr(calibration, "fit_beta_segments", fake_fit)
    data = tmp_path / "obs.csv"
    data.write_text("time,count\n1,1\n", encoding="utf-8")
    out = ["--out", str(tmp_path / "out")]

    assert run_cli(["optimize", *out]) == EXIT_OK
    assert run_cli(["calibrate", "--data", str(data), *out]) == EXIT_OK
    assert seen["sa"] == control.SAConfig(rng_seed=0)
    assert seen["fit"]["nm"] == calibration.NelderMeadConfig()
    assert "segment_length" not in seen["fit"]

    assert run_cli(["optimize", "--t0-temp", "0.03", "--accept-rule", "classical",
                    "--seed", "4", *out]) == EXIT_OK
    assert run_cli(["calibrate", "--data", str(data), "--nm-max-iter", "5",
                    "--segment-length", "3", *out]) == EXIT_OK
    assert seen["sa"] == control.SAConfig(t0=0.03, accept_rule="classical", rng_seed=4)
    assert seen["fit"]["nm"] == calibration.NelderMeadConfig(max_iter=5)
    assert seen["fit"]["segment_length"] == 3.0


def test_zero_effort_optimum_reports_null_shares(tmp_path, monkeypatch):
    def fake_optimize(p, cp, start, sa, init, cfg):
        return control.OptimRun(((0.0, 0.0, 0.5, "start"),), (0.0, 0.0), 0.5)

    monkeypatch.setattr(control, "hybrid_optimize", fake_optimize)
    out = tmp_path / "opt.json"
    assert run_cli(["optimize", "--out", str(out)]) == EXIT_OK
    report = json.loads(out.read_text(encoding="utf-8"))
    assert report["optimum"] == {"c1": 0.0, "c2": 0.0}
    assert report["effort_split"] == {"share1": None, "share2": None}


@pytest.mark.parametrize("value", [3, np.int64(3), {1, 2}, b"x"])
def test_json_writer_refuses_types_no_command_emits(value):
    with pytest.raises(TypeError, match="cannot serialize"):
        cli._json_dump({"value": value}, io.StringIO())


def test_package_errors_subclass_the_builtin_they_are():
    # each error lives in the one module that raises it, and seirv re-exports it
    homes = [(model, "IntegrationDivergedError", ArithmeticError),
             (equilibria, "NoEndemicPointError", ValueError)]
    for home, name, base in homes:
        exc_type = getattr(home, name)
        assert issubclass(exc_type, base), name
        assert exc_type.__module__ == home.__name__, name
        assert getattr(seirv, name) is exc_type, name


@pytest.mark.parametrize("exc, code, err", [
    pytest.param(MemoryError(), EXIT_NUMERICAL, "numerical failure: MemoryError",
                 id="MemoryError"),
    pytest.param(np.linalg.LinAlgError("Singular matrix"), EXIT_NUMERICAL,
                 "numerical failure: Singular matrix", id="LinAlgError"),
    pytest.param(model.IntegrationDivergedError(3, 0.5, (1.0, -2.0, 0.0, 0.0, 0.0)),
                 EXIT_NUMERICAL, "numerical failure: E = -2.0 at t = 1.5 (step 3): "
                 "dt = 0.5 is too large for these rates", id="IntegrationDivergedError"),
    pytest.param(ZeroDivisionError("float division by zero"), EXIT_NUMERICAL,
                 "numerical failure: float division by zero", id="ZeroDivisionError"),
    pytest.param(equilibria.NoEndemicPointError("no endemic equilibrium"), EXIT_VALIDATION,
                 "no endemic equilibrium", id="NoEndemicPointError"),
    pytest.param(OSError("No space left on device"), EXIT_VALIDATION,
                 "No space left on device", id="OSError"),
])
def test_exit_code_follows_the_exception_type(monkeypatch, capsys, exc, code, err):
    def fail(*args, **kwargs):
        raise exc

    monkeypatch.setattr(cli, "integrate", fail)
    assert run_cli(["simulate", "--dt", "0.5", "--horizon", "10"]) == code
    assert capsys.readouterr().err == f"seirv simulate: {err}\n"


def test_optimize_smoke_and_determinism(tmp_path):
    args = ["optimize", "--dt", "0.5", "--horizon", "100", "--seed", "7",
            "--n-cool", "2", "--n-perturb", "3", "--max-outer", "2",
            "--start-c1", "0.3", "--start-c2", "0.3"]
    out1 = tmp_path / "o1.json"
    out2 = tmp_path / "o2.json"
    assert run_cli(args + ["--out", str(out1)]) == EXIT_OK
    assert run_cli(args + ["--out", str(out2)]) == EXIT_OK
    assert out1.read_bytes() == out2.read_bytes()
    report = json.loads(out1.read_text(encoding="utf-8"))
    assert 0.0 <= report["optimum"]["c1"] <= 1.0
    assert report["effort_split"]["share1"] + report["effort_split"]["share2"] == 1.0
    assert report["history"][0]["phase"] == "start"


def test_simulate_determinism_bytes(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    run_cli(["simulate", *FAST, "--out", str(out1)])
    run_cli(["simulate", *FAST, "--out", str(out2)])
    assert out1.read_bytes() == out2.read_bytes()


def test_calibrate_round_trip(tmp_path):
    from seirv.calibration import generate_synthetic
    from seirv.model import BetaSchedule, IntegratorConfig, State

    schedule = BetaSchedule((7.0, 14.0), (2e-9, 6e-9, 3.5e-9))
    init = State(1e9, 0, 1e4, 0, 0)
    series = generate_synthetic(DEFAULT_PARAMS, schedule, init, [float(t) for t in range(22)],
                                0.0, seed=1, cfg=IntegratorConfig(dt=0.05))
    data = tmp_path / "obs.csv"
    lines = ["time,count"] + [f"{t},{y}" for t, y in zip(series.times, series.cumulative)]
    data.write_text("\n".join(lines) + "\n", encoding="utf-8")

    out = tmp_path / "fit.json"
    csv_out = tmp_path / "fit.csv"
    code = run_cli(["calibrate", "--data", str(data), "--segment-length", "7",
                    "--i0", "1e4", "--dt", "0.05", "--out", str(out),
                    "--csv-out", str(csv_out)])
    assert code == EXIT_OK
    fit = json.loads(out.read_text(encoding="utf-8"))
    for got, want in zip(fit["beta_segments"]["values"], schedule.values):
        assert abs(got - want) / want < 0.05
    assert fit["r_squared"] >= 0.99
    header, rows = read_csv(csv_out)
    assert header == ["time", "observed", "fitted", "residual"]
    assert len(rows) == 22


def test_calibrate_missing_data_file(tmp_path, capsys):
    code = run_cli(["calibrate", "--data", str(tmp_path / "none.csv")])
    assert code == EXIT_VALIDATION


def test_calibrate_rejects_more_segments_than_observations(tmp_path, capsys):
    data = tmp_path / "series.csv"
    data.write_text("time,count\n0,1\n1,5\n2,20\n3,60\n", encoding="utf-8")
    argv = ["calibrate", "--data", str(data), "--segment-length", "0.5",
            "--out", str(tmp_path / "fit.json")]
    assert run_cli(argv) == EXIT_VALIDATION
    assert capsys.readouterr().err == (
        "seirv calibrate: segment_length 0.5 gives more segments than observations\n")
    assert not (tmp_path / "fit.json").exists()


def test_calibrate_rejects_observations_before_time_zero(tmp_path, capsys):
    # the model starts at t = 0; a count at t = -5 was once fitted against 0
    data = tmp_path / "series.csv"
    data.write_text("time,count\n-5,0\n1,5\n2,20\n3,60\n", encoding="utf-8")
    argv = ["calibrate", "--dt", "0.5", "--data", str(data), "--out", str(tmp_path / "fit.json")]
    assert run_cli(argv) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("seirv calibrate: ") and "sample_times must be >= 0" in err


def test_calibrate_daily_counts_fit_as_their_cumulative_series(tmp_path):
    # prefix sums of integer counts are exact, so --kind daily on the daily
    # differences loads the very series --kind cumulative reads
    from seirv.calibration import generate_synthetic
    from seirv.model import BetaSchedule, IntegratorConfig, State

    series = generate_synthetic(DEFAULT_PARAMS, BetaSchedule((7.0, 14.0), (2e-9, 6e-9, 3.5e-9)),
                                State(1e9, 0, 1e4, 0, 0), [float(t) for t in range(22)],
                                0.01, seed=3, relative=True, cfg=IntegratorConfig(dt=0.5))
    cumulative = np.round(series.cumulative)
    daily = np.diff(cumulative, prepend=0.0)
    outs = {}
    for kind, counts in (("cumulative", cumulative), ("daily", daily)):
        data = tmp_path / f"{kind}.csv"
        data.write_text("time,count\n" + "".join(f"{t:g},{y:.0f}\n" for t, y in
                                                zip(series.times, counts)), encoding="utf-8")
        out, csv_out = tmp_path / f"{kind}.json", tmp_path / f"{kind}-fit.csv"
        assert run_cli(["calibrate", "--data", str(data), "--kind", kind, "--i0", "1e4",
                        "--dt", "0.5", "--out", str(out), "--csv-out", str(csv_out)]) == EXIT_OK
        outs[kind] = (out.read_bytes(), csv_out.read_bytes())
    assert outs["daily"] == outs["cumulative"]


def test_avert_output(tmp_path):
    out = tmp_path / "avert.json"
    csv_out = tmp_path / "avert.csv"
    code = run_cli(["avert", "--c1", "0.1", "--c2", "0.1", "--i0", "1e3",
                    "--dt", "0.1", "--horizon", "1500",
                    "--onset-grid", "0,150,300,450,600", "--out", str(out),
                    "--csv-out", str(csv_out)])
    assert code == EXIT_OK
    curve = json.loads(out.read_text(encoding="utf-8"))
    averted = curve["averted"]
    assert all(b <= a * (1 + 1e-9) for a, b in zip(averted, averted[1:]))
    assert curve["decay_fit"]["amplitude"] > 0
    assert curve["decay_r2"] > 0.9
    header, rows = read_csv(csv_out)
    assert header == ["onset", "averted"]
    assert len(rows) == 5


@pytest.mark.parametrize("grid", ["5,100,200", ""])
def test_avert_rejects_onsets_past_horizon_or_none(tmp_path, capsys, grid):
    out = tmp_path / "avert.json"
    code = run_cli(["avert", "--c1", "0.1", "--c2", "0.1", "--dt", "0.5",
                    "--horizon", "40", "--onset-grid", grid, "--out", str(out)])
    assert code == EXIT_VALIDATION
    assert capsys.readouterr().err.startswith("seirv avert: ")
    assert not out.exists()


@pytest.mark.parametrize("grid, token", [("0,abc", "abc"), ("0,,50", ""), ("0,100,", "")])
def test_avert_names_the_grid_token_it_cannot_read(tmp_path, capsys, grid, token):
    out = tmp_path / "avert.json"
    code = run_cli(["avert", "--c1", "0.1", "--c2", "0.1", "--dt", "0.5",
                    "--horizon", "400", "--onset-grid", grid, "--out", str(out)])
    assert code == EXIT_VALIDATION
    assert capsys.readouterr().err == (f"seirv avert: --onset-grid {grid!r}: "
                                       f"could not convert string to float: {token!r}\n")
    assert not out.exists()


# at dt 0.5 these rates drive E to -0.064 in the first step
UNDERSHOOT_FLAGS = ["--alpha", "3.06", "--eta1", "3.13", "--eta2", "0.841", "--beta", "1.23e-9",
                    "--sigma1", "0.0229", "--sigma2", "0.0982", "--dt", "0.5", "--horizon", "100"]


@pytest.mark.parametrize("command, extra", [
    ("simulate", []),
    ("characteristics", []),
    ("avert", ["--c1", "0.1", "--c2", "0.1", "--onset-grid", "0.5,10"]),
], ids=["simulate", "characteristics", "avert"])
def test_a_run_that_undershoots_zero_exits_numerical(tmp_path, capsys, command, extra):
    out = tmp_path / "out"
    assert run_cli([command, *UNDERSHOOT_FLAGS, *extra, "--out", str(out)]) == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert err.startswith(f"seirv {command}: numerical failure: E = -0.06")
    assert "t = 0.5" in err and "dt = 0.5" in err and "np.float64" not in err
    assert not out.exists()


@pytest.mark.parametrize("grid, err", [
    ("0,100,200", ""),
    ("0,50,100,200,400", "seirv avert: warning: decay fit not converged: "
                         "simplex stopped at its cap of 800 iterations\n"),
], ids=["converges", "stops-at-cap"])
def test_avert_warns_when_the_decay_fit_stops_at_its_cap(tmp_path, capsys, grid, err):
    out = tmp_path / "avert.json"
    assert run_cli(["avert", "--c1", "0.1", "--c2", "0.1", "--dt", "0.5", "--horizon", "400",
                    "--onset-grid", grid, "--out", str(out)]) == EXIT_OK
    assert capsys.readouterr().err == err
    assert "warning" not in out.read_text(encoding="utf-8")


@pytest.mark.filterwarnings("error")  # a numpy RuntimeWarning would escape main
@pytest.mark.parametrize("flags", [["--beta", "1e308", "--c1", "0.1"],
                                   ["--sigma1", "1e308", "--sigma2", "1e308"]])
def test_overflowing_rates_exit_numerical_with_one_line(capsys, flags):
    assert run_cli(["equilibria", *flags]) == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert err.startswith("seirv equilibria: numerical failure: characteristic polynomial")
    assert len(err.strip().splitlines()) == 1


@pytest.mark.filterwarnings("error")  # a numpy RuntimeWarning would escape main
@pytest.mark.parametrize("argv, code, message", [
    # an overflowed threshold side once labelled every cell "extinction"
    (["region", "--beta", "1e308"], EXIT_NUMERICAL, "threshold overflows"),
    (["region", "--mu", "1e308"], EXIT_NUMERICAL, "threshold overflows"),
    # and made every elasticity nan
    (["sensitivity", "--beta", "1e308"], EXIT_NUMERICAL, "beta elasticity nan"),
    (["sensitivity", "--lambda", "0"], EXIT_VALIDATION, "lam = 0.0"),
    (["sensitivity", "--alpha", "0"], EXIT_VALIDATION, "alpha = 0.0"),
    (["sensitivity", "--mu", "1e308"], EXIT_VALIDATION, "undefined at rc = 0"),
    (["region", "--mu", "1e-300"], EXIT_NUMERICAL, "denominator d = 0.0"),
    (["optimize", "--horizon", "4", "--dt", "0.5", "--n-cool", "3", "--n-perturb", "4",
      "--max-outer", "1", "--cooling", "1e-300"], EXIT_VALIDATION, "cooling underflows"),
    # an overflowed malware-free spectrum or S0 once reached the JSON as inf or nan
    (["equilibria", "--eta1", "1e308"], EXIT_NUMERICAL, "spectrum overflows"),
    (["equilibria", "--eta2", "1e308"], EXIT_NUMERICAL, "spectrum overflows"),
    (["equilibria", "--mu", "1e308"], EXIT_NUMERICAL, "spectrum overflows"),
    (["equilibria", "--lambda", "1e308", "--beta", "0"], EXIT_NUMERICAL, "lam = 1e+308"),
    # an annealing setting is refused with its value
    (["optimize", "--t0-temp", "inf"], EXIT_VALIDATION, "t0 must be finite and > 0, got inf"),
])
def test_degenerate_thresholds_and_temperatures_exit_with_one_line(tmp_path, capsys,
                                                                   argv, code, message):
    assert run_cli([*argv, "--out", str(tmp_path / "out")]) == code
    err = capsys.readouterr().err
    assert err.startswith(f"seirv {argv[0]}: ") and message in err
    assert len(err.strip().splitlines()) == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.filterwarnings("error")  # "overflow encountered in square" once leaked from sse
@pytest.mark.parametrize("beta", ["0", "1e308", "1e-300"])
def test_calibrate_from_degenerate_beta_runs_without_warnings(tmp_path, capsys, beta):
    data = tmp_path / "series.csv"
    data.write_text("time,count\n0,1\n1,5\n2,20\n3,60\n", encoding="utf-8")
    argv = ["calibrate", "--dt", "0.5", "--data", str(data),
            "--beta", beta, "--out", str(tmp_path / "fit.json")]
    assert run_cli(argv) == EXIT_OK
    assert capsys.readouterr().err == ""


# every count stays finite, but int E dt and int I dt overflow: these once
# wrote "i_tot": inf, null averted counts and a null j_star
OVERFLOWING_RUN = ["--s0", "1e307", "--i0", "1e306", "--beta", "5e-307", "--dt", "0.05",
                   "--horizon", "2000"]
ONE_PASS = ["--n-cool", "1", "--n-perturb", "1", "--max-outer", "1"]


@pytest.mark.filterwarnings("error")  # a numpy RuntimeWarning would escape main
@pytest.mark.parametrize("argv", [
    ["characteristics", *OVERFLOWING_RUN],
    ["avert", "--onset-grid", "0,100,200", *OVERFLOWING_RUN],
    ["optimize", *ONE_PASS, *OVERFLOWING_RUN],
    # gradient's integrals are finite but k0 * int is not: this once exited 0
    # with the optimum (1, 1), reached by a step along (-inf, -inf)
    ["optimize", "--beta", "1e-9", "--i0", "1e6", "--m0", "1e308", "--horizon", "100",
     "--dt", "0.5", "--start-c1", "0", "--start-c2", "0", *ONE_PASS],
], ids=["characteristics", "avert", "optimize", "optimize-weighted"])
def test_overflowed_time_integral_exits_numerical_with_one_line(tmp_path, capsys, argv):
    out = tmp_path / "out.json"
    assert run_cli([*argv, "--out", str(out)]) == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert err == f"seirv {argv[0]}: numerical failure: time integral overflows: trapezoid total is inf\n"
    assert not out.exists()


def test_calibrate_that_no_initial_vertex_can_run_names_the_divergence(tmp_path, capsys):
    # at dt 5 every vertex's run leaves a count negative; the fit once exited 2
    # with only "objective is non-finite at every initial simplex vertex"
    data = tmp_path / "series.csv"
    data.write_text("time,count\n" + "".join(f"{t},{1e4 * math.exp(0.3 * t)!r}\n"
                                             for t in range(22)), encoding="utf-8")
    out = tmp_path / "fit.json"
    argv = ["calibrate", "--segment-length", "7", "--i0", "1e4", "--dt", "5",
            "--data", str(data), "--out", str(out)]
    assert run_cli(argv) == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert err.startswith("seirv calibrate: numerical failure: E = -")
    assert err.endswith(": dt = 5 is too large for these rates\n")
    assert len(err.splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize("argv", [["simulate", "--dt", "1e-300"],
                                  ["simulate", "--dt", "1e-5", "--horizon", "2000"],
                                  ["region", "--resolution", "200000"]])
def test_huge_plans_are_refused_before_they_allocate(monkeypatch, capsys, argv):
    def allocate(*args, **kwargs):
        raise AssertionError("a huge plan reached allocation")

    monkeypatch.setattr(np, "empty", allocate)
    monkeypatch.setattr(np, "linspace", allocate)
    assert run_cli([*argv, "--out", "-"]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith(f"seirv {argv[0]}: ") and "more than" in err


def test_config_file_and_flag_precedence(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "[model]\nbeta = 8e-9\nc1 = 0.2\n\n[init]\ni0 = 5\n\n"
        "[integrator]\ndt = 0.5\n\n[run]\nhorizon = 50\n",
        encoding="utf-8",
    )
    out = tmp_path / "sim.csv"
    # flag --c1 overrides the config value; beta and dt come from the file
    assert run_cli(["simulate", "--config", str(cfg), "--c1", "0.4",
                    "--out", str(out)]) == EXIT_OK
    _, rows = read_csv(out)
    assert len(rows) == 101  # horizon 50 at dt 0.5
    eq_out = tmp_path / "eq.json"
    assert run_cli(["equilibria", "--config", str(cfg), "--c1", "0.4",
                    "--out", str(eq_out)]) == EXIT_OK
    report = json.loads(eq_out.read_text(encoding="utf-8"))
    from seirv.equilibria import compute_rc
    from dataclasses import replace
    expected = compute_rc(replace(DEFAULT_PARAMS, beta=8e-9, c1=0.4)).rc
    assert report["threshold"]["rc"] == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("text, message", [
    ("[integrator]\ndtt = 0.5\n", "unknown integrator config key 'dtt'"),
    ("[run]\nhorizn = 50\n", "unknown run config key 'horizn'"),
    ("[solver]\ndt = 0.5\n", "unknown config section [solver]"),
    ("[model]\ndt = 0.5\n", "unknown model config key 'dt'"),
    ("[run]\nbeta = 8e-9\n", "unknown run config key 'beta'"),
    ("[init]\nseed = 3\n", "unknown init config key 'seed'"),
    # configparser's default section would drop its keys, or copy them into [init]
    ("[DEFAULT]\nbeta = 8e-9\n", "unknown config section [DEFAULT]"),
    ("[DEFAULT]\nbeta = 8e-9\n\n[init]\ni0 = 5\n", "unknown config section [DEFAULT]"),
], ids=["integrator-key", "run-key", "unknown-section", "model-dt", "run-beta", "init-seed",
        "default-section", "default-above-init"])
def test_unknown_config_keys_are_rejected(tmp_path, capsys, text, message):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text, encoding="utf-8")
    assert run_cli(["equilibria", "--config", str(cfg)]) == EXIT_VALIDATION
    assert capsys.readouterr().err == f"seirv equilibria: {message}\n"


@pytest.mark.parametrize("text, message", [
    ("beta = 5e-9\n", "no section headers"),
    ("[model]\nbeta = 5%\n", "[model] beta = '5%' is not a number"),
    ("[model]\nbeta = 5e-9\nbeta = 6e-9\n", "option 'beta' in section 'model' already exists"),
    ("[run]\nseed = 3.0\n", "[run] seed = '3.0' is not an integer"),
], ids=["no-section", "percent", "duplicate-key", "float-seed"])
def test_malformed_config_file_exits_validation_with_one_line(tmp_path, capsys, text, message):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text, encoding="utf-8")
    assert run_cli(["equilibria", "--config", str(cfg)]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("seirv equilibria: ") and message in err
    assert len(err.strip().splitlines()) == 1


def test_missing_config_file_exits_validation_with_one_line(tmp_path, capsys):
    path = tmp_path / "none.cfg"
    assert run_cli(["equilibria", "--config", str(path)]) == EXIT_VALIDATION
    assert capsys.readouterr().err == f"seirv equilibria: cannot read config file {str(path)!r}\n"


def test_every_config_key_reaches_the_run_config(tmp_path):
    sections = {
        "model": tuple(f.name for f in dataclasses.fields(model.ModelParams)),
        "init": ("s0", "e0", "i0", "r0", "v0"),
        "integrator": ("dt",),
        "run": ("horizon", "seed"),
    }
    parser = cli.build_parser()
    default = cli._build_run_config(parser.parse_args(["simulate"]))
    entries = [(section, key) for section, keys in sections.items() for key in keys]
    assert len(entries) == 18
    for section, key in entries:
        cfg = tmp_path / f"{key}.cfg"
        cfg.write_text(f"[{section}]\n{key} = {3 if key == 'seed' else 0.3125}\n",
                       encoding="utf-8")
        args = parser.parse_args(["simulate", "--config", str(cfg)])
        assert cli._build_run_config(args) != default, key


def test_config_file_with_a_byte_order_mark_is_read(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes("[integrator]\ndt = 0.5\n\n[run]\nhorizon = 50\n".encode("utf-8-sig"))
    out = tmp_path / "sim.csv"
    assert run_cli(["simulate", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    _, rows = read_csv(out)
    assert len(rows) == 101  # horizon 50 at dt 0.5


def test_sensitivity_reads_its_controls_from_the_config_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[model]\nc1 = 0.2\nc2 = 0.3\n", encoding="utf-8")
    outs = {name: tmp_path / f"{name}.csv" for name in ("config", "flags", "default")}
    assert run_cli(["sensitivity", "--config", str(cfg), "--out", str(outs["config"])]) == EXIT_OK
    assert run_cli(["sensitivity", "--c1", "0.2", "--c2", "0.3",
                    "--out", str(outs["flags"])]) == EXIT_OK
    assert run_cli(["sensitivity", "--out", str(outs["default"])]) == EXIT_OK
    written = {name: path.read_bytes() for name, path in outs.items()}
    assert written["config"] == written["flags"] != written["default"]


def test_unknown_flag_is_an_error():
    with pytest.raises(SystemExit) as exc_info:
        main(["simulate", "--frobnicate", "1"])
    assert exc_info.value.code == 2


COMMANDS = ("simulate", "equilibria", "sensitivity", "region",
            "characteristics", "optimize", "calibrate", "avert")
#: Run flags a command does not read, so it does not take them.
DROPPED_FLAGS = {
    "simulate": ("--seed",),
    "characteristics": ("--seed",),
    "avert": ("--seed",),
    "equilibria": ("--seed", "--dt", "--horizon"),
    "sensitivity": ("--seed", "--dt", "--horizon", *INIT_FLAGS, "--h-rel"),
    "region": ("--seed", "--dt", "--horizon", "--c1", "--c2", *INIT_FLAGS),
    "optimize": ("--c1", "--c2"),
    "calibrate": ("--seed", "--horizon", "--c1", "--c2"),
}


def _required(command):
    return ["--data", "observed.csv"] if command == "calibrate" else []


@pytest.mark.parametrize("command, flag", [(command, flag) for command in COMMANDS
                                           for flag in DROPPED_FLAGS[command]])
def test_a_flag_the_command_does_not_read_is_refused(tmp_path, capsys, command, flag):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc_info:
        main([command, *_required(command), flag, "1", "--out", str(out)])
    assert exc_info.value.code == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert f"seirv {command}: error: unrecognized arguments: {flag} 1" in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [["simulate", "--hor", "5"],
                                  ["calibrate", "--data", "observed.csv", "--se", "2"]])
def test_a_prefix_of_a_flag_is_refused(capsys, argv):
    # without --seed on calibrate, --se would otherwise match --segment-length alone
    with pytest.raises(SystemExit) as exc_info:
        main([*argv, "--out", "-"])
    assert exc_info.value.code == EXIT_VALIDATION
    assert argv[-2] in capsys.readouterr().err


@pytest.mark.parametrize("command", COMMANDS)
def test_every_run_flag_a_command_takes_reaches_its_run_config(command):
    parser = cli.build_parser()
    default = cli._build_run_config(parser.parse_args([command, *_required(command)]))
    for flag in CLI_RUN_FLAGS[command]:
        value = "3" if flag == "--seed" else "0.3125"
        args = parser.parse_args([command, *_required(command), flag, value])
        assert cli._build_run_config(args) != default, flag


def test_default_controls_are_registered_with_each_command():
    # elasticities are undefined at zero controls, so sensitivity alone starts at 0.1
    parser = cli.build_parser()
    for command in COMMANDS:
        expected = (0.1, 0.1) if command == "sensitivity" else (0.0, 0.0)
        assert parser.parse_args([command, *_required(command)]).controls == expected, command


def test_help_available_for_every_subcommand():
    for cmd in COMMANDS:
        with pytest.raises(SystemExit) as exc_info:
            main([cmd, "--help"])
        assert exc_info.value.code == 0


def test_registries_have_one_owner():
    """seirv republishes each module's __all__, and each subcommand the
    parser registers carries its own handler."""
    modules = (model, equilibria, analysis, control, calibration)
    for module in modules:
        for name in module.__all__:
            assert getattr(seirv, name) is getattr(module, name), name
    assert seirv.__all__ == [name for module in modules for name in module.__all__]
    assert len(set(seirv.__all__)) == len(seirv.__all__)
    parser = cli.build_parser()
    for cmd in COMMANDS:
        assert parser.parse_args([cmd, *_required(cmd)]).run is getattr(cli, f"cmd_{cmd}")


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "seirv.cli", "simulate", "--dt", "1", "--horizon", "5"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("time,S,E,I,R,V,N")
    # the installed script passes main's exit code to sys.exit
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        assert tomllib.load(fh)["project"]["scripts"] == {"seirv": "seirv.cli:main"}


def test_bench_pinned_cli_bytes_at_smoke_size():
    # the benchmark's smoke command lines, run in-process, write the bytes
    # bench/cli_digests.json pins; calibrate's are pinned nowhere else. They
    # were recorded with the builds the golden table names.
    recorded = {key: json.loads(TABLE.read_text(encoding="utf-8"))[key] for key in versions()}
    if recorded != versions():
        pytest.skip(f"digests were recorded with {recorded}, running {versions()}")
    assert bench_pins.check(smoke=True) == (9, [])
