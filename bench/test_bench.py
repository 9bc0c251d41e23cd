"""The benchmark's own test: every workload passes its gate in smoke mode and
prints every metric of BENCHMARK.json with its unit.

    python -m pytest bench/test_bench.py -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

END_TO_END = {"wall_s", "cpu_s", "job_p50_s", "job_p90_s", "peak_rss_mb", "setup_s"}
PER_LAYER = {
    "model.integrate.calls", "model.integrate.steps", "model.integrate.self_s",
    "model.integrate.us_per_step", "model.integrate.errors", "model.integrate.f64_steps",
    "model.integrate.us_per_step_f64",
    "control.cost.calls", "control.cost.self_s", "control.gradient.calls",
    "control.gradient.self_s", "control.solve_adjoint.self_s",
    "control.solve_adjoint.us_per_step", "control.hybrid_optimize.self_s",
    "control.accepted_moves", "control.accept_ratio",
    "calibration.nelder_mead.iterations", "calibration.nelder_mead.self_s",
    "calibration.sse.calls", "calibration.model_cumulative.self_s",
    "calibration.evals_per_iter", "calibration.averted_cases.self_s",
    "analysis.calls", "analysis.self_s", "equilibria.calls", "equilibria.self_s",
    "cli.import_s", "cli.main.self_s", "cli.output_bytes", "trace.overhead_ratio",
}

#: Layers each workload must reach, as (per-layer metric that must be > 0).
REACHED = {
    "optimize": ("control.cost.calls", "control.gradient.calls",
                 "control.solve_adjoint.us_per_step", "model.integrate.us_per_step"),
    "calibrate": ("calibration.nelder_mead.iterations", "calibration.sse.calls",
                  "calibration.evals_per_iter"),
    "sweep": ("model.integrate.f64_steps", "model.integrate.us_per_step_f64",
              "analysis.calls", "equilibria.calls"),
    "cli": ("cli.import_s", "cli.main.self_s", "cli.output_bytes",
            "calibration.averted_cases.self_s", "equilibria.calls"),
}


def run_bench(cwd: Path, workload: str, trace: int):
    cmd = [*SPEC["command"], "--workload", workload, "--seed", "5", "--seconds", "1",
           "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def declared(kind: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def test_spec_names_every_metric():
    assert set(declared("end_to_end")) == END_TO_END
    assert PER_LAYER <= set(declared("per_layer"))
    assert [w["name"] for w in SPEC["workloads"]] == ["optimize", "calibrate", "sweep", "cli"]


@pytest.mark.parametrize("workload", ["optimize", "calibrate", "sweep", "cli"])
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_passes_gate_and_prints_metrics(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 1
    expected = declared("per_layer" if trace else "end_to_end")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected
    values = {name: m["value"] for name, m in result["metrics"].items()}
    if trace:
        for name in REACHED[workload]:
            assert values[name] > 0, name
    else:
        assert all(v > 0 for v in values.values()), values


def test_fails_without_the_program(tmp_path):
    """In a directory holding only the benchmark, it exits non-zero, no result."""
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = run_bench(tmp_path, "optimize", 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
