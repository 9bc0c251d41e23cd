"""seirv benchmark: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload optimize --seed 1 --seconds 20 --trace 0

Run from the repository root (or from any copy of it holding ``src/seirv``).
With ``--trace 0`` it times the workload with tracing off and prints the
end-to-end metrics; with ``--trace 1`` it alternates untraced and traced
passes and prints the per-layer metrics from the spans. Times are scaled to
a reference machine speed measured during the run (speed.py); the raw times
are kept in the report. The last line of
standard output is the result:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
A fuller report (environment, every job latency, gate failures) is written to
``.bench_out/`` and summarised on standard error. ``--smoke`` runs tiny sizes.
See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import speed
import tracing

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOAD_NAMES = ("optimize", "calibrate", "sweep", "cli")

#: Nominal seconds of one pass at the seed commit on a 2-core box. A run
#: makes round(seconds / nominal) passes (at least one), so the work in a run
#: is fixed by --seconds alone and is the same on every commit compared.
NOMINAL_PASS_S = {"optimize": 20.0, "calibrate": 20.0, "sweep": 3.3, "cli": 10.0}
#: Fresh interpreters started per run to time set-up; the median is reported.
SETUP_REPEATS = 5


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny sizes, one pass")
    ap.add_argument("--setup-only", action="store_true",
                    help="import seirv, build the inputs and exit (times set-up)")
    return ap.parse_args(argv)


def _rusage_cpu() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


def _pytest_pids() -> list:
    pids = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit() or int(entry.name) == os.getpid():
            continue
        try:
            cmdline = (entry / "cmdline").read_bytes()
        except OSError:
            continue
        if b"pytest" in cmdline:
            pids.append(int(entry.name))
    return pids


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def environment() -> dict:
    import numpy as np

    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "seirv").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": _git_sha(),
        "src_sha256": src.hexdigest(),
    }


def load_snapshot() -> dict:
    return {"loadavg": list(os.getloadavg()), "pytest_pids": _pytest_pids()}


def time_setup(args, probe) -> tuple:
    """Raw and speed-scaled wall time of a fresh interpreter that imports
    seirv and builds the inputs."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"] + (["--smoke"] if args.smoke else [])
    probe.sample()
    first = len(probe.samples) - 1
    t0 = perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          timeout=120)
    elapsed = perf_counter() - t0
    probe.sample()
    if proc.returncode != 0:
        raise RuntimeError(f"set-up failed: {proc.stderr.decode(errors='replace')}")
    return elapsed, elapsed * probe.factor(first)


class Tally:
    """Job latencies, CPU and failures over the passes of one run.

    Times are scaled to the reference machine speed (see speed.py); the raw
    ones are kept for the report. With probe_in_jobs the speed probe also
    samples during each job, not only between jobs.
    """

    def __init__(self, probe, probe_in_jobs: bool):
        self.probe = probe
        self.probe_in_jobs = probe_in_jobs
        self.latencies: list = []
        self.raw_latencies: list = []
        self.labels: list = []
        self.pass_wall: list = []
        self.pass_cpu: list = []
        self.raw_pass_wall: list = []
        self.attempted = 0
        self.failures: list = []

    def run_pass(self, study) -> float:
        """Run every job in order; gates run after each job, outside its timing."""
        probe = self.probe
        wall = cpu = raw_wall = 0.0
        probe.sample()
        for label, job in study.jobs:
            self.attempted += 1
            first = len(probe.samples) - 1
            spent = probe.spent_s
            c0 = _rusage_cpu()
            t0 = perf_counter()
            try:
                with probe.during(self.probe_in_jobs):
                    gate = job()
            except Exception as exc:  # a failing job counts against error_rate
                gate = None
                self.failures.append(f"{label}: {type(exc).__name__}: {exc}")
            elapsed = perf_counter() - t0 - (probe.spent_s - spent)
            job_cpu = _rusage_cpu() - c0 - (probe.spent_s - spent)
            probe.sample()
            factor = probe.factor(first)
            wall += elapsed * factor
            cpu += job_cpu * factor
            raw_wall += elapsed
            self.latencies.append(elapsed * factor)
            self.raw_latencies.append(elapsed)
            self.labels.append(label)
            if gate is not None:
                try:
                    gate()
                except Exception as exc:
                    self.failures.append(f"{label}: {type(exc).__name__}: {exc}")
            print(f"  {elapsed:8.3f}s raw {elapsed * factor:8.3f}s scaled  {label}",
                  file=sys.stderr)
        self.pass_wall.append(wall)
        self.pass_cpu.append(cpu)
        self.raw_pass_wall.append(raw_wall)
        return wall


def _p90(values: list) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def measure(args, workloads, workdir: Path, n_passes: int):
    probe = speed.SpeedProbe()
    raw_setups, setups = zip(*(time_setup(args, probe)
                               for _ in range(2 if args.smoke else SETUP_REPEATS)))
    study = workloads.build(args.workload, args.seed, args.smoke, workdir)
    tally = Tally(probe, probe_in_jobs=True)
    for _ in range(n_passes):
        tally.run_pass(study)
    metrics = {
        "wall_s": (statistics.median(tally.pass_wall), "s"),
        "cpu_s": (statistics.median(tally.pass_cpu), "s"),
        "job_p50_s": (statistics.median(tally.latencies), "s"),
        "job_p90_s": (_p90(tally.latencies), "s"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }
    extra = {"setup_runs_s": setups, "pass_wall_s": tally.pass_wall,
             "pass_cpu_s": tally.pass_cpu, "job_samples": len(tally.latencies),
             "error_rate": len(tally.failures) / tally.attempted,
             "raw": {"setup_runs_s": raw_setups, "pass_wall_s": tally.raw_pass_wall,
                     "job_latencies_s": tally.raw_latencies,
                     "wall_s": statistics.median(tally.raw_pass_wall)},
             "speed_probe": {"samples": len(probe.samples),
                             "median_s": statistics.median(probe.samples),
                             "reference_s": speed.REFERENCE_S}}
    return tally, metrics, extra


def measure_traced(args, workloads, workdir: Path, n_passes: int, spans_path: Path):
    """Alternate untraced and traced passes; per-layer metrics from the spans.

    The speed probe samples only between jobs here, so no probe lands in a span.
    """
    tally = Tally(speed.SpeedProbe(), probe_in_jobs=False)
    plain = workloads.build(args.workload, args.seed, args.smoke, workdir)
    traced = workloads.build(args.workload, args.seed, args.smoke, workdir, traced=True)
    recorder = tracing.SpanRecorder()
    untraced_s, traced_s = [], []

    def traced_pass() -> None:
        if args.workload != "cli":  # cli jobs trace inside their own launcher
            recorder.install()
        try:
            traced_s.append(tally.run_pass(traced))
        finally:
            recorder.uninstall()

    for k in range(n_passes):  # alternate which side runs first
        if k % 2:
            traced_pass()
        untraced_s.append(tally.run_pass(plain))
        if not k % 2:
            traced_pass()
    if args.workload == "cli":
        spans = tracing.merge_spans([r["spans"] for r in traced.traced_runs])
        imports = [r["import_s"] for r in traced.traced_runs]
        import_s = statistics.median(imports) if imports else 0.0
        output_bytes = sum(traced.output_bytes) / n_passes
    else:
        spans, import_s, output_bytes = recorder.spans, 0.0, 0.0
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "count", "error", "f64"],
                   "spans": spans}, fh)
    layer = tracing.layer_metrics(spans, n_passes, import_s, output_bytes)
    layer["trace.overhead_ratio"] = statistics.median(traced_s) / statistics.median(untraced_s)
    metrics = {name: (value, tracing.UNITS[name]) for name, value in layer.items()}
    extra = {"untraced_pass_s": untraced_s, "traced_pass_s": traced_s, "spans": len(spans),
             "spans_file": str(spans_path.relative_to(ROOT))}
    return tally, metrics, extra


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "seirv" / "__init__.py").is_file():
        print(f"bench: no seirv sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import workloads  # imports seirv from src/

    # One vCPU for this process and every child it starts, so the speed probe
    # measures the core the jobs and the cli subprocesses actually run on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.setup_only:
            workloads.build(args.workload, args.seed, args.smoke, workdir)
            return 0
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        n_passes = 1 if args.smoke else max(1, round(args.seconds / NOMINAL_PASS_S[args.workload]))
        env = environment()
        before = load_snapshot()
        if args.trace:
            tally, metrics, extra = measure_traced(args, workloads, workdir, n_passes,
                                                   out_dir / f"{stem}-spans.json")
        else:
            tally, metrics, extra = measure(args, workloads, workdir, n_passes)
        after = load_snapshot()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    loaded = bool(before["pytest_pids"] or after["pytest_pids"]) or \
        max(before["loadavg"][0], after["loadavg"][0]) > env["nproc"] - 0.5
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "passes": n_passes,
        "environment": env, "load_start": before, "load_end": after, "loaded": loaded,
        "attempted": tally.attempted, "failed": len(tally.failures),
        "failures": tally.failures,
        "jobs": [[label, t] for label, t in zip(tally.labels, tally.latencies)],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        **extra,
    }
    with open(out_dir / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    for failure in tally.failures:
        print(f"bench: FAILED {failure}", file=sys.stderr)
    if loaded:
        print(f"bench: WARNING box was loaded (load {before['loadavg'][0]:.2f} -> "
              f"{after['loadavg'][0]:.2f}, pytest pids {before['pytest_pids'] or after['pytest_pids']})",
              file=sys.stderr)
    print(f"bench: {args.workload} seed {args.seed}: {n_passes} passes, {tally.attempted} jobs "
          f"(the job latency percentiles' sample count), {len(tally.failures)} failed, "
          f"report {out_dir.name}/{stem}.json", file=sys.stderr)
    print(json.dumps({
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
