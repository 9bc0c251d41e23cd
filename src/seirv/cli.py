"""Command-line front end.

Subcommands: simulate | equilibria | sensitivity | region | characteristics |
optimize | calibrate | avert. Each command takes only the run flags it reads.
It reads defaults, then an optional `key = value` config file (shared by all
commands: a key the command does not read is still checked and has no
effect), then command-line flags (flags win). Solver flags left unset keep
the defaults of the library call they feed. Tabular results go to CSV,
reports to JSON; all floating-point output is printed with 17 significant
digits so reruns are byte-identical.

Exit codes: 0 success, 2 validation error (including unknown config keys),
3 numerical failure (divergence, any ArithmeticError, a failed linear-algebra
routine, or running out of memory).
"""

from __future__ import annotations

import argparse
import configparser
import math
import sys
from contextlib import contextmanager
from dataclasses import asdict, dataclass, fields, is_dataclass
from typing import Callable, Dict, Iterable, Iterator, Optional, Sequence, TextIO

import numpy as np

from . import analysis, calibration, control, equilibria
from .errors import IntegrationDivergedError, SeirvError
from .model import (
    IntegratorConfig,
    ModelParams,
    State,
    DEFAULT_PARAMS,
    integrate,
    population_bound,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3

MODEL_FIELDS = tuple(f.name for f in fields(ModelParams))
STATE_FIELDS = ("s0", "e0", "i0", "r0", "v0")
DEFAULT_STATE = {"s0": 1e9, "e0": 0.0, "i0": 1.0, "r0": 0.0, "v0": 0.0}
#: Config-file sections and the keys each accepts; every key is also a flag.
CONFIG_KEYS = {
    "model": MODEL_FIELDS,
    "init": STATE_FIELDS,
    "integrator": ("dt",),
    "run": ("horizon", "seed"),
}


def _fmt(x: float) -> str:
    """17-significant-digit decimal, enough to round-trip a double exactly."""
    return format(float(x), ".17g")


def _json_dump(obj, out: TextIO, indent: int = 0) -> None:
    """Minimal JSON writer with fixed float formatting (NaN becomes null);
    a complex number becomes {"re": ..., "im": ...}."""
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            out.write("{}")
            return
        out.write("{\n")
        for k, (key, val) in enumerate(obj.items()):
            out.write(f'{pad}  "{key}": ')
            _json_dump(val, out, indent + 1)
            out.write(",\n" if k < len(obj) - 1 else "\n")
        out.write(pad + "}")
    elif isinstance(obj, (list, tuple)):
        if len(obj) == 0:
            out.write("[]")
            return
        out.write("[\n")
        for k, val in enumerate(obj):
            out.write(pad + "  ")
            _json_dump(val, out, indent + 1)
            out.write(",\n" if k < len(obj) - 1 else "\n")
        out.write(pad + "]")
    elif isinstance(obj, bool):
        out.write("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.write(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        x = float(obj)
        out.write("null" if math.isnan(x) else _fmt(x))
    elif isinstance(obj, complex):
        _json_dump({"re": obj.real, "im": obj.imag}, out, indent)
    elif obj is None:
        out.write("null")
    elif isinstance(obj, str):
        out.write('"' + obj.replace("\\", "\\\\").replace('"', '\\"') + '"')
    else:
        raise TypeError(f"cannot serialize {type(obj)!r}")


@contextmanager
def _open_out(path: Optional[str]):
    """Stream to write to: stdout for None or "-", else the file at path."""
    if path is None or path == "-":
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            yield fh


def _write_json(path: Optional[str], obj) -> None:
    with _open_out(path) as out:
        _json_dump(obj, out)
        out.write("\n")


def _write_csv(path: Optional[str], header: Sequence[str], rows: Iterable[tuple]) -> None:
    """Header, then one line per row tuple. Each column keeps the kind of its
    first-row cell: floats as 17-digit decimals (as _fmt), the rest via str."""
    rows = iter(rows)
    with _open_out(path) as out:
        out.write(",".join(header) + "\n")
        first = next(rows, None)
        if first is None:
            return
        fmt = ",".join("%.17g" if isinstance(x, (float, np.floating)) else "%s"
                       for x in first) + "\n"
        out.write(fmt % first)
        out.writelines(fmt % row for row in rows)


def _chunked_rows(columns: Sequence[np.ndarray], chunk: int = 4096) -> Iterator[tuple]:
    """Rows of equal-length columns as tuples of Python floats. Converting
    chunk rows at a time keeps memory flat; whole columns as lists would
    hold every row's floats at once."""
    for lo in range(0, len(columns[0]), chunk):
        yield from zip(*(col[lo:lo + chunk].tolist() for col in columns))


@dataclass
class RunConfig:
    """Everything a command needs: parameters, initial state, run settings."""

    params: ModelParams
    init: State
    integrator: IntegratorConfig
    horizon: float
    seed: int


def _load_config_file(path: str) -> Dict[str, Dict[str, str]]:
    parser = configparser.ConfigParser(interpolation=None)  # values are numbers, '%' is no syntax
    try:
        read = parser.read(path, encoding="utf-8-sig")  # a byte-order mark is no section
    except configparser.Error as exc:  # no section header, a duplicate key, ...
        raise ValueError(f"malformed config file {path!r}: {' '.join(str(exc).split())}") from None
    if not read:
        raise ValueError(f"cannot read config file {path!r}")
    return {section: dict(parser[section]) for section in parser.sections()}


def _build_run_config(args: argparse.Namespace, default_controls=(0.0, 0.0)) -> RunConfig:
    """Defaults, then the config file, then command-line flags (flags win)."""
    vals = {name: getattr(DEFAULT_PARAMS, name) for name in MODEL_FIELDS}
    vals.update(DEFAULT_STATE, dt=IntegratorConfig.dt, horizon=2000.0, seed=0)
    vals["c1"], vals["c2"] = default_controls
    if args.config:
        for section, entries in _load_config_file(args.config).items():
            if section not in CONFIG_KEYS:
                raise ValueError(f"unknown config section [{section}]")
            for key, val in entries.items():
                if key not in CONFIG_KEYS[section]:
                    raise ValueError(f"unknown {section} config key {key!r}")
                try:
                    vals[key] = int(val) if key == "seed" else float(val)
                except ValueError:
                    kind = "an integer" if key == "seed" else "a number"
                    raise ValueError(f"config [{section}] {key} = {val!r} is not {kind}") from None
    for key in vals:
        flag = getattr(args, key, None)
        if flag is not None:
            vals[key] = flag

    if not (math.isfinite(vals["horizon"]) and vals["horizon"] > 0.0):
        raise ValueError(f"horizon must be finite and > 0, got {vals['horizon']!r}")
    return RunConfig(
        params=ModelParams(**{name: vals[name] for name in MODEL_FIELDS}),
        init=State(*(vals[name] for name in STATE_FIELDS)),
        integrator=IntegratorConfig(dt=vals["dt"]),
        horizon=vals["horizon"],
        seed=vals["seed"],
    )


def _given(args: argparse.Namespace, names) -> Dict[str, object]:
    """The set flags among names, or among a dataclass's fields; the callee
    keeps its own defaults for the rest."""
    names = [f.name for f in fields(names)] if is_dataclass(names) else names
    return {n: getattr(args, n) for n in names if getattr(args, n, None) is not None}


#: One flag per RunConfig key; a command registers those its handler reads.
SHARED_FLAGS = {
    "seed": ("--seed", int, "annealing RNG seed (default 0)"),
    "dt": ("--dt", float, f"integration step size (default {IntegratorConfig.dt})"),
    "horizon": ("--horizon", float, "simulation horizon (default 2000)"),
    **{name: ("--lambda" if name == "lam" else f"--{name}", float, f"model parameter {name}")
       for name in MODEL_FIELDS},
    **{name: (f"--{name}", float, f"initial {name[0].upper()} count") for name in STATE_FIELDS},
}


def _add_shared_flags(sp: argparse.ArgumentParser, reads: Sequence[str]) -> None:
    sp.add_argument("--config", help="key = value config file (sections: model, init, integrator, run)")
    sp.add_argument("--out", help="output path (default: stdout)")
    for key, (flag, kind, help) in SHARED_FLAGS.items():
        if key in reads:
            sp.add_argument(flag, dest=key, type=kind, help=help)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seirv",
        description="SEIRV malware-propagation model: simulation, analysis, control, calibration.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, run: Callable[[argparse.Namespace], int], help: str,
                reads: Sequence[str]) -> argparse.ArgumentParser:
        """A subcommand with the shared flags run(args) reads; main calls it."""
        sp = sub.add_parser(name, help=help, allow_abbrev=False)  # a prefix is no flag
        _add_shared_flags(sp, reads)
        sp.set_defaults(run=run)
        return sp

    rates = tuple(name for name in MODEL_FIELDS if name not in ("c1", "c2"))
    trajectory = (*MODEL_FIELDS, *STATE_FIELDS, "dt", "horizon")

    command("simulate", cmd_simulate, "integrate the model and emit a trajectory CSV", trajectory)
    command("equilibria", cmd_equilibria, "equilibria, threshold and stability report (JSON)",
            (*MODEL_FIELDS, *STATE_FIELDS))
    command("sensitivity", cmd_sensitivity, "threshold elasticities per parameter (CSV)", MODEL_FIELDS)

    sp = command("region", cmd_region, "extinction/growth map over the control plane (CSV)", rates)
    sp.add_argument("--resolution", type=int, default=101, help="grid points per axis")

    command("characteristics", cmd_characteristics, "peak, peak time and total infections (JSON)",
            trajectory)

    sp = command("optimize", cmd_optimize, "hybrid gradient + annealing control search (JSON)",
                 (*rates, *STATE_FIELDS, "dt", "horizon", "seed"))
    sp.add_argument("--m0", type=float, default=1.0, help="infection cost weight")
    sp.add_argument("--k1", type=float, default=0.2, help="vaccination cost weight")
    sp.add_argument("--k2", type=float, default=0.3, help="treatment cost weight")
    sp.add_argument("--start-c1", type=float, default=0.1, help="initial vaccination rate")
    sp.add_argument("--start-c2", type=float, default=0.1, help="initial treatment rate")
    sp.add_argument("--t0-temp", dest="t0", type=float, help="initial annealing temperature")
    sp.add_argument("--cooling", type=float, help="temperature decay factor")
    sp.add_argument("--n-cool", type=int, help="cooling steps per annealing phase")
    sp.add_argument("--n-perturb", type=int, help="perturbations per cooling step")
    sp.add_argument("--eps-k", type=float, help="gradient-phase acceptance tolerance")
    sp.add_argument("--delta-k", type=float, help="annealing acceptance tolerance")
    sp.add_argument("--step-eta", type=float,
                    help="steepest-descent step of each gradient phase "
                         "(step rule: seirv.control.hybrid_optimize)")
    sp.add_argument("--max-outer", type=int, help="outer-loop cap")
    sp.add_argument("--accept-rule", choices=("scaled", "classical"),
                    help="annealing acceptance probability form")

    sp = command("calibrate", cmd_calibrate, "fit piecewise beta to observed counts (JSON)",
                 (*rates, *STATE_FIELDS, "dt"))
    sp.add_argument("--data", required=True, help="input CSV with header time,count")
    sp.add_argument("--kind", choices=("cumulative", "daily"), default="cumulative",
                    help="how to interpret the count column")
    sp.add_argument("--segment-length", type=float, help="length of each constant-beta segment")
    sp.add_argument("--nm-max-iter", dest="max_iter", type=int, help="simplex iteration cap")
    sp.add_argument("--csv-out", help="also write an observed/fitted/residual CSV here")

    sp = command("avert", cmd_avert, "averted cases vs intervention onset (JSON)", trajectory)
    sp.add_argument("--onset-grid", default="0,100,200,300,400,500",
                    help="comma-separated onset times")
    sp.add_argument("--csv-out", help="also write an onset/averted CSV here")

    return parser


def cmd_simulate(args: argparse.Namespace) -> int:
    rc = _build_run_config(args)
    traj = integrate(rc.params, rc.init, rc.horizon, rc.integrator)
    columns = (traj.times, traj.s, traj.e, traj.i, traj.r, traj.v, traj.n)
    _write_csv(args.out, ["time", "S", "E", "I", "R", "V", "N"], _chunked_rows(columns))
    return EXIT_OK


def cmd_equilibria(args: argparse.Namespace) -> int:
    rc = _build_run_config(args)
    p = rc.params
    endemic = equilibria.compute_endemic(p)
    # before mfe_spectrum: where both overflow, the endemic polynomial is the failure reported
    stability = None if endemic is None else asdict(equilibria.endemic_stability(p))
    _write_json(args.out, {
        "mfe": asdict(equilibria.compute_mfe(p)),
        "threshold": {**asdict(equilibria.compute_rc(p)),
                      "n_tilde": population_bound(p, rc.init.total)},
        "mfe_spectrum": asdict(equilibria.mfe_spectrum(p)),
        "endemic": None if endemic is None else asdict(endemic),
        "routh_hurwitz": stability,
    })
    return EXIT_OK


def cmd_sensitivity(args: argparse.Namespace) -> int:
    # Elasticities are undefined at zero, so this command defaults the
    # controls to 0.1, the reference operating point of the index table.
    rc = _build_run_config(args, default_controls=(0.1, 0.1))
    indices = analysis.sensitivity_indices(rc.params)
    _write_csv(args.out, ["parameter", "value"],
               ((ix.parameter, ix.value) for ix in indices))
    return EXIT_OK


def cmd_region(args: argparse.Namespace) -> int:
    rc = _build_run_config(args)
    rmap = analysis.region_map(rc.params, args.resolution)
    rows = ((c1, c2, "growth" if rmap.growth[i, j] else "extinction", rmap.separatrix[i])
            for i, c1 in enumerate(rmap.c1_grid) for j, c2 in enumerate(rmap.c2_grid))
    _write_csv(args.out, ["c1", "c2", "label", "separatrix_c2"], rows)
    return EXIT_OK


def cmd_characteristics(args: argparse.Namespace) -> int:
    rc = _build_run_config(args)
    traj = integrate(rc.params, rc.init, rc.horizon, rc.integrator)
    ch = analysis.characteristics(traj, rc.params)
    _write_json(args.out, asdict(ch))
    return EXIT_OK


def cmd_optimize(args: argparse.Namespace) -> int:
    rc = _build_run_config(args)
    cp = control.CostParams.for_run(rc.params, rc.init, m0=args.m0, k1=args.k1,
                                    k2=args.k2, horizon=rc.horizon)
    sa = control.SAConfig(rng_seed=rc.seed, **_given(args, control.SAConfig))
    run = control.hybrid_optimize(rc.params, cp, (args.start_c1, args.start_c2),
                                  sa, rc.init, rc.integrator)
    # effort shares are undefined at the zero-effort optimum (0, 0)
    share1, share2 = control.effort_split(run.optimum) if any(run.optimum) else (None, None)
    _write_json(args.out, {
        "optimum": {"c1": run.optimum[0], "c2": run.optimum[1]},
        "j_star": run.j_star,
        "effort_split": {"share1": share1, "share2": share2},
        "history": [{"c1": h[0], "c2": h[1], "j": h[2], "phase": t}
                    for h, t in zip(run.history, run.phase_tags)],
    })
    return EXIT_OK


def cmd_calibrate(args: argparse.Namespace) -> int:
    rc = _build_run_config(args)
    series = calibration.load_series(args.data, kind=args.kind)
    nm = calibration.NelderMeadConfig(**_given(args, calibration.NelderMeadConfig))
    fit = calibration.fit_beta_segments(
        series, rc.params, init=rc.init, nm=nm, cfg=rc.integrator,
        **_given(args, ("segment_length",)),
    )
    _write_json(args.out, asdict(fit))
    if args.csv_out:
        rows = zip(series.times, series.cumulative, fit.fitted, fit.residuals)
        _write_csv(args.csv_out, ["time", "observed", "fitted", "residual"], rows)
    return EXIT_OK


def cmd_avert(args: argparse.Namespace) -> int:
    rc = _build_run_config(args)
    onsets = [float(tok) for tok in args.onset_grid.split(",") if tok.strip()]
    curve = calibration.averted_cases(
        rc.params, (rc.params.c1, rc.params.c2), onsets, rc.init, rc.horizon,
        rc.integrator,
    )
    _write_json(args.out, {
        "onsets": list(curve.onsets),
        "averted": list(curve.averted),
        "decay_fit": {"amplitude": curve.decay_fit[0], "rate": curve.decay_fit[1]},
        "decay_r2": curve.decay_r2,
    })
    if args.csv_out:
        _write_csv(args.csv_out, ["onset", "averted"], zip(curve.onsets, curve.averted))
    return EXIT_OK


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except (IntegrationDivergedError, ArithmeticError, MemoryError,
            np.linalg.LinAlgError) as exc:  # LinAlgError before ValueError, its base
        detail = str(exc) or type(exc).__name__  # a bare MemoryError has no message
        print(f"seirv {args.command}: numerical failure: {detail}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (SeirvError, ValueError, OSError) as exc:
        print(f"seirv {args.command}: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
