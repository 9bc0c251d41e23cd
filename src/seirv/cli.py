"""Command-line front end.

Subcommands: simulate | equilibria | sensitivity | region | characteristics |
optimize | calibrate | avert. Each command takes only the run flags it reads;
`RUN_KEYS` gives each run key's config section, flag, type, default and help.
`main` builds each command's RunConfig from defaults, then an optional
`key = value` config file (shared by all commands: a key the command does not
read is still checked and has no effect), then command-line flags (flags
win). It calls the handler, which only computes and writes, and decides the
exit code. Solver flags left unset keep the defaults of the library call they
feed. Tabular results go to CSV, reports to JSON; all floating-point output
is printed with 17 significant digits so reruns are byte-identical.

Exit codes follow the exception type: 0 success, 2 validation error (any
ValueError or OSError, including unknown config keys), 3 numerical failure
(any ArithmeticError, divergence included, a failed linear-algebra routine,
or running out of memory).
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
#: Every RunConfig key: (config section, flag, type, default, flag help). A
#: command registers the flags of the keys it reads, in this order.
RUN_KEYS = {
    "seed": ("run", "--seed", int, control.SAConfig.rng_seed,
             f"annealing RNG seed (default {control.SAConfig.rng_seed})"),
    "dt": ("integrator", "--dt", float, IntegratorConfig.dt,
           f"integration step size (default {IntegratorConfig.dt})"),
    "horizon": ("run", "--horizon", float, 2000.0, "simulation horizon (default 2000)"),
    **{name: ("model", "--lambda" if name == "lam" else f"--{name}", float,
              getattr(DEFAULT_PARAMS, name), f"model parameter {name}") for name in MODEL_FIELDS},
    **{name: ("init", f"--{name}", float, count, f"initial {name[0].upper()} count")
       for name, count in zip(STATE_FIELDS, (1e9, 0.0, 1.0, 0.0, 0.0))},
}
#: 17 significant digits, enough to round-trip a double exactly.
FLOAT_FORMAT = "%.17g"


def _json_dump(obj, out: TextIO, indent: int = 0) -> None:
    """Minimal JSON writer of the values the commands emit: dicts, lists and
    tuples, bools, floats with fixed formatting (NaN becomes null), complex
    numbers as {"re": ..., "im": ...}, None and strings; anything else is a
    TypeError."""
    pad = "  " * indent
    if isinstance(obj, dict):
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
    elif isinstance(obj, float):  # np.float64 is a float
        out.write("null" if math.isnan(obj) else FLOAT_FORMAT % obj)
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
    first-row cell: floats in FLOAT_FORMAT, the rest via str."""
    rows = iter(rows)
    with _open_out(path) as out:
        out.write(",".join(header) + "\n")
        first = next(rows, None)
        if first is None:
            return
        fmt = ",".join(FLOAT_FORMAT if isinstance(x, float) else "%s"
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
    # values are numbers, so '%' is no syntax; no header is empty, so [DEFAULT] is a plain section
    parser = configparser.ConfigParser(interpolation=None, default_section="")
    try:
        read = parser.read(path, encoding="utf-8-sig")  # a byte-order mark is no section
    except configparser.Error as exc:  # no section header, a duplicate key, ...
        raise ValueError(f"malformed config file {path!r}: {' '.join(str(exc).split())}") from None
    if not read:
        raise ValueError(f"cannot read config file {path!r}")
    return {section: dict(parser[section]) for section in parser.sections()}


def _build_run_config(args: argparse.Namespace) -> RunConfig:
    """Defaults, then the config file, then command-line flags (flags win)."""
    vals = {key: default for key, (_, _, _, default, _) in RUN_KEYS.items()}
    vals["c1"], vals["c2"] = args.controls
    if args.config:
        sections = {section for section, *_ in RUN_KEYS.values()}
        for section, entries in _load_config_file(args.config).items():
            if section not in sections:
                raise ValueError(f"unknown config section [{section}]")
            for key, val in entries.items():
                if key not in RUN_KEYS or RUN_KEYS[key][0] != section:
                    raise ValueError(f"unknown {section} config key {key!r}")
                kind = RUN_KEYS[key][2]
                try:
                    vals[key] = kind(val)
                except ValueError:
                    noun = "an integer" if kind is int else "a number"
                    raise ValueError(f"config [{section}] {key} = {val!r} is not {noun}") from None
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


def _add_shared_flags(sp: argparse.ArgumentParser, reads: Sequence[str]) -> None:
    sp.add_argument("--config", help="key = value config file (sections: model, init, integrator, run)")
    sp.add_argument("--out", help="output path (default: stdout)")
    for key, (_, flag, kind, _, help) in RUN_KEYS.items():
        if key in reads:
            sp.add_argument(flag, dest=key, type=kind, help=help)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seirv",
        description="SEIRV malware-propagation model: simulation, analysis, control, calibration.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, run: Callable[[argparse.Namespace, RunConfig], None], help: str,
                reads: Sequence[str], controls=(0.0, 0.0)) -> argparse.ArgumentParser:
        """A subcommand with the shared flags run(args, rc) reads. main builds
        rc (its controls default to `controls`), calls run and decides the exit code."""
        sp = sub.add_parser(name, help=help, allow_abbrev=False)  # a prefix is no flag
        _add_shared_flags(sp, reads)
        sp.set_defaults(run=run, controls=controls,
                        error=sp.error)  # main reports leftovers under sp
        return sp

    rates = tuple(name for name in MODEL_FIELDS if name not in ("c1", "c2"))
    trajectory = (*MODEL_FIELDS, *STATE_FIELDS, "dt", "horizon")

    command("simulate", cmd_simulate, "integrate the model and emit a trajectory CSV", trajectory)
    command("equilibria", cmd_equilibria, "equilibria, threshold and stability report (JSON)",
            (*MODEL_FIELDS, *STATE_FIELDS))
    # Elasticities are undefined at zero, so sensitivity defaults the
    # controls to 0.1, the reference operating point of the index table.
    command("sensitivity", cmd_sensitivity, "threshold elasticities per parameter (CSV)",
            MODEL_FIELDS, controls=(0.1, 0.1))

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


def cmd_simulate(args: argparse.Namespace, rc: RunConfig) -> None:
    traj = integrate(rc.params, rc.init, rc.horizon, rc.integrator)
    columns = (traj.times, traj.s, traj.e, traj.i, traj.r, traj.v, traj.n)
    _write_csv(args.out, ["time", "S", "E", "I", "R", "V", "N"], _chunked_rows(columns))


def cmd_equilibria(args: argparse.Namespace, rc: RunConfig) -> None:
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


def cmd_sensitivity(args: argparse.Namespace, rc: RunConfig) -> None:
    _write_csv(args.out, ["parameter", "value"], analysis.sensitivity_indices(rc.params).items())


def cmd_region(args: argparse.Namespace, rc: RunConfig) -> None:
    rmap = analysis.region_map(rc.params, args.resolution)
    rows = ((c1, c2, "growth" if rmap.growth[i, j] else "extinction", rmap.separatrix[i])
            for i, c1 in enumerate(rmap.c1_grid) for j, c2 in enumerate(rmap.c2_grid))
    _write_csv(args.out, ["c1", "c2", "label", "separatrix_c2"], rows)


def cmd_characteristics(args: argparse.Namespace, rc: RunConfig) -> None:
    traj = integrate(rc.params, rc.init, rc.horizon, rc.integrator)
    ch = analysis.characteristics(traj, rc.params)
    _write_json(args.out, asdict(ch))


def cmd_optimize(args: argparse.Namespace, rc: RunConfig) -> None:
    cp = control.CostParams.for_run(rc.params, rc.init, m0=args.m0, k1=args.k1,
                                    k2=args.k2, horizon=rc.horizon)
    sa = control.SAConfig(rng_seed=rc.seed, **_given(args, control.SAConfig))
    run = control.hybrid_optimize(rc.params, cp, (args.start_c1, args.start_c2),
                                  sa, rc.init, rc.integrator)
    share1, share2 = control.effort_split(run.optimum)  # nan, written as null, at (0, 0)
    _write_json(args.out, {
        "optimum": {"c1": run.optimum[0], "c2": run.optimum[1]},
        "j_star": run.j_star,
        "effort_split": {"share1": share1, "share2": share2},
        "history": [{"c1": c1, "c2": c2, "j": j, "phase": phase}
                    for c1, c2, j, phase in run.history],
    })


def cmd_calibrate(args: argparse.Namespace, rc: RunConfig) -> None:
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


def cmd_avert(args: argparse.Namespace, rc: RunConfig) -> None:
    try:
        onsets = [float(tok) for tok in args.onset_grid.split(",")]
    except ValueError as exc:  # float's message quotes the token
        raise ValueError(f"--onset-grid {args.onset_grid!r}: {exc}") from None
    curve = calibration.averted_cases(rc.params, onsets, rc.init, rc.horizon, rc.integrator)
    for warning in curve.warnings:
        print(f"seirv avert: warning: {warning}", file=sys.stderr)
    _write_json(args.out, {
        "onsets": curve.onsets,
        "averted": curve.averted,
        "decay_fit": {"amplitude": curve.decay_fit[0], "rate": curve.decay_fit[1]},
        "decay_r2": curve.decay_r2,
    })
    if args.csv_out:
        _write_csv(args.csv_out, ["onset", "averted"], zip(curve.onsets, curve.averted))


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args, extra = parser.parse_known_args(argv)
    if extra:
        args.error(f"unrecognized arguments: {' '.join(extra)}")
    try:
        args.run(args, _build_run_config(args))
        return EXIT_OK
    except (ArithmeticError, MemoryError, np.linalg.LinAlgError) as exc:
        # this clause comes first because LinAlgError is a ValueError
        detail = str(exc) or type(exc).__name__  # a bare MemoryError has no message
        print(f"seirv {args.command}: numerical failure: {detail}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, OSError) as exc:
        print(f"seirv {args.command}: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
