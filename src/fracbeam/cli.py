"""Command-line front end: parameter handling, sweep orchestration, CSV/JSON tables.

Every subcommand is a thin wrapper over the library modules; this file holds
no numerics.  Output is a rectangular table preceded by '#'-prefixed
provenance lines (tool version plus a full parameter echo).  CSV cells carry
17 significant digits; JSON cells are the shortest round-trip repr, or int text
in the integer columns a command names.  Both are printed by ``g17`` over
whole-array chunks, which leaves a cell to Python's ``%`` or ``repr`` only near
a rounding tie or round-trip boundary, for a power of two (JSON), where log10
misjudges the decade and for |x| outside [1e-279, 1e280).  Repeated runs with
the same configuration are byte-identical and every finite value reads back
exactly.

Exit codes: 0 success, 1 numerical or output failure, 2 usage or domain error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import __version__, g17
from .constitutive import MaterialParams, StrainProgram, complex_modulus, ramp_hold_stress, stress_history_l1, tangent_loss
from .fracode import GridSpec, HarmonicForcing, integrate_linear, integrate_nonlinear
from .modes import ModalCoefficients, TipConfig, build_mode, modal_coefficients, mode_shape_eval, solve_eigen
from .multiscale import MmsParams, critical_alpha, decay_rate, free_envelope, frequency_sweep, scale_coefficients, sensitivity

__all__ = ["ResultTable", "main"]


@dataclass
class ResultTable:
    """Rectangular numeric output with a provenance header.

    ``provenance`` lists (key, value) pairs, each value text or a number that
    is printed as a cell is (``_fmt``).  ``rows`` is a list of equal-length
    numeric rows or a 2-D float array, and ``values`` holds the same cells as
    one float array.  ``ints`` names the integer columns (counts and 0/1
    tags): their cells are integers below 2^53 in magnitude, or NaN.
    ``absent`` maps a column to ``(count column, k)``:
    in rows whose count is at most k the column holds NaN for a value that
    does not exist (a root past ``n_roots``, a fold the sweep did not cross,
    an order not found).

    ``to_csv`` prints each cell as ``'%.17g' % x`` (``nan``, ``inf``, ``-inf``
    and ``-0`` included).  ``to_json`` prints the bytes of
    ``json.dumps(doc, indent=1)`` with ``int(x)`` in an integer column,
    Python's shortest round-trip ``repr(x)`` elsewhere and ``null`` for a
    non-finite cell.  Both write whole-array chunks through ``g17``, which
    hands a cell to Python's own formatting only near a rounding tie or a
    round-trip boundary, for a power of two (JSON), where log10 misjudges the
    decade and for |x| outside [1e-279, 1e280).
    """

    columns: list
    rows: list
    provenance: list = field(default_factory=list)
    absent: dict = field(default_factory=dict)
    ints: tuple = ()
    values: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.values = np.asarray(self.rows, dtype=float).reshape(len(self.rows), len(self.columns))

    @staticmethod
    def _fmt(x) -> str:
        if isinstance(x, (bool, np.bool_)):
            return "1" if x else "0"
        if isinstance(x, (int, np.integer)):
            return str(int(x))
        return format(float(x), ".17g")

    def check_finite(self) -> None:
        """Raise ``FloatingPointError`` at the first non-finite number of the table.

        Provenance numbers come first, then the cells not marked absent.
        """
        for key, value in self.provenance:
            if not isinstance(value, str) and not math.isfinite(value):
                raise FloatingPointError(f"non-finite {key} = {value} in the provenance")
        values = self.values
        ok = np.isfinite(values)
        for col, (count, k) in self.absent.items():
            ok[:, self.columns.index(col)] |= values[:, self.columns.index(count)] <= k
        if not ok.all():
            i, j = np.argwhere(~ok)[0]
            raise FloatingPointError(f"non-finite {self.columns[j]} = {values[i, j]} "
                                     f"in table row {i + 1}")

    def _header(self) -> list:
        return [(k, v if isinstance(v, str) else self._fmt(v)) for k, v in self.provenance]

    def to_csv(self) -> str:
        lines = [f"# {k}={v}" for k, v in self._header()]
        lines.append(",".join(self.columns))
        return "".join(["\n".join(lines) + "\n", *g17.csv_chunks(self.values)])

    def to_json(self) -> str:
        is_int = np.isin(self.columns, self.ints)
        cells = self.values[:, is_int]
        cells = cells[np.isfinite(cells)]
        if not np.all((np.abs(cells) < 2**53) & (cells == np.trunc(cells))):
            raise TypeError(f"integer columns {self.ints} hold a value that is not "
                            "an integer below 2^53")
        head = json.dumps({"provenance": dict(self._header()), "columns": self.columns,
                           "rows": None}, indent=1)[:-len("null\n}")]
        body = list(g17.json_chunks(self.values, is_int))
        if not body:
            return head + "[]\n}\n"
        return "".join([head, "[\n  [\n   ", *body, "\n  ]\n ]\n}\n"])


def _tip_from(cfg: dict) -> TipConfig:
    if cfg["case"] == "custom":
        if cfg["M"] is None or cfg["J"] is None:
            raise ValueError("--case custom requires --M and --J")
        return TipConfig(cfg["M"], cfg["J"])
    return TipConfig(1.0, 1.0) if cfg["case"] == "tip-mass" else TipConfig(0.0, 0.0)


def _provenance(command: str, cfg: dict) -> list:
    return [("fracbeam", __version__), ("command", command)] + [
        (k, v) for k, v in sorted(cfg.items()) if v is not None]


def _first_mode(cfg: dict) -> tuple[float, ModalCoefficients]:
    """Eigenvalue and reduction coefficients of the first mode of ``--case``."""
    tip = _tip_from(cfg)
    beta = solve_eigen(tip, 1, cfg["search_max_beta"])[0]
    return beta, modal_coefficients(build_mode(tip, beta))


def _mms_params_for(cfg: dict) -> MmsParams:
    _beta, coeffs = _first_mode(cfg)
    mat = MaterialParams.from_ratio(cfg["er"], cfg["alpha"])
    return scale_coefficients(coeffs, mat, cfg.get("f", 0.0))


# ---------------------------------------------------------------- subcommands
# Each returns its table with only the provenance it computed; main prepends
# the parameter echo.

def cmd_modes(cfg: dict) -> ResultTable:
    tip = _tip_from(cfg)
    betas = solve_eigen(tip, cfg["n_modes"], cfg["search_max_beta"])
    res = cfg["resolution"]
    s_grid = np.linspace(0.0, 1.0, res) if res > 1 else np.array([1.0])
    phi = [mode_shape_eval(build_mode(tip, beta), s_grid, 0) for beta in betas]
    # one block of rows per mode
    n, k = len(s_grid), len(betas)
    cols = [np.repeat(np.arange(1, k + 1), n), np.repeat(betas, n),
            np.repeat([beta**2 for beta in betas], n), np.tile(s_grid, k), np.concatenate(phi)]
    return ResultTable(["mode", "beta", "beta_sq", "s", "phi"], np.column_stack(cols),
                       ints=("mode",))


def cmd_coeffs(cfg: dict) -> ResultTable:
    beta, co = _first_mode(cfg)
    sc = scale_coefficients(co, MaterialParams.from_ratio(cfg["er"], cfg["alpha"]), cfg["f"])
    cols = ["beta", "beta_sq", "M", "J_nl", "K_l", "C_l", "K_nl", "C_nl", "M_b",
            "omega0", "c_l", "c_nl", "k_nl", "m_nl"]
    row = [beta, beta**2, co.m_modal, co.j_nl, co.k_l, co.c_l, co.k_nl, co.c_nl,
           co.m_b, sc.omega0, sc.c_l, sc.c_nl, sc.k_nl, sc.m_nl]
    return ResultTable(cols, [row])


def cmd_constitutive(cfg: dict) -> ResultTable:
    kind = cfg["kind"]
    mat = MaterialParams(cfg["e_inf"], cfg["e_alpha"], cfg["alpha"])
    if kind == "moduli":
        x = omega = np.linspace(cfg["omega_min"], cfg["omega_max"], cfg["count"])
    elif kind == "tanloss":
        # one material over the grid of orders, at one omega
        x, omega = np.linspace(cfg["alpha_min"], cfg["alpha_max"], cfg["count"]), cfg["omega"]
        mat = MaterialParams(cfg["e_inf"], cfg["e_alpha"], x)
    if kind != "ramp":
        storage, loss = complex_modulus(mat, omega)
        return ResultTable(["omega" if kind == "moduli" else "alpha", "storage", "loss", "tan_delta"],
                           np.column_stack([x, storage, loss, tangent_loss(mat, omega)]))
    n = int(round(cfg["t_final"] / cfg["dt"]))
    t = np.arange(n + 1) * cfg["dt"]
    eps = StrainProgram.ramp_hold(cfg["rate"], cfg["t_ramp"]).strain(t)
    exact = ramp_hold_stress(mat, cfg["rate"], cfg["t_ramp"], t)
    l1 = stress_history_l1(mat, StrainProgram.sampled(eps, cfg["dt"]))
    return ResultTable(["t", "strain", "stress_exact", "stress_l1"],
                       np.column_stack([t, eps, exact, l1]))


def cmd_simulate(cfg: dict) -> ResultTable:
    grid = GridSpec(cfg["dt"], int(round(cfg["t_final"] / cfg["dt"])))
    if cfg["model"] == "linear":
        forcing = (HarmonicForcing(cfg["force_amp"], cfg["force_freq"], cfg["force_phase"])
                   if cfg["force_amp"] != 0.0 else None)
        traj = integrate_linear(cfg["c"], cfg["k"], cfg["er"], cfg["alpha"],
                                cfg["q0"], cfg["v0"], grid, forcing)
    else:
        _beta, coeffs = _first_mode(cfg)
        mat = MaterialParams.from_ratio(cfg["er"], cfg["alpha"])
        base = (HarmonicForcing(cfg["base_amp"], cfg["base_freq"], cfg["base_phase"])
                if cfg["base_amp"] != 0.0 else None)
        traj = integrate_nonlinear(coeffs, mat, cfg["q0"], cfg["v0"], grid, base)
    return ResultTable(["t", "q", "v", "a"],
                       np.column_stack([traj.t, traj.q, traj.v, traj.a]))


def cmd_envelope(cfg: dict) -> ResultTable:
    params = _mms_params_for(cfg)
    prov = [("decay_rate", decay_rate(params)), ("sensitivity", sensitivity(params))]
    t = np.linspace(0.0, cfg["t_final"], cfg["count"])
    amp, phase = free_envelope(params, cfg["a0"], cfg["phi0"], t)
    return ResultTable(["t", "amp", "phase"], np.column_stack([t, amp, phase]), prov)


def cmd_critical_alpha(cfg: dict) -> ResultTable:
    if cfg["omega0"] is not None:
        params = MmsParams(omega0=cfg["omega0"], c_l=cfg["cl"], c_nl=0.0, k_nl=0.0,
                           e_r=cfg["er"], alpha=0.5)
    else:
        params = _mms_params_for(cfg)
    res = critical_alpha(params, cfg["mode"])
    row = [int(res.found), math.nan if res.alpha_cr is None else res.alpha_cr,
           math.nan if res.residual is None else res.residual, int(res.in_unit_interval),
           res.closed_form, params.omega0]
    return ResultTable(["found", "alpha_cr", "residual", "in_unit_interval",
                        "closed_form", "omega0"], [row],
                       absent={"alpha_cr": ("found", 0), "residual": ("found", 0)},
                       ints=("found", "in_unit_interval"))


def _sweep_values(branch) -> np.ndarray:
    """Fixed-width rows (up to 3 roots) as one float array.

    Stability tags are 1/0; every unused root cell is NaN.
    """
    n_roots = branch.n_roots
    cols = [branch.deltas, n_roots]
    for k in range(3):
        cols += [branch.amp[:, k], branch.gamma[:, k],
                 np.where(n_roots <= k, math.nan, branch.stable[:, k])]
    return np.column_stack(cols)


def cmd_sweep(cfg: dict) -> ResultTable:
    base = _mms_params_for(cfg)
    var = cfg["var"]
    if var == "delta":
        deltas = np.linspace(cfg["min"], cfg["max"], cfg["count"])
        branch = frequency_sweep(base, deltas)
        prov = [("bifurcation_delta", b) for b in branch.bifurcations]
        cols = ["delta", "n_roots", "a1", "gamma1", "stable1",
                "a2", "gamma2", "stable2", "a3", "gamma3", "stable3"]
        return ResultTable(cols, _sweep_values(branch), prov,
                           {col: ("n_roots", int(col[-1]) - 1) for col in cols[2:]},
                           ("n_roots", "stable1", "stable2", "stable3"))

    values = np.linspace(cfg["min"], cfg["max"], cfg["count"])
    deltas = np.linspace(cfg["delta_min"], cfg["delta_max"], cfg["delta_count"])
    rows = []
    for val in values:
        # the swept parameter overrides its value in base; --er is frequency_sweep's e_r
        branch = frequency_sweep(base, deltas, **{"e_r" if var == "er" else var: float(val)})
        amps = branch.amp[~np.isnan(branch.amp)]
        if not amps.size:
            raise RuntimeError(f"no steady-state root on the detuning grid at {var}={val}")
        peak = float(amps.max())
        bifs = branch.bifurcations
        # a descending inner grid lists its folds from the top down
        lo = min(bifs) if bifs else float("nan")
        hi = max(bifs) if len(bifs) >= 2 else float("nan")
        width = hi - lo if len(bifs) >= 2 else 0.0
        rows.append([val, peak, len(bifs), lo, hi, width])
    cols = [var, "peak_amp", "n_bifurcations", "bif_lo", "bif_hi", "three_root_width"]
    return ResultTable(cols, rows,
                       absent={"bif_lo": ("n_bifurcations", 0), "bif_hi": ("n_bifurcations", 1)},
                       ints=("n_bifurcations",))


# ---------------------------------------------------------------- plumbing

_COMMANDS = {"modes": cmd_modes, "coeffs": cmd_coeffs, "constitutive": cmd_constitutive,
             "simulate": cmd_simulate, "envelope": cmd_envelope,
             "critical-alpha": cmd_critical_alpha, "sweep": cmd_sweep}


class _Flag(NamedTuple):
    # an enumerated flag lists its choices; a grid flag counts points, so is at least 1;
    # by_var replaces the default for the --var values it names
    type: type
    default: object
    help: str = ""
    choices: tuple = ()
    grid: bool = False
    by_var: dict = {}


# the first mode of the cantilever, for every command that needs one
_BEAM = {
    "case": _Flag(str, "no-tip", "tip configuration; tip-mass has unit tip mass and inertia",
                  ("no-tip", "tip-mass", "custom")),
    "M": _Flag(float, None, "tip mass for --case custom"),
    "J": _Flag(float, None, "tip rotatory inertia for --case custom"),
    "search_max_beta": _Flag(float, 20.0, "upper end of the eigenvalue search"),
}

_SPECS: dict[str, dict] = {
    "modes": {
        **_BEAM,
        "n_modes": _Flag(int, 1, "number of eigenvalues"),
        "resolution": _Flag(int, 11, "shape sample count over s in [0,1]", grid=True),
    },
    "coeffs": {
        **_BEAM,
        "er": _Flag(float, 1.0, "modulus ratio E_alpha/E_inf"),
        "alpha": _Flag(float, 0.5, "fractional order"),
        "f": _Flag(float, 0.0, "effective forcing amplitude"),
    },
    "constitutive": {
        "kind": _Flag(str, "moduli", "", ("moduli", "tanloss", "ramp")),
        "e_inf": _Flag(float, 1.0), "e_alpha": _Flag(float, 1.0), "alpha": _Flag(float, 0.5),
        "omega": _Flag(float, 1.0, "frequency for kind=tanloss"),
        "omega_min": _Flag(float, 0.1), "omega_max": _Flag(float, 10.0),
        "alpha_min": _Flag(float, 0.05), "alpha_max": _Flag(float, 0.95),
        "count": _Flag(int, 100, "sweep point count", grid=True),
        "rate": _Flag(float, 1.0 / 24.0, "ramp strain rate"),
        "t_ramp": _Flag(float, 2.5, "hold onset time"),
        "t_final": _Flag(float, 6.0), "dt": _Flag(float, 1e-3),
    },
    "simulate": {
        **_BEAM,
        "model": _Flag(str, "linear", "", ("linear", "nonlinear")),
        "k": _Flag(float, 1.24, "linear stiffness rate"),
        "c": _Flag(float, 1.24, "linear fractional-damping rate"),
        "er": _Flag(float, 1.0), "alpha": _Flag(float, 0.5), "q0": _Flag(float, 1.0),
        "v0": _Flag(float, 0.0), "dt": _Flag(float, 1e-3), "t_final": _Flag(float, 200.0),
        "force_amp": _Flag(float, 0.0, "harmonic forcing amplitude (linear model)"),
        "force_freq": _Flag(float, 0.0), "force_phase": _Flag(float, 0.0),
        "base_amp": _Flag(float, 0.0, "base acceleration amplitude (nonlinear model)"),
        "base_freq": _Flag(float, 0.0), "base_phase": _Flag(float, 0.0),
    },
    "envelope": {
        **_BEAM,
        "er": _Flag(float, 0.1), "alpha": _Flag(float, 0.5), "phi0": _Flag(float, 0.0),
        "a0": _Flag(float, 1.0, "initial amplitude"), "t_final": _Flag(float, 100.0),
        "count": _Flag(int, 501, "", grid=True),
    },
    "critical-alpha": {
        **_BEAM,
        "mode": _Flag(str, "decay-peak", "", ("decay-peak", "sensitivity-extremum")),
        "omega0": _Flag(float, None, "explicit natural frequency (overrides --case)"),
        "cl": _Flag(float, 1.0, "damping rate used with --omega0"),
        "er": _Flag(float, 1.0), "alpha": _Flag(float, 0.5),
    },
    "sweep": {
        **_BEAM,
        "var": _Flag(str, "delta", "", ("delta", "alpha", "er", "f")),
        # the detuning range, or one inside the swept parameter's domain
        "min": _Flag(float, -2.0, "sweep range start", by_var={"alpha": 0.1, "er": 0.05, "f": 0.1}),
        "max": _Flag(float, 4.0, "sweep range end", by_var={"alpha": 1.0, "er": 1.0, "f": 2.0}),
        "count": _Flag(int, 601, "sweep point count", grid=True),
        "alpha": _Flag(float, 0.4), "er": _Flag(float, 0.3), "f": _Flag(float, 1.0),
        "delta_min": _Flag(float, -2.0, "inner detuning grid (non-delta sweeps)"),
        "delta_max": _Flag(float, 4.0), "delta_count": _Flag(int, 601, "", grid=True),
    },
}


def _option(name: str) -> str:
    return f"--{name.replace('_', '-')}"


def _read_config_file(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if text.lstrip().startswith("{"):
        return json.loads(text)
    out = {}
    for line in map(str.strip, text.splitlines()):
        if line and not line.startswith("#"):
            if "=" not in line:
                raise ValueError(f"bad config line (want key=value): {line!r}")
            key, _, val = line.partition("=")
            out[key.strip()] = val.strip()
    return out


def _config_value(flag: _Flag, raw):
    """A config-file value converted and checked as its flag would be.

    A string (every value of a key=value file) goes through the flag's type.
    A JSON number stands for a float field, and for an int field when it is
    integral; a bool, a null or any other JSON value is rejected.
    """
    if not isinstance(raw, str) and (
            flag.type is str or isinstance(raw, bool) or not isinstance(raw, (int, float))
            or (flag.type is int and not float(raw).is_integer())):
        raise ValueError(f"invalid {flag.type.__name__} value: {json.dumps(raw)}")
    value = flag.type(raw)
    if flag.choices and value not in flag.choices:
        raise ValueError(f"invalid choice: {value!r} "
                         f"(choose from {', '.join(map(repr, flag.choices))})")
    return value


def _resolve_config(parser: argparse.ArgumentParser, args: argparse.Namespace) -> dict:
    """Each flag's value: from the command line, else the config file, else its default."""
    command = args.command
    spec = _SPECS[command]
    file_values = _read_config_file(args.config) if args.config else {}
    for key in file_values:
        if key not in spec:
            parser.error(f"unknown key {key!r} in --config file for command {command!r}")
    cfg = {}
    for name, flag in spec.items():
        if getattr(args, name) is not None:
            cfg[name] = getattr(args, name)
        elif name in file_values:
            try:
                cfg[name] = _config_value(flag, file_values[name])
            except (ValueError, OverflowError) as exc:
                parser.error(f"bad value for key {name!r} in --config file for command "
                             f"{command!r}: {exc}")
        else:
            # --var comes before the flags whose default depends on it
            cfg[name] = flag.by_var.get(cfg.get("var"), flag.default)
    return cfg


def _check_domain(command: str, cfg: dict) -> None:
    """The domain rules of the CLI itself, checked before any work, naming the flag.

    Every float is finite and every grid has a point.  Where the CLI divides
    the run time by ``dt`` (simulate, the constitutive ramp), dt is positive,
    t_final non-negative and their ratio a step count.  Ranges the library
    enforces (alpha, e_r, n_modes, the tip inertias, a0, ...) are left to it.
    """
    for name, flag in _SPECS[command].items():
        value = cfg[name]
        if flag.type is float and value is not None and not math.isfinite(value):
            raise ValueError(f"{_option(name)} must be finite, got {value}")
        if flag.grid and value < 1:
            raise ValueError(f"{_option(name)} must be positive, got {value}")
    if command == "simulate" or cfg.get("kind") == "ramp":
        if not cfg["dt"] > 0:
            raise ValueError(f"--dt must be positive, got {cfg['dt']}")
        if cfg["t_final"] < 0:
            raise ValueError(f"--t-final must be non-negative, got {cfg['t_final']}")
        # the step count must be an array length (this also rejects an inf ratio)
        if not cfg["t_final"] / cfg["dt"] < sys.maxsize:
            raise ValueError(f"--t-final / --dt = {cfg['t_final']} / {cfg['dt']} "
                             "is too large for a step count")


def _default_text(flag: _Flag) -> str:
    by_var = ", ".join(f"{var} {value}" for var, value in flag.by_var.items())
    return f"{flag.default}; by --var: {by_var}" if by_var else str(flag.default)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built on first use and then shared.

    Every flag defaults to None and ``parse_args`` returns a new namespace,
    so no value carries over from one ``main`` call to the next.
    """
    parser = argparse.ArgumentParser(
        prog="fracbeam",
        description="Fractional Kelvin-Voigt cantilever toolkit: modes, "
                    "constitutive response, fractional time integration, "
                    "slow-flow frequency response.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, spec in _SPECS.items():
        p = sub.add_parser(name, help=f"{name} table")
        p.add_argument("--config", default=None, help="key=value or JSON config file")
        p.add_argument("--output", default=None, help="output path (default stdout)")
        p.add_argument("--format", default="csv", choices=("csv", "json"))
        for key, flag in spec.items():
            p.add_argument(_option(key), dest=key, type=flag.type, default=None,
                           choices=flag.choices or None,
                           help=f"{flag.help} (default {_default_text(flag)})".lstrip())
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _resolve_config(parser, args)
        _check_domain(args.command, cfg)
        table = _COMMANDS[args.command](cfg)
        table.provenance[:0] = _provenance(args.command, cfg)
        table.check_finite()
        text = table.to_json() if args.format == "json" else table.to_csv()
        if args.output:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except (ValueError, ArithmeticError, RuntimeError, OSError, MemoryError) as exc:
        # a ValueError is a domain error; the rest are numerical, memory or I/O failures
        print(f"fracbeam: error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ValueError) else 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
