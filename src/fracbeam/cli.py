"""Command-line front end: parameter handling, sweep orchestration, CSV/JSON tables.

Every subcommand is a thin wrapper over the library modules; this file holds
no numerics.  Output is a rectangular table preceded by '#'-prefixed
provenance lines (tool version plus a full parameter echo), written with 17
significant digits so repeated runs with the same configuration are
byte-identical and round-trip safely.

Exit codes: 0 success, 1 numerical failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .constitutive import MaterialParams, StrainProgram, complex_modulus, ramp_hold_stress, stress_history_l1, tangent_loss
from .fracode import GridSpec, HarmonicForcing, integrate_linear, integrate_nonlinear
from .modes import ModalCoefficients, TipConfig, build_mode, modal_coefficients, mode_shape_eval, solve_eigen
from .multiscale import MmsParams, critical_alpha, decay_rate, free_envelope, frequency_sweep, scale_coefficients, sensitivity

__all__ = ["RunConfig", "ResultTable", "main"]


@dataclass
class RunConfig:
    """Resolved parameter set for one subcommand run.

    Values are layered: built-in defaults, then config-file entries, then
    explicit command-line flags.
    """

    command: str
    params: dict = field(default_factory=dict)

    def __getitem__(self, key):
        return self.params[key]


@dataclass
class ResultTable:
    """Rectangular numeric output with a provenance header.

    ``rows`` is a list of equal-length numeric rows or a 2-D float array.
    """

    columns: list
    rows: list
    provenance: list = field(default_factory=list)

    @staticmethod
    def _fmt(x) -> str:
        if isinstance(x, (bool, np.bool_)):
            return "1" if x else "0"
        if isinstance(x, (int, np.integer)):
            return str(int(x))
        return format(float(x), ".17g")

    def to_csv(self) -> str:
        # "%.17g" prints ints, bools, nan, inf and -0 exactly as _fmt does
        lines = [f"# {k}={v}" for k, v in self.provenance]
        lines.append(",".join(self.columns))
        values = np.asarray(self.rows, dtype=float)
        if values.size:
            row = ",".join(["%.17g"] * values.shape[1])
            lines.append("\n".join([row] * values.shape[0]) % tuple(values.ravel().tolist()))
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        # Bytes of json.dumps(doc, indent=1) with non-finite cells as null.
        # indent forces json's pure-Python encoder, so the rows go through
        # the C encoder compactly and the indent=1 layout is spliced in; the
        # cells are numbers, so commas and brackets are all separators.
        rows = self.rows.tolist() if isinstance(self.rows, np.ndarray) else self.rows
        head = json.dumps({"provenance": dict(self.provenance), "columns": self.columns,
                           "rows": None}, indent=1)
        body = json.dumps(rows, separators=(",", ":"), default=_json_cell)
        body = body.replace("-Infinity", "null").replace("Infinity", "null").replace("NaN", "null")
        if body != "[]":
            body = ("[\n  [\n   "
                    + body[2:-2].replace(",", ",\n   ").replace("],\n   [", "\n  ],\n  [\n   ")
                    + "\n  ]\n ]")
        return head[:-len("null\n}")] + body + "\n}\n"


def _json_cell(x):
    """numpy scalars and arrays as the Python values json can encode."""
    if isinstance(x, (np.generic, np.ndarray)):
        return x.tolist()
    raise TypeError(f"table cell of type {type(x).__name__} is not numeric")


def _tip_from(cfg: RunConfig) -> TipConfig:
    case = cfg["case"]
    if case == "no-tip":
        return TipConfig(0.0, 0.0)
    if case == "tip-mass":
        return TipConfig(1.0, 1.0)
    if case == "custom":
        m, j = cfg.params.get("M"), cfg.params.get("J")
        if m is None or j is None:
            raise ValueError("--case custom requires --M and --J")
        return TipConfig(m, j)
    raise ValueError(f"unknown case {case!r}")


def _provenance(cfg: RunConfig) -> list:
    out = [("fracbeam", __version__), ("command", cfg.command)]
    for k in sorted(cfg.params):
        v = cfg.params[k]
        if v is None:
            continue
        out.append((k, ResultTable._fmt(v) if not isinstance(v, str) else v))
    return out


def _first_mode(cfg: RunConfig) -> tuple[float, ModalCoefficients]:
    """Eigenvalue and reduction coefficients of the first mode of ``--case``."""
    tip = _tip_from(cfg)
    beta = solve_eigen(tip, 1, cfg["search_max_beta"])[0]
    return beta, modal_coefficients(build_mode(tip, beta))


def _mms_params_for(cfg: RunConfig) -> MmsParams:
    _beta, coeffs = _first_mode(cfg)
    mat = MaterialParams.from_ratio(cfg["er"], cfg["alpha"])
    return scale_coefficients(coeffs, mat, cfg.params.get("f", 0.0))


# ---------------------------------------------------------------- subcommands

def cmd_modes(cfg: RunConfig) -> ResultTable:
    tip = _tip_from(cfg)
    betas = solve_eigen(tip, cfg["n_modes"], cfg["search_max_beta"])
    res = cfg["resolution"]
    s_grid = np.linspace(0.0, 1.0, res) if res > 1 else np.array([1.0])
    rows = []
    for idx, beta in enumerate(betas, start=1):
        mode = build_mode(tip, beta)
        for s in s_grid:
            rows.append([idx, beta, beta**2, s, mode_shape_eval(mode, s, 0)])
    return ResultTable(["mode", "beta", "beta_sq", "s", "phi"], rows, _provenance(cfg))


def cmd_coeffs(cfg: RunConfig) -> ResultTable:
    beta, co = _first_mode(cfg)
    mat = MaterialParams.from_ratio(cfg["er"], cfg["alpha"])
    sc = scale_coefficients(co, mat, cfg["f"])
    cols = ["beta", "beta_sq", "M", "J_nl", "K_l", "C_l", "K_nl", "C_nl", "M_b",
            "omega0", "c_l", "c_nl", "k_nl", "m_nl"]
    row = [beta, beta**2, co.m_modal, co.j_nl, co.k_l, co.c_l, co.k_nl, co.c_nl,
           co.m_b, sc.omega0, sc.c_l, sc.c_nl, sc.k_nl, sc.m_nl]
    return ResultTable(cols, [row], _provenance(cfg))


def cmd_constitutive(cfg: RunConfig) -> ResultTable:
    kind = cfg["kind"]
    mat = MaterialParams(cfg["e_inf"], cfg["e_alpha"], cfg["alpha"])
    if kind == "moduli":
        omegas = np.linspace(cfg["omega_min"], cfg["omega_max"], cfg["count"])
        rows = []
        for w in omegas:
            g1, g2 = complex_modulus(mat, w)
            rows.append([w, g1, g2, tangent_loss(mat, w)])
        return ResultTable(["omega", "storage", "loss", "tan_delta"], rows, _provenance(cfg))
    if kind == "tanloss":
        alphas = np.linspace(cfg["alpha_min"], cfg["alpha_max"], cfg["count"])
        rows = []
        for a in alphas:
            m = MaterialParams(cfg["e_inf"], cfg["e_alpha"], float(a))
            g1, g2 = complex_modulus(m, cfg["omega"])
            rows.append([a, g1, g2, tangent_loss(m, cfg["omega"])])
        return ResultTable(["alpha", "storage", "loss", "tan_delta"], rows, _provenance(cfg))
    if kind == "ramp":
        if not cfg["dt"] > 0:
            raise ValueError(f"--dt must be positive, got {cfg['dt']}")
        if cfg["t_final"] < 0:
            raise ValueError(f"--t-final must be non-negative, got {cfg['t_final']}")
        n = int(round(cfg["t_final"] / cfg["dt"]))
        t = np.arange(n + 1) * cfg["dt"]
        program = StrainProgram.ramp_hold(cfg["rate"], cfg["t_ramp"])
        eps = program.strain(t)
        exact = ramp_hold_stress(mat, cfg["rate"], cfg["t_ramp"], t)
        l1 = stress_history_l1(mat, StrainProgram.sampled(eps, cfg["dt"]))
        return ResultTable(["t", "strain", "stress_exact", "stress_l1"],
                           np.column_stack([t, eps, exact, l1]), _provenance(cfg))
    raise ValueError(f"unknown constitutive kind {kind!r}")


def cmd_simulate(cfg: RunConfig) -> ResultTable:
    grid = GridSpec(cfg["dt"], int(round(cfg["t_final"] / cfg["dt"])))
    if cfg["model"] == "linear":
        forcing = None
        if cfg["force_amp"] != 0.0:
            forcing = HarmonicForcing(cfg["force_amp"], cfg["force_freq"], cfg["force_phase"])
        traj = integrate_linear(cfg["c"], cfg["k"], cfg["er"], cfg["alpha"],
                                cfg["q0"], cfg["v0"], grid, forcing)
    else:
        _beta, coeffs = _first_mode(cfg)
        mat = MaterialParams.from_ratio(cfg["er"], cfg["alpha"])
        base = None
        if cfg["base_amp"] != 0.0:
            base = HarmonicForcing(cfg["base_amp"], cfg["base_freq"], cfg["base_phase"])
        traj = integrate_nonlinear(coeffs, mat, cfg["q0"], cfg["v0"], grid, base)
    return ResultTable(["t", "q", "v", "a"],
                       np.column_stack([traj.t, traj.q, traj.v, traj.a]), _provenance(cfg))


def cmd_envelope(cfg: RunConfig) -> ResultTable:
    params = _mms_params_for(cfg)
    prov = _provenance(cfg)
    prov.append(("decay_rate", ResultTable._fmt(decay_rate(params))))
    prov.append(("sensitivity", ResultTable._fmt(sensitivity(params))))
    t = np.linspace(0.0, cfg["t_final"], cfg["count"])
    amp, phase = free_envelope(params, cfg["a0"], cfg["phi0"], t)
    return ResultTable(["t", "amp", "phase"], np.column_stack([t, amp, phase]), prov)


def cmd_critical_alpha(cfg: RunConfig) -> ResultTable:
    if cfg.params.get("omega0") is not None:
        params = MmsParams(omega0=cfg["omega0"], c_l=cfg["cl"], c_nl=0.0, k_nl=0.0,
                           e_r=cfg["er"], alpha=0.5)
    else:
        params = _mms_params_for(cfg)
    res = critical_alpha(params, cfg["mode"])
    row = [1 if res.found else 0,
           res.alpha_cr if res.alpha_cr is not None else float("nan"),
           res.residual if res.residual is not None else float("nan"),
           1 if res.in_unit_interval else 0,
           res.closed_form,
           params.omega0]
    return ResultTable(["found", "alpha_cr", "residual", "in_unit_interval",
                        "closed_form", "omega0"], [row], _provenance(cfg))


def _sweep_rows(branch) -> list:
    """Fixed-width rows (up to 3 roots), assembled column by column.

    Stability tags are ints 1/0; every unused root cell is NaN.
    """
    n_roots = branch.n_roots
    cols = [branch.deltas.tolist(), n_roots.tolist()]
    for k in range(3):
        tag = branch.stable[:, k].astype(int).astype(object)
        tag[n_roots <= k] = math.nan
        cols += [branch.amp[:, k].tolist(), branch.gamma[:, k].tolist(), tag.tolist()]
    return list(zip(*cols))


def cmd_sweep(cfg: RunConfig) -> ResultTable:
    base = _mms_params_for(cfg)
    var = cfg["var"]
    prov = _provenance(cfg)
    if var == "delta":
        deltas = np.linspace(cfg["min"], cfg["max"], cfg["count"])
        branch = frequency_sweep(base, deltas)
        for b in branch.bifurcations:
            prov.append(("bifurcation_delta", ResultTable._fmt(b)))
        cols = ["delta", "n_roots", "a1", "gamma1", "stable1",
                "a2", "gamma2", "stable2", "a3", "gamma3", "stable3"]
        return ResultTable(cols, _sweep_rows(branch), prov)

    if var not in ("alpha", "er", "f"):
        raise ValueError(f"unknown sweep variable {var!r}")
    values = np.linspace(cfg["min"], cfg["max"], cfg["count"])
    deltas = np.linspace(cfg["delta_min"], cfg["delta_max"], cfg["delta_count"])
    rows = []
    for val in values:
        override = {"alpha": None, "er": None, "f": None}
        override[var] = float(val)
        branch = frequency_sweep(base, deltas, alpha=override["alpha"],
                                 e_r=override["er"], f=override["f"])
        amps = branch.amp[~np.isnan(branch.amp)]
        if not amps.size:
            raise ValueError(f"no steady-state root on the detuning grid at {var}={val}")
        peak = float(amps.max())
        bifs = branch.bifurcations
        lo = bifs[0] if bifs else float("nan")
        hi = bifs[-1] if len(bifs) >= 2 else float("nan")
        width = hi - lo if len(bifs) >= 2 else 0.0
        rows.append([val, peak, len(bifs), lo, hi, width])
    cols = [var, "peak_amp", "n_bifurcations", "bif_lo", "bif_hi", "three_root_width"]
    return ResultTable(cols, rows, prov)


# ---------------------------------------------------------------- plumbing

_COMMANDS = {
    "modes": cmd_modes,
    "coeffs": cmd_coeffs,
    "constitutive": cmd_constitutive,
    "simulate": cmd_simulate,
    "envelope": cmd_envelope,
    "critical-alpha": cmd_critical_alpha,
    "sweep": cmd_sweep,
}

# name -> (type, default, help); defaults are echoed in provenance
_SPECS: dict[str, dict] = {
    "modes": {
        "case": (str, "no-tip", "no-tip | tip-mass | custom"),
        "M": (float, None, "tip mass for --case custom"),
        "J": (float, None, "tip rotatory inertia for --case custom"),
        "n_modes": (int, 1, "number of eigenvalues"),
        "resolution": (int, 11, "shape sample count over s in [0,1]"),
        "search_max_beta": (float, 20.0, "upper end of the eigenvalue search"),
    },
    "coeffs": {
        "case": (str, "no-tip", "no-tip | tip-mass | custom"),
        "M": (float, None, ""), "J": (float, None, ""),
        "er": (float, 1.0, "modulus ratio E_alpha/E_inf"),
        "alpha": (float, 0.5, "fractional order"),
        "f": (float, 0.0, "effective forcing amplitude"),
        "search_max_beta": (float, 20.0, ""),
    },
    "constitutive": {
        "kind": (str, "moduli", "moduli | tanloss | ramp"),
        "e_inf": (float, 1.0, ""), "e_alpha": (float, 1.0, ""),
        "alpha": (float, 0.5, ""),
        "omega": (float, 1.0, "frequency for kind=tanloss"),
        "omega_min": (float, 0.1, ""), "omega_max": (float, 10.0, ""),
        "alpha_min": (float, 0.05, ""), "alpha_max": (float, 0.95, ""),
        "count": (int, 100, "sweep point count"),
        "rate": (float, 1.0 / 24.0, "ramp strain rate"),
        "t_ramp": (float, 2.5, "hold onset time"),
        "t_final": (float, 6.0, ""), "dt": (float, 1e-3, ""),
    },
    "simulate": {
        "model": (str, "linear", "linear | nonlinear"),
        "case": (str, "no-tip", ""), "M": (float, None, ""), "J": (float, None, ""),
        "k": (float, 1.24, "linear stiffness rate"),
        "c": (float, 1.24, "linear fractional-damping rate"),
        "er": (float, 1.0, ""), "alpha": (float, 0.5, ""),
        "q0": (float, 1.0, ""), "v0": (float, 0.0, ""),
        "dt": (float, 1e-3, ""), "t_final": (float, 200.0, ""),
        "force_amp": (float, 0.0, "harmonic forcing amplitude (linear model)"),
        "force_freq": (float, 0.0, ""), "force_phase": (float, 0.0, ""),
        "base_amp": (float, 0.0, "base acceleration amplitude (nonlinear model)"),
        "base_freq": (float, 0.0, ""), "base_phase": (float, 0.0, ""),
        "search_max_beta": (float, 20.0, ""),
    },
    "envelope": {
        "case": (str, "no-tip", ""), "M": (float, None, ""), "J": (float, None, ""),
        "er": (float, 0.1, ""), "alpha": (float, 0.5, ""),
        "a0": (float, 1.0, "initial amplitude"), "phi0": (float, 0.0, ""),
        "t_final": (float, 100.0, ""), "count": (int, 501, ""),
        "search_max_beta": (float, 20.0, ""),
    },
    "critical-alpha": {
        "mode": (str, "decay-peak", "decay-peak | sensitivity-extremum"),
        "case": (str, "no-tip", ""), "M": (float, None, ""), "J": (float, None, ""),
        "omega0": (float, None, "explicit natural frequency (overrides --case)"),
        "cl": (float, 1.0, "damping rate used with --omega0"),
        "er": (float, 1.0, ""), "alpha": (float, 0.5, ""),
        "search_max_beta": (float, 20.0, ""),
    },
    "sweep": {
        "var": (str, "delta", "delta | alpha | er | f"),
        "min": (float, -2.0, "sweep range start"),
        "max": (float, 4.0, "sweep range end"),
        "count": (int, 601, "sweep point count"),
        "case": (str, "no-tip", ""), "M": (float, None, ""), "J": (float, None, ""),
        "alpha": (float, 0.4, ""), "er": (float, 0.3, ""), "f": (float, 1.0, ""),
        "delta_min": (float, -2.0, "inner detuning grid (non-delta sweeps)"),
        "delta_max": (float, 4.0, ""), "delta_count": (int, 601, ""),
        "search_max_beta": (float, 20.0, ""),
    },
}


def _read_config_file(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return json.loads(text)
    out = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"bad config line (want key=value): {line!r}")
        key, _, val = line.partition("=")
        out[key.strip()] = val.strip()
    return out


def _check_domain(cfg: RunConfig) -> None:
    """Reject a non-finite float flag or an empty grid, naming the flag."""
    for name, (typ, _default, _help) in _SPECS[cfg.command].items():
        value, flag = cfg[name], f"--{name.replace('_', '-')}"
        if typ is float and value is not None and not math.isfinite(value):
            raise ValueError(f"{flag} must be finite, got {value}")
        if name in ("count", "delta_count") and value < 1:
            raise ValueError(f"{flag} must be positive, got {value}")


def _config_value(typ, raw):
    """A config-file value converted by the rule its flag follows.

    A string (every value of a key=value file) goes through ``typ`` as a flag
    does.  A JSON number stands for a float field, and for an int field when
    it is integral; a bool, a null or any other JSON value is rejected.
    """
    if isinstance(raw, str):
        return typ(raw)
    if (typ is str or isinstance(raw, bool) or not isinstance(raw, (int, float))
            or (typ is int and not float(raw).is_integer())):
        raise ValueError(f"invalid {typ.__name__} value: {json.dumps(raw)}")
    return typ(raw)


def _resolve_config(parser: argparse.ArgumentParser, args: argparse.Namespace) -> RunConfig:
    command = args.command
    spec = _SPECS[command]
    file_values = _read_config_file(args.config) if args.config else {}
    for key in file_values:
        if key not in spec:
            parser.error(f"unknown key {key!r} in --config file for command {command!r}")
    params = {}
    for name, (typ, default, _help) in spec.items():
        flag_val = getattr(args, name.replace("-", "_"), None)
        if flag_val is not None:
            params[name] = flag_val
        elif name in file_values:
            try:
                params[name] = _config_value(typ, file_values[name])
            except (ValueError, OverflowError) as exc:
                parser.error(f"bad value for key {name!r} in --config file for command "
                             f"{command!r}: {exc}")
        else:
            params[name] = default
    return RunConfig(command=command, params=params)


def build_parser() -> argparse.ArgumentParser:
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
        for key, (typ, default, help_text) in spec.items():
            p.add_argument(f"--{key.replace('_', '-')}", dest=key.replace("-", "_"),
                           type=typ, default=None,
                           help=f"{help_text} (default {default})" if help_text
                           else f"(default {default})")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _resolve_config(parser, args)
        _check_domain(cfg)
        table = _COMMANDS[args.command](cfg)
        text = table.to_json() if args.format == "json" else table.to_csv()
        if args.output:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except (ValueError, ArithmeticError, RuntimeError, OSError) as exc:
        print(f"fracbeam: error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
