"""Untimed correctness checks for every benchmark job's output table.

Each check reads the table a job wrote and tests it against formulas restated
here from the paper, never against the library's own kernels, so the checks
still hold when a later version swaps a fast path in:

* ``simulate``: the L1 history is recomputed from the table's own ``q``
  column with a direct ``np.convolve`` sum; the discrete equation of motion
  and the Newmark average-acceleration relations must hold on every row.
* ``sweep``: every root solves the slow-flow steady-state cubic (the cubic of
  ``multiscale.steady_state_cubic``) and the root count agrees with the sign
  of its discriminant; nested sweeps are re-solved over their inner grid.
* ``modes`` / ``coeffs``: beta^2 = 3.51602 (no tip) and 1.38569 (tip mass),
  the published coefficient tables, and the textbook characteristic equation.
* ``constitutive``: closed-form moduli; the L1 ramp stress tracks the exact one.
* ``envelope`` / ``critical-alpha``: closed forms of the slow flow.

Any non-finite number fails a job, except the documented NaN padding of the
unused root columns of ``sweep --var delta``.
"""

from __future__ import annotations

import json
import math

import numpy as np

# published reference values (beta_1^2 and the coefficient tables)
BETA_SQ = {"no-tip": 3.51602, "tip-mass": 1.38569}
COEFF_REF = {
    "no-tip": {"M": 1.0, "K_l": 12.3624, "K_nl": 20.2203, "M_b": 0.782992},
    "tip-mass": {"K_l": 98.1058, "K_nl": 2979.66, "J_nl": 5008.25},
}
TIPS = {"no-tip": (0.0, 0.0), "tip-mass": (1.0, 1.0)}

COLUMNS = {
    "simulate": ["t", "q", "v", "a"],
    "ramp": ["t", "strain", "stress_exact", "stress_l1"],
    "moduli": ["omega", "storage", "loss", "tan_delta"],
    "tanloss": ["alpha", "storage", "loss", "tan_delta"],
    "modes": ["mode", "beta", "beta_sq", "s", "phi"],
    "coeffs": ["beta", "beta_sq", "M", "J_nl", "K_l", "C_l", "K_nl", "C_nl", "M_b",
               "omega0", "c_l", "c_nl", "k_nl", "m_nl"],
    "envelope": ["t", "amp", "phase"],
    "critical-alpha": ["found", "alpha_cr", "residual", "in_unit_interval",
                       "closed_form", "omega0"],
    "delta": ["delta", "n_roots", "a1", "gamma1", "stable1",
              "a2", "gamma2", "stable2", "a3", "gamma3", "stable3"],
}


class OracleError(Exception):
    """The table contradicts the oracle."""


class Table:
    def __init__(self, provenance, columns, data):
        self.provenance = provenance      # list of (key, value) strings
        self.columns = columns
        self.data = data                  # float array, NaN where the file had NaN/null

    def col(self, name):
        return self.data[:, self.columns.index(name)]

    def prov(self, key):
        return [v for k, v in self.provenance if k == key]


def read_table(text: str, fmt: str) -> Table:
    if fmt == "json":
        doc = json.loads(text)
        prov = [(k, str(v)) for k, v in doc["provenance"].items()]
        rows = [[math.nan if x is None else float(x) for x in row] for row in doc["rows"]]
        columns = doc["columns"]
    else:
        lines = text.splitlines()
        prov = [tuple(l[2:].split("=", 1)) for l in lines if l.startswith("# ")]
        body = [l for l in lines if not l.startswith("#")]
        columns = body[0].split(",")
        rows = [[float(x) for x in l.split(",")] for l in body[1:]]
    data = np.array(rows, dtype=float).reshape(len(rows), len(columns))
    for key, val in prov:
        try:
            x = float(val)
        except ValueError:
            continue
        if not math.isfinite(x):
            raise OracleError(f"non-finite provenance value {key}={val}")
    return Table(prov, columns, data)


def _expect(cond, message):
    if not cond:
        raise OracleError(message)


def _close(got, want, rtol, what, atol=0.0):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    err = np.abs(got - want)
    bad = err > atol + rtol * np.abs(want)
    if np.any(bad):
        i = int(np.argmax(err - rtol * np.abs(want)))
        raise OracleError(f"{what}: got {got.flat[i]!r}, want {want.flat[i]!r}")


def _finite(data, what="table"):
    _expect(bool(np.all(np.isfinite(data))), f"non-finite value in {what}")


def _relative(resid, scale, tol, what):
    if np.size(resid) == 0:
        return
    worst = float(np.max(np.abs(resid) / scale))
    _expect(worst <= tol, f"{what}: worst relative residual {worst:.3e} > {tol:.0e}")


# ------------------------------------------------------------ fractional calculus

def l1_history(x, dt, alpha):
    """Caputo L1 derivative of samples x at every node, by the direct sum."""
    n = len(x) - 1
    j = np.arange(n + 1, dtype=float)
    b = np.diff(j ** (1.0 - alpha))
    out = np.zeros(n + 1)
    out[1:] = np.convolve(np.diff(x), b)[:n] * dt ** (-alpha) / math.gamma(2.0 - alpha)
    return out


def _newmark(t, q, v, a, dt):
    """Average-acceleration Newmark relations between consecutive rows."""
    a_sum = a[:-1] + a[1:]
    dq = q[1:] - q[:-1] - dt * v[:-1] - 0.25 * dt * dt * a_sum
    dv = v[1:] - v[:-1] - 0.5 * dt * a_sum
    q_scale = np.max(np.abs(q)) + dt * np.max(np.abs(v)) + dt * dt * np.max(np.abs(a))
    v_scale = np.max(np.abs(v)) + dt * np.max(np.abs(a))
    _relative(dq, q_scale, 1e-10, "Newmark displacement relation")
    _relative(dv, v_scale, 1e-10, "Newmark velocity relation")


def check_simulate(p, tab, coeffs):
    dt = p["dt"]
    n = int(round(p["t_final"] / dt))
    _expect(tab.data.shape[0] == n + 1, f"expected {n + 1} rows, got {tab.data.shape[0]}")
    _finite(tab.data)
    t, q, v, a = (tab.col(c) for c in COLUMNS["simulate"])
    _close(t, np.arange(n + 1) * dt, 1e-12, "time grid", atol=1e-12 * n * dt)
    _close([q[0], v[0]], [p["q0"], p["v0"]], 0.0, "initial state")
    _newmark(t, q, v, a, dt)
    alpha, e_r = p["alpha"], p["er"]
    frac = (lambda x: l1_history(x, dt, alpha)) if alpha < 1.0 else None
    if p["model"] == "linear":
        damp = e_r * p["c"] * (frac(q) if frac else v)
        force = p.get("force_amp", 0.0) * np.cos(p.get("force_freq", 0.0) * t
                                                 + p.get("force_phase", 0.0))
        terms = [a, damp, p["k"] * q, -force]
        mass = 1.0
    else:
        co = coeffs[p["case"]]
        dq = frac(q) if frac else v
        dc = frac(q**3) if frac else 3.0 * q**2 * v
        force = -co["M_b"] * p["base_amp"] * np.cos(p["base_freq"] * t + p.get("base_phase", 0.0))
        terms = [co["M"] * a, co["J_nl"] * (a * q**2 + q * v**2), co["K_l"] * q,
                 e_r * co["C_l"] * dq, 2.0 * co["K_nl"] * q**3,
                 0.5 * e_r * co["C_nl"] * (dc + 3.0 * q**2 * dq), -force]
        mass = co["M"]
    # each step solves its equation to the integrator's stated tolerance,
    # max(1e-10, 64 eps M_t (4/dt^2) max(|q|, dt |v|, 1)) from the previous
    # state; the oracle allows twice that plus round-off in the terms
    prev = np.maximum(np.maximum(np.abs(q), dt * np.abs(v)), 1.0)
    step_tol = np.maximum(1e-10, 64.0 * np.finfo(float).eps * mass * 4.0 / dt**2 * prev)
    step_tol = np.concatenate(([step_tol[0]], step_tol[:-1]))
    allowed = 2.0 * step_tol + 1e-10 * sum(np.abs(x) for x in terms)
    _relative(sum(terms), allowed, 1.0, "equation of motion (share of tolerance)")


# ------------------------------------------------------------ constitutive law

def _moduli(e_inf, e_alpha, alpha, omega):
    wa = omega ** alpha
    storage = e_inf + e_alpha * wa * np.cos(0.5 * np.pi * alpha)
    loss = e_alpha * wa * np.sin(0.5 * np.pi * alpha)
    return storage, loss, loss / storage


def check_constitutive(p, tab, coeffs):
    kind = p["kind"]
    _expect(tab.columns == COLUMNS[kind], f"columns {tab.columns}")
    _finite(tab.data)
    if kind == "ramp":
        n = int(round(p["t_final"] / p["dt"]))
        _expect(tab.data.shape[0] == n + 1, f"expected {n + 1} rows")
        t, eps, exact, l1 = (tab.col(c) for c in COLUMNS["ramp"])
        rate, t_ramp, alpha = p["rate"], p["t_ramp"], p["alpha"]
        _close(eps, rate * np.minimum(t, t_ramp), 1e-12, "strain", atol=1e-15)
        e = 1.0 - alpha
        tail = np.where(t < t_ramp, 0.0, np.maximum(t - t_ramp, 0.0) ** e)
        want = (p["e_inf"] * rate * np.minimum(t, t_ramp)
                + p["e_alpha"] * rate * (t**e - tail) / math.gamma(2.0 - alpha))
        scale = np.max(np.abs(want))
        _relative(exact - want, scale, 1e-12, "exact ramp-hold stress")
        # the L1 scheme is exact for strain that is linear between nodes
        _relative(l1 - exact, scale, 1e-9, "L1 stress against exact stress")
        return
    var = tab.columns[0]      # omega for moduli, alpha for tanloss
    x = np.linspace(p[f"{var}_min"], p[f"{var}_max"], p["count"])
    _close(tab.col(var), x, 1e-13, f"{var} grid")
    if kind == "moduli":
        want = _moduli(p["e_inf"], p["e_alpha"], p["alpha"], x)
    else:
        want = _moduli(p["e_inf"], p["e_alpha"], x, p["omega"])
    for name, w in zip(COLUMNS[kind][1:], want):
        _close(tab.col(name), w, 1e-12, name)


# ------------------------------------------------------------ modes

def _check_char(beta, tip, what):
    """Textbook characteristic equation of a cantilever with tip mass M and J = 0."""
    m_tip, j_tip = tip
    if j_tip != 0.0:
        return     # no independent form for J > 0; the reference beta^2 covers it
    s, c, sh, ch = np.sin(beta), np.cos(beta), np.sinh(beta), np.cosh(beta)
    terms = [1.0 + c * ch, m_tip * beta * (c * sh - s * ch)]
    scale = sum(abs(x) for x in terms) + 1.0
    _relative(np.array([sum(terms)]), scale, 1e-9, f"{what} characteristic equation")


def _tip_of(p):
    return (p["M"], p["J"]) if p["case"] == "custom" else TIPS[p["case"]]


def check_modes(p, tab, coeffs):
    res, n_modes = p["resolution"], p["n_modes"]
    _expect(tab.data.shape[0] == n_modes * res, "row count")
    _finite(tab.data)
    betas = []
    s_grid = np.linspace(0.0, 1.0, res)
    for k in range(n_modes):
        block = tab.data[k * res:(k + 1) * res]
        _expect(bool(np.all(block[:, 0] == k + 1)), "mode index column")
        beta = block[0, 1]
        _expect(bool(np.all(block[:, 1] == beta)), "beta column not constant in a mode")
        _close(block[:, 2], beta**2, 1e-15, "beta_sq")
        _close(block[:, 3], s_grid, 1e-15, "s grid")
        phi = block[:, 4]
        _expect(abs(phi[0]) < 1e-9, "clamped end must not move")
        h = 1.0 / (res - 1)    # composite Simpson, res odd
        norm = h / 3.0 * (phi[0]**2 + phi[-1]**2 + 4.0 * np.sum(phi[1:-1:2]**2)
                          + 2.0 * np.sum(phi[2:-1:2]**2))
        _close(norm, 1.0, 1e-6, f"mode {k + 1} normalisation")
        _check_char(beta, _tip_of(p), f"mode {k + 1}")
        betas.append(beta)
    _expect(all(x < y for x, y in zip(betas, betas[1:])), "eigenvalues not ascending")
    if p["case"] in BETA_SQ:
        _close(betas[0]**2, BETA_SQ[p["case"]], 0.0, "beta_1^2", atol=1e-5)


def coeff_row(tab):
    _expect(tab.columns == COLUMNS["coeffs"] and tab.data.shape[0] == 1, "coeffs table shape")
    _finite(tab.data)
    return dict(zip(tab.columns, tab.data[0]))


def check_coeffs(p, tab, coeffs):
    co = coeff_row(tab)
    beta = co["beta"]
    _close(co["beta_sq"], beta**2, 1e-15, "beta_sq")
    _close([co["C_l"], co["C_nl"]], [co["K_l"], co["K_nl"]], 0.0, "K = C kernels")
    m = co["M"]
    _close([co["omega0"], co["c_l"], co["c_nl"], co["k_nl"], co["m_nl"]],
           [math.sqrt(co["K_l"] / m), co["C_l"] / m, co["C_nl"] / m, co["K_nl"] / m,
            co["J_nl"] / m], 1e-14, "mass-normalised rates")
    tip = _tip_of(p)
    _check_char(beta, tip, "first mode")
    if tip[1] == 0.0:
        # exact eigenfunction: K_l = beta^4 M_t by integration by parts
        _close(co["K_l"], beta**4 * m, 1e-8, "K_l = beta^4 M_t")
        _close(co["J_nl"], 0.0, 0.0, "J_nl without tip inertia")
    if p["case"] in BETA_SQ:
        _close(co["beta_sq"], BETA_SQ[p["case"]], 0.0, "beta_1^2", atol=1e-5)
        for key, want in COEFF_REF[p["case"]].items():
            _close(co[key], want, 1e-3, f"published {key}")


# ------------------------------------------------------------ slow flow

def steady_cubic(co, e_r, alpha, f, delta):
    """(a1, a2, b1, b2, c) of the primary-resonance steady state, vectorised in delta."""
    omega0 = co["omega0"]
    fac = e_r * omega0 ** (alpha - 1.0)
    sin_h, cos_h = math.sin(0.5 * math.pi * alpha), math.cos(0.5 * math.pi * alpha)
    a1 = 0.5 * co["c_l"] * fac * sin_h
    a2 = 0.375 * co["c_nl"] * fac * sin_h
    b1 = np.asarray(delta, dtype=float) - 0.5 * co["c_l"] * fac * cos_h
    b2 = -0.75 * (co["c_nl"] * fac * cos_h + co["k_nl"] / omega0 + co["m_nl"] * omega0 / 3.0)
    return a1, a2, b1, b2, f * f / (4.0 * omega0 * omega0)


def _poly(a1, a2, b1, b2, c):
    """p3 x^3 + p2 x^2 + p1 x + p0 in x = a^2, and its discriminant with its scale."""
    p3 = a2 * a2 + b2 * b2
    p2 = 2.0 * (a1 * a2 + b1 * b2)
    p1 = a1 * a1 + b1 * b1
    p0 = -c
    terms = [18.0 * p3 * p2 * p1 * p0, -4.0 * p2**3 * p0, p2**2 * p1**2,
             -4.0 * p3 * p1**3, -27.0 * p3**2 * p0**2]
    return (p3, p2, p1, p0), sum(terms), sum(np.abs(x) for x in terms)


def _sign_changes(disc, scale):
    """Grid intervals where the discriminant changes sign; None if a node is ambiguous."""
    if np.any(np.abs(disc) <= 1e-9 * scale):
        return None
    return np.nonzero(np.sign(disc[:-1]) != np.sign(disc[1:]))[0]


def _check_bifurcations(bifs, deltas, disc, scale, complete):
    changes = _sign_changes(disc, scale)
    if changes is None:
        return
    if complete:
        _expect(len(bifs) == len(changes),
                f"{len(bifs)} fold points for {len(changes)} sign changes")
    lo = np.minimum(deltas[changes], deltas[changes + 1])
    hi = np.maximum(deltas[changes], deltas[changes + 1])
    for b in bifs:
        _expect(bool(np.any((lo <= b) & (b <= hi))),
                f"fold point {b!r} not in a discriminant sign change")


def check_sweep(p, tab, coeffs):
    co = coeffs[p["case"]]
    if p["var"] != "delta":
        return _check_nested_sweep(p, tab, co)
    _expect(tab.columns == COLUMNS["delta"], f"columns {tab.columns}")
    deltas = np.linspace(p["min"], p["max"], p["count"])
    _expect(tab.data.shape[0] == p["count"], "row count")
    d = tab.data
    _finite(d[:, :2], "delta and n_roots columns")
    _close(d[:, 0], deltas, 1e-13, "delta grid", atol=1e-15)
    a1, a2, b1, b2, c = steady_cubic(co, p["er"], p["alpha"], p["f"], deltas)
    (p3, p2, p1, p0), disc, dscale = _poly(a1, a2, b1, b2, c)
    n_roots = d[:, 1].astype(int)
    _expect(bool(np.all((n_roots >= 1) & (n_roots <= 3))), "root count outside 1..3")
    for k in range(3):
        block = d[:, 2 + 3 * k:5 + 3 * k]
        used = n_roots > k
        _finite(block[used], f"root {k + 1} columns")
        _expect(bool(np.all(np.isnan(block[~used]))), f"root {k + 1} padding is not NaN")
        amp, gamma, stable = block[used].T
        x = amp * amp
        i = np.nonzero(used)[0]
        resid = ((p3 * x + p2[i]) * x + p1[i]) * x + p0
        scale = p3 * x**3 + np.abs(p2[i]) * x * x + p1[i] * x + abs(p0)
        _relative(resid, scale, 1e-9, f"root {k + 1} of the steady-state cubic")
        _expect(bool(np.all(amp > 0)), "non-positive amplitude")
        s = a1 * amp + a2 * amp**3
        cc = b1[i] * amp + b2 * amp**3
        _close(np.sin(gamma - np.arctan2(s, cc)), 0.0, 0.0, f"root {k + 1} phase", atol=1e-9)
        # with three roots the middle one is the unstable saddle branch
        want = np.where(n_roots[i] == 3, float(k != 1), 1.0)
        _expect(bool(np.all(stable == want)), f"root {k + 1} stability tag")
    clear = np.abs(disc) > 1e-9 * dscale
    _expect(bool(np.all((n_roots == 3)[clear] == (disc > 0)[clear])),
            "root count disagrees with the discriminant sign")
    amps = d[:, 2:11:3]
    _expect(bool(np.all(np.diff(amps, axis=1)[n_roots == 3] > 0)), "roots not ascending")
    bifs = [float(v) for v in tab.prov("bifurcation_delta")]
    # JSON provenance is a mapping, so it keeps only the last fold point
    _check_bifurcations(bifs, deltas, disc, dscale, complete=p.get("format") != "json")


def _positive_roots(p3, p2, p1, p0):
    """Largest real root of each cubic; all of its real roots are positive."""
    n = len(p2)
    comp = np.zeros((n, 3, 3))
    comp[:, 0, 0] = -p2 / p3
    comp[:, 0, 1] = -p1 / p3
    comp[:, 0, 2] = -p0 / p3
    comp[:, 1, 0] = 1.0
    comp[:, 2, 1] = 1.0
    roots = np.linalg.eigvals(comp)
    real = np.where(np.abs(roots.imag) <= 1e-7 * np.abs(roots), roots.real, -np.inf)
    return real.max(axis=1)


def _check_nested_sweep(p, tab, co):
    var = p["var"]
    _expect(tab.columns == [var, "peak_amp", "n_bifurcations", "bif_lo", "bif_hi",
                            "three_root_width"], f"columns {tab.columns}")
    _finite(tab.data)
    values = np.linspace(p["min"], p["max"], p["count"])
    _expect(tab.data.shape[0] == p["count"], "row count")
    deltas = np.linspace(p["delta_min"], p["delta_max"], p["delta_count"])
    for row, val in zip(tab.data, values):
        _close(row[0], val, 1e-13, f"{var} grid")
        args = {"e_r": p["er"], "alpha": p["alpha"], "f": p["f"]}
        args[{"er": "e_r"}.get(var, var)] = val
        coef = steady_cubic(co, args["e_r"], args["alpha"], args["f"], deltas)
        (p3, p2, p1, p0), disc, dscale = _poly(*coef)
        peak = math.sqrt(float(np.max(_positive_roots(p3, p2, p1, p0))))
        _close(row[1], peak, 1e-7, f"peak amplitude at {var}={val}")
        changes = _sign_changes(disc, dscale)
        if changes is not None:
            _expect(int(row[2]) == len(changes), f"fold count at {var}={val}")
        _check_bifurcations(row[3:5], deltas, disc, dscale, complete=False)
        _close(row[5], row[4] - row[3], 1e-12, "three-root width",
               atol=1e-12)


def check_envelope(p, tab, coeffs):
    _finite(tab.data)
    co = coeffs[p["case"]]
    omega0 = co["omega0"]
    fac = p["er"] * omega0 ** (p["alpha"] - 1.0)
    sin_h, cos_h = math.sin(0.5 * math.pi * p["alpha"]), math.cos(0.5 * math.pi * p["alpha"])
    t = np.linspace(0.0, p["t_final"], p["count"])
    _close(tab.col("t"), t, 1e-13, "time grid")
    pl = 0.5 * co["c_l"] * fac * sin_h
    rc = 0.375 * co["c_nl"] * fac * sin_h
    c1 = 0.5 * co["c_l"] * fac * cos_h
    c2 = (0.75 * co["c_nl"] * fac * cos_h + 0.75 * co["k_nl"] / omega0
          - 0.25 * co["m_nl"] * omega0)
    a0sq = p["a0"] ** 2
    decay = np.exp(-2.0 * pl * t)
    grow = -np.expm1(-2.0 * pl * t)           # 1 - exp(-2 p t)
    amp_sq = pl * a0sq * decay / (pl + rc * a0sq * grow)
    # closed form of int_0^t a^2: a^2 = D'/(2 r D), D = p + r a0^2 (1 - e^{-2pt})
    integral = np.log1p(rc * a0sq * grow / pl) / (2.0 * rc) if rc > 0 else a0sq * grow / (2.0 * pl)
    _close(tab.col("amp"), np.sqrt(amp_sq), 1e-10, "Bernoulli amplitude")
    phase = p["phi0"] + c1 * t + c2 * integral
    _close(tab.col("phase"), phase, 1e-8, "phase", atol=1e-8)
    _close(float(tab.prov("decay_rate")[0]), co["c_l"] * fac * sin_h, 1e-12, "decay rate")
    sens = co["c_l"] * fac * (0.5 * math.pi * cos_h + sin_h * math.log(omega0))
    _close(float(tab.prov("sensitivity")[0]), sens, 1e-12, "sensitivity", atol=1e-15)


def check_critical_alpha(p, tab, coeffs):
    _expect(tab.data.shape[0] == 1, "one row")
    _finite(tab.data)
    row = dict(zip(tab.columns, tab.data[0]))
    omega0 = p["omega0"] if "omega0" in p else coeffs[p["case"]]["omega0"]
    _close(row["omega0"], omega0, 1e-15, "omega0")
    _expect(row["found"] == 1, "no critical order found")
    alpha = row["alpha_cr"]
    _expect(0.0 < alpha < 2.0, "critical order outside (0, 2)")
    _expect(row["in_unit_interval"] == (1 if 0.0 < alpha < 1.0 else 0), "in_unit_interval flag")
    h, ln = 0.5 * math.pi * alpha, math.log(omega0)
    if p.get("mode", "decay-peak") == "decay-peak":
        g, scale = 0.5 * math.pi * math.cos(h) + math.sin(h) * ln, 0.5 * math.pi + abs(ln)
    else:
        g = math.pi * ln * math.cos(h) + (ln * ln - 0.25 * math.pi**2) * math.sin(h)
        scale = math.pi * abs(ln) + ln * ln + 0.25 * math.pi**2
    _relative(np.array([g]), scale, 1e-9, "critical-order condition")
    closed = -(2.0 / math.pi) * math.atan(0.5 * math.pi / ln) if ln != 0.0 else -1.0
    _close(row["closed_form"], closed, 1e-12, "closed form")


CHECKS = {
    "simulate": check_simulate,
    "constitutive": check_constitutive,
    "modes": check_modes,
    "coeffs": check_coeffs,
    "sweep": check_sweep,
    "envelope": check_envelope,
    "critical-alpha": check_critical_alpha,
}


def check(command, params, text, fmt, coeffs):
    """The parsed table; raises OracleError unless it is correct for the job."""
    tab = read_table(text, fmt)
    if command in COLUMNS:
        _expect(tab.columns == COLUMNS[command], f"columns {tab.columns}")
    CHECKS[command](dict(params, format=fmt), tab, coeffs)
    return tab
