"""Slow-flow (multiple-scales) analysis of the single-mode oscillator.

First-order averaging of the weakly nonlinear, fractionally damped mode gives
closed-form slow equations for the response amplitude a and phase.  For free
vibration the amplitude obeys a Bernoulli equation

    da/dT = -(p a + r a^3),
    p = (c_l/2)   E_r w0^(a-1) sin(a pi/2),
    r = (3 c_nl/8) E_r w0^(a-1) sin(a pi/2),

solved in closed form here.  Under primary resonance (drive frequency
w0 + delta) the steady amplitude solves a cubic in a^2 whose coefficients,
discriminant and roots this module exposes, together with detuning sweeps
and saddle-node (jump) point location.

A tip mass adds an inertia rate m_nl that enters only the phase equation and
the cubic coefficient B2; setting m_nl = 0 recovers the plain cantilever.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .modes import ScaledCoefficients

__all__ = [
    "MmsParams",
    "CubicCoeffs",
    "SteadyStateRoot",
    "ResponseBranch",
    "CriticalAlphaResult",
    "free_envelope",
    "decay_rate",
    "sensitivity",
    "critical_alpha",
    "steady_state_cubic",
    "solve_steady_amplitudes",
    "frequency_sweep",
]


@dataclass(frozen=True)
class MmsParams:
    """Rates and material constants feeding the slow-flow formulas."""

    omega0: float
    c_l: float
    c_nl: float
    k_nl: float
    e_r: float
    alpha: float
    m_nl: float = 0.0
    f: float = 0.0
    case_tag: str = "no-tip"

    def __post_init__(self):
        for name in ("omega0", "c_l", "c_nl", "k_nl", "e_r", "alpha", "m_nl", "f"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not (self.omega0 > 0):
            raise ValueError(f"omega0 must be positive, got {self.omega0}")
        if not (0 < self.alpha <= 1):
            raise ValueError(f"alpha must lie in (0, 1], got {self.alpha}")
        if self.e_r < 0:
            raise ValueError(f"e_r must be non-negative, got {self.e_r}")
        if self.case_tag == "no-tip" and self.m_nl != 0.0:
            raise ValueError("m_nl must be zero for the no-tip case")

    @classmethod
    def from_scaled(cls, sc: ScaledCoefficients, case_tag: str | None = None) -> "MmsParams":
        tag = case_tag if case_tag is not None else ("no-tip" if sc.m_nl == 0.0 else "tip-mass")
        return cls(omega0=sc.omega0, c_l=sc.c_l, c_nl=sc.c_nl, k_nl=sc.k_nl,
                   e_r=sc.e_r, alpha=sc.alpha, m_nl=sc.m_nl, f=sc.f, case_tag=tag)


def _damping_factor(p: MmsParams) -> float:
    return p.e_r * p.omega0 ** (p.alpha - 1.0)


def decay_rate(params: MmsParams) -> float:
    """Linear free-vibration decay rate c_l E_r w0^(alpha-1) sin(alpha pi/2)."""
    return params.c_l * _damping_factor(params) * math.sin(0.5 * math.pi * params.alpha)


def sensitivity(params: MmsParams) -> float:
    """Partial derivative of the decay rate with respect to alpha."""
    fac = params.c_l * _damping_factor(params)
    half = 0.5 * math.pi * params.alpha
    return fac * (0.5 * math.pi * math.cos(half) + math.sin(half) * math.log(params.omega0))


def _sensitivity_slope(params: MmsParams, alpha: float) -> float:
    """d(sensitivity)/d(alpha), analytic."""
    fac = params.c_l * params.e_r * params.omega0 ** (alpha - 1.0)
    half = 0.5 * math.pi * alpha
    ln = math.log(params.omega0)
    return fac * (math.pi * ln * math.cos(half) + (ln**2 - 0.25 * math.pi**2) * math.sin(half))


@dataclass(frozen=True)
class CriticalAlphaResult:
    """Root report for a critical fractional order.

    ``found`` is False when the requested condition has no sign change in the
    search interval (0, 2); ``in_unit_interval`` flags whether the root lies
    in the physically admissible range (0, 1).  ``closed_form`` is the
    principal-branch arctangent expression for the decay-peak condition,
    reported for comparison (it can leave (0, 1), or even turn negative,
    while the bisection root stays meaningful).
    """

    found: bool
    alpha_cr: float | None
    residual: float | None
    in_unit_interval: bool
    mode: str
    closed_form: float


def critical_alpha(params: MmsParams, mode: str = "decay-peak") -> CriticalAlphaResult:
    """Locate the critical fractional order by bisection on (0, 2).

    mode = "decay-peak":          root of d(decay_rate)/d(alpha) = 0
    mode = "sensitivity-extremum": root of d(sensitivity)/d(alpha) = 0
    """
    if mode == "decay-peak":
        # evaluate the sensitivity formula directly: the search interval
        # (0, 2) deliberately extends past the physical range (0, 1]
        def g(a: float) -> float:
            fac = params.c_l * params.e_r * params.omega0 ** (a - 1.0)
            half = 0.5 * math.pi * a
            return fac * (0.5 * math.pi * math.cos(half)
                          + math.sin(half) * math.log(params.omega0))
    elif mode == "sensitivity-extremum":
        g = lambda a: _sensitivity_slope(params, a)
    else:
        raise ValueError(f"unknown mode {mode!r}")

    ln = math.log(params.omega0)
    closed = -(2.0 / math.pi) * math.atan(0.5 * math.pi / ln) if ln != 0.0 else -1.0

    lo, hi = 1e-9, 2.0 - 1e-9
    grid = np.linspace(lo, hi, 2001)
    vals = [g(a) for a in grid]
    bracket = None
    for i in range(len(grid) - 1):
        if vals[i] == 0.0:
            bracket = (grid[i], grid[i])
            break
        if (vals[i] < 0) != (vals[i + 1] < 0):
            bracket = (grid[i], grid[i + 1])
            break
    if bracket is None:
        return CriticalAlphaResult(found=False, alpha_cr=None, residual=None,
                                   in_unit_interval=False, mode=mode, closed_form=closed)
    a_lo, a_hi = bracket
    if a_lo == a_hi:
        root = a_lo
    else:
        f_lo = g(a_lo)
        for _ in range(200):
            mid = 0.5 * (a_lo + a_hi)
            f_mid = g(mid)
            if f_mid == 0.0 or a_hi - a_lo < 1e-15:
                break
            if (f_lo < 0) == (f_mid < 0):
                a_lo, f_lo = mid, f_mid
            else:
                a_hi = mid
        root = 0.5 * (a_lo + a_hi)
    return CriticalAlphaResult(found=True, alpha_cr=root, residual=g(root),
                               in_unit_interval=0.0 < root < 1.0, mode=mode,
                               closed_form=closed)


def _amplitude_squared(p_lin: float, r_cub: float, a0: float, t) -> np.ndarray:
    """Closed-form a(t)^2 of da/dt = -(p a + r a^3) from a(0) = a0."""
    t = np.asarray(t, dtype=float)
    a0sq = a0 * a0
    if p_lin == 0.0:
        return a0sq / (1.0 + 2.0 * r_cub * a0sq * t)
    decay = np.exp(-2.0 * p_lin * t)
    return p_lin * a0sq * decay / (p_lin + r_cub * a0sq * (1.0 - decay))


def _amplitude_squared_integral(p_lin: float, r_cub: float, a0: float, t) -> np.ndarray:
    """Closed-form integral of a(s)^2 over [0, t], with a(s)^2 as above.

    log1p(r a0^2 (1 - exp(-2 p t)) / p) / (2 r), and its limits
    log1p(2 r a0^2 t) / (2 r) at p = 0, a0^2 (1 - exp(-2 p t)) / (2 p) at
    r = 0, and a0^2 t when both vanish.
    """
    t = np.asarray(t, dtype=float)
    a0sq = a0 * a0
    if p_lin == 0.0:
        if r_cub == 0.0:
            return a0sq * t
        return np.log1p(2.0 * r_cub * a0sq * t) / (2.0 * r_cub)
    relaxed = -np.expm1(-2.0 * p_lin * t) / p_lin
    if r_cub == 0.0:
        return 0.5 * a0sq * relaxed
    return np.log1p(r_cub * a0sq * relaxed) / (2.0 * r_cub)


def free_envelope(params: MmsParams, a0: float, phi0: float, t):
    """Free-vibration envelope a(t) and phase phi(t) from the slow flow.

    The amplitude uses the Bernoulli closed form; the phase integrates

        dphi/dt = c1 + c2 a(t)^2,
        c1 = (c_l/2)  E_r w0^(a-1) cos(a pi/2),
        c2 = (3 c_nl/4) E_r w0^(a-1) cos(a pi/2) + (3/4) k_nl / w0
             - (1/4) m_nl w0,

    with the integral of a^2 in closed form as well.
    """
    if not (a0 > 0):
        raise ValueError(f"a0 must be positive, got {a0}")
    if np.any(np.asarray(t) < 0):
        raise ValueError("time must be non-negative")
    fac = _damping_factor(params)
    half = 0.5 * math.pi * params.alpha
    p_lin = 0.5 * params.c_l * fac * math.sin(half)
    r_cub = 0.375 * params.c_nl * fac * math.sin(half)
    c1 = 0.5 * params.c_l * fac * math.cos(half)
    c2 = (0.75 * params.c_nl * fac * math.cos(half)
          + 0.75 * params.k_nl / params.omega0
          - 0.25 * params.m_nl * params.omega0)

    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    amp = np.sqrt(_amplitude_squared(p_lin, r_cub, a0, t_arr))
    phases = phi0 + c1 * t_arr + c2 * _amplitude_squared_integral(p_lin, r_cub, a0, t_arr)
    if np.isscalar(t) or np.asarray(t).ndim == 0:
        return float(amp[0]), float(phases[0])
    return amp, phases


def _libm(fn, *args):
    """``fn`` from ``math`` applied elementwise over 1-D arrays (scalars repeat).

    numpy's SIMD pow, arccos, cosh, arctan2 and friends can differ from libm
    in the last bit.  Routing the root solver's few such calls through
    ``math`` keeps every grid point bit-identical to the same formula
    evaluated one point at a time.
    """
    if not any(np.ndim(a) for a in args):
        return fn(*args)
    cols = [a.tolist() if np.ndim(a) else itertools.repeat(a) for a in args]
    return np.fromiter(map(fn, *cols), dtype=float)


def _pow(x, k: float):
    """x**k with libm's rounding, elementwise for arrays."""
    return _libm(math.pow, x, float(k))


@dataclass(frozen=True)
class CubicCoeffs:
    """Coefficient block of the steady-state amplitude equation.

    The response amplitude solves, on x = a^2,

        (a2^2 + b2^2) x^3 + 2 (a1 a2 + b1 b2) x^2 + (a1^2 + b1^2) x - c_rhs = 0.

    ``b1`` is the only coefficient that depends on the detuning; it may be a
    1-D array, one entry per detuning, and ``cubic``/``discriminant`` then
    return arrays of the same length.
    """

    a1: float
    a2: float
    b1: float
    b2: float
    c_rhs: float

    def __post_init__(self):
        if self.c_rhs < 0:
            raise ValueError(f"c_rhs must be non-negative, got {self.c_rhs}")

    def cubic(self) -> tuple:
        """(p3, p2, p1, p0) with p3 x^3 + p2 x^2 + p1 x + p0 = 0, x = a^2."""
        return (
            self.a2**2 + self.b2**2,
            2.0 * (self.a1 * self.a2 + self.b1 * self.b2),
            self.a1**2 + _pow(self.b1, 2),
            -self.c_rhs,
        )

    def discriminant(self):
        a, b, c, d = self.cubic()
        return (18.0 * a * b * c * d - 4.0 * _pow(b, 3) * d + _pow(b, 2) * _pow(c, 2)
                - 4.0 * a * _pow(c, 3) - 27.0 * a**2 * d**2)


def steady_state_cubic(params: MmsParams, delta) -> CubicCoeffs:
    """Coefficients of the primary-resonance steady-state equation at detuning delta.

    ``delta`` may be a 1-D array; ``b1`` then holds one value per detuning.
    """
    fac = _damping_factor(params)
    half = 0.5 * math.pi * params.alpha
    sin_h, cos_h = math.sin(half), math.cos(half)
    a1 = 0.5 * params.c_l * fac * sin_h
    a2 = 0.375 * params.c_nl * fac * sin_h
    b1 = delta - 0.5 * params.c_l * fac * cos_h
    b2 = -0.75 * (params.c_nl * fac * cos_h
                  + params.k_nl / params.omega0
                  + params.m_nl * params.omega0 / 3.0)
    c = params.f**2 / (4.0 * params.omega0**2)
    return CubicCoeffs(a1=a1, a2=a2, b1=b1, b2=b2, c_rhs=c)


@dataclass(frozen=True)
class SteadyStateRoot:
    """One admissible steady-state response point."""

    amp: float
    gamma: float
    stable: bool


def _cardano_roots(p3: float, p2: np.ndarray, p1: np.ndarray, p0: float) -> np.ndarray:
    """Real roots of p3 x^3 + p2 x^2 + p1 x + p0 per entry, NaN-padded (m, 3).

    Trig/hyperbolic Cardano closed form, then one Newton polish per root on
    the original cubic, kept only where it reduces the residual (the slope
    degenerates at double roots).
    """
    a, b, c = p2 / p3, p1 / p3, p0 / p3
    shift = a / 3.0
    p = b - a * a / 3.0
    q = 2.0 * _pow(a, 3) / 27.0 - a * b / 3.0 + c
    disc = -4.0 * _pow(p, 3) - 27.0 * q * q
    sign_q = np.copysign(1.0, q)
    roots = np.full((len(a), 3), np.nan)

    three = disc > 0.0
    m = 2.0 * np.sqrt(-p[three] / 3.0)
    arg = np.clip(3.0 * q[three] / (p[three] * m), -1.0, 1.0)
    theta = _libm(math.acos, arg)
    for k in range(3):
        roots[three, k] = m * _libm(math.cos, (theta - 2.0 * math.pi * k) / 3.0) - shift[three]

    one = (disc < 0.0) & (p == 0.0)
    roots[one, 0] = -np.copysign(_pow(np.abs(q[one]), 1.0 / 3.0), q[one]) - shift[one]
    one = (disc < 0.0) & (p < 0.0)
    m = 2.0 * np.sqrt(-p[one] / 3.0)
    arg = 3.0 * np.abs(q[one]) / (p[one] * m)
    t0 = -2.0 * sign_q[one] * _libm(math.cosh, _libm(math.acosh, np.maximum(-arg, 1.0)) / 3.0)
    roots[one, 0] = np.sqrt(-p[one] / 3.0) * t0 - shift[one]
    one = (disc < 0.0) & (p > 0.0)
    m = 2.0 * np.sqrt(p[one] / 3.0)
    arg = 3.0 * q[one] / (p[one] * m)
    t0 = -2.0 * sign_q[one] * _libm(math.sinh, _libm(math.asinh, np.abs(arg)) / 3.0)
    roots[one, 0] = np.sqrt(p[one] / 3.0) * t0 - shift[one]

    double = disc == 0.0
    roots[double & (p == 0.0), 0] = -shift[double & (p == 0.0)]
    two = double & (p != 0.0)
    roots[two, 0] = 3.0 * q[two] / p[two] - shift[two]
    roots[two, 1] = -1.5 * q[two] / p[two] - shift[two]

    p2, p1 = p2[:, None], p1[:, None]
    cubic = lambda x: ((p3 * x + p2) * x + p1) * x + p0
    fx = cubic(roots)
    dfx = (3.0 * p3 * roots + 2.0 * p2) * roots + p1
    polished = roots - fx / dfx
    keep = (dfx != 0.0) & (np.abs(cubic(polished)) < np.abs(fx))
    return np.where(keep, polished, roots)


def _quadratic_roots(p2: np.ndarray, p1: np.ndarray, p0: float) -> np.ndarray:
    """Real roots of p2 x^2 + p1 x + p0 (or of p1 x + p0 when p2 is negligible), (m, 2)."""
    roots = np.full((len(p2), 2), np.nan)
    linear = np.abs(p2) < 1e-14 * np.maximum(np.abs(p1), max(abs(p0), 1e-300))
    lin = linear & (p1 != 0.0)
    roots[lin, 0] = -p0 / p1[lin]
    disc = p1 * p1 - 4.0 * p2 * p0
    quad = ~linear & (disc >= 0.0)
    # cancellation-free quadratic roots
    s = -0.5 * (p1[quad] + np.copysign(np.sqrt(disc[quad]), p1[quad]))
    roots[quad, 0] = s / p2[quad]
    roots[quad, 1] = np.where(s != 0.0, p0 / s, 0.0)
    return roots


def _steady_roots(coeffs: CubicCoeffs):
    """Admissible (a >= 0) steady-state roots at every detuning of ``coeffs``.

    Returns ``(n_roots, amp, gamma, stable)``: per detuning, the root count
    and (n, 3) arrays in ascending amplitude, NaN (``stable``: False) past
    the count.  The phase gamma is recovered from the two projection
    identities sin(gamma) ~ a1 a + a2 a^3 and cos(gamma) ~ b1 a + b2 a^3
    through the two-argument arctangent.  With three positive roots the
    middle amplitude is tagged unstable (saddle-node branch structure);
    otherwise roots are stable.
    """
    p3, p2, p1, p0 = coeffs.cubic()
    p2, p1 = np.atleast_1d(p2), np.atleast_1d(p1)
    n = len(p2)
    xs = np.full((n, 3), np.nan)
    with np.errstate(all="ignore"):
        scale = np.maximum(np.maximum(np.abs(p2), np.abs(p1)), max(abs(p0), 1e-300))
        near_quadratic = abs(p3) < 1e-14 * scale
        cub = ~near_quadratic
        if cub.any():
            xs[cub] = _cardano_roots(p3, p2[cub], p1[cub], p0)
        if near_quadratic.any():
            xs[near_quadratic, :2] = _quadratic_roots(p2[near_quadratic], p1[near_quadratic], p0)

    # keep distinct roots above a relative floor, ascending, NaN last
    x_tol = 1e-12 * np.fmax(1.0, np.fmax.reduce(np.abs(xs), axis=1))
    xs[~(xs > x_tol[:, None])] = np.nan
    xs.sort(axis=1)
    dup = np.zeros_like(xs, dtype=bool)
    dup[:, 1:] = xs[:, 1:] == xs[:, :-1]
    xs[dup] = np.nan
    xs.sort(axis=1)
    n_pos = np.count_nonzero(~np.isnan(xs), axis=1)
    if coeffs.c_rhs == 0.0:
        # x = 0 always solves the zero-forcing case; the cubic may carry it
        # inexactly, so insert it explicitly (at most two positive roots remain)
        xs = np.column_stack([np.zeros(n), xs[:, :2]])
    n_roots = np.count_nonzero(~np.isnan(xs), axis=1)
    present = np.arange(3) < n_roots[:, None]
    stable = present & ~((n_pos[:, None] == 3) & (np.arange(3) == 1))

    amp = np.sqrt(xs)
    gamma = np.where(present, 0.0, np.nan)
    if coeffs.c_rhs > 0.0:
        live = amp > 0.0
        a = amp[live]
        b1 = np.broadcast_to(np.atleast_1d(coeffs.b1)[:, None], amp.shape)[live]
        a_cubed = _pow(a, 3)
        gamma[live] = _libm(math.atan2, coeffs.a1 * a + coeffs.a2 * a_cubed,
                            b1 * a + coeffs.b2 * a_cubed)
    return n_roots, amp, gamma, stable


def _root_list(amp, gamma, stable, count: int) -> list:
    """One detuning's roots as ``SteadyStateRoot`` objects, from its array rows."""
    return [SteadyStateRoot(amp=a, gamma=g, stable=s)
            for a, g, s in zip(amp[:count], gamma[:count], stable[:count])]


def solve_steady_amplitudes(coeffs: CubicCoeffs) -> list[SteadyStateRoot]:
    """Admissible (a >= 0) steady-state roots with phase and stability tags.

    The one-point case of the sweep's array solver; see ``ResponseBranch``
    for the phase and stability conventions.
    """
    n_roots, amp, gamma, stable = _steady_roots(coeffs)
    return _root_list(amp[0].tolist(), gamma[0].tolist(), stable[0].tolist(), int(n_roots[0]))


@dataclass(frozen=True)
class ResponseBranch:
    """Detuning sweep result: root arrays per point plus located jump points.

    Row i describes ``deltas[i]``: ``n_roots[i]`` admissible roots, stored in
    ascending amplitude in the (n, 3) arrays ``amp`` (a >= 0), ``gamma``
    (phase) and ``stable``; entries past the count are NaN (False in
    ``stable``).  With three roots the middle one is the unstable saddle
    branch.  ``root_sets`` (per-point lists of ``SteadyStateRoot``) and
    ``branches`` (nearest-amplitude continuation) are built on first access.
    """

    deltas: np.ndarray
    n_roots: np.ndarray = field(repr=False)
    amp: np.ndarray = field(repr=False)
    gamma: np.ndarray = field(repr=False)
    stable: np.ndarray = field(repr=False)
    bifurcations: list

    @cached_property
    def root_sets(self) -> list:
        amp, gamma, stable = self.amp.tolist(), self.gamma.tolist(), self.stable.tolist()
        return [_root_list(a, g, s, n)
                for a, g, s, n in zip(amp, gamma, stable, self.n_roots.tolist())]

    @cached_property
    def branches(self) -> list:
        return _match_branches(self.deltas, self.root_sets)


def _bisect_discriminant(params: MmsParams, lo: float, hi: float) -> float:
    d_lo = steady_state_cubic(params, lo).discriminant()
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        d_mid = steady_state_cubic(params, mid).discriminant()
        if d_mid == 0.0 or hi - lo < 1e-10:
            return mid
        if (d_lo < 0) == (d_mid < 0):
            lo, d_lo = mid, d_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _match_branches(deltas: np.ndarray, root_sets: list) -> list:
    """Nearest-amplitude continuation of root sets across the sweep."""
    branches: list[dict] = []
    open_ids: list[int] = []
    for i, (d, roots) in enumerate(zip(deltas, root_sets)):
        amps = [r.amp for r in roots]
        taken = [False] * len(roots)
        next_open = []
        for bid in open_ids:
            br = branches[bid]
            last = br["amp"][-1]
            # local jump threshold: 10x the amplitude step the branch just took
            if len(br["amp"]) > 1:
                tol = 10.0 * max(abs(br["amp"][-1] - br["amp"][-2]), 1e-12)
            else:
                tol = np.inf
            best, best_dist = None, np.inf
            for k, a in enumerate(amps):
                if not taken[k] and abs(a - last) < best_dist:
                    best, best_dist = k, abs(a - last)
            if best is not None and best_dist <= tol:
                taken[best] = True
                br["delta"].append(float(d))
                br["amp"].append(amps[best])
                br["stable"].append(roots[best].stable)
                next_open.append(bid)
        for k, r in enumerate(roots):
            if not taken[k]:
                branches.append({"delta": [float(d)], "amp": [r.amp], "stable": [r.stable]})
                next_open.append(len(branches) - 1)
        open_ids = next_open
    return branches


def frequency_sweep(
    params: MmsParams,
    delta_grid,
    alpha: float | None = None,
    e_r: float | None = None,
    f: float | None = None,
) -> ResponseBranch:
    """Steady-state roots over a monotone detuning grid, with jump points.

    Optional alpha / e_r / f values override the base parameters for this
    sweep.  The cubic, its discriminant and its roots are evaluated for the
    whole grid in one array pass; each discriminant sign change between
    neighbouring points is refined to a fold point by bisection.
    """
    deltas = np.asarray(delta_grid, dtype=float)
    if deltas.ndim != 1 or deltas.size == 0:
        raise ValueError("delta grid must be a non-empty 1-D sequence")
    if deltas.size > 1:
        steps = np.diff(deltas)
        if not (np.all(steps > 0) or np.all(steps < 0)):
            raise ValueError("delta grid must be strictly monotone")
    p = params
    if alpha is not None:
        p = replace(p, alpha=alpha)
    if e_r is not None:
        p = replace(p, e_r=e_r)
    if f is not None:
        p = replace(p, f=f)

    coeffs = steady_state_cubic(p, deltas)
    n_roots, amp, gamma, stable = _steady_roots(coeffs)
    disc = coeffs.discriminant()
    negative = disc < 0
    bifurcations = []
    for i in np.flatnonzero((disc[:-1] == 0.0) | (negative[:-1] != negative[1:])).tolist():
        if disc[i] == 0.0:
            bifurcations.append(float(deltas[i]))
        else:
            bifurcations.append(_bisect_discriminant(p, float(deltas[i]), float(deltas[i + 1])))
    return ResponseBranch(deltas=deltas, n_roots=n_roots, amp=amp, gamma=gamma,
                          stable=stable, bifurcations=bifurcations)
