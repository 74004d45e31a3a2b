"""Slow-flow (multiple-scales) analysis of the single-mode oscillator.

First-order averaging of the weakly nonlinear, fractionally damped mode gives
closed-form slow equations for the response amplitude a and phase.  For free
vibration the amplitude obeys a Bernoulli equation, solved in closed form
here.  Under primary resonance (drive frequency w0 + delta) the steady
amplitude solves a cubic in a^2 whose coefficients, discriminant and roots
this module exposes, together with detuning sweeps and saddle-node (jump)
point location.  All of these, and the decay rate with its derivatives in
the order, read one record of coefficients, ``_SlowFlow``.

A tip mass adds an inertia rate m_nl that enters only the phase equation and
the cubic coefficient b2; setting m_nl = 0 recovers the plain cantilever.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .constitutive import MaterialParams, _libm, _pow
from .errors import check_finite
from .modes import ModalCoefficients, bisect

__all__ = [
    "MmsParams",
    "CubicCoeffs",
    "SteadyStateRoot",
    "ResponseBranch",
    "CriticalAlphaResult",
    "scale_coefficients",
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
    """Mass-normalised rates and material constants feeding the slow-flow formulas.

    ``scale_coefficients`` builds one from a mode's coefficients.  The
    slow-time formulas consume only the products of the bookkeeping parameter
    with these rates, so it is folded in at unity and physical rates are
    stored directly.
    """

    omega0: float
    c_l: float
    c_nl: float
    k_nl: float
    e_r: float
    alpha: float
    m_nl: float = 0.0
    f: float = 0.0

    def __post_init__(self):
        check_finite(**vars(self))
        if not (self.omega0 > 0):
            raise ValueError(f"omega0 must be positive, got {self.omega0}")
        if not (0 < self.alpha <= 1):
            raise ValueError(f"alpha must lie in (0, 1], got {self.alpha}")
        if self.e_r < 0:
            raise ValueError(f"e_r must be non-negative, got {self.e_r}")

    @classmethod
    def from_scaled(cls, sc: "MmsParams") -> "MmsParams":
        """A copy of ``sc``, field by field.

        ``scale_coefficients`` already returns an ``MmsParams``; this stays
        only because acceptance criteria 7 and 10 call it.
        """
        return cls(**vars(sc))


def scale_coefficients(
    coeffs: ModalCoefficients,
    mat: MaterialParams,
    force_amplitude: float = 0.0,
) -> MmsParams:
    """Slow-flow rates of one mode: its coefficients divided by the modal mass."""
    m = coeffs.m_modal
    if not (m > 0):
        raise ValueError(f"modal mass must be positive, got {m}")
    return MmsParams(
        omega0=math.sqrt(coeffs.k_l / m),
        c_l=coeffs.c_l / m,
        c_nl=coeffs.c_nl / m,
        k_nl=coeffs.k_nl / m,
        e_r=mat.e_r,
        alpha=mat.alpha,
        m_nl=coeffs.j_nl / m,
        f=force_amplitude,
    )


@dataclass(frozen=True)
class _SlowFlow:
    """The slow-flow coefficients of one parameter set, each derived once.

    With fac = E_r w0^(a-1), h = a pi/2 and L = ln w0 at the order a, the decay
    rate and its first two derivatives in a, then the envelope and cubic terms:

        decay         = c_l fac sin h,
        sensitivity   = c_l fac ((pi/2) cos h + L sin h),
        curvature     = (c_l E_r) w0^(a-1) (pi L cos h + (L^2 - pi^2/4) sin h),
        a1, a2, shift = (c_l/2) fac sin h, (3 c_nl/8) fac sin h, (c_l/2) fac cos h,
        b2            = -(3/4) (c_nl fac cos h + k_nl/w0 + m_nl w0/3),
        c2            = (3/4) c_nl fac cos h + (3/4) k_nl/w0 - (1/4) m_nl w0.

    The free envelope obeys da/dT = -(a1 a + a2 a^3), dphi/dT = shift + c2 a^2; the
    cubic (``CubicCoeffs``) takes b1 = delta - shift and c_rhs = f^2/(4 w0^2).
    b2's and c2's tip-inertia terms differ in sign: integration sides with c2, and the
    strict-xfail ``test_steady_state_backbone_tip_mass_matches_integrator`` pins b2.
    """

    decay: float
    sensitivity: float
    curvature: float
    a1: float
    a2: float
    shift: float
    b2: float
    c2: float


def _slow_flow(params: MmsParams, order: float | None = None) -> _SlowFlow:
    """``params``' slow-flow coefficients, at ``order`` (which may leave (0, 1]) if given.

    w0^(a-1) overflows for w0 near the smallest doubles; the ``OverflowError``
    names the parameters and the order.
    """
    alpha = params.alpha if order is None else order
    w0, half = params.omega0, 0.5 * math.pi * alpha
    try:
        power = w0 ** (alpha - 1.0)
    except OverflowError as exc:
        raise _overflow(exc, f"order {alpha!r} of {params}", "the slow flow") from exc
    fac = params.e_r * power
    sin_h, cos_h, ln = math.sin(half), math.cos(half), math.log(w0)
    return _SlowFlow(
        decay=params.c_l * fac * sin_h,
        sensitivity=params.c_l * fac * (0.5 * math.pi * cos_h + sin_h * ln),
        curvature=(params.c_l * params.e_r * power
                   * (math.pi * ln * cos_h + (ln**2 - 0.25 * math.pi**2) * sin_h)),
        a1=0.5 * params.c_l * fac * sin_h,
        a2=0.375 * params.c_nl * fac * sin_h,
        shift=0.5 * params.c_l * fac * cos_h,
        b2=-0.75 * (params.c_nl * fac * cos_h + params.k_nl / w0 + params.m_nl * w0 / 3.0),
        c2=0.75 * params.c_nl * fac * cos_h + 0.75 * params.k_nl / w0 - 0.25 * params.m_nl * w0,
    )


def decay_rate(params: MmsParams) -> float:
    """Linear free-vibration decay rate (``_SlowFlow.decay``)."""
    return _slow_flow(params).decay


def sensitivity(params: MmsParams) -> float:
    """Partial derivative of the decay rate with respect to alpha."""
    return _slow_flow(params).sensitivity


@dataclass(frozen=True)
class CriticalAlphaResult:
    """Root report for a critical fractional order.

    ``found`` is False when the requested condition has no root in (0, 2);
    ``in_unit_interval`` flags whether the root lies in the physically
    admissible range (0, 1).  ``closed_form`` is the principal-branch
    arctangent expression for the decay-peak condition, reported for
    comparison (it can leave (0, 1), or even turn negative, while the root
    stays meaningful).  ``residual`` is the condition evaluated at the root.
    """

    found: bool
    alpha_cr: float | None
    residual: float | None
    in_unit_interval: bool
    mode: str
    closed_form: float


def critical_alpha(params: MmsParams, mode: str = "decay-peak") -> CriticalAlphaResult:
    """The critical fractional order in (0, 2), in closed form.

    With h = alpha pi/2 and L = ln w0, each condition is a linear combination
    of sin h and cos h, so its one root with sin h > 0 is an arctangent:

    mode = "decay-peak":           d(decay_rate)/d(alpha) = 0,
        L sin h + (pi/2) cos h = 0,          alpha = (2/pi) atan2(pi/2, -L);
    mode = "sensitivity-extremum": d(sensitivity)/d(alpha) = 0,
        pi L cos h + (L^2 - pi^2/4) sin h = 0,
        alpha = (2/pi) atan2(s pi L, -s (L^2 - pi^2/4)) with s = sign L,
        and no root at all when L = 0.

    With h = pi/2 + phi each condition reads tan phi = B/A (A, B the cos h
    and sin h coefficients), so the root lies below 1 exactly when A B < 0:
    when L < 0 for the decay peak, and when 0 < L < pi/2 or L < -pi/2 for
    the sensitivity extremum (fl(pi/2) < pi/2, so these tests are exact in
    doubles).  Near alpha = 1, atan2 rounds h onto fl(pi/2) and can carry a
    root just below 1 onto 1; such a root is reported as the double just
    below 1, next to the root and on its side of 1.  A root that rounds onto
    an end of (0, 2), as the sensitivity extremum does for |L| below about
    2e-16, is reported as not found.
    """
    ln = math.log(params.omega0)
    closed = -(2.0 / math.pi) * math.atan(0.5 * math.pi / ln) if ln != 0.0 else -1.0
    if mode == "decay-peak":
        root = 2.0 / math.pi * math.atan2(0.5 * math.pi, -ln)
        below_one = ln < 0.0
    elif mode == "sensitivity-extremum":
        s = math.copysign(1.0, ln)
        root = (2.0 / math.pi * math.atan2(s * math.pi * ln, -s * (ln * ln - 0.25 * math.pi**2))
                if ln != 0.0 else math.nan)
        below_one = 0.0 < ln <= 0.5 * math.pi or ln < -0.5 * math.pi
    else:
        raise ValueError(f"unknown mode {mode!r}")
    if not 0.0 < root < 2.0:
        # L = 0, or h so close to 0 or pi that it rounds onto the end
        return CriticalAlphaResult(found=False, alpha_cr=None, residual=None,
                                   in_unit_interval=False, mode=mode, closed_form=closed)
    if below_one and root >= 1.0:
        root = math.nextafter(1.0, 0.0)
    flow = _slow_flow(params, root)
    residual = flow.sensitivity if mode == "decay-peak" else flow.curvature
    return CriticalAlphaResult(found=True, alpha_cr=root, residual=residual,
                               in_unit_interval=0.0 < root < 1.0, mode=mode,
                               closed_form=closed)


def _amplitude_squared(p_lin: float, r_cub: float, a0: float, t) -> np.ndarray:
    """Closed-form a(t)^2 of da/dt = -(p a + r a^3) from a(0) = a0."""
    t = np.asarray(t, dtype=float)
    a0sq = a0 * a0
    # an overflowing a0 gives NaN, which the caller's finite check reports
    with np.errstate(all="ignore"):
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
    with np.errstate(all="ignore"):
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
    dphi/dt = shift + c2 a(t)^2 (coefficients in ``_SlowFlow``), with the
    integral of a^2 in closed form as well.
    """
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    check_finite(a0=a0, phi0=phi0, t=t_arr)
    if not (a0 > 0):
        raise ValueError(f"a0 must be positive, got {a0}")
    if np.any(t_arr < 0):
        raise ValueError("time must be non-negative")
    flow = _slow_flow(params)
    amp = np.sqrt(_amplitude_squared(flow.a1, flow.a2, a0, t_arr))
    phases = (phi0 + flow.shift * t_arr
              + flow.c2 * _amplitude_squared_integral(flow.a1, flow.a2, a0, t_arr))
    if np.isscalar(t) or np.asarray(t).ndim == 0:
        return float(amp[0]), float(phases[0])
    return amp, phases


@dataclass(frozen=True)
class CubicCoeffs:
    """Coefficient block of the steady-state amplitude equation.

    The response amplitude solves, on x = a^2 (coefficients from ``_SlowFlow``),

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
        check_finite(**vars(self))
        if self.c_rhs < 0:
            raise ValueError(f"c_rhs must be non-negative, got {self.c_rhs}")

    def cubic(self) -> tuple:
        """(p3, p2, p1, p0) with p3 x^3 + p2 x^2 + p1 x + p0 = 0, x = a^2."""
        try:
            return _cubic(self.a1, self.a2, self.b1, self.b2, self.c_rhs)
        except OverflowError as exc:
            raise _overflow(exc, self) from exc

    def discriminant(self):
        try:
            return _discriminant(*self.cubic())
        except OverflowError as exc:
            raise _overflow(exc, self) from exc


def _cubic(a1, a2, b1, b2, c_rhs) -> tuple:
    """``CubicCoeffs``' (p3, p2, p1, p0) from floats or arrays, with libm's powers elementwise."""
    return (_pow(a2, 2) + _pow(b2, 2), 2.0 * (a1 * a2 + b1 * b2),
            _pow(a1, 2) + _pow(b1, 2), -c_rhs)


def _overflow(exc: OverflowError, operands, what: str = "the steady-state cubic") -> OverflowError:
    """An overflow of ``what``, naming its ``operands``.

    Python's ``**`` and ``math.pow`` name none.  The reason is the first
    overflow's, so an entry point that catches another one's error names
    its own operands, once.
    """
    while isinstance(exc.__cause__, OverflowError):
        exc = exc.__cause__
    return OverflowError(f"{exc.args[-1]}: {what} overflows at {operands}")


def _discriminant_terms(a, b, c, d, pow_) -> tuple:
    """The discriminant of a x^3 + b x^2 + c x + d as its five signed terms, in the order
    they are summed: 18abcd - 4b^3 d + b^2 c^2 - 4ac^3 - 27a^2 d^2, with x^k = pow_(x, k)."""
    return (18.0 * a * b * c * d, -4.0 * pow_(b, 3) * d, pow_(b, 2) * pow_(c, 2),
            -4.0 * a * pow_(c, 3), -27.0 * pow_(a, 2) * pow_(d, 2))


def _discriminant(a, b, c, d):
    """Discriminant of a x^3 + b x^2 + c x + d, with libm's powers elementwise."""
    t0, t1, t2, t3, t4 = _discriminant_terms(a, b, c, d, _pow)
    return t0 + t1 + t2 + t3 + t4


def _safe(x):
    """Exact zeros, and magnitudes whose products of up to five factors stay normal and finite."""
    ax = np.abs(x)
    return (ax == 0.0) | ((ax > 1e-60) & (ax < 1e60))


def _grid_discriminant(a: float, b: np.ndarray, c: np.ndarray, d: float) -> np.ndarray:
    """``_discriminant`` over arrays b, c, exact in sign and in zeros only.

    The powers are numpy products (x*x*x for pow(x, 3)), each within a few
    ulps of libm's; with every factor zero or far from under- and overflow
    (``_safe``), the two sums then differ by under 1e-14 of the sum of the
    terms' magnitudes.  Nodes whose value lies within 1e-12 of that sum, or
    that have an unsafe factor, are recomputed with libm, so ``disc < 0``
    and ``disc == 0.0`` agree with ``_discriminant`` at every node.
    """
    with np.errstate(all="ignore"):
        products = lambda x, k: x * x if k == 2 else x * x * x
        t0, t1, t2, t3, t4 = terms = _discriminant_terms(a, b, c, d, products)
        disc = t0 + t1 + t2 + t3 + t4
        size = sum(np.abs(t) for t in terms)
        doubt = ~((np.abs(disc) > 1e-12 * size) & _safe(b) & _safe(c) & _safe(a) & _safe(d))
        disc[doubt] = _discriminant(a, b[doubt], c[doubt], d)
    return disc


def steady_state_cubic(params: MmsParams, delta) -> CubicCoeffs:
    """Coefficients of the primary-resonance steady-state equation at detuning delta.

    ``delta`` may be a 1-D array; ``b1`` then holds one value per detuning.
    Only the cubic reads its constant term c_rhs = f^2/(4 w0^2), so the free
    slow flow stays finite where that overflows.
    """
    flow = _slow_flow(params)
    try:
        c_rhs = params.f**2 / (4.0 * params.omega0**2)
    except OverflowError as exc:
        raise _overflow(exc, params) from exc
    return CubicCoeffs(a1=flow.a1, a2=flow.a2, b1=delta - flow.shift, b2=flow.b2, c_rhs=c_rhs)


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

    # one real root: where p is zero, or so small against q that the
    # hyperbolic form's argument 3|q|/(|p| m) is not finite, it is the p = 0 one
    m = 2.0 * np.sqrt(np.abs(p) / 3.0)
    flat = (disc < 0.0) & ~np.isfinite(3.0 * np.abs(q) / (np.abs(p) * m))
    roots[flat, 0] = -np.copysign(_pow(np.abs(q[flat]), 1.0 / 3.0), q[flat]) - shift[flat]
    one = (disc < 0.0) & (p < 0.0) & ~flat
    m = 2.0 * np.sqrt(-p[one] / 3.0)
    arg = 3.0 * np.abs(q[one]) / (p[one] * m)
    t0 = -2.0 * sign_q[one] * _libm(math.cosh, _libm(math.acosh, np.maximum(-arg, 1.0)) / 3.0)
    roots[one, 0] = np.sqrt(-p[one] / 3.0) * t0 - shift[one]
    one = (disc < 0.0) & (p > 0.0) & ~flat
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


def _sort3(a, b, c):
    """Three columns sorted elementwise, ascending with NaNs last.

    A compare-exchange network on the pairs (0, 1), (1, 2), (0, 1): ``fmin``
    takes the number of a number and a NaN, ``maximum`` the NaN.
    """
    a, b = np.fmin(a, b), np.maximum(a, b)
    b, c = np.fmin(b, c), np.maximum(b, c)
    return np.fmin(a, b), np.maximum(a, b), c


def _steady_roots(coeffs: CubicCoeffs, cubic: tuple):
    """Admissible (a >= 0) steady-state roots at every detuning of ``coeffs``.

    Returns ``(n_roots, amp, gamma, stable)``: per detuning, the root count
    and (n, 3) arrays in ascending amplitude, NaN (``stable``: False) past
    the count.  The phase gamma is recovered from the two projection
    identities sin(gamma) ~ a1 a + a2 a^3 and cos(gamma) ~ b1 a + b2 a^3
    through the two-argument arctangent.  With three positive roots the
    middle amplitude is tagged unstable (saddle-node branch structure);
    otherwise roots are stable.  ``cubic`` is ``coeffs.cubic()``, which the
    sweep also signs.  The roots are handled as three columns, a NaN where
    a detuning has no root.
    """
    cols = _real_roots(*cubic).T
    # keep distinct roots above a relative floor, ascending, NaN last
    x_tol = np.fmax(np.fmax(np.abs(cols[0]), np.abs(cols[1])), np.abs(cols[2]))
    x_tol = 1e-12 * np.fmax(1.0, x_tol)
    x0, x1, x2 = _sort3(*(np.where(x > x_tol, x, np.nan) for x in cols))
    x2[x2 == x1] = np.nan
    x1[x1 == x0] = np.nan
    x1, x2 = np.fmin(x1, x2), np.maximum(x1, x2)
    present = [~np.isnan(x) for x in (x0, x1, x2)]
    n_pos = present[0] + present[1].astype(np.intp) + present[2]
    if coeffs.c_rhs == 0.0:
        # x = 0 always solves the zero-forcing case; the cubic may carry it
        # inexactly, so insert it explicitly (at most two positive roots remain)
        x0, x1, x2 = np.zeros(len(x0)), x0, x1
        present = [np.ones(len(x0), bool)] + present[:2]
    n_roots = present[0] + present[1].astype(np.intp) + present[2]
    stable = np.column_stack([present[0], present[1] & (n_pos != 3), present[2]])

    amp = np.sqrt(np.column_stack([x0, x1, x2]))
    gamma = np.where(np.column_stack(present), 0.0, np.nan)
    if coeffs.c_rhs > 0.0:
        # every present root is positive
        b1 = np.broadcast_to(coeffs.b1, len(x0))
        for k, p in enumerate(present):
            a = amp[p, k]
            a_cubed = _pow(a, 3)
            gamma[p, k] = _libm(math.atan2, coeffs.a1 * a + coeffs.a2 * a_cubed,
                                b1[p] * a + coeffs.b2 * a_cubed)
    return n_roots, amp, gamma, stable


def _real_roots(p3: float, p2, p1, p0: float) -> np.ndarray:
    """Real roots of p3 x^3 + p2 x^2 + p1 x + p0 per entry of p2 and p1, NaN-padded (m, 3).

    The quadratic's closed form where p3 is negligible, Cardano's elsewhere:
    the one cubic solver of the sweep and of ``fracode``'s nonlinear steps.
    An overflow in libm raises ``OverflowError``; numpy's stays silent.
    """
    p2, p1 = np.atleast_1d(p2), np.atleast_1d(p1)
    xs = np.full((len(p2), 3), np.nan)
    with np.errstate(all="ignore"):
        scale = np.maximum(np.maximum(np.abs(p2), np.abs(p1)), max(abs(p0), 1e-300))
        quadratic = abs(p3) < 1e-14 * scale
        if quadratic.any():
            # the quadratic stands for a cubic (p3 != 0) only where it has a
            # real root and p3 x^3 is negligible at each of its roots x
            # (compared after division by x^2); elsewhere the cubic has a
            # root that the quadratic misses or misplaces
            quad = _quadratic_roots(p2[quadratic], p1[quadratic], p0)
            ax = np.abs(quad)
            terms = np.maximum(np.maximum(np.abs(p2[quadratic])[:, None],
                                          np.abs(p1[quadratic])[:, None] / ax),
                               abs(p0) / (ax * ax))
            kept = (p3 == 0.0) | (~np.isnan(quad[:, 0])
                                  & ~np.any(abs(p3) * ax > 1e-14 * terms, axis=1))
            xs[np.flatnonzero(quadratic)[kept], :2] = quad[kept]
            quadratic[quadratic] = kept
        cub = ~quadratic
        if cub.any():
            xs[cub] = _cardano_roots(p3, p2[cub], p1[cub], p0)
    return xs


def _root_list(amp, gamma, stable, count: int) -> list:
    """One detuning's roots as ``SteadyStateRoot`` objects, from its array rows."""
    return [SteadyStateRoot(amp=a, gamma=g, stable=s)
            for a, g, s in zip(amp[:count], gamma[:count], stable[:count])]


def solve_steady_amplitudes(coeffs: CubicCoeffs) -> list[SteadyStateRoot]:
    """Admissible (a >= 0) steady-state roots with phase and stability tags.

    The one-point case of the sweep's array solver; see ``ResponseBranch``
    for the phase and stability conventions.
    """
    try:
        n_roots, amp, gamma, stable = _steady_roots(coeffs, coeffs.cubic())
    except OverflowError as exc:
        raise _overflow(exc, coeffs) from exc
    return _root_list(amp[0].tolist(), gamma[0].tolist(), stable[0].tolist(), int(n_roots[0]))


@dataclass(frozen=True)
class ResponseBranch:
    """Detuning sweep result: root arrays per point plus located jump points.

    Row i describes ``deltas[i]``: ``n_roots[i]`` admissible roots, stored in
    ascending amplitude in the (n, 3) arrays ``amp`` (a >= 0), ``gamma``
    (phase) and ``stable``; entries past the count are NaN (False in
    ``stable``).  With three roots the columns are the lower, middle and
    upper roots, and the middle one is the unstable saddle branch.
    ``root_sets`` (per-point lists of ``SteadyStateRoot``) is built on first
    access.
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


def frequency_sweep(
    params: MmsParams,
    delta_grid,
    alpha: float | None = None,
    e_r: float | None = None,
    f: float | None = None,
) -> ResponseBranch:
    """Steady-state roots over a monotone detuning grid, with jump points.

    Optional alpha / e_r / f values override the base parameters for this
    sweep.  The cubic is built once for the whole grid and feeds both the
    roots and the discriminant.  The roots' Cardano closed form and phases
    call libm (``math``) per element, so they are bit-identical to one
    detuning at a time.  The discriminant is only signed: numpy products
    give its sign, and the nodes too close to zero to trust it are
    recomputed with libm (``_grid_discriminant``), so the sign changes are
    those of ``CubicCoeffs.discriminant``.  Each sign change between
    neighbouring nodes, or node where it is zero, is bisected to 1e-10 in
    plain floats (the same ``_cubic`` and ``_discriminant`` at one
    detuning).  On a 2-vCPU x86 machine with Python 3.11 the sweep costs
    about 0.93-0.98 us per detuning, timed in one process as the best of 7
    passes over the four 10001-point detuning sweeps of the benchmark's
    resonance-sweep workload at seed 1.  Most of it is libm calls through
    Python: the Cardano roots, and each root's ``pow`` and ``atan2``.

    A descending grid bisects each bracket from its other end to the same
    double, so it reports the ascending grid's folds in descending order
    (unless the discriminant is exactly zero at a node).  A fold pair
    closer together than the grid step can fall between two nodes and go
    unreported.  A cubic that overflows a double raises ``OverflowError``
    naming the parameters and the detuning range.
    """
    deltas = np.asarray(delta_grid, dtype=float)
    if deltas.ndim != 1 or deltas.size == 0:
        raise ValueError("delta grid must be a non-empty 1-D sequence")
    check_finite(delta_grid=deltas)
    if deltas.size > 1:
        steps = np.diff(deltas)
        if not (np.all(steps > 0) or np.all(steps < 0)):
            raise ValueError("delta grid must be strictly monotone")
    overrides = {"alpha": alpha, "e_r": e_r, "f": f}
    p = replace(params, **{name: value for name, value in overrides.items() if value is not None})

    try:
        coeffs = steady_state_cubic(p, deltas)
        cubic = coeffs.cubic()
        n_roots, amp, gamma, stable = _steady_roots(coeffs, cubic)
        disc = _grid_discriminant(*cubic)
        negative = disc < 0
        crossings = np.flatnonzero((disc[:-1] == 0.0) | (negative[:-1] != negative[1:])).tolist()
        # the discriminant at one float detuning, from the grid's coefficients
        shift = _slow_flow(p).shift
        fold = lambda delta: _discriminant(*_cubic(coeffs.a1, coeffs.a2, delta - shift,
                                                   coeffs.b2, coeffs.c_rhs))
        bifurcations = [bisect(fold, float(deltas[i]), float(deltas[i + 1]), 1e-10)
                        for i in crossings]
    except OverflowError as exc:
        raise _overflow(exc, f"{p}, delta in [{float(deltas[0])!r}, {float(deltas[-1])!r}]") from exc
    return ResponseBranch(deltas=deltas, n_roots=n_roots, amp=amp, gamma=gamma,
                          stable=stable, bifurcations=bifurcations)
