"""Cantilever eigenproblem, mode shapes, and single-mode reduction coefficients.

The transverse eigenfunctions of the clamped-free beam (optionally carrying a
tip mass M and tip rotatory inertia J, both dimensionless) have the form

    X(s) = A (sin(b s) - sinh(b s)) + B (cos(b s) - cosh(b s)),   s in [0, 1],

with natural frequency w = b^2.  The tip boundary rows fix the ratio B/A and
the characteristic equation for b.  Without a tip mass the characteristic
function reduces to the textbook form 1 + cos(b) cosh(b).

Modes are normalized so that the shape integral int_0^1 phi^2 ds equals one;
with that convention the reduced single-mode model

    M_t q'' + Jnl (q'' q^2 + q q'^2) + K_l q + E_r C_l D^a q
        + 2 K_nl q^3 + (E_r C_nl / 2) (D^a q^3 + 3 q^2 D^a q) = -M_b Vb''

has coefficients given by the quadratures exposed here.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import EigenSearchError, QuadratureError, check_count

__all__ = [
    "TipConfig",
    "ModeShape",
    "ModalCoefficients",
    "characteristic_residual",
    "characteristic_scale",
    "solve_eigen",
    "build_mode",
    "mode_shape_eval",
    "modal_coefficients",
]

# beyond this eigenvalue the shape is evaluated through split exponentials to
# dodge the cosh/sinh cancellation blow-up
_EXP_SPLIT_BETA = 15.0

# spacing of the beta grid on which the eigen search looks for sign changes
_GRID_STEP = 0.01

# Gauss-Legendre nodes per quadrature panel, and the most times the adaptive
# quadrature doubles its panel count before it gives up
_GAUSS_NODES = 12
_MAX_REFINE = 16


@dataclass(frozen=True)
class TipConfig:
    """Dimensionless tip mass and tip rotatory inertia."""

    m_tip: float = 0.0
    j_tip: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.m_tip) and self.m_tip >= 0):
            raise ValueError(f"m_tip must be finite and non-negative, got {self.m_tip}")
        if not (math.isfinite(self.j_tip) and self.j_tip >= 0):
            raise ValueError(f"j_tip must be finite and non-negative, got {self.j_tip}")


def _char_terms(beta: float, tip: TipConfig) -> tuple[float, float, float, float]:
    s, c = math.sin(beta), math.cos(beta)
    sh, ch = math.sinh(beta), math.cosh(beta)
    t0 = 1.0 + c * ch
    t1 = -tip.m_tip * beta * (s * ch - c * sh)
    t2 = -tip.j_tip * beta**3 * ch * (s - sh)
    t3 = tip.m_tip * tip.j_tip * beta**4 * (1.0 - c * ch - s * sh)
    return t0, t1, t2, t3


def characteristic_residual(beta: float, tip: TipConfig) -> float:
    """Characteristic function of the tip-loaded cantilever; zero at eigenvalues.

    Single scalar reduction of the two tip boundary rows.  Special cases:
    M = J = 0 gives 1 + cos(b) cosh(b); the limit b -> 0 gives 2.
    """
    if not (beta > 0):
        raise ValueError(f"beta must be positive, got {beta}")
    return math.fsum(_char_terms(beta, tip))


def characteristic_scale(beta: float, tip: TipConfig) -> float:
    """Magnitude scale of the characteristic function terms at beta.

    Residuals should be judged relative to this (the terms grow like
    cosh(beta), so an absolute tolerance is meaningless for large beta).
    """
    return sum(abs(t) for t in _char_terms(beta, tip)) + 1.0


def bisect(f, lo: float, hi: float, tol: float) -> float:
    """Root of f on a sign-change bracket [lo, hi] (or [hi, lo]: hi < lo is allowed).

    Halves the bracket until it is narrower than ``tol`` and returns its
    midpoint; returns ``lo`` or a midpoint at once where f is exactly zero.
    A reversed bracket walks the same halves to the same midpoint.
    """
    flo = f(lo)
    if flo == 0.0:
        return lo
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if abs(hi - lo) < tol:
            return mid
        fmid = f(mid)
        if fmid == 0.0:
            return mid
        if (flo < 0) == (fmid < 0):
            lo, flo = mid, fmid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def solve_eigen(tip: TipConfig, n_modes: int = 1, search_max_beta: float = 20.0) -> list[float]:
    """First ``n_modes`` positive eigenvalues beta, in ascending order.

    Sign changes of the characteristic function are located on a uniform
    beta grid of spacing 0.01, bracketed roots are bisected to 1e-12 and
    polished with one Newton step (centered finite-difference slope).
    ``n_modes`` is an integer >= 1 and ``search_max_beta`` positive
    (``ValueError`` otherwise); fewer than ``n_modes`` roots below
    ``search_max_beta`` raise ``EigenSearchError``.
    """
    check_count("n_modes", n_modes)
    if not (search_max_beta > 0):
        raise ValueError(f"search_max_beta must be positive, got {search_max_beta}")
    f = lambda b: characteristic_residual(b, tip)
    betas: list[float] = []
    b = _GRID_STEP
    flo = f(b)
    while b < search_max_beta and len(betas) < n_modes:
        b_next = b + _GRID_STEP
        f_next = f(b_next)
        if flo == 0.0:
            betas.append(b)
        elif (flo < 0) != (f_next < 0):
            root = bisect(f, b, b_next, 1e-12)
            h = 1e-7 * max(1.0, root)
            slope = (f(root + h) - f(root - h)) / (2 * h)
            if slope != 0.0:
                polished = root - f(root) / slope
                if b <= polished <= b_next:
                    root = polished
            betas.append(root)
        b, flo = b_next, f_next
    if len(betas) < n_modes:
        raise EigenSearchError(
            f"found {len(betas)} eigenvalue(s) below beta = {search_max_beta}, "
            f"need {n_modes}; increase search_max_beta"
        )
    return betas


def _moment_b_factor(beta: float, j_tip: float) -> float:
    """B's factor c + ch - J b^3 (s - sh) in the published tip-moment row, where B/A = -num / it."""
    return math.cos(beta) + math.cosh(beta) - j_tip * beta**3 * (math.sin(beta) - math.sinh(beta))


def _b_over_a(beta: float, j_tip: float) -> float:
    num = math.sin(beta) + math.sinh(beta) + j_tip * beta**3 * (math.cos(beta) - math.cosh(beta))
    return -num / _moment_b_factor(beta, j_tip)


@dataclass(frozen=True)
class ModeShape:
    """One normalized eigenmode: eigenvalue, shape ratio, and scale factor."""

    beta: float
    coeff_b_over_a: float
    norm: float
    tip: TipConfig


def _shape_eval_raw(beta: float, b_over_a: float, j_tip: float, s, order: int):
    """Derivative of order 0..3 of the un-normalized shape (A = 1)."""
    s = np.asarray(s, dtype=float)
    x = beta * s
    A, B = 1.0, b_over_a
    sin, cos = np.sin(x), np.cos(x)
    if beta <= _EXP_SPLIT_BETA:
        sinh, cosh = np.sinh(x), np.cosh(x)
        hyp_even = A * sinh + B * cosh   # pairs with order 0 and 2
        hyp_odd = A * cosh + B * sinh    # pairs with order 1 and 3
    else:
        # sinh/cosh recombined as P e^x + M e^-x.  P = (1 + B)/2 suffers a
        # e^(-2 beta) cancellation when B -> -1, so expand it exactly:
        # with B = -num/den (den from _moment_b_factor), 1 + B = (den - num)/den,
        # and den - num regroups into individually benign terms (cosh - sinh = e^-beta).
        sb, cb = math.sin(beta), math.cos(beta)
        jb3 = j_tip * beta**3
        den_minus_num = (cb - sb) + math.exp(-beta) - jb3 * (sb + cb) + jb3 * math.exp(beta)
        P = 0.5 * den_minus_num / _moment_b_factor(beta, j_tip)
        M = 0.5 * (B - A)
        ep, em = np.exp(x), np.exp(-x)
        hyp_even = P * ep + M * em
        hyp_odd = P * ep - M * em
    if order == 0:
        return A * sin + B * cos - hyp_even
    if order == 1:
        return beta * (A * cos - B * sin - hyp_odd)
    if order == 2:
        return beta**2 * (-A * sin - B * cos - hyp_even)
    if order == 3:
        return beta**3 * (-A * cos + B * sin - hyp_odd)
    raise ValueError(f"derivative order must be in 0..3, got {order}")


def mode_shape_eval(mode: ModeShape, s, deriv_order: int = 0):
    """Evaluate phi or an analytic derivative (orders 0..3) at s in [0, 1]."""
    s_arr = np.asarray(s, dtype=float)
    if np.any(s_arr < 0) or np.any(s_arr > 1):
        raise ValueError("s must lie in [0, 1]")
    out = mode.norm * _shape_eval_raw(mode.beta, mode.coeff_b_over_a, mode.tip.j_tip, s_arr, deriv_order)
    return out if out.ndim else float(out)


@functools.cache
def _gauss_rule() -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], computed once (read-only)."""
    x, w = np.polynomial.legendre.leggauss(_GAUSS_NODES)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _gauss_panels(f, n_panels: int) -> float:
    """Composite Gauss-Legendre quadrature of f over [0, 1]."""
    x, w = _gauss_rule()
    h = 1.0 / n_panels
    starts = np.arange(n_panels) * h
    nodes = (starts[:, None] + 0.5 * h * (x[None, :] + 1.0)).ravel()
    vals = f(nodes).reshape(n_panels, _GAUSS_NODES)
    return float(0.5 * h * np.sum(vals @ w))


def _adaptive_quad(f, rel_tol: float = 1e-10) -> float:
    prev = _gauss_panels(f, 4)
    n_panels = 8
    for _ in range(_MAX_REFINE):
        cur = _gauss_panels(f, n_panels)
        if abs(cur - prev) <= rel_tol * max(abs(cur), 1e-300):
            return cur
        prev, n_panels = cur, n_panels * 2
    raise QuadratureError(f"panel refinement stalled after {_MAX_REFINE} doublings")


def build_mode(tip: TipConfig, beta: float) -> ModeShape:
    """Construct the normalized mode for a given eigenvalue.

    The scale factor enforces int_0^1 phi^2 ds = 1 with the sine coefficient
    kept positive.
    """
    ba = _b_over_a(beta, tip.j_tip)
    raw_sq = _adaptive_quad(lambda s: _shape_eval_raw(beta, ba, tip.j_tip, s, 0) ** 2, rel_tol=1e-13)
    return ModeShape(beta=beta, coeff_b_over_a=ba, norm=1.0 / math.sqrt(raw_sq), tip=tip)


@dataclass(frozen=True)
class ModalCoefficients:
    """Quadratures of one normalized mode entering the single-mode model.

    ``k_l == c_l`` and ``k_nl == c_nl`` hold exactly: each pair is one
    integral assigned twice (stiffness and damping share the kernel).
    """

    m_modal: float
    j_nl: float
    k_l: float
    c_l: float
    k_nl: float
    c_nl: float
    m_b: float


def modal_coefficients(mode: ModeShape) -> ModalCoefficients:
    """Adaptive Gauss-Legendre evaluation of the seven reduction coefficients.

    M_t  = int phi^2 + M phi(1)^2 + J phi'(1)^2        (= 1 + tip terms)
    Jnl  = J phi'(1)^4
    K_l  = C_l  = int phi''^2
    K_nl = C_nl = int phi'^2 phi''^2
    M_b  = int phi + M phi(1)
    """
    tip = mode.tip
    phi = lambda s, k: mode_shape_eval(mode, s, k)
    int_phi_sq = _adaptive_quad(lambda s: phi(s, 0) ** 2)
    kc_l = _adaptive_quad(lambda s: phi(s, 2) ** 2)
    kc_nl = _adaptive_quad(lambda s: phi(s, 1) ** 2 * phi(s, 2) ** 2)
    int_phi = _adaptive_quad(lambda s: phi(s, 0))
    p1 = float(phi(1.0, 0))
    dp1 = float(phi(1.0, 1))
    return ModalCoefficients(
        m_modal=int_phi_sq + tip.m_tip * p1**2 + tip.j_tip * dp1**2,
        j_nl=tip.j_tip * dp1**4,
        k_l=kc_l,
        c_l=kc_l,
        k_nl=kc_nl,
        c_nl=kc_nl,
        m_b=int_phi + tip.m_tip * p1,
    )

