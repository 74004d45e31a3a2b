"""Fractional Kelvin-Voigt constitutive law.

The material is a Hookean spring in parallel with a Scott-Blair element,

    sigma(t) = E_inf * eps(t) + E_alpha * D^alpha eps(t),      0 < alpha <= 1,

where ``D^alpha`` is the fractional derivative of order ``alpha``.  Under a
quiescent start (eps(0) = 0) the Riemann-Liouville and Caputo flavours
coincide, so the time-domain evaluation works on strain increments (Caputo
form) and avoids the singular t^(-alpha) initial term.

The module provides the frequency-domain moduli, the tangent loss, the exact
stress under a ramp-hold strain, and an L1 finite-difference evaluation of
the stress for arbitrary sampled strain histories.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import check_finite_samples

__all__ = [
    "MaterialParams",
    "StrainProgram",
    "complex_modulus",
    "tangent_loss",
    "ramp_hold_strain",
    "ramp_hold_stress",
    "stress_history_l1",
]


@dataclass(frozen=True)
class MaterialParams:
    """Constants of the fractional Kelvin-Voigt law.

    ``e_inf`` and ``e_alpha`` are stored; the ratio ``e_r = e_alpha/e_inf``
    is always derived so the two representations cannot drift apart.
    ``alpha`` may be a 1-D array of orders for the moduli
    (``complex_modulus``, ``tangent_loss``), which then give one value per
    order; every other consumer needs a single order.
    """

    e_inf: float = 1.0
    e_alpha: float = 1.0
    alpha: float = 0.5

    def __post_init__(self):
        if not (self.e_inf > 0):
            raise ValueError(f"e_inf must be positive, got {self.e_inf}")
        if not (self.e_alpha >= 0):
            raise ValueError(f"e_alpha must be non-negative, got {self.e_alpha}")
        alpha = np.atleast_1d(self.alpha)
        bad = alpha[~((alpha > 0) & (alpha <= 1))]
        if bad.size:
            raise ValueError(f"alpha must lie in (0, 1], got {bad[0]}")

    @property
    def e_r(self) -> float:
        return self.e_alpha / self.e_inf

    @classmethod
    def from_ratio(cls, e_r: float, alpha: float) -> "MaterialParams":
        """The material with E_inf = 1 and E_alpha = e_r."""
        return cls(e_alpha=e_r, alpha=alpha)


@dataclass(frozen=True)
class StrainProgram:
    """Uniform strain samples ``samples[n] = eps(n dt)`` from a quiescent start."""

    samples: np.ndarray = field(repr=False)
    dt: float

    def __post_init__(self):
        if not (self.dt > 0 and math.isfinite(self.dt)):
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        if len(self.samples) < 2:
            raise ValueError("sampled program needs at least 2 samples")
        check_finite_samples("samples", self.samples)
        if self.samples[0] != 0.0:
            raise ValueError("sampled strain must start from a quiescent state, strain(0) = 0")

    @classmethod
    def sampled(cls, values, dt: float) -> "StrainProgram":
        return cls(np.asarray(values, dtype=float), dt)


def _libm(fn, *args):
    """``fn`` from ``math`` applied elementwise over 1-D arrays (scalars repeat).

    numpy's SIMD pow, cos, arccos, cosh, arctan2 and friends can differ from
    libm in the last bit.  Routing such calls through ``math`` keeps every
    grid point bit-identical to the same formula evaluated one point at a
    time.
    """
    sizes = {len(a) for a in args if np.ndim(a)}
    if not sizes:
        return fn(*args)
    if len(sizes) > 1:
        raise ValueError(f"{fn.__name__} over arrays of unequal lengths {sorted(sizes)}")
    cols = [a.tolist() if np.ndim(a) else itertools.repeat(a) for a in args]
    return np.fromiter(map(fn, *cols), dtype=float, count=sizes.pop())


def _pow(x, k):
    """x**k with libm's rounding, elementwise for arrays; a float x takes no numpy call.

    A scalar k goes to ``math.pow`` as a float, converted once rather than per element.
    """
    if isinstance(x, float):
        return math.pow(x, k)
    return _libm(math.pow, x, k if np.ndim(k) else float(k))


def complex_modulus(mat: MaterialParams, omega):
    """Storage and loss moduli of the fractional Kelvin-Voigt element.

    G'(w)  = E_inf + E_alpha * w^alpha * cos(alpha*pi/2)
    G''(w) =         E_alpha * w^alpha * sin(alpha*pi/2)

    ``omega`` may be a 1-D array, and ``mat.alpha`` a 1-D array of orders
    (of the same length, when both are); the moduli are then arrays, each
    entry equal to the scalar evaluation.
    """
    omega = np.asarray(omega, dtype=float)
    bad = omega[~(omega > 0)]
    if bad.size:
        raise ValueError(f"omega must be positive, got {bad[0]}")
    wa = _pow(omega, mat.alpha)
    half = 0.5 * math.pi * mat.alpha
    storage = mat.e_inf + mat.e_alpha * wa * _libm(math.cos, half)
    loss = mat.e_alpha * wa * _libm(math.sin, half)
    return storage, loss


def tangent_loss(mat: MaterialParams, omega):
    """Ratio of dissipated to stored energy per cycle, tan(delta) = G''/G'.

    Elementwise over the arrays ``complex_modulus`` accepts.
    """
    storage, loss = complex_modulus(mat, omega)
    return loss / storage


def ramp_hold_strain(rate: float, t_ramp: float, t):
    """The ramp-hold strain eps(t) = rate * min(t, t_ramp)."""
    if not math.isfinite(rate):
        raise ValueError("ramp rate must be finite")
    if not (t_ramp > 0):
        raise ValueError(f"t_ramp must be positive, got {t_ramp}")
    return rate * np.minimum(np.asarray(t, dtype=float), t_ramp)


def ramp_hold_stress(mat: MaterialParams, rate: float, t_ramp: float, t):
    """Exact stress under eps(t) = rate*t up to t_ramp, held constant after.

    For t < t_ramp:
        sigma = E_inf*rate*t + E_alpha*rate * t^(1-alpha) / Gamma(2-alpha)
    For t >= t_ramp:
        sigma = E_inf*rate*t_ramp
              + E_alpha*rate * [t^(1-alpha) - (t-t_ramp)^(1-alpha)] / Gamma(2-alpha)

    The alpha = 1 limit is the classical Kelvin-Voigt response
    sigma = E_inf*eps + E_alpha*d(eps)/dt and is evaluated as such.
    """
    if not (t_ramp > 0):
        raise ValueError(f"t_ramp must be positive, got {t_ramp}")
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr < 0):
        raise ValueError("time must be non-negative")

    ramping = t_arr < t_ramp
    elastic = mat.e_inf * rate * np.where(ramping, t_arr, t_ramp)
    if mat.alpha == 1.0:
        viscous = mat.e_alpha * rate * np.where(ramping, 1.0, 0.0)
        # the hold onset itself still carries the full ramp-rate dashpot stress
        viscous = np.where(t_arr == t_ramp, mat.e_alpha * rate, viscous)
    else:
        g = math.gamma(2.0 - mat.alpha)
        e = 1.0 - mat.alpha
        tail = np.where(ramping, 0.0, np.maximum(t_arr - t_ramp, 0.0) ** e)
        viscous = mat.e_alpha * rate * (t_arr ** e - tail) / g
    out = elastic + viscous
    return out if out.ndim else float(out)


def stress_history_l1(mat: MaterialParams, program: StrainProgram) -> np.ndarray:
    """Stress samples for a sampled strain program via the L1 scheme.

    sigma_n = E_inf*eps_n + E_alpha * D^alpha eps |_n, with the fractional
    term discretized on strain increments.  Exact (to round-off) whenever the
    strain is piecewise linear with kinks on grid nodes; order 2-alpha on
    smooth strain histories.
    """
    from .fracode import caputo_l1_series  # shared L1 kernel

    eps = program.samples
    if mat.alpha == 1.0:
        rate = np.gradient(eps, program.dt)
        return mat.e_inf * eps + mat.e_alpha * rate
    frac = caputo_l1_series(eps, program.dt, mat.alpha)
    return mat.e_inf * eps + mat.e_alpha * frac
