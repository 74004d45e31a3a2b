"""Direct time integration of the fractionally damped single-mode oscillator.

The fractional term is discretized with the L1 scheme on a uniform grid
(order 2-alpha, built from piecewise-linear history interpolation), the
inertia with the average-acceleration Newmark method (gamma = 1/2,
beta = 1/4, non-dissipative, second order).  The unknown displacement at the
new time level enters the L1 sum only through the leading weight, so the
linear model needs one scalar solve per step.  In the nonlinear model each
step's residual is a cubic in the new displacement; its four coefficients
are built once per step and damped Newton with the analytic slope solves it,
in one iteration on typical steps.

Every L1 sum goes through one kernel, ``L1History``, with one channel (the
linear model's q increments) or two (the nonlinear model's q and q^3
increments) over one weight sequence: direct sums in Python floats over the
open block of up to 31 increments, plus dyadic blocks of the older history
added to every channel at once, by a dense Toeplitz product up to 128
increments and by FFT above, with transforms sized to the targets that
exist.  That is O(N log^2 N) over N steps instead of the O(N^2) direct sum,
and equal to it up to round-off (about 1e-13 relative).  The kernel is
stepped only a block of 32 increments at a time: an integrator's inner loop
over a block's steps reads and appends to the block's Python lists without
a call into the kernel, and one ``close_block()`` call ends the block.
Each integrator has one such block loop for every order: at alpha = 1 a
step takes the classical Newmark velocity for D^alpha q instead of the L1
sum, and the run keeps no history.  On a 2-vCPU x86 machine with
Python 3.11 a 200k-step linear run takes about 0.5 s, and a nonlinear step
about 3.5 us (fractional) or 1.3 us (alpha = 1); the machine's speed
drifts by up to 1.6x.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from functools import partial
from operator import mul

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .constitutive import MaterialParams
from .errors import InsufficientDataError, StepFailureError, check_finite
from .modes import ModalCoefficients, bisect

__all__ = [
    "GridSpec",
    "HarmonicForcing",
    "Trajectory",
    "EnvelopeFit",
    "l1_weights",
    "L1History",
    "caputo_l1",
    "caputo_l1_series",
    "integrate_linear",
    "integrate_nonlinear",
    "envelope_fit",
]


@dataclass(frozen=True)
class GridSpec:
    """Uniform time grid with n_steps intervals of width dt."""

    dt: float
    n_steps: int

    def __post_init__(self):
        if not (self.dt > 0 and math.isfinite(self.dt)):
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        if self.n_steps < 1:
            raise ValueError(f"n_steps must be >= 1, got {self.n_steps}")
        if not math.isfinite(self.dt * self.n_steps):
            raise ValueError("total time dt * n_steps must be finite")

    def times(self) -> np.ndarray:
        return np.arange(self.n_steps + 1) * self.dt


@dataclass(frozen=True)
class HarmonicForcing:
    """f(t) = amplitude * cos(frequency * t + phase), sampled exactly at nodes."""

    amplitude: float
    frequency: float
    phase: float = 0.0

    def values(self, t) -> np.ndarray:
        return self.amplitude * np.cos(self.frequency * np.asarray(t, dtype=float) + self.phase)


@dataclass(frozen=True)
class Trajectory:
    """Uniform-grid displacement/velocity/acceleration samples."""

    grid: GridSpec
    q: np.ndarray = field(repr=False)
    v: np.ndarray = field(repr=False)
    a: np.ndarray = field(repr=False)

    @property
    def t(self) -> np.ndarray:
        return self.grid.times()


def l1_weights(alpha: float, n: int) -> np.ndarray:
    """L1 history weights b_j = (j+1)^(1-alpha) - j^(1-alpha), j = 0..n-1.

    Strictly decreasing with b_0 = 1 and telescoping sum n^(1-alpha).
    alpha = 1 is excluded: there the integrators' steps take the classical
    first derivative instead of an L1 sum.
    """
    if not (0 < alpha < 1):
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    j = np.arange(n + 1, dtype=float)
    return np.diff(j ** (1.0 - alpha))


# lags inside the current block of this many increments are summed directly
_BASE = 32
# dyadic squares up to this size reach the far sums by one dense Toeplitz
# product, larger ones by FFT: below it numpy's FFT call overhead costs more
# than the O(L^2) product, above it the FFT keeps the kernel O(N log^2 N)
_DENSE = 128
# the alpha = 1 steps have no history: they zip this in place of a block's
# near weights and far sums
_NO_HISTORY = (None,) * _BASE


def _l1_constants(alpha: float, dt: float, n: int) -> tuple[np.ndarray, float]:
    """The L1 weights b_0..b_m (m = max(n, _BASE)) and dt^(-alpha)/Gamma(2-alpha)."""
    if not (dt > 0 and math.isfinite(dt)):
        raise ValueError(f"dt must be positive and finite, got {dt}")
    return l1_weights(alpha, max(n, _BASE) + 1), dt ** (-alpha) / math.gamma(2.0 - alpha)


class L1History:
    """L1 history sums over one or two streams of increments, a block at a time.

    Each channel k is a stream x_0, x_1, ... of increments, and all channels
    share one weight sequence and one step count.  After n increments the
    lag sum of channel k is sum_{j=1..n} b_j x_{n-j}, the part of its L1 sum
    that is known before the next increment x_n (whose weight is b_0 = 1)
    arrives.  ``weights`` holds b_0..b_m (m >= capacity) and ``scale`` the
    factor dt^(-alpha)/Gamma(2-alpha), so the Caputo derivative after x_n is
    ``scale * (x_n + lag sum)``.

    A stepper feeds the history a block of _BASE increments at a time.
    While a block is open, ``blocks[k]`` is the list of channel k's
    increments in it and ``block_fars[k][r]`` the far part of the lag sum
    of its r-th target (every lag that reaches back before the block), so
    after r increments of the block the lag sum is

        block_fars[k][r] + sum(map(mul, near_weights[r], blocks[k]))

    with ``near_weights[r]`` = [b_r, ..., b_1].  The stepper appends to the
    block lists and calls ``close_block()`` once they hold _BASE increments;
    ``block_fars`` is then a new list per channel.  ``close_block()`` is the
    kernel's only check: every channel's list must be full, and the block
    must fit the capacity.  A run that ends inside a block leaves it open.

    The far sums come from the blocked convolution of Hairer, Lubich and
    Schlichte (SIAM J. Sci. Stat. Comput. 6, 1985).  When the block ending
    at i closes, the dyadic source block [i-L, i) with i/L odd
    (L = _BASE * 2^k) is added to the targets [i, i+L) that exist, for
    every channel at once: by one dense Toeplitz product for L <= _DENSE,
    by FFT above, of length L + m (m targets) rounded up to 2^j or 3 * 2^j.
    Each (source, target) pair is counted exactly once, at the level where
    their blocks are siblings, so the result equals the direct sum up to
    round-off (about 1e-13 relative), at O(n log^2 n) total cost.  Numpy
    runs once per closed block, on (channels, capacity) arrays of
    increments and far sums; between closures everything is Python floats.
    """

    def __init__(self, alpha: float, dt: float, capacity: int, channels: int = 1):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if channels not in (1, 2):
            raise ValueError(f"channels must be 1 or 2, got {channels}")
        self.weights, self.scale = _l1_constants(alpha, dt, capacity)
        self.capacity = capacity
        self.channels = channels
        self._closed = 0                                  # increments in closed blocks
        self._x = np.zeros((channels, capacity))
        self._far = np.zeros((channels, capacity + 1))   # far-field part of each target's sums
        self.blocks = [[] for _ in range(channels)]
        self.block_fars = self._far[:, :_BASE].tolist()
        b = self.weights[:_BASE].tolist()
        self.near_weights = [b[r:0:-1] for r in range(_BASE)]
        self._toeplitz = None                             # built at the first closed block
        self._spectra = {}                                # FFT length -> kernel spectrum

    def close_block(self) -> None:
        """Close the open block, once every channel's list holds _BASE increments."""
        i = self._closed + _BASE
        if i > self.capacity:
            raise ValueError(f"L1History is full ({self.capacity} increments)")
        if any(len(block) != _BASE for block in self.blocks):
            raise ValueError(f"a block closes at {_BASE} increments per channel, got "
                             f"{[len(block) for block in self.blocks]}")
        for k, block in enumerate(self.blocks):
            self._x[k, i - _BASE:i] = block
            block.clear()
        self._closed = i
        size = _BASE
        while (i // size) % 2 == 0:
            size *= 2
        m = min(size, self.capacity + 1 - i)   # targets that exist
        source = self._x[:, i - size:i]
        if size <= _DENSE:
            if self._toeplitz is None:
                self._toeplitz = self._build_toeplitz()
            self._far[:, i:i + m] += (self._toeplitz[:m, _DENSE - size:] @ source.T).T
        else:
            n_fft = _fft_length(size + m)
            spec = self._spectra.get(n_fft)
            if spec is None:
                spec = self._spectra[n_fft] = np.fft.rfft(self._lag_kernel(n_fft))
            y = np.fft.irfft(np.fft.rfft(source, n_fft) * spec, n_fft)
            self._far[:, i:i + m] += y[:, size:size + m]
        self.block_fars = self._far[:, i:i + _BASE].tolist()

    def _lag_kernel(self, length: int) -> np.ndarray:
        """b_1..b_{length - 1} at their lags, zero at lag 0 and past the capacity.

        Lag 0 never pairs a source block with a target block, and a weight
        past the capacity reaches only targets that do not exist.  Source
        block L's targets j < m need lags up to L + m - 1, so a circular
        convolution of ``length`` >= L + m wraps none of them.
        """
        kernel = np.zeros(length)
        b = self.weights[1:length]
        kernel[1:1 + b.size] = b
        return kernel

    def _build_toeplitz(self) -> np.ndarray:
        """The _DENSE x _DENSE matrix of lags _DENSE + t - s, target t, source s.

        Its top-right L x L corner, rows t and columns _DENSE - L + s, holds
        lags L + t - s: the square of a closed block of size L <= _DENSE.
        """
        lags = sliding_window_view(self._lag_kernel(2 * _DENSE)[1:], _DENSE)
        return lags[:, ::-1].copy()


def _fft_length(k: int) -> int:
    """The least 2^j or 3 * 2^j that is >= k (k >= 3)."""
    n = 1 << (k - 1).bit_length()
    return 3 * n // 4 if 3 * n // 4 >= k else n


def caputo_l1_series(samples, dt: float, alpha: float) -> np.ndarray:
    """L1 Caputo derivative on every node of a sampled history (zero at t=0).

        D^a q(t_n) ~= dt^(-a)/Gamma(2-a) * sum_j b_j (q_{n-j} - q_{n-j-1})

    Exact to round-off when the samples come from a piecewise-linear signal
    with kinks on grid nodes; order 2-alpha on smooth signals.  All nodes are
    evaluated at once by one FFT convolution of the increments with the
    ``L1History`` weights; its round-off is about 1e-13 of the largest
    node's sum of |b_j (q_{n-j} - q_{n-j-1})|, spread over every node.
    """
    q = np.asarray(samples, dtype=float)
    if q.size < 2:
        raise ValueError("need at least two samples of history")
    n = q.size - 1
    weights, scale = _l1_constants(alpha, dt, n)
    size = 1 << (2 * n - 1).bit_length()   # no wrap-around into the first n outputs
    conv = np.fft.irfft(np.fft.rfft(np.diff(q), size)
                        * np.fft.rfft(weights[:n], size), size)
    out = np.zeros(n + 1)
    out[1:] = conv[:n] * scale
    return out


def caputo_l1(samples, dt: float, alpha: float) -> float:
    """L1 approximation of the order-alpha Caputo derivative at the last node."""
    return float(caputo_l1_series(samples, dt, alpha)[-1])


def _fields(name: str, record) -> dict:
    """A dataclass's fields as keyword arguments, each named ``name.field``."""
    return {f"{name}.{key}": value for key, value in vars(record).items()}


def _forcing_samples(forcing, grid: GridSpec) -> np.ndarray:
    if forcing is None:
        return np.zeros(grid.n_steps + 1)
    if isinstance(forcing, HarmonicForcing):
        check_finite(**_fields("forcing", forcing))
        return forcing.values(grid.times())
    f = np.asarray(forcing, dtype=float)
    if f.shape != (grid.n_steps + 1,):
        raise ValueError(
            f"sampled forcing must have n_steps+1 = {grid.n_steps + 1} values, got {f.shape}"
        )
    bad = np.flatnonzero(~np.isfinite(f))
    if bad.size:
        raise ValueError(f"sampled forcing must be finite, got {f[bad[0]]} at node {bad[0]}")
    return f


def integrate_linear(
    c_l: float,
    k_l: float,
    e_r: float,
    alpha: float,
    q0: float,
    v0: float,
    grid: GridSpec,
    forcing=None,
) -> Trajectory:
    """Solve q'' + E_r c_l D^alpha q + k_l q = f(t) from (q0, v0).

    The new displacement appears linearly in the Newmark/L1 closure, so each
    step is one scalar solve.  The initial acceleration comes from the
    equation at t = 0 with D^alpha q(0) = 0 (alpha < 1) or D^1 q(0) = v0.
    One loop steps a history block (``L1History``) at a time; at alpha = 1
    each step's damping term is the classical viscous one, with Newmark's
    velocity for D^1 q = q', and no history is kept.
    """
    check_finite(c_l=c_l, k_l=k_l, e_r=e_r, q0=q0, v0=v0)
    if not (k_l > 0):
        raise ValueError(f"k_l must be positive, got {k_l}")
    if e_r < 0:
        raise ValueError(f"e_r must be non-negative, got {e_r}")
    if not (0 < alpha <= 1):
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    dt, n = grid.dt, grid.n_steps
    f = _forcing_samples(forcing, grid).tolist()
    qi, vi = float(q0), float(v0)
    w0 = 4.0 / dt**2
    half_dt = 0.5 * dt
    damp = e_r * c_l

    classical = alpha == 1.0
    if classical:
        # damping on Newmark's velocity g (q1 - qi) - vi: its q1 part is ca
        ai = f[0] - damp * vi - k_l * qi
        ca, g = 2.0 * damp / dt, 2.0 / dt
        near = fars = _NO_HISTORY
    else:
        ai = f[0] - k_l * qi
        history = L1History(alpha, dt, n)
        near, (block,) = history.near_weights, history.blocks
        ca = damp * history.scale
    lhs = w0 + ca + k_l          # ca: the new level's damping (b_0 = 1 in the L1 sum)
    q, v, a = array("d", [qi]), array("d", [vi]), array("d", [ai])
    for start in range(0, n, _BASE):
        if not classical:
            (fars,) = history.block_fars
        for b_near, far, f1 in zip(near, fars, f[start + 1:start + _BASE + 1]):
            if classical:
                drag = damp * (g * qi + vi)
            else:
                drag = ca * (qi - (far + sum(map(mul, b_near, block))))
            q1 = (f1 + w0 * (qi + dt * vi) + ai + drag) / lhs
            a1 = w0 * (q1 - qi - dt * vi) - ai
            vi = vi + half_dt * (ai + a1)
            if not classical:
                block.append(q1 - qi)
            qi, ai = q1, a1
            q.append(qi)
            v.append(vi)
            a.append(ai)
        if not classical and len(block) == _BASE:
            history.close_block()
    return Trajectory(grid=grid, q=np.array(q), v=np.array(v), a=np.array(a))


# integrate_nonlinear's Newton solve: residual floor and iteration cap per step
_NEWTON_TOL = 1e-10
_MAX_NEWTON = 50


def integrate_nonlinear(
    coeffs: ModalCoefficients,
    mat: MaterialParams,
    q0: float,
    v0: float,
    grid: GridSpec,
    base_accel: HarmonicForcing | None = None,
) -> Trajectory:
    """Integrate the full single-mode model under harmonic base acceleration.

    M_t q'' + Jnl (q'' q^2 + q q'^2) + K_l q + E_r C_l D^a q
        + 2 K_nl q^3 + (E_r C_nl / 2) (D^a q^3 + 3 q^2 D^a q) = -M_b Vb''(t)

    D^a q^3 is the L1 sum over the stored q^3 history (the operator applied
    to the cubed signal, not expanded).  With Newmark's q'' and q' and the
    L1 (or, at alpha = 1, Newmark) derivatives all polynomial in the new
    displacement u, each step's residual is a cubic in d = u - q_i whose
    coefficients are built once per step from ``_step_model``'s constants.
    It is solved by Newton with the analytic slope, both evaluated by
    Horner's rule, to a residual below max(1e-10, 64 eps M_t (4/dt^2)
    max(|q_i|, dt |v_i|, 1)): one undamped step, then damped steps up to 50
    iterations in all.  If Newton stalls, a sign-change bracket plus
    bisection is tried before ``StepFailureError``.  One loop steps the
    two-channel history (q and q^3 increments) a block at a time; at
    alpha = 1 each step takes the classical values of D^a q and D^a q^3
    instead of the L1 sums, and no history is kept.
    """
    check_finite(q0=q0, v0=v0, e_r=mat.e_r, **_fields("coeffs", coeffs))
    if base_accel is not None:
        check_finite(**_fields("base_accel", base_accel))
    dt, n = grid.dt, grid.n_steps
    alpha, e_r = mat.alpha, mat.e_r
    mt, jnl = coeffs.m_modal, coeffs.j_nl
    kl, cl, knl, cnl, mb = coeffs.k_l, coeffs.c_l, coeffs.k_nl, coeffs.c_nl, coeffs.m_b
    t_nodes = grid.times()
    rhs_force = (-mb * base_accel.values(t_nodes) if base_accel is not None
                 else np.zeros(n + 1)).tolist()

    qi, vi = float(q0), float(v0)
    classical = alpha == 1.0
    # governing equation at t = 0; the fractional history is empty, but the
    # classical path keeps its instantaneous viscous terms
    num0 = rhs_force[0] - jnl * qi * vi**2 - kl * qi - 2.0 * knl * qi**3
    if classical:
        num0 -= e_r * cl * vi + 3.0 * e_r * cnl * qi**2 * vi
    ai = num0 / (mt + jnl * qi**2)
    q, v, a = array("d", [qi]), array("d", [vi]), array("d", [ai])

    if classical:
        scale = None
        near = far_q = far_c = _NO_HISTORY
    else:
        history = L1History(alpha, dt, n, channels=2)
        scale, near, (block_q, block_c) = history.scale, history.near_weights, history.blocks
    ca, c3, c2q, c1q2, c1k, mt, jnl, kl, knl2, h, ecl, hs, g2, j2g = _step_model(
        coeffs, e_r, dt, scale)
    c3x3 = 3.0 * c3
    w0 = 4.0 / dt**2
    tol_scale = float(64.0 * np.finfo(float).eps * mt * w0)
    half_dt, half_dt2 = 0.5 * dt, 0.5 * dt * dt

    for start in range(0, n, _BASE):
        if not classical:
            far_q, far_c = history.block_fars
        forces = rhs_force[start + 1:start + _BASE + 1]
        for b_near, fq, fc, force in zip(near, far_q, far_c, forces):
            # the step's D^a q (p0) and D^a q^3 (lag_c) terms: the classical
            # Newmark values, or the L1 history sums
            if classical:
                p0, lag_c = -vi, 0.0
            else:
                p0 = ca * (fq + sum(map(mul, b_near, block_q)))
                lag_c = fc + sum(map(mul, b_near, block_c))
            a0 = -(g2 * vi + ai)
            m0 = jnl * a0 + knl2 * qi + h * p0
            c2 = m0 + qi * c2q - j2g * vi
            c1 = qi * (2.0 * m0 + qi * c1q2) + vi * (jnl * vi - j2g * qi) + c1k
            c0 = qi * (qi * m0 + jnl * vi * vi + kl) + hs * lag_c + mt * a0 + ecl * p0 - force

            d = dt * vi + half_dt2 * ai   # predictor
            r = ((c3 * d + c2) * d + c1) * d + c0
            s, t = abs(qi), abs(dt * vi)
            if t > s:
                s = t
            if s < 1.0:
                s = 1.0
            tol = tol_scale * s
            if not tol > _NEWTON_TOL:
                tol = _NEWTON_TOL
            if not abs(r) < tol:
                # Newton's first step, undamped, settles a typical step
                slope = (c3x3 * d + 2.0 * c2) * d + c1
                d_new = d - r / slope if slope != 0.0 else d
                r_new = ((c3 * d_new + c2) * d_new + c1) * d_new + c0
                if abs(r_new) < abs(r):
                    d, r, iterations = d_new, r_new, _MAX_NEWTON - 1
                else:
                    iterations = _MAX_NEWTON
                if not abs(r) < tol:
                    d = _finish_step(c3, c2, c1, c0, d, r, tol, iterations, len(q), dt, qi, vi)

            u = qi + d
            a1 = w0 * (u - qi - dt * vi) - ai
            vi = vi + half_dt * (ai + a1)
            if not classical:
                block_q.append(u - qi)
                block_c.append(u * u * u - qi * qi * qi)
            qi, ai = u, a1
            q.append(qi)
            v.append(vi)
            a.append(ai)
        if not classical and len(block_q) == _BASE:
            history.close_block()
    return Trajectory(grid=grid, q=np.array(q), v=np.array(v), a=np.array(a))


def _finish_step(c3, c2, c1, c0, d, r, tol, iterations, step, dt, qi, vi):
    """The root d of a step whose undamped Newton step left |r| >= tol.

    Damped Newton goes on from d, whose residual is r: each step is halved
    until the residual shrinks, for at most ``iterations`` steps, until
    |r| < tol, a zero slope or 30 halvings that do not help.  If the
    residual is still not below tol, a sign-change bracket around d plus
    bisection gives the root, or ``StepFailureError`` names the step.
    """
    for _ in range(iterations):
        slope = (3.0 * c3 * d + 2.0 * c2) * d + c1
        if slope == 0.0:
            break
        step_d = -r / slope
        lam = 1.0
        for _ in range(30):
            d_new = d + lam * step_d
            r_new = ((c3 * d_new + c2) * d_new + c1) * d_new + c0
            if abs(r_new) < abs(r):
                break
            lam *= 0.5
        else:
            break
        d, r = d_new, r_new
        if abs(r) < tol:
            return d
    d_b = _bisect_residual(partial(_cubic, c3, c2, c1, c0), d, max(abs(qi) + abs(dt * vi), 1.0))
    if d_b is None:
        raise StepFailureError(step, "Newton stalled and no sign change was bracketed",
                               t=step * dt, q=qi, v=vi, residual=abs(r))
    return d_b


def _step_model(coeffs: ModalCoefficients, e_r: float, dt: float, ca) -> tuple:
    """Per-run constants of ``integrate_nonlinear``'s step cubic.

    ``ca`` is the L1 scale dt^(-alpha)/Gamma(2-alpha), or None for the
    classical (alpha = 1) viscous path.  The tuple is (ca, c3, c2q, c1q2,
    c1k, M_t, Jnl, K_l, 2 K_nl, h k / 3, E_r C_l, hs, 2 g, 2 Jnl g) in the
    notation below: the constants of the model and Newmark and what no
    state changes, c3 and the factors of q_i in c2 and of q_i^2 in c1 and
    c1's constant part.

    The governing equation at the new displacement u = q_i + d leaves

        r = M_t A + K_l u + E_r C_l P + u^2 (Jnl A + 2 K_nl u + 3 h P)
            + Jnl u V^2 + h S - force,        h = E_r C_nl / 2,

    with Newmark's A = w0 d + a0 (w0 = 4/dt^2, a0 = -(w0 dt v_i + a_i)) and
    V = g d - v_i (g = 2/dt).  P and S are the step's D^a q and D^a q^3: the
    L1 values ca (d + lag_q) and ca (u^3 - q_i^3 + lag_c), or at alpha = 1
    the classical V and 3 u^2 V, which fold into the u^2 term as 6 h V.
    Every factor is a polynomial in d, and so r is a cubic.  Write P =
    p1 d + p0, hs = h ca (0 at alpha = 1) and the u^2 term's factor as
    m1 d + m0, with m1 = Jnl w0 + 2 K_nl + k h p1 and m0 = Jnl a0 +
    2 K_nl q_i + k h p0 (k = 3, or 6 at alpha = 1).  Then

        c3 = m1 + Jnl g^2 + hs                                  (c3)
        c2 = m0 + q_i (2 m1 + Jnl g^2 + 3 hs) - 2 Jnl g v_i     (c2q)
        c1 = q_i (2 m0 + q_i (m1 + 3 hs)) + v_i (Jnl v_i - 2 Jnl g q_i)
             + M_t w0 + K_l + E_r C_l p1                        (c1q2, c1k)
        c0 = q_i (q_i m0 + Jnl v_i^2 + K_l) + hs lag_c + M_t a0
             + E_r C_l p0 - force.
    """
    mt, jnl, kl, knl = coeffs.m_modal, coeffs.j_nl, coeffs.k_l, coeffs.k_nl
    ecl, hc = e_r * coeffs.c_l, 0.5 * e_r * coeffs.c_nl
    w0, g = 4.0 / dt**2, 2.0 / dt
    if ca is None:
        p1, h, hs = g, 6.0 * hc, 0.0
    else:
        p1, h, hs = ca, 3.0 * hc, hc * ca
    m1 = jnl * w0 + 2.0 * knl + h * p1
    jg2 = jnl * g * g
    return (ca, m1 + jg2 + hs, 2.0 * m1 + jg2 + 3.0 * hs, m1 + 3.0 * hs,
            mt * w0 + kl + ecl * p1, mt, jnl, kl, 2.0 * knl, h, ecl, hs, 2.0 * g, 2.0 * jnl * g)


def _cubic(c3, c2, c1, c0, d):
    return ((c3 * d + c2) * d + c1) * d + c0


def _bisect_residual(residual, center: float, width: float):
    """Expanding bracket search around ``center`` followed by bisection."""
    for grow in range(1, 12):
        w = width * 2.0**grow * 1e-3
        lo, hi = center - w, center + w
        rlo, rhi = residual(lo), residual(hi)
        if (rlo < 0) != (rhi < 0):
            return bisect(residual, lo, hi, 1e-15 * max(1.0, abs(lo), abs(hi)))
    return None


@dataclass(frozen=True)
class EnvelopeFit:
    """Local maxima of |q| in a trailing window plus two envelope fits."""

    peak_times: np.ndarray
    peak_amps: np.ndarray
    loglog_slope: float
    loglog_r2: float
    exp_rate: float
    exp_r2: float
    window: float


def _least_squares_line(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    A = np.vstack([x, np.ones_like(x)]).T
    (slope, intercept), *_ = np.linalg.lstsq(A, y, rcond=None)
    resid = y - (slope * x + intercept)
    ss_tot = np.sum((y - np.mean(y)) ** 2)
    r2 = 1.0 - np.sum(resid**2) / ss_tot if ss_tot > 0 else 0.0
    return float(slope), float(intercept), float(r2)


def envelope_fit(traj: Trajectory, window: float = 0.5) -> EnvelopeFit:
    """Extract |q| peaks in the trailing ``window`` fraction and fit envelopes.

    Peaks come from a 3-point local-maximum test refined by a parabola
    through the three samples.  Two least-squares fits are reported:
    log(amp) against log(t) (power law) and against t (exponential).
    """
    if not (0 < window <= 1):
        raise ValueError(f"window must lie in (0, 1], got {window}")
    t = traj.t
    aq = np.abs(traj.q)
    n = len(aq) - 1
    i0 = max(1, int(math.floor((1.0 - window) * n)))
    pk_t, pk_a = [], []
    for i in range(i0, n):
        if aq[i] >= aq[i - 1] and aq[i] > aq[i + 1]:
            y0, y1, y2 = aq[i - 1], aq[i], aq[i + 1]
            curv = y0 - 2.0 * y1 + y2
            off = 0.5 * (y0 - y2) / curv if curv != 0.0 else 0.0
            pk_t.append(t[i] + off * traj.grid.dt)
            pk_a.append(y1 - 0.25 * (y0 - y2) * off)
    if len(pk_t) < 5:
        raise InsufficientDataError(
            f"found {len(pk_t)} peaks in the window, need at least 5"
        )
    pk_t = np.asarray(pk_t)
    pk_a = np.asarray(pk_a)
    log_a = np.log(pk_a)
    ll_slope, _, ll_r2 = _least_squares_line(np.log(pk_t), log_a)
    ex_slope, _, ex_r2 = _least_squares_line(pk_t, log_a)
    return EnvelopeFit(
        peak_times=pk_t,
        peak_amps=pk_a,
        loglog_slope=ll_slope,
        loglog_r2=ll_r2,
        exp_rate=-ex_slope,
        exp_r2=ex_r2,
        window=window,
    )
