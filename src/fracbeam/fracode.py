"""Direct time integration of the fractionally damped single-mode oscillator.

The fractional term is discretized with the L1 scheme on a uniform grid
(order 2-alpha, built from piecewise-linear history interpolation), the
inertia with the average-acceleration Newmark method (gamma = 1/2,
beta = 1/4, non-dissipative, second order).  The unknown displacement at the
new time level enters the L1 sum only through the leading weight, so a
linear step is affine in the state before it and in its forcing less the
far part of its L1 sum: a block of 128 linear steps is one product with a
constant (384 x 131) matrix built once per run, and no Python code runs per
step.  In the nonlinear model each step's residual is a cubic in the new
displacement; its four coefficients are built once per step and Newton with
the analytic slope solves it, in one iteration on typical steps.  A step
that Newton does not settle takes the cubic's real root nearest the
predictor, in closed form (``multiscale``'s cubic kernel).

Every L1 sum goes through one kernel, ``L1History``: a stepper hands it
each closed block of 128 increments and it brings the far sums of the blocks
after it, at O(N log^2 N) cost over N steps.  The sums inside the open
block are the linear block product's.  Nonlinear steps read theirs (q and
q^3) a pair at a time: at an even slot 2k, one product of the open block's
(2 x 128) array of increments with a (128 x 2) pair of the kernel's
``near`` rows gives step 2k's two sums and step 2k+1's less their lag-1
terms, which step 2k+1 adds from the increments step 2k has just written.
Each integrator has one block loop for every order: at alpha = 1 a step
takes the classical Newmark velocity for D^alpha q instead of the L1 sum,
and the run keeps no history.  On a 2-vCPU x86 machine with Python 3.11 a
200k-step linear run takes about 0.1-0.15 s (the whole default ``fracbeam
simulate``, in process, 0.21-0.26 s), and a nonlinear step about 2.2 us
(fractional) or 1.1 us (alpha = 1); the machine's speed drifts by up to
1.7x.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .constitutive import MaterialParams
from .errors import (InsufficientDataError, StepFailureError, check_count, check_finite,
                     check_finite_samples)
from .modes import ModalCoefficients
from .multiscale import _real_roots

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
    """Uniform time grid with n_steps intervals of width dt (an integer >= 1, numpy's too)."""

    dt: float
    n_steps: int

    def __post_init__(self):
        if not (self.dt > 0 and math.isfinite(self.dt)):
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        check_count("n_steps", self.n_steps)
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


# every history block is this size times a power of 2.  integrate_linear
# solves a block of this many steps at a time: over 16k-32k-step runs
# (2 vCPU, x86) 64 steps per block cost about 20% more than 128, and 32 or
# 256 about 60% more; at 128 the (3B x (3 + B)) product and one closure per
# block balance the per-block numpy overhead.  A closed block of this size
# reaches the next block's far sums by one dense Toeplitz product, larger
# ones by FFT: below it numpy's FFT call overhead costs more than the
# O(L^2) product, above it the FFT keeps the kernel O(N log^2 N).
_BLOCK = 128


def _l1_constants(alpha: float, dt: float, n: int) -> tuple[np.ndarray, float]:
    """The L1 weights b_0..b_m (m = max(n, _BLOCK)) and dt^(-alpha)/Gamma(2-alpha)."""
    if not (dt > 0 and math.isfinite(dt)):
        raise ValueError(f"dt must be positive and finite, got {dt}")
    return l1_weights(alpha, max(n, _BLOCK) + 1), dt ** (-alpha) / math.gamma(2.0 - alpha)


class L1History:
    """L1 history sums over one or two streams of increments, a block at a time.

    Each channel k is a stream x_0, x_1, ... of increments, and all channels
    share one weight sequence and one step count.  After n increments the
    lag sum of channel k is sum_{j=1..n} b_j x_{n-j}, the part of its L1 sum
    that is known before the next increment x_n (whose weight is b_0 = 1)
    arrives.  ``weights`` holds b_0..b_m (m >= capacity) and ``scale`` the
    factor dt^(-alpha)/Gamma(2-alpha), so the Caputo derivative after x_n is
    ``scale * (x_n + lag sum)``.

    A stepper feeds the history a block of S = _BLOCK * 2^j increments at a
    time, every block starting at a multiple of its size.  While a block
    starting at s is open, ``far[k, s + r]`` is the far part of the lag sum
    of its r-th target (every lag that reaches back before the block), so
    after r increments x_s..x_{s+r-1} of the block the lag sum is

        far[k, s + r] + sum_{j=1..r} b_j x_{s+r-j}.

    ``near`` is the B x B strictly lower-triangular Toeplitz matrix of
    b_1..b_{B-1} (B = _BLOCK): row r holds b_r..b_1 and then zeros, so a
    stepper that keeps the open block of B in a (channels, B) array X reads
    every channel's near sum at once as ``X.dot(near[r])``, whatever the
    array holds past the r increments (finite numbers times zero).
    ``integrate_nonlinear`` reads two steps' sums with one product, of X
    with the pair of rows 2k and 2k+1 (``_near_pairs``), the odd row's
    lag-1 weight zeroed since its increment x_{s+2k} is not yet in X.
    ``close_block(*blocks)`` takes the block's increments, one sequence of S
    per channel, and updates ``far`` in place for the next block's targets.
    It is the kernel's only check: one full block per channel, aligned to
    its size, within the capacity.  A run that ends inside a block never
    closes it.

    The far sums come from the blocked convolution of Hairer, Lubich and
    Schlichte (SIAM J. Sci. Stat. Comput. 6, 1985).  When the block ending
    at i closes, the dyadic source block [i-L, i) with i/L odd
    (L = _BLOCK * 2^k, at least S since S divides i) is added to the targets
    [i, i+L) that exist, for every channel at once: by one dense Toeplitz
    product for L = _BLOCK, by FFT above, of length L + m (m targets)
    rounded up to 2^j or 3 * 2^j.  Each (source, target) pair in different
    blocks is counted exactly once, at the level where their blocks are
    siblings; pairs inside one block are the stepper's near sums.  So the
    result equals the direct sum up to round-off (about 1e-13 relative), at
    O(n log^2 n) total cost.  Numpy runs once per closed block, on
    (channels, capacity) arrays of increments and far sums.
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
        self.far = np.zeros((channels, capacity + 1))    # far-field part of each target's sums
        # lags t - s of targets t < 2B from a block's sources s < B, zero
        # for t <= s: rows t < B are its near weights, rows B + t the
        # square that brings its far sums to the next block's targets t
        lags = np.concatenate((np.zeros(_BLOCK - 1), self._lag_kernel(2 * _BLOCK)))
        self._lags = sliding_window_view(lags, _BLOCK)[:, ::-1].copy()
        self.near = self._lags[:_BLOCK]
        self._spectra = {}                                # FFT length -> kernel spectrum

    def close_block(self, *blocks) -> None:
        """Close the open block, given its increments: one sequence per channel."""
        sizes = [len(block) for block in blocks]
        if len(sizes) != self.channels or len(set(sizes)) != 1:
            raise ValueError(f"a block closes with one sequence of increments per channel "
                             f"({self.channels}), got lengths {sizes}")
        width = sizes[0]
        if width < _BLOCK or width & (width - 1) or self._closed % width:
            raise ValueError(f"a block holds {_BLOCK} * 2^j increments and starts at a multiple "
                             f"of its size, got {width} at {self._closed}")
        i = self._closed + width
        if i > self.capacity:
            raise ValueError(f"L1History is full ({self.capacity} increments)")
        self._x[:, i - width:i] = blocks
        self._closed = i
        size = _BLOCK
        while (i // size) % 2 == 0:
            size *= 2
        m = min(size, self.capacity + 1 - i)   # targets that exist
        source = self._x[:, i - size:i]
        if size == _BLOCK:
            self.far[:, i:i + m] += (self._lags[_BLOCK:_BLOCK + m] @ source.T).T
        else:
            n_fft = _fft_length(size + m)
            spec = self._spectra.get(n_fft)
            if spec is None:
                spec = self._spectra[n_fft] = np.fft.rfft(self._lag_kernel(n_fft))
            y = np.fft.irfft(np.fft.rfft(source, n_fft) * spec, n_fft)
            self.far[:, i:i + m] += y[:, size:size + m]

    def _lag_kernel(self, length: int) -> np.ndarray:
        """b_1..b_{length - 1} at their lags, zero at lag 0 and past the weights.

        Lag 0 never pairs a source block with a target block, and a weight
        past the capacity reaches only targets that do not exist.  Source
        block L's targets j < m need lags up to L + m - 1, so a circular
        convolution of ``length`` >= L + m wraps none of them.
        """
        kernel = np.zeros(length)
        b = self.weights[1:length]
        kernel[1:1 + b.size] = b
        return kernel


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
    check_finite_samples("samples", q)
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


def _forcing_samples(name: str, forcing, grid: GridSpec) -> np.ndarray:
    """Argument ``name`` at the grid's nodes: a HarmonicForcing's samples, or zeros for None."""
    if forcing is None:
        return np.zeros(grid.n_steps + 1)
    if not isinstance(forcing, HarmonicForcing):
        raise TypeError(f"{name} must be a HarmonicForcing or None, got {type(forcing).__name__}")
    check_finite(**_fields(name, forcing))
    return forcing.values(grid.times())


def integrate_linear(
    c_l: float,
    k_l: float,
    e_r: float,
    alpha: float,
    q0: float,
    v0: float,
    grid: GridSpec,
    forcing: HarmonicForcing | None = None,
) -> Trajectory:
    """Solve q'' + E_r c_l D^alpha q + k_l q = f(t) from (q0, v0).

    ``forcing`` gives f(t), or None for f = 0; any other value is a TypeError.

    The new displacement appears linearly in the Newmark/L1 closure, so a
    step is affine in the state it starts from and in its input, the forcing
    less the far part of its L1 sum.  A block of _BLOCK steps is then one
    product with the constant matrix ``_propagator`` builds once per run;
    after each block, its increments close one ``L1History`` block, which
    brings the next block's far sums.  At alpha = 1 the steps take Newmark's
    velocity for D^1 q = q', and there are no far sums.  The initial
    acceleration comes from the equation at t = 0 with D^alpha q(0) = 0
    (alpha < 1) or D^1 q(0) = v0.
    """
    check_finite(c_l=c_l, k_l=k_l, e_r=e_r, q0=q0, v0=v0)
    if not (k_l > 0):
        raise ValueError(f"k_l must be positive, got {k_l}")
    if e_r < 0:
        raise ValueError(f"e_r must be non-negative, got {e_r}")
    if not (0 < alpha <= 1):
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    dt, n = grid.dt, grid.n_steps
    f = _forcing_samples("forcing", forcing, grid)
    f0, damp = float(f[0]), e_r * c_l   # a float overflows to inf without a numpy warning
    out = np.empty((3, n + 1))   # rows q, v, a
    if alpha == 1.0:
        # damping on Newmark's velocity g (q1 - qi) - vi: ca on q1 and qi, damp on vi
        ca, cv, near = 2.0 * damp / dt, damp, np.zeros(_BLOCK)
        out[:, 0] = q0, v0, f0 - damp * v0 - k_l * q0
        far, history = np.zeros(n + 1), None
    else:
        history = L1History(alpha, dt, n)
        ca, cv, near = damp * history.scale, 0.0, history.weights[:_BLOCK]
        out[:, 0] = q0, v0, f0 - k_l * q0
        far = history.far[0]
    u = np.zeros(3 + _BLOCK)     # a block's start state and inputs
    # a non-finite table is the caller's to report (cli's finite check)
    with np.errstate(all="ignore"):
        step = _propagator(dt, k_l, ca, cv, near)
        for s in range(0, n, _BLOCK):
            m = min(_BLOCK, n - s)
            u[:3] = out[:, s]
            u[3:3 + m] = f[s + 1:s + 1 + m] - ca * far[s:s + m]
            out[:, s + 1:s + 1 + m] = (step @ u).reshape(3, _BLOCK)[:, :m]
            if history is not None and s + _BLOCK < n:   # a later block reads the far sums
                history.close_block(np.diff(out[0, s:s + 1 + m]))
    return Trajectory(grid=grid, q=out[0], v=out[1], a=out[2])


def _propagator(dt: float, k_l: float, ca: float, cv: float, near: np.ndarray) -> np.ndarray:
    """The (3B, 3 + B) matrix [P R] of B = _BLOCK linear steps.

    Step r of a block starting at s, from (q_i, v_i, a_i) = row s + r, is

        q1 = (g_r + w0 (q_i + dt v_i) + a_i + ca q_i + cv v_i - ca near_r) / lhs,
        a1 = w0 (q1 - q_i - dt v_i) - a_i,    v1 = v_i + dt (a_i + a1) / 2,

    with w0 = 4/dt^2, lhs = w0 + ca + k_l, near_r = sum_{j=1..r} b_j x_{s+r-j}
    over the block's increments x = q1 - q_i (b_j = ``near[j]``, all zero at
    alpha = 1), and the input g_r = f_{s+r+1} - ca far_{s+r}.  So the block's
    rows s+1..s+B, stacked as (q, v, a), are P (q_s, v_s, a_s) + R g.  The
    recurrence run from the three unit states gives P, and from a unit
    impulse g_0 the first column of R.  R is lower-triangular Toeplitz, since
    every step is the same map of the steps before it, so that column fills
    it; being lower triangular, it keeps the inputs past a run's last step
    out of the rows before it.
    """
    w0, half_dt = 4.0 / dt**2, 0.5 * dt
    lhs = w0 + ca + k_l
    # the four columns (unit q_s, unit v_s, unit a_s, unit impulse g_0) as
    # Python floats; only the memory product near_r runs in numpy, and not
    # at all when every weight is zero
    q, v, a, g = np.eye(4).tolist()
    memory = bool(near.any())
    x = np.zeros((_BLOCK, 4))
    mem = zero = (0.0,) * 4
    rows = []
    for r in range(_BLOCK):
        if memory:
            mem = (near[r:0:-1] @ x[:r]).tolist()
        q1 = [(gc + w0 * (qc + dt * vc) + ac + ca * qc + cv * vc - ca * mc) / lhs
              for qc, vc, ac, gc, mc in zip(q, v, a, g, mem)]
        a1 = [w0 * (q1c - qc - dt * vc) - ac for q1c, qc, vc, ac in zip(q1, q, v, a)]
        v = [vc + half_dt * (ac + a1c) for vc, ac, a1c in zip(v, a, a1)]
        x[r] = [q1c - qc for q1c, qc in zip(q1, q)]
        q, a, g = q1, a1, zero
        rows.append((q, v, a))
    rows = np.array(rows).transpose(1, 0, 2)   # (3, B, 4)
    lags = sliding_window_view(np.concatenate((np.zeros((3, _BLOCK - 1)), rows[:, :, 3]), axis=1),
                               _BLOCK, axis=1)
    return np.concatenate((rows[:, :, :3], lags[:, :, ::-1]), axis=2).reshape(3 * _BLOCK, 3 + _BLOCK)


# integrate_nonlinear's Newton solve: residual floor and iteration cap per step
_NEWTON_TOL = 1e-10
_MAX_NEWTON = 50
# a step whose Newton iterates stop falling is still solved when its residual
# is within 8 eps of the sum of the magnitudes of the cubic's terms
_ROUNDOFF = 8.0 * float(np.finfo(float).eps)


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

    ``base_accel`` gives Vb''(t), or None for Vb'' = 0; any other value is a
    TypeError.  D^a q^3 is the L1 sum over the stored q^3 history (the
    operator applied to the cubed signal, not expanded).  With Newmark's q''
    and q' and the L1 (or, at alpha = 1, Newmark) derivatives all polynomial
    in the new displacement u, each step's residual is a cubic in d = u - q_i
    whose coefficients are built once per step from ``_step_model``'s
    constants.  It is solved by Newton with the analytic slope, both
    evaluated by Horner's rule, to a residual below max(1e-10, 64 eps M_t
    (4/dt^2) max(|q_i|, dt |v_i|, 1)), from the predictor dt v_i + dt^2 a_i
    / 2: one step inline, and ``_finish_step`` on the rare steps it does not
    settle.  One loop steps the two-channel history (q and q^3 increments) a
    block at a time.  Steps read their sums inside the open block a pair at
    a time: an even step makes one product with a pair of near rows
    (``_near_pairs``), and the odd step after it adds b_1 times the
    increments the even step wrote to the product's second column.  At
    alpha = 1 each step takes the classical values of D^a q and D^a q^3
    instead of the L1 sums, and no history is kept.  A fractional step
    costs about 2.2 us on a 2-vCPU x86 machine with Python 3.11, an
    alpha = 1 step about 1.1 us.  An initial state that overflows the
    equation at t = 0 raises ``OverflowError``.
    """
    check_finite(q0=q0, v0=v0, e_r=mat.e_r, **_fields("coeffs", coeffs))
    dt, n = grid.dt, grid.n_steps
    alpha, e_r = mat.alpha, mat.e_r
    mt, jnl = coeffs.m_modal, coeffs.j_nl
    kl, cl, knl, cnl, mb = coeffs.k_l, coeffs.c_l, coeffs.k_nl, coeffs.c_nl, coeffs.m_b
    accel = _forcing_samples("base_accel", base_accel, grid)
    rhs_force = (accel if base_accel is None else -mb * accel).tolist()   # None: +0.0, not -0.0

    qi, vi = float(q0), float(v0)
    classical = alpha == 1.0
    # governing equation at t = 0; the fractional history is empty, but the
    # classical path keeps its instantaneous viscous terms
    try:
        num0 = rhs_force[0] - jnl * qi * vi**2 - kl * qi - 2.0 * knl * qi**3
        if classical:
            num0 -= e_r * cl * vi + 3.0 * e_r * cnl * qi**2 * vi
        ai = num0 / (mt + jnl * qi**2)
    except OverflowError as exc:
        raise OverflowError(f"the equation of motion overflows at t = 0 "
                            f"(q0 = {qi!r}, v0 = {vi!r})") from exc
    q, v, a = array("d", [qi]), array("d", [vi]), array("d", [ai])

    if classical:
        scale = None
    else:
        history = L1History(alpha, dt, n, channels=2)
        scale, far, b1 = history.scale, history.far, float(history.weights[1])
        pairs = [None] * _BLOCK         # an even slot's pair of near rows; None at odd slots
        pairs[::2] = _near_pairs(history.near)
        block = np.zeros((2, _BLOCK))   # the open block's q and q^3 increments
        block_q, block_c = map(memoryview, block)
        sums = np.zeros((2, 2))         # a pair's near sums: rows q and q^3, columns its steps
        pair_sums = memoryview(sums.reshape(4))
        ci = qi * qi * qi
    ca, c3, c2q, c1q2, c1k, mt, jnl, kl, knl2, h, ecl, hs, g2, j2g = _step_model(
        coeffs, e_r, dt, scale)
    c3x3 = 3.0 * c3
    w0 = 4.0 / dt**2
    tol_scale = float(64.0 * np.finfo(float).eps * mt * w0)
    half_dt, half_dt2 = 0.5 * dt, 0.5 * dt * dt

    for start in range(0, n, _BLOCK):
        # a step reads its force and, in a fractional run, its slot in the
        # open block, its pair of near rows (even slots) and its far sums
        forces = rhs_force[start + 1:start + _BLOCK + 1]
        steps = forces if classical else zip(
            range(_BLOCK), pairs, *far[:, start:start + _BLOCK].tolist(), forces)
        for step in steps:
            # the step's D^a q (p0) and D^a q^3 (lag_c) terms: the classical
            # Newmark values, or the L1 history sums
            if classical:
                p0, lag_c, force = -vi, 0.0, step
            else:
                slot, pair, fq, fc, force = step
                if pair is None:
                    # the pair's product left out this step's lag-1 term, the
                    # increments the step before has just written
                    near_q, near_c = odd_q + b1 * dq, odd_c + b1 * dc
                else:
                    block.dot(pair, sums)
                    near_q, odd_q, near_c, odd_c = pair_sums
                p0 = ca * (fq + near_q)
                lag_c = fc + near_c
            dvi = dt * vi
            a0 = -(g2 * vi + ai)
            m0 = jnl * a0 + knl2 * qi + h * p0
            c2 = m0 + qi * c2q - j2g * vi
            c1 = qi * (2.0 * m0 + qi * c1q2) + vi * (jnl * vi - j2g * qi) + c1k
            c0 = qi * (qi * m0 + jnl * vi * vi + kl) + hs * lag_c + mt * a0 + ecl * p0 - force

            d = pred = dvi + half_dt2 * ai   # predictor
            r = ((c3 * d + c2) * d + c1) * d + c0
            s, t = abs(qi), abs(dvi)
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
                    d, r = d_new, r_new
                if not abs(r) < tol:
                    d = _finish_step(c3, c2, c1, c0, d, r, tol, pred, len(q), dt, qi, vi)

            u = qi + d
            dq = u - qi
            a1 = w0 * (dq - dvi) - ai
            vi = vi + half_dt * (ai + a1)
            if not classical:
                uc = u * u * u
                dc = uc - ci
                block_q[slot] = dq
                block_c[slot] = dc
                ci = uc
            qi, ai = u, a1
            q.append(qi)
            v.append(vi)
            a.append(ai)
        if not classical and start + _BLOCK < n:   # a later step reads the far sums
            history.close_block(*block)
    return Trajectory(grid=grid, q=np.array(q), v=np.array(v), a=np.array(a))


def _near_pairs(near: np.ndarray) -> np.ndarray:
    """The (B/2, B, 2) stack of ``near``'s rows in pairs (B = _BLOCK).

    ``pairs[k]`` holds rows 2k and 2k+1 as its two columns, with row 2k+1's
    lag-1 weight b_1 (its entry 2k) set to 0.  One product of the open
    block's (channels, B) increments with it, made before increment 2k
    arrives, gives step 2k's near sums and step 2k+1's less b_1 x_{2k}.
    """
    pairs = np.stack((near[0::2], near[1::2]), axis=2)
    pairs[np.arange(_BLOCK // 2), np.arange(0, _BLOCK, 2), 1] = 0.0
    return pairs


def _finish_step(c3, c2, c1, c0, d, r, tol, pred, step, dt, qi, vi):
    """The root d of a step whose first Newton step left |r| >= tol.

    Plain Newton goes on from d, whose residual is r, while |r| falls, for
    at most _MAX_NEWTON steps, and stops at |r| < tol.  Where the iterates
    stop falling first, d stands if |r| is at the cubic's round-off floor,
    _ROUNDOFF (|c3 d^3| + |c2 d^2| + |c1 d| + |c0|); otherwise the step takes
    the real root nearest the predictor ``pred``, from the closed form.  A
    cubic with no finite real root raises ``StepFailureError``.
    """
    for _ in range(_MAX_NEWTON):
        slope = (3.0 * c3 * d + 2.0 * c2) * d + c1
        d_new = d - r / slope if slope != 0.0 else d
        r_new = ((c3 * d_new + c2) * d_new + c1) * d_new + c0
        if not abs(r_new) < abs(r):
            break
        d, r = d_new, r_new
        if abs(r) < tol:
            return d
    ad = abs(d)
    if abs(r) <= _ROUNDOFF * (((abs(c3) * ad + abs(c2)) * ad + abs(c1)) * ad + abs(c0)):
        return d
    root = _nearest_root(c3, c2, c1, c0, pred)
    if root is None:
        raise StepFailureError(step, "the step's cubic has no finite real root",
                               t=step * dt, q=qi, v=vi, residual=abs(r))
    return root


def _nearest_root(c3, c2, c1, c0, pred):
    """The cubic's finite real root nearest ``pred``, or None (none, or libm overflows)."""
    try:
        roots = [x for x in _real_roots(c3, c2, c1, c0)[0].tolist() if math.isfinite(x)]
    except OverflowError:
        return None
    return min(roots, key=lambda x: abs(x - pred), default=None)


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
