import dataclasses
import math

import numpy as np
import pytest
from conftest import loop_linear
from hypothesis import given, settings
from hypothesis import strategies as st

from fracbeam import (
    GridSpec,
    HarmonicForcing,
    MaterialParams,
    caputo_l1,
    caputo_l1_series,
    envelope_fit,
    integrate_linear,
    integrate_nonlinear,
    l1_weights,
)
from fracbeam.errors import InsufficientDataError


# ------------------------------------------------------------- L1 machinery

def test_l1_weights_values():
    b = l1_weights(0.5, 4)
    assert b[0] == 1.0
    assert b[1] == pytest.approx(2**0.5 - 1, rel=1e-15)


def test_l1_weights_domain():
    for bad in (0.0, 1.0, -0.2, 1.3):
        with pytest.raises(ValueError):
            l1_weights(bad, 3)
    with pytest.raises(ValueError):
        l1_weights(0.5, 0)


@settings(max_examples=100)
@given(alpha=st.floats(min_value=1e-3, max_value=1 - 1e-3),
       n=st.integers(min_value=1, max_value=300))
def test_l1_weights_properties(alpha, n):
    b = l1_weights(alpha, n)
    assert b[0] == 1.0
    assert np.all(b > 0)
    assert np.all(np.diff(b) < 0) or n == 1
    assert np.sum(b) == pytest.approx(n ** (1 - alpha), rel=1e-12)


def test_caputo_constant_is_zero():
    assert caputo_l1(np.full(50, 3.7), 0.01, 0.6) == 0.0


def test_caputo_needs_history():
    with pytest.raises(ValueError):
        caputo_l1(np.array([1.0]), 0.01, 0.5)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_caputo_rejects_non_finite_samples(bad):
    with pytest.raises(ValueError, match=f"samples must be finite, got {bad} at node 1"):
        caputo_l1_series([0.0, bad, 1.0, bad], 0.1, 0.5)


def test_grid_needs_an_integer_step_count():
    with pytest.raises(ValueError, match="n_steps must be an integer, got 10.0"):
        GridSpec(0.01, 10.0)
    with pytest.raises(ValueError, match="n_steps must be an integer"):
        GridSpec(0.01, True)
    assert GridSpec(0.01, np.int64(10)).times().size == 11


def test_caputo_linear_exact():
    # closed form for q = t: t^(1-a) / Gamma(2-a); L1 reproduces it exactly
    for alpha in (0.3, 0.5, 0.7):
        dt, n = 0.01, 400
        t = np.arange(n + 1) * dt
        got = caputo_l1(t, dt, alpha)
        want = t[-1] ** (1 - alpha) / math.gamma(2 - alpha)
        assert got == pytest.approx(want, rel=1e-12)
        series = caputo_l1_series(t, dt, alpha)
        np.testing.assert_allclose(series[1:], t[1:] ** (1 - alpha) / math.gamma(2 - alpha),
                                   rtol=1e-11)


def test_caputo_quadratic_convergence_order():
    # q = t^2: D^a q = 2 t^(2-a) / Gamma(3-a); observed order must be 2-a
    t_end = 1.0
    for alpha in (0.3, 0.5, 0.7):
        errs, dts = [], (8e-3, 4e-3, 2e-3, 1e-3)
        for dt in dts:
            n = int(round(t_end / dt))
            t = np.arange(n + 1) * dt
            got = caputo_l1(t**2, dt, alpha)
            want = 2 * t_end ** (2 - alpha) / math.gamma(3 - alpha)
            errs.append(abs(got - want))
        slope = np.polyfit(np.log(dts), np.log(errs), 1)[0]
        assert slope == pytest.approx(2 - alpha, abs=0.1)


# ------------------------------------------------------- linear integration

def test_undamped_matches_cosine():
    k = 1.24
    grid = GridSpec(1e-3, 10_000)
    traj = integrate_linear(0.0, k, 0.0, 0.5, 1.0, 0.0, grid)
    want = np.cos(math.sqrt(k) * traj.t)
    assert np.max(np.abs(traj.q - want)) < 1e-3 * traj.t[-1]


def test_initial_conditions_exact():
    traj = integrate_linear(1.0, 2.0, 0.5, 0.5, 0.3, -0.7, GridSpec(0.01, 10))
    assert traj.q[0] == 0.3
    assert traj.v[0] == -0.7
    assert len(traj.q) == len(traj.v) == len(traj.a) == 11


def test_classical_path_matches_underdamped_solution():
    # alpha = 1: q'' + c q' + k q = 0 with c = E_r c_l
    c, k = 0.35, 1.24
    wn = math.sqrt(k)
    zeta = c / (2 * wn)
    wd = wn * math.sqrt(1 - zeta**2)
    grid = GridSpec(1e-3, 20_000)
    traj = integrate_linear(c, k, 1.0, 1.0, 1.0, 0.0, grid)
    t = traj.t
    want = np.exp(-zeta * wn * t) * (np.cos(wd * t) + zeta * wn / wd * np.sin(wd * t))
    assert np.max(np.abs(traj.q - want)) < 1e-3


def test_classical_path_equals_reference_newmark():
    # independent average-acceleration implementation, same grid
    c, k, q0, v0 = 0.4, 2.0, 1.0, -0.2
    dt, n = 0.01, 500
    q = np.empty(n + 1); v = np.empty(n + 1); a = np.empty(n + 1)
    q[0], v[0] = q0, v0
    a[0] = -c * v0 - k * q0
    for i in range(n):
        lhs = 4 / dt**2 + 2 * c / dt + k
        rhs = (4 / dt**2 * (q[i] + dt * v[i]) + a[i] + c * (2 / dt * q[i] + v[i]))
        q[i + 1] = rhs / lhs
        a[i + 1] = 4 / dt**2 * (q[i + 1] - q[i] - dt * v[i]) - a[i]
        v[i + 1] = v[i] + dt / 2 * (a[i] + a[i + 1])
    # integrate_linear's oracle loop: the same operations in the same order,
    # so equal bit for bit
    loop = loop_linear(c, k, 1.0, 1.0, q0, v0, GridSpec(dt, n))
    for got, want in zip(loop, (q, v, a)):
        np.testing.assert_array_equal(got, want)


def test_energy_drift_conservative():
    # no damping: Newmark average acceleration conserves the energy norm
    k = 1.24
    period = 2 * math.pi / math.sqrt(k)
    dt = period / 1000
    grid = GridSpec(dt, int(round(20 * period / dt)))
    traj = integrate_linear(0.0, k, 0.0, 0.5, 1.0, 0.0, grid)
    energy = 0.5 * (traj.v**2 + k * traj.q**2)
    assert np.max(np.abs(energy - energy[0])) / energy[0] < 1e-4


def test_peak_amplitudes_nonincreasing_in_er():
    grid = GridSpec(0.01, 3000)
    prev = None
    for er in (0.0, 0.05, 0.1, 0.2, 0.3):
        traj = integrate_linear(1.24, 1.24, er, 0.5, 1.0, 0.0, grid)
        fit = envelope_fit(traj, window=0.999)
        # compare the first handful of shared peaks
        amps = fit.peak_amps[:5]
        if prev is not None:
            assert np.all(amps <= prev + 1e-12)
        prev = amps


def test_harmonic_forcing_sampling():
    f = HarmonicForcing(2.0, 3.0, 0.5)
    grid = GridSpec(0.1, 10)
    np.testing.assert_allclose(f.values(grid.times()),
                               2.0 * np.cos(3.0 * grid.times() + 0.5), rtol=1e-15)


def test_forced_linear_steady_amplitude():
    # classical resonance formula as oracle: |H| = f0 / sqrt((k-w^2)^2 + (cw)^2)
    c, k, f0, w = 0.3, 4.0, 1.0, 1.7
    grid = GridSpec(0.005, 40_000)
    traj = integrate_linear(c, k, 1.0, 1.0, 0.0, 0.0, grid, HarmonicForcing(f0, w))
    want = f0 / math.sqrt((k - w**2) ** 2 + (c * w) ** 2)
    tail = np.abs(traj.q[-8000:])
    assert np.max(tail) == pytest.approx(want, rel=2e-3)


NAN, INF = math.nan, math.inf


@pytest.mark.parametrize("args, forcing, name", [
    ((1.24, 1.24, 0.1, 0.5, NAN, 0.0), None, "q0"),
    ((1.24, 1.24, 0.1, 0.5, 1.0, INF), None, "v0"),
    ((1.24, 1.24, 0.1, 0.5, 1.0, -INF), None, "v0"),
    ((NAN, 1.24, 0.1, 0.5, 1.0, 0.0), None, "c_l"),
    ((INF, 1.24, 0.1, 1.0, 1.0, 0.0), None, "c_l"),
    ((1.24, INF, 0.1, 0.5, 1.0, 0.0), None, "k_l"),
    ((1.24, 1.24, INF, 0.5, 1.0, 0.0), None, "e_r"),
    ((1.24, 1.24, 0.1, 0.5, 1.0, 0.0), HarmonicForcing(NAN, 1.1), "forcing.amplitude"),
    ((1.24, 1.24, 0.1, 1.0, 1.0, 0.0), HarmonicForcing(1.0, INF), "forcing.frequency"),
    ((1.24, 1.24, 0.1, 0.5, 1.0, 0.0), HarmonicForcing(1.0, 1.1, NAN), "forcing.phase"),
])
def test_linear_rejects_non_finite_input(args, forcing, name):
    # these used to return an all-NaN trajectory
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        integrate_linear(*args, GridSpec(0.01, 40), forcing)


@pytest.mark.parametrize("forcing, kind", [([0.0] * 20 + [NAN] * 21, "list"),
                                           (np.zeros(41), "ndarray"), (1.0, "float")])
def test_linear_forcing_is_harmonic_or_none(forcing, kind):
    with pytest.raises(TypeError, match=f"^forcing must be a HarmonicForcing or None, got {kind}$"):
        integrate_linear(1.24, 1.24, 0.1, 0.5, 1.0, 0.0, GridSpec(0.01, 40), forcing)


@pytest.mark.parametrize("q0, v0, e_alpha, base, coeff, name", [
    (NAN, 0.0, 0.1, None, None, "q0"),
    (0.0, INF, 0.1, None, None, "v0"),
    (0.1, 0.0, INF, None, None, "e_r"),
    (0.1, 0.0, 0.1, HarmonicForcing(NAN, 3.5), None, "base_accel.amplitude"),
    (0.1, 0.0, 0.1, HarmonicForcing(0.1, NAN), None, "base_accel.frequency"),
    (0.1, 0.0, 0.1, None, "k_nl", "coeffs.k_nl"),
    (0.1, 0.0, 0.1, None, "m_modal", "coeffs.m_modal"),
])
@pytest.mark.parametrize("alpha", [0.5, 1.0])
def test_nonlinear_rejects_non_finite_input(q0, v0, e_alpha, base, coeff, name, alpha,
                                            case1_coeffs):
    # a NaN q0 or an infinite v0 used to end in "Newton stalled" at step 1
    coeffs = case1_coeffs if coeff is None else dataclasses.replace(case1_coeffs, **{coeff: INF})
    mat = MaterialParams(e_alpha=e_alpha, alpha=alpha)
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        integrate_nonlinear(coeffs, mat, q0, v0, GridSpec(0.01, 40), base)


@pytest.mark.parametrize("base, kind", [([0.0] * 20 + [NAN] * 21, "list"),
                                        (np.zeros(41), "ndarray"), (1.0, "float")])
@pytest.mark.parametrize("alpha", [0.5, 1.0])
def test_nonlinear_base_accel_is_harmonic_or_none(base, kind, alpha, case1_coeffs):
    # a sampled array used to fail in vars() with no word of base_accel
    mat = MaterialParams.from_ratio(0.1, alpha)
    with pytest.raises(TypeError, match=f"^base_accel must be a HarmonicForcing or None, got {kind}$"):
        integrate_nonlinear(case1_coeffs, mat, 0.1, 0.0, GridSpec(0.01, 40), base)


# ---------------------------------------------------- nonlinear integration

def test_nonlinear_zero_equilibrium(case1_coeffs):
    mat = MaterialParams.from_ratio(1.0, 0.5)
    traj = integrate_nonlinear(case1_coeffs, mat, 0.0, 0.0, GridSpec(0.01, 200))
    assert np.all(traj.q == 0.0)
    assert np.all(traj.v == 0.0)


def test_nonlinear_small_amplitude_matches_linear(case1_coeffs):
    # cubic terms are O(q^3): at q0 = 1e-3 the two models agree to O(q^2)
    mat = MaterialParams.from_ratio(0.2, 0.5)
    period = 2 * math.pi / math.sqrt(case1_coeffs.k_l / case1_coeffs.m_modal)
    dt = period / 400
    grid = GridSpec(dt, int(round(10 * period / dt)))
    q0 = 1e-3
    nl = integrate_nonlinear(case1_coeffs, mat, q0, 0.0, grid)
    lin = integrate_linear(case1_coeffs.c_l / case1_coeffs.m_modal,
                           case1_coeffs.k_l / case1_coeffs.m_modal,
                           mat.e_r, mat.alpha, q0, 0.0, grid)
    assert np.max(np.abs(nl.q - lin.q)) / q0 < 1e-4


def test_nonlinear_alpha_one_runs(case1_coeffs):
    mat = MaterialParams.from_ratio(0.5, 1.0)
    traj = integrate_nonlinear(case1_coeffs, mat, 0.5, 0.0, GridSpec(0.005, 2000))
    # classical damping must decay the motion
    assert np.max(np.abs(traj.q[-200:])) < 0.5 * np.max(np.abs(traj.q[:200]))


def test_nonlinear_base_excitation_settles(case1_coeffs):
    mat = MaterialParams.from_ratio(0.05, 0.5)
    w0 = math.sqrt(case1_coeffs.k_l / case1_coeffs.m_modal)
    grid = GridSpec(0.005, 12_000)
    traj = integrate_nonlinear(case1_coeffs, mat, 0.0, 0.0, grid,
                               HarmonicForcing(0.13, w0))
    tail = np.abs(traj.q[-2000:])
    head = np.abs(traj.q[:2000])
    assert tail.max() > 0.01        # driven response, not decay
    assert np.std(tail) < np.std(np.abs(traj.q))  # settled


# ------------------------------------------------------------ envelope fits

def _make_traj(t_end, dt, signal):
    n = int(round(t_end / dt))
    grid = GridSpec(dt, n)
    t = grid.times()
    q = signal(t)
    from fracbeam import Trajectory
    return Trajectory(grid=grid, q=q, v=np.gradient(q, dt), a=np.zeros_like(q))


def test_envelope_exponential_synthetic():
    traj = _make_traj(120.0, 0.01, lambda t: np.exp(-0.1 * t) * np.cos(t))
    fit = envelope_fit(traj, window=0.9)
    assert fit.exp_r2 > 0.999
    assert fit.exp_rate == pytest.approx(0.1, rel=0.02)


def test_envelope_power_law_synthetic():
    traj = _make_traj(200.0, 0.01, lambda t: np.where(t >= 1, (t + 1e-12) ** -1.5, 1.0) * np.cos(t))
    fit = envelope_fit(traj, window=0.8)
    assert fit.loglog_slope == pytest.approx(-1.5, rel=0.02)
    assert fit.loglog_r2 > 0.999


def test_envelope_needs_peaks():
    traj = _make_traj(5.0, 0.01, lambda t: np.exp(-t))
    with pytest.raises(InsufficientDataError):
        envelope_fit(traj, window=0.5)


def test_fractional_oscillator_matches_laplace_inversion():
    # cross-method oracle: the transfer function of the fractional
    # oscillator admits exact numerical Laplace inversion (Talbot contour);
    # quiescent start makes the Caputo and convolution pictures agree
    import mpmath as mp

    mp.mp.dps = 30
    c, k, alpha, q0 = 1.24, 1.24, 0.5, 1.0
    transform = lambda s: (s + c * s ** (alpha - 1)) * q0 / (s**2 + c * s**alpha + k)
    traj = integrate_linear(c, k, 1.0, alpha, q0, 0.0, GridSpec(1e-3, 20_000))
    for t_chk in (0.5, 2.0, 5.0, 12.0, 20.0):
        exact = float(mp.invertlaplace(transform, t_chk, method="talbot"))
        i = int(round(t_chk / traj.grid.dt))
        assert traj.q[i] == pytest.approx(exact, abs=5e-6)


def test_nonlinear_classical_path_matches_rk4(case2_coeffs):
    # alpha = 1 removes the memory, so the full model (tip-inertia terms
    # included) reduces to a first-order system an RK4 stepper can check
    co = case2_coeffs
    mat = MaterialParams.from_ratio(0.3, 1.0)
    e_r = mat.e_r

    def accel(q, v):
        num = (-co.j_nl * q * v**2 - co.k_l * q - e_r * co.c_l * v
               - 2.0 * co.k_nl * q**3 - 3.0 * e_r * co.c_nl * q**2 * v)
        return num / (co.m_modal + co.j_nl * q**2)

    h, n = 2e-4, 25_000
    y = np.array([0.05, 0.0])
    rk_path = [y[0]]
    rhs = lambda y: np.array([y[1], accel(y[0], y[1])])
    for _ in range(n):
        k1 = rhs(y); k2 = rhs(y + 0.5 * h * k1)
        k3 = rhs(y + 0.5 * h * k2); k4 = rhs(y + h * k3)
        y = y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        rk_path.append(y[0])
    rk_path = np.asarray(rk_path)

    traj = integrate_nonlinear(co, mat, 0.05, 0.0, GridSpec(h, n))
    assert np.max(np.abs(traj.q - rk_path)) < 5e-6


def test_fractional_slope_ordering():
    # heavier fractional order decays faster: the late-time log-log slope of
    # alpha = 0.7 must be more negative than alpha = 0.3
    slopes = {}
    for alpha, t_end in ((0.3, 470.0), (0.7, 250.0)):
        grid = GridSpec(0.02, int(round(t_end / 0.02)))
        traj = integrate_linear(1.24, 1.24, 0.1, alpha, 1.0, 0.0, grid)
        slopes[alpha] = envelope_fit(traj, window=0.3).loglog_slope
    assert slopes[0.7] < slopes[0.3]
