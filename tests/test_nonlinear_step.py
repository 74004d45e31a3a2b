"""integrate_nonlinear's per-step cubic and Newton solve, against two oracles.

The step residual used to be a closure defined inside the step loop and
solved by damped Newton with a centred finite-difference slope.  Both live
on here as oracles: ``closure_residual`` is that closure, and
``fd_slope_stepper`` is that integrator on the same ``L1History`` kernel.
``step_cubic`` is the cubic that the integrator's loop builds inline from
``_step_model``'s constants, written as one function, and ``replay_stepper``
is that loop one step at a time, from the pieces it inlines.
"""

import dataclasses
import math
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracbeam import GridSpec, HarmonicForcing, L1History, MaterialParams, fracode, integrate_nonlinear
from fracbeam.errors import StepFailureError
from fracbeam.fracode import _MAX_NEWTON, _NEWTON_TOL, _bisect_residual, _cubic, _finish_step, _step_model

EPS = np.finfo(float).eps


def step_cubic(model, qi, vi, ai, force, lag_q, lag_c):
    """Coefficients (c3, c2, c1, c0) of one step's residual in d = u - q_i.

    The formulas of ``_step_model``'s docstring, in the integrator's order
    of operations; at alpha = 1 (``ca`` None) D^a q is the classical
    Newmark velocity and there is no q^3 history.
    """
    ca, c3, c2q, c1q2, c1k, mt, jnl, kl, knl2, h, ecl, hs, g2, j2g = model
    a0 = -(g2 * vi + ai)
    p0 = -vi if ca is None else ca * lag_q
    m0 = jnl * a0 + knl2 * qi + h * p0
    c2 = m0 + qi * c2q - j2g * vi
    c1 = qi * (2.0 * m0 + qi * c1q2) + vi * (jnl * vi - j2g * qi) + c1k
    c0 = qi * (qi * m0 + jnl * vi * vi + kl) + hs * lag_c + mt * a0 + ecl * p0 - force
    return c3, c2, c1, c0


def closure_residual(co, e_r, alpha, dt, ca, qi, vi, ai, fo, lag_q, lag_c):
    """The step residual as a function of the new displacement u."""
    mt, jnl, kl, cl, knl, cnl = co.m_modal, co.j_nl, co.k_l, co.c_l, co.k_nl, co.c_nl
    classical = alpha == 1.0
    w0 = 4.0 / dt**2
    ci = qi**3

    def residual(u):
        au = w0 * (u - qi - dt * vi) - ai
        vu = 2.0 / dt * (u - qi) - vi
        if classical:
            dq_frac = vu
            dc_frac = 3.0 * u**2 * vu
        else:
            dq_frac = ca * ((u - qi) + lag_q)
            dc_frac = ca * ((u**3 - ci) + lag_c)
        return (mt * au + jnl * (au * u**2 + u * vu**2) + kl * u
                + e_r * cl * dq_frac + 2.0 * knl * u**3
                + 0.5 * e_r * cnl * (dc_frac + 3.0 * u**2 * dq_frac) - fo)

    return residual


def residual_magnitude(co, e_r, alpha, dt, ca, qi, vi, ai, fo, lag_q, lag_c, u):
    """The sum of the magnitudes of the residual's terms, inner sums included."""
    mt, jnl, kl, cl, knl, cnl = co.m_modal, co.j_nl, co.k_l, co.c_l, co.k_nl, co.c_nl
    w0 = 4.0 / dt**2
    au = w0 * (abs(u) + abs(qi) + dt * abs(vi)) + abs(ai)
    vu = 2.0 / dt * (abs(u) + abs(qi)) + abs(vi)
    if alpha == 1.0:
        dq, dc = vu, 3.0 * u**2 * vu
    else:
        dq = ca * (abs(u) + abs(qi) + abs(lag_q))
        dc = ca * (abs(u)**3 + abs(qi)**3 + abs(lag_c))
    return (mt * au + abs(jnl) * (au * u**2 + abs(u) * vu**2) + kl * abs(u)
            + e_r * cl * dq + 2.0 * abs(knl) * abs(u)**3
            + 0.5 * e_r * abs(cnl) * (dc + 3.0 * u**2 * dq) + abs(fo))


def fd_slope_stepper(co, mat, q0, v0, grid, base_accel, newton_tol=1e-10, max_newton=50):
    """The integrator with the closure residual and a finite-difference slope."""
    dt, n, alpha, e_r = grid.dt, grid.n_steps, mat.alpha, mat.e_r
    force = (-co.m_b * base_accel.values(grid.times())).tolist()
    classical = alpha == 1.0
    qi, vi = float(q0), float(v0)
    num0 = force[0] - co.j_nl * qi * vi**2 - co.k_l * qi - 2.0 * co.k_nl * qi**3
    if classical:
        num0 -= e_r * co.c_l * vi + 3.0 * e_r * co.c_nl * qi**2 * vi
    ai = num0 / (co.m_modal + co.j_nl * qi**2)
    ca = lag_q = lag_c = None
    if not classical:
        hist_q, hist_c = L1History(alpha, dt, n), L1History(alpha, dt, n)
        ca = hist_q.scale
    w0 = 4.0 / dt**2
    q = [qi]
    for i in range(n):
        if not classical:
            lag_q, lag_c = hist_q.lag_sum(), hist_c.lag_sum()
        residual = closure_residual(co, e_r, alpha, dt, ca, qi, vi, ai, force[i + 1],
                                    lag_q, lag_c)
        u = qi + dt * vi + 0.5 * dt**2 * ai
        r = residual(u)
        tol = max(newton_tol, 64.0 * EPS * co.m_modal * w0 * max(abs(qi), abs(dt * vi), 1.0))
        for _ in range(max_newton):
            if abs(r) < tol:
                break
            h = 1e-7 * max(1.0, abs(u))
            step = -r * 2.0 * h / (residual(u + h) - residual(u - h))
            lam = 1.0
            while abs(residual(u + lam * step)) >= abs(r):
                lam *= 0.5
            u += lam * step
            r = residual(u)
        assert abs(r) < tol
        a1 = w0 * (u - qi - dt * vi) - ai
        vi = vi + 0.5 * dt * (ai + a1)
        if not classical:
            hist_q.push(u - qi)
            hist_c.push(u**3 - qi**3)
        qi, ai = u, a1
        q.append(qi)
    return np.array(q)


def replay_stepper(co, mat, q0, v0, grid, base_accel):
    """``integrate_nonlinear`` one step at a time, from the pieces its loop inlines.

    ``step_cubic`` with the lag sums of a two-channel ``L1History`` fed by
    ``push_pair`` (none at alpha = 1), the predictor, Newton's undamped first
    step and ``_finish_step``, in the integrator's order of operations, so
    the trajectory is the integrator's to the last bit.
    """
    dt, n, alpha, e_r = grid.dt, grid.n_steps, mat.alpha, mat.e_r
    force = (-co.m_b * base_accel.values(grid.times())).tolist()
    classical = alpha == 1.0
    qi, vi = float(q0), float(v0)
    num0 = force[0] - co.j_nl * qi * vi**2 - co.k_l * qi - 2.0 * co.k_nl * qi**3
    if classical:
        num0 -= e_r * co.c_l * vi + 3.0 * e_r * co.c_nl * qi**2 * vi
    ai = num0 / (co.m_modal + co.j_nl * qi**2)
    history = None if classical else L1History(alpha, dt, n, channels=2)
    model = _step_model(co, e_r, dt, None if classical else history.scale)
    w0 = 4.0 / dt**2
    q, v, a = [qi], [vi], [ai]
    for step in range(1, n + 1):
        lag_q, lag_c = (None, 0.0) if classical else history.lag_sums()
        cubic = step_cubic(model, qi, vi, ai, force[step], lag_q, lag_c)
        d = dt * vi + 0.5 * dt * dt * ai
        r = _cubic(*cubic, d)
        tol = max(_NEWTON_TOL, 64.0 * EPS * co.m_modal * w0 * max(abs(qi), abs(dt * vi), 1.0))
        if abs(r) >= tol:
            c3, c2, c1, _ = cubic
            slope = (3.0 * c3 * d + 2.0 * c2) * d + c1
            d_new = d - r / slope if slope != 0.0 else d
            r_new = _cubic(*cubic, d_new)
            iterations = _MAX_NEWTON
            if abs(r_new) < abs(r):
                d, r, iterations = d_new, r_new, _MAX_NEWTON - 1
            if abs(r) >= tol:
                d = _finish_step(*cubic, d, r, tol, iterations, step, dt, qi, vi)
        u = qi + d
        a1 = w0 * (u - qi - dt * vi) - ai
        vi = vi + 0.5 * dt * (ai + a1)
        if not classical:
            history.push_pair(u - qi, u * u * u - qi * qi * qi)
        qi, ai = u, a1
        q.append(qi)
        v.append(vi)
        a.append(ai)
    return np.array(q), np.array(v), np.array(a)


def scaled(co, j, k, c):
    return dataclasses.replace(co, j_nl=j * co.j_nl, k_nl=k * co.k_nl, c_nl=c * co.c_nl)


# ------------------------------------------------------------ the cubic

SCALES = st.sampled_from([1.0, 1e-8, 0.0])


@settings(max_examples=400, deadline=None)
@given(case=st.sampled_from(["no-tip", "tip-mass"]),
       j=SCALES, k=SCALES, c=SCALES,
       alpha=st.one_of(st.just(1.0), st.floats(1e-3, 1.0 - 1e-6)),
       e_r=st.floats(0.0, 2.0),
       log10_dt=st.floats(-4.0, -1.0),
       qi=st.floats(-2.0, 2.0), vi=st.floats(-20.0, 20.0), ai=st.floats(-500.0, 500.0),
       fo=st.floats(-10.0, 10.0), lag_q=st.floats(-5.0, 5.0), lag_c=st.floats(-5.0, 5.0),
       d=st.floats(-1.0, 1.0))
def test_step_cubic_matches_closure_residual(case, j, k, c, alpha, e_r, log10_dt, qi, vi,
                                             ai, fo, lag_q, lag_c, d,
                                             case1_coeffs, case2_coeffs):
    co = scaled(case1_coeffs if case == "no-tip" else case2_coeffs, j, k, c)
    dt = 10.0**log10_dt
    ca = None if alpha == 1.0 else L1History(alpha, dt, 1).scale
    c3, c2, c1, c0 = step_cubic(_step_model(co, e_r, dt, ca), qi, vi, ai, fo, lag_q, lag_c)
    u = qi + d
    d = u - qi     # exact, so both sides see the same u
    got = ((c3 * d + c2) * d + c1) * d + c0
    state = (co, e_r, alpha, dt, ca, qi, vi, ai, fo, lag_q, lag_c)
    want = closure_residual(*state)(u)
    assert abs(got - want) <= 1e-12 * residual_magnitude(*state, u)
    # the analytic slope against the closure's complex-step derivative; the
    # magnitude is convex and increasing in |u|, so its forward difference
    # bounds the sum of the magnitudes of the terms' derivatives
    slope = (3.0 * c3 * d + 2.0 * c2) * d + c1
    exact = closure_residual(*state)(u + 1e-30j).imag / 1e-30
    h = 1e-6 * max(1.0, abs(u))
    scale = (residual_magnitude(*state, abs(u) + h) - residual_magnitude(*state, abs(u))) / h
    assert abs(slope - exact) <= 1e-12 * scale


# ------------------------------------------------------- the trajectory

def trajectory_bound(co, traj, newton_tol=1e-10):
    """What the per-step tolerance allows two solves of a run to drift apart.

    Both solves stop with |r| < tol, so at the same state their roots differ
    by e <= 2 tol / |r'|, and r' >= M_t w0 / 2 on these runs (the inertia
    term M_t w0 = 4 M_t / dt^2 dominates the slope).  Newmark turns a
    displacement error e into a velocity error 2 e / dt, which the weakly
    damped oscillator carries as a displacement amplitude of at most
    e (1 + 2 / (dt omega)), omega being its lowest linear frequency.  The
    n steps' errors add up at worst.
    """
    dt, n = traj.grid.dt, traj.grid.n_steps
    w0 = 4.0 / dt**2
    state = max(np.max(np.abs(traj.q)), dt * np.max(np.abs(traj.v)), 1.0)
    tol = max(newton_tol, 64.0 * EPS * co.m_modal * w0 * state)
    omega = math.sqrt(co.k_l / (co.m_modal + co.j_nl * np.max(traj.q**2)))
    return n * 2.0 * tol / (0.5 * co.m_modal * w0) * (1.0 + 2.0 / (dt * omega))


@pytest.mark.parametrize("case", ["no-tip", "tip-mass"])
@pytest.mark.parametrize("alpha", [0.3, 0.7, 1.0])
def test_trajectory_matches_fd_slope_stepper(case, alpha, case1_coeffs, case2_coeffs):
    co = case1_coeffs if case == "no-tip" else case2_coeffs
    mat = MaterialParams.from_ratio(0.1, alpha)
    grid = GridSpec(0.01, 3000)
    base = HarmonicForcing(0.13, 1.02 * math.sqrt(co.k_l / co.m_modal))
    traj = integrate_nonlinear(co, mat, 0.0, 0.0, grid, base)
    want = fd_slope_stepper(co, mat, 0.0, 0.0, grid, base)
    assert np.max(np.abs(traj.q - want)) <= trajectory_bound(co, traj)


# the stall of test_bisection_fallback_matches_newton, whose step 91 is bisected
STALL = dict(ratio=0.23608192197325845, alpha=0.5726133457159566, dt=0.02088715983593783,
             n=91, amp=29.150353062206644, q0=-0.006024160800807912, v0=17.32884565474078)


@pytest.mark.parametrize("case, alpha, n", [
    ("no-tip", 1.0, 1001), ("tip-mass", 1.0, 1001),
    ("no-tip", 0.5, 1001), ("tip-mass", 0.5, 1001),
    ("stall", 1.0, STALL["n"]), ("stall", STALL["alpha"], STALL["n"]),
])
def test_trajectory_equals_replay(case, alpha, n, case1_coeffs, case2_coeffs):
    # every run ends inside a history block (1001 = 31 * 32 + 9, 91 = 2 * 32 + 27)
    assert n % fracode._BASE not in (0, 1)
    co = case1_coeffs if case == "no-tip" else case2_coeffs
    omega = math.sqrt(co.k_l / co.m_modal)
    if case == "stall":
        mat = MaterialParams.from_ratio(STALL["ratio"], alpha)
        grid, base = GridSpec(STALL["dt"], n), HarmonicForcing(STALL["amp"], omega)
        q0, v0 = STALL["q0"], STALL["v0"]
    else:
        mat = MaterialParams.from_ratio(0.1, alpha)
        grid, base = GridSpec(0.01, n), HarmonicForcing(0.5, 1.02 * omega)
        q0, v0 = 0.3, -0.4
    traj = integrate_nonlinear(co, mat, q0, v0, grid, base)
    q, v, a = replay_stepper(co, mat, q0, v0, grid, base)
    np.testing.assert_array_equal(traj.q, q)
    np.testing.assert_array_equal(traj.v, v)
    np.testing.assert_array_equal(traj.a, a)


def test_bisection_fallback_matches_newton(case2_coeffs, monkeypatch):
    # a large-amplitude tip-mass run whose damped Newton stalls at step 91,
    # far from the root; the step lands on the bisection of its cubic
    co = case2_coeffs
    mat = MaterialParams.from_ratio(STALL["ratio"], STALL["alpha"])
    dt, n = STALL["dt"], STALL["n"]
    grid = GridSpec(dt, n)
    base = HarmonicForcing(STALL["amp"], math.sqrt(co.k_l / co.m_modal))
    calls = []

    def spy(residual, center, width):
        calls.append((center, width))
        return _bisect_residual(residual, center, width)

    monkeypatch.setattr(fracode, "_bisect_residual", spy)
    traj = integrate_nonlinear(co, mat, STALL["q0"], STALL["v0"], grid, base)
    assert len(calls) == 1
    center, width = calls[0]
    # step 91's cubic, rebuilt from the trajectory's first 91 levels
    hist_q, hist_c = L1History(mat.alpha, dt, n), L1History(mat.alpha, dt, n)
    for u, qi in zip(traj.q[1:n].tolist(), traj.q[:n - 1].tolist()):
        hist_q.push(u - qi)
        hist_c.push(u * u * u - qi * qi * qi)
    model = _step_model(co, mat.e_r, dt, hist_q.scale)
    force = -co.m_b * base.values(grid.times())[n]
    qi, vi = traj.q[n - 1], traj.v[n - 1]
    cubic = step_cubic(model, qi, vi, traj.a[n - 1], force, hist_q.lag_sum(), hist_c.lag_sum())
    root = _bisect_residual(partial(_cubic, *cubic), center, width)
    assert traj.q[n] == traj.q[n - 1] + root
    # Newton stopped far from the root, with the residual above its tolerance
    tol = max(1e-10, 64.0 * EPS * co.m_modal * 4.0 / dt**2 * max(abs(qi), abs(dt * vi), 1.0))
    assert abs(_cubic(*cubic, center)) >= tol
    assert abs(root - center) > 0.5 * abs(center)
    # the bisected root is where a converged Newton would land: a Newton
    # step from it moves it by no more than round-off
    slope = (3.0 * cubic[0] * root + 2.0 * cubic[1]) * root + cubic[2]
    assert abs(_cubic(*cubic, root) / slope) <= 1e-12 * max(abs(root), 1.0)


def test_step_failure_names_time_and_state(case1_coeffs):
    # at alpha = 0.5 the predictor lands about 4e15 from the step's root near
    # -1.2e6; 50 damped Newton iterations, each shrinking d by about a third,
    # stop short of it, and no bracket of the fallback search (at most
    # +-2.048 wide here) holds a sign change; the classical step stalls too
    dt, q0, v0 = 0.01, 0.1, -0.2
    for alpha in (0.5, 1.0):
        mat = MaterialParams.from_ratio(0.1, alpha)
        with pytest.raises(StepFailureError) as info:
            integrate_nonlinear(case1_coeffs, mat, q0, v0, GridSpec(dt, 10),
                                HarmonicForcing(1e20, 3.0))
        err = info.value
        assert (err.step, err.t, err.q, err.v) == (1, dt, q0, v0)
        assert err.residual > 1e6
        assert f"step 1 (t = {dt!r}, q = {q0!r}, v = {v0!r}," in str(err)


def test_step_failure_inside_a_block_names_its_step(case2_coeffs, monkeypatch):
    # the stall of test_bisection_fallback_matches_newton, step 91, lies
    # inside the third history block (91 = 2 * 32 + 27); with no bracket
    # found it fails, naming the level it started from
    co = case2_coeffs
    mat = MaterialParams.from_ratio(STALL["ratio"], STALL["alpha"])
    dt, n = STALL["dt"], STALL["n"]
    assert n % fracode._BASE not in (0, 1)
    base = HarmonicForcing(STALL["amp"], math.sqrt(co.k_l / co.m_modal))
    q0, v0 = STALL["q0"], STALL["v0"]
    traj = integrate_nonlinear(co, mat, q0, v0, GridSpec(dt, n - 1), base)
    centers = []

    def no_bracket(residual, center, width):
        centers.append(center)
        return None

    monkeypatch.setattr(fracode, "_bisect_residual", no_bracket)
    with pytest.raises(StepFailureError) as info:
        integrate_nonlinear(co, mat, q0, v0, GridSpec(dt, n), base)
    err = info.value
    qi, vi = traj.q[n - 1].item(), traj.v[n - 1].item()
    assert (err.step, err.t, err.q, err.v) == (n, n * dt, qi, vi)
    tol = 64.0 * EPS * co.m_modal * 4.0 / dt**2 * max(abs(qi), abs(dt * vi), 1.0)
    assert len(centers) == 1 and err.residual >= tol
    assert f"step {n} (t = {n * dt!r}, q = {qi!r}, v = {vi!r}," in str(err)
