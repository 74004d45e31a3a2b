import math
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fracbeam import (
    CubicCoeffs,
    GridSpec,
    MaterialParams,
    MmsParams,
    critical_alpha,
    decay_rate,
    envelope_fit,
    free_envelope,
    frequency_sweep,
    integrate_nonlinear,
    scale_coefficients,
    sensitivity,
    solve_steady_amplitudes,
    steady_state_cubic,
)
from fracbeam.multiscale import _amplitude_squared_integral, _slow_flow


CASE1 = MmsParams(omega0=3.5160152685, c_l=12.3624, c_nl=20.2203, k_nl=20.2203,
                  e_r=0.3, alpha=0.4, f=1.0)

# rates of the lumped fractional oscillator used for the linear time-domain
# study; in this regime the jump phenomenon is pronounced at f = 1
LUMPED = MmsParams(omega0=math.sqrt(1.24), c_l=1.24, c_nl=1.24, k_nl=1.24,
                   e_r=0.3, alpha=0.4, f=1.0)


def slow_flow_rk4(params, a0, phi0, t_end, h=1e-4):
    """Independent RK4 integration of the amplitude/phase slow flow."""
    fac = params.e_r * params.omega0 ** (params.alpha - 1.0)
    half = 0.5 * math.pi * params.alpha
    sin_h, cos_h = math.sin(half), math.cos(half)

    def rhs(y):
        a, _ = y
        da = -fac * sin_h * (0.5 * params.c_l * a + 0.375 * params.c_nl * a**3)
        dphi = (0.5 * params.c_l * fac * cos_h
                + 0.75 * params.c_nl * fac * cos_h * a**2
                + 0.75 * params.k_nl / params.omega0 * a**2
                - 0.25 * params.m_nl * params.omega0 * a**2)
        return np.array([da, dphi])

    n = int(round(t_end / h))
    y = np.array([a0, phi0], dtype=float)
    for _ in range(n):
        k1 = rhs(y)
        k2 = rhs(y + 0.5 * h * k1)
        k3 = rhs(y + 0.5 * h * k2)
        k4 = rhs(y + h * k3)
        y = y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    return y[0], y[1]


# -------------------------------------------------------------- free decay

def test_params_validation():
    with pytest.raises(ValueError):
        MmsParams(omega0=0.0, c_l=1, c_nl=1, k_nl=1, e_r=1, alpha=0.5)
    for name in ("omega0", "c_l", "e_r", "f"):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            replace(CASE1, **{name: math.nan})


def test_free_envelope_no_dissipation():
    p = replace(CASE1, e_r=0.0, c_nl=0.0)
    amp, _ = free_envelope(p, 2.0, 0.0, np.array([0.0, 5.0, 50.0]))
    np.testing.assert_allclose(amp, 2.0, rtol=1e-14)


def test_free_envelope_linear_limit():
    p = replace(CASE1, c_nl=0.0)
    rate = decay_rate(p)
    t = np.array([0.0, 1.0, 3.0, 10.0])
    amp, _ = free_envelope(p, 1.5, 0.0, t)
    np.testing.assert_allclose(amp, 1.5 * np.exp(-0.5 * rate * t), rtol=1e-12)


def test_free_envelope_r_only_closed_form():
    # zero linear damping (c_l = 0) exercises the algebraic-decay branch
    p = replace(CASE1, c_l=0.0)
    fac = p.e_r * p.omega0 ** (p.alpha - 1)
    r = 0.375 * p.c_nl * fac * math.sin(0.5 * math.pi * p.alpha)
    t = np.array([0.0, 2.0, 20.0])
    amp, _ = free_envelope(p, 1.2, 0.0, t)
    np.testing.assert_allclose(amp, 1.2 / np.sqrt(1 + 2 * r * 1.2**2 * t), rtol=1e-13)


@pytest.mark.parametrize("alpha", [0.1, 0.3, 0.5, 0.7, 0.9])
def test_free_envelope_matches_rk4(alpha):
    p = replace(CASE1, e_r=0.1, alpha=alpha)
    a_rk, phi_rk = slow_flow_rk4(p, 1.0, 0.0, 5.0)
    amp, phi = free_envelope(p, 1.0, 0.0, 5.0)
    assert amp == pytest.approx(a_rk, rel=1e-8)
    assert phi == pytest.approx(phi_rk, rel=1e-7)


def test_free_envelope_decay_faster_for_larger_alpha():
    amps = [free_envelope(replace(CASE1, e_r=0.1, alpha=a), 1.0, 0.0, 10.0)[0]
            for a in (0.1, 0.3, 0.5, 0.7, 0.9)]
    assert all(b < a for a, b in zip(amps, amps[1:]))


def test_free_envelope_phase_vs_log_closed_form():
    # the integral of a^2 has a logarithmic closed form; check the quadrature
    p = replace(CASE1, e_r=0.2, alpha=0.6)
    fac = p.e_r * p.omega0 ** (p.alpha - 1)
    half = 0.5 * math.pi * p.alpha
    pl = 0.5 * p.c_l * fac * math.sin(half)
    r = 0.375 * p.c_nl * fac * math.sin(half)
    c1 = 0.5 * p.c_l * fac * math.cos(half)
    c2 = 0.75 * p.c_nl * fac * math.cos(half) + 0.75 * p.k_nl / p.omega0
    a0, t = 0.8, 7.0
    int_a2 = math.log((pl + r * a0**2 * (1 - math.exp(-2 * pl * t))) / pl) / (2 * r)
    _, phi = free_envelope(p, a0, 0.25, t)
    assert phi == pytest.approx(0.25 + c1 * t + c2 * int_a2, rel=1e-10)


def test_free_envelope_tip_mass_phase_term():
    # m_nl only shifts the phase rate, never the amplitude
    p_tip = MmsParams(omega0=1.114, c_l=1.241, c_nl=37.7, k_nl=37.7, e_r=0.1,
                      alpha=0.5, m_nl=63.36)
    p_plain = replace(p_tip, m_nl=0.0)
    t = np.array([0.0, 1.0, 4.0])
    amp_tip, phi_tip = free_envelope(p_tip, 0.5, 0.0, t)
    amp_plain, phi_plain = free_envelope(p_plain, 0.5, 0.0, t)
    np.testing.assert_allclose(amp_tip, amp_plain, rtol=1e-14)
    assert phi_tip[1] < phi_plain[1]
    a_rk, phi_rk = slow_flow_rk4(p_tip, 0.5, 0.0, 4.0)
    assert amp_tip[2] == pytest.approx(a_rk, rel=1e-8)
    assert phi_tip[2] == pytest.approx(phi_rk, rel=1e-7)


def _mp_integral_a2(p_lin, r_cub, a0, t):
    """mpmath quadrature of a(s)^2 over [0, t] for da/ds = -(p a + r a^3)."""
    p, r, a0sq = mpmath.mpf(p_lin), mpmath.mpf(r_cub), mpmath.mpf(a0) ** 2

    def a2(s):
        if p == 0:
            return a0sq / (1 + 2 * r * a0sq * s)
        decay = mpmath.exp(-2 * p * s)
        return p * a0sq * decay / (p + r * a0sq * (1 - decay))

    breaks = [0] + [b for b in (0.1, 1, 10) if b < t] + [t]
    return mpmath.quad(a2, breaks)


@pytest.mark.parametrize("p_lin, r_cub", [
    (0.3, 0.2), (2.0, 1e-9), (1e-9, 0.5),       # generic and near-limit rates
    (0.0, 0.2), (0.3, 0.0), (0.0, 0.0),          # the three limits
])
def test_envelope_phase_integral_matches_mpmath(p_lin, r_cub):
    t = np.array([0.0, 1e-6, 0.3, 1.0, 7.5, 25.0, 60.0, 100.0])
    got = _amplitude_squared_integral(p_lin, r_cub, 1.3, t)
    with mpmath.workdps(30):
        want = [float(_mp_integral_a2(p_lin, r_cub, 1.3, ti)) for ti in t]
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("change", [{}, {"c_l": 0.0}, {"c_nl": 0.0}, {"e_r": 0.0}])
def test_free_envelope_phase_matches_mpmath(change):
    p = replace(CASE1, **{"e_r": 0.1, **change})
    fac = p.e_r * p.omega0 ** (p.alpha - 1)
    half = 0.5 * math.pi * p.alpha
    pl = 0.5 * p.c_l * fac * math.sin(half)
    r = 0.375 * p.c_nl * fac * math.sin(half)
    c1 = 0.5 * p.c_l * fac * math.cos(half)
    c2 = 0.75 * p.c_nl * fac * math.cos(half) + 0.75 * p.k_nl / p.omega0
    t = np.array([0.0, 0.5, 4.0, 100.0])
    _, phase = free_envelope(p, 0.9, 0.2, t)
    with mpmath.workdps(30):
        want = [float(0.2 + c1 * mpmath.mpf(ti) + c2 * _mp_integral_a2(pl, r, 0.9, ti))
                for ti in t]
    np.testing.assert_allclose(phase, want, rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("a0, phi0, t, name", [
    (math.inf, 0.0, 1.0, "a0"),
    (math.nan, 0.0, 1.0, "a0"),
    (1.0, math.nan, 1.0, "phi0"),
    (1.0, -math.inf, 1.0, "phi0"),
    (1.0, 0.0, math.nan, "t"),
    (1.0, 0.0, [0.0, 1.0, math.inf], "t"),
])
def test_free_envelope_rejects_non_finite_input(a0, phi0, t, name):
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        free_envelope(CASE1, a0, phi0, t)


# ------------------------------------------------- decay rate / sensitivity

def _separate_formulas(p, order):
    """The slow-flow coefficients, each written out on its own with its operand
    order: the decay rate's and the cubic's factor E_r w0^(a-1), the
    sensitivity's c_l (E_r w0^(a-1)) and the curvature's (c_l E_r) w0^(a-1);
    sensitivity and curvature at ``order``."""
    fac = p.e_r * p.omega0 ** (p.alpha - 1.0)
    half = 0.5 * math.pi * p.alpha
    sin_h, cos_h = math.sin(half), math.cos(half)
    sens_fac = p.c_l * (p.e_r * p.omega0 ** (order - 1.0))
    curv_fac = p.c_l * p.e_r * p.omega0 ** (order - 1.0)
    at, ln = 0.5 * math.pi * order, math.log(p.omega0)
    return {
        "decay": p.c_l * fac * math.sin(0.5 * math.pi * p.alpha),
        "sensitivity": sens_fac * (0.5 * math.pi * math.cos(at) + math.sin(at) * ln),
        "curvature": curv_fac * (math.pi * ln * math.cos(at)
                                 + (ln**2 - 0.25 * math.pi**2) * math.sin(at)),
        "a1": 0.5 * p.c_l * fac * sin_h,
        "a2": 0.375 * p.c_nl * fac * sin_h,
        "shift": 0.5 * p.c_l * fac * cos_h,
        "b2": -0.75 * (p.c_nl * fac * cos_h + p.k_nl / p.omega0 + p.m_nl * p.omega0 / 3.0),
        "c2": (0.75 * p.c_nl * fac * cos_h + 0.75 * p.k_nl / p.omega0
               - 0.25 * p.m_nl * p.omega0),
    }


_rate = st.floats(0.0, 100.0)


@given(omega0=st.floats(1e-3, 1e3), c_l=_rate, c_nl=_rate, k_nl=_rate,
       e_r=st.one_of(st.just(0.0), st.floats(1e-6, 10.0)), alpha=st.floats(1e-3, 1.0),
       m_nl=st.one_of(st.just(0.0), _rate), order=st.floats(1e-3, 1.999))
@example(omega0=1.114, c_l=1.24, c_nl=37.7, k_nl=37.7, e_r=0.0, alpha=0.4, m_nl=63.4, order=1.5)
@example(omega0=0.37, c_l=0.3, c_nl=0.0, k_nl=0.0, e_r=0.7, alpha=0.5, m_nl=0.0, order=0.5)
@settings(max_examples=300, deadline=None)
def test_slow_flow_record_matches_separate_formulas(omega0, c_l, c_nl, k_nl, e_r, alpha,
                                                    m_nl, order):
    # bit for bit: one derivation of every coefficient changes no table
    p = MmsParams(omega0=omega0, c_l=c_l, c_nl=c_nl, k_nl=k_nl, e_r=e_r, alpha=alpha,
                  m_nl=m_nl, f=1.0)
    own, at_order = _separate_formulas(p, p.alpha), _separate_formulas(p, order)
    flow = _slow_flow(p)
    for name, value in own.items():
        assert getattr(flow, name) == value, name
    assert _slow_flow(p, order).sensitivity == at_order["sensitivity"]
    assert _slow_flow(p, order).curvature == at_order["curvature"]
    assert decay_rate(p) == own["decay"] and sensitivity(p) == own["sensitivity"]
    for mode, name in (("decay-peak", "sensitivity"), ("sensitivity-extremum", "curvature")):
        res = critical_alpha(p, mode)
        if res.found:
            assert res.residual == _separate_formulas(p, res.alpha_cr)[name], mode


@pytest.mark.parametrize("change", [{"f": 1e200}, {"omega0": 1e200, "f": 0.0}])
def test_free_slow_flow_needs_no_forcing_term(change):
    # f^2 or w0^2 overflows here, but only the resonance cubic reads f^2/(4 w0^2)
    p = replace(MmsParams(omega0=3.5, c_l=1, c_nl=1, k_nl=1, e_r=0.1, alpha=0.5), **change)
    values = [decay_rate(p), sensitivity(p), *free_envelope(p, 1.0, 0.0, 1.0)]
    for mode in ("decay-peak", "sensitivity-extremum"):
        res = critical_alpha(p, mode)
        assert res.found
        values += [res.alpha_cr, res.residual]
    assert all(math.isfinite(v) for v in values)


_HUGE_PARAMS = MmsParams(omega0=3.5, c_l=1, c_nl=1, k_nl=1, e_r=0.1, alpha=0.5, f=1e200)
_HUGE_CUBIC = CubicCoeffs(a1=1.0, a2=1e200, b1=0.0, b2=1.0, c_rhs=1.0)


@pytest.mark.parametrize("call, operands", [
    (lambda: steady_state_cubic(_HUGE_PARAMS, 0.0), "MmsParams(omega0=3.5, "),
    (_HUGE_CUBIC.cubic, "CubicCoeffs(a1=1.0, a2=1e+200, "),
    (_HUGE_CUBIC.discriminant, "CubicCoeffs(a1=1.0, a2=1e+200, "),
    (lambda: solve_steady_amplitudes(_HUGE_CUBIC), "CubicCoeffs(a1=1.0, a2=1e+200, "),
], ids=["steady_state_cubic", "cubic", "discriminant", "solve_steady_amplitudes"])
def test_cubic_overflow_names_its_operands(call, operands):
    with pytest.raises(OverflowError, match="the steady-state cubic overflows at ") as info:
        call()
    message = str(info.value)
    assert message.count("overflows") == 1 and operands in message


def test_decay_rate_trivials():
    p = replace(CASE1, alpha=1.0)
    assert decay_rate(p) == pytest.approx(p.c_l * p.e_r, rel=1e-15)
    assert decay_rate(replace(CASE1, alpha=1e-12)) == pytest.approx(0.0, abs=1e-11)
    assert decay_rate(replace(CASE1, e_r=2 * CASE1.e_r)) == pytest.approx(
        2 * decay_rate(CASE1), rel=1e-14)


def test_sensitivity_matches_finite_difference():
    h = 1e-6
    for alpha in np.arange(0.05, 0.951, 0.05):
        p = replace(CASE1, alpha=float(alpha))
        fd = (decay_rate(replace(p, alpha=float(alpha) + h))
              - decay_rate(replace(p, alpha=float(alpha) - h))) / (2 * h)
        assert sensitivity(p) == pytest.approx(fd, rel=1e-6)


def test_sensitivity_unit_frequency():
    p = MmsParams(omega0=1.0, c_l=2.0, c_nl=0, k_nl=0, e_r=0.5, alpha=0.3)
    want = 0.5 * math.pi * 2.0 * 0.5 * math.cos(0.15 * math.pi)
    assert sensitivity(p) == pytest.approx(want, rel=1e-14)


def test_sensitivity_scale_free_in_cl_er():
    base = sensitivity(CASE1) / (CASE1.c_l * CASE1.e_r)
    for c_l, e_r in ((1.0, 1.0), (5.0, 0.2), (0.3, 7.0)):
        p = replace(CASE1, c_l=c_l, e_r=e_r)
        assert sensitivity(p) / (c_l * e_r) == pytest.approx(base, rel=1e-12)


def test_critical_alpha_decay_peak():
    res = critical_alpha(CASE1, "decay-peak")
    assert res.found
    assert abs(res.residual) < 1e-12
    # confirmed local maximum of the decay rate (the root sits past alpha = 1
    # for this natural frequency, so sample the rate formula directly)
    rate = lambda a: (CASE1.c_l * CASE1.e_r * CASE1.omega0 ** (a - 1)
                      * math.sin(0.5 * math.pi * a))
    peak = rate(res.alpha_cr)
    assert peak > rate(res.alpha_cr + 0.01)
    assert peak > rate(res.alpha_cr - 0.01)
    assert not res.in_unit_interval


def test_critical_alpha_er_invariant():
    roots = [critical_alpha(replace(CASE1, e_r=er), "decay-peak").alpha_cr
             for er in (0.1, 1.0, 10.0)]
    assert max(roots) - min(roots) < 1e-12


def test_critical_alpha_low_frequency_closed_form():
    p = MmsParams(omega0=0.5, c_l=1.0, c_nl=0, k_nl=0, e_r=1.0, alpha=0.5)
    res = critical_alpha(p, "decay-peak")
    closed = -(2 / math.pi) * math.atan(math.pi / (2 * math.log(0.5)))
    assert res.in_unit_interval
    assert res.alpha_cr == pytest.approx(closed, abs=1e-12)
    assert res.closed_form == pytest.approx(closed, rel=1e-15)


def test_critical_alpha_sensitivity_extremum():
    res = critical_alpha(CASE1, "sensitivity-extremum")
    assert res.found
    h = 1e-6
    s_plus = sensitivity(replace(CASE1, alpha=res.alpha_cr + h))
    s_minus = sensitivity(replace(CASE1, alpha=res.alpha_cr - h))
    assert abs((s_plus - s_minus) / (2 * h)) < 1e-5


def test_critical_alpha_no_root_reported():
    # at unit frequency the sensitivity slope never changes sign in (0, 2)
    p = MmsParams(omega0=1.0, c_l=1.0, c_nl=0, k_nl=0, e_r=1.0, alpha=0.5)
    res = critical_alpha(p, "sensitivity-extremum")
    assert not res.found
    assert res.alpha_cr is None


# ------------------------------------------------------- steady-state cubic

def test_cubic_trivials():
    cc = steady_state_cubic(replace(CASE1, f=0.0), 0.5)
    assert cc.c_rhs == 0.0
    cc1 = steady_state_cubic(replace(CASE1, alpha=1.0), 0.5)
    fac = CASE1.e_r / CASE1.omega0 ** 0  # w0^(alpha-1) = w0^0
    assert cc1.a1 == pytest.approx(0.5 * CASE1.c_l * CASE1.e_r, rel=1e-12)
    assert cc1.b1 == pytest.approx(0.5, rel=1e-12)  # cos term drops out
    assert cc1.b2 == pytest.approx(-0.75 * CASE1.k_nl / CASE1.omega0, rel=1e-12)


def test_cubic_tip_term_reduction():
    tip = MmsParams(omega0=1.114, c_l=1.24, c_nl=37.7, k_nl=37.7, e_r=0.3,
                    alpha=0.4, m_nl=63.4, f=1.0)
    plain = replace(tip, m_nl=0.0)
    c_tip = steady_state_cubic(tip, 1.0)
    c_plain = steady_state_cubic(plain, 1.0)
    assert c_tip.a1 == c_plain.a1 and c_tip.a2 == c_plain.a2
    assert c_tip.b1 == c_plain.b1 and c_tip.c_rhs == c_plain.c_rhs
    assert c_tip.b2 == pytest.approx(
        c_plain.b2 - 0.75 * tip.m_nl * tip.omega0 / 3.0, rel=1e-12)


def _zero_crossing_frequency(traj):
    q, t = traj.q, traj.t
    i = np.nonzero((q[:-1] > 0) & (q[1:] <= 0))[0]
    crossings = t[i] - q[i] * (t[i + 1] - t[i]) / (q[i + 1] - q[i])
    return 2 * math.pi * (len(crossings) - 1) / (crossings[-1] - crossings[0])


@pytest.fixture(scope="module")
def tip_free_shifts(case2_coeffs):
    """Undamped tip-mass free vibration (e_r = 0): the slow-flow rates and the
    integrator's frequency shift over its small-amplitude frequency, per amplitude."""
    mat = MaterialParams.from_ratio(0.0, 0.5)
    grid = GridSpec(0.01, 6000)
    omega = {a: _zero_crossing_frequency(integrate_nonlinear(case2_coeffs, mat, a, 0.0, grid))
             for a in (1e-4, 0.01, 0.02)}
    params = scale_coefficients(case2_coeffs, mat)
    assert params.m_nl > 0
    return params, {a: omega[a] - omega[1e-4] for a in (0.01, 0.02)}


def test_free_envelope_tip_mass_shift_matches_integrator(tip_free_shifts):
    params, shifts = tip_free_shifts
    for a, shift in shifts.items():
        _, phase_rate = free_envelope(params, a, 0.0, 1.0)     # c2 a^2, undamped
        assert phase_rate == pytest.approx(shift, rel=0.02)


@pytest.mark.xfail(strict=True, reason=(
    "the f -> 0 backbone of steady_state_cubic has +m_nl w0 a^2 / 4 where free_envelope "
    "and the integrator have -m_nl w0 a^2 / 4, so it overstates the tip-mass shift about "
    "5.6x; bench/oracle.py restates the same b2"))
def test_steady_state_backbone_tip_mass_matches_integrator(tip_free_shifts):
    params, shifts = tip_free_shifts
    cc = steady_state_cubic(params, 0.0)
    for a, shift in shifts.items():
        # at e_r = 0, b1 = delta, and the nontrivial f -> 0 root has b1 + b2 a^2 = 0
        assert -cc.b2 * a**2 == pytest.approx(shift, rel=0.02)


def test_zero_forcing_root():
    roots = solve_steady_amplitudes(steady_state_cubic(replace(CASE1, f=0.0), 0.7))
    assert len(roots) == 1
    assert roots[0].amp == 0.0
    assert roots[0].stable


def test_linear_resonance_amplitude():
    cc = CubicCoeffs(a1=0.3, a2=0.0, b1=-0.4, b2=0.0, c_rhs=0.09)
    roots = solve_steady_amplitudes(cc)
    assert len(roots) == 1
    assert roots[0].amp == pytest.approx(math.sqrt(0.09 / (0.3**2 + 0.4**2)), rel=1e-12)


def _random_coeffs(rng):
    return CubicCoeffs(
        a1=rng.uniform(0.01, 2.0),
        a2=rng.uniform(0.0, 3.0),
        b1=rng.uniform(-5.0, 5.0),
        b2=-rng.uniform(0.01, 8.0),
        c_rhs=rng.uniform(1e-4, 4.0),
    )


def test_roots_match_companion_matrix_oracle():
    rng = np.random.default_rng(20240817)
    for _ in range(200):
        cc = _random_coeffs(rng)
        got = sorted(r.amp**2 for r in solve_steady_amplitudes(cc))
        rts = np.roots(cc.cubic())
        real = rts[np.abs(rts.imag) < 1e-9 * np.maximum(1.0, np.abs(rts.real))].real
        want = sorted(x for x in real if x > 1e-12)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g == pytest.approx(w, rel=1e-8, abs=1e-12)
        # discriminant sign rule on real-root counts
        n_real = len(real)
        disc = cc.discriminant()
        if disc < -1e-12:
            assert n_real == 1
        elif disc > 1e-12:
            assert n_real == 3
        assert len(got) in (1, 3) or disc == pytest.approx(0.0, abs=1e-12)


def test_roots_satisfy_radical_form():
    rng = np.random.default_rng(7)
    for _ in range(200):
        cc = _random_coeffs(rng)
        for r in solve_steady_amplitudes(cc):
            a = r.amp
            lhs = (cc.a1 * a + cc.a2 * a**3) ** 2 + (cc.b1 * a + cc.b2 * a**3) ** 2
            assert lhs == pytest.approx(cc.c_rhs, rel=1e-9)
            # reconstructed phase is on the unit circle
            s = (cc.a1 * a + cc.a2 * a**3) / math.sqrt(cc.c_rhs)
            c = (cc.b1 * a + cc.b2 * a**3) / math.sqrt(cc.c_rhs)
            assert s**2 + c**2 == pytest.approx(1.0, abs=1e-12)
            assert math.sin(r.gamma) == pytest.approx(s, abs=1e-9)
            assert math.cos(r.gamma) == pytest.approx(c, abs=1e-9)


# ------------------------------------------------------------------- sweeps

def test_sweep_three_root_interval_lumped():
    deltas = np.linspace(-1.0, 4.0, 501)
    branch = frequency_sweep(LUMPED, deltas)
    counts = {len(rs) for rs in branch.root_sets}
    assert 3 in counts
    assert counts <= {1, 3}
    assert len(branch.bifurcations) == 2
    lo, hi = branch.bifurcations
    # inside the interval: three roots, middle one unstable
    mid = 0.5 * (lo + hi)
    roots = sorted(frequency_sweep(LUMPED, [mid]).root_sets[0], key=lambda r: r.amp)
    assert [r.stable for r in roots] == [True, False, True]


def test_sweep_bifurcation_is_double_root():
    branch = frequency_sweep(LUMPED, np.linspace(-1.0, 4.0, 501))
    for d in branch.bifurcations:
        cc = steady_state_cubic(LUMPED, d)
        assert abs(cc.discriminant()) < 1e-4   # refined to ~1e-10 in delta
        p3, p2, p1, p0 = cc.cubic()
        rts = np.roots((p3, p2, p1, p0))
        real = np.sort(rts[np.abs(rts.imag) < 1e-5].real)
        # two of the roots coalesce at the fold
        assert np.min(np.diff(real)) < 1e-3 if len(real) == 3 else True


def test_sweep_interval_shrinks_with_alpha():
    widths = []
    for alpha in (0.4, 0.5, 0.6, 0.7):
        branch = frequency_sweep(LUMPED, np.linspace(-1.0, 4.0, 501), alpha=alpha)
        assert len(branch.bifurcations) == 2
        widths.append(branch.bifurcations[1] - branch.bifurcations[0])
    assert all(b < a for a, b in zip(widths, widths[1:]))


def test_sweep_peak_drops_with_er():
    peaks = []
    for er in np.arange(0.1, 1.01, 0.1):
        branch = frequency_sweep(CASE1, np.linspace(-2.0, 4.0, 301), e_r=float(er), f=0.5)
        peaks.append(max(r.amp for rs in branch.root_sets for r in rs))
    assert all(b < a for a, b in zip(peaks, peaks[1:]))


@pytest.mark.parametrize("override, n_folds", [
    ({"alpha": 0.3147 - 0.002}, 2), ({"alpha": 0.3147 + 0.002}, 0),
    ({"f": 1.7643 - 0.04}, 0), ({"f": 1.7643 + 0.04}, 2),
])
def test_sweep_hysteresis_onset(override, n_folds):
    # the two folds merge at the cusp: for the published rates at E_r = 0.3
    # that is alpha_c = 0.3147 at f = 1, and f_c = 1.7643 at alpha = 0.4.
    # A fine grid, because just past the cusp the folds lie 1e-3 apart.
    branch = frequency_sweep(CASE1, np.linspace(-2.0, 10.0, 120001), **override)
    assert len(branch.bifurcations) == n_folds
    assert branch.n_roots.max() == (3 if n_folds else 1)


def test_sweep_monotone_grid_required():
    with pytest.raises(ValueError):
        frequency_sweep(CASE1, [0.0, 1.0, 0.5])
    with pytest.raises(ValueError):
        frequency_sweep(CASE1, [])
    with pytest.raises(ValueError):
        frequency_sweep(CASE1, [[0.0, 1.0], [2.0, 3.0]])
    for grid in ([0.0, math.inf], [math.nan], [-math.inf, 0.0, 1.0]):
        with pytest.raises(ValueError, match="delta_grid must be finite"):
            frequency_sweep(CASE1, grid)


@pytest.mark.parametrize("name, value", [
    ("a1", math.nan), ("a2", math.inf), ("b1", -math.inf), ("b2", math.nan),
    ("c_rhs", math.nan), ("c_rhs", math.inf), ("b1", np.array([0.0, 1.0, math.nan])),
])
def test_cubic_coeffs_reject_non_finite(name, value):
    fields = dict(a1=1.0, a2=1.0, b1=1.0, b2=-1.0, c_rhs=1.0)
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        CubicCoeffs(**{**fields, name: value})


# -------------------------------------------- cross-module consistency

def test_steady_state_matches_direct_integration(case1_coeffs):
    # drive the full model at resonance with weak damping and compare the
    # settled amplitude against the stable cubic root
    mat = MaterialParams.from_ratio(0.05, 0.5)
    scaled = scale_coefficients(case1_coeffs, mat)
    w0 = scaled.omega0
    from fracbeam import HarmonicForcing

    base_amp = 0.1 * case1_coeffs.m_modal / abs(case1_coeffs.m_b)
    params = MmsParams.from_scaled(replace(scaled, f=0.1))
    roots = solve_steady_amplitudes(steady_state_cubic(params, 0.0))
    stable = [r for r in roots if r.stable]
    assert len(stable) >= 1

    dt = 2 * math.pi / w0 / 400
    grid = GridSpec(dt, int(round(90.0 / dt)))
    traj = integrate_nonlinear(case1_coeffs, mat, 0.0, 0.0, grid,
                               HarmonicForcing(base_amp, w0))
    fit = envelope_fit(traj, window=0.15)
    settled = float(np.mean(fit.peak_amps))
    best = min(abs(settled - r.amp) / r.amp for r in stable)
    assert best < 0.05
