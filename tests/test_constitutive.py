import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracbeam import (
    MaterialParams,
    StrainProgram,
    complex_modulus,
    ramp_hold_strain,
    ramp_hold_stress,
    stress_history_l1,
    tangent_loss,
)


def test_material_params_validation():
    with pytest.raises(ValueError):
        MaterialParams(e_inf=0.0)
    with pytest.raises(ValueError):
        MaterialParams(e_alpha=-1.0)
    with pytest.raises(ValueError):
        MaterialParams(alpha=0.0)
    with pytest.raises(ValueError):
        MaterialParams(alpha=1.5)


def test_e_r_is_derived():
    mat = MaterialParams(e_inf=2.0, e_alpha=1.0, alpha=0.5)
    assert mat.e_r == 0.5


def test_modulus_alpha_one_dashpot():
    mat = MaterialParams(1.0, 1.0, 1.0)
    storage, loss = complex_modulus(mat, 1.0)
    assert storage == 1.0
    assert loss == 1.0
    # dashpot limit exactly: G'' = E_alpha * omega
    for w in (0.3, 1.7, 9.0):
        assert complex_modulus(mat, w)[1] == mat.e_alpha * w


def test_modulus_spring_limit():
    # alpha -> 0+: the Scott-Blair element degenerates to a second spring
    mat = MaterialParams(1.0, 1.0, 1e-12)
    storage, loss = complex_modulus(mat, 2.0)
    assert storage == pytest.approx(2.0, abs=1e-9)
    assert loss == pytest.approx(0.0, abs=1e-9)


def test_modulus_against_high_precision_oracle():
    import mpmath as mp

    mp.mp.dps = 50
    alpha, omega = mp.mpf("0.5"), mp.mpf("3.51602")
    wa = omega**alpha
    half = alpha * mp.pi / 2
    want_storage = float(1 + wa * mp.cos(half))
    want_loss = float(wa * mp.sin(half))
    storage, loss = complex_modulus(MaterialParams(1.0, 1.0, 0.5), 3.51602)
    assert storage == pytest.approx(want_storage, rel=1e-14)
    assert loss == pytest.approx(want_loss, rel=1e-14)


def test_modulus_domain_error():
    mat = MaterialParams()
    with pytest.raises(ValueError):
        complex_modulus(mat, 0.0)
    with pytest.raises(ValueError):
        tangent_loss(mat, -1.0)


@settings(max_examples=200)
@given(
    alpha=st.floats(min_value=1e-3, max_value=1.0),
    omega=st.floats(min_value=1e-3, max_value=1e3),
    e_r=st.floats(min_value=0.0, max_value=100.0),
)
def test_moduli_identity_and_signs(alpha, omega, e_r):
    mat = MaterialParams.from_ratio(e_r, alpha)
    storage, loss = complex_modulus(mat, omega)
    assert storage > 0
    assert loss >= 0
    assert tangent_loss(mat, omega) == loss / storage


def test_tangent_loss_trivials():
    assert tangent_loss(MaterialParams(1.0, 1.0, 1e-12), 5.0) == pytest.approx(0.0, abs=1e-9)
    assert tangent_loss(MaterialParams(1.0, 1.0, 1.0), 1.0) == 1.0


def test_tangent_loss_monotone_in_alpha():
    omega0 = 3.51602
    vals = [tangent_loss(MaterialParams(1.0, 1.0, a), omega0)
            for a in np.arange(0.1, 0.95, 0.1)]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_ramp_hold_quiescent_start():
    mat = MaterialParams(1.0, 1.0, 0.5)
    assert ramp_hold_stress(mat, 1 / 24, 2.5, 0.0) == 0.0


def test_ramp_hold_alpha_one_classical():
    mat = MaterialParams(2.0, 3.0, 1.0)
    rate, t_ramp = 0.25, 2.0
    for t in (0.1, 0.5, 1.9):
        assert ramp_hold_stress(mat, rate, t_ramp, t) == pytest.approx(
            2.0 * rate * t + 3.0 * rate, rel=1e-15)
    # in the hold phase the dashpot stress vanishes
    assert ramp_hold_stress(mat, rate, t_ramp, 3.0) == pytest.approx(2.0 * rate * t_ramp)


def test_ramp_hold_negative_time_rejected():
    with pytest.raises(ValueError):
        ramp_hold_stress(MaterialParams(), 1.0, 1.0, -0.5)


def test_ramp_hold_hardening_then_relaxation_crossing():
    # higher alpha: more stress early in the ramp, less deep into relaxation
    lo = MaterialParams(1.0, 1.0, 0.3)
    hi = MaterialParams(1.0, 1.0, 0.9)
    rate, t_ramp = 1 / 24, 2.5
    early, late = 0.05, 6.0
    assert ramp_hold_stress(hi, rate, t_ramp, early) > ramp_hold_stress(lo, rate, t_ramp, early)
    assert ramp_hold_stress(hi, rate, t_ramp, late) < ramp_hold_stress(lo, rate, t_ramp, late)
    # the two responses cross exactly once after the hold onset; bracket it
    diff = lambda t: (ramp_hold_stress(hi, rate, t_ramp, t)
                      - ramp_hold_stress(lo, rate, t_ramp, t))
    lo_t, hi_t = early, late
    assert diff(lo_t) > 0 > diff(hi_t)
    for _ in range(80):
        mid = 0.5 * (lo_t + hi_t)
        if diff(mid) > 0:
            lo_t = mid
        else:
            hi_t = mid
    assert 0.05 < lo_t < 6.0


@pytest.mark.parametrize("rate, t_ramp, message", [
    (1.0, 0.0, "t_ramp must be positive, got 0.0"),
    (1.0, math.nan, "t_ramp must be positive, got nan"),
    (math.inf, 1.0, "ramp rate must be finite"),
    (math.nan, 1.0, "ramp rate must be finite"),
])
def test_ramp_hold_strain_validation(rate, t_ramp, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        ramp_hold_strain(rate, t_ramp, [0.0, 1.0])


def test_ramp_hold_strain_ramps_then_holds():
    t = np.array([0.0, 0.5, 1.5, 2.0, 3.0])
    assert ramp_hold_strain(-0.5, 1.5, t).tolist() == [0.0, -0.25, -0.75, -0.75, -0.75]
    assert ramp_hold_strain(2.0, 1.0, 0.25) == 0.5


def test_strain_program_validation():
    with pytest.raises(ValueError):
        StrainProgram.sampled([0.0], 0.1)
    with pytest.raises(ValueError):
        StrainProgram.sampled([0.5, 1.0], 0.1)
    with pytest.raises(ValueError):
        StrainProgram.sampled([0.0, 1.0], 0.0)


@pytest.mark.parametrize("alpha", [1.0, 0.5])
@pytest.mark.parametrize("dt", [math.inf, math.nan])
def test_strain_program_rejects_non_finite_dt(alpha, dt):
    # at alpha = 1 an infinite step would otherwise give sigma = E_inf * eps
    with pytest.raises(ValueError, match=f"dt must be positive and finite, got {dt}"):
        stress_history_l1(MaterialParams(1.0, 1.0, alpha), StrainProgram.sampled([0.0, 1.0, 2.0], dt))


@pytest.mark.parametrize("samples, node", [([0.0, math.nan], 1), ([math.nan, 0.0], 0),
                                           ([0.0, 1.0, math.inf, math.nan], 2)])
def test_strain_program_rejects_non_finite_samples(samples, node):
    with pytest.raises(ValueError, match=f"samples must be finite, got .* at node {node}"):
        StrainProgram.sampled(samples, 0.1)


def test_stress_history_zero_strain():
    program = StrainProgram.sampled(np.zeros(100), 0.01)
    sigma = stress_history_l1(MaterialParams(1.0, 1.0, 0.4), program)
    assert np.all(sigma == 0.0)


def test_stress_history_linear_strain_exact():
    # L1 reproduces piecewise-linear histories exactly
    mat = MaterialParams(1.0, 1.0, 0.6)
    dt, c = 0.01, 0.7
    t = np.arange(401) * dt
    sigma = stress_history_l1(mat, StrainProgram.sampled(c * t, dt))
    want = c * t + c * t ** (1 - 0.6) / math.gamma(2 - 0.6)
    np.testing.assert_allclose(sigma, want, rtol=0, atol=1e-12)


def test_stress_history_ramp_hold_matches_closed_form():
    mat = MaterialParams(1.0, 1.0, 0.5)
    rate, t_ramp, dt = 1 / 24, 2.5, 1e-3
    t = np.arange(int(6.0 / dt) + 1) * dt
    eps = rate * np.minimum(t, t_ramp)
    sigma = stress_history_l1(mat, StrainProgram.sampled(eps, dt))
    want = ramp_hold_stress(mat, rate, t_ramp, t)
    mask = want != 0
    rel = np.max(np.abs(sigma[mask] - want[mask]) / np.abs(want[mask]))
    # the hold onset sits on a grid node, so the scheme is exact here
    assert rel < 1e-10


def test_stress_history_order_on_smooth_strain():
    # kinked histories with on-node kinks are reproduced exactly, so the
    # scheme's 2-alpha order is measured on a smooth strain instead
    for alpha in (0.3, 0.5, 0.7):
        mat = MaterialParams(1.0, 1.0, alpha)
        errs = []
        dts = (4e-3, 2e-3, 1e-3)
        for dt in dts:
            t = np.arange(int(round(2.0 / dt)) + 1) * dt
            sigma = stress_history_l1(mat, StrainProgram.sampled(t**2, dt))
            want = t**2 + 2.0 * t ** (2 - alpha) / math.gamma(3 - alpha)
            errs.append(np.max(np.abs(sigma - want)))
        slope = np.polyfit(np.log(dts), np.log(errs), 1)[0]
        assert slope == pytest.approx(2 - alpha, abs=0.1)


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_stress_history_superposition(seed):
    rng = np.random.default_rng(seed)
    dt, n = 0.02, 64
    e1 = np.concatenate([[0.0], rng.normal(size=n)])
    e2 = np.concatenate([[0.0], rng.normal(size=n)])
    mat = MaterialParams(1.3, 0.8, 0.45)
    s1 = stress_history_l1(mat, StrainProgram.sampled(e1, dt))
    s2 = stress_history_l1(mat, StrainProgram.sampled(e2, dt))
    s12 = stress_history_l1(mat, StrainProgram.sampled(e1 + e2, dt))
    np.testing.assert_allclose(s12, s1 + s2, rtol=0, atol=1e-10)


def test_stress_history_alpha_one_ramp():
    mat = MaterialParams(1.0, 2.0, 1.0)
    dt = 0.01
    t = np.arange(201) * dt
    sigma = stress_history_l1(mat, StrainProgram.sampled(0.5 * t, dt))
    # interior: sigma = E_inf*0.5*t + E_alpha*0.5
    np.testing.assert_allclose(sigma[1:-1], 0.5 * t[1:-1] + 1.0, rtol=1e-12)


_ALPHA = st.floats(min_value=0.0, max_value=1.0, exclude_min=True)
_OMEGA = st.floats(min_value=1e-6, max_value=1e6)


def _libm_moduli(e_inf, e_alpha, alpha, omega):
    """Storage, loss and tan(delta) in Python floats: libm's pow, cos and sin."""
    wa = omega ** alpha
    half = 0.5 * math.pi * alpha
    storage = e_inf + e_alpha * wa * math.cos(half)
    loss = e_alpha * wa * math.sin(half)
    return storage, loss, loss / storage


@settings(max_examples=200)
@given(alphas=st.lists(_ALPHA, min_size=1, max_size=30),
       omegas=st.lists(_OMEGA, min_size=1, max_size=30),
       e_inf=st.floats(min_value=1e-3, max_value=1e3),
       e_alpha=st.floats(min_value=0.0, max_value=1e3))
def test_moduli_arrays_equal_scalar_calls(alphas, omegas, e_inf, e_alpha):
    def columns(mat, omega):
        return [*complex_modulus(mat, omega), tangent_loss(mat, omega)]

    # omega grid at one order
    mat = MaterialParams(e_inf, e_alpha, alphas[0])
    want = [_libm_moduli(e_inf, e_alpha, alphas[0], w) for w in omegas]
    assert [tuple(columns(mat, w)) for w in omegas] == want
    assert [c.tolist() for c in columns(mat, np.array(omegas))] == [list(c) for c in zip(*want)]

    # grid of orders at one omega
    want = [_libm_moduli(e_inf, e_alpha, a, omegas[0]) for a in alphas]
    assert [tuple(columns(MaterialParams(e_inf, e_alpha, a), omegas[0])) for a in alphas] == want
    grid = MaterialParams(e_inf, e_alpha, np.array(alphas))
    assert [c.tolist() for c in columns(grid, omegas[0])] == [list(c) for c in zip(*want)]


@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan])
def test_moduli_array_domain_errors(bad):
    mat = MaterialParams()
    with pytest.raises(ValueError, match=f"omega must be positive, got {bad}"):
        complex_modulus(mat, np.array([1.0, bad, 2.0]))
    with pytest.raises(ValueError, match="omega must be positive"):
        tangent_loss(mat, np.array([bad]))
    with pytest.raises(ValueError, match=f"alpha must lie in \\(0, 1\\], got {bad}"):
        MaterialParams(alpha=np.array([0.5, bad, 1.0]))
    with pytest.raises(ValueError, match="alpha must lie in \\(0, 1\\], got 1.5"):
        MaterialParams(alpha=np.array([0.5, 1.5]))


def test_moduli_unequal_grids_rejected():
    # an omega grid and a grid of orders pair up entry by entry, so lengths must agree
    grid = MaterialParams(alpha=np.array([0.5, 0.6]))
    with pytest.raises(ValueError, match=r"pow over arrays of unequal lengths \[2, 3\]"):
        complex_modulus(grid, np.array([1.0, 2.0, 3.0]))
    storage, loss = complex_modulus(grid, np.array([1.0, 2.0]))
    assert storage.shape == loss.shape == (2,)
