import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracbeam import (
    MaterialParams,
    TipConfig,
    build_mode,
    characteristic_residual,
    characteristic_scale,
    modal_coefficients,
    mode_shape_eval,
    scale_coefficients,
    solve_eigen,
)
from fracbeam.errors import EigenSearchError
from fracbeam import modes
from fracbeam.modes import _adaptive_quad, _gauss_panels


def bisect_no_tip_oracle(lo, hi):
    """Independent bisection on 1 + cos(b) cosh(b), used as the eigen oracle."""
    f = lambda b: 1.0 + math.cos(b) * math.cosh(b)
    assert f(lo) * f(hi) < 0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(lo) * f(mid) <= 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def test_characteristic_no_tip_values(no_tip):
    # textbook first root
    assert abs(characteristic_residual(1.8751041, no_tip)) < 1e-5 * math.cosh(1.8751041)
    # small-beta limit of 1 + cos*cosh
    assert characteristic_residual(1e-8, no_tip) == pytest.approx(2.0, rel=1e-12)


def test_characteristic_tip_mass_value(tip_mass):
    beta = math.sqrt(1.38569)
    res = characteristic_residual(beta, tip_mass)
    assert abs(res) < 1e-4 * characteristic_scale(beta, tip_mass)


def test_characteristic_domain():
    with pytest.raises(ValueError):
        characteristic_residual(0.0, TipConfig())


def test_solve_eigen_no_tip_against_oracle(no_tip):
    betas = solve_eigen(no_tip, 2)
    b1 = bisect_no_tip_oracle(1.5, 2.5)
    b2 = bisect_no_tip_oracle(4.0, 5.5)
    assert betas[0] == pytest.approx(b1, abs=1e-10)
    assert betas[1] == pytest.approx(b2, abs=1e-10)
    assert betas[0] ** 2 == pytest.approx(3.51602, abs=1e-4)
    assert betas[1] == pytest.approx(4.69409, abs=1e-4)


def test_solve_eigen_tip_mass(tip_mass):
    beta = solve_eigen(tip_mass, 1)[0]
    assert beta**2 == pytest.approx(1.38569, abs=1e-4)


def test_solve_eigen_residuals_relative(no_tip, tip_mass):
    # the tip-loaded characteristic form supports two roots; the clamped-free
    # form has an unbounded ladder
    for tip, n in ((no_tip, 4), (tip_mass, 2)):
        for beta in solve_eigen(tip, n):
            res = characteristic_residual(beta, tip)
            assert abs(res) < 1e-10 * characteristic_scale(beta, tip)


def test_solve_eigen_insufficient_range(no_tip):
    with pytest.raises(EigenSearchError):
        solve_eigen(no_tip, 5, search_max_beta=5.0)


@pytest.mark.parametrize("n_modes", [1.5, 2.0, True, "2"])
def test_solve_eigen_needs_an_integer_mode_count(no_tip, n_modes):
    with pytest.raises(ValueError, match="n_modes must be an integer"):
        solve_eigen(no_tip, n_modes)


def test_solve_eigen_takes_a_numpy_integer_mode_count(no_tip):
    assert solve_eigen(no_tip, np.int64(2)) == solve_eigen(no_tip, 2)


@pytest.mark.parametrize("limit", [-5.0, 0.0, math.nan])
def test_solve_eigen_needs_a_positive_search_limit(no_tip, limit):
    with pytest.raises(ValueError, match="search_max_beta must be positive"):
        solve_eigen(no_tip, 1, search_max_beta=limit)


def test_clamped_end_exact(case1_mode, case2_mode):
    for mode in (case1_mode, case2_mode):
        assert mode_shape_eval(mode, 0.0, 0) == 0.0
        assert mode_shape_eval(mode, 0.0, 1) == 0.0


def test_mode_eval_domain(case1_mode):
    with pytest.raises(ValueError):
        mode_shape_eval(case1_mode, 1.5, 0)
    with pytest.raises(ValueError):
        mode_shape_eval(case1_mode, 0.5, 4)


def test_normalization(case1_mode, case2_mode):
    for mode in (case1_mode, case2_mode):
        val = _adaptive_quad(lambda s: mode_shape_eval(mode, s, 0) ** 2)
        assert val == pytest.approx(1.0, abs=1e-10)


def test_case1_printed_shape(case1_mode):
    # normalized sine/cosine coefficients of the clamped-free first mode
    assert case1_mode.norm == pytest.approx(0.734096, abs=1e-5)
    assert case1_mode.norm * case1_mode.coeff_b_over_a == pytest.approx(-1.0, abs=1e-5)
    assert case1_mode.coeff_b_over_a == pytest.approx(-1.0 / 0.734096, rel=1e-5)


def test_case2_printed_shape_ratio(case2_mode):
    assert case2_mode.coeff_b_over_a == pytest.approx(-0.215842 / 5.50054, rel=1e-4)
    assert case2_mode.norm == pytest.approx(5.50054, rel=1e-4)


def test_case1_free_end_boundary(case1_mode):
    # no tip hardware: curvature and shear vanish at the free end
    beta = case1_mode.beta
    assert abs(mode_shape_eval(case1_mode, 1.0, 2)) < 1e-9 * beta**2
    assert abs(mode_shape_eval(case1_mode, 1.0, 3)) < 1e-9 * beta**3


def test_case2_shape_ratio_is_consistent(case2_mode):
    # the B/A ratio satisfies its defining tip row at the eigenvalue
    b = case2_mode.beta
    s, c = math.sin(b), math.cos(b)
    sh, ch = math.sinh(b), math.cosh(b)
    jb3 = case2_mode.tip.j_tip * b**3
    row = (s + sh + jb3 * (c - ch)) + case2_mode.coeff_b_over_a * (c + ch - jb3 * (s - sh))
    assert abs(row) < 1e-10 * (abs(s + sh + jb3 * (c - ch)) + 1)


def test_derivatives_match_finite_differences(case2_mode):
    h = 1e-6
    for order in (1, 2, 3):
        for s in (0.25, 0.6, 0.93):
            fd = (mode_shape_eval(case2_mode, s + h, order - 1)
                  - mode_shape_eval(case2_mode, s - h, order - 1)) / (2 * h)
            assert mode_shape_eval(case2_mode, s, order) == pytest.approx(fd, rel=1e-7)


def test_case1_coefficients_printed(case1_coeffs):
    assert case1_coeffs.m_modal == pytest.approx(1.0, abs=1e-10)
    assert case1_coeffs.k_l == pytest.approx(12.3624, rel=1e-3)
    assert case1_coeffs.k_nl == pytest.approx(20.2203, rel=1e-3)
    assert case1_coeffs.m_b == pytest.approx(0.782992, rel=1e-3)
    assert case1_coeffs.j_nl == 0.0


def test_case1_stiffness_identity(case1_mode, case1_coeffs):
    assert case1_coeffs.k_l == pytest.approx(case1_mode.beta**4, rel=1e-9)


def test_case2_coefficients_printed(case2_mode, case2_coeffs):
    co = case2_coeffs
    assert co.k_l == pytest.approx(98.1058, rel=1e-3)
    assert co.k_nl == pytest.approx(2979.66, rel=1e-3)
    assert co.j_nl == pytest.approx(5008.25, rel=1e-3)
    # affine structure of the inertia terms: M_total = 1 + 70.769 J + 7.2734 M
    p1 = mode_shape_eval(case2_mode, 1.0, 0)
    dp1 = mode_shape_eval(case2_mode, 1.0, 1)
    assert dp1**2 == pytest.approx(70.769, rel=1e-3)
    assert p1**2 == pytest.approx(7.2734, rel=1e-3)
    assert co.m_modal == pytest.approx(1.0 + 70.769 + 7.2734, rel=1e-3)
    # affine structure of the forcing projection: M_b = -0.648623 - 2.69692 M
    assert p1 == pytest.approx(-2.69692, rel=1e-3)
    assert co.m_b == pytest.approx(-0.648623 - 2.69692, rel=1e-3)


def test_stiffness_damping_pairs_identical(case1_coeffs, case2_coeffs):
    for co in (case1_coeffs, case2_coeffs):
        assert co.k_l == co.c_l
        assert co.k_nl == co.c_nl


def test_higher_modes_no_tip(no_tip):
    # mass normalization and the stiffness identity hold for every mode
    for beta in solve_eigen(no_tip, 4):
        co = modal_coefficients(build_mode(no_tip, beta))
        assert co.m_modal == pytest.approx(1.0, abs=1e-10)
        assert co.k_l == pytest.approx(beta**4, rel=1e-9)


def test_quadrature_doubling_converged(case2_mode):
    for order_pair in ((2, 2), (1, 2)):
        f = lambda s: (mode_shape_eval(case2_mode, s, order_pair[0]) ** 2
                       * mode_shape_eval(case2_mode, s, order_pair[1]) ** 2)
        i64 = _gauss_panels(f, 64)
        i128 = _gauss_panels(f, 128)
        assert abs(i128 - i64) < 1e-10 * abs(i128)


def test_scale_coefficients_case1(case1_coeffs):
    sc = scale_coefficients(case1_coeffs, MaterialParams.from_ratio(1.0, 0.5))
    assert sc.omega0 == pytest.approx(3.51602, abs=1e-4)
    assert sc.omega0**2 * case1_coeffs.m_modal == pytest.approx(case1_coeffs.k_l, rel=1e-12)


def test_scale_coefficients_case2_rate(case2_coeffs):
    sc = scale_coefficients(case2_coeffs, MaterialParams.from_ratio(1.0, 0.5))
    assert sc.c_l == pytest.approx(1.24, abs=0.01)


def test_scale_invariance_under_common_factor(case2_coeffs):
    from dataclasses import replace

    mat = MaterialParams.from_ratio(0.3, 0.4)
    sc = scale_coefficients(case2_coeffs, mat, 1.0)
    scaled_up = replace(case2_coeffs,
                        m_modal=7.0 * case2_coeffs.m_modal,
                        j_nl=7.0 * case2_coeffs.j_nl,
                        k_l=7.0 * case2_coeffs.k_l,
                        c_l=7.0 * case2_coeffs.c_l,
                        k_nl=7.0 * case2_coeffs.k_nl,
                        c_nl=7.0 * case2_coeffs.c_nl)
    sc7 = scale_coefficients(scaled_up, mat, 1.0)
    assert sc7.omega0 == pytest.approx(sc.omega0, rel=1e-14)
    assert sc7.c_l == pytest.approx(sc.c_l, rel=1e-14)
    assert sc7.c_nl == pytest.approx(sc.c_nl, rel=1e-14)
    assert sc7.k_nl == pytest.approx(sc.k_nl, rel=1e-14)
    assert sc7.m_nl == pytest.approx(sc.m_nl, rel=1e-14)


def test_tip_config_validation():
    with pytest.raises(ValueError):
        TipConfig(-1.0, 0.0)
    with pytest.raises(ValueError):
        TipConfig(0.0, float("nan"))


@settings(max_examples=15, deadline=None)
@given(m_tip=st.floats(min_value=0.0, max_value=5.0))
def test_random_tip_mass_no_inertia(m_tip):
    tip = TipConfig(m_tip, 0.0)
    beta = solve_eigen(tip, 1)[0]
    assert abs(characteristic_residual(beta, tip)) < 1e-10 * characteristic_scale(beta, tip)
    mode = build_mode(tip, beta)
    val = _adaptive_quad(lambda s: mode_shape_eval(mode, s, 0) ** 2)
    assert val == pytest.approx(1.0, abs=1e-9)
    assert mode_shape_eval(mode, 0.0, 0) == 0.0


@pytest.mark.parametrize("m_tip,j_tip", [(2.0, 1.0), (1.0, 0.5), (3.0, 2.0), (1.0, 3.0)])
def test_tip_inertia_configurations(m_tip, j_tip):
    # with tip rotatory inertia the characteristic form supports a finite
    # low-frequency spectrum; the returned roots still honor the contract
    tip = TipConfig(m_tip, j_tip)
    beta = solve_eigen(tip, 1)[0]
    assert abs(characteristic_residual(beta, tip)) < 1e-10 * characteristic_scale(beta, tip)
    mode = build_mode(tip, beta)
    val = _adaptive_quad(lambda s: mode_shape_eval(mode, s, 0) ** 2)
    assert val == pytest.approx(1.0, abs=1e-9)


def test_large_beta_rescaled_evaluation(no_tip):
    # mode 6 sits past the exponential-splitting threshold; the shape must
    # stay clean (normalization and clamped end intact)
    betas = solve_eigen(no_tip, 6, search_max_beta=20.0)
    beta6 = betas[5]
    assert beta6 > 15.0
    mode = build_mode(no_tip, beta6)
    val = _adaptive_quad(lambda s: mode_shape_eval(mode, s, 0) ** 2)
    assert val == pytest.approx(1.0, abs=1e-8)
    co = modal_coefficients(mode)
    assert co.m_modal == pytest.approx(1.0, abs=1e-8)
    assert co.k_l == pytest.approx(beta6**4, rel=1e-7)
    # the free-end displacement of a clamped-free mode alternates near +/-2
    assert abs(mode_shape_eval(mode, 1.0, 0)) == pytest.approx(2.0, abs=1e-4)


_GRID_CASES = {"no-tip": (TipConfig(0.0, 0.0), 6), "tip-mass": (TipConfig(1.0, 1.0), 2),
               "custom": (TipConfig(0.5, 0.02), 2)}


@functools.cache
def _grid_mode(case, k):
    """Mode k of a case, built once; no-tip mode 6 lies past the exponential split."""
    tip, n = _GRID_CASES[case]
    return build_mode(tip, solve_eigen(tip, n, 20.0)[k])


@settings(max_examples=150, deadline=None)
@given(case_mode=st.sampled_from([(c, k) for c, (_, n) in _GRID_CASES.items() for k in range(n)]),
       order=st.integers(min_value=0, max_value=3),
       s=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=40))
def test_mode_shape_grid_equals_pointwise(case_mode, order, s):
    mode = _grid_mode(*case_mode)
    grid = mode_shape_eval(mode, np.array(s), order)
    assert grid.tolist() == [mode_shape_eval(mode, x, order) for x in s]



def test_gauss_rule_built_once(monkeypatch):
    tip = TipConfig(1.0, 1.0)
    beta = solve_eigen(tip, 1)[0]
    want = modal_coefficients(build_mode(tip, beta))
    calls = []
    leggauss = np.polynomial.legendre.leggauss
    monkeypatch.setattr(np.polynomial.legendre, "leggauss", lambda n: calls.append(n) or leggauss(n))
    modes._gauss_rule.cache_clear()
    for _ in range(3):
        assert modal_coefficients(build_mode(tip, beta)) == want    # every bit kept
    assert calls == [12]
