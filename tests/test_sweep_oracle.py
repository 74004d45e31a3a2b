"""The array sweep against the per-point scalar solver it replaced.

``frequency_sweep`` and ``solve_steady_amplitudes`` evaluate the steady-state
cubic, its Cardano roots, the Newton polish, the filtering and the phases for
a whole detuning grid in one numpy pass.  The oracle below is the earlier
implementation, one grid point at a time in Python floats: it rebuilds the
coefficients, solves and tags the roots, and scans and bisects the
discriminant without calling into the library's solver.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fracbeam import CubicCoeffs, MmsParams, frequency_sweep, solve_steady_amplitudes

# published no-tip rates, the lumped oscillator of the time-domain study
# (pronounced folds at f = 1), and a tip-mass rate set
CASES = {
    "no-tip": MmsParams(omega0=3.5160152685, c_l=12.3624, c_nl=20.2203, k_nl=20.2203,
                        e_r=0.3, alpha=0.4, f=1.0),
    "lumped": MmsParams(omega0=math.sqrt(1.24), c_l=1.24, c_nl=1.24, k_nl=1.24,
                        e_r=0.3, alpha=0.4, f=1.0),
    "tip-mass": MmsParams(omega0=1.114, c_l=1.241, c_nl=37.7, k_nl=37.7, e_r=0.1,
                          alpha=0.5, m_nl=63.36, case_tag="tip-mass"),
}


# ----------------------------------------------------------------- the oracle

def oracle_coeffs(p, delta):
    """(a1, a2, b1, b2, c_rhs) at one detuning."""
    fac = p.e_r * p.omega0 ** (p.alpha - 1.0)
    half = 0.5 * math.pi * p.alpha
    sin_h, cos_h = math.sin(half), math.cos(half)
    a1 = 0.5 * p.c_l * fac * sin_h
    a2 = 0.375 * p.c_nl * fac * sin_h
    b1 = delta - 0.5 * p.c_l * fac * cos_h
    b2 = -0.75 * (p.c_nl * fac * cos_h + p.k_nl / p.omega0 + p.m_nl * p.omega0 / 3.0)
    return a1, a2, b1, b2, p.f**2 / (4.0 * p.omega0**2)


def oracle_cubic(a1, a2, b1, b2, c_rhs):
    return a2**2 + b2**2, 2.0 * (a1 * a2 + b1 * b2), a1**2 + b1**2, -c_rhs


def oracle_discriminant(coeffs):
    a, b, c, d = oracle_cubic(*coeffs)
    return (18.0 * a * b * c * d - 4.0 * b**3 * d + b**2 * c**2
            - 4.0 * a * c**3 - 27.0 * a**2 * d**2)


def oracle_real_cubic_roots(p3, p2, p1, p0):
    a, b, c = p2 / p3, p1 / p3, p0 / p3
    shift = a / 3.0
    p = b - a * a / 3.0
    q = 2.0 * a**3 / 27.0 - a * b / 3.0 + c
    disc = -4.0 * p**3 - 27.0 * q * q
    if disc > 0.0:
        m = 2.0 * math.sqrt(-p / 3.0)
        arg = min(1.0, max(-1.0, 3.0 * q / (p * m)))
        theta = math.acos(arg)
        roots = [m * math.cos((theta - 2.0 * math.pi * k) / 3.0) - shift for k in range(3)]
    elif disc < 0.0:
        if p == 0.0:
            roots = [-math.copysign(abs(q) ** (1.0 / 3.0), q) - shift]
        elif p < 0.0:
            m = 2.0 * math.sqrt(-p / 3.0)
            arg = 3.0 * abs(q) / (p * m)
            t0 = -2.0 * math.copysign(1.0, q) * math.cosh(math.acosh(max(-arg, 1.0)) / 3.0)
            roots = [math.sqrt(-p / 3.0) * t0 - shift]
        else:
            m = 2.0 * math.sqrt(p / 3.0)
            arg = 3.0 * q / (p * m)
            t0 = -2.0 * math.copysign(1.0, q) * math.sinh(math.asinh(abs(arg)) / 3.0)
            roots = [math.sqrt(p / 3.0) * t0 - shift]
    else:
        roots = [-shift] if p == 0.0 else [3.0 * q / p - shift, -1.5 * q / p - shift]
    cubic = lambda x: ((p3 * x + p2) * x + p1) * x + p0
    polished = []
    for x in roots:
        fx = cubic(x)
        dfx = (3.0 * p3 * x + 2.0 * p2) * x + p1
        if dfx != 0.0:
            x_new = x - fx / dfx
            if abs(cubic(x_new)) < abs(fx):
                x = x_new
        polished.append(x)
    return polished


def oracle_roots(coeffs):
    """[(amp, gamma, stable)] in ascending amplitude at one detuning."""
    a1, a2, b1, b2, c_rhs = coeffs
    p3, p2, p1, p0 = oracle_cubic(*coeffs)
    scale = max(abs(p2), abs(p1), abs(p0), 1e-300)
    if abs(p3) < 1e-14 * scale:
        xs = []
        if abs(p2) < 1e-14 * max(abs(p1), abs(p0), 1e-300):
            if p1 != 0.0:
                xs = [-p0 / p1]
        else:
            disc = p1 * p1 - 4.0 * p2 * p0
            if disc >= 0.0:
                s = -0.5 * (p1 + math.copysign(math.sqrt(disc), p1))
                xs = [s / p2] + ([p0 / s] if s != 0.0 else [0.0])
    else:
        xs = oracle_real_cubic_roots(p3, p2, p1, p0)
    x_tol = 1e-12 * max(1.0, max((abs(x) for x in xs), default=1.0))
    amps = sorted({x for x in xs if x > x_tol})
    if c_rhs == 0.0:
        amps = [0.0] + amps
    n_pos = len([x for x in amps if x > 0.0])
    roots = []
    for rank, x in enumerate(amps):
        a = math.sqrt(x)
        if c_rhs > 0.0 and a > 0.0:
            gamma = math.atan2(a1 * a + a2 * a**3, b1 * a + b2 * a**3)
        else:
            gamma = 0.0
        roots.append((a, gamma, not (n_pos == 3 and rank == 1)))
    return roots


def oracle_sweep(p, deltas):
    """(per-point root lists, fold points): scan, then bisect each sign change."""
    points = [float(d) for d in deltas]
    root_sets = [oracle_roots(oracle_coeffs(p, d)) for d in points]
    discs = [oracle_discriminant(oracle_coeffs(p, d)) for d in points]
    folds = []
    for i in range(len(points) - 1):
        if discs[i] == 0.0:
            folds.append(points[i])
        elif (discs[i] < 0) != (discs[i + 1] < 0):
            lo, hi = points[i], points[i + 1]
            d_lo = discs[i]
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                d_mid = oracle_discriminant(oracle_coeffs(p, mid))
                if d_mid == 0.0 or hi - lo < 1e-10:
                    break
                if (d_lo < 0) == (d_mid < 0):
                    lo, d_lo = mid, d_mid
                else:
                    hi = mid
            else:
                mid = 0.5 * (lo + hi)
            folds.append(mid)
    return root_sets, folds


# -------------------------------------------------------------------- checks

def assert_matches_oracle(branch, root_sets, folds):
    assert branch.bifurcations == folds
    assert branch.n_roots.tolist() == [len(rs) for rs in root_sets]
    for i, roots in enumerate(root_sets):
        n = len(roots)
        assert branch.stable[i, :n].tolist() == [s for _, _, s in roots]
        assert not branch.stable[i, n:].any()
        assert np.isnan(branch.amp[i, n:]).all() and np.isnan(branch.gamma[i, n:]).all()
        for k, (amp, gamma, _) in enumerate(roots):
            assert branch.amp[i, k] == pytest.approx(amp, rel=1e-13, abs=0.0)
            assert branch.gamma[i, k] == pytest.approx(gamma, rel=0.0, abs=1e-12)


@settings(max_examples=150, deadline=None)
@given(
    case=st.sampled_from(sorted(CASES)),
    nonlinearity=st.sampled_from([1.0, 1e-8, 0.0]),
    alpha=st.floats(0.0, 1.0, exclude_min=True),
    e_r=st.floats(0.01, 1.0),
    f=st.floats(0.0, 3.0),
    lo=st.floats(-5.0, 0.0),
    hi=st.floats(1.0, 25.0),
    count=st.integers(1, 400),
    descending=st.booleans(),
)
# both folds inside the grid, at the lumped rates and for the tip mass
@example(case="lumped", nonlinearity=1.0, alpha=0.4, e_r=0.3, f=1.0,
         lo=-1.0, hi=4.0, count=401, descending=False)
@example(case="tip-mass", nonlinearity=1.0, alpha=0.5, e_r=0.1, f=0.5,
         lo=-5.0, hi=20.0, count=333, descending=True)
# zero forcing (c_rhs == 0), a near-vanishing and a vanishing cubic term
@example(case="no-tip", nonlinearity=1.0, alpha=0.3, e_r=0.5, f=0.0,
         lo=-2.0, hi=4.0, count=61, descending=False)
@example(case="lumped", nonlinearity=1e-8, alpha=0.7, e_r=0.2, f=2.0,
         lo=-3.0, hi=3.0, count=61, descending=False)
@example(case="tip-mass", nonlinearity=0.0, alpha=0.5, e_r=0.1, f=1.5,
         lo=-3.0, hi=3.0, count=61, descending=False)
def test_sweep_matches_scalar_oracle(case, nonlinearity, alpha, e_r, f, lo, hi, count,
                                     descending):
    base = CASES[case]
    params = replace(base, c_nl=base.c_nl * nonlinearity, k_nl=base.k_nl * nonlinearity,
                     m_nl=base.m_nl * nonlinearity)
    deltas = np.linspace(lo, hi, count)
    if descending:
        deltas = deltas[::-1]
    branch = frequency_sweep(params, deltas, alpha=alpha, e_r=e_r, f=f)
    p = replace(params, alpha=alpha, e_r=e_r, f=f)
    assert_matches_oracle(branch, *oracle_sweep(p, deltas))


def test_fold_examples_cross_both_folds():
    # the explicit examples above really exercise the three-root band
    for params, grid in ((replace(CASES["lumped"], f=1.0), np.linspace(-1.0, 4.0, 401)),
                         (replace(CASES["tip-mass"], f=0.5), np.linspace(20.0, -5.0, 333))):
        branch = frequency_sweep(params, grid)
        assert len(branch.bifurcations) == 2
        assert 3 in branch.n_roots.tolist()


@pytest.mark.parametrize("case", sorted(CASES))
def test_sweep_bit_identical_to_oracle(case):
    # the few transcendental and pow calls go through libm, so the array pass
    # reproduces the scalar solver to the last bit, not only to round-off
    deltas = np.linspace(-3.0, 12.0, 2001)
    branch = frequency_sweep(CASES[case], deltas, alpha=0.3, f=2.5)
    root_sets, folds = oracle_sweep(replace(CASES[case], alpha=0.3, f=2.5), deltas)
    assert branch.bifurcations == folds
    got = [[(a, g, s) for a, g, s in zip(amp[:n], gamma[:n], stable[:n])]
           for amp, gamma, stable, n in zip(branch.amp.tolist(), branch.gamma.tolist(),
                                           branch.stable.tolist(), branch.n_roots.tolist())]
    assert got == root_sets


def test_root_sets_and_branches_follow_the_arrays():
    branch = frequency_sweep(CASES["lumped"], np.linspace(-1.0, 4.0, 201))
    assert "branches" not in vars(branch)     # continuation runs on first read only
    for i, roots in enumerate(branch.root_sets):
        assert len(roots) == branch.n_roots[i]
        assert [r.amp for r in roots] == branch.amp[i, :len(roots)].tolist()
        assert [r.stable for r in roots] == branch.stable[i, :len(roots)].tolist()
    assert sum(len(b["delta"]) for b in branch.branches) == int(branch.n_roots.sum())


def test_single_point_solver_matches_oracle():
    rng = np.random.default_rng(20240817)
    for _ in range(300):
        coeffs = (rng.uniform(0.01, 2.0), rng.choice([0.0, 1e-9, rng.uniform(0.0, 3.0)]),
                  rng.uniform(-5.0, 5.0), -rng.choice([0.0, 1e-9, rng.uniform(0.01, 8.0)]),
                  rng.choice([0.0, rng.uniform(1e-4, 4.0)]))
        got = solve_steady_amplitudes(CubicCoeffs(*coeffs))
        assert [(r.amp, r.gamma, r.stable) for r in got] == oracle_roots(coeffs)
