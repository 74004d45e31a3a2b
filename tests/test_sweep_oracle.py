"""The array sweep against the per-point scalar solver it replaced.

``frequency_sweep`` and ``solve_steady_amplitudes`` evaluate the steady-state
cubic, its Cardano roots, the Newton polish, the filtering and the phases for
a whole detuning grid in one numpy pass.  The oracle below is the earlier
implementation, one grid point at a time in Python floats: it rebuilds the
coefficients, solves and tags the roots, and scans and bisects the
discriminant without calling into the library's solver.

The sweep signs its grid discriminant with numpy products and bisects folds
on a plain-float closure; both are checked here against the libm formula of
``CubicCoeffs.discriminant``, bit for bit, also next to and on the folds:
its sign changes, bisected (``public_folds``), are the sweep's folds.
The root filter, which sorts, dedupes, counts and tags the roots as three
columns, is checked against its (n, 3) form, ``conftest.matrix_steady_roots``.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fracbeam import (CubicCoeffs, MmsParams, frequency_sweep, solve_steady_amplitudes,
                      steady_state_cubic)
from fracbeam.modes import bisect
from conftest import matrix_steady_roots
from fracbeam import multiscale
from fracbeam.multiscale import _discriminant, _grid_discriminant, _sort3

# published no-tip rates, the lumped oscillator of the time-domain study
# (pronounced folds at f = 1), and a tip-mass rate set
CASES = {
    "no-tip": MmsParams(omega0=3.5160152685, c_l=12.3624, c_nl=20.2203, k_nl=20.2203,
                        e_r=0.3, alpha=0.4, f=1.0),
    "lumped": MmsParams(omega0=math.sqrt(1.24), c_l=1.24, c_nl=1.24, k_nl=1.24,
                        e_r=0.3, alpha=0.4, f=1.0),
    "tip-mass": MmsParams(omega0=1.114, c_l=1.241, c_nl=37.7, k_nl=37.7, e_r=0.1,
                          alpha=0.5, m_nl=63.36),
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
        pm = abs(p) * 2.0 * math.sqrt(abs(p) / 3.0)
        if pm == 0.0 or math.isinf(3.0 * abs(q) / pm):
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


def cubic_term_negligible(p3, p2, p1, p0, x):
    """|p3 x^3| <= 1e-14 max(|p2 x^2|, |p1 x|, |p0|), compared after division by x^2."""
    ax = abs(x)
    if ax * ax == 0.0:
        return True
    return not abs(p3) * ax > 1e-14 * max(abs(p2), abs(p1) / ax, abs(p0) / (ax * ax))


def oracle_roots(coeffs):
    """[(amp, gamma, stable)] in ascending amplitude at one detuning."""
    a1, a2, b1, b2, c_rhs = coeffs
    p3, p2, p1, p0 = oracle_cubic(*coeffs)
    scale = max(abs(p2), abs(p1), abs(p0), 1e-300)
    xs = None
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
        # the quadratic stands for a cubic only if it has a root and p3 x^3
        # is negligible at each of them
        if p3 != 0.0 and not (xs and all(cubic_term_negligible(p3, p2, p1, p0, x) for x in xs)):
            xs = None
    if xs is None:
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
                if d_mid == 0.0 or abs(hi - lo) < 1e-10:
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


def test_root_sets_follow_the_arrays():
    branch = frequency_sweep(CASES["lumped"], np.linspace(-1.0, 4.0, 201))
    assert "root_sets" not in vars(branch)    # built on first read only
    for i, roots in enumerate(branch.root_sets):
        assert len(roots) == branch.n_roots[i]
        assert [r.amp for r in roots] == branch.amp[i, :len(roots)].tolist()
        assert [r.stable for r in roots] == branch.stable[i, :len(roots)].tolist()


def test_single_point_solver_matches_oracle():
    rng = np.random.default_rng(20240817)
    for _ in range(300):
        coeffs = (rng.uniform(0.01, 2.0), rng.choice([0.0, 1e-9, rng.uniform(0.0, 3.0)]),
                  rng.uniform(-5.0, 5.0), -rng.choice([0.0, 1e-9, rng.uniform(0.01, 8.0)]),
                  rng.choice([0.0, rng.uniform(1e-4, 4.0)]))
        got = solve_steady_amplitudes(CubicCoeffs(*coeffs))
        assert [(r.amp, r.gamma, r.stable) for r in got] == oracle_roots(coeffs)


# ------------------------------------- the sweep's discriminants, bit for bit

def public_discriminant(params):
    """``steady_state_cubic(params, delta).discriminant()`` as a function of a float delta."""
    return lambda delta: float(steady_state_cubic(params, delta).discriminant())


def public_folds(params, deltas):
    """The sweep's folds from the public discriminant, as hex strings.

    Each sign change between neighbouring nodes of ``deltas``, or node where
    the discriminant is zero, bisected to 1e-10 from the lower-index node.
    """
    disc = public_discriminant(params)
    deltas = [float(d) for d in deltas]
    values = [disc(d) for d in deltas]
    return [bisect(disc, lo, hi, 1e-10).hex()
            for lo, hi, v_lo, v_hi in zip(deltas, deltas[1:], values, values[1:])
            if v_lo == 0.0 or (v_lo < 0) != (v_hi < 0)]


@settings(max_examples=120, deadline=None)
@given(
    case=st.sampled_from(sorted(CASES)),
    nonlinearity=st.sampled_from([1.0, 1e-8, 0.0]),
    alpha=st.floats(0.0, 1.0, exclude_min=True),
    e_r=st.just(0.0) | st.floats(0.01, 1.0),
    f=st.floats(0.0, 3.0),
    descending=st.booleans(),
)
@example(case="no-tip", nonlinearity=1.0, alpha=0.2, e_r=0.3, f=1.0, descending=False)
@example(case="tip-mass", nonlinearity=1.0, alpha=0.5, e_r=0.1, f=0.5, descending=True)
@example(case="lumped", nonlinearity=1.0, alpha=0.4, e_r=0.3, f=0.0, descending=False)
def test_fold_closure_is_the_discriminant(case, nonlinearity, alpha, e_r, f, descending):
    # the sweep bisects its folds on a closure over the grid's coefficients:
    # the folds are the public discriminant's, bisected, to the last bit
    base = CASES[case]
    params = replace(base, c_nl=base.c_nl * nonlinearity, k_nl=base.k_nl * nonlinearity,
                     m_nl=base.m_nl * nonlinearity, alpha=alpha, e_r=e_r, f=f)
    grid = np.linspace(-5.0, 25.0, 121)[::-1 if descending else 1]
    got = frequency_sweep(params, grid).bifurcations
    assert [x.hex() for x in got] == public_folds(params, grid)


@pytest.mark.parametrize("case, alpha, f", [("no-tip", 0.2, 1.0), ("lumped", 0.2, 1.0),
                                            ("lumped", 0.4, 1.0), ("tip-mass", 0.4, 0.5)])
def test_grid_discriminant_signs_on_folds(case, alpha, f):
    # nodes one ulp apart across each fold: the numpy products alone get the
    # sign wrong at some of them, and the libm recomputation must mend each
    params = replace(CASES[case], alpha=alpha, f=f)
    coarse = np.linspace(-5.0, 25.0, 3001)
    folds = frequency_sweep(params, coarse).bifurcations
    assert folds
    # the folds, on the grid and on the grid reversed, are the public discriminant's
    assert [x.hex() for x in folds] == public_folds(params, coarse)
    down = frequency_sweep(params, coarse[::-1]).bifurcations
    assert [x.hex() for x in down] == public_folds(params, coarse[::-1])
    for x in folds:
        # bisected with no tolerance, down to a double next to the sign change
        i = int(np.searchsorted(coarse, x))
        x = bisect(public_discriminant(params), float(coarse[i - 1]), float(coarse[i]), 0.0)
        nodes = x + np.arange(-1000, 1001) * math.ulp(x)
        cubic = steady_state_cubic(params, nodes).cubic()
        got, want = _grid_discriminant(*cubic), _discriminant(*cubic)
        assert ((got < 0) == (want < 0)).all() and ((got == 0.0) == (want == 0.0)).all()
        assert_matches_oracle(frequency_sweep(params, nodes), *oracle_sweep(params, nodes))


def test_grid_discriminant_out_of_range_factors():
    # factors near under- and overflow, and exact zeros, take the libm path
    a, d = 2.0, -0.5
    b = np.array([0.0, 1e-70, -1e-70, 1e70, 3.0, -2.5, 1e-200])
    c = np.array([1.0, 1e-65, 1e65, 2.0, 0.0, 1e-300, 1.0])
    got, want = _grid_discriminant(a, b, c, d), _discriminant(a, b, c, d)
    assert ((got < 0) == (want < 0)).all() and ((got == 0.0) == (want == 0.0)).all()
    # and a power that overflows raises there, as the libm formula does
    with pytest.raises(OverflowError):
        _grid_discriminant(a, np.array([1.0, 1e150]), np.array([1.0, 1.0]), d)


@pytest.mark.parametrize("case, alpha, f, grid", [
    ("lumped", 0.4, 1.0, np.linspace(-1.0, 4.0, 401)),
    ("tip-mass", 0.5, 0.5, np.linspace(-5.0, 20.0, 333)),
    ("no-tip", 0.3, 1.0, np.linspace(-2.0, 4.0, 10_001)),
])
def test_descending_grid_reports_the_same_folds(case, alpha, f, grid):
    # the reversed grid bisects each bracket from its other end, to the same double
    params = replace(CASES[case], alpha=alpha, f=f)
    up = frequency_sweep(params, grid).bifurcations
    down = frequency_sweep(params, grid[::-1]).bifurcations
    assert len(up) == 2
    assert [x.hex() for x in down] == [x.hex() for x in up[::-1]]


@pytest.mark.parametrize("e_r", [1e-8, 1e-60, 1.2e-120, 1e-200])
def test_near_quadratic_cubic_keeps_its_real_root(e_r):
    # |p3| is below 1e-14 of the other coefficients, but the quadratic's
    # root (amplitude 7.24e7 at e_r = 1e-8) lies where p3 x^3 dominates:
    # the cubic's one real root is x = 142448.6, amplitude 377.4
    params = replace(CASES["lumped"], c_nl=1.24e-8, k_nl=1.24e-8, e_r=e_r, alpha=1.0, f=1.0)
    coeffs = steady_state_cubic(params, 0.0)
    p3, p2, p1, p0 = coeffs.cubic()
    assert abs(p3) < 1e-14 * max(abs(p2), abs(p1), abs(p0))
    real = [z.real for z in np.roots([p3, p2, p1, p0]) if z.imag == 0.0 and z.real > 0.0]
    roots = solve_steady_amplitudes(coeffs)
    assert len(real) == len(roots) == 1
    assert roots[0].amp ** 2 == pytest.approx(real[0], rel=1e-12)
    assert [r[0] for r in oracle_roots(oracle_coeffs(params, 0.0))] == \
        pytest.approx([roots[0].amp], rel=1e-13)
    branch = frequency_sweep(params, np.array([-0.5, 0.0, 0.5]))
    assert branch.n_roots[1] == 1 and branch.amp[1, 0] == roots[0].amp


# ------------------------------------------------ the root filter on columns

@st.composite
def _root_rows(draw):
    """(n, 3) rows as ``_real_roots`` could return them, and then some.

    The values come from a small pool, so that rows repeat roots: a scale s
    (the row's largest |x| when it holds +-s), the floor 1e-12 max(1, s) and
    its neighbours, zeros, infinities, NaN in any slot, and free positives
    (three distinct ones make a saddle-node row).
    """
    s = draw(st.sampled_from([0.25, 1.0, 3.0, 1e9]))
    floor = 1e-12 * max(1.0, s)
    pool = [math.nan, s, -s, floor, math.nextafter(floor, 0.0), math.nextafter(floor, math.inf),
            0.0, -0.0, math.inf, -math.inf]
    pool += draw(st.lists(st.floats(min_value=1e-13, max_value=s), min_size=1, max_size=4))
    n = 3 * draw(st.integers(1, 20))
    return np.array(draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))).reshape(-1, 3)


@settings(max_examples=300, deadline=None)
@given(xs=_root_rows(), c_rhs=st.sampled_from([0.0, 0.7]), data=st.data())
def test_column_root_filter_matches_matrix_filter(xs, c_rhs, data):
    b1 = np.array(data.draw(st.lists(st.floats(-5.0, 5.0), min_size=len(xs), max_size=len(xs))))
    coeffs = CubicCoeffs(a1=0.3, a2=-0.8, b1=b1, b2=1.7, c_rhs=c_rhs)
    with pytest.MonkeyPatch.context() as mp:
        # both filters read the drawn rows through _real_roots; the (n, 3) one sorts them in place
        mp.setattr(multiscale, "_real_roots", lambda *cubic: xs.copy())
        want = matrix_steady_roots(coeffs, coeffs.cubic())
        got = multiscale._steady_roots(coeffs, coeffs.cubic())
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.shape == w.shape
        assert g.tobytes() == w.tobytes()


@settings(max_examples=300, deadline=None)
@given(st.lists(st.lists(st.one_of(st.just(math.nan), st.floats(allow_nan=False)),
                         min_size=3, max_size=3), min_size=1, max_size=30))
def test_sort_network_matches_sort_with_nans_last(rows):
    xs = np.array(rows)
    np.testing.assert_array_equal(np.column_stack(_sort3(*xs.T)), np.sort(xs, axis=1))
