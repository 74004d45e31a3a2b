"""Root finders: the closed-form critical orders and the one bisection helper.

``critical_alpha`` solves both of its conditions in closed form.  The oracle
below is the search it replaced: a 2001-point scan of the condition over
[1e-9, 2 - 1e-9] for the first sign change, then bisection of that bracket
to 1e-15.
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fracbeam import MmsParams, critical_alpha
from fracbeam.modes import bisect

MODES = ("decay-peak", "sensitivity-extremum")
SCAN_LO, SCAN_HI = 1e-9, 2.0 - 1e-9


def oracle_condition(p, mode):
    """d(decay rate)/d(alpha) or d(sensitivity)/d(alpha) as a function of alpha."""
    ln = math.log(p.omega0)

    def g(a):
        fac = p.c_l * p.e_r * p.omega0 ** (a - 1.0)
        half = 0.5 * math.pi * a
        if mode == "decay-peak":
            return fac * (0.5 * math.pi * math.cos(half) + math.sin(half) * ln)
        return fac * (math.pi * ln * math.cos(half) + (ln**2 - 0.25 * math.pi**2) * math.sin(half))

    return g


def oracle_critical_alpha(p, mode):
    """(found, alpha_cr, residual) by grid scan plus bisection."""
    g = oracle_condition(p, mode)
    grid = np.linspace(SCAN_LO, SCAN_HI, 2001)
    vals = [g(a) for a in grid]
    bracket = None
    for i in range(len(grid) - 1):
        if vals[i] == 0.0:
            bracket = (grid[i], grid[i])
            break
        if (vals[i] < 0) != (vals[i + 1] < 0):
            bracket = (grid[i], grid[i + 1])
            break
    if bracket is None:
        return False, None, None
    a_lo, a_hi = bracket
    if a_lo == a_hi:
        root = a_lo
    else:
        f_lo = g(a_lo)
        for _ in range(200):
            mid = 0.5 * (a_lo + a_hi)
            f_mid = g(mid)
            if f_mid == 0.0 or a_hi - a_lo < 1e-15:
                break
            if (f_lo < 0) == (f_mid < 0):
                a_lo, f_lo = mid, f_mid
            else:
                a_hi = mid
        root = 0.5 * (a_lo + a_hi)
    return True, root, g(root)


def params_at(omega0, c_l=1.0, e_r=1.0):
    return MmsParams(omega0=omega0, c_l=c_l, c_nl=0.0, k_nl=0.0, e_r=e_r, alpha=0.5)


def residual_floor(p, mode, alpha):
    """Rounding level of the condition near its root: eps times its largest term."""
    ln = math.log(p.omega0)
    fac = p.c_l * p.e_r * p.omega0 ** (alpha - 1.0)
    terms = (0.5 * math.pi + abs(ln) if mode == "decay-peak"
             else math.pi * abs(ln) + ln * ln + 0.25 * math.pi**2)
    return 4.0 * np.finfo(float).eps * fac * terms


# ---------------------------------------------------------- critical orders

@settings(max_examples=300, deadline=None)
@given(log10_omega0=st.floats(-3.0, 3.0), mode=st.sampled_from(MODES))
@example(log10_omega0=math.log10(3.5160152685), mode="decay-peak")
@example(log10_omega0=math.log10(0.5), mode="sensitivity-extremum")
@example(log10_omega0=math.log10(1.0 - 2.0**-53), mode="decay-peak")   # root 1 - 4.5e-17
@example(log10_omega0=math.log10(1.0 - 2.0**-52), mode="decay-peak")   # root 1 - 9.0e-17
def test_critical_alpha_matches_scan_oracle(log10_omega0, mode):
    p = params_at(10.0**log10_omega0, c_l=12.3624, e_r=0.3)
    found, alpha_old, res_old = oracle_critical_alpha(p, mode)
    res = critical_alpha(p, mode)
    if res.found and not found:
        # the scan starts 1e-9 inside (0, 2) and misses a root beyond its ends
        assert not SCAN_LO < res.alpha_cr < SCAN_HI
        return
    assert res.found == found
    if not found:
        assert res.alpha_cr is None and res.residual is None
        return
    assert abs(res.alpha_cr - alpha_old) <= 1e-15
    assert res.in_unit_interval == (0.0 < alpha_old < 1.0)
    assert abs(res.residual) <= max(abs(res_old), residual_floor(p, mode, res.alpha_cr))


@pytest.mark.parametrize("mode", MODES)
def test_critical_alpha_at_unit_frequency(mode):
    # L = ln(w0) = 0: the decay rate peaks at alpha = 1 and the sensitivity
    # slope, -(pi^2/4) sin(h), never vanishes on (0, 2)
    p = params_at(1.0)
    res = critical_alpha(p, mode)
    found, alpha_old, _ = oracle_critical_alpha(p, mode)
    assert res.found == found == (mode == "decay-peak")
    if mode == "decay-peak":
        assert res.alpha_cr == 1.0
        assert abs(alpha_old - 1.0) <= 1e-15
        assert abs(res.residual) <= residual_floor(p, mode, 1.0)
        assert not res.in_unit_interval


@pytest.mark.parametrize("sign", (1.0, -1.0))
def test_critical_alpha_at_quarter_period_log(sign):
    # L = +-pi/2: the decay peak sits at alpha = 1 +- 1/2 and the sensitivity
    # condition loses its sin(h) term, so its root is h = pi/2, alpha = 1
    omega0 = math.exp(sign * 0.5 * math.pi)
    p = params_at(omega0)
    peak = critical_alpha(p, "decay-peak")
    assert peak.alpha_cr == pytest.approx(1.0 + sign * 0.5, abs=1e-15)
    ext = critical_alpha(p, "sensitivity-extremum")
    assert ext.alpha_cr == pytest.approx(1.0, abs=1e-15)
    for mode, res in (("decay-peak", peak), ("sensitivity-extremum", ext)):
        found, alpha_old, res_old = oracle_critical_alpha(p, mode)
        assert found
        assert abs(res.alpha_cr - alpha_old) <= 1e-15
        assert abs(res.residual) <= max(abs(res_old), residual_floor(p, mode, res.alpha_cr))


@pytest.mark.parametrize("omega0", (1.0 - 2.0**-53, 1.0 - 2.0**-52))
def test_critical_alpha_never_returns_an_endpoint(omega0):
    # L = ln(w0) ~ -1e-16: the sensitivity extremum's h = pi - O(L) rounds
    # to pi, alpha to 2, which is outside the open interval (0, 2); the decay
    # peak, 1 - 4.5e-17 or 1 - 9.0e-17, stays below 1
    p = params_at(omega0)
    res = critical_alpha(p, "sensitivity-extremum")
    assert (res.found, res.alpha_cr, res.residual) == (False, None, None)
    assert not oracle_critical_alpha(p, "sensitivity-extremum")[0]
    peak = critical_alpha(p, "decay-peak")
    assert peak.found and peak.in_unit_interval
    assert peak.alpha_cr == 1.0 - 2.0**-53


def _doubles_around(x, k):
    """x and the k doubles on either side of it."""
    lo, hi, out = x, x, [x]
    for _ in range(k):
        lo, hi = math.nextafter(lo, 0.0), math.nextafter(hi, math.inf)
        out += [lo, hi]
    return out


@pytest.mark.parametrize("omega0", _doubles_around(1.0, 6)[1:]
                         + _doubles_around(math.exp(0.5 * math.pi), 6)
                         + _doubles_around(math.exp(-0.5 * math.pi), 6))
def test_critical_alpha_keeps_the_side_of_one(omega0):
    # roots within a few ulps of 1, against alpha = 1 + (2/pi) atan(B/A) in
    # 200-bit arithmetic at the same L; the scan oracle's own condition
    # evaluation is too coarse here to say on which side of 1 a root lies
    p = params_at(omega0)
    with mpmath.workprec(200):
        ln = mpmath.mpf(math.log(omega0))
        pi = mpmath.pi
        for mode, (a, b) in (("decay-peak", (pi / 2, ln)),
                             ("sensitivity-extremum", (pi * ln, ln * ln - pi**2 / 4))):
            exact = 1 + 2 / pi * mpmath.atan(b / a)
            res = critical_alpha(p, mode)
            if not 0 < exact < 2 or res.alpha_cr is None:
                continue   # the extremum's root at 2 - O(L), covered above
            assert res.in_unit_interval == (exact < 1)
            assert abs(res.alpha_cr - exact) <= 2.0**-51


def test_critical_alpha_unknown_mode():
    with pytest.raises(ValueError, match="unknown mode"):
        critical_alpha(params_at(2.0), "peak")


# ------------------------------------------------------------------ bisect

def counted(f):
    calls = []

    def g(x):
        calls.append(x)
        return f(x)

    return g, calls


def test_bisect_zero_at_lo_endpoint():
    f, calls = counted(lambda x: x)
    assert bisect(f, 0.0, 1.0, 1e-12) == 0.0
    assert calls == [0.0]


def test_bisect_zero_exactly_at_a_midpoint():
    f, calls = counted(lambda x: x - 0.375)
    assert bisect(f, 0.0, 1.0, 1e-12) == 0.375
    # lo, then the midpoints 0.5, 0.25 and 0.375
    assert calls == [0.0, 0.5, 0.25, 0.375]


def test_bisect_stops_at_tol():
    root = 1.0 / 3.0
    f, calls = counted(lambda x: x - root)
    x = bisect(f, 0.0, 1.0, 1e-3)
    # ten halvings leave a bracket of 2^-10 < 1e-3; its midpoint is returned
    # without another evaluation
    assert len(calls) == 11
    assert abs(x - root) < 0.5 * 2.0**-10
    assert bisect(lambda x: x - root, 0.0, 1.0, 1e-15) == pytest.approx(root, abs=1e-15)


def test_bisect_reversed_bracket_walks_the_same_halves():
    # hi < lo: the width test takes |hi - lo|, so a descending bracket is not
    # returned at once as its own midpoint
    root = 1.0 / 3.0
    up, up_calls = counted(lambda x: x - root)
    down, down_calls = counted(lambda x: x - root)
    assert bisect(down, 1.0, 0.0, 1e-3) == bisect(up, 0.0, 1.0, 1e-3)
    assert len(down_calls) == len(up_calls) == 11
    assert down_calls[1:] == up_calls[1:]

