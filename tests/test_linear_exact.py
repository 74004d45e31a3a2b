"""The exact free decay of the linear fractional oscillator, as a reference for ``integrate_linear``.

q'' + c D^alpha q + k q = 0 (Caputo, 0 < alpha < 1) from q(0) = q0, q'(0) = v0
has the Laplace transform

    Q(s) = N(s) / D(s),   N(s) = q0 s + v0 + c q0 s^(alpha-1),   D(s) = s^2 + c s^alpha + k.

With s^alpha on its principal branch, q(t) is the residue sum at the pole
pair p, conj(p) of the principal sheet, 2 Re(N(p) / D'(p) e^(p t)), plus the
integral along the cut on the negative real axis,

    -(1/pi) int_0^inf e^(-r t) Im Q(r e^(i pi)) dr

(Beyer & Kempfle, ZAMM 75, 1995; Achar, Hanneken & Clarke, Physica A 339,
2004).  ``exact_free_decay`` evaluates this sum in numpy, ``_exact_mpmath``
the same sum in mpmath at 40 digits with tanh-sinh quadrature, and the
integrator's error is measured against the former.  ``mpmath.invertlaplace``
is not used: it drops the pole pair at large t.
"""

import cmath
import math

import mpmath
import numpy as np
import pytest

from fracbeam import GridSpec, integrate_linear

# the cut integral stops at r t = _REACH, where e^(-r t) < 2e-22
_REACH = 50.0


def _pole(c, k, alpha):
    """The root of D in the upper half of the principal sheet, by Newton from i sqrt(k)."""
    p = 1j * math.sqrt(k)
    for _ in range(50):
        step = (p * p + c * p**alpha + k) / (2 * p + c * alpha * p ** (alpha - 1))
        p -= step
        if abs(step) <= 1e-15 * abs(p) and 0 < cmath.phase(p) < math.pi:
            return p
    raise AssertionError(f"no principal-sheet pole from i sqrt(k) for c={c}, k={k}, alpha={alpha}")


def _cut_rule(alpha):
    """Nodes and weights in x = (r t)^alpha on [0, _REACH^alpha].

    In x the cut integrand is bounded at 0 (r^(alpha-1) dr = dx / (alpha t^alpha)),
    but the powers x^(1/alpha) it holds are not smooth there: 20-node
    Gauss-Legendre panels, 8 equal ones and 12 below them graded by 0.3 toward 0.
    """
    top = _REACH**alpha
    inner = top / 8
    edges = np.concatenate([[0.0], inner * 0.3 ** np.arange(12, 0, -1), np.linspace(inner, top, 8)])
    y, w = np.polynomial.legendre.leggauss(20)
    half = np.diff(edges) / 2
    return ((edges[:-1] + half) + half * y[:, None]).ravel(), (half * w[:, None]).ravel()


def exact_free_decay(c, k, alpha, q0, v0, t):
    """q(t) at the (positive) times t: the pole pair's residues plus the cut integral."""
    t = np.asarray(t, dtype=float)[:, None]
    p = _pole(c, k, alpha)
    residue = (q0 * p + v0 + c * q0 * p ** (alpha - 1)) / (2 * p + c * alpha * p ** (alpha - 1))
    x, w = _cut_rule(alpha)
    r = x ** (1 / alpha) / t
    # s = r e^(i pi): s^alpha = r^alpha e^(i pi alpha), s^(alpha-1) = r^(alpha-1) e^(i pi (alpha-1))
    tilt = cmath.exp(1j * math.pi * alpha)
    q_cut = (-q0 * r + v0 - c * q0 * r ** (alpha - 1) * tilt) / (r * r + c * r**alpha * tilt + k)
    cut = -(w * np.exp(-r * t) * q_cut.imag * r / x).sum(axis=1) / (math.pi * alpha)
    return 2 * (residue * np.exp(p * t[:, 0])).real + cut


def _exact_mpmath(c, k, alpha, q0, v0, t):
    """The same sum in mpmath: the pole by findroot, the cut in u = r^alpha by tanh-sinh."""
    with mpmath.workdps(40):
        c, k, alpha, q0, v0, t = map(mpmath.mpf, (c, k, alpha, q0, v0, t))
        p = mpmath.findroot(lambda s: s**2 + c * s**alpha + k, mpmath.mpc(0, mpmath.sqrt(k)))
        residue = (q0 * p + v0 + c * q0 * p ** (alpha - 1)) / (2 * p + c * alpha * p ** (alpha - 1))

        def cut(u):
            r = u ** (1 / alpha)
            q = ((-q0 * r + v0 + c * q0 * r ** (alpha - 1) * mpmath.expjpi(alpha - 1))
                 / (r**2 + c * u * mpmath.expjpi(alpha) + k))
            return mpmath.exp(-r * t) * mpmath.im(q) * r / (alpha * u)

        knee = t ** -alpha   # r t = 1
        total = (2 * mpmath.re(residue * mpmath.exp(p * t))
                 - mpmath.quad(cut, [0, knee / 10, knee, 10 * knee, mpmath.inf]) / mpmath.pi)
        return float(total)


@pytest.mark.parametrize("alpha, q0, v0", [(0.5, 1.0, 0.0), (0.5, -0.3, 0.7), (0.3, 1.0, 0.0),
                                           (0.8, 1.0, -0.4)])
def test_exact_free_decay_matches_mpmath(alpha, q0, v0):
    c, k = 0.124, 1.24
    t = [0.1, 1.0, 5.0, 20.0]
    want = [_exact_mpmath(c, k, alpha, q0, v0, ti) for ti in t]
    assert np.max(np.abs(exact_free_decay(c, k, alpha, q0, v0, t) - want)) < 1e-12


def test_integrate_linear_converges_to_the_exact_free_decay():
    # c_l = k_l = 1.24, E_r = 0.1, alpha = 0.5 from rest at q0 = 1: the error at t = 20
    # measured 1.51e-5, 2.94e-6 and 4.34e-7, orders 1.18 and 1.38 rising toward 2 - alpha
    want = exact_free_decay(0.1 * 1.24, 1.24, 0.5, 1.0, 0.0, [20.0])[0]
    errors = []
    for dt in (4e-3, 1e-3, 2.5e-4):
        traj = integrate_linear(1.24, 1.24, 0.1, 0.5, 1.0, 0.0, GridSpec(dt, round(20.0 / dt)))
        assert traj.t[-1] == pytest.approx(20.0, rel=1e-15)
        errors.append(abs(traj.q[-1] - want))
    orders = np.log(np.divide(errors[:-1], errors[1:])) / math.log(4.0)
    assert np.all(orders >= 1.1), (errors, orders)
    assert errors[-1] < 1e-6
