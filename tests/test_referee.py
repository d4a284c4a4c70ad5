"""The referee (tests/referee.py) against forms it does not share code
with: the Bessel form of isq(u), the two-term constant-curvature
solutions, and mpmath's own Taylor ODE solver at spot radii."""

import math

import mpmath
import pytest

from revplane import constructions as cx
from revplane import curvature as cv

import referee


@pytest.mark.parametrize("u", [0.01, 0.1, 0.25])
def test_referee_matches_the_bessel_form(u):
    # isq_state sums Bessel functions in floats: a few ulp
    r = [0.3, 1.0, 4.0, 20.0, 90.0]
    m, mp = referee.profile(cv.isq(u), r)
    for x, got_m, got_mp in zip(r, m, mp):
        want_m, want_mp = cx.isq_state(u, x)
        assert got_m == pytest.approx(want_m, rel=4e-15, abs=1e-15)
        assert got_mp == pytest.approx(want_mp, rel=4e-15, abs=1e-15)


@pytest.mark.parametrize("k", [1.0, 0.0, -1.0, -7.0])
def test_referee_matches_the_two_term_forms(k):
    # from the state (m0, m0') at lo, m = m0 C + m0' S / q, in 30 digits
    lo, y0, r = 0.5, (0.75, -0.25), [0.6, 1.3, 2.9, 6.0]
    m, mp = referee.profile(cv.constant(k), r, y0=y0, x0=lo)
    with mpmath.workdps(30):
        for x, got_m, got_mp in zip(r, m, mp):
            t = mpmath.mpf(x) - lo
            if k == 0.0:
                want = (y0[0] + y0[1] * t, y0[1])
            else:
                q = mpmath.sqrt(abs(k))
                C, S = (mpmath.cos(q * t), mpmath.sin(q * t)) if k > 0 else (
                    mpmath.cosh(q * t), mpmath.sinh(q * t))
                want = (y0[0] * C + y0[1] * S / q,
                        y0[1] * C - math.copysign(1, k) * y0[0] * q * S)
            assert got_m == float(want[0]) and got_mp == float(want[1])


def test_referee_matches_odefun():
    # mpmath.odefun on the analytic pieces: isq(0.05) from the origin, and
    # the bulge's drop (K = 1 - 8 S((r - a) / w)) from the referee's state
    # where it starts
    with mpmath.workdps(25):
        f = mpmath.odefun(lambda x, y: [y[1], -(1 / (4 * (x + 1) ** 2) - mpmath.mpf(0.05)) * y[0]],
                          0, [0, 1])
        m, mp = referee.profile(cv.isq(0.05), [0.7, 2.0])
        for x, got_m, got_mp in zip((0.7, 2.0), m, mp):
            assert got_m == pytest.approx(float(f(x)[0]), rel=1e-15)
            assert got_mp == pytest.approx(float(f(x)[1]), rel=1e-15)
        a, mu, w = 3 * math.pi / 4, 8.0, 0.25
        spec = cv.spliced(cv.constant(1.0), a, cv.DropParams(mu, w))
        (m_a,), (mp_a,) = referee.profile(spec, [a])

        def K(x):
            t = (x - a) / w
            return 1 - mu * t**3 * (10 - 15 * t + 6 * t**2)

        g = mpmath.odefun(lambda x, y: [y[1], -K(x) * y[0]], a, [m_a, mp_a])
        r = [a + 0.1, a + 0.2]
        m, mp = referee.profile(spec, r)
        for x, got_m, got_mp in zip(r, m, mp):
            assert got_m == pytest.approx(float(g(x)[0]), rel=1e-15)
            assert got_mp == pytest.approx(float(g(x)[1]), rel=1e-15)
