"""Closed-form warping functions used as ground truth across the tests."""

import math

import numpy as np
import numpy.polynomial as P
from scipy.interpolate import BPoly, PPoly

from revplane import curvature as cv
from revplane import jacobi


def linear_profile(a, b=0.0, r_max=50.0):
    """The exact profile m = b + a r on [0, r_max], as one polynomial piece
    under zero curvature: it takes the solved profiles' code path, and
    for a > 0 its tail (0, 0, a^2), on which the turn integral is
    closed-form."""
    x = [0.0, r_max]
    return jacobi.Profile(cv.constant(0.0), PPoly(np.array([[a], [b]]), x),
                          PPoly(np.array([[a]]), x))


def bump_profile(base, height, center, half_width, r_max=50.0):
    """Exact profile with m' = base + height (1 - t^2)^2, t = (r - center)
    / half_width, on the bump and base elsewhere; m(0) = 0.  A stand-in
    spec, K = 0 as one constant from the bump's end on, where m is
    linear, gives the profile its tail (and the turn integral a cut) at
    that end."""
    t = P.Polynomial([-1.0, 1.0 / half_width])  # in r - (center - half_width)
    bump = (base + height * (1 - t**2) ** 2).coef[::-1]
    c = np.zeros((5, 3))
    c[-1] = base
    c[:, 1] = bump
    end = center + half_width
    mp = PPoly(c, [0.0, center - half_width, end, r_max])
    return jacobi.Profile(cv.table([end, r_max], [0.0, 0.0], "constant"),
                          mp.antiderivative(), mp)


def sine_profile(r_max=40.0):
    """m = 2 + sin r on [0, r_max] as a quintic Hermite through m, m' and
    m'' at the multiples of pi/64 below r_max (so at every extremum pi/2 +
    k pi) and at r_max, with m' its derivative: m is off by about 3e-13,
    m' by 2e-11.  The zero curvature table stands in for the spec, which
    only the tail reads."""
    x = np.r_[np.arange(math.ceil(r_max / (math.pi / 64))) * (math.pi / 64), r_max]
    m = PPoly.from_bernstein_basis(
        BPoly.from_derivatives(x, np.stack([2.0 + np.sin(x), np.cos(x), -np.sin(x)], axis=1)))
    return jacobi.Profile(cv.table([0.0, r_max], [0.0, 0.0]), m, m.derivative())


def flat_m(r):
    return np.asarray(r, dtype=float)


def flat_mp(r):
    return np.ones_like(np.asarray(r, dtype=float))


def hyperbolic_m(r):
    return np.sinh(r)


def hyperbolic_mp(r):
    return np.cosh(r)


def sphere_m(r):
    return np.sin(r)


def isq0_m(r):
    # solves m'' + m / (4 (r+1)^2) = 0, m(0)=0, m'(0)=1
    r = np.asarray(r, dtype=float)
    return np.sqrt(r + 1.0) * np.log(r + 1.0)


def isq0_mp(r):
    r = np.asarray(r, dtype=float)
    return (2.0 + np.log(r + 1.0)) / (2.0 * np.sqrt(r + 1.0))
