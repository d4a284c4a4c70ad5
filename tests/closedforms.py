"""Closed-form warping functions used as ground truth across the tests."""

import math

import numpy as np
from scipy.interpolate import PPoly

from revplane import curvature as cv
from revplane import jacobi


def linear_profile(a, b=0.0, r_max=50.0):
    """The exact profile m = b + a r on [0, r_max], as one polynomial piece
    under zero curvature: it takes the solved profiles' code path."""
    x = [0.0, r_max]
    return jacobi.Profile(cv.constant(0.0), PPoly(np.array([[a], [b]]), x),
                          PPoly(np.array([[a]]), x), r_max, math.nan)


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
