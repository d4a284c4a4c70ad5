"""Independent checks on the quadrature route, via the geodesic ODE.

The turn-angle integrals have enough moving parts (singular heads, tail
certificates) that they deserve a referee computed a completely different
way: actually integrate the geodesic, read off how much angle it swept,
and only fall back to quadrature far out where the integrand is tame and
tiny.  Distances are checked by shooting: bisect the launch angle until
the traced geodesic passes through the target point, and read the
arclength -- for a certified ray, that distance must equal the parameter.
"""

import math
from dataclasses import dataclass

import numpy as np

from revplane import geodesics as gd
from revplane import quadrature as qd


class ShootFailure(Exception):
    """distance shooting found no connecting geodesic within the angle budget."""


def turn_angle_by_trace(profile, r_q, kappa, rtol=1e-11, tol=1e-8):
    """Turn angle via the traced geodesic.

    The geodesic is integrated until it crosses R = 0.9 r_max, where the
    accumulated theta is read off the ODE state; the remaining swing out
    to infinity is a far-field quadrature with a regular integrand.  The
    singular turning-point behavior -- where the quadrature route does
    its delicate work -- is covered here entirely by the ODE, so
    agreement between the two is a genuine cross-check.
    """
    if kappa == 0.0:
        return qd.IntegralResult(0.0, 0.0, qd.STATUS_CONVERGED)
    if kappa == math.pi:
        return qd.IntegralResult(math.nan, math.nan, gd.STATUS_RADIAL_INWARD)
    R = 0.9 * profile.r_max
    if R <= r_q:
        raise ValueError(f"far radius {R:.6g} must exceed the launch radius {r_q:.6g}")
    s_budget = 10.0 * (r_q + R) + 50.0
    tr = gd.trace(profile, r_q, kappa, s_max=s_budget, n_points=2,
                  rtol=rtol, stop_at_radius=R)
    if tr.status != "reached_radius":
        # never escaped to R within a generous arclength budget: either
        # trapped or grazing; report what was seen, with no tail claim
        theta_seen = float(tr.theta[-1]) if len(tr.theta) else 0.0
        return qd.IntegralResult(theta_seen, math.inf, qd.STATUS_WINDOW_LIMITED)
    _, _, theta_R, _ = tr.end_state
    c = tr.c
    tail = qd.integrate_turn_rate(profile, c, r_lo=R, tol=tol)
    if tail.diverged:
        return qd.IntegralResult(math.inf, 0.0, tail.status)
    err = tail.abs_error + 100.0 * tr.speed_drift + 1e-9
    return qd.IntegralResult(theta_R + tail.value, err, tail.status)


@dataclass
class ShootResult:
    distance: float
    kappa: float
    theta_err: float
    iterations: int


def _first_crossing(profile, r_q, kappa, r_p, rtol):
    """(theta, arclength) at the geodesic's first crossing of radius r_p,
    or None if it does not get there within a generous budget."""
    s_budget = 6.0 * (r_q + r_p) + 60.0
    tr = gd.trace(profile, r_q, kappa, s_max=s_budget, n_points=2,
                  rtol=rtol, stop_at_radius=r_p)
    if tr.status != "reached_radius":
        return None
    s_end, _, theta_end, _ = tr.end_state
    return theta_end, s_end


def distance_shoot(profile, r_q, r_p, dtheta, angle_tol=1e-9, rtol=1e-11):
    """Distance from (r_q, 0) to (r_p, dtheta) by geodesic shooting.

    Requires |dtheta| <= pi.  Bisects the launch angle until the first
    crossing of the circle r = r_p happens at angle dtheta; the returned
    distance is that geodesic's arclength.  Only connections whose first
    r_p-crossing is the target are found -- the regime that matters for
    certifying rays; a swing the first crossing cannot reach raises
    ShootFailure.
    """
    if abs(dtheta) > math.pi:
        raise ValueError(f"|dtheta| must be <= pi, got {dtheta}")
    if not (r_q > 0 and r_p > 0):
        raise ValueError("both radii must be positive")
    target = abs(dtheta)
    if target <= angle_tol:
        # same meridian: the radial segment connects them
        return ShootResult(distance=abs(r_p - r_q),
                           kappa=0.0 if r_p >= r_q else math.pi,
                           theta_err=target, iterations=0)

    ladder = np.linspace(0.0, math.pi - 1e-9, 33)
    hits = []
    for k in ladder:
        res = _first_crossing(profile, r_q, k, r_p, rtol)
        hits.append(None if res is None else res[0])

    bracket = None
    for i in range(len(ladder) - 1):
        a, b = hits[i], hits[i + 1]
        if a is None or b is None:
            continue
        if (a - target) * (b - target) <= 0.0:
            bracket = (ladder[i], ladder[i + 1], a, b)
            break
    if bracket is None:
        raise ShootFailure(
            f"no launch angle reaches swing {target:.6g} at its first "
            f"crossing of r = {r_p:.6g}"
        )

    k_lo, k_hi, th_lo, th_hi = bracket
    rising = th_hi >= th_lo
    best = None
    iters = 0
    for iters in range(1, 80):
        k_mid = 0.5 * (k_lo + k_hi)
        res = _first_crossing(profile, r_q, k_mid, r_p, rtol)
        if res is None:
            # lost the crossing mid-bracket (grazing); shrink toward the
            # side that still crossed
            k_hi = k_mid if rising else k_hi
            k_lo = k_lo if rising else k_mid
            continue
        th_mid, s_mid = res
        best = (s_mid, k_mid, abs(th_mid - target))
        if abs(th_mid - target) <= angle_tol or (k_hi - k_lo) < 1e-14:
            break
        if (th_mid < target) == rising:
            k_lo = k_mid
        else:
            k_hi = k_mid
    if best is None:
        raise ShootFailure("bisection never recovered a crossing inside the bracket")
    s_best, k_best, th_err = best
    return ShootResult(distance=float(s_best), kappa=float(k_best),
                       theta_err=float(th_err), iterations=iters)
