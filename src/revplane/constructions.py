"""Builders for the planes the library is about.

build_smoothed_cone     nonnegative, non-increasing curvature that is
                        exactly zero beyond a finite radius, tuned so the
                        slope at infinity hits a prescribed s in (0, 1]:
                        an asymptotically conical plane with a C^2 cap.
build_bulge_plane       a spherical bulge (K = 1, so m = sin r) out to a,
                        then a smooth drop into strongly negative
                        curvature: the slope vanishes at pi/2, giving a
                        closed geodesic there and a disconnected critical
                        set.
build_flared_cone       a smoothed cone whose curvature is later dropped
                        below zero, placed so that a chosen non-critical
                        radius stays non-critical no matter the tail:
                        the critical set disconnects while m' stays
                        positive everywhere.
build_bounded_table_plane
                        a table-sampled curvature whose profile m stays
                        bounded, so the radial inverse-square integral
                        diverges and only the origin is critical.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy import special
from scipy.optimize import brentq

from . import curvature as cv
from . import geodesics as gd
from . import jacobi
from .errors import BuildError, StarViolation

# how far the tuned m'(rho) of a smoothed cone may miss its slope s
SLOPE_TOL = 1e-9
# how far a flared cone's turn from r_q by R passes pi, and its window past R
FLARE_MARGIN, FLARE_TAIL = 0.01, 40.0
# the bounded table plane's window and its number of samples
TABLE_R_MAX, TABLE_SAMPLES = 60.0, 1201


@dataclass
class ConeBuild:
    profile: object
    spec: object
    u: float
    z: float
    eps: float
    rho: float      # beyond here the curvature is identically zero
    slope: float    # m' beyond rho, where m is one exact linear piece:
                    # s within SLOPE_TOL


@dataclass
class BulgeBuild:
    profile: object
    spec: object
    a: float
    mu: float
    w: float


@dataclass
class FlareBuild:
    profile: object
    spec: object
    r_q: float               # chosen non-critical radius
    splice_radius: float     # where the curvature drop starts
    base_critical_radius: float
    base: ConeBuild


@dataclass
class TableBuild:
    profile: object
    spec: object


def isq_state(u, r):
    """(m, m') at r of the Jacobi field under isq(u), in closed form.

    Writing m = sqrt(x) f with x = r + 1 turns m'' + (1/(4x^2) - u) m = 0
    into the order-0 modified Bessel equation for f in sqrt(u) x, so
    m = sqrt(x) (A I0(sqrt(u) x) + B K0(sqrt(u) x)); m(0) = 0 and
    m'(0) = 1 give A = K0(sqrt u), B = -I0(sqrt u) by the Wronskian
    I0 K1 + I1 K0 = 1/t.  u in (0, 1/4].
    """
    a = math.sqrt(u)
    x = r + 1.0
    t = a * x
    A, B = special.k0(a), special.i0(a)
    m = math.sqrt(x) * (A * special.i0(t) - B * special.k0(t))
    mp = m / (2.0 * x) + math.sqrt(x) * a * (A * special.i1(t) + B * special.k1(t))
    return m, mp


def build_smoothed_cone(s, tail=60.0):
    """Plane with K >= 0 non-increasing, K = 0 beyond rho, slope s.

    The inverse-square family 1/(4(r+1)^2) - u crosses zero at
    z = 1/(2 sqrt u) - 1; capping it smoothly to zero on [z - eps, z + eps],
    eps = min(0.1, z/10), leaves the profile linear beyond with some slope
    sigma(z), decreasing in z.  brentq on z tunes sigma to s.  A trial
    takes the closed-form isq(u) state at z - eps (isq_state) and runs
    the series over the blend alone, as solve_jacobi does; the built profile
    is one solve_jacobi call, whose slope beyond rho (ConeBuild.slope) must
    then hit s within SLOPE_TOL.  s = 1 degenerates to the flat plane.

    The bracket starts at z0 = y^2 - 1, y = -W_{-1}(-s/e) / s, where the
    uncapped isq(0) profile sqrt(x) ln x (x = r + 1) has slope s.  The cap
    takes u off the curvature all the way in, which outweighs its blend:
    sigma(z0) > s, so z0 lies below the root (by a margin that shrinks to
    ~1e-16 as s -> 1; checked, not assumed), and the upper end doubles
    until sigma <= s.  Where the bracket cannot form with 1 - s within
    SLOPE_TOL (s = 1 - 2^-52 or 1 - 2^-53), the flat plane is the build.
    """
    if not 0.0 < s <= 1.0:
        raise BuildError(f"slope s must lie in (0, 1], got {s}")
    if not 0.0 < tail < math.inf:
        raise BuildError(f"tail must be finite and positive, got {tail}")
    if s == 1.0:
        spec = cv.constant(0.0)
        prof = jacobi.solve_jacobi(spec, r_max=tail)
        return ConeBuild(prof, spec, u=0.0, z=0.0, eps=0.0, rho=0.0, slope=1.0)

    def capped(z):
        return cv.isq_capped(0.25 / (z + 1.0) ** 2, min(0.1, z / 10.0))

    @functools.cache
    def f(z):
        spec = capped(z)
        a, b = spec.joins()
        u = spec.params["u"]
        return jacobi.series_stretch(spec, a, b, isq_state(u, a))[3][1] - s

    y = -special.lambertw(-s / math.e, -1).real / s
    lo = hi = y * y - 1.0
    for _ in range(64):
        if not (hi > 0.0 and f(hi) > 0.0):
            break
        lo, hi = hi, 2.0 * hi
    if not (lo > 0.0 and f(lo) > 0.0 >= f(hi)):
        if 1.0 - s <= SLOPE_TOL:
            # 1 - s is below a trial's rounding: the flat plane meets s
            return build_smoothed_cone(1.0, tail)
        raise BuildError(f"could not bracket the slope {s} in the capped family")
    z_star = brentq(f, lo, hi, xtol=1e-300, rtol=8.9e-16, maxiter=100)

    spec = capped(z_star)
    rho = spec.joins()[1]
    if not cv.check_von_mangoldt(spec, rho).is_vm:
        raise BuildError("curvature cap lost monotonicity")
    u, eps = spec.params["u"], spec.params["eps"]
    prof = jacobi.solve_jacobi(spec, r_max=rho + tail)
    achieved = prof.mp(rho)
    if abs(achieved - s) > SLOPE_TOL:
        raise BuildError(
            f"slope tuning stalled: wanted {s}, achieved {achieved} "
            f"(|diff| = {abs(achieved - s):.3g} > {SLOPE_TOL:g})"
        )
    return ConeBuild(prof, spec, u=u, z=cv.isq_zero(u), eps=eps, rho=rho,
                     slope=achieved)


def build_bulge_plane(a=3 * math.pi / 4, mu=8.0, w=0.25, r_max=50.0):
    """Spherical bulge out to a, then a drop of depth mu over width w.

    Requires a in (pi/2, pi) so the slope m' = cos r has already turned
    negative at the splice; the drop must then be deep and narrow enough
    for m to pull out of its dive -- too shallow a drop (for example
    mu = 2, w = 1 at a = 3 pi/4) lets m reach zero, and the builder
    rejects it with the located zero.
    """
    if not math.pi / 2 < a < math.pi:
        raise BuildError(f"bulge extent a must lie in (pi/2, pi), got {a}")
    spec = cv.spliced(cv.constant(1.0), a, cv.DropParams(mu, w))
    try:
        prof = jacobi.solve_jacobi(spec, r_max=r_max)
    except StarViolation as exc:
        raise BuildError(
            f"profile vanishes at r = {exc.first_zero:.6g}: the drop "
            f"(mu={mu}, w={w}) is too weak to stop the collapse after the "
            f"bulge; deepen or narrow it"
        ) from exc
    return BulgeBuild(prof, spec, a=a, mu=mu, w=w)


def build_flared_cone(s_base=0.3, mu=1.0, w=1.0, rq_factor=1.5):
    """Positive-slope plane whose critical set is disconnected.

    Starts from a smoothed cone (slope s_base, finite critical ball),
    picks the non-critical radius r_q = rq_factor * (critical ball
    radius), finds a splice radius R far enough out that the tangential
    geodesic from r_q turns past pi while still inside [r_q, R], and
    drops the curvature below zero beyond R.  Whatever the tail does,
    r_q stays non-critical; far radii become critical again, and m'
    remains positive everywhere.

    R needs no second solve of the base: its curvature vanishes beyond
    rho, so m is linear there and the turn left beyond R is
    arcsin(c / m(R)) / slope in closed form.  R is placed so that this
    is the turn above pi + FLARE_MARGIN, which puts exactly pi +
    FLARE_MARGIN on [r_q, R]; only the spliced plane is solved, to
    R + FLARE_TAIL.
    """
    from .analysis import critical_ball_radius

    if not rq_factor > 1.0:
        raise BuildError("rq_factor must exceed 1 (the point must be non-critical)")
    base = build_smoothed_cone(s_base)
    r_crit = critical_ball_radius(base.profile)
    if not 0.0 < r_crit < math.inf:
        raise BuildError(
            f"base cone must have a finite positive critical ball, got {r_crit}"
        )
    r_q = rq_factor * r_crit
    c = base.profile.m(r_q)
    total = gd.turn_angle(base.profile, r_q, math.pi / 2, tol=1e-10)
    excess = total.value - math.pi - FLARE_MARGIN
    if total.status != "converged" or excess <= 0.0:
        raise BuildError(
            f"tangential turn angle {total.value:.6g} leaves no room above "
            f"pi + {FLARE_MARGIN}; increase rq_factor"
        )
    # the turn past R on the exact linear tail is arcsin(c / m(R)) / sigma
    sigma = base.slope
    arg = min(sigma * excess, math.pi / 2 - 1e-9)
    m_R = c / math.sin(arg)
    R = base.rho + max((m_R - base.profile.m(base.rho)) / sigma, 0.0)
    # a larger R only leaves more of the turn inside [r_q, R]
    R = max(R, r_q + 1.0, base.rho + 1.0)

    spec = cv.spliced(base.spec, R, cv.DropParams(mu, w))
    prof = jacobi.solve_jacobi(spec, r_max=R + FLARE_TAIL)
    # the smallest slope sits at an end or where m'' = 0
    min_slope = float(np.min(prof.mp(np.r_[0.0, prof.r_max,
                                           prof.roots(2, 0.0, 0.0, prof.r_max)])))
    if min_slope <= 0.0:
        raise BuildError(f"slope dips to {min_slope:.3g}; flare failed")
    return FlareBuild(prof, spec, r_q=float(r_q), splice_radius=float(R),
                      base_critical_radius=float(r_crit), base=base)


def build_bounded_table_plane():
    """Table-sampled curvature 3/(1+r^2)^2 on TABLE_SAMPLES radii to
    TABLE_R_MAX: its profile is r/sqrt(1+r^2), which stays below 1, so
    the inverse-square radial integral diverges."""
    r = np.linspace(0.0, TABLE_R_MAX, TABLE_SAMPLES)
    K = 3.0 / (1.0 + r * r) ** 2
    spec = cv.table(r, K, extrapolate="constant")
    prof = jacobi.solve_jacobi(spec, r_max=TABLE_R_MAX)
    return TableBuild(prof, spec)
