"""Classification of points and the radii attached to a plane.

A point q is *critical* (for the distance to the origin) when the
geodesic leaving q at right angles to the radial direction is a ray,
i.e. its total turn angle is at most pi; q lies in the *away set* when
that turn angle is strictly below pi; and q is a *pole* when every
geodesic leaving it is a ray.  On planes with non-increasing curvature
these sets are rotationally symmetric, the critical set of a
nonnegatively curved plane is a closed ball, and the poles always form
a closed ball -- which is what makes the radii below well-defined:

  critical_ball_radius   radius of the critical ball (0 when the radial
                         inverse-square integral diverges, else the last
                         radius closed_side reads as critical, searched
                         from the origin, where T(r, pi/2) -> pi/2; inf
                         when the far end of its bracket reads inside)
  half_slope_radius      where m' first drops to 1/2 (the critical ball,
                         when finite, always ends before it)
  pole_ball_radius       largest radius all of whose points is_pole
                         accepts as poles (a sampled test), searched
                         from the origin, which is a pole

Boundary comparisons against pi follow the closed-side protocol from the
geodesics module; scan_sets applies it on a log-spaced grid.  The scan
grid and the pole test's kappa grid are independent turn angles, so each
goes to geodesics.turn_angles as one batch, as do the widest ray angle's
midpoints towards pi, which are known in advance until a probe fails.
Every search for the place
where a closed-side answer flips -- the set boundaries of a scan, the
critical-ball and pole-ball radii, and in geodesics the widest ray
angle -- runs on one bracket search, geodesics.search_closed: a scan's
interval ends close together in lockstep and the critical-ball radius
alone, both interpolating on the turn angles, and the pole-ball radius,
which has no value to interpolate, bisects.  Every search and every pole
decision reads its turn angles through one rule, geodesics.closed_side.
"""

import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np
from scipy.optimize import minimize_scalar

from . import geodesics as gd
from . import quadrature as qd
from .errors import Undetermined
from .svgplot import SvgCanvas, write_csv

# kappa grid of the pole test's coarse scan over [pi/2, pi - 0.2]
POLE_GRID = 25


def is_critical(profile, r_q, tol=1e-8):
    """Whether the tangential geodesic from radius r_q is a ray."""
    return gd.is_ray(profile, r_q, math.pi / 2, tol=tol)


def in_away_set(profile, r_q, tol=1e-8):
    """Whether the tangential turn angle is strictly below pi.

    The strict side of the criticality test: boundary cases resolve to
    False (they are critical but not 'away'), with Undetermined raised
    when a tighter tolerance or a wider window could still settle the
    comparison.
    """
    return gd.side_of_pi(gd.turn_angle(profile, r_q, math.pi / 2, tol=tol), tol) < 0


def _side(res, tol):
    """side_of_pi, with None where it raises Undetermined: the scan
    grid's three-state reading, which reports undecided points rather
    than resolving them."""
    try:
        return gd.side_of_pi(res, tol)
    except Undetermined:
        return None


def is_pole(profile, r_q, tol=1e-8):
    """Whether every geodesic from radius r_q is a ray.

    The turn angle is monotone in the Clairaut constant below kappa =
    pi/2, so only [pi/2, pi) needs scanning.  A coarse grid over
    [pi/2, pi - 0.2] and three approach probes towards the inward radial
    (where the turn angle tends to pi) run as one turn_angles batch.
    Each candidate must be a ray by geodesics.closed_side: any certified
    angle beyond pi means not a pole, and comparisons at the precision
    floor, and those left Undetermined, resolve to the pole side.

    The candidates are read lazily, cheapest first: the grid maximum and
    the approach probes, which the batch holds, then the grid maximum
    polished by one bounded maximise in scalar turn angles, which runs
    only when every batched candidate is a ray.  all() over the same
    candidates gives the same answer in any order.  The polish stops at
    xatol = sqrt(tol): Brent's bounded method ends within about xatol of
    the maximiser, so at an interior peak T is then within |T''| tol / 2
    of the top, the size of the band closed_side reads.  A peak on the
    bracket's end is a grid point, whose result is already a candidate.
    """
    kappas = np.linspace(math.pi / 2, math.pi - 0.2, POLE_GRID)
    results = gd.turn_angles(profile, r_q,
                             np.r_[kappas, math.pi - 0.1, math.pi - 0.05, math.pi - 0.02],
                             tol=tol)
    grid, approach = results[:POLE_GRID], results[POLE_GRID:]
    worst = int(np.argmax([res.value for res in grid]))

    def candidates():
        # lazily, so the polish runs only once every batched candidate is a ray
        yield grid[worst]
        yield from approach
        # polish the grid maximum within its two neighbouring cells; the
        # maximiser returns a point it has evaluated, so its result is kept
        seen = {}

        def minus_turn(kappa):
            seen[kappa] = gd.turn_angle(profile, r_q, kappa, tol=tol)
            return -seen[kappa].value

        lo = kappas[max(worst - 1, 0)]
        hi = kappas[min(worst + 1, POLE_GRID - 1)]
        yield seen[minimize_scalar(minus_turn, bounds=(lo, hi), method="bounded",
                                   options={"xatol": math.sqrt(tol)}).x]

    return all(gd.closed_side(res, tol)[0] for res in candidates())


# --- radii ---------------------------------------------------------------


def radial_inverse_square_diverges(profile):
    """Whether the integral of 1/m^2 to infinity diverges.

    Exact on a profile with a tail (Profile.tail): K is a constant k <= 0
    there and m rises, so m grows at least linearly and it converges.
    Sampled otherwise: the growth exponent p = r m'/m near the window
    edge must pass 1/2 with margin (m outgrowing sqrt(r)), and planes
    hugging 1/2 within the window are reported divergent.
    """
    if profile.tail is not None:
        return False
    R = profile.r_max
    probes = [0.7 * R, 0.85 * R, R]
    p_hat = sorted(r * profile.mp(r) / profile.m(r) for r in probes)
    return p_hat[1] <= 0.55


def half_slope_radius(profile):
    """First radius where m' drops to 1/2 (inf if it never does)."""
    r_half = profile.roots(1, 0.5, 0.0, profile.r_max)
    return float(r_half[0]) if r_half.size else math.inf


def critical_ball_radius(profile, tol=1e-8):
    """Radius of the critical ball.

    0 when the radial inverse-square integral diverges (only the origin
    is critical), otherwise the last radius closed_side reads as
    critical, to 1e-10: one search_closed bracket from the origin to the
    half-slope radius (at most 0.9 r_max), before which the theory puts
    the edge.  The origin is inside without a launch: on a smooth plane
    the tangential turn angle T(r, pi/2) tends to pi/2 as r -> 0, which
    is its gap -pi/2 - tol.  inf when the far end reads inside, as it
    does on a plane with K >= 0 and lim m' >= 1/2 (the paper's infinite
    critical ball).
    """
    if radial_inverse_square_diverges(profile):
        return 0.0

    def sides(xs):
        return [gd.closed_side(res, tol)
                for res in gd.turn_angles(profile, xs, math.pi / 2, tol=tol)]

    # a hand-built profile with m' = 1/2 from the origin on has half-slope
    # radius 0: its far end is the clamp
    hi = min(half_slope_radius(profile) or math.inf, 0.9 * profile.r_max)
    [(hi_in, g_hi)] = sides([hi])
    if hi_in:
        return math.inf
    [(r, _)] = gd.search_closed([(0.0, hi, 1e-10, -math.pi / 2 - tol, g_hi)],
                                lambda _, xs: sides(xs))
    return float(r)


def pole_ball_radius(profile, tol=1e-8):
    """Largest radius that is_pole accepts, to 1e-3 * max(r, 1): a
    doubling search for a radius it rejects, from the origin, a pole
    (every geodesic from it is a meridian), first probing r_max * 1e-4,
    then a bisection on its answer; the accepted radii form one ball.

    is_pole samples the turn angle on its kappa grid and approach probes
    and does not bound it between them, so this is not certified: the
    geodesics that turn past pi first leave within 0.02 of the inward
    radial, and the radius found can lie outside the true pole ball (on
    the s = 0.3 cone it is 2.2367, yet at r = 2.234 the launch at kappa
    = pi - 1e-3 turns 4.2e-7 past pi with abs_error 2.5e-13, and is_pole
    accepts it).  inf when every radius up to 0.6 r_max is accepted."""
    lo, hi, cap = 0.0, profile.r_max * 1e-4, 0.6 * profile.r_max
    while is_pole(profile, hi, tol=tol):
        if hi >= cap:
            return math.inf
        lo, hi = hi, min(hi * 2.0, cap)
    [(lo, _)] = gd.search_closed(
        [(lo, hi, 1e-3 * max(lo, 1.0), math.nan, math.nan)],
        lambda _, xs: [(is_pole(profile, x, tol=tol), math.nan) for x in xs])
    return float(lo)


# --- set scans -----------------------------------------------------------


@dataclass
class AnalysisReport:
    """Result of scanning the critical/away structure of a plane."""

    r: list
    turn: list
    abs_error: list
    status: list
    critical: list
    away: list
    critical_intervals: list
    away_intervals: list
    undetermined: list
    r_max: float
    tol: float
    spec: dict | None = None
    radii: dict = field(default_factory=dict)

    def to_dict(self):
        return asdict(self)

    def to_json(self):
        return json.dumps(self.to_dict())

    def to_csv(self, path):
        flags = [[int(bool(f)) for f in fs] for fs in (self.critical, self.away)]
        write_csv(path, ["r", "turn", "abs_error", "status", "critical", "away"],
                  zip(self.r, self.turn, self.abs_error, self.status, *flags))

    def to_svg(self, path):
        canvas = SvgCanvas(800, 220)
        margin = 60
        span = canvas.width - 2 * margin
        lo, hi = self.r[0], self.r_max
        log_lo, log_hi = math.log10(lo), math.log10(hi)

        def px(r):
            return margin + span * (math.log10(max(r, lo)) - log_lo) / (log_hi - log_lo)

        rows = [("critical", self.critical_intervals, "#d62728"),
                ("away", self.away_intervals, "#1f77b4")]
        for k, (label, intervals, color) in enumerate(rows):
            y = 60 + 60 * k
            canvas.text(8, y + 14, label, size=13)
            canvas.line(margin, y + 10, margin + span, y + 10, stroke="#cccccc")
            for a, b in intervals:
                canvas.rect(px(a), y, max(px(min(b, hi)) - px(a), 1.5), 20, fill=color)
        decade = math.ceil(log_lo)
        while decade <= math.floor(log_hi):
            x = px(10.0 ** decade)
            canvas.line(x, 50, x, 190, stroke="#eeeeee")
            canvas.text(x, 205, f"1e{decade}", size=11, anchor="middle")
            decade += 1
        canvas.text(margin, 30, f"tangential-geodesic sets, r in [{lo:.3g}, {hi:.3g}] (log axis)",
                    size=14)
        canvas.write(path)


def _intervals_from_flags(r, flags):
    """Contiguous True runs as [start, end] pairs over the grid."""
    out = []
    start = None
    for i, f in enumerate(flags):
        if f and start is None:
            start = r[i]
        elif not f and start is not None:
            out.append([start, r[i - 1]])
            start = None
    if start is not None:
        out.append([start, r[-1]])
    return out


def scan_sets(profile, n=256, tol=1e-8):
    """Classify the critical/away structure on a log-spaced radius grid.

    Each grid point gets the tangential turn angle and its side of pi:
    critical below or at pi, away strictly below.  The grid starts at
    r_max * 1e-4 and misses a ball that ends before it: on the s = 0.02
    cone (window 201,147) it shows no critical interval, while
    critical_ball_radius gives 6.46.  Undetermined
    comparisons are retried once at tol/100 and recorded as gaps if they
    persist.  Interval endpoints are then sharpened to 1e-10 (relative,
    or absolute below 1) by one geodesics.search_closed over all of them
    in lockstep: each round's probes go to turn_angles as one batch and
    are read by geodesics.closed_side, strict for the away set, so an
    Undetermined probe counts as critical but not as away; each end
    interpolates on its turn angles' gap, starting from the grid's own
    results (a retried point's from its tol/100 retry).
    """
    if n < 2:
        raise ValueError(f"a scan needs at least 2 grid points, got {n}")
    # keep strictly inside the window: the top endpoint would leave the
    # outgoing integral with an empty range
    r_grid = np.geomspace(profile.r_max * 1e-4, profile.r_max * (1.0 - 1e-9), n)

    results = gd.turn_angles(profile, r_grid, math.pi / 2, tol=tol)
    sides = [_side(res, tol) for res in results]
    # undetermined comparisons that a tighter tolerance could settle are
    # retried at tol/100, as a second batch; the result and tolerance that
    # decided each side are kept for the refinement
    decided = [(res, tol) for res in results]
    retry = [i for i, (res, side) in enumerate(zip(results, sides))
             if side is None and res.status != qd.STATUS_WINDOW_LIMITED]
    if retry:
        again = gd.turn_angles(profile, r_grid[retry], math.pi / 2, tol=tol / 100)
        for i, res in zip(retry, again):
            sides[i] = _side(res, tol / 100)
            decided[i] = (res, tol / 100)
    undet = [float(r) for r, side in zip(r_grid, sides) if side is None]
    sides = [1 if side is None else side for side in sides]
    critical = [side <= 0 for side in sides]
    away = [side < 0 for side in sides]

    crit_ints = _intervals_from_flags(r_grid, critical)
    away_ints = _intervals_from_flags(r_grid, away)

    # every interval end and its outside neighbour on the grid is one
    # bracket (critical means side <= 0, away side < 0); the grid's own
    # results start the interpolation
    idx = {float(r): i for i, r in enumerate(r_grid)}
    ends, brackets = [], []
    for ints, strict in ((crit_ints, False), (away_ints, True)):
        for pair in ints:
            for end, step in ((0, -1), (1, 1)):
                i = idx[pair[end]]
                if 0 <= i + step < n:
                    ends.append((pair, end, strict))
                    brackets.append((r_grid[i], r_grid[i + step],
                                     1e-10 * max(1.0, r_grid[i]),
                                     gd.closed_side(*decided[i], strict)[1],
                                     gd.closed_side(*decided[i + step], strict)[1]))

    def probe(ks, xs):
        return [gd.closed_side(res, tol, ends[k][2])
                for k, res in zip(ks, gd.turn_angles(profile, xs, math.pi / 2, tol=tol))]

    for (pair, end, _), (a, b) in zip(ends, gd.search_closed(brackets, probe)):
        pair[end] = 0.5 * (a + b)

    return AnalysisReport(
        r=[float(x) for x in r_grid],
        turn=[float(res.value) for res in results],
        abs_error=[float(res.abs_error) for res in results],
        status=[res.status for res in results],
        critical=critical,
        away=away,
        critical_intervals=[[float(a), float(b)] for a, b in crit_ints],
        away_intervals=[[float(a), float(b)] for a, b in away_ints],
        undetermined=undet,
        r_max=float(profile.r_max),
        tol=float(tol),
        spec=profile.spec.to_dict(),
    )


# --- neck exclusion ------------------------------------------------------


@dataclass
class NeckReport:
    applicable: bool
    reason: str
    b: float
    f: float
    excluded: list | None

    def to_dict(self):
        return asdict(self)


def neck_bound(profile, x, y):
    """Criticality exclusion for a slowly spreading stretch.

    With m' > 0 up to y and m' < 1/2 throughout [x, y], let b be the
    largest slope on [x, y] and f the radius where m equals
    cos(pi b) m(y).  Whenever x <= f, no radius in [x, f] is critical.
    Reports the computed b and f along with whether the hypotheses held.
    """
    if not 0 < x < y <= profile.r_max:
        raise ValueError("need 0 < x < y <= r_max")
    if np.any(profile.extrema <= y):
        return NeckReport(False, "m' vanishes somewhere on [0, y]",
                          math.nan, math.nan, None)
    # the largest slope on [x, y] sits at an end or where m'' = 0
    b = float(np.max(profile.mp(np.r_[x, y, profile.roots(2, 0.0, x, y)])))
    if b >= 0.5:
        return NeckReport(False, "slope reaches 1/2 on [x, y]", b, math.nan, None)
    # m climbs from m(0) = 0 past cos(pi b) m(y) < m(y), once: m' > 0
    f = profile.level_radius(math.cos(math.pi * b) * profile.m(y), 0.0, y)
    excluded = [x, f] if x <= f else None
    return NeckReport(True, "ok" if excluded else "bound does not reach x",
                      b, f, excluded)
