"""Geodesics on a rotationally symmetric plane.

A unit-speed geodesic leaving the circle r = r_q at angle kappa from the
outward radial direction carries the conserved quantity

    c = m(r_q) sin(kappa)        (Clairaut)

and its total turn angle -- the angle swept around the origin over its
whole forward life -- is an improper integral of the turn rate F_c.
Since turn angles are compared against pi to decide whether the geodesic
is a ray (distance-minimizing to infinity), everything here reports an
error band and follows one protocol: a comparison landing inside the
band raises Undetermined if tightening the tolerance could still settle
it, and otherwise resolves to the closed side (the boundary case counts
as a ray).

Traces integrate the geodesic equations in (r, r_dot, theta) form with
the conservation drift monitored, giving an independent check on the
quadrature route.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import solve_ivp

from . import quadrature as qd
from .errors import Undetermined
from .svgplot import SvgCanvas, fit_transform, write_csv

STATUS_RADIAL_INWARD = "radial_inward"


def _check_launch(r_q, kappa):
    if not 0.0 <= kappa <= math.pi:
        raise ValueError(f"kappa must lie in [0, pi], got {kappa}")
    if not r_q > 0:
        raise ValueError(f"launch radius must be positive, got {r_q}")


def turning_radius(profile, c, r_q):
    """Largest r <= r_q with m(r) = c: where an inward-swinging geodesic
    with Clairaut constant c turns back outward."""
    if c == 0.0:
        return 0.0
    m_q = profile.m(r_q)
    if c > m_q * (1 + 1e-12):
        raise ValueError(f"c = {c:.6g} exceeds m(r_q) = {m_q:.6g}")
    return _turning_radius(profile, c, r_q, m_q)


def _turning_radius(profile, c, r_q, m_q):
    """turning_radius for 0 < c <= m_q (1 + 1e-12), with m_q = m(r_q)
    already read."""
    if c >= m_q:
        return float(r_q)
    # on a plane m(0) = 0 < c <= m(r_q), so m reaches c on [0, r_q]
    r_u = profile.level_radius(c, 0.0, r_q, last=True)
    if r_u is None:
        raise ValueError(f"m stays above c = {c:.6g} on [0, {r_q:.6g}] with m(0) = "
                         f"{profile.m(0.0):.6g} > 0: no turning radius, and not a plane")
    return r_u


def _plan(profile, r_q, kappa, tol):
    """The Clairaut integrals behind the turn angles of the launches
    (r_q[i], kappa[i]), two lists of floats.

    Returns (terms, legs).  legs holds integrate_turn_rate's keyword
    arguments, one dict per integral.  terms[i] is launch i's result when
    it needs no integral, and otherwise its turn angle as a list of
    (weight, leg), each leg an index into legs or a result known without
    quadrature.  For kappa in (pi/2, pi) the geodesic first dives to its
    turning radius and the inward leg is counted twice.
    """
    for r, k in zip(r_q, kappa):
        _check_launch(r, k)
    m_q = profile.m(r_q).tolist()
    terms, legs = [], []

    def leg(**kw):
        legs.append(kw)
        return len(legs) - 1

    for r, k, m in zip(r_q, kappa, m_q):
        if k == 0.0:
            terms.append(qd.IntegralResult(0.0, 0.0, qd.STATUS_CONVERGED))
            continue
        if k == math.pi:
            terms.append(qd.IntegralResult(math.nan, math.nan, STATUS_RADIAL_INWARD))
            continue
        c = m * math.sin(k)
        # w = arccos(c / m) at r_q, exactly; near tangential launches the
        # arccos of the rounded c / m(r_q) has lost its digits
        w_q = abs(math.pi / 2 - k)
        if k <= math.pi / 2:
            terms.append([(1, leg(c=c, r_lo=r, tol=tol, w_start=w_q))])
            continue
        r_u = _turning_radius(profile, c, r, m)
        if r_u < r:
            leg_in = leg(c=c, r_lo=r_u, r_hi=r, tol=tol / 2, w_end=w_q)
        else:
            # c rounded to m(r_q): the inward leg is w in [0, w_q] at r_q, where
            # dw / m' is w_q / m'(r_q) up to terms of order w_q^3
            mp_q = profile.mp(r)
            if mp_q <= qd.TANGENT_SLOPE:
                leg_in = qd.IntegralResult(math.inf, 0.0, qd.STATUS_DIVERGENT_TANGENCY)
            else:
                leg_in = qd.IntegralResult(w_q / mp_q, 1e-16 * w_q / mp_q, qd.STATUS_CONVERGED)
        terms.append([(2, leg_in), (1, leg(c=c, r_lo=r, tol=tol / 2, w_start=w_q))])
    return terms, legs


def _total(terms, done):
    """A launch's turn angle from its plan's terms and the integrals done."""
    if isinstance(terms, qd.IntegralResult):
        return terms
    parts = [(w, done[leg] if isinstance(leg, int) else leg) for w, leg in terms]
    for _, res in parts:
        if res.diverged:
            return qd.IntegralResult(math.inf, 0.0, res.status)
    limited = any(res.status == qd.STATUS_WINDOW_LIMITED for _, res in parts)
    return qd.IntegralResult(sum(w * res.value for w, res in parts),
                             sum(w * res.abs_error for w, res in parts),
                             qd.STATUS_WINDOW_LIMITED if limited else qd.STATUS_CONVERGED)


def turn_angles(profile, r_q, kappa, tol=1e-8):
    """turn_angle for many launches at once: r_q and kappa broadcast
    against each other, and every Clairaut integral behind them runs in
    one integrate_turn_rates batch.  Returns one IntegralResult per
    launch, each the one turn_angle returns for it."""
    r_q, kappa = (x.ravel().tolist() for x in np.broadcast_arrays(r_q, kappa))
    terms, legs = _plan(profile, r_q, kappa, tol)
    done = qd.integrate_turn_rates(profile, legs)
    return [_total(t, done) for t in terms]


def turn_angle(profile, r_q, kappa, tol=1e-8):
    """Total turn angle of the geodesic launched at (r_q, kappa).

    kappa = 0 is the outward radial (turn 0, exact); kappa = pi is the
    inward radial through the origin, which has no Clairaut turn integral
    -- it gets the distinct status "radial_inward".  For kappa in
    (pi/2, pi) the geodesic first dives to its turning radius and the
    inward leg is counted twice.

    The launch of one: turn_angles' plan, with each of its integrals
    (at most two) taken by integrate_turn_rate, the per-integral entry
    point that perfbench's tracer times.
    """
    terms, legs = _plan(profile, [float(r_q)], [float(kappa)], tol)
    return _total(terms[0], [qd.integrate_turn_rate(profile, **leg) for leg in legs])


def side_of_pi(res, tol):
    """Which side of pi a turn angle lies on, by the closed-side protocol.

    Returns -1 below pi, +1 above pi (divergent counts as above) and 0
    inside the error band at the precision floor, where the boundary
    value counts as closed (equal to pi).  Raises Undetermined where a
    tighter tolerance (abs_error > tol) or a wider window (window-limited
    and not yet past pi) could still decide; the Undetermined raised for
    a window-limited result carries abs_error = inf.  Raises ValueError
    for the inward radial, which has no turn integral: is_pole decides it.
    """
    if res.status == STATUS_RADIAL_INWARD:
        raise ValueError("the inward radial has no turn angle to compare; is_pole decides it")
    if res.diverged:
        return 1
    band = max(res.abs_error, tol)
    if res.value > math.pi + band:
        return 1
    if res.status == qd.STATUS_WINDOW_LIMITED:
        raise Undetermined(res.value, math.inf,
                           "turn angle window-limited and not yet past pi; extend r_max")
    if res.value <= math.pi - band:
        return -1
    if res.abs_error > tol:
        raise Undetermined(res.value, res.abs_error)
    return 0


def closed_side(res, tol, strict=False):
    """How every search and pole decision reads a turn angle: (inside,
    gap).

    inside is side_of_pi's answer for the closed set T <= pi or, with
    strict, for the set T < pi; an Undetermined comparison counts as
    inside the closed set, which holds its boundary case, and as outside
    the strict one.  gap, which search_closed interpolates on, is how far
    T lies past the set's edge: T - pi - band, or with strict T - pi +
    band, band = max(abs_error, tol).  inside == (gap <= 0) up to the
    rounding of pi -+ band, except for a window-limited result in the
    strict set, which is outside whatever its gap.  side_of_pi's
    ValueError for the inward radial propagates.
    """
    band = max(res.abs_error, tol)
    gap = res.value - math.pi + (band if strict else -band)
    try:
        side = side_of_pi(res, tol)
    except Undetermined:
        return not strict, gap
    return (side < 0 if strict else side <= 0), gap


def is_ray(profile, r_q, kappa, tol=1e-8, seen=None):
    """Whether the geodesic is a ray: turn angle at most pi.

    side_of_pi decides; a turn angle at the precision floor counts as a
    ray, and Undetermined propagates.  seen, a list if given, receives
    the turn angle the answer came from.
    """
    if kappa == math.pi:
        # the inward radial: minimal iff every geodesic from here is --
        # answered by the pole test, not by a turn integral
        from .analysis import is_pole
        return is_pole(profile, r_q, tol=tol)
    res = turn_angle(profile, r_q, kappa, tol=tol)
    if seen is not None:
        seen.append(res)
    return side_of_pi(res, tol) <= 0


# ITP truncation (Oliveira & Takahashi 2020): a step of ITP_K1 (b - a)^2 / L
# from the interpolated point towards the midpoint, L the starting length
ITP_K1 = 0.05


def _itp_point(bracket, j):
    """The next probe of a bracket [inside, outside, g_in, g_out, width,
    aim, length, n_max] after j probes."""
    a, b, g_a, g_b, width, aim, length, n_max = bracket
    half = 0.5 * (a + b)
    if not (g_a <= 0.0 < g_b and math.isfinite(g_a) and math.isfinite(g_b)):
        return half
    span = abs(b - a)
    # bisection's probe count plus one: |x - half| within this radius keeps
    # the bracket on course for n_max probes
    radius = max(0.5 * aim * 2.0 ** (n_max - j) - 0.5 * span, 0.0)
    x_f = a - g_a * (b - a) / (g_b - g_a)
    # at least width / 2 past the interpolated root, so a probe that landed
    # next to it is followed by one on its other side and the bracket closes
    delta = max(ITP_K1 * span * span / length, 0.5 * width)
    sigma = math.copysign(1.0, half - x_f)
    x_t = x_f + sigma * delta if delta <= abs(half - x_f) else half
    return x_t if abs(x_t - half) <= radius else half - sigma * radius


def _open(bracket):
    """Whether a bracket is wider than its width and than the float
    spacing: one whose ends are neighbouring floats has no point between
    them to probe."""
    a, b, width = bracket[0], bracket[1], bracket[4]
    return abs(b - a) > width and math.nextafter(a, b) != b


def search_closed(brackets, probe):
    """Close many brackets of closed-side answers in lockstep.

    brackets holds one (inside, outside, width, g_inside, g_outside) per
    search: the answer holds at inside and fails at outside, either end
    may be the larger, and the search stops once abs(outside - inside)
    <= width or the ends are neighbouring floats; a width that is not
    > 0 raises ValueError.  g is a value whose sign gives the answer
    (<= 0 inside, > 0 outside, as closed_side's gap), nan where there is
    none.  Each round asks probe(ks, xs) for one point xs[i] of every
    open bracket ks[i], all in one call, and takes back an (inside, g)
    pair per point, closed_side's reading of the turn angle there.

    A bracket whose two ends carry a g of the sign their answers agree
    with takes an ITP step on it (interpolation, truncation and
    projection; Oliveira & Takahashi 2020, ACM TOMS 47(1), art. 5), and
    otherwise its midpoint.  Either way it takes at most ceil(log2(L /
    width)) + 1 probes, L its starting length, and its probes depend on
    its own answers only.  Returns the final (inside, outside) pairs.
    """
    state = []
    for inside, outside, width, g_in, g_out in brackets:
        if not width > 0:
            raise ValueError(f"bracket width must be positive, got {width}")
        length = abs(outside - inside)
        # the projection aims a few rounding errors short of width, so the
        # probes' own rounding cannot cost a probe past n_max; a width
        # within those errors leaves no room to project, only to bisect
        aim = width - 4 * math.ulp(max(abs(inside), abs(outside)))
        n_max = math.ceil(math.log2(length / width)) + 1 if length > width and aim > 0 else 0
        state.append([inside, outside, g_in, g_out, width, aim, length, n_max])
    live = [k for k, s in enumerate(state) if _open(s)]
    j = 0
    while live:
        xs = [_itp_point(state[k], j) for k in live]
        for k, x, (hit, g) in zip(live, xs, probe(live, xs)):
            end = 0 if hit else 1
            state[k][end], state[k][2 + end] = x, g
        j += 1
        live = [k for k in live if _open(state[k])]
    return [(s[0], s[1]) for s in state]


def max_ray_angle(profile, r_q, tol=1e-8, kappa_tol=1e-8):
    """Largest launch angle that still gives a ray.

    Monotone in kappa (rays above rays are rays), so a bracket search on
    [0, pi] applies, with the outward radial kappa = 0 a ray (its turn
    angle is 0 exactly) and the inward radial kappa = pi taken as the
    failing end.  Each probe reads its turn angle by closed_side, so
    Undetermined comparisons resolve to the ray side, consistent with
    the angle being attained, and from the first failing probe on the
    search interpolates on T - pi.  If no probe fails, the pole test
    decides between pi (every geodesic from here is a ray) and the last
    ray angle.

    The first probe, kappa = pi/2, is is_ray's criticality test.  Until
    a probe fails, the outside end pi has no T - pi to interpolate on,
    so each probe is the midpoint towards pi of the one before: if
    pi/2 is a ray, that whole ladder of midpoints, down to the bracket
    width, is known and goes to turn_angles as one batch, whose results
    are the ones turn_angle gives.  The probes after the first failure
    are scalar is_ray calls.
    """
    ladder = {}

    def probe(_, kappas):
        [kappa] = kappas
        if kappa in ladder:
            return [ladder[kappa]]
        seen = []
        try:
            is_ray(profile, r_q, kappa, tol=tol, seen=seen)
        except Undetermined:
            pass  # closed_side reads the turn angle is_ray saw
        read = closed_side(seen[0], tol)
        if kappa == math.pi / 2 and read[0]:
            # search_closed's midpoints while [x, pi] stays open, with
            # _itp_point's and _open's own float operations
            ks, x = [], kappa
            while abs(math.pi - x) > kappa_tol and math.nextafter(x, math.pi) != math.pi:
                x = 0.5 * (x + math.pi)
                ks.append(x)
            if ks:
                ladder.update(zip(ks, (closed_side(res, tol)
                                       for res in turn_angles(profile, r_q, ks, tol=tol))))
        return [read]

    [(lo, hi)] = search_closed([(0.0, math.pi, kappa_tol, -math.pi - tol, math.nan)], probe)
    if hi == math.pi:
        from .analysis import is_pole

        if is_pole(profile, r_q, tol=tol):
            return math.pi
    return lo


# --- traced geodesics ----------------------------------------------------


@dataclass
class GeodesicTrace:
    """Sampled geodesic path: arclength, radius, angle, radial speed, and
    the launch radius r_q, its angle kappa from the outward radial and the
    Clairaut constant c = m(r_q) sin(kappa) they induce."""

    s: np.ndarray
    r: np.ndarray
    theta: np.ndarray
    r_dot: np.ndarray
    r_q: float
    kappa: float
    c: float
    status: str
    speed_drift: float
    end_state: tuple = field(default=None)

    def to_csv(self, path):
        write_csv(path, ["s", "r", "theta", "r_dot"],
                  zip(self.s, self.r, self.theta, self.r_dot))

    def to_svg(self, path):
        x = self.r * np.cos(self.theta)
        y = self.r * np.sin(self.theta)
        canvas = SvgCanvas(640, 640)
        tf = fit_transform(np.concatenate([x, [0.0]]), np.concatenate([y, [0.0]]),
                           640, 640)
        ox, oy = tf(0.0, 0.0)
        for frac in (0.25, 0.5, 0.75, 1.0):
            rr = frac * float(np.max(self.r))
            px, _ = tf(rr, 0.0)
            canvas.circle(ox, oy, abs(px - ox), stroke="#dddddd")
        canvas.circle(ox, oy, 3, fill="#222222", stroke="none")
        canvas.polyline([tf(a, b) for a, b in zip(x, y)], stroke="#d62728", width=1.8)
        sx, sy = tf(x[0], y[0])
        canvas.circle(sx, sy, 4, fill="#1f77b4", stroke="none")
        canvas.text(10, 20, f"r_q={self.r_q:.4g}  kappa={self.kappa:.4g}  "
                            f"c={self.c:.4g}  [{self.status}]", size=13)
        canvas.write(path)


def trace(profile, r_q, kappa, s_max, n_points=1001, rtol=1e-11,
          stop_at_radius=None):
    """Integrate the geodesic equations from (r_q, kappa) for arclength s_max.

    State is (r, r_dot, theta) with theta' = c/m^2 and r_dot' = c^2 m'/m^3.
    Terminates early on reaching the origin (inward radial), the window
    edge, or stop_at_radius if given; status reports which.  The reported
    speed_drift is the worst deviation of r_dot^2 + c^2/m^2 from 1 -- the
    honest conservation check (the Clairaut constant is exact here by
    construction).  The n_points >= 2 samples span [0, s_max] evenly,
    rtol lies in [100 eps, 1), the range the integrator honours, and
    stop_at_radius, when given, inside the window (0, r_max).
    """
    if not 0 < s_max < math.inf:
        raise ValueError(f"s_max must be positive and finite, got {s_max}")
    if not n_points >= 2:
        raise ValueError(f"a trace samples both its ends, so n_points >= 2, got {n_points}")
    if not 100 * math.ulp(1.0) <= rtol < 1:
        raise ValueError(f"rtol must lie in [100 eps, 1) with eps = {math.ulp(1.0)!r}, got {rtol}")
    if stop_at_radius is not None and not 0 < stop_at_radius < profile.r_max:
        raise ValueError(f"stop_at_radius must lie inside the window (0, {profile.r_max:.6g}), "
                         f"got {stop_at_radius}")
    _check_launch(r_q, kappa)
    c = float(profile.m(r_q) * math.sin(kappa))

    def rhs(s, y):
        r, p, _ = y
        if not c:
            return [p, 0.0, 0.0]
        # trial steps may poke past the window or the origin; the events
        # terminate there, so clamped evaluation is safe
        rc = min(max(r, 1e-12), profile.r_max)
        m = profile.m(rc)
        mp = profile.mp(rc)
        return [p, c * c * mp / m**3, c / (m * m)]

    events = []

    def hit_origin(s, y):
        return y[0] - 1e-9
    hit_origin.terminal = True
    hit_origin.direction = -1
    events.append(hit_origin)

    def hit_window(s, y):
        return y[0] - profile.r_max * (1 - 1e-9)
    hit_window.terminal = True
    hit_window.direction = 1
    events.append(hit_window)

    if stop_at_radius is not None:
        def hit_target(s, y):
            return y[0] - stop_at_radius
        hit_target.terminal = True
        hit_target.direction = 0  # first crossing from either side
        events.append(hit_target)

    y0 = [r_q, math.cos(kappa), 0.0]
    sol = solve_ivp(rhs, (0.0, s_max), y0, method="DOP853", rtol=rtol,
                    atol=rtol * 1e-2, events=events,
                    t_eval=np.linspace(0.0, s_max, n_points))
    if not sol.success:
        raise RuntimeError(f"geodesic integration failed: {sol.message}")

    names = ["hit_origin", "left_window", "reached_radius"]
    status = "completed"
    s_end = s_max
    y_end = sol.y[:, -1]
    for name, s_ev, y_ev in zip(names, sol.t_events, sol.y_events):
        if len(s_ev):
            status = name
            s_end = float(s_ev[0])
            y_end = y_ev[0]
            break

    s = sol.t
    r, p, th = sol.y
    if status != "completed" and s[-1] < s_end:
        # include the event point itself in the sampled arrays
        s = np.append(s, s_end)
        r = np.append(r, y_end[0])
        p = np.append(p, y_end[1])
        th = np.append(th, y_end[2])
    with np.errstate(divide="ignore"):
        m = profile.m(np.maximum(r, 1e-12))
        drift = np.abs(p**2 + (c / m) ** 2 - 1.0) if c else np.abs(p**2 - 1.0)
    return GeodesicTrace(
        s=s, r=r, theta=th, r_dot=p, r_q=float(r_q), kappa=float(kappa), c=c,
        status=status,
        speed_drift=float(np.max(drift)),
        end_state=(s_end, float(y_end[0]), float(y_end[2]), float(y_end[1])),
    )
