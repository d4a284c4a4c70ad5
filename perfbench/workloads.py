"""The benchmark's workloads.

Each workload builds its planes in setup() and then yields its ops in
cycles: one cycle visits every plane and every launch or op kind (a
slot) the same number of times, so a run made of whole cycles always
has the same mix.  Within a cycle a slot's seeded radii and angles are
stratified, one draw from each equal part of the range, which keeps the
cost of a run from depending on where the seed's draws happen to fall.

Every library call goes through the revplane module attributes
(`gd.turn_angle`, `cx.build_smoothed_cone`, ...), so the traced run's
wrappers see them.
"""

import math
import random
import subprocess
import sys
from dataclasses import dataclass, replace
from pathlib import Path

from revplane import analysis as an
from revplane import constructions as cx
from revplane import curvature as cv
from revplane import geodesics as gd
from revplane import jacobi
from revplane.errors import BuildError

import checks

HALF_PI = math.pi / 2
ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"


@dataclass
class Plane:
    name: str
    kind: str                 # flat, hyperbolic, cone, bulge, flare
    profile: object
    rho: float = None         # cones: the cap radius, beyond which m is linear
    m_rho: float = None       # cones: m(rho)
    slope: float = None       # cones: m' on the linear part, as solved
    expect_radius: float = None
    known_bug: tuple = None   # a confirmed defect this plane shows (checks.BUG_*)


@dataclass
class Op:
    label: str
    run: object               # () -> answer; the timed part
    check: object             # answer -> None, or the reason it is wrong
    known_bug: tuple = None   # a confirmed defect the op may show (checks.BUG_*)


# --- planes ----------------------------------------------------------------


def flat():
    return Plane("flat", "flat", jacobi.solve_jacobi(cv.constant(0.0), r_max=60.0))


def hyperbolic():
    return Plane("hyperbolic", "hyperbolic",
                 jacobi.solve_jacobi(cv.constant(-1.0), r_max=30.0))


def cone(s, expect_radius=None):
    b = cx.build_smoothed_cone(s)
    p = b.profile
    # the closed forms take the slope the solved profile has beyond the
    # cap, m'(r_max); the builder's b.slope = m'(rho) can differ from it
    # by a few 1e-9, which shows in a turn angle of about kappa / s
    return Plane(f"cone{s:.4g}", "cone", p, rho=b.rho, m_rho=p.m(b.rho),
                 slope=p.mp(p.r_max), expect_radius=expect_radius)


def seeded_cone(rng, lo, hi, failures):
    """A cone at a seeded slope in (lo, hi).  A slope the builder rejects
    (checks.BUG_SLOPE_TUNING) is recorded in `failures` and redrawn."""
    while True:
        s = rng.uniform(lo, hi)
        try:
            return cone(s)
        except BuildError as exc:
            failures.append(f"build_smoothed_cone({s!r}): {exc}")


def bulge():
    return Plane("bulge", "bulge", cx.build_bulge_plane().profile)


def flare():
    return Plane("flare", "flare", cx.build_flared_cone().profile)


# --- seeded draws ----------------------------------------------------------


def stratified(rng, n):
    """n uniform draws in [0, 1), one from each of n equal strata, shuffled."""
    u = [(j + rng.random()) / n for j in range(n)]
    rng.shuffle(u)
    return u


def log_between(u, lo, hi):
    return lo * (hi / lo) ** u


class Workload:
    spawns_processes = False

    def __init__(self, seed):
        self.seed = seed
        self.planes = []
        self.tracer = None
        self.setup_failures = []

    def setup(self):
        """Build the planes, then take one tangential turn angle on each, so
        that profile caches filled on first use are part of set-up."""
        self.setup_failures = []
        self.planes = self.build()
        for plane in self.planes:
            gd.turn_angle(plane.profile, 0.5 * plane.profile.r_max, HALF_PI)

    def build(self):
        raise NotImplementedError

    def cycle(self, rng):
        raise NotImplementedError

    def cycles(self):
        """Endless cycles of ops; each call restarts the seeded sequence."""
        rng = random.Random(f"{self.seed}/ops")
        while True:
            yield self.cycle(rng)

    def close(self):
        pass


# --- turn-batch --------------------------------------------------------------


class TurnBatch(Workload):
    """One gd.turn_angle call per op, across six planes and three launch
    kinds: tangential, outward (kappa < pi/2) and inward (kappa > pi/2,
    with a turning point)."""

    per_slot = 4

    def build(self):
        return [flat(), hyperbolic(), cone(0.3), cone(0.9), bulge(), flare()]

    def cycle(self, rng):
        ops = []
        for plane in self.planes:
            p = plane.profile
            for kind in ("tangential", "outward", "inward"):
                radii = stratified(rng, self.per_slot)
                angles = stratified(rng, self.per_slot)
                for u_r, u_k in zip(radii, angles):
                    r = log_between(u_r, 1e-3, 0.9) * p.r_max
                    kappa = {"tangential": HALF_PI, "outward": u_k * HALF_PI,
                             "inward": HALF_PI + u_k * HALF_PI}[kind]
                    ops.append(Op(
                        f"turn_angle {plane.name} {kind}",
                        lambda p=p, r=r, kappa=kappa: gd.turn_angle(p, r, kappa),
                        lambda res, plane=plane, r=r, kappa=kappa:
                            checks.check_turn(plane, r, kappa, res)))
        return ops


# --- ray-decisions -----------------------------------------------------------


class RayDecisions(Workload):
    """One max_ray_angle (kappa_tol 1e-6) or is_pole decision per op."""

    # the cost of a decision depends on the radius (inside a pole ball it
    # is several times higher), so each slot takes six radii per cycle
    per_slot = 6

    def build(self):
        return [flat(), hyperbolic(), cone(0.3), cone(0.9), bulge()]

    def cycle(self, rng):
        ops = []
        for plane in self.planes:
            p = plane.profile
            for u in stratified(rng, self.per_slot):
                r = log_between(u, 1e-3, 0.9) * p.r_max
                ops.append(Op(
                    f"max_ray_angle {plane.name}",
                    lambda p=p, r=r: gd.max_ray_angle(p, r, kappa_tol=checks.KAPPA_TOL),
                    lambda a, plane=plane, r=r: checks.check_max_ray_angle(plane, r, a)))
            for u in stratified(rng, self.per_slot):
                r = log_between(u, 1e-3, 0.9) * p.r_max
                ops.append(Op(
                    f"is_pole {plane.name}",
                    lambda p=p, r=r: an.is_pole(p, r),
                    lambda q, plane=plane, r=r: checks.check_is_pole(plane, r, q)))
        return ops


# --- scan-report -------------------------------------------------------------


class ScanReport(Workload):
    """What `revplane scan` computes for one plane per op, on smoothed
    cones: the s = 0.3 cone, the same cone solved only to r_max = 40, and
    four seeded slopes, one from each of (0.15, 0.35), (0.35, 0.5),
    (0.5, 0.7) and (0.7, 0.95), two with a finite critical ball and two
    critical everywhere."""

    def build(self):
        rng = random.Random(f"{self.seed}/slopes")
        cone03 = cone(0.3, expect_radius=checks.CONE03_RADIUS)
        # the window ends inside the cap, but the radius 11.244 lies in it
        cone03_r40 = replace(
            cone03, name="cone0.3@r_max40",
            profile=jacobi.solve_jacobi(cone03.profile.spec, r_max=40.0),
            known_bug=checks.BUG_WINDOW_LIMITED_RADIUS)
        return [cone03, cone03_r40] + [
            seeded_cone(rng, lo, hi, self.setup_failures)
            for lo, hi in ((0.15, 0.35), (0.35, 0.5), (0.5, 0.7), (0.7, 0.95))]

    def cycle(self, rng):
        return [self._op(plane) for plane in self.planes]

    def _op(self, plane):
        p = plane.profile

        def run():
            rep = an.scan_sets(p, n=256)
            return rep, an.critical_ball_radius(p), an.half_slope_radius(p)

        def check(answer):
            return checks.check_scan(plane, *answer, lambda r: gd.turn_angle(p, r, HALF_PI))

        return Op(f"scan {plane.name}", run, check, known_bug=plane.known_bug)


# --- cli -----------------------------------------------------------------------


class Cli(Workload):
    """One `python -m revplane.cli` process per op, one at a time."""

    spawns_processes = True

    def __init__(self, seed):
        super().__init__(seed)
        self.work = OUT / f"cli-work-{seed}"

    def setup(self):
        self.setup_failures = []
        self.work.mkdir(parents=True, exist_ok=True)
        rng = random.Random(f"{self.seed}/cone")
        p = seeded_cone(rng, 0.2, 0.45, self.setup_failures).profile
        self.cone_spec = self.work / "cone.json"
        self.cone_spec.write_text(p.spec.to_json())
        self.cone_r_max = repr(p.r_max)
        self.hyp_spec = self.work / "hyperbolic.json"
        self.hyp_spec.write_text(cv.constant(-1.0).to_json())
        self.nonzero_exits = 0

    def cycle(self, rng):
        w = self.work
        s = rng.uniform(0.2, 0.95)
        r_turn = log_between(rng.random(), 0.03, 27.0)
        r_cls = log_between(rng.random(), 0.03, 27.0)
        hyp = ["--spec", str(self.hyp_spec), "--r-max", "30"]
        cone_args = ["--spec", str(self.cone_spec), "--r-max", self.cone_r_max]
        return [
            self._op("cone", ["cone", "--slope", repr(s), "-o", str(w / "cone-out.json")],
                     {"slope": s}, known_bug=checks.BUG_SLOPE_TUNING),
            self._op("turn-angle", ["turn-angle", *hyp, "--r", repr(r_turn),
                                    "--kappa", repr(HALF_PI)], {"r": r_turn}),
            self._op("classify", ["classify", *hyp, "--r", repr(r_cls)], {}),
            self._op("radii", ["radii", *cone_args, "--skip-pole-ball"], {}),
            self._op("plane check", ["plane", "check", *cone_args], {}),
        ]

    def _op(self, command, argv, expect, known_bug=None):
        def run():
            if self.tracer is None:
                cmd = [sys.executable, "-m", "revplane.cli", *argv]
            else:
                spans = self.work / "child-spans.json"
                cmd = [sys.executable, str(ROOT / "perfbench" / "cli_child.py"),
                       str(spans), *argv]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=150)
            if proc.returncode != 0:
                self.nonzero_exits += 1
            if self.tracer is not None:
                self.tracer.graft_file(spans)
            return proc.returncode, proc.stdout, proc.stderr

        return Op(command, run, lambda ans: checks.check_cli(command, *ans, expect),
                  known_bug=known_bug)

    def close(self):
        if self.work.exists():
            for f in self.work.iterdir():
                f.unlink()
            self.work.rmdir()


WORKLOADS = {
    "turn-batch": TurnBatch,
    "ray-decisions": RayDecisions,
    "scan-report": ScanReport,
    "cli": Cli,
}
