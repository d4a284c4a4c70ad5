"""The benchmark's own tests: its checker counts wrong answers as failed
ops, and its tracer sees the calls the library makes internally.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import math

import pytest

import checks
import run
import tracer as tr
import workloads as wl
from revplane import analysis as an
from revplane import geodesics as gd
from revplane import quadrature as qd


@pytest.fixture(scope="module")
def flat():
    return wl.flat()


def _turn_op(plane, r, kappa, shift=0.0):
    def answer():
        res = gd.turn_angle(plane.profile, r, kappa)
        return qd.IntegralResult(res.value + shift, res.abs_error, res.status)

    return wl.Op("turn_angle flat", answer,
                 lambda res: checks.check_turn(plane, r, kappa, res))


def test_wrong_turn_angle_counts_as_failed_op(flat):
    ops = [_turn_op(flat, 2.0, 1.0), _turn_op(flat, 2.0, 1.0, shift=1e-3)]
    records = run.timed_loop(iter([ops]), seconds=0.0)
    correct, attempted, failed, failures = run.outcome(records)
    assert (correct, attempted, failed) == (False, 2, 1)
    assert "expected 1.0" in next(iter(failures))
    assert run.summarize_ops(records)["fail_frac"] == 0.5


def test_exceptions_and_known_bugs():
    def boom():
        raise RuntimeError("boom")

    ops = [
        wl.Op("ok", lambda: 1.0, lambda a: None),
        wl.Op("raises", boom, lambda a: None),
        wl.Op("known", lambda: math.inf, lambda a: "radius inf", known_bug=("inf", "tracked")),
        wl.Op("other", lambda: 1.0, lambda a: "radius 1.0", known_bug=("inf", "tracked")),
    ]
    records = run.timed_loop(iter([ops]), seconds=0.0)
    assert [r[2] is not None for r in records] == [False, True, True, True]
    assert [r[3] for r in records] == [None, None, "tracked", None]
    # a failure matching a tracked bug fails its op but leaves the run
    # correct; an exception and an untracked failure do not
    assert run.outcome(records[2:3])[:3] == (True, 1, 1)
    assert run.outcome(records[3:])[:3] == (False, 1, 1)
    assert run.outcome(records)[:3] == (False, 4, 3)


def test_latencies_scale_to_reference_speed(flat):
    records = run.timed_loop(iter([[_turn_op(flat, 2.0, 1.0)] * 3]), seconds=0.0)
    m = run.summarize_ops(records)
    assert m["machine_speed"] > 0.0
    for _, adjusted, _, _, raw in records:
        assert adjusted == pytest.approx(raw * m["machine_speed"], rel=0.5)


def test_closed_form_checks_reject_wrong_values(flat):
    cone = wl.Plane("cone", "cone", None, rho=10.0, m_rho=5.0, slope=0.5)
    ok = qd.IntegralResult(2.0, 1e-12, "converged")
    assert checks.check_turn(cone, 20.0, 1.0, ok) is None
    assert checks.check_turn(cone, 20.0, 1.0, qd.IntegralResult(2.001, 1e-12, "converged"))
    assert checks.check_turn(cone, 20.0, 1.0, qd.IntegralResult(math.inf, 0.0, "converged"))
    assert checks.check_max_ray_angle(cone, 20.0, 0.5 * math.pi) is None
    assert checks.check_max_ray_angle(cone, 20.0, 0.5 * math.pi + 1e-4)
    assert checks.check_max_ray_angle(flat, 1.0, math.pi - 1e-9)
    assert checks.check_is_pole(flat, 1.0, False)
    assert checks.check_cli("plane check", 0, '{"is_vm": true}', "", {}) is None
    assert checks.check_cli("plane check", 2, "", "", {})
    assert checks.check_cli("cone", 0, '{"slope": 0.3001}', "", {"slope": 0.3})
    assert checks.check_cli("turn-angle", 0, "not json", "", {"r": 1.0})


def test_tracer_sees_internal_calls(flat):
    t = tr.Tracer()
    t.install()
    try:
        with t.root(tr.OP):
            gd.max_ray_angle(flat.profile, 1.0, kappa_tol=1e-2)
    finally:
        t.uninstall()
    spans = t.spans
    parent = {i: spans[s[3]][0] for i, s in enumerate(spans) if s[3] >= 0}
    names = [s[0] for s in spans]
    # is_ray -> turn_angle and max_ray_angle -> is_pole resolve through
    # the module globals the wrappers replaced
    assert any(parent.get(i) == tr.IS_RAY for i, n in enumerate(names) if n == tr.TURN)
    assert any(parent.get(i) == tr.MAX_RAY for i, n in enumerate(names) if n == tr.IS_POLE)
    assert any(parent.get(i) == tr.TURN for i, n in enumerate(names) if n == tr.INTEGRATE)
    assert any(parent.get(i) == tr.INTEGRATE for i, n in enumerate(names) if n in tr.PROFILE)
    m = tr.summarize(spans)
    assert m["analysis.is_pole_calls"] >= 1
    assert m["geodesics.turn_angle_calls"] == m["analysis.turn_angles_per_op"] > 10
    assert 0.0 < m["jacobi.profile_share"] < 1.0
    # uninstall puts the originals back
    assert gd.turn_angle.__module__ == "revplane.geodesics"
    assert not hasattr(gd.turn_angle, "__wrapped__")
    assert not hasattr(an.is_pole, "__wrapped__")


def test_self_time_subtracts_children():
    spans = [
        [tr.OP, 0.0, 10.0, -1, 0, None],
        [tr.TURN, 1.0, 5.0, 0, 0, None],
        [tr.INTEGRATE, 2.0, 4.0, 1, 0, "converged"],
        [tr.PROFILE[0], 2.5, 3.0, 2, 7, None],
        [tr.CHECK, 11.0, 12.0, -1, 0, None],
        [tr.TURN, 11.0, 12.0, 4, 0, None],
    ]
    m = tr.summarize(spans)
    assert m["geodesics.turn_angle_calls"] == 1  # the check's call is left out
    assert m["geodesics.turn_angle_self_s"] == pytest.approx(2.0)
    assert m["quadrature.self_s"] == pytest.approx(1.5)
    assert m["quadrature.status.converged"] == 1
    assert m["quadrature.points_per_integral"] == 7
    assert m["jacobi.profile_share"] == pytest.approx(0.05)
