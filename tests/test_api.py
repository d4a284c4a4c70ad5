"""The package's public surface: every exported name exists, and the
removed ones stay out."""

import importlib.util

import revplane


def test_every_exported_name_resolves():
    missing = [name for name in revplane.__all__ if not hasattr(revplane, name)]
    assert missing == []


def test_star_import():
    namespace = {}
    exec("from revplane import *", namespace)
    assert set(revplane.__all__) <= set(namespace)


def test_removed_names_stay_out():
    # the slope exit's estimate and the tests' referees (tests/oracle.py,
    # tests/sturm.py) are not part of the library
    removed = {"slope_at_infinity", "SlopeReport", "SLOPE_SPREAD_TOL",
               "sturm_compare", "SturmReport", "turn_angle_by_trace",
               "distance_shoot", "ShootResult", "ShootFailure", "oracle"}
    assert removed.isdisjoint(revplane.__all__)
    assert importlib.util.find_spec("revplane.oracle") is None
