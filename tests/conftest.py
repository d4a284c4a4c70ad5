"""Shared plane builds.  Session-scoped: the cones take a moment each."""

import pytest
from hypothesis import settings

from revplane import constructions as cx
from revplane import curvature as cv
from revplane import jacobi as jb

# a failing draw prints its @reproduce_failure line, so it can be replayed
# without the .hypothesis/ example database; the draws are unchanged
settings.register_profile("revplane", print_blob=True)
settings.load_profile("revplane")


@pytest.fixture(scope="session")
def flat60():
    return jb.solve_jacobi(cv.constant(0.0), r_max=60.0)


@pytest.fixture(scope="session")
def hyp30():
    return jb.solve_jacobi(cv.constant(-1.0), r_max=30.0)


@pytest.fixture(scope="session")
def cone03():
    return cx.build_smoothed_cone(0.3)


@pytest.fixture(scope="session")
def cone05():
    return cx.build_smoothed_cone(0.5)


@pytest.fixture(scope="session")
def cone09():
    return cx.build_smoothed_cone(0.9)


@pytest.fixture(scope="session")
def cone03_long():
    # same cone as cone03, solved on a window wide enough for neck tests
    return cx.build_smoothed_cone(0.3, tail=300.0)


@pytest.fixture(scope="session")
def bulge():
    return cx.build_bulge_plane()


@pytest.fixture(scope="session")
def flare():
    return cx.build_flared_cone()


@pytest.fixture(scope="session")
def bounded_table():
    return cx.build_bounded_table_plane()
