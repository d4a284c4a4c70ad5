import ast
import json
import math
import random
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st

from revplane import curvature as cv
from revplane import jacobi
from revplane import quadrature
from revplane.errors import OutOfWindow

import referee


def test_constant_eval():
    k = cv.constant(-1.0)
    r = np.linspace(0, 50, 1000)
    assert np.all(k.evaluate(r) == -1.0)
    assert k.evaluate(3.0) == -1.0


@given(st.floats(min_value=0.0, max_value=0.25), st.floats(min_value=0.0, max_value=100.0))
def test_isq_closed_form(u, r):
    spec = cv.isq(u)
    assert spec.evaluate(r) == pytest.approx(0.25 / (r + 1.0) ** 2 - u, abs=1e-15)


def test_isq_zero_matches_root():
    for u in (0.25, 0.1, 1e-3, 1e-6):
        z = cv.isq_zero(u)
        assert cv.isq(u).evaluate(z) == pytest.approx(0.0, abs=1e-12)


def test_isq_param_range():
    with pytest.raises(ValueError):
        cv.isq(0.3)
    with pytest.raises(ValueError):
        cv.isq(-0.01)


def test_isq_capped_regions():
    u = 4e-4  # z = 24
    z = cv.isq_zero(u)
    eps = 0.5
    spec = cv.isq_capped(u, eps)
    # below the blend: agrees with isq
    r = np.linspace(0, z - eps, 200)
    assert np.allclose(spec.evaluate(r), cv.isq(u).evaluate(r), atol=0)
    # beyond: identically zero
    r = np.linspace(z + eps, z + 100, 200)
    assert np.all(spec.evaluate(r) == 0.0)
    # inside: nonnegative and monotone
    assert cv.check_von_mangoldt(spec, r_max=z + eps).is_vm


def test_isq_capped_is_c2_at_joins():
    u, eps = 4e-4, 0.5
    spec = cv.isq_capped(u, eps)
    z = cv.isq_zero(u)
    for a in (z - eps, z + eps):
        h = 1e-5
        # second difference across the joint stays consistent
        vals = spec.evaluate(np.array([a - 2 * h, a - h, a, a + h, a + 2 * h]))
        d2_left = (vals[0] - 2 * vals[1] + vals[2]) / h**2
        d2_right = (vals[2] - 2 * vals[3] + vals[4]) / h**2
        assert d2_left == pytest.approx(d2_right, abs=1e-4)


def test_spliced_drop_profile():
    base = cv.constant(0.0)
    spec = cv.spliced(base, r0=2.0, drop=cv.DropParams(mu=3.0, w=1.0))
    assert spec.evaluate(1.9) == 0.0
    assert spec.evaluate(3.0) == -3.0
    assert spec.evaluate(10.0) == -3.0
    mid = spec.evaluate(2.5)
    assert -3.0 < mid < 0.0
    assert mid == pytest.approx(-1.5, abs=1e-12)  # smoothstep is odd about midpoint


@given(st.floats(min_value=0.1, max_value=5.0), st.floats(min_value=0.1, max_value=5.0))
def test_spliced_drop_monotone(mu, w):
    spec = cv.spliced(cv.constant(1.0), r0=1.0, drop=cv.DropParams(mu, w))
    rep = cv.check_von_mangoldt(spec, r_max=10.0)
    assert rep.is_vm


def test_vm_check_flags_increase():
    tab = cv.table([0.0, 1.0, 2.0], [0.0, -1.0, 0.5])
    rep = cv.check_von_mangoldt(tab, r_max=2.0)
    assert not rep.is_vm
    assert 1.0 <= rep.first_violation <= 2.0


def test_vm_check_decides_table_from_its_data():
    # a rise of 0.5 on [1, 1.001], narrower than the sampling grid's cells
    tab = cv.table([0.0, 1.0, 1.001, 1.002, 2.0], [0.0, -1.0, -0.5, -1.0, -1.0])
    rep = cv.check_von_mangoldt(tab, r_max=2.0)
    assert not rep.is_vm and rep.first_violation == 1.0
    with pytest.raises(OutOfWindow):
        cv.check_von_mangoldt(cv.table([0.5, 1.0], [0.0, -1.0]), r_max=1.0)


def test_vm_check_ok_kinds():
    for spec in (cv.constant(1.0), cv.isq(0.0), cv.isq(0.1), cv.isq_capped(1e-3, 0.5)):
        assert cv.check_von_mangoldt(spec, r_max=50.0).is_vm


# a rise of 0.5 on [1, 1.001], flat beyond the data
NARROW_RISE = cv.table([0.0, 1.0, 1.001, 1.002, 2.0, 10.0],
                       [0.0, -1.0, -0.5, -1.0, -1.0, -1.0], "constant")


def test_vm_check_spliced_rise_outside_the_drop():
    # the drop on (5, 6) leaves the base's rise at 1 as it is
    rep = cv.check_von_mangoldt(cv.spliced(NARROW_RISE, 5.0, cv.DropParams(1.0, 1.0)),
                                r_max=10.0)
    assert not rep.is_vm and rep.first_violation == 1.0


def test_vm_check_spliced_rise_inside_the_drop():
    # the drop on (0.95, 1.15) falls at about 53 per unit at r = 1, where
    # the base's slope starts at 0 and grows by about 3e6 per unit: the
    # base wins 1.79e-5 past 1
    spec = cv.spliced(NARROW_RISE, 0.95, cv.DropParams(10.0, 0.2))
    rep = cv.check_von_mangoldt(spec, r_max=10.0)
    assert not rep.is_vm
    assert rep.first_violation == pytest.approx(1.0000179, abs=1e-7)
    r = rep.first_violation + np.array([-1e-7, 1e-7, 2e-7])
    K = spec.evaluate(r)
    assert K[0] >= spec.evaluate(rep.first_violation) and K[2] > K[1]


def test_vm_check_steep_drop_masks_a_rise():
    # the base rises 0.1 on [1, 1.5] at slope <= 0.3; the drop on (0.5, 2.5)
    # falls there at mu S'/w >= 1.05
    tab = cv.table([0.0, 1.0, 1.5, 2.0, 10.0], [0.0, -1.0, -0.9, -1.0, -1.0], "constant")
    assert not cv.check_von_mangoldt(tab, r_max=10.0).is_vm
    spec = cv.spliced(tab, 0.5, cv.DropParams(2.0, 2.0))
    assert cv.check_von_mangoldt(spec, r_max=10.0) == cv.VMReport(True, None)


def test_vm_check_wide_blend_rises_at_its_root():
    # eps = 0.9 z: the quintic blend overshoots below zero and climbs back
    u = 1e-6
    z = cv.isq_zero(u)
    spec = cv.isq_capped(u, 0.9 * z)
    rep = cv.check_von_mangoldt(spec, r_max=z + 1.0)
    assert not rep.is_vm and z - 0.9 * z < rep.first_violation < z + 0.9 * z
    # the blend's slope crosses zero upward there
    def slope(r):
        return spec.taylor(r, 2)[1]
    assert abs(slope(rep.first_violation)) < 1e-15
    assert slope(rep.first_violation - 1e-3) < 0.0 < slope(rep.first_violation + 1e-3)
    # and nothing rises before it
    assert cv.check_von_mangoldt(spec, r_max=rep.first_violation).is_vm


def test_table_interpolates_and_bounds():
    tab = cv.table([0.0, 1.0, 2.0], [1.0, 0.0, -1.0])
    assert tab.evaluate(0.0) == 1.0
    assert tab.evaluate(2.0) == -1.0
    with pytest.raises(OutOfWindow):
        tab.evaluate(2.5)
    clamped = cv.table([0.0, 1.0, 2.0], [1.0, 0.0, -1.0], extrapolate="constant")
    assert clamped.evaluate(5.0) == -1.0


def test_evaluate_rejects_radii_outside_the_domain():
    # the domain check reads the description, for every kind; a NaN
    # radius lies in no domain
    tab = cv.table([0.5, 1.0, 2.0], [1.0, 0.0, -1.0])
    for r in (0.25, 2.5, math.nan, np.array([1.0, math.nan])):
        with pytest.raises(OutOfWindow):
            tab.evaluate(r)
    with pytest.raises(OutOfWindow):
        cv.constant(1.0).evaluate(math.nan)
    assert tab.evaluate(0.5) == 1.0 and tab.evaluate(2.0) == -1.0


def test_table_validation():
    with pytest.raises(ValueError):
        cv.table([0.0, 0.0, 1.0], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        cv.table([0.0, 1.0], [1.0, math.nan])


def test_json_round_trip_bit_exact():
    specs = [
        cv.constant(-1.2345678901234567),
        cv.isq(0.1234567890123456),
        cv.isq_capped(3.3e-4, 0.0625),
        cv.spliced(cv.isq(0.0), 4.5, cv.DropParams(8.0, 0.25)),
        cv.table([0.0, 0.1, 2.7], [0.3, 0.1, -0.9]),
        cv.spliced(cv.spliced(cv.isq_capped(0.01, 0.3), 1.5, cv.DropParams(0.5, 0.5)),
                   2.25, cv.DropParams(1.0, 0.125)),
        cv.table([0.3, 1.0, 2.0], [0.5, -0.25, -1.0], "constant"),
    ]
    for spec in specs:
        j = spec.to_json()
        back = cv.CurvatureSpec.from_json(j)
        assert back.to_json() == j
        r = np.linspace(0, min(2.7, spec.domain_hi), 57)
        assert np.all(back.evaluate(r) == spec.evaluate(r))


def test_tail_certificates():
    assert cv.constant(0.0).tail_certificate() == ("zero", 0.0)
    assert cv.constant(-1.0).tail_certificate() == ("nonpositive", 0.0)
    assert cv.constant(1.0).tail_certificate() is None
    assert cv.isq(0.0).tail_certificate() is None
    kind, r0 = cv.isq(0.01).tail_certificate()
    assert kind == "nonpositive" and r0 == pytest.approx(cv.isq_zero(0.01))
    kind, r0 = cv.isq_capped(0.01, 0.3).tail_certificate()
    assert kind == "zero" and r0 == pytest.approx(cv.isq_zero(0.01) + 0.3)
    # splice of a drop onto a flat plane: eventually constant negative
    spec = cv.spliced(cv.constant(0.0), 2.0, cv.DropParams(1.0, 1.0))
    assert spec.tail_certificate() == ("nonpositive", 3.0)
    assert cv.table([0.0, 1.0], [0.0, -1.0]).tail_certificate() is None


def test_joins_are_the_finitely_smooth_radii():
    assert cv.constant(-1.0).joins() == ()
    assert cv.isq(0.01).joins() == ()
    # a table's knots are joins, up to where its values turn constant
    assert cv.table([0.0, 1.0, 2.0], [1.0, 0.5, 0.0]).joins() == (1.0, 2.0)
    assert cv.table([0.0, 1.0, 2.0, 3.0], [1.0, 0.0, 0.0, 0.0], "constant").joins() == (1.0,)
    cap = cv.isq_capped(0.01, 0.1)
    z = cv.isq_zero(0.01)
    assert cap.joins() == (z - 0.1, z + 0.1)
    # the base's joins and the drop's two ends, sorted
    spec = cv.spliced(cap, 2.0, cv.DropParams(1.0, 0.5))
    assert spec.joins() == (2.0, 2.5, z - 0.1, z + 0.1)
    assert cv.spliced(cv.constant(1.0), 3.0, cv.DropParams(8.0, 0.25)).joins() == (3.0, 3.25)


def test_spliced_table_keeps_the_table_domain():
    t = cv.table([0, 1, 2, 10], [0, -1, -1, -1])
    spec = cv.spliced(t, 5.0, cv.DropParams(1.0, 1.0))
    assert spec.domain_hi == t.domain_hi == 10.0
    # the solve and the von Mangoldt check clip to [0, 10] as for the bare table
    assert jacobi.solve_jacobi(spec, r_max=20.0).r_max == 10.0
    rep, bare = cv.check_von_mangoldt(spec, r_max=20.0), cv.check_von_mangoldt(t, r_max=20.0)
    assert (rep.is_vm, rep.first_violation) == (bare.is_vm, bare.first_violation) == (True, None)
    # a drop that ends past the table: the solve restarts only inside the window
    late = cv.spliced(t, 9.5, cv.DropParams(1.0, 1.0))
    assert late.joins() == (1.0, 9.5, 10.5)
    p = jacobi.solve_jacobi(late, r_max=20.0)
    assert p.r_max == 10.0 and np.isfinite(p.m(10.0))
    # an extrapolating table stays unbounded
    assert cv.spliced(cv.table([0, 10], [0, -1], "constant"), 5.0,
                      cv.DropParams(1.0, 1.0)).domain_hi == math.inf


def test_non_finite_parameters_rejected():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            cv.constant(bad)
        with pytest.raises(ValueError):
            cv.spliced(cv.constant(0.0), bad, cv.DropParams(1.0, 1.0))
        with pytest.raises(ValueError):
            cv.DropParams(bad, 1.0)
        with pytest.raises(ValueError):
            cv.DropParams(1.0, bad)


# a table from r_0 = 0.3 > 0 whose values turn constant at 2
TABLE_R = [0.3, 0.5, 1.0, 2.0, 3.5, 6.0]
TABLE_K = [0.2, 0.1, -0.05, -0.3, -0.3, -0.3]
CAP = cv.isq_capped(0.01, 0.3)
PIECE_SPECS = {
    "constant": cv.constant(-1.3),
    "isq0": cv.isq(0.0),
    "isq": cv.isq(0.01),
    "cap": CAP,
    "table": cv.table(TABLE_R, TABLE_K),
    "table_extrapolated": cv.table(TABLE_R, TABLE_K, "constant"),
    "table_flat_cell": cv.table([0.0, 1.0, 2.0, 3.0, 4.0], [1.0, 0.5, 0.5, 0.0, 0.0], "constant"),
    "splice_isq0": cv.spliced(cv.isq(0.0), 1.0, cv.DropParams(0.01, 1.0)),
    "splice_isq": cv.spliced(cv.isq(0.01), 2.0, cv.DropParams(0.3, 0.7)),
    "splice_cap": cv.spliced(CAP, 3.0, cv.DropParams(2.0, 0.6)),
    "splice_table": cv.spliced(cv.table(TABLE_R, TABLE_K), 0.2, cv.DropParams(1.5, 0.45)),
    "splice_table_extrapolated": cv.spliced(cv.table(TABLE_R, TABLE_K, "constant"), 0.8,
                                            cv.DropParams(1.5, 2.0)),
}


@pytest.mark.parametrize("name", PIECE_SPECS)
def test_pieces_match_the_referee(name):
    # evaluate and taylor against the referee's own pieces (tests/referee.py),
    # built in mpmath from each kind's definition, at seeded radii and at
    # every join; the j-th Taylor coefficient is weighed by L^j, L the
    # referee piece's width up to 1, so a narrow drop's steep high
    # coefficients count as they act on their piece
    spec = PIECE_SPECS[name]
    lo, hi = (TABLE_R[0] if spec.domain_hi < math.inf else 0.0), min(spec.domain_hi, 12.0)
    rng = random.Random(1)
    radii = [rng.uniform(lo, hi) for _ in range(100)] + [r for r in spec.joins() if r <= hi]
    with mpmath.workdps(referee.DPS):
        pieces = referee._pieces(spec)
        starts = [s for s, _ in pieces] + [math.inf]
        for r in radii:
            i = max(i for i, s in enumerate(starts) if s <= r)
            width = min(1.0, starts[i + 1] - starts[i])
            want = [float(c) * width**j for j, c in
                    enumerate((pieces[i][1](mpmath.mpf(r), 6) + [0] * 6)[:6])]
            got = [c * width**j for j, c in enumerate(spec.taylor(r, 6))]
            scale = 1e-14 * max(1.0, *map(abs, want))
            assert abs(spec.evaluate(r) - want[0]) <= 1e-14 * max(1.0, abs(want[0])), r
            assert max(abs(a - b) for a, b in zip(got, want)) <= scale, r


def test_queries_read_the_pieces_not_the_kind():
    # every query reads the one description __init__ builds; only the
    # builder, serialization and the von Mangoldt rules tell the kinds apart
    tree = ast.parse(Path(cv.__file__).read_text())
    spec = next(d for d in tree.body if isinstance(d, ast.ClassDef) and d.name == "CurvatureSpec")
    defs = {d.name: d for d in spec.body if isinstance(d, ast.FunctionDef)}
    for name in ("evaluate", "taylor", "joins", "constant_on", "constant_beyond",
                 "tail_certificate", "domain_hi", "_piece", "_constant"):
        assert "kind" not in ast.unparse(defs[name]), name
    names = {getattr(n, "id", None) or getattr(n, "attr", None) or n.name
             for n in ast.walk(tree) if isinstance(n, (ast.Name, ast.Attribute, ast.FunctionDef))}
    assert names.isdisjoint({"_eval", "_isq_value", "_flat_from", "_blend_coefs"})


def test_kind_is_compared_in_three_places():
    # _build checks and writes each kind, to_dict nests a splice's base
    # and drop, and _rise_cells keeps the exact von Mangoldt rules
    tree = ast.parse(Path(cv.__file__).read_text())
    where = set()
    for fn in ast.walk(tree):
        if isinstance(fn, ast.FunctionDef):
            for node in ast.walk(fn):
                if isinstance(node, ast.Compare) and any(
                        getattr(n, "id", None) == "kind" or getattr(n, "attr", None) == "kind"
                        for n in ast.walk(node)):
                    where.add(fn.name)
    assert where == {"_build", "to_dict", "_rise_cells"}
    # one copy of the cap's blend and of a table's cubics, and no dead helper
    names = {getattr(n, "id", None) or getattr(n, "attr", None) or getattr(n, "name", None)
             for n in ast.walk(tree)}
    assert names.isdisjoint({"BPoly", "_validate", "_pieces", "_make_blend", "_blend_start",
                             "blend_is_monotone", "smoothstep"})


def test_referee_reads_no_private_attribute():
    # the referee rebuilds K from a spec's kind and params alone
    tree = ast.parse((Path(__file__).parent / "referee.py").read_text())
    private = {n.attr for n in ast.walk(tree)
               if isinstance(n, ast.Attribute) and n.attr.startswith("_")}
    assert not private, private


def test_one_module_imports_csv():
    # every table export goes through svgplot.write_csv
    importers = {path.name for path in Path(cv.__file__).parent.glob("*.py")
                 for node in ast.walk(ast.parse(path.read_text()))
                 if (isinstance(node, ast.Import) and any(a.name == "csv" for a in node.names))
                 or (isinstance(node, ast.ImportFrom) and node.module == "csv")}
    assert importers == {"svgplot.py"}


def test_profile_is_built_once_and_only_read():
    # the quadrature reads the profile's landmarks, not its curvature spec,
    # and the profile keeps one store of its pieces and no lazy landmark
    tree = ast.parse(Path(quadrature.__file__).read_text())
    assert not [n for n in ast.walk(tree) if isinstance(n, ast.Attribute) and n.attr == "spec"]
    tree = ast.parse(Path(jacobi.__file__).read_text())
    profile = next(d for d in tree.body if isinstance(d, ast.ClassDef) and d.name == "Profile")
    names = {getattr(n, "attr", None) or getattr(n, "name", None) for n in ast.walk(profile)}
    assert names.isdisjoint({"_m_pp", "_mp_pp", "_extrema", "_stretch_ends"})
    decorators = [d for f in profile.body if isinstance(f, ast.FunctionDef)
                  for d in f.decorator_list]
    assert not [d for d in decorators if "property" in ast.unparse(d)]


def test_profile_takes_only_its_pieces_and_one_rule_integrates():
    # the profile works out its window and tail from its pieces and its
    # curvature, so neither is a parameter, and the solve threads no tail;
    # jacobi.py integrates with the library's one GK15 rule, not scipy's
    src = Path(jacobi.__file__).parent
    tree = ast.parse(Path(jacobi.__file__).read_text())
    defs = {d.name: d for d in ast.walk(tree) if isinstance(d, ast.FunctionDef)}
    assert [a.arg for a in defs["__init__"].args.args] == ["self", "spec", "m", "mp"]
    assert not defs["__init__"].args.kwonlyargs and not defs["__init__"].args.defaults
    names = {getattr(n, "id", None) or getattr(n, "attr", None) or getattr(n, "arg", None)
             for n in ast.walk(defs["solve_jacobi"])}
    assert "tail" not in names
    assert not [n for n in ast.walk(tree) if isinstance(n, (ast.Import, ast.ImportFrom))
                and "scipy.integrate" in ({a.name for a in n.names} | {getattr(n, "module", None)})]
    defined = {}
    for path in src.glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            targets = ([node.name] if isinstance(node, ast.FunctionDef) else
                       [t.id for t in getattr(node, "targets", []) if isinstance(t, ast.Name)])
            for name in {"_gk15", "_XGK"} & set(targets):
                defined.setdefault(name, []).append(path.name)
    assert defined == {"_gk15": ["jacobi.py"], "_XGK": ["jacobi.py"]}
