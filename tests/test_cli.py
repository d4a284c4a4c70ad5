import hashlib
import json
import math
import warnings

import numpy as np
import pytest

from revplane import analysis as an
from revplane import cli
from revplane import curvature as cv
from revplane import geodesics as gd
from revplane import jacobi


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    out = json.loads(captured.out.splitlines()[-1]) if captured.out.strip() else None
    err = json.loads(captured.err.splitlines()[-1]) if captured.err.strip() else None
    return code, out, err


def test_plane_build_and_profile(tmp_path, capsys):
    spec_path = tmp_path / "flat.json"
    prof_path = tmp_path / "flat.csv"
    code, out, _ = run(capsys, "plane", "build", "--kind", "constant",
                       "--k", "0.0", "-o", str(spec_path),
                       "--profile-csv", str(prof_path), "--r-max", "30")
    assert code == 0
    assert out["kind"] == "constant" and out["r_max"] == 30.0
    spec = cv.CurvatureSpec.from_json(spec_path.read_text())
    assert spec.evaluate(5.0) == 0.0
    assert prof_path.read_text().splitlines()[0] == "r,m,mp,K"


def test_plane_build_with_drop(tmp_path, capsys):
    spec_path = tmp_path / "drop.json"
    code, out, _ = run(capsys, "plane", "build", "--kind", "constant",
                       "--k", "1.0", "--drop-at", "2.4", "--drop-mu", "8",
                       "--drop-w", "0.25", "-o", str(spec_path))
    assert code == 0 and out["kind"] == "spliced"


@pytest.mark.parametrize("argv, spec", [
    (("--kind", "isq", "--u", "0.01"), cv.isq(0.01)),
    (("--kind", "isq-capped", "--u", "4e-4", "--eps", "0.5"), cv.isq_capped(4e-4, 0.5)),
])
def test_plane_build_isq_kinds(tmp_path, capsys, argv, spec):
    spec_path = tmp_path / "spec.json"
    code, out, _ = run(capsys, "plane", "build", *argv, "-o", str(spec_path))
    assert code == 0 and out["kind"] == spec.kind
    assert json.loads(spec_path.read_text()) == spec.to_dict()
    code, out, _ = run(capsys, "plane", "check", "--spec", str(spec_path))
    assert code == 0 and out == {"is_vm": True, "first_violation": None}


def test_plane_check_flags_increasing_table(tmp_path, capsys):
    spec_path = tmp_path / "bad.json"
    spec_path.write_text(cv.table([0.0, 1.0, 2.0], [0.0, 0.5, 1.0]).to_json())
    code, out, _ = run(capsys, "plane", "check", "--spec", str(spec_path),
                       "--r-max", "2")
    assert code == 0
    assert out["is_vm"] is False and out["first_violation"] is not None


def test_plane_check_flags_a_rise_outside_the_drop(tmp_path, capsys):
    # a narrow rise at r = 1 that a drop on (5, 6) does not reach
    table_path = tmp_path / "rise.csv"
    table_path.write_text("r,K\n0,0\n1,-1\n1.001,-0.5\n1.002,-1\n2,-1\n10,-1\n")
    spec_path = tmp_path / "rise.json"
    code, out, _ = run(capsys, "plane", "build", "--kind", "table", "--table",
                       str(table_path), "--extrapolate", "constant", "--drop-at", "5",
                       "--drop-mu", "1", "--drop-w", "1", "-o", str(spec_path))
    assert code == 0 and out["kind"] == "spliced"
    assert cli.main(["plane", "check", "--spec", str(spec_path), "--r-max", "10"]) == 0
    printed = capsys.readouterr().out
    assert '"is_vm": false' in printed
    assert json.loads(printed)["first_violation"] == 1.0
def test_star_violation_exit_code(tmp_path, capsys):
    spec_path = tmp_path / "sphere.json"
    prof_path = tmp_path / "sphere.csv"
    code, _, err = run(capsys, "plane", "build", "--kind", "constant",
                       "--k", "1.0", "-o", str(spec_path),
                       "--profile-csv", str(prof_path), "--r-max", "10")
    assert code == 3
    assert err["error"] == "star_violation"
    assert abs(err["first_zero"] - math.pi) < 1e-6


def test_cone_then_turn_angle(tmp_path, capsys):
    spec_path = tmp_path / "cone.json"
    code, out, _ = run(capsys, "cone", "--slope", "0.9", "-o", str(spec_path))
    assert code == 0
    assert abs(out["slope"] - 0.9) < 1e-9
    r_max = out["suggested_r_max"]
    code, res, _ = run(capsys, "turn-angle", "--spec", str(spec_path),
                       "--r-max", str(r_max), "--r", str(out["rho"] + 2.0),
                       "--kappa", str(math.pi / 2))
    assert code == 0 and res["status"] == "converged"
    assert abs(res["value"] - math.pi / 1.8) < 1e-7


def test_turn_angle_window_limited_exit(tmp_path, capsys):
    spec_path = tmp_path / "isq.json"
    spec_path.write_text(cv.isq(0.0).to_json())
    code, out, _ = run(capsys, "turn-angle", "--spec", str(spec_path),
                       "--r-max", "50", "--r", "5", "--kappa", str(math.pi / 2))
    assert code == 4 and out["status"] == "window_limited"


def test_classify_flat_and_undetermined(tmp_path, capsys, monkeypatch):
    pole_tests = []
    is_pole = an.is_pole
    monkeypatch.setattr(an, "is_pole",
                        lambda *a, **kw: pole_tests.append(a) or is_pole(*a, **kw))
    flat = tmp_path / "flat.json"
    flat.write_text(cv.constant(0.0).to_json())
    code, out, _ = run(capsys, "classify", "--spec", str(flat),
                       "--r-max", "50", "--r", "3.0")
    assert code == 0
    assert out["critical"] and out["away"] and out["pole"]
    assert out["max_ray_angle"] == math.pi
    # the pole verdict is the one max_ray_angle reached
    assert len(pole_tests) == 1

    isq = tmp_path / "isq.json"
    isq.write_text(cv.isq(0.0).to_json())
    code, _, err = run(capsys, "classify", "--spec", str(isq),
                       "--r-max", "50", "--r", "5.0")
    assert code == 5 and err["error"] == "undetermined"


@pytest.mark.parametrize("plane, r", [("hyperbolic", 2.0), ("cone", 5.19), ("cone", 36.0)])
def test_classify_reads_the_tangential_turn_angle_once(tmp_path, capsys, monkeypatch, cone03,
                                                       plane, r):
    # critical and away are the closed and the strict side of pi of one
    # tangential turn angle: the JSON is what is_critical, in_away_set and
    # max_ray_angle answer, for one tangential turn angle fewer
    spec, r_max = ((cv.constant(-1.0), 20.0) if plane == "hyperbolic"
                   else (cone03.profile.spec, cone03.profile.r_max))
    path = tmp_path / "spec.json"
    path.write_text(spec.to_json())
    tangential = []
    turn_angle = gd.turn_angle

    def spy(profile, r_q, kappa, tol=1e-8):
        if kappa == math.pi / 2:
            tangential.append(r_q)
        return turn_angle(profile, r_q, kappa, tol=tol)

    monkeypatch.setattr(gd, "turn_angle", spy)
    prof = jacobi.solve_jacobi(spec, r_max=r_max)
    angle = gd.max_ray_angle(prof, r)
    want = {"r": r, "critical": an.is_critical(prof, r), "away": an.in_away_set(prof, r),
            "pole": angle == math.pi, "max_ray_angle": angle}
    separately = len(tangential)
    tangential.clear()
    code, out, _ = run(capsys, "classify", "--spec", str(path), "--r-max", repr(r_max),
                       "--r", repr(r))
    assert code == 0 and out == want
    assert len(tangential) == separately - 1


def test_radii_hyperbolic(tmp_path, capsys):
    spec_path = tmp_path / "hyp.json"
    spec_path.write_text(cv.constant(-1.0).to_json())
    code, out, _ = run(capsys, "radii", "--spec", str(spec_path),
                       "--r-max", "20", "--skip-pole-ball")
    assert code == 0
    assert out["critical_ball_radius"] == math.inf
    assert out["half_slope_radius"] == math.inf
    assert "pole_ball_radius" not in out
    # with the pole ball: every point of the hyperbolic plane is a pole
    code, out, _ = run(capsys, "radii", "--spec", str(spec_path), "--r-max", "10")
    assert code == 0
    assert out == {"critical_ball_radius": math.inf, "half_slope_radius": math.inf,
                   "pole_ball_radius": math.inf}


def test_scan_writes_reports(tmp_path, capsys):
    spec_path = tmp_path / "flat.json"
    spec_path.write_text(cv.constant(0.0).to_json())
    json_path = tmp_path / "scan.json"
    csv_path = tmp_path / "scan.csv"
    svg_path = tmp_path / "scan.svg"
    code, out, _ = run(capsys, "scan", "--spec", str(spec_path),
                       "--r-max", "50", "--n", "32",
                       "--json", str(json_path), "--csv", str(csv_path),
                       "--svg", str(svg_path))
    assert code == 0
    assert len(out["critical_intervals"]) == 1
    blob = json.loads(json_path.read_text())
    assert blob["radii"]["critical_ball_radius"] == math.inf
    assert csv_path.read_text().startswith("r,turn,abs_error")
    assert svg_path.read_text().startswith("<svg")
    # without --json the whole report goes to stdout
    code, out, _ = run(capsys, "scan", "--spec", str(spec_path),
                       "--r-max", "50", "--n", "32")
    assert code == 0
    assert out == blob


def test_neck_inapplicable_on_flat(tmp_path, capsys):
    spec_path = tmp_path / "flat.json"
    spec_path.write_text(cv.constant(0.0).to_json())
    code, out, _ = run(capsys, "neck", "--spec", str(spec_path),
                       "--r-max", "50", "--x", "2", "--y", "10")
    assert code == 0 and out["applicable"] is False


def test_trace_straight_line(tmp_path, capsys):
    spec_path = tmp_path / "flat.json"
    spec_path.write_text(cv.constant(0.0).to_json())
    csv_path = tmp_path / "line.csv"
    svg_path = tmp_path / "line.svg"
    code, out, _ = run(capsys, "trace", "--spec", str(spec_path),
                       "--r-max", "50", "--r", "1.0",
                       "--kappa", str(math.pi / 2), "--s-max", "10",
                       "--csv", str(csv_path), "--svg", str(svg_path))
    assert code == 0 and out["status"] == "completed"
    assert abs(out["r_end"] - math.sqrt(101.0)) < 1e-6
    assert csv_path.read_text().splitlines()[0] == "s,r,theta,r_dot"
    assert svg_path.read_text().startswith("<svg")


def test_embed_writes_csv(tmp_path, capsys):
    spec_path = tmp_path / "isq.json"
    spec_path.write_text(cv.isq(0.0).to_json())
    out_path = tmp_path / "embed.csv"
    code, out, _ = run(capsys, "embed", "--spec", str(spec_path),
                       "--r-max", "20", "--n", "256", "-o", str(out_path))
    assert code == 0 and out["rows"] == 256
    assert out_path.read_text().splitlines()[0] == "r,radius,height"


def test_embed_rejects_hyperbolic(tmp_path, capsys):
    spec_path = tmp_path / "hyp.json"
    spec_path.write_text(cv.constant(-1.0).to_json())
    out_path = tmp_path / "embed.csv"
    code, out, err = run(capsys, "embed", "--spec", str(spec_path),
                         "--r-max", "5", "-o", str(out_path))
    assert code == 2 and out is None
    assert err["error"] == "invalid_input"
    assert not out_path.exists()


def test_example_bulge_and_rejection(tmp_path, capsys):
    spec_path = tmp_path / "bulge.json"
    code, out, _ = run(capsys, "example", "m-prime-zero", "-o", str(spec_path))
    assert code == 0 and out["mu"] == 8.0
    assert json.loads(spec_path.read_text())["kind"] == "spliced"

    code, _, err = run(capsys, "example", "m-prime-zero", "--mu", "2",
                       "--w", "1", "-o", str(tmp_path / "weak.json"))
    assert code == 2 and "vanishes" in err["message"]


def test_example_disconnected(tmp_path, capsys):
    spec_path = tmp_path / "flare.json"
    code, out, _ = run(capsys, "example", "disconnected", "-o", str(spec_path))
    assert code == 0
    assert out["r_q"] < out["splice_radius"] <= out["suggested_r_max"]


def test_bad_inputs_exit_two(tmp_path, capsys):
    code, _, err = run(capsys, "turn-angle", "--spec",
                       str(tmp_path / "missing.json"), "--r", "1",
                       "--kappa", "1")
    assert code == 2 and err["error"] == "invalid_input"
    code, _, err = run(capsys, "cone", "--slope", "1.5",
                       "-o", str(tmp_path / "x.json"))
    assert code == 2
    # a query tolerance the quadrature rejects, a scan without two grid
    # points and a backward trace are invalid input too
    spec = str(tmp_path / "hyp.json")
    assert run(capsys, "plane", "build", "--kind", "constant", "--k", "-1",
               "-o", spec)[0] == 0
    # and so are an endless trace, a trace without both its ends, a trace
    # tolerance outside [100 eps, 1) (rtol 0 did not finish, 1e-300 failed
    # in the solver), a stop radius outside the window and an embedding
    # without both ends of the window
    trace = ["trace", "--r", "1", "--kappa", "1", "--s-max", "5"]
    for argv in (["radii", "--query-tol", "2"],
                 ["scan", "--n", "0", "--svg", str(tmp_path / "x.svg")],
                 ["scan", "--n", "0"],
                 ["trace", "--r", "1", "--kappa", "1", "--s-max", "-1"],
                 ["trace", "--r", "1", "--kappa", "1", "--s-max", "inf"],
                 [*trace, "--n", "0"], [*trace, "--n", "1"],
                 [*trace, "--rtol", "0"], [*trace, "--rtol", "1e-300"],
                 *([*trace, "--stop-at-radius", x] for x in ("nan", "-1", "50")),
                 ["embed", "--n", "0", "-o", str(tmp_path / "e.csv")],
                 ["embed", "--n", "1", "-o", str(tmp_path / "e.csv")]):
        code, _, err = run(capsys, *argv, "--spec", spec, "--r-max", "10")
        assert code == 2 and err["error"] == "invalid_input", argv
    # a table plane needs its table, and an empty one is none
    code, _, err = run(capsys, "plane", "build", "--kind", "table",
                       "-o", str(tmp_path / "t.json"))
    assert code == 2 and err["error"] == "invalid_input" and "--table" in err["message"]
    # stderr holds the empty table's error alone: numpy's warning on an
    # empty file, which a terminal prints ahead of it, is not raised
    (tmp_path / "empty.csv").write_text("")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main(["plane", "build", "--kind", "table", "--table",
                         str(tmp_path / "empty.csv"), "-o", str(tmp_path / "t.json")])
    assert code == 2 and not caught, [str(w.message) for w in caught]
    [err] = map(json.loads, capsys.readouterr().err.splitlines())
    assert err["error"] == "invalid_input" and "--table" in err["message"]
    # an unbounded window or cone tail is invalid input, not a crash in
    # the solve
    code, _, err = run(capsys, "turn-angle", "--spec", spec, "--r-max", "inf",
                       "--r", "1", "--kappa", "1")
    assert code == 2 and err["error"] == "invalid_input"
    # a launch past the solved window is out of it
    code, out, err = run(capsys, "turn-angle", "--spec", spec, "--r-max", "30",
                         "--r", "40", "--kappa", "1")
    assert code == 2 and out is None and err["error"] == "out_of_window"
    for tail in ("inf", "nan", "-5", "0"):
        code, _, err = run(capsys, "cone", "--slope", "0.3", "--tail", tail,
                           "-o", str(tmp_path / "c.json"))
        assert code == 2 and err["error"] == "invalid_input", tail
        assert "tail" in err["message"], tail
    # a nan radius factor of the flared cone passed its check
    code, _, err = run(capsys, "example", "disconnected", "--rq-factor", "nan",
                       "-o", str(tmp_path / "d.json"))
    assert code == 2 and err["error"] == "invalid_input" and "rq_factor" in err["message"]
    with pytest.raises(SystemExit):
        cli.main(["no-such-command"])


def test_guards_exit_two_with_their_messages(tmp_path, capsys):
    # each library guard reaches the CLI as invalid input with its own
    # message: a base cone without a critical ball, a point too close to
    # it, an empty window (solve and check), a cap parameter out of
    # range, and a spec of a kind no builder knows
    spec = str(tmp_path / "hyp.json")
    assert run(capsys, "plane", "build", "--kind", "constant", "--k", "-1", "-o", spec)[0] == 0
    cone = tmp_path / "cone.json"
    cone.write_text(json.dumps({"kind": "cone", "params": {}}))
    out = str(tmp_path / "x.json")
    for argv, message in (
            (["example", "disconnected", "--slope", "0.6", "-o", out],
             "finite positive critical ball"),
            (["example", "disconnected", "--rq-factor", "1.0001", "-o", out],
             "increase rq_factor"),
            (["turn-angle", "--spec", spec, "--r-max", "0", "--r", "1", "--kappa", "1"],
             "r_max must be positive"),
            (["plane", "build", "--kind", "isq-capped", "--u", "0.3", "-o", out],
             "u in (0, 1/4]"),
            (["plane", "build", "--kind", "isq-capped", "--u", "0.01", "--eps", "5", "-o", out],
             "eps must be in (0, z)"),
            (["plane", "check", "--spec", spec, "--r-max", "0"], "r_max must be positive"),
            (["turn-angle", "--spec", str(cone), "--r", "1", "--kappa", "1"],
             "unknown curvature kind 'cone'")):
        code, _, err = run(capsys, *argv)
        assert code == 2 and err["error"] == "invalid_input", argv
        assert message in err["message"], argv


# sha256 of each export on test_exports_keep_their_bytes' inputs: a changed
# byte in any file format fails it
EXPORTS = {
    "flat.json": "ac725f0101cf9b75a78d6772a37b51f436e89e1c20151ee24415fdbe02eb6df1",
    "spliced.json": "fd9beb2764160f447d508a20a7963e5a17b75ba88e4972eed5839e7e2c6f2c9a",
    "profile.csv": "035561329a17f81ac852373b4c8d82a2cfc289fb283955470a643cba236e046f",
    "trace.csv": "b09ac10a0b5935e32a57307020e7b0bbc7c042052a1027683e1ca6e0ae7a43ac",
    "trace.svg": "c5fc1990c39bff5186a5352f79d1cca81f01fff28bcf9fc4bef3604a17e5a1a2",
    "scan.csv": "3d66a29a5d17011c6a60f21cc9d15aa447768618404daecdae59b7c209911614",
    "scan.svg": "12ffd6486b8dffd4eef5d26bae3dad0301024d6c80f10a4e2d5749581827fda8",
    "scan.json": "2bf82462223092f34dc950f6c26d01c8ebe5367e86887b295aa8405f76632d8b",
    "embed.csv": "aed54e2d1b332c75418674771d8993ca73abca5aff08df98b1ad9d61ae1f531f",
}


def test_exports_keep_their_bytes(tmp_path, capsys):
    # the nine exports on the flat plane at r_max 10 (whose turn angles
    # are exact, so the bytes do not move with the quadrature) and a
    # spliced spec
    def path(name):
        return str(tmp_path / name)

    flat = ("--spec", path("flat.json"), "--r-max", "10")
    for argv in (("plane", "build", "--kind", "constant", "--k", "0", "-o", path("flat.json")),
                 ("plane", "build", "--kind", "isq-capped", "--u", "4e-4", "--eps", "0.5",
                  "--drop-at", "3", "--drop-mu", "0.5", "--drop-w", "2",
                  "-o", path("spliced.json")),
                 ("trace", *flat, "--r", "5", "--kappa", "2", "--s-max", "8", "--n", "9",
                  "--csv", path("trace.csv"), "--svg", path("trace.svg")),
                 ("scan", *flat, "--n", "5", "--csv", path("scan.csv"),
                  "--svg", path("scan.svg"), "--json", path("scan.json")),
                 ("embed", *flat, "--n", "7", "-o", path("embed.csv"))):
        assert run(capsys, *argv)[0] == 0, argv
    jacobi.export_profile_csv(jacobi.solve_jacobi(cv.constant(0.0), r_max=10.0),
                              path("profile.csv"), n=7)
    for name, digest in EXPORTS.items():
        data = (tmp_path / name).read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest, (name, data.decode())


def test_cone_near_flat_slope(tmp_path, capsys):
    code, out, _ = run(capsys, "cone", "--slope", "0.99", "-o", str(tmp_path / "c.json"))
    assert code == 0
    assert abs(out["slope"] - 0.99) <= 1e-9


def test_malformed_specs_are_invalid_input(tmp_path, capsys):
    # JSON that is not a spec of the right shape is a ValueError when the
    # spec is built, and invalid input to the CLI
    splice = '{"kind": "spliced", "params": {"base": %s, "r0": 1.0, "drop": %s}}'
    base, drop = '{"kind": "constant", "params": {"k": 0.0}}', '{"mu": 1.0, "w": 1.0}'
    for text in ('[]', '"x"', 'null', '{"kind": "constant", "params": null}',
                 '{"kind": "isq", "params": {"u": null}}',
                 '{"kind": "constant", "params": {"k": [1]}}',
                 splice % ("1", drop), splice % (base, "5")):
        with pytest.raises(ValueError):
            cv.CurvatureSpec.from_json(text)
        path = tmp_path / "bad.json"
        path.write_text(text)
        code, _, err = run(capsys, "turn-angle", "--spec", str(path), "--r", "1",
                           "--kappa", "1")
        assert code == 2 and err["error"] == "invalid_input", text
    # the same splice, well formed, is a spec
    assert cv.CurvatureSpec.from_json(splice % (base, drop)).kind == "spliced"


def test_non_finite_specs_and_overflow_exit_2(tmp_path, capsys):
    # a NaN curvature, an infinite drop and a profile that overflows in
    # the window are invalid input, not a crash
    specs = {"nan": '{"kind": "constant", "params": {"k": NaN}}',
             "drop": '{"kind": "spliced", "params": {"base": {"kind": "constant", '
                     '"params": {"k": 0.0}}, "r0": 1.0, "drop": {"mu": Infinity, "w": 1.0}}}',
             "steep": cv.constant(-1e6).to_json()}
    for name, text in specs.items():
        path = tmp_path / f"{name}.json"
        path.write_text(text)
        if name != "steep":
            code, _, err = run(capsys, "plane", "check", "--spec", str(path))
            assert code == 2 and err["error"] == "invalid_input", name
        code, _, err = run(capsys, "turn-angle", "--spec", str(path), "--r", "1",
                           "--kappa", "1.5", "--r-max", "50")
        assert code == 2 and err["error"] == "invalid_input", name
    assert "overflows" in err["message"]
