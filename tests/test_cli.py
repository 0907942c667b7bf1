import csv
import importlib
import io
import json
import math
import os
import pathlib
import random
import re
import subprocess
import sys
import warnings

import pytest

from normcat import cli, io as io_module
from normcat.cli import main
from normcat.extreal import ConventionError
from normcat.io import parse_instance, serialize_instance


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def two_point_file(tmp_path, name, r):
    return write_json(tmp_path / name, {
        "kind": "metric_space",
        "points": ["p", "q"],
        "dist": [[0.0, r], [r, 0.0]],
    })


def sierpinski_bijection_file(tmp_path):
    return write_json(tmp_path / "sier.json", {
        "kind": "map",
        "source": {"kind": "top_space", "points": ["a", "b"],
                   "leq": [[True, False], [False, True]]},
        "target": {"kind": "top_space", "points": ["0", "1"],
                   "leq": [[True, True], [False, True]]},
        "assign": {"a": "0", "b": "1"},
    })


def test_generate_same_seed_is_byte_identical(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for kind, size in (("metric", 4), ("mm", 3), ("poset", 4), ("simplicial", 4)):
        code1, _, _ = run(capsys, "generate", "--kind", kind, "--size", str(size),
                          "--seed", "7", "--out", str(a))
        code2, _, _ = run(capsys, "generate", "--kind", kind, "--size", str(size),
                          "--seed", "7", "--out", str(b))
        assert code1 == 0 and code2 == 0
        assert a.read_bytes() == b.read_bytes()


def test_generate_parse_serialize_round_trip(tmp_path, capsys):
    out = tmp_path / "inst.json"
    for kind in ("metric", "mm", "poset", "simplicial"):
        code, _, _ = run(capsys, "generate", "--kind", kind, "--size", "4",
                         "--seed", "3", "--out", str(out))
        assert code == 0
        text = out.read_text()
        assert serialize_instance(parse_instance(str(out))) == text


def test_generate_mm_masses_form_a_distribution(tmp_path, capsys):
    out = tmp_path / "mm.json"
    code, _, _ = run(capsys, "generate", "--kind", "mm", "--size", "3",
                     "--seed", "1", "--out", str(out))
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["kind"] == "mm_space"
    assert all(m >= 0.0 for m in payload["mass"])
    assert abs(sum(payload["mass"]) - 1.0) <= 1e-12


def test_generate_without_out_prints_instance(capsys):
    code, out, _ = run(capsys, "generate", "--kind", "metric", "--size", "3",
                       "--seed", "5")
    assert code == 0
    assert json.loads(out)["kind"] == "metric_space"


def test_generate_size_out_of_bounds(capsys):
    code, _, err = run(capsys, "generate", "--kind", "metric", "--size", "40")
    assert code == 2
    assert "size" in err


@pytest.mark.parametrize("cases", ["0", "-3"])
def test_check_rejects_fewer_than_one_case(capsys, cases):
    code, out, err = run(capsys, "check", "--suite", "metric", "--cases", cases,
                         "--format", "text")
    assert code == 2
    assert out == ""
    assert err == "error: --cases must be at least 1, got %s\n" % cases


def test_check_runs_a_single_case(capsys):
    code, out, err = run(capsys, "check", "--suite", "metric", "--cases", "1",
                         "--format", "text")
    assert code == 0
    assert err == ""
    lines = out.splitlines()
    assert lines and all(line.startswith("[ok] ") and "  (1 " in line for line in lines)


def test_dist_gh_two_point_files(tmp_path, capsys):
    a = two_point_file(tmp_path, "a.json", 1.0)
    b = two_point_file(tmp_path, "b.json", 2.0)
    code, out, _ = run(capsys, "dist", "--kind", "gh", a, b)
    assert code == 0
    rep = json.loads(out)
    assert rep["results"] == [{"name": "gh_distance", "value": 0.5, "status": "exact",
                               "route": "metric.gh_distance"}]


def test_norm_comp_sierpinski_bijection(tmp_path, capsys):
    f = sierpinski_bijection_file(tmp_path)
    code, out, _ = run(capsys, "norm", "--kind", "comp", "--map", f)
    assert code == 0
    rep = json.loads(out)
    assert rep["results"][0]["value"] == math.log(2.0)


def test_invalid_diagonal_exits_2_and_names_invariant(tmp_path, capsys):
    bad = write_json(tmp_path / "bad.json", {
        "kind": "metric_space",
        "points": ["p", "q"],
        "dist": [[1.0, 1.0], [1.0, 0.0]],
    })
    good = two_point_file(tmp_path, "good.json", 1.0)
    code, _, err = run(capsys, "dist", "--kind", "gh", bad, good)
    assert code == 2
    assert "diagonal" in err


@pytest.mark.parametrize("kind, space", [
    ("set", {"kind": "finite_set", "points": ["a", "a"]}),
    ("dim", {"kind": "simplicial", "vertices": ["a", "a"], "simplices": [["a"]]}),
])
def test_duplicate_points_exit_2(tmp_path, capsys, kind, space):
    target = ({"kind": "finite_set", "points": ["b", "c"]} if kind == "set"
              else {"kind": "simplicial", "vertices": ["b"], "simplices": [["b"]]})
    f = write_json(tmp_path / "f.json", {
        "kind": "map", "source": space, "target": target, "assign": {"a": "b"}})
    code, out, err = run(capsys, "norm", "--kind", kind, "--map", f)
    assert code == 2 and out == ""
    assert err.splitlines() == ["error: duplicate point ids"]


def test_empty_value_set_exits_2(tmp_path, capsys):
    f = write_json(tmp_path / "f.json", {
        "kind": "map",
        "source": {"kind": "metric_space", "points": ["p"], "dist": [[0.0]]},
        "target": {"kind": "metric_space", "points": ["q"], "dist": [[0.0]]},
        "assign": {"p": []},
    })
    code, _, err = run(capsys, "norm", "--kind", "dil", "--map", f)
    assert code == 2
    assert "empty value set" in err


def test_unknown_space_kind_exits_2(tmp_path, capsys):
    f = write_json(tmp_path / "f.json", {"kind": "mystery", "points": []})
    code, _, err = run(capsys, "norm", "--kind", "dil", "--map", f)
    assert code == 2
    assert "mystery" in err


def test_missing_file_exits_2(capsys):
    code, _, err = run(capsys, "norm", "--kind", "dil", "--map", "no_such.json")
    assert code == 2
    assert "no_such.json" in err


def test_wrong_instance_type_for_kind_exits_2(tmp_path, capsys):
    f = sierpinski_bijection_file(tmp_path)
    code, _, err = run(capsys, "norm", "--kind", "dil", "--map", f)
    assert code == 2
    assert "MultiMap" in err


def test_check_metric_suite_passes(capsys):
    code, out, _ = run(capsys, "check", "--suite", "metric", "--cases", "20",
                       "--seed", "7")
    assert code == 0
    rep = json.loads(out)
    assert rep["ok"] is True
    assert rep["suite"] == "metric"
    assert all(row["ok"] for row in rep["results"])


def test_check_all_suites_pass(capsys):
    code, out, _ = run(capsys, "check", "--suite", "all", "--cases", "10",
                       "--seed", "3")
    assert code == 0
    rep = json.loads(out)
    names = [row["name"] for row in rep["results"]]
    assert any(n.startswith("core/") for n in names)
    assert any(n.startswith("wasserstein/") for n in names)


def plus_one(real):
    return lambda *args, **kwargs: real(*args, **kwargs) + 1.0


def shifted_norms(real):
    def build(n):
        cat, norms = real(n)
        return cat, {m: v + 1.0 for m, v in norms.items()}
    return build


def raised_coseminorms(real):
    def build(*args, **kwargs):
        inst, maps = real(*args, **kwargs)
        inst.norms = {m: (norm, cosem + 1.0, hits) for m, (norm, cosem, hits) in inst.norms.items()}
        return inst, maps
    return build


def constant_composite(real):
    from normcat.metric import MultiMap
    return lambda g, f: MultiMap.from_function(
        f.source, g.target, dict.fromkeys(f.source.points, g.target.points[0]))


def heavier_composite(real):
    from normcat.measure import FiniteMMSpace, MMSpaceMap
    return lambda g, f: MMSpaceMap(
        f.source, FiniteMMSpace(g.target.base, {p: m + 1.0 for p, m in g.target.mass.items()}),
        real(g, f).assign)


def reversed_order(real):
    def family(sp, v_values):
        handles, leq, capacity = real(sp, v_values)
        return handles, lambda a, b: leq(b, a), capacity
    return family


# (suite, row, name on normcat.suites, break of the real function,
#  cases, seed, part of the row's counterexample)
ROW_BREAKS = [
    ("core", "cyclic-categories-satisfy-axioms", "group_norm_category", shifted_norms,
     1, 0, "n=2: [("),
    ("core", "cyclic-duals-equal-norm", "dual_seminorm",
     lambda real: lambda cat, norms, side: {m: v + 1.0 for m, v in real(cat, norms, side).items()},
     1, 0, "n=2 left gap 1"),
    ("core", "metric-instances-satisfy-dual-inequalities", "diameter_capacity_instance",
     raised_coseminorms, 1, 0, "dual_left>=coseminorm"),
    ("metric", "dilatation-forms-agree", "dilatation_norm_capacity", plus_one,
     1, 0, "forms differ"),
    ("metric", "dilatation-subadditive", "compose_maps", constant_composite,
     4, 3, "composition"),
    ("metric", "gh-matches-correspondence-oracle", "gh_correspondence_oracle", plus_one,
     1, 0, "vs oracle"),
    ("metric", "dil-plus-below-twice-gh", "dil_distance", plus_one,
     1, 0, "dil-plus exceeds 2gh"),
    ("topo", "component-forms-agree", "component_capacity_form", plus_one,
     1, 0, "forms differ"),
    ("topo", "closed-monotone-implies-zero", "monotone_light_report",
     lambda real: lambda f: dict(real(f), closed=True, monotone=True),
     1, 0, "closed monotone map with norm"),
    ("topo", "monotone-defect-below-norm", "monotone_light_report",
     lambda real: lambda f: dict(real(f), mon_defect=real(f)["mon_defect"] + 1.0),
     1, 3, "above norm"),
    ("measure", "identity-seminorm-equals-distance", "prokhorov_distance", plus_one,
     1, 0, "vs distance"),
    ("measure", "prokhorov-capacity-monotone", "prokhorov_family", reversed_order,
     1, 0, "monotonicity witness"),
    ("measure", "prokhorov-seminorm-subadditive", "compose_maps", heavier_composite,
     1, 1, "composition"),
    ("measure", "initial-norm-below-volume", "volume_norm",
     lambda real: lambda sp: dict(real(sp), norm_of_initial=real(sp)["volume"] + 1.0),
     1, 0, "above volume"),
    ("wasserstein", "capacity-matches-grid-oracle", "wasserstein_capacity_oracle", plus_one,
     1, 0, "vs closed"),
    ("wasserstein", "capacity-monotone-in-testfn-order", "wasserstein_capacity",
     lambda real: lambda proj, vals: -real(proj, vals), 1, 0, "capacity fell"),
    ("wasserstein", "transport-matches-vertex-oracle", "w1_vertex_oracle", plus_one,
     1, 0, "vs vertices"),
    ("wasserstein", "capacity-scaling-invariant", "FiniteMetricSpace",
     lambda real: lambda points, dist: real(points, [[2.0 * v for v in row] for row in dist]),
     1, 0, "capacity moved"),
]


@pytest.mark.parametrize("suite, row, name, breaks, cases, seed, counterexample", ROW_BREAKS,
                         ids=[b[1] for b in ROW_BREAKS])
def test_check_reports_a_broken_row(monkeypatch, capsys, suite, row, name, breaks, cases, seed,
                                    counterexample):
    from normcat import suites
    argv = ["check", "--suite", suite, "--cases", str(cases), "--seed", str(seed)]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    monkeypatch.setattr(suites, name, breaks(getattr(suites, name)))
    code, out, _ = run(capsys, *argv)
    assert code == 1
    rep = json.loads(out)
    assert rep["ok"] is False
    result = next(r for r in rep["results"] if r["name"] == row)
    assert result["ok"] is False
    assert counterexample in result["detail"]
    code, out, _ = run(capsys, *argv, "--format", "text")
    assert code == 1
    assert "[FAIL] %s  (%s)\n" % (row, result["detail"]) in out


def test_the_row_breaks_cover_every_row():
    from normcat.suites import run_suite
    assert ["%s/%s" % b[:2] for b in ROW_BREAKS] == [r["name"] for r in run_suite("all", 0, 1)]


def test_formats_carry_identical_numbers(tmp_path, capsys):
    a = two_point_file(tmp_path, "a.json", 1.0)
    b = two_point_file(tmp_path, "b.json", 2.0)
    _, as_json, _ = run(capsys, "dist", "--kind", "gh", a, b, "--format", "json")
    _, as_csv, _ = run(capsys, "dist", "--kind", "gh", a, b, "--format", "csv")
    _, as_text, _ = run(capsys, "dist", "--kind", "gh", a, b, "--format", "text")
    v_json = json.loads(as_json)["results"][0]["value"]
    rows = list(csv.reader(io.StringIO(as_csv)))
    assert rows[0] == ["name", "value"]
    v_csv = json.loads(rows[1][1])
    name, v_text = as_text.split(" = ")
    assert name == "gh_distance"
    assert v_json == v_csv == json.loads(v_text)


def test_seed_env_default(tmp_path, capsys, monkeypatch):
    out1, out2 = tmp_path / "e1.json", tmp_path / "e2.json"
    monkeypatch.setenv("NORMCAT_SEED", "11")
    code, _, _ = run(capsys, "generate", "--kind", "metric", "--size", "3",
                     "--out", str(out1))
    assert code == 0
    monkeypatch.delenv("NORMCAT_SEED")
    code, _, _ = run(capsys, "generate", "--kind", "metric", "--size", "3",
                     "--seed", "11", "--out", str(out2))
    assert code == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_bad_seed_env_exits_2(capsys, monkeypatch):
    monkeypatch.setenv("NORMCAT_SEED", "not-a-number")
    code, _, err = run(capsys, "generate", "--kind", "metric", "--size", "3")
    assert code == 2
    assert "NORMCAT_SEED" in err


def test_norm_groth_and_word(tmp_path, capsys):
    g = write_json(tmp_path / "g.json", {
        "kind": "group_morphism", "n": 6, "fplus": 2, "fminus": 2, "a": 1, "b": 1})
    code, out, _ = run(capsys, "norm", "--kind", "groth", "--map", g)
    assert code == 0
    assert json.loads(out)["results"][0]["value"] == 4.0

    bad = write_json(tmp_path / "gbad.json", {
        "kind": "group_morphism", "n": 6, "fplus": 2, "fminus": 3, "a": 1, "b": 1})
    code, _, err = run(capsys, "norm", "--kind", "groth", "--map", bad)
    assert code == 2
    assert "morphism" in err

    w = write_json(tmp_path / "w.json", {
        "kind": "word", "points": ["a", "b", "c"],
        "cost": {"a": {"b": 1.0, "c": 2.0}, "b": {"a": 1.0, "c": 0.5},
                 "c": {"a": 2.0, "b": 0.5}},
        "word": ["a", "b", "c"]})
    code, out, _ = run(capsys, "norm", "--kind", "word", "--map", w)
    assert code == 0
    assert json.loads(out)["results"][0]["value"] == 1.5

    rep = write_json(tmp_path / "wr.json", {
        "kind": "word", "points": ["a", "b"],
        "cost": {"a": {"b": 1.0}, "b": {"a": 1.0}},
        "word": ["a", "a"]})
    code, _, err = run(capsys, "norm", "--kind", "word", "--map", rep)
    assert code == 2
    assert "repetition" in err


def test_dist_w1_between_diracs(tmp_path, capsys):
    mu = write_json(tmp_path / "mu.json", {
        "kind": "mm_space", "points": ["p", "q"],
        "dist": [[0.0, 0.3], [0.3, 0.0]], "mass": [1.0, 0.0]})
    nu = write_json(tmp_path / "nu.json", {
        "kind": "mm_space", "points": ["p", "q"],
        "dist": [[0.0, 0.3], [0.3, 0.0]], "mass": [0.0, 1.0]})
    code, out, _ = run(capsys, "dist", "--kind", "w1", mu, nu)
    assert code == 0
    assert json.loads(out)["results"][0]["value"] == 0.3
    code, out, _ = run(capsys, "dist", "--kind", "prokhorov", mu, nu)
    assert code == 0
    assert json.loads(out)["results"][0]["value"] == 0.3


def test_mass_lists_with_an_overflowing_total_exit_2(tmp_path, capsys):
    dist = [[0.0, 1.0], [1.0, 0.0]]
    space = lambda mass: {"kind": "mm_space", "points": ["p", "q"], "dist": dist, "mass": mass}
    mu = write_json(tmp_path / "mu.json", space([1e308, 1e308]))
    nu = write_json(tmp_path / "nu.json", space([1.5e308, 0.5e308]))
    f = write_json(tmp_path / "f.json", {"kind": "map", "source": space([1e308, 1e308]),
                                         "target": space([1.5e308, 0.5e308]),
                                         "assign": {"p": "p", "q": "q"}})
    for argv in (["dist", "--kind", "w1", mu, nu], ["dist", "--kind", "prokhorov", mu, nu],
                 ["norm", "--kind", "prokhorov", "--map", f]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == "error: the total mass is not finite\n"
    # a total just below the largest float is finite, and accepted
    half = write_json(tmp_path / "half.json", space([0.5e308, 1e308]))
    code, out, _ = run(capsys, "dist", "--kind", "w1", half, half)
    assert code == 0 and json.loads(out)["results"][0]["value"] == 0.0


def test_w1_cost_past_the_largest_float_exits_2(tmp_path, capsys):
    # the true cost 2e308 is finite but no float
    space = lambda mass: {"kind": "mm_space", "points": ["p", "q"],
                          "dist": [[0.0, 2.0], [2.0, 0.0]], "mass": mass}
    mu = write_json(tmp_path / "mu.json", space([1e308, 0.0]))
    nu = write_json(tmp_path / "nu.json", space([0.0, 1e308]))
    code, out, err = run(capsys, "dist", "--kind", "w1", mu, nu)
    assert (code, out, err) == (2, "", "error: the W1 cost is too large for a float\n")


def test_word_cost_past_the_largest_float_exits_2(tmp_path, capsys):
    def word(ab, bc):
        return write_json(tmp_path / "w.json", {
            "kind": "word", "points": ["a", "b", "c"],
            "cost": {"a": {"b": ab, "c": 1.0}, "b": {"a": 1.0, "c": bc},
                     "c": {"a": 1.0, "b": 1.0}},
            "word": ["a", "b", "c"]})
    code, out, err = run(capsys, "norm", "--kind", "word", "--map", word(1e308, 1e308))
    assert (code, out, err) == (2, "", "error: the word cost is too large for a float\n")
    # a step of infinite cost is infinite, not an overflow
    code, out, _ = run(capsys, "norm", "--kind", "word", "--map", word("inf", 1e308))
    assert code == 0 and json.loads(out)["results"][0]["value"] == "inf"


def test_groth_norm_past_the_largest_float_exits_2(tmp_path, capsys):
    # each norm is 2**1023 + 1, which rounds to 2**1023; the sum is no float
    g = write_json(tmp_path / "g.json", {
        "kind": "group_morphism", "n": 2 ** 1024 + 2,
        "fplus": 2 ** 1023 + 1, "fminus": 2 ** 1023 + 1, "a": 0, "b": 0})
    code, out, err = run(capsys, "norm", "--kind", "groth", "--map", g)
    assert (code, out) == (2, "")
    assert err == ("error: the norm 8.98846567431158e+307 + 8.98846567431158e+307 "
                   "is too large for a float\n")


@pytest.mark.parametrize("points, mass", [(["p"], [0.0]), ([], [])])
def test_w1_without_mass_prints_a_float(tmp_path, capsys, points, mass):
    space = write_json(tmp_path / "mu.json", {
        "kind": "mm_space", "points": points,
        "dist": [[0.0] * len(points) for _ in points], "mass": mass})
    code, out, _ = run(capsys, "dist", "--kind", "w1", space, space)
    assert code == 0
    assert json.loads(out)["results"] == [{"name": "w1_cost", "value": 0.0, "status": "exact",
                                                 "route": "wasserstein.w1_transport"}]
    assert isinstance(json.loads(out)["results"][0]["value"], float)


def test_norm_wasserstein_reports_direction(tmp_path, capsys):
    f = write_json(tmp_path / "f.json", {
        "kind": "map",
        "source": {"kind": "mm_space", "points": ["p", "q"],
                   "dist": [[0.0, 1.0], [1.0, 0.0]], "mass": [0.5, 0.5]},
        "target": {"kind": "mm_space", "points": ["p", "q"],
                   "dist": [[0.0, 1.0], [1.0, 0.0]], "mass": [0.5, 0.5]},
        "assign": {"p": "p", "q": "q"}})
    code, out, _ = run(capsys, "norm", "--kind", "wasserstein", "--map", f)
    assert code == 0
    rep = json.loads(out)
    assert rep["results"][0]["name"] == "wasserstein_lower_bound"
    assert rep["details"]["direction"] == "displayed"


def test_norm_dim_reports_both_forms(tmp_path, capsys):
    f = write_json(tmp_path / "f.json", {
        "kind": "map",
        "source": {"kind": "simplicial", "vertices": ["u", "v"],
                   "simplices": [["u"], ["v"], ["u", "v"]]},
        "target": {"kind": "simplicial", "vertices": ["z"],
                   "simplices": [["z"]]},
        "assign": {"u": "z", "v": "z"}})
    code, out, _ = run(capsys, "norm", "--kind", "dim", "--map", f)
    assert code == 0
    names = [r["name"] for r in json.loads(out)["results"]]
    assert names == ["fiber_form", "capacity_form"]


def test_integer_point_labels_map_from_json(tmp_path, capsys):
    f = write_json(tmp_path / "f.json", {
        "kind": "map",
        "source": {"kind": "finite_set", "points": [0, 1]},
        "target": {"kind": "finite_set", "points": [0, 1]},
        "assign": {"0": 0, "1": 1},
    })
    code, out, _ = run(capsys, "norm", "--kind", "set", "--map", f)
    assert code == 0
    assert json.loads(out)["results"][0]["value"] == 0.0


def test_integer_point_labels_in_word_cost_rows(tmp_path, capsys):
    w = write_json(tmp_path / "w.json", {
        "kind": "word", "points": [0, 1, 2],
        "cost": {"0": {"1": 1.0, "2": 2.0}, "1": {"0": 1.0, "2": 0.5},
                 "2": {"0": "inf", "1": 0.5}},
        "word": [0, 1, 2]})
    code, out, _ = run(capsys, "norm", "--kind", "word", "--map", w)
    assert code == 0
    assert json.loads(out)["results"][0]["value"] == 1.5


def test_integer_point_labels_in_cost_system_rows(tmp_path):
    cs = parse_instance(write_json(tmp_path / "w.json", {
        "kind": "word", "points": [0, 1],
        "cost": {"0": {"1": 1.0}, "1": {"0": "inf"}},
        "word": [0, 1],
    }))["cost_system"]
    assert cs.cost == {(0, 1): 1.0, (1, 0): math.inf}


def test_testfn_on_a_finite_set_exits_2(tmp_path, capsys):
    # no command reads a bare test function or cost table
    testfn = write_json(tmp_path / "t.json", {
        "kind": "testfn", "space": {"kind": "finite_set", "points": [0, 1]},
        "values": {"0": 0.0, "1": 1.0}})
    costs = write_json(tmp_path / "c.json", {
        "kind": "cost_system", "points": [0, 1], "cost": {"0": {"1": 1.0}, "1": {"0": 1.0}}})
    for kind, path in (("testfn", testfn), ("cost_system", costs)):
        for norm in ("wasserstein", "word"):
            code, out, err = run(capsys, "norm", "--kind", norm, "--map", path)
            assert (code, out, err) == (2, "", "error: unknown space kind %r\n" % kind)


def test_points_with_one_string_form_exit_2(tmp_path, capsys):
    f = write_json(tmp_path / "f.json", {
        "kind": "map",
        "source": {"kind": "finite_set", "points": [1, "1"]},
        "target": {"kind": "finite_set", "points": [0]},
        "assign": {"1": 0},
    })
    code, _, err = run(capsys, "norm", "--kind", "set", "--map", f)
    assert code == 2
    assert "same string form" in err


@pytest.mark.parametrize("name, exc", [
    ("operator_seminorm", ConventionError("inf + (-inf) is undefined")),
    ("w1_transport", RuntimeError("optimality certificate failed")),
    ("dilatation_norm", OverflowError("value too large")),
    ("dilatation_left_dual", ConventionError("inf - inf is undefined")),
    ("codiameter_seminorm", ValueError("too many target points")),
    ("dil_distance", RuntimeError("node budget exhausted")),
    ("gh_distance", OverflowError("value too large")),
    ("component_seminorm", ValueError("too many target points")),
    ("dimension_seminorm", RuntimeError("broken invariant")),
    ("prokhorov_seminorm", ConventionError("inf - inf is undefined")),
    ("prokhorov_distance", RuntimeError("broken invariant")),
])
def test_computation_failures_exit_2_without_traceback(tmp_path, capsys, monkeypatch,
                                                        name, exc):
    # a name patched on normcat.cli reaches its call, loaded or not
    def fail(*args, **kwargs):
        raise exc

    monkeypatch.setattr(cli, name, fail)
    op = write_json(tmp_path / "op.json", {"kind": "linear_map", "entries": [[1.0]]})
    mu = write_json(tmp_path / "mu.json", {
        "kind": "mm_space", "points": ["p"], "dist": [[0.0]], "mass": [1.0]})
    ab = write_json(tmp_path / "ab.json", METRIC_AB)
    maps = {kind: write_json(tmp_path / ("%s.json" % kind), {
        "kind": "map", "source": space, "target": space, "assign": {"a": "a", "b": "b"}})
        for kind, space in MAP_ENDPOINTS.items()}
    argv = {"operator_seminorm": ("norm", "--kind", "op", "--map", op),
            "w1_transport": ("dist", "--kind", "w1", mu, mu),
            "dilatation_norm": ("norm", "--kind", "dil", "--map", maps["dil"]),
            "dilatation_left_dual": ("norm", "--kind", "dil-dual", "--map", maps["dil"]),
            "codiameter_seminorm": ("norm", "--kind", "codiam", "--map", maps["dil"]),
            "dil_distance": ("dist", "--kind", "dil", ab, ab),
            "gh_distance": ("dist", "--kind", "gh", ab, ab),
            "component_seminorm": ("norm", "--kind", "comp", "--map", maps["comp"]),
            "dimension_seminorm": ("norm", "--kind", "dim", "--map", maps["dim"]),
            "prokhorov_seminorm": ("norm", "--kind", "prokhorov", "--map", maps["prokhorov"]),
            "prokhorov_distance": ("dist", "--kind", "prokhorov", mu, mu)}[name]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == "error: %s\n" % (exc,)


def test_unknown_cli_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        cli.no_such_name
    assert not hasattr(cli, "no_such_name")


def test_every_lazy_cli_name_is_its_module_attribute():
    for name, module in cli._LAZY.items():
        assert getattr(cli, name) is getattr(importlib.import_module("normcat." + module), name)


def line_file(tmp_path, name, values):
    return write_json(tmp_path / name, {
        "kind": "metric_space",
        "points": ["%s%d" % (name[0], i) for i in range(len(values))],
        "dist": [[abs(a - b) for b in values] for a in values],
    })


def test_dist_dil_is_exact_beyond_3125_maps(tmp_path, capsys):
    # 6 ** 5 maps; x -> 1.3 x never shrinks a distance
    a = line_file(tmp_path, "a.json", [0.0, 1.0, 2.0, 3.0, 4.0])
    b = line_file(tmp_path, "b.json", [1.3 * i for i in range(6)])
    code, out, _ = run(capsys, "dist", "--kind", "dil", a, b, "--format", "text")
    assert code == 0
    assert out == "dil_distance = 0.0\n"


def test_dist_dil_on_generated_ten_point_spaces(tmp_path, capsys):
    paths = []
    for seed in (1, 2):
        paths.append(str(tmp_path / ("m%d.json" % seed)))
        assert main(["generate", "--kind", "metric", "--size", "10",
                     "--seed", str(seed), "--out", paths[-1]]) == 0
    capsys.readouterr()
    code, out, _ = run(capsys, "dist", "--kind", "dil", *paths)
    assert code == 0
    assert json.loads(out)["results"] == [{"name": "dil_distance", "value": 0.296651436738971,
                                                 "status": "exact", "route": "metric.dil_distance"}]


TOP_1 = {"kind": "top_space", "points": ["a"], "leq": [[True]]}
SIMPLICIAL_1 = {"kind": "simplicial", "vertices": ["a"], "simplices": [["a"]]}
MM_1 = {"kind": "mm_space", "points": ["a"], "dist": [[0.0]], "mass": [1.0]}


@pytest.mark.parametrize("command, inst", [
    ("comp", {"kind": "map", "source": TOP_1, "target": dict(TOP_1, leq=[5]),
              "assign": {"a": "a"}}),
    ("dim", {"kind": "map", "source": SIMPLICIAL_1,
             "target": dict(SIMPLICIAL_1, simplices=[5]), "assign": {"a": "a"}}),
    ("w1", dict(MM_1, mass=5)),
    # a single-valued map takes one point per source point
    ("prokhorov", {"kind": "map", "source": MM_1, "target": MM_1, "assign": {"a": []}}),
    ("prokhorov", {"kind": "map", "source": MM_1, "target": MM_1, "assign": {"a": ["a", "a"]}}),
])
def test_wrong_json_shapes_exit_2(tmp_path, capsys, command, inst):
    f = write_json(tmp_path / "f.json", inst)
    argv = ("dist", "--kind", "w1", f, f) if command == "w1" else ("norm", "--kind", command, "--map", f)
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


GROUP = {"kind": "group_morphism", "n": 6, "fplus": 2, "fminus": 2, "a": 1, "b": 1}
WORD = {"kind": "word", "points": ["a", "b"],
        "cost": {"a": {"b": 1.0}, "b": {"a": 1.0}}, "word": ["a", "b"]}


@pytest.mark.parametrize("kind, inst, message", [
    ("groth", dict(GROUP, n=[1]), "group_morphism 'n' must be an integer, got [1]"),
    ("groth", dict(GROUP, a=True), "group_morphism 'a' must be an integer, got True"),
    ("groth", dict(GROUP, n=0), "group_morphism needs n >= 1"),
    ("word", dict(WORD, word=5), "word 'word' must be a list of points"),
    ("word", dict(WORD, word=["a", "c"]), "word 'word' names 'c', which is not a point"),
    # a string where a list belongs used to be read as its characters
    ("word", dict(WORD, points="ab"), "word 'points' must be a list of points"),
    ("word", dict(WORD, word="ab"), "word 'word' must be a list of points"),
    ("op", {"kind": "linear_map", "entries": "12"}, "linear_map 'entries' must be a list of lists"),
    ("op", {"kind": "linear_map", "entries": ["12", "34"]},
     "linear_map 'entries' must be a list of lists"),
])
def test_malformed_group_and_word_fields_exit_2(tmp_path, capsys, kind, inst, message):
    f = write_json(tmp_path / "f.json", inst)
    code, out, err = run(capsys, "norm", "--kind", kind, "--map", f)
    assert code == 2
    assert out == ""
    assert err.splitlines() == ["error: " + message]


METRIC_AB = {"kind": "metric_space", "points": ["a", "b"], "dist": [[0.0, 1.0], [1.0, 0.0]]}
MAP_ENDPOINTS = {
    "dil": METRIC_AB,
    "prokhorov": dict(METRIC_AB, kind="mm_space", mass=[0.5, 0.5]),
    "comp": {"kind": "top_space", "points": ["a", "b"], "leq": [[True, True], [False, True]]},
    "dim": {"kind": "simplicial", "vertices": ["a", "b"], "simplices": [["a"], ["b"]]},
    "set": {"kind": "finite_set", "points": ["a", "b"]},
}


@pytest.mark.parametrize("kind", sorted(MAP_ENDPOINTS))
@pytest.mark.parametrize("assign, message", [
    ({"a": "a"}, "assignment keys must be exactly the source points"),
    ({"a": "a", "b": "z"}, "value 'z' at 'b' is not a target point"),
])
def test_every_map_kind_shares_one_validation(tmp_path, capsys, kind, assign, message):
    space = MAP_ENDPOINTS[kind]
    f = write_json(tmp_path / "f.json", {"kind": "map", "source": space,
                                          "target": space, "assign": assign})
    code, out, err = run(capsys, "norm", "--kind", kind, "--map", f)
    assert code == 2
    assert out == ""
    assert err.splitlines() == ["error: " + message]


# a JSON string or null where the schema wants a list: a string used to
# be read as its characters, so "ab" built the points a and b
@pytest.mark.parametrize("kind, fields, message", [
    ("dil", {"points": "ab"}, "metric_space 'points' must be a list of points"),
    ("dil", {"dist": "0110"}, "metric_space 'dist' must be a list of lists"),
    ("dil", {"dist": ["01", "10"]}, "metric_space 'dist' must be a list of lists"),
    ("prokhorov", {"points": "ab"}, "mm_space 'points' must be a list of points"),
    ("prokhorov", {"dist": ["01", "10"]}, "mm_space 'dist' must be a list of lists"),
    ("prokhorov", {"mass": "11"}, "mm_space 'mass' must be a list of masses"),
    ("comp", {"points": "ab"}, "top_space 'points' must be a list of points"),
    ("comp", {"leq": "1101"}, "top_space 'leq' must be a list of lists"),
    ("comp", {"leq": ["11", "01"]}, "top_space 'leq' must be a list of lists"),
    ("dim", {"vertices": "ab"}, "simplicial 'vertices' must be a list of vertices"),
    ("dim", {"simplices": "ab"}, "simplicial 'simplices' must be a list of lists"),
    ("dim", {"simplices": None}, "simplicial 'simplices' must be a list of lists"),
    ("dim", {"simplices": [["a"], ["b"], "ab"]}, "simplicial 'simplices' must be a list of lists"),
    ("set", {"points": "ab"}, "finite_set 'points' must be a list of points"),
])
def test_a_string_for_a_list_exits_2(tmp_path, capsys, kind, fields, message):
    space = dict(MAP_ENDPOINTS[kind], **fields)
    f = write_json(tmp_path / "f.json", {"kind": "map", "source": space,
                                          "target": MAP_ENDPOINTS[kind],
                                          "assign": {"a": "a", "b": "b"}})
    code, out, err = run(capsys, "norm", "--kind", kind, "--map", f)
    assert code == 2
    assert out == ""
    assert err.splitlines() == ["error: " + message]


@pytest.mark.parametrize("kind, size", [
    ("metric", 3), ("mm", 3), ("poset", 3), ("simplicial", 3), (None, 3)])
def test_map_parse_serialize_round_trip(tmp_path, capsys, kind, size):
    if kind is None:
        space = {"kind": "finite_set", "points": ["s0", "s1", "s2"]}
    else:
        assert main(["generate", "--kind", kind, "--size", str(size), "--seed", "4"]) == 0
        space = json.loads(capsys.readouterr().out)
    pts = space.get("points", space.get("vertices"))
    # a constant map is valid in every category; the metric one is multi-valued
    value = pts[:2] if kind == "metric" else pts[0]
    payload = {"kind": "map", "source": space, "target": space,
               "assign": {p: value for p in pts}}
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    path = tmp_path / "f.json"
    path.write_text(text)
    assert serialize_instance(parse_instance(str(path))) == text


def test_main_parses_with_the_parser_built_at_import(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "build_parser", None)
    a = line_file(tmp_path, "a.json", [0.0, 1.0])
    code, out, _ = run(capsys, "dist", "--kind", "gh", a, a, "--format", "text")
    assert (code, out) == (0, "gh_distance = 0.0\n")


def test_calls_in_one_process_print_what_fresh_processes_print(tmp_path, capsys, monkeypatch):
    # argparse wraps usage lines at the terminal width
    monkeypatch.setenv("COLUMNS", "80")
    src = {"kind": "metric_space", "points": ["x0", "x1", "x2"],
           "dist": [[0.0, 1.0, 3.0], [1.0, 0.0, 2.0], [3.0, 2.0, 0.0]]}
    tgt = {"kind": "metric_space", "points": ["y0", "y1"], "dist": [[0.0, 1.5], [1.5, 0.0]]}
    m = write_json(tmp_path / "m.json", {"kind": "map", "source": src, "target": tgt,
                                         "assign": {"x0": "y0", "x1": "y1", "x2": "y1"}})
    a, b = line_file(tmp_path, "a.json", [0.0, 1.0, 3.0]), line_file(tmp_path, "b.json", [0.0, 2.0])
    calls = [["norm", "--kind", "dil", "--map", m],
             ["dist", "--kind", "dil-plus", a, b],
             ["check", "--suite", "metric", "--cases", "2", "--seed", "4", "--format", "csv"],
             ["norm", "--kind", "no-such-kind", "--map", m],
             ["norm", "--kind", "dil", "--map", m]]
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    untimed = lambda text: re.sub(r'"timing_s": [0-9.e-]+', '"timing_s": 0', text)
    fresh, codes = {}, []
    for argv in calls:
        if tuple(argv) not in fresh:
            fresh[tuple(argv)] = subprocess.run([sys.executable, "-m", "normcat"] + argv,
                                                env=env, capture_output=True, text=True)
        want = fresh[tuple(argv)]
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out = capsys.readouterr()
        assert (code, untimed(out.out), out.err) == \
            (want.returncode, untimed(want.stdout), want.stderr), argv
        codes.append(code)
    assert codes == [0, 0, 0, 2, 0]


def test_space_outside_kind_top_exits_2_before_parsing(tmp_path, capsys):
    op = write_json(tmp_path / "op.json", {"kind": "linear_map", "entries": [[1.0]]})
    missing = str(tmp_path / "missing.json")
    for space in (op, missing):
        for path in (op, missing):
            code, out, err = run(capsys, "norm", "--kind", "op", "--map", path, "--space", space)
            assert (code, out) == (2, "")
            assert err == ("error: norm --kind op takes no --space; only --kind top reads "
                           "a second instance\n")


@pytest.mark.parametrize("part, cls", [("comp", "ContinuousPosetMap"), ("dim", "SimplicialMap")])
def test_top_with_two_parts_of_one_type_exits_2(tmp_path, capsys, part, cls):
    # two order maps, or two simplicial maps, are not one map's two parts:
    # in either order, neither is dropped for the other
    space = MAP_ENDPOINTS[part]
    first = write_json(tmp_path / "first.json", identity_map(space))
    second = write_json(tmp_path / "second.json", dict(identity_map(space),
                                                       assign={"a": "a", "b": "a"}))
    if part == "comp":
        second = sierpinski_bijection_file(tmp_path)
    for m, s in ((first, second), (second, first)):
        code, out, err = run(capsys, "norm", "--kind", "top", "--map", m, "--space", s)
        assert (code, out) == (2, "")
        assert err == "error: norm --kind top takes at most one %s, got two\n" % cls


def test_suite_choices_are_the_suites_run_suite_runs():
    from normcat.suites import run_suite
    check = cli.PARSER._subparsers._group_actions[0].choices["check"]
    choices = next(a.choices for a in check._actions if a.dest == "suite")
    rows = run_suite("all", 0, 1)
    ran = list(dict.fromkeys(r["name"].split("/")[0] for r in rows))
    assert list(choices) == ran + ["all"]
    for name in ran:
        assert [r for r in rows if r["name"].startswith(name + "/")] == \
            [dict(r, name="%s/%s" % (name, r["name"])) for r in run_suite(name, 0, 1)]


LOADS = "cli extreal io"
METRIC_LOADS = LOADS + " capacity category metric search"


@pytest.mark.parametrize("argv, loaded", [
    (["norm", "--kind", "op", "--map", "op.json"], LOADS + " linear"),
    (["norm", "--kind", "dil", "--map", "dil.json"], METRIC_LOADS),
    (["dist", "--kind", "w1", "mu.json", "mu.json"], METRIC_LOADS + " measure wasserstein"),
    (["generate", "--kind", "metric", "--size", "3"], METRIC_LOADS + " generate"),
    (["generate", "--kind", "poset", "--size", "3"],
     LOADS + " capacity category generate search topo"),
    (["check", "--suite", "core", "--cases", "1", "--seed", "0"],
     METRIC_LOADS + " discrete generate measure suites topo wasserstein"),
], ids=["op", "dil", "w1", "generate-metric", "generate-poset", "check"])
def test_each_command_loads_only_the_modules_it_runs(tmp_path, argv, loaded):
    write_json(tmp_path / "op.json", {"kind": "linear_map", "entries": [[1.0]]})
    write_json(tmp_path / "mu.json", MAP_ENDPOINTS["prokhorov"])
    write_json(tmp_path / "dil.json", {"kind": "map", "source": METRIC_AB, "target": METRIC_AB,
                                       "assign": {"a": "a", "b": "b"}})
    code = ("import json, sys\nimport normcat.cli\nnormcat.cli.main(%r)\n"
            "print(json.dumps(sorted(k for k in sys.modules if k.startswith('normcat.'))))"
            % (argv,))
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=tmp_path,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == \
        sorted("normcat." + m for m in loaded.split())


def identity_map(space):
    points = space.get("points", space.get("vertices"))
    many = space["kind"] == "metric_space"
    return {"kind": "map", "source": space, "target": space,
            "assign": {str(p): [p] if many else p for p in points}}


GROUP_MORPHISM = {"kind": "group_morphism", "n": 6, "fplus": 2, "fminus": 2, "a": 1, "b": 1}
WORD = {"kind": "word", "points": ["a", "b"], "cost": {"a": {"b": 1.0}, "b": {"a": "inf"}},
        "word": ["a", "b"]}

# every kind's instances and its rows as (name, status, route)
ROWS = {
    ("norm", "set"): ([identity_map(MAP_ENDPOINTS["set"])],
                      [("set_norm", "exact", "discrete.set_norm")]),
    ("norm", "dil"): ([identity_map(METRIC_AB)],
                      [("dilatation_norm", "exact", "metric.dilatation_norm")]),
    ("norm", "dil-dual"): ([identity_map(METRIC_AB)],
                           [("dilatation_left_dual", "exact", "metric.dilatation_left_dual")]),
    ("norm", "codiam"): ([identity_map(METRIC_AB)],
                         [("codiameter_seminorm", "exact", "metric.codiameter_seminorm")]),
    ("norm", "comp"): ([identity_map(MAP_ENDPOINTS["comp"])],
                       [("component_seminorm", "exact", "topo.component_seminorm")]),
    ("norm", "dim"): ([identity_map(MAP_ENDPOINTS["dim"])],
                      [("fiber_form", "exact", "topo.dimension_seminorm"),
                       ("capacity_form", "exact", "topo.dimension_seminorm")]),
    ("norm", "top"): ([identity_map(MAP_ENDPOINTS["comp"]), identity_map(MAP_ENDPOINTS["dim"])],
                      [("topological_norm", "exact", "topo.topological_norm")]),
    ("norm", "prokhorov"): ([identity_map(MAP_ENDPOINTS["prokhorov"])],
                            [("prokhorov_seminorm", "exact", "measure.prokhorov_seminorm")]),
    ("norm", "wasserstein"): ([identity_map(MAP_ENDPOINTS["prokhorov"])],
                              [("wasserstein_lower_bound", "lower_bound",
                                "wasserstein.wasserstein_seminorm")]),
    ("norm", "op"): ([{"kind": "linear_map", "entries": [[2.0, 0.0], [0.0, 0.5]]}],
                     [("operator_seminorm", "exact", "linear.operator_seminorm")]),
    ("norm", "groth"): ([GROUP_MORPHISM],
                        [("grothendieck_norm", "exact", "discrete.grothendieck_norm")]),
    ("norm", "word"): ([WORD], [("word_cost", "exact", "discrete.word_cost")]),
    ("dist", "gh"): ([METRIC_AB] * 2, [("gh_distance", "exact", "metric.gh_distance")]),
    ("dist", "dil"): ([METRIC_AB] * 2, [("dil_distance", "exact", "metric.dil_distance")]),
    ("dist", "dil-plus"): ([METRIC_AB] * 2,
                           [("dil_plus_distance", "exact", "metric.dil_distance")]),
    ("dist", "prokhorov"): ([MAP_ENDPOINTS["prokhorov"]] * 2,
                            [("prokhorov_distance", "exact", "measure.prokhorov_distance")]),
    ("dist", "w1"): ([MAP_ENDPOINTS["prokhorov"]] * 2,
                     [("w1_cost", "exact", "wasserstein.w1_transport")]),
}


def test_every_norm_and_dist_kind_has_its_rows_pinned():
    assert set(ROWS) == {(c, k) for c in ("norm", "dist") for k in cli.KINDS[c]}


@pytest.mark.parametrize("command, kind", sorted(ROWS))
def test_each_result_row_names_its_status_and_route(tmp_path, capsys, command, kind):
    insts, rows = ROWS[command, kind]
    paths = [write_json(tmp_path / ("%d.json" % i), inst) for i, inst in enumerate(insts)]
    files = (["--map", paths[0]] + ["--space"] * (len(paths) > 1) + paths[1:]
             if command == "norm" else paths)
    code, out, err = run(capsys, command, "--kind", kind, *files)
    assert (code, err) == (0, "")
    results = json.loads(out)["results"]
    assert [(r["name"], r["status"], r["route"]) for r in results] == rows
    # text and csv keep their name and value columns
    values = [(r["name"], r["value"] if r["value"] == "inf" else json.dumps(r["value"]))
              for r in results]
    assert run(capsys, command, "--kind", kind, *files, "--format", "text")[1] == \
        "".join("%s = %s\n" % nv for nv in values)
    assert run(capsys, command, "--kind", kind, *files, "--format", "csv")[1] == \
        "name,value\n" + "".join("%s,%s\n" % nv for nv in values)


def scaled_matrix(seed, n, scale):
    rng = random.Random(seed)
    return [[rng.uniform(-1.0, 1.0) * scale for _ in range(n)] for _ in range(n)]


@pytest.mark.parametrize("entries", [
    [[1e308, 1e308], [1e308, -1e308]],
    scaled_matrix(3, 6, 2.0 ** 1021),
], ids=["1e308", "seeded-times-2**1021"])
def test_op_near_the_largest_float_keeps_its_singular_values(tmp_path, capsys, entries):
    # sigma_max * max(m, n) overflows here; the rank cut-off must not
    from normcat.linear import singular_values
    path = write_json(tmp_path / "op.json", {"kind": "linear_map", "entries": entries})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert min(singular_values(entries)) > 1e300
        assert run(capsys, "norm", "--kind", "op", "--map", path, "--format", "text") == \
            (0, "operator_seminorm = 0.0\n", "")


DOCS = pathlib.Path(__file__).resolve().parent.parent / "docs" / "formats.md"


def documented_instances():
    """The instance examples of docs/formats.md, plus the identity map of
    each space example, keyed by kind (the map by its endpoint kind)."""
    found = {}
    for block in re.findall(r"```json\n(.*?)```", DOCS.read_text(encoding="utf-8"), re.S):
        try:
            inst = json.loads(block)
        except ValueError:
            continue   # the map template, whose endpoints are elided
        found[inst["kind"]] = inst
    for kind in ("metric_space", "mm_space", "top_space", "simplicial", "finite_set"):
        found["map of " + kind] = identity_map(found[kind])
    return found


DOCUMENTED = documented_instances()


def test_the_documented_instances_cover_every_kind():
    assert set(DOCUMENTED) == {
        "metric_space", "mm_space", "top_space", "simplicial", "finite_set",
        "linear_map", "group_morphism", "word"} | {"map of " + k for k in io_module.MAP_CLASSES}


@pytest.mark.parametrize("name", sorted(DOCUMENTED))
def test_parse_serialize_parse_keeps_every_documented_instance(tmp_path, name):
    first = write_json(tmp_path / "a.json", DOCUMENTED[name])
    text = serialize_instance(parse_instance(first))
    assert json.loads(text) == DOCUMENTED[name]
    again = tmp_path / "b.json"
    again.write_text(text)
    assert serialize_instance(parse_instance(str(again))) == text


def test_the_docs_list_exactly_the_registry_kinds():
    synopsis = dict(re.findall(r"normcat (\w+) --kind \{([^}]*)\}",
                               DOCS.read_text(encoding="utf-8")))
    assert {c: k.split("|") for c, k in synopsis.items()} == \
        {c: list(cli.KINDS[c]) for c in ("norm", "dist", "generate")}


def test_the_docs_list_exactly_the_check_rows():
    from normcat.suites import run_suite
    table = re.findall(r"^\| (\w+) \| (\w+-[\w-]+) \|", DOCS.read_text(encoding="utf-8"), re.M)
    assert ["%s/%s" % row for row in table] == [r["name"] for r in run_suite("all", 0, 1)]
