"""Arbitrary JSON in one field of a valid instance: the CLI answers with
exit 0, 1 or 2 and never raises; a scalar of the wrong JSON type exits 2."""

import json

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from normcat.cli import main

POINTS = ["a", "b", "c"]
DIST = [[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]]
METRIC = {"kind": "metric_space", "points": POINTS, "dist": DIST}
MM = {"kind": "mm_space", "points": POINTS, "dist": DIST, "mass": [0.25, 0.25, 0.5]}
TOP = {"kind": "top_space", "points": POINTS,
       "leq": [[True, True, True], [False, True, True], [False, False, True]]}
SIMPLICIAL = {"kind": "simplicial", "vertices": POINTS,
              "simplices": [["a"], ["b"], ["c"], ["a", "b"]]}
FINITE_SET = {"kind": "finite_set", "points": POINTS}
WORD = {"kind": "word", "points": POINTS,
        "cost": {"a": {"b": 1.0, "c": 2.0}, "b": {"a": 1.0, "c": 0.5},
                 "c": {"a": 2.0, "b": "inf"}},
        "word": ["a", "b", "c"]}
GROUP_MORPHISM = {"kind": "group_morphism", "n": 6, "fplus": 2, "fminus": 2, "a": 1, "b": 1}
LINEAR_MAP = {"kind": "linear_map", "entries": [[3.0, 0.0], [0.0, 0.5]]}


def identity_map(space):
    return {"kind": "map", "source": space, "target": space,
            "assign": {p: p for p in POINTS}}


# (argv before the instance files, the instance, how many files take it)
CASES = [
    (["dist", "--kind", "gh"], METRIC, 2),
    (["dist", "--kind", "dil-plus"], METRIC, 2),
    (["dist", "--kind", "w1"], MM, 2),
    (["dist", "--kind", "prokhorov"], MM, 2),
    (["norm", "--kind", "dil", "--map"], identity_map(METRIC), 1),
    (["norm", "--kind", "codiam", "--map"], identity_map(METRIC), 1),
    (["norm", "--kind", "wasserstein", "--map"], identity_map(MM), 1),
    (["norm", "--kind", "prokhorov", "--map"], identity_map(MM), 1),
    (["norm", "--kind", "comp", "--map"], identity_map(TOP), 1),
    (["norm", "--kind", "dim", "--map"], identity_map(SIMPLICIAL), 1),
    (["norm", "--kind", "top", "--map"], identity_map(SIMPLICIAL), 1),
    (["norm", "--kind", "set", "--map"], identity_map(FINITE_SET), 1),
    (["norm", "--kind", "word", "--map"], WORD, 1),
    (["norm", "--kind", "groth", "--map"], GROUP_MORPHISM, 1),
    (["dist", "--kind", "dil"], METRIC, 2),
    (["norm", "--kind", "op", "--map"], LINEAR_MAP, 1),
]

# labels that match the valid points, so replacements often get past the
# first checks
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 3) | st.floats()
    | st.sampled_from(POINTS + ["inf", "-inf"]) | st.text(max_size=2),
    lambda kids: st.lists(kids, max_size=4)
    | st.dictionaries(st.sampled_from(POINTS) | st.text(max_size=2), kids, max_size=4),
    max_leaves=12)


@st.composite
def mutated_cases(draw):
    argv, inst, copies = draw(st.sampled_from(CASES))
    inst = json.loads(json.dumps(inst))
    obj = inst
    if inst["kind"] == "map" and draw(st.booleans()):
        obj = inst[draw(st.sampled_from(["source", "target"]))]
    obj[draw(st.sampled_from(sorted(obj)))] = draw(json_values)
    return argv, inst, copies


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("mutated")


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(case=mutated_cases())
def test_one_bad_field_never_raises(workdir, case):
    argv, inst, copies = case
    path = workdir / "inst.json"
    path.write_text(json.dumps(inst))
    assert main(argv + [str(path)] * copies) in (0, 1, 2)


def scalar_paths(obj, path=()):
    """The key path to every number and boolean inside a JSON value."""
    if isinstance(obj, dict):
        for k, v in obj.items():
            yield from scalar_paths(v, path + (k,))
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            yield from scalar_paths(v, path + (i,))
    elif isinstance(obj, (int, float)):
        yield path


@st.composite
def mistyped_cases(draw):
    argv, inst, copies = draw(st.sampled_from([c for c in CASES if any(scalar_paths(c[1]))]))
    inst = json.loads(json.dumps(inst))
    *path, last = draw(st.sampled_from(list(scalar_paths(inst))))
    obj = inst
    for k in path:
        obj = obj[k]
    wrong = (st.text(max_size=3).filter(lambda t: t not in ("inf", "-inf")) | st.none()
             | st.lists(st.integers(0, 1), max_size=2))
    obj[last] = draw(wrong | (st.integers(0, 1) if isinstance(obj[last], bool) else st.booleans()))
    return argv, inst, copies


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(case=mistyped_cases())
def test_one_mistyped_scalar_exits_2(workdir, case):
    argv, inst, copies = case
    path = workdir / "inst.json"
    path.write_text(json.dumps(inst))
    assert main(argv + [str(path)] * copies) == 2
