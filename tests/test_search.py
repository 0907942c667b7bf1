"""The shared subset walk, assignment search and least-max branch and
bound, the searches built on them, and the size and node caps as the
CLI reports them."""

import ast
import dataclasses
import importlib
import inspect
import itertools
import json
import pathlib
import pkgutil
import random
import re

import pytest

import normcat
from normcat import search
from normcat.cli import main
from normcat.discrete import find_injective_simplicial_map, find_simplicial_isomorphism
from normcat.generate import random_simplicial
from normcat.measure import FiniteMMSpace, measure_isometry_search
from normcat.metric import (
    FiniteMetricSpace, find_expansive_map, isometry_search, zero_dilatation_endos,
)
from normcat.search import assignments, least_max, subsets

TOL = 1e-9


# -- subsets ---------------------------------------------------------------

def test_subsets_follow_bitmask_order():
    assert list(subsets("abc")) == [
        ["a"], ["b"], ["a", "b"], ["c"], ["a", "c"], ["b", "c"], ["a", "b", "c"]]
    assert list(subsets("ab", nonempty=False)) == [[], ["a"], ["b"], ["a", "b"]]
    assert list(subsets(())) == []
    assert list(subsets((), nonempty=False)) == [[]]


@pytest.mark.parametrize("n", range(7))
def test_subsets_count(n):
    assert sum(1 for _ in subsets(range(n))) == 2 ** n - 1
    assert sum(1 for _ in subsets(range(n), nonempty=False)) == 2 ** n


def test_subsets_cap():
    assert sum(1 for _ in subsets(range(16))) == 2 ** 16 - 1
    with pytest.raises(ValueError, match="limited to 16"):
        subsets(range(17))
    assert sum(1 for _ in subsets(range(10), nonempty=False, limit=10)) == 2 ** 10
    with pytest.raises(ValueError, match="limited to 10"):
        subsets(range(11), nonempty=False, limit=10)


# -- assignments -------------------------------------------------------------

def test_assignments_are_lexicographic():
    every = lambda i, v, a: True
    assert list(assignments(3, 2, every)) == [list(t) for t in itertools.product(range(2), repeat=3)]
    assert (list(assignments(3, 4, every, injective=True))
            == [list(t) for t in itertools.permutations(range(4), 3)])
    assert list(assignments(0, 3, every)) == [[]]
    assert list(assignments(2, 0, every)) == []
    assert list(assignments(3, 2, every, injective=True)) == []


def test_assignments_prune_failed_prefixes():
    seen = []

    def fits(i, v, a):
        assert len(a) == i
        seen.append(tuple(a) + (v,))
        return not (i == 1 and v == 0)

    out = list(assignments(3, 2, fits))
    assert out == [[0, 1, 0], [0, 1, 1], [1, 1, 0], [1, 1, 1]]
    # no prefix ending in a rejected entry is ever extended
    assert not any(len(p) == 3 and p[1] == 0 for p in seen)
    assert len(seen) == 2 + 4 + 4


# -- least_max -----------------------------------------------------------------

def test_least_max_returns_the_first_optimum():
    rng = random.Random(4107)
    for _ in range(60):
        sizes = [rng.randint(1, 3) for _ in range(rng.randint(0, 5))]
        # few distinct term values, so ties between lists are common
        term = {(i, v, j, w): rng.choice((-1.0, 0.0, 1.0, 2.0))
                for i in range(len(sizes)) for v in range(sizes[i])
                for j in range(i) for w in range(sizes[j])}

        def cost(a):
            return max([0.0] + [term[i, a[i], j, a[j]] for i in range(len(a)) for j in range(i)])

        def grow(i, v, a, cur, bound):
            for j in range(i):
                cur = max(cur, term[i, v, j, a[j]])
            return cur

        every = [list(a) for a in itertools.product(*map(range, sizes))]
        low = min(map(cost, every))
        assert least_max(sizes, grow) == (low, next(a for a in every if cost(a) == low))
    assert least_max([2, 0, 3], grow) == (float("inf"), None)


def test_least_max_counts_every_call_of_grow(monkeypatch):
    calls = []

    def grow(i, v, a, cur, bound):
        calls.append((i, v))
        return cur

    monkeypatch.setattr(search, "MAX_NODES", 6)
    assert least_max([2, 2], grow) == (0.0, [0, 0])
    assert len(calls) == 6
    monkeypatch.setattr(search, "MAX_NODES", 5)
    with pytest.raises(ValueError, match="search is limited to 5 nodes"):
        least_max([2, 2], grow)
    calls.clear()
    with pytest.raises(ValueError, match="search is limited to 5 nodes"):
        least_max([3, 3], grow)
    assert calls == []


def equilateral(n, prefix):
    return {"kind": "metric_space", "points": ["%s%d" % (prefix, i) for i in range(n)],
            "dist": [[float(i != j) for j in range(n)] for i in range(n)]}


@pytest.mark.parametrize("kind", ["dil", "gh"])
def test_distance_searches_exit_2_past_the_node_cap(tmp_path, capsys, monkeypatch, kind):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(equilateral(8, "x")))
    b.write_text(json.dumps(equilateral(7, "y")))
    monkeypatch.setattr(search, "MAX_NODES", 1000)
    code = main(["dist", "--kind", kind, str(a), str(b)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.splitlines() == ["error: search is limited to 1000 nodes"]


# -- the searches against first-hit loops ------------------------------------

def small_metric(rng, n, prefix):
    """A metric with distances in {1, 2}, which always satisfies the
    triangle inequality and usually has many symmetries."""
    d = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            d[i][j] = d[j][i] = float(rng.choice((1, 2)))
    return FiniteMetricSpace(["%s%d" % (prefix, i) for i in range(n)], d)


def first(candidates, ok):
    return next((list(c) for c in candidates if ok(c)), None)


def expansive(x, y, a):
    return all(y.dist[a[j]][a[i]] >= x.dist[j][i] - TOL
               for i in range(len(a)) for j in range(i))


def isometric(x, y, a):
    return all(abs(y.dist[a[j]][a[i]] - x.dist[j][i]) <= TOL
               for i in range(len(a)) for j in range(i))


def relabel(x, y, a):
    return None if a is None else {p: y.points[k] for p, k in zip(x.points, a)}


def test_expansive_map_search_returns_the_first_hit():
    rng = random.Random(4101)
    found = 0
    for _ in range(60):
        x = small_metric(rng, rng.randint(1, 5), "x")
        y = small_metric(rng, rng.randint(1, 5), "y")
        ref = first(itertools.product(range(len(y.points)), repeat=len(x.points)),
                    lambda a: expansive(x, y, a))
        assert find_expansive_map(x, y) == relabel(x, y, ref)
        found += ref is not None
    assert 0 < found < 60


def test_zero_dilatation_endos_lists_every_hit_in_order():
    rng = random.Random(4102)
    for _ in range(30):
        sp = small_metric(rng, rng.randint(1, 5), "x")
        n = len(sp.points)
        ref = [relabel(sp, sp, a) for a in itertools.product(range(n), repeat=n)
               if expansive(sp, sp, a)]
        assert zero_dilatation_endos(sp) == ref


def test_isometry_search_returns_the_first_hit():
    rng = random.Random(4103)
    found = 0
    for _ in range(60):
        n = rng.randint(1, 5)
        x, y = small_metric(rng, n, "x"), small_metric(rng, n, "y")
        ref = first(itertools.permutations(range(n)), lambda a: isometric(x, y, a))
        assert isometry_search(x, y) == relabel(x, y, ref)
        found += ref is not None
    assert 0 < found < 60


def test_measure_isometry_search_returns_the_first_hit():
    rng = random.Random(4104)
    found = 0
    for _ in range(60):
        n = rng.randint(1, 5)
        x, y = small_metric(rng, n, "x"), small_metric(rng, n, "y")
        mx = FiniteMMSpace(x, {p: rng.choice((0.5, 1.0)) for p in x.points})
        my = FiniteMMSpace(y, {p: rng.choice((0.5, 1.0)) for p in y.points})
        ref = first(itertools.permutations(range(n)), lambda a: isometric(x, y, a) and all(
            mx.mass[x.points[i]] == my.mass[y.points[a[i]]] for i in range(n)))
        assert measure_isometry_search(mx, my) == relabel(x, y, ref)
        found += ref is not None
    assert 0 < found < 60


def simplicial(x, y, assign):
    return all(frozenset(assign[v] for v in s) in y.simplices for s in x.simplices)


def test_injective_simplicial_map_search_returns_the_first_hit():
    rng = random.Random(4105)
    found = 0
    for _ in range(60):
        x = random_simplicial(rng, rng.randint(1, 4), "a")
        y = random_simplicial(rng, rng.randint(1, 5), "b")
        ref = next((dict(zip(x.vertices, p))
                    for p in itertools.permutations(y.vertices, len(x.vertices))
                    if simplicial(x, y, dict(zip(x.vertices, p)))), None)
        assert find_injective_simplicial_map(x, y) == ref
        found += ref is not None
    assert 0 < found < 60


def test_simplicial_isomorphism_search_returns_the_first_hit():
    rng = random.Random(4106)
    found = 0
    for _ in range(80):
        n = rng.randint(1, 5)
        x = random_simplicial(rng, n, "a")
        y = random_simplicial(rng, n, "b")
        ref = None
        if len(x.simplices) == len(y.simplices):
            for perm in itertools.permutations(y.vertices):
                assign = dict(zip(x.vertices, perm))
                back = {w: v for v, w in assign.items()}
                if simplicial(x, y, assign) and simplicial(y, x, back):
                    ref = assign
                    break
        assert find_simplicial_isomorphism(x, y) == ref
        found += ref is not None
    assert 0 < found < 80


# -- one cap, exit 2 on the CLI ------------------------------------------------

def line(kind, n, prefix, **extra):
    pts = ["%s%d" % (prefix, i) for i in range(n)]
    return dict(kind=kind, points=pts,
                dist=[[float(abs(i - j)) for j in range(n)] for i in range(n)], **extra)


def top(n, prefix):
    return {"kind": "top_space", "points": ["%s%d" % (prefix, i) for i in range(n)],
            "leq": [[i == j for j in range(n)] for i in range(n)]}


def oversized_args(kind, n, tmp_path):
    def put(name, payload):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)

    mm = lambda p: line("mm_space", n, p, mass=[1.0 / n] * n)
    if kind == "codiam":
        f = {"kind": "map", "source": line("metric_space", 1, "x"),
             "target": line("metric_space", n, "y"), "assign": {"x0": "y0"}}
    elif kind == "comp":
        f = {"kind": "map", "source": top(1, "x"), "target": top(n, "y"),
             "assign": {"x0": "y0"}}
    elif kind == "prokhorov":
        f = {"kind": "map", "source": mm("y"), "target": mm("y"),
             "assign": {"y%d" % i: "y%d" % i for i in range(n)}}
    else:
        return ["dist", "--kind", "prokhorov", put("a.json", mm("y")), put("b.json", mm("y"))]
    return ["norm", "--kind", kind, "--map", put("f.json", f)]


@pytest.mark.parametrize("kind, n", [
    ("codiam", 17), ("codiam", 30), ("comp", 17), ("prokhorov", 17), ("dist-prokhorov", 17)])
def test_oversized_subset_walks_exit_2(tmp_path, capsys, kind, n):
    code = main(oversized_args(kind, n, tmp_path))
    err = capsys.readouterr().err
    assert code == 2
    assert err.splitlines() == ["error: subset enumeration is limited to 16 elements, got %d" % n]


def test_only_the_search_module_walks_bitmasks():
    src = pathlib.Path(normcat.__file__).parent
    walkers = sorted(p.name for p in src.glob("*.py")
                     if re.search(r"\b1\s*<<", p.read_text(encoding="utf-8")))
    assert walkers == ["search.py"]


def _loop_depth(node):
    """How deeply for loops and comprehension clauses nest inside node."""
    inner = max((_loop_depth(c) for c in ast.iter_child_nodes(node)), default=0)
    if isinstance(node, ast.For):
        return inner + 1
    if isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
        return inner + len(node.generators)
    return inner


def test_each_law_is_checked_once():
    src = pathlib.Path(normcat.__file__).parent
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in src.glob("*.py")}
    checkers = {("topo.py", "FiniteTopSpace", "__init__"),
                ("capacity.py", "SubobjectFamily", "validate_order"),
                ("discrete.py", "NormedMonoid", "from_table"),
                ("topo.py", None, "monotone_light_report")}
    found = set()
    for module, cls, name in checkers:
        tree = trees[module]
        if cls is not None:
            tree = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == cls)
        fn = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == name)
        assert _loop_depth(fn) < 3, (cls, name)
        calls = {n.func.id for n in ast.walk(fn)
                 if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)}
        assert "subsets" not in calls, (cls, name)
        found.add((module, cls, name))
    assert found == checkers
    raisers = sorted(name for name, tree in trees.items()
                     for n in ast.walk(tree)
                     if isinstance(n, ast.Constant) and isinstance(n.value, str)
                     and "associativity fails" in n.value)
    assert raisers == ["category.py"]


def test_every_class_with_an_assign_field_is_a_finite_map():
    from normcat.category import FiniteMap
    classes = []
    for info in pkgutil.iter_modules(normcat.__path__):
        if info.name != "__main__":
            mod = importlib.import_module("normcat." + info.name)
            classes += [c for c in vars(mod).values()
                        if inspect.isclass(c) and c.__module__ == mod.__name__]
    maps = [c for c in classes if dataclasses.is_dataclass(c)
            and "assign" in {f.name for f in dataclasses.fields(c)}]
    assert len(maps) >= 6
    assert all(issubclass(c, FiniteMap) for c in maps)
    assert [c for c in classes if "assign" in vars(c).get("__annotations__", {})] == [FiniteMap]
