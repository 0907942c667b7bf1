import itertools
import json
import math
import random

import pytest

from normcat import search, topo
from normcat.category import compose_maps
from normcat.capacity import capacity_norms
from normcat.cli import main
from normcat.extreal import INF, sup0
from normcat.discrete import NotSimplicial, SimplicialComplex, SimplicialMap
from normcat.generate import random_poset, random_simplicial
from normcat.topo import (
    ContinuousPosetMap,
    FiniteTopSpace,
    IncompatibleCarriers,
    all_order_preserving_maps,
    all_posets,
    component_capacity_form,
    component_seminorm,
    connected_components,
    dimension_seminorm,
    discrete_space,
    fibre_components,
    monotone_light_report,
    poset_space,
    sierpinski_space,
    topological_norm,
    _dim_value,
)
from normcat.search import subsets

LOG2 = math.log(2.0)


def sierpinski_bijection():
    src = discrete_space(("a", "b"))
    tgt = sierpinski_space()
    return ContinuousPosetMap(src, tgt, {"a": "0", "b": "1"})


def identity_poset_map(sp):
    return ContinuousPosetMap(sp, sp, {p: p for p in sp.points})


# -- spaces -------------------------------------------------------------------

def test_space_validation():
    with pytest.raises(ValueError):
        FiniteTopSpace(["a", "a"], [[True, False], [False, True]])
    with pytest.raises(ValueError):
        FiniteTopSpace(["a", "b"], [[True, False]])
    with pytest.raises(ValueError):
        FiniteTopSpace(["a", "b"], [[False, False], [False, True]])
    with pytest.raises(ValueError):
        FiniteTopSpace(["a", "b", "c"],
                       [[True, True, False],
                        [False, True, True],
                        [False, False, True]])


def test_poset_space_closes_generating_pairs():
    sp = poset_space(("a", "b", "c"), [("a", "b"), ("b", "c")])
    assert sp.below("a", "c")
    assert not sp.below("c", "a")
    assert sp.is_closed({"a"})
    assert not sp.is_closed({"c"})
    assert sp.down_closure({"c"}) == frozenset(["a", "b", "c"])


def test_preorders_without_antisymmetry_are_allowed():
    sp = poset_space(("a", "b"), [("a", "b"), ("b", "a")])
    assert sp.below("a", "b") and sp.below("b", "a")
    assert len(connected_components(sp, sp.points)) == 1


def test_connected_components_examples():
    disc = discrete_space(("a", "b", "c"))
    assert connected_components(disc, disc.points) == \
        (frozenset(["a"]), frozenset(["b"]), frozenset(["c"]))
    sier = sierpinski_space()
    assert connected_components(sier, sier.points) == (frozenset(["0", "1"]),)
    two_chains = poset_space(("a", "b", "c", "d"), [("a", "b"), ("c", "d")])
    assert len(connected_components(two_chains, two_chains.points)) == 2
    assert connected_components(two_chains, []) == ()
    with pytest.raises(ValueError):
        connected_components(disc, ["zz"])


def test_components_restrict_to_the_subset():
    # a and c are joined only through b, so dropping b disconnects them
    chain = poset_space(("a", "b", "c"), [("a", "b"), ("c", "b")])
    assert len(connected_components(chain, ["a", "c"])) == 2
    assert len(connected_components(chain, chain.points)) == 1


# -- continuous maps ----------------------------------------------------------

def test_poset_map_validation():
    sier = sierpinski_space()
    disc = discrete_space(("a", "b"))
    with pytest.raises(ValueError):
        ContinuousPosetMap(sier, disc, {"0": "a", "1": "b"})
    with pytest.raises(ValueError):
        ContinuousPosetMap(disc, sier, {"a": "0"})
    with pytest.raises(ValueError):
        ContinuousPosetMap(disc, sier, {"a": "0", "b": "7"})
    f = sierpinski_bijection()
    assert f.fibres() == {"0": ("a",), "1": ("b",)}
    assert f.preimage(["0", "1"]) == frozenset(["a", "b"])


def test_compose_poset_maps():
    disc = discrete_space(("a", "b"))
    sier = sierpinski_space()
    f = sierpinski_bijection()
    g = ContinuousPosetMap(sier, sier, {"0": "0", "1": "1"})
    gf = compose_maps(g, f)
    assert type(gf) is ContinuousPosetMap
    assert gf.assign == {"a": "0", "b": "1"}
    with pytest.raises(ValueError):
        compose_maps(ContinuousPosetMap(disc, disc, {"a": "a", "b": "b"}), f)


def test_all_order_preserving_maps_counts():
    disc = discrete_space(("a", "b"))
    sier = sierpinski_space()
    assert len(all_order_preserving_maps(disc, sier)) == 4
    assert len(all_order_preserving_maps(sier, disc)) == 2


def test_all_posets_isomorphism_counts():
    # OEIS A000112
    assert [len(all_posets(n)) for n in range(6)] == [0, 1, 2, 5, 16, 63]
    with pytest.raises(ValueError, match="limited to 5 points"):
        all_posets(6)


def canonical(leq):
    idx = range(len(leq))
    return min(tuple(tuple(leq[p[i]][p[j]] for j in idx) for i in idx)
               for p in itertools.permutations(idx))


def test_all_posets_are_distinct_partial_orders():
    for n in range(1, 6):
        posets = all_posets(n)
        assert all(not (sp.leq[i][j] and sp.leq[j][i])
                   for sp in posets for i in range(n) for j in range(n) if i != j)
        assert len({canonical(sp.leq) for sp in posets}) == len(posets)


def test_all_posets_close_under_one_point_extensions():
    # every poset on n points with a new maximal point over any down-set
    # is isomorphic to one of the listed posets on n + 1 points
    for n in range(0, 4):
        bigger = {canonical(sp.leq) for sp in all_posets(n + 1)}
        for sp in all_posets(n) or [FiniteTopSpace((), ())]:
            for down in subsets(range(n), nonempty=False):
                if not sp.is_closed([sp.points[i] for i in down]):
                    continue
                leq = [list(row) + [i in down] for i, row in enumerate(sp.leq)]
                assert canonical(leq + [[False] * n + [True]]) in bigger


# -- component seminorm --------------------------------------------------------

def test_component_seminorm_examples():
    sier = sierpinski_space()
    assert component_seminorm(identity_poset_map(sier)) == 0.0
    f = sierpinski_bijection()
    assert component_seminorm(f) == LOG2
    assert monotone_light_report(f)["monotone"] is True
    partial = ContinuousPosetMap(discrete_space(("a",)), discrete_space(("p", "q")),
                                 {"a": "p"})
    assert component_seminorm(partial) == INF


def test_component_forms_agree():
    rng = random.Random(70701)
    cases = []
    for _ in range(60):
        x = random_poset(rng, rng.randint(1, 6), "x")
        y = random_poset(rng, rng.randint(1, 6), "y")
        maps = all_order_preserving_maps(x, y)
        rng.shuffle(maps)
        cases += maps[:6]
    cases += [seeded_poset_map(rng, n + 3, random_poset(rng, n, "y")) for n in (6, 7, 8, 9)]
    for f in cases:
        a = component_seminorm(f)
        b = component_capacity_form(f)
        if a == INF or b == INF:
            assert a == b
        else:
            assert abs(a - b) <= 1e-12


def walked_component_seminorm(f):
    """component_seminorm as it was: every target subset's connectivity
    and its preimage's components, each flooded from scratch."""
    terms = []
    for c in subsets(f.target.points):
        if len(connected_components(f.target, c)) != 1:
            continue
        pre = f.preimage(c)
        if not pre:
            return INF
        terms.append(math.log(len(connected_components(f.source, pre))))
    return sup0(terms)


def seeded_poset_map(rng, n_src, tgt, hit=None):
    """An order-preserving map onto the points hit (all of tgt's by
    default): the source keeps a random part of the pulled-back strict
    order, closed up."""
    hit = list(tgt.points) if hit is None else hit
    xs = ["x%d" % i for i in range(n_src)]
    img = hit + [rng.choice(hit) for _ in range(n_src - len(hit))]
    rng.shuffle(img)
    keep = rng.choice((0.0, 0.3, 0.7, 1.0))
    pairs = [(a, b) for a, ya in zip(xs, img) for b, yb in zip(xs, img)
             if ya != yb and tgt.below(ya, yb) and rng.random() < keep]
    return ContinuousPosetMap(poset_space(xs, pairs), tgt, dict(zip(xs, img)))


def component_cases(rng):
    empty = FiniteTopSpace((), ())
    yield ContinuousPosetMap(empty, empty, {})
    for n in range(2, 13):
        for _ in range(1 if n > 10 else 3):
            yield seeded_poset_map(rng, n + rng.randint(0, 4), random_poset(rng, n, "y"))
        tgt = random_poset(rng, n, "y")
        # one target point missed: infinite
        yield seeded_poset_map(rng, n + 1, tgt, hit=list(tgt.points[1:]))
        # a discrete source: any assignment preserves its order
        src = discrete_space(["x%d" % i for i in range(n + 2)])
        yield ContinuousPosetMap(src, tgt, {x: tgt.points[i % n] for i, x in enumerate(src.points)})
        chain = poset_space(["c%d" % i for i in range(n)],
                            [("c%d" % i, "c%d" % (i + 1)) for i in range(n - 1)])
        yield seeded_poset_map(rng, n + 2, chain)
        yield identity_poset_map(tgt)


def test_component_seminorm_matches_the_walk():
    seen = set()
    for f in component_cases(random.Random(70705)):
        got = component_seminorm(f)
        assert repr(got) == repr(walked_component_seminorm(f)), f.assign
        seen.add(got)
    assert INF in seen and 0.0 in seen and len(seen) > 4


def test_fibre_components_follow_the_target_order():
    tgt = discrete_space(("p", "q", "r"))
    src = poset_space(("a", "b", "c", "d"), [("a", "b")])
    f = ContinuousPosetMap(src, tgt, {"a": "q", "b": "q", "c": "q", "d": "p"})
    assert fibre_components(f) == [(frozenset(["d"]),),
                                   (frozenset(["a", "b"]), frozenset(["c"])), ()]


def comp_map_file(tmp_path, n):
    """A map from two copies of an n-point chain onto it, folded: its
    component seminorm is log 2."""
    ys = ["y%d" % i for i in range(n)]
    leq = [[i <= j for j in range(n)] for i in range(n)]
    src = [[i <= j and i // n == j // n for j in range(2 * n)] for i in range(2 * n)]
    f = {"kind": "map",
         "source": {"kind": "top_space", "points": ["x%d" % i for i in range(2 * n)], "leq": src},
         "target": {"kind": "top_space", "points": ys, "leq": leq},
         "assign": {"x%d" % i: ys[i % n] for i in range(2 * n)}}
    path = tmp_path / "f.json"
    path.write_text(json.dumps(f))
    return str(path)


def test_comp_answers_16_points_and_caps_at_17(tmp_path, capsys):
    assert main(["norm", "--kind", "comp", "--map", comp_map_file(tmp_path, 16)]) == 0
    assert json.loads(capsys.readouterr().out)["results"] == [
        {"name": "component_seminorm", "value": LOG2, "status": "exact",
         "route": "topo.component_seminorm"}]
    assert main(["norm", "--kind", "comp", "--map", comp_map_file(tmp_path, 17)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: subset enumeration is limited to 16 elements, got 17"]


def test_monotone_light_report_examples():
    sier = sierpinski_space()
    ident = identity_poset_map(sier)
    rep = monotone_light_report(ident)
    assert rep == {"monotone": True, "light": True, "closed": True,
                   "mon_defect": 0.0}
    bij = sierpinski_bijection()
    rep = monotone_light_report(bij)
    assert rep["monotone"] is True
    assert rep["closed"] is False
    assert rep["mon_defect"] == 0.0
    to_point = ContinuousPosetMap(discrete_space(("a", "b")), discrete_space(("p",)),
                                  {"a": "p", "b": "p"})
    rep = monotone_light_report(to_point)
    assert rep["monotone"] is False
    assert rep["light"] is True
    assert rep["mon_defect"] == LOG2


def test_mon_defect_below_component_seminorm():
    rng = random.Random(70702)
    for _ in range(50):
        x = random_poset(rng, rng.randint(1, 5), "x")
        y = random_poset(rng, rng.randint(1, 5), "y")
        maps = all_order_preserving_maps(x, y)
        rng.shuffle(maps)
        for f in maps[:5]:
            defect = monotone_light_report(f)["mon_defect"]
            norm = component_seminorm(f)
            assert defect <= norm or (defect == INF and norm == INF)


def test_closed_monotone_maps_have_zero_component_seminorm():
    rng = random.Random(70703)
    hit = 0
    for _ in range(40):
        x = random_poset(rng, rng.randint(1, 5), "x")
        y = random_poset(rng, rng.randint(1, 4), "y")
        for f in all_order_preserving_maps(x, y):
            rep = monotone_light_report(f)
            if rep["closed"] and rep["monotone"]:
                hit += 1
                assert component_seminorm(f) == 0.0
    assert hit > 0


def test_t1_zero_component_maps_are_bijections():
    rng = random.Random(70704)
    for _ in range(40):
        x = discrete_space(tuple("x%d" % i for i in range(rng.randint(1, 3))))
        y = discrete_space(tuple("y%d" % i for i in range(rng.randint(1, 3))))
        for f in all_order_preserving_maps(x, y):
            values = list(f.assign.values())
            bijective = (len(set(values)) == len(values) == len(y.points))
            assert (component_seminorm(f) == 0.0) == bijective


# -- dimension seminorm --------------------------------------------------------

def edge():
    return SimplicialComplex.from_facets(("a", "b"), [("a", "b")])


def test_dimension_seminorm_examples():
    e = edge()
    ident = SimplicialMap(e, e, {"a": "a", "b": "b"})
    out = dimension_seminorm(ident)
    assert out["fiber_form"] == 0.0 and out["capacity_form"] == 0.0

    point = SimplicialComplex.from_facets(("p",), [])
    collapse = SimplicialMap(e, point, {"a": "p", "b": "p"})
    out = dimension_seminorm(collapse)
    assert out["fiber_form"] == LOG2
    assert out["capacity_form"] == LOG2

    vertex = SimplicialComplex.from_facets(("v",), [])
    include = SimplicialMap(vertex, e, {"v": "a"})
    out = dimension_seminorm(include)
    assert out["fiber_form"] == 0.0 and out["capacity_form"] == 0.0


def test_fiber_form_below_capacity_form():
    rng = random.Random(70705)
    for _ in range(40):
        x = random_simplicial(rng, rng.randint(1, 4), "x")
        y = random_simplicial(rng, rng.randint(1, 3), "y")
        for _ in range(4):
            assign = {}
            ok = True
            for v in x.vertices:
                assign[v] = rng.choice(y.vertices)
            try:
                f = SimplicialMap(x, y, assign)
            except Exception:
                ok = False
            if not ok:
                continue
            out = dimension_seminorm(f)
            assert out["fiber_form"] <= out["capacity_form"] + 1e-12


def walked_subcomplexes(complex_):
    """The downward-closed sets among all 2^k subsets of the k simplices,
    as the subcomplexes were found before the down-set walk."""
    simp = sorted(complex_.simplices, key=lambda s: (len(s), sorted(map(str, s))))
    out = []
    for chosen in subsets(simp, nonempty=False):
        pool = set(chosen)
        if all(not (s - {v}) or (s - {v}) in pool for s in chosen for v in s):
            out.append(frozenset(pool))
    return out


def down_set_subcomplexes(complex_):
    """Every subcomplex, the empty one first: the down-sets of the face
    order, walked by search.down_sets as the capacity form walked them
    before it read only the principal subcomplexes."""
    simp = sorted(complex_.simplices, key=lambda s: (len(s), sorted(map(str, s))))
    pos = {s: k for k, s in enumerate(simp)}
    below = [[pos[s - {v}] for v in s if len(s) > 1] for s in simp]
    for down in search.down_sets(below):
        yield frozenset(simp[k] for k in down)


def down_set_dimension_seminorm(vmap):
    """dimension_seminorm with the capacity form taken over every
    subcomplex of the down-set walk, as it was computed before."""
    images = [(s, frozenset(vmap.assign[v] for v in s)) for s in vmap.source.simplices]

    def preimage_simplices(simplex_set):
        return frozenset(s for s, image in images if image in simplex_set)

    fiber_form = sup0([_dim_value(preimage_simplices(frozenset([frozenset([y])])))
                       for y in vmap.target.vertices])
    capacity_form = capacity_norms(down_set_subcomplexes(vmap.target), preimage_simplices,
                                   _dim_value, _dim_value)[0]
    return {"fiber_form": fiber_form, "capacity_form": capacity_form}


def looped_dimension_seminorm(vmap):
    """dimension_seminorm with each source simplex's image rebuilt for
    every target subcomplex of the subset walk, as it was computed
    before."""
    src, tgt = vmap.source, vmap.target

    def preimage_simplices(simplex_set):
        return frozenset(s for s in src.simplices
                         if frozenset(vmap.assign[v] for v in s) in simplex_set)

    fiber_form = sup0([_dim_value(preimage_simplices(frozenset([frozenset([y])])))
                       for y in tgt.vertices])
    capacity_form = sup0([_dim_value(preimage_simplices(sub)) - _dim_value(sub)
                          for sub in walked_subcomplexes(tgt) if sub])
    return {"fiber_form": fiber_form, "capacity_form": capacity_form}


def surjective_simplicial_map(rng, n_src, n_tgt, n_edges, n_triangles):
    """A simplicial surjection onto a complex with exactly n_tgt vertices,
    n_edges edges and n_triangles triangles; every source facet lies in
    the preimage of one target simplex."""
    ws = ["w%d" % i for i in range(n_tgt)]
    tris = rng.sample(list(itertools.combinations(ws, 3)), n_triangles)
    edges = {e for t in tris for e in itertools.combinations(t, 2)}
    others = [e for e in itertools.combinations(ws, 2) if e not in edges]
    edges |= set(rng.sample(others, n_edges - len(edges)))
    tgt = SimplicialComplex.from_facets(ws, sorted(edges) + tris)
    vs = ["v%d" % i for i in range(n_src)]
    images = ws + [rng.choice(ws) for _ in range(n_src - n_tgt)]
    rng.shuffle(images)
    assign = dict(zip(vs, images))
    simplices = sorted(tgt.simplices, key=lambda s: (len(s), sorted(s)))
    facets = []
    for _ in range(n_src):
        t = rng.choice(simplices)
        pool = [v for v in vs if assign[v] in t]
        facets.append(rng.sample(pool, rng.randint(1, min(len(pool), len(t) + 1))))
    return SimplicialMap(SimplicialComplex.from_facets(vs, facets), tgt, assign)


def seeded_simplicial_maps(seed):
    rng = random.Random(seed)
    # the benchmark's size: 10 vertices onto 15 simplices
    maps = [surjective_simplicial_map(rng, 10, 6, 7, 2) for _ in range(2)]
    maps.append(surjective_simplicial_map(rng, 10, 7, 8, 0))
    for _ in range(20):
        triangles = rng.randint(0, 1)
        maps.append(surjective_simplicial_map(rng, rng.randint(3, 7), 3,
                                              rng.randint(3 * triangles, 3), triangles))
    for _ in range(30):
        x = random_simplicial(rng, rng.randint(1, 5), "x")
        y = random_simplicial(rng, rng.randint(1, 3), "y")
        try:
            maps.append(SimplicialMap(x, y, {v: rng.choice(y.vertices) for v in x.vertices}))
        except NotSimplicial:
            pass
    assert len(maps) > 30
    return maps


def test_dimension_seminorm_matches_the_looped_preimages():
    for f in seeded_simplicial_maps(70706):
        assert dimension_seminorm(f) == looped_dimension_seminorm(f)


def hand_capacity_form(vmap):
    """The capacity form as a hand loop over the nonempty subcomplexes,
    as it was written before it became one capacity_norms call."""
    images = [(s, frozenset(vmap.assign[v] for v in s)) for s in vmap.source.simplices]
    terms = []
    for sub in down_set_subcomplexes(vmap.target):
        if not sub:
            continue
        pre = frozenset(s for s, image in images if image in sub)
        terms.append(_dim_value(pre) - _dim_value(sub))
    return sup0(terms)


def test_dimension_capacity_form_matches_the_hand_loop():
    for f in seeded_simplicial_maps(70707):
        assert dimension_seminorm(f)["capacity_form"] == hand_capacity_form(f)


def test_topological_norm():
    f = sierpinski_bijection()
    zero_complex_src = SimplicialComplex.from_facets(("a", "b"), [])
    zero_complex_tgt = SimplicialComplex.from_facets(("0", "1"), [])
    vmap = SimplicialMap(zero_complex_src, zero_complex_tgt, {"a": "0", "b": "1"})
    assert topological_norm(poset_map=f, vmap=vmap) == LOG2
    assert topological_norm(poset_map=f) == LOG2
    assert topological_norm(vmap=vmap) == 0.0
    with pytest.raises(ValueError):
        topological_norm()
    other = SimplicialMap(zero_complex_src, zero_complex_tgt, {"a": "0", "b": "0"})
    with pytest.raises(IncompatibleCarriers):
        topological_norm(poset_map=f, vmap=other)


@pytest.mark.parametrize("n", [16, 17])
def test_top_refuses_disagreeing_parts_before_any_walk(tmp_path, capsys, monkeypatch, n):
    # the poset part maps onto n points, the simplicial part onto one
    walked = []
    monkeypatch.setattr(topo, "component_seminorm", walked.append)
    ys = ["y%d" % i for i in range(n)]
    pm = {"kind": "map", "source": {"kind": "top_space", "points": ["a"], "leq": [[True]]},
          "target": {"kind": "top_space", "points": ys,
                     "leq": [[i == j for j in range(n)] for i in range(n)]},
          "assign": {"a": "y0"}}
    one = {"kind": "simplicial", "vertices": ["a"], "simplices": [["a"]]}
    vm = {"kind": "map", "source": one, "target": one, "assign": {"a": "a"}}
    paths = []
    for name, inst in (("pm.json", pm), ("vm.json", vm)):
        paths.append(tmp_path / name)
        paths[-1].write_text(json.dumps(inst))
    assert main(["norm", "--kind", "top", "--map", str(paths[0]), "--space", str(paths[1])]) == 2
    assert capsys.readouterr().err.splitlines() == ["error: poset and simplicial parts disagree"]
    assert walked == []


def test_subcomplexes_are_the_closed_simplex_subsets():
    rng = random.Random(70707)
    complexes = [surjective_simplicial_map(rng, 10, 6, 7, 2).target]
    complexes += [random_simplicial(rng, rng.randint(1, 5), "y") for _ in range(20)]
    for c in complexes:
        got = list(down_set_subcomplexes(c))
        assert got[0] == frozenset()
        assert len(got) == len(set(got))
        assert set(got) == set(walked_subcomplexes(c))


def twelve_simplices(rng, prefix):
    """A complex on 5 vertices with 6 edges and one triangle."""
    ws = ["%s%d" % (prefix, i) for i in range(5)]
    tri = tuple(rng.sample(ws, 3))
    edges = set(itertools.combinations(sorted(tri), 2))
    others = [e for e in itertools.combinations(ws, 2) if e not in edges]
    return SimplicialComplex.from_facets(ws, sorted(edges | set(rng.sample(others, 3))) + [tri])


def dim_map_file(tmp_path, src, tgt, assign):
    payload = {"kind": "map", "assign": assign,
               "source": {"kind": "simplicial", "vertices": list(src.vertices),
                          "simplices": sorted(sorted(s) for s in src.simplices)},
               "target": {"kind": "simplicial", "vertices": list(tgt.vertices),
                          "simplices": sorted(sorted(s) for s in tgt.simplices)}}
    path = tmp_path / "f.json"
    path.write_text(json.dumps(payload))
    return str(path)


def twenty_four_simplex_map():
    """The disjoint union of two 12-simplex complexes a and b, and the
    map onto it from the union plus a vertex x and an edge x-a0, both
    sent onto a0."""
    rng = random.Random(70708)
    a, b = twelve_simplices(rng, "a"), twelve_simplices(rng, "b")
    assert len(a.simplices) == len(b.simplices) == 12
    tgt = SimplicialComplex(a.vertices + b.vertices, a.simplices | b.simplices)
    a0 = a.vertices[0]
    src = SimplicialComplex(tgt.vertices + ("x",),
                            set(tgt.simplices) | {frozenset(["x"]), frozenset(["x", a0])})
    assign = dict({v: v for v in tgt.vertices}, x=a0)
    return a, b, SimplicialMap(src, tgt, assign)


def test_dimension_seminorm_matches_the_down_set_walk():
    # the sup over all subcomplexes is reached on a principal one, so the
    # two routes print the same floats, not merely close ones
    maps = seeded_simplicial_maps(70709) + [twenty_four_simplex_map()[2]]
    for f in maps:
        assert repr(dimension_seminorm(f)) == repr(down_set_dimension_seminorm(f))


def test_norm_dim_answers_a_24_simplex_target(tmp_path, capsys):
    a, b, f = twenty_four_simplex_map()
    # a subcomplex of a disjoint union is one of each part
    count = sum(1 for _ in down_set_subcomplexes(f.target))
    assert count == len(walked_subcomplexes(a)) * len(walked_subcomplexes(b))
    assert main(["norm", "--kind", "dim",
                 "--map", dim_map_file(tmp_path, f.source, f.target, f.assign)]) == 0
    rows = {r["name"]: r["value"] for r in json.loads(capsys.readouterr().out)["results"]}
    assert rows == {"fiber_form": LOG2, "capacity_form": LOG2}


def test_norm_dim_answers_the_full_simplex_on_10_vertices(tmp_path, capsys, monkeypatch):
    # 1,023 target simplices, too many subcomplexes to walk: the principal
    # subcomplexes need no search and so no node budget
    ws = ["w%d" % i for i in range(10)]
    tgt = SimplicialComplex(ws, [c for k in range(1, 11) for c in itertools.combinations(ws, k)])
    src = SimplicialComplex.from_facets(("v",), [])
    monkeypatch.setattr(search, "MAX_NODES", 0)
    assert main(["norm", "--kind", "dim", "--map", dim_map_file(tmp_path, src, tgt, {"v": "w0"})]) == 0
    rows = {r["name"]: r["value"] for r in json.loads(capsys.readouterr().out)["results"]}
    assert rows == {"fiber_form": 0.0, "capacity_form": 0.0}
