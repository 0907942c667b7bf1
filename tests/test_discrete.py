"""Set norms, CSB, simplicial complexes, normed monoids, cost systems."""

import itertools
import math
import random

import pytest

from normcat.extreal import INF
from normcat.category import (
    check_seminorm_axioms, check_norm_axioms, compose_maps, dual_seminorm, induced_pqmetric,
)
from normcat.discrete import (
    NonInjective, NotSimplicial, NotAMorphism, NotSquareFree,
    FiniteFunction, set_norm, csb_witness,
    function_category,
    SimplicialComplex, SimplicialMap,
    find_simplicial_isomorphism, find_injective_simplicial_map,
    simplicial_mutual_embedding,
    NormedMonoid, cyclic_group, grothendieck_norm, group_norm_category,
    CostSystem, word_cost, cost_pseudometric, cost_category,
)

LOG2 = math.log(2)
LOG3 = math.log(3)


# -- set norm ----------------------------------------------------------------

def test_set_norm_basic_values():
    f = FiniteFunction((1, 2, 3), ("a", "b"), {1: "a", 2: "a", 3: "b"})
    assert set_norm(f) == LOG2

    ident = FiniteFunction((1, 2), (1, 2), {1: 1, 2: 2})
    assert set_norm(ident) == 0.0

    const = FiniteFunction((1, 2, 3), ("z",), {1: "z", 2: "z", 3: "z"})
    assert set_norm(const) == LOG3


def test_set_norm_of_empty_function_is_zero():
    f = FiniteFunction((), ("a",), {})
    assert set_norm(f) == 0.0


def test_finite_function_validation():
    with pytest.raises(ValueError):
        FiniteFunction((1, 2), ("a",), {1: "a"})
    with pytest.raises(ValueError):
        FiniteFunction((1,), ("a",), {1: "b"})


def test_set_norm_subadditive_exhaustively_small():
    # all composable pairs between sets of size <= 3
    cat, norms, funcs = function_category(
        {"a": (1,), "b": (1, 2), "c": (1, 2, 3)})
    rep = check_seminorm_axioms(cat, norms)
    assert rep.ok


@pytest.mark.parametrize("sets", [
    {"a>b": (1,), "c": (2,)},
    {"a:b": (1,), "c": (2, 3)},
    # one "src>tgt:values" string would name two functions: p>q -> r and
    # p -> q>r, and the values ("a", "b,a") and ("a,b", "a")
    {"p>q": (1,), "r": (1,), "p": (1,), "q>r": (1,)},
    {"s": (1, 2), "t": ("a", "a,b", "b,a")},
])
def test_function_category_takes_labels_with_separators(sets):
    cat, norms, funcs = function_category(sets)
    assert len(funcs) == sum(len(t) ** len(s) for s in sets.values() for t in sets.values())
    for fname, f in funcs.items():
        for gname, g in funcs.items():
            if cat.morphisms[fname].tgt == cat.morphisms[gname].src:
                assert funcs[cat.compose(gname, fname)] == compose_maps(g, f)


def test_zero_norm_iff_injective_exhaustive():
    for ns in range(0, 5):
        for nt in range(1, 5):
            src = tuple(range(ns))
            tgt = tuple(range(nt))
            for values in itertools.product(tgt, repeat=ns):
                f = FiniteFunction(src, tgt, dict(zip(src, values)))
                injective = len(set(values)) == len(values)
                assert (set_norm(f) == 0.0) == injective


def test_csb_witness_on_bijections():
    f = FiniteFunction((1, 2), ("a", "b"), {1: "a", 2: "b"})
    g = FiniteFunction(("a", "b"), (1, 2), {"a": 1, "b": 2})
    assert csb_witness(f, g) == {1: "a", 2: "b"}


def test_csb_witness_rejects_non_injective():
    f = FiniteFunction((1, 2), ("a", "b"), {1: "a", 2: "b"})
    g = FiniteFunction(("a", "b"), (1, 2), {"a": 1, "b": 1})
    with pytest.raises(NonInjective):
        csb_witness(f, g)
    with pytest.raises(NonInjective):
        csb_witness(g, f)


def test_csb_exhaustive_on_small_sets():
    # whenever injective maps run both ways between sets of size <= 4,
    # a bijection is produced
    for n in range(1, 5):
        src = tuple(range(n))
        tgt = tuple("wxyz"[:n])
        for fv in itertools.permutations(tgt):
            f = FiniteFunction(src, tgt, dict(zip(src, fv)))
            for gv in itertools.permutations(src):
                g = FiniteFunction(tgt, src, dict(zip(tgt, gv)))
                bij = csb_witness(f, g)
                assert sorted(bij.values()) == sorted(tgt)


def test_fibers_and_composition():
    f = FiniteFunction((1, 2, 3), ("a", "b"), {1: "a", 2: "a", 3: "b"})
    g = FiniteFunction(("a", "b"), ("z",), {"a": "z", "b": "z"})
    gf = compose_maps(g, f)
    assert type(gf) is FiniteFunction
    assert gf.fibres() == {"z": (1, 2, 3)}
    assert f.fibres() == {"a": (1, 2), "b": (3,)}
    with pytest.raises(ValueError):
        compose_maps(f, g)
    # finite sets are composable only as the same point tuple
    swapped = FiniteFunction(("b", "a"), ("z",), {"a": "z", "b": "z"})
    with pytest.raises(ValueError):
        compose_maps(swapped, f)


# -- simplicial complexes ----------------------------------------------------

def triangle():
    return SimplicialComplex.from_facets((1, 2, 3), [(1, 2), (1, 3), (2, 3)])


def test_from_facets_closes_downward():
    full = SimplicialComplex.from_facets((1, 2, 3), [(1, 2, 3)])
    assert frozenset([1, 2]) in full.simplices
    assert frozenset([3]) in full.simplices
    assert full.dim == 2
    assert triangle().dim == 1


def test_complex_validation():
    with pytest.raises(ValueError):
        SimplicialComplex((1, 2), [frozenset([1, 2])])   # singletons missing
    with pytest.raises(ValueError):
        SimplicialComplex((1,), [frozenset([1]), frozenset()])


def test_simplicial_map_must_send_simplices_to_simplices():
    edge = SimplicialComplex.from_facets((1, 2), [(1, 2)])
    two_points = SimplicialComplex.from_facets(("a", "b"), [])
    with pytest.raises(NotSimplicial):
        SimplicialMap(edge, two_points, {1: "a", 2: "b"})


def test_isomorphism_search_finds_relabelling():
    tri2 = SimplicialComplex.from_facets(("x", "y", "z"),
                                         [("x", "y"), ("x", "z"), ("y", "z")])
    assign = find_simplicial_isomorphism(triangle(), tri2)
    assert assign is not None
    assert sorted(assign.values()) == ["x", "y", "z"]


def test_isomorphism_search_distinguishes_path_and_star():
    path = SimplicialComplex.from_facets((1, 2, 3, 4), [(1, 2), (2, 3), (3, 4)])
    star = SimplicialComplex.from_facets((1, 2, 3, 4), [(1, 2), (1, 3), (1, 4)])
    assert find_simplicial_isomorphism(path, star) is None
    # and no injective simplicial map between them can be mutual:
    # star -> path would need the center adjacent to three distinct images
    assert find_injective_simplicial_map(star, path) is None


def all_complexes(vertices):
    """Every simplicial complex on the given vertices (size >= 2 faces vary)."""
    verts = tuple(vertices)
    bigger = [frozenset(c) for k in range(2, len(verts) + 1)
              for c in itertools.combinations(verts, k)]
    out = []
    for mask in range(1 << len(bigger)):
        chosen = {bigger[i] for i in range(len(bigger)) if mask >> i & 1}
        ok = all((s - {v}) in chosen or len(s) == 2
                 for s in chosen for v in s)
        if not ok:
            continue
        simp = set(chosen)
        simp.update(frozenset([v]) for v in verts)
        out.append(SimplicialComplex(verts, simp))
    return out


def test_mutual_zero_norm_embeddings_give_isomorphism_exhaustive():
    # all pairs of complexes on exactly 3 vertices, plus a 2 vs 3 mix
    cx3 = all_complexes((1, 2, 3))
    for x in cx3:
        for y in cx3:
            pair = simplicial_mutual_embedding(x, y)
            iso = find_simplicial_isomorphism(x, y)
            if pair is not None:
                assert iso is not None
            if iso is not None:
                assert pair is not None


def test_mutual_embedding_is_none_across_sizes():
    edge = SimplicialComplex.from_facets((1, 2), [(1, 2)])
    assert simplicial_mutual_embedding(edge, triangle()) is None


# -- normed monoids ----------------------------------------------------------

def test_from_table_validates_structure():
    with pytest.raises(ValueError):
        NormedMonoid.from_table([0, 1], {(0, 0): 0, (0, 1): 1, (1, 0): 1,
                                         (1, 1): 5}, 0, {0: 0.0, 1: 1.0})
    # norm of unit must vanish
    with pytest.raises(ValueError):
        NormedMonoid.from_table([0, 1], [[0, 1], [1, 0]], 0, {0: 0.5, 1: 1.0})
    # subadditivity: |1+1| = |0| = 0 fine, |0+1| = 1 <= 0+1 fine; break it
    with pytest.raises(ValueError):
        NormedMonoid.from_table([0, 1], [[0, 1], [1, 0]], 0, {0: 0.0, 1: -1.0})


def test_grothendieck_norm_on_a_cyclic_group():
    z = cyclic_group(100)
    assert grothendieck_norm(z, 0, 0, 7, 7) == 0
    assert grothendieck_norm(z, 2, 0, 3, 5) == 2
    with pytest.raises(NotAMorphism):
        grothendieck_norm(z, 2, 1, 3, 5)


def test_group_category_distance_matches_element_norm_on_cyclic_groups():
    for n in range(2, 7):
        m = cyclic_group(n)
        pq = induced_pqmetric(*group_norm_category(n))
        for a in range(n):
            for b in range(n):
                assert pq.dist[a][b] == m.norm((a - b) % n)


def test_cyclic_group_norm_is_the_word_length_over_plus_minus_one():
    for n in range(1, 13):
        m = cyclic_group(n)
        length = {m.unit: 0}
        frontier = [m.unit]
        while frontier:
            nxt = []
            for x in frontier:
                for g in (1, m.inv(1)):
                    y = m.op(x, g)
                    if y not in length:
                        length[y] = length[x] + 1
                        nxt.append(y)
            frontier = nxt
        assert sorted(length) == list(range(n))
        assert all(m.norm(g) == float(k) for g, k in length.items())


def test_normed_monoid_requires_its_elements():
    with pytest.raises(TypeError):
        NormedMonoid(op=lambda a, b: a + b, unit=0, norm=abs)


def test_group_norm_category_duals_reproduce_norm():
    for n in (4, 5):
        cat, norms = group_norm_category(n)
        assert check_seminorm_axioms(cat, norms).ok
        for side in ("left", "right"):
            dual = dual_seminorm(cat, norms, side)
            for name, v in norms.items():
                assert dual[name] == v


def test_group_norm_category_satisfies_norm_axioms():
    cat, norms = group_norm_category(4)
    rep = check_norm_axioms(cat, norms)
    assert rep.ok


# -- cost systems ------------------------------------------------------------

def test_word_cost_values():
    cs = CostSystem(("x", "y", "z"),
                    {("x", "y"): 1.0, ("y", "x"): 1.0,
                     ("y", "z"): 1.0, ("z", "y"): 1.0,
                     ("x", "z"): 5.0, ("z", "x"): 5.0})
    assert word_cost(cs, ("x",)) == 0.0
    assert word_cost(cs, ("x", "y", "z")) == 2.0
    with pytest.raises(NotSquareFree):
        word_cost(cs, ("x", "y", "y"))


def test_word_cost_through_infinite_pair():
    cs = CostSystem(("x", "y"), {("x", "y"): INF, ("y", "x"): 1.0})
    assert word_cost(cs, ("x", "y")) == INF
    assert word_cost(cs, ("y", "x")) == 1.0


def test_cost_system_requires_total_cost_table():
    with pytest.raises(ValueError):
        CostSystem(("x", "y"), {("x", "y"): 1.0})


def test_cost_pseudometric_shortest_path():
    cs = CostSystem(("x", "y", "z"),
                    {("x", "y"): 1.0, ("y", "x"): 1.0,
                     ("y", "z"): 1.0, ("z", "y"): 1.0,
                     ("x", "z"): 5.0, ("z", "x"): 5.0})
    d = cost_pseudometric(cs)
    assert d.value("x", "z") == 2.0
    assert d.value("x", "y") == 1.0


def test_cost_pseudometric_fixes_metrics():
    # a cost that is already a metric is its own pseudometric
    pts = ("a", "b", "c")
    vals = {("a", "b"): 1.0, ("b", "a"): 1.0,
            ("b", "c"): 1.5, ("c", "b"): 1.5,
            ("a", "c"): 2.0, ("c", "a"): 2.0}
    d = cost_pseudometric(CostSystem(pts, vals))
    for (p, q), v in vals.items():
        assert d.value(p, q) == v


def test_cost_pseudometric_of_zero_costs_is_zero():
    pts = ("a", "b")
    d = cost_pseudometric(CostSystem(pts, {("a", "b"): 0.0, ("b", "a"): 0.0}))
    assert d.value("a", "b") == 0.0


def test_cost_pseudometric_is_largest_below_cost():
    rng = random.Random(404)
    for trial in range(100):
        n = rng.randint(2, 5)
        pts = tuple(range(n))
        base = {}
        for i in pts:
            for j in pts:
                if i != j:
                    v = rng.uniform(0.1, 3.0)
                    base[(i, j)] = v
                    base[(j, i)] = v
        e = cost_pseudometric(CostSystem(pts, base))
        cost = {k: base[k] + rng.uniform(0, 2.0) for k in base}
        # e is a pseudometric with e <= cost pointwise
        d = cost_pseudometric(CostSystem(pts, cost))
        for i in pts:
            for j in pts:
                if i != j:
                    assert e.value(i, j) <= cost[(i, j)] + 1e-12
                    assert e.value(i, j) <= d.value(i, j) + 1e-12
                    assert d.value(i, j) <= min(cost[(i, j)], cost[(j, i)]) + 1e-12


def test_cost_category_duals_vanish():
    rng = random.Random(77)
    pts = (0, 1, 2, 3)
    cost = {}
    for i in pts:
        for j in pts:
            if i != j:
                cost[(i, j)] = float(rng.randint(1, 5))
    cat, norms = cost_category(CostSystem(pts, cost))
    assert check_seminorm_axioms(cat, norms).ok
    for side in ("left", "right"):
        dual = dual_seminorm(cat, norms, side)
        assert all(v == 0.0 for v in dual.values())


def test_cost_category_names_words_apart_from_points():
    # the one-letter word ("a>b",) and the word ("a", "b") get two names
    pts = ("a", "b", "a>b")
    cost = {(x, y): 1.0 for x in pts for y in pts if x != y}
    cat, norms = cost_category(CostSystem(pts, cost))
    assert len(cat.morphisms) == 7
    assert norms["w:'a'>'b'"] == 1.0
    assert norms["w:'a>b'"] == 0.0


def test_cost_category_shape():
    pts = ("a", "b", "c")
    cost = {(x, y): 1.0 for x in pts for y in pts if x != y}
    cat, norms = cost_category(CostSystem(pts, cost))
    # one word per nonempty subset of the ordered alphabet
    assert len(cat.morphisms) == 7
    assert norms["w:'a'>'b'>'c'"] == 2.0
    assert norms["w:'a'"] == 0.0
    assert cat.compose("w:'b'>'c'", "w:'a'>'b'") == "w:'a'>'b'>'c'"
