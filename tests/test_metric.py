import itertools
import math
import random

import numpy as np
import pytest

from normcat.extreal import INF, sup0
from normcat.category import compose_maps, first_triangle_violation, scale_tolerance
from normcat.capacity import dual_inequality_report
from normcat.generate import random_metric_space, random_multimap, random_function_map
from normcat.metric import (
    EmptySpace,
    FiniteMetricSpace,
    MultiMap,
    MultiValued,
    codiameter_seminorm,
    diameter,
    diameter_capacity_instance,
    dil_distance,
    dilatation_left_dual,
    dilatation_norm,
    dilatation_norm_capacity,
    find_expansive_map,
    gh_correspondence_oracle,
    gh_distance,
    is_isometry,
    isometry_search,
    line_space,
    min_dilatation_map,
    one_point_space,
    pullback_metric,
    two_point_probe_dual,
    two_point_space,
    zero_dilatation_endos,
)
from normcat.search import subsets


def pinch_map():
    """0 -> 0, 1 -> 2, 2 -> 2 from {0,1,2} onto {0,2}, both on the line."""
    x = line_space([0, 1, 2])
    y = line_space([0, 2])
    return MultiMap.from_function(x, y, {0: 0, 1: 2, 2: 2})


def identity_map(sp):
    return MultiMap(sp, sp, {p: (p,) for p in sp.points})


# -- space construction -----------------------------------------------------

def test_space_validation():
    with pytest.raises(ValueError):
        FiniteMetricSpace(["a", "a"], [[0, 1], [1, 0]])
    with pytest.raises(ValueError):
        FiniteMetricSpace(["a", "b"], [[0, 1]])
    with pytest.raises(ValueError):
        FiniteMetricSpace(["a", "b"], [[0, -1], [-1, 0]])
    with pytest.raises(ValueError):
        FiniteMetricSpace(["a", "b"], [[1, 1], [1, 0]])
    with pytest.raises(ValueError):
        FiniteMetricSpace(["a", "b"], [[0, INF], [INF, 0]])


def test_separation_and_symmetry_flags():
    with pytest.raises(ValueError):
        FiniteMetricSpace(["a", "b"], [[0, 0], [0, 0]])
    FiniteMetricSpace(["a", "b"], [[0, 0], [0, 0]], allow_pseudo=True)
    with pytest.raises(ValueError):
        FiniteMetricSpace(["a", "b"], [[0, 1], [2, 0]])
    FiniteMetricSpace(["a", "b"], [[0, 1], [2, 0]], allow_quasi=True)


def test_triangle_checked():
    with pytest.raises(ValueError, match=r"fails on \('a', 'b', 'c'\)"):
        FiniteMetricSpace(["a", "b", "c"],
                          [[0, 1, 5], [1, 0, 1], [5, 1, 0]])


def test_triangle_tolerance_scales_with_the_distances():
    # Euclidean midpoints at coordinates near 1e9: the rounding of
    # math.dist exceeds an absolute 1e-9 on some of these triples
    rng = random.Random(0)
    for _ in range(200):
        a = [rng.uniform(1e9, 2e9) for _ in range(2)]
        b = [rng.uniform(1e9, 2e9) for _ in range(2)]
        m = [(u + v) / 2 for u, v in zip(a, b)]
        pts = (a, m, b)
        FiniteMetricSpace(["a", "m", "b"],
                          [[math.dist(p, q) for q in pts] for p in pts])
    # a violation of 10 at scale 2e9 is still far above the tolerance
    with pytest.raises(ValueError, match="triangle inequality fails"):
        FiniteMetricSpace(["a", "m", "b"], [[0.0, 1e9, 2e9 + 10.0],
                                            [1e9, 0.0, 1e9],
                                            [2e9 + 10.0, 1e9, 0.0]])


def looped_space_check(points, dist, allow_pseudo=False, allow_quasi=False):
    """FiniteMetricSpace's validation as it was written before the entry
    rules became numpy reductions: one Python pass over every entry."""
    points = tuple(points)
    d = tuple(tuple(float(v) for v in row) for row in dist)
    n = len(points)
    if len(set(points)) != n:
        raise ValueError("duplicate point ids")
    if len(d) != n or any(len(row) != n for row in d):
        raise ValueError("distance matrix shape does not match points")
    arr = np.asarray(d, dtype=float).reshape(n, n)
    tol = scale_tolerance(arr)
    for i in range(n):
        if d[i][i] != 0.0:
            raise ValueError("nonzero diagonal at %r" % (points[i],))
        for j in range(n):
            v = d[i][j]
            if not (0.0 <= v < INF):
                raise ValueError("distance (%r, %r) outside [0, inf)" % (points[i], points[j]))
            if i != j and v == 0.0 and not allow_pseudo:
                raise ValueError("zero distance between distinct points %r, %r"
                                 % (points[i], points[j]))
            if not allow_quasi and abs(v - d[j][i]) > tol:
                raise ValueError("asymmetric distance at (%r, %r)" % (points[i], points[j]))
    bad = first_triangle_violation(arr, tol)
    if bad is not None:
        raise ValueError("triangle inequality fails on (%r, %r, %r)"
                         % tuple(points[i] for i in bad))


def outcome(check, *args, **kwargs):
    """None when check passes, else the type and message of what it raised."""
    try:
        check(*args, **kwargs)
    except Exception as exc:
        return type(exc), str(exc)
    return None


def perturbed_distances(rng):
    """A scaled Euclidean metric on 0-6 points with up to three entries
    broken: bad diagonal, negative, nan, +-inf, None, strings, bools, a
    ragged row, a zero off the diagonal, or asymmetry near the tolerance."""
    n = rng.randint(0, 6)
    scale = rng.choice([1.0, 1e3, 1e10])
    coords = [(rng.random(), rng.random()) for _ in range(n)]
    d = [[scale * math.dist(a, b) for b in coords] for a in coords]
    for _ in range(rng.randint(0, 3) if n else 0):
        i, j = rng.randrange(n), rng.randrange(n)
        kind = rng.randrange(10)
        if kind == 0:
            d[i][i] = rng.choice([1e-12, 0.5, -0.0, -1.0])
        elif kind == 1:
            d[i][j] = -rng.choice([d[i][j], 1.0])
        elif kind == 2:
            d[i][j] = rng.choice([math.nan, INF, -INF])
        elif kind == 3:
            d[i][j] = None
        elif kind == 4:
            d[i][j] = rng.choice([repr(d[i][j]), "1.5", "0", "far"])
        elif kind == 5:
            d[i][j] = rng.choice([True, False])
        elif kind in (6, 7):
            d[i][j] = 0.0
            if rng.random() < 0.5:
                d[j][i] = 0.0
        elif isinstance(d[j][i], float) and math.isfinite(d[j][i]):
            d[i][j] = d[j][i] + rng.choice([0.5, 0.99, 1.01, 2.0]) * 1e-9 * max(1.0, scale)
    if n and rng.random() < 0.1:
        i = rng.randrange(n)
        d[i] = d[i][:-1] if rng.random() < 0.5 else d[i] + [1.0]
    return ["p%d" % i for i in range(n)], d


def test_space_validation_names_the_entry_the_loop_named():
    rng = random.Random(15001)
    seen = set()
    for _ in range(600):
        points, dist = perturbed_distances(rng)
        flags = dict(allow_pseudo=rng.random() < 0.5, allow_quasi=rng.random() < 0.5)
        want = outcome(looped_space_check, points, dist, **flags)
        assert outcome(FiniteMetricSpace, points, dist, **flags) == want, (points, dist, flags)
        seen.add(None if want is None else (want[0], " ".join(want[1].split()[:2])))
    assert seen >= {None, (TypeError, "float() argument"),
                    (ValueError, "could not"),
                    (ValueError, "distance matrix"), (ValueError, "nonzero diagonal"),
                    (ValueError, "distance ('p0',"), (ValueError, "zero distance"),
                    (ValueError, "asymmetric distance"), (ValueError, "triangle inequality")}


def test_space_validation_of_empty_and_one_point_spaces():
    for points, dist in (((), ()), (("a",), ((0.0,),)), (("a",), ((-0.0,),)),
                         (("a",), ((1.0,),)), (("a",), ((math.nan,),)), (("a",), ((INF,),))):
        for flags in ({}, {"allow_pseudo": True, "allow_quasi": True}):
            assert outcome(FiniteMetricSpace, points, dist, **flags) == \
                outcome(looped_space_check, points, dist, **flags)


def test_multimap_validation():
    x = line_space([0, 1])
    y = line_space([0, 2])
    with pytest.raises(ValueError):
        MultiMap(x, y, {0: (0,)})
    with pytest.raises(ValueError):
        MultiMap(x, y, {0: (0,), 1: ()})
    with pytest.raises(ValueError):
        MultiMap(x, y, {0: (0,), 1: (7,)})
    f = MultiMap(x, y, {0: (0, 2), 1: (2,)})
    assert not f.single_valued
    with pytest.raises(MultiValued):
        f.value(0)
    g = MultiMap.from_function(x, y, {0: 0, 1: 2})
    assert g.single_valued and g.value(1) == 2


def test_compose_multimaps_pools_values():
    x = line_space([0, 1])
    y = line_space([0, 1, 2])
    z = line_space([0, 4])
    f = MultiMap(x, y, {0: (0, 1), 1: (2,)})
    g = MultiMap(y, z, {0: (0,), 1: (4,), 2: (4,)})
    gf = compose_maps(g, f)
    assert type(gf) is MultiMap
    assert gf.assign[0] == (0, 4)
    assert gf.assign[1] == (4,)
    with pytest.raises(ValueError):
        compose_maps(f, g)


# -- diameter and the dilatation forms --------------------------------------

def test_diameter_values():
    sp = line_space([0, 1, 2])
    assert diameter(sp, [1]) == 0.0
    assert diameter(sp, [0, 1, 2]) == 2.0
    assert diameter(sp, []) == 0.0


def test_dilatation_norm_values():
    f = pinch_map()
    assert dilatation_norm(identity_map(f.source)) == 0.0
    assert dilatation_norm(f) == 1.0
    x = two_point_space(1, ("x", "y"))
    y = two_point_space(10, ("p", "q"))
    sel = MultiMap(x, y, {"x": ("p",), "y": ("p", "q")})
    assert dilatation_norm(sel) == 1.0


def test_dilatation_capacity_form_values():
    f = pinch_map()
    assert dilatation_norm_capacity(f) == 1.0
    assert dilatation_norm_capacity(identity_map(f.source)) == 0.0
    x = two_point_space(1, ("x", "y"))
    y = two_point_space(10, ("p", "q"))
    sel = MultiMap(x, y, {"x": ("p",), "y": ("p", "q")})
    assert dilatation_norm_capacity(sel) == 1.0
    const = MultiMap.from_function(line_space([0, 1]), one_point_space(), {0: "*", 1: "*"})
    assert dilatation_norm_capacity(const) == 1.0


def looped_dilatation_norm_capacity(f):
    """The subset form as a hand loop, as it was written before it became
    one capacity_norms call."""
    best = 0.0
    for a in subsets(f.target.points):
        v = diameter(f.source, f.preimage(a)) - diameter(f.target, a)
        if v > best:
            best = v
    return best


def test_dilatation_capacity_form_matches_the_hand_loop():
    rng = random.Random(60602)
    for _ in range(150):
        x = random_metric_space(rng, rng.randint(1, 5), "x")
        y = random_metric_space(rng, rng.randint(1, 5), "y")
        f = random_multimap(rng, x, y)
        assert dilatation_norm_capacity(f) == looped_dilatation_norm_capacity(f)


def test_dilatation_forms_agree_on_random_maps():
    rng = random.Random(60601)
    for _ in range(150):
        n, m = rng.randint(1, 5), rng.randint(1, 5)
        x = random_metric_space(rng, n, "x")
        y = random_metric_space(rng, m, "y")
        f = random_multimap(rng, x, y)
        assert abs(dilatation_norm(f) - dilatation_norm_capacity(f)) <= 1e-9


def test_dilatation_subadditive_under_composition():
    rng = random.Random(60602)
    for _ in range(150):
        x = random_metric_space(rng, rng.randint(1, 4), "x")
        y = random_metric_space(rng, rng.randint(1, 4), "y")
        z = random_metric_space(rng, rng.randint(1, 4), "z")
        f = random_multimap(rng, x, y)
        g = random_multimap(rng, y, z)
        assert dilatation_norm(compose_maps(g, f)) <= \
            dilatation_norm(g) + dilatation_norm(f) + 1e-9


def looped_selection_gap(f, sign):
    """dilatation_norm (sign 1) and dilatation_left_dual (sign -1) as they
    were written before they became numpy reductions: every pair of
    points and every selection in a Python loop."""
    dx, dy = f.source.dist, f.target.dist
    six, tix = f.source.index, f.target.index
    best = 0.0
    pts = f.source.points
    for x in pts:
        fx = [tix[y] for y in f.assign[x]]
        for y in pts:
            fy = [tix[w] for w in f.assign[y]]
            dxy = dx[six[x]][six[y]]
            for i in fx:
                for j in fy:
                    v = sign * (dxy - dy[i][j])
                    if v > best:
                        best = v
    return best


def seeded_dilatation_maps(rng):
    """Single- and multi-valued maps from 0 to 40 points, on metric and
    quasi-metric spaces, with maps whose gaps are exactly 0."""
    empty = FiniteMetricSpace((), ())
    yield MultiMap(empty, empty, {})
    yield MultiMap(empty, line_space([0, 1]), {})
    # -0.0 - 0.0 is -0.0, which must come out as 0.0
    negative_zero = FiniteMetricSpace(("a",), ((-0.0,),))
    yield MultiMap.from_function(negative_zero, one_point_space(), {"a": "*"})
    yield MultiMap.from_function(one_point_space(), negative_zero, {"*": "a"})
    for n in range(1, 41):
        m = rng.randint(1, 40)
        if n % 3:
            x, y = random_metric_space(rng, n, "x"), random_metric_space(rng, m, "y")
        else:
            x, y = quasi_space(rng, n, "x"), quasi_space(rng, m, "y")
        yield random_function_map(rng, x, y)
        yield MultiMap(x, y, {p: rng.sample(y.points, rng.randint(1, min(m, 3 if n > 8 else m)))
                              for p in x.points})
        yield identity_map(x)
    xs = [rng.uniform(0, 5) for _ in range(6)]
    doubling = dict(zip(xs, [2 * v for v in xs]))
    yield MultiMap.from_function(line_space(xs), line_space(list(doubling.values())), doubling)
    halving = {v: u for u, v in doubling.items()}
    yield MultiMap.from_function(line_space(list(halving)), line_space(xs), halving)


def test_dilatation_values_match_the_selection_loop():
    rng = random.Random(15002)
    maps = list(seeded_dilatation_maps(rng))
    x, y = random_metric_space(rng, 170, "x"), random_metric_space(rng, 120, "y")
    maps.append(random_function_map(rng, x, y))
    zeros = 0
    for f in maps:
        for got, sign in ((dilatation_norm(f), 1.0), (dilatation_left_dual(f), -1.0)):
            want = looped_selection_gap(f, sign)
            assert got == want and repr(got) == repr(want)
            zeros += want == 0.0
    assert zeros >= 40


def test_left_dual_values():
    f = pinch_map()
    assert dilatation_left_dual(identity_map(f.source)) == 0.0
    assert dilatation_left_dual(f) == 1.0
    halving = MultiMap.from_function(line_space([0, 2]), line_space([0, 1]), {0: 0, 2: 1})
    assert dilatation_left_dual(halving) == 0.0


def test_codiameter_values():
    f = pinch_map()
    assert codiameter_seminorm(identity_map(f.source)) == 0.0
    assert codiameter_seminorm(f) == 0.0
    doubling = MultiMap.from_function(line_space([0, 1]), line_space([0, 2]), {0: 0, 1: 2})
    assert codiameter_seminorm(doubling) == 1.0


def walked_codiameter(f):
    """codiameter_seminorm with both diameters recomputed for every target
    subset, as it was computed before the max-row walk."""
    best = 0.0
    for a in subsets(f.target.points):
        pre = f.preimage(a)
        if not pre:
            continue
        v = diameter(f.target, a) - diameter(f.source, pre)
        if v > best:
            best = v
    return best


def quasi_space(rng, n, prefix):
    """Random planar points with d(p, q) = |p - q| + max(0, h(q) - h(p))."""
    pts = [(rng.random(), rng.random()) for _ in range(n)]
    h = [rng.random() for _ in range(n)]
    return FiniteMetricSpace(["%s%d" % (prefix, i) for i in range(n)],
                             [[math.dist(pts[i], pts[j]) + max(0.0, h[j] - h[i]) for j in range(n)]
                              for i in range(n)], allow_quasi=True)


def test_codiameter_matches_the_subset_walk():
    rng = random.Random(60610)
    maps = []
    for n in range(1, 12):
        m = rng.randint(1, n + 2)
        for space in (random_metric_space, quasi_space):
            x, y = space(rng, m, "x"), space(rng, n, "y")
            maps.append(random_multimap(rng, x, y))
            maps.append(few_image_points(rng, x, y))
    # the cap: one quasi-metric map onto 16 points, most fibres empty
    maps.append(few_image_points(rng, quasi_space(rng, 5, "x"), quasi_space(rng, 16, "y")))
    for f in maps:
        assert codiameter_seminorm(f) == walked_codiameter(f)


def int_line(rng, n, prefix, quasi=False):
    """n points at distinct integers in [0, 2n], so distances tie often;
    with quasi, d(x, y) = y - x, or 2 (x - y) when y < x."""
    xs = rng.sample(range(2 * n + 1), n)
    gauge = (lambda t: float(t if t >= 0 else -2 * t)) if quasi else (lambda t: float(abs(t)))
    return FiniteMetricSpace(["%s%d" % (prefix, i) for i in range(n)],
                             [[gauge(b - a) for b in xs] for a in xs], allow_quasi=quasi)


@pytest.mark.parametrize("n, quasi", [(13, False), (14, True), (15, False), (16, True)])
def test_codiameter_matches_the_subset_walk_on_13_to_16_points(n, quasi):
    rng = random.Random(60620 + n)
    x, y = int_line(rng, rng.randint(1, 6), "x", quasi), int_line(rng, n, "y", quasi)
    f = random_multimap(rng, x, y)
    assert codiameter_seminorm(f) == walked_codiameter(f)


def test_codiameter_matches_the_subset_walk_at_the_edges():
    empty = FiniteMetricSpace((), [])
    assert codiameter_seminorm(MultiMap(empty, empty, {})) == 0.0
    rng = random.Random(60630)
    for quasi in (False, True):
        one = int_line(rng, 1, "y", quasi)
        for m in range(4):
            x = int_line(rng, m, "x", quasi)
            f = MultiMap(x, one, {p: one.points for p in x.points})
            assert codiameter_seminorm(f) == walked_codiameter(f) == 0.0
            if m:
                g = MultiMap(one, x, {"y0": x.points})
                assert codiameter_seminorm(g) == walked_codiameter(g)


def few_image_points(rng, x, y):
    """A multi-valued map onto at most three target points."""
    ys = rng.sample(y.points, rng.randint(1, min(3, len(y.points))))
    return MultiMap(x, y, {p: tuple(rng.sample(ys, rng.randint(1, len(ys)))) for p in x.points})


def test_selections_never_exceed_the_multimap():
    rng = random.Random(60603)
    for _ in range(8):
        n, m = rng.randint(1, 3), rng.randint(1, 3)
        x = random_metric_space(rng, n, "x")
        y = random_metric_space(rng, m, "y")
        f = random_multimap(rng, x, y)
        df = dilatation_norm(f)
        for combo in itertools.product(*(f.assign[p] for p in x.points)):
            g = MultiMap.from_function(x, y, dict(zip(x.points, combo)))
            assert dilatation_norm(g) <= df + 1e-12


def test_single_valued_maps_reach_the_multimap_infimum():
    # over all multi-valued maps the least dilatation is already attained
    # by a single-valued map; exhaustive at <= 3 points
    rng = random.Random(60604)
    for _ in range(4):
        x = random_metric_space(rng, rng.randint(1, 3), "x")
        y = random_metric_space(rng, rng.randint(1, 3), "y")
        value_sets = [tuple(s) for k in range(1, len(y.points) + 1)
                      for s in itertools.combinations(y.points, k)]
        best_multi = INF
        for combo in itertools.product(value_sets, repeat=len(x.points)):
            f = MultiMap(x, y, dict(zip(x.points, combo)))
            best_multi = min(best_multi, dilatation_norm(f))
        assert abs(best_multi - dil_distance(x, y, "none")) <= 1e-12


# -- probes ------------------------------------------------------------------

def test_probe_dual_matches_closed_form_on_functions():
    rng = random.Random(60605)
    for _ in range(60):
        x = random_metric_space(rng, rng.randint(2, 4), "x")
        y = random_metric_space(rng, rng.randint(1, 4), "y")
        f = random_function_map(rng, x, y)
        assert abs(two_point_probe_dual(f) - dilatation_left_dual(f)) <= 1e-9


def test_probe_dual_sees_only_cheapest_selection_when_multivalued():
    x = two_point_space(1, ("x", "y"))
    y = two_point_space(10, ("p", "q"))
    f = MultiMap(x, y, {"x": ("p",), "y": ("p", "q")})
    # the closed form may pick the far pair inside one value set (10 - 0);
    # probes can only realize the cheapest selection, here worthless
    assert dilatation_left_dual(f) == 10.0
    assert two_point_probe_dual(f) == 0.0


def test_probe_dual_equals_min_selection_formula():
    rng = random.Random(60606)
    for _ in range(40):
        x = random_metric_space(rng, rng.randint(2, 4), "x")
        y = random_metric_space(rng, rng.randint(1, 4), "y")
        f = random_multimap(rng, x, y)
        expected = 0.0
        for a in x.points:
            for b in x.points:
                if a == b:
                    continue
                cheapest = min(y.d(u, v) for u in f.assign[a] for v in f.assign[b])
                expected = max(expected, cheapest - x.d(a, b))
        assert abs(two_point_probe_dual(f) - expected) <= 1e-9


# -- pullback ---------------------------------------------------------------

def test_pullback_values():
    f = pinch_map()
    pull = pullback_metric(f)
    assert pull.d(0, 1) == 2.0 and pull.d(1, 2) == 0.0
    doubling = MultiMap.from_function(line_space([0, 1]), line_space([0, 2]), {0: 0, 1: 2})
    assert pullback_metric(doubling).d(0, 1) == 2.0
    const = MultiMap.from_function(line_space([0, 1]), one_point_space(), {0: "*", 1: "*"})
    assert pullback_metric(const).dist == ((0.0, 0.0), (0.0, 0.0))
    ident = identity_map(f.source)
    assert pullback_metric(ident).dist == f.source.dist
    multi = MultiMap(line_space([0, 1]), line_space([0, 2]), {0: (0, 2), 1: (2,)})
    with pytest.raises(MultiValued):
        pullback_metric(multi)


def test_pullback_then_map_never_shrinks():
    rng = random.Random(60607)
    for _ in range(40):
        x = random_metric_space(rng, rng.randint(1, 4), "x")
        y = random_metric_space(rng, rng.randint(1, 4), "y")
        f = random_function_map(rng, x, y)
        pull = pullback_metric(f)
        through = MultiMap(pull, y, f.assign)
        assert dilatation_norm(through) == 0.0


# -- distances between spaces ------------------------------------------------

def test_gh_examples():
    a = line_space([0, 1])
    b = line_space([0, 2])
    assert gh_distance(a, a) == 0.0
    assert gh_distance(a, b) == 0.5
    assert gh_distance(one_point_space(), b) == 1.0
    with pytest.raises(EmptySpace):
        gh_distance(FiniteMetricSpace((), ()), a)


def test_gh_matches_correspondence_oracle():
    rng = random.Random(60610)
    for _ in range(30):
        n = rng.randint(1, 3)
        m = rng.randint(1, 4)
        x = random_metric_space(rng, n, "x")
        y = random_metric_space(rng, m, "y")
        assert abs(gh_distance(x, y) - gh_correspondence_oracle(x, y)) <= 1e-12


def test_gh_symmetry():
    rng = random.Random(60611)
    for _ in range(25):
        x = random_metric_space(rng, rng.randint(1, 4), "x")
        y = random_metric_space(rng, rng.randint(1, 4), "y")
        assert abs(gh_distance(x, y) - gh_distance(y, x)) <= 1e-12


def test_dil_distance_examples():
    a = line_space([0, 1])
    b = line_space([0, 2])
    assert dil_distance(a, a, "none") == 0.0
    assert dil_distance(a, b, "none") == 0.0
    assert dil_distance(b, a, "none") == 1.0
    assert dil_distance(a, b, "plus") == 0.5
    for knob in ("max", "median"):
        with pytest.raises(ValueError):
            dil_distance(a, b, knob)
    with pytest.raises(EmptySpace):
        dil_distance(FiniteMetricSpace((), ()), a)


def test_min_dilatation_map_reports_its_witness():
    rng = random.Random(60612)
    for _ in range(20):
        x = random_metric_space(rng, rng.randint(1, 4), "x")
        y = random_metric_space(rng, rng.randint(1, 4), "y")
        val, mapping = min_dilatation_map(x, y)
        f = MultiMap.from_function(x, y, mapping)
        assert abs(dilatation_norm(f) - val) <= 1e-12
    # 5 ** 6 maps: the value is the brute-force minimum, the witness the
    # first map in itertools.product order that attains it
    every = np.array(list(itertools.product(range(5), repeat=6)))
    for _ in range(20):
        x = random_metric_space(rng, 6, "x")
        y = random_metric_space(rng, 5, "y")
        val, mapping = min_dilatation_map(x, y)
        dx, dy = np.array(x.dist), np.array(y.dist)
        costs = np.maximum(0.0, (dx - dy[every[:, :, None], every[:, None, :]]).max(axis=(1, 2)))
        assert val == costs.min()
        first = every[np.argmin(costs)]
        assert mapping == {p: y.points[k] for p, k in zip(x.points, first)}
        f = MultiMap.from_function(x, y, mapping)
        assert abs(dilatation_norm(f) - val) <= 1e-12


def test_dil_plus_below_twice_gh():
    rng = random.Random(60613)
    for _ in range(60):
        x = random_metric_space(rng, rng.randint(1, 4), "x")
        y = random_metric_space(rng, rng.randint(1, 4), "y")
        assert dil_distance(x, y, "plus") <= 2.0 * gh_distance(x, y) + 1e-9


def test_diameter_is_the_norm_of_the_map_to_a_point():
    rng = random.Random(60614)
    t = one_point_space()
    for _ in range(25):
        sp = random_metric_space(rng, rng.randint(1, 5), "x")
        to_point = MultiMap.from_function(sp, t, {p: "*" for p in sp.points})
        assert abs(dilatation_norm(to_point) - diameter(sp, sp.points)) <= 1e-12


# -- rigidity and isometry search ---------------------------------------------

def relabeled_permuted_copy(rng, sp, prefix):
    perm = list(range(len(sp.points)))
    rng.shuffle(perm)
    labels = ["%s%d" % (prefix, i) for i in range(len(sp.points))]
    dist = [[sp.dist[perm[i]][perm[j]] for j in range(len(perm))] for i in range(len(perm))]
    return FiniteMetricSpace(labels, dist)


def test_zero_dilatation_endos_are_isometries():
    rng = random.Random(60615)
    for _ in range(120):
        sp = random_metric_space(rng, rng.randint(1, 6), "x")
        for h in zero_dilatation_endos(sp):
            assert is_isometry(MultiMap.from_function(sp, sp, h))


def test_expansive_maps_both_ways_force_an_isometry():
    rng = random.Random(60616)
    vacuous = 0
    for k in range(80):
        x = random_metric_space(rng, rng.randint(2, 5), "x")
        if k % 2 == 0:
            y = relabeled_permuted_copy(rng, x, "y")
        else:
            y = random_metric_space(rng, rng.randint(2, 5), "y")
        fwd = find_expansive_map(x, y)
        bwd = find_expansive_map(y, x)
        if fwd is None or bwd is None:
            vacuous += 1
            continue
        assert isometry_search(x, y) is not None
    assert vacuous < 80


def test_isometry_search_values():
    a = line_space([0, 1])
    assert isometry_search(a, a) == {0: 0, 1: 1}
    assert isometry_search(a, line_space([0, 2])) is None
    ruler1 = line_space([0, 1, 4, 10, 12, 17], labels=list("abcdef"))
    ruler2 = line_space([0, 1, 8, 11, 13, 17], labels=list("uvwxyz"))
    m1 = sorted(ruler1.dist[i][j] for i in range(6) for j in range(i + 1, 6))
    m2 = sorted(ruler2.dist[i][j] for i in range(6) for j in range(i + 1, 6))
    assert m1 == m2
    assert isometry_search(ruler1, ruler2) is None


def test_isometry_search_finds_relabeled_copies():
    rng = random.Random(60617)
    for _ in range(30):
        x = random_metric_space(rng, rng.randint(1, 5), "x")
        y = relabeled_permuted_copy(rng, x, "y")
        out = isometry_search(x, y)
        assert out is not None
        f = MultiMap.from_function(x, y, out)
        assert is_isometry(f)


# -- the diameter capacity over a category ------------------------------------

def test_pinch_counterexample_capacity_instance():
    f = pinch_map()
    inst, maps = diameter_capacity_instance(
        {"X": f.source, "Y": f.target}, {"f": f},
        annihilated=("f",), attach_pullbacks=("f",))
    report = dual_inequality_report(inst)
    assert report.ok
    rows = {r.morphism: r for r in report.rows}
    assert rows["f"].norm == 1.0
    assert rows["f"].coseminorm == 0.0
    assert rows["f"].dual_left >= 1.0 - 1e-12
    assert "probe_f" in maps


def test_capacity_rows_match_direct_formulas():
    rng = random.Random(60618)
    for _ in range(10):
        x = random_metric_space(rng, rng.randint(2, 4), "x")
        y = random_metric_space(rng, rng.randint(1, 3), "y")
        f = random_multimap(rng, x, y)
        inst, maps = diameter_capacity_instance({"X": x, "Y": y}, {"f": f})
        report = dual_inequality_report(inst)
        assert report.ok
        for row in report.rows:
            mm = maps[row.morphism]
            assert abs(row.norm - dilatation_norm(mm)) <= 1e-9
            assert abs(row.coseminorm - codiameter_seminorm(mm)) <= 1e-9


def tagged_capacity_rows(spaces, maps, endpoints):
    """(seminorm, coseminorm, filter hits) per morphism by the walk over
    (label, subset) handles that served every object with one diameter
    capacity, as the instance computed them before."""
    c = lambda h: diameter(spaces[h[0]], h[1])
    rows = {}
    for name, mm in maps.items():
        src, tgt = endpoints[name]
        sem, cosem, hits = [], [], 0
        for C in ((tgt, frozenset(a)) for a in subsets(spaces[tgt].points, nonempty=False)):
            cC = c(C)
            if cC == INF:
                continue
            B = (src, mm.preimage(C[1]))
            cB = c(B)
            if cB != -INF:
                sem.append(INF if cB == INF else cB - cC)
            if len(B[1]) == 0:
                hits += 1
            elif cB != INF:
                cosem.append(INF if cB == -INF else cC - cB)
        rows[name] = (sup0(sem), sup0(cosem), hits)
    return rows


def test_capacity_rows_match_the_tagged_walk():
    rng = random.Random(60620)
    for t in range(16):
        sizes = sorted((rng.randint(1, 4) for _ in range(3)), reverse=True)
        spaces = {"s%d" % i: random_metric_space(rng, sizes[i], "s%d_" % i) for i in range(3)}
        gens = {"f0": random_multimap(rng, spaces["s0"], spaces["s1"]),
                "f1": random_function_map(rng, spaces["s1"], spaces["s2"])}
        pulled = ("f1",) if t % 2 else ()
        inst, maps = diameter_capacity_instance(spaces, gens, attach_pullbacks=pulled)
        cat = inst.category
        endpoints = {name: (m.src, m.tgt) for name, m in cat.morphisms.items()}
        labeled = {lab: maps[cat.identity[lab]].source for lab in cat.objects}
        want = tagged_capacity_rows(labeled, maps, endpoints)
        got = {r.morphism: (r.norm, r.coseminorm, r.filter_hits)
               for r in dual_inequality_report(inst).rows}
        assert got == want


def test_generator_names_survive_derived_names():
    x = line_space([0.0, 1.0, 3.0], labels=("a", "b", "c"))
    f = MultiMap.from_function(x, x, {"a": "b", "b": "c", "c": "c"})
    g = MultiMap.from_function(x, x, {"a": "a", "b": "a", "c": "b"})
    h = MultiMap.from_function(x, x, {"a": "c", "b": "a", "c": "a"})
    k = MultiMap.from_function(x, x, {"a": "c", "b": "c", "c": "a"})
    fg = compose_maps(f, g)
    assert fg.assign != h.assign
    inst, maps = diameter_capacity_instance({"X": x}, {"f": f, "g": g, "f.g": h, "id_X": k})
    cat = inst.category
    assert maps["f.g"] is h and maps["id_X"] is k
    assert maps[cat.compose("f", "g")].assign == fg.assign
    assert cat.compose("f", "g") == "f.g'"
    assert cat.identity["X"] == "id_X'"
    assert dual_inequality_report(inst).ok


def test_annihilated_names_follow_a_merged_generator():
    x = line_space([0.0, 1.0, 3.0], labels=("a", "b", "c"))
    y = line_space([0.0, 5.0], labels=("p", "q"))
    f = MultiMap.from_function(x, y, {"a": "p", "b": "p", "c": "p"})
    g = MultiMap.from_function(x, y, {"a": "p", "b": "p", "c": "p"})
    inst, maps = diameter_capacity_instance({"X": x, "Y": y}, {"f": f, "g": g},
                                            annihilated=("g",))
    assert sorted(maps) == ["f", "id_X", "id_Y"]
    assert inst.annihilated == ("f",)
    # the constant map does not annihilate, so the check that now runs fails
    assert dual_inequality_report(inst).violations == [
        ("f", "dual_left>=coseminorm", 0.0, 2.0)]
    with pytest.raises(ValueError, match="'h' is not a generator"):
        diameter_capacity_instance({"X": x, "Y": y}, {"f": f}, annihilated=("h",))
    with pytest.raises(ValueError, match="'h' is not a generator"):
        diameter_capacity_instance({"X": x, "Y": y}, {"f": f}, attach_pullbacks=("h",))


def test_surjective_functions_with_probes_dominate_the_coseminorm():
    rng = random.Random(60619)
    for _ in range(12):
        m = rng.randint(1, 3)
        n = rng.randint(m, 4)
        x = random_metric_space(rng, n, "x")
        y = random_metric_space(rng, m, "y")
        values = list(y.points) + [rng.choice(y.points) for _ in range(n - m)]
        rng.shuffle(values)
        f = MultiMap.from_function(x, y, dict(zip(x.points, values)))
        inst, _ = diameter_capacity_instance(
            {"X": x, "Y": y}, {"f": f},
            annihilated=("f",), attach_pullbacks=("f",))
        report = dual_inequality_report(inst)
        assert report.ok, report.violations
