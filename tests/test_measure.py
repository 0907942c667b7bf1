"""Metric measure spaces, the Prokhorov capacity and its seminorm."""

import math
import random

import numpy as np
import pytest

from normcat.extreal import INF
from normcat.capacity import check_capacity_monotone
from normcat.category import compose_maps
from normcat.metric import FiniteMetricSpace, line_space, two_point_space
from normcat.measure import (
    BaseMismatch,
    FiniteMMSpace,
    MMSpaceMap,
    prokhorov_capacity,
    prokhorov_seminorm,
    prokhorov_seminorm_capacity_form,
    prokhorov_distance,
    volume_norm,
    prokhorov_family,
    measure_isometry_search,
    _kinks,
    _steps,
)
from normcat.generate import (random_masses, random_metric_space, random_mm_space, random_mm_map,
                              random_subset)
from normcat import measure
from normcat.search import sorted_sums, subset_sums, subset_table, subsets

from test_laws import loop_validate_order


def dirac(base, point):
    return FiniteMMSpace(base, {p: 1.0 if p == point else 0.0 for p in base.points})


def test_mm_space_validation():
    base = two_point_space(1.0)
    with pytest.raises(ValueError):
        FiniteMMSpace(base, {"p": 1.0})
    with pytest.raises(ValueError):
        FiniteMMSpace(base, {"p": -0.5, "q": 1.0})
    with pytest.raises(ValueError):
        FiniteMMSpace(base, {"p": INF, "q": 1.0})
    with pytest.raises(ValueError):
        FiniteMMSpace(base, {"p": 0.0, "q": 1.0}, fully_supported=True)
    sp = FiniteMMSpace(base, {"p": 0.25, "q": 1.5})
    assert sp.measure({"q"}) == 1.5
    assert sp.volume() == 1.75


def test_mm_map_validation_and_compose():
    base = two_point_space(1.0)
    mu = FiniteMMSpace(base, {"p": 1.0, "q": 0.0})
    nu = FiniteMMSpace(base, {"p": 0.5, "q": 0.5})
    with pytest.raises(ValueError):
        MMSpaceMap(mu, nu, {"p": "p"})
    with pytest.raises(ValueError):
        MMSpaceMap(mu, nu, {"p": "p", "q": "zz"})
    f = MMSpaceMap(mu, nu, {"p": "q", "q": "q"})
    assert f.preimage({"q"}) == frozenset({"p", "q"})
    assert f.preimage({"p"}) == frozenset()
    g = MMSpaceMap(nu, mu, {"p": "p", "q": "p"})
    gf = compose_maps(g, f)
    assert type(gf) is MMSpaceMap
    assert gf.assign == {"p": "p", "q": "p"}
    other = FiniteMMSpace(two_point_space(2.0), {"p": 1.0, "q": 1.0})
    with pytest.raises(ValueError):
        compose_maps(MMSpaceMap(other, other, {"p": "p", "q": "q"}), f)
    # the same base with other masses is another mm-space
    with pytest.raises(ValueError):
        compose_maps(MMSpaceMap(mu, mu, {"p": "p", "q": "q"}), f)


def test_capacity_one_point_examples():
    base = FiniteMetricSpace(("*",), [[0.0]])
    sp = FiniteMMSpace(base, {"*": 1.0})
    assert prokhorov_capacity(sp, {"*"}, 0.5) == 0.0
    assert prokhorov_capacity(sp, {"*"}, 1.5) == 0.5
    assert prokhorov_capacity(sp, frozenset(), 0.0) == 0.0
    assert prokhorov_capacity(sp, frozenset(), 0.7) == 0.7
    assert prokhorov_capacity(sp, {"*"}, -3.0) == 0.0


def test_capacity_two_point_example():
    base = two_point_space(1.0)
    mu = dirac(base, "p")
    # all the mass sits at distance 1 from q, so the thickening only
    # catches it for delta > 1; the slack term must cover v before that
    assert prokhorov_capacity(mu, {"q"}, 1.0) == 1.0
    assert prokhorov_capacity(mu, {"q"}, 0.25) == 0.25
    assert prokhorov_capacity(mu, {"p"}, 1.0) == 0.0
    assert prokhorov_capacity(mu, {"p", "q"}, 1.0) == 0.0


def test_capacity_monotone_in_set_and_value():
    rng = random.Random(2026)
    for _ in range(120):
        sp = random_mm_space(rng, rng.randint(1, 5))
        pts = sp.base.points
        small = random_subset(rng, pts)
        big = small | random_subset(rng, pts)
        v = rng.uniform(0.0, sp.volume() + 1.0)
        w = v + rng.uniform(0.0, 1.0)
        # growing the set can only shrink the capacity, growing v only grows it
        assert prokhorov_capacity(sp, big, v) <= prokhorov_capacity(sp, small, v) + 1e-12
        assert prokhorov_capacity(sp, small, v) <= prokhorov_capacity(sp, small, w) + 1e-12


def test_prokhorov_family_passes_monotone_check():
    rng = random.Random(11)
    for _ in range(10):
        sp = random_mm_space(rng, rng.randint(1, 4))
        handles, leq, cap = prokhorov_family(sp, [0.0, 0.5, sp.volume(), sp.volume() + 1.0])
        loop_validate_order(handles, leq)
        ok, witness = check_capacity_monotone(handles, leq, cap)
        assert ok, witness


def test_distance_dirac_swap():
    for d in (1.0, 0.3):
        base = two_point_space(d)
        mu, nu = dirac(base, "p"), dirac(base, "q")
        assert prokhorov_distance(mu, nu) == d
        assert prokhorov_distance(nu, mu) == d
    # far-apart diracs cap at total mass: the slack term alone covers v
    base = two_point_space(5.0)
    assert prokhorov_distance(dirac(base, "p"), dirac(base, "q")) == 1.0


def test_distance_identical_measures_is_zero():
    rng = random.Random(7)
    for _ in range(40):
        sp = random_mm_space(rng, rng.randint(1, 5))
        assert prokhorov_distance(sp, sp) == 0.0


def test_distance_base_mismatch_and_symmetrize():
    a = FiniteMMSpace(two_point_space(1.0), {"p": 1.0, "q": 0.0})
    b = FiniteMMSpace(two_point_space(2.0), {"p": 0.0, "q": 1.0})
    with pytest.raises(BaseMismatch):
        prokhorov_distance(a, b)
    base = line_space([0.0, 1.0], labels=("p", "q"))
    mu = FiniteMMSpace(base, {"p": 1.0, "q": 0.0})
    nu = FiniteMMSpace(base, {"p": 0.0, "q": 0.4})
    # the unit mass at p needs delta 1 to reach q; the 0.4 at q is covered
    # by the slack alone; the half-sum is the symmetrized distance
    fwd = prokhorov_distance(mu, nu)
    bwd = prokhorov_distance(nu, mu)
    assert (fwd, bwd) == (0.4, 1.0)
    assert (fwd + bwd) / 2.0 == 0.7


def test_distance_symmetric_for_probability_measures():
    rng = random.Random(19)
    for _ in range(80):
        n = rng.randint(1, 5)
        sp = random_mm_space(rng, n, normalize=True)
        nu = FiniteMMSpace(sp.base, dict(zip(sp.base.points,
                                             _simplex(rng, n))))
        assert abs(prokhorov_distance(sp, nu) - prokhorov_distance(nu, sp)) <= 1e-12


def _simplex(rng, n):
    cuts = sorted(rng.random() for _ in range(n - 1))
    pts = [0.0] + cuts + [1.0]
    return [pts[i + 1] - pts[i] for i in range(n)]


def test_distance_triangle_for_probability_measures():
    rng = random.Random(23)
    for _ in range(60):
        n = rng.randint(1, 5)
        sp = random_mm_space(rng, n, normalize=True)
        nu = FiniteMMSpace(sp.base, dict(zip(sp.base.points, _simplex(rng, n))))
        la = FiniteMMSpace(sp.base, dict(zip(sp.base.points, _simplex(rng, n))))
        lhs = prokhorov_distance(sp, la)
        rhs = prokhorov_distance(sp, nu) + prokhorov_distance(nu, la)
        assert lhs <= rhs + 1e-12


def test_seminorm_identity_equals_distance():
    rng = random.Random(31)
    for _ in range(60):
        n = rng.randint(1, 5)
        sp = random_mm_space(rng, n)
        nu = FiniteMMSpace(sp.base, dict(zip(
            sp.base.points, [rng.uniform(0.0, 1.5) for _ in range(n)])))
        ident = MMSpaceMap(sp, nu, {p: p for p in sp.base.points})
        assert abs(prokhorov_seminorm(ident) - prokhorov_distance(sp, nu)) <= 1e-12


def test_seminorm_point_into_two_points():
    x = FiniteMMSpace(FiniteMetricSpace(("p",), [[0.0]]), {"p": 1.0})
    y = FiniteMMSpace(two_point_space(1.0), {"p": 0.5, "q": 0.5})
    f = MMSpaceMap(x, y, {"p": "p"})
    # the target set {q} has an empty preimage, so only the slack covers
    # its mass, and at radius 1 it must cover the whole space
    assert prokhorov_seminorm(f) == 1.0


def test_seminorm_matches_capacity_form():
    rng = random.Random(37)
    for _ in range(50):
        src = random_mm_space(rng, rng.randint(1, 8))
        tgt = random_mm_space(rng, rng.randint(1, 8))
        f = random_mm_map(rng, src, tgt)
        a = prokhorov_seminorm(f)
        b = prokhorov_seminorm_capacity_form(f)
        assert abs(a - b) <= 1e-12, (a, b, f.assign)


# -- the per-subset route that the subset walk replaced ----------------------
# Copies of the earlier loops: every point-to-subset distance and every
# mass recomputed per subset and per radius.  The walk must give the very
# same floats, so these are compared with ==.

def _old_steps(sp, subset):
    idx = sp.base.index
    dists = {}
    for x in sp.base.points:
        d = min((sp.base.dist[idx[x]][idx[p]] for p in subset), default=INF)
        if d < INF:
            dists[x] = d
    ts = sorted(set(dists.values()) | {0.0})
    return dists, ts, [sum(sp.mass[x] for x, d in dists.items() if d <= t) for t in ts]


def _old_capacity(sp, subset, v):
    if v <= 0:
        return 0.0
    _, ts, ms = _old_steps(sp, subset)
    best = INF
    for i, t in enumerate(ts):
        nxt = ts[i + 1] if i + 1 < len(ts) else INF
        req = v - ms[i]
        if req <= t:
            cand = t
        elif req <= nxt:
            cand = req
        else:
            continue
        if cand < best:
            best = cand
    return best


def _old_threshold_closed(sp, subset, shift, v):
    if v <= 0:
        return 0.0
    dists = _old_steps(sp, subset)[0]
    ts = sorted({d for d in dists.values() if d > shift} | {shift})
    best = INF
    for i, t in enumerate(ts):
        u = max(t - shift, 0.0)
        nxt = ts[i + 1] - shift if i + 1 < len(ts) else INF
        m = sum(sp.mass[x] for x, d in dists.items() if d <= t)
        cand = max(u, v - m)
        if cand < nxt and cand < best:
            best = cand
    return best


def _old_seminorm(f):
    best = 0.0
    for a in subsets(f.target.base.points):
        b = f.preimage(a)
        _, ss, vs = _old_steps(f.target, a)
        for s, v in zip(ss, vs):
            cand = _old_threshold_closed(f.source, b, s, v)
            if cand > best:
                best = cand
    return best


def _old_distance(mu, nu):
    best = 0.0
    for a in subsets(mu.base.points):
        cand = _old_capacity(mu, a, nu.measure(a))
        if cand > best:
            best = cand
    return best


def _pin_base(rng, n, kind):
    """n points on a line with integer coordinates (tied distances), a
    random metric, or the quasi-metric d(x, y) = y - x, or 2 (x - y) when
    y < x, on integer coordinates."""
    if kind == "random":
        return random_metric_space(rng, n)
    xs = rng.sample(range(2 * n + 1), n)
    if kind == "line":
        return line_space(xs, labels=["x%d" % i for i in range(n)])
    gauge = lambda t: float(t if t >= 0 else -2 * t)
    return FiniteMetricSpace(["x%d" % i for i in range(n)],
                             [[gauge(b - a) for b in xs] for a in xs], allow_quasi=True)


def _pin_masses(rng, base):
    return FiniteMMSpace(base, {p: rng.choice((0.0, 0.0, 0.25, 0.5, 0.1, rng.random()))
                                for p in base.points})


@pytest.mark.parametrize("kind", ["line", "random", "quasi"])
def test_walk_matches_the_per_subset_route(kind):
    rng = random.Random({"line": 71, "random": 72, "quasi": 73}[kind])
    empty_fibres = 0
    for n in range(1, 10):
        tgt = _pin_masses(rng, _pin_base(rng, n, kind))
        src = _pin_masses(rng, _pin_base(rng, rng.randint(1, 9), kind))
        hit = rng.sample(tgt.points, rng.randint(1, n))
        f = MMSpaceMap(src, tgt, {x: rng.choice(hit) for x in src.points})
        empty_fibres += len(set(tgt.points) - set(f.assign.values()))
        assert prokhorov_seminorm(f) == _old_seminorm(f)
        mu, nu = tgt, _pin_masses(rng, tgt.base)
        assert prokhorov_distance(mu, nu) == _old_distance(mu, nu)
        assert prokhorov_distance(nu, mu) == _old_distance(nu, mu)
    assert empty_fibres > 0


def test_walk_matches_the_per_subset_route_at_12_points():
    rng = random.Random(74)
    base = _pin_base(rng, 12, "line")
    mu, nu = _pin_masses(rng, base), _pin_masses(rng, base)
    assert prokhorov_distance(mu, nu) == _old_distance(mu, nu)
    assert prokhorov_distance(nu, mu) == _old_distance(nu, mu)
    # a 17-point source is past the 16-point mass table, so its masses
    # are added up point by point
    src = _pin_masses(rng, _pin_base(rng, 17, "random"))
    tgt = _pin_masses(rng, _pin_base(rng, 6, "line"))
    f = MMSpaceMap(src, tgt, {x: rng.choice(tgt.points[:4]) for x in src.points})
    assert prokhorov_seminorm(f) == _old_seminorm(f)


@pytest.mark.parametrize("n, kind", [(13, "line"), (14, "quasi"), (15, "quasi"), (16, "line")])
def test_table_matches_the_per_subset_route_on_13_to_16_points(n, kind):
    # the subset table comes in many blocks here; tied distances and
    # masses, and the empty fibres of a 3-point source
    rng = random.Random(7500 + n)
    tgt = _pin_masses(rng, _pin_base(rng, n, kind))
    if n < 15:
        src = _pin_masses(rng, _pin_base(rng, 3, kind))
        f = MMSpaceMap(src, tgt, {x: rng.choice(tgt.points) for x in src.points})
        assert prokhorov_seminorm(f) == _old_seminorm(f)
    else:
        nu = _pin_masses(rng, tgt.base)
        assert prokhorov_distance(tgt, nu) == _old_distance(tgt, nu)


def test_table_matches_the_per_subset_route_at_the_edges():
    empty = FiniteMMSpace(FiniteMetricSpace((), []), {})
    f = MMSpaceMap(empty, empty, {})
    assert prokhorov_seminorm(f) == 0.0 == _old_seminorm(f)
    assert prokhorov_distance(empty, empty) == 0.0
    zero = lambda sp: FiniteMMSpace(sp.base, dict.fromkeys(sp.points, 0.0))
    rng = random.Random(76)
    for kind in ("line", "random", "quasi"):
        one = _pin_masses(rng, _pin_base(rng, 1, kind))
        for m in range(4):
            src = _pin_masses(rng, _pin_base(rng, m, kind)) if m else empty
            f = MMSpaceMap(src, one, {x: one.points[0] for x in src.points})
            assert prokhorov_seminorm(f) == _old_seminorm(f)
        assert prokhorov_distance(one, zero(one)) == _old_distance(one, zero(one))
        # all-zero masses on either end, or on both
        for n in range(1, 8):
            tgt = _pin_masses(rng, _pin_base(rng, n, kind))
            src = _pin_masses(rng, _pin_base(rng, rng.randint(1, 6), kind))
            for a, b in ((zero(src), tgt), (src, zero(tgt)), (zero(src), zero(tgt))):
                f = MMSpaceMap(a, b, {x: rng.choice(b.points) for x in a.points})
                assert prokhorov_seminorm(f) == _old_seminorm(f)
            assert prokhorov_distance(tgt, zero(tgt)) == _old_distance(tgt, zero(tgt))
            assert prokhorov_distance(zero(tgt), tgt) == _old_distance(zero(tgt), tgt)


def _balanced_pair(rng, base):
    return [FiniteMMSpace(base, random_masses(rng, base.points, normalize=True)) for _ in range(2)]


def _loose_pair(base):
    """nu on one point and mu on its neighbour: every subset holding the
    first and not the second has the bound 1."""
    return dirac(base, base.points[1]), dirac(base, base.points[0])


def _sorted_rows(monkeypatch, mu, nu):
    """prokhorov_distance(mu, nu) and the rows it passed to sorted_sums."""
    rows = []

    def counted(dists, weights, sums):
        rows.append(dists.shape[1])
        return sorted_sums(dists, weights, sums)

    monkeypatch.setattr(measure, "sorted_sums", counted)
    return prokhorov_distance(mu, nu), sum(rows)


def test_pruned_walk_matches_the_per_subset_route():
    # rows whose bound nu(A) - mu(A) is at most the best term are never
    # sorted; the value must not move by a bit
    rng = random.Random(77)
    for base in (random_metric_space(rng, 12), _pin_base(rng, 12, "quasi")):
        mu, nu = _balanced_pair(rng, base)
        assert prokhorov_distance(mu, nu) == _old_distance(mu, nu)
        assert prokhorov_distance(nu, mu) == _old_distance(nu, mu)
    assert prokhorov_distance(mu, mu) == 0.0 == _old_distance(mu, mu)
    mu, nu = _loose_pair(base)
    assert prokhorov_distance(mu, nu) == _old_distance(mu, nu) > 0.0


def _full_table_distance(mu, nu):
    """prokhorov_distance with every nonempty subset's row sorted."""
    mu_w = [mu.mass[p] for p in mu.points]
    mu_sums, nu_sums = subset_sums(mu_w), subset_sums([nu.mass[p] for p in nu.points])
    best = 0.0
    for start, rows in subset_table(mu.base.array.T):
        t, m = sorted_sums(np.ascontiguousarray(rows.T), mu_w, mu_sums)
        term = np.maximum(t, nu_sums[start:start + len(rows)] - m).min(axis=0)
        best = max(best, float(term[1 if start == 0 else 0:].max(initial=0.0)))
    return best


def test_pruned_walk_matches_the_full_table():
    # many pairs, where a row skipped with a bound too tight would show
    rng = random.Random(79)
    for n in range(1, 14):
        for _ in range(15):
            base = random_metric_space(rng, n) if rng.random() < 0.7 else _pin_base(rng, n, "quasi")
            for mu, nu in (_balanced_pair(rng, base), (_pin_masses(rng, base), _pin_masses(rng, base))):
                assert prokhorov_distance(mu, nu) == _full_table_distance(mu, nu)
                assert prokhorov_distance(nu, mu) == _full_table_distance(nu, mu)


def test_pruned_walk_sorts_few_rows(monkeypatch):
    # on seeded balanced pairs the share of the 4,095 nonempty subsets
    # sorted spreads from 0 to about 11 %, so the mean over 20 is pinned
    rng = random.Random(78)
    pairs = [_balanced_pair(rng, random_metric_space(rng, 12)) for _ in range(20)]
    counts = [_sorted_rows(monkeypatch, mu, nu) for mu, nu in pairs]
    assert all(value > 0.0 for value, _ in counts)
    assert sum(rows for _, rows in counts) < 0.1 * 20 * 4095
    mu = pairs[0][0]
    assert _sorted_rows(monkeypatch, mu, mu) == (0.0, 0)
    # the loose pair sorts its 1,024 subsets of bound 1 at most
    _, rows = _sorted_rows(monkeypatch, *_loose_pair(mu.base))
    assert rows <= 1024


def test_seminorm_triangle_under_composition():
    rng = random.Random(41)
    for _ in range(60):
        a = random_mm_space(rng, rng.randint(1, 4), prefix="a")
        b = random_mm_space(rng, rng.randint(1, 4), prefix="b")
        c = random_mm_space(rng, rng.randint(1, 4), prefix="c")
        f = random_mm_map(rng, a, b)
        g = random_mm_map(rng, b, c)
        lhs = prokhorov_seminorm(compose_maps(g, f))
        rhs = prokhorov_seminorm(f) + prokhorov_seminorm(g)
        assert lhs <= rhs + 1e-12


def test_capacity_value_kinks_bracket_the_function():
    rng = random.Random(43)
    for _ in range(40):
        sp = random_mm_space(rng, rng.randint(1, 4))
        a = random_subset(rng, sp.base.points)
        kinks = _kinks(*_steps(sp, a))
        # between consecutive kinks the capacity is linear: check midpoints
        grid = kinks + [kinks[-1] + 1.0, kinks[-1] + 2.0]
        for lo, hi in zip(grid, grid[1:]):
            if hi - lo < 1e-9:
                continue
            mid = (lo + hi) / 2.0
            cl = prokhorov_capacity(sp, a, lo)
            cm = prokhorov_capacity(sp, a, mid)
            ch = prokhorov_capacity(sp, a, hi)
            assert cm <= max(cl, ch) + 1e-9
            assert cm >= min(cl, ch) - 1e-9


def test_volume_norm_examples():
    base = FiniteMetricSpace(("*",), [[0.0]])
    out = volume_norm(FiniteMMSpace(base, {"*": 1.0}))
    assert out == {"norm_of_initial": 1.0, "volume": 1.0}
    empty = FiniteMMSpace(FiniteMetricSpace((), []), {})
    out = volume_norm(empty)
    assert out == {"norm_of_initial": 0.0, "volume": 0.0}


def test_volume_norm_bound_and_supported_equality():
    rng = random.Random(53)
    for _ in range(40):
        sp = random_mm_space(rng, rng.randint(1, 5))
        out = volume_norm(sp)
        assert out["norm_of_initial"] <= out["volume"] + 1e-9
    for _ in range(40):
        sp = random_mm_space(rng, rng.randint(1, 5), fully_supported=True)
        out = volume_norm(sp)
        assert abs(out["norm_of_initial"] - out["volume"]) <= 1e-9


def test_measure_isometry_search():
    base = line_space([0.0, 1.0, 3.0], labels=("x0", "x1", "x2"))
    mu = FiniteMMSpace(base, {"x0": 0.2, "x1": 0.3, "x2": 0.5})
    found = measure_isometry_search(mu, mu)
    assert found == {p: p for p in base.points}
    nu = FiniteMMSpace(base, {"x0": 0.3, "x1": 0.2, "x2": 0.5})
    assert measure_isometry_search(mu, nu) is None
    # isometric bases (reverse the line) with the same mass multiset, but
    # the only isometry is the reversal and it pairs the masses wrongly
    rev = line_space([0.0, 2.0, 3.0], labels=("x0", "x1", "x2"))
    la = FiniteMMSpace(rev, {"x0": 0.3, "x1": 0.2, "x2": 0.5})
    assert measure_isometry_search(mu, la) is None
    ok = FiniteMMSpace(rev, {"x0": 0.5, "x1": 0.3, "x2": 0.2})
    assert measure_isometry_search(mu, ok) == {"x0": "x2", "x1": "x1", "x2": "x0"}


def test_zero_norm_pairs_experiment_runs():
    """Mutually zero-seminorm map pairs: log whether an isometry explains them.

    This mirrors an open axiom question, so nothing is asserted about the
    outcome; the test only checks the experiment covers real cases.
    """
    rng = random.Random(59)
    checked = 0
    unexplained = 0
    for _ in range(15):
        a = random_mm_space(rng, rng.randint(1, 3), fully_supported=True)
        b = FiniteMMSpace(a.base, dict(a.mass), fully_supported=True)
        pts_a, pts_b = a.base.points, b.base.points
        pairs = []
        for fa in _all_assigns(pts_a, pts_b):
            f = MMSpaceMap(a, b, fa)
            if prokhorov_seminorm(f) > 1e-12:
                continue
            for ga in _all_assigns(pts_b, pts_a):
                g = MMSpaceMap(b, a, ga)
                if prokhorov_seminorm(g) <= 1e-12:
                    pairs.append((f, g))
        if pairs:
            checked += 1
            if measure_isometry_search(a, b) is None:
                unexplained += 1
    assert checked > 0
    assert unexplained >= 0


def _all_assigns(src_pts, tgt_pts):
    out = [{}]
    for x in src_pts:
        out = [dict(d, **{x: y}) for d in out for y in tgt_pts]
    return out
