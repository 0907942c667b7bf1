"""Test-function capacity, its grid oracle, the seminorm search, and W1."""

import bisect
import json
import math
import random
import warnings

import pytest

from normcat.extreal import INF
from normcat.metric import FiniteMetricSpace, two_point_space, line_space
from normcat.measure import FiniteMMSpace, MMSpaceMap
from normcat.wasserstein import (
    GRID_COUNT,
    GRID_HI,
    GRID_LO,
    ProjectiveMMSpace,
    Coupling,
    MassMismatch,
    lipschitz_seminorm,
    wasserstein_capacity,
    wasserstein_capacity_oracle,
    wasserstein_seminorm,
    w1_transport,
    w1_vertex_oracle,
    kr_compare,
    _certify_transport,
    _grid_floor,
)
from normcat.generate import (
    random_mm_space,
    random_mm_map,
    random_metric_space,
    random_testfn_values,
)


def two_point_mm(d=1.0, masses=(1.0, 1.0)):
    base = two_point_space(d)
    return FiniteMMSpace(base, {"p": masses[0], "q": masses[1]})


def test_projective_space_needs_mass():
    base = two_point_space(1.0)
    with pytest.raises(ValueError):
        ProjectiveMMSpace(FiniteMMSpace(base, {"p": 0.0, "q": 0.0}))
    ProjectiveMMSpace(FiniteMMSpace(base, {"p": 0.0, "q": 0.5}))


def test_lipschitz_examples():
    base = two_point_space(1.0)
    assert lipschitz_seminorm({"p": 0.7, "q": 0.7}, base) == 0.0
    assert lipschitz_seminorm({"p": 0.0, "q": 1.0}, base) == 1.0
    half = two_point_space(0.5)
    assert lipschitz_seminorm({"p": 0.0, "q": 1.0}, half) == 2.0
    pseudo = FiniteMetricSpace(("a", "b"), [[0.0, 0.0], [0.0, 0.0]],
                               allow_pseudo=True)
    assert lipschitz_seminorm({"a": 0.0, "b": 1.0}, pseudo) == INF
    assert lipschitz_seminorm({"a": 0.5, "b": 0.5}, pseudo) == 0.0


def test_capacity_three_cases():
    sp = ProjectiveMMSpace(two_point_mm(d=1.0))
    assert wasserstein_capacity(sp, {"p": 0.0, "q": 1.0}) == 1.0
    assert wasserstein_capacity(sp, {"p": 0.5, "q": 0.5}) == INF
    assert wasserstein_capacity(sp, {"p": 0.0, "q": 0.0}) == 0.0
    # infinite slope on a pseudo base gives zero
    pseudo = FiniteMetricSpace(("a", "b"), [[0.0, 0.0], [0.0, 0.0]],
                               allow_pseudo=True)
    mm = FiniteMMSpace(pseudo, {"a": 1.0, "b": 1.0})
    assert wasserstein_capacity(ProjectiveMMSpace(mm), {"a": 0.0, "b": 1.0}) == 0.0


def test_capacity_of_a_negative_constant_is_zero():
    # zero slope, negative integral: the sup over lam > 0 of lam * I is 0
    sp = ProjectiveMMSpace(two_point_mm(d=1.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert wasserstein_capacity(sp, {"p": -0.5, "q": -0.5}) == 0.0
    # a positive constant is unbounded even where c * mass underflows to 0
    tiny = ProjectiveMMSpace(two_point_mm(masses=(1e-200, 1e-200)))
    assert wasserstein_capacity(tiny, {"p": 1e-200, "q": 1e-200}) == INF


def test_capacity_closed_form_on_random_instances():
    rng = random.Random(61)
    for _ in range(60):
        sp = random_mm_space(rng, rng.randint(2, 5), fully_supported=True)
        vals = random_testfn_values(rng, sp.base.points)
        lip = lipschitz_seminorm(vals, sp.base)
        if not (0.0 < lip < INF):
            continue
        want = sum(vals[p] * sp.mass[p] for p in sp.base.points) / lip
        assert abs(wasserstein_capacity(ProjectiveMMSpace(sp), vals) - want) <= 1e-12


def test_capacity_scaling_invariance():
    rng = random.Random(67)
    for _ in range(40):
        sp = random_mm_space(rng, rng.randint(2, 5), fully_supported=True)
        vals = random_testfn_values(rng, sp.base.points)
        base_val = wasserstein_capacity(ProjectiveMMSpace(sp), vals)
        for lam in (0.5, 2.0, 10.0):
            scaled_base = FiniteMetricSpace(
                sp.base.points,
                [[lam * v for v in row] for row in sp.base.dist])
            scaled = FiniteMMSpace(scaled_base,
                                   {p: m / lam for p, m in sp.mass.items()})
            got = wasserstein_capacity(ProjectiveMMSpace(scaled), vals)
            if base_val == INF:
                assert got == INF
            else:
                assert abs(got - base_val) <= 1e-9


def test_capacity_monotone_in_testfunction_order():
    # phi <= psi pointwise with a larger slope means a smaller capacity
    rng = random.Random(71)
    for _ in range(150):
        sp = random_mm_space(rng, rng.randint(2, 5), fully_supported=True)
        phi = random_testfn_values(rng, sp.base.points)
        top = max(phi.values())
        t = rng.choice([rng.random(), rng.random(), 1.0])
        psi = {p: (1.0 - t) * v + t * top for p, v in phi.items()}
        proj = ProjectiveMMSpace(sp)
        a = wasserstein_capacity(proj, phi)
        b = wasserstein_capacity(proj, psi)
        assert a <= b or abs(a - b) <= 1e-9


def test_oracle_matches_closed_form():
    sp = ProjectiveMMSpace(two_point_mm(d=1.0))
    phi = {"p": 0.0, "q": 1.0}
    closed = wasserstein_capacity(sp, phi)
    grid_val = wasserstein_capacity_oracle(sp, phi)
    assert abs(grid_val - closed) <= 1e-3 * max(1.0, closed)
    rng = random.Random(73)
    for _ in range(40):
        mm = random_mm_space(rng, rng.randint(2, 5), fully_supported=True)
        vals = random_testfn_values(rng, mm.base.points)
        proj = ProjectiveMMSpace(mm)
        closed = wasserstein_capacity(proj, vals)
        if closed == INF:
            continue
        got = wasserstein_capacity_oracle(proj, vals)
        assert abs(got - closed) <= 1e-3 * max(1.0, closed)


def test_oracle_degenerate_cases():
    sp = ProjectiveMMSpace(two_point_mm(d=1.0))
    assert wasserstein_capacity_oracle(sp, {"p": 0.0, "q": 0.0}) == 0.0
    # constant positive: the grid value blows past the divergence threshold
    assert wasserstein_capacity_oracle(sp, {"p": 0.5, "q": 0.5}) == INF
    # slope 1e10: every rescaling of the grid breaks admissibility
    steep = ProjectiveMMSpace(two_point_mm(d=1e-10))
    assert wasserstein_capacity(steep, {"p": 0.0, "q": 1.0}) == 1e-10
    assert wasserstein_capacity_oracle(steep, {"p": 0.0, "q": 1.0}) == 0.0


def test_grid_floor_is_the_bisect_over_the_listed_grid():
    ratio = (GRID_HI / GRID_LO) ** (1.0 / (GRID_COUNT - 1))
    grid = [GRID_LO * ratio ** i for i in range(GRID_COUNT)]
    rng = random.Random(97)
    probes = [0.0, 5e-324, 1e-300, 1e300, 1.7976931348623157e308, INF]
    probes += [10 ** rng.uniform(-11, 11) for _ in range(3000)]
    for g in grid[::37] + grid[-2:]:
        probes += [math.nextafter(g, 0.0), g, math.nextafter(g, INF)]
    for x in probes:
        assert _grid_floor(x) == bisect.bisect_right(grid, x) - 1, x


def test_seminorm_identity_is_zero():
    rng = random.Random(79)
    for _ in range(10):
        sp = random_mm_space(rng, rng.randint(2, 4), fully_supported=True)
        f = MMSpaceMap(sp, sp, {p: p for p in sp.base.points})
        out = wasserstein_seminorm(f)
        assert out["lower_bound"] == 0.0
        assert set(out["witness"]) == set(sp.base.points)


def test_seminorm_dominates_any_explicit_witness():
    rng = random.Random(83)
    for _ in range(15):
        src = random_mm_space(rng, rng.randint(2, 4), prefix="a",
                              fully_supported=True)
        tgt = random_mm_space(rng, rng.randint(2, 4), prefix="b",
                              fully_supported=True)
        f = random_mm_map(rng, src, tgt)
        psi = random_testfn_values(rng, tgt.base.points, grid=4)
        for direction in ("displayed", "reversed"):
            out = wasserstein_seminorm(f, direction=direction,
                                       extra_witnesses=[psi])
            pulled = {x: psi[f.assign[x]] for x in src.base.points}
            a = wasserstein_capacity(ProjectiveMMSpace(src), pulled)
            b = wasserstein_capacity(ProjectiveMMSpace(tgt), psi)
            if a == INF and b == INF:
                continue
            term = (a - b) if direction == "displayed" else (b - a)
            assert out["lower_bound"] >= min(term, INF) - 1e-12


def test_seminorm_constant_map_reversed_sees_transport_witness():
    rng = random.Random(89)
    src = random_mm_space(rng, 3, prefix="a", fully_supported=True)
    tgt = random_mm_space(rng, 3, prefix="b", fully_supported=True)
    q = tgt.base.points[0]
    f = MMSpaceMap(src, tgt, {x: q for x in src.base.points})
    suggested = {y: min(tgt.base.d(q, y), 1.0) for y in tgt.base.points}
    out = wasserstein_seminorm(f, direction="reversed",
                               extra_witnesses=[suggested])
    # the pulled-back function vanishes, so the suggested witness scores
    # exactly the capacity of d(q, .) wedge 1 on the target
    score = wasserstein_capacity(ProjectiveMMSpace(tgt), suggested)
    assert out["lower_bound"] >= score - 1e-12


def test_seminorm_bad_direction():
    sp = two_point_mm()
    f = MMSpaceMap(sp, sp, {"p": "p", "q": "q"})
    with pytest.raises(ValueError):
        wasserstein_seminorm(f, direction="sideways")


def test_seminorm_ascent_path_on_large_target():
    rng = random.Random(97)
    src = random_mm_space(rng, 3, prefix="a", fully_supported=True)
    tgt = random_mm_space(rng, 5, prefix="b", fully_supported=True)
    f = random_mm_map(rng, src, tgt)
    psi = random_testfn_values(rng, tgt.base.points, grid=4)
    out = wasserstein_seminorm(f, extra_witnesses=[psi])
    assert out["lower_bound"] >= 0.0


def test_seminorm_search_is_seeded():
    # the ascent on a large target repeats itself exactly, so printed
    # values are reproducible
    rng = random.Random(98)
    src = random_mm_space(rng, 3, prefix="a", fully_supported=True)
    tgt = random_mm_space(rng, 5, prefix="b", fully_supported=True)
    f = random_mm_map(rng, src, tgt)
    assert wasserstein_seminorm(f) == wasserstein_seminorm(f)


def test_coupling_validation():
    with pytest.raises(ValueError):
        Coupling(("a",), ("b",), {("a", "b"): -0.5}, {"a": 1.0}, {"b": 1.0})
    with pytest.raises(ValueError):
        Coupling(("a",), ("b",), {("a", "b"): 0.4}, {"a": 1.0}, {"b": 1.0})
    with pytest.raises(ValueError):
        Coupling(("a",), ("b",), {("a", "c"): 1.0}, {"a": 1.0}, {"b": 1.0})
    Coupling(("a",), ("b",), {("a", "b"): 1.0}, {"a": 1.0}, {"b": 1.0})


def test_w1_identity_diagonal():
    rng = random.Random(101)
    for _ in range(10):
        sp = random_mm_space(rng, rng.randint(1, 4), fully_supported=True)
        f = MMSpaceMap(sp, sp, {p: p for p in sp.base.points})
        out = w1_transport(f)
        assert out["cost"] == 0.0
        for (x, y), m in out["coupling"].matrix.items():
            assert x == y and m > 0.0


def test_w1_dirac_swap():
    for d in (1.0, 0.3, 5.0):
        base = two_point_space(d)
        mu = FiniteMMSpace(base, {"p": 1.0, "q": 0.0})
        nu = FiniteMMSpace(base, {"p": 0.0, "q": 1.0})
        f = MMSpaceMap(mu, nu, {"p": "p", "q": "q"})
        out = w1_transport(f)
        assert abs(out["cost"] - d) <= 1e-12
        assert out["coupling"].matrix == {("p", "q"): 1.0}


def test_w1_two_point_imbalance():
    base = two_point_space(1.0)
    mu = FiniteMMSpace(base, {"p": 1.5, "q": 0.5})
    nu = FiniteMMSpace(base, {"p": 0.5, "q": 1.5})
    f = MMSpaceMap(mu, nu, {"p": "p", "q": "q"})
    out = w1_transport(f)
    assert abs(out["cost"] - 1.0) <= 1e-12


def test_w1_mass_mismatch():
    base = two_point_space(1.0)
    mu = FiniteMMSpace(base, {"p": 1.0, "q": 0.0})
    nu = FiniteMMSpace(base, {"p": 0.0, "q": 0.5})
    f = MMSpaceMap(mu, nu, {"p": "p", "q": "q"})
    with pytest.raises(MassMismatch):
        w1_transport(f)


def test_w1_mass_mismatch_names_both_totals():
    # unequal masses are an error, never an unbalanced transport
    base = two_point_space(1.0)
    mu = FiniteMMSpace(base, {"p": 2.0, "q": 0.0})
    nu = FiniteMMSpace(base, {"p": 0.0, "q": 1.0})
    f = MMSpaceMap(mu, nu, {"p": "p", "q": "q"})
    with pytest.raises(MassMismatch, match=r"^total masses differ: 2\.0 vs 1\.0$"):
        w1_transport(f)


def test_w1_matches_vertex_oracle():
    rng = random.Random(103)
    for _ in range(30):
        nx, ny = rng.randint(1, 3), rng.randint(1, 3)
        src = random_mm_space(rng, nx, prefix="a", fully_supported=True)
        tgt_base = random_metric_space(rng, ny, prefix="b")
        masses = [rng.uniform(0.1, 1.0) for _ in range(ny)]
        scale = src.volume() / sum(masses)
        tgt = FiniteMMSpace(tgt_base,
                            dict(zip(tgt_base.points,
                                     (m * scale for m in masses))))
        f = random_mm_map(rng, src, tgt)
        got = w1_transport(f)["cost"]
        want = w1_vertex_oracle(f)
        assert abs(got - want) <= 1e-9, (got, want)


def test_w1_joint_scaling_invariance():
    rng = random.Random(107)
    for _ in range(15):
        src = random_mm_space(rng, rng.randint(1, 3), prefix="a",
                              fully_supported=True)
        tgt_base = random_metric_space(rng, rng.randint(1, 3), prefix="b")
        masses = [rng.uniform(0.1, 1.0) for _ in range(len(tgt_base.points))]
        scale = src.volume() / sum(masses)
        tgt = FiniteMMSpace(tgt_base,
                            dict(zip(tgt_base.points,
                                     (m * scale for m in masses))))
        f = random_mm_map(rng, src, tgt)
        base_cost = w1_transport(f)["cost"]
        for lam in (0.5, 2.0, 10.0):
            s2 = FiniteMMSpace(
                FiniteMetricSpace(src.base.points,
                                  [[lam * v for v in row] for row in src.base.dist]),
                {p: m / lam for p, m in src.mass.items()})
            t2 = FiniteMMSpace(
                FiniteMetricSpace(tgt.base.points,
                                  [[lam * v for v in row] for row in tgt.base.dist]),
                {p: m / lam for p, m in tgt.mass.items()})
            f2 = MMSpaceMap(s2, t2, dict(f.assign))
            assert abs(w1_transport(f2)["cost"] - base_cost) <= 1e-9


def test_kr_identity_report_is_tight():
    rng = random.Random(109)
    for _ in range(8):
        sp = random_mm_space(rng, rng.randint(2, 4), fully_supported=True)
        f = MMSpaceMap(sp, sp, {p: p for p in sp.base.points})
        report = kr_compare(f)
        assert report["lhs"] == 0.0
        assert abs(report["w1"]) <= 1e-12
        assert abs(report["hoeld_rescaled"] - 1.0) <= 1e-12
        assert abs(report["rhs"]) <= 1e-9
        assert abs(report["gap"]) <= 1e-9


def test_kr_batch_completes():
    rng = random.Random(113)
    rows = []
    for _ in range(10):
        n = rng.randint(2, 4)
        src = random_mm_space(rng, n, prefix="a", fully_supported=True)
        tgt_base = random_metric_space(rng, n, prefix="b")
        masses = [rng.uniform(0.1, 1.0) for _ in range(n)]
        scale = src.volume() / sum(masses)
        tgt = FiniteMMSpace(tgt_base,
                            dict(zip(tgt_base.points,
                                     (m * scale for m in masses))))
        # surjective assignment keeps the displayed direction finite
        perm = list(tgt_base.points)
        rng.shuffle(perm)
        f = MMSpaceMap(src, tgt, dict(zip(src.base.points, perm)))
        report = kr_compare(f)
        rows.append((report["lhs"], report["rhs"], report["gap"]))
    assert len(rows) == 10
    for lhs, rhs, gap in rows:
        assert lhs >= 0.0
        assert rhs == rhs and gap == gap  # no NaNs; sign is not asserted


def grid_pair(rng, lam):
    """Two measures with small integer weights on 2 to 4 points of the
    integer grid 0..9 x 0..9, the grid scaled by lam."""
    n = rng.randint(2, 4)
    pts = set()
    while len(pts) < n:
        pts.add((rng.randint(0, 9), rng.randint(0, 9)))
    pts = sorted(pts)
    rng.shuffle(pts)
    pts = [(lam * x, lam * y) for x, y in pts]
    dist = [[math.dist(p, q) for q in pts] for p in pts]
    base = FiniteMetricSpace(tuple("p%d" % i for i in range(n)), dist)

    def measure():
        den = rng.randint(2, 16)
        w = [rng.randint(1, den) for _ in pts]
        return FiniteMMSpace(base, {p: v / sum(w) for p, v in zip(base.points, w)})

    mu, nu = measure(), measure()
    return MMSpaceMap(mu, nu, {p: p for p in base.points})


def test_w1_margins_follow_the_cost_scale():
    # with absolute margins, rounding in path lengths near 1e6 and 1e9
    # sent the augmenting-path walk-back round a cycle for ever, or
    # failed the optimality certificate
    rng = random.Random(38)
    for lam in (1e6, 1e9):
        for _ in range(15):
            f = grid_pair(rng, lam)
            got, want = w1_transport(f)["cost"], w1_vertex_oracle(f)
            assert abs(got - want) <= 1e-9 * want, (lam, got, want)


def test_cli_w1_at_scale_1e8(tmp_path, capsys):
    from normcat import cli
    coords = [(2, 4), (1, 5), (9, 2)]
    costs = {}
    for lam in (1.0, 1e8):
        pts = [(lam * x, lam * y) for x, y in coords]
        dist = [[math.dist(p, q) for q in pts] for p in pts]
        paths = []
        for name, mass in (("mu", [1 / 15, 7 / 15, 7 / 15]), ("nu", [2 / 7, 2 / 7, 3 / 7])):
            path = tmp_path / ("%s-%g.json" % (name, lam))
            path.write_text(json.dumps({"kind": "mm_space", "points": ["p0", "p1", "p2"],
                                        "dist": dist, "mass": mass}))
            paths.append(str(path))
        assert cli.main(["dist", "--kind", "w1"] + paths) == 0
        costs[lam] = json.loads(capsys.readouterr().out)["results"][0]["value"]
    assert costs[1.0] == 0.5332428308781987
    assert abs(costs[1e8] - 1e8 * costs[1.0]) <= 1e-9 * 1e8 * costs[1.0]


def full_scan_w1(f):
    """The transport solver with the Bellman-Ford that rescans every
    source against every sink and every sink against every source on
    each pass: (cost, coupling matrix)."""
    mu, nu, assign = f.source, f.target, f.assign
    mass = max(mu.volume(), nu.volume())
    xs = [x for x in mu.base.points if mu.mass[x] > 0.0]
    ys = [y for y in nu.base.points if nu.mass[y] > 0.0]
    cost = [[nu.base.d(assign[x], y) for y in ys] for x in xs]
    nx, ny = len(xs), len(ys)
    flow = [[0.0] * ny for _ in range(nx)]
    supply = [mu.mass[x] for x in xs]
    demand = [nu.mass[y] for y in ys]
    eps = 1e-15 * max([1.0] + [v for row in cost for v in row])
    tiny = 1e-15 * mass

    def shortest_augmenting_path():
        dist = [INF] * (nx + ny)
        prev = [None] * (nx + ny)
        for i in range(nx):
            if supply[i] > tiny:
                dist[i] = 0.0
        for _ in range(nx + ny):
            changed = False
            for i in range(nx):
                if dist[i] == INF:
                    continue
                for j in range(ny):
                    nd = dist[i] + cost[i][j]
                    if nd < dist[nx + j] - eps:
                        dist[nx + j] = nd
                        prev[nx + j] = i
                        changed = True
            for j in range(ny):
                if dist[nx + j] == INF:
                    continue
                for i in range(nx):
                    if flow[i][j] > tiny:
                        nd = dist[nx + j] - cost[i][j]
                        if nd < dist[i] - eps:
                            dist[i] = nd
                            prev[i] = nx + j
                            changed = True
            if not changed:
                break
        best_j, best = None, INF
        for j in range(ny):
            if demand[j] > tiny and dist[nx + j] < best:
                best, best_j = dist[nx + j], j
        return best_j, prev

    remaining = sum(supply)
    while remaining > 1e-12 * mass:
        j, prev = shortest_augmenting_path()
        if j is None:
            break
        path = []
        node = nx + j
        bottleneck = demand[j]
        while prev[node] is not None:
            p = prev[node]
            if node >= nx:
                path.append((p, node - nx, +1))
            else:
                path.append((node, p - nx, -1))
                bottleneck = min(bottleneck, flow[node][p - nx])
            node = p
        bottleneck = min(bottleneck, supply[node])
        for i, jj, sign in path:
            flow[i][jj] += sign * bottleneck
        supply[node] -= bottleneck
        demand[j] -= bottleneck
        remaining -= bottleneck
    total = sum(flow[i][j] * cost[i][j] for i in range(nx) for j in range(ny))
    return total, {(xs[i], ys[j]): flow[i][j]
                   for i in range(nx) for j in range(ny) if flow[i][j] > 0.0}


def transport_pair(rng, n, kind):
    """A balanced pair on n points, total mass 1.

    kind "euclid": random points in the unit cube, some masses zero;
    "uniform": uniform masses; "line": integer points 0..5 on a line
    with integer weights, so equal path lengths are common; "many": a
    map sending every source point into the first third of the target.
    """
    if kind == "line":
        vals = sorted({rng.randint(0, 5) for _ in range(n)})
        n = len(vals)
        base = line_space(vals, tuple("x%d" % v for v in vals))
    else:
        base = random_metric_space(rng, n)

    def measure():
        if kind == "uniform":
            w = [1.0] * n
        elif kind == "line":
            w = [float(rng.randint(0, 3)) for _ in range(n)]
        else:
            w = [0.0 if rng.random() < 0.3 else rng.random() for _ in range(n)]
        if sum(w) == 0.0:
            w[0] = 1.0
        return FiniteMMSpace(base, {p: v / sum(w) for p, v in zip(base.points, w)})

    mu, nu = measure(), measure()
    pts = base.points
    if kind == "many":
        head = pts[:max(1, n // 3)]
        return MMSpaceMap(mu, nu, {p: rng.choice(head) for p in pts})
    return MMSpaceMap(mu, nu, {p: p for p in pts})


def test_w1_search_matches_the_full_scan_bit_for_bit():
    # the augmenting-path search rescans only labels that fell and
    # walks only loaded back edges; every decision, and so every bit
    # of the cost and the coupling, is that of the full scan
    rng = random.Random(131)
    sizes = list(range(1, 41, 3)) + [40, 40]
    for kind in ("euclid", "uniform", "line", "many"):
        for n in sizes:
            f = transport_pair(rng, n, kind)
            out = w1_transport(f)
            cost, matrix = full_scan_w1(f)
            assert repr(out["cost"]) == repr(cost), (kind, n)
            assert out["coupling"].matrix == matrix, (kind, n)


def scaled_pair(s):
    rng = random.Random(137)
    base = random_metric_space(rng, 6)
    masses = []
    for _ in range(2):
        w = [rng.random() for _ in base.points]
        masses.append([v / sum(w) for v in w])
    mu, nu = (FiniteMMSpace(base, {p: s * v for p, v in zip(base.points, w)})
              for w in masses)
    return MMSpaceMap(mu, nu, {p: p for p in base.points})


@pytest.mark.parametrize("s", [1e-13, 1e-11, 1e9, 1e12])
def test_w1_mass_cutoffs_follow_the_total_mass(s, tmp_path, capsys):
    # absolute mass cut-offs printed 0.0 at total 1e-13 and failed at 1e9
    from normcat import cli
    want = s * w1_transport(scaled_pair(1.0))["cost"]
    f = scaled_pair(s)
    got = w1_transport(f)["cost"]
    assert abs(got - want) <= 1e-9 * want, (got, want)
    paths = []
    for name, sp in (("mu", f.source), ("nu", f.target)):
        path = tmp_path / (name + ".json")
        path.write_text(json.dumps({
            "kind": "mm_space", "points": list(sp.base.points),
            "dist": sp.base.dist, "mass": [sp.mass[p] for p in sp.base.points]}))
        paths.append(str(path))
    assert cli.main(["dist", "--kind", "w1"] + paths) == 0
    value = json.loads(capsys.readouterr().out)["results"][0]["value"]
    assert abs(value - want) <= 1e-9 * want, (value, want)


def test_w1_mass_mismatch_is_relative_to_the_total():
    base = two_point_space(1.0)
    mu = FiniteMMSpace(base, {"p": 1e-13, "q": 0.0})
    nu = FiniteMMSpace(base, {"p": 0.0, "q": 2e-13})
    f = MMSpaceMap(mu, nu, {"p": "p", "q": "q"})
    with pytest.raises(MassMismatch):
        w1_transport(f)
    with pytest.raises(MassMismatch):
        w1_vertex_oracle(f)


def test_coupling_marginal_margin_follows_the_total():
    with pytest.raises(ValueError, match="row sum"):
        Coupling(("a",), ("b",), {("a", "b"): 0.4e-13}, {"a": 1e-13}, {"b": 0.4e-13})
    Coupling(("a", "c"), ("b",), {("a", "b"): 3e12, ("c", "b"): 1e12 + 1e-3},
             {"a": 3e12, "c": 1e12}, {"b": 4e12})


def test_certificate_rejects_one_corrupted_flow_entry():
    # line 0, 1, 2: the optimum ships p0 -> p0, p0 -> p1, p2 -> p1; loading
    # p2 -> p0 as well opens the negative cycle p0 -> p2 -> p1 -> p0
    base = line_space([0, 1, 2], ("p0", "p1", "p2"))
    mu = FiniteMMSpace(base, {"p0": 0.5, "p1": 0.0, "p2": 0.5})
    nu = FiniteMMSpace(base, {"p0": 0.25, "p1": 0.75, "p2": 0.0})
    coupling = w1_transport(MMSpaceMap(mu, nu, {p: p for p in base.points}))["coupling"]
    xs, ys = coupling.source_points, coupling.target_points
    assert (xs, ys) == (("p0", "p2"), ("p0", "p1"))
    cost = [[base.d(x, y) for y in ys] for x in xs]
    flow = [[coupling.matrix.get((x, y), 0.0) for y in ys] for x in xs]
    _certify_transport(cost, flow, 2, 2, 1.0)
    flow[1][0] = 0.25
    with pytest.raises(RuntimeError, match="optimality certificate failed"):
        _certify_transport(cost, flow, 2, 2, 1.0)
