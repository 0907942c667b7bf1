"""Acceptance gate: one test per criterion, named so the verbose pytest
report reads as one pass/fail line per criterion.  Every stated tolerance
and runtime bound is asserted inside the corresponding test.
"""

import csv
import itertools
import math
import random
import time

import numpy as np

from normcat.extreal import INF
from normcat.category import dual_seminorm
from normcat.capacity import check_capacity_monotone, dual_inequality_report
from normcat.discrete import (
    FiniteFunction,
    csb_witness,
    find_simplicial_isomorphism,
    simplicial_mutual_embedding,
    group_norm_category,
)
from normcat.linear import singular_values, min_gain_estimate
from normcat.metric import (
    FiniteMetricSpace,
    MultiMap,
    line_space,
    two_point_space,
    diameter,
    diameter_capacity_instance,
    dilatation_norm,
    dilatation_norm_capacity,
    dilatation_left_dual,
    codiameter_seminorm,
    dil_distance,
    gh_distance,
    find_expansive_map,
    zero_dilatation_endos,
    isometry_search,
    is_isometry,
)
from normcat.topo import (
    ContinuousPosetMap,
    discrete_space,
    sierpinski_space,
    component_seminorm,
    monotone_light_report,
    all_posets,
    all_order_preserving_maps,
)
from normcat.measure import (
    FiniteMMSpace,
    MMSpaceMap,
    prokhorov_seminorm,
    prokhorov_distance,
    prokhorov_family,
    volume_norm,
)
from normcat.wasserstein import (
    ProjectiveMMSpace,
    lipschitz_seminorm,
    wasserstein_capacity,
    wasserstein_capacity_oracle,
    w1_transport,
    w1_vertex_oracle,
    kr_compare,
)
from normcat.generate import (
    random_metric_space,
    random_function_map,
    random_multimap,
    random_mm_space,
    random_mm_map,
    random_simplicial,
    random_testfn_values,
)
from normcat.search import subsets

LOG2 = math.log(2.0)


def relabeled_permuted_copy(rng, sp, prefix):
    """An isometric copy of sp with fresh labels and shuffled point order."""
    order = list(range(len(sp.points)))
    rng.shuffle(order)
    labels = tuple("%s%d" % (prefix, i) for i in range(len(order)))
    dist = [[sp.dist[order[i]][order[j]] for j in range(len(order))]
            for i in range(len(order))]
    return FiniteMetricSpace(labels, dist)


def test_criterion_01_dilatation_forms_agree():
    rng = random.Random(101)
    t0 = time.monotonic()
    for _ in range(500):
        x = random_metric_space(rng, rng.randint(1, 5), "a")
        y = random_metric_space(rng, rng.randint(1, 5), "b")
        f = random_multimap(rng, x, y)
        assert abs(dilatation_norm(f) - dilatation_norm_capacity(f)) <= 1e-9
    assert time.monotonic() - t0 < 5.0


def test_criterion_02_counterexample_dual_one_codiameter_zero():
    f = MultiMap.from_function(line_space([0, 1, 2]), line_space([0, 2]),
                               {0: 0, 1: 2, 2: 2})
    assert dilatation_left_dual(f) == 1.0
    assert codiameter_seminorm(f) == 0.0


def test_criterion_03_dil_plus_below_twice_gh():
    rng = random.Random(103)
    t0 = time.monotonic()
    for _ in range(200):
        x = random_metric_space(rng, rng.randint(1, 4), "a")
        y = random_metric_space(rng, rng.randint(1, 4), "b")
        assert dil_distance(x, y, symmetrize="plus") <= 2.0 * gh_distance(x, y) + 1e-9
    assert gh_distance(line_space([0, 1]), line_space([0, 2])) == 0.5
    assert dil_distance(line_space([0, 1]), line_space([0, 2]),
                        symmetrize="plus") == 0.5
    assert time.monotonic() - t0 < 10.0


def test_criterion_04_zero_dilatation_rigidity():
    rng = random.Random(104)
    t0 = time.monotonic()
    for _ in range(300):
        sp = random_metric_space(rng, rng.randint(1, 6), "a")
        for endo in zero_dilatation_endos(sp):
            assert sorted(endo.values()) == sorted(sp.points)
            assert is_isometry(MultiMap.from_function(sp, sp, endo))
    both_ways = 0
    for k in range(60):
        x = random_metric_space(rng, rng.randint(1, 5), "a")
        if k % 3 == 0:
            y = relabeled_permuted_copy(rng, x, "b")
        else:
            y = random_metric_space(rng, rng.randint(1, 5), "b")
        if (find_expansive_map(x, y) is not None
                and find_expansive_map(y, x) is not None):
            both_ways += 1
            assert isometry_search(x, y) is not None
    assert both_ways >= 20
    assert time.monotonic() - t0 < 10.0


def test_criterion_05_sierpinski_bijection():
    f = ContinuousPosetMap(discrete_space(("a", "b")), sierpinski_space(),
                           {"a": "0", "b": "1"})
    assert component_seminorm(f) == LOG2
    assert monotone_light_report(f)["monotone"] is True


def test_criterion_06_closed_monotone_forces_zero_norm():
    t0 = time.monotonic()
    posets = []
    for n in range(1, 5):
        posets.extend(all_posets(n))
    qualifying = 0
    for x in posets:
        for y in posets:
            for f in all_order_preserving_maps(x, y):
                rep = monotone_light_report(f)
                if rep["closed"] and rep["monotone"]:
                    qualifying += 1
                    assert component_seminorm(f) == 0.0
    assert qualifying > 0
    assert time.monotonic() - t0 < 30.0


def test_criterion_07_prokhorov_identity_equals_distance():
    rng = random.Random(107)
    t0 = time.monotonic()
    for _ in range(200):
        sp = random_mm_space(rng, rng.randint(1, 5))
        nu = FiniteMMSpace(sp.base, {p: rng.uniform(0.0, 1.5)
                                     for p in sp.base.points})
        ident = MMSpaceMap(sp, nu, {p: p for p in sp.base.points})
        assert abs(prokhorov_seminorm(ident) - prokhorov_distance(sp, nu)) <= 1e-12
    for d, expected in ((1.0, 1.0), (0.3, 0.3)):
        base = two_point_space(d)
        mu = FiniteMMSpace(base, {"p": 1.0, "q": 0.0})
        nu = FiniteMMSpace(base, {"p": 0.0, "q": 1.0})
        assert prokhorov_distance(mu, nu) == expected
        assert prokhorov_distance(nu, mu) == expected
    for _ in range(200):
        n = rng.randint(1, 5)
        base = random_metric_space(rng, n)
        cuts = sorted(rng.random() for _ in range(n - 1))
        masses = [b - a for a, b in zip([0.0] + cuts, cuts + [1.0])]
        mu = FiniteMMSpace(base, dict(zip(base.points, masses)))
        rng.shuffle(masses)
        nu = FiniteMMSpace(base, dict(zip(base.points, masses)))
        assert abs(prokhorov_distance(mu, nu) - prokhorov_distance(nu, mu)) <= 1e-12
    assert time.monotonic() - t0 < 10.0


def test_criterion_08_volume_bound_with_equality_when_fully_supported():
    rng = random.Random(108)
    equalities = 0
    for k in range(200):
        fully = k % 2 == 0
        sp = random_mm_space(rng, rng.randint(1, 5), fully_supported=fully)
        out = volume_norm(sp)
        assert out["norm_of_initial"] <= out["volume"] + 1e-9
        if fully:
            assert abs(out["norm_of_initial"] - out["volume"]) <= 1e-9
            equalities += 1
    assert equalities == 100


def test_criterion_09_wasserstein_capacity_against_grid_oracle():
    rng = random.Random(109)
    t0 = time.monotonic()
    done = 0
    while done < 100:
        sp = random_mm_space(rng, rng.randint(2, 5), fully_supported=True)
        vals = random_testfn_values(rng, sp.base.points)
        if not (0.0 < lipschitz_seminorm(vals, sp.base) < INF):
            continue
        proj = ProjectiveMMSpace(sp)
        closed = wasserstein_capacity(proj, vals)
        got = wasserstein_capacity_oracle(proj, vals)
        assert abs(got - closed) <= 1e-3 * max(1.0, closed)
        done += 1
    flat = ProjectiveMMSpace(FiniteMMSpace(two_point_space(1.0),
                                           {"p": 1.0, "q": 1.0}))
    assert wasserstein_capacity(flat, {"p": 0.5, "q": 0.5}) == INF
    assert wasserstein_capacity_oracle(flat, {"p": 0.5, "q": 0.5}) == INF
    assert wasserstein_capacity(flat, {"p": 0.0, "q": 0.0}) == 0.0
    assert wasserstein_capacity_oracle(flat, {"p": 0.0, "q": 0.0}) == 0.0
    pseudo = FiniteMetricSpace(("a", "b"), [[0.0, 0.0], [0.0, 0.0]],
                               allow_pseudo=True)
    steep = ProjectiveMMSpace(FiniteMMSpace(pseudo, {"a": 1.0, "b": 1.0}))
    assert wasserstein_capacity(steep, {"a": 0.0, "b": 1.0}) == 0.0
    assert time.monotonic() - t0 < 10.0


def test_criterion_10_capacity_monotonicity():
    rng = random.Random(110)
    for _ in range(20):
        sp = random_metric_space(rng, rng.randint(1, 4))
        handles = [frozenset(a) for a in subsets(sp.points, nonempty=False)]
        ok, witness = check_capacity_monotone(handles, lambda a, b: a <= b,
                                              lambda h, sp=sp: diameter(sp, h))
        assert ok, witness
    for _ in range(20):
        sp = random_mm_space(rng, rng.randint(1, 4))
        ok, witness = check_capacity_monotone(*prokhorov_family(sp, [0.0, 0.4, sp.volume()]))
        assert ok, witness
    for _ in range(500):
        sp = random_mm_space(rng, rng.randint(2, 5), fully_supported=True)
        phi = random_testfn_values(rng, sp.base.points)
        top = max(phi.values())
        t = rng.random()
        psi = {p: (1.0 - t) * v + t * top for p, v in phi.items()}
        proj = ProjectiveMMSpace(sp)
        a, b = wasserstein_capacity(proj, phi), wasserstein_capacity(proj, psi)
        assert a <= b or abs(a - b) <= 1e-9
    assert True


def _surjective_multimap(rng, src, tgt):
    assign = list(tgt.points)
    while len(assign) < len(src.points):
        assign.append(rng.choice(tgt.points))
    rng.shuffle(assign)
    return MultiMap.from_function(src, tgt, dict(zip(src.points, assign)))


def test_criterion_11_dual_inequalities_hold_on_corpus():
    rng = random.Random(111)
    for t in range(12):
        sizes = sorted((rng.randint(2, 4) for _ in range(3)), reverse=True)
        spaces = {"s%d" % i: random_metric_space(rng, sizes[i], "s%d_" % i)
                  for i in range(3)}
        f0 = _surjective_multimap(rng, spaces["s0"], spaces["s1"])
        if t % 2 == 0:
            f1 = _surjective_multimap(rng, spaces["s1"], spaces["s2"])
            annih = ("f0", "f1")
        else:
            f1 = random_function_map(rng, spaces["s1"], spaces["s2"])
            annih = ("f0",)
        inst, _ = diameter_capacity_instance(
            spaces, {"f0": f0, "f1": f1},
            annihilated=annih, attach_pullbacks=annih)
        rep = dual_inequality_report(inst)
        assert rep.ok, rep.violations
    for n in range(2, 9):
        cat, norms = group_norm_category(n)
        for side in ("left", "right"):
            dual = dual_seminorm(cat, norms, side)
            assert all(dual[m] == norms[m] for m in norms)


def test_criterion_12_transport_matches_vertex_enumeration():
    rng = random.Random(112)
    for nx in (1, 2, 3):
        for ny in (1, 2, 3):
            for _ in range(12):
                src = random_mm_space(rng, nx, prefix="a", fully_supported=True)
                tgt_base = random_metric_space(rng, ny, prefix="b")
                masses = [rng.uniform(0.1, 1.0) for _ in range(ny)]
                scale = src.volume() / sum(masses)
                tgt = FiniteMMSpace(tgt_base, dict(zip(
                    tgt_base.points, (m * scale for m in masses))))
                f = random_mm_map(rng, src, tgt)
                assert abs(w1_transport(f)["cost"] - w1_vertex_oracle(f)) <= 1e-9
    for d in (0.3, 1.0, 5.0):
        base = two_point_space(d)
        mu = FiniteMMSpace(base, {"p": 1.0, "q": 0.0})
        nu = FiniteMMSpace(base, {"p": 0.0, "q": 1.0})
        ident = MMSpaceMap(mu, nu, {p: p for p in base.points})
        assert w1_transport(ident)["cost"] == d


def test_criterion_13_csb_and_simplicial_zero_norm_isomorphism():
    for n in range(1, 5):
        src = tuple(range(n))
        tgt = tuple("wxyz"[:n])
        for fv in itertools.permutations(tgt):
            f = FiniteFunction(src, tgt, dict(zip(src, fv)))
            for gv in itertools.permutations(src):
                g = FiniteFunction(tgt, src, dict(zip(tgt, gv)))
                bij = csb_witness(f, g)
                assert sorted(bij) == sorted(src)
                assert sorted(bij.values()) == sorted(tgt)
    rng = random.Random(113)
    hits = 0
    for k in range(60):
        x = random_simplicial(rng, rng.randint(1, 5), prefix="u")
        if k % 3 == 0:
            perm = list(x.vertices)
            rng.shuffle(perm)
            relabel = {v: "w%d" % i for i, v in enumerate(perm)}
            y = type(x)(tuple(relabel[v] for v in x.vertices),
                        frozenset(frozenset(relabel[v] for v in s)
                                  for s in x.simplices))
        else:
            y = random_simplicial(rng, rng.randint(1, 5), prefix="w")
        if simplicial_mutual_embedding(x, y) is not None:
            assert find_simplicial_isomorphism(x, y) is not None
            hits += 1
    assert hits >= 15


def test_criterion_14_operator_norm_against_sphere_oracle():
    rng = np.random.default_rng(114)
    for k in range(50):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(n, 5))
        u, _ = np.linalg.qr(rng.standard_normal((m, n)))
        v, _ = np.linalg.qr(rng.standard_normal((n, n)))
        s = rng.uniform(0.6, 1.6, size=n)
        a = u @ np.diag(s) @ v.T
        sigma = singular_values(a.tolist())
        smin = sigma[-1]
        assert smin > 0.0
        est = min_gain_estimate(a.tolist(), samples=100000, seed=k)
        assert abs(1.0 / est - 1.0 / smin) <= 0.01 * (1.0 / smin)


def test_criterion_15_kr_harness_emits_csv(tmp_path):
    rng = random.Random(115)
    rows = []
    for _ in range(50):
        ny = rng.randint(1, 3)
        nx = rng.randint(ny, 4)
        src = random_mm_space(rng, nx, prefix="a", fully_supported=True)
        tgt_base = random_metric_space(rng, ny, prefix="b")
        masses = [rng.uniform(0.1, 1.0) for _ in range(ny)]
        scale = src.volume() / sum(masses)
        tgt = FiniteMMSpace(tgt_base, dict(zip(
            tgt_base.points, (m * scale for m in masses))))
        assign = list(tgt_base.points)
        while len(assign) < nx:
            assign.append(rng.choice(tgt_base.points))
        rng.shuffle(assign)
        f = MMSpaceMap(src, tgt, dict(zip(src.base.points, assign)))
        out = kr_compare(f)
        rows.append((out["lhs"], out["rhs"], out["gap"]))
    path = tmp_path / "kr_compare.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["lhs", "rhs", "gap"])
        for lhs, rhs, gap in rows:
            w.writerow([repr(float(lhs)), repr(float(rhs)), repr(float(gap))])
    with open(path, newline="", encoding="utf-8") as fh:
        got = list(csv.reader(fh))
    assert got[0] == ["lhs", "rhs", "gap"]
    assert len(got) == 51
    for row in got[1:]:
        assert len(row) == 3
        for cell in row:
            float(cell)
