"""Seeded property suites behind the `check` command.

Each suite returns rows {"name", "ok", "detail"}; a failing row carries
its counterexample in the detail string.  All randomness comes from one
random.Random per suite, so a (suite, cases, seed) triple is
reproducible.
"""

import random

from . import SUITE_NAMES
from .extreal import INF
from .category import check_seminorm_axioms, dual_seminorm
from .capacity import check_capacity_monotone, dual_inequality_report
from .discrete import group_norm_category
from .metric import (
    FiniteMetricSpace,
    MultiMap,
    compose_multimaps,
    dilatation_norm,
    dilatation_norm_capacity,
    gh_distance,
    gh_correspondence_oracle,
    dil_distance,
    diameter_capacity_instance,
)
from .topo import (
    component_seminorm,
    component_capacity_form,
    monotone_light_report,
    all_order_preserving_maps,
)
from .measure import (
    FiniteMMSpace,
    MMSpaceMap,
    compose_mm_maps,
    prokhorov_seminorm,
    prokhorov_distance,
    prokhorov_family,
    volume_norm,
)
from .wasserstein import (
    ProjectiveMMSpace,
    wasserstein_capacity,
    wasserstein_capacity_oracle,
    w1_transport,
    w1_vertex_oracle,
)
from .generate import (
    random_metric_space,
    random_multimap,
    random_function_map,
    random_mm_space,
    random_mm_map,
    random_poset,
    random_testfn_values,
)


def _row(name, ok, detail):
    return {"name": name, "ok": bool(ok), "detail": detail}


def _surjective_map(rng, src, tgt):
    pts = list(tgt.points)
    if len(src.points) < len(pts):
        return None
    assign = list(pts)
    while len(assign) < len(src.points):
        assign.append(rng.choice(pts))
    rng.shuffle(assign)
    return MultiMap.from_function(src, tgt, dict(zip(src.points, assign)))


def suite_core(seed, cases):
    rng = random.Random(seed)
    rows = []

    bad_axioms, bad_duals = [], []
    for n in range(2, 7):
        cat, norms = group_norm_category(n)
        rep = check_seminorm_axioms(cat, norms)
        if not rep.ok:
            bad_axioms.append("n=%d: %s %s" % (n, rep.n1_violations[:2], rep.n2_violations[:2]))
        for side in ("left", "right"):
            dual = dual_seminorm(cat, norms, side)
            gap = max(abs(dual[m] - norms[m]) for m in norms)
            if gap > 0.0:
                bad_duals.append("n=%d %s gap %g" % (n, side, gap))
    rows.append(_row("cyclic-categories-satisfy-axioms", not bad_axioms,
                     "; ".join(bad_axioms) or "n=2..6"))
    rows.append(_row("cyclic-duals-equal-norm", not bad_duals, "; ".join(bad_duals) or "exact"))

    bad = []
    runs = max(1, cases // 10)
    for t in range(runs):
        sizes = sorted(rng.randint(2, 4) for _ in range(3))[::-1]
        spaces = [random_metric_space(rng, sizes[i], prefix="s%d_" % i)
                  for i in range(3)]
        gens, names = [], []
        for i in range(2):
            f = _surjective_map(rng, spaces[i], spaces[i + 1])
            if f is None:
                f = random_function_map(rng, spaces[i], spaces[i + 1])
            gens.append(f)
            names.append("f%d" % i)
        annih = [n for n, g in zip(names, gens) if g.single_valued
                 and set(y for ys in g.assign.values() for y in ys) == set(g.target.points)]
        inst, _ = diameter_capacity_instance(
            {"s%d" % i: sp for i, sp in enumerate(spaces)},
            dict(zip(names, gens)), annihilated=annih,
            attach_pullbacks=annih)
        rep = dual_inequality_report(inst)
        if not rep.ok:
            bad.append("run %d: %s" % (t, rep.violations[:2]))
    rows.append(_row("metric-instances-satisfy-dual-inequalities",
                     not bad, "; ".join(map(str, bad)) or "%d instances" % runs))
    return rows


def suite_metric(seed, cases):
    rng = random.Random(seed)
    rows = []

    bad = None
    for _ in range(cases):
        x = random_metric_space(rng, rng.randint(1, 5), prefix="a")
        y = random_metric_space(rng, rng.randint(1, 5), prefix="b")
        f = random_multimap(rng, x, y)
        a, b = dilatation_norm(f), dilatation_norm_capacity(f)
        if abs(a - b) > 1e-9:
            bad = "forms differ %r vs %r on %r" % (a, b, f.assign)
            break
    rows.append(_row("dilatation-forms-agree", bad is None, bad or "%d maps" % cases))

    bad = None
    for _ in range(cases):
        x = random_metric_space(rng, rng.randint(1, 4), prefix="a")
        y = random_metric_space(rng, rng.randint(1, 4), prefix="b")
        z = random_metric_space(rng, rng.randint(1, 4), prefix="c")
        f = random_multimap(rng, x, y)
        g = random_multimap(rng, y, z)
        lhs = dilatation_norm(compose_multimaps(g, f))
        rhs = dilatation_norm(f) + dilatation_norm(g)
        if lhs > rhs + 1e-9:
            bad = "composition %r > %r + %r" % (lhs, dilatation_norm(f), dilatation_norm(g))
            break
    rows.append(_row("dilatation-subadditive", bad is None, bad or "%d triples" % cases))

    bad = None
    runs = max(1, cases // 10)
    for _ in range(runs):
        x = random_metric_space(rng, rng.randint(1, 3), prefix="a")
        y = random_metric_space(rng, rng.randint(1, 4), prefix="b")
        a, b = gh_distance(x, y), gh_correspondence_oracle(x, y)
        if abs(a - b) > 1e-12:
            bad = "gh %r vs oracle %r" % (a, b)
            break
    rows.append(_row("gh-matches-correspondence-oracle", bad is None,
                     bad or "%d pairs" % runs))

    bad = None
    for _ in range(cases):
        x = random_metric_space(rng, rng.randint(1, 4), prefix="a")
        y = random_metric_space(rng, rng.randint(1, 4), prefix="b")
        if dil_distance(x, y, symmetrize="plus") > 2.0 * gh_distance(x, y) + 1e-9:
            bad = "dil-plus exceeds 2gh on %r, %r" % (x.points, y.points)
            break
    rows.append(_row("dil-plus-below-twice-gh", bad is None, bad or "%d pairs" % cases))
    return rows


def suite_topo(seed, cases):
    rng = random.Random(seed)
    rows = []

    bad = None
    checked = 0
    for _ in range(max(1, cases // 4)):
        x = random_poset(rng, rng.randint(1, 5), prefix="a")
        y = random_poset(rng, rng.randint(1, 5), prefix="b")
        maps = all_order_preserving_maps(x, y)
        rng.shuffle(maps)
        for f in maps[:6]:
            checked += 1
            a, b = component_seminorm(f), component_capacity_form(f)
            if a != b and abs(a - b) > 1e-9:
                bad = "forms differ %r vs %r on %r" % (a, b, f.assign)
                break
        if bad:
            break
    rows.append(_row("component-forms-agree", bad is None, bad or "%d maps" % checked))

    bad = None
    hits = 0
    for _ in range(max(1, cases // 4)):
        x = random_poset(rng, rng.randint(1, 4), prefix="a")
        y = random_poset(rng, rng.randint(1, 4), prefix="b")
        for f in all_order_preserving_maps(x, y):
            rep = monotone_light_report(f)
            if rep["closed"] and rep["monotone"]:
                hits += 1
                if component_seminorm(f) != 0.0:
                    bad = "closed monotone map with norm %r: %r" % (
                        component_seminorm(f), f.assign)
                    break
        if bad:
            break
    rows.append(_row("closed-monotone-implies-zero", bad is None,
                     bad or "%d qualifying maps" % hits))

    bad = None
    checked = 0
    for _ in range(max(1, cases // 4)):
        x = random_poset(rng, rng.randint(1, 5), prefix="a")
        y = random_poset(rng, rng.randint(1, 5), prefix="b")
        maps = all_order_preserving_maps(x, y)
        rng.shuffle(maps)
        for f in maps[:6]:
            checked += 1
            rep = monotone_light_report(f)
            if rep["mon_defect"] > component_seminorm(f) + 1e-9:
                bad = "defect %r above norm %r" % (rep["mon_defect"],
                                                   component_seminorm(f))
                break
        if bad:
            break
    rows.append(_row("monotone-defect-below-norm", bad is None,
                     bad or "%d maps" % checked))
    return rows


def suite_measure(seed, cases):
    rng = random.Random(seed)
    rows = []

    bad = None
    for _ in range(cases):
        sp = random_mm_space(rng, rng.randint(1, 5))
        nu = FiniteMMSpace(sp.base, {p: rng.uniform(0.0, 1.5)
                                     for p in sp.base.points})
        ident = MMSpaceMap(sp, nu, {p: p for p in sp.base.points})
        a = prokhorov_seminorm(ident)
        b = prokhorov_distance(sp, nu)
        if abs(a - b) > 1e-12:
            bad = "seminorm %r vs distance %r" % (a, b)
            break
    rows.append(_row("identity-seminorm-equals-distance", bad is None,
                     bad or "%d spaces" % cases))

    bad = None
    runs = max(1, cases // 10)
    for _ in range(runs):
        sp = random_mm_space(rng, rng.randint(1, 4))
        ok, witness = check_capacity_monotone(*prokhorov_family(sp, [0.0, 0.5, sp.volume()]))
        if not ok:
            bad = "monotonicity witness %r" % (witness,)
            break
    rows.append(_row("prokhorov-capacity-monotone", bad is None,
                     bad or "%d families" % runs))

    bad = None
    for _ in range(cases):
        a = random_mm_space(rng, rng.randint(1, 4), prefix="a")
        b = random_mm_space(rng, rng.randint(1, 4), prefix="b")
        c = random_mm_space(rng, rng.randint(1, 4), prefix="c")
        f = random_mm_map(rng, a, b)
        g = random_mm_map(rng, b, c)
        lhs = prokhorov_seminorm(compose_mm_maps(g, f))
        rhs = prokhorov_seminorm(f) + prokhorov_seminorm(g)
        if lhs > rhs + 1e-12:
            bad = "composition %r > %r" % (lhs, rhs)
            break
    rows.append(_row("prokhorov-seminorm-subadditive", bad is None,
                     bad or "%d triples" % cases))

    bad = None
    for _ in range(cases):
        sp = random_mm_space(rng, rng.randint(1, 5))
        out = volume_norm(sp)
        if out["norm_of_initial"] > out["volume"] + 1e-9:
            bad = "initial norm %r above volume %r" % (out["norm_of_initial"],
                                                       out["volume"])
            break
    rows.append(_row("initial-norm-below-volume", bad is None,
                     bad or "%d spaces" % cases))
    return rows


def suite_wasserstein(seed, cases):
    rng = random.Random(seed)
    rows = []

    bad = None
    for _ in range(cases):
        sp = random_mm_space(rng, rng.randint(2, 5), fully_supported=True)
        vals = random_testfn_values(rng, sp.base.points)
        proj = ProjectiveMMSpace(sp)
        closed = wasserstein_capacity(proj, vals)
        if closed == INF:
            continue
        got = wasserstein_capacity_oracle(proj, vals)
        if abs(got - closed) > 1e-3 * max(1.0, closed):
            bad = "oracle %r vs closed %r" % (got, closed)
            break
    rows.append(_row("capacity-matches-grid-oracle", bad is None,
                     bad or "%d instances" % cases))

    bad = None
    for _ in range(cases):
        sp = random_mm_space(rng, rng.randint(2, 5), fully_supported=True)
        phi = random_testfn_values(rng, sp.base.points)
        top = max(phi.values())
        t = rng.random()
        psi = {p: (1.0 - t) * v + t * top for p, v in phi.items()}
        proj = ProjectiveMMSpace(sp)
        a, b = wasserstein_capacity(proj, phi), wasserstein_capacity(proj, psi)
        if not (a <= b or abs(a - b) <= 1e-9):
            bad = "capacity fell from %r to %r" % (a, b)
            break
    rows.append(_row("capacity-monotone-in-testfn-order", bad is None,
                     bad or "%d pairs" % cases))

    bad = None
    runs = max(1, cases // 5)
    for _ in range(runs):
        nx, ny = rng.randint(1, 3), rng.randint(1, 3)
        src = random_mm_space(rng, nx, prefix="a", fully_supported=True)
        tgt_base = random_metric_space(rng, ny, prefix="b")
        masses = [rng.uniform(0.1, 1.0) for _ in range(ny)]
        scale = src.volume() / sum(masses)
        tgt = FiniteMMSpace(tgt_base, dict(zip(tgt_base.points,
                                               (m * scale for m in masses))))
        f = random_mm_map(rng, src, tgt)
        a = w1_transport(f)["cost"]
        b = w1_vertex_oracle(f)
        if abs(a - b) > 1e-9:
            bad = "solver %r vs vertices %r" % (a, b)
            break
    rows.append(_row("transport-matches-vertex-oracle", bad is None,
                     bad or "%d instances" % runs))

    bad = None
    for _ in range(max(1, cases // 2)):
        sp = random_mm_space(rng, rng.randint(2, 4), fully_supported=True)
        vals = random_testfn_values(rng, sp.base.points)
        base_val = wasserstein_capacity(ProjectiveMMSpace(sp), vals)
        for lam in (0.5, 2.0, 10.0):
            scaled = FiniteMMSpace(
                FiniteMetricSpace(sp.base.points,
                                  [[lam * v for v in row] for row in sp.base.dist]),
                {p: m / lam for p, m in sp.mass.items()})
            got = wasserstein_capacity(ProjectiveMMSpace(scaled), vals)
            if base_val == INF:
                if got != INF:
                    bad = "scaling broke the infinite case"
                    break
            elif abs(got - base_val) > 1e-9:
                bad = "capacity moved from %r to %r at lam %r" % (base_val, got, lam)
                break
        if bad:
            break
    rows.append(_row("capacity-scaling-invariant", bad is None,
                     bad or "3 scales each"))
    return rows


def run_suite(name, seed, cases):
    """Rows for one named suite, or for all of them concatenated."""
    table = {
        "core": suite_core,
        "metric": suite_metric,
        "topo": suite_topo,
        "measure": suite_measure,
        "wasserstein": suite_wasserstein,
    }
    if name == "all":
        rows = []
        for key in SUITE_NAMES:
            for row in table[key](seed, cases):
                rows.append(dict(row, name="%s/%s" % (key, row["name"])))
        return rows
    if name not in table:
        raise ValueError("unknown suite %r" % (name,))
    return table[name](seed, cases)
