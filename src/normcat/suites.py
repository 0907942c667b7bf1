"""Seeded property suites behind the `check` command.

Each suite returns rows {"name", "ok", "detail"}; a failing row carries
its counterexample in the detail string.  A row is a check(rng, cases)
returning (False, the counterexample) or (True, its passing detail),
and a suite's checks run in order on one random.Random(seed), so a
(suite, cases, seed) triple is reproducible.
"""

import random

from . import SUITE_NAMES
from .extreal import INF
from .category import check_seminorm_axioms, compose_maps, dual_seminorm
from .capacity import check_capacity_monotone, dual_inequality_report
from .discrete import group_norm_category
from .metric import (FiniteMetricSpace, MultiMap, dilatation_norm,
                     dilatation_norm_capacity, gh_distance, gh_correspondence_oracle,
                     dil_distance, diameter_capacity_instance)
from .topo import (component_seminorm, component_capacity_form, monotone_light_report,
                   all_order_preserving_maps)
from .measure import (FiniteMMSpace, MMSpaceMap, prokhorov_seminorm,
                      prokhorov_distance, prokhorov_family, volume_norm)
from .wasserstein import (ProjectiveMMSpace, wasserstein_capacity, wasserstein_capacity_oracle,
                          w1_transport, w1_vertex_oracle)
from .generate import (random_metric_space, random_multimap, random_mm_space, random_mm_map,
                       random_poset, random_testfn_values)


def _rows(seed, cases, checks):
    """The rows of (name, check) pairs, run in order on one random.Random(seed)."""
    rng = random.Random(seed)
    rows = []
    for name, check in checks:
        ok, detail = check(rng, cases)
        rows.append({"name": name, "ok": ok, "detail": detail})
    return rows


def _cyclic():
    """(ok, detail) of the axioms row and of the duals row, from one pass
    over the two-sided-norm categories of Z/n, n = 2..6."""
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
    return ((not bad_axioms, "; ".join(bad_axioms) or "n=2..6"),
            (not bad_duals, "; ".join(bad_duals) or "exact"))


def _surjective_map(rng, src, tgt):
    """A random single-valued map of src onto tgt, which has no more points."""
    pts = list(tgt.points)
    assign = list(pts)
    while len(assign) < len(src.points):
        assign.append(rng.choice(pts))
    rng.shuffle(assign)
    return MultiMap.from_function(src, tgt, dict(zip(src.points, assign)))


def _metric_dual_inequalities(rng, cases):
    bad = []
    runs = max(1, cases // 10)
    for t in range(runs):
        # sizes fall along s0 -> s1 -> s2, so both generators are onto
        sizes = sorted(rng.randint(2, 4) for _ in range(3))[::-1]
        spaces = [random_metric_space(rng, sizes[i], prefix="s%d_" % i) for i in range(3)]
        gens = {"f%d" % i: _surjective_map(rng, spaces[i], spaces[i + 1]) for i in range(2)}
        inst, _ = diameter_capacity_instance(
            {"s%d" % i: sp for i, sp in enumerate(spaces)}, gens,
            annihilated=list(gens), attach_pullbacks=list(gens))
        rep = dual_inequality_report(inst)
        if not rep.ok:
            bad.append("run %d: %s" % (t, rep.violations[:2]))
    return not bad, "; ".join(bad) or "%d instances" % runs


def suite_core(seed, cases):
    axioms, duals = _cyclic()
    return _rows(seed, cases, [
        ("cyclic-categories-satisfy-axioms", lambda rng, cases: axioms),
        ("cyclic-duals-equal-norm", lambda rng, cases: duals),
        ("metric-instances-satisfy-dual-inequalities", _metric_dual_inequalities),
    ])


def _dilatation_forms_agree(rng, cases):
    for _ in range(cases):
        x = random_metric_space(rng, rng.randint(1, 5), prefix="a")
        y = random_metric_space(rng, rng.randint(1, 5), prefix="b")
        f = random_multimap(rng, x, y)
        a, b = dilatation_norm(f), dilatation_norm_capacity(f)
        if abs(a - b) > 1e-9:
            return False, "forms differ %r vs %r on %r" % (a, b, f.assign)
    return True, "%d maps" % cases


def _dilatation_subadditive(rng, cases):
    for _ in range(cases):
        x = random_metric_space(rng, rng.randint(1, 4), prefix="a")
        y = random_metric_space(rng, rng.randint(1, 4), prefix="b")
        z = random_metric_space(rng, rng.randint(1, 4), prefix="c")
        f = random_multimap(rng, x, y)
        g = random_multimap(rng, y, z)
        lhs = dilatation_norm(compose_maps(g, f))
        rhs = dilatation_norm(f) + dilatation_norm(g)
        if lhs > rhs + 1e-9:
            return False, "composition %r > %r + %r" % (lhs, dilatation_norm(f),
                                                        dilatation_norm(g))
    return True, "%d triples" % cases


def _gh_matches_oracle(rng, cases):
    runs = max(1, cases // 10)
    for _ in range(runs):
        x = random_metric_space(rng, rng.randint(1, 3), prefix="a")
        y = random_metric_space(rng, rng.randint(1, 4), prefix="b")
        a, b = gh_distance(x, y), gh_correspondence_oracle(x, y)
        if abs(a - b) > 1e-12:
            return False, "gh %r vs oracle %r" % (a, b)
    return True, "%d pairs" % runs


def _dil_plus_below_twice_gh(rng, cases):
    for _ in range(cases):
        x = random_metric_space(rng, rng.randint(1, 4), prefix="a")
        y = random_metric_space(rng, rng.randint(1, 4), prefix="b")
        if dil_distance(x, y, symmetrize="plus") > 2.0 * gh_distance(x, y) + 1e-9:
            return False, "dil-plus exceeds 2gh on %r, %r" % (x.points, y.points)
    return True, "%d pairs" % cases


def suite_metric(seed, cases):
    return _rows(seed, cases, [
        ("dilatation-forms-agree", _dilatation_forms_agree),
        ("dilatation-subadditive", _dilatation_subadditive),
        ("gh-matches-correspondence-oracle", _gh_matches_oracle),
        ("dil-plus-below-twice-gh", _dil_plus_below_twice_gh),
    ])


def _onto_poset_maps(rng):
    """The order-preserving maps of a random poset onto one with no more
    points, shuffled.  No fibre is empty, so the component seminorm is
    finite and the rows compare finite values."""
    x = random_poset(rng, rng.randint(1, 5), prefix="a")
    y = random_poset(rng, rng.randint(1, len(x.points)), prefix="b")
    maps = [f for f in all_order_preserving_maps(x, y)
            if set(f.assign.values()) == set(y.points)]
    rng.shuffle(maps)
    return maps


def _component_forms_agree(rng, cases):
    checked = 0
    for _ in range(max(1, cases // 4)):
        for f in _onto_poset_maps(rng)[:6]:
            checked += 1
            a, b = component_seminorm(f), component_capacity_form(f)
            if abs(a - b) > 1e-9:
                return False, "forms differ %r vs %r on %r" % (a, b, f.assign)
    return True, "%d maps" % checked


def _closed_monotone_implies_zero(rng, cases):
    hits = 0
    for _ in range(max(1, cases // 4)):
        x = random_poset(rng, rng.randint(1, 4), prefix="a")
        y = random_poset(rng, rng.randint(1, 4), prefix="b")
        for f in all_order_preserving_maps(x, y):
            rep = monotone_light_report(f)
            if rep["closed"] and rep["monotone"]:
                hits += 1
                if component_seminorm(f) != 0.0:
                    return False, "closed monotone map with norm %r: %r" % (
                        component_seminorm(f), f.assign)
    return True, "%d qualifying maps" % hits


def _monotone_defect_below_norm(rng, cases):
    checked = 0
    for _ in range(max(1, cases // 4)):
        for f in _onto_poset_maps(rng)[:6]:
            checked += 1
            rep = monotone_light_report(f)
            if rep["mon_defect"] > component_seminorm(f) + 1e-9:
                return False, "defect %r above norm %r" % (rep["mon_defect"],
                                                           component_seminorm(f))
    return True, "%d maps" % checked


def suite_topo(seed, cases):
    return _rows(seed, cases, [
        ("component-forms-agree", _component_forms_agree),
        ("closed-monotone-implies-zero", _closed_monotone_implies_zero),
        ("monotone-defect-below-norm", _monotone_defect_below_norm),
    ])


def _identity_seminorm_equals_distance(rng, cases):
    for _ in range(cases):
        sp = random_mm_space(rng, rng.randint(1, 5))
        nu = FiniteMMSpace(sp.base, {p: rng.uniform(0.0, 1.5)
                                     for p in sp.base.points})
        ident = MMSpaceMap(sp, nu, {p: p for p in sp.base.points})
        a = prokhorov_seminorm(ident)
        b = prokhorov_distance(sp, nu)
        if abs(a - b) > 1e-12:
            return False, "seminorm %r vs distance %r" % (a, b)
    return True, "%d spaces" % cases


def _prokhorov_capacity_monotone(rng, cases):
    runs = max(1, cases // 10)
    for _ in range(runs):
        sp = random_mm_space(rng, rng.randint(1, 4))
        ok, witness = check_capacity_monotone(*prokhorov_family(sp, [0.0, 0.5, sp.volume()]))
        if not ok:
            return False, "monotonicity witness %r" % (witness,)
    return True, "%d families" % runs


def _prokhorov_seminorm_subadditive(rng, cases):
    for _ in range(cases):
        a = random_mm_space(rng, rng.randint(1, 4), prefix="a")
        b = random_mm_space(rng, rng.randint(1, 4), prefix="b")
        c = random_mm_space(rng, rng.randint(1, 4), prefix="c")
        f = random_mm_map(rng, a, b)
        g = random_mm_map(rng, b, c)
        lhs = prokhorov_seminorm(compose_maps(g, f))
        rhs = prokhorov_seminorm(f) + prokhorov_seminorm(g)
        if lhs > rhs + 1e-12:
            return False, "composition %r > %r" % (lhs, rhs)
    return True, "%d triples" % cases


def _initial_norm_below_volume(rng, cases):
    for _ in range(cases):
        sp = random_mm_space(rng, rng.randint(1, 5))
        out = volume_norm(sp)
        if out["norm_of_initial"] > out["volume"] + 1e-9:
            return False, "initial norm %r above volume %r" % (out["norm_of_initial"],
                                                               out["volume"])
    return True, "%d spaces" % cases


def suite_measure(seed, cases):
    return _rows(seed, cases, [
        ("identity-seminorm-equals-distance", _identity_seminorm_equals_distance),
        ("prokhorov-capacity-monotone", _prokhorov_capacity_monotone),
        ("prokhorov-seminorm-subadditive", _prokhorov_seminorm_subadditive),
        ("initial-norm-below-volume", _initial_norm_below_volume),
    ])


def _capacity_matches_grid_oracle(rng, cases):
    for _ in range(cases):
        sp = random_mm_space(rng, rng.randint(2, 5), fully_supported=True)
        vals = random_testfn_values(rng, sp.base.points)
        proj = ProjectiveMMSpace(sp)
        closed = wasserstein_capacity(proj, vals)
        if closed == INF:
            continue
        got = wasserstein_capacity_oracle(proj, vals)
        if abs(got - closed) > 1e-3 * max(1.0, closed):
            return False, "oracle %r vs closed %r" % (got, closed)
    return True, "%d instances" % cases


def _capacity_monotone_in_testfn_order(rng, cases):
    for _ in range(cases):
        sp = random_mm_space(rng, rng.randint(2, 5), fully_supported=True)
        phi = random_testfn_values(rng, sp.base.points)
        top = max(phi.values())
        t = rng.random()
        psi = {p: (1.0 - t) * v + t * top for p, v in phi.items()}
        proj = ProjectiveMMSpace(sp)
        a, b = wasserstein_capacity(proj, phi), wasserstein_capacity(proj, psi)
        if not (a <= b or abs(a - b) <= 1e-9):
            return False, "capacity fell from %r to %r" % (a, b)
    return True, "%d pairs" % cases


def _transport_matches_vertex_oracle(rng, cases):
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
            return False, "solver %r vs vertices %r" % (a, b)
    return True, "%d instances" % runs


def _capacity_scaling_invariant(rng, cases):
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
                    return False, "scaling broke the infinite case"
            elif abs(got - base_val) > 1e-9:
                return False, "capacity moved from %r to %r at lam %r" % (base_val, got, lam)
    return True, "3 scales each"


def suite_wasserstein(seed, cases):
    return _rows(seed, cases, [
        ("capacity-matches-grid-oracle", _capacity_matches_grid_oracle),
        ("capacity-monotone-in-testfn-order", _capacity_monotone_in_testfn_order),
        ("transport-matches-vertex-oracle", _transport_matches_vertex_oracle),
        ("capacity-scaling-invariant", _capacity_scaling_invariant),
    ])


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
