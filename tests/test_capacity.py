"""Capacity-induced seminorms, co-seminorms and the dual inequality report."""

import random

from normcat.extreal import INF, NEG_INF, ext_log, sup0
from normcat.category import FiniteCategory
from normcat.capacity import (
    CapacityInstance,
    capacity_norms,
    check_capacity_monotone,
    dual_inequality_report,
)
from normcat.discrete import FiniteFunction, set_norm
from normcat.generate import random_metric_space, random_mm_space
from normcat.measure import prokhorov_family
from normcat.metric import diameter
from normcat.search import subsets

from test_laws import loop_validate_order


def numeric_diameter(A):
    """Diameter of a set of reals."""
    return sup0(abs(a - b) for a in A for b in A)


def subset_handles(points):
    return [frozenset(a) for a in subsets(points, nonempty=False)]


def inclusion(a, b):
    return a <= b


def preimage_of(assign):
    """Preimage operation of a single-valued map {x: f(x)}."""
    return lambda C: frozenset(x for x in assign if assign[x] in C)


def norms_of(assign, target):
    return capacity_norms(subset_handles(target), preimage_of(assign),
                          numeric_diameter, numeric_diameter)


def two_object_instance(assign, target, annihilated=()):
    """X --f--> Y with f = assign, carrying the numeric diameter's norms."""
    source = tuple(assign)
    mors = [("idX", "X", "X"), ("idY", "Y", "Y"), ("f", "X", "Y")]
    comp = {("idX", "idX"): "idX", ("idY", "idY"): "idY",
            ("f", "idX"): "f", ("idY", "f"): "f"}
    cat = FiniteCategory(["X", "Y"], mors, {"X": "idX", "Y": "idY"}, comp)
    norms = {"idX": norms_of({x: x for x in source}, source),
             "idY": norms_of({y: y for y in target}, target),
             "f": norms_of(assign, target)}
    return CapacityInstance(category=cat, norms=norms, annihilated=annihilated)


# X = {0,1,2} on the line, Y = {0,2}; f sends 0 to 0 and 1, 2 to 2
COLLAPSE = {0: 0, 1: 2, 2: 2}


def test_subset_order_is_valid():
    hs = subset_handles((0, 1, 2))
    loop_validate_order(hs, inclusion)
    assert len(hs) == 8


def test_diameter_capacity_is_monotone():
    ok, witness = check_capacity_monotone(subset_handles((0, 1, 2)), inclusion,
                                          numeric_diameter)
    assert ok and witness is None


def test_monotonicity_failure_produces_witness():
    ok, witness = check_capacity_monotone(subset_handles((0, 1)), inclusion,
                                          lambda A: -float(len(A)))
    assert not ok
    small, large, c_small, c_large = witness
    assert small <= large and c_small > c_large


def test_collapse_map_seminorm_is_dilatation_value():
    # A = {2} pulls back to {1,2} with diameter 1
    assert norms_of(COLLAPSE, (0, 2))[0] == 1.0


def test_collapse_map_coseminorm_vanishes():
    # every subset of {0,2} with nonempty preimage pulls back to something
    # at least as wide, so the capacity never drops
    assert norms_of(COLLAPSE, (0, 2))[1] == 0.0


def test_doubling_map_coseminorm():
    sem, cosem, _ = norms_of({0: 0, 1: 2}, (0, 2))
    assert cosem == 1.0
    # the doubling map expands, so the forward seminorm is zero
    assert sem == 0.0


def test_identity_norms_vanish():
    sem, cosem, _ = norms_of({0: 0, 1: 1, 2: 2}, (0, 1, 2))
    assert sem == 0.0
    assert cosem == 0.0


def test_infinite_capacity_targets_are_skipped():
    # handles with infinite capacity may not serve as test subobjects C,
    # but an infinite preimage capacity forces the seminorm to infinity
    c = lambda A: INF if len(A) > 1 else 0.0
    hs = (frozenset([0]), frozenset([0, 1]))
    assert capacity_norms(hs, lambda C: frozenset([0, 1]), c, c)[0] == INF


def test_neg_inf_preimage_capacity_gives_infinite_coseminorm():
    c = lambda A: NEG_INF
    sem, cosem, _ = capacity_norms((frozenset([0]),), lambda C: C, c, c)
    assert cosem == INF
    # in the forward seminorm the same handle is skipped as a preimage
    assert sem == 0.0


def test_coseminorm_filters_empty_preimages():
    # map {0} into {0, 10}: subsets containing only 10 have empty preimage
    _, cosem, hits = norms_of({0: 0}, (0, 10))
    assert frozenset([10]) in hits
    # with the filter the co-seminorm stays finite and comes from {0,10}
    assert cosem == 10.0


def test_source_and_target_capacities_are_separate():
    # the same handles read by two capacities: only the target's is doubled
    sem, cosem, _ = capacity_norms(subset_handles((0, 1)), lambda C: C,
                                   lambda A: 2 * numeric_diameter(A), numeric_diameter)
    assert (sem, cosem) == (0.0, 1.0)


def test_dual_inequality_report_on_collapse_instance():
    rep = dual_inequality_report(two_object_instance(COLLAPSE, (0, 2), annihilated=("f",)))
    assert rep.ok, rep.violations
    rows = {r.morphism: r for r in rep.rows}
    assert rows["f"].norm == 1.0
    assert rows["f"].coseminorm == 0.0
    assert rows["f"].dual_right <= rows["f"].coseminorm
    assert rows["f"].bidual_left <= rows["f"].norm + 1e-9
    # the empty subset is always filtered from the co-seminorm
    assert rows["f"].filter_hits >= 1


def test_dual_inequality_report_flags_violations():
    # force a false annihilator promise: strictly shrink capacity along f
    # so that the co-seminorm is positive while the left dual stays at zero
    rep = dual_inequality_report(two_object_instance({0: 0}, (0, 10), annihilated=("f",)))
    assert not rep.ok
    assert any(v[0] == "f" and v[1] == "dual_left>=coseminorm"
               for v in rep.violations)
    # without the annihilator promise the same instance passes
    assert dual_inequality_report(two_object_instance({0: 0}, (0, 10))).ok


def test_log_size_capacity_reproduces_set_norm():
    rng = random.Random(11)
    c = lambda A: ext_log(len(A))
    for trial in range(60):
        nx = rng.randint(0, 4)
        ny = rng.randint(1, 4)
        src = tuple(range(nx))
        tgt = tuple("abcd"[:ny])
        f = FiniteFunction(src, tgt, {x: rng.choice(tgt) for x in src})
        pre = lambda C, f=f: frozenset(x for x in f.source if f(x) in C)
        val = capacity_norms(subset_handles(tgt), pre, c, c)[0]
        assert abs(val - set_norm(f)) < 1e-12


# -- the lazy monotonicity check it replaced ------------------------------------

def looped_check_capacity_monotone(handles, leq, c):
    """check_capacity_monotone as it was: c read for both ends of every
    comparable pair."""
    for a in handles:
        for b in handles:
            if leq(a, b):
                ca, cb = c(a), c(b)
                if ca > cb + 1e-12:
                    return False, (a, b, ca, cb)
    return True, None


def perturbed(rng, handles, c, share):
    """c with a random bump on about share of the handles."""
    bump = {h: rng.uniform(-1.0, 1.0) for h in handles if rng.random() < share}
    return lambda h: c(h) + bump.get(h, 0.0)


def test_monotone_check_matches_the_lazy_loop():
    rng = random.Random(1307)
    verdicts = set()
    for t in range(120):
        if t % 2:
            sp = random_mm_space(rng, rng.randint(1, 3))
            handles, leq, c = prokhorov_family(sp, [0.0, 0.5, sp.volume()])
        else:
            sp = random_metric_space(rng, rng.randint(1, 4))
            handles, leq = subset_handles(sp.points), inclusion
            c = lambda h, sp=sp: diameter(sp, h)
        c = perturbed(rng, handles, c, (0.0, 0.05, 0.3)[t % 3])
        got = check_capacity_monotone(handles, leq, c)
        assert got == looped_check_capacity_monotone(handles, leq, c)
        verdicts.add(got[0])
    assert verdicts == {True, False}


def test_monotone_check_reads_each_handle_once():
    calls = []
    hs = subset_handles((0, 1, 2))

    def c(h):
        calls.append(h)
        return float(len(h))

    assert check_capacity_monotone(hs, inclusion, c) == (True, None)
    assert calls == hs
