"""Capacity-induced seminorms, co-seminorms and the dual inequality report."""

import random

import pytest

from normcat.extreal import INF, NEG_INF, ext_log, sup0
from normcat.category import FiniteCategory
from normcat.capacity import (
    SubobjectFamily, Capacity, CapacityInstance,
    check_capacity_monotone, capacity_norms, dual_inequality_report, subset_family,
)
from normcat.discrete import FiniteFunction, fibers, set_norm


def numeric_diameter():
    """Diameter of a set of reals (handles are frozensets of numbers)."""
    return Capacity(lambda A: sup0(abs(a - b) for a in A for b in A),
                    direction="monotone")


def preimage_of_assign(assigns):
    """Preimage operation for a dict of single-valued maps {morphism: assign}."""
    def pre(name, C):
        if name not in assigns:
            return C   # identities
        a = assigns[name]
        return frozenset(x for x in a if a[x] in C)
    return pre


def collapse_instance():
    """X = {0,1,2} on the line, Y = {0,2}; f sends 0 to 0 and 1, 2 to 2."""
    assigns = {"f": {0: 0, 1: 2, 2: 2}}
    pre = preimage_of_assign(assigns)
    fam_x = subset_family("X", (0, 1, 2), preimage=pre)
    fam_y = subset_family("Y", (0, 2), preimage=pre)
    mors = [("idX", "X", "X"), ("idY", "Y", "Y"), ("f", "X", "Y")]
    comp = {("idX", "idX"): "idX", ("idY", "idY"): "idY",
            ("f", "idX"): "f", ("idY", "f"): "f"}
    cat = FiniteCategory(["X", "Y"], mors, {"X": "idX", "Y": "idY"}, comp)
    return cat, {"X": fam_x, "Y": fam_y}


def test_subset_family_order_is_valid():
    fam = subset_family("X", (0, 1, 2))
    fam.validate_order()
    assert len(fam.handles) == 8
    assert fam.is_empty(frozenset())
    assert not fam.is_empty(frozenset([0]))


def test_diameter_capacity_is_monotone():
    fam = subset_family("X", (0, 1, 2))
    ok, witness = check_capacity_monotone(fam, numeric_diameter())
    assert ok and witness is None


def test_monotonicity_failure_produces_witness():
    fam = subset_family("X", (0, 1))
    c = Capacity(lambda A: -float(len(A)))
    ok, witness = check_capacity_monotone(fam, c)
    assert not ok
    small, large, c_small, c_large = witness
    assert small <= large and c_small > c_large


def test_collapse_map_seminorm_is_dilatation_value():
    cat, fams = collapse_instance()
    c = numeric_diameter()
    val = capacity_norms("f", fams["X"], fams["Y"], c)[0]
    # A = {2} pulls back to {1,2} with diameter 1
    assert val == 1.0


def test_collapse_map_coseminorm_vanishes():
    # every subset of {0,2} with nonempty preimage pulls back to something
    # at least as wide, so the capacity never drops
    cat, fams = collapse_instance()
    c = numeric_diameter()
    assert capacity_norms("f", fams["X"], fams["Y"], c)[1] == 0.0


def test_doubling_map_coseminorm():
    assigns = {"g": {0: 0, 1: 2}}
    pre = preimage_of_assign(assigns)
    fam_x = subset_family("X", (0, 1), preimage=pre)
    fam_y = subset_family("Y", (0, 2), preimage=pre)
    c = numeric_diameter()
    assert capacity_norms("g", fam_x, fam_y, c)[1] == 1.0
    # the doubling map expands, so the forward seminorm is zero
    assert capacity_norms("g", fam_x, fam_y, c)[0] == 0.0


def test_identity_norms_vanish():
    cat, fams = collapse_instance()
    c = numeric_diameter()
    assert capacity_norms("idX", fams["X"], fams["X"], c)[0] == 0.0
    assert capacity_norms("idX", fams["X"], fams["X"], c)[1] == 0.0


def test_infinite_capacity_targets_are_skipped():
    # handles with infinite capacity may not serve as test subobjects C,
    # but an infinite preimage capacity forces the seminorm to infinity
    pre = lambda name, C: frozenset([0, 1])
    fam_x = SubobjectFamily("X", (frozenset([0]), frozenset([0, 1])),
                            leq=lambda a, b: a <= b, preimage=pre)
    c = Capacity(lambda A: INF if len(A) > 1 else 0.0)
    assert capacity_norms("f", fam_x, fam_x, c)[0] == INF


def test_neg_inf_preimage_capacity_gives_infinite_coseminorm():
    pre = lambda name, C: C
    fam = SubobjectFamily("X", (frozenset([0]),), leq=lambda a, b: a <= b,
                          preimage=pre)
    c = Capacity(lambda A: NEG_INF)
    assert capacity_norms("f", fam, fam, c)[1] == INF
    # in the forward seminorm the same handle is skipped as a preimage
    assert capacity_norms("f", fam, fam, c)[0] == 0.0


def test_coseminorm_filters_empty_preimages():
    # map {0} into {0, 10}: subsets containing only 10 have empty preimage
    assigns = {"j": {0: 0}}
    pre = preimage_of_assign(assigns)
    fam_x = subset_family("X", (0,), preimage=pre)
    fam_y = subset_family("Y", (0, 10), preimage=pre)
    c = numeric_diameter()
    hits = capacity_norms("j", fam_x, fam_y, c)[2]
    assert frozenset([10]) in hits
    # with the filter the co-seminorm stays finite and comes from {0,10}
    assert capacity_norms("j", fam_x, fam_y, c)[1] == 10.0


def test_dual_inequality_report_on_collapse_instance():
    cat, fams = collapse_instance()
    inst = CapacityInstance(category=cat, families=fams,
                            capacity=numeric_diameter(), annihilated=("f",))
    rep = dual_inequality_report(inst)
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
    assigns = {"f": {0: 0}}
    pre = preimage_of_assign(assigns)
    fam_x = subset_family("X", (0,), preimage=pre)
    fam_y = subset_family("Y", (0, 10), preimage=pre)
    mors = [("idX", "X", "X"), ("idY", "Y", "Y"), ("f", "X", "Y")]
    comp = {("idX", "idX"): "idX", ("idY", "idY"): "idY",
            ("f", "idX"): "f", ("idY", "f"): "f"}
    cat = FiniteCategory(["X", "Y"], mors, {"X": "idX", "Y": "idY"}, comp)
    inst = CapacityInstance(category=cat,
                            families={"X": fam_x, "Y": fam_y},
                            capacity=numeric_diameter(),
                            annihilated=("f",))
    rep = dual_inequality_report(inst)
    assert not rep.ok
    assert any(v[0] == "f" and v[1] == "dual_left>=coseminorm"
               for v in rep.violations)
    # without the annihilator promise the same instance passes
    inst2 = CapacityInstance(category=cat,
                             families={"X": fam_x, "Y": fam_y},
                             capacity=numeric_diameter())
    assert dual_inequality_report(inst2).ok


def test_log_size_capacity_reproduces_set_norm():
    rng = random.Random(11)
    c = Capacity(lambda A: ext_log(len(A)), direction="monotone")
    for trial in range(60):
        nx = rng.randint(0, 4)
        ny = rng.randint(1, 4)
        src = tuple(range(nx))
        tgt = tuple("abcd"[:ny])
        f = FiniteFunction(src, tgt, {x: rng.choice(tgt) for x in src})

        def pre(name, C, f=f):
            return frozenset(x for x in f.source if f(x) in C)

        fam_s = subset_family("S", src, preimage=pre)
        fam_t = subset_family("T", tgt, preimage=pre)
        val = capacity_norms("f", fam_s, fam_t, c)[0]
        assert abs(val - set_norm(f)) < 1e-12
