"""Capacities on subobjects and the seminorms they induce.

A capacity assigns an extended real to each subobject handle of an
object (for example: each subset of a finite space).  Along a morphism
the induced seminorm measures how much the capacity can grow when a
handle of the target is pulled back to the source; the co-seminorm
measures how much it can drop.  capacity_norms is that one
construction: the dilatation norm, the dimension seminorm and the
diameter capacity of a category of metric spaces are each one call of
it with their own handles, preimage and capacities.
"""

from dataclasses import dataclass, field

from .extreal import INF, NEG_INF, sup0
from . import category as cat_mod


def check_capacity_monotone(handles, leq, c):
    """True iff c respects leq on all comparable pairs of handles, up to 1e-12.

    Returns (ok, witness) where witness is the first violating (smaller,
    larger, c(smaller), c(larger)) tuple in handle order, or None.  c is
    evaluated once per handle.
    """
    hs = tuple(handles)
    cs = [c(h) for h in hs]
    for a, ca in zip(hs, cs):
        for b, cb in zip(hs, cs):
            if leq(a, b) and ca > cb + 1e-12:
                return False, (a, b, ca, cb)
    return True, None


def capacity_norms(handles, preimage, c_target, c_source):
    """(seminorm, coseminorm, filter_hits) of a morphism from one walk over
    the target handles.

    preimage(C) is the source handle that the target handle C pulls back
    to; c_target and c_source are the capacities on the two ends.
    seminorm: sup0 of c_source(preimage C) - c_target(C) over the handles
    C with c_target(C) < inf, skipping preimages of capacity -inf.
    coseminorm: sup0 of c_target(C) - c_source(preimage C) over the same
    handles, skipping preimages of capacity inf and empty (falsy)
    preimages: dropping to the empty subobject is not read as capacity
    loss.  filter_hits: the handles the empty-preimage filter skipped.
    """
    sem, cosem, hits = [], [], []
    for C in handles:
        cC = c_target(C)
        if cC == INF:
            continue
        B = preimage(C)
        cB = c_source(B)
        if cB != NEG_INF:
            sem.append(INF if cB == INF else cB - cC)
        if not B:
            hits.append(C)
        elif cB != INF:
            cosem.append(INF if cB == NEG_INF else cC - cB)
    return sup0(sem), sup0(cosem), hits


@dataclass
class CapacityInstance:
    """A finite category with the capacity norms of each morphism.

    norms: {morphism name: (seminorm, coseminorm, filter_hits)} as
    capacity_norms returns them.  annihilated: morphism names for which
    the instance promises an approximate left annihilator (so the
    left-dual lower bound applies).
    """
    category: object
    norms: dict
    annihilated: tuple = ()


@dataclass
class DualInequalityRow:
    morphism: str
    norm: float
    coseminorm: float
    dual_left: float
    dual_right: float
    bidual_left: float
    bidual_right: float
    filter_hits: int


@dataclass
class DualInequalityReport:
    ok: bool
    rows: list = field(default_factory=list)
    violations: list = field(default_factory=list)   # (morphism, check, lhs, rhs)


def dual_inequality_report(inst):
    """Per-morphism capacity norms, co-seminorms, duals and the inequality checks.

    Checks, for every morphism f of the instance:
      dual_right(f) <= coseminorm(f)
      bidual_left(f) <= norm(f) and bidual_right(f) <= norm(f)
    and for morphisms listed in inst.annihilated additionally
      dual_left(f) >= coseminorm(f), each up to cat_mod.AXIOM_TOL.
    """
    cat = inst.category
    norms = {name: inst.norms[name][0] for name in cat.morphisms}
    dual_l = cat_mod.dual_seminorm(cat, norms, "left")
    dual_r = cat_mod.dual_seminorm(cat, norms, "right")
    bidual_l = cat_mod.dual_seminorm(cat, dual_l, "left")
    bidual_r = cat_mod.dual_seminorm(cat, dual_r, "right")

    tol = cat_mod.AXIOM_TOL
    rep = DualInequalityReport(ok=True)
    for name in cat.morphisms:
        norm, cosem, hits = inst.norms[name]
        rep.rows.append(DualInequalityRow(
            name, norm, cosem, dual_l[name], dual_r[name],
            bidual_l[name], bidual_r[name], len(hits)))
        if dual_r[name] > cosem + tol:
            rep.violations.append((name, "dual_right<=coseminorm", dual_r[name], cosem))
        if bidual_l[name] > norm + tol:
            rep.violations.append((name, "bidual_left<=norm", bidual_l[name], norm))
        if bidual_r[name] > norm + tol:
            rep.violations.append((name, "bidual_right<=norm", bidual_r[name], norm))
        if name in inst.annihilated and dual_l[name] < cosem - tol:
            rep.violations.append((name, "dual_left>=coseminorm", dual_l[name], cosem))
    rep.ok = not rep.violations
    return rep

