"""Capacities on subobject families and the seminorms they induce.

A subobject family enumerates handles (for example: the subsets of a
finite space) for one carrier object, together with a partial order and
a preimage operation along morphisms.  A capacity assigns an extended
real to each handle.  The induced seminorm of a morphism measures how
much the capacity can grow when pulling a handle back; the co-seminorm
measures how much it can drop.
"""

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .extreal import INF, NEG_INF, sup0
from . import category as cat_mod
from .search import subsets


@dataclass(frozen=True)
class SubobjectFamily:
    """Enumerated subobject handles for one carrier object.

    preimage(morphism_name, handle) takes a handle of THIS family (the
    morphism's target) to a handle of the morphism's source family.
    is_empty flags handles that denote an empty subobject.
    """
    carrier: object
    handles: tuple
    leq: Callable
    preimage: Optional[Callable] = None
    is_empty: Callable = lambda h: False

    def validate_order(self):
        """Check reflexivity, antisymmetry and transitivity of leq on the handles."""
        hs = self.handles
        rel = np.array([[bool(self.leq(a, b)) for b in hs] for a in hs], dtype=bool)
        for i, a in enumerate(hs):
            if not rel[i, i]:
                raise ValueError("leq not reflexive at %r" % (a,))
        for i, j in np.argwhere(rel & rel.T).tolist():
            if hs[i] != hs[j]:
                raise ValueError("leq not antisymmetric on (%r, %r)" % (hs[i], hs[j]))
        bad = cat_mod.first_transitivity_violation(rel)
        if bad is not None:
            raise ValueError("leq not transitive on (%r, %r, %r)"
                             % tuple(hs[i] for i in bad))


@dataclass(frozen=True)
class Capacity:
    """Extended-real valuation on handles; direction is a promise, checked on demand."""
    value: Callable
    direction: str = "unchecked"   # monotone | antimonotone | unchecked

    def __call__(self, handle):
        return self.value(handle)


def check_capacity_monotone(fam, c):
    """True iff c respects fam's order on all comparable pairs, up to 1e-12.

    Returns (ok, witness) where witness is a violating (smaller, larger,
    c(smaller), c(larger)) tuple or None.
    """
    for a in fam.handles:
        for b in fam.handles:
            if fam.leq(a, b):
                ca, cb = c(a), c(b)
                if ca > cb + 1e-12:
                    return False, (a, b, ca, cb)
    return True, None


def capacity_norms(f, fam_src, fam_tgt, c):
    """(seminorm, coseminorm, filter_hits) of f from one walk over the target handles.

    seminorm: sup0 of c(preimage of C) - c(C) over target handles C with
    c(C) < inf, skipping preimages of capacity -inf.
    coseminorm: sup0 of c(C) - c(preimage of C) over the same handles,
    skipping preimages of capacity inf and empty preimages: dropping to
    the empty subobject is not read as capacity loss.
    filter_hits: the handles the empty-preimage filter skipped.
    """
    if fam_tgt.preimage is None:
        raise ValueError("target family has no preimage operation")
    sem, cosem, hits = [], [], []
    for C in fam_tgt.handles:
        cC = c(C)
        if cC == INF:
            continue
        B = fam_tgt.preimage(f, C)
        cB = c(B)
        if cB != NEG_INF:
            sem.append(INF if cB == INF else cB - cC)
        if fam_src.is_empty(B):
            hits.append(C)
        elif cB != INF:
            cosem.append(INF if cB == NEG_INF else cC - cB)
    return sup0(sem), sup0(cosem), hits


@dataclass
class CapacityInstance:
    """A finite category with a subobject family per object and one capacity.

    annihilated: morphism names for which the instance promises an
    approximate left annihilator (so the left-dual lower bound applies).
    """
    category: object
    families: dict
    capacity: Capacity
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
    c = inst.capacity

    def fam_of(obj):
        return inst.families[obj]

    norms = {}
    cosem = {}
    hits = {}
    for m in cat.morphisms.values():
        fs, ft = fam_of(m.src), fam_of(m.tgt)
        norms[m.name], cosem[m.name], skipped = capacity_norms(m.name, fs, ft, c)
        hits[m.name] = len(skipped)
    dual_l = cat_mod.dual_seminorm(cat, norms, "left")
    dual_r = cat_mod.dual_seminorm(cat, norms, "right")
    bidual_l = cat_mod.dual_seminorm(cat, dual_l, "left")
    bidual_r = cat_mod.dual_seminorm(cat, dual_r, "right")

    tol = cat_mod.AXIOM_TOL
    rep = DualInequalityReport(ok=True)
    for name in cat.morphisms:
        rep.rows.append(DualInequalityRow(
            name, norms[name], cosem[name], dual_l[name], dual_r[name],
            bidual_l[name], bidual_r[name], hits[name]))
        if dual_r[name] > cosem[name] + tol:
            rep.violations.append((name, "dual_right<=coseminorm", dual_r[name], cosem[name]))
        if bidual_l[name] > norms[name] + tol:
            rep.violations.append((name, "bidual_left<=norm", bidual_l[name], norms[name]))
        if bidual_r[name] > norms[name] + tol:
            rep.violations.append((name, "bidual_right<=norm", bidual_r[name], norms[name]))
        if name in inst.annihilated and dual_l[name] < cosem[name] - tol:
            rep.violations.append((name, "dual_left>=coseminorm", dual_l[name], cosem[name]))
    rep.ok = not rep.violations
    return rep


# -- stock families -------------------------------------------------------

def subset_family(carrier, points, preimage=None):
    """The family of subsets of a finite point set, ordered by inclusion."""
    return SubobjectFamily(
        carrier=carrier,
        handles=tuple(map(frozenset, subsets(points, nonempty=False))),
        leq=lambda a, b: a <= b,
        preimage=preimage,
        is_empty=lambda h: len(h) == 0)
