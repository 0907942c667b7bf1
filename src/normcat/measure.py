"""Metric measure spaces and the Prokhorov seminorm.

Everything is computed on breakpoints: the mass of a thickening is a
step function of the radius, so each infimum over radii is an exact
min/max over finitely many candidates and the headline identities hold
without float tolerances beyond accumulation noise.
"""

from dataclasses import dataclass

import numpy as np

from .category import FiniteMap
from .extreal import INF
from .metric import isometry_search
from .search import MAX_ITEMS, level_sums, sorted_sums, subset_sums, subset_table, subsets


class BaseMismatch(ValueError):
    pass


@dataclass(frozen=True)
class FiniteMMSpace:
    """A finite metric space with a nonnegative mass per point."""
    base: object
    mass: dict
    fully_supported: bool = False

    def __post_init__(self):
        if set(self.mass) != set(self.base.points):
            raise ValueError("mass keys must be exactly the base points")
        for p, m in self.mass.items():
            if not (0.0 <= m < INF):
                raise ValueError("mass at %r outside [0, inf)" % (p,))
            if self.fully_supported and m == 0.0:
                raise ValueError("zero mass at %r in a fully supported space" % (p,))
        # rounding is monotone, so every subset's sum in point order is finite too
        if not sum(map(self.mass.__getitem__, self.base.points)) < INF:
            raise ValueError("the total mass is not finite")

    def measure(self, subset):
        return sum(self.mass[p] for p in subset)

    def volume(self):
        return sum(self.mass.values())

    @property
    def points(self):
        return self.base.points


class MMSpaceMap(FiniteMap):
    """Total point map between two mm-spaces (masses ride along, unchecked)."""


def _column(sp, subset):
    """The distance from each point of sp to subset, inf for the empty subset."""
    d, idxs = sp.base.dist, [sp.base.index[p] for p in subset]
    return [min([row[j] for j in idxs], default=INF) for row in d]


def _steps(sp, subset):
    """Breakpoints and cumulative masses of the thickening step function.

    Returns (ts, ms) with ts[0] = 0 and ms[i] the mass within closed
    distance ts[i] of the subset; points at infinite distance (empty
    subset) never enter.
    """
    if not subset:
        return [0.0], [0]
    return level_sums(_column(sp, subset), [sp.mass[p] for p in sp.points])


def _capacity(ts, ms, v):
    """prokhorov_capacity from the steps (ts, ms) of the thickening.

    Each interval's candidate is at least the one before, so the first
    candidate inside its interval is the least; the last interval never
    ends.
    """
    if v <= 0:
        return 0.0
    for i, t in enumerate(ts):
        nxt = ts[i + 1] if i + 1 < len(ts) else INF
        req = v - ms[i]
        if req <= t:
            return t
        if req <= nxt:
            return req


def prokhorov_capacity(sp, subset, v):
    """Least delta > 0 with mass(open delta-thickening) + delta >= v.

    Exact: the mass term is a left-continuous step function of delta,
    so the infimum is a min over breakpoint intervals, met first at the
    interval holding it.  v <= 0 gives 0.
    """
    return _capacity(*_steps(sp, subset), v)


def _kinks(ts, ms):
    out = {m + t for m in ms for t in ts if t < INF}
    out.add(0.0)
    return sorted(out)


def _masses(sp):
    """The masses in point order and, within the subset cap, their
    subset_sums table."""
    w = [sp.mass[p] for p in sp.points]
    return w, (subset_sums(w) if len(w) <= MAX_ITEMS else None)


def _nonempty(start, rows):
    """A block of a subset table without the empty subset's row, and the
    mask of its first row."""
    return (1, rows[1:]) if start == 0 else (start, rows)


def prokhorov_seminorm(f):
    """Least delta making every target set catchable in the source.

    inf over delta > 0 such that for every target subset A and radius
    r >= 0: source mass of the (r+delta)-thickened preimage plus delta
    dominates the target mass of the r-thickened A.

    Per A, sort the target's distances to A, s_p with v_p the mass
    within s_p, and the source's distances to f^-1(A), t_k with M_k the
    mass within t_k.  The least delta at radius s_p is min(v_p, min over
    k of max(t_k - s_p, 0, v_p - M_k)).  The candidate of a distinct
    level t_k is that of the radius interval starting there; one that
    does not fit its interval (is not below the next level minus s_p)
    is never below the next candidate, and one that fits is below every
    later one, so the min is the first that fits, and exact.  Positions
    inside a tie group or at inf (an empty fibre) only add larger
    candidates, and a target position inside a tie group a smaller
    value.  The result is the max of 0 and of these over A and p, so
    the 0 inside is left out: that changes only values that are 0 with
    it.  One subset_table carries both distance rows of each A, and a
    block's candidates are one broadcast.
    """
    src, tgt = f.source, f.target
    n, size = len(tgt.points), len(src.points)
    # column q: every target point's distance to q, then every source
    # point's distance to f^-1(q)
    cols = np.full((n, n + size), INF)
    cols[:, :n] = tgt.base.array.T
    np.minimum.at(cols[:, n:], np.array([tgt.base.index[f.assign[x]] for x in src.points],
                                         dtype=np.intp), src.base.array.T)
    (tw, tsums), (sw, ssums) = _masses(tgt), _masses(src)
    best = 0.0
    for start, rows in subset_table(cols, max(n * size, n + size)):
        _, rows = _nonempty(start, rows)
        # points on axis 0 and subsets on axis 1, so the broadcast runs
        # along the subsets
        dists = np.ascontiguousarray(rows.T)
        s, v = sorted_sums(dists[:n], tw, tsums)
        t, m = sorted_sums(dists[n:], sw, ssums)
        gap = t[:, None] - s
        np.maximum(gap, v - m[:, None], out=gap)
        best = max(best, float(np.minimum(v, gap.min(axis=0, initial=INF)).max(initial=0.0)))
    return best


def prokhorov_seminorm_capacity_form(f):
    """Oracle route: sup over subsets and value kinks of the capacity gap.

    Written out rather than as capacity_norms over handles (A, v): every
    kink of A is evaluated on the steps of A and of its preimage, built
    once per subset, which such handles would rebuild for every kink.
    """
    src, tgt = f.source, f.target
    best = 0.0
    for a in subsets(tgt.base.points):
        src_steps, tgt_steps = _steps(src, f.preimage(a)), _steps(tgt, a)
        kinks = set(_kinks(*src_steps)) | set(_kinks(*tgt_steps))
        kinks.add(max(kinks) + 1.0)
        for v in kinks:
            term = _capacity(*src_steps, v) - _capacity(*tgt_steps, v)
            if term > best:
                best = term
    return best


def prokhorov_distance(mu_sp, nu_sp):
    """inf over delta > 0 with mu(open delta-thickening of A) + delta >= nu(A) for all A.

    Per A, with (t_k, M_k) the sorted distances to A and the mu-mass
    within each, that least delta is min over k of max(t_k, nu(A) - M_k),
    for the reason given at prokhorov_seminorm; t_0 = 0, so it is 0 when
    nu(A) is.  The result is the max of 0 and of these over A, read off
    one subset_table of the distance rows, with nu(A) and the masses
    from exact point-order sums.

    A's term is at most max(0, nu(A) - mu(A)): at the last position with
    t_k = 0 the mask holds all of A, and both the point-order sums of
    masses >= 0 and float subtraction are monotone, so there nu(A) - M_k
    is at most nu(A) - mu(A).  So a row is sorted only when that bound
    is above the best term so far: in each block first the 8 rows with
    the largest bounds, then the rest whose bound is still above it.
    The empty mask's bound is 0, so its row never is.
    """
    if (mu_sp.base.points != nu_sp.base.points
            or mu_sp.base.dist != nu_sp.base.dist):
        raise BaseMismatch("the two measures must share one base metric space")
    # subset_table raises above the subset cap, where _masses has no tables
    blocks = subset_table(mu_sp.base.array.T)
    (mu_w, mu_sums), (_, nu_sums) = _masses(mu_sp), _masses(nu_sp)
    bound = nu_sums - mu_sums

    def largest(masks, rows):
        """The largest term of the given rows of the table."""
        t, m = sorted_sums(np.ascontiguousarray(rows.T), mu_w, mu_sums)
        np.subtract(nu_sums[masks], m, out=m)
        return float(np.maximum(t, m, out=m).min(axis=0).max())

    best = 0.0
    for start, rows in blocks:
        b = bound[start:start + len(rows)]
        pick = np.flatnonzero(b > best)
        if len(pick) > 8:
            few = np.argpartition(b[pick], -8)[-8:]
            best = max(best, largest(start + pick[few], rows[pick[few]]))
            keep = b[pick] > best
            keep[few] = False
            pick = pick[keep]
        if len(pick):
            best = max(best, largest(start + pick, rows[pick]))
    return best


def volume_norm(sp):
    """Norm of the unique map from the empty mm-space, reported with the volume.

    The empty source turns the capacity gap into v - c_P(A, v); the sup
    over subsets and value kinks is exact and never exceeds the volume.
    Written out rather than as capacity_norms for the reason given at
    prokhorov_seminorm_capacity_form: one subset's steps serve all its
    kinks.
    """
    vol = sp.volume()
    best = 0.0
    for a in subsets(sp.base.points, nonempty=False):
        steps = _steps(sp, a)
        kinks = set(_kinks(*steps))
        kinks.add(max(kinks) + vol + 1.0)
        for v in kinks:
            term = v - _capacity(*steps, v)
            if term > best:
                best = term
    if best > vol + 1e-9:
        raise RuntimeError("norm of the initial map %r exceeds the volume %r" % (best, vol))
    return {"norm_of_initial": best, "volume": vol}


def prokhorov_family(sp, v_values):
    """Handles (A, v) with their order and the Prokhorov capacity on them.

    (A, v) <= (B, w) when B is inside A and v <= w: c_P shrinks when A
    grows and grows with v, so this is the order that makes it a
    monotone capacity.  Returns (handles, leq, capacity), the arguments
    of check_capacity_monotone.
    """
    vs = sorted(set(float(v) for v in v_values))
    subs = map(frozenset, subsets(sp.base.points, nonempty=False, limit=10))
    return (tuple((a, v) for a in subs for v in vs),
            lambda h1, h2: h2[0] <= h1[0] and h1[1] <= h2[1],
            lambda h: prokhorov_capacity(sp, h[0], h[1]))


def measure_isometry_search(a, b):
    """A bijective isometry matching masses pointwise, or None.

    Distances match up to metric.search_slack and masses up to 1e-9
    times the larger total mass.
    """
    tol = 1e-9 * max(a.volume(), b.volume())
    pa, pb = a.base.points, b.base.points
    return isometry_search(a.base, b.base,
                           lambda i, v: abs(a.mass[pa[i]] - b.mass[pb[v]]) <= tol)
