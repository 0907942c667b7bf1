"""Independent checks of every value the benchmark's operations print.

Each checker reads the operation's input files itself and decides from
the definitions, by exhaustive enumeration, closed forms or a library
solver, whether the printed values are right.  None of them calls into
normcat.  They import numpy, scipy and networkx, so run.py imports
this module only after timing ends and after peak memory is read.

A numeric checker is check(op, values) -> bool, where values are the
numbers the CLI printed, in order, with "inf" read as math.inf.
"""

import itertools
import json
import math

import networkx as nx
import numpy as np
from scipy.optimize import linprog

REL = 1e-9       # tolerance of checks against an exactly computed value
LP_REL = 1e-8    # tolerance against the LP optimum (HiGHS, feasibility 1e-10)
STEP = 1e-8      # "just above" and "just below" an infimum, relative
PERTURB = 1e-6   # the self-check moves an answer by this much, relative


def load(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def close(got, want, rel=REL):
    if math.isinf(want) or math.isinf(got):
        return got == want
    return abs(got - want) <= rel * max(abs(want), 1e-300) + 1e-15


def _dist(space):
    return np.array(space["dist"], dtype=float)


def _index(space):
    return {p: i for i, p in enumerate(space["points"])}


def _bits(n):
    """Row k holds the membership of the subset with bitmask k."""
    masks = np.arange(1 << n)
    return ((masks[:, None] >> np.arange(n)) & 1).astype(bool)


def _diameters(d, bits):
    out = np.zeros(bits.shape[0])
    n = d.shape[0]
    for i in range(n):
        for j in range(i + 1, n):
            both = bits[:, i] & bits[:, j]
            out = np.where(both & (d[i, j] > out), d[i, j], out)
    return out


def _dist_to_subsets(d, bits):
    """[mask, x] -> distance from point x to the subset (inf when empty)."""
    out = np.full((bits.shape[0], d.shape[0]), np.inf)
    for a in range(d.shape[0]):
        out = np.where(bits[:, a][:, None], np.minimum(out, d[:, a][None, :]), out)
    return out


def _preimage_masks(targets_of, n_src, n_tgt):
    """[target mask] -> bitmask of source points whose values meet it."""
    hit = np.zeros(n_tgt, dtype=np.int64)
    for x, ys in enumerate(targets_of):
        for y in ys:
            hit[y] |= 1 << x
    bits = _bits(n_tgt)
    pre = np.zeros(1 << n_tgt, dtype=np.int64)
    for y in range(n_tgt):
        pre = np.where(bits[:, y], pre | hit[y], pre)
    return pre


def _metric_map(op):
    m = load(op.files[0])
    ty = _index(m["target"])
    vals = []
    for x in m["source"]["points"]:
        ys = m["assign"][x]
        ys = ys if isinstance(ys, list) else [ys]
        vals.append(sorted(ty[y] for y in ys))
    return _dist(m["source"]), _dist(m["target"]), vals


# -- dilatation norms: closed forms over all point pairs ------------------

def _selection_gaps(op):
    dx, dy, vals = _metric_map(op)
    xs = np.array([x for x, ys in enumerate(vals) for _ in ys])
    ys = np.array([y for ys in vals for y in ys])
    return dx[np.ix_(xs, xs)] - dy[np.ix_(ys, ys)]


def dil_norm(op, values):
    return close(values[0], max(0.0, float(_selection_gaps(op).max())))


def dil_dual(op, values):
    return close(values[0], max(0.0, float((-_selection_gaps(op)).max())))


def codiam(op, values):
    """sup0 over target sets A with nonempty preimage of diam A - diam f^-1 A."""
    dx, dy, vals = _metric_map(op)
    n, m = dx.shape[0], dy.shape[0]
    pre = _preimage_masks(vals, n, m)
    gap = _diameters(dy, _bits(m)) - _diameters(dx, _bits(n))[pre]
    gap = np.where(pre != 0, gap, 0.0)
    return close(values[0], max(0.0, float(gap[1:].max())))


# -- distances between metric spaces: exhaustive over maps ----------------

def _two_spaces(op):
    return _dist(load(op.files[0])), _dist(load(op.files[1]))


def _all_maps(n, m):
    return np.array(list(itertools.product(range(m), repeat=n)), dtype=np.int64)


def _min_dilatation(dx, dy):
    maps = _all_maps(dx.shape[0], dy.shape[0])
    worst = np.full(len(maps), -np.inf)
    for i in range(dx.shape[0]):
        for j in range(dx.shape[0]):
            worst = np.maximum(worst, dx[i, j] - dy[maps[:, i], maps[:, j]])
    return max(0.0, float(worst.min()))


def dil_dist(op, values):
    dx, dy = _two_spaces(op)
    return close(values[0], _min_dilatation(dx, dy))


def dil_plus_dist(op, values):
    dx, dy = _two_spaces(op)
    want = (_min_dilatation(dx, dy) + _min_dilatation(dy, dx)) / 2.0
    return close(values[0], want)


def _distortions(d1, d2, maps):
    """Distortion of each map in `maps` from the space of d1 into that of d2."""
    out = np.zeros(len(maps))
    n = d1.shape[0]
    for i in range(n):
        for j in range(i + 1, n):
            out = np.maximum(out, np.abs(d1[i, j] - d2[maps[:, i], maps[:, j]]))
    return out


def gh(op, values):
    """Half the least distortion over map pairs phi: X -> Y, psi: Y -> X.

    The cross term max_{i,a} |dx(i, psi a) - dy(phi i, a)| is taken as
    a maximum over a of cross[phi, a, psi a], which keeps the pair walk
    to one gather per target point.  The GH bounds are checked too.
    """
    dx, dy = _two_spaces(op)
    n, m = dx.shape[0], dy.shape[0]
    phis, psis = _all_maps(n, m), _all_maps(m, n)
    dis_phi, dis_psi = _distortions(dx, dy, phis), _distortions(dy, dx, psis)
    # cross[p, a, u] = max_i |dx[i, u] - dy[phi_p(i), a]|
    cross = np.abs(dx.T[None, None, :, :] - dy[phis][:, :, :, None].transpose(0, 2, 3, 1))
    cross = cross.max(axis=3)
    best = np.inf
    for start in range(0, len(phis), 256):
        part = cross[start:start + 256]
        tot = np.maximum(dis_phi[start:start + 256, None], dis_psi[None, :])
        for a in range(m):
            tot = np.maximum(tot, part[:, a, :][:, psis[:, a]])
        best = min(best, float(tot.min()))
    want = best / 2.0
    dmx, dmy = float(dx.max()), float(dy.max())
    v = values[0]
    in_bounds = abs(dmx - dmy) / 2.0 - 1e-12 <= v <= max(dmx, dmy) / 2.0 + 1e-12
    return in_bounds and close(v, want)


# -- Prokhorov: feasible just above the printed delta, not just below -----

def _bracket(feasible, delta):
    if delta == 0.0:
        return feasible(1e-12)
    if math.isinf(delta):
        return False
    return feasible(delta * (1.0 + STEP)) and not feasible(delta * (1.0 - STEP))


def prokhorov_norm(op, values):
    """Least delta with mu(closed (r+delta)-thickening of f^-1 A) + delta
    >= nu(closed r-thickening of A) for every target set A and r >= 0.

    nu's side only jumps at the distances of points to A, so those radii
    are the only ones to check.
    """
    m = load(op.files[0])
    src, tgt = m["source"], m["target"]
    ty = _index(tgt)
    n_s, n_t = len(src["points"]), len(tgt["points"])
    vals = [[ty[m["assign"][x]]] for x in src["points"]]
    mu, nu = np.array(src["mass"], float), np.array(tgt["mass"], float)
    to_a = _dist_to_subsets(_dist(tgt), _bits(n_t))    # [A, k]: the radii r_k
    nu_r = ((to_a[:, None, :] <= to_a[:, :, None]) * nu).sum(axis=2)   # [A, k]
    pre = _preimage_masks(vals, n_s, n_t)
    to_pre = _dist_to_subsets(_dist(src), _bits(n_s))[pre]      # [A, x]
    live = np.isfinite(to_a)

    def feasible(delta):
        reach = to_pre[:, None, :] <= to_a[:, :, None] + delta
        mu_r = (reach * mu).sum(axis=2)
        return bool(np.all((mu_r + delta >= nu_r) | ~live))

    return _bracket(feasible, values[0])


def prokhorov_dist(op, values):
    """Least delta with mu(open delta-thickening of A) + delta >= nu(A) for all A."""
    a, b = load(op.files[0]), load(op.files[1])
    n = len(a["points"])
    mu, nu = np.array(a["mass"], float), np.array(b["mass"], float)
    bits = _bits(n)
    to_a = _dist_to_subsets(_dist(a), bits)
    nu_a = (bits * nu).sum(axis=1)

    def feasible(delta):
        return bool(np.all(((to_a < delta) * mu).sum(axis=1) + delta >= nu_a))

    return _bracket(feasible, values[0])


# -- W1 by linear programming -----------------------------------------------

def w1(op, values):
    a, b = load(op.files[0]), load(op.files[1])
    cost = _dist(a)
    mu = np.array(a["mass"], float)
    nu = np.array(b["mass"], float)
    mu, nu = mu / mu.sum(), nu / nu.sum()
    n = len(mu)
    rows = np.kron(np.eye(n), np.ones(n))
    cols = np.kron(np.ones(n), np.eye(n))
    res = linprog(cost.ravel(), A_eq=np.vstack([rows, cols]),
                  b_eq=np.concatenate([mu, nu]), bounds=(0, None), method="highs",
                  options={"primal_feasibility_tolerance": 1e-10,
                           "dual_feasibility_tolerance": 1e-10})
    return res.status == 0 and close(values[0], float(res.fun), LP_REL)


# -- operator seminorm from numpy's SVD --------------------------------------

def op_norm(op, values):
    a = np.array(load(op.files[0])["entries"], dtype=float)
    rows, cols = a.shape
    sigma = np.linalg.svd(a, compute_uv=False)
    if cols > rows or sigma[-1] <= sigma[0] * max(rows, cols) * np.finfo(float).eps:
        want = math.inf
    else:
        want = max(0.0, -math.log(float(sigma[-1])))
    return close(values[0], want)


# -- component seminorm, components from networkx ----------------------------

def _comparability(space):
    g = nx.Graph()
    pts = space["points"]
    g.add_nodes_from(range(len(pts)))
    leq = space["leq"]
    for i in range(len(pts)):
        for j in range(len(pts)):
            if i != j and (leq[i][j] or leq[j][i]):
                g.add_edge(i, j)
    return g


def comp(op, values):
    """sup0 over connected target sets C of log #components of f^-1 C.

    A connected set with empty preimage makes the value infinite.
    """
    m = load(op.files[0])
    src, tgt = m["source"], m["target"]
    ty = _index(tgt)
    img = [ty[m["assign"][x]] for x in src["points"]]
    gs, gt = _comparability(src), _comparability(tgt)
    n_t = len(tgt["points"])
    counts = {}
    best = 0.0
    for mask in range(1, 1 << n_t):
        c = [y for y in range(n_t) if mask >> y & 1]
        if not nx.is_connected(gt.subgraph(c)):
            continue
        pre = frozenset(x for x, y in enumerate(img) if mask >> y & 1)
        if not pre:
            best = math.inf
            break
        if pre not in counts:
            counts[pre] = nx.number_connected_components(gs.subgraph(pre))
        best = max(best, math.log(counts[pre]))
    return close(values[0], best)


# -- dimension seminorm over all subcomplexes --------------------------------

def dim(op, values):
    """fiber form and capacity form of the dimension seminorm.

    dim value of a simplex set: log of its largest simplex size, 0 when
    empty.  Subcomplexes are the face-closed sets of target simplices.
    """
    m = load(op.files[0])
    src, tgt = m["source"], m["target"]
    simp = [frozenset(s) for s in tgt["simplices"]]
    pos = {s: k for k, s in enumerate(simp)}
    k = len(simp)
    bits = _bits(k)
    closed = np.ones(1 << k, dtype=bool)
    for t, s in enumerate(simp):
        for v in s:
            face = s - {v}
            if face:
                closed &= ~bits[:, t] | bits[:, pos[face]]
    size_t = np.array([len(s) for s in simp], dtype=float)
    size_pre = np.zeros(k)
    for s in src["simplices"]:
        t = pos[frozenset(m["assign"][v] for v in s)]
        size_pre[t] = max(size_pre[t], len(s))
    top_t = (bits * size_t).max(axis=1)
    top_pre = (bits * size_pre).max(axis=1)

    def dim_value(top):
        return np.log(np.maximum(top, 1.0))

    gaps = dim_value(top_pre) - dim_value(top_t)
    cap = max(0.0, float(gaps[closed & bits.any(axis=1)].max()))
    fiber = max([0.0] + [float(np.log(size_pre[pos[frozenset([w])]]))
                         for w in tgt["vertices"] if size_pre[pos[frozenset([w])]] > 0])
    return close(values[0], fiber) and close(values[1], cap)


# -- suites and generated instances -------------------------------------------

def suites(op, rows):
    return len(rows) == 18 and all(r["ok"] for r in rows)


def generated(op, payload):
    """A generated instance is a valid one of the requested kind and size."""
    kind, size = op.argv[op.argv.index("--kind") + 1], int(op.argv[op.argv.index("--size") + 1])
    if kind in ("metric", "mm"):
        want = "metric_space" if kind == "metric" else "mm_space"
        d = np.array(payload["dist"], dtype=float)
        ok = (payload["kind"] == want and d.shape == (size, size)
              and np.all(np.diag(d) == 0.0) and np.allclose(d, d.T, rtol=0, atol=1e-12)
              and np.all(d + np.eye(size) > 0.0)
              and np.all(d[:, None, :] <= d[:, :, None] + d[None, :, :] + 1e-12))
        if kind == "mm":
            mass = np.array(payload["mass"], dtype=float)
            ok = ok and np.all(mass >= 0.0) and abs(mass.sum() - 1.0) <= 1e-9
        return bool(ok)
    if kind == "poset":
        leq = np.array(payload["leq"], dtype=bool)
        return bool(payload["kind"] == "top_space" and leq.shape == (size, size)
                    and np.all(np.diag(leq)) and not np.any(leq & leq.T & ~np.eye(size, dtype=bool))
                    and np.array_equal(leq, leq | ((leq.astype(int) @ leq.astype(int)) > 0)))
    simp = {frozenset(s) for s in payload["simplices"]}
    return (payload["kind"] == "simplicial" and len(payload["vertices"]) == size
            and all(frozenset([v]) in simp for v in payload["vertices"])
            and all(s - {v} in simp for s in simp for v in s if len(s) > 1))


SCALAR = {
    "norm/dil": dil_norm,
    "norm/dil-dual": dil_dual,
    "norm/codiam": codiam,
    "norm/comp": comp,
    "norm/dim": dim,
    "norm/prokhorov": prokhorov_norm,
    "norm/op": op_norm,
    "dist/dil": dil_dist,
    "dist/dil-plus": dil_plus_dist,
    "dist/gh": gh,
    "dist/prokhorov": prokhorov_dist,
    "dist/w1": w1,
}


def accepts(op, rc, report):
    """True when one run of op exited 0 and printed right values."""
    if rc != 0 or report is None:
        return False
    try:
        if op.kind == "check":
            return suites(op, report["results"])
        if op.kind == "generate":
            return generated(op, report)
        values = [math.inf if r["value"] == "inf" else float(r["value"])
                  for r in report["results"]]
        return SCALAR[op.kind](op, values)
    except (KeyError, IndexError, TypeError, ValueError):
        return False   # output that does not have the documented shape


def self_check(op, report):
    """True when the checker of op rejects each printed value moved by 1e-6."""
    values = [math.inf if r["value"] == "inf" else float(r["value"])
              for r in report["results"]]
    for i, v in enumerate(values):
        if v == 0.0 or math.isinf(v):
            continue
        for sign in (1.0, -1.0):
            moved = list(values)
            moved[i] = v * (1.0 + sign * PERTURB)
            if SCALAR[op.kind](op, moved):
                return False
    return True
