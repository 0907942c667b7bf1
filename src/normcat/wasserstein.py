"""Test functions, the scaling-invariant integral capacity, and W1 transport.

A metric measure space is considered up to the rescaling that trades
distance for mass: (X, lam*d, nu) matches (X, d, lam*nu).  The capacity
of a test function is the largest integral any admissible rescaled
representative gives it; the closed three-case form is checked against
a plain grid search over rescalings.  The transport side solves the
balanced W1 problem exactly and feeds a comparison harness for the
conjectured identity between the two routes.
"""

import itertools
import math
import random
from dataclasses import dataclass

from .extreal import INF, ext_sub, sup0, ConventionError
from .measure import FiniteMMSpace


class MassMismatch(ValueError):
    pass


@dataclass(frozen=True)
class ProjectiveMMSpace:
    """An mm-space considered up to the distance/mass rescaling."""
    representative: FiniteMMSpace

    def __post_init__(self):
        if self.representative.volume() <= 0.0:
            raise ValueError("the measure must not vanish identically")


def lipschitz_seminorm(phi, sp):
    """Largest slope of phi, a dict of values on the points of the
    metric space sp, over pairs of distinct points.

    A zero-distance pair with differing values gives infinity.
    """
    terms = []
    pts = sp.points
    for i, x in enumerate(pts):
        for y in pts[i + 1:]:
            gap = abs(phi[x] - phi[y])
            d = sp.d(x, y)
            if d == 0.0:
                if gap > 0.0:
                    return INF
                continue
            terms.append(gap / d)
    return sup0(terms)


def wasserstein_capacity(sp, phi):
    """Integral I = sum phi * mass of phi on its normalized representative,
    over its slope L: I / L for a finite positive L.

    An infinite slope gives 0.  So does I <= 0, as the sup over lam > 0
    of lam * I is 0 then.  A zero slope makes phi a constant c, and
    I = c * volume: a positive c can be rescaled without bound, giving
    infinity, whether or not the float sum underflows.
    """
    rep = sp.representative
    lip = lipschitz_seminorm(phi, rep.base)
    if lip == 0.0:
        return INF if max(phi.values()) > 0.0 else 0.0
    integral = sum(phi[p] * rep.mass[p] for p in rep.base.points)
    if lip == INF or integral <= 0.0:
        return 0.0
    return integral / lip


# the rescalings of wasserstein_capacity_oracle: GRID_LO * GRID_RATIO ** k
# for k < GRID_COUNT, spaced evenly in log from GRID_LO to GRID_HI
GRID_LO, GRID_HI, GRID_COUNT = 1e-9, 1e9, 80001
GRID_RATIO = (GRID_HI / GRID_LO) ** (1.0 / (GRID_COUNT - 1))


def _grid_floor(x):
    """The largest k with GRID_LO * GRID_RATIO ** k <= x, capped at
    GRID_COUNT - 1; -1 when x lies below the grid.  The log gives a
    first guess, and the two walks settle it against the grid's floats."""
    if x < GRID_LO:
        return -1
    k = int(min(GRID_COUNT - 1, math.log(x / GRID_LO) / math.log(GRID_RATIO)))
    while k + 1 < GRID_COUNT and GRID_LO * GRID_RATIO ** (k + 1) <= x:
        k += 1
    while GRID_LO * GRID_RATIO ** k > x:
        k -= 1
    return k


def wasserstein_capacity_oracle(sp, phi):
    """Grid search over rescaled representatives (X, d/lam, lam*nu).

    Admissible rescalings keep the Lipschitz seminorm of phi at most 1
    on the rescaled distance; the value of each is the integral of phi
    against the rescaled mass.  Both the admissibility margin and the
    value grow monotonically with lam, so the grid supremum sits at the
    largest admissible grid point; values of 1e6 and above report
    infinity.
    """
    rep = sp.representative
    lip = lipschitz_seminorm(phi, rep.base)
    integral = sum(phi[p] * rep.mass[p] for p in rep.base.points)
    if lip == INF:
        return 0.0
    # admissible iff lam * lip <= 1: take the largest such grid point
    k = GRID_COUNT - 1 if lip == 0.0 else _grid_floor(1.0 / lip)
    if k < 0:
        return 0.0
    value = GRID_LO * GRID_RATIO ** k * integral
    if value >= 1e6:
        return INF
    return value


# the test-function search of wasserstein_seminorm
SEARCH_K = 4
SEARCH_RESTARTS = 6
SEARCH_SWEEPS = 60
SEARCH_SEED = 0


def wasserstein_seminorm(f, direction="displayed", extra_witnesses=()):
    """Best capacity gap over a grid of test functions on the target.

    direction "displayed" maximizes c_W(source, psi after f) minus
    c_W(target, psi); "reversed" flips the two terms.  Targets with at
    most 4 points are searched exhaustively on the value grid
    {0, 1/SEARCH_K, ..., 1}; larger targets use seeded multi-start
    coordinate ascent (SEARCH_RESTARTS starts of at most SEARCH_SWEEPS
    sweeps, seeded by SEARCH_SEED).  The result is a certified lower bound with its witness,
    not an exact supremum.  extra_witnesses are evaluated alongside.
    """
    if direction not in ("displayed", "reversed"):
        raise ValueError("unknown direction %r" % (direction,))
    src = ProjectiveMMSpace(f.source)
    tgt = ProjectiveMMSpace(f.target)
    tpts = f.target.base.points

    def term(psi):
        pulled = {x: psi[f.assign[x]] for x in f.source.base.points}
        a = wasserstein_capacity(src, pulled)
        b = wasserstein_capacity(tgt, psi)
        if direction == "reversed":
            a, b = b, a
        try:
            return ext_sub(a, b)
        except ConventionError:
            return None

    best, witness = 0.0, {p: 0.0 for p in tpts}
    seen = [dict(w) for w in extra_witnesses]
    levels = [i / SEARCH_K for i in range(SEARCH_K + 1)]
    if len(tpts) <= 4:
        for combo in itertools.product(levels, repeat=len(tpts)):
            seen.append(dict(zip(tpts, combo)))
    else:
        rng = random.Random(SEARCH_SEED)
        for _ in range(SEARCH_RESTARTS):
            psi = {p: rng.choice(levels) for p in tpts}
            cur = term(psi)
            for _ in range(SEARCH_SWEEPS):
                improved = False
                for p in tpts:
                    for v in levels:
                        if v == psi[p]:
                            continue
                        cand = dict(psi, **{p: v})
                        t = term(cand)
                        if t is not None and (cur is None or t > cur):
                            psi, cur = cand, t
                            improved = True
                if not improved:
                    break
            seen.append(psi)
    for psi in seen:
        t = term(psi)
        if t is not None and t > best:
            best, witness = t, dict(psi)
    return {"lower_bound": best, "witness": witness, "direction": direction}


@dataclass(frozen=True)
class Coupling:
    """A nonnegative mass matrix with prescribed marginals."""
    source_points: tuple
    target_points: tuple
    matrix: dict
    row_marginals: dict
    col_marginals: dict

    def __post_init__(self):
        # sums in dict order within each row and column; the margin is a
        # multiple of the larger marginal total
        rows = dict.fromkeys(self.source_points, 0.0)
        cols = dict.fromkeys(self.target_points, 0.0)
        for (x, y), m in self.matrix.items():
            if x not in rows or y not in cols:
                raise ValueError("entry at unknown point pair (%r, %r)" % (x, y))
            if m < 0.0:
                raise ValueError("negative mass at (%r, %r)" % (x, y))
            rows[x] += m
            cols[y] += m
        tol = 1e-9 * max(sum(self.row_marginals.values()),
                         sum(self.col_marginals.values()))
        for x, row in rows.items():
            if abs(row - self.row_marginals[x]) > tol:
                raise ValueError("row sum at %r misses its marginal" % (x,))
        for y, col in cols.items():
            if abs(col - self.col_marginals[y]) > tol:
                raise ValueError("column sum at %r misses its marginal" % (y,))


def w1_transport(f):
    """Cheapest coupling of the two masses against the cost d(f(x), y).

    Solved exactly by successive shortest augmenting paths; the final
    flow is certified by exhibiting potentials under which every
    residual edge has nonnegative reduced cost and every loaded edge is
    tight.  Unequal total masses raise MassMismatch, and a cost past the
    largest float raises OverflowError.  Mass cut-offs are
    multiples of the larger total mass, path-length margins multiples
    of max(1, largest cost).
    """
    mu, nu, assign = f.source, f.target, f.assign
    mass = max(mu.volume(), nu.volume())
    if abs(mu.volume() - nu.volume()) > 1e-9 * mass:
        raise MassMismatch("total masses differ: %r vs %r"
                           % (mu.volume(), nu.volume()))
    xs = [x for x in mu.base.points if mu.mass[x] > 0.0]
    ys = [y for y in nu.base.points if nu.mass[y] > 0.0]
    tb = nu.base
    cost = [[tb.d(assign[x], y) for y in ys] for x in xs]
    nx, ny = len(xs), len(ys)
    flow = [[0.0] * ny for _ in range(nx)]
    supply = [mu.mass[x] for x in xs]
    demand = [nu.mass[y] for y in ys]
    # path-length margin relative to the costs, so rounding passes for no shorter path
    eps = 1e-15 * max([1.0] + [v for row in cost for v in row])
    tiny = 1e-15 * mass

    # loaded[j]: the sources whose edge into sink j carries more than tiny
    loaded = [{} for _ in range(ny)]
    remaining = sum(supply)
    while remaining > 1e-12 * mass:
        j, prev = _shortest_augmenting_path(cost, loaded, supply, demand, eps, tiny)
        if j is None:
            # only the sub-tolerance imbalance of the inputs is left
            if remaining > 1e-6 * mass:
                raise RuntimeError("no augmenting path despite unshipped mass")
            break
        # walk back to a source, recording the path and its bottleneck
        path = []
        node = nx + j
        bottleneck = demand[j]
        while prev[node] is not None:
            if len(path) == nx + ny:
                raise RuntimeError("augmenting path walk-back does not end")
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
            if flow[i][jj] > tiny:
                loaded[jj][i] = cost[i][jj]
            else:
                loaded[jj].pop(i, None)
        supply[node] -= bottleneck
        demand[j] -= bottleneck
        remaining -= bottleneck

    total = sum((flow[i][j] * cost[i][j] for i in range(nx) for j in range(ny)), 0.0)
    if total == INF:
        # masses and distances are finite, so only the sum overflowed
        raise OverflowError("the W1 cost is too large for a float")
    _certify_transport(cost, flow, nx, ny, mass)
    matrix = {(xs[i], ys[j]): flow[i][j]
              for i in range(nx) for j in range(ny) if flow[i][j] > 0.0}
    coupling = Coupling(tuple(xs), tuple(ys), matrix,
                        {x: mu.mass[x] for x in xs},
                        {y: nu.mass[y] for y in ys})
    return {"cost": total, "coupling": coupling}


def _shortest_augmenting_path(cost, loaded, supply, demand, eps, tiny):
    """Bellman-Ford from the sources with supply left to the cheapest sink.

    Nodes 0..nx-1 are sources, nx..nx+ny-1 sinks; the residual graph has
    every forward edge and, from sink j, a back edge to each source in
    loaded[j] (a dict source -> cost).  Each pass relaxes sources into
    sinks, then sinks back into sources, in index order; within one
    sink each source is met once, so the order of loaded[j] changes
    nothing.  A node is rescanned only after its label fell: right
    after a scan, every neighbour label l met the scanned node's
    candidate nd with nd >= fl(l - eps), labels only fall and
    fl(x - eps) is monotone in x, so a node whose label has not fallen
    since improves nothing.  Labels, predecessors and the pass count are
    those of the scan over every edge.  Returns the cheapest sink with
    demand left (None if none is reached) and the predecessor list.
    """
    nx, ny = len(supply), len(demand)
    src = [0.0 if s > tiny else INF for s in supply]
    src_prev = [None] * nx
    src_dirty = [v == 0.0 for v in src]
    snk = [INF] * ny
    snk_prev = [None] * ny
    snk_dirty = [False] * ny
    for _ in range(nx + ny):
        changed = False
        for i in range(nx):
            if not src_dirty[i]:
                continue
            src_dirty[i] = False
            di = src[i]
            for j, c in enumerate(cost[i]):
                nd = di + c
                if nd < snk[j] - eps:
                    snk[j] = nd
                    snk_prev[j] = i
                    snk_dirty[j] = changed = True
        for j in range(ny):
            if not snk_dirty[j]:
                continue
            snk_dirty[j] = False
            dj = snk[j]
            for i, c in loaded[j].items():
                nd = dj - c
                if nd < src[i] - eps:
                    src[i] = nd
                    src_prev[i] = nx + j
                    src_dirty[i] = changed = True
        if not changed:
            break
    best_j, best = None, INF
    for j in range(ny):
        if demand[j] > tiny and snk[j] < best:
            best, best_j = snk[j], j
    return best_j, src_prev + snk_prev


def _certify_transport(cost, flow, nx, ny, mass):
    """Potentials making loaded edges tight and all edges nonnegative.

    Shortest distances over the residual graph stabilize only when no
    negative cycle remains; the stabilized distances are the potentials
    of the complementary-slackness certificate.  Every pass scans every
    edge, independently of the augmenting-path search.  Both path
    margins are multiples of max(1, largest cost), both loaded-edge
    cut-offs multiples of the total mass.
    """
    if nx == 0 or ny == 0:
        return
    scale = max([1.0] + [v for row in cost for v in row])
    eps, tol = 1e-12 * scale, 1e-7 * scale
    dist = [0.0] * (nx + ny)
    for _ in range(nx + ny + 1):
        changed = False
        for i in range(nx):
            for j in range(ny):
                if dist[i] + cost[i][j] < dist[nx + j] - eps:
                    dist[nx + j] = dist[i] + cost[i][j]
                    changed = True
                if flow[i][j] > 1e-12 * mass and dist[nx + j] - cost[i][j] < dist[i] - eps:
                    dist[i] = dist[nx + j] - cost[i][j]
                    changed = True
        if not changed:
            break
    else:
        raise RuntimeError("optimality certificate failed: residual "
                           "graph still has a negative cycle")
    for i in range(nx):
        for j in range(ny):
            red = cost[i][j] + dist[i] - dist[nx + j]
            if red < -tol:
                raise RuntimeError("optimality certificate failed: "
                                   "negative reduced cost %r" % red)
            if flow[i][j] > 1e-9 * mass and abs(red) > tol:
                raise RuntimeError("optimality certificate failed: "
                                   "loaded edge not tight (%r)" % red)


def w1_vertex_oracle(f):
    """Brute-force minimum over all spanning-tree vertices of the polytope."""
    mu, nu, assign = f.source, f.target, f.assign
    mass = max(mu.volume(), nu.volume())
    if abs(mu.volume() - nu.volume()) > 1e-9 * mass:
        raise MassMismatch("total masses differ")
    xs = [x for x in mu.base.points if mu.mass[x] > 0.0]
    ys = [y for y in nu.base.points if nu.mass[y] > 0.0]
    nx, ny = len(xs), len(ys)
    if nx == 0:
        return 0.0
    if nx + ny > 8:
        raise ValueError("vertex enumeration is limited to small supports")
    tb = nu.base
    cost = {(i, j): tb.d(assign[xs[i]], ys[j])
            for i in range(nx) for j in range(ny)}
    edges = list(cost)
    need = nx + ny - 1
    best = INF
    for basis in itertools.combinations(edges, need):
        parent = list(range(nx + ny))

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        ok = True
        for i, j in basis:
            ra, rb = find(i), find(nx + j)
            if ra == rb:
                ok = False
                break
            parent[ra] = rb
        if not ok:
            continue
        # solve the tree by repeatedly settling a degree-one node
        bal = [mu.mass[x] for x in xs] + [-nu.mass[y] for y in ys]
        alive = set(basis)
        val = {}
        while alive:
            deg = {}
            for i, j in alive:
                deg[i] = deg.get(i, 0) + 1
                deg[nx + j] = deg.get(nx + j, 0) + 1
            leaf_edge = None
            for e in alive:
                i, j = e
                if deg[i] == 1:
                    leaf_edge, node, other = e, i, nx + j
                    break
                if deg[nx + j] == 1:
                    leaf_edge, node, other = e, nx + j, i
                    break
            i, j = leaf_edge
            amount = bal[node] if node < nx else -bal[node]
            val[leaf_edge] = amount
            bal[node] = 0.0
            if node < nx:
                bal[other] += amount
            else:
                bal[other] -= amount
            alive.discard(leaf_edge)
        if any(v < -1e-10 * mass for v in val.values()):
            continue
        total = sum(v * cost[e] for e, v in val.items())
        if total < best:
            best = total
    return best


def kr_compare(f):
    """Both sides of the conjectured transport identity, with their gap.

    lhs is the searched test-function lower bound; rhs is the exact W1
    cost plus one minus the slope of f between the volume-rescaled
    spaces.  Nothing is asserted: this is a measurement harness.
    """
    mu_sp, nu_sp = f.source, f.target
    sem = wasserstein_seminorm(f)
    lhs = sem["lower_bound"]
    w1 = w1_transport(f)["cost"]
    volx, voly = mu_sp.volume(), nu_sp.volume()
    sb, tb = mu_sp.base, nu_sp.base
    terms = []
    pts = sb.points
    for i, x in enumerate(pts):
        for y in pts[i + 1:]:
            dx = volx * sb.d(x, y)
            dy = voly * tb.d(f.assign[x], f.assign[y])
            if dx == 0.0:
                if dy > 0.0:
                    terms.append(INF)
                continue
            terms.append(dy / dx)
    hoeld = sup0(terms)
    rhs = w1 + (1.0 - hoeld) if hoeld < INF else -INF
    return {"lhs": lhs, "rhs": rhs, "gap": ext_sub(lhs, rhs),
            "w1": w1, "hoeld_rescaled": hoeld, "witness": sem["witness"]}
