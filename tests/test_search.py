"""The shared subset walk, the forward-checking assignment search and
the least-max threshold search, the searches built on them, and the
size and node caps as the CLI reports them."""

import ast
import bisect
import dataclasses
import importlib
import inspect
import itertools
import json
import math
import pathlib
import pkgutil
import random
import re
import sys
import tracemalloc

import numpy as np
import pytest

import normcat
from normcat import metric, search
from normcat.cli import main
from normcat.discrete import find_injective_simplicial_map, find_simplicial_isomorphism
from normcat.generate import random_metric_space, random_poset, random_simplicial
from normcat.io import map_to_json
from normcat.measure import FiniteMMSpace, measure_isometry_search
from normcat.metric import (
    FiniteMetricSpace, MultiMap, diameter, dil_distance, dilatation_norm, find_expansive_map,
    gh_distance, is_isometry, isometry_search, min_dilatation_map, search_slack, two_point_space,
    zero_dilatation_endos,
)
from normcat.search import fits, least_max, subsets
from normcat.topo import all_order_preserving_maps, all_posets, connected_components

TOL = 1e-9


# -- subsets ---------------------------------------------------------------

def test_subsets_follow_bitmask_order():
    assert list(subsets("abc")) == [
        ["a"], ["b"], ["a", "b"], ["c"], ["a", "c"], ["b", "c"], ["a", "b", "c"]]
    assert list(subsets("ab", nonempty=False)) == [[], ["a"], ["b"], ["a", "b"]]
    assert list(subsets(())) == []
    assert list(subsets((), nonempty=False)) == [[]]


@pytest.mark.parametrize("n", range(7))
def test_subsets_count(n):
    assert sum(1 for _ in subsets(range(n))) == 2 ** n - 1
    assert sum(1 for _ in subsets(range(n), nonempty=False)) == 2 ** n


def test_subsets_cap():
    assert sum(1 for _ in subsets(range(16))) == 2 ** 16 - 1
    with pytest.raises(ValueError, match="limited to 16"):
        subsets(range(17))
    assert sum(1 for _ in subsets(range(10), nonempty=False, limit=10)) == 2 ** 10
    with pytest.raises(ValueError, match="limited to 10"):
        subsets(range(11), nonempty=False, limit=10)


# -- subset_table, subset_sums, sorted_sums, level_sums ----------------

def mask_of(items):
    return sum(2 ** i for i in items)


def test_subset_table_combines_over_subsets():
    rng = random.Random(4201)
    for _ in range(60):
        n, m = rng.randint(0, 7), rng.randint(0, 5)
        cols = np.array([[rng.choice((0.0, 1.0, 2.5, math.inf, -math.inf, rng.random()))
                          for _ in range(m)] for _ in range(n)]).reshape(n, m)
        width = rng.choice((None, 1, 2 ** 13, 2 ** 14, 2 ** 16))
        table = np.concatenate([rows for _, rows in search.subset_table(cols, width)])
        assert table.shape == (2 ** n, m)
        for s in subsets(range(n), nonempty=False):
            assert table[mask_of(s)].tolist() == [min([cols[i, x] for i in s], default=math.inf)
                                                  for x in range(m)]


def test_subset_table_blocks_come_in_bitmask_order():
    # 5 items and room for 4 rows a block: 8 blocks of 4
    blocks = list(search.subset_table(-np.eye(5), search.BLOCK_FLOATS // 4))
    assert [(start, len(rows)) for start, rows in blocks] == [(4 * k, 4) for k in range(8)]
    table = np.concatenate([rows for _, rows in blocks])
    assert table[0].tolist() == [math.inf] * 5
    for mask in range(1, 32):
        assert table[mask].tolist() == [-float(mask >> i & 1) for i in range(5)]
    # a small table is one block
    assert [start for start, _ in search.subset_table(-np.eye(5))] == [0]


def test_subset_table_caps_before_allocating():
    with pytest.raises(ValueError, match="limited to 16 elements, got 17"):
        search.subset_table(np.zeros((17, 3)))
    with pytest.raises(ValueError, match="limited to 16 elements, got 40"):
        search.subset_table(np.zeros((40, 1000)))
    with pytest.raises(ValueError, match="limited to 16 elements, got 17"):
        search.subset_sums([1.0] * 17)


def test_subset_table_blocks_stay_small():
    # 16 target points and a 200-point source, as in a Prokhorov table
    n, m = 16, 216
    cols = np.random.default_rng(4202).random((n, m))
    tracemalloc.start()
    try:
        table = search.subset_table(cols)
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        count = sum(len(rows) for _, rows in table)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert count == 2 ** n
    # the low table, the block and the one before it, each at most
    # BLOCK_FLOATS floats; the whole table would be 2^16 x 216
    assert peak <= 3.5 * 8 * search.BLOCK_FLOATS, peak


def test_subset_sums_add_left_to_right():
    rng = random.Random(4203)
    for n in range(9):
        weights = [rng.choice((0.0, 0.1, 0.2, 0.3, 1e16, rng.random())) for _ in range(n)]
        sums = search.subset_sums(weights)
        assert len(sums) == 2 ** n
        for s in subsets(range(n), nonempty=False):
            assert sums[mask_of(s)] == sum(weights[i] for i in s)


def test_level_sums_match_a_sum_per_level():
    rng = random.Random(4204)
    for _ in range(200):
        n = rng.randint(0, 8)
        row = [rng.choice((0.0, 1.0, 2.0, math.inf, rng.random())) for _ in range(n)]
        weights = [rng.choice((0.0, 0.1, 0.2, 0.7, rng.random())) for _ in range(n)]
        levels = sorted({t for t in row if t < math.inf})
        totals = [sum(w for w, d in zip(weights, row) if d <= t) for t in levels]
        assert search.level_sums(row, weights) == (levels, totals)


def test_sorted_sums_total_each_level_like_sum():
    rng = random.Random(4206)
    for _ in range(150):
        n, c = rng.randint(0, 8), rng.randint(1, 4)
        dists = np.array([[rng.choice((0.0, 1.0, 2.0, math.inf, rng.random())) for _ in range(c)]
                          for _ in range(n)]).reshape(n, c)
        weights = [rng.choice((0.0, 0.1, 0.2, 0.7, 1e16, rng.random())) for _ in range(n)]
        for sums in (search.subset_sums(weights), None):
            d, totals = search.sorted_sums(dists, weights, sums)
            for b in range(c):
                col = dists[:, b].tolist()
                assert d[:, b].tolist() == sorted(col)
                for k in range(n):
                    # inside a tie group the table gives part of the group
                    if sums is None or k == n - 1 or d[k + 1, b] != d[k, b]:
                        assert totals[k, b] == sum(w for w, x in zip(weights, col) if x <= d[k, b])


# -- component_counts ----------------------------------------------------------

def test_component_counts_match_the_flood_on_every_mask():
    rng = random.Random(4210)
    for _ in range(40):
        n = rng.randint(0, 8)
        # groups of 0-3 nodes of a random poset, adjacent when comparable
        sizes = [rng.choice((0, 1, 1, 2, 3)) for _ in range(n)]
        sp = random_poset(rng, max(1, sum(sizes)), "p")
        groups, at = [], 0
        for k in sizes:
            groups.append(list(range(at, at + k)))
            at += k
        adj = [search.bitmask(v for v, q in enumerate(sp.points) if sp.comparable(p, q))
               for p in sp.points]
        counts = search.component_counts(groups, adj)
        assert len(counts) == 2 ** n
        for s in subsets(range(n), nonempty=False):
            nodes = [sp.points[u] for i in s for u in groups[i]]
            assert counts[mask_of(s)] == len(connected_components(sp, nodes))


def test_component_counts_on_a_graph_that_is_no_order():
    # the 5-cycle, a node a group, and its two halves as groups
    adj = [search.bitmask({(u - 1) % 5, (u + 1) % 5}) for u in range(5)]
    counts = search.component_counts([[u] for u in range(5)], adj)
    assert counts[mask_of([0, 2])] == 2
    assert counts[mask_of([0, 1, 3])] == 2
    assert counts[mask_of(range(5))] == 1
    # 0 and 4 are neighbours, 1 and 3 are not
    assert search.component_counts([[0, 2, 4], [1, 3]], adj) == [0, 2, 2, 1]
    assert search.component_counts([], []) == [0]


def test_component_counts_caps_before_allocating():
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="limited to 16 elements, got 17"):
            search.component_counts([[u] for u in range(17)], [0] * 17)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a table of 2^17 counts would hold about 1 MB
    assert peak < 64 * 1024, peak


# -- down_sets ---------------------------------------------------------------

def random_order(rng, n):
    """below[i] for a random partial order on range(n), numbered in a
    linear extension: every item below i, directly or not."""
    below = []
    for i in range(n):
        under = set()
        for j in range(i):
            if rng.random() < 0.25:
                under |= {j, *below[j]}
        below.append(sorted(under))
    return below


def test_down_sets_match_the_filtered_subset_walk():
    rng = random.Random(4301)
    for _ in range(40):
        n = rng.randint(0, 12)
        below = random_order(rng, n)
        closed = [s for s in subsets(range(n), nonempty=False)
                  if all(j in s for i in s for j in below[i])]
        got = list(search.down_sets(below))
        assert got[:1] == [[]]
        assert sorted(got) == sorted(closed)


def test_down_sets_charge_one_node_per_decision(monkeypatch):
    # a chain of three: 3 items left out, then 0 in and 1, 2 out, then 1
    # in and 2 out, then 2 in
    monkeypatch.setattr(search, "MAX_NODES", 9)
    assert list(search.down_sets([[], [0], [1]])) == [[], [0], [0, 1], [0, 1, 2]]
    monkeypatch.setattr(search, "MAX_NODES", 8)
    with pytest.raises(ValueError, match="^search is limited to 8 nodes$"):
        list(search.down_sets([[], [0], [1]]))


def test_down_sets_are_iterative():
    # a chain deeper than the recursion limit
    n = sys.getrecursionlimit() + 10
    walk = search.down_sets([[]] + [[i] for i in range(n - 1)])
    assert sum(1 for _ in walk) == n + 1


# -- fits ------------------------------------------------------------------

def solve(domains, compatible, nodes=None):
    """Every list a with a[i] in domains[i] and compatible(j, a[j], i, a[i])
    for all j < i, in lexicographic order of the domains: the forward
    checking over one Python call per check that fits replaced, kept as
    the oracle for its lists and node counts.  Placing a[i] removes the
    values that clash with it from every later domain, and a prefix that
    empties one is not extended; each call of compatible is one node."""
    nodes = [0] if nodes is None else nodes

    def extend(a, doms):
        if not doms:
            yield a
            return
        i, later = len(a), doms[1:]
        for v in doms[0]:
            rest = []
            for k, dom in enumerate(later, i + 1):
                search._charge(nodes, len(dom))
                dom = [w for w in dom if compatible(i, v, k, w)]
                if not dom:
                    break
                rest.append(dom)
            else:
                yield from extend(a + [v], rest)

    return extend([], [list(d) for d in domains])


def random_table(rng):
    """Random domains, some of them empty, and a random compatibility table."""
    domains = [rng.sample(range(4), rng.choice((0, 1, 2, 3, 3, 4)))
               for _ in range(rng.randint(0, 4))]
    ok = {(j, v, i, w): rng.random() < 0.7
          for i in range(len(domains)) for j in range(i) for v in range(4) for w in range(4)}
    return domains, lambda j, v, i, w: ok[j, v, i, w]


def clash_table(domains, ok, m=4):
    """(slots, rows) for fits at r = 0 over the pairs (slot j, value v),
    row j * m + v, the term 1 where ok fails and 0 elsewhere."""
    n = len(domains)
    table = np.zeros((n * m, n * m))
    for i in range(n):
        for j in range(i):
            for v in range(m):
                for w in range(m):
                    table[j * m + v, i * m + w] = not ok(j, v, i, w)
    return [[j * m + v for v in dom] for j, dom in enumerate(domains)], table_rows(table)


def values(domains, lists):
    return [[domains[i][k] for i, k in enumerate(a)] for a in lists]


def test_fits_matches_a_filtered_product():
    rng = random.Random(4107)
    for _ in range(200):
        domains, ok = random_table(rng)
        ref = [list(a) for a in itertools.product(*domains)
               if all(ok(j, a[j], i, a[i]) for i in range(len(a)) for j in range(i))]
        ref_nodes, nodes = [0], [0]
        assert list(solve(domains, ok, ref_nodes)) == ref
        slots, rows = clash_table(domains, ok)
        assert values(domains, fits(slots, rows, 0, nodes)) == ref
        assert nodes == ref_nodes
    zeros = table_rows(np.zeros((3, 3)))
    assert list(fits([], zeros, 0)) == [[]]
    assert list(fits([[1, 0], [], [2]], zeros, 0)) == []
    assert list(fits([[], [1, 0]], zeros, 0)) == []
    assert list(fits([[1, 0]] * 2, zeros, 0)) == [[0, 0], [0, 1], [1, 0], [1, 1]]


def test_fits_removes_a_clashing_value_from_every_later_domain():
    ok = lambda j, v, i, w: not (j == 0 and v == 0 and w == 0)
    slots, rows = clash_table([[0, 1]] * 3, ok, 2)
    nodes = [0]
    assert list(fits(slots, rows, 0, nodes)) == [
        [0, 1, 1], [1, 0, 0], [1, 0, 1], [1, 1, 0], [1, 1, 1]]
    # a[0] = 0 removes 0 from both later domains (2 + 2 checks): a[1] = 0
    # is never placed, and a[1] = 1 is checked against the one value left
    # for a[2]; then a[0] = 1 (2 + 2) and a[1] = 0, 1 (2 + 2)
    assert nodes == [4 + 1 + 4 + 2 + 2]
    ref = [0]
    assert len(list(solve([[0, 1]] * 3, ok, ref))) == 5 and ref == nodes
    # a prefix that empties a domain is not extended
    slots, rows = clash_table([[0], [0], [0, 1]], lambda j, v, i, w: i < 2, 2)
    assert list(fits(slots, rows, 0)) == []
    # r decides what fits: the terms 1 are clashes at 0 and not at 1
    slots, rows = clash_table([[0, 1]] * 2, lambda j, v, i, w: v != w, 2)
    assert list(fits(slots, rows, 0)) == [[0, 1], [1, 0]]
    assert list(fits(slots, rows, 1)) == [[0, 0], [0, 1], [1, 0], [1, 1]]


def test_fits_counts_every_check(monkeypatch):
    # every slot reads the rows 0 and 1 of one 2 x 2 table of zeros
    reads = []
    zeros = table_rows(np.zeros((2, 2)), reads)
    # 2 values of a[0] against 2 + 2 later values, then 2 x 2 of a[1] against 2
    monkeypatch.setattr(search, "MAX_NODES", 16)
    nodes = [0]
    assert len(list(fits([range(2)] * 3, zeros, 0, nodes))) == 8
    assert nodes == [16] and reads == [(0, 2)]
    nodes = [0]
    assert next(fits([range(2)] * 2, zeros, 0, nodes)) == [0, 0]
    assert nodes == [2]
    monkeypatch.setattr(search, "MAX_NODES", 15)
    with pytest.raises(ValueError, match="^search is limited to 15 nodes$"):
        list(fits([range(2)] * 3, zeros, 0))
    monkeypatch.setattr(search, "MAX_NODES", 5)
    # the count is shared by every search that is handed it
    nodes = [4]
    with pytest.raises(ValueError, match="^search is limited to 5 nodes$"):
        next(fits([range(2)] * 2, zeros, 0, nodes))
    # a table of len(T) ** 2 past the count is never read
    monkeypatch.setattr(search, "MAX_NODES", 3)
    reads.clear()
    with pytest.raises(ValueError, match="^search is limited to 3 nodes$"):
        next(fits([range(2)] * 2, zeros, 0))
    assert reads == []


# -- least_max -----------------------------------------------------------------

def term_least_max(domains, term, floor):
    """The term-callback least_max that the table search replaced, kept as
    the oracle for values, witnesses and node counts: the same dive,
    candidates and bisection, with one solve per decision."""
    if not all(domains):
        return math.inf, None
    n = len(domains)
    a, ub = [], floor
    for i in range(n):
        costs = [max([ub] + [term(j, a[j], i, w) for j in range(i)]) for w in domains[i]]
        ub = min(costs)
        a.append(domains[i][costs.index(ub)])
    if ub == floor:
        return ub, a
    nodes = [0]
    search._charge(nodes, sum(len(domains[j]) * len(domains[i])
                              for i in range(n) for j in range(i)))
    cands = sorted({floor, ub} | {t for i in range(n) for j in range(i) for v in domains[j]
                                  for w in domains[i] if floor < (t := term(j, v, i, w)) < ub})
    lo, hi, first = 0, len(cands), None
    while lo < hi:
        mid = (lo + hi) // 2
        r = cands[mid]
        a = next(solve(domains, lambda j, v, i, w: term(j, v, i, w) <= r, nodes), None)
        if a is None:
            lo = mid + 1
        else:
            search._charge(nodes, n * (n - 1) // 2)
            cost = max([floor] + [term(j, a[j], i, a[i]) for i in range(n) for j in range(i)])
            hi, first = bisect.bisect_left(cands, cost), a
    return cands[hi], first


def term_min_dilatation_map(x, y):
    n, m = len(x.points), len(y.points)
    dx, dy = x.dist, y.dist

    def term(j, v, i, w):
        t, u = dx[j][i] - dy[v][w], dx[i][j] - dy[w][v]
        return t if t >= u else u

    floor = min(v for i, row in enumerate(dx) for j, v in enumerate(row) if i != j) \
        if n > m else 0.0
    val, assign = term_least_max([range(m)] * n, term, floor)
    return val, {x.points[i]: y.points[assign[i]] for i in range(n)}


def term_gh_distance(x, y):
    n, m = len(x.points), len(y.points)
    dx, dy = x.dist, y.dist

    def term(j, v, k, w):
        if k < n:
            return abs(dx[j][k] - dy[v][w])
        if j < n:
            return abs(dx[j][w] - dy[v][k - n])
        return abs(dy[j - n][k - n] - dx[v][w])

    big = x if n > m else y
    floor = 0.0 if n == m else min(
        v for i, row in enumerate(big.dist) for j, v in enumerate(row) if i != j)
    return term_least_max([range(m)] * n + [range(n)] * m, term, floor)[0] / 2.0


def counting_nodes(monkeypatch):
    """A one-item list that every later charge of the searches adds to."""
    total, charge = [0], search._charge

    def counted(nodes, k):
        total[0] += k
        charge(nodes, k)

    monkeypatch.setattr(search, "_charge", counted)
    return total


def planar(rng, n, prefix, scale=1.0):
    pts = [(scale * rng.random(), scale * rng.random()) for _ in range(n)]
    return FiniteMetricSpace(["%s%d" % (prefix, i) for i in range(n)],
                             [[math.dist(p, q) for q in pts] for p in pts])


def int_line(rng, n, prefix, quasi=False):
    """n points at distinct integers in [0, 9], read as the line metric or,
    with quasi, with one direction costing twice the other: many ties."""
    xs = rng.sample(range(10), n)
    d = [[float(abs(a - b)) * (2.0 if quasi and a < b else 1.0) for b in xs] for a in xs]
    return FiniteMetricSpace(["%s%d" % (prefix, i) for i in range(n)], d, allow_quasi=quasi)


def space_pairs(seed, count, quasi=True, most=49):
    """Seeded pairs of 1-7 points, at most `most` pairs of points between
    them: planar, integer and (with quasi) quasi-metric spaces, of
    unequal sizes both ways round."""
    rng = random.Random(seed)
    kinds = [lambda k, p: planar(rng, k, p), lambda k, p: int_line(rng, k, p)]
    if quasi:
        kinds += [lambda k, p: quasi_metric(rng, k, p),
                  lambda k, p: int_line(rng, k, p, quasi=True)]
    for t in range(count):
        n, m = rng.randint(1, 7), rng.randint(1, 7)
        while n * m > most:
            n, m = rng.randint(1, 7), rng.randint(1, 7)
        if t % 3 == 0:
            n, m = min(n, m), max(n, m)
        elif t % 3 == 1:
            n, m = max(n, m), min(n, m)
        yield rng.choice(kinds)(n, "x"), rng.choice(kinds)(m, "y")


# whole tables, and blocks of rows that split a table, down to one row a block
@pytest.mark.parametrize("block", [search.BLOCK_FLOATS, 49 * 3, 30, 1])
def test_table_search_matches_the_term_search_on_dil(monkeypatch, block):
    nodes = counting_nodes(monkeypatch)
    monkeypatch.setattr(search, "BLOCK_FLOATS", block)
    for x, y in space_pairs(4111, 300 if block == search.BLOCK_FLOATS else 60):
        nodes[0] = 0
        ref = term_min_dilatation_map(x, y)
        ref_nodes, nodes[0] = nodes[0], 0
        got = min_dilatation_map(x, y)
        assert (repr(got[0]), got[1], nodes[0]) == (repr(ref[0]), ref[1], ref_nodes)
        nodes[0] = 0
        ref = (term_min_dilatation_map(x, y)[0] + term_min_dilatation_map(y, x)[0]) / 2.0
        ref_nodes, nodes[0] = nodes[0], 0
        assert repr(dil_distance(x, y, "plus")) == repr(ref)
        assert nodes[0] == ref_nodes


@pytest.mark.parametrize("block", [search.BLOCK_FLOATS, 30, 1])
def test_table_search_matches_the_term_search_on_gh(monkeypatch, block):
    nodes = counting_nodes(monkeypatch)
    monkeypatch.setattr(search, "BLOCK_FLOATS", block)
    for x, y in space_pairs(4112, 150 if block == search.BLOCK_FLOATS else 40, False, 28):
        nodes[0] = 0
        ref = term_gh_distance(x, y)
        ref_nodes, nodes[0] = nodes[0], 0
        assert repr(gh_distance(x, y)) == repr(ref)
        assert nodes[0] == ref_nodes


def test_table_search_reads_values_past_64(monkeypatch):
    # three points spread over [0, 10]^2 into 70 in [0, 1]^2: every map
    # shrinks, so the dive misses the floor (nodes are charged only past
    # it), and the first optimal map sends x0 to y68
    rng = random.Random(7)
    x, y = planar(rng, 3, "x", 10.0), planar(rng, 70, "y")
    nodes = counting_nodes(monkeypatch)
    ref = term_min_dilatation_map(x, y)
    ref_nodes, nodes[0] = nodes[0], 0
    assert min_dilatation_map(x, y) == ref
    assert nodes[0] == ref_nodes > 0
    assert ref[1]["x0"] == "y68"
    # two points 9.5 apart against a unit cloud of 69 with y66 at (10, 0):
    # the phi slots hold 70 values and the first optimum sends x1 to y66
    rng = random.Random(2)
    pts = [(rng.random(), rng.random()) for _ in range(70)]
    pts[66] = (10.0, 0.0)
    y = FiniteMetricSpace(["y%d" % i for i in range(70)],
                          [[math.dist(p, q) for q in pts] for p in pts])
    x = two_point_space(9.5, ("x0", "x1"))
    found = []

    def spy(*args):
        found.append(least_max(*args))
        return found[-1]

    monkeypatch.setattr(metric, "least_max", spy)
    nodes[0] = 0
    ref = term_gh_distance(x, y)
    ref_nodes, nodes[0] = nodes[0], 0
    assert repr(gh_distance(x, y)) == repr(ref)
    assert nodes[0] == ref_nodes > 0
    assert found[0][1][:2] == [0, 66]


def test_table_search_gives_up_before_building_a_large_table():
    # 50 x 50 planar points: a 2500 x 2500 table, 50 MB of floats, is past
    # the node count, so the search stops after the dive
    rng = random.Random(9)
    x, y = planar(rng, 50, "x"), planar(rng, 50, "y")
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="^search is limited to 5000000 nodes$"):
            min_dilatation_map(x, y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the dive holds a block of rows or two, each at most BLOCK_FLOATS floats
    assert peak < 8 * 8 * search.BLOCK_FLOATS, peak
    # a dive that reaches the floor needs no table
    copy = FiniteMetricSpace(["z%d" % i for i in range(50)], x.dist)
    value, witness = min_dilatation_map(x, copy)
    assert value == 0.0 and dilatation_norm(MultiMap.from_function(x, copy, witness)) == 0.0
    assert gh_distance(x, copy) == 0.0


def test_table_scan_holds_about_the_distinct_terms(monkeypatch):
    # 45 x 45 planar points: the 2025 x 2025 table fits the node count, and
    # its 1.4 M entries between the floor and the dive's bound hold 0.34 M
    # distinct terms, since each term of a symmetric table recurs
    rng = random.Random(9)
    x, y = planar(rng, 45, "x"), planar(rng, 45, "y")
    distinct_terms = []

    def distinct(floor, terms, ub):
        cands = distinct_of(floor, terms, ub)
        distinct_terms.append(len(cands) - 2)
        return cands

    distinct_of = search._distinct
    monkeypatch.setattr(search, "_distinct", distinct)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="^search is limited to 5000000 nodes$"):
            min_dilatation_map(x, y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # beyond the table: a few copies of the distinct terms, where keeping
    # every in-range entry to the end held over ten
    table = 8 * 2025 * 2025
    assert 300_000 < distinct_terms[0] < 400_000, distinct_terms
    assert peak - table < 6 * 8 * distinct_terms[0], (peak, distinct_terms)


def table_rows(table, reads=None):
    """rows(lo, hi) over a fixed table, noting each call in reads."""
    def rows(lo, hi):
        if reads is not None:
            reads.append((lo, hi))
        return table[lo:hi].copy()
    return rows


def random_term_table(rng, sizes, values, floor):
    """(slots, table): slot i's values at rows in a random order, and a
    table whose term for two slots is drawn from values, the same either
    way round, and floor within a slot."""
    order = rng.sample(range(sum(sizes)), sum(sizes))
    slots, k = [], 0
    for size in sizes:
        slots.append(order[k:k + size])
        k += size
    table = np.full((k, k), floor)
    for i in range(len(slots)):
        for j in range(i):
            for p in slots[j]:
                for q in slots[i]:
                    table[p, q] = table[q, p] = rng.choice(values)
    return slots, table


def brute_least_max(slots, table, floor):
    def cost(a):
        ps = [slot[w] for slot, w in zip(slots, a)]
        return max([floor] + [table[ps[j], ps[i]] for i in range(len(a)) for j in range(i)])

    every = [list(a) for a in itertools.product(*[range(len(s)) for s in slots])]
    low = min(map(cost, every))
    return low, next(a for a in every if cost(a) == low)


def test_least_max_returns_the_first_optimum(monkeypatch):
    rng, whole = random.Random(4108), search.BLOCK_FLOATS
    for t in range(120):
        # whole tables, then blocks of one row
        monkeypatch.setattr(search, "BLOCK_FLOATS", whole if t < 60 else 1)
        sizes = [rng.randint(1, 3) for _ in range(rng.randint(0, 5))]
        floor = rng.choice((-1.0, 0.0))
        # few distinct term values, so ties between lists are common
        slots, table = random_term_table(rng, sizes, (-1.0, 0.0, 1.0, 2.0), floor)
        if rng.random() < 0.5:
            slots = [range(slot[0], slot[0] + 1) if len(slot) == 1 else slot for slot in slots]
        assert least_max(slots, table_rows(table), floor) == brute_least_max(slots, table, floor)
    assert least_max([[0, 1], [], [2]], table_rows(np.zeros((3, 3))), 0.0) == (math.inf, None)


def test_least_max_lowers_the_bracket_to_each_list_found(monkeypatch):
    decisions, seen = [], []

    def decide(*args):
        decisions.append(1)
        return fits_of(*args)

    def distinct(*args):
        seen.append(distinct_of(*args).tolist())
        return np.array(seen[-1])

    fits_of, distinct_of = search._fits, search._distinct
    monkeypatch.setattr(search, "_fits", decide)
    monkeypatch.setattr(search, "_distinct", distinct)
    rng = random.Random(4109)
    fewer = 0
    for _ in range(200):
        slots, table = random_term_table(rng, [3] * rng.randint(2, 5),
                                    [float(t) for t in range(10)], 0.0)
        low = brute_least_max(slots, table, 0.0)[0]
        decisions.clear()
        seen.clear()
        assert least_max(slots, table_rows(table), 0.0)[0] == low
        if not seen:
            continue
        # a bisection of the same candidates that learns only yes or no
        plain = []
        bisect.bisect_left(seen[0], True, key=lambda r: plain.append(r) or low <= r)
        assert len(decisions) <= len(plain)
        fewer += len(decisions) < len(plain)
    assert fewer > 20


def test_least_max_stops_at_the_floor(monkeypatch):
    # three slots of two values, the term 1.0 when two values are equal
    table = np.array([[float(j != i and v == w) for i in range(3) for w in range(2)]
                      for j in range(3) for v in range(2)])
    slots = [range(0, 2), range(2, 4), range(4, 6)]
    reads = []
    monkeypatch.setattr(search, "MAX_NODES", 0)
    # three slots over two values always repeat a value, so 1.0 is a lower bound
    assert least_max(slots, table_rows(table, reads), 1.0) == (1.0, [0, 0, 0])
    # the greedy dive alone: one block holds the table, read once
    assert reads == [(0, 6)]
    # without the floor the dive's 1.0 must be proved by a search, and
    # even the table is past the count
    with pytest.raises(ValueError, match="^search is limited to 0 nodes$"):
        least_max(slots, table_rows(table), 0.0)


def equilateral(n, prefix):
    return {"kind": "metric_space", "points": ["%s%d" % (prefix, i) for i in range(n)],
            "dist": [[float(i != j) for j in range(n)] for i in range(n)]}


@pytest.mark.parametrize("kind", ["dil", "dil-plus", "gh"])
def test_distance_searches_exit_2_past_the_node_cap(tmp_path, capsys, monkeypatch, kind):
    paths = [str(tmp_path / ("%d.json" % seed)) for seed in (1, 2)]
    for seed, path in zip((1, 2), paths):
        assert main(["generate", "--kind", "metric", "--size", "10", "--seed", str(seed),
                     "--out", path]) == 0
    capsys.readouterr()
    monkeypatch.setattr(search, "MAX_NODES", 1000)
    code = main(["dist", "--kind", kind, *paths])
    err = capsys.readouterr().err
    assert code == 2
    assert err.splitlines() == ["error: search is limited to 1000 nodes"]


def put(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def dist_value(capsys, kind, a, b):
    code = main(["dist", "--kind", kind, a, b])
    out = capsys.readouterr().out
    assert code == 0
    return json.loads(out)["results"][0]["value"]


def metric_json(pts, prefix):
    return {"kind": "metric_space", "points": ["%s%d" % (prefix, i) for i in range(len(pts))],
            "dist": [[math.dist(p, q) for q in pts] for p in pts]}


def test_line_pair_gh_reaches_the_diameter_bound(tmp_path, capsys):
    xs, ys = [0, 1.3, 2.6, 3.0, 2.8], [0, 1, 1.4, 3, 2.8, 6.5]
    a = put(tmp_path, "a.json", metric_json([(v,) for v in xs], "x"))
    b = put(tmp_path, "b.json", metric_json([(v,) for v in ys], "y"))
    # |diam x - diam y| / 2, the diameter lower bound, attained
    assert dist_value(capsys, "gh", a, b) == 1.75


def test_equilateral_12_against_11_is_answered_by_the_floor(tmp_path, capsys):
    a = put(tmp_path, "a.json", equilateral(12, "x"))
    b = put(tmp_path, "b.json", equilateral(11, "y"))
    assert dist_value(capsys, "gh", a, b) == 0.5
    assert dist_value(capsys, "dil", a, b) == 1.0
    assert dist_value(capsys, "dil", b, a) == 0.0


def test_planar_10_point_gh_pairs_finish(tmp_path, capsys):
    rng = random.Random(2024)
    pairs = [[[(rng.random(), rng.random()) for _ in range(10)] for _ in "xy"] for _ in range(4)]
    for xs, ys in pairs[2:]:
        a = put(tmp_path, "a.json", metric_json(xs, "x"))
        b = put(tmp_path, "b.json", metric_json(ys, "y"))
        diam = lambda pts: max(math.dist(p, q) for p in pts for q in pts)
        value = dist_value(capsys, "gh", a, b)
        assert abs(diam(xs) - diam(ys)) / 2 <= value <= max(diam(xs), diam(ys)) / 2


def test_order_preserving_maps_match_a_filtered_product():
    posets = [p for n in range(1, 5) for p in all_posets(n)]
    total = 0
    for x in posets:
        for y in posets:
            ref = [dict(zip(x.points, values))
                   for values in itertools.product(y.points, repeat=len(x.points))
                   if all(y.below(values[i], values[j]) for i, a in enumerate(x.points)
                          for j, b in enumerate(x.points) if x.below(a, b))]
            assert [f.assign for f in all_order_preserving_maps(x, y)] == ref
            total += len(ref)
    assert total == 19702


# -- the searches against first-hit loops ------------------------------------

def small_metric(rng, n, prefix):
    """A metric with distances in {1, 2}, which always satisfies the
    triangle inequality and usually has many symmetries."""
    d = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            d[i][j] = d[j][i] = float(rng.choice((1, 2)))
    return FiniteMetricSpace(["%s%d" % (prefix, i) for i in range(n)], d)


def first(candidates, ok):
    return next((list(c) for c in candidates if ok(c)), None)


def expansive(x, y, a):
    return all(y.dist[a[j]][a[i]] >= x.dist[j][i] - TOL
               for i in range(len(a)) for j in range(i))


def isometric(x, y, a):
    return all(abs(y.dist[a[j]][a[i]] - x.dist[j][i]) <= TOL
               for i in range(len(a)) for j in range(i))


def relabel(x, y, a):
    return None if a is None else {p: y.points[k] for p, k in zip(x.points, a)}


def test_expansive_map_search_returns_the_first_hit():
    rng = random.Random(4101)
    found = 0
    for _ in range(60):
        x = small_metric(rng, rng.randint(1, 5), "x")
        y = small_metric(rng, rng.randint(1, 5), "y")
        ref = first(itertools.product(range(len(y.points)), repeat=len(x.points)),
                    lambda a: expansive(x, y, a))
        assert find_expansive_map(x, y) == relabel(x, y, ref)
        found += ref is not None
    assert 0 < found < 60


def test_zero_dilatation_endos_lists_every_hit_in_order():
    rng = random.Random(4102)
    for _ in range(30):
        sp = small_metric(rng, rng.randint(1, 5), "x")
        n = len(sp.points)
        ref = [relabel(sp, sp, a) for a in itertools.product(range(n), repeat=n)
               if expansive(sp, sp, a)]
        assert zero_dilatation_endos(sp) == ref


def test_isometry_search_returns_the_first_hit():
    rng = random.Random(4103)
    found = 0
    for _ in range(60):
        n = rng.randint(1, 5)
        x, y = small_metric(rng, n, "x"), small_metric(rng, n, "y")
        ref = first(itertools.permutations(range(n)), lambda a: isometric(x, y, a))
        assert isometry_search(x, y) == relabel(x, y, ref)
        found += ref is not None
    assert 0 < found < 60


def test_measure_isometry_search_returns_the_first_hit():
    rng = random.Random(4104)
    found = 0
    for _ in range(60):
        n = rng.randint(1, 5)
        x, y = small_metric(rng, n, "x"), small_metric(rng, n, "y")
        mx = FiniteMMSpace(x, {p: rng.choice((0.5, 1.0)) for p in x.points})
        my = FiniteMMSpace(y, {p: rng.choice((0.5, 1.0)) for p in y.points})
        ref = first(itertools.permutations(range(n)), lambda a: isometric(x, y, a) and all(
            mx.mass[x.points[i]] == my.mass[y.points[a[i]]] for i in range(n)))
        assert measure_isometry_search(mx, my) == relabel(x, y, ref)
        found += ref is not None
    assert 0 < found < 60


def simplicial(x, y, assign):
    return all(frozenset(assign[v] for v in s) in y.simplices for s in x.simplices)


def test_injective_simplicial_map_search_returns_the_first_hit():
    rng = random.Random(4105)
    found = 0
    for _ in range(60):
        x = random_simplicial(rng, rng.randint(1, 4), "a")
        y = random_simplicial(rng, rng.randint(1, 5), "b")
        ref = next((dict(zip(x.vertices, p))
                    for p in itertools.permutations(y.vertices, len(x.vertices))
                    if simplicial(x, y, dict(zip(x.vertices, p)))), None)
        assert find_injective_simplicial_map(x, y) == ref
        found += ref is not None
    assert 0 < found < 60


def test_simplicial_isomorphism_search_returns_the_first_hit():
    rng = random.Random(4106)
    found = 0
    for _ in range(80):
        n = rng.randint(1, 5)
        x = random_simplicial(rng, n, "a")
        y = random_simplicial(rng, n, "b")
        ref = None
        if len(x.simplices) == len(y.simplices):
            for perm in itertools.permutations(y.vertices):
                assign = dict(zip(x.vertices, perm))
                back = {w: v for v, w in assign.items()}
                if simplicial(x, y, assign) and simplicial(y, x, back):
                    ref = assign
                    break
        assert find_simplicial_isomorphism(x, y) == ref
        found += ref is not None
    assert 0 < found < 80


# -- the searches against solve, seeds 1-6 ------------------------------------------

def old_expansive(x, y):
    """The per-check predicate of the expansive map searches over solve."""
    dx, dy, tol = x.dist, y.dist, search_slack(x, y)
    return lambda j, v, i, w: dy[v][w] >= dx[j][i] - tol and dy[w][v] >= dx[i][j] - tol


def counted(nodes, run):
    """(what run() returns, the nodes charged meanwhile)."""
    nodes[0] = 0
    out = run()
    return out, nodes[0]


@pytest.mark.parametrize("seed", range(1, 7))
def test_expansive_searches_match_solve(monkeypatch, seed):
    nodes = counting_nodes(monkeypatch)
    rng = random.Random(seed)
    found = 0
    for _ in range(30):
        make = rng.choice((small_metric, quasi_metric, random_metric_space))
        x, y = make(rng, rng.randint(1, 5), "x"), make(rng, rng.randint(1, 6), "y")
        doms = [range(len(y.points))] * len(x.points)
        ref = counted(nodes, lambda: next(solve(doms, old_expansive(x, y)), None))
        assert counted(nodes, lambda: find_expansive_map(x, y)) == (relabel(x, y, ref[0]), ref[1])
        found += ref[0] is not None
        doms = [range(len(x.points))] * len(x.points)
        ref = counted(nodes, lambda: [relabel(x, x, a) for a in solve(doms, old_expansive(x, x))])
        assert counted(nodes, lambda: zero_dilatation_endos(x)) == ref
    assert 0 < found < 30


def brute_isometry(x, y, ok=lambda i, v: True):
    """The first permutation that keeps every distance within the search
    slack, each ordered pair, and ok at every point, or None."""
    n, tol = len(x.points), search_slack(x, y)
    return first(itertools.permutations(range(n)), lambda a: all(ok(i, a[i]) for i in range(n))
                 and all(abs(y.dist[a[j]][a[i]] - x.dist[j][i]) <= tol
                         for i in range(n) for j in range(n)))


@pytest.mark.parametrize("seed", range(1, 7))
def test_isometry_searches_match_a_brute_force(monkeypatch, seed):
    nodes = counting_nodes(monkeypatch)
    rng = random.Random(seed)
    found = 0
    for t in range(30):
        n = rng.randint(1, 6)
        x = rng.choice((small_metric, quasi_metric))(rng, n, "x")
        y = copy_of(rng, x, "y") if t % 2 else small_metric(rng, n, "y")
        ref = brute_isometry(x, y)
        assert isometry_search(x, y) == relabel(x, y, ref)
        found += ref is not None
        # the masses leave some slots empty, and solve charges the same
        # checks before it meets one
        mx = FiniteMMSpace(x, {p: rng.choice((0.5, 1.0)) for p in x.points})
        my = FiniteMMSpace(y, {p: rng.choice((0.5, 1.0)) for p in y.points})
        ok = lambda i, v: mx.mass[x.points[i]] == my.mass[y.points[v]]
        tol = search_slack(x, y)
        same = lambda j, v, i, w: (v != w and abs(y.dist[v][w] - x.dist[j][i]) <= tol
                                   and abs(y.dist[w][v] - x.dist[i][j]) <= tol)
        doms = [[v for v in range(n) if ok(i, v)] for i in range(n)]
        ref = counted(nodes, lambda: next(solve(doms, same), None))
        assert ref[0] == brute_isometry(x, y, ok)
        got = counted(nodes, lambda: isometry_search(x, y, ok))
        assert got == (relabel(x, y, ref[0]), ref[1])
        assert measure_isometry_search(mx, my) == got[0]
    assert 0 < found < 30


@pytest.mark.parametrize("seed", range(1, 7))
def test_order_preserving_maps_match_a_filtered_product_and_solve(monkeypatch, seed):
    nodes = counting_nodes(monkeypatch)
    rng = random.Random(seed)
    for _ in range(30):
        x = random_poset(rng, rng.randint(1, 4), "a")
        y = random_poset(rng, rng.randint(1, 4), "b")
        lx, ly = x.leq, y.leq
        ok = lambda j, v, i, w: (ly[v][w] or not lx[j][i]) and (ly[w][v] or not lx[i][j])
        m, n = len(y.points), len(x.points)
        product = [list(a) for a in itertools.product(range(m), repeat=n)
                   if all(ok(j, a[j], i, a[i]) for i in range(n) for j in range(n))]
        ref = counted(nodes, lambda: list(solve([range(m)] * n, ok)))
        assert ref[0] == product
        got = counted(nodes, lambda: all_order_preserving_maps(x, y))
        assert ([f.assign for f in got[0]], got[1]) == ([relabel(x, y, a) for a in product], ref[1])


@pytest.mark.parametrize("seed", range(1, 7))
def test_injective_simplicial_maps_match_solve(monkeypatch, seed):
    nodes = counting_nodes(monkeypatch)
    rng = random.Random(seed)
    found = 0
    for _ in range(30):
        x = random_simplicial(rng, rng.randint(1, 4), "a")
        y = random_simplicial(rng, rng.randint(1, 5), "b")
        xs, ys = x.vertices, y.vertices
        ok = lambda j, v, i, w: v != w and (frozenset((xs[j], xs[i])) not in x.simplices
                                            or frozenset((v, w)) in y.simplices)

        def reference():
            for a in solve([ys] * len(xs), ok):
                if simplicial(x, y, dict(zip(xs, a))):
                    return dict(zip(xs, a))
            return None

        got = counted(nodes, lambda: find_injective_simplicial_map(x, y))
        # more vertices than the target has are refused before any search
        assert got == (counted(nodes, reference) if len(xs) <= len(ys) else (None, 0))
        found += got[0] is not None
    assert 0 < found < 30


# -- quasi-metrics: every search reads both ordered pairs ------------------------

def quasi_metric(rng, n, prefix):
    """The shortest-path closure of random directed weights in {1, 2, 3}."""
    d = [[0.0 if i == j else float(rng.randint(1, 3)) for j in range(n)] for i in range(n)]
    for k in range(n):
        for i in range(n):
            for j in range(n):
                d[i][j] = min(d[i][j], d[i][k] + d[k][j])
    return FiniteMetricSpace(["%s%d" % (prefix, i) for i in range(n)], d, allow_quasi=True)


def copy_of(rng, x, prefix):
    """x with its points permuted and, half the time, every distance reversed."""
    n = len(x.points)
    p = rng.sample(range(n), n)
    flip = rng.random() < 0.5
    d = [[x.dist[p[j]][p[i]] if flip else x.dist[p[i]][p[j]] for j in range(n)] for i in range(n)]
    return FiniteMetricSpace(["%s%d" % (prefix, i) for i in range(n)], d, allow_quasi=True)


def dil_of(x, y, values):
    return dilatation_norm(MultiMap.from_function(x, y, dict(zip(x.points, values))))


def test_quasi_metric_issue_examples():
    q = FiniteMetricSpace("pqr", [[0, 1, 1], [3, 0, 1], [3, 3, 0]], allow_quasi=True)
    y = FiniteMetricSpace("ab", [[0, 2], [2, 0]])
    assert min_dilatation_map(q, y)[0] == 3.0
    assert min_dilatation_map(y, q)[0] == 1.0
    e3 = FiniteMetricSpace("uvw", [[float(i != j) for j in range(3)] for i in range(3)])
    f = find_expansive_map(q, e3)
    assert f is None or dil_of(q, e3, [f[p] for p in q.points]) == 0.0
    assert all(dil_of(q, q, [h[p] for p in q.points]) == 0.0 for h in zero_dilatation_endos(q))


def test_dilatation_searches_on_quasi_metrics_match_brute_force():
    rng = random.Random(4109)
    for _ in range(40):
        x = quasi_metric(rng, rng.randint(1, 4), "x")
        y = quasi_metric(rng, rng.randint(1, 4), "y")
        maps = list(itertools.product(y.points, repeat=len(x.points)))
        dils = [dil_of(x, y, values) for values in maps]
        low = min(dils)
        value, witness = min_dilatation_map(x, y)
        assert value == low
        assert witness == dict(zip(x.points, maps[dils.index(low)]))
        hit = next((values for values, d in zip(maps, dils) if d == 0.0), None)
        assert find_expansive_map(x, y) == (None if hit is None else dict(zip(x.points, hit)))
        endos = [dict(zip(x.points, values))
                 for values in itertools.product(x.points, repeat=len(x.points))
                 if dil_of(x, x, values) == 0.0]
        assert zero_dilatation_endos(x) == endos


def test_isometry_searches_on_quasi_metrics_match_brute_force():
    rng = random.Random(4110)
    found = 0
    for _ in range(60):
        x = quasi_metric(rng, rng.randint(1, 4), "x")
        y = copy_of(rng, x, "y")
        ref = next((dict(zip(x.points, p)) for p in itertools.permutations(y.points)
                    if is_isometry(MultiMap.from_function(x, y, dict(zip(x.points, p))))), None)
        assert isometry_search(x, y) == ref
        mx = FiniteMMSpace(x, {p: rng.choice((0.5, 1.0)) for p in x.points})
        my = FiniteMMSpace(y, {p: rng.choice((0.5, 1.0)) for p in y.points})
        ref = next((dict(zip(x.points, p)) for p in itertools.permutations(y.points)
                    if is_isometry(MultiMap.from_function(x, y, dict(zip(x.points, p))))
                    and all(mx.mass[a] == my.mass[b] for a, b in zip(x.points, p))), None)
        assert measure_isometry_search(mx, my) == ref
        found += ref is not None
    assert 0 < found < 60


def test_isometry_search_is_a_bijection_on_pseudo_metrics():
    # sending both points of a pseudo-metric pair to one keeps every
    # distance, but an isometry is a bijection
    z = FiniteMetricSpace(["p", "q"], [[0.0, 0.0], [0.0, 0.0]], allow_pseudo=True)
    assert isometry_search(z, z) == {"p": "p", "q": "q"}
    assert find_expansive_map(z, z) == {"p": "p", "q": "p"}


def test_search_slack_follows_the_scale():
    tiny, small = two_point_space(1e-12), two_point_space(5e-12)
    assert isometry_search(tiny, small) is None
    assert find_expansive_map(small, tiny) is None
    assert find_expansive_map(tiny, small) == {"p": "p", "q": "q"}
    light = FiniteMMSpace(tiny, {"p": 1e-12, "q": 1e-12})
    heavy = FiniteMMSpace(tiny, {"p": 3e-12, "q": 3e-12})
    assert measure_isometry_search(light, heavy) is None
    assert measure_isometry_search(light, light) == {"p": "p", "q": "q"}
    # (0.1 + 0.2) * 1e9 and 0.3 * 1e9 differ by 6e-8, far below their scale
    a, b = two_point_space((0.1 + 0.2) * 1e9), two_point_space(0.3 * 1e9)
    assert isometry_search(a, b) == {"p": "p", "q": "q"}
    assert find_expansive_map(a, b) == {"p": "p", "q": "q"}
    assert find_expansive_map(b, a) == {"p": "p", "q": "q"}
    assert is_isometry(MultiMap.from_function(a, b, {"p": "p", "q": "q"}))
    ma = FiniteMMSpace(a, {"p": (0.1 + 0.2) * 1e9, "q": 1.0})
    mb = FiniteMMSpace(b, {"p": 0.3 * 1e9, "q": 1.0})
    assert measure_isometry_search(ma, mb) == {"p": "p", "q": "q"}


# -- one cap, exit 2 on the CLI ------------------------------------------------

def line(kind, n, prefix, **extra):
    pts = ["%s%d" % (prefix, i) for i in range(n)]
    return dict(kind=kind, points=pts,
                dist=[[float(abs(i - j)) for j in range(n)] for i in range(n)], **extra)


def top(n, prefix):
    return {"kind": "top_space", "points": ["%s%d" % (prefix, i) for i in range(n)],
            "leq": [[i == j for j in range(n)] for i in range(n)]}


def oversized_args(kind, n, tmp_path):
    def put(name, payload):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)

    mm = lambda p: line("mm_space", n, p, mass=[1.0 / n] * n)
    if kind == "comp":
        f = {"kind": "map", "source": top(1, "x"), "target": top(n, "y"),
             "assign": {"x0": "y0"}}
    elif kind == "prokhorov":
        f = {"kind": "map", "source": mm("y"), "target": mm("y"),
             "assign": {"y%d" % i: "y%d" % i for i in range(n)}}
    else:
        return ["dist", "--kind", "prokhorov", put("a.json", mm("y")), put("b.json", mm("y"))]
    return ["norm", "--kind", kind, "--map", put("f.json", f)]


@pytest.mark.parametrize("kind, n", [("comp", 17), ("prokhorov", 17), ("dist-prokhorov", 17)])
def test_oversized_subset_walks_exit_2(tmp_path, capsys, kind, n):
    code = main(oversized_args(kind, n, tmp_path))
    err = capsys.readouterr().err
    assert code == 2
    assert err.splitlines() == ["error: subset enumeration is limited to 16 elements, got %d" % n]


def codiam_on_the_cli(f, tmp_path, capsys):
    path = tmp_path / "f.json"
    path.write_text(json.dumps(f if isinstance(f, dict) else map_to_json(f)))
    code = main(["norm", "--kind", "codiam", "--map", str(path)])
    assert code == 0
    return json.loads(capsys.readouterr().out)["results"][0]["value"]


def one_or_two_values(rng, m, n):
    """A map from a random m-point space onto one or two of n random points
    at each source point."""
    x, y = random_metric_space(rng, m, "x"), random_metric_space(rng, n, "y")
    return MultiMap(x, y, {p: rng.sample(y.points, rng.randint(1, 2)) for p in x.points})


@pytest.mark.parametrize("n", [17, 30, 120])
def test_codiam_answers_past_16_target_points(tmp_path, capsys, n):
    # the codiameter reads subsets of at most three target points, so the
    # subset walks' cap does not bound it
    if n == 120:
        f = one_or_two_values(random.Random(2117), 170, n)
        assert codiam_on_the_cli(f, tmp_path, capsys) > 0.0
    else:
        f = {"kind": "map", "source": line("metric_space", 1, "x"),
             "target": line("metric_space", n, "y"), "assign": {"x0": "y0"}}
        assert codiam_on_the_cli(f, tmp_path, capsys) == n - 1.0


def codiameter_over_three_points(f):
    """sup0 of diam(A) - diam(preimage of A) over target subsets A of one to
    three points with a nonempty preimage."""
    best = 0.0
    for k in (1, 2, 3):
        for a in itertools.combinations(f.target.points, k):
            pre = f.preimage(a)
            if pre:
                best = max(best, diameter(f.target, a) - diameter(f.source, pre))
    return best


@pytest.mark.parametrize("n", range(17, 25))
def test_codiam_past_16_points_matches_the_three_point_subsets(tmp_path, capsys, n):
    rng = random.Random(2120 + n)
    f = one_or_two_values(rng, rng.randint(1, 8), n)
    want = codiameter_over_three_points(f)
    got = codiam_on_the_cli(f, tmp_path, capsys)
    assert got == want and repr(got) == repr(want) and want > 0.0


def test_only_the_search_module_walks_bitmasks():
    src = pathlib.Path(normcat.__file__).parent
    walkers = sorted(p.name for p in src.glob("*.py")
                     if re.search(r"\b1\s*<<", p.read_text(encoding="utf-8")))
    assert walkers == ["search.py"]


def _loop_depth(node):
    """How deeply for loops and comprehension clauses nest inside node."""
    inner = max((_loop_depth(c) for c in ast.iter_child_nodes(node)), default=0)
    if isinstance(node, ast.For):
        return inner + 1
    if isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
        return inner + len(node.generators)
    return inner


def test_each_law_is_checked_once():
    src = pathlib.Path(normcat.__file__).parent
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in src.glob("*.py")}
    checkers = {("topo.py", "FiniteTopSpace", "__init__"),
                ("discrete.py", "NormedMonoid", "from_table"),
                ("topo.py", None, "monotone_light_report")}
    found = set()
    for module, cls, name in checkers:
        tree = trees[module]
        if cls is not None:
            tree = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == cls)
        fn = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == name)
        assert _loop_depth(fn) < 3, (cls, name)
        calls = {n.func.id for n in ast.walk(fn)
                 if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)}
        assert "subsets" not in calls, (cls, name)
        found.add((module, cls, name))
    assert found == checkers
    raisers = sorted(name for name, tree in trees.items()
                     for n in ast.walk(tree)
                     if isinstance(n, ast.Constant) and isinstance(n.value, str)
                     and "associativity fails" in n.value)
    assert raisers == ["category.py"]


def test_every_class_with_an_assign_field_is_a_finite_map():
    from normcat.category import FiniteMap
    classes = []
    for info in pkgutil.iter_modules(normcat.__path__):
        if info.name != "__main__":
            mod = importlib.import_module("normcat." + info.name)
            classes += [c for c in vars(mod).values()
                        if inspect.isclass(c) and c.__module__ == mod.__name__]
    maps = [c for c in classes if dataclasses.is_dataclass(c)
            and "assign" in {f.name for f in dataclasses.fields(c)}]
    assert len(maps) >= 6
    assert all(issubclass(c, FiniteMap) for c in maps)
    assert [c for c in classes if "assign" in vars(c).get("__annotations__", {})] == [FiniteMap]
