"""The exhaustive searches behind the seminorms, their axioms and the
induced distances.

A seminorm here is a supremum over the subobjects of a finite target,
so its exact value is one walk over subsets; the norm axioms (N3 in
particular) ask for maps found by a search over point assignments; a
distance is a least worst case over maps.  Every walk has a fixed
order, so every value and every first witness is reproducible.
"""

import math

# bound on the nodes least_max visits before it gives up
MAX_NODES = 2_000_000


def subsets(items, nonempty=True, limit=16):
    """Every subset of items as a list, in bitmask order.

    Subset k holds items[i] for each bit i set in k, in item order, so
    the empty subset (left out when nonempty) comes first and the full
    one last.  Raises ValueError, before anything is yielded, when there
    are more than limit items.
    """
    items = tuple(items)
    n = len(items)
    if n > limit:
        raise ValueError("subset enumeration is limited to %d elements, got %d" % (limit, n))
    return ([items[i] for i in range(n) if mask >> i & 1]
            for mask in range(1 if nonempty else 0, 1 << n))


def assignments(n, m, fits, injective=False):
    """Every list a of length n over range(m) in lexicographic order
    whose entries pass fits(i, a[i], a[:i]); with injective, the entries
    are distinct.

    The prefix is checked as it grows, so an entry that fails prunes
    every extension of it.  fits receives the live prefix list and must
    not keep or change it.
    """
    a = []

    def extend(i):
        if i == n:
            yield list(a)
            return
        for v in range(m):
            if (injective and v in a) or not fits(i, v, a):
                continue
            a.append(v)
            yield from extend(i + 1)
            a.pop()

    return extend(0)


def least_max(sizes, grow):
    """The least cost over lists a with a[i] in range(sizes[i]), and the
    first list in lexicographic order that attains it; (inf, None) when
    no list costs less than inf.

    The cost of a list is the larger of 0 and every term its prefixes
    add: grow(i, v, a, cur, bound) returns the cost of a + [v] given
    that a costs cur, and may stop early at any value >= bound.  grow
    receives the live prefix list and must not keep or change it.  Each
    call of grow visits one node; past MAX_NODES it raises ValueError.
    """
    if 0 in sizes:
        return math.inf, None
    n, nodes = len(sizes), sum(sizes)
    if nodes > MAX_NODES:
        raise ValueError("search is limited to %d nodes" % (MAX_NODES,))
    # a greedy dive gives one list; starting just above its cost, the walk
    # prunes at once and still reaches the first list of least cost
    a, cur = [], 0.0
    for i in range(n):
        cur, v = min((grow(i, v, a, cur, math.inf), v) for v in range(sizes[i]))
        a.append(v)
    best, best_a = math.nextafter(cur, math.inf), None
    a = []

    def extend(i, cur):
        nonlocal best, best_a, nodes
        if i == n:
            best, best_a = cur, list(a)
            return
        for v in range(sizes[i]):
            nodes += 1
            if nodes > MAX_NODES:
                raise ValueError("search is limited to %d nodes" % (MAX_NODES,))
            c = grow(i, v, a, cur, best)
            if c < best:
                a.append(v)
                extend(i + 1, c)
                a.pop()
                if cur >= best:  # every extension of a costs at least cur
                    return

    extend(0, 0.0)
    return best, best_a
