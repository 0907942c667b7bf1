"""The two exhaustive enumerations behind the seminorms and their axioms.

A seminorm here is a supremum over the subobjects of a finite target,
so its exact value is one walk over subsets; the norm axioms (N3 in
particular) ask for maps found by a search over point assignments.
Both walks have a fixed order, so every value and every first witness
is reproducible.
"""


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
