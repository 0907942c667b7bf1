"""Arithmetic on the extended real line [-inf, +inf].

Values are plain Python floats; the infinities are the usual IEEE
sentinels.  The conventions used everywhere in this package:

    log(0) = -inf     log(inf) = inf     abs(-inf) = inf

and the supremum of an empty collection is the supplied floor element.
Adding +inf to -inf is a hard error rather than a silent nan, so that
convention bugs surface at the call site instead of propagating.
"""

import math

INF = float("inf")
NEG_INF = float("-inf")


class ConventionError(ArithmeticError):
    """An operation hit an undefined extended-real form (inf - inf, log of a negative, ...)."""


def ext_add(a, b):
    """a + b with inf + (-inf) raised as ConventionError instead of nan."""
    if math.isnan(a) or math.isnan(b):
        raise ConventionError("nan operand in extended-real addition")
    if (a == INF and b == NEG_INF) or (a == NEG_INF and b == INF):
        raise ConventionError("inf + (-inf) is undefined")
    return a + b


def ext_sub(a, b):
    """a - b under the same rules as ext_add."""
    return ext_add(a, -b)


def ext_log(x):
    if math.isnan(x):
        raise ConventionError("nan operand in log")
    if x < 0:
        raise ConventionError("log of a negative number")
    if x == 0:
        return NEG_INF
    if x == INF:
        return INF
    return math.log(x)


def sup_bounded(floor, values):
    """Supremum with a floor: max(floor, sup(values)).  Empty input gives the floor."""
    best = floor
    for v in values:
        if math.isnan(v):
            raise ConventionError("nan value in supremum")
        if v > best:
            best = v
    return best


def sup0(values):
    """Supremum floored at 0, the default flavour for norm-valued suprema."""
    return sup_bounded(0.0, values)


def sup1(values):
    """Supremum floored at 1, used inside logarithms (so an empty sup logs to 0)."""
    return sup_bounded(1.0, values)


def is_norm_value(x):
    """True when x is a legal norm value: a real in [0, inf]."""
    return isinstance(x, (int, float)) and not math.isnan(x) and x >= 0
