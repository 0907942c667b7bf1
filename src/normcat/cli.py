"""Command line surface: parse instances, compute norms and distances,
run the property suites, generate random instances.

Exit codes: 0 on a successful computation or a passing suite, 1 when a
suite reports a failure, 2 on any input problem (bad schema, violated
invariant, unknown kind, missing file, size out of bounds) or failed
computation (an undefined extended-real operation, a value too large
for a float, a failed transport optimality certificate or another
broken runtime invariant).

Every kind of `norm`, `dist` and `generate` is one entry of the `KINDS`
registry, so a new kind adds one entry there (and one glue function if
a class check and a plain call do not fit it).  Each command loads only
the modules it runs: at import this module loads only the standard
library, `io` and `extreal`; the registry's "module.name" strings are
imported on first use through `_LAZY`, derived from it, and glue
imports any other name where it runs.  Library imports such as
`from normcat.metric import dil_distance` do not change.
"""

import argparse
import csv
import json
import os
import random
import sys
import time

from . import SUITE_NAMES
from .io import (
    parse_instance,
    write_instance,
    serialize_instance,
    ext_to_json,
    json_to_ext,
    SchemaError,
)
from .extreal import ConventionError


class SizeOutOfBounds(ValueError):
    pass


def _default_seed():
    raw = os.environ.get("NORMCAT_SEED", "0")
    try:
        return int(raw)
    except ValueError:
        raise SchemaError("NORMCAT_SEED must be an integer, got %r" % (raw,))


def _expect(what, cls, *insts):
    for inst in insts:
        if not isinstance(inst, cls):
            raise SchemaError("%s needs a %s instance, got %s"
                              % (what, cls.__name__, type(inst).__name__))


# Glue for the kinds that a class check and a plain call do not fit.  It
# reads the registry's names through `_cli` and imports others where it runs.

def _top(*parts):
    """norm --kind top, the one kind that reads --space: an order map, a
    simplicial map, or one of each describing one map."""
    pm = vm = None
    for part in parts:
        if isinstance(part, _cli.ContinuousPosetMap) and pm is None:
            pm = part
        elif isinstance(part, _cli.SimplicialMap) and vm is None:
            vm = part
        elif isinstance(part, (_cli.ContinuousPosetMap, _cli.SimplicialMap)):
            raise SchemaError("norm --kind top takes at most one %s, got two"
                              % type(part).__name__)
        else:
            raise SchemaError(
                "norm --kind top takes order-preserving and simplicial "
                "maps, got %s" % type(part).__name__)
    return _cli.topological_norm(pm, vm)


def _groth(inst):
    if not (isinstance(inst, dict) and inst.get("kind") == "group_morphism"):
        raise SchemaError("norm --kind groth needs a group_morphism instance")
    from .discrete import cyclic_group
    n = inst["n"]
    fplus, fminus, a, b = (inst[k] % n for k in ("fplus", "fminus", "a", "b"))
    return _cli.grothendieck_norm(cyclic_group(n), fplus, fminus, a, b)


def _word(inst):
    if not (isinstance(inst, dict) and inst.get("kind") == "word"):
        raise SchemaError("norm --kind word needs a word instance")
    return _cli.word_cost(inst["cost_system"], inst["word"])


def _dil_plus(a, b):
    _expect("dist --kind dil-plus", _cli.FiniteMetricSpace, a, b)
    return _cli.dil_distance(a, b, symmetrize="plus")


def _w1(a, b):
    from .measure import BaseMismatch
    _expect("dist --kind w1", _cli.FiniteMMSpace, a, b)
    if a.base.points != b.base.points or a.base.dist != b.base.dist:
        raise BaseMismatch("the two measures must share one base metric space")
    return _cli.w1_transport(_cli.MMSpaceMap(a, b, {p: p for p in a.base.points}))


def _mm(rng, size):
    from .generate import random_mm_space
    return random_mm_space(rng, size, normalize=True)


def _kind(check, route, rows=None, details=()):
    return check, route, rows or {route.rpartition(".")[2]: (None, "exact")}, details


# Every kind of every command.  A norm or dist entry is _kind(check,
# route, rows, details): check is "module.Class", the class of every
# instance, or glue that checks the instances and calls the route; route
# is the "module.function" that computes the value; rows maps each row
# name to (key, status), the row holding the route's value or its entry
# `key`, by default one exact row named after the route; details are
# keys of the route's dict copied to the report.  A generate entry is
# (largest size, builder), called as builder(rng, size).
KINDS = {
    "norm": {
        "set": _kind("discrete.FiniteFunction", "discrete.set_norm"),
        "dil": _kind("metric.MultiMap", "metric.dilatation_norm"),
        "dil-dual": _kind("metric.MultiMap", "metric.dilatation_left_dual"),
        "codiam": _kind("metric.MultiMap", "metric.codiameter_seminorm"),
        "comp": _kind("topo.ContinuousPosetMap", "topo.component_seminorm"),
        "dim": _kind("discrete.SimplicialMap", "topo.dimension_seminorm",
                     {"fiber_form": ("fiber_form", "exact"),
                      "capacity_form": ("capacity_form", "exact")}),
        "top": _kind(_top, "topo.topological_norm"),
        "prokhorov": _kind("measure.MMSpaceMap", "measure.prokhorov_seminorm"),
        "wasserstein": _kind("measure.MMSpaceMap", "wasserstein.wasserstein_seminorm",
                             {"wasserstein_lower_bound": ("lower_bound", "lower_bound")},
                             ("direction", "witness")),
        "op": _kind("io.LinearMap", "linear.operator_seminorm"),
        "groth": _kind(_groth, "discrete.grothendieck_norm"),
        "word": _kind(_word, "discrete.word_cost"),
    },
    "dist": {
        "gh": _kind("metric.FiniteMetricSpace", "metric.gh_distance"),
        "dil": _kind("metric.FiniteMetricSpace", "metric.dil_distance"),
        "dil-plus": _kind(_dil_plus, "metric.dil_distance",
                          {"dil_plus_distance": (None, "exact")}),
        "prokhorov": _kind("measure.FiniteMMSpace", "measure.prokhorov_distance"),
        "w1": _kind(_w1, "wasserstein.w1_transport", {"w1_cost": ("cost", "exact")}),
    },
    "generate": {
        "metric": (10, "generate.random_metric_space"),
        "mm": (10, _mm),
        "poset": (8, "generate.random_poset"),
        "simplicial": (8, "generate.random_simplicial"),
    },
}

# The module of each name the registry lists, imported on its first read
# through the module (PEP 562), so call sites read `_cli.name`, which also
# reaches a name patched on this module.
_LAZY = {path.rpartition(".")[2]: path.rpartition(".")[0]
         for table in KINDS.values() for entry in table.values()
         for path in entry if isinstance(path, str)}


def __getattr__(name):
    """Import a name of _LAZY and keep it as a global, so later reads find it."""
    if name not in _LAZY:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = getattr(__import__(_LAZY[name], globals(), None, (name,), 1), name)
    globals()[name] = value
    return value


_cli = sys.modules[__name__]


def _named(path):
    return getattr(_cli, path.rpartition(".")[2])


def _render_value(v):
    """One scalar as text carrying exactly the json number (or inf marker)."""
    enc = ext_to_json(v)
    return enc if isinstance(enc, str) else json.dumps(enc)


def _emit(report, fmt, out=None):
    out = sys.stdout if out is None else out
    if fmt == "json":
        out.write(json.dumps(report, sort_keys=True, indent=2) + "\n")
        return
    rows = report["results"]
    if fmt == "csv":
        w = csv.writer(out, lineterminator="\n")
        if rows and "value" in rows[0]:
            w.writerow(["name", "value"])
            for r in rows:
                w.writerow([r["name"], _render_value(json_to_ext(r["value"]))])
        else:
            w.writerow(["name", "ok", "detail"])
            for r in rows:
                w.writerow([r["name"], json.dumps(r["ok"]), r["detail"]])
        return
    for r in rows:
        if "value" in r:
            out.write("%s = %s\n" % (r["name"], _render_value(json_to_ext(r["value"]))))
        else:
            out.write("[%s] %s  (%s)\n" % ("ok" if r["ok"] else "FAIL",
                                           r["name"], r["detail"]))


def _report(command, results, seed=None, **extra):
    rep = {"command": command, "results": results, "seed": seed}
    rep.update(extra)
    return rep


def _cmd_norm(args):
    if args.space is not None and KINDS["norm"][args.kind][0] is not _top:
        raise SchemaError("norm --kind %s takes no --space; only --kind top reads "
                          "a second instance" % (args.kind,))
    return _compute("norm", args, [args.map] + ([args.space] if args.space else []))


def _cmd_dist(args):
    return _compute("dist", args, [args.a, args.b])


def _compute(command, args, paths):
    t0 = time.perf_counter()
    insts = [parse_instance(path) for path in paths]
    check, route, rows, details = KINDS[command][args.kind]
    if callable(check):
        out = check(*insts)
    else:
        _expect("%s --kind %s" % (command, args.kind), _named(check), *insts)
        out = _named(route)(*insts)
    results = [{"name": name, "value": ext_to_json(out if key is None else out[key]),
                "status": status, "route": route} for name, (key, status) in rows.items()]
    rep = _report(command, results, kind=args.kind,
                  timing_s=round(time.perf_counter() - t0, 6))
    if details:
        rep["details"] = {k: out[k] for k in details}
    _emit(rep, args.format)
    return 0


def _cmd_check(args):
    if args.cases < 1:
        raise SizeOutOfBounds("--cases must be at least 1, got %d" % args.cases)
    from .suites import run_suite
    t0 = time.perf_counter()
    rows = run_suite(args.suite, args.seed, args.cases)
    ok = all(r["ok"] for r in rows)
    _emit(_report("check", rows, seed=args.seed, suite=args.suite,
                  cases=args.cases, ok=ok,
                  timing_s=round(time.perf_counter() - t0, 6)), args.format)
    return 0 if ok else 1


def _cmd_generate(args):
    hi, build = KINDS["generate"][args.kind]
    if not 1 <= args.size <= hi:
        raise SizeOutOfBounds("size for kind %r must lie in [1, %d], got %d"
                              % (args.kind, hi, args.size))
    obj = (build if callable(build) else _named(build))(random.Random(args.seed), args.size)
    if args.out:
        write_instance(obj, args.out)
        _emit(_report("generate", [], seed=args.seed, kind=args.kind,
                      size=args.size, out=args.out), args.format)
    else:
        sys.stdout.write(serialize_instance(obj))
    return 0


def build_parser():
    p = argparse.ArgumentParser(
        prog="normcat",
        description="Norms on finite categories and the induced distances.")
    sub = p.add_subparsers(dest="command", required=True)

    def add_format(sp):
        sp.add_argument("--format", choices=("json", "csv", "text"),
                        default="json", help="output format (default json)")

    sp = sub.add_parser("norm", help="norm of one morphism instance")
    sp.add_argument("--kind", choices=tuple(KINDS["norm"]), required=True)
    sp.add_argument("--map", required=True, help="instance file")
    sp.add_argument("--space", default=None,
                    help="auxiliary instance file (second part for --kind top)")
    add_format(sp)
    sp.set_defaults(func=_cmd_norm)

    sp = sub.add_parser("dist", help="distance between two space instances")
    sp.add_argument("--kind", choices=tuple(KINDS["dist"]), required=True)
    sp.add_argument("a", help="first instance file")
    sp.add_argument("b", help="second instance file")
    add_format(sp)
    sp.set_defaults(func=_cmd_dist)

    sp = sub.add_parser("check", help="run a seeded property suite")
    sp.add_argument("--suite", choices=SUITE_NAMES + ("all",), required=True)
    sp.add_argument("--cases", type=int, default=50)
    sp.add_argument("--seed", type=int, default=None)
    add_format(sp)
    sp.set_defaults(func=_cmd_check)

    sp = sub.add_parser("generate", help="write a random valid instance")
    sp.add_argument("--kind", choices=tuple(KINDS["generate"]), required=True)
    sp.add_argument("--size", type=int, required=True)
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--out", default=None, help="output path (default stdout)")
    add_format(sp)
    sp.set_defaults(func=_cmd_generate)
    return p


# built once: parse_args keeps no state between calls
PARSER = build_parser()


def main(argv=None):
    args = PARSER.parse_args(argv)
    try:
        if getattr(args, "seed", 0) is None:
            args.seed = _default_seed()
        return args.func(args)
    except (ValueError, OSError, OverflowError, ConventionError, RuntimeError) as exc:
        sys.stderr.write("error: %s\n" % (exc,))
        return 2


if __name__ == "__main__":
    sys.exit(main())
