"""Command line surface: parse instances, compute norms and distances,
run the property suites, generate random instances.

Exit codes: 0 on a successful computation or a passing suite, 1 when a
suite reports a failure, 2 on any input problem (bad schema, violated
invariant, unknown kind, missing file, size out of bounds) or failed
computation (an undefined extended-real operation, a value too large
for a float, a failed transport optimality certificate or another
broken runtime invariant).

Each command loads only the modules it runs: at import this module
loads only the standard library, `io` and `extreal`, and every other
name it calls sits in the `_LAZY` table, imported on first use.  A new
command adds its names to that table, never a top-level import of a
computation module.  Library imports such as
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

# The names the commands call, each with the module that defines it.  A
# name is imported on its first read through the module (PEP 562), so
# call sites read `_cli.name`, which also reaches a name patched on this
# module.
_LAZY = {name: module for module, names in (
    ("discrete", "FiniteFunction SimplicialMap set_norm cyclic_group grothendieck_norm "
                 "word_cost"),
    ("linear", "operator_seminorm"),
    ("metric", "FiniteMetricSpace MultiMap dilatation_norm dilatation_left_dual "
               "codiameter_seminorm dil_distance gh_distance"),
    ("topo", "ContinuousPosetMap component_seminorm dimension_seminorm topological_norm"),
    ("measure", "FiniteMMSpace MMSpaceMap BaseMismatch prokhorov_seminorm "
                "prokhorov_distance"),
    ("wasserstein", "wasserstein_seminorm w1_transport"),
    ("suites", "run_suite"),
    ("generate", "random_metric_space random_mm_space random_poset random_simplicial"),
) for name in names.split()}


def __getattr__(name):
    """Import a name of _LAZY and keep it as a global, so later reads find it."""
    if name not in _LAZY:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = getattr(__import__(_LAZY[name], globals(), None, (name,), 1), name)
    globals()[name] = value
    return value


_cli = sys.modules[__name__]


class SizeOutOfBounds(ValueError):
    pass


GENERATE_BOUNDS = {
    "metric": (1, 10),
    "mm": (1, 10),
    "poset": (1, 8),
    "simplicial": (1, 8),
}

NORM_KINDS = ("set", "dil", "dil-dual", "codiam", "comp", "dim", "top",
              "prokhorov", "wasserstein", "op", "groth", "word")
DIST_KINDS = ("gh", "dil", "dil-plus", "prokhorov", "w1")


def _default_seed():
    raw = os.environ.get("NORMCAT_SEED", "0")
    try:
        return int(raw)
    except ValueError:
        raise SchemaError("NORMCAT_SEED must be an integer, got %r" % (raw,))


def _expect(inst, cls, what):
    if not isinstance(inst, cls):
        raise SchemaError("%s needs a %s instance, got %s"
                          % (what, cls.__name__, type(inst).__name__))
    return inst


def _norm_results(kind, inst, aux):
    """(results, details) for one norm computation."""
    if kind == "set":
        f = _expect(inst, _cli.FiniteFunction, "norm --kind set")
        return [("set_norm", _cli.set_norm(f))], {}
    if kind == "dil":
        f = _expect(inst, _cli.MultiMap, "norm --kind dil")
        return [("dilatation_norm", _cli.dilatation_norm(f))], {}
    if kind == "dil-dual":
        f = _expect(inst, _cli.MultiMap, "norm --kind dil-dual")
        return [("dilatation_left_dual", _cli.dilatation_left_dual(f))], {}
    if kind == "codiam":
        f = _expect(inst, _cli.MultiMap, "norm --kind codiam")
        return [("codiameter_seminorm", _cli.codiameter_seminorm(f))], {}
    if kind == "comp":
        f = _expect(inst, _cli.ContinuousPosetMap, "norm --kind comp")
        return [("component_seminorm", _cli.component_seminorm(f))], {}
    if kind == "dim":
        f = _expect(inst, _cli.SimplicialMap, "norm --kind dim")
        out = _cli.dimension_seminorm(f)
        return [("fiber_form", out["fiber_form"]),
                ("capacity_form", out["capacity_form"])], {}
    if kind == "top":
        pm = vm = None
        for part in (inst, aux):
            if part is None:
                continue
            if isinstance(part, _cli.ContinuousPosetMap):
                pm = part
            elif isinstance(part, _cli.SimplicialMap):
                vm = part
            else:
                raise SchemaError(
                    "norm --kind top takes order-preserving and simplicial "
                    "maps, got %s" % type(part).__name__)
        return [("topological_norm", _cli.topological_norm(pm, vm))], {}
    if kind == "prokhorov":
        f = _expect(inst, _cli.MMSpaceMap, "norm --kind prokhorov")
        return [("prokhorov_seminorm", _cli.prokhorov_seminorm(f))], {}
    if kind == "wasserstein":
        f = _expect(inst, _cli.MMSpaceMap, "norm --kind wasserstein")
        out = _cli.wasserstein_seminorm(f)
        details = {"direction": out["direction"]}
        if out["witness"] is not None:
            details["witness"] = dict(out["witness"])
        return [("wasserstein_lower_bound", out["lower_bound"])], details
    if kind == "op":
        if not isinstance(inst, list):
            raise SchemaError("norm --kind op needs a linear_map instance")
        return [("operator_seminorm", _cli.operator_seminorm(inst))], {}
    if kind == "groth":
        if not (isinstance(inst, dict) and inst.get("kind") == "group_morphism"):
            raise SchemaError("norm --kind groth needs a group_morphism instance")
        n = inst["n"]
        args = [inst[k] % n for k in ("fplus", "fminus", "a", "b")]
        return [("grothendieck_norm", _cli.grothendieck_norm(_cli.cyclic_group(n), *args))], {}
    if kind == "word":
        if not (isinstance(inst, dict) and inst.get("kind") == "word"):
            raise SchemaError("norm --kind word needs a word instance")
        return [("word_cost", _cli.word_cost(inst["cost_system"], inst["word"]))], {}
    raise SchemaError("unknown norm kind %r" % (kind,))


def _dist_results(kind, a, b):
    if kind == "gh":
        _expect(a, _cli.FiniteMetricSpace, "dist --kind gh")
        _expect(b, _cli.FiniteMetricSpace, "dist --kind gh")
        return [("gh_distance", _cli.gh_distance(a, b))]
    if kind == "dil":
        _expect(a, _cli.FiniteMetricSpace, "dist --kind dil")
        _expect(b, _cli.FiniteMetricSpace, "dist --kind dil")
        return [("dil_distance", _cli.dil_distance(a, b))]
    if kind == "dil-plus":
        _expect(a, _cli.FiniteMetricSpace, "dist --kind dil-plus")
        _expect(b, _cli.FiniteMetricSpace, "dist --kind dil-plus")
        return [("dil_plus_distance", _cli.dil_distance(a, b, symmetrize="plus"))]
    if kind == "prokhorov":
        _expect(a, _cli.FiniteMMSpace, "dist --kind prokhorov")
        _expect(b, _cli.FiniteMMSpace, "dist --kind prokhorov")
        return [("prokhorov_distance", _cli.prokhorov_distance(a, b))]
    if kind == "w1":
        _expect(a, _cli.FiniteMMSpace, "dist --kind w1")
        _expect(b, _cli.FiniteMMSpace, "dist --kind w1")
        if (a.base.points != b.base.points or a.base.dist != b.base.dist):
            raise _cli.BaseMismatch("the two measures must share one base metric space")
        ident = _cli.MMSpaceMap(a, b, {p: p for p in a.base.points})
        return [("w1_cost", _cli.w1_transport(ident)["cost"])]
    raise SchemaError("unknown dist kind %r" % (kind,))


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
    if args.space is not None and args.kind != "top":
        raise SchemaError("norm --kind %s takes no --space; only --kind top reads "
                          "a second instance" % (args.kind,))
    t0 = time.perf_counter()
    inst = parse_instance(args.map)
    aux = parse_instance(args.space) if args.space else None
    pairs, details = _norm_results(args.kind, inst, aux)
    results = [{"name": n, "value": ext_to_json(v)} for n, v in pairs]
    rep = _report("norm", results, kind=args.kind,
                  timing_s=round(time.perf_counter() - t0, 6))
    if details:
        rep["details"] = details
    _emit(rep, args.format)
    return 0


def _cmd_dist(args):
    t0 = time.perf_counter()
    a = parse_instance(args.a)
    b = parse_instance(args.b)
    pairs = _dist_results(args.kind, a, b)
    results = [{"name": n, "value": ext_to_json(v)} for n, v in pairs]
    _emit(_report("dist", results, kind=args.kind,
                  timing_s=round(time.perf_counter() - t0, 6)), args.format)
    return 0


def _cmd_check(args):
    if args.cases < 1:
        raise SizeOutOfBounds("--cases must be at least 1, got %d" % args.cases)
    t0 = time.perf_counter()
    rows = _cli.run_suite(args.suite, args.seed, args.cases)
    ok = all(r["ok"] for r in rows)
    _emit(_report("check", rows, seed=args.seed, suite=args.suite,
                  cases=args.cases, ok=ok,
                  timing_s=round(time.perf_counter() - t0, 6)), args.format)
    return 0 if ok else 1


def _cmd_generate(args):
    lo, hi = GENERATE_BOUNDS[args.kind]
    if not lo <= args.size <= hi:
        raise SizeOutOfBounds("size for kind %r must lie in [%d, %d], got %d"
                              % (args.kind, lo, hi, args.size))
    rng = random.Random(args.seed)
    if args.kind == "metric":
        obj = _cli.random_metric_space(rng, args.size)
    elif args.kind == "mm":
        obj = _cli.random_mm_space(rng, args.size, normalize=True)
    elif args.kind == "poset":
        obj = _cli.random_poset(rng, args.size)
    else:
        obj = _cli.random_simplicial(rng, args.size)
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
    sp.add_argument("--kind", choices=NORM_KINDS, required=True)
    sp.add_argument("--map", required=True, help="instance file")
    sp.add_argument("--space", default=None,
                    help="auxiliary instance file (second part for --kind top)")
    add_format(sp)
    sp.set_defaults(func=_cmd_norm)

    sp = sub.add_parser("dist", help="distance between two space instances")
    sp.add_argument("--kind", choices=DIST_KINDS, required=True)
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
    sp.add_argument("--kind", choices=tuple(GENERATE_BOUNDS), required=True)
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
