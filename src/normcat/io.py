"""JSON schemas for spaces, maps, and the values they produce.

Every serializer emits canonical JSON (sorted keys, two-space indent,
trailing newline), so generate -> parse -> serialize round-trips
byte-for-byte, and parse -> serialize -> parse gives the same instance
for every kind.  Infinite values travel as the strings "inf" and "-inf".

Parsing imports only the modules of the kinds it reads, and serializing
imports none: an object can only be an instance of a class whose module
is already loaded.
"""

import json
import sys

from .extreal import INF, NEG_INF


class SchemaError(ValueError):
    pass


class InvariantError(ValueError):
    pass


class UnknownKind(ValueError):
    pass


class LinearMap(list):
    """A parsed linear_map: its rows of floats."""


def ext_to_json(x):
    if x == INF:
        return "inf"
    if x == NEG_INF:
        return "-inf"
    return x


def json_to_ext(v):
    if v == "inf":
        return INF
    if v == "-inf":
        return NEG_INF
    return float(v)


def _require(d, key, kind):
    if key not in d:
        raise SchemaError("%s instance is missing %r" % (kind, key))
    return d[key]


def _integer(d, key, kind):
    v = _require(d, key, kind)
    if not isinstance(v, int) or isinstance(v, bool):
        raise SchemaError("%s %r must be an integer, got %r" % (kind, key, v))
    return v


def _list(d, key, kind, of, scalars=None):
    """d[key], a JSON list (of lists when `of` is "lists"), not a string,
    which would be read as its characters, and with entries (in each
    row) of the kind scalars; one check per row, none per entry."""
    v = _require(d, key, kind)
    if not isinstance(v, list) or of == "lists" and not all(isinstance(r, list) for r in v):
        raise SchemaError("%s %r must be a list of %s" % (kind, key, of))
    for row in (v if of == "lists" else [v]) if scalars else ():
        _scalars(row, kind, key, scalars)
    return v


def _scalars(row, kind, key, what):
    """Raise SchemaError unless row holds only JSON booleans (what is
    "booleans") or only numbers, where a bool never counts as one."""
    if not set(map(type, row)) <= ({bool} if what == "booleans" else {int, float}):
        raise SchemaError("%s %r must hold only %s" % (kind, key, what))


def _guard(builder, *args):
    """Run a validating constructor, reporting failures as InvariantError."""
    try:
        return builder(*args)
    except (SchemaError, InvariantError):
        raise
    except (ValueError, TypeError) as exc:
        raise InvariantError(str(exc)) from exc


def _distinct(points):
    if len(set(points)) != len(points):
        raise ValueError("duplicate point ids")
    return points


def _isinstance(obj, module, cls):
    """isinstance(obj, normcat.<module>.<cls>), loading no module."""
    mod = sys.modules.get("%s.%s" % (__package__, module))
    return mod is not None and isinstance(obj, getattr(mod, cls))


def space_to_json(obj):
    if _isinstance(obj, "measure", "FiniteMMSpace"):
        return {
            "kind": "mm_space",
            "points": list(obj.base.points),
            "dist": [list(row) for row in obj.base.dist],
            "mass": [obj.mass[p] for p in obj.base.points],
        }
    if _isinstance(obj, "metric", "FiniteMetricSpace"):
        return {
            "kind": "metric_space",
            "points": list(obj.points),
            "dist": [list(row) for row in obj.dist],
        }
    if _isinstance(obj, "topo", "FiniteTopSpace"):
        return {
            "kind": "top_space",
            "points": list(obj.points),
            "leq": [[bool(v) for v in row] for row in obj.leq],
        }
    if _isinstance(obj, "discrete", "SimplicialComplex"):
        simplices = sorted(
            (sorted(s, key=obj.vertices.index) for s in obj.simplices),
            key=lambda s: (len(s), [obj.vertices.index(v) for v in s]))
        return {
            "kind": "simplicial",
            "vertices": list(obj.vertices),
            "simplices": simplices,
        }
    if isinstance(obj, (tuple, list)):
        return {"kind": "finite_set", "points": list(obj)}
    raise UnknownKind("no schema for %r" % type(obj).__name__)


def space_from_json(d):
    kind = _require(d, "kind", "space")
    if kind in ("metric_space", "mm_space"):
        from .metric import FiniteMetricSpace
        pts = tuple(_list(d, "points", kind, "points"))
        base = _guard(FiniteMetricSpace, pts, _list(d, "dist", kind, "lists", "numbers"))
        if kind == "metric_space":
            return base
        from .measure import FiniteMMSpace
        mass = _list(d, "mass", kind, "masses", "numbers")
        if len(mass) != len(pts):
            raise SchemaError("mass list length does not match points")
        return _guard(FiniteMMSpace, base, dict(zip(pts, map(float, mass))))
    if kind == "top_space":
        from .topo import FiniteTopSpace
        pts = tuple(_list(d, "points", kind, "points"))
        return _guard(FiniteTopSpace, pts, _list(d, "leq", kind, "lists", "booleans"))
    if kind == "simplicial":
        from .discrete import SimplicialComplex
        verts = tuple(_list(d, "vertices", kind, "vertices"))
        simps = [frozenset(s) for s in _list(d, "simplices", kind, "lists")]
        return _guard(SimplicialComplex, verts, frozenset(simps))
    if kind == "finite_set":
        return _guard(_distinct, tuple(_list(d, "points", kind, "points")))
    raise UnknownKind("unknown space kind %r" % (kind,))


def map_to_json(m):
    if not _isinstance(m, "category", "FiniteMap"):
        raise UnknownKind("no schema for %r" % type(m).__name__)
    # a MultiMap's value tuples serialize as JSON lists
    return {
        "kind": "map",
        "source": space_to_json(m.source),
        "target": space_to_json(m.target),
        "assign": dict(m.assign),
    }


def _keys_to_points(obj, points, what):
    """Match each key of a JSON object, a string, to the point of that string form."""
    if not isinstance(obj, dict):
        raise SchemaError("%s must be a JSON object" % (what,))
    by_str = {}
    for p in points:
        if by_str.setdefault(str(p), p) != p:
            raise SchemaError("points %r and %r have the same string form"
                              % (by_str[str(p)], p))
    return {by_str.get(k, k): v for k, v in obj.items()}


# the module and map class of each endpoint kind; both endpoints must
# share one kind
MAP_CLASSES = {
    "metric_space": ("metric", "MultiMap"),
    "mm_space": ("measure", "MMSpaceMap"),
    "top_space": ("topo", "ContinuousPosetMap"),
    "simplicial": ("discrete", "SimplicialMap"),
    "finite_set": ("discrete", "FiniteFunction"),
}


def map_from_json(d):
    from .category import carrier
    src_d = _require(d, "source", "map")
    src = space_from_json(src_d)
    tgt_d = _require(d, "target", "map")
    tgt = space_from_json(tgt_d)
    assign = _keys_to_points(_require(d, "assign", "map"), carrier(src), "map 'assign'")
    kind = src_d["kind"] if src_d["kind"] == tgt_d["kind"] else None
    cls = None
    if kind is not None:
        module, name = MAP_CLASSES[kind]
        cls = getattr(__import__(module, globals(), None, (name,), 1), name)
    if kind == "metric_space":
        return _guard(cls, src, tgt, {x: tuple(ys) if isinstance(ys, list) else (ys,)
                                           for x, ys in assign.items()})
    if any(isinstance(ys, list) and len(ys) != 1 for ys in assign.values()):
        raise SchemaError("a single-valued map takes one point per source point")
    if cls is None:
        raise SchemaError("map endpoints %r -> %r are not a supported pairing"
                          % (type(src).__name__, type(tgt).__name__))
    single = {x: (ys[0] if isinstance(ys, list) else ys)
              for x, ys in assign.items()}
    return _guard(cls, src, tgt, single)


def instance_to_json(obj):
    if _isinstance(obj, "category", "FiniteMap"):
        return map_to_json(obj)
    if isinstance(obj, LinearMap):
        return {"kind": "linear_map", "entries": obj}
    if isinstance(obj, dict) and obj.get("kind") == "word":
        cs = obj["cost_system"]
        cost = {}
        for (a, b), c in cs.cost.items():
            cost.setdefault(str(a), {})[str(b)] = ext_to_json(c)
        return {"kind": "word", "points": list(cs.points), "cost": cost,
                "word": list(obj["word"])}
    if isinstance(obj, dict):
        return obj
    return space_to_json(obj)


def instance_from_json(d):
    if not isinstance(d, dict):
        raise SchemaError("an instance must be a JSON object")
    kind = _require(d, "kind", "instance")
    if kind == "map":
        return map_from_json(d)
    if kind == "linear_map":
        entries = _list(d, "entries", kind, "lists", "numbers")
        if not entries or any(len(r) != len(entries[0]) for r in entries):
            raise InvariantError("entries must form a nonempty rectangle")
        return LinearMap([float(v) for v in row] for row in entries)
    if kind == "group_morphism":
        out = {k: _integer(d, k, kind) for k in ("n", "fplus", "fminus", "a", "b")}
        if out["n"] < 1:
            raise SchemaError("group_morphism needs n >= 1")
        return dict(out, kind=kind)
    if kind == "word":
        from .discrete import CostSystem
        pts = tuple(_list(d, "points", kind, "points"))
        rows = _keys_to_points(_require(d, "cost", kind), pts, "word 'cost'")
        cost = {(a, b): c for a, row in rows.items()
                for b, c in _keys_to_points(row, pts, "word cost row").items()}
        _scalars([c for c in cost.values() if c not in ("inf", "-inf")], kind, "cost",
                 'numbers, "inf" or "-inf"')
        cs = _guard(CostSystem, pts, {ab: json_to_ext(c) for ab, c in cost.items()})
        word = _list(d, "word", kind, "points")
        for w in word:
            if w not in pts:
                raise SchemaError("word 'word' names %r, which is not a point" % (w,))
        return {"kind": kind, "cost_system": cs, "word": tuple(word)}
    return space_from_json(d)


def parse_instance(path):
    """Load one schema-valid instance from a JSON file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError("%s: %s" % (path, exc)) from exc
    # a field of the wrong JSON type fails as a TypeError where it is read
    return _guard(instance_from_json, raw)


def serialize_instance(obj):
    """Canonical JSON text for an instance or an already-built payload."""
    payload = instance_to_json(obj)
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def write_instance(obj, path):
    text = serialize_instance(obj)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return text
