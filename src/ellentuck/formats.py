"""File formats for the command line: canonical JSON and DOT trees.

Serialization is canonical throughout (sorted keys, no whitespace), so
the same value always produces the same bytes and golden-file diffs
stay quiet. Approximations serialize as {"k": ..., "nodes": [[...]]},
colorings as {"colors": {key: int}} and relations as a domain list
plus classes of indices, where a key is the canonical JSON string of
the approximation it names.
"""

import json
import re

from .ramsey import Coloring, InnerMap, Relation
from .space import Approx
from .wellorder import domain_at, order_key


def canonical_json(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------- approx


def approx_to_obj(a) -> dict:
    return {"k": a.k, "nodes": [list(w) for w in a.nodes]}


def approx_key(a) -> str:
    """Canonical JSON of the approximation, used as a mapping key."""
    return canonical_json(approx_to_obj(a))


def approx_from_obj(obj):
    """The approximation an object names."""
    if not isinstance(obj, dict):
        raise ValueError("expected an object with 'k' and 'nodes' fields")
    unknown = set(obj) - {"k", "nodes"}
    if unknown:
        raise ValueError("unknown fields: %s" % ", ".join(sorted(unknown)))
    for field in ("k", "nodes"):
        if field not in obj:
            raise ValueError("missing field %r" % field)
    nodes = obj["nodes"]
    if not isinstance(nodes, list) or not all(
        isinstance(w, list) and all(isinstance(v, int) for v in w)
        for w in nodes
    ):
        raise ValueError("'nodes' must be a list of integer lists")
    return Approx(obj["k"], tuple(map(tuple, nodes)))


def dump_approx(a) -> str:
    return canonical_json(approx_to_obj(a))


def load_approx(text, member=False):
    """The approximation JSON text names; member does nothing."""
    return approx_from_obj(_loads(text))


def _sort_key(a):
    return (a.k, len(a.nodes), a.nodes)


def _is_int(v):
    """JSON integers only: true and false are no numbers here."""
    return isinstance(v, int) and not isinstance(v, bool)


def _unique_pairs(pairs):
    """A JSON object's fields as a dict; a field given twice is an error,
    where json.loads would keep its last value."""
    obj = {}
    for key, v in pairs:
        if key in obj:
            raise ValueError("key %s appears twice" % key)
        obj[key] = v
    return obj


def _loads(text):
    """Parse JSON text, each object through _unique_pairs."""
    return json.loads(text, object_pairs_hook=_unique_pairs)


def _load_table(text, field, values, value_ok, bad_value):
    """The {approximation key: value} map of an object whose single field
    is `field`, each value checked (bad_value % key) before its key is
    parsed; `values` names what the map holds. Two keys naming one
    approximation are an error, however they are spelled."""
    obj = _loads(text)
    if not isinstance(obj, dict) or set(obj) != {field}:
        raise ValueError("expected an object with a single %r field" % field)
    entries = obj[field]
    if not isinstance(entries, dict):
        raise ValueError("%r must map approximation keys to %s" % (field, values))
    table = {}
    for key, v in entries.items():
        if not value_ok(v):
            raise ValueError(bad_value % key)
        a = approx_from_obj(_loads(key))
        if a in table:
            raise ValueError("two keys name the approximation %s" % approx_key(a))
        table[a] = v
    return table


# -------------------------------------------------------------- coloring


def dump_coloring(coloring) -> str:
    colors = {approx_key(a): c for a, c in coloring.items()}
    return canonical_json({"colors": colors})


def load_coloring(text) -> Coloring:
    return Coloring(_load_table(text, "colors", "integers", _is_int,
                                "color for %s is not an integer"))


# -------------------------------------------------------------- relation


def dump_relation(relation) -> str:
    domain = sorted(relation.domain(), key=_sort_key)
    index = {a: i for i, a in enumerate(domain)}
    classes = sorted(sorted(index[a] for a in group) for group in relation.classes())
    return canonical_json(
        {"domain": [approx_to_obj(a) for a in domain], "classes": classes}
    )


def load_relation(text) -> Relation:
    obj = _loads(text)
    if not isinstance(obj, dict) or set(obj) != {"domain", "classes"}:
        raise ValueError("expected an object with 'domain' and 'classes'")
    if not isinstance(obj["domain"], list):
        raise ValueError("'domain' must be a list of approximations")
    domain = [approx_from_obj(o) for o in obj["domain"]]
    classes = obj["classes"]
    if not isinstance(classes, list) or not all(
        isinstance(group, list) and all(map(_is_int, group))
        for group in classes
    ):
        raise ValueError("'classes' must be a list of index lists")
    used = sorted(i for group in classes for i in group)
    if used != list(range(len(domain))):
        raise ValueError("classes must partition the domain indices exactly")
    return Relation.from_classes([[domain[i] for i in group] for group in classes])


# ---------------------------------------------------------------- family


def dump_family(family) -> str:
    return canonical_json([approx_to_obj(a) for a in family])


def load_family(text) -> list:
    obj = _loads(text)
    if not isinstance(obj, list):
        raise ValueError("expected a list of approximations")
    return [approx_from_obj(o) for o in obj]


# ------------------------------------------------------------- inner map


def dump_inner_map(phi) -> str:
    vectors = {approx_key(a): list(phi.vector_for(a)) for a in phi.domain()}
    return canonical_json({"vectors": vectors})


def load_inner_map(text) -> InnerMap:
    return InnerMap(_load_table(
        text, "vectors", "level lists",
        lambda v: isinstance(v, list) and all(map(_is_int, v)),
        "vector for %s is not a list of integers",
    ))


# ------------------------------------------------------------------- dot


def _ident(values) -> str:
    return ",".join(str(v) for v in values)


def _label(values) -> str:
    if not values:
        return "∅"
    return "{" + ",".join(str(v) for v in values) + "}"


def to_dot(a) -> str:
    """Directed tree of the approximation's chain prefixes.

    Node declarations and edges both follow the well-order of the
    prefixes' index sequences, so rendered children appear in the same
    left-to-right order as the listings.
    """
    tree = {(): ()}
    for p, node in enumerate(a.nodes):
        dom = domain_at(p, a.k)
        for level in range(1, a.k + 1):
            tree[dom[:level]] = node[:level]
    order = sorted(tree, key=order_key)
    lines = ["digraph ellentuck {", "  // k=%d" % a.k, "  ordering=out;"]
    for dkey in order:
        lines.append('  "%s" [label="%s"];' % (_ident(tree[dkey]), _label(tree[dkey])))
    for dkey in order:
        if dkey:
            lines.append(
                '  "%s" -> "%s";' % (_ident(tree[dkey[:-1]]), _ident(tree[dkey]))
            )
    lines.append("}")
    return "\n".join(lines) + "\n"


_DOT_NODE = re.compile(r'^\s*"([0-9,]*)"\s*\[label="[^"]*"\]\s*;\s*$')
_DOT_EDGE = re.compile(r'^\s*"([0-9,]*)"\s*->\s*"([0-9,]*)"\s*;\s*$')
_DOT_K = re.compile(r"^\s*//\s*k=(\d+)\s*$")


def from_dot(text, member=False):
    """Rebuild an approximation from its DOT tree.

    The leaves, in declaration order, are the approximation's nodes;
    declaration order is trusted, not re-sorted, so an invalid file
    stays invalid for the validator to report. member is accepted and
    does nothing: a member is an Approx.
    """
    k = None
    idents = []  # in order of appearance, repeats included
    sources = set()
    for line in text.splitlines():
        m = _DOT_K.match(line)
        if m:
            k = int(m.group(1))
            continue
        m = _DOT_NODE.match(line) or _DOT_EDGE.match(line)
        if m:
            idents += m.groups()
            sources.update(m.groups()[:-1])  # an edge's source is no leaf
    if k is None:
        raise ValueError("missing '// k=N' comment")
    nodes = tuple(
        tuple(int(v) for v in ident.split(","))
        for ident in dict.fromkeys(idents)
        if ident and ident not in sources
    )
    return Approx(k, nodes)
