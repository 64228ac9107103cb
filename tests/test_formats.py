"""File formats: every rejection message of the loaders, and the DOT and
JSON branches the command line does not reach on well-formed input."""

import json

import pytest

from ellentuck.formats import (
    approx_from_obj,
    approx_key,
    dump_approx,
    from_dot,
    load_approx,
    load_coloring,
    load_family,
    load_inner_map,
    load_relation,
    to_dot,
)
from ellentuck.space import Approx, build_w

KEY = approx_key(Approx(2, ((0, 1),)))
A = {"k": 2, "nodes": [[0, 1]]}
B = {"k": 2, "nodes": [[0, 2]]}


def rejects(load, value, message):
    text = value if isinstance(value, str) else json.dumps(value)
    with pytest.raises(ValueError) as err:
        load(text)
    assert str(err.value) == message


@pytest.mark.parametrize(
    "obj,message",
    [
        ([], "expected an object with 'k' and 'nodes' fields"),
        ({"k": 2, "nodes": [], "x": 1, "a": 2}, "unknown fields: a, x"),
        ({"nodes": []}, "missing field 'k'"),
        ({"k": 2}, "missing field 'nodes'"),
        ({"k": 2, "nodes": {}}, "'nodes' must be a list of integer lists"),
        ({"k": 2, "nodes": [[0, "a"]]}, "'nodes' must be a list of integer lists"),
        ({"k": 2, "nodes": [], "complete": 1}, "unknown fields: complete"),
        # a field given twice is an error, not its last value
        ('{"k":2,"k":3,"nodes":[]}', "key k appears twice"),
    ],
)
def test_approx_from_obj_rejections(obj, message):
    rejects(load_approx, obj, message)


def test_approx_from_obj_takes_only_the_object():
    assert approx_from_obj({"k": 2, "nodes": [[0, 1]]}) == Approx(2, ((0, 1),))
    with pytest.raises(TypeError):
        approx_from_obj({"k": 2, "nodes": []}, member=True)


@pytest.mark.parametrize(
    "obj,message",
    [
        ([], "expected an object with a single 'colors' field"),
        ({"colors": {}, "x": 1}, "expected an object with a single 'colors' field"),
        ({"colors": []}, "'colors' must map approximation keys to integers"),
        ({"colors": {KEY: True}}, "color for %s is not an integer" % KEY),
        ({"colors": {KEY: 1.5}}, "color for %s is not an integer" % KEY),
        # the value is checked before its key is parsed
        ({"colors": {"no key": "red"}}, "color for no key is not an integer"),
        ({"colors": {KEY: 0, json.dumps(A | {"x": 1}): 1}}, "unknown fields: x"),
    ],
)
def test_load_coloring_rejections(obj, message):
    rejects(load_coloring, obj, message)


@pytest.mark.parametrize(
    "obj,message",
    [
        ([], "expected an object with 'domain' and 'classes'"),
        ({"domain": []}, "expected an object with 'domain' and 'classes'"),
        ({"domain": {}, "classes": []}, "'domain' must be a list of approximations"),
        ({"domain": [A], "classes": {}}, "'classes' must be a list of index lists"),
        ({"domain": [A], "classes": [0]}, "'classes' must be a list of index lists"),
        ({"domain": [A], "classes": [["0"]]}, "'classes' must be a list of index lists"),
        ({"domain": [A, B], "classes": [[0]]}, "classes must partition the domain indices exactly"),
        ({"domain": [A], "classes": [[0, 0]]}, "classes must partition the domain indices exactly"),
        ({"domain": [A], "classes": [[1]]}, "classes must partition the domain indices exactly"),
        ('{"domain":[],"classes":[],"domain":[]}', "key domain appears twice"),
        ('{"domain":[{"k":2,"nodes":[],"k":3}],"classes":[[0]]}', "key k appears twice"),
    ],
)
def test_load_relation_rejections(obj, message):
    rejects(load_relation, obj, message)


def test_relation_class_indices_are_not_booleans():
    """true is no index: it used to load as 1, putting both approximations
    in one class."""
    rejects(
        load_relation,
        {"domain": [A, B], "classes": [[0, True]]},
        "'classes' must be a list of index lists",
    )
    relation = load_relation(json.dumps({"domain": [A, B], "classes": [[0, 1]]}))
    assert len(relation.classes()) == 1


def test_load_family_rejections():
    rejects(load_family, {}, "expected a list of approximations")
    rejects(load_family, [A, 5], "expected an object with 'k' and 'nodes' fields")
    rejects(load_family, '[{"k":2,"nodes":[],"nodes":[[0,1]]}]', "key nodes appears twice")


@pytest.mark.parametrize(
    "obj,message",
    [
        ([], "expected an object with a single 'vectors' field"),
        ({"vectors": {}, "colors": {}}, "expected an object with a single 'vectors' field"),
        ({"vectors": []}, "'vectors' must map approximation keys to level lists"),
        ({"vectors": {KEY: 1}}, "vector for %s is not a list of integers" % KEY),
        ({"vectors": {KEY: [True]}}, "vector for %s is not a list of integers" % KEY),
        ({"vectors": {KEY: [1, 2.0]}}, "vector for %s is not a list of integers" % KEY),
        ({"vectors": {"no key": None}}, "vector for no key is not a list of integers"),
    ],
)
def test_load_inner_map_rejections(obj, message):
    rejects(load_inner_map, obj, message)


@pytest.mark.parametrize("load,field", [(load_coloring, "colors"),
                                        (load_inner_map, "vectors")])
def test_two_keys_for_one_approximation(load, field):
    """A table never keeps one of two values silently: two keys naming
    one approximation are an error, spelled apart or repeated verbatim."""
    value = 1 if field == "colors" else [1]
    spaced = '{"k": 2, "nodes": [[0,1]]}'
    rejects(load, {field: {KEY: value, spaced: value}},
            "two keys name the approximation " + KEY)
    text = '{"%s":{%s:%s,%s:%s}}' % (field, json.dumps(KEY), json.dumps(value),
                                     json.dumps(KEY), json.dumps(value))
    rejects(load, text, "key %s appears twice" % KEY)
    rejects(load, '{"%s":{},"%s":{}}' % (field, field), "key %s appears twice" % field)
    # and so is a field given twice inside a key
    rejects(load, json.dumps({field: {'{"k":2,"nodes":[],"k":3}': value}}),
            "key k appears twice")


def test_from_dot_needs_the_dimension():
    text = to_dot(build_w(2, 5)).replace("  // k=2\n", "")
    rejects(from_dot, text, "missing '// k=N' comment")


def test_from_dot_member():
    """member is still accepted and does nothing: a member is an Approx."""
    X = build_w(2, 12)
    assert from_dot(to_dot(X), member=True) == from_dot(to_dot(X)) == X
    assert load_approx(dump_approx(X), member=True) == X


def test_from_dot_keeps_first_declaration_order():
    """Leaves are read in the order their identifiers first appear, edges
    included, and a repeated line adds nothing."""
    text = "\n".join([
        "digraph ellentuck {",
        "  // k=2",
        '  "" -> "3";',
        '  "3" -> "3,4";',
        '  "" [label="∅"];',
        '  "0" [label="{0}"];',
        '  "0,1" [label="{0,1}"];',
        '  "3,4" [label="{3,4}"];',
        '  "" -> "0";',
        '  "0" -> "0,1";',
        '  "0" -> "0,1";',
        "}",
    ])
    assert from_dot(text).nodes == ((3, 4), (0, 1))
