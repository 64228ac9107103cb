"""Command-line behavior: output bytes, exit codes, file round-trips."""

import argparse
import io
import json
import subprocess
import sys

import pytest

from ellentuck import cli
from ellentuck.cli import main
from ellentuck.formats import (
    canonical_json,
    dump_approx,
    dump_coloring,
    dump_family,
    dump_inner_map,
    dump_relation,
)
from ellentuck.ramsey import Coloring, InnerMap, Relation
from ellentuck.space import Approx, build_w, one_extensions
from ellentuck.wellorder import classify_n, domain_at, seq_at_rank, seq_str

from figures import R10_E2, R6_E2
from helpers import (
    bumped,
    oracle_build_parser,
    repeated_node_case,
    shallow_stack,
    swapped_prefix_case,
)


def run(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = main(list(argv), out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


K2_LISTING = "()≺(0)≺(0,0)≺(0,1)≺(1)≺(1,1)≺(0,2)≺(1,2)≺(2)≺(2,2)"


def test_enum_k2_listing():
    code, out, _ = run("enum", "--k", "2", "--count", "10")
    assert code == 0
    assert out == K2_LISTING + "\n"


def test_enum_k3_listing():
    code, out, _ = run("enum", "--k", "3", "--count", "19")
    assert code == 0
    assert out == (
        "()≺(0)≺(0,0)≺(0,0,0)≺(0,0,1)≺(0,1)"
        "≺(0,1,1)≺(1)≺(1,1)≺(1,1,1)≺(0,0,2)"
        "≺(0,1,2)≺(0,2)≺(0,2,2)≺(1,1,2)≺(1,2)"
        "≺(1,2,2)≺(2)≺(2,2)\n"
    )


def test_enum_full_length_only():
    code, out, _ = run("enum", "--k", "2", "--count", "6", "--full-length-only")
    assert code == 0
    assert out == "(0,0)≺(0,1)≺(1,1)≺(0,2)≺(1,2)≺(2,2)\n"


def test_enum_module_entry_point():
    got = subprocess.run(
        [sys.executable, "-m", "ellentuck", "enum", "--k", "2", "--count", "10"],
        capture_output=True,
        text=True,
    )
    assert got.returncode == 0
    assert got.stdout == K2_LISTING + "\n"


def test_enum_lists_full_length_sequences_longer_than_the_stack():
    code, out, err = run("enum", "--k", "3000", "--count", "3", "--full-length-only")
    assert (code, err) == (0, "")
    assert out == "≺".join(seq_str(domain_at(n, 3000)) for n in range(3)) + "\n"


def test_enum_lists_past_a_block_longer_than_the_stack():
    code, out, err = run("enum", "--k", "1200", "--count", "1202")
    assert (code, err) == (0, "")
    want = ["()"] + [seq_str(seq_at_rank(r, 1200)) for r in range(1201)]
    assert out == "≺".join(want) + "\n"


def test_main_reads_sys_argv_when_argv_is_none(monkeypatch, capsys):
    """The console script calls main() with no arguments."""
    monkeypatch.setattr(sys, "argv", ["ellentuck", "enum", "--k", "2", "--count", "10"])
    assert main() == 0
    assert capsys.readouterr() == (K2_LISTING + "\n", "")
    monkeypatch.setattr(sys, "argv", ["ellentuck", "enum", "--k", "2"])
    with pytest.raises(SystemExit) as stop:
        main()
    assert stop.value.code == 2
    assert "--count" in capsys.readouterr().err


def test_build_w_json_matches_library():
    code, out, _ = run("build-w", "--k", "2", "--nodes", "15")
    assert code == 0
    obj = json.loads(out)
    assert obj["nodes"] == [list(w) for w in build_w(2, 15).nodes]
    again = run("build-w", "--k", "2", "--nodes", "15")[1]
    assert again == out


def test_build_w_dot_round_trip(tmp_path):
    code, dot, _ = run("build-w", "--k", "3", "--nodes", "20", "--format", "dot")
    assert code == 0
    assert dot.startswith("digraph ellentuck {\n  // k=3\n")
    path = write(tmp_path, "w3.dot", dot)
    code, out, _ = run("validate", "--file", path, "--format", "dot")
    assert code == 0
    assert out == "valid\n"


def test_validate_valid_figure(tmp_path):
    path = write(
        tmp_path,
        "r6.json",
        json.dumps({"k": 2, "nodes": [list(w) for w in R6_E2]}),
    )
    code, out, _ = run("validate", "--file", path)
    assert code == 0
    assert out == "valid\n"


def test_validate_invalid_figure(tmp_path):
    path = write(
        tmp_path,
        "r10.json",
        json.dumps({"k": 2, "nodes": [list(w) for w in R10_E2]}),
    )
    code, out, _ = run("validate", "--file", path)
    assert code == 1
    assert out == "INVALID: condition (ii) at (2,3)\n"


def test_validate_malformed_node_is_a_failure(tmp_path):
    path = write(tmp_path, "junk.json", '{"k":2,"nodes":[[2,4]]}')
    code, out, err = run("validate", "--file", path)
    assert code == 1
    assert out == ""
    assert err.startswith("error:")


def test_classify_n():
    assert run("classify-n", "--k", "2", "--n", "1") == (0, "1\n", "")
    assert run("classify-n", "--k", "3", "--n", "1") == (0, "2\n", "")
    assert run("classify-n", "--k", "2", "--n", "2") == (0, "0\n", "")
    # only a k is capped at sys.maxsize, not a position
    n = 10 ** 30
    assert run("classify-n", "--k", "2", "--n", str(n)) == (0, "%d\n" % classify_n(2, n), "")


def test_project():
    code, out, _ = run("project", "--node", "[0,5]", "--level", "1")
    assert (code, out) == (0, "[0]\n")
    code, out, _ = run("project", "--node", "[0,5]", "--level", "0")
    assert (code, out) == (0, "[]\n")
    code, _, err = run("project", "--node", "[0,5]", "--level", "3")
    assert code == 1
    assert "level" in err


def test_extensions(tmp_path):
    member = write(tmp_path, "w.json", dump_approx(build_w(2, 8)))
    code, out, _ = run("extensions", "--approx", '{"k":2,"nodes":[[0,1]]}', "--member", member)
    assert code == 0
    got = [tuple(map(tuple, o["nodes"])) for o in json.loads(out)]
    assert got == [((0, 1), (0, 2)), ((0, 1), (0, 5)), ((0, 1), (0, 9))]


def test_construct(tmp_path):
    member = write(tmp_path, "w.json", dump_approx(build_w(2, 15)))
    code, out, _ = run(
        "construct", "--a", '{"k":2,"nodes":[[0,1]]}', "--member", member, "--len", "4"
    )
    assert code == 0
    assert json.loads(out)["nodes"] == [[0, 1], [0, 2], [3, 4], [0, 5]]
    code, out, _ = run(
        "construct", "--a", '{"k":2,"nodes":[[0,1]]}', "--member", member, "--len", "40"
    )
    assert code == 3
    assert out.startswith("exhausted:")


def test_fuse(tmp_path):
    member = write(tmp_path, "w.json", dump_approx(build_w(2, 15)))
    code, out, _ = run(
        "fuse",
        "--a", '{"k":2,"nodes":[[0,1]]}',
        "--A", member,
        "--B", member,
        "--len", "4",
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["nodes"][:1] == [[0, 1]] and len(obj["nodes"]) == 4


def test_fuse_exhausted(tmp_path):
    member = write(tmp_path, "w.json", dump_approx(build_w(2, 15)))
    code, out, err = run(
        "fuse", "--a", '{"k":2,"nodes":[]}', "--A", member, "--B", member, "--len", "40",
    )
    assert (code, out, err) == (3, "exhausted: step 15: the inner member has no fitting node\n", "")


def test_embed(tmp_path):
    oracle = write(
        tmp_path, "pool.json", json.dumps([list(w) for w in build_w(2, 15).nodes])
    )
    code, out, _ = run("embed", "--k", "2", "--oracle", oracle, "--len", "6")
    assert code == 0
    assert json.loads(out)["nodes"] == [list(w) for w in build_w(2, 6).nodes]
    code, out, _ = run("embed", "--k", "2", "--oracle", oracle, "--len", "30")
    assert code == 3


def test_pigeonhole(tmp_path):
    X = build_w(2, 60)
    member = write(tmp_path, "x.json", dump_approx(X))
    parity = Coloring.from_function(
        lambda b: max(b.nodes[-1]) % 2, one_extensions(Approx(2), X)
    )
    coloring = write(tmp_path, "c.json", dump_coloring(parity))
    code, out, _ = run(
        "pigeonhole", "--a", '{"k":2,"nodes":[]}', "--member", member,
        "--coloring", coloring, "--len", "8",
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["color"] == 0
    assert all(max(w) % 2 == 0 for w in obj["member"]["nodes"])
    again = run(
        "pigeonhole", "--a", '{"k":2,"nodes":[]}', "--member", member,
        "--coloring", coloring, "--len", "8",
    )[1]
    assert again == out


def test_pigeonhole_on_a_member_with_a_repeated_node_exits_3(tmp_path):
    """No color is homogeneous there, which is exit 3, not an internal
    error."""
    a, X, coloring = repeated_node_case()
    code, out, err = run(
        "pigeonhole", "--a", dump_approx(a), "--member", write(tmp_path, "x.json", dump_approx(X)),
        "--coloring", write(tmp_path, "c.json", dump_coloring(coloring)), "--len", "7",
    )
    assert (code, out, err) == (3, "exhausted: no color admits a homogeneous sub-member\n", "")


@pytest.mark.parametrize("command,flag", [("pigeonhole", "--a"), ("canonize-ext", "--s")])
def test_level_fits_on_a_depth_prefix_that_does_not_validate_exit_1(tmp_path, command, flag):
    """A depth prefix that does not validate is an input error: one error
    line and exit 1, not a traceback (pigeonhole) or exit 3 with "no
    projection level fits" (canonize-ext)."""
    a, X, coloring = swapped_prefix_case()
    code, out, err = run(
        command, flag, dump_approx(a), "--member", write(tmp_path, "x.json", dump_approx(X)),
        "--coloring", write(tmp_path, "c.json", dump_coloring(coloring)), "--len", "4",
    )
    assert (code, out) == (1, "")
    assert err == "error: depth prefix does not validate: condition (ii) at (0,1)\n"


@pytest.mark.parametrize("command", ["pigeonhole", "canonize-arn"])
def test_a_witness_that_does_not_validate_exits_1(tmp_path, command):
    """A member whose nodes after the depth prefix break a prefix chain is
    an input error too: pigeonhole returned a witness that does not
    validate with exit 0, and canonize-arn likewise; both now print one
    error line and exit 1."""
    X = bumped(build_w(2, 14), 3)
    member = write(tmp_path, "x.json", dump_approx(X))
    if command == "pigeonhole":
        coloring = Coloring.from_function(
            lambda b: max(b.nodes[-1]) % 2, one_extensions(Approx(2), X))
        flags = ("--a", '{"k":2,"nodes":[]}', "--coloring",
                 write(tmp_path, "c.json", dump_coloring(coloring)))
    else:
        singles = Relation({Approx(2, (w,)): max(w) % 2 for w in X.nodes})
        flags = ("--k", "2", "--n", "1", "--relation",
                 write(tmp_path, "rel.json", dump_relation(singles)))
    code, out, err = run(command, *flags, "--member", member, "--len", "5")
    assert (code, out) == (1, "")
    assert err == ("error: witness does not validate: "
                   "node (0, 6): prefix chain breaks at index 6\n")


def test_pigeonhole_budget_env(tmp_path, monkeypatch):
    X = build_w(2, 60)
    member = write(tmp_path, "x.json", dump_approx(X))
    parity = Coloring.from_function(
        lambda b: max(b.nodes[-1]) % 2, one_extensions(Approx(2), X)
    )
    coloring = write(tmp_path, "c.json", dump_coloring(parity))
    monkeypatch.setenv("ELLENTUCK_BUDGET", "2")
    code, out, _ = run(
        "pigeonhole", "--a", '{"k":2,"nodes":[]}', "--member", member,
        "--coloring", coloring, "--len", "8",
    )
    assert code == 3
    assert "budget" in out


@pytest.mark.parametrize(
    "raw,shown",
    [("abc", "'abc'"), ("0", "0"), ("-3", "-3"), ("", "''"), ("-0", "0"),
     ("2.5", "'2.5'"), ("1e3", "'1e3'")],
)
def test_malformed_budget_env_is_a_usage_error(tmp_path, monkeypatch, raw, shown):
    X = build_w(2, 20)
    member = write(tmp_path, "x.json", dump_approx(X))
    coloring = write(
        tmp_path, "c.json",
        dump_coloring(Coloring.from_function(lambda b: 0, one_extensions(Approx(2), X))),
    )
    monkeypatch.setenv("ELLENTUCK_BUDGET", raw)
    code, out, err = run(
        "pigeonhole", "--a", '{"k":2,"nodes":[]}', "--member", member,
        "--coloring", coloring, "--len", "4",
    )
    assert (code, out) == (2, "")
    assert err == (
        "error: ELLENTUCK_BUDGET: budget limit must be a positive integer, got %s\n" % shown
    )


def test_canonize_ext(tmp_path):
    X = build_w(2, 100)
    member = write(tmp_path, "x.json", dump_approx(X))
    exts = one_extensions(Approx(2, X.nodes[:2]), X)
    injective = write(
        tmp_path, "inj.json",
        dump_coloring(Coloring({b: i for i, b in enumerate(exts)})),
    )
    code, out, _ = run(
        "canonize-ext", "--s", dump_approx(Approx(2, X.nodes[:2])),
        "--member", member, "--coloring", injective, "--len", "9",
    )
    assert code == 0
    assert json.loads(out)["level"] == 2


def test_canonize_ext_ambiguous(tmp_path):
    X = build_w(2, 30)
    member = write(tmp_path, "x.json", dump_approx(X))
    f = Coloring.from_function(
        lambda b: b.nodes[-1][0]
        if b.nodes[-1][0] in (0, 3)
        else 100 + max(b.nodes[-1]),
        one_extensions(Approx(2), X),
    )
    coloring = write(tmp_path, "amb.json", dump_coloring(f))
    code, out, _ = run(
        "canonize-ext", "--s", '{"k":2,"nodes":[]}',
        "--member", member, "--coloring", coloring, "--len", "6",
    )
    assert code == 1
    assert out == "ambiguous at this scale: levels 1,2 all fit\n"


def test_canonize_arn(tmp_path):
    X = build_w(2, 60)
    member = write(tmp_path, "x.json", dump_approx(X))
    singles = [Approx(2, (w,)) for w in X.nodes]
    rel = Relation.from_key_function(lambda b: b.nodes[0][:1], singles)
    relation = write(tmp_path, "rel.json", dump_relation(rel))
    code, out, _ = run(
        "canonize-arn", "--k", "2", "--n", "1",
        "--relation", relation, "--member", member, "--len", "6",
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["vector"] == [1]
    assert len(obj["fits"]) == 1


def test_canonize_arn_not_canonical(tmp_path):
    X = build_w(2, 6)
    member = write(tmp_path, "x.json", dump_approx(X))
    singles = [Approx(2, (w,)) for w in X.nodes]
    rel = Relation.from_key_function(lambda b: max(b.nodes[0]) % 2, singles)
    relation = write(tmp_path, "rel.json", dump_relation(rel))
    code, out, _ = run(
        "canonize-arn", "--k", "2", "--n", "1",
        "--relation", relation, "--member", member, "--len", "6",
    )
    assert code == 1
    assert out == "not canonical at this scale (3 vectors checked)\n"


@pytest.mark.parametrize("budget", [None, "1"])
def test_canonize_arn_incomplete_relation_is_an_error_at_any_budget(
        tmp_path, monkeypatch, budget):
    """A relation that misses an n-approximation of the member fails
    before the search spends a state, so even a one-state budget gives
    the error, not exhaustion."""
    X = build_w(2, 12)
    member = write(tmp_path, "x.json", dump_approx(X))
    pairs = [b for a in one_extensions(Approx(2), X) for b in one_extensions(a, X)]
    assert pairs[-1].nodes == ((3, 10), (3, 15))
    rel = Relation.from_key_function(lambda b: b.nodes, pairs[:-1])
    relation = write(tmp_path, "rel.json", dump_relation(rel))
    if budget is None:
        monkeypatch.delenv("ELLENTUCK_BUDGET", raising=False)
    else:
        monkeypatch.setenv("ELLENTUCK_BUDGET", budget)
    code, out, err = run(
        "canonize-arn", "--k", "2", "--n", "2",
        "--relation", relation, "--member", member, "--len", "6",
    )
    assert (code, out) == (1, "")
    assert err == "error: relation is not defined on ((3, 10), (3, 15))\n"


def test_canonize_arn_rejects_boolean_class_indices():
    relation = '{"domain":[{"k":2,"nodes":[[0,1]]},{"k":2,"nodes":[[0,2]]}],"classes":[[0,true]]}'
    code, out, err = run(
        "canonize-arn", "--k", "2", "--n", "1", "--relation", relation,
        "--member", dump_approx(build_w(2, 6)), "--len", "2",
    )
    assert (code, out) == (2, "")
    assert err == "error: --relation: 'classes' must be a list of index lists\n"


def test_check_front(tmp_path):
    X = build_w(2, 15)
    member = write(tmp_path, "x.json", dump_approx(X))
    family = [Approx(2, (w,)) for w in X.nodes]
    covered = write(tmp_path, "fam.json", dump_family(family))
    assert run("check-front", "--family", covered, "--member", member) == (
        0, "covered\n", "",
    )
    partial = write(tmp_path, "fam2.json", dump_family(family[1:]))
    code, out, _ = run("check-front", "--family", partial, "--member", member)
    assert code == 1
    assert out.startswith("NOT COVERED: ")


def test_check_front_long_counterexample(tmp_path):
    X = build_w(2, 300)
    member = write(tmp_path, "x.json", dump_approx(X))
    with shallow_stack(250):
        code, out, err = run("check-front", "--family", "[]", "--member", member)
    assert (code, err) == (1, "")
    assert out == "NOT COVERED: %s\n" % dump_approx(X)


def test_check_front_rejects_non_front(tmp_path):
    X = build_w(2, 15)
    member = write(tmp_path, "x.json", dump_approx(X))
    nested = write(
        tmp_path, "fam.json",
        dump_family([Approx(2, X.nodes[:1]), Approx(2, X.nodes[:2])]),
    )
    code, _, err = run("check-front", "--family", nested, "--member", member)
    assert code == 1
    assert err.startswith("error:")


def test_check_irreducible(tmp_path):
    X = build_w(2, 15)
    family = [Approx(2, (w,)) for w in X.nodes]
    fam = write(tmp_path, "fam.json", dump_family(family))
    good = write(tmp_path, "good.json", dump_inner_map(InnerMap.uniform((1,), family)))
    assert run("check-irreducible", "--map", good, "--family", fam) == (
        0, "irreducible\n", "",
    )
    bad = write(tmp_path, "bad.json", dump_inner_map(InnerMap.uniform((1, 2), family)))
    code, out, _ = run("check-irreducible", "--map", bad, "--family", fam)
    assert (code, out) == (1, "NOT INNER\n")


def test_check_irreducible_prefix_pattern(tmp_path):
    # the first map value equals the second's one-stage partial image
    a = Approx(2, ((0, 1), (0, 5)))
    b = Approx(2, ((0, 1), (0, 2)))
    fam = write(tmp_path, "fam.json", dump_family([a, b]))
    phi = write(
        tmp_path, "phi.json", dump_inner_map(InnerMap({a: (1, 1), b: (1, 2)}))
    )
    code, out, _ = run("check-irreducible", "--map", phi, "--family", fam)
    assert (code, out) == (1, "NOT IRREDUCIBLE\n")


def test_check_irreducible_rejects_nested_family(tmp_path):
    a = Approx(2, ((0, 1),))
    b = Approx(2, ((0, 1), (0, 2)))
    fam = write(tmp_path, "fam.json", dump_family([a, b]))
    phi = write(tmp_path, "phi.json", dump_inner_map(InnerMap({a: (1,), b: (1, 2)})))
    code, out, _ = run("check-irreducible", "--map", phi, "--family", fam)
    assert (code, out) == (1, "NOT A FRONT: some member end-extends another\n")


def _exhausting_runs():
    """A run of each of canonize-ext, canonize-arn and check-front that
    exhausts, as (argv, budget, the exhaustion named): a target longer
    than the member, or a one-state budget."""
    X = build_w(2, 30)
    member = dump_approx(X)
    exts = one_extensions(Approx(2), X)
    coloring = dump_coloring(Coloring({b: i for i, b in enumerate(exts)}))
    singles = [Approx(2, (w,)) for w in X.nodes]
    relation = dump_relation(Relation.from_key_function(lambda b: b.nodes[0][:1], singles))
    ext = ("canonize-ext", "--s", '{"k":2,"nodes":[]}', "--member", member,
           "--coloring", coloring, "--len")
    return {
        "canonize-ext past X": ((*ext, "31"), None, "no projection level fits a sub-member"),
        "canonize-ext budget": ((*ext, "6"), "1", "state budget ran out at 2"),
        "canonize-arn budget": (
            ("canonize-arn", "--k", "2", "--n", "1", "--relation", relation,
             "--member", member, "--len", "6"), "1", "state budget ran out at 2"),
        "check-front budget": (
            ("check-front", "--family", dump_family(singles), "--member", member),
            "1", "state budget ran out at 2"),
    }


@pytest.mark.parametrize("case", sorted(_exhausting_runs()))
def test_exhausted_searches_exit_3(case, monkeypatch):
    argv, budget, why = _exhausting_runs()[case]
    if budget is None:
        monkeypatch.delenv("ELLENTUCK_BUDGET", raising=False)
    else:
        monkeypatch.setenv("ELLENTUCK_BUDGET", budget)
    assert run(*argv) == (3, "exhausted: %s\n" % why, "")


@pytest.mark.parametrize(
    "argv,flag",
    [(("validate", "--file"), "--file"),
     (("check-front", "--family", "[]", "--member"), "--member"),
     (("check-irreducible", "--family", "[]", "--map"), "--map")],
)
def test_a_structured_flag_naming_a_directory_is_a_usage_error(tmp_path, argv, flag):
    code, out, err = run(*argv, str(tmp_path))
    assert (code, out) == (2, "")
    assert err.startswith("error: %s: " % flag) and str(tmp_path) in err


def test_usage_errors():
    with pytest.raises(SystemExit) as stop:
        run("enum", "--k", "2")
    assert stop.value.code == 2
    with pytest.raises(SystemExit) as stop:
        run("no-such-command")
    assert stop.value.code == 2
    code, _, err = run(
        "validate", "--file", "definitely-not-here.json"
    )
    assert code == 2
    assert "--file" in err
    # a field given twice is no last-wins value
    text = '{"k":2,"nodes":[[0,1]],"nodes":[[5,9]]}'
    assert run("validate", "--file", text) == (
        2, "", "error: --file: key nodes appears twice\n")
    # a k that no tuple length can be, in an approximation's JSON
    huge = 10 ** 30
    assert run("extensions", "--approx", '{"k":%d,"nodes":[]}' % huge,
               "--member", '{"k":%d,"nodes":[[0,1]]}' % huge) == (
        2, "", "error: --approx: k must be an integer >= 2 and <= %d, got %d\n" % (sys.maxsize, huge))
    for oracle in ("{}", "[1,2]", "[null]", '[[0,1],"x"]'):
        code, out, err = run("embed", "--k", "2", "--oracle", oracle, "--len", "3")
        assert (code, out) == (2, "")
        assert err == "error: --oracle: expected a JSON list of nodes\n"
    # entries that are no node exit 2 at load time, as in --member
    for oracle in ('[["a"]]', "[[-1,2]]", "[[true,2]]", "[[]]"):
        code, out, err = run("embed", "--k", "2", "--oracle", oracle, "--len", "3")
        assert (code, out) == (2, "")
        assert err.startswith("error: --oracle: node ")
    for node in ('["a",1]', '{"x":1}', "[1.5,2]", "[[0],[1]]", "[-3,4]"):
        code, out, err = run("project", "--node", node, "--level", "1")
        assert (code, out) == (2, "")
        assert err.startswith("error: --node: ")
    for domain in ("5", "null"):
        relation = '{"domain":%s,"classes":[]}' % domain
        code, out, err = run(
            "canonize-arn", "--k", "2", "--n", "1", "--relation", relation,
            "--member", '{"k":2,"nodes":[]}', "--len", "2",
        )
        assert (code, out) == (2, "")
        assert err == "error: --relation: 'domain' must be a list of approximations\n"
    # two keys naming one approximation, spelled apart or repeated verbatim
    key, spaced = json.dumps(_ONE), json.dumps('{"k": 2, "nodes": [[0,1]]}')
    for command, flag, field in (("pigeonhole", "--coloring", "colors"),
                                 ("check-irreducible", "--map", "vectors")):
        argv = list(_VALID[command])
        at = argv.index(flag) + 1
        value = json.dumps(json.loads(argv[at])[field][_ONE])
        for other, why in ((spaced, "two keys name the approximation " + _ONE),
                           (key, "key %s appears twice" % _ONE)):
            argv[at] = '{"%s":{%s:%s,%s:%s}}' % (field, key, value, other, value)
            assert run(command, *argv) == (2, "", "error: %s: %s\n" % (flag, why))


@pytest.mark.parametrize(
    "argv",
    [
        ("build-w", "--k", "2", "--nodes", "-2"),
        ("enum", "--k", "2", "--count", "-1"),
        ("classify-n", "--k", "2", "--n", "-1"),
        ("construct", "--a", '{"k":2,"nodes":[]}', "--member", '{"k":2,"nodes":[]}', "--len", "-1"),
        ("embed", "--k", "2", "--oracle", "[]", "--len", "-3"),
        ("build-w", "--k", "2", "--nodes", "many"),
    ],
)
def test_negative_counts_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as stop:
        run(*argv)
    assert stop.value.code == 2
    assert capsys.readouterr().out == ""


_SIX = build_w(2, 6)
_SIX_SINGLES = [Approx(2, (w,)) for w in _SIX.nodes]


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(("build-w", "--k", "1", "--nodes", "3"), id="build-w"),
        pytest.param(("enum", "--k", "0", "--count", "3"), id="enum"),
        pytest.param(("classify-n", "--k", "0", "--n", "1"), id="classify-n"),
        pytest.param(("embed", "--k", "1", "--oracle", "[]", "--len", "2"), id="embed"),
        pytest.param(("project", "--node", "[0,1]", "--level", "-1"), id="project"),
        pytest.param(
            (
                "canonize-arn", "--k", "2", "--n", "0",
                "--relation", dump_relation(Relation.from_key_function(len, _SIX_SINGLES)),
                "--member", dump_approx(_SIX), "--len", "3",
            ),
            id="canonize-arn",
        ),
        pytest.param(("enum", "--k", str(10 ** 22), "--count", "2"), id="enum-huge-k"),
        pytest.param(("enum", "--k", "2", "--count", str(10 ** 30)), id="enum-huge-count"),
        pytest.param(("classify-n", "--k", str(10 ** 30), "--n", "1"), id="classify-n-huge-k"),
        pytest.param(("build-w", "--k", str(10 ** 30), "--nodes", "1"), id="build-w-huge-k"),
    ],
)
def test_out_of_range_integers_are_usage_errors(argv, capsys):
    """Integers argparse accepts but the command cannot use: --k below 2
    where a member is built, below 1 otherwise, a negative --level, an
    approximation length of 0, and a k or an enum count above
    sys.maxsize, which no tuple length or islice stop can be."""
    with pytest.raises(SystemExit) as stop:
        run(*argv)
    assert stop.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "must be an integer >=" in captured.err


# One valid run per subcommand, every input inline, each a few ms.
_W15 = build_w(2, 15)
_W15_SINGLES = [Approx(2, (w,)) for w in _W15.nodes]
_W20 = build_w(2, 20)
_ONE = '{"k":2,"nodes":[[0,1]]}'
_VALID = {
    "enum": ("--k", "2", "--count", "5"),
    "build-w": ("--k", "2", "--nodes", "3"),
    "validate": ("--file", dump_approx(_SIX)),
    "classify-n": ("--k", "2", "--n", "4"),
    "project": ("--node", "[0,1]", "--level", "1"),
    "extensions": ("--approx", _ONE, "--member", dump_approx(_SIX)),
    "construct": ("--a", _ONE, "--member", dump_approx(_W15), "--len", "4"),
    "fuse": ("--a", _ONE, "--A", dump_approx(_W15), "--B", dump_approx(_W15), "--len", "4"),
    "embed": ("--k", "2", "--oracle", json.dumps([list(w) for w in _W15.nodes]), "--len", "6"),
    "pigeonhole": (
        "--a", '{"k":2,"nodes":[]}', "--member", dump_approx(_W20),
        "--coloring", dump_coloring(Coloring.from_function(
            lambda b: max(b.nodes[-1]) % 2, one_extensions(Approx(2), _W20))),
        "--len", "3",
    ),
    "canonize-ext": (
        "--s", '{"k":2,"nodes":[]}', "--member", dump_approx(_W20),
        "--coloring", dump_coloring(Coloring.from_function(
            lambda b: b.nodes[-1][0], one_extensions(Approx(2), _W20))),
        "--len", "4",
    ),
    "canonize-arn": (
        "--k", "2", "--n", "1",
        "--relation", dump_relation(Relation.from_key_function(len, _SIX_SINGLES)),
        "--member", dump_approx(_SIX), "--len", "3",
    ),
    "check-front": ("--family", dump_family(_W15_SINGLES), "--member", dump_approx(_W15)),
    "check-irreducible": (
        "--map", dump_inner_map(InnerMap.uniform((1,), _W15_SINGLES)),
        "--family", dump_family(_W15_SINGLES),
    ),
}


def _parity_argvs():
    """Per subcommand: -h, no flags, an unknown flag, a bad integer, a
    stray positional and a valid run; then the top-level paths."""
    for name, (_, flags, _) in cli._COMMANDS.items():
        valid = (name,) + _VALID[name]
        yield name + " -h", (name, "-h")
        yield name, (name,)
        yield name + " unknown flag", valid + ("--no-such-flag",)
        ints = [flag for flag, kwargs, _ in flags if "type" in kwargs]
        bad = [flag for flag in ("--k", "--len") if flag in ints] or ints[:1]
        for flag in bad:
            yield name + " bad " + flag, valid + (flag, "x")
        yield name + " stray", valid + ("stray",)
        yield name + " valid", valid
    for argv in ((), ("-h",), ("--help",), ("no-such-command",), ("-h", "build-w")):
        yield "top " + " ".join(argv), argv


def test_every_subcommand_has_a_parity_run():
    assert set(_VALID) == set(cli._COMMANDS)


@pytest.mark.parametrize(
    "argv", [pytest.param(argv, id=name) for name, argv in _parity_argvs()]
)
def test_narrowed_parser_matches_full_parser(argv, monkeypatch, capsys):
    """A run that builds only its subcommand's parser prints the same
    bytes and exits the same way as one with every subparser built."""
    monkeypatch.delenv("ELLENTUCK_BUDGET", raising=False)

    def outcome():
        try:
            got = ("returned", main(list(argv)))
        except SystemExit as stop:
            got = ("exited", stop.code)
        return got, tuple(capsys.readouterr())

    narrowed = outcome()
    monkeypatch.setattr(cli, "_build_parser", lambda argv: oracle_build_parser())
    assert outcome() == narrowed


def test_a_run_builds_only_its_subparser(monkeypatch, capsys):
    added = []
    add_parser = argparse._SubParsersAction.add_parser

    def counted(self, name, *args, **kwargs):
        added.append(name)
        return add_parser(self, name, *args, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counted)
    assert main(["build-w", "--k", "2", "--nodes", "3"]) == 0
    assert added == ["build-w"]
    for argv in (["-h"], ["no-such-command"]):
        added.clear()
        with pytest.raises(SystemExit):
            main(argv)
        assert len(added) == len(cli._COMMANDS)


# Every flag that reads approximations, with one run that reads each.
_APPROX_FLAGS = ("--a", "--s", "--approx", "--member", "--A", "--B", "--family",
                 "--coloring", "--relation", "--map", "--file")
_W10 = build_w(2, 10)
_COMPLETE_RUNS = {name: argv for name, argv in _VALID.items()
                  if set(argv) & set(_APPROX_FLAGS)}
_COMPLETE_RUNS["check-front one-extensions"] = (
    "--family", dump_family(one_extensions(Approx(2), _W10)),
    "--member", dump_approx(_W10),
)


def _flag_complete(obj):
    """obj with "complete": true on every approximation it holds, the
    keys of a coloring or map and a relation's domain entries included.
    No approximation has that field."""
    if isinstance(obj, list):
        return [_flag_complete(o) for o in obj]
    if "nodes" in obj:
        return dict(obj, complete=True)
    if "domain" in obj:
        return dict(obj, domain=_flag_complete(obj["domain"]))
    (field, table), = obj.items()
    return {field: {canonical_json(_flag_complete(json.loads(key))): v
                    for key, v in table.items()}}


def _complete_cases():
    for name, argv in _COMPLETE_RUNS.items():
        flags = [flag for flag in argv if flag in _APPROX_FLAGS]
        for chosen in [[flag] for flag in flags] + [flags] * (len(flags) > 1):
            yield pytest.param(name, argv, chosen,
                               id=name + " " + ("every" if len(chosen) > 1 else chosen[0]))


def test_every_approximation_flag_has_a_complete_run():
    used = {flag for argv in _COMPLETE_RUNS.values() for flag in argv}
    assert set(_APPROX_FLAGS) <= used
    assert {name.split()[0] for name in _COMPLETE_RUNS} == {
        name for name, (_, flags, _) in cli._COMMANDS.items()
        if {flag for flag, _, _ in flags} & set(_APPROX_FLAGS)
    }


@pytest.mark.parametrize("name,argv,flags", _complete_cases())
def test_complete_never_changes_an_answer(name, argv, flags, monkeypatch):
    """"complete": true on the approximations of some flags gives no
    answer: the first such flag read is a usage error naming itself."""
    monkeypatch.delenv("ELLENTUCK_BUDGET", raising=False)
    flagged = list(argv)
    for i, flag in enumerate(argv):
        if flag in flags:
            flagged[i + 1] = canonical_json(_flag_complete(json.loads(argv[i + 1])))
    assert flagged != list(argv)
    command = name.split()[0]
    first = next(flag for flag, _, _ in cli._COMMANDS[command][1] if flag in flags)
    assert run(command, *argv)[0] == 0
    assert run(command, *flagged) == (2, "", "error: %s: unknown fields: complete\n" % first)


@pytest.mark.parametrize("command,argv", [
    ("construct", ("--len", "12")),
    ("pigeonhole", ("--coloring", '{"colors":{}}', "--len", "12")),
    ("canonize-ext", ("--coloring", '{"colors":{}}', "--len", "12")),
])
def test_approximation_outside_the_member(command, argv):
    """An approximation past the member's truncation has no depth there."""
    a = "--s" if command == "canonize-ext" else "--a"
    assert run(command, a, dump_approx(build_w(2, 12)),
               "--member", dump_approx(build_w(2, 10)), *argv) == (
        1, "", "error: approximation not inside the truncation\n")
