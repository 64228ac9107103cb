"""Command-line front end.

Every subcommand wraps one library operation. Structured arguments
(approximations, colorings, relations, families, maps, oracles) accept
either a file path or the literal JSON/DOT text inline. Output is
deterministic: identical inputs give identical bytes.

Exit codes: 0 success, 1 validation or logic failure, 2 usage error,
3 search exhausted.
"""

import argparse
import json
import os
import sys

from .constructions import NodeOracle, construct_in_basic_set, dense_embed, fuse
from .errors import AmbiguousAtScale, EllentuckError, Exhausted, NotCanonicalAtScale
from .formats import (
    approx_to_obj,
    canonical_json,
    dump_approx,
    dump_family,
    from_dot,
    load_approx,
    load_coloring,
    load_family,
    load_inner_map,
    load_relation,
    to_dot,
)
from .ramsey import (
    Budget,
    canonize_one_extensions,
    canonize_relation,
    front_cover_check,
    inner_check,
    irreducible_check,
    nash_williams_check,
    pigeonhole,
)
from .space import build_w, one_extensions, project, validate_approx
from .wellorder import classify_n, enumerate_k, enumerate_le_k, seq_str


class _UsageError(Exception):
    def __init__(self, flag, why):
        super().__init__(why)
        self.flag = flag


def _read(flag, value):
    """File content when the value names a file, the value otherwise."""
    if os.path.exists(value):
        try:
            with open(value, "r", encoding="utf-8") as handle:
                return handle.read()
        except OSError as err:
            raise _UsageError(flag, str(err))
    stripped = value.lstrip()
    if stripped.startswith(("{", "[", "digraph")):
        return value
    raise _UsageError(flag, "no such file: %s" % value)


def _load(flag, value, loader, **kwargs):
    text = _read(flag, value)
    try:
        return loader(text, **kwargs)
    except (ValueError, EllentuckError) as err:
        raise _UsageError(flag, str(err))


def _budget():
    """The search budget ELLENTUCK_BUDGET sets, or the default."""
    try:
        return Budget()
    except ValueError as err:
        raise _UsageError("ELLENTUCK_BUDGET", str(err))


def _approx(flag, value, fmt="json", member=False):
    if fmt == "dot":
        return _load(flag, value, from_dot, member=member)
    return _load(flag, value, load_approx, member=member)


# ----------------------------------------------------------- subcommands


def _cmd_enum(args, out):
    seqs = (
        enumerate_k(args.k, args.count)
        if args.full_length_only
        else enumerate_le_k(args.k, args.count)
    )
    out.write("≺".join(seq_str(s) for s in seqs) + "\n")
    return 0


def _cmd_build_w(args, out):
    w = build_w(args.k, args.nodes)
    out.write(to_dot(w) if args.format == "dot" else dump_approx(w) + "\n")
    return 0


def _cmd_validate(args, out):
    a = _approx("--file", args.file, fmt=args.format)
    report = validate_approx(a)
    if report:
        out.write("valid\n")
        return 0
    out.write("INVALID: %s\n" % report.message)
    return 1


def _cmd_classify_n(args, out):
    out.write("%d\n" % classify_n(args.k, args.n))
    return 0


def _cmd_project(args, out):
    node = _load("--node", args.node, json.loads)
    out.write(canonical_json(list(project(node, args.level))) + "\n")
    return 0


def _cmd_extensions(args, out):
    a = _approx("--approx", args.approx)
    member = _approx("--member", args.member, member=True)
    out.write(dump_family(one_extensions(a, member)) + "\n")
    return 0


def _cmd_construct(args, out):
    a = _approx("--a", args.a)
    member = _approx("--member", args.member, member=True)
    got = construct_in_basic_set(a, member, args.len)
    if isinstance(got, Exhausted):
        return _exhausted(got, out)
    out.write(dump_approx(got) + "\n")
    return 0


def _cmd_fuse(args, out):
    a = _approx("--a", args.a)
    big_a = _approx("--A", args.A, member=True)
    big_b = _approx("--B", args.B, member=True)
    got = fuse(a, big_a, big_b, args.len)
    if isinstance(got, Exhausted):
        return _exhausted(got, out)
    out.write(dump_approx(got) + "\n")
    return 0


def _cmd_embed(args, out):
    nodes = _load("--oracle", args.oracle, json.loads)
    if not isinstance(nodes, list):
        raise _UsageError("--oracle", "expected a JSON list of nodes")
    got = dense_embed(args.k, NodeOracle(nodes=map(tuple, nodes)), args.len)
    if isinstance(got, Exhausted):
        return _exhausted(got, out)
    out.write(dump_approx(got) + "\n")
    return 0


def _cmd_pigeonhole(args, out):
    a = _approx("--a", args.a)
    member = _approx("--member", args.member, member=True)
    coloring = _load("--coloring", args.coloring, load_coloring)
    got = pigeonhole(a, member, coloring, args.len, _budget())
    if isinstance(got, Exhausted):
        return _exhausted(got, out)
    homogeneous, color = got
    out.write(
        canonical_json({"color": color, "member": approx_to_obj(homogeneous)}) + "\n"
    )
    return 0


def _cmd_canonize_ext(args, out):
    s = _approx("--s", args.s)
    member = _approx("--member", args.member, member=True)
    coloring = _load("--coloring", args.coloring, load_coloring)
    got = canonize_one_extensions(s, member, coloring, args.len, _budget())
    if isinstance(got, Exhausted):
        return _exhausted(got, out)
    if isinstance(got, AmbiguousAtScale):
        out.write(
            "ambiguous at this scale: levels %s all fit\n"
            % ",".join(str(l) for l in got.candidates)
        )
        return 1
    witness, relation = got
    out.write(
        canonical_json({"level": relation.level, "member": approx_to_obj(witness)})
        + "\n"
    )
    return 0


def _cmd_canonize_arn(args, out):
    relation = _load("--relation", args.relation, load_relation)
    member = _approx("--member", args.member, member=True)
    got = canonize_relation(relation, args.k, args.n, member, args.len, _budget())
    if isinstance(got, Exhausted):
        return _exhausted(got, out)
    if isinstance(got, NotCanonicalAtScale):
        out.write(
            "not canonical at this scale (%d vectors checked)\n" % got.vectors_checked
        )
        return 1
    out.write(
        canonical_json(
            {
                "fits": [
                    {"member": approx_to_obj(m), "vector": list(v)}
                    for v, m in got.fits
                ],
                "member": approx_to_obj(got.member),
                "vector": list(got.vector),
            }
        )
        + "\n"
    )
    return 0


def _cmd_check_front(args, out):
    family = _load("--family", args.family, load_family)
    member = _approx("--member", args.member, member=True)
    report = front_cover_check(family, member)
    if report:
        out.write("covered\n")
        return 0
    out.write("NOT COVERED: %s\n" % dump_approx(report.counterexample))
    return 1


def _cmd_check_irreducible(args, out):
    phi = _load("--map", args.map, load_inner_map)
    family = _load("--family", args.family, load_family)
    if not nash_williams_check(family):
        out.write("NOT A FRONT: some member end-extends another\n")
        return 1
    if not inner_check(phi, family):
        out.write("NOT INNER\n")
        return 1
    if not irreducible_check(phi, family):
        out.write("NOT IRREDUCIBLE\n")
        return 1
    out.write("irreducible\n")
    return 0


def _exhausted(got, out):
    out.write("exhausted: %s\n" % (got.detail or got.reason))
    return 3


# ---------------------------------------------------------------- parser


def _at_least(lo):
    """argparse type of an integer no smaller than lo, so a smaller one
    is a usage error."""

    def parse(text):
        try:
            if int(text) >= lo:
                return int(text)
        except ValueError:
            pass
        raise argparse.ArgumentTypeError("must be an integer >= %d, got %r" % (lo, text))

    return parse


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="ellentuck",
        description="Finite truncations of high-dimensional Ellentuck spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enum", help="list the well-order from its minimum")
    p.add_argument("--k", type=_at_least(1), required=True)
    p.add_argument("--count", type=_at_least(0), required=True)
    p.add_argument("--full-length-only", action="store_true")
    p.set_defaults(run=_cmd_enum)

    p = sub.add_parser("build-w", help="build the prototype member")
    p.add_argument("--k", type=_at_least(2), required=True)
    p.add_argument("--nodes", type=_at_least(0), required=True)
    p.add_argument("--format", choices=("json", "dot"), default="json")
    p.set_defaults(run=_cmd_build_w)

    p = sub.add_parser("validate", help="check the tree conditions")
    p.add_argument("--file", required=True)
    p.add_argument("--format", choices=("json", "dot"), default="json")
    p.set_defaults(run=_cmd_validate)

    p = sub.add_parser("classify-n", help="level of the n-th position")
    p.add_argument("--k", type=_at_least(1), required=True)
    p.add_argument("--n", type=_at_least(0), required=True)
    p.set_defaults(run=_cmd_classify_n)

    p = sub.add_parser("project", help="initial segment of a node")
    p.add_argument("--node", required=True)
    p.add_argument("--level", type=_at_least(0), required=True)
    p.set_defaults(run=_cmd_project)

    p = sub.add_parser("extensions", help="one-node extensions inside a member")
    p.add_argument("--approx", required=True)
    p.add_argument("--member", required=True)
    p.set_defaults(run=_cmd_extensions)

    p = sub.add_parser("construct", help="greedy completion inside a member")
    p.add_argument("--a", required=True)
    p.add_argument("--member", required=True)
    p.add_argument("--len", type=_at_least(0), required=True)
    p.set_defaults(run=_cmd_construct)

    p = sub.add_parser("fuse", help="completion staying compatible with both members")
    p.add_argument("--a", required=True)
    p.add_argument("--A", required=True)
    p.add_argument("--B", required=True)
    p.add_argument("--len", type=_at_least(0), required=True)
    p.set_defaults(run=_cmd_fuse)

    p = sub.add_parser("embed", help="greedy member from an availability oracle")
    p.add_argument("--k", type=_at_least(2), required=True)
    p.add_argument("--oracle", required=True)
    p.add_argument("--len", type=_at_least(0), required=True)
    p.set_defaults(run=_cmd_embed)

    p = sub.add_parser("pigeonhole", help="search a color-homogeneous sub-member")
    p.add_argument("--a", required=True)
    p.add_argument("--member", required=True)
    p.add_argument("--coloring", required=True)
    p.add_argument("--len", type=_at_least(0), required=True)
    p.set_defaults(run=_cmd_pigeonhole)

    p = sub.add_parser("canonize-ext", help="canonical form of an extension coloring")
    p.add_argument("--s", required=True)
    p.add_argument("--member", required=True)
    p.add_argument("--coloring", required=True)
    p.add_argument("--len", type=_at_least(0), required=True)
    p.set_defaults(run=_cmd_canonize_ext)

    p = sub.add_parser("canonize-arn", help="projection vector canonizing a relation")
    p.add_argument("--k", type=_at_least(2), required=True)
    p.add_argument("--n", type=_at_least(1), required=True)
    p.add_argument("--relation", required=True)
    p.add_argument("--member", required=True)
    p.add_argument("--len", type=_at_least(0), required=True)
    p.set_defaults(run=_cmd_canonize_arn)

    p = sub.add_parser("check-front", help="does the family cover the member")
    p.add_argument("--family", required=True)
    p.add_argument("--member", required=True)
    p.set_defaults(run=_cmd_check_front)

    p = sub.add_parser("check-irreducible", help="inner and irreducible map checks")
    p.add_argument("--map", required=True)
    p.add_argument("--family", required=True)
    p.set_defaults(run=_cmd_check_irreducible)

    return parser


def main(argv=None, out=None, err=None):
    out = sys.stdout if out is None else out
    err = sys.stderr if err is None else err
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args, out)
    except _UsageError as usage:
        err.write("error: %s: %s\n" % (usage.flag, usage))
        return 2
    except (ValueError, EllentuckError) as failure:
        err.write("error: %s\n" % failure)
        return 1


if __name__ == "__main__":
    sys.exit(main())
