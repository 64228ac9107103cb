"""Command-line front end.

Every subcommand wraps one library operation and is declared once, with
its flags, by `_command` on its handler. A run builds only the parser
of the subcommand it names; help, an unknown command or no command
builds every subcommand's. Structured arguments
(approximations, colorings, relations, families, maps, oracles) accept
either a file path or the literal JSON/DOT text inline. Output is deterministic: identical
inputs give identical bytes.

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
from .space import _as_node, build_w, one_extensions, project, validate_approx
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


def _budget():
    """The search budget ELLENTUCK_BUDGET sets, or the default."""
    raw = os.environ.get("ELLENTUCK_BUDGET")
    if raw is None:
        return Budget()
    try:
        limit = int(raw)
    except ValueError:
        limit = raw  # no integer: Budget rejects the text, quoting it
    try:
        return Budget(limit)
    except ValueError as err:
        raise _UsageError("ELLENTUCK_BUDGET", str(err))


# ------------------------------------------------------------------ flags
# A flag is (name, argparse keywords, load). Integers, choices and
# switches are argparse's alone and have no load. A structured flag's
# load(text, args) reads its file or inline text once argparse is done.


def _at_least(lo, hi=None):
    """argparse type of an integer no smaller than lo and, given hi, no
    larger than hi, so any other is a usage error."""
    bounds = ">= %d" % lo if hi is None else ">= %d and <= %d" % (lo, hi)

    def parse(text):
        try:
            if int(text) >= lo and (hi is None or int(text) <= hi):
                return int(text)
        except ValueError:
            pass
        raise argparse.ArgumentTypeError("must be an integer %s, got %r" % (bounds, text))

    return parse


def _int(name, lo, hi=None):
    return (name, {"type": _at_least(lo, hi), "required": True}, None)


def _input(name, loader):
    """A structured flag, read by a formats loader."""
    return (name, {"required": True}, lambda text, args: loader(text))


def _approx_in_format(text, args):
    return (from_dot if args.format == "dot" else load_approx)(text)


def _node(text):
    node = json.loads(text)
    if not isinstance(node, list):
        raise ValueError("expected a JSON list of indices")
    return _as_node(node)


def _node_oracle(text):
    nodes = json.loads(text)
    if not isinstance(nodes, list) or not all(isinstance(w, list) for w in nodes):
        raise ValueError("expected a JSON list of nodes")
    return NodeOracle(nodes=nodes)


# a k or a count is a tuple length or an islice stop, so at most sys.maxsize
_K = _int("--k", 2, sys.maxsize)
_LEN = _int("--len", 0)
_A = _input("--a", load_approx)
_MEMBER = _input("--member", load_approx)
_COLORING = _input("--coloring", load_coloring)
_FAMILY = _input("--family", load_family)
_FORMAT = ("--format", {"choices": ("json", "dot"), "default": "json"}, None)

_COMMANDS = {}  # name -> (help, flags, handler), in help order


def _command(name, summary, *flags):
    """Declare a subcommand with its flags in help order. The handler
    gets the parsed flags, structured ones loaded, and returns an exit
    status, an approximation to print, or an Exhausted to report."""

    def declare(run):
        _COMMANDS[name] = (summary, flags, run)
        return run

    return declare


def _load(args, flags):
    """Load the structured flags in declaration order, so a bad file or
    text is a usage error naming the first bad flag."""
    for name, _, load in flags:
        if load is not None:
            dest = name[2:].replace("-", "_")  # as argparse derives it
            text = _read(name, getattr(args, dest))
            try:
                setattr(args, dest, load(text, args))
            except (ValueError, EllentuckError) as err:
                raise _UsageError(name, str(err))


# ----------------------------------------------------------- subcommands


@_command("enum", "list the well-order from its minimum",
          _int("--k", 1, sys.maxsize), _int("--count", 0, sys.maxsize),
          ("--full-length-only", {"action": "store_true"}, None))
def _cmd_enum(args, out):
    seqs = (
        enumerate_k(args.k, args.count)
        if args.full_length_only
        else enumerate_le_k(args.k, args.count)
    )
    out.write("≺".join(seq_str(s) for s in seqs) + "\n")
    return 0


@_command("build-w", "build the prototype member", _K, _int("--nodes", 0), _FORMAT)
def _cmd_build_w(args, out):
    w = build_w(args.k, args.nodes)
    out.write(to_dot(w) if args.format == "dot" else dump_approx(w) + "\n")
    return 0


@_command("validate", "check the tree conditions",
          ("--file", {"required": True}, _approx_in_format), _FORMAT)
def _cmd_validate(args, out):
    report = validate_approx(args.file)
    if report:
        out.write("valid\n")
        return 0
    out.write("INVALID: %s\n" % report.message)
    return 1


@_command("classify-n", "level of the n-th position", _int("--k", 1, sys.maxsize),
          _int("--n", 0))
def _cmd_classify_n(args, out):
    out.write("%d\n" % classify_n(args.k, args.n))
    return 0


@_command("project", "initial segment of a node",
          _input("--node", _node), _int("--level", 0))
def _cmd_project(args, out):
    out.write(canonical_json(list(project(args.node, args.level))) + "\n")
    return 0


@_command("extensions", "one-node extensions inside a member",
          _input("--approx", load_approx), _MEMBER)
def _cmd_extensions(args, out):
    out.write(dump_family(one_extensions(args.approx, args.member)) + "\n")
    return 0


@_command("construct", "greedy completion inside a member", _A, _MEMBER, _LEN)
def _cmd_construct(args, out):
    return construct_in_basic_set(args.a, args.member, args.len)


@_command("fuse", "completion staying compatible with both members",
          _A, _input("--A", load_approx), _input("--B", load_approx), _LEN)
def _cmd_fuse(args, out):
    return fuse(args.a, args.A, args.B, args.len)


@_command("embed", "greedy member from an availability oracle",
          _K, _input("--oracle", _node_oracle), _LEN)
def _cmd_embed(args, out):
    return dense_embed(args.k, args.oracle, args.len)


@_command("pigeonhole", "search a color-homogeneous sub-member",
          _A, _MEMBER, _COLORING, _LEN)
def _cmd_pigeonhole(args, out):
    got = pigeonhole(args.a, args.member, args.coloring, args.len, _budget())
    if isinstance(got, Exhausted):
        return got
    homogeneous, color = got
    out.write(
        canonical_json({"color": color, "member": approx_to_obj(homogeneous)}) + "\n"
    )
    return 0


@_command("canonize-ext", "canonical form of an extension coloring",
          _input("--s", load_approx), _MEMBER, _COLORING, _LEN)
def _cmd_canonize_ext(args, out):
    got = canonize_one_extensions(args.s, args.member, args.coloring, args.len, _budget())
    if isinstance(got, Exhausted):
        return got
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


@_command("canonize-arn", "projection vector canonizing a relation",
          _K, _int("--n", 1), _input("--relation", load_relation), _MEMBER, _LEN)
def _cmd_canonize_arn(args, out):
    got = canonize_relation(args.relation, args.k, args.n, args.member, args.len, _budget())
    if isinstance(got, Exhausted):
        return got
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


@_command("check-front", "does the family cover the member", _FAMILY, _MEMBER)
def _cmd_check_front(args, out):
    report = front_cover_check(args.family, args.member, _budget())
    if isinstance(report, Exhausted):
        return report
    if report:
        out.write("covered\n")
        return 0
    out.write("NOT COVERED: %s\n" % dump_approx(report.counterexample))
    return 1


@_command("check-irreducible", "inner and irreducible map checks",
          _input("--map", load_inner_map), _FAMILY)
def _cmd_check_irreducible(args, out):
    if not nash_williams_check(args.family):
        out.write("NOT A FRONT: some member end-extends another\n")
        return 1
    if not inner_check(args.map, args.family):
        out.write("NOT INNER\n")
        return 1
    if not irreducible_check(args.map, args.family):
        out.write("NOT IRREDUCIBLE\n")
        return 1
    out.write("irreducible\n")
    return 0


# ---------------------------------------------------------------- parser


def _build_parser(argv):
    """The parser for argv: only its subcommand's subparser when argv[0]
    names one, every subparser otherwise (help, errors, no command)."""
    parser = argparse.ArgumentParser(
        prog="ellentuck",
        description="Finite truncations of high-dimensional Ellentuck spaces.",
    )
    names, listing = _COMMANDS, {}
    if argv and argv[0] in _COMMANDS:
        # the parent's usage, printed on an unrecognized argument, still
        # lists every subcommand
        names, listing = argv[:1], {"metavar": "{" + ",".join(_COMMANDS) + "}"}
    sub = parser.add_subparsers(dest="command", required=True, **listing)
    for name in names:
        summary, flags, _ = _COMMANDS[name]
        p = sub.add_parser(name, help=summary)
        for flag, kwargs, _ in flags:
            p.add_argument(flag, **kwargs)
    return parser


def main(argv=None, out=None, err=None):
    out = sys.stdout if out is None else out
    err = sys.stderr if err is None else err
    argv = sys.argv[1:] if argv is None else argv
    args = _build_parser(argv).parse_args(argv)
    _, flags, run = _COMMANDS[args.command]
    try:
        _load(args, flags)
        got = run(args, out)
        if isinstance(got, Exhausted):
            out.write("exhausted: %s\n" % (got.detail or got.reason))
            return 3
        if isinstance(got, int):
            return got
        out.write(dump_approx(got) + "\n")
        return 0
    except _UsageError as usage:
        err.write("error: %s: %s\n" % (usage.flag, usage))
        return 2
    except (ValueError, EllentuckError) as failure:
        err.write("error: %s\n" % failure)
        return 1


if __name__ == "__main__":
    sys.exit(main())
