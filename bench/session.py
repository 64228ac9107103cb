"""session: an interactive mix over the command line and the library.

For k = 2 and 3 the set-up writes JSON and DOT inputs into a scratch
directory, and a round then runs `ellentuck.cli.main` in process on them
(build-w, validate, enum, extensions, construct, fuse, embed, check-front,
check-irreducible), the library call behind each subcommand on the same
input, thin_to_subcopy, the four file-format routines, and pigeonhole on
seeded 2-colorings. Every call starts with empty package caches, the way
each command-line invocation starts in a fresh process.
"""

import io
import json
import os
import random

from ellentuck.cli import main
from ellentuck.constructions import (
    NodeOracle,
    construct_in_basic_set,
    dense_embed,
    fuse,
    thin_to_subcopy,
)
from ellentuck.formats import dump_approx, dump_family, dump_inner_map, from_dot, load_approx, to_dot
from ellentuck.ramsey import (
    Coloring,
    InnerMap,
    front_cover_check,
    irreducible_check,
    nash_williams_check,
    pigeonhole,
)
from ellentuck.space import Approx, Member, build_w, one_extensions, validate_approx
from ellentuck.wellorder import enumerate_le_k

from harness import Op, Shortfall, require
from reference import (
    Order,
    approx_text,
    canonical,
    depth,
    dot_tree,
    end_extends,
    irreducible_verdict,
    seq_text,
    tree_edges,
)

BIG, SMALL, FRONT, PIGEON = 200, 40, 30, 100
ENUM_COUNT = 120
CONSTRUCT_LEN = EMBED_LEN = 10
THIN_LEN = 6
RANDOM_COLORINGS = 2  # per position 0..3, each searched to 3 nodes past it


def _walk(X, steps, rng, bias, tracer):
    """A seeded valid approximation inside X: each step takes one of the
    `bias` least one-step extensions."""
    a = Approx(X.k)
    with tracer.span("space.one_extensions", calls=steps):
        for _ in range(steps):
            exts = one_extensions(a, X)
            if not exts:
                break
            a = rng.choice(exts[:bias])
    return a.nodes


def _cli(*argv):
    def run():
        out, err = io.StringIO(), io.StringIO()
        code = main(list(argv), out=out, err=err)
        return code, out.getvalue(), err.getvalue()

    return run


class Memo:
    """Reference answers, computed on first use and kept for later rounds."""

    def __init__(self):
        self._values = {}

    def get(self, key, compute):
        if key not in self._values:
            self._values[key] = compute()
        return self._values[key]


class Session:
    def __init__(self, seed, tracer, workdir):
        self.rng = random.Random(seed)
        self.tracer = tracer
        self.workdir = workdir
        self.memo = Memo()
        self.ops = []

    # ------------------------------------------------------------ helpers

    def path(self, name):
        return os.path.join(self.workdir, name)

    def write(self, name, text):
        with open(self.path(name), "w", encoding="utf-8") as handle:
            handle.write(text)
        return self.path(name)

    def dump(self, name, fn, value):
        with self.tracer.span("formats.dump", via=fn.__name__) as span:
            text = fn(value)
        span.attrs["bytes"] = len(text.encode())
        return self.write(name, text)

    def order(self, k):
        return self.memo.get(("order", k), lambda: Order.covering(k, BIG))

    def add(self, name, run, check, pair=None, **kw):
        """A timed call; command-line calls and searches run in every round,
        library calls (the twin of a command on the same input) only in the
        traced layer pass."""
        attrs = {"pair": pair} if pair else {}
        attrs.update(kw.pop("attrs", {}))
        layer_only = not name.startswith(("cli.", "ramsey.pigeonhole", "constructions.thin"))
        self.ops.append(Op(name, run, check, cold=True, layer_only=layer_only, attrs=attrs, **kw))

    # ------------------------------------------------------ expectations

    def expect_validate(self, k, nodes):
        """(exit code, first stdout word, allowed violations) for validate."""
        violations = self.order(k).violations(tuple(nodes))
        return (1, "INVALID", violations) if violations else (0, "valid", set())

    def check_validate_cli(self, k, nodes):
        def check(out):
            code, text, _ = out
            want_code, word, violations = self.memo.get(
                ("validate", k, nodes), lambda: self.expect_validate(k, nodes)
            )
            require(code == want_code, "validate exit %d, expected %d" % (code, want_code))
            if word == "valid":
                require(text == "valid\n", "validate printed %r" % text)
                return
            allowed = {
                "INVALID: condition (%s) at %s\n" % (c, seq_text(loc))
                for c, loc in violations
            }
            require(text in allowed, "validate printed %r, not a violation" % text)

        return check

    def check_validate_lib(self, k, nodes):
        def check(report):
            _, word, violations = self.memo.get(
                ("validate", k, nodes), lambda: self.expect_validate(k, nodes)
            )
            require(bool(report.ok) == (word == "valid"), "validate_approx verdict")
            if not report.ok:
                require((report.condition, report.location) in violations,
                        "validate_approx reports %r, not a violation" % (report.message,))

        return check

    def expect_front(self, k, family, member):
        if end_extends(family):
            return 1, None
        bad = self.order(k).uncovered(family, member)
        if bad is None:
            return 0, "covered\n"
        return 1, "NOT COVERED: %s\n" % approx_text(k, bad)

    # ------------------------------------------------------------- set-up

    def build(self):
        for k in (2, 3):
            self.build_k(k)
        return self.ops

    def build_k(self, k):
        rng, tracer = self.rng, self.tracer
        with tracer.span("space.build_w", k=k, nodes=BIG):
            W = build_w(k, BIG)
        small = Member(k, W.nodes[:SMALL])
        front_member = Member(k, W.nodes[:FRONT])
        pigeon_member = Member(k, W.nodes[:PIGEON])
        big_file = self.dump("%d-w%d.json" % (k, BIG), dump_approx, W)
        small_file = self.dump("%d-w%d.json" % (k, SMALL), dump_approx, small)
        front_file = self.dump("%d-w%d.json" % (k, FRONT), dump_approx, front_member)
        with tracer.span("formats.to_dot") as span:
            dot_text = to_dot(small)
        span.attrs["bytes"] = len(dot_text.encode())
        dot_file = self.write("%d-w%d.dot" % (k, SMALL), dot_text)
        lines = dot_text.splitlines()
        leaves = [i for i, line in enumerate(lines) if line.strip().startswith('"')][-SMALL:]
        i, j = sorted(rng.sample(leaves, 2))
        lines[i], lines[j] = lines[j], lines[i]
        bad_dot_text = "\n".join(lines) + "\n"
        bad_dot_file = self.write("%d-w%d-bad.dot" % (k, SMALL), bad_dot_text)

        good = _walk(W, 12, rng, 3, tracer)
        i, j = sorted(rng.sample(range(len(good)), 2))
        bad = list(good)
        bad[i], bad[j] = bad[j], bad[i]
        bad = tuple(bad)
        good_file = self.dump("%d-good.json" % k, dump_approx, Approx(k, good))
        bad_file = self.dump("%d-bad.json" % k, dump_approx, Approx(k, bad))

        a3 = _walk(small, 3, rng, 3, tracer)
        a3_file = self.dump("%d-a3.json" % k, dump_approx, Approx(k, a3))

        inner = _walk(W, 40, rng, 2, tracer)
        fuse_a = inner[:3]
        fuse_len = depth(fuse_a, W.nodes) + 6
        inner_file = self.dump("%d-inner.json" % k, dump_approx, Member(k, inner))
        fuse_a_file = self.dump("%d-fuse-a.json" % k, dump_approx, Approx(k, fuse_a))

        denied = set(rng.sample(W.nodes, BIG // 10))
        oracle = [w for w in W.nodes if w not in denied]
        oracle_file = self.write("%d-oracle.json" % k, canonical([list(w) for w in oracle]))

        ones = one_extensions(Approx(k), front_member)
        with tracer.span("space.one_extensions", calls=1 + len(ones)):
            twos = [b for a in ones for b in one_extensions(a, front_member)]
        family = twos
        tail = family[-max(1, len(family) // 10):]
        missing = rng.choice(tail)
        family_minus = [b for b in family if b != missing]
        longer = [b for b in family if one_extensions(b, front_member)]
        extended = one_extensions(rng.choice(longer), front_member)[0]
        family_bad = family + [extended]
        family_file = self.dump("%d-front.json" % k, dump_family, family)
        minus_file = self.dump("%d-front-minus.json" % k, dump_family, family_minus)
        bad_family_file = self.dump("%d-front-bad.json" % k, dump_family, family_bad)

        wide = (1, k)
        narrow_at = rng.choice(family)
        mixed_order = [b for b in family if b != narrow_at] + [narrow_at]
        uniform = InnerMap.uniform(wide, family)
        mixed = InnerMap({b: ((1, 1) if b == narrow_at else wide) for b in family})
        uniform_file = self.dump("%d-map-uniform.json" % k, dump_inner_map, uniform)
        mixed_file = self.dump("%d-map-mixed.json" % k, dump_inner_map, mixed)
        mixed_family_file = self.dump("%d-front-mixed.json" % k, dump_family, mixed_order)

        blocks = sorted({w[0] for w in pigeon_member.nodes})
        kept = set(rng.sample(blocks, (len(blocks) + 1) // 2))
        thin_v = [Approx(k, (w,)) for w in pigeon_member.nodes if w[0] in kept]

        nodes = lambda family: [b.nodes for b in family]
        self.add_build(k, W, big_file)
        self.add_dot(k, small, dot_text, dot_file, bad_dot_text, bad_dot_file)
        self.add_validate(k, good, good_file, "good")
        self.add_validate(k, bad, bad_file, "bad")
        self.add_enum(k)
        self.add_extensions(k, a3, a3_file, W, big_file)
        self.add_construct(k, a3, a3_file, W, big_file)
        self.add_fuse(k, fuse_a, fuse_a_file, inner, inner_file, W, big_file, fuse_len)
        self.add_embed(k, oracle, oracle_file)
        for tag, fam, fam_file in (
            ("all", family, family_file),
            ("minus", family_minus, minus_file),
            ("nested", family_bad, bad_family_file),
        ):
            self.add_front(k, tag, nodes(fam), fam, fam_file, front_member, front_file)
        vectors_uniform = {b.nodes: wide for b in family}
        vectors_mixed = dict(vectors_uniform)
        vectors_mixed[narrow_at.nodes] = (1, 1)
        for tag, phi, phi_file, vectors, fam, fam_file in (
            ("uniform", uniform, uniform_file, vectors_uniform, family, family_file),
            ("mixed", mixed, mixed_file, vectors_mixed, mixed_order, mixed_family_file),
            ("nested", uniform, uniform_file, vectors_uniform, family_bad, bad_family_file),
        ):
            self.add_irreducible(k, tag, phi, phi_file, vectors, nodes(fam), fam, fam_file)
        self.add_thin(k, pigeon_member, thin_v)
        self.add_pigeonholes(k, pigeon_member)

    # ---------------------------------------------------------- operations

    def add_build(self, k, W, big_file):
        proto = lambda: self.order(k).prototype(BIG)
        text = lambda: approx_text(k, proto())

        def check_cli(out):
            code, got, _ = out
            require(code == 0 and got == self.memo.get(("build", k), text) + "\n",
                    "build-w --k %d printed other bytes" % k)

        def check_lib(member):
            require(list(member.nodes) == self.memo.get(("proto", k), proto),
                    "build_w(%d) differs from the prototype" % k)

        def check_dump(got):
            require(got == self.memo.get(("build", k), text), "dump_approx bytes")

        def check_load(member):
            require(list(member.nodes) == self.memo.get(("proto", k), proto), "load_approx")

        with open(big_file, encoding="utf-8") as handle:
            big_text = handle.read()
        pair = "build-w-%d" % k
        self.add("cli.build-w", _cli("build-w", "--k", str(k), "--nodes", str(BIG)),
                 check_cli, pair)
        self.add("space.build_w", lambda: build_w(k, BIG), check_lib, pair)
        size = {"bytes": len(big_text.encode())}
        self.add("formats.dump", lambda: dump_approx(W), check_dump, attrs=size)
        self.add("formats.load", lambda: load_approx(big_text, member=True), check_load,
                 attrs=size)

    def add_dot(self, k, small, dot_text, dot_file, bad_dot_text, bad_dot_file):
        def check_tree(text):
            require(text.startswith("digraph ellentuck {\n") and text.endswith("}\n"),
                    "DOT text is not one digraph")
            dk, leaves, edges = dot_tree(text)
            proto = self.order(k).prototype(SMALL)
            require(dk == k and leaves == proto, "DOT leaves differ from the prototype")
            require(edges == tree_edges(proto, k), "DOT edges differ from the node tree")

        def check_cli(out):
            code, text, _ = out
            require(code == 0, "build-w --format dot exit %d" % code)
            check_tree(text)

        def check_from(member):
            require(list(member.nodes) == self.order(k).prototype(SMALL), "from_dot")

        size = {"bytes": len(dot_text.encode())}
        self.add("cli.build-w", _cli("build-w", "--k", str(k), "--nodes", str(SMALL),
                                     "--format", "dot"), check_cli)
        self.add("formats.to_dot", lambda: to_dot(small), check_tree, attrs=size)
        self.add("formats.from_dot", lambda: from_dot(dot_text, member=True), check_from,
                 attrs=size)
        for text, path in ((dot_text, dot_file), (bad_dot_text, bad_dot_file)):
            leaves = tuple(dot_tree(text)[1])
            self.add("cli.validate", _cli("validate", "--file", path, "--format", "dot"),
                     self.check_validate_cli(k, leaves))

    def add_validate(self, k, nodes, path, tag):
        pair = "validate-%d-%s" % (k, tag)
        self.add("cli.validate", _cli("validate", "--file", path),
                 self.check_validate_cli(k, nodes), pair)
        approx = Approx(k, nodes)
        self.add("space.validate_approx", lambda: validate_approx(approx),
                 self.check_validate_lib(k, nodes), pair, attrs={"nodes": len(nodes)})

    def add_enum(self, k):
        want = lambda: self.order(k).listing(ENUM_COUNT)

        def check_cli(out):
            code, text, _ = out
            require(code == 0 and text == self.memo.get(("enum", k), want) + "\n",
                    "enum --k %d printed other bytes" % k)

        def check_lib(seqs):
            got = "≺".join(seq_text(s) for s in seqs)
            require(got == self.memo.get(("enum", k), want), "enumerate_le_k(%d)" % k)

        pair = "enum-%d" % k
        self.add("cli.enum", _cli("enum", "--k", str(k), "--count", str(ENUM_COUNT)),
                 check_cli, pair)
        self.add("wellorder.enumerate_le_k", lambda: enumerate_le_k(k, ENUM_COUNT),
                 check_lib, pair)

    def add_extensions(self, k, a, a_file, member, member_file):
        want = lambda: self.order(k).extensions(a, member.nodes)

        def check_cli(out):
            code, text, _ = out
            exts = self.memo.get(("ext", k), want)
            body = canonical([{"k": k, "nodes": [list(w) for w in a + (w,)]} for w in exts])
            require(code == 0 and text == body + "\n", "extensions printed other bytes")

        def check_lib(got):
            require([b.nodes for b in got] == [a + (w,) for w in self.memo.get(("ext", k), want)],
                    "one_extensions differs from the reference")

        pair = "extensions-%d" % k
        self.add("cli.extensions", _cli("extensions", "--approx", a_file, "--member",
                                        member_file), check_cli, pair)
        approx = Approx(k, a)
        self.add("space.one_extensions", lambda: one_extensions(approx, member), check_lib,
                 pair, attrs={"calls": 1})

    def add_construct(self, k, a, a_file, member, member_file):
        want = lambda: self.order(k).greedy(a, member.nodes, CONSTRUCT_LEN)

        def check_cli(out):
            code, text, _ = out
            require(code == 0 and text == approx_text(k, self.memo.get(("greedy", k), want))
                    + "\n", "construct printed other bytes")

        def check_lib(got):
            if not got:
                raise Shortfall(repr(got))
            require(got.nodes == self.memo.get(("greedy", k), want),
                    "construct_in_basic_set is not the least-node completion")

        pair = "construct-%d" % k
        self.add("cli.construct", _cli("construct", "--a", a_file, "--member", member_file,
                                       "--len", str(CONSTRUCT_LEN)), check_cli, pair)
        approx = Approx(k, a)
        self.add("constructions.construct_in_basic_set",
                 lambda: construct_in_basic_set(approx, member, CONSTRUCT_LEN), check_lib, pair)

    def add_fuse(self, k, a, a_file, inner, inner_file, W, big_file, length):
        d = depth(a, W.nodes)

        def check_nodes(nodes):
            order = self.order(k)
            require(len(nodes) == length, "fuse returned %d nodes" % len(nodes))
            require(nodes[:d] == W.nodes[:d], "fuse drops the depth prefix of B")
            require(set(nodes) <= set(W.nodes), "fuse leaves B")
            require(order.valid(nodes), "fuse result is not valid")
            used = self.memo.get(("chains", k, nodes), lambda: order.chain_nodes(a, nodes))
            require(used <= set(inner), "an extension chain of a leaves A")

        def check_cli(out):
            code, text, _ = out
            if code == 3:
                raise Shortfall(text)
            require(code == 0, "fuse exit %d" % code)
            check_nodes(tuple(map(tuple, json.loads(text)["nodes"])))

        def check_lib(got):
            if not got:
                raise Shortfall(repr(got))
            check_nodes(got.nodes)

        pair = "fuse-%d" % k
        self.add("cli.fuse", _cli("fuse", "--a", a_file, "--A", inner_file, "--B", big_file,
                                  "--len", str(length)), check_cli, pair)
        approx, A = Approx(k, a), Member(k, inner)
        self.add("constructions.fuse", lambda: fuse(approx, A, W, length), check_lib, pair)

    def add_embed(self, k, oracle, oracle_file):
        def check_nodes(nodes):
            require(len(nodes) == EMBED_LEN, "embed returned %d nodes" % len(nodes))
            require(set(nodes) <= set(oracle), "embed uses a node the oracle denies")
            require(self.order(k).valid(nodes), "embed result is not valid")

        def check_cli(out):
            code, text, _ = out
            if code == 3:
                raise Shortfall(text)
            require(code == 0, "embed exit %d" % code)
            check_nodes(tuple(map(tuple, json.loads(text)["nodes"])))

        def check_lib(got):
            if not got:
                raise Shortfall(repr(got))
            check_nodes(got.nodes)

        pair = "embed-%d" % k
        self.add("cli.embed", _cli("embed", "--k", str(k), "--oracle", oracle_file, "--len",
                                   str(EMBED_LEN)), check_cli, pair)
        self.add("constructions.dense_embed",
                 lambda: dense_embed(k, NodeOracle(nodes=oracle), EMBED_LEN), check_lib, pair)

    def add_front(self, k, tag, fam_nodes, fam, fam_file, member, member_file):
        want = lambda: self.expect_front(k, fam_nodes, member.nodes)

        def check_cli(out):
            code, text, err = out
            want_code, want_text = self.memo.get(("front", k, tag), want)
            require(code == want_code, "check-front exit %d, expected %d" % (code, want_code))
            if want_text is None:
                require(text == "" and "no-end-extension" in err, "check-front on a nested family")
            else:
                require(text == want_text, "check-front printed %r" % text)

        def check_lib(report):
            _, want_text = self.memo.get(("front", k, tag), want)
            if report:
                require(want_text == "covered\n", "front_cover_check says covered")
            else:
                got = "NOT COVERED: %s\n" % approx_text(k, report.counterexample.nodes)
                require(got == want_text, "front_cover_check counterexample")

        def check_nw(verdict):
            require(verdict == (not end_extends(fam_nodes)), "nash_williams_check verdict")

        pair = "front-%d-%s" % (k, tag)
        self.add("cli.check-front", _cli("check-front", "--family", fam_file, "--member",
                                         member_file), check_cli, pair if tag != "nested" else None)
        size = {"family": len(fam)}
        self.add("ramsey.nash_williams_check", lambda: nash_williams_check(fam), check_nw,
                 attrs=size)
        if tag != "nested":
            self.add("ramsey.front_cover_check", lambda: front_cover_check(fam, member),
                     check_lib, pair, attrs=size)

    def add_irreducible(self, k, tag, phi, phi_file, vectors, fam_nodes, fam, fam_file):
        want = lambda: irreducible_verdict(k, vectors, fam_nodes)

        def check_cli(out):
            code, text, _ = out
            verdict = self.memo.get(("irreducible", k, tag), want)
            require(text == verdict + "\n", "check-irreducible printed %r" % text)
            require(code == (0 if verdict == "irreducible" else 1), "check-irreducible exit")

        def check_lib(got):
            verdict = self.memo.get(("irreducible", k, tag), want)
            require(got == (verdict == "irreducible"), "irreducible_check verdict")

        pair = "irreducible-%d-%s" % (k, tag)
        nested = tag == "nested"
        self.add("cli.check-irreducible", _cli("check-irreducible", "--map", phi_file,
                                               "--family", fam_file), check_cli,
                 None if nested else pair)
        if not nested:
            self.add("ramsey.irreducible_check", lambda: irreducible_check(phi, fam), check_lib,
                     pair, attrs={"family": len(fam)})

    def add_thin(self, k, X, V):
        allowed = {b.nodes[-1] for b in V}

        def check(got):
            if not got:
                raise Shortfall(repr(got))
            nodes = got.nodes
            order = self.order(k)
            require(len(nodes) == THIN_LEN, "thin_to_subcopy returned %d nodes" % len(nodes))
            require(order.valid(nodes), "thin_to_subcopy result is not valid")
            require(set(order.extensions((), nodes)) <= allowed,
                    "an extension of a inside the thinned member is outside V")

        empty = Approx(k)
        self.add("constructions.thin_to_subcopy",
                 lambda: thin_to_subcopy(empty, X, V, THIN_LEN), check)

    def add_pigeonholes(self, k, X):
        rng = self.rng
        cases = []
        exts = one_extensions(Approx(k), X)
        lo, hi = sorted(rng.sample(range(1000), 2))
        parity = {b.nodes[-1]: (lo, hi)[max(b.nodes[-1]) % 2] for b in exts}
        cases.append(((), parity, 8))
        for m in range(4):
            a = X.nodes[:m]
            exts = one_extensions(Approx(k, a), X)
            for _ in range(RANDOM_COLORINGS):
                cases.append((a, {b.nodes[-1]: rng.randrange(2) for b in exts}, m + 3))
        for a, color_of, length in cases:
            approx = Approx(k, a)
            with self.tracer.span("ramsey.coloring_build", domain=len(color_of)):
                coloring = Coloring({Approx(k, a + (w,)): c for w, c in color_of.items()})
            self.add("ramsey.pigeonhole", self.pigeon_run(approx, X, coloring, length),
                     self.pigeon_check(k, a, X, color_of, length), budgeted=True)

    @staticmethod
    def pigeon_run(a, X, coloring, length):
        return lambda budget: pigeonhole(a, X, coloring, length, budget)

    def pigeon_check(self, k, a, X, color_of, length):
        d = depth(a, X.nodes)

        def check(out):
            if not out:
                raise Shortfall(repr(out))
            Y, color = out
            nodes = Y.nodes
            order = self.order(k)
            require(len(nodes) == length, "pigeonhole returned %d nodes" % len(nodes))
            require(nodes[:d] == X.nodes[:d], "pigeonhole drops the depth prefix")
            require(set(nodes) <= set(X.nodes), "pigeonhole leaves the truncation")
            require(order.valid(nodes), "pigeonhole result is not valid")
            seen = {color_of.get(w) for w in order.extensions(a, nodes)}
            require(seen == {color}, "extensions carry colours %r, not only %r" % (seen, color))

        return check


def setup(seed, tracer, workdir):
    return Session(seed, tracer, workdir).build()

