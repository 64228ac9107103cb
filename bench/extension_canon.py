"""extension-canon: canonize_one_extensions on colorings of known level.

At each position m of a prototype truncation, s is the first m nodes and
every candidate level j is tried: the coloring gives each one-step
extension of s a label of the level-j prefix of its new node, so the
canonical level is j by construction. The seed draws the labels; the
partition into colour classes, and so the search, is the same for every
seed.
"""

import random

from ellentuck.ramsey import CanonicalRelation, Coloring, canonize_one_extensions
from ellentuck.space import Approx, build_w, one_extensions

from harness import Op, Shortfall, require
from reference import Order, depth

# k, truncation length, {position: target length}; each target is the
# least length at which every candidate level finds its witness
CASES = (
    (2, 150, {0: 3, 1: 4, 2: 6, 3: 7, 4: 8, 5: 10, 6: 11, 7: 12}),
    (3, 100, {0: 4, 1: 5, 2: 7, 3: 10, 4: 11, 5: 12, 6: 14, 7: 15}),
)


class Case:
    def __init__(self, X, order, m, level, tlen, s, exts, coloring, color_of):
        self.X, self.order, self.m = X, order, m
        self.level, self.tlen = level, tlen
        self.s, self.exts = s, exts
        self.coloring, self.color_of = coloring, color_of
        self._exts_checked = False

    def run(self, budget):
        return canonize_one_extensions(self.s, self.X, self.coloring, self.tlen, budget)

    def check(self, out):
        if not out:
            raise Shortfall(repr(out))
        order, j = self.order, self.level
        if not self._exts_checked:
            want = order.extensions(self.s.nodes, self.X.nodes)
            require(self.exts == want, "one_extensions differs from the reference")
            self._exts_checked = True
        Y, relation = out
        require(isinstance(relation, CanonicalRelation) and relation.level == j,
                "level %r, coloring built at level %d" % (relation, j))
        nodes = Y.nodes
        d = depth(self.s.nodes, self.X.nodes)
        require(len(nodes) == self.tlen, "witness has %d nodes" % len(nodes))
        require(nodes[:d] == self.X.nodes[:d], "witness drops the depth prefix of s")
        require(set(nodes) <= set(self.X.nodes), "witness leaves the truncation")
        require(order.valid(nodes), "witness %r is not valid" % (nodes,))
        prefix_color, color_prefix = {}, {}
        for w in order.extensions(self.s.nodes, nodes):
            c, p = self.color_of[w], w[:j]
            require(prefix_color.setdefault(p, c) == c and color_prefix.setdefault(c, p) == p,
                    "colours on the witness do not follow level-%d prefixes" % j)


def setup(seed, tracer):
    rng = random.Random(seed)
    ops = []
    for k, size, targets in CASES:
        with tracer.span("space.build_w", k=k, nodes=size):
            X = build_w(k, size)
        order = Order.covering(k, size)
        for m, tlen in targets.items():
            s = Approx(k, X.nodes[:m])
            with tracer.span("space.one_extensions", calls=1):
                exts = one_extensions(s, X)
            new = [b.nodes[-1] for b in exts]
            l = order.level(m)
            for j in [0] + list(range(l + 1, k + 1)):
                prefixes = sorted({w[:j] for w in new})
                labels = dict(zip(prefixes, rng.sample(range(10 ** 6), len(prefixes))))
                color_of = {w: labels[w[:j]] for w in new}
                with tracer.span("ramsey.coloring_build", domain=len(exts)):
                    coloring = Coloring({b: color_of[b.nodes[-1]] for b in exts})
                case = Case(X, order, m, j, tlen, s, new, coloring, color_of)
                ops.append(Op("ramsey.canonize_one_extensions", case.run, case.check,
                              budgeted=True, attrs={"k": k, "m": m, "level": j}))
    return ops
