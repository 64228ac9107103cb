"""relation-canon: canonize_relation on relations induced by a known vector.

Each relation groups the n-approximations of a prototype truncation by
their coordinatewise projection under one admissible vector. The seed
relabels the classes and shuffles their order; the partition, and so
the search, is the same for every seed.
"""

import random

from ellentuck.ramsey import Relation, RelationCanonization, canonize_relation
from ellentuck.space import Approx, build_w, one_extensions

from harness import Op, Shortfall, require
from reference import Order, image

# k, n, truncation length, inducing vector, target length. Each call
# takes about a second or less, so a run holds a dozen rounds: on this
# noisy machine the 200-node truncations (5 s and more a call) gave too
# few samples for a steady median.
CASES = (
    (2, 2, 100, (0, 2), 8),
    (3, 2, 100, (0, 3), 8),
    (3, 3, 45, (2, 0, 3), 8),
)


def key(nodes, vector):
    return tuple(w[:l] for w, l in zip(nodes, vector))


def n_approximations(k, X, n, tracer):
    """Every n-node approximation inside X, by repeated one-step extension."""
    layer = [Approx(k)]
    with tracer.span("space.one_extensions") as span:
        for _ in range(n):
            span.attrs["calls"] = span.attrs.get("calls", 0) + len(layer)
            layer = [b for a in layer for b in one_extensions(a, X)]
    return layer


class Case:
    def __init__(self, k, n, X, vector, tlen, relation, label):
        self.k, self.n, self.X = k, n, X
        self.vector, self.tlen = vector, tlen
        self.relation, self.label = relation, label
        self._order = None

    @property
    def order(self):
        if self._order is None:
            self._order = Order.covering(self.k, len(self.X.nodes))
        return self._order

    def run(self, budget):
        return canonize_relation(
            self.relation, self.k, self.n, self.X, self.tlen, budget
        )

    def check(self, out):
        if not isinstance(out, RelationCanonization):
            raise Shortfall(repr(out))
        require(tuple(out.vector) == self.vector,
                "vector %r, induced by %r" % (out.vector, self.vector))
        require(out.fits and tuple(out.fits[0][0]) == tuple(out.vector)
                and out.fits[0][1].nodes == out.member.nodes,
                "the first fit is not the returned vector and witness")
        for vector, member in out.fits:
            self.check_witness(tuple(vector), member.nodes)
        subs = self.order.sub_approximations(out.member.nodes, self.n)
        for vector, _ in out.fits:
            for b in subs:
                require(image(b, vector) == image(b, out.vector),
                        "fit %r disagrees with %r on %r" % (vector, out.vector, b))

    def check_witness(self, vector, nodes):
        order = self.order
        require(len(nodes) == self.tlen, "witness has %d nodes" % len(nodes))
        require(set(nodes) <= set(self.X.nodes), "witness leaves the truncation")
        require(order.valid(nodes), "witness %r is not valid" % (nodes,))
        key_class, class_key = {}, {}
        for b in order.sub_approximations(nodes, self.n):
            c = self.label.get(b)
            require(c is not None, "%r is outside the relation's domain" % (b,))
            kb = key(b, vector)
            require(key_class.setdefault(kb, c) == c and class_key.setdefault(c, kb) == kb,
                    "on the witness the relation is not agreement under %r" % (vector,))


def setup(seed, tracer):
    rng = random.Random(seed)
    ops = []
    for k, n, size, vector, tlen in CASES:
        with tracer.span("space.build_w", k=k, nodes=size):
            X = build_w(k, size)
        groups = {}
        for b in n_approximations(k, X, n, tracer):
            groups.setdefault(key(b.nodes, vector), []).append(b)
        classes = list(groups.values())
        rng.shuffle(classes)
        for group in classes:
            rng.shuffle(group)
        label = {b.nodes: i for i, group in enumerate(classes) for b in group}
        with tracer.span("ramsey.relation_build", domain=len(label)):
            relation = Relation.from_classes(classes)
        case = Case(k, n, X, vector, tlen, relation, label)
        ops.append(Op("ramsey.canonize_relation", case.run, case.check,
                      budgeted=True, attrs={"k": k, "n": n}))
    return ops
