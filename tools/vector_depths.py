"""Where the relation search spends its states, vector by vector.

    PYTHONPATH=src python3 tools/vector_depths.py

For relation-canon's three calls (bench/relation_canon.py's CASES, each
relation induced by its vector) and criterion 9's two (1,0)-induced calls
(k = 2 and 3, n = 2, 200 nodes of W_k, target 8), prints the joint
search's states and then, per vector that survives the template
refutation, its solo search: the states it spends, whether it fits, and
its vetoed pushes by depth (the number of nodes placed before the push).
A solo search is canonize_relation's own search for one vector: a
ramsey._VectorFits over the same classes and template, run by
ramsey._search_member, whose try_push is wrapped on the instance to count
vetoes. Nothing in the package is changed.
"""

import sys
from collections import Counter
from unittest import mock

from ellentuck import ramsey
from ellentuck.ramsey import Budget, Relation, canonize_relation
from ellentuck.space import _approximation_positions, _Pool, build_w

CALLS = (
    ("relation-canon", 2, 2, 100, (0, 2), 8),
    ("relation-canon", 3, 2, 100, (0, 3), 8),
    ("relation-canon", 3, 3, 45, (2, 0, 3), 8),
    ("criterion 9", 2, 2, 200, (1, 0), 8),
    ("criterion 9", 3, 2, 200, (1, 0), 8),
)


def induced(X, n, vector):
    """The relation on X's n-approximations induced by vector."""
    return Relation.from_key_function(
        lambda b: tuple(w[:l] for w, l in zip(b.nodes, vector)),
        ramsey._approximations(X, n))


def joint(relation, k, n, X, tlen):
    """The joint search's states and the vectors it searched."""
    searched, fits = [], ramsey._VectorFits

    def recording(class_of, vectors, template):
        searched.extend(vectors)
        return fits(class_of, vectors, template=template)

    budget = Budget()
    with mock.patch.object(ramsey, "_VectorFits", recording):
        canonize_relation(relation, k, n, X, tlen, budget)
    return budget.used, searched


def solo(relation, k, n, X, tlen, vector):
    """One vector's search as canonize_relation runs it: its states,
    whether it fits, and its vetoed pushes by depth."""
    classes = {a.nodes: relation.class_id(a) for a in ramsey._approximations(X, n)}
    flt = ramsey._VectorFits(classes, [vector], template=(k, _approximation_positions(k, n, tlen)))
    vetoed, push = Counter(), flt.try_push

    def counted(nodes, w):
        kept = push(nodes, w)
        if not kept:
            vetoed[len(nodes)] += 1
        return kept

    flt.try_push = counted
    budget = Budget()
    ramsey._search_member(k, (), _Pool(X.nodes), tlen, budget, flt)
    return budget.used, bool(flt.found), vetoed


def main(out=sys.stdout):
    for label, k, n, size, vector, tlen in CALLS:
        X = build_w(k, size)
        relation = induced(X, n, vector)
        states, searched = joint(relation, k, n, X, tlen)
        out.write("%s k=%d n=%d W_%d[%d] target %d, %r-induced: %d states\n"
                  % (label, k, n, k, size, tlen, vector, states))
        for v in searched:
            used, fits, vetoed = solo(relation, k, n, X, tlen, v)
            depths = ", ".join("%d: %d" % d for d in sorted(vetoed.items()))
            out.write("  %-10s %6d states  %-4s vetoed by depth: %s\n"
                      % (v, used, "fits" if fits else "-", depths or "none"))


if __name__ == "__main__":
    main()
