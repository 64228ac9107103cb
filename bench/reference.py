"""Definition-shaped reference for checking the program's outputs.

Everything here is derived from the definitions alone and imports nothing
from the package under test. It is slow on purpose: sequences are listed
and sorted, nodes are built from ranks looked up in that list, and
validity is tested pair by pair against the tree conditions.

* Sequences are ordered by last entry, then lexicographically with a
  proper prefix first; the empty sequence comes before everything.
* A node is the tuple of ranks of its sequence's nonempty prefixes.
* The prototype member over n positions takes the first n full-length
  sequences in that order.
* An approximation is valid when its nodes are nodes (i), its branch
  maxima grow along the order of the represented prefixes (ii), and two
  node prefixes coincide exactly when the index prefixes do (iii).
* The extensions of a inside Y are the nodes w of Y with a+w valid.
"""

import json
from itertools import combinations, combinations_with_replacement, permutations
from math import comb


def seq_key(s):
    return (s[-1], s) if s else (-1, ())


def seq_text(s):
    return "(" + ",".join(str(v) for v in s) + ")"


def canonical(value):
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def approx_text(k, nodes):
    """Canonical JSON of an approximation, as the file format writes it."""
    return canonical({"k": k, "nodes": [list(w) for w in nodes]})


class Order:
    """The well-order on sequences of length <= k with last entry <= top.

    Ordering by last entry first puts every sequence ending at or below
    `top` ahead of the rest, so ranks computed on this finite list are
    the ranks in the whole order.
    """

    def __init__(self, k, top):
        self.k = k
        seqs = [
            s
            for length in range(1, k + 1)
            for s in combinations_with_replacement(range(top + 1), length)
        ]
        seqs.sort(key=seq_key)
        self.seqs = seqs
        self.rank = {s: r for r, s in enumerate(seqs)}
        self.full = [s for s in seqs if len(s) == k]

    @classmethod
    def covering(cls, k, positions):
        """An order long enough to hold `positions` full-length sequences."""
        top = 0
        while comb(top + k, k) < positions:
            top += 1
        return cls(k, top)

    def listing(self, count):
        return "≺".join(seq_text(s) for s in ([()] + self.seqs)[:count])

    def node(self, s):
        return tuple(self.rank[s[:p]] for p in range(1, len(s) + 1))

    def prototype(self, n):
        return [self.node(s) for s in self.full[:n]]

    def decode(self, node):
        """The sequence a node stands for, or None when it is no node."""
        if len(node) != self.k or not all(0 <= r < len(self.seqs) for r in node):
            return None
        s = self.seqs[node[-1]]
        return s if self.node(s) == tuple(node) else None

    def violations(self, nodes):
        """Every (condition, location) at which the tree conditions fail.

        A location is an index prefix; (i) is reported at the position's
        full index sequence.
        """
        k, out = self.k, set()
        dom = self.full[: len(nodes)]
        for p, w in enumerate(nodes):
            if self.decode(w) is None:
                out.add(("i", dom[p]))
        val = {}
        for (p, u), (q, w) in combinations(enumerate(nodes), 2):
            for l in range(1, k + 1):
                same_dom = dom[p][:l] == dom[q][:l]
                same_node = u[:l] == w[:l]
                if same_dom != same_node:
                    later = max(dom[p][:l], dom[q][:l], key=seq_key)
                    out.add(("iii", later))
        for p, w in enumerate(nodes):
            for l in range(1, k + 1):
                val.setdefault(dom[p][:l], set()).add(w[:l])
        for s, t in combinations(sorted(val, key=seq_key), 2):
            if any(max(a) >= max(b) for a in val[s] for b in val[t]):
                out.add(("ii", t))
        return out

    def valid(self, nodes):
        return not self.violations(nodes)

    def extensions(self, a, Y):
        """Nodes w of Y with a+w valid, ascending by maximum."""
        a = tuple(a)
        return sorted((w for w in Y if self.valid(a + (w,))), key=max)

    def sub_approximations(self, Y, n):
        """Every valid n-node approximation drawing its nodes from Y."""
        return [c for c in permutations(Y, n) if self.valid(c)]

    def greedy(self, a, Y, length):
        """Append the least admissible node of Y until `length` nodes."""
        cur = tuple(a)
        while len(cur) < length:
            exts = self.extensions(cur, Y)
            if not exts:
                return None
            cur = cur + (exts[0],)
        return cur

    def chain_nodes(self, a, Y):
        """Every node some chain of extensions of a inside Y uses."""
        used, frontier = set(), [tuple(a)]
        while frontier:
            nxt = []
            for c in frontier:
                for w in self.extensions(c, Y):
                    used.add(w)
                    nxt.append(c + (w,))
            frontier = nxt
        return used

    def level(self, position):
        """Entries of the position's index sequence below its last one."""
        s = self.full[position]
        return sum(1 for v in s if v < s[-1])

    def uncovered(self, family, Y):
        """First maximal chain below Y, depth first, that misses the family."""
        hits = {tuple(a) for a in family}

        def walk(cur):
            if cur in hits:
                return None
            exts = self.extensions(cur, Y)
            if not exts:
                return cur
            for w in exts:
                bad = walk(cur + (w,))
                if bad is not None:
                    return bad
            return None

        return walk(())


def depth(a, X):
    """Least n such that the first n nodes of X hold every node of a."""
    pos = {w: i for i, w in enumerate(X)}
    return 1 + max(pos[w] for w in a) if a else 0


def end_extends(family):
    """Whether some member of the family properly end-extends another."""
    members = {tuple(a) for a in family}
    return any(a[:n] in members for a in members for n in range(len(a)))


def image(a, vector):
    return frozenset(w[:l] for w, l in zip(a, vector))


def irreducible_verdict(k, vectors, family):
    """The verdict check-irreducible must print, from the definitions."""
    if end_extends(family):
        return "NOT A FRONT: some member end-extends another"
    for a in family:
        v = vectors.get(tuple(a))
        if v is None or len(v) != len(a) or any(not 0 <= l <= k for l in v):
            return "NOT INNER"
    images = {tuple(a): image(a, vectors[tuple(a)]) for a in family}
    for a in family:
        for b in family:
            vb = vectors[tuple(b)]
            for n in range(len(b) + 1):
                partial = image(b[:n], vb[:n])
                if images[tuple(a)] == partial != images[tuple(b)]:
                    return "NOT IRREDUCIBLE"
    return "irreducible"


def dot_tree(text):
    """(k, leaves in declaration order, edges) read from a DOT tree."""
    k, declared, edges = None, [], set()
    for line in text.splitlines():
        line = line.strip()
        if line.startswith("// k="):
            k = int(line[5:])
        elif "->" in line:
            src, dst = (part.strip(' ";') for part in line.split("->"))
            edges.add((src, dst))
        elif line.startswith('"'):
            declared.append(line.split('"')[1])
    sources = {src for src, _ in edges}
    leaves = [
        tuple(int(v) for v in ident.split(","))
        for ident in declared
        if ident and ident not in sources
    ]
    return k, leaves, edges


def tree_edges(nodes, k):
    """Parent-to-child edges of the node tree, as DOT identifiers."""
    ident = lambda t: ",".join(str(v) for v in t)
    return {(ident(w[: l - 1]), ident(w[:l])) for w in nodes for l in range(1, k + 1)}
