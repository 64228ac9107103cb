"""Shared test utilities: independent oracles and random data builders.

The oracles here deliberately avoid the fast paths in the package. They
re-derive extension sets by full revalidation so the structural shortcut
rules have something definition-shaped to answer to.
"""

import argparse
import contextlib
import itertools
import sys
from bisect import insort
from math import comb
from operator import getitem, itemgetter

from ellentuck import ramsey
from ellentuck.cli import _COMMANDS
from ellentuck.errors import AmbiguousAtScale, Exhausted, NotCanonicalAtScale
from ellentuck.ramsey import (
    Budget,
    CanonicalRelation,
    Coloring,
    RelationCanonization,
    _FitFilter,
)
from ellentuck.space import (
    Approx,
    Member,
    _Pool,
    _Slot,
    _extension_positions,
    build_w,
    one_extensions,
    position_info,
    validate_approx,
)
from ellentuck.wellorder import classify_n, domain_at


@contextlib.contextmanager
def shallow_stack(frames):
    """Lower the recursion limit to `frames` above the caller's depth, so
    code that recurses once per node fails fast on a long input."""
    depth, f = 0, sys._getframe()
    while f is not None:
        depth += 1
        f = f.f_back
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + frames)
    try:
        yield
    finally:
        sys.setrecursionlimit(old)


def oracle_block(e, k):
    """Block e of the well-order (every sequence of length <= k ending in
    e) as a recursive lex walk gives it, one frame per entry."""
    def rec(prefix):
        if prefix and prefix[-1] == e:
            yield prefix
        if len(prefix) < k:
            lo = prefix[-1] if prefix else 0
            for v in range(lo, e + 1):
                yield from rec(prefix + (v,))

    yield from rec(())


def oracle_build_parser():
    """The CLI's parser with every subcommand registered, whatever the
    arguments: the parser every run built before a run built only its
    own subcommand's."""
    parser = argparse.ArgumentParser(
        prog="ellentuck",
        description="Finite truncations of high-dimensional Ellentuck spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (summary, flags, _) in _COMMANDS.items():
        p = sub.add_parser(name, help=summary)
        for flag, kwargs, _ in flags:
            p.add_argument(flag, **kwargs)
    return parser


def _ext_count(d, rem):
    # completions strictly extending a prefix whose last entry is e-d,
    # with rem slots left, that end at e
    if rem < 1:
        return 0
    return comb(d + rem, rem - 1)


def _full_count(e, v, rem):
    # length-rem completions from last entry v that end at e
    if rem < 1:
        return 1 if v == e else 0
    return comb(e - v + rem - 1, rem - 1)


def oracle_seq_at_rank(rank, k):
    """seq_at_rank by a walk of the length <= k order itself: block by
    block to the one holding the rank, then entry by entry, counting the
    sequences each skipped entry would have begun."""
    e = 0
    while comb(e + 1 + k, k) - 1 <= rank:
        e += 1
    rem = rank - (comb(e + k, k) - 1)
    prefix = ()
    while True:
        if prefix and prefix[-1] == e:
            if rem == 0:
                return prefix
            rem -= 1
        lo = prefix[-1] if prefix else 0
        for v in range(lo, e + 1):
            t = (1 if v == e else 0) + _ext_count(e - v, k - len(prefix) - 1)
            if rem < t:
                prefix = prefix + (v,)
                break
            rem -= t


def oracle_domain_at(n, k):
    """domain_at by a walk of the full-length order itself: block by
    block, then entry by entry, one count per skipped entry."""
    e = 0
    while comb(e + k, k) <= n:
        e += 1
    rem = n - comb(e + k - 1, k)
    prefix = ()
    while len(prefix) < k:
        lo = prefix[-1] if prefix else 0
        for v in range(lo, e + 1):
            t = _full_count(e, v, k - len(prefix) - 1)
            if rem < t:
                prefix = prefix + (v,)
                break
            rem -= t
    return prefix


def oracle_position_info(k, n):
    """position_info by definition: the forced level of step n and the
    first earlier position whose domain shares the forced prefix, found
    by scanning every earlier domain."""
    l = classify_n(k, n)
    if l == 0:
        return 0, None
    head = domain_at(n, k)[:l]
    return l, next(p for p in range(n) if domain_at(p, k)[:l] == head)


def oracle_extensions(a, X):
    """Every node of X that survives a from-scratch validation when
    appended to a. No admissibility shortcut involved."""
    out = []
    for w in set(X.nodes) - set(a.nodes):
        cand = Approx(a.k, a.nodes + (w,))
        if validate_approx(cand).ok:
            out.append(cand)
    out.sort(key=lambda b: max(b.nodes[-1]))
    return out


def oracle_level(a, X):
    """The definitional level test: the unique l < k such that every
    valid extension's new node has its length-l prefix already in a's
    tree but its length-(l+1) prefix new. Returns the sorted list of
    levels that pass (callers assert it is a singleton)."""
    k = a.k
    exts = oracle_extensions(a, X)
    assert exts, "oracle needs at least one extension to quantify over"
    levels = []
    for l in range(k):
        def proj(j):
            # the induced tree always contains its root, so the empty
            # prefix counts as present even for the empty approximation
            vals = {w[:j] for w in a.nodes}
            if j == 0:
                vals.add(())
            return vals

        lo, hi = proj(l), proj(l + 1)
        if all(b.nodes[-1][:l] in lo and b.nodes[-1][: l + 1] not in hi for b in exts):
            levels.append(l)
    return levels


def random_sub_member(X, length, rng, bias=None):
    """A pseudo-random valid sub-member of X with `length` nodes, or
    None when the random walk dead-ends. With bias=m the walk only
    considers the m least extensions per step, which keeps it from
    jumping to the edge of the truncation and starving later steps."""
    a = Approx(X.k)
    for _ in range(length):
        exts = one_extensions(a, X)
        if not exts:
            return None
        a = rng.choice(exts[:bias] if bias else exts)
    return a


def repeated_node_case():
    """build_w(2, 8) with node 4 replaced by node 0, as (a, X, coloring):
    a is the first 3 nodes, and its one-step extensions (0, 5) and (0, 9)
    have colors 0 and 1. Every sub-member of 7 nodes sharing a's depth
    prefix places both, so no color is homogeneous."""
    nodes = list(build_w(2, 8).nodes)
    nodes[4] = nodes[0]
    X = Member(2, tuple(nodes))
    a = Approx(2, X.nodes[:3])
    coloring = Coloring({b: int(b.nodes[-1] == (0, 9)) for b in one_extensions(a, X)})
    return a, X, coloring


def swapped_prefix_case():
    """build_w(2, 6) with its first two nodes swapped, as (a, X, coloring):
    a = ((0, 1),) is valid and has depth 2, and its one-step extensions
    (0, 2) and (0, 5) have colors 0 and 1, by parity. The depth prefix
    ((0, 2), (0, 1)) does not validate, and it holds (0, 2), which no
    search places, so a witness for color 1 would carry both colors."""
    nodes = list(build_w(2, 6).nodes)
    nodes[:2] = nodes[1::-1]
    X = Member(2, tuple(nodes))
    a = Approx(2, ((0, 1),))
    coloring = Coloring({b: max(b.nodes[-1]) % 2 for b in one_extensions(a, X)})
    return a, X, coloring


def extension_closure_nodes(a, Y):
    """Every node Y can contribute to any chain of extensions of a.
    Each reachable approximation has a unique chain, so plain BFS."""
    used = set()
    frontier = [Approx(a.k, a.nodes)]
    while frontier:
        nxt = []
        for c in frontier:
            for b in one_extensions(c, Y):
                used.add(b.nodes[-1])
                nxt.append(b)
        frontier = nxt
    return used


def sub_approxs_up_to(X, max_len):
    """All valid approximations with nodes from X, up to max_len nodes."""
    frontier = [Approx(X.k)]
    out = list(frontier)
    for _ in range(max_len):
        nxt = []
        for a in frontier:
            nxt.extend(one_extensions(a, X))
        out.extend(nxt)
        frontier = nxt
    return out


def all_sub_members(X, base, length):
    """Exhaustive generator of valid completions of base to the given
    length with nodes from X. Pure definition: every structural choice
    is tried, nothing is pruned. Kept for cross-checking searches on
    tiny truncations only."""
    from ellentuck.space import position_info

    def rec(nodes):
        if len(nodes) == length:
            yield Member(X.k, tuple(nodes))
            return
        l, anchor = position_info(X.k, len(nodes))
        prefix = nodes[anchor][:l] if l else None
        maxi = max((max(w) for w in nodes), default=-1)
        for w in X.nodes:
            if prefix is None:
                if w[0] <= maxi:
                    continue
            elif w[:l] != prefix or w[l] <= maxi:
                continue
            nodes.append(w)
            yield from rec(nodes)
            nodes.pop()

    yield from rec(list(base))


def oracle_front_walk(family, X, limit):
    """The walk of front_cover_check as first written: depth first from
    the empty approximation, each approximation's children from
    one_extensions, a scan of all of X, and a chain closed off when it
    is in the family. Returns (the first approximation with no child, or
    None when every chain is closed, visits), or ("budget", limit + 1)
    when more than limit approximations would be visited."""
    hits = set(family)
    visits = 0
    stack = [[Approx(X.k)]]
    while stack:
        if not stack[-1]:
            stack.pop()
            continue
        cur = stack[-1].pop(0)
        visits += 1
        if visits > limit:
            return "budget", visits
        if cur not in hits:
            children = one_extensions(cur, X)
            if not children:
                return cur, visits
            stack.append(children)
    return None, visits


def oracle_nash_williams(family):
    """The pairwise definition: no member's nodes are a proper initial
    segment of another's. Validity of the members is not checked."""
    approxs = list(family)
    return not any(
        len(a.nodes) < len(b.nodes) and b.nodes[: len(a.nodes)] == a.nodes
        for a in approxs
        for b in approxs
    )


def oracle_irreducible(phi, family):
    """The definition-shaped double loop: phi is inner, and no image of
    a member equals a partial image of a member b (its first n nodes
    projected) unless it equals b's full image too."""
    from ellentuck.ramsey import inner_check

    approxs = list(dict.fromkeys(family))
    if not inner_check(phi, approxs):
        return False
    images = {a: phi.image(a) for a in approxs}
    for a in approxs:
        for b in approxs:
            vb = phi.vector_for(b)
            full = images[b]
            for n in range(len(b.nodes) + 1):
                partial = frozenset(b.nodes[i][: vb[i]] for i in range(n))
                if images[a] == partial and images[a] != full:
                    return False
    return True


def oracle_relation_fits(relation, k, n, X, target_len):
    """The (vector, member) fits of canonize_relation by definition: for
    each admissible vector in order, the first sub-member of X with
    target_len nodes, in all_sub_members order, on which relation holds
    between two of its n-approximations exactly when their projection
    keys under the vector are equal. Nothing is pruned."""
    from ellentuck.ramsey import admissible_vectors

    fits = []
    for v in admissible_vectors(k, n):
        def key(b):
            return tuple(w[:l] for w, l in zip(b.nodes, v))

        for Y in all_sub_members(X, (), target_len):
            inside = [b for b in sub_approxs_up_to(Y, n) if len(b.nodes) == n]
            if all(
                relation.related(a, b) == (key(a) == key(b))
                for a in inside
                for b in inside
            ):
                fits.append((v, Y))
                break
    return fits


def oracle_disagreement(phi, relation, family):
    """The first pair (a, b) of family members, a before b, on which the
    relation and equality of phi-images disagree, or None when phi
    canonizes the relation on the family. The pairwise definition."""
    import itertools

    approxs = list(dict.fromkeys(family))
    for a, b in itertools.combinations(approxs, 2):
        if relation.related(a, b) != (phi.image(a) == phi.image(b)):
            return a, b
    return None


def oracle_thin_to_subcopy(a, X, V, target_len):
    """thin_to_subcopy as first written: it works out from domain
    positions which positions of the result hold a one-step extension
    of a, where thin_to_subcopy asks a's slot. At a branch-continuing
    step a position is constrained when its domain sequence extends a's
    branch and its node continues none of a's deeper prefixes; at a
    fresh-branch step every fresh branch draws from V's usable blocks
    and every branch opened above a's maximum from its own block."""
    from ellentuck.constructions import _greedy, _new_nodes_of, subcopy_check
    from ellentuck.errors import Exhausted, NotIsomorphic
    from ellentuck.space import _check_length, _require_valid, position_info

    if a.k != X.k:
        raise ValueError("dimension mismatch")
    _check_length(target_len, "target length")
    if target_len < len(a.nodes):
        raise ValueError("target length is shorter than the input")
    _require_valid(a)
    k = a.k
    n = len(a.nodes)
    wanted = _new_nodes_of(a, V)
    in_x = set(X.nodes)
    usable = [w for w in wanted if w in in_x]
    usable.sort(key=max)
    level = position_info(k, n)[0]

    x_pool = sorted(set(X.nodes), key=max)
    max_a = a.max_index()

    if level >= 1:
        if usable:
            verdict = subcopy_check(usable, k, level)
            if isinstance(verdict, NotIsomorphic):
                raise ValueError("V's new nodes are not a subcopy above level "
                                 f"{level}: {verdict.reason}")
        branch_dom = domain_at(n, k)[:level]
        a_deep = {w[: level + 1] for w in a.nodes}

        def pool_of(nodes, slot):
            p = len(nodes)
            l, anchor = position_info(k, p)
            constrained = domain_at(p, k)[:level] == branch_dom and (
                l == level or nodes[anchor][: level + 1] not in a_deep
            )
            return usable if constrained else x_pool
    else:
        blocks = {}
        for w in usable:
            blocks.setdefault(w[0], []).append(w)
        good_blocks = {
            h: blk
            for h, blk in blocks.items()
            if not isinstance(subcopy_check(blk, k, 1), NotIsomorphic)
        }
        fresh_pool = sorted((w for blk in good_blocks.values() for w in blk), key=max)

        def pool_of(nodes, slot):
            if slot.level == 0:
                return fresh_pool
            if slot.prefix[0] > max_a:
                return good_blocks.get(slot.prefix[0], ())
            return x_pool

    nodes = list(a.nodes)
    if _greedy(k, nodes, target_len, pool_of) is not None:
        return Exhausted("supply", f"step {len(nodes)}: no fitting node")
    result = Member(k, tuple(nodes))
    allowed = set(wanted)
    for b in one_extensions(a, result):
        if b.nodes[-1] not in allowed:
            raise AssertionError("thinning certificate failed; this is a bug")
    return result


class ScanAgreementFilter:
    """The filter of irreducible_agreement's search by definition: each
    push rescans the whole family for the members it completes (those
    holding the new node with every node placed) and is vetoed when the
    two maps give one of them different images; a completed member is
    accepted when some member was completed along the way. accept
    answers in the search core's terms, the number of nodes to keep."""

    def __init__(self, phi1, phi2, family):
        self.phi1 = phi1
        self.phi2 = phi2
        self.family = family
        self.hits = []

    def start(self, stop):
        pass

    def try_push(self, nodes, w):
        have = set(nodes) | {w}
        inside = [a for a in self.family if w in a.nodes and set(a.nodes) <= have]
        if any(self.phi1.image(a) != self.phi2.image(a) for a in inside):
            return False
        self.hits.append(len(inside))
        return True

    def pop(self):
        self.hits.pop()

    def accept(self, nodes):
        return len(nodes) if sum(self.hits) else len(nodes) - 1

    def signature(self):
        # the members a push completes depend on every placed node
        return None


class ReferenceFitFilter:
    """ramsey._FitFilter before the level fits looked ahead, kept as the
    reference: a push is vetoed only by its own pairs, so a subtree that
    cannot be completed is searched until its pushes run out, and the
    floor pairs it is given are decided at every leaf, not on the
    template.  It reads the call's supply only for its pairs.  Install it as
    ramsey._FitFilter to run pigeonhole or canonize_one_extensions without
    the look-ahead.

    A relation must coincide with agreement of projection keys: the
    map key <-> class stays a bijection on the pairs formed so far, an
    O(1) check per pair with both directions kept as dicts.

    pairs gives the (key, class) pairs that placing w forms, as a dict by
    w, built from a level fit's supply and level: (w[:level], its color)
    for the new node w of a one-step extension.  With no supply it is
    None, and the caller hands each push its pairs as try_push's formed.
    Each is checked before the next is drawn, so a veto comes
    before any later class lookup.  Pinned pairs hold from the start.
    accept keeps a member with at least one pair and, for each
    floor pair (c1, c2) of levels, two placed nodes that agree up to c1
    but not up to c2, so no other candidate level can fit the same data.
    """

    def __init__(self, supply=None, level=0, pinned=(), floor_pairs=()):
        self.pairs = None if supply is None else {
            w: ((w[:level], c),) for w, c in supply.color_of.items()}
        self.floor_pairs = floor_pairs
        self.key_class = dict(pinned)
        self.class_key = {c: key for key, c in pinned}
        self.placed = []  # the pushed nodes that formed a pair
        self.trail = []  # per push, the keys it inserted; None if no pair
        # per number of placed nodes on the path, the signature once built:
        # with pairs by node the placed nodes fix it
        self.sigs = [None]

    def start(self, stop):
        pass

    def try_push(self, nodes, w, formed=None):
        key_class, class_key = self.key_class, self.class_key
        if formed is None:
            formed = self.pairs.get(w, ())
        # a list once a pair passes; most pushes are vetoed at their first
        inserted = None
        for key, c in formed:
            if key in key_class:
                if key_class[key] != c:
                    break
                if inserted is None:
                    inserted = []
            elif c in class_key:
                break
            else:
                key_class[key] = c
                class_key[c] = key
                if inserted is None:
                    inserted = [key]
                else:
                    inserted.append(key)
        else:
            self.trail.append(inserted)
            if inserted is not None:
                self.placed.append(w)
                self.sigs.append(None)
            return True
        if inserted:
            self._undo(inserted)
        return False

    def _undo(self, inserted):
        for key in inserted:
            del self.class_key[self.key_class.pop(key)]

    def pop(self):
        inserted = self.trail.pop()
        if inserted is not None:
            self.placed.pop()
            self.sigs.pop()
            self._undo(inserted)

    def _floor_states(self):
        """Per floor pair (c1, c2): None once two placed nodes agree up to
        c1 but not up to c2, which no push undoes; else the placed nodes'
        c2-prefixes, sorted, which fix their c1 -> c2 map."""
        for c1, c2 in self.floor_pairs:
            below = {}  # c1-prefix -> c2-prefix of the placed nodes
            for u in self.placed:
                if below.setdefault(u[:c1], u[:c2]) != u[:c2]:
                    yield None
                    break
            else:
                yield tuple(sorted(below.values()))

    def accept(self, nodes):
        fits = bool(self.placed) and all(s is None for s in self._floor_states())
        return len(nodes) if fits else len(nodes) - 1

    def signature(self):
        """What the rest of a search reads of the filter: whether a pair was
        formed, the floor pairs' states and, last and so the only part of
        varying length, the key <-> class pairs, sorted.  None when the
        pairs are handed in: they read the placed nodes, which then are the
        signature."""
        if self.pairs is None:
            return None
        if self.sigs[-1] is None:
            self.sigs[-1] = (bool(self.placed), *self._floor_states(),
                             *sorted(self.key_class.items()))
        return self.sigs[-1]


class MemoFreeFitFilter(_FitFilter):
    """ramsey's fit filter with the search core's memo off: it gives no
    signature, so every sub-search is searched in full. Install it as
    ramsey._FitFilter to run a search without the memo."""

    def signature(self):
        return None


class ExactFloorFitFilter(_FitFilter):
    """ramsey's fit filter with the running maximum in its signature, so
    the search core's memo skips a failed sub-search only from the floor
    it failed from, never from a higher one. Install it as
    ramsey._FitFilter to run a search with the exact-floor memo."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.floors = [None]  # per push kept, the running maximum after it

    def try_push(self, nodes, w):
        if not super().try_push(nodes, w):
            return False
        # w passed the slot, so its maximum is the new running maximum
        self.floors.append(max(w))
        return True

    def pop(self):
        super().pop()
        self.floors.pop()

    def signature(self):
        part = super().signature()
        return None if part is None else part + (self.floors[-1],)


class ReferenceLookAhead:
    """ramsey._LookAhead as it was before it kept one bound per depth,
    kept as the reference: its residual supports sit in a list sorted by
    index, and a push re-tests those the running maximum reaches.
    Install it as ramsey._LookAhead to run pigeonhole or
    canonize_one_extensions on it.

    Forward checking for one level-fit search (Haralick and Elliott
    1980): a push the filter takes is vetoed when some extension position
    still to come can no longer be filled.

    The positions below stop that hold a one-step extension of a come from
    the template, space._extension_positions.  A pending one, q, needs a
    node u of the supply with u[l] above the running maximum (l is q's
    level, and every later floor is at least that maximum), with q's
    forced prefix once q's anchor is placed, and whose pair the filter's
    key <-> class map would take.  So a constraint is (l, q's anchor, that
    prefix), or (l, None, None) while the anchor is unplaced, however many
    positions share it.  Along a path the maximum only rises and the maps only grow, so a
    constraint without such a node has none in the whole subtree, and on a
    valid member (a copy of the template) no witness is lost.  The check
    reads only placed nodes' prefixes of positions below stop, as the
    search core's memo key does.

    Residual supports (Lecoutre and Hemery 2007): each constraint keeps
    the node that last supported it, the one with the largest index at l
    that the maps allowed, and a list sorted by that index watches every
    support.  A support stored was found on the path or below a node of
    it, so it holds at every node of the path up to where it was found.
    A push re-tests a support only when the running maximum reaches it,
    checks the constraints of the anchor it places, and re-tests every
    pending constraint when it inserts a key or is the search's first.
    A watch entry that a push reaches while its constraint is not pending
    goes back when that push is undone.
    """

    def __init__(self, flt, stop):
        supply = flt.supply
        self.color_of, self.level = supply.color_of, flt.level
        # per level l, all nodes as (l, None) and, above level 0, those with
        # each prefix as (l, prefix), largest index at l first
        self.groups = {}
        for l in range(supply.k):
            ordered = self.groups[l, None] = sorted(self.color_of, key=itemgetter(l), reverse=True)
            for u in ordered if l else ():
                self.groups.setdefault((l, u[:l]), []).append(u)
        self.key_class, self.class_key = flt.key_class, flt.class_key
        self.first = max(supply.positions, default=-1) + 1
        # per constraint (l, anchor): the last position q it serves; per
        # level, the last q, or anchor, that leaves it at (l, None); per
        # anchor, the levels of the constraints it fixes
        self.last, self.until, self.anchored = {}, {}, {}
        for q in _extension_positions(supply.k, supply.positions, stop):
            l, a = position_info.trusted(supply.k, q)
            if l:
                self.last[l, a] = q
                self.until[l] = max(self.until.get(l, -1), a)
                self.anchored.setdefault(a, set()).add(l)
            else:
                self.until[0] = q
        self.anchors = sorted((a, l, q) for (l, a), q in self.last.items())
        self.support = {}  # (l, anchor, prefix), or (l, None, None) -> its residual support
        # (-u[l], tie, l, anchor, prefix, u) per support found, sorted, so
        # the least u[l] comes last
        self.watch = []
        self.tie = itertools.count()
        self.trail = []  # per push, the watch entries to put back

    def _takes(self, u):
        """Whether the filter's key <-> class map would take u's pair."""
        key, c = u[:self.level], self.color_of[u]
        return self.key_class.get(key, c) == c and self.class_key.get(c, key) == key

    def _find(self, l, a, prefix, m):
        """Whether a node supports (l, prefix) above m; stores the largest."""
        for u in self.groups.get((l, prefix), ()):
            if u[l] <= m:
                return False
            if self._takes(u):
                self.support[l, a, prefix] = u
                insort(self.watch, (-u[l], next(self.tie), l, a, prefix, u))
                return True
        return False

    def _holds(self, l, a, prefix, m):
        u = self.support.get((l, a, prefix))
        return u is not None and u[l] > m and self._takes(u) or self._find(l, a, prefix, m)

    def _holds_all(self, nodes, w, p, m):
        """Every constraint pending after w is placed at p has support."""
        for l, until in self.until.items():
            if p < until and not self._holds(l, None, None, m):
                return False
        for a, l, last in self.anchors:
            if a > p:
                break
            if p < last and not self._holds(l, a, (w if a == p else nodes[a])[:l], m):
                return False
        return True

    def _reached(self, nodes, w, p, m, aside):
        """Re-test the supports that the running maximum m reaches; an entry
        whose constraint is not pending after w is placed at p goes to
        aside, and so does that of a constraint left without support."""
        watch, support = self.watch, self.support
        while watch and -watch[-1][0] <= m:
            entry = watch.pop()
            _, _, l, a, prefix, u = entry
            if support[l, a, prefix] is not u:
                continue  # replaced since, and its replacement has an entry
            if prefix is None:
                pending = p < self.until[l]
            else:
                pending = a <= p < self.last[l, a] and (w if a == p else nodes[a])[:l] == prefix
            if not pending:
                aside.append(entry)
            elif not self._find(l, a, prefix, m):
                aside.append(entry)
                return False
        return True

    def push(self, nodes, w, inserted):
        p, m = len(nodes), max(w)
        aside = []
        if inserted or p == self.first:
            ok = self._holds_all(nodes, w, p, m)
        else:
            ok = self._reached(nodes, w, p, m, aside) and all(
                self._holds(l, p, w[:l], m) for l in self.anchored.get(p, ()))
        if ok:
            self.trail.append(aside)
            return True
        for entry in aside:
            insort(self.watch, entry)
        return False

    def pop(self):
        for entry in self.trail.pop():
            insort(self.watch, entry)


class ReferenceVectorFits:
    """ramsey._VectorFits as it was before it read completions off the
    approximations of X, kept as the reference: it asks the slots again
    at every push, building c + (w,) for every stored approximation a
    push extends, a _Slot and a table-group lookup for each approximation
    it grows, and looks each completed approximation's row up in a dict.
    Install it as ramsey._VectorFits to run canonize_relation on it.
    It reads k and n off a key of class_of, which is never empty there:
    with no n-approximation of X every vector is refuted before the
    search.

    Every vector's fit in one search: a _FitFilter per vector, all fed
    the n-approximations a push completes, found once with their classes.

    tables[j] (j < n) groups the j-approximations of the placed nodes, with
    the slot of their next node, by its forced prefix (of length levels[j]),
    so a push reads one group per table and the slot still decides.
    rows holds, for one call, the row of each n-approximation completed so
    far: its (key, class) pair under every vector, projected once, so it
    grows with the distinct approximations completed, not with the states.
    Vector i's pairs are item i of the rows a push completes.  A push that
    completes none forms no pair for any vector, so no filter is pushed.
    live[m] lists the unresolved filters that took the first m placed
    nodes.  A vector is resolved at its first leaf; accept then backtracks
    to the deepest level still live.  So each vector gets its solo
    witness, and the states are the union of the solo searches' states.
    """

    def __init__(self, class_of, vectors):
        b = next(iter(class_of))
        k, n = len(b[0]), len(b)
        self.k = k
        self.class_of = class_of
        self.slices = [[slice(l) for l in v] for v in vectors]
        self.levels = [position_info(k, j)[0] for j in range(n)]
        self.tables = [{(): [((), _Slot(k, (), -1))]}] + [{} for _ in range(1, n)]
        self.trail, self.rows = [], {}
        self.filters = [_FitFilter() for _ in vectors]
        self.item = {f: itemgetter(i) for i, f in enumerate(self.filters)}
        self.live = [self.filters]
        self.found = {}  # filter -> its witness nodes

    def _row(self, b):
        """b's (key, class) pair under every vector, kept for the call."""
        c = self.class_of[b]
        row = self.rows[b] = tuple((tuple(map(getitem, b, s)), c) for s in self.slices)
        return row

    def _extended(self, j, w):
        group = self.tables[j].get(w[:self.levels[j]], ())
        return [c + (w,) for c, slot in group if slot.admits(w)]

    def try_push(self, nodes, w):
        live = self.live[-1]
        completed = self._extended(-1, w)
        if completed:
            rows = self.rows
            formed = [rows[b] if b in rows else self._row(b) for b in completed]
            live = [f for f in live if f.try_push(nodes, w, map(self.item[f], formed))]
        if not live:
            return False
        self.live.append(live)
        grown = [(b, _Slot(self.k, b, max(w)))
                 for j in range(len(self.tables) - 1) for b in self._extended(j, w)]
        groups = [self.tables[len(b)].setdefault(slot.prefix, []) for b, slot in grown]
        for group, entry in zip(groups, grown):
            group.append(entry)
        self.trail.append((bool(completed), groups))
        return True

    def pop(self):
        pushed, groups = self.trail.pop()
        live = self.live.pop()
        if pushed:
            for f in live:
                f.pop()
        for group in groups:
            group.pop()

    def start(self, stop):
        pass

    def signature(self):
        # a vector's future pairs read every placed node
        return None

    def accept(self, nodes):
        for f in self.live[-1]:
            if f.accept(nodes) == len(nodes):
                self.found[f] = tuple(nodes)
                self.live = [[g for g in level if g is not f] for level in self.live]
        # live lists only shrink with depth, so the nonempty ones lead
        return sum(map(bool, self.live[:-1])) - 1


def reference_pigeonhole(a, X, coloring, target_len, budget=None):
    """pigeonhole before it refuted colors on the template, kept as the
    reference: every color is searched, in ascending order, also one with
    fewer one-step extensions in X than a witness holds, and a target
    longer than X is searched until the supply runs out. Reads ramsey's
    filter, look-ahead and search core at call time, so one installed
    there is used here too."""
    base, color_of, at = ramsey._colored_extensions(a, X, coloring, target_len)
    supply = ramsey._Extensions(X.k, at, color_of, target_len)
    budget = budget or Budget()
    pool = _Pool(X.nodes)
    try:
        if not color_of:
            got = ramsey._search_member(X.k, base, pool, target_len, budget, ramsey._NoFilter())
            if got is None:
                return Exhausted("supply", "no completion from the depth prefix")
            return Member(X.k, got), None
        for color in sorted(set(color_of.values())):
            flt = ramsey._FitFilter(supply, 0, [((), color)])
            got = ramsey._search_member(X.k, base, pool, target_len, budget, flt)
            if got is not None:
                Y = Member(X.k, got)
                seen = {coloring.of(b) for b in one_extensions(a, Y)}
                if seen != {color}:
                    raise AssertionError("homogeneity certificate failed")
                return Y, color
    except ramsey._Blown:
        return ramsey._out_of_budget(budget)
    return Exhausted("supply", "no color admits a homogeneous sub-member")


def reference_canonize_one_extensions(s, X, coloring, target_len, budget=None):
    """canonize_one_extensions before the template refuted levels or the
    look-ahead, kept as the reference: every candidate level is searched,
    in ascending order, until its search finds a witness or runs out, and
    no floor pair is decided before the first state: ReferenceFitFilter
    decides them at every leaf. Reads ramsey's search core at call
    time."""
    base, color_of, at = ramsey._colored_extensions(s, X, coloring, target_len)
    supply = ramsey._Extensions(X.k, at, color_of, target_len)
    budget = budget or Budget()
    candidates = ramsey._candidate_levels(X.k, len(s.nodes))
    floor_pairs = list(zip(candidates, candidates[1:]))
    pool = _Pool(X.nodes)
    fits = []
    blown = False
    for level in candidates:
        flt = ReferenceFitFilter(supply, level, floor_pairs=floor_pairs)
        try:
            got = ramsey._search_member(X.k, base, pool, target_len, budget, flt)
        except ramsey._Blown:
            blown = True
            break
        if got is not None:
            fits.append((level, Member(X.k, got)))
    if len(fits) > 1:
        return AmbiguousAtScale(candidates=tuple(level for level, _ in fits))
    if blown:
        return ramsey._out_of_budget(budget)
    if fits:
        level, Y = fits[0]
        return Y, CanonicalRelation(level)
    return Exhausted("supply", "no projection level fits a sub-member")


def reference_approximations(X, n):
    """ramsey._approximations before it read _walk, kept as the reference:
    the n-approximations of X depth first, which is one-step-extension
    layer order, each layer below an approximation built by
    one_extensions, a scan of all of X, when the one before it has been
    taken."""
    stack = [iter((Approx(X.k),))]
    while stack:
        a = next(stack[-1], None)
        if a is None:
            stack.pop()
        elif len(a.nodes) < n:
            stack.append(iter(one_extensions(a, X)))
        else:
            yield a


def reference_canonize_relation(relation, k, n, X, target_len, budget=None):
    """canonize_relation before the template refuted vectors, kept as the
    reference: after the same argument checks and the same up-front
    lookup of every n-approximation of X (reference_approximations),
    every admissible vector is searched in the one joint search."""
    ramsey._check_length(n, "approximation length")
    if X.k != k:
        raise ValueError("member dimension does not match k")
    if n < 1:
        raise ValueError("approximation length must be at least 1")
    ramsey._check_length(target_len, "target length")
    if target_len < n:
        raise ValueError("target length cannot be below the approximation length")
    classes = {a.nodes: relation.class_id(a) for a in reference_approximations(X, n)}
    budget = budget or Budget()
    vectors = ramsey.admissible_vectors(k, n)
    flt = ramsey._VectorFits(classes, vectors)
    try:
        ramsey._search_member(k, (), _Pool(X.nodes), target_len, budget, flt)
    except ramsey._Blown:
        return ramsey._out_of_budget(budget)
    fits = [(v, Member(k, flt.found[f])) for v, f in zip(vectors, flt.filters)
            if f in flt.found]
    if fits:
        vector, member = fits[0]
        return RelationCanonization(vector, member, tuple(fits))
    return NotCanonicalAtScale(vectors_checked=len(vectors))
