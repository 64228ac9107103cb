"""Shared test utilities: independent oracles and random data builders.

The oracles here deliberately avoid the fast paths in the package. They
re-derive extension sets by full revalidation so the structural shortcut
rules have something definition-shaped to answer to.
"""

import argparse
import contextlib
import sys
from math import comb

from ellentuck.cli import _COMMANDS
from ellentuck.ramsey import _FitFilter
from ellentuck.space import Approx, Member, one_extensions, validate_approx
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
