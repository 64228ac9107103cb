"""Constructive algorithms over truncated members.

Greedy construction inside a basic set, fusion of two members across a
depth boundary, dense embedding against a node oracle, and subcopy
isomorphism checks with the thinning construction built on top of them.
All searches here are greedy and deterministic; shortfalls of the
truncated data come back as Exhausted values, never exceptions.
"""

from __future__ import annotations

from .errors import Exhausted, LevelOutOfRangeError, MalformedNodeError, NotIsomorphic
from .space import (
    Approx,
    Member,
    _as_node,
    _check_length,
    _full_seq,
    _require_valid,
    _Slot,
    depth_of,
    one_extensions,
    position_info,
)
from .wellorder import domain_at


class NodeOracle:
    """Deterministic availability filter over full-length nodes.

    Backed by an explicit node collection. Candidates are deduplicated
    and kept in ascending order of their maximum index, which for
    decodable nodes is the order of the sequences they stand for.
    """

    def __init__(self, nodes):
        kept = dict.fromkeys(_as_node(w) for w in nodes)
        if () in kept:  # it has no maximum to sort by
            raise MalformedNodeError((), "empty node")
        self._candidates = tuple(sorted(kept, key=lambda w: (max(w), w)))
        self._members = frozenset(kept)

    @classmethod
    def from_member(cls, x) -> "NodeOracle":
        return cls(nodes=x.nodes)

    def available(self, w) -> bool:
        return tuple(w) in self._members

    def candidates(self) -> tuple:
        return self._candidates


def _greedy(k: int, nodes: list, target_len: int, pool_of):
    """Fill nodes up to target_len, each step appending the first node of
    pool_of(nodes, slot) that the step's slot admits.

    Returns None when nodes is full, or else the pool that had no fitting
    node, with nodes left as far as it got.
    """
    floor = max((max(w) for w in nodes), default=-1)
    while len(nodes) < target_len:
        slot = _Slot(k, nodes, floor)
        pool = pool_of(nodes, slot)
        picked = next(slot.candidates(pool), None)
        if picked is None:
            return pool
        nodes.append(picked)
        # picked passed the slot, so its maximum is the new running maximum
        floor = max(picked)
    return None


def construct_in_basic_set(a, A, target_len: int):
    """Extend a to target_len nodes drawing from A, greedily.

    Every step appends the least admissible node of A (least by its
    maximum index, which orders A's nodes the same way their sequences
    are ordered). Returns the extended approximation, or Exhausted when
    A's truncation runs out of admissible nodes.
    """
    if a.k != A.k:
        raise ValueError("dimension mismatch")
    _check_length(target_len, "target length")
    if target_len < len(a.nodes):
        raise ValueError("target length is shorter than the input")
    depth_of(A, a)  # raises unless a sits inside A's truncation
    _require_valid(a)
    pool = sorted(A.nodes, key=max)
    nodes = list(a.nodes)
    if _greedy(a.k, nodes, target_len, lambda nodes, slot: pool) is not None:
        return Exhausted("supply", f"no admissible node at step {len(nodes)}")
    return Approx(a.k, tuple(nodes))


def fuse(a, A, B, target_len: int):
    """Build a member that restricts to B's depth prefix but funnels
    every extension of a through A.

    A must sit inside B and a must draw its nodes from A. The result
    keeps the first depth(B, a) nodes of B verbatim; beyond the depth,
    fresh branches and branches descending through a come from A, and
    branches that exist only to preserve the prefix shape are continued
    from B. The payoff, checkable by enumeration: any chain of
    extensions of a inside the result only ever uses A's nodes.
    """
    if not (a.k == A.k == B.k):
        raise ValueError("dimension mismatch")
    _check_length(target_len, "target length")
    if not set(A.nodes) <= set(B.nodes):
        raise ValueError("the inner member must sit inside the ambient one")
    if not set(a.nodes) <= set(A.nodes):
        raise ValueError("the approximation must draw its nodes from the inner member")
    _require_valid(a)
    k = a.k
    d = depth_of(B, a)
    if target_len < d:
        raise ValueError(f"target length {target_len} is shorter than the depth {d}")

    a_prefixes = {w[:l] for w in a.nodes for l in range(1, k + 1)}
    inner_prefixes = {w[:l] for w in A.nodes for l in range(1, k + 1)}
    inner_pool = sorted(set(A.nodes), key=max)
    ambient_pool = sorted(set(B.nodes), key=max)

    def pool_of(nodes, slot):
        if slot.level == 0:
            use_inner = True
        elif position_info(k, len(nodes))[1] < d:
            use_inner = slot.prefix in a_prefixes
        else:
            use_inner = slot.prefix in inner_prefixes
        return inner_pool if use_inner else ambient_pool

    nodes = list(B.nodes[:d])
    pool = _greedy(k, nodes, target_len, pool_of)
    if pool is not None:
        side = "inner" if pool is inner_pool else "ambient"
        return Exhausted("supply", f"step {len(nodes)}: the {side} member has no fitting node")
    return Member(k, tuple(nodes))


def dense_embed(k: int, oracle: NodeOracle, target_len: int):
    """Greedy valid approximation using only oracle-available nodes.

    Candidates that fail to decode raise MalformedNodeError up front;
    a step with no admissible available node returns Exhausted.
    """
    if not isinstance(k, int) or k < 2:
        raise ValueError(f"k must be an integer >= 2, got {k!r}")
    _check_length(target_len, "target length")
    candidates = tuple(oracle.candidates())
    for w in candidates:
        _full_seq(w, k)

    nodes: list = []
    if _greedy(k, nodes, target_len, lambda nodes, slot: candidates) is not None:
        return Exhausted("supply", f"oracle denies every candidate at step {len(nodes)}")
    return Approx(k, tuple(nodes))


def subcopy_check(U, k: int, level: int):
    """Test whether U, read above `level`, looks like an initial piece
    of the (k-level)-dimensional node tree.

    U is a collection of full-length decodable nodes. They are sorted
    by the order of their sequences and compared position by position
    against the first len(U) full-length sequences of dimension
    k-level: two nodes must agree on a prefix exactly when their
    targets do. On success returns the mapping from each node to its
    target sequence; on failure returns NotIsomorphic. At level >= 1
    the check forces all of U into a single level-`level` block.
    """
    if not isinstance(k, int) or k < 2:
        raise ValueError(f"k must be an integer >= 2, got {k!r}")
    if not isinstance(level, int) or isinstance(level, bool) or not 0 <= level < k:
        raise LevelOutOfRangeError(f"level {level!r} not in 0..{k - 1}")
    # each node checked in full, in input order
    seq_of = {w: _full_seq(w, k) for w in map(_as_node, U)}
    if not seq_of:
        raise ValueError("need at least one node to compare")
    nodes = sorted(seq_of, key=max)
    seqs = [seq_of[w] for w in nodes]
    dim = k - level
    targets = [domain_at(m, dim) for m in range(len(nodes))]
    for m2 in range(len(nodes)):
        for m1 in range(m2):
            for q in range(dim + 1):
                here = seqs[m1][: level + q] == seqs[m2][: level + q]
                there = targets[m1][:q] == targets[m2][:q]
                if here != there:
                    return NotIsomorphic(
                        f"prefix agreement at depth {level + q} differs between "
                        f"positions {m1} and {m2}"
                    )
    return {nodes[m]: targets[m] for m in range(len(nodes))}


def _new_nodes_of(a, V):
    """Validate V as one-step extensions of a; return their new nodes."""
    n = len(a.nodes)
    out = []
    for v in V:
        if not isinstance(v, Approx):
            v = Approx(a.k, v)
        if v.k != a.k or len(v.nodes) != n + 1 or v.nodes[:n] != a.nodes:
            raise ValueError("every entry of V must be a one-step extension of a")
        _require_valid(v, "extension in V")
        out.append(v.nodes[-1])
    return list(dict.fromkeys(out))


def thin_to_subcopy(a, X, V, target_len: int):
    """Thin X to a member Y extending a whose one-step extensions of a
    all land in V.

    V lists admitted one-step extensions of a. When the step after a
    continues an existing branch, V's new nodes must form a subcopy at
    that branch level and Y's whole branch is drawn from them. When the
    step opens fresh branches, V's new nodes are grouped into blocks by
    their first index; blocks that fail the level-1 subcopy check are
    unusable, and every fresh branch of Y is built inside a single
    usable block. Each step asks a's slot whether the first node X
    offers it is a one-step extension of a: if so the step draws from
    V's usable new nodes, and otherwise greedily from X. The certificate
    is enforced before returning: enumerating the one-step extensions of
    a inside Y yields a subset of V.
    """
    if a.k != X.k:
        raise ValueError("dimension mismatch")
    _check_length(target_len, "target length")
    if target_len < len(a.nodes):
        raise ValueError("target length is shorter than the input")
    _require_valid(a)
    k = a.k
    wanted = _new_nodes_of(a, V)
    in_x = set(X.nodes)
    x_pool = sorted(in_x, key=max)
    usable = sorted((w for w in wanted if w in in_x), key=max)
    a_slot = _Slot.of(a)

    if a_slot.level >= 1:
        if usable:
            verdict = subcopy_check(usable, k, a_slot.level)
            if isinstance(verdict, NotIsomorphic):
                raise ValueError("V's new nodes are not a subcopy above level "
                                 f"{a_slot.level}: {verdict.reason}")
        ext_pool = usable
    else:
        blocks: dict = {}
        for w in usable:
            blocks.setdefault(w[0], []).append(w)
        # one list serves every block: a slot inside a fresh branch
        # forces the branch's first index, so it only admits its own block
        good = [blk for blk in blocks.values()
                if not isinstance(subcopy_check(blk, k, 1), NotIsomorphic)]
        ext_pool = sorted((w for blk in good for w in blk), key=max)

    def pool_of(nodes, slot):
        # the slot's floor is at or above a's, so it admits one-step
        # extensions of a only or none at all: its first node tells which
        first = next(slot.candidates(x_pool), None)
        return ext_pool if first is not None and a_slot.admits(first) else x_pool

    nodes = list(a.nodes)
    if _greedy(k, nodes, target_len, pool_of) is not None:
        return Exhausted("supply", f"step {len(nodes)}: no fitting node")
    result = Member(k, tuple(nodes))
    allowed = set(wanted)
    for b in one_extensions(a, result):
        if b.nodes[-1] not in allowed:
            raise AssertionError("thinning certificate failed; this is a bug")
    return result

