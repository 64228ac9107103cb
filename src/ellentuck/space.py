"""Prototype trees, finite approximations, and their validation.

A member is a function from full-length index sequences to tree nodes;
a node is the increasing tuple of ranks of the prefixes of a sequence.
Only finite truncations are held: a truncation keeps the first n values
in position order, so a truncated member is an Approx like any other, and
Member is another name for Approx.
Validation checks the three tree conditions: nodes decode (i), branch
maxima grow along the order of the represented prefixes (ii), and node
prefixes coincide exactly when the underlying index prefixes do (iii).

Which nodes may come next is one rule, held by the private _Slot: the
n-th node has length k, repeats the prefix forced at position n, and its
next index exceeds every index used so far. admits, one_extensions, the
searches in ramsey and the constructions all ask a _Slot, and thinning
asks a's slot which later positions hold one-step extensions of a. The
private _Pool indexes a supply by forced prefix for searches that draw
from it at every step; it only narrows what a slot is shown and never
decides.
Public Approx construction checks every entry; the private _extend,
which one_extensions uses, appends a node of an already-built member
without re-checking.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from itertools import islice

from .errors import (
    LevelOutOfRangeError,
    MalformedNodeError,
    TruncationExhaustedError,
)
from .wellorder import (
    _CACHE_SIZE,
    classify_n,
    domain_at,
    domain_rank,
    order_key,
    rank_of,
    seq_at_rank,
    seq_str,
)

Node = tuple[int, ...]

# A built member holds every node of its truncation, so fewer of them
# are memoized than of the small entries bounded by _CACHE_SIZE.
_MEMBER_CACHE_SIZE = 32


def _as_node(node) -> Node:
    out = tuple(node)
    for v in out:
        if not isinstance(v, int) or isinstance(v, bool) or v < 0:
            raise MalformedNodeError(node, "indices must be nonnegative integers")
    return out


def _as_nodes(nodes):
    return tuple(_as_node(w) for w in nodes)


@dataclass(frozen=True)
class Approx:
    """A finite approximation: the first len(nodes) values of a member."""

    k: int
    nodes: tuple[Node, ...] = ()

    def __post_init__(self):
        if not isinstance(self.k, int) or self.k < 2:
            raise ValueError(f"k must be an integer >= 2, got {self.k!r}")
        object.__setattr__(self, "nodes", _as_nodes(self.nodes))

    def __len__(self):
        return len(self.nodes)

    def max_index(self) -> int:
        """Largest index appearing in any node, -1 when empty."""
        return max((max(w) for w in self.nodes if w), default=-1)


# The name of the role: a truncated member is an Approx.
Member = Approx


def _extend(a: Approx, w: Node) -> Approx:
    """a with w appended, skipping the entry checks of Approx.

    Trusted: w must be a node of an already-built member, whose entries
    were checked when it was built.
    """
    b = object.__new__(Approx)
    object.__setattr__(b, "k", a.k)
    object.__setattr__(b, "nodes", a.nodes + (w,))
    return b


@lru_cache(maxsize=_CACHE_SIZE)
def decode_node(node: Node, k: int):
    """The index sequence a node represents; raises MalformedNodeError."""
    if not node:
        raise MalformedNodeError(node, "empty node")
    if len(node) > k:
        raise MalformedNodeError(node, f"longer than k={k}")
    prev = None
    for q, r in enumerate(node):
        if not isinstance(r, int) or isinstance(r, bool) or r < 0:
            raise MalformedNodeError(node, "indices must be nonnegative integers")
        s = seq_at_rank(r, k)
        if len(s) != q + 1:
            raise MalformedNodeError(
                node, f"index {r} decodes to length {len(s)}, expected {q + 1}"
            )
        if prev is not None and s[: q] != prev:
            raise MalformedNodeError(node, f"prefix chain breaks at index {r}")
        prev = s
    return prev


def _full_seq(node: Node, k: int):
    """The sequence a full-length node represents; raises
    MalformedNodeError when node is not of length k or fails to decode."""
    if len(node) != k:
        raise MalformedNodeError(node, f"expected length {k}")
    return decode_node(node, k)


def wk_node(seq, k=None) -> Node:
    """The prototype node over an index sequence: ranks of its prefixes."""
    s = tuple(seq)
    if k is None:
        k = len(s)
    if len(s) > k:
        raise ValueError(f"sequence longer than k={k}: {seq!r}")
    return tuple(rank_of(s[:p], k) for p in range(1, len(s) + 1))


def _check_length(n, what="length"):
    """Raise ValueError unless n is a nonnegative int (a bool is not)."""
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise ValueError(f"{what} must be a nonnegative integer, got {n!r}")


@lru_cache(maxsize=_MEMBER_CACHE_SIZE)
def build_w(k: int, n: int) -> Member:
    """The first n nodes of the prototype member for dimension k."""
    _check_length(n)
    return Member(k, tuple(wk_node(domain_at(p, k), k) for p in range(n)))


def project(node, level) -> Node:
    """Initial segment of a node; level 0 projects to the empty tuple."""
    w = tuple(node)
    if not isinstance(level, int) or isinstance(level, bool) or not 0 <= level <= len(w):
        raise LevelOutOfRangeError(f"level {level!r} not in 0..{len(w)}")
    return w[:level]


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    condition: str | None = None
    location: tuple | None = None
    message: str = "valid"

    def __bool__(self) -> bool:
        return self.ok


def validate_approx(x) -> ValidationReport:
    """Check the tree conditions; reports the first violation in order.

    Nodes that fail to decode raise MalformedNodeError. Structural
    violations come back as a report naming the condition ("ii" or
    "iii") and the index prefix where it shows.
    """
    k = x.k
    for node in x.nodes:
        _full_seq(node, k)

    tree: dict[tuple, Node] = {}
    owner: dict[Node, tuple] = {}
    violations = []  # (location, condition)
    for p, node in enumerate(x.nodes):
        dom = domain_at(p, k)
        for l in range(1, k + 1):
            dkey, val = dom[:l], node[:l]
            seen = tree.get(dkey)
            if seen is None:
                tree[dkey] = val
            elif seen != val:
                violations.append((dkey, "iii"))
            own = owner.get(val)
            if own is None:
                owner[val] = dkey
            elif own != dkey:
                violations.append((max(own, dkey, key=order_key), "iii"))

    # the represented prefixes always form an initial segment of the
    # order, so comparing consecutive entries checks condition (ii)
    ordered = sorted(tree.items(), key=lambda kv: order_key(kv[0]))
    for (_, v1), (dkey, v2) in zip(ordered, ordered[1:]):
        if max(v1) >= max(v2):
            violations.append((dkey, "ii"))

    if violations:
        loc, cond = min(violations, key=lambda t: (order_key(t[0]), t[1]))
        return ValidationReport(
            False, cond, loc, f"condition ({cond}) at {seq_str(loc)}"
        )
    return ValidationReport(True)


def _require_valid(a, what="approximation"):
    report = validate_approx(a)
    if not report.ok:
        raise ValueError(f"{what} does not validate: {report.message}")


def r_approx(x, n: int) -> Approx:
    """The first n nodes as an approximation."""
    _check_length(n)
    if n > len(x.nodes):
        raise TruncationExhaustedError(
            f"asked for {n} nodes, truncation holds {len(x.nodes)}"
        )
    return Approx(x.k, x.nodes[:n])


def le_fin(a, b) -> bool:
    """Range inclusion between approximations of the same dimension."""
    if a.k != b.k:
        raise ValueError("approximations live in different dimensions")
    return set(a.nodes) <= set(b.nodes)


def depth_of(X: Member, a) -> int:
    """Least n with ran(a) inside the first n nodes of X; raises
    TruncationExhaustedError when a is not inside the truncation."""
    if a.k != X.k:
        raise ValueError("dimension mismatch")
    if not a.nodes:
        return 0
    pos = {w: i for i, w in enumerate(X.nodes)}
    try:
        return 1 + max(pos[w] for w in a.nodes)
    except KeyError:
        raise TruncationExhaustedError("approximation not inside the truncation") from None


@lru_cache(maxsize=_CACHE_SIZE)
def position_info(k: int, n: int):
    """(level, anchor) for step n: the forced prefix length and the
    earliest earlier position sharing it (None at level 0)."""
    l = classify_n(k, n)
    if l == 0:
        return 0, None
    # Every full-length sequence extending head ends at head[-1] or above,
    # and padding with head[-1] is the one that ends there, so it comes
    # first; it precedes n, whose last entry exceeds every entry of head.
    head = domain_at(n, k)[:l]
    return l, domain_rank(head + head[-1:] * (k - l), k)


class _Slot:
    """Where the node after `nodes` may go: the forced level, the forced
    prefix (empty at a fresh-branch step) and the floor, the largest
    index of `nodes`, which the callers keep as a running maximum.

    All or none: a slot whose floor is at or above the floor of
    _Slot.of(a) admits either only nodes that a's slot admits too, or
    none of them. Every node it admits has its prefix and then an index
    above a's floor, which no index of a's nodes is, so a's slot
    decides alike for all of them, from a valid member or not."""

    __slots__ = ("k", "level", "prefix", "floor")

    def __init__(self, k: int, nodes, floor: int):
        level, anchor = position_info(k, len(nodes))
        self.k = k
        self.level = level
        self.prefix = nodes[anchor][:level] if level else ()
        self.floor = floor

    @classmethod
    def of(cls, a: Approx) -> "_Slot":
        return cls(a.k, a.nodes, a.max_index())

    def admits(self, w: Node) -> bool:
        """Whether w may fill the slot. The one statement of the rule."""
        # In a scan of a whole supply most nodes fail on the prefix, so
        # it goes first; the length test then guards w[l].
        l = self.level
        return w[:l] == self.prefix and len(w) == self.k and w[l] > self.floor

    def candidates(self, pool):
        """The admitted nodes of pool, lazily and in pool order."""
        return filter(self.admits, pool)


class _Pool:
    """A supply grouped by each proper prefix of its nodes, every group in
    supply order, so a search need not rescan the whole supply per slot.

    With each group goes the running maximum of the index after the
    prefix; near(slot) starts the slot's group at the first node whose
    running maximum exceeds the floor. No node it skips can be admitted,
    and it keeps the order, so the slot still decides over what is left.
    A running maximum, not a sort: a Member is not checked for order.
    """

    __slots__ = ("groups",)

    def __init__(self, supply):
        groups: dict[Node, tuple[list, list]] = {}
        for w in supply:
            for l in range(len(w)):
                group = groups.get(w[:l])
                if group is None:
                    groups[w[:l]] = ([w], [w[l]])
                else:
                    group[0].append(w)
                    group[1].append(max(group[1][-1], w[l]))
        self.groups = groups

    def __len__(self):
        """The number of nodes pooled: the empty prefix's group holds all."""
        root = self.groups.get(())
        return len(root[0]) if root else 0

    def near(self, slot: _Slot):
        """The nodes of the slot's prefix group past those at or below
        its floor."""
        group = self.groups.get(slot.prefix)
        if group is None:
            return ()
        nodes, peaks = group
        return islice(nodes, bisect_right(peaks, slot.floor), None)


def admits(a: Approx, w: Node) -> bool:
    """Whether appending w to a yields a valid one-step extension."""
    return _Slot.of(a).admits(w)


def one_extensions(a: Approx, X) -> list[Approx]:
    """All one-step extensions of a drawing their new node from X,
    ascending by the new node's maximum."""
    if a.k != X.k:
        raise ValueError("dimension mismatch")
    picked = sorted(_Slot.of(a).candidates(X.nodes), key=max)
    return [_extend(a, w) for w in picked]


def basic_set_contains(a: Approx, B, X) -> bool:
    """Whether X starts with a and stays inside B's node range."""
    if a.k != B.k or a.k != X.k:
        raise ValueError("dimension mismatch")
    n = len(a.nodes)
    if len(X.nodes) < n or X.nodes[:n] != a.nodes:
        return False
    return set(X.nodes) <= set(B.nodes)
