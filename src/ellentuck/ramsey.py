"""Partition calculus on finite truncations.

All searches in this module run over sub-members of a fixed truncated
member X, so every result is a statement about the finite data actually
supplied.  Searches are complete depth-first enumerations in the
well-order (least fresh node first) with a budget on visited states;
when the budget runs out the outcome is an Exhausted value rather than
a wrong answer.  A search given no budget gets Budget(), 10**6 states;
an outcome follows from the arguments of its call alone.

Which node may fill the next position is decided by space._Slot and
nowhere else here.  The search core and _walk, the one walk of X's tree
of approximations, draw each position's candidates from a space._Pool,
the supply indexed by forced prefix, which only narrows what the slot
is shown.  A canonical relation is agreement of coordinatewise
projections, which on finite data is one check: the map from projection
key to class stays a bijection.  _FitFilter alone holds that map.  A
level fit reads a pair as a vector does, a projection key with the class
looked up: (w[:level], its color) for the new node w of a one-step
extension, off the call's _Extensions; _VectorFits hands each push the
pairs of the approximations it completes.  pigeonhole is level 0 with
the color pinned, since a coloring is constant on the one-step
extensions exactly when "same color" is E_0.  irreducible_agreement is
the relation search with the empty vector, which keys every family
member (), and agreement pinned, so a disagreeing member vetoes the push.
A witness of t nodes copies the depth prefix of a in X and places every
later node by the slot rule, so once that prefix validates it has the
shape of the template space.build_w(k, t) on any member: which positions
hold a's one-step extensions or its n-approximations, and which of those
agree up to which level, are the template's.  The level fits validate
the depth prefix before the first state (_colored_extensions), and
canonize_relation's is empty, so the template arguments below are exact
on every member a search accepts.  X's later nodes are taken as given,
and no slot sees a broken prefix chain among them, so every search
validates its witness before it returns it (_witness): ValueError.
The level fits, pigeonhole's included, and the relation search look
ahead (forward checking).  After every push a fit takes, each position
of the template still to come that holds a one-step extension of a
(_LookAhead), or at which template n-approximations close whose other
positions are all placed (_VectorLookAhead), needs a node of X that can
fill it: above the running maximum at its level, with its forced
prefix, and with pairs the key <-> class map takes, for a vector all
the closing approximations' pairs at once.  A position is tested once
its anchor is placed, since until then the anchor is such a position
at a lower level, and a node's indices rise along it.  After a push
that inserts a key into a vector's map, a position with closings still
partly placed is tested too, anchor placed or not: each such closing
needs a completion in X, its unplaced nodes above the running maximum
at their levels and with the prefixes known so far, whose pair the map
takes with those of the ready closings.  When one has none the push is
vetoed, or the vector dropped below it, since no push below it can give
it one.  That loses no witness, so the outcome is that of the search
without it, in fewer states.
canonize_relation first looks up the class of every n-approximation of
X (_walk), so a relation that misses one raises before the first state.
pigeonhole and both canonizers then drop, before the first state, every
color, level or vector that no witness can carry.  A level (a color is
level 0) partitions the positions of a's one-step extensions in a
witness, and a vector those of its n-approximations, as on the
template.  A fit maps the blocks one-to-one into classes, and a
witness's class is part of X's, so a candidate whose block sizes, each
list sorted, exceed the class sizes rank by rank, or outnumber them,
has no witness (Hall's condition, _refuted).  A level fits only where,
for every two consecutive candidate levels, two extensions agree up to
the lower but not up to the higher, or the data cannot tell those
levels apart.  That is the floor rule, and the template alone decides
it: when the template has no such pair for some two consecutive
candidates, no level is searched, and no leaf checks it again.  A
level-fit call scans the template for a's extension positions once
(_Extensions).  A target longer than X has no sub-member and builds no
template.  Then canonize_relation runs one search for every surviving
vector: a state is one placement tried, however many vectors it serves,
what a push completes is read once for all of them (_VectorFits), and
the look-ahead scans a position's candidates once for every vector.
Coloring, Relation and InnerMap are one extensional table, _Table.

A failed sub-search is never searched twice, nor from a higher running
maximum (nogood recording, after Dechter 1990).  What a search finds
below a position is fixed by the position, the running maximum, the
prefixes that later slots are forced to by placed nodes, and the
filter's signature.  A higher running maximum, the slot's floor, admits
some of the same candidates in the same order and leaves the rest of
the search as it was, so a failure rules out every higher floor too.
The search core keeps, for one call, the signature of each position
whose candidates ran out with the least floor it failed from, and skips
a position whose signature is kept at or below its floor without
spending a state.  Only a level fit's filter gives a signature, so
pigeonhole and the level fits are memoized, while the agreement and
relation searches, whose pairs read the placed nodes, keep no memo.
The level fits' look-ahead reads no more than the memo key holds: the
floor, the map, and the prefixes of positions the budget can fill.
"""

import itertools
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass
from functools import partial
from math import inf
from operator import getitem, itemgetter

from .errors import (
    AmbiguousAtScale,
    DisagreeWitness,
    Exhausted,
    MalformedNodeError,
    NotCanonicalAtScale,
)
from .space import (
    Approx,
    Member,
    _Pool,
    _approximation_positions,
    _check_dim,
    _check_length,
    _extend,
    _extension_positions,
    _first_positions,
    _require_valid,
    _Slot,
    build_w,
    depth_of,
    one_extensions,
    position_info,
    r_approx,
)
from .wellorder import classify_n, domain_at, seq_str

DEFAULT_BUDGET = 10 ** 6
_BAD_BUDGET = "budget limit must be a positive integer, got %r"


class Budget:
    """Counter of visited search states shared across one operation."""

    def __init__(self, limit=DEFAULT_BUDGET):
        if not isinstance(limit, int) or isinstance(limit, bool) or limit <= 0:
            raise ValueError(_BAD_BUDGET % (limit,))
        self.limit = limit
        self.used = 0

    def spend(self):
        """Consume one state; False once the limit has been passed."""
        self.used += 1
        return self.used <= self.limit


class _Blown(Exception):
    """Internal signal that the search budget ran out."""


class _Table:
    """Finite map keyed by approximations.

    The table is extensional: only approximations listed in it have a
    value, and looking up anything else is an error.  This keeps every
    claim about the map checkable by enumeration.  Subclasses name what
    they hold (_what) and how a value is checked and stored (_value).
    """

    def __init__(self, table):
        self._table = {}
        for a, v in dict(table).items():
            if not isinstance(a, Approx):
                raise TypeError("%s keys must be approximations" % self._what)
            self._table[a] = self._value(v)

    def _lookup(self, a):
        try:
            return self._table[a]
        except KeyError:
            raise ValueError(
                "%s is not defined on %s" % (self._what, tuple(a.nodes))
            ) from None

    def items(self):
        return self._table.items()

    def domain(self):
        return tuple(self._table)

    def __len__(self):
        return len(self._table)


def _check_int(v, what):
    """v, when it is an int (a bool is not); else ValueError."""
    if not isinstance(v, int) or isinstance(v, bool):
        raise ValueError("%s must be an integer, got %r" % (what, v))
    return v


class Coloring(_Table):
    """Finite map from approximations to integer colors."""

    _what = "coloring"
    of = _Table._lookup
    _value = staticmethod(partial(_check_int, what="color"))

    @classmethod
    def from_function(cls, fn, domain):
        return cls({a: fn(a) for a in domain})


class Relation(_Table):
    """Equivalence relation on a finite set of approximations.

    Stored as a class id per approximation, so `related` is a lookup
    and the relation is an equivalence by construction.
    """

    _what = "relation"
    class_id = _Table._lookup
    _value = staticmethod(partial(_check_int, what="class id"))

    @classmethod
    def from_classes(cls, classes):
        class_of = {}
        for i, group in enumerate(classes):
            for a in group:
                if a in class_of and class_of[a] != i:
                    raise ValueError("classes are not disjoint")
                class_of[a] = i
        return cls(class_of)

    @classmethod
    def from_key_function(cls, keyfn, domain):
        """Group the domain by a key; equal keys mean related."""
        ids = {}
        class_of = {}
        for a in domain:
            key = keyfn(a)
            class_of[a] = ids.setdefault(key, len(ids))
        return cls(class_of)

    @classmethod
    def from_function(cls, fn, domain):
        """Group by a boolean predicate assumed to be an equivalence."""
        reps = []
        class_of = {}
        for a in domain:
            for i, rep in enumerate(reps):
                if fn(a, rep):
                    class_of[a] = i
                    break
            else:
                class_of[a] = len(reps)
                reps.append(a)
        return cls(class_of)

    def related(self, a, b):
        return self.class_id(a) == self.class_id(b)

    def classes(self):
        groups = {}
        for a, i in self._table.items():
            groups.setdefault(i, []).append(a)
        return [tuple(g) for _, g in sorted(groups.items())]


@dataclass(frozen=True)
class CanonicalRelation:
    """Agreement up to a fixed projection level: E_level on new nodes."""

    level: int

    def relates(self, w1, w2):
        return tuple(w1)[: self.level] == tuple(w2)[: self.level]


@dataclass(frozen=True)
class RelationCanonization:
    """Outcome of canonizing a relation on length-n approximations.

    `vector` is the least projection vector that fits on some witness
    sub-member, `member` that witness, and `fits` the full list of
    (vector, member) pairs found, one per admissible vector that fit.
    Unpacks as (vector, member).
    """

    vector: tuple
    member: Member
    fits: tuple

    def __iter__(self):
        yield self.vector
        yield self.member


@dataclass(frozen=True)
class CoverReport:
    """Whether a family met every restriction chain of a member."""

    ok: bool
    counterexample: "Approx | None" = None

    def __bool__(self):
        return self.ok


def _placed_prefixes(k, start, stop):
    """For each position p from start to stop - 1, what a search from p
    reads of the nodes placed before it: the slots p..stop-1 force
    prefixes of some of them, so per such anchor the longest level read,
    as (anchor, level) pairs."""
    longest, out = {}, []
    for p in reversed(range(start, stop)):
        l, a = position_info.trusted(k, p)
        if l and longest.get(a, 0) < l:
            longest[a] = l
        out.append(tuple((a, l) for a, l in longest.items() if a < p))
    out.reverse()
    return out


def _search_member(k, base, pool, target_len, budget, flt):
    """First valid completion of base to target_len nodes, depth first.

    Candidates are drawn from pool, a space._Pool of the supply, which
    hands each slot only the nodes of its forced-prefix group past its
    floor, in supply order; the slot still decides.  Every caller pools
    X.nodes in member order, unsorted, once per public call: a Member is
    not checked for order, and the pool keeps whatever order it is given
    (a built member is ascending by maximum, so there the least fresh
    node is tried first).
    flt.start(stop) is told, before the first state, that no position
    from stop on can be filled within the budget.
    flt.try_push(nodes, w) may veto a placement; when it returns True
    it has recorded state and flt.pop() undoes it on backtrack.
    flt.accept(nodes) says how many nodes of a completed member to
    keep: all ends the search with them, fewer backtracks to that many,
    and fewer than base ends it.  Returns the node tuple, or None when
    the space is exhausted.  Raises _Blown when the budget runs out.
    The depth is not bounded by the interpreter's stack: each open
    position keeps its own lazy candidate stream on an explicit stack.

    A failed sub-search is never searched twice, nor from a higher
    running maximum.  flt.signature() is a tuple of all that the rest of
    the search reads of the filter, whose part of varying length comes
    last, or None when that is the placed nodes themselves.  With the
    position and the prefixes that the slots up to target_len are forced
    to by placed nodes, it fixes the sub-search below a position up to
    its floor, the running maximum.  A slot admits w when w[level]
    exceeds the floor, so a higher floor admits a subset of the same
    candidates in the same order, and after the first placement the
    floor is max(w) whatever it was before: the leaves below a higher
    floor are some of those below a lower one.  When a position's
    candidates run out, the search keeps, for this call, its signature
    with the floor it failed from; a position whose signature is kept
    with a floor at or below its own gets no candidates, so it spends no
    state.  A position that accept abandons is not recorded.
    """
    nodes = list(base)
    if len(nodes) == target_len:
        return tuple(nodes) if flt.accept(nodes) == target_len else None
    # each placement draws a new pool node and spends a state, so the
    # slots past len(pool) or the budget's headroom are never filled
    headroom = max(0, min(len(pool), budget.limit - budget.used))
    stop = min(target_len, len(base) + headroom + 1)
    flt.start(stop)
    if flt.signature() is not None:
        reads = _placed_prefixes(k, len(base), stop)
    failed = {}  # signature -> the least floor its sub-search failed from

    def position(floor):
        # the next position's candidates, signature and floor
        part = flt.signature()
        sig = None
        if part is not None:
            forced = [nodes[a][:l] for a, l in reads[len(nodes) - len(base)]]
            sig = (len(nodes), *forced, *part)
            if floor >= failed.get(sig, floor + 1):
                return (), None, floor
        slot = _Slot(k, nodes, floor)
        return slot.candidates(pool.near(slot)), sig, floor

    spend, try_push = budget.spend, flt.try_push  # once, not per state
    stack = [position(max((max(w) for w in nodes), default=-1))]
    while stack:
        for w in stack[-1][0]:
            if not spend():
                raise _Blown()
            if try_push(nodes, w):
                break
        else:
            _, sig, floor = stack.pop()
            if sig is not None:
                # a position is searched only below the floor kept for its
                # signature, so this floor is the least
                failed[sig] = floor
            if stack:
                nodes.pop()
                flt.pop()
            continue
        nodes.append(w)
        if len(nodes) < target_len:
            # w passed the slot, so its maximum is the new running maximum
            stack.append(position(max(w)))
            continue
        keep = flt.accept(nodes)
        if keep == target_len:
            return tuple(nodes)
        if keep < len(base):
            return None
        del stack[keep - len(base) + 1:]
        for _ in range(target_len - keep):
            nodes.pop()
            flt.pop()
    return None


def _witness(k, nodes):
    """A search's witness as a Member once it validates, else ValueError.
    The slot rule cannot see a broken prefix chain among X's nodes after
    the depth prefix, so a search over an invalid member may place one."""
    Y = Member(k, nodes)
    try:
        _require_valid(Y, "witness")
    except MalformedNodeError as err:
        raise ValueError("witness does not validate: %s" % err) from None
    return Y


def _out_of_budget(budget):
    return Exhausted("budget", "state budget ran out at %d" % budget.used)


class _NoFilter:
    def start(self, stop):
        pass

    def try_push(self, nodes, w):
        return True

    def pop(self):
        pass

    def accept(self, nodes):
        return len(nodes)

    def signature(self):
        return ()


class _FitFilter:
    """A relation must coincide with agreement of projection keys: the
    map key <-> class stays a bijection on the pairs formed so far, an
    O(1) check per pair with both directions kept as dicts.

    A level fit, _FitFilter(supply, level, pinned), reads the call's
    _Extensions: placing w forms (w[:level], supply.color_of[w]) when w
    is there, else no pair, and it looks ahead (_LookAhead).  Without a
    supply, each push is handed its pairs as formed (_VectorFits), each
    checked before the next is drawn.  Pinned pairs hold from the start.
    accept keeps a member on which at least one pair was formed.
    """

    def __init__(self, supply=None, level=0, pinned=()):
        self.supply, self.level = supply, level
        self.ahead = None  # the search's _LookAhead, once start is told its window
        self.key_class = dict(pinned)
        self.class_key = {c: key for key, c in pinned}
        self.trail = []  # per push, the keys it inserted; None if no pair
        # one, and one more per push on the path that formed a pair, each the
        # signature once built: the placed nodes fix it
        self.sigs = [None]

    def start(self, stop):
        if self.supply is not None:
            self.ahead = _LookAhead(self, stop)

    def try_push(self, nodes, w, formed=None):
        key_class, class_key = self.key_class, self.class_key
        if formed is None:
            c = self.supply.color_of.get(w)
            formed = () if c is None else ((w[:self.level], c),)
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
            if self.ahead is None or self.ahead.push(nodes, w, inserted):
                self.trail.append(inserted)
                if inserted is not None:
                    self.sigs.append(None)
                return True
        if inserted:
            self._undo(inserted)
        return False

    def _undo(self, inserted):
        for key in inserted:
            del self.class_key[self.key_class.pop(key)]

    def takes(self, pairs):
        """Whether the key <-> class map would take all of pairs at once:
        each agrees with the map and with the others."""
        key_class, class_key = self.key_class, self.class_key
        new_kc, new_ck = {}, {}
        for key, c in pairs:
            if (key_class.get(key, c) != c or class_key.get(c, key) != key
                    or new_kc.setdefault(key, c) != c or new_ck.setdefault(c, key) != key):
                return False
        return True

    def pop(self):
        inserted = self.trail.pop()
        if self.ahead is not None:
            self.ahead.pop()
        if inserted is not None:
            self.sigs.pop()
            self._undo(inserted)

    def accept(self, nodes):
        return len(nodes) if len(self.sigs) > 1 else len(nodes) - 1

    def signature(self):
        """What the rest of a level fit's search reads of the filter:
        whether a pair was formed and, last and so the only part of varying
        length, the key <-> class pairs, sorted."""
        if self.sigs[-1] is None:
            self.sigs[-1] = (len(self.sigs) > 1, *sorted(self.key_class.items()))
        return self.sigs[-1]


class _Extensions:
    """The one-step extensions of a in X as every color and level of one
    call reads them: color_of, {new node: color}; positions, those of a's
    nodes in X; slots, the template's extension positions below the
    target (space._extension_positions, scanned once); and groups, per
    forced prefix (() at level 0), the nodes with it, largest index at
    its level, its length, first."""

    def __init__(self, k, positions, color_of, target_len):
        self.k, self.positions, self.color_of = k, positions, color_of
        self.slots = _extension_positions(k, positions, target_len)
        self.groups = groups = {}
        for l in range(k):
            for u in sorted(color_of, key=itemgetter(l), reverse=True):
                groups.setdefault(u[:l], []).append(u)


class _LookAhead:
    """Forward checking for one level-fit search (Haralick and Elliott
    1980): a push the filter takes is vetoed when some extension position
    still to come can no longer be filled.

    The positions are the supply's slots below stop.  A pending one, q,
    needs a node u of the supply with q's forced prefix (() at level 0),
    u[l] above the running maximum (l is q's level, and every later floor
    is at least that maximum), and whose pair the filter's key <-> class
    map would take.  So a constraint is (l, q's anchor) with the last q it
    serves, tested in its prefix's group once the anchor is placed: before,
    the anchor is a pending position at a lower level, and a node's
    indices rise along it.  Along a path the maximum only rises and the
    maps only grow, so a constraint without such a node has none in the
    whole subtree, and since every witness holds a's extensions at the
    template's positions (its depth prefix validates), no witness is
    lost.  The check reads nothing at or past stop, only placed nodes'
    prefixes of positions below it, as the memo key does.

    A group keeps its last support (a residual support, Lecoutre and
    Hemery 2007) and re-tests it before it scans.  Per push kept, a stack
    holds a bound: every pending constraint whose anchor is placed has a
    support, at or above the bound at its level, that the maps take.  A
    push that inserts no key and whose maximum stays below the bound
    leaves those supports valid, so it tests only the constraints of the
    anchor it places, whose prefix is new; any other push tests all.
    """

    def __init__(self, flt, stop):
        supply = flt.supply
        self.groups, self.color_of, self.level = supply.groups, supply.color_of, flt.level
        self.key_class, self.class_key = flt.key_class, flt.class_key
        self.constraints = {}  # (l, anchor) -> the last position it serves
        for q in supply.slots[:bisect_left(supply.slots, stop)]:
            self.constraints[position_info.trusted(supply.k, q)] = q
        self.anchored = {}  # per anchor, its constraints, as (l, anchor), last
        for c in self.constraints.items():
            self.anchored.setdefault(c[0][1], []).append(c)
        self.support = {}  # prefix -> its group's residual support
        self.stack = [-1]  # below every maximum: the first push tests all

    def _takes(self, u):
        """Whether the filter's key <-> class map would take u's pair."""
        key, c = u[:self.level], self.color_of[u]
        return self.key_class.get(key, c) == c and self.class_key.get(c, key) == key

    def _top(self, prefix, m):
        """The index at len(prefix) of a support of prefix above m, or -1."""
        l, u = len(prefix), self.support.get(prefix)
        if u is not None and u[l] > m and self._takes(u):
            return u[l]
        for u in self.groups.get(prefix, ()):
            if u[l] <= m:
                break
            if self._takes(u):
                self.support[prefix] = u
                return u[l]
        return -1

    def push(self, nodes, w, inserted):
        p, m = len(nodes), max(w)
        bound = self.stack[-1]
        if not inserted and m < bound:
            pending = self.anchored.get(p, ())
        else:
            pending, bound = self.constraints.items(), inf
        for (l, a), last in pending:
            if p >= last or a is not None and a > p:
                continue
            top = self._top(() if a is None else (w if a == p else nodes[a])[:l], m)
            if top <= m:
                return False
            if top < bound:
                bound = top
        self.stack.append(bound)
        return True

    def pop(self):
        self.stack.pop()


def _candidate_levels(k, n):
    """The levels step n may project to: 0, or above its branching level."""
    return [0, *range(classify_n(k, n) + 1, k + 1)]


def _colored_extensions(a, X, coloring, target_len):
    """The prologue of the searches over one-step extensions of a in X.

    Checks target_len, a and the depth prefix of a in X, which every
    witness keeps, and returns that prefix, the {new node: color} map over
    the one-step extensions of a in X and the positions of a's nodes;
    raises ValueError when the prefix does not validate or the coloring
    misses one of the extensions.
    """
    _check_length(target_len, "target length")
    a = _checked_approx(a, X.k)
    d = depth_of(X, a)
    if target_len < d:
        raise ValueError("target length is below the depth of the approximation")
    _require_valid(r_approx(X, d), "depth prefix")
    color_of = {b.nodes[-1]: coloring.of(b) for b in one_extensions(a, X)}
    position = _first_positions(X.nodes[:d])
    return X.nodes[:d], color_of, tuple(position[w] for w in a.nodes)


def _refuted(blocks, classes):
    """Whether a candidate's blocks cannot go one-to-one to classes at
    least as large, given both lists of sizes: sorted largest first, it
    has more blocks than there are classes, or some block is larger than
    the class of the same rank (Hall's condition)."""
    blocks, classes = sorted(blocks, reverse=True), sorted(classes, reverse=True)
    return len(blocks) > len(classes) or any(b > c for b, c in zip(blocks, classes))


_NO_COMPLETION = Exhausted("supply", "no completion from the depth prefix")
_NO_COLOR = Exhausted("supply", "no color admits a homogeneous sub-member")
_NO_LEVEL = Exhausted("supply", "no projection level fits a sub-member")
_NO_AGREEMENT = Exhausted("supply", "no sub-member carries an agreeing family member")


def pigeonhole(a, X, coloring, target_len, budget=None):
    """Monochromatic sub-member for a coloring of one-step extensions.

    Searches for Y with r_d(Y) = r_d(X) (d the depth of a in X) and
    target_len nodes such that every one-step extension of a inside Y
    gets the same color.  Returns (Y, color), trying colors in
    ascending order, or Exhausted.  Each color is tried as a level-0
    canonization with that color pinned.  The homogeneity certificate
    is re-checked by enumeration before returning.

    Raises ValueError when the depth prefix does not validate.  Before
    the first state, a color with fewer one-step extensions in X than the
    template has extension positions is dropped (_refuted).
    """
    base, color_of, at = _colored_extensions(a, X, coloring, target_len)
    if target_len > len(X.nodes):  # a sub-member places a new node of X per position
        return _NO_COLOR if color_of else _NO_COMPLETION
    budget = budget or Budget()
    pool = _Pool(X.nodes)
    try:
        if not color_of:
            got = _search_member(X.k, base, pool, target_len, budget, _NoFilter())
            if got is None:
                return _NO_COMPLETION
            return _witness(X.k, got), None
        supply = _Extensions(X.k, at, color_of, target_len)
        block = [len(supply.slots)]
        sizes = Counter(color_of.values())
        colors = sorted(c for c in sizes if not _refuted(block, [sizes[c]]))
        for color in colors:
            flt = _FitFilter(supply, 0, [((), color)])
            got = _search_member(X.k, base, pool, target_len, budget, flt)
            if got is not None:
                Y = _witness(X.k, got)
                seen = {coloring.of(b) for b in one_extensions(a, Y)}
                if seen != {color}:
                    raise AssertionError("homogeneity certificate failed")
                return Y, color
    except _Blown:
        return _out_of_budget(budget)
    return _NO_COLOR


def canonize_one_extensions(s, X, coloring, target_len, budget=None):
    """Canonical form of a coloring of one-step extensions of s.

    Finds a sub-member Y (sharing the depth prefix of s in X) on which
    color agreement between extensions of s coincides with agreement
    up to a single projection level.  The only possible levels are 0
    and l+1..k where l is the branching level at step |s|.  Returns
    (Y, CanonicalRelation) when exactly one level fits, an
    AmbiguousAtScale when several levels fit their own witnesses, or
    Exhausted.  When the budget runs out after two levels already fit,
    the outcome is still AmbiguousAtScale, listing the levels that fit
    before it ran out; otherwise it is Exhausted("budget").

    Raises ValueError when the depth prefix does not validate.  Before
    the first state, the template (space.build_w(k, target_len)) decides
    what every witness's shape decides: when no two of its extensions of
    s agree up to one candidate level but not up to the next, no level
    fits; and a level whose blocks of the template's extensions, grouped
    by level prefix, cannot go one-to-one to colors with at least as many
    extensions in X is not searched.
    """
    base, color_of, at = _colored_extensions(s, X, coloring, target_len)
    if target_len > len(X.nodes):
        return _NO_LEVEL  # a sub-member places a new node of X per position
    supply = _Extensions(X.k, at, color_of, target_len)
    candidates = _candidate_levels(X.k, len(s.nodes))
    template = build_w.trusted(X.k, target_len).nodes
    exts = [template[q] for q in supply.slots]
    blocks = {level: Counter(u[:level] for u in exts) for level in candidates}
    if any(len(blocks[c1]) == len(blocks[c2]) for c1, c2 in zip(candidates, candidates[1:])):
        # no two extensions agree up to c1 but not up to c2
        return _NO_LEVEL
    colors = Counter(color_of.values()).values()
    levels = [level for level in candidates if not _refuted(blocks[level].values(), colors)]
    if not levels:
        return _NO_LEVEL
    budget = budget or Budget()
    pool = _Pool(X.nodes)
    fits, blown = [], False
    for level in levels:
        try:
            got = _search_member(X.k, base, pool, target_len, budget, _FitFilter(supply, level))
        except _Blown:
            blown = True
            break
        if got is not None:
            fits.append((level, got))
    if len(fits) > 1:
        return AmbiguousAtScale(candidates=tuple(level for level, _ in fits))
    if blown:
        return _out_of_budget(budget)
    if fits:
        level, got = fits[0]
        return _witness(X.k, got), CanonicalRelation(level)
    return _NO_LEVEL


def admissible_vectors(k, n):
    """Projection vectors a canonical relation on n-approximations may use.

    Coordinate i is either 0 (project away) or a level strictly above
    the branching level of step i, in particular never a level that
    would cut a node below where its chain already forks.  Vectors
    with a redundant coordinate are dropped: when positions i < j
    share a domain prefix of length at least l_i and l_j >= l_i, the
    node at j determines the level-l_i projection at i in every valid
    approximation, so the same relation is already induced with l_i
    set to 0.  Without this normalization distinct vectors would
    induce literally equal relations and no round trip could tell
    them apart.
    """
    _check_dim(k)
    _check_length(n, "approximation length")
    choices = [_candidate_levels(k, i) for i in range(n)]
    domains = [domain_at(i, k) for i in range(n)]

    def redundant(v):
        return any(
            v[i] and v[j] >= v[i] and domains[i][: v[i]] == domains[j][: v[i]]
            for i in range(n)
            for j in range(i + 1, n)
        )

    return [
        tuple(v) for v in itertools.product(*choices) if not redundant(tuple(v))
    ]


class _VectorFits:
    """Every vector's fit in one search: a _FitFilter per vector, all fed
    the approximations a push completes, found once with their classes.

    class_of holds, by its nodes, the class of every approximation a push
    may complete: X's n-approximations, or the family members inside X.
    A slot admits only a node whose maximum exceeds the running maximum,
    so the placed nodes strictly ascend by maximum, on any member.  A push
    of w therefore completes exactly the listed approximations whose node
    of largest maximum is w (an n-approximation's last) and whose other
    nodes are all placed, in whatever order their nodes are listed.
    ending lists them by that node, each as [its other nodes, its nodes,
    its row]: the row, its (key, class) pair under every vector, is
    projected at its first use and kept for the call.
    Vector i's pairs are item i of the rows a push completes; pinned pairs
    hold for every vector from the start.  A push that completes none
    forms no pair for any vector, so no filter is pushed.
    Given template, (k, the template's n-approximations as position
    tuples), the search also looks ahead (_VectorLookAhead), which reads
    X's n-approximations by their first j < n nodes and last node: index,
    lists of the same entries (index[()] is ending, whose node of largest
    maximum is the last).
    live[m] lists the unresolved filters that took the first m placed
    nodes and that the look-ahead kept.  A vector is resolved at its first
    leaf; accept then backtracks to the deepest level still live.  So each
    vector gets its solo witness, and the states are the union of the solo
    searches' states.
    """

    def __init__(self, class_of, vectors, pinned=(), template=None):
        self.class_of, self.template = class_of, template
        self.slices = [[slice(l) for l in v] for v in vectors]
        self.ending = {}
        for b in class_of:
            top = max(b, key=max)
            self.ending.setdefault(top, []).append([frozenset(b) - {top}, b, None])
        self.index = {}  # first j < n nodes -> {last node: the entries with them}
        if template is not None:
            self.index[()] = self.ending
            for group in self.ending.values():
                for e in group:
                    for j in range(1, len(e[1])):
                        self.index.setdefault(e[1][:j], {}).setdefault(e[1][-1], []).append(e)
        self.ahead = None  # the search's _VectorLookAhead, once start is told its window
        self.placed = set()
        self.trail = []  # per kept push, whether it pushed the filters, and its node
        self.filters = [_FitFilter(pinned=pinned) for _ in vectors]
        self.item = {f: itemgetter(i) for i, f in enumerate(self.filters)}
        self.live = [self.filters]
        self.found = {}  # filter -> its witness nodes

    def _row(self, b):
        """b's (key, class) pair under every vector, kept for the call."""
        c = self.class_of[b]
        return tuple((tuple(map(getitem, b, s)), c) for s in self.slices)

    def row(self, entry):
        """The row of an entry of ending, projected at its first use."""
        if entry[2] is None:
            entry[2] = self._row(entry[1])
        return entry[2]

    def _completed(self, w):
        """The rows of the listed approximations that a push of w completes."""
        placed = self.placed
        return [self.row(e) for e in self.ending.get(w, ()) if e[0] <= placed]

    def try_push(self, nodes, w):
        live = self.live[-1]
        rows = self._completed(w)
        if rows:
            item, kept = self.item, []
            for f in live:
                if f.try_push(nodes, w, map(item[f], rows)):
                    kept.append(f)
            live = kept
        if live and self.ahead is not None:
            ahead = self.ahead.push(nodes, w, live, bool(rows))
            if rows:
                for f in live:
                    if f not in ahead:
                        f.pop()
            live = ahead
        if not live:
            return False
        self.live.append(live)
        self.placed.add(w)
        self.trail.append((bool(rows), w))
        return True

    def pop(self):
        pushed, w = self.trail.pop()
        live = self.live.pop()
        if pushed:
            for f in live:
                f.pop()
        if self.ahead is not None:
            self.ahead.pop()
        self.placed.remove(w)

    def start(self, stop):
        if self.template is not None:
            self.ahead = _VectorLookAhead(self, stop)

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


class _VectorLookAhead:
    """Joint forward checking for the relation search (Haralick and
    Elliott 1980, in the non-binary form of Bessiere, Meseguer, Freuder
    and Larrosa 2002): after a push, a live vector is dropped when some
    template position still to come can no longer be filled for it.

    A position q below stop is tested once some template n-approximations
    close at q with all their other positions placed (its ready
    closings), and once q's anchor is placed (at level 0 it has none).
    It needs a node u of X with u[l] above the running maximum (l is q's
    level), q's forced prefix, every ready closing (placed nodes..., u)
    listed in class_of, and whose pairs under the vector the key <->
    class map takes all at once.  Positions with the same level, anchor
    and closings pose the same test, so a constraint is that triple with
    the last position it serves.  Its candidates are read off the fits'
    index by the placed nodes of one closing, largest index at l first,
    once for every vector that tests it.  Along a path the maps only
    grow, the ready closings only gain members and the maximum only
    rises, so a vector without such a node has none in the whole subtree;
    every witness is a copy of the template (the relation search's depth
    prefix is empty), so no witness is lost.  An unplaced anchor is
    itself a pending position at a lower level, whose node's indices rise
    along it.

    After a push that inserts a key into a vector's map, the vector also
    tests the positions with partly placed closings, template
    n-approximations ending there with some other position not yet
    placed, anchor placed or not (no prefix is asked of u before).  Each
    such closing needs a completion (placed nodes..., unplaced nodes...,
    u) listed in class_of whose pair the map takes with the ready pairs,
    every unplaced node above the running maximum at its position's level
    and with its forced prefix where that is known: the anchor placed, or
    in the same closing.  Testing each closing apart is a relaxation of
    their joint support, and the unplaced nodes' slots only narrow along
    a path, so this too loses no witness.  A vector keeps its last such u
    per constraint (a residual support) and re-tests it first.  The key
    insert gates the test: run after every push it prunes little more
    (the benchmark's relation calls: 1,032 states, not 1,116) and costs
    far more (on a 200-node target, 506,855 candidate tests, not 213).

    Per push kept, a stack holds each live vector's bound: every
    constraint it tested has a support, at or above the bound at its
    level, that its map takes.  A push that inserts no key into the
    vector's map and whose maximum stays below its bound leaves those
    supports valid, so it tests only the constraints whose test the push
    changes (changed: a closing whose last other position it fills, or
    the anchor it places); any other push tests every pending one.
    """

    def __init__(self, fits, stop):
        k, template = fits.template
        self.index, self.row, self.item = fits.index, fits.row, fits.item
        self.info = [position_info.trusted(k, q) for q in range(stop)]
        closings = {}  # q -> the other positions of each template approximation ending at q
        for ps in template:
            if ps[-1] < stop:
                closings.setdefault(ps[-1], []).append(ps[:-1])
        last = {}  # constraint (l, anchor, closings) -> the last position it serves
        for q, cs in closings.items():
            c = (*self.info[q], tuple(cs))
            last[c] = max(last.get(c, q), q)
        self.order = sorted(last, key=last.get)
        self.lasts = [last[c] for c in self.order]
        self.ready = {}  # constraint -> the placed nodes of each ready closing
        self.newly = {}  # p -> the (constraint, closing) pairs a push at p makes ready
        changed = {}
        for c in self.order:
            _, a, cs = c
            self.ready[c] = [o for o in cs if not o]  # n = 1: () is ready at once
            for o in cs:
                if o:
                    self.newly.setdefault(o[-1], []).append((c, o))
                    changed.setdefault(o[-1], {})[c] = None
            if a is not None:
                changed.setdefault(a, {})[c] = None
        self.changed = changed  # p -> the constraints whose test a push at p changes
        self.sorted = {}  # (placed nodes, level) -> _by_level's list
        self.support = {}  # (filter, constraint) -> its residual support
        self.shapes = {}  # p -> _shapes' map
        self.closing = {}  # (placed nodes, u, l) -> its completions, largest index at l of node j first
        self.bounds = [(None, {})]  # per push kept, its position and each live vector's bound

    def _prefix(self, l, a, nodes, w, p):
        """The forced prefix of a position at (l, a) once its anchor is
        placed, () at level 0; None while the anchor is not placed, so the
        position is not tested."""
        if a is None:
            return ()
        if a > p:
            return None
        return (w if a == p else nodes[a])[:l]

    def _shapes(self, p):
        """Per pending constraint with partly placed closings after a push
        at p, each such closing's shape, repeats dropped: its placed
        positions and, per unplaced position, (its place in the closing,
        its level, its anchor if placed, else the place of its anchor in
        the closing if there).  Worked out once per p for the call."""
        got = self.shapes.get(p)
        if got is None:
            got = self.shapes[p] = {}
            for c in self.order[bisect_right(self.lasts, p):]:
                found = {}
                for o in c[2]:
                    if o and o[-1] > p:
                        j, checks = bisect_right(o, p), []
                        for i in range(j, len(o)):
                            l, a = self.info[o[i]]
                            known = a is not None and a <= p
                            checks.append((i, l, a if known else None,
                                           o.index(a) if not known and a in o else None))
                        found[o[:j], tuple(checks)] = None
                if found:
                    got[c] = list(found)
        return got

    def _partly(self, shapes, nodes, w, p):
        """The partly placed closings of the given shapes after a push of w
        at p: per closing, its placed nodes and, per unplaced position,
        (its place, its level, its forced prefix or None, its anchor's
        place or None)."""
        def node(i):
            return w if i == p else nodes[i]

        return [(tuple(map(node, positions)),
                 tuple((i, l, None if a is None else node(a)[:l], at) for i, l, a, at in checks))
                for positions, checks in shapes]

    def _by_level(self, placed, l):
        """The group of placed as (u, entries) pairs, largest u[l] first,
        sorted once for the call."""
        got = self.sorted.get((placed, l))
        if got is None:
            got = self.sorted[placed, l] = sorted(
                self.index[placed].items(), key=lambda ue: ue[0][l], reverse=True)
        return got

    def _rows(self, ready, u):
        """The rows of the ready closings (placed nodes..., u), given their
        groups; None when one is not listed."""
        rows = []
        for group in ready:
            es = group.get(u)
            if es is None:
                return None
            rows.append(self.row(es[0]))
        return rows

    def _completions(self, part, u, m):
        """Per partly placed closing, the rows of its completions ending at
        u whose unplaced nodes pass their checks above m; None when one
        closing has none.  A closing's completions are read largest index
        of the first unplaced node at its level first, down to m."""
        out = []
        for placed, checks in part:
            j, l = len(placed), checks[0][1]
            group = self.closing.get((placed, u, l))
            if group is None:
                group = self.closing[placed, u, l] = sorted(
                    ((e[1][j][l], e) for e in self.index[placed].get(u, ())),
                    key=itemgetter(0), reverse=True)
            rows = []
            for top, e in group:
                if top <= m:
                    break
                b = e[1]
                for i, l, prefix, at in checks:
                    x = b[i]
                    if x[l] <= m or prefix is not None and x[:l] != prefix \
                            or at is not None and x[:l] != b[at][:l]:
                        break
                else:
                    rows.append(self.row(e))
            if not rows:
                return None
            out.append(rows)
        return out

    def _fills(self, f, rows, completions):
        """Whether f's map takes the ready rows' pairs together, and with
        them one completion's pair of each partly placed closing."""
        get = self.item[f]
        ready = [get(row) for row in rows]
        return f.takes(ready) and all(
            any(f.takes([*ready, get(row)]) for row in group) for group in completions)

    def _tops(self, c, prefix, testers, m, part=(), grown=()):
        """Per tester, the index at c's level of a node that fills c's
        positions for it; a vector with none is left out.  Every tester
        reads the ready closings, and one in grown the partly placed
        closings part too.  The candidates are those of the closing with
        the fewest, a ready one while a tester not in grown reads them."""
        pools, ready = [], []
        for placed in self.ready[c]:
            group = self.index.get(placed)
            if group is None:
                return {}
            pools.append((len(group), placed))
            ready.append(group)
        l, lp, item = c[0], len(prefix), self.item
        tops = {}
        if part:
            if any(placed not in self.index for placed, _ in part):
                testers, part = [f for f in testers if f not in grown], ()
            elif all(f in grown for f in testers):
                pools += [(len(self.index[placed]), placed) for placed, _ in part]
            for f in grown if part else ():
                u = self.support.get((f, c))
                if u is None or u[l] <= m or u[:lp] != prefix:
                    continue
                rows = self._rows(ready, u)
                completions = rows is not None and self._completions(part, u, m)
                if completions and self._fills(f, rows, completions):
                    tops[f] = u[l]
        if not pools:
            return tops
        need = [f for f in testers if f not in tops] if tops else testers
        for u, _ in self._by_level(min(pools)[1], l):
            if not need or u[l] <= m:
                break
            if u[:lp] != prefix:
                continue
            rows = self._rows(ready, u) if ready else []
            if rows is None:
                continue
            completions = None
            for f in need:
                if not part or f not in grown:
                    if f.takes(map(item[f], rows)):
                        tops[f] = u[l]
                    continue
                if completions is None:
                    completions = self._completions(part, u, m) or ()
                if completions and self._fills(f, rows, completions):
                    tops[f] = u[l]
                    self.support[f, c] = u
            if len(tops) > len(testers) - len(need):
                need = [f for f in need if f not in tops]
        return tops

    def push(self, nodes, w, live, pushed):
        """The vectors of live that every constraint tested after w is
        placed can still take; pushed says whether their filters were."""
        p, m = len(nodes), max(w)
        for c, o in self.newly.get(p, ()):
            self.ready[c].append(tuple(w if i == p else nodes[i] for i in o))
        prev, bound, full, cheap, grown = self.bounds[-1][1], {}, [], [], []
        for f in live:
            b = prev.get(f, -1)
            if pushed and f.trail[-1]:
                grown.append(f)
            elif m < b:
                cheap.append(f)
                bound[f] = b
                continue
            full.append(f)
            bound[f] = inf
        shapes = self._shapes(p) if grown else {}
        changed = self.changed.get(p, {})
        for c in self.order[bisect_right(self.lasts, p):] if full else changed:
            testers = full + cheap if c in changed else full
            if not testers:
                continue
            prefix = self._prefix(c[0], c[1], nodes, w, p)
            part = self._partly(shapes[c], nodes, w, p) if grown and c in shapes else ()
            if part:
                if prefix is None or not self.ready[c]:
                    testers = grown
                tops = self._tops(c, prefix or (), testers, m, part, grown)
            elif prefix is None or not self.ready[c]:
                continue
            else:
                tops = self._tops(c, prefix, testers, m)
            for f in testers:
                top = tops.get(f)
                if top is None:
                    del bound[f]
                elif top < bound[f]:
                    bound[f] = top
            if len(tops) < len(testers):
                if not bound:
                    break
                full = [f for f in full if f in bound]
                cheap = [f for f in cheap if f in bound]
                grown = [f for f in grown if f in bound]
        self.bounds.append((p, bound))
        if not bound:
            self.pop()
            return []
        return [f for f in live if f in bound]

    def pop(self):
        p, _ = self.bounds.pop()
        for c, _ in self.newly.get(p, ()):
            self.ready[c].pop()


def _walk(X, closed):
    """The tree of approximations below X depth first, in one_extensions'
    order, not descending below any a with closed(a): yields each visited
    a and whether it is open with no one-step extension in X.  Children
    come from a space._Pool of X's nodes of length k (no other is
    admitted) sorted by maximum, each built when the walk reaches it."""
    pool = _Pool(sorted((w for w in X.nodes if len(w) == X.k), key=max))
    # one lazy stream of pending siblings per level of the walk, each with
    # its largest index: an admitted node's maximum is the new running maximum
    stack = [iter(((Approx(X.k), -1),))]
    while stack:
        cur, floor = next(stack[-1], (None, None))
        if cur is None:
            stack.pop()
        elif closed(cur):
            yield cur, False
        else:
            slot = _Slot(X.k, cur.nodes, floor)
            nodes = slot.candidates(pool.near(slot))
            first = next(nodes, None)
            yield cur, first is None
            if first is not None:
                # cur is bound now: the stream is drawn from after cur moves on
                stack.append(map(partial(_child, cur), itertools.chain((first,), nodes)))


def _child(a, w):
    """The walk's entry for a with w appended: the child and its floor."""
    return _extend(a, w), max(w)


def _approximations(X, n):
    """The n-approximations of X in _walk's order, which is one-step-extension
    layer order, each built when the one before it has been taken."""
    return (a for a, _ in _walk(X, lambda a: len(a.nodes) == n) if len(a.nodes) == n)


def canonize_relation(relation, k, n, X, target_len, budget=None):
    """Canonical projection vector for a relation on n-approximations.

    Tries every admissible vector in one search for sub-members of X of
    target_len nodes on which the relation coincides with agreement of
    coordinatewise projections, each vector getting the first witness of
    its own search in ascending order.  A state is one placement tried,
    however many vectors it serves.  Returns a RelationCanonization
    carrying the least fitting vector, its witness, and all fits;
    NotCanonicalAtScale when the search space was exhausted with no fit;
    Exhausted when the budget ran out before every vector was resolved,
    even if some had fit by then.  Raises ValueError before the first
    state when the relation misses an n-approximation of X, naming the
    first one in one-step-extension layer order, also where a search
    would have found a witness that avoids it.

    Before the first state, a vector is dropped when its blocks of the
    template's n-approximations (those of space.build_w(k, target_len)),
    grouped by projection key, cannot go one-to-one to classes with at
    least as many n-approximations of X.
    """
    _check_length(n, "approximation length")
    if X.k != k:
        raise ValueError("member dimension does not match k")
    if n < 1:
        raise ValueError("approximation length must be at least 1")
    _check_length(target_len, "target length")
    if target_len < n:
        raise ValueError("target length cannot be below the approximation length")
    # each looked up as it is built; the search completes only these (_VectorFits)
    classes = {a.nodes: relation.class_id(a) for a in _approximations(X, n)}
    sizes = Counter(classes.values()).values()
    vectors = admissible_vectors(k, n)
    if target_len > len(X.nodes):
        # a sub-member places a new node of X per position
        return NotCanonicalAtScale(vectors_checked=len(vectors))
    positions = _approximation_positions(k, n, target_len)
    template = build_w.trusted(k, target_len).nodes

    def blocks(v):
        # the template's n-approximations grouped by their key under v
        return Counter(tuple(template[p][:l] for p, l in zip(ps, v))
                       for ps in positions).values()

    survivors = [v for v in vectors if not _refuted(blocks(v), sizes)]
    if not survivors:
        return NotCanonicalAtScale(vectors_checked=len(vectors))
    budget = budget or Budget()
    flt = _VectorFits(classes, survivors, template=(k, positions))
    try:
        _search_member(k, (), _Pool(X.nodes), target_len, budget, flt)
    except _Blown:
        return _out_of_budget(budget)
    fits = [(v, _witness(k, flt.found[f])) for v, f in zip(survivors, flt.filters)
            if f in flt.found]
    if fits:
        vector, member = fits[0]
        return RelationCanonization(vector, member, tuple(fits))
    return NotCanonicalAtScale(vectors_checked=len(vectors))


def nash_williams_check(family):
    """True when no member of the family properly end-extends another.

    Compares node tuples only, whatever the dimension, so it is one
    lookup per proper prefix of each member.
    """
    approxs = list(dict.fromkeys(family))
    for a in approxs:
        _require_valid(a)
    members = {a.nodes for a in approxs}
    for b in approxs:
        for m in range(len(b.nodes)):
            if b.nodes[:m] in members:
                return False
    return True


def front_cover_check(family, X, budget=None):
    """Check that every restriction chain of X meets the family.

    The family must pass nash_williams_check.  Walks the tree of
    approximations below X depth first (_walk); a chain is closed off as
    soon as it hits the family, and a maximal chain that never does is
    returned as the counterexample.  Each approximation visited is one
    state of the budget; Exhausted when it runs out.
    """
    approxs = _checked_family(family, X)
    if not nash_williams_check(approxs):
        raise ValueError("family fails the no-end-extension check")
    budget = budget or Budget()
    for a, dead_end in _walk(X, set(approxs).__contains__):
        if not budget.spend():
            return _out_of_budget(budget)
        if dead_end:
            return CoverReport(False, counterexample=a)
    return CoverReport(True)


def proj_image(a, vector):
    """Set image of an approximation under coordinatewise projection."""
    if len(vector) != len(a.nodes):
        raise ValueError("vector length does not match the approximation")
    out = set()
    for w, l in zip(a.nodes, vector):
        if not 0 <= l <= a.k:
            raise ValueError("projection level %r out of range" % (l,))
        out.add(w[:l])
    return frozenset(out)


class InnerMap(_Table):
    """Projection vector assigned to each approximation of a family."""

    _what = "inner map"
    vector_for = _Table._lookup

    @staticmethod
    def _value(v):
        try:
            return tuple(_check_int(c, "projection level") for c in v)
        except TypeError:  # v is not iterable
            raise ValueError("a vector must be an integer sequence, got %r" % (v,)) from None

    @classmethod
    def uniform(cls, vector, family):
        return cls({a: tuple(vector) for a in family})

    def image(self, a):
        return proj_image(a, self.vector_for(a))


def inner_check(phi, family):
    """True when phi assigns every family member a well-formed vector: one
    whose image proj_image takes."""
    try:
        for a in family:
            phi.image(a)
    except ValueError:
        return False
    return True


def irreducible_check(phi, family):
    """Inner and no image is a strict partial stage of another image.

    For approximations a, b in the family, if the image of a equals
    the partial image of b built from its first n nodes, the full
    images must already agree; otherwise phi could be reduced on b.
    """
    approxs = list(dict.fromkeys(family))
    try:
        images = {a: phi.image(a) for a in approxs}
    except ValueError:  # phi is not inner
        return False
    seen = set(images.values())
    for b in approxs:
        full = images[b]
        partial = set()
        for w, l in zip(b.nodes, phi.vector_for(b)):
            # a partial image is a subset of the full one, so it differs
            # from it exactly when it is smaller
            if len(partial) < len(full) and frozenset(partial) in seen:
                return False
            partial.add(w[:l])
    return True


def irreducible_agreement(phi1, phi2, relation, family, X, target_len, budget=None):
    """Two canonizing inner maps agree pointwise on some sub-member.

    First checks that each map canonizes the relation on the family
    restricted to X (relation holds exactly when images agree), as one
    image <-> class bijection in family order.  When a map fails, the
    DisagreeWitness names the first member b that breaks the bijection
    and the first earlier member that disagrees with it.  Then searches for
    a sub-member A of X such that phi1 and phi2 give the same image to
    every family member inside A, with at least one such member, which is
    Exhausted before the first state when the target passes X or no member
    the search could complete gets the same image from both maps.
    """
    _check_length(target_len, "target length")
    supply = set(X.nodes)
    approxs = [a for a in _checked_family(family, X) if supply.issuperset(a.nodes)]
    images = []
    for phi, tag in ((phi1, "first"), (phi2, "second")):
        image = {a: phi.image(a) for a in approxs}
        images.append(image)
        flt = _FitFilter()
        for j, b in enumerate(approxs):
            if not flt.try_push((), b, [(image[b], relation.class_id(b))]):
                # b breaks the bijection, so an earlier member disagrees with it
                a = next(a for a in approxs[:j]
                         if relation.related(a, b) != (image[a] == image[b]))
                detail = "the %s map does not canonize the relation on %s, %s" % (
                    tag, _approx_str(a), _approx_str(b))
                return DisagreeWitness(a=a, b=b, detail=detail)
    first, second = images
    # the relation search with the empty vector and agreement pinned; no
    # slot admits a node of another length than k, so only these complete
    agree = {a.nodes: first[a] == second[a] for a in approxs
             if set(map(len, a.nodes)) == {X.k}}
    if target_len > len(X.nodes) or not any(agree.values()):
        # a sub-member places a new node of X per position, and the pinned
        # agreement vetoes every push that completes a disagreeing member
        return _NO_AGREEMENT
    budget = budget or Budget()
    flt = _VectorFits(agree, [()], pinned=[((), True)])
    try:
        _search_member(X.k, (), _Pool(X.nodes), target_len, budget, flt)
    except _Blown:
        return _out_of_budget(budget)
    got = flt.found.get(flt.filters[0])
    if got is None:
        return _NO_AGREEMENT
    return _witness(X.k, got), True


def _approx_str(a):
    return "[" + ",".join(seq_str(w) for w in a.nodes) + "]"


def _checked_family(family, X):
    """The family's distinct members, each of X's dimension; else ValueError."""
    approxs = list(dict.fromkeys(family))
    for a in approxs:
        if a.k != X.k:
            raise ValueError("family and member dimensions differ")
    return approxs


def _checked_approx(a, k):
    if a.k != k:
        raise ValueError("approximation dimension does not match the member")
    _require_valid(a)
    return a
