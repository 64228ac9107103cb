"""Partition calculus on finite truncations.

All searches in this module run over sub-members of a fixed truncated
member X, so every result is a statement about the finite data actually
supplied.  Searches are complete depth-first enumerations in the
well-order (least fresh node first) with a budget on visited states;
when the budget runs out the outcome is an Exhausted value rather than
a wrong answer.  A search given no budget gets Budget(), 10**6 states;
an outcome follows from the arguments of its call alone.

Which node may fill the next position is decided by space._Slot and
nowhere else here.  The search core and the front walk draw each
position's candidates from a space._Pool, the supply indexed by forced
prefix once per public call, which only narrows what the slot is shown.
A canonical relation is agreement of coordinatewise projections, which
on finite data is one check: the map from projection key to class stays
a bijection.
_FitFilter alone holds that map, and each search hands it a source of
(key, class) pairs: a dict by new node when they depend on that node
alone, or else a function that also reads the placed nodes.  A level
fit's dict covers the one-step extensions only, built once per level;
any other node forms no pair.  pigeonhole is level 0 with the color
pinned, since a coloring is constant on the one-step extensions exactly
when "same color" is E_0.  irreducible_agreement pins agreement the
same way: each family member a push completes forms the pair ((),
whether the two maps agree on it), so a disagreeing member vetoes the
push.
canonize_relation runs one search for every projection vector, which
finds the n-approximations a new node completes and their classes once
for all of them; a state is one placement tried, however many vectors
it serves.  Each completed n-approximation is projected under every
vector once per call and kept until the call returns, so that cache
holds at most the distinct n-approximations of the supply the search
completes, and a push that completes none forms no pair and pushes no
filter.  Coloring, Relation and InnerMap are one extensional table,
_Table.

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
spending a state.  Only a filter whose pairs come from a dict gives a
signature, so pigeonhole and the level fits are memoized, while the
agreement and relation searches, whose pairs read the placed nodes,
search in full.
"""

import itertools
from dataclasses import dataclass
from functools import partial
from operator import getitem, itemgetter

from .errors import (
    AmbiguousAtScale,
    DisagreeWitness,
    Exhausted,
    NotCanonicalAtScale,
)
from .space import (
    Approx,
    Member,
    _Pool,
    _check_length,
    _extend,
    _require_valid,
    _Slot,
    depth_of,
    one_extensions,
    position_info,
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
    they hold (_what) and how a value is stored (_value).
    """

    @staticmethod
    def _value(v):
        return v

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


class Coloring(_Table):
    """Finite map from approximations to integer colors."""

    _what = "coloring"
    _value = int
    of = _Table._lookup

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
        l, a = position_info(k, p)
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
    if flt.signature() is not None:
        # each placement draws a new pool node and spends a state, so the
        # slots past len(pool) or the budget's headroom are never filled
        headroom = max(0, min(len(pool), budget.limit - budget.used))
        reads = _placed_prefixes(k, len(base), min(target_len, len(base) + headroom + 1))
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


def _out_of_budget(budget):
    return Exhausted("budget", "state budget ran out at %d" % budget.used)


class _NoFilter:
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

    pairs gives the (key, class) pairs that placing w after nodes forms:
    a dict by w, when they depend on w alone, or else a function
    pairs(w, nodes).  Each is checked before the next is drawn, so a veto
    comes before any later class lookup.  Pinned pairs hold from the
    start.  accept keeps a member with at least one pair and, for each
    floor pair (c1, c2) of levels, two placed nodes that agree up to c1
    but not up to c2, so no other candidate level can fit the same data.
    """

    def __init__(self, pairs, pinned=(), floor_pairs=()):
        self.pairs = pairs
        self.by_node = isinstance(pairs, dict)
        self.floor_pairs = floor_pairs
        self.key_class = dict(pinned)
        self.class_key = {c: key for key, c in pinned}
        self.placed = []  # the pushed nodes that formed a pair
        self.trail = []  # per push, the keys it inserted; None if no pair
        # per number of placed nodes on the path, the signature once built:
        # with pairs by node the placed nodes fix it
        self.sigs = [None]

    def try_push(self, nodes, w):
        key_class, class_key, pairs = self.key_class, self.class_key, self.pairs
        # a list once a pair passes; most pushes are vetoed at their first
        inserted = None
        for key, c in pairs.get(w, ()) if self.by_node else pairs(w, nodes):
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
        pairs read the placed nodes, which then are the signature."""
        if not self.by_node:
            return None
        if self.sigs[-1] is None:
            self.sigs[-1] = (bool(self.placed), *self._floor_states(),
                             *sorted(self.key_class.items()))
        return self.sigs[-1]


def _candidate_levels(k, n):
    """The levels step n may project to: 0, or above its branching level."""
    return [0, *range(classify_n(k, n) + 1, k + 1)]


def _level_pairs(color_of, level):
    """pairs of a level fit, by node: the (level prefix, color) pair of a
    one-step extension's new node; any other node forms none."""
    return {w: ((w[:level], c),) for w, c in color_of.items()}


def _colored_extensions(a, X, coloring, target_len):
    """The prologue of the searches over one-step extensions of a in X.

    Checks target_len and a, and returns the depth prefix of a in X,
    which every witness keeps, with the {new node: color} map over the
    one-step extensions of a in X; raises ValueError when the coloring
    misses one of them.
    """
    _check_length(target_len, "target length")
    a = _checked_approx(a, X.k)
    d = depth_of(X, a)
    if target_len < d:
        raise ValueError("target length is below the depth of the approximation")
    color_of = {b.nodes[-1]: coloring.of(b) for b in one_extensions(a, X)}
    return X.nodes[:d], color_of


def pigeonhole(a, X, coloring, target_len, budget=None):
    """Monochromatic sub-member for a coloring of one-step extensions.

    Searches for Y with r_d(Y) = r_d(X) (d the depth of a in X) and
    target_len nodes such that every one-step extension of a inside Y
    gets the same color.  Returns (Y, color), trying colors in
    ascending order, or Exhausted.  Each color is tried as a level-0
    canonization with that color pinned.  The homogeneity certificate
    is re-checked by enumeration before returning.
    """
    base, color_of = _colored_extensions(a, X, coloring, target_len)
    budget = budget or Budget()
    pool = _Pool(X.nodes)
    try:
        if not color_of:
            got = _search_member(X.k, base, pool, target_len, budget, _NoFilter())
            if got is None:
                return Exhausted("supply", "no completion from the depth prefix")
            return Member(X.k, got), None
        pairs = _level_pairs(color_of, 0)
        for color in sorted(set(color_of.values())):
            flt = _FitFilter(pairs, pinned=[((), color)])
            got = _search_member(X.k, base, pool, target_len, budget, flt)
            if got is not None:
                Y = Member(X.k, got)
                seen = {coloring.of(b) for b in one_extensions(a, Y)}
                if seen != {color}:
                    raise AssertionError("homogeneity certificate failed")
                return Y, color
    except _Blown:
        return _out_of_budget(budget)
    return Exhausted("supply", "no color admits a homogeneous sub-member")


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
    """
    base, color_of = _colored_extensions(s, X, coloring, target_len)
    budget = budget or Budget()
    candidates = _candidate_levels(X.k, len(s.nodes))
    floor_pairs = list(zip(candidates, candidates[1:]))
    pool = _Pool(X.nodes)
    fits = []
    blown = False
    for level in candidates:
        pairs = _level_pairs(color_of, level)
        flt = _FitFilter(pairs, floor_pairs=floor_pairs)
        try:
            got = _search_member(X.k, base, pool, target_len, budget, flt)
        except _Blown:
            blown = True
            break
        if got is not None:
            fits.append((level, Member(X.k, got)))
    if len(fits) > 1:
        return AmbiguousAtScale(candidates=tuple(level for level, _ in fits))
    if blown:
        return _out_of_budget(budget)
    if fits:
        level, Y = fits[0]
        return Y, CanonicalRelation(level)
    return Exhausted("supply", "no projection level fits a sub-member")


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


class _UnlistedRow:
    """The row of an n-approximation b that the relation does not list
    (or lists with class None): item i looks b's class up only when vector
    i's filter reaches it, so the relation raises where that vector's own
    search would, and not for a vector that a pair before b vetoes."""

    def __init__(self, relation, k, b, slices):
        self.relation, self.k, self.b, self.slices = relation, k, b, slices

    def __getitem__(self, i):
        c = self.relation.class_id(Approx(self.k, self.b))
        return tuple(map(getitem, self.b, self.slices[i])), c


class _VectorFits:
    """Every vector's fit in one search: a _FitFilter per vector, all fed
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
    nodes.  A vector is resolved at its first leaf or at the first class
    it misses; accept then backtracks to the deepest level still live.
    So each vector gets its solo witness, and the states are the union of
    the solo searches' states.  A push under an empty live list is vetoed.
    """

    def __init__(self, relation, k, n, vectors):
        classes = {a.nodes: c for a, c in relation.items() if a.k == k}
        self.k, self.relation, self.class_of = k, relation, classes.get
        self.slices = [[slice(l) for l in v] for v in vectors]
        self.levels = [position_info(k, j)[0] for j in range(n)]
        self.tables = [{(): [((), _Slot(k, (), -1))]}] + [{} for _ in range(1, n)]
        self.trail, self.rows = [], {}
        self.completed = []  # the rows of what the current push completes
        self.filters = [_FitFilter(partial(self._pairs, itemgetter(i)))
                        for i in range(len(vectors))]
        self.live = [self.filters]
        self.found = {}  # filter -> witness nodes, or the error its search raised

    def _pairs(self, item, w, nodes):
        return map(item, self.completed)

    def _row(self, b):
        """b's (key, class) pair under every vector, kept for the call."""
        c = self.class_of(b)
        if c is None:
            row = _UnlistedRow(self.relation, self.k, b, self.slices)
        else:
            row = tuple((tuple(map(getitem, b, s)), c) for s in self.slices)
        self.rows[b] = row
        return row

    def _extended(self, j, w):
        group = self.tables[j].get(w[:self.levels[j]], ())
        return [c + (w,) for c, slot in group if slot.admits(w)]

    def try_push(self, nodes, w):
        live = self.live[-1]
        completed = self._extended(-1, w)
        if completed:
            rows = self.rows
            self.completed = [rows[b] if b in rows else self._row(b) for b in completed]
            kept = []
            for f in live:
                try:
                    if f.try_push(nodes, w):
                        kept.append(f)
                except ValueError as err:
                    self._resolve(f, err)
            live = kept
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

    def signature(self):
        # a vector's future pairs read every placed node
        return None

    def accept(self, nodes):
        for f in self.live[-1]:
            if f.accept(nodes) == len(nodes):
                self._resolve(f, tuple(nodes))
        # live lists only shrink with depth, so the nonempty ones lead
        return sum(map(bool, self.live[:-1])) - 1

    def _resolve(self, f, outcome):
        self.found[f] = outcome
        self.live = [[g for g in level if g is not f] for level in self.live]
        self.settle(done=False)

    def settle(self, done):
        """Raise the error of the least vector that raised once those before
        it fit, as one search per vector would; done: the rest did not fit."""
        for f in self.filters:
            got = self.found.get(f)
            if isinstance(got, ValueError):
                raise got
            if got is None and not done:
                return


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
    even if some had fit by then.
    """
    if X.k != k:
        raise ValueError("member dimension does not match k")
    if n < 1:
        raise ValueError("approximation length must be at least 1")
    _check_length(target_len, "target length")
    if target_len < n:
        raise ValueError("target length cannot be below the approximation length")
    budget = budget or Budget()
    vectors = admissible_vectors(k, n)
    flt = _VectorFits(relation, k, n, vectors)
    try:
        _search_member(k, (), _Pool(X.nodes), target_len, budget, flt)
    except _Blown:
        return _out_of_budget(budget)
    flt.settle(done=True)
    fits = [(v, Member(k, flt.found[f])) for v, f in zip(vectors, flt.filters)
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
    approximations below X depth first; a chain is closed off as soon
    as it hits the family, and a maximal chain that never does is
    returned as the counterexample.  Each approximation visited is one
    state of the budget; Exhausted when it runs out.
    """
    approxs = list(dict.fromkeys(family))
    for a in approxs:
        if a.k != X.k:
            raise ValueError("family and member dimensions differ")
    if not nash_williams_check(approxs):
        raise ValueError("family fails the no-end-extension check")
    budget = budget or Budget()
    hits = set(approxs)
    # one_extensions' order; only a node of length k is ever admitted
    pool = _Pool(sorted((w for w in X.nodes if len(w) == X.k), key=max))
    # one lazy stream of pending siblings per level of the walk, each with
    # its largest index: an admitted node's maximum is the new running maximum
    stack = [iter(((Approx(X.k), -1),))]
    while stack:
        cur, floor = next(stack[-1], (None, None))
        if cur is None:
            stack.pop()
        elif not budget.spend():
            return _out_of_budget(budget)
        elif cur not in hits:
            slot = _Slot(X.k, cur.nodes, floor)
            nodes = slot.candidates(pool.near(slot))
            first = next(nodes, None)
            if first is None:
                return CoverReport(False, counterexample=cur)
            # cur is bound now: the stream is drawn from after cur moves on
            stack.append(map(partial(_child, cur), itertools.chain((first,), nodes)))
    return CoverReport(True)


def _child(a, w):
    """The walk's entry for a with w appended: the child and its floor."""
    return _extend(a, w), max(w)


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
        return tuple(int(c) for c in v)

    @classmethod
    def uniform(cls, vector, family):
        return cls({a: tuple(vector) for a in family})

    def image(self, a):
        return proj_image(a, self.vector_for(a))


def inner_check(phi, family):
    """True when phi assigns every family member a well-formed vector."""
    for a in family:
        try:
            v = phi.vector_for(a)
        except ValueError:
            return False
        if len(v) != len(a.nodes):
            return False
        if any(not 0 <= c <= a.k for c in v):
            return False
    return True


def irreducible_check(phi, family):
    """Inner and no image is a strict partial stage of another image.

    For approximations a, b in the family, if the image of a equals
    the partial image of b built from its first n nodes, the full
    images must already agree; otherwise phi could be reduced on b.
    """
    approxs = list(dict.fromkeys(family))
    if not inner_check(phi, approxs):
        return False
    images = {a: phi.image(a) for a in approxs}
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
    every family member inside A, with at least one such member.
    """
    _check_length(target_len, "target length")
    supply = set(X.nodes)
    approxs = [a for a in dict.fromkeys(family) if supply.issuperset(a.nodes)]
    for a in approxs:
        if a.k != X.k:
            raise ValueError("family and member dimensions differ")
    images = []
    for phi, tag in ((phi1, "first"), (phi2, "second")):
        image = {a: phi.image(a) for a in approxs}
        images.append(image)
        flt = _FitFilter(lambda a, _: ((image[a], relation.class_id(a)),))
        for j, b in enumerate(approxs):
            if not flt.try_push((), b):
                # b breaks the bijection, so an earlier member disagrees with it
                a = next(a for a in approxs[:j]
                         if relation.related(a, b) != (image[a] == image[b]))
                return DisagreeWitness(
                    a=a,
                    b=b,
                    detail="the %s map does not canonize the relation on %s, %s"
                    % (tag, _approx_str(a), _approx_str(b)),
                )
    first, second = images
    by_node = {}  # node -> (other nodes, pair) of each member holding it
    for a in approxs:
        pair = ((), first[a] == second[a])
        for w in set(a.nodes):
            by_node.setdefault(w, []).append((set(a.nodes) - {w}, pair))

    def completed(w, nodes):
        # the members w completes, each paired with whether the maps agree
        return (pair for others, pair in by_node.get(w, ()) if all(v in nodes for v in others))

    budget = budget or Budget()
    # agreement is pinned, so a disagreeing member vetoes the push, and
    # accept's "at least one pair" asks for at least one member inside
    flt = _FitFilter(completed, pinned=[((), True)])
    try:
        got = _search_member(X.k, (), _Pool(X.nodes), target_len, budget, flt)
    except _Blown:
        return _out_of_budget(budget)
    if got is None:
        return Exhausted("supply", "no sub-member carries an agreeing family member")
    return Member(X.k, got), True


def _approx_str(a):
    return "[" + ",".join(seq_str(w) for w in a.nodes) + "]"


def _checked_approx(a, k):
    if a.k != k:
        raise ValueError("approximation dimension does not match the member")
    _require_valid(a)
    return a
