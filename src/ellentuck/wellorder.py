"""The well-order on finite non-decreasing integer sequences.

Sequences of length at most k are ordered with the empty sequence first,
then primarily by last entry, with ties among equal last entries broken
lexicographically (a proper prefix precedes its extensions). Members of
the order are grouped into blocks by last entry: block e holds every
sequence ending in e, and whole blocks appear in increasing e.

Ranks are 0-based over the nonempty sequences, so rank_of((0,), k) == 0
for every k, and the empty sequence has no rank. The full-length
sequences get their own 0-based numbering via domain_rank / domain_at;
these index the positions of a member function.

The two orders share one numbering. A nonempty s of length <= k is
t + (e,)*m with e its last entry, m >= 1 and every entry of t below e;
phi(s) = t + (e,)*(k - len(s)) + (e+1,)*m maps block e of the length
<= k order onto full-length block e+1, keeping the order, and misses
only (0,)*k. So rank_of(s, k) == domain_rank(phi(s), k) - 1.

The full-length numbering is in closed form (hockey-stick identity).
Block e starts at C(e+k-1, k). Within it, an entry x after an entry lo
(0 for the first), with r entries after it, skips C(e-lo+r, r) -
C(e-x+r, r) sequences, so domain_rank adds one term per rise. domain_at
inverts these sums by galloping searches over the same binomials: the
block, then run by run how many places repeat an entry and which entry
comes next. Both cost O(log e) binomials per distinct entry.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from functools import lru_cache, wraps
from itertools import combinations_with_replacement, islice
from math import comb

from .errors import EmptySequenceError

Seq = tuple[int, ...]

# Every memo here is bounded, so a long-lived process cannot grow it
# without limit; the bound is far above what one search touches.
_CACHE_SIZE = 1 << 16


def _checked_memo(check, maxsize=_CACHE_SIZE):
    """A bounded memo of a function of two positional arguments behind
    check(x, y), which raises on a bad argument and returns the arguments
    to key the memo by.  lru_cache keys True as 1 and 3.0 as 3, also inside
    a tuple, so a check inside the memo would run only on a miss.
    `trusted` is the bare memo, for checked callers."""
    def decorate(fn):
        trusted = lru_cache(maxsize=maxsize)(fn)

        @wraps(fn)
        def checked(x, y):
            x, y = check(x, y)
            return trusted(x, y)

        checked.trusted, checked.cache_info, checked.cache_clear = (
            trusted, trusted.cache_info, trusted.cache_clear)
        return checked
    return decorate


def _check_length(n, what="length"):
    """n, when it is a nonnegative int (a bool is not); else ValueError."""
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise ValueError(f"{what} must be a nonnegative integer, got {n!r}")
    return n


def _check_k(k):
    """k, when it is a positive int (a bool is not); else ValueError."""
    if not isinstance(k, int) or isinstance(k, bool) or k < 1:
        raise ValueError(f"k must be a positive integer, got {k!r}")
    return k


def _as_seq(seq, k=None):
    s = tuple(seq)
    prev = 0
    for v in s:
        if not isinstance(v, int) or isinstance(v, bool) or v < prev:
            # an entry that is no nonnegative int is named first, wherever
            # the order breaks
            if all(isinstance(x, int) and not isinstance(x, bool) and x >= 0 for x in s):
                raise ValueError(f"sequence must be non-decreasing, got {seq!r}")
            raise ValueError(f"sequence entries must be nonnegative integers, got {seq!r}")
        prev = v
    if k is not None and len(s) > k:
        raise ValueError(f"sequence longer than k={k}: {seq!r}")
    return s


def seq_str(seq) -> str:
    """Render a sequence the way the listings write it, e.g. (0,2) or ()."""
    return "(" + ",".join(str(v) for v in seq) + ")"


def order_key(seq):
    """The sort key of the well-order: the empty sequence first, whatever
    the entries, then by last entry, then by plain tuple comparison, which
    is lexicographic with proper prefixes first (the tie-break rule)."""
    s = tuple(seq)
    return (1, s[-1], s) if s else (0,)


def cmp_prec(a, b) -> int:
    """Three-way comparison in the well-order; returns -1, 0 or 1."""
    ka, kb = order_key(a), order_key(b)
    return (ka > kb) - (ka < kb)


def _phi(s, k):
    # t + (e,)*m  ->  t + (e,)*(k - len(s)) + (e+1,)*m, every entry of t below e
    e = s[-1]
    t = bisect_left(s, e)
    return s[:t] + (e,) * (k - len(s)) + (e + 1,) * (len(s) - t)


def _phi_inv(u):
    # u is full-length and not (0,)*k, so its last entry is at least 1
    e = u[-1] - 1
    return u[: bisect_left(u, e)] + (e,) * (len(u) - bisect_left(u, e + 1))


def iter_le_k(k):
    """All sequences of length <= k in order, starting with ()."""
    full = iter_k(k)
    next(full)  # (0,)*k, the one full-length sequence phi misses
    yield ()
    for u in full:
        yield _phi_inv(u)


def iter_k(k):
    """All full-length (length exactly k) sequences in order."""
    _check_k(k)
    e = 0
    while True:
        for c in combinations_with_replacement(range(e + 1), k - 1):
            yield c + (e,)
        e += 1


def enumerate_le_k(k, count) -> list[Seq]:
    """The first `count` members of the order on sequences of length <= k."""
    if count < 0:
        raise ValueError("count must be nonnegative")
    return list(islice(iter_le_k(k), count))


def enumerate_k(k, count) -> list[Seq]:
    """The first `count` full-length sequences in order."""
    if count < 0:
        raise ValueError("count must be nonnegative")
    return list(islice(iter_k(k), count))


def _least(a, t):
    # the least d >= 0 with C(d+a, a) >= t, for t >= 1 (and t == 1 if
    # a == 0): double an upper bound from the low end, then halve the gap
    lo, hi = -1, 0
    while comb(hi + a, a) < t:
        lo, hi = hi, 2 * hi + 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if comb(mid + a, a) < t:
            lo = mid
        else:
            hi = mid
    return hi


def _full_rank(s, k):
    e = s[-1]
    rank = comb(e + k - 1, k)
    lo, i = 0, bisect_right(s, 0)  # a repeated entry skips nothing
    while i < k - 1:
        x, r = s[i], k - 1 - i
        rank += comb(e - lo + r, r) - comb(e - x + r, r)
        lo, i = x, bisect_right(s, x, i)
    return rank


def _full_at(n, k):
    e = _least(k, n + 1)
    p = n - comb(e + k - 1, k)
    # s holds the entries placed so far, and `left` places remain before
    # the last entry e. Of the sequences in block e that begin with s and
    # take each remaining entry from x..e, C(e-x+left, left) in all, p is
    # the position of the n-th; the first C(e-x+j, j) of them repeat x
    # in all but their last j places
    s, x, left = [], 0, k - 1
    while left:
        run = left - _least(e - x, p + 1)
        s += [x] * run
        left -= run
        if left:
            # the next entry rises to e - d, the largest value that at
            # least total - p of the sequences reach here
            total = comb(e - x + left, left)
            d = _least(left, total - p)
            p -= total - comb(d + left, left)
            x = e - d
            s.append(x)
            left -= 1
    s.append(e)
    return tuple(s)


@_checked_memo(lambda seq, k: (_as_seq(seq, _check_k(k)), k))
def rank_of(seq: Seq, k: int) -> int:
    """0-based position of a nonempty sequence among nonempty ones."""
    if not seq:
        raise EmptySequenceError("the empty sequence has no rank")
    return _full_rank(_phi(seq, k), k) - 1


@_checked_memo(lambda rank, k: (_check_length(rank, "rank"), _check_k(k)))
def seq_at_rank(rank: int, k: int) -> Seq:
    """Inverse of rank_of."""
    return _phi_inv(_full_at(rank + 1, k))


@_checked_memo(lambda seq, k: (_as_seq(seq, _check_k(k)), k))
def domain_rank(seq: Seq, k: int) -> int:
    """0-based position of a full-length sequence among full-length ones."""
    if len(seq) != k:
        raise ValueError(f"expected a length-{k} sequence, got {seq!r}")
    return _full_rank(seq, k)


@_checked_memo(lambda n, k: (_check_length(n, "position"), _check_k(k)))
def domain_at(n: int, k: int) -> Seq:
    """The n-th full-length sequence (the n-th position of a member)."""
    return _full_at(n, k)


def classify_n(k: int, n: int) -> int:
    """The level l such that step n forces a length-l prefix but not l+1.

    Concretely: the number of entries of the n-th full-length sequence
    that are strictly below its last entry. 0 means the step opens a
    fresh branch at the root.
    """
    s = domain_at(n, k)
    last = s[-1]
    return sum(1 for v in s if v < last)
