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
"""

from __future__ import annotations

from functools import lru_cache
from itertools import islice
from math import comb

from .errors import EmptySequenceError

Seq = tuple[int, ...]

# Every memo here is bounded, so a long-lived process cannot grow it
# without limit; the bound is far above what one search touches.
_CACHE_SIZE = 1 << 16


def _as_seq(seq, k=None):
    s = tuple(seq)
    for v in s:
        if not isinstance(v, int) or isinstance(v, bool) or v < 0:
            raise ValueError(f"sequence entries must be nonnegative integers, got {seq!r}")
    if any(s[i] > s[i + 1] for i in range(len(s) - 1)):
        raise ValueError(f"sequence must be non-decreasing, got {seq!r}")
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


def _block(e, k, shortest=1):
    # preorder walk, in lex order, over sequences with entries <= e and
    # length <= k, yielding those that end in e and are no shorter than
    # shortest; seq is its position, copied only when yielded
    seq = []
    while True:
        if len(seq) < k:
            seq.append(seq[-1] if seq else 0)  # first child
        else:
            while seq and seq[-1] == e:  # no next sibling: climb
                seq.pop()
            if not seq:
                return
            seq[-1] += 1  # next sibling
        if seq[-1] == e and len(seq) >= shortest:
            yield tuple(seq)


def iter_le_k(k):
    """All sequences of length <= k in order, starting with ()."""
    if k < 1:
        raise ValueError("k must be at least 1")
    yield ()
    e = 0
    while True:
        yield from _block(e, k)
        e += 1


def iter_k(k):
    """All full-length (length exactly k) sequences in order."""
    if k < 1:
        raise ValueError("k must be at least 1")
    e = 0
    while True:
        yield from _block(e, k, k)
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


# Block combinatorics. Block e (length <= k, last entry e) has
# C(e+k, k-1) members, so the nonempty rank of the block head is
# C(e+k, k) - 1. Within a block, ranks follow the lex walk of _block;
# counting uses the number of end-at-e completions under a given prefix.


def _ext_count(d, rem):
    # completions strictly extending a prefix whose last entry is e-d,
    # with rem slots left, that end at e
    if rem < 1:
        return 0
    return comb(d + rem, rem - 1)


@lru_cache(maxsize=_CACHE_SIZE)
def rank_of(seq: Seq, k: int) -> int:
    """0-based position of a nonempty sequence among nonempty ones."""
    s = _as_seq(seq, k)
    if not s:
        raise EmptySequenceError("the empty sequence has no rank")
    e = s[-1]
    rank = comb(e + k, k) - 1
    for i, x in enumerate(s):
        lo = s[i - 1] if i else 0
        for v in range(lo, x):
            # v < x <= e, so a sibling starting with v never ends at e itself
            rank += _ext_count(e - v, k - (i + 1))
        if i + 1 < len(s) and x == e:
            rank += 1  # this proper prefix ends at e and was emitted first
    return rank


@lru_cache(maxsize=_CACHE_SIZE)
def seq_at_rank(rank: int, k: int) -> Seq:
    """Inverse of rank_of."""
    if not isinstance(rank, int) or isinstance(rank, bool) or rank < 0:
        raise ValueError(f"rank must be a nonnegative integer, got {rank!r}")
    if k < 1:
        raise ValueError("k must be at least 1")
    e = 0
    while comb(e + 1 + k, k) - 1 <= rank:
        e += 1
    rem = rank - (comb(e + k, k) - 1)
    prefix = []  # a list, so each step appends in O(1)
    while True:
        if prefix and prefix[-1] == e:
            if rem == 0:
                return tuple(prefix)
            rem -= 1
        lo = prefix[-1] if prefix else 0
        for v in range(lo, e + 1):
            t = (1 if v == e else 0) + _ext_count(e - v, k - len(prefix) - 1)
            if rem < t:
                prefix.append(v)
                break
            rem -= t
        else:  # pragma: no cover - the block arithmetic above prevents this
            raise AssertionError("rank walked off its block")


def _full_count(e, v, rem):
    # length-rem completions from last entry v that end at e
    if rem < 1:
        return 1 if v == e else 0
    return comb(e - v + rem - 1, rem - 1)


@lru_cache(maxsize=_CACHE_SIZE)
def domain_rank(seq: Seq, k: int) -> int:
    """0-based position of a full-length sequence among full-length ones."""
    s = _as_seq(seq, k)
    if len(s) != k:
        raise ValueError(f"expected a length-{k} sequence, got {seq!r}")
    e = s[-1]
    rank = comb(e + k - 1, k)
    for i, x in enumerate(s):
        lo = s[i - 1] if i else 0
        for v in range(lo, x):
            rank += _full_count(e, v, k - (i + 1))
    return rank


@lru_cache(maxsize=_CACHE_SIZE)
def domain_at(n: int, k: int) -> Seq:
    """The n-th full-length sequence (the n-th position of a member)."""
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise ValueError(f"position must be a nonnegative integer, got {n!r}")
    if k < 1:
        raise ValueError("k must be at least 1")
    e = 0
    while comb(e + k, k) <= n:
        e += 1
    rem = n - comb(e + k - 1, k)
    prefix = []  # a list, so each step appends in O(1)
    while len(prefix) < k:
        lo = prefix[-1] if prefix else 0
        for v in range(lo, e + 1):
            t = _full_count(e, v, k - len(prefix) - 1)
            if rem < t:
                prefix.append(v)
                break
            rem -= t
        else:  # pragma: no cover
            raise AssertionError("position walked off its block")
    return tuple(prefix)


@lru_cache(maxsize=_CACHE_SIZE)
def classify_n(k: int, n: int) -> int:
    """The level l such that step n forces a length-l prefix but not l+1.

    Concretely: the number of entries of the n-th full-length sequence
    that are strictly below its last entry. 0 means the step opens a
    fresh branch at the root.
    """
    s = domain_at(n, k)
    last = s[-1]
    return sum(1 for v in s if v < last)
