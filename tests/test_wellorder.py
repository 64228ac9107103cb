"""Order fidelity. The oracle here is a literal transcription of the
order definition as a sort key, kept independent of the closed forms
inside the implementation."""

import io
import itertools
import sys
from math import comb, isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellentuck import cli
from ellentuck import wellorder as wo
from ellentuck.errors import EmptySequenceError
from ellentuck.space import build_w

from helpers import oracle_block, oracle_domain_at, oracle_seq_at_rank


def oracle_key(s):
    # empty first, then last entry, then lex with prefixes first;
    # plain tuple comparison already does prefix-first lex
    return (-1, ()) if not s else (s[-1], s)


def all_seqs(k, max_entry):
    out = [()]
    for length in range(1, k + 1):
        out.extend(itertools.combinations_with_replacement(range(max_entry + 1), length))
    return out


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
def test_enumeration_matches_definition_sort(k):
    seqs = sorted(all_seqs(k, 6), key=oracle_key)
    assert wo.enumerate_le_k(k, len(seqs)) == seqs


def test_listing_k2():
    assert wo.enumerate_le_k(2, 10) == [
        (), (0,), (0, 0), (0, 1), (1,), (1, 1), (0, 2), (1, 2), (2,), (2, 2),
    ]
    assert wo.enumerate_le_k(2, 1) == [()]


def test_listing_k3():
    assert wo.enumerate_le_k(3, 19) == [
        (), (0,), (0, 0), (0, 0, 0), (0, 0, 1), (0, 1), (0, 1, 1), (1,),
        (1, 1), (1, 1, 1), (0, 0, 2), (0, 1, 2), (0, 2), (0, 2, 2),
        (1, 1, 2), (1, 2), (1, 2, 2), (2,), (2, 2),
    ]


def test_full_length_listings():
    assert wo.enumerate_k(2, 6) == [(0, 0), (0, 1), (1, 1), (0, 2), (1, 2), (2, 2)]
    assert wo.enumerate_k(3, 4) == [(0, 0, 0), (0, 0, 1), (0, 1, 1), (1, 1, 1)]
    assert wo.enumerate_k(2, 0) == []


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
def test_full_length_is_filtered_enumeration(k):
    le = wo.enumerate_le_k(k, 400)
    full = [s for s in le if len(s) == k]
    assert wo.enumerate_k(k, len(full) - 5)[: len(full) - 5] == full[: len(full) - 5]


def test_cmp_examples():
    assert wo.cmp_prec((1, 1), (0, 2)) == -1
    assert wo.cmp_prec((), (0,)) == -1
    assert wo.cmp_prec((2, 2), (2, 2)) == 0
    assert wo.cmp_prec((0, 2, 3), (0, 3)) == -1
    assert wo.cmp_prec((0, 3), (0, 2, 3)) == 1


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
def test_order_key_matches_the_oracle(k):
    seqs = all_seqs(k, 6)
    assert sorted(seqs, key=wo.order_key) == sorted(seqs, key=oracle_key)
    for a, b in itertools.product(seqs[:40], repeat=2):
        ka, kb = oracle_key(a), oracle_key(b)
        assert wo.cmp_prec(a, b) == (ka > kb) - (ka < kb)


def test_empty_sequence_comes_first_whatever_the_entries():
    assert sorted([(-5,), (), (-1, -1)], key=wo.order_key) == [(), (-5,), (-1, -1)]
    assert wo.cmp_prec((), (-5,)) == -1 and wo.cmp_prec((-5,), ()) == 1


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_block_walk_matches_the_recursive_walk(k):
    """iter_le_k lists block after block as the recursive walk gives
    each, and iter_k lists the full-length members of those blocks."""
    blocks = [list(oracle_block(e, k)) for e in range(7)]
    want = [()] + [s for block in blocks for s in block]
    got = wo.iter_le_k(k)
    assert [next(got) for _ in want] == want
    full = [s for s in want if len(s) == k]
    got = wo.iter_k(k)
    assert [next(got) for _ in full] == full


def test_full_length_walk_yields_only_full_length():
    """At k = 400 block 1 of the full-length order holds 400 sequences,
    and block 0 of the length <= 400 order maps onto it; block 1 of that
    order holds C(401, 399) = 80,200, so block 2 starts at rank
    400 + 80,200 with (0,)*399 + (2,)."""
    assert wo.enumerate_k(400, 401)[1:] == [
        (0,) * (400 - j) + (1,) * j for j in range(1, 401)]
    assert wo.enumerate_le_k(400, 401)[1:] == [(0,) * j for j in range(1, 401)]
    head = (0,) * 399 + (2,)
    assert wo.rank_of(head, 400) == 400 + comb(401, 399) == 400 + 80200
    assert wo.seq_at_rank(400 + 80200, 400) == head


def test_block_property():
    # every sequence with entries <= M precedes any with last entry > M
    seqs = wo.enumerate_le_k(2, 200)
    for m in range(5):
        idx = [i for i, s in enumerate(seqs) if s and max(s) <= m]
        others = [i for i, s in enumerate(seqs) if s and s[-1] > m]
        assert max(idx) < min(others)


def test_rank_examples():
    assert wo.rank_of((0,), 2) == 0
    assert wo.rank_of((0, 0), 2) == 1
    assert wo.rank_of((1,), 2) == 3
    assert wo.rank_of((0, 1, 1), 3) == 5
    assert wo.rank_of((5, 7), 2) == 40
    with pytest.raises(EmptySequenceError):
        wo.rank_of((), 2)


@pytest.mark.parametrize(
    "seq,message",
    [
        ((2, 1), "sequence must be non-decreasing, got (2, 1)"),
        # an entry that is no nonnegative int is named, wherever the order breaks
        ((3, 1, -1), "sequence entries must be nonnegative integers, got (3, 1, -1)"),
        ((3, 1, 0.5), "sequence entries must be nonnegative integers, got (3, 1, 0.5)"),
        ((1, True), "sequence entries must be nonnegative integers, got (1, True)"),
        ([0, 2, "x"], "sequence entries must be nonnegative integers, got [0, 2, 'x']"),
    ],
)
def test_a_bad_sequence_is_named_for_its_entries_before_its_order(seq, message):
    for fn in (wo.rank_of, wo.domain_rank):
        with pytest.raises(ValueError) as err:
            fn(seq, 3)
        assert str(err.value) == message


# a k that no tuple length can be
_HUGE_K = "k must be a positive integer <= %d, got %d" % (sys.maxsize, 10 ** 22)


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: wo.enumerate_k(2, -1), "count must be nonnegative"),
        (lambda: wo.enumerate_le_k(3, -2), "count must be nonnegative"),
        (lambda: wo.domain_rank((0,), 2), "expected a length-2 sequence, got (0,)"),
        (lambda: wo.domain_rank((0, 1, 1), 2), "sequence longer than k=2: (0, 1, 1)"),
        (lambda: wo.enumerate_k(10 ** 22, 2), _HUGE_K),
        (lambda: wo.classify_n(10 ** 22, 1), _HUGE_K),
        (lambda: build_w(10 ** 22, 1), _HUGE_K),
    ],
    ids=["enumerate-k", "enumerate-le-k", "domain-short", "domain-long",
         "enumerate-huge-k", "classify-huge-k", "build-w-huge-k"],
)
def test_bad_counts_and_lengths_are_value_errors(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message


def test_seq_at_rank_examples():
    assert wo.seq_at_rank(0, 2) == (0,)
    assert wo.seq_at_rank(6, 2) == (1, 2)
    assert wo.seq_at_rank(18, 3) == (2, 2, 2)
    with pytest.raises(ValueError):
        wo.seq_at_rank(-1, 2)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
def test_rank_round_trip(k):
    for r in range(10_000):
        assert wo.rank_of(wo.seq_at_rank(r, k), k) == r


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
def test_rank_agrees_with_enumeration(k):
    listing = wo.enumerate_le_k(k, 800)
    for i, s in enumerate(listing[1:]):
        assert wo.rank_of(s, k) == i
        assert wo.seq_at_rank(i, k) == s


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
def test_domain_round_trip(k):
    listing = wo.enumerate_k(k, 1500)
    for n, s in enumerate(listing):
        assert wo.domain_at(n, k) == s
        assert wo.domain_rank(s, k) == n


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
def test_list_built_prefix_matches_tuple_concatenation(k):
    """The closed forms of seq_at_rank and domain_at give what the walks
    of the orders give. The walks step once per unit of the last entry,
    which at k = 1 is the position itself, so k = 1 takes fewer points."""
    if k == 1:
        points = list(range(1000)) + [10**5]
    else:
        points = list(range(3000)) + [10**6 + 7 * i for i in range(50)]
    for i in points:
        assert wo.seq_at_rank(i, k) == oracle_seq_at_rank(i, k)
        assert wo.domain_at(i, k) == oracle_domain_at(i, k)


def test_large_values_cost_their_size_not_their_value():
    """The numberings answer at once for positions and ranks far past
    anything a walk of the order could reach, in the library and in the
    CLI; the walks took a minute at 10**16 and never ended at 10**18.
    At k = 10**5 the sequences are long runs of a few values, and the
    search steps once per run."""
    n = 10**18
    e = (isqrt(8 * n + 1) - 1) // 2  # block e of k = 2 starts at e(e+1)/2
    assert wo.domain_at(n, 2) == (n - e * (e + 1) // 2, e)
    for k in (3, 4, 5, 10**5):
        n = 10**30
        assert wo.domain_rank(wo.domain_at(n, k), k) == n
        assert wo.rank_of(wo.seq_at_rank(n, k), k) == n
    out, err = io.StringIO(), io.StringIO()
    node = '{"k":2,"nodes":[[0,%d]]}' % 10**18
    assert cli.main(["validate", "--file", node], out=out, err=err) == 1
    assert cli.main(["classify-n", "--k", "2", "--n", str(10**16)], out=out, err=err) == 0
    s = wo.domain_at(10**16, 2)
    assert out.getvalue() == "%d\n" % (s[0] < s[1])


def _st_seq(k, hi):
    return st.lists(st.integers(0, hi), min_size=0, max_size=k).map(
        lambda xs: tuple(sorted(xs))
    )


@settings(max_examples=300)
@given(a=_st_seq(3, 12), b=_st_seq(3, 12), c=_st_seq(3, 12))
def test_cmp_is_a_total_order(a, b, c):
    ab, ba = wo.cmp_prec(a, b), wo.cmp_prec(b, a)
    assert ab == -ba
    assert (ab == 0) == (a == b)
    if ab <= 0 and wo.cmp_prec(b, c) <= 0:
        assert wo.cmp_prec(a, c) <= 0


@settings(max_examples=200)
@given(a=_st_seq(3, 9).filter(len), b=_st_seq(3, 9).filter(len))
def test_cmp_agrees_with_rank(a, b):
    ra, rb = wo.rank_of(a, 3), wo.rank_of(b, 3)
    assert wo.cmp_prec(a, b) == (ra > rb) - (ra < rb)


def test_classify_examples():
    assert wo.classify_n(2, 0) == 0
    assert wo.classify_n(2, 1) == 1
    assert wo.classify_n(3, 5) == 2
    assert wo.classify_n(3, 9) == 0
    assert wo.classify_n(3, 1) == 2


def test_classify_diagonal_k2():
    # for k=2 a step opens a fresh branch exactly at the diagonals (e,e)
    for n in range(200):
        s = wo.domain_at(n, 2)
        assert (wo.classify_n(2, n) == 0) == (s[0] == s[1])


def test_seq_str():
    assert wo.seq_str(()) == "()"
    assert wo.seq_str((2, 3)) == "(2,3)"
