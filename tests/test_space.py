import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellentuck import cli, constructions, formats, ramsey, space
from ellentuck import wellorder as wo
from ellentuck.errors import (
    LevelOutOfRangeError,
    MalformedNodeError,
    TruncationExhaustedError,
)
from ellentuck.space import (
    Approx,
    Member,
    _Pool,
    _Slot,
    admits,
    basic_set_contains,
    build_w,
    decode_node,
    depth_of,
    le_fin,
    one_extensions,
    project,
    r_approx,
    validate_approx,
    wk_node,
)

from figures import R4_E3, R5_E3, R6_E2, R10_E2, W2_LEAVES, W3_LEAVES
from helpers import (
    oracle_extensions,
    oracle_level,
    oracle_position_info,
    random_sub_member,
    sub_approxs_up_to,
)


def approx(k, nodes):
    return Approx(k, tuple(tuple(w) for w in nodes))


def member(k, nodes):
    return Member(k, tuple(tuple(w) for w in nodes))


def test_a_member_is_an_approx_equal_by_dimension_and_nodes():
    """A truncation is the pair (k, nodes), as a dict or set key too."""
    assert Member is Approx
    assert [f.name for f in dataclasses.fields(Approx)] == ["k", "nodes"]
    nodes = build_w(2, 6).nodes
    plain, built = Approx(2, nodes), build_w(2, 6)
    assert plain == built and hash(plain) == hash(built)
    assert {built: 1}[plain] == 1 and len({plain, built}) == 1
    assert plain != Approx(2, nodes[:5]) and Approx(2) != Approx(3)


# ---------------------------------------------------------------- nodes


def test_wk_node_examples():
    assert wk_node((0, 0)) == (0, 1)
    assert wk_node((1, 2)) == (3, 6)
    assert wk_node((0, 1, 2)) == (0, 4, 10)
    assert wk_node(()) == ()


def test_decode_inverts_wk_node():
    for k in (2, 3):
        for n in range(120):
            s = wo.domain_at(n, k)
            assert decode_node(wk_node(s, k), k) == s


def test_decode_rejects_garbage():
    with pytest.raises(MalformedNodeError):
        decode_node((1, 2), 2)  # 1 already has length 2
    with pytest.raises(MalformedNodeError):
        decode_node((0, 3), 2)  # 3 decodes to a length-1 sequence
    with pytest.raises(MalformedNodeError):
        decode_node((0, 4, 9), 3)  # (0,1) then (0,0,2): chain breaks
    with pytest.raises(MalformedNodeError):
        decode_node((), 2)


def test_project_examples():
    assert project((3, 6), 1) == (3,)
    assert project((0, 4, 10), 2) == (0, 4)
    assert project((3, 6), 0) == ()
    with pytest.raises(LevelOutOfRangeError):
        project((3, 6), 3)
    with pytest.raises(LevelOutOfRangeError):
        project((3, 6), -1)


# ------------------------------------------------------------ prototype


def test_build_w_matches_figures():
    assert list(build_w(2, 15).nodes) == W2_LEAVES
    assert list(build_w(3, 20).nodes) == W3_LEAVES
    assert build_w(2, 0).nodes == ()


def test_build_w_rejects_a_negative_length():
    with pytest.raises(ValueError):
        build_w(2, -2)


def test_every_cache_is_bounded():
    """Every memo cache of the package holds at most a fixed number of
    entries, so a long-lived process cannot grow it without limit."""
    caches = {
        value
        for module in (cli, constructions, formats, ramsey, space, wo)
        for value in vars(module).values()
        if hasattr(value, "cache_info")
    }
    assert decode_node in caches and wo.rank_of in caches
    for cache in caches:
        assert cache.cache_info().maxsize is not None, cache.__wrapped__.__name__


@pytest.mark.parametrize("k", [2, 3, 4])
def test_build_w_validates(k):
    assert validate_approx(build_w(k, 500)).ok


@pytest.mark.parametrize("k", [2, 3])
def test_build_w_tree_is_bijective(k):
    x = build_w(k, 300)
    fwd, bwd = {}, {}
    for p, node in enumerate(x.nodes):
        dom = wo.domain_at(p, k)
        for l in range(1, k + 1):
            fwd[dom[:l]] = node[:l]
            bwd[node[:l]] = dom[:l]
    assert len(fwd) == len(bwd)
    assert all(bwd[v] == d for d, v in fwd.items())


# ------------------------------------------------------------ validation


def test_validate_figures():
    assert validate_approx(approx(2, R6_E2)).ok
    assert validate_approx(approx(3, R4_E3)).ok
    assert validate_approx(approx(3, R5_E3)).ok


def test_validate_flags_the_broken_figure():
    report = validate_approx(approx(2, R10_E2))
    assert not report.ok
    assert report.condition == "ii"
    assert report.location == (2, 3)
    assert "(ii) at (2,3)" in report.message


def test_validate_small_cases():
    assert validate_approx(approx(2, [(0, 1)])).ok
    assert validate_approx(approx(2, [])).ok
    assert validate_approx(approx(2, [(3, 6)])).ok


def test_validate_condition_iii():
    # second node jumps to a fresh branch while its domain stays on the first,
    # so the induced prefix map stops being a function
    report = validate_approx(approx(2, [(0, 1), (3, 6)]))
    assert not report.ok
    assert report.condition == "iii"
    assert report.location == (0,)


def test_validate_rejects_malformed():
    with pytest.raises(MalformedNodeError):
        validate_approx(approx(2, [(0, 1), (1, 2)]))
    with pytest.raises(MalformedNodeError):
        validate_approx(approx(2, [(0, 1, 4)]))  # wrong length for k=2


def test_validate_reports_least_location():
    # max violations at (0,1) and (0,2) plus a reuse at (0,2); the
    # earliest prefix in the order is the one reported
    bad = [(0, 5), (0, 2), (7, 8), (0, 5)]
    report = validate_approx(approx(2, bad))
    assert not report.ok
    assert report.condition == "ii"
    assert report.location == (0, 1)


# --------------------------------------------------------- restrictions


def test_r_approx_and_monotone():
    x = build_w(2, 15)
    assert r_approx(x, 0).nodes == ()
    assert list(r_approx(x, 4).nodes) == W2_LEAVES[:4]
    with pytest.raises(TruncationExhaustedError):
        r_approx(x, 16)
    for m in range(15):
        assert le_fin(r_approx(x, m), r_approx(x, m + 1))


def test_le_fin_oracle_and_order():
    x = build_w(2, 30)
    pool = sub_approxs_up_to(x, 3)
    rng = random.Random(7)
    sample = rng.sample(pool, 120)
    for a in sample:
        assert le_fin(a, a)
    for _ in range(4000):
        a, b = rng.choice(pool), rng.choice(pool)
        assert le_fin(a, b) == (frozenset(a.nodes) <= frozenset(b.nodes))
        if le_fin(a, b) and le_fin(b, a):
            assert set(a.nodes) == set(b.nodes)
    with pytest.raises(ValueError):
        le_fin(Approx(2), Approx(3))


def test_depth_examples():
    w40 = build_w(2, 40)
    assert depth_of(w40, approx(2, [(3, 6)])) == 5
    x = build_w(2, 15)
    assert depth_of(x, r_approx(x, 3)) == 3
    assert depth_of(x, Approx(2)) == 0
    with pytest.raises(TruncationExhaustedError) as err:
        depth_of(x, approx(2, [wk_node((9, 9), 2)]))
    assert str(err.value) == "approximation not inside the truncation"


# ------------------------------------------------------------ extensions


def test_one_extensions_examples():
    x = build_w(2, 15)
    assert len(one_extensions(Approx(2), x)) == 15
    exts = one_extensions(approx(2, [(0, 1)]), x)
    assert [b.nodes[-1] for b in exts] == [(0, 2), (0, 5), (0, 9), (0, 14)]
    # fresh-branch step: any node opening a new branch above the maximum
    exts2 = one_extensions(approx(2, [(0, 1), (0, 2)]), x)
    assert [b.nodes[-1] for b in exts2] == [
        (3, 4), (3, 6), (7, 8), (3, 10), (7, 11),
        (12, 13), (3, 15), (7, 16), (12, 17), (18, 19),
    ]


@pytest.mark.parametrize("k,n", [(2, 60), (3, 60)])
def test_one_extensions_agree_with_revalidation_oracle(k, n):
    x = build_w(k, n)
    rng = random.Random(11)
    approxes = [r_approx(x, m) for m in (0, 1, 2, 3, 5)]
    for _ in range(6):
        y = random_sub_member(x, 4, rng)
        if y is not None:
            approxes.append(Approx(k, y.nodes))
    for a in approxes:
        got = one_extensions(a, x)
        want = oracle_extensions(a, x)
        assert [b.nodes for b in got] == [b.nodes for b in want]
        for b in got:
            assert validate_approx(b).ok
            assert b.nodes[: len(a)] == a.nodes


@pytest.mark.parametrize("k", [2, 3])
def test_admits_and_one_extensions_follow_the_oracle(k):
    x = build_w(k, 20)
    for a in sub_approxs_up_to(x, 3):
        want = oracle_extensions(a, x)
        assert [b.nodes for b in one_extensions(a, x)] == [b.nodes for b in want]
        new = {b.nodes[-1] for b in want}
        assert [w for w in x.nodes if admits(a, w)] == [w for w in x.nodes if w in new]


@pytest.mark.parametrize("k", [2, 3])
def test_pool_hands_each_slot_every_admitted_node_in_order(k):
    # reversed and shuffled supplies are out of order, so the pool's
    # running maximum, not the order of the nodes, must decide the skip
    x = build_w(k, 20)
    shuffled = list(x.nodes)
    random.Random(4).shuffle(shuffled)
    for supply in (x.nodes, x.nodes[::-1], tuple(shuffled)):
        pool = _Pool(supply)
        for a in sub_approxs_up_to(x, 3):
            slot = _Slot.of(a)
            assert list(slot.candidates(pool.near(slot))) == list(slot.candidates(supply))


def test_pool_counts_its_nodes():
    # the search core bounds its look-ahead by the nodes a pool holds
    assert len(_Pool(())) == 0
    assert len(_Pool(build_w(3, 20).nodes)) == 20


@pytest.mark.parametrize("k,stop", [(1, 200), (2, 600), (3, 600), (4, 300), (5, 300)])
def test_position_info_matches_the_scan(k, stop):
    # the closed-form anchor is the first earlier position whose domain
    # shares the forced prefix, as a scan of every earlier one finds it
    for n in range(stop):
        assert space.position_info(k, n) == oracle_position_info(k, n), n


def test_wrong_length_nodes_are_never_admitted():
    # (5,) opens a fresh branch above every index, (0,) matches the forced
    # prefix of step 1, (0, 3, 7) is too long; none has length k = 2
    x = member(2, [(0, 1), (5,), (0,), (0, 3, 7), (0, 2)])
    for a in (Approx(2), approx(2, [(0, 1)]), approx(2, [(0, 1), (0, 2)])):
        for w in [(5,), (0,), (0, 3, 7)]:
            assert not admits(a, w)
        assert all(len(b.nodes[-1]) == 2 for b in one_extensions(a, x))
        slot = _Slot.of(a)
        assert list(slot.candidates(_Pool(x.nodes).near(slot))) == list(slot.candidates(x.nodes))
    assert [b.nodes[-1] for b in one_extensions(Approx(2), x)] == [(0, 1), (0, 2)]


def _mixed_supply(k, supply, rng):
    """A shuffled supply with junk spliced in: nodes of every length up to
    k + 1 whose entries need not decode or increase."""
    junk = [
        tuple(rng.randrange(40) for _ in range(rng.randint(1, k + 1)))
        for _ in range(rng.randint(1, 20))
    ]
    out = list(supply) + junk
    rng.shuffle(out)
    return out


@settings(max_examples=150, deadline=None)
@given(
    k=st.integers(2, 4),
    kind=st.sampled_from(["ordered", "shuffled", "junk"]),
    rng=st.randoms(use_true_random=False),
)
def test_slots_at_or_above_the_floor_of_a_admit_all_or_none_of_its_extensions(k, kind, rng):
    x = build_w(k, 60)
    a = random_sub_member(x, rng.randint(0, 6), rng, bias=rng.choice([None, 3]))
    if a is None:  # the walk dead-ended; take a prefix of W_k instead
        a = r_approx(x, rng.randint(0, 6))
    supply = list(x.nodes)
    if kind == "shuffled":
        rng.shuffle(supply)
    elif kind == "junk":
        supply = _mixed_supply(k, supply, rng)
    a_slot = _Slot.of(a)
    # a random continuation of a, each of its slots at or above a's floor
    nodes = list(a.nodes)
    for _ in range(rng.randint(0, 8)):
        floor = max((max(w) for w in nodes), default=-1)
        slot = _Slot(k, nodes, floor + rng.choice([0, 0, 1, 3]))
        verdicts = {a_slot.admits(w) for w in slot.candidates(supply)}
        assert len(verdicts) <= 1, (a, nodes, slot.floor)
        picked = list(_Slot(k, nodes, floor).candidates(x.nodes))
        if not picked:
            break
        nodes.append(rng.choice(picked))


def test_slots_along_w2_admit_all_or_none_of_the_extensions_of_a():
    # a = [(0,1)] continues branch 0 at step 1; along W_2 the slots that
    # continue branch 0 (steps 1, 3 and 6) take a's extensions, the others none
    x = build_w(2, 60)
    a = r_approx(x, 1)
    a_slot = _Slot.of(a)
    seen = []
    for p in range(1, 8):
        slot = _Slot(2, x.nodes[:p], max(max(w) for w in x.nodes[:p]))
        verdicts = {a_slot.admits(w) for w in slot.candidates(x.nodes)}
        assert len(verdicts) == 1
        seen.append(verdicts.pop())
    assert seen == [True, False, True, False, False, True, False]


@pytest.mark.parametrize("k", [2, 3])
def test_classify_matches_definitional_oracle_small(k):
    x = build_w(k, 300)
    for n in range(25):
        levels = oracle_level(r_approx(x, n), x)
        assert levels == [wo.classify_n(k, n)]


def test_basic_set_contains():
    w = build_w(2, 15)
    a = r_approx(w, 2)
    assert basic_set_contains(a, w, w)
    assert basic_set_contains(a, build_w(2, 20), w)
    assert not basic_set_contains(a, r_approx(w, 5), w)  # range escapes
    other = member(2, [(0, 1), (0, 5)])
    assert not basic_set_contains(a, w, other)  # wrong prefix
