import random

import pytest

from ellentuck.constructions import (
    NodeOracle,
    construct_in_basic_set,
    dense_embed,
    fuse,
    subcopy_check,
    thin_to_subcopy,
)
from ellentuck.errors import (
    Exhausted,
    LevelOutOfRangeError,
    MalformedNodeError,
    NotIsomorphic,
    TruncationExhaustedError,
)
from ellentuck.space import (
    Approx,
    Member,
    build_w,
    decode_node,
    depth_of,
    one_extensions,
    r_approx,
    validate_approx,
)

from helpers import extension_closure_nodes, random_sub_member


def approx(k, nodes):
    return Approx(k, tuple(tuple(w) for w in nodes))


# ------------------------------------------------------------- oracle


def test_oracle_from_nodes():
    s = NodeOracle(nodes=[(3, 6), (0, 1), (3, 6)])
    assert s.candidates() == ((0, 1), (3, 6))
    assert s.available((3, 6))
    assert not s.available((7, 8))


def test_oracle_argument_checks():
    """An oracle takes its nodes and nothing else."""
    with pytest.raises(TypeError):
        NodeOracle()
    with pytest.raises(TypeError):
        NodeOracle(predicate=lambda v: True, universe=[(0, 1)])


def test_oracle_checks_every_node_before_the_empty_one():
    """Every entry is read as a node first, so a malformed entry after an
    empty one is the error; repeated nodes count once."""
    for nodes, reason in [
        ([(0, 1), (), ()], "node (): empty node"),
        ([(), ("x",)], "node ('x',): indices must be nonnegative integers"),
    ]:
        with pytest.raises(MalformedNodeError) as err:
            NodeOracle(nodes=nodes)
        assert str(err.value) == reason
    oracle = NodeOracle(nodes=[(0, 5), (0, 1), (0, 5), [0, 1]])
    assert oracle.candidates() == ((0, 1), (0, 5))


# ------------------------------------------------------- construction


def test_construct_follows_w():
    w = build_w(2, 15)
    assert construct_in_basic_set(r_approx(w, 2), w, 4) == r_approx(w, 4)
    assert construct_in_basic_set(Approx(2), build_w(2, 30), 8) == r_approx(build_w(2, 30), 8)


def test_construct_frozen_example():
    got = construct_in_basic_set(approx(2, [(3, 6)]), build_w(2, 40), 3)
    assert list(got.nodes) == [(3, 6), (3, 10), (12, 13)]


def test_construct_zero_steps():
    a = approx(2, [(0, 1), (0, 2)])
    assert construct_in_basic_set(a, build_w(2, 15), 2) == a


def test_construct_properties_random():
    rng = random.Random(23)
    for k, size in ((2, 120), (3, 120)):
        x = build_w(k, size)
        for _ in range(8):
            walk = random_sub_member(x, 5, rng, bias=3)
            a = Approx(k, walk.nodes[:2])
            got = construct_in_basic_set(a, x, 7)
            if isinstance(got, Exhausted):
                continue
            assert got.nodes[:2] == a.nodes
            assert set(got.nodes) <= set(x.nodes)
            assert validate_approx(got).ok
            assert len(got.nodes) == 7


def test_construct_exhausted_and_errors():
    w = build_w(2, 15)
    out = construct_in_basic_set(approx(2, [(18, 19)]), w, 3)
    assert isinstance(out, Exhausted)
    assert not out
    assert out.reason == "supply"
    with pytest.raises(ValueError):
        construct_in_basic_set(approx(2, [(0, 1)]), w, 0)  # target below input
    with pytest.raises(TruncationExhaustedError):
        construct_in_basic_set(approx(2, [(25, 26)]), w, 3)


# -------------------------------------------------------------- fusion


def test_fuse_degenerate_is_a_prefix():
    w = build_w(2, 30)
    assert fuse(Approx(2), w, w, 8) == Member(2, r_approx(w, 8).nodes)
    assert fuse(r_approx(w, 1), w, w, 6) == Member(2, r_approx(w, 6).nodes)


def test_fuse_uses_ambient_material_on_skipped_branches():
    b = build_w(2, 40)
    keep = lambda v: v[0] not in (3, 7) and v != (0, 2)
    inner = dense_embed(2, NodeOracle([w for w in b.nodes if keep(w)]), 8)
    a = approx(2, [(0, 1), (0, 5)])
    assert set(a.nodes) <= set(inner.nodes)
    got = fuse(a, Member(2, inner.nodes), b, 8)
    d = depth_of(b, a)
    assert d == 4
    assert got.nodes[:d] == b.nodes[:d]
    # the branch over (3,) is invisible to a, so it is continued from
    # the ambient member even though the inner member skipped it
    assert got.nodes[4] == (3, 6)
    assert validate_approx(got).ok
    # certificate: chains extending a never touch non-inner nodes
    assert extension_closure_nodes(a, got) <= set(inner.nodes)


@pytest.mark.parametrize("k,seed", [(2, 5), (2, 6), (3, 7), (3, 8)])
def test_fuse_certificate_random(k, seed):
    rng = random.Random(seed)
    big = build_w(k, 140)
    successes = 0
    for _ in range(10):
        walk = random_sub_member(big, 12, rng, bias=3)
        if walk is None:
            continue
        inner = Member(k, walk.nodes)
        a = Approx(k, inner.nodes[: rng.randrange(0, 4)])
        d = depth_of(big, a)
        got = fuse(a, inner, big, d + 5)
        if isinstance(got, Exhausted):
            continue
        successes += 1
        assert got.nodes[:d] == big.nodes[:d]
        assert set(got.nodes) <= set(big.nodes)
        assert validate_approx(got).ok
        assert extension_closure_nodes(a, got) <= set(inner.nodes)
    assert successes >= 3


def test_fuse_preconditions():
    w15 = build_w(2, 15)
    w20 = build_w(2, 20)
    with pytest.raises(ValueError):
        fuse(Approx(2), w20, w15, 10)  # inner sticks out of ambient
    short = Member(2, w15.nodes[:10])
    with pytest.raises(ValueError):
        fuse(approx(2, [(18, 19)]), short, w15, 12)  # a escapes inner
    a = approx(2, [(0, 1), (0, 5)])
    with pytest.raises(ValueError):
        fuse(a, w15, w15, 2)  # target below depth


def test_fuse_exhausts_when_the_inner_member_runs_out():
    w15 = build_w(2, 15)
    assert fuse(Approx(2), w15, w15, 40) == Exhausted(
        "supply", "step 15: the inner member has no fitting node"
    )


# ----------------------------------------------------------- embedding


def test_embed_full_oracle_returns_prefix():
    w = build_w(2, 30)
    got = dense_embed(2, NodeOracle.from_member(w), 9)
    assert got == r_approx(w, 9)


def test_embed_even_max():
    w = build_w(2, 200)
    s = NodeOracle([v for v in w.nodes if max(v) % 2 == 0])
    got = dense_embed(2, s, 8)
    assert not isinstance(got, Exhausted)
    assert len(got.nodes) == 8
    assert validate_approx(got).ok
    assert all(s.available(v) for v in got.nodes)
    assert got.nodes[:3] == ((0, 2), (0, 14), (18, 24))


def test_embed_single_block_exhausts():
    w = build_w(2, 60)
    s = NodeOracle([v for v in w.nodes if v[0] == 0])
    got = dense_embed(2, s, 5)
    assert isinstance(got, Exhausted)
    assert got.reason == "supply"
    assert "step 2" in got.detail


def test_embed_rejects_junk_candidates():
    with pytest.raises(MalformedNodeError):
        dense_embed(2, NodeOracle(nodes=[(0, 1), (1, 2)]), 3)
    with pytest.raises(MalformedNodeError):
        dense_embed(3, NodeOracle(nodes=[(0, 1)]), 2)  # wrong length


# ------------------------------------------------------------ subcopy


def test_subcopy_identity_at_level_zero():
    w = build_w(2, 15)
    theta = subcopy_check(w.nodes[:6], 2, 0)
    assert theta == {v: decode_node(v, 2) for v in w.nodes[:6]}


def test_subcopy_single_block():
    block = [(0, 1), (0, 2), (0, 5), (0, 9), (0, 14)]
    theta = subcopy_check(block, 2, 1)
    assert theta == {
        (0, 1): (0,), (0, 2): (1,), (0, 5): (2,), (0, 9): (3,), (0, 14): (4,),
    }


def test_subcopy_two_blocks_fail():
    got = subcopy_check([(0, 1), (3, 4)], 2, 1)
    assert isinstance(got, NotIsomorphic)
    assert not got


def test_subcopy_k3_block():
    w = build_w(3, 20)
    block = [v for v in w.nodes if v[0] == 0]
    assert len(block) == 10
    theta = subcopy_check(block, 3, 1)
    assert not isinstance(theta, NotIsomorphic)
    # the suffixes over the shared head replay the 2-dimensional tree
    assert list(theta.values())[:4] == [(0, 0), (0, 1), (1, 1), (0, 2)]
    gap = [v for v in block if v != (0, 4, 5)]
    assert isinstance(subcopy_check(gap, 3, 1), NotIsomorphic)


def test_subcopy_input_checks():
    with pytest.raises(LevelOutOfRangeError):
        subcopy_check([(0, 1)], 2, 2)
    with pytest.raises(LevelOutOfRangeError):
        subcopy_check([(0, 1)], 2, -1)
    with pytest.raises(ValueError):
        subcopy_check([], 2, 0)
    with pytest.raises(MalformedNodeError):
        subcopy_check([(1, 2)], 2, 0)


def test_subcopy_checks_each_node_in_input_order():
    """Each node is checked in full before the next, so the first bad
    entry names the error; a repeated node counts once."""
    for nodes, reason in [
        ([(0, 1, 2), "x"], "node (0, 1, 2): expected length 2"),
        (["x", (0, 1, 2)], "node 'x': indices must be nonnegative integers"),
        ([(0, 1), (1, 2), (0, 1, 2)], "node (1, 2): index 1 decodes to length 2, expected 1"),
    ]:
        with pytest.raises(MalformedNodeError) as err:
            subcopy_check(nodes, 2, 0)
        assert str(err.value) == reason
    assert subcopy_check([(0, 2), (0, 1), (0, 2)], 2, 1) == {(0, 1): (0,), (0, 2): (1,)}


# ------------------------------------------------------------ thinning


def test_thin_checks_v_in_input_order_and_counts_a_node_once():
    X = build_w(2, 30)
    a = Approx(2)
    V = one_extensions(a, X)
    with pytest.raises(ValueError, match="^every entry of V must be a one-step extension of a$"):
        thin_to_subcopy(a, X, [V[0], ((0, 1), (0, 2)), ((1, 2),)], 5)
    with pytest.raises(MalformedNodeError, match="^node \\(1, 2\\): "):
        thin_to_subcopy(a, X, [V[0], ((1, 2),), ((0, 1), (0, 2))], 5)
    assert thin_to_subcopy(a, X, V + V[::-1], 5) == thin_to_subcopy(a, X, V, 5)


def test_thin_with_all_extensions_is_greedy():
    x = build_w(2, 50)
    a = r_approx(x, 2)
    v = one_extensions(a, x)
    got = thin_to_subcopy(a, x, v, 9)
    assert got == Member(2, r_approx(x, 9).nodes)


def test_thin_even_max_fresh_branch_case():
    x = build_w(2, 200)
    a = Approx(2)
    v = [b for b in one_extensions(a, x) if max(b.nodes[-1]) % 2 == 0]
    got = thin_to_subcopy(a, x, v, 10)
    assert not isinstance(got, Exhausted)
    assert len(got.nodes) == 10
    assert validate_approx(got).ok
    allowed = {b.nodes[-1] for b in v}
    assert {b.nodes[-1] for b in one_extensions(a, got)} <= allowed


def test_thin_even_max_branch_continuation_case():
    x = build_w(2, 200)
    a = r_approx(x, 1)
    v = [b for b in one_extensions(a, x) if max(b.nodes[-1]) % 2 == 0]
    got = thin_to_subcopy(a, x, v, 8)
    assert not isinstance(got, Exhausted)
    assert validate_approx(got).ok
    for b in one_extensions(a, got):
        assert max(b.nodes[-1]) % 2 == 0


def test_thin_k3_continuation():
    x = build_w(3, 200)
    a = r_approx(x, 2)
    v = one_extensions(a, x)
    got = thin_to_subcopy(a, x, v, 7)
    assert not isinstance(got, Exhausted)
    assert validate_approx(got).ok
    assert {b.nodes[-1] for b in one_extensions(a, got)} <= {b.nodes[-1] for b in v}


def test_thin_empty_v_exhausts():
    x = build_w(2, 30)
    assert isinstance(thin_to_subcopy(r_approx(x, 1), x, [], 4), Exhausted)
    assert isinstance(thin_to_subcopy(r_approx(x, 2), x, [], 4), Exhausted)


def test_thin_input_checks():
    x = build_w(2, 30)
    a = r_approx(x, 1)
    with pytest.raises(ValueError):
        thin_to_subcopy(a, x, [approx(2, [(0, 1), (0, 2), (0, 5)])], 4)  # too long
    with pytest.raises(ValueError):
        thin_to_subcopy(a, x, [approx(2, [(3, 6), (3, 10)])], 4)  # wrong prefix


def test_thin_rejects_non_subcopy_v():
    x = build_w(3, 80)
    a = r_approx(x, 2)
    bad = [Approx(3, a.nodes + ((0, 4, 5),)), Approx(3, a.nodes + ((0, 11, 12),))]
    with pytest.raises(ValueError):
        thin_to_subcopy(a, x, bad, 5)


def test_constructions_reject_mismatched_arguments():
    w2, w3 = build_w(2, 10), build_w(3, 10)
    for call, message in [
        (lambda: construct_in_basic_set(Approx(3), w2, 4), "dimension mismatch"),
        (lambda: fuse(Approx(3), w2, w2, 4), "dimension mismatch"),
        (lambda: thin_to_subcopy(Approx(2), w3, [], 4), "dimension mismatch"),
        (lambda: thin_to_subcopy(r_approx(w2, 3), w2, [], 2),
         "target length is shorter than the input"),
        (lambda: dense_embed(1, NodeOracle(nodes=[]), 2), "k must be an integer >= 2, got 1"),
        (lambda: subcopy_check([(0, 1)], 1.5, 0), "k must be an integer >= 2, got 1.5"),
    ]:
        with pytest.raises(ValueError) as err:
            call()
        assert str(err.value) == message
