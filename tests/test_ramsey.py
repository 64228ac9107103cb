"""Partition-calculus searches: pigeonhole, canonization, fronts, inner maps.

Frozen expectations were derived by hand from the well-order tables
(branch membership and running maxima) before being asserted here; the
exhaustive cross-checks re-decide existence questions with the unpruned
enumerator from helpers.
"""

import itertools
import random
import re
from collections import Counter
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellentuck import ramsey
from ellentuck.constructions import (
    NodeOracle,
    construct_in_basic_set,
    dense_embed,
    fuse,
    thin_to_subcopy,
)
from ellentuck.errors import (
    AmbiguousAtScale,
    DisagreeWitness,
    Exhausted,
    MalformedNodeError,
    NotCanonicalAtScale,
)
from ellentuck.ramsey import (
    DEFAULT_BUDGET,
    Budget,
    CanonicalRelation,
    Coloring,
    InnerMap,
    Relation,
    admissible_vectors,
    canonize_one_extensions,
    canonize_relation,
    front_cover_check,
    inner_check,
    irreducible_agreement,
    irreducible_check,
    nash_williams_check,
    pigeonhole,
    proj_image,
)
from ellentuck.space import (
    Approx,
    Member,
    _Pool,
    _approximation_positions,
    build_w,
    depth_of,
    one_extensions,
    r_approx,
    validate_approx,
)
from ellentuck.wellorder import classify_n

from helpers import (
    ExactFloorFitFilter,
    LookAheadFreeVectorFits,
    MemoFreeFitFilter,
    ReferenceFitFilter,
    ReferenceLookAhead,
    ReferenceVectorFits,
    ScanAgreementFilter,
    UnanchoredVectorLookAhead,
    all_sub_members,
    bumped,
    oracle_disagreement,
    oracle_front_walk,
    oracle_irreducible,
    oracle_nash_williams,
    oracle_relation_fits,
    reference_approximations,
    reference_canonize_one_extensions,
    reference_canonize_relation,
    reference_pigeonhole,
    repeated_node_case,
    shallow_stack,
    sub_approxs_up_to,
    swapped_prefix_case,
)


def approxs_of_length(X, n):
    return [a for a in sub_approxs_up_to(X, n) if len(a.nodes) == n]


# ---------------------------------------------------------------- budget


def test_budget_counts_and_limits():
    b = Budget(3)
    assert b.spend() and b.spend() and b.spend()
    assert not b.spend()
    assert b.used == 4


def test_budget_rejects_nonpositive():
    for limit in (0, -3, True, 2.5, "5"):
        with pytest.raises(ValueError):
            Budget(limit)


def _agreement_maps(pairs, m):
    """Two maps that canonize the identity relation on 2-approximations:
    full vectors, and (1, 2) on the pairs whose maxima sum to a multiple
    of m, so the maps disagree exactly there."""
    full = InnerMap.uniform((2, 2), pairs)
    part = InnerMap({a: (1, 2) if sum(map(max, a.nodes)) % m == 0 else (2, 2) for a in pairs})
    return full, part, Relation({a: i for i, a in enumerate(pairs)})


def _budget_cases():
    """One small instance per budgeted search, as (name, run(budget))."""
    x30, x20, w3 = build_w(2, 30), build_w(2, 20), build_w(3, 20)
    exts = one_extensions(Approx(2), x30)
    by_branch = Coloring.from_function(lambda b: int(b.nodes[-1][0] != 0), exts)
    constant = Coloring.from_function(lambda b: 0, exts)
    # level-2 prefix inside branch 0, level-1 prefix elsewhere: levels 1
    # and 2 both fit, and level 3, tried last, does not
    two_levels = Coloring.from_function(
        lambda b: b.nodes[-1][1] if b.nodes[-1][0] == 0 else -1 - b.nodes[-1][0],
        one_extensions(Approx(3), w3),
    )
    pairs = approxs_of_length(x20, 2)
    related = Relation.from_key_function(lambda b: 0, pairs)
    full, part, identity = _agreement_maps(pairs, 5)
    return [
        ("pigeonhole", lambda bud: pigeonhole(Approx(2), x30, by_branch, 6, bud)),
        ("level", lambda bud: canonize_one_extensions(Approx(2), x30, constant, 6, bud)),
        ("ambiguous", lambda bud: canonize_one_extensions(Approx(3), w3, two_levels, 4, bud)),
        ("relation", lambda bud: canonize_relation(related, 2, 2, x20, 4, bud)),
        # every pair of x20 closes its chain; the chain ((0,20),) has no pair
        ("front", lambda bud: front_cover_check(pairs, x20, bud)),
        # the maps disagree on some pairs, which the search backtracks around
        ("agreement", lambda bud: irreducible_agreement(full, part, identity, pairs, x20, 8, bud)),
    ]


_BUDGET_CASES = _budget_cases()


def _unbounded(run):
    budget = Budget(DEFAULT_BUDGET)
    return run(budget), budget.used


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_budgeted_outcome_is_exhausted_or_the_unbounded_one(data):
    """A run cut short by its budget says so; it never returns a different
    answer."""
    name, run = data.draw(st.sampled_from(_BUDGET_CASES))
    full, used = _unbounded(run)
    limit = data.draw(st.integers(1, used - 1), label=name)
    got = run(Budget(limit))
    if isinstance(got, Exhausted):
        assert got.reason == "budget"
    else:
        assert got == full


@pytest.mark.parametrize("raw", ["1", "abc"])
def test_searches_ignore_the_budget_env(monkeypatch, raw):
    """A search given no budget gets the default, whatever the
    environment holds: only the CLI reads ELLENTUCK_BUDGET."""
    monkeypatch.setenv("ELLENTUCK_BUDGET", raw)
    assert Budget().limit == DEFAULT_BUDGET
    for name, run in _BUDGET_CASES:
        assert run(None) == _unbounded(run)[0], name


def test_budget_cases_cover_the_outcomes():
    """The level and ambiguous searches spent 457 and 144 states before the
    search core remembered its failed sub-searches; the memo skips the
    repeats among the failing levels' sub-searches, so 331 and 130. Since
    a failure also rules out the same sub-search from a higher running
    maximum, it skips those too, so 261 and 117. Since the level fits look
    ahead, a push after which some extension position can no longer be
    filled is vetoed, so 66 and 51: a failing level's sub-searches are
    refuted at their first push instead of at the pushes that complete
    them. Since the template refutes levels before the first state, the
    level search spends 6: its coloring has one color, and the template's
    extensions fall into 3 blocks at level 1 and 6 at level 2, so only
    level 0 is searched, and its first 6 pushes make its witness. The
    ambiguous search's levels all pass that test, so its 51 stay. The
    pigeonhole case is by-branch of test_state_counts_are_pinned
    (123 -> 67 -> 38 there); the relation, front and agreement searches
    keep no memo and do not look ahead, so theirs stay."""
    full = {name: _unbounded(run) for name, run in _BUDGET_CASES}
    assert full["pigeonhole"][0][1] == 1  # after color 0 is refuted
    assert full["level"][0][1] == CanonicalRelation(0)
    assert full["level"][1] == 6
    assert full["ambiguous"][0] == AmbiguousAtScale(candidates=(1, 2))
    assert full["ambiguous"][1] == 51
    assert [v for v, _ in full["relation"][0].fits] == [(0, 0), (1, 0)]
    assert full["front"][0].counterexample == Approx(2, ((0, 20),))
    assert full["front"][1] == 52
    assert full["agreement"][0][1] is True
    assert full["agreement"][1] == 93


def _target_len_runs():
    """Each search and construction that takes a target length, as
    run(target_len, budget); the constructions spend no budget."""
    x20 = build_w(2, 20)
    exts = one_extensions(Approx(2), x20)
    constant = Coloring.from_function(lambda b: 0, exts)
    singles = [Approx(2, (w,)) for w in x20.nodes]
    by_root = Relation.from_key_function(lambda b: b.nodes[0][:1], singles)
    phi = InnerMap.uniform((1,), singles)
    return {
        "pigeonhole": lambda t, bud: pigeonhole(Approx(2), x20, constant, t, bud),
        "extensions": lambda t, bud: canonize_one_extensions(Approx(2), x20, constant, t, bud),
        "relation": lambda t, bud: canonize_relation(by_root, 2, 1, x20, t, bud),
        "agreement": lambda t, bud: irreducible_agreement(
            phi, phi, by_root, singles, x20, target_len=t, budget=bud
        ),
        "construct": lambda t, bud: construct_in_basic_set(Approx(2), x20, t),
        "fuse": lambda t, bud: fuse(Approx(2), x20, x20, t),
        "embed": lambda t, bud: dense_embed(2, NodeOracle.from_member(x20), t),
        "thin": lambda t, bud: thin_to_subcopy(Approx(2), x20, exts, t),
    }


_TARGET_LEN_RUNS = _target_len_runs()


@pytest.mark.parametrize("target_len", [-1, -3, True, False, 2.5, "4", None])
@pytest.mark.parametrize("search", sorted(_TARGET_LEN_RUNS))
def test_bad_target_lengths_raise_before_any_state_is_spent(search, target_len):
    """Only a nonnegative int is a length: -1 used to give agreement a
    false Exhausted("supply"), True was length 1 to pigeonhole and the
    constructions, and 2.5 a TypeError from inside the search core."""
    budget = Budget(DEFAULT_BUDGET)
    with pytest.raises(ValueError, match=r"^target length must be a nonnegative integer, got "):
        _TARGET_LEN_RUNS[search](target_len, budget)
    assert budget.used == 0


def test_level_fit_found_before_the_budget_ran_out_is_not_final():
    """Level 0 fits in 19 states and level 1, which takes 138 more to fail,
    is still searched when the budget of 20 runs out, so the outcome is
    Exhausted, not level 0. Colored by max(w) % 3: three colors, of 12,
    10 and 8 extensions, which level 1's blocks of the template (3, 2 and
    1 extensions) fit into. The constant coloring this test used has one
    color, so the template refutes level 1 before the first state."""
    X = build_w(2, 30)
    coloring = _max_mod(X, 3)
    got = canonize_one_extensions(Approx(2), X, coloring, 6, budget=Budget(20))
    assert got == Exhausted("budget", "state budget ran out at 21")
    assert canonize_one_extensions(Approx(2), X, coloring, 6)[1] == CanonicalRelation(0)


def test_state_counts_are_pinned():
    """States spent by a few cheap searches, as recorded at commit
    41e1879, before the search core indexed its supply by prefix, except
    the relation's: 6,128 there, 1,534 since canonize_relation searches
    for every vector at once and a state serves every vector still live,
    and the agreement search's, recorded at commit 3930be0, where it ran
    on a filter of its own. Since the search core skips a sub-search whose
    signature already failed, fresh spent 4,682 (12,067 before) and
    by-branch 123 (193): refuting levels 0 and 1, and color 0, reaches
    the same failed sub-search along many paths. Since it also skips one
    whose signature failed from a lower running maximum, fresh spent
    1,929, by-branch 67 and continuing 786 (1,787): refuting a level
    reaches a failed sub-search again from higher maxima, which admit
    some of the same candidates and so find no leaf either. Since the
    level fits look ahead, fresh spent 179, continuing 22 and by-branch
    38: a push after which some extension position of the template has
    no supply node left that is above the running maximum, carries its
    forced prefix and has a pair the key <-> class map takes is vetoed
    at once, where its subtree used to be searched until the pushes that
    complete it. Since the template refutes levels before the first
    state, continuing spends 9: its coloring gives every extension a
    color of its own, and level 0's one block of the template holds more
    than one extension, so only level 2 is searched. The relation search
    refutes the vector (0, 0) the same way (one block of more
    2-approximations than the largest class holds), but the other
    vectors' searches visit its states too, so its count stayed. Since
    the relation search looks ahead, it spends 156: a vector is dropped
    after a push once some template position still to come has no node
    of X above the running maximum, with its forced prefix, whose
    closing 2-approximations are listed and whose pairs the vector's map
    takes together, where the vector's subtree used to be searched until
    the push that completes a clashing approximation. Since it also reads
    partly placed closings, it still spends 156: the solo search of each
    refuted vector here already places no node past node 1 (8 pushes of
    node 0 and 110 of node 1 are vetoed). The agreement
    filter gives no signature and does not look ahead, and the parity
    search is vetoed nowhere, so theirs stay. An index or a
    filter that only saves time leaves them exactly as they are; a
    change that moves the search must say why and update them."""
    X40, X100, X300 = build_w(2, 40), build_w(2, 100), build_w(2, 300)
    relation = Relation.from_key_function(
        lambda b: b.nodes[1][:2], approxs_of_length(X40, 2)
    )
    fresh = r_approx(X100, 2)
    assert classify_n(2, 2) == 0
    by_branch = Coloring.from_function(
        lambda b: b.nodes[-1][0], one_extensions(fresh, X100)
    )
    continuing = r_approx(X100, 1)
    assert classify_n(2, 1) == 1
    injective = Coloring(
        {b: i for i, b in enumerate(one_extensions(continuing, X100))}
    )
    parity = Coloring.from_function(
        lambda b: max(b.nodes[-1]) % 2, one_extensions(Approx(2), X300)
    )
    X30 = build_w(2, 30)
    by_root = Coloring.from_function(
        lambda b: int(b.nodes[-1][0] != 0), one_extensions(Approx(2), X30)
    )
    pairs30 = approxs_of_length(X30, 2)
    full, part, identity = _agreement_maps(pairs30, 7)
    cases = {
        "relation": (lambda bud: canonize_relation(relation, 2, 2, X40, 8, bud), 156),
        "fresh": (lambda bud: canonize_one_extensions(fresh, X100, by_branch, 9, bud), 179),
        "continuing": (
            lambda bud: canonize_one_extensions(continuing, X100, injective, 10, bud),
            9,
        ),
        "parity": (lambda bud: pigeonhole(Approx(2), X300, parity, 8, bud), 17),
        # color 0 refuted, then color 1 found
        "by-branch": (lambda bud: pigeonhole(Approx(2), X30, by_root, 6, bud), 38),
        "agreement": (
            lambda bud: irreducible_agreement(full, part, identity, pairs30, X30, 10, bud),
            88,
        ),
    }
    for name, (run, states) in cases.items():
        budget = Budget(DEFAULT_BUDGET)
        assert run(budget), name
        assert budget.used == states, (name, budget.used)


def test_relation_filters_run_only_on_pushes_that_complete_something():
    """The relation case of test_state_counts_are_pinned, counted in items,
    not seconds. The vector filters take 335 pushes; they took 6,128 when
    every state pushed every live filter, also where the new node completes
    no 2-approximation and so forms no pair, 4,057 before the template
    refuted the vector (0, 0), whose filter no longer runs, and 3,044
    before the search looked ahead. The 110 distinct 2-approximations
    that the search completes or the look-ahead reads are each projected
    once for the call, under the 4 vectors searched at once, however
    often a push completes or reads them again."""
    X40 = build_w(2, 40)
    relation = Relation.from_key_function(
        lambda b: b.nodes[1][:2], approxs_of_length(X40, 2)
    )
    pushes, rows = [0], []
    push, row = ramsey._FitFilter.try_push, ramsey._VectorFits._row

    def counted_push(self, nodes, w, *formed):
        pushes[0] += 1
        return push(self, nodes, w, *formed)

    def counted_row(self, b):
        rows.append(b)
        return row(self, b)

    budget = Budget(DEFAULT_BUDGET)
    with mock.patch.object(ramsey._FitFilter, "try_push", counted_push), \
            mock.patch.object(ramsey._VectorFits, "_row", counted_row):
        got = canonize_relation(relation, 2, 2, X40, 8, budget)
    assert (got.vector, budget.used) == ((0, 2), 156)
    assert pushes == [335]
    assert len(rows) == len(set(rows)) == 110
    assert len(admissible_vectors(2, 2)) == 5


def test_relation_search_asks_only_the_search_core_for_slots():
    """The relation case of test_state_counts_are_pinned, counted in items,
    not seconds. The vector filter reads what a push completes off the
    2-approximations looked up before the first state, so it makes no
    _Slot. The search core makes one per position it opens, the first and
    one below each kept push short of the target: 39 (632 before the
    search looked ahead), each handed its one list of placed nodes. The
    prologue's walk of X (ramsey._walk) makes one per open approximation
    it visits, each handed its tuple of nodes: the empty one and every
    1-approximation. The template's approximations come from
    space._approximation_positions, once per (k, n, target) for the
    process, not from a walk of the template per call."""
    X40 = build_w(2, 40)
    relation = Relation.from_key_function(
        lambda b: b.nodes[1][:2], approxs_of_length(X40, 2)
    )
    slots, opened = [], [1]
    slot, push = ramsey._Slot, ramsey._VectorFits.try_push

    class CountedSlot(slot):
        __slots__ = ()

        def __init__(self, k, nodes, floor):
            slots.append(nodes)
            super().__init__(k, nodes, floor)

    def kept_push(self, nodes, w):
        kept = push(self, nodes, w)
        if kept and len(nodes) + 1 < 8:
            opened[0] += 1
        return kept

    budget = Budget(DEFAULT_BUDGET)
    with mock.patch.object(ramsey, "_Slot", CountedSlot), \
            mock.patch.object(ramsey._VectorFits, "try_push", kept_push):
        got = canonize_relation(relation, 2, 2, X40, 8, budget)
    assert (got.vector, budget.used) == ((0, 2), 156)
    core = [nodes for nodes in slots if isinstance(nodes, list)]
    assert len({id(nodes) for nodes in core}) == 1
    assert len(core) == opened[0] == 39
    walked = [nodes for nodes in slots if not isinstance(nodes, list)]
    assert walked == [a.nodes for a in sub_approxs_up_to(X40, 1)]


def _memo_case(data):
    """k, build_w(k, 10..40) and an approximation of up to 3 steps in it."""
    k = data.draw(st.sampled_from((2, 3)), label="k")
    X = build_w(k, data.draw(st.integers(10, 40), label="nodes"))
    a = Approx(k)
    for _ in range(data.draw(st.integers(0, 3), label="steps")):
        exts = one_extensions(a, X)[:4]
        if not exts:
            break
        a = data.draw(st.sampled_from(exts))
    return k, X, a


def _assert_memo_matches_memo_free(data, a, X, coloring):
    tlen = depth_of(X, a) + data.draw(st.integers(0, 5), label="past the depth")
    search = data.draw(st.sampled_from((pigeonhole, canonize_one_extensions)))
    limit = data.draw(st.integers(1, 5000), label="limit")
    memo = Budget(limit)
    got = search(a, X, coloring, tlen, memo)
    full = Budget(limit)
    with mock.patch.object(ramsey, "_FitFilter", MemoFreeFitFilter):
        want = search(a, X, coloring, tlen, full)
    if full.used <= limit:
        assert got == want
    assert memo.used <= full.used


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_memo_prunes_only_failed_sub_searches(data):
    """pigeonhole and canonize_one_extensions give the outcome, witness and
    Exhausted reason of the same search with every sub-search searched in
    full, whenever that one ends within the budget, and spend no more."""
    _, X, a = _memo_case(data)
    rng = data.draw(st.randoms(use_true_random=False))
    colors = data.draw(st.integers(1, 6), label="colors")
    coloring = Coloring({b: rng.randrange(colors) for b in one_extensions(a, X)})
    _assert_memo_matches_memo_free(data, a, X, coloring)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_memo_prunes_only_failed_sub_searches_on_structured_colorings(data):
    """The same on the colorings that fail from many running maxima:
    max(w) % m, as in the fixed cases below, and extension-canon's one
    color per level-j prefix, under which level j is canonical."""
    k, X, a = _memo_case(data)
    exts = one_extensions(a, X)
    if data.draw(st.booleans(), label="max mod m"):
        m = data.draw(st.integers(1, 6), label="m")
        coloring = Coloring.from_function(lambda b: max(b.nodes[-1]) % m, exts)
    else:
        j = data.draw(st.sampled_from([0, *range(classify_n(k, len(a)) + 1, k + 1)]), label="j")
        labels = {}
        coloring = Coloring.from_function(
            lambda b: labels.setdefault(b.nodes[-1][:j], len(labels)), exts
        )
    _assert_memo_matches_memo_free(data, a, X, coloring)


@pytest.mark.parametrize(
    "search,size,m,tlen",
    [
        (pigeonhole, 20, 3, 5),  # needs the forced prefixes
        (canonize_one_extensions, 20, 5, 5),  # needs the key <-> class map
        (pigeonhole, 30, 4, 3),  # needs the running maximum
        (canonize_one_extensions, 24, 3, 6),  # needs the floor's direction
    ],
)
def test_memo_signature_misses_no_part(search, size, m, tlen):
    """Colorings max(w) % m of the one-step extensions of the empty
    approximation, on which a signature without the part named would
    skip a sub-search that has a leaf and return another witness. The
    floor's direction: a memo that also skipped a failed sub-search from
    a lower running maximum would do the same."""
    X = build_w(2, size)
    coloring = Coloring.from_function(
        lambda b: max(b.nodes[-1]) % m, one_extensions(Approx(2), X)
    )
    memo = Budget(DEFAULT_BUDGET)
    got = search(Approx(2), X, coloring, tlen, memo)
    full = Budget(DEFAULT_BUDGET)
    with mock.patch.object(ramsey, "_FitFilter", MemoFreeFitFilter):
        assert got == search(Approx(2), X, coloring, tlen, full)
    assert memo.used <= full.used


def _outcome(search, args, budget=None):
    """(outcome, states) of one call with budget, by default the default
    budget; an error is its type and message."""
    budget = budget or Budget(DEFAULT_BUDGET)
    try:
        got = search(*args, budget)
    except ValueError as e:
        got = (ValueError, str(e))
    return got, budget.used


def _search_outcome(search, a, X, coloring, tlen, flt=None):
    """_outcome of one call on the installed fit filter or on flt."""
    with mock.patch.object(ramsey, "_FitFilter", flt or ramsey._FitFilter):
        return _outcome(search, (a, X, coloring, tlen))


def _look_ahead_call(data, X):
    """a = the first m <= 4 nodes of X, a random coloring of its one-step
    extensions, a target m + 2..m + 7 and the search to run."""
    m = data.draw(st.integers(0, 4), label="m")
    a = Approx(X.k, X.nodes[:m])
    rng = data.draw(st.randoms(use_true_random=False))
    colors = data.draw(st.integers(1, 4), label="colors")
    coloring = Coloring({b: rng.randrange(colors) for b in one_extensions(a, X)})
    tlen = m + data.draw(st.integers(2, 7), label="past a")
    search = data.draw(st.sampled_from((pigeonhole, canonize_one_extensions)))
    return search, a, coloring, tlen


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_look_ahead_keeps_every_outcome_of_the_reference_filter(data):
    """On a valid member the look-ahead vetoes only pushes below which no
    witness is left, so pigeonhole and canonize_one_extensions return what
    the filter that looks no further than its own pairs returns, witness
    and reason alike, and spend no more states."""
    k = data.draw(st.sampled_from((2, 3)), label="k")
    X = build_w(k, data.draw(st.integers(8, 30), label="nodes"))
    search, a, coloring, tlen = _look_ahead_call(data, X)
    got, used = _search_outcome(search, a, X, coloring, tlen)
    want, spent = _search_outcome(search, a, X, coloring, tlen, ReferenceFitFilter)
    assert got == want
    assert used <= spent


def _corrupted(data, X):
    """X with one node bumped, shortened, duplicated or swapped."""
    nodes = list(X.nodes)
    p = data.draw(st.integers(0, len(nodes) - 1), label="position")
    w = nodes[p]
    how = data.draw(st.sampled_from(("bump", "short", "dup", "swap")), label="how")
    if how == "bump":
        j = data.draw(st.integers(0, X.k - 1), label="entry")
        nodes[p] = w[:j] + (w[j] + data.draw(st.integers(1, 2)),) + w[j + 1:]
    elif how == "short":
        nodes[p] = w[:-1]
    else:
        q = data.draw(st.integers(0, len(nodes) - 1), label="other")
        nodes[p] = nodes[q]
        if how == "swap":
            nodes[q] = w
    return Member(X.k, tuple(nodes))


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_look_ahead_keeps_every_outcome_of_the_reference_filter_on_a_corrupted_member(data):
    """A witness keeps the depth prefix, which the level fits validate,
    and places every later node by the slot rule, so it has the
    template's shape on a corrupted member too: the look-ahead returns
    what the reference filter returns, witness, reason and error alike."""
    k = data.draw(st.sampled_from((2, 3)), label="k")
    X = _corrupted(data, build_w(k, data.draw(st.integers(8, 30), label="nodes")))
    search, a, coloring, tlen = _look_ahead_call(data, X)
    got, _ = _search_outcome(search, a, X, coloring, tlen)
    want, _ = _search_outcome(search, a, X, coloring, tlen, ReferenceFitFilter)
    assert got == want


def _prefix_validates(X, a):
    """Whether the depth prefix of a in X validates: a report that is ok
    and no node that fails to decode."""
    try:
        return validate_approx(r_approx(X, depth_of(X, a))).ok
    except MalformedNodeError:
        return False


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_level_fits_on_a_corrupted_member_raise_exactly_on_a_bad_depth_prefix(data):
    """a is drawn by a walk of one-step extensions inside a corrupted
    member, so its depth prefix can hold a bad node outside a. pigeonhole
    and canonize_one_extensions raise ValueError before the first state
    when that prefix does not validate, and otherwise give the outcome of
    the reference, which searches every candidate without the look-ahead
    and decides floor pairs at every leaf: a witness that does not
    validate is the same ValueError from both."""
    k = data.draw(st.sampled_from((2, 3)), label="k")
    X = _corrupted(data, build_w(k, data.draw(st.integers(8, 30), label="nodes")))
    a = Approx(k)
    for _ in range(data.draw(st.integers(0, 4), label="steps")):
        exts = one_extensions(a, X)
        if not exts:
            break
        a = data.draw(st.sampled_from(exts[:6]), label="step")
    coloring = _draw_coloring(data, k, one_extensions(a, X), ("random", "max mod m", "prefix"))
    tlen = depth_of(X, a) + data.draw(st.integers(0, 7), label="past the depth")
    search, reference = data.draw(st.sampled_from((
        (pigeonhole, reference_pigeonhole),
        (canonize_one_extensions, reference_canonize_one_extensions),
    )))
    args = (a, X, coloring, tlen)
    if not _prefix_validates(X, a):
        with pytest.raises(ValueError):
            search(*args)
        return
    got, used = _outcome(search, args)
    with mock.patch.object(ramsey, "_FitFilter", ReferenceFitFilter):
        want, spent = _outcome(reference, args)
    assert got == want
    assert used <= spent


def _draw_coloring(data, k, exts, kinds):
    """A coloring of exts, one-step extensions in W_k, of a kind drawn from
    kinds: random (1 to 4 colors), constant, one-to-one, max(w) % m (m 1
    to 6), or one color per level-j prefix."""
    how = data.draw(st.sampled_from(kinds))
    if how == "random":
        rng = data.draw(st.randoms(use_true_random=False))
        colors = data.draw(st.integers(1, 4), label="colors")
        return Coloring({b: rng.randrange(colors) for b in exts})
    if how == "max mod m":
        m = data.draw(st.integers(1, 6), label="m")
        return Coloring.from_function(lambda b: max(b.nodes[-1]) % m, exts)
    if how == "prefix":
        j = data.draw(st.integers(0, k), label="j")
        labels = {}
        return Coloring.from_function(
            lambda b: labels.setdefault(b.nodes[-1][:j], len(labels)), exts)
    return Coloring({b: i if how == "one-to-one" else 0 for i, b in enumerate(exts)})


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_look_ahead_matches_the_reference_look_ahead(data):
    """One bound per depth decides every push as the sorted watch list of
    residual supports did: pigeonhole and canonize_one_extensions give
    the same outcome, witness, reason or error, and spend the same states,
    under any budget, on valid and corrupted members alike."""
    k = data.draw(st.sampled_from((2, 3)), label="k")
    X = build_w(k, data.draw(st.integers(8, 30), label="nodes"))
    if data.draw(st.booleans(), label="corrupted"):
        X = _corrupted(data, X)
    m = data.draw(st.integers(0, 4), label="m")
    a = Approx(k, X.nodes[:m])
    coloring = _draw_coloring(data, k, one_extensions(a, X), ("random", "max mod m", "prefix"))
    tlen = m + data.draw(st.integers(2, 7), label="past a")
    search = data.draw(st.sampled_from((pigeonhole, canonize_one_extensions)))
    limit = data.draw(st.integers(1, 5000), label="limit")

    def run(look_ahead):
        with mock.patch.object(ramsey, "_LookAhead", look_ahead):
            return _outcome(search, (a, X, coloring, tlen), Budget(limit))

    assert run(ramsey._LookAhead) == run(ReferenceLookAhead)


def test_look_ahead_matches_the_reference_look_ahead_on_a_grid():
    """The same on every call of a fixed grid, where a push whose anchor's
    group has no support left, or one that inserts a key, comes up in a
    few of the 216 calls: a look-ahead that skipped either test spent more
    states than the reference there, which 200 random examples missed."""
    for k, m, how, past, search in itertools.product(
            (2, 3), (0, 1, 2), range(6), (3, 5, 7), (pigeonhole, canonize_one_extensions)):
        X = build_w(k, 21)
        a = Approx(k, X.nodes[:m])
        exts = one_extensions(a, X)
        if how < 3:
            coloring = Coloring.from_function(lambda b: max(b.nodes[-1]) % (how + 2), exts)
        else:
            rng = random.Random(how)
            coloring = Coloring({b: rng.randrange(3) for b in exts})
        args = (a, X, coloring, m + past)
        with mock.patch.object(ramsey, "_LookAhead", ReferenceLookAhead):
            want = _outcome(search, args)
        assert _outcome(search, args) == want, (k, m, how, past, search.__name__)


@pytest.mark.parametrize("m", [0, 2])
def test_look_ahead_work_on_a_long_target_is_bounded(monkeypatch, m):
    """The look-ahead's support tests (_takes calls) on a 3,000-node
    target with about 1,500 extension positions, counted in items, not
    seconds: 1,370 (m = 0) and 1,766 (m = 2) with one bound per depth,
    1,307 and 1,703 with the sorted watch list it replaced, and 189,993
    and 216,800 when every push re-tests every pending constraint. The
    parity colors have too few extensions for the target, so pigeonhole
    refutes both before the first state; reference_pigeonhole searches
    them, as pigeonhole did before, until the budget runs out."""
    X = build_w(2, 3000)
    a = Approx(2, X.nodes[:m])
    coloring = Coloring.from_function(lambda b: max(b.nodes[-1]) % 2, one_extensions(a, X))
    calls = [0]
    real = ramsey._LookAhead._takes

    def spy(self, u):
        calls[0] += 1
        return real(self, u)

    monkeypatch.setattr(ramsey._LookAhead, "_takes", spy)
    assert reference_pigeonhole(a, X, coloring, 3000, Budget(20000)) == _ran_out_at(20001)
    assert calls[0] <= 2000


def _template_case(data, X):
    """A call whose candidates the template may refute, as (search, its
    reference, arguments): pigeonhole or canonize_one_extensions on a
    coloring of the one-step extensions of the first m <= 4 nodes of X
    (random, constant, by a level prefix or one-to-one), or
    canonize_relation on a complete relation on the n-approximations of
    X (n <= 2, random or induced by a vector). The target may pass the
    last node of X."""
    if data.draw(st.booleans(), label="coloring"):
        m = data.draw(st.integers(0, 4), label="m")
        a = Approx(X.k, X.nodes[:m])
        exts = one_extensions(a, X)
        coloring = _draw_coloring(data, X.k, exts, ("random", "constant", "prefix", "one-to-one"))
        tlen = m + data.draw(st.integers(0, 7), label="past a")
        search, reference = data.draw(st.sampled_from((
            (pigeonhole, reference_pigeonhole),
            (canonize_one_extensions, reference_canonize_one_extensions),
        )))
        return search, reference, (a, X, coloring, tlen)
    n = data.draw(st.sampled_from([1, 2]), label="n")
    tlen = data.draw(st.integers(n, n + 6), label="target")
    relation = _draw_relation(data, X, n)
    return canonize_relation, reference_canonize_relation, (relation, X.k, n, X, tlen)


def _template_member(data):
    """W_k of 8 to 14 nodes (k = 2) or 8 to 10 (k = 3): small enough that
    the reference searches every vector of a relation quickly."""
    k = data.draw(st.sampled_from((2, 3)), label="k")
    return build_w(k, data.draw(st.integers(8, 14 if k == 2 else 10), label="nodes"))


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_template_refutation_keeps_every_outcome_of_the_reference(data):
    """On a valid member, a witness is a copy of the template, so a color,
    level or vector that the template refutes has none: pigeonhole,
    canonize_one_extensions and canonize_relation return what the
    searches of every candidate return, witnesses, fits, reasons and
    errors alike, and spend no more states."""
    search, reference, args = _template_case(data, _template_member(data))
    got, used = _outcome(search, args)
    want, spent = _outcome(reference, args)
    assert got == want
    assert used <= spent


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_template_refutation_keeps_every_outcome_of_the_reference_on_a_corrupted_member(data):
    """Every witness has the template's shape once its depth prefix
    validates, which the level fits check and canonize_relation's empty
    prefix always does, so on a corrupted member too a candidate the
    template refutes has no witness: the refuting searches return what
    the references return, witnesses, fits, reasons and errors alike."""
    X = _corrupted(data, _template_member(data))
    search, reference, args = _template_case(data, X)
    got, _ = _outcome(search, args)
    want, _ = _outcome(reference, args)
    assert got == want


def _higher_maxima_cases():
    """Colorings max(w) % m of the one-step extensions of the empty
    approximation, one per outcome, on which the look-ahead leaves the
    memo repeats to skip; on _BUDGET_CASES it leaves none. The level and
    ambiguous cases used m = 2, on 30 nodes of W_2 and 40 of W_3. Two
    colors cannot take three or more blocks, so there the template now
    refutes the failing levels whose repeats the memo skipped; with m = 3
    and m = 6 a failing level is still searched."""
    x40, x30 = build_w(2, 40), build_w(2, 30)
    return {
        "pigeonhole": lambda bud: pigeonhole(Approx(2), x40, _parity(x40), 6, bud),
        "level": lambda bud: canonize_one_extensions(Approx(2), x30, _max_mod(x30, 3), 6, bud),
        "ambiguous": lambda bud: canonize_one_extensions(Approx(2), x40, _max_mod(x40, 6), 5, bud),
    }


@pytest.mark.parametrize("name,exact", [("pigeonhole", 38), ("level", 175), ("ambiguous", 170)])
def test_memo_skips_a_failed_sub_search_from_higher_maxima(name, exact):
    """A sub-search that failed from one running maximum is skipped from
    every higher one, which admits some of the same candidates in the
    same order: the outcome of the memo that skips it only from the same
    maximum, in fewer states (exact: that memo's states). The memo-free
    search spends 43, 199 and 182."""
    run = _higher_maxima_cases()[name]
    got, used = _unbounded(run)
    with mock.patch.object(ramsey, "_FitFilter", ExactFloorFitFilter):
        assert _unbounded(run) == (got, exact)
    assert used < exact
    assert not isinstance(got, Exhausted)


def _max_mod(X, m):
    return Coloring.from_function(lambda b: max(b.nodes[-1]) % m, one_extensions(Approx(X.k), X))


def _parity(X):
    return _max_mod(X, 2)


def _ran_out_at(used):
    return Exhausted("budget", "state budget ran out at %d" % used)


def test_memo_look_ahead_stops_at_the_budget_headroom(monkeypatch):
    """A search with 10 states left places at most 10 nodes, so the memo
    reads the forced prefixes of at most 11 positions, however long the
    target: the look-ahead of a 3,000-node target used to cover all
    3,000 positions before the first state. The coloring is constant:
    each parity color has fewer extensions than the target's extension
    positions, so pigeonhole now refutes both before the first state and
    the memo is never built."""
    X = build_w(2, 3000)
    spans = []
    real = ramsey._placed_prefixes

    def spy(k, start, stop):
        spans.append(stop - start)
        return real(k, start, stop)

    monkeypatch.setattr(ramsey, "_placed_prefixes", spy)
    constant = Coloring.from_function(lambda b: 0, one_extensions(Approx(2), X))
    got = pigeonhole(Approx(2), X, constant, 3000, Budget(10))
    assert got == Exhausted("budget", "state budget ran out at 11")
    assert spans and max(spans) <= 11


def test_a_level_fit_call_scans_the_template_once(monkeypatch):
    """The template's positions of a's one-step extensions are scanned once
    per call (_Extensions), however many colors or levels it searches:
    the floor rule, _refuted and every look-ahead read that one scan. The
    calls here search two colors, or three and four levels, and scanned
    once more per search before. A target longer than X builds no
    template and scans nothing."""
    x30, x40 = build_w(2, 30), build_w(2, 40)
    calls = [0]
    real = ramsey._extension_positions

    def spy(*args):
        calls[0] += 1
        return real(*args)

    monkeypatch.setattr(ramsey, "_extension_positions", spy)
    for search, X, coloring, tlen in [
        (pigeonhole, x40, _parity(x40), 6),
        (canonize_one_extensions, x30, _max_mod(x30, 3), 6),
        (canonize_one_extensions, x40, _max_mod(x40, 6), 5),
        (pigeonhole, build_w(3, 40), _max_mod(build_w(3, 40), 3), 6),
    ]:
        calls[0] = 0
        got, used = _unbounded(lambda bud: search(Approx(X.k), X, coloring, tlen, bud))
        assert used > 0, search.__name__  # the call reaches its search
        assert calls[0] == 1, (search.__name__, got)
        calls[0] = 0
        for long in (search(Approx(X.k), X, coloring, len(X.nodes) + 1),
                     search(Approx(X.k), X, coloring, 2 * len(X.nodes))):
            assert isinstance(long, Exhausted) and long.reason == "supply"
        assert calls[0] == 0


def test_a_spent_budget_stays_exhausted():
    """A budget passed in already spent, or spent to its limit, gives
    Exhausted("budget") again, whichever search it is handed to."""
    X = build_w(2, 300)
    parity = _parity(X)
    budget = Budget(3)
    assert pigeonhole(Approx(2), X, parity, 8, budget) == _ran_out_at(4)
    assert pigeonhole(Approx(2), X, parity, 8, budget) == _ran_out_at(5)
    assert canonize_one_extensions(Approx(2), X, parity, 8, budget) == _ran_out_at(6)
    full = Budget(2)
    full.used = 2
    assert pigeonhole(Approx(2), X, parity, 8, full) == _ran_out_at(3)


# -------------------------------------------------------------- coloring


def test_coloring_is_extensional():
    X = build_w(2, 10)
    exts = one_extensions(Approx(2), X)
    f = Coloring.from_function(lambda b: 1, exts)
    assert len(f) == 10
    with pytest.raises(ValueError):
        f.of(Approx(2, ((0, 1), (0, 2))))


@pytest.mark.parametrize(
    "table,value",
    [(Coloring, 0), (Relation, 0), (InnerMap, (1,))],
    ids=["Coloring", "Relation", "InnerMap"],
)
def test_coloring_rejects_non_approx_keys(table, value):
    with pytest.raises(TypeError):
        table({((0, 1),): value})


@pytest.mark.parametrize(
    "table,value",
    [(Coloring, 1.5), (Coloring, "3"), (Coloring, True), (Coloring, None),
     (Relation, [1]), (Relation, 1.0), (Relation, False),
     (InnerMap, (1.9,)), (InnerMap, ("1",)), (InnerMap, (1, False)),
     (InnerMap, 5), (InnerMap, None)],
    ids=["color-float", "color-str", "color-bool", "color-none",
         "class-list", "class-float", "class-bool",
         "level-float", "level-str", "level-bool", "vector-int", "vector-none"],
)
def test_tables_reject_values_that_are_not_integers(table, value):
    """A color, a class id and a projection level are ints, and a bool is
    none: such a value is rejected, not rounded or parsed into one.  A
    class id [1] used to build a relation that irreducible_agreement then
    failed on with a TypeError, and a vector 5 or None raised TypeError."""
    a = Approx(2, ((0, 1), (0, 2)))
    with pytest.raises(ValueError, match="must be an integer"):
        table({a: value})


# -------------------------------------------------------------- relation


def test_relation_from_classes_and_lookup():
    X = build_w(2, 6)
    singles = [Approx(2, (w,)) for w in X.nodes]
    rel = Relation.from_classes([singles[:2], singles[2:]])
    assert rel.related(singles[0], singles[1])
    assert not rel.related(singles[1], singles[2])
    with pytest.raises(ValueError):
        rel.related(singles[0], Approx(2, ((18, 19),)))


def test_relation_overlapping_classes_rejected():
    a = Approx(2, ((0, 1),))
    with pytest.raises(ValueError):
        Relation.from_classes([[a], [a]])


def test_relation_from_key_and_from_function_agree():
    X = build_w(2, 12)
    singles = [Approx(2, (w,)) for w in X.nodes]
    by_key = Relation.from_key_function(lambda b: b.nodes[0][0], singles)
    by_fn = Relation.from_function(
        lambda a, b: a.nodes[0][0] == b.nodes[0][0], singles
    )
    for a in singles:
        for b in singles:
            assert by_key.related(a, b) == by_fn.related(a, b)


# ------------------------------------------------------------ pigeonhole


def test_pigeonhole_constant_coloring_is_greedy():
    X = build_w(2, 40)
    exts = one_extensions(Approx(2), X)
    f = Coloring.from_function(lambda b: 9, exts)
    Y, color = pigeonhole(Approx(2), X, f, 8)
    assert color == 9
    assert Y.nodes == X.nodes[:8]


def test_pigeonhole_parity_frozen():
    X = build_w(2, 300)
    f = Coloring.from_function(
        lambda b: max(b.nodes[-1]) % 2, one_extensions(Approx(2), X)
    )
    Y, color = pigeonhole(Approx(2), X, f, 8)
    assert color == 0
    assert Y.nodes == (
        (0, 2),
        (0, 14),
        (18, 24),
        (0, 44),
        (18, 48),
        (52, 62),
        (0, 90),
        (18, 94),
    )
    assert {f.of(b) for b in one_extensions(Approx(2), Y)} == {0}


def test_pigeonhole_branch_step_frozen():
    # a sits one node deep, so extensions live on the branch of (0,1);
    # supply in the first 8 nodes holds (0,2), (0,5), (0,9)
    X = build_w(2, 8)
    a = Approx(2, ((0, 1),))
    f = Coloring(
        {
            Approx(2, ((0, 1), (0, 2))): 0,
            Approx(2, ((0, 1), (0, 5))): 1,
            Approx(2, ((0, 1), (0, 9))): 0,
        }
    )
    Y, color = pigeonhole(a, X, f, 5)
    assert color == 0
    assert Y.nodes == ((0, 1), (0, 2), (3, 4), (0, 9), (3, 10))


def test_pigeonhole_branch_step_exhausts_when_block_split():
    X = build_w(2, 8)
    a = Approx(2, ((0, 1),))
    f = Coloring(
        {
            Approx(2, ((0, 1), (0, 2))): 0,
            Approx(2, ((0, 1), (0, 5))): 1,
            Approx(2, ((0, 1), (0, 9))): 1,
        }
    )
    got = pigeonhole(a, X, f, 5)
    assert isinstance(got, Exhausted)
    assert got.reason == "supply"


def test_pigeonhole_no_extensions_returns_plain_completion():
    X = build_w(2, 15)
    a = Approx(2, ((18, 19),))
    got = pigeonhole(a, X, Coloring({}), 15)
    assert got[1] is None
    assert got[0].nodes == X.nodes


def test_pigeonhole_requires_containment():
    X = build_w(2, 15)
    stray = Approx(2, ((0, 3),), )
    with pytest.raises(Exception):
        pigeonhole(stray, X, Coloring({}), 5)


def test_pigeonhole_on_a_member_with_a_repeated_node_keeps_the_least_depth():
    """The depth prefix ends at the first position of a's last node, not a
    later repeat of it; one ending at the repeat took in (0, 5), so the
    search for color 1 returned a member with both colors and the
    homogeneity certificate raised."""
    a, X, coloring = repeated_node_case()
    assert [b.nodes[-1] for b in one_extensions(a, X)] == [(0, 5), (0, 9)]
    got = pigeonhole(a, X, coloring, 7)
    assert got == Exhausted("supply", "no color admits a homogeneous sub-member")


def test_level_fits_reject_a_depth_prefix_that_does_not_validate():
    """The depth prefix is the one part of X a witness copies verbatim, so
    both level fits check it before the first state. Unchecked, pigeonhole
    kept the prefix's (0, 2), of color 0, in a witness for color 1 and its
    homogeneity certificate raised AssertionError, and
    canonize_one_extensions found no level."""
    a, X, coloring = swapped_prefix_case()
    assert X.nodes == ((0, 2), (0, 1), (3, 4), (0, 5), (3, 6), (7, 8))
    assert validate_approx(a).ok and depth_of(X, a) == 2
    assert {b.nodes[-1]: coloring.of(b) for b in one_extensions(a, X)} == {(0, 2): 0, (0, 5): 1}
    for search in (pigeonhole, canonize_one_extensions):
        with pytest.raises(ValueError, match="depth prefix does not validate"):
            search(a, X, coloring, 4)


def test_searches_raise_rather_than_return_a_witness_that_does_not_validate():
    """No slot rule sees a broken prefix chain among X's nodes after the
    depth prefix. On W_2 of 14 nodes with (0, 5) bumped to (0, 6), pigeonhole
    with the parity coloring returned ((0,2),(0,6),(7,8),(0,14),(7,16)) with
    color 0, and canonize_relation on the parity classes of the
    1-approximations a witness that validate_approx rejects too. Both check
    each witness before returning it and raise ValueError; so do
    canonize_one_extensions and irreducible_agreement."""
    X = bumped(build_w(2, 14), 3)
    with pytest.raises(MalformedNodeError):
        validate_approx(Approx(2, ((0, 2), (0, 6), (7, 8), (0, 14), (7, 16))))
    relation = Relation({b: max(b.nodes[-1]) % 2 for b in approxs_of_length(X, 1)})
    message = "witness does not validate: node (0, 6): prefix chain breaks at index 6"
    with pytest.raises(ValueError, match=re.escape(message)):
        pigeonhole(Approx(2), X, _parity(X), 5)
    with pytest.raises(ValueError, match=re.escape(message)):
        canonize_relation(relation, 2, 1, X, 5)
    singles = Coloring({b: i for i, b in enumerate(one_extensions(Approx(2), X))})
    with pytest.raises(ValueError, match=re.escape(message)):
        canonize_one_extensions(Approx(2), X, singles, 5)
    family = approxs_of_length(X, 1)
    phi = InnerMap.uniform((2,), family)
    same = Relation({b: i for i, b in enumerate(family)})
    with pytest.raises(ValueError, match=re.escape(message)):
        irreducible_agreement(phi, phi, same, family, X, 5)


@pytest.mark.parametrize("search", [pigeonhole, canonize_one_extensions])
@pytest.mark.parametrize(
    "a,tlen,message",
    [
        (Approx(3), 4, "approximation dimension does not match the member"),
        (r_approx(build_w(2, 10), 3), 2, "target length is below the depth of the approximation"),
    ],
    ids=["dimension", "below-depth"],
)
def test_level_fits_reject_bad_arguments_before_the_first_state(search, a, tlen, message):
    X = build_w(2, 10)
    budget = Budget(DEFAULT_BUDGET)
    with pytest.raises(ValueError) as err:
        search(a, X, Coloring({}), tlen, budget)
    assert str(err.value) == message
    assert budget.used == 0


def test_pigeonhole_budget_blowout():
    X = build_w(2, 300)
    f = Coloring.from_function(
        lambda b: max(b.nodes[-1]) % 2, one_extensions(Approx(2), X)
    )
    got = pigeonhole(Approx(2), X, f, 8, budget=Budget(3))
    assert isinstance(got, Exhausted)
    assert got.reason == "budget"


def test_pigeonhole_no_extensions_honours_the_budget():
    X = build_w(2, 19)
    a = Approx(2, ((18, 19),))
    assert one_extensions(a, X) == []
    got = pigeonhole(a, X, Coloring({}), 19, budget=Budget(2))
    assert isinstance(got, Exhausted) and got.reason == "budget"


def test_pigeonhole_deep_target_does_not_recurse():
    X = build_w(2, 1500)
    constant = Coloring.from_function(lambda b: 0, one_extensions(Approx(2), X))
    budget = Budget()
    Y, color = pigeonhole(Approx(2), X, constant, 1000, budget)
    assert color == 0
    assert Y.nodes == X.nodes[:1000]
    assert budget.used == 1000


def test_pigeonhole_coloring_must_be_total():
    X = build_w(2, 15)
    exts = one_extensions(Approx(2), X)
    f = Coloring.from_function(lambda b: 0, exts[:-1])
    with pytest.raises(ValueError):
        pigeonhole(Approx(2), X, f, 5)


@pytest.mark.parametrize("k,xlen,tlen", [(2, 22, 5), (3, 22, 5)])
def test_pigeonhole_agrees_with_exhaustive_search(k, xlen, tlen):
    X = build_w(k, xlen)
    a = r_approx(X, 1)
    exts = one_extensions(a, X)
    if not exts:
        pytest.skip("no extensions at this size")
    for seed in range(6):
        rng = random.Random(seed)
        f = Coloring.from_function(lambda b: rng.randrange(2), exts)
        got = pigeonhole(a, X, f, tlen)
        # the least color with a homogeneous completion, and the first
        # such completion in enumeration order
        brute = None
        for color in sorted({f.of(b) for b in exts}):
            for Y in all_sub_members(X, X.nodes[:1], tlen):
                if {f.of(b) for b in one_extensions(a, Y)} == {color}:
                    brute = (Y, color)
                    break
            if brute:
                break
        if brute is None:
            assert got == Exhausted("supply", "no color admits a homogeneous sub-member")
        else:
            assert got == brute


# ------------------------------------------------- canonize 1-extensions


def test_canonize_injective_gives_top_level():
    X = build_w(2, 100)
    s = r_approx(X, 2)
    exts = one_extensions(s, X)
    f = Coloring({b: i for i, b in enumerate(exts)})
    Y, rel = canonize_one_extensions(s, X, f, 9)
    assert rel == CanonicalRelation(2)
    assert validate_approx(Y).ok


def test_canonize_constant_gives_level_zero():
    X = build_w(2, 100)
    s = r_approx(X, 2)
    f = Coloring.from_function(lambda b: 42, one_extensions(s, X))
    Y, rel = canonize_one_extensions(s, X, f, 9)
    assert rel == CanonicalRelation(0)


def test_canonize_branch_coloring_gives_level_one():
    # fresh-branch step: color by the new node's branch
    X = build_w(2, 100)
    s = r_approx(X, 2)
    assert classify_n(2, 2) == 0
    f = Coloring.from_function(lambda b: b.nodes[-1][0], one_extensions(s, X))
    Y, rel = canonize_one_extensions(s, X, f, 9)
    assert rel == CanonicalRelation(1)


def test_canonize_k3_injective():
    X = build_w(3, 120)
    s = r_approx(X, 1)
    exts = one_extensions(s, X)
    f = Coloring({b: i for i, b in enumerate(exts)})
    got = canonize_one_extensions(s, X, f, 9)
    assert got and got[1] == CanonicalRelation(3)


def test_canonize_never_returns_blocked_level():
    # at a branch step the level-1 outcome is structurally excluded
    X = build_w(2, 100)
    s = r_approx(X, 1)
    assert classify_n(2, 1) == 1
    exts = one_extensions(s, X)
    colorings = [
        Coloring({b: i for i, b in enumerate(exts)}),
        Coloring.from_function(lambda b: 0, exts),
        Coloring.from_function(lambda b: b.nodes[-1][0], exts),
    ]
    for f in colorings:
        got = canonize_one_extensions(s, X, f, 10)
        assert got
        assert got[1].level in (0, 2)


def test_canonize_branch_coloring_on_branch_step_is_constant():
    X = build_w(2, 100)
    s = r_approx(X, 1)
    f = Coloring.from_function(lambda b: b.nodes[-1][0], one_extensions(s, X))
    got = canonize_one_extensions(s, X, f, 10)
    assert got and got[1] == CanonicalRelation(0)


def test_canonize_ambiguous_at_scale():
    # branch-constant on low branches, injective on high ones: both a
    # level-1 and a level-2 witness exist, and that is reported
    X = build_w(2, 30)
    exts = one_extensions(Approx(2), X)
    f = Coloring.from_function(
        lambda b: b.nodes[-1][0]
        if b.nodes[-1][0] in (0, 3)
        else 100 + max(b.nodes[-1]),
        exts,
    )
    got = canonize_one_extensions(Approx(2), X, f, 6)
    assert got == AmbiguousAtScale(candidates=(1, 2))


def test_canonize_exhausts_when_floor_unreachable():
    # below length 8 a length-4 prefix has a single extension slot, so
    # no witness can separate the candidate levels
    X = build_w(2, 60)
    s = r_approx(X, 4)
    f = Coloring.from_function(lambda b: 5, one_extensions(s, X))
    got = canonize_one_extensions(s, X, f, 7)
    assert isinstance(got, Exhausted)
    Y, rel = canonize_one_extensions(s, X, f, 8)
    assert rel == CanonicalRelation(0)


def test_canonize_relates_canonical_relation_predicate():
    rel = CanonicalRelation(1)
    assert rel.relates((0, 5), (0, 9))
    assert not rel.relates((0, 5), (3, 6))
    assert CanonicalRelation(0).relates((0, 5), (3, 6))


# ------------------------------------------------------ admissible vectors


def test_admissible_vector_counts():
    assert admissible_vectors(2, 1) == [(0,), (1,), (2,)]
    assert admissible_vectors(2, 2) == [(0, 0), (0, 2), (1, 0), (2, 0), (2, 2)]
    assert admissible_vectors(3, 1) == [(0,), (1,), (2,), (3,)]
    assert admissible_vectors(3, 2) == [
        (0, 0),
        (0, 3),
        (1, 0),
        (2, 0),
        (3, 0),
        (3, 3),
    ]


def test_admissible_vectors_respect_branch_levels():
    for k in (2, 3):
        for n in (1, 2, 3):
            for v in admissible_vectors(k, n):
                for i, l in enumerate(v):
                    assert l == 0 or classify_n(k, i) + 1 <= l <= k


def test_redundant_vectors_are_excluded():
    # position 1 repeats position 0's branch prefix, so projecting
    # position 0 no deeper than that prefix adds nothing
    assert (1, 2) not in admissible_vectors(2, 2)
    assert (1, 3) not in admissible_vectors(3, 2)
    assert (2, 3) not in admissible_vectors(3, 2)


def test_excluded_vectors_induce_duplicate_relations():
    X = build_w(2, 30)
    dom = approxs_of_length(X, 2)

    def key(v):
        return lambda b: tuple(b.nodes[i][: v[i]] for i in range(2))

    left = Relation.from_key_function(key((0, 2)), dom)
    right = Relation.from_key_function(key((1, 2)), dom)
    for a in dom:
        for b in dom:
            assert left.related(a, b) == right.related(a, b)


# ------------------------------------------------------ canonize relation


def test_canonize_relation_worked_examples():
    X = build_w(2, 60)
    singles = [Approx(2, (w,)) for w in X.nodes]
    induced = Relation.from_key_function(lambda b: b.nodes[0][:1], singles)
    vector, member = canonize_relation(induced, 2, 1, X, 6)
    assert vector == (1,)
    assert validate_approx(member).ok

    full = Relation.from_key_function(lambda b: 0, singles)
    vector, member = canonize_relation(full, 2, 1, X, 6)
    assert vector == (0,)

    pairs = approxs_of_length(X, 2)
    equality = Relation.from_key_function(lambda b: b.nodes, pairs)
    vector, member = canonize_relation(equality, 2, 2, X, 8)
    assert vector == (2, 2)


@pytest.mark.parametrize("k,n,tlen", [(2, 1, 6), (2, 2, 8), (3, 1, 6), (3, 2, 8)])
def test_canonize_relation_round_trip(k, n, tlen):
    X = build_w(k, 60)
    dom = approxs_of_length(X, n)
    for v in admissible_vectors(k, n):
        induced = Relation.from_key_function(
            lambda b, v=v: tuple(b.nodes[i][: v[i]] for i in range(n)), dom
        )
        got = canonize_relation(induced, k, n, X, tlen)
        assert got, (v, got)
        assert got.vector == v
        assert len(got.fits) == 1
        for i, l in enumerate(got.vector):
            assert l == 0 or classify_n(k, i) + 1 <= l <= k


def test_canonize_relation_not_canonical_at_scale():
    # parity of the maximum is no projection; the only length-6
    # completion of the 6-node truncation is the truncation itself
    X = build_w(2, 6)
    assert len(list(all_sub_members(X, (), 6))) == 1
    singles = [Approx(2, (w,)) for w in X.nodes]
    rel = Relation.from_key_function(lambda b: max(b.nodes[0]) % 2, singles)
    got = canonize_relation(rel, 2, 1, X, 6)
    assert got == NotCanonicalAtScale(vectors_checked=3)


def test_canonize_relation_budget_blowout():
    X = build_w(2, 60)
    singles = [Approx(2, (w,)) for w in X.nodes]
    rel = Relation.from_key_function(lambda b: max(b.nodes[0]) % 2, singles)
    got = canonize_relation(rel, 2, 1, X, 6, budget=Budget(2))
    assert isinstance(got, Exhausted)
    assert got.reason == "budget"


def test_canonize_relation_result_unpacks():
    X = build_w(2, 40)
    singles = [Approx(2, (w,)) for w in X.nodes]
    rel = Relation.from_key_function(lambda b: b.nodes[0][:1], singles)
    vector, member = canonize_relation(rel, 2, 1, X, 5)
    assert vector == (1,)
    assert isinstance(member, Member)


def test_canonize_relation_argument_checks():
    X = build_w(2, 20)
    singles = [Approx(2, (w,)) for w in X.nodes]
    rel = Relation.from_key_function(lambda b: 0, singles)
    with pytest.raises(ValueError):
        canonize_relation(rel, 3, 1, X, 5)
    with pytest.raises(ValueError):
        canonize_relation(rel, 2, 0, X, 5)
    with pytest.raises(ValueError):
        canonize_relation(rel, 2, 2, X, 1)
    # it used to list [(0, 0), (0, 1), (1, 0)]
    with pytest.raises(ValueError, match=r"^k must be an integer >= 2, got 1$"):
        admissible_vectors(1, 2)


@pytest.mark.parametrize("n", [True, 2.5, "1", None, -1])
def test_bad_approximation_lengths_raise_before_any_state_is_spent(n):
    X = build_w(2, 20)
    singles = [Approx(2, (w,)) for w in X.nodes]
    rel = Relation.from_key_function(lambda b: 0, singles)
    budget = Budget(DEFAULT_BUDGET)
    with pytest.raises(ValueError, match="approximation length must be a nonnegative integer"):
        canonize_relation(rel, 2, n, X, 5, budget)
    assert budget.used == 0
    with pytest.raises(ValueError, match="approximation length must be a nonnegative integer"):
        admissible_vectors(2, n)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_canonize_relation_matches_the_oracle(data):
    k = data.draw(st.sampled_from([2, 3]))
    X = build_w(k, data.draw(st.integers(4, 12 if k == 2 else 10)))
    n = data.draw(st.sampled_from([1, 2]))
    tlen = data.draw(st.integers(min(len(X.nodes), n + 2), min(len(X.nodes), n + 5)))
    dom = approxs_of_length(X, n)
    if data.draw(st.booleans(), label="induced"):
        v = data.draw(st.sampled_from(admissible_vectors(k, n)))
        relation = Relation.from_key_function(
            lambda b: tuple(w[:l] for w, l in zip(b.nodes, v)), dom
        )
    else:
        top = data.draw(st.integers(1, 3))
        classes = st.lists(st.integers(0, top), min_size=len(dom), max_size=len(dom))
        relation = Relation(dict(zip(dom, data.draw(classes))))
    got = canonize_relation(relation, k, n, X, tlen)
    want = oracle_relation_fits(relation, k, n, X, tlen)
    assert getattr(got, "fits", ()) == tuple(want)
    if want:
        assert (got.vector, got.member) == want[0]
    else:
        assert got == NotCanonicalAtScale(vectors_checked=len(admissible_vectors(k, n)))


@pytest.mark.parametrize(
    "size,n,tlen,classify,dropped",
    [
        # the equality relation on the 2-approximations of 20 nodes, less one
        *((20, 2, 6, lambda b: b.nodes, {nodes}) for nodes in (
            ((0, 1), (0, 2)), ((0, 2), (0, 5)), ((3, 6), (3, 15)), ((18, 19), (18, 24)))),
        # the first-level relation on 12 nodes, less three
        (12, 2, 7, lambda b: b.nodes[1][:2],
         {((3, 4), (3, 15)), ((0, 5), (0, 9)), ((0, 2), (0, 9))}),
        # n = 3 on 6 nodes, less one
        (6, 3, 7, lambda b: b.nodes != ((0, 2), (0, 5), (7, 8)), {((0, 1), (0, 5), (7, 8))}),
    ],
    ids=["equality-0", "equality-5", "equality-17", "equality-34", "first-level", "n3"],
)
def test_relation_missing_an_approximation_raises_before_the_first_state(
        size, n, tlen, classify, dropped):
    """A relation must list every n-approximation of X. canonize_relation
    looks them up by one-step-extension layers before its first state, so
    the error names the first missing one in that order, whatever a search
    would have met first, and the budget is untouched."""
    X = build_w(2, size)
    dom = approxs_of_length(X, n)
    relation = Relation.from_key_function(
        classify, [a for a in dom if a.nodes not in dropped]
    )
    budget = Budget(DEFAULT_BUDGET)
    with pytest.raises(ValueError) as err:
        canonize_relation(relation, 2, n, X, tlen, budget)
    first = next(a for a in dom if a.nodes in dropped)
    assert str(err.value) == "relation is not defined on %s" % (first.nodes,)
    assert budget.used == 0


def test_relation_lookup_stops_at_the_first_missing_approximation():
    """The n-approximations of X are walked depth first, which is layer
    order, each child built when the walk reaches it, and each is looked
    up as it is built, so an empty relation on 40 nodes at n = 8 raises
    after building 8 approximations: the first one and its ancestors past
    the empty one. Building every child of each ancestor at once
    (one_extensions) made 128, and building every layer before the first
    lookup made 11,095."""
    X = build_w(2, 40)
    built = []
    extend = ramsey._extend

    def counted(a, w):
        built.append(w)
        return extend(a, w)

    budget = Budget(DEFAULT_BUDGET)
    with mock.patch.object(ramsey, "_extend", counted), pytest.raises(ValueError) as err:
        canonize_relation(Relation({}), 2, 8, X, 8, budget)
    first = ((0, 1), (0, 2), (3, 4), (0, 5), (3, 6), (7, 8), (0, 9), (3, 10))
    assert str(err.value) == "relation is not defined on %s" % (first,)
    assert built == list(first)
    assert budget.used == 0


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_walk_lists_the_approximations_of_the_scanning_walk(data):
    """ramsey._walk, closed off at length n, visits every approximation of
    up to n nodes, flags exactly the open ones with no one-step extension
    in X, and lists the n-approximations that rescanning X at every
    approximation lists (helpers.reference_approximations), in the same
    order: on valid members and on corrupted, reversed and duplicated
    ones."""
    k = data.draw(st.sampled_from((2, 3)), label="k")
    n = data.draw(st.integers(1, 3), label="n")
    X = build_w(k, data.draw(st.integers(3, 16 if n < 3 else 10), label="nodes"))
    how = data.draw(st.sampled_from(("valid", "corrupted", "reversed", "duplicated")))
    if how == "corrupted":
        X = _corrupted(data, X)
    elif how == "reversed":
        X = Member(k, X.nodes[::-1])
    elif how == "duplicated":
        nodes = list(X.nodes)
        for w in data.draw(st.lists(st.sampled_from(X.nodes), min_size=1, max_size=4)):
            nodes.insert(data.draw(st.integers(0, len(nodes)), label="at"), w)
        X = Member(k, tuple(nodes))
    want = list(reference_approximations(X, n))
    visited = list(ramsey._walk(X, lambda a: len(a.nodes) == n))
    assert [a for a, _ in visited if len(a.nodes) == n] == want
    assert list(ramsey._approximations(X, n)) == want
    assert Counter(a for a, _ in visited) == Counter(sub_approxs_up_to(X, n))
    for a, dead_end in visited:
        assert dead_end == (len(a.nodes) < n and not one_extensions(a, X))


def _draw_relation(data, X, n):
    """A complete relation on the n-approximations of X: induced by an
    admissible vector, or of random classes 0..3."""
    dom = approxs_of_length(X, n)
    if data.draw(st.booleans(), label="induced"):
        v = data.draw(st.sampled_from(admissible_vectors(X.k, n)))
        return Relation.from_key_function(
            lambda b: tuple(w[:l] for w, l in zip(b.nodes, v)), dom
        )
    classes = st.lists(st.integers(0, 3), min_size=len(dom), max_size=len(dom))
    return Relation(dict(zip(dom, data.draw(classes))))


def _draw_relation_case(data):
    k = data.draw(st.sampled_from([2, 3]))
    X = build_w(k, data.draw(st.integers(4, 14 if k == 2 else 10)))
    n = data.draw(st.sampled_from([1, 2]))
    tlen = data.draw(st.integers(min(len(X.nodes), n + 2), min(len(X.nodes), n + 5)))
    return _draw_relation(data, X, n), k, n, X, tlen


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_joint_relation_search_spends_the_union_of_the_solo_searches(data):
    """A state is one placement, however many vectors are live: the joint
    search spends exactly the distinct (nodes, w) states that searches for
    one vector at a time visit, and gives each vector its solo witness.
    The template refutes some vectors before the first state, so the
    states are the union over the vectors searched; a refuted vector's
    solo search finds no witness. The solo searches look ahead on the
    same template, and a vector's look-ahead reads only its own map, so
    the union holds with it."""
    relation, k, n, X, tlen = _draw_relation_case(data)
    budget = Budget(DEFAULT_BUDGET)
    searched, joint = [], ramsey._VectorFits

    def recording_fits(class_of, vectors, template):
        searched.extend(vectors)
        return joint(class_of, vectors, template=template)

    with mock.patch.object(ramsey, "_VectorFits", recording_fits):
        got = canonize_relation(relation, k, n, X, tlen, budget)
    states, solo = set(), []
    template = (k, _approximation_positions(k, n, tlen))
    for v in admissible_vectors(k, n):
        flt = ramsey._VectorFits({a.nodes: c for a, c in relation.items()}, [v], template=template)
        (one,) = flt.filters

        def recording(nodes, w, push=flt.try_push, v=v):
            if v in searched:
                states.add((tuple(nodes), w))
            return push(nodes, w)

        flt.try_push = recording
        ramsey._search_member(k, (), _Pool(X.nodes), tlen, Budget(DEFAULT_BUDGET), flt)
        if one in flt.found:
            solo.append((v, Member(k, flt.found[one])))
    assert budget.used == len(states)
    assert getattr(got, "fits", ()) == tuple(solo)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_missing_approximations_raise_before_the_first_state(data):
    """With some approximations dropped from the relation, canonize_relation
    raises at any budget, naming the first dropped one in approxs_of_length
    order, and spends no state."""
    relation, k, n, X, tlen = _draw_relation_case(data)
    table = dict(relation.items())
    dropped = data.draw(st.lists(st.sampled_from(list(table)), min_size=1, max_size=3))
    incomplete = Relation({a: c for a, c in table.items() if a not in dropped})
    budget = Budget(data.draw(st.integers(1, DEFAULT_BUDGET), label="limit"))
    with pytest.raises(ValueError) as err:
        canonize_relation(incomplete, k, n, X, tlen, budget)
    first = next(a for a in approxs_of_length(X, n) if a in dropped)
    assert str(err.value) == "relation is not defined on %s" % (first.nodes,)
    assert budget.used == 0


def _relation_outcome(relation, k, n, X, tlen, limit):
    """canonize_relation's outcome as its repr and fits, or the type and
    message of what it raised, with the states it spent."""
    budget = Budget(limit)
    try:
        got = canonize_relation(relation, k, n, X, tlen, budget)
    except ValueError as err:
        return (type(err), str(err)), budget.used
    return (repr(got), getattr(got, "fits", None)), budget.used


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_relation_search_matches_the_reference_vector_filter(data):
    """Reading completions off the n-approximations of X changes how a
    push finds what it completes, not what it finds: placed nodes and
    approximations both ascend by maximum, on any member. So on random
    relations, some induced by projection keys and some with
    approximations missing, on valid and corrupted members alike,
    canonize_relation gives the outcome, fits or error, and spends the
    states, that it gives on the reference _VectorFits, at any budget.
    About half the examples corrupt X, so valid members keep about 200."""
    k = data.draw(st.sampled_from([2, 3]), label="k")
    n = data.draw(st.sampled_from([1, 2, 3]), label="n")
    X = build_w(k, data.draw(st.integers(3, 14 if n < 3 else 10), label="nodes"))
    if data.draw(st.booleans(), label="corrupted"):
        X = _corrupted(data, X)
    tlen = data.draw(st.integers(n, n + 4), label="target")
    dom = approxs_of_length(X, n)
    if data.draw(st.booleans(), label="induced"):
        v = data.draw(st.tuples(*[st.integers(0, k)] * n), label="vector")
        relation = Relation.from_key_function(
            lambda b: tuple(w[:l] for w, l in zip(b.nodes, v)), dom
        )
    else:
        top = data.draw(st.integers(0, 4), label="top class")
        classes = st.lists(st.integers(0, top), min_size=len(dom), max_size=len(dom))
        relation = Relation(dict(zip(dom, data.draw(classes))))
    if dom and data.draw(st.booleans(), label="missing"):
        dropped = set(data.draw(st.lists(st.sampled_from(dom), min_size=1, max_size=3)))
        relation = Relation({a: c for a, c in relation.items() if a not in dropped})
    limit = data.draw(st.one_of(st.integers(1, 3000), st.just(DEFAULT_BUDGET)), label="limit")
    got = _relation_outcome(relation, k, n, X, tlen, limit)
    with mock.patch.object(ramsey, "_VectorFits", ReferenceVectorFits):
        assert got == _relation_outcome(relation, k, n, X, tlen, limit)


def _complete_relation_case(data):
    """A complete relation on the n-approximations of X (k 2-3, n 1-3),
    induced by a vector or of random classes, on W_k of 3 to 14 nodes (10
    at n = 3) or a corrupted copy, with a target n..n+4: the arguments of
    canonize_relation."""
    k = data.draw(st.sampled_from([2, 3]), label="k")
    n = data.draw(st.sampled_from([1, 2, 3]), label="n")
    X = build_w(k, data.draw(st.integers(3, 14 if n < 3 else 10), label="nodes"))
    if data.draw(st.booleans(), label="corrupted"):
        X = _corrupted(data, X)
    tlen = data.draw(st.integers(n, n + 4), label="target")
    return _draw_relation(data, X, n), k, n, X, tlen


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_relation_look_ahead_keeps_every_outcome_of_the_look_ahead_free_search(data):
    """The look-ahead drops a vector only where no witness of it is left
    below the push, and every witness is a copy of the template, on valid
    and corrupted members alike. So canonize_relation gives the outcome,
    fits and witnesses alike, of the search without it, and spends no more
    states, at any budget; where the budget cuts the search without the
    look-ahead short, the look-ahead's outcome is Exhausted too, or the
    one it gives at the default budget."""
    args = _complete_relation_case(data)
    limit = data.draw(st.one_of(st.integers(1, 3000), st.just(DEFAULT_BUDGET)), label="limit")
    got, used = _outcome(canonize_relation, args, Budget(limit))
    with mock.patch.object(ramsey, "_VectorFits", LookAheadFreeVectorFits):
        want, spent = _outcome(canonize_relation, args, Budget(limit))
    assert used <= spent
    if want == _ran_out_at(spent) and got != want:
        want, _ = _outcome(canonize_relation, args)
    assert got == want


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_relation_look_ahead_loses_nothing_by_waiting_for_the_anchor(data):
    """The look-ahead tests a position only once its anchor is placed.
    Testing it before, without a prefix, vetoes nothing more: the unplaced
    anchor is itself a pending position at a lower level, whose node's
    indices rise along it. Both give the same outcome and spend the same
    states, on valid and corrupted members alike."""
    args = _complete_relation_case(data)
    got = _outcome(canonize_relation, args)
    with mock.patch.object(ramsey, "_VectorLookAhead", UnanchoredVectorLookAhead):
        assert _outcome(canonize_relation, args) == got


def test_relation_look_ahead_keeps_every_outcome_of_the_look_ahead_free_search_on_a_grid():
    """The hypothesis draws at n = 3 stop at 10 nodes and a target of n + 4,
    so they seldom reach position 6, where the k = 3 closings partly
    placed at depths 1 and 2 sit. On this fixed grid, 154 of the 200 calls
    at the default budget spend fewer states than they did before the
    look-ahead read partly placed closings: every admissible vector's
    induced relation and two seeded random ones, on
    W_3 of 12 nodes and W_2 of 14 and a copy of each with node 3 bumped,
    at n = 2 and 3 and targets 7 and 8. At budgets from 1 to 3,000 and
    the default, canonize_relation gives the outcome of the search without
    the look-ahead (or, where the budget cuts that one short, Exhausted or
    its own outcome at the default budget), and spends no more states."""
    for X in (build_w(3, 12), build_w(2, 14)):
        for member, n in itertools.product((X, bumped(X, 3)), (2, 3)):
            dom = approxs_of_length(member, n)
            relations = [Relation.from_key_function(
                lambda b, v=v: tuple(w[:l] for w, l in zip(b.nodes, v)), dom)
                for v in admissible_vectors(X.k, n)]
            for seed in (0, 1):
                rng = random.Random(seed)
                relations.append(Relation({b: rng.randrange(3) for b in dom}))
            for relation, tlen, limit in itertools.product(
                    relations, (7, 8), (1, 30, 300, 3000, DEFAULT_BUDGET)):
                args = (relation, X.k, n, member, tlen)
                got, used = _outcome(canonize_relation, args, Budget(limit))
                with mock.patch.object(ramsey, "_VectorFits", LookAheadFreeVectorFits):
                    want, spent = _outcome(canonize_relation, args, Budget(limit))
                case = (member.nodes[3], n, tlen, limit)
                assert used <= spent, case
                if want == _ran_out_at(spent) and got != want:
                    want, _ = _outcome(canonize_relation, args)
                assert got == want, case


def test_relation_look_ahead_work_on_a_long_target_is_bounded(monkeypatch):
    """The relation look-ahead's candidate tests (_rows calls) on a
    1,500-node target, counted in items, not seconds: the parity classes
    of the 3,000 nodes of X leave only the vector (0,), whose search is
    parity pigeonhole at n = 1, and it runs out of its 20,000 states.
    With one bound per vector and per push the look-ahead makes 32,875
    candidate tests; it made 251,345 when every push re-tested every
    pending constraint. A constraint serves every position of its level,
    anchor and closings, 54 of them here for 1,500 positions."""
    X = build_w(2, 3000)
    relation = Relation({Approx(2, (w,)): max(w) % 2 for w in X.nodes})
    calls = [0]
    real = ramsey._VectorLookAhead._rows

    def spy(self, *args):
        calls[0] += 1
        return real(self, *args)

    monkeypatch.setattr(ramsey._VectorLookAhead, "_rows", spy)
    assert canonize_relation(relation, 2, 1, X, 1500, Budget(20000)) == _ran_out_at(20001)
    assert calls[0] <= 40000


def test_partly_placed_closing_work_on_a_long_target_is_bounded(monkeypatch):
    """The partly placed closings' candidate tests (_completions calls) on a
    200-node target, counted in items, not seconds: the parity classes of
    the 2-approximations of 400 nodes of W_2 leave a search that runs out
    of its 20,000 states. A push tests the partly placed closings only
    for the vectors it inserts a key for: 213 candidate tests. Run on every
    push, the same test made 506,855 and took about nine times as long. At
    n = 1 no closing is partly placed, so the test above keeps its count."""
    X = build_w(2, 400)
    relation = Relation({a: max(a.nodes[-1]) % 2 for a in approxs_of_length(X, 2)})
    calls = [0]
    real = ramsey._VectorLookAhead._completions

    def spy(self, *args):
        calls[0] += 1
        return real(self, *args)

    monkeypatch.setattr(ramsey._VectorLookAhead, "_completions", spy)
    assert canonize_relation(relation, 2, 2, X, 200, Budget(20000)) == _ran_out_at(20001)
    assert calls[0] <= 1000


# ----------------------------------------------------------------- fronts


def test_nash_williams_worked_examples():
    W = build_w(2, 15)
    assert not nash_williams_check([r_approx(W, 2), r_approx(W, 3)])
    pairs = approxs_of_length(W, 2)
    assert nash_williams_check(pairs)
    a = Approx(2, ((0, 1), (0, 2)))
    b = Approx(2, ((0, 2), (0, 5)))
    assert nash_williams_check([a, b])


# small approximations of two dimensions, the empty ones included
_SMALL = sub_approxs_up_to(build_w(2, 8), 3) + sub_approxs_up_to(build_w(3, 6), 2)


def test_nash_williams_edge_cases():
    W = build_w(2, 8)
    a, b = r_approx(W, 1), r_approx(W, 2)
    assert nash_williams_check([a, a, a])
    assert not nash_williams_check([b, Approx(2), b])
    assert nash_williams_check([Approx(2), Approx(3)])
    # prefixes are compared as node tuples, whatever the dimension
    assert not nash_williams_check([Approx(3), a])
    assert not nash_williams_check([b, a, b])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from(_SMALL), max_size=6))
def test_nash_williams_matches_the_pairwise_definition(family):
    assert nash_williams_check(family) == oracle_nash_williams(family)


def test_front_cover_ar1_is_covered():
    X = build_w(2, 15)
    family = [Approx(2, (w,)) for w in X.nodes]
    report = front_cover_check(family, X)
    assert report
    assert report.counterexample is None


def test_front_cover_missing_element_is_witnessed():
    X = build_w(2, 10)
    family = approxs_of_length(X, 2)
    removed = family[3]
    report = front_cover_check([a for a in family if a != removed], X)
    assert not report
    bad = report.counterexample
    assert bad.nodes[:2] == removed.nodes
    assert not one_extensions(bad, X)


def test_front_cover_matches_member_entries():
    """A family given as Members names the same approximations as one
    given as Approx values."""
    X = build_w(2, 10)
    family = one_extensions(Approx(2), X)
    members = [Member(2, a.nodes) for a in family]
    assert front_cover_check(family, X) == front_cover_check(members, X)
    assert front_cover_check(members, X)


def test_front_cover_empty_family():
    """The empty family covers nothing; on the empty member, where the walk
    finds no node at all, the empty approximation is the uncovered one,
    and the family of it alone covers."""
    X = build_w(2, 8)
    report = front_cover_check([], X)
    assert not report
    assert len(report.counterexample.nodes) > 0
    assert front_cover_check([], Approx(2)) == ramsey.CoverReport(False, Approx(2))
    assert front_cover_check([Approx(2)], Approx(2))


def test_front_cover_long_chain_does_not_recurse():
    X = build_w(2, 300)
    with shallow_stack(250):
        report = front_cover_check([], X)
    assert not report
    assert report.counterexample.nodes == X.nodes


def test_front_walk_builds_only_the_children_it_visits(monkeypatch):
    """Each visit extends only the children the walk reaches: down the
    one uncovered chain of 301 approximations that is 300 children."""
    calls = []
    extend = ramsey._extend
    monkeypatch.setattr(ramsey, "_extend", lambda a, w: calls.append(w) or extend(a, w))
    budget = Budget()
    assert not front_cover_check([], build_w(2, 300), budget)
    assert (budget.used, len(calls)) == (301, 300)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_front_walk_matches_the_scanning_walk(data):
    """front_cover_check visits what a walk rescanning X at every
    approximation visits, in its order, on supplies in member, reversed
    and shuffled order, some with nodes of other lengths, for
    sub-families of the 1- and 2-approximations (some given as Members,
    which equal the walked approximations with their nodes) and every
    budget up to the full walk."""
    k = data.draw(st.sampled_from([2, 3]))
    W = build_w(k, data.draw(st.integers(3, 16)))
    nodes = list(W.nodes)
    if data.draw(st.booleans(), label="nodes of other lengths"):
        nodes += [(), (5,), tuple(range(k + 1))]
    order = data.draw(st.sampled_from(["member", "reversed", "shuffled"]))
    if order == "reversed":
        nodes.reverse()
    elif order == "shuffled":
        data.draw(st.randoms(use_true_random=False)).shuffle(nodes)
    X = Member(k, tuple(nodes))
    family = []
    for a in one_extensions(Approx(k), W):
        pick = data.draw(st.sampled_from(["none", "it", "children"]))
        chosen = [a] if pick == "it" else one_extensions(a, W) if pick == "children" else []
        for b in chosen:
            if data.draw(st.booleans()):
                family.append(Member(k, b.nodes) if data.draw(st.booleans()) else b)
    full = oracle_front_walk(family, X, DEFAULT_BUDGET)[1]
    limit = data.draw(st.integers(1, full))
    want, visits = oracle_front_walk(family, X, limit)
    budget = Budget(limit)
    got = front_cover_check(family, X, budget)
    if want == "budget":
        assert got == Exhausted("budget", "state budget ran out at %d" % visits)
    else:
        assert got == ramsey.CoverReport(want is None, want)
    assert budget.used == visits


def test_family_members_of_another_dimension_raise_wherever_they_are():
    """A k = 3 member beside a k = 2 member raises in both family checks,
    also where its nodes are not in X and irreducible_agreement would
    drop it when it restricts the family to X."""
    X = build_w(2, 10)
    family = [r_approx(X, 1), Approx(3, build_w(3, 1).nodes)]
    assert not set(family[1].nodes) <= set(X.nodes)
    phi = InnerMap.uniform((1,), family)
    relation = Relation.from_key_function(phi.image, family)
    with pytest.raises(ValueError, match="family and member dimensions differ"):
        front_cover_check(family, X)
    budget = Budget(DEFAULT_BUDGET)
    with pytest.raises(ValueError, match="family and member dimensions differ"):
        irreducible_agreement(phi, phi, relation, family, X, 4, budget)
    assert budget.used == 0


def test_front_cover_requires_nash_williams():
    X = build_w(2, 10)
    with pytest.raises(ValueError):
        front_cover_check([r_approx(X, 1), r_approx(X, 2)], X)


# ------------------------------------------------------------- inner maps


def test_proj_image_levels():
    a = Approx(2, ((0, 1), (0, 2)))
    assert proj_image(a, (2, 2)) == frozenset({(0, 1), (0, 2)})
    assert proj_image(a, (1, 2)) == frozenset({(0,), (0, 2)})
    assert proj_image(a, (0, 0)) == frozenset({()})
    with pytest.raises(ValueError):
        proj_image(a, (1,))
    with pytest.raises(ValueError):
        proj_image(a, (3, 0))


def test_inner_and_irreducible_identity_vector():
    X = build_w(2, 15)
    family = approxs_of_length(X, 2)
    phi = InnerMap.uniform((2, 2), family)
    assert inner_check(phi, family)
    assert irreducible_check(phi, family)


def test_inner_and_irreducible_zero_vector():
    X = build_w(2, 15)
    family = approxs_of_length(X, 2)
    phi = InnerMap.uniform((0, 0), family)
    assert inner_check(phi, family)
    assert irreducible_check(phi, family)


def test_inner_check_rejects_bad_vectors():
    X = build_w(2, 10)
    family = approxs_of_length(X, 2)
    short = InnerMap({a: (2,) for a in family})
    assert not inner_check(short, family)
    oob = InnerMap({a: (2, 5) for a in family})
    assert not inner_check(oob, family)
    partial = InnerMap({family[0]: (2, 2)})
    assert not inner_check(partial, family)


@pytest.mark.parametrize(
    "vector", [(2,), (2, 5), (2, -1), None], ids=["short", "high", "negative", "missing"])
def test_irreducible_check_rejects_a_map_that_is_not_inner(vector):
    """A vector of the wrong length, a level past k or a member without one
    makes the map not inner, so not irreducible."""
    family = approxs_of_length(build_w(2, 10), 2)
    phi = InnerMap({a: vector or (2, 2) for a in family[vector is None:]})
    assert not inner_check(phi, family)
    assert not irreducible_check(phi, family)


def test_irreducible_fails_on_prefix_pattern():
    u, w = (0, 1), (0, 2)
    a = Approx(2, (u,))
    b = Approx(2, (u, w))
    phi = InnerMap({a: (1,), b: (1, 2)})
    family = [a, b]
    assert inner_check(phi, family)
    # image of a is exactly the first-stage partial image of b
    assert not irreducible_check(phi, family)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_irreducible_check_matches_the_double_loop(data):
    family = data.draw(st.lists(st.sampled_from(_SMALL), max_size=6))
    phi = InnerMap(
        {
            a: data.draw(st.tuples(*[st.integers(0, a.k)] * len(a.nodes)))
            for a in family
        }
    )
    assert irreducible_check(phi, family) == oracle_irreducible(phi, family)


def test_irreducible_agreement_trivial():
    X = build_w(2, 15)
    family = [Approx(2, (w,)) for w in X.nodes]
    phi = InnerMap.uniform((1,), family)
    rel = Relation.from_key_function(lambda b: b.nodes[0][:1], family)
    got = irreducible_agreement(phi, phi, rel, family, X, target_len=6)
    assert got and got[1] is True
    assert validate_approx(got[0]).ok


def test_irreducible_agreement_avoids_disagreeing_point():
    # second map projects the one branch-singleton node fully; both
    # maps canonize, and the found sub-member avoids that node
    X = build_w(2, 15)
    family = [Approx(2, (w,)) for w in X.nodes]
    rel = Relation.from_key_function(lambda b: b.nodes[0][:1], family)
    phi = InnerMap.uniform((1,), family)
    odd = {a: ((2,) if a.nodes[0] == (18, 19) else (1,)) for a in family}
    phi2 = InnerMap(odd)
    got = irreducible_agreement(phi, phi2, rel, family, X, target_len=6)
    assert got and got[1] is True
    assert (18, 19) not in got[0].nodes


def test_irreducible_agreement_flags_non_canonizing_map():
    X = build_w(2, 15)
    family = [Approx(2, (w,)) for w in X.nodes]
    rel = Relation.from_key_function(lambda b: b.nodes[0][:1], family)
    phi = InnerMap.uniform((1,), family)
    phi2 = InnerMap.uniform((2,), family)
    got = irreducible_agreement(phi, phi2, rel, family, X, target_len=6)
    assert isinstance(got, DisagreeWitness)
    assert "second" in got.detail


def test_irreducible_agreement_exhausts_without_supply():
    X = build_w(2, 8)
    family = [Approx(2, (w,)) for w in X.nodes]
    rel = Relation.from_key_function(lambda b: b.nodes[0][:1], family)
    phi = InnerMap.uniform((1,), family)
    got = irreducible_agreement(phi, phi, rel, family, X, target_len=30)
    assert isinstance(got, Exhausted)


def _no_agreement_cases():
    """Agreement calls no sub-member can answer, as (maps, relation,
    family, X, target): a family whose one member lies outside X (671,627
    states before the answer on build_w(2, 100) at target 8, and the
    budget ran out at target 12), a target past X (2,044 states on
    build_w(2, 24)), and two injective maps that disagree on every member."""
    x20, x24 = build_w(2, 20), build_w(2, 24)
    outside = [Approx(2, (build_w(2, 30).nodes[25],))]
    pairs = approxs_of_length(x24, 2)
    full, part, identity = _agreement_maps(pairs, 7)
    roots = [Approx(2, (w,)) for w in {w[:1]: w for w in reversed(x20.nodes)}.values()]
    by_root = Relation({a: i for i, a in enumerate(roots)})
    return {
        "outside X": (InnerMap.uniform((1,), outside), InnerMap.uniform((2,), outside),
                      Relation({outside[0]: 0}), outside, x20, 8),
        "past X": (full, part, identity, pairs, x24, 25),
        "disagreeing": (InnerMap.uniform((1,), roots), InnerMap.uniform((2,), roots),
                        by_root, roots, x20, 6),
    }


@pytest.mark.parametrize("case", sorted(_no_agreement_cases()))
def test_irreducible_agreement_without_an_agreeing_member_answers_before_the_first_state(case):
    """The maps canonize the relation, so no DisagreeWitness, but no member
    the search could complete gets the same image from both, or no
    sub-member fits in X: the answer comes before the first state."""
    phi1, phi2, relation, family, X, tlen = _no_agreement_cases()[case]
    budget = Budget(DEFAULT_BUDGET)
    got = irreducible_agreement(phi1, phi2, relation, family, X, tlen, budget)
    assert got == Exhausted("supply", "no sub-member carries an agreeing family member")
    assert budget.used == 0


_FAMILY_X = build_w(2, 10)
_FAMILY = sub_approxs_up_to(_FAMILY_X, 2)[1:]


@st.composite
def _scrambled_member(draw):
    """A member of _FAMILY with its nodes permuted, some of them repeated."""
    a = draw(st.sampled_from(_FAMILY))
    repeated = draw(st.lists(st.sampled_from(a.nodes), max_size=2))
    return Approx(2, tuple(draw(st.permutations(a.nodes + tuple(repeated)))))


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_irreducible_agreement_disagrees_exactly_when_a_pair_fails(data):
    family = data.draw(st.lists(st.sampled_from(_FAMILY), min_size=1, max_size=8))

    def inner_map():
        return InnerMap(
            {a: data.draw(st.tuples(*[st.integers(0, 2)] * len(a.nodes))) for a in family}
        )

    phi1, phi2 = inner_map(), inner_map()
    if data.draw(st.booleans(), label="phi1 canonizes"):
        relation = Relation.from_key_function(phi1.image, family)
    else:
        relation = Relation(
            {a: data.draw(st.integers(0, 2)) for a in dict.fromkeys(family)}
        )
    got = irreducible_agreement(
        phi1, phi2, relation, family, _FAMILY_X, target_len=3, budget=Budget(500)
    )
    first = oracle_disagreement(phi1, relation, family)
    second = oracle_disagreement(phi2, relation, family)
    if first is None and second is None:
        assert not isinstance(got, DisagreeWitness)
        return
    assert isinstance(got, DisagreeWitness)
    phi, tag = (phi1, "first") if first is not None else (phi2, "second")
    assert tag in got.detail
    assert relation.related(got.a, got.b) != (phi.image(got.a) == phi.image(got.b))


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_irreducible_agreement_matches_the_scanning_filter(data):
    """irreducible_agreement gives the outcome and spends the states of the
    search core driven by a filter that rescans the whole family on every
    push, also on members whose nodes are permuted or repeated, which it
    indexes by their node of largest maximum. phi1 projects every node
    fully and canonizes the relation its images induce (the identity on
    the members of _FAMILY), and phi2 keeps or redraws each member's
    vector; when phi2 does not canonize it, no search runs and there is
    nothing to compare.  When phi2 agrees with phi1 on no member, the
    answer comes before the first state, where the scanning search spent
    states until it failed or its budget ran out."""
    member = st.one_of(st.sampled_from(_FAMILY), _scrambled_member())
    family = data.draw(st.lists(member, min_size=1, max_size=8))
    approxs = list(dict.fromkeys(family))
    phi1 = InnerMap({a: (2,) * len(a.nodes) for a in approxs})
    phi2 = InnerMap(
        {
            a: phi1.vector_for(a)
            if data.draw(st.booleans())
            else data.draw(st.tuples(*[st.integers(0, 2)] * len(a.nodes)))
            for a in approxs
        }
    )
    induced = Relation.from_key_function(phi1.image, approxs)
    tlen = data.draw(st.integers(2, 5))
    limit = data.draw(st.integers(1, 2000))
    budget = Budget(limit)
    got = irreducible_agreement(phi1, phi2, induced, family, _FAMILY_X, tlen, budget)
    if isinstance(got, DisagreeWitness):
        assert budget.used == 0
        return
    if not any(phi1.image(a) == phi2.image(a) for a in approxs):
        assert got == Exhausted("supply", "no sub-member carries an agreeing family member")
        assert budget.used == 0
        return
    scan = Budget(limit)
    flt = ScanAgreementFilter(phi1, phi2, approxs)
    try:
        nodes = ramsey._search_member(2, (), _Pool(_FAMILY_X.nodes), tlen, scan, flt)
    except ramsey._Blown:
        assert got == Exhausted("budget", "state budget ran out at %d" % scan.used)
    else:
        if nodes is None:
            assert isinstance(got, Exhausted) and got.reason == "supply"
        else:
            assert got == (Member(2, nodes), True)
    assert budget.used == scan.used


def test_irreducible_agreement_can_find_no_agreeing_member_by_searching():
    """The maps agree on ((3,6),) alone, a member the search can complete,
    so it runs, but no 4-node sub-member of build_w(2,5) carries it: the
    answer is the one given before the first state, after the 7 states
    the scanning filter spends too."""
    X = build_w(2, 5)
    family = [Approx(2, ((0, 1),)), Approx(2, ((3, 6),))]
    phi1 = InnerMap({a: (2,) for a in family})
    phi2 = InnerMap({family[0]: (1,), family[1]: (2,)})
    relation = Relation.from_key_function(phi1.image, family)
    budget, scan = Budget(), Budget()
    got = irreducible_agreement(phi1, phi2, relation, family, X, 4, budget)
    assert got == Exhausted("supply", "no sub-member carries an agreeing family member")
    flt = ScanAgreementFilter(phi1, phi2, family)
    assert ramsey._search_member(2, (), _Pool(X.nodes), 4, scan, flt) is None
    assert budget.used == scan.used == 7


def test_agreement_search_passes_over_members_it_cannot_complete():
    """A member with no nodes, or with a node of another length than k, is
    inside X when X holds that node, but no slot admits it, so no search
    completes the member: the outcome and states are the scanning
    filter's."""
    W = build_w(2, 8)
    X = Member(2, W.nodes + ((),))
    family = [Approx(2, ((),)), Approx(2), Approx(2, (W.nodes[2], ())),
              Approx(2, W.nodes[:1]), Approx(2, W.nodes[1:3])]
    phi = InnerMap({a: (1,) * len(a.nodes) for a in family})
    relation = Relation.from_key_function(phi.image, family)
    budget = Budget(DEFAULT_BUDGET)
    got = irreducible_agreement(phi, phi, relation, family, X, 4, budget)
    scan = Budget(DEFAULT_BUDGET)
    flt = ScanAgreementFilter(phi, phi, family)
    nodes = ramsey._search_member(2, (), _Pool(X.nodes), 4, scan, flt)
    assert got == (Member(2, nodes), True)
    assert budget.used == scan.used


def test_agreement_search_keeps_no_memo():
    """The agreement search's pairs read the placed nodes, so its filter
    gives the search core no signature. Here a signature of the key <->
    class map alone would skip a sub-search that has a leaf and return
    another witness; the outcome and states are the scanning filter's."""
    X = build_w(2, 12)
    pairs = approxs_of_length(X, 2)
    full, part, identity = _agreement_maps(pairs, 7)
    budget = Budget(DEFAULT_BUDGET)
    got = irreducible_agreement(full, part, identity, pairs, X, 7, budget)
    scan = Budget(DEFAULT_BUDGET)
    flt = ScanAgreementFilter(full, part, pairs)
    nodes = ramsey._search_member(2, (), _Pool(X.nodes), 7, scan, flt)
    assert got == (Member(2, nodes), True)
    assert budget.used == scan.used


def test_canonize_relation_vectors_are_irreducible_maps():
    # canonized vectors, spread uniformly over the witness front,
    # always pass the irreducibility check
    X = build_w(2, 60)
    singles = [Approx(2, (w,)) for w in X.nodes]
    for v in admissible_vectors(2, 1):
        induced = Relation.from_key_function(
            lambda b, v=v: b.nodes[0][: v[0]], singles
        )
        got = canonize_relation(induced, 2, 1, X, 6)
        assert got
        family = [Approx(2, (w,)) for w in got.member.nodes]
        phi = InnerMap.uniform(got.vector, family)
        assert inner_check(phi, family)
        assert irreducible_check(phi, family)
