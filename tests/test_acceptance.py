"""Acceptance gate: one test per stated criterion.

Each test enforces its tolerance (byte-exact, figure-exact or 100%)
and its wall-clock bound, and prints a single PASS line with the
measured time. Criteria 9 and 10 share one set of canonization runs
through a module-scoped fixture; the shared compute time is charged
to criterion 9.
"""

import json
import random
import subprocess
import sys
import time

import pytest

from ellentuck.errors import AmbiguousAtScale, Exhausted
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
    irreducible_agreement,
    pigeonhole,
    proj_image,
)
from ellentuck.space import (
    Approx,
    build_w,
    one_extensions,
    r_approx,
    validate_approx,
)
from ellentuck.wellorder import classify_n

from figures import R4_E3, R5_E3, R6_E2, R10_E2, W2_EDGES, W2_LEAVES, W3_LEAVES
from helpers import all_sub_members, oracle_level, sub_approxs_up_to

K2_LISTING = "()≺(0)≺(0,0)≺(0,1)≺(1)≺(1,1)≺(0,2)≺(1,2)≺(2)≺(2,2)"

K3_LISTING = (
    "()≺(0)≺(0,0)≺(0,0,0)≺(0,0,1)≺(0,1)"
    "≺(0,1,1)≺(1)≺(1,1)≺(1,1,1)≺(0,0,2)"
    "≺(0,1,2)≺(0,2)≺(0,2,2)≺(1,1,2)≺(1,2)"
    "≺(1,2,2)≺(2)≺(2,2)"
)


def _cli(*argv):
    return subprocess.run(
        [sys.executable, "-m", "ellentuck", *argv], capture_output=True, text=True
    )


def _passed(num, elapsed, note):
    print("criterion %d: PASS in %.2fs (%s)" % (num, elapsed, note))


def test_criterion_01_wellorder_listing_k2():
    t0 = time.perf_counter()
    got = _cli("enum", "--k", "2", "--count", "10")
    elapsed = time.perf_counter() - t0
    assert got.returncode == 0
    assert got.stdout == K2_LISTING + "\n"
    assert elapsed < 1.0
    _passed(1, elapsed, "byte-exact 10-term listing")


def test_criterion_02_wellorder_listing_k3():
    t0 = time.perf_counter()
    got = _cli("enum", "--k", "3", "--count", "19")
    elapsed = time.perf_counter() - t0
    assert got.returncode == 0
    assert got.stdout == K3_LISTING + "\n"
    assert elapsed < 1.0
    _passed(2, elapsed, "byte-exact 19-term listing")


def test_criterion_03_prototype_k2_figure():
    t0 = time.perf_counter()
    W = build_w(2, 15)
    assert list(W.nodes) == W2_LEAVES
    edges = set()
    for w in W.nodes:
        for level in range(1, 3):
            edges.add((w[: level - 1], w[:level]))
    assert edges == W2_EDGES
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _passed(3, elapsed, "15 leaves and all tree edges figure-exact")


def test_criterion_04_prototype_k3_figure():
    t0 = time.perf_counter()
    W = build_w(3, 20)
    assert list(W.nodes) == W3_LEAVES
    for named in ((0, 4, 10), (0, 11, 21), (6, 14, 25), (16, 29, 30), (31, 32, 33)):
        assert named in W.nodes
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _passed(4, elapsed, "20 leaves figure-exact, named leaves present")


def test_criterion_05_figure_validation():
    t0 = time.perf_counter()
    for k, data in ((2, R6_E2), (3, R4_E3), (3, R5_E3)):
        assert validate_approx(Approx(k, data)).ok
    report = validate_approx(Approx(2, R10_E2))
    assert not report.ok
    assert report.condition == "ii"
    assert report.location == (2, 3)
    assert report.message == "condition (ii) at (2,3)"
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _passed(5, elapsed, "restrictions validate, broken figure flagged at (2,3)")


def test_criterion_06_level_oracle_equivalence():
    t0 = time.perf_counter()
    checked = 0
    for k in (2, 3):
        X = build_w(k, 300)
        for n in range(101):
            got = oracle_level(r_approx(X, n), X)
            assert got == [classify_n(k, n)], (k, n, got)
            checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _passed(6, elapsed, "%d positions, 100%% oracle agreement" % checked)


def test_criterion_07_pigeonhole_certificates():
    t0 = time.perf_counter()
    successes = 0
    for k in (2, 3):
        X = build_w(k, 300)
        empty = Approx(k)
        exts = one_extensions(empty, X)
        for seed in range(100):
            rng = random.Random(seed)
            f = Coloring.from_function(lambda b: rng.randrange(2), exts)
            got = pigeonhole(empty, X, f, 8)
            if not got:
                continue
            successes += 1
            Y, color = got
            assert validate_approx(Y).ok
            assert set(Y.nodes) <= set(X.nodes) and len(Y.nodes) == 8
            seen = {f.of(b) for b in one_extensions(empty, Y)}
            assert seen == {color}
    assert successes > 100

    # exhaustive agreement on small truncations
    compared = 0
    for k in (2, 3):
        Xs = build_w(k, 36)
        for prefix in (0, 1):
            a = Approx(k, Xs.nodes[:prefix])
            small_exts = one_extensions(a, Xs)
            for seed in range(5):
                rng = random.Random(seed)
                f = Coloring.from_function(lambda b: rng.randrange(2), small_exts)
                got = pigeonhole(a, Xs, f, 6)
                brute = any(
                    len({f.of(b) for b in one_extensions(a, Y)}) == 1
                    for Y in all_sub_members(Xs, Xs.nodes[:prefix], 6)
                )
                assert bool(got) == brute, (k, prefix, seed)
                compared += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    _passed(
        7,
        elapsed,
        "%d certificates verified, %d exhaustive comparisons agree"
        % (successes, compared),
    )


def test_criterion_08_one_extension_canonization():
    t0 = time.perf_counter()
    X = build_w(2, 150)
    recovered = set()
    for m in range(5):
        s = r_approx(X, m)
        level = classify_n(2, m)
        exts = one_extensions(s, X)
        tlen = m + 6
        injective = Coloring({b: i for i, b in enumerate(exts)})
        got = canonize_one_extensions(s, X, injective, tlen)
        assert got and got[1] == CanonicalRelation(2), (m, got)
        recovered.add("one-to-one")
        constant = Coloring.from_function(lambda b: 7, exts)
        got = canonize_one_extensions(s, X, constant, tlen)
        assert got and got[1] == CanonicalRelation(0), (m, got)
        recovered.add("constant")
        blocks = Coloring.from_function(lambda b: b.nodes[-1][0], exts)
        got = canonize_one_extensions(s, X, blocks, tlen)
        if level == 0:
            assert got and got[1] == CanonicalRelation(1), (m, got)
            recovered.add("constant-on-blocks")
        else:
            # all extensions continue one branch, so blocks collapse
            assert got and got[1] == CanonicalRelation(0), (m, got)
    assert recovered == {"one-to-one", "constant", "constant-on-blocks"}

    cases = 0
    for seed in range(100):
        rng = random.Random(seed)
        m = rng.randrange(5)
        s = r_approx(X, m)
        level = classify_n(2, m)
        f = Coloring.from_function(
            lambda b: rng.randrange(3), one_extensions(s, X)
        )
        got = canonize_one_extensions(s, X, f, m + 6)
        if level == 1:
            # the blocked outcome can neither win nor be a candidate
            if isinstance(got, AmbiguousAtScale):
                assert 1 not in got.candidates, (seed, m)
            elif not isinstance(got, Exhausted):
                assert got[1].level != 1, (seed, m)
        cases += 1
    assert cases == 100
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _passed(8, elapsed, "three outcomes recovered, blocked level never returned")


@pytest.fixture(scope="module")
def canonization_runs():
    results, states = {}, 0
    t0 = time.perf_counter()
    for k in (2, 3):
        X = build_w(k, 200)
        for n in (1, 2):
            domain = [a for a in sub_approxs_up_to(X, n) if len(a.nodes) == n]
            tlen = 6 if n == 1 else 8
            for v in admissible_vectors(k, n):
                induced = Relation.from_key_function(
                    lambda b, v=v: tuple(b.nodes[i][: v[i]] for i in range(n)),
                    domain,
                )
                budget = Budget(DEFAULT_BUDGET)
                results[(k, n, v)] = (induced, canonize_relation(induced, k, n, X, tlen, budget))
                states += budget.used
    return results, time.perf_counter() - t0, states


def test_criterion_09_relation_canonization_round_trip(canonization_runs):
    """The 18 calls spend 7,828 states in all, counted so that a slow host
    cannot hide a change in the search behind the wall bound; they spent
    1,063,996 before the relation search looked ahead, and 51,808 before
    it read partly placed closings. Every refuted vector now leaves the
    search by the push of node 1, once its map holds a key that no
    completion in X of a template approximation still to close can take:
    the (1,0)-induced calls went from 28,283 to 1,491 states (k = 2) and
    from 15,129 to 671 (k = 3), and k = 3's (2,0)-induced call from 3,401
    to 671."""
    results, shared, states = canonization_runs
    t0 = time.perf_counter()
    count = 0
    for (k, n, v), (_, got) in results.items():
        assert got, (k, n, v, got)
        assert got.vector == v, (k, n, v, got.vector)
        assert validate_approx(got.member).ok
        for i, level in enumerate(got.vector):
            assert level == 0 or classify_n(k, i) + 1 <= level <= k
        count += 1
    elapsed = shared + (time.perf_counter() - t0)
    assert count == sum(
        len(admissible_vectors(k, n)) for k in (2, 3) for n in (1, 2)
    )
    assert states == 7828
    assert elapsed < 120.0
    _passed(9, elapsed, "%d round-trips exact, vector bounds hold" % count)


def test_criterion_10_canonizing_vectors_agree(canonization_runs):
    results, _, _ = canonization_runs
    t0 = time.perf_counter()
    relations = 0
    for (k, n, v), (induced, got) in results.items():
        assert got, (k, n, v)
        witness = got.member
        domain = [a for a in sub_approxs_up_to(witness, n) if len(a.nodes) == n]
        assert domain
        vectors = [fit_vector for fit_vector, _ in got.fits]
        assert got.vector in vectors
        for other in vectors:
            for b in domain:
                assert proj_image(b, other) == proj_image(b, got.vector), (
                    k, n, v, other, b,
                )
        relations += 1

    # the agreement search itself, on a canonizing pair
    for k in (2, 3):
        induced, got = results[(k, 1, (1,))]
        family = [Approx(k, (w,)) for w in got.member.nodes]
        phi = InnerMap.uniform((1,), family)
        agreed = irreducible_agreement(phi, phi, induced, family, got.member, 3)
        assert agreed and agreed[1] is True
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _passed(10, elapsed, "%d relations, all fitting vectors agree pointwise" % relations)
