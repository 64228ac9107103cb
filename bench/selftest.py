"""Checks of the benchmark itself.

    python3 bench/selftest.py

The reference must reproduce the paper's listings and figures, each
workload's check must reject a corrupted result, a second seed must pass
every check, and BENCHMARK.json must name exactly the metrics the runs
print. Takes about half a minute.
"""

import json
import os
import shutil
import sys
import traceback

import run

run.import_package()

from ellentuck.ramsey import DEFAULT_BUDGET, Budget, CanonicalRelation, RelationCanonization  # noqa: E402
from ellentuck.space import Member  # noqa: E402

import extension_canon  # noqa: E402
import layers  # noqa: E402
import relation_canon  # noqa: E402
import session  # noqa: E402
from harness import run_round  # noqa: E402
from reference import Order, approx_text  # noqa: E402
from tracer import Tracer  # noqa: E402

K2_LISTING = "()≺(0)≺(0,0)≺(0,1)≺(1)≺(1,1)≺(0,2)≺(1,2)≺(2)≺(2,2)"
K3_LISTING = (
    "()≺(0)≺(0,0)≺(0,0,0)≺(0,0,1)≺(0,1)≺(0,1,1)≺(1)≺(1,1)≺(1,1,1)≺(0,0,2)"
    "≺(0,1,2)≺(0,2)≺(0,2,2)≺(1,1,2)≺(1,2)≺(1,2,2)≺(2)≺(2,2)"
)
W2_LEAVES = [
    (0, 1), (0, 2), (3, 4), (0, 5), (3, 6), (7, 8), (0, 9), (3, 10),
    (7, 11), (12, 13), (0, 14), (3, 15), (7, 16), (12, 17), (18, 19),
]
# a restriction of W_2 whose ninth node drops below its predecessor's maximum
R10_E2 = [
    (0, 1), (0, 2), (3, 6), (0, 9), (3, 10), (12, 17), (0, 20), (3, 28),
    (12, 23), (33, 34),
]
SEEDS = (1, 2)
WORKDIR = os.path.join(run.OUT, "selftest")


def rejects(check, out):
    try:
        check(out)
    except Exception:
        return True
    return False


def swapped(nodes, i=1, j=2):
    nodes = list(nodes)
    nodes[i], nodes[j] = nodes[j], nodes[i]
    return tuple(nodes)


def test_reference_listings_and_figures():
    assert Order(2, 2).listing(10) == K2_LISTING
    assert Order(3, 2).listing(19) == K3_LISTING
    assert Order.covering(2, 15).prototype(15) == W2_LEAVES
    order = Order.covering(2, 40)
    assert order.valid(W2_LEAVES)
    assert ("ii", (2, 3)) in order.violations(R10_E2)
    assert approx_text(2, W2_LEAVES[:1]) == '{"k":2,"nodes":[[0,1]]}'


def test_relation_check_rejects_corruption():
    op = next(op for op in relation_canon.setup(1, Tracer(False)) if op.attrs["n"] == 3)
    out = op.run(Budget(DEFAULT_BUDGET))
    op.check(out)
    bad = Member(out.member.k, swapped(out.member.nodes))
    assert rejects(op.check, RelationCanonization(out.vector, bad, ((out.vector, bad),)))
    other = tuple(3 - l if l else 0 for l in out.vector)
    assert rejects(op.check, RelationCanonization(other, out.member, ((other, out.member),)))


def test_extension_check_rejects_corruption():
    ops = extension_canon.setup(1, Tracer(False))
    op = next(op for op in ops if op.attrs == {"k": 2, "m": 1, "level": 2})
    Y, relation = op.run(Budget(DEFAULT_BUDGET))
    op.check((Y, relation))
    assert rejects(op.check, (Y, CanonicalRelation(0)))
    assert rejects(op.check, (Member(Y.k, swapped(Y.nodes, 2, 3)), relation))


def test_session_checks_reject_a_wrong_cli_byte():
    ops = session.setup(1, Tracer(False), WORKDIR)
    tried = 0
    for op in ops:
        if not op.name.startswith("cli."):
            continue
        code, text, err = op.run()
        op.check((code, text, err))
        body = text.rstrip("\n")
        for i in {0, len(body) - 1} if body else ():
            c = body[i]
            flip = str((int(c) + 1) % 10) if c.isdigit() else "#"
            assert rejects(op.check, (code, body[:i] + flip + text[i + 1:], err)), (op, i)
            tried += 1
        assert rejects(op.check, (code + 1, text, err)), op
    assert tried > 20


def test_second_seed_passes_every_check():
    for seed in SEEDS:
        for name, ops in (
            ("relation-canon", relation_canon.setup(seed, Tracer(False))),
            ("extension-canon", extension_canon.setup(seed, Tracer(False))),
            ("session", session.setup(seed, Tracer(False), WORKDIR)),
        ):
            rnd = run_round(ops, Tracer(False), name)
            assert rnd.failed == 0 and rnd.wrong == 0, (name, seed, rnd.errors)
            assert rnd.attempted == len(ops)


def test_benchmark_json_names_what_runs_print():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(layers.METRICS)
    assert [m["name"] for m in spec["end_to_end"]] == [
        "setup_s", "solve_s", "call_p50_ms", "states", "peak_call_states", "peak_rss_mb",
    ]


def main():
    os.makedirs(WORKDIR, exist_ok=True)
    failed = 0
    try:
        for name, test in sorted(globals().items()):
            if name.startswith("test_") and callable(test):
                try:
                    test()
                    print("PASS", name)
                except Exception:
                    failed += 1
                    print("FAIL", name)
                    traceback.print_exc()
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
