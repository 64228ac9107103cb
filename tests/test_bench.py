"""The benchmark's search states stay where its newest point recorded them.

Search states are deterministic, so a pure speed-up must leave them as
they are. This runs one round of each workload of bench/ at the seed of
the newest BENCH_<n>.json and compares `states` and `peak_call_states`
with the change side of that point, in seconds instead of the half hour
a point takes. The bench modules are imported, never edited; the session
workload writes its files under tmp_path.
"""

import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("relation-canon", "extension-canon", "session")


def _newest_point():
    points = {int(m.group(1)): p for p in ROOT.glob("BENCH_*.json")
              if (m := re.fullmatch(r"BENCH_(\d+)\.json", p.name))}
    return json.loads(points[max(points)].read_text())


@pytest.fixture(scope="module")
def bench():
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(ROOT / "bench"))
        import extension_canon
        import harness
        import relation_canon
        import session
        from tracer import Tracer

        yield {
            "setups": {
                "relation-canon": lambda seed, workdir: relation_canon.setup(seed, Tracer(False)),
                "extension-canon": lambda seed, workdir: extension_canon.setup(seed, Tracer(False)),
                "session": lambda seed, workdir: session.setup(seed, Tracer(False), str(workdir)),
            },
            "run_round": lambda ops, name: harness.run_round(ops, Tracer(False), name),
        }


@pytest.mark.parametrize("workload", WORKLOADS)
def test_one_round_spends_the_recorded_states(bench, workload, tmp_path):
    point = _newest_point()
    want = point["workloads"][workload]["change"]
    ops = [op for op in bench["setups"][workload](point["seed"], tmp_path) if not op.layer_only]
    rnd = bench["run_round"](ops, workload)
    assert (rnd.failed, rnd.wrong) == (0, 0), rnd.errors
    assert rnd.states == want["states"]
    assert max(c.states or 0 for c in rnd.calls) == want["peak_call_states"]
