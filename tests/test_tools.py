"""Smoke tests of the scripts under tools/."""

import importlib.util
import io
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _tool(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / (name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_vector_depths_prints_each_call_and_its_vectors():
    """One header line per call with the joint search's states, then one
    line per vector searched, exactly one of which fits: the inducing
    vector. A refuted vector of the k = 3, n = 3 call dies by depth 2."""
    out = io.StringIO()
    _tool("vector_depths").main(out)
    lines = out.getvalue().splitlines()
    headers = [line for line in lines if not line.startswith(" ")]
    assert [h.rsplit(": ", 1)[1] for h in headers] == [
        "551 states", "286 states", "279 states", "1491 states", "671 states"]
    assert headers[2].startswith("relation-canon k=3 n=3 W_3[45] target 8, (2, 0, 3)-induced")
    assert sum(" fits " in line for line in lines) == len(headers)
    assert "  (0, 0, 3)     274 states  -    vetoed by depth: 1: 10, 2: 169" in lines
