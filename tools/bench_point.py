"""Write one point of the performance trajectory, BENCH_<n>.json.

    python3 tools/bench_point.py --parent DIR --out BENCH_12.json

Runs bench/run.py on every workload of BENCHMARK.json, once in the
checkout at DIR (the parent commit) and once in this checkout (the
change, committed or not) per pair, alternating which side runs first,
each run as long as BENCHMARK.json's run_seconds. PAIRS and SEED are
fixed, so that every point is comparable with the others and has the
ten pairs a claimed gain is judged on. The runs execute one at a time,
so that neither slows the other. The file records, per
workload and side, the search states (deterministic, so a single value
unless the runs disagree), whether every run was correct, the failed
operations, and for every other end-to-end metric the median and
quartiles over the runs, with the number of pairs the change won (ties
count for neither). It also records the Python version and, per side,
the commit (with "-dirty" when the checkout's src/ or bench/ differs
from it) and a digest of the source measured. Both checkouts must be
git clones.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COUNTS = ("states", "peak_call_states")
PAIRS = 10
SEED = 1


def run_once(checkout, workload, seconds):
    """The last stdout line of one bench/run.py run in checkout, parsed."""
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", str(seconds)],
        cwd=checkout, check=True, capture_output=True, text=True,
    ).stdout
    return json.loads(out.strip().splitlines()[-1])


def source_of(checkout):
    """The commit of checkout and a SHA-256 over the relative paths and
    bytes of the files under its src/."""
    def git(*args):
        return subprocess.run(["git", "-C", checkout, *args], check=True,
                              capture_output=True, text=True).stdout.strip()

    commit = git("rev-parse", "HEAD")
    if git("status", "--porcelain", "--", "src", "bench"):
        commit += "-dirty"
    digest = hashlib.sha256()
    src = os.path.join(checkout, "src")
    for folder, dirs, files in os.walk(src):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            path = os.path.join(folder, name)
            digest.update(os.path.relpath(path, src).encode() + b"\0")
            with open(path, "rb") as f:
                digest.update(f.read() + b"\0")
    return {"commit": commit, "src_sha256": digest.hexdigest()}


def summary(runs):
    """Counts as the one value seen, or the sorted values when the runs
    disagree; every other metric as its median and quartiles."""
    out = {"correct": all(r["correct"] for r in runs),
           "failed": sum(r["failed"] for r in runs),
           "attempted": sum(r["attempted"] for r in runs)}
    for name, metric in runs[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in runs]
        if name in COUNTS:
            seen = sorted(set(values))
            out[name] = seen[0] if len(seen) == 1 else seen
        else:
            q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
            out[name] = {"median": median, "q1": q1, "q3": q3, "unit": metric["unit"]}
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="a git clone at the parent commit")
    parser.add_argument("--out", required=True, help="file name, written at the repo root")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    sides = {"parent": os.path.abspath(args.parent), "change": ROOT}
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    point = {
        "python": platform.python_version(),
        "source": {side: source_of(path) for side, path in sides.items()},
        "seed": SEED,
        "pairs": PAIRS,
        "run_seconds": bench["run_seconds"],
        "workloads": {},
    }
    for workload in (w["name"] for w in bench["workloads"]):
        runs = {"parent": [], "change": []}
        for i in range(PAIRS):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                runs[side].append(run_once(sides[side], workload, bench["run_seconds"]))
            print(workload, "pair", i + 1, "done", file=sys.stderr)
        entry = {side: summary(rs) for side, rs in runs.items()}
        entry["change_wins"] = {
            name: sum(
                (p["metrics"][name]["value"] - c["metrics"][name]["value"])
                * (1 if better[name] == "lower" else -1) > 0
                for p, c in zip(runs["parent"], runs["change"])
            )
            for name in runs["parent"][0]["metrics"]
            if name not in COUNTS
        }
        point["workloads"][workload] = entry
    with open(os.path.join(ROOT, args.out), "w") as f:
        json.dump(point, f, indent=2, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
