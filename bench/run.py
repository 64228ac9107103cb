"""Benchmark of the ellentuck package: one workload per run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
its `src/` directory. The run sets its workload up SETUP_REPEATS times,
each time with empty package caches, then repeats whole rounds of the
workload's operations for S seconds: a round starts only when the
previous one suggests it will end in time. Every output is
checked against the reference in reference.py. The last line of standard
output is one JSON object with `correct`, `attempted`, `failed` and
`metrics`: the end-to-end metrics with --trace 0, and with --trace 1 the
per-layer metrics of a traced run (see layers.py), whose spans are also
written to .bench-out/.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench-out")
WORKLOADS = ("relation-canon", "extension-canon", "session")
SETUP_REPEATS = 9


def parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_package():
    """Import ellentuck from this checkout's src/, and nothing else."""
    if not os.path.isfile(os.path.join(SRC, "ellentuck", "__init__.py")):
        raise ImportError("no package source at %s" % SRC)
    sys.path.insert(0, SRC)
    import ellentuck

    if not os.path.abspath(ellentuck.__file__).startswith(SRC + os.sep):
        raise ImportError("ellentuck was imported from %s" % ellentuck.__file__)


def setups():
    import extension_canon
    import relation_canon
    import session

    return {
        "relation-canon": lambda seed, tracer, workdir: relation_canon.setup(seed, tracer),
        "extension-canon": lambda seed, tracer, workdir: extension_canon.setup(seed, tracer),
        "session": session.setup,
    }


def set_up(name, seed, tracer, workdir):
    from harness import cold

    cold()
    gc.collect()
    os.makedirs(workdir, exist_ok=True)
    with tracer.span("setup", workload=name):
        return setups()[name](seed, tracer, workdir)


def measure(args, workdir, import_s):
    """Untraced run: the end-to-end metrics."""
    from harness import run_round, speed
    from tracer import Tracer

    tracer = Tracer(False)
    times, walls = [], []
    after = speed()
    import_s, import_wall = import_s * after, import_s
    for _ in range(SETUP_REPEATS):
        before = after
        t0 = time.perf_counter()
        ops = set_up(args.workload, args.seed, tracer, workdir)
        walls.append(time.perf_counter() - t0)
        after = speed()
        times.append(walls[-1] * (before + after) / 2)
    setup_s = import_s + statistics.median(times)
    ops = [op for op in ops if not op.layer_only]
    rounds = []
    deadline = time.perf_counter() + args.seconds
    while True:
        t0 = time.perf_counter()
        rounds.append(run_round(ops, tracer, args.workload))
        if 2 * time.perf_counter() - t0 > deadline:
            break
    calls = [c for rnd in rounds for c in rnd.calls]
    states = {rnd.states for rnd in rounds}
    metrics = {
        "setup_s": (setup_s, "s"),
        "solve_s": (statistics.median(rnd.solve_s for rnd in rounds), "s"),
        "call_p50_ms": (1e3 * statistics.median(c.seconds for c in calls), "ms"),
        "states": (max(states), "count"),
        "peak_call_states": (max(c.states or 0 for c in calls), "count"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    steady = len(states) == 1
    if not steady:
        print("states differ between rounds: %s" % sorted(states), file=sys.stderr)
    print(
        "as measured, before scaling to the reference speed: setup_s %.4f solve_s %.4f "
        "call_p50_ms %.4f" % (
            import_wall + statistics.median(walls),
            statistics.median(rnd.wall_s for rnd in rounds),
            1e3 * statistics.median(c.wall for c in calls),
        ),
        file=sys.stderr,
    )
    return rounds, metrics, steady


def measure_traced(args, workdir, import_s):
    """Traced run: every workload once, then the chosen one alternately
    untraced and traced, for the tracing overhead."""
    import layers
    from harness import run_round
    from tracer import Tracer

    tracer, plain = Tracer(True), Tracer(False)
    ops, library = {}, []
    for name in WORKLOADS:
        every = set_up(name, args.seed, tracer, workdir)
        ops[name] = [op for op in every if not op.layer_only]
        library += [op for op in every if op.layer_only]
    layers.probe(tracer, args.seed)
    rounds = [run_round(library, tracer, "library")]
    rounds += [run_round(ops[name], tracer, name) for name in WORKLOADS if name != args.workload]
    traced, untraced = [], []
    deadline = time.perf_counter() + args.seconds
    while True:
        t0 = time.perf_counter()
        rnd = run_round(ops[args.workload], plain, args.workload)
        untraced.append(rnd.solve_s)
        rounds.append(rnd)
        rnd = run_round(ops[args.workload], tracer, args.workload)
        traced.append(rnd.solve_s)
        rounds.append(rnd)
        if 2 * time.perf_counter() - t0 > deadline:
            break
    metrics = layers.compute(tracer, traced, untraced)
    os.makedirs(OUT, exist_ok=True)
    tracer.write(os.path.join(OUT, "trace-%s-seed%d.json" % (args.workload, args.seed)))
    return rounds, {name: (m["value"], m["unit"]) for name, m in metrics.items()}, True


def main(argv=None):
    args = parse(argv)
    try:
        import_package()
    except ImportError as err:
        print("error: cannot import the package: %s" % err, file=sys.stderr)
        return 2
    import_s = time.perf_counter() - _START
    from harness import report_errors

    workdir = os.path.join(OUT, "session-%d" % os.getpid())
    try:
        run = measure_traced if args.trace else measure
        rounds, metrics, steady = run(args, workdir, import_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report_errors(rounds)
    result = {
        "correct": steady and not any(rnd.wrong for rnd in rounds),
        "attempted": sum(rnd.attempted for rnd in rounds),
        "failed": sum(rnd.failed for rnd in rounds),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
