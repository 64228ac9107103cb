"""Per-layer metrics, read from the spans of a traced run.

Most numbers come from the spans the workloads record around their own
calls. Two probes add what no workload times on its own: the well-order
arithmetic on ranks and positions no earlier call has asked for, and
Approx construction and validate_approx over whole truncations.
"""

import random
import statistics

from ellentuck.space import Approx, build_w, validate_approx
from ellentuck.wellorder import domain_at, rank_of, seq_at_rank

from harness import CheckFailed, cold, require

CLI_COMMANDS = (
    "build-w", "validate", "enum", "extensions", "construct", "fuse", "embed",
    "check-front", "check-irreducible",
)
TAILED = ("extension-canon", "session")

METRICS = (
    [
        ("wellorder.rank_of.ops_per_s", "1/s"),
        ("wellorder.seq_at_rank.ops_per_s", "1/s"),
        ("wellorder.domain_at.ops_per_s", "1/s"),
        ("space.build_w.s", "s"),
        ("space.validate_approx.nodes_per_s", "1/s"),
        ("space.one_extensions.calls_per_s", "1/s"),
        ("space.approx.ns_per_node", "ns"),
        ("ramsey.canonize_relation.states", "count"),
        ("ramsey.canonize_relation.peak_call_states", "count"),
        ("ramsey.canonize_relation.n2.us_per_state", "us"),
        ("ramsey.canonize_relation.n3.us_per_state", "us"),
        ("ramsey.canonize_one_extensions.states", "count"),
        ("ramsey.canonize_one_extensions.us_per_state", "us"),
        ("ramsey.canonize_one_extensions.peak_call_states", "count"),
        ("ramsey.pigeonhole.states", "count"),
        ("ramsey.pigeonhole.us_per_state", "us"),
        ("ramsey.relation_build.s", "s"),
        ("ramsey.coloring_build.s", "s"),
    ]
    + [
        (name, unit)
        for check in ("nash_williams_check", "front_cover_check", "irreducible_check")
        for name, unit in (("ramsey.%s.ms" % check, "ms"), ("ramsey.%s.family" % check, "count"))
    ]
    + [
        ("constructions.%s.ms" % name, "ms")
        for name in ("construct_in_basic_set", "fuse", "dense_embed", "thin_to_subcopy")
    ]
    + [("formats.%s.MB_per_s" % name, "MB/s") for name in ("dump", "load", "to_dot", "from_dot")]
    + [("cli.%s.p50_ms" % name, "ms") for name in CLI_COMMANDS]
    + [
        ("cli.overhead_ms", "ms"),
        ("trace.solve_s_traced", "s"),
        ("trace.solve_s_untraced", "s"),
        ("trace.solve_s_delta", "s"),
    ]
    + [
        ("%s.call_tail_%s" % (workload, part), unit)
        for workload in TAILED
        for part, unit in (("ms", "ms"), ("pct", "%"), ("samples", "count"))
    ]
)

PROBE_OPS = 400


def probe(tracer, seed):
    """Time the well-order arithmetic cold, and Approx construction."""
    rng = random.Random(seed)
    cold()
    for k in (2, 3):
        ranks = rng.sample(range(5000, 20000), PROBE_OPS)
        positions = rng.sample(range(5000, 20000), PROBE_OPS)
        with tracer.span("wellorder.seq_at_rank", ops=PROBE_OPS):
            seqs = [seq_at_rank(r, k) for r in ranks]
        with tracer.span("wellorder.rank_of", ops=PROBE_OPS):
            back = [rank_of(s, k) for s in seqs]
        with tracer.span("wellorder.domain_at", ops=PROBE_OPS):
            full = [domain_at(n, k) for n in positions]
        require(back == ranks, "rank_of does not invert seq_at_rank")
        require(all(len(s) == k and list(s) == sorted(s) for s in full),
                "domain_at returned a sequence that is not full-length")
    for k in (2, 3):
        W = build_w(k, 200)
        with tracer.span("space.approx", nodes=200 * 201 // 2):
            for m in range(1, 201):
                Approx(k, W.nodes[:m])
        with tracer.span("space.validate_approx", nodes=200):
            report = validate_approx(W)
        require(report.ok, "the prototype does not validate")


class Spans:
    def __init__(self, tracer):
        self.spans = tracer.spans
        self.by_id = {s.id: s for s in self.spans}

    def named(self, name, **match):
        return [
            s for s in self.spans
            if s.name == name and all(s.attrs.get(k) == v for k, v in match.items())
        ]

    def children(self, span):
        return [s for s in self.spans if s.parent == span.id]

    def under(self, span, name):
        """Whether some ancestor of the span is named `name`."""
        parent = span.parent
        while parent is not None:
            node = self.by_id[parent]
            if node.name == name:
                return True
            parent = node.parent
        return False


def _rate(spans, attr):
    return sum(s.attrs[attr] for s in spans) / sum(s.seconds for s in spans)


def _states_per_round(spans, workload, name):
    first = spans.named("round", workload=workload)[0]
    return sum(s.attrs.get("states", 0) for s in spans.children(first) if s.name == name)


def _per_state_us(spans):
    return 1e6 * sum(s.seconds for s in spans) / sum(s.attrs["states"] for s in spans)


def tail(durations):
    """(value, percentile, samples): the highest percentile with at least
    ten samples beyond it."""
    n = len(durations)
    if n < 40:
        raise CheckFailed("a call tail needs at least 40 calls, got %d" % n)
    ordered = sorted(durations)
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def compute(tracer, traced, untraced):
    sp = Spans(tracer)
    v = {}
    for name in ("rank_of", "seq_at_rank", "domain_at"):
        v["wellorder.%s.ops_per_s" % name] = _rate(sp.named("wellorder." + name), "ops")
    v["space.build_w.s"] = sum(
        s.seconds for s in sp.named("space.build_w") if sp.under(s, "setup")
    )
    v["space.validate_approx.nodes_per_s"] = _rate(sp.named("space.validate_approx"), "nodes")
    v["space.one_extensions.calls_per_s"] = _rate(sp.named("space.one_extensions"), "calls")
    approx = sp.named("space.approx")
    v["space.approx.ns_per_node"] = 1e9 / _rate(approx, "nodes")

    name = "ramsey.canonize_relation"
    relation = sp.named(name)
    v[name + ".states"] = _states_per_round(sp, "relation-canon", name)
    v[name + ".peak_call_states"] = max(s.attrs["states"] for s in relation)
    v[name + ".n2.us_per_state"] = _per_state_us(sp.named(name, n=2))
    v[name + ".n3.us_per_state"] = _per_state_us(sp.named(name, n=3))
    name = "ramsey.canonize_one_extensions"
    extension = sp.named(name)
    v[name + ".states"] = _states_per_round(sp, "extension-canon", name)
    v[name + ".us_per_state"] = _per_state_us(extension)
    v[name + ".peak_call_states"] = max(s.attrs["states"] for s in extension)
    name = "ramsey.pigeonhole"
    v[name + ".states"] = _states_per_round(sp, "session", name)
    v[name + ".us_per_state"] = _per_state_us(sp.named(name))
    for name in ("relation_build", "coloring_build"):
        v["ramsey.%s.s" % name] = sum(s.seconds for s in sp.named("ramsey." + name))
    for name in ("nash_williams_check", "front_cover_check", "irreducible_check"):
        calls = sp.named("ramsey." + name)
        v["ramsey.%s.ms" % name] = 1e3 * statistics.median(s.seconds for s in calls)
        v["ramsey.%s.family" % name] = statistics.median(s.attrs["family"] for s in calls)
    for name in ("construct_in_basic_set", "fuse", "dense_embed", "thin_to_subcopy"):
        calls = sp.named("constructions." + name)
        v["constructions.%s.ms" % name] = 1e3 * statistics.median(s.seconds for s in calls)
    for name in ("dump", "load", "to_dot", "from_dot"):
        v["formats.%s.MB_per_s" % name] = _rate(sp.named("formats." + name), "bytes") / 1e6
    for name in CLI_COMMANDS:
        calls = sp.named("cli." + name)
        v["cli.%s.p50_ms" % name] = 1e3 * statistics.median(s.seconds for s in calls)

    library, command = {}, {}
    for s in sp.spans:
        if "pair" in s.attrs:
            side = command if s.name.startswith("cli.") else library
            side.setdefault(s.attrs["pair"], []).append(s.seconds)
    v["cli.overhead_ms"] = 1e3 * statistics.median(
        statistics.median(times) - statistics.median(library[pair])
        for pair, times in command.items()
    )

    v["trace.solve_s_traced"] = statistics.median(traced)
    v["trace.solve_s_untraced"] = statistics.median(untraced)
    v["trace.solve_s_delta"] = v["trace.solve_s_traced"] - v["trace.solve_s_untraced"]

    for name in TAILED:
        durations = [
            s.seconds for rnd in sp.named("round", workload=name) for s in sp.children(rnd)
        ]
        value, pct, samples = tail(durations)
        v[name + ".call_tail_ms"] = 1e3 * value
        v[name + ".call_tail_pct"] = pct
        v[name + ".call_tail_samples"] = samples
    return {name: {"value": v[name], "unit": unit} for name, unit in METRICS}
