"""Operations, rounds and the checks that guard them.

A workload's set-up returns a list of operations. A round runs each
operation once, in order: one timed call into the package, then a check
of its output against the reference. A call that raises, or returns a
shortfall where an answer was due, counts as failed; an answer that the
check rejects makes the run incorrect.
"""

import gc
import sys
import time
from dataclasses import dataclass, field

import ellentuck.cli
import ellentuck.constructions
import ellentuck.formats
import ellentuck.ramsey
import ellentuck.space
import ellentuck.wellorder
from ellentuck.ramsey import DEFAULT_BUDGET, Budget

_CACHED_MODULES = (
    ellentuck.wellorder,
    ellentuck.space,
    ellentuck.ramsey,
    ellentuck.constructions,
    ellentuck.formats,
    ellentuck.cli,
)


# Times are scaled to a reference machine speed. A shared host can switch
# between speeds far apart several times a second, and the share of slow
# time differs from run to run (bench/README.md); a short fixed spin timed
# right before and after each call says how fast the machine ran around
# that call. A timed call of t seconds counts as t * SPIN_S / spin, where
# spin is the spin's time then: the seconds the call would take where the
# spin takes SPIN_S.
SPIN_S = 0.001


def _spin():
    table = {}
    for i in range(2000):
        key = (i % 7, i % 11, i)
        table[key[:2]] = table.get(key[:2], 0) + max(key)
    return table


def speed():
    """SPIN_S over the fastest of three spins now: 1 at the reference speed."""
    perf = time.perf_counter
    best = float("inf")
    gc.disable()  # the spin's time must not depend on the program's heap
    try:
        for _ in range(3):
            t0 = perf()
            _spin()
            best = min(best, perf() - t0)
    finally:
        gc.enable()
    return SPIN_S / best


class CheckFailed(Exception):
    """The program's output disagrees with the reference."""


class Shortfall(Exception):
    """The program returned no answer where one was due."""


def require(cond, what):
    if not cond:
        raise CheckFailed(what)


def cold():
    """Empty every memo cache of the package, as a fresh process has it."""
    for module in _CACHED_MODULES:
        for value in vars(module).values():
            clear = getattr(value, "cache_clear", None)
            if callable(clear):
                clear()


@dataclass
class Op:
    name: str
    run: object
    check: object
    budgeted: bool = False
    cold: bool = False
    layer_only: bool = False  # run in the traced layer pass, not in rounds
    attrs: dict = field(default_factory=dict)


@dataclass
class Call:
    name: str
    seconds: float  # scaled to the reference speed
    wall: float  # as measured
    states: int | None


@dataclass
class Round:
    calls: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    errors: list = field(default_factory=list)

    @property
    def solve_s(self):
        return sum(c.seconds for c in self.calls)

    @property
    def wall_s(self):
        return sum(c.wall for c in self.calls)

    @property
    def states(self):
        return sum(c.states or 0 for c in self.calls)


def run_round(ops, tracer, workload):
    """Run every operation once, timing the call and checking its output."""
    cold()
    gc.collect()
    rnd = Round()
    perf = time.perf_counter
    after = speed()
    with tracer.span("round", workload=workload):
        for op in ops:
            before = after
            if op.cold:
                cold()
            budget = Budget(DEFAULT_BUDGET) if op.budgeted else None
            args = (budget,) if op.budgeted else ()
            rnd.attempted += 1
            t0 = perf()
            try:
                with tracer.span(op.name, **op.attrs) as span:
                    out = op.run(*args)
            except Exception as err:  # the program failed this operation
                rnd.failed += 1
                rnd.errors.append("%s: %s: %r" % (op.name, type(err).__name__, err))
                after = speed()
                continue
            t1 = perf()
            after = speed()
            states = budget.used if budget is not None else None
            if tracer.enabled and states is not None:
                span.attrs["states"] = states
            wall = t1 - t0
            rnd.calls.append(Call(op.name, wall * (before + after) / 2, wall, states))
            try:
                op.check(out)
            except Shortfall as short:
                rnd.failed += 1
                rnd.errors.append("%s: no answer: %s" % (op.name, short))
            except Exception as bad:  # a check that cannot read the output rejects it
                rnd.wrong += 1
                rnd.errors.append("%s: WRONG: %s: %s" % (op.name, type(bad).__name__, bad))
    return rnd


def report_errors(rounds):
    seen = set()
    for rnd in rounds:
        for line in rnd.errors:
            if line not in seen:
                seen.add(line)
                print(line, file=sys.stderr)
