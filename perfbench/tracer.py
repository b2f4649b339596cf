"""Span tracing from outside the program.

Spans are recorded around calls *into* each layer, without changing
``src/``. A function is wrapped where its caller looks it up: modules
that ``from x import f`` hold their own binding of ``f``, so patching
``x.f`` alone would record nothing and raise no error. Estimators, the
oracle, the simulator and the Spark executor are wrapped per instance.

A span's self time is its duration minus the durations of the spans it
directly caused, so the self times of one pass add up to the time spent
inside traced calls.
"""
from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager

import repro.bench.harness as harness_mod
import repro.core.enumerate as enumerate_mod
import repro.core.reopt as reopt_mod

#: (module, attribute, span name) for every by-name lookup site.
MODULE_SPANS = (
    (enumerate_mod, "connected_subsets", "query.connected_subsets"),
    (harness_mod, "plan_query", "enumerate.plan_query"),
    (reopt_mod, "plan_query", "enumerate.plan_query"),
    (harness_mod, "true_cards", "executor.true_cards"),
    (reopt_mod, "true_cards", "executor.true_cards"),
    (harness_mod, "reoptimize", "reopt.reoptimize"),
    (reopt_mod, "rewrite_with_temp", "reopt.rewrite"),
)

#: instance method → span name, per kind of object.
ORACLE_SPANS = {
    "card": "truecard.card",
    "register_temp": "truecard.register_temp",
    "temp_stats": "truecard.temp_stats",
    "group_counts": "truecard.group_counts",
    "release": "truecard.release",
}
HARNESS_SPANS = {
    "run_query": "harness.run_query",
    "execute_spark": "harness.execute_spark",
}
EXECUTOR_SPANS = {
    "run": "executor.run",
    "materialize": "executor.materialize",
    "drop_temp": "executor.drop_temp",
}


class Tracer:
    """In-memory span aggregates: name → [total s, self s, calls]."""

    def __init__(self) -> None:
        self.spans: dict[str, list] = defaultdict(lambda: [0.0, 0.0, 0])
        self._children: list[float] = []  # child time of each open span

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            self._children.append(0.0)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                child = self._children.pop()
                agg = self.spans[name]
                agg[0] += dt
                agg[1] += dt - child
                agg[2] += 1
                if self._children:
                    self._children[-1] += dt

        return traced

    def total(self, name: str) -> float:
        return self.spans[name][0] if name in self.spans else 0.0

    def self_time(self, name: str) -> float:
        return self.spans[name][1] if name in self.spans else 0.0

    def calls(self, name: str) -> int:
        return self.spans[name][2] if name in self.spans else 0

    def self_sum(self) -> float:
        return sum(agg[1] for agg in self.spans.values())


@contextmanager
def instrument(tracer: Tracer, harness, executor=None):
    """Wrap every layer boundary of one harness (and executor) in spans.

    Estimators are created eagerly so their ``card`` can be wrapped on
    the instance; everything is restored on exit.
    """
    undo: list[tuple[object, str, object, bool]] = []

    def patch(obj, attr: str, name: str) -> None:
        own = attr in vars(obj)
        undo.append((obj, attr, getattr(obj, attr), own))
        # object.__setattr__ also reaches frozen dataclasses (the simulator).
        object.__setattr__(obj, attr, tracer.wrap(name, getattr(obj, attr)))

    for mod, attr, name in MODULE_SPANS:
        patch(mod, attr, name)
    for perfect_n in (None, 17):
        patch(harness.estimator(perfect_n), "card", "estimator.card")
    for attr, name in ORACLE_SPANS.items():
        patch(harness.oracle, attr, name)
    for attr, name in HARNESS_SPANS.items():
        patch(harness, attr, name)
    patch(harness.sim, "plan_time", "cost.plan_time")
    if executor is not None:
        for attr, name in EXECUTOR_SPANS.items():
            patch(executor, attr, name)
    try:
        yield tracer
    finally:
        for obj, attr, old, own in reversed(undo):
            if own:
                object.__setattr__(obj, attr, old)
            else:  # an instance attribute shadowing a method
                object.__delattr__(obj, attr)
