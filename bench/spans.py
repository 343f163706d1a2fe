"""Per-layer spans, recorded from outside the program.

While a :class:`Tracer` is installed, each traced public function is replaced
by a wrapper in every hahnforge module that binds it (``from .plalg import
pl_min`` gives ``builder``, ``pairs`` and ``sections`` their own binding, and
``plalg`` calls its own functions through its globals), and the traced
methods are replaced on their classes.  A wrapper opens a span; a span's self
time is its duration minus the durations of the spans opened inside it.
Spans and counts are kept in memory per request and read out by the caller.
"""

from __future__ import annotations

import time
from collections import Counter
from fractions import Fraction

# (defining module, function) -> metric that receives its self time.
TIMED = {
    ("specdsl", "parse_spec"): "specdsl.parse_s",
    ("specdsl", "family_from_spec"): "specdsl.elaborate_s",
    ("specdsl", "tail_family_from_spec"): "specdsl.elaborate_s",
    ("pairs", "envelopes"): "pairs.envelopes_s",
    ("plalg", "pl_min"): "plalg.envelope_s",
    ("plalg", "pl_max"): "plalg.envelope_s",
    ("plalg", "equality_set"): "plalg.equality_set_s",
    ("plalg", "dominates"): "plalg.dominates_s",
    ("plalg", "distance_function"): "plalg.distance_s",
    ("plalg", "pl_sum"): "plalg.sum_s",
    ("builder", "stage_envelopes"): "builder.stage_envelopes_s",
    ("builder", "stage_sets_of"): "builder.stage_sets_s",
    ("builder", "hahn_block"): "builder.blocks_s",
    ("builder", "synthesize"): "builder.synthesize_s",
    ("builder", "verify_synthesis"): "builder.verify_s",
    ("sections", "tail_sections"): "sections.tail_s",
}
# Spans whose metric is their whole duration, not their self time.
INCLUSIVE = {"builder.synthesize_s"}
# Methods timed on their class: (module, class, method) -> metric.
TIMED_METHODS = {
    ("builder", "BlockProductFunc", "to_json"): "builder.export_s",
    ("builder", "BlockProductFunc", "sample_rows"): "builder.export_s",
}
# plalg functions whose results are measured (knots, components, bits) when
# they return to one of these modules; pl_scale is measured but not timed.
SIZED = {"pl_min", "pl_max", "pl_sum", "pl_scale", "equality_set", "distance_function"}
SIZED_CALLERS = {"builder", "pairs", "sections"}
MODULES = ("plalg", "pairs", "sections", "builder", "specdsl", "cli")

TIME_METRICS = sorted(set(TIMED.values()) | set(TIMED_METHODS.values())) + [
    "cli.request_s",
    "cli.other_s",
]
COUNT_METRICS = [
    "plalg.envelope_calls",
    "plalg.eval_calls",
    "plalg.knots_out",
    "plalg.ratset_components",
]


def bit_size(q: Fraction) -> int:
    return max(q.numerator.bit_length(), q.denominator.bit_length())


class Tracer:
    """Installs the wrappers and accumulates one request's spans and counts."""

    def __init__(self):
        self.times: Counter = Counter()
        self.counts: Counter = Counter()
        self.bits_max = 0
        self._stack: list[float] = []  # child time accumulated per open span
        self._undo: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.times.clear()
        self.counts.clear()
        self.bits_max = 0

    def _measure(self, result) -> None:
        if hasattr(result, "breakpoints"):
            self.counts["plalg.knots_out"] += len(result.breakpoints)
            numbers = (*result.breakpoints, *result.values)
        elif hasattr(result, "intervals"):
            self.counts["plalg.ratset_components"] += len(result.intervals)
            numbers = [q for pair in result.intervals for q in pair]
        else:
            return
        self.bits_max = max(self.bits_max, max((bit_size(q) for q in numbers), default=0))

    def span(self, metric: str | None, func, sized: bool = False):
        tracer = self

        def wrapper(*args, **kwargs):
            if metric is None:
                result = func(*args, **kwargs)
                if sized:
                    tracer._measure(result)
                return result
            stack = tracer._stack
            stack.append(0.0)
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                children = stack.pop()
                if stack:
                    stack[-1] += duration
                tracer.times[metric] += duration if metric in INCLUSIVE else duration - children
            if sized:
                tracer._measure(result)
            if metric == "plalg.envelope_s":
                tracer.counts["plalg.envelope_calls"] += 1
            return result

        return wrapper

    def request(self, main, argv: list[str]) -> int:
        """Run ``main(argv)`` as the root span: cli.request_s and cli.other_s."""
        self._stack.append(0.0)
        start = time.perf_counter()
        try:
            return main(argv)
        finally:
            duration = time.perf_counter() - start
            children = self._stack.pop()
            self.times["cli.request_s"] += duration
            self.times["cli.other_s"] += duration - children

    def _patch(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def install(self, package: dict) -> None:
        """Wrap the traced functions in ``package``, a map of module name to module."""
        originals = {}
        for (module, name), metric in TIMED.items():
            originals[getattr(package[module], name)] = (module, name, metric)
        for name in SIZED - {n for m, n in TIMED if m == "plalg"}:
            originals[getattr(package["plalg"], name)] = ("plalg", name, None)
        for caller in MODULES:
            mod = package[caller]
            for attr, value in list(vars(mod).items()):
                if callable(value) and value in originals:
                    module, name, metric = originals[value]
                    sized = module == "plalg" and name in SIZED and caller in SIZED_CALLERS
                    if metric is not None or sized:
                        self._patch(mod, attr, self.span(metric, value, sized))
        for (module, cls_name, method), metric in TIMED_METHODS.items():
            cls = getattr(package[module], cls_name)
            self._patch(cls, method, self.span(metric, getattr(cls, method)))
        plfunc = package["plalg"].PLFunc
        evaluate = plfunc.__call__
        counts = self.counts

        def counted_call(f, x):
            counts["plalg.eval_calls"] += 1
            return evaluate(f, x)

        self._patch(plfunc, "__call__", counted_call)

    def uninstall(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)
