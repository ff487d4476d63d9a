"""Span tracing of divalg's layer modules, installed from outside the program.

`Tracer.install` replaces every public function of the layer modules
(`monads`, `rings`, `nimreps`, `catalog`, `cli`) with a wrapper that records
a span, and rebinds each name both in the module that defines it and in every
module that imported it by name (for example `nimreps.classify_internal_end`
and the `divalg` package namespace).  `uninstall` puts the originals back.
Untraced runs never call `install`.

Spans are kept in memory as (name, start, end, parent, verdict, failed) and
summarised per pass; self time is a span's duration minus the part of its
interval covered by its child spans.
"""

from __future__ import annotations

import functools
import inspect
import tracemalloc
from collections import Counter
from dataclasses import dataclass
from time import perf_counter
from typing import Optional

LAYERS = ("monads", "rings", "nimreps", "catalog", "cli")
# functions whose peak traced allocation is recorded as <name>.peak_mb
MEMORY_TRACED = frozenset({"rings.validate_ring"})


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    verdict: int
    failed: bool


def self_times(spans: list[Span]) -> list[float]:
    """Per span: duration minus the union of its children's intervals, clipped to it."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out = []
    for index, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for start, end in sorted(children.get(index, ())):
            start, end = max(start, reach), min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        out.append((span.end - span.start) - covered)
    return out


def summarise(spans: list[Span], counters: Counter, peaks: dict[str, float]) -> dict[str, float]:
    """Per-pass metrics: <fn>.calls, <fn>.errors, <fn>.self_s, <layer>.self_s, counters, peaks."""
    out: dict[str, float] = Counter()
    for span, own in zip(spans, self_times(spans)):
        layer = span.name.split(".", 1)[0]
        out[f"{span.name}.calls"] += 1
        out[f"{span.name}.errors"] += span.failed
        out[f"{span.name}.self_s"] += own
        out[f"{layer}.self_s"] += own
    out.update(counters)
    for name, peak in peaks.items():
        out[f"{name}.peak_mb"] = peak / 2**20
    return dict(out)


class Tracer:
    def __init__(self, package):
        self.package = package
        self.spans: list[Span] = []
        self.counters: Counter = Counter()
        self.peaks: dict[str, float] = {}
        self.verdict = -1
        # (pass index, spans) for every summarised pass, written out at the end
        self.recorded: list[tuple[int, list[Span]]] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def take(self, pass_index: int) -> dict[str, float]:
        """Summarise what was recorded since the last call and start afresh."""
        spans, self.spans = self.spans, []
        summary = summarise(spans, self.counters, self.peaks)
        self.counters, self.peaks = Counter(), {}
        self.recorded.append((pass_index, spans))
        return summary

    # ------------------------------------------------------------ installing

    def install(self):
        modules = [getattr(self.package, layer) for layer in LAYERS]
        wrappers = {}
        for module in modules:
            layer = module.__name__.rsplit(".", 1)[1]
            for name in module.__all__:
                fn = getattr(module, name)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    wrappers[fn] = self._wrap(f"{layer}.{name}", fn)
        for module in [self.package, *modules]:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._rebind(module, attr, wrappers[value])
        for cls in vars(self.package.monads).values():
            if isinstance(cls, type) and "em_structure_candidates" in vars(cls):
                self._rebind(cls, "em_structure_candidates",
                             self._count_candidates(vars(cls)["em_structure_candidates"]))

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _rebind(self, owner, attr: str, value):
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    # -------------------------------------------------------------- wrappers

    def _wrap(self, name: str, fn):
        tracer = self
        measure_memory = name in MEMORY_TRACED
        counted = {"monads.enumerate_em_algebras": "monads.em_isoclasses",
                   "monads.enumerate_modules": "monads.module_isoclasses"}.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else None
            tracer.spans.append(None)
            tracer._stack.append(index)
            tracing_memory = measure_memory and not tracemalloc.is_tracing()
            if tracing_memory:
                tracemalloc.start()
            failed = False
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                failed = True
                raise
            finally:
                end = perf_counter()
                if tracing_memory:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    tracer.peaks[name] = max(tracer.peaks.get(name, 0), peak)
                tracer._stack.pop()
                tracer.spans[index] = Span(name, start, end, parent, tracer.verdict, failed)
            if counted:
                tracer.counters[counted] += len(result)
            return result

        return wrapper

    def _count_candidates(self, method):
        """Count candidates drawn from the outermost em_structure_candidates only.

        A subclass generator that delegates to its base class passes through
        the base wrapper too; only the wrapper the monad's own class resolves
        to counts.
        """
        tracer = self

        def wrapper(monad, carrier, budget):
            outermost = type(monad).em_structure_candidates is wrapper
            for table in method(monad, carrier, budget):
                if outermost:
                    tracer.counters["monads.em_candidates"] += 1
                yield table

        return functools.wraps(method)(wrapper)
