"""In-memory spans around calls into the public functions of fbetamax.

The tracer records one span per call: name, start, end and the index of
the enclosing span.  ``instrument`` swaps each traced function for a
timing wrapper wherever the program holds a reference to it (the
defining module, every module that imported it by name, or the class for
a method), and puts the originals back on exit.  Nothing inside the
program changes; only the names it looks up are rebound.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    counts: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    _stack: list[int] = field(default_factory=list)

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), parent=parent))
        index = len(self.spans) - 1
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index].end = time.perf_counter()

    def wrap(self, name: str, fn: Callable, on_result: Callable | None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if on_result is not None:
                on_result(self.counts, args, kwargs, result)
            return result

        return traced

    def inclusive(self) -> dict[str, float]:
        """Seconds per span name, not counting a span nested in one of the same name."""
        out: dict[str, float] = defaultdict(float)
        for sp in self.spans:
            parent = sp.parent
            while parent is not None and self.spans[parent].name != sp.name:
                parent = self.spans[parent].parent
            if parent is None:
                out[sp.name] += sp.end - sp.start
        return out

    def self_by_layer(self) -> dict[str, float]:
        """Seconds per layer (the span name before the first dot) minus child spans."""
        child_time = [0.0] * len(self.spans)
        for sp in self.spans:
            if sp.parent is not None:
                child_time[sp.parent] += sp.end - sp.start
        out: dict[str, float] = defaultdict(float)
        for sp, inner in zip(self.spans, child_time):
            out[sp.name.split(".", 1)[0]] += sp.end - sp.start - inner
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([[sp.name, sp.start, sp.end, sp.parent] for sp in self.spans], fh)


def _rebind(original, replacement) -> list[tuple[object, str, object]]:
    """Point every fbetamax reference to `original` at `replacement`; return undo list."""
    undo = []
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "fbetamax" or mod_name.startswith("fbetamax.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                undo.append((module, attr, value))
                setattr(module, attr, replacement)
    return undo


@contextmanager
def patched(points):
    """Rebind each (owner, attr, make_replacement) for the duration of the block.

    owner is a class (the method is replaced on the class) or a module (the
    function is replaced in every fbetamax module that holds it).
    """
    undo = []
    try:
        for owner, attr, make in points:
            original = getattr(owner, attr)
            replacement = make(original)
            if isinstance(owner, type):
                undo.append((owner, attr, original))
                setattr(owner, attr, replacement)
            else:
                undo.extend(_rebind(original, replacement))
        yield
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)


@contextmanager
def instrument(tracer: Tracer, points):
    """Trace each (span name, owner, attr, on_result) point for the block."""
    with patched(
        (owner, attr, lambda fn, name=name, hook=hook: tracer.wrap(name, fn, hook))
        for name, owner, attr, hook in points
    ):
        yield
