"""In-memory spans recorded around calls into the program's modules.

A span is ``(name, start, end, parent, request)``: the parent is the
index of the enclosing span (or -1) and ``request`` the stream position
(or list of positions, for a batch-level call) the work served; a span
opened without one inherits its parent's.  Spans stay in memory during
the traced run and are written once at the end.

Spans around the program's own calls come from wrappers that
:func:`instrumented` installs on its classes and modules for the length
of a traced pass; nothing under ``src/`` is edited.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import ExitStack, contextmanager
from typing import (Any, Callable, Dict, Iterable, Iterator, List, Optional,
                    Sequence, Tuple)


@contextmanager
def patched(owner: Any, name: str, make: Callable[[Any], Any]) -> Iterator[None]:
    """Replace the attribute ``owner.name`` (of a class or a module) with
    ``make(original)`` while the block runs; the original is always put
    back."""
    original = vars(owner)[name]
    setattr(owner, name, make(original))
    try:
        yield
    finally:
        setattr(owner, name, original)


@contextmanager
def instrumented(
        wrappers: Iterable[Tuple[Any, str, Callable[[Any], Any]]]) -> Iterator[None]:
    """:func:`patched` for every ``(owner, name, make)`` of ``wrappers``."""
    with ExitStack() as stack:
        for owner, name, make in wrappers:
            stack.enter_context(patched(owner, name, make))
        yield


class Tracer:
    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str, request: Any = None) -> Iterator[int]:
        parent = self._stack[-1] if self._stack else -1
        if request is None and parent >= 0:
            request = self.spans[parent][4]
        index = len(self.spans)
        record = [name, time.perf_counter(), 0.0, parent, request]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield index
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def rename(self, index: int, name: str) -> None:
        """Name a span after the fact (capture vs replay is known only later)."""
        self.spans[index][0] = name

    def durations_ms(self) -> Dict[str, List[float]]:
        """Per span name, every duration in milliseconds."""
        out: Dict[str, List[float]] = defaultdict(list)
        for name, start, end, _, _ in self.spans:
            out[name].append((end - start) * 1000.0)
        return out

    def per_request_ms(self, names: Sequence[str]) -> List[float]:
        """Per request, the summed duration of its spans named in ``names``."""
        totals: Dict[Any, float] = defaultdict(float)
        for name, start, end, _, request in self.spans:
            if name in names:
                key = tuple(request) if isinstance(request, list) else request
                totals[key] += (end - start) * 1000.0
        return list(totals.values())

    def write(self, path: str, meta: Optional[Dict[str, Any]] = None) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            if meta is not None:
                handle.write(json.dumps({"meta": meta}) + "\n")
            for index, (name, start, end, parent, request) in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": index, "name": name, "start": start, "end": end,
                    "parent": parent, "request": request,
                }) + "\n")


def spanned(tracer: Tracer, name: str,
            request: Optional[Callable[..., Any]] = None,
            after: Optional[Callable[[Any], None]] = None):
    """A :func:`patched` factory: every call of the original runs in a span.

    ``request(*args)`` names the request a call serves (by default the
    enclosing span's); ``after`` sees every return value.  Methods,
    classmethods and plain functions are all wrapped in kind.
    """

    def make(original):
        kind = type(original) if isinstance(
            original, (classmethod, staticmethod)) else None
        function = original.__func__ if kind is not None else original

        def call(*args, **kwargs):
            with tracer.span(name, request(*args) if request else None):
                out = function(*args, **kwargs)
            if after is not None:
                after(out)
            return out

        return kind(call) if kind is not None else call

    return make


def tape_spanned(tracer: Tracer):
    """A :func:`patched` factory for ``CompiledModel.forward``/``infer``:
    the span is named ``tape.capture`` or ``tape.replay`` after the call,
    from the model's ``captures`` counter."""

    def make(original):
        def call(self, batch):
            captures = self.captures
            with tracer.span("tape") as span:
                out = original(self, batch)
            tracer.rename(span, "tape.capture" if self.captures > captures
                          else "tape.replay")
            return out

        return call

    return make
