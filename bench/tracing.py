"""In-memory spans around the public functions the pipeline calls.

A span is recorded by replacing a module attribute with a wrapper, so the
span carries the name its caller resolves (``pipeline.generate_fading`` is
the ``generate_fading`` that ``make_record`` looks up in ``pipeline``).  The
wrappers are installed only for a traced unit and removed after it, and
spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import json
import resource
import time
from dataclasses import dataclass, field


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


@dataclass
class Span:
    span_id: int
    name: str
    parent: int | None
    record: tuple | None  # (scenario, snr token, index) of the enclosing record
    key: object = None  # call arguments, where the caller asked for them
    start: float = 0.0
    end: float = 0.0
    cpu_start: float = 0.0
    cpu_end: float = 0.0
    children_cpu: float = 0.0  # CPU seconds of child processes reaped inside

    @property
    def dur(self) -> float:
        return self.end - self.start

    @property
    def cpu(self) -> float:
        return self.cpu_end - self.cpu_start


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    _stack: list[Span] = field(default_factory=list)
    _patched: list[tuple[object, str, object]] = field(default_factory=list)

    def wrap(self, module, attr: str, record_key=None, key=None,
             children_cpu: bool = False) -> None:
        """Replace ``module.attr`` with a span-recording wrapper.

        ``record_key(args)`` returns the (scenario, SNR, index) coordinates
        that the span and all its descendants belong to; ``key(args)`` is
        stored on the span; ``children_cpu`` records the CPU time of child
        processes that end during the call.
        """
        original = getattr(module, attr)
        name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"

        @functools.wraps(original)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            record = record_key(args) if record_key else (parent.record if parent else None)
            span = Span(len(self.spans), name, parent.span_id if parent else None, record,
                        key(args) if key else None)
            self.spans.append(span)
            self._stack.append(span)
            if children_cpu:
                span.children_cpu = -_children_cpu()
            span.cpu_start = time.process_time()
            span.start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                span.cpu_end = time.process_time()
                if children_cpu:
                    span.children_cpu += _children_cpu()
                self._stack.pop()

        setattr(module, attr, traced)
        self._patched.append((module, attr, original))

    def unwrap_all(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def children(self) -> dict[int, list[Span]]:
        out: dict[int, list[Span]] = {}
        for s in self.spans:
            if s.parent is not None:
                out.setdefault(s.parent, []).append(s)
        return out

    def self_time(self, span: Span, children: dict[int, list[Span]]) -> float:
        """Duration minus the part of the interval its child spans cover."""
        covered = 0.0
        cur_lo = cur_hi = None
        for c in sorted(children.get(span.span_id, []), key=lambda s: s.start):
            if cur_hi is None or c.start > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = c.start, c.end
            else:
                cur_hi = max(cur_hi, c.end)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        return span.dur - covered

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s.span_id, "name": s.name, "parent": s.parent,
                    "record": list(s.record) if s.record else None,
                    "start_s": s.start, "dur_ms": 1e3 * s.dur, "cpu_ms": 1e3 * s.cpu,
                    "children_cpu_ms": 1e3 * s.children_cpu,
                }) + "\n")
