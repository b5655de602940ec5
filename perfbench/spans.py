"""In-memory span tracer that patches sdrkit names from the outside.

Each wrapped name records a span (name, parent span, start, end, time spent
in wrapped children) every time it is called.  Names are patched where the
caller looks them up: ``sdrkit.irt`` imports ``log_prob_and_grads`` by name,
so the kernel must be wrapped as ``sdrkit.irt.log_prob_and_grads``; patching
``sdrkit.ordinal`` alone would miss every call.  Nothing under ``src/`` is
edited, and :meth:`Tracer.restore` puts every original back.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable


@dataclass
class Span:
    name: str
    parent: int  # index into Tracer.spans, -1 for a root span
    start: float
    end: float = 0.0
    child_s: float = 0.0  # time covered by wrapped children
    info: Any = None  # whatever the name's observer extracted

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    _stack: list[int] = field(default_factory=list)
    _patches: list[tuple[object, str, object]] = field(default_factory=list)

    def wrap(
        self,
        owner: object,
        attr: str,
        name: str,
        observe: Callable[[tuple, dict, Any], Any] | None = None,
    ) -> None:
        """Replace ``owner.attr`` with a recording wrapper.

        ``observe(args, kwargs, result)`` runs after the call, outside the
        span, and its return value is kept as the span's ``info``.
        """
        original = getattr(owner, attr)
        spans, stack = self.spans, self._stack

        @functools.wraps(original)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = Span(name, stack[-1] if stack else -1, 0.0)
            spans.append(span)
            stack.append(idx)
            span.start = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
                if span.parent >= 0:
                    spans[span.parent].child_s += span.end - span.start
            if observe is not None:
                span.info = observe(args, kwargs, result)
            return result

        self._patches.append((owner, attr, original))
        setattr(owner, attr, traced)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def clear(self) -> None:
        self.spans.clear()

    def ancestor(self, span: Span, names: frozenset[str]) -> Span | None:
        """Nearest enclosing span whose name is in ``names``."""
        p = span.parent
        while p >= 0:
            if self.spans[p].name in names:
                return self.spans[p]
            p = self.spans[p].parent
        return None
