"""Spans recorded from outside the program.

A Tracer rebinds module attributes that a layer calls through, so every
call made through that name is timed.  A span's self time is its duration
minus the time of the spans it encloses.  Nothing under ``src/`` changes;
attributes that a given version of the program lacks are skipped and
listed in ``missing``.
"""

from __future__ import annotations

from time import perf_counter_ns
from typing import Callable, Dict, List, Union

Name = Union[str, Callable[..., str]]


class Tracer:
    def __init__(self) -> None:
        #: span name -> [calls, total ns, self ns]
        self.spans: Dict[str, List[int]] = {}
        self.missing: List[str] = []
        self._stack: List[int] = []
        self._undo: List[tuple] = []

    def wrap(self, owner, attr: str, name: Name) -> None:
        """Time every call made through ``owner.attr`` as span ``name``.

        ``name`` may be a function of the call's arguments, so that one
        attribute feeds several spans (for example, one per balance kind).
        """
        fn = getattr(owner, attr, None)
        if not callable(fn):
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        spans, stack = self.spans, self._stack
        name_of = name if callable(name) else None

        def traced(*args, **kwargs):
            stack.append(0)
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter_ns() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dt
                key = name_of(*args, **kwargs) if name_of else name
                rec = spans.get(key)
                if rec is None:
                    rec = spans[key] = [0, 0, 0]
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - child

        traced.__wrapped__ = fn
        setattr(owner, attr, traced)
        self._undo.append((owner, attr, fn))

    def restore(self) -> None:
        """Put back every attribute this tracer rebound."""
        while self._undo:
            owner, attr, fn = self._undo.pop()
            setattr(owner, attr, fn)


def merge_spans(into: Dict[str, List[int]], spans: Dict[str, List[int]]) -> None:
    for key, rec in spans.items():
        acc = into.setdefault(key, [0, 0, 0])
        for i, v in enumerate(rec):
            acc[i] += v
