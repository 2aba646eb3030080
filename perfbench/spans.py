"""In-memory spans recorded by wrapping public package functions.

A Tracer replaces a module attribute (or a class's static method) with
a timing wrapper for the length of a traced call and puts it back
afterwards; no package file changes.  Package code that reaches a
wrapped function through a module global (``studies`` calling
``_sampler.sample_configuration``, ``distance_report`` calling
``hausdorff``) gets the wrapper, so spans nest by themselves.
"""

from __future__ import annotations

import inspect
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    """Records spans (name, start, end, parent, run id) in memory."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self._next_id = 0
        self._patches: list = []

    @contextmanager
    def span(self, name: str):
        rec = {"run": self.run_id, "id": self._next_id, "name": name,
               "parent": self._stack[-1]["id"] if self._stack else None,
               "start": time.perf_counter(), "end": None}
        self._next_id += 1
        self._stack.append(rec)
        try:
            yield rec
        except BaseException as exc:
            rec["error"] = type(exc).__name__
            raise
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()
            self.spans.append(rec)

    def wrap(self, owner, attr: str, name: str, observe=None):
        """Time every call of owner.attr as a span called name.

        observe(rec, args, kwargs, result) may add counts to the span.
        """
        static = inspect.getattr_static(owner, attr)
        original = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            with self.span(name) as rec:
                result = original(*args, **kwargs)
                if observe is not None:
                    observe(rec, args, kwargs, result)
                return result

        self._patches.append((owner, attr, static))
        setattr(owner, attr, staticmethod(wrapper) if isinstance(static, staticmethod)
                else wrapper)

    def restore(self):
        while self._patches:
            owner, attr, static = self._patches.pop()
            setattr(owner, attr, static)


def self_times(spans: list[dict]) -> dict:
    """Span id -> duration minus the part of it its child spans cover."""
    children = defaultdict(list)
    for s in spans:
        children[s["parent"]].append((s["start"], s["end"]))
    out = {}
    for s in spans:
        covered, reach = 0.0, s["start"]
        for lo, hi in sorted(children[s["id"]]):
            lo, hi = max(lo, reach), min(hi, s["end"])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


def self_by_name(spans: list[dict]) -> dict:
    """Span name -> summed self time, largest first."""
    own = self_times(spans)
    totals = defaultdict(float)
    for s in spans:
        totals[s["name"]] += own[s["id"]]
    return dict(sorted(totals.items(), key=lambda kv: -kv[1]))
