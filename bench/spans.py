"""In-memory span recorder for the traced benchmark run.

A span is one call across a layer boundary: its name, start and end
(``time.perf_counter`` seconds), the span that was open when it began, the
thread it ran on and a work count (realizations, grid points, ...).  Spans
stay in memory and are written once, after the traced body has finished.

Parent stacks are kept per thread, because ``ensemble --threads`` runs the
realizations, and with them ``eigh``, on pool threads.  A span that starts
on a thread with nothing open takes as parent the innermost span open on the
main thread, which is the call that started the pool.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time

FIELDS = ("id", "run", "name", "start", "end", "parent", "thread", "units")


class Tracer:
    """Records spans; `install` wraps layer entry points, `uninstall` undoes it."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            is_main = threading.current_thread() is threading.main_thread()
            stack = self._main_stack if is_main else []
            self._local.stack = stack
        return stack

    def wrap(self, name: str, fn, units=None):
        """A traced stand-in for `fn`; `units(args, kwargs)` counts its work."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            main = self._main_stack
            parent = stack[-1] if stack else (main[-1] if main else None)
            span_id = next(self._ids)
            stack.append(span_id)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                work = units(args, kwargs) if units is not None else 0
                self.spans.append(
                    (span_id, self.run_id, name, start, end, parent, threading.get_ident(), work)
                )

        return traced

    def install(self, name: str, fn, namespaces, units=None) -> None:
        """Replace `fn` by a traced wrapper wherever a namespace binds it."""
        traced = self.wrap(name, fn, units)
        for namespace in namespaces:
            for attr, value in list(vars(namespace).items()):
                if value is fn:
                    self._patches.append((namespace, attr, value))
                    setattr(namespace, attr, traced)

    def uninstall(self) -> None:
        for namespace, attr, value in reversed(self._patches):
            setattr(namespace, attr, value)
        self._patches.clear()

    def dump(self, path) -> None:
        rows = [list(span) for span in sorted(self.spans)]
        with open(path, "w") as handle:
            json.dump({"run": self.run_id, "fields": list(FIELDS), "spans": rows}, handle)


def load(path) -> list[dict]:
    """Read a trace file back and check that it is well formed."""
    with open(path) as handle:
        data = json.load(handle)
    if data.get("fields") != list(FIELDS):
        raise ValueError(f"{path}: unexpected span fields {data.get('fields')!r}")
    spans = [dict(zip(FIELDS, row)) for row in data["spans"]]
    ids = {span["id"] for span in spans}
    if len(ids) != len(spans):
        raise ValueError(f"{path}: duplicate span ids")
    for span in spans:
        if span["run"] != data["run"]:
            raise ValueError(f"{path}: span {span['id']} belongs to another run")
        if not span["end"] >= span["start"]:
            raise ValueError(f"{path}: span {span['id']} ends before it starts")
        if span["parent"] is not None and span["parent"] not in ids:
            raise ValueError(f"{path}: span {span['id']} has an unknown parent")
    return spans


def summarize(spans: list[dict]) -> dict[str, dict[str, float]]:
    """Per span name: calls, total seconds, self seconds and work units.

    Self time is a span's duration minus the part of it covered by its
    child spans; children on several threads may overlap, so the covered
    part is the length of the union of their intervals.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append((span["start"], span["end"]))
    out: dict[str, dict[str, float]] = {}
    for span in spans:
        start, end = span["start"], span["end"]
        covered, reach = 0.0, start
        for lo, hi in sorted(children.get(span["id"], ())):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        entry = out.setdefault(span["name"], {"calls": 0, "s": 0.0, "self_s": 0.0, "units": 0})
        entry["calls"] += 1
        entry["s"] += end - start
        entry["self_s"] += end - start - covered
        entry["units"] += span["units"]
    return out
