"""In-memory span recording around calls into the package's public functions.

A :class:`Tracer` replaces a function where a caller looks it up (a module
global such as ``correspondence.check_property`` or a class attribute such
as ``SchemaEvaluator.check_axiom``) with a wrapper that records one span
per call: its name, start, end, parent span and operation id (the frame or
CLI call it belongs to).  Spans live in flat arrays until the end of the
run; self time is the span's duration minus the time its children cover.
:meth:`Tracer.restore` puts every original back.
"""

from __future__ import annotations

import json
from array import array
from pathlib import Path
from time import perf_counter_ns


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("q")
        self.end = array("q")
        self.op_id = -1
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []
        self.counters: dict[str, int] = {}

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.op.append(self.op_id)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(perf_counter_ns())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter_ns()
        self._stack.pop()

    def patch(self, owner: object, attr: str, name, on_result=None) -> None:
        """Wrap ``owner.attr``.  ``name`` is a span name, or a function of
        the call's arguments returning one; ``on_result(args, result)`` runs
        after the span closes."""
        original = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
        fixed = self.name_id(name) if isinstance(name, str) else None
        tracer = self

        def wrapper(*args, **kwargs):
            nid = fixed if fixed is not None else tracer.name_id(name(args))
            idx = tracer.open(nid)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.close(idx)
            if on_result is not None:
                on_result(args, result)
            return result

        wrapper.__wrapped__ = original
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def patch_generator(self, owner: object, attr: str, name: str) -> None:
        """Wrap a generator function so one span covers producing every item."""
        original = getattr(owner, attr)
        nid = self.name_id(name)
        tracer = self

        def wrapper(*args, **kwargs):
            idx = tracer.open(nid)
            try:
                items = list(original(*args, **kwargs))
            finally:
                tracer.close(idx)
            tracer.count(name + ".items", len(items))
            return iter(items)

        wrapper.__wrapped__ = original
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def count(self, key: str, amount: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __len__(self) -> int:
        return len(self.start)

    def summary(self, keep_durations: tuple[str, ...] = ()) -> dict[str, dict]:
        """Per span name: call count, inclusive and self nanoseconds, and,
        for names starting with a prefix in ``keep_durations``, every
        duration (for percentiles)."""
        n = len(self.start)
        start, end, parent, name = self.start, self.end, self.parent, self.name
        child = array("q", bytes(8 * n))
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        rows = [
            {"calls": 0, "total_ns": 0, "self_ns": 0,
             "durations": [] if nm.startswith(keep_durations) else None}
            for nm in self.names
        ]
        for i in range(n):
            row = rows[name[i]]
            d = end[i] - start[i]
            row["calls"] += 1
            row["total_ns"] += d
            row["self_ns"] += d - child[i]
            if row["durations"] is not None:
                row["durations"].append(d)
        return dict(zip(self.names, rows))

    def write(self, path: Path) -> None:
        """Spans as raw arrays (name, parent, op, start, end) plus a JSON header."""
        path.parent.mkdir(parents=True, exist_ok=True)
        header = {
            "names": self.names,
            "spans": len(self),
            "arrays": [["name", "H"], ["parent", "i"], ["op", "i"], ["start", "q"], ["end", "q"]],
        }
        path.with_suffix(".json").write_text(json.dumps(header) + "\n")
        with open(path, "wb") as handle:
            for column in (self.name, self.parent, self.op, self.start, self.end):
                column.tofile(handle)
