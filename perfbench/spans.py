"""Outside-in span tracing for the traced benchmark run.

The benchmark never edits the program.  It records a span around calls
into public methods of the objects a workload builds, by replacing the
bound method on that one instance with a timing wrapper
(:meth:`SpanLog.wrap`).  Spans nest through an explicit stack (the runs
are single-threaded), are kept in memory as
:class:`repro.obs.spans.SpanRecord` and written out once, at the end of
the run, in the repository's chrome://tracing format.

A span's *self time* is its duration minus the durations of its direct
children; summing self time by layer (the span's ``cat``) gives the
per-layer breakdown without double counting nested layers.
"""

from __future__ import annotations

import json
import time
from array import array
from collections import defaultdict
from pathlib import Path
from typing import Callable

from repro.obs.export import write_chrome_trace
from repro.obs.spans import SpanRecord

#: ``note(args, kwargs, result)`` returns up to two numbers, stored as the
#: span attributes named by ``fields``.
Note = Callable[[tuple, dict, object], tuple]

_MISSING = object()


class SpanLog:
    """In-memory span recorder.

    Spans are stored column-wise in :mod:`array` buffers rather than as one
    object per span, so tracing adds no garbage-collector work: a growing
    heap of small tracked objects would trigger collections that walk the
    program's own large containers and charge that to whatever runs.
    """

    def __init__(self) -> None:
        self._parent = array("q")
        self._code = array("q")
        self._start = array("d")
        self._dur = array("d")
        self._a = array("d")
        self._b = array("d")
        self._names: list[tuple[str, str, tuple[str, ...]]] = []
        self._stack: list[int] = []
        self._epoch = time.perf_counter()
        self._undo: list[Callable[[], None]] = []

    def traced(
        self,
        fn: Callable,
        name: str,
        cat: str,
        note: Note | None = None,
        fields: tuple[str, ...] = (),
    ) -> Callable:
        """``fn`` wrapped so every call records a span ``name`` in layer
        ``cat``; ``note`` supplies the values of ``fields``."""
        code = len(self._names)
        self._names.append((name, cat, fields))
        parent_col, code_col = self._parent, self._code
        start_col, dur_col = self._start, self._dur
        a_col, b_col = self._a, self._b
        stack = self._stack
        clock = time.perf_counter
        nan = float("nan")

        def traced(*args, **kwargs):
            row = len(start_col)
            parent_col.append(stack[-1] if stack else -1)
            code_col.append(code)
            a_col.append(nan)
            b_col.append(nan)
            dur_col.append(0.0)
            stack.append(row)
            start = clock()
            start_col.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                dur_col[row] = clock() - start
                stack.pop()
            if note is not None:
                values = note(args, kwargs, result)
                a_col[row] = values[0]
                if len(values) > 1:
                    b_col[row] = values[1]
            return result

        return traced

    def wrap(
        self,
        owner: object,
        method: str,
        name: str,
        cat: str,
        note: Note | None = None,
        fields: tuple[str, ...] = (),
    ) -> None:
        """Trace calls of ``owner.method`` made through the instance."""
        saved = owner.__dict__.get(method, _MISSING)
        setattr(owner, method, self.traced(
            getattr(owner, method), name, cat, note, fields
        ))

        def undo() -> None:
            if saved is _MISSING:
                delattr(owner, method)
            else:
                setattr(owner, method, saved)

        self._undo.append(undo)

    def wrap_all(self, owner: object, methods, prefix: str, cat: str) -> None:
        """:meth:`wrap` each of ``methods`` as ``prefix.method``."""
        for method in methods:
            self.wrap(owner, method, f"{prefix}.{method}", cat)

    def on_restore(self, undo: Callable[[], None]) -> None:
        """Register extra instrumentation to take out in :meth:`restore`."""
        self._undo.append(undo)

    def restore(self) -> None:
        """Take every wrapper out again, newest first."""
        while self._undo:
            self._undo.pop()()

    def records(self) -> list[SpanRecord]:
        """The recorded spans, in call order (build after the run)."""
        out = []
        for row in range(len(self._start)):
            name, cat, fields = self._names[self._code[row]]
            attrs = {}
            for field, value in zip(fields, (self._a[row], self._b[row])):
                attrs[field] = value
            parent = self._parent[row]
            out.append(SpanRecord(
                span_id=row, parent_id=None if parent < 0 else parent,
                name=name, cat=cat, start=self._start[row] - self._epoch,
                duration=self._dur[row], attrs=attrs,
            ))
        return out


class SpanIndex:
    """Self times, roots and per-layer totals of a finished span log."""

    def __init__(self, records: list[SpanRecord]):
        self.records = records
        self.by_id = {r.span_id: r for r in records}  # ids are row numbers
        child_time: dict[int, float] = defaultdict(float)
        for r in records:
            if r.parent_id is not None:
                child_time[r.parent_id] += r.duration
        self.self_time = {
            r.span_id: r.duration - child_time[r.span_id] for r in records
        }
        self._root: dict[int, SpanRecord] = {}

    def root(self, record: SpanRecord) -> SpanRecord:
        """The outermost span enclosing ``record``."""
        chain = []
        node = record
        while node.parent_id is not None and node.span_id not in self._root:
            chain.append(node)
            node = self.by_id[node.parent_id]
        top = self._root.get(node.span_id, node)
        for r in chain:
            self._root[r.span_id] = top
        self._root[node.span_id] = top
        return top

    def named(self, name: str) -> list[SpanRecord]:
        return [r for r in self.records if r.name == name]

    def count(self, *names: str) -> int:
        wanted = set(names)
        return sum(1 for r in self.records if r.name in wanted)

    def inclusive(self, *names: str) -> float:
        """Summed duration of the named spans (they must not nest)."""
        wanted = set(names)
        return sum(r.duration for r in self.records if r.name in wanted)

    def layer_self(self, cat: str, where=None) -> float:
        """Summed self time of layer ``cat`` (optionally filtered)."""
        return sum(
            self.self_time[r.span_id] for r in self.records
            if r.cat == cat and (where is None or where(r))
        )

    def layer_inclusive(self, cat: str) -> float:
        """Wall time inside layer ``cat``: durations of its outermost spans
        (a span whose parent is in the same layer is already covered)."""
        total = 0.0
        for r in self.records:
            if r.cat != cat:
                continue
            parent = self.by_id.get(r.parent_id) if r.parent_id is not None else None
            if parent is None or parent.cat != cat:
                total += r.duration
        return total

    def table(self) -> list[dict]:
        """Per-span-name calls, inclusive and self seconds (largest self first)."""
        rows: dict[str, dict] = {}
        for r in self.records:
            row = rows.setdefault(
                r.name, {"name": r.name, "layer": r.cat, "calls": 0,
                         "incl_s": 0.0, "self_s": 0.0},
            )
            row["calls"] += 1
            row["incl_s"] += r.duration
            row["self_s"] += self.self_time[r.span_id]
        return sorted(rows.values(), key=lambda row: -row["self_s"])


def write_outputs(
    out_dir: Path, stem: str, records: list[SpanRecord], summary: dict
) -> tuple[Path, Path]:
    """Write the chrome trace and the per-layer summary JSON."""
    out_dir.mkdir(parents=True, exist_ok=True)
    trace_path = write_chrome_trace(out_dir / f"{stem}.trace.json", spans=records)
    summary_path = out_dir / f"{stem}.layers.json"
    summary_path.write_text(json.dumps(summary, indent=2, sort_keys=True))
    return trace_path, summary_path


def span_lines(idx: SpanIndex, top: int = 12) -> list[str]:
    """The ``top`` spans by self time as printable table lines."""
    lines = [f"{'span':<40} {'calls':>8} {'incl s':>9} {'self s':>9}"]
    for row in idx.table()[:top]:
        lines.append(
            f"{row['name']:<40} {row['calls']:>8} {row['incl_s']:>9.4f} "
            f"{row['self_s']:>9.4f}"
        )
    return lines
