"""Spans recorded from outside the program, around calls into its layers.

The benchmark never edits the program: it wraps the public entry point
of each layer (a module-level function or a class method) for the
duration of a traced round and records one span per call — name, start,
end and the span that was open when the call began.  Spans stay in
memory and are written once, at the end of the run, in the Chrome
trace-event format that :class:`repro.telemetry.Tracer` writes.

A layer's *inclusive* time is the time covered by its outermost spans;
a span's *self* time is its duration minus the part its child spans
cover.  ``attributed_share`` is the share of a root span's duration
covered by layer spans (operation spans, such as one artifact or one
scenario, are looked through: they are units of accounting, not layers).
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterator, Sequence


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the recorder's span list, -1 for a root


@dataclass(frozen=True)
class Target:
    """A layer entry point: ``module:attr`` or ``module:Class.method``."""

    ref: str
    span: str
    #: called with the call's positional arguments and its return value
    #: (captures outputs for the checks)
    on_return: "Callable[[tuple, Any], None] | None" = None


class SpanRecorder:
    """In-memory span list plus the patching that feeds it."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        #: targets that no longer exist in the program (skipped, reported)
        self.missing: list[str] = []

    # -- recording ------------------------------------------------------ #

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent))
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[int]:
        idx = self._open(name)
        try:
            yield idx
        finally:
            self._close(idx)

    def _wrap(self, fn: Callable[..., Any], target: Target) -> Callable[..., Any]:
        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            idx = self._open(target.span)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if target.on_return is not None:
                target.on_return(args, out)
            return out

        return wrapper

    # -- patching ------------------------------------------------------- #

    @contextlib.contextmanager
    def patched(self, targets: Sequence[Target]) -> Iterator[None]:
        """Wrap every target for the duration of the block.

        A module-level function is replaced wherever a loaded ``repro``
        module binds it (packages re-export, callers import by name); a
        method is replaced on its class.  Everything is restored on exit,
        including bindings made by modules imported inside the block.
        """
        undo: list[tuple[Any, str, Any, Any]] = []
        try:
            for target in targets:
                resolved = _resolve(target.ref)
                if resolved is None:
                    if target.ref not in self.missing:
                        self.missing.append(target.ref)
                    continue
                owner, attr, original = resolved
                wrapper = self._wrap(original, target)
                if isinstance(owner, type):
                    # an inherited method is shadowed, then un-shadowed
                    own = vars(owner).get(attr)
                    setattr(owner, attr, wrapper)
                    undo.append((owner, attr, own, wrapper))
                    continue
                for module in _repro_modules():
                    for name, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, name, wrapper)
                            undo.append((module, name, original, wrapper))
            yield
        finally:
            for owner, name, original, wrapper in reversed(undo):
                if original is None:
                    delattr(owner, name)
                else:
                    setattr(owner, name, original)
            wrappers = {id(w): o for _, _, o, w in undo if o is not None}
            for module in _repro_modules():
                for name, value in list(vars(module).items()):
                    if id(value) in wrappers:
                        setattr(module, name, wrappers[id(value)])

    # -- analysis ------------------------------------------------------- #

    def children(self) -> list[list[int]]:
        kids: list[list[int]] = [[] for _ in self.spans]
        for i, s in enumerate(self.spans):
            if s.parent >= 0:
                kids[s.parent].append(i)
        return kids

    def inclusive(self, names: Sequence[str], within: "Sequence[int] | None" = None) -> float:
        """Time covered by the outermost spans named in ``names``.

        With ``within``, only spans descending from those roots count.
        """
        wanted = set(names)
        pool = range(len(self.spans)) if within is None else self.descendants(within)
        total = 0.0
        for i in pool:
            s = self.spans[i]
            if s.name not in wanted:
                continue
            p = s.parent
            while p >= 0 and self.spans[p].name not in wanted:
                p = self.spans[p].parent
            if p < 0:
                total += s.end - s.start
        return total

    def descendants(self, roots: Sequence[int], name: "str | None" = None) -> list[int]:
        """Indices of spans under any of ``roots`` (named ``name``, if given)."""
        inside = set(roots)
        out = []
        for i, s in enumerate(self.spans):
            # parents precede their children in the list
            if s.parent in inside:
                inside.add(i)
                if name is None or s.name == name:
                    out.append(i)
        return out

    def covered(self, root: int, ops: Sequence[str] = ()) -> float:
        """Time under ``root`` covered by layer spans (``ops`` looked through)."""
        kids = self.children()
        looked_through = set(ops)

        def walk(i: int) -> float:
            total = 0.0
            for c in kids[i]:
                s = self.spans[c]
                total += walk(c) if s.name in looked_through else s.end - s.start
            return total

        return walk(root)

    def write_chrome(self, path: Path, workload: str) -> Path:
        """Export as Chrome trace events (microseconds from the first span)."""
        from repro.telemetry import Tracer

        tracer = Tracer(capacity=max(1, len(self.spans)))
        base = self.spans[0].start if self.spans else 0.0
        for i, s in enumerate(self.spans):
            tracer.complete(
                s.name, s.name.split(".")[0], s.start - base, s.end - s.start,
                tid=1, args={"span": i, "parent": s.parent, "workload": workload},
            )
        path.parent.mkdir(parents=True, exist_ok=True)
        return tracer.write(path)


def _repro_modules() -> list[Any]:
    return [
        m for name, m in list(sys.modules.items())
        if m is not None and (name == "repro" or name.startswith("repro."))
    ]


def _resolve(ref: str) -> "tuple[Any, str, Any] | None":
    module_name, _, path = ref.partition(":")
    try:
        obj: Any = importlib.import_module(module_name)
    except ImportError:
        return None
    parts = path.split(".")
    for part in parts[:-1]:
        obj = getattr(obj, part, None)
        if obj is None:
            return None
    original = getattr(obj, parts[-1], None)
    if not callable(original):
        return None
    return obj, parts[-1], original
