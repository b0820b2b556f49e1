"""In-memory span tracer for the end-to-end benchmark.

The tracer wraps named functions of the program at every module
binding that refers to them and records one span per call: name,
layer, start and end (``time.monotonic_ns``, which every process on
the machine shares), the span that was current when the call began,
and the root of that chain.  The current span is a context variable,
so spans are per thread and per asyncio task.  Spans stay in memory
and are written out as JSONL when the traced process is done.

It imports nothing from the program, because it measures the
program's own tracing layer along with everything else.  A run without
tracing never constructs a :class:`Recorder`, so nothing is wrapped.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Iterable

#: (span id, root id) of the span open in this thread or task.
_CURRENT: contextvars.ContextVar[tuple[int, int] | None] = (
    contextvars.ContextVar("e2e_current_span", default=None)
)

#: One wrap target: (layer, module, qualified name, attribute extractor).
#: The extractor gets ``(args, kwargs, result)`` of a successful call
#: and returns a dict stored on the span, or is None.
Target = tuple[str, str, str, "Callable | None"]


class Recorder:
    """Spans of one process, plus the wrappers that produce them."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._swapped: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------

    @contextlib.contextmanager
    def span(self, name: str, layer: str):
        """One span around a block: an op root, input generation, a call."""
        parent = _CURRENT.get()
        span_id = next(self._ids)
        record = {
            "id": span_id,
            "parent": parent[0] if parent else None,
            "root": parent[1] if parent else span_id,
            "name": name,
            "layer": layer,
            "thread": threading.get_ident(),
            "start": time.monotonic_ns(),
            "end": None,
            "status": "ok",
        }
        token = _CURRENT.set((span_id, record["root"]))
        try:
            yield record
        except BaseException:
            record["status"] = "error"
            raise
        finally:
            record["end"] = time.monotonic_ns()
            _CURRENT.reset(token)
            self.spans.append(record)

    def _wrap(self, fn: Callable, name: str, layer: str, extract) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name, layer) as record:
                result = fn(*args, **kwargs)
            if extract is not None:
                record["attrs"] = extract(args, kwargs, result)
            return result

        traced.__e2e_original__ = fn
        return traced

    # -- installing wrappers ------------------------------------------

    def install(self, targets: Iterable[Target]) -> "Recorder":
        """Wrap every target whose module is already imported.

        A function is replaced at every binding in its package that
        refers to it (``from .x import f`` copies included); a method
        is replaced on its class.  Modules imported later are not
        touched, so callers import what they will run first.
        """
        for layer, module_name, qualname, extract in targets:
            module = sys.modules.get(module_name)
            if module is None:
                continue
            owner_name, _, attr = qualname.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(
                        self._wrap(raw.__func__, qualname, layer, extract)
                    )
                else:
                    wrapped = self._wrap(raw, qualname, layer, extract)
                self._swap(owner, attr, raw, wrapped)
                continue
            original = getattr(module, attr)
            wrapped = self._wrap(original, qualname, layer, extract)
            package = module_name.split(".")[0]
            for name, mod in list(sys.modules.items()):
                if mod is None or not (
                    name == package or name.startswith(package + ".")
                ):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._swap(mod, key, original, wrapped)
        return self

    def _swap(self, owner, attr: str, original, wrapped) -> None:
        setattr(owner, attr, wrapped)
        self._swapped.append((owner, attr, original))

    def uninstall(self) -> None:
        """Put every original binding back."""
        while self._swapped:
            owner, attr, original = self._swapped.pop()
            setattr(owner, attr, original)

    # -- output ---------------------------------------------------------

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.spans:
                handle.write(json.dumps(record, default=repr) + "\n")


def read_jsonl(path) -> list[dict]:
    """Spans of one process, each annotated with its ``self`` time (ns).

    ``process`` is set to the file name, so spans read from several
    processes keep distinct (process, id) keys.
    """
    with open(path, encoding="utf-8") as handle:
        spans = [json.loads(line) for line in handle if line.strip()]
    annotate_self_times(spans)
    for record in spans:
        record["process"] = str(path)
    return spans


def covered_ns(intervals: Iterable[tuple[int, int]], lo: int, hi: int) -> int:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0
    cursor = lo
    for start, end in sorted(intervals):
        start = max(start, cursor)
        end = min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def annotate_self_times(spans: list[dict]) -> None:
    """Set ``span["self"]``: duration minus the time its children cover.

    Children running concurrently (asyncio tasks started under one
    span) overlap; their union is subtracted once.  Spans of one
    process share an id space, so call this per process.
    """
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for record in spans:
        if record["parent"] is not None:
            children[record["parent"]].append((record["start"], record["end"]))
    for record in spans:
        start, end = record["start"], record["end"]
        record["self"] = (end - start) - covered_ns(
            children.get(record["id"], ()), start, end
        )
