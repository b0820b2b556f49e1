"""Self-tests of the benchmark's tracer: self time, wrapping, restoring."""

from __future__ import annotations

import argparse
import sys
import threading
import types

import layers
import pytest
import tracer
import workloads


def _span(span_id, parent, start, end, layer="x"):
    return {"id": span_id, "parent": parent, "root": None, "name": "f",
            "layer": layer, "start": start, "end": end}


def _self_times(spans):
    tracer.annotate_self_times(spans)
    return {record["id"]: record["self"] for record in spans}


def test_self_time_of_nested_spans():
    spans = [
        _span(1, None, 0, 100),
        _span(2, 1, 10, 40),
        _span(3, 2, 20, 30),
        _span(4, 1, 50, 60),
    ]
    assert _self_times(spans) == {1: 60, 2: 20, 3: 10, 4: 10}


def test_self_time_counts_overlapping_children_once():
    # Two asyncio tasks started under one span run concurrently; a
    # child that outlives its parent only covers the parent's part.
    spans = [
        _span(1, None, 0, 100),
        _span(2, 1, 10, 50),
        _span(3, 1, 30, 70),
        _span(4, 1, 90, 130),
    ]
    assert _self_times(spans)[1] == 100 - 60 - 10


def test_spans_of_other_threads_are_not_children():
    spans = [
        _span(1, None, 0, 100),   # thread A
        _span(2, None, 10, 90),   # thread B, overlapping in time
        _span(3, 2, 20, 30),
    ]
    assert _self_times(spans) == {1: 100, 2: 70, 3: 10}


def _fake_package(monkeypatch):
    package = types.ModuleType("e2efake")
    inner = types.ModuleType("e2efake.inner")
    user = types.ModuleType("e2efake.user")

    def leaf(x):
        return x + 1

    def outer(x):
        return inner.leaf(x) * 2

    class Box:
        def get(self):
            return inner.leaf(1)

    inner.leaf, inner.outer, inner.Box = leaf, outer, Box
    user.leaf = leaf  # a ``from .inner import leaf`` binding
    for module in (package, inner, user):
        monkeypatch.setitem(sys.modules, module.__name__, module)
    targets = [
        ("low", "e2efake.inner", "leaf", None),
        ("high", "e2efake.inner", "outer", None),
        ("high", "e2efake.inner", "Box.get", None),
        ("absent", "e2efake.missing", "nothing", None),
    ]
    return inner, user, targets


def test_install_wraps_every_binding_and_uninstall_restores(monkeypatch):
    inner, user, targets = _fake_package(monkeypatch)
    leaf, outer, get = inner.leaf, inner.outer, inner.Box.__dict__["get"]
    recorder = tracer.Recorder().install(targets)
    assert inner.leaf is not leaf and user.leaf is inner.leaf
    assert inner.outer(1) == 4
    assert inner.Box().get() == 2
    assert user.leaf(0) == 1
    recorder.uninstall()
    assert (inner.leaf, user.leaf, inner.outer) == (leaf, leaf, outer)
    assert inner.Box.__dict__["get"] is get

    by_name = {}
    for record in recorder.spans:
        by_name.setdefault(record["name"], []).append(record)
    outer_span = by_name["outer"][0]
    leaf_under_outer = by_name["leaf"][0]
    assert leaf_under_outer["parent"] == outer_span["id"]
    assert leaf_under_outer["root"] == outer_span["id"]
    assert by_name["Box.get"][0]["parent"] is None
    assert len(by_name["leaf"]) == 3


def test_threads_keep_their_own_span_stacks(monkeypatch):
    inner, _, targets = _fake_package(monkeypatch)
    recorder = tracer.Recorder().install(targets)
    barrier = threading.Barrier(2)

    def work():
        barrier.wait()
        with recorder.span("op", "op"):
            for _ in range(50):
                inner.outer(1)

    threads = [threading.Thread(target=work) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(10)
        assert not thread.is_alive()
    recorder.uninstall()

    tracer.annotate_self_times(recorder.spans)
    by_id = {record["id"]: record for record in recorder.spans}
    roots, inner_spans = layers.op_scoped(recorder.spans)
    assert len(roots) == 2 and len(inner_spans) == 200
    for record in inner_spans:
        root = by_id[record["root"]]
        assert root["thread"] == record["thread"]
    # Per op, the self times of everything under it add up to its
    # duration exactly.
    for root in roots:
        under = sum(r["self"] for r in recorder.spans if r["root"] == root["id"])
        assert under == root["end"] - root["start"]


def test_exceptions_close_the_span(monkeypatch):
    inner, _, targets = _fake_package(monkeypatch)
    recorder = tracer.Recorder().install(targets)
    with pytest.raises(TypeError):
        inner.leaf("not a number")
    recorder.uninstall()
    (record,) = recorder.spans
    assert record["status"] == "error" and record["end"] >= record["start"]


def _bindings():
    """Every binding in ``repro`` of a traced function or method."""
    found = {}
    for _, module_name, qualname, _ in layers.TARGETS:
        module = sys.modules.get(module_name)
        if module is None:
            continue
        owner, _, attr = qualname.rpartition(".")
        if owner:
            found[qualname] = getattr(module, owner).__dict__[attr]
        else:
            for name, mod in list(sys.modules.items()):
                if name == "repro" or name.startswith("repro."):
                    for key, value in vars(mod).items():
                        if value is getattr(module, attr):
                            found[f"{name}.{key}"] = value
    return found


def test_untraced_run_wraps_nothing(tmp_path):
    import repro
    import repro.serve  # noqa: F401 - bring every target module in
    import repro.stream  # noqa: F401

    before = _bindings()
    assert before["repro.solve"] is repro.core.solver.solve
    args = argparse.Namespace(
        workload="stream-week", seed=3, seconds=0.1, phase="full", trace=0,
        smoke=True, tmp=str(tmp_path), out=None,
    )
    result = workloads.stream_week(workloads.Run(args))
    assert result["layers"] is None and result["failed"] == 0
    after = _bindings()
    assert after == before
    assert not any(hasattr(value, "__e2e_original__") for value in after.values())

    recorder = tracer.Recorder().install(layers.TARGETS)
    assert repro.solve is not before["repro.solve"]
    recorder.uninstall()
    assert _bindings() == before
