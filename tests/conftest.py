"""Shared fixtures.

Expensive objects (the GEANT task, its solved problem) are
session-scoped; everything downstream treats them as read-only.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

import numpy as np
import pytest

from repro import (
    MeasurementTask,
    Network,
    ODPair,
    SamplingProblem,
    janet_task,
    make_task,
    solve,
)
from repro.topology import line_network


@pytest.fixture(scope="session")
def geant_task() -> MeasurementTask:
    """The paper's JANET measurement task (calibrated defaults)."""
    return janet_task()


@pytest.fixture(scope="session")
def geant_problem(geant_task) -> SamplingProblem:
    """Table I's problem: theta = 100 000 packets / 5 min, alpha = 1."""
    return SamplingProblem.from_task(geant_task, theta_packets=100_000)


@pytest.fixture(scope="session")
def geant_solution(geant_problem):
    """The solved Table I problem (gradient projection)."""
    return solve(geant_problem)


@pytest.fixture()
def triangle_network() -> Network:
    """Three nodes, full duplex triangle — smallest multi-path testbed."""
    net = Network("triangle")
    for name in ("A", "B", "C"):
        net.add_node(name)
    net.add_duplex_link("A", "B")
    net.add_duplex_link("B", "C")
    net.add_duplex_link("A", "C")
    return net


@pytest.fixture()
def chain_task() -> MeasurementTask:
    """Two OD pairs on a 4-node chain with distinct sizes.

    n0→n3 traverses all three links, n1→n2 only the middle one, so the
    middle link is shared — the smallest workload with an interesting
    placement decision.
    """
    net = line_network(4)
    od_pairs = [ODPair("n0", "n3"), ODPair("n1", "n2")]
    return make_task(net, od_pairs, [1000.0, 100.0], background_pps=5000.0, seed=7)


def make_random_problem(
    seed: int,
    num_nodes: int = 8,
    num_od: int = 5,
    theta_fraction: float = 0.001,
) -> SamplingProblem:
    """A randomized small problem for property-based solver tests."""
    from repro.topology import random_waxman_network

    rng = np.random.default_rng(seed)
    net = random_waxman_network(num_nodes, seed=seed)
    names = net.node_names
    pairs: list[ODPair] = []
    attempts = 0
    while len(pairs) < num_od and attempts < 200:
        attempts += 1
        a, b = rng.choice(len(names), size=2, replace=False)
        od = ODPair(names[int(a)], names[int(b)])
        if od not in pairs:
            pairs.append(od)
    sizes = rng.uniform(50.0, 20_000.0, size=len(pairs))
    task = make_task(
        net, pairs, sizes, background_pps=float(rng.uniform(1e4, 5e5)), seed=seed
    )
    theta = theta_fraction * float(task.link_loads_pps.sum()) * task.interval_seconds
    return SamplingProblem.from_task(task, theta_packets=max(theta, 1000.0))


# -- metric-name contracts ---------------------------------------------

ROOT = Path(__file__).resolve().parents[1]

#: The registry methods whose first argument is a metric name.
METRIC_NAMING_METHODS = (
    "increment", "gauge", "observe_timer", "observe_histogram", "timer",
)


def documented_metric_names(doc: str, header: str) -> set[str]:
    """Names in the table under ``header`` in ``docs/<doc>``, expanded.

    A cell like ``serve.task.hit`` / ``.miss`` continues the first
    name's prefix; ``{exact,stale,approx}`` braces expand in place.
    """
    lines = (ROOT / "docs" / doc).read_text(encoding="utf-8").splitlines()
    start = lines.index(header) + 2
    names: set[str] = set()
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        first, *suffixes = re.findall(r"`([^`]+)`", line.split("|")[1])
        prefix = first.rsplit(".", 1)[0]
        for name in [first, *(prefix + suffix for suffix in suffixes)]:
            braces = re.fullmatch(r"(.*)\{(.*)\}", name)
            if braces:
                names.update(braces[1] + part for part in braces[2].split(","))
            else:
                names.add(name)
    return names


def emitted_metric_names(
    paths, prefixes: tuple[str, ...], formatted: dict[str, tuple[str, ...]]
) -> set[str]:
    """Names under ``prefixes`` that the sources at ``paths`` pass to METRICS.

    An f-string name expands its literal head over ``formatted[head]``;
    a conditional name contributes both branches.
    """
    names: set[str] = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in METRIC_NAMING_METHODS
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "METRICS"
            ):
                continue
            arg = node.args[0]
            if isinstance(arg, ast.JoinedStr):
                head = arg.values[0].value
                if not head.startswith(prefixes):
                    continue
                assert head in formatted, f"{path}: f-string {head!r}"
                candidates = [head + value for value in formatted[head]]
            elif isinstance(arg, ast.IfExp):
                candidates = [arg.body.value, arg.orelse.value]
            else:
                candidates = [arg.value]
            names.update(n for n in candidates if n.startswith(prefixes))
    return names
