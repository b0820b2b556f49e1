"""Random topology generators.

Used by property-based tests and by the convergence experiment
(§IV-D runs the optimizer over many randomized inputs) to exercise the
solver on graphs other than GEANT.  All generators return strongly
connected :class:`~repro.topology.graph.Network` instances with
full-duplex links, mirroring backbone practice.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .graph import LinkSpeed, Network

if TYPE_CHECKING:
    import networkx as nx

__all__ = [
    "random_waxman_network",
    "random_scale_free_network",
    "ring_network",
    "star_network",
    "full_mesh_network",
    "line_network",
    "hierarchical_network",
    "hierarchical_routing_problem",
]


def _ensure_connected_undirected(graph: nx.Graph, rng: np.random.Generator) -> None:
    """Connect components by adding random inter-component edges in place."""
    import networkx as nx

    components = [list(c) for c in nx.connected_components(graph)]
    while len(components) > 1:
        a = components.pop()
        b = components[-1]
        u = a[int(rng.integers(len(a)))]
        v = b[int(rng.integers(len(b)))]
        graph.add_edge(u, v)
        components[-1] = b + a


def _from_undirected(graph: nx.Graph, name: str, rng: np.random.Generator) -> Network:
    """Relabel to ``"n0".."nN"``, connect, and convert to a Network."""
    import networkx as nx

    graph = nx.convert_node_labels_to_integers(graph)
    _ensure_connected_undirected(graph, rng)
    net = Network(name)
    for node in sorted(graph.nodes):
        net.add_node(f"n{node}")
    speeds = (LinkSpeed.OC3, LinkSpeed.OC12, LinkSpeed.OC48)
    for u, v in sorted(graph.edges):
        speed = speeds[int(rng.integers(len(speeds)))]
        net.add_duplex_link(
            f"n{u}", f"n{v}", capacity_pps=float(speed),
            weight=LinkSpeed.OC48 / speed,
        )
    return net


def random_waxman_network(
    num_nodes: int,
    seed: int | None = None,
    alpha: float = 0.6,
    beta: float = 0.3,
) -> Network:
    """Waxman random graph — the classic synthetic WAN model.

    Parameters follow :func:`networkx.waxman_graph`; the result is made
    strongly connected by stitching components together.
    """
    import networkx as nx

    if num_nodes < 2:
        raise ValueError("need at least 2 nodes")
    rng = np.random.default_rng(seed)
    graph = nx.waxman_graph(num_nodes, alpha=alpha, beta=beta, seed=seed)
    return _from_undirected(graph, f"waxman-{num_nodes}", rng)


def random_scale_free_network(num_nodes: int, seed: int | None = None, m: int = 2) -> Network:
    """Barabási–Albert preferential-attachment graph.

    Produces the hub-and-spoke degree skew typical of router-level maps.
    """
    import networkx as nx

    if num_nodes < 3:
        raise ValueError("need at least 3 nodes")
    graph = nx.barabasi_albert_graph(num_nodes, min(m, num_nodes - 1), seed=seed)
    return _from_undirected(graph, f"ba-{num_nodes}", np.random.default_rng(seed))


def ring_network(num_nodes: int) -> Network:
    """Bidirectional ring of ``num_nodes`` nodes."""
    if num_nodes < 3:
        raise ValueError("a ring needs at least 3 nodes")
    net = Network(f"ring-{num_nodes}")
    for i in range(num_nodes):
        net.add_node(f"n{i}")
    for i in range(num_nodes):
        net.add_duplex_link(f"n{i}", f"n{(i + 1) % num_nodes}")
    return net


def star_network(num_leaves: int) -> Network:
    """Hub-and-spoke star: hub ``hub`` plus ``num_leaves`` leaves."""
    if num_leaves < 1:
        raise ValueError("a star needs at least 1 leaf")
    net = Network(f"star-{num_leaves}")
    net.add_node("hub")
    for i in range(num_leaves):
        net.add_node(f"leaf{i}")
        net.add_duplex_link("hub", f"leaf{i}")
    return net


def full_mesh_network(num_nodes: int) -> Network:
    """Full mesh over ``num_nodes`` nodes."""
    if num_nodes < 2:
        raise ValueError("a mesh needs at least 2 nodes")
    net = Network(f"mesh-{num_nodes}")
    for i in range(num_nodes):
        net.add_node(f"n{i}")
    for i in range(num_nodes):
        for j in range(i + 1, num_nodes):
            net.add_duplex_link(f"n{i}", f"n{j}")
    return net


def hierarchical_network(
    num_pods: int, leaves_per_pod: int, num_cores: int = 2
) -> Network:
    """Core/aggregation/leaf hierarchy — the ISP-style tree of trees.

    ``num_pods`` aggregation routers each serve ``leaves_per_pod``
    access leaves and uplink to every one of ``num_cores`` core
    routers.  Leaf links run at OC3, aggregation uplinks at OC48,
    mirroring the capacity taper of real backbones.  Deterministic —
    the same arguments always produce the same network.
    """
    if num_pods < 1 or leaves_per_pod < 1 or num_cores < 1:
        raise ValueError("need at least one pod, leaf, and core")
    net = Network(f"hier-{num_pods}x{leaves_per_pod}+{num_cores}")
    for c in range(num_cores):
        net.add_node(f"core{c}")
    for p in range(num_pods):
        net.add_node(f"agg{p}")
        for j in range(leaves_per_pod):
            net.add_node(f"leaf{p}-{j}")
    for p in range(num_pods):
        for j in range(leaves_per_pod):
            net.add_duplex_link(
                f"agg{p}", f"leaf{p}-{j}",
                capacity_pps=float(LinkSpeed.OC3),
                weight=LinkSpeed.OC48 / LinkSpeed.OC3,
            )
        for c in range(num_cores):
            net.add_duplex_link(
                f"agg{p}", f"core{c}",
                capacity_pps=float(LinkSpeed.OC48),
                weight=1.0,
            )
    return net


def hierarchical_routing_problem(
    num_pods: int,
    leaves_per_pod: int,
    num_cores: int = 2,
    *,
    num_od_pairs: int | None = None,
    intra_pod_fraction: float = 0.5,
    theta_fraction: float = 0.3,
    alpha_cap: float = 0.4,
    interval_seconds: float = 300.0,
    seed: int | None = None,
):
    """A :class:`~repro.core.problem.SamplingProblem` on the hierarchy,
    built directly in CSR — no ``Network`` object, no dense matrix.

    The structure makes routing free: an intra-pod flow takes exactly
    its two leaf links (up at the source, down at the destination);
    an inter-pod flow adds the aggregation uplink and downlink of a
    random core.  That determinism is what lets this builder assemble
    10⁵–10⁶-link instances in milliseconds where the networkx-based
    generators stop at thousands — link loads come from one
    ``bincount`` over the path arrays, never a dense routing matrix.

    Link-index layout (``P`` pods, ``L`` leaves/pod, ``C`` cores)::

        leaf-up[p, j]    =             p·L + j
        leaf-down[p, j]  =       P·L + p·L + j
        agg-up[p, c]     = 2·P·L +       p·C + c
        agg-down[p, c]   = 2·P·L + P·C + p·C + c

    ``intra_pod_fraction=1.0`` keeps every flow inside its pod, which
    leaves the aggregation links untraversed and splits the OD×link
    bipartite graph into one component per pod — the decomposition
    backend's best case.  θ is set to ``theta_fraction`` of the
    instance's maximum absorbable rate.
    """
    import scipy.sparse as sparse

    from ..core.problem import SamplingProblem
    from ..core.utility import accuracy_utilities

    P, L, C = num_pods, leaves_per_pod, num_cores
    if P < 1 or L < 1 or C < 1:
        raise ValueError("need at least one pod, leaf, and core")
    if not 0.0 <= intra_pod_fraction <= 1.0:
        raise ValueError("intra_pod_fraction must be in [0, 1]")
    if not 0.0 < theta_fraction <= 1.0:
        raise ValueError("theta_fraction must be in (0, 1]")
    rng = np.random.default_rng(seed)
    num_links = 2 * P * L + 2 * P * C
    K = int(num_od_pairs) if num_od_pairs is not None else P * L
    if K < 1:
        raise ValueError("need at least one OD pair")

    intra = rng.random(K) < intra_pod_fraction
    if P == 1:
        intra[:] = True
    src_pod = rng.integers(0, P, K)
    src_leaf = rng.integers(0, L, K)
    dst_leaf = (src_leaf + rng.integers(0, max(L - 1, 1), K) + 1) % L
    dst_pod = np.where(
        intra, src_pod, (src_pod + rng.integers(0, max(P - 1, 1), K) + 1) % P
    )
    core = rng.integers(0, C, K)

    up = src_pod * L + src_leaf
    down = P * L + dst_pod * L + dst_leaf
    agg_up = 2 * P * L + src_pod * C + core
    agg_down = 2 * P * L + P * C + dst_pod * C + core

    counts = np.where(intra, 2, 4)
    indptr = np.zeros(K + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    indices = np.empty(int(indptr[-1]), dtype=np.int64)
    pos = indptr[:-1]
    indices[pos] = up
    indices[pos + 1] = np.where(intra, down, agg_up)
    inter_pos = pos[~intra]
    indices[inter_pos + 2] = agg_down[~intra]
    indices[inter_pos + 3] = down[~intra]
    routing = sparse.csr_matrix(
        (np.ones(indices.size), indices, indptr), shape=(K, num_links)
    )
    routing.sort_indices()

    # Heavy-tailed flow sizes (packets per interval) drive both the
    # utilities (c_k = 1 / size) and the traffic each path deposits
    # on its links; a lognormal background keeps every load positive.
    sizes = rng.lognormal(mean=np.log(2_000.0), sigma=1.0, size=K)
    demand_pps = sizes / interval_seconds
    loads = np.bincount(
        indices, weights=np.repeat(demand_pps, counts), minlength=num_links
    )
    loads = loads + rng.lognormal(
        mean=np.log(max(float(demand_pps.mean()), 1e-9)),
        sigma=0.5,
        size=num_links,
    )
    alpha = rng.uniform(0.5 * alpha_cap, alpha_cap, num_links)

    probe = SamplingProblem(
        routing,
        loads,
        1.0,
        accuracy_utilities(1.0 / sizes),
        alpha=alpha,
        interval_seconds=interval_seconds,
    )
    return probe.with_theta(
        theta_fraction * probe.max_absorbable_rate * interval_seconds
    )


def line_network(num_nodes: int) -> Network:
    """Chain ``n0 - n1 - … - n(N-1)``; the smallest multi-hop testbed."""
    if num_nodes < 2:
        raise ValueError("a line needs at least 2 nodes")
    net = Network(f"line-{num_nodes}")
    for i in range(num_nodes):
        net.add_node(f"n{i}")
    for i in range(num_nodes - 1):
        net.add_duplex_link(f"n{i}", f"n{i + 1}")
    return net
