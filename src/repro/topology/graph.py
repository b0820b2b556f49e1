"""Directed network model used throughout the library.

The paper represents the network as a directed graph ``G(V, E)`` whose
edges carry traffic loads ``U_e`` (packets per second).  This module
provides an explicit, index-stable representation of such a graph:

* every :class:`Link` has a dense integer index so that vectors of link
  quantities (loads, sampling rates) align with numpy arrays, and
* nodes are identified by short human-readable names (PoP codes such as
  ``"UK"`` or router ids), matching how the paper labels GEANT PoPs.

The model is deliberately independent of :mod:`networkx`; conversion
helpers are provided for algorithms (shortest paths, generators) that we
delegate to networkx.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping

if TYPE_CHECKING:
    import networkx as nx

__all__ = ["Node", "Link", "Network", "LinkSpeed"]


class LinkSpeed:
    """Common SONET/SDH link speeds, in packets per second headroom.

    The paper's GEANT links range from OC-3 (155 Mbps) to OC-48
    (2.5 Gbps).  We express capacity in packets/second assuming an
    average packet size of 500 bytes, which is only used for sanity
    checks (loads must not exceed capacity), never by the optimizer.
    """

    _AVG_PACKET_BITS = 500 * 8

    OC3 = int(155e6 / _AVG_PACKET_BITS)
    OC12 = int(622e6 / _AVG_PACKET_BITS)
    OC48 = int(2.5e9 / _AVG_PACKET_BITS)
    OC192 = int(10e9 / _AVG_PACKET_BITS)


@dataclass(frozen=True)
class Node:
    """A PoP / router in the network.

    Attributes
    ----------
    name:
        Unique short identifier (e.g. ``"UK"``).
    region:
        Free-form grouping label (e.g. ``"europe"``); used by traffic
        generators to bias gravity-model masses.
    """

    name: str
    region: str = ""

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.name


@dataclass(frozen=True)
class Link:
    """A unidirectional link between two nodes.

    Attributes
    ----------
    index:
        Dense integer id; position of this link in every link-indexed
        vector (loads ``U``, sampling rates ``p``, bounds ``alpha``).
    src, dst:
        Endpoint node names.
    capacity_pps:
        Capacity in packets per second (sanity checks only).
    weight:
        IS-IS/OSPF administrative weight used by shortest-path routing.
    """

    index: int
    src: str
    dst: str
    capacity_pps: float = float(LinkSpeed.OC48)
    weight: float = 1.0

    @property
    def name(self) -> str:
        """Human-readable ``"SRC->DST"`` label (paper writes ``UK-FR``)."""
        return f"{self.src}->{self.dst}"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.name


class Network:
    """A directed network with index-stable links.

    Links are assigned indices ``0..L-1`` in insertion order; all vector
    quantities used by the optimizer (``U``, ``p``, ``alpha``) are
    indexed by :attr:`Link.index`.

    Examples
    --------
    >>> net = Network("toy")
    >>> net.add_node("A"); net.add_node("B")
    Node(name='A', region='')
    Node(name='B', region='')
    >>> link = net.add_link("A", "B")
    >>> net.num_links
    1
    >>> net.link_between("A", "B").index
    0
    """

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._nodes: dict[str, Node] = {}
        self._links: list[Link] = []
        self._by_endpoints: dict[tuple[str, str], Link] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_node(self, name: str, region: str = "") -> Node:
        """Add a node; adding an existing name twice is an error."""
        if name in self._nodes:
            raise ValueError(f"duplicate node {name!r}")
        node = Node(name=name, region=region)
        self._nodes[name] = node
        return node

    def add_link(
        self,
        src: str,
        dst: str,
        capacity_pps: float = float(LinkSpeed.OC48),
        weight: float = 1.0,
    ) -> Link:
        """Add a unidirectional link ``src -> dst``.

        Endpoints must already exist; parallel links between the same
        endpoint pair are not supported (the paper's formulation indexes
        monitors by link, one monitor per link).
        """
        if src not in self._nodes:
            raise KeyError(f"unknown node {src!r}")
        if dst not in self._nodes:
            raise KeyError(f"unknown node {dst!r}")
        if src == dst:
            raise ValueError("self-loops are not allowed")
        if (src, dst) in self._by_endpoints:
            raise ValueError(f"duplicate link {src}->{dst}")
        link = Link(
            index=len(self._links),
            src=src,
            dst=dst,
            capacity_pps=capacity_pps,
            weight=weight,
        )
        self._links.append(link)
        self._by_endpoints[(src, dst)] = link
        return link

    def add_duplex_link(
        self,
        a: str,
        b: str,
        capacity_pps: float = float(LinkSpeed.OC48),
        weight: float = 1.0,
    ) -> tuple[Link, Link]:
        """Add the two unidirectional links of a full-duplex circuit."""
        forward = self.add_link(a, b, capacity_pps=capacity_pps, weight=weight)
        backward = self.add_link(b, a, capacity_pps=capacity_pps, weight=weight)
        return forward, backward

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return len(self._nodes)

    @property
    def num_links(self) -> int:
        return len(self._links)

    @property
    def nodes(self) -> list[Node]:
        """Nodes in insertion order."""
        return list(self._nodes.values())

    @property
    def node_names(self) -> list[str]:
        return list(self._nodes.keys())

    @property
    def links(self) -> list[Link]:
        """Links in index order."""
        return list(self._links)

    def node(self, name: str) -> Node:
        try:
            return self._nodes[name]
        except KeyError:
            raise KeyError(f"unknown node {name!r}") from None

    def has_node(self, name: str) -> bool:
        return name in self._nodes

    def link(self, index: int) -> Link:
        """Return the link with the given dense index."""
        try:
            return self._links[index]
        except IndexError:
            raise IndexError(
                f"link index {index} out of range 0..{len(self._links) - 1}"
            ) from None

    def link_between(self, src: str, dst: str) -> Link:
        """Return the link ``src -> dst``; raises ``KeyError`` if absent."""
        try:
            return self._by_endpoints[(src, dst)]
        except KeyError:
            raise KeyError(f"no link {src}->{dst}") from None

    def has_link(self, src: str, dst: str) -> bool:
        return (src, dst) in self._by_endpoints

    def out_links(self, node: str) -> list[Link]:
        """All links leaving ``node``."""
        self.node(node)
        return [link for link in self._links if link.src == node]

    def in_links(self, node: str) -> list[Link]:
        """All links entering ``node``."""
        self.node(node)
        return [link for link in self._links if link.dst == node]

    def adjacent_links(self, node: str) -> list[Link]:
        """All links touching ``node`` in either direction."""
        return self.out_links(node) + self.in_links(node)

    def neighbors(self, node: str) -> list[str]:
        """Successor node names of ``node``."""
        return [link.dst for link in self.out_links(node)]

    def degree(self, node: str) -> int:
        """Out-degree of ``node``."""
        return len(self.out_links(node))

    def __iter__(self) -> Iterator[Link]:
        return iter(self._links)

    def __contains__(self, name: str) -> bool:
        return name in self._nodes

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Network({self.name!r}, nodes={self.num_nodes}, "
            f"links={self.num_links})"
        )

    # ------------------------------------------------------------------
    # conversion / validation
    # ------------------------------------------------------------------
    def to_networkx(self) -> nx.DiGraph:
        """Export to a :class:`networkx.DiGraph` (for path algorithms)."""
        import networkx as nx

        graph = nx.DiGraph(name=self.name)
        for node in self.nodes:
            graph.add_node(node.name, region=node.region)
        for link in self._links:
            graph.add_edge(
                link.src,
                link.dst,
                index=link.index,
                weight=link.weight,
                capacity_pps=link.capacity_pps,
            )
        return graph

    @classmethod
    def from_networkx(cls, graph: nx.Graph, name: str = "") -> "Network":
        """Build a :class:`Network` from a networkx graph.

        Undirected graphs become full-duplex (two unidirectional links per
        edge).  Edge attributes ``weight`` and ``capacity_pps`` are
        honoured when present.
        """
        net = cls(name or str(graph.name or ""))
        for node, data in graph.nodes(data=True):
            net.add_node(str(node), region=str(data.get("region", "")))
        directed = graph.is_directed()
        for src, dst, data in graph.edges(data=True):
            weight = float(data.get("weight", 1.0))
            capacity = float(data.get("capacity_pps", LinkSpeed.OC48))
            net.add_link(str(src), str(dst), capacity_pps=capacity, weight=weight)
            if not directed:
                net.add_link(str(dst), str(src), capacity_pps=capacity, weight=weight)
        return net

    def is_strongly_connected(self) -> bool:
        """True if every node can reach every other node."""
        import networkx as nx

        if self.num_nodes <= 1:
            return True
        return nx.is_strongly_connected(self.to_networkx())

    def validate_loads(self, loads: Mapping[int, float] | Iterable[float]) -> None:
        """Check a link-load vector against link capacities.

        Raises ``ValueError`` if any load is negative or exceeds its
        link's capacity.  ``loads`` is either a dense iterable aligned
        with link indices or a mapping ``index -> load``.
        """
        if isinstance(loads, Mapping):
            items = loads.items()
        else:
            items = enumerate(loads)
        for index, load in items:
            link = self.link(int(index))
            if load < 0:
                raise ValueError(f"negative load on {link.name}: {load}")
            if load > link.capacity_pps:
                raise ValueError(
                    f"load {load:.0f} pkt/s exceeds capacity "
                    f"{link.capacity_pps:.0f} pkt/s on {link.name}"
                )
