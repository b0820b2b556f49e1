"""Network topology substrate: graph model, real backbones, generators, I/O."""

from .abilene import ABILENE_DUPLEX_LINKS, ABILENE_POPS, abilene_network
from .geant import GEANT_DUPLEX_LINKS, GEANT_POPS, UK_ACCESS_NODE, geant_network
from .generators import (
    full_mesh_network,
    hierarchical_network,
    hierarchical_routing_problem,
    line_network,
    random_scale_free_network,
    random_waxman_network,
    ring_network,
    star_network,
)
from .graph import Link, LinkSpeed, Network, Node
from .nsfnet import NSFNET_DUPLEX_LINKS, NSFNET_POPS, nsfnet_network
from .io import (
    load_network,
    network_from_edge_list,
    network_from_json,
    network_to_dot,
    network_to_edge_list,
    network_to_json,
    save_network,
)

#: Topologies a request may name instead of a JSON file, by name.
BUILTIN_TOPOLOGIES = {
    "geant": geant_network,
    "abilene": abilene_network,
    "nsfnet": nsfnet_network,
}

__all__ = [
    "BUILTIN_TOPOLOGIES",
    "Network",
    "Node",
    "Link",
    "LinkSpeed",
    "geant_network",
    "GEANT_POPS",
    "GEANT_DUPLEX_LINKS",
    "UK_ACCESS_NODE",
    "abilene_network",
    "ABILENE_POPS",
    "ABILENE_DUPLEX_LINKS",
    "nsfnet_network",
    "NSFNET_POPS",
    "NSFNET_DUPLEX_LINKS",
    "random_waxman_network",
    "random_scale_free_network",
    "ring_network",
    "star_network",
    "full_mesh_network",
    "line_network",
    "hierarchical_network",
    "hierarchical_routing_problem",
    "network_to_json",
    "network_from_json",
    "save_network",
    "load_network",
    "network_to_edge_list",
    "network_from_edge_list",
    "network_to_dot",
]
