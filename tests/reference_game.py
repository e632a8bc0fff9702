"""Per-node payoffs of the head competition, written out term by term as the
game states them, kept as an oracle: `game.head_fitness_base` must equal
`utility` with no prospective members, and no node of a best-response
outcome may gain by moving to a choice these payoffs score higher.
"""

from __future__ import annotations

from wsn_lab.game import UtilityWeights
from wsn_lab.network import DEFAULT_NEIGHBOR_CAP, Topology


def mean_neighbor_distance(node_id: int, nodes: list, topology: Topology) -> float:
    """Mean distance to alive in-range neighbors, normalized by range; 0 if none."""
    node = nodes[node_id]
    total = 0.0
    count = 0
    for j in topology.neighbors[node_id]:
        if nodes[j].alive:
            total += topology.dist(node_id, j)
            count += 1
    if count == 0:
        return 0.0
    return (total / count) / topology.comm_range


def utility(node_id: int, nodes: list, topology: Topology,
            weights: UtilityWeights, *, initial_energy: float,
            prospective_members: int = 0,
            neighbor_cap: int = DEFAULT_NEIGHBOR_CAP) -> float:
    """Head-fitness of a node: energy minus distance and load penalties."""
    e_term = nodes[node_id].energy / initial_energy
    d_term = mean_neighbor_distance(node_id, nodes, topology)
    n_term = prospective_members / neighbor_cap
    return (weights.energy_weight * e_term
            - weights.distance_weight * d_term
            - weights.load_weight * n_term)


def join_utility(follower_id: int, head_id: int, nodes: list,
                 topology: Topology, weights: UtilityWeights, *,
                 initial_energy: float, head_load: int = 1,
                 neighbor_cap: int = DEFAULT_NEIGHBOR_CAP) -> float:
    """Payoff of following a head: its energy, discounted by the follower's
    own link distance and by the head's load counting this follower."""
    e_term = nodes[head_id].energy / initial_energy
    d_term = (topology.dist(follower_id, head_id)
              / topology.comm_range)
    n_term = head_load / neighbor_cap
    return (weights.energy_weight * e_term
            - weights.distance_weight * d_term
            - weights.load_weight * n_term)
