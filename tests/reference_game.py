"""Per-node payoffs of the head competition, written out term by term as the
game states them, kept as an oracle: `game.head_fitness_base` must equal
`utility` with no prospective members, and no node of a best-response
outcome may gain by moving to a choice these payoffs score higher.

`reference_best_response` is best response as it ran before the scan was
bounded: every node scores every alive in-range head on every pass.
`game.best_response_dynamics` must return the same profile and pass count.
"""

from __future__ import annotations

from wsn_lab.game import (_MAX_PASSES, BestResponseResult, UtilityWeights,
                          head_fitness_base)
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


def reference_best_response(nodes: list, topology: Topology,
                            weights: UtilityWeights, *,
                            initial_energy: float) -> BestResponseResult:
    """Iterate best responses in ascending id order from an all-heads start.

    Deterministic for a given set of ids, energies, positions, and weights.
    A node with no reachable head must stand, and a head keeps standing
    while anyone follows it. Standing is judged by own fitness alone while
    joining pays a congestion term that grows with the head's follower
    count, so every voluntary switch climbs a shared potential and no
    choice is ever invalidated under a follower; the loop therefore reaches
    a fixed point. Raises RuntimeError if _MAX_PASSES passes elapse anyway.
    """
    alive = sorted(nd.id for nd in nodes if nd.alive)
    alive_set = set(alive)
    base = head_fitness_base(nodes, topology, weights,
                             initial_energy=initial_energy)
    e_hat = {i: weights.energy_weight * nodes[i].energy / initial_energy
             for i in alive}
    reach = {i: [j for j in topology.neighbors[i] if j in alive_set]
             for i in alive}
    load_unit = weights.load_weight / DEFAULT_NEIGHBOR_CAP
    du = weights.distance_weight / topology.comm_range

    profile = {i: None for i in alive}
    loads = {i: 0 for i in alive}

    for passes in range(1, _MAX_PASSES + 1):
        changed = False
        for i in alive:
            current = profile[i]
            if current is None and loads[i] > 0:
                # A head with followers is committed for the round; it can
                # reconsider once every follower has left on its own.
                continue
            drow = topology.distance[i]
            # Standing costs nothing up front; serving followers is paid in
            # energy and only feeds back through next round's fitness.
            best_choice = None
            best_key = (base[i], -i)
            for c in reach[i]:
                if profile[c] is not None:
                    continue
                extra = 0 if current == c else 1
                value = (e_hat[c] - du * drow[c]
                         - load_unit * (loads[c] + extra))
                key = (value, -c)
                if key > best_key:
                    best_key = key
                    best_choice = c
            if best_choice != current:
                if current is not None:
                    loads[current] -= 1
                if best_choice is not None:
                    loads[best_choice] += 1
                profile[i] = best_choice
                changed = True
        if not changed:
            return BestResponseResult(profile=profile, converged=True,
                                      passes=passes)
    raise RuntimeError(f"best response did not settle in {_MAX_PASSES} passes")
