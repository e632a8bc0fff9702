"""Utility-driven cluster-head competition and best-response dynamics.

Each alive node either stands as a head or follows a reachable head. A head's
fitness blends residual energy, mean neighbor distance, and prospective load;
a follower weighs the head's energy against its own link distance to that
head and the head's congestion, so nodes gravitate toward strong leaders
nearby and stand themselves when nothing reachable beats them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .network import DEFAULT_NEIGHBOR_CAP, Topology, check_reals


@dataclass(frozen=True)
class UtilityWeights:
    energy_weight: float = 1.0
    distance_weight: float = 0.8
    load_weight: float = 0.1

    def __post_init__(self):
        check_reals(self)
        if self.energy_weight < 0 or self.distance_weight < 0 or self.load_weight < 0:
            raise ValueError("utility weights must be non-negative")
        if self.energy_weight == 0 and self.distance_weight == 0 and self.load_weight == 0:
            raise ValueError("at least one utility weight must be positive")


@dataclass
class BestResponseResult:
    # node id -> None when standing as a head, else the id of the head followed
    profile: dict
    converged: bool    # always True: an unsettled run raises instead
    passes: int


# Measured runs settle within a handful of passes; see best_response_dynamics.
_MAX_PASSES = 50


def head_fitness_base(nodes: list, topology: Topology, weights: UtilityWeights,
                      *, initial_energy: float) -> dict:
    """Load-free fitness (energy minus distance term) for every alive node."""
    alive = [nd.id for nd in nodes if nd.alive]
    mask = np.zeros(topology.node_count, dtype=bool)
    mask[alive] = True
    in_range_alive = topology.adjacency_matrix & mask[None, :]
    counts = in_range_alive.sum(axis=1)
    sums = (topology.distance * in_range_alive).sum(axis=1)
    base = {}
    for i in alive:
        d_hat = (sums[i] / counts[i] / topology.comm_range if counts[i] > 0
                 else 0.0)
        e_hat = nodes[i].energy / initial_energy
        base[i] = weights.energy_weight * e_hat - weights.distance_weight * d_hat
    return base


def best_response_dynamics(nodes: list, topology: Topology,
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

    Each node scans its neighbors nearest first and stops at distance d once
    `e_max - du*d`, the most a head that far can be worth (load terms are
    never negative), is strictly below its best value so far. This is exact:
    rounding is monotone and a value computes `e_hat[c] - du*d` first, so
    the float bound holds for every farther head; a farther head tying on
    value is still scored; and keys (value, -id) are unique, so scan order
    cannot change the best.
    """
    alive = sorted(nd.id for nd in nodes if nd.alive)
    base = head_fitness_base(nodes, topology, weights,
                             initial_energy=initial_energy)
    e_hat = {i: weights.energy_weight * nodes[i].energy / initial_energy
             for i in alive}
    e_max = max(e_hat.values(), default=0.0)
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
            for c in topology.neighbors[i]:
                d = drow[c]
                if e_max - du * d < best_key[0]:
                    break
                if c not in profile or profile[c] is not None:
                    continue
                extra = 0 if current == c else 1
                value = (e_hat[c] - du * d
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


def profile_to_clusters(result: BestResponseResult):
    """Materialize the equilibrium as (member_ids, head_id) groupings, heads
    ascending."""
    members = {}
    for i, head in result.profile.items():
        members.setdefault(i if head is None else head, []).append(i)
    return [(sorted(members[h]), h) for h in sorted(members)]


def select_head_by_utility(cluster, nodes: list, topology: Topology,
                           weights: UtilityWeights, *,
                           initial_energy: float) -> int:
    """The member with the highest head-fitness for this cluster.

    The distance term here is the candidate's mean distance to the members
    it would serve, so the trade-off is between residual charge and actual
    serving cost rather than generic neighborhood position.
    """
    members = cluster.member_ids
    prospective = len(members) - 1

    def fitness(i: int) -> float:
        if prospective > 0:
            mean_d = (sum(topology.dist(i, m) for m in members if m != i)
                      / prospective)
            d_term = mean_d / topology.comm_range
        else:
            d_term = 0.0
        e_term = nodes[i].energy / initial_energy
        n_term = prospective / DEFAULT_NEIGHBOR_CAP
        return (weights.energy_weight * e_term
                - weights.distance_weight * d_term
                - weights.load_weight * n_term)

    return max(members, key=lambda i: (fitness(i), -i))
