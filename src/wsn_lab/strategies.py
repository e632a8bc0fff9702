"""Per-round execution of the five routing strategies.

Every clustered round follows the same arc: build a hierarchy, move one
aggregated packet per node up through it, charge the radio costs, score the
round, and (for learning strategies) update each agent. The baseline skips
clustering entirely and relays raw packets toward the sink over shortest
hop-count paths.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from . import metrics
from .clustering import (Cluster, ClusterHierarchy, NoAliveNodes,
                         build_hierarchy, form_clusters, select_head_by_energy)
from .game import (UtilityWeights, best_response_dynamics, profile_to_clusters,
                   select_head_by_utility)
from .learning import (ALL_ACTIONS, AgentState, Experience, LearningParams,
                       QTable, ReplayBuffer, RewardBreakdown, RlAction,
                       compute_round_reward, decay_epsilon, observe_state,
                       prune, q_update, replay_step, select_action)
from .network import (EnergyModel, NetworkConfig, aggregation_cost, drain,
                      generate_network, rx_cost, tx_cost)

# Offset separating the round-loop random stream from network generation.
_ROUND_STREAM_OFFSET = 1_000_003


class StrategyKind(str, Enum):
    FULL_RL = "full-rl"
    FULL_GT = "full-gt"
    GT_RL = "gt-rl"
    RL_GT = "rl-gt"
    BASELINE = "baseline"


RL_BEARING = (StrategyKind.FULL_RL, StrategyKind.GT_RL, StrategyKind.RL_GT)

# Sub-space each learning strategy draws actions from.
FULL_RL_ACTIONS = ALL_ACTIONS
GT_RL_ACTIONS = (RlAction.ELECT_SELF, RlAction.JOIN_HEAD)
RL_GT_ACTIONS = (RlAction.CLUSTERING, RlAction.JOIN_HEAD)


@dataclass
class RoundOutcome:
    round_index: int
    hierarchy: Optional[ClusterHierarchy]
    reward: Optional[object]              # RewardBreakdown for clustered runs
    delivered: dict                       # node id -> bool
    hop_counts: dict                      # node id -> hops for delivered packets
    energy_spent: dict                    # node id -> actual energy decrease
    deaths: set
    success: bool
    long_links: int = 0
    max_q_delta: float = 0.0
    epsilon: float = 0.0


class SimWorld:
    """Bundles the static network with its mutable energy state."""

    def __init__(self, config: NetworkConfig, energy_model: EnergyModel):
        self.config = config
        self.energy_model = energy_model
        self.nodes, self.topology = generate_network(config)
        sink = config.sink
        xs = np.array([nd.x for nd in self.nodes])
        ys = np.array([nd.y for nd in self.nodes])
        self.dist_to_sink = np.hypot(xs - sink[0], ys - sink[1])
        # The last alive set partitioned at stage 1 and its clusters.
        self._stage1_alive = None
        self._stage1 = None

    def alive_ids(self) -> list:
        return [nd.id for nd in self.nodes if nd.alive]

    def alive_count(self) -> int:
        return sum(1 for nd in self.nodes if nd.alive)

    def energy_snapshot(self) -> dict:
        return {nd.id: nd.energy for nd in self.nodes if nd.alive}

    def alive_neighbor_counts(self) -> np.ndarray:
        mask = np.array([nd.alive for nd in self.nodes], dtype=np.int32)
        return self.topology.adjacency_matrix @ mask

    def stage1_partition(self, alive: list) -> list:
        """The geometric stage-1 clusters of the alive ids, headless.

        Positions never move, so the partition changes only with the alive
        set; the last one is kept and handed out as is.
        """
        key = tuple(alive)
        if key != self._stage1_alive:
            self._stage1 = form_clusters(alive, self.topology,
                                         self.config.stage_target_sizes[0])
            self._stage1_alive = key
        return self._stage1


class _Agent:
    __slots__ = ("table", "buffer")

    def __init__(self, table: QTable, capacity: int):
        self.table = table
        self.buffer = ReplayBuffer(capacity)


class LearnerPool:
    """One Q-learner per node, or one shared table when configured."""

    def __init__(self, node_ids, params: LearningParams):
        shared = QTable() if params.shared_table else None
        self.agents = {
            i: _Agent(shared if shared is not None else QTable(),
                      params.replay_capacity)
            for i in node_ids
        }
        self.tables = ([shared] if shared is not None
                       else [a.table for a in self.agents.values()])
        # Each survivor's state after the last round's drain, which is its
        # state when the next round starts; None before round 1.
        self.next_states = None

    def table_for(self, node_id: int) -> QTable:
        return self.agents[node_id].table


def make_world(config: NetworkConfig, energy_model: EnergyModel) -> SimWorld:
    return SimWorld(config, energy_model)


def _require_alive(world: SimWorld) -> list:
    alive = world.alive_ids()
    if not alive:
        raise NoAliveNodes("round started with no alive nodes")
    return alive


def _observe(world: SimWorld, node_id: int, stage_level: int,
             counts: np.ndarray) -> AgentState:
    cfg = world.config
    return observe_state(world.nodes[node_id], stage_level,
                         int(counts[node_id]),
                         initial_energy=cfg.initial_energy,
                         stage_cap=cfg.stage_count)


def _observe_all(world: SimWorld, pool: LearnerPool) -> dict:
    """Alive node id -> state at round start: the next states the last
    round learned toward, or on round 1 a fresh look with no roles held."""
    if pool.next_states is not None:
        return pool.next_states
    counts = world.alive_neighbor_counts()
    return {i: _observe(world, i, 0, counts) for i in world.alive_ids()}


def _select_actions(pool: LearnerPool, states: dict, epsilon: float, rng,
                    legal) -> dict:
    return {i: select_action(pool.table_for(i), states[i], epsilon, rng, legal)
            for i in sorted(states)}


def _rl_head_selector(actions: dict, nodes: list):
    """Learned policies decide who volunteers; the cluster protocol then
    seats the best-charged volunteer. With no volunteers the energy argmax
    serves, which no declared choice can contradict."""
    def pick(cluster: Cluster) -> int:
        electors = [m for m in cluster.member_ids
                    if actions.get(m) == RlAction.ELECT_SELF]
        if not electors:
            return select_head_by_energy(cluster, nodes)
        return max(electors, key=lambda m: (nodes[m].energy, -m))
    return pick


def _utility_head_selector(world: SimWorld, weights: UtilityWeights):
    def pick(cluster: Cluster) -> int:
        return select_head_by_utility(
            cluster, world.nodes, world.topology, weights,
            initial_energy=world.config.initial_energy)
    return pick


def _equilibrium_clusters(world: SimWorld, weights: UtilityWeights,
                          keep_heads: bool) -> list:
    """Stage-1 clusters from the best-response equilibrium; its heads are
    seated only when keep_heads is set."""
    result = best_response_dynamics(
        world.nodes, world.topology, weights,
        initial_energy=world.config.initial_energy)
    return [Cluster(members, head if keep_heads else None)
            for members, head in profile_to_clusters(result)]


def _account_hierarchy(world: SimWorld, hierarchy: ClusterHierarchy,
                       alive: list):
    """Charge one aggregated packet per alive node up the hierarchy.

    Members transmit to their head even when it sits beyond nominal range;
    the amplifier term is always charged at true distance and such stretched
    links are counted. Returns (costs, delivered, hops, long_links).
    """
    cfg = world.config
    model = world.energy_model
    bits = cfg.packet_size_bits
    dist = world.topology.distance
    parents = hierarchy.parent_map()
    roles = hierarchy.role_map()

    stage_total = len(hierarchy.stages)
    costs = {}
    hops = {}
    long_links = 0
    rx_one = rx_cost(bits, model)
    agg_one = aggregation_cost(bits, model)
    for i in alive:
        parent = parents.get(i)
        if parent is None:
            d = float(world.dist_to_sink[i])
        else:
            d = float(dist[i, parent])
            if d > world.topology.comm_range:
                long_links += 1
        costs[i] = costs.get(i, 0.0) + tx_cost(bits, d, model)
        if parent is not None:
            costs[parent] = costs.get(parent, 0.0) + rx_one + agg_one
        hops[i] = stage_total - roles.get(i, 0) + 1
    for i in alive:
        costs[i] = costs.get(i, 0.0) + model.e_idle
    return costs, dict.fromkeys(alive, True), hops, long_links


def _apply_drain(world: SimWorld, costs: dict):
    spent = {}
    deaths = set()
    for i in sorted(costs):
        node = world.nodes[i]
        before = node.energy
        drain(node, costs[i])
        spent[i] = before - node.energy
        if not node.alive:
            deaths.add(i)
    return spent, deaths


def _learn(world: SimWorld, pool: LearnerPool, params: LearningParams,
           hierarchy: ClusterHierarchy, reward_total: float, states: dict,
           actions: dict, rng, round_index: int) -> float:
    """Feed the shared round reward back to every surviving participant,
    then prune each distinct table once, after every agent has learned."""
    new_roles = hierarchy.role_map()
    counts = world.alive_neighbor_counts()
    next_states = {}
    worst = 0.0
    for i in sorted(states):
        if not world.nodes[i].alive:
            continue
        next_state = next_states[i] = _observe(world, i, new_roles.get(i, 0),
                                               counts)
        exp = Experience(states[i], actions[i], reward_total, next_state)
        agent = pool.agents[i]
        delta = q_update(agent.table, exp, params)
        agent.buffer.add(agent.table.resolve(exp))
        worst = max(worst, delta, replay_step(agent.buffer, params, rng))
    for table in pool.tables:
        prune(table, params, round_index)
    pool.next_states = next_states
    return worst


def _round_success(reward: RewardBreakdown, learned: bool) -> bool:
    """A round whose agents learn succeeds on a full score of 12; one with
    no learners needs energy-argmax heads and complete forwarding."""
    if learned:
        return reward.total == 12
    return reward.ch_selection == 3 and reward.data_forwarding == 2


def _clustered_round(world: SimWorld, round_index: int, stage1,
                     learned_heads: bool, legal,
                     pool: Optional[LearnerPool] = None,
                     params: Optional[LearningParams] = None,
                     weights: Optional[UtilityWeights] = None,
                     rng=None) -> RoundOutcome:
    """The one round the four clustered strategies share.

    `stage1` maps the round's alive ids and chosen actions to the stage-1
    clusters. `learned_heads` seats the best-charged volunteer, otherwise
    utility seats every head. `legal` is the action set agents choose from;
    None means nobody acts or learns.
    """
    alive = _require_alive(world)
    cfg = world.config
    states = actions = None
    epsilon = 0.0
    if legal is not None:
        states = _observe_all(world, pool)
        epsilon = decay_epsilon(params, round_index - 1)
        actions = _select_actions(pool, states, epsilon, rng, legal)

    selector = (_rl_head_selector(actions, world.nodes) if learned_heads
                else _utility_head_selector(world, weights))
    hierarchy = build_hierarchy(
        stage1(alive, actions), world.topology, selector,
        stage_count=cfg.stage_count, stage_target_sizes=cfg.stage_target_sizes)

    snapshot = world.energy_snapshot()
    costs, delivered, hops, long_links = _account_hierarchy(world, hierarchy,
                                                            alive)
    reward = compute_round_reward(hierarchy, snapshot, forwarding_ok=True)
    spent, deaths = _apply_drain(world, costs)
    max_delta = 0.0
    if legal is not None:
        max_delta = _learn(world, pool, params, hierarchy, float(reward.total),
                           states, actions, rng, round_index)
    return RoundOutcome(round_index=round_index, hierarchy=hierarchy,
                        reward=reward, delivered=delivered, hop_counts=hops,
                        energy_spent=spent, deaths=deaths,
                        success=_round_success(reward, legal is not None),
                        long_links=long_links, max_q_delta=max_delta,
                        epsilon=epsilon)


def run_round_full_rl(world: SimWorld, pool: LearnerPool,
                      params: LearningParams, round_index: int,
                      rng) -> RoundOutcome:
    """Learned elect-or-defer head selection over the geometric partition."""
    return _clustered_round(
        world, round_index,
        lambda alive, _actions: world.stage1_partition(alive),
        learned_heads=True, legal=FULL_RL_ACTIONS, pool=pool, params=params,
        rng=rng)


def run_round_full_gt(world: SimWorld, weights: UtilityWeights,
                      round_index: int) -> RoundOutcome:
    """Equilibrium head competition, then utility heads up the hierarchy."""
    return _clustered_round(
        world, round_index,
        lambda _alive, _actions: _equilibrium_clusters(world, weights, True),
        learned_heads=False, legal=None, weights=weights)


def run_round_gt_rl(world: SimWorld, pool: LearnerPool,
                    weights: UtilityWeights, params: LearningParams,
                    round_index: int, rng) -> RoundOutcome:
    """Equilibrium memberships; agents learn who stands for election."""
    return _clustered_round(
        world, round_index,
        lambda _alive, _actions: _equilibrium_clusters(world, weights, False),
        learned_heads=True, legal=GT_RL_ACTIONS, pool=pool, params=params,
        rng=rng)


def _founder_partition(world: SimWorld, alive: list, actions: dict) -> list:
    """Clusters seeded by agents that chose to form one; everyone else joins
    the nearest founder in range or stands alone. With no founders at all the
    geometric partition steps in."""
    founders = [i for i in alive if actions.get(i) == RlAction.CLUSTERING]
    if not founders:
        return world.stage1_partition(alive)
    topo = world.topology
    joiners = [i for i in alive if actions.get(i) != RlAction.CLUSTERING]
    rows, cols = np.ix_(joiners, founders)
    # Founders ascend, so the first minimum keeps the (distance, founder id)
    # tie-break; out-of-range founders are masked off.
    in_range = topo.adjacency_matrix[rows, cols]
    nearest = np.where(in_range, topo.distance[rows, cols], np.inf).argmin(1)
    members = {f: [f] for f in founders}
    singles = []
    for i, reach, fi in zip(joiners, in_range.any(1).tolist(),
                            nearest.tolist()):
        if reach:
            members[founders[fi]].append(i)
        else:
            singles.append(i)
    return ([Cluster(members[f]) for f in founders]
            + [Cluster((s,)) for s in singles])


def run_round_rl_gt(world: SimWorld, pool: LearnerPool,
                    weights: UtilityWeights, params: LearningParams,
                    round_index: int, rng) -> RoundOutcome:
    """Learned memberships; utility picks every head."""
    return _clustered_round(
        world, round_index,
        lambda alive, actions: _founder_partition(world, alive, actions),
        learned_heads=False, legal=RL_GT_ACTIONS, pool=pool, params=params,
        weights=weights, rng=rng)


def run_round_baseline(world: SimWorld, round_index: int) -> RoundOutcome:
    """Min-hop relay toward the sink, no clustering, no aggregation."""
    alive = _require_alive(world)
    cfg = world.config
    model = world.energy_model
    bits = cfg.packet_size_bits
    alive_set = set(alive)
    dist = world.topology.distance

    depth = {}
    parent = {}
    frontier = []
    for i in alive:
        if world.dist_to_sink[i] <= world.topology.comm_range:
            depth[i] = 1
            parent[i] = None
            frontier.append(i)
    while frontier:
        nxt = []
        for u in sorted(frontier):
            for v in world.topology.neighbors[u]:
                if v in alive_set and v not in depth:
                    depth[v] = depth[u] + 1
                    parent[v] = u
                    nxt.append(v)
        frontier = nxt

    packets = {i: 1 for i in depth}
    for u in sorted(depth, key=lambda i: -depth[i]):
        p = parent[u]
        if p is not None:
            packets[p] += packets[u]

    costs = {}
    delivered = {}
    hops = {}
    for i in alive:
        costs[i] = model.e_idle
        if i not in depth:
            delivered[i] = False
            continue
        p = parent[i]
        d = float(world.dist_to_sink[i]) if p is None else float(dist[i, p])
        costs[i] += packets[i] * tx_cost(bits, d, model)
        if packets[i] > 1:
            costs[i] += (packets[i] - 1) * rx_cost(bits, model)
        delivered[i] = True
        hops[i] = depth[i]

    spent, deaths = _apply_drain(world, costs)
    return RoundOutcome(round_index=round_index, hierarchy=None, reward=None,
                        delivered=delivered, hop_counts=hops,
                        energy_spent=spent, deaths=deaths,
                        success=all(delivered.values()))


@dataclass
class RunResult:
    strategy: StrategyKind
    seed: int
    series: list
    summary: object
    world: SimWorld
    pool: Optional[LearnerPool]


def simulate(strategy: StrategyKind, config: NetworkConfig,
             energy_model: EnergyModel, params: LearningParams,
             weights: UtilityWeights) -> RunResult:
    """Run one strategy for the configured horizon or until network death."""
    world = make_world(config, energy_model)
    rng = random.Random(config.rng_seed + _ROUND_STREAM_OFFSET)
    pool = (LearnerPool([nd.id for nd in world.nodes], params)
            if strategy in RL_BEARING else None)

    series = []
    cumulative = 0.0
    for t in range(1, config.round_count + 1):
        if world.alive_count() == 0:
            break
        if strategy is StrategyKind.FULL_RL:
            outcome = run_round_full_rl(world, pool, params, t, rng)
        elif strategy is StrategyKind.FULL_GT:
            outcome = run_round_full_gt(world, weights, t)
        elif strategy is StrategyKind.GT_RL:
            outcome = run_round_gt_rl(world, pool, weights, params, t, rng)
        elif strategy is StrategyKind.RL_GT:
            outcome = run_round_rl_gt(world, pool, weights, params, t, rng)
        else:
            outcome = run_round_baseline(world, t)
        rm = metrics.record_round(world, outcome, cumulative)
        cumulative = rm.cumulative_reward
        series.append(rm)

    summary = metrics.summarize(series, config, strategy.value,
                                learned=pool is not None)
    return RunResult(strategy=strategy, seed=config.rng_seed, series=series,
                     summary=summary, world=world, pool=pool)
