"""Round execution: accounting, elections, baselines, and determinism."""

import dataclasses
import math
import random

import numpy as np
import pytest

from wsn_lab import (EnergyModel, LearningParams, NetworkConfig,
                     RewardBreakdown, RlAction, SimWorld, StrategyKind,
                     UtilityWeights, make_world, measure_delay, simulate,
                     strategies)
from wsn_lab.clustering import (Cluster, NoAliveNodes, build_hierarchy,
                                form_clusters, select_head_by_energy)
from wsn_lab.game import best_response_dynamics, profile_to_clusters
from wsn_lab.network import rx_cost, tx_cost
from wsn_lab.strategies import (LearnerPool, RoundOutcome, _founder_partition,
                                _observe, _rl_head_selector, _round_success,
                                run_round_baseline, run_round_full_gt,
                                run_round_full_rl, run_round_gt_rl,
                                run_round_rl_gt)

from conftest import make_nodes

QUIET = LearningParams(epsilon_start=0.0)


def small_config(**kwargs):
    defaults = dict(node_count=20, round_count=6, initial_energy=1.0,
                    rng_seed=5)
    defaults.update(kwargs)
    return NetworkConfig(**defaults)


def hand_world(positions, comm_range, energies=None, initial=1.0):
    """A SimWorld whose nodes sit exactly where the test says."""
    cfg = NetworkConfig(node_count=len(positions), round_count=10,
                        initial_energy=initial,
                        comm_range_fraction=comm_range / 100.0, rng_seed=0)
    world = SimWorld(cfg, EnergyModel())
    world.nodes, world.topology = make_nodes(
        positions, energies or [initial] * len(positions), comm_range)
    world.dist_to_sink = np.array(
        [math.hypot(x - 50.0, y - 50.0) for x, y in positions])
    return world


def test_baseline_relay_chain_costs():
    """Five nodes in a line relay toward the center sink; every hop count,
    packet tally, and joule spent is checked by hand."""
    positions = [(45, 50), (35, 50), (25, 50), (15, 50), (5, 50)]
    world = hand_world(positions, comm_range=12.0)
    model = world.energy_model
    bits = world.config.packet_size_bits

    outcome = run_round_baseline(world, 1)
    assert all(outcome.delivered.values())
    assert outcome.hop_counts == {0: 1, 1: 2, 2: 3, 3: 4, 4: 5}
    # node i forwards everything behind it: packets 5, 4, 3, 2, 1
    expected = {}
    for i, packets in enumerate((5, 4, 3, 2, 1)):
        d = 5.0 if i == 0 else 10.0
        cost = model.e_idle + packets * tx_cost(bits, d, model)
        cost += (packets - 1) * rx_cost(bits, model)
        expected[i] = cost
    for i in range(5):
        assert math.isclose(outcome.energy_spent[i], expected[i],
                            rel_tol=1e-12), i


def test_baseline_ignores_neighbor_order():
    """Min-hop parents come from the sorted frontier and packet counts are
    integer sums, so the order of each neighbor list changes nothing."""
    config = small_config(node_count=60, comm_range_fraction=0.2)
    forward = make_world(config, EnergyModel())
    backward = make_world(config, EnergyModel())
    backward.topology.neighbors = [row[::-1]
                                   for row in backward.topology.neighbors]
    for t in range(1, 4):
        a = run_round_baseline(forward, t)
        b = run_round_baseline(backward, t)
        assert max(a.hop_counts.values()) > 2
        assert a.delivered == b.delivered
        assert a.hop_counts == b.hop_counts
        assert a.energy_spent == b.energy_spent


def test_baseline_unreachable_node_fails_delivery():
    world = hand_world([(45, 50), (90, 5)], comm_range=12.0)
    outcome = run_round_baseline(world, 1)
    assert outcome.delivered == {0: True, 1: False}
    assert 1 not in outcome.hop_counts
    # the stranded node still pays its idle round
    assert math.isclose(outcome.energy_spent[1], world.energy_model.e_idle,
                        rel_tol=1e-9)


def test_baseline_needs_survivors():
    world = hand_world([(45, 50), (40, 50)], comm_range=12.0)
    for nd in world.nodes:
        nd.energy = 0.0
    with pytest.raises(NoAliveNodes):
        run_round_baseline(world, 1)


def test_full_gt_equals_energy_argmax_rebuild_when_only_energy_counts():
    """With distance and load weights zeroed, the equilibrium tree must be
    the energy-argmax tree, node for node."""
    w = UtilityWeights(energy_weight=1.0, distance_weight=0.0, load_weight=0.0)
    for seed in range(10):
        cfg = small_config(rng_seed=seed, node_count=24)
        world_a = make_world(cfg, EnergyModel())
        outcome = run_round_full_gt(world_a, w, 1)

        world_b = make_world(cfg, EnergyModel())
        result = best_response_dynamics(world_b.nodes, world_b.topology, w,
                                        initial_energy=cfg.initial_energy)
        stage1 = [Cluster(members)
                  for members, _h in profile_to_clusters(result)]
        rebuilt = build_hierarchy(
            stage1, world_b.topology,
            lambda c: select_head_by_energy(c, world_b.nodes),
            stage_count=cfg.stage_count,
            stage_target_sizes=cfg.stage_target_sizes)

        got = [[(c.member_ids, c.head_id) for c in st]
               for st in outcome.hierarchy.stages]
        want = [[(c.member_ids, c.head_id) for c in st]
                for st in rebuilt.stages]
        assert got == want, seed


def test_elected_head_is_best_charged_volunteer():
    nodes, _ = make_nodes([(0, 0), (1, 0), (2, 0)], [0.9, 0.5, 0.7])
    cluster = Cluster([0, 1, 2])
    pick = _rl_head_selector({1: RlAction.ELECT_SELF,
                              2: RlAction.ELECT_SELF}, nodes)
    assert pick(cluster) == 2     # best energy among the two volunteers
    pick = _rl_head_selector({}, nodes)
    assert pick(cluster) == 0     # nobody stood: energy argmax fallback
    tie_nodes, _ = make_nodes([(0, 0), (1, 0)], [0.8, 0.8])
    pick = _rl_head_selector({0: RlAction.ELECT_SELF,
                              1: RlAction.ELECT_SELF}, tie_nodes)
    assert pick(Cluster([0, 1])) == 0


def test_founder_partition_shapes():
    world = hand_world([(10, 10), (12, 10), (40, 40), (42, 40), (90, 90)],
                       comm_range=10.0)
    alive = [0, 1, 2, 3, 4]
    # founders at 0 and 2 collect their in-range peers; node 4 is stranded
    clusters = _founder_partition(world, alive,
                                  {0: RlAction.CLUSTERING,
                                   2: RlAction.CLUSTERING})
    groups = sorted(tuple(c.member_ids) for c in clusters)
    assert groups == [(0, 1), (2, 3), (4,)]
    # no founders at all: the geometric partition takes over
    fallback = _founder_partition(world, alive, {})
    assert sorted(m for c in fallback for m in c.member_ids) == alive


def test_founder_partition_ties_and_order():
    # node 0 sits exactly between founders 1 and 3 and joins the lower id;
    # node 2 reaches only founder 3; nodes 4 and 5 reach nobody and stand
    # alone after the founders' clusters, in id order
    world = hand_world([(20, 0), (15, 0), (32, 0), (25, 0), (80, 0), (60, 0)],
                       comm_range=10.0)
    clusters = _founder_partition(world, list(range(6)),
                                  {1: RlAction.CLUSTERING,
                                   3: RlAction.CLUSTERING,
                                   4: RlAction.ELECT_SELF})
    assert [c.member_ids for c in clusters] == [(0, 1), (2, 3), (4,), (5,)]


def counted(monkeypatch, name):
    """Wrap strategies.<name>; returns the list of argument tuples it sees."""
    calls = []
    inner = getattr(strategies, name)

    def wrapper(*args, **kw):
        calls.append(args)
        return inner(*args, **kw)
    monkeypatch.setattr(strategies, name, wrapper)
    return calls


def geometric(world, alive):
    return [c.member_ids for c in form_clusters(
        alive, world.topology, world.config.stage_target_sizes[0])]


def test_stage1_partition_hit_returns_the_kept_clusters(monkeypatch):
    calls = counted(monkeypatch, "form_clusters")
    world = make_world(small_config(node_count=30), EnergyModel())
    alive = world.alive_ids()
    first = world.stage1_partition(alive)
    assert [c.member_ids for c in first] == geometric(world, alive)
    assert all(c.head_id is None for c in first)
    assert world.stage1_partition(alive) is first
    assert len(calls) == 1
    # the kept clusters are values: no caller can seat a head or add a member
    with pytest.raises(dataclasses.FrozenInstanceError):
        first[0].head_id = first[0].member_ids[0]
    with pytest.raises(AttributeError):
        first[0].member_ids.append(99)


def test_stage1_partition_recomputes_when_a_node_dies(monkeypatch):
    calls = counted(monkeypatch, "form_clusters")
    world = make_world(small_config(node_count=30), EnergyModel())
    before = world.stage1_partition(world.alive_ids())
    dead = before[0].member_ids[0]
    world.nodes[dead].energy = 0.0
    alive = world.alive_ids()
    after = world.stage1_partition(alive)
    assert len(calls) == 2
    assert [c.member_ids for c in after] == geometric(world, alive)
    assert dead not in {m for c in after for m in c.member_ids}


def test_full_rl_partitions_stage_one_once_while_nobody_dies(monkeypatch):
    # stage 2 partitions through clustering.form_clusters, not counted here
    calls = counted(monkeypatch, "form_clusters")
    run = simulate(StrategyKind.FULL_RL, small_config(round_count=8),
                   EnergyModel(), LearningParams(), UtilityWeights())
    assert [rm.alive_count for rm in run.series] == [20] * 8
    assert len(calls) == 1


LEARNING_ROUNDS = {
    "full-rl": run_round_full_rl,
    "gt-rl": lambda w, pool, p, t, rng: run_round_gt_rl(
        w, pool, UtilityWeights(), p, t, rng),
    "rl-gt": lambda w, pool, p, t, rng: run_round_rl_gt(
        w, pool, UtilityWeights(), p, t, rng),
}


@pytest.mark.parametrize("stage_count", [2, 3])
@pytest.mark.parametrize("kind", ["full-gt"] + sorted(LEARNING_ROUNDS))
def test_stage_count_means_the_same_for_every_clustered_strategy(kind,
                                                                 stage_count):
    """Stage 1 is the strategy's own, each later stage clusters the heads
    before it, and stage stage_count is the one cluster left."""
    world = make_world(small_config(node_count=40, rng_seed=1,
                                    stage_count=stage_count), EnergyModel())
    if kind == "full-gt":
        outcome = run_round_full_gt(world, UtilityWeights(), 1)
    else:
        pool = LearnerPool([nd.id for nd in world.nodes], QUIET)
        outcome = LEARNING_ROUNDS[kind](world, pool, QUIET, 1,
                                        random.Random(1))
    stages = outcome.hierarchy.stages
    assert len(stages[0]) > 1
    assert len(stages) == stage_count
    for lower, upper in zip(stages, stages[1:]):
        assert (sorted(m for c in upper for m in c.member_ids)
                == sorted(c.head_id for c in lower))
    assert len(stages[-1]) == 1


@pytest.mark.parametrize("shared", [True, False])
def test_each_table_is_pruned_once_after_every_agent_learned(monkeypatch,
                                                            shared):
    """A pass per agent over a shared table would wipe entries that other
    agents wrote earlier in the same round."""
    events = []
    for name in ("q_update", "prune"):
        inner = getattr(strategies, name)

        def wrapper(*args, _name=name, _inner=inner, **kw):
            events.append((_name, args))
            return _inner(*args, **kw)
        monkeypatch.setattr(strategies, name, wrapper)
    params = LearningParams(prune_min_visits=40, prune_window_rounds=10,
                            shared_table=shared)
    run = simulate(StrategyKind.FULL_RL, small_config(round_count=10),
                   EnergyModel(), params, UtilityWeights())
    assert [rm.alive_count for rm in run.series] == [20] * 10
    tables = run.pool.tables
    assert len({id(t) for t in tables}) == len(tables) == (1 if shared else 20)
    assert {id(a.table) for a in run.pool.agents.values()} == \
        {id(t) for t in tables}
    names = [name for name, _args in events]
    assert names == (["q_update"] * 20 + ["prune"] * len(tables)) * 10
    pruned = [(id(args[0]), args[2]) for name, args in events
              if name == "prune"]
    assert pruned == [(id(t), r) for r in range(1, 11) for t in tables]


@pytest.mark.parametrize("kind", sorted(LEARNING_ROUNDS))
def test_round_start_states_carry_over_exactly(monkeypatch, kind):
    """The states a round starts from are the ones the last round learned
    toward, and equal a fresh look at every alive node with the roles the
    last hierarchy gave; each alive node is observed once per round."""
    observed = counted(monkeypatch, "observe_state")
    cfg = NetworkConfig(node_count=18, round_count=40, initial_energy=0.004,
                        rng_seed=3)
    world = make_world(cfg, EnergyModel())
    params = LearningParams()
    pool = LearnerPool([nd.id for nd in world.nodes], params)
    rng = random.Random(17)
    roles = {}
    death_rounds = 0
    for t in range(1, cfg.round_count + 1):
        alive = world.alive_ids()
        if not alive:
            break
        if t > 1:
            counts = world.alive_neighbor_counts()
            fresh = [(i, _observe(world, i, roles.get(i, 0), counts))
                     for i in alive]
            assert list(pool.next_states.items()) == fresh, t
        before = len(observed)
        outcome = LEARNING_ROUNDS[kind](world, pool, params, t, rng)
        fresh_looks = len(alive) if t == 1 else 0
        assert len(observed) - before == world.alive_count() + fresh_looks
        roles = outcome.hierarchy.role_map()
        death_rounds += bool(outcome.deaths)
    assert death_rounds >= 2


def test_alive_neighbor_counts_skip_dead_neighbors():
    world = make_world(small_config(), EnergyModel())
    everyone = world.alive_neighbor_counts().tolist()
    for dead in (0, 4, 11):
        world.nodes[dead].energy = 0.0
    counts = world.alive_neighbor_counts().tolist()
    assert counts == [sum(1 for j in world.topology.neighbors[i]
                          if world.nodes[j].alive)
                      for i in range(len(world.nodes))]
    assert sum(counts) < sum(everyone)


def test_learned_rounds_conserve_energy():
    cfg = small_config()
    world = make_world(cfg, EnergyModel())
    pool = LearnerPool([nd.id for nd in world.nodes], QUIET)
    rng = random.Random(9)
    before = sum(nd.energy for nd in world.nodes)
    spent = 0.0
    for t in range(1, 6):
        outcome = run_round_full_rl(world, pool, QUIET, t, rng)
        spent += sum(outcome.energy_spent.values())
    after = sum(nd.energy for nd in world.nodes)
    assert math.isclose(before - after, spent, rel_tol=1e-9)


def test_dead_nodes_never_act():
    cfg = small_config()
    world = make_world(cfg, EnergyModel())
    for dead in (3, 11):
        world.nodes[dead].energy = 0.0
    pool = LearnerPool([nd.id for nd in world.nodes], QUIET)
    outcome = run_round_full_rl(world, pool, QUIET, 1, random.Random(1))
    for dead in (3, 11):
        assert dead not in outcome.delivered
        assert dead not in outcome.energy_spent
        assert world.nodes[dead].energy == 0.0
        assert dead not in {m for c in outcome.hierarchy.stages[0]
                            for m in c.member_ids}


def test_measure_delay_counts_delivered_only():
    outcome = RoundOutcome(round_index=1, hierarchy=None, reward=None,
                           delivered={0: True, 1: False, 2: True},
                           hop_counts={0: 2, 2: 4}, energy_spent={},
                           deaths=set(), success=False)
    # two hops and four hops at one processing unit per hop
    assert math.isclose(measure_delay(outcome), (2 * 2 + 4 * 2) / 2,
                        rel_tol=1e-12)
    empty = RoundOutcome(round_index=1, hierarchy=None, reward=None,
                         delivered={}, hop_counts={}, energy_spent={},
                         deaths=set(), success=True)
    assert measure_delay(empty) == 0.0


def test_success_rules_per_strategy():
    """Learning rounds need a full score; full-gt needs energy-argmax heads
    and forwarding; the relay needs every packet delivered."""
    full = RewardBreakdown(2, 3, 2, 3, 2)
    partial = RewardBreakdown(2, 3, 2, 1, 2)
    weak_head = RewardBreakdown(2, 1, 2, 3, 2)
    assert _round_success(full, learned=True)
    assert not _round_success(partial, learned=True)
    assert _round_success(partial, learned=False)
    assert not _round_success(weak_head, learned=False)
    world = hand_world([(45, 50), (35, 50), (5, 50)], comm_range=12.0)
    assert not run_round_baseline(world, 1).success     # node 2 is cut off
    world.nodes[2].energy = 0.0
    assert run_round_baseline(world, 2).success


def test_pool_table_sharing_switch():
    ids = list(range(6))
    shared = LearnerPool(ids, LearningParams(shared_table=True))
    assert all(shared.table_for(i) is shared.table_for(0) for i in ids)
    private = LearnerPool(ids, LearningParams(shared_table=False))
    assert private.table_for(0) is not private.table_for(1)


def test_rounds_learn_with_the_params_they_are_given():
    """The pool's params only size its tables and buffers; every learning
    setting of a round comes from the params the round is given."""
    built = LearningParams()
    given = LearningParams(epsilon_start=0.5, adaptive_learning_rate=False,
                           learning_rate=0.3, discount_factor=0.5,
                           replay_batch=5, prune_min_visits=2,
                           prune_window_rounds=2)
    tables = []
    for pool_params in (built, given):
        world = make_world(small_config(), EnergyModel())
        pool = LearnerPool([nd.id for nd in world.nodes], pool_params)
        rng = random.Random(3)
        for t in range(1, 6):
            run_round_full_rl(world, pool, given, t, rng)
        tables.append(sorted(pool.table_for(0).items()))
    assert tables[0] == tables[1]


@pytest.mark.parametrize("strategy", list(StrategyKind))
def test_simulate_is_seed_deterministic(strategy):
    cfg = small_config(round_count=5)
    a = simulate(strategy, cfg, EnergyModel(), LearningParams(),
                 UtilityWeights())
    b = simulate(strategy, cfg, EnergyModel(), LearningParams(),
                 UtilityWeights())
    assert a.series == b.series
    assert a.summary == b.summary


def test_simulate_records_every_round_and_monotone_alive():
    cfg = small_config(round_count=8)
    run = simulate(StrategyKind.FULL_RL, cfg, EnergyModel(), LearningParams(),
                   UtilityWeights())
    assert [rm.round for rm in run.series] == list(range(1, 9))
    alive = [rm.alive_count for rm in run.series]
    assert all(a >= b for a, b in zip(alive, alive[1:]))
    rewards = [rm.cumulative_reward for rm in run.series]
    assert all(a <= b for a, b in zip(rewards, rewards[1:]))
