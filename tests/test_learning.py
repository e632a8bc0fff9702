"""Q-learning arithmetic against hand-computed oracles."""

import copy
import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wsn_lab import (EnergyModel, Experience, LearningParams, NetworkConfig,
                     QTable, ReplayBuffer, RlAction, StrategyKind,
                     UtilityWeights, compute_round_reward, decay_epsilon,
                     learning, q_update, select_action, simulate,
                     state_space_bound, strategies)
from wsn_lab.clustering import Cluster, ClusterHierarchy
from wsn_lab.learning import (ALL_ACTIONS, AgentState, observe_state, prune,
                              replay_step)

from conftest import make_nodes
from reference_learning import (ReferenceQTable, ReferenceReplayBuffer,
                                reference_prune, reference_q_update,
                                reference_replay_step)

S0 = AgentState(9, 3, 0)
S1 = AgentState(8, 3, 1)

FIXED = LearningParams(adaptive_learning_rate=False)


def exp(s, a, r, s2):
    return Experience(s, a, r, s2)


def test_bellman_single_update():
    table = QTable()
    q_update(table, exp(S0, RlAction.ELECT_SELF, 3.0, S1), FIXED)
    # fresh table: Q = 0.7 * (3 + 0.9 * 0) = 2.1
    assert math.isclose(table.q(S0, RlAction.ELECT_SELF), 2.1, rel_tol=1e-12)


def test_bellman_chained_updates():
    table = QTable()
    a = RlAction.ELECT_SELF
    q_update(table, exp(S0, a, 3.0, S0), FIXED)          # 2.1, self loop
    q_update(table, exp(S0, a, 3.0, S0), FIXED)
    # target = 3 + 0.9 * 2.1 = 4.89; Q = 0.3 * 2.1 + 0.7 * 4.89 = 4.053
    assert math.isclose(table.q(S0, a), 4.053, rel_tol=1e-12)
    delta = q_update(table, exp(S0, a, 1.0, S1), FIXED)
    # target = 1 + 0.9 * 0 = 1; Q = 0.3 * 4.053 + 0.7 * 1 = 1.9159
    assert math.isclose(table.q(S0, a), 1.9159, rel_tol=1e-12)
    assert math.isclose(delta, 4.053 - 1.9159, rel_tol=1e-12)


def test_bellman_bootstraps_from_next_state_max():
    table = QTable()
    q_update(table, exp(S1, RlAction.JOIN_HEAD, 10.0, S0), FIXED)  # 7.0
    q_update(table, exp(S0, RlAction.CLUSTERING, 2.0, S1), FIXED)
    # target = 2 + 0.9 * 7.0 = 8.3; Q = 0.7 * 8.3
    assert math.isclose(table.q(S0, RlAction.CLUSTERING), 0.7 * 8.3,
                        rel_tol=1e-12)


def test_adaptive_rate_is_inverse_visit_count():
    params = LearningParams(adaptive_learning_rate=True, discount_factor=0.0)
    table = QTable()
    a = RlAction.SINGLE_HOP
    for r in (1.0, 0.0, 0.0):
        q_update(table, exp(S0, a, r, S1), params)
    # rates 1, 1/2, 1/3 turn the estimate into the plain average of rewards
    assert math.isclose(table.q(S0, a), 1.0 / 3.0, rel_tol=1e-12)
    assert table.visits(S0, a) == 3


def test_greedy_selection_is_argmax():
    table = QTable()
    q_update(table, exp(S0, RlAction.JOIN_HEAD, 5.0, S1), FIXED)
    q_update(table, exp(S0, RlAction.ELECT_SELF, 1.0, S1), FIXED)
    rng = random.Random(0)
    for _ in range(20):
        assert select_action(table, S0, 0.0, rng) is RlAction.JOIN_HEAD


def test_greedy_ties_break_in_enum_order():
    table = QTable()
    rng = random.Random(0)
    # untouched row: all zeros, so the first action in the set wins
    assert select_action(table, S0, 0.0, rng) is RlAction.CLUSTERING
    legal = (RlAction.ELECT_SELF, RlAction.JOIN_HEAD)
    assert select_action(table, S0, 0.0, rng, legal) is RlAction.ELECT_SELF
    # equal positive values tie the same way
    q_update(table, exp(S0, RlAction.JOIN_HEAD, 1.0, S1), FIXED)
    q_update(table, exp(S0, RlAction.SINGLE_HOP, 1.0, S1), FIXED)
    assert select_action(table, S0, 0.0, rng) is RlAction.JOIN_HEAD


def test_full_exploration_is_roughly_uniform():
    table = QTable()
    rng = random.Random(1234)
    counts = {a: 0 for a in ALL_ACTIONS}
    draws = 10_000
    for _ in range(draws):
        counts[select_action(table, S0, 1.0, rng)] += 1
    expected = draws / len(ALL_ACTIONS)
    for a in ALL_ACTIONS:
        assert abs(counts[a] - expected) <= 0.05 * draws


def test_epsilon_decay_values():
    p = LearningParams(epsilon_start=1.0, epsilon_decay_rate=0.01)
    assert math.isclose(decay_epsilon(p, 0), 1.0, rel_tol=1e-12)
    assert math.isclose(decay_epsilon(p, 1), math.exp(-0.01), rel_tol=1e-12)
    assert math.isclose(decay_epsilon(p, 100), math.exp(-1.0), rel_tol=1e-12)
    half = LearningParams(epsilon_start=0.5, epsilon_decay_rate=0.05)
    assert math.isclose(decay_epsilon(half, 10), 0.5 * math.exp(-0.5),
                        rel_tol=1e-12)


def test_replay_equals_sequential_updates():
    """A full-buffer replay must match applying the same updates in order."""
    exps = [exp(S0, RlAction.ELECT_SELF, 3.0, S1),
            exp(S1, RlAction.JOIN_HEAD, 1.0, S0),
            exp(S0, RlAction.ELECT_SELF, 2.0, S0)]
    params = LearningParams(adaptive_learning_rate=False, replay_batch=10)

    replayed = QTable()
    buffer = ReplayBuffer(capacity=10)
    for e in exps:
        buffer.add(replayed.resolve(e))
    replay_step(buffer, params, random.Random(0))

    oracle = QTable()
    for e in exps:
        q_update(oracle, e, params)

    for s in (S0, S1):
        for a in ALL_ACTIONS:
            assert replayed.q(s, a) == oracle.q(s, a)
            assert replayed.visits(s, a) == oracle.visits(s, a)


def test_replay_buffer_ring_overwrites_oldest():
    table = QTable()
    buf = ReplayBuffer(capacity=3)
    items = [exp(S0, RlAction(a % 4), float(a), S1) for a in range(5)]
    for e in items:
        buf.add(table.resolve(e))
    assert len(buf) == 3
    held = buf.sample(10, random.Random(0))
    # records are (q_row, visit_row, action, reward, next_q_row)
    assert sorted(r[3] for r in held) == [2.0, 3.0, 4.0]


def test_replay_sample_size_capped_by_buffer():
    table = QTable()
    buf = ReplayBuffer(capacity=8)
    for i in range(4):
        buf.add(table.resolve(exp(S0, RlAction.CLUSTERING, float(i), S1)))
    assert len(buf.sample(2, random.Random(0))) == 2
    assert len(buf.sample(100, random.Random(0))) == 4
    assert buf.sample(0, random.Random(0)) == []


def _hierarchy(stage1, stage2):
    stages = [[Cluster(m, h) for m, h in stage1],
              [Cluster(m, h) for m, h in stage2]]
    return ClusterHierarchy(stages=stages)


ENERGIES = {0: 4.0, 1: 3.0, 2: 2.0, 3: 1.0}


def test_reward_perfect_round_scores_twelve():
    h = _hierarchy([([0, 1], 0), ([2, 3], 2)], [([0, 2], 0)])
    r = compute_round_reward(h, ENERGIES, forwarding_ok=True)
    assert r.total == 12
    assert (r.valid_clustering, r.ch_selection, r.hierarchy_purity,
            r.final_transmitter, r.data_forwarding) == (2, 3, 2, 3, 2)


def test_reward_overlapping_clusters_lose_two():
    h = _hierarchy([([0, 1], 0), ([1, 2, 3], 1)], [([0, 1], 0)])
    r = compute_round_reward(h, ENERGIES, forwarding_ok=True)
    assert r.valid_clustering == 0
    assert r.total == 10


def test_reward_weak_head_drops_three_to_one():
    h = _hierarchy([([0, 1], 1), ([2, 3], 2)], [([1, 2], 1)])
    r = compute_round_reward(h, ENERGIES, forwarding_ok=True)
    assert r.ch_selection == 1
    # node 1 is also not the network maximum, so the final bonus drops too
    assert r.final_transmitter == 1
    assert r.total == 8


def test_reward_impure_next_stage_loses_two():
    h = _hierarchy([([0, 1], 0), ([2, 3], 2)], [([0, 3], 0)])
    r = compute_round_reward(h, ENERGIES, forwarding_ok=True)
    assert r.hierarchy_purity == 0
    assert r.total == 10


def test_reward_failed_forwarding_loses_two():
    h = _hierarchy([([0, 1], 0), ([2, 3], 2)], [([0, 2], 0)])
    r = compute_round_reward(h, ENERGIES, forwarding_ok=False)
    assert r.data_forwarding == 0
    assert r.total == 10


def test_prune_respects_schedule_and_threshold():
    params = LearningParams(adaptive_learning_rate=False, prune_min_visits=2,
                            prune_window_rounds=50)
    table = QTable()
    a = RlAction.ELECT_SELF
    q_update(table, exp(S0, a, 1.0, S1), params)             # 1 visit
    for _ in range(3):
        q_update(table, exp(S1, a, 1.0, S0), params)         # 3 visits
    assert prune(table, params, 49) == 0
    assert prune(table, params, 50) == 1
    assert table.q(S0, a) == 0.0
    assert S0 not in set(table.states())
    assert S1 in set(table.states())
    assert table.visits(S1, a) == 3
    # disabled pruning never removes anything
    assert prune(table, LearningParams(), 50) == 0


def test_state_space_bound_matches_discretization():
    # 10 energy levels x 11 neighbor counts x 4 stage levels, times 4 actions
    assert state_space_bound(neighbor_cap=10, stage_cap=3) == 440 * 4
    assert state_space_bound(neighbor_cap=5, stage_cap=1) == 10 * 6 * 2 * 4


def test_entry_count_tracks_touched_pairs():
    table = QTable()
    assert table.entry_count() == 0
    q_update(table, exp(S0, RlAction.ELECT_SELF, 1.0, S1), FIXED)
    q_update(table, exp(S0, RlAction.JOIN_HEAD, 1.0, S1), FIXED)
    assert table.entry_count() == 2


def test_observe_state_discretization():
    nodes, _ = make_nodes([(0, 0), (5, 0)])
    full = observe_state(nodes[0], 0, 1, initial_energy=1.0)
    assert full == AgentState(9, 1, 0)
    nodes[1].energy = 0.37
    mid = observe_state(nodes[1], 2, 2, initial_energy=1.0)
    assert mid == AgentState(3, 2, 2)


def test_observe_state_clamps():
    nodes, _ = make_nodes([(0, 0)])
    s = observe_state(nodes[0], 7, 15, initial_energy=1.0, stage_cap=3)
    assert s.neighbor_count == 10
    assert s.stage_level == 3


def test_learning_params_validation():
    with pytest.raises(ValueError):
        LearningParams(learning_rate=0.0)
    with pytest.raises(ValueError):
        LearningParams(discount_factor=1.0)
    with pytest.raises(ValueError):
        LearningParams(epsilon_start=1.5)
    with pytest.raises(ValueError):
        LearningParams(replay_capacity=0)
    with pytest.raises(ValueError):
        LearningParams(replay_capacity=50, replay_batch=51)
    with pytest.raises(ValueError):
        LearningParams(shared_table="no")
    with pytest.raises(ValueError):
        LearningParams(adaptive_learning_rate=1)
    with pytest.raises(ValueError):
        LearningParams(replay_batch=2.5)
    for bad in ({"epsilon_decay_rate": math.nan},
                {"epsilon_decay_rate": math.inf},
                {"learning_rate": True}, {"epsilon_start": True}):
        with pytest.raises(ValueError):
            LearningParams(**bad)


def test_benchmark_bound_learning_interface():
    """The names and table operations the benchmark wraps and reads."""
    # bench/tracer.py rebinds these by name in every wsn_lab module, so the
    # round pipeline must look them up as module attributes.
    for name in ("q_update", "replay_step", "observe_state", "select_action",
                 "compute_round_reward"):
        assert callable(getattr(learning, name))
        assert getattr(strategies, name) is getattr(learning, name)

    table = QTable()
    S2 = AgentState(1, 0, 0)
    q_update(table, exp(S0, RlAction.ELECT_SELF, 1.0, S2), FIXED)
    for _ in range(3):
        q_update(table, exp(S1, RlAction.ELECT_SELF, 1.0, S0), FIXED)
    # a next state that was only bootstrapped from has no live entry
    assert set(table.states()) == {S0, S1}
    table.row(S1)[0][RlAction.JOIN_HEAD] = 5.0
    assert (S1, RlAction.JOIN_HEAD, 5.0, 0) in set(table.items())
    clone = copy.deepcopy(table)
    assert sorted(clone.items()) == sorted(table.items())
    assert clone.entry_count() == table.entry_count() == 3
    params = LearningParams(prune_min_visits=2, prune_window_rounds=1)
    assert prune(table, params, 1) == 2
    assert set(table.states()) == {S1}
    assert clone.entry_count() == 3


def test_round_pipeline_learns_through_module_attributes(monkeypatch):
    """Wrapping the learning names in `strategies` sees every fresh update
    and every replay of a learning round."""
    calls = {"q_update": 0, "replay_step": 0}

    def counting(name):
        fn = getattr(strategies, name)

        def wrapper(*args, **kw):
            calls[name] += 1
            return fn(*args, **kw)
        return wrapper

    for name in calls:
        monkeypatch.setattr(strategies, name, counting(name))
    run = simulate(StrategyKind.FULL_RL,
                   NetworkConfig(node_count=10, round_count=3, rng_seed=7),
                   EnergyModel(), LearningParams(), UtilityWeights())
    assert len(run.series) == 3
    assert calls["q_update"] == calls["replay_step"] == 30


def _pool_state(i: int) -> AgentState:
    return AgentState(9 - i, i % 4, i % 3)


def _tables_agree(ref, new, states):
    for s in states:
        for a in ALL_ACTIONS:
            assert repr(new.q(s, a)) == repr(ref.q(s, a))
            assert new.visits(s, a) == ref.visits(s, a)
    assert new.entry_count() == ref.entry_count()
    assert set(new.states()) == set(ref.states())


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=10_000),    # stream seed
       st.integers(min_value=1, max_value=6),          # distinct states
       st.integers(min_value=1, max_value=3),          # buffers on one table
       st.integers(min_value=1, max_value=8),          # replay capacity
       st.floats(min_value=0.0, max_value=1.0),        # batch / capacity
       st.booleans(),                                  # adaptive rate
       st.integers(min_value=0, max_value=6),          # prune_min_visits
       st.integers(min_value=1, max_value=4),          # prune window
       st.integers(min_value=1, max_value=25))         # rounds
# self-loops only, a wrapping ring sampled below capacity, pruning
@example(3, 1, 3, 4, 0.5, False, 3, 2, 12)
# the default full sweep of the buffer, unpruned
@example(5, 4, 2, 8, 1.0, True, 0, 1, 20)
def test_learning_matches_reference(seed, n_states, n_buffers, capacity,
                                    batch_share, adaptive, min_visits,
                                    window, rounds):
    """Resolve-once backups leave the table the frozen engine leaves."""
    params = LearningParams(
        learning_rate=0.7, discount_factor=0.9,
        adaptive_learning_rate=adaptive, replay_capacity=capacity,
        replay_batch=round(batch_share * capacity),
        prune_min_visits=min_visits, prune_window_rounds=window)
    pool = [_pool_state(i) for i in range(n_states)]
    stream = random.Random(seed)
    ref, new = ReferenceQTable(), QTable()
    ref_bufs = [ReferenceReplayBuffer(capacity) for _ in range(n_buffers)]
    new_bufs = [ReplayBuffer(capacity) for _ in range(n_buffers)]
    ref_rng, new_rng = random.Random(seed + 1), random.Random(seed + 1)
    for r in range(1, rounds + 1):
        for k in range(n_buffers):
            state = stream.choice(pool)
            nxt = state if stream.random() < 0.3 else stream.choice(pool)
            reward = (float(stream.randint(2, 12)) if stream.random() < 0.8
                      else stream.uniform(0.0, 12.0))
            e = exp(state, stream.choice(ALL_ACTIONS), reward, nxt)
            assert q_update(new, e, params) == reference_q_update(ref, e,
                                                                  params)
            ref_bufs[k].add(e)
            new_bufs[k].add(new.resolve(e))
            assert (replay_step(new_bufs[k], params, new_rng)
                    == reference_replay_step(ref, ref_bufs[k], params,
                                             ref_rng))
            assert prune(new, params, r) == reference_prune(ref, params, r)
        _tables_agree(ref, new, pool)
    assert new_rng.random() == ref_rng.random()
    assert (sorted((s, a, repr(q), v) for s, a, q, v in new.items())
            == sorted((s, a, repr(q), v) for s, a, q, v in ref.items()))
