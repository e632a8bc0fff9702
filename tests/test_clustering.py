"""Partitioning and multi-stage hierarchy construction."""

import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wsn_lab import (NoAliveNodes, build_hierarchy, form_clusters,
                     select_head_by_energy)
from wsn_lab.clustering import Cluster

from conftest import make_nodes
from reference_clustering import reference_form_clusters


def random_layout(seed, n, side=100.0):
    rng = random.Random(seed)
    positions = [(rng.uniform(0, side), rng.uniform(0, side)) for _ in range(n)]
    return make_nodes(positions, comm_range=side)


def heads(h, stage_index):
    return sorted(c.head_id for c in h.stages[stage_index])


def participants(h, stage_index):
    return sorted(m for c in h.stages[stage_index] for m in c.member_ids)


def stage_sizes(h):
    return [len(participants(h, k)) for k in range(len(h.stages))]


def role_of(h, node_id):
    """Highest stage at which the node is a head; 0 for a plain member."""
    role = 0
    for k, stage in enumerate(h.stages):
        for c in stage:
            if c.head_id == node_id:
                role = k + 1
    return role


def all_heads(h):
    return {c.head_id for stage in h.stages for c in stage}


def test_two_far_pairs_cluster_together():
    nodes, topo = make_nodes([(0, 0), (0, 1), (50, 0), (50, 1)])
    clusters = form_clusters([0, 1, 2, 3], topo, target_size=2)
    groups = sorted(tuple(c.member_ids) for c in clusters)
    assert groups == [(0, 1), (2, 3)]


def test_hundred_nodes_make_twenty_clusters():
    nodes, topo = random_layout(11, 100)
    clusters = form_clusters(list(range(100)), topo, target_size=5)
    assert len(clusters) == 20
    seen = sorted(m for c in clusters for m in c.member_ids)
    assert seen == list(range(100))
    cap = math.ceil(100 / 20) + 1
    assert all(len(c) <= cap for c in clusters)


def test_single_cluster_when_target_covers_everyone():
    nodes, topo = random_layout(3, 7)
    clusters = form_clusters(list(range(7)), topo, target_size=9)
    assert len(clusters) == 1
    assert clusters[0].member_ids == tuple(range(7))


def test_form_clusters_deterministic_without_rng():
    nodes, topo = random_layout(5, 40)
    a = form_clusters(list(range(40)), topo, target_size=5)
    b = form_clusters(list(range(40)), topo, target_size=5)
    assert [(c.member_ids, c.head_id) for c in a] == \
        [(c.member_ids, c.head_id) for c in b]


def test_form_clusters_rejects_bad_input():
    nodes, topo = random_layout(1, 5)
    with pytest.raises(NoAliveNodes):
        form_clusters([], topo, target_size=3)
    with pytest.raises(ValueError):
        form_clusters([0, 1], topo, target_size=1)


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=10_000),
       st.integers(min_value=1, max_value=60),
       st.integers(min_value=2, max_value=8))
def test_partition_properties(seed, n, target):
    """Every participant lands in exactly one of ceil(n/target) clusters."""
    nodes, topo = random_layout(seed, n)
    clusters = form_clusters(list(range(n)), topo, target)
    k = min(math.ceil(n / target), n)
    assert len(clusters) == k
    seen = sorted(m for c in clusters for m in c.member_ids)
    assert seen == list(range(n))
    assert all(len(c) >= 1 for c in clusters)
    if k > 1:
        cap = math.ceil(n / k) + 1
        assert all(len(c) <= cap for c in clusters)


def test_select_head_by_energy_prefers_charge_then_low_id():
    nodes, _ = make_nodes([(0, 0), (1, 0), (2, 0)], [0.3, 0.9, 0.9])
    cluster = Cluster([0, 1, 2])
    assert select_head_by_energy(cluster, nodes) == 1
    nodes[2].energy = 1.5
    assert select_head_by_energy(cluster, nodes) == 2


def energy_hierarchy(nodes, topo, stage_count, sizes):
    """The hierarchy over the geometric stage-1 partition of the alive
    nodes, with energy-argmax heads."""
    alive = [nd.id for nd in nodes if nd.alive]
    return build_hierarchy(form_clusters(alive, topo, sizes[0]), topo,
                           lambda c: select_head_by_energy(c, nodes),
                           stage_count=stage_count, stage_target_sizes=sizes)


def test_hierarchy_contracts_to_single_transmitter():
    nodes, topo = random_layout(21, 100)
    h = energy_hierarchy(nodes, topo, 3, (5, 4))
    assert stage_sizes(h) == [100, 20, 5]
    assert len(h.stages[-1]) == 1
    assert h.final_transmitter == h.stages[-1][0].head_id
    # each stage re-clusters exactly the previous stage's heads
    for k in range(len(h.stages) - 1):
        assert participants(h, k + 1) == heads(h, k)
    # strictly shrinking participant counts
    sizes = stage_sizes(h)
    assert all(a > b for a, b in zip(sizes, sizes[1:]))


def test_two_stages_are_stage_one_then_its_heads():
    nodes, topo = random_layout(21, 40)
    h = energy_hierarchy(nodes, topo, 2, (5,))
    assert len(h.stages) == 2
    assert [c.member_ids for c in h.stages[1]] == [tuple(heads(h, 0))]
    assert h.final_transmitter == h.stages[1][0].head_id


def test_hierarchy_respects_preset_stage_one():
    nodes, topo = random_layout(8, 10)
    stage1 = [Cluster([0, 1, 2, 3, 4], 4), Cluster([5, 6, 7, 8, 9], 9)]
    h = build_hierarchy(stage1, topo,
                        lambda c: select_head_by_energy(c, nodes),
                        stage_count=3, stage_target_sizes=(5, 4))
    assert heads(h, 0) == [4, 9]
    assert participants(h, 1) == [4, 9]
    assert h.final_transmitter in (4, 9)


def test_hierarchy_leaves_supplied_clusters_headless():
    nodes, topo = random_layout(8, 10)
    stage1 = [Cluster([0, 1, 2, 3, 4]), Cluster([5, 6, 7, 8, 9])]
    h = build_hierarchy(stage1, topo,
                        lambda c: select_head_by_energy(c, nodes),
                        stage_count=3, stage_target_sizes=(5, 4))
    assert [c.head_id for c in stage1] == [None, None]
    assert [c.member_ids for c in h.stages[0]] == [c.member_ids
                                                  for c in stage1]
    assert all(c.head_id is not None for c in h.stages[0])


def test_hierarchy_single_node_short_circuits():
    nodes, topo = random_layout(2, 1)
    h = energy_hierarchy(nodes, topo, 3, (5, 4))
    assert h.final_transmitter == 0
    assert stage_sizes(h)[0] == 1


def test_hierarchy_ignores_dead_nodes():
    nodes, topo = random_layout(9, 12)
    nodes[3].energy = 0.0
    nodes[7].energy = 0.0
    h = energy_hierarchy(nodes, topo, 2, (4,))
    assert 3 not in participants(h, 0)
    assert 7 not in participants(h, 0)
    assert len(participants(h, 0)) == 10


def test_hierarchy_requires_a_survivor():
    nodes, topo = random_layout(4, 3)
    with pytest.raises(NoAliveNodes):
        build_hierarchy([], topo, lambda c: select_head_by_energy(c, nodes),
                        stage_count=2, stage_target_sizes=(3,))


def test_role_and_parent_maps_agree():
    nodes, topo = random_layout(31, 30)
    h = energy_hierarchy(nodes, topo, 3, (5, 4))
    roles = h.role_map()
    parents = h.parent_map()
    assert set(roles) == all_heads(h)
    assert h.final_transmitter not in parents
    for nid in participants(h, 0):
        if nid != h.final_transmitter:
            assert parents[nid] in all_heads(h)
    for nid, role in roles.items():
        assert role_of(h, nid) == role
    assert role_of(h, h.final_transmitter) == len(h.stages)


def _layout(kind, seed, n):
    """Positions with many exact distance ties for the grid and stacked kinds."""
    rng = random.Random(seed)
    if kind == "uniform":
        return [(rng.uniform(0, 100), rng.uniform(0, 100)) for _ in range(n)]
    if kind == "grid":
        side = rng.randint(2, 8)
        return [(rng.randint(0, side), rng.randint(0, side))
                for _ in range(n)]
    spots = [(rng.uniform(0, 100), rng.uniform(0, 100))
             for _ in range(rng.randint(1, 6))]
    return [rng.choice(spots) for _ in range(n)]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(["uniform", "grid", "stacked"]),
       st.integers(min_value=0, max_value=10_000),
       st.integers(min_value=1, max_value=100),
       st.integers(min_value=2, max_value=12),
       st.floats(min_value=0.05, max_value=1.0))
# A medoid here turns on how the distance sums round: numpy's 8-way unrolled
# sum along a contiguous axis picks another one than the sequential sum.
@example("grid", 260, 30, 12, 1.0)
def test_form_clusters_matches_reference(kind, seed, n, target, keep):
    """Identical partitions to the pure-Python original, ties included.
    Targets above 8 give clusters longer than numpy's unrolled sum."""
    nodes, topo = make_nodes(_layout(kind, seed, n), comm_range=100.0)
    rng = random.Random(seed + 1)
    ids = [i for i in range(n) if rng.random() < keep] or [rng.randrange(n)]
    rng.shuffle(ids)
    got = form_clusters(ids, topo, target)
    want = reference_form_clusters(ids, topo, target)
    assert [list(c.member_ids) for c in got] == want
    assert all(type(m) is int for c in got for m in c.member_ids)

