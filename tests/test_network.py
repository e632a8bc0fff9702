"""Radio cost arithmetic, layout determinism, and topology structure."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wsn_lab import (EnergyModel, NetworkConfig, SensorNode, Topology,
                     aggregation_cost, drain, generate_network, rx_cost,
                     tx_cost)

MODEL = EnergyModel()


def test_tx_cost_hand_value():
    # 50e-9 * 4000 + 100e-12 * 4000 * 10^2 = 2.0e-4 + 4.0e-5
    assert math.isclose(tx_cost(4000, 10.0, MODEL), 2.4e-4, rel_tol=1e-12)


def test_rx_and_aggregation_hand_values():
    assert math.isclose(rx_cost(4000, MODEL), 2.0e-4, rel_tol=1e-12)
    assert math.isclose(aggregation_cost(4000, MODEL), 2.0e-5, rel_tol=1e-12)


def test_tx_cost_zero_distance_is_electronics_only():
    assert math.isclose(tx_cost(1000, 0.0, MODEL), MODEL.e_elec * 1000,
                        rel_tol=1e-12)


@given(st.floats(min_value=0.0, max_value=500.0),
       st.floats(min_value=0.0, max_value=500.0))
def test_tx_cost_monotone_in_distance(d1, d2):
    lo, hi = sorted([d1, d2])
    assert tx_cost(2000, lo, MODEL) <= tx_cost(2000, hi, MODEL)


def test_same_seed_same_layout():
    cfg = NetworkConfig(node_count=30, rng_seed=7, round_count=1)
    nodes_a, _ = generate_network(cfg)
    nodes_b, _ = generate_network(cfg)
    assert [(n.x, n.y) for n in nodes_a] == [(n.x, n.y) for n in nodes_b]


def test_different_seed_different_layout():
    a, _ = generate_network(NetworkConfig(node_count=30, rng_seed=1, round_count=1))
    b, _ = generate_network(NetworkConfig(node_count=30, rng_seed=2, round_count=1))
    assert [(n.x, n.y) for n in a] != [(n.x, n.y) for n in b]


def test_nodes_start_full_and_inside_area():
    cfg = NetworkConfig(node_count=50, rng_seed=3, round_count=1)
    nodes, _ = generate_network(cfg)
    assert len(nodes) == 50
    for nd in nodes:
        assert nd.energy == cfg.initial_energy
        assert nd.alive
        assert 0.0 <= nd.x <= cfg.area_side
        assert 0.0 <= nd.y <= cfg.area_side


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_adjacency_symmetric_and_irreflexive(seed):
    cfg = NetworkConfig(node_count=20, rng_seed=seed, round_count=1)
    nodes, topo = generate_network(cfg)
    adjacent = topo.adjacency_matrix
    for i in range(20):
        assert not adjacent[i, i]
        for j in range(20):
            assert adjacent[i, j] == adjacent[j, i]
            expected = 0 < topo.dist(i, j) <= cfg.comm_range
            assert adjacent[i, j] == (i != j and expected)


@pytest.mark.parametrize("grid", [False, True])
def test_neighbors_are_in_range_ids_nearest_first(grid):
    """Each list holds exactly the other in-range ids, ordered by
    (distance, id); on a 10 m grid many distances tie."""
    if grid:
        nodes = [SensorNode(k, 10.0 * (k % 8), 10.0 * (k // 8), 1.0)
                 for k in range(48)]
        topo = Topology(nodes, 25.0)
    else:
        cfg = NetworkConfig(node_count=60, rng_seed=11, round_count=1,
                            comm_range_fraction=0.4)
        nodes, topo = generate_network(cfg)
    for i in range(len(nodes)):
        in_range = [j for j in range(len(nodes))
                    if j != i and topo.dist(i, j) <= topo.comm_range]
        expected = sorted(in_range, key=lambda j: (topo.dist(i, j), j))
        assert topo.neighbors[i] == expected
        assert all(type(j) is int for j in topo.neighbors[i])
    if grid:
        assert topo.neighbors[9][:4] == [1, 8, 10, 17]


def test_distance_matrix_matches_geometry():
    nodes = [SensorNode(0, 0.0, 0.0, 1.0),
             SensorNode(1, 3.0, 4.0, 1.0)]
    topo = Topology(nodes, 10.0)
    assert math.isclose(topo.dist(0, 1), 5.0, rel_tol=1e-12)


def test_drain_clamps_at_zero_and_kills():
    nd = SensorNode(0, 0.0, 0.0, 0.5)
    drain(nd, 0.2)
    assert math.isclose(nd.energy, 0.3, rel_tol=1e-12)
    assert nd.alive
    drain(nd, 5.0)
    assert nd.energy == 0.0
    assert not nd.alive


def test_drain_rejects_negative():
    nd = SensorNode(0, 0.0, 0.0, 0.5)
    with pytest.raises(ValueError):
        drain(nd, -0.1)


def test_comm_range_and_sink_defaults():
    cfg = NetworkConfig(round_count=1)
    assert math.isclose(cfg.comm_range, 50.0, rel_tol=1e-12)
    assert cfg.sink == (50.0, 50.0)
    custom = NetworkConfig(round_count=1, sink_position=(10.0, 20.0))
    assert custom.sink == (10.0, 20.0)


@pytest.mark.parametrize("kwargs", [
    {"node_count": 0},
    {"initial_energy": 0.0},
    {"round_count": 0},
    {"comm_range_fraction": 0.0},
    {"area_side": -5.0},
    {"stage_target_sizes": (5, 1)},
    {"stage_target_sizes": ()},
    {"stage_target_sizes": (4.5,)},
    {"sink_position": (10.0,)},
    {"sink_position": (10.0, True)},
    {"node_count": 10.5},
    {"stage_count": 2.5},
    {"round_count": True},
    {"stage_count": 1},
    {"area_side": math.nan},
    {"initial_energy": math.inf},
    {"initial_energy": float("1e999")},
    {"area_side": 10 ** 400},
    {"comm_range_fraction": True},
    {"sink_position": (10.0, math.nan)},
    {"sink_position": (math.inf, 20.0)},
])
def test_config_validation(kwargs):
    with pytest.raises(ValueError):
        NetworkConfig(**kwargs)


def test_energy_model_rejects_negative_coefficients():
    for bad in ({"e_elec": -1e-9}, {"e_amp": math.nan}, {"e_idle": math.inf},
                {"e_agg": True}):
        with pytest.raises(ValueError):
            EnergyModel(**bad)
