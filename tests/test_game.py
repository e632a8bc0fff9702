"""Utility arithmetic and equilibrium properties of head competition."""

import inspect
import itertools
import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wsn_lab import (NetworkConfig, UtilityWeights, best_response_dynamics,
                     generate_network, profile_to_clusters,
                     select_head_by_energy, select_head_by_utility)
from wsn_lab import game
from wsn_lab.clustering import Cluster
from wsn_lab.game import head_fitness_base
from wsn_lab.network import DEFAULT_NEIGHBOR_CAP

from conftest import make_nodes
from reference_game import (join_utility, mean_neighbor_distance,
                            reference_best_response, utility)


def random_instance(seed, n=None, side=60.0):
    rng = random.Random(seed)
    if n is None:
        n = rng.randint(2, 6)
    positions = [(rng.uniform(0, side), rng.uniform(0, side)) for _ in range(n)]
    energies = [rng.uniform(0.05, 1.0) for _ in range(n)]
    return make_nodes(positions, energies, comm_range=side * 0.7)


def test_utility_hand_value():
    nodes, topo = make_nodes([(0, 0), (30, 0)], [1.0, 0.5], comm_range=30.0)
    w = UtilityWeights(energy_weight=1.0, distance_weight=0.8, load_weight=0.1)
    # node 0: energy term 1.0, lone neighbor at exactly one range unit
    got = utility(0, nodes, topo, w, initial_energy=1.0)
    assert math.isclose(got, 1.0 - 0.8 * 1.0, rel_tol=1e-12)
    # three prospective members add 0.1 * 3/10
    got = utility(0, nodes, topo, w, initial_energy=1.0, prospective_members=3)
    assert math.isclose(got, 0.2 - 0.03, rel_tol=1e-12)


def test_utility_weight_linearity():
    nodes, topo = make_nodes([(0, 0), (12, 0), (0, 9)], [0.8, 0.6, 0.4],
                             comm_range=20.0)
    w = UtilityWeights(energy_weight=2.0, distance_weight=1.0, load_weight=0.5)
    e = nodes[0].energy
    d = (12.0 + 9.0) / 2 / 20.0
    n = 2 / DEFAULT_NEIGHBOR_CAP
    expected = 2.0 * e - 1.0 * d - 0.5 * n
    got = utility(0, nodes, topo, w, initial_energy=1.0, prospective_members=2)
    assert math.isclose(got, expected, rel_tol=1e-12)


def test_join_utility_hand_value():
    nodes, topo = make_nodes([(0, 0), (10, 0)], [0.9, 0.3], comm_range=25.0)
    w = UtilityWeights(energy_weight=1.0, distance_weight=0.5, load_weight=0.2)
    got = join_utility(1, 0, nodes, topo, w, initial_energy=1.0, head_load=4)
    expected = 0.9 - 0.5 * (10.0 / 25.0) - 0.2 * (4 / DEFAULT_NEIGHBOR_CAP)
    assert math.isclose(got, expected, rel_tol=1e-12)


def test_mean_neighbor_distance_ignores_dead_and_isolated():
    nodes, topo = make_nodes([(0, 0), (10, 0), (20, 0)], comm_range=25.0)
    assert math.isclose(mean_neighbor_distance(0, nodes, topo), 15.0 / 25.0,
                        rel_tol=1e-12)
    nodes[1].energy = 0.0
    assert math.isclose(mean_neighbor_distance(0, nodes, topo), 20.0 / 25.0,
                        rel_tol=1e-12)
    lonely, lonely_topo = make_nodes([(0, 0)])
    assert mean_neighbor_distance(0, lonely, lonely_topo) == 0.0


def test_head_fitness_base_matches_utility():
    nodes, topo = random_instance(99, n=6)
    w = UtilityWeights()
    base = head_fitness_base(nodes, topo, w, initial_energy=1.0)
    for i in base:
        assert math.isclose(base[i], utility(i, nodes, topo, w,
                                             initial_energy=1.0),
                            rel_tol=1e-9)


@pytest.mark.parametrize("scale", [0.25, 3.7, 1000.0])
def test_positive_rescaling_preserves_choices(scale):
    w = UtilityWeights(energy_weight=1.0, distance_weight=0.8, load_weight=0.1)
    scaled = UtilityWeights(energy_weight=scale * w.energy_weight,
                            distance_weight=scale * w.distance_weight,
                            load_weight=scale * w.load_weight)
    for seed in range(40):
        nodes, topo = random_instance(seed)
        a = best_response_dynamics(nodes, topo, w, initial_energy=1.0)
        b = best_response_dynamics(nodes, topo, scaled, initial_energy=1.0)
        assert a.profile == b.profile
        cluster = Cluster([nd.id for nd in nodes])
        assert (select_head_by_utility(cluster, nodes, topo, w,
                                       initial_energy=1.0)
                == select_head_by_utility(cluster, nodes, topo, scaled,
                                          initial_energy=1.0))


def test_dynamics_deterministic_and_rng_free():
    assert "rng" not in inspect.signature(best_response_dynamics).parameters
    for seed in (0, 1, 2):
        nodes, topo = random_instance(seed, n=6)
        a = best_response_dynamics(nodes, topo, UtilityWeights(),
                                   initial_energy=1.0)
        b = best_response_dynamics(nodes, topo, UtilityWeights(),
                                   initial_energy=1.0)
        assert a.profile == b.profile
        assert a.converged and b.converged


def _deviation_values(i, profile, nodes, topo, weights, base):
    """Payoff of every choice open to node i given the others' profile.

    Mirrors the published payoff model: standing is scored by load-free
    fitness, joining head c by c's energy minus the link-distance and
    congestion terms, with an incumbent follower not re-counted.
    """
    loads = {}
    for j, tgt in profile.items():
        if tgt is not None:
            loads[tgt] = loads.get(tgt, 0) + 1
    e_hat = {j: weights.energy_weight * nodes[j].energy for j in profile}
    load_unit = weights.load_weight / DEFAULT_NEIGHBOR_CAP
    du = weights.distance_weight / topo.comm_range
    options = {None: (base[i], -i)}
    for c in topo.neighbors[i]:
        if c not in profile or profile[c] is not None:
            continue
        extra = 0 if profile[i] == c else 1
        value = (e_hat[c] - du * topo.dist(i, c)
                 - load_unit * (loads.get(c, 0) + extra))
        options[c] = (value, -c)
    return options


def _is_stable(profile, nodes, topo, weights, base):
    loads = {}
    for j, tgt in profile.items():
        if tgt is not None:
            loads[tgt] = loads.get(tgt, 0) + 1
    for i in profile:
        if profile[i] is None and loads.get(i, 0) > 0:
            continue          # serving heads are committed for the round
        options = _deviation_values(i, profile, nodes, topo, weights, base)
        current = options.get(profile[i])
        if current is None:
            return False      # following a non-head is not an outcome
        if any(v > current for v in options.values()):
            return False
    return True


def test_equilibrium_has_no_profitable_deviation():
    w = UtilityWeights()
    for seed in range(120):
        nodes, topo = random_instance(seed)
        base = head_fitness_base(nodes, topo, w, initial_energy=1.0)
        result = best_response_dynamics(nodes, topo, w, initial_energy=1.0)
        assert result.converged
        assert _is_stable(result.profile, nodes, topo, w, base), seed


@st.composite
def head_competitions(draw):
    """Up to 40 nodes on a continuous or a 10 m grid field (ties in
    distance), some dead, at any range, under any admissible weights."""
    n = draw(st.integers(min_value=1, max_value=40))
    if draw(st.booleans()):
        coord = st.floats(min_value=0.0, max_value=100.0)
    else:
        coord = st.integers(min_value=0, max_value=10).map(lambda v: 10.0 * v)
    positions = draw(st.lists(st.tuples(coord, coord), min_size=n,
                              max_size=n))
    energy = st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1.0))
    energies = draw(st.lists(energy, min_size=n, max_size=n))
    fraction = draw(st.floats(min_value=0.02, max_value=1.5))
    weight = st.floats(min_value=0.0, max_value=3.0)
    weights = draw(st.tuples(weight, weight, weight).filter(any))
    nodes, topo = make_nodes(positions, energies, comm_range=100.0 * fraction)
    return nodes, topo, UtilityWeights(*weights)


@settings(max_examples=200, deadline=None)
@given(head_competitions())
def test_best_response_converges_well_inside_the_cap(instance):
    """The potential argument made concrete: a fixed point within 10 passes,
    far under the 50-pass cap. A random search over 36000 layouts of up to
    40 nodes never needed more than 8."""
    nodes, topo, w = instance
    result = best_response_dynamics(nodes, topo, w, initial_energy=1.0)
    assert result.converged
    assert result.passes <= 10
    base = head_fitness_base(nodes, topo, w, initial_energy=1.0)
    assert _is_stable(result.profile, nodes, topo, w, base)


# A 4 x 3 grid at 10 m spacing with energies on three levels, so that both
# distances and head values tie.
_GRID = [(10.0 * (k % 4), 10.0 * (k // 4)) for k in range(12)]
_GRID_ENERGIES = [0.5, 1.0, 0.25, 1.0, 0.5, 0.5, 1.0, 0.25, 1.0, 0.5, 0.25,
                  0.5]


def _grid_competition(energies, weights):
    nodes, topo = make_nodes(_GRID, energies, comm_range=25.0)
    return nodes, topo, weights


def _outcomes(nodes, topo, w, initial_energy):
    """(profile items in order, passes) from the scan and from the oracle."""
    return [(list(r.profile.items()), r.passes) for r in (
        run(nodes, topo, w, initial_energy=initial_energy)
        for run in (best_response_dynamics, reference_best_response))]


@settings(max_examples=200, deadline=None)
@given(head_competitions())
@example(_grid_competition([0.0] * 12, UtilityWeights()))
@example(_grid_competition(_GRID_ENERGIES, UtilityWeights(0.0, 0.8, 0.1)))
@example(_grid_competition(_GRID_ENERGIES, UtilityWeights(1.0, 0.0, 0.1)))
@example(_grid_competition(_GRID_ENERGIES, UtilityWeights(1.0, 0.8, 0.0)))
def test_best_response_matches_the_full_scan_oracle(instance):
    nodes, topo, w = instance
    got, want = _outcomes(nodes, topo, w, initial_energy=1.0)
    assert got == want


@pytest.mark.parametrize("n, fraction, drain, weights", [
    (300, 0.2, "full", UtilityWeights()),
    (300, 0.5, "half", UtilityWeights()),
    (300, 0.2, "dead", UtilityWeights()),
    (1000, 0.1, "half", UtilityWeights()),
    (1000, 0.2, "levels", UtilityWeights(1.0, 0.8, 0.0)),
    (1000, 0.2, "dead", UtilityWeights()),
])
def test_best_response_matches_the_oracle_on_large_fields(n, fraction,
                                                          drain, weights):
    """Full charge, about half the nodes drained at random, 30% dead and
    the rest drained, or every charge on one of three levels (ties)."""
    config = NetworkConfig(node_count=n, comm_range_fraction=fraction,
                           rng_seed=n + int(100 * fraction))
    nodes, topo = generate_network(config)
    rng = random.Random(n + len(drain))
    for nd in nodes:
        if drain == "half" and rng.random() < 0.5:
            nd.energy *= rng.random()
        elif drain == "dead":
            nd.energy = 0.0 if rng.random() < 0.3 else nd.energy * rng.random()
        elif drain == "levels":
            nd.energy = rng.choice((0.1, 0.25, 0.5))
    got, want = _outcomes(nodes, topo, weights,
                          initial_energy=config.initial_energy)
    assert got == want


def test_best_response_on_no_or_one_alive_node():
    nodes, topo = make_nodes([(0, 0), (10, 0), (20, 0)], [0.0, 0.0, 0.0])
    result = best_response_dynamics(nodes, topo, UtilityWeights(),
                                    initial_energy=1.0)
    assert (result.profile, result.passes) == ({}, 1)
    for positions, energies in (([(0, 0)], [1.0]),
                                ([(0, 0), (10, 0)], [1.0, 0.0])):
        nodes, topo = make_nodes(positions, energies)
        result = best_response_dynamics(nodes, topo, UtilityWeights(),
                                        initial_energy=1.0)
        assert (result.profile, result.passes) == ({0: None}, 1)


class _CountingList(list):
    """A neighbor list that tallies the entries read through iteration."""

    def __init__(self, items):
        super().__init__(items)
        self.reads = 0

    def __iter__(self):
        for item in super().__iter__():
            self.reads += 1
            yield item


def test_best_response_reads_a_small_share_of_the_neighbor_lists():
    """On the paper's 100-node field at full charge, a node stops scanning
    once no farther head can beat its best, so one call reads at most 10%
    of the entries that scanning every list on every pass would (3.8% when
    the bound landed)."""
    config = NetworkConfig()
    nodes, topo = generate_network(config)
    topo.neighbors = [_CountingList(row) for row in topo.neighbors]
    result = best_response_dynamics(nodes, topo, UtilityWeights(),
                                    initial_energy=config.initial_energy)
    reads = sum(row.reads for row in topo.neighbors)
    entries = sum(len(row) for row in topo.neighbors)
    assert 0 < reads <= 0.10 * entries * result.passes


def test_best_response_raises_at_the_pass_cap(monkeypatch):
    # node 0 joins the better-charged node 1 in pass 1; pass 2 confirms it
    nodes, topo = make_nodes([(0, 0), (10, 0)], [0.5, 1.0], comm_range=30.0)
    monkeypatch.setattr(game, "_MAX_PASSES", 1)
    with pytest.raises(RuntimeError, match="1 passes"):
        best_response_dynamics(nodes, topo, UtilityWeights(),
                               initial_energy=1.0)
    monkeypatch.setattr(game, "_MAX_PASSES", 2)
    result = best_response_dynamics(nodes, topo, UtilityWeights(),
                                    initial_energy=1.0)
    assert result.profile == {0: 1, 1: None}
    assert result.passes == 2


def test_equilibrium_in_enumerated_stable_set():
    """On tiny instances, compare against every profile there is."""
    w = UtilityWeights()
    for seed in range(30):
        nodes, topo = random_instance(seed * 7 + 1, n=4)
        base = head_fitness_base(nodes, topo, w, initial_energy=1.0)
        ids = [nd.id for nd in nodes]
        choice_sets = [[None] + list(topo.neighbors[i]) for i in ids]
        stable = []
        for combo in itertools.product(*choice_sets):
            profile = dict(zip(ids, combo))
            if _is_stable(profile, nodes, topo, w, base):
                stable.append(profile)
        assert stable, seed
        result = best_response_dynamics(nodes, topo, w, initial_energy=1.0)
        assert result.profile in stable, seed


def test_unreachable_nodes_stand_alone():
    nodes, topo = make_nodes([(0, 0), (500, 500)], comm_range=30.0)
    result = best_response_dynamics(nodes, topo, UtilityWeights(),
                                    initial_energy=1.0)
    assert result.profile == {0: None, 1: None}


def test_zero_distance_and_load_weights_reduce_to_energy_chase():
    w = UtilityWeights(energy_weight=1.0, distance_weight=0.0, load_weight=0.0)
    for seed in range(40):
        nodes, topo = random_instance(seed, n=6)
        result = best_response_dynamics(nodes, topo, w, initial_energy=1.0)
        for i, tgt in result.profile.items():
            standing = [j for j in topo.neighbors[i]
                        if result.profile.get(j) is None]
            if tgt is None:
                if i in result.profile.values():
                    continue   # serving heads are committed where they stand
                assert all(nodes[j].energy <= nodes[i].energy
                           for j in standing)
            else:
                assert nodes[tgt].energy >= nodes[i].energy
                assert nodes[tgt].energy == max(nodes[j].energy
                                                for j in standing)
        cluster = Cluster([nd.id for nd in nodes])
        assert (select_head_by_utility(cluster, nodes, topo, w,
                                       initial_energy=1.0)
                == select_head_by_energy(cluster, nodes))


def test_select_head_by_utility_uses_serving_distance():
    # equal energies: the central member serves the shortest mean link
    nodes, topo = make_nodes([(0, 0), (10, 0), (20, 0)], comm_range=40.0)
    cluster = Cluster([0, 1, 2])
    head = select_head_by_utility(cluster, nodes, topo, UtilityWeights(),
                                  initial_energy=1.0)
    assert head == 1


def test_profile_to_clusters_partitions_alive_set():
    for seed in range(20):
        nodes, topo = random_instance(seed)
        result = best_response_dynamics(nodes, topo, UtilityWeights(),
                                        initial_energy=1.0)
        groups = profile_to_clusters(result)
        seen = []
        for members, head in groups:
            assert head in members
            assert result.profile[head] is None
            seen.extend(members)
        assert sorted(seen) == [nd.id for nd in nodes]


def test_weights_validation():
    with pytest.raises(ValueError):
        UtilityWeights(energy_weight=-1.0)
    with pytest.raises(ValueError):
        UtilityWeights(energy_weight=0.0, distance_weight=0.0, load_weight=0.0)
    for bad in ({"distance_weight": math.nan}, {"load_weight": math.inf},
                {"energy_weight": True}):
        with pytest.raises(ValueError):
            UtilityWeights(**bad)
