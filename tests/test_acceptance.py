"""Release acceptance checklist.

Four layers, each printed as PASS/FAIL lines so a verbose run reads as a
checklist: exact arithmetic for the learning and utility rules, brute-force
oracle equivalence on small instances, structural invariants over large
randomized batches, and the cross-strategy comparisons on a ten-seed
ensemble of the default 100-node scenario.
"""

import itertools
import math
import random
import time
from types import SimpleNamespace

import pytest

from wsn_lab import (EnergyModel, Experience, LearningParams, NetworkConfig,
                     QTable, StrategyKind, UtilityWeights, compute_round_reward,
                     decay_epsilon, q_update, select_action, simulate,
                     state_space_bound)
from wsn_lab.clustering import (Cluster, ClusterHierarchy, build_hierarchy,
                                form_clusters, select_head_by_energy)
from wsn_lab.game import (best_response_dynamics, profile_to_clusters,
                          select_head_by_utility)
from wsn_lab.learning import ALL_ACTIONS, AgentState, RlAction
from wsn_lab.metrics import find_convergence_round, write_rounds_csv
from wsn_lab.strategies import make_world, run_round_full_gt

from conftest import make_nodes
from reference_game import join_utility, utility

SEEDS = tuple(range(42, 52))
CLUSTERED = ("full-rl", "gt-rl", "rl-gt", "full-gt")

S0 = AgentState(9, 3, 0)
S1 = AgentState(8, 3, 1)
FIXED = LearningParams(adaptive_learning_rate=False)


def check(label: str, ok: bool) -> bool:
    print(f"{'PASS' if ok else 'FAIL'}: {label}")
    return ok


@pytest.fixture(scope="module")
def ensemble():
    """All five strategies on the default scenario, seeds 42 through 51."""
    runs = {kind.value: [] for kind in StrategyKind}
    seed_seconds = []
    for seed in SEEDS:
        cfg = NetworkConfig(rng_seed=seed)
        t0 = time.perf_counter()
        for kind in StrategyKind:
            runs[kind.value].append(simulate(kind, cfg, EnergyModel(),
                                             LearningParams(),
                                             UtilityWeights()))
        seed_seconds.append(time.perf_counter() - t0)
    return SimpleNamespace(runs=runs, seed_seconds=seed_seconds,
                           node_count=NetworkConfig().node_count,
                           round_count=NetworkConfig().round_count)


def mean_at(runs, field, index):
    return sum(getattr(r.summary, field)[index] for r in runs) / len(runs)


def adjacent_violations(values, strict):
    bad = 0
    for a, b in zip(values, values[1:]):
        if not (a > b if strict else a >= b):
            bad += 1
    return bad


# ---------------------------------------------------------------- arithmetic

def test_bellman_update_exact_values():
    table = QTable()
    q_update(table, Experience(S0, RlAction.ELECT_SELF, 3.0, S1), FIXED)
    first = table.q(S0, RlAction.ELECT_SELF)
    ok = math.isclose(first, 2.1, rel_tol=1e-12)
    assert check("zero-table update r=3 rate=0.7 discount=0.9 gives 2.1", ok)

    q_update(table, Experience(S1, RlAction.JOIN_HEAD, 5.0, S0), FIXED)
    second = table.q(S1, RlAction.JOIN_HEAD)
    want2 = 0.7 * (5.0 + 0.9 * 2.1)
    q_update(table, Experience(S0, RlAction.ELECT_SELF, 1.0, S1), FIXED)
    third = table.q(S0, RlAction.ELECT_SELF)
    want3 = 0.3 * 2.1 + 0.7 * (1.0 + 0.9 * want2)
    ok = (math.isclose(second, want2, rel_tol=1e-12)
          and math.isclose(third, want3, rel_tol=1e-12))
    assert check("chained backups match hand-computed values", ok)


def test_greedy_and_uniform_exploration():
    table = QTable()
    q_update(table, Experience(S0, RlAction.SINGLE_HOP, 6.0, S1), FIXED)
    rng = random.Random(11)
    ok = all(select_action(table, S0, 0.0, rng) is RlAction.SINGLE_HOP
             for _ in range(100))
    assert check("exploration rate 0 always picks the argmax action", ok)

    counts = dict.fromkeys(ALL_ACTIONS, 0)
    rng = random.Random(12)
    draws = 10_000
    for _ in range(draws):
        counts[select_action(table, S0, 1.0, rng)] += 1
    ok = all(abs(counts[a] / draws - 0.25) <= 0.05 for a in ALL_ACTIONS)
    assert check("exploration rate 1 is uniform within 5% over 10k draws", ok)


def test_visit_counted_learning_rate_sequence():
    params = LearningParams(adaptive_learning_rate=True, discount_factor=0.0)
    table = QTable()
    rewards = (8.0, 2.0, 5.0, 1.0)
    ok = True
    for k, r in enumerate(rewards, start=1):
        q_update(table, Experience(S0, RlAction.CLUSTERING, r, S1), params)
        running = sum(rewards[:k]) / k
        ok = ok and math.isclose(table.q(S0, RlAction.CLUSTERING), running,
                                 rel_tol=1e-12)
    assert check("per-visit rates 1, 1/2, 1/3, ... average the rewards", ok)


def test_exploration_decay_closed_form():
    ok = True
    for start, lam in ((1.0, 0.05), (0.5, 0.01)):
        params = LearningParams(epsilon_start=start, epsilon_decay_rate=lam)
        for t in (0, 1, 100):
            want = start * math.exp(-lam * t)
            ok = ok and math.isclose(decay_epsilon(params, t), want,
                                     rel_tol=1e-12)
    ok = ok and math.isclose(
        decay_epsilon(LearningParams(epsilon_decay_rate=0.01), 100),
        math.exp(-1.0), rel_tol=1e-12)
    assert check("exploration decay matches its closed form at t=0,1,100", ok)


def test_utility_hand_value_and_rescaling_invariance():
    nodes, topo = make_nodes([(0.0, 0.0), (50.0, 0.0)], [1.0, 0.4])
    w = UtilityWeights(energy_weight=1.0, distance_weight=0.8,
                       load_weight=0.1)
    got = utility(0, nodes, topo, w, initial_energy=1.0)
    want = 1.0 * 1.0 - 0.8 * (50.0 / 50.0)
    ok = math.isclose(got, want, rel_tol=1e-12)
    loaded = utility(0, nodes, topo, w, initial_energy=1.0,
                     prospective_members=3)
    ok = ok and math.isclose(loaded, want - 0.1 * (3 / 10), rel_tol=1e-12)
    doubled = UtilityWeights(2.0, 1.6, 0.2)
    ok = ok and math.isclose(utility(0, nodes, topo, doubled,
                                     initial_energy=1.0,
                                     prospective_members=3),
                             2.0 * (want - 0.1 * 0.3), rel_tol=1e-12)
    assert check("utility is the stated linear combination of its terms", ok)

    stable = 0
    for seed in range(25):
        nds, tp = random_small_instance(seed, max_nodes=6)
        base = best_response_dynamics(nds, tp, w, initial_energy=1.0)
        picks = [select_head_by_utility(Cluster([n.id for n in nds]),
                                        nds, tp, w, initial_energy=1.0)]
        same = True
        for c in (0.25, 3.7):
            scaled = UtilityWeights(w.energy_weight * c,
                                    w.distance_weight * c,
                                    w.load_weight * c)
            res = best_response_dynamics(nds, tp, scaled, initial_energy=1.0)
            same = same and res.profile == base.profile
            pick = select_head_by_utility(Cluster([n.id for n in nds]),
                                          nds, tp, scaled, initial_energy=1.0)
            same = same and pick == picks[0]
        stable += same
    assert check("positive weight rescaling preserves equilibria and "
                 f"head argmaxes on {stable}/25 instances", stable == 25)


# ------------------------------------------------------- oracle equivalence

def random_small_instance(seed, max_nodes=6):
    rng = random.Random(1_000 + seed)
    n = rng.randint(2, max_nodes)
    side = 60.0
    positions = [(rng.uniform(0, side), rng.uniform(0, side))
                 for _ in range(n)]
    energies = [rng.uniform(0.05, 1.0) for _ in range(n)]
    comm = rng.choice((25.0, 40.0, 80.0))
    return make_nodes(positions, energies, comm_range=comm)


def best_deviation_gain(nodes, topo, weights, profile, i):
    """Best strict payoff improvement available to node i, else 0."""
    loads = {}
    for j, tgt in profile.items():
        if tgt is not None:
            loads[tgt] = loads.get(tgt, 0) + 1
    current = profile[i]
    if current is None and loads.get(i, 0) > 0:
        return 0.0          # a head with followers is committed this round

    def value(choice):
        if choice is None:
            return utility(i, nodes, topo, weights, initial_energy=1.0)
        load = loads.get(choice, 0) + (0 if current == choice else 1)
        return join_utility(i, choice, nodes, topo, weights,
                            initial_energy=1.0, head_load=load)

    held = value(current)
    gain = 0.0
    for c in topo.neighbors[i]:
        if c in profile and profile[c] is None and c != current:
            gain = max(gain, value(c) - held)
    if current is not None:
        gain = max(gain, value(None) - held)
    return gain


def test_best_response_outcome_is_deviation_proof():
    w = UtilityWeights(1.0, 0.8, 0.1)
    worst = 0.0
    for seed in range(120):
        nodes, topo = random_small_instance(seed)
        result = best_response_dynamics(nodes, topo, w, initial_energy=1.0)
        for i in result.profile:
            worst = max(worst,
                        best_deviation_gain(nodes, topo, w, result.profile, i))
    assert check("no node can profit by deviating from the settled "
                 f"assignment on 120 small instances (max gain {worst:.2e})",
                 worst <= 1e-9)


def test_settled_profiles_appear_in_enumerated_stable_set():
    w = UtilityWeights(1.0, 0.8, 0.1)
    hits = 0
    for seed in range(30):
        rng = random.Random(7_000 + seed)
        positions = [(rng.uniform(0, 50), rng.uniform(0, 50))
                     for _ in range(4)]
        energies = [rng.uniform(0.1, 1.0) for _ in range(4)]
        nodes, topo = make_nodes(positions, energies, comm_range=45.0)
        result = best_response_dynamics(nodes, topo, w, initial_energy=1.0)

        ids = [nd.id for nd in nodes]
        stable = []
        for combo in itertools.product(*([None] + [j for j in ids if j != i]
                                         for i in ids)):
            profile = dict(zip(ids, combo))
            consistent = all(
                tgt is None or (profile[tgt] is None
                                and tgt in topo.neighbors[i])
                for i, tgt in profile.items())
            if not consistent:
                continue
            if all(best_deviation_gain(nodes, topo, w, profile, i) <= 1e-9
                   for i in ids):
                stable.append(profile)
        hits += result.profile in stable
    assert check("every settled profile sits in the exhaustively enumerated "
                 f"stable set ({hits}/30 four-node instances)", hits == 30)


def test_equilibrium_tree_matches_energy_argmax_when_only_energy_counts():
    w = UtilityWeights(energy_weight=1.0, distance_weight=0.0,
                      load_weight=0.0)
    matched = 0
    for seed in range(20):
        cfg = NetworkConfig(node_count=16, round_count=5, initial_energy=1.0,
                            rng_seed=seed)
        world = make_world(cfg, EnergyModel())
        outcome = run_round_full_gt(world, w, 1)

        twin = make_world(cfg, EnergyModel())
        result = best_response_dynamics(twin.nodes, twin.topology, w,
                                        initial_energy=cfg.initial_energy)
        stage1 = [Cluster(members)
                  for k, (members, _h)
                  in enumerate(profile_to_clusters(result))]
        rebuilt = build_hierarchy(
            stage1, twin.topology,
            lambda c: select_head_by_energy(c, twin.nodes),
            stage_count=cfg.stage_count,
            stage_target_sizes=cfg.stage_target_sizes)
        got = [[(c.member_ids, c.head_id) for c in st]
               for st in outcome.hierarchy.stages]
        want = [[(c.member_ids, c.head_id) for c in st]
                for st in rebuilt.stages]
        matched += got == want
    assert check("with distance and load weights zeroed the equilibrium tree "
                 f"is the energy-argmax tree ({matched}/20 instances)",
                 matched == 20)


def test_reward_totals_and_single_violation_deltas():
    def hierarchy(stages):
        return ClusterHierarchy(
            stages=[[Cluster(m, h)
                     for k, (m, h) in enumerate(stage)] for stage in stages])

    e = {0: 5.0, 1: 1.0, 2: 4.0, 3: 3.0}
    perfect = hierarchy([[([0, 1], 0), ([2, 3], 2)], [([0, 2], 0)]])
    full = compute_round_reward(perfect, e, True)
    ok = full.total == 12
    assert check("an energy-argmax all-delivered round scores exactly 12", ok)

    overlapped = hierarchy([[([0, 1], 0), ([1, 2, 3], 2)], [([0, 2], 0)]])
    r = compute_round_reward(overlapped, e, True)
    ok = r.valid_clustering == 0 and r.total == 10
    assert check("an overlapping membership alone costs exactly 2", ok)

    e_ch = {0: 4.0, 1: 3.0, 2: 5.0, 3: 2.0}
    weak_head = hierarchy([[([0, 1], 1), ([2, 3], 2)], [([1, 2], 2)]])
    r = compute_round_reward(weak_head, e_ch, True)
    ok = r.ch_selection == 1 and r.total == 10
    assert check("a beatable cluster head alone costs exactly 2", ok)

    impure = hierarchy([[([0, 1], 0), ([2, 3], 2)], [([0, 3], 0)]])
    r = compute_round_reward(impure, e, True)
    ok = r.hierarchy_purity == 0 and r.total == 10
    assert check("a non-head smuggled upstairs alone costs exactly 2", ok)

    skipped_best = hierarchy([[([0, 1], 0)]])
    r = compute_round_reward(skipped_best, {0: 4.0, 1: 3.0, 4: 9.0}, True)
    ok = r.final_transmitter == 1 and r.total == 10
    assert check("a final transmitter below the network peak alone "
                 "costs exactly 2", ok)

    r = compute_round_reward(perfect, e, False)
    ok = r.data_forwarding == 0 and r.total == 10
    assert check("a failed forwarding round alone costs exactly 2", ok)


# ---------------------------------------------------- structural invariants

def test_partition_and_hierarchy_invariants_at_scale():
    rng = random.Random(99)
    cases = 0
    for _ in range(1000):
        n = rng.randint(1, 36)
        positions = [(rng.uniform(0, 100), rng.uniform(0, 100))
                     for _ in range(n)]
        energies = [rng.uniform(0.05, 1.0) for _ in range(n)]
        nodes, topo = make_nodes(positions, energies,
                                 comm_range=rng.uniform(20.0, 120.0))
        if n > 4 and rng.random() < 0.3:
            for victim in rng.sample(range(n), rng.randint(1, n // 3)):
                nodes[victim].energy = 0.0
        alive = [nd.id for nd in nodes if nd.alive]
        if not alive:
            continue

        clusters = form_clusters(alive, topo, rng.randint(2, 6))
        seen = []
        for c in clusters:
            seen.extend(c.member_ids)
        assert sorted(seen) == sorted(alive)         # disjoint and covering

        sizes = (rng.randint(2, 6), rng.randint(2, 4))
        hier = build_hierarchy(
            form_clusters(alive, topo, sizes[0]), topo,
            lambda c: select_head_by_energy(c, nodes),
            stage_count=rng.randint(2, 4), stage_target_sizes=sizes)
        assert (sorted(m for c in hier.stages[0] for m in c.member_ids)
                == sorted(alive))
        sizes = []
        for k, stage in enumerate(hier.stages):
            members = [m for c in stage for m in c.member_ids]
            assert len(members) == len(set(members))          # disjoint
            for c in stage:
                assert c.head_id in c.member_ids
            if k + 1 < len(hier.stages):
                heads = set(c.head_id for c in stage)
                nxt = set(m for c in hier.stages[k + 1]
                          for m in c.member_ids)
                assert heads == nxt                           # purity
            sizes.append(len(members))
        for a, b in zip(sizes, sizes[1:]):
            assert b < a or a == 1                            # contraction
        assert len(hier.stages[-1]) == 1                      # one apex
        assert hier.final_transmitter == hier.stages[-1][0].head_id
        cases += 1
    assert check(f"partition, purity, contraction, and single-apex "
                 f"invariants hold on {cases} randomized instances",
                 cases >= 950)


def test_round_dynamics_invariants():
    violations = 0
    rounds_checked = 0
    for seed in range(6):
        cfg = NetworkConfig(node_count=18, round_count=12,
                            initial_energy=0.004, rng_seed=seed)
        for kind in (StrategyKind.FULL_RL, StrategyKind.FULL_GT,
                     StrategyKind.BASELINE):
            run = simulate(kind, cfg, EnergyModel(), LearningParams(),
                           UtilityWeights())
            alive = [rm.alive_count for rm in run.series]
            if any(a < b for a, b in zip(alive, alive[1:])):
                violations += 1
            soc = [rm.mean_soc_pct for rm in run.series]
            if any(nxt > prev + 1e-9 for prev, nxt in zip(soc, soc[1:])):
                violations += 1
            rounds_checked += len(run.series)
    assert check("mean charge and alive count never rise across "
                 f"{rounds_checked} simulated rounds", violations == 0)


def test_dead_nodes_stay_out_of_the_round():
    from wsn_lab.strategies import LearnerPool, run_round_full_rl
    cfg = NetworkConfig(node_count=18, round_count=12, initial_energy=0.004,
                        rng_seed=3)
    world = make_world(cfg, EnergyModel())
    params = LearningParams()
    pool = LearnerPool([nd.id for nd in world.nodes], params)
    rng = random.Random(17)
    clean = True
    for t in range(1, 13):
        dead_before = {nd.id for nd in world.nodes if not nd.alive}
        if world.alive_count() == 0:
            break
        outcome = run_round_full_rl(world, pool, params, t, rng)
        touched = set(outcome.energy_spent) | set(outcome.delivered)
        clean = clean and not (touched & dead_before)
        clean = clean and all(world.nodes[i].energy == 0.0
                              for i in dead_before)
    assert check("exhausted nodes never transmit, receive, or pay "
                 "again", clean)


def test_fixed_seed_reproduces_round_csv_bytes(tmp_path):
    cfg = NetworkConfig(node_count=20, round_count=8, rng_seed=4)
    paths = []
    for name in ("one.csv", "two.csv"):
        run = simulate(StrategyKind.FULL_RL, cfg, EnergyModel(),
                       LearningParams(), UtilityWeights())
        path = tmp_path / name
        write_rounds_csv(path, run.series)
        paths.append(path)
    ok = paths[0].read_bytes() == paths[1].read_bytes()
    assert check("a fixed seed reproduces the round log byte for byte", ok)


# ------------------------------------------------- ensemble-level orderings

def test_active_sensor_ordering_late_in_the_run(ensemble):
    means = [mean_at(ensemble.runs[v], "alive_at_fractions", 9)
             for v in ("full-rl", "gt-rl", "rl-gt", "full-gt")]
    bad = adjacent_violations(means, strict=False)
    assert check("active sensors at the 90% mark rank full-rl >= gt-rl >= "
                 f"rl-gt >= full-gt ({', '.join(f'{m:.1f}' for m in means)}; "
                 f"{bad} inversion(s))", bad <= 1)


def test_charge_variance_envelope(ensemble):
    var = {v: mean_at(ensemble.runs[v], "variance_at_fractions", 9)
           for v in CLUSTERED}
    bad = sum(var["full-rl"] > var[v] for v in CLUSTERED if v != "full-rl")
    bad += sum(var["full-gt"] < var[v] for v in CLUSTERED if v != "full-gt")
    assert check("charge variance is lowest under full-rl and highest under "
                 f"full-gt ({', '.join(f'{var[v]:.5f}' for v in CLUSTERED)}; "
                 f"{bad} violation(s))", bad <= 1)


def test_cumulative_reward_ordering(ensemble):
    means = [mean_at(ensemble.runs[v], "reward_at_fractions", 9)
             for v in ("full-rl", "gt-rl", "rl-gt", "full-gt")]
    bad = adjacent_violations(means, strict=True)
    assert check("cumulative reward ranks full-rl > gt-rl > rl-gt > full-gt "
                 f"({', '.join(f'{m:.0f}' for m in means)}; "
                 f"{bad} inversion(s))", bad <= 1)


def test_clustering_beats_relay_on_longevity(ensemble):
    n = ensemble.node_count
    base_alive = sum(r.series[-1].alive_count
                     for r in ensemble.runs["baseline"]) / len(SEEDS)
    ok = base_alive <= 0.6 * n
    assert check(f"the relay baseline loses at least 40% of its nodes "
                 f"({n - base_alive:.1f} lost on average)", ok)
    gaps_ok = True
    for v in CLUSTERED:
        alive = sum(r.series[-1].alive_count
                    for r in ensemble.runs[v]) / len(SEEDS)
        gaps_ok = gaps_ok and alive > base_alive
    assert check("every clustered strategy keeps strictly more nodes alive "
                 "than the relay baseline", gaps_ok)


def test_full_rl_loses_nobody_through_sixty_percent(ensemble):
    n = ensemble.node_count
    ok = all(r.summary.alive_at_fractions[i] == n
             for r in ensemble.runs["full-rl"] for i in range(7))
    assert check("full-rl has zero eliminated nodes through 60% of every "
                 "seeded run", ok)


def test_trailing_success_gap(ensemble):
    window = max(1, ensemble.round_count // 10)

    def trailing(runs):
        vals = []
        for r in runs:
            tail = r.series[-window:]
            vals.append(sum(rm.success for rm in tail) / len(tail))
        return sum(vals) / len(vals)

    rl, gt = trailing(ensemble.runs["full-rl"]), \
        trailing(ensemble.runs["full-gt"])
    assert check(f"late-run success rate favors full-rl over full-gt "
                 f"({rl:.2f} vs {gt:.2f})", rl > gt)


def test_learning_settles_on_the_default_scenario(ensemble):
    default_run = ensemble.runs["full-rl"][0]      # seed 42 is the default
    conv = default_run.summary.convergence_round
    ok = conv is not None
    assert check("full-rl table deltas fall below 0.01 and stay there for "
                 f"20 rounds on the default scenario (round {conv})", ok)
    recomputed = find_convergence_round(default_run.series)
    assert recomputed == conv


def test_table_growth_stays_within_discretization_bound(ensemble):
    bound = state_space_bound()
    worst = 0
    for v in ("full-rl", "gt-rl", "rl-gt"):
        for r in ensemble.runs[v]:
            for node_id in (nd.id for nd in r.world.nodes):
                worst = max(worst, r.pool.table_for(node_id).entry_count())
    assert check(f"every learned table holds at most the discretization "
                 f"bound of {bound} entries (worst {worst})", worst <= bound)


def test_full_comparison_fits_the_time_budget(ensemble):
    worst = max(ensemble.seed_seconds)
    ok = worst <= 60.0 and ensemble.node_count == 100 \
        and ensemble.round_count <= 1000
    assert check(f"a full five-strategy comparison run finishes within 60s "
                 f"(worst seed {worst:.1f}s)", ok)
