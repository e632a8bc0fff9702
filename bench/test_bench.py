"""Tests of the benchmark itself: every check rejects a corrupted input, and
a reduced-size run of each workload passes every check.

    python3 -m pytest -q bench/test_bench.py
"""

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import run

MODS = run.load_program()

# Each workload's scenario shrunk to a few seconds of simulation, keeping
# what makes the workload what it is.
SMALL = {
    "paper-default": {"network": {"node_count": 30, "round_count": 55}},
    "large-field": {"network": {"node_count": 160,
                                "comm_range_fraction": 0.2,
                                "round_count": 2}},
    "depletion": {"network": {"node_count": 30, "initial_energy": 0.01,
                              "round_count": 400},
                  "learning": {"shared_table": False}},
}


def small_scenario(workload):
    data = run.scenario(workload, 7)
    for section, fields in SMALL[workload].items():
        data[section] = dict(data.get(section, {}), **fields)
    return data


@pytest.fixture(autouse=True)
def bench_out(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path / "out")


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_reduced_workload_passes_every_check(workload, capsys):
    data = small_scenario(workload)
    timed = run.measure(MODS, workload, data, 0.0, print)
    assert timed["correct"] and timed["failed"] == 0
    assert timed["attempted"] == 5 * len(data["seeds"])
    assert set(timed["metrics"]) == {n for n, _u in run.END_TO_END}
    assert all(m["value"] > 0 for m in timed["metrics"].values())

    traced = run.measure_traced(MODS, workload, data, 0, print)
    assert traced["correct"] and traced["failed"] == 0
    assert set(traced["metrics"]) == set(run.per_layer_units())
    assert "tracing overhead" in capsys.readouterr().out


@pytest.fixture(scope="module")
def captured(tmp_path_factory):
    """A small traced run of every strategy, kept for corruption."""
    data = small_scenario("paper-default")
    data["network"]["round_count"] = 8
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(run, "OUT", tmp_path_factory.mktemp("captured"))
        rep, _tracer = run.run_rep(MODS, data, traced=True)
    ops = {op.strategy: op for op in rep.ops}
    assert run.check_rep(MODS, rep, print) == (0, True)
    return rep, ops


def clustered_round(ops, strategy="full-gt", index=3):
    op = ops[strategy]
    cap = op.rounds[index]
    h = cap.outcome.hierarchy
    return (op, checks.Field.from_world(op.world), cap,
            checks.stages_of(h), h.final_transmitter)


def test_ledger_rejects_one_energy_off_by_a_nanojoule(captured):
    _rep, ops = captured
    for strategy in run.CLUSTERED:
        _op, field, cap, stages, final = clustered_round(ops, strategy)
        assert checks.check_ledger(field, cap.pre, cap.post, stages,
                                   final) == []
        post = list(cap.post)
        victim = checks.alive_ids(post)[len(post) // 2]
        post[victim] += 1e-9
        errors = checks.check_ledger(field, cap.pre, post, stages, final)
        assert len(errors) == 1 and f"node {victim}" in errors[0]


def swap_head(stages):
    stages = copy.deepcopy(stages)
    for k, (members, head) in enumerate(stages[0]):
        if len(members) > 1:
            stages[0][k] = (members, next(m for m in members if m != head))
            return stages
    raise AssertionError("no cluster with two members")


def test_hierarchy_and_ledger_reject_a_swapped_head(captured):
    _rep, ops = captured
    _op, field, cap, stages, final = clustered_round(ops)
    alive = checks.alive_ids(cap.pre)
    assert checks.check_hierarchy(alive, stages, final) == []
    bad = swap_head(stages)
    assert checks.check_hierarchy(alive, bad, final)
    assert checks.check_ledger(field, cap.pre, cap.post, bad, final)


def test_hierarchy_rejects_a_second_apex(captured):
    _rep, ops = captured
    _op, _field, cap, stages, final = clustered_round(ops)
    bad = copy.deepcopy(stages)
    members, head = bad[-1][0]
    bad[-1] = [(members[:1], members[0]), (members[1:], members[1])]
    assert checks.check_hierarchy(checks.alive_ids(cap.pre), bad, final)


def test_reward_rejects_off_by_one(captured):
    rep, ops = captured
    for strategy in run.CLUSTERED:
        op, _field, cap, stages, final = clustered_round(ops, strategy)
        rows = checks.read_rows(
            rep.out_dir / f"{strategy}_{op.seed}_rounds.csv")
        reward = float(rows[3]["round_reward"])
        assert checks.check_reward(cap.pre, stages, final, reward) == []
        assert checks.check_reward(cap.pre, stages, final, reward + 1.0)
        assert checks.check_reward(cap.pre, stages, final, reward - 1.0)


def test_series_rejects_a_non_monotone_alive_column(captured):
    rep, ops = captured
    op = ops["full-gt"]
    stem = rep.out_dir / f"full-gt_{op.seed}"
    rows = checks.read_rows(f"{stem}_rounds.csv")
    summary = json.loads(Path(f"{stem}_summary.json").read_text())
    n = op.config.node_count
    assert checks.check_series(rows, summary, n) == []
    bad = copy.deepcopy(rows)
    bad[4]["alive_count"] = str(int(bad[3]["alive_count"]) + 1)
    assert any("alive_count rises" in e
               for e in checks.check_series(bad, summary, n))
    bad = copy.deepcopy(rows)
    bad[2]["round_reward"] = str(float(bad[2]["round_reward"]) + 1.0)
    assert any("running sum" in e
               for e in checks.check_series(bad, summary, n))
    assert checks.check_series(rows, dict(summary, success_rate=0.5), n)


def test_row_energies_reject_a_wrong_alive_count(captured):
    rep, ops = captured
    op = ops["full-rl"]
    rows = checks.read_rows(rep.out_dir / f"full-rl_{op.seed}_rounds.csv")
    cap = op.rounds[2]
    e0 = op.config.initial_energy
    assert checks.check_row_energies(rows[2], cap.post, e0) == []
    bad = dict(rows[2], alive_count=str(int(rows[2]["alive_count"]) - 1))
    assert checks.check_row_energies(bad, cap.post, e0)


def test_baseline_delay_rejects_a_wrong_depth(captured):
    rep, ops = captured
    op = ops["baseline"]
    field = checks.Field.from_world(op.world)
    rows = checks.read_rows(rep.out_dir / f"baseline_{op.seed}_rounds.csv")
    pre = op.rounds[1].pre
    delay = float(rows[1]["mean_delay"])
    assert checks.check_baseline_delay(field, pre, delay) == []
    assert checks.check_baseline_delay(field, pre, delay + 2.0 / len(pre))


def test_partition_rejects_a_node_in_two_clusters(captured):
    _rep, ops = captured
    ids, target, clusters = ops["full-rl"].partitions[0]
    assert checks.check_partition(ids, target, clusters) == []
    bad = copy.deepcopy(clusters)
    bad[1].append(bad[0][0])
    assert checks.check_partition(ids, target, bad)
    assert checks.check_partition(ids, target, clusters[1:])


def test_best_response_rejects_a_follower_that_would_rather_move(captured):
    _rep, ops = captured
    op = ops["full-gt"]
    index, result = op.best_responses[2]
    field = checks.Field.from_world(op.world)
    pre = op.rounds[index].pre
    weights = op.args[4]
    assert checks.check_best_response(field, pre, result.profile, weights,
                                      10) == []
    follower = next(i for i, t in result.profile.items() if t is not None)
    bad = dict(result.profile)
    bad[follower] = None
    assert checks.check_best_response(field, pre, bad, weights, 10)


def test_q_tables_reject_a_value_past_the_bound(captured):
    _rep, ops = captured
    pool = ops["full-rl"].result.pool
    table = next(iter(pool.agents.values())).table
    assert checks.check_q_tables([table], 0.9, 10**6) == []
    bad = copy.deepcopy(table)
    state = next(iter(bad.states()))
    bad.row(state)[0][0] = 12.0 / (1.0 - 0.9) + 1e-6
    assert checks.check_q_tables([bad], 0.9, 10**6)
    assert checks.check_q_tables([table], 0.9, 0)


def test_figdata_rejects_a_wrong_mean(captured):
    rep, _ops = captured
    assert run.check_aggregates(rep) == []
    path = rep.out_dir / "figdata_active_sensors.csv"
    rows = checks.read_rows(path)
    bad = copy.deepcopy(rows)
    bad[3]["full-gt"] = str(float(bad[3]["full-gt"]) - 1.0)
    runs = {}
    for op in rep.ops:
        runs.setdefault(op.strategy, []).append(checks.read_rows(
            rep.out_dir / f"{op.strategy}_{op.seed}_rounds.csv"))
    success = checks.read_rows(rep.out_dir / "figdata_success_rate.csv")
    assert checks.check_figdata([rows, success], runs) == []
    assert checks.check_figdata([bad, success], runs)


def test_benchmark_json_matches_what_run_reports():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        run.per_layer_units()


def test_fails_without_the_simulator_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(Path(run.__file__).parent, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "paper-default",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
