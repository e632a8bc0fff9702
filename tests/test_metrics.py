"""Metric folding, convergence detection, summaries, and serialization."""

import math
from types import SimpleNamespace

import pytest

from wsn_lab.metrics import (EmptySeries, RoundMetrics,
                             find_convergence_round, read_rounds_csv,
                             read_summary_json, record_round, summarize,
                             write_rounds_csv, write_summary_json)


def fake_world(energies, initial=1.0):
    nodes = [SimpleNamespace(energy=e, alive=e > 0) for e in energies]
    return SimpleNamespace(nodes=nodes,
                           config=SimpleNamespace(initial_energy=initial))


def fake_outcome(round_index=1, reward=None, success=False):
    return SimpleNamespace(round_index=round_index, reward=reward,
                           delivered={}, hop_counts={}, success=success,
                           max_q_delta=0.0)


def rm(round_index, *, delta=0.0, soc=50.0, var=0.0, alive=2, cum=0.0,
       step=0.0, delay=0.0, success=False):
    return RoundMetrics(round=round_index, mean_soc_pct=soc, soc_variance=var,
                        alive_count=alive, cumulative_reward=cum,
                        round_reward=step, mean_delay=delay, success=success,
                        max_q_delta=delta)


def test_record_round_mean_and_variance_by_hand():
    world = fake_world([1.0, 0.5])
    row = record_round(world, fake_outcome(round_index=3, success=True), 0.0)
    assert row.round == 3
    assert row.success
    assert math.isclose(row.mean_soc_pct, 75.0, rel_tol=1e-12)
    assert math.isclose(row.soc_variance, 0.0625, rel_tol=1e-12)
    assert row.alive_count == 2


def test_record_round_counts_dead_nodes_at_zero_charge():
    world = fake_world([1.0, 0.0])
    row = record_round(world, fake_outcome(), 0.0)
    assert math.isclose(row.mean_soc_pct, 50.0, rel_tol=1e-12)
    assert math.isclose(row.soc_variance, 0.25, rel_tol=1e-12)
    assert row.alive_count == 1
    assert not row.success


def test_record_round_accumulates_reward():
    world = fake_world([1.0])
    reward = SimpleNamespace(total=9)
    row = record_round(world, fake_outcome(reward=reward), 100.0)
    assert row.round_reward == 9.0
    assert row.cumulative_reward == 109.0
    rewardless = record_round(world, fake_outcome(), 100.0)
    assert rewardless.cumulative_reward == 100.0


def test_convergence_first_quiet_window():
    series = [rm(r, delta=(1.0 if r < 37 else 0.001)) for r in range(1, 61)]
    assert find_convergence_round(series) == 37


def test_convergence_resets_on_spike():
    deltas = [0.001] * 10 + [5.0] + [0.001] * 20
    series = [rm(r + 1, delta=d) for r, d in enumerate(deltas)]
    assert find_convergence_round(series) == 12


def test_convergence_absent_or_boundary():
    series = [rm(r, delta=0.001) for r in range(1, 20)]
    assert find_convergence_round(series) is None      # only 19 quiet rounds
    exact = [rm(r, delta=0.01) for r in range(1, 41)]
    assert find_convergence_round(exact) is None       # tolerance is strict
    assert find_convergence_round([]) is None
    short = [rm(r, delta=0.001) for r in range(1, 6)]
    assert find_convergence_round(short, window=5) == 1


def config_stub(planned=10, nodes=4, seed=7):
    return SimpleNamespace(round_count=planned, node_count=nodes,
                           rng_seed=seed)


def test_summarize_samples_fractions_exactly():
    series = [rm(r, soc=100.0 - r, alive=20 - r, cum=3.0 * r,
                 success=(r % 2 == 0)) for r in range(1, 11)]
    s = summarize(series, config_stub(nodes=20), "full-gt", learned=False)
    # fraction f of 10 planned rounds lands on floor(10 f), 0-based
    assert s.soc_at_fractions[0.1] == series[1].mean_soc_pct
    assert s.soc_at_fractions[0.9] == series[9].mean_soc_pct
    assert s.alive_at_fractions == tuple(
        series[int(10 * f)].alive_count for f in
        (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9))
    assert s.reward_at_fractions[-1] == series[9].cumulative_reward
    assert s.success_rate == 0.5
    assert s.eliminated_nodes == 20 - series[-1].alive_count
    assert s.longevity_pct == 100.0 * series[-1].alive_count / 20
    assert s.executed_rounds == 10
    assert s.convergence_round is None     # not a learning strategy


def test_summarize_truncated_series_holds_last_row():
    series = [rm(r, alive=9) for r in range(1, 4)]
    s = summarize(series, config_stub(planned=10, nodes=9), "baseline",
                  learned=False)
    assert s.alive_at_fractions == (9,) * 10
    assert s.executed_rounds == 3


def test_summarize_reports_convergence_for_learners():
    series = [rm(r, delta=(2.0 if r < 5 else 0.0)) for r in range(1, 30)]
    s = summarize(series, config_stub(planned=29), "gt-rl", learned=True)
    assert s.convergence_round == 5
    assert summarize(series, config_stub(planned=29), "full-gt",
                     learned=False).convergence_round is None


def test_summarize_rejects_empty_series():
    with pytest.raises(EmptySeries):
        summarize([], config_stub(), "baseline", learned=False)


def test_rounds_csv_round_trips_exactly(tmp_path):
    series = [rm(1, soc=0.1 + 0.2, var=1 / 3, cum=math.pi, delta=1e-17,
                 success=True),
              rm(2, soc=55.5, var=0.0, cum=3.0, delta=0.25)]
    path = tmp_path / "rounds.csv"
    write_rounds_csv(path, series)
    assert read_rounds_csv(path) == series
    twin = tmp_path / "again.csv"
    write_rounds_csv(twin, series)
    assert path.read_bytes() == twin.read_bytes()


def test_summary_json_round_trips(tmp_path):
    series = [rm(r, soc=80.0 - r, var=0.01 * r, alive=5, cum=2.5 * r,
                 success=True) for r in range(1, 9)]
    summary = summarize(series, config_stub(planned=8, nodes=5), "full-rl",
                        learned=True)
    path = tmp_path / "summary.json"
    write_summary_json(path, summary)
    assert read_summary_json(path) == summary
