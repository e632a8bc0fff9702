"""Scenario parsing and the command-line entry points."""

import json
import subprocess
import sys

import pytest

from wsn_lab import cli
from wsn_lab.cli import (ConfigError, IoError, ScenarioSpec, compare_table,
                         load_scenario, main, parse_scenario, run_scenario)
from wsn_lab.metrics import TABLE_FRACTIONS, RunSummary, read_rounds_csv
from wsn_lab.strategies import StrategyKind

TINY = {
    "network": {"node_count": 12, "round_count": 4, "initial_energy": 1.0,
                "rng_seed": 0},
    "strategies": ["full-gt", "baseline"],
    "seeds": [1, 2],
}


def write_config(tmp_path, data, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return path


def test_empty_config_means_defaults():
    spec = parse_scenario({})
    assert spec.network.node_count == 100
    assert [s.value for s in spec.strategies] == [
        "full-rl", "full-gt", "gt-rl", "rl-gt", "baseline"]
    assert spec.seeds == [42]
    assert spec.output_dir == "out"


def test_nested_lists_become_tuples():
    spec = parse_scenario({"network": {"stage_target_sizes": [6, 3],
                                       "sink_position": [10.0, 20.0]}})
    assert spec.network.stage_target_sizes == (6, 3)
    assert spec.network.sink == (10.0, 20.0)


@pytest.mark.parametrize("data,needle", [
    ({"bogus": 1}, "bogus"),
    ({"network": {"bogus": 1}}, "network.bogus"),
    ({"network": {"node_count": -3}}, "network:"),
    ({"network": 7}, "network: expected an object"),
    ({"strategies": ["leach"]}, "strategies[0]"),
    ({"strategies": []}, "strategies:"),
    ({"seeds": [1, "two"]}, "seeds:"),
    ({"seeds": [True]}, "seeds:"),
    ({"seeds": []}, "seeds:"),
    ({"output_dir": 9}, "output_dir:"),
    ({"learning": {"discount_factor": 1.5}}, "learning:"),
])
def test_config_errors_carry_field_paths(data, needle):
    with pytest.raises(ConfigError) as exc:
        parse_scenario(data)
    assert needle in str(exc.value)


def test_load_scenario_bad_json_and_missing_file(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError):
        load_scenario(path)
    with pytest.raises(IoError):
        load_scenario(tmp_path / "absent.json")


def test_validate_command(tmp_path, capsys):
    path = write_config(tmp_path, TINY)
    assert main(["validate", "--config", str(path), "--quiet"]) == 0
    out = capsys.readouterr().out
    assert "2 strategies x 2 seeds = 4 runs" in out
    assert "12 nodes" in out


def test_validate_rejects_bad_config(tmp_path, capsys):
    path = write_config(tmp_path, {"network": {"bogus": 1}})
    assert main(["validate", "--config", str(path), "--quiet"]) == 2
    assert "config error: network.bogus" in capsys.readouterr().err


def test_validate_rejects_a_config_every_clustered_run_fails_on(tmp_path,
                                                               capsys):
    path = write_config(tmp_path, dict(
        TINY, network=dict(TINY["network"], stage_target_sizes=[])))
    assert main(["validate", "--config", str(path), "--quiet"]) == 2
    assert "stage_target_sizes" in capsys.readouterr().err


@pytest.mark.parametrize("network, needle", [
    ('{"stage_count": 1}', "stage_count must be an integer >= 2"),
    ('{"initial_energy": NaN}', "initial_energy must be a finite number"),
    ('{"area_side": 1e999}', "area_side must be a finite number"),
    ('{"comm_range_fraction": true}', "comm_range_fraction must be a finite"),
], ids=["one-stage", "nan", "overflow", "bool"])
def test_validate_rejects_degenerate_network_values(tmp_path, capsys,
                                                    network, needle):
    path = tmp_path / "scenario.json"
    path.write_text(f'{{"network": {network}}}')
    assert main(["validate", "--config", str(path), "--quiet"]) == 2
    assert needle in capsys.readouterr().err


def test_run_writes_all_artifacts(tmp_path, capsys):
    out = tmp_path / "out"
    path = write_config(tmp_path, dict(TINY, output_dir=str(out)))
    assert main(["run", "--config", str(path)]) == 0
    for strat in ("full-gt", "baseline"):
        for seed in (1, 2):
            assert (out / f"{strat}_{seed}_rounds.csv").exists()
            assert (out / f"{strat}_{seed}_summary.json").exists()
    assert (out / "comparison.csv").exists()
    for fig in ("avg_energy", "energy_variance", "active_sensors",
                "cumulative_reward", "convergence", "success_rate"):
        fig_path = out / f"figdata_{fig}.csv"
        assert fig_path.exists()
        rows = fig_path.read_text().strip().splitlines()
        assert rows[0] == "round,full-gt,baseline"
        assert len(rows) == 1 + 4       # header plus one row per round
    table = capsys.readouterr().out
    assert "time%" in table and "full-gt" in table


def test_run_is_deterministic_across_invocations(tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        path = write_config(tmp_path, dict(TINY, output_dir=str(out)),
                            name=f"{name}.json")
        assert main(["run", "--config", str(path), "--quiet"]) == 0
        outs.append(out)
    for rel in ("full-gt_1_rounds.csv", "baseline_2_rounds.csv",
                "full-gt_2_summary.json", "comparison.csv",
                "figdata_cumulative_reward.csv"):
        assert (outs[0] / rel).read_bytes() == (outs[1] / rel).read_bytes(), rel


def test_run_flag_overrides(tmp_path):
    out = tmp_path / "narrow"
    path = write_config(tmp_path, TINY)
    assert main(["run", "--config", str(path), "--strategy", "baseline",
                 "--seed", "7", "--out", str(out), "--quiet"]) == 0
    produced = sorted(p.name for p in out.glob("*_rounds.csv"))
    assert produced == ["baseline_7_rounds.csv"]


def test_compare_command_rebuilds_aggregates(tmp_path, capsys):
    out = tmp_path / "out"
    path = write_config(tmp_path, dict(TINY, output_dir=str(out)))
    assert main(["run", "--config", str(path), "--quiet"]) == 0
    (out / "comparison.csv").unlink()
    capsys.readouterr()
    assert main(["compare", "--in", str(out), "--quiet"]) == 0
    assert (out / "comparison.csv").exists()
    assert "time%" in capsys.readouterr().out


def test_compare_empty_dir_fails_cleanly(tmp_path, capsys):
    assert main(["compare", "--in", str(tmp_path), "--quiet"]) == 2
    assert "io error" in capsys.readouterr().err


def test_run_builds_figdata_from_memory_and_compare_matches(tmp_path,
                                                           monkeypatch):
    out = tmp_path / "out"
    path = write_config(tmp_path, dict(TINY, output_dir=str(out)))

    def no_reread(path):
        raise AssertionError(f"run re-read {path}")

    with monkeypatch.context() as m:
        m.setattr(cli.metrics, "read_rounds_csv", no_reread)
        assert main(["run", "--config", str(path), "--quiet"]) == 0
    figs = sorted(out.glob("figdata_*.csv"))
    assert len(figs) == 6
    written = {p.name: p.read_bytes() for p in figs}
    for p in figs:
        p.unlink()
    assert main(["compare", "--in", str(out), "--quiet"]) == 0
    assert {p.name: p.read_bytes() for p in out.glob("figdata_*.csv")} \
        == written


def _truncate(path):
    path.write_text(path.read_text()[:40])


def _edit_summary(edit):
    def spoil(path):
        data = json.loads(path.read_text())
        edit(data)
        path.write_text(json.dumps(data))
    return spoil


def _drop_last_row(path):
    path.write_text("".join(path.read_text().splitlines(keepends=True)[:-1]))


def _no_rounds(path):
    path.write_text(path.read_text().splitlines(keepends=True)[0])
    _edit_summary(lambda d: d.update(executed_rounds=0))(
        path.with_name("baseline_2_summary.json"))


def _bad_cell(path):
    header, first, *rest = path.read_text().splitlines(keepends=True)
    cells = first.split(",")
    cells[1] = "abc"
    path.write_text("".join([header, ",".join(cells)] + rest))


@pytest.mark.parametrize("name,spoil", [
    ("baseline_2_rounds.csv", lambda path: path.unlink()),
    ("baseline_2_summary.json", _truncate),
    ("baseline_2_summary.json", _edit_summary(lambda d: d.pop("seed"))),
    ("baseline_2_summary.json",
     _edit_summary(lambda d: d.update(soc_at_fractions=[]))),
    ("baseline_2_rounds.csv", _bad_cell),
    ("baseline_2_rounds.csv", _drop_last_row),
    ("baseline_2_rounds.csv", _no_rounds),
], ids=["missing-csv", "truncated-json", "no-seed", "list-for-map",
        "bad-cell", "short-csv", "no-rounds"])
def test_compare_unreadable_output_fails_cleanly(tmp_path, capsys, name,
                                                 spoil):
    out = tmp_path / "out"
    path = write_config(tmp_path, dict(TINY, output_dir=str(out)))
    assert main(["run", "--config", str(path), "--quiet"]) == 0
    spoil(out / name)
    capsys.readouterr()
    assert main(["compare", "--in", str(out), "--quiet"]) == 2
    assert name in capsys.readouterr().err


def test_parallel_jobs_write_identical_outputs(tmp_path):
    dirs = [tmp_path / f"jobs{jobs}" for jobs in (1, 2)]
    for jobs, out in zip((1, 2), dirs):
        _summaries, failures = run_scenario(
            parse_scenario(dict(TINY, output_dir=str(out))), jobs=jobs)
        assert failures == []
    serial, parallel = ({p.name: p.read_bytes() for p in out.iterdir()}
                        for out in dirs)
    assert len(serial) == 4 * 2 + 7     # runs x files, comparison, figdata
    assert parallel == serial


def test_clean_rerun_removes_stale_errors(tmp_path, monkeypatch):
    spec = parse_scenario(dict(TINY, output_dir=str(tmp_path)))
    real = cli.simulate

    def flaky(strategy, *args):
        if strategy is StrategyKind.BASELINE:
            raise RuntimeError("injected failure")
        return real(strategy, *args)

    with monkeypatch.context() as m:
        m.setattr(cli, "simulate", flaky)
        _summaries, failures = run_scenario(spec)
    assert len(failures) == 2
    manifest = json.loads((tmp_path / "errors.json").read_text())
    assert {e["strategy"] for e in manifest} == {"baseline"}
    _summaries, failures = run_scenario(spec)
    assert failures == []
    assert not (tmp_path / "errors.json").exists()


def test_figdata_means_match_run_csvs(tmp_path):
    out = tmp_path / "out"
    path = write_config(tmp_path, dict(TINY, output_dir=str(out)))
    main(["run", "--config", str(path), "--quiet"])
    per_seed = [read_rounds_csv(out / f"full-gt_{s}_rounds.csv")
                for s in (1, 2)]
    rows = (out / "figdata_cumulative_reward.csv").read_text() \
        .strip().splitlines()
    last = rows[-1].split(",")
    want = (per_seed[0][-1].cumulative_reward
            + per_seed[1][-1].cumulative_reward) / 2
    assert float(last[1]) == want


def mk_summary(strategy, seed, alive):
    return RunSummary(strategy=strategy, seed=seed, planned_rounds=4,
                      executed_rounds=4, node_count=30,
                      soc_at_fractions={0.5: 80.0}, eliminated_nodes=0,
                      longevity_pct=100.0, convergence_round=None,
                      success_rate=1.0, table_fractions=TABLE_FRACTIONS,
                      alive_at_fractions=(alive,) * 10,
                      variance_at_fractions=(0.5,) * 10,
                      reward_at_fractions=(100.0,) * 10)


def test_compare_table_averages_over_seeds():
    table = compare_table([mk_summary("baseline", 1, 10),
                           mk_summary("baseline", 2, 20)])
    assert "15.0" in table
    assert "baseline" in table.splitlines()[0]
    with pytest.raises(Exception):
        compare_table([])


def test_console_script_round_trip(tmp_path):
    path = write_config(tmp_path, TINY)
    proc = subprocess.run(
        [sys.executable, "-m", "wsn_lab.cli", "validate", "--config",
         str(path), "--quiet"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "ok:" in proc.stdout


def test_scenario_spec_immutable_defaults():
    a, b = ScenarioSpec(), ScenarioSpec()
    a.strategies.append(StrategyKind.BASELINE)
    assert len(b.strategies) == 5
