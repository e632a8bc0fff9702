"""Scenario configuration, batch execution, and the command-line interface.

A scenario is one JSON file; every field has a default, so `{"seeds": [42]}`
is a complete configuration. Each (strategy, seed) pair becomes one run whose
round series and summary land in the output directory, followed by the
aggregate comparison table and per-figure plot data.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import contextlib
import csv
import dataclasses
import functools
import json
import logging
import os
import sys
from dataclasses import dataclass, field, replace
from itertools import accumulate
from pathlib import Path

from . import metrics
from .game import UtilityWeights
from .learning import LearningParams
from .network import EnergyModel, NetworkConfig, is_count
from .strategies import StrategyKind, simulate

log = logging.getLogger("wsn_lab")


class ConfigError(Exception):
    """Configuration problem, message prefixed with the offending field path."""


class IoError(Exception):
    """File could not be read or written."""


@dataclass
class ScenarioSpec:
    network: NetworkConfig = field(default_factory=NetworkConfig)
    energy: EnergyModel = field(default_factory=EnergyModel)
    learning: LearningParams = field(default_factory=LearningParams)
    weights: UtilityWeights = field(default_factory=UtilityWeights)
    strategies: list = field(default_factory=lambda: list(StrategyKind))
    seeds: list = field(default_factory=lambda: [42])
    output_dir: str = "out"


_TUPLE_FIELDS = {"stage_target_sizes", "sink_position"}


def _build_section(cls, data, path: str):
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: expected an object")
    known = {f.name for f in dataclasses.fields(cls)}
    kwargs = {}
    for key, value in data.items():
        if key not in known:
            raise ConfigError(f"{path}.{key}: unknown field")
        if key in _TUPLE_FIELDS and isinstance(value, list):
            value = tuple(value)
        kwargs[key] = value
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


# Scenario sections, each parsed into its config dataclass.
_SECTIONS = {"network": NetworkConfig, "energy": EnergyModel,
             "learning": LearningParams, "weights": UtilityWeights}


def parse_scenario(data: dict) -> ScenarioSpec:
    if not isinstance(data, dict):
        raise ConfigError("config: top level must be an object")
    known = {f.name for f in dataclasses.fields(ScenarioSpec)}
    for key in data:
        if key not in known:
            raise ConfigError(f"{key}: unknown field")

    spec = ScenarioSpec()
    for name, cls in _SECTIONS.items():
        if name in data:
            setattr(spec, name, _build_section(cls, data[name], name))
    if "strategies" in data:
        raw = data["strategies"]
        if not isinstance(raw, list) or not raw:
            raise ConfigError("strategies: expected a non-empty list")
        parsed = []
        for i, name in enumerate(raw):
            try:
                parsed.append(StrategyKind(name))
            except ValueError:
                valid = ", ".join(s.value for s in StrategyKind)
                raise ConfigError(
                    f"strategies[{i}]: unknown strategy {name!r} "
                    f"(valid: {valid})") from None
        spec.strategies = parsed
    if "seeds" in data:
        raw = data["seeds"]
        if (not isinstance(raw, list) or not raw
                or not all(is_count(s) for s in raw)):
            raise ConfigError("seeds: expected a non-empty list of integers")
        spec.seeds = list(raw)
    if "output_dir" in data:
        if not isinstance(data["output_dir"], str):
            raise ConfigError("output_dir: expected a string")
        spec.output_dir = data["output_dir"]
    return spec


def load_scenario(path) -> ScenarioSpec:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise IoError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config: invalid JSON ({exc})") from exc
    return parse_scenario(data)


def _run_paths(out_dir: Path, strategy: str, seed: int):
    stem = f"{strategy}_{seed}"
    return out_dir / f"{stem}_rounds.csv", out_dir / f"{stem}_summary.json"


def _execute_run(args):
    """Worker for one (strategy, seed) run; must stay picklable. Returns the
    summary and the round series it wrote."""
    strategy, network, energy, learning, weights, out_dir = args
    result = simulate(strategy, network, energy, learning, weights)
    rounds_path, summary_path = _run_paths(Path(out_dir), strategy.value,
                                           network.rng_seed)
    try:
        metrics.write_rounds_csv(rounds_path, result.series)
        metrics.write_summary_json(summary_path, result.summary)
    except OSError as exc:
        raise IoError(f"cannot write run output in {out_dir}: {exc}") from exc
    return result.summary, result.series


def run_scenario(spec: ScenarioSpec, jobs: int = 1):
    """Execute every (strategy, seed) pair; returns (summaries, failures).

    Results merge in (strategy, seed) request order regardless of job count,
    so parallel runs produce identical artifacts.
    """
    out_dir = Path(spec.output_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise IoError(f"cannot create output dir {out_dir}: {exc}") from exc

    jobs_list = []
    for strategy in spec.strategies:
        for seed in spec.seeds:
            cfg = replace(spec.network, rng_seed=seed)
            jobs_list.append((strategy, cfg, spec.energy, spec.learning,
                              spec.weights, str(out_dir)))

    runs = []
    failures = []
    with contextlib.ExitStack() as stack:
        if jobs > 1:
            pool = stack.enter_context(
                concurrent.futures.ProcessPoolExecutor(max_workers=jobs))
            calls = [pool.submit(_execute_run, jb).result for jb in jobs_list]
        else:
            calls = [functools.partial(_execute_run, jb) for jb in jobs_list]
        for jb, call in zip(jobs_list, calls):
            strategy, cfg = jb[0], jb[1]
            try:
                runs.append(call())
            except Exception as exc:
                failures.append((strategy.value, cfg.rng_seed, str(exc)))
                log.error("run %s seed %d failed: %s", strategy.value,
                          cfg.rng_seed, exc)

    errors_path = out_dir / "errors.json"
    if failures:
        manifest = [{"strategy": s, "seed": sd, "error": err}
                    for s, sd, err in failures]
        with open(errors_path, "w") as fh:
            json.dump(manifest, fh, indent=2)
    else:
        # A clean rerun must not leave an earlier run's failures on display.
        errors_path.unlink(missing_ok=True)
    summaries = [summary for summary, _series in runs]
    if summaries:
        write_aggregates(out_dir, summaries,
                         {(s.strategy, s.seed): series for s, series in runs})
    return summaries, failures


def _group_by_strategy(summaries):
    groups = {}
    for s in summaries:
        groups.setdefault(s.strategy, []).append(s)
    ordered = [k.value for k in StrategyKind if k.value in groups]
    ordered += [value for value in groups if value not in ordered]
    return ordered, groups


def _comparison_rows(summaries):
    """Strategy values in table order, and per table fraction a row of the
    time percent, then each strategy's seed means of alive count, SoC
    variance and cumulative reward."""
    if not summaries:
        raise metrics.EmptySeries("no summaries to compare")
    ordered, groups = _group_by_strategy(summaries)
    rows = []
    for fi, frac in enumerate(summaries[0].table_fractions):
        row = [int(frac * 100)]
        for runs in (groups[value] for value in ordered):
            n = len(runs)
            row += [sum(r.alive_at_fractions[fi] for r in runs) / n,
                    sum(r.variance_at_fractions[fi] for r in runs) / n,
                    sum(r.reward_at_fractions[fi] for r in runs) / n]
        rows.append(row)
    return ordered, rows


def compare_table(summaries) -> str:
    """Fixed-width table of alive count, SoC variance, and cumulative reward
    per strategy at each sampled time fraction, averaged over seeds."""
    ordered, rows = _comparison_rows(summaries)
    header = "time% |"
    rule = "------+"
    for value in ordered:
        header += f" {value:>26} |"
        rule += "-" * 28 + "+"
    sub = "      |" + "".join(f"{'alive':>10}{'var':>8}{'reward':>9} |"
                              for _ in ordered)
    lines = [header, sub, rule]
    for row in rows:
        line = f"{row[0]:>5} |"
        for k in range(1, len(row), 3):
            alive, var, rew = row[k:k + 3]
            line += f"{alive:>10.1f}{var:>8.4f}{rew:>9.1f} |"
        lines.append(line)
    return "\n".join(lines)


def write_comparison_csv(path, summaries) -> None:
    ordered, rows = _comparison_rows(summaries)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        header = ["time_pct"]
        for value in ordered:
            header += [f"{value}_alive", f"{value}_variance", f"{value}_reward"]
        writer.writerow(header)
        writer.writerows(rows)


# Figure name -> the RoundMetrics field it plots.
_FIGURES = {
    "avg_energy": "mean_soc_pct",
    "energy_variance": "soc_variance",
    "active_sensors": "alive_count",
    "cumulative_reward": "cumulative_reward",
    "convergence": "max_q_delta",
    "success_rate": "success",
}


def _run_values(series, name: str, horizon: int) -> list:
    """One run's value of a RoundMetrics field at rounds 1..horizon.

    A run that ended early (network death) holds its last value, except
    success, which is a running rate that counts a dead network's rounds as
    failures.
    """
    last = len(series) - 1
    if name == "success":
        wins = list(accumulate(int(rm.success) for rm in series))
        return [wins[min(t, last)] / (t + 1) for t in range(horizon)]
    return [getattr(series[min(t, last)], name) for t in range(horizon)]


def write_figdata(out_dir: Path, summaries, series_map: dict) -> None:
    """Per-figure plot series: round index vs per-strategy seed means.

    `series_map` maps (strategy value, seed) to that run's round series.
    """
    ordered, groups = _group_by_strategy(summaries)
    horizon = max(len(series_map[(s.strategy, s.seed)]) for s in summaries)
    for fig, name in _FIGURES.items():
        runs = [[_run_values(series_map[(value, s.seed)], name, horizon)
                 for s in groups[value]] for value in ordered]
        with open(out_dir / f"figdata_{fig}.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["round"] + ordered)
            for t in range(horizon):
                writer.writerow([t + 1] + [sum(v[t] for v in values)
                                           / len(values) for values in runs])


def write_aggregates(out_dir: Path, summaries, series_map: dict) -> None:
    try:
        write_comparison_csv(out_dir / "comparison.csv", summaries)
        write_figdata(out_dir, summaries, series_map)
    except OSError as exc:
        raise IoError(f"cannot write aggregates in {out_dir}: {exc}") from exc


def _read_output(reader, path):
    """Read one run file, turning any way it can be unreadable into IoError."""
    try:
        return reader(path)
    except (OSError, ValueError, LookupError, TypeError, AttributeError,
            csv.Error) as exc:
        raise IoError(
            f"cannot read {path}: {type(exc).__name__}: {exc}") from exc


def load_output_dir(out_dir: Path):
    """Re-read the summaries a previous run left behind, and the round series
    of each as a map from (strategy value, seed)."""
    paths = sorted(out_dir.glob("*_summary.json"))
    if not paths:
        raise IoError(f"no *_summary.json files in {out_dir}")
    summaries = [_read_output(metrics.read_summary_json, p) for p in paths]
    series_map = {}
    for s in summaries:
        path, _summary = _run_paths(out_dir, s.strategy, s.seed)
        series = _read_output(metrics.read_rounds_csv, path)
        if not series or len(series) != s.executed_rounds:
            raise IoError(f"cannot read {path}: expected {s.executed_rounds} "
                          f"rounds (at least 1), found {len(series)}")
        series_map[(s.strategy, s.seed)] = series
    return summaries, series_map


def _setup_logging(quiet: bool) -> None:
    level_name = os.environ.get("WSN_LAB_LOG", "INFO" if not quiet else "ERROR")
    level = getattr(logging, level_name.upper(), logging.INFO)
    logging.basicConfig(level=level,
                        format="%(asctime)s %(name)s %(levelname)s %(message)s")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="wsn-lab",
        description="Discrete-round sensor-network strategy comparison")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a scenario")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--strategy", action="append",
                       choices=[s.value for s in StrategyKind])
    p_run.add_argument("--seed", action="append", type=int)
    p_run.add_argument("--out")
    p_run.add_argument("--jobs", type=int, default=1)
    p_run.add_argument("--quiet", action="store_true")

    p_cmp = sub.add_parser("compare", help="aggregate an output directory")
    p_cmp.add_argument("--in", dest="in_dir", required=True)
    p_cmp.add_argument("--quiet", action="store_true")

    p_val = sub.add_parser("validate", help="check a scenario file")
    p_val.add_argument("--config", required=True)
    p_val.add_argument("--quiet", action="store_true")

    args = parser.parse_args(argv)
    _setup_logging(getattr(args, "quiet", False))

    try:
        if args.command == "validate":
            spec = load_scenario(args.config)
            runs = len(spec.strategies) * len(spec.seeds)
            print(f"ok: {len(spec.strategies)} strategies x "
                  f"{len(spec.seeds)} seeds = {runs} runs, "
                  f"{spec.network.node_count} nodes, "
                  f"{spec.network.round_count} rounds, "
                  f"output -> {spec.output_dir}")
            return 0

        if args.command == "compare":
            out_dir = Path(args.in_dir)
            summaries, series_map = load_output_dir(out_dir)
            write_aggregates(out_dir, summaries, series_map)
            print(compare_table(summaries))
            return 0

        spec = load_scenario(args.config)
        if args.strategy:
            spec.strategies = [StrategyKind(s) for s in args.strategy]
        if args.seed:
            spec.seeds = args.seed
        if args.out:
            spec.output_dir = args.out
        summaries, failures = run_scenario(spec, jobs=args.jobs or 1)
        if summaries and not args.quiet:
            print(compare_table(summaries))
        if failures:
            log.error("%d run(s) failed; see errors.json", len(failures))
            return 1
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except IoError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
