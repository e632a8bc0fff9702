"""Per-round measurement and end-of-run aggregation."""

from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from .strategies import RL_BEARING


class EmptySeries(Exception):
    """Raised when a summary is requested for a run with no recorded rounds."""


SOC_FRACTIONS = (0.1, 0.3, 0.5, 0.7, 0.9)
TABLE_FRACTIONS = tuple(round(f * 0.1, 1) for f in range(10))

CSV_COLUMNS = ("round", "mean_soc_pct", "soc_variance", "alive_count",
               "cumulative_reward", "round_reward", "mean_delay", "success",
               "max_q_delta")


@dataclass
class RoundMetrics:
    round: int
    mean_soc_pct: float
    soc_variance: float
    alive_count: int
    cumulative_reward: float
    round_reward: float
    mean_delay: float
    success: bool
    max_q_delta: float


@dataclass
class RunSummary:
    strategy: str
    seed: int
    planned_rounds: int
    executed_rounds: int
    node_count: int
    soc_at_fractions: dict           # fraction -> mean SoC percent
    eliminated_nodes: int
    longevity_pct: float
    convergence_round: Optional[int]
    success_rate: float
    table_fractions: tuple
    alive_at_fractions: tuple
    variance_at_fractions: tuple
    reward_at_fractions: tuple

    def to_json_dict(self) -> dict:
        d = asdict(self)
        d["soc_at_fractions"] = {str(k): v
                                 for k, v in self.soc_at_fractions.items()}
        d["table_fractions"] = list(self.table_fractions)
        d["alive_at_fractions"] = list(self.alive_at_fractions)
        d["variance_at_fractions"] = list(self.variance_at_fractions)
        d["reward_at_fractions"] = list(self.reward_at_fractions)
        return d


def _success_for(strategy_value: str, outcome) -> bool:
    all_delivered = all(outcome.delivered.values())
    if strategy_value in RL_BEARING:
        return outcome.reward is not None and outcome.reward.total == 12
    if strategy_value == "full-gt":
        return (outcome.reward is not None
                and outcome.reward.ch_selection == 3
                and outcome.reward.data_forwarding == 2)
    return all_delivered


def record_round(world, outcome, strategy_value: str, prev_cumulative: float,
                 mean_delay: float) -> RoundMetrics:
    """Fold one round's outcome into the metric series.

    Dead nodes count at zero charge in both the mean and the variance, so a
    network that starves unevenly shows it immediately.
    """
    initial = world.config.initial_energy
    soc = np.array([nd.energy for nd in world.nodes]) / initial
    round_reward = float(outcome.reward.total) if outcome.reward else 0.0
    return RoundMetrics(
        round=outcome.round_index,
        mean_soc_pct=float(soc.mean()) * 100.0,
        soc_variance=float(soc.var()),
        alive_count=sum(1 for nd in world.nodes if nd.alive),
        cumulative_reward=prev_cumulative + round_reward,
        round_reward=round_reward,
        mean_delay=mean_delay,
        success=_success_for(strategy_value, outcome),
        max_q_delta=outcome.max_q_delta,
    )


def _sample_index(fraction: float, planned_rounds: int, length: int) -> int:
    idx = math.floor(fraction * planned_rounds)
    return min(idx, length - 1)


def find_convergence_round(series, tolerance: float = 0.01,
                           window: int = 20) -> Optional[int]:
    """First round whose max Q-delta stays under tolerance for `window`
    consecutive rounds (including itself)."""
    run = 0
    for i, rm in enumerate(series):
        if rm.max_q_delta < tolerance:
            run += 1
            if run >= window:
                return series[i - window + 1].round
        else:
            run = 0
    return None


def summarize(series, config, strategy_value: str, *,
              convergence_tolerance: float = 0.01,
              convergence_window: int = 20) -> RunSummary:
    """Collapse a round series into the end-of-run summary."""
    if not series:
        raise EmptySeries("cannot summarize an empty metric series")
    planned = config.round_count
    n = len(series)
    soc_at = {f: series[_sample_index(f, planned, n)].mean_soc_pct
              for f in SOC_FRACTIONS}
    last = series[-1]
    if strategy_value in RL_BEARING:
        convergence = find_convergence_round(
            series, convergence_tolerance, convergence_window)
    else:
        convergence = None
    alive_at = tuple(series[_sample_index(f, planned, n)].alive_count
                     for f in TABLE_FRACTIONS)
    var_at = tuple(series[_sample_index(f, planned, n)].soc_variance
                   for f in TABLE_FRACTIONS)
    reward_at = tuple(series[_sample_index(f, planned, n)].cumulative_reward
                      for f in TABLE_FRACTIONS)
    return RunSummary(
        strategy=strategy_value,
        seed=config.rng_seed,
        planned_rounds=planned,
        executed_rounds=n,
        node_count=config.node_count,
        soc_at_fractions=soc_at,
        eliminated_nodes=config.node_count - last.alive_count,
        longevity_pct=100.0 * last.alive_count / config.node_count,
        convergence_round=convergence,
        success_rate=sum(1 for rm in series if rm.success) / n,
        table_fractions=TABLE_FRACTIONS,
        alive_at_fractions=alive_at,
        variance_at_fractions=var_at,
        reward_at_fractions=reward_at,
    )


def write_rounds_csv(path, series) -> None:
    """One row per round; floats via repr so reruns are byte-identical."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for rm in series:
            writer.writerow([rm.round, repr(rm.mean_soc_pct),
                             repr(rm.soc_variance), rm.alive_count,
                             repr(rm.cumulative_reward), repr(rm.round_reward),
                             repr(rm.mean_delay), int(rm.success),
                             repr(rm.max_q_delta)])


def read_rounds_csv(path) -> list:
    out = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            out.append(RoundMetrics(
                round=int(row["round"]),
                mean_soc_pct=float(row["mean_soc_pct"]),
                soc_variance=float(row["soc_variance"]),
                alive_count=int(row["alive_count"]),
                cumulative_reward=float(row["cumulative_reward"]),
                round_reward=float(row["round_reward"]),
                mean_delay=float(row["mean_delay"]),
                success=row["success"] == "1",
                max_q_delta=float(row["max_q_delta"]),
            ))
    return out


def write_summary_json(path, summary: RunSummary) -> None:
    with open(path, "w") as fh:
        json.dump(summary.to_json_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_summary_json(path) -> RunSummary:
    with open(path) as fh:
        d = json.load(fh)
    return RunSummary(
        strategy=d["strategy"],
        seed=d["seed"],
        planned_rounds=d["planned_rounds"],
        executed_rounds=d["executed_rounds"],
        node_count=d["node_count"],
        soc_at_fractions={float(k): v
                          for k, v in d["soc_at_fractions"].items()},
        eliminated_nodes=d["eliminated_nodes"],
        longevity_pct=d["longevity_pct"],
        convergence_round=d["convergence_round"],
        success_rate=d["success_rate"],
        table_fractions=tuple(d["table_fractions"]),
        alive_at_fractions=tuple(d["alive_at_fractions"]),
        variance_at_fractions=tuple(d["variance_at_fractions"]),
        reward_at_fractions=tuple(d["reward_at_fractions"]),
    )
