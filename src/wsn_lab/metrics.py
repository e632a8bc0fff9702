"""Round metrics and run summaries; the dataclasses define the file formats."""

from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, dataclass, fields
from typing import Optional

import numpy as np


class EmptySeries(Exception):
    """Raised when a summary is requested for a run with no recorded rounds."""


SOC_FRACTIONS = (0.1, 0.3, 0.5, 0.7, 0.9)
TABLE_FRACTIONS = tuple(round(f * 0.1, 1) for f in range(10))


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


CSV_COLUMNS = tuple(f.name for f in fields(RoundMetrics))
# How each rounds-CSV cell is read back; every column not listed is a float.
_CSV_PARSERS = {"round": int, "alive_count": int,
                "success": lambda cell: cell == "1"}


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


def measure_delay(outcome) -> float:
    """Mean delay over delivered packets: each hop costs one time unit of
    travel and one of processing."""
    total = 0.0
    count = 0
    for i, ok in outcome.delivered.items():
        if ok:
            total += outcome.hop_counts[i] * 2.0
            count += 1
    return total / count if count else 0.0


def record_round(world, outcome, prev_cumulative: float) -> RoundMetrics:
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
        mean_delay=measure_delay(outcome),
        success=outcome.success,
        max_q_delta=outcome.max_q_delta,
    )


def _sample_index(fraction: float, planned_rounds: int, length: int) -> int:
    return min(math.floor(fraction * planned_rounds), length - 1)


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
              learned: bool) -> RunSummary:
    """Collapse a round series into the end-of-run summary; only a run whose
    agents learned reports a convergence round."""
    if not series:
        raise EmptySeries("cannot summarize an empty metric series")
    planned = config.round_count
    n = len(series)
    soc_at = {f: series[_sample_index(f, planned, n)].mean_soc_pct
              for f in SOC_FRACTIONS}
    last = series[-1]
    convergence = find_convergence_round(series) if learned else None
    table_rows = [series[_sample_index(f, planned, n)]
                  for f in TABLE_FRACTIONS]
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
        alive_at_fractions=tuple(rm.alive_count for rm in table_rows),
        variance_at_fractions=tuple(rm.soc_variance for rm in table_rows),
        reward_at_fractions=tuple(rm.cumulative_reward for rm in table_rows),
    )


def write_rounds_csv(path, series) -> None:
    """One row per round, one column per RoundMetrics field. csv writes a
    float as str, which is repr, so reruns are byte-identical."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for rm in series:
            writer.writerow([int(v) if isinstance(v, bool) else v
                             for v in vars(rm).values()])


def read_rounds_csv(path) -> list:
    with open(path, newline="") as fh:
        return [RoundMetrics(**{c: _CSV_PARSERS.get(c, float)(row[c])
                                for c in CSV_COLUMNS})
                for row in csv.DictReader(fh)]


def write_summary_json(path, summary: RunSummary) -> None:
    with open(path, "w") as fh:
        json.dump(asdict(summary), fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_summary_json(path) -> RunSummary:
    """Unknown keys are ignored and a missing one raises KeyError. JSON has
    no tuples and no float keys, so those fields are rebuilt."""
    with open(path) as fh:
        d = json.load(fh)
    kwargs = {f.name: d[f.name] for f in fields(RunSummary)}
    kwargs["soc_at_fractions"] = {
        float(k): v for k, v in kwargs["soc_at_fractions"].items()}
    for name in ("table_fractions", "alive_at_fractions",
                 "variance_at_fractions", "reward_at_fractions"):
        kwargs[name] = tuple(kwargs[name])
    return RunSummary(**kwargs)
