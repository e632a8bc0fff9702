"""Physical network state: node placement, connectivity and radio energy costs."""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

# Shared normalization cap for neighbor-derived quantities (state discretization
# and load terms both clamp against it).
DEFAULT_NEIGHBOR_CAP = 10


def is_count(value) -> bool:
    """Whether a count field holds an int; a bool is not a count."""
    return isinstance(value, int) and not isinstance(value, bool)


def is_real(value) -> bool:
    """Whether a value is a number a float holds finitely; a bool is not."""
    return ((is_count(value) or isinstance(value, float))
            and abs(value) <= sys.float_info.max)


def check_reals(config) -> None:
    """Reject a non-finite or boolean value in any float field of config."""
    for f in fields(config):
        if f.type in ("float", float) and not is_real(getattr(config, f.name)):
            raise ValueError(f"{f.name} must be a finite number")


@dataclass(frozen=True)
class NetworkConfig:
    area_side: float = 100.0
    node_count: int = 100
    packet_size_bits: int = 4000
    comm_range_fraction: float = 0.5   # fraction of area_side
    initial_energy: float = 0.5
    rng_seed: int = 42
    round_count: int = 600
    stage_count: int = 3               # >= 2: stage 1, then one final cluster
    # Target cluster sizes for stages before the final single-cluster stage.
    stage_target_sizes: tuple = (5, 4)
    # Sink position; None means the area center.
    sink_position: Optional[tuple] = None

    def __post_init__(self):
        for name, low in (("node_count", 1), ("packet_size_bits", 1),
                          ("round_count", 1), ("stage_count", 2)):
            value = getattr(self, name)
            if not is_count(value) or value < low:
                raise ValueError(f"{name} must be an integer >= {low}")
        check_reals(self)
        if self.area_side <= 0:
            raise ValueError("area_side must be positive")
        if not (0.0 < self.comm_range_fraction <= 1.5):
            raise ValueError("comm_range_fraction must be in (0, 1.5]")
        if self.initial_energy <= 0:
            raise ValueError("initial_energy must be positive")
        sizes = self.stage_target_sizes
        if not sizes or not all(is_count(t) and t >= 2 for t in sizes):
            raise ValueError("stage_target_sizes must be a non-empty list of "
                             "integers >= 2")
        sink = self.sink_position
        if sink is not None and (len(sink) != 2 or not all(
                is_real(v) for v in sink)):
            raise ValueError("sink_position must be null or two finite values")

    @property
    def comm_range(self) -> float:
        return self.comm_range_fraction * self.area_side

    @property
    def sink(self) -> tuple:
        if self.sink_position is not None:
            return tuple(self.sink_position)
        return (self.area_side / 2.0, self.area_side / 2.0)


@dataclass
class SensorNode:
    id: int
    x: float
    y: float
    energy: float

    @property
    def alive(self) -> bool:
        return self.energy > 0.0


@dataclass(frozen=True)
class EnergyModel:
    """First-order radio model: electronics + distance-squared amplifier."""
    e_elec: float = 50e-9      # per bit, both transmit and receive
    e_amp: float = 100e-12     # per bit per meter^2 on transmit
    e_idle: float = 5e-6       # flat per-round cost for every alive node
    e_agg: float = 5e-9        # per received bit aggregated at a collector

    def __post_init__(self):
        check_reals(self)
        for name in ("e_elec", "e_amp", "e_idle", "e_agg"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")


class Topology:
    """Static distance matrix plus the adjacency derived from the network's
    one radio range.

    `neighbors[i]` lists every node within range of i, other than i, nearest
    first; equal distances keep ascending ids, so each list is ordered by
    (distance, id). Positions never change after generation, so everything
    here is computed once per run. Aliveness filtering happens at the call
    sites.
    """

    def __init__(self, nodes: list, comm_range: float):
        n = len(nodes)
        xs = np.array([nd.x for nd in nodes])
        ys = np.array([nd.y for nd in nodes])
        dx = xs[:, None] - xs[None, :]
        dy = ys[:, None] - ys[None, :]
        self.distance = np.sqrt(dx * dx + dy * dy)
        self.comm_range = comm_range
        within = self.distance <= comm_range
        np.fill_diagonal(within, False)
        self.adjacency_matrix = within
        self.neighbors = []
        for i in range(n):
            ids = np.flatnonzero(within[i])
            order = np.argsort(self.distance[i, ids], kind="stable")
            self.neighbors.append(ids[order].tolist())
        self.node_count = n

    def dist(self, i: int, j: int) -> float:
        return float(self.distance[i, j])


def generate_network(config: NetworkConfig):
    """Place node_count sensors uniformly in the square; returns (nodes, topology).

    The same rng_seed always reproduces the identical layout.
    """
    rng = random.Random(config.rng_seed)
    nodes = []
    for i in range(config.node_count):
        x = rng.uniform(0.0, config.area_side)
        y = rng.uniform(0.0, config.area_side)
        nodes.append(SensorNode(id=i, x=x, y=y, energy=config.initial_energy))
    return nodes, Topology(nodes, config.comm_range)


def tx_cost(bits: int, distance: float, model: EnergyModel) -> float:
    """Energy to transmit `bits` over `distance` meters."""
    return model.e_elec * bits + model.e_amp * bits * distance * distance


def rx_cost(bits: int, model: EnergyModel) -> float:
    """Energy to receive `bits`."""
    return model.e_elec * bits


def aggregation_cost(bits: int, model: EnergyModel) -> float:
    """Energy to fold `bits` of received data into the local report."""
    return model.e_agg * bits


def drain(node: SensorNode, amount: float) -> SensorNode:
    """Subtract energy, clamping at zero. A node at zero is permanently dead."""
    if amount < 0:
        raise ValueError("drain amount must be non-negative")
    node.energy = max(0.0, node.energy - amount)
    return node

