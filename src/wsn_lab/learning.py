"""Tabular Q-learning: state observation, action selection, updates, replay,
epsilon decay, table pruning, and the five-part round reward."""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum
from typing import NamedTuple

from .network import DEFAULT_NEIGHBOR_CAP, SensorNode, check_reals, is_count


class RlAction(IntEnum):
    """Enum order is the deterministic tie-break order everywhere."""
    CLUSTERING = 0        # membership posture: form / re-evaluate a cluster
    ELECT_SELF = 1        # head-selection sub-choice: stand for election
    JOIN_HEAD = 2         # head-selection sub-choice: defer to a neighbor head
    SINGLE_HOP = 3        # transmission posture


ALL_ACTIONS = tuple(RlAction)


class AgentState(NamedTuple):
    energy_level: int          # 0..9, floor(10 * energy / initial)
    neighbor_count: int        # alive in-range neighbors, clamped at the cap
    stage_level: int           # deepest stage led last round; 0 for members


@dataclass
class LearningParams:
    learning_rate: float = 0.7
    discount_factor: float = 0.9
    epsilon_start: float = 1.0
    epsilon_decay_rate: float = 0.05
    adaptive_learning_rate: bool = True
    replay_capacity: int = 50
    replay_batch: int = 50
    prune_min_visits: int = 0          # 0 disables pruning
    prune_window_rounds: int = 50
    shared_table: bool = True

    def __post_init__(self):
        for name, low in (("replay_capacity", 1), ("replay_batch", 0),
                          ("prune_min_visits", 0), ("prune_window_rounds", 1)):
            value = getattr(self, name)
            if not is_count(value) or value < low:
                raise ValueError(f"{name} must be an integer >= {low}")
        if self.replay_batch > self.replay_capacity:
            raise ValueError("replay_batch must be at most replay_capacity")
        for name in ("adaptive_learning_rate", "shared_table"):
            if not isinstance(getattr(self, name), bool):
                raise ValueError(f"{name} must be true or false")
        check_reals(self)
        if not (0.0 < self.learning_rate <= 1.0):
            raise ValueError("learning_rate must be in (0, 1]")
        if not (0.0 <= self.discount_factor < 1.0):
            raise ValueError("discount_factor must be in [0, 1)")
        if not (0.0 <= self.epsilon_start <= 1.0):
            raise ValueError("epsilon_start must be in [0, 1]")
        if self.epsilon_decay_rate < 0:
            raise ValueError("epsilon_decay_rate must be non-negative")


class Experience(NamedTuple):
    state: AgentState
    action: RlAction
    reward: float
    next_state: AgentState


@dataclass(frozen=True)
class RewardBreakdown:
    valid_clustering: int     # 2 or 0
    ch_selection: int         # 3 or 1
    hierarchy_purity: int     # 2 or 0
    final_transmitter: int    # 3 or 1
    data_forwarding: int      # 2 or 0

    @property
    def total(self) -> int:
        return (self.valid_clustering + self.ch_selection
                + self.hierarchy_purity + self.final_transmitter
                + self.data_forwarding)


class QTable:
    """Sparse (state, action) -> (q, visits) map; absent entries read 0.

    Rows are never deleted: pruning zeroes entries in place, so a replay
    record bound to a row (see `resolve`) stays bound to the live row. A zero
    entry reads and counts exactly as an absent one.
    """

    __slots__ = ("_rows",)

    def __init__(self):
        # state -> [q values per action, visit counts per action]
        self._rows = {}

    def q(self, state, action) -> float:
        row = self._rows.get(state)
        return row[0][action] if row is not None else 0.0

    def visits(self, state, action) -> int:
        row = self._rows.get(state)
        return row[1][action] if row is not None else 0

    def row(self, state):
        row = self._rows.get(state)
        if row is None:
            row = [[0.0, 0.0, 0.0, 0.0], [0, 0, 0, 0]]
            self._rows[state] = row
        return row

    def resolve(self, exp: Experience) -> tuple:
        """Bind an experience to this table's rows, once, for replay.

        Returns the record (q_row, visit_row, action, reward, next_q_row).
        The next state's row is created as zeros if absent, so bootstrapping
        from it reads 0.0, as from an absent state.
        """
        qs, vs = self.row(exp.state)
        return qs, vs, int(exp.action), exp.reward, self.row(exp.next_state)[0]

    def entry_count(self) -> int:
        return sum(1 for _entry in self.items())

    def states(self) -> list:
        """States with at least one live entry, in row order."""
        return list(dict.fromkeys(state for state, *_ in self.items()))

    def items(self):
        """(state, action, q, visits) of each entry with q or visits != 0."""
        for state, (qs, vs) in self._rows.items():
            for a in range(len(qs)):
                if qs[a] != 0.0 or vs[a] != 0:
                    yield state, RlAction(a), qs[a], vs[a]


def state_space_bound(neighbor_cap: int = DEFAULT_NEIGHBOR_CAP,
                      stage_cap: int = 3) -> int:
    """Number of distinct (state, action) entries a table can hold."""
    states = 10 * (neighbor_cap + 1) * (stage_cap + 1)
    return states * len(ALL_ACTIONS)


def observe_state(node: SensorNode, stage_level: int, neighbor_count: int,
                  *, initial_energy: float, stage_cap: int = 3) -> AgentState:
    """Discretize a node's charge, alive neighborhood and stage role."""
    return AgentState(
        energy_level=min(9, int(10.0 * node.energy / initial_energy)),
        neighbor_count=min(neighbor_count, DEFAULT_NEIGHBOR_CAP),
        stage_level=min(stage_level, stage_cap))


def select_action(table: QTable, state: AgentState, epsilon: float, rng,
                  legal=None) -> RlAction:
    """Epsilon-greedy over the legal set; greedy ties break in enum order."""
    actions = ALL_ACTIONS if legal is None else legal
    if rng.random() < epsilon:
        return actions[rng.randrange(len(actions))]
    best = actions[0]
    row = table._rows.get(state)
    if row is None:
        return best
    qs = row[0]
    best_q = qs[best]
    for a in actions[1:]:
        qv = qs[a]
        if qv > best_q:
            best, best_q = a, qv
    return best


def _backup(records, params: LearningParams) -> float:
    """Apply the Bellman backup to each bound record in turn; returns the
    largest |delta Q|, for convergence telemetry.

    The adaptive learning rate uses the pre-increment visit count, so the
    first update of a pair applies rate 1, the second 1/2, and so on.
    """
    adaptive = params.adaptive_learning_rate
    rate = params.learning_rate
    gamma = params.discount_factor
    worst = 0.0
    for qs, vs, a, reward, next_qs in records:
        alpha = 1.0 / (1.0 + vs[a]) if adaptive else rate
        # max(next_qs) unrolled over the four actions, first maximum kept
        best, q1, q2, q3 = next_qs
        if q1 > best:
            best = q1
        if q2 > best:
            best = q2
        if q3 > best:
            best = q3
        target = reward + gamma * best
        old = qs[a]
        new = (1.0 - alpha) * old + alpha * target
        qs[a] = new
        vs[a] += 1
        delta = abs(new - old)
        if delta > worst:
            worst = delta
    return worst


def q_update(table: QTable, exp: Experience, params: LearningParams) -> float:
    """One Bellman backup; returns |delta Q|."""
    return _backup((table.resolve(exp),), params)


class ReplayBuffer:
    """Fixed-capacity ring of `QTable.resolve` records with O(1) uniform
    sampling."""

    __slots__ = ("capacity", "_items", "_cursor")

    def __init__(self, capacity: int):
        self.capacity = capacity
        self._items = []
        self._cursor = 0

    def add(self, record: tuple):
        if len(self._items) < self.capacity:
            self._items.append(record)
        else:
            self._items[self._cursor] = record
            self._cursor = (self._cursor + 1) % self.capacity

    def __len__(self):
        return len(self._items)

    def sample(self, batch: int, rng):
        n = len(self._items)
        if n == 0 or batch == 0:
            return []
        if n <= batch:
            return list(self._items)
        return [self._items[i] for i in rng.sample(range(n), batch)]


def replay_step(buffer: ReplayBuffer, params: LearningParams, rng) -> float:
    """Re-apply the Bellman backup to a uniform sample of the buffer, whose
    records are bound to their table's rows; returns max |delta Q|."""
    return _backup(buffer.sample(params.replay_batch, rng), params)


def decay_epsilon(params: LearningParams, round_index: int) -> float:
    """Exponentially decayed exploration rate for the given round."""
    return params.epsilon_start * math.exp(
        -params.epsilon_decay_rate * round_index)


def prune(table: QTable, params: LearningParams, round_index: int) -> int:
    """Zero rarely-visited entries on the pruning schedule; returns #removed.

    Entries are zeroed in place and rows are kept, so replay records stay
    bound to the live rows.
    """
    if params.prune_min_visits <= 0:
        return 0
    if round_index <= 0 or round_index % params.prune_window_rounds != 0:
        return 0
    removed = 0
    for qs, vs in table._rows.values():
        for a in range(len(qs)):
            if (qs[a] != 0.0 or vs[a] != 0) and vs[a] < params.prune_min_visits:
                qs[a] = 0.0
                vs[a] = 0
                removed += 1
    return removed


def compute_round_reward(hierarchy, energies: dict,
                         forwarding_ok: bool) -> RewardBreakdown:
    """Score one round's hierarchy against the five structural criteria.

    `energies` is the id -> residual-energy snapshot taken when the hierarchy
    was formed, covering every node alive at that moment. Each criterion pays
    its full value only if satisfied everywhere, else its fallback value.
    """
    disjoint = True
    argmax_heads = True
    for stage in hierarchy.stages:
        seen = set()
        for cluster in stage:
            for m in cluster.member_ids:
                if m in seen:
                    disjoint = False
                seen.add(m)
            top = max(energies[m] for m in cluster.member_ids)
            if energies[cluster.head_id] < top:
                argmax_heads = False

    purity = True
    for k in range(len(hierarchy.stages) - 1):
        heads = set(c.head_id for c in hierarchy.stages[k])
        participants = set()
        for c in hierarchy.stages[k + 1]:
            participants.update(c.member_ids)
        if heads != participants:
            purity = False

    network_top = max(energies.values())
    final_ok = energies[hierarchy.final_transmitter] >= network_top

    return RewardBreakdown(
        valid_clustering=2 if disjoint else 0,
        ch_selection=3 if argmax_heads else 1,
        hierarchy_purity=2 if purity else 0,
        final_transmitter=3 if final_ok else 1,
        data_forwarding=2 if forwarding_ok else 0,
    )
