"""A frozen copy of the Q-table, Bellman backup, replay buffer, replay step
and pruning that the resolve-once engine replaced, kept as an oracle: driven
with the same experiences, the two must leave identical tables.

Do not edit this copy to follow later changes to `wsn_lab.learning`; it is
the behaviour the golden digests were computed with.
"""

from __future__ import annotations

import csv

from wsn_lab.learning import Experience, LearningParams, RlAction


class ReferenceQTable:
    """Sparse (state, action) -> (q, visits) map; absent entries read 0."""

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

    def max_q(self, state) -> float:
        row = self._rows.get(state)
        if row is None:
            return 0.0
        return max(row[0])

    def row(self, state):
        row = self._rows.get(state)
        if row is None:
            row = [[0.0, 0.0, 0.0, 0.0], [0, 0, 0, 0]]
            self._rows[state] = row
        return row

    def entry_count(self) -> int:
        n = 0
        for qs, vs in self._rows.values():
            n += sum(1 for a in range(len(qs)) if qs[a] != 0.0 or vs[a] != 0)
        return n

    def states(self):
        return self._rows.keys()

    def items(self):
        for state, (qs, vs) in self._rows.items():
            for a in range(len(qs)):
                if qs[a] != 0.0 or vs[a] != 0:
                    yield state, RlAction(a), qs[a], vs[a]

    def dump_csv(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["energy_level", "is_head", "neighbor_count",
                             "energy_ratio_bucket", "stage_level",
                             "action", "q", "visits"])
            for state, action, qv, visits in sorted(
                    self.items(), key=lambda it: (it[0], int(it[1]))):
                writer.writerow([state.energy_level, int(state.is_head),
                                 state.neighbor_count, state.energy_ratio_bucket,
                                 state.stage_level, action.name, repr(qv), visits])


def reference_q_update(table: ReferenceQTable, exp: Experience,
                       params: LearningParams) -> float:
    """One Bellman backup; returns |delta Q| for convergence telemetry.

    The adaptive learning rate uses the pre-increment visit count, so the
    first update of a pair applies rate 1, the second 1/2, and so on.
    """
    row = table.row(exp.state)
    a = int(exp.action)
    if params.adaptive_learning_rate:
        alpha = 1.0 / (1.0 + row[1][a])
    else:
        alpha = params.learning_rate
    target = exp.reward + params.discount_factor * table.max_q(exp.next_state)
    old = row[0][a]
    new = (1.0 - alpha) * old + alpha * target
    row[0][a] = new
    row[1][a] += 1
    return abs(new - old)


class ReferenceReplayBuffer:
    """Fixed-capacity ring of experiences with O(1) uniform sampling."""

    __slots__ = ("capacity", "_items", "_cursor")

    def __init__(self, capacity: int):
        self.capacity = capacity
        self._items = []
        self._cursor = 0

    def add(self, exp: Experience):
        if len(self._items) < self.capacity:
            self._items.append(exp)
        else:
            self._items[self._cursor] = exp
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


def reference_replay_step(table: ReferenceQTable,
                          buffer: ReferenceReplayBuffer,
                          params: LearningParams, rng) -> float:
    """Re-apply the Bellman update to a uniform sample; returns max |delta Q|."""
    worst = 0.0
    for exp in buffer.sample(params.replay_batch, rng):
        delta = reference_q_update(table, exp, params)
        if delta > worst:
            worst = delta
    return worst


def reference_prune(table: ReferenceQTable, params: LearningParams,
                    round_index: int) -> int:
    """Drop rarely-visited entries on the pruning schedule; returns #removed."""
    if params.prune_min_visits <= 0:
        return 0
    if round_index <= 0 or round_index % params.prune_window_rounds != 0:
        return 0
    removed = 0
    empty_states = []
    for state, (qs, vs) in table._rows.items():
        for a in range(len(qs)):
            if (qs[a] != 0.0 or vs[a] != 0) and vs[a] < params.prune_min_visits:
                qs[a] = 0.0
                vs[a] = 0
                removed += 1
        if all(q == 0.0 for q in qs) and all(v == 0 for v in vs):
            empty_states.append(state)
    for state in empty_states:
        del table._rows[state]
    return removed
