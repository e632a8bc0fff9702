"""Checks on the simulator's outputs, computed apart from the simulator.

Every check returns a list of error strings; an empty list is a pass. The
inputs are plain data (energies as lists, hierarchies as lists of
(member ids, head id) pairs, CSV rows as dicts), so a test can hand a check
a corrupted copy and see it rejected. Distances, costs, rewards, utilities
and hop depths are all recomputed here from node positions and the
scenario's energy model, not read from the simulator's own structures.
"""

from __future__ import annotations

import csv
import math

import numpy as np

# Relative tolerance of the energy ledger, against the node's pre-round
# energy: summation order differs from the simulator's by a few ulps only.
LEDGER_RTOL = 1e-12
# Absolute tolerance on utilities (values of order one) in the game check.
UTILITY_TOL = 1e-9
REWARD_MAX = 12


class Field:
    """Static inputs of one run: positions, radio range, sink, energy model."""

    def __init__(self, xs, ys, comm_range, sink, bits, e_elec, e_amp,
                 e_idle, e_agg, initial_energy):
        self.x = np.asarray(xs, dtype=float)
        self.y = np.asarray(ys, dtype=float)
        self.comm_range = float(comm_range)
        self.sink = (float(sink[0]), float(sink[1]))
        self.bits = bits
        self.e_elec, self.e_amp = e_elec, e_amp
        self.e_idle, self.e_agg = e_idle, e_agg
        self.initial_energy = initial_energy
        dx = self.x[:, None] - self.x[None, :]
        dy = self.y[:, None] - self.y[None, :]
        self.dist = np.sqrt(dx * dx + dy * dy)
        self.sink_dist = np.hypot(self.x - self.sink[0], self.y - self.sink[1])
        self.in_range = self.dist <= self.comm_range
        np.fill_diagonal(self.in_range, False)

    @classmethod
    def from_world(cls, world):
        cfg, model = world.config, world.energy_model
        return cls([nd.x for nd in world.nodes], [nd.y for nd in world.nodes],
                   cfg.comm_range, cfg.sink, cfg.packet_size_bits,
                   model.e_elec, model.e_amp, model.e_idle, model.e_agg,
                   cfg.initial_energy)

    @property
    def n(self) -> int:
        return len(self.x)

    def tx(self, d2: float) -> float:
        return self.bits * (self.e_elec + self.e_amp * d2)

    def d2(self, i: int, j: int) -> float:
        return (self.x[i] - self.x[j]) ** 2 + (self.y[i] - self.y[j]) ** 2

    def d2_sink(self, i: int) -> float:
        return (self.x[i] - self.sink[0]) ** 2 + (self.y[i] - self.sink[1]) ** 2


def stages_of(hierarchy) -> list:
    """A ClusterHierarchy as plain data: stages of (member ids, head id)."""
    return [[(tuple(c.member_ids), c.head_id) for c in stage]
            for stage in hierarchy.stages]


def alive_ids(energies) -> list:
    return [i for i, e in enumerate(energies) if e > 0.0]


def _report_targets(stages) -> dict:
    """node -> head of the last cluster it belongs to (itself for the apex)."""
    last = {}
    for stage in stages:
        for members, head in stage:
            for m in members:
                last[m] = head
    return last


def check_hierarchy(alive, stages, final) -> list:
    """Stage 1 partitions the alive nodes, each later stage partitions the
    previous stage's heads (pure) into fewer clusters than it has
    participants (contracting), and one apex remains."""
    errors = []
    if not stages:
        return ["hierarchy has no stages"]
    participants = sorted(alive)
    for k, stage in enumerate(stages, start=1):
        seen = []
        for members, head in stage:
            if not members:
                errors.append(f"stage {k}: empty cluster")
            if head not in members:
                errors.append(f"stage {k}: head {head} not among its members")
            seen.extend(members)
        if sorted(seen) != participants:
            errors.append(f"stage {k}: clusters do not partition the "
                          f"{len(participants)} participants")
        heads = sorted(head for _members, head in stage)
        if k > 1 and len(heads) >= len(participants) > 1:
            errors.append(f"stage {k}: {len(heads)} heads for "
                          f"{len(participants)} participants")
        participants = heads
    last_stage = stages[-1]
    if len(last_stage) != 1 or last_stage[0][1] != final:
        errors.append(f"apex: last stage must be one cluster headed by the "
                      f"final transmitter {final}")
    return errors


def check_ledger(field: Field, pre, post, stages, final) -> list:
    """Every alive node pays its transmission to the head it reports to (the
    sink for the apex), heads pay reception and aggregation per member, all
    pay idle; post = max(0, pre - cost) to LEDGER_RTOL of pre."""
    cost = [0.0] * field.n
    alive = alive_ids(pre)
    target = _report_targets(stages)
    errors = []
    per_member = field.bits * (field.e_elec + field.e_agg)
    for i in alive:
        head = target.get(i)
        if head is None:
            errors.append(f"node {i} alive but absent from the hierarchy")
            continue
        if head == i:
            cost[i] += field.tx(field.d2_sink(i))
        else:
            cost[i] += field.tx(field.d2(i, head))
            cost[head] += per_member
    for i in alive:
        cost[i] += field.e_idle
    for i in range(field.n):
        if pre[i] <= 0.0:
            if post[i] != pre[i]:
                errors.append(f"dead node {i} changed energy")
            continue
        expected = max(0.0, pre[i] - cost[i])
        if abs(post[i] - expected) > LEDGER_RTOL * pre[i]:
            errors.append(f"node {i}: energy {post[i]!r}, ledger says "
                          f"{expected!r}")
    return errors


def reward_total(pre, stages, final) -> int:
    """The five-part structural reward of one hierarchy."""
    energy = {i: pre[i] for i in alive_ids(pre)}
    disjoint = all(
        len({m for members, _h in stage for m in members})
        == sum(len(members) for members, _h in stage)
        for stage in stages)
    argmax_heads = all(energy[head] >= max(energy[m] for m in members)
                       for stage in stages for members, head in stage)
    pure = all({h for _m, h in stages[k]}
               == {m for members, _h in stages[k + 1] for m in members}
               for k in range(len(stages) - 1))
    peak_final = energy[final] >= max(energy.values())
    target = _report_targets(stages)
    forwarded = True
    for i in energy:
        node, steps = i, 0
        while node in target and target[node] != node and steps <= len(pre):
            node, steps = target[node], steps + 1
        if node != final:
            forwarded = False
    return ((2 if disjoint else 0) + (3 if argmax_heads else 1)
            + (2 if pure else 0) + (3 if peak_final else 1)
            + (2 if forwarded else 0))


def check_reward(pre, stages, final, round_reward: float) -> list:
    expected = reward_total(pre, stages, final)
    if float(expected) != round_reward:
        return [f"round_reward {round_reward!r}, recomputed {expected}"]
    return []


def baseline_depths(field: Field, pre) -> dict:
    """Hop depth of every alive node that can reach the sink over alive
    in-range links; depth 1 means in range of the sink."""
    alive = np.array([e > 0.0 for e in pre])
    frontier = alive & (field.sink_dist <= field.comm_range)
    reached = frontier.copy()
    depths = {}
    depth = 1
    while frontier.any():
        for i in np.nonzero(frontier)[0]:
            depths[int(i)] = depth
        frontier = field.in_range[frontier].any(axis=0) & alive & ~reached
        reached |= frontier
        depth += 1
    return depths


def check_baseline_delay(field: Field, pre, mean_delay: float) -> list:
    """mean_delay is twice the mean hop depth of the delivered nodes."""
    depths = baseline_depths(field, pre)
    expected = 2.0 * sum(depths.values()) / len(depths) if depths else 0.0
    if not math.isclose(mean_delay, expected, rel_tol=1e-12, abs_tol=0.0):
        return [f"mean_delay {mean_delay!r}, twice the BFS mean depth is "
                f"{expected!r}"]
    return []


def check_partition(ids, target_size: int, clusters) -> list:
    """A form_clusters result covers its input exactly once, with at most
    ceil(n / target_size) non-empty clusters."""
    errors = []
    flat = [m for c in clusters for m in c]
    if sorted(flat) != sorted(ids):
        errors.append(f"partition of {len(ids)} ids does not cover them "
                      f"exactly once")
    if any(not c for c in clusters):
        errors.append("partition has an empty cluster")
    if ids and len(clusters) > math.ceil(len(ids) / target_size):
        errors.append(f"partition has {len(clusters)} clusters for "
                      f"{len(ids)} ids at target {target_size}")
    return errors


def check_best_response(field: Field, pre, profile: dict, weights,
                        neighbor_cap: int) -> list:
    """No node of a converged profile gains by a move the game allows.

    A head with followers is committed for the round. Any other node
    compares its current payoff with standing alone (own fitness: charge
    minus mean in-range neighbour distance) and with following any reachable
    head (that head's charge minus the link distance and the head's load
    counting the mover).
    """
    ew, dw, lw = (weights.energy_weight, weights.distance_weight,
                  weights.load_weight)
    e0, rng = field.initial_energy, field.comm_range
    alive = alive_ids(pre)
    errors = []
    if sorted(profile) != alive:
        return ["profile does not cover exactly the alive nodes"]
    alive_mask = np.array([e > 0.0 for e in pre])
    heads = {i for i, t in profile.items() if t is None}
    load = {h: 0 for h in heads}
    for i, t in profile.items():
        if t is not None:
            if t not in heads:
                return [f"node {i} follows {t}, which is not a head"]
            load[t] += 1

    def stand(i):
        nbrs = np.nonzero(field.in_range[i] & alive_mask)[0]
        d_hat = (float(field.dist[i, nbrs].mean()) / rng) if len(nbrs) else 0.0
        return ew * pre[i] / e0 - dw * d_hat

    def join(i, h, h_load):
        return (ew * pre[h] / e0 - dw * float(field.dist[i, h]) / rng
                - lw * h_load / neighbor_cap)

    for i in alive:
        current = profile[i]
        if current is None and load[i] > 0:
            continue
        if current is not None and not field.in_range[i, current]:
            errors.append(f"node {i} follows out-of-range head {current}")
            continue
        value = stand(i) if current is None else join(i, current,
                                                      load[current])
        options = [] if current is None else [("stand", stand(i))]
        for h in heads:
            if h != i and h != current and field.in_range[i, h]:
                options.append((f"join {h}", join(i, h, load[h] + 1)))
        for move, alt in options:
            if alt > value + UTILITY_TOL:
                errors.append(f"node {i} gains {alt - value:.3g} by {move}")
                break
    return errors


def check_q_tables(tables, discount: float, entry_bound: int) -> list:
    """Q values lie in [0, R_max / (1 - discount)]; entries within bound."""
    top = REWARD_MAX / (1.0 - discount)
    errors = []
    for k, table in enumerate(tables):
        entries = 0
        for state, action, q, _visits in table.items():
            entries += 1
            if not (0.0 <= q <= top):
                errors.append(f"table {k}: Q{state, action} = {q!r} outside "
                              f"[0, {top}]")
                break
        if entries > entry_bound:
            errors.append(f"table {k}: {entries} entries > bound "
                          f"{entry_bound}")
    return errors


def read_rows(path) -> list:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def check_series(rows, summary: dict, node_count: int) -> list:
    """A rounds CSV and its summary JSON agree with each other and with what
    a round series must do: rounds count up from 1, alive count and mean
    charge never rise, cumulative reward is the running sum, and the
    summary's longevity and success rate recompute from the rows."""
    errors = []
    if not rows:
        return ["rounds CSV has no rows"]
    cumulative = 0.0
    for t, row in enumerate(rows):
        if int(row["round"]) != t + 1:
            errors.append(f"row {t}: round {row['round']} out of sequence")
        cumulative += float(row["round_reward"])
        if float(row["cumulative_reward"]) != cumulative:
            errors.append(f"round {t + 1}: cumulative_reward is not the "
                          f"running sum")
        if t > 0:
            prev = rows[t - 1]
            if int(row["alive_count"]) > int(prev["alive_count"]):
                errors.append(f"round {t + 1}: alive_count rises")
            if float(row["mean_soc_pct"]) > float(prev["mean_soc_pct"]):
                errors.append(f"round {t + 1}: mean_soc_pct rises")
    n = len(rows)
    if summary["executed_rounds"] != n:
        errors.append(f"summary executed_rounds {summary['executed_rounds']}"
                      f" != {n} rows")
    longevity = 100.0 * int(rows[-1]["alive_count"]) / node_count
    if not math.isclose(summary["longevity_pct"], longevity, rel_tol=1e-12):
        errors.append(f"longevity_pct {summary['longevity_pct']!r} != "
                      f"{longevity!r}")
    success = sum(1 for r in rows if r["success"] == "1") / n
    if not math.isclose(summary["success_rate"], success, rel_tol=1e-12,
                        abs_tol=0.0):
        errors.append(f"success_rate {summary['success_rate']!r} != "
                      f"{success!r}")
    return errors


def check_row_energies(row, post, initial_energy: float) -> list:
    """A round's CSV row shows the energies the ledger checked."""
    errors = []
    alive = sum(1 for e in post if e > 0.0)
    if int(row["alive_count"]) != alive:
        errors.append(f"round {row['round']}: alive_count "
                      f"{row['alive_count']} != {alive}")
    soc = 100.0 * sum(post) / len(post) / initial_energy
    if not math.isclose(float(row["mean_soc_pct"]), soc, rel_tol=1e-12,
                        abs_tol=1e-12):
        errors.append(f"round {row['round']}: mean_soc_pct "
                      f"{row['mean_soc_pct']} != {soc!r}")
    return errors


def check_figdata(fig_rows, runs: dict) -> list:
    """figdata_active_sensors and figdata_success_rate from the rounds CSVs.

    `runs` maps strategy -> list of row lists (one per seed). A run that
    ended early holds its last alive count; its success rate keeps counting
    the missing rounds as failures.
    """
    errors = []
    horizon = max(len(rows) for series in runs.values() for rows in series)
    active, success = fig_rows
    for name, table in (("active_sensors", active), ("success_rate", success)):
        if len(table) != horizon:
            errors.append(f"figdata_{name}: {len(table)} rows, horizon "
                          f"{horizon}")
    for strategy, series in runs.items():
        successes = [0] * len(series)
        for t in range(min(horizon, len(active), len(success))):
            alive = [float(rows[min(t, len(rows) - 1)]["alive_count"])
                     for rows in series]
            want = sum(alive) / len(alive)
            if not math.isclose(float(active[t][strategy]), want,
                                rel_tol=1e-12):
                errors.append(f"figdata_active_sensors {strategy} round "
                              f"{t + 1}: {active[t][strategy]} != {want!r}")
                break
            for k, rows in enumerate(series):
                if t < len(rows) and rows[t]["success"] == "1":
                    successes[k] += 1
            want = sum(c / (t + 1) for c in successes) / len(series)
            if not math.isclose(float(success[t][strategy]), want,
                                rel_tol=1e-12, abs_tol=1e-15):
                errors.append(f"figdata_success_rate {strategy} round "
                              f"{t + 1}: {success[t][strategy]} != {want!r}")
                break
    return errors
