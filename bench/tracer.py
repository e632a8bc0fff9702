"""Wrappers installed from outside the simulator.

`Patches` rebinds a function in every `wsn_lab` module namespace that looks
it up by name, so a call through `strategies.form_clusters` and one through
`clustering.form_clusters` both pass the wrapper.

`RoundProbe` is the cheap wrapper set used in timed runs: one clock reading
around each `strategies.run_round_*` call and the set-up calls `simulate`
makes, machine-speed readings (speed.py) around each `simulate` call and at
each round boundary where a second has passed since the last one, and the
energies before and after each round for the checks.

`Tracer` is the wrapper set of the traced run: a span per call at each layer
boundary with self time (the call's time minus that of the wrapped calls made
inside it), per-strategy call counts, and the captures the traced-only checks
need.
"""

from __future__ import annotations

import bisect
import json
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field

import speed

ROUND_FUNCTIONS = {
    "full-rl": "run_round_full_rl",
    "full-gt": "run_round_full_gt",
    "gt-rl": "run_round_gt_rl",
    "rl-gt": "run_round_rl_gt",
    "baseline": "run_round_baseline",
}


class Patches:
    """Rebinds module-level names and puts the old bindings back on exit."""

    def __init__(self):
        self._undo = []

    def wrap(self, module, attr, make_wrapper):
        """Replace `module.attr`, wherever else it is bound, by
        make_wrapper(current binding)."""
        current = getattr(module, attr)
        wrapper = make_wrapper(current)
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "wsn_lab"
                                   or name.startswith("wsn_lab.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is current:
                    setattr(mod, key, wrapper)
                    self._undo.append((mod, key, current))

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        for mod, key, value in reversed(self._undo):
            setattr(mod, key, value)
        self._undo.clear()
        return False


@dataclass
class RoundCapture:
    pre: list            # every node's energy before the round
    post: list           # every node's energy after the round
    outcome: object      # the RoundOutcome the round returned


@dataclass
class OpCapture:
    """One operation: one `simulate` call for a (strategy, seed) pair.

    Times are wall seconds. `readings` are (end time, seconds) of the speed
    readings taken before `simulate`, at round boundaries at least
    READ_EVERY_S apart, and after `simulate`; `scaled` turns a timed span
    into reference seconds with the readings on either side of it.
    """
    strategy: str
    seed: int
    args: tuple                       # (strategy, config, energy, params, weights)
    world: object = None
    result: object = None
    simulate_s: float = 0.0           # excluding the readings made inside
    readings: list = field(default_factory=list)
    setup_spans: list = field(default_factory=list)     # (start, end)
    round_spans: list = field(default_factory=list)     # (start, end)
    node_rounds: int = 0              # alive nodes summed over round starts
    rounds: list = field(default_factory=list)          # RoundCapture
    partitions: list = field(default_factory=list)     # (ids, target, clusters)
    best_responses: list = field(default_factory=list)  # (round, result)

    @property
    def config(self):
        return self.args[1]

    def scaled(self, start: float, end: float) -> float:
        """Reference seconds of the span [start, end]."""
        times = [t for t, _v in self.readings]
        before = self.readings[max(bisect.bisect_right(times, start) - 1, 0)]
        after = self.readings[min(bisect.bisect_left(times, end),
                                  len(times) - 1)]
        return (end - start) * speed.REFERENCE_S / ((before[1] + after[1]) / 2)

    @property
    def scale(self) -> float:
        """Mean factor from wall to reference seconds over the operation."""
        values = [v for _t, v in self.readings]
        return speed.REFERENCE_S / (sum(values) / len(values))

    def round_seconds(self) -> list:
        return [self.scaled(a, b) for a, b in self.round_spans]

    def setup_seconds(self) -> float:
        return sum(self.scaled(a, b) for a, b in self.setup_spans)

    def release(self) -> None:
        """Drop what only the checks need, so that memory held for them does
        not build up over the repetitions of a run."""
        self.world = self.result = None
        self.rounds, self.partitions, self.best_responses = [], [], []


# A round boundary this long after the last speed reading takes a new one.
READ_EVERY_S = 1.0


class RoundProbe:
    """Timing and capture at the round boundary; cheap enough for timed runs."""

    def __init__(self):
        self.ops = []
        self.calibration_s = 0.0    # wall time spent in speed readings

    def _read(self, op: OpCapture) -> None:
        t0 = time.perf_counter()
        value = speed.reading()
        t1 = time.perf_counter()
        op.readings.append((t1, value))
        self.calibration_s += t1 - t0

    def install(self, patches: Patches, modules) -> None:
        strategies, cli = modules.strategies, modules.cli
        ops = self.ops

        def on_simulate(fn):
            def simulate(strategy, config, *rest, **kw):
                op = OpCapture(strategy=strategy.value, seed=config.rng_seed,
                               args=(strategy, config) + rest)
                ops.append(op)
                self._read(op)
                inside = self.calibration_s
                t0 = time.perf_counter()
                try:
                    op.result = fn(strategy, config, *rest, **kw)
                finally:
                    op.simulate_s = (time.perf_counter() - t0
                                     - (self.calibration_s - inside))
                    self._read(op)
                return op.result
            return simulate

        def timed_setup(fn):
            def setup(*args, **kw):
                t0 = time.perf_counter()
                value = fn(*args, **kw)
                ops[-1].setup_spans.append((t0, time.perf_counter()))
                return value
            return setup

        def on_make_world(fn):
            timed = timed_setup(fn)

            def make_world(*args, **kw):
                ops[-1].world = timed(*args, **kw)
                return ops[-1].world
            return make_world

        def on_round(fn):
            def run_round(world, *args, **kw):
                op = ops[-1]
                if time.perf_counter() - op.readings[-1][0] >= READ_EVERY_S:
                    self._read(op)
                pre = [nd.energy for nd in world.nodes]
                t0 = time.perf_counter()
                outcome = fn(world, *args, **kw)
                t1 = time.perf_counter()
                op.round_spans.append((t0, t1))
                op.node_rounds += sum(1 for e in pre if e > 0.0)
                op.rounds.append(RoundCapture(
                    pre, [nd.energy for nd in world.nodes], outcome))
                return outcome
            return run_round

        patches.wrap(cli, "simulate", on_simulate)
        patches.wrap(strategies, "make_world", on_make_world)
        patches.wrap(strategies, "LearnerPool", timed_setup)
        for attr in ROUND_FUNCTIONS.values():
            patches.wrap(strategies, attr, on_round)


# Called hundreds of times per round: their calls are folded into the
# nearest recorded span as (count, seconds) instead of becoming spans.
FOLDED = frozenset({"learning.q_update", "learning.replay_step",
                    "learning.observe_state", "learning.select_action",
                    "game.select_head_by_utility"})
# Folded functions that make no wrapped call themselves take a shorter
# wrapper: their self time is their whole time.
LEAVES = FOLDED - {"learning.replay_step"}


class Tracer:
    """Spans, self times and counts at every wrapped layer boundary."""

    def __init__(self, probe: RoundProbe):
        self.probe = probe
        self.origin = time.perf_counter()
        self.stack = []       # frames: [child_seconds, anchor_span, child_calls]
        self.spans = []       # [name, start, end, parent, run, folded_calls]
        self.self_s = defaultdict(float)   # (name, strategy) -> seconds
        self.calls = Counter()             # (name, strategy) -> calls
        self.counts = Counter()            # (counter, strategy) -> value
        self.strategy = None
        self.run = None

    def _fold(self, anchor, name, elapsed):
        if anchor < 0:
            return
        agg = self.spans[anchor][5]
        if agg is None:
            agg = self.spans[anchor][5] = {}
        entry = agg.get(name)
        if entry is None:
            agg[name] = [1, elapsed]
        else:
            entry[0] += 1
            entry[1] += elapsed

    def _leaf(self, name, fn):
        stack, self_s, calls = self.stack, self.self_s, self.calls
        clock = time.perf_counter

        def traced(*args, **kw):
            t0 = clock()
            result = fn(*args, **kw)
            elapsed = clock() - t0
            key = (name, self.strategy)
            self_s[key] += elapsed
            calls[key] += 1
            if stack:
                parent = stack[-1]
                parent[0] += elapsed
                parent[2] += 1
                self._fold(parent[1], name, elapsed)
            return result
        return traced

    def _wrapper(self, name, fn, before=None, after=None):
        if name in LEAVES and before is None and after is None:
            return self._leaf(name, fn)
        stack, spans = self.stack, self.spans
        self_s, calls = self.self_s, self.calls
        folded = name in FOLDED
        clock = time.perf_counter

        def traced(*args, **kw):
            if before is not None:
                before(*args, **kw)
            parent = stack[-1] if stack else None
            anchor = parent[1] if parent is not None else -1
            if folded:
                frame = [0.0, anchor, 0]
            else:
                frame = [0.0, len(spans), 0]
                spans.append([name, 0.0, 0.0, anchor, self.run, None])
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kw)
            finally:
                t1 = clock()
                stack.pop()
                elapsed = t1 - t0
                key = (name, self.strategy)
                self_s[key] += elapsed - frame[0]
                calls[key] += 1
                if parent is not None:
                    parent[0] += elapsed
                    parent[2] += 1
                if folded:
                    self._fold(anchor, name, elapsed)
                else:
                    span = spans[frame[1]]
                    span[1] = t0 - self.origin
                    span[2] = t1 - self.origin
            if after is not None:
                after(result, frame, *args, **kw)
            return result
        return traced

    def install(self, patches: Patches, modules) -> None:
        m = modules
        partitions_seen = set()

        def begin_run(strategy, config, *rest, **kw):
            self.strategy = strategy.value
            self.run = f"{strategy.value}_{config.rng_seed}"
            partitions_seen.clear()

        def end_run(result, frame, *args, **kw):
            pool = result.pool
            if pool is not None:
                tables = {id(a.table): a.table for a in pool.agents.values()}
                self.counts[("q_entries", self.strategy)] += sum(
                    t.entry_count() for t in tables.values())

        def begin_aggregates(*args, **kw):
            self.strategy = None
            self.run = "aggregates"

        def after_partition(result, frame, participant_ids, topology,
                            target_size, rng=None):
            key = (tuple(sorted(participant_ids)), target_size)
            if key in partitions_seen:
                self.counts[("partition_repeats", self.strategy)] += 1
            partitions_seen.add(key)
            self.probe.ops[-1].partitions.append(
                key + ([list(c.member_ids) for c in result],))

        def after_best_response(result, frame, *args, **kw):
            op = self.probe.ops[-1]
            op.best_responses.append((len(op.rounds), result))
            self.counts[("br_passes", self.strategy)] += result.passes
            if not result.converged:
                self.counts[("br_fallbacks", self.strategy)] += 1

        def after_replay(result, frame, *args, **kw):
            # q_update is the only wrapped call replay_step makes.
            self.counts[("replayed", self.strategy)] += frame[2]

        def after_round(outcome, frame, *args, **kw):
            self.counts[("long_links", self.strategy)] += outcome.long_links

        targets = [
            (m.cli, "simulate", "strategies.simulate", begin_run, end_run),
            (m.cli, "write_aggregates", "cli.write_aggregates",
             begin_aggregates, None),
            (m.metrics, "read_rounds_csv", "metrics.read_rounds_csv",
             None, None),
            (m.metrics, "write_rounds_csv", "metrics.write_rounds_csv",
             None, None),
            (m.metrics, "write_summary_json", "metrics.write_summary_json",
             None, None),
            (m.metrics, "record_round", "metrics.record_round", None, None),
            (m.strategies, "make_world", "network.make_world", None, None),
            (m.strategies, "LearnerPool", "strategies.LearnerPool",
             None, None),
            (m.clustering, "build_hierarchy", "clustering.build_hierarchy",
             None, None),
            (m.clustering, "form_clusters", "clustering.form_clusters",
             None, after_partition),
            (m.game, "best_response_dynamics", "game.best_response_dynamics",
             None, after_best_response),
            (m.game, "select_head_by_utility", "game.select_head_by_utility",
             None, None),
            (m.learning, "observe_state", "learning.observe_state",
             None, None),
            (m.learning, "select_action", "learning.select_action",
             None, None),
            (m.learning, "q_update", "learning.q_update", None, None),
            (m.learning, "replay_step", "learning.replay_step",
             None, after_replay),
            (m.learning, "compute_round_reward",
             "learning.compute_round_reward", None, None),
        ]
        for attr in ROUND_FUNCTIONS.values():
            targets.append((m.strategies, attr, f"strategies.{attr}",
                            None, after_round))
        for module, attr, name, before, after in targets:
            patches.wrap(module, attr,
                         lambda fn, n=name, b=before, a=after:
                         self._wrapper(n, fn, b, a))

    def layer_self_seconds(self) -> dict:
        """Self seconds summed per module (the part of the name before the dot)."""
        out = defaultdict(float)
        for (name, _strategy), seconds in self.self_s.items():
            out[name.split(".", 1)[0]] += seconds
        return dict(out)

    def write(self, path, extra: dict) -> None:
        """Spans and counts as one JSON document."""
        doc = dict(extra)
        doc["span_fields"] = ["name", "start_s", "end_s", "parent", "run",
                              "folded_calls"]
        doc["spans"] = self.spans
        doc["calls"] = [[n, s, c] for (n, s), c in sorted(
            self.calls.items(), key=lambda kv: (kv[0][0], str(kv[0][1])))]
        doc["self_s"] = [[n, s, v] for (n, s), v in sorted(
            self.self_s.items(), key=lambda kv: (kv[0][0], str(kv[0][1])))]
        doc["counts"] = [[n, s, v] for (n, s), v in sorted(
            self.counts.items(), key=lambda kv: (kv[0][0], str(kv[0][1])))]
        with open(path, "w") as fh:
            json.dump(doc, fh)
