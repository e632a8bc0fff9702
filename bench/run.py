"""Layered benchmark of the wsn-lab simulator.

    python3 bench/run.py --workload paper-default --seed 1 --seconds 30 --trace 0

Runs the workload's scenario through the public entry point
`cli.run_scenario(spec, jobs=1)`, into a fresh directory under `.bench_out/`,
repeatedly for about `--seconds` (at least once). An operation is one
(strategy, seed) run; it fails if it raises or if a check in `checks.py`
rejects its output. With `--trace 0` the last line of standard output is a
JSON object with the end-to-end metrics; with `--trace 1` the scenario runs
once untraced and once traced, the trace is written to `.bench_out/`, and
the JSON object holds the per-layer metrics. See README.md in this
directory for what each metric should move.

`python3 bench/run.py --digests` prints the sha256 list kept in the README.
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import json
import os
import random
import re
import resource
import shutil
import statistics
import sys
import tempfile
import time
import types
from collections import Counter
from pathlib import Path

import checks
import speed
from tracer import ROUND_FUNCTIONS, Patches, RoundProbe, Tracer

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
README = Path(__file__).resolve().parent / "README.md"
SETUP_SAMPLES = 5

STRATEGIES = ("full-rl", "full-gt", "gt-rl", "rl-gt", "baseline")
CLUSTERED = STRATEGIES[:4]
LEARNING = ("full-rl", "gt-rl", "rl-gt")

# name -> scenario. Every field not given keeps its default; see README.md
# for why each workload was chosen. The network seeds are fixed: per-strategy
# round times differ by up to 3x from one layout to another, far more than
# any bound could absorb. large-field has 500 nodes, not 1000: at 1000 one
# scenario run takes about 22 s, so a 30 s run measures each strategy over
# two rounds inside a window of a second or two, and a slow stretch of the
# machine moved the gt-rl median by up to 26% from run to run. At 500 eight
# or nine scenario runs fit, and each strategy's rounds are spread over the
# whole run.
WORKLOADS = {
    "paper-default": {"network": {"round_count": 120}, "seeds": [42]},
    "large-field": {"network": {"node_count": 500,
                                "comm_range_fraction": 0.2,
                                "round_count": 2},
                    "seeds": [42]},
    "depletion": {"network": {"initial_energy": 0.05, "round_count": 400},
                  "learning": {"shared_table": False},
                  "seeds": [42, 43, 44]},
}

END_TO_END = [("setup_s", "s")] + [
    (f"round_ms.{s}", "ms") for s in STRATEGIES] + [
    ("node_rounds_per_s", "1/s"), ("scenario_s", "s"),
    ("peak_rss_mb", "MiB")]


def per_layer_units() -> dict:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for s in CLUSTERED:
        units[f"clustering.form_clusters_ms.{s}"] = "ms"
        units[f"clustering.form_clusters_calls.{s}"] = "count"
        units[f"clustering.build_hierarchy_self_ms.{s}"] = "ms"
        units[f"clustering.partition_repeat_ratio.{s}"] = "ratio"
    for s in ("full-gt", "gt-rl"):
        units[f"game.best_response_ms.{s}"] = "ms"
        units[f"game.best_response_passes.{s}"] = "count"
        units[f"game.best_response_fallbacks.{s}"] = "count"
    for s in ("full-gt", "rl-gt"):
        units[f"game.select_head_by_utility_ms.{s}"] = "ms"
    for s in LEARNING:
        for fn in ("observe_state", "select_action", "q_update",
                   "replay_step"):
            units[f"learning.{fn}_ms.{s}"] = "ms"
    for s in LEARNING + ("full-gt",):
        units[f"learning.compute_round_reward_ms.{s}"] = "ms"
    for s in LEARNING:
        units[f"learning.q_update_calls.{s}"] = "count"
        units[f"learning.replay_experiences_per_call.{s}"] = "count"
        units[f"learning.q_entries.{s}"] = "count"
    for s in STRATEGIES:
        units[f"strategies.round_self_ms.{s}"] = "ms"
    for s in CLUSTERED:
        units[f"strategies.long_links.{s}"] = "count"
    for s in STRATEGIES:
        units[f"metrics.record_round_ms.{s}"] = "ms"
    units["metrics.write_run_ms"] = "ms"
    units["cli.write_aggregates_ms"] = "ms"
    units["cli.read_rounds_csv_calls"] = "count"
    units["network.make_world_ms"] = "ms"
    units["trace.overhead_s"] = "s"
    return units


class BenchError(Exception):
    """The benchmark cannot run here."""


def load_program():
    """Import wsn_lab from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "wsn_lab" / "__init__.py").is_file():
        raise BenchError(f"no wsn_lab sources under {src}")
    sys.path.insert(0, str(src))
    import wsn_lab
    from wsn_lab import (cli, clustering, game, learning, metrics, network,
                         strategies)
    if Path(wsn_lab.__file__).resolve().parent != (src / "wsn_lab").resolve():
        raise BenchError(f"wsn_lab imported from {wsn_lab.__file__}")
    return types.SimpleNamespace(cli=cli, clustering=clustering, game=game,
                                 learning=learning, metrics=metrics,
                                 network=network, strategies=strategies)


def scenario(workload: str, seed: int) -> dict:
    """The workload's scenario, with its strategies in an order drawn from
    `seed`. The order must change no output file."""
    data = copy.deepcopy(WORKLOADS[workload])
    order = list(STRATEGIES)
    random.Random(seed).shuffle(order)
    data["strategies"] = order
    return data


class Rep:
    """One run_scenario call and what the probe saw during it. `wall_s`
    excludes the probe's own speed readings; `peak_rss_mb` is the process's
    peak resident memory when the call returned."""

    def __init__(self, out_dir: Path, ops: list, wall_s: float, attempted,
                 failures):
        self.out_dir = out_dir
        self.ops = ops
        self.wall_s = wall_s
        self.attempted = attempted
        self.failures = failures
        self.peak_rss_mb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0)

    @property
    def scale(self) -> float:
        """The operations' speed factors, weighted by their simulate time."""
        total = sum(op.simulate_s for op in self.ops)
        return sum(op.scale * op.simulate_s for op in self.ops) / total


def run_rep(mods, data: dict, traced: bool) -> tuple:
    """Run the scenario once into a fresh directory; returns (rep, tracer)."""
    OUT.mkdir(exist_ok=True)
    out_dir = Path(tempfile.mkdtemp(prefix="rep-", dir=OUT))
    spec = mods.cli.parse_scenario(dict(data, output_dir=str(out_dir)))
    probe = RoundProbe()
    tracer = Tracer(probe) if traced else None
    with Patches() as patches:
        if tracer is not None:
            tracer.install(patches, mods)
        probe.install(patches, mods)
        t0 = time.perf_counter()
        try:
            _summaries, failures = mods.cli.run_scenario(spec, jobs=1)
        except Exception as exc:  # the whole call failed: every op fails
            failures = [(s.value, sd, repr(exc)) for s in spec.strategies
                        for sd in spec.seeds]
        wall = time.perf_counter() - t0 - probe.calibration_s
    attempted = len(spec.strategies) * len(spec.seeds)
    return Rep(out_dir, probe.ops, wall, attempted, failures), tracer


def check_op(mods, op, out_dir: Path) -> list:
    """Every check that reads one operation's captures and files."""
    if op.result is None or op.world is None:
        return ["run raised"]
    strategy, config, energy_model, params, weights = op.args
    field = checks.Field.from_world(op.world)
    stem = out_dir / f"{op.strategy}_{op.seed}"
    rows = checks.read_rows(f"{stem}_rounds.csv")
    with open(f"{stem}_summary.json") as fh:
        summary = json.load(fh)
    errors = checks.check_series(rows, summary, config.node_count)
    if len(rows) != len(op.round_spans):
        errors.append(f"{len(rows)} CSV rows for {len(op.round_spans)} "
                      f"rounds")
    for cap, row in zip(op.rounds, rows):
        t = row["round"]
        errors += [f"round {t}: {e}" for e in checks.check_row_energies(
            row, cap.post, config.initial_energy)]
        mean_delay = float(row["mean_delay"])
        if strategy.value == "baseline":
            errors += [f"round {t}: {e}" for e in
                       checks.check_baseline_delay(field, cap.pre, mean_delay)]
            if float(row["round_reward"]) != 0.0:
                errors.append(f"round {t}: baseline round_reward "
                              f"{row['round_reward']}")
            continue
        h = cap.outcome.hierarchy
        stages, final = checks.stages_of(h), h.final_transmitter
        alive = checks.alive_ids(cap.pre)
        for check in (
                checks.check_hierarchy(alive, stages, final),
                checks.check_ledger(field, cap.pre, cap.post, stages, final),
                checks.check_reward(cap.pre, stages, final,
                                    float(row["round_reward"]))):
            errors += [f"round {t}: {e}" for e in check]
    for ids, target, clusters in op.partitions:
        errors += checks.check_partition(ids, target, clusters)
    cap_n = mods.network.DEFAULT_NEIGHBOR_CAP
    for index, br in op.best_responses:
        if br.converged:
            errors += [f"round {index + 1}: {e}" for e in
                       checks.check_best_response(
                           field, op.rounds[index].pre, br.profile, weights,
                           cap_n)]
    pool = op.result.pool
    if pool is not None:
        tables = list({id(a.table): a.table
                       for a in pool.agents.values()}.values())
        bound = mods.learning.state_space_bound(
            neighbor_cap=cap_n, stage_cap=config.stage_count)
        errors += checks.check_q_tables(tables, params.discount_factor, bound)
    return errors


def check_aggregates(rep: Rep) -> list:
    runs = {}
    for op in rep.ops:
        path = rep.out_dir / f"{op.strategy}_{op.seed}_rounds.csv"
        runs.setdefault(op.strategy, []).append(checks.read_rows(path))
    if not runs:
        return []
    figs = [checks.read_rows(rep.out_dir / f"figdata_{name}.csv")
            for name in ("active_sensors", "success_rate")]
    return checks.check_figdata(figs, runs)


def check_rep(mods, rep: Rep, log) -> tuple:
    """Returns (number of failed operations, whether every check passed)."""
    failed_keys = {(s, sd) for s, sd, _err in rep.failures}
    for s, sd, err in rep.failures:
        log(f"FAILED {s} seed {sd}: {err}")
    correct = True
    for op in rep.ops:
        if (op.strategy, op.seed) in failed_keys:
            continue
        errors = check_op(mods, op, rep.out_dir)
        if errors:
            correct = False
            failed_keys.add((op.strategy, op.seed))
            log(f"CHECK FAILED {op.strategy} seed {op.seed}: "
                f"{len(errors)} error(s); first: {errors[0]}")
    aggregate_errors = check_aggregates(rep)
    if aggregate_errors:
        correct = False
        log(f"CHECK FAILED aggregates: {aggregate_errors[0]}")
    return len(failed_keys), correct


def run_files(rep: Rep) -> dict:
    """name -> bytes of every run's rounds CSV and summary JSON."""
    out = {}
    for op in rep.ops:
        for suffix in ("rounds.csv", "summary.json"):
            name = f"{op.strategy}_{op.seed}_{suffix}"
            path = rep.out_dir / name
            if path.is_file():
                out[name] = path.read_bytes()
    return out


def listed_digests() -> dict:
    pattern = re.compile(r"^([0-9a-f]{64})  (\S+)$")
    listed = {}
    for line in README.read_text().splitlines():
        m = pattern.match(line)
        if m:
            listed[m.group(2)] = m.group(1)
    return listed


def report_digests(workload: str, files: dict, log) -> None:
    """Compare with the README's list; a mismatch is reported, not failed,
    since a change that corrects the method must be able to change them."""
    listed = listed_digests()
    mismatched = [name for name, data in sorted(files.items())
                  if listed.get(f"{workload}/{name}")
                  != hashlib.sha256(data).hexdigest()]
    if mismatched:
        log(f"digests: {len(mismatched)} differ from README.md: "
            + ", ".join(mismatched))
    else:
        log(f"digests: all {len(files)} match README.md")


def setup_seconds(mods, reps: list) -> float:
    """Per operation, the median of SETUP_SAMPLES timings of the set-up
    calls simulate makes (its own, topped up with the same calls made
    standalone); summed over the operations of one scenario."""
    samples = {}
    for rep in reps:
        for op in rep.ops:
            samples.setdefault((op.strategy, op.seed), (op, []))[1].append(
                op.setup_seconds())
    st = mods.strategies
    standalone = []
    before = speed.reading()
    for op, times in samples.values():
        strategy, config, energy_model, params, _weights = op.args
        for _ in range(SETUP_SAMPLES - len(times)):
            t0 = time.perf_counter()
            world = st.make_world(config, energy_model)
            if strategy in st.RL_BEARING:
                st.LearnerPool([nd.id for nd in world.nodes], params)
            standalone.append((times, time.perf_counter() - t0))
    if standalone:
        scale = speed.REFERENCE_S / ((before + speed.reading()) / 2)
        for times, seconds in standalone:
            times.append(seconds * scale)
    return sum(statistics.median(times) for _op, times in samples.values())


def end_to_end(mods, reps: list, log) -> dict:
    values = {"setup_s": setup_seconds(mods, reps)}
    for s in STRATEGIES:
        times = [t for rep in reps for op in rep.ops if op.strategy == s
                 for t in op.round_seconds()]
        if not times:
            raise BenchError(f"no round of {s} completed")
        values[f"round_ms.{s}"] = 1000.0 * statistics.median(times)
        log(f"round_ms.{s}: median of {len(times)} rounds")
    rates = []
    for rep in reps:
        rates.append(sum(op.node_rounds for op in rep.ops)
                     / sum(op.simulate_s * op.scale for op in rep.ops))
    values["node_rounds_per_s"] = statistics.median(rates)
    values["scenario_s"] = statistics.median(rep.wall_s * rep.scale
                                             for rep in reps)
    log("machine speed factors: " + " ".join(
        f"{op.scale:.3f}" for rep in reps for op in rep.ops))
    # After the first scenario run, so the figure does not depend on how
    # many repetitions fit in the run.
    values["peak_rss_mb"] = reps[0].peak_rss_mb
    log(f"scenario_s, node_rounds_per_s: median of {len(reps)} scenario runs")
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END}


def per_layer(tracer: Tracer, rep: Rep, overhead_s: float) -> dict:
    rounds = Counter()
    ops = Counter()
    for op in rep.ops:
        rounds[op.strategy] += len(op.round_spans)
        ops[op.strategy] += 1
    self_s, calls, counts = tracer.self_s, tracer.calls, tracer.counts

    def per_round_ms(name, s):
        return 1000.0 * self_s.get((name, s), 0.0) / max(rounds[s], 1)

    def total(name):
        return sum(v for (n, _s), v in self_s.items() if n == name)

    def ncalls(name):
        return sum(v for (n, _s), v in calls.items() if n == name)

    v = {}
    for s in CLUSTERED:
        v[f"clustering.form_clusters_ms.{s}"] = per_round_ms(
            "clustering.form_clusters", s)
        v[f"clustering.form_clusters_calls.{s}"] = calls[
            ("clustering.form_clusters", s)]
        v[f"clustering.build_hierarchy_self_ms.{s}"] = per_round_ms(
            "clustering.build_hierarchy", s)
        v[f"clustering.partition_repeat_ratio.{s}"] = (
            counts[("partition_repeats", s)]
            / max(calls[("clustering.form_clusters", s)], 1))
        v[f"strategies.long_links.{s}"] = (counts[("long_links", s)]
                                           / max(rounds[s], 1))
    for s in ("full-gt", "gt-rl"):
        br = calls[("game.best_response_dynamics", s)]
        v[f"game.best_response_ms.{s}"] = per_round_ms(
            "game.best_response_dynamics", s)
        v[f"game.best_response_passes.{s}"] = (counts[("br_passes", s)]
                                               / max(br, 1))
        v[f"game.best_response_fallbacks.{s}"] = counts[("br_fallbacks", s)]
    for s in ("full-gt", "rl-gt"):
        v[f"game.select_head_by_utility_ms.{s}"] = per_round_ms(
            "game.select_head_by_utility", s)
    for s in LEARNING:
        for fn in ("observe_state", "select_action", "q_update",
                   "replay_step"):
            v[f"learning.{fn}_ms.{s}"] = per_round_ms(f"learning.{fn}", s)
        v[f"learning.q_update_calls.{s}"] = calls[("learning.q_update", s)]
        v[f"learning.replay_experiences_per_call.{s}"] = (
            counts[("replayed", s)]
            / max(calls[("learning.replay_step", s)], 1))
        v[f"learning.q_entries.{s}"] = counts[("q_entries", s)] / max(ops[s], 1)
    for s in LEARNING + ("full-gt",):
        v[f"learning.compute_round_reward_ms.{s}"] = per_round_ms(
            "learning.compute_round_reward", s)
    for s in STRATEGIES:
        v[f"strategies.round_self_ms.{s}"] = per_round_ms(
            f"strategies.{ROUND_FUNCTIONS[s]}", s)
        v[f"metrics.record_round_ms.{s}"] = per_round_ms(
            "metrics.record_round", s)
    v["metrics.write_run_ms"] = 1000.0 * (
        total("metrics.write_rounds_csv")
        + total("metrics.write_summary_json")) / max(sum(ops.values()), 1)
    v["cli.write_aggregates_ms"] = 1000.0 * total("cli.write_aggregates")
    v["cli.read_rounds_csv_calls"] = ncalls("metrics.read_rounds_csv")
    v["network.make_world_ms"] = (1000.0 * total("network.make_world")
                                  / max(ncalls("network.make_world"), 1))
    v["trace.overhead_s"] = overhead_s
    return {name: {"value": v[name], "unit": unit}
            for name, unit in per_layer_units().items()}


def print_layers(tracer: Tracer, log) -> None:
    log("self seconds per layer (traced run):")
    for layer, seconds in sorted(tracer.layer_self_seconds().items(),
                                 key=lambda kv: -kv[1]):
        log(f"  {layer:<12} {seconds:10.4f} s")
    log("self seconds per wrapped function and strategy:")
    for (name, s), seconds in sorted(tracer.self_s.items(),
                                     key=lambda kv: -kv[1]):
        log(f"  {name:<36} {str(s):<9} {seconds:10.4f} s  "
            f"{tracer.calls[(name, s)]:>9} calls")


def finish_rep(mods, rep: Rep, log) -> tuple:
    """Check a repetition, read its run files and delete its directory.
    Returns (failed operations, checks passed, run files)."""
    failed, correct = check_rep(mods, rep, log)
    files = run_files(rep)
    shutil.rmtree(rep.out_dir, ignore_errors=True)
    for op in rep.ops:
        op.release()
    return failed, correct, files


def measure(mods, workload, data, seconds, log) -> dict:
    """Timed runs of the scenario `data` for about `seconds`."""
    reps = []
    attempted = failed = 0
    correct = True
    measured = 0.0
    # Start another repetition only while it would end less than half a
    # repetition past `seconds`, so a long scenario is not run twice for a
    # few seconds of budget.
    while not reps or measured * (1 + 0.5 / len(reps)) <= seconds:
        rep, _ = run_rep(mods, data, traced=False)
        measured += rep.wall_s
        rep_failed, rep_correct, files = finish_rep(mods, rep, log)
        attempted += rep.attempted
        failed += rep_failed
        correct &= rep_correct
        if not reps:
            first_files = files
            report_digests(workload, files, log)
        elif files != first_files:
            correct = False
            log("CHECK FAILED: a repeated scenario wrote different files")
        reps.append(rep)
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": end_to_end(mods, reps, log)}


def measure_traced(mods, workload, data, seed, log) -> dict:
    """One untraced and one traced run of the scenario `data`."""
    plain, _ = run_rep(mods, data, traced=False)
    traced, tracer = run_rep(mods, data, traced=True)
    f1, c1, plain_files = finish_rep(mods, plain, log)
    f2, c2, traced_files = finish_rep(mods, traced, log)
    correct = c1 and c2
    report_digests(workload, plain_files, log)
    differing = sorted(n for n in set(plain_files) | set(traced_files)
                       if plain_files.get(n) != traced_files.get(n))
    if differing:
        correct = False
        log("CHECK FAILED: traced and untraced runs differ in "
            + ", ".join(differing))
    overhead = traced.wall_s - plain.wall_s
    log(f"tracing overhead: {overhead:.3f} s (traced {traced.wall_s:.3f} s, "
        f"untraced {plain.wall_s:.3f} s)")
    print_layers(tracer, log)
    trace_path = OUT / f"trace-{workload}-seed{seed}.json"
    tracer.write(trace_path, {"workload": workload, "seed": seed,
                              "scenario": data,
                              "traced_wall_s": traced.wall_s,
                              "untraced_wall_s": plain.wall_s})
    log(f"trace written to {os.path.relpath(trace_path)}")
    return {"correct": correct, "attempted": plain.attempted + traced.attempted,
            "failed": f1 + f2, "metrics": per_layer(tracer, traced, overhead)}


def print_digests(mods) -> None:
    for workload in WORKLOADS:
        rep, _ = run_rep(mods, scenario(workload, 1), traced=False)
        for name, data in sorted(run_files(rep).items()):
            print(f"{hashlib.sha256(data).hexdigest()}  {workload}/{name}")
        shutil.rmtree(rep.out_dir, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--digests", action="store_true",
                        help="print the README's digest list and exit")
    args = parser.parse_args(argv)

    def log(msg):
        print(msg, flush=True)

    try:
        mods = load_program()
    except (BenchError, ImportError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    if args.digests:
        print_digests(mods)
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    data = scenario(args.workload, args.seed)
    try:
        result = (measure_traced(mods, args.workload, data, args.seed, log)
                  if args.trace else
                  measure(mods, args.workload, data, args.seconds, log))
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    if not args.trace:
        for name, m in result["metrics"].items():
            log(f"{name}: {m['value']:.6g} {m['unit']}")
    log(f"operations: {result['attempted']} attempted, "
        f"{result['failed']} failed; checks "
        f"{'passed' if result['correct'] else 'FAILED'}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
