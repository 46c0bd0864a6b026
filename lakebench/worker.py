"""One benchmark run inside its own Ray session (started by ``run.py``).

Usage: ``python3 -m lakebench.worker --workload NAME --seed N --seconds S
--trace 0|1 --scratch DIR --ray-tmp DIR --num-cpus N --trace-dir DIR --result FILE``

Set-up (Ray start, then three repetitions of generating the inputs and
building the base lake, then the workload's warm-up) is timed apart from
the measured loop. The loop runs closed rounds until ``--seconds`` have
passed. With ``--trace 1`` even rounds run untraced and odd rounds
traced, so the tracing overhead is the difference of their medians.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import time
import traceback

from .procs import TOKEN_VAR, cpu_seconds, rss_bytes, tagged_pids
from .oracle import Oracle, OracleMismatch
from .spans import Tracer, median, tail

SETUP_REPS = 3
MIN_ROUNDS = 4

# per-layer metric -> unit; time metrics are "<span name>_s"
LAYER_TIMES = (
    "core.schema_evolution.conform", "core.merge.compact", "core.merge.merge_state",
    "core.partition.assign", "cdc.replay.replay", "cdc.replay.final_state_table",
    "cdc.incremental.ingest", "cdc.streaming.poll", "cdc.streaming.flush",
    "cdc.sink.write_partition", "cdc.sink.publish_epoch", "cdc.sink.latest_epoch",
    "cdc.compact.compact_lake", "ops.tokens.incremental_source_budget",
    "ops.tokens.source_budget_at",
)
LAYER_COUNTS = {
    "core.merge.compact_keep_ratio": "ratio", "core.partition.skew": "ratio",
    "cdc.replay.non_kernel_s": "s", "cdc.replay.hot_keys": "count",
    "cdc.replay.partitions_written": "count", "cdc.replay.partitions_inherited": "count",
    "cdc.incremental.routed_rows": "count", "cdc.streaming.backlog_max_shards": "count",
    "cdc.sink.bytes_written": "B", "cdc.sink.files_written": "count",
    "cdc.sink.lake_files": "count", "cdc.compact.bytes_rewritten": "B",
}


class Ctx:
    """Run-wide state shared by the workload steps."""

    def __init__(self, seed: int, scratch: str):
        self.seed = seed
        self.scratch = scratch
        self.tracer = Tracer(self.cpu)
        self.oracle = Oracle()
        self.attempted = 0
        self.failed = 0
        self.oracle_s = 0.0
        self.oracle_cpu_s = 0.0
        self.peak_rss = 0
        self._token = os.environ.get(TOKEN_VAR)

    def _run_pids(self) -> list[int]:
        return tagged_pids(self._token) if self._token else [os.getpid()]

    def cpu(self) -> float:
        """CPU seconds used so far by this process and the run's other processes."""
        me = os.getpid()
        return time.process_time() + cpu_seconds([p for p in self._run_pids() if p != me])

    def path(self, rel: str) -> str:
        return os.path.join(self.scratch, rel)

    def check(self, fn, *args, **kwargs):
        """Run oracle work outside every timed region; a mismatch is a failed op."""
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            return fn(*args, **kwargs)
        except OracleMismatch as e:
            self.fail(e)
        finally:
            self.oracle_s += time.perf_counter() - t0
            self.oracle_cpu_s += time.process_time() - c0

    def fail(self, exc: Exception):
        self.failed += 1
        raise exc

    def sample_rss(self) -> None:
        """Summed RSS of this process and every process the run started."""
        self.peak_rss = max(self.peak_rss, rss_bytes(self._run_pids()))


def start_ray(num_cpus: int, tmp: str, spill: str) -> None:
    import ray
    from ray.data import DataContext

    ray.init(
        num_cpus=num_cpus, include_dashboard=False, logging_level="ERROR", log_to_driver=False,
        object_store_memory=512 << 20, _temp_dir=tmp,
        _system_config={"object_spilling_config": json.dumps(
            {"type": "filesystem", "params": {"directory_path": spill}})},
    )
    DataContext.get_current().enable_progress_bars = False
    logging.getLogger("ray").setLevel(logging.ERROR)

    @ray.remote
    def noop():
        return None

    ray.get(noop.remote())


def e2e_metrics(samples, setup_s: float, peak_rss: int) -> dict:
    return {
        "setup_s": (setup_s, "s"),
        "events_per_cpu_s": (median(s.events / s.commit_cpu_s for s in samples), "events/cpu_s"),
        "read_cpu_s.p50": (median(s.read_cpu_s for s in samples), "s"),
        "write_bytes_per_event": (median(s.grown_bytes / s.events for s in samples), "B/event"),
        "peak_rss_mb": (peak_rss / (1 << 20), "MiB"),
    }


def timing_summary(samples) -> dict:
    """Median, tail and sample count of every per-round timing."""
    series = {k: [getattr(s, k) for s in samples]
              for k in ("commit_s", "commit_cpu_s", "read_s", "read_cpu_s")}
    for s in samples:
        for k, v in s.parts.items():
            series.setdefault(k, []).append(v)
    out = {}
    for k, vals in series.items():
        t = tail(vals)
        out[k] = {"n": len(vals), "p50": median(vals), "values": vals,
                  "tail_pct": t[0] if t else None, "tail": t[1] if t else None}
    return out


def layer_metrics(tracer: Tracer, setup: dict, samples, walls: dict) -> dict:
    out = {}
    for name in LAYER_TIMES:
        v = tracer.per_round_time(name)
        if v is None:
            raise RuntimeError(f"traced run recorded no {name} span")
        out[f"{name}_s"] = (v, "s")
    for name, unit in LAYER_COUNTS.items():
        v = tracer.per_round_count(name, max if name.endswith("max_shards") else median)
        if v is None:
            raise RuntimeError(f"traced run recorded no {name} count")
        out[name] = (v, unit)
    for name in ("ray_start_s", "gen_s", "base_lake_s"):
        out[f"bench.setup.{name}"] = (setup[name], "s")
    untraced = samples[::2]  # even rounds run without recording
    out["bench.commit_wall_s"] = (median(s.commit_s for s in untraced), "s")
    out["bench.read_wall_s"] = (median(s.read_s for s in untraced), "s")
    out["bench.trace.overhead_s"] = (median(walls[True]) - median(walls[False]), "s")
    return out


def run(args) -> dict:
    from .workloads import WORKLOADS

    ctx = Ctx(args.seed, args.scratch)
    tracer = ctx.tracer
    result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
    wl = None
    try:
        with tracer.span("bench.setup.ray_start", cpu=True) as ray_start:
            start_ray(args.num_cpus, args.ray_tmp, ctx.path("spill"))
        wl = WORKLOADS[args.workload](ctx)
        reps = []
        for i in range(SETUP_REPS):
            # only the last, warm repetition is traced: its lake is the one the loop uses
            last = i == SETUP_REPS - 1
            tracer.recording, tracer.round = bool(args.trace) and last, "setup"
            reps.append(wl.setup_rep(last=last))
        tracer.recording = False
        o0 = ctx.oracle_cpu_s
        with tracer.span("bench.setup.warm", cpu=True) as warm:
            wl.prepare()
        # set-up is reported in CPU seconds of the run's processes (see README)
        setup = {"ray_start_s": ray_start.cpu, "warm_s": warm.cpu - (ctx.oracle_cpu_s - o0),
                 "gen_s": median(g.cpu for g, _ in reps), "base_lake_s": median(b.cpu for _, b in reps),
                 "rep_s": [g.cpu + b.cpu for g, b in reps]}
        setup_s = setup["ray_start_s"] + median(setup["rep_s"]) + setup["warm_s"]
        ctx.sample_rss()

        samples, walls, rounds_s = [], {False: [], True: []}, []
        deadline = time.perf_counter() + args.seconds
        i = 0
        # no round starts that would, at the median round time, end past the deadline
        while i < MIN_ROUNDS or time.perf_counter() + median(rounds_s) <= deadline:
            tracer.recording = bool(args.trace) and i % 2 == 1
            tracer.round = i
            o0, t0 = ctx.oracle_s, time.perf_counter()
            with tracer.span("bench.round"):
                samples.append(wl.round(i))
            rounds_s.append(time.perf_counter() - t0)
            walls[tracer.recording].append(rounds_s[-1] - (ctx.oracle_s - o0))
            i += 1

        if args.trace:
            tracer.recording, tracer.round = True, "cover"
            wl.cover_layers()
        ctx.check(ctx.oracle.check_lake, wl.lake, full=True)

        if args.trace:
            metrics = layer_metrics(tracer, setup, samples, walls)
            os.makedirs(args.trace_dir, exist_ok=True)
            tracer.dump(os.path.join(args.trace_dir, f"trace-{args.workload}-seed{args.seed}.json"))
            result["self_time_report"] = tracer.report()
        else:
            metrics = e2e_metrics(samples, setup_s, ctx.peak_rss)
        result.update(
            correct=ctx.failed == 0,
            metrics={k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
            rounds=len(samples), timings=timing_summary(samples), setup=setup,
            oracle_checks=ctx.oracle.checks, oracle_s=ctx.oracle_s,
        )
    except Exception:
        ctx.failed = max(ctx.failed, 1)
        result["error"] = traceback.format_exc()
    finally:
        result["attempted"] = max(ctx.attempted, 1)
        result["failed"] = ctx.failed
        if wl is not None:
            wl.close()
        ctx.oracle.close()
        import ray

        ray.shutdown()
    return result


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scratch", required=True)
    ap.add_argument("--ray-tmp", required=True)
    ap.add_argument("--num-cpus", type=int, required=True)
    ap.add_argument("--trace-dir", required=True)
    ap.add_argument("--result", required=True)
    args = ap.parse_args()
    result = run(args)
    with open(args.result, "w") as f:
        json.dump(result, f)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
