"""The three closed-loop workloads and the calls they time.

Each round starts only after the previous one's commit and reads have
returned. Every timed call goes to a public engine function; the oracle
checks each result after its timer has stopped.

- ``backfill``: replay one zipf-skewed, schema-evolving log into a fresh
  lake (normalize/conform, partial compaction, hot-key salting, the
  exchange and partition writes; one commit, no prior state).
- ``upsert``: a ``DirectoryWatcher`` drains one small uniform-key shard
  per epoch into a base lake (per-epoch fixed costs, routing into the
  applier actors, ``merge_state`` and rewriting every touched partition).
- ``serve``: each round commits a small zipf-skewed epoch with one-shot
  ``replay`` and then runs what a downstream reader runs: maintain the
  per-source view, recompute it in full and scan the snapshot; every
  third round also compacts the lake.

A traced run also pushes each commit's input through the engine's
per-batch kernels in-process (:func:`kernel_chain`), and afterwards runs
once any layer call the workload itself does not make, so that every
traced run reports every layer.
"""

from __future__ import annotations

import os
import shutil
from dataclasses import dataclass, field

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from ton_etl_ray.cdc import sink
from ton_etl_ray.cdc.compact import compact_lake
from ton_etl_ray.cdc.replay import final_state_table, replay
from ton_etl_ray.cdc.streaming import DirectoryWatcher
from ton_etl_ray.core import merge as M
from ton_etl_ray.core import partition as P
from ton_etl_ray.core.schema_evolution import conform, unify_schemas
from ton_etl_ray.ops.tokens import incremental_source_budget, source_budget_at

from .gen import Keyspace, write_log
from .oracle import OracleMismatch, committed_files

NUM_PARTITIONS = 16


@dataclass
class Sample:
    """One round: the commit, the reads after it, and how much the lake grew.
    ``*_s`` are wall seconds, ``*_cpu_s`` CPU seconds of the run's processes."""

    events: int
    grown_bytes: int
    commit_s: float
    commit_cpu_s: float
    read_s: float
    read_cpu_s: float
    parts: dict = field(default_factory=dict)


def dir_bytes(path: str) -> int:
    total = 0
    for root, _dirs, files in os.walk(path):
        for f in files:
            try:
                total += os.path.getsize(os.path.join(root, f))
            except FileNotFoundError:
                pass
    return total


def kernel_chain(tracer, files: list[str], lake: str, epoch: int, work_dir: str) -> float:
    """Push one commit's input through the public per-batch kernels
    without Ray: conform → compact → assign_partitions → merge_state →
    write_partition → publish_epoch, merging onto the lake's state
    before ``epoch`` and writing into a throwaway lake. Returns the
    kernels' total time."""
    prev = epoch - 1 if epoch > 0 and sink.is_committed(lake, epoch - 1) else None
    tables = [pq.read_table(f) for f in files]
    schemas = [t.schema for t in tables]
    if prev is not None:
        schemas.append(pa.schema([f for f in sink.lake_schema(lake, prev) if f.name != "lsn"]))
    unified = unify_schemas(schemas)
    prev_paths = sink.state_path_map(lake, prev)
    out = os.path.join(work_dir, "kernel-lake")
    shutil.rmtree(out, ignore_errors=True)
    spans = []
    with tracer.span("bench.kernel_chain"):
        with tracer.span("core.schema_evolution.conform") as s:
            batch = pa.concat_tables([conform(t, unified) for t in tables])
        spans.append(s)
        with tracer.span("core.merge.compact") as s:
            won = M.compact(batch, keep_tombstones=True)
        spans.append(s)
        tracer.count("core.merge.compact_keep_ratio", won.num_rows / max(1, batch.num_rows))
        won = won.drop_columns([c for c in ("ts_ms",) if c in won.column_names])
        with tracer.span("core.partition.assign") as s:
            part = P.assign_partitions(won["doc_id"], NUM_PARTITIONS)
        spans.append(s)
        per_part = np.bincount(part, minlength=NUM_PARTITIONS)
        tracer.count("core.partition.skew", per_part.max() / max(per_part.mean(), 1e-9))
        order = np.argsort(part, kind="stable")
        bounds = np.flatnonzero(np.diff(part[order])) + 1
        partitions = {}
        for idx in np.split(order, bounds):
            if not len(idx):
                continue
            p = int(part[idx[0]])
            sub = won.take(pa.array(idx))
            state = pq.read_table(prev_paths[p]) if p in prev_paths else None
            with tracer.span("core.merge.merge_state") as s:
                new_state = M.merge_state(state, sub).sort_by("doc_id")
            spans.append(s)
            with tracer.span("cdc.sink.write_partition") as s:
                m = sink.write_partition(out, epoch, sink.part_file(p), new_state, {
                    "kind": "data", "part": p, "rows_in": sub.num_rows, "tombstones": 0,
                    "max_lsn": int(sub["lsn"].to_numpy().max())})
            spans.append(s)
            partitions[str(p)] = {"path": os.path.join(f"epoch-{epoch:06d}", m["file"]),
                                  "rows": m["rows"], "max_lsn": m["max_lsn"]}
        state_schema = pa.schema([f for f in unified if f.name not in ("op", "ts_ms")])
        with tracer.span("cdc.sink.publish_epoch") as s:
            sink.publish_epoch(out, epoch, partitions, {"num_partitions": NUM_PARTITIONS}, state_schema)
        spans.append(s)
    shutil.rmtree(out, ignore_errors=True)
    return sum(s.elapsed for s in spans)


class Workload:
    """Shared set-up and steps; subclasses size the inputs and compose a round."""

    name = ""
    num_keys = 10_000
    base_events = 100_000
    base_shards = 8
    probe_batch = 5_000

    def __init__(self, ctx):
        self.ctx = ctx
        self.T = ctx.tracer
        self.oracle = ctx.oracle
        self.keys = Keyspace(ctx.seed, self.num_keys)
        self.lake = ctx.path("lake")
        self.base_files: list[str] = []
        self.watcher = None
        self.view = None
        self.view_epoch = None
        self.stream = 0
        self.next_lsn = 0

    # -- inputs ----------------------------------------------------------
    def new_log(self, n: int, dist: str, *, shards: int = 1, evolve_from: int = 0):
        d = self.ctx.path(f"in/log-{self.stream:06d}")
        shutil.rmtree(d, ignore_errors=True)
        files = write_log(d, self.keys, seed=self.ctx.seed, stream=self.stream, num_events=n,
                          lsn_start=self.next_lsn, num_shards=shards, dist=dist,
                          evolve_from_shard=evolve_from)
        self.stream += 1
        self.next_lsn += n
        return d, files

    def setup_rep(self, last: bool):
        """Generate the base log and replay it into a fresh lake; the
        first repetition also warms Ray's workers. Returns both spans."""
        self.stream = self.next_lsn = 0
        with self.T.span("bench.setup.gen", cpu=True) as g:
            log_dir, self.base_files = self.new_log(
                self.base_events, "zipf", shards=self.base_shards, evolve_from=self.base_shards // 2)
        shutil.rmtree(self.lake, ignore_errors=True)
        with self.T.span("bench.setup.base_lake", cpu=True) as b, self.T.span("cdc.replay.replay"):
            res = replay(log_dir, self.lake, num_partitions=NUM_PARTITIONS)
        if last:
            self.ctx.check(self.oracle.apply, self.base_files)
            self.ctx.check(self.oracle.check_lake, self.lake)
            self.trace_replay(res, self.base_files, b.elapsed)
        return g, b

    def prepare(self) -> None:
        """Workload-specific warm-up after the base lake."""

    # -- steps -----------------------------------------------------------
    def trace_commit(self, files: list[str], epoch: int) -> float:
        """Per-layer counts for a commit that just landed, plus the
        in-process kernel chain over its input. Traced runs only."""
        if not self.T.recording:
            return 0.0
        with self.T.span("cdc.sink.latest_epoch"):
            sink.latest_epoch(self.lake)
        edir = os.path.join(self.lake, f"epoch-{epoch:06d}")
        self.T.count("cdc.sink.files_written", sum(f.endswith(".parquet") for f in os.listdir(edir)))
        self.T.count("cdc.sink.bytes_written", dir_bytes(edir))
        self.T.count("cdc.sink.lake_files", len(committed_files(self.lake)))
        return kernel_chain(self.T, files, self.lake, epoch, self.ctx.path("work"))

    def trace_replay(self, res, files: list[str], wall: float) -> None:
        if not self.T.recording:
            return
        self.T.count("cdc.replay.hot_keys", len(res.hot_keys))
        self.T.count("cdc.replay.partitions_written", res.partitions_written)
        self.T.count("cdc.replay.partitions_inherited", res.partitions_inherited)
        self.T.count("cdc.replay.non_kernel_s", wall - self.trace_commit(files, res.epoch))

    def replay_step(self, log_dir: str, files: list[str]):
        """One-shot replay of a log as the lake's next epoch.
        Returns (epoch, its span, bytes the lake grew)."""
        before = dir_bytes(self.lake)
        self.ctx.attempted += 1
        with self.T.span("cdc.replay.replay", cpu=True) as s:
            res = replay(log_dir, self.lake, num_partitions=NUM_PARTITIONS)
        grown = dir_bytes(self.lake) - before
        self.ctx.sample_rss()
        self.ctx.check(self.oracle.apply, files)
        self.ctx.check(self.oracle.check_lake, self.lake, res.epoch)
        self.trace_replay(res, files, s.elapsed)
        return res.epoch, s, grown

    def scan_step(self):
        self.ctx.attempted += 1
        with self.T.span("cdc.replay.final_state_table", cpu=True) as s:
            table = final_state_table(self.lake)
        self.ctx.sample_rss()
        self.ctx.check(self.oracle.check_scan, table)
        return s

    def start_watcher(self) -> None:
        watch = self.ctx.path("watch")
        os.makedirs(watch, exist_ok=True)
        self.watcher = DirectoryWatcher(watch, self.lake, num_partitions=NUM_PARTITIONS,
                                        stable_polls=0, idle_flush_sec=0)
        ing, T = self.watcher.ing, self.T
        ingest = ing.ingest

        def traced_ingest(*args, **kwargs):
            with T.span("cdc.incremental.ingest"):
                res = ingest(*args, **kwargs)
            T.count("cdc.incremental.routed_rows", res["routed"])
            return res

        ing.ingest = traced_ingest

    def watch_step(self, n: int):
        """Rename one uniform-key shard into the watch directory, then poll
        and flush. Returns (the shard visible → epoch committed span, bytes grown)."""
        _, files = self.new_log(n, "uniform")
        shard = os.path.join(self.watcher.watch_dir, os.path.basename(files[0]))
        before = dir_bytes(self.lake)
        self.ctx.attempted += 1
        with self.T.span("bench.watch_commit", cpu=True) as commit:
            os.replace(files[0], shard)
            with self.T.span("cdc.streaming.poll"):
                self.watcher.poll()
            self.T.count("cdc.streaming.backlog_max_shards", len(self.watcher.pending))
            with self.T.span("cdc.streaming.flush"):
                res = self.watcher.flush()
        grown = dir_bytes(self.lake) - before
        self.ctx.sample_rss()
        self.ctx.check(self.oracle.apply, [shard])
        if res is None or sink.read_commit(self.lake, res["epoch"])["max_lsn"] != self.next_lsn - 1:
            self.ctx.fail(OracleMismatch(f"watcher epoch {res} did not commit through lsn {self.next_lsn - 1}"))
        self.ctx.check(self.oracle.check_lake, self.lake, res["epoch"])
        self.trace_commit([shard], res["epoch"])
        return commit, grown

    def views_step(self, epoch: int):
        """Maintain the per-source view from the previous epoch, then
        recompute it in full. Returns both spans."""
        self.ctx.attempted += 2
        with self.T.span("ops.tokens.incremental_source_budget", cpu=True) as a:
            view = incremental_source_budget(self.lake, self.view, self.view_epoch, epoch)
        with self.T.span("ops.tokens.source_budget_at", cpu=True) as b:
            full = source_budget_at(self.lake, epoch)
        self.ctx.sample_rss()
        self.ctx.check(self.oracle.check_view, "maintained view", view, self.lake, epoch)
        self.ctx.check(self.oracle.check_view, "recomputed view", full, self.lake, epoch)
        self.view, self.view_epoch = view, epoch
        return a, b

    def compact_step(self):
        self.ctx.attempted += 1
        with self.T.span("cdc.compact.compact_lake", cpu=True) as s:
            commit = compact_lake(self.lake)
        self.ctx.sample_rss()
        self.T.count("cdc.compact.bytes_rewritten",
                     dir_bytes(os.path.join(self.lake, f"epoch-{commit['epoch']:06d}")))
        self.ctx.check(self.oracle.check_lake, self.lake, commit["epoch"])
        return s

    def cover_layers(self) -> None:
        """Traced runs only: call once each layer the workload's own
        rounds never reached, so every traced run reports every layer."""
        if not self.T.has("cdc.streaming.flush"):
            self.start_watcher()
            for _ in range(3):  # the first epoch also starts the applier actors
                self.watch_step(self.probe_batch)
        if not self.T.has("ops.tokens.incremental_source_budget"):
            latest = sink.latest_epoch(self.lake)
            self.view_epoch = latest - 1
            self.view = source_budget_at(self.lake, self.view_epoch)
            self.views_step(latest)
        if not self.T.has("cdc.compact.compact_lake"):
            self.compact_step()

    def round(self, i: int) -> Sample:
        raise NotImplementedError

    def close(self) -> None:
        if self.watcher is not None:
            self.watcher.close()
            self.watcher = None


class Backfill(Workload):
    name = "backfill"
    num_keys = 30_000
    base_events = 300_000

    def prepare(self) -> None:
        self.log_dir = os.path.dirname(self.base_files[0])

    def round(self, i: int) -> Sample:
        shutil.rmtree(self.lake, ignore_errors=True)
        self.ctx.attempted += 1
        with self.T.span("cdc.replay.replay", cpu=True) as s:
            res = replay(self.log_dir, self.lake, num_partitions=NUM_PARTITIONS)
        grown = dir_bytes(self.lake)
        self.ctx.sample_rss()
        self.ctx.check(self.oracle.check_lake, self.lake, res.epoch)
        self.trace_replay(res, self.base_files, s.elapsed)
        scan = self.scan_step()
        return Sample(self.base_events, grown, s.elapsed, s.cpu, scan.elapsed, scan.cpu)


class Upsert(Workload):
    name = "upsert"
    batch = 5_000
    warm_epochs = 2

    def prepare(self) -> None:
        self.start_watcher()
        for _ in range(self.warm_epochs):
            self.watch_step(self.batch)

    def round(self, i: int) -> Sample:
        commit, grown = self.watch_step(self.batch)
        scan = self.scan_step()
        return Sample(self.batch, grown, commit.elapsed, commit.cpu, scan.elapsed, scan.cpu)


class Serve(Workload):
    name = "serve"
    epoch_events = 10_000
    compact_every = 3

    def prepare(self) -> None:
        self.view_epoch = sink.latest_epoch(self.lake)
        self.view = source_budget_at(self.lake, self.view_epoch)
        self.round(-1)

    def round(self, i: int) -> Sample:
        log_dir, files = self.new_log(self.epoch_events, "zipf")
        epoch, commit, grown = self.replay_step(log_dir, files)
        reads = [*self.views_step(epoch), self.scan_step()]
        parts = {f"{k}_s": s.elapsed for k, s in zip(("view_refresh", "view_recompute", "snapshot_scan"), reads)}
        if i % self.compact_every == self.compact_every - 1:
            parts["compact_s"] = self.compact_step().elapsed
        return Sample(self.epoch_events, grown, commit.elapsed, commit.cpu,
                      sum(s.elapsed for s in reads), sum(s.cpu for s in reads), parts)


WORKLOADS = {w.name: w for w in (Backfill, Upsert, Serve)}
