"""Stateful incremental ingest: partition-applier ACTORS across epochs.

``replay()`` is the batch path: appliers are stateless shuffle tasks
that read prior state from Parquet each epoch. For high-frequency
micro-batches that re-read becomes the dominant cost, so this module
keeps the mutable per-partition state RESIDENT in a pool of Ray actors
across epochs — the analogue of the reference's long-lived parser
processes holding caches + Postgres connections (SURVEY §4.3), and the
documented exception where the Dataset API genuinely can't express the
semantics (a shared mutable index routed by key → raw ``@ray.remote``
actors; everything upstream is still a Dataset pipeline).

Flow per ``ingest(shards)``:
  Dataset: read → Normalize (conform, validate, partial compact, part)
  → map_batches(Router): split each block by owning actor, push the
    sub-tables into the actors (order-insensitive: LWW tolerates any
    arrival order within an epoch)
  → seal(epoch): every actor folds its buffers into resident state
    (tombstones applied) and 2PC-writes its partitions' Parquet files +
    manifests; driver publishes the epoch commit.

Crash recovery: actor state is a cache, not the source of truth — the
committed lake is. On restart, actors lazily reload their partitions
from the last committed epoch; a crashed epoch is simply re-ingested
(its staging files are discarded by the next publish, exactly like
replay(resume=False)).
"""

from __future__ import annotations

import glob
import os

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import ray
import ray.data as rd

from .._pickle import ensure_portable
from ..core import merge as M
from . import sink
from .replay import Normalize, _change_schema


def _router(norm: Normalize, actors: list, owner: dict[int, int]):
    """The Router stage: normalize one change batch, split it by owning
    actor and push each actor its per-partition sub-tables. Returns the
    map_batches fn; its output is one ``routed`` row-count row."""

    def route(batch: pa.Table) -> pa.Table:
        import numpy as np

        if not batch.num_rows:
            return pa.table({"routed": pa.array([0], pa.int64())})
        t = norm(batch)
        part_col = t["part"].to_numpy(zero_copy_only=False)
        # ONE argsort + run-boundary split: the previous form boxed
        # every row to a Python int and re-scanned the full batch
        # with a filter per distinct partition (O(P × rows))
        order = np.argsort(part_col, kind="stable")
        sorted_parts = part_col[order]
        bounds = np.flatnonzero(
            np.concatenate(([True], sorted_parts[1:] != sorted_parts[:-1])))
        idx = pa.array(order, pa.int64())
        by_actor: dict[int, dict[int, pa.Table]] = {}
        for i, s0 in enumerate(bounds.tolist()):
            e0 = bounds[i + 1] if i + 1 < len(bounds) else len(sorted_parts)
            p = int(sorted_parts[s0])
            sub = t.take(idx.slice(s0, int(e0) - s0)).drop_columns(["part"])
            by_actor.setdefault(owner[p], {})[p] = sub
        pending = [actors[a].submit.remote(sub) for a, sub in by_actor.items()]
        n = sum(ray.get(pending)) if pending else 0
        return pa.table({"routed": pa.array([n], pa.int64())})

    return route


@ray.remote
class PartitionApplier:
    """Owns a fixed subset of partitions; state resident between epochs."""

    def __init__(self, lake_dir: str, parts: list[int]):
        self.lake_dir = lake_dir
        self.parts = set(parts)
        self.state: dict[int, pa.Table | None] = {}
        self.buffers: dict[int, list[pa.Table]] = {p: [] for p in parts}
        #: lake epoch the resident state reflects (None = nothing cached)
        self.state_epoch: int | None = None

    def _load(self, part: int, prev: int | None) -> pa.Table | None:
        if part not in self.state:
            paths = sink.state_path_map(self.lake_dir, prev)
            self.state[part] = pq.read_table(paths[part]) if part in paths else None
        return self.state[part]

    def submit(self, tables: dict[int, pa.Table]) -> int:
        """Buffer change rows for my partitions (any arrival order)."""
        n = 0
        for part, t in tables.items():
            self.buffers[part].append(t)
            n += t.num_rows
        return n

    def reset(self) -> None:
        """Discard buffered rows AND the resident state cache.

        Called after a failed (never-committed) epoch: buffers may hold
        rows from the failed micro-batch and ``seal()`` may already have
        folded them into resident state — both would otherwise leak into
        the NEXT epoch's commit (at-least-once, not exactly-once). The
        committed lake is the source of truth; state lazily reloads from
        the last committed epoch on next use."""
        self.buffers = {p: [] for p in self.parts}
        self.state = {}
        self.state_epoch = None

    def seal(self, epoch: int, prev: int | None) -> list[dict]:
        """Fold buffers into resident state; 2PC-write changed partitions.

        ``prev`` is the committed epoch this seal builds on (pinned
        under the driver's epoch lock). If the resident cache reflects a
        DIFFERENT epoch — another writer (one-shot replay, compaction)
        committed in between — the cache is dropped and reloaded from
        ``prev``: folding onto stale resident state would silently
        revert the interleaved epoch's rows in the new commit."""
        if self.state_epoch is not None and self.state_epoch != prev:
            self.state = {}
        manifests = []
        for part in sorted(self.parts):
            bufs = self.buffers[part]
            if not bufs:
                continue
            changes = pa.concat_tables(bufs, promote_options="permissive")
            self.buffers[part] = []
            state = self._load(part, prev)
            new_state = M.merge_state(state, changes).sort_by("doc_id")
            self.state[part] = new_state
            m = sink.write_partition(
                self.lake_dir, epoch, sink.part_file(part), new_state,
                {"kind": "data", "part": part, "rows_in": int(changes.num_rows),
                 "max_lsn": int(pc.max(changes["lsn"]).as_py()),
                 "min_lsn": int(pc.min(changes["lsn"]).as_py()),
                 "tombstones": int(pc.sum(pc.equal(changes["op"], "d")).as_py() or 0)},
            )
            manifests.append({**m, "part": part})
        self.state_epoch = epoch
        return manifests


class IncrementalIngestor:
    """Micro-batch CDC ingest with actor-resident partition state."""

    def __init__(
        self,
        lake_dir: str,
        *,
        num_partitions: int = 64,
        num_actors: int = 4,
    ):
        ensure_portable()
        os.makedirs(lake_dir, exist_ok=True)
        prev = sink.latest_epoch(lake_dir)
        if prev is not None:
            num_partitions = sink.read_commit(lake_dir, prev)["num_partitions"]
        self.lake_dir = lake_dir
        self.P = num_partitions
        # leave headroom for the routing map tasks: actors each pin a CPU
        # for their lifetime, and a pool >= cluster CPUs deadlocks the
        # map_batches stage silently
        if ray.is_initialized():
            cpus = int(ray.cluster_resources().get("CPU", 4))
            num_actors = max(1, min(num_actors, cpus - 2 if cpus > 2 else 1))
        self.actors = []
        self.owner: dict[int, int] = {}
        for a in range(num_actors):
            parts = [p for p in range(num_partitions) if p % num_actors == a]
            self.actors.append(PartitionApplier.remote(lake_dir, parts))
            for p in parts:
                self.owner[p] = a

    def ingest(self, changes: str | list[str], *, derive=None) -> dict:
        """Apply one micro-batch (a set of change shards) as a new epoch.

        ``derive``, if given, is ``fn(files, epoch) -> dict[str, str]``:
        it runs INSIDE the epoch lock, after the appliers sealed and
        BEFORE the commit publishes (the flush-before-commit barrier of
        the reference's streaming exporter, datalake/streaming.py:99-121
        and :170-177 — flush all writers, THEN commit offsets). Whatever
        side-output tables it writes are recorded in the epoch commit
        under ``derived``; a crash before publish leaves them
        uncommitted, and the retry re-derives over the same shard set."""
        files = sorted(glob.glob(os.path.join(changes, "*.parquet"))) if isinstance(changes, str) else list(changes)
        with sink.EpochTxn(self.lake_dir) as txn:
            if txn.prev_commit is not None and txn.prev_commit["num_partitions"] != self.P:
                # a compact_lake(num_partitions=...) re-shard ran under a
                # LIVE ingestor: this ingestor's cached partition map no
                # longer matches the lake layout, and mixing the two would
                # scatter keys across both numberings. Fail loudly; the
                # operator restarts the watcher/ingestor, which adopts the
                # new layout at construction. (Checked under the lock so a
                # re-shard can't slip into the check-to-lock window.)
                raise RuntimeError(
                    f"ingest: lake was re-sharded to {txn.prev_commit['num_partitions']} "
                    f"partitions (this ingestor was built for {self.P}); restart the "
                    "ingestor to adopt the new layout"
                )
            try:
                return self._ingest_locked(files, txn, derive)
            except BaseException:
                # the epoch never committed, but rows may sit in actor buffers
                # and seal() may have mutated resident state — discard BOTH so
                # the re-ingest can't double-apply (exactly-once, not
                # at-least-once)
                try:
                    ray.get([a.reset.remote() for a in self.actors])
                except Exception:
                    pass  # actors dead → state is gone anyway; lake is truth
                raise

    def _ingest_locked(self, files: list[str], txn: sink.EpochTxn, derive=None) -> dict:
        _, unified, state_schema = _change_schema(files, self.lake_dir, txn.prev_epoch)
        norm = Normalize(unified, self.P, frozenset(), None)
        route = _router(norm, self.actors, self.owner)

        ds = rd.read_parquet(files)
        total_routed = sum(r["routed"] for r in ds.map_batches(route, batch_format="pyarrow").take_all())

        manifests = [m for ms in ray.get(
            [a.seal.remote(txn.epoch, txn.prev_epoch) for a in self.actors]) for m in ms]

        # side-output derivation runs BEFORE publish (seal-then-publish):
        # derived files exist on disk but are invisible to readers until
        # the commit lands with their paths
        derived = derive(files, txn.epoch) if derive is not None else {}

        commit = txn.publish(
            {m["part"]: m for m in manifests}, state_schema,
            num_partitions=self.P, inputs=[os.path.basename(f) for f in files],
            **({"derived": derived} if derived else {}),
        )
        return {"epoch": txn.epoch, "rows_total": commit["rows_total"], "routed": int(total_routed),
                "partitions_written": txn.partitions_written}

    def close(self) -> None:
        for a in self.actors:
            ray.kill(a)
        self.actors = []
