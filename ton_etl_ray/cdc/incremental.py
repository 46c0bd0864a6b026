"""Micro-batch CDC ingest: the watcher's epoch writer.

``IncrementalIngestor.ingest(shards)`` commits one micro-batch as one
lake epoch through the commit path of ``replay()``
(``replay._apply_changes`` → ``replay.partition_apply``): below one read
block of input plus touched state (``ops._util.BLOCK_BYTES``) the epoch
runs in-process — ``Normalize`` per shard, one combine across the
shards and a group by reducer unit on the driver, ``commit_partition``
per run of adjacent touched units — and
above it through the Ray Data exchange ``replay()`` would pick.

No state is kept between epochs: each epoch merges onto the committed
head its ``EpochTxn`` pinned under the epoch lock. So an interleaved
writer (a one-shot replay, a compaction) is never reverted, and a
failed epoch leaves nothing behind but staging, which the retry
clears (exactly-once over shard sets; the committed lake is the only
source of truth).
"""

from __future__ import annotations

import os

from .._pickle import ensure_portable
from . import sink
from .replay import Layout, _apply_changes, _discover, epoch_counters


class IncrementalIngestor:
    """Micro-batch CDC ingest onto a lake, one epoch per ``ingest``."""

    def __init__(self, lake_dir: str, *, num_partitions: int = 64):
        ensure_portable()
        os.makedirs(lake_dir, exist_ok=True)
        prev = sink.latest_epoch(lake_dir)
        if prev is not None:
            num_partitions = sink.read_commit(lake_dir, prev)["num_partitions"]
        self.lake_dir = lake_dir
        self.P = num_partitions

    def ingest(self, changes: str | list[str], *, derive=None) -> dict:
        """Apply one micro-batch (a set of change shards) as a new epoch.

        ``derive``, if given, is ``fn(files, epoch) -> dict[str, str]``:
        it runs INSIDE the epoch lock, after every partition is written
        and BEFORE the commit publishes (the flush-before-commit barrier
        of the reference's streaming exporter,
        datalake/streaming.py:99-121 and :170-177 — flush all writers,
        THEN commit offsets). Whatever side-output tables it writes are
        recorded in the epoch commit under ``derived``; a crash before
        publish leaves them uncommitted, and the retry re-derives over
        the same shard set.

        Returns ``epoch``, ``rows_total``, ``max_lsn``, ``partitions_written``,
        ``routed`` (change rows that reached a partition merge) and
        ``replay()``'s counters: ``rows_in`` (= ``routed``),
        ``tombstones`` and ``plan``."""
        files = _discover(changes)
        with sink.EpochTxn(self.lake_dir) as txn:
            if txn.prev_commit is not None and txn.prev_commit["num_partitions"] != self.P:
                # a compact_lake(num_partitions=...) re-shard ran under a
                # LIVE ingestor: this ingestor's partition count no longer
                # matches the lake layout, and mixing the two would scatter
                # keys across both numberings. Fail loudly; the operator
                # restarts the watcher/ingestor, which adopts the new layout
                # at construction. (Checked under the lock so a re-shard
                # can't slip into the check-to-lock window.)
                raise RuntimeError(
                    f"ingest: lake was re-sharded to {txn.prev_commit['num_partitions']} "
                    f"partitions (this ingestor was built for {self.P}); restart the "
                    "ingestor to adopt the new layout"
                )
            written, state_schema, meta = _apply_changes(
                files, self.lake_dir, txn, Layout(self.lake_dir, txn.prev_commit, self.P))
            # side outputs are derived BEFORE publish: their files exist on
            # disk but stay invisible until the commit lands with their paths
            derived = derive(files, txn.epoch) if derive is not None else {}
            commit = txn.publish(
                written, state_schema, num_partitions=self.P, **meta,
                inputs=[os.path.basename(f) for f in files],
                **({"derived": derived} if derived else {}),
            )
            counters = epoch_counters(written, meta["plan"])
            return {"epoch": txn.epoch, "rows_total": commit["rows_total"],
                    "max_lsn": commit["max_lsn"],
                    "partitions_written": txn.partitions_written,
                    "routed": counters["rows_in"], **counters}
