"""Lake compaction — the lakehouse OPTIMIZE step.

After many incremental epochs, the committed state is scattered across
per-epoch part files (each epoch rewrites only the partitions it
touched and inherits the rest by reference), so reads fan out over the
whole epoch history and ``gc_epochs`` can never collect an epoch that
still donates a partition. ``compact_lake`` re-materializes the ENTIRE
current state as one fresh epoch — optionally at a new partition count
— under the same two-phase commit (partition files → commit JSON →
``_LATEST`` flip) and epoch lock as replay, so a crash mid-compaction
leaves the previous epoch live and a retry restarts cleanly.

Scale shape: ``replay.partition_apply`` with a kernel that re-tags each
committed row with its (re)assigned bucket and a reducer that sorts
and writes a bucket range. The units are aligned runs of buckets
sized to hold about one file (``ops._util.file_bytes``) at the head's
on-disk bytes, so the new layout is packed by bytes on either plan. A
lake smaller than one read block (``ops._util.BLOCK_BYTES``) compacts
in-process, where adjacent units pack further by their rows; above
that it is one streamed read of the committed files, one shuffle on
the unit, each unit written by the worker that holds it; nothing but
the file manifests ever reaches the driver. Subsequent incremental
epochs adopt the compacted ``num_partitions`` exactly as they adopt
epoch 0's today.

Reference analogue: the daily re-materialization habit of
datalake_daily_sync.py (full-table rewrite per day) expressed as an
in-place epoch, keeping the incremental history GC-able.
"""

from __future__ import annotations

import os

import pyarrow as pa
import pyarrow.compute as pc

from .._pickle import ensure_portable
from ..core import partition as P
from ..core.schema_evolution import conform
from ..ops._util import file_bytes
from . import sink
from .replay import Layout, partition_apply


def compact_lake(lake_dir: str, *, num_partitions: int | None = None) -> dict:
    """Rewrite the current committed state as epoch ``latest+1``.

    Returns the new commit dict. ``num_partitions`` defaults to the
    current layout; pass a different value to re-shard the lake (later
    incremental epochs adopt it automatically).

    Live-consumer caveat: a SAME-width compaction is safe to run
    between a continuous ingestor's micro-batches (pinned by pytest);
    a RE-SHARD under a live ingestor is rejected by the ingestor's
    layout guard (it keeps the partition count it was built with) —
    restart the watcher/ingestor after re-sharding."""
    ensure_portable()
    if num_partitions is not None and num_partitions < 1:
        # an explicit bad width must fail loud — `or` would silently
        # treat 0 as "keep the previous width" and a negative value
        # would wrap through the uint64 partition modulo
        raise ValueError(f"compact_lake: num_partitions must be >= 1, got {num_partitions}")
    with sink.EpochTxn(lake_dir, require_base=True) as txn:
        latest, epoch = txn.prev_epoch, txn.epoch
        p_new = int(num_partitions if num_partitions is not None
                    else txn.prev_commit["num_partitions"])
        schema = sink.commit_schema(txn.prev_commit)

        def tag(t: pa.Table) -> pa.Table:
            # inherited old-epoch files may predate schema evolution —
            # conform (cast + null-pad), never bare cast
            t = conform(t, schema)
            part = P.assign_partitions(t["doc_id"], p_new)
            return t.append_column("part", pa.array(part.astype("int64"), pa.int64()))

        def write_part(lo: int, hi: int, t: pa.Table, _state: list[str]) -> list[dict]:
            # a new range gathers rows from several old files, so it is
            # not in doc_id order yet
            return sink.write_range(
                lake_dir, epoch, p_new, lo, hi, t.sort_by("doc_id"),
                {"rows_in": t.num_rows, "max_lsn": int(pc.max(t["lsn"]).as_py()), "tombstones": 0},
                target)

        # an all-tombstoned lake has no files: it compacts to an empty epoch
        files = list(sink.state_paths(lake_dir, txn.prev_commit).values())
        target = file_bytes()
        total = sum(os.path.getsize(f) for f in files)
        stride = max(1, min(p_new, target * p_new // total)) if total else 1
        written, plan = partition_apply(files, tag, write_part, Layout(lake_dir, None, p_new, stride))

        # a full rewrite: nothing is inherited, and the layout may change
        return txn.publish(
            {m["part"]: m for m in written}, schema,
            num_partitions=p_new, plan=plan, inherit=False,
            inputs=[f"<compact:epoch-{latest:06d}>"],
        )
