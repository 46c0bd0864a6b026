"""Replay strategy selection: eager payload shuffle vs late materialization.

Measured crossover (BASELINE.md): eager wins while the post-compaction
payload shuffle fits the object store (8.9M ev/s at 2x10^8 events /
1M keys); past that it spills and eventually dies (OutOfDiskError at
10^9 events / 5M keys) while late materialization completes. The
estimator samples one row group per few shards to predict the shuffle
footprint and picks accordingly.
"""

from __future__ import annotations

import os

import pyarrow.parquet as pq

from ..ops._util import read_blocks
from .replay import ReplayResult, _discover, replay
from .replay_late import replay_late


def estimate_shuffle_bytes(files: list[str], override_num_blocks: int) -> int:
    """Predicted eager-shuffle payload: blocks × unique-keys-per-block ×
    bytes-per-row, extrapolated from sampled row groups."""
    from .replay import _sample_row_groups

    sampled_rows = 0
    sampled_bytes = 0
    distinct_ratio = 0.0
    n_samples = 0
    for pf, rg in _sample_row_groups(files, max_files=8):
        n = rg.num_rows
        if n == 0:
            continue
        uniq = len(rg.column("doc_id").unique())
        distinct_ratio += uniq / n
        meta = pf.metadata.row_group(0)
        sampled_bytes += meta.total_byte_size
        sampled_rows += n
        n_samples += 1
    if not n_samples or not sampled_rows:
        return 0
    distinct_ratio /= n_samples
    bytes_per_row = sampled_bytes / sampled_rows * 1.6  # arrow expansion fudge
    total_rows = sum(pq.ParquetFile(f).metadata.num_rows for f in files)
    rows_per_block = total_rows / max(1, override_num_blocks)
    # the row-group-level distinct ratio is a LOWER bound for smaller
    # blocks (distinct fraction grows as n shrinks), and the sort holds
    # map outputs + reduce inputs concurrently — apply a 2x safety
    # factor, calibrated against the empirical 10^9-event run (est
    # 13 GiB raw vs ~37 GB actual spill)
    uniq_per_block = min(rows_per_block, distinct_ratio * rows_per_block)
    return int(2.0 * override_num_blocks * uniq_per_block * bytes_per_row)


def replay_auto(
    changes: str | list[str],
    lake_dir: str,
    *,
    num_partitions: int = 64,
    object_store_bytes: int | None = None,
    override_num_blocks: int | None = None,
    resume: bool = False,
    excluded_doc_ids: frozenset[str] | None = None,
) -> ReplayResult:
    """Pick eager vs late by comparing predicted shuffle bytes to the
    object store capacity (spill threshold at 50%). Shared options
    (resume, corrections, block override) are forwarded to whichever
    strategy wins; strategy-specific knobs stay on the direct APIs."""
    import ray

    files = _discover(changes)
    if object_store_bytes is None:
        if ray.is_initialized():
            object_store_bytes = int(ray.cluster_resources().get("object_store_memory", 2 << 30))
        else:
            object_store_bytes = 2 << 30
    blocks = override_num_blocks or read_blocks(
        sum(os.path.getsize(f) for f in files))
    est = estimate_shuffle_bytes(files, blocks)
    if est > object_store_bytes // 2:
        return replay_late(
            files, lake_dir, num_partitions=num_partitions,
            override_num_blocks=override_num_blocks, resume=resume,
            excluded_doc_ids=excluded_doc_ids,
        )
    return replay(
        files, lake_dir, num_partitions=num_partitions,
        override_num_blocks=override_num_blocks, resume=resume,
        excluded_doc_ids=excluded_doc_ids,
    )
