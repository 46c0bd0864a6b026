"""Deterministic key hashing and hash partitioning.

The reference relies on Kafka key partitioning plus coarse 10-way address
bucketing (reference datalake/metadata_snapshot.py:88-89; README.md:63)
and simply eats skew on hot accounts. Every key here hashes to one of
``num_partitions`` partitions, and skew is bounded one stage earlier:
replay's map-side combiner compacts each input block to one row per key
before the exchange, so a hot key reaches its reducer at most once per
block however many events it has (cdc/replay.py, ``Normalize``).

Hashing must be deterministic across processes and runs (resume filters
committed partitions by recomputing the very same hash), so we use
polars' vectorized 64-bit hash with a fixed seed — never Python's
randomized ``hash()``.
"""

from __future__ import annotations

import numpy as np
import polars as pl
import pyarrow as pa

HASH_SEED = 0xA11CE

# Pinned test vectors for polars' 64-bit hash (computed with polars
# 1.42.1). polars documents Series.hash as NOT stable across releases:
# on a cluster whose workers run mismatched polars versions, hash
# partitioning / LSH buckets / term shards would silently disagree and
# drop rows or candidates with no error. Every process that imports
# this module verifies the vector once and fails LOUDLY on mismatch.
_HASH_PIN = (
    ("tonray-hash-probe", 7331, 7684535875120548274),
    (123456789, 4242, 10733335462443107075),
)
_hash_checked = False


def assert_polars_hash_stable() -> None:
    """Verify the pinned polars hash test vectors (once per process).

    Raises RuntimeError if this polars build hashes differently from the
    version the engine's shuffle keys were authored against — a silent
    cross-worker bucket mismatch is converted into a loud startup error."""
    global _hash_checked
    if _hash_checked:
        return
    for value, seed, expected in _HASH_PIN:
        got = int(pl.Series([value]).hash(seed=seed)[0])
        if got != expected:
            raise RuntimeError(
                f"polars {pl.__version__} hash({value!r}, seed={seed}) = {got}, "
                f"expected {expected}: Series.hash is not stable across polars "
                "releases and this build disagrees with the pinned vectors — "
                "hash partitioning / LSH bucketing / term sharding would "
                "silently diverge across workers. Pin polars to one version "
                "cluster-wide (or re-pin core/partition._HASH_PIN)."
            )
    _hash_checked = True


def hash64(values: pa.Array | pa.ChunkedArray | list) -> np.ndarray:
    """Vectorized deterministic 64-bit hash of a key column."""
    assert_polars_hash_stable()
    if isinstance(values, pa.ChunkedArray):
        values = values.combine_chunks()
    s = pl.Series("k", values)
    return s.hash(seed=HASH_SEED).to_numpy()


def assign_partitions(
    doc_ids: pa.Array | pa.ChunkedArray, num_partitions: int
) -> np.ndarray:
    """Partition id per row: ``hash64(doc_id) % num_partitions``."""
    h = hash64(doc_ids)
    return (h % np.uint64(num_partitions)).astype(np.int64)
