"""Late-materialization replay: decide winners on narrow columns, ship
payloads once.

``replay()`` shuffles combined FULL rows (payload included).
At 10^10 events the payload (``tokens``) dominates shuffle bytes, so
this strategy splits phase 1 of ``replay``'s epoch into two
``partition_apply`` phases over the same change files:

phase A (narrow): read ONLY (doc_id, lsn, op) — parquet column pruning
  means token payloads are never decoded — ``Normalize`` them (the
  ``merge.combine`` LWW combiner per block), group ~30 B rows by
  reducer unit, and per unit keep each key's log winner only if it
  beats the lsn of the key's committed row (the state's doc_id/lsn
  columns). The winning lsns come back to the driver as packed int64
  bytes.
phase B (payload): read the shards with payloads, keep only winning
  lsns (lsn is globally unique → a sorted int64 array + searchsorted),
  ``Normalize`` what is left — exactly ONE payload row per changed key —
  and ``commit_partition`` it onto the unit's committed state, as
  ``replay()`` does. A unit with no winner is not rewritten: its
  committed file is inherited.

Shuffle bytes: narrow-rows + one-payload-per-live-key — the minimum the
semantics allow. Token decode happens once (phase B), same as replay().
At 10^9+ live keys the exact lsn array grows past driver comfort
(8 GB/10^9); past ``bloom_threshold`` winners the filter auto-switches
to a numpy Bloom filter (~2 GB/10^9, fp ~4e-4) — safe because tombstone
winners are always in the fetch set, so any false-positive stale row
meets its key's true winner (or its committed row) in
``commit_partition``'s LWW merge and loses.

Like replay(), one epoch per call (the same epoch body: resume skips
durable files, the commit records the plan that ran, the counters
add ``winning_keys``), and each phase runs in-process below the size
rule. Like replay(), skew is bounded by the per-block combiner (≤1
row/key/block), and phase B ships one row per key by construction.
"""

from __future__ import annotations

from functools import partial

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..core import merge as M
from ..core.bloom import BloomFilter
from ..ops._util import file_bytes
from . import sink
from .replay import (
    Layout, Normalize, ReplayResult, _change_schema, _replay_epoch, commit_partition,
    partition_apply,
)

NARROW = ["doc_id", "lsn", "op"]


def replay_late(
    changes: str | list[str],
    lake_dir: str,
    *,
    num_partitions: int = 64,
    override_num_blocks: int | None = None,
    resume: bool = False,
    lsn_filter: str = "auto",
    bloom_threshold: int = 50_000_000,
    excluded_doc_ids: frozenset[str] | None = None,
) -> ReplayResult:
    """``replay()`` with the late-materialization exchange (module
    docstring). ``lsn_filter``: ``"exact"``, ``"bloom"`` or ``"auto"``
    (Bloom past ``bloom_threshold`` winning keys)."""
    return _replay_epoch(
        changes, lake_dir, num_partitions, resume, None,
        partial(_apply_late, override_num_blocks=override_num_blocks,
                lsn_filter=lsn_filter, bloom_threshold=bloom_threshold,
                excluded_doc_ids=excluded_doc_ids),
        strategy="late_materialization")


def _apply_late(
    files: list[str],
    lake_dir: str,
    txn: sink.EpochTxn,
    layout: Layout,
    *,
    skip_parts: frozenset[int],
    only_parts: frozenset[int] | None,
    override_num_blocks: int | None,
    lsn_filter: str,
    bloom_threshold: int,
    excluded_doc_ids: frozenset[str] | None,
) -> tuple[dict[int, dict], pa.Schema, dict]:
    """Phases A and B (``replay._apply_changes``' contract). The plan
    recorded is ``exchange`` if either phase ran it."""
    unified, state_schema = _change_schema(files, txn.prev_commit)
    absorb = not skip_parts and only_parts is None

    def norm(schema: pa.Schema) -> Normalize:
        return Normalize(schema, layout.P, skip_parts, only_parts, excluded_doc_ids)

    narrow = norm(pa.schema([unified.field(c) for c in NARROW]))
    wins, plan = partition_apply(files, narrow, _decide, layout, columns=NARROW,
                                 num_blocks=override_num_blocks, absorb=absorb)
    win = np.sort(np.frombuffer(b"".join(w["lsns"] for w in wins), np.int64))
    written = []
    if len(win):
        if lsn_filter == "bloom" or (lsn_filter == "auto" and len(win) > bloom_threshold):
            bf = BloomFilter(len(win))
            bf.add(win)
            hit = bf.contains
        else:
            hit = partial(_in_sorted, win)
        full = norm(unified)

        def fetch(batch: pa.Table) -> pa.Table:
            return full(batch.filter(pa.array(hit(batch["lsn"].to_numpy(zero_copy_only=False)))))

        written, fetch_plan = partition_apply(
            files, fetch, partial(commit_partition, lake_dir, txn.epoch, layout.P, file_bytes()),
            layout, num_blocks=override_num_blocks, absorb=absorb)
        plan = "exchange" if "exchange" in (plan, fetch_plan) else "local"
    return ({m["part"]: m for m in written}, state_schema,
            {"plan": plan, "winning_keys": len(win)})


def _decide(lo: int, hi: int, rows: pa.Table | None, state_paths: list[str]) -> list[dict]:
    """Phase A reducer: the lsns of the units' log winners (all ops: a
    tombstone winner must be fetched too) that beat the committed row
    of their key, packed as int64 bytes; none for an untouched run of a
    cut file (``rows`` None)."""
    if rows is None:
        return []
    wins = M.combine(rows)
    if state_paths:
        st = pa.concat_tables([sink.read_file(f, ["doc_id", "lsn"]) for f in state_paths])
        wins = wins.join(st.rename_columns(["doc_id", "state_lsn"]), "doc_id")
        wins = wins.filter(pc.fill_null(pc.greater(wins["lsn"], wins["state_lsn"]), True))
    return [{"lsns": wins["lsn"].to_numpy().astype(np.int64).tobytes()}]


def _in_sorted(win: np.ndarray, lsn: np.ndarray) -> np.ndarray:
    """Membership of ``lsn`` in the sorted, non-empty ``win``."""
    idx = np.minimum(np.searchsorted(win, lsn), len(win) - 1)
    return win[idx] == lsn
