"""Late-materialization replay: decide winners on narrow columns, ship
payloads once.

``replay()`` shuffles partially-compacted FULL rows (payload included).
At 10^10 events the payload (``tokens``) dominates shuffle bytes, so
this strategy splits the work:

phase A (narrow): read ONLY (doc_id, lsn, op) — parquet column pruning
  means token payloads are never decoded — partial-compact per batch,
  shuffle ~30 B rows, and per partition decide each key's fate against
  prior state: FETCH(lsn) (a log row wins), KEEP (state row wins), or
  DELETE (tombstone wins). Kept state rows are written to a carry file;
  the winning lsns stream back.
phase B (payload): read the shards with payloads, filter to winning
  lsns (lsn is globally unique → a sorted int64 array + searchsorted,
  broadcast via ray.put), shuffle exactly ONE payload row per changed
  key to its partition, merge with the carry file, 2PC-write.

Shuffle bytes: narrow-rows + one-payload-per-live-key — the minimum the
semantics allow. Token decode happens once (phase B), same as replay().
At 10^9+ live keys the broadcast exact lsn array grows past driver
comfort (8 GB/10^9); past ``bloom_threshold`` winners the filter
auto-switches to a numpy Bloom filter (~2 GB/10^9, fp ~4e-4) — safe
because tombstone winners are always in the fetch set, so any
false-positive stale row meets its key's true winner in the reduce and
loses the LWW merge.

Restriction: like replay(), one epoch per call. Like replay(), skew is
bounded by the per-block combiner (≤1 row/key/block), and phase B ships
one row per key by construction.
"""

from __future__ import annotations

import glob
import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import ray
import ray.data as rd

from ..core import merge as M
from ..core import partition as P
from ..core.schema_evolution import conform
from ..ops._util import read_blocks
from . import sink
from .replay import ReplayResult, _change_schema, _discover, validate_changes


def _carry_file(part: int) -> str:
    return f"carry-{part:05d}.parquet"


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
    from .._pickle import ensure_portable

    ensure_portable()
    files = _discover(changes)
    with sink.EpochTxn(lake_dir, resume=resume) as txn:
        if txn.prev_commit is not None:
            num_partitions = txn.prev_commit["num_partitions"]
        by_schema, unified, state_schema = _change_schema(files, lake_dir, txn.prev_epoch)
        written, winning_keys = _replay_late_locked(
            files, lake_dir, txn.epoch, by_schema, unified,
            sink.state_path_map(lake_dir, txn.prev_epoch),
            num_partitions=num_partitions,
            override_num_blocks=override_num_blocks, resume=resume,
            lsn_filter=lsn_filter, bloom_threshold=bloom_threshold,
            excluded_doc_ids=excluded_doc_ids,
        )
        commit = txn.publish(
            written, state_schema, num_partitions=num_partitions,
            inputs=[os.path.basename(f) for f in files],
            strategy="late_materialization", plan="exchange",
        )
        return ReplayResult(
            epoch=txn.epoch, published=True, num_partitions=num_partitions, hot_keys=[],
            rows_total=commit["rows_total"], max_lsn=commit["max_lsn"],
            partitions_written=txn.partitions_written,
            partitions_inherited=txn.partitions_inherited,
            counters={"winning_keys": winning_keys, "plan": "exchange"},
        )


def _replay_late_locked(
    files: list[str],
    lake_dir: str,
    epoch: int,
    by_schema: list[list[str]],
    unified: pa.Schema,
    prev_state: dict[int, str],
    *,
    num_partitions: int,
    override_num_blocks: int | None,
    resume: bool,
    lsn_filter: str,
    bloom_threshold: int,
    excluded_doc_ids: frozenset[str] | None,
) -> tuple[dict[int, dict], int]:
    """Phases A and B; the caller holds the epoch transaction. Returns
    the written partitions' manifests and the winning-key count."""
    staging = sink.epoch_dir(lake_dir, epoch)
    # resume: partitions whose data manifest is durable are done — phase A
    # reruns (narrow, cheap), phase B skips their rows entirely
    committed_parts = frozenset(
        m["part"] for m in sink.staged_manifests(lake_dir, epoch).values()
        if m.get("kind") == "data"
    ) if resume else frozenset()

    if override_num_blocks is None:
        override_num_blocks = read_blocks(sum(os.path.getsize(f) for f in files))

    # ---------- phase A: narrow winner decision ----------
    def narrow(batch: pa.Table) -> pa.Table:
        if excluded_doc_ids:
            keep = pc.invert(pc.is_in(batch["doc_id"], value_set=pa.array(sorted(excluded_doc_ids))))
            batch = batch.filter(keep)
        validate_changes(batch)
        t = M.compact(batch, keep_tombstones=True)
        part = P.assign_partitions(t["doc_id"], num_partitions)
        return t.append_column("part", pa.array(part, pa.int64()))

    def decide(group: pa.Table) -> pa.Table:
        """Winner per key vs prior state: emit fetch rows; write carry."""
        part = int(group["part"][0].as_py())
        log_win = M.compact(group.drop_columns(["part"]), keep_tombstones=True)
        state = pq.read_table(prev_state[part]) if part in prev_state else None
        if state is not None and state.num_rows:
            s_ids = state["doc_id"]
            s_lsn = state["lsn"]
            # join log winners against state lsns (vectorized via index map)
            import polars as pl

            st = pl.DataFrame({"doc_id": pl.from_arrow(s_ids.combine_chunks() if isinstance(s_ids, pa.ChunkedArray) else s_ids),
                               "state_lsn": pl.from_arrow(s_lsn.combine_chunks() if isinstance(s_lsn, pa.ChunkedArray) else s_lsn)})
            lw = pl.DataFrame({"doc_id": pl.from_arrow(log_win["doc_id"].combine_chunks()),
                               "lsn": pl.from_arrow(log_win["lsn"].combine_chunks()),
                               "op": pl.from_arrow(log_win["op"].combine_chunks())})
            j = lw.join(st, on="doc_id", how="left")
            wins = j.filter(pl.col("state_lsn").is_null() | (pl.col("lsn") > pl.col("state_lsn")))
            # carry = state rows NOT beaten by a log winner (vectorized)
            beaten = pa.array(wins["doc_id"].to_list(), pa.string())
            keep_mask = pc.invert(pc.is_in(s_ids, value_set=beaten))
            carry = state.filter(keep_mask)
        else:
            wins_t = log_win
            import polars as pl

            wins = pl.DataFrame({"doc_id": pl.from_arrow(wins_t["doc_id"].combine_chunks()),
                                 "lsn": pl.from_arrow(wins_t["lsn"].combine_chunks()),
                                 "op": pl.from_arrow(wins_t["op"].combine_chunks())})
            carry = None
        # ALL winners (tombstones included) go into the lsn filter set:
        # with an approximate filter a false-positive stale row must meet
        # its key's true winner (possibly a tombstone) in the reduce, or
        # a deleted key could resurrect
        fetch = wins
        d = sink.epoch_dir(lake_dir, epoch)
        os.makedirs(d, exist_ok=True)
        if carry is not None and carry.num_rows:
            sink.atomic_write_table(os.path.join(d, _carry_file(part)), carry)
        return pa.table(
            {
                "part": pa.array([part] * len(fetch), pa.int64()),
                "doc_id": pa.array(fetch["doc_id"].to_list(), pa.string()),
                "lsn": pa.array(fetch["lsn"].to_list(), pa.int64()),
            }
        )

    narrow_groups = []
    for fl in by_schema:
        blocks = max(1, int(override_num_blocks * len(fl) / len(files)))
        ds = rd.read_parquet(fl, columns=["doc_id", "lsn", "op"], override_num_blocks=blocks)
        narrow_groups.append(ds.map_batches(narrow, batch_format="pyarrow"))
    nds = narrow_groups[0]
    for g in narrow_groups[1:]:
        nds = nds.union(g)
    fetch_rows = nds.groupby("part").map_groups(decide, batch_format="pyarrow")

    # gather winning lsns (int64 only — ~8 B per live changed key)
    lsn_chunks = []
    for b in fetch_rows.iter_batches(batch_size=1 << 20, batch_format="pyarrow"):
        lsn_chunks.append(b["lsn"].to_numpy(zero_copy_only=False))
    win_lsns = np.sort(np.concatenate(lsn_chunks)) if lsn_chunks else np.array([], np.int64)
    use_bloom = lsn_filter == "bloom" or (
        lsn_filter == "auto" and len(win_lsns) > bloom_threshold
    )
    if use_bloom:
        from ..core.bloom import BloomFilter

        bf = BloomFilter(len(win_lsns) or 1)
        bf.add(win_lsns)
        lsn_ref = ray.put(("bloom", bf))
    else:
        lsn_ref = ray.put(("exact", win_lsns))

    # ---------- phase B: payload fetch + final merge ----------
    def fetch_filter(batch: pa.Table) -> pa.Table:
        # stateless task; ray.get of the shared filter is zero-copy
        kind, win = ray.get(lsn_ref)
        t = conform(batch, unified)
        if excluded_doc_ids:
            t = t.filter(pc.invert(pc.is_in(t["doc_id"], value_set=pa.array(sorted(excluded_doc_ids)))))
        lsn = t["lsn"].to_numpy(zero_copy_only=False)
        if kind == "bloom":
            hit = win.contains(lsn)
        elif len(win):
            idx = np.searchsorted(win, lsn)
            hit = (idx < len(win)) & (win[np.minimum(idx, len(win) - 1)] == lsn)
        else:
            hit = np.zeros(len(lsn), bool)
        t = t.filter(pa.array(hit))
        if "ts_ms" in t.column_names:
            t = t.drop_columns(["ts_ms"])
        part = P.assign_partitions(t["doc_id"], num_partitions)
        t = t.append_column("part", pa.array(part, pa.int64()))
        if committed_parts:
            keep = ~np.isin(part, list(committed_parts))
            if not keep.all():
                t = t.filter(pa.array(keep))
        return t

    def finalize(group: pa.Table) -> pa.Table:
        part = int(group["part"][0].as_py())
        fetched = M.compact(group.drop_columns(["part"]), keep_tombstones=True)
        # fetched now includes tombstone winners and (under bloom) stale
        # false positives — merge_state resolves both correctly
        carry_path = os.path.join(staging, _carry_file(part))
        carry = pq.read_table(carry_path) if os.path.exists(carry_path) else None
        new_state = M.merge_state(carry, fetched).sort_by("doc_id")
        m = sink.write_partition(
            lake_dir, epoch, sink.part_file(part), new_state,
            {"kind": "data", "part": part, "rows_in": int(group.num_rows),
             "max_lsn": int(pc.max(fetched["lsn"]).as_py()),
             "tombstones": 0},
        )
        return pa.table({"part": [part], "rows": [m["rows"]], "max_lsn": [m["max_lsn"]],
                         "file": [m["file"]]})

    pay_groups = []
    for fl in by_schema:
        blocks = max(1, int(override_num_blocks * len(fl) / len(files)))
        ds = rd.read_parquet(fl, override_num_blocks=blocks)
        pay_groups.append(ds.map_batches(fetch_filter, batch_format="pyarrow"))
    pds = pay_groups[0]
    for g in pay_groups[1:]:
        pds = pds.union(g)
    manifest_rows = pds.groupby("part").map_groups(finalize, batch_format="pyarrow").take_all()

    # carry-only partitions (all state kept, no fetched rows) still need a
    # data file this epoch: promote the carry file
    results = {int(r["part"]): r for r in manifest_rows}
    for m in sink.staged_manifests(lake_dir, epoch).values():
        if m.get("kind") == "data" and int(m["part"]) not in results:
            results[int(m["part"])] = {"part": m["part"], "rows": m["rows"],
                                       "max_lsn": m["max_lsn"], "file": m["file"]}
    written_parts = set(results)
    for f in sorted(glob.glob(os.path.join(staging, "carry-*.parquet"))):
        part = int(os.path.basename(f).split("-")[1].split(".")[0])
        if part in written_parts:
            os.remove(f)
            continue
        carry = pq.read_table(f)
        m = sink.write_partition(
            lake_dir, epoch, sink.part_file(part), carry.sort_by("doc_id"),
            {"kind": "data", "part": part, "rows_in": 0,
             "max_lsn": int(pc.max(carry["lsn"]).as_py()), "tombstones": 0},
        )
        results[part] = {"part": part, "rows": m["rows"], "max_lsn": m["max_lsn"], "file": m["file"]}
        os.remove(f)

    return results, len(win_lsns)
