"""Flagship pipeline: LSN-ordered CDC change-log replay → Parquet lake.

Every lake writer runs one plan, ``partition_apply``: a per-block
kernel tags rows with a partition id, rows group by it, and a
per-partition reducer commits each group. Its size rule
(``ops._util.local_plan``: the files plus the touched partitions'
committed state smaller than one ``BLOCK_BYTES`` read block) picks how::

    Normalize (conform to the unified schema, validate ops, per-block
               LWW combine (``merge.combine``), hash partition)
      → group by "part"
      → commit_partition (merge prior state (LWW) → sort → 2PC partition write)
      → publish epoch (_COMMIT + _LATEST pointer flip)

- ``local``: the kernel per file, group by part on the driver, then the
  reducer per touched partition — no Ray Data plan; at micro-batch
  sizes that plan's exchange, scheduling and IO cost more than the
  merge and write themselves;
- ``exchange``: ``read_parquet`` (grouped by on-disk schema) →
  ``map_batches(kernel)`` → ``groupby("part").map_groups(reducer)`` —
  the one all-to-all shuffle.

Writers: ``replay`` (above), ``IncrementalIngestor.ingest`` (the
watcher, through the same ``_apply_changes``), ``replay_late`` (two
``partition_apply`` phases inside ``replay``'s epoch body) and
``compact_lake`` (kernel re-tags committed rows, reducer writes them).

Correctness contract (BASELINE.json north rule): final table equals the
sequential oracle's rank-1 LWW compaction (reference
datalake_daily_sync.py:641-653) with tombstone deletes, exactly-once
under task retries and crash-resume, and schema evolution (added
columns → nulls, numeric widening).

Scale design notes (the exchange plan):
- the only global shuffle is ``groupby("part")`` over *combined* rows
  (``merge.combine``: ≤1 row per key per input block), so shuffle volume
  is bounded by keys×blocks, not raw events;
- that same bound is the skew bound: ``Normalize`` combines whole read
  blocks (``map_batches(batch_size=None)``), so a key however hot enters
  the exchange at most once per block — a 100k-event single-key log in
  10 shards sends ≤10 rows to its reducer. Every row routes by
  ``hash(doc_id) % P``; there is no salting and no second reduce stage;
- there is NO global sort by lsn — LWW(max lsn) only needs per-key
  ordering, which the per-partition reduce provides (SURVEY.md §7.4);
- untouched partitions are inherited by reference into the new epoch's
  commit — an epoch only rewrites partitions that received changes;
- choose ``num_partitions`` so (partition state + epoch changes) fits a
  worker heap: at 100 TB state, P=65536 → ~1.6 GB per reducer.
"""

from __future__ import annotations

import glob
import os
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import ray.data as rd

from ..core import merge as M
from ..core import partition as P
from ..core.schema_evolution import conform, unify_schemas
from ..ops._util import local_plan, read_blocks
from ..schemas import VALID_OPS
from . import sink
from .delta import classify, delta_stream

@dataclass
class ReplayResult:
    epoch: int
    published: bool
    num_partitions: int
    # always []: no key is salted. Kept because lakebench reads it
    # (its cdc.replay.hot_keys per-layer count).
    hot_keys: list[str]
    rows_total: int
    max_lsn: int
    partitions_written: int
    partitions_inherited: int
    counters: dict = field(default_factory=dict)


def _discover(changes: str | list[str]) -> list[str]:
    if isinstance(changes, str):
        files = sorted(glob.glob(os.path.join(changes, "*.parquet")))
    else:
        files = list(changes)
    if not files:
        raise FileNotFoundError(f"no change shards under {changes!r}")
    return files


def _sample_row_groups(files: list[str], max_files: int = 8):
    """First row group (doc_id column) of up to ``max_files`` evenly
    spaced shards — the strategy router's shuffle-bytes sample
    (cdc/strategy.py). Yields ``(ParquetFile, row_group_table)``."""
    step = max(1, len(files) // max_files)
    for f in files[::step][:max_files]:
        pf = pq.ParquetFile(f)
        yield pf, pf.read_row_group(0, columns=["doc_id"])


class Normalize:
    """Stage 1 (stateless map_batches): conform → validate → combine →
    partition assignment. The envelope-normalization analogue of the
    reference's converters (datalake/converters/converter.py) plus the
    map-side LWW combiner (``merge.combine``, winners in input order:
    ``by_part`` and the reducer's ``merge_state`` order them) that bounds
    shuffle volume per key: each call emits at most one row per key,
    which is also the engine's skew bound (see the module docstring)."""

    def __init__(
        self,
        schema: pa.Schema,
        num_partitions: int,
        skip_parts: frozenset[int],
        only_parts: frozenset[int] | None,
        excluded_doc_ids: frozenset[str] | None = None,
    ):
        self.schema = schema
        self.P = num_partitions
        self.skip = skip_parts
        self.only = only_parts
        self.excluded = excluded_doc_ids

    def __call__(self, batch: pa.Table) -> pa.Table:
        t = conform(batch, self.schema)
        if self.excluded:
            # data-corrections anti-join (reference excluded_rows,
            # datalake_daily_sync.py:318-334): drop known-bad keys at
            # the earliest stage, before any shuffle
            keep = pc.invert(pc.is_in(t["doc_id"], value_set=pa.array(sorted(self.excluded))))
            t = t.filter(keep)
        validate_changes(t)
        t = M.combine(t)
        if "ts_ms" in t.column_names:
            # envelope-only column: never part of persisted state — drop
            # before the shuffle so it doesn't ride the all-to-all
            t = t.drop_columns(["ts_ms"])
        part = P.assign_partitions(t["doc_id"], self.P)
        t = t.append_column("part", pa.array(part, pa.int64()))
        keep = np.ones(len(part), dtype=bool)
        if self.skip:
            keep &= ~np.isin(part, list(self.skip))
        if self.only is not None:
            keep &= np.isin(part, list(self.only))
        if not keep.all():
            t = t.filter(pa.array(keep))
        return t


def validate_changes(t: pa.Table) -> None:
    """Reject a change batch with an op outside ``VALID_OPS`` or a null
    lsn. A 0-row batch is valid."""
    bad = t.filter(pc.invert(pc.is_in(t["op"], value_set=pa.array(VALID_OPS))))
    if bad.num_rows:
        raise ValueError(f"invalid op values in change batch, e.g. {bad['op'][0]}")
    if t["lsn"].null_count:
        raise ValueError("null lsn in change batch")


def by_part(t: pa.Table, col: str = "part"):
    """Yield ``(part, rows)`` per distinct ``col`` value of ``t``, with
    ``col`` dropped: one stable argsort, then slices at the run bounds."""
    parts = t[col].to_numpy()
    order = np.argsort(parts, kind="stable")
    t = t.drop_columns([col]).take(pa.array(order))
    bounds = (np.flatnonzero(np.diff(parts[order])) + 1).tolist()
    for lo, hi in zip([0, *bounds], [*bounds, len(order)]):
        if hi > lo:
            yield int(parts[order[lo]]), t.slice(lo, hi - lo)


def commit_partition(lake_dir: str, epoch: int, part: int, changes: pa.Table,
                     state_path: str | None) -> dict:
    """The per-partition commit kernel of every change-applying writer:
    merge ``changes`` onto the partition's committed state (LWW; the
    merge's output is already doc_id-ascending) and 2PC-write it.
    Returns the partition manifest.

    ``min_lsn`` is a LOWER BOUND on the lsn of every row NEWLY STORED by
    this epoch in this partition (min over the arriving change rows —
    the map-side combine may have dropped lower-lsn LOSERS, and late's
    Bloom filter may let stale rows through, but a loser never lands in
    stored state or a feed, so the bound covers exactly what consumers
    compare against). The commit-level min proves stored-lsn-ordered
    epochs (commit(b).min_lsn > commit(a).max_lsn): the changefeed's
    tombstone-collision check (``emit_changefeed``) reads it, and the
    tests' ``lsn_ordered_span`` helper checks it over a span."""
    state = sink.read_file(state_path) if state_path else None
    new_state = M.merge_state(state, changes)
    return sink.write_partition(
        lake_dir, epoch, sink.part_file(part), new_state,
        {"part": part, "rows_in": changes.num_rows,
         "max_lsn": int(pc.max(changes["lsn"]).as_py()),
         "min_lsn": int(pc.min(changes["lsn"]).as_py()),
         "tombstones": int(pc.sum(pc.equal(changes["op"], "d")).as_py() or 0)},
    )


def partition_apply(
    files: list[str],
    kernel: Callable[[pa.Table], pa.Table],
    reducer: Callable[[int, pa.Table, str | None], dict],
    state: dict[int, str],
    *,
    columns: list[str] | None = None,
    num_blocks: int | None = None,
    coalesce_blocks: int | None = 0,
) -> tuple[list[dict], str]:
    """The plan of every lake writer: ``kernel`` maps each read block of
    ``files`` (``columns`` only, if given) to rows with a ``part``
    column; the rows group by it, and ``reducer(part, rows,
    state.get(part))`` runs once per touched partition, where ``state``
    maps a part to the committed file the reducer rewrites. Returns the
    reducer outputs (dicts of scalars) and the plan that ran:

    - ``local`` when the files plus the touched partitions' state fit in
      one read block (``ops._util.local_plan``): the kernel per file
      (each file is one block), ``by_part`` on the driver, the reducer
      per part. No Ray Data execution starts;
    - ``exchange`` otherwise: ``read_parquet`` per on-disk schema group
      with blocks proportional to its files (``num_blocks`` in all,
      default ``read_blocks`` of the bytes), ``map_batches(kernel)`` on
      whole blocks, ``union``, an optional ``repartition``
      (``coalesce_blocks``: ≤ 0 = none, None = ``_auto_coalesce_target``),
      then ``groupby("part").map_groups(reducer)``.

    The kernel and reducer ship to Ray Data inside its one-time put of
    the stage, so a large read-only value they close over (late's
    winning-lsn filter) is shared by reference, not copied per task."""
    if not files:
        return [], "local"
    total = sum(os.path.getsize(f) for f in files)
    if local_plan(total):
        rows = pa.concat_tables([kernel(sink.read_file(f, columns)) for f in files])
        groups = list(by_part(rows))
        touched = sum(os.path.getsize(state[p]) for p, _ in groups if p in state)
        if local_plan(total + touched):
            return [reducer(p, g, state.get(p)) for p, g in groups], "local"

    if num_blocks is None:
        num_blocks = read_blocks(total)
    ds, read_total = None, 0
    for schema, fl in _schema_groups(files):
        blocks = max(1, int(num_blocks * len(fl) / len(files)))
        read_total += blocks
        if columns is not None:  # the read schema names exactly the columns read
            schema = pa.schema([schema.field(c) for c in columns])
        g = (rd.read_parquet(fl, columns=columns, schema=schema, override_num_blocks=blocks)
             # whole blocks: replay's per-block combine is its skew bound
             .map_batches(kernel, batch_size=None, batch_format="pyarrow"))
        ds = g if ds is None else ds.union(g)
    if coalesce_blocks is None:
        coalesce_blocks = _auto_coalesce_target(read_total, total)
    if coalesce_blocks and coalesce_blocks > 0:
        ds = ds.repartition(coalesce_blocks)

    def reduce(group: pa.Table) -> pa.Table:
        part = int(group["part"][0].as_py())
        return pa.Table.from_pylist([reducer(part, group.drop_columns(["part"]), state.get(part))])

    out = ds.groupby("part").map_groups(reduce, batch_format="pyarrow")
    return [r for b in out.iter_batches(batch_size=None, batch_format="pyarrow")
            for r in b.to_pylist()], "exchange"


def _auto_coalesce_target(
    read_blocks: int,
    total_bytes: int = 0,
    *,
    threshold: int = 96,
    floor: int = 64,
    max_block_bytes: int = 256 << 20,
    nodes_alive: int | None = None,
    cpus: int | None = None,
) -> int | None:
    """Route the exchange-coalescing decision automatically (VERDICT r4
    next-item #6). On ONE raylet the sort exchange costs
    O(map_blocks × reduce_blocks) tiny-object transfers regardless of
    bytes — profiled on the 80M-event log: 128 read blocks split to 256
    sort blocks = 65k transfers, 34 s of Sort wall on ~1.2 s of reduce
    CPU, while 64 read blocks replay the same log in 22.3 s total. The
    breakpoint is a property of one raylet's scheduling throughput, not
    of CPU count, so the gate is an ABSOLUTE read-block count:

    - multi-node cluster → never coalesce (the exchange spreads across
      per-node raylets/NICs; capping blocks would throttle real
      clusters — the r4 profiling ruling);
    - single node, read_blocks < ``threshold`` → leave data-sized
      blocks (the 40M scaling log is 64 blocks at 32 cpus and ~41 at
      8 cpus: both legs stay untouched, preserving the sweep);
    - single node, read_blocks ≥ ``threshold`` → coalesce to
      ``max(floor, 2×cpus)`` — the measured sweet spot (64) with
      headroom on bigger hosts — UNLESS the coalesced blocks would be
      huge (``total_bytes/target > max_block_bytes``, input bytes as
      the upper bound on the post-compaction stream): that is the
      10^9-event regime where the job is object-store/disk-bandwidth
      bound, the exchange is byte- not block-dominated, and the right
      tool is ``replay_late`` (r4 profiling), not giant blocks.

    ``nodes_alive``/``cpus`` are injectable for tests."""
    import ray as _ray

    if nodes_alive is None or cpus is None:
        if not _ray.is_initialized():
            return None
        if nodes_alive is None:
            nodes_alive = sum(1 for n in _ray.nodes() if n.get("Alive", False))
        if cpus is None:
            cpus = int(_ray.cluster_resources().get("CPU", 8))
    if nodes_alive != 1 or read_blocks < threshold:
        return None
    target = max(floor, 2 * cpus)
    if total_bytes and total_bytes // target > max_block_bytes:
        return None
    return target


def replay(
    changes: str | list[str],
    lake_dir: str,
    *,
    num_partitions: int = 64,
    resume: bool = False,
    only_parts: frozenset[int] | None = None,
    override_num_blocks: int | None = None,
    excluded_doc_ids: frozenset[str] | None = None,
    coalesce_shuffle_blocks: int | None = None,
) -> ReplayResult:
    """Apply a change log to the lake as one new epoch (exactly-once).

    Fresh lake → epoch 0; committed lake → incremental ingest as the next
    epoch; ``resume=True`` finishes a crashed epoch, adopting every
    partition file already staged. ``only_parts`` is a
    test/fault-injection hook: process only those shuffle partitions and
    do NOT publish (simulates a mid-replay crash deterministically).

    ``coalesce_shuffle_blocks``: insert a streaming ``repartition(n)``
    between the map-side combine and the partition exchange. The sort
    exchange costs O(map_blocks × reduce_blocks) object transfers, which
    on ONE raylet dominates once read parallelism is high while the
    post-compaction stream is small (profiled on an 80M-event log:
    256-block exchange 34 s of sort wall against ~1 s of reduce CPU;
    coalescing to 64 nearly halved the replay). Default None =
    AUTO-ROUTED by ``_auto_coalesce_target``: multi-node clusters never
    coalesce (the exchange spreads across raylets and data-sized blocks
    are correct); a single node coalesces to ``max(64, 2×cpus)`` once
    read parallelism reaches the profiled one-raylet breakpoint (96
    blocks). Pass an explicit block count to override, or ``0`` to
    disable coalescing entirely (``replay_late`` bounds exchange bytes
    instead).

    Plan (``partition_apply``): an epoch that processes less than one
    read block (``ops._util.BLOCK_BYTES``) — change files plus the
    committed state of the partitions they touch — commits in-process
    (``local``) and ignores ``override_num_blocks`` and
    ``coalesce_shuffle_blocks``; those two shape only the Ray Data
    exchange that runs above that size. ``counters`` holds ``rows_in``,
    ``tombstones`` and the ``plan`` that ran.
    """
    return _replay_epoch(
        changes, lake_dir, num_partitions, resume, only_parts,
        partial(_apply_changes, excluded_doc_ids=excluded_doc_ids,
                override_num_blocks=override_num_blocks,
                coalesce_shuffle_blocks=coalesce_shuffle_blocks))


def _replay_epoch(changes: str | list[str], lake_dir: str, num_partitions: int,
                  resume: bool, only_parts: frozenset[int] | None, apply,
                  **meta) -> ReplayResult:
    """The epoch body of ``replay`` and ``replay_late``: pin the head,
    run phase 1 — ``apply(files, lake_dir, txn, num_partitions,
    skip_parts=..., only_parts=...)`` returning the written manifests by
    part, the state schema and the plan that ran — then publish (or,
    with ``only_parts``, only build) the commit with ``meta``."""
    from .._pickle import ensure_portable

    ensure_portable()
    files = _discover(changes)
    with sink.EpochTxn(lake_dir, resume=resume) as txn:
        if txn.prev_commit is not None:
            # the partition layout is fixed at epoch 0: prior state is looked
            # up by partition file, so later epochs must hash with the same P
            num_partitions = txn.prev_commit["num_partitions"]
        # resume: every staged partition file is adopted — a key always
        # hashes to the same partition, so a committed partition already
        # holds every row of this log routed to it
        committed = sink.staged_manifests(lake_dir, txn.epoch) if resume else {}
        manifests, state_schema, counters = apply(
            files, lake_dir, txn, num_partitions,
            skip_parts=frozenset(m["part"] for m in committed.values()),
            only_parts=only_parts)
        manifests.update((m["part"], m) for m in committed.values())

        meta.update(num_partitions=num_partitions, plan=counters["plan"],
                    inputs=[os.path.basename(f) for f in files])
        published = only_parts is None
        commit = (txn.publish(manifests, state_schema, **meta) if published
                  else txn.build(manifests, **meta))
        return ReplayResult(
            epoch=txn.epoch,
            published=published,
            num_partitions=num_partitions,
            hot_keys=[],
            rows_total=commit["rows_total"],
            max_lsn=commit["max_lsn"],
            partitions_written=txn.partitions_written,
            partitions_inherited=txn.partitions_inherited,
            counters=epoch_counters(manifests, **counters),
        )


def epoch_counters(manifests: dict[int, dict], **extra) -> dict:
    """The counters every change-applying epoch reports: change rows
    that reached a partition merge (``rows_in``), tombstones among them,
    then ``extra`` (``plan``; late adds ``winning_keys``)."""
    return {"rows_in": sum(m["rows_in"] for m in manifests.values()),
            "tombstones": sum(m["tombstones"] for m in manifests.values()),
            **extra}


def _apply_changes(
    files: list[str],
    lake_dir: str,
    txn: sink.EpochTxn,
    num_partitions: int,
    *,
    skip_parts: frozenset[int] = frozenset(),
    only_parts: frozenset[int] | None = None,
    excluded_doc_ids: frozenset[str] | None = None,
    override_num_blocks: int | None = None,
    coalesce_shuffle_blocks: int | None = None,
) -> tuple[dict[int, dict], pa.Schema, dict]:
    """Phase 1 of a change-applying epoch: ``Normalize`` the change
    files and ``commit_partition`` every partition they touch, onto
    ``txn``'s committed head. Returns the written manifests by part,
    the state schema and ``{"plan": ...}``."""
    unified, state_schema = _change_schema(files, txn.prev_commit)
    written, plan = partition_apply(
        files, Normalize(unified, num_partitions, skip_parts, only_parts, excluded_doc_ids),
        partial(commit_partition, lake_dir, txn.epoch),
        sink.state_paths(lake_dir, txn.prev_commit),
        num_blocks=override_num_blocks, coalesce_blocks=coalesce_shuffle_blocks)
    return {m["part"]: m for m in written}, state_schema, {"plan": plan}


def _schema_groups(files: list[str]) -> list[tuple[pa.Schema, list[str]]]:
    """``files`` grouped by on-disk schema: ``(schema, files)`` pairs.
    Schema metadata is dropped: every partition file's footer holds its
    own lineage, and a Ray Data read of blocks whose metadata differ
    cannot deduplicate their schemas."""
    groups: dict[bytes, tuple[pa.Schema, list[str]]] = {}
    for f in files:
        s = pq.read_schema(f).remove_metadata()
        groups.setdefault(s.serialize().to_pybytes(), (s, []))[1].append(f)
    return list(groups.values())


def _change_schema(files: list[str], prev_commit: dict | None) -> tuple[pa.Schema, pa.Schema]:
    """The change schema every writer conforms to: the unified schema
    of ``files`` (the schema of ``prev_commit``, the pinned head,
    included, so state columns survive even if this epoch's shards
    dropped one) and the state schema it persists (no
    ``op``/``ts_ms``)."""
    schemas = [s for s, _ in _schema_groups(files)]
    if prev_commit is not None:
        prev = sink.commit_schema(prev_commit)
        schemas.append(pa.schema([f for f in prev if f.name != "lsn"]))
    unified = unify_schemas(schemas)
    state_schema = pa.schema([f for f in unified if f.name not in ("op", "ts_ms")])
    return unified, state_schema


def read_lake(lake_dir: str, epoch: int | None = None) -> "rd.Dataset":
    """The committed lake as a Ray Dataset (payload + lsn columns) in
    the commit's schema (no file's footer metadata)."""
    commit = sink.commit_at(lake_dir, epoch)
    return rd.read_parquet(list(sink.state_paths(lake_dir, commit).values()),
                           schema=sink.commit_schema(commit))


def final_state_table(lake_dir: str, epoch: int | None = None) -> pa.Table:
    """The committed state as one driver-side table — tests and small
    lakes only: each partition file through ``sink.read_file``, then one
    permissive concat (files from before a schema evolution gain its
    columns as nulls and widen to its types). The result carries the
    commit schema's metadata, not a partition footer's ``lineage``. A
    state without a live row is an empty table with the lake schema."""
    commit = sink.commit_at(lake_dir, epoch)
    schema = sink.commit_schema(commit)
    files = sink.state_paths(lake_dir, commit).values()
    if not files:
        return schema.empty_table()
    out = pa.concat_tables([sink.read_file(f) for f in files], promote_options="permissive")
    return out.replace_schema_metadata(schema.metadata)


_DIFF_SCHEMA = pa.schema([("doc_id", pa.string()), ("change", pa.string()),
                          ("lsn_from", pa.int64()), ("lsn_to", pa.int64())])


def _diff_rows(old: pa.Table, new: pa.Table) -> pa.Table:
    """The diff rows of one epoch-delta task (``delta.classify``)."""
    at, gone = classify(old, new)
    changed = pa.table([new["doc_id"], pc.if_else(pc.is_null(at), "added", "updated"),
                        pc.take(old["lsn"], at), new["lsn"]], names=_DIFF_SCHEMA.names)
    n = gone.num_rows
    deleted = pa.table([gone["doc_id"], pa.array(["deleted"] * n), gone["lsn"],
                        pa.nulls(n, pa.int64())], names=_DIFF_SCHEMA.names)
    return pa.concat_tables([changed.cast(_DIFF_SCHEMA), deleted.cast(_DIFF_SCHEMA)])


def epoch_diff(lake_dir: str, epoch_a: int, epoch_b: int | None = None) -> "rd.Dataset":
    """Committed-state diff between two lake epochs — "what changed
    since epoch a": one row per key that was added, updated (winning
    lsn moved), or deleted between the two commits (``doc_id``,
    ``change``, ``lsn_from``, ``lsn_to``). The CDC engine's
    audit/downstream-sync primitive.

    One derivation with the maintained views and the changefeed:
    ``delta.delta_stream`` reads only ``doc_id`` and ``lsn`` of the
    rewritten partitions of the span — pairs of same-width partitions,
    split at re-sharding compactions and netted per key-closed group —
    so the work is proportional to the rewritten partitions and the
    output to the true change set. In-process below one read block (the
    rows then become a Dataset), a Ray Data map above it.

    GC caveat: ``gc_epochs`` keeps every commit JSON as lineage but
    COLLECTS superseded data files, so a diff is only possible while
    the files it compares still exist (inside the GC keep window, or
    any epoch if GC has not run). A collected file — at an endpoint or
    as the pre-image of a re-shard inside the span — raises a
    "garbage-collected" ValueError before any read."""
    out = delta_stream(lake_dir, epoch_a, epoch_b, [], _diff_rows)
    return rd.from_arrow(out) if isinstance(out, list) else out
