"""Flagship pipeline: LSN-ordered CDC change-log replay → Parquet lake.

Every lake writer runs one plan, ``partition_apply``: a per-block
kernel tags rows with their hash bucket, rows group by reducer unit
(``Layout``: a file of the committed head, which holds a bucket range,
or an empty bucket), and a reducer commits each unit. Its size rule
(``ops._util.local_plan``: the files plus the touched units' committed
state smaller than one ``BLOCK_BYTES`` read block) picks how::

    Normalize (validate ops, per-block LWW combine (``merge.combine``),
               conform the survivors to the unified schema, hash bucket)
      → group by unit
      → commit_partition (merge prior state (LWW) → sort → 2PC write of
                          the range, split past twice the file size)
      → publish epoch (_COMMIT + _LATEST pointer flip)

- ``local``: the kernel per file, each change file decoded without the
  envelope-only ``ts_ms`` and with its low-cardinality strings as
  dictionaries (``sink.read_changes``), so only the combine's
  survivors are decoded to plain strings and cast; then on the
  driver one keys-only LWW combine across the files' rows
  (``merge.winners``) and a group by unit that gathers only its
  winners, once (late materialization: a change row that cannot win
  is never gathered); then adjacent touched units packed into runs of
  up to one file size (``ops._util.file_bytes``) and the reducer once
  per run — one merge and one file where the exchange plan writes one
  per unit. No Ray Data plan: at micro-batch sizes its exchange,
  scheduling and IO cost more than the merge and write themselves;
- ``exchange``: ``read_parquet`` (grouped by on-disk schema) →
  ``map_batches(kernel)`` → ``groupby(unit).map_groups(reducer)`` —
  the one all-to-all shuffle, one reducer per unit, a head file of
  many buckets cut by the epoch's bytes (``Layout.cut``) — then the
  cut files' untouched sub-ranges, rewritten on the driver.

The exchange plan of a change-applying epoch comes in two shapes,
picked by ``_apply_changes`` from a sampled estimate of the payload
shuffle against the session's object store:

- payload (the common case): the one exchange above, full combined
  rows through the shuffle;
- narrow (late materialization, once the payload shuffle would pass
  half the object store): decide each key's winning lsn on
  ``doc_id, lsn, op`` alone, then fetch exactly one payload row per
  winning key (``_apply_late``) — two ``partition_apply`` phases.

Writers: ``replay`` (above), ``IncrementalIngestor.ingest`` (the
watcher, through the same ``_apply_changes``) and ``compact_lake``
(kernel re-tags committed rows, reducer writes them).

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
- untouched files are inherited by reference into the new epoch's
  commit — an epoch only rewrites the units that received changes;
- choose ``num_partitions`` so (bucket state + epoch changes) fits a
  worker heap: at 100 TB state, P=65536 → ~1.6 GB per reducer. A large
  lake has one file per bucket; a small one packs many buckets per
  file, and the exchange plan cuts such a file into sub-units of about
  one file of state plus epoch changes each (``Layout.cut``), so no
  reducer takes more than its buckets' share of the epoch.
"""

from __future__ import annotations

import copy
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
from ..core.bloom import BloomFilter
from ..core.schema_evolution import conform, unify_schemas
from ..ops._util import file_bytes, local_plan, read_blocks
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
    # files the epoch wrote (resume: adopted ones included) and files it
    # inherited from the head
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


class Normalize:
    """Stage 1 (stateless map_batches): validate → exclude → combine →
    conform → partition assignment. The map-side LWW combiner
    (``merge.combine``, winners in input order: ``by_part`` and the
    reducer's ``merge_state`` order them) bounds shuffle volume per key:
    each call emits at most one row per key, which is also the engine's
    skew bound (see the module docstring). Then the envelope
    normalization, the analogue of the reference's converters
    (datalake/converters/converter.py): the survivors are conformed to
    the unified schema without the envelope-only ``ts_ms``. The combine
    reads only the key columns and runs on the rows as read, so only
    its survivors are cast, and a string column read as a dictionary
    (``sink.read_changes``) is decoded to plain strings for them alone.
    """

    def __init__(
        self,
        schema: pa.Schema,
        num_partitions: int,
        skip_parts: frozenset[int],
        only_parts: frozenset[int] | None,
        excluded_doc_ids: frozenset[str] | None = None,
    ):
        self.schema = pa.schema([f for f in schema if f.name != sink.ENVELOPE])
        self.P = num_partitions
        self.skip = skip_parts
        self.only = only_parts
        self.excluded = excluded_doc_ids

    def __call__(self, batch: pa.Table) -> pa.Table:
        validate_changes(batch)
        t = batch
        if self.excluded:
            # data-corrections anti-join (reference excluded_rows,
            # datalake_daily_sync.py:318-334): drop known-bad keys
            # before the combine and any shuffle
            keep = pc.invert(pc.is_in(t["doc_id"], value_set=pa.array(sorted(self.excluded))))
            t = t.filter(keep)
        t = conform(M.combine(t), self.schema)
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
    """Reject a change batch without a ``doc_id``, ``lsn`` or ``op``
    column, with a null lsn, or with an op outside ``VALID_OPS`` (a null
    one included). The ops are checked on the distinct values of the
    ``op`` column alone, read as a dictionary or not. A 0-row batch is
    valid."""
    if not t.num_rows:
        return
    for c in ("doc_id", "lsn", "op"):
        if c not in t.column_names:
            raise ValueError(f"change batch has no {c} column")
    ops = pc.unique(t["op"]).cast(pa.string())  # a dictionary decoded, a null column typed
    bad = ops.filter(pc.invert(pc.is_in(ops, value_set=pa.array(VALID_OPS))))
    if len(bad):
        raise ValueError(f"invalid op values in change batch, e.g. {bad[0]}")
    if t["lsn"].null_count:
        raise ValueError("null lsn in change batch")


def by_part(t: pa.Table, col: str = "part", rows: np.ndarray | None = None):
    """Yield ``(part, rows)`` per distinct ``col`` value of ``t`` — of
    its rows ``rows`` only (ascending indices), if given — with ``col``
    dropped: one stable argsort, one gather of the rows in ``col``
    order, then slices at the run bounds."""
    parts = t[col].to_numpy()
    order = np.argsort(parts if rows is None else parts[rows], kind="stable")
    if rows is not None:
        order = rows[order]
    t = t.drop_columns([col]).take(pa.array(order))
    bounds = (np.flatnonzero(np.diff(parts[order])) + 1).tolist()
    for lo, hi in zip([0, *bounds], [*bounds, len(order)]):
        if hi > lo:
            yield int(parts[order[lo]]), t.slice(lo, hi - lo)


class Layout:
    """The reducer units of an epoch over a committed head (None: a
    fresh lake) of ``num_partitions`` buckets: each head file — bucket
    range ``[lo, hi)`` — is one unit, and every bucket outside the files
    is a unit of its own, or of ``stride`` aligned buckets in a head
    without files (compaction's packing). Units are named by their
    first bucket. O(files) and picklable: the exchange plan ships it."""

    def __init__(self, lake_dir: str, commit: dict | None, num_partitions: int,
                 stride: int = 1):
        files = [(lo, hi, ent) for lo, hi, ent in sink.ranges(commit) if ent["path"]]
        self.P, self.stride = num_partitions, stride if not files else 1
        self.los = np.array([lo for lo, _, _ in files], np.int64)
        self.his = np.array([hi for _, hi, _ in files], np.int64)
        self.paths = [os.path.join(lake_dir, ent["path"]) for _, _, ent in files]
        self.live = np.array([ent["rows"] > 0 for _, _, ent in files], bool)
        self.live_before = np.concatenate([[0], np.cumsum(self.live)])
        # head files cut into sub-units (``cut``): (lo, hi, width, path)
        self.cuts: list[tuple[int, int, int, str]] = []

    def cut(self, epoch_bytes: int, target: int) -> "Layout":
        """The exchange plan's units: each head file of k > 1 buckets is
        cut into sub-units of w adjacent buckets, w = ``target`` over
        the bytes a bucket brings (the file's bytes / k plus the
        epoch's ``epoch_bytes`` / P), at least 1. So a reducer sees
        about one file's worth of state and changes however few files
        the head has: a small lake packed into one file and then sent
        an epoch larger than a read block runs P reducers, not one. A
        sub-unit's reducer reads the shared file and keeps its own
        buckets (``sink.read_range``); the sub-units an epoch leaves
        untouched in a file it touches are listed by ``gaps``. A file
        with w ≥ k stays one unit."""
        k = self.his - self.los
        multi = np.flatnonzero(k > 1)
        if not len(multi):
            return self
        size = np.array([os.path.getsize(self.paths[i]) for i in multi], np.float64)
        w = k.copy()
        w[multi] = np.minimum(k[multi], np.maximum(
            1, (target // (size / k[multi] + epoch_bytes / self.P)).astype(np.int64)))
        if (w == k).all():
            return self
        n = -(-k // w)
        idx = np.repeat(np.arange(len(k)), n)
        step = np.arange(len(idx)) - np.repeat(np.cumsum(n) - n, n)
        out = copy.copy(self)
        out.los = self.los[idx] + step * w[idx]
        out.his = np.minimum(out.los + w[idx], self.his[idx])
        out.paths = [self.paths[i] for i in idx.tolist()]
        out.live = self.live[idx]
        out.live_before = np.concatenate([[0], np.cumsum(out.live)])
        out.cuts = [(int(self.los[i]), int(self.his[i]), int(w[i]), self.paths[i])
                    for i in np.flatnonzero(w < k).tolist()]
        return out

    def gaps(self, touched: set[int]) -> list[tuple[int, int, str]]:
        """``(lo, hi, path)`` of each run of adjacent sub-units that no
        row reached (``touched``: the sub-units that got rows) in every
        cut file with a touched sub-unit: the writer carries them into
        the epoch, since the commit replaces a file whole."""
        out = []
        for lo, hi, w, path in self.cuts:
            subs = range(lo, hi, w)
            if not touched.intersection(subs):
                continue
            start = None
            for a in subs:
                if a not in touched and start is None:
                    start = a
                elif a in touched and start is not None:
                    out.append((start, a, path))
                    start = None
            if start is not None:
                out.append((start, hi, path))
        return out

    def units(self, buckets: np.ndarray) -> np.ndarray:
        """The unit of each bucket."""
        own = buckets - buckets % self.stride
        if not len(self.los):
            return own
        i = np.searchsorted(self.los, buckets, "right") - 1
        inside = (i >= 0) & (buckets < self.his[np.maximum(i, 0)])
        return np.where(inside, self.los[np.maximum(i, 0)], own)

    def unit_hi(self, lo: int) -> int:
        """The end of unit ``lo``."""
        i = np.searchsorted(self.los, lo)
        if i < len(self.los) and self.los[i] == lo:
            return int(self.his[i])
        return min(lo + self.stride, self.P)

    def state(self, lo: int, hi: int) -> list[str]:
        """The head files with a row whose range lies in ``[lo, hi)`` (in
        a cut layout, the file a sub-unit is cut from)."""
        i, j = np.searchsorted(self.los, [lo, hi])
        return [self.paths[k] for k in range(i, j) if self.live[k]]

    def free(self, lo: int, hi: int) -> bool:
        """No head file with a row lies in ``[lo, hi)``."""
        i, j = np.searchsorted(self.los, [lo, hi])
        return self.live_before[j] == self.live_before[i]

    def whole(self, lo: int, hi: int) -> bool:
        """``[lo, hi)`` is a union of whole units: neither end falls
        inside a head file."""
        i = np.searchsorted(self.los, [lo, hi], "right") - 1
        return not any(k >= 0 and self.los[k] < x < self.his[k] for k, x in zip(i, (lo, hi)))

    def expand(self, buckets) -> frozenset[int]:
        """Every bucket of the units that hold ``buckets``."""
        units = np.unique(self.units(np.array(sorted(buckets), np.int64)))
        return frozenset(b for lo in units.tolist() for b in range(lo, self.unit_hi(lo)))

    def runs(self, units: list[tuple[int, int, pa.Table]], states: list[list[str]],
             sizes: list[int], row_bytes: float, target: int, absorb: bool):
        """The local plan's reducer calls: the touched ``units`` (by
        ``lo``, with their rows, state files and state bytes) packed
        into runs ``(lo, hi, rows, state files)`` of adjacent units up
        to ``target`` estimated bytes (state bytes plus ``row_bytes``
        per change row). With ``absorb``, the empty units between two
        touched ones join a run too; a writer that filters buckets
        (``only_parts``, a resume's adopted files) passes False."""
        out: list[list] = []
        for (lo, hi, rows), state, size in zip(units, states, sizes):
            size += rows.num_rows * row_bytes
            run = out[-1] if out else None
            if (run is not None and run[4] + size <= target
                    and (run[1] == lo or absorb and self.free(run[1], lo))):
                run[1] = hi
                run[2].append(rows)
                run[3] += state
                run[4] += size
            else:
                out.append([lo, hi, [rows], list(state), size])
        return [(lo, hi, pa.concat_tables(rows), state) for lo, hi, rows, state, _ in out]


def commit_partition(lake_dir: str, epoch: int, num_partitions: int, target: int,
                     lo: int, hi: int, changes: pa.Table | None,
                     state_paths: list[str]) -> list[dict]:
    """The reducer of every change-applying writer: merge ``changes``
    onto the committed state of buckets ``[lo, hi)`` (``state_paths``,
    the head files that hold the range: ``sink.read_range``; LWW, the
    merge's output is already doc_id-ascending) and 2PC-write it
    (``sink.write_range``: one file, split past ``2 × target`` bytes).
    Returns the file manifests. ``changes`` None: an untouched run of
    sub-units of a cut head file (``Layout.gaps``), written as it is,
    with no change counters and no ``min_lsn``.

    ``min_lsn`` is a LOWER BOUND on the lsn of every row NEWLY STORED by
    this epoch in this range (min over the arriving change rows —
    the map-side combine may have dropped lower-lsn LOSERS, and late's
    Bloom filter may let stale rows through, but a loser never lands in
    stored state or a feed, so the bound covers exactly what consumers
    compare against). The commit-level min proves stored-lsn-ordered
    epochs (commit(b).min_lsn > commit(a).max_lsn): the changefeed's
    tombstone-collision check (``emit_changefeed``) reads it, and the
    tests' ``lsn_ordered_span`` helper checks it over a span."""
    state = sink.read_range(state_paths, num_partitions, lo, hi)
    if changes is None:
        top = pc.max(state["lsn"]).as_py()
        return sink.write_range(
            lake_dir, epoch, num_partitions, lo, hi, state,
            {"rows_in": 0, "max_lsn": -1 if top is None else int(top), "tombstones": 0}, target)
    new_state = M.merge_state(state, changes)
    return sink.write_range(
        lake_dir, epoch, num_partitions, lo, hi, new_state,
        {"rows_in": changes.num_rows,
         "max_lsn": int(pc.max(changes["lsn"]).as_py()),
         "min_lsn": int(pc.min(changes["lsn"]).as_py()),
         "tombstones": int(pc.sum(pc.equal(changes["op"], "d")).as_py() or 0)},
        target)


def partition_apply(
    files: list[str],
    kernel: Callable[[pa.Table], pa.Table],
    reducer: Callable[[int, int, pa.Table | None, list[str]], list[dict]],
    layout: Layout,
    *,
    columns: list[str] | None = None,
    footers: dict[str, pq.FileMetaData] | None = None,
    num_blocks: int | None = None,
    coalesce: bool = False,
    absorb: bool = True,
) -> tuple[list[dict], str]:
    """The plan of every lake writer: ``kernel`` maps each read block of
    ``files`` (``columns`` only, if given) to rows with a ``part``
    column, their hash bucket; the rows group by ``layout`` unit, and
    ``reducer(lo, hi, rows, state)`` runs once per unit or run of units
    ``[lo, hi)``, where ``state`` lists the committed files it rewrites.
    ``footers`` (``_footers``) marks ``files`` as change files: a
    change-applying writer parses them once per epoch, and neither plan
    parses one again. Returns the reducer outputs (lists of dicts of
    scalars, flattened) and the plan that ran:

    - ``local`` when the files plus the touched units' state fit in one
      read block (``ops._util.local_plan``): the kernel per file (each
      file is one block; a change file read by ``sink.read_changes``:
      no ``ts_ms``, low-cardinality strings as dictionaries), then on
      the driver, for change files of more than one block, one
      keys-only LWW combine across the blocks (``merge.winners``;
      ``compact_lake``'s committed rows have unique keys and no
      ``op``), ``by_part`` gathering only its winners, in unit order
      (so ``rows_in`` counts the rows left after it), and one reducer
      call per run of adjacent units (``Layout.runs``, packed to
      ``ops._util.file_bytes``; ``absorb`` as there). No Ray Data
      execution starts;
    - ``exchange`` otherwise: the units of ``layout.cut`` (head files
      cut to about one file of state and changes per reducer),
      ``read_parquet`` per on-disk schema group with blocks
      proportional to its files (``num_blocks`` in all, default
      ``read_blocks`` of the bytes), ``map_batches(kernel)`` on whole
      blocks, ``union``, with ``coalesce`` a ``repartition`` where
      ``_auto_coalesce_target`` asks for one, then
      ``groupby("part").map_groups(reducer)``, one call per unit;
      then, on the driver, ``reducer(lo, hi, None, [file])`` once per
      untouched run of a cut file (``Layout.gaps``).

    The kernel and reducer ship to Ray Data inside its one-time put of
    the stage, so a large read-only value they close over (the narrow
    exchange's winning-lsn filter) is shared by reference, not copied
    per task."""
    if not files:
        return [], "local"
    total = sum(os.path.getsize(f) for f in files)
    if local_plan(total):
        blocks, rows_read = [], 0
        for f in files:  # one read block at a time: only the kernel's output is kept
            t = (sink.read_file(f, columns) if footers is None
                 else sink.read_changes(f, footers[f], columns))
            rows_read += t.num_rows
            blocks.append(_tagged(kernel, layout, t))
            del t
        rows = pa.concat_tables(blocks)
        # change rows of several blocks: one keys-only combine across them
        win = M.winners(rows) if footers is not None and len(files) > 1 else None
        units = [(lo, layout.unit_hi(lo), g) for lo, g in by_part(rows, rows=win)]
        states = [layout.state(lo, hi) for lo, hi, _ in units]
        sizes = [sum(os.path.getsize(f) for f in st) for st in states]
        if local_plan(total + sum(sizes)):
            row_bytes = total / max(1, rows_read)
            runs = layout.runs(units, states, sizes, row_bytes, file_bytes(), absorb)
            return [out for run in runs for out in reducer(*run)], "local"

    layout = layout.cut(total, file_bytes())
    if num_blocks is None:
        num_blocks = read_blocks(total)
    ds, read_total = None, 0
    for schema, fl in _schema_groups(footers or _footers(files)):
        blocks = max(1, int(num_blocks * len(fl) / len(files)))
        read_total += blocks
        if columns is not None:  # the read schema names exactly the columns read
            schema = pa.schema([schema.field(c) for c in columns])
        g = (rd.read_parquet(fl, columns=columns, schema=schema, override_num_blocks=blocks)
             # whole blocks: replay's per-block combine is its skew bound
             .map_batches(partial(_tagged, kernel, layout), batch_size=None,
                          batch_format="pyarrow"))
        ds = g if ds is None else ds.union(g)
    target = _auto_coalesce_target(read_total, total) if coalesce else None
    if target:
        ds = ds.repartition(target)

    def reduce(group: pa.Table) -> pa.Table:
        lo = int(group["part"][0].as_py())
        hi = layout.unit_hi(lo)
        out = pa.Table.from_pylist(reducer(lo, hi, group.drop_columns(["part"]), layout.state(lo, hi)))
        return out.append_column(_UNIT, pa.array(np.full(out.num_rows, lo), pa.int64()))

    out = ds.groupby("part").map_groups(reduce, batch_format="pyarrow")
    rows = [r for b in out.iter_batches(batch_size=None, batch_format="pyarrow")
            for r in b.to_pylist()]
    touched = {r.pop(_UNIT) for r in rows}
    return rows + [r for lo, hi, path in layout.gaps(touched)
                   for r in reducer(lo, hi, None, [path])], "exchange"


#: the column the exchange plan's reduce adds to name each output's unit
_UNIT = "__unit"


def _tagged(kernel: Callable[[pa.Table], pa.Table], layout: Layout, t: pa.Table) -> pa.Table:
    """``kernel``'s rows with ``part`` replaced by their ``layout`` unit."""
    t = kernel(t)
    units = layout.units(t["part"].to_numpy())
    return t.set_column(t.schema.get_field_index("part"), "part", pa.array(units, pa.int64()))


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
      tool is the narrow exchange (``_apply_changes`` picks it once the
      payload shuffle outgrows the object store), not giant blocks.

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
) -> ReplayResult:
    """Apply a change log to the lake as one new epoch (exactly-once).

    Fresh lake → epoch 0; committed lake → incremental ingest as the next
    epoch; ``resume=True`` finishes a crashed epoch, adopting every
    staged file that covers whole reducer units (``Layout.whole``; a
    piece of a split cut short is removed and its unit written again).
    ``only_parts`` is a test/fault-injection hook: process only the
    reducer units that hold those buckets and do NOT publish (simulates
    a mid-replay crash deterministically).

    Plan (``partition_apply``): an epoch that processes less than one
    read block (``ops._util.BLOCK_BYTES``) — change files plus the
    committed state of the units they touch — commits in-process
    (``local``) and ignores ``override_num_blocks``, which shapes only
    the Ray Data exchange that runs above that size; ``_apply_changes``
    picks that exchange's shape. ``counters`` holds ``rows_in``,
    ``tombstones`` and the ``plan`` that ran.
    """
    from .._pickle import ensure_portable

    ensure_portable()
    files = _discover(changes)
    with sink.EpochTxn(lake_dir, resume=resume) as txn:
        if txn.prev_commit is not None:
            # the hash width is fixed at epoch 0: prior state is looked
            # up by bucket, so later epochs must hash with the same P
            num_partitions = txn.prev_commit["num_partitions"]
        layout = Layout(lake_dir, txn.prev_commit, num_partitions)
        # resume: every staged file of whole units is adopted — a key
        # always hashes to the same bucket, so it already holds every
        # row of this log routed to its buckets
        committed = _staged_units(lake_dir, txn.epoch, layout) if resume else []
        manifests, state_schema, meta = _apply_changes(
            files, lake_dir, txn, layout,
            skip_parts=frozenset(b for m in committed for b in range(m["part"], m["hi"])),
            only_parts=None if only_parts is None else layout.expand(only_parts),
            excluded_doc_ids=excluded_doc_ids, override_num_blocks=override_num_blocks)
        manifests.update((m["part"], m) for m in committed)

        meta = {"num_partitions": num_partitions, **meta,
                "inputs": [os.path.basename(f) for f in files]}
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
            counters=epoch_counters(manifests, meta["plan"]),
        )


def _staged_units(lake_dir: str, epoch: int, layout: Layout) -> list[dict]:
    """The manifests of the files staged in ``epoch`` that cover whole
    units of ``layout``. Any other staged file — a piece of a range
    split cut short by a crash — is removed (the caller holds the epoch
    lock): its unit is written again, whole."""
    out = []
    for name, m in sink.staged_manifests(lake_dir, epoch).items():
        if layout.whole(m["part"], m["hi"]):
            out.append(m)
        else:
            os.remove(os.path.join(sink.epoch_dir(lake_dir, epoch), name))
    return out


def epoch_counters(manifests: dict[int, dict], plan: str) -> dict:
    """The counters every change-applying epoch reports: change rows
    that reached a partition merge (``rows_in``), tombstones among them,
    and the ``plan`` that ran."""
    return {"rows_in": sum(m["rows_in"] for m in manifests.values()),
            "tombstones": sum(m["tombstones"] for m in manifests.values()),
            "plan": plan}


def _apply_changes(
    files: list[str],
    lake_dir: str,
    txn: sink.EpochTxn,
    layout: Layout,
    *,
    skip_parts: frozenset[int] = frozenset(),
    only_parts: frozenset[int] | None = None,
    excluded_doc_ids: frozenset[str] | None = None,
    override_num_blocks: int | None = None,
) -> tuple[dict[int, dict], pa.Schema, dict]:
    """Phase 1 of a change-applying epoch: ``Normalize`` the change
    files and ``commit_partition`` every unit of ``layout`` they touch,
    onto ``txn``'s committed head. ``skip_parts`` and ``only_parts``
    hold whole units. Returns the written manifests by first bucket,
    the state schema and the commit keys of what ran: ``plan``, and
    ``strategy: "late_materialization"`` after the narrow exchange.

    Change files above one read block pick the exchange's shape: the
    narrow one (``_apply_late``) when the sampled payload shuffle
    (``_estimate_shuffle_bytes``) exceeds half the session's object
    store — past that the payload exchange spills and, at 10^9 events,
    runs out of disk — and the payload one otherwise, which is faster
    while it fits (no second read of the log)."""
    footers = _footers(files)
    unified, state_schema = _change_schema(footers, txn.prev_commit)
    absorb = not skip_parts and only_parts is None

    def norm(schema: pa.Schema) -> Normalize:
        return Normalize(schema, layout.P, skip_parts, only_parts, excluded_doc_ids)

    reducer = partial(commit_partition, lake_dir, txn.epoch, layout.P, file_bytes())
    total = sum(os.path.getsize(f) for f in files)
    if not local_plan(total) and _estimate_shuffle_bytes(
            files, override_num_blocks or read_blocks(total)) > _object_store_bytes() // 2:
        written = _apply_late(footers, norm, unified, reducer, layout, override_num_blocks, absorb)
        meta = {"plan": "exchange", "strategy": "late_materialization"}
    else:
        written, plan = partition_apply(files, norm(unified), reducer, layout, footers=footers,
                                        num_blocks=override_num_blocks, coalesce=True,
                                        absorb=absorb)
        meta = {"plan": plan}
    return {m["part"]: m for m in written}, state_schema, meta


def _object_store_bytes() -> int:
    """The running session's object store capacity, 2 GiB without one."""
    import ray

    if ray.is_initialized():
        return int(ray.cluster_resources().get("object_store_memory", 2 << 30))
    return 2 << 30


def _sample_row_groups(files: list[str], max_files: int = 8):
    """First row group (doc_id column) of up to ``max_files`` evenly
    spaced shards, skipping a shard without one. Yields
    ``(ParquetFile, row_group_table)``."""
    step = max(1, len(files) // max_files)
    for f in files[::step][:max_files]:
        pf = pq.ParquetFile(f)
        if pf.num_row_groups:
            yield pf, pf.read_row_group(0, columns=["doc_id"])


def _estimate_shuffle_bytes(files: list[str], num_blocks: int) -> int:
    """Predicted payload-exchange bytes: blocks × unique keys per block ×
    bytes per row, extrapolated from sampled row groups. Measured
    crossover (BASELINE.md): the payload exchange wins while this fits
    the object store (8.9M ev/s at 2×10^8 events / 1M keys); past it
    the shuffle spills and at 10^9 events / 5M keys dies with
    OutOfDiskError, where the narrow exchange completes."""
    sampled_rows = 0
    sampled_bytes = 0
    distinct_ratio = 0.0
    n_samples = 0
    for pf, rg in _sample_row_groups(files):
        n = rg.num_rows
        if n == 0:
            continue
        distinct_ratio += len(rg.column("doc_id").unique()) / n
        sampled_bytes += pf.metadata.row_group(0).total_byte_size
        sampled_rows += n
        n_samples += 1
    if not n_samples:
        return 0
    distinct_ratio /= n_samples
    bytes_per_row = sampled_bytes / sampled_rows * 1.6  # arrow expansion fudge
    total_rows = sum(pq.ParquetFile(f).metadata.num_rows for f in files)
    rows_per_block = total_rows / max(1, num_blocks)
    # the row-group-level distinct ratio is a LOWER bound for smaller
    # blocks (distinct fraction grows as n shrinks), and the sort holds
    # map outputs + reduce inputs concurrently — apply a 2x safety
    # factor, calibrated against the empirical 10^9-event run (est
    # 13 GiB raw vs ~37 GB actual spill)
    return int(2.0 * num_blocks * distinct_ratio * rows_per_block * bytes_per_row)


#: the narrow exchange's decide phase reads only these columns
NARROW = ["doc_id", "lsn", "op"]

#: winning keys past which the narrow exchange filters the fetch by a
#: Bloom filter (~2 GB per 10^9 keys, fp ~4e-4) instead of the exact
#: sorted lsn array (8 GB per 10^9)
BLOOM_WINNERS = 50_000_000


def _apply_late(footers: dict[str, pq.FileMetaData], norm: Callable[[pa.Schema], Normalize],
                unified: pa.Schema, reducer, layout: Layout,
                num_blocks: int | None, absorb: bool) -> list[dict]:
    """The narrow exchange (late materialization), two
    ``partition_apply`` exchanges over the same change files (``footers``
    by path); returns the written manifests.

    Decide: read ONLY ``NARROW`` — parquet column pruning means token
    payloads are never decoded — ``norm`` them (the per-block combine),
    group ~30 B rows by unit, and keep each key's log winner only if it
    beats the lsn of the key's committed row (``_decide``). The winning
    lsns come back to the driver as packed int64 bytes.

    Fetch: read the shards with payloads, keep only winning lsns (lsn
    is globally unique → a sorted int64 array + searchsorted, or past
    ``BLOOM_WINNERS`` a Bloom filter), ``norm`` what is left — exactly
    ONE payload row per changed key — and ``reducer`` it onto the
    unit's committed state. A unit with no winner is not rewritten.
    The Bloom filter is safe because tombstone winners are always in
    the fetch set: a false-positive stale row meets its key's true
    winner (or its committed row) in the LWW merge and loses."""
    files = list(footers)
    wins, _ = partition_apply(files, norm(pa.schema([unified.field(c) for c in NARROW])),
                              _decide, layout, columns=NARROW, footers=footers,
                              num_blocks=num_blocks, absorb=absorb)
    win = np.sort(np.frombuffer(b"".join(w["lsns"] for w in wins), np.int64))
    if not len(win):
        return []
    if len(win) > BLOOM_WINNERS:
        bf = BloomFilter(len(win))
        bf.add(win)
        hit = bf.contains
    else:
        hit = partial(_in_sorted, win)
    full = norm(unified)

    def fetch(batch: pa.Table) -> pa.Table:
        return full(batch.filter(pa.array(hit(batch["lsn"].to_numpy(zero_copy_only=False)))))

    written, _ = partition_apply(files, fetch, reducer, layout, footers=footers,
                                 num_blocks=num_blocks, absorb=absorb)
    return written


def _decide(lo: int, hi: int, rows: pa.Table | None, state_paths: list[str]) -> list[dict]:
    """The decide phase's reducer: the lsns of the units' log winners
    (all ops: a tombstone winner must be fetched too) that beat the
    committed row of their key, packed as int64 bytes; none for an
    untouched run of a cut file (``rows`` None)."""
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


def _footers(files: list[str]) -> dict[str, pq.FileMetaData]:
    """Each file's parsed Parquet footer, by path, in ``files`` order."""
    return {f: pq.read_metadata(f) for f in files}


def _schema_groups(footers: dict[str, pq.FileMetaData]) -> list[tuple[pa.Schema, list[str]]]:
    """The files of ``footers`` grouped by on-disk schema: ``(schema,
    files)`` pairs. Schema metadata is dropped: every partition file's
    footer holds its own lineage, and a Ray Data read of blocks whose
    metadata differ cannot deduplicate their schemas."""
    groups: dict[bytes, tuple[pa.Schema, list[str]]] = {}
    for f, footer in footers.items():
        s = footer.schema.to_arrow_schema().remove_metadata()
        groups.setdefault(s.serialize().to_pybytes(), (s, []))[1].append(f)
    return list(groups.values())


def _change_schema(footers: dict[str, pq.FileMetaData],
                   prev_commit: dict | None) -> tuple[pa.Schema, pa.Schema]:
    """The change schema every writer conforms to: the unified schema
    of the change files (``footers``; the schema of ``prev_commit``,
    the pinned head, included, so state columns survive even if this
    epoch's shards dropped one) and the state schema it persists (no
    ``op``/``ts_ms``)."""
    schemas = [s for s, _ in _schema_groups(footers)]
    if prev_commit is not None:
        prev = sink.commit_schema(prev_commit)
        schemas.append(pa.schema([f for f in prev if f.name != "lsn"]))
    unified = unify_schemas(schemas)
    state_schema = pa.schema([f for f in unified if f.name not in ("op", sink.ENVELOPE)])
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
