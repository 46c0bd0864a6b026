"""Pure, vectorized last-writer-wins merge kernels over Arrow tables.

These are the engine's core reduce — the analogue of the reference's
rank-1 LWW compaction (``row_number() over (partition by key order by
version desc) = 1``, reference datalake/airflow/dags/
datalake_daily_sync.py:641-653; datalake/metadata_snapshot.py:92-105)
and its write-time LWW guards (``ON CONFLICT ... WHERE existing.lt <
EXCLUDED.lt``, reference parser/db.py:310-330).

Total order for ties: ``(lsn DESC, op DESC)``. ``lsn`` is globally
unique in a well-formed log, so ties only arise from exact duplicate
events (at-least-once replay, analogue of ``ON CONFLICT DO NOTHING``,
reference parser/db.py:279-282) — any deterministic tiebreak is correct
there; we fix one so every code path and the test oracle agree.

Two kernels pick the winners. ``compact`` sorts on ``SORT_KEYS`` and
returns them in ascending doc_id order: it is the reduce under
``merge_state``, whose output is the partition file order. ``combine``
is the map-side combiner (``replay.Normalize`` on every read block,
the narrow exchange's winner decision ``replay._decide``): it groups by
a hash of the key instead of sorting, O(n), and keeps the winners in
input order — its callers group or sort the rows again anyway. Both
pick the same row per key. A sort pays at a partition merge of a few
hundred rows; hash grouping pays on a read block of tens of thousands
where few rows win. ``winners`` is ``combine`` on the key columns
alone, as row indices: the local plan's combine across an epoch's
blocks (``replay.partition_apply``), whose gather groups the rows too.

All kernels are pure functions over Arrow tables (no Ray), so they
unit-test without a cluster — mirroring the reference's host-agnostic
parser contract (parser/backfill.py DBMock harness).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

SORT_KEYS = [("doc_id", "ascending"), ("lsn", "descending"), ("op", "descending")]


def _first_per_key_mask(keys: pa.ChunkedArray | pa.Array) -> pa.Array:
    """Boolean mask selecting the first row of each run of equal keys.

    Input must already be sorted so equal keys are adjacent.
    """
    arr = keys.combine_chunks() if isinstance(keys, pa.ChunkedArray) else keys
    n = len(arr)
    mask = np.ones(n, dtype=bool)
    if n > 1:
        neq = pc.not_equal(arr.slice(1, n - 1), arr.slice(0, n - 1))
        mask[1:] = neq.to_numpy(zero_copy_only=False)
    return pa.array(mask)


def compact(changes: pa.Table, *, keep_tombstones: bool = True) -> pa.Table:
    """One winning row per doc_id: max (lsn, op) — vectorized LWW dedup,
    in ascending doc_id order (a stable sort on ``SORT_KEYS``).

    With ``keep_tombstones=True`` the winner may be an ``op='d'`` row, as
    ``combine``'s always may: a stage whose output a later reduce folds
    again must keep tombstones so a delete can still beat earlier upserts
    there (SURVEY.md §7.5).
    """
    if changes.num_rows == 0:
        return changes
    if changes["doc_id"].null_count:
        # fail loud like replay's null-lsn check: the first-of-run mask
        # below builds on pc.not_equal, whose null results coerce to
        # False — null-key rows would VANISH silently instead of erroring
        raise ValueError("null doc_id in change batch")
    # sort and pick winners on the key columns only, then gather the
    # payload once for the winners — losers' payloads never move
    idx = pc.sort_indices(changes, sort_keys=SORT_KEYS)
    win = idx.filter(_first_per_key_mask(changes["doc_id"].take(idx)))
    if not keep_tombstones:
        live = pc.not_equal(changes["op"].take(win), pa.scalar("d"))
        win = win.filter(live.combine_chunks())
    return changes.take(win)


def combine(changes: pa.Table) -> pa.Table:
    """One winning row per doc_id, tombstones kept, in input order: the
    row ``compact`` picks (max ``lsn``, then max ``op``, then the first
    in input order), found without a sort — ``changes.take(winners(
    changes))``."""
    return changes.take(winners(changes))


def winners(changes: pa.Table) -> np.ndarray:
    """The ascending row indices of ``combine``'s winners: only
    ``doc_id``, ``lsn`` and ``op`` are read, so a caller gathers each
    payload row once, where it needs it.

    ``doc_id`` is dictionary-encoded into codes (one dictionary over the
    whole column: per-chunk dictionaries disagree) and each code's max
    ``lsn`` taken with ``np.maximum.at``. Only keys whose max lsn occurs
    more than once — duplicate deliveries — go through a tie pass over
    those rows alone. Either string column may arrive
    dictionary-encoded (``sink.read_changes``). A null ``doc_id`` or
    ``lsn`` raises ``ValueError``.
    """
    if changes.num_rows == 0:
        return np.zeros(0, np.int64)
    if changes["doc_id"].null_count:
        raise ValueError("null doc_id in change batch")
    if changes["lsn"].null_count:
        raise ValueError("null lsn in change batch")
    keys = _plain(changes["doc_id"])
    enc = pc.dictionary_encode(keys)
    codes = enc.indices.to_numpy()
    lsn = changes["lsn"].to_numpy()
    best = np.full(len(enc.dictionary), np.iinfo(lsn.dtype).min, dtype=lsn.dtype)
    np.maximum.at(best, codes, lsn)
    win = np.flatnonzero(lsn == best[codes])
    if len(win) > len(best):
        # some key's max lsn repeats: among its rows, max op, then first
        tied = np.bincount(codes[win], minlength=len(best))[codes[win]] > 1
        ti = win[tied]
        op = pc.rank(_plain(changes["op"].take(ti)), sort_keys="ascending",
                     null_placement="at_start", tiebreaker="dense").to_numpy()
        order = ti[np.lexsort((ti, -op.astype(np.int64), codes[ti]))]
        first = np.ones(len(order), dtype=bool)
        first[1:] = codes[order[1:]] != codes[order[:-1]]
        win = np.sort(np.concatenate([win[~tied], order[first]]))
    return win


def _plain(col: pa.ChunkedArray) -> pa.Array:
    """``col`` as one array of its value type (a dictionary decoded: its
    codes need not be one per value)."""
    arr = col.chunk(0) if col.num_chunks == 1 else col.combine_chunks()
    if pa.types.is_dictionary(arr.type):
        arr = arr.cast(arr.type.value_type)
    return arr


def merge_state(state: pa.Table | None, changes: pa.Table) -> pa.Table:
    """Fold a change table into a live-rows state table (LWW).

    ``state`` holds live rows only (payload + ``lsn``); ``changes`` holds
    CDC rows (payload + ``lsn`` + ``op``). Returns the new live state
    (payload + ``lsn``), tombstones applied and dropped, in strictly
    ascending doc_id order (``compact`` takes the winners in its sort
    order), so a partition writer needs no further sort.
    """
    if state is not None and state.num_rows > 0:
        live = state.append_column("op", pa.repeat(pa.scalar("u", pa.string()), state.num_rows))
        allrows = pa.concat_tables([live, changes], promote_options="permissive")
    else:
        allrows = changes
    won = compact(allrows, keep_tombstones=False)
    keep = [c for c in won.column_names if c not in ("op", "ts_ms")]
    return won.select(keep)


def finalize(state: pa.Table, payload_cols: list[str]) -> pa.Table:
    """User-facing view of a state table: payload columns only."""
    return state.select([c for c in payload_cols if c in state.column_names])


def oracle_apply(changes: pa.Table) -> pa.Table:
    """Sequential row-by-row oracle applier (FIXTURES.md F5).

    Intentionally naive — a dict keyed by doc_id, folded in (lsn, op)
    order — used only to validate the vectorized kernels in tests.
    """
    order = pc.sort_indices(
        changes, sort_keys=[("lsn", "ascending"), ("op", "ascending")]
    )
    rows = changes.take(order).to_pylist()
    state: dict[str, dict] = {}
    for r in rows:
        if r["op"] == "d":
            state.pop(r["doc_id"], None)
        else:
            state[r["doc_id"]] = {k: v for k, v in r.items() if k != "op"}
    if not state:
        empty = changes.schema.remove(changes.schema.get_field_index("op"))
        return pa.Table.from_pylist([], schema=empty)
    out = pa.Table.from_pylist(list(state.values()))
    cols = [c for c in changes.column_names if c != "op" and c in out.column_names]
    return out.select(cols)
