"""Token-payload analytics over the CDC lake — the ops that make the
replayed table (doc_id, tokens:list<int32>, n_tok, source) useful as
TRAINING DATA, not just a correct upsert target: corpus token-frequency
histogram (vocabulary coverage / BPE retraining input) and per-source
token-budget accounting (mixture weighting).

Both read the committed lake (``pipelines.flagship`` replay → the
miniature of the 10^10-event production table) and reduce token arrays
with zero-copy Arrow kernels: ``list_flatten`` + ``value_counts``
partials inside each map task bound the shuffle to
(distinct-token-ids-per-block) rows — at a fixed vocabulary that is
O(V) per block regardless of corpus size, so the exchange stays tiny at
100 TB while the flatten work scales embarrassingly parallel.

Full SQL oracles: the change log's token values are md5-seeded-LCG per
(doc, version) (pipelines.docs_to_change_log), so DuckDB reproduces the
exact final-state token stream with ``unnest(range(0, n_tok))`` — the
driver value-hash-checks these against the documents view, and
tests/test_tokens.py additionally cross-checks them with
``unnest(tokens)`` over the committed lake parquet itself (two
independent derivations that cannot cancel out).
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .._pickle import ensure_portable
from ._util import local_plan, read_blocks

def _lake(sf_dir: str):
    # cached committed flagship lake: one replay serves every
    # lake-analytics query in a run (and bench builds it untimed, so the
    # timing measures the analytic, not the setup replay)
    from ..cdc.replay import read_lake
    from ..pipelines import ensure_flagship_lake

    return read_lake(ensure_flagship_lake(sf_dir))


def lake_token_histogram(sf_dir: str, k: int = 50):
    """Top-``k`` token ids by occurrence count over the FINAL lake state
    (rank-1 LWW winners only — superseded versions and tombstoned docs
    contribute nothing). Ties broken by token id ascending."""
    ensure_portable()
    from ray.data.aggregate import Sum

    ds = _lake(sf_dir).select_columns(["tokens"])

    # shares _hist_partials (sign=1) with the IVM delta path — one
    # aggregation definition per view, pinned equal in pytest
    agg = (
        ds.map_batches(_hist_partials, batch_format="pyarrow")
        .groupby("token")
        .aggregate(Sum("n_occurrences", alias_name="n_occurrences"))
    )
    return agg.sort(["n_occurrences", "token"], descending=[True, False]).limit(k)


def source_token_budget(sf_dir: str):
    """Per-source token accounting over the final lake state: docs,
    total tokens, mean doc length — the mixture-weighting table a
    training run samples from. Partial sums per block, one tiny grouped
    reduce (source cardinality ≈ dozens)."""
    ensure_portable()
    from ray.data.aggregate import Sum

    ds = _lake(sf_dir).select_columns(["source", "n_tok"])

    # ONE partial kernel for both the full recompute and the IVM delta
    # passes (_budget_partials, sign=1) — the paths are pinned EQUAL in
    # pytest, so keeping two copies of the aggregation invites drift
    agg = (
        ds.map_batches(_budget_partials, batch_format="pyarrow")
        .groupby("source")
        .aggregate(Sum("docs", alias_name="n_docs"),
                   Sum("toks", alias_name="total_tokens"))
    )

    def finish(t: pa.Table) -> pa.Table:
        if "n_docs" not in t.column_names:
            return pa.schema(
                [("source", pa.string()), ("n_docs", pa.int64()),
                 ("total_tokens", pa.int64()), ("mean_tokens", pa.float64())]
            ).empty_table()
        mean = np.round(
            t["total_tokens"].to_numpy(zero_copy_only=False)
            / t["n_docs"].to_numpy(zero_copy_only=False), 4,
        )
        return t.append_column("mean_tokens", pa.array(mean, pa.float64()))

    return agg.map_batches(finish, batch_format="pyarrow")



# ---------------------------------------------------------------------------
# Incremental view maintenance: keep the per-source budget and token
# histogram views current from per-partition epoch deltas in
# O(rewritten partitions) instead of O(lake) recomputes.
# ---------------------------------------------------------------------------

_BUDGET_SCHEMA = pa.schema(
    [("source", pa.string()), ("n_docs", pa.int64()),
     ("total_tokens", pa.int64()), ("mean_tokens", pa.float64())]
)
_DELTA_SCHEMA = pa.schema(
    [("source", pa.string()), ("docs", pa.int64()), ("toks", pa.int64())]
)


def _budget_partials(t: pa.Table, sign: int = 1) -> pa.Table:
    """Per-source signed (docs, toks) partial for one Arrow batch."""
    import polars as pl

    if not t.num_rows:
        return _DELTA_SCHEMA.empty_table()
    g = (
        pl.DataFrame(
            {"source": t["source"].to_pylist(),
             "n_tok": t["n_tok"].to_numpy(zero_copy_only=False).astype(np.int64)}
        )
        .group_by("source")
        .agg(pl.len().cast(pl.Int64).alias("docs"),
             pl.col("n_tok").sum().alias("toks"))
    )
    return pa.table(
        {"source": pa.array(g["source"].to_list(), pa.string()),
         "docs": pa.array(sign * g["docs"].to_numpy(), pa.int64()),
         "toks": pa.array(sign * g["toks"].to_numpy(), pa.int64())},
        schema=_DELTA_SCHEMA,
    )


def _fold(partials, acc: pa.Table) -> pa.Table:
    """Fold signed partials — a Dataset, or a list of Arrow tables from
    the in-process plan — into ``acc`` on the driver: a running int64
    ``group_by`` sum keyed on ``acc``'s first column. Each partial
    already holds at most one row per key per pair or block, so driver
    memory stays O(view rows) and the sums exact — no shuffle stage to
    start for a result that lands on the driver anyway."""
    key, vals = acc.schema.names[0], acc.schema.names[1:]
    if not isinstance(partials, list):
        partials = partials.iter_batches(batch_format="pyarrow", batch_size=None)
    for part in partials:
        if part.num_rows:
            g = (pa.concat_tables([acc, part.select(acc.schema.names).cast(acc.schema)])
                 .group_by(key).aggregate([(v, "sum") for v in vals]))
            acc = pa.table([g[key]] + [g[f"{v}_sum"] for v in vals], schema=acc.schema)
    return acc


def source_budget_at(lake_dir: str, epoch: int | None = None) -> pa.Table:
    """The per-source budget VIEW over one committed epoch's state —
    the base a maintained view starts from. Same partial-sum shape as
    ``source_token_budget`` but epoch-pinned and returned as the tiny
    per-source table (the view itself is O(sources)). A lake smaller
    than one read block folds its per-file partials in-process."""
    ensure_portable()
    import pyarrow.parquet as pq
    import ray.data as rd

    from ..cdc import sink

    files = sink.lake_files(lake_dir, epoch)
    cols = ["source", "n_tok"]
    if not files or local_plan(sum(os.path.getsize(f) for f in files)):
        partials = [_budget_partials(pq.read_table(f, columns=cols)) for f in files]
    else:
        partials = (rd.read_parquet(files, columns=cols)
                    .map_batches(_budget_partials, batch_format="pyarrow"))
    return _finish_budget(_fold(partials, _DELTA_SCHEMA.empty_table()))


def _finish_budget(delta: pa.Table) -> pa.Table:
    """(source, docs, toks) → the published view schema, sources with
    zero surviving docs dropped, mean rounded at 4 (matches
    ``source_token_budget`` / the SQL oracle)."""
    keep = pc.greater(delta["docs"], 0)
    delta = delta.filter(keep)
    docs = delta["docs"].to_numpy(zero_copy_only=False)
    toks = delta["toks"].to_numpy(zero_copy_only=False)
    order = np.argsort(delta["source"].to_numpy(zero_copy_only=False), kind="stable")
    return pa.table(
        {"source": delta["source"].take(pa.array(order)),
         "n_docs": pa.array(docs[order], pa.int64()),
         "total_tokens": pa.array(toks[order], pa.int64()),
         "mean_tokens": pa.array(
             np.round(toks[order] / docs[order], 4), pa.float64())},
        schema=_BUDGET_SCHEMA,
    )


def _span_pairs(lake_dir: str, epoch_a: int, epoch_b: int) -> list[dict]:
    """The (old, new) partition file pairs whose signed partials sum to
    the state change of the span (a, b].

    Partition p holds the same key domain in every epoch of one width,
    so a same-width span pairs each partition with itself and drops
    INHERITED partitions (same file path on both sides: no change). If
    the endpoint widths are equal the span is aligned whatever ran in
    between, and no commit in between is read. Otherwise the span is
    split at each layout change: only ``compact_lake`` changes
    ``num_partitions`` (replay and replay_late adopt the head's width,
    ingest refuses a mismatch), and a compaction re-stores its head's
    state unchanged, so state(c) = state(c−1) and (a, b] is the sum of
    the aligned runs (a, c−1] and (c, b]."""
    from ..cdc import sink

    def width(c: dict) -> int:
        return int(c["num_partitions"])

    first, last = sink.read_commit(lake_dir, epoch_a), sink.read_commit(lake_dir, epoch_b)
    runs = [(first, last)]
    if width(first) != width(last):
        runs, start, prev = [], first, first
        for e in range(epoch_a + 1, epoch_b + 1):
            c = last if e == epoch_b else sink.read_commit(lake_dir, e)
            if width(c) != width(prev):
                if not str((c.get("inputs") or [""])[0]).startswith("<compact:"):
                    raise ValueError(
                        f"epoch {e} changed num_partitions without compact_lake; "
                        "the span cannot be split into aligned runs")
                runs.append((start, prev))
                start = c
            prev = c
        runs.append((start, last))
    pairs = []
    for ca, cb in runs:
        for p in sorted(ca["partitions"].keys() | cb["partitions"].keys(), key=int):
            path_a = ca["partitions"].get(p, {}).get("path") or ""
            path_b = cb["partitions"].get(p, {}).get("path") or ""
            if path_a != path_b:
                pairs.append({"a": path_a, "b": path_b})
    return pairs


def _aligned_delta_stream(
    lake_dir: str,
    epoch_a: int,
    epoch_b: int | None,
    columns: list[str],
    partial_fn,
    empty_schema: pa.Schema,
):
    """The one IVM delta derivation: a per-partition sorted-merge state
    comparison over the pairs of ``_span_pairs``, with no shuffle, no
    join, no broadcast key set. Each pair is merged in isolation (pairs
    are packed into ``read_blocks(paired bytes)`` tasks): both files are
    sorted by doc_id, so a vectorized zipper classifies every key as
    unchanged (same winning lsn — skipped), updated (old row → −1
    partial, new row → +1), deleted (only in a → −1), or added (only in
    b → +1), and both signed partials come out of the SAME pass.

    ``partial_fn(table, sign) -> pa.Table`` turns the changed rows of
    one batch into signed per-group partials (conforming to
    ``empty_schema``). The work is one column-pruned read of each
    REWRITTEN partition per side, the minimum any signed-delta
    maintenance can do without an auxiliary index. Pure state
    comparison — no LSN-ordering assumption, late cross-epoch data
    included. Pairs smaller than one read block in total merge
    in-process. Returns the partials: a Dataset, or a list of tables
    from the in-process plan (empty when nothing changed)."""
    ensure_portable()
    import ray.data as rd

    from ..cdc import sink

    e_b = sink.latest_epoch(lake_dir) if epoch_b is None else epoch_b
    pairs = _span_pairs(lake_dir, epoch_a, e_b)
    if not pairs:
        return []
    read_cols = ["doc_id"] + [c for c in columns if c != "doc_id"]

    def pair_partials(batch: pa.Table) -> pa.Table:
        import os as _os

        import polars as pl
        import pyarrow.parquet as _pq

        outs = []
        cols = ["doc_id", "lsn"] + read_cols[1:]
        for a_rel, b_rel in zip(batch["a"].to_pylist(), batch["b"].to_pylist()):
            ta = (_pq.read_table(_os.path.join(lake_dir, a_rel), columns=cols)
                  if a_rel else None)
            tb = (_pq.read_table(_os.path.join(lake_dir, b_rel), columns=cols)
                  if b_rel else None)
            if ta is not None and tb is not None:
                # vectorized zipper over the two sorted-by-doc_id files:
                # full outer on the key, winners compared by lsn
                ja = pl.from_arrow(ta).rename({c: f"{c}__a" for c in cols[1:]})
                jb = pl.from_arrow(tb).rename({c: f"{c}__b" for c in cols[1:]})
                m = ja.join(jb, on="doc_id", how="full", coalesce=True)
                changed = m.filter(
                    pl.col("lsn__a").is_null() | pl.col("lsn__b").is_null()
                    | (pl.col("lsn__a") != pl.col("lsn__b")))
                old = changed.filter(pl.col("lsn__a").is_not_null())
                new = changed.filter(pl.col("lsn__b").is_not_null())
                old_t = pa.table(
                    {"doc_id": old["doc_id"].to_arrow(),
                     **{c: old[f"{c}__a"].to_arrow().cast(ta.schema.field(c).type)
                        for c in read_cols[1:]}})
                new_t = pa.table(
                    {"doc_id": new["doc_id"].to_arrow(),
                     **{c: new[f"{c}__b"].to_arrow().cast(tb.schema.field(c).type)
                        for c in read_cols[1:]}})
            elif tb is not None:     # partition born in the span: all adds
                old_t, new_t = None, tb.select(read_cols)
            elif ta is not None:     # partition emptied: all deletes
                old_t, new_t = ta.select(read_cols), None
            else:
                continue
            if old_t is not None and old_t.num_rows:
                outs.append(partial_fn(old_t, -1))
            if new_t is not None and new_t.num_rows:
                outs.append(partial_fn(new_t, 1))
        if not outs:
            return empty_schema.empty_table()
        return pa.concat_tables([t.cast(empty_schema) for t in outs])

    # sized by bytes, not one task per pair: a task per ~9 ms pair costs
    # more to start than the pair takes to merge on a small lake
    paired_bytes = sum(os.path.getsize(os.path.join(lake_dir, rel))
                       for pair in pairs for rel in pair.values() if rel)
    if local_plan(paired_bytes):
        return [pair_partials(pa.Table.from_pylist(pairs))]
    blocks = min(len(pairs), read_blocks(paired_bytes))
    return (rd.from_items(pairs, override_num_blocks=blocks)
            .map_batches(pair_partials, batch_format="pyarrow", batch_size=None))


def incremental_source_budget(
    lake_dir: str,
    base: pa.Table,
    epoch_a: int,
    epoch_b: int | None = None,
) -> pa.Table:
    """Maintain the per-source budget view across a lake commit —
    incremental view maintenance, the materialized-view half of the CDC
    contract (the reference recomputes its datalake_daily_sync
    aggregates from scratch each day; with per-partition epoch deltas
    the engine keeps them current in work proportional to the REWRITTEN
    partitions — reference airflow/dags/datalake_daily_sync.py, daily
    CTAS re-aggregation).

    ``base`` is the view at ``epoch_a`` (from ``source_budget_at`` or a
    previous maintenance step). Exact, not approximate: the signed
    column-pruned delta (see ``_aligned_delta_stream``) and ``base``
    fold into one O(sources) int64 table on the driver.
    ``incremental == full recompute at epoch b`` is pinned in pytest,
    across re-shard compactions too, and by the ``incremental_budget``
    DuckDB value-hash oracle."""
    stream = _aligned_delta_stream(
        lake_dir, epoch_a, epoch_b, ["source", "n_tok"], _budget_partials, _DELTA_SCHEMA)
    base_t = pa.table([base["source"], base["n_docs"], base["total_tokens"]],
                      names=_DELTA_SCHEMA.names).cast(_DELTA_SCHEMA)
    return _finish_budget(_fold(stream, base_t))


_HIST_FULL_SCHEMA = pa.schema([("token", pa.int32()), ("n_occurrences", pa.int64())])


def _hist_partials(t: pa.Table, sign: int = 1) -> pa.Table:
    """Signed token-count partial for one batch: flatten the token
    arrays and value-count — O(distinct-tokens-per-block) output rows
    (≤ vocabulary) regardless of batch size."""
    if not t.num_rows:
        return _HIST_FULL_SCHEMA.empty_table()
    flat = pc.list_flatten(t["tokens"])
    if not len(flat):
        return _HIST_FULL_SCHEMA.empty_table()
    vc = flat.value_counts()
    return pa.table(
        {"token": vc.field("values").cast(pa.int32()),
         "n_occurrences": pc.multiply(
             vc.field("counts").cast(pa.int64()), pa.scalar(sign, pa.int64()))},
        schema=_HIST_FULL_SCHEMA,
    )


def token_histogram_at(lake_dir: str, epoch: int | None = None) -> pa.Table:
    """The FULL token histogram over one committed epoch's state — the
    maintained-view base (O(vocabulary) rows: bounded model state, the
    same shape kmeans centroids / BPE vocab take on the driver)."""
    ensure_portable()
    import ray.data as rd
    from ray.data.aggregate import Sum

    from ..cdc import sink

    files = sink.lake_files(lake_dir, epoch)
    if not files:
        return _HIST_FULL_SCHEMA.empty_table()
    out = (
        rd.read_parquet(files, columns=["tokens"])
        .map_batches(_hist_partials, batch_format="pyarrow")
        .groupby("token")
        .aggregate(Sum("n_occurrences", alias_name="n_occurrences"))
        .to_pandas()
    )
    if "n_occurrences" not in out.columns:
        return _HIST_FULL_SCHEMA.empty_table()
    out = out.sort_values("token")
    return pa.table(
        {"token": pa.array(out["token"].astype("int32")),
         "n_occurrences": pa.array(out["n_occurrences"].astype("int64"))},
        schema=_HIST_FULL_SCHEMA,
    )


def incremental_token_histogram(
    lake_dir: str,
    base: pa.Table,
    epoch_a: int,
    epoch_b: int | None = None,
) -> pa.Table:
    """Maintain the corpus token histogram (vocabulary counts) across a
    lake commit in O(rewritten partitions) — the heavier IVM instance:
    at 10^10 documents a from-scratch histogram is a full corpus
    flatten, while the day's change set is orders of magnitude smaller.
    Same signed delta as the budget view, folded into ``base`` the same
    way (int64, exact past 2^53); tokens whose count drops to 0 leave
    the view. Exactness vs ``token_histogram_at`` is pinned in pytest."""
    from ray.data.aggregate import Sum

    stream = _aligned_delta_stream(
        lake_dir, epoch_a, epoch_b, ["tokens"], _hist_partials, _HIST_FULL_SCHEMA)
    if not isinstance(stream, list):
        # the exchange plan's partials run up to O(vocab) rows per block:
        # reduce them distributed before the driver fold
        stream = stream.groupby("token").aggregate(
            Sum("n_occurrences", alias_name="n_occurrences"))
    base_t = base.select(_HIST_FULL_SCHEMA.names).cast(_HIST_FULL_SCHEMA)
    hist = _fold(stream, base_t)
    return hist.filter(pc.greater(hist["n_occurrences"], 0)).sort_by("token")
