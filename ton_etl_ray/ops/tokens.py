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

The epoch-pinned views (``source_budget_at``, ``token_histogram_at``)
and their maintained forms (``incremental_*``) run in-process below one
read block (``ops._util.BLOCK_BYTES``): each file is one
``sink.read_file`` decode, and each result one Arrow kernel — a hash
``group_by`` for the budget, ``value_counts`` for the histogram. A
maintained view refreshes by the cheaper of two exact plans, chosen
from the span's commit JSONs alone (``_refresh_plan``): the epoch delta
when both sides of its rewritten files hold fewer rows than
epoch b, else a recompute at b. The epoch delta is
``cdc.delta.delta_stream`` — the derivation ``epoch_diff`` and the
changefeed share — and each of its tasks hands the changed rows to the
view once, which calls its partial once per sign; above one read block
the same kernels run as Ray Data tasks.

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
from ._util import local_plan

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
# histogram views current by the cheaper of the epoch delta (the rows of
# the rewritten files, both sides) and a recompute at the target epoch
# (its rows), compared before any read.
# ---------------------------------------------------------------------------

_BUDGET_SCHEMA = pa.schema(
    [("source", pa.string()), ("n_docs", pa.int64()),
     ("total_tokens", pa.int64()), ("mean_tokens", pa.float64())]
)
_DELTA_SCHEMA = pa.schema(
    [("source", pa.string()), ("docs", pa.int64()), ("toks", pa.int64())]
)


def _budget_partials(t: pa.Table, sign: int = 1) -> pa.Table:
    """Per-source signed (docs, toks) partial for one Arrow batch: one
    hash ``group_by``. A null source is a group of its own; a null
    ``n_tok`` counts as a doc with 0 tokens."""
    g = t.group_by("source").aggregate(
        [([], "count_all"), ("n_tok", "sum", pc.ScalarAggregateOptions(min_count=0))])
    s = pa.scalar(sign, pa.int64())
    return pa.table([g["source"], pc.multiply(g["count_all"], s),
                     pc.multiply(g["n_tok_sum"].cast(pa.int64()), s)], schema=_DELTA_SCHEMA)


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


def _base_partials(lake_dir: str, commit: dict, columns: list[str], partial_fn):
    """The partials of one committed epoch's state — a view's base. A
    lake smaller than one read block runs ONE ``partial_fn`` over its
    concatenated files (read through ``sink.read_file``) in-process;
    a larger one runs a Ray Data read → ``map_batches(partial_fn)``.
    Returns a list of tables or a Dataset (``_fold``'s input)."""
    ensure_portable()
    import ray.data as rd

    from ..cdc import sink

    files = list(sink.state_paths(lake_dir, commit).values())
    if not files:
        return []
    if local_plan(sum(os.path.getsize(f) for f in files)):
        return [partial_fn(pa.concat_tables([sink.read_file(f, columns) for f in files],
                                            promote_options="permissive"))]
    schema = sink.commit_schema(commit)
    return (rd.read_parquet(files, columns=columns,
                            schema=pa.schema([schema.field(c) for c in columns]))
            .map_batches(partial_fn, batch_format="pyarrow"))


def source_budget_at(lake_dir: str, epoch: int | None = None) -> pa.Table:
    """The per-source budget VIEW over one committed epoch's state —
    the base a maintained view starts from. Same partial-sum shape as
    ``source_token_budget`` but epoch-pinned and returned as the tiny
    per-source table (the view itself is O(sources))."""
    from ..cdc import sink

    return _budget_at(lake_dir, sink.commit_at(lake_dir, epoch))


def _budget_at(lake_dir: str, commit: dict) -> pa.Table:
    partials = _base_partials(lake_dir, commit, ["source", "n_tok"], _budget_partials)
    return _finish_budget(_fold(partials, _DELTA_SCHEMA.empty_table()))


def _finish_budget(delta: pa.Table) -> pa.Table:
    """(source, docs, toks) → the published view schema, sources with
    zero surviving docs dropped, mean rounded at 4 (matches
    ``source_token_budget`` / the SQL oracle)."""
    delta = delta.filter(pc.greater(delta["docs"], 0)).sort_by("source")
    docs, toks = (delta[c].to_numpy(zero_copy_only=False) for c in ("docs", "toks"))
    return pa.table([delta["source"], delta["docs"], delta["toks"],
                     pa.array(np.round(toks / docs, 4), pa.float64())], schema=_BUDGET_SCHEMA)


def _signed(partial_fn):
    """The epoch-delta consumer of a view: one signed partial per side
    of a ``cdc.delta.delta_stream`` task — old rows count −1, new rows
    +1 — for the driver's exact int64 fold."""
    return lambda old, new: pa.concat_tables([partial_fn(old, -1), partial_fn(new, 1)])


def _refresh_plan(lake_dir: str, epoch_a: int, epoch_b: int | None) -> tuple[list, bool]:
    """Pick a maintained view's refresh plan from the span's commit
    JSONs alone: the span's aligned runs (``cdc.delta._runs``, the
    enumeration the pair stage uses, so a width change outside
    ``compact_lake`` still raises; the last run ends at commit b), and
    True for the epoch delta — when both sides of the rewritten pairs
    (``delta.pair_rows``) hold fewer rows than ``rows_total`` of b —
    or False for a recompute at b; ties go to the recompute. It opens
    no file: a recompute needs none of epoch a's, so it also serves a
    span whose epoch-a files ``gc_epochs`` collected. A commit that
    rewrote every file (a zipf epoch over a small lake, any compaction)
    is cheaper to recompute; a few thousand keys into a lake of many
    files keep the delta.

    Rows are not equal work: on files served from the written-partition
    memo, ``tools/kernelbench.py`` (upsert shape, 4-CPU host) times the
    delta's zip plus signed partials at 3.3 ms over ~15.2k rows on both
    sides (~0.22 µs a row, one zip per component) and the recompute's
    partial at 0.48 ms over 7.6k rows (~0.06 µs), so spans whose pairs
    hold between ~28 % and 100 % of b's rows take the dearer plan. On
    disk decodes (~0.5 µs a row) rows track the cost."""
    from ..cdc import delta, sink

    e_b = sink.latest_epoch(lake_dir) if epoch_b is None else epoch_b
    runs = delta._runs(lake_dir, epoch_a, e_b)
    return runs, delta.pair_rows(runs) < int(runs[-1][1]["rows_total"])


def incremental_source_budget(
    lake_dir: str,
    base: pa.Table,
    epoch_a: int,
    epoch_b: int | None = None,
) -> pa.Table:
    """Maintain the per-source budget view across a lake commit —
    incremental view maintenance, the materialized-view half of the CDC
    contract (the reference recomputes its datalake_daily_sync
    aggregates from scratch each day; with range-aligned epoch deltas
    the engine keeps them current in work proportional to the REWRITTEN
    files, or to one recompute if that reads fewer rows —
    reference airflow/dags/datalake_daily_sync.py, daily CTAS
    re-aggregation).

    ``base`` is the view at ``epoch_a`` (from ``source_budget_at`` or a
    previous maintenance step). The refresh reads the fewer rows of two
    exact plans (``_refresh_plan``): the delta plan folds the signed
    column-pruned delta (see ``cdc.delta.delta_stream``) into ``base``
    as one O(sources) int64 table on the driver; the recompute plan is
    ``source_budget_at(b)`` and ignores ``base``. Each plan's
    ``== full recompute at epoch b`` is pinned in pytest, across
    re-shard compactions too, and by the ``incremental_budget`` DuckDB
    value-hash oracle."""
    runs, delta_cheaper = _refresh_plan(lake_dir, epoch_a, epoch_b)
    if delta_cheaper:
        return _delta_source_budget(lake_dir, base, epoch_a, epoch_b, runs)
    return _budget_at(lake_dir, runs[-1][1])


def _delta_source_budget(lake_dir: str, base: pa.Table, epoch_a: int,
                         epoch_b: int | None = None, runs: list | None = None) -> pa.Table:
    """The budget view's delta plan: ``base`` plus the signed partials
    of the span's changed rows."""
    from ..cdc.delta import delta_stream

    stream = delta_stream(lake_dir, epoch_a, epoch_b, ["source", "n_tok"],
                          _signed(_budget_partials), runs=runs)
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


def _fold_hist(stream, base: pa.Table) -> pa.Table:
    """Fold token-count partials into ``base``: the exchange plan's
    partials run up to O(vocab) rows per block, so a Dataset is reduced
    distributed before the driver fold. Tokens at count 0 leave the
    view."""
    from ray.data.aggregate import Sum

    if not isinstance(stream, list):
        stream = stream.groupby("token").aggregate(
            Sum("n_occurrences", alias_name="n_occurrences"))
    hist = _fold(stream, base.select(_HIST_FULL_SCHEMA.names).cast(_HIST_FULL_SCHEMA))
    return hist.filter(pc.greater(hist["n_occurrences"], 0)).sort_by("token")


def token_histogram_at(lake_dir: str, epoch: int | None = None) -> pa.Table:
    """The FULL token histogram over one committed epoch's state — the
    maintained-view base (O(vocabulary) rows: bounded model state, the
    same shape kmeans centroids / BPE vocab take on the driver)."""
    from ..cdc import sink

    return _histogram_at(lake_dir, sink.commit_at(lake_dir, epoch))


def _histogram_at(lake_dir: str, commit: dict) -> pa.Table:
    return _fold_hist(_base_partials(lake_dir, commit, ["tokens"], _hist_partials),
                      _HIST_FULL_SCHEMA.empty_table())


def incremental_token_histogram(
    lake_dir: str,
    base: pa.Table,
    epoch_a: int,
    epoch_b: int | None = None,
) -> pa.Table:
    """Maintain the corpus token histogram (vocabulary counts) across a
    lake commit — the heavier IVM instance: at 10^10 documents a
    from-scratch histogram is a full corpus flatten, while the day's
    change set is orders of magnitude smaller. The same choice of plan
    as the budget view (``_refresh_plan``): the signed delta folded
    into ``base`` (int64, exact past 2^53; tokens whose count drops to
    0 leave the view) when it reads fewer rows, else
    ``token_histogram_at(b)``. Each plan's exactness vs
    ``token_histogram_at`` is pinned in pytest."""
    runs, delta_cheaper = _refresh_plan(lake_dir, epoch_a, epoch_b)
    if delta_cheaper:
        return _delta_token_histogram(lake_dir, base, epoch_a, epoch_b, runs)
    return _histogram_at(lake_dir, runs[-1][1])


def _delta_token_histogram(lake_dir: str, base: pa.Table, epoch_a: int,
                           epoch_b: int | None = None, runs: list | None = None) -> pa.Table:
    """The histogram's delta plan: ``base`` plus the signed token
    counts of the span's changed rows."""
    from ..cdc.delta import delta_stream

    stream = delta_stream(lake_dir, epoch_a, epoch_b, ["tokens"], _signed(_hist_partials),
                          runs=runs)
    return _fold_hist(stream, base)
