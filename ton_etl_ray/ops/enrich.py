"""External-fetch enrichment: actor-pool stage with cache/TTL/retry.

Mirrors the reference's metadata parsers (P30/P31: HTTP+IPFS fetch with
retry/backoff, a per-key cache with 24 h TTL, and a fallback source —
reference parser/parsers/jetton_masters/jetton_metadata.py:40-66,
121-128, 188-221) as a Ray Data stage: the fetcher client is built ONCE
per actor in ``__init__`` (connection pools, auth); each batch fetches
each DISTINCT key at most once, consults the per-actor TTL cache first, and
retries transient failures with exponential backoff before falling back
to a null enrichment plus an error marker.

No network exists in this container, so the default fetcher raises —
inject a real client at the call site; tests drive the full cache/TTL/
retry surface with mock fetchers (tests/test_enrich.py).

Scale notes: the cache is per-actor (keys are NOT routed, so the worst
case is one fetch per key per actor); ``enrich_routed`` below is the
``groupby(key)``-routed variant that guarantees one fetch per key per
RUN when the fetch is expensive enough to justify the shuffle. The
concurrent-pressure bound on the external service differs by variant:
``enrich`` is an ``ActorPoolMapOperator`` (actor count × one in-flight
batch each), while ``enrich_routed`` runs as ``map_groups`` TASKS — its
bound is ``num_buckets`` concurrent groups, so size ``num_buckets`` to
the service's quota.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from collections.abc import Callable

import pyarrow as pa

import ray.data as rd

from .._pickle import ensure_portable


def default_fetcher(key: str) -> dict:
    """STUB: a real deployment injects an HTTP/IPFS client factory."""
    raise NotImplementedError("no network in this environment; inject a fetcher")


class FetchError(RuntimeError):
    pass


class FetchEnrichStage:
    """Actor-pool stage: add an enrichment column fetched per key.

    Parameters
    ----------
    fetcher_factory: builds the client once per actor; the client is
        ``Callable[[str], dict]`` and may raise on transient failure.
    key_col: column holding the fetch key.
    ttl_sec: cache entry lifetime (reference uses 24 h,
        jetton_metadata.py:121-128); expired entries are re-fetched.
    neg_ttl_sec: lifetime for CACHED FAILURES (None enrichments) — short
        so a recovered service is retried quickly.
    max_retries / backoff_base_sec: exponential backoff schedule for
        transient errors (jetton_metadata.py:40-66 retries IPFS 3×).
    cache_max: LRU bound so a long-lived actor can't grow unboundedly.
    time_fn / sleep_fn: injectable clocks for deterministic tests.
    """

    def __init__(
        self,
        fetcher_factory: Callable[[], Callable[[str], dict]] = lambda: default_fetcher,
        *,
        key_col: str = "key",
        ttl_sec: float = 24 * 3600.0,
        neg_ttl_sec: float = 60.0,
        max_retries: int = 3,
        backoff_base_sec: float = 0.05,
        cache_max: int = 100_000,
        time_fn: Callable[[], float] = time.monotonic,
        sleep_fn: Callable[[float], None] = time.sleep,
    ):
        self.fetch = fetcher_factory()
        self.key_col = key_col
        self.ttl = ttl_sec
        # failures are cached SEPARATELY and briefly: caching a None for
        # the full 24 h would turn one transient outage into a day of
        # fetch_ok=False for every key it touched
        self.neg_ttl = neg_ttl_sec
        self.max_retries = max_retries
        self.backoff = backoff_base_sec
        self.cache: OrderedDict[str, tuple[float, dict | None]] = OrderedDict()
        self.cache_max = cache_max
        self.now = time_fn
        self.sleep = sleep_fn
        self.counters = {"hits": 0, "fetches": 0, "retries": 0, "failures": 0}

    # -- cache ---------------------------------------------------------
    def _cache_get(self, key: str):
        ent = self.cache.get(key)
        if ent is None:
            return None
        fetched_at, value = ent
        ttl = self.ttl if value is not None else self.neg_ttl
        if self.now() - fetched_at > ttl:
            del self.cache[key]        # expired → refetch
            return None
        self.cache.move_to_end(key)    # LRU touch
        self.counters["hits"] += 1
        return (value,)

    def _cache_put(self, key: str, value: dict | None) -> None:
        self.cache[key] = (self.now(), value)
        self.cache.move_to_end(key)
        while len(self.cache) > self.cache_max:
            self.cache.popitem(last=False)

    # -- fetch with retry/backoff -------------------------------------
    def _fetch_one(self, key: str) -> dict | None:
        for attempt in range(self.max_retries + 1):
            try:
                self.counters["fetches"] += 1
                return self.fetch(key)
            except Exception:
                if attempt == self.max_retries:
                    self.counters["failures"] += 1
                    return None        # fallback: null enrichment
                self.counters["retries"] += 1
                self.sleep(self.backoff * (2 ** attempt))
        return None

    def __call__(self, batch: pa.Table) -> pa.Table:
        keys = batch[self.key_col].to_pylist()
        resolved: dict[str, dict | None] = {}
        for k in dict.fromkeys(keys):  # distinct, order-preserving
            hit = self._cache_get(k)
            if hit is not None:
                resolved[k] = hit[0]
                continue
            v = self._fetch_one(k)
            self._cache_put(k, v)
            resolved[k] = v

        import json

        enriched = [
            json.dumps(resolved[k], sort_keys=True) if resolved[k] is not None else None
            for k in keys
        ]
        ok = [resolved[k] is not None for k in keys]
        out = batch.append_column("enrichment", pa.array(enriched, pa.string()))
        return out.append_column("fetch_ok", pa.array(ok, pa.bool_()))


def enrich_event_types(sf_dir: str):
    """Oracle-checked demo of the enrichment stage: a deterministic
    fetcher (upper-cases the key — no network) enriches every event by
    its type, so DuckDB can recompute the exact enrichment JSON. Proves
    the full actor path (cache, distinct-key fetch, JSON layout) under
    the driver's value-hash gate."""
    from ._util import read_table

    ds = read_table(sf_dir, "events", columns=["event_id", "event_type"])
    return enrich(
        ds,
        lambda: (lambda k: {"u": k.upper()}),
        key_col="event_type",
        concurrency=2,
        batch_size=4096,
    )


def enrich(
    ds: "rd.Dataset",
    fetcher_factory: Callable[[], Callable[[str], dict]],
    *,
    key_col: str,
    concurrency: int = 2,
    batch_size: int = 1024,
    **stage_kwargs,
) -> "rd.Dataset":
    """Attach (enrichment, fetch_ok) columns to ``ds`` by fetching per
    distinct ``key_col`` value through an actor pool."""
    ensure_portable()
    return ds.map_batches(
        FetchEnrichStage,
        fn_constructor_kwargs={"fetcher_factory": fetcher_factory, "key_col": key_col,
                               **stage_kwargs},
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=concurrency,
    )


def enrich_routed(
    ds: "rd.Dataset",
    fetcher_factory: Callable[[], Callable[[str], dict]],
    *,
    key_col: str,
    num_buckets: int = 16,
    **stage_kwargs,
) -> "rd.Dataset":
    """Key-ROUTED enrichment: the ``groupby(key)`` option from the scale
    notes, made concrete. Rows are shuffled by a hash bucket of the key
    before the fetch stage, so every distinct key is resolved by exactly
    ONE group — one fetch per key per run, however many actors execute —
    where the unrouted ``enrich`` bounds it at one fetch per key per
    ACTOR. Use when the fetch is expensive enough that the extra shuffle
    is cheaper than (actor_count - 1) redundant fetches per key; the
    per-actor TTL cache matters less here because the bucket assignment
    is sticky across runs (same hash). Runs as ``map_groups`` tasks, so
    concurrent external pressure is bounded by ``num_buckets`` (not an
    actor pool — ``concurrency``/``batch_size`` do not apply here)."""
    ensure_portable()
    for bad in ("concurrency", "batch_size"):
        if bad in stage_kwargs:
            raise TypeError(
                f"enrich_routed has no {bad!r}: routing runs as map_groups "
                "tasks; bound concurrency with num_buckets instead"
            )
    from ..core.partition import hash64

    def bucket(t: pa.Table) -> pa.Table:
        import numpy as np

        b = (hash64(t[key_col]) % np.uint64(num_buckets)).astype(np.int64)
        return t.append_column("__kb", pa.array(b, pa.int64()))

    def run_group(g: pa.Table) -> pa.Table:
        if "__kb" in g.column_names:
            g = g.drop_columns(["__kb"])
        stage = FetchEnrichStage(fetcher_factory, key_col=key_col, **stage_kwargs)
        return stage(g)

    return (
        ds.map_batches(bucket, batch_format="pyarrow")
        .groupby("__kb")
        .map_groups(run_group, batch_format="pyarrow")
    )


def metadata_refresh_feed(
    lake_dir: str,
    out_dir: str,
    fetcher_factory: Callable[[], Callable[[str], dict]],
    *,
    key_col: str = "source",
    meta_col: str = "metadata",
    epoch: int | None = None,
    concurrency: int = 2,
    **stage_kwargs,
) -> str:
    """The full P30 loop (reference jetton_metadata.py:86-127): re-fetch
    metadata for every distinct ``key_col`` in the lake's live rows,
    DELTA-COMPARE each fetch against the stored ``meta_col``, and export
    ONLY the changed rows as a replayable changefeed — apply it with
    ``replay(out_dir, lake_dir)`` to commit the refresh as the next
    epoch (schema evolution adds ``meta_col`` on first refresh).

    Scale shape: the fetch runs over the DISTINCT key set (dim-sized by
    P30's contract — jetton masters, not events) through the actor-pool
    stage, then the (key → canonical metadata) map broadcasts via
    ``ray.put`` into a zero-shuffle map-side compare over the payload
    stream. The no-change path is fully vectorized (raw string
    equality against the canonical form this pipeline itself writes);
    only rows whose raw strings differ pay a JSON re-parse to rule out
    formatting-only deltas. Keys whose fetch FAILED after retries are
    skipped — the stored row stays, matching the reference's
    keep-on-fetch-failure rule. An empty delta still writes one empty
    shard in the change schema so the feed replays as a no-op epoch.

    Update rows carry ``lsn = commit.max_lsn + 1``: strictly above every
    stored lsn, so LWW picks the refresh; one feed per replay (the
    changefeed module-doc contract) keeps that lsn from colliding with
    later real lsns.
    """
    import glob as _glob
    import json
    import os

    import numpy as np
    import pyarrow.compute as pc

    import ray

    from ..cdc import sink
    from ..cdc.changefeed import _fresh_out_dir, _write_feed_meta
    from ..functions import normalize_json

    ensure_portable()
    base_epoch = sink.latest_epoch(lake_dir) if epoch is None else epoch
    if base_epoch is None:
        raise ValueError(f"metadata_refresh_feed: no committed epochs under {lake_dir!r}")
    os.makedirs(out_dir, exist_ok=True)
    _fresh_out_dir(out_dir)
    refresh_lsn = int(sink.read_commit(lake_dir, base_epoch)["max_lsn"]) + 1
    _write_feed_meta(out_dir, {"kind": "metadata_refresh", "epoch_a": base_epoch,
                               "epoch_b": None, "delete_lsn": None,
                               "refresh_lsn": refresh_lsn})

    payload = sink.lake_schema(lake_dir, base_epoch)
    out_fields = [pa.field("lsn", pa.int64()), pa.field("op", pa.string())]
    out_fields += [f for f in payload if f.name != "lsn"]
    if meta_col not in payload.names:
        out_fields.append(pa.field(meta_col, pa.string()))
    out_schema = pa.schema(out_fields)

    files = sink.lake_files(lake_dir, base_epoch)
    if files:
        live = rd.read_parquet(files, schema=payload)
        # distinct keys: per-block unique partials, then a driver set —
        # dim-sized by contract (the fetch targets masters/collections,
        # never the event stream)
        partials = live.select_columns([key_col]).map_batches(
            lambda t: pa.table({key_col: pc.unique(
                t[key_col].combine_chunks()
                if isinstance(t[key_col], pa.ChunkedArray) else t[key_col])}),
            batch_format="pyarrow",
        )
        keys = sorted(set(partials.unique(key_col)) - {None})
        if keys:
            kds = rd.from_arrow(pa.table({key_col: pa.array(keys, pa.string())}))
            kds = kds.repartition(max(1, min(concurrency * 2, len(keys))))
            fetched = enrich(kds, fetcher_factory, key_col=key_col,
                             concurrency=concurrency, **stage_kwargs)
            canon: dict[str, str] = {}
            for b in fetched.iter_batches(batch_format="pyarrow"):
                for k, enr, ok in zip(b[key_col].to_pylist(),
                                      b["enrichment"].to_pylist(),
                                      b["fetch_ok"].to_pylist()):
                    if ok:  # failed fetch → keep stored row (reference rule)
                        canon[k] = normalize_json(json.loads(enr))
            canon_ref = ray.put(canon)

            def delta(t: pa.Table, _ref=canon_ref) -> pa.Table:
                cmap: dict[str, str] = ray.get(_ref) if not isinstance(_ref, dict) else _ref
                kcol = (t[key_col].combine_chunks()
                        if isinstance(t[key_col], pa.ChunkedArray) else t[key_col])
                karr = kcol.to_pylist()
                new = np.array([cmap.get(k) for k in karr], dtype=object)
                if meta_col in t.column_names:
                    stored = np.array(t[meta_col].to_pylist(), dtype=object)
                else:
                    stored = np.full(len(karr), None, dtype=object)
                # explicit bool dtype: np.array([]) defaults to float64
                # and `float & bool` raises on an EMPTY batch
                cand = (np.array([n is not None for n in new], dtype=bool)
                        & (new != stored))
                # raw mismatch may be formatting-only: re-parse those few
                for i in np.flatnonzero(cand):
                    s = stored[i]
                    if s is None:
                        continue
                    try:
                        if normalize_json(json.loads(s)) == new[i]:
                            cand[i] = False
                    except (ValueError, TypeError):
                        pass  # unparseable stored value: a real change
                idx = np.flatnonzero(cand)
                sub = t.take(pa.array(idx, pa.int64()))
                n = sub.num_rows
                cols = {
                    "lsn": pa.array(np.full(n, refresh_lsn, np.int64), pa.int64()),
                    "op": pa.array(["u"] * n, pa.string()),
                }
                for f in out_schema:
                    if f.name in ("lsn", "op"):
                        continue
                    if f.name == meta_col:
                        cols[f.name] = pa.array([new[i] for i in idx], pa.string())
                    elif f.name in sub.column_names:
                        cols[f.name] = sub[f.name].cast(f.type)
                    else:
                        cols[f.name] = pa.nulls(n, f.type)
                return pa.table(cols, schema=out_schema)

            live.map_batches(delta, batch_format="pyarrow").write_parquet(out_dir)

    if not _glob.glob(os.path.join(out_dir, "*.parquet")):
        # no-change refresh: one empty shard keeps the feed replayable
        # as a no-op epoch (same rule as emit_changefeed/emit_snapshot)
        import pyarrow.parquet as _pq

        _pq.write_table(out_schema.empty_table(),
                        os.path.join(out_dir, "refresh-empty.parquet"))
    return out_dir
