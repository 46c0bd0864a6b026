"""10^9-event single-node demonstration of the CDC engine.

Generates a 1B-event change log (5M keys, zipf-skewed, heavy-update
profile) in parallel with Ray tasks, replays it with ``replay()`` —
which picks the narrow exchange at this scale (the payload shuffle
would spill ~30+ GB) — and verifies a key sample against a DuckDB
oracle over the narrow columns. The printed ``strategy`` is the one the
commit records.

Usage: python tools/bigrun.py [num_events]
Results are appended to BASELINE.md by hand (see round notes).
"""

from __future__ import annotations

import glob
import json
import os
import shutil
import sys
import time

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, REPO)

NUM_EVENTS = int(float(sys.argv[1])) if len(sys.argv) > 1 else 1_000_000_000
NUM_KEYS = max(1_000_000, NUM_EVENTS // 200)
NUM_SHARDS = 256
MAX_TOK = 16
CHG = f"/tmp/tonray_big_{NUM_EVENTS}"
LAKE = f"/tmp/tonray_big_lake_{NUM_EVENTS}"


def generate(ray) -> float:
    import numpy as np

    from ton_etl_ray._pickle import ensure_portable

    ensure_portable()
    if os.path.exists(os.path.join(CHG, "_DONE")):
        return 0.0
    shutil.rmtree(CHG, ignore_errors=True)
    os.makedirs(CHG)
    t0 = time.time()
    # zipf CDF computed once, shared zero-copy via the object store
    ranks = np.arange(1, NUM_KEYS + 1, dtype=np.float64)
    p = 1.0 / ranks**1.1
    cdf = np.cumsum(p / p.sum())
    cdf_ref = ray.put(cdf)
    per = NUM_EVENTS // NUM_SHARDS

    @ray.remote(num_cpus=1)
    def gen_shard(k: int) -> str:
        import numpy as np
        import pyarrow as pa
        import pyarrow.parquet as pq

        from ton_etl_ray.gen import SOURCES, TS_BASE_MS, TS_STEP_MS, VOCAB

        n = per if k < NUM_SHARDS - 1 else NUM_EVENTS - per * (NUM_SHARDS - 1)
        rng = np.random.default_rng(4242 + k)
        c = ray.get(cdf_ref)
        key_idx = np.searchsorted(c, rng.random(n))
        perm_mix = np.uint64(0x9E3779B97F4A7C15)
        with np.errstate(over="ignore"):
            key_ids = (key_idx.astype(np.uint64) * perm_mix) % np.uint64(NUM_KEYS)
        doc_ids = np.char.add("doc-", np.char.zfill(key_ids.astype("U10"), 10))
        r = rng.random(n)
        op = np.where(r < 0.5, "c", np.where(r < 0.9, "u", "d"))
        lsn = np.arange(per * k, per * k + n, dtype=np.int64)
        live = op != "d"
        n_live = int(live.sum())
        lengths = rng.integers(1, MAX_TOK + 1, size=n_live)
        flat = rng.integers(0, VOCAB, size=int(lengths.sum()), dtype=np.int32)
        loff = np.zeros(n_live + 1, dtype=np.int64)
        np.cumsum(lengths, out=loff[1:])
        full_len = np.zeros(n, dtype=np.int64)
        full_len[live] = lengths
        off = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(full_len, out=off[1:])
        tokens = pa.ListArray.from_arrays(
            pa.array(off).cast(pa.int32()), pa.array(flat), mask=pa.array(~live)
        )
        n_tok = np.where(live, full_len, 0).astype(np.int32)
        src = SOURCES[rng.integers(0, len(SOURCES), size=n)]
        t = pa.table(
            {
                "lsn": pa.array(lsn),
                "op": pa.array(op.astype(object), pa.string()),
                "doc_id": pa.array(doc_ids.astype(object), pa.string()),
                "tokens": tokens,
                "n_tok": pa.compute.if_else(pa.array(live), pa.array(n_tok), pa.nulls(n, pa.int32())),
                "source": pa.compute.if_else(pa.array(live), pa.array(src.astype(object), pa.string()), pa.nulls(n, pa.string())),
                "ts_ms": pa.array(TS_BASE_MS + lsn * TS_STEP_MS),
            }
        )
        path = os.path.join(CHG, f"shard-{k:05d}.parquet")
        pq.write_table(t, path + ".tmp")
        os.replace(path + ".tmp", path)
        return path

    refs = [gen_shard.remote(k) for k in range(NUM_SHARDS)]
    ray.get(refs)
    open(os.path.join(CHG, "_DONE"), "w").write("ok")
    return time.time() - t0


def main() -> int:
    import ray

    ray.init(address="local", num_cpus=32, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.execution_options.preserve_order = False

    gen_sec = generate(ray)
    size = sum(os.path.getsize(f) for f in glob.glob(os.path.join(CHG, "*.parquet")))
    print(f"generated: {gen_sec:.0f}s, {size / (1 << 30):.1f} GiB, {NUM_SHARDS} shards", flush=True)

    from ton_etl_ray.cdc import sink
    from ton_etl_ray.cdc.replay import read_lake, replay

    shutil.rmtree(LAKE, ignore_errors=True)
    t0 = time.time()
    res = replay(CHG, LAKE, num_partitions=1024)
    dt = time.time() - t0
    out = {
        "events": NUM_EVENTS,
        "keys": NUM_KEYS,
        "input_gib": round(size / (1 << 30), 2),
        "replay_sec": round(dt, 1),
        "events_per_sec": round(NUM_EVENTS / dt),
        "lake_rows": res.rows_total,
        "strategy": sink.read_commit(LAKE, res.epoch).get("strategy", "payload"),
        "loadavg_1m": os.getloadavg()[0],
    }
    print(json.dumps(out), flush=True)

    # sampled oracle check: winning lsn per key for ~2000 keys
    import duckdb

    files = sorted(glob.glob(os.path.join(CHG, "*.parquet")))
    sample = duckdb.sql(
        f"""
        WITH w AS (
          SELECT doc_id, max(lsn) AS lsn FROM read_parquet({files})
          WHERE hash(doc_id) % 2500 = 0 GROUP BY doc_id
        ), last AS (
          SELECT l.doc_id, l.lsn, r.op FROM w l
          JOIN read_parquet({files}) r ON r.doc_id = l.doc_id AND r.lsn = l.lsn
        )
        SELECT doc_id, lsn, op FROM last
        """
    ).df()
    lake_rows = {}
    ds = read_lake(LAKE).map_batches(
        lambda t: t.select(["doc_id", "lsn"]), batch_format="pyarrow"
    )
    keys = set(sample["doc_id"])
    for b in ds.iter_batches(batch_size=1 << 20, batch_format="pyarrow"):
        for d, l in zip(b["doc_id"].to_pylist(), b["lsn"].to_pylist()):
            if d in keys:
                lake_rows[d] = l
    errors = 0
    for _, row in sample.iterrows():
        if row["op"] == "d":
            errors += row["doc_id"] in lake_rows
        else:
            errors += lake_rows.get(row["doc_id"]) != row["lsn"]
    print(f"sampled-oracle: {len(sample)} keys checked, {errors} errors", flush=True)
    ray.shutdown()
    return 1 if errors else 0


if __name__ == "__main__":
    raise SystemExit(main())
