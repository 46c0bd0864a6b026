"""Continuous-mode demonstration at scale: drive DirectoryWatcher over
the cached 2x10^8-event change log (tools/bigrun.py 200000000 builds
it) arriving in waves of symlinked shards, then verify the final lake
against a sampled DuckDB rank-1 oracle plus a tombstone-absence check.

This is the at-scale twin of tests/test_streaming.py: the same
seal-then-publish micro-batch loop, but 256 shards / 5.9 GiB / 8
committed epochs instead of toy inputs.

Usage: python tools/watchrun.py [num_events]
Results are appended to BASELINE.md by hand (see round notes).
"""

from __future__ import annotations

import glob
import os
import shutil
import sys
import time

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, REPO)

NUM_EVENTS = int(float(sys.argv[1])) if len(sys.argv) > 1 else 200_000_000
SRC = f"/tmp/tonray_big_{NUM_EVENTS}"
BASE = f"/tmp/tonray_watch_{NUM_EVENTS}"
WATCH, LAKE = f"{BASE}/in", f"{BASE}/lake"
WAVE = 32


def main() -> None:
    import ray

    ray.init(address="local", num_cpus=32, include_dashboard=False,
             logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    from ton_etl_ray.cdc.replay import final_state_table
    from ton_etl_ray.cdc.streaming import DirectoryWatcher

    if not os.path.exists(os.path.join(SRC, "_DONE")):
        raise SystemExit(f"run `python tools/bigrun.py {NUM_EVENTS}` first to build {SRC}")
    shutil.rmtree(BASE, ignore_errors=True)
    os.makedirs(WATCH)

    shards = sorted(glob.glob(os.path.join(SRC, "shard-*.parquet")))
    w = DirectoryWatcher(WATCH, LAKE, num_partitions=256,
                         max_batch_shards=WAVE, idle_flush_sec=0.1, stable_polls=1)
    t0 = time.time()
    epochs = 0
    for i in range(0, len(shards), WAVE):
        for s in shards[i:i + WAVE]:
            os.symlink(s, os.path.join(WATCH, os.path.basename(s)))
        for _ in range(8):  # poll twice for the quiescence gate, then flush
            if w.step():
                epochs += 1
            if not w.pending and not w._seen:
                break
    time.sleep(0.2)
    for _ in range(8):  # idle drain
        if w.step():
            epochs += 1
    wall = time.time() - t0
    print(f"epochs committed: {epochs}, wall: {wall:.1f}s, "
          f"ev/s: {NUM_EVENTS / wall:,.0f}")

    t = final_state_table(LAKE)
    print("lake rows:", t.num_rows)

    import duckdb
    import numpy as np

    rng = np.random.default_rng(7)
    keys = t["doc_id"].to_pylist()
    sample = [keys[i] for i in rng.choice(len(keys), size=1500, replace=False)]
    con = duckdb.connect()
    ph = ",".join(f"'{k}'" for k in sample)
    want = con.execute(f"""
        WITH ranked AS (
          SELECT doc_id, n_tok, source, op,
                 row_number() OVER (PARTITION BY doc_id ORDER BY lsn DESC) rk
          FROM read_parquet('{SRC}/shard-*.parquet', union_by_name=true)
          WHERE doc_id IN ({ph}))
        SELECT doc_id, n_tok, source FROM ranked WHERE rk = 1 AND op <> 'd'
    """).fetchall()
    oracle = {d: (n, s) for d, n, s in want}
    mine_all = {
        d: (n, s)
        for d, n, s in zip(t["doc_id"].to_pylist(), t["n_tok"].to_pylist(),
                           t["source"].to_pylist())
    }
    errs = sum(1 for d in sample if mine_all.get(d) != oracle.get(d))
    print(f"sampled-oracle: {len(sample)} keys checked, {errs} errors")
    dead = con.execute(f"""
        WITH ranked AS (
          SELECT doc_id, op, row_number() OVER (PARTITION BY doc_id ORDER BY lsn DESC) rk
          FROM read_parquet('{SRC}/shard-*.parquet', union_by_name=true))
        SELECT doc_id FROM ranked WHERE rk = 1 AND op = 'd' LIMIT 500
    """).fetchall()
    missing = sum(1 for (d,) in dead if d in mine_all)
    print(f"tombstone check: {len(dead)} dead keys, {missing} wrongly present")
    assert errs == 0 and missing == 0
    ray.shutdown()


if __name__ == "__main__":
    main()
