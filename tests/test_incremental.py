"""Micro-batch ingestor: micro-batch epochs equal batch replay."""

import glob
import os

import duckdb

from ton_etl_ray.cdc.incremental import IncrementalIngestor
from ton_etl_ray.cdc.replay import final_state_table, replay
from ton_etl_ray.gen import write_change_log


def _state_map(lake):
    t = final_state_table(lake).select(["doc_id", "tokens", "n_tok", "source"])
    return {r["doc_id"]: (tuple(r["tokens"]), r["n_tok"], r["source"]) for r in t.to_pylist()}


def test_microbatches_equal_oneshot_replay(tmp_path):
    chg = str(tmp_path / "chg")
    write_change_log(chg, num_events=9000, num_keys=700, seed=31, num_shards=6, max_tok=16)
    files = sorted(glob.glob(os.path.join(chg, "*.parquet")))

    lake_a = str(tmp_path / "lake_replay")
    replay(files, lake_a, num_partitions=8)

    lake_b = str(tmp_path / "lake_ingest")
    ing = IncrementalIngestor(lake_b, num_partitions=8)
    r0 = ing.ingest(files[:2])
    r1 = ing.ingest(files[2:4])
    assert (r0["epoch"], r1["epoch"]) == (0, 1)

    # restart: a NEW ingestor must build on the committed state on disk
    ing2 = IncrementalIngestor(lake_b)
    r2 = ing2.ingest(files[4:])
    assert r2["epoch"] == 2

    assert _state_map(lake_a) == _state_map(lake_b)


def test_microbatch_matches_duckdb_oracle(tmp_path):
    chg = str(tmp_path / "chg")
    write_change_log(chg, num_events=6000, num_keys=500, seed=32, num_shards=4, max_tok=16)
    files = sorted(glob.glob(os.path.join(chg, "*.parquet")))
    lake = str(tmp_path / "lake")
    ing = IncrementalIngestor(lake, num_partitions=4)
    for f in files:
        ing.ingest([f])

    want = duckdb.sql(
        f"""
        WITH ranked AS (
          SELECT *, row_number() OVER (PARTITION BY doc_id ORDER BY lsn DESC) rk
          FROM read_parquet({files})
        ) SELECT doc_id, tokens, n_tok, source FROM ranked WHERE rk=1 AND op <> 'd'
        """
    ).arrow()
    wm = {r["doc_id"]: (tuple(r["tokens"]), r["n_tok"], r["source"]) for r in want.to_pylist()}
    assert _state_map(lake) == wm


def test_microbatch_schema_evolution(tmp_path):
    """Evolved shards arriving in a later epoch widen the lake schema."""
    import pyarrow as pa

    chg0 = str(tmp_path / "c0")
    chg1 = str(tmp_path / "c1")
    write_change_log(chg0, num_events=2000, num_keys=150, seed=71, num_shards=2, max_tok=8)
    write_change_log(chg1, num_events=2000, num_keys=150, seed=72, num_shards=2, max_tok=8,
                     evolve_after_shard=0)
    import glob as g
    import pyarrow.parquet as pq

    for f in sorted(g.glob(os.path.join(chg1, "*.parquet"))):
        t = pq.read_table(f)
        lsn = pa.compute.add(t["lsn"], pa.scalar(1_000_000, pa.int64()))
        pq.write_table(t.set_column(t.column_names.index("lsn"), "lsn", lsn), f)

    lake = str(tmp_path / "lake")
    ing = IncrementalIngestor(lake, num_partitions=4)
    ing.ingest(chg0)
    ing.ingest(chg1)

    from ton_etl_ray.cdc.replay import final_state_table

    t = final_state_table(lake)
    assert t.schema.field("lang").type == pa.string()
    assert t.schema.field("n_tok").type == pa.int64()
    rows = t.to_pylist()
    assert any(r["lang"] is not None for r in rows)


def test_failed_ingest_does_not_leak_into_next_epoch(tmp_path, monkeypatch):
    """Exactly-once across micro-batches (ADVICE r1): a failed (never
    committed) ingest leaves no commit, retrying it applies it once, and
    a batch that is not retried never leaks into a later epoch."""
    import pytest

    from ton_etl_ray.cdc import incremental as inc_mod

    chg = str(tmp_path / "chg")
    write_change_log(chg, num_events=6000, num_keys=400, seed=45, num_shards=6, max_tok=8)
    files = sorted(glob.glob(os.path.join(chg, "*.parquet")))

    lake = str(tmp_path / "lake")
    ing = IncrementalIngestor(lake, num_partitions=8)
    ing.ingest(files[0:2])                           # epoch 0: ok

    real_publish = inc_mod.sink.publish_epoch
    calls = {"n": 0}

    def failing_publish(*a, **k):
        calls["n"] += 1
        raise RuntimeError("injected publish failure")

    def fail_once(batch, epoch):
        monkeypatch.setattr(inc_mod.sink, "publish_epoch", failing_publish)
        with pytest.raises(RuntimeError):
            ing.ingest(batch)                        # fails after the writes
        monkeypatch.setattr(inc_mod.sink, "publish_epoch", real_publish)
        assert not inc_mod.sink.is_committed(lake, epoch)

    def oracle(batch):
        out = str(tmp_path / f"oracle{len(batch)}")
        replay(batch, out, num_partitions=8)
        return _state_map(out)

    fail_once(files[2:3], 1)
    assert ing.ingest(files[2:3])["epoch"] == 1      # the retry lands once
    assert _state_map(lake) == oracle(files[0:3])

    fail_once(files[3:4], 2)                            # never retried
    assert ing.ingest(files[4:6])["epoch"] == 2
    assert calls["n"] == 2
    # oracle: batch replay of shards 0,1,2,4,5 ONLY (3 never committed)
    assert _state_map(lake) == oracle(files[0:3] + files[4:6])


def test_interleaved_external_writer_not_reverted(tmp_path):
    """An external replay() committing between two micro-batches of the
    same ingestor must SURVIVE the next ingest: every epoch merges onto
    the head it pins under the epoch lock, never onto state the
    ingestor saw earlier."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    chg = str(tmp_path / "chg")
    write_change_log(chg, num_events=6000, num_keys=400, seed=61,
                     num_shards=6, max_tok=8)
    files = sorted(glob.glob(os.path.join(chg, "*.parquet")))
    lake = str(tmp_path / "lake")

    ing = IncrementalIngestor(lake, num_partitions=8)
    ing.ingest(files[:2])            # epoch 0
    ing.ingest(files[2:4])           # epoch 1

    # external one-shot correction: rewrite EVERY live doc's tokens at
    # lsns above everything stored (a realistic ops fix-up)
    state = final_state_table(lake).to_pylist()
    corr_dir = str(tmp_path / "corr")
    os.makedirs(corr_dir)
    n = len(state)
    corr = pa.table({
        "lsn": pa.array(range(10_000_000, 10_000_000 + n), pa.int64()),
        "op": pa.array(["u"] * n, pa.string()),
        "doc_id": pa.array([r["doc_id"] for r in state], pa.string()),
        "tokens": pa.array([[7, 7, 7]] * n, pa.list_(pa.int32())),
        "n_tok": pa.array([3] * n, pa.int32()),
        "source": pa.array([r["source"] for r in state], pa.string()),
        "ts_ms": pa.array([0] * n, pa.int64()),
    })
    pq.write_table(corr, os.path.join(corr_dir, "corr.parquet"))
    replay(corr_dir, lake)           # epoch 2, by a DIFFERENT writer

    # epoch 3 (same ingestor): a SMALL change set at even higher lsns —
    # the stream contract (lsns increase across epochs) holds, and only
    # these 10 docs may change
    touched = [r["doc_id"] for r in state[:10]]
    m = len(touched)
    chg3_dir = str(tmp_path / "chg3")
    os.makedirs(chg3_dir)
    pq.write_table(pa.table({
        "lsn": pa.array(range(20_000_000, 20_000_000 + m), pa.int64()),
        "op": pa.array(["u"] * m, pa.string()),
        "doc_id": pa.array(touched, pa.string()),
        "tokens": pa.array([[9]] * m, pa.list_(pa.int32())),
        "n_tok": pa.array([1] * m, pa.int32()),
        "source": pa.array(["s"] * m, pa.string()),
        "ts_ms": pa.array([0] * m, pa.int64()),
    }), os.path.join(chg3_dir, "chg3.parquet"))
    ing.ingest(sorted(glob.glob(os.path.join(chg3_dir, "*.parquet"))))

    final = _state_map(lake)
    for d in touched:
        assert final[d][0] == (9,)
    untouched = {d: v for d, v in final.items() if d not in set(touched)}
    assert untouched and all(v[0] == (7, 7, 7) for v in untouched.values()), (
        "external epoch's corrections were reverted by a stale applier cache")


def test_latest_pointer_repairs_after_partial_publish(tmp_path):
    """A crash between the _COMMIT write and the _LATEST flip leaves a
    committed epoch invisible; latest_epoch must repair forward (the
    pin-under-lock retry loops would otherwise livelock pinning the
    same committed epoch forever)."""
    from ton_etl_ray.cdc import sink as S

    chg = str(tmp_path / "chg")
    write_change_log(chg, num_events=4000, num_keys=300, seed=62,
                     num_shards=4, max_tok=8)
    files = sorted(glob.glob(os.path.join(chg, "*.parquet")))
    lake = str(tmp_path / "lake")
    replay(files[:2], lake, num_partitions=4)   # epoch 0
    replay(files[2:3], lake)                    # epoch 1
    # simulate the crash window: pointer still says 0, commit 1 exists
    with open(os.path.join(lake, "_LATEST"), "w") as f:
        f.write("0")
    assert S.latest_epoch(lake) == 1            # repaired forward
    with open(os.path.join(lake, "_LATEST")) as f:
        assert f.read().strip() == "1"          # pointer rewritten
    # and a further replay proceeds (no livelock), landing at epoch 2
    res = replay(files[3:], lake)
    assert res.epoch == 2
    # no-pointer variant: epoch 0 committed, pointer missing entirely
    lake2 = str(tmp_path / "lake2")
    replay(files[:2], lake2, num_partitions=4)
    os.remove(os.path.join(lake2, "_LATEST"))
    assert S.latest_epoch(lake2) == 0


def test_route_empty_batch_routes_nothing(tmp_path):
    """An empty change shard routes zero rows: its epoch commits and
    inherits every partition."""
    import pyarrow.parquet as pq

    chg = str(tmp_path / "chg")
    write_change_log(chg, num_events=2000, num_keys=150, seed=46, num_shards=2, max_tok=8)
    files = sorted(glob.glob(os.path.join(chg, "*.parquet")))
    lake = str(tmp_path / "lake")
    ing = IncrementalIngestor(lake, num_partitions=4)
    ing.ingest(files)
    empty = str(tmp_path / "empty.parquet")
    pq.write_table(pq.read_schema(files[0]).empty_table(), empty)
    res = ing.ingest([empty])
    assert (res["epoch"], res["routed"], res["partitions_written"]) == (1, 0, 0)
    assert res["rows_total"] == len(_state_map(lake)) > 0
