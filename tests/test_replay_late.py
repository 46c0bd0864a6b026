"""Late-materialization replay must be semantically identical to replay()."""

import glob
import os

import duckdb

from ton_etl_ray.cdc.replay import final_state_table, replay
from ton_etl_ray.cdc.replay_late import replay_late
from ton_etl_ray.gen import write_change_log


def _state(lake):
    t = final_state_table(lake).select(["doc_id", "tokens", "n_tok", "source"])
    return {r["doc_id"]: (tuple(r["tokens"]), r["n_tok"], r["source"]) for r in t.to_pylist()}


def test_late_equals_eager_and_oracle(tmp_path):
    chg = str(tmp_path / "chg")
    write_change_log(chg, num_events=15000, num_keys=1200, seed=61, num_shards=5, max_tok=24)
    files = sorted(glob.glob(os.path.join(chg, "*.parquet")))

    lake_e = str(tmp_path / "lake_eager")
    lake_l = str(tmp_path / "lake_late")
    replay(files, lake_e, num_partitions=8)
    res = replay_late(files, lake_l, num_partitions=8)
    assert res.published and res.counters["winning_keys"] > 0

    a, b = _state(lake_e), _state(lake_l)
    assert a == b

    want = duckdb.sql(
        f"""
        WITH ranked AS (
          SELECT *, row_number() OVER (PARTITION BY doc_id ORDER BY lsn DESC) rk
          FROM read_parquet({files})
        ) SELECT doc_id, tokens, n_tok, source FROM ranked WHERE rk=1 AND op <> 'd'
        """
    ).arrow()
    wm = {r["doc_id"]: (tuple(r["tokens"]), r["n_tok"], r["source"]) for r in want.to_pylist()}
    assert b == wm


def test_late_incremental_on_eager_lake(tmp_path):
    """Strategies interoperate: epoch 0 eager, epoch 1 late — the commit
    format is shared, so either path can extend the same lake."""
    chg = str(tmp_path / "chg")
    write_change_log(chg, num_events=8000, num_keys=600, seed=62, num_shards=4, max_tok=16)
    files = sorted(glob.glob(os.path.join(chg, "*.parquet")))

    lake = str(tmp_path / "lake")
    replay(files[:2], lake, num_partitions=8)
    res = replay_late(files[2:], lake)
    assert res.epoch == 1

    lake_ref = str(tmp_path / "lake_ref")
    replay(files, lake_ref, num_partitions=8)
    assert _state(lake) == _state(lake_ref)


def test_late_resume_after_partial_commit(tmp_path, bucket_files):
    """Kill-analogue: publish lost + some partitions missing → resume
    recomputes exactly the missing partitions and republishes."""
    import os as _os

    from ton_etl_ray.cdc import sink

    chg = str(tmp_path / "chg")
    write_change_log(chg, num_events=8000, num_keys=600, seed=63, num_shards=4, max_tok=16)
    lake = str(tmp_path / "lake")
    replay_late(chg, lake, num_partitions=8)
    ref = _state(lake)

    # simulate a crash that lost the epoch commit and 3 partitions
    staging = sink.epoch_dir(lake, 0)
    _os.remove(_os.path.join(staging, sink.COMMIT_NAME))
    _os.remove(_os.path.join(lake, sink.LATEST_NAME))
    for p in (0, 3, 5):
        _os.remove(_os.path.join(staging, sink.part_file(p)))

    res = replay_late(chg, lake, num_partitions=8, resume=True)
    assert res.published
    assert _state(lake) == ref


def test_bloom_filter_mode_equals_exact(tmp_path):
    chg = str(tmp_path / "chg")
    write_change_log(chg, num_events=12000, num_keys=900, seed=64, num_shards=4, max_tok=16)
    lake_e = str(tmp_path / "lake_exact")
    lake_b = str(tmp_path / "lake_bloom")
    replay_late(chg, lake_e, num_partitions=8, lsn_filter="exact")
    replay_late(chg, lake_b, num_partitions=8, lsn_filter="bloom")
    assert _state(lake_e) == _state(lake_b)
    # and both equal the oracle
    files = sorted(glob.glob(os.path.join(chg, "*.parquet")))
    want = duckdb.sql(
        f"""
        WITH ranked AS (
          SELECT *, row_number() OVER (PARTITION BY doc_id ORDER BY lsn DESC) rk
          FROM read_parquet({files})
        ) SELECT doc_id, tokens, n_tok, source FROM ranked WHERE rk=1 AND op <> 'd'
        """
    ).arrow()
    wm = {r["doc_id"]: (tuple(r["tokens"]), r["n_tok"], r["source"]) for r in want.to_pylist()}
    assert _state(lake_b) == wm


def test_late_epoch_commits_real_manifests(tmp_path):
    """A late epoch commits through commit_partition, so its manifests
    carry rows_in, tombstones and min_lsn like replay()'s: an epoch-1
    late replay of the lsn-later half of a log proves it is
    lsn-ordered after epoch 0, and its counters use replay()'s keys."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from conftest import lsn_ordered_span
    from ton_etl_ray.cdc import sink

    chg, lake = str(tmp_path / "chg"), str(tmp_path / "lake")
    write_change_log(chg, num_events=8000, num_keys=600, seed=65, num_shards=4, max_tok=8)
    halves = [str(tmp_path / "e0"), str(tmp_path / "e1")]
    for d in halves:
        os.makedirs(d)
    for p in sorted(glob.glob(os.path.join(chg, "*.parquet"))):
        t = pq.read_table(p)
        late = pa.array(t["lsn"].to_numpy() >= 4000)
        pq.write_table(t.filter(pc.invert(late)), os.path.join(halves[0], os.path.basename(p)))
        pq.write_table(t.filter(late), os.path.join(halves[1], os.path.basename(p)))
    replay(halves[0], lake, num_partitions=8)
    res = replay_late(halves[1], lake)

    c0, c1 = sink.read_commit(lake, 0), sink.read_commit(lake, 1)
    assert c1["min_lsn"] > c0["max_lsn"]
    assert lsn_ordered_span(lake, 0, 1) == (True, c0["max_lsn"])
    # every epoch-1 key wins over epoch 0: one fetched row per key
    keys, deletes = duckdb.sql(
        f"""
        WITH ranked AS (
          SELECT *, row_number() OVER (PARTITION BY doc_id ORDER BY lsn DESC) rk
          FROM read_parquet('{halves[1]}/*.parquet')
        ) SELECT count(*), count(*) FILTER (WHERE op = 'd') FROM ranked WHERE rk = 1
        """
    ).fetchone()
    assert res.counters == {"rows_in": keys, "tombstones": deletes, "winning_keys": keys,
                            "plan": c1["plan"]}
    assert deletes > 0
    lake_ref = str(tmp_path / "lake_ref")
    replay(chg, lake_ref, num_partitions=8)
    assert _state(lake) == _state(lake_ref)
