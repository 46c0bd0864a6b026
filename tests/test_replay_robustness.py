"""Property-ish robustness tests (SURVEY §5 test plan #4)."""

import glob
import os

import pyarrow as pa
import pyarrow.parquet as pq

from ton_etl_ray.cdc.replay import final_state_table, replay
from ton_etl_ray.gen import make_change_batch, write_change_log


def _state(lake):
    t = final_state_table(lake).select(["doc_id", "tokens", "n_tok", "source"])
    return {r["doc_id"]: (tuple(r["tokens"]), r["n_tok"], r["source"]) for r in t.to_pylist()}


def test_shard_arrival_order_insensitive(tmp_path):
    chg = str(tmp_path / "chg")
    write_change_log(chg, num_events=6000, num_keys=400, seed=51, num_shards=6, max_tok=16)
    files = sorted(glob.glob(os.path.join(chg, "*.parquet")))

    lake_a = str(tmp_path / "lake_fwd")
    lake_b = str(tmp_path / "lake_rev")
    replay(files, lake_a, num_partitions=4)
    replay(list(reversed(files)), lake_b, num_partitions=4)
    assert _state(lake_a) == _state(lake_b)


def test_empty_shard_tolerated(tmp_path):
    chg = str(tmp_path / "chg")
    os.makedirs(chg)
    t = make_change_batch(num_events=500, num_keys=50, seed=52, max_tok=8)
    pq.write_table(t, os.path.join(chg, "shard-00000.parquet"))
    pq.write_table(t.slice(0, 0), os.path.join(chg, "shard-00001.parquet"))
    lake = str(tmp_path / "lake")
    res = replay(chg, lake, num_partitions=4)
    assert res.published and res.rows_total > 0


def test_multi_epoch_schema_evolution(tmp_path):
    """Epoch 0 unevolved; epoch 1 brings the added column + widened type —
    the committed lake must carry the unified schema with nulls backfilled
    for pre-evolution rows."""
    chg0 = str(tmp_path / "chg0")
    chg1 = str(tmp_path / "chg1")
    write_change_log(chg0, num_events=3000, num_keys=300, seed=53, num_shards=2, max_tok=8)
    write_change_log(chg1, num_events=3000, num_keys=300, seed=54, num_shards=2, max_tok=8,
                     evolve_after_shard=0)
    # shift epoch-1 lsns above epoch 0's
    for f in sorted(glob.glob(os.path.join(chg1, "*.parquet"))):
        t = pq.read_table(f)
        lsn = pa.compute.add(t["lsn"], pa.scalar(1_000_000, pa.int64()))
        pq.write_table(t.set_column(t.column_names.index("lsn"), "lsn", lsn), f)

    lake = str(tmp_path / "lake")
    replay(chg0, lake, num_partitions=4)
    replay(chg1, lake)

    got = final_state_table(lake)
    assert got.schema.field("lang").type == pa.string()
    assert got.schema.field("n_tok").type == pa.int64()
    rows = got.to_pylist()
    # keys updated only in epoch 0 carry null lang; epoch-1 winners carry lang
    assert any(r["lang"] is None for r in rows)
    assert any(r["lang"] is not None for r in rows)
    # all epoch-1 winners beat epoch-0 versions (lsn shifted above)
    e1 = [r for r in rows if r["lsn"] >= 1_000_000]
    assert e1 and all(r["lang"] is not None for r in e1)
