"""Auto strategy selection picks eager for small shuffles, late for big."""

import glob
import os

from ton_etl_ray.cdc import sink
from ton_etl_ray.cdc.replay import final_state_table
from ton_etl_ray.cdc.strategy import estimate_shuffle_bytes, replay_auto
from ton_etl_ray.gen import write_change_log


def test_estimate_positive(tmp_path):
    chg = str(tmp_path / "chg")
    write_change_log(chg, num_events=5000, num_keys=400, seed=81, num_shards=3, max_tok=16)
    files = sorted(glob.glob(os.path.join(chg, "*.parquet")))
    est = estimate_shuffle_bytes(files, 4)
    assert est > 0


def test_auto_picks_eager_small(tmp_path):
    chg = str(tmp_path / "chg")
    write_change_log(chg, num_events=5000, num_keys=400, seed=82, num_shards=3, max_tok=16)
    lake = str(tmp_path / "lake")
    res = replay_auto(chg, lake, num_partitions=4)
    assert res.published
    c = sink.read_commit(lake, 0)
    assert c.get("strategy") != "late_materialization"  # eager path
    assert final_state_table(lake).num_rows == res.rows_total


def test_auto_picks_late_when_store_small(tmp_path):
    chg = str(tmp_path / "chg")
    write_change_log(chg, num_events=5000, num_keys=400, seed=83, num_shards=3, max_tok=16)
    lake = str(tmp_path / "lake")
    res = replay_auto(chg, lake, num_partitions=4, object_store_bytes=1024)
    assert res.published
    assert sink.read_commit(lake, 0).get("strategy") == "late_materialization"
    assert final_state_table(lake).num_rows == res.rows_total
