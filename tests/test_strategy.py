"""replay() picks its exchange itself: the payload exchange while the
sampled shuffle estimate fits half the object store, the narrow one
past it, and no estimate at all below one read block."""

import glob
import os

from conftest import narrow_exchange

from ton_etl_ray.cdc import replay as R
from ton_etl_ray.cdc import sink
from ton_etl_ray.cdc.incremental import IncrementalIngestor
from ton_etl_ray.cdc.replay import final_state_table, replay
from ton_etl_ray.gen import write_change_log


def test_estimate_positive(tmp_path):
    chg = str(tmp_path / "chg")
    write_change_log(chg, num_events=5000, num_keys=400, seed=81, num_shards=3, max_tok=16)
    files = sorted(glob.glob(os.path.join(chg, "*.parquet")))
    est = R._estimate_shuffle_bytes(files, 4)
    assert est > 0


def test_auto_picks_eager_small(tmp_path, exchange_plan):
    """The session's real object store holds this log's payload
    shuffle: the payload exchange runs."""
    chg = str(tmp_path / "chg")
    write_change_log(chg, num_events=5000, num_keys=400, seed=82, num_shards=3, max_tok=16)
    files = sorted(glob.glob(os.path.join(chg, "*.parquet")))
    blocks = R.read_blocks(sum(os.path.getsize(f) for f in files))
    assert R._estimate_shuffle_bytes(files, blocks) < R._object_store_bytes() // 2
    lake = str(tmp_path / "lake")
    res = replay(chg, lake, num_partitions=4)
    assert res.published and res.counters["plan"] == "exchange"
    c = sink.read_commit(lake, 0)
    assert "strategy" not in c and c["plan"] == "exchange"
    assert final_state_table(lake).num_rows == res.rows_total


def test_auto_picks_late_when_store_small(tmp_path, exchange_plan):
    chg = str(tmp_path / "chg")
    write_change_log(chg, num_events=5000, num_keys=400, seed=83, num_shards=3, max_tok=16)
    lake = str(tmp_path / "lake")
    with narrow_exchange():
        res = replay(chg, lake, num_partitions=4)
    assert res.published and res.counters["plan"] == "exchange"
    assert sink.read_commit(lake, 0).get("strategy") == "late_materialization"
    assert final_state_table(lake).num_rows == res.rows_total


def test_watcher_epoch_shares_the_choice(tmp_path, exchange_plan):
    """``IncrementalIngestor.ingest`` runs replay()'s ``_apply_changes``,
    so a watcher epoch takes the narrow exchange on the same rule and
    records it."""
    chg = str(tmp_path / "chg")
    write_change_log(chg, num_events=5000, num_keys=400, seed=84, num_shards=3, max_tok=16)
    files = sorted(glob.glob(os.path.join(chg, "*.parquet")))
    lake, ref = str(tmp_path / "lake"), str(tmp_path / "ref")
    ing = IncrementalIngestor(lake, num_partitions=4)
    assert "strategy" not in sink.read_commit(lake, ing.ingest(files[:1])["epoch"])
    with narrow_exchange():
        out = ing.ingest(files[1:])
    assert set(out) >= {"rows_in", "tombstones", "plan"} and out["plan"] == "exchange"
    assert sink.read_commit(lake, out["epoch"])["strategy"] == "late_materialization"
    replay(files, ref, num_partitions=4)
    key = ["doc_id", "lsn"]
    assert final_state_table(lake).select(key).sort_by("doc_id").equals(
        final_state_table(ref).select(key).sort_by("doc_id"))


def test_local_plan_runs_no_estimate(tmp_path, monkeypatch):
    """Below one read block an epoch commits in-process without sampling
    the log or asking the session for its object store."""
    def refuse(*a, **k):
        raise AssertionError("estimated a local-plan epoch")

    monkeypatch.setattr(R, "_estimate_shuffle_bytes", refuse)
    monkeypatch.setattr(R, "_object_store_bytes", refuse)
    chg = str(tmp_path / "chg")
    write_change_log(chg, num_events=5000, num_keys=400, seed=85, num_shards=3, max_tok=16)
    lake = str(tmp_path / "lake")
    res = replay(chg, lake, num_partitions=4)
    assert res.counters["plan"] == "local" and "strategy" not in sink.read_commit(lake, 0)
    IncrementalIngestor(lake).ingest(chg)


def test_sample_skips_shards_without_row_groups(tmp_path):
    """A shard with no row group is skipped by the sample instead of
    failing the epoch."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    path = str(tmp_path / "empty.parquet")
    pq.ParquetWriter(path, pa.schema([("doc_id", pa.string())])).close()
    assert pq.ParquetFile(path).num_row_groups == 0
    assert R._estimate_shuffle_bytes([path], 4) == 0
