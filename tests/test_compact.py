"""compact_lake: re-materialize the committed state as one fresh epoch.

Pins: state identity through compaction, no inherited partitions in the
compacted commit, verify_lake lineage integrity, re-sharding, continued
incremental ingestion on top, and GC collecting the whole pre-compaction
history afterwards."""

import glob
import os
import shutil


def _state(lake):
    from ton_etl_ray.cdc.replay import final_state_table

    t = final_state_table(lake)
    return {
        d: (tuple(tok), n, s)
        for d, tok, n, s in zip(
            t["doc_id"].to_pylist(), t["tokens"].to_pylist(),
            t["n_tok"].to_pylist(), t["source"].to_pylist())
    }


def _two_epoch_lake(tmp_path):
    from ton_etl_ray.cdc.replay import replay
    from ton_etl_ray.gen import write_change_log

    full = str(tmp_path / "full")
    c0, c1 = str(tmp_path / "c0"), str(tmp_path / "c1")
    lake = str(tmp_path / "lake")
    shards = write_change_log(full, num_events=6000, num_keys=700, seed=5,
                              num_shards=6)
    os.makedirs(c0), os.makedirs(c1)
    for p in shards[:3]:
        shutil.copy(p, c0)
    for p in shards[3:]:
        shutil.copy(p, c1)
    replay(c0, lake, num_partitions=8)
    replay(c1, lake)
    return lake, str(tmp_path / "c2"), full


def test_compact_preserves_state_and_enables_gc(ray_session, tmp_path):
    from ton_etl_ray.cdc import sink
    from ton_etl_ray.cdc.compact import compact_lake

    lake, _, _ = _two_epoch_lake(tmp_path)
    before = _state(lake)
    commit = compact_lake(lake)
    assert commit["epoch"] == 2
    assert _state(lake) == before, "compaction changed the state"
    # every non-empty partition lives in the NEW epoch — no inheritance
    for ent in commit["partitions"].values():
        if ent["rows"]:
            assert ent["path"].startswith("epoch-000002"), ent
    # lineage hashes verify
    v = sink.verify_lake(lake)
    assert v["hashes_verified"] > 0
    # GC can now collect the entire pre-compaction history
    sink.gc_epochs(lake, keep_epochs=1)
    assert _state(lake) == before


def test_compact_reshard_and_incremental_on_top(ray_session, tmp_path):
    """Compacting to a new partition count re-shards the lake; a later
    incremental replay adopts the new layout and still matches the
    DuckDB rank-1 oracle over the full log."""
    import duckdb

    from ton_etl_ray.cdc import sink
    from ton_etl_ray.cdc.compact import compact_lake
    from ton_etl_ray.cdc.replay import replay
    from ton_etl_ray.gen import write_change_log

    full = str(tmp_path / "full")
    c0, c1 = str(tmp_path / "c0"), str(tmp_path / "c1")
    lake = str(tmp_path / "lake")
    shards = write_change_log(full, num_events=6000, num_keys=700, seed=6,
                              num_shards=6)
    os.makedirs(c0), os.makedirs(c1)
    for p in shards[:3]:
        shutil.copy(p, c0)
    for p in shards[3:]:
        shutil.copy(p, c1)
    replay(c0, lake, num_partitions=8)
    commit = compact_lake(lake, num_partitions=16)
    assert commit["num_partitions"] == 16

    replay(c1, lake)  # incremental on top of the compacted epoch
    assert sink.read_commit(lake, sink.latest_epoch(lake))["num_partitions"] == 16

    allp = sorted(glob.glob(f"{full}/*.parquet"))
    want = {
        d: (tuple(tok), n, s)
        for d, tok, n, s in duckdb.sql(
            f"""
            WITH ranked AS (SELECT *, row_number() OVER (
                 PARTITION BY doc_id ORDER BY lsn DESC) rk
               FROM read_parquet({allp!r}, union_by_name=true))
            SELECT doc_id, tokens, n_tok, source FROM ranked
            WHERE rk = 1 AND op <> 'd'
            """
        ).fetchall()
    }
    assert _state(lake) == want


def test_compact_schema_evolved_lake(ray_session, tmp_path):
    """Compaction must conform inherited old-schema partitions to the
    latest unified schema (null-padded added columns), not bare-cast."""
    import os
    import shutil

    from ton_etl_ray.cdc.compact import compact_lake
    from ton_etl_ray.cdc.replay import final_state_table, replay
    from ton_etl_ray.gen import write_change_log

    full = str(tmp_path / "full")
    c0, c1 = str(tmp_path / "c0"), str(tmp_path / "c1")
    lake = str(tmp_path / "lake")
    # shards >= 2 use the evolved schema (extra column); split so epoch 0
    # is pre-evolution and epoch 1 brings the new column
    shards = write_change_log(full, num_events=4000, num_keys=400, seed=9,
                              num_shards=4, evolve_after_shard=2)
    os.makedirs(c0), os.makedirs(c1)
    for p in shards[:2]:
        shutil.copy(p, c0)
    for p in shards[2:]:
        shutil.copy(p, c1)
    replay(c0, lake, num_partitions=8)
    replay(c1, lake)
    before = final_state_table(lake).sort_by("doc_id")
    compact_lake(lake)
    after = final_state_table(lake).sort_by("doc_id")
    assert after.schema.names == before.schema.names
    assert after.equals(before.cast(after.schema))


def test_compact_refuses_nothing_and_epoch_diff_gc_guard(ray_session, tmp_path):
    import pytest

    from ton_etl_ray.cdc import sink
    from ton_etl_ray.cdc.compact import compact_lake
    from ton_etl_ray.cdc.replay import epoch_diff

    with pytest.raises(ValueError, match="no committed epoch"):
        compact_lake(str(tmp_path / "nope"))

    lake, _, _ = _two_epoch_lake(tmp_path)
    compact_lake(lake)
    sink.gc_epochs(lake, keep_epochs=1)  # collects epochs 0-1 data files
    with pytest.raises(ValueError, match="garbage-collected"):
        epoch_diff(lake, 0).take_all()


def test_run_maintain_cli_end_to_end(ray_session, tmp_path):
    """The maintenance CLI drives diff → compact → gc → verify → stats
    in a fresh process and emits one JSON line per action."""
    import json
    import subprocess
    import sys

    lake, _, _ = _two_epoch_lake(tmp_path)
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    out = subprocess.run(
        [sys.executable, "-m", "ton_etl_ray.cdc.run_maintain",
         "--lake", lake, "--diff", "0", "--compact", "--gc-keep", "1",
         "--verify", "--stats", "--num-cpus", "4"],
        capture_output=True, text=True, timeout=600, cwd=repo,
    )
    assert out.returncode == 0, out.stderr[-2000:]
    actions = [json.loads(l) for l in out.stdout.strip().splitlines()
               if l.startswith("{")]
    by = {a["action"]: a for a in actions}
    assert set(by) == {"diff", "compact", "gc", "verify", "stats"}
    assert set(by["diff"]["counts"]) <= {"added", "updated", "deleted"}
    assert by["compact"]["epoch"] == 2
    assert by["verify"]["hashes_verified"] == by["verify"]["partitions_checked"]
    assert by["stats"]["latest"] == 2


def test_watcher_survives_same_width_compaction(ray_session, tmp_path):
    """compact_lake with the SAME partition count between watcher waves
    is safe: the continuing watcher applies later micro-batches on top
    of the compacted epoch and the final state equals the full-log
    rank-1 oracle."""
    import glob

    import duckdb

    from ton_etl_ray.cdc.compact import compact_lake
    from ton_etl_ray.cdc.streaming import DirectoryWatcher
    from ton_etl_ray.gen import write_change_log

    full = str(tmp_path / "full")
    watch = str(tmp_path / "in")
    lake = str(tmp_path / "lake")
    shards = write_change_log(full, num_events=6000, num_keys=700, seed=8,
                              num_shards=6)
    os.makedirs(watch)
    w = DirectoryWatcher(watch, lake, num_partitions=8,
                         max_batch_shards=3, idle_flush_sec=0.1, stable_polls=0)
    for p in shards[:3]:
        shutil.copy(p, watch)
    while w.step():
        pass
    compact_lake(lake)  # same width — safe mid-stream
    for p in shards[3:]:
        shutil.copy(p, watch)
    for _ in range(6):
        w.step()

    allp = sorted(glob.glob(f"{full}/*.parquet"))
    want = {
        d: n for d, n in duckdb.sql(
            f"""WITH ranked AS (SELECT *, row_number() OVER (
                  PARTITION BY doc_id ORDER BY lsn DESC) rk
                FROM read_parquet({allp!r}, union_by_name=true))
              SELECT doc_id, n_tok FROM ranked WHERE rk = 1 AND op <> 'd'"""
        ).fetchall()
    }
    got = _state(lake)
    assert {d: v[1] for d, v in got.items()} == want


def test_live_ingestor_rejects_mid_stream_reshard(ray_session, tmp_path):
    """A re-sharding compaction under a LIVE ingestor must fail loudly,
    not scatter keys across two partition numberings."""
    import pytest

    from ton_etl_ray.cdc.compact import compact_lake
    from ton_etl_ray.cdc.streaming import DirectoryWatcher
    from ton_etl_ray.gen import write_change_log

    full = str(tmp_path / "full")
    watch = str(tmp_path / "in")
    lake = str(tmp_path / "lake")
    shards = write_change_log(full, num_events=4000, num_keys=400, seed=10,
                              num_shards=4)
    os.makedirs(watch)
    w = DirectoryWatcher(watch, lake, num_partitions=8,
                         max_batch_shards=2, idle_flush_sec=0.1, stable_polls=0)
    for p in shards[:2]:
        shutil.copy(p, watch)
    while w.step():
        pass
    compact_lake(lake, num_partitions=16)  # RE-SHARD under the live watcher
    for p in shards[2:]:
        shutil.copy(p, watch)
    with pytest.raises(RuntimeError, match="re-sharded"):
        for _ in range(6):
            w.step()
