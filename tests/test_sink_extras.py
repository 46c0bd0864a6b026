"""Epoch GC and excluded-key corrections."""

import glob
import os

import duckdb

from ton_etl_ray.cdc import sink
from ton_etl_ray.cdc.replay import final_state_table, replay
from ton_etl_ray.gen import write_change_log


def test_gc_keeps_inherited_files(tmp_path):
    chg = str(tmp_path / "chg")
    write_change_log(chg, num_events=6000, num_keys=400, seed=41, num_shards=4, max_tok=16)
    files = sorted(glob.glob(os.path.join(chg, "*.parquet")))
    lake = str(tmp_path / "lake")
    replay(files[:2], lake, num_partitions=8, hot_share_threshold=1.0)
    replay(files[2:3], lake, hot_share_threshold=1.0)   # epoch 1 rewrites SOME parts
    replay(files[3:], lake, hot_share_threshold=1.0)    # epoch 2

    before = {r["doc_id"]: r["n_tok"] for r in final_state_table(lake).to_pylist()}
    res = sink.gc_epochs(lake, keep_epochs=1)
    assert res["deleted_files"] > 0
    after = {r["doc_id"]: r["n_tok"] for r in final_state_table(lake).to_pylist()}
    assert before == after  # inherited (still referenced) files survived GC


def test_excluded_doc_ids_dropped(tmp_path):
    chg = str(tmp_path / "chg")
    write_change_log(chg, num_events=4000, num_keys=300, seed=42, num_shards=2, max_tok=16)
    files = sorted(glob.glob(os.path.join(chg, "*.parquet")))
    lake = str(tmp_path / "lake")
    # pick two keys known to be live in the unfiltered final state
    full = str(tmp_path / "lake_full")
    replay(files, full, num_partitions=4, hot_share_threshold=1.0)
    live = [r["doc_id"] for r in final_state_table(full).to_pylist()][:2]

    replay(files, lake, num_partitions=4, hot_share_threshold=1.0,
           excluded_doc_ids=frozenset(live))
    got = {r["doc_id"] for r in final_state_table(lake).to_pylist()}
    assert not (set(live) & got)

    want = duckdb.sql(
        f"""
        WITH ranked AS (
          SELECT *, row_number() OVER (PARTITION BY doc_id ORDER BY lsn DESC) rk
          FROM read_parquet({files})
        ) SELECT doc_id FROM ranked
        WHERE rk=1 AND op <> 'd' AND doc_id NOT IN ({str(live)[1:-1]})
        """
    ).arrow()
    assert got == set(want["doc_id"].to_pylist())


def test_lake_stats(tmp_path):
    chg = str(tmp_path / "chg")
    write_change_log(chg, num_events=3000, num_keys=200, seed=43, num_shards=2, max_tok=8)
    files = sorted(glob.glob(os.path.join(chg, "*.parquet")))
    lake = str(tmp_path / "lake")
    replay(files[:1], lake, num_partitions=4, hot_share_threshold=1.0)
    replay(files[1:], lake, hot_share_threshold=1.0)
    s = sink.lake_stats(lake)
    assert s["latest"] == 1
    assert len(s["epochs"]) == 2
    e1 = s["epochs"][1]
    assert e1["committed"] and e1["rows_total"] > 0
    assert e1["watermark_lsn"] == 2999
    assert e1["partitions_written"] + e1["partitions_inherited"] == 4


def test_epoch_lock_blocks_second_writer(tmp_path):
    import subprocess
    import sys

    import pytest

    from ton_etl_ray.cdc.sink import EpochLockError, acquire_epoch_lock, release_epoch_lock

    lake = str(tmp_path / "lake")
    lock = acquire_epoch_lock(lake, 0)
    # same process re-acquires (resume path) fine
    lock2 = acquire_epoch_lock(lake, 0)
    # a DIFFERENT live process must fail fast
    code = (
        "import sys; sys.path.insert(0, '/root/repo');"
        "from ton_etl_ray.cdc.sink import acquire_epoch_lock, EpochLockError\n"
        f"try:\n    acquire_epoch_lock({lake!r}, 0)\n    print('ACQUIRED')\n"
        "except EpochLockError:\n    print('BLOCKED')"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert out.stdout.strip() == "BLOCKED", out.stdout + out.stderr
    release_epoch_lock(lock2)
    # dead-writer lock is reclaimed: write a lock with a bogus pid
    with open(f"{lake}/epoch-000000/_LOCK", "w") as f:
        f.write("999999999 0")
    lock3 = acquire_epoch_lock(lake, 0)
    release_epoch_lock(lock3)


def test_verify_lake_detects_corruption(tmp_path):
    import pytest

    chg = str(tmp_path / "chg")
    write_change_log(chg, num_events=2000, num_keys=150, seed=44, num_shards=2, max_tok=8)
    lake = str(tmp_path / "lake")
    replay(chg, lake, num_partitions=4, hot_share_threshold=1.0)
    res = sink.verify_lake(lake)
    assert res["partitions_checked"] >= 1 and res["hashes_verified"] >= 1
    # corrupt one partition file → verification must fail
    victim = sorted(glob.glob(os.path.join(lake, "epoch-000000", "part-*.parquet")))[0]
    with open(victim, "r+b") as f:
        f.seek(10)
        f.write(b"\xde\xad")
    with pytest.raises(ValueError, match="hash mismatch"):
        sink.verify_lake(lake)


def test_gc_spares_in_progress_epoch(tmp_path):
    """An uncommitted epoch NEWER than _LATEST is a replay in progress —
    gc_epochs must not delete its staged parquet files (ADVICE r1)."""
    chg = str(tmp_path / "chg")
    write_change_log(chg, num_events=3000, num_keys=200, seed=42, num_shards=2, max_tok=8)
    lake = str(tmp_path / "lake")
    replay(chg, lake, num_partitions=4, hot_share_threshold=1.0)
    # simulate another writer mid-epoch-1: staged part file, no _COMMIT
    d = sink.epoch_dir(lake, 1)
    os.makedirs(d)
    staged = os.path.join(d, sink.part_file(0))
    with open(staged, "wb") as f:
        f.write(b"PAR1fake")
    sink.gc_epochs(lake, keep_epochs=1)
    assert os.path.exists(staged)


def test_lock_released_on_failure(tmp_path):
    """A replay that raises mid-pipeline must not strand _LOCK (ADVICE r1)."""
    import pytest

    chg = str(tmp_path / "chg")
    write_change_log(chg, num_events=1000, num_keys=100, seed=43, num_shards=2, max_tok=8)
    lake = str(tmp_path / "lake")
    # corrupt one shard so the pipeline fails after the lock is acquired
    files = sorted(glob.glob(os.path.join(chg, "*.parquet")))
    with open(files[1], "wb") as f:
        f.write(b"not parquet")
    with pytest.raises(Exception):
        replay(chg, lake, num_partitions=4, hot_share_threshold=1.0)
    assert not os.path.exists(os.path.join(sink.epoch_dir(lake, 0), "_LOCK"))
    # a fresh replay over the good shard succeeds immediately (no stale lock)
    res = replay(files[:1], lake, num_partitions=4, hot_share_threshold=1.0)
    assert res.published


def test_concurrent_writer_lock_survives_second_start(tmp_path):
    """A second replay of the same epoch must fail on the LOCK without
    deleting the first writer's staged files (lock precedes rmtree)."""
    import json
    import pytest

    chg = str(tmp_path / "chg")
    write_change_log(chg, num_events=1000, num_keys=100, seed=44, num_shards=2, max_tok=8)
    lake = str(tmp_path / "lake")
    # simulate writer A holding epoch 0: live-pid lock + a staged file
    d = sink.epoch_dir(lake, 0)
    os.makedirs(d)
    lockp = os.path.join(d, "_LOCK")
    import time
    # use pid 1 (init, always alive) so liveness check sees a live holder
    with open(lockp, "w") as f:
        f.write(f"1 {time.time()}")
    staged = os.path.join(d, sink.part_file(2))
    with open(staged, "wb") as f:
        f.write(b"PAR1fake")
    with pytest.raises(sink.EpochLockError):
        replay(chg, lake, num_partitions=4, hot_share_threshold=1.0)
    assert os.path.exists(staged)   # writer A's files untouched
    assert os.path.exists(lockp)    # writer A's lock untouched


def test_epoch_lock_corrupt_lock_file(tmp_path):
    """A 0-byte / garbage _LOCK (writer crashed between O_EXCL and
    write) must NOT loop forever: young → loud EpochLockError; past
    stale_sec → reclaimed."""
    import os
    import time

    import pytest

    from ton_etl_ray.cdc.sink import (
        EpochLockError, acquire_epoch_lock, epoch_dir, release_epoch_lock)

    lake = str(tmp_path / "lake")
    d = epoch_dir(lake, 0)
    os.makedirs(d)
    lock_path = os.path.join(d, "_LOCK")
    open(lock_path, "w").close()               # empty lock, young
    with pytest.raises(EpochLockError, match="unknown writer"):
        acquire_epoch_lock(lake, 0)
    # age it past stale_sec → reclaimed cleanly
    old = time.time() - 10_000
    os.utime(lock_path, (old, old))
    lock = acquire_epoch_lock(lake, 0, stale_sec=3600)
    release_epoch_lock(lock)


def test_epoch_lock_reclaim_is_single_winner(tmp_path):
    """N processes racing to reclaim one stale lock: exactly ONE may
    hold it at a time (the old write+sleep+read-back let two writers
    both 'win' when descheduled across the 10 ms window)."""
    import os
    import subprocess
    import sys

    from ton_etl_ray.cdc.sink import epoch_dir

    lake = str(tmp_path / "lake")
    d = epoch_dir(lake, 0)
    os.makedirs(d)
    with open(os.path.join(d, "_LOCK"), "w") as f:
        f.write("999999999 0")                 # dead holder → all reclaim
    marker = str(tmp_path / "critical")
    code = f"""
import sys, os, time
sys.path.insert(0, '/root/repo')
from ton_etl_ray.cdc.sink import acquire_epoch_lock, release_epoch_lock, EpochLockError
try:
    lock = acquire_epoch_lock({lake!r}, 0)
except EpochLockError:
    print('BLOCKED'); raise SystemExit(0)
# critical section: flag overlap via an O_EXCL marker
try:
    fd = os.open({marker!r}, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
except FileExistsError:
    print('OVERLAP'); raise SystemExit(1)
time.sleep(0.3)
os.close(fd); os.remove({marker!r})
release_epoch_lock(lock)
print('HELD')
"""
    procs = [subprocess.Popen([sys.executable, "-c", code],
                              stdout=subprocess.PIPE, text=True)
             for _ in range(4)]
    outs = [p.communicate(timeout=120)[0].strip() for p in procs]
    assert "OVERLAP" not in outs, outs
    assert outs.count("HELD") >= 1, outs


def test_atomic_writers_use_unique_tmp(tmp_path):
    """Two overlapping writers of the same path (Ray retry + presumed-
    dead original) must not share a tmp name — each attempt's tmp is
    writer-unique so neither can truncate the other mid-write."""
    import glob
    import os

    import pyarrow as pa

    from ton_etl_ray.cdc.sink import _tmp_name, atomic_write_table

    p = str(tmp_path / "part.parquet")
    assert _tmp_name(p) != _tmp_name(p)        # unique per call
    t = pa.table({"x": pa.array([1, 2, 3], pa.int64())})
    size = atomic_write_table(p, t)
    assert size == os.path.getsize(p)
    assert not glob.glob(p + ".tmp*")          # no leftovers


def test_latest_epoch_on_read_only_lake(tmp_path, monkeypatch):
    """A lagging _LATEST on a read-only mount: the repair write fails
    with EROFS, and latest_epoch still returns the scanned-forward head
    without raising."""
    import errno

    lake = str(tmp_path / "lake")
    for e in (0, 1, 2):
        os.makedirs(sink.epoch_dir(lake, e))
        with open(os.path.join(sink.epoch_dir(lake, e), sink.COMMIT_NAME), "w") as f:
            f.write("{}")
    with open(os.path.join(lake, sink.LATEST_NAME), "w") as f:
        f.write("0")

    def read_only(path, data):
        raise OSError(errno.EROFS, "Read-only file system", path)

    monkeypatch.setattr(sink, "atomic_write_bytes", read_only)
    assert sink.latest_epoch(lake) == 2
    with open(os.path.join(lake, sink.LATEST_NAME)) as f:
        assert f.read() == "0"  # nothing written
