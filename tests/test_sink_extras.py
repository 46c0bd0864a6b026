"""Epoch GC and excluded-key corrections."""

import glob
import os

import duckdb
import pytest

from ton_etl_ray.cdc import sink
from ton_etl_ray.cdc.replay import final_state_table, replay
from ton_etl_ray.gen import write_change_log


def test_gc_keeps_inherited_files(tmp_path):
    chg = str(tmp_path / "chg")
    write_change_log(chg, num_events=6000, num_keys=400, seed=41, num_shards=4, max_tok=16)
    files = sorted(glob.glob(os.path.join(chg, "*.parquet")))
    lake = str(tmp_path / "lake")
    replay(files[:2], lake, num_partitions=8)
    replay(files[2:3], lake)   # epoch 1 rewrites SOME parts
    replay(files[3:], lake)    # epoch 2

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
    replay(files, full, num_partitions=4)
    live = [r["doc_id"] for r in final_state_table(full).to_pylist()][:2]

    replay(files, lake, num_partitions=4,
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


def test_lake_stats(tmp_path, bucket_files):
    chg = str(tmp_path / "chg")
    write_change_log(chg, num_events=3000, num_keys=200, seed=43, num_shards=2, max_tok=8)
    files = sorted(glob.glob(os.path.join(chg, "*.parquet")))
    lake = str(tmp_path / "lake")
    replay(files[:1], lake, num_partitions=4)
    replay(files[1:], lake)
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


def _flip(path: str, offset: int) -> bytes:
    """XOR one byte of ``path`` with 0x10; returns the original file."""
    with open(path, "rb") as f:
        data = f.read()
    with open(path, "wb") as f:
        f.write(data[:offset] + bytes([data[offset] ^ 0x10]) + data[offset + 1:])
    return data


def _footer_offset(path: str, name: bytes) -> int:
    """Offset of the first ``name`` in the Parquet footer of ``path``:
    the footer's schema elements come first, so a column name hits its
    schema element."""
    with open(path, "rb") as f:
        data = f.read()
    start = len(data) - 8 - int.from_bytes(data[-8:-4], "little")
    return data.index(name, start)


def test_verify_lake_detects_corruption(tmp_path, bucket_files):
    """One flipped byte anywhere in a committed file fails
    ``verify_lake`` with "hash mismatch": a data byte, a footer byte
    (the ``lsn`` schema element), a byte of a partition inherited from
    an older epoch directory and one of a partition adopted by resume.
    A directory without a commit raises ``FileNotFoundError``."""
    import json

    import pyarrow.parquet as pq

    empty = tmp_path / "empty"
    empty.mkdir()
    with pytest.raises(FileNotFoundError, match="no committed epoch"):
        sink.verify_lake(str(empty))

    chg = str(tmp_path / "chg")
    write_change_log(chg, num_events=2000, num_keys=150, seed=44, num_shards=2, max_tok=8)
    lake = str(tmp_path / "lake")
    replay(chg, lake, num_partitions=4)
    res = sink.verify_lake(lake)
    assert res["partitions_checked"] >= 1 and res["hashes_verified"] >= 1
    victim = sorted(glob.glob(os.path.join(lake, "epoch-000000", "part-*.parquet")))[0]
    for offset in (10, _footer_offset(victim, b"lsn")):
        data = _flip(victim, offset)
        with pytest.raises(ValueError, match="hash mismatch"):
            sink.verify_lake(lake)
        with open(victim, "wb") as f:
            f.write(data)
        assert sink.verify_lake(lake) == res

    # epoch 1 rewrites one partition and inherits the other three
    one = pq.read_table(sorted(glob.glob(os.path.join(chg, "*.parquet")))[0]).slice(0, 1)
    os.makedirs(str(tmp_path / "one"))
    pq.write_table(one, str(tmp_path / "one" / "c.parquet"))
    replay(str(tmp_path / "one"), lake)
    head = sink.read_commit(lake, 1)["partitions"]
    inherited = [e["path"] for e in head.values() if e["path"].startswith("epoch-000000")]
    assert inherited and sink.verify_lake(lake)["hashes_verified"] == 4
    _flip(os.path.join(lake, inherited[0]), 10)
    with pytest.raises(ValueError, match="hash mismatch"):
        sink.verify_lake(lake)

    resumed = str(tmp_path / "resumed")
    replay(chg, resumed, num_partitions=4, only_parts=frozenset({0}))
    replay(chg, resumed, num_partitions=4, resume=True)
    assert sink.verify_lake(resumed)["hashes_verified"] == 4
    _flip(os.path.join(sink.epoch_dir(resumed, 0), sink.part_file(0)), 10)
    with pytest.raises(ValueError, match="hash mismatch"):
        sink.verify_lake(resumed)

    # a commit from before commits recorded hashes: checked, not hashed
    commit = sink.read_commit(resumed, 0)
    del commit["sha256"]
    with open(os.path.join(sink.epoch_dir(resumed, 0), sink.COMMIT_NAME), "w") as f:
        json.dump(commit, f)
    assert sink.verify_lake(resumed) == {"epoch": 0, "partitions_checked": 4, "hashes_verified": 0}


def test_one_durable_file_per_partition(tmp_path, monkeypatch, bucket_files):
    """After a replay, an ingest and a compaction every epoch directory
    holds only ``part-*.parquet`` files and ``_COMMIT.json``, and the
    directory fsyncs do not depend on how many partitions were written:
    ``write_partition`` does none, each publish the same few."""
    import pyarrow as pa

    from ton_etl_ray.cdc.compact import compact_lake
    from ton_etl_ray.cdc.incremental import IncrementalIngestor

    chg = str(tmp_path / "chg")
    write_change_log(chg, num_events=3000, num_keys=300, seed=45, num_shards=2, max_tok=8)
    files = sorted(glob.glob(os.path.join(chg, "*.parquet")))
    synced = []
    real = sink._fsync_dir
    monkeypatch.setattr(sink, "_fsync_dir", lambda d: (synced.append(d), real(d)))

    counts = {}
    for width in (2, 16):
        lake = str(tmp_path / f"lake{width}")
        synced.clear()
        replay(files[:1], lake, num_partitions=width)
        IncrementalIngestor(lake).ingest(files[1:])
        compact_lake(lake)
        assert sink.latest_epoch(lake) == 2
        for e in range(3):
            names = set(os.listdir(sink.epoch_dir(lake, e)))
            parts = {n for n in names if n.startswith("part-") and n.endswith(".parquet")}
            assert names - parts == {sink.COMMIT_NAME}, names
        assert len(parts) == width
        counts[width] = len(synced)
        synced.clear()
        sink.write_partition(lake, 3, sink.part_file(0),
                             pa.table({"doc_id": ["a"], "lsn": pa.array([1], pa.int64())}), {})
        assert synced == []
    assert counts[2] == counts[16] == 9, counts


def test_gc_spares_in_progress_epoch(tmp_path):
    """An uncommitted epoch NEWER than _LATEST is a replay in progress —
    gc_epochs must not delete its staged parquet files (ADVICE r1)."""
    chg = str(tmp_path / "chg")
    write_change_log(chg, num_events=3000, num_keys=200, seed=42, num_shards=2, max_tok=8)
    lake = str(tmp_path / "lake")
    replay(chg, lake, num_partitions=4)
    # simulate another writer mid-epoch-1: staged part file, no _COMMIT
    d = sink.epoch_dir(lake, 1)
    os.makedirs(d)
    staged = os.path.join(d, sink.part_file(0))
    with open(staged, "wb") as f:
        f.write(b"PAR1fake")
    sink.gc_epochs(lake, keep_epochs=1)
    assert os.path.exists(staged)


def test_lock_released_on_failure(tmp_path, lake_writer):
    """A writer that raises mid-pipeline must not strand _LOCK (ADVICE
    r1) — every writer, since they share sink.EpochTxn."""
    import pytest

    chg = str(tmp_path / "chg")
    write_change_log(chg, num_events=1000, num_keys=100, seed=43, num_shards=2, max_tok=8)
    lake = str(tmp_path / "lake")
    files = sorted(glob.glob(os.path.join(chg, "*.parquet")))
    if lake_writer.kind == "compact":
        # compaction reads the lake, not a change log: corrupt a
        # committed partition file of a one-epoch lake instead
        replay(files[:1], lake, num_partitions=4)
        target, bad = 1, sink.lake_files(lake)[0]
    else:
        target, bad = 0, files[1]
    with open(bad, "rb") as f:
        good = f.read()
    # corrupt one input so the pipeline fails after the lock is acquired
    with open(bad, "wb") as f:
        f.write(b"not parquet")
    with pytest.raises(Exception):
        lake_writer(lake, files, num_partitions=4)
    assert not os.path.exists(os.path.join(sink.epoch_dir(lake, target), "_LOCK"))
    # a fresh run over good input succeeds immediately (no stale lock)
    if lake_writer.kind == "compact":
        with open(bad, "wb") as f:
            f.write(good)
    epoch = lake_writer(lake, files[:1], num_partitions=4)
    assert epoch == target and sink.is_committed(lake, epoch)


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
        replay(chg, lake, num_partitions=4)
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


def test_publish_epoch_collects_stale_tmp_files(tmp_path):
    """A crashed writer's ``*.tmp.<pid>.<ns>`` files are unlinked by the
    next publish once older than the lock's stale age — in the lake root
    and in the published epoch dir. Fresh tmps (a live writer's) and
    other files survive, and read paths delete nothing."""
    import time

    import pyarrow as pa

    lake = str(tmp_path / "lake")
    edir = sink.epoch_dir(lake, 0)
    os.makedirs(edir)
    old = time.time() - sink.STALE_SEC - 60
    stale = [os.path.join(lake, "_LATEST.tmp.4242.123456789"),
             os.path.join(edir, "part-00001.parquet.tmp.4242.987654321")]
    fresh = [os.path.join(lake, "_LATEST.tmp.4343.1"),
             os.path.join(edir, "part-00002.parquet.tmp.4343.2")]
    other = os.path.join(edir, "notes.tmp.txt")
    for p in stale + fresh + [other]:
        with open(p, "w") as f:
            f.write("x")
    for p in stale + [other]:
        os.utime(p, (old, old))

    sink.latest_epoch(lake)  # read path: deletes nothing
    assert all(os.path.exists(p) for p in stale + fresh + [other])

    sink.publish_epoch(lake, 0, {}, {"num_partitions": 0},
                       pa.schema([("doc_id", pa.string())]))
    assert not any(os.path.exists(p) for p in stale)
    assert all(os.path.exists(p) for p in fresh + [other])
    assert sink.latest_epoch(lake) == 0


def test_commit_protocol_lives_in_sink_only():
    """Every lake writer commits through sink.EpochTxn: the protocol's
    primitives are called nowhere in the package but cdc/sink.py, so a
    new writer cannot hand-roll (and drift from) the pin/lock/stage/
    publish sequence."""
    import ast

    primitives = {"publish_epoch", "acquire_epoch_lock", "release_epoch_lock", "clear_staging"}
    pkg = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "ton_etl_ray")
    offenders = []
    for path in sorted(glob.glob(os.path.join(pkg, "**", "*.py"), recursive=True)):
        if os.path.relpath(path, pkg) == os.path.join("cdc", "sink.py"):
            continue
        with open(path) as f:
            tree = ast.parse(f.read(), path)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            fn = node.func
            name = fn.attr if isinstance(fn, ast.Attribute) else getattr(fn, "id", None)
            if name in primitives:
                offenders.append(f"{os.path.relpath(path, pkg)}:{node.lineno} {name}")
    assert not offenders, offenders


def test_read_file_closes_its_handle(tmp_path):
    """500 ``sink.read_file`` calls leave the process's open file
    descriptors unchanged: the watcher is a long-running process. Runs
    in a fresh interpreter so no other thread opens or closes a
    descriptor meanwhile."""
    import subprocess
    import sys

    import pyarrow as pa
    import pyarrow.parquet as pq
    import pytest

    if not os.path.isdir("/proc/self/fd"):
        pytest.skip("needs /proc/self/fd")
    path = str(tmp_path / "part.parquet")
    pq.write_table(pa.table({"doc_id": ["a", "b"], "lsn": [1, 2]}), path)
    code = f"""
import os
from ton_etl_ray.cdc import sink
sink.read_file({path!r})
before = len(os.listdir("/proc/self/fd"))
for i in range(500):
    sink.read_file({path!r}, ["lsn"] if i % 2 else None)
print(before, len(os.listdir("/proc/self/fd")))
"""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    out = subprocess.run([sys.executable, "-c", code], cwd=root, capture_output=True,
                         text=True, check=True).stdout.split()
    assert out[0] == out[1], out


def _encodings(path):
    """Parquet column path -> set of encodings of row group 0."""
    import pyarrow.parquet as pq

    rg = pq.ParquetFile(path).metadata.row_group(0)
    return {rg.column(i).path_in_schema: set(rg.column(i).encodings)
            for i in range(rg.num_columns)}


def test_small_partition_writes_wide_ints_plain(tmp_path):
    """In a small lake file (about 1,500 rows), lsn (unique), the token
    ids (about 13k values of a 50k vocabulary) and doc_id (each key
    once per file) carry no dictionary page; source and n_tok
    (1..16, over more than 8 × 16 rows) keep theirs, and the lineage
    check still passes."""
    chg = str(tmp_path / "chg")
    write_change_log(chg, num_events=6000, num_keys=1500, seed=47, num_shards=2, max_tok=16)
    lake = str(tmp_path / "lake")
    replay(chg, lake, num_partitions=2)
    files = sink.lake_files(lake)
    assert len(files) == 1  # both buckets in one file of ~1,500 rows
    for f in files:
        enc = _encodings(f)
        assert "RLE_DICTIONARY" not in enc["lsn"], enc
        assert "RLE_DICTIONARY" not in enc["tokens.list.element"], enc
        assert "RLE_DICTIONARY" not in enc["doc_id"], enc
        assert sink.read_file(f).num_rows > 8 * 16
        for col in ("source", "n_tok"):
            assert "RLE_DICTIONARY" in enc[col], (col, enc)
    assert sink.verify_lake(lake)["partitions_checked"] == 1


def test_dense_tokens_keep_their_dictionary(tmp_path):
    """range · 8 ≤ values: the token leaf keeps the dictionary, lsn
    (range · 8 > values) goes plain."""
    import pyarrow as pa

    n = 200
    t = pa.table({
        "lsn": pa.array(range(n), pa.int64()),
        "tokens": pa.array([[(i * 7 + j) % 100 for j in range(5)] for i in range(n)],
                           pa.list_(pa.int32())),
    })
    assert sink.encode_options(t)["use_dictionary"] == ["tokens.list.element"]
    path = str(tmp_path / "dense.parquet")
    assert sink.atomic_write_table(path, t) == os.path.getsize(path)
    enc = _encodings(path)
    assert "RLE_DICTIONARY" in enc["tokens.list.element"]
    assert "RLE_DICTIONARY" not in enc["lsn"]
    assert sink.read_file(path).equals(t)


def _edge_tables():
    """Edge shapes for the encoding policy and the written-partition
    memo: an empty table, an all-null int, int64 min and max together
    (the range overflows int64), uint64 near its max, large_list, null
    lists, struct + map leaves."""
    import pyarrow as pa

    i64 = pa.int64()
    lake_schema = pa.schema([("doc_id", pa.string()), ("tokens", pa.list_(pa.int32())),
                             ("n_tok", pa.int32()), ("lsn", i64)])
    return {
        "empty": lake_schema.empty_table(),
        "all_null": pa.table({"a": pa.array([None] * 5, i64), "s": ["x"] * 5}),
        "int64_ends": pa.table({"a": pa.array([-2**63, 2**63 - 1, 0], i64)}),
        "uint64": pa.table({"u": pa.array([0, 2**64 - 1, 2**63], pa.uint64())}),
        "large_list": pa.table({"t": pa.array([[1, 2**40], None, [], [3]],
                                              pa.large_list(i64))}),
        "null_lists": pa.table({"tokens": pa.array([None, None, [5, 6], None],
                                                   pa.list_(pa.int32()))}),
        "nested": pa.table({
            "st": pa.array([{"a": 10**9, "b": "x"}, None, {"a": 1, "b": "y"}]),
            "m": pa.array([[("k", 1)], None, [("k", 1), ("j", 1)]], pa.map_(pa.string(), pa.int32())),
        }),
    }


def test_encoding_policy_round_trips_exactly(tmp_path):
    """The edge shapes (``_edge_tables``) survive the per-leaf decision
    unchanged. The writer still returns the file size."""
    cases = _edge_tables()
    for name, t in cases.items():
        path = str(tmp_path / f"{name}.parquet")
        assert sink.atomic_write_table(path, t) == os.path.getsize(path)
        got = sink.read_file(path)
        assert got.schema == t.schema and got.equals(t), name
    assert sink.encode_options(cases["empty"])["use_dictionary"] is True
    assert sink.encode_options(cases["all_null"])["use_dictionary"] is True
    assert sink.encode_options(cases["nested"])["use_dictionary"] == ["st.b", "m.key_value.key"]
    assert "RLE_DICTIONARY" not in _encodings(str(tmp_path / "int64_ends.parquet"))["a"]
    assert "RLE_DICTIONARY" not in _encodings(str(tmp_path / "uint64.parquet"))["u"]
    assert "RLE_DICTIONARY" not in _encodings(str(tmp_path / "large_list.parquet"))["t.list.element"]


def _digest(con, source, params=()):
    """DuckDB's ``count(*)`` and ``sum(hash(...))`` of every column of
    ``source`` (a registered table or a ``read_parquet`` call)."""
    cols = [d[0] for d in con.execute(f"DESCRIBE SELECT * FROM {source}", params).fetchall()]
    return con.execute(f"SELECT count(*), sum(hash({', '.join(cols)})) FROM {source}",
                       params).fetchone()


def _packed(path):
    """The leaves of a file written DELTA_BINARY_PACKED."""
    return {c for c, enc in _encodings(path).items() if "DELTA_BINARY_PACKED" in enc}


def test_duckdb_reads_the_packed_lake(tmp_path):
    """A replayed lake whose ``lsn`` and token-id leaves come out
    bit-packed (DELTA_BINARY_PACKED, no zstd) reads back through
    DuckDB's ``read_parquet`` — the oracles' and lakebench's reader —
    with the same row digest as ``final_state_table``."""
    import pyarrow.parquet as pq

    chg = str(tmp_path / "chg")
    write_change_log(chg, num_events=6000, num_keys=1500, seed=47, num_shards=2, max_tok=16)
    lake = str(tmp_path / "lake")
    replay(chg, lake, num_partitions=2)
    files = sink.lake_files(lake)
    for f in files:
        assert {"lsn", "tokens.list.element"} <= _packed(f), _encodings(f)
        md = pq.ParquetFile(f).metadata.row_group(0)
        codecs = {md.column(i).path_in_schema: md.column(i).compression for i in range(md.num_columns)}
        assert codecs["lsn"] == codecs["tokens.list.element"] == "UNCOMPRESSED"
        assert codecs["doc_id"] == codecs["source"] == "ZSTD"
    con = duckdb.connect()
    con.register("state", final_state_table(lake))
    want = _digest(con, "state")
    assert want[0] > 256
    assert _digest(con, "read_parquet(?)", [files]) == want


def _packable_tables():
    """Edge shapes of at least 256 values per leaf whose integer leaves
    the policy packs: int64 min and max together among random 40-bit
    values (the deltas wrap), uint64 above 2^63, nulls, and struct, map
    and large_list leaves."""
    import numpy as np
    import pyarrow as pa

    rng = np.random.default_rng(5)
    n = 4096
    walk = np.cumsum(rng.integers(0, 1000, n))
    ends = rng.integers(0, 2**40, n)
    ends[:2] = [-2**63, 2**63 - 1]
    return {
        "int64_ends": pa.table({"a": pa.array(ends, pa.int64())}),
        "uint64": pa.table({"u": pa.array(walk.astype(np.uint64) + np.uint64(2**63 + 5))}),
        "nulls": pa.table({"a": pa.array(walk.astype(np.int32), mask=np.arange(n) % 7 == 0)}),
        "large_list": pa.table({"t": pa.LargeListArray.from_arrays(
            pa.array(np.r_[np.arange(0, n, 3), n], pa.int64()), pa.array(walk, pa.int64()))}),
        "nested": pa.table({
            "st": pa.StructArray.from_arrays([pa.array(walk, pa.int64()), pa.array(["x"] * n)],
                                             ["a", "b"]),
            "m": pa.MapArray.from_arrays(pa.array(np.arange(n + 1, dtype=np.int32)),
                                         pa.array(["k"] * n), pa.array(walk.astype(np.int32))),
        }),
    }


def test_packed_leaves_round_trip_exactly(tmp_path):
    """Every packed edge leaf (``_packable_tables``) reads back exactly
    through pyarrow, and DuckDB's digest of the file equals its digest
    of the table."""
    want = {"int64_ends": {"a"}, "uint64": {"u"}, "nulls": {"a"},
            "large_list": {"t.list.element"}, "nested": {"st.a", "m.key_value.value"}}
    con = duckdb.connect()
    for name, t in _packable_tables().items():
        path = str(tmp_path / f"{name}.parquet")
        assert sink.atomic_write_table(path, t) == os.path.getsize(path)
        assert _packed(path) == want[name], (name, _encodings(path))
        got = sink.read_file(path)
        assert got.schema == t.schema and got.equals(t), name
        con.register("t", t)
        assert _digest(con, "read_parquet(?)", [path]) == _digest(con, "t"), name
        con.unregister("t")


def test_dbp_sizing_matches_arrow():
    """The chooser's DELTA_BINARY_PACKED size is Arrow's page to within
    the page header: int32 and int64 blocks (128 and 256 deltas), a
    short last block, wrapping deltas at the int64 ends, uint64 above
    2^63 and an int8 leaf."""
    import io

    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    rng = np.random.default_rng(11)
    ends = rng.integers(0, 2**40, 700)
    ends[[3, 4]] = [-2**63, 2**63 - 1]
    cases = [pa.array(rng.integers(0, 50257, n), pa.int32()) for n in (1, 2, 33, 129, 2049)]
    cases += [pa.array(ends, pa.int64()), pa.array(rng.integers(0, 2**62, 600), pa.int64()),
              pa.array(np.arange(600, dtype=np.uint64) * 977 + np.uint64(2**63)),
              pa.array(rng.integers(-128, 128, 600), pa.int8())]
    for a in cases:
        t = pa.table({"a": a}, schema=pa.schema([pa.field("a", a.type, nullable=False)]))
        buf = io.BytesIO()
        pq.write_table(t, buf, use_dictionary=False, compression="none", write_statistics=False,
                       column_encoding={"a": "DELTA_BINARY_PACKED"})
        page = pq.ParquetFile(buf).metadata.row_group(0).column(0).total_compressed_size
        v = a.to_numpy().astype(np.int64 if a.type.bit_width == 64 else np.int32)
        assert 0 < page - sink._dbp_bytes(v) <= 32, (a.type, len(a), page, sink._dbp_bytes(v))


def _zipf_ids(rng, size, vocab=50257, s=1.1):
    """Token ids from a zipf(s) law over a seeded permutation of the
    vocabulary: skewed as BPE output is, the hottest ids not the
    smallest."""
    import numpy as np

    cdf = np.cumsum(1.0 / np.arange(1, vocab + 1) ** s)
    ranks = np.minimum(np.searchsorted(cdf / cdf[-1], rng.random(size)), vocab - 1)
    return np.random.default_rng(vocab).permutation(vocab)[ranks]


def test_packing_follows_the_data(tmp_path):
    """Bit-packing is chosen per leaf from the data. Zipf-skewed token
    ids compress better under zstd: they stay plain, and the file is no
    larger than with every leaf zstd. Uniform ids pack. A wide leaf of
    255 values (one below the floor; 256 of the same ids pack), an
    all-null leaf and a dictionary leaf never pack."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    rng = np.random.default_rng(20)
    rows = 2000
    offsets = pa.array(np.r_[0, np.cumsum(rng.integers(1, 33, rows))].astype(np.int32))
    total = offsets[-1].as_py()

    def tokens(ids):
        return pa.table({"tokens": pa.ListArray.from_arrays(offsets, pa.array(ids.astype(np.int32)))})

    def written(name, t):
        path = str(tmp_path / f"{name}.parquet")
        sink.atomic_write_table(path, t)
        return path

    zipf = tokens(_zipf_ids(rng, total))
    path = written("zipf", zipf)
    assert not _packed(path)
    everything_zstd = pa.BufferOutputStream()
    pq.write_table(zipf, everything_zstd, compression=sink.COMPRESSION,
                   use_dictionary=sink.encode_options(zipf)["use_dictionary"])
    assert os.path.getsize(path) <= everything_zstd.getvalue().size
    assert _packed(written("uniform", tokens(rng.integers(0, 50257, total)))) == {"tokens.list.element"}

    ids = pa.array(rng.integers(0, 50257, 256), pa.int32())
    assert not _packed(written("below_floor", pa.table({"a": ids.slice(0, 255)})))
    assert _packed(written("at_floor", pa.table({"a": ids}))) == {"a"}
    assert not _packed(written("all_null", pa.table({"a": pa.array([None] * 1000, pa.int64())})))
    dense = pa.table({"tokens": pa.ListArray.from_arrays(offsets, pa.array(
        rng.integers(0, total // 16, total).astype(np.int32)))})
    assert sink.encode_options(dense)["use_dictionary"] is True
    assert not _packed(written("dense", dense))
    typed = pa.table({"d": pa.array(rng.integers(0, 50257, 1000)).dictionary_encode()})
    assert not _packed(written("dictionary_typed", typed))


def _disk(path, columns=None):
    """A Parquet decode that bypasses the written-partition memo."""
    import pyarrow.parquet as pq

    with pq.ParquetFile(path) as pf:
        return pf.read(columns=columns)


@pytest.fixture
def empty_memo(monkeypatch):
    """A fresh written-partition memo for the test; the process's own
    memo is put back afterwards."""
    import sys

    monkeypatch.delattr(sys, "_tonray_written", raising=False)


def _same(got, want):
    return got.equals(want) and got.schema.equals(want.schema, check_metadata=True)


def test_memo_hit_equals_disk_decode(tmp_path, empty_memo):
    """A written partition read back in the same process is served from
    the memo, and equals a fresh disk decode in values, types and
    schema metadata, whole and for every kind of column list: reordered,
    a subset, repeated names and none. A missing name raises
    ``KeyError`` naming it, from the memo and from a disk read alike
    (pyarrow's own read would drop it); a nested path into a struct
    is the disk read's."""
    import datetime
    import shutil

    import pyarrow as pa

    lake = str(tmp_path / "lake")
    cases = _edge_tables()
    # types the file stores differently: a decode gives int32 dictionary
    # indices, timestamp[ms], date32-backed date64 and named list fields
    cases["coerced"] = pa.table({
        "d": pa.array(["a", "b", "a"]).dictionary_encode().cast(pa.dictionary(pa.int8(), pa.string())),
        "ts": pa.array([1, 2, 3], pa.timestamp("s")),
        "day": pa.array([datetime.date(2020, 1, 1)] * 3, pa.date64()),
        "fsl": pa.array([[1, 2], [5, 6], [3, 4]], pa.list_(pa.int32(), 2)),
    })
    for i, (name, t) in enumerate(cases.items()):
        t = t.replace_schema_metadata({"case": name})
        sink.write_partition(lake, 0, sink.part_file(i), t, {})
        path = os.path.join(sink.epoch_dir(lake, 0), sink.part_file(i))
        hit = sink.read_file(path)
        assert hit is sink.read_file(path), name  # served from the memo
        assert _same(hit, _disk(path)) and _same(hit, t.cast(hit.schema)), name
        cols = t.column_names
        for sub in (cols[::-1], cols[-1:], cols + cols[:1], []):
            got = sink.read_file(path, sub)
            assert _same(got, _disk(path, sub)) and got.num_rows == t.num_rows, (name, sub)
        cold = str(tmp_path / f"cold-{i}.parquet")  # not written by write_partition
        shutil.copy(path, cold)
        for p in (path, cold):
            for sub in (["missing", cols[0]], ["missing"], ["missing.x"]):
                with pytest.raises(KeyError, match="no column missing"):
                    sink.read_file(p, sub)
        assert sink.read_file(path) is hit  # the memo still serves the file
    # a nested path is not a kept column name: the disk read answers it
    path = os.path.join(sink.epoch_dir(lake, 0), sink.part_file(list(cases).index("nested")))
    assert _same(sink.read_file(path, ["st.a"]), _disk(path, ["st.a"]))


def test_memo_never_serves_a_replaced_partition(tmp_path, empty_memo):
    """A partition file replaced at the same path is read from disk:
    after ``clear_staging`` and a second writer's rewrite (another
    process), after an in-place overwrite, and after ``gc_epochs``
    collected it (``FileNotFoundError``, as without the memo)."""
    import subprocess
    import sys

    import pyarrow as pa
    import pyarrow.parquet as pq

    lake = str(tmp_path / "lake")
    mine = pa.table({"doc_id": ["a", "b"], "lsn": pa.array([1, 2], pa.int64())})
    theirs = pa.table({"doc_id": ["c"], "lsn": pa.array([9], pa.int64())})
    path = os.path.join(sink.epoch_dir(lake, 0), sink.part_file(0))

    # abandoned staging cleared, then rewritten by another process
    sink.write_partition(lake, 0, sink.part_file(0), mine, {})
    assert sink.read_file(path) is sink.read_file(path)
    sink.clear_staging(lake, 0)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    code = f"""
import pyarrow as pa
from ton_etl_ray.cdc import sink
sink.write_partition({lake!r}, 0, sink.part_file(0),
                     pa.table({{"doc_id": ["c"], "lsn": pa.array([9], pa.int64())}}), {{}})
"""
    subprocess.run([sys.executable, "-c", code], cwd=root, check=True)
    # the file's footer adds the (empty) lineage to theirs
    assert _same(sink.read_file(path), _disk(path)) and sink.read_file(path).equals(theirs)
    assert sink.read_file(path, ["lsn"]).column("lsn").to_pylist() == [9]

    # in-place overwrite (same inode): garbage, then another valid file
    sink.write_partition(lake, 0, sink.part_file(0), mine, {})
    with open(path, "wb") as f:
        f.write(b"not parquet")
    with pytest.raises(Exception) as disk_err:
        _disk(path)
    with pytest.raises(type(disk_err.value)):
        sink.read_file(path)
    sink.write_partition(lake, 0, sink.part_file(0), mine, {})
    ino = os.stat(path).st_ino
    buf = pa.BufferOutputStream()
    pq.write_table(theirs, buf)
    with open(path, "wb") as f:
        f.write(buf.getvalue().to_pybytes())
    assert os.stat(path).st_ino == ino
    assert _same(sink.read_file(path), theirs)

    # collected by gc_epochs
    chg = str(tmp_path / "chg")
    write_change_log(chg, num_events=3000, num_keys=200, seed=48, num_shards=3, max_tok=8)
    files = sorted(glob.glob(os.path.join(chg, "*.parquet")))
    lake2 = str(tmp_path / "lake2")
    replay(files[:1], lake2, num_partitions=4)
    first = sink.lake_files(lake2, 0)
    replay(files[1:2], lake2)
    old = [f for f in first if f not in sink.lake_files(lake2)]
    assert old and all(os.path.abspath(f) in sink._memo()["files"] for f in old)
    assert sink.gc_epochs(lake2, keep_epochs=1)["deleted_files"] >= len(old)
    for f in old:
        with pytest.raises(FileNotFoundError):
            sink.read_file(f)


def test_memo_stays_within_its_bounds(tmp_path, empty_memo, monkeypatch):
    """50 epochs on a 4-bucket lake: the memo keeps exactly the files of
    the two newest commits, within ``BLOCK_BYTES`` of decoded bytes.
    Under a smaller byte cap the oldest files go first and a table
    above the cap is not kept."""
    import pyarrow as pa

    from ton_etl_ray.ops import _util

    chg = str(tmp_path / "chg")
    write_change_log(chg, num_events=10_000, num_keys=800, seed=49, num_shards=50, max_tok=8)
    files = sorted(glob.glob(os.path.join(chg, "*.parquet")))
    lake = str(tmp_path / "lake")
    replay(files[:1], lake, num_partitions=4)
    for f in files[1:]:
        replay([f], lake)
    assert sink.latest_epoch(lake) == 49
    m = sink._memo()
    assert m["bytes"] == sum(ent[1].nbytes for ent in m["files"].values()) <= _util.BLOCK_BYTES
    assert set(m["files"]) == {os.path.abspath(f) for e in (48, 49) for f in sink.lake_files(lake, e)}

    t = pa.table({"x": pa.array(range(1000), pa.int64())})  # 8000 bytes
    monkeypatch.setattr(_util, "BLOCK_BYTES", 3 * t.nbytes)
    small = str(tmp_path / "small")
    for i in range(5):
        sink.write_partition(small, 0, sink.part_file(i), t, {})
    m = sink._memo()
    names = [os.path.basename(p) for p in m["files"]]
    assert names == [sink.part_file(i) for i in (2, 3, 4)] and m["bytes"] == 3 * t.nbytes
    big = pa.table({"x": pa.array(range(4000), pa.int64())})
    sink.write_partition(small, 0, sink.part_file(9), big, {})
    assert os.path.abspath(os.path.join(sink.epoch_dir(small, 0), sink.part_file(9))) not in m["files"]
    assert m["bytes"] == 3 * t.nbytes


def test_reading_process_keeps_the_memo_empty(tmp_path, empty_memo):
    """Reads never insert: a process that only reads a lake (scan,
    views, diff) holds nothing in the memo."""
    from ton_etl_ray.cdc.replay import epoch_diff
    from ton_etl_ray.ops.tokens import incremental_source_budget, source_budget_at

    chg = str(tmp_path / "chg")
    write_change_log(chg, num_events=3000, num_keys=300, seed=50, num_shards=2, max_tok=8)
    files = sorted(glob.glob(os.path.join(chg, "*.parquet")))
    lake = str(tmp_path / "lake")
    replay(files[:1], lake, num_partitions=4)
    replay(files[1:], lake)
    import sys

    del sys._tonray_written  # the writer's memo; what follows only reads
    final_state_table(lake)
    incremental_source_budget(lake, source_budget_at(lake, 0), 0, 1)
    epoch_diff(lake, 0, 1).count()
    for f in sink.lake_files(lake):
        sink.read_file(f, ["doc_id"])
    assert not sink._memo()["files"]


def test_memo_is_not_pickled_with_tasks(tmp_path, empty_memo):
    """The memo lives on ``sys``, so a Ray task closure over the
    by-value-pickled package has the same size with a full memo as
    with an empty one."""
    import sys
    from functools import partial

    from ray import cloudpickle

    from ton_etl_ray._pickle import ensure_portable
    from ton_etl_ray.cdc import replay as R

    ensure_portable()
    chg = str(tmp_path / "chg")
    write_change_log(chg, num_events=20_000, num_keys=2000, seed=51, num_shards=2, max_tok=32)
    lake = str(tmp_path / "lake")
    replay(chg, lake, num_partitions=4)
    assert sink._memo()["bytes"] > 100_000
    full = len(cloudpickle.dumps(partial(R.commit_partition, lake, 1)))
    del sys._tonray_written
    empty = len(cloudpickle.dumps(partial(R.commit_partition, lake, 1)))
    assert full == empty < 1_000_000


def test_writer_epoch_parses_its_head_commit_once(tmp_path, monkeypatch, lake_writer):
    """Every writer epoch parses the head's ``_COMMIT.json`` once, when
    ``EpochTxn`` pins it: the schema, the state files and the layout
    come from the pinned commit (a 65,536-partition commit is megabytes
    of JSON). The watcher's metrics row takes the watermark from the
    ingest result, not from a re-read of the commit it just wrote."""
    import shutil

    from ton_etl_ray.cdc.streaming import DirectoryWatcher

    chg, lake = str(tmp_path / "chg"), str(tmp_path / "lake")
    write_change_log(chg, num_events=2000, num_keys=200, seed=91, num_shards=3, max_tok=6)
    files = sorted(glob.glob(os.path.join(chg, "*.parquet")))
    replay(files[:1], lake, num_partitions=8)
    ing = lake_writer.ingestor(lake) if lake_writer.kind == "ingest" else None
    parsed = []
    real_read_commit = sink.read_commit
    monkeypatch.setattr(sink, "read_commit", lambda lk, e: (
        parsed.append(e), real_read_commit(lk, e))[1])
    epoch = lake_writer(lake, files[1:2], ingestor=ing)
    assert epoch == 1 and parsed == [0]

    watch = str(tmp_path / "watch")
    os.makedirs(watch)
    w = DirectoryWatcher(watch, lake, stable_polls=0, idle_flush_sec=0)
    shutil.copy(files[2], watch)
    parsed.clear()
    res = w.step()
    assert res["epoch"] == 2 and parsed == [1]
    assert w.metrics[-1]["watermark_lsn"] == real_read_commit(lake, 2)["max_lsn"]
