"""Exactly-once two-phase-commit Parquet lake sink with manifests.

The reference achieves durability by ordering: write Avro file → upload
→ THEN commit Kafka offsets (at-least-once, duplicates cleaned daily by
an EXCEPT dedup — reference datalake/main.py:157-186,
datalake_daily_sync.py:298-328). We instead make the sink exactly-once:

phase 1: each partition applier writes ``part-NNNNN.parquet`` via a tmp
         file + atomic rename, then its ``*.manifest.json`` (fsynced) —
         a partition is durably done iff its manifest exists;
phase 2: the driver writes the epoch ``_COMMIT.json`` naming every
         partition file (possibly inheriting untouched partitions from
         the previous epoch), then atomically flips the ``_LATEST``
         pointer. Readers only ever see committed epochs.

Task retries are invisible: a retried applier rewrites the same
deterministic content to the same path. Resume after a crash skips
every partition whose manifest already exists (lineage recorded inside).

Layout::

    lake_dir/
      _LATEST                      # text: committed epoch id
      epoch-000000/
        _COMMIT.json               # partition map + totals + schema
        part-00007.parquet
        part-00007.manifest.json   # rows, max_lsn, counters, inputs
        hotspill-00033.parquet     # salted hot-key partials (pre-publish)
"""

from __future__ import annotations

import base64
import json
import os

import pyarrow as pa
import pyarrow.parquet as pq

COMMIT_NAME = "_COMMIT.json"
LATEST_NAME = "_LATEST"


def epoch_dir(lake_dir: str, epoch: int) -> str:
    return os.path.join(lake_dir, f"epoch-{epoch:06d}")


def part_file(p: int) -> str:
    return f"part-{p:05d}.parquet"


def spill_file(p: int) -> str:
    return f"hotspill-{p:05d}.parquet"


def _fsync_dir(path: str) -> None:
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _tmp_name(path: str) -> str:
    # writer-unique tmp: a Ray retry can overlap its presumed-dead
    # original (worker lost, then found), and a SHARED '.tmp' name would
    # let one writer O_TRUNC the other's in-progress file and replace a
    # torn inode into place — pid+nanotime keeps every attempt disjoint
    # (same hazard sources_avro.write_avro already pid-suffixes for)
    import time as _time

    return f"{path}.tmp.{os.getpid()}.{_time.monotonic_ns()}"


def atomic_write_bytes(path: str, data: bytes) -> None:
    tmp = _tmp_name(path)
    with open(tmp, "wb") as f:
        f.write(data)
        f.flush()
        os.fsync(f.fileno())
    os.replace(tmp, path)
    _fsync_dir(os.path.dirname(path))


def atomic_write_table(path: str, table: pa.Table, *,
                       row_group_size: int | None = None) -> int:
    """Write a parquet file atomically; returns file size in bytes."""
    tmp = _tmp_name(path)
    pq.write_table(table, tmp, row_group_size=row_group_size)
    with open(tmp, "rb+") as f:
        os.fsync(f.fileno())
    size = os.path.getsize(tmp)
    os.replace(tmp, path)
    _fsync_dir(os.path.dirname(path))
    return size


_HASH_MAX_BYTES = 256 << 20  # skip hashing beyond this (cost at scale)


def _sha256_file(path: str) -> str:
    import hashlib

    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def write_partition(
    lake_dir: str, epoch: int, fname: str, table: pa.Table, lineage: dict,
    *, row_group_size: int | None = None
) -> dict:
    """Phase-1 commit of one partition: data file then manifest.

    The manifest records a content hash (the analogue of the reference's
    sha256 file naming, datalake/main.py:161-164) so lineage can be
    verified end-to-end (``verify_lake``)."""
    d = epoch_dir(lake_dir, epoch)
    os.makedirs(d, exist_ok=True)
    path = os.path.join(d, fname)
    size = atomic_write_table(path, table, row_group_size=row_group_size)
    manifest = {
        "file": fname,
        "rows": table.num_rows,
        "bytes": size,
        "sha256": _sha256_file(path) if size <= _HASH_MAX_BYTES else "",
        **lineage,
    }
    atomic_write_bytes(
        os.path.join(d, fname.replace(".parquet", ".manifest.json")),
        json.dumps(manifest, sort_keys=True).encode(),
    )
    return manifest


def staged_manifests(lake_dir: str, epoch: int) -> dict[str, dict]:
    """Manifests already durably written in a (possibly uncommitted) epoch."""
    d = epoch_dir(lake_dir, epoch)
    out: dict[str, dict] = {}
    if not os.path.isdir(d):
        return out
    for name in os.listdir(d):
        if name.endswith(".manifest.json"):
            with open(os.path.join(d, name)) as f:
                m = json.load(f)
            out[m["file"]] = m
    return out


def latest_epoch(lake_dir: str) -> int | None:
    """Committed head. Self-repairing: ``publish_epoch`` writes the
    epoch's ``_COMMIT`` and the ``_LATEST`` flip as two separate atomic
    writes, so a crash in between leaves a committed epoch INVISIBLE —
    and every pin-under-lock retry loop (replay / ingest / compact)
    would then pin that epoch, find it committed, re-pin to the same
    stale value and livelock. Scan forward from the pointer and repair
    it (best-effort; racing repairers write the same value, and a
    repair that cannot be written — a read-only replica — still returns
    the scanned-forward head)."""
    p = os.path.join(lake_dir, LATEST_NAME)
    if not os.path.exists(p):
        # a crash before the FIRST flip: epoch 0 may be committed with
        # no pointer at all
        if is_committed(lake_dir, 0):
            latest = 0
        else:
            return None
    else:
        with open(p) as f:
            latest = int(f.read().strip())
    repaired = latest
    while is_committed(lake_dir, repaired + 1):
        repaired += 1
    if repaired != latest:
        try:
            atomic_write_bytes(p, str(repaired).encode())
        except OSError:
            pass  # read-only mount: the scan-forward answer stands
    return repaired


def read_commit(lake_dir: str, epoch: int) -> dict:
    with open(os.path.join(epoch_dir(lake_dir, epoch), COMMIT_NAME)) as f:
        return json.load(f)


def is_committed(lake_dir: str, epoch: int) -> bool:
    return os.path.exists(os.path.join(epoch_dir(lake_dir, epoch), COMMIT_NAME))


def publish_epoch(
    lake_dir: str,
    epoch: int,
    partitions: dict[str, dict],
    meta: dict,
    schema: pa.Schema,
) -> dict:
    """Phase-2 commit: epoch manifest then the ``_LATEST`` pointer flip."""
    commit = {
        "epoch": epoch,
        "partitions": partitions,  # part-id -> {"path": rel-to-lake_dir, "rows", "max_lsn"}
        "schema_b64": base64.b64encode(schema.serialize().to_pybytes()).decode(),
        **meta,
    }
    atomic_write_bytes(
        os.path.join(epoch_dir(lake_dir, epoch), COMMIT_NAME),
        json.dumps(commit, sort_keys=True).encode(),
    )
    atomic_write_bytes(os.path.join(lake_dir, LATEST_NAME), str(epoch).encode())
    return commit


def lake_schema(lake_dir: str, epoch: int | None = None) -> pa.Schema:
    e = latest_epoch(lake_dir) if epoch is None else epoch
    commit = read_commit(lake_dir, e)
    return pa.ipc.read_schema(pa.py_buffer(base64.b64decode(commit["schema_b64"])))


def lake_files(lake_dir: str, epoch: int | None = None) -> list[str]:
    """Absolute paths of the committed lake's partition files."""
    e = latest_epoch(lake_dir) if epoch is None else epoch
    if e is None:
        raise FileNotFoundError(f"no committed epoch in {lake_dir}")
    commit = read_commit(lake_dir, e)
    return [
        os.path.join(lake_dir, ent["path"])
        for ent in commit["partitions"].values()
        if ent["rows"] > 0
    ]


class EpochLockError(RuntimeError):
    pass


def acquire_epoch_lock(lake_dir: str, epoch: int, *, stale_sec: float = 3600.0) -> str:
    """Single-writer guard for an epoch (O_EXCL lock file).

    Two concurrent replays of the same epoch would race on staging
    files; the lock makes the second fail fast. A crashed writer's lock
    goes stale after ``stale_sec`` and is reclaimed (resume path)."""
    import time as _time

    d = epoch_dir(lake_dir, epoch)
    os.makedirs(d, exist_ok=True)
    lock = os.path.join(d, "_LOCK")

    def _inspect():
        """(exists, reclaimable, holder_pid, age) of the current lock.

        Reclaimable = own pid (resume), provably dead holder, or past
        ``stale_sec``. A 0-byte/garbage lock (writer crashed between
        O_EXCL and write — or is ABOUT to write) has an unknown holder:
        reclaim only on age, never on unparseability alone (the old
        parse-retry recursed forever on exactly this shape). EPERM from
        kill(pid, 0) means the process EXISTS under another uid — a
        LIVE holder, not a dead one."""
        pid: int | None = None
        try:
            with open(lock) as f:
                pid = int(f.read().split()[0])
        except FileNotFoundError:
            return False, False, None, 0.0
        except (ValueError, IndexError):
            pid = None
        try:
            age = _time.time() - os.path.getmtime(lock)
        except FileNotFoundError:
            return False, False, None, 0.0
        alive = True
        if pid is not None and pid != os.getpid():
            try:
                os.kill(pid, 0)
            except ProcessLookupError:
                alive = False
            except PermissionError:
                alive = True
        ok = (pid == os.getpid()) or (pid is not None and not alive) or age > stale_sec
        return True, ok, pid, age

    for _ in range(256):
        try:
            fd = os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            os.write(fd, f"{os.getpid()} {_time.time()}".encode())
            os.close(fd)
            return lock
        except FileExistsError:
            pass
        exists, reclaimable, holder_pid, age = _inspect()
        if not exists:
            continue  # released between create and read — retry create
        if not reclaimable:
            raise EpochLockError(
                f"epoch {epoch} of {lake_dir} is being written by "
                f"{'pid ' + str(holder_pid) if holder_pid is not None else 'an unknown writer'} "
                f"(lock age {age:.0f}s); retry after it finishes or dies"
            )
        # reclaim under a dedicated mutex, then RE-CHECK before removing:
        # without the re-check, a reclaimer that examined the stale lock
        # can remove a LIVE lock a faster racer reclaimed-and-recreated
        # in the meantime (the old write+sleep+read-back scheme had the
        # same ABA hole and let two writers both 'win'). While the stale
        # file occupies the path, O_EXCL creation is impossible and only
        # the mutex holder may remove — so recheck→remove is airtight.
        rl = lock + ".rl"
        try:
            rfd = os.open(rl, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            try:
                if _time.time() - os.path.getmtime(rl) > 60:
                    os.remove(rl)  # leaked by a crashed reclaimer
            except FileNotFoundError:
                pass
            _time.sleep(0.01)
            continue
        try:
            exists, still_ok, _p, _a = _inspect()
            if exists and still_ok:
                os.remove(lock)
        finally:
            os.close(rfd)
            try:
                os.remove(rl)
            except FileNotFoundError:
                pass
        continue
    raise EpochLockError(
        f"epoch {epoch} of {lake_dir}: lock contention did not settle"
    )


def release_epoch_lock(lock_path: str) -> None:
    try:
        os.remove(lock_path)
    except FileNotFoundError:
        pass


def clear_staging(lake_dir: str, epoch: int) -> None:
    """Discard an abandoned, uncommitted epoch's staged files — everything
    EXCEPT the ``_LOCK``. Must only be called while HOLDING the epoch
    lock: an rmtree of the whole dir before acquiring would delete a live
    writer's lock and staged part/carry files (the single-writer guard
    would then never fire)."""
    d = epoch_dir(lake_dir, epoch)
    if not os.path.isdir(d):
        return
    for name in os.listdir(d):
        if name == "_LOCK":
            continue
        p = os.path.join(d, name)
        if os.path.isdir(p):
            import shutil

            shutil.rmtree(p)
        else:
            os.remove(p)


def verify_lake(lake_dir: str, epoch: int | None = None) -> dict:
    """Lineage verification: every committed partition file exists, has
    the manifested size and (when recorded) content hash. Returns
    counters; raises on corruption."""
    e = latest_epoch(lake_dir) if epoch is None else epoch
    commit = read_commit(lake_dir, e)
    checked = hashed = 0
    for pid, ent in commit["partitions"].items():
        if not ent["path"]:
            continue
        path = os.path.join(lake_dir, ent["path"])
        if not os.path.exists(path):
            raise FileNotFoundError(f"partition {pid}: missing {ent['path']}")
        # manifest lives next to the data file (possibly an older epoch dir)
        mf = path.replace(".parquet", ".manifest.json")
        with open(mf) as f:
            m = json.load(f)
        if os.path.getsize(path) != m["bytes"]:
            raise ValueError(f"partition {pid}: size mismatch for {ent['path']}")
        if m.get("sha256"):
            if _sha256_file(path) != m["sha256"]:
                raise ValueError(f"partition {pid}: content hash mismatch for {ent['path']}")
            hashed += 1
        checked += 1
    return {"epoch": e, "partitions_checked": checked, "hashes_verified": hashed}


def lake_stats(lake_dir: str) -> dict:
    """Observability summary (A10 count-check + W1 watermark analogue):
    per-epoch rows, watermark (max applied lsn), written vs inherited
    partitions, bytes — all from commit manifests, no data read."""
    latest = latest_epoch(lake_dir)
    if latest is None:
        return {"epochs": [], "latest": None}
    epochs = []
    for name in sorted(os.listdir(lake_dir)):
        if not name.startswith("epoch-"):
            continue
        e = int(name.split("-")[1])
        if not is_committed(lake_dir, e):
            epochs.append({"epoch": e, "committed": False})
            continue
        c = read_commit(lake_dir, e)
        own = sum(1 for ent in c["partitions"].values() if ent["path"].startswith(f"epoch-{e:06d}"))
        epochs.append(
            {
                "epoch": e,
                "committed": True,
                "rows_total": c["rows_total"],
                "watermark_lsn": c["max_lsn"],
                "partitions_written": own,
                "partitions_inherited": sum(1 for ent in c["partitions"].values() if ent["path"]) - own,
                "hot_keys": len(c.get("hot_keys", [])),
                "inputs": len(c.get("inputs", [])),
            }
        )
    return {"epochs": epochs, "latest": latest}


def gc_epochs(lake_dir: str, *, keep_epochs: int = 1) -> dict:
    """Garbage-collect superseded epoch data files.

    Epochs are copy-on-write snapshots; old ones can be dropped once
    superseded — EXCEPT files still referenced (inherited) by a kept
    commit. Commit JSONs are kept as lineage history. Returns counters.
    """
    latest = latest_epoch(lake_dir)
    if latest is None:
        return {"deleted_files": 0, "kept_epochs": 0}
    keep = set(range(max(0, latest - keep_epochs + 1), latest + 1))
    # never touch epochs NEWER than the committed latest: an uncommitted
    # epoch-(latest+1) dir is a replay in progress (possibly in another
    # process), not a superseded snapshot — deleting its staged part/carry
    # files mid-run would corrupt that run's resume state
    keep.update(
        int(name.split("-")[1])
        for name in os.listdir(lake_dir)
        if name.startswith("epoch-") and int(name.split("-")[1]) > latest
    )
    referenced: set[str] = set()
    for e in keep:
        if not is_committed(lake_dir, e):
            continue  # in-progress epoch: kept, but has no commit to read
        for ent in read_commit(lake_dir, e)["partitions"].values():
            if ent["path"]:
                referenced.add(os.path.normpath(ent["path"]))
    deleted = 0
    for name in sorted(os.listdir(lake_dir)):
        if not name.startswith("epoch-"):
            continue
        e = int(name.split("-")[1])
        if e in keep:
            continue
        d = os.path.join(lake_dir, name)
        for f in sorted(os.listdir(d)):
            if not f.endswith(".parquet"):
                continue
            rel = os.path.normpath(os.path.join(name, f))
            if rel in referenced:
                continue
            os.remove(os.path.join(d, f))
            mf = os.path.join(d, f.replace(".parquet", ".manifest.json"))
            if os.path.exists(mf):
                os.remove(mf)
            deleted += 1
    return {"deleted_files": deleted, "kept_epochs": len(keep)}


def state_path_map(lake_dir: str, epoch: int | None) -> dict[int, str]:
    """part-id -> absolute state file path for the given committed epoch."""
    if epoch is None:
        return {}
    commit = read_commit(lake_dir, epoch)
    return {
        int(pid): os.path.join(lake_dir, ent["path"])
        for pid, ent in commit["partitions"].items()
        if ent["rows"] > 0
    }
