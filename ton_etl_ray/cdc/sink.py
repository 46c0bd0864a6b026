"""Exactly-once two-phase-commit Parquet lake sink.

The reference achieves durability by ordering: write Avro file → upload
→ THEN commit Kafka offsets (at-least-once, duplicates cleaned daily by
an EXCEPT dedup — reference datalake/main.py:157-186,
datalake_daily_sync.py:298-328). We instead make the sink exactly-once:

phase 1: each reducer writes its files once (tmp, fsync, rename), its
         lineage in each footer — a file is staged iff it exists;
phase 2: the driver fsyncs the epoch directory, writes the epoch
         ``_COMMIT.json`` naming every file (possibly inheriting
         untouched files from the previous epoch) and the sha256 of each
         file it wrote, then atomically flips the ``_LATEST`` pointer.
         Readers only ever see committed epochs.

Task retries are invisible: a retried reducer rewrites the same
deterministic content to the same path. Resume after a crash adopts
every staged file that covers whole reducer units
(``staged_manifests``) and skips its buckets.

Every lake writer — ``replay``, ``IncrementalIngestor.ingest`` and
``compact_lake`` — commits through ONE ``EpochTxn``, and this module
is the only caller of the protocol's primitives (``acquire_epoch_lock``,
``clear_staging``, ``publish_epoch``, ``release_epoch_lock``). The transaction owns:

- pinning the committed head under the epoch lock, re-pinning when a
  concurrent publisher committed the target epoch first;
- clearing the epoch's abandoned staging (unless the writer resumes);
- releasing the lock on every exit path;
- the phase-2 commit record: the partition map (written ∪ inherited ∪
  empty), ``rows_total``, the monotone ``max_lsn`` watermark and
  ``min_lsn``, the phase-1 ``plan`` (``local`` or ``exchange``), then
  ``publish_epoch``.

Phase 1 of every writer is one plan, ``replay.partition_apply`` (a
per-block kernel, group by reducer unit, a per-unit reducer that calls
``write_range``; in-process below ``ops._util.BLOCK_BYTES``, a Ray Data
exchange above it): ``replay`` and ``ingest`` run it once, or twice
when their exchange is the narrow one (winner decision, then payload
fetch + ``replay.commit_partition``), ``compact_lake`` once over the
committed files. The writer keeps what is specific to it: its kernel
and reducer, the bucket count and whether untouched files are
inherited (compaction re-shards and rewrites everything), extra commit
keys (the narrow exchange's ``strategy``, ingest's ``derived``),
ingest's re-shard guard and pre-publish ``derive`` hook, and whether
to publish at all (``replay(only_parts=...)`` leaves staging for
``resume``).

Layout. ``num_partitions`` P is the logical hash width: a key lives in
bucket ``hash64(doc_id) % P``. A file holds the full state of every key
whose bucket is in a contiguous range ``[lo, hi)``, doc_id-ascending,
and the commit lists files, not buckets: ``partitions`` maps ``str(lo)``
to ``{path, rows, max_lsn, hi}``, one entry per file or per run of
empty buckets (``path`` ""), the entries tiling ``[0, P)``. An entry
without ``hi`` covers ``[lo, lo + 1)``: lakes written before files
spanned buckets read unchanged. Files are sized by bytes
(``ops._util.file_bytes``, 1/64 of a read block): the local plan packs
adjacent touched ranges into one file up to that size, and a file past
twice it splits into contiguous bucket sub-ranges (``write_range``).
The exchange plan cuts a head file of many buckets into sub-ranges
sized by the epoch (``replay.Layout.cut``), each reducer reading the
shared file for its own buckets (``read_range``).
So a small lake is a few files whatever P is, its commit is O(files),
and ``BLOCK_BYTES = 0`` gives one file per bucket::

    lake_dir/
      _LATEST                      # text: committed epoch id
      epoch-000000/
        _COMMIT.json               # file ranges + sha256s + totals + schema
        part-00007.parquet         # buckets [7, hi); footer: lineage

Every durable Parquet file — partition files, changefeed shards,
converted Debezium shards — is encoded by ``_encode``, each leaf column
as ``encode_options`` decides from the data in one pass:

- an integer leaf whose value range ``max − min + 1`` exceeds 1/8 of
  its value count (``_wide_int``) carries no dictionary; every other
  leaf keeps pyarrow's. The lake's big columns are lsns (unique) and
  token ids (vocabulary codes, up to ~50k distinct values): in a
  partition of a few thousand rows the dictionary page nearly copies
  the values and pyarrow's 1 MiB fallback never trips, so it was
  about a third of every file and of its encode CPU. A partition whose
  token count is 8× the vocabulary keeps the token dictionary, where
  it pays; a narrow int (``n_tok``) and strings keep theirs, except a
  partition file's ``doc_id``: state holds each key once, so its
  dictionary page copied every key;
- such a wide leaf is bit-packed (DELTA_BINARY_PACKED, uncompressed)
  when its first 8 KiB of non-null values (2,048 token ids) pack
  smaller than zstd packs their plain bytes (``_packs``, from 256
  values up), and written plain + zstd otherwise. Uniform token ids
  (about 15.6 bits of information in 4 bytes) pack to 2.34 B an id,
  list levels included, against zstd's 2.58, and a partition's lsns
  pack too; zipf-skewed ids, what BPE output looks like, zstd better
  than a bit width per 32 ids, so they stay plain (packing them would
  grow the file about 10 %). On lakebench's lakes this writes about
  9 % fewer bytes on all three workloads, for no more encode CPU, the
  chooser included: Arrow's DBP encoder costs about what skipping zstd
  saves;
- every other leaf is zstd.

The process that writes a partition reads it back soon after: the next
commit merges onto it, the watcher's changefeed and the views' pair
stage read both sides of the commit, and a co-located reader scans it.
So ``write_partition`` keeps each table it wrote in a process-local
memo, and ``read_file`` serves it from there while the file on disk is
still the file that was written:

- the key is the absolute path; the stamp is ``(st_ino, st_size,
  st_mtime_ns, st_ctime_ns)``, one ``os.stat`` after the rename and one
  per read. A tmp+rename replacement has a new inode, an in-place
  rewrite a new ctime, and a collected file fails the ``stat``; each
  drops the entry and the read decodes from disk, as it does without
  the memo;
- it follows files, not bucket names: when this process publishes
  epoch e of a lake, it drops every kept file of that lake that
  neither commit e nor commit e−1 lists, so it holds at most the files
  of the lake's newest two commits: the next commit's state read and
  both sides of the pair stage's ``(e−1, e]`` span. At most
  ``ops._util.BLOCK_BYTES`` of decoded ``nbytes`` in all, dropped
  oldest first (the only bound in a process that writes files but
  publishes none, an exchange-plan worker); a larger table is not
  kept;
- only writes insert. Caching reads too would keep every change shard
  and every file of a read-only process (lakebench ``serve``'s
  ``peak_rss_mb`` grew about 9 % that way), and a process that only
  reads has nothing of its own to serve;
- the memo is hosted on ``sys`` (like ``ops._util.worker_cache``) and
  fetched at call time: ton_etl_ray modules are pickled by value, and a
  module global would ship every kept table with every Ray task that
  references this module. A lock guards it (the exporter runs an HTTP
  thread).
"""

from __future__ import annotations

import base64
import hashlib
import json
import os
import re
import sys
import threading
import time

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from ..ops import _util

COMMIT_NAME = "_COMMIT.json"
LATEST_NAME = "_LATEST"
# age after which a crashed writer's epoch lock is reclaimed and its
# orphan tmp files are collected
STALE_SEC = 3600.0
_TMP_RE = re.compile(r"\.tmp\.\d+\.\d+$")  # _tmp_name's suffix
# partition-file codec: zstd files are about a quarter smaller than
# snappy's for a few ms more CPU per 16 files
COMPRESSION = "zstd"
LINEAGE_KEY = b"lineage"  # the footer key of a partition file's lineage


def epoch_dir(lake_dir: str, epoch: int) -> str:
    return os.path.join(lake_dir, f"epoch-{epoch:06d}")


def part_file(p: int) -> str:
    """The file name of the range whose first bucket is ``p``."""
    return f"part-{p:05d}.parquet"


def entry_hi(lo: int | str, ent: dict) -> int:
    """The end of the bucket range of the commit entry at ``lo``."""
    return int(ent.get("hi", int(lo) + 1))


def ranges(commit: dict | None) -> list[tuple[int, int, dict]]:
    """``(lo, hi, entry)`` of every entry of ``commit`` (None: none), by
    ``lo``: one per file or empty run, O(files)."""
    if commit is None:
        return []
    return sorted((int(lo), entry_hi(lo, ent), ent) for lo, ent in commit["partitions"].items())


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
    return f"{path}.tmp.{os.getpid()}.{time.monotonic_ns()}"


def _replace_synced(path: str, data: bytes | pa.Buffer) -> None:
    """tmp → write → fsync → rename; durable once the directory is."""
    tmp = _tmp_name(path)
    with open(tmp, "wb") as f:
        f.write(data)
        f.flush()
        os.fsync(f.fileno())
    os.replace(tmp, path)


def atomic_write_bytes(path: str, data: bytes | pa.Buffer) -> None:
    _replace_synced(path, data)
    _fsync_dir(os.path.dirname(path))


def _leaves(path: str, values):
    """``(parquet column path, values)`` of every leaf under one column:
    list elements are ``<path>.list.element``, struct fields
    ``<path>.<field>``, map entries ``<path>.key_value.key|value``."""
    t = values.type
    if pa.types.is_list(t) or pa.types.is_large_list(t) or pa.types.is_fixed_size_list(t):
        yield from _leaves(f"{path}.list.element", pc.list_flatten(values))
    elif pa.types.is_map(t):
        chunks = values.chunks if isinstance(values, pa.ChunkedArray) else [values]
        yield from _leaves(f"{path}.key_value.key", pa.chunked_array([c.keys for c in chunks], t.key_type))
        yield from _leaves(f"{path}.key_value.value", pa.chunked_array([c.items for c in chunks], t.item_type))
    elif pa.types.is_struct(t):
        for i, f in enumerate(t):
            yield from _leaves(f"{path}.{f.name}", pc.struct_field(values, [i]))
    else:
        yield path, values


def _wide_int(values) -> bool:
    """An integer leaf whose range ``max − min + 1`` exceeds 1/8 of its
    non-null value count (Python ints: no overflow at the int64 ends)."""
    if not pa.types.is_integer(values.type):
        return False
    mm = pc.min_max(values)
    if not mm["min"].is_valid:
        return False  # empty or all null
    span = mm["max"].as_py() - mm["min"].as_py() + 1
    return span * 8 > len(values) - values.null_count


# the packing chooser's sample: a leaf's first 8 KiB of non-null values
# (2,048 int32 token ids, 1,024 int64 lsns). Packing a ~10k-row file
# saves only ~0.3 ms of its encode CPU and zstd's cost grows with the
# sample's bytes: at 8 KiB the encode, chooser included, stays below
# the plain + zstd encode's on kernelbench's upsert and backfill runs,
# at 16 KiB it was up to 2 % above on upsert. Over 64 generated
# partitions (300–10k rows; uniform, zipf s 0.6–1.3 and half-and-half
# token ids) the 8 KiB sample's decisions wrote 0.15 % more bytes than
# the best choice per leaf (16 KiB: 0.02 %, 4 KiB: 0.52 %)
_PACK_SAMPLE_BYTES = 8 << 10
# a leaf with fewer non-null values is never packed: packing 256
# uniform token ids or random lsns saves about 100 B a file, not worth
# the chooser's ~60 µs, and below ~32 values the page header and list
# levels outweigh what the sample compares (it misjudged 3 of 20
# leaves of 32 ids)
_PACK_FLOOR = 256
_BIT = np.array([1 << k for k in range(64)], np.uint64)  # bit length = count ≤ x
_VARINT = np.array([1 << (7 * k) for k in range(1, 10)], np.uint64)  # varint length − 1 = count ≤ x


def _uleb_bytes(x: int) -> int:
    """Bytes of the ULEB128 varint of ``x`` ≥ 0."""
    return max(1, -(-x.bit_length() // 7))


def _dbp_bytes(v: np.ndarray) -> int:
    """The exact DELTA_BINARY_PACKED size of the values ``v`` (int32 or
    int64, the leaf's physical type) as Arrow writes them: a header
    (block size, 4 miniblocks, the count, the first value), then per
    block of deltas (128 for int32, 256 for int64) its minimum delta and
    4 bit widths, each miniblock packed at the bit length of its
    largest ``delta − block minimum``. Deltas wrap in the physical
    width, as the encoder's do; the last block writes only the
    miniblocks it fills."""
    block = 32 * v.dtype.itemsize  # 128 deltas of int32, 256 of int64
    mini = block // 4
    n = len(v) - 1  # deltas
    first = int(v[0])
    head = 2 + 1 + _uleb_bytes(len(v)) + _uleb_bytes(2 * first if first >= 0 else -2 * first - 1)
    if not n:
        return head
    blocks = -(-n // block)
    d = np.empty(blocks * block, v.dtype)
    np.subtract(v[1:], v[:-1], out=d[:n])
    d[n:] = d[n - 1]  # pads the last block without moving a minimum or maximum
    d = d.reshape(blocks, 4, mini)
    lo = d.min(axis=(1, 2))
    # max − min of a miniblock's deltas is below 2^width, so its wrapped
    # difference read unsigned is exact
    span = (d.max(axis=2) - lo[:, None]).view(np.dtype(f"u{v.dtype.itemsize}"))
    width = np.searchsorted(_BIT, span.ravel()[:-(-n // mini)], "right")
    z = lo.astype(np.int64)
    z = ((z << 1) ^ (z >> 63)).view(np.uint64)  # ZigZag
    return (head + 5 * blocks + int(np.searchsorted(_VARINT, z, "right").sum())
            + mini // 8 * int(width.sum()))


def _packs(values) -> bool:
    """Whether an integer leaf is smaller bit-packed (DELTA_BINARY_PACKED,
    uncompressed) than plain + zstd: the exact DBP size of its first
    ``_PACK_SAMPLE_BYTES`` of non-null values, in its physical type,
    against zstd of the same values' plain bytes. Below ``_PACK_FLOOR``
    non-null values, never."""
    nulls = values.null_count
    if len(values) - nulls < _PACK_FLOOR:
        return False
    physical = np.int64 if values.type.bit_width == 64 else np.int32
    count = _PACK_SAMPLE_BYTES // np.dtype(physical).itemsize
    sample = values.slice(0, count + nulls)
    if nulls:
        sample = sample.drop_null().slice(0, count)
    v = sample.to_numpy().astype(physical, copy=False)
    return _dbp_bytes(v) < pa.compress(v, COMPRESSION).size


def encode_options(table: pa.Table, *, partition: bool = False) -> dict:
    """``pq.write_table``'s per-leaf arguments for ``table``, decided in
    one pass over its leaves (one ``pc.min_max`` per integer leaf, a
    sample of the wide ones):

    - ``use_dictionary``: True (pyarrow's default) unless some integer
      leaf has a wide range (``_wide_int``), else the leaf paths that
      keep the dictionary; a partition file (``partition``) also drops
      ``doc_id``'s: it holds each key once, so its dictionary page would
      copy every value;
    - ``column_encoding``: ``DELTA_BINARY_PACKED`` for each wide integer
      leaf that bit-packs smaller than plain + zstd (``_packs``), None
      when there is none;
    - ``compression``: zstd, except ``"none"`` for the packed leaves:
      bit-packing already is their compression."""
    paths, keep, packed = [], [], []
    for name, col in zip(table.column_names, table.columns):
        for path, values in _leaves(name, col):
            paths.append(path)
            if not _wide_int(values):
                keep.append(path)
            elif _packs(values):
                packed.append(path)
    if partition:
        keep = [p for p in keep if p != "doc_id"]
    return {"use_dictionary": True if len(keep) == len(paths) else keep,
            "column_encoding": dict.fromkeys(packed, "DELTA_BINARY_PACKED") or None,
            "compression": ({p: "none" if p in packed else COMPRESSION for p in paths}
                            if packed else COMPRESSION)}


def _encode(table: pa.Table, *, partition: bool = False) -> pa.Buffer:
    """``table`` as a Parquet file in memory, each leaf encoded by
    ``encode_options``."""
    out = pa.BufferOutputStream()
    pq.write_table(table, out, **encode_options(table, partition=partition))
    return out.getvalue()


def atomic_write_table(path: str, table: pa.Table) -> int:
    """Write a parquet file atomically; returns file size in bytes."""
    buf = _encode(table)
    atomic_write_bytes(path, buf)
    return buf.size


def _sha256_file(path: str) -> str:
    with open(path, "rb") as f:
        return hashlib.file_digest(f, "sha256").hexdigest()


def _with_lineage(table: pa.Table, lineage: dict) -> tuple[pa.Table, pa.Buffer]:
    """``table`` with ``lineage`` as JSON under ``LINEAGE_KEY`` in its
    schema metadata, and its encoding."""
    table = table.replace_schema_metadata({
        **(table.schema.metadata or {}),
        LINEAGE_KEY: json.dumps(lineage, separators=(",", ":"))})
    return table, _encode(table, partition=True)


def _write_encoded(lake_dir: str, epoch: int, fname: str, table: pa.Table,
                   buf: pa.Buffer, lineage: dict) -> dict:
    d = epoch_dir(lake_dir, epoch)
    os.makedirs(d, exist_ok=True)
    path = os.path.join(d, fname)
    _replace_synced(path, buf)
    _remember(path, os.path.abspath(lake_dir), table, pq.read_schema(pa.BufferReader(buf)))
    return {"file": fname, "rows": table.num_rows,
            "sha256": hashlib.sha256(buf).hexdigest(), **lineage}


def write_partition(
    lake_dir: str, epoch: int, fname: str, table: pa.Table, lineage: dict
) -> dict:
    """Phase-1 commit of one file: ``lineage`` as JSON under its
    footer's ``LINEAGE_KEY``, no directory fsync (``publish_epoch`` has
    one). Returns the manifest ``file``, ``rows``, ``sha256`` of the
    bytes written (the analogue of the reference's sha256 file naming,
    datalake/main.py:161-164; the commit records it for
    ``verify_lake``) and ``lineage``. ``table`` is kept in the
    written-partition memo (module docstring), stamped after the
    rename, so this process's next ``read_file`` of the file decodes
    nothing."""
    return _write_encoded(lake_dir, epoch, fname, *_with_lineage(table, lineage), lineage)


def write_range(lake_dir: str, epoch: int, num_partitions: int, lo: int, hi: int,
                table: pa.Table, lineage: dict, target: int) -> list[dict]:
    """Phase-1 commit of the state of buckets ``[lo, hi)``: one file,
    ``part_file(lo)``, unless its encoding exceeds ``2 × target`` bytes
    and the range holds more than one bucket. Then the rows split by
    bucket (``hash64(doc_id) % num_partitions``) into contiguous
    sub-ranges of about ``target`` bytes each, in doc_id order, one
    file each (an empty bucket joins the next piece, trailing ones the
    last, so no piece is empty); the first carries ``lineage``'s change
    counters, the rest 0, so counters still sum over a range's files.
    The manifests add ``part`` (= lo) and ``hi`` to ``lineage``."""
    whole = {**lineage, "part": lo, "hi": hi}
    t, buf = _with_lineage(table, whole)
    if buf.size <= 2 * target or hi - lo == 1:
        return [_write_encoded(lake_dir, epoch, part_file(lo), t, buf, whole)]
    from ..core.partition import assign_partitions

    rows_per_file = max(1, target * table.num_rows // buf.size)
    offset = assign_partitions(table["doc_id"], num_partitions) - lo
    counts = np.bincount(offset, minlength=hi - lo)
    piece = (np.cumsum(counts) - counts) // rows_per_file  # by the rows before each bucket
    starts = [0, *(np.flatnonzero(np.diff(piece)) + 1).tolist()]
    if len(starts) > 1 and not counts[starts[-1]:].any():
        starts.pop()  # trailing empty buckets join the last piece with rows
    order = np.argsort(piece[offset], kind="stable")  # doc_id order within a piece
    table = table.take(pa.array(order))
    ends, out, at = [*starts[1:], hi - lo], [], 0
    for a, b in zip(starts, ends):
        n = int(counts[a:b].sum())
        counters = {} if not out else {"rows_in": 0, "tombstones": 0}
        out.append(write_partition(lake_dir, epoch, part_file(lo + a), table.slice(at, n),
                                   {**lineage, **counters, "part": lo + a, "hi": lo + b}))
        at += n
    return out


def read_range(paths: list[str], num_partitions: int, lo: int, hi: int) -> pa.Table | None:
    """The committed state of buckets ``[lo, hi)`` in ``paths`` (None:
    no path), one permissive concat (``read_file`` per file). A file
    whose range (its footer lineage) reaches past ``[lo, hi)`` — a
    head file the exchange plan cut into sub-units — gives only its
    rows in the range."""
    if not paths:
        return None
    from ..core.partition import assign_partitions

    parts = []
    for f in paths:
        t = read_file(f)
        lineage = json.loads((t.schema.metadata or {}).get(LINEAGE_KEY, b"{}"))
        if "part" in lineage and (lineage["part"] < lo or entry_hi(lineage["part"], lineage) > hi):
            b = assign_partitions(t["doc_id"], num_partitions)
            t = t.filter(pa.array((b >= lo) & (b < hi)))
        parts.append(t)
    return pa.concat_tables(parts, promote_options="permissive")


def staged_manifests(lake_dir: str, epoch: int) -> dict[str, dict]:
    """The manifest of every partition file staged in a (possibly
    uncommitted) epoch by file name: ``rows`` and the lineage from its
    footer (``part`` and ``hi``, the range; ``hi`` is ``part + 1`` in a
    file from before ranges), ``sha256`` from a read of the file. Tmp
    files are skipped."""
    d = epoch_dir(lake_dir, epoch)
    out: dict[str, dict] = {}
    for name in os.listdir(d) if os.path.isdir(d) else []:
        if name.startswith("part-") and name.endswith(".parquet"):
            path = os.path.join(d, name)
            md = pq.read_metadata(path)
            lineage = json.loads(md.metadata[LINEAGE_KEY])
            out[name] = {"file": name, "rows": md.num_rows, "sha256": _sha256_file(path),
                         **lineage, "hi": entry_hi(lineage["part"], lineage)}
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
    """Phase-2 commit: an epoch directory fsync (the staged renames),
    the epoch manifest, then the ``_LATEST`` pointer flip."""
    d = epoch_dir(lake_dir, epoch)
    _fsync_dir(d)
    commit = {
        "epoch": epoch,
        "partitions": partitions,  # str(lo) -> {"path": rel-to-lake_dir, "rows", "max_lsn", "hi"}
        "schema_b64": base64.b64encode(schema.serialize().to_pybytes()).decode(),
        **meta,
    }
    atomic_write_bytes(os.path.join(d, COMMIT_NAME), json.dumps(commit, sort_keys=True).encode())
    atomic_write_bytes(os.path.join(lake_dir, LATEST_NAME), str(epoch).encode())
    _sweep_stale_tmp(lake_dir)
    _sweep_stale_tmp(d)
    return commit


def _sweep_stale_tmp(d: str) -> None:
    """Unlink ``*.tmp.<pid>.<ns>`` files older than ``STALE_SEC`` in
    ``d``: a writer that crashed between its tmp write and the rename
    leaves them behind. Writer side only (``publish_epoch``, under the
    epoch lock); read paths never delete. A live writer's tmp is far
    younger than the lock's stale age."""
    now = time.time()
    for name in os.listdir(d):
        if not _TMP_RE.search(name):
            continue
        p = os.path.join(d, name)
        try:
            if now - os.path.getmtime(p) > STALE_SEC:
                os.remove(p)
        except FileNotFoundError:
            pass  # a racing sweeper got it first


def commit_at(lake_dir: str, epoch: int | None = None) -> dict:
    """Commit ``epoch``, the committed head if None; a lake without a
    commit raises ``FileNotFoundError``."""
    e = latest_epoch(lake_dir) if epoch is None else epoch
    if e is None:
        raise FileNotFoundError(f"no committed epoch in {lake_dir}")
    return read_commit(lake_dir, e)


def commit_schema(commit: dict) -> pa.Schema:
    """The state schema a commit records."""
    return pa.ipc.read_schema(pa.py_buffer(base64.b64decode(commit["schema_b64"])))


def state_paths(lake_dir: str, commit: dict | None) -> dict[int, str]:
    """First bucket (``lo``) -> absolute path of every file with a row in
    ``commit`` (None: a lake without a commit, no files), O(files). A
    writer passes the head ``EpochTxn`` pinned, so an epoch parses its
    head's ``_COMMIT.json`` once."""
    if commit is None:
        return {}
    return {int(pid): os.path.join(lake_dir, ent["path"])
            for pid, ent in commit["partitions"].items() if ent["rows"] > 0}


def lake_schema(lake_dir: str, epoch: int | None = None) -> pa.Schema:
    return commit_schema(commit_at(lake_dir, epoch))


def _memo() -> dict:
    """The written-partition memo, hosted on ``sys`` (module docstring):
    ``files`` maps an absolute path to ``(stamp, table, lake, nbytes)``
    in insertion order (``lake`` the absolute lake dir), and ``bytes``
    is the kept tables' ``nbytes``."""
    m = getattr(sys, "_tonray_written", None)
    if m is None:
        m = vars(sys).setdefault("_tonray_written", {
            "lock": threading.Lock(), "files": {}, "bytes": 0})
    return m


def _stamp(path: str) -> tuple:
    st = os.stat(path)
    return st.st_ino, st.st_size, st.st_mtime_ns, st.st_ctime_ns


def _forget(m: dict, path: str) -> None:
    """Drop ``path``'s entry (lock held)."""
    ent = m["files"].pop(path, None)
    if ent is not None:
        m["bytes"] -= ent[3]


def _remember(path: str, lake: str, table: pa.Table, schema: pa.Schema) -> None:
    """Keep a just-written ``table`` (``write_partition``), evicting the
    oldest files past ``BLOCK_BYTES`` (read per call: tests set it to
    force a plan). The kept table takes the file's footer ``schema``, as
    a decode would give it (list children are named ``element`` on
    disk, ``item`` in pyarrow)."""
    cap = _util.BLOCK_BYTES
    path = os.path.abspath(path)
    stamp = _stamp(path)
    if not table.schema.equals(schema, check_metadata=True):
        try:
            table = table.cast(schema)
        except pa.ArrowException:
            return
    nbytes = table.nbytes
    m = _memo()
    with m["lock"]:
        _forget(m, path)  # a rewrite of the same path
        if nbytes > cap:
            return
        m["files"][path] = (stamp, table, lake, nbytes)
        m["bytes"] += nbytes
        while m["bytes"] > cap:
            _forget(m, next(iter(m["files"])))


def _retain(lake_dir: str, *commits: dict | None) -> None:
    """Drop every kept file of ``lake_dir`` that none of ``commits``
    lists (``EpochTxn.publish``: the new commit and its predecessor)."""
    m = _memo()
    lake = os.path.abspath(lake_dir)
    keep = {os.path.join(lake, ent["path"]) for c in commits if c is not None
            for ent in c["partitions"].values() if ent["path"]}
    with m["lock"]:
        for path in [p for p, ent in m["files"].items() if ent[2] == lake and p not in keep]:
            _forget(m, path)


def _recall(path: str) -> pa.Table | None:
    """The memo's table for ``path`` if the file on disk is still the
    one written; a stale entry (replaced, rewritten or removed file) is
    dropped."""
    m = _memo()
    if not m["files"]:
        return None
    path = os.path.abspath(path)
    ent = m["files"].get(path)
    if ent is None:
        return None
    try:
        fresh = _stamp(path) == ent[0]
    except OSError:
        fresh = False
    if fresh:
        return ent[1]
    with m["lock"]:
        if m["files"].get(path) is ent:
            _forget(m, path)
    return None


def _check_columns(path: str, columns: list[str], names: list[str]) -> None:
    """Raise ``KeyError`` naming each requested column whose top-level
    name is not in ``names`` (a dotted path names a field of its first
    segment's struct)."""
    have = set(names)
    absent = [c for c in columns if c not in have and c.split(".", 1)[0] not in have]
    if absent:
        raise KeyError(f"{path}: no column {', '.join(absent)}")


def read_file(path: str, columns: list[str] | None = None) -> pa.Table:
    """One Parquet file (``columns`` only, in that order, if given) —
    the in-process reader of every lake partition file and change
    shard. A requested name whose top-level column the file lacks
    raises ``KeyError`` (pyarrow's read would drop it silently). A file
    this process wrote with ``write_partition`` is served from the
    written-partition memo while its stamp still matches (module
    docstring); ``table.select`` is zero-copy, and a nested path goes
    to the disk read, so results are the disk read's. A single-file
    ``ParquetFile`` read skips the dataset scanner ``pq.read_table``
    sets up per call, which costs more than decoding a small partition
    file; the handle is closed on return."""
    kept = _recall(path)
    if kept is not None:
        if columns is None:
            return kept
        _check_columns(path, columns, kept.column_names)
        names = list(dict.fromkeys(columns))  # the disk read drops repeats
        if set(names) <= set(kept.column_names):
            return kept.select(names)
    with pq.ParquetFile(path) as pf:
        if columns is not None:
            _check_columns(path, columns, pf.schema_arrow.names)
        return pf.read(columns=columns)


#: the envelope-only change column: no writer persists it
ENVELOPE = "ts_ms"


def dictionary_reads(footer: pq.FileMetaData) -> list[str]:
    """The top-level string columns of a file that read cheaper as Arrow
    dictionaries: in every row group the column chunk has a dictionary
    page (the bytes from its offset to the first data page) under 1/8
    of the chunk's compressed bytes. A dictionary read decodes each
    distinct value once, and only the rows a caller keeps are decoded
    to plain strings later. Measured on a 37,500-row string column
    (pyarrow's default writer, snappy), read, then 18 %, 50 % or all of
    its rows gathered and cast to ``string``: the dictionary read cost
    0.45–0.92× the plain read while its page was under ~22 % of the
    chunk (2 to 3,000 distinct values) and 1.06–2× from ~32 % on (6,000
    and more); 1/8 keeps a margin below the crossover. The change logs'
    ``op``, ``source`` and ``lang`` pages are under 1 %, a zipf
    ``doc_id``'s about 40 %. A chunk whose data pages are tiny (a few
    thousand rows of one value) can miss the rule; it decodes cheaply
    either way."""
    leaf = {footer.schema.column(i).path: i for i in range(footer.num_columns)}
    out = []
    for field in footer.schema.to_arrow_schema():
        if not (pa.types.is_string(field.type) or pa.types.is_large_string(field.type)):
            continue
        chunks = [footer.row_group(g).column(leaf[field.name]) for g in range(footer.num_row_groups)]
        if chunks and all(c.has_dictionary_page and 8 * (c.data_page_offset - c.dictionary_page_offset)
                          < c.total_compressed_size for c in chunks):
            out.append(field.name)
    return out


def read_changes(path: str, footer: pq.FileMetaData, columns: list[str] | None = None) -> pa.Table:
    """A change file as the local plan decodes it, from its footer
    parsed once per epoch (``replay._footers``): ``columns`` (default:
    all but the envelope-only ``ts_ms``), the ``dictionary_reads``
    among them as Arrow dictionaries. A requested column the file lacks
    raises ``KeyError``."""
    names = footer.schema.to_arrow_schema().names
    if columns is None:
        columns = [c for c in names if c != ENVELOPE]
    else:
        _check_columns(path, columns, names)
    dicts = [c for c in dictionary_reads(footer) if c in columns]
    with pq.ParquetFile(path, metadata=footer, read_dictionary=dicts) as pf:
        return pf.read(columns=columns)


def lake_files(lake_dir: str, epoch: int | None = None) -> list[str]:
    """Absolute paths of the committed lake's partition files."""
    return list(state_paths(lake_dir, commit_at(lake_dir, epoch)).values())


class EpochLockError(RuntimeError):
    pass


def acquire_epoch_lock(lake_dir: str, epoch: int, *, stale_sec: float = STALE_SEC) -> str:
    """Single-writer guard for an epoch (O_EXCL lock file).

    Two concurrent replays of the same epoch would race on staging
    files; the lock makes the second fail fast. A crashed writer's lock
    goes stale after ``stale_sec`` and is reclaimed (resume path)."""
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
            age = time.time() - os.path.getmtime(lock)
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
            os.write(fd, f"{os.getpid()} {time.time()}".encode())
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
                if time.time() - os.path.getmtime(rl) > 60:
                    os.remove(rl)  # leaked by a crashed reclaimer
            except FileNotFoundError:
                pass
            time.sleep(0.01)
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
    writer's lock and staged part files (the single-writer guard
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


class EpochTxn:
    """The epoch-commit transaction shared by every lake writer::

        with EpochTxn(lake_dir, resume=resume) as txn:
            ...phase 1: write partitions into epoch_dir(lake_dir, txn.epoch)
            txn.publish(written, schema, num_partitions=P, inputs=[...])

    Entering pins ``prev_epoch``/``prev_commit`` (the committed head)
    and ``epoch`` (the target) under the target's lock; leaving always
    releases the lock. ``require_base`` refuses a lake with no committed
    epoch before any lock or directory is created (compaction).
    ``build``/``publish`` also set ``partitions_written`` and
    ``partitions_inherited``."""

    def __init__(self, lake_dir: str, *, resume: bool = False, require_base: bool = False):
        self.lake_dir = lake_dir
        self.resume = resume
        self.require_base = require_base
        self.prev_epoch: int | None = None
        self.prev_commit: dict | None = None
        self.epoch = -1
        self.partitions_written = self.partitions_inherited = 0

    def __enter__(self) -> "EpochTxn":
        # pin the head UNDER the epoch lock: a concurrent publisher
        # (watcher micro-batch, compaction, another replay) can commit
        # our target epoch between latest_epoch() and the lock, and
        # clear_staging on a COMMITTED epoch would delete live data.
        # Re-pin until the locked epoch is still uncommitted.
        while True:
            prev = latest_epoch(self.lake_dir)
            if prev is None and self.require_base:
                raise ValueError(f"no committed epoch in {self.lake_dir}")
            epoch = 0 if prev is None else prev + 1
            lock = acquire_epoch_lock(self.lake_dir, epoch)
            if not is_committed(self.lake_dir, epoch):
                break
            release_epoch_lock(lock)  # raced a publisher; re-pin
        self._lock = lock
        self.prev_epoch, self.epoch = prev, epoch
        try:
            if prev is not None:
                self.prev_commit = read_commit(self.lake_dir, prev)
            if not self.resume:
                clear_staging(self.lake_dir, epoch)
        except BaseException:
            release_epoch_lock(lock)
            raise
        return self

    def __exit__(self, *exc) -> None:
        # always release: a stranded _LOCK would lock out other processes
        # for stale_sec (pid-liveness reclaim only works on the same host)
        release_epoch_lock(self._lock)

    def build(self, written: dict[int, dict], *, num_partitions: int, plan: str,
              inherit: bool = True, **meta) -> dict:
        """The commit record without publishing it, O(files): ``written``
        maps the first bucket of each written file to its manifest
        (``file``, ``rows``, ``sha256``, ``max_lsn``, ``hi`` — default
        ``part + 1`` — optional ``min_lsn``). A previous file whose range
        no written file overlaps is inherited (``inherit``); one they
        overlap must be covered whole (a reducer unit is a whole file).
        The buckets left between the files become one empty entry per
        run. The ``sha256`` map holds the written files' hashes only.
        ``plan`` records how phase 1 ran: ``"local"`` (in-process) or
        ``"exchange"`` (Ray Data). ``meta`` adds the writer's own keys."""
        own = os.path.basename(epoch_dir(self.lake_dir, self.epoch))
        new = sorted((int(m["part"]), entry_hi(m["part"], m), m) for m in written.values())
        los = np.array([lo for lo, _, _ in new], np.int64)
        his = np.array([hi for _, hi, _ in new], np.int64)
        spans = [(lo, hi, {"path": os.path.join(own, str(m["file"])),
                           "rows": int(m["rows"]), "max_lsn": int(m["max_lsn"])})
                 for lo, hi, m in new]
        self.partitions_written, self.partitions_inherited = len(spans), 0
        for lo, hi, ent in ranges(self.prev_commit) if inherit else []:
            if not ent["path"]:
                continue
            # the written files that overlap [lo, hi): they must cover it
            i, j = np.searchsorted(his, lo, "right"), np.searchsorted(los, hi, "left")
            if i == j:
                spans.append((lo, hi, ent))
                self.partitions_inherited += 1
            elif (np.minimum(his[i:j], hi) - np.maximum(los[i:j], lo)).sum() != hi - lo:
                raise ValueError(f"epoch {self.epoch}: the written files cover part of "
                                 f"{ent['path']} (buckets [{lo}, {hi}))")
        # the watermark never moves backwards: a redelivered stale shard
        # rewrites partitions with OLD lsns, and consumers mint fresh
        # lsns at max_lsn+1 (changefeed tombstones, metadata refresh)
        max_lsn = int(self.prev_commit["max_lsn"]) if self.prev_commit else -1
        partitions: dict[str, dict] = {}
        at = 0
        for lo, hi, ent in sorted(spans, key=lambda x: x[0]) + [(num_partitions, None, None)]:
            if lo > at:  # an empty run
                partitions[str(at)] = {"path": "", "rows": 0, "max_lsn": -1,
                                       **({"hi": lo} if lo > at + 1 else {})}
            if ent is not None:
                partitions[str(lo)] = {**ent, **({"hi": hi} if hi > lo + 1 else {})}
                max_lsn = max(max_lsn, int(ent["max_lsn"]))
                at = hi
        # min over the epoch's OWN incoming events (inherited partitions,
        # a split's later pieces and carried sub-ranges of a cut file
        # bring none: rows_in 0); -1 = unknown (compaction, which stores
        # old lsns). The ordered-epoch proof: min_lsn > prev max_lsn
        # (checked by emit_changefeed; tests/conftest.lsn_ordered_span).
        min_lsns = [int(m.get("min_lsn", -1)) for m in written.values() if m.get("rows_in", 1)]
        return {
            "num_partitions": num_partitions,
            "partitions": partitions,
            "rows_total": sum(ent["rows"] for ent in partitions.values()),
            "max_lsn": max_lsn,
            "min_lsn": -1 if not min_lsns or min(min_lsns) < 0 else min(min_lsns),
            "plan": plan,
            "sha256": {str(m["file"]): m["sha256"] for m in written.values()},
            **meta,
        }

    def publish(self, written: dict[int, dict], schema: pa.Schema, **kw) -> dict:
        """Phase 2: build the commit record and publish it; the memo then
        keeps only files of this commit and its predecessor. Returns the
        published commit."""
        meta = self.build(written, **kw)
        partitions = meta.pop("partitions")
        commit = publish_epoch(self.lake_dir, self.epoch, partitions, meta, schema)
        _retain(self.lake_dir, commit, self.prev_commit)
        return commit


def verify_lake(lake_dir: str, epoch: int | None = None) -> dict:
    """Lineage verification: every committed partition file exists and
    hashes to the sha256 its epoch directory's commit recorded (a file
    from before commits held hashes is checked, not hashed). Returns
    counters; raises on corruption or a lake without a commit."""
    commit = commit_at(lake_dir, epoch)
    hashes: dict[str, dict] = {}  # epoch dir -> its commit's hashes
    checked = hashed = 0
    for pid, ent in commit["partitions"].items():
        if not ent["path"]:
            continue
        path = os.path.join(lake_dir, ent["path"])
        if not os.path.exists(path):
            raise FileNotFoundError(f"partition {pid}: missing {ent['path']}")
        owner, fname = os.path.split(ent["path"])
        if owner not in hashes:
            hashes[owner] = read_commit(lake_dir, int(owner.split("-")[1])).get("sha256", {})
        if fname in hashes[owner]:
            if _sha256_file(path) != hashes[owner][fname]:
                raise ValueError(f"partition {pid}: content hash mismatch for {ent['path']}")
            hashed += 1
        checked += 1
    return {"epoch": commit["epoch"], "partitions_checked": checked, "hashes_verified": hashed}


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
            deleted += 1
    return {"deleted_files": deleted, "kept_epochs": len(keep)}


def state_path_map(lake_dir: str, epoch: int | None) -> dict[int, str]:
    """part-id -> absolute state file path for the given committed epoch."""
    return state_paths(lake_dir, None if epoch is None else read_commit(lake_dir, epoch))
