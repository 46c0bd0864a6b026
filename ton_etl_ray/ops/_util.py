"""Shared helpers for the operator library."""

from __future__ import annotations

import os

import pyarrow as pa

import ray.data as rd


def _t(sf_dir: str, name: str) -> str:
    return os.path.join(sf_dir, f"{name}.parquet")


def read_table(sf_dir: str, name: str, *, columns: list[str] | None = None, **kw) -> "rd.Dataset":
    """read_parquet of one testdata table with schema metadata stripped.

    Parquet files written via pandas carry a b'pandas' schema-metadata
    dict that makes pa.Schema unhashable — every block concat (inside the
    read's SplitBlocks and every downstream groupby/aggregate) then logs
    "Failed to hash the schemas (for deduplication)" per worker, masking
    real warnings. Passing an explicit metadata-free schema to the read
    fixes it at the source with no extra pipeline stage."""
    import pyarrow.parquet as pq

    path = _t(sf_dir, name)
    full = pq.read_schema(path).remove_metadata()
    schema = pa.schema([full.field(c) for c in columns]) if columns else full
    if "override_num_blocks" not in kw:
        # block layout follows DATA SIZE, not the reading process's cpu
        # count: Ray's default parallelism (2×cpus) slices a tiny table
        # into dozens of KB-scale blocks, and every downstream
        # groupby/sort then pays a per-block barrier cost that dwarfs the
        # compute (measured 0.89 s vs 0.14 s per sort at 64 vs 16 input
        # blocks on an 80k-row shuffle). Only genuinely tiny files are
        # clamped — compute-dense tables keep Ray's full parallelism
        # (clamping a 10 MB lineitem to 8 blocks regressed the 3-shuffle
        # order_lifecycle by ~30%).
        sz = os.path.getsize(path)
        if sz < 1 << 20:
            kw["override_num_blocks"] = 8
    return rd.read_parquet(path, columns=columns, schema=schema, **kw)


def pool(min_actors: int = 1, cap: int = 64) -> tuple[int, int]:
    """Session-sized autoscaling actor-pool bounds: ``(min, ~CPUs)``.

    Stateful stages need an actor pool, but a FIXED bound is wrong on
    both ends: pools pinned at session CPUs deadlock small sessions
    (actors pin every CPU and the upstream read starves — observed on a
    4-cpu pytest session), while a small hard cap like ``(1, 4)``
    throttles big sessions BADLY once Ray fuses an expensive upstream
    task stage into the pool (a 32-cpu run of the swap parse spent its
    ~90 s of per-row BOC decode on 4 actors). Autoscaling ``(1, CPUs)``
    serves both: the pool starts at one actor, scales with backlog, and
    Ray's resource manager keeps it from starving co-running stages.
    ``cap`` bounds per-actor state replication (e.g. broadcast dims) on
    very large clusters."""
    return (min_actors, max(4, min(cap, session_cpus())))


def session_cpus() -> int:
    """CPUs of the running Ray session, 8 without one."""
    try:
        import ray

        if ray.is_initialized():
            return int(ray.cluster_resources().get("CPU", 8))
    except Exception:
        pass
    return 8


#: on-disk bytes per read block (``read_blocks``' target)
_READ_BLOCK = 64 << 20

#: the size rule of the lake writers and views: a stage that processes
#: less than one read block runs in-process (see ``local_plan``); Ray
#: Data runs only above it
BLOCK_BYTES = _READ_BLOCK


def local_plan(total_bytes: int) -> bool:
    """True when the ``total_bytes`` a stage processes (its input plus
    any committed state it rewrites) fit in one read block: the stage
    then runs its per-block kernel in-process. At that size a Ray Data
    plan is mostly exchange, scheduling and IO, not work.
    ``BLOCK_BYTES = 0`` forces the Ray plan. Callers count on-disk
    (encoded) bytes, so the sink's encoding moves the line: with no
    dictionary pages on wide integer columns, bit-packed where that pays
    (``sink.encode_options``), about 1.3× more committed state fits the
    local plan than under pyarrow's default (``tools/kernelbench.py``:
    1.33× on the upsert shape, 1.28× on backfill; packing alone 1.10×)."""
    return total_bytes < BLOCK_BYTES


def file_bytes() -> int:
    """The on-disk size the lake writers pack a file to (``cdc.sink``'s
    layout): 1/64 of ``BLOCK_BYTES``, read per call, so 1 MiB by
    default and 0 — one file per hash bucket — under ``BLOCK_BYTES = 0``.
    A file write (encode, sha256, fsynced rename) costs about 1.4 ms
    fixed plus 0.7 µs per row at about 47 B per row on disk
    (``tools/kernelbench.py``'s ``files`` sweep, 4-CPU host), so at
    1 MiB (~22k rows) the fixed part is about 8 % of a file's write,
    while a commit that touches a file still rewrites at most ~2 MiB."""
    return BLOCK_BYTES >> 6


def read_blocks(total_bytes: int) -> int:
    """Block count for a stage over ``total_bytes`` of input: ~2 blocks
    per core, floored by the ``_READ_BLOCK`` on-disk target so blocks
    stay bounded at scale. Ray's default minimum parallelism (~200
    blocks) makes a shuffle quadratic in tiny objects (B_map × B_reduce)
    and gives every tiny stage a per-task fixed cost (measured: 4.7x
    faster replay at sf0.1/32 cpus)."""
    return max(2 * session_cpus(), total_bytes // _READ_BLOCK, 1)


def worker_cache() -> dict:
    """Per-worker-process memo for broadcast build-side state.

    Hosted on ``sys`` (always pickled by reference) rather than a
    module global: ton_etl_ray modules ship to workers pickled BY VALUE
    (``_pickle.ensure_portable``), so a module global deserializes
    fresh with every task and never caches — measured: a module-global
    flag rebuilt on 10/10 tasks of one worker while a sys-hosted one
    built once. Callers must bound their own entries (see
    ``relational._bcast_index``'s 8-entry eviction) so long sessions
    running many queries don't accumulate dim copies in worker heaps."""
    import sys as _s

    c = getattr(_s, "_tonray_bcast_idx", None)
    if c is None:
        c = {}
        _s._tonray_bcast_idx = c
    return c


def md5_tag(tag: str, n) -> str:
    """32-hex synthetic id (tx/trace hashes): md5 of 'tag-n' — the one
    definition behind every parser family's synthetic hash columns, so
    the DuckDB oracles' ``md5('tag-' || k)`` never diverges per family."""
    import hashlib

    return hashlib.md5(f"{tag}-{n}".encode()).hexdigest()


def hex2(tag: str, n: int) -> str:
    """64-hex-char synthetic account hash: md5 of 'tag-n' repeated —
    chosen so DuckDB recomputes it as ``upper(md5(x) || md5(x))``
    (shared by every synthetic parser table; one definition, four
    parser families)."""
    import hashlib

    h = hashlib.md5(f"{tag}-{n}".encode()).hexdigest()
    return h + h


def addr_str(tag: str, n: int) -> str:
    return f"0:{hex2(tag, n).upper()}"


def addr_bytes(tag: str, n: int) -> bytes:
    return bytes.fromhex(hex2(tag, n))


def cached_synth_table(sf_dir: str, cache_tag: str, source_table: str, build):
    """Shared build-once cache for deterministic synthetic parser
    tables: content-fingerprinted on the SOURCE testdata parquet,
    single-builder lock, atomic swap-in — so parser queries time the
    PARSER, not the synthetic body encoding. ``build(sf_dir)`` returns
    the Dataset to persist. Returns the cache directory."""
    import os
    import shutil

    from ..pipelines import _build_lock, _cache_valid, _fingerprint, _swap_in, _tag

    base = f"/tmp/tonray_{cache_tag}_{_tag(sf_dir)}"
    marker = os.path.join(base, "_DONE")
    if not _cache_valid(marker, sf_dir, table=source_table):
        with _build_lock(base):
            if not _cache_valid(marker, sf_dir, table=source_table):
                bdir = f"{base}.build.{os.getpid()}"
                shutil.rmtree(bdir, ignore_errors=True)
                build(sf_dir).write_parquet(bdir)
                with open(os.path.join(bdir, "_DONE"), "w") as f:
                    f.write(_fingerprint(sf_dir, table=source_table))
                _swap_in(bdir, base)
    return base


def read_synth_dir(base: str, empty_schema: "pa.Schema") -> "rd.Dataset":
    """Read a ``cached_synth_table`` directory back as a Dataset with
    metadata-free schema (typed empty Dataset when no files exist)."""
    import glob as _glob

    import pyarrow.parquet as _pq

    files = sorted(_glob.glob(f"{base}/*.parquet"))
    if not files:
        return rd.from_arrow(empty_schema.empty_table())
    schema = _pq.read_schema(files[0]).remove_metadata()
    return rd.read_parquet(files, schema=schema)


def fmt_addr(a) -> "str | None":
    """Raw-form address string from a decoded MsgAddress tuple —
    None-safe (``addr_none`` is a legal TL-B form and decodes to None).
    The one definition behind every parser family's address output."""
    return f"{a[0]}:{a[1].hex().upper()}" if a is not None else None
