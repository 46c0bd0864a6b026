"""Ray-free micro-bench of the engine's per-batch kernels.

Times, in-process and without Ray, the kernels one commit runs, on two
seeded lake shapes of 16 hash buckets:

- ``upsert``: a 100k-event zipf-key base log over 10k keys is the
  committed state, in the files the engine writes for it; one 5k-event
  uniform-key epoch is merged onto it and rewrites the files it touches
  (lakebench's ``upsert`` round);
- ``backfill``: a 300k-event zipf-key log over 30k keys into a fresh
  lake (lakebench's ``backfill`` round).

Each epoch's shards are written as change files (pyarrow's default
encoding, as lakebench writes them). The touched buckets pack into runs
as the engine's local plan packs them (``replay.Layout.runs``, up to
``ops._util.file_bytes``; untimed). Stages, in the local plan's order:
``read_log`` (the change files decoded as the local plan reads them:
footers parsed once, then ``sink.read_changes``, without ``ts_ms`` and
with low-cardinality strings as dictionaries; CPU per shard),
``combine`` (the engine's map side, ``replay.Normalize``: the
hash-grouping LWW combiner per decoded shard), ``conform`` (its
survivors to the unified schema, half of a base log's shards evolved),
``assign`` (``assign_partitions`` of the conformed survivors),
``combine_epoch`` (the keys-only combine across the epoch's shards,
``merge.winners``; the engine skips it on a one-file epoch, whose
shard combine already left one row per key), ``compact`` (the sorting
LWW kernel, tombstones kept, over the whole conformed epoch: kept for
comparison), ``merge_state`` (one per run, onto the state files it
replaces), ``encode`` (every run to Parquet in memory, CPU and bytes,
three ways: ``policy``, the sink's per-leaf policy for lake files,
``sink.encode_options(partition=True)``, its packing chooser included;
``plain``, the same dictionary choice with no leaf bit-packed and every
leaf zstd, the policy before it packed wide integer leaves; ``default``,
pyarrow's dictionary-everything default with zstd),
``write`` (every run through ``sink.write_range`` into a scratch lake:
encode, hash, one fsynced file per run unless it splits past twice the
file size, the memo insert), ``read`` (``sink.read_file`` of every run's
file, for each encoding: a disk decode) and ``read_hit``
(``sink.read_file`` of the same files written by
``sink.write_partition``: served from the written-partition memo), and
the two plans a maintained view refreshes by
(``ops.tokens._refresh_plan``): ``view_delta`` (``delta.zip_changed``
of every run against the concatenated state it replaced — one zip per
component, as the pair stage runs it — then the signed budget partials
of the changed rows) and ``view_full`` (the budget partial over every
file after the epoch). Times are CPU milliseconds of this process per
stage and rep; the report gives the median and quartiles over
``--reps``. The epoch's ``combine_epoch`` winners, reduced by
``compact``, must give the whole epoch's ``compact`` winners. The
decoded and the served files are checked equal to the written ones,
and both view plans to the same budget.

The ``files`` sweep writes the backfill state as files of N rows
through ``sink.write_partition`` (encode, sha256, fsynced write) for N
the state's rows over 1, 2, 4, …, 128, and fits CPU = fixed per file +
per row: the fixed share of one file's write at ``file_bytes`` is what
that size is chosen by.

``--large N [N ...]`` also encodes single partitions of N rows, with
uniform and with zipf token ids, under the three encodings.

    python tools/kernelbench.py [--reps 15] [--scale 1.0] [--seed 7] [--large 80000 200000]

The last line printed is one JSON object with every figure.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import sys
import tempfile
import time
from unittest import mock

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, REPO)

from ton_etl_ray.cdc import delta, sink  # noqa: E402
from ton_etl_ray.core import merge as M  # noqa: E402
from ton_etl_ray.core import partition as P  # noqa: E402
from ton_etl_ray.cdc import replay as R  # noqa: E402
from ton_etl_ray.cdc.replay import Layout  # noqa: E402
from ton_etl_ray.core.schema_evolution import conform  # noqa: E402
from ton_etl_ray.ops._util import file_bytes  # noqa: E402
from ton_etl_ray.ops.tokens import _DELTA_SCHEMA, _budget_partials, _finish_budget, _fold  # noqa: E402

VOCAB = 50257
MAX_TOK = 32
NUM_PARTITIONS = 16
SOURCES = np.array(["web", "code", "books", "wiki", "news", "forum", "social", "docs"], dtype=object)
LANGS = np.array(["en", "de", "fr", "es", "zh"], dtype=object)


def zipf_draw(rng: np.random.Generator, n: int, size: int, s: float = 1.1) -> np.ndarray:
    """``size`` draws from a zipf(s) law over ``0..n-1`` whose ranks are
    a seeded permutation, so the hottest values are not the smallest."""
    cdf = np.cumsum(1.0 / np.arange(1, n + 1, dtype=np.float64) ** s)
    perm = np.random.default_rng(n).permutation(n)
    return perm[np.minimum(np.searchsorted(cdf / cdf[-1], rng.random(size)), n - 1)]


def tokens_array(rng: np.random.Generator, lengths: np.ndarray, dist: str,
                 mask: np.ndarray | None = None) -> pa.Array:
    offsets = np.zeros(len(lengths) + 1, dtype=np.int32)
    np.cumsum(lengths, out=offsets[1:])
    total = int(offsets[-1])
    values = (zipf_draw(rng, VOCAB, total) if dist == "zipf"
              else rng.integers(0, VOCAB, size=total)).astype(np.int32)
    return pa.ListArray.from_arrays(pa.array(offsets), pa.array(values),
                                    mask=None if mask is None else pa.array(mask))


def change_shard(rng: np.random.Generator, num_keys: int, n: int, lsn0: int,
                 key_dist: str, evolved: bool) -> pa.Table:
    """One change shard shaped like lakebench's: ~50/40/10 c/u/d, deletes
    with null payloads; ``evolved`` widens n_tok to int64 and adds lang."""
    op = np.array(["c", "u", "d"], dtype=object)[
        np.searchsorted([0.5, 0.9], rng.random(n), side="right")]
    dead = op == "d"
    lengths = np.where(dead, 0, rng.integers(1, MAX_TOK + 1, size=n))
    keys = (zipf_draw(rng, num_keys, n) if key_dist == "zipf"
            else rng.integers(0, num_keys, size=n))
    lsn = np.arange(lsn0, lsn0 + n, dtype=np.int64)
    cols = {
        "lsn": pa.array(lsn),
        "op": pa.array(op, pa.string()),
        "doc_id": pa.array([f"doc-{k:08d}" for k in keys], pa.string()),
        "tokens": tokens_array(rng, lengths, "uniform", dead),
        "n_tok": pa.array(lengths, pa.int64() if evolved else pa.int32(), mask=dead),
        "source": pa.array(SOURCES[rng.integers(0, len(SOURCES), n)], pa.string(), mask=dead),
        "ts_ms": pa.array(1_700_000_000_000 + lsn * 7),
    }
    if evolved:
        cols["lang"] = pa.array(LANGS[rng.integers(0, len(LANGS), n)], pa.string(), mask=dead)
    return pa.table(cols)


def change_log(seed: int, stream: int, num_keys: int, events: int, lsn0: int,
               key_dist: str, shards: int, evolve_from: int) -> list[pa.Table]:
    per = events // shards
    return [change_shard(np.random.default_rng([seed, stream, k]), num_keys,
                         per if k < shards - 1 else events - per * (shards - 1),
                         lsn0 + per * k, key_dist, k >= evolve_from)
            for k in range(shards)]


def encoded_bytes(t: pa.Table) -> int:
    return len(encode(t, "policy"))


def write_log(shards: list[pa.Table], d: str) -> tuple[list[str], float]:
    """The shards as change files in ``d`` (pyarrow's default encoding,
    as lakebench writes them) and the local plan's estimate of a change
    row's bytes (``partition_apply``: change file bytes over rows)."""
    os.makedirs(d)
    paths = [os.path.join(d, f"shard-{k:03d}.parquet") for k in range(len(shards))]
    for path, t in zip(paths, shards):
        pq.write_table(t, path)
    return paths, sum(os.path.getsize(f) for f in paths) / sum(s.num_rows for s in shards)


def read_log(paths: list[str]) -> tuple[pa.Schema, list[pa.Table]]:
    """The change files as the local plan decodes them: every footer
    parsed once (``replay._footers``), then each file through
    ``sink.read_changes`` (no ``ts_ms``, low-cardinality strings as
    dictionaries). Returns the schema ``replay.Normalize`` conforms to
    and the tables."""
    footers = R._footers(paths)
    unified, _ = R._change_schema(footers, None)
    schema = pa.schema([f for f in unified if f.name != sink.ENVELOPE])
    return schema, [sink.read_changes(f, footers[f]) for f in paths]


def plan_runs(state: dict[int, tuple[int, pa.Table]], groups: dict[int, pa.Table],
              per_row: float) -> list[tuple[int, int, pa.Table, list[int]]]:
    """The engine's local-plan packing (``replay.Layout.runs``) of the
    touched units: ``state`` maps a range's first bucket to ``(hi,
    table)``, ``groups`` a touched bucket to its combined rows. Returns
    ``(lo, hi, rows, state los)`` per run."""
    commit = {"partitions": {str(lo): {"path": str(lo), "rows": t.num_rows, "hi": hi}
                             for lo, (hi, t) in state.items()}}
    layout = Layout("", commit, NUM_PARTITIONS)
    units: dict[int, list[pa.Table]] = {}
    for p, rows in sorted(groups.items()):
        units.setdefault(int(layout.units(np.array([p]))[0]), []).append(rows)
    touched = [(lo, layout.unit_hi(lo), pa.concat_tables(rs)) for lo, rs in units.items()]
    states = [layout.state(lo, hi) for lo, hi, _ in touched]
    sizes = [sum(encoded_bytes(state[int(s)][1]) for s in st) for st in states]
    return [(lo, hi, rows, [int(s) for s in st]) for lo, hi, rows, st in
            layout.runs(touched, states, sizes, per_row, file_bytes(), True)]


def apply_log(state: dict[int, tuple[int, pa.Table]], schema: pa.Schema, shards: list[pa.Table],
              times: dict | None, per_row: float) -> dict[int, tuple[int, pa.Table, list[int]]]:
    """One commit through the kernels in the local plan's order: per
    shard as ``read_log`` decodes it the combine, the conform of its
    survivors to ``schema`` and their buckets (``replay.Normalize``),
    then one combine across the shards (``merge.winners``, stage
    ``combine_epoch``), its winners grouped by bucket (``replay.by_part``,
    untimed) and one merge per run of touched ranges as the local plan
    packs them (``plan_runs`` with ``per_row``, untimed); returns ``lo
    -> (hi, merged state, state los)`` per run. ``times`` (if given)
    collects the CPU ms of each stage."""
    def timed(stage, fn, *a):
        t0 = time.process_time()
        out = fn(*a)
        if times is not None:
            times.setdefault(stage, []).append((time.process_time() - t0) * 1e3)
        return out

    won = timed("compact", M.compact, pa.concat_tables([conform(s, schema) for s in shards]))
    combined = timed("combine", lambda: [M.combine(s) for s in shards])
    conformed = timed("conform", lambda: [conform(s, schema) for s in combined])
    parts = timed("assign", lambda: [P.assign_partitions(s["doc_id"], NUM_PARTITIONS)
                                     for s in conformed])
    rows = pa.concat_tables(conformed)
    win = timed("combine_epoch", M.winners, rows)
    if not M.compact(rows.take(win)).equals(won):
        raise AssertionError("combine and compact picked different winners")
    rows = rows.append_column("part", pa.array(np.concatenate(parts), pa.int64()))
    groups = dict(R.by_part(rows, rows=win))
    runs = plan_runs(state, groups, per_row)

    def merge_all():
        return {lo: (hi, M.merge_state(pa.concat_tables([state[s][1] for s in los],
                                                        promote_options="permissive")
                                       if los else None, rows), los)
                for lo, hi, rows, los in runs}
    return timed("merge_state", merge_all)


MODES = ("policy", "plain", "default")


def encode(t: pa.Table, mode: str) -> bytes:
    """``t`` as a Parquet file in memory, encoded as ``mode`` (``MODES``,
    module docstring) says. ``plain`` runs the policy with its packing
    chooser answering no, so its CPU is the policy's before packing."""
    if mode == "default":
        kw = {"compression": sink.COMPRESSION}
    elif mode == "plain":
        with mock.patch.object(sink, "_packs", lambda values: False):
            kw = sink.encode_options(t, partition=True)
    else:
        kw = sink.encode_options(t, partition=True)
    buf = io.BytesIO()
    pq.write_table(t, buf, **kw)
    return buf.getvalue()


def write_runs(runs: dict[int, tuple[int, pa.Table, list[int]]], lake: str, epoch: int) -> list[dict]:
    """Every run through ``sink.write_range``, as the engine's reducer
    writes it: one file, split past twice ``file_bytes``."""
    return [m for lo, (hi, t, _) in runs.items() for m in sink.write_range(
        lake, epoch, NUM_PARTITIONS, lo, hi, t,
        {"rows_in": t.num_rows, "tombstones": 0, "max_lsn": 0, "min_lsn": 0}, file_bytes())]


def committed_state(runs: dict[int, tuple[int, pa.Table, list[int]]], lake: str) -> dict[int, tuple[int, pa.Table]]:
    """The state the engine commits for ``runs``: ``lo -> (hi, table)``
    per file ``write_runs`` wrote."""
    return {m["part"]: (m["hi"], sink.read_file(os.path.join(sink.epoch_dir(lake, 0), m["file"])))
            for m in write_runs(runs, lake, 0)}


def time_writes(runs: dict[int, tuple[int, pa.Table, list[int]]], lake: str, epoch: int, times: dict) -> None:
    """CPU ms of ``write_runs`` into ``lake``."""
    t0 = time.process_time()
    write_runs(runs, lake, epoch)
    times.setdefault("write", []).append((time.process_time() - t0) * 1e3)


def time_encodes(tables: list[pa.Table], times: dict, rep: int) -> dict[str, int]:
    """CPU ms of encoding every table once per mode, the modes in
    alternating order by ``rep``; returns bytes per mode."""
    sizes = {}
    for mode in MODES[::-1] if rep % 2 else MODES:
        t0 = time.process_time()
        sizes[mode] = sum(len(encode(t, mode)) for t in tables)
        times.setdefault(f"encode_{mode}", []).append((time.process_time() - t0) * 1e3)
    return sizes


VIEW_COLUMNS = ["doc_id", "lsn", "source", "n_tok"]


def concat(tables: list[pa.Table]) -> pa.Table:
    return pa.concat_tables([t.select(VIEW_COLUMNS) for t in tables], promote_options="permissive")


def view_delta(before: dict[int, tuple[int, pa.Table]],
               written: dict[int, tuple[int, pa.Table, list[int]]]) -> pa.Table:
    """The delta plan's work in one process: each written run, a
    component of the span, zipped once against the concatenated state
    of the ranges it replaced (a run born in the epoch is all new
    rows), then one signed partial per side."""
    old, new = [], []
    for _, tb, los in written.values():
        tb = tb.select(VIEW_COLUMNS)
        if los:
            ta, tb = delta.zip_changed(concat([before[s][1] for s in los]), tb)
            old.append(ta)
        new.append(tb)
    return pa.concat_tables([_budget_partials(concat(old), -1) if old else _DELTA_SCHEMA.empty_table(),
                             _budget_partials(concat(new), 1)])


def view_full(after: list[pa.Table]) -> pa.Table:
    """The recompute plan's work: one partial over every file."""
    return _budget_partials(concat(after))


def time_views(before: dict[int, tuple[int, pa.Table]],
               written: dict[int, tuple[int, pa.Table, list[int]]], times: dict) -> None:
    """CPU ms of both refresh plans; the base folded with the delta
    must equal the recompute."""
    replaced = {s for _, _, los in written.values() for s in los}
    after = ([t for lo, (_, t) in before.items() if lo not in replaced]
             + [t for _, t, _ in written.values()])
    outs = {}
    for stage, fn, args in (("view_delta", view_delta, (before, written)),
                            ("view_full", view_full, (after,))):
        t0 = time.process_time()
        outs[stage] = fn(*args)
        times.setdefault(stage, []).append((time.process_time() - t0) * 1e3)
    base = [view_full([t for _, t in before.values()])] if before else []
    empty = _DELTA_SCHEMA.empty_table()
    if not _finish_budget(_fold(base + [outs["view_delta"]], empty)).equals(
            _finish_budget(_fold([outs["view_full"]], empty))):
        raise AssertionError("the delta plan's budget differs from the recompute's")


def quartiles(xs: list[float]) -> dict:
    q1, q2, q3 = np.percentile(xs, [25, 50, 75])
    return {"p50": round(float(q2), 3), "q1": round(float(q1), 3), "q3": round(float(q3), 3)}


def bench_shape(name: str, seed: int, scale: float, reps: int, work: str) -> dict:
    def n(x):
        return max(16, int(x * scale))

    if name == "upsert":
        base, per_row = write_log(change_log(seed, 0, n(10_000), n(100_000), 0, "zipf", 8, 4),
                                  os.path.join(work, name, "base_log"))
        state = committed_state(apply_log({}, *read_log(base), None, per_row),
                                os.path.join(work, name, "base"))
        epoch = change_log(seed, 1, n(10_000), n(5_000), n(100_000), "uniform", 1, 0)
    else:
        state = {}
        epoch = change_log(seed, 0, n(30_000), n(300_000), 0, "zipf", 8, 4)
    times: dict[str, list[float]] = {}
    paths, per_row = write_log(epoch, os.path.join(work, name, "log"))
    for rep in range(reps):
        t0 = time.process_time()
        schema, shards = read_log(paths)
        times.setdefault("read_log", []).append((time.process_time() - t0) * 1e3 / len(paths))
        written = apply_log(state, schema, shards, times, per_row)
        tables = {lo: t for lo, (_, t, _) in written.items()}
        sizes = time_encodes(list(tables.values()), times, rep)
        time_writes(written, os.path.join(work, name, "write"), rep, times)
        time_views(state, written, times)
    shutil.rmtree(os.path.join(work, name, "write"))
    paths: dict[str, dict[int, str]] = {}
    for mode in MODES:
        d = os.path.join(work, name, mode)
        os.makedirs(d)
        paths[mode] = {}
        for p, t in tables.items():
            paths[mode][p] = os.path.join(d, sink.part_file(p))
            with open(paths[mode][p], "wb") as f:
                f.write(encode(t, mode))
    hit_lake = os.path.join(work, name, "hit")
    for p, t in tables.items():
        sink.write_partition(hit_lake, 0, sink.part_file(p), t, {})
    paths["hit"] = {p: os.path.join(sink.epoch_dir(hit_lake, 0), sink.part_file(p)) for p in tables}
    for rep in range(reps):
        for mode in ("hit", *(MODES[::-1] if rep % 2 else MODES)):
            t0 = time.process_time()
            back = {p: sink.read_file(path) for p, path in paths[mode].items()}
            times.setdefault(f"read_{mode}", []).append((time.process_time() - t0) * 1e3)
            for p, t in tables.items():
                if not back[p].equals(t):
                    raise AssertionError(f"{name}: run {p} does not round-trip ({mode})")
                if mode == "hit" and sink.read_file(paths[mode][p]) is not back[p]:
                    raise AssertionError(f"{name}: run {p} was decoded, not served from "
                                         "the memo (more than BLOCK_BYTES written?)")
    return {
        "events": sum(s.num_rows for s in epoch),
        "runs_written": len(tables),
        "rows_written": sum(t.num_rows for t in tables.values()),
        **{f"bytes_{mode}": sizes[mode] for mode in MODES},
        "cpu_ms": {k: quartiles(v) for k, v in times.items()},
    }


def _nonneg_line(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Least-squares ``y ≈ a·x + b`` with ``a, b ≥ 0`` (a cost per file
    and a cost of the rows cannot be negative; a noisy small sweep can
    fit one so): the free fit if it is feasible, else the better of the
    two one-term fits."""
    if len(x) < 2:
        return 0.0, float(y[0])
    a, b = np.polyfit(x, y, 1)
    if a >= 0 and b >= 0:
        return float(a), float(b)
    fits = [(max(0.0, float(x @ y / (x @ x))), 0.0), (0.0, max(0.0, float(y.mean())))]
    return min(fits, key=lambda f: float(((f[0] * x + f[1] - y) ** 2).sum()))


def bench_files(seed: int, scale: float, reps: int, work: str) -> dict:
    """The ``files`` sweep: the backfill-shaped state (a 300k-event zipf
    log over 30k keys, merged) written as files of N rows each, N the
    state's rows over 1, 2, 4, …, 128, through ``sink.write_partition``
    (encode, sha256, one fsynced file, the memo insert). Per N: files,
    CPU ms of writing them all, bytes. A least-squares line over the
    points gives the fixed CPU per file and per row, and the fixed
    share of one file's write at ``file_bytes()``."""
    def n(x):
        return max(16, int(x * scale))

    paths, per_row = write_log(change_log(seed, 0, n(30_000), n(300_000), 0, "zipf", 8, 4),
                               os.path.join(work, "files", "log"))
    runs = apply_log({}, *read_log(paths), None, per_row)
    state = pa.concat_tables([t for _, t, _ in runs.values()], promote_options="permissive")
    rows = state.num_rows
    points = {}
    for size in sorted({max(1, rows >> k) for k in range(8)}):
        cpu, nbytes = [], 0
        for rep in range(reps):
            lake = os.path.join(work, "files", str(size), str(rep))
            t0 = time.process_time()
            ms = [sink.write_partition(lake, 0, sink.part_file(i), state.slice(at, size), {})
                  for i, at in enumerate(range(0, rows, size))]
            cpu.append((time.process_time() - t0) * 1e3)
            nbytes = sum(os.path.getsize(os.path.join(sink.epoch_dir(lake, 0), m["file"])) for m in ms)
            shutil.rmtree(lake)
        points[str(size)] = {"files": len(ms), "bytes": nbytes, "cpu_ms": quartiles(cpu)}
    files = np.array([p["files"] for p in points.values()], np.float64)
    cpu = np.array([p["cpu_ms"]["p50"] for p in points.values()])
    per_file, const = _nonneg_line(files, cpu)
    per_row = const / rows
    disk_row = float(np.median([p["bytes"] for p in points.values()])) / rows
    target_rows = file_bytes() / disk_row
    return {"rows": rows, "points": points, "fixed_ms_per_file": round(float(per_file), 4),
            "us_per_row": round(float(per_row) * 1e3, 4), "bytes_per_row": round(disk_row, 2),
            "file_bytes": file_bytes(), "rows_at_file_bytes": int(target_rows),
            "fixed_share_at_file_bytes": round(
                float(per_file / (per_file + per_row * target_rows)) if per_file else 0.0, 4)}


def bench_large(rows: int, seed: int, reps: int) -> dict:
    """One state partition of ``rows`` live rows, per token distribution."""
    out = {}
    for dist in ("uniform", "zipf"):
        rng = np.random.default_rng([seed, rows, dist == "zipf"])
        lengths = rng.integers(1, MAX_TOK + 1, size=rows)
        t = pa.table({
            "doc_id": pa.array([f"doc-{k:08d}" for k in range(rows)], pa.string()),
            "tokens": tokens_array(rng, lengths, dist),
            "n_tok": pa.array(lengths, pa.int64()),
            "source": pa.array(SOURCES[rng.integers(0, len(SOURCES), rows)], pa.string()),
            "lsn": pa.array(rng.permutation(NUM_PARTITIONS * rows)[:rows].astype(np.int64)),
            "lang": pa.array(LANGS[rng.integers(0, len(LANGS), rows)], pa.string()),
        })
        times: dict[str, list[float]] = {}
        for rep in range(reps):
            sizes = time_encodes([t], times, rep)
        out[dist] = {"token_values": int(lengths.sum()),
                     **{f"bytes_{mode}": sizes[mode] for mode in MODES},
                     "cpu_ms": {k: quartiles(v) for k, v in times.items()}}
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--reps", type=int, default=15)
    ap.add_argument("--scale", type=float, default=1.0, help="multiplies every event and key count")
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--large", type=int, nargs="*", default=[], metavar="ROWS")
    args = ap.parse_args()
    if args.reps < 1:
        ap.error("--reps must be >= 1")
    work = tempfile.mkdtemp(prefix="kernelbench-")
    try:
        result = {"shapes": {s: bench_shape(s, args.seed, args.scale, args.reps, work)
                             for s in ("upsert", "backfill")},
                  "files": bench_files(args.seed, args.scale, args.reps, work),
                  "large": {str(r): bench_large(r, args.seed, args.reps) for r in args.large}}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for s, r in result["shapes"].items():
        print(f"{s}: {r['events']} events -> {r['runs_written']} runs, "
              f"{r['rows_written']} rows; bytes policy {r['bytes_policy']} / plain "
              f"{r['bytes_plain']} / default {r['bytes_default']}")
        for stage, q in r["cpu_ms"].items():
            print(f"  {stage:<16} {q['p50']:>9.3f} ms  [q1 {q['q1']:.3f}, q3 {q['q3']:.3f}]")
    f = result["files"]
    for size, x in f["points"].items():
        print(f"files of {size:>6} rows: {x['files']:>4} files, {x['bytes']:>9} bytes, "
              f"{x['cpu_ms']['p50']:.1f} ms")
    print(f"files: {f['fixed_ms_per_file']:.3f} ms per file + {f['us_per_row']:.3f} us per row, "
          f"{f['bytes_per_row']:.1f} B per row; fixed share at {f['file_bytes']} B "
          f"({f['rows_at_file_bytes']} rows): {f['fixed_share_at_file_bytes']:.1%}")
    for rows, r in result["large"].items():
        for dist, x in r.items():
            ms = " / ".join(f"{x['cpu_ms'][f'encode_{m}']['p50']:.1f}" for m in MODES)
            print(f"large {rows} rows, {dist} tokens: bytes policy {x['bytes_policy']} / plain "
                  f"{x['bytes_plain']} ({x['bytes_policy'] / x['bytes_plain'] - 1:+.1%}) / default "
                  f"{x['bytes_default']} ({x['bytes_policy'] / x['bytes_default'] - 1:+.1%}); encode "
                  f"{ms} ms")
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
