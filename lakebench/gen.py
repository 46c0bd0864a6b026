"""Seeded change-log generator owned by the benchmark.

The engine ships its own generator; this one is kept separate so that an
edit to the engine cannot change a workload's inputs. Every table is a
pure function of ``(seed, stream, shard)``: the same seed writes
byte-identical Parquet shards. LSNs are assigned by the caller from a
counter that only grows, so every shard lies above the lake watermark.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

VOCAB = 50257
MAX_TOK = 32
SOURCES = ("web", "code", "books", "wiki", "news", "forum", "social", "docs", "mail", "chat")
LANGS = ("en", "de", "fr", "es", "zh")
TS_BASE_MS = 1_700_000_000_000


class Keyspace:
    """A fixed set of ``num_keys`` document ids shared by every log of a run.

    Zipf draws (s=1.1) go through a seeded permutation, so the hottest
    keys are not the lexically smallest ones."""

    def __init__(self, seed: int, num_keys: int, s: float = 1.1):
        perm = np.random.default_rng([seed, 0x4B]).permutation(num_keys)
        self.ids = pa.array([f"doc-{k:08d}" for k in perm], pa.string())
        p = 1.0 / np.arange(1, num_keys + 1, dtype=np.float64) ** s
        self.cdf = np.cumsum(p / p.sum())

    def draw(self, rng: np.random.Generator, n: int, dist: str) -> pa.Array:
        if dist == "zipf":
            idx = np.minimum(np.searchsorted(self.cdf, rng.random(n)), len(self.ids) - 1)
        elif dist == "uniform":
            idx = rng.integers(0, len(self.ids), size=n)
        else:
            raise ValueError(f"unknown key distribution {dist!r}")
        return self.ids.take(pa.array(idx, pa.int64()))


def change_table(
    keys: Keyspace,
    rng: np.random.Generator,
    *,
    num_events: int,
    lsn_start: int,
    dist: str,
    evolved: bool,
) -> pa.Table:
    """One change table with LSNs ``[lsn_start, lsn_start + num_events)``.

    Ops are about 50/40/10 create/update/delete. Deletes carry null
    payloads. ``evolved`` adds a ``lang`` column and widens ``n_tok`` to
    int64, which the engine must conform across shards."""
    op = np.array(["c", "u", "d"], dtype=object)[
        np.searchsorted([0.5, 0.9], rng.random(num_events), side="right")
    ]
    live = op != "d"
    lengths = np.where(live, rng.integers(1, MAX_TOK + 1, size=num_events), 0)
    offsets = np.zeros(num_events + 1, dtype=np.int32)
    np.cumsum(lengths, out=offsets[1:])
    values = rng.integers(0, VOCAB, size=int(offsets[-1]), dtype=np.int32)
    dead = pa.array(~live)
    tokens = pa.ListArray.from_arrays(pa.array(offsets), pa.array(values), mask=dead)
    lsn = np.arange(lsn_start, lsn_start + num_events, dtype=np.int64)
    cols = {
        "lsn": pa.array(lsn),
        "op": pa.array(op, pa.string()),
        "doc_id": keys.draw(rng, num_events, dist),
        "tokens": tokens,
        "n_tok": pa.array(lengths, pa.int64() if evolved else pa.int32(), mask=~live),
        "source": pa.array(
            np.array(SOURCES, dtype=object)[rng.integers(0, len(SOURCES), num_events)],
            pa.string(), mask=~live),
        "ts_ms": pa.array(TS_BASE_MS + lsn * 7),
    }
    if evolved:
        cols["lang"] = pa.array(
            np.array(LANGS, dtype=object)[rng.integers(0, len(LANGS), num_events)],
            pa.string(), mask=~live)
    return pa.table(cols)


def write_log(
    out_dir: str,
    keys: Keyspace,
    *,
    seed: int,
    stream: int,
    num_events: int,
    lsn_start: int,
    num_shards: int = 1,
    dist: str = "zipf",
    evolve_from_shard: int = 0,
) -> list[str]:
    """Write one LSN-contiguous log as ``num_shards`` Parquet files.

    ``stream`` names the log within a run (base log, micro-batch k, ...)
    so that two logs of one seed never share a random stream. Shards at
    index ``>= evolve_from_shard`` use the evolved schema."""
    os.makedirs(out_dir, exist_ok=True)
    per = num_events // num_shards
    paths = []
    for k in range(num_shards):
        n = per if k < num_shards - 1 else num_events - per * (num_shards - 1)
        rng = np.random.default_rng([seed, stream, k])
        t = change_table(keys, rng, num_events=n, lsn_start=lsn_start + per * k,
                         dist=dist, evolved=k >= evolve_from_shard)
        path = os.path.join(out_dir, f"shard-{stream:06d}-{k:03d}.parquet")
        pq.write_table(t, path)
        paths.append(path)
    return paths
