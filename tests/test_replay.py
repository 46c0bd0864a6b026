"""End-to-end replay correctness vs a DuckDB rank-1 oracle (FIXTURES.md F5)."""

import glob
import os

import duckdb
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from ton_etl_ray.cdc.replay import final_state_table, replay
from ton_etl_ray.gen import write_change_log

ORACLE_SQL = """
WITH ranked AS (
  SELECT *, row_number() OVER (PARTITION BY doc_id ORDER BY lsn DESC) AS rk
  FROM read_parquet({files}, union_by_name=true)
)
SELECT doc_id, tokens, n_tok, source{extra}
FROM ranked WHERE rk = 1 AND op <> 'd'
"""


def _oracle(change_dir, extra=""):
    files = sorted(glob.glob(os.path.join(change_dir, "*.parquet")))
    sql = ORACLE_SQL.format(files=str(files), extra=extra)
    return duckdb.sql(sql).arrow()


def _as_map(t: pa.Table):
    cols = t.column_names
    return {
        r["doc_id"]: tuple(r[c] for c in cols if c not in ("doc_id", "lsn"))
        for r in t.to_pylist()
    }


def test_replay_matches_oracle(tmp_path):
    chg = str(tmp_path / "chg")
    lake = str(tmp_path / "lake")
    write_change_log(chg, num_events=20000, num_keys=1500, seed=3, num_shards=6, max_tok=24)
    res = replay(chg, lake, num_partitions=16)
    assert res.published and res.epoch == 0
    got = final_state_table(lake).select(["doc_id", "tokens", "n_tok", "source"])
    want = _oracle(chg)
    gm, wm = _as_map(got), _as_map(want)
    assert set(gm) == set(wm)
    assert gm == wm
    assert res.rows_total == len(wm)


def test_final_state_table_carries_no_partition_lineage(tmp_path):
    """Each partition file's footer holds its own ``lineage``; the whole
    lake's table carries the commit schema's metadata instead of the
    first file's, at the committed head and at an older epoch."""
    from ton_etl_ray.cdc import sink

    chg = str(tmp_path / "chg")
    lake = str(tmp_path / "lake")
    write_change_log(chg, num_events=3000, num_keys=400, seed=11, num_shards=2, max_tok=8)
    replay(chg, lake, num_partitions=8)
    replay(chg, lake)
    files = sink.lake_files(lake)
    assert len(files) == 1  # the 8 buckets of a small lake are one file
    assert sink.LINEAGE_KEY in pq.read_metadata(files[0]).metadata
    for epoch in (0, 1, None):
        t = final_state_table(lake, epoch)
        schema = sink.lake_schema(lake, epoch)
        assert t.schema.metadata == schema.metadata
        assert sink.LINEAGE_KEY not in (t.schema.metadata or {})
        assert t.schema.equals(schema)
        assert t.num_rows == sink.commit_at(lake, epoch)["rows_total"]


def test_replay_zipf_hot_keys_unsalted(tmp_path):
    """zipf s=1.1 over 200 keys: the top keys take several % of the log
    each, and every row still routes by hash(doc_id) to one reducer."""
    chg = str(tmp_path / "chg")
    lake = str(tmp_path / "lake")
    write_change_log(chg, num_events=10000, num_keys=200, seed=9, num_shards=4, max_tok=16)
    res = replay(chg, lake, num_partitions=8)
    assert res.hot_keys == []
    gm = _as_map(final_state_table(lake).select(["doc_id", "tokens", "n_tok", "source"]))
    wm = _as_map(_oracle(chg))
    assert gm == wm


def test_single_key_log_bounded_by_block_compaction(tmp_path, exchange_plan):
    """Skew bound: one doc_id carries all 100k events over 10 shards of
    10k rows. The per-block combine (``merge.combine``) in Normalize
    sends at most one row per key per read block into the exchange, so the one
    reducer that owns the key sees ≤ 10 rows, not 100k."""
    chg = str(tmp_path / "chg")
    lake = str(tmp_path / "lake")
    write_change_log(chg, num_events=100_000, num_keys=1, seed=5, num_shards=10, max_tok=8)
    res = replay(chg, lake, num_partitions=8)
    assert res.counters["rows_in"] <= 10, res.counters
    gm = _as_map(final_state_table(lake).select(["doc_id", "tokens", "n_tok", "source"]))
    wm = _as_map(_oracle(chg))
    assert len(wm) == 1
    assert gm == wm


def test_replay_schema_evolution(tmp_path):
    chg = str(tmp_path / "chg")
    lake = str(tmp_path / "lake")
    write_change_log(
        chg, num_events=8000, num_keys=600, seed=4, num_shards=4, max_tok=16,
        evolve_after_shard=2,
    )
    replay(chg, lake, num_partitions=8)
    got = final_state_table(lake)
    assert got.schema.field("lang").type == pa.string()
    assert got.schema.field("n_tok").type == pa.int64()
    gm = _as_map(got.select(["doc_id", "tokens", "n_tok", "source", "lang"]))
    wm = _as_map(_oracle(chg, extra=", lang"))
    assert gm == wm
    # pre-evolution winners carry null lang
    assert any(v[-1] is None for v in gm.values())
    assert any(v[-1] is not None for v in gm.values())


def test_incremental_epochs_equal_oneshot(tmp_path):
    from ton_etl_ray.cdc import sink

    chg = str(tmp_path / "chg")
    write_change_log(chg, num_events=12000, num_keys=800, seed=6, num_shards=6, max_tok=16)
    files = sorted(glob.glob(os.path.join(chg, "*.parquet")))

    lake_a = str(tmp_path / "lake_oneshot")
    replay(files, lake_a, num_partitions=8)

    lake_b = str(tmp_path / "lake_incr")
    r0 = replay(files[:3], lake_b, num_partitions=8)
    r1 = replay(files[3:], lake_b, num_partitions=8)
    assert (r0.epoch, r1.epoch) == (0, 1)
    assert r1.partitions_inherited + r1.partitions_written == len(sink.lake_files(lake_b))

    a = _as_map(final_state_table(lake_a).select(["doc_id", "tokens", "n_tok", "source"]))
    b = _as_map(final_state_table(lake_b).select(["doc_id", "tokens", "n_tok", "source"]))
    assert a == b


def test_resume_after_partial_run(tmp_path, bucket_files):
    chg = str(tmp_path / "chg")
    lake = str(tmp_path / "lake")
    write_change_log(chg, num_events=10000, num_keys=700, seed=8, num_shards=4, max_tok=16)

    # simulate a crash: only half the partitions get applied, no commit
    partial = replay(chg, lake, num_partitions=8, only_parts=frozenset(range(4)))
    assert not partial.published

    res = replay(chg, lake, resume=True, num_partitions=8)
    assert res.published and res.epoch == 0
    # committed partitions were skipped, not recomputed
    assert res.partitions_written == 8

    gm = _as_map(final_state_table(lake).select(["doc_id", "tokens", "n_tok", "source"]))
    wm = _as_map(_oracle(chg))
    assert gm == wm


def test_fresh_run_discards_abandoned_staging(tmp_path):
    chg = str(tmp_path / "chg")
    lake = str(tmp_path / "lake")
    write_change_log(chg, num_events=4000, num_keys=300, seed=10, num_shards=2, max_tok=16)
    replay(chg, lake, num_partitions=4, only_parts=frozenset({0}))
    res = replay(chg, lake, num_partitions=4)  # resume=False → restart epoch
    assert res.published
    gm = _as_map(final_state_table(lake).select(["doc_id", "tokens", "n_tok", "source"]))
    assert gm == _as_map(_oracle(chg))


def test_invalid_op_rejected(tmp_path):
    import pyarrow.parquet as pq
    from ton_etl_ray.gen import make_change_batch

    t = make_change_batch(num_events=10, num_keys=5, seed=1)
    bad = t.set_column(t.column_names.index("op"), "op",
                       pa.array(["x"] * t.num_rows, pa.string()))
    chg = str(tmp_path / "chg")
    os.makedirs(chg)
    pq.write_table(bad, os.path.join(chg, "shard-00000.parquet"))
    with pytest.raises(Exception, match="invalid op"):
        replay(chg, str(tmp_path / "lake"), num_partitions=2)


def test_empty_batch_is_valid_change_batch():
    """A 0-row change batch normalizes to 0 rows (``pc.all`` of an empty
    mask is null, which used to read as "invalid op"); a bad op or a
    null lsn is still rejected."""
    from ton_etl_ray.cdc.replay import Normalize, validate_changes
    from ton_etl_ray.gen import make_change_batch

    t = make_change_batch(num_events=10, num_keys=5, seed=1)
    empty = t.schema.empty_table()
    validate_changes(empty)
    assert Normalize(t.schema, 4, frozenset(), None)(empty).num_rows == 0
    with pytest.raises(ValueError, match="invalid op"):
        validate_changes(t.set_column(t.column_names.index("op"), "op",
                                      pa.array(["x"] * t.num_rows, pa.string())))
    with pytest.raises(ValueError, match="null lsn"):
        validate_changes(t.set_column(t.column_names.index("lsn"), "lsn",
                                      pa.nulls(t.num_rows, pa.int64())))


def test_resume_after_partial_run_zipf(tmp_path, bucket_files):
    """Crash after partitions 0-3 of 8 are staged on a zipf log with
    hot keys; resume adopts every staged partition file (rows and
    lineage from its footer, never a writer's tmp file) and converges
    to the oracle and to an uninterrupted replay's commit and counters."""
    from ton_etl_ray.cdc import sink

    chg = str(tmp_path / "chg")
    lake = str(tmp_path / "lake")
    write_change_log(chg, num_events=10000, num_keys=200, seed=97, num_shards=4, max_tok=16)

    partial = replay(chg, lake, num_partitions=8, only_parts=frozenset(range(4)))
    assert not partial.published
    stale = os.path.join(sink.epoch_dir(lake, 0), sink.part_file(0) + ".tmp.4242.123456789")
    with open(stale, "wb") as f:
        f.write(b"torn")
    assert set(sink.staged_manifests(lake, 0)) == {sink.part_file(p) for p in range(4)}

    res = replay(chg, lake, resume=True, num_partitions=8)
    assert res.published
    gm = _as_map(final_state_table(lake).select(["doc_id", "tokens", "n_tok", "source"]))
    wm = _as_map(_oracle(chg))
    assert gm == wm

    ref_lake = str(tmp_path / "ref")
    ref = replay(chg, ref_lake, num_partitions=8)
    got, want = sink.read_commit(lake, 0), sink.read_commit(ref_lake, 0)
    for key in ("max_lsn", "min_lsn", "rows_total", "sha256"):
        assert got[key] == want[key], key
    for key in ("rows_in", "tombstones"):
        assert res.counters[key] == ref.counters[key], key
    for d in (lake, ref_lake):
        v = sink.verify_lake(d)
        assert v["hashes_verified"] == v["partitions_checked"] > 0


def test_coalesced_shuffle_matches_oracle(tmp_path, ray_session, exchange_plan, monkeypatch):
    """A coalesced payload exchange (``_auto_coalesce_target`` asking
    for 4 blocks) must produce the identical final state — the
    repartition only changes block boundaries, never rows (the
    single-node fix for high-block-count logs)."""
    import duckdb
    import glob as _glob

    from ton_etl_ray.cdc import replay as R
    from ton_etl_ray.cdc.replay import final_state_table, replay
    from ton_etl_ray.gen import write_change_log

    routed = []
    monkeypatch.setattr(R, "_auto_coalesce_target",
                        lambda blocks, total: routed.append(blocks) or 4)
    chg = str(tmp_path / "chg")
    write_change_log(chg, num_events=40_000, num_keys=3_000, seed=23,
                     num_shards=16, max_tok=16)
    lake = str(tmp_path / "lake")
    replay(chg, lake, num_partitions=32, override_num_blocks=16)
    assert routed == [16]
    got = final_state_table(lake).to_pandas()
    shards = sorted(_glob.glob(chg + "/*.parquet"))
    ora = duckdb.sql(
        f"""WITH ranked AS (SELECT *, row_number() OVER
                (PARTITION BY doc_id ORDER BY lsn DESC) rk
            FROM read_parquet({shards}, union_by_name=true))
            SELECT doc_id, tokens, n_tok, source
            FROM ranked WHERE rk = 1 AND op <> 'd'"""
    ).df()
    g = {r.doc_id: (list(r.tokens), r.n_tok, r.source) for r in got.itertuples()}
    o = {r.doc_id: (list(r.tokens), r.n_tok, r.source) for r in ora.itertuples()}
    assert g == o


def test_auto_coalesce_routing():
    """The auto-router coalesces ONLY on (single node × read-block count
    at/above the profiled one-raylet exchange breakpoint), and never on
    multi-node clusters — pinning verdict r4 next-item #6's decision
    table, including both 40M-sweep legs staying untouched."""
    from ton_etl_ray.cdc.replay import _auto_coalesce_target as route

    # multi-node: never coalesce, regardless of block count
    assert route(4096, nodes_alive=2, cpus=64) is None
    assert route(96, nodes_alive=16, cpus=512) is None
    # single node below the breakpoint: data-sized blocks stay — the
    # scaling-sweep legs (40M log: 64 blocks @32 cpus, ~41 @8 cpus)
    assert route(64, nodes_alive=1, cpus=32) is None
    assert route(41, nodes_alive=1, cpus=8) is None
    assert route(95, nodes_alive=1, cpus=32) is None
    # single node at/above the breakpoint: coalesce to max(64, 2x cpus)
    assert route(96, nodes_alive=1, cpus=32) == 64
    assert route(128, nodes_alive=1, cpus=32) == 64   # the 80M regime
    assert route(128, nodes_alive=1, cpus=8) == 64    # floor holds
    assert route(300, nodes_alive=1, cpus=64) == 128  # 2x cpus on big hosts
    # byte-dominated regime (the 10^9-event log): coalescing to 64 would
    # make ~1 GB blocks — the exchange is bandwidth-bound there, leave
    # the block layout alone (the narrow exchange is the tool there)
    assert route(128, 5 << 30, nodes_alive=1, cpus=32) == 64   # 80M ≈ 5 GB ok
    assert route(1000, 64 << 30, nodes_alive=1, cpus=32) is None  # 1B ≈ 64 GB


def test_noop_epoch_keeps_lsn_watermark(tmp_path, ray_session):
    """A no-op epoch (every partition inherited) must carry the lake's
    lsn high watermark forward, not reset it to -1 — the changefeed
    tombstone lsn and refresh-update lsn are commit.max_lsn+1, so a
    regressed watermark would mint lsns that lose to (or collide with)
    stored rows."""
    import glob

    import pyarrow as pa
    import pyarrow.parquet as pq

    from ton_etl_ray.cdc import sink
    from ton_etl_ray.cdc.replay import replay
    from ton_etl_ray.gen import write_change_log

    chg, lake = str(tmp_path / "chg"), str(tmp_path / "lake")
    write_change_log(chg, num_events=5_000, num_keys=400, seed=37,
                     num_shards=4, max_tok=8)
    r0 = replay(chg, lake, num_partitions=8)
    assert r0.max_lsn == 4_999

    # an empty change shard → next epoch writes nothing, inherits all
    schema = pq.read_schema(sorted(glob.glob(chg + "/*.parquet"))[0])
    empty_dir = str(tmp_path / "empty")
    import os as _os
    _os.makedirs(empty_dir)
    pq.write_table(pa.schema(schema).empty_table(),
                   _os.path.join(empty_dir, "chg-empty.parquet"))
    r1 = replay(empty_dir, lake)
    assert r1.counters["rows_in"] == 0 and r1.partitions_written == 0
    assert r1.max_lsn == 4_999
    assert sink.read_commit(lake, r1.epoch)["max_lsn"] == 4_999


@pytest.mark.parametrize("path", ["replay", "watcher"])
def test_stale_redelivery_keeps_lsn_watermark(tmp_path, path, bucket_files):
    """Re-applying an old shard that touches every partition must not
    move the commit watermark backwards: consumers mint fresh lsns at
    max_lsn+1 (changefeed tombstones, metadata refresh), which would
    collide with stored lsns above the regressed value. Covers the
    one-shot replay and the watcher (IncrementalIngestor) path."""
    import shutil

    from ton_etl_ray.cdc import sink
    from ton_etl_ray.cdc.streaming import DirectoryWatcher

    chg, lake = str(tmp_path / "chg"), str(tmp_path / "lake")
    write_change_log(chg, num_events=6_000, num_keys=400, seed=23,
                     num_shards=4, max_tok=8)
    files = sorted(glob.glob(os.path.join(chg, "*.parquet")))
    if path == "replay":
        e0 = replay(files, lake, num_partitions=8).epoch
        res = replay(files[:1], lake)
        e1, written = res.epoch, res.partitions_written
        assert res.max_lsn == 5_999
    else:
        watch = str(tmp_path / "incoming")
        os.makedirs(watch)
        w = DirectoryWatcher(watch, lake, num_partitions=8,
                             max_batch_shards=4, stable_polls=0)
        try:
            for f in files:
                shutil.copy(f, watch)
            e0 = w.step()["epoch"]
            # redelivered under a new name, so the watcher ingests it
            shutil.copy(files[0], os.path.join(watch, "redelivered.parquet"))
            w.poll()
            res = w.flush()
            e1, written = res["epoch"], res["partitions_written"]
            assert w.metrics[-1]["watermark_lsn"] == 5_999
        finally:
            w.close()
    assert sink.read_commit(lake, e0)["max_lsn"] == 5_999
    assert written == 8  # the stale shard rewrote every partition
    assert sink.read_commit(lake, e1)["max_lsn"] == 5_999


def test_replay_repins_epoch_when_raced_by_publisher(tmp_path, monkeypatch, lake_writer):
    """A concurrent publisher can commit a writer's pinned target epoch
    between latest_epoch() and the epoch lock; every writer (replay,
    replay on its narrow exchange, ingest, compact_lake — they share
    sink.EpochTxn) must RE-PIN under the lock instead of
    clear_staging-ing the committed epoch's live data. Simulated by a one-call-stale latest_epoch."""
    from ton_etl_ray.cdc import sink as S

    chg = str(tmp_path / "chg")
    lake = str(tmp_path / "lake")
    write_change_log(chg, num_events=6000, num_keys=400, seed=21,
                     num_shards=4, max_tok=12)
    files = sorted(glob.glob(os.path.join(chg, "*.parquet")))
    replay(files[:2], lake, num_partitions=8)   # epoch 0
    replay(files[2:3], lake)                    # epoch 1 (the "racer")
    state_e1 = _as_map(final_state_table(lake, 1))
    assert S.is_committed(lake, 1)
    # compaction applies no changes: its epoch 2 holds epoch 1's state
    applied = files[:3] if lake_writer.kind == "compact" else files
    # the ingestor reads the head at construction: build it before the race
    ing = lake_writer.ingestor(lake) if lake_writer.kind == "ingest" else None

    real = S.latest_epoch
    calls = {"n": 0}

    def stale_once(lake_dir):
        calls["n"] += 1
        # first call: the pre-race view (epoch 1 not yet visible)
        return 0 if calls["n"] == 1 else real(lake_dir)

    monkeypatch.setattr(S, "latest_epoch", stale_once)
    epoch = lake_writer(lake, files[3:], ingestor=ing)
    assert calls["n"] >= 2                      # the stale view was consumed
    assert epoch == 2                           # re-pinned past the racer
    assert S.is_committed(lake, 1)              # racer's commit survived
    assert _as_map(final_state_table(lake, 1)) == state_e1

    # and the final state equals a clean one-shot of the same log
    clean = str(tmp_path / "clean")
    replay(applied, clean, num_partitions=8)
    assert _as_map(final_state_table(lake)) == _as_map(final_state_table(clean))
