"""Incremental view maintenance: the budget and token-histogram views
maintained from the per-partition epoch delta must equal a full
recompute over the target epoch — exactly, same-width spans and spans
across a re-shard compaction alike (such a span is split at the
compaction: only compaction changes the layout, and it preserves
state)."""

import glob
import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest


@pytest.fixture(scope="module")
def two_epoch_lake(tmp_path_factory, ray_session):
    """Generic two-epoch lake: one log split by lsn, both halves
    replayed (the same construction test_time_travel uses)."""
    from ton_etl_ray.cdc.replay import replay
    from ton_etl_ray.gen import write_change_log

    base = tmp_path_factory.mktemp("ivm")
    chg, lake = str(base / "chg"), str(base / "lake")
    write_change_log(chg, num_events=60_000, num_keys=5_000, seed=31,
                     num_shards=8, max_tok=24)
    e0, e1 = str(base / "e0"), str(base / "e1")
    os.makedirs(e0), os.makedirs(e1)
    cut = 30_000
    for p in sorted(glob.glob(os.path.join(chg, "*.parquet"))):
        t = pq.read_table(p)
        lsn = t["lsn"].to_numpy()
        lo, hi = t.filter(pa.array(lsn < cut)), t.filter(pa.array(lsn >= cut))
        if lo.num_rows:
            pq.write_table(lo, os.path.join(e0, os.path.basename(p)))
        if hi.num_rows:
            pq.write_table(hi, os.path.join(e1, os.path.basename(p)))
    replay(e0, lake, num_partitions=16)
    replay(e1, lake)
    return lake


def _as_map(t: pa.Table):
    return {
        r["source"]: (r["n_docs"], r["total_tokens"], r["mean_tokens"])
        for r in t.to_pylist()
    }


def _both_plans(view: str, lake: str, base: pa.Table, a: int, b: int | None = None):
    """The maintained ``view`` ("budget" or "histogram") across (a, b]
    by the plan the refresh picks, then by the delta plan itself: the
    pair stage stays covered on spans the refresh recomputes."""
    from ton_etl_ray.ops import tokens

    fns = {"budget": (tokens.incremental_source_budget, tokens._delta_source_budget),
           "histogram": (tokens.incremental_token_histogram, tokens._delta_token_histogram)}
    return [fn(lake, base, a, b) for fn in fns[view]]


def test_incremental_matches_full_recompute(two_epoch_lake):
    from ton_etl_ray.ops.tokens import incremental_source_budget, source_budget_at

    base = source_budget_at(two_epoch_lake, 0)
    want = source_budget_at(two_epoch_lake, 1)
    for got in (incremental_source_budget(two_epoch_lake, base, 0, 1),
                *_both_plans("budget", two_epoch_lake, base, 0, 1)):
        assert _as_map(got) == _as_map(want)
    # the maintained view is not a no-op: epoch 1 changed the mixture
    assert _as_map(base) != _as_map(want)


def test_incremental_source_disappears(tmp_path, ray_session):
    """Deleting every doc of one source drops it from the view."""
    from ton_etl_ray.cdc.replay import replay
    from ton_etl_ray.ops.tokens import incremental_source_budget, source_budget_at

    e0, e1, lake = str(tmp_path / "e0"), str(tmp_path / "e1"), str(tmp_path / "lake")
    os.makedirs(e0), os.makedirs(e1)

    def shard(path, rows):
        pq.write_table(
            pa.table(
                {"lsn": pa.array([r[0] for r in rows], pa.int64()),
                 "op": pa.array([r[1] for r in rows], pa.string()),
                 "doc_id": pa.array([r[2] for r in rows], pa.string()),
                 "tokens": pa.array([r[3] for r in rows], pa.list_(pa.int32())),
                 "n_tok": pa.array([len(r[3]) for r in rows], pa.int32()),
                 "source": pa.array([r[4] for r in rows], pa.string())}
            ),
            path,
        )

    shard(os.path.join(e0, "s0.parquet"), [
        (1, "c", "a1", [1, 2], "web"),
        (2, "c", "a2", [3], "web"),
        (3, "c", "b1", [4, 5, 6], "books"),
    ])
    shard(os.path.join(e1, "s1.parquet"), [
        (10, "d", "b1", [], "books"),        # books vanishes
        (11, "u", "a1", [7, 8, 9], "web"),   # web re-weighted
    ])
    replay(e0, lake, num_partitions=4)
    replay(e1, lake)

    base = source_budget_at(lake, 0)
    for got in (incremental_source_budget(lake, base, 0, 1), *_both_plans("budget", lake, base, 0, 1)):
        m = _as_map(got)
        assert "books" not in m
        assert m["web"] == (2, 4, 2.0)  # a1 now 3 toks, a2 1 tok


def test_incremental_histogram_matches_full(two_epoch_lake):
    from ton_etl_ray.ops.tokens import (
        incremental_token_histogram, token_histogram_at,
    )

    base = token_histogram_at(two_epoch_lake, 0)
    want = token_histogram_at(two_epoch_lake, 1)
    for got in (incremental_token_histogram(two_epoch_lake, base, 0, 1),
                *_both_plans("histogram", two_epoch_lake, base, 0, 1)):
        assert got.to_pydict() == want.to_pydict()
    assert base.to_pydict() != want.to_pydict()


def test_histogram_at_matches_duckdb(two_epoch_lake):
    """The full-recompute base itself cross-checked against DuckDB
    unnest(tokens) over the epoch-pinned lake parquet."""
    import duckdb

    from ton_etl_ray.cdc import sink
    from ton_etl_ray.ops.tokens import token_histogram_at

    files = sink.lake_files(two_epoch_lake, 1)
    want = duckdb.sql(
        f"""SELECT CAST(t AS INT) AS token, count(*) AS n_occurrences
            FROM (SELECT unnest(tokens) AS t FROM read_parquet({files}))
            GROUP BY t ORDER BY token"""
    ).fetchall()
    got = list(zip(*token_histogram_at(two_epoch_lake, 1).to_pydict().values()))
    assert got == want


def test_ivm_across_compaction_is_noop(two_epoch_lake):
    """Compaction re-materializes identical state as a fresh epoch, so
    maintaining a view across it must change nothing (the delta is empty)."""
    from ton_etl_ray.cdc.compact import compact_lake
    from ton_etl_ray.cdc.sink import latest_epoch
    from ton_etl_ray.ops.tokens import incremental_source_budget, source_budget_at

    before = latest_epoch(two_epoch_lake)
    compact_lake(two_epoch_lake)
    after = latest_epoch(two_epoch_lake)
    assert after == before + 1

    view = source_budget_at(two_epoch_lake, before)
    for got in (incremental_source_budget(two_epoch_lake, view, before, after),
                *_both_plans("budget", two_epoch_lake, view, before, after)):
        assert got.to_pydict() == view.to_pydict()


def test_ivm_property_random_logs(tmp_path, ray_session):
    """Randomized two-epoch logs (different seeds, sizes, cut points):
    maintained view == full recompute, every time."""
    from ton_etl_ray.cdc.replay import replay
    from ton_etl_ray.gen import write_change_log
    from ton_etl_ray.ops.tokens import source_budget_at

    for i, (seed, events, keys, cut_frac) in enumerate(
        [(101, 12_000, 900, 0.3), (202, 20_000, 2_500, 0.7),
         (303, 8_000, 300, 0.5)]
    ):
        base = tmp_path / f"case{i}"
        chg, lake = str(base / "chg"), str(base / "lake")
        write_change_log(chg, num_events=events, num_keys=keys, seed=seed,
                         num_shards=4, max_tok=12)
        e0, e1 = str(base / "e0"), str(base / "e1")
        os.makedirs(e0), os.makedirs(e1)
        cut = int(events * cut_frac)
        for p in sorted(glob.glob(os.path.join(chg, "*.parquet"))):
            t = pq.read_table(p)
            lsn = t["lsn"].to_numpy()
            lo, hi = t.filter(pa.array(lsn < cut)), t.filter(pa.array(lsn >= cut))
            if lo.num_rows:
                pq.write_table(lo, os.path.join(e0, os.path.basename(p)))
            if hi.num_rows:
                pq.write_table(hi, os.path.join(e1, os.path.basename(p)))
        replay(e0, lake, num_partitions=8)
        replay(e1, lake)
        want = source_budget_at(lake, 1)
        for got in _both_plans("budget", lake, source_budget_at(lake, 0), 0, 1):
            assert got.to_pydict() == want.to_pydict(), f"case {i} diverged"


def test_delta_sources_agree(two_epoch_lake):
    """The maintained view equals the full recompute; commits also
    carry the min_lsn stream-ordering proof."""
    from conftest import lsn_ordered_span
    from ton_etl_ray.ops.tokens import incremental_source_budget, source_budget_at

    ordered, _ = lsn_ordered_span(two_epoch_lake, 0, 1)
    assert ordered  # commits carry the min_lsn proof
    base = source_budget_at(two_epoch_lake, 0)
    got = incremental_source_budget(two_epoch_lake, base, 0, 1)
    assert _as_map(got) == _as_map(source_budget_at(two_epoch_lake, 1))


@pytest.fixture(scope="module")
def retouch_lake(tmp_path_factory, ray_session):
    """Keys that cross the tombstone boundary between epochs: X dead at
    epoch 0 and re-created in epoch 1 (its epoch-0 stored row is a
    TOMBSTONE), W live at 0 and deleted in 1, V re-deleted in 1 while
    already dead — the delta's −1 side must skip stored tombstones."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from ton_etl_ray.cdc.replay import replay

    def log(rows):
        lsn, op, doc, toks, src = zip(*rows)
        n_tok = [len(t) if t is not None else None for t in toks]
        return pa.table({
            "lsn": pa.array(lsn, pa.int64()),
            "op": pa.array(op, pa.string()),
            "doc_id": pa.array(doc, pa.string()),
            "tokens": pa.array(toks, pa.list_(pa.int32())),
            "n_tok": pa.array(n_tok, pa.int32()),
            "source": pa.array(src, pa.string()),
            "ts_ms": pa.array([1_700_000_000_000 + l for l in lsn], pa.int64()),
        })

    base = tmp_path_factory.mktemp("retouch")
    e0, e1, lake = str(base / "e0"), str(base / "e1"), str(base / "lake")
    os.makedirs(e0), os.makedirs(e1)
    pq.write_table(log([
        (1, "c", "X", [1, 2], "s1"),
        (2, "d", "X", None, None),
        (3, "c", "Y", [3, 3, 4], "s1"),
        (4, "c", "W", [5], "s2"),
        (5, "c", "V", [6, 6], "s2"),
        (6, "d", "V", None, None),
    ]), os.path.join(e0, "shard-0.parquet"))
    pq.write_table(log([
        (10, "c", "X", [7, 8, 9], "s2"),   # re-create over a tombstone
        (11, "u", "Y", [3], "s1"),         # plain update
        (12, "c", "Z", [1], "s3"),         # plain add
        (13, "d", "W", None, None),        # live -> deleted
        (14, "d", "V", None, None),        # dead -> re-deleted
    ]), os.path.join(e1, "shard-0.parquet"))
    replay(e0, lake, num_partitions=4)
    replay(e1, lake)
    return lake


def test_retouched_tombstones_agree(retouch_lake):
    from ton_etl_ray.ops.tokens import (
        incremental_source_budget, incremental_token_histogram,
        source_budget_at, token_histogram_at)

    base_b = source_budget_at(retouch_lake, 0)
    want_b = _as_map(source_budget_at(retouch_lake, 1))
    base_h = token_histogram_at(retouch_lake, epoch=0)
    want_h = {r["token"]: r["n_occurrences"]
              for r in token_histogram_at(retouch_lake, epoch=1).to_pylist()}
    for got_b in (incremental_source_budget(retouch_lake, base_b, 0, 1),
                  *_both_plans("budget", retouch_lake, base_b, 0, 1)):
        assert _as_map(got_b) == want_b
    for got_h in (incremental_token_histogram(retouch_lake, base_h, 0, 1),
                  *_both_plans("histogram", retouch_lake, base_h, 0, 1)):
        assert {r["token"]: r["n_occurrences"] for r in got_h.to_pylist()} == want_h


def test_reshard_breaks_alignment(tmp_path, ray_session):
    """A compaction re-shard breaks partition alignment between the
    epochs around it; the maintained views split such a span at the
    compaction and stay exact. The lake runs replay at width 16, then
    compactions to 7, back to 16 and to 5 with a replay after each, so
    the spans cover one re-shard (16→7), a round trip with equal
    endpoint widths (16→7→16) and 7→5. Every span (a, b] of both views
    equals the full recompute at b. Also: a width change outside a
    compaction is refused, and commits stripped of min_lsn (older
    engine) lose the stream-ordering proof."""
    import json

    from conftest import lsn_ordered_span
    from ton_etl_ray.cdc import sink
    from ton_etl_ray.cdc.compact import compact_lake
    from ton_etl_ray.cdc.replay import replay
    from ton_etl_ray.gen import write_change_log
    from ton_etl_ray.ops.tokens import (
        incremental_source_budget, incremental_token_histogram,
        source_budget_at, token_histogram_at)

    chg, lake = str(tmp_path / "chg"), str(tmp_path / "lake")
    write_change_log(chg, num_events=5000, num_keys=400, seed=37, num_shards=4, max_tok=12)
    slices = [str(tmp_path / f"s{i}") for i in range(4)]
    for d in slices:
        os.makedirs(d)
    for p in sorted(glob.glob(os.path.join(chg, "*.parquet"))):
        t = pq.read_table(p)
        part = t["lsn"].to_numpy() * len(slices) // 5000
        for i, d in enumerate(slices):
            pq.write_table(t.filter(pa.array(part == i)), os.path.join(d, os.path.basename(p)))
    replay(slices[0], lake, num_partitions=16)
    for d, width in zip(slices[1:], (7, 16, 5)):
        compact_lake(lake, num_partitions=width)
        replay(d, lake)
    head = sink.latest_epoch(lake)
    widths = [int(sink.read_commit(lake, e)["num_partitions"]) for e in range(head + 1)]
    assert widths == [16, 7, 7, 16, 16, 5, 5]

    budget = [source_budget_at(lake, e) for e in range(head + 1)]
    hist = [token_histogram_at(lake, e) for e in range(head + 1)]
    for b in range(1, head + 1):
        for a in range(b):
            for got in _both_plans("budget", lake, budget[a], a, b):
                assert got.to_pydict() == budget[b].to_pydict(), (a, b)
            for got in _both_plans("histogram", lake, hist[a], a, b):
                assert got.to_pydict() == hist[b].to_pydict(), (a, b)

    # a layout change that is not a compaction cannot be split
    cpath = os.path.join(lake, f"epoch-{head:06d}", "_COMMIT.json")
    with open(cpath) as f:
        c = json.load(f)
    with open(cpath, "w") as f:
        json.dump(dict(c, num_partitions=9), f)
    for got in (incremental_source_budget, incremental_token_histogram):
        with pytest.raises(ValueError, match="compact_lake"):
            got(lake, budget[3] if got is incremental_source_budget else hist[3], 3, head)

    # min_lsn proof: stripping the field makes the span unprovable
    assert lsn_ordered_span(lake, 0, 1)[0] is False  # epoch 1 is a compaction
    cpath = os.path.join(lake, "epoch-000002", "_COMMIT.json")
    assert lsn_ordered_span(lake, 1, 2)[0]
    with open(cpath) as f:
        c = json.load(f)
    c.pop("min_lsn", None)
    with open(cpath, "w") as f:
        json.dump(c, f)
    assert not lsn_ordered_span(lake, 1, 2)[0]


def _write_log(path, rows, n_tok_type=pa.int32()):
    """One change shard from (lsn, op, doc_id, tokens, n_tok, source)."""
    lsn, op, doc, toks, n_tok, src = zip(*rows)
    pq.write_table(pa.table({
        "lsn": pa.array(lsn, pa.int64()),
        "op": pa.array(op, pa.string()),
        "doc_id": pa.array(doc, pa.string()),
        "tokens": pa.array(toks, pa.list_(pa.int32())),
        "n_tok": pa.array(n_tok, n_tok_type),
        "source": pa.array(src, pa.string()),
    }), path)


def _two_epoch(tmp_path, rows0, rows1, num_partitions, **kw):
    from ton_etl_ray.cdc.replay import replay

    e0, e1, lake = (str(tmp_path / n) for n in ("e0", "e1", "lake"))
    os.makedirs(e0), os.makedirs(e1)
    _write_log(os.path.join(e0, "s0.parquet"), rows0, **kw)
    _write_log(os.path.join(e1, "s1.parquet"), rows1, **kw)
    replay(e0, lake, num_partitions=num_partitions)
    replay(e1, lake)
    return lake


def test_incremental_exact_past_2_53(tmp_path, ray_session):
    """The driver fold sums in int64: a source whose token total passes
    2^53 (where a float64 detour drops low bits) stays exact."""
    from ton_etl_ray.ops.tokens import source_budget_at

    big = 1 << 52
    lake = _two_epoch(tmp_path, [
        (1, "c", "a", [1], big + 1, "huge"),
        (2, "c", "b", [2], big + 3, "huge"),
        (3, "c", "c", [3], 5, "small"),
    ], [
        (10, "u", "a", [4], big + 7, "huge"),
        (11, "c", "d", [5], 9, "huge"),
    ], num_partitions=4, n_tok_type=pa.int64())

    want = source_budget_at(lake, 1)
    for got in _both_plans("budget", lake, source_budget_at(lake, 0), 0, 1):
        assert got.to_pydict() == want.to_pydict()
        m = {r["source"]: r["total_tokens"] for r in got.to_pylist()}
        assert m == {"huge": 2 * big + 19, "small": 5}
        assert m["huge"] > 1 << 53 and m["huge"] % 2 == 1


def test_incremental_histogram_exact_past_2_53(tmp_path, ray_session):
    """The histogram's delta plan folds base + delta in int64: a base
    count above 2^53 (where a float64 detour drops low bits) stays
    exact. The base is not the lake's view at epoch 0, so only the
    delta plan can show it (a recompute ignores the base)."""
    from ton_etl_ray.ops.tokens import _delta_token_histogram, token_histogram_at

    lake = _two_epoch(tmp_path, [
        (1, "c", "a", [1, 1, 2], 3, "web"),
        (2, "c", "b", [2], 1, "web"),
    ], [
        (10, "u", "a", [1], 1, "web"),
        (11, "c", "c", [3, 3], 2, "web"),
    ], num_partitions=4)
    big = 1 << 53
    base = token_histogram_at(lake, 0)
    assert base.to_pydict() == {"token": [1, 2], "n_occurrences": [2, 2]}
    base = base.set_column(1, "n_occurrences", pa.array([2 + big, 2], pa.int64()))

    got = _delta_token_histogram(lake, base, 0, 1)
    assert got.to_pydict() == {"token": [1, 2, 3], "n_occurrences": [1 + big, 1, 2]}
    assert got["n_occurrences"][0].as_py() % 2 == 1


def test_incremental_partition_born_and_emptied(tmp_path, ray_session, bucket_files):
    """Spans where one partition gains its first row and another loses
    its last. Replay keeps a 0-row file for the emptied partition;
    compaction drops it, so the span to the compacted epoch feeds the
    fold from both one-sided pair kinds (b-only and a-only)."""
    from ton_etl_ray.cdc import sink
    from ton_etl_ray.cdc.compact import compact_lake
    from ton_etl_ray.core.partition import assign_partitions
    from ton_etl_ray.ops.tokens import source_budget_at

    nparts = 8
    keys = [f"k{i}" for i in range(200)]
    by_part: dict[int, str] = {}
    for k, p in zip(keys, assign_partitions(pa.array(keys), nparts).tolist()):
        by_part.setdefault(p, k)
    emptied, born, kept = sorted(by_part)[:3]
    lake = _two_epoch(tmp_path, [
        (1, "c", by_part[emptied], [1, 2], 2, "web"),
        (2, "c", by_part[kept], [3], 1, "web"),
    ], [
        (10, "d", by_part[emptied], None, None, None),
        (11, "c", by_part[born], [4, 5, 6], 3, "books"),
    ], num_partitions=nparts)
    compact_lake(lake)
    c0, c2 = (sink.read_commit(lake, e) for e in (0, 2))

    def at(c, bucket):  # the entry whose range holds bucket
        return next(ent for lo, hi, ent in sink.ranges(c) if lo <= bucket < hi)

    assert at(c0, born)["path"] == "" and at(c2, born)["path"]
    assert at(c0, emptied)["path"] and at(c2, emptied)["path"] == ""

    base = source_budget_at(lake, 0)
    for eb in (1, 2):
        for got in _both_plans("budget", lake, base, 0, eb):
            assert got.to_pydict() == source_budget_at(lake, eb).to_pydict(), eb
            assert _as_map(got) == {"web": (1, 1, 1.0), "books": (1, 3, 3.0)}


def test_aligned_pair_stage_sized_by_bytes(two_epoch_lake, tmp_path, exchange_plan):
    """The pair stage's Ray plan packs components into byte-sized
    blocks: on a small lake of one file per bucket it runs at most
    min(pairs, 2 × cpus) tasks, not one task per pair."""
    import re

    import ray

    from ton_etl_ray.cdc import sink
    from ton_etl_ray.cdc.delta import delta_stream
    from ton_etl_ray.cdc.replay import replay
    from ton_etl_ray.ops.tokens import _budget_partials, _signed

    base, lake = os.path.dirname(two_epoch_lake), str(tmp_path / "lake")
    replay(os.path.join(base, "e0"), lake, num_partitions=16)
    replay(os.path.join(base, "e1"), lake)
    cpus = int(ray.cluster_resources()["CPU"])
    c0, c1 = (sink.read_commit(lake, e)["partitions"] for e in (0, 1))
    pairs = sum(c0.get(p, {}).get("path") != c1.get(p, {}).get("path")
                for p in c0.keys() | c1.keys())
    stream = delta_stream(lake, 0, 1, ["source", "n_tok"],
                          _signed(_budget_partials)).materialize()
    tasks = int(re.search(r"MapBatches\(changed_rows\): (\d+) tasks executed",
                          stream.stats()).group(1))
    assert pairs > 2 * cpus  # the bound is below one task per pair
    assert tasks <= min(pairs, max(2 * cpus, 1))


def test_budget_partials_null_source_and_n_tok():
    """A null source is a group of its own; a null ``n_tok`` counts as
    a doc and adds 0 tokens, also in a group whose every ``n_tok`` is
    null."""
    from ton_etl_ray.ops.tokens import _DELTA_SCHEMA, _budget_partials

    t = pa.table({"source": pa.array(["a", None, "a", None, "b", "c"]),
                  "n_tok": pa.array([1, 2, None, None, 5, None], pa.int32())})
    for sign in (1, -1):
        got = _budget_partials(t, sign)
        assert got.schema == _DELTA_SCHEMA
        assert {r["source"]: (r["docs"], r["toks"]) for r in got.to_pylist()} == {
            "a": (2 * sign, sign), None: (2 * sign, 2 * sign), "b": (sign, 5 * sign), "c": (sign, 0)}
    assert _budget_partials(t.slice(0, 0)).equals(_DELTA_SCHEMA.empty_table())


def test_budget_exact_over_int32_and_int64_files(tmp_path, ray_session, bucket_files):
    """Schema evolution widens ``n_tok`` to int64 in the partitions an
    epoch rewrites while inherited ones keep int32 files: the base's
    concatenated files and each sign of the pair stage mix both widths,
    and every view stays exact past the int32 range."""
    from ton_etl_ray.cdc import sink
    from ton_etl_ray.cdc.replay import replay
    from ton_etl_ray.core.partition import assign_partitions
    from ton_etl_ray.ops.tokens import source_budget_at

    keys = [f"k{i}" for i in range(100)]
    parts = assign_partitions(pa.array(keys), 4).tolist()
    k = {p: [key for key, q in zip(keys, parts) if q == p][:2] for p in range(4)}
    top, big = (1 << 31) - 1, (1 << 40) + 1
    epochs = [
        ([(i + 1, "c", key, [1], top - i, "web")
          for i, key in enumerate(k[0] + k[1] + k[2] + k[3])], pa.int32()),
        # rewrites partitions 0 and 1 only, as int64
        ([(100, "u", k[0][0], [2], big, "books"), (101, "u", k[1][0], [2], big, "web")], pa.int64()),
        # the old side holds int64 (partition 1) and int32 files (2, 3)
        ([(200, "u", k[1][1], [3], big, "books"), (201, "u", k[2][0], [3], 7, "web"),
          (202, "d", k[3][0], None, None, None)], pa.int64()),
    ]
    lake, state, want = str(tmp_path / "lake"), {}, []
    for e, (rows, n_tok_type) in enumerate(epochs):
        d = str(tmp_path / f"e{e}")
        os.makedirs(d)
        _write_log(os.path.join(d, "s.parquet"), rows, n_tok_type)
        replay(d, lake, num_partitions=4)
        for _, op, key, _, n_tok, src in rows:
            if op == "d":
                del state[key]
            else:
                state[key] = (src, n_tok)
        sums = {}
        for src, n_tok in state.values():
            docs, toks = sums.get(src, (0, 0))
            sums[src] = (docs + 1, toks + n_tok)
        want.append({s: (docs, toks, round(toks / docs, 4)) for s, (docs, toks) in sums.items()})
    widths = {f: pq.read_schema(f).field("n_tok").type for f in sink.lake_files(lake, 1)}
    assert set(widths.values()) == {pa.int32(), pa.int64()}
    for e in range(3):
        assert _as_map(source_budget_at(lake, e)) == want[e], e
    for a, b in ((0, 1), (1, 2), (0, 2)):
        for got in _both_plans("budget", lake, source_budget_at(lake, a), a, b):
            assert _as_map(got) == want[b], (a, b)


def test_zipper_returns_exactly_the_changed_rows():
    """On a pair with an unchanged (u), updated (p), deleted (d) and
    added (n) key, the zipper returns a's rows of p and d and b's rows
    of p and n, in each side's own types."""
    from ton_etl_ray.cdc.delta import zip_changed

    ta = pa.table({"doc_id": ["d", "p", "u"], "lsn": pa.array([1, 2, 3], pa.int64()),
                   "n_tok": pa.array([1, 2, 1], pa.int32()),
                   "tokens": pa.array([[1], [2, 2], [3]], pa.list_(pa.int32()))})
    tb = pa.table({"doc_id": ["n", "p", "u"], "lsn": pa.array([9, 8, 3], pa.int64()),
                   "n_tok": pa.array([3, 1, 1], pa.int64()),
                   "tokens": pa.array([[4, 4, 4], [5], [3]], pa.list_(pa.int32()))})
    old, new = zip_changed(ta, tb)
    assert old.equals(ta.slice(0, 2))
    assert new.equals(tb.slice(0, 2))
    unchanged = zip_changed(ta, ta)
    assert [t.num_rows for t in unchanged] == [0, 0]


def test_null_source_view(tmp_path, ray_session):
    """A doc with a null source is a view row of its own (sorted last),
    in the recompute and the maintained view alike."""
    from ton_etl_ray.ops.tokens import source_budget_at

    lake = _two_epoch(tmp_path, [
        (1, "c", "a", [1], 1, "web"),
        (2, "c", "b", [2, 2], 2, None),
    ], [
        (10, "c", "c", [3, 3, 3], 3, None),
        (11, "u", "a", [4], 1, None),
    ], num_partitions=4)
    want = source_budget_at(lake, 1)
    assert want.to_pydict() == {"source": [None], "n_docs": [3], "total_tokens": [6],
                                "mean_tokens": [2.0]}
    for got in _both_plans("budget", lake, source_budget_at(lake, 0), 0, 1):
        assert got.equals(want)
    assert source_budget_at(lake, 0)["source"].to_pylist() == ["web", None]


def test_emptied_lake_reads_empty(tmp_path, ray_session):
    """A create then a delete of the only doc leaves a committed lake
    without a live row: ``final_state_table`` is an empty table with the
    lake schema, both views are empty, and the epoch delta reports the
    one deleted key."""
    from ton_etl_ray.cdc import sink
    from ton_etl_ray.cdc.replay import epoch_diff, final_state_table
    from ton_etl_ray.ops.tokens import source_budget_at, token_histogram_at

    lake = _two_epoch(tmp_path, [(1, "c", "only", [1, 2], 2, "web")],
                      [(2, "d", "only", None, None, None)], num_partitions=2)
    state = final_state_table(lake)
    assert state.num_rows == 0 and state.schema == sink.lake_schema(lake)
    assert final_state_table(lake, 0).num_rows == 1
    assert source_budget_at(lake).num_rows == 0 and token_histogram_at(lake).num_rows == 0
    assert all(got.num_rows == 0 for got in _both_plans("budget", lake, source_budget_at(lake, 0), 0))
    assert epoch_diff(lake, 0).take_all() == [
        {"doc_id": "only", "change": "deleted", "lsn_from": 1, "lsn_to": None}]


def test_refresh_reads_the_cheaper_plan(tmp_path, ray_session, monkeypatch):
    """The refresh plan is chosen from the commit JSONs before any read.
    On a 64-bucket lake of many files (4 KiB files: ``BLOCK_BYTES`` of
    256 KiB keeps every plan in-process) a span that rewrote one file
    runs the pair stage and reads exactly that pair; a span that
    rewrote every file, and one across a compaction, read no file of epoch a
    (the recompute at b). Once ``gc_epochs`` collected epoch a's
    files, the recompute still refreshes the view while the delta plan
    raises "garbage-collected"."""
    from ton_etl_ray.cdc import delta, sink
    from ton_etl_ray.cdc.compact import compact_lake
    from ton_etl_ray.cdc.replay import replay
    from ton_etl_ray.core.partition import assign_partitions
    from ton_etl_ray.ops.tokens import (
        _delta_source_budget, _delta_token_histogram, incremental_source_budget,
        incremental_token_histogram, source_budget_at, token_histogram_at)
    from ton_etl_ray.ops import _util

    monkeypatch.setattr(_util, "BLOCK_BYTES", 256 << 10)
    nparts, lake = 64, str(tmp_path / "lake")
    keys = [f"k{i}" for i in range(2000)]
    first = {}
    for k, p in zip(keys, assign_partitions(pa.array(keys), nparts).tolist()):
        first.setdefault(p, k)
    assert len(first) == nparts
    epochs = [
        [(i + 1, "c", k, [i % 7], 1, "web" if i % 3 else "books") for i, k in enumerate(keys)],
        [(5000, "u", keys[0], [1, 2], 2, "code")],
        [(6000 + p, "u", k, [3], 1, "wiki") for p, k in sorted(first.items())],
    ]
    for e, rows in enumerate(epochs):
        d = str(tmp_path / f"e{e}")
        os.makedirs(d)
        _write_log(os.path.join(d, "s.parquet"), rows)
        replay(d, lake, num_partitions=nparts)
    compact_lake(lake)
    budget = [source_budget_at(lake, e) for e in range(4)]
    hist = [token_histogram_at(lake, e) for e in range(4)]

    reads = []
    real_read = sink.read_file
    monkeypatch.setattr(sink, "read_file", lambda path, columns=None: (
        reads.append(os.path.abspath(path)), real_read(path, columns))[1])

    def refresh(a, b):
        """Both views across (a, b], each equal to the recompute at b;
        returns the set of files the two refreshes read."""
        reads.clear()
        assert incremental_source_budget(lake, budget[a], a, b).equals(budget[b])
        assert incremental_token_histogram(lake, hist[a], a, b).equals(hist[b])
        return set(reads)

    def files(e):
        return {os.path.abspath(f) for f in sink.lake_files(lake, e)}

    c0, c1 = (sink.read_commit(lake, e)["partitions"] for e in (0, 1))
    pair = [p for p in c0 if c0[p]["path"] != c1[p]["path"]]
    assert len(pair) == 1
    runs = delta._runs(lake, 0, 1)
    assert delta.pair_rows(runs) < sink.read_commit(lake, 1)["rows_total"]
    assert refresh(0, 1) == {os.path.abspath(os.path.join(lake, c[pair[0]]["path"]))
                             for c in (c0, c1)}

    for a, b in ((1, 2), (2, 3), (0, 3)):  # every partition, a compaction, both
        assert delta.pair_rows(delta._runs(lake, a, b)) >= sink.read_commit(lake, b)["rows_total"]
        got = refresh(a, b)
        assert got <= files(b) and not got & (files(a) - files(b)), (a, b)

    assert sink.gc_epochs(lake, keep_epochs=1)["deleted_files"] > 0
    assert not any(os.path.exists(f) for f in files(2))
    refresh(2, 3)
    for fold, base in ((_delta_source_budget, budget[2]), (_delta_token_histogram, hist[2])):
        with pytest.raises(ValueError, match="garbage-collected"):
            fold(lake, base, 2, 3)
