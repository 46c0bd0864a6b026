"""The two commit plans. Below one read block of input
(``ops._util.BLOCK_BYTES``) replay, the watcher,
compaction, the views, ``epoch_diff`` and the changefeed run in-process
(``local``); above it they run a Ray Data plan (``exchange``). The
oracle tests elsewhere use small inputs, so they run the local plan;
each runs again here under the forced exchange."""

import ast
import glob
import os
import shutil

import pytest
import test_changefeed
import test_compact
import test_incremental
import test_ivm
import test_replay
import test_replay_late
import test_streaming
import test_time_travel
from conftest import narrow_exchange

from ton_etl_ray.cdc import sink
from ton_etl_ray.cdc.changefeed import FeedFollower
from ton_etl_ray.cdc.compact import compact_lake
from ton_etl_ray.cdc.replay import final_state_table, replay
from ton_etl_ray.cdc.streaming import DirectoryWatcher
from ton_etl_ray.gen import write_change_log
from ton_etl_ray.ops.tokens import (
    incremental_source_budget, incremental_token_histogram, source_budget_at,
    token_histogram_at,
)

ORACLE_TESTS = {
    "replay": test_replay.test_replay_matches_oracle,
    "replay_epochs": test_replay.test_incremental_epochs_equal_oneshot,
    "replay_schema_evolution": test_replay.test_replay_schema_evolution,
    "ingest_schema_evolution": test_incremental.test_microbatch_schema_evolution,
    "compact_schema_evolution": lambda p: test_compact.test_compact_schema_evolved_lake(None, p),
    "ingest": test_incremental.test_microbatch_matches_duckdb_oracle,
    "watcher": test_streaming.test_watch_microbatches_equal_oneshot,
    "compact": lambda p: test_compact.test_compact_preserves_state_and_enables_gc(None, p),
    "compact_reshard": lambda p: test_compact.test_compact_reshard_and_incremental_on_top(None, p),
    "ivm": lambda p: test_ivm.test_ivm_property_random_logs(p, None),
    "ivm_reshard": lambda p: test_ivm.test_reshard_breaks_alignment(p, None),
    "late": test_replay_late.test_late_equals_eager_and_oracle,
    "late_on_eager": test_replay_late.test_late_incremental_on_eager_lake,
    "late_resume": test_replay_late.test_late_resume_after_partial_commit,
    "late_bloom": test_replay_late.test_bloom_filter_mode_equals_exact,
    "late_manifests": test_replay_late.test_late_epoch_commits_real_manifests,
    "epoch_diff": lambda p: test_time_travel.test_epoch_diff_classifies_all_three(None, p),
    "epoch_diff_gc_guard": lambda p: test_compact.test_compact_refuses_nothing_and_epoch_diff_gc_guard(None, p),
    "feed_replica": lambda p: test_changefeed.test_snapshot_plus_feed_reproduces_primary(
        test_changefeed.two_epoch_primary(p), p),
    "feed_ops": lambda p: test_changefeed.test_feed_carries_classified_ops(
        test_changefeed.two_epoch_primary(p), p),
    "feed_empty": lambda p: test_changefeed.test_empty_changefeed_is_replayable(
        test_changefeed.two_epoch_primary(p), p),
    "feed_prune": lambda p: test_changefeed.test_prune_feeds_reseeds_head_snapshot(
        test_changefeed.three_epoch_chain(p), p),
    "feed_reshard": lambda p: test_changefeed.test_reshard_spans_diff_and_feed_exact(p, None),
}


@pytest.mark.parametrize("name", sorted(ORACLE_TESTS))
def test_oracle_under_exchange_plan(name, tmp_path, exchange_plan):
    ORACLE_TESTS[name](tmp_path)


def _writers(tmp_path):
    """Commit epoch 0 by replay (width 8), epoch 1 by replay with the
    object store stubbed to nothing (the narrow exchange under the
    exchange plan; the local plan has no choice to make), epoch 2 by a
    compaction that re-shards to 5 and epoch 3 by the watcher, which
    publishes the feed of every epoch (a snapshot, then changefeeds, one
    across the re-shard); a follower applies the snapshot to a replica. Then refresh the budget view and the token
    histogram across the re-shard. Returns the lake and the plan each
    epoch's writer reported, then the replica's."""
    chg, lake, watch = (str(tmp_path / d) for d in ("chg", "lake", "watch"))
    write_change_log(chg, num_events=4000, num_keys=300, seed=81, num_shards=4, max_tok=8)
    files = sorted(glob.glob(os.path.join(chg, "*.parquet")))
    res = replay(files[:1], lake, num_partitions=8)
    with narrow_exchange():
        late = replay(files[1:2], lake)
    compact = compact_lake(lake, num_partitions=5)
    os.makedirs(watch)
    for f in files[2:]:
        shutil.copy(f, watch)
    feeds, replica = str(tmp_path / "feeds"), str(tmp_path / "replica")
    w = DirectoryWatcher(watch, lake, stable_polls=0, idle_flush_sec=0, feed_dir=feeds)
    ing = w.step()
    assert sorted(os.listdir(feeds)) == [f"epoch-{e:06d}" for e in range(4)]
    assert FeedFollower(feeds, replica, num_partitions=4).step() == 0
    assert final_state_table(replica).sort_by("doc_id").equals(
        final_state_table(lake, 0).sort_by("doc_id"))
    view = incremental_source_budget(lake, source_budget_at(lake, 0), 0, 3)
    assert view.equals(source_budget_at(lake, 3))
    hist = incremental_token_histogram(lake, token_histogram_at(lake, 0), 0, 3)
    assert hist.equals(token_histogram_at(lake, 3))
    return lake, [res.counters["plan"], late.counters["plan"], compact["plan"], ing["plan"],
                  sink.read_commit(replica, 0)["plan"]]


def test_small_inputs_start_no_ray_data_execution(tmp_path, monkeypatch):
    """Small replays (one with the object store stubbed to nothing), a
    re-shard compaction, a watcher epoch with its feeds, a follower
    step, and both views' base, refresh across the re-shard and
    recompute never start a Ray Data execution nor put an object into
    the object store, and record it."""
    import ray
    from ray.data._internal.execution.streaming_executor import StreamingExecutor

    def refuse(*a, **k):
        raise AssertionError("a Ray Data execution started or an object was put")

    monkeypatch.setattr(StreamingExecutor, "execute", refuse)
    monkeypatch.setattr(ray, "put", refuse)
    lake, plans = _writers(tmp_path)
    assert plans == ["local"] * 5
    assert [sink.read_commit(lake, e)["plan"] for e in range(4)] == plans[:4]
    assert "strategy" not in sink.read_commit(lake, 1)


def test_forced_exchange_records_plan(tmp_path, exchange_plan):
    lake, plans = _writers(tmp_path)
    assert plans == ["exchange"] * 5
    assert [sink.read_commit(lake, e)["plan"] for e in range(4)] == plans[:4]
    # both exchanges: epoch 1 ran the narrow one, the rest the payload one
    assert [sink.read_commit(lake, e).get("strategy") for e in range(4)] == [
        None, "late_materialization", None, None]


def test_writer_plan_lives_in_partition_apply():
    """The size decision and the Ray Data read → kernel → group → reduce
    plumbing of every lake writer exist once, in
    ``replay.partition_apply``: no other function of the writer modules
    calls ``local_plan``, ``map_groups`` or ``read_parquet`` — except
    the committed-lake reader ``read_lake``, which reads a lake and
    writes nothing, and ``_apply_changes``, which asks ``local_plan``
    only to skip its exchange-shape estimate below one read block."""
    pkg = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "ton_etl_ray", "cdc")
    allowed = {"local_plan": {"partition_apply", "_apply_changes"},
               "map_groups": {"partition_apply"},
               "read_parquet": {"partition_apply", "read_lake"}}
    offenders, found = [], set()
    for name in ("replay.py", "compact.py"):
        with open(os.path.join(pkg, name)) as f:
            tree = ast.parse(f.read())
        for top in tree.body:
            for node in ast.walk(top):
                if not isinstance(node, ast.Call):
                    continue
                fn = node.func
                call = fn.attr if isinstance(fn, ast.Attribute) else getattr(fn, "id", None)
                if call not in allowed:
                    continue
                owner = getattr(top, "name", "<module>")
                found.add((call, owner))
                if owner not in allowed[call]:
                    offenders.append(f"{name}:{node.lineno} {owner} calls {call}")
    assert not offenders, offenders
    # the scan sees the plan function itself
    assert {(c, "partition_apply") for c in allowed} <= found


def test_cdc_runs_no_shuffle_join():
    """The epoch delta is one hash-lookup derivation (``cdc.delta``):
    no module of ``ton_etl_ray/cdc/`` calls ``shuffle_join``."""
    root = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "ton_etl_ray", "cdc")
    paths = sorted(glob.glob(os.path.join(root, "*.py")))
    offenders = []
    for path in paths:
        with open(path) as f:
            tree = ast.parse(f.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                fn = node.func
                call = fn.attr if isinstance(fn, ast.Attribute) else getattr(fn, "id", None)
                if call == "shuffle_join":
                    offenders.append(f"{os.path.basename(path)}:{node.lineno}")
    assert len(paths) > 10  # the scan sees the package
    assert not offenders, offenders


def test_in_process_reads_go_through_read_file():
    """Every in-process read of a partition file or change shard in
    the lake writers and the token views is one ``sink.read_file`` (a
    change shard on the local plan: ``sink.read_changes``): no other
    function of ``ton_etl_ray/cdc/*.py`` or ``ops/tokens.py`` calls
    ``read_table``."""
    root = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "ton_etl_ray")
    paths = sorted(glob.glob(os.path.join(root, "cdc", "*.py")))
    paths.append(os.path.join(root, "ops", "tokens.py"))
    offenders = []
    for path in paths:
        with open(path) as f:
            tree = ast.parse(f.read())
        for top in tree.body:
            if path.endswith(os.path.join("cdc", "sink.py")) and getattr(top, "name", "") == "read_file":
                continue
            for node in ast.walk(top):
                if isinstance(node, ast.Call):
                    fn = node.func
                    call = fn.attr if isinstance(fn, ast.Attribute) else getattr(fn, "id", None)
                    if call == "read_table":
                        offenders.append(f"{os.path.relpath(path, root)}:{node.lineno}")
    assert len(paths) > 10  # the scan sees the package
    assert not offenders, offenders


def test_serve_round_decodes_no_partition_file(tmp_path, monkeypatch):
    """One serve-shaped round in one process (replay, the maintained
    view, its recompute and the snapshot scan) is served every lake
    partition file it reads from the written-partition memo: it opens
    none of them. With the memo emptied first, the same round on a copy
    of the lake decodes them from disk and returns the same results."""
    import sys

    import pyarrow.parquet as pq

    chg = str(tmp_path / "chg")
    write_change_log(chg, num_events=6000, num_keys=500, seed=85, num_shards=3, max_tok=8)
    files = sorted(glob.glob(os.path.join(chg, "*.parquet")))
    lake, copy = str(tmp_path / "lake"), str(tmp_path / "copy")
    replay(files[:2], lake, num_partitions=8)
    shutil.copytree(lake, copy)
    opened = []

    class Counting(pq.ParquetFile):
        def __init__(self, source, *a, **kw):
            opened.append(os.path.abspath(str(source)))
            super().__init__(source, *a, **kw)

    def serve_round(lk):
        view = source_budget_at(lk, 0)
        opened.clear()
        with monkeypatch.context() as m:
            m.setattr(pq, "ParquetFile", Counting)
            assert replay(files[2:], lk).epoch == 1
            out = (incremental_source_budget(lk, view, 0, 1), source_budget_at(lk, 1),
                   final_state_table(lk).sort_by("doc_id"))
        lake_opens = [f for f in opened if f.startswith(os.path.abspath(lk) + os.sep)]
        return out, lake_opens

    warm, warm_opens = serve_round(lake)
    assert warm_opens == []
    monkeypatch.delattr(sys, "_tonray_written", raising=False)
    cold, cold_opens = serve_round(copy)
    assert {os.path.relpath(f, copy) for f in cold_opens} >= {
        os.path.relpath(f, lake) for f in sink.lake_files(lake, 0)}
    for w, c in zip(warm, cold):
        assert w.equals(c)


def test_touched_state_counts_toward_the_size_rule(tmp_path, monkeypatch):
    """A change batch smaller than one read block still takes the
    exchange when the committed state of the partitions it touches
    makes the epoch larger than one block; the result is the same."""
    from ton_etl_ray.ops import _util

    chg, lake = str(tmp_path / "chg"), str(tmp_path / "lake")
    write_change_log(chg, num_events=4000, num_keys=300, seed=83, num_shards=4, max_tok=8)
    files = sorted(glob.glob(os.path.join(chg, "*.parquet")))
    assert replay(files[:3], lake, num_partitions=8).counters["plan"] == "local"
    monkeypatch.setattr(_util, "BLOCK_BYTES", os.path.getsize(files[3]) + 1)
    res = replay(files[3:], lake)
    assert res.counters["plan"] == "exchange"
    got = final_state_table(lake).select(["doc_id", "tokens", "n_tok", "source"])
    assert test_replay._as_map(got) == test_replay._as_map(test_replay._oracle(chg))

