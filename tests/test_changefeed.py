"""Changefeed export: snapshot(a) + changefeed(a→b) replayed into a
fresh replica must reproduce the primary's epoch-b state exactly —
the engine's consume→convert→re-produce loop at committed-state level
(reference datalake/streaming.py exporter shape)."""

import glob
import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest


@pytest.fixture(scope="module")
def primary(tmp_path_factory, ray_session):
    return two_epoch_primary(tmp_path_factory.mktemp("cf"))


def two_epoch_primary(base):
    """A 16-partition lake with two replayed epochs (lsn halves of one
    log); returns the lake dir."""
    from ton_etl_ray.cdc.replay import replay
    from ton_etl_ray.gen import write_change_log

    chg, lake = str(base / "chg"), str(base / "lake")
    write_change_log(chg, num_events=50_000, num_keys=4_000, seed=47,
                     num_shards=8, max_tok=16)
    e0, e1 = str(base / "e0"), str(base / "e1")
    os.makedirs(e0), os.makedirs(e1)
    cut = 25_000
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


def _state_map(lake, epoch=None):
    from ton_etl_ray.cdc.replay import final_state_table

    t = final_state_table(lake, epoch).to_pandas()
    return {r.doc_id: (list(r.tokens), r.n_tok, r.source) for r in t.itertuples()}


def test_snapshot_plus_feed_reproduces_primary(primary, tmp_path):
    from ton_etl_ray.cdc.changefeed import emit_changefeed, emit_snapshot
    from ton_etl_ray.cdc.replay import replay

    snap, feed = str(tmp_path / "snap"), str(tmp_path / "feed")
    emit_snapshot(primary, snap, epoch=0)
    emit_changefeed(primary, feed, 0, 1)

    replica = str(tmp_path / "replica")
    replay(snap, replica, num_partitions=8)
    assert _state_map(replica) == _state_map(primary, 0)

    replay(feed, replica)
    assert _state_map(replica) == _state_map(primary, 1)


def test_feed_is_replay_idempotent(primary, tmp_path):
    """Applying the same feed twice must not change the replica (the
    at-least-once-delivery consumer contract)."""
    from ton_etl_ray.cdc.changefeed import emit_changefeed, emit_snapshot
    from ton_etl_ray.cdc.replay import replay

    snap, feed = str(tmp_path / "snap"), str(tmp_path / "feed")
    emit_snapshot(primary, snap, epoch=0)
    emit_changefeed(primary, feed, 0, 1)
    replica = str(tmp_path / "replica")
    replay(snap, replica, num_partitions=8)
    replay(feed, replica)
    once = _state_map(replica)
    replay(feed, replica)
    assert _state_map(replica) == once


def test_feed_carries_classified_ops(primary, tmp_path):
    """Feed rows carry c/u/d matching the diff classes, and tombstones
    outrank every replicated lsn."""
    import duckdb

    from ton_etl_ray.cdc.changefeed import emit_changefeed
    from ton_etl_ray.cdc.replay import epoch_diff
    from ton_etl_ray.cdc.sink import read_commit

    feed = str(tmp_path / "feed")
    emit_changefeed(primary, feed, 0, 1)
    shards = sorted(glob.glob(feed + "/*.parquet"))
    rows = duckdb.sql(
        f"SELECT op, count(*) n, max(lsn) mx FROM read_parquet({shards}, union_by_name=true) GROUP BY op"
    ).df().set_index("op")
    diff = epoch_diff(primary, 0, 1).to_pandas()
    want = diff["change"].value_counts()
    assert rows.loc["d", "n"] == want.get("deleted", 0)
    assert rows.loc["c", "n"] + rows.loc["u", "n"] == (
        want.get("added", 0) + want.get("updated", 0)
    )
    max_lsn = read_commit(primary, 1)["max_lsn"]
    assert rows.loc["d", "mx"] == max_lsn + 1


def test_maintain_cli_exports_feed(primary, tmp_path):
    """run_maintain --snapshot / --changefeed produce replayable logs
    from a fresh process; the replica replays them to the primary's
    state."""
    import json
    import subprocess
    import sys

    from ton_etl_ray.cdc.replay import replay

    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    snap, feed = str(tmp_path / "snap"), str(tmp_path / "feed")
    out = subprocess.run(
        [sys.executable, "-m", "ton_etl_ray.cdc.run_maintain",
         "--lake", primary, "--diff", "0", "--snapshot", snap,
         "--changefeed", feed, "--num-cpus", "4"],
        capture_output=True, text=True, timeout=600, cwd=repo,
    )
    assert out.returncode == 0, out.stderr[-2000:]
    by = {json.loads(l)["action"]: json.loads(l)
          for l in out.stdout.strip().splitlines() if l.startswith("{")}
    assert by["snapshot"]["epoch"] == 0 and by["changefeed"]["to_epoch"] == 1

    replica = str(tmp_path / "replica")
    replay(snap, replica, num_partitions=8)
    replay(feed, replica)
    assert _state_map(replica) == _state_map(primary, 1)


def test_export_refuses_nonempty_dir(primary, tmp_path):
    from ton_etl_ray.cdc.changefeed import emit_changefeed, emit_snapshot

    out = str(tmp_path / "out")
    emit_snapshot(primary, out, epoch=0)
    with pytest.raises(ValueError, match="fresh directory"):
        emit_snapshot(primary, out, epoch=0)
    with pytest.raises(ValueError, match="fresh directory"):
        emit_changefeed(primary, out, 0, 1)


def test_apply_feeds_chain(primary, tmp_path):
    """apply_feeds replays a watcher-layout feed chain one feed per
    replay invocation (the tombstone-lsn safety contract), verifies the
    _feed.json stamps, and refuses gapped chains."""
    from ton_etl_ray.cdc.changefeed import (
        apply_feeds, emit_changefeed, emit_snapshot, read_feed_meta)
    from ton_etl_ray.cdc.sink import read_commit

    root = str(tmp_path / "feeds")
    emit_snapshot(primary, os.path.join(root, "epoch-000000"), epoch=0)
    emit_changefeed(primary, os.path.join(root, "epoch-000001"), 0, 1)

    meta0 = read_feed_meta(os.path.join(root, "epoch-000000"))
    meta1 = read_feed_meta(os.path.join(root, "epoch-000001"))
    assert meta0 == {"kind": "snapshot", "epoch_a": None, "epoch_b": 0,
                     "delete_lsn": None,
                     "max_lsn": read_commit(primary, 0)["max_lsn"]}
    assert meta1["kind"] == "changefeed" and meta1["epoch_b"] == 1
    assert meta1["delete_lsn"] == read_commit(primary, 1)["max_lsn"] + 1

    replica = str(tmp_path / "replica")
    applied = apply_feeds(root, replica, num_partitions=8)
    assert applied == [0, 1]
    assert _state_map(replica) == _state_map(primary, 1)

    # gap: a chain missing epoch 1 must fail loudly, not skip
    gapped = str(tmp_path / "gapped")
    os.makedirs(gapped)
    os.symlink(os.path.join(root, "epoch-000000"),
               os.path.join(gapped, "epoch-000000"))
    os.makedirs(os.path.join(gapped, "epoch-000002"))
    with pytest.raises(ValueError, match="gap"):
        apply_feeds(gapped, str(tmp_path / "r2"))

    # renamed dir: stamp/dirname mismatch must fail
    renamed = str(tmp_path / "renamed")
    os.makedirs(renamed)
    os.symlink(os.path.join(root, "epoch-000001"),
               os.path.join(renamed, "epoch-000000"))
    with pytest.raises(ValueError, match="stamped"):
        apply_feeds(renamed, str(tmp_path / "r3"))


@pytest.fixture(scope="module")
def primary3(tmp_path_factory, ray_session):
    return three_epoch_chain(tmp_path_factory.mktemp("cf3"))


def three_epoch_chain(base):
    """A 3-epoch primary lake plus its published feed chain (snapshot +
    two changefeeds), feed dirs produced by the watcher's own atomic
    catch-up publisher. Returns ``(lake, feed_root)``."""
    from ton_etl_ray.cdc.replay import replay
    from ton_etl_ray.cdc.streaming import DirectoryWatcher
    from ton_etl_ray.gen import write_change_log

    chg, lake = str(base / "chg"), str(base / "lake")
    write_change_log(chg, num_events=60_000, num_keys=5_000, seed=53,
                     num_shards=9, max_tok=16)
    cuts = [0, 20_000, 40_000, 10**9]
    edirs = [str(base / f"e{i}") for i in range(3)]
    for d in edirs:
        os.makedirs(d)
    for p in sorted(glob.glob(os.path.join(chg, "*.parquet"))):
        t = pq.read_table(p)
        lsn = t["lsn"].to_numpy()
        for i in range(3):
            part = t.filter(pa.array((lsn >= cuts[i]) & (lsn < cuts[i + 1])))
            if part.num_rows:
                pq.write_table(part, os.path.join(edirs[i], os.path.basename(p)))
    replay(edirs[0], lake, num_partitions=16)
    replay(edirs[1], lake)
    replay(edirs[2], lake)

    feeds = str(base / "feeds")
    empty_watch = str(base / "watch")
    os.makedirs(empty_watch)
    w = DirectoryWatcher(empty_watch, lake, feed_dir=feeds)  # publishes on init
    w.close()
    assert sorted(os.path.basename(d) for d in
                  glob.glob(os.path.join(feeds, "epoch-*"))) == [
        "epoch-000000", "epoch-000001", "epoch-000002"]
    return lake, feeds


def test_follower_tails_live_chain(primary3, tmp_path):
    """FeedFollower applies feeds AS THEY APPEAR — revealed one at a
    time, the replica converges to each primary epoch in turn, and the
    replica lake itself is the resume cursor (a brand-new follower over
    the same replica continues from the right feed)."""
    from ton_etl_ray.cdc.changefeed import FeedFollower

    lake, feeds = primary3
    live = str(tmp_path / "live_feeds")
    os.makedirs(live)
    replica = str(tmp_path / "replica")

    f = FeedFollower(live, replica, num_partitions=8)
    assert f.step() is None                      # chain still empty

    for e in range(3):
        os.symlink(os.path.join(feeds, f"epoch-{e:06d}"),
                   os.path.join(live, f"epoch-{e:06d}"))
        # fresh follower each epoch: cursor must live in the replica,
        # not the object
        f2 = FeedFollower(live, replica, num_partitions=8)
        assert f2.step() == e
        assert f2.step() is None                 # caught up
        assert _state_map(replica) == _state_map(lake, e)

    # gap detection: feed 1 missing while 2 exists
    gapped = str(tmp_path / "gapped")
    os.makedirs(gapped)
    os.symlink(os.path.join(feeds, "epoch-000000"),
               os.path.join(gapped, "epoch-000000"))
    os.symlink(os.path.join(feeds, "epoch-000002"),
               os.path.join(gapped, "epoch-000002"))
    r2 = str(tmp_path / "r2")
    g = FeedFollower(gapped, r2, num_partitions=8)
    assert g.step() == 0
    with pytest.raises(ValueError, match="GC'd the gap"):
        g.step()

    # a replica not seeded by a follower has no feed-epoch mapping
    with pytest.raises(ValueError, match="_follower.json"):
        FeedFollower(feeds, lake)


def test_follower_run_drains_backlog(primary3, tmp_path):
    """run() drains every published feed without sleeping between
    applies and stops after the configured idle polls."""
    from ton_etl_ray.cdc.changefeed import FeedFollower

    lake, feeds = primary3
    replica = str(tmp_path / "replica")
    sleeps = []
    f = FeedFollower(feeds, replica, num_partitions=8)
    applied = f.run(poll_interval_sec=0.01, stop_after_idle_polls=2,
                    sleep_fn=sleeps.append)
    assert applied == [0, 1, 2]
    assert len(sleeps) == 1                      # only the idle tail sleeps
    assert _state_map(replica) == _state_map(lake)


def test_follower_sigkill_resume(primary3, tmp_path):
    """SIGKILL a follower subprocess mid-chain; a fresh follower over
    the same replica must finish to exactly the primary's final state
    (verdict r4 item #5's done criterion: replica ≡ primary across ≥3
    epochs with a SIGKILL in between)."""
    import signal
    import subprocess
    import sys
    import time

    from ton_etl_ray.cdc import sink as S
    from ton_etl_ray.cdc.changefeed import FeedFollower

    lake, feeds = primary3
    REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    replica = str(tmp_path / "replica")

    script = f"""
import sys; sys.path.insert(0, {REPO!r})
import ray; ray.init(address="local", num_cpus=2, include_dashboard=False, logging_level="ERROR")
from ray.data import DataContext; DataContext.get_current().enable_progress_bars = False
from ton_etl_ray.cdc.changefeed import FeedFollower
FeedFollower({feeds!r}, {replica!r}, num_partitions=8).run(
    poll_interval_sec=0.05, stop_after_idle_polls=3)
"""
    proc = subprocess.Popen([sys.executable, "-c", script],
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    deadline = time.time() + 120
    killed = False
    while time.time() < deadline:
        if proc.poll() is not None:
            break  # drained all 3 feeds before we could kill — still valid
        latest = S.latest_epoch(replica)
        if latest is not None and latest >= 0:
            os.kill(proc.pid, signal.SIGKILL)  # ≥1 feed applied, ≥1 to go
            killed = True
            break
        time.sleep(0.02)
    proc.wait(timeout=60)

    f2 = FeedFollower(feeds, replica, num_partitions=8)
    resumed = f2.run(poll_interval_sec=0.01, stop_after_idle_polls=2,
                     sleep_fn=lambda _s: None)
    assert _state_map(replica) == _state_map(lake)
    done = ({0, 1, 2} if not killed else set(resumed) | set(
        range(S.latest_epoch(replica) + 1)))
    assert done == {0, 1, 2}


def test_empty_changefeed_is_replayable(primary, tmp_path):
    """A no-change epoch pair exports an empty-but-valid feed (one
    empty shard in the change schema) that replays as a no-op epoch —
    consumers map one feed to one replica epoch, so a shard-less dir
    would break the chain."""
    from ton_etl_ray.cdc.changefeed import emit_changefeed, emit_snapshot
    from ton_etl_ray.cdc.replay import replay

    snap, feed = str(tmp_path / "snap"), str(tmp_path / "feed")
    emit_snapshot(primary, snap, epoch=1)
    emit_changefeed(primary, feed, 1, 1)        # identical epochs: empty diff
    assert glob.glob(os.path.join(feed, "*.parquet"))  # shard exists

    replica = str(tmp_path / "replica")
    replay(snap, replica, num_partitions=8)
    res = replay(feed, replica)                 # must not raise
    assert res.published and res.counters["rows_in"] == 0
    assert _state_map(replica) == _state_map(primary, 1)


def test_truncated_head_refuses_empty_replica_seed(primary3, tmp_path):
    """A chain whose HEAD snapshot was GC'd leaves a contiguous tail of
    changefeed diffs — seeding an EMPTY replica from it would silently
    drop every unchanged key, so both consumption paths fail loudly. A
    replica that already holds the base state may resume at a
    changefeed (apply_feeds re-applies idempotently)."""
    from ton_etl_ray.cdc.changefeed import FeedFollower, apply_feeds

    lake, feeds = primary3
    trunc = str(tmp_path / "trunc")
    os.makedirs(trunc)
    for e in (1, 2):
        os.symlink(os.path.join(feeds, f"epoch-{e:06d}"),
                   os.path.join(trunc, f"epoch-{e:06d}"))

    with pytest.raises(ValueError, match="not a snapshot"):
        apply_feeds(trunc, str(tmp_path / "r_empty"))
    f = FeedFollower(trunc, str(tmp_path / "r_follow"), num_partitions=8)
    with pytest.raises(ValueError, match="not a snapshot"):
        f.step()

    # non-empty replica: seed from the full chain, then the truncated
    # tail is a legitimate (idempotent) resume point
    replica = str(tmp_path / "r_resume")
    apply_feeds(feeds, replica, num_partitions=8)
    applied = apply_feeds(trunc, replica)
    assert applied == [1, 2]
    assert _state_map(replica) == _state_map(lake)


def test_prune_feeds_reseeds_head_snapshot(primary3, tmp_path):
    """prune_feeds keeps the newest N feeds with the new head rewritten
    as a snapshot: a FRESH replica seeds from the pruned chain to the
    primary's final state; a replica BEHIND the new head is refused by
    the watermark guard (the pruned window's deletes are gone); a
    replica at-or-ahead re-applies idempotently."""
    import shutil as _sh

    from ton_etl_ray.cdc.changefeed import (
        FeedFollower, apply_feeds, prune_feeds, read_feed_meta)
    from ton_etl_ray.cdc.sink import read_commit

    lake, feeds = primary3
    root = str(tmp_path / "chain")
    _sh.copytree(feeds, root)

    # a replica left BEHIND the future head (applied feed 0 only)
    behind = str(tmp_path / "behind")
    f_behind = FeedFollower(root, behind, num_partitions=8)
    assert f_behind.step() == 0

    # keep_feeds >= chain length: no-op
    assert prune_feeds(lake, root, keep_feeds=5) == [0, 1, 2]

    kept = prune_feeds(lake, root, keep_feeds=2)
    assert kept == [1, 2]
    assert not os.path.exists(os.path.join(root, "epoch-000000"))
    head_meta = read_feed_meta(os.path.join(root, "epoch-000001"))
    assert head_meta["kind"] == "snapshot" and head_meta["epoch_b"] == 1
    assert head_meta["max_lsn"] == read_commit(lake, 1)["max_lsn"]

    # fresh replica seeds from the pruned chain to the primary's state
    fresh = str(tmp_path / "fresh")
    assert apply_feeds(root, fresh, num_partitions=8) == [1, 2]
    assert _state_map(fresh) == _state_map(lake)

    # the behind replica (state 0) needs feed 1 = the new head snapshot:
    # watermark guard refuses (deletes in 0->1 are unreplayable)
    with pytest.raises(ValueError, match="AHEAD of the replica"):
        FeedFollower(root, behind, num_partitions=8).step()

    # an at-head replica re-applies the snapshot idempotently: seed a
    # replica through feed 1 BEFORE pruning again, then re-apply
    assert prune_feeds(lake, root, keep_feeds=2) == [1, 2]  # idempotent
    again = str(tmp_path / "again")
    apply_feeds(root, again, num_partitions=8)
    assert apply_feeds(root, again) == [1, 2]  # full re-apply, no raise
    assert _state_map(again) == _state_map(lake)


def test_prune_feeds_crash_recovery(primary3, tmp_path):
    """A crash between the head swap's two renames leaves
    `epoch-N.trash` + `epoch-N.new` and no `epoch-N`; the next prune
    invocation completes the swap instead of no-opping on the short
    chain. An incomplete `.new` beside a LIVE head is discarded."""
    import shutil as _sh

    from ton_etl_ray.cdc.changefeed import (
        apply_feeds, prune_feeds, read_feed_meta)

    lake, feeds = primary3
    root = str(tmp_path / "chain")
    _sh.copytree(feeds, root)
    prune_feeds(lake, root, keep_feeds=2)           # head = snapshot(1)
    head = os.path.join(root, "epoch-000001")

    # simulate the mid-swap crash: head moved aside, .new complete
    os.rename(head, head + ".trash")
    _sh.copytree(head + ".trash", head + ".new")
    assert not os.path.isdir(head)
    assert prune_feeds(lake, root, keep_feeds=2) == [1, 2]
    assert os.path.isdir(head)
    assert not os.path.isdir(head + ".new") and not os.path.isdir(head + ".trash")
    assert read_feed_meta(head)["kind"] == "snapshot"
    fresh = str(tmp_path / "fresh")
    assert apply_feeds(root, fresh, num_partitions=8) == [1, 2]
    assert _state_map(fresh) == _state_map(lake)

    # incomplete build beside a LIVE head: discarded, head untouched
    os.makedirs(head + ".new")
    with open(os.path.join(head + ".new", "partial.parquet"), "w") as f:
        f.write("junk")
    assert prune_feeds(lake, root, keep_feeds=2) == [1, 2]
    assert not os.path.isdir(head + ".new")
    assert read_feed_meta(head)["kind"] == "snapshot"


def test_prune_feeds_reseeds_short_chain_head(primary3, tmp_path):
    """A chain SHORTER than keep_feeds whose head is a changefeed (the
    GC-truncated-backfill shape: catch_up_feeds skipped the unseedable
    prefix) must still get its head re-seeded as a snapshot — the early
    return used to skip the invariant and no fresh replica could ever
    seed from the chain."""
    from ton_etl_ray.cdc.changefeed import (
        apply_feeds, prune_feeds, read_feed_meta)

    lake, feeds = primary3
    trunc = str(tmp_path / "trunc")
    os.makedirs(trunc)
    import shutil as _sh

    for e in (1, 2):  # head is the 0->1 changefeed: no snapshot anywhere
        _sh.copytree(os.path.join(feeds, f"epoch-{e:06d}"),
                     os.path.join(trunc, f"epoch-{e:06d}"))
    with pytest.raises(ValueError, match="not a snapshot"):
        apply_feeds(trunc, str(tmp_path / "r_refused"))

    kept = prune_feeds(lake, trunc, keep_feeds=10)   # nothing to drop
    assert kept == [1, 2]
    head_meta = read_feed_meta(os.path.join(trunc, "epoch-000001"))
    assert head_meta["kind"] == "snapshot" and head_meta["epoch_b"] == 1

    fresh = str(tmp_path / "fresh")
    assert apply_feeds(trunc, fresh, num_partitions=8) == [1, 2]
    assert _state_map(fresh) == _state_map(lake)


def test_follower_accepts_unpadded_feed_dirs(primary3, tmp_path):
    """apply_feeds and the follower both accept any-width epoch dir
    names; the follower used to LIST them as available but probe only
    the zero-padded path — stalling forever as 'caught up'."""
    from ton_etl_ray.cdc.changefeed import FeedFollower

    lake, feeds = primary3
    live = str(tmp_path / "unpadded")
    os.makedirs(live)
    for e in range(3):
        os.symlink(os.path.join(feeds, f"epoch-{e:06d}"),
                   os.path.join(live, f"epoch-{e}"))
    replica = str(tmp_path / "replica")
    f = FeedFollower(live, replica, num_partitions=8)
    applied = f.run(poll_interval_sec=0.01, stop_after_idle_polls=2,
                    sleep_fn=lambda _s: None)
    assert applied == [0, 1, 2]
    assert _state_map(replica) == _state_map(lake)


def test_maintain_feed_export_is_atomic(tmp_path):
    """_atomic_feed_export never leaves a stamped partial feed at the
    published path: emit_snapshot/emit_changefeed write _feed.json
    BEFORE the shards, so a crash mid-export must be invisible to
    consumers (who treat dir-exists as complete)."""
    from ton_etl_ray.cdc.run_maintain import _atomic_feed_export

    out = str(tmp_path / "snap")

    def crashing_emit(build):
        os.makedirs(build, exist_ok=True)
        with open(os.path.join(build, "_feed.json"), "w") as f:
            f.write("{}")  # stamp written first, like the real emitters
        raise RuntimeError("boom mid-export")

    with pytest.raises(RuntimeError, match="boom"):
        _atomic_feed_export(out, crashing_emit)
    assert not os.path.exists(out)                    # nothing published
    assert not glob.glob(out + ".build.*")            # build cleaned up

    def good_emit(build):
        os.makedirs(build, exist_ok=True)
        with open(os.path.join(build, "_feed.json"), "w") as f:
            f.write("{}")
        with open(os.path.join(build, "part-0.parquet"), "wb") as f:
            f.write(b"x")

    _atomic_feed_export(out, good_emit)
    assert os.path.exists(os.path.join(out, "_feed.json"))
    # refuses to clobber a published feed
    with pytest.raises(SystemExit, match="already contains"):
        _atomic_feed_export(out, good_emit)


def test_maintain_feed_export_refuses_leftover_stamp(tmp_path):
    """An out dir holding only a torn export's _feed.json is refused up
    front, before any build, instead of failing the final rmdir."""
    from ton_etl_ray.cdc.run_maintain import _atomic_feed_export

    out = tmp_path / "snap"
    out.mkdir()
    (out / "_feed.json").write_text("{}")
    built = []
    with pytest.raises(SystemExit, match="export into a fresh directory"):
        _atomic_feed_export(str(out), built.append)
    assert built == [] and os.listdir(out) == ["_feed.json"]


def reshard_lake(base):
    """A lake re-sharded 16→7→16→8 by compactions, with a replay after
    each: epoch widths 16, 16, 7, 7, 16, 16, 8, 8, 8. Returns the lake."""
    from ton_etl_ray.cdc import sink
    from ton_etl_ray.cdc.compact import compact_lake
    from ton_etl_ray.cdc.replay import replay
    from ton_etl_ray.gen import write_change_log

    chg, lake = str(base / "chg"), str(base / "lake")
    write_change_log(chg, num_events=6000, num_keys=400, seed=59, num_shards=4, max_tok=8)
    slices = [str(base / f"s{i}") for i in range(6)]
    for d in slices:
        os.makedirs(d)
    for p in sorted(glob.glob(os.path.join(chg, "*.parquet"))):
        t = pq.read_table(p)
        part = t["lsn"].to_numpy() * len(slices) // 6000
        for i, d in enumerate(slices):
            pq.write_table(t.filter(pa.array(part == i)), os.path.join(d, os.path.basename(p)))
    replay(slices[0], lake, num_partitions=16)
    replay(slices[1], lake)
    for d, width in zip(slices[2:5], (7, 16, 8)):
        compact_lake(lake, num_partitions=width)
        replay(d, lake)
    replay(slices[5], lake)
    widths = [int(sink.read_commit(lake, e)["num_partitions"])
              for e in range(sink.latest_epoch(lake) + 1)]
    assert widths == [16, 16, 7, 7, 16, 16, 8, 8, 8]
    return lake


def _rows(lake, epoch=None):
    from ton_etl_ray.cdc.replay import final_state_table

    t = final_state_table(lake, epoch).select(["doc_id", "lsn", "tokens", "n_tok", "source"])
    return t.sort_by("doc_id").to_pylist()


def test_reshard_spans_diff_and_feed_exact(tmp_path, ray_session):
    """Every span (a, b] of a lake re-sharded 16→7→16→8: ``epoch_diff``
    equals a full-outer compare of the two states on (doc_id, lsn), and
    ``snapshot(a)`` then ``changefeed(a→b)`` replayed into a fresh
    replica gives state(b). A key that changes on both sides of a
    re-shard sits in pairs of two runs: only the gcd grouping and the
    netting classify it once."""
    import shutil as _sh

    from ton_etl_ray.cdc import sink
    from ton_etl_ray.cdc.changefeed import emit_changefeed, emit_snapshot
    from ton_etl_ray.cdc.replay import epoch_diff, final_state_table, replay

    lake = reshard_lake(tmp_path)
    head = sink.latest_epoch(lake)
    lsns = [dict(zip(*(final_state_table(lake, e)[c].to_pylist() for c in ("doc_id", "lsn"))))
            for e in range(head + 1)]
    for a in range(head):
        snap, seeded = str(tmp_path / f"snap{a}"), str(tmp_path / f"seeded{a}")
        emit_snapshot(lake, snap, epoch=a)
        replay(snap, seeded, num_partitions=4)
        assert _rows(seeded) == _rows(lake, a), a
        for b in range(a + 1, head + 1):
            old, new = lsns[a], lsns[b]
            want = sorted(
                [(k, "updated" if k in old else "added", old.get(k), v)
                 for k, v in new.items() if old.get(k) != v]
                + [(k, "deleted", v, None) for k, v in old.items() if k not in new])
            got = sorted(tuple(r.values()) for r in epoch_diff(lake, a, b).take_all())
            assert got == want, (a, b)
            feed, replica = str(tmp_path / f"feed{a}-{b}"), str(tmp_path / f"replica{a}-{b}")
            emit_changefeed(lake, feed, a, b)
            _sh.copytree(seeded, replica)
            replay(feed, replica)
            assert _rows(replica) == _rows(lake, b), (a, b)
            _sh.rmtree(replica)


def test_collected_pair_file_raises_before_any_read(tmp_path, ray_session, monkeypatch):
    """A span whose pairs name a collected file — an endpoint's, or the
    pre-image of a re-shard inside the span — raises the
    "garbage-collected" ValueError from ``epoch_diff`` and both
    exporters before any file is read; the watcher's feed catch-up
    skips exactly the epochs it cannot derive."""
    from ton_etl_ray.cdc import sink
    from ton_etl_ray.cdc.changefeed import emit_changefeed, emit_snapshot
    from ton_etl_ray.cdc.replay import epoch_diff
    from ton_etl_ray.cdc.streaming import DirectoryWatcher

    lake = reshard_lake(tmp_path)
    # collect what epoch 8 no longer holds of epochs 1 (the pre-image of
    # the 16→7 compaction at epoch 2) and 7 (a replay at width 8)
    live = {ent["path"] for ent in sink.read_commit(lake, 8)["partitions"].values()}
    for e in (1, 7):
        for f in glob.glob(os.path.join(lake, f"epoch-{e:06d}", "*.parquet")):
            if os.path.relpath(f, lake) not in live:
                os.remove(f)

    def no_read(*a, **k):
        raise AssertionError("a file was read")

    with monkeypatch.context() as m:
        m.setattr(sink, "read_file", no_read)
        for a, b in ((0, 3), (7, 8), (0, 1)):  # inside the span, endpoint a, endpoint b
            with pytest.raises(ValueError, match="garbage-collected"):
                epoch_diff(lake, a, b)
            out = str(tmp_path / f"feed{a}-{b}")
            with pytest.raises(ValueError, match="garbage-collected"):
                emit_changefeed(lake, out, a, b)
            assert not os.path.exists(out)
        with pytest.raises(ValueError, match="garbage-collected"):
            emit_snapshot(lake, str(tmp_path / "snap"), epoch=1)
    # a span from a re-shard's pre-image starts at the compaction: (1, 3] is (2, 3]
    assert sorted(map(str, epoch_diff(lake, 1, 3).take_all())) == sorted(
        map(str, epoch_diff(lake, 2, 3).take_all()))

    watch, feeds = str(tmp_path / "watch"), str(tmp_path / "feeds")
    os.makedirs(watch)
    DirectoryWatcher(watch, lake, feed_dir=feeds).close()
    assert sorted(os.listdir(feeds)) == [f"epoch-{e:06d}" for e in (0, 2, 3, 4, 5, 6)]


def test_feed_stamps_are_durable_writes(primary, tmp_path, monkeypatch):
    """``_feed.json`` and ``_follower.json`` are written by
    ``sink.atomic_write_bytes`` (fsynced temp file, rename, directory
    fsync), the writer every durable lake write goes through; so is
    every feed shard (``sink.atomic_write_table``)."""
    from ton_etl_ray.cdc import sink
    from ton_etl_ray.cdc.changefeed import FeedFollower, emit_changefeed, emit_snapshot

    real, written = sink.atomic_write_bytes, []

    def recording(path, data):
        written.append(os.path.basename(path))
        real(path, data)

    monkeypatch.setattr(sink, "atomic_write_bytes", recording)
    root = str(tmp_path / "feeds")
    emit_snapshot(primary, os.path.join(root, "epoch-000000"), epoch=0)
    emit_changefeed(primary, os.path.join(root, "epoch-000001"), 0, 1)
    stamps = [w for w in written if not w.startswith("part-")]
    assert stamps == ["_feed.json", "_feed.json"]
    shards = [f for d in os.listdir(root) for f in os.listdir(os.path.join(root, d))
              if f.startswith("part-")]
    assert shards and sorted(shards) == sorted(w for w in written if w.startswith("part-"))
    assert FeedFollower(root, str(tmp_path / "replica"), num_partitions=8).step() == 0
    assert written.count("_follower.json") == 1
