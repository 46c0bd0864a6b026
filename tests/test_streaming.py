"""Directory-watch micro-batch loop: N micro-batches == one-shot replay,
idle drain, size trigger, durable resume after restart."""

import glob
import os
import shutil

from ton_etl_ray.cdc.replay import final_state_table, replay
from ton_etl_ray.cdc.streaming import DirectoryWatcher, committed_inputs
from ton_etl_ray.gen import write_change_log


def _state_map(lake):
    t = final_state_table(lake).select(["doc_id", "tokens", "n_tok", "source"])
    return {r["doc_id"]: (tuple(r["tokens"]), r["n_tok"], r["source"]) for r in t.to_pylist()}


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def test_watch_microbatches_equal_oneshot(tmp_path):
    src = str(tmp_path / "src")
    write_change_log(src, num_events=9000, num_keys=600, seed=51, num_shards=9, max_tok=8)
    files = sorted(glob.glob(os.path.join(src, "*.parquet")))

    watch = str(tmp_path / "incoming")
    os.makedirs(watch)
    lake = str(tmp_path / "lake")
    clock = FakeClock()
    w = DirectoryWatcher(watch, lake, num_partitions=8,
                         max_batch_shards=2, idle_flush_sec=5.0, stable_polls=0, time_fn=clock)
    try:
        # shards arrive in waves; size trigger flushes pairs immediately
        for i, f in enumerate(files[:6]):
            shutil.copy(f, watch)
            w.step()
            clock.t += 1.0
        # pending odd shard + the final wave
        for f in files[6:]:
            shutil.copy(f, watch)
        w.step()
        # idle drain: nothing new arrives; advance past idle_flush_sec
        clock.t += 10.0
        while w.step() is not None or w.pending:
            clock.t += 10.0
        assert len(w.epochs) >= 3
    finally:
        w.close()

    # one-shot oracle over the same shards
    lake2 = str(tmp_path / "lake2")
    replay(src, lake2, num_partitions=8)
    assert _state_map(lake) == _state_map(lake2)


def test_watch_resume_skips_committed_shards(tmp_path):
    src = str(tmp_path / "src")
    write_change_log(src, num_events=4000, num_keys=300, seed=52, num_shards=4, max_tok=8)
    files = sorted(glob.glob(os.path.join(src, "*.parquet")))

    watch = str(tmp_path / "incoming")
    os.makedirs(watch)
    lake = str(tmp_path / "lake")
    clock = FakeClock()
    for f in files[:2]:
        shutil.copy(f, watch)
    w1 = DirectoryWatcher(watch, lake, num_partitions=8,
                          max_batch_shards=2, stable_polls=0, time_fn=clock)
    try:
        w1.step()
        assert len(w1.epochs) == 1
    finally:
        w1.close()

    # restart: a NEW watcher must see shards 0-1 as done (from commits)
    assert committed_inputs(lake) == {os.path.basename(f) for f in files[:2]}
    for f in files[2:]:
        shutil.copy(f, watch)
    clock2 = FakeClock()
    w2 = DirectoryWatcher(watch, lake, num_partitions=8,
                          max_batch_shards=2, stable_polls=0, time_fn=clock2)
    try:
        w2.step()
        assert len(w2.epochs) == 1
        # exactly the new shards were ingested
        assert w2.epochs[0]["epoch"] == 1
    finally:
        w2.close()

    lake2 = str(tmp_path / "lake2")
    replay(src, lake2, num_partitions=8)
    assert _state_map(lake) == _state_map(lake2)


def test_idle_drain_flushes_partial_batch(tmp_path):
    src = str(tmp_path / "src")
    write_change_log(src, num_events=2000, num_keys=150, seed=53, num_shards=4, max_tok=8)
    files = sorted(glob.glob(os.path.join(src, "*.parquet")))

    watch = str(tmp_path / "incoming")
    os.makedirs(watch)
    lake = str(tmp_path / "lake")
    clock = FakeClock()
    w = DirectoryWatcher(watch, lake, num_partitions=8,
                         max_batch_shards=8, idle_flush_sec=5.0, stable_polls=0, time_fn=clock)
    try:
        shutil.copy(files[0], watch)
        assert w.step() is None          # 1 shard < size trigger, not idle yet
        clock.t += 4.0
        assert w.step() is None          # still inside the idle window
        clock.t += 2.0                   # 6 s since first pending → idle drain
        res = w.step()
        assert res is not None and res["epoch"] == 0
    finally:
        w.close()


def test_failed_flush_keeps_shards_pending(tmp_path, monkeypatch):
    """If ingest raises, the batch must stay pending (retried by the next
    flush), not vanish into neither pending nor done."""
    import pytest

    src = str(tmp_path / "src")
    write_change_log(src, num_events=2000, num_keys=150, seed=54, num_shards=2, max_tok=8)
    files = sorted(glob.glob(os.path.join(src, "*.parquet")))
    watch = str(tmp_path / "incoming")
    os.makedirs(watch)
    for f in files:
        shutil.copy(f, watch)
    lake = str(tmp_path / "lake")
    clock = FakeClock()
    w = DirectoryWatcher(watch, lake, num_partitions=8,
                         max_batch_shards=2, stable_polls=0, time_fn=clock)
    try:
        real_ingest = w.ing.ingest
        calls = {"n": 0}

        def flaky(batch, **kw):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("injected")
            return real_ingest(batch, **kw)

        monkeypatch.setattr(w.ing, "ingest", flaky)
        w.poll()
        with pytest.raises(RuntimeError):
            w.flush()
        assert len(w.pending) == 2          # batch retained
        assert not w.done                   # nothing marked done
        res = w.flush()                     # retry succeeds
        assert res is not None and not w.pending
    finally:
        w.close()

    lake2 = str(tmp_path / "lake2")
    replay(src, lake2, num_partitions=8)
    assert _state_map(lake) == _state_map(lake2)


def test_sigkill_mid_watch_then_new_watcher_recovers(tmp_path):
    """SIGKILL a watcher subprocess mid-drain; a NEW watcher over the
    same directory must finish the lake to exactly the one-shot state
    (committed epochs resumed, uncommitted staging retried)."""
    import signal
    import subprocess
    import sys
    import time

    REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    src = str(tmp_path / "src")
    write_change_log(src, num_events=40_000, num_keys=2_000, seed=55,
                     num_shards=8, max_tok=16)
    watch = str(tmp_path / "incoming")
    os.makedirs(watch)
    for f in sorted(glob.glob(os.path.join(src, "*.parquet"))):
        shutil.copy(f, watch)
    lake = str(tmp_path / "lake")

    script = f"""
import sys; sys.path.insert(0, {REPO!r})
import ray; ray.init(address="local", num_cpus=2, include_dashboard=False, logging_level="ERROR")
from ray.data import DataContext; DataContext.get_current().enable_progress_bars = False
from ton_etl_ray.cdc.streaming import DirectoryWatcher
w = DirectoryWatcher({watch!r}, {lake!r}, num_partitions=8, max_batch_shards=2)
w.run(poll_interval_sec=0.05, stop_after_idle_polls=3)
"""
    proc = subprocess.Popen([sys.executable, "-c", script],
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    from ton_etl_ray.cdc import sink as S

    deadline = time.time() + 120
    killed = False
    while time.time() < deadline:
        if proc.poll() is not None:
            break  # drained everything before we could kill — still valid
        latest = S.latest_epoch(lake)
        if latest is not None and latest >= 1:
            os.kill(proc.pid, signal.SIGKILL)  # mid-drain: ≥2 epochs done
            killed = True
            break
        time.sleep(0.05)
    proc.wait(timeout=60)

    # recovery: fresh watcher picks up exactly the un-committed shards
    clock = FakeClock()
    w2 = DirectoryWatcher(watch, lake, num_partitions=8,
                          max_batch_shards=2, stable_polls=0, time_fn=clock)
    try:
        while True:
            w2.poll()
            if not w2.pending:
                break
            w2.flush()
    finally:
        w2.close()

    lake2 = str(tmp_path / "lake2")
    replay(src, lake2, num_partitions=8)
    assert _state_map(lake) == _state_map(lake2)
    assert killed or S.latest_epoch(lake) is not None


def test_watch_debezium_jsonl_shards(tmp_path):
    """Continuous consumption of the reference's wire format: Debezium
    JSONL shards arrive, are normalized+staged per shard, ingested as
    epochs, and a RESTARTED watcher skips the already-committed JSONL
    shards (name mapping through the preprocessor)."""
    import json

    from ton_etl_ray.cdc.streaming import debezium_preprocessor

    def shard(path, rows):
        with open(path, "w") as f:
            for r in rows:
                f.write(json.dumps(r) + "\n")

    watch = str(tmp_path / "incoming")
    os.makedirs(watch)
    rows1 = [
        {"__lsn": 1, "__op": "r", "__table": "d", "__source_ts_ms": 1,
         "doc_id": "a", "n_tok": 2, "source": "web"},
        {"__lsn": 2, "__op": "c", "__table": "d", "__source_ts_ms": 2,
         "doc_id": "b", "n_tok": 1, "source": "code"},
    ]
    rows2 = [
        {"__lsn": 3, "__op": "u", "__table": "d", "__source_ts_ms": 3,
         "doc_id": "a", "n_tok": 7, "source": "web"},
        {"__lsn": 4, "__op": "d", "__table": "d", "__source_ts_ms": 4,
         "doc_id": "b", "n_tok": None, "source": None},
    ]
    shard(os.path.join(watch, "s1.jsonl"), rows1)

    lake = str(tmp_path / "lake")
    stage = str(tmp_path / "stage")
    clock = FakeClock()
    w = DirectoryWatcher(watch, lake, num_partitions=4,
                         max_batch_shards=1, pattern="*.jsonl",
                         preprocess=debezium_preprocessor(stage), stable_polls=0, time_fn=clock)
    try:
        w.step()
        assert len(w.epochs) == 1
        shard(os.path.join(watch, "s2.jsonl"), rows2)
        w.step()
        assert len(w.epochs) == 2
    finally:
        w.close()

    state = {r["doc_id"]: r["n_tok"] for r in final_state_table(lake).to_pylist()}
    assert state == {"a": 7}          # 'b' tombstoned, 'a' updated

    # restart: both JSONL shards map to committed parquet names → done
    w2 = DirectoryWatcher(watch, lake, num_partitions=4,
                          max_batch_shards=1, pattern="*.jsonl",
                          preprocess=debezium_preprocessor(stage),
                          stable_polls=0, time_fn=FakeClock())
    try:
        assert w2.poll() == 0 and not w2.pending
    finally:
        w2.close()


def test_quiescence_gate_defers_growing_file(tmp_path):
    """A shard still being copied into the watch dir must NOT be ingested
    until its size/mtime stop changing (ADVICE r2: partial ingest +
    done-marking = permanent silent loss); once quiescent it is ingested
    exactly once with its FULL contents. Temp/dot names are ignored."""
    src = str(tmp_path / "src")
    write_change_log(src, num_events=2000, num_keys=150, seed=57, num_shards=2, max_tok=8)
    files = sorted(glob.glob(os.path.join(src, "*.parquet")))

    watch = str(tmp_path / "incoming")
    os.makedirs(watch)
    lake = str(tmp_path / "lake")
    clock = FakeClock()
    w = DirectoryWatcher(watch, lake, num_partitions=8,
                         max_batch_shards=2, stable_polls=1, time_fn=clock)
    try:
        # simulate a slow copy: write the first half, poll, then the rest
        data = open(files[0], "rb").read()
        dst = os.path.join(watch, os.path.basename(files[0]))
        with open(dst, "wb") as f:
            f.write(data[: len(data) // 2])
        assert w.poll() == 0 and not w.pending and w.warming
        with open(dst, "ab") as f:
            f.write(data[len(data) // 2 :])
        assert w.poll() == 0 and not w.pending   # size changed → still unstable
        assert w.poll() == 1                     # unchanged across a poll → pending
        # producer temporaries are never picked up
        shutil.copy(files[1], os.path.join(watch, "x.parquet.tmp"))
        shutil.copy(files[1], dst + ".partial")
        n_before = len(w.pending)
        w.poll()
        assert len(w.pending) == n_before
        shutil.copy(files[1], watch)
        w.poll()                                 # first sighting of shard 2
        assert w.poll() == 1                     # stable → pending
        w.flush()
    finally:
        w.close()

    lake2 = str(tmp_path / "lake2")
    replay(src, lake2, num_partitions=8)
    assert _state_map(lake) == _state_map(lake2)


def test_watcher_gc_collects_superseded_epochs(tmp_path):
    """gc_every collects superseded epoch data files during the drain
    without changing the final state or the done-shard tracking."""
    src = str(tmp_path / "src")
    write_change_log(src, num_events=6000, num_keys=300, seed=56, num_shards=6, max_tok=8)
    files = sorted(glob.glob(os.path.join(src, "*.parquet")))
    watch = str(tmp_path / "incoming")
    os.makedirs(watch)
    for f in files:
        shutil.copy(f, watch)
    lake = str(tmp_path / "lake")
    clock = FakeClock()
    w = DirectoryWatcher(watch, lake, num_partitions=8,
                         max_batch_shards=2, gc_every=2, gc_keep_epochs=1,
                         stable_polls=0, time_fn=clock)
    try:
        while True:
            w.poll()
            if not w.pending:
                break
            w.flush()
        assert len(w.epochs) == 3
    finally:
        w.close()

    # epoch-0 data files that were superseded (not inherited) are gone
    from ton_etl_ray.cdc import sink as S

    assert S.latest_epoch(lake) == 2
    # resume metadata intact: all shards still recorded as done
    assert committed_inputs(lake) == {os.path.basename(f) for f in files}

    lake2 = str(tmp_path / "lake2")
    replay(src, lake2, num_partitions=8)
    assert _state_map(lake) == _state_map(lake2)


def _derive_registry():
    import ton_etl_ray.transforms  # noqa: F401 — populates REGISTRY
    from ton_etl_ray.registry import REGISTRY

    return REGISTRY.select({"UpdateFeed"})


def test_watch_derive_equals_oneshot_registry_run(tmp_path):
    """N micro-batch epochs' committed side outputs must union to exactly
    the one-shot REGISTRY.run over the same shards (continuous
    derive-and-publish, S3's full form), and every committed epoch must
    have emitted one metrics gauge row."""
    import json

    import ray.data as rd

    from ton_etl_ray.cdc.streaming import derived_table
    from ton_etl_ray.pipelines import docs_to_change_log

    src = str(tmp_path / "chg")
    files = docs_to_change_log("/root/testdata/sf0.001", src, num_shards=6)

    watch = str(tmp_path / "incoming")
    os.makedirs(watch)
    lake = str(tmp_path / "lake")
    clock = FakeClock()
    w = DirectoryWatcher(watch, lake, num_partitions=8,
                         max_batch_shards=2, stable_polls=0,
                         derive=_derive_registry(), time_fn=clock)
    try:
        for f in files:
            shutil.copy(f, watch)
            w.step()
            clock.t += 1.0
        w.poll()
        while w.pending:
            w.flush()
        n_epochs = len(w.epochs)
        assert n_epochs >= 3
        # V8: one gauge row per committed epoch, in memory AND durable
        assert [m["epoch"] for m in w.metrics] == [e["epoch"] for e in w.epochs]
        assert all(m["events_routed"] > 0 and m["events_per_sec"] > 0
                   and "window_events_per_sec" in m and "watermark_lsn" in m
                   for m in w.metrics)
        with open(os.path.join(lake, "metrics.jsonl")) as f:
            assert len(f.readlines()) == n_epochs
    finally:
        w.close()

    got = derived_table(lake, "updated_docs").to_pandas()
    oneshot = _derive_registry().run(
        {"changes": rd.read_parquet(files)}
    )["updated_docs"].to_pandas()
    key = lambda df: sorted(map(tuple, df[["doc_id", "n_tok"]].to_numpy()))
    assert key(got) == key(oneshot)


def test_failed_derive_keeps_epoch_uncommitted(tmp_path):
    """A crash inside the derive step must leave NO committed trace —
    neither lake state nor derived side outputs (the flush-before-commit
    barrier covers side tables too); the retry then publishes both."""
    import pytest

    from ton_etl_ray.cdc import sink as S
    from ton_etl_ray.cdc.streaming import derived_table
    from ton_etl_ray.pipelines import docs_to_change_log

    src = str(tmp_path / "chg")
    files = docs_to_change_log("/root/testdata/sf0.001", src, num_shards=2)
    watch = str(tmp_path / "incoming")
    os.makedirs(watch)
    for f in files:
        shutil.copy(f, watch)
    lake = str(tmp_path / "lake")
    w = DirectoryWatcher(watch, lake, num_partitions=4,
                         max_batch_shards=2, stable_polls=0,
                         derive=_derive_registry(), time_fn=FakeClock())
    try:
        real = w._derive_outputs
        calls = {"n": 0}

        def flaky(files_, epoch):
            calls["n"] += 1
            if calls["n"] == 1:
                real(files_, epoch)          # partial side-output files land…
                raise RuntimeError("injected mid-derive")
            return real(files_, epoch)

        w._derive_outputs = flaky
        w.poll()
        with pytest.raises(RuntimeError):
            w.flush()
        assert S.latest_epoch(lake) is None          # nothing committed
        with pytest.raises(FileNotFoundError):
            derived_table(lake, "updated_docs")      # staged files invisible
        assert len(w.pending) == 2 and not w.metrics
        res = w.flush()                              # retry re-derives
        assert res is not None and res["epoch"] == 0
        assert derived_table(lake, "updated_docs").count() > 0
        assert [m["epoch"] for m in w.metrics] == [0]
    finally:
        w.close()


def test_derive_with_zero_matching_rows(tmp_path):
    """A micro-batch where the derive transform matches NOTHING must not
    poison the derived table: the commit records no file-less path, the
    reader raises FileNotFoundError until real rows land, then returns
    exactly the later epochs' rows (code-review r3 finding)."""
    import pytest

    from ton_etl_ray.cdc.streaming import derived_table
    from ton_etl_ray.gen import write_change_log

    src = str(tmp_path / "src")
    write_change_log(src, num_events=3000, num_keys=2500, seed=58,
                     num_shards=3, max_tok=8)
    files = sorted(glob.glob(os.path.join(src, "*.parquet")))
    # force the log head to be insert-only: UpdateFeed (op=='u') matches
    # nothing in epoch 0
    import pyarrow.compute as _pc
    import pyarrow.parquet as _pq

    t0 = _pq.read_table(files[0])
    _pq.write_table(t0.filter(_pc.equal(t0["op"], "c")), files[0])
    watch = str(tmp_path / "incoming")
    os.makedirs(watch)
    lake = str(tmp_path / "lake")
    w = DirectoryWatcher(watch, lake, num_partitions=4,
                         max_batch_shards=1, stable_polls=0,
                         derive=_derive_registry(), time_fn=FakeClock())
    try:
        import pyarrow.parquet as pq

        from ton_etl_ray.cdc import sink as S

        n_updates = []
        for f in files:
            ops = pq.read_table(f, columns=["op"])["op"].to_pylist()
            n_updates.append(sum(1 for o in ops if o == "u"))
            shutil.copy(f, watch)
            w.step()
        assert len(w.epochs) == 3
        if n_updates[0] == 0:
            c0 = S.read_commit(lake, 0)
            assert "updated_docs" not in c0.get("derived", {})
        total = sum(n_updates)
        if total == 0:
            with pytest.raises(FileNotFoundError):
                derived_table(lake, "updated_docs")
        else:
            assert derived_table(lake, "updated_docs").count() == total
    finally:
        w.close()


def test_metrics_exporter_scrapes_live_gauges(tmp_path):
    """K7 full form: a Prometheus-style /metrics endpoint scraped DURING
    a watcher run must serve the per-epoch gauges and show them move as
    epochs commit (events/sec, watermark, committed-epoch counter)."""
    import urllib.request

    from ton_etl_ray.cdc.exporter import MetricsExporter

    src = str(tmp_path / "src")
    write_change_log(src, num_events=4000, num_keys=300, seed=53, num_shards=4, max_tok=8)
    files = sorted(glob.glob(os.path.join(src, "*.parquet")))

    watch = str(tmp_path / "incoming")
    os.makedirs(watch)
    lake = str(tmp_path / "lake")
    os.makedirs(lake)

    def scrape(url):
        with urllib.request.urlopen(url, timeout=10) as r:
            assert r.status == 200
            txt = r.read().decode()
        return {
            line.split()[0]: float(line.split()[1])
            for line in txt.splitlines() if line and not line.startswith("#")
        }

    clock = FakeClock()
    w = DirectoryWatcher(watch, lake, num_partitions=4,
                         max_batch_shards=2, stable_polls=0, time_fn=clock)
    try:
        with MetricsExporter(lake) as exp:
            # scrape BEFORE any commit: must serve zeros, not 500
            m0 = scrape(exp.url)
            assert m0["tonray_epochs_committed_total"] == 0

            for f in files[:2]:
                shutil.copy(f, watch)
            w.step()
            m1 = scrape(exp.url)
            assert m1["tonray_epochs_committed_total"] == 1
            assert m1["tonray_events_per_sec"] > 0
            assert m1["tonray_watermark_lsn"] >= 0
            assert m1["tonray_lake_rows_total"] > 0

            for f in files[2:]:
                shutil.copy(f, watch)
            clock.t += 1.0
            w.step()
            m2 = scrape(exp.url)
            # gauges moved with the second commit
            assert m2["tonray_epochs_committed_total"] == 2
            assert m2["tonray_epoch"] == m1["tonray_epoch"] + 1
            assert m2["tonray_watermark_lsn"] > m1["tonray_watermark_lsn"]
            assert (m2["tonray_events_routed_total"]
                    > m1["tonray_events_routed_total"])
    finally:
        w.close()


def test_render_metrics_tolerates_torn_trailing_line(tmp_path):
    """A scrape racing the watcher's metrics append may observe a
    half-flushed last line — it must be skipped, not fail the scrape."""
    import json
    import os

    from ton_etl_ray.cdc.exporter import render_metrics

    lake = str(tmp_path)
    with open(os.path.join(lake, "metrics.jsonl"), "w") as f:
        f.write(json.dumps({"epoch": 0, "events_routed": 5, "events_per_sec": 2.0}) + "\n")
        f.write('{"epoch": 1, "events_rou')  # torn mid-append
    text = render_metrics(lake)
    assert "tonray_epochs_committed_total 1" in text
    assert "tonray_events_routed_total 5" in text


def test_continuous_feed_publication(tmp_path, ray_session):
    """feed_dir: every committed epoch is exported (epoch 0 snapshot,
    later epochs as diffs); replaying the feeds in order reproduces the
    watcher lake; a deleted feed is regenerated identically by
    catch_up_feeds (feeds are pure functions of the epoch-pinned lake)."""
    import duckdb

    from ton_etl_ray.cdc.replay import final_state_table, replay

    src = str(tmp_path / "src")
    write_change_log(src, num_events=8000, num_keys=500, seed=61,
                     num_shards=8, max_tok=8)
    files = sorted(glob.glob(os.path.join(src, "*.parquet")))
    watch, lake, feed = (str(tmp_path / d) for d in ("incoming", "lake", "feed"))
    os.makedirs(watch)
    clock = FakeClock()
    w = DirectoryWatcher(watch, lake, num_partitions=8,
                         max_batch_shards=3, idle_flush_sec=5.0,
                         stable_polls=0, feed_dir=feed, time_fn=clock)
    try:
        for f in files:
            shutil.copy(f, watch)
            w.step()
            clock.t += 1.0
        clock.t += 10.0
        w.step()  # idle drain
        assert len(w.epochs) >= 2
    finally:
        w.close()

    feed_dirs = sorted(glob.glob(os.path.join(feed, "epoch-*")))
    assert len(feed_dirs) == len(w.epochs)

    # consume the published chain through apply_feeds (one replay per
    # feed — the tombstone-lsn safety contract, changefeed.py module doc)
    from ton_etl_ray.cdc.changefeed import apply_feeds

    replica = str(tmp_path / "replica")
    applied = apply_feeds(feed, replica, num_partitions=8)
    assert applied == list(range(len(feed_dirs)))
    want = final_state_table(lake).to_pandas()
    got = final_state_table(replica).to_pandas()
    wm = {r.doc_id: (list(r.tokens), r.n_tok) for r in want.itertuples()}
    gm = {r.doc_id: (list(r.tokens), r.n_tok) for r in got.itertuples()}
    assert gm == wm

    # catch-up regenerates a lost feed with identical rows
    lost = feed_dirs[-1]
    before = duckdb.sql(
        f"SELECT * FROM read_parquet('{lost}/*.parquet', union_by_name=true) ORDER BY doc_id, lsn, op"
    ).df().to_csv(index=False)
    shutil.rmtree(lost)
    w2 = DirectoryWatcher(watch, lake, num_partitions=8,
                          feed_dir=feed, time_fn=clock)
    try:
        assert os.path.isdir(lost)
        after = duckdb.sql(
            f"SELECT * FROM read_parquet('{lost}/*.parquet', union_by_name=true) ORDER BY doc_id, lsn, op"
        ).df().to_csv(index=False)
        assert after == before
    finally:
        w2.close()


def test_watcher_feed_retention(tmp_path, ray_session):
    """feed_keep=N: the watcher prunes its published chain after each
    flush — only the newest N feeds remain, the head is a snapshot, and
    a fresh replica seeded from the PRUNED chain still reproduces the
    watcher lake exactly."""
    from ton_etl_ray.cdc.changefeed import apply_feeds, read_feed_meta
    from ton_etl_ray.cdc.replay import final_state_table

    src = str(tmp_path / "src")
    write_change_log(src, num_events=8000, num_keys=500, seed=67,
                     num_shards=8, max_tok=8)
    files = sorted(glob.glob(os.path.join(src, "*.parquet")))
    watch, lake, feed = (str(tmp_path / d) for d in ("incoming", "lake", "feed"))
    os.makedirs(watch)
    clock = FakeClock()
    w = DirectoryWatcher(watch, lake, num_partitions=8,
                         max_batch_shards=2, idle_flush_sec=5.0,
                         stable_polls=0, feed_dir=feed, feed_keep=2,
                         time_fn=clock)
    try:
        for f in files:
            shutil.copy(f, watch)
            w.step()
            clock.t += 1.0
        clock.t += 10.0
        w.step()  # idle drain
        assert len(w.epochs) >= 3  # retention actually had to prune
    finally:
        w.close()

    feed_dirs = sorted(glob.glob(os.path.join(feed, "epoch-*")))
    assert len(feed_dirs) == 2
    epochs = [int(os.path.basename(d).split("-")[1]) for d in feed_dirs]
    assert epochs == [len(w.epochs) - 2, len(w.epochs) - 1]
    head_meta = read_feed_meta(feed_dirs[0])
    assert head_meta["kind"] == "snapshot" and head_meta["epoch_b"] == epochs[0]

    replica = str(tmp_path / "replica")
    assert apply_feeds(feed, replica, num_partitions=8) == epochs
    want = final_state_table(lake).to_pandas()
    got = final_state_table(replica).to_pandas()
    wm = {r.doc_id: (list(r.tokens), r.n_tok) for r in want.itertuples()}
    gm = {r.doc_id: (list(r.tokens), r.n_tok) for r in got.itertuples()}
    assert gm == wm

    # restart: catch_up_feeds must NOT resurrect pruned feeds, and the
    # chain stays pruned + snapshot-headed
    w2 = DirectoryWatcher(watch, lake, num_partitions=8,
                          feed_dir=feed, feed_keep=2, time_fn=clock)
    w2.close()
    after = sorted(glob.glob(os.path.join(feed, "epoch-*")))
    assert [os.path.basename(d) for d in after] == [
        os.path.basename(d) for d in feed_dirs]
    assert read_feed_meta(after[0])["kind"] == "snapshot"


def test_idle_drain_measures_gap_since_last_arrival(tmp_path, ray_session):
    """Idle drain is 'nothing new for idle_flush_sec' (the reference's
    no-messages-for-N-seconds semantics): a steady trickle keeps
    refreshing the timer — the old first-pending timer flushed
    mid-arrival-wave."""
    import shutil as _sh

    from ton_etl_ray.cdc.streaming import DirectoryWatcher
    from ton_etl_ray.gen import write_change_log

    src = str(tmp_path / "src")
    write_change_log(src, num_events=3000, num_keys=200, seed=77,
                     num_shards=6, max_tok=8)
    files = sorted(glob.glob(os.path.join(src, "*.parquet")))
    watch = str(tmp_path / "incoming")
    os.makedirs(watch)
    clock = FakeClock()
    w = DirectoryWatcher(watch, str(tmp_path / "lake"), num_partitions=4,
                         max_batch_shards=100,
                         idle_flush_sec=5.0, stable_polls=0, time_fn=clock)
    try:
        # trickle: one shard every 4 s (< idle_flush) — NO flush happens
        for f in files[:4]:
            _sh.copy(f, watch)
            assert w.step() is None          # timer keeps refreshing
            clock.t += 4.0
        assert w.pending and not w.epochs
        # a real gap: nothing arrives for > idle_flush → drain
        clock.t += 6.0
        assert w.step() is not None
        assert len(w.epochs) == 1
    finally:
        w.close()
