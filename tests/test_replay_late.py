"""replay()'s narrow exchange (late materialization: decide each key's
winner on ``doc_id, lsn, op``, then fetch one payload row per winning
key) must be semantically identical to its payload exchange. Every test
runs the exchange plan; ``narrow_exchange`` makes replay() pick the
narrow side."""

import glob
import os
from unittest import mock

import duckdb
import pyarrow.parquet as pq
import pytest
from conftest import narrow_exchange

from ton_etl_ray.cdc import replay as R
from ton_etl_ray.cdc import sink
from ton_etl_ray.cdc.replay import final_state_table, replay
from ton_etl_ray.gen import write_change_log

pytestmark = pytest.mark.usefixtures("exchange_plan")

LATE = "late_materialization"


def _state(lake):
    t = final_state_table(lake).select(["doc_id", "tokens", "n_tok", "source"])
    return {r["doc_id"]: (tuple(r["tokens"]), r["n_tok"], r["source"]) for r in t.to_pylist()}


def _oracle(files, excluded=()):
    want = duckdb.sql(
        f"""
        WITH ranked AS (
          SELECT *, row_number() OVER (PARTITION BY doc_id ORDER BY lsn DESC) rk
          FROM read_parquet({files})
        ) SELECT doc_id, tokens, n_tok, source FROM ranked WHERE rk=1 AND op <> 'd'
        """
    ).arrow()
    return {r["doc_id"]: (tuple(r["tokens"]), r["n_tok"], r["source"])
            for r in want.to_pylist() if r["doc_id"] not in excluded}


def _strategy(lake, epoch=0):
    return sink.read_commit(lake, epoch).get("strategy")


def test_late_equals_eager_and_oracle(tmp_path):
    chg = str(tmp_path / "chg")
    write_change_log(chg, num_events=15000, num_keys=1200, seed=61, num_shards=5, max_tok=24)
    files = sorted(glob.glob(os.path.join(chg, "*.parquet")))

    lake_e = str(tmp_path / "lake_eager")
    lake_l = str(tmp_path / "lake_late")
    replay(files, lake_e, num_partitions=8)
    with narrow_exchange():
        res = replay(files, lake_l, num_partitions=8)
    assert res.published and res.counters["rows_in"] > 0
    assert (_strategy(lake_e), _strategy(lake_l)) == (None, LATE)
    assert _state(lake_e) == _state(lake_l) == _oracle(files)


def test_late_incremental_on_eager_lake(tmp_path):
    """The exchanges interoperate: epoch 0 payload, epoch 1 narrow — the
    commit format is shared, so either can extend the same lake."""
    chg = str(tmp_path / "chg")
    write_change_log(chg, num_events=8000, num_keys=600, seed=62, num_shards=4, max_tok=16)
    files = sorted(glob.glob(os.path.join(chg, "*.parquet")))

    lake = str(tmp_path / "lake")
    replay(files[:2], lake, num_partitions=8)
    with narrow_exchange():
        res = replay(files[2:], lake)
    assert res.epoch == 1 and _strategy(lake, 1) == LATE

    lake_ref = str(tmp_path / "lake_ref")
    replay(files, lake_ref, num_partitions=8)
    assert _state(lake) == _state(lake_ref)


def test_late_resume_after_partial_commit(tmp_path):
    """Kill-analogue: publish lost + some partitions missing → resume
    recomputes exactly the missing partitions and republishes."""
    chg = str(tmp_path / "chg")
    write_change_log(chg, num_events=8000, num_keys=600, seed=63, num_shards=4, max_tok=16)
    lake = str(tmp_path / "lake")
    with narrow_exchange():
        replay(chg, lake, num_partitions=8)
    ref = _state(lake)

    # simulate a crash that lost the epoch commit and 3 partitions
    staging = sink.epoch_dir(lake, 0)
    os.remove(os.path.join(staging, sink.COMMIT_NAME))
    os.remove(os.path.join(lake, sink.LATEST_NAME))
    for p in (0, 3, 5):
        os.remove(os.path.join(staging, sink.part_file(p)))

    with narrow_exchange():
        res = replay(chg, lake, num_partitions=8, resume=True)
    assert res.published and _strategy(lake) == LATE
    assert _state(lake) == ref


def test_bloom_filter_mode_equals_exact(tmp_path):
    """Past ``BLOOM_WINNERS`` winning keys the fetch filters by a Bloom
    filter; its false positives lose the LWW merge, so the state is the
    exact filter's."""
    chg = str(tmp_path / "chg")
    write_change_log(chg, num_events=12000, num_keys=900, seed=64, num_shards=4, max_tok=16)
    lake_e = str(tmp_path / "lake_exact")
    lake_b = str(tmp_path / "lake_bloom")
    built = []

    class Counting(R.BloomFilter):
        def __init__(self, n, *a, **kw):
            built.append(n)
            super().__init__(n, *a, **kw)

    with narrow_exchange(), mock.patch.object(R, "BloomFilter", Counting):
        replay(chg, lake_e, num_partitions=8)
        assert built == []
        with mock.patch.object(R, "BLOOM_WINNERS", 0):
            replay(chg, lake_b, num_partitions=8)
    assert len(built) == 1 and built[0] > 0
    files = sorted(glob.glob(os.path.join(chg, "*.parquet")))
    assert _state(lake_e) == _state(lake_b) == _oracle(files)


def test_late_epoch_commits_real_manifests(tmp_path):
    """A narrow epoch commits through commit_partition, so its manifests
    carry rows_in, tombstones and min_lsn like the payload exchange's:
    an epoch-1 narrow replay of the lsn-later half of a log proves it is
    lsn-ordered after epoch 0, and its counters are replay()'s."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from conftest import lsn_ordered_span

    chg, lake = str(tmp_path / "chg"), str(tmp_path / "lake")
    write_change_log(chg, num_events=8000, num_keys=600, seed=65, num_shards=4, max_tok=8)
    halves = [str(tmp_path / "e0"), str(tmp_path / "e1")]
    for d in halves:
        os.makedirs(d)
    for p in sorted(glob.glob(os.path.join(chg, "*.parquet"))):
        t = pq.read_table(p)
        late = pa.array(t["lsn"].to_numpy() >= 4000)
        pq.write_table(t.filter(pc.invert(late)), os.path.join(halves[0], os.path.basename(p)))
        pq.write_table(t.filter(late), os.path.join(halves[1], os.path.basename(p)))
    replay(halves[0], lake, num_partitions=8)
    with narrow_exchange():
        res = replay(halves[1], lake)

    c0, c1 = sink.read_commit(lake, 0), sink.read_commit(lake, 1)
    assert c1["strategy"] == LATE and c1["plan"] == "exchange"
    assert c1["min_lsn"] > c0["max_lsn"]
    assert lsn_ordered_span(lake, 0, 1) == (True, c0["max_lsn"])
    # every epoch-1 key wins over epoch 0: one fetched row per key
    keys, deletes = duckdb.sql(
        f"""
        WITH ranked AS (
          SELECT *, row_number() OVER (PARTITION BY doc_id ORDER BY lsn DESC) rk
          FROM read_parquet('{halves[1]}/*.parquet')
        ) SELECT count(*), count(*) FILTER (WHERE op = 'd') FROM ranked WHERE rk = 1
        """
    ).fetchone()
    assert res.counters == {"rows_in": keys, "tombstones": deletes, "plan": "exchange"}
    assert deletes > 0
    lake_ref = str(tmp_path / "lake_ref")
    replay(chg, lake_ref, num_partitions=8)
    assert _state(lake) == _state(lake_ref)


def test_late_only_parts_then_resume(tmp_path):
    """``only_parts`` on the narrow exchange stages exactly the files of
    those buckets and publishes nothing; a resume adopts them and
    reaches the oracle state."""
    chg = str(tmp_path / "chg")
    write_change_log(chg, num_events=8000, num_keys=600, seed=66, num_shards=4, max_tok=8)
    lake = str(tmp_path / "lake")
    with narrow_exchange():
        res = replay(chg, lake, num_partitions=8, only_parts=frozenset({1, 6}))
        assert not res.published and sink.latest_epoch(lake) is None
        assert set(sink.staged_manifests(lake, 0)) == {sink.part_file(1), sink.part_file(6)}
        res = replay(chg, lake, num_partitions=8, resume=True)
    assert res.published and _strategy(lake) == LATE
    assert _state(lake) == _oracle(sorted(glob.glob(os.path.join(chg, "*.parquet"))))


def test_late_excluded_doc_ids(tmp_path):
    """Data corrections drop their keys before the narrow decide, so
    neither phase ships them: the state is the oracle's without them,
    on a fresh lake and on top of a committed one."""
    chg = str(tmp_path / "chg")
    write_change_log(chg, num_events=8000, num_keys=600, seed=67, num_shards=4, max_tok=8)
    files = sorted(glob.glob(os.path.join(chg, "*.parquet")))
    live = sorted(_oracle(files))
    excluded = frozenset(live[::7])
    lake, lake1 = str(tmp_path / "lake"), str(tmp_path / "lake1")
    replay(files[:2], lake1, num_partitions=8, excluded_doc_ids=excluded)
    with narrow_exchange():
        replay(files, lake, num_partitions=8, excluded_doc_ids=excluded)
        replay(files[2:], lake1, excluded_doc_ids=excluded)
    assert _strategy(lake) == _strategy(lake1, 1) == LATE
    want = _oracle(files, excluded)
    assert _state(lake) == _state(lake1) == want
    assert not excluded & set(_state(lake)) and len(want) < len(live)
