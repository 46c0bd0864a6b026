"""Late materialization on the in-process plan: change files are read
without ``ts_ms`` and with their low-cardinality strings as dictionaries
(``sink.read_changes``), ``Normalize`` combines before it conforms, and
the blocks of a local epoch meet in one keys-only LWW combine
(``merge.winners``) before ``by_part`` gathers the winners. Each case
commits the same rows on both plans (``plan``: the local one, or the
exchange plan the ``exchange_plan`` fixture forces), and those rows
are the rank-1 state ``merge.compact`` keeps."""

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from ton_etl_ray.cdc import sink
from ton_etl_ray.cdc.replay import Normalize, final_state_table, replay
from ton_etl_ray.core import merge as M
from ton_etl_ray.core.schema_evolution import conform, unify_schemas

SOURCES = ["web", "code", "books", "wiki"]


@pytest.fixture(params=["local", "exchange"])
def plan(request):
    if request.param == "exchange":
        request.getfixturevalue("exchange_plan")
    return request.param


def _shard(lsn, op, doc, *, source=None, evolved=True, ts=True) -> pa.Table:
    """A change shard: ``tokens`` and ``n_tok`` from the lsn, null for a
    tombstone; ``evolved`` adds ``lang`` and widens ``n_tok`` to int64."""
    lsn = np.asarray(lsn, np.int64)
    dead = np.array([o == "d" for o in op])
    n = (lsn % 5 + 1).astype(np.int64)
    if source is None:
        source = [SOURCES[i % len(SOURCES)] for i in lsn.tolist()]
    cols = {
        "lsn": pa.array(lsn),
        "op": pa.array(op, pa.string()),
        "doc_id": pa.array(doc, pa.string()),
        "tokens": pa.array([None if d else list(range(k)) for d, k in zip(dead, n.tolist())],
                           pa.list_(pa.int32())),
        "n_tok": pa.array(n, pa.int64() if evolved else pa.int32(), mask=dead),
        "source": pa.array(source, pa.string(), mask=dead),
    }
    if ts:
        cols["ts_ms"] = pa.array(1_700_000_000_000 + lsn)
    if evolved:
        langs = np.array(["en", "de", "fr"])[np.random.default_rng(len(lsn)).integers(0, 3, len(lsn))]
        cols["lang"] = pa.array(langs, pa.string(), mask=dead)
    return pa.table(cols)


def _write(tmp_path, shards: list[pa.Table]) -> list[str]:
    d = tmp_path / "chg"
    d.mkdir(exist_ok=True)
    paths = []
    for k, t in enumerate(shards):
        paths.append(str(d / f"shard-{k:03d}.parquet"))
        pq.write_table(t, paths[-1])
    return paths


def _rank1(shards: list[pa.Table]) -> pa.Table:
    """The rank-1 live state ``merge.compact`` keeps over the shards in
    order, in the unified schema without ``op``/``ts_ms``."""
    schema = unify_schemas([s.schema for s in shards])
    allrows = pa.concat_tables([conform(s, schema) for s in shards])
    won = M.compact(allrows, keep_tombstones=False)
    return won.drop_columns(["op", "ts_ms"]).sort_by("doc_id")


def _state(lake: str) -> pa.Table:
    t = final_state_table(lake)
    return t.replace_schema_metadata(None).select(sorted(t.column_names)).sort_by("doc_id")


def _check(lake: str, want: pa.Table, plan: str, res) -> None:
    assert res.counters["plan"] == plan
    assert _state(lake).equals(want.select(sorted(want.column_names)))


def test_later_tombstone_deletes_earlier_write(tmp_path, plan):
    """A key written in shard 0 and deleted in shard 2 is gone; a key
    deleted in shard 0 and written again in shard 1 lives."""
    shards = [_shard([1, 2, 3], ["c", "c", "d"], ["a", "b", "z"]),
              _shard([4, 5], ["u", "c"], ["b", "z"]),
              _shard([6, 7], ["d", "u"], ["a", "b"])]
    lake = str(tmp_path / "lake")
    res = replay(_write(tmp_path, shards), lake, num_partitions=4)
    want = _rank1(shards)
    assert want["doc_id"].to_pylist() == ["b", "z"]
    _check(lake, want, plan, res)
    if plan == "local":
        # one combine across the blocks: one row per key reaches a merge
        assert res.counters["rows_in"] == 3 and res.counters["tombstones"] == 1


def test_duplicate_lsn_op_across_shards_keeps_compacts_row(tmp_path, plan):
    """The same ``(lsn, op)`` delivered in two shards with different
    payloads: the committed row is the one ``merge.compact`` keeps (the
    first in input order)."""
    shards = [_shard([1, 2], ["c", "c"], ["a", "b"], source=["web", "web"]),
              _shard([2, 3], ["c", "u"], ["b", "c"], source=["code", "code"])]
    lake = str(tmp_path / "lake")
    res = replay(_write(tmp_path, shards), lake, num_partitions=4)
    want = _rank1(shards)
    assert want.filter(pa.compute.equal(want["doc_id"], "b"))["source"].to_pylist() == ["web"]
    _check(lake, want, plan, res)


def test_schema_change_mid_log(tmp_path, plan):
    """Shards before the schema change (int32 ``n_tok``, no ``lang``)
    mixed with shards after it, keys overlapping across the change."""
    rng = np.random.default_rng(3)
    shards, lsn = [], 0
    for k in range(4):
        n = 200
        doc = [f"doc-{i:04d}" for i in rng.integers(0, 150, n)]
        op = list(np.array(["c", "u", "d"])[rng.integers(0, 3, n)])
        shards.append(_shard(np.arange(lsn, lsn + n), op, doc, evolved=k in (1, 3)))
        lsn += n
    lake = str(tmp_path / "lake")
    res = replay(_write(tmp_path, shards), lake, num_partitions=8)
    want = _rank1(shards)
    assert want.schema.field("n_tok").type == pa.int64() and "lang" in want.column_names
    _check(lake, want, plan, res)


def test_excluded_doc_ids(tmp_path, plan):
    shards = [_shard([1, 2, 3], ["c", "c", "c"], ["a", "b", "c"]),
              _shard([4, 5], ["u", "d"], ["a", "c"])]
    lake = str(tmp_path / "lake")
    res = replay(_write(tmp_path, shards), lake, num_partitions=4,
                 excluded_doc_ids=frozenset({"a"}))
    want = _rank1(shards)
    _check(lake, want.filter(pa.compute.not_equal(want["doc_id"], "a")), plan, res)


def test_only_parts_then_resume(tmp_path, plan):
    """A partial run (``only_parts``) stages some units; the resume
    adopts them and commits the whole rank-1 state."""
    rng = np.random.default_rng(5)
    shards = []
    for k in range(3):
        doc = [f"doc-{i:03d}" for i in rng.integers(0, 60, 100)]
        op = list(np.array(["c", "u", "d"])[rng.integers(0, 3, 100)])
        shards.append(_shard(np.arange(100 * k, 100 * k + 100), op, doc))
    files, lake = _write(tmp_path, shards), str(tmp_path / "lake")
    assert not replay(files, lake, num_partitions=8, only_parts=frozenset({0, 1, 2})).published
    res = replay(files, lake, num_partitions=8, resume=True)
    assert res.published
    _check(lake, _rank1(shards), plan, res)


def test_dictionary_read_choice(tmp_path):
    """``sink.dictionary_reads`` picks a string column whose
    dictionary page is under 1/8 of its chunk (4 sources over 4,000
    rows) and not one of distinct keys; ``read_changes`` reads the
    first as a dictionary, the second plain, and never ``ts_ms``."""
    n = 4000
    rng = np.random.default_rng(2)
    t = _shard(np.arange(n), list(np.array(["c", "u"])[rng.integers(0, 2, n)]),
               [f"doc-{i:06d}" for i in range(n)],
               source=list(np.array(SOURCES)[rng.integers(0, len(SOURCES), n)]))
    path = str(tmp_path / "s.parquet")
    pq.write_table(t, path)
    footer = pq.read_metadata(path)
    assert set(sink.dictionary_reads(footer)) == {"op", "source", "lang"}
    got = sink.read_changes(path, footer)
    assert "ts_ms" not in got.column_names
    assert pa.types.is_dictionary(got.schema.field("source").type)
    assert got.schema.field("doc_id").type == pa.string()
    assert got.cast(pa.schema([t.schema.field(c) for c in got.column_names])).equals(
        t.drop_columns(["ts_ms"]))
    with pytest.raises(KeyError, match="nope"):
        sink.read_changes(path, footer, ["doc_id", "nope"])


def test_committed_state_has_plain_strings(tmp_path, plan):
    """Strings read as dictionaries are plain ``string`` in the commit
    schema, in every partition file and in ``final_state_table``."""
    shards = [_shard(np.arange(k * 500, k * 500 + 500), ["c"] * 500,
                     [f"doc-{i % 300:04d}" for i in range(500)]) for k in range(2)]
    lake = str(tmp_path / "lake")
    replay(_write(tmp_path, shards), lake, num_partitions=4)
    schemas = [sink.lake_schema(lake), final_state_table(lake).schema]
    schemas += [pq.read_schema(f) for f in sink.lake_files(lake)]
    for s in schemas:
        for c in ("doc_id", "source", "lang"):
            assert s.field(c).type == pa.string(), (c, s)


def test_invalid_ops_raise_value_error(tmp_path):
    """An invalid op (read as a dictionary or not), a null op, and a
    shard without an ``op`` column all fail the epoch with
    ``ValueError``."""
    from ton_etl_ray.cdc.replay import validate_changes

    good = _shard([1, 2], ["c", "u"], ["a", "b"])
    bad = good.set_column(1, "op", pa.array(["c", "x"]))
    validate_changes(good)
    for t in (bad, bad.set_column(1, "op", bad["op"].dictionary_encode())):
        with pytest.raises(ValueError, match="invalid op"):
            validate_changes(t)
    with pytest.raises(ValueError, match="invalid op"):
        validate_changes(good.set_column(1, "op", pa.array(["c", None])))
    norm = Normalize(good.schema, 4, frozenset(), None)
    with pytest.raises(ValueError, match="no op column"):
        norm(good.drop_columns(["op"]))
    for k, t in enumerate((bad, good.drop_columns(["op"]))):
        d = tmp_path / str(k)
        d.mkdir()
        pq.write_table(t, str(d / "s.parquet"))
        with pytest.raises(ValueError):
            replay(str(d), str(tmp_path / f"lake{k}"), num_partitions=4)


def test_winners_are_combine_indices():
    """``merge.winners`` is ``combine`` as ascending indices, on plain
    and on dictionary-encoded key columns (ties included)."""
    rng = np.random.default_rng(11)
    n = 2000
    lsn = rng.integers(0, 500, n)  # repeats: ties on (lsn, op)
    t = pa.table({"lsn": pa.array(lsn, pa.int64()),
                  "op": pa.array(np.array(["c", "u", "d"])[rng.integers(0, 3, n)]),
                  "doc_id": pa.array([f"k{i}" for i in rng.integers(0, 90, n)]),
                  "row": pa.array(np.arange(n))})
    win = M.winners(t)
    assert (np.diff(win) > 0).all()
    assert t.take(win).equals(M.combine(t))
    as_dict = t.set_column(1, "op", t["op"].dictionary_encode()).set_column(
        2, "doc_id", t["doc_id"].dictionary_encode())
    assert np.array_equal(M.winners(as_dict), win)
    assert len(M.winners(t.slice(0, 0))) == 0


def test_ts_ms_never_reaches_state(tmp_path):
    """A log whose shards carry no ``ts_ms`` and one whose shards do
    commit the same state."""
    shards = [_shard([1, 2], ["c", "c"], ["a", "b"]), _shard([3], ["u"], ["a"])]
    lakes = []
    for k, ts in enumerate((True, False)):
        d = tmp_path / f"log{k}"
        d.mkdir()
        for i, t in enumerate(shards):
            pq.write_table(t if ts else t.drop_columns(["ts_ms"]), str(d / f"{i}.parquet"))
        lakes.append(str(tmp_path / f"lake{k}"))
        replay(str(d), lakes[-1], num_partitions=4)
    assert "ts_ms" not in final_state_table(lakes[0]).column_names
    assert _state(lakes[0]).equals(_state(lakes[1]))
