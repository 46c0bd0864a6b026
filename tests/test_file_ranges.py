"""Files sized by bytes over the fixed hash width: a file holds a
contiguous bucket range, the commit lists files, and every writer and
reader works on ranges (``cdc.sink``'s layout)."""

import glob
import json
import os

import duckdb
import numpy as np
import pyarrow.parquet as pq
import pytest

from ton_etl_ray.cdc import delta, sink
from ton_etl_ray.cdc.compact import compact_lake
from ton_etl_ray.cdc.replay import Layout, epoch_diff, final_state_table, replay
from ton_etl_ray.gen import write_change_log
from ton_etl_ray.ops import _util


def _log(tmp_path, name="chg", **kw):
    d = str(tmp_path / name)
    write_change_log(d, **{"num_events": 6000, "num_keys": 900, "seed": 61,
                           "num_shards": 4, "max_tok": 8, **kw})
    return sorted(glob.glob(os.path.join(d, "*.parquet")))


def _rank1(files) -> dict:
    rows = duckdb.sql(f"""
        WITH r AS (SELECT *, row_number() OVER (PARTITION BY doc_id ORDER BY lsn DESC) rk
                   FROM read_parquet({files}, union_by_name=true))
        SELECT doc_id, lsn, tokens FROM r WHERE rk = 1 AND op <> 'd'""").fetchall()
    return {d: (lsn, list(t)) for d, lsn, t in rows}


def _state(lake, epoch=None) -> dict:
    t = final_state_table(lake, epoch)
    return {d: (lsn, list(tok)) for d, lsn, tok in
            zip(*(t[c].to_pylist() for c in ("doc_id", "lsn", "tokens")))}


def _tiles(commit) -> list[tuple[int, int, dict]]:
    """The commit's ranges, checked to tile ``[0, num_partitions)``."""
    rs = sink.ranges(commit)
    assert [lo for lo, _, _ in rs] == [0] + [hi for _, hi, _ in rs[:-1]]
    assert rs[-1][1] == commit["num_partitions"]
    return rs


def _files_hold_their_buckets(lake, commit):
    """Every file's rows lie in its own buckets, doc_id-ascending."""
    from ton_etl_ray.core.partition import assign_partitions

    for lo, hi, ent in _tiles(commit):
        if ent["rows"]:
            t = sink.read_file(os.path.join(lake, ent["path"]))
            b = assign_partitions(t["doc_id"], commit["num_partitions"])
            assert lo <= b.min() and b.max() < hi, (lo, hi)
            ids = t["doc_id"].to_pylist()
            assert ids == sorted(ids)


def test_small_lake_packs_every_bucket_into_one_file(tmp_path):
    """A lake far below the file size is one file over all buckets: the
    touched buckets of the fresh lake pack into one run, and a later
    epoch that touches it rewrites that one file."""
    files = _log(tmp_path)
    lake = str(tmp_path / "lake")
    r0 = replay(files[:2], lake, num_partitions=16)
    c0 = sink.read_commit(lake, 0)
    assert list(c0["partitions"]) == ["0"] and c0["partitions"]["0"]["hi"] == 16
    assert (r0.partitions_written, r0.partitions_inherited) == (1, 0)
    r1 = replay(files[2:], lake)
    assert (r1.partitions_written, r1.partitions_inherited) == (1, 0)
    assert len(sink.state_paths(lake, sink.read_commit(lake, 1))) == 1
    assert _state(lake) == _rank1(files)
    _files_hold_their_buckets(lake, sink.read_commit(lake, 1))


def test_block_bytes_zero_gives_one_file_per_bucket(tmp_path, exchange_plan):
    """``BLOCK_BYTES = 0``: a file size of 0, so every bucket with a row
    is its own file and its entry carries no ``hi``, as before ranges."""
    files = _log(tmp_path)
    lake = str(tmp_path / "lake")
    replay(files, lake, num_partitions=8)
    c = sink.read_commit(lake, 0)
    assert sorted(map(int, c["partitions"])) == list(range(8))
    assert all("hi" not in ent and ent["rows"] > 0 for ent in c["partitions"].values())
    assert _state(lake) == _rank1(files)


def test_files_split_past_twice_the_target(tmp_path, monkeypatch):
    """A range whose encoding passes twice the file size splits into
    contiguous bucket sub-ranges; replay, a second replay and compaction
    onto split files still give the rank-1 state, and every file holds
    only its own buckets, doc_id-ascending."""
    monkeypatch.setattr(_util, "BLOCK_BYTES", 1 << 20)  # 16 KiB files
    files = _log(tmp_path, num_events=12_000, num_keys=2000)
    lake = str(tmp_path / "lake")
    replay(files[:2], lake, num_partitions=32)
    c0 = sink.read_commit(lake, 0)
    sizes = [os.path.getsize(p) for p in sink.state_paths(lake, c0).values()]
    assert len(sizes) > 2 and max(sizes) < 3 * _util.file_bytes()
    assert any(hi - lo > 1 for lo, hi, ent in sink.ranges(c0) if ent["path"])
    _files_hold_their_buckets(lake, c0)
    replay(files[2:3], lake)
    compact_lake(lake, num_partitions=24)
    replay(files[3:], lake)
    for e in (1, 2, 3):
        _files_hold_their_buckets(lake, sink.read_commit(lake, e))
    assert _state(lake) == _rank1(files)
    sink.verify_lake(lake)


def test_commit_size_is_o_files_at_65536_buckets(tmp_path):
    """A 65,536-bucket lake whose data fits in a few files commits a
    500-bucket epoch with a ``_COMMIT.json`` under 100 KB: the commit
    lists files and empty runs, not buckets."""
    from ton_etl_ray.core.partition import assign_partitions

    files = _log(tmp_path, num_events=6000, num_keys=2000, num_shards=2, max_tok=4)
    lake = str(tmp_path / "lake")
    replay(files[:1], lake, num_partitions=65_536)
    assert len(sink.read_commit(lake, 0)["partitions"]) <= 5
    res = replay(files[1:], lake)
    c = sink.read_commit(lake, 1)
    assert len(np.unique(assign_partitions(sink.read_file(files[1])["doc_id"], 65_536))) >= 500
    size = os.path.getsize(os.path.join(sink.epoch_dir(lake, 1), sink.COMMIT_NAME))
    assert size < 100_000, size
    assert res.partitions_written + res.partitions_inherited == len(sink.state_paths(lake, c))
    _tiles(c)
    assert _state(lake) == _rank1(files)


def test_build_covers_whole_files_only(tmp_path):
    """``EpochTxn.build`` inherits a previous file no written range
    overlaps, fills empty runs between files, and refuses a written
    range that covers part of a previous file."""
    lake = str(tmp_path / "lake")
    prev = {"max_lsn": 5, "partitions": {
        "0": {"path": "epoch-000000/part-00000.parquet", "rows": 3, "max_lsn": 5, "hi": 4},
        "4": {"path": "", "rows": 0, "max_lsn": -1, "hi": 8},
        "8": {"path": "epoch-000000/part-00008.parquet", "rows": 2, "max_lsn": 4}}}
    txn = sink.EpochTxn(lake)
    txn.prev_commit, txn.epoch = prev, 1

    def m(lo, hi):
        return {"part": lo, "hi": hi, "file": sink.part_file(lo), "rows": 1, "sha256": "x",
                "max_lsn": 9, "min_lsn": 9}

    c = txn.build({5: m(5, 6)}, num_partitions=10, plan="local")
    assert {k: (v["path"], v.get("hi")) for k, v in c["partitions"].items()} == {
        "0": ("epoch-000000/part-00000.parquet", 4), "4": ("", None),
        "5": ("epoch-000001/part-00005.parquet", None), "6": ("", 8),
        "8": ("epoch-000000/part-00008.parquet", None), "9": ("", None)}
    assert (txn.partitions_written, txn.partitions_inherited) == (1, 2)
    assert (c["rows_total"], c["max_lsn"]) == (6, 9)
    c = txn.build({0: m(0, 9)}, num_partitions=10, plan="local")
    assert list(c["partitions"]) == ["0", "9"] and txn.partitions_inherited == 0
    with pytest.raises(ValueError, match="cover part of"):
        txn.build({2: m(2, 5)}, num_partitions=10, plan="local")


def test_layout_units():
    """The reducer units: a head file is one unit, every bucket outside
    the files its own (or ``stride`` aligned buckets in a head without
    files)."""
    commit = {"partitions": {
        "0": {"path": "a", "rows": 3, "hi": 4}, "4": {"path": "", "rows": 0, "hi": 6},
        "6": {"path": "b", "rows": 0, "hi": 8}, "8": {"path": "c", "rows": 1}}}
    lay = Layout("/l", commit, 10)
    assert lay.units(np.arange(10)).tolist() == [0, 0, 0, 0, 4, 5, 6, 6, 8, 9]
    assert [lay.unit_hi(u) for u in (0, 4, 5, 6, 8, 9)] == [4, 5, 6, 8, 9, 10]
    assert lay.state(0, 9) == ["/l/a", "/l/c"] and lay.state(4, 8) == []
    assert lay.free(4, 8) and not lay.free(4, 9)
    assert lay.whole(0, 6) and not lay.whole(2, 6) and not lay.whole(0, 7)
    assert lay.expand({1, 7}) == frozenset({0, 1, 2, 3, 6, 7})
    packed = Layout("/l", None, 10, stride=4)
    assert packed.units(np.arange(10)).tolist() == [0, 0, 0, 0, 4, 4, 4, 4, 8, 8]
    assert packed.unit_hi(8) == 10


def test_components_pair_overlapping_ranges():
    """The pair stage's components: a file on both sides is skipped,
    overlapping rewritten ranges join, and with one-bucket ranges on a
    re-shard span the groups are the buckets' classes ``part % G``."""
    def commit(width, spans):
        return {"num_partitions": width, "partitions": {
            str(lo): {"path": p, "rows": 1 if p else 0, "max_lsn": 0, "hi": hi}
            for lo, hi, p in spans}}

    a = commit(8, [(0, 4, "x"), (4, 6, "y"), (6, 8, "z")])
    b = commit(8, [(0, 2, "p"), (2, 5, "q"), (5, 6, ""), (6, 8, "z")])
    comps = delta._components(a, b)
    assert [([e["path"] for e in o], [e["path"] for e in n]) for o, n in comps] == [
        (["x", "y"], ["p", "q"])]
    one = [(p, p + 1, f"a{p}") for p in range(6)]
    r1 = (commit(6, one), commit(6, [(p, p + 1, f"b{p}") for p in range(6)]))
    r2 = (commit(4, [(p, p + 1, f"c{p}") for p in range(4)]),
          commit(4, [(p, p + 1, f"d{p}") for p in range(4)]))
    comps = delta._rewritten([r1, r2])
    groups = delta._groups(comps, 2)
    assert [sorted(comps[i][0][0]["path"] for i in g) for g in groups] == [
        ["a0", "a2", "a4", "c0", "c2"], ["a1", "a3", "a5", "c1", "c3"]]


def test_reshard_spans_with_packed_files_are_exact(tmp_path, monkeypatch):
    """Spans across re-shards of a lake whose files hold several
    buckets and split: ``epoch_diff`` equals a full compare of the two
    states on ``(doc_id, lsn)`` for every span (a, b]."""
    monkeypatch.setattr(_util, "BLOCK_BYTES", 1 << 20)
    files = _log(tmp_path, num_events=8000, num_keys=1500, num_shards=5)
    lake = str(tmp_path / "lake")
    replay(files[:1], lake, num_partitions=12)
    replay(files[1:2], lake)
    compact_lake(lake, num_partitions=8)
    replay(files[2:3], lake)
    compact_lake(lake, num_partitions=18)
    replay(files[3:], lake)
    head = sink.latest_epoch(lake)
    states = [{d: v[0] for d, v in _state(lake, e).items()} for e in range(head + 1)]
    for a in range(head):
        for b in range(a + 1, head + 1):
            diff = epoch_diff(lake, a, b).to_pandas()
            got = {(r.doc_id, r.change) for r in diff.itertuples()}
            old, new = states[a], states[b]
            want = ({(k, "added") for k in new.keys() - old.keys()}
                    | {(k, "deleted") for k in old.keys() - new.keys()}
                    | {(k, "updated") for k in new.keys() & old.keys() if new[k] != old[k]})
            assert got == want, (a, b)


def test_memo_holds_the_newest_two_commits(tmp_path, monkeypatch):
    """The written-partition memo follows files: after each publish it
    holds only files the lake's newest two commits list, across
    re-layouts (a split, a compaction)."""
    import sys

    monkeypatch.delattr(sys, "_tonray_written", raising=False)
    files = _log(tmp_path, num_events=9000, num_keys=1200, num_shards=9)
    lake = str(tmp_path / "lake")
    replay(files[:1], lake, num_partitions=8)
    for i, f in enumerate(files[1:]):
        if i == 4:
            compact_lake(lake, num_partitions=6)
        if i == 6:
            monkeypatch.setattr(_util, "BLOCK_BYTES", 1 << 20)  # the next epoch splits
        replay([f], lake)
        e = sink.latest_epoch(lake)
        listed = {os.path.abspath(p) for k in (e - 1, e)
                  for p in sink.state_paths(lake, sink.read_commit(lake, k)).values()}
        kept = set(sink._memo()["files"])
        assert kept and kept <= listed, (e, kept - listed)
    assert _state(lake) == _rank1(files)


class _Abort(Exception):
    pass


def _abort_after(monkeypatch, k: int):
    """Make the k-th partition-file write of this process raise after
    its rename (the file is staged, the epoch is not committed)."""
    real = sink._replace_synced
    n = [0]

    def replace(path, data):
        real(path, data)
        if os.path.basename(path).startswith("part-"):
            n[0] += 1
            if n[0] == k:
                raise _Abort(path)

    monkeypatch.setattr(sink, "_replace_synced", replace)


@pytest.mark.parametrize("shape", ["coalesced", "split"])
def test_abort_after_each_file_then_resume(tmp_path, monkeypatch, shape):
    """An epoch aborted after each of its file writes — one coalesced
    run, or a range split into pieces — resumes to the rank-1 state.
    ``staged_manifests`` reads each staged range from its footer; a
    piece of a split cut short is written again."""
    files = _log(tmp_path, num_events=6000, num_keys=1500)

    def base(lake):  # one file over every bucket
        with monkeypatch.context() as m:
            m.setattr(_util, "BLOCK_BYTES", _util._READ_BLOCK)
            replay(files[:2], lake, num_partitions=8)
        assert len(sink.read_commit(lake, 0)["partitions"]) == 1

    if shape == "split":  # the epoch's one run splits into 4 KiB pieces
        monkeypatch.setattr(_util, "BLOCK_BYTES", 1 << 18)
    ref = str(tmp_path / "ref")
    base(ref)
    replay(files[2:], ref)
    n_files = len(sink.read_commit(ref, 1)["sha256"])
    assert n_files == 1 if shape == "coalesced" else n_files > 2
    for k in range(1, n_files + 1):
        lake = str(tmp_path / f"lake{k}")
        base(lake)
        with monkeypatch.context() as m:
            _abort_after(m, k)
            with pytest.raises(_Abort):
                replay(files[2:], lake)
        staged = sink.staged_manifests(lake, 1)
        assert len(staged) == k and not sink.is_committed(lake, 1)
        for m in staged.values():
            md = pq.read_metadata(os.path.join(sink.epoch_dir(lake, 1), m["file"]))
            lineage = json.loads(md.metadata[sink.LINEAGE_KEY])
            assert m["hi"] == lineage["hi"] > m["part"] == lineage["part"]
        res = replay(files[2:], lake, resume=True)
        assert res.published and res.epoch == 1
        assert _state(lake) == _state(ref) == _rank1(files)
        _files_hold_their_buckets(lake, sink.read_commit(lake, 1))


def test_only_parts_then_resume_on_a_multi_bucket_run(tmp_path):
    """``only_parts`` selects whole reducer units: a bucket of a head
    file brings the whole file's range, the staged file covers it, and
    ``resume`` adopts it and writes the rest."""
    files = _log(tmp_path, num_events=6000, num_keys=1500)
    lake = str(tmp_path / "lake")
    replay(files[:2], lake, num_partitions=8)
    assert sink.ranges(sink.read_commit(lake, 0))[0][:2] == (0, 8)
    partial = replay(files[2:], lake, only_parts=frozenset({3}))
    assert not partial.published
    staged = sink.staged_manifests(lake, 1)
    assert [(m["part"], m["hi"]) for m in staged.values()] == [(0, 8)]
    res = replay(files[2:], lake, resume=True)
    assert res.partitions_written == 1
    assert _state(lake) == _rank1(files)

    fresh = str(tmp_path / "fresh")  # a fresh lake: each bucket a unit
    part = replay(files, fresh, num_partitions=8, only_parts=frozenset({2, 3, 5}))
    staged = sorted((m["part"], m["hi"]) for m in sink.staged_manifests(fresh, 0).values())
    assert staged == [(2, 4), (5, 6)] and not part.published
    replay(files, fresh, num_partitions=8, resume=True)
    assert _state(fresh) == _rank1(files)
    _files_hold_their_buckets(fresh, sink.read_commit(fresh, 0))


def _packed_base(lake, files, monkeypatch, num_partitions=16):
    """Epoch 0 of ``files`` at the default file size: one file over
    every bucket."""
    with monkeypatch.context() as m:
        m.setattr(_util, "BLOCK_BYTES", _util._READ_BLOCK)
        replay(files, lake, num_partitions=num_partitions)
    assert sink.ranges(sink.read_commit(lake, 0))[0][:2] == (0, num_partitions)


def _lineages(lake, epoch) -> list[dict]:
    """The footer lineage of every file ``epoch`` wrote."""
    out = []
    for name in sink.read_commit(lake, epoch)["sha256"]:
        md = pq.read_metadata(os.path.join(sink.epoch_dir(lake, epoch), name))
        out.append(json.loads(md.metadata[sink.LINEAGE_KEY]))
    return out


def test_exchange_cuts_a_packed_file_by_the_epoch(tmp_path, monkeypatch):
    """A small lake packed into one file, then an epoch larger than a
    read block: the exchange plan cuts the file into one sub-unit per
    bucket (the epoch's share of a bucket alone passes the file size),
    so no reducer sees more than a few buckets' changes and state,
    and the lake still equals the rank-1 state."""
    files = _log(tmp_path, num_events=20_000, num_keys=3000)
    lake = str(tmp_path / "lake")
    _packed_base(lake, files[:1], monkeypatch)
    monkeypatch.setattr(_util, "BLOCK_BYTES", 1 << 16)  # 1 KiB files
    assert sum(os.path.getsize(f) for f in files[1:]) > _util.BLOCK_BYTES
    res = replay(files[1:], lake)
    assert res.counters["plan"] == "exchange"
    c1 = sink.read_commit(lake, 1)
    lineage = _lineages(lake, 1)
    assert {lin["hi"] - lin["part"] for lin in lineage} == {1}
    rows = {lin["part"]: lin["rows_in"] for lin in lineage}
    assert len(rows) == 16 and sum(rows.values()) == res.counters["rows_in"]
    assert max(rows.values()) < res.counters["rows_in"] / 4
    assert max(ent["rows"] for ent in c1["partitions"].values()) < c1["rows_total"] / 4
    assert _state(lake) == _rank1(files)
    _files_hold_their_buckets(lake, c1)
    sink.verify_lake(lake)


def test_exchange_carries_the_untouched_sub_ranges(tmp_path, monkeypatch):
    """An exchange epoch that touches 3 of a packed file's 16 buckets
    writes those as sub-units and carries the other 13 buckets' rows
    into files of their own (no change rows, no ``min_lsn``), so the
    commit still replaces the file whole and its ``min_lsn`` still
    bounds the epoch's own lsns. ``only_parts`` then ``resume`` on such an epoch reach the
    same state."""
    import pyarrow.compute as pc

    from ton_etl_ray.core.partition import assign_partitions

    files = _log(tmp_path, num_events=40_000, num_keys=3000)
    hot = str(tmp_path / "hot")
    os.makedirs(hot)
    for f in files[1:]:  # the later shards' rows of buckets 3, 4 and 9
        t = pq.read_table(f)
        b = assign_partitions(t["doc_id"], 16)
        pq.write_table(t.filter(np.isin(b, [3, 4, 9])), os.path.join(hot, os.path.basename(f)))
    later = sorted(glob.glob(os.path.join(hot, "*.parquet")))
    for name in ("lake", "partial"):
        _packed_base(str(tmp_path / name), files[:1], monkeypatch)
    monkeypatch.setattr(_util, "BLOCK_BYTES", 1 << 16)
    assert sum(os.path.getsize(f) for f in later) > _util.BLOCK_BYTES

    lake = str(tmp_path / "lake")
    res = replay(later, lake)
    assert res.counters["plan"] == "exchange"
    c1 = sink.read_commit(lake, 1)
    _files_hold_their_buckets(lake, c1)
    assert all(ent["path"].startswith("epoch-000001") for ent in c1["partitions"].values())
    touched = sorted((lin["part"], lin["hi"]) for lin in _lineages(lake, 1) if lin["rows_in"])
    assert touched == [(3, 4), (4, 5), (9, 10)]
    assert all("min_lsn" not in lin for lin in _lineages(lake, 1) if not lin["rows_in"])
    lsns = pq.read_table(later, columns=["lsn"])["lsn"]
    assert c1["min_lsn"] >= pc.min(lsns).as_py() > sink.read_commit(lake, 0)["max_lsn"]
    want = _rank1(files[:1] + later)
    assert _state(lake) == want

    part = str(tmp_path / "partial")
    assert not replay(later, part, only_parts=frozenset({9})).published
    assert sink.staged_manifests(part, 1)
    assert replay(later, part, resume=True).published
    assert _state(part) == want
    _files_hold_their_buckets(part, sink.read_commit(part, 1))


def test_split_folds_trailing_empty_buckets(tmp_path):
    """A split range whose last buckets hold no row writes no 0-row
    file for them: they join the last piece with rows, and the pieces
    still tile the range."""
    import pyarrow as pa

    from ton_etl_ray.core.partition import assign_partitions

    ids = [f"k{i}" for i in range(400)]
    b = assign_partitions(pa.array(ids), 8)
    ids = sorted(d for d, x in zip(ids, b) if x in (0, 2, 3))
    t = pa.table({"doc_id": ids, "lsn": pa.array(range(len(ids)), pa.int64())})
    lake = str(tmp_path / "lake")
    out = sink.write_range(lake, 0, 8, 0, 8, t, {"rows_in": len(ids), "max_lsn": len(ids)}, 1)
    spans = [(m["part"], m["hi"]) for m in out]
    assert spans == [(0, 1), (1, 3), (3, 8)]  # bucket 1 (empty) joins the next piece
    assert all(m["rows"] > 0 for m in out) and sum(m["rows"] for m in out) == len(ids)
