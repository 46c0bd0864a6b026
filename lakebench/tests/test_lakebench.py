"""Tests of the benchmark's own parts; none of them starts Ray.

Run from the repository root: ``python3 -m pytest lakebench/tests -q``.
"""

from __future__ import annotations

import json
import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from lakebench.gen import Keyspace, write_log
from lakebench.oracle import Oracle, OracleMismatch
from lakebench.spans import Tracer, tail


def _log(tmp_path, seed: int, name: str = "log") -> list[str]:
    return write_log(str(tmp_path / name), Keyspace(seed, 300), seed=seed, stream=0,
                     num_events=4000, lsn_start=100, num_shards=4, evolve_from_shard=2)


def _read_bytes(paths):
    return [open(p, "rb").read() for p in paths]


def test_generator_same_seed_gives_identical_shards(tmp_path):
    a, b = _log(tmp_path, 7, "a"), _log(tmp_path, 7, "b")
    assert _read_bytes(a) == _read_bytes(b)
    assert _read_bytes(_log(tmp_path, 8, "c")) != _read_bytes(a)


def test_generator_lsns_unique_and_schema_evolves(tmp_path):
    files = _log(tmp_path, 3)
    tables = [pq.read_table(f) for f in files]
    lsns = pa.concat_arrays([t["lsn"].combine_chunks() for t in tables]).to_pylist()
    assert lsns == list(range(100, 4100))
    assert "lang" not in tables[0].column_names and tables[0].schema.field("n_tok").type == pa.int32()
    assert "lang" in tables[3].column_names and tables[3].schema.field("n_tok").type == pa.int64()
    deletes = tables[0].filter(pa.compute.equal(tables[0]["op"], "d"))
    assert deletes.num_rows and deletes["tokens"].null_count == deletes.num_rows


def _final_state(files) -> tuple[list[dict], dict]:
    """Last-writer-wins by a plain Python fold: (live rows, deleted doc -> last live row)."""
    rows = sorted((r for f in files for r in pq.read_table(f).to_pylist()), key=lambda r: r["lsn"])
    live, last_live, dead = {}, {}, {}
    for r in rows:
        if r["op"] == "d":
            live.pop(r["doc_id"], None)
            if r["doc_id"] in last_live:
                dead[r["doc_id"]] = last_live[r["doc_id"]]
        else:
            live[r["doc_id"]] = last_live[r["doc_id"]] = r
            dead.pop(r["doc_id"], None)
    return list(live.values()), dead


def _state_table(rows) -> pa.Table:
    cols = ("doc_id", "tokens", "n_tok", "source", "lang", "lsn")
    return pa.table({c: [r.get(c) for r in rows] for c in cols}).cast(pa.schema([
        ("doc_id", pa.string()), ("tokens", pa.list_(pa.int32())), ("n_tok", pa.int64()),
        ("source", pa.string()), ("lang", pa.string()), ("lsn", pa.int64())]))


def _write_lake(lake, rows) -> None:
    os.makedirs(lake / "epoch-000000")
    pq.write_table(_state_table(rows), lake / "epoch-000000" / "part-00000.parquet")
    commit = {"partitions": {"0": {"path": "epoch-000000/part-00000.parquet", "rows": len(rows)}}}
    (lake / "epoch-000000" / "_COMMIT.json").write_text(json.dumps(commit))
    (lake / "_LATEST").write_text("0")


@pytest.fixture
def applied(tmp_path):
    files = _log(tmp_path, 11)
    oracle = Oracle()
    oracle.apply(files[:2])
    oracle.apply(files[2:])
    live, dead = _final_state(files)
    yield oracle, live, dead
    oracle.close()


def test_oracle_accepts_the_correct_lake(tmp_path, applied):
    oracle, live, _ = applied
    _write_lake(tmp_path / "lake", live)
    oracle.check_lake(str(tmp_path / "lake"))
    oracle.check_lake(str(tmp_path / "lake"), full=True)
    assert oracle.checks == 2


def test_oracle_rejects_one_flipped_token(tmp_path, applied):
    oracle, live, _ = applied
    bad = [dict(r) for r in live]
    bad[5]["tokens"] = [bad[5]["tokens"][0] ^ 1] + bad[5]["tokens"][1:]
    _write_lake(tmp_path / "lake", bad)
    with pytest.raises(OracleMismatch):
        oracle.check_lake(str(tmp_path / "lake"))


def test_oracle_rejects_a_resurrected_tombstone(tmp_path, applied):
    oracle, live, dead = applied
    assert dead, "the log should delete some documents for good"
    _write_lake(tmp_path / "lake", live + [next(iter(dead.values()))])
    with pytest.raises(OracleMismatch):
        oracle.check_lake(str(tmp_path / "lake"))


def test_oracle_checks_snapshot_scans(applied):
    oracle, live, _ = applied
    table = _state_table(live)
    oracle.check_scan(table)
    with pytest.raises(OracleMismatch):
        oracle.check_scan(table.slice(1))


def test_tail_needs_ten_samples_beyond_it():
    assert tail([]) is None
    assert tail(range(10)) is None
    assert tail(range(11)) == (0.0, 0.0)
    pct, value = tail(range(100))
    assert value == 89.0 and pct == pytest.approx(100 * 89 / 99)
    assert sum(1 for x in range(100) if x > value) == 10


def test_self_time_subtracts_children():
    tr = Tracer()
    tr.recording = True
    with tr.span("outer") as outer:
        with tr.span("inner") as inner:
            pass
    calls, total, self_s = tr.self_times()["outer"]
    assert calls == 1 and total == outer.elapsed
    assert self_s == pytest.approx(outer.elapsed - inner.elapsed)


def test_metric_names_match_benchmark_json():
    from lakebench.worker import LAYER_COUNTS, LAYER_TIMES, e2e_metrics
    from lakebench.workloads import Sample

    spec = json.load(open(os.path.join(os.path.dirname(__file__), "..", "..", "BENCHMARK.json")))
    sample = Sample(events=10, grown_bytes=100, commit_s=1.0, commit_cpu_s=1.0, read_s=0.5, read_cpu_s=0.5)
    assert set(e2e_metrics([sample], 1.0, 1 << 20)) == {m["name"] for m in spec["end_to_end"]}
    bench = {"bench.setup.ray_start_s", "bench.setup.gen_s", "bench.setup.base_lake_s",
             "bench.commit_wall_s", "bench.read_wall_s", "bench.trace.overhead_s"}
    layers = {f"{n}_s" for n in LAYER_TIMES} | set(LAYER_COUNTS) | bench
    assert layers == {m["name"] for m in spec["per_layer"]}
