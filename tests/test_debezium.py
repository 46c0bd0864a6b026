"""Debezium JSONL envelope ingestion → replay parity."""

import json
import os

import pyarrow.parquet as pq

from ton_etl_ray.cdc.debezium import read_debezium_jsonl
from ton_etl_ray.cdc.replay import final_state_table, replay
from ton_etl_ray.functions import encode_debezium_numeric

import decimal


def _write_jsonl(path, rows):
    with open(path, "w") as f:
        for r in rows:
            f.write(json.dumps(r) + "\n")


def test_debezium_roundtrip_replay(tmp_path):
    rows = [
        {"__lsn": 1, "__op": "r", "__table": "docs", "__source_ts_ms": 1000,
         "doc_id": "a", "tokens": [1, 2], "n_tok": 2, "source": "web",
         "score": encode_debezium_numeric(decimal.Decimal("12.34"), 2)},
        {"__lsn": 2, "__op": "c", "__table": "docs", "__source_ts_ms": 1007,
         "doc_id": "b", "tokens": [3], "n_tok": 1, "source": "code",
         "score": encode_debezium_numeric(decimal.Decimal("-0.5"), 1)},
        {"__lsn": 3, "__op": "u", "__table": "docs", "__source_ts_ms": 1014,
         "doc_id": "a", "tokens": [9, 9, 9], "n_tok": 3, "source": "web",
         "score": encode_debezium_numeric(decimal.Decimal("99.99"), 2)},
        {"__lsn": 4, "__op": "d", "__table": "docs", "__source_ts_ms": 1021,
         "doc_id": "b", "tokens": None, "n_tok": None, "source": None, "score": None},
    ]
    src = str(tmp_path / "events.jsonl")
    _write_jsonl(src, rows)

    ds = read_debezium_jsonl(src, numeric_fields=("score",))
    import pyarrow as pa

    tbl = pa.concat_tables(list(ds.iter_batches(batch_format="pyarrow")))
    assert tbl.column_names[:2] == ["lsn", "op"]
    assert sorted(tbl["op"].to_pylist()) == ["c", "c", "d", "u"]  # 'r' folded to 'c'
    assert tbl.filter(pa.compute.equal(tbl["lsn"], 1))["score"][0].as_py() == 12.34

    # stage as parquet change shards and run the full replay
    chg = str(tmp_path / "chg")
    os.makedirs(chg)
    pq.write_table(tbl, os.path.join(chg, "shard-00000.parquet"))
    lake = str(tmp_path / "lake")
    replay(chg, lake, num_partitions=2)

    state = {r["doc_id"]: r for r in final_state_table(lake).to_pylist()}
    assert set(state) == {"a"}  # b deleted
    assert state["a"]["tokens"] == [9, 9, 9]
    assert state["a"]["score"] == 99.99


def test_payload_envelope_name_collision_refused():
    """A payload column named 'op'/'lsn'/'ts_ms' would silently collide
    with the renamed envelope columns (which side wins depended on dump
    column order) — refuse loudly instead."""
    import pyarrow as pa
    import pytest

    from ton_etl_ray.cdc.debezium import normalize_debezium_batch

    t = pa.table({
        "op": pa.array(["x"], pa.string()),           # payload, not envelope
        "__op": pa.array(["c"], pa.string()),
        "__lsn": pa.array([1], pa.int64()),
        "doc_id": pa.array(["a"], pa.string()),
    })
    with pytest.raises(ValueError, match="collide with the engine's envelope"):
        normalize_debezium_batch(t)
