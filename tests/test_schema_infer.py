"""Schema discovery from sampled records (generate_schema.py analogue)
and its stable-parse wiring in the Debezium watcher preprocessor."""

import json
import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from ton_etl_ray.cdc.schema_infer import infer_schema, infer_schema_jsonl


def test_infer_schema_reference_type_mapping():
    recs = [
        {"s": "x", "big": 2**40, "n": 1, "b": True, "f": 1.5,
         "mix": 1, "j": {"k": 1}, "allnull": None},
        {"s": "y", "big": 3, "n": None, "b": False, "f": 2,
         "mix": 2.5, "j": [1, 2], "allnull": None},
    ]
    sch = infer_schema(recs)
    by = {f.name: f.type for f in sch}
    assert by["s"] == pa.string()
    assert by["big"] == pa.int64()          # bigint → long
    assert by["n"] == pa.int64()            # nullable int stays long
    assert by["b"] == pa.bool_()
    assert by["f"] == pa.float64()          # numeric → double
    assert by["mix"] == pa.float64()        # int+float widen to double
    assert by["j"] == pa.string()           # jsonb → string (warned)
    assert by["allnull"] == pa.string()     # USER-DEFINED fallback (warned)
    # CDC bookkeeping injected at the end when missing
    assert sch.names[-2:] == ["__lsn", "__op"]
    assert by["__lsn"] == pa.int64() and by["__op"] == pa.string()

    # already-present bookkeeping is not duplicated
    sch2 = infer_schema([{"__lsn": 7, "__op": "c", "v": 1}])
    assert sch2.names == ["__lsn", "__op", "v"]

    # irreconcilable mix raises (the unsupported-type error)
    with pytest.raises(TypeError):
        infer_schema([{"x": True}, {"x": 1.5}])

    # json_as_string=False omits nested columns (parser keeps structs)
    sch3 = infer_schema(recs, json_as_string=False)
    assert "j" not in sch3.names


def test_infer_schema_jsonl_sampling(tmp_path):
    p = tmp_path / "s.jsonl"
    with open(p, "w") as f:
        for i in range(10):
            f.write(json.dumps({"a": i, "t": f"r{i}"}) + "\n")
    sch = infer_schema_jsonl(str(p), max_records=5)
    assert sch.field("a").type == pa.int64()
    assert sch.field("t").type == pa.string()


def test_watch_drifting_jsonl_stream(tmp_path):
    """A shard whose column is ALL NULL (and which adds a brand-new
    column) must parse against the schema discovered from shard 1 —
    n_tok stays int64 instead of degrading to null type — and the lake
    must evolve to carry the new column (VERDICT r2 missing #4)."""
    from ton_etl_ray.cdc.replay import final_state_table
    from ton_etl_ray.cdc.streaming import DirectoryWatcher, debezium_preprocessor

    def shard(path, rows):
        with open(path, "w") as f:
            for r in rows:
                f.write(json.dumps(r) + "\n")

    watch = str(tmp_path / "incoming")
    os.makedirs(watch)
    shard(os.path.join(watch, "s1.jsonl"), [
        {"__lsn": 1, "__op": "c", "__table": "d", "__source_ts_ms": 1,
         "doc_id": "a", "n_tok": 2, "source": "web"},
        {"__lsn": 2, "__op": "c", "__table": "d", "__source_ts_ms": 2,
         "doc_id": "b", "n_tok": 5, "source": "code"},
    ])

    lake = str(tmp_path / "lake")
    stage = str(tmp_path / "stage")
    pre = debezium_preprocessor(stage, infer_stable_schema=True)
    w = DirectoryWatcher(watch, lake, num_partitions=4,
                         max_batch_shards=1, pattern="*.jsonl",
                         preprocess=pre, stable_polls=0)
    try:
        w.step()
        assert len(w.epochs) == 1
        # drift: n_tok all-null, plus a never-seen column
        shard(os.path.join(watch, "s2.jsonl"), [
            {"__lsn": 3, "__op": "u", "__table": "d", "__source_ts_ms": 3,
             "doc_id": "a", "n_tok": None, "source": "web", "lang": "en"},
        ])
        w.step()
        assert len(w.epochs) == 2
    finally:
        w.close()

    # staged shard 2 kept n_tok at int64 despite being all-null
    t2 = pq.read_table(os.path.join(stage, "s2.jsonl.parquet"))
    assert t2.schema.field("n_tok").type == pa.int64()

    state = final_state_table(lake)
    rows = {r["doc_id"]: r for r in state.to_pylist()}
    assert rows["a"]["n_tok"] is None and rows["a"]["lang"] == "en"
    assert rows["b"]["n_tok"] == 5 and rows["b"]["lang"] is None


def test_drift_contradicting_pin_does_not_wedge(tmp_path):
    """A column that samples all-null (omitted from the pin) or pins as
    string but later carries numbers must not wedge the watcher: the
    contradicting shard degrades to per-shard inference and the stream
    advances (code-review r3 finding)."""
    from ton_etl_ray.cdc.replay import final_state_table
    from ton_etl_ray.cdc.streaming import DirectoryWatcher, debezium_preprocessor

    def shard(path, rows):
        with open(path, "w") as f:
            for r in rows:
                f.write(json.dumps(r) + "\n")

    watch = str(tmp_path / "incoming")
    os.makedirs(watch)
    # shard 1: "score" is all-null (no observable type), "weight" samples
    # as int → pinned int64
    shard(os.path.join(watch, "s1.jsonl"), [
        {"__lsn": 1, "__op": "c", "__table": "d", "__source_ts_ms": 1,
         "doc_id": "a", "n_tok": 2, "source": "web", "score": None, "weight": 2},
    ])
    lake = str(tmp_path / "lake")
    pre = debezium_preprocessor(str(tmp_path / "stage"), infer_stable_schema=True)
    w = DirectoryWatcher(watch, lake, num_partitions=4,
                         max_batch_shards=1, pattern="*.jsonl",
                         preprocess=pre, stable_polls=0)
    try:
        w.step()
        # shard 2: score turns out NUMERIC (was unsampleable → must have
        # been omitted from the pin, not pinned string), and weight —
        # pinned int64 — now carries a float: the explicit-schema parse
        # fails, the shard degrades to per-shard inference, and the
        # engine's widening evolution (int64 → float64) finishes the job
        shard(os.path.join(watch, "s2.jsonl"), [
            {"__lsn": 2, "__op": "u", "__table": "d", "__source_ts_ms": 2,
             "doc_id": "a", "n_tok": 3, "source": "web", "score": 0.5, "weight": 3.7},
        ])
        w.step()
        assert len(w.epochs) == 2        # stream advanced, no wedge
    finally:
        w.close()
    rows = {r["doc_id"]: r for r in final_state_table(lake).to_pylist()}
    assert rows["a"]["n_tok"] == 3 and rows["a"]["score"] == 0.5
    assert rows["a"]["weight"] == 3.7
