"""Property-based check: vectorized LWW == sequential oracle for ANY log."""

import pyarrow as pa
from hypothesis import given, settings
from hypothesis import strategies as st

from ton_etl_ray.core.merge import combine, compact, merge_state, oracle_apply


def _table(events):
    # events: list of (key:int, op, payload:int); lsn = position
    return pa.table(
        {
            "lsn": pa.array(range(len(events)), pa.int64()),
            "op": pa.array([op for _, op, _ in events], pa.string()),
            "doc_id": pa.array([f"k{k}" for k, _, _ in events], pa.string()),
            "tokens": pa.array(
                [None if op == "d" else [p] for _, op, p in events], pa.list_(pa.int32())
            ),
        }
    )


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=8),
            st.sampled_from(["c", "u", "d"]),
            st.integers(min_value=0, max_value=1000),
        ),
        min_size=0,
        max_size=60,
    ),
    st.randoms(use_true_random=False),
)
def test_compact_equals_oracle_any_log(events, rnd):
    t = _table(events)
    # at-least-once delivery: append exact duplicates of random rows
    if len(events):
        dup_idx = [rnd.randrange(len(events)) for _ in range(min(5, len(events)))]
        t = pa.concat_tables([t, t.take(pa.array(dup_idx))])
    got = {
        r["doc_id"]: (r["lsn"], tuple(r["tokens"]))
        for r in compact(t, keep_tombstones=False).to_pylist()
    }
    want = {
        r["doc_id"]: (r["lsn"], tuple(r["tokens"]))
        for r in oracle_apply(t).to_pylist()
    }
    assert got == want


INT64_MIN, INT64_MAX = -(1 << 63), (1 << 63) - 1


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=6),
            # few distinct lsns (duplicate deliveries, mixed ops on one
            # lsn) including the int64 ends
            st.sampled_from([INT64_MIN, INT64_MIN + 1, -1, 0, 1, 2, INT64_MAX - 1, INT64_MAX]),
            st.sampled_from(["c", "u", "d"]),
        ),
        max_size=60,
    ),
    st.lists(st.integers(min_value=1, max_value=59), max_size=4),
)
def test_combine_picks_compacts_winners(rows, cuts):
    """``combine`` keeps the row ``compact`` keeps for every key — max
    lsn, then max op, then the first in input order (every row carries
    its input position as payload, so a tied duplicate that is not the
    first would show) — and keeps the winners in input order, on input
    split into chunks at ``cuts``."""
    t = pa.table({
        "lsn": pa.array([lsn for _, lsn, _ in rows], pa.int64()),
        "op": pa.array([op for _, _, op in rows], pa.string()),
        "doc_id": pa.array([f"k{k}" for k, _, _ in rows], pa.string()),
        "pos": pa.array(range(len(rows)), pa.int64()),
    })
    bounds = sorted({c for c in cuts if c < len(rows)})
    t = pa.concat_tables([t.slice(lo, hi - lo)
                          for lo, hi in zip([0, *bounds], [*bounds, len(rows)])] or [t])
    got = combine(t)
    assert got.schema == t.schema
    assert got.sort_by("doc_id").equals(compact(t))
    pos = got["pos"].to_pylist()
    assert pos == sorted(pos)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=30), unique=True, max_size=20),
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=30),
            st.sampled_from(["c", "u", "d"]),
            st.integers(min_value=0, max_value=1000),
        ),
        max_size=40,
    ),
)
def test_merge_state_output_doc_ids_strictly_increase(state_keys, events):
    """The partition writer stores ``merge_state``'s output unsorted: it
    must come out in strictly ascending doc_id order whatever the order
    of the state and the changes."""
    state = pa.table({
        "lsn": pa.array([-1 - i for i in range(len(state_keys))], pa.int64()),
        "doc_id": pa.array([f"k{k}" for k in state_keys], pa.string()),
        "tokens": pa.array([[k] for k in state_keys], pa.list_(pa.int32())),
    })
    ids = merge_state(state, _table(events))["doc_id"].to_pylist()
    assert all(a < b for a, b in zip(ids, ids[1:])), ids


def test_portable_shuffle_join_matches_pandas_merge():
    """Property: the union-tag-bucket join equals a plain pandas merge
    for random key distributions (incl. duplicate keys on both sides,
    keys present on only one side, and list-typed payload columns)."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    from hypothesis import given, settings, strategies as st

    from ton_etl_ray.ops.relational import _portable_shuffle_join

    @settings(max_examples=5, deadline=None)
    @given(
        lkeys=st.lists(st.integers(0, 12), min_size=0, max_size=30),
        rkeys=st.lists(st.integers(0, 12), min_size=0, max_size=30),
        seed=st.integers(0, 10_000),
    )
    def check(lkeys, rkeys, seed):
        rng = np.random.default_rng(seed)
        lt = pa.table({
            "k": pa.array(lkeys, pa.int64()),
            "lv": pa.array(rng.integers(0, 100, len(lkeys)), pa.int64()),
            "feats": pa.array([[int(x)] * (i % 3) for i, x in enumerate(lkeys)],
                              pa.list_(pa.int64())),
        })
        rt = pa.table({
            "k": pa.array(rkeys, pa.int64()),
            # payloads ABOVE 2^53: a join that routes int64 through a
            # float64 anywhere corrupts the low bits (the pandas group
            # concat did exactly that before the Arrow/polars rewrite)
            "rv": pa.array(
                rng.integers(0, 100, len(rkeys)) + ((1 << 62) + 1), pa.int64()
            ),
        })
        got = _portable_shuffle_join(
            rd.from_arrow(lt), rd.from_arrow(rt), "k", num_partitions=4,
            left_schema=lt.schema, right_schema=rt.schema,
        ).to_pandas()
        want = lt.to_pandas().merge(rt.to_pandas(), on="k", how="inner")

        def norm(df):
            if df.empty:
                return []
            return sorted(
                (int(k), int(lv), tuple(f), int(rv))
                for k, lv, f, rv in zip(df["k"], df["lv"], df["feats"], df["rv"])
            )

        assert norm(got) == norm(want)

    check()


def test_distinct_pairs_property():
    """Property: the coarse-bucket distinct equals a plain set-dedup for
    random pair multisets."""
    import pyarrow as pa
    import ray.data as rd

    from hypothesis import given, settings, strategies as st

    from ton_etl_ray.ops.dedup import _distinct_pairs

    @settings(max_examples=5, deadline=None)
    @given(pairs=st.lists(st.tuples(st.integers(0, 50), st.integers(0, 50)),
                          min_size=0, max_size=200))
    def check(pairs):
        t = pa.table({
            "id_a": pa.array([a for a, _ in pairs], pa.int64()),
            "id_b": pa.array([b for _, b in pairs], pa.int64()),
        })
        got = _distinct_pairs(rd.from_arrow(t)).to_pandas()
        if not pairs:
            # an all-empty Dataset converts to a column-less frame
            # (Ray artifact); production callers guard with
            # materialize().count() == 0 before consuming
            assert got.empty
            return
        got_set = set(zip(got["id_a"], got["id_b"]))
        assert got_set == set(pairs)
        assert len(got) == len(set(pairs))   # no duplicates survive

    check()


def test_avro_roundtrip_property():
    """Property: Avro OCF write→read is identity for random nullable
    rows over the supported type lattice."""
    import pyarrow as pa

    from hypothesis import given, settings, strategies as st

    from ton_etl_ray.sources_avro import read_avro, write_avro

    @settings(max_examples=10, deadline=None)
    @given(
        ints=st.lists(st.one_of(st.none(), st.integers(-(2**62), 2**62)), max_size=40),
        data=st.data(),
    )
    def check(ints, data):
        import os

        tmpdir = "/tmp/avro_prop"
        n = len(ints)
        strs = data.draw(st.lists(st.one_of(st.none(), st.text(max_size=20)),
                                  min_size=n, max_size=n))
        floats = data.draw(st.lists(st.one_of(st.none(), st.floats(allow_nan=False)),
                                    min_size=n, max_size=n))
        lists = data.draw(st.lists(st.one_of(st.none(), st.lists(st.integers(-100, 100), max_size=5)),
                                   min_size=n, max_size=n))
        t = pa.table({
            "i": pa.array(ints, pa.int64()),
            "s": pa.array(strs, pa.string()),
            "f": pa.array(floats, pa.float64()),
            "l": pa.array(lists, pa.list_(pa.int32())),
        })
        os.makedirs(tmpdir, exist_ok=True)
        p = os.path.join(tmpdir, "t.avro")
        write_avro(t, p, rows_per_block=7)
        assert read_avro(p).to_pylist() == t.to_pylist()

    check()
