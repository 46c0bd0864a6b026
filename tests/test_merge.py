"""Unit tests for the pure LWW merge kernels (no Ray needed).

Mirrors the reference's pure-function test style
(tests/parser/message/test_swap_volume.py in /root/reference)."""

import pyarrow as pa
import pytest

from ton_etl_ray.core.merge import combine, compact, merge_state, oracle_apply
from ton_etl_ray.gen import make_adversarial_log, make_change_batch


def _chg(rows):
    cols = {
        "lsn": pa.array([r[0] for r in rows], pa.int64()),
        "op": pa.array([r[1] for r in rows], pa.string()),
        "doc_id": pa.array([r[2] for r in rows], pa.string()),
        "tokens": pa.array([r[3] for r in rows], pa.list_(pa.int32())),
    }
    return pa.table(cols)


def test_lww_max_lsn_wins():
    t = _chg([(1, "c", "a", [1]), (3, "u", "a", [3]), (2, "u", "a", [2])])
    out = compact(t, keep_tombstones=False)
    assert out.num_rows == 1
    assert out["lsn"][0].as_py() == 3
    assert out["tokens"][0].as_py() == [3]


def test_tombstone_drops_key():
    t = _chg([(1, "c", "a", [1]), (2, "d", "a", None), (1, "c", "b", [9])])
    out = compact(t, keep_tombstones=False)
    assert out["doc_id"].to_pylist() == ["b"]


def test_tombstone_kept_for_partials():
    t = _chg([(1, "c", "a", [1]), (2, "d", "a", None)])
    out = compact(t, keep_tombstones=True)
    assert out.num_rows == 1 and out["op"][0].as_py() == "d"


def test_delete_then_recreate():
    t = _chg([(1, "c", "a", [1]), (2, "d", "a", None), (3, "c", "a", [7])])
    out = compact(t, keep_tombstones=False)
    assert out["tokens"][0].as_py() == [7]


def test_duplicate_lsn_applies_once():
    # exact duplicates: analogue of ON CONFLICT DO NOTHING (db.py:279-282)
    t = _chg([(5, "c", "a", [5]), (5, "c", "a", [5])])
    out = compact(t, keep_tombstones=False)
    assert out.num_rows == 1


def test_stale_update_loses():
    t = _chg([(9, "u", "a", [9]), (4, "u", "a", [4])])
    out = compact(t, keep_tombstones=False)
    assert out["lsn"][0].as_py() == 9


def test_merge_state_incremental_equals_oneshot():
    log = make_change_batch(num_events=4000, num_keys=250, seed=11)
    half = log.num_rows // 2
    s1 = merge_state(None, log.slice(0, half))
    s2 = merge_state(s1, log.slice(half))
    oneshot = merge_state(None, log)
    a = {r["doc_id"]: (r["lsn"], r["tokens"]) for r in s2.to_pylist()}
    b = {r["doc_id"]: (r["lsn"], r["tokens"]) for r in oneshot.to_pylist()}
    assert a == b


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_compact_matches_sequential_oracle(seed):
    log = make_change_batch(num_events=3000, num_keys=200, seed=seed)
    got = {r["doc_id"]: r["tokens"] for r in compact(log, keep_tombstones=False).to_pylist()}
    want = {r["doc_id"]: r["tokens"] for r in oracle_apply(log).to_pylist()}
    assert got == want


def test_adversarial_corpus_matches_oracle():
    log = make_adversarial_log()
    got = {r["doc_id"]: (r["lsn"], r["tokens"]) for r in compact(log, keep_tombstones=False).to_pylist()}
    want = {r["doc_id"]: (r["lsn"], r["tokens"]) for r in oracle_apply(log).to_pylist()}
    assert got == want
    assert "doc-hot" in got  # deleted at lsn 2000, re-created at 2001


def test_order_insensitivity():
    log = make_change_batch(num_events=2000, num_keys=100, seed=5)
    shuffled = log.take(pa.array(list(reversed(range(log.num_rows)))))
    a = compact(log, keep_tombstones=False).sort_by("doc_id")
    b = compact(shuffled, keep_tombstones=False).sort_by("doc_id")
    assert a.equals(b)


def test_compact_refuses_null_doc_id():
    """Null keys must fail LOUD: the first-of-run mask coerces null
    comparisons to False, so null-key rows used to vanish silently."""
    import pytest

    t = pa.table({
        "doc_id": pa.array(["a", None, "b"], pa.string()),
        "lsn": pa.array([1, 2, 3], pa.int64()),
        "op": pa.array(["c", "c", "c"], pa.string()),
    })
    with pytest.raises(ValueError, match="null doc_id"):
        compact(t)


def _compact_full_gather(changes, keep_tombstones):
    """Reference LWW compaction that gathers every row's payload in
    sort order before dropping the losers."""
    import pyarrow.compute as pc

    from ton_etl_ray.core.merge import SORT_KEYS, _first_per_key_mask

    t = changes.take(pc.sort_indices(changes, sort_keys=SORT_KEYS))
    out = t.filter(_first_per_key_mask(t["doc_id"]))
    if not keep_tombstones:
        out = out.filter(pc.not_equal(out["op"], pa.scalar("d")))
    return out


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
@pytest.mark.parametrize("keep_tombstones", [True, False])
def test_compact_equals_full_gather(seed, keep_tombstones):
    """compact gathers only the winners' payloads; its output must equal
    the full-gather reference row for row, on multi-chunk input with
    duplicate (doc_id, lsn, op) ties carrying different payloads."""
    import numpy as np

    rng = np.random.default_rng(seed)
    n = 3000
    lsn = rng.integers(0, 400, size=n)           # many exact lsn ties
    op = rng.choice(["c", "u", "d"], size=n, p=[0.4, 0.4, 0.2])
    keys = rng.integers(0, 150, size=n)
    rows = [
        (int(l), str(o), f"k{k:04d}", None if o == "d" else [int(i), int(l)])
        for i, (l, o, k) in enumerate(zip(lsn, op, keys))
    ]
    chunks = [_chg(rows[i:i + 700]) for i in range(0, n, 700)]
    t = pa.concat_tables(chunks)
    assert t["doc_id"].num_chunks > 1
    got = compact(t, keep_tombstones=keep_tombstones)
    want = _compact_full_gather(t, keep_tombstones)
    assert got.equals(want)
    assert got.num_rows > 0
    if keep_tombstones:
        assert "d" in got["op"].to_pylist()
    else:
        assert "d" not in got["op"].to_pylist()


def test_combine_tie_goes_to_first_row_in_input_order():
    """Exact (doc_id, lsn, op) duplicates with different payloads: the
    first in input order wins, as in compact; a higher op on the same
    lsn beats both."""
    t = pa.concat_tables([
        _chg([(5, "u", "a", [1]), (5, "c", "b", [2]), (4, "u", "b", [9])]),
        _chg([(5, "u", "a", [3]), (5, "d", "b", None), (5, "c", "b", [4])]),
    ])
    got = combine(t)
    assert got.to_pylist() == [
        {"lsn": 5, "op": "u", "doc_id": "a", "tokens": [1]},
        {"lsn": 5, "op": "d", "doc_id": "b", "tokens": None},
    ]
    assert got.sort_by("doc_id").equals(compact(t))


def test_combine_empty_and_int64_ends():
    empty = _chg([])
    assert combine(empty).equals(empty)
    lo, hi = -(1 << 63), (1 << 63) - 1
    t = _chg([(lo, "c", "a", [1]), (hi, "u", "b", [2]), (lo, "u", "a", [3]),
              (hi - 1, "c", "b", [4]), (lo, "c", "c", [5])])
    assert combine(t)["tokens"].to_pylist() == [[2], [3], [5]]
    assert combine(t).sort_by("doc_id").equals(compact(t))


@pytest.mark.parametrize("col", ["doc_id", "lsn"])
def test_combine_refuses_null_key_or_lsn(col):
    t = _chg([(1, "c", "a", [1]), (2, "c", "b", [2])])
    i = t.schema.get_field_index(col)
    t = t.set_column(i, col, pa.array([t[col][0].as_py(), None], t.schema.field(col).type))
    with pytest.raises(ValueError, match=f"null {col}"):
        combine(t)


def test_combine_single_key_block_gives_one_row():
    """The skew bound: a block of one hot key leaves one row."""
    t = _chg([(i, "ud"[i % 2], "hot", None if i % 2 else [i]) for i in range(5000)])
    out = combine(t)
    assert out.num_rows == 1
    assert out.to_pylist() == [{"lsn": 4999, "op": "d", "doc_id": "hot", "tokens": None}]
