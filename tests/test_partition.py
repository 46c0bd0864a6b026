import subprocess
import sys

import numpy as np
import pyarrow as pa

from ton_etl_ray.core.partition import assign_partitions, hash64


def test_hash_deterministic_across_processes():
    keys = pa.array([f"doc-{i}" for i in range(100)])
    local = hash64(keys)[:5].tolist()
    code = (
        "import pyarrow as pa; from ton_etl_ray.core.partition import hash64; "
        "print(hash64(pa.array([f'doc-{i}' for i in range(100)]))[:5].tolist())"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        cwd="/root/repo",
    )
    assert eval(out.stdout.strip()) == local


def test_same_key_same_partition():
    keys = pa.array(["a", "b", "a", "c", "b"])
    p = assign_partitions(keys, 8)
    assert p[0] == p[2] and p[1] == p[4]


def test_partition_balance():
    keys = pa.array([f"doc-{i:09d}" for i in range(20000)])
    p = assign_partitions(keys, 32)
    counts = np.bincount(p, minlength=32)
    assert counts.min() > 0.7 * counts.mean()
    assert counts.max() < 1.3 * counts.mean()


def test_bloom_filter_no_false_negatives():
    import numpy as np

    from ton_etl_ray.core.bloom import BloomFilter

    rng = np.random.default_rng(5)
    keys = rng.integers(0, 1 << 62, size=100_000, dtype=np.int64)
    bf = BloomFilter(len(keys))
    bf.add(keys)
    assert bf.contains(keys).all()  # zero false negatives, always
    probe = rng.integers(0, 1 << 62, size=100_000, dtype=np.int64)
    fresh = probe[~np.isin(probe, keys)]
    fp = bf.contains(fresh).mean()
    assert fp < 0.01, fp  # 16 bits/key, 8 hashes → ~4e-4 expected
