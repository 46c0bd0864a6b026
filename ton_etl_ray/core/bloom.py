"""Vectorized Bloom filter over int64 keys (numpy bit array).

Used by replay's narrow exchange when the winning-lsn set grows past
what a sorted array can reasonably broadcast (10^9+ live keys → 8+ GB
exact vs ~2 GB bloom at 16 bits/key, fp ≈ 4e-4). False positives only
cost extra fetched rows that lose the LWW merge — provided tombstone
winners are ALSO in the set (see ``replay._apply_late``) — so the
filter is correctness-neutral by construction.
"""

from __future__ import annotations

import numpy as np

_MIX1 = np.uint64(0xFF51AFD7ED558CCD)
_MIX2 = np.uint64(0xC4CEB9FE1A85EC53)


def _mix(x: np.ndarray, salt: int) -> np.ndarray:
    with np.errstate(over="ignore"):
        h = x.astype(np.uint64) ^ np.uint64(salt)
        h ^= h >> np.uint64(33)
        h *= _MIX1
        h ^= h >> np.uint64(33)
        h *= _MIX2
        h ^= h >> np.uint64(33)
    return h


class BloomFilter:
    def __init__(self, capacity: int, bits_per_key: int = 16, num_hashes: int = 8):
        self.m = max(64, int(capacity * bits_per_key))
        self.k = num_hashes
        self.words = np.zeros((self.m + 63) // 64, dtype=np.uint64)

    def add(self, keys: np.ndarray) -> None:
        h1 = _mix(keys, 0x1234)
        h2 = _mix(keys, 0xABCD) | np.uint64(1)
        for i in range(self.k):
            with np.errstate(over="ignore"):
                idx = (h1 + np.uint64(i) * h2) % np.uint64(self.m)
            np.bitwise_or.at(self.words, (idx >> np.uint64(6)).astype(np.int64),
                             np.uint64(1) << (idx & np.uint64(63)))

    def contains(self, keys: np.ndarray) -> np.ndarray:
        out = np.ones(len(keys), dtype=bool)
        h1 = _mix(keys, 0x1234)
        h2 = _mix(keys, 0xABCD) | np.uint64(1)
        for i in range(self.k):
            with np.errstate(over="ignore"):
                idx = (h1 + np.uint64(i) * h2) % np.uint64(self.m)
            bits = self.words[(idx >> np.uint64(6)).astype(np.int64)]
            out &= (bits >> (idx & np.uint64(63))) & np.uint64(1) == 1
        return out

    @property
    def nbytes(self) -> int:
        return self.words.nbytes
