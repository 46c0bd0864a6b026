"""Continuous operation demo: shards arrive while the watcher drains
them into committed lake epochs, then the final state is queried and
checked against a one-shot replay of the same shards.

Run:  python examples/streaming_watch.py
(Owns its Ray session like all CLI entry points.)
"""

import glob
import os
import shutil
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import ray

ray.init(address="local", num_cpus=8, include_dashboard=False, logging_level="ERROR")
from ray.data import DataContext

DataContext.get_current().enable_progress_bars = False

from ton_etl_ray.cdc.replay import final_state_table, replay
from ton_etl_ray.cdc.sink import lake_stats
from ton_etl_ray.cdc.streaming import DirectoryWatcher
from ton_etl_ray.gen import write_change_log

WORK = "/tmp/tonray_example_watch"
shutil.rmtree(WORK, ignore_errors=True)
src = os.path.join(WORK, "src")
incoming = os.path.join(WORK, "incoming")
lake = os.path.join(WORK, "lake")
os.makedirs(incoming)

write_change_log(src, num_events=30_000, num_keys=2_000, seed=7, num_shards=6, max_tok=16)
shards = sorted(glob.glob(os.path.join(src, "*.parquet")))

def arrive(path: str) -> None:
    """Producer contract: write OUTSIDE the watch dir (or to a .tmp
    name), then atomically rename into place — the watcher must never
    observe a half-copied shard (its quiescence gate is only a backstop)."""
    tmp = os.path.join(incoming, "." + os.path.basename(path) + ".tmp")
    shutil.copy(path, tmp)
    os.replace(tmp, os.path.join(incoming, os.path.basename(path)))


watcher = DirectoryWatcher(incoming, lake, num_partitions=16,
                           max_batch_shards=2, idle_flush_sec=0.5,
                           stable_polls=0)  # producer renames atomically
try:
    # simulate arrival in three waves; each step() polls + maybe flushes
    for wave in (shards[:2], shards[2:5], shards[5:]):
        for f in wave:
            arrive(f)
        watcher.step()
    # idle drain of any partial batch
    import time

    while watcher.pending:
        time.sleep(0.6)
        watcher.step()
finally:
    watcher.close()

print("epochs committed:", [e["epoch"] for e in watcher.epochs])
print("lake stats:", lake_stats(lake)["epochs"][-1])

oneshot = os.path.join(WORK, "lake_oneshot")
replay(src, oneshot, num_partitions=16)
a = {r["doc_id"]: r["n_tok"] for r in final_state_table(lake).to_pylist()}
b = {r["doc_id"]: r["n_tok"] for r in final_state_table(oneshot).to_pylist()}
assert a == b, "watched lake != one-shot replay"
print(f"final state matches one-shot replay: {len(a)} keys")

ray.shutdown()
