"""Quickstart: generate a change log, replay it, query the lake.

Run:  python examples/quickstart.py
(Any cwd works; owns its Ray session like all CLI entry points.)
"""

import os
import shutil
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import ray

ray.init(address="local", num_cpus=8, include_dashboard=False,
         ignore_reinit_error=True, logging_level="ERROR")
from ray.data import DataContext

DataContext.get_current().enable_progress_bars = False

from ton_etl_ray.cdc import sink
from ton_etl_ray.cdc.replay import read_lake, replay
from ton_etl_ray.gen import write_change_log

work = "/tmp/tonray_quickstart"
shutil.rmtree(work, ignore_errors=True)
chg, lake = f"{work}/changes", f"{work}/lake"

# 1. a deterministic CDC change log: 100k insert/update/delete events
write_change_log(chg, num_events=100_000, num_keys=8_000, seed=7, num_shards=8)

# 2. replay it into an exactly-once Parquet lake (epoch 0)
res = replay(chg, lake, num_partitions=32)
print(f"epoch {res.epoch}: {res.rows_total} live docs, watermark lsn {res.max_lsn}")

# 3. incremental ingest: apply a second log on top (epoch 1)
write_change_log(f"{work}/more", num_events=20_000, num_keys=8_000, seed=8)
import glob
import pyarrow.parquet as pq
import pyarrow as pa

for f in glob.glob(f"{work}/more/*.parquet"):  # shift lsns above epoch 0
    t = pq.read_table(f)
    t = t.set_column(t.column_names.index("lsn"), "lsn",
                     pa.compute.add(t["lsn"], pa.scalar(1_000_000, pa.int64())))
    pq.write_table(t, f)
res1 = replay(f"{work}/more", lake)
print(f"epoch {res1.epoch}: wrote {res1.partitions_written}, "
      f"inherited {res1.partitions_inherited} files")

# 4. query the committed lake as a Ray Dataset
ds = read_lake(lake)
from ray.data.aggregate import Count

per_source = ds.groupby("source").aggregate(Count(alias_name="n")).to_pandas()
print(per_source.sort_values("source").to_string(index=False))

# 5. observability + lineage
print(sink.lake_stats(lake))
print(sink.verify_lake(lake))

ray.shutdown()
