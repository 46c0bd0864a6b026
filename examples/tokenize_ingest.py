"""The closed training-data loop: raw text → BPE tokenize → CDC change
log → exactly-once lake replay.

`bpe_train` learns a merge table from the documents corpus, `bpe_encode`
materializes the pre-tokenized sequence table in the lake's own payload
shape (doc_id, tokens: list<int32>, n_tok, source — BASELINE.json
input_hint), and the encoded rows are written as an insert-only change
log that the CDC engine replays into a committed lake epoch. The final
lake state must equal the encoder output row-for-row (token-array
equality per doc_id).

Run:  python examples/tokenize_ingest.py [sf_dir]
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

import pyarrow as pa
import pyarrow.compute as pc

from ton_etl_ray.cdc.replay import final_state_table, replay
from ton_etl_ray.ops.corpus import bpe_encode, bpe_train

sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.001"
work = "/tmp/tonray_tokenize_ingest"
shutil.rmtree(work, ignore_errors=True)
chg, lake = f"{work}/changes", f"{work}/lake"
os.makedirs(chg)

# 1. train the tokenizer (one distributed word-count pass, driver merge loop)
merges = bpe_train(sf_dir, num_merges=40)
print(f"trained {merges.num_rows} BPE merges "
      f"(first: {merges['left'][0].as_py()!r}+{merges['right'][0].as_py()!r})")

# 2. tokenize the corpus into the lake payload shape (zero-shuffle map)
encoded = bpe_encode(sf_dir, merges=merges)


# 3. wrap the encoded rows as an insert-only change log: the engine's
#    envelope is (lsn, op, doc_id:string, tokens, n_tok, source); lsn
#    order is the doc order (each doc appears once → any total order
#    replays to the same final state)
def to_change_shard(t: pa.Table) -> pa.Table:
    base = pc.multiply(t["doc_id"], 1000)  # doc_id-derived, block-independent
    return pa.table({
        "lsn": base.cast(pa.int64()),
        "op": pa.array(["c"] * t.num_rows, pa.string()),
        "doc_id": pc.cast(t["doc_id"], pa.string()),
        "tokens": t["tokens"],
        "n_tok": t["n_tok"].cast(pa.int32()),
        "source": t["source"],
    })


encoded.map_batches(to_change_shard, batch_format="pyarrow").write_parquet(chg)

# 4. replay the log into a committed lake epoch (2PC, sha256-verified files)
res = replay(chg, lake, num_partitions=16)
print(f"epoch {res.epoch}: {res.rows_total} docs committed to the lake")

# 5. verify: lake state == encoder output, token-array equality per doc
lake_df = final_state_table(lake).to_pandas()
enc_df = encoded.to_pandas()
lake_map = {int(r.doc_id): list(r.tokens) for r in lake_df.itertuples()}
enc_map = {int(r.doc_id): list(r.tokens) for r in enc_df.itertuples()}
assert lake_map == enc_map, "lake state diverged from encoder output"
print(f"verified: {len(lake_map)} docs, lake tokens == encoder tokens")

ray.shutdown()
