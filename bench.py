"""Benchmark harness (driver contract).

Headline: CDC change-log replay (events/sec) over a deterministic
synthetic log sized to the scale factor, through the full engine
(normalize → partial compact → shuffle → partition appliers → 2PC sink).
Plus per-query timings for the flagship operator set.

Prints ONE JSON line:
  {"metric": ..., "value": <headline seconds>, "unit": "sec",
   "queries": {...}, "sf": ..., "num_cpus": N, "cpus": <host CPUs>, ...}

--scaling: runs the same bench in two fresh processes at num_cpus=8 and
num_cpus=32 on the same input and reports both throughputs + scaling
efficiency (the sandbox substitute for the north rule's N vs 4N node
clusters — see BASELINE.md).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

REPO = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, REPO)

SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
# Ray's CPU count; defaults to the host's so a small box is not
# oversubscribed
NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS") or os.cpu_count() or 1)

# change-log size scales with the sf directory's lineitem rows (sf0.1 →
# 600k lineitem → 20M events over 2M keys). Sized so the replay runs
# ~15-60 s: long enough that parallel compute, not fixed pipeline
# latency, dominates the scaling measurement.
EVENTS_PER_LINEITEM_ROW = 33.4
MAX_TOK = 48
# --scaling uses a larger log (x2 by default, GRAFT_BENCH_EVENTS_MULT to
# override): a job must be big enough to saturate 4N cores before scaling
# efficiency is meaningful (the production target is 10^10 events;
# 2x10^7 leaves 32 cores half idle on fixed latencies)
EVENTS_MULT = int(os.environ.get("GRAFT_BENCH_EVENTS_MULT", "1"))
SKIP_QUERIES = os.environ.get("GRAFT_BENCH_SKIP_QUERIES") == "1"
# single-node wall time is noisy (+/-40% on this VM); take the min of
# TRIALS replays so the scaling comparison measures the engine, not the
# scheduler lottery
TRIALS = int(os.environ.get("GRAFT_BENCH_TRIALS", "3"))


def _sf_tag() -> str:
    return os.path.basename(os.path.normpath(SF_DIR))


def _cpu_ticks() -> tuple[int, int]:
    """(steal, total) jiffies from /proc/stat — the hypervisor steal
    counter is the one DIRECT co-tenancy signal on this host (loadavg
    is dominated by the bench's own 32-cpu work). Sampled start→end of
    the timed region; the delta ratio is reported as cpu_steal_pct."""
    try:
        parts = open("/proc/stat").readline().split()
        vals = [int(x) for x in parts[1:]]
        steal = vals[7] if len(vals) > 7 else 0
        return steal, sum(vals)
    except Exception:
        return 0, 0


def _steal_pct(t0: tuple[int, int], t1: tuple[int, int]) -> float:
    dt = t1[1] - t0[1]
    return round(100.0 * (t1[0] - t0[0]) / dt, 2) if dt > 0 else 0.0


def _ensure_change_log() -> tuple[str, int]:
    import pyarrow.parquet as pq

    n_li = pq.ParquetFile(os.path.join(SF_DIR, "lineitem.parquet")).metadata.num_rows
    num_events = int(n_li * EVENTS_PER_LINEITEM_ROW) * EVENTS_MULT
    # key universe capped: shuffle volume scales with distinct-keys-per-
    # block, so a fixed universe keeps the compaction ratio comparable
    # across scaling-mode input sizes
    num_keys = min(2_000_000, max(1000, num_events // 10))
    num_shards = 64  # fixed, NOT a function of NUM_CPUS: shard count caps
    # read parallelism, so it must be identical across scaling levels
    # the tag encodes EVERY generator parameter: a stale cache from a
    # different max_tok/seed/key-count would silently measure an old log
    tag = (f"/tmp/tonray_bench_{_sf_tag()}_{num_events}_k{num_keys}"
           f"_s{num_shards}_t{MAX_TOK}_seed42")
    marker = os.path.join(tag, "_DONE")
    if not os.path.exists(marker):
        shutil.rmtree(tag, ignore_errors=True)
        from ton_etl_ray.gen import write_change_log

        write_change_log(
            tag, num_events=num_events, num_keys=num_keys, seed=42,
            num_shards=num_shards, max_tok=MAX_TOK,
        )
        open(marker, "w").write("ok")
    return tag, num_events


def run_bench() -> dict:
    import ray

    ray.init(
        address="local", num_cpus=NUM_CPUS, include_dashboard=False,
        ignore_reinit_error=True, logging_level="ERROR",
    )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.execution_options.preserve_order = False

    from ton_etl_ray.cdc.replay import replay

    chg_dir, num_events = _ensure_change_log()

    # warm page cache (untimed) so we measure compute+shuffle, not cold reads
    import pyarrow.parquet as pq
    import glob

    for f in glob.glob(os.path.join(chg_dir, "*.parquet")):
        pq.read_table(f)
    # warm the worker pool (untimed): process spawn + imports happen once
    import ray.data as rd

    rd.range(NUM_CPUS * 8, override_num_blocks=NUM_CPUS * 8).map_batches(
        lambda b: b, batch_format="pyarrow"
    ).count()

    # job structure is FIXED (blocks, partitions) so the two parallelism
    # levels run the identical job — the N vs 4N cluster analogue varies
    # only compute resources, not the plan
    lake = f"/tmp/tonray_bench_lake_{_sf_tag()}_{NUM_CPUS}"
    ticks0 = _cpu_ticks()
    headline = float("inf")
    for _ in range(TRIALS):
        shutil.rmtree(lake, ignore_errors=True)
        t0 = time.perf_counter()
        res = replay(chg_dir, lake, num_partitions=256,
                     override_num_blocks=int(os.environ.get("GRAFT_BENCH_BLOCKS", "32")) * EVENTS_MULT)
        headline = min(headline, time.perf_counter() - t0)

    # operator benchmarks
    import __ray_entry__ as E

    qs = E.queries()
    bench_queries = [
        "q1_pricing_summary", "filtered_revenue", "broadcast_join_parts",
        "asof_last_click", "session_count", "rank1_snapshot",
        "windowed_hourly", "topk_users", "dedup_docs_prefix",
        "exact_dedup_hash", "minhash_lsh_pairs", "knn_cosine",
        "simhash_signatures", "doc_token_stats", "rolling_daily_spend",
        "pivot_daily_events", "grouped_percentiles",
        "q3_top_orders", "q6_forecast_revenue", "sliding_window_counts",
        # word_jaccard_pairs is deliberately absent: it is the declared
        # sf≤0.01 ORACLE path (all-pairs incidence matmul), not a
        # production operator — the production near-dup paths timed here
        # are minhash/ngram/lsh with the distributed join verify
        "bpe_token_count",
        # round-2 additions: distributed-verify dedup, composed as-of
        # query, decimal aggregation, embedding LSH with join verify
        "ngram_jaccard_pairs", "lsh_embedding_pairs",
        "order_lifecycle", "decimal_revenue", "cdc_replay",
        "top_tokens", "knn_batch", "enrich_event_types",
        # round-3 additions: Hamming-banded signature pairs, distributed
        # connected-component grouping (min-label propagation), and the
        # continuous watcher derive-and-publish pipeline.
        # dedup_filter_corpus is deliberately absent: it re-runs the
        # identical edge-discovery + CC pipeline and adds one semi-join,
        # so timing it doubles ~20 s of wall for no extra signal.
        "simhash_pairs", "dedup_groups", "derived_publish",
        # round-3 corpus-global statistics: term-sharded shuffle joins
        # the global aggregate (vocabulary / unigram LM / eval n-gram
        # fingerprints) back per document — never broadcast
        "tfidf_top_terms", "unigram_logppl", "contamination_check",
        # Gopher-style intra-doc repetition quality signals — pure
        # per-doc map, no shuffle
        "repetition_signals",
        # composed end-to-end curation: gate → exact dedup → report
        "corpus_curation",
        # token-payload analytics over the replayed lake (includes its
        # own flagship replay — the cost is dominated by that setup)
        "lake_token_histogram", "source_token_budget",
        # iterative distributed loop: one assignment pass per Lloyd
        # iteration, k x dim centroids on the driver only
        "kmeans_clusters",
        # per-document rewrite family (zero-shuffle maps) + SemDeDup
        # cluster-then-prune (one cluster-key shuffle)
        "pii_redact", "normalize_text", "chunk_documents",
        "pack_sequences", "semdedup_survivors",
        # per-column data-quality profile (partial-combined distincts)
        "profile_events",
        # interval join + priority-aware exact dedup + PCA projection
        "range_join_clicks", "dedup_prefer_source", "pca_project",
        # grouped mergeable-sketch shuffle (4 KiB HLL rows, not values)
        "approx_distinct_by_type",
        # BPE merge training (one corpus pass + vocab-bounded loop)
        "bpe_train",
        # duplicated-span exposure (term-sharded frequent-gram join)
        "dup_span_flags",
        # linear probe fit + corpus-wide scoring (exact moments)
        "linear_probe",
        # ordered funnel + day-cohort retention (one user shuffle each)
        "funnel_counts", "retention_cohorts",
        # committed-state diff over the cached two-epoch lake (the
        # epoch delta on doc_id, lsn: partition pairs, no join)
        "epoch_diff",
        # incremental view maintenance from the same epoch delta (shares
        # the cached two-epoch lake; times delta + fold)
        "incremental_budget", "incremental_histogram",
        # changefeed export (epoch delta → one change shard per task)
        "changefeed_export",
        # referential-integrity gate (anti-join on key partials)
        "fk_orphans",
        # BOC payload decode (pure-Python codec in actor-pool batches)
        "boc_decode_events",
        # registry-surface parser with full TEP-74 body decode
        "jetton_transfers",
        # two-message swap parse (decode ∥ decode → parent-hash join →
        # broadcast wallet dim) + its per-pool volume rollup
        "dex_swaps", "swap_volume",
        # ext-out launchpad trade decode (multi-opcode + whitelist claim)
        "bcl_trades",
        # account-state rank-1 → decode-winners → price (P21-P24 shape)
        "core_prices",
        # account-state 1→many: winner's nominator hashmap fan-out (P25)
        "staking_nominators",
        # account-state TEP-64 decode from rank-1 winners (P26)
        "nft_item_states",
        # parser-over-derived-table + in-trace reassembly join (P4)
        "megaton_swaps",
        # two-column broadcast-dim classification (P20)
        "nft_history",
        # code whitelist → storage decode → StateInit-hash auth (P28)
        "wallets_recover",
        # fixprice-sale decode with the jetton-price fallback (P29)
        "nft_sales",
        # sales ∪ auctions normalized union (J4/C10 get_nft_sale)
        "nft_sale_union",
        # payload-opcode claim + request decode + trace join (P9/P10)
        "moon_swaps",
        # round-5 additions: price-normalized volume (as-of composition
        # against the pruned price observation series), the dedust
        # claim+codec family, and the TVM-emulator families (rank-1 →
        # emulate winners; factory-validated swap pipelines)
        "swap_volume_priced", "dedust_swaps",
        "emu_pool_states", "emu_core_prices",
        "dedust_swaps_verified", "coffee_swaps",
        # the P30 delta-compare loop (fetch → canonical diff → feed)
        "metadata_refresh",
    ]
    # Setup/compute split (VERDICT r3 Wrong #5): queries whose pipeline
    # needs a lake or change log build it UNTIMED here (cached, shared),
    # so the per-query timing measures the operator. The setup cost is
    # reported separately under "setup_sec".
    from ton_etl_ray.ops.messages import ensure_message_table
    from ton_etl_ray.ops.prices import (
        ensure_nft_state_table as _ensure_nft_state_table,
        ensure_stake_table as _ensure_stake_table,
        ensure_state_table as _ensure_state_table,
    )
    from ton_etl_ray.ops.megaton import ensure_transfer_table as _ensure_megaton_table
    from ton_etl_ray.ops.moon import ensure_transfer_table as _ensure_moon_table
    from ton_etl_ray.ops.nft_history import ensure_transfer_table as _ensure_nfthist_table
    from ton_etl_ray.ops.swaps import ensure_swap_table as _ensure_swap_table
    from ton_etl_ray.ops.trades import ensure_trade_table as _ensure_trade_table
    from ton_etl_ray.ops.sales import (
        ensure_auction_table as _ensure_auction_table,
        ensure_sale_table as _ensure_sale_table,
    )
    from ton_etl_ray.ops.wallets import ensure_state_table as _ensure_wallet_table
    from ton_etl_ray.ops.dedust import ensure_dedust_table as _ensure_dedust_table
    from ton_etl_ray.ops import emulated as _emulated

    def _ensure_emu_tables(sf_dir):
        from ton_etl_ray.ops._util import cached_synth_table
        cached_synth_table(sf_dir, "emupool", "customer", _emulated.synth_emu_pool_states)
        cached_synth_table(sf_dir, "emuvault", "supplier", _emulated.synth_emu_vault_states)
        cached_synth_table(sf_dir, "dedustv2", "part", _emulated.synth_dv_messages)
        cached_synth_table(sf_dir, "coffeest", "orders", _emulated.synth_coffee_states)
        cached_synth_table(sf_dir, "coffeemsg", "orders", _emulated.synth_coffee_messages)
    from ton_etl_ray.pipelines import (
        ensure_epoch_diff_lake, ensure_flagship_lake, ensure_flagship_log,
        ensure_ivm_views as _ensure_ivm_views,
    )

    setup_hooks = {
        # cdc_replay / derived_publish time the replay / watcher ingest
        # themselves — only the synthetic log generation is setup
        "flagship_log": ensure_flagship_log,
        # lake analytics read the committed flagship lake
        "flagship_lake": ensure_flagship_lake,
        # epoch_diff times the committed-state diff, not the two replays
        "epoch_diff_lake": ensure_epoch_diff_lake,
        # IVM base views are the state a deployment already holds when a
        # commit lands: built untimed so incremental_budget/_histogram
        # time the maintenance step (diff + delta passes + merge)
        "ivm_views": _ensure_ivm_views,
        # decode queries time the BOC decode, not the body synthesis
        "message_table": ensure_message_table,
        # swap queries time the two-message parse, not the body synthesis
        "swap_table": _ensure_swap_table,
        # trade/state queries time the claim+decode / rank-1+decode
        "trade_table": _ensure_trade_table,
        "state_table": _ensure_state_table,
        "stake_table": _ensure_stake_table,
        "nft_state_table": _ensure_nft_state_table,
        # P4/P20/P28 inputs: derived-transfer, nft-transfer, wallet-state
        "megaton_table": _ensure_megaton_table,
        "nfthist_table": _ensure_nfthist_table,
        "wallet_table": _ensure_wallet_table,
        # P29 input: sale-contract state table
        "sale_table": _ensure_sale_table,
        # J4 union input: auction-contract state table
        "auction_table": _ensure_auction_table,
        # P9/P10 input: payload-bearing derived transfer table
        "moon_table": _ensure_moon_table,
        # P1 claim+codec input and the emulator families' state/message
        # feeds (queries time parse/rank-1/emulate, not body synthesis)
        "dedust_table": _ensure_dedust_table,
        "emu_tables": _ensure_emu_tables,
    }
    setup_sec = {}
    if not SKIP_QUERIES:
        for sname, hook in setup_hooks.items():
            t0 = time.perf_counter()
            hook(SF_DIR)
            setup_sec[sname] = round(time.perf_counter() - t0, 3)

    qtimes = {}
    if SKIP_QUERIES:
        bench_queries = []
    for name in bench_queries:
        t0 = time.perf_counter()
        out = qs[name](SF_DIR)
        if hasattr(out, "iter_batches"):  # Dataset → consume the stream
            for _ in out.iter_batches(batch_size=65536, batch_format="pyarrow"):
                pass
        qtimes[name] = round(time.perf_counter() - t0, 3)

    ray.shutdown()
    return {
        "metric": "cdc_replay_and_operator_suite",
        "value": round(headline, 3),
        "unit": "sec",
        "queries": qtimes,
        "setup_sec": setup_sec,
        "sf": _sf_tag(),
        "num_cpus": NUM_CPUS,
        "cpus": os.cpu_count(),
        "events": num_events,
        "events_per_sec": round(num_events / headline, 1),
        "lake_rows": res.rows_total,
        "loadavg_1m": os.getloadavg()[0],  # external host contention marker
        # hypervisor steal over the whole timed region: >5-10% means the
        # host was co-tenant-loaded and wall times are not the engine's
        "cpu_steal_pct": _steal_pct(ticks0, _cpu_ticks()),
    }


def run_scaling() -> dict:
    lo, hi = 8, 32
    outs = {}
    # hi leg FIRST: it is the burst-fragile one (three ~8 s trials vs the
    # lo leg's ~25 s trials), so it runs closest to the launch moment the
    # operator verified quiet; order does not change what is measured
    for n in (hi, lo):
        env = dict(os.environ, RAY_GRAFT_CPUS=str(n), GRAFT_SF_DIR=SF_DIR,
                   GRAFT_BENCH_EVENTS_MULT=os.environ.get("GRAFT_BENCH_EVENTS_MULT", "2"),
                   GRAFT_BENCH_SKIP_QUERIES="1",
                   GRAFT_BENCH_TRIALS=os.environ.get("GRAFT_BENCH_TRIALS", "3"))
        r = subprocess.run(
            [sys.executable, os.path.join(REPO, "bench.py")],
            env=env, capture_output=True, text=True, check=True, cwd=REPO,
        )
        outs[n] = json.loads(r.stdout.strip().splitlines()[-1])
    t_lo, t_hi = outs[lo]["value"], outs[hi]["value"]
    eff = (t_lo / t_hi) / (hi / lo)
    return {
        "metric": "cdc_replay_scaling",
        "unit": "efficiency",
        "sf": _sf_tag(),
        "sec_8": t_lo,
        "sec_32": t_hi,
        "events_per_sec_8": outs[lo]["events_per_sec"],
        "events_per_sec_32": outs[hi]["events_per_sec"],
        "scaling_efficiency": round(eff, 3),
        "value": round(eff, 3),
        "loadavg_1m": os.getloadavg()[0],
        # per-leg hypervisor steal: the co-tenancy marker that actually
        # attributes a bad sweep (loadavg is self-load during the legs)
        "cpu_steal_pct_8": outs[lo].get("cpu_steal_pct"),
        "cpu_steal_pct_32": outs[hi].get("cpu_steal_pct"),
    }


if __name__ == "__main__":
    if "--scaling" in sys.argv:
        print(json.dumps(run_scaling()))
    else:
        print(json.dumps(run_bench()))
