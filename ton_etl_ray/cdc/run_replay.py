"""CLI / ``ray job submit`` entry point for the CDC replay pipeline.

Usage::

    python -m ton_etl_ray.cdc.run_replay --changes DIR --lake DIR \
        [--num-partitions P] [--resume] [--num-cpus N]

This is the only place (besides bench.py and the test fixture) that owns
a Ray session; library code never calls ray.init (driver contract).
"""

from __future__ import annotations

import argparse
import json
import time


def main(argv: list[str] | None = None) -> int:
    from ._driver import default_cpus, init_driver

    ap = argparse.ArgumentParser()
    ap.add_argument("--changes", required=True)
    ap.add_argument("--lake", required=True)
    ap.add_argument("--num-partitions", type=int, default=64)
    ap.add_argument("--resume", action="store_true")
    ap.add_argument("--excluded-doc-ids", default=None,
                    help="comma-separated keys to drop (data corrections)")
    ap.add_argument("--gc-keep-epochs", type=int, default=0,
                    help=">0: GC superseded epochs after publish, keeping N")
    ap.add_argument("--stats", action="store_true", help="print lake_stats after run")
    ap.add_argument("--num-cpus", type=int, default=default_cpus())
    args = ap.parse_args(argv)

    init_driver(args.num_cpus)
    import ray

    from . import sink
    from .replay import replay

    excluded = (
        frozenset(args.excluded_doc_ids.split(",")) if args.excluded_doc_ids else None
    )
    t0 = time.perf_counter()
    res = replay(
        args.changes,
        args.lake,
        num_partitions=args.num_partitions,
        resume=args.resume,
        excluded_doc_ids=excluded,
    )
    dt = time.perf_counter() - t0
    if args.gc_keep_epochs > 0:
        sink.gc_epochs(args.lake, keep_epochs=args.gc_keep_epochs)
    if args.stats:
        print(json.dumps(sink.lake_stats(args.lake)))
    print(
        json.dumps(
            {
                "epoch": res.epoch,
                "published": res.published,
                "rows_total": res.rows_total,
                "max_lsn": res.max_lsn,
                "rows_in": res.counters["rows_in"],
                "sec": round(dt, 3),
            }
        )
    )
    ray.shutdown()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
