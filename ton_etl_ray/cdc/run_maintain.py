"""CLI / ``ray job submit`` entry point for lake maintenance:
compaction, garbage collection, lineage verification, stats, and
epoch-to-epoch diffs — the operational companion of ``run_replay``.

Usage::

    python -m ton_etl_ray.cdc.run_maintain --lake DIR \
        [--compact] [--partitions P] [--gc-keep K] [--verify] \
        [--stats] [--diff A [B]] [--snapshot OUT] [--changefeed OUT] \
        [--prune-feeds N --feed-root DIR] [--num-cpus N]

Actions run in the order: diff → compact → prune-feeds → gc → verify
→ stats — the diff first (it reads the PRE-maintenance epochs, which
compaction renumbers past and GC may collect), then compact, then
feed retention BEFORE lake GC (the new feed head's pre-image epoch
must still exist for its snapshot rewrite), then collect the history
compaction freed, then prove the result. Prints one JSON line
per action. This is the only place
besides run_replay/bench/tests that owns a Ray session.
"""

from __future__ import annotations

import argparse
import json
import os
import time


def _atomic_feed_export(out_dir: str, emit) -> None:
    """Build-then-rename for CLI feed exports: consumers
    (``apply_feeds`` / ``FeedFollower``) treat a feed directory as
    complete the instant it exists, and ``emit_snapshot`` /
    ``emit_changefeed`` write their shards one by one — so a crash
    mid-export must never leave a partial feed at the published path.
    Same discipline as ``DirectoryWatcher._publish_feed``."""
    import shutil

    out_dir = out_dir.rstrip("/")
    if os.path.isdir(out_dir) and os.listdir(out_dir):
        # fail before building: any leftover (shards, or a torn export's
        # lone _feed.json) would make the final rmdir fail after the build
        raise SystemExit(f"feed out dir {out_dir!r} already contains files; "
                         "export into a fresh directory")
    build = out_dir + f".build.{os.getpid()}"
    shutil.rmtree(build, ignore_errors=True)
    try:
        emit(build)
    except BaseException:
        shutil.rmtree(build, ignore_errors=True)
        raise
    if os.path.isdir(out_dir):
        os.rmdir(out_dir)  # empty (guard above) — rename needs it gone
    os.rename(build, out_dir)


def main(argv: list[str] | None = None) -> int:
    from ._driver import default_cpus, init_driver

    ap = argparse.ArgumentParser()
    ap.add_argument("--lake", required=True)
    ap.add_argument("--compact", action="store_true",
                    help="re-materialize the committed state as a fresh epoch")
    ap.add_argument("--partitions", type=int, default=None,
                    help="re-shard to this partition count while compacting")
    ap.add_argument("--gc-keep", type=int, default=0,
                    help=">0: collect superseded epochs, keeping N")
    ap.add_argument("--verify", action="store_true",
                    help="check partition sha256 lineage of the latest epoch")
    ap.add_argument("--stats", action="store_true")
    ap.add_argument("--diff", nargs="+", type=int, default=None,
                    metavar="EPOCH", help="diff epoch A against B (default: latest)")
    ap.add_argument("--snapshot", default=None, metavar="OUT_DIR",
                    help="export the latest (or --diff A's) epoch as an "
                         "insert-only change log (replica seed)")
    ap.add_argument("--changefeed", default=None, metavar="OUT_DIR",
                    help="export the --diff A [B] epoch diff as a replayable "
                         "change log (requires --diff)")
    ap.add_argument("--prune-feeds", type=int, default=0, metavar="N",
                    help=">0: keep the newest N feeds under --feed-root, "
                         "re-seeding the new head as a snapshot")
    ap.add_argument("--feed-root", default=None, metavar="DIR",
                    help="published feed chain directory for --prune-feeds")
    ap.add_argument("--num-cpus", type=int, default=default_cpus())
    args = ap.parse_args(argv)
    if args.partitions is not None and not args.compact:
        ap.error("--partitions only applies together with --compact")
    if args.diff is not None and len(args.diff) > 2:
        ap.error("--diff takes at most two epochs (FROM [TO])")
    if args.changefeed is not None and args.diff is None:
        ap.error("--changefeed requires --diff A [B] for the epoch range")
    if (args.prune_feeds > 0) != (args.feed_root is not None):
        ap.error("--prune-feeds N and --feed-root DIR go together")

    needs_ray = (args.compact or args.diff is not None
                 or args.snapshot is not None or args.changefeed is not None
                 or args.prune_feeds > 0)
    if needs_ray:
        # gc/verify/stats are pure commit-manifest filesystem code — no
        # Ray session for metadata-only invocations
        init_driver(args.num_cpus)

    import pyarrow.compute as pc

    from . import sink
    from .compact import compact_lake
    from .replay import epoch_diff

    if args.diff is not None:
        a = args.diff[0]
        b = args.diff[1] if len(args.diff) > 1 else None
        t0 = time.perf_counter()
        # at most three classes: count them per batch, no shuffle
        counts: dict[str, int] = {}
        for batch in epoch_diff(args.lake, a, b).iter_batches(batch_format="pyarrow",
                                                               batch_size=None):
            for vc in pc.value_counts(batch["change"]).to_pylist():
                counts[vc["values"]] = counts.get(vc["values"], 0) + vc["counts"]
        print(json.dumps({
            "action": "diff", "from_epoch": a,
            "to_epoch": b if b is not None else sink.latest_epoch(args.lake),
            "counts": dict(sorted(counts.items())),
            "sec": round(time.perf_counter() - t0, 3),
        }))
    if args.snapshot is not None:
        from .changefeed import emit_snapshot

        t0 = time.perf_counter()
        epoch = args.diff[0] if args.diff else None
        _atomic_feed_export(
            args.snapshot,
            lambda build: emit_snapshot(args.lake, build, epoch=epoch))
        print(json.dumps({
            "action": "snapshot", "out": args.snapshot,
            "epoch": epoch if epoch is not None else sink.latest_epoch(args.lake),
            "sec": round(time.perf_counter() - t0, 3),
        }))
    if args.changefeed is not None:
        from .changefeed import emit_changefeed

        t0 = time.perf_counter()
        a = args.diff[0]
        b = args.diff[1] if len(args.diff) > 1 else None
        _atomic_feed_export(
            args.changefeed,
            lambda build: emit_changefeed(args.lake, build, a, b))
        print(json.dumps({
            "action": "changefeed", "out": args.changefeed,
            "from_epoch": a,
            "to_epoch": b if b is not None else sink.latest_epoch(args.lake),
            "sec": round(time.perf_counter() - t0, 3),
        }))
    if args.compact:
        t0 = time.perf_counter()
        commit = compact_lake(args.lake, num_partitions=args.partitions)
        print(json.dumps({
            "action": "compact", "epoch": commit["epoch"],
            "rows_total": commit["rows_total"],
            "num_partitions": commit["num_partitions"],
            "sec": round(time.perf_counter() - t0, 3),
        }))
    if args.prune_feeds > 0:
        # before lake GC, same order as the watcher: the new head's
        # pre-image epoch must still exist for the snapshot rewrite
        from .changefeed import prune_feeds

        t0 = time.perf_counter()
        kept = prune_feeds(args.lake, args.feed_root,
                           keep_feeds=args.prune_feeds)
        print(json.dumps({
            "action": "prune_feeds", "feed_root": args.feed_root,
            "kept_epochs": kept,
            "sec": round(time.perf_counter() - t0, 3),
        }))
    if args.gc_keep > 0:
        print(json.dumps({"action": "gc",
                          **sink.gc_epochs(args.lake, keep_epochs=args.gc_keep)}))
    if args.verify:
        print(json.dumps({"action": "verify", **sink.verify_lake(args.lake)}))
    if args.stats:
        print(json.dumps({"action": "stats", **sink.lake_stats(args.lake)}))

    if needs_ray:
        import ray

        ray.shutdown()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
