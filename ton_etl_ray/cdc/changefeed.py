"""Changefeed export: the engine as a CDC *producer*.

The reference's exporter loop is consume→convert→re-produce
(datalake/streaming.py — Kafka in, converted Kafka out). The
committed-state form of that loop: export what changed between two
lake epochs as an ordered change log that the SAME engine (or any
downstream consumer of the change schema) can replay — lake→lake
replication without shipping the full table.

- ``emit_snapshot(lake, out, epoch=…)``: every live row of one epoch
  as a create, carrying its stored winning lsn. Seeds a replica.
- ``emit_changefeed(lake, out, epoch_a, epoch_b=…)``: the epoch diff
  as change rows — added keys as creates and updated keys as updates
  (payload = the epoch-b winner, stored lsn preserved), deleted keys
  as tombstones at ``commit(b).max_lsn + 1`` (greater than any
  replicated lsn, so the delete wins LWW on the replica exactly as it
  won on the primary).

Scale shape: both are the span's epoch delta (``delta.delta_stream``,
the derivation the maintained views and ``epoch_diff`` share): a
snapshot is the span from nothing, so every row of its epoch is new. No
join and no shuffle: each task of the delta reads the rewritten
partitions of its key-closed groups and writes ONE shard of change rows
(fsynced, ``sink.atomic_write_table``); the ``_feed.json`` stamp goes
last. In-process below one read block, Ray Data tasks above it. Output
is sharded Parquet in the engine's own change schema, so
``replay(feed_dir, replica)`` applies it with full exactly-once /
crash-resume semantics.

Equivalence contract (pinned in tests/test_changefeed.py): replaying
``snapshot(a)`` then ``changefeed(a→b)`` into a fresh replica yields a
final state identical to the primary's epoch-b state, row for row.

ONE FEED PER REPLAY INVOCATION. Tombstones ride at ``commit(b).max_lsn
+ 1``, which the NEXT epoch's real lsns may legitimately reuse — so two
consecutive feeds merged into a single replay directory can tie a
delete against a re-create of the same key at the same lsn, and the
``(lsn DESC, op DESC)`` tiebreak would let the delete win a row the
primary has live. Applied one feed per ``replay()`` call the tie never
forms: the tombstone is folded (and dropped) into the replica's state
before the later feed's create is ever compared against it.
``apply_feeds`` enforces this mechanically — use it rather than
globbing feed shards together.
"""

from __future__ import annotations

import os
import uuid

import pyarrow as pa
import pyarrow.compute as pc

from . import sink
from .delta import classify, delta_stream


def _fresh_out_dir(out_dir: str) -> None:
    """Refuse a dir that already holds change shards: a second export
    into it would leave BOTH shard sets, and a replay of the directory
    would apply duplicated rows (LWW makes upsert dupes harmless but a
    stale feed's deletes could resurrect ordering surprises — fail
    loudly instead)."""
    import glob as _glob

    if _glob.glob(os.path.join(out_dir, "*.parquet")):
        raise ValueError(
            f"changefeed out_dir {out_dir!r} already contains parquet "
            "shards; export into a fresh directory"
        )


FEED_META = "_feed.json"


def _write_feed_meta(out_dir: str, meta: dict) -> None:
    import json

    sink.atomic_write_bytes(os.path.join(out_dir, FEED_META), json.dumps(meta).encode())


def read_feed_meta(feed_dir: str) -> dict | None:
    """The feed's provenance stamp: kind (snapshot/changefeed), epoch
    bounds, and the tombstone lsn (changefeeds only). ``None`` for
    pre-stamp feed dirs."""
    import json

    p = os.path.join(feed_dir, FEED_META)
    if not os.path.exists(p):
        return None
    with open(p) as f:
        return json.load(f)


def apply_feeds(feed_root: str, replica_dir: str, **replay_kw) -> list[int]:
    """Replay a published feed chain (the watcher's ``epoch-NNNNNN``
    layout) into a replica — ONE ``replay()`` invocation per feed, in
    epoch order. This is the safe consumption path for the module-doc
    tombstone-lsn contract: a delete at ``max_lsn(b)+1`` is folded into
    replica state before epoch b+1's feed (whose real lsns may reuse
    that value) is applied, so the cross-feed lsn tie can never form.

    Verifies the chain is contiguous from each feed's ``_feed.json``
    stamp (a gap means a GC'd epoch whose diff is unreplayable — fail
    loudly rather than silently skipping changes), and that a feed
    seeding an EMPTY replica is a *snapshot* feed: a GC'd chain HEAD
    leaves a contiguous tail of changefeed diffs, and seeding from a
    diff would silently build a replica missing every unchanged key.
    A non-empty replica may legitimately resume at a changefeed (its
    earlier epochs already hold the base state). Extra ``replay_kw``
    (e.g. ``num_partitions``) apply to the FIRST feed only; later
    epochs adopt the replica's layout, matching ``replay``'s own
    contract. Returns the list of applied epochs."""
    import glob as _glob
    import re as _re

    from .replay import replay

    dirs = sorted(
        d for d in _glob.glob(os.path.join(feed_root, "epoch-*"))
        if os.path.isdir(d) and _re.fullmatch(r"epoch-\d+", os.path.basename(d))
    )
    if not dirs:
        raise ValueError(f"apply_feeds: no epoch-* feed dirs under {feed_root!r}")
    head_meta = read_feed_meta(dirs[0])
    head_epoch = int(os.path.basename(dirs[0]).split("-")[1])
    if (sink.latest_epoch(replica_dir) is None
            and head_meta is not None and head_meta.get("kind") != "snapshot"
            # a stamp/dirname mismatch gets the loop's more precise
            # "renamed or mixed" diagnosis instead
            and head_meta.get("epoch_b") == head_epoch):
        raise ValueError(
            f"apply_feeds: first available feed {dirs[0]!r} is a "
            f"{head_meta.get('kind')!r}, not a snapshot — the chain head "
            "was garbage-collected; an empty replica seeded from a diff "
            "would miss every unchanged key. Re-seed from a snapshot "
            "inside the keep window"
        )
    applied: list[int] = []
    prev: int | None = None
    for i, d in enumerate(dirs):
        e = int(os.path.basename(d).split("-")[1])
        meta = read_feed_meta(d)
        if meta is not None and meta.get("epoch_b") != e:
            raise ValueError(
                f"apply_feeds: feed dir {d!r} is stamped for epoch "
                f"{meta.get('epoch_b')} — directory was renamed or mixed"
            )
        if prev is not None and e != prev + 1:
            raise ValueError(
                f"apply_feeds: feed chain has a gap ({prev} -> {e}); the "
                "missing epoch's diff is unreplayable — re-seed from a "
                "snapshot inside the GC keep window"
            )
        _refuse_behind_snapshot(replica_dir, d, meta)
        replay(d, replica_dir, **(replay_kw if i == 0 else {}))
        applied.append(e)
        prev = e
    return applied


def _refuse_behind_snapshot(replica_dir: str, feed_dir: str, meta: dict | None) -> None:
    """Applying a SNAPSHOT feed to a NON-EMPTY replica silently loses
    the deletes between the replica's state and the snapshot epoch (a
    snapshot carries live rows only — nothing tombstones a key the
    replica has live but the primary deleted), unless the replica is
    already at-or-ahead of the snapshot, where the re-apply is an
    idempotent LWW no-op (the crash-and-rerun path). The snapshot's
    stamped ``max_lsn`` against the replica's committed watermark
    decides; pre-watermark feeds (no stamp) are let through unchecked."""
    if meta is None or meta.get("kind") != "snapshot":
        return
    snap_lsn = meta.get("max_lsn")
    latest = sink.latest_epoch(replica_dir)
    if latest is None or snap_lsn is None:
        return
    have = int(sink.read_commit(replica_dir, latest)["max_lsn"])
    if have < int(snap_lsn):
        raise ValueError(
            f"snapshot feed {feed_dir!r} (max_lsn {int(snap_lsn)}) is AHEAD "
            f"of the replica's watermark ({have}) — the chain was pruned "
            "past this replica's position and the intervening deletes are "
            "gone; re-seed into a fresh replica from the pruned head"
        )


def prune_feeds(lake_dir: str, feed_root: str, *, keep_feeds: int) -> list[int]:
    """Retention for a published feed chain: keep the newest
    ``keep_feeds`` feed epochs and delete the rest — re-seeding the new
    HEAD as a *snapshot* of its epoch first (from the primary lake), so
    the pruned chain still seeds a fresh replica (snapshot(e) +
    changefeeds e+1.. ≡ primary state, the ``apply_feeds`` contract)
    and the empty-replica snapshot-head guard stays satisfiable.

    Followers already past the new head are untouched (they only look
    forward); a follower still BEHIND it fails loudly — the missing-dir
    gap error below the head, or the ``_refuse_behind_snapshot``
    watermark guard at it — and must re-seed. Requires the head epoch's
    lake files to still exist (``emit_snapshot`` raises ``ValueError``
    otherwise and nothing is deleted). Single-writer maintenance op,
    same class as ``compact_lake``; the head swap is two renames, so a
    crash between them leaves the head missing — the recovery sweep
    below completes or rolls back the swap on the next invocation
    (consumers see the loud gap error meanwhile). Returns the kept
    feed epochs."""
    import glob as _glob
    import re as _re
    import shutil

    if keep_feeds < 1:
        raise ValueError("prune_feeds: keep_feeds must be >= 1")
    # crash recovery: a leftover `epoch-N.new` whose `epoch-N` is gone
    # means the swap crashed BETWEEN its two renames — the .new build
    # had fully completed (the old head is only trashed after
    # emit_snapshot returns), so finish the swap. A .new alongside a
    # live epoch-N is an incomplete build: discard it. Stale .trash
    # dirs are always garbage.
    for leftover in _glob.glob(os.path.join(feed_root, "epoch-*.new")):
        target = leftover[: -len(".new")]
        if os.path.isdir(target):
            shutil.rmtree(leftover)
        else:
            os.rename(leftover, target)
    for leftover in _glob.glob(os.path.join(feed_root, "epoch-*.trash")):
        shutil.rmtree(leftover)
    dirs = sorted(
        d for d in _glob.glob(os.path.join(feed_root, "epoch-*"))
        if os.path.isdir(d) and _re.fullmatch(r"epoch-\d+", os.path.basename(d))
    )
    kept = [int(os.path.basename(d).split("-")[1]) for d in dirs]
    if not dirs:
        return kept
    if len(dirs) <= keep_feeds:
        # nothing to drop, but the snapshot-head invariant must still be
        # restored: a chain backfilled against a GC-truncated lake starts
        # at a CHANGEFEED (catch_up_feeds skipped the unseedable prefix),
        # and a replica can never seed from a diff-headed chain — re-seed
        # the head below exactly as the drop path does.
        drop, keep = [], dirs
    else:
        drop, keep = dirs[:-keep_feeds], dirs[-keep_feeds:]
    head = keep[0]
    head_epoch = int(os.path.basename(head).split("-")[1])
    meta = read_feed_meta(head)
    if meta is None or meta.get("kind") != "snapshot":
        # build the replacement snapshot FIRST — if the lake can't
        # serve epoch `head_epoch` any more this raises and the chain
        # is left fully intact
        new = head + ".new"
        shutil.rmtree(new, ignore_errors=True)
        emit_snapshot(lake_dir, new, epoch=head_epoch)
        trash = head + ".trash"
        shutil.rmtree(trash, ignore_errors=True)
        os.rename(head, trash)
        os.rename(new, head)
        shutil.rmtree(trash)
    for d in drop:
        shutil.rmtree(d)
    return [int(os.path.basename(d).split("-")[1]) for d in keep]


def _export(lake_dir: str, out_dir: str, epoch_a: int | None, epoch_b: int,
            meta: dict) -> str:
    """Write the span (epoch_a, epoch_b] as a replayable change log,
    stamped with ``meta`` once every shard is durable. Each epoch-delta
    task writes one shard: its new rows as ``c`` (key without an old
    row) or ``u`` at their stored lsn, and its old-only keys as
    tombstones at ``meta["delete_lsn"]``. A span without changes writes
    one empty shard in the change schema, so the feed replays as a
    no-op epoch (consumers map one feed to one replica epoch)."""
    _fresh_out_dir(out_dir)
    payload = [f for f in sink.lake_schema(lake_dir, epoch_b) if f.name != "lsn"]
    out_schema = pa.schema([pa.field("lsn", pa.int64()), pa.field("op", pa.string())] + payload)
    delete_lsn = meta["delete_lsn"]

    def write_shard(old: pa.Table, new: pa.Table) -> pa.Table:
        at, gone = classify(old, new)
        n = gone.num_rows
        upserts = pa.table([new["lsn"], pc.if_else(pc.is_null(at), "c", "u")]
                           + [new[f.name] for f in payload], names=out_schema.names)
        deletes = pa.table([pa.array([delete_lsn] * n, pa.int64()), pa.array(["d"] * n)]
                           + [gone["doc_id"] if f.name == "doc_id" else pa.nulls(n, f.type)
                              for f in payload], names=out_schema.names)
        shard = pa.concat_tables([upserts.cast(out_schema), deletes.cast(out_schema)])
        os.makedirs(out_dir, exist_ok=True)
        sink.atomic_write_table(os.path.join(out_dir, f"part-{uuid.uuid4().hex}.parquet"), shard)
        return pa.table({"rows": [shard.num_rows]})

    out = delta_stream(lake_dir, epoch_a, epoch_b, None, write_shard)
    if not isinstance(out, list):
        out.take_all()  # runs the Ray Data tasks, which write the shards
    _write_feed_meta(out_dir, meta)
    return out_dir


def emit_snapshot(lake_dir: str, out_dir: str, *, epoch: int | None = None) -> str:
    """Export one committed epoch's live rows as an insert-only change
    log (op='c', stored winning lsn) — the replica seed: the span from
    nothing to ``epoch``."""
    e = sink.latest_epoch(lake_dir) if epoch is None else epoch
    # max_lsn: the source epoch's watermark — consumers use it to tell
    # an idempotent re-apply (replica watermark >= it) from a replica
    # that is BEHIND this snapshot (< it), which would lose the deletes
    # between its state and the snapshot epoch (prune_feeds guard)
    return _export(lake_dir, out_dir, None, e, {
        "kind": "snapshot", "epoch_a": None, "epoch_b": e, "delete_lsn": None,
        "max_lsn": int(sink.read_commit(lake_dir, e)["max_lsn"])})


def emit_changefeed(lake_dir: str, out_dir: str, epoch_a: int,
                    epoch_b: int | None = None) -> str:
    """Export the epoch_a→epoch_b diff as a replayable change log."""
    e_b = sink.latest_epoch(lake_dir) if epoch_b is None else epoch_b
    delete_lsn = int(sink.read_commit(lake_dir, e_b)["max_lsn"]) + 1
    # tombstone-lsn collision check: tombstones ride at max_lsn(b)+1,
    # which the NEXT epoch's real lsns may legitimately reuse (harmless
    # under the one-feed-per-replay contract, module doc). When epoch
    # b+1 is already committed its recorded min_lsn proves or refutes
    # the reuse at export time — warn on an actual overlap so an
    # operator gluing feeds together hears about it before replaying.
    try:
        nxt = sink.read_commit(lake_dir, e_b + 1)
    except FileNotFoundError:
        nxt = None
    if nxt is not None and 0 <= int(nxt.get("min_lsn", -1)) <= delete_lsn:
        import logging

        logging.getLogger(__name__).warning(
            "emit_changefeed: epoch %d's min applied lsn (%d) does not "
            "clear this feed's tombstone lsn (%d) — apply ONE feed per "
            "replay invocation (apply_feeds/FeedFollower do) or a "
            "delete can tie against a later re-create",
            e_b + 1, int(nxt.get("min_lsn", -1)), delete_lsn)
    return _export(lake_dir, out_dir, epoch_a, e_b, {
        "kind": "changefeed", "epoch_a": epoch_a, "epoch_b": e_b, "delete_lsn": delete_lsn})

FOLLOWER_META = "_follower.json"


class FeedFollower:
    """Continuous consumer side of the changefeed: tail a primary's
    published feed root (the watcher's ``epoch-NNNNNN`` layout) and
    replay each epoch feed into a replica lake as it appears — the
    committed-state analogue of the reference's long-running streaming
    consumers (reference datalake/streaming.py:65-191 poll→convert→
    commit loop), with one ``replay()`` per feed (the module-doc
    tombstone-lsn contract) and durable crash-resume.

    **The replica lake IS the cursor.** Feed epochs apply in order from
    the chain's first feed F0; each successful apply is exactly one
    replica epoch, so the next feed is always ``F0 + committed replica
    epochs``. F0 is stamped once into ``replica/_follower.json`` BEFORE
    the first replay (idempotent: a crash inside that window re-derives
    the same F0 from the chain). No per-feed cursor write exists, so
    there is no crash window where a feed double-applies: ``replay``'s
    epoch lock + staging-then-publish makes each apply exactly-once,
    and the cursor is derived from what actually committed.

    A feed directory is complete the instant it exists — the watcher
    publishes build-dir → ``os.rename`` (atomic on one filesystem), so
    the follower never sees a half-written feed. A missing next feed
    while a LATER epoch exists means the primary GC'd it: fail loudly
    (the replica must re-seed from a snapshot inside the keep window),
    never skip.
    """

    def __init__(self, feed_root: str, replica_dir: str,
                 *, num_partitions: int = 64, **replay_kw):
        import json

        self.feed_root = feed_root
        self.replica_dir = replica_dir
        self.replay_kw = dict(replay_kw, num_partitions=num_partitions)
        os.makedirs(replica_dir, exist_ok=True)
        self._meta_path = os.path.join(replica_dir, FOLLOWER_META)
        if os.path.exists(self._meta_path):
            with open(self._meta_path) as f:
                self.first_feed = int(json.load(f)["first_feed_epoch"])
        else:
            if sink.latest_epoch(replica_dir) is not None:
                raise ValueError(
                    f"FeedFollower: replica {replica_dir!r} has committed "
                    "epochs but no _follower.json stamp — it was not seeded "
                    "by a follower, so the feed-epoch mapping is unknown; "
                    "start from an empty replica"
                )
            self.first_feed = None  # stamped on first observed feed

    def _available(self) -> list[int]:
        import glob as _glob
        import re as _re

        out = []
        for d in _glob.glob(os.path.join(self.feed_root, "epoch-*")):
            m = _re.fullmatch(r"epoch-(\d+)", os.path.basename(d))
            if m and os.path.isdir(d):
                out.append(int(m.group(1)))
        return sorted(out)

    def _feed_dir(self, e: int) -> str:
        """Resolve feed epoch ``e``'s directory with the same any-width
        tolerance as ``_available`` / ``apply_feeds`` — a chain written
        by a non-watcher producer may use unpadded names, and probing
        only ``epoch-{e:06d}`` would count such a feed as available yet
        never find it (a silent permanent 'caught up' stall). Returns
        the watcher's padded form when no variant exists on disk."""
        import glob as _glob
        import re as _re

        padded = os.path.join(self.feed_root, f"epoch-{e:06d}")
        if os.path.isdir(padded):
            return padded
        for d in _glob.glob(os.path.join(self.feed_root, "epoch-*")):
            m = _re.fullmatch(r"epoch-(\d+)", os.path.basename(d))
            if m and int(m.group(1)) == e and os.path.isdir(d):
                return d
        return padded

    def next_feed_epoch(self) -> int | None:
        """The feed epoch the replica needs next (None until the chain
        has published anything and F0 is known). F0 must be a SNAPSHOT
        feed: if the primary GC'd the chain head before this follower
        first looked, the earliest remaining dir is a changefeed diff,
        and seeding the empty replica from it would silently drop every
        unchanged key — fail loudly instead."""
        if self.first_feed is None:
            avail = self._available()
            if not avail:
                return None
            head = self._feed_dir(avail[0])
            meta = read_feed_meta(head)
            if meta is not None and meta.get("kind") != "snapshot":
                raise ValueError(
                    f"FeedFollower: first available feed {head!r} is a "
                    f"{meta.get('kind')!r}, not a snapshot — the chain "
                    "head was garbage-collected; point the follower at a "
                    "chain whose head snapshot is inside the keep window"
                )
            self._stamp(avail[0])
        latest = sink.latest_epoch(self.replica_dir)
        return self.first_feed + (latest + 1 if latest is not None else 0)

    def _stamp(self, f0: int) -> None:
        import json

        sink.atomic_write_bytes(self._meta_path,
                                json.dumps({"first_feed_epoch": int(f0)}).encode())
        self.first_feed = int(f0)

    def step(self) -> int | None:
        """Apply at most ONE pending feed. Returns the feed epoch
        applied, or None when the replica is caught up (or the chain is
        still empty)."""
        from .replay import replay

        e = self.next_feed_epoch()
        if e is None:
            return None
        d = self._feed_dir(e)
        if not os.path.isdir(d):
            later = [a for a in self._available() if a > e]
            if later:
                raise ValueError(
                    f"FeedFollower: feed epoch {e} is missing but epoch "
                    f"{later[0]} exists — the primary GC'd the gap; "
                    "re-seed the replica from a snapshot inside the keep "
                    "window"
                )
            return None  # caught up
        meta = read_feed_meta(d)
        if meta is not None and meta.get("epoch_b") != e:
            raise ValueError(
                f"FeedFollower: feed dir {d!r} is stamped for epoch "
                f"{meta.get('epoch_b')} — directory was renamed or mixed"
            )
        _refuse_behind_snapshot(self.replica_dir, d, meta)
        # first replica epoch takes the configured layout; later epochs
        # adopt the replica's own (replay pins num_partitions to the
        # epoch-0 commit), same contract as apply_feeds
        kw = self.replay_kw if sink.latest_epoch(self.replica_dir) is None else {}
        replay(d, self.replica_dir, **kw)
        return e

    def run(self, *, poll_interval_sec: float = 1.0,
            stop_after_idle_polls: int | None = None,
            sleep_fn=None) -> list[int]:
        """Tail the chain until ``stop_after_idle_polls`` consecutive
        polls find nothing new (None = run forever). Returns the feed
        epochs applied this run."""
        import time as _time

        sleep = sleep_fn or _time.sleep
        applied: list[int] = []
        idle = 0
        while True:
            e = self.step()
            if e is not None:
                applied.append(e)
                idle = 0
                continue  # drain the backlog without sleeping
            idle += 1
            if stop_after_idle_polls is not None and idle >= stop_after_idle_polls:
                return applied
            sleep(poll_interval_sec)
