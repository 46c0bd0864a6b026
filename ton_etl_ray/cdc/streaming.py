"""Continuous micro-batch operation: watch a directory of arriving
change shards and drain them into the lake as committed epochs.

The reference's parsers and exporters are long-running consumers with an
idle-drain flush and a flush-before-commit barrier (reference
parser/main.py:85-143 — poll loop, :98-113 — idle drain after
``no messages for N seconds``; datalake/streaming.py:65-191 with the
commit barrier at :170-177: flush all writers, THEN commit offsets).
This module is the batch-engine analogue:

- shards arriving in the watched directory play the Kafka topic;
- a micro-batch is flushed when EITHER ``max_batch_shards`` have
  accumulated (size trigger) OR ``idle_flush_sec`` passed since the
  LAST arrival while shards are pending (idle drain — the reference's
  "no messages for N seconds"; a steady trickle keeps refreshing the
  timer and is bounded by the size trigger instead);
- each flush is one ``IncrementalIngestor.ingest`` epoch — every
  touched partition is written and only then the epoch commit
  publishes, which IS the flush-before-commit barrier (K4/W4): a crash
  between the writes and publish leaves no committed trace, and the
  shard set is re-ingested next run;
- processed-shard tracking is durable: every commit records its input
  shard names, so a restarted watcher resumes exactly after the last
  committed epoch (exactly-once over shard files).

Producer contract: shards SHOULD be written elsewhere and atomically
renamed into the watch directory (``os.replace``) — a half-copied file
that gets ingested is recorded as done and its remaining rows would be
silently lost. As defense in depth the watcher also applies a
write-quiescence gate (``stable_polls``, default 1): a file only
becomes pending once its (size, mtime_ns) is unchanged across that
many consecutive polls, and ``.tmp``/``.partial``/dot-prefixed names
are never picked up. Producers that DO rename atomically can pass
``stable_polls=0`` to skip the one-poll latency.

The loop is deterministic and test-drivable: the clock and sleep are
injectable, and ``step()`` runs one poll+maybe-flush round without
any real sleeping.
"""

from __future__ import annotations

import glob
import os
import time
from collections.abc import Callable

from . import sink
from .incremental import IncrementalIngestor


def committed_inputs(lake_dir: str) -> set[str]:
    """Shard basenames already applied by ANY committed epoch."""
    done: set[str] = set()
    latest = sink.latest_epoch(lake_dir)
    if latest is None:
        return done
    for name in os.listdir(lake_dir):
        if not name.startswith("epoch-"):
            continue
        e = int(name.split("-")[1])
        if e <= latest and sink.is_committed(lake_dir, e):
            done.update(sink.read_commit(lake_dir, e).get("inputs", []))
    return done


class DirectoryWatcher:
    """Micro-batch drain loop over a directory of arriving shards."""

    def __init__(
        self,
        watch_dir: str,
        lake_dir: str,
        *,
        num_partitions: int = 64,
        max_batch_shards: int = 8,
        idle_flush_sec: float = 5.0,
        pattern: str = "*.parquet",
        preprocess: Callable[[str], str] | None = None,
        gc_every: int | None = None,
        gc_keep_epochs: int = 4,
        stable_polls: int = 1,
        derive=None,
        derive_source: str = "changes",
        feed_dir: str | None = None,
        feed_keep: int | None = None,
        metrics_window_sec: float = 60.0,
        time_fn: Callable[[], float] = time.monotonic,
    ):
        self.watch_dir = watch_dir
        self.lake_dir = lake_dir
        # continuous changefeed publication (the reference's streaming
        # re-produce loop, datalake/streaming.py): every committed epoch
        # is also exported under feed_dir/epoch-N — epoch 0 as a
        # snapshot, later epochs as the (N-1)→N diff — atomically
        # (build dir + rename). The feed is DERIVABLE state: a missed
        # publication (crash between commit and export) is regenerated
        # identically by catch_up_feeds(), called here on start.
        # feed_keep=N applies feed retention after each publication
        # (prune_feeds: newest N feeds kept, the new head re-seeded as
        # a snapshot). Runs BEFORE lake GC in the same flush, so the
        # head epoch's pre-image files always still exist; keep it
        # >= gc_keep_epochs if you also prune manually out of band.
        self.feed_dir = feed_dir
        self.feed_keep = feed_keep
        if feed_keep is not None and feed_keep < 1:
            raise ValueError("feed_keep must be >= 1")
        self.max_batch = max_batch_shards
        self.idle_flush = idle_flush_sec
        self.pattern = pattern
        # optional per-shard converter (e.g. Debezium JSONL → parquet,
        # the reference's wire format — see debezium_preprocessor);
        # MUST be deterministic path→path so a restarted watcher can
        # match committed inputs back to source shards
        self.preprocess = preprocess
        # a long-running watcher accumulates one epoch dir per flush;
        # gc_every=N collects superseded data files after every N
        # committed epochs (inheritance-aware — sink.gc_epochs never
        # touches files still referenced by kept commits, and never an
        # in-progress epoch). done-shard tracking is unaffected: commit
        # JSONs (which record inputs) are kept as lineage.
        self.gc_every = gc_every
        self.gc_keep = gc_keep_epochs
        # write-quiescence gate: (size, mtime_ns) must repeat across
        # stable_polls consecutive polls before a file becomes pending
        # (a shard mid-copy otherwise gets ingested PARTIALLY and its
        # name recorded as done — permanent silent loss). 0 = trust the
        # producer to rename-into-place atomically.
        self.stable = stable_polls
        self._seen: dict[str, tuple[int, int, int]] = {}
        # continuous derive-and-publish (S3's full form): a
        # TransformRegistry whose ``derive_source``-keyed transforms run
        # over every micro-batch INSIDE the write-then-publish barrier —
        # side-output tables land under lake/derived/<table>/epoch-N and
        # become visible only when the epoch commit records them
        # (reference datalake/streaming.py:65-191, barrier :99-121)
        self.derive = derive
        self.derive_source = derive_source
        # rolling-window gauges (K7/A5 continuous form, the reference's
        # prometheus performance gauges with window cleanup,
        # prometheus_exporter gauges/performance/performance.py:64-125)
        self.metrics_window = metrics_window_sec
        self.metrics: list[dict] = []
        self._window: list[tuple[float, int]] = []
        self.now = time_fn
        self.ing = IncrementalIngestor(lake_dir, num_partitions=num_partitions)
        # durable resume: shards named in committed epochs are done
        self.done = committed_inputs(lake_dir)
        self.pending: list[str] = []
        self.last_arrival_at: float | None = None
        self.epochs: list[dict] = []
        if self.feed_dir is not None:
            self.catch_up_feeds()

    def _is_done(self, base: str) -> bool:
        # commits record the INGESTED (possibly preprocessed) name
        return base in self.done or f"{base}.parquet" in self.done

    # -- one poll round ------------------------------------------------
    def poll(self) -> int:
        """Pick up newly arrived (and write-quiescent) shards; returns
        how many became pending this round."""
        new = 0
        current: set[str] = set()
        for f in sorted(glob.glob(os.path.join(self.watch_dir, self.pattern))):
            base = os.path.basename(f)
            if base.startswith(".") or base.endswith((".tmp", ".partial")):
                continue  # in-flight producer temporaries
            if self._is_done(base) or f in self.pending:
                continue
            try:
                st = os.stat(f)
            except FileNotFoundError:
                continue  # deleted between glob and stat
            current.add(f)
            if self.stable > 0:
                sig = (st.st_size, st.st_mtime_ns)
                prev = self._seen.get(f)
                if prev is None or prev[:2] != sig:
                    self._seen[f] = (*sig, 0)  # first sighting / still growing
                    continue
                if prev[2] + 1 < self.stable:
                    self._seen[f] = (*sig, prev[2] + 1)
                    continue
            self._seen.pop(f, None)
            self.pending.append(f)
            new += 1
        # drop tracking for files that vanished or were promoted
        self._seen = {k: v for k, v in self._seen.items() if k in current and k not in self.pending}
        if new:
            # idle is measured from the LAST arrival: only a gap with
            # nothing new arriving drains the pending batch (the old
            # first-pending timer flushed mid-arrival-wave and never
            # actually measured idleness)
            self.last_arrival_at = self.now()
        return new

    @property
    def warming(self) -> bool:
        """True while some observed file is still inside the quiescence
        gate — callers' idle detection must treat this as activity."""
        return bool(self._seen)

    def should_flush(self) -> bool:
        if not self.pending:
            return False
        if len(self.pending) >= self.max_batch:
            return True          # size trigger
        return self.now() - self.last_arrival_at >= self.idle_flush  # idle drain

    def _derive_outputs(self, files: list[str], epoch: int) -> dict[str, str]:
        """Run the derive registry over the micro-batch and stage the
        side-output tables for this epoch. Called by ingest() inside the
        epoch lock, BEFORE publish — a crashed attempt's partial files
        are wiped and re-derived on retry (deterministic paths)."""
        import shutil

        import ray.data as rd

        rel: dict[str, str] = {}
        ds = rd.read_parquet(files)
        for table, out in self.derive.run({self.derive_source: ds}).items():
            out_dir = os.path.join(self.lake_dir, "derived", table, f"epoch-{epoch:06d}")
            shutil.rmtree(out_dir, ignore_errors=True)
            out.write_parquet(out_dir)
            # a micro-batch where the transform matched ZERO rows writes
            # no part files (write_parquet skips empty datasets) — record
            # nothing so readers never chase a file-less path
            if glob.glob(os.path.join(out_dir, "*.parquet")):
                rel[table] = os.path.relpath(out_dir, self.lake_dir)
        return rel

    def _publish_feed(self, epoch: int) -> str:
        """Export one committed epoch's feed atomically: emit into a
        build dir, then rename — feed_dir/epoch-N exists iff complete."""
        import shutil

        from .changefeed import emit_changefeed, emit_snapshot

        final = os.path.join(self.feed_dir, f"epoch-{epoch:06d}")
        build = final + f".build.{os.getpid()}"
        shutil.rmtree(build, ignore_errors=True)
        if epoch == 0:
            emit_snapshot(self.lake_dir, build, epoch=0)
        else:
            emit_changefeed(self.lake_dir, build, epoch - 1, epoch)
        shutil.rmtree(final, ignore_errors=True)
        os.rename(build, final)
        return final

    def catch_up_feeds(self) -> list[int]:
        """Publish the feed of every committed epoch that has none —
        feeds are pure functions of the epoch-pinned lake, so a crash
        between commit and export never loses one, and a fresh watcher
        pointed at an existing lake backfills the full feed history.
        Epochs whose pre-image files were garbage-collected are skipped
        (their diff is no longer derivable; GC'd history is by contract
        outside the replayable window).

        Retention-aware (``feed_keep``): epochs below the chain's
        current earliest feed are never backfilled — they were PRUNED,
        not lost — and the retention pass reruns after catch-up so a
        restart leaves the same pruned, snapshot-headed chain a clean
        shutdown would have."""
        import glob as _glob
        import re as _re

        published = []
        os.makedirs(self.feed_dir, exist_ok=True)
        latest = sink.latest_epoch(self.lake_dir)
        if latest is None:
            return published
        start = 0
        if self.feed_keep is not None:
            existing = [
                int(m.group(1))
                for d in _glob.glob(os.path.join(self.feed_dir, "epoch-*"))
                if (m := _re.fullmatch(r"epoch-(\d+)", os.path.basename(d)))
                and os.path.isdir(d)
            ]
            if existing:
                start = min(existing)
        for e in range(start, latest + 1):
            if not sink.is_committed(self.lake_dir, e):
                continue
            if os.path.isdir(os.path.join(self.feed_dir, f"epoch-{e:06d}")):
                continue
            try:
                self._publish_feed(e)
                published.append(e)
            except ValueError:
                continue  # pre-image collected by GC
        if self.feed_keep is not None:
            from .changefeed import prune_feeds

            prune_feeds(self.lake_dir, self.feed_dir, keep_feeds=self.feed_keep)
        return published

    def _emit_metrics(self, res: dict, wall_sec: float) -> dict:
        """One gauge row per committed epoch + a rolling-window rate with
        window cleanup. Appended to ``metrics.jsonl`` AFTER the commit
        (observability, not state: a crash between commit and append
        loses at most one row, never corrupts the lake)."""
        import json

        now = self.now()
        self._window.append((now, res["routed"]))
        cutoff = now - self.metrics_window
        self._window = [(t, n) for t, n in self._window if t >= cutoff]
        span = max(now - self._window[0][0], wall_sec, 1e-9)
        row = {
            "epoch": res["epoch"],
            "events_routed": res["routed"],
            "rows_total": res["rows_total"],
            "flush_sec": round(wall_sec, 6),
            "events_per_sec": round(res["routed"] / max(wall_sec, 1e-9), 3),
            "window_events_per_sec": round(sum(n for _, n in self._window) / span, 3),
            "watermark_lsn": res["max_lsn"],
            "pending_shards": len(self.pending),
        }
        self.metrics.append(row)
        with open(os.path.join(self.lake_dir, "metrics.jsonl"), "a") as f:
            f.write(json.dumps(row) + "\n")
            f.flush()
        return row

    def flush(self) -> dict | None:
        """Ingest the pending micro-batch as one committed epoch
        (write-then-publish = the flush-before-commit barrier); derive
        registry side outputs inside the same barrier; emit one metrics
        gauge row per committed epoch."""
        if not self.pending:
            return None
        batch, rest = self.pending[: self.max_batch], self.pending[self.max_batch:]
        ingest_paths = [self.preprocess(f) for f in batch] if self.preprocess else batch
        # self.pending is NOT mutated until ingest commits: if it raises,
        # the epoch never published and the batch stays pending, so the
        # caller's next flush retries it
        t0 = self.now()
        res = self.ing.ingest(
            ingest_paths,
            derive=self._derive_outputs if self.derive is not None else None,
        )
        # mark done only AFTER the commit published
        self.pending = rest
        self.done.update(os.path.basename(f) for f in batch)
        self.last_arrival_at = self.now() if self.pending else None
        self.epochs.append(res)
        if self.feed_dir is not None:
            self._publish_feed(res["epoch"])
            if self.feed_keep is not None:
                from .changefeed import prune_feeds

                prune_feeds(self.lake_dir, self.feed_dir,
                            keep_feeds=self.feed_keep)
        self._emit_metrics(res, self.now() - t0)
        if self.gc_every and len(self.epochs) % self.gc_every == 0:
            sink.gc_epochs(self.lake_dir, keep_epochs=self.gc_keep)
        return res

    def step(self) -> dict | None:
        """One poll + conditional flush round (test-drivable, no sleep)."""
        self.poll()
        if self.should_flush():
            return self.flush()
        return None

    def run(
        self,
        *,
        poll_interval_sec: float = 1.0,
        stop_after_idle_polls: int | None = None,
        max_epochs: int | None = None,
        sleep_fn: Callable[[float], None] = time.sleep,
    ) -> list[dict]:
        """Drain until idle for ``stop_after_idle_polls`` rounds (None =
        forever) or ``max_epochs`` epochs were committed."""
        idle = 0
        while True:
            new = self.poll()
            flushed = None
            if self.should_flush():
                flushed = self.flush()
            if new == 0 and flushed is None and not self.pending and not self.warming:
                idle += 1
                if stop_after_idle_polls is not None and idle >= stop_after_idle_polls:
                    break
            else:
                idle = 0
            if max_epochs is not None and len(self.epochs) >= max_epochs:
                break
            sleep_fn(poll_interval_sec)
        return self.epochs

    def close(self) -> None:
        """Nothing to release: every epoch's state lives in the lake.
        Kept so callers can scope a watcher with ``try/finally``."""


def derived_table(lake_dir: str, table: str):
    """Read a continuously-derived side-output table: the union of every
    COMMITTED epoch's staged directory for ``table``. Uncommitted
    leftovers from a crashed flush are invisible (their epoch commit
    never recorded them) — the read side of the derive barrier."""
    import ray.data as rd

    latest = sink.latest_epoch(lake_dir)
    dirs = []
    if latest is not None:
        for name in sorted(os.listdir(lake_dir)):
            if not name.startswith("epoch-"):
                continue
            e = int(name.split("-")[1])
            if e <= latest and sink.is_committed(lake_dir, e):
                rel = sink.read_commit(lake_dir, e).get("derived", {}).get(table)
                if rel:
                    dirs.append(os.path.join(lake_dir, rel))
    files = [f for d in dirs for f in sorted(glob.glob(os.path.join(d, "*.parquet")))]
    if not files:
        raise FileNotFoundError(f"no committed epochs derived table {table!r} under {lake_dir}")
    return rd.read_parquet(files)


def debezium_preprocessor(
    staging_dir: str, *, numeric_fields: tuple[str, ...] = (),
    infer_stable_schema: bool = False,
) -> Callable[[str], str]:
    """Per-shard converter for watching a directory of Debezium JSONL
    dumps (the reference's Kafka wire format, README.md:65-69): each
    arriving ``*.jsonl`` shard is normalized (envelope → change columns,
    'r' folded to 'c', numeric structs decoded) and staged as a parquet
    shard named ``<original>.parquet`` — deterministic, so re-running
    the converter is idempotent and a restarted watcher can match the
    committed input names back to their JSONL sources.

    ``infer_stable_schema=True`` samples the FIRST shard through
    ``schema_infer.infer_schema`` (the generate_schema.py analogue) and
    parses every subsequent shard against that pinned scalar schema:
    an all-null column in a later shard keeps its discovered type
    instead of degrading to null, and numeric-looking strings can't
    flip types mid-stream. New columns still flow (parsed loosely, then
    unified by the engine's schema evolution); nested columns (decimal
    structs) are left to the parser so ``numeric_fields`` decoding
    keeps working. A RESTARTED watcher re-samples from the first shard
    it converts — committed shards are matched by name before
    conversion, and the lake unifies schemas across epochs either way."""
    import pyarrow as pa
    import pyarrow.json as pj

    from .debezium import normalize_debezium_batch
    from .schema_infer import infer_schema_jsonl

    os.makedirs(staging_dir, exist_ok=True)
    state = {"schema": None}

    def convert(path: str) -> str:
        out = os.path.join(staging_dir, os.path.basename(path) + ".parquet")
        if os.path.exists(out):
            return out  # idempotent retry
        if infer_stable_schema:
            if state["schema"] is None:
                # omit_unknown: a column with no non-null sample must NOT
                # be pinned to string — the first shard revealing it as
                # numeric would then be unparseable forever (the convert
                # is deterministic, so the watcher would wedge)
                state["schema"] = infer_schema_jsonl(
                    path, json_as_string=False, omit_unknown=True
                )
            try:
                raw = pj.read_json(
                    path,
                    parse_options=pj.ParseOptions(
                        explicit_schema=state["schema"],
                        unexpected_field_behavior="infer",
                    ),
                )
            except pa.ArrowInvalid as ex:
                # a shard that genuinely contradicts the pinned schema
                # (e.g. a sampled-as-string column now carrying numbers)
                # degrades to free inference for THIS shard rather than
                # wedging the stream; the engine's schema evolution
                # unifies the divergence downstream
                import logging

                logging.getLogger("ton_etl_ray.cdc.streaming").warning(
                    "stable-schema parse of %s failed (%s); falling back "
                    "to per-shard inference", os.path.basename(path), ex,
                )
                raw = pj.read_json(path)
        else:
            raw = pj.read_json(path)
        t = normalize_debezium_batch(raw, numeric_fields=numeric_fields)
        sink.atomic_write_table(out, t)
        return out

    return convert
