import os
import sys
from contextlib import contextmanager
from unittest import mock

import pytest
import ray

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


@pytest.fixture(scope="session", autouse=True)
def ray_session():
    ray.init(
        address="local",
        num_cpus=4,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    yield
    ray.shutdown()


@pytest.fixture
def exchange_plan(monkeypatch):
    """Force the Ray Data plan: with ``BLOCK_BYTES = 0`` no input is
    smaller than one read block, so nothing runs in-process."""
    from ton_etl_ray.ops import _util

    monkeypatch.setattr(_util, "BLOCK_BYTES", 0)


@pytest.fixture
def bucket_files(monkeypatch):
    """One file per hash bucket on the in-process plan, the layout
    before files spanned bucket ranges: the lake writers' file size
    (``ops._util.file_bytes``) is 0 while ``BLOCK_BYTES`` keeps its
    default, so the plans stay as they are. For tests whose point is
    per-bucket inheritance or staging (``exchange_plan`` gives the same
    layout under the Ray Data plan)."""
    import importlib

    for name in ("replay", "compact"):
        monkeypatch.setattr(importlib.import_module(f"ton_etl_ray.cdc.{name}"),
                            "file_bytes", lambda: 0)


@contextmanager
def narrow_exchange():
    """Make ``replay()`` and the watcher pick the narrow exchange above
    one read block: the session's object store reads as 0 bytes, so any
    sampled shuffle estimate exceeds half of it."""
    from ton_etl_ray.cdc import replay

    with mock.patch.object(replay, "_object_store_bytes", lambda: 0):
        yield


class LakeWriter:
    """Commits a lake's next epoch through one of the lake writers
    (``kind``): ``replay``, ``replay_narrow`` (``replay`` forced onto
    the exchange plan's narrow exchange), ``ingest``
    (``IncrementalIngestor.ingest``) or ``compact`` (``compact_lake``,
    which applies no change files: it rewrites the committed state).
    Calling it returns the committed epoch."""

    def __init__(self, kind: str):
        self.kind = kind

    def ingestor(self, lake: str, num_partitions: int = 8):
        from ton_etl_ray.cdc.incremental import IncrementalIngestor

        return IncrementalIngestor(lake, num_partitions=num_partitions)

    def __call__(self, lake: str, files: list[str], *, num_partitions: int = 8,
                 ingestor=None) -> int:
        """``ingestor``: an already-built one for ``ingest`` (it reads the
        lake head at construction); otherwise one is built."""
        if self.kind == "replay":
            from ton_etl_ray.cdc.replay import replay

            return replay(files, lake, num_partitions=num_partitions).epoch
        if self.kind == "replay_narrow":
            from ton_etl_ray.cdc.replay import replay
            from ton_etl_ray.ops import _util

            with mock.patch.object(_util, "BLOCK_BYTES", 0), narrow_exchange():
                return replay(files, lake, num_partitions=num_partitions).epoch
        if self.kind == "compact":
            from ton_etl_ray.cdc.compact import compact_lake

            return compact_lake(lake)["epoch"]
        return (ingestor or self.ingestor(lake, num_partitions)).ingest(files)["epoch"]


@pytest.fixture(params=["replay", "replay_narrow", "ingest", "compact"])
def lake_writer(request) -> LakeWriter:
    return LakeWriter(request.param)


def lsn_ordered_span(lake_dir: str, epoch_a: int, epoch_b: int) -> tuple[bool, int]:
    """Prove from commit metadata that every row NEWLY STORED in epochs
    (a, b] carries ``lsn > commit(a).max_lsn`` — the stored-side face
    of the LSN-ordered-stream contract (loser events dropped by LWW
    never reach stored state or a feed, so they are out of scope by
    construction). Each commit records ``min_lsn`` as a lower bound on
    its own newly-stored lsns: every change-applying writer (``replay``
    on either exchange, ``ingest``) writes it through
    ``replay.commit_partition``; -1 = unknown (a pre-field lake, a
    ``compact`` epoch, which re-stores old lsns, or a crash-resumed
    epoch mixing pre-field manifests). A no-op epoch (nothing written
    under its own dir) stores nothing and cannot violate ordering.
    The changefeed exporter (``emit_changefeed``) makes the one-epoch
    check itself. Returns ``(ordered, watermark)``."""
    from ton_etl_ray.cdc import sink

    wm = int(sink.read_commit(lake_dir, epoch_a)["max_lsn"])
    for k in range(epoch_a + 1, epoch_b + 1):
        c = sink.read_commit(lake_dir, k)
        if int(c.get("min_lsn", -1)) > wm:
            continue
        tag = f"epoch-{k:06d}"
        if any((ent.get("path") or "").startswith(tag) for ent in c["partitions"].values()):
            return False, wm
    return True, wm
