import os
import sys

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


class LakeWriter:
    """Commits a lake's next epoch through one of the four lake writers
    (``kind``): ``replay``, ``replay_late``, ``ingest``
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
        if self.kind == "replay_late":
            from ton_etl_ray.cdc.replay_late import replay_late

            return replay_late(files, lake, num_partitions=num_partitions).epoch
        if self.kind == "compact":
            from ton_etl_ray.cdc.compact import compact_lake

            return compact_lake(lake)["epoch"]
        return (ingestor or self.ingestor(lake, num_partitions)).ingest(files)["epoch"]


@pytest.fixture(params=["replay", "replay_late", "ingest", "compact"])
def lake_writer(request) -> LakeWriter:
    return LakeWriter(request.param)
