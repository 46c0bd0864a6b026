"""Pins the per-worker-process cache contract the task-based broadcast
probes depend on (ops/_util.worker_cache): ton_etl_ray module globals
ship pickled BY VALUE and deserialize fresh per task, so the cache MUST
live on a by-reference module (sys) to persist across tasks."""

import numpy as np
import pyarrow as pa

from ton_etl_ray._pickle import ensure_portable
from ton_etl_ray.ops._util import worker_cache


def test_worker_cache_persists_across_tasks(ray_session):
    import ray.data as rd

    ensure_portable()

    def fn(t: pa.Table) -> pa.Table:
        import os

        cache = worker_cache()
        built = 0 if cache.get(("test", "probe")) else 1
        cache[("test", "probe")] = True
        # one row per TASK invocation
        return pa.table(
            {
                "pid": pa.array([os.getpid()], pa.int64()),
                "built": pa.array([built], pa.int64()),
            }
        )

    df = (
        rd.range(64, override_num_blocks=16)
        .map_batches(fn, batch_format="pyarrow")
        .to_pandas()
    )
    tasks_per_pid = df.groupby("pid").size()
    builds_per_pid = df.groupby("pid")["built"].sum()
    # 16 tasks over a 4-cpu session: some process runs several tasks
    assert tasks_per_pid.max() >= 2
    # the contract: builds happen once-ish per PROCESS (a benign first-
    # batch race can build twice), never once per task
    assert (builds_per_pid <= np.minimum(tasks_per_pid, 2)).all()


def test_bcast_index_unique_flag(ray_session):
    import ray

    from ton_etl_ray.ops.relational import _bcast_index

    dup = pa.table({"k": pa.array([1, 2, 2, 3], pa.int64()),
                    "v": pa.array(["a", "b", "c", "d"])})
    uniq = pa.table({"k": pa.array([1, 2, 3], pa.int64()),
                     "v": pa.array(["a", "b", "c"])})
    _, dk1, _, u1 = _bcast_index(ray.put(dup), "k")
    _, dk2, _, u2 = _bcast_index(ray.put(uniq), "k")
    assert u1 is False and u2 is True
    assert dk1 is not None and dk2 is not None
    # null build keys disable the merge path entirely
    withnull = pa.table({"k": pa.array([1, None], pa.int64()),
                         "v": pa.array(["a", "b"])})
    _, dk3, _, u3 = _bcast_index(ray.put(withnull), "k")
    assert dk3 is None and u3 is False


def test_ensure_portable_registers_later_imports():
    """A ton_etl_ray module imported after a call is registered on the
    next call; a call with nothing imported since the last one skips
    the scan of ``sys.modules``, and any growth of it scans again.
    Runs in a fresh interpreter, so the import really happens between
    the calls."""
    import os
    import subprocess
    import sys

    code = """
import sys
from ton_etl_ray import _pickle as P
P.ensure_portable()
assert "ton_etl_ray.core.merge" not in sys.modules
import ton_etl_ray.core.merge
P.ensure_portable()
assert "ton_etl_ray.core.merge" in P._registered
P._registered.clear()
P.ensure_portable()
assert not P._registered, "scanned with nothing imported"
sys.modules["ton_etl_ray_probe"] = type(sys)("ton_etl_ray_probe")
P.ensure_portable()
assert "ton_etl_ray.core.merge" in P._registered
print("ok")
"""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    out = subprocess.run([sys.executable, "-c", code], cwd=root, capture_output=True, text=True)
    assert out.returncode == 0 and out.stdout.strip() == "ok", out.stderr[-2000:]
