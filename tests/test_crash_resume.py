"""Crash-and-resume: SIGKILL the replay job mid-epoch, resume, assert no
duplicate or lost applies (north rule, BASELINE.json:6,15).

The job runs as a real subprocess with its own Ray session; we poll the
staging directory and SIGKILL as soon as at least one partition file
is staged but the epoch is uncommitted.
"""

import glob
import json
import os
import signal
import subprocess
import sys
import time

import duckdb
import pytest

from ton_etl_ray.cdc import sink
from ton_etl_ray.cdc.replay import final_state_table, replay
from ton_etl_ray.gen import write_change_log

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.slow
def test_sigkill_mid_replay_then_resume(tmp_path):
    chg = str(tmp_path / "chg")
    lake = str(tmp_path / "lake")
    write_change_log(chg, num_events=150_000, num_keys=10_000, seed=21,
                     num_shards=12, max_tok=48)

    env = dict(os.environ, PYTHONPATH=REPO)
    proc = subprocess.Popen(
        [sys.executable, "-m", "ton_etl_ray.cdc.run_replay",
         "--changes", chg, "--lake", lake,
         "--num-partitions", "16", "--num-cpus", "2"],
        cwd=REPO, env=env,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    staging = sink.epoch_dir(lake, 0)
    deadline = time.time() + 120
    killed = False
    while time.time() < deadline:
        if proc.poll() is not None:
            break  # finished before we could kill — rare; still a valid run
        n = len(glob.glob(os.path.join(staging, "part-*.parquet")))
        if n >= 1 and not sink.is_committed(lake, 0):
            os.kill(proc.pid, signal.SIGKILL)
            killed = True
            break
        time.sleep(0.05)
    proc.wait(timeout=60)

    if killed:
        assert not sink.is_committed(lake, 0), "killed job must not have committed"
        pre = len(sink.staged_manifests(lake, 0))
        assert pre >= 1
        res = replay(chg, lake, resume=True, num_partitions=16)
        assert res.published and res.epoch == 0
    else:
        assert sink.is_committed(lake, 0)

    files = sorted(glob.glob(os.path.join(chg, "*.parquet")))
    want = duckdb.sql(
        f"""
        WITH ranked AS (
          SELECT *, row_number() OVER (PARTITION BY doc_id ORDER BY lsn DESC) rk
          FROM read_parquet({files})
        ) SELECT doc_id, tokens, n_tok, source FROM ranked WHERE rk=1 AND op <> 'd'
        """
    ).arrow()
    got = final_state_table(lake).select(["doc_id", "tokens", "n_tok", "source"])
    gm = {r["doc_id"]: (tuple(r["tokens"]), r["n_tok"], r["source"]) for r in got.to_pylist()}
    wm = {r["doc_id"]: (tuple(r["tokens"]), r["n_tok"], r["source"]) for r in want.to_pylist()}
    assert gm == wm, "resume produced duplicate or lost applies"
