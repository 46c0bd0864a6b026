"""Shared driver bootstrap for the CLI entry points (run_replay,
run_maintain). bench.py keeps its own copy on purpose — it measures the
session it creates and pins its own context knobs.

Only entry points call this; library code never owns a Ray session
(driver contract)."""

from __future__ import annotations

import os
import sys


def default_cpus() -> int:
    """The CLIs' ``--num-cpus`` default: ``RAY_GRAFT_CPUS`` if set, else
    the CPUs this process may run on (its affinity mask)."""
    return int(os.environ.get("RAY_GRAFT_CPUS") or len(os.sched_getaffinity(0)))


def init_driver(num_cpus: int) -> None:
    sys.path.insert(
        0, os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    )
    import ray

    # Under `ray job submit` (the north-rule deployment) the job server
    # exports RAY_ADDRESS and the entry point must JOIN that cluster —
    # hardcoding address="local" would silently boot a private
    # single-node Ray inside the job container. num_cpus is a
    # local-mode knob only: an existing cluster defines its own pool.
    # empty string == unset (Ray's own convention for RAY_ADDRESS)
    addr = os.environ.get("RAY_ADDRESS", "local") or "local"
    if not ray.is_initialized():
        if addr == "local":
            ray.init(
                address="local",
                num_cpus=num_cpus,
                include_dashboard=False,
                ignore_reinit_error=True,
                logging_level="ERROR",
            )
        else:
            ray.init(
                address=addr,
                ignore_reinit_error=True,
                logging_level="ERROR",
            )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
