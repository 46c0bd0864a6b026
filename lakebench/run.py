#!/usr/bin/env python3
"""Run one lakebench workload in an isolated child process and report it.

Usage, from the repository root::

    python3 lakebench/run.py --workload {backfill,upsert,serve} --seed N --seconds S --trace 0|1

The run executes in a fresh process group that owns its Ray session,
under a hard wall-clock cap. Afterwards every process it started (found
by a per-run token in their environment) is killed and reaped, also
after a timeout, and its scratch directory is removed. The output is a
run record, every metric with its unit, the oracle verdict and, as the
last line, one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``. The exit code is 0 only if the run finished, every
oracle check passed and nothing was left running.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import uuid

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from lakebench.procs import TOKEN_VAR, has_token, tagged_pids  # noqa: E402

WORKLOADS = ("backfill", "upsert", "serve")
CAP_S = 150.0  # leaves time to reap everything within the 180 s a run may take
MIN_FREE_BYTES = 2 << 30
# Ray puts its Unix sockets at <temp>/session_<date>_<time>_<us>_<pid>/sockets/plasma_store,
# 64 characters past <temp>; a socket path may hold at most 107.
MAX_RAY_TMP = 107 - 64


def nproc() -> int:
    try:
        return int(subprocess.run(["nproc"], capture_output=True, text=True, check=True).stdout)
    except (OSError, ValueError, subprocess.CalledProcessError):
        return len(os.sched_getaffinity(0))


def cpu_times() -> list[int]:
    with open("/proc/stat") as f:
        return [int(x) for x in f.readline().split()[1:]]


def steal_pct(before: list[int], after: list[int]) -> float:
    delta = [b - a for a, b in zip(before, after)]
    total = sum(delta[:8])  # guest time is already counted in user
    return 100.0 * delta[7] / total if len(delta) > 7 and total > 0 else 0.0


def source_id() -> str:
    """The git commit when there is one, else a digest of the sources."""
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        pass
    h = hashlib.sha256()
    for pkg in ("ton_etl_ray", "lakebench"):
        for d, _dirs, files in sorted(os.walk(os.path.join(ROOT, pkg))):
            for name in sorted(files):
                if name.endswith(".py"):
                    with open(os.path.join(d, name), "rb") as f:
                        h.update(name.encode() + f.read())
    return "src-" + h.hexdigest()[:16]


def become_subreaper() -> bool:
    """Orphaned descendants re-parent to this process, so it can reap them."""
    try:
        return ctypes.CDLL(None, use_errno=True).prctl(36, 1, 0, 0, 0) == 0  # PR_SET_CHILD_SUBREAPER
    except (OSError, AttributeError):
        return False


def reap_children() -> None:
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def _lingering(pid: int, token: str) -> bool:
    """True while ``pid`` still runs with the run's token or is an unreaped zombie."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            if f.read().rsplit(")", 1)[1].split()[0] == "Z":
                return True
    except (OSError, IndexError):
        return False
    return has_token(pid, token)


def stop_all(proc, token: str, timeout: float = 20.0) -> list[int]:
    """Kill the run's process group and every process carrying its token,
    and reap them. Returns the pids still lingering after ``timeout``."""
    seen = set(tagged_pids(token)) - {os.getpid()}
    if proc is not None:
        seen.add(proc.pid)
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    deadline = time.monotonic() + timeout
    while True:
        live = [p for p in tagged_pids(token) if p != os.getpid()]
        seen.update(live)
        for pid in live:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        reap_children()
        left = [p for p in seen if _lingering(p, token)]
        if not left or time.monotonic() > deadline:
            return left
        time.sleep(0.05)


def _interrupt(signum, _frame):
    raise KeyboardInterrupt(f"signal {signum}")


def print_report(result: dict) -> None:
    setup = result.get("setup", {})
    if setup:
        print("setup  " + "  ".join(f"{k}={v:.3f}" for k, v in setup.items() if k != "rep_s")
              + "  reps=" + ",".join(f"{v:.3f}" for v in setup["rep_s"]))
    for name, t in result.get("timings", {}).items():
        tail = f"p{t['tail_pct']:.1f}={t['tail']:.4f}s" if t["tail"] is not None else "tail=n/a"
        print(f"timing {name:18s} n={t['n']:<4d} p50={t['p50']:.4f}s {tail}", " ".join(f"{v:.3f}" for v in t["values"]))
    for name, m in result.get("metrics", {}).items():
        print(f"metric {name:44s} {m['value']:.6g} {m['unit']}")
    if "self_time_report" in result:
        print(result["self_time_report"])
    verdict = "PASS" if result.get("correct") else "FAIL"
    print(f"oracle {verdict}: {result.get('oracle_checks', 0)} checks, "
          f"{result.get('failed', 0)} failed of {result.get('attempted', 0)} operations")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "ton_etl_ray", "__init__.py")):
        print(f"lakebench: engine package ton_etl_ray not found in {ROOT}", file=sys.stderr)
        return 2
    free = shutil.disk_usage(ROOT).free
    if free < MIN_FREE_BYTES:
        print(f"lakebench: only {free >> 20} MiB free under {ROOT}", file=sys.stderr)
        return 3

    become_subreaper()
    signal.signal(signal.SIGTERM, _interrupt)
    base = os.path.join(ROOT, ".lakebench")
    run_dir = os.path.join(base, f"run-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    ray_tmp = os.path.join(run_dir, "r")
    if len(ray_tmp) > MAX_RAY_TMP:
        ray_tmp = tempfile.mkdtemp(prefix="lb-")
    os.makedirs(ray_tmp, exist_ok=True)
    result_path = os.path.join(run_dir, "result.json")
    log_path = os.path.join(run_dir, "worker.log")
    token = uuid.uuid4().hex
    env = {**os.environ, TOKEN_VAR: token, "RAY_USAGE_STATS_ENABLED": "0",
           "PYTHONPATH": os.pathsep.join(p for p in (ROOT, os.environ.get("PYTHONPATH")) if p)}
    cpus = nproc()
    cmd = [sys.executable, "-m", "lakebench.worker", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scratch", os.path.join(run_dir, "s"), "--ray-tmp", ray_tmp, "--num-cpus", str(cpus),
           "--trace-dir", os.path.join(base, "traces"), "--result", result_path]

    cpu0, t0 = cpu_times(), time.monotonic()
    proc = rc = result = None
    timed_out = False
    log_tail = ""
    try:
        with open(log_path, "wb") as log:
            proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=log, stderr=subprocess.STDOUT,
                                    start_new_session=True)
            try:
                rc = proc.wait(timeout=CAP_S)
            except subprocess.TimeoutExpired:
                timed_out = True
        if os.path.exists(result_path):
            with open(result_path) as f:
                result = json.load(f)
        with open(log_path, errors="replace") as f:
            log_tail = "".join(f.readlines()[-40:])
    finally:
        leftovers = stop_all(proc, token)
        shutil.rmtree(run_dir, ignore_errors=True)
        shutil.rmtree(ray_tmp, ignore_errors=True)

    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace, "seconds": args.seconds,
        "commit": source_id(), "nproc": cpus, "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_steal_pct": round(steal_pct(cpu0, cpu_times()), 3),
        "free_disk_gib": round(free / (1 << 30), 2), "wall_s": round(time.monotonic() - t0, 3),
        "exit_code": rc, "timed_out": timed_out, "leftover_pids": leftovers,
    }
    print("record " + json.dumps(record))
    ok = (result is not None and rc == 0 and not timed_out and not leftovers
          and result["correct"] and result["failed"] == 0)
    if not ok:
        print(f"lakebench: run failed (exit {rc}, timed out {timed_out}, leftovers {leftovers})",
              file=sys.stderr)
        print((result or {}).get("error") or log_tail, file=sys.stderr)
    if result is None or timed_out:
        return 1
    print_report(result)
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
