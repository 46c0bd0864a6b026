"""The processes of one run, found by a token in their environment.

The token is set in the run's environment and inherited by everything
the run starts, Ray's daemons and workers included, whether or not they
stay in the run's process group."""

from __future__ import annotations

import os

TOKEN_VAR = "LAKEBENCH_RUN"
_PAGE = os.sysconf("SC_PAGE_SIZE")
_TICK = os.sysconf("SC_CLK_TCK")


def has_token(pid: int, token: str) -> bool:
    try:
        with open(f"/proc/{pid}/environ", "rb") as f:
            return f"{TOKEN_VAR}={token}".encode() in f.read().split(b"\0")
    except OSError:
        return False


def tagged_pids(token: str) -> list[int]:
    return [int(name) for name in os.listdir("/proc") if name.isdigit() and has_token(int(name), token)]


def rss_bytes(pids: list[int]) -> int:
    """Summed resident set size of ``pids`` (processes that exited count 0)."""
    total = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/statm") as f:
                total += int(f.read().split()[1]) * _PAGE
        except (OSError, IndexError, ValueError):
            continue
    return total


def cpu_seconds(pids: list[int]) -> float:
    """CPU time of ``pids`` and of their children already reaped."""
    ticks = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/stat") as f:
                fields = f.read().rsplit(")", 1)[1].split()
            ticks += sum(int(x) for x in fields[11:15])  # utime stime cutime cstime
        except (OSError, IndexError, ValueError):
            continue
    return ticks / _TICK
