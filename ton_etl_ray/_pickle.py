"""Make ton_etl_ray closures self-contained for Ray workers.

The package is used without installation (no pip in the target env), so
worker processes may not have it on their import path. Registering every
loaded ``ton_etl_ray`` module for cloudpickle by-value serialization
ships the code with the task closure instead of requiring an import on
the worker — the same mechanism Ray itself uses for ``__main__``.
Idempotent; called at the top of every pipeline entry point.
"""

from __future__ import annotations

import sys

_registered: set[str] = set()
_scanned = -1  # len(sys.modules) at the last full scan


def ensure_portable() -> None:
    """Idempotent per-module: modules imported AFTER a previous call are
    picked up on the next call (a done-flag would strand them). Imports
    only grow ``sys.modules``, so an unchanged length skips the scan
    (a full scan splits every loaded module's name: ~0.3 ms with 1.6k
    modules, and every replay and view calls this)."""
    global _scanned
    if len(sys.modules) == _scanned:
        return
    try:
        from ray import cloudpickle as cp
    except Exception:  # pragma: no cover - ray always present in this env
        import cloudpickle as cp
    loaded = list(sys.modules.items())
    _scanned = len(loaded)
    for name, mod in loaded:
        if name.split(".")[0] == "ton_etl_ray" and mod is not None and name not in _registered:
            try:
                cp.register_pickle_by_value(mod)
                _registered.add(name)
            except Exception:
                pass
