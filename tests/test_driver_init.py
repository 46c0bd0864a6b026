"""Driver bootstrap contract (cdc/_driver.py): local mode owns a
sized session; under `ray job submit` (RAY_ADDRESS exported to a real
cluster address) the entry point must JOIN that cluster and must NOT
pass the local-mode num_cpus knob."""

from unittest import mock

from ton_etl_ray.cdc._driver import init_driver


def _run(monkeypatch, addr_env):
    import ray

    calls = {}

    def fake_init(**kw):
        calls.update(kw)

    if addr_env is None:
        monkeypatch.delenv("RAY_ADDRESS", raising=False)
    else:
        monkeypatch.setenv("RAY_ADDRESS", addr_env)
    with mock.patch.object(ray, "is_initialized", return_value=False), \
         mock.patch.object(ray, "init", side_effect=fake_init):
        init_driver(num_cpus=8)
    return calls


def test_local_mode_owns_a_sized_session(monkeypatch):
    calls = _run(monkeypatch, "local")
    assert calls["address"] == "local"
    assert calls["num_cpus"] == 8


def test_unset_address_defaults_to_local(monkeypatch):
    calls = _run(monkeypatch, None)
    assert calls["address"] == "local"


def test_empty_address_is_treated_as_unset(monkeypatch):
    # Ray's own convention: RAY_ADDRESS="" means unset, not a cluster
    calls = _run(monkeypatch, "")
    assert calls["address"] == "local"
    assert calls["num_cpus"] == 8


def test_cluster_address_joins_without_num_cpus(monkeypatch):
    calls = _run(monkeypatch, "127.0.0.1:6400")
    assert calls["address"] == "127.0.0.1:6400"
    # the cluster defines its own resource pool
    assert "num_cpus" not in calls


def _parsed_num_cpus(cli, argv):
    """The ``--num-cpus`` a CLI passes to ``init_driver`` when the flag
    is not given (the CLI stops there)."""
    import pytest

    from ton_etl_ray.cdc import _driver

    seen = []

    def stop(num_cpus):
        seen.append(num_cpus)
        raise SystemExit(0)

    with mock.patch.object(_driver, "init_driver", side_effect=stop), pytest.raises(SystemExit):
        cli.main(argv)
    return seen[0]


def test_cli_num_cpus_default(monkeypatch, tmp_path):
    """Both CLIs default ``--num-cpus`` to ``RAY_GRAFT_CPUS`` if set,
    else the CPUs of the process's affinity mask, not a fixed 8."""
    import os

    from ton_etl_ray.cdc import run_maintain, run_replay

    clis = [(run_replay, ["--changes", str(tmp_path), "--lake", str(tmp_path)]),
            (run_maintain, ["--lake", str(tmp_path), "--compact"])]
    monkeypatch.delenv("RAY_GRAFT_CPUS", raising=False)
    for cli, argv in clis:
        assert _parsed_num_cpus(cli, argv) == len(os.sched_getaffinity(0))
    monkeypatch.setenv("RAY_GRAFT_CPUS", "3")
    for cli, argv in clis:
        assert _parsed_num_cpus(cli, argv) == 3
