"""Smoke test of the Ray-free kernel micro-bench at a tiny size: it
runs in a fresh process, round-trips every partition it encodes and
reports every stage for both lake shapes."""

import json
import os
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

STAGES = {"read_log", "conform", "compact", "combine", "assign", "combine_epoch",
          "merge_state", "encode_policy", "encode_plain", "encode_default", "write",
          "read_policy", "read_plain", "read_default", "read_hit", "view_delta", "view_full"}


def test_kernelbench_runs_tiny():
    out = subprocess.run(
        [sys.executable, os.path.join(REPO, "tools", "kernelbench.py"),
         "--scale", "0.01", "--reps", "2", "--large", "300"],
        capture_output=True, text=True, timeout=300, cwd=REPO,
    )
    assert out.returncode == 0, out.stderr[-2000:]
    res = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(res["shapes"]) == {"upsert", "backfill"}
    for shape in res["shapes"].values():
        assert set(shape["cpu_ms"]) == STAGES
        assert shape["rows_written"] > 0 and shape["runs_written"] >= 1
        # lsn is unique in every partition, so the policy drops its
        # dictionary page and writes fewer bytes
        assert 0 < shape["bytes_policy"] < shape["bytes_default"]
        assert shape["bytes_policy"] <= 1.005 * shape["bytes_plain"]
        for q in shape["cpu_ms"].values():
            assert q["q1"] <= q["p50"] <= q["q3"]
    assert set(res["large"]["300"]) == {"uniform", "zipf"}
    # bit-packing is chosen only where it pays: never more than 0.5 %
    # above the same file with every leaf zstd, whatever the token law
    for point in res["large"]["300"].values():
        assert 0 < point["bytes_policy"] <= 1.005 * point["bytes_plain"]
        assert {f"encode_{m}" for m in ("policy", "plain", "default")} == set(point["cpu_ms"])
    # the files sweep: rows over 1, 2, …, 128 files, bytes and CPU each
    files = res["files"]
    points = [files["points"][k] for k in sorted(files["points"], key=int)]
    assert len(points) == 8 and files["rows"] > 0
    assert [p["files"] for p in points] == sorted((p["files"] for p in points), reverse=True)
    assert all(p["bytes"] > 0 for p in points)
    assert 0 <= files["fixed_share_at_file_bytes"] <= 1
