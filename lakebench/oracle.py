"""DuckDB oracle: what the committed lake and the serve views must hold.

The expected lake is the rank-1 last-writer-wins state of every log
applied so far: ``row_number() over (partition by doc_id order by lsn
desc) = 1`` with tombstones dropped. Tables are compared by row count
and an order-independent sum of per-row hashes over ``doc_id``,
``tokens``, ``n_tok``, ``source`` and ``lang``, so a single flipped
token, a missing row or a resurrected tombstone changes the digest.

The oracle reads lake files from the commit JSON itself rather than
through the engine, and runs only outside the benchmark's timed regions.
"""

from __future__ import annotations

import json
import os

import duckdb
import pyarrow as pa

_ROW = "doc_id, CAST(tokens AS INTEGER[]) AS tokens, CAST(n_tok AS BIGINT) AS n_tok, source, {lang} AS lang"
_DIGEST = "SELECT count(*), coalesce(sum(hash(doc_id, tokens, n_tok, source, lang)::HUGEINT), 0) FROM {src}"


class OracleMismatch(AssertionError):
    """The engine's output differs from the oracle's."""


def committed_files(lake_dir: str, epoch: int | None = None) -> list[str]:
    """Data files of a committed epoch (the latest by default)."""
    if epoch is None:
        with open(os.path.join(lake_dir, "_LATEST")) as f:
            epoch = int(f.read().strip())
    with open(os.path.join(lake_dir, f"epoch-{epoch:06d}", "_COMMIT.json")) as f:
        commit = json.load(f)
    return sorted(os.path.join(lake_dir, p["path"])
                  for p in commit["partitions"].values() if p["rows"] > 0)


def _sql_list(files: list[str]) -> str:
    return "[" + ", ".join("'" + f.replace("'", "''") + "'" for f in files) + "]"


class Oracle:
    """Expected lake state for one run, maintained in DuckDB.

    ``apply`` folds one more log into the expected state; ``check_*``
    raise :class:`OracleMismatch` on any difference. ``checks`` counts
    the comparisons made."""

    def __init__(self):
        self.con = duckdb.connect()
        self.con.execute("SET threads = 1")
        self.con.execute(
            "CREATE TABLE state (doc_id VARCHAR PRIMARY KEY, lsn BIGINT, op VARCHAR, "
            "tokens INTEGER[], n_tok BIGINT, source VARCHAR, lang VARCHAR)")
        self.logs: list[str] = []
        self.checks = 0

    def _read(self, files: list[str], cols: str) -> str:
        src = f"read_parquet({_sql_list(files)}, union_by_name = true)"
        names = {r[0] for r in self.con.execute(f"DESCRIBE SELECT * FROM {src}").fetchall()}
        lang = "lang" if "lang" in names else "CAST(NULL AS VARCHAR)"
        return f"(SELECT {cols.format(lang=lang)} FROM {src})"

    def _rank1(self, log_files: list[str]) -> str:
        """Per doc_id the event with the highest LSN, tombstones included."""
        rows = self._read(log_files, "lsn, op, " + _ROW)
        return f"""SELECT * EXCLUDE (rk) FROM (
            SELECT *, row_number() OVER (PARTITION BY doc_id ORDER BY lsn DESC) AS rk
            FROM {rows}) WHERE rk = 1"""

    def apply(self, log_files: list[str]) -> None:
        """Fold a log into the expected state: per key, the highest LSN wins."""
        self.con.execute(f"CREATE OR REPLACE TEMP TABLE w AS {self._rank1(log_files)}")
        self.con.execute("DELETE FROM state USING w WHERE state.doc_id = w.doc_id AND state.lsn < w.lsn")
        self.con.execute("""
            INSERT INTO state SELECT doc_id, lsn, op, tokens, n_tok, source, lang
            FROM w ANTI JOIN state USING (doc_id)""")
        self.logs.extend(log_files)

    def expected(self) -> tuple[int, int]:
        return self.con.execute(_DIGEST.format(src="state WHERE op <> 'd'")).fetchone()

    def expected_full(self) -> tuple[int, int]:
        """The rank-1 definition over every log applied, recomputed from scratch."""
        return self.con.execute(_DIGEST.format(
            src=f"({self._rank1(self.logs)}) WHERE op <> 'd'")).fetchone()

    def digest_files(self, files: list[str]) -> tuple[int, int]:
        if not files:
            return (0, 0)
        return self.con.execute(_DIGEST.format(src=self._read(files, _ROW))).fetchone()

    def digest_table(self, table: pa.Table) -> tuple[int, int]:
        self.con.register("scan", table)
        try:
            cols = _ROW.format(lang="lang" if "lang" in table.column_names else "CAST(NULL AS VARCHAR)")
            return self.con.execute(_DIGEST.format(src=f"(SELECT {cols} FROM scan)")).fetchone()
        finally:
            self.con.unregister("scan")

    def _compare(self, what: str, got, want) -> None:
        self.checks += 1
        if got != want:
            raise OracleMismatch(f"{what}: got {got}, expected {want}")

    def check_lake(self, lake_dir: str, epoch: int | None = None, *, full: bool = False) -> None:
        want = self.expected_full() if full else self.expected()
        self._compare(f"lake {lake_dir} epoch {epoch}", self.digest_files(committed_files(lake_dir, epoch)), want)

    def check_scan(self, table: pa.Table) -> None:
        self._compare("snapshot scan", self.digest_table(table), self.expected())

    def check_view(self, what: str, view: pa.Table, lake_dir: str, epoch: int | None = None) -> None:
        """A per-source budget view must equal the SQL aggregate over the
        epoch's committed files."""
        files = committed_files(lake_dir, epoch)
        want = self.con.execute(f"""
            SELECT source, count(*), sum(n_tok)::BIGINT, sum(n_tok)::DOUBLE / count(*)
            FROM {self._read(files, _ROW)} GROUP BY source ORDER BY source""").fetchall()
        got = sorted(zip(*(view[c].to_pylist() for c in ("source", "n_docs", "total_tokens", "mean_tokens"))))
        self.checks += 1
        same = len(got) == len(want) and all(
            g[:3] == tuple(w[:3]) and abs(g[3] - w[3]) <= 1e-4 for g, w in zip(got, want))
        if not same:
            raise OracleMismatch(f"{what}: got {got}, expected {want}")

    def close(self) -> None:
        self.con.close()
