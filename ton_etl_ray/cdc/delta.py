"""The one epoch-delta derivation: the committed rows that changed
between two lake epochs. The maintained views (``ops.tokens``, when
``pair_rows`` is below a recompute's rows), ``replay.epoch_diff`` and
the changefeed (``changefeed.emit_changefeed`` and ``emit_snapshot``)
all consume it — one comparison, no join, no shuffle.

An epoch stores key k in the file whose bucket range holds
``hash64(k) % width``, and the files of a commit tile the buckets. So
two epochs of one width pair up by range: a file inherited across the
span is the same file on both sides (nothing changed) and is skipped,
and the rest — the files either side rewrote — fall into connected
components of overlapping ranges (``_components``). A component covers
the same buckets on both sides, so it is key-closed: its old files
hold every old row of its keys and its new files every new row, and
it compares in isolation, its concatenated sides zipped once
(``zip_changed``). While every range is one bucket, a component is
one file pair. Only ``compact_lake`` changes the width, and it
re-stores its head's state unchanged, so a span whose endpoint widths
differ splits at each such compaction c into the aligned runs
(a, c−1] and (c, b].

Summing the runs is enough for a view fold, not for classifying a key:
a key that changes on both sides of a re-shard is an old row (lsn x)
and a new row (y) in a component of one run, then old (y) and new (z)
in a component of the next. The components are therefore joined into
key-closed groups: with G the gcd of the runs' widths, G divides every
width w, so ``hash64 % w % G == hash64 % G``, and k lies in a component
of each run whose buckets hold a residue ``hash64(k) % G``. Components
that share a residue mod G join (union-find). Inside a group the rows
with equal ``(doc_id, lsn)`` and opposite sign cancel — the y row a run
adds is the row the next run removes, since state(c−1) = state(c), and
a row cannot be added (or removed) twice in a row. What is left
telescopes to at most one old row (k's winner at a) and one new row
(its winner at b). A same-width span has one run, so each component is
its own group and nothing is netted; when every range is one bucket the
groups are exactly the buckets' classes ``part % G``.
"""

from __future__ import annotations

import math
import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .._pickle import ensure_portable
from ..ops._util import local_plan, read_blocks
from . import sink


def _runs(lake_dir: str, epoch_a: int | None, epoch_b: int) -> list[tuple[dict, dict]]:
    """The span (a, b] as aligned (first, last) commit runs: one run if
    the endpoint widths are equal (no commit in between is read),
    otherwise one per width, split at each re-sharding compaction. A
    span from nothing (``epoch_a`` None) is one run from an empty
    commit of b's width."""
    def width(c: dict) -> int:
        return int(c["num_partitions"])

    last = sink.read_commit(lake_dir, epoch_b)
    if epoch_a is None:
        return [({"partitions": {}, "num_partitions": width(last)}, last)]
    first = sink.read_commit(lake_dir, epoch_a)
    if width(first) == width(last):
        return [(first, last)]
    runs, start, prev = [], first, first
    for e in range(epoch_a + 1, epoch_b + 1):
        c = last if e == epoch_b else sink.read_commit(lake_dir, e)
        if width(c) != width(prev):
            if not str((c.get("inputs") or [""])[0]).startswith("<compact:"):
                raise ValueError(
                    f"epoch {e} changed num_partitions without compact_lake; "
                    "the span cannot be split into aligned runs")
            runs.append((start, prev))
            start = c
        prev = c
    runs.append((start, last))
    return runs


def _components(ca: dict, cb: dict) -> list[tuple[list[dict], list[dict]]]:
    """The files one aligned run (``_runs``) rewrote, as connected
    components of overlapping bucket ranges: ``(old entries, new
    entries)`` by range. A file on both sides is inherited and skipped,
    and so is an entry without a row. O(files)."""
    def live(c: dict) -> list[tuple[int, int, dict]]:
        return [r for r in sink.ranges(c) if r[2]["rows"] > 0]

    a, b = live(ca), live(cb)
    shared = {ent["path"] for _, _, ent in a} & {ent["path"] for _, _, ent in b}
    spans = sorted([(lo, hi, side, ent) for side, rs in enumerate((a, b))
                    for lo, hi, ent in rs if ent["path"] not in shared], key=lambda x: x[:3])
    comps: list[tuple[list[dict], list[dict]]] = []
    end = -1
    for lo, hi, side, ent in spans:
        if lo >= end:
            comps.append(([], []))
        comps[-1][side].append({**ent, "lo": lo, "hi": hi})
        end = max(end, hi)
    return comps


def _rewritten(runs: list[tuple[dict, dict]]) -> list[tuple[list[dict], list[dict]]]:
    """The components (``_components``) of every run, in order."""
    return [comp for ca, cb in runs for comp in _components(ca, cb)]


def pair_rows(runs: list[tuple[dict, dict]]) -> int:
    """The rows the pair stage reads over ``runs``: both sides of every
    rewritten component, from the commits' per-file ``rows`` — no file
    is opened."""
    return sum(int(ent["rows"]) for comp in _rewritten(runs) for side in comp for ent in side)


def _groups(comps: list[tuple[list[dict], list[dict]]], g: int) -> list[list[int]]:
    """The components joined into key-closed groups (module doc):
    components that hold buckets of one residue mod ``g`` join, by
    union-find over the residues. Lists of component indices."""
    parent = list(range(g))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    firsts = []
    for old, new in comps:
        residues = {r for ent in old + new
                    for r in (range(g) if ent["hi"] - ent["lo"] >= g
                              else (x % g for x in range(ent["lo"], ent["hi"])))}
        root = find(min(residues))
        for r in residues:
            parent[find(r)] = root
        firsts.append(min(residues))
    groups: dict[int, list[int]] = {}
    for i, r in enumerate(firsts):
        groups.setdefault(find(r), []).append(i)
    return [groups[k] for k in sorted(groups)]


def span_groups(lake_dir: str, epoch_a: int | None, epoch_b: int,
                runs: list[tuple[dict, dict]]) -> list[dict]:
    """The rewritten files of the span (a, b], whose ``_runs`` are
    ``runs``, packed into key-closed groups (module doc): ``{"a": [old
    paths per component], "b": [new paths per component]}``, paths
    relative to the lake. Raises the "garbage-collected" ``ValueError``
    — before any read — if a component names a file that
    ``sink.gc_epochs`` has collected: an endpoint's, or the pre-image of
    a re-shard inside the span."""
    comps = _rewritten(runs)
    if len(runs) == 1:  # one width: every component is key-closed alone
        members = [[i] for i in range(len(comps))]
    else:
        members = _groups(comps, math.gcd(*(int(cb["num_partitions"]) for _, cb in runs)))
    groups = [{side: [[ent["path"] for ent in comps[i][k]] for i in idx]
               for k, side in enumerate("ab")} for idx in members]
    missing = [rel for group in groups for side in "ab" for comp in group[side] for rel in comp
               if not os.path.exists(os.path.join(lake_dir, rel))]
    if missing:
        raise ValueError(
            f"span ({epoch_a}, {epoch_b}]: {len(missing)} data files have been "
            f"garbage-collected (e.g. {missing[0]}); use epochs inside the GC "
            "keep window")
    return groups


def zip_changed(ta: pa.Table, tb: pa.Table) -> tuple[pa.Table, pa.Table]:
    """The changed rows of one component (two sides over the same
    buckets, each unique by doc_id): the rows of ``ta`` whose key is
    gone from ``tb`` or won there at another lsn (deleted or updated:
    old rows), and the same for ``tb`` against ``ta`` (added or updated:
    new rows). One hash lookup (``index_in``) and one lsn compare per
    direction; the rows keep their types."""
    def changed(t: pa.Table, other: pa.Table) -> pa.Table:
        at = pc.take(other["lsn"], pc.index_in(t["doc_id"], value_set=other["doc_id"]))
        return t.filter(pc.invert(pc.fill_null(pc.equal(t["lsn"], at), False)))

    return changed(ta, tb), changed(tb, ta)


def _net(old: pa.Table, new: pa.Table) -> tuple[pa.Table, pa.Table]:
    """A group's changed rows without those that cancel: the rows whose
    ``(doc_id, lsn)`` is on both sides. One narrow semi-join per side
    (the payload may hold lists, which Arrow joins do not carry)."""
    keys = ["doc_id", "lsn"]

    def rest(t: pa.Table, other: pa.Table) -> pa.Table:
        rows = t.select(keys).append_column("row", pa.array(np.arange(t.num_rows)))
        gone = rows.join(other.select(keys), keys=keys, join_type="left semi")["row"]
        return t.filter(pc.invert(pc.is_in(rows["row"], value_set=gone.combine_chunks())))

    return rest(old, new), rest(new, old)


def classify(old: pa.Table, new: pa.Table) -> tuple[pa.ChunkedArray, pa.Table]:
    """Split one ``delta_stream`` task's rows into the change classes:
    per new row the index of its key's old row (null: added, else
    updated), and the old rows whose key has no new row (deleted). A
    key has at most one row per side there, so each key gets one
    class."""
    at = pc.index_in(new["doc_id"], value_set=old["doc_id"])
    return at, old.filter(pc.is_null(pc.index_in(old["doc_id"], value_set=new["doc_id"])))


def delta_stream(lake_dir: str, epoch_a: int | None, epoch_b: int | None,
                 columns: list[str] | None, fn, *, runs: list[tuple[dict, dict]] | None = None):
    """Run ``fn(old, new)`` over the changed rows of the span (a, b] —
    ``epoch_a`` None is the span from nothing, where every row of b is
    new. ``old`` holds each changed key's row at a (updated or
    deleted), ``new`` its row at b (added or updated); both are
    ``doc_id``, ``lsn`` and ``columns`` (None: every column) with b's
    schema, older files promoted to it.

    The groups of ``span_groups`` are packed into tasks by their bytes
    (``read_blocks``), and each task calls ``fn`` once with the
    concatenated rows of its groups — groups are key-closed, so no key
    spans two tasks. The work is one ``sink.read_file`` of each side of
    each pair: no LSN-ordering assumption, late cross-epoch data
    included. Pairs smaller than one read block in total run
    in-process and return a list of ``fn`` results; larger ones run as
    one Ray Data ``map_batches`` over the groups and return its
    Dataset. A span without a rewritten partition calls ``fn`` once on
    empty sides. ``runs``, the span's ``_runs`` if the caller parsed
    them already, spares a second parse of its commits."""
    ensure_portable()
    import ray.data as rd

    e_b = sink.latest_epoch(lake_dir) if epoch_b is None else epoch_b
    runs = _runs(lake_dir, epoch_a, e_b) if runs is None else runs
    groups = span_groups(lake_dir, epoch_a, e_b, runs)
    schema = sink.commit_schema(runs[-1][1])
    if columns is not None:
        columns = ["doc_id", "lsn"] + [c for c in columns if c not in ("doc_id", "lsn")]
        schema = pa.schema([schema.field(c) for c in columns])
    empty = schema.empty_table()

    def concat(ts: list[pa.Table]) -> pa.Table:
        return pa.concat_tables([empty, *ts], promote_options="permissive")

    def read(rels: list[str]) -> pa.Table | None:
        return concat([sink.read_file(os.path.join(lake_dir, rel), columns)
                       for rel in rels]) if rels else None

    def changed_rows(batch: pa.Table) -> pa.Table:
        olds, news = [], []
        for a_comps, b_comps in zip(batch["a"].to_pylist(), batch["b"].to_pylist()):
            old, new = [], []
            for a_rels, b_rels in zip(a_comps, b_comps):
                ta, tb = read(a_rels), read(b_rels)
                if ta is not None and tb is not None:
                    ta, tb = zip_changed(ta, tb)
                # a range born in the span is all new rows, an emptied one all old
                old += [ta] if ta is not None else []
                new += [tb] if tb is not None else []
            if len(a_comps) > 1:
                net_old, net_new = _net(concat(old), concat(new))
                old, new = [net_old], [net_new]
            olds += old
            news += new
        return fn(concat(olds), concat(news))

    if not groups:
        return [fn(empty, empty)]
    # sized by bytes, not one task per pair: a task per ~9 ms pair costs
    # more to start than the pair takes to compare on a small lake
    paired_bytes = sum(os.path.getsize(os.path.join(lake_dir, rel)) for group in groups
                       for side in "ab" for comp in group[side] for rel in comp)
    if local_plan(paired_bytes):
        return [changed_rows(pa.Table.from_pylist(groups))]
    blocks = min(len(groups), read_blocks(paired_bytes))
    return (rd.from_items(groups, override_num_blocks=blocks)
            .map_batches(changed_rows, batch_format="pyarrow", batch_size=None))
