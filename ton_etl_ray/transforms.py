"""Example transforms on the registry — the P/C-family pattern instances.

Each mirrors a reference parser shape (opcode predicate → typed rows,
parsers/message/*.py): a cheap vectorized predicate over the source
batch, then a projection/enrichment emitting a typed side-output table.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .boc import decode_comment, parse_boc, parse_hashmap_uint
from .functions import opcode_signed
from .ops._util import fmt_addr
from .ops.enrich import FetchEnrichStage
from .registry import Transform, register


@register
class PurchaseEnrich(Transform):
    """P-family analogue: predicate on event type (the opcode filter,
    e.g. dedust_swap.py:35-40) → typed 'trades' rows with a derived fee."""

    source = "events"
    emits = "trades"

    def predicate(self, batch: pa.Table) -> pa.Array:
        return pc.equal(batch["event_type"], pa.scalar("purchase"))

    def apply(self, batch: pa.Table) -> pa.Table:
        fee = np.round(batch["value"].to_numpy(zero_copy_only=False) * 0.01, 6)
        return pa.table(
            {
                "event_id": batch["event_id"],
                "user_id": batch["user_id"],
                "amount": batch["value"],
                "fee": pa.array(fee, pa.float64()),
            }
        )


@register
class SignupDaily(Transform):
    """C-family analogue: projection + date-partition derivation
    (converter.partition, datalake/converters/converter.py:32-36)."""

    source = "events"
    emits = "signups"

    def predicate(self, batch: pa.Table) -> pa.Array:
        return pc.equal(batch["event_type"], pa.scalar("signup"))

    def apply(self, batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "event_id": batch["event_id"],
                "user_id": batch["user_id"],
                "day": pc.floor_temporal(batch["ts"], unit="day"),
            }
        )


@register
class PropsDecode(Transform):
    """Per-record JSON payload decode — the reference's core parser act
    (every Kafka message is json.loads'd then field-extracted,
    parser/main.py:133). Vectorized here: pyarrow JSON-ish extraction
    over the string column via a compiled regex for the known shape,
    falling back to json.loads per miss."""

    source = "events"
    emits = "props_decoded"

    def __init__(self):
        import re

        self.pat = re.compile(r'"k"\s*:\s*(-?\d+)')

    def prepare(self) -> None:
        pass

    def apply(self, batch: pa.Table) -> pa.Table:
        import json

        ks = []
        for s in batch["props"].to_pylist():
            m = self.pat.search(s) if s else None
            if m:
                ks.append(int(m.group(1)))
            elif s:
                ks.append(int(json.loads(s).get("k")))
            else:
                ks.append(None)
        return pa.table(
            {"event_id": batch["event_id"], "k": pa.array(ks, pa.int64())}
        )


@register
class BigErrorAlert(Transform):
    """Predicate with compound condition + stateful prepare (whitelist
    pattern, e.g. tonfun.py:20-23): errors above a threshold from a
    prepared user set."""

    source = "events"
    emits = "alerts"

    def __init__(self, threshold: float = 50.0):
        self.threshold = threshold
        self.vip: set[int] | None = None

    def prepare(self) -> None:
        self.vip = set(range(0, 10_000, 2))  # stand-in for a loaded whitelist

    def predicate(self, batch: pa.Table) -> pa.Array:
        is_err = pc.equal(batch["event_type"], pa.scalar("error"))
        big = pc.greater(batch["value"], pa.scalar(self.threshold))
        return pc.and_(is_err, big)

    def apply(self, batch: pa.Table) -> pa.Table:
        users = batch["user_id"].to_numpy(zero_copy_only=False)
        vip = np.array([int(u) in self.vip for u in users]) if self.vip is not None else np.zeros(len(users), bool)
        return pa.table(
            {
                "event_id": batch["event_id"],
                "user_id": batch["user_id"],
                "value": batch["value"],
                "is_vip": pa.array(vip),
            }
        )


@register
class MetadataEnrich(Transform):
    """P30-shaped registry transform: predicate on event type → enrich
    each surviving row through the fetch-enrichment stage's cache/TTL/
    retry machinery, with the client built in ``prepare()`` (once per
    actor — the reference's Parser.prepare + jetton_metadata fetch
    pipeline, jetton_metadata.py:27-66). The default fetcher is
    deterministic (no network here), so the output is oracle-checkable;
    a deployment registers the same class with a real client factory."""

    source = "events"
    emits = "enriched_signups"

    def __init__(self, fetcher_factory=None):
        self.fetcher_factory = fetcher_factory or (
            lambda: (lambda k: {"u": k.upper()})
        )
        self.stage = None

    def prepare(self) -> None:
        self.stage = FetchEnrichStage(self.fetcher_factory, key_col="event_type")

    def predicate(self, batch: pa.Table) -> pa.Array:
        return pc.equal(batch["event_type"], "signup")

    def apply(self, batch: pa.Table) -> pa.Table:
        if self.stage is None:  # direct-call path (tests without actors)
            self.prepare()
        out = self.stage(batch.select(["event_id", "event_type"]))
        return out.select(["event_id", "event_type", "enrichment", "fetch_ok"])


@register
class JettonTransferParse(Transform):
    """REAL P1-family parser: the reference's jetton-transfer act end to
    end — predicate on the typed signed-int32 opcode column (the
    registry routing in parsers/__init__.py + the opcode check in
    parsers/message/jetton_transfer shape), then per-claimed-row BOC
    body decode of query_id / VarUInteger coins / MsgAddress destination
    (model/parser.py:85-94 field extraction). Runs over the ``messages``
    source (``ops.messages.synth_message_dataset`` — every encoded field
    is arithmetically recomputable in SQL, so the whole decode is
    value-hash oracle-checked)."""

    source = "messages"
    emits = "jetton_transfers"

    OPCODE = 0x0F8A7EA5  # TEP-74 transfer

    def prepare(self) -> None:
        self._parse_boc = parse_boc
        self._decode_comment = decode_comment

    def predicate(self, batch: pa.Table) -> pa.Array:
        return pc.equal(batch["opcode"], pa.scalar(opcode_signed(self.OPCODE), pa.int32()))

    def apply(self, batch: pa.Table) -> pa.Table:
        if not hasattr(self, "_parse_boc"):  # direct-call path (tests)
            self.prepare()
        n = batch.num_rows
        qids = np.empty(n, np.int64)
        amounts = np.empty(n, np.int64)
        fwd_tons = np.empty(n, np.int64)
        has_custom = np.empty(n, bool)
        dests: list[str] = []
        resps: list[str] = []
        fwd_comments: list[str | None] = []
        for i, body in enumerate(batch["body_boc"].to_pylist()):
            s = self._parse_boc(body).begin_parse()
            s.load_uint(32)  # consume the opcode (matched by the predicate)
            qids[i] = s.load_uint(64)
            amounts[i] = s.load_coins()
            # MsgAddress legitimately includes addr_none (common for
            # response_destination on-chain) — emit NULL, don't crash
            dest = s.load_address()
            dests.append(fmt_addr(dest))
            resp = s.load_address()  # response_destination
            resps.append(fmt_addr(resp))
            has_custom[i] = bool(s.load_bit())  # custom_payload:(Maybe ^Cell)
            if has_custom[i]:
                s.load_ref()  # present but opaque to this parser
            fwd_tons[i] = s.load_coins()
            # forward_payload:(Either Cell ^Cell); the ref form carries an
            # op-0 comment cell (the reference decodes it the same way)
            fwd_comments.append(
                self._decode_comment(s.load_ref()) if s.load_bit() else None
            )
        return pa.table(
            {
                "event_id": batch["event_id"],
                "query_id": pa.array(qids, pa.int64()),
                "amount_nano": pa.array(amounts, pa.int64()),
                "dest_addr": pa.array(dests, pa.string()),
                "resp_addr": pa.array(resps, pa.string()),
                "has_custom_payload": pa.array(has_custom),
                "fwd_ton_amount": pa.array(fwd_tons, pa.int64()),
                "fwd_comment": pa.array(fwd_comments, pa.string()),
            }
        )


@register
class BatchMintParse(Transform):
    """1→many P17-family parser (the reference's NFT/mint history
    parsers emit several typed rows per claimed message —
    parsers/accounts/nfts_parser shape): opcode predicate, then each
    body's TEP-62-style ``Hashmap(64, ^item)`` fans out to one row per
    minted item. ``apply`` is the flat-map hook — Transform already
    allows 1 input batch → 0..n output rows."""

    source = "messages"
    emits = "nft_mints"

    OPCODE = 0x178D4519

    def prepare(self) -> None:
        self._parse_boc = parse_boc
        self._parse_hashmap = parse_hashmap_uint

    def predicate(self, batch: pa.Table) -> pa.Array:
        return pc.equal(batch["opcode"], pa.scalar(opcode_signed(self.OPCODE), pa.int32()))

    def apply(self, batch: pa.Table) -> pa.Table:
        if not hasattr(self, "_parse_boc"):  # direct-call path (tests)
            self.prepare()
        eids: list[int] = []
        idxs: list[int] = []
        amounts: list[int] = []
        for eid, body in zip(batch["event_id"].to_pylist(),
                             batch["body_boc"].to_pylist()):
            s = self._parse_boc(body).begin_parse()
            s.load_uint(32)
            s.load_uint(64)  # query_id
            if not s.load_bit():  # Maybe ^Hashmap — empty mint
                continue
            for idx, vcell in sorted(self._parse_hashmap(s.load_ref(), 64).items()):
                eids.append(eid)
                idxs.append(idx)
                amounts.append(vcell.begin_parse().load_coins())
        return pa.table(
            {
                "event_id": pa.array(eids, pa.int64()),
                "item_idx": pa.array(idxs, pa.int64()),
                "item_amount": pa.array(amounts, pa.int64()),
            }
        )


@register
class SnakeCommentDecode(Transform):
    """C-family converter with real payload decode: opcode-0 text
    messages → snake-string comment (the reference's comment converter,
    converters/messages.py:24-30 / parser 'comment' columns). Predicate
    on the typed opcode column; decode only claimed rows."""

    source = "messages"
    emits = "comments"

    def prepare(self) -> None:
        self._parse_boc = parse_boc
        self._decode_comment = decode_comment

    def predicate(self, batch: pa.Table) -> pa.Array:
        return pc.equal(batch["opcode"], pa.scalar(0, pa.int32()))

    def apply(self, batch: pa.Table) -> pa.Table:
        if not hasattr(self, "_parse_boc"):  # direct-call path (tests)
            self.prepare()
        comments = [
            self._decode_comment(self._parse_boc(body))
            for body in batch["body_boc"].to_pylist()
        ]
        return pa.table(
            {
                "event_id": batch["event_id"],
                "comment": pa.array(comments, pa.string()),
            }
        )


@register
class UpdateFeed(Transform):
    """Continuous derive-and-publish transform over the CDC change
    stream itself (S3's full form, reference datalake/streaming.py:65-191
    — the exporter that converts each consumed change and re-publishes it
    as a normalized side table): every update event in a micro-batch is
    emitted to the ``updated_docs`` table, committed under the ingest
    epoch's write-then-publish barrier via ``DirectoryWatcher(derive=…)``."""

    source = "changes"
    emits = "updated_docs"

    def predicate(self, batch: pa.Table) -> pa.Array:
        return pc.equal(batch["op"], "u")

    def apply(self, batch: pa.Table) -> pa.Table:
        return pa.table({"doc_id": batch["doc_id"], "n_tok": batch["n_tok"]})
