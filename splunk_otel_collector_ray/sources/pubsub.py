"""pubsub receiver analogue: subscription-pull dump JSONL → log records,
with acked-message resume.

The reference ships a googlecloudpubsub receiver/exporter pair
(/root/reference/internal/components/components.go:215 area — queue
transports) whose NETWORK side (gRPC streaming pull, lease management,
flow control) is out of scope for a batch engine, but the DATA semantics
port cleanly: each ``ReceivedMessage`` envelope's base64 ``data`` becomes
the log body, ``attributes`` (string→string per the public Pub/Sub data
model) splat to attributes, ``messageId``/``orderingKey``/``publishTime``
become coordinates, and the subscriber's ack state becomes a durable
acked-id table — re-reading a dump skips acked messages exactly like a
restarted subscriber (at-least-once semantics; unlike kafka there is no
offset order, so the state is a key SET, not a high-water mark).

Input is the REST ``ReceivedMessage`` JSON layout (public API shape), one
object per line, read Arrow-native via ``ray.data.read_json``; envelope
fields decode vectorized except the per-row base64 (the wire-codec edge,
same as fluent/OTLP). Ack state scales: it is ``wire``'s acked-key set,
written as parquet BY THE CLUSTER (never collected to the driver) and
applied with ``anti_join_keys`` — broadcast under the cardinality
threshold, keyed anti-join past it. The publisher's file layout is
``wire``'s per-partition producer.
"""

from __future__ import annotations

import base64
import json

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from . import wire

PUBSUB_SHARDS = 4  # file-layout fan-out for read parallelism (pubsub has
#                    no partitions; shard = producer key hash, like kafka)
ATTR_COLS = ("turn_idx", "role", "tool")  # attributes the publisher writes


def encode_pubsub_record(message_id: str, ordering_key: str,
                         publish_ts_us: int, body: str,
                         attributes: "dict[str, str]") -> dict:
    """One ReceivedMessage envelope (REST JSON shape, data base64)."""
    iso = wire.iso_us(publish_ts_us)
    return {
        "ackId": "ack:" + message_id,
        "message": {
            "data": base64.b64encode(body.encode("utf-8")).decode("ascii"),
            "attributes": attributes,
            "messageId": message_id,
            "orderingKey": ordering_key,
            "publishTime": iso,
        },
    }


def decode_pubsub_batch(batch: pa.Table) -> pa.Table:
    """One envelope per row → log-record columns.

    publishTime parses via Arrow's ISO8601 string→timestamp cast (the Z
    suffix sliced off); attributes splat as STRINGS (the Pub/Sub data
    model types them string→string); only the base64 payload is per-row.
    """
    msg = batch["message"]
    if isinstance(msg, pa.ChunkedArray):
        msg = msg.combine_chunks()
    data = msg.field("data")
    body = pa.array(
        [base64.b64decode(v).decode("utf-8") if v is not None else None
         for v in data.to_pylist()], type=pa.string())
    ts = wire.ts_us(msg.field("publishTime"))
    cols: dict[str, pa.Array] = {
        "message_id": msg.field("messageId"),
        "ordering_key": msg.field("orderingKey"),
        "publish_ts": ts,
        "body": body,
    }
    attrs = msg.field("attributes")
    for i, f in enumerate(attrs.type):
        if f.name in cols:  # coordinates/payload are authoritative
            continue
        cols[f.name] = pc.cast(attrs.field(i), pa.string())
    return pa.table(cols)


def read_pubsub_dump(path: str, ack_state: str | None = None
                     ) -> "ray.data.Dataset":
    """Read a subscription dump; with ``ack_state`` (a parquet dir written
    by :func:`ack_messages`), drop already-acked messages — the restarted-
    subscriber semantics."""
    import ray.data

    out = ray.data.read_json(path, file_extensions=["jsonl"]).map_batches(
        decode_pubsub_batch, batch_format="pyarrow")
    return wire.drop_keys(out, ack_state, "message_id")


def ack_messages(state_path: str, ds: "ray.data.Dataset") -> None:
    """Persist the consumed stream's message ids as the acked set —
    appended to any prior state, written by the cluster; the driver never
    holds the ids."""
    wire.save_keys(state_path, "ack", ds, ["message_id"])


def _encode_shard(s: int, rows: pa.Table) -> "list[str]":
    """One shard's envelopes in (ordering key, message id) order."""
    rows = rows.sort_by([("ordering_key", "ascending"),
                         ("message_id", "ascending")])
    ts = pc.cast(rows["publish_ts"], pa.int64()).to_pylist()
    d = rows.select(["message_id", "ordering_key", "body",
                     *ATTR_COLS]).to_pydict()
    return [json.dumps(encode_pubsub_record(  # wire-encode edge, like kafka
        d["message_id"][i], d["ordering_key"][i], ts[i], d["body"][i],
        {c: str(d[c][i]) for c in ATTR_COLS}), ensure_ascii=False)
        for i in range(rows.num_rows)]


def write_pubsub_dump(ds: "ray.data.Dataset", out_dir: str) -> None:
    """pubsub PUBLISHER analogue: write decoded records back as a
    subscription dump (JSONL envelopes, sharded by ordering-key hash so a
    shard's messages serialize contiguously — the ordering-key delivery
    guarantee). Input rows carry (message_id, ordering_key, publish_ts,
    body) + ``ATTR_COLS``."""
    from ..stages.sample import key_hash_mod

    def add_shard(t: pa.Table) -> pa.Table:
        shard = key_hash_mod(t["ordering_key"], PUBSUB_SHARDS)
        return t.append_column("shard", pa.array(shard.astype(np.int64)))

    wire.write_partitions(ds.map_batches(add_shard, batch_format="pyarrow"),
                          out_dir, "shard", "subscription-{}.jsonl",
                          _encode_shard)
