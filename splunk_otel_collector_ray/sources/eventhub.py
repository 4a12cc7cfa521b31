"""azureeventhub receiver analogue: Capture-style partition dump →
Azure resource-log records, with per-partition sequence checkpointing.

The reference registers ``azureeventhubreceiver``
(/root/reference/internal/components/components.go:215) whose NETWORK
side (AMQP links, consumer groups, lease-based load balancing) is out of
scope for a batch engine — but the DATA semantics port cleanly and are
DIFFERENT from kafka/pubsub in two ways this module implements:

1. **One event explodes into many log records.** An Event Hubs event
   carrying Azure diagnostic logs has a body of the public export shape
   ``{"records": [...]}`` — each record with ``time`` / ``resourceId`` /
   ``category`` / ``operationName`` / ``level`` / ``properties`` — and
   the receiver emits ONE log row per record (a flat_map, not a 1:1
   decode), mapping the Azure severity ladder (Verbose / Informational /
   Warning / Error / Critical) onto OTel severity numbers.
2. **Resume state is a per-partition sequence high-water mark** (the
   Event Processor checkpoint-store model): a restarted processor reads
   each partition strictly AFTER its checkpointed ``SequenceNumber`` —
   per-partition monotone like kafka offsets, unlike pubsub's ack SET.

Input is an Event Hubs *Capture*-shaped dump: one JSONL file per
partition, each line an event envelope using Capture's public field
names (``Body`` / ``SequenceNumber`` / ``Offset`` / ``EnqueuedTimeUtc``
/ ``PartitionKey``; real Capture stores Avro and encodes the partition
id in the blob path — this dump carries it as ``PartitionId``, and no
Avro lib ships in this container). Envelope fields decode vectorized;
the per-event ``Body`` JSON parse is the wire-codec edge (same as
fluent/OTLP/kafka payload decoding). The checkpoint commit, the resume
filter and the producer's file layout are ``wire``'s per-partition mark
and producer helpers, shared with kafka and pulsar; this module keeps
the event encoding and the producer's per-partition event order.
"""

from __future__ import annotations

import itertools
import json

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from . import wire
from .wire import iso_us as _iso_us
from .wire import load_marks as load_checkpoint
from .wire import repeat_per, ts_us

EVENTHUB_PARTITIONS = 4

# Azure resource-log severity ladder → OTel severity numbers, the mapping
# the contrib receiver applies (public OTel data-model table: DEBUG=5,
# INFO=9, WARN=13, ERROR=17, FATAL=21).
AZURE_SEVERITY: dict[str, int] = {
    "Verbose": 5,
    "Informational": 9,
    "Warning": 13,
    "Error": 17,
    "Critical": 21,
}

RESOURCE_PREFIX = ("/subscriptions/sub0/resourceGroups/transcripts/"
                   "providers/Microsoft.Chat/conversations/")


def encode_eventhub_event(partition: int, sequence: int, partition_key: str,
                          enqueued_us: int, records: "list[dict]") -> dict:
    """One Capture-shaped event envelope; ``Body`` is the resource-log
    export JSON (``{"records": [...]}``) serialized as a string."""
    return {
        "PartitionId": int(partition),
        "SequenceNumber": int(sequence),
        "Offset": str(int(sequence) * 512),  # opaque string per the API
        "EnqueuedTimeUtc": _iso_us(enqueued_us),
        "PartitionKey": partition_key,
        "Body": json.dumps({"records": records}, ensure_ascii=False),
    }


def make_azure_record(ts_us: int, conv_id: str, role: str, tool: str,
                      level: str, turn_idx: int, text: str) -> dict:
    """One Azure diagnostic-log record (public common-schema fields)."""
    return {
        "time": _iso_us(ts_us),
        "resourceId": RESOURCE_PREFIX + conv_id,
        "category": role,
        "operationName": tool,
        "level": level,
        "properties": {"text": text, "turn_idx": int(turn_idx)},
    }


def decode_eventhub_batch(batch: pa.Table) -> pa.Table:
    """Event envelopes → one log row PER RESOURCE-LOG RECORD.

    Envelope coordinates replicate across a body's records via a single
    ``np.repeat``; record ``time`` strings parse in one Arrow cast after
    the explode. Only the body JSON parse itself is per event."""
    bodies = batch["Body"].to_pylist()
    recs_per_event = [json.loads(b)["records"] for b in bodies]
    counts = np.fromiter((len(r) for r in recs_per_event), dtype=np.int64,
                         count=len(recs_per_event))

    def rep(col: "pa.ChunkedArray | pa.Array") -> pa.Array:
        return repeat_per(col, counts)

    et = ts_us(batch["EnqueuedTimeUtc"])
    flat = [r for recs in recs_per_event for r in recs]
    times = pa.array([r["time"][:26] for r in flat], type=pa.string())
    levels = [r["level"] for r in flat]
    return pa.table({
        "partition": pc.cast(rep(batch["PartitionId"]), pa.int32()),
        "sequence_number": pc.cast(rep(batch["SequenceNumber"]),
                                   pa.int64()),
        "partition_key": rep(batch["PartitionKey"]),
        "enqueued_ts": pc.cast(rep(et), pa.timestamp("us")),
        "ts": pc.cast(times, pa.timestamp("us")),
        "resource_id": pa.array([r["resourceId"] for r in flat],
                                type=pa.string()),
        "category": pa.array([r["category"] for r in flat],
                             type=pa.string()),
        "operation_name": pa.array([r["operationName"] for r in flat],
                                   type=pa.string()),
        "level": pa.array(levels, type=pa.string()),
        "severity_number": pa.array(
            [AZURE_SEVERITY.get(v, 0) for v in levels], type=pa.int8()),
        "turn_idx": pa.array([r["properties"]["turn_idx"] for r in flat],
                             type=pa.int64()),
        "body": pa.array([r["properties"]["text"] for r in flat],
                         type=pa.string()),
    })


def read_eventhub_capture(path: str, checkpoint: "str | None" = None
                          ) -> "ray.data.Dataset":
    """Read a Capture dump; with ``checkpoint`` (the checkpoint file
    :func:`checkpoint_sequences` writes), emit only records of events
    strictly AFTER each partition's checkpointed SequenceNumber — the
    restarted-processor semantics."""
    import ray.data

    out = ray.data.read_json(path, file_extensions=["jsonl"]).map_batches(
        decode_eventhub_batch, batch_format="pyarrow")
    return wire.drop_marked(out, load_checkpoint(checkpoint),
                            lambda t: (t["partition"], t["sequence_number"]))


def checkpoint_sequences(state_path: str, ds: "ray.data.Dataset"
                         ) -> dict[int, int]:
    """Commit the processed stream's per-partition max sequence numbers
    to ``state_path`` — the checkpoint-store update (monotone, atomic; an
    empty stream keeps the prior checkpoint) — and return them."""
    return wire.commit_marks(state_path, ds, "sequence_number")


def _encode_partition(p: int, rows: pa.Table) -> "list[str]":
    """One partition's Capture lines: one event per partition key, keys
    in order, records in ``turn_idx`` order; SequenceNumber counts events
    from 0 and ``EnqueuedTimeUtc`` is the event's earliest record time."""
    rows = rows.sort_by([("partition_key", "ascending"),
                         ("turn_idx", "ascending")])
    ts = pc.cast(rows["ts"], pa.int64()).to_pylist()
    d = rows.select(["partition_key", "category", "operation_name", "level",
                     "turn_idx", "body", "resource_id"]).to_pydict()
    lines = []
    for seq, (conv, idx) in enumerate(itertools.groupby(
            range(rows.num_rows), d["partition_key"].__getitem__)):
        idx = list(idx)
        recs = [{
            "time": _iso_us(ts[i]),
            "resourceId": d["resource_id"][i],
            "category": d["category"][i],
            "operationName": d["operation_name"][i],
            "level": d["level"][i],
            "properties": {"text": d["body"][i],
                           "turn_idx": d["turn_idx"][i]},
        } for i in idx]
        lines.append(json.dumps(encode_eventhub_event(
            p, seq, conv, min(ts[i] for i in idx), recs),
            ensure_ascii=False))
    return lines


def write_eventhub_capture(ds: "ray.data.Dataset", out_dir: str) -> None:
    """Event Hubs PRODUCER analogue: regroup exploded log rows back into
    resource-log events and write one Capture JSONL per partition (the
    partition-ownership shape a real hub enforces)."""
    wire.write_partitions(ds, out_dir, "partition", "partition-{}.jsonl",
                          _encode_partition)
