"""kafka receiver analogue: topic-dump JSONL → log records, with
consumer-group offset-commit resume.

The reference ships kafka receiver/exporter components
(internal/components/components.go:242,305) whose NETWORK side (brokers,
consumer groups, rebalancing) is out of scope for a batch engine — but the
DATA semantics port cleanly: each record's ``payload`` becomes the log
body, the Kafka coordinates (topic/partition/offset/key/timestamp) and
headers become attributes, and the consumer group's committed-offset state
becomes a per-partition high-water-mark file — re-reading a dump skips
records at or below the committed offset exactly like a restarted consumer
(the same shape as the filelog receiver's offsets checkpoint). Input is
the kcat/kafkacat ``-J`` JSONL export layout (public format), read
Arrow-native via ``ray.data.read_json``; decode is vectorized per batch.

This module keeps only the dump's record encoding and the producer's
per-partition order. The offset commit, the resume filter and the
producer's file layout are ``wire``'s per-partition mark and producer
helpers, shared with eventhub and pulsar.
"""

from __future__ import annotations

import json

import pyarrow as pa
import pyarrow.compute as pc

from . import wire
from .wire import load_marks as load_offsets

TOPIC = "transcripts"
HEADER_COLS = ("turn_idx", "role", "tool")


def decode_kafka_batch(batch: pa.Table) -> pa.Table:
    """One dump record per row → log-record columns (vectorized)."""
    ms = batch["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
    cols: dict[str, pa.Array] = {
        "topic": batch["topic"],
        "partition": batch["partition"].cast(pa.int32()),
        "offset": batch["offset"].cast(pa.int64()),
        "ts": pa.array(ms * 1000, type=pa.timestamp("us")),
        "key": batch["key"],
        "body": batch["payload"],
    }
    headers = batch["headers"]
    if isinstance(headers, pa.ChunkedArray):
        headers = headers.combine_chunks()
    for i, f in enumerate(headers.type):
        if f.name in cols:  # coordinates/payload are authoritative — a
            continue  # producer header named 'key'/'offset'/… never wins
        cols[f.name] = headers.field(i)  # splat headers → attributes
    return pa.table(cols)


def read_kafka_dump(path: str, committed: "str | None" = None
                    ) -> "ray.data.Dataset":
    """Read a topic dump; with ``committed`` (the offsets file
    :func:`commit_offsets` writes), skip records at or below each
    partition's committed offset — the consumer-group restart
    semantics."""
    import ray.data

    out = ray.data.read_json(path, file_extensions=["jsonl"]).map_batches(
        decode_kafka_batch, batch_format="pyarrow")
    return wire.drop_marked(out, load_offsets(committed),
                            lambda t: (t["partition"], t["offset"]))


def commit_offsets(state_path: str, ds: "ray.data.Dataset") -> dict[int, int]:
    """Commit the consumed stream's per-partition max offsets to
    ``state_path`` (monotone, atomic; an empty stream keeps the prior
    marks) and return them."""
    return wire.commit_marks(state_path, ds, "offset")


def _encode_partition(p: int, rows: pa.Table) -> "list[str]":
    """One partition's dump lines. Existing ``offset`` coordinates are
    kept in offset order (a dump copy); offset-less input gets fresh
    sequences in key order — the broker's append counter."""
    assign = "offset" not in rows.column_names
    rows = rows.sort_by("key" if assign else "offset")
    offs = range(rows.num_rows) if assign else rows["offset"].to_pylist()
    ts_ms = (pc.cast(rows["ts"], pa.int64()).to_numpy() // 1000).tolist()
    d = rows.select(["key", "body", *HEADER_COLS]).to_pydict()
    return [json.dumps({
        "topic": TOPIC, "partition": p, "offset": off, "ts": ts_ms[i],
        "key": d["key"][i], "payload": d["body"][i],
        "headers": {c: d[c][i] for c in HEADER_COLS},
    }, ensure_ascii=False) for i, off in enumerate(offs)]


def write_kafka_dump(ds: "ray.data.Dataset", out_dir: str) -> None:
    """kafka PRODUCER analogue: write decoded records back as a topic dump
    (one JSONL file per partition, offset-ordered — what a consumer of the
    produced topic would observe). Input rows carry (partition, ts, key,
    body) + ``HEADER_COLS``, and optionally ``offset``."""
    wire.write_partitions(ds, out_dir, "partition", TOPIC + "-{}.jsonl",
                          _encode_partition)
