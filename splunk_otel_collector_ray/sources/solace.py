"""solace receiver analogue: broker-telemetry queue-dump decode →
trace spans, with settlement-based resume.

The reference registers the contrib ``solacereceiver``
(/root/reference/internal/components/components.go:268,
docs/components.md:76) whose NETWORK side (AMQP 1.0 links to the
broker's ``#telemetry-…`` queue, flow-control windows) is out of scope
for a batch engine — but its DATA semantics are unlike every other
queue family in this package, which is why it completes the set:

1. **The payload IS telemetry about messaging itself.** Each queue
   message carries a Solace distributed-tracing ``SpanData`` protobuf
   describing one traced user message's journey through the broker, and
   the receiver emits TRACE SPANS, not log rows. There are two span
   families, *receive* (broker accepted a publish; the public
   ``…trace.receive.v1`` message) and *egress* (broker delivered to a
   consumer; ``…trace.egress.v1``), dispatched on the TELEMETRY
   MESSAGE'S TOPIC — the receiver picks the unmarshaller from the
   topic, and a message whose topic names no known family is refused
   and counted (the contrib receiver's dropped-telemetry counter), not
   crashed on.
2. **Both spans of one user message share its identity** — the
   replication-group message id (``rmid1:…``) — so egress spans link to
   their receive parent both by ``parentSpanId`` and by rgmid, which is
   what makes broker delivery-latency analysis a keyed self-join (see
   :func:`delivery_lag`) rather than a trace-reassembly problem.
3. **Resume is settlement.** Guaranteed-messaging consumption settles
   (accepts) each telemetry message only after it is forwarded;
   unsettled messages redeliver on restart. The analogue records
   settled span ids as parquet written BY THE CLUSTER
   (:func:`settle_spans`) and a restarted read drops them via
   ``anti_join_keys`` — broadcast under the cardinality threshold,
   keyed anti-join past it; the driver never holds the set.

Input is a JSONL dump of the telemetry queue: one line per AMQP
message, ``{"topic": "_telemetry/broker/trace/<family>/v1",
"payload": "<SpanData JSON>"}``, sharded into files for read
parallelism only (a Solace queue has no partitions). The payload JSON
carries the public SpanData fields (hex ids, nanosecond times, topic or
queue name, rgmid, protocol/version, client username, enqueue events).
Unknown-family messages are refused by one vectorized topic filter; the
per-message payload parse and field extraction are the wire-codec edge
(same as fluent/OTLP/kafka payload decoding), and a message whose
payload is unparsable or missing required SpanData fields is refused
too — :func:`count_refused` is the dump analogue of the contrib
receiver's dropped-telemetry counter.

Span mapping follows OTel messaging semconv the way the contrib
unmarshallers do: span name = ``<destination> <operation>``, operation
``receive`` (kind ``consumer``) for the receive family, ``send`` (kind
``producer``) for egress; enqueue events surface as the
``enqueue_queue`` column ('' on egress rows).
"""

from __future__ import annotations

import json

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

# Shard count AND queue-identity modulus: corpus.ensure_solace_dump derives
# the egress queue name q/<p>, subscriber username and the rgmid's first hex
# group from n % SOLACE_SHARDS, and the oracle twin
# (__ray_entry__._solace_sql_ctes, in the solace_parse and
# solace_delivery_lag oracles) hardcodes the matching % 4 — changing this
# requires changing the SQL and bumping CORPUS_VERSION together.
SOLACE_SHARDS = 4

RECEIVE_TOPIC = "_telemetry/broker/trace/receive/v1"
EGRESS_TOPIC = "_telemetry/broker/trace/egress/v1"


def encode_receive_span(trace_id: str, span_id: str, start_ns: int,
                        end_ns: int, topic: str, rgmid: str, protocol: str,
                        protocol_version: str, client_username: str,
                        enqueue_queue: str) -> dict:
    """One telemetry-queue line: a receive-family SpanData message."""
    return {"topic": RECEIVE_TOPIC, "payload": json.dumps({
        "traceId": trace_id, "spanId": span_id,
        "startTimeUnixNano": int(start_ns),
        "completionTimeUnixNano": int(end_ns),
        "topic": topic, "replicationGroupMessageId": rgmid,
        "protocol": protocol, "protocolVersion": protocol_version,
        "clientUsername": client_username,
        "enqueueEvents": [{"queueName": enqueue_queue,
                           "timeUnixNano": int(end_ns)}],
    }, ensure_ascii=False)}


def encode_egress_span(trace_id: str, span_id: str, parent_span_id: str,
                       start_ns: int, end_ns: int, queue_name: str,
                       rgmid: str, protocol: str, protocol_version: str,
                       client_username: str) -> dict:
    """One telemetry-queue line: an egress-family SpanData message."""
    return {"topic": EGRESS_TOPIC, "payload": json.dumps({
        "traceId": trace_id, "spanId": span_id,
        "parentSpanId": parent_span_id,
        "startTimeUnixNano": int(start_ns),
        "completionTimeUnixNano": int(end_ns),
        "queueName": queue_name, "replicationGroupMessageId": rgmid,
        "protocol": protocol, "protocolVersion": protocol_version,
        "clientUsername": client_username,
    }, ensure_ascii=False)}


def _filter_known(batch: pa.Table) -> "tuple[pa.Table, int, list]":
    """Vectorized family dispatch: (kept rows, refused count, is_recv)."""
    topic = batch["topic"]
    known = pc.or_(pc.equal(topic, RECEIVE_TOPIC),
                   pc.equal(topic, EGRESS_TOPIC))
    known = pc.fill_null(known, False)
    kept = batch.filter(known)
    refused = batch.num_rows - kept.num_rows
    is_recv = pc.equal(kept["topic"], RECEIVE_TOPIC).to_pylist()
    return kept, refused, is_recv


def _parse_payload(r: bool, p) -> "tuple | None":
    """One telemetry payload → the 11-field span row, or None (refused).

    The codec edge: a payload that is unparsable, non-object, missing
    required SpanData fields, OR carries a wrong-typed field (a numeric
    protocolVersion, a null traceId) is refused — never raised out of
    the read task, and never allowed to poison the Arrow column build
    for the rest of the batch."""
    try:
        d = json.loads(p)
        row = (
            d["traceId"], d["spanId"], d.get("parentSpanId", ""),
            int(d["startTimeUnixNano"]),
            int(d["completionTimeUnixNano"]),
            d["replicationGroupMessageId"], d["protocol"],
            d["protocolVersion"], d["clientUsername"],
            d["topic"] if r else d["queueName"],
            (d["enqueueEvents"][0]["queueName"]
             if r and d.get("enqueueEvents") else ""),
        )
    except (KeyError, TypeError, ValueError, IndexError, OverflowError):
        return None  # OverflowError: int(float('inf')) from a JSON 1e400
    # Type-check the string fields (indexes 3/4 are the ns times): an
    # explicit null or non-string value must refuse THIS message, not
    # blow up pa.array(..., type=string) for the whole batch.
    if any(not isinstance(v, str)
           for i, v in enumerate(row) if i not in (3, 4)):
        return None
    # The ns times must fit int64 (the protobuf sfixed64 domain): a huge
    # JSON integer passes int() here but would overflow the numpy int64
    # build in _ns_to_ts and poison the WHOLE batch.
    if not (-(1 << 63) <= row[3] < (1 << 63)
            and -(1 << 63) <= row[4] < (1 << 63)):
        return None
    return row


def _decode_rows(batch: pa.Table) -> "tuple[pa.Table, int]":
    """Shared decode core: (span table, refused count).

    Family dispatch is ONE vectorized topic filter (unknown telemetry
    families refused up front); the surviving payloads parse and
    extract per message via :func:`_parse_payload`."""
    kept, refused, is_recv = _filter_known(batch)
    cols: "dict[str, list]" = {k: [] for k in (
        "family", "trace_id", "span_id", "parent_span_id", "name", "kind",
        "destination", "rgmid", "protocol", "protocol_version",
        "client_username", "enqueue_queue")}
    start_ns: "list[int]" = []
    end_ns: "list[int]" = []
    for r, p in zip(is_recv, kept["payload"].to_pylist()):
        row = _parse_payload(r, p)
        if row is None:
            refused += 1  # malformed SpanData → refused, not crashed
            continue
        (trace, span, parent, st, en, rgm, proto, ver, user, dest,
         enq) = row
        cols["family"].append("receive" if r else "egress")
        cols["trace_id"].append(trace)
        cols["span_id"].append(span)
        cols["parent_span_id"].append(parent)
        cols["name"].append(f"{dest} receive" if r else f"{dest} send")
        cols["kind"].append("consumer" if r else "producer")
        cols["destination"].append(dest)
        cols["rgmid"].append(rgm)
        cols["protocol"].append(proto)
        cols["protocol_version"].append(ver)
        cols["client_username"].append(user)
        cols["enqueue_queue"].append(enq)
        start_ns.append(st)
        end_ns.append(en)
    s = pa.string()
    out = {k: pa.array(v, type=s) for k, v in cols.items()}
    out["start_ts"] = _ns_to_ts(start_ns)
    out["end_ts"] = _ns_to_ts(end_ns)
    order = ("family", "trace_id", "span_id", "parent_span_id", "name",
             "kind", "start_ts", "end_ts", "destination", "rgmid",
             "protocol", "protocol_version", "client_username",
             "enqueue_queue")
    return pa.table({k: out[k] for k in order}), refused


def decode_solace_batch(batch: pa.Table) -> pa.Table:
    """Telemetry messages → one SPAN row each, unified across families;
    refused messages (unknown family / bad payload) drop silently here —
    :func:`count_refused` surfaces the counter."""
    return _decode_rows(batch)[0]


def count_refused(path: str) -> int:
    """Total refused telemetry messages in a dump — the analogue of the
    contrib receiver's dropped-telemetry counter (it reports refused
    unmarshals instead of crashing the consumer). Uses the same topic
    filter and per-row validator the reader uses, but never builds the
    14 span columns it would throw away — count-only, summed
    distributed."""
    import ray.data

    def count(batch: pa.Table) -> pa.Table:
        kept, refused, is_recv = _filter_known(batch)
        refused += sum(
            _parse_payload(r, p) is None
            for r, p in zip(is_recv, kept["payload"].to_pylist()))
        return pa.table({"refused": pa.array([refused], type=pa.int64())})

    return int(ray.data.read_json(path, file_extensions=["jsonl"])
               .map_batches(count, batch_format="pyarrow")
               .sum("refused") or 0)


def _ns_to_ts(ns: "list[int]") -> pa.Array:
    us = np.asarray(ns, dtype=np.int64) // 1000
    return pc.cast(pa.array(us, type=pa.int64()), pa.timestamp("us"))


def read_solace_dump(path: str, settled_dir: "str | None" = None
                     ) -> "ray.data.Dataset":
    """Read a telemetry-queue dump; with ``settled_dir`` (written by
    :func:`settle_spans`), drop already-settled messages — the
    redelivery-after-restart semantics of guaranteed messaging. The
    settled set applies via ``anti_join_keys`` on ``span_id`` (unique
    per telemetry message): broadcast when small, keyed anti-join when
    not — the driver never materializes it."""
    import ray.data

    from .wire import drop_keys

    out = ray.data.read_json(path, file_extensions=["jsonl"]).map_batches(
        decode_solace_batch, batch_format="pyarrow")
    return drop_keys(out, settled_dir, "span_id")


def settle_spans(state_dir: str, ds: "ray.data.Dataset") -> None:
    """Record the consumed stream's telemetry messages as settled
    (accepted) — appended parquet of span ids, written by the cluster.
    A later :func:`read_solace_dump` with this directory skips them;
    everything unsettled redelivers, the at-least-once contract the
    contrib receiver implements by settling only after forwarding."""
    from .wire import save_keys

    save_keys(state_dir, "settle", ds, ["span_id"])


def delivery_lag(spans: "ray.data.Dataset") -> "ray.data.Dataset":
    """Broker delivery latency per egress destination: join each egress
    span to its receive parent THROUGH the shared rgmid and aggregate
    ``egress.start - receive.end`` per queue.

    Shape: project to fixed-width columns, ONE ``bucket_fold`` keyed
    on rgmid (both spans of a message land in one bucket; the
    fold pairs them with a vectorized merge and shrinks to per-queue
    partials), then a ``small_fold`` final over O(#queues) rows —
    span text never reshuffles and nothing materializes on the driver."""
    import pandas as pd

    from ..partitioning import bucket_fold, pd_table, small_fold

    def project(t: pa.Table) -> pa.Table:
        return pa.table({
            "family": t["family"],
            "rgmid": t["rgmid"],
            "destination": t["destination"],
            "start_us": pc.cast(t["start_ts"], pa.int64()),
            "end_us": pc.cast(t["end_ts"], pa.int64()),
        })

    # Explicit schemas for the no-pairs case: an all-refused-egress or
    # settled-away bucket makes the pandas groupby emit an EMPTY frame
    # whose object columns pd_table would type null, diverging from the
    # populated partials at the small_fold concat boundary.
    empty_partial = pa.table({
        "destination": pa.array([], type=pa.string()),
        "n": pa.array([], type=pa.int64()),
        "s": pa.array([], type=pa.int64()),
        "mx": pa.array([], type=pa.int64())})
    empty_final = pa.table({
        "destination": pa.array([], type=pa.string()),
        "n_deliveries": pa.array([], type=pa.int64()),
        "avg_lag_us": pa.array([], type=pa.float64()),
        "max_lag_us": pa.array([], type=pa.int64())})

    def pair_and_shrink(df: "pd.DataFrame") -> pa.Table:
        recv = df.loc[df["family"].to_numpy() == "receive",
                      ["rgmid", "end_us"]]
        eg = df.loc[df["family"].to_numpy() == "egress",
                    ["rgmid", "destination", "start_us"]]
        m = eg.merge(recv, on="rgmid", how="inner")
        if m.empty:
            return empty_partial
        m["lag_us"] = m["start_us"] - m["end_us"]
        g = m.groupby("destination", sort=False)["lag_us"].agg(
            n="size", s="sum", mx="max").reset_index()
        return pd_table(g)

    def combine(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        if df.empty:
            return empty_final
        g = df.groupby("destination", sort=True).agg(
            n=("n", "sum"), s=("s", "sum"), mx=("mx", "max")).reset_index()
        out = pd_table(g)
        return pa.table({
            "destination": out["destination"],
            "n_deliveries": pc.cast(out["n"], pa.int64()),
            "avg_lag_us": pc.divide(
                pc.cast(out["s"], pa.float64()),
                pc.cast(out["n"], pa.float64())),
            "max_lag_us": pc.cast(out["mx"], pa.int64()),
        })

    partials = bucket_fold(
        spans.map_batches(project, batch_format="pyarrow"), ["rgmid"],
        pair_and_shrink, coalesce=True)
    return small_fold(partials, combine)
