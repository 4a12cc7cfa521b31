"""SignalFx v2 datapoint binary-protobuf wire — the namesake exporter's
actual ingest body.

The reference ships the contrib ``signalfxexporter``
(components.go:30,312; configured at agent_config.yaml:159-167 with
``ingest_url`` → ``POST /v2/datapoint``). Its wire body is a
``DataPointUploadMessage`` from the public
signalfx/com_signalfx_metrics_protobuf schema
(signal_fx_protocol_buffers.proto — proto2), gzip-compressed on the
request. The .proto isn't shipped in this container, so the message tree
is declared at runtime (``descriptor_pb2`` → ``message_factory``) with
the public field numbers, transcribed and cited per message below —
the same construction as ``sources/otlp_pb.py``.

Engine mapping (both directions):

- receiver analogue :func:`read_sfx_dump` — a staged ingest dump
  (``dp-*.pb.gz`` request bodies) → one row per datapoint with the
  dimensions splat as string columns and the ``Datum`` arms surfaced
  as ``value_int`` / ``value_dbl`` / ``value_str`` (proto2
  presence-tested; Datum is three independent optional fields, so a
  body may legally set several — decode and re-encode preserve all).
- exporter analogue :func:`write_sfx_dump` — one gzipped
  ``DataPointUploadMessage`` per block with content-hash filenames
  (retry-idempotent), so subscriber∘publisher is an identity the
  roundtrip query can oracle.

Timestamps ride the wire in SignalFx's millisecond unit (DataPoint.
timestamp int64 ms) — decode restores ``timestamp[us]`` columns
truncated to ms, the same precision contract as the kafka dump.
"""

from __future__ import annotations

import glob
import gzip
import os

import pyarrow as pa

from google.protobuf import descriptor_pb2, descriptor_pool, message_factory

from .wire import cols_to_table, pb_field as _field, write_blocks

SFX_SHARDS = 4

_PKG = "com.signalfx.metrics.protobuf"
_T = descriptor_pb2.FieldDescriptorProto


def _build_pool() -> descriptor_pool.DescriptorPool:
    pool = descriptor_pool.DescriptorPool()
    # signal_fx_protocol_buffers.proto (public sfxproto schema, proto2 —
    # optional labels give the explicit field presence the Datum oneof
    # relies on):
    #   enum MetricType { GAUGE=0; COUNTER=1; ENUM=2;
    #                     CUMULATIVE_COUNTER=3; }
    #   Datum          { strValue=1; doubleValue=2; intValue=3; }
    #   Dimension      { key=1; value=2; }
    #   DataPoint      { source=1; metric=2; timestamp=3; value=4;
    #                    metricType=5; dimensions=6; }
    #   DataPointUploadMessage { datapoints=1; }
    fd = descriptor_pb2.FileDescriptorProto(
        name="sfx/signal_fx_protocol_buffers.proto", package=_PKG,
        syntax="proto2")
    en = fd.enum_type.add(name="MetricType")
    for nm, num in (("GAUGE", 0), ("COUNTER", 1), ("ENUM", 2),
                    ("CUMULATIVE_COUNTER", 3)):
        en.value.add(name=nm, number=num)
    datum = fd.message_type.add(name="Datum")
    datum.field.extend([
        _field("strValue", 1, _T.TYPE_STRING),
        _field("doubleValue", 2, _T.TYPE_DOUBLE),
        _field("intValue", 3, _T.TYPE_INT64),
    ])
    dim = fd.message_type.add(name="Dimension")
    dim.field.extend([
        _field("key", 1, _T.TYPE_STRING),
        _field("value", 2, _T.TYPE_STRING),
    ])
    dp = fd.message_type.add(name="DataPoint")
    dp.field.extend([
        _field("source", 1, _T.TYPE_STRING),
        _field("metric", 2, _T.TYPE_STRING),
        _field("timestamp", 3, _T.TYPE_INT64),
        _field("value", 4, _T.TYPE_MESSAGE, f".{_PKG}.Datum"),
        _field("metricType", 5, _T.TYPE_ENUM, f".{_PKG}.MetricType"),
        _field("dimensions", 6, _T.TYPE_MESSAGE, f".{_PKG}.Dimension",
               repeated=True),
    ])
    up = fd.message_type.add(name="DataPointUploadMessage")
    up.field.append(_field("datapoints", 1, _T.TYPE_MESSAGE,
                           f".{_PKG}.DataPoint", repeated=True))
    pool.Add(fd)
    return pool


_POOL = _build_pool()
DataPointUploadMessage = message_factory.GetMessageClass(
    _POOL.FindMessageTypeByName(f"{_PKG}.DataPointUploadMessage"))
_TYPE_NAME = {0: "GAUGE", 1: "COUNTER", 2: "ENUM", 3: "CUMULATIVE_COUNTER"}
_TYPE_NUM = {v: k for k, v in _TYPE_NAME.items()}

# Decode/encode column contract: the dimension keys every datapoint in
# the staged corpus carries (splat to string columns, like the pubsub
# attribute splat) + the fixed wire fields.
DIM_KEYS = ("conv_id", "role", "tool", "turn_idx")
_OUT_SCHEMA = pa.schema([
    ("metric", pa.string()),
    ("metric_type", pa.string()),
    ("source", pa.string()),
    ("ts", pa.timestamp("us")),
    ("value_int", pa.int64()),
    ("value_dbl", pa.float64()),
    ("value_str", pa.string()),
] + [(k, pa.string()) for k in DIM_KEYS])


def encode_upload(rows: "list[dict]") -> bytes:
    """Datapoint dicts (the decode row shape) → one gzipped
    DataPointUploadMessage request body."""
    msg = DataPointUploadMessage()
    for r in rows:
        dp = msg.datapoints.add()
        if r.get("source") is not None:
            dp.source = r["source"]
        dp.metric = r["metric"]
        dp.timestamp = int(r["ts_ms"])
        dp.metricType = _TYPE_NUM[r["metric_type"]]
        # Datum is three INDEPENDENT optional fields, not a true oneof —
        # set every non-null arm so decode∘encode is the identity even
        # for wire bodies that carry more than one
        if r.get("value_int") is not None:
            dp.value.intValue = int(r["value_int"])
        if r.get("value_dbl") is not None:
            dp.value.doubleValue = float(r["value_dbl"])
        if r.get("value_str") is not None:
            dp.value.strValue = r["value_str"]
        for k in DIM_KEYS:
            v = r.get(k)
            if v is not None:
                d = dp.dimensions.add()
                d.key = k
                d.value = v
    # mtime=0: the gzip header otherwise stamps the wall clock, and the
    # same datapoints must give the same bytes (reproducible fixtures)
    return gzip.compress(msg.SerializeToString(), 6, mtime=0)


def _decode_upload(data: bytes, cols: "dict[str, list]") -> None:
    """One request body → column lists (direct field walk; per-datapoint
    Python is the codec edge, same as the OTLP/fluent decoders)."""
    msg = DataPointUploadMessage()
    if data[:2] == b"\x1f\x8b":
        # the ray/arrow binary reader auto-decompresses *.gz paths; a
        # raw body (unit tests, other readers) still carries the gzip
        # magic — an upload message itself always starts with tag 0x0a
        # (field 1, length-delimited), so the sniff cannot misfire
        data = gzip.decompress(data)
    msg.ParseFromString(data)
    for dp in msg.datapoints:
        cols["metric"].append(dp.metric)
        cols["metric_type"].append(_TYPE_NAME[dp.metricType])
        cols["source"].append(dp.source if dp.HasField("source") else None)
        cols["ts"].append(dp.timestamp * 1000)  # wire ms → µs column
        v = dp.value
        cols["value_int"].append(
            v.intValue if v.HasField("intValue") else None)
        cols["value_dbl"].append(
            v.doubleValue if v.HasField("doubleValue") else None)
        cols["value_str"].append(
            v.strValue if v.HasField("strValue") else None)
        dims = {d.key: d.value for d in dp.dimensions}
        for k in DIM_KEYS:
            cols[k].append(dims.get(k))


def _cols_to_table(cols: "dict[str, list]") -> pa.Table:
    return cols_to_table(_OUT_SCHEMA, cols)


def read_sfx_dump(staging_dir: str) -> "ray.data.Dataset":
    """Ingest-side receiver analogue: staged ``dp-*.pb.gz`` request
    bodies → one row per datapoint (engine schema above)."""
    import ray.data

    files = sorted(glob.glob(os.path.join(staging_dir, "dp-*.pb.gz")))
    if not files:
        raise FileNotFoundError(
            f"no dp-*.pb.gz request files under {staging_dir!r} — empty "
            "or mistyped staging dir (did the exporter tier write here?)")

    def decode(batch: dict) -> pa.Table:
        cols: dict[str, list] = {f.name: [] for f in _OUT_SCHEMA}
        for raw in batch["bytes"]:
            _decode_upload(bytes(raw), cols)
        return _cols_to_table(cols)

    return ray.data.read_binary_files(files).map_batches(
        decode, batch_format="numpy")


def _encode_block(t: pa.Table) -> "list[bytes]":
    """One block → its one gzipped DataPointUploadMessage."""
    ts_ms = t["ts"].cast(pa.int64()).to_pylist() if t.num_rows else []
    d = t.to_pydict()
    return [encode_upload([{
        "metric": d["metric"][i],
        "metric_type": d["metric_type"][i],
        "source": d["source"][i],
        "ts_ms": ts_ms[i] // 1000,
        "value_int": d["value_int"][i],
        "value_dbl": d["value_dbl"][i],
        "value_str": d["value_str"][i],
        **{k: d[k][i] for k in DIM_KEYS},
    } for i in range(t.num_rows)])]


def write_sfx_dump(ds: "ray.data.Dataset", out_dir: str) -> int:
    """Exporter analogue: one ``dp-<sha1>.pb.gz`` upload per block
    (retry-idempotent content-hash names, see ``wire.write_blocks``),
    returning the datapoint count. Input must be the engine schema
    :func:`read_sfx_dump` emits."""
    return write_blocks(ds, out_dir, "dp-{}.pb.gz", _encode_block)
