"""OTLP binary-protobuf logs wire, built on the official protobuf runtime.

The message tree is declared at runtime (``descriptor_pb2`` →
``message_factory``) with the field numbers of the public
opentelemetry-proto schema (opentelemetry/proto/logs/v1/logs.proto,
common/v1/common.proto, resource/v1/resource.proto,
collector/logs/v1/logs_service.proto — the .proto files aren't shipped in
this container, so the numbers are transcribed from the spec and cited
per message below). ``severity_number`` is declared int32 rather than the
SeverityNumber enum — wire-identical (varint) and it keeps the proto3
JSON mapping numeric, matching ``sources/otlp.py``'s JSON encoder.

Because encode/decode go through ``google.protobuf.json_format``
(ParseDict/MessageToDict), this module doubles as an independent
validation of the hand-written JSON mapping in ``sources/otlp.py``: the
same request dict must survive dict → protobuf message → binary →
message → dict byte-for-byte.
"""

from __future__ import annotations

import glob
import os
import zlib

from google.protobuf import (descriptor_pb2, descriptor_pool, json_format,
                             message_factory)

_PKG_COMMON = "opentelemetry.proto.common.v1"
_PKG_RES = "opentelemetry.proto.resource.v1"
_PKG_LOGS = "opentelemetry.proto.logs.v1"
_PKG_SVC = "opentelemetry.proto.collector.logs.v1"

_T = descriptor_pb2.FieldDescriptorProto


def _field(name: str, number: int, ftype: int, type_name: str | None = None,
           repeated: bool = False) -> descriptor_pb2.FieldDescriptorProto:
    f = descriptor_pb2.FieldDescriptorProto(
        name=name, number=number, type=ftype,
        label=(_T.LABEL_REPEATED if repeated else _T.LABEL_OPTIONAL))
    if type_name:
        f.type_name = type_name
    return f


def _build_pool() -> descriptor_pool.DescriptorPool:
    pool = descriptor_pool.DescriptorPool()

    common = descriptor_pb2.FileDescriptorProto(
        name="otlp/common.proto", package=_PKG_COMMON, syntax="proto3")
    # common.proto: AnyValue fields 1-7, ArrayValue.values=1,
    # KeyValueList.values=1, KeyValue{key=1,value=2},
    # InstrumentationScope{name=1,version=2}
    any_v = common.message_type.add(name="AnyValue")
    any_v.field.extend([
        _field("string_value", 1, _T.TYPE_STRING),
        _field("bool_value", 2, _T.TYPE_BOOL),
        _field("int_value", 3, _T.TYPE_INT64),
        _field("double_value", 4, _T.TYPE_DOUBLE),
        _field("array_value", 5, _T.TYPE_MESSAGE,
               f".{_PKG_COMMON}.ArrayValue"),
        _field("kvlist_value", 6, _T.TYPE_MESSAGE,
               f".{_PKG_COMMON}.KeyValueList"),
        _field("bytes_value", 7, _T.TYPE_BYTES),
    ])
    arr = common.message_type.add(name="ArrayValue")
    arr.field.append(_field("values", 1, _T.TYPE_MESSAGE,
                            f".{_PKG_COMMON}.AnyValue", repeated=True))
    kvl = common.message_type.add(name="KeyValueList")
    kvl.field.append(_field("values", 1, _T.TYPE_MESSAGE,
                            f".{_PKG_COMMON}.KeyValue", repeated=True))
    kv = common.message_type.add(name="KeyValue")
    kv.field.extend([
        _field("key", 1, _T.TYPE_STRING),
        _field("value", 2, _T.TYPE_MESSAGE, f".{_PKG_COMMON}.AnyValue"),
    ])
    scope = common.message_type.add(name="InstrumentationScope")
    scope.field.extend([
        _field("name", 1, _T.TYPE_STRING),
        _field("version", 2, _T.TYPE_STRING),
    ])
    pool.Add(common)

    res = descriptor_pb2.FileDescriptorProto(
        name="otlp/resource.proto", package=_PKG_RES, syntax="proto3",
        dependency=["otlp/common.proto"])
    # resource.proto: Resource{attributes=1, dropped_attributes_count=2}
    r = res.message_type.add(name="Resource")
    r.field.extend([
        _field("attributes", 1, _T.TYPE_MESSAGE,
               f".{_PKG_COMMON}.KeyValue", repeated=True),
        _field("dropped_attributes_count", 2, _T.TYPE_UINT32),
    ])
    pool.Add(res)

    logs = descriptor_pb2.FileDescriptorProto(
        name="otlp/logs.proto", package=_PKG_LOGS, syntax="proto3",
        dependency=["otlp/common.proto", "otlp/resource.proto"])
    # logs.proto: LogRecord{time_unix_nano=1 fixed64, severity_number=2,
    # severity_text=3, body=5, attributes=6, dropped_attributes_count=7,
    # flags=8 fixed32, trace_id=9, span_id=10,
    # observed_time_unix_nano=11 fixed64}
    rec = logs.message_type.add(name="LogRecord")
    rec.field.extend([
        _field("time_unix_nano", 1, _T.TYPE_FIXED64),
        _field("severity_number", 2, _T.TYPE_INT32),
        _field("severity_text", 3, _T.TYPE_STRING),
        _field("body", 5, _T.TYPE_MESSAGE, f".{_PKG_COMMON}.AnyValue"),
        _field("attributes", 6, _T.TYPE_MESSAGE,
               f".{_PKG_COMMON}.KeyValue", repeated=True),
        _field("dropped_attributes_count", 7, _T.TYPE_UINT32),
        _field("flags", 8, _T.TYPE_FIXED32),
        _field("trace_id", 9, _T.TYPE_BYTES),
        _field("span_id", 10, _T.TYPE_BYTES),
        _field("observed_time_unix_nano", 11, _T.TYPE_FIXED64),
    ])
    # ScopeLogs{scope=1, log_records=2, schema_url=3}
    sl = logs.message_type.add(name="ScopeLogs")
    sl.field.extend([
        _field("scope", 1, _T.TYPE_MESSAGE,
               f".{_PKG_COMMON}.InstrumentationScope"),
        _field("log_records", 2, _T.TYPE_MESSAGE,
               f".{_PKG_LOGS}.LogRecord", repeated=True),
        _field("schema_url", 3, _T.TYPE_STRING),
    ])
    # ResourceLogs{resource=1, scope_logs=2, schema_url=3}
    rl = logs.message_type.add(name="ResourceLogs")
    rl.field.extend([
        _field("resource", 1, _T.TYPE_MESSAGE, f".{_PKG_RES}.Resource"),
        _field("scope_logs", 2, _T.TYPE_MESSAGE,
               f".{_PKG_LOGS}.ScopeLogs", repeated=True),
        _field("schema_url", 3, _T.TYPE_STRING),
    ])
    pool.Add(logs)

    svc = descriptor_pb2.FileDescriptorProto(
        name="otlp/logs_service.proto", package=_PKG_SVC, syntax="proto3",
        dependency=["otlp/logs.proto"])
    # logs_service.proto: ExportLogsServiceRequest{resource_logs=1}
    req = svc.message_type.add(name="ExportLogsServiceRequest")
    req.field.append(_field("resource_logs", 1, _T.TYPE_MESSAGE,
                            f".{_PKG_LOGS}.ResourceLogs", repeated=True))
    pool.Add(svc)
    return pool


_POOL = _build_pool()
ExportLogsServiceRequest = message_factory.GetMessageClass(
    _POOL.FindMessageTypeByName(f"{_PKG_SVC}.ExportLogsServiceRequest"))


def request_dict_to_pb(req: dict) -> bytes:
    """JSON-mapping request dict (sources/otlp.encode_logs_request) →
    binary protobuf, via the official ParseDict (which validates the
    JSON-mapping field names/types as a side effect)."""
    msg = ExportLogsServiceRequest()
    json_format.ParseDict(req, msg)
    return msg.SerializeToString()


def pb_to_request_dict(data: bytes) -> dict:
    msg = ExportLogsServiceRequest()
    msg.ParseFromString(data)
    return json_format.MessageToDict(msg)


def _encode_block(t: "pa.Table") -> "list[bytes]":
    """One block → its one zlib-compressed (the OTLP/HTTP gzip
    content-encoding analogue) binary ExportLogsServiceRequest."""
    from .otlp import encode_logs_request

    return [zlib.compress(request_dict_to_pb(encode_logs_request(t)), 6)]


def write_otlp_logs_pb(ds: "ray.data.Dataset", out_dir: str) -> int:
    """Agent-tier exporter, binary form: one request file per block
    (``req-<sha1>.pb``; retry-idempotent content-hash names, see
    ``wire.write_blocks``). Returns the record count."""
    from .wire import write_blocks

    return write_blocks(ds, out_dir, "req-{}.pb", _encode_block)


def read_otlp_logs_pb(staging_dir: str) -> "ray.data.Dataset":
    """Gateway-tier receiver, binary form → engine-schema Dataset."""
    import pyarrow as pa

    import ray.data

    from .otlp import _OUT_SCHEMA, _rows_to_table, decode_logs_request

    files = sorted(glob.glob(os.path.join(staging_dir, "req-*.pb")))
    if not files:
        raise FileNotFoundError(
            f"no req-*.pb request files under {staging_dir!r} — empty or "
            "mistyped staging dir (did the agent tier write here?)")

    def decode(batch: dict) -> pa.Table:
        rows = []
        for raw in batch["bytes"]:
            rows.extend(decode_logs_request(
                pb_to_request_dict(zlib.decompress(bytes(raw)))))
        if not rows:
            return _OUT_SCHEMA.empty_table()
        return _rows_to_table(rows)

    return ray.data.read_binary_files(files).map_batches(
        decode, batch_format="numpy")
