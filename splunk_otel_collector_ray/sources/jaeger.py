"""Jaeger api_v2 protobuf receiver — PostSpansRequest batches → span rows.

The reference registers the contrib ``jaegerreceiver``
(components.go:90), whose canonical wire is the public jaeger-idl
``model.proto`` (package ``jaeger.api_v2``): ``PostSpansRequest{ Batch{
spans, process } }`` with BYTES trace/span ids (16/8 bytes, big-endian),
``google.protobuf.Timestamp`` start times and ``Duration`` durations,
typed ``KeyValue`` tags and ``CHILD_OF`` references. The message tree is
declared at runtime with the public field numbers (cited below), like
``sources/otlp_pb.py``/``sources/sfx.py``; Timestamp/Duration are
declared locally with their well-known ``{seconds=1, nanos=2}`` shape —
wire-identical to the google.protobuf types.

Engine mapping: :func:`read_jaeger_dump` reads staged request bodies
(``batch-*.pb``, one PostSpansRequest per file — one gRPC message per
file) and decodes every span to a row: ids hex-encoded lowercase (the
jaeger UI convention), the CHILD_OF reference surfaced as ``parent_id``
(null on roots), ``span.kind`` and the corpus tag keys splat from the
typed KeyValue list, Batch.process.service_name carried per span.
"""

from __future__ import annotations

import glob
import os

import pyarrow as pa

from google.protobuf import descriptor_pb2, descriptor_pool, message_factory

from .wire import cols_to_table, pb_field as _field, write_blocks

JAEGER_SHARDS = 4

_PKG = "jaeger.api_v2"
_T = descriptor_pb2.FieldDescriptorProto


def _build_pool() -> descriptor_pool.DescriptorPool:
    pool = descriptor_pool.DescriptorPool()
    # jaeger-idl model.proto (public, package jaeger.api_v2):
    #   ValueType { STRING=0; BOOL=1; INT64=2; FLOAT64=3; BINARY=4; }
    #   KeyValue  { key=1; v_type=2; v_str=3; v_bool=4; v_int64=5;
    #               v_float64=6; v_binary=7; }
    #   SpanRefType { CHILD_OF=0; FOLLOWS_FROM=1; }
    #   SpanRef   { trace_id=1; span_id=2; ref_type=3; }
    #   Process   { service_name=1; tags=2; }
    #   Log       { timestamp=1; fields=2; }
    #   Span      { trace_id=1; span_id=2; operation_name=3;
    #               references=4; flags=5; start_time=6; duration=7;
    #               tags=8; logs=9; process=10; process_id=11;
    #               warnings=12; }
    #   Batch     { spans=1; process=2; }
    #   PostSpansRequest { batch=1; }
    # Timestamp/Duration: the well-known {seconds=1, nanos=2} shape,
    # declared in-package (wire-identical to google.protobuf.*).
    fd = descriptor_pb2.FileDescriptorProto(
        name="jaeger/model.proto", package=_PKG, syntax="proto3")
    for nm in ("Timestamp", "Duration"):
        m = fd.message_type.add(name=nm)
        m.field.extend([
            _field("seconds", 1, _T.TYPE_INT64),
            _field("nanos", 2, _T.TYPE_INT32),
        ])
    vt = fd.enum_type.add(name="ValueType")
    for nm, num in (("STRING", 0), ("BOOL", 1), ("INT64", 2),
                    ("FLOAT64", 3), ("BINARY", 4)):
        vt.value.add(name=nm, number=num)
    rt = fd.enum_type.add(name="SpanRefType")
    for nm, num in (("CHILD_OF", 0), ("FOLLOWS_FROM", 1)):
        rt.value.add(name=nm, number=num)
    kv = fd.message_type.add(name="KeyValue")
    kv.field.extend([
        _field("key", 1, _T.TYPE_STRING),
        _field("v_type", 2, _T.TYPE_ENUM, f".{_PKG}.ValueType"),
        _field("v_str", 3, _T.TYPE_STRING),
        _field("v_bool", 4, _T.TYPE_BOOL),
        _field("v_int64", 5, _T.TYPE_INT64),
        _field("v_float64", 6, _T.TYPE_DOUBLE),
        _field("v_binary", 7, _T.TYPE_BYTES),
    ])
    ref = fd.message_type.add(name="SpanRef")
    ref.field.extend([
        _field("trace_id", 1, _T.TYPE_BYTES),
        _field("span_id", 2, _T.TYPE_BYTES),
        _field("ref_type", 3, _T.TYPE_ENUM, f".{_PKG}.SpanRefType"),
    ])
    proc = fd.message_type.add(name="Process")
    proc.field.extend([
        _field("service_name", 1, _T.TYPE_STRING),
        _field("tags", 2, _T.TYPE_MESSAGE, f".{_PKG}.KeyValue",
               repeated=True),
    ])
    log = fd.message_type.add(name="Log")
    log.field.extend([
        _field("timestamp", 1, _T.TYPE_MESSAGE, f".{_PKG}.Timestamp"),
        _field("fields", 2, _T.TYPE_MESSAGE, f".{_PKG}.KeyValue",
               repeated=True),
    ])
    sp = fd.message_type.add(name="Span")
    sp.field.extend([
        _field("trace_id", 1, _T.TYPE_BYTES),
        _field("span_id", 2, _T.TYPE_BYTES),
        _field("operation_name", 3, _T.TYPE_STRING),
        _field("references", 4, _T.TYPE_MESSAGE, f".{_PKG}.SpanRef",
               repeated=True),
        _field("flags", 5, _T.TYPE_UINT32),
        _field("start_time", 6, _T.TYPE_MESSAGE, f".{_PKG}.Timestamp"),
        _field("duration", 7, _T.TYPE_MESSAGE, f".{_PKG}.Duration"),
        _field("tags", 8, _T.TYPE_MESSAGE, f".{_PKG}.KeyValue",
               repeated=True),
        _field("logs", 9, _T.TYPE_MESSAGE, f".{_PKG}.Log", repeated=True),
        _field("process", 10, _T.TYPE_MESSAGE, f".{_PKG}.Process"),
        _field("process_id", 11, _T.TYPE_STRING),
        _field("warnings", 12, _T.TYPE_STRING, repeated=True),
    ])
    batch = fd.message_type.add(name="Batch")
    batch.field.extend([
        _field("spans", 1, _T.TYPE_MESSAGE, f".{_PKG}.Span",
               repeated=True),
        _field("process", 2, _T.TYPE_MESSAGE, f".{_PKG}.Process"),
    ])
    req = fd.message_type.add(name="PostSpansRequest")
    req.field.append(_field("batch", 1, _T.TYPE_MESSAGE,
                            f".{_PKG}.Batch"))
    pool.Add(fd)
    return pool


_POOL = _build_pool()
PostSpansRequest = message_factory.GetMessageClass(
    _POOL.FindMessageTypeByName(f"{_PKG}.PostSpansRequest"))

TAG_KEYS = ("conv_id", "turn_idx")
_OUT_SCHEMA = pa.schema([
    ("trace_id", pa.string()),
    ("span_id", pa.string()),
    ("parent_id", pa.string()),
    ("operation", pa.string()),
    ("span_kind", pa.string()),
    ("service", pa.string()),
    ("ts", pa.timestamp("us")),
    ("duration_us", pa.int64()),
] + [(k, pa.string()) for k in TAG_KEYS])


def encode_batch(service: "str | None", spans: "list[dict]") -> bytes:
    """Span dicts (the decode row shape, hex ids) → one serialized
    PostSpansRequest with a Batch-level Process (the batch-common
    service, as the jaeger agent emits it). ``service=None`` emits no
    Process — the shape the reader maps back to null services."""
    req = PostSpansRequest()
    if service is not None:
        req.batch.process.service_name = service
    for r in spans:
        sp = req.batch.spans.add()
        sp.trace_id = bytes.fromhex(r["trace_id"])
        sp.span_id = bytes.fromhex(r["span_id"])
        sp.operation_name = r["operation"]
        if r.get("parent_id") is not None:
            ref = sp.references.add()
            ref.trace_id = bytes.fromhex(r["trace_id"])
            ref.span_id = bytes.fromhex(r["parent_id"])
            ref.ref_type = 0  # CHILD_OF
        us = int(r["ts_us"])
        sp.start_time.seconds = us // 1_000_000
        sp.start_time.nanos = (us % 1_000_000) * 1000
        d = int(r["duration_us"])
        sp.duration.seconds = d // 1_000_000
        sp.duration.nanos = (d % 1_000_000) * 1000
        if r.get("span_kind") is not None:
            kv = sp.tags.add()
            kv.key = "span.kind"
            kv.v_type = 0
            kv.v_str = r["span_kind"]
        for k in TAG_KEYS:
            if r.get(k) is not None:
                kv = sp.tags.add()
                kv.key = k
                kv.v_type = 0
                kv.v_str = r[k]
    return req.SerializeToString()


def decode_batch(data: bytes, cols: "dict[str, list]") -> None:
    """One request body → column lists (direct field walk — the codec
    edge, like the OTLP/sfx decoders). String tags splat by key;
    CHILD_OF reference → parent_id; Span.process overrides the
    batch-level Process when present (the model's precedence)."""
    req = PostSpansRequest()
    req.ParseFromString(data)
    batch_svc = (req.batch.process.service_name
                 if req.batch.HasField("process") else None)
    for sp in req.batch.spans:
        cols["trace_id"].append(sp.trace_id.hex())
        cols["span_id"].append(sp.span_id.hex())
        parent = None
        for ref in sp.references:
            if ref.ref_type == 0:  # CHILD_OF
                parent = ref.span_id.hex()
                break
        cols["parent_id"].append(parent)
        cols["operation"].append(sp.operation_name)
        svc = (sp.process.service_name if sp.HasField("process")
               else batch_svc)
        cols["service"].append(svc)
        cols["ts"].append(
            sp.start_time.seconds * 1_000_000
            + sp.start_time.nanos // 1000)
        cols["duration_us"].append(
            sp.duration.seconds * 1_000_000 + sp.duration.nanos // 1000)
        tags = {kv.key: kv.v_str for kv in sp.tags if kv.v_type == 0}
        cols["span_kind"].append(tags.get("span.kind"))
        for k in TAG_KEYS:
            cols[k].append(tags.get(k))


def _cols_to_table(cols: "dict[str, list]") -> pa.Table:
    return cols_to_table(_OUT_SCHEMA, cols)


def read_jaeger_dump(staging_dir: str) -> "ray.data.Dataset":
    """Receiver analogue: staged ``batch-*.pb`` PostSpansRequest bodies
    → one row per span (engine schema above)."""
    import ray.data

    files = sorted(glob.glob(os.path.join(staging_dir, "batch-*.pb")))
    if not files:
        raise FileNotFoundError(
            f"no batch-*.pb request files under {staging_dir!r} — empty "
            "or mistyped staging dir")

    def decode(batch: dict) -> pa.Table:
        cols: dict[str, list] = {f.name: [] for f in _OUT_SCHEMA}
        for raw in batch["bytes"]:
            decode_batch(bytes(raw), cols)
        return _cols_to_table(cols)

    return ray.data.read_binary_files(files).map_batches(
        decode, batch_format="numpy")


def _encode_block(t: pa.Table) -> "list[bytes]":
    """One block → one PostSpansRequest PER SERVICE (Batch.process is
    batch-common — a mixed-service block must split)."""
    d = t.to_pydict()
    ts_us = t["ts"].cast(pa.int64()).to_pylist() if t.num_rows else []
    by_svc: dict[str, list] = {}
    for i in range(t.num_rows):
        by_svc.setdefault(d["service"][i], []).append({
            "trace_id": d["trace_id"][i],
            "span_id": d["span_id"][i],
            "parent_id": d["parent_id"][i],
            "operation": d["operation"][i],
            "span_kind": d["span_kind"][i],
            "ts_us": ts_us[i],
            "duration_us": d["duration_us"][i],
            **{k: d[k][i] for k in TAG_KEYS},
        })
    # None-service groups (a request with no Batch.process) sort first
    # under a stable key — the writer must accept every shape its own
    # reader produces
    return [encode_batch(svc, rows) for svc, rows in sorted(
        by_svc.items(), key=lambda kv: (kv[0] is not None, kv[0] or ""))]


def write_jaeger_dump(ds: "ray.data.Dataset", out_dir: str) -> int:
    """Exporter analogue (the jaeger agent/client side): ``batch-<sha1>
    .pb`` request files, one per service per block (retry-idempotent
    content-hash names, see ``wire.write_blocks``). Input is the engine
    schema :func:`read_jaeger_dump` emits."""
    return write_blocks(ds, out_dir, "batch-{}.pb", _encode_block)
