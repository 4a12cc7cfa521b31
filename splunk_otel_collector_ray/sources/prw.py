"""Prometheus remote-write wire: snappy-compressed protobuf WriteRequest.

The reference ships a prometheusremotewrite exporter and the
signalfxgatewayprometheusremotewrite receiver
(internal/components/components.go; the receiver's
prometheus_to_otel.go mapping is already ported in stages/metrics.py) —
this module adds the actual WIRE format: the public prometheus
remote.proto / types.proto message tree (WriteRequest.timeseries=1;
TimeSeries{labels=1, samples=2}; Label{name=1, value=2};
Sample{value=1 double, timestamp=2 int64 ms}), declared at runtime on the
official protobuf runtime like sources/otlp_pb.py, compressed with RAW
snappy blocks (the PRW content-encoding) via pyarrow's snappy codec. Each
staged file is ``uvarint-free``: an 8-byte little-endian uncompressed
length prefix + the snappy body (pyarrow's decompressor needs the size
up front; the snappy payload itself is wire-spec).

Metric naming follows the receiver's convention: the ``__name__`` label
carries the metric name; remaining labels are dimensions.
"""

from __future__ import annotations

import glob
import os
import struct

import pyarrow as pa
from google.protobuf import descriptor_pb2, descriptor_pool, message_factory

_PKG = "prometheus"
_T = descriptor_pb2.FieldDescriptorProto


def _field(name, number, ftype, type_name=None, repeated=False):
    f = descriptor_pb2.FieldDescriptorProto(
        name=name, number=number, type=ftype,
        label=(_T.LABEL_REPEATED if repeated else _T.LABEL_OPTIONAL))
    if type_name:
        f.type_name = type_name
    return f


def _build_pool():
    pool = descriptor_pool.DescriptorPool()
    fd = descriptor_pb2.FileDescriptorProto(
        name="prw/remote.proto", package=_PKG, syntax="proto3")
    # types.proto: Label{name=1,value=2}; Sample{value=1,timestamp=2};
    # TimeSeries{labels=1,samples=2}. remote.proto: WriteRequest{timeseries=1}
    lab = fd.message_type.add(name="Label")
    lab.field.extend([_field("name", 1, _T.TYPE_STRING),
                      _field("value", 2, _T.TYPE_STRING)])
    smp = fd.message_type.add(name="Sample")
    smp.field.extend([_field("value", 1, _T.TYPE_DOUBLE),
                      _field("timestamp", 2, _T.TYPE_INT64)])
    ts = fd.message_type.add(name="TimeSeries")
    ts.field.extend([
        _field("labels", 1, _T.TYPE_MESSAGE, f".{_PKG}.Label",
               repeated=True),
        _field("samples", 2, _T.TYPE_MESSAGE, f".{_PKG}.Sample",
               repeated=True),
    ])
    req = fd.message_type.add(name="WriteRequest")
    req.field.append(_field("timeseries", 1, _T.TYPE_MESSAGE,
                            f".{_PKG}.TimeSeries", repeated=True))
    pool.Add(fd)
    return pool


_POOL = _build_pool()
WriteRequest = message_factory.GetMessageClass(
    _POOL.FindMessageTypeByName(f"{_PKG}.WriteRequest"))


def encode_write_request(t: pa.Table, name_col: str = "name",
                         value_col: str = "value", ts_col: str = "ts_ms",
                         label_cols: tuple[str, ...] = ()) -> bytes:
    """Batch of datapoint rows → serialized WriteRequest: one TimeSeries
    per distinct (name, labels) identity, samples in row order."""
    msg = WriteRequest()
    names = t[name_col].to_pylist()
    values = t[value_col].to_numpy(zero_copy_only=False)
    tss = t[ts_col].to_numpy(zero_copy_only=False)
    labels = {c: t[c].to_pylist() for c in label_cols}
    series: dict[tuple, object] = {}
    for i in range(t.num_rows):
        key = (names[i], *(labels[c][i] for c in label_cols))
        s = series.get(key)
        if s is None:
            s = msg.timeseries.add()
            s.labels.add(name="__name__", value=names[i])
            for c in label_cols:
                s.labels.add(name=c, value=str(labels[c][i]))
            series[key] = s
        s.samples.add(value=float(values[i]), timestamp=int(tss[i]))
    return msg.SerializeToString()


def decode_write_request(data: bytes) -> pa.Table:
    """Serialized WriteRequest → flat datapoint rows (name, labels map,
    value, ts_ms)."""
    msg = WriteRequest()
    msg.ParseFromString(data)
    names, labels, values, tss = [], [], [], []
    for s in msg.timeseries:
        lab = {l.name: l.value for l in s.labels}
        name = lab.pop("__name__", "")
        items = sorted(lab.items())
        for smp in s.samples:
            names.append(name)
            labels.append(items)
            values.append(smp.value)
            tss.append(smp.timestamp)
    return pa.table({
        "name": pa.array(names, type=pa.string()),
        "labels": pa.array(labels, type=pa.map_(pa.string(), pa.string())),
        "value": pa.array(values, type=pa.float64()),
        "ts_ms": pa.array(tss, type=pa.int64()),
    })


def _snappy() -> "pa.Codec":
    return pa.Codec("snappy")


def write_prw(ds: "ray.data.Dataset", out_dir: str, **encode_kw) -> int:
    """PRW exporter: one snappy-compressed WriteRequest per block
    (8-byte LE uncompressed-length prefix + raw snappy body),
    content-hash filenames (retry-idempotent; requires the staged stream
    to carry unique record identities per block, or two byte-identical
    blocks would collapse to one file — see ``wire.write_blocks``)."""
    from .wire import write_blocks

    def encode(t: pa.Table) -> "list[bytes]":
        raw = encode_write_request(t, **encode_kw)
        return [struct.pack("<Q", len(raw)) + bytes(_snappy().compress(raw))]

    return write_blocks(ds, out_dir, "wr-{}.pb", encode)


def read_prw(staging_dir: str) -> "ray.data.Dataset":
    """PRW receiver: WriteRequest files → flat datapoint Dataset."""
    import ray.data

    files = sorted(glob.glob(os.path.join(staging_dir, "wr-*.pb")))

    def decode(batch: dict) -> pa.Table:
        tables = []
        for raw in batch["bytes"]:
            raw = bytes(raw)
            (size,) = struct.unpack("<Q", raw[:8])
            data = bytes(_snappy().decompress(raw[8:], size))
            tables.append(decode_write_request(data))
        return pa.concat_tables(tables) if tables else decode_write_request(
            WriteRequest().SerializeToString())

    return ray.data.read_binary_files(files).map_batches(
        decode, batch_format="numpy")
