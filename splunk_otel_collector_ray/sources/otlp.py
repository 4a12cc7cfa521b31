"""OTLP/JSON logs transport — the real wire format of the agent→gateway hop.

The reference's agent tier exports OTLP to the gateway
(cmd/otelcol/config/collector/agent_config.yaml:188-193,230-237); this module
serializes the parsed+enriched stream as ``ExportLogsServiceRequest`` objects
in the protobuf-JSON mapping published by OpenTelemetry (one request per
block, JSON-lines on disk — the batch analogue of one request per POST):

    {"resourceLogs": [{"resource": {"attributes": [..]},
                       "scopeLogs": [{"scope": {"name": ..},
                                      "logRecords": [..]}]}]}

Field mapping follows the spec: ``timeUnixNano``/``observedTimeUnixNano``
are decimal STRINGS (proto3 JSON uint64), ``severityNumber`` a JSON number,
``body`` an AnyValue (``{"stringValue": ..}``), int attributes
``{"intValue": "<str>"}``, and proto3 DEFAULTS ARE OMITTED on the wire
(severityNumber 0, empty severityText/tool/…), exactly like the Go
exporter's pdata marshaling. Decode restores the engine's column schema —
promoted well-known attributes (conv_id, turn_idx, role, tool, log_format,
span_id) come back as columns, every other record attribute lands in the
``attributes`` map, mirroring how the collector's receivers promote
well-known fields.

Wire-codec note: encode/decode loop per record — this is the ONE place
per-record Python is accepted (documented wire edge, like the fluent
msgpack receiver); the stream only crosses it at the tier boundary.
"""

from __future__ import annotations

import json

import numpy as np
import pyarrow as pa

SCOPE_NAME = "splunk_otel_collector_ray"

RESOURCE_COLS = ("k8s.pod.name", "k8s.namespace.name", "cloud.provider",
                 "host.name", "com.splunk.source", "com.splunk.sourcetype")
# promoted record attributes (well-known keys → columns on decode)
RECORD_ATTR_COLS = ("conv_id", "turn_idx", "role", "tool", "log_format",
                    "span_id")
_INT_ATTRS = {"turn_idx"}


def _attr(key: str, value) -> dict:
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return {"key": key, "value": {"intValue": str(int(value))}}
    return {"key": key, "value": {"stringValue": str(value)}}


def encode_logs_request(t: pa.Table) -> dict:
    """One block → one ExportLogsServiceRequest dict (records grouped under
    their resource identity, like the exporter's pdata batching)."""
    cols = {name: t[name].to_pylist() for name in t.column_names
            if name not in ("ts", "observed_ts")}
    ts_us = t["ts"].cast(pa.int64()).to_pylist()
    obs_us = t["observed_ts"].cast(pa.int64()).to_pylist()
    groups: dict[tuple, list] = {}
    for i in range(t.num_rows):
        rec: dict = {}
        # truthiness (not `is not None`): time_unix_nano == 0 means UNSET
        # on the OTLP wire (proto3 default, dropped by binary
        # serialization) — the zero-ts-passthrough semantic
        if ts_us[i]:
            rec["timeUnixNano"] = str(ts_us[i] * 1000)
        if obs_us[i]:
            rec["observedTimeUnixNano"] = str(obs_us[i] * 1000)
        sevno = cols["severity_number"][i]
        if sevno:  # proto3 default 0 omitted
            rec["severityNumber"] = int(sevno)
        if cols["severity_text"][i]:
            rec["severityText"] = cols["severity_text"][i]
        if cols["body"][i] is not None:
            rec["body"] = {"stringValue": cols["body"][i]}
        attrs = []
        for c in RECORD_ATTR_COLS:
            v = cols[c][i]
            if v is None or v == "":
                continue
            attrs.append(_attr(c, v))
        for k, v in (cols["attributes"][i] or []):
            attrs.append(_attr(k, v))
        if attrs:
            rec["attributes"] = attrs
        rkey = tuple(cols[c][i] for c in RESOURCE_COLS)
        groups.setdefault(rkey, []).append(rec)
    resource_logs = []
    for rkey, recs in groups.items():
        resource_logs.append({
            "resource": {"attributes": [
                _attr(c, v) for c, v in zip(RESOURCE_COLS, rkey)
                if v is not None and v != ""]},
            "scopeLogs": [{"scope": {"name": SCOPE_NAME},
                           "logRecords": recs}],
        })
    return {"resourceLogs": resource_logs}


def _attr_value(v: dict):
    if "intValue" in v:
        return int(v["intValue"])
    if "stringValue" in v:
        return v["stringValue"]
    if "doubleValue" in v:
        return float(v["doubleValue"])
    if "boolValue" in v:
        return bool(v["boolValue"])
    if not v:  # proto3 drops defaults on the wire: empty AnyValue = ""
        return ""
    raise ValueError(f"unsupported AnyValue {v}")


_OUT_SCHEMA = pa.schema([
    ("conv_id", pa.string()), ("turn_idx", pa.int32()),
    ("role", pa.string()), ("tool", pa.string()),
    ("ts", pa.timestamp("us")), ("observed_ts", pa.timestamp("us")),
    ("log_format", pa.string()), ("body", pa.string()),
    ("severity_text", pa.string()), ("severity_number", pa.int8()),
    ("attributes", pa.map_(pa.string(), pa.string())),
    ("span_id", pa.string()),
    *[(c, pa.string()) for c in RESOURCE_COLS],
])


def decode_logs_request(req: dict) -> "list[dict]":
    """ExportLogsServiceRequest dict → engine-schema row dicts."""
    rows = []
    for rl in req.get("resourceLogs", []):
        res = {a["key"]: _attr_value(a.get("value", {}))
               for a in rl.get("resource", {}).get("attributes", [])}
        for sl in rl.get("scopeLogs", []):
            for rec in sl.get("logRecords", []):
                attrs = {a["key"]: _attr_value(a.get("value", {}))
                         for a in rec.get("attributes", [])}
                promoted = {c: attrs.pop(c, "" if c not in _INT_ATTRS else 0)
                            for c in RECORD_ATTR_COLS}
                row = {
                    "conv_id": promoted["conv_id"],
                    # "or 0": an intValue of 0 is a proto3 default — binary
                    # serialization drops it and it decodes as empty
                    "turn_idx": int(promoted["turn_idx"] or 0),
                    "role": promoted["role"],
                    "tool": promoted["tool"],
                    "ts": (int(rec["timeUnixNano"]) // 1000
                           if "timeUnixNano" in rec else None),
                    "observed_ts": (int(rec["observedTimeUnixNano"]) // 1000
                                    if "observedTimeUnixNano" in rec
                                    else None),
                    "log_format": promoted["log_format"],
                    # _attr_value handles the empty-AnyValue case (binary
                    # serialization drops string_value="" but keeps the
                    # body submessage's presence)
                    "body": (_attr_value(rec["body"])
                             if "body" in rec else None),
                    "severity_text": rec.get("severityText", ""),
                    "severity_number": int(rec.get("severityNumber", 0)),
                    "attributes": [(k, str(v)) for k, v in attrs.items()],
                    "span_id": promoted["span_id"],
                }
                for c in RESOURCE_COLS:
                    row[c] = res.get(c, "")
                rows.append(row)
    return rows


def _rows_to_table(rows: list[dict]) -> pa.Table:
    cols = {}
    for f in _OUT_SCHEMA:
        vals = [r[f.name] for r in rows]
        cols[f.name] = pa.array(vals, type=f.type)
    return pa.table(cols)


def encode_block(t: pa.Table) -> "list[bytes]":
    """One block → its one compact OTLP-JSON request body."""
    return [json.dumps(encode_logs_request(t),
                       separators=(",", ":")).encode()]


def write_otlp_logs(ds: "ray.data.Dataset", out_dir: str) -> int:
    """Agent-tier exporter: one OTLP-JSON request file per block
    (``req-<sha1>.json``, ``wire.write_blocks``: content-hash names make
    a retried block rewrite its own file — the sending_queue/retry
    discipline of the export path). Returns the record count."""
    from .wire import write_blocks

    return write_blocks(ds, out_dir, "req-{}.json", encode_block)


def read_otlp_logs(staging_dir: str) -> "ray.data.Dataset":
    """Gateway-tier receiver: request files → engine-schema Dataset."""
    import ray.data

    def decode(t: pa.Table) -> pa.Table:
        rows = []
        for line in t["text"].to_pylist():
            rows.extend(decode_logs_request(json.loads(line)))
        if not rows:
            return _OUT_SCHEMA.empty_table()
        return _rows_to_table(rows)

    return ray.data.read_text(
        staging_dir, file_extensions=["json"]).map_batches(
        decode, batch_format="pyarrow")
