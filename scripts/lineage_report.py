"""Summarize the lineage manifests of a resumable run — the self-telemetry
roll-up (receiver obsreport / batch-processor counters analogue, SURVEY §2.7)
— and reconcile each manifest with the Parquet files it counts.

Usage: python scripts/lineage_report.py <out_dir>
Prints one JSON object: partitions, total rows, per-sink and per-severity
totals, any partitions missing a manifest (incomplete), and any partitions
whose manifest disagrees with the row counts in the footers of the files
under ``part=<id>/sink=*/`` (mismatched: total rows or any sink's rows;
footers only, no data is read). Exits 1 when a partition is mismatched.
"""

from __future__ import annotations

import glob
import json
import os
import sys

import pyarrow.parquet as pq

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from splunk_otel_collector_ray.state import manifest as mf  # noqa: E402


def footer_sink_rows(pdir: str) -> dict[str, int]:
    """Rows per sink of one partition dir, from the Parquet footers."""
    rows: dict[str, int] = {}
    for f in glob.glob(os.path.join(pdir, "sink=*", "*.parquet")):
        sink = os.path.basename(os.path.dirname(f))[len("sink="):]
        rows[sink] = rows.get(sink, 0) + pq.read_metadata(f).num_rows
    return rows


def report(out_dir: str) -> dict:
    parts = sorted(d for d in os.listdir(out_dir)
                   if d.startswith("part=") and
                   os.path.isdir(os.path.join(out_dir, d)))
    sinks: dict[str, int] = {}
    sevs: dict[str, int] = {}
    rows = 0
    complete, incomplete, mismatched = [], [], []
    for d in parts:
        m = mf.read_manifest(os.path.join(out_dir, d))
        if not m:
            incomplete.append(d)
            continue
        complete.append(d)
        rows += m.get("rows", 0)
        for k, v in m.get("sink_counts", {}).items():
            sinks[k] = sinks.get(k, 0) + v
        for k, v in m.get("severity_counts", {}).items():
            sevs[k] = sevs.get(k, 0) + v
        found = footer_sink_rows(os.path.join(out_dir, d))
        counted = {k: v for k, v in m.get("sink_counts", {}).items() if v}
        if sum(found.values()) != m.get("rows", 0) or found != counted:
            mismatched.append({
                "partition": d,
                "manifest_rows": m.get("rows", 0),
                "footer_rows": sum(found.values()),
                "manifest_sink_counts": dict(sorted(counted.items())),
                "footer_sink_counts": dict(sorted(found.items())),
            })
    return {
        "out_dir": out_dir,
        "partitions_complete": len(complete),
        "partitions_incomplete": incomplete,
        "partitions_mismatched": mismatched,
        "rows": rows,
        "sink_counts": dict(sorted(sinks.items())),
        "severity_counts": dict(sorted(sevs.items())),
    }


if __name__ == "__main__":
    r = report(sys.argv[1])
    print(json.dumps(r, indent=1))
    sys.exit(1 if r["partitions_mismatched"] else 0)
