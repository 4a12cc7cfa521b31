"""Two-tier agent → gateway topology — the reference's deployment shape.

The collector ships as an agent tier (per-host parse/enrich, forwarding over
OTLP) feeding a gateway tier (routing + heavy export):
/root/reference/cmd/otelcol/config/collector/agent_config.yaml:188-193,230-237
(agent exports otlp → gateway) and gateway_config.yaml:163-221 (gateway owns
the routing connector and the per-index exporters).

Batch analogue: tier 1 writes the parsed+enriched stream as an INTERMEDIATE
staging area — either Parquet (the fast columnar surrogate, SURVEY §2.1
"otlp → staged intermediate tables") or REAL OTLP/JSON
(``transport="otlp"``, r3 VERDICT item 5: ExportLogsServiceRequest objects
in the protobuf-JSON mapping, sources/otlp.py) — and tier 2 reads it back,
routes, and exports per sink. The tier boundary is where a real deployment
scales the tiers independently (N agent nodes, M gateway nodes) and where
the loadbalancing exporter's hash key applies (the intermediate layout is
conv-partitioned part files, so gateway tasks consume agent outputs without
a shuffle).
"""

from __future__ import annotations

import os
import time
from typing import Any

import ray
import ray.data

from ..stages.enrich import build_dim_table, make_enrich_fn
from ..stages.parse import ParseStage
from ..stages.route import RouteStage
from .logs import _export_counts, flagship_num_blocks, read_transcripts


def run_agent_tier(sf_dir: str, staging_dir: str,
                   transport: str = "parquet") -> str:
    """Tier 1: read → parse → enrich → stage (Parquet or real OTLP/JSON).

    Read granularity is footer-derived like the flagship's — the fused
    parse/enrich chain inherits its task structure from the read blocks
    (don't let it be an accident at either scale extreme)."""
    ds = read_transcripts(sf_dir, parallelism=flagship_num_blocks(sf_dir))
    dims_ref = ray.put(build_dim_table())
    ds = ds.map_batches(ParseStage.as_fn(), batch_format="pyarrow")
    ds = ds.map_batches(make_enrich_fn(dims_ref), batch_format="pyarrow")
    if transport == "otlp":
        from ..sources.otlp import write_otlp_logs

        write_otlp_logs(ds, staging_dir)
    elif transport == "otlp_pb":
        from ..sources.otlp_pb import write_otlp_logs_pb

        write_otlp_logs_pb(ds, staging_dir)
    else:
        ds.write_parquet(staging_dir)
    return staging_dir


def run_gateway_tier(staging_dir: str, out_dir: str,
                     transport: str = "parquet") -> dict[str, Any]:
    """Tier 2: read staging → route → per-sink export + aggregates.

    The staging area is already column-pruned (the agent tier wrote
    exactly the parse/enrich output the gateway consumes), so the read
    carries no projection of its own."""
    if transport == "otlp":
        from ..sources.otlp import read_otlp_logs

        ds = read_otlp_logs(staging_dir)
    elif transport == "otlp_pb":
        from ..sources.otlp_pb import read_otlp_logs_pb

        ds = read_otlp_logs_pb(staging_dir)
    else:
        ds = ray.data.read_parquet(staging_dir)
    ds = ds.map_batches(RouteStage(), batch_format="pyarrow")
    routed_dir = os.path.join(out_dir, "by_sink")
    os.makedirs(routed_dir, exist_ok=True)
    agg = _export_counts(ds, routed_dir)  # run_flagship's export tail
    return {
        "rows": int(agg["n"].sum()),
        "sink_counts": agg.groupby("sink")["n"].sum().astype(int).to_dict(),
        "routed_dir": routed_dir,
    }


def run_two_tier(sf_dir: str, work_dir: str,
                 transport: str = "parquet") -> dict[str, Any]:
    """Full agent→gateway run; returns gateway summary + per-tier seconds."""
    staging = os.path.join(work_dir, "staging")
    t0 = time.time()
    run_agent_tier(sf_dir, staging, transport)
    t_agent = time.time() - t0
    t0 = time.time()
    out = run_gateway_tier(staging, os.path.join(work_dir, "gateway"),
                           transport)
    out["sec_agent"] = round(t_agent, 3)
    out["sec_gateway"] = round(time.time() - t0, 3)
    return out
