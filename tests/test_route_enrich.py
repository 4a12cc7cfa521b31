"""Routing first-match semantics + enrichment broadcast-lookup semantics."""

import numpy as np
import pandas as pd
import pyarrow as pa

from splunk_otel_collector_ray.stages.enrich import EnrichStage, build_dim_table
from splunk_otel_collector_ray.stages.route import RouteStage


def _batch(rows):
    df = pd.DataFrame(rows)
    df["severity_number"] = df["severity_number"].astype(np.int8)
    return pa.Table.from_pandas(df, preserve_index=False)


def test_first_match_wins():
    # a record matching rules 1 AND 2 must land only in sink_tools
    t = _batch([
        {"conv_id": "conv-00000001", "role": "tool", "tool": "bash",
         "severity_number": 21, "log_format": "apache_error"},
        {"conv_id": "conv-00000002", "role": "assistant", "tool": "",
         "severity_number": 17, "log_format": "apache_error"},
        {"conv_id": "conv-00000003", "role": "assistant", "tool": "",
         "severity_number": 9, "log_format": "plain"},
        {"conv_id": "conv-00000004", "role": "user", "tool": "",
         "severity_number": 0, "log_format": "plain"},
        # role=='tool' but tool=='' → rule 1 does NOT match
        {"conv_id": "conv-00000005", "role": "tool", "tool": "",
         "severity_number": 0, "log_format": "plain"},
    ])
    out = RouteStage()(t).to_pandas()
    assert list(out.sink) == ["sink_tools", "sink_errors", "sink_assistant",
                              "sink_default", "sink_default"]


def test_empty_route_table_sends_every_row_to_default():
    """A config route table with no routes ({"type": "route", "routes":
    []}) is a valid stage: every row lands in the default sink."""
    from splunk_otel_collector_ray.config import _route

    t = _batch([
        {"conv_id": "conv-00000001", "role": "tool", "tool": "bash",
         "severity_number": 21, "log_format": "plain"},
        {"conv_id": "conv-00000002", "role": "user", "tool": "",
         "severity_number": 0, "log_format": "plain"},
    ])
    assert RouteStage(routes=[])(t)["sink"].to_pylist() == [
        "sink_default", "sink_default"]
    _, stage = _route({"type": "route", "routes": [],
                       "default_sink": "sink_all"})
    assert stage(t)["sink"].to_pylist() == ["sink_all", "sink_all"]
    assert stage(t.slice(0, 0)).schema.field("sink").type == pa.string()


def test_route_stage_sinks_list():
    rs = RouteStage()
    assert rs.sinks == ["sink_tools", "sink_errors", "sink_assistant",
                        "sink_default"]


def test_enrich_lookup_and_override():
    t = _batch([
        {"conv_id": "conv-00000000", "role": "user", "tool": "",
         "severity_number": 0, "log_format": "plain"},
        {"conv_id": "conv-00000065", "role": "user", "tool": "",
         "severity_number": 0, "log_format": "syslog"},
    ])
    # pre-existing host.name must be OVERRIDDEN (extraDimensions merge)
    t = t.append_column("host.name", pa.array(["stale", "stale"]))
    out = EnrichStage()(t).to_pandas()
    dims = build_dim_table()
    # conv 0 → bucket 0; conv 65 → bucket 1
    assert out["k8s.pod.name"].tolist() == ["pod-00", "pod-01"]
    assert out["host.name"].tolist() == [
        dims.loc[0, "host.name"], dims.loc[1, "host.name"]]
    assert (out["com.splunk.source"] == "transcripts").all()
    assert out["com.splunk.sourcetype"].tolist() == ["plain", "syslog"]


def test_enrich_null_conv_id_takes_null_dims():
    """A null conv_id has no bucket (the oracle's CAST(...) % 64 is NULL),
    so its dims are null; the other rows keep theirs."""
    t = _batch([
        {"conv_id": None, "role": "user", "tool": "",
         "severity_number": 0, "log_format": "plain"},
        {"conv_id": "conv-00000065", "role": "user", "tool": "",
         "severity_number": 0, "log_format": "syslog"},
    ])
    out = EnrichStage()(t)
    for c in EnrichStage.DIM_COLS:
        assert out[c][0].as_py() is None
    assert out["k8s.pod.name"].to_pylist() == [None, "pod-01"]
    assert out["com.splunk.source"].to_pylist() == ["transcripts"] * 2


def test_dim_table_deterministic():
    assert build_dim_table().equals(build_dim_table())


def test_enrich_join_variant_matches_broadcast(ray_session):
    """Shuffle-join enrichment (large-dim path) must produce the same dim
    values as the broadcast lookup, null conv_id rows (null dims) included."""
    import pyarrow.compute as pc
    import ray.data

    from splunk_otel_collector_ray import corpus
    from splunk_otel_collector_ray.stages.enrich import (
        EnrichStage,
        enrich_via_join,
    )

    t = corpus.build_transcripts("sf0.001").slice(0, 2000)
    t = t.append_column("log_format", pa.array(["plain"] * 2000))
    t = t.set_column(0, "conv_id", pc.if_else(
        pa.array(np.arange(2000) % 500 == 7), None, t["conv_id"]))
    cols = ["conv_id", "turn_idx", "k8s.pod.name", "k8s.namespace.name",
            "cloud.provider", "host.name"]
    joined = (
        enrich_via_join(ray.data.from_arrow(t))
        .to_pandas()[cols]
        .sort_values(["conv_id", "turn_idx"]).reset_index(drop=True)
    )
    broadcast = (
        EnrichStage()(t).to_pandas()[cols]
        .sort_values(["conv_id", "turn_idx"]).reset_index(drop=True)
    )
    assert joined.equals(broadcast)
