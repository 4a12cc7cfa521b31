"""Unit tests: metric-path operators, HEC projection, multiline framing,
config-driven pipeline assembly."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from splunk_otel_collector_ray.config import available_stages, build_pipeline
from splunk_otel_collector_ray.stages.hec import HecProjection
from splunk_otel_collector_ray.stages.metrics import (
    MetricRenameChain,
    histogram_bucket_deltas,
    parse_prometheus_text,
    parse_wavefront_text,
    rename_dimensions,
)
from splunk_otel_collector_ray.stages.recombine import (
    split_multiline,
    stitch_records,
)


def test_parse_prometheus_text_golden():
    blob = "\n".join([
        "# HELP http_requests_total Total requests.",
        "# TYPE http_requests_total counter",
        'http_requests_total{code="200"} 1027',
        'http_requests_total{code="500"} 3',
        "# TYPE process_cpu gauge",
        "process_cpu 0.75",
        "# TYPE latency histogram",
        'latency_bucket{le="0.1"} 10',
        'latency_bucket{le="+Inf"} 25',
        "latency_sum 40.5",
        "latency_count 25",
    ])
    out = parse_prometheus_text(pa.table({"text": [blob]})).to_pandas()
    assert len(out) == 7
    assert out.name.tolist() == [
        "http_requests_total", "http_requests_total", "process_cpu",
        "latency_bucket", "latency_bucket", "latency_sum", "latency_count"]
    assert out.type.tolist() == [
        "counter", "counter", "gauge", "histogram", "histogram",
        "histogram", "histogram"]
    assert out.value.tolist() == [1027.0, 3.0, 0.75, 10.0, 25.0, 40.5, 25.0]
    assert out.labels[0] == 'code="200"'


def test_histogram_bucket_deltas():
    # cumulative le-counts → per-bucket (scraper.go:218-235)
    assert histogram_bucket_deltas([10, 25, 25, 40]).tolist() == [10, 15, 0, 15]


def test_metric_rename_chain_with_backrefs():
    chain = MetricRenameChain([
        (r"^cpu\.(.*)$", r"system.cpu.\1"),
        (r"\.pct$", ".percent"),
    ])
    t = pa.table({"name": ["cpu.idle.pct", "mem.free"]})
    assert chain(t).to_pandas().name.tolist() == [
        "system.cpu.idle.percent", "mem.free"]


def test_rename_dimensions_delete_on_empty():
    t = pa.table({"a": [1], "b": [2], "c": [3]})
    out = rename_dimensions(t, {"a": "x", "b": ""})  # "" deletes (monitor.go:117-122)
    assert sorted(out.column_names) == ["c", "x"]


def test_hec_projection():
    t = pa.table({
        "ts": pa.array([pd.Timestamp("2026-01-01 00:00:01.500000")],
                       type=pa.timestamp("us")),
        "host.name": ["h1"], "com.splunk.source": ["transcripts"],
        "com.splunk.sourcetype": ["syslog"], "sink": ["sink_errors"],
        "body": ["boom"], "conv_id": ["conv-00000001"],
        "turn_idx": pa.array([0], type=pa.int32()),
    })
    out = HecProjection()(t).to_pandas()
    assert out.columns.tolist() == [
        "time", "host", "source", "sourcetype", "index", "event",
        "conv_id", "turn_idx"]
    assert out.index[0] == 0
    assert out["index"][0] == "errors"
    assert out.time[0] == pytest.approx(1767225601.5)
    assert out.event[0] == "boom"


def test_split_multiline():
    text = ("INFO  [main] 1 first line\n  continuation\n"
            "WARN  [gc] 2 second record\n")
    recs = split_multiline(text, r"^[A-Z]+\s+\[[\w:]+\]\s\d")
    assert len(recs) == 2
    assert recs[0].startswith("INFO") and "continuation" in recs[0]
    assert recs[1].startswith("WARN")
    # leading garbage before the first match forms its own record
    recs2 = split_multiline("garbage\n" + text, r"^[A-Z]+\s+\[[\w:]+\]\s\d")
    assert len(recs2) == 3 and recs2[0] == "garbage\n"


def test_multiline_frame_dataset(ray_session):
    import ray.data

    from splunk_otel_collector_ray.stages.recombine import multiline_frame

    t = pa.table({
        "conv_id": ["a", "a", "a", "a", "b", "b"],
        "turn_idx": pa.array([0, 1, 2, 3, 0, 1], type=pa.int32()),
        "body": ["# Time: t1", "SELECT 1;", "# Time: t2", "SELECT 2;",
                 "stray leading line", "# Time: t3"],
    })
    out = multiline_frame(ray.data.from_arrow(t), r"^# Time: ").to_pandas()
    out = out.sort_values(["conv_id", "record_id"]).reset_index(drop=True)
    assert out.body.tolist() == [
        "# Time: t1\nSELECT 1;", "# Time: t2\nSELECT 2;",
        "stray leading line", "# Time: t3"]
    # leading lines before the first anchor form record 0
    assert out.record_id.tolist() == [1, 2, 0, 1]
    assert out.n_lines.tolist() == [2, 2, 1, 1]
    # an empty start pattern matches every line: one record per line
    every = multiline_frame(ray.data.from_arrow(t), "").to_pandas()
    assert len(every) == t.num_rows and set(every.n_lines) == {1}


def test_stitch_frame_vectorized():
    g = pa.table({
        "conv_id": ["a", "a", "a", "b", "b"],
        "turn_idx": [0, 1, 2, 0, 1],
        "body": ["x", "y\n", "z\n", "p", "q"],  # conv b never completes
    })
    out = stitch_records(g).to_pandas()
    assert out.body.tolist() == ["xy\n", "z\n", "pq"]
    assert out.n_fragments.tolist() == [2, 1, 2]
    assert out.is_complete.tolist() == [True, True, False]
    assert out.record_id.tolist() == [0, 1, 0]


def test_config_registry_and_unknown_stage(ray_session):
    assert {"parse", "enrich", "route", "truncate", "redact", "sample",
            "hec"} <= set(available_stages())
    with pytest.raises(ValueError, match="unknown stage"):
        build_pipeline({"source": {"transcripts": "/root/testdata/sf0.001"},
                        "stages": [{"type": "nope"}]})


def test_config_pipeline_runs(ray_session):
    ds = build_pipeline({
        "source": {"transcripts": "/root/testdata/sf0.001"},
        "stages": [{"type": "parse"}, {"type": "enrich"}, {"type": "route"},
                   {"type": "hec"}],
    })
    df = ds.to_pandas()
    assert len(df) == 10_000
    assert set(df["index"].unique()) <= {"tools", "errors", "assistant", "main"}


def test_prometheus_error_counters(ray_session):
    import ray.data

    from splunk_otel_collector_ray.stages.metrics import (
        prometheus_error_counters,
    )

    blobs = [
        "good_metric 1\nbad line without value\nnan_metric NaN",
        "# comment only\nanother_good 2.5",
        "}{garbage",
    ]
    out = prometheus_error_counters(
        ray.data.from_arrow(pa.table({"text": blobs}))).to_pandas()
    row = out.iloc[0]
    assert (row.total_samples, row.malformed_lines, row.nan_samples) == (3, 2, 1)


def test_prometheus_exporter_conversion(ray_session):
    """The exporter-monitor wrapper (conversion.go): summary/histogram
    renames, 6-digit quantile/upper_bound dims with +Inf verbatim,
    le/quantile stripped from the label dims, and the default-metric
    allowlist when sendAll is off."""
    from splunk_otel_collector_ray.stages.metrics import (
        parse_prometheus_text, prometheus_exporter_datapoints)

    text = "\n".join([
        "# TYPE ops_total counter", 'ops_total{db="0"} 7',
        "# TYPE conns gauge", "conns 3",
        "plain_untyped 9",
        "# TYPE rt summary",
        'rt{q="x",quantile="0.95"} 1.5', "rt_sum 12", "rt_count 4",
        "# TYPE lat histogram",
        'lat_bucket{le="0.5"} 2', 'lat_bucket{le="+Inf"} 5',
        "lat_sum 2.5", "lat_count 5",
    ])
    parsed = parse_prometheus_text(pa.table({"text": [text]}))
    out = prometheus_exporter_datapoints(parsed, send_all=True).to_pandas()
    by = out.set_index(["metric", "quantile", "upper_bound"])
    assert by.loc[("ops_total", "", "")]["mtype"] == "cumulative"
    assert by.loc[("conns", "", "")]["mtype"] == "gauge"
    assert by.loc[("plain_untyped", "", "")]["mtype"] == "gauge"
    q = by.loc[("rt_quantile", "0.950000", "")]
    assert q["mtype"] == "gauge" and q["value"] == 1.5
    assert q["labels"] == 'q="x"'  # quantile stripped from label dims
    assert by.loc[("rt", "", "")]["value"] == 12  # _sum keeps family name
    assert by.loc[("rt_count", "", "")]["mtype"] == "cumulative"
    assert by.loc[("lat_bucket", "", "0.500000")]["value"] == 2
    inf = by.loc[("lat_bucket", "", "+Inf")]
    assert inf["value"] == 5 and inf["labels"] == ""
    # allowlist: only converted names in include survive
    kept = prometheus_exporter_datapoints(
        parsed, include={"ops_total", "rt_quantile"}).to_pandas()
    assert set(kept["metric"]) == {"ops_total", "rt_quantile"}


def test_windows_module(ray_session):
    import ray.data

    from splunk_otel_collector_ray.stages.windows import (
        session_windows,
        sliding_counts,
        tumbling_counts,
    )

    ts = pd.to_datetime(
        ["2026-01-01 00:05:00", "2026-01-01 00:20:00", "2026-01-01 00:50:00",
         "2026-01-01 02:00:00"])
    t = pa.table({"k": ["a", "a", "a", "a"],
                  "ts": pa.array(ts, type=pa.timestamp("us"))})
    ds = ray.data.from_arrow(t)
    tum = tumbling_counts(ds, ["k"], unit="hour").to_pandas().sort_values(
        "window_start").reset_index(drop=True)
    assert tum.n.tolist() == [3, 1]
    sld = sliding_counts(ds, ["k"], size_s=3600, slide_s=1800).to_pandas()
    sld = sld.sort_values("window_start").reset_index(drop=True)
    # windows (23:30→00:30]:2? — membership: event at 00:05 in starts 00:00 and 23:30
    assert int(sld.n.sum()) == 8  # each event counts in exactly 2 windows
    ses = session_windows(ds, key="k", gap_s=600).to_pandas().sort_values(
        "session_id").reset_index(drop=True)
    # gaps: 15min (>10min → new), 30min (new), 70min (new) → 4 sessions? first
    # two events are 15min apart → sessions: [e1],[e2],[e3],[e4]
    assert len(ses) == 4 and ses.n.tolist() == [1, 1, 1, 1]


def test_config_dataset_combinator_stages(ray_session):
    # a full declarative pipeline ending in a windowed aggregate
    ds = build_pipeline({
        "source": {"transcripts": "/root/testdata/sf0.001"},
        "stages": [{"type": "parse"}, {"type": "enrich"}, {"type": "route"},
                   {"type": "tumbling_window", "keys": ["sink"]}],
    })
    df = ds.to_pandas()
    assert {"sink", "window_start", "n"} <= set(df.columns)
    assert df.n.sum() == 10_000


def test_telegraf_emitter_ordering():
    """baseemitter.go:159-183,281-287 order of operations: GetMetricName
    first (a nameMap hit short-circuits the transform chain), THEN exclusion
    checked against the FINAL name (ADVICE r2)."""
    import pyarrow as pa

    from splunk_otel_collector_ray.stages.metrics import TelegrafEmitter

    em = TelegrafEmitter(
        exclude=("ui_view",),
        name_map={"click": "ui.click"},
        name_transforms=[(r"^view$", "ui.view"), (r"\.", "_")],
        add_tags={"plugin": "events"},
        omit_tags=("props",),
    )
    t = pa.table({"name": ["click", "view", "purchase"],
                  "props": ["a", "b", "c"]})
    out = em(t)
    # click: nameMap override NOT re-transformed (dot survives);
    # view: transformed to ui.view -> ui_view -> excluded on final name
    assert out["name"].to_pylist() == ["ui.click", "purchase"]
    assert "props" not in out.column_names
    assert out["plugin"].to_pylist() == ["events", "events"]


def test_split_multiline_end_pattern_and_never_match():
    """stanza line_end_pattern semantics: a record closes AFTER the matching
    line; the never-match idiom keeps the blob whole (ADVICE/VERDICT r2)."""
    from splunk_otel_collector_ray.stages.recombine import split_multiline

    blob = "a\nend;\nb\nc\nend;\ntrailing"
    assert split_multiline(blob, line_end_pattern=r";$") == [
        "a\nend;\n", "b\nc\nend;\n", "trailing"]
    never = "^THIS_PATTERN_WILL_NEVER_MATCH_ANYTHING$"
    assert split_multiline(blob, line_end_pattern=never) == [blob]
    assert split_multiline(blob, line_start_pattern=never) == [blob]
    import pytest as _pytest
    with _pytest.raises(ValueError):
        split_multiline(blob)
    with _pytest.raises(ValueError):
        split_multiline(blob, line_start_pattern="a", line_end_pattern="b")


def test_null_line_reads_as_empty(ray_session):
    """A null fragment/line reads as "": it never matches the flag (not
    even a pattern that matches the empty string), joins as empty and still
    counts in n_fragments / n_lines."""
    import ray.data

    from splunk_otel_collector_ray.stages.recombine import (
        multiline_frame,
        recombine_fragments,
    )

    t = pa.table({
        "conv_id": ["a", "a", "a", "b", "b"],
        "turn_idx": pa.array([0, 1, 2, 0, 1], type=pa.int32()),
        "text": ["x", None, "y\n", None, ""],
    })
    rec = recombine_fragments(ray.data.from_arrow(t), body_col="text") \
        .to_pandas().sort_values(["conv_id", "record_id"])
    assert rec["body"].tolist() == ["xy\n", ""]
    assert rec["n_fragments"].tolist() == [3, 2]
    assert rec["is_complete"].tolist() == [True, False]
    # "^$" matches the empty line of conv b but not its null line
    fr = multiline_frame(ray.data.from_arrow(t), r"^$", text_col="text") \
        .to_pandas().sort_values(["conv_id", "record_id"])
    assert fr["conv_id"].tolist() == ["a", "b", "b"]
    assert fr["record_id"].tolist() == [0, 0, 1]
    assert fr["body"].tolist() == ["x\n\ny\n", "", ""]
    assert fr["n_lines"].tolist() == [3, 1, 1]


def test_multiline_frame_end_pattern_dataset(ray_session):
    """End-anchored dataset framing: record_id = exclusive prefix sum of
    is_end; trailing open record kept; never-match → one record per conv."""
    import ray.data

    from splunk_otel_collector_ray.stages.recombine import multiline_frame

    t = pa.table({
        "conv_id": ["c1"] * 5 + ["c2"] * 2,
        "turn_idx": [0, 1, 2, 3, 4, 0, 1],
        "body": ["x", "done;", "y", "done;", "tail", "p", "q"],
    })
    out = multiline_frame(ray.data.from_arrow(t), line_end_pattern=r";$",
                          text_col="body").to_pandas()
    out = out.sort_values(["conv_id", "record_id"]).reset_index(drop=True)
    assert out["body"].tolist() == ["x\ndone;", "y\ndone;", "tail", "p\nq"]
    assert out["record_id"].tolist() == [0, 1, 2, 0]
    never = multiline_frame(
        ray.data.from_arrow(t),
        line_end_pattern="^THIS_PATTERN_WILL_NEVER_MATCH_ANYTHING$",
        text_col="body").to_pandas()
    assert len(never) == 2 and set(never["record_id"]) == {0}


def test_hec_gating_flags():
    """splunk_hec gating (agent_config.yaml:175-186): profiling_data_enabled
    =false drops profiling records; log_data_enabled=false keeps ONLY them
    — the paired logs/profiling exporter pattern."""
    import pyarrow as pa

    from splunk_otel_collector_ray.stages.hec import HecProjection

    t = pa.table({
        "ts": pa.array([1_000_000, 2_000_000], type=pa.timestamp("us")),
        "host.name": ["h1", "h2"],
        "com.splunk.source": ["otel", "otel"],
        "com.splunk.sourcetype": ["otel", "otel.profiling"],
        "sink": ["sink_tools", "sink_errors"],
        "body": ["a", "b"],
        "conv_id": ["c1", "c2"],
        "turn_idx": [0, 1],
    })
    logs = HecProjection(profiling_data_enabled=False)(t)
    assert logs["event"].to_pylist() == ["a"]
    prof = HecProjection(log_data_enabled=False)(t)
    assert prof["event"].to_pylist() == ["b"]
    both = HecProjection()(t)
    assert both.num_rows == 2
    none = HecProjection(log_data_enabled=False,
                         profiling_data_enabled=False)(t)
    assert none.num_rows == 0


def test_span_duration_histogram_buckets(ray_session):
    """Explicit-bucket histogram: d <= bound lands in that bucket; above
    the last bound lands in +Inf (spanmetrics histogram semantics)."""
    import pandas as pd
    import pyarrow as pa
    import ray.data

    from splunk_otel_collector_ray.stages.metrics import (
        span_duration_histogram,
    )

    ts0 = pd.Timestamp("2025-01-01")
    rows = []
    # conv c1: tool turns with gaps 1s (boundary), 4s, 400s, final (0)
    gaps = [1, 4, 400, None]
    t = ts0
    for i, g in enumerate(gaps):
        rows.append(("c1", i, "tool", "search", t))
        t = t + pd.Timedelta(seconds=g if g else 1)
    df = pd.DataFrame(rows, columns=["conv_id", "turn_idx", "role", "tool",
                                     "ts"])
    out = span_duration_histogram(
        ray.data.from_arrow(pa.Table.from_pandas(df, preserve_index=False)))
    got = out.to_pandas().set_index("le")["n"].to_dict()
    # gaps: 1.0 → bucket "1.0" (boundary inclusive), 4 → "5.0",
    # 400 → "+Inf", last turn duration 0 → "1.0"
    assert got == {"1.0": 2, "5.0": 1, "+Inf": 1}


def test_hec_gating_null_sourcetype_is_log_data():
    """review fix: a null sourcetype record is LOG data — it must survive
    the logs exporter (profiling disabled) and be dropped by the
    profiling-only exporter, never vanish from both."""
    import pyarrow as pa

    from splunk_otel_collector_ray.stages.hec import HecProjection

    t = pa.table({
        "ts": pa.array([1_000_000], type=pa.timestamp("us")),
        "host.name": ["h1"],
        "com.splunk.source": ["otel"],
        "com.splunk.sourcetype": pa.array([None], type=pa.string()),
        "sink": ["sink_tools"],
        "body": ["a"],
        "conv_id": ["c1"],
        "turn_idx": [0],
    })
    assert HecProjection(profiling_data_enabled=False)(t).num_rows == 1
    assert HecProjection(log_data_enabled=False)(t).num_rows == 0


def test_collectd_decode_semantics():
    """Pins the upstream collectdreceiver mapping: dsname folded into the
    name only for multi-ds records, type_instance in the name, bracket
    metadata extracted to labels from type_instance/plugin_instance/host
    (in that order), derive/counter→cumulative, unknown dstype→gauge."""
    import pyarrow as pa

    from splunk_otel_collector_ray.sources.collectd import (
        decode_collectd_batch,
    )

    batch = pa.table({
        "values": [[1.0, 2.0], [3.5]],
        "dstypes": [["derive", "gauge"], ["weird"]],
        "dsnames": [["read", "write"], ["value"]],
        "time": [10.0, 20.25],
        "interval": [10.0, 10.0],
        "host": ["h[rack=r1]", "plain-host"],
        "plugin": ["disk", "cpu"],
        "plugin_instance": ["sda[bus=scsi]", ""],
        "type": ["disk_octets", "percent"],
        "type_instance": ["", "idle[core=0]"],
    })
    out = decode_collectd_batch(batch).to_pandas()
    assert list(out["name"]) == ["disk_octets.read", "disk_octets.write",
                                 "percent.idle"]
    assert list(out["mtype"]) == ["cumulative", "gauge", "gauge"]
    assert list(out["dsname"]) == ["", "", "value"]  # folded vs labeled
    assert list(out["labels"]) == ["bus=scsi,rack=r1", "bus=scsi,rack=r1",
                                   "core=0"]
    assert list(out["host"]) == ["h", "h", "plain-host"]
    assert list(out["plugin_instance"]) == ["sda", "sda", ""]
    assert out["ts"].astype("int64").tolist() == [
        10_000_000, 10_000_000, 20_250_000]
    assert list(out["value"]) == [1.0, 2.0, 3.5]


def test_windows_event_parse_semantics():
    """Raw XML passthrough as body, fractional-second SystemTime, level→
    severity map, provider/event-id exclusion, missing-field tolerance."""
    import pyarrow as pa

    from splunk_otel_collector_ray.sources.winevt import parse_windows_events

    ev = ("<Event><System><Provider Name='{p}'/><EventID>{e}</EventID>"
          "<Level>{l}</Level><TimeCreated SystemTime='{t}'/>"
          "<Channel>Application</Channel><Computer>w1</Computer>"
          "</System></Event>")
    rows = [
        ev.format(p="App", e=7036, l=2, t="2026-01-01T00:00:01.250000Z"),
        ev.format(p="XEN", e=1000, l=4, t="2026-01-01T00:00:02Z"),
        ev.format(p="App", e=4662, l=3, t="2026-01-01T00:00:03.5Z"),
        "<Event><System></System></Event>",  # all fields absent
    ]
    out = parse_windows_events(
        pa.table({"text": rows}), exclude_providers=("XEN",),
        exclude_event_ids=(4662,)).to_pandas()
    assert list(out["event_id"]) == [7036, 0]
    assert list(out["severity_text"]) == ["ERROR", "INFO"]
    assert list(out["severity_number"]) == [17, 9]
    assert out["severity_number"].dtype == "int8"
    assert out["ts"].iloc[0].microsecond == 250000
    assert pd.isna(out["ts"].iloc[1])  # unparseable time → null, row kept
    assert out["body"].iloc[0] == rows[0]  # raw XML passthrough


def test_syslog_5424_parse_semantics():
    """PRI decomposition, offset-timestamp math, nil fields, SD params,
    malformed-line drop."""
    import pyarrow as pa

    from splunk_otel_collector_ray.sources.syslog import parse_syslog_5424

    rows = [
        '<165>1 2026-01-01T00:00:10.250000Z host1 app - ID47 '
        '[x@1 k="v" k2="w w"] hello world',
        '<13>1 2026-01-01T05:00:10-05:00 - - - - - no structured data',
        "not a syslog line",
    ]
    out = parse_syslog_5424(pa.table({"text": rows})).to_pandas()
    assert len(out) == 2  # malformed dropped
    assert list(out["facility"]) == [20, 1]
    assert list(out["severity_text"]) == ["INFO2", "INFO2"]  # sev 5 both
    assert out["ts"].iloc[0].microsecond == 250000
    # -05:00 local 05:00:10 == 10:00:10 UTC
    assert str(out["ts"].iloc[1]) == "2026-01-01 10:00:10"
    assert out["sd_id"].iloc[0] == "x@1"
    assert out["sd_params"].iloc[0] == "k=v,k2=w w"  # space kept in value
    assert out["hostname"].iloc[1] == ""  # nil
    assert out["body"].iloc[1] == "no structured data"


def test_metrics_aggregate_labels_and_values(ray_session):
    import ray.data

    from splunk_otel_collector_ray.stages.metrics import (
        metrics_aggregate_label_values, metrics_aggregate_labels)

    dp = pd.DataFrame({
        "name": ["m", "m", "m", "other", "other"],
        "host": ["a", "b", "a", "a", "b"],
        "zone": ["z1", "z1", "z2", "z1", "z2"],
        "value": [1.0, 2.0, 4.0, 8.0, 16.0],
    })

    # aggregate_labels keeps only `zone` for metric m (max of collapsed
    # points); `other` keeps both labels so its rows pass through untouched
    out = metrics_aggregate_labels(
        ray.data.from_pandas(dp), name_col="name", labels=["host", "zone"],
        label_set=["zone"], aggregation_type="max", include="m",
        match_type="strict").to_pandas()
    m = out[out["name"] == "m"].sort_values("zone")
    assert m["host"].isna().all()
    assert list(m["zone"]) == ["z1", "z2"]
    assert list(m["value"]) == [2.0, 4.0]
    other = out[out["name"] == "other"]
    assert len(other) == 2 and set(other["value"]) == {8.0, 16.0}

    # aggregate_label_values collapses z1/z2 → z for regexp-matched metrics
    out2 = metrics_aggregate_label_values(
        ray.data.from_pandas(dp), name_col="name", labels=["host", "zone"],
        label="zone", aggregated_values=["z1", "z2"], new_value="z",
        aggregation_type="sum", include="^m$",
        match_type="regexp").to_pandas()
    m2 = out2[out2["name"] == "m"].sort_values("host")
    assert list(m2["zone"]) == ["z", "z"]
    assert list(m2["value"]) == [5.0, 2.0]  # host a: 1+4, host b: 2
    assert set(out2[out2["name"] == "other"]["zone"]) == {"z1", "z2"}


def test_sql_monitor_datapoints(ray_session):
    import ray.data

    from splunk_otel_collector_ray.stages.metrics import sql_monitor_datapoints

    rows = pd.DataFrame({
        "Val": [1.5, None, 3.0],
        "host": ["a", None, "c"],
        "extra": ["x", "y", "z"],
    })
    out = sql_monitor_datapoints(ray.data.from_pandas(rows), [
        {"metricName": "m.gauge", "valueColumn": "val",  # case-insensitive
         "dimensionColumns": ["HOST"]},
        {"metricName": "m.counter", "valueColumn": "Val",
         "dimensionColumns": ["host", "extra"], "isCumulative": True},
    ]).to_pandas()
    g = out[out["metric"] == "m.gauge"]
    c = out[out["metric"] == "m.counter"]
    # null value row dropped per metric; null dim → ''
    assert len(g) == 2 and len(c) == 2
    assert set(g["type"]) == {"gauge"} and set(c["type"]) == {"counter"}
    assert list(g.sort_values("value")["HOST"]) == ["a", "c"]  # first spelling wins
    # extra dim is null for the metric that doesn't configure it
    assert g["extra"].isna().all()
    assert list(c.sort_values("value")["extra"]) == ["x", "z"]


def test_cardinality_limit_collapses_tail(ray_session):
    import pandas as pd
    import ray.data

    from splunk_otel_collector_ray.stages.metrics import cardinality_limit

    df = pd.DataFrame({
        "name": ["a"] * 5 + ["b"] * 3 + ["c"] * 2 + ["d"] * 2 + ["e"],
        "dim": ["x"] * 13,
    })
    out = cardinality_limit(
        ray.data.from_pandas(df), ["name", "dim"], n=2
    ).to_pandas().set_index("name")["n"].to_dict()
    # top-2 series survive; c+d+e collapse into one overflow bucket
    assert out == {"a": 5, "b": 3, "_overflow": 5}


def test_wavefront_epochs_survive_reused_huge_doubles():
    """Half the lines carry no epoch. Converting their NaN epochs made
    pandas raise FloatingPointError whenever the memory it reused held
    huge doubles; freeing such arrays first made every call raise."""
    lines = [f"cpu.load.h{i % 4} {i * 0.5}"
             + (f" {1767225600 + i * 10}" if i % 2 == 0 else "")
             + f" source=host-{i % 8}"
             + (f" env=prod dc=dc{i % 3}" if i % 4 == 0 else "")
             for i in range(128)]
    batch = pa.table({"text": pa.array(lines)})
    for _ in range(20):
        junk = [np.full(128, 1e308) for _ in range(8)]
        del junk
        out = parse_wavefront_text(batch)
        ts = out["ts"].to_pylist()
        assert [t is None for t in ts] == [i % 2 == 1 for i in range(128)]
        assert out["ts"][0].value == 1767225600 * 1_000_000


def test_wavefront_out_of_range_epochs_read_null():
    """An epoch whose microseconds pass int64 (13 and 24 digits here)
    raised OverflowError and failed the whole batch; it reads as a null
    ts, and the valid line beside it keeps its timestamp."""
    batch = pa.table({"text": pa.array([
        "c 3 9999999999999 source=h",
        "c 3 999999999999999999999999 source=h",
        "c 4 1767225600 source=h"])})
    out = parse_wavefront_text(batch)
    assert out["value"].to_pylist() == [3.0, 3.0, 4.0]
    assert out["ts"].to_pylist()[:2] == [None, None]
    assert out["ts"][2].value == 1767225600 * 1_000_000
