"""Pipeline config surface — named-stage registry + declarative DAG builder.

The collector assembles pipelines from a factory registry keyed by component
name (/root/reference/internal/components/components.go:179-364) driven by the
``service.pipelines`` config (agent_config.yaml:221-264). Our analogue: a
registry of stage builders and a plain-dict pipeline spec:

    {
      "source": {"transcripts": "/root/testdata/sf0.01"},
      "stages": [
        {"type": "parse"},
        {"type": "enrich"},
        {"type": "truncate", "n": 10},
        {"type": "redact", "pattern": "...", "replacement": "..."},
        {"type": "filter_severity", "min": 13},
        {"type": "sample", "pct": 25},
        {"type": "route"},
        {"type": "hec"},
      ],
      "sink": {"parquet": "/tmp/out"},
    }

Each stage builder returns a callable for ``map_batches`` (or a Dataset→
Dataset combinator), mirroring factory `Get()`. User extension = registering
a new builder (`register_stage`) — the EXPR/UDF hook of SURVEY.md §2.13.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

import ray
import ray.data

StageBuilder = Callable[[dict[str, Any]], Callable]

_REGISTRY: dict[str, StageBuilder] = {}


def register_stage(name: str):
    def deco(builder: StageBuilder) -> StageBuilder:
        _REGISTRY[name] = builder
        return builder
    return deco


def available_stages() -> list[str]:
    return sorted(_REGISTRY)


# --- built-in stage factories (components.go:319-338 analogue) -------------

@register_stage("parse")
def _parse(cfg):
    from .stages.parse import ParseStage

    return ("map_batches", ParseStage.as_fn())


@register_stage("enrich")
def _enrich(cfg):
    from .stages.enrich import build_dim_table, make_enrich_fn

    dims_ref = ray.put(build_dim_table())
    return ("map_batches", make_enrich_fn(dims_ref))


@register_stage("route")
def _route(cfg):
    """Default FIXTURES §4 table, or a config-defined OTTL-style condition
    table: {"type": "route", "routes": [["sink_x", "role == 'tool'"], …],
    "default_sink": "sink_default"} — conditions compiled by functions.expr."""
    from .functions.expr import compile_predicate
    from .stages.route import Route, RouteStage

    if "routes" not in cfg:
        return ("map_batches", RouteStage())
    routes = [Route(sink, compile_predicate(expr))
              for sink, expr in cfg["routes"]]
    return ("map_batches", RouteStage(
        routes, default_sink=cfg.get("default_sink", "sink_default")))


@register_stage("transform")
def _transform(cfg):
    """OTTL statement list (transform processor,
    examples/otel-logs-severity-splunk/otel-collector-config.yml:33-44):
    {"type": "transform", "statements": ["set(x, y) where cond", …]}."""
    from .functions.ottl import OttlTransform

    return ("map_batches", OttlTransform(cfg.get("statements", [])))


@register_stage("truncate")
def _truncate(cfg):
    from .stages.transform import TruncateBody

    return ("map_batches", TruncateBody(int(cfg.get("n", 10))))


@register_stage("redact")
def _redact(cfg):
    from .stages.transform import RedactRegex

    return ("map_batches", RedactRegex(
        cfg.get("pattern", r"\d{4}-\d{3}-\d{4}"),
        cfg.get("replacement", "XXX-XXX-XXXX"),
        cfg.get("column", "body")))


@register_stage("attributes")
def _attributes(cfg):
    from .stages.attributes import Action, AttributesStage

    return ("map_batches", AttributesStage(
        [Action(**a) for a in cfg.get("actions", [])]))


@register_stage("timestamp_offset")
def _ts_offset(cfg):
    from .stages.timestamp_offset import TimestampOffset

    return ("map_batches", TimestampOffset(int(cfg.get("seconds", 0))))


@register_stage("hec")
def _hec(cfg):
    from .stages.hec import DEFAULT_INDEX_MAP, HecProjection

    return ("map_batches", HecProjection(
        cfg.get("index_map") or dict(DEFAULT_INDEX_MAP)))


@register_stage("filter_severity")
def _filter_sev(cfg):
    import pyarrow as pa
    import pyarrow.compute as pc

    lo = int(cfg.get("min", 13))

    def fn(t: pa.Table) -> pa.Table:
        return t.filter(pc.greater_equal(
            t["severity_number"], pa.scalar(lo, type=pa.int8())))

    return ("map_batches", fn)


@register_stage("sample")
def _sample(cfg):
    from .stages.sample import probabilistic_sample

    pct = int(cfg.get("pct", 10))
    return ("dataset", lambda ds: probabilistic_sample(ds, pct))


@register_stage("recombine")
def _recombine(cfg):
    from .stages.recombine import recombine_fragments

    return ("dataset", lambda ds: recombine_fragments(
        ds, body_col=cfg.get("combine_field", "body")))


@register_stage("multiline")
def _multiline(cfg):
    """filelog `multiline` framing — line_start_pattern OR line_end_pattern
    (logs_config_linux.yaml:95-97; stanza split config)."""
    from .stages.recombine import multiline_frame

    return ("dataset", lambda ds: multiline_frame(
        ds, cfg.get("line_start_pattern"),
        text_col=cfg.get("text_col", "body"),
        line_end_pattern=cfg.get("line_end_pattern")))


@register_stage("tumbling_window")
def _tumbling(cfg):
    from .stages.windows import tumbling_counts

    return ("dataset", lambda ds: tumbling_counts(
        ds, cfg.get("keys", ["sink"]), ts_col=cfg.get("ts_col", "ts"),
        unit=cfg.get("unit", "hour")))


@register_stage("session_window")
def _session(cfg):
    from .stages.windows import session_windows

    return ("dataset", lambda ds: session_windows(
        ds, key=cfg.get("key", "conv_id"), ts_col=cfg.get("ts_col", "ts"),
        gap_s=int(cfg.get("gap_s", 600))))


@register_stage("aggregate_count")
def _agg_count(cfg):
    from .pipelines.aggregate import grouped_count

    return ("dataset", lambda ds: grouped_count(ds, cfg.get("keys", ["sink"])))


def build_pipeline(spec: dict[str, Any]) -> "ray.data.Dataset":
    """Spec dict → lazy Dataset (the service-pipeline assembly step)."""
    src = spec["source"]
    if "transcripts" in src:
        from .pipelines.logs import read_transcripts

        ds = read_transcripts(src["transcripts"],
                              include=src.get("include"),
                              exclude=src.get("exclude"))
    elif "parquet" in src:
        # prune at the READ: columns + an optional pushed-down row filter
        # (row-group pruning happens in the scan, filtered bytes never
        # leave storage)
        flt = None
        if src.get("filter"):
            from .functions.expr import compile_arrow_filter

            flt = compile_arrow_filter(src["filter"])
        ds = ray.data.read_parquet(src["parquet"], columns=src.get("columns"),
                                   filter=flt)
    elif "dataset" in src:
        # forward-connector splice: an upstream pipeline's lazy Dataset IS
        # the source (configio.run_service_from_yaml splice=True) — the
        # in-process transport, no staging round-trip
        ds = src["dataset"]
    elif "kafka_dump" in src:
        # kafka receiver analogue: topic-dump JSONL + optional committed
        # consumer-group offsets (restart-resume semantics)
        from .sources.kafka import read_kafka_dump

        ds = read_kafka_dump(src["kafka_dump"], committed=src.get("committed"))
    elif "eventhub_capture" in src:
        # azureeventhub receiver analogue: Capture dump + optional
        # per-partition sequence checkpoint (Event Processor resume)
        from .sources.eventhub import read_eventhub_capture

        ds = read_eventhub_capture(src["eventhub_capture"],
                                   checkpoint=src.get("checkpoint"))
    elif "pulsar_dump" in src:
        # pulsar receiver analogue: partition dump + optional subscription
        # cursor state dir (markDelete + individually-deleted resume)
        from .sources.pulsar import read_pulsar_dump

        ds = read_pulsar_dump(src["pulsar_dump"], cursor=src.get("cursor"))
    elif "solace_dump" in src:
        # solace receiver analogue: broker-telemetry queue dump →
        # trace spans + optional settled-message state dir (the
        # settlement/redelivery resume semantics)
        from .sources.solace import read_solace_dump

        ds = read_solace_dump(src["solace_dump"],
                              settled_dir=src.get("settled"))
    elif "k8s_dump" in src:
        from .sources.k8scluster import cluster_metrics

        ds = cluster_metrics(src["k8s_dump"])
    elif "kubelet_dump" in src:
        from .sources.kubeletstats import summary_stats

        ds = summary_stats(src["kubelet_dump"])
    elif "docker_dump" in src:
        from .sources.dockerstats import container_stats

        ds = container_stats(src["docker_dump"])
    elif "proc_dump" in src:
        # hostmetrics receiver analogue: /proc snapshot capture → the
        # enabled scrapers' system.* datapoints as one aligned long table
        from .sources.procfs import read_hostmetrics

        kw = {}
        if src.get("scrapers"):
            kw["scrapers"] = src["scrapers"]
        ds = read_hostmetrics(src["proc_dump"], **kw)
    elif "hec_jsonl" in src:
        from .sources.hec import read_hec_events

        ds = read_hec_events(src["hec_jsonl"])
    elif "otlp" in src:
        # OTLP staging dir; encoding selects the wire form
        if src.get("encoding") == "protobuf":
            from .sources.otlp_pb import read_otlp_logs_pb

            ds = read_otlp_logs_pb(src["otlp"])
        else:
            from .sources.otlp import read_otlp_logs

            ds = read_otlp_logs(src["otlp"])
    else:
        raise ValueError(f"unknown source {src!r}")
    for scfg in spec.get("stages", []):
        name = scfg["type"]
        if name not in _REGISTRY:
            raise ValueError(
                f"unknown stage {name!r}; available: {available_stages()}")
        kind, obj = _REGISTRY[name](scfg)
        if kind == "map_batches":
            ds = ds.map_batches(obj, batch_format="pyarrow")
        else:
            ds = obj(ds)
    return ds


def run_pipeline(spec: dict[str, Any], append: bool = False) -> Any:
    """Build and consume per the spec's sink ({'parquet': dir} or
    {'count': True}). ``append=True`` skips the staging clear — fan-in,
    where a later producer adds files to a path an earlier producer of
    the SAME service run already cleared (run_service_from_yaml)."""
    ds = build_pipeline(spec)
    sink = spec.get("sink", {"count": True})
    if "parquet" in sink:
        # a sink pointed at (or inside) the pipeline's own source would
        # destroy the input before the LAZY read executes — the
        # all-parquet clear guard below can't catch that case because the
        # source data IS parquet
        _guard_sink_vs_source(spec.get("source") or {}, sink["parquet"])
        if not append:
            # clear the staging dir first: Ray write_parquet appends
            # uniquely named files, so a rerun into a stale dir would
            # double-count in any consumer pipeline (ADVICE r2). Guarded:
            # refuse to delete a dir holding anything but parquet output
            # (a mistyped path must not recursively destroy user data).
            # Resumable export with skip-completed semantics lives in
            # pipelines.logs (manifest-gated).
            _clear_parquet_staging(sink["parquet"])
        ds.write_parquet(sink["parquet"],
                         partition_cols=sink.get("partition_cols"))
        return sink["parquet"]
    return ds.count()


def _guard_sink_vs_source(src: dict[str, Any], sink_path: str) -> None:
    """Refuse a parquet sink that overlaps any source path in the spec."""
    import os

    sp = os.path.realpath(sink_path)
    for v in src.values():
        if not isinstance(v, str):
            continue
        vp = os.path.realpath(v)
        if sp == vp or sp.startswith(vp + os.sep) or \
                vp.startswith(sp + os.sep):
            raise ValueError(
                f"sink path {sink_path!r} overlaps source path {v!r} — "
                "writing (and clearing) the pipeline's own input would "
                "destroy it before the lazy read runs")


def _clear_parquet_staging(path: str) -> None:
    """Remove a parquet staging dir ONLY if every file in it looks like
    parquet output (*.parquet / *.crc / dotfiles / partition subdirs)."""
    import os
    import shutil

    if not os.path.isdir(path):
        return
    for root, _dirs, files in os.walk(path):
        for f in files:
            if not (f.endswith((".parquet", ".crc", ".json"))
                    or f.startswith((".", "_"))):
                raise ValueError(
                    f"refusing to clear sink dir {path!r}: it contains a "
                    f"non-parquet file {os.path.join(root, f)!r} — point the "
                    "sink at a dedicated staging directory")
    shutil.rmtree(path, ignore_errors=True)
