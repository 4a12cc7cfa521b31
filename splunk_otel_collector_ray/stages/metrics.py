"""Metric-path operators: prometheus text parse, histogram re-bucketing,
cumulative→delta, metric-rename chains, dimension upserts.

Reference semantics (citations into /root/reference):
- `lightprometheus` scraper parses expfmt text into Gauge/Sum/Histogram/
  Summary with label→attribute mapping and converts CUMULATIVE bucket counts
  to per-bucket counts by adjacent difference
  (internal/receiver/lightprometheusreceiver/scraper.go:77-282; the bucket
  re-bucketing loop :218-235).
- `cumulativetodelta` processor: per-series last-value state → deltas
  (internal/components/components.go:322).
- smartagent `metricNameTransformations`: ordered regex→replacement rename
  chain with backrefs (internal/signalfx-agent/pkg/core/config/monitor.go:103-116);
  `dimensionTransformations`: static dim rename, "" deletes
  (monitor.go:117-122).
- signalfx exporter dimension-update side channel: property upserts keyed on
  dimension, LAST write wins (pkg/receiver/smartagentreceiver/output.go:303-315).
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from ..partitioning import pd_table

# sample line (expfmt): name{labels} value [timestamp] — all-named groups so
# pyarrow's RE2 extract_regex can run it over the flattened line array
_PROM_SAMPLE_RX = (
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?[ \t]+(?P<value>[^ \t]+)"
    r"(?:[ \t]+(?P<ts>[0-9]+))?$")
_PROM_TYPE_RX = r"^# TYPE (?P<name>[^ ]+) (?P<t>[^ ]+)$"


def _prom_lines(batch: pa.Table, text_col: str, id_col: str | None
                ) -> tuple[pa.Array, np.ndarray]:
    """Split text blobs into trimmed lines; return (lines, per-line blob id).

    Blob id is the ``id_col`` value when given (globally stable across
    blocks), else the in-batch row index.
    """
    text = batch[text_col]
    if isinstance(text, pa.ChunkedArray):
        text = text.combine_chunks()
    lines_list = pc.split_pattern(text, pattern="\n")
    parent = pc.list_parent_indices(lines_list).to_numpy(zero_copy_only=False)
    lines = pc.utf8_trim_whitespace(pc.list_flatten(lines_list))
    if id_col is not None:
        ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        src = ids[parent]
    else:
        src = parent.astype(np.int64)
    return lines, src


def parse_prometheus_text(batch: pa.Table, text_col: str = "text",
                          id_col: str | None = None) -> pa.Table:
    """expfmt text blobs → one row per sample, fully Arrow-native.

    One split_pattern + list_flatten pass frames lines; one extract_regex
    pass pulls (name, labels, value); TYPE comments are extracted the same
    way and propagated to samples with a vectorized (blob, metric) hash join
    — base name (``_bucket``/``_sum``/``_count`` stripped) first, full name
    second, 'untyped' fallback, matching the scraper's lookup
    (internal/receiver/lightprometheusreceiver/scraper.go:181-277).
    Histogram/summary label decomposition: ``le`` and ``quantile`` are lifted
    out of the label string as columns (empty when absent).
    """
    lines, src = _prom_lines(batch, text_col, id_col)
    is_type = pc.starts_with(lines, "# TYPE ")
    is_comment = pc.starts_with(lines, "#")
    nonempty = pc.not_equal(lines, "")
    sample_mask = pc.and_(pc.and_(pc.invert(is_comment), nonempty),
                          pc.invert(is_type))

    # TYPE table: (blob, metric name) → declared type
    tmask = is_type.to_numpy(zero_copy_only=False)
    tt = pc.extract_regex(lines.filter(pa.array(tmask)), _PROM_TYPE_RX)
    types_df = pd.DataFrame({
        "src_row": src[tmask],
        "tname": tt.field("name").to_pandas(),
        "t": tt.field("t").to_pandas(),
    }).drop_duplicates(["src_row", "tname"], keep="last")  # dict overwrite

    smask = sample_mask.to_numpy(zero_copy_only=False)
    st = pc.extract_regex(lines.filter(pa.array(smask)), _PROM_SAMPLE_RX)
    valid = pc.is_valid(st).to_numpy(zero_copy_only=False)  # malformed → null
    name = st.field("name").to_pandas()[valid]
    labels = st.field("labels").to_pandas()[valid].fillna("")
    value = pd.to_numeric(st.field("value").to_pandas()[valid],
                          errors="coerce").astype(np.float64)
    df = pd.DataFrame({
        "src_row": src[smask][valid], "name": name.to_numpy(),
        "labels": labels.to_numpy(), "value": value.to_numpy(),
    })
    df["bname"] = df["name"].str.replace(r"_(bucket|sum|count)$", "",
                                         regex=True)
    m1 = df.merge(types_df, how="left",
                  left_on=["src_row", "bname"], right_on=["src_row", "tname"])
    m2 = df.merge(types_df, how="left",
                  left_on=["src_row", "name"], right_on=["src_row", "tname"])
    df["type"] = m1["t"].fillna(m2["t"]).fillna("untyped").to_numpy()
    lab = pa.array(df["labels"], type=pa.string())
    # anchored to a label boundary so a longer key ending in "le" (e.g.
    # sample="x") can't be misread as a histogram bound (ADVICE r2)
    le = pc.extract_regex(lab, r'(?:^|,)le="(?P<le>[^"]*)"')
    qu = pc.extract_regex(lab, r'(?:^|,)quantile="(?P<q>[^"]*)"')
    return pa.table({
        "src_row": pa.array(df["src_row"].to_numpy(), type=pa.int64()),
        "name": pa.array(df["name"], type=pa.string()),
        "labels": lab,
        "value": pa.array(df["value"].to_numpy(), type=pa.float64()),
        "type": pa.array(df["type"], type=pa.string()),
        "le": pc.coalesce(le.field("le") if le.type.num_fields else le, ""),
        "quantile": pc.coalesce(qu.field("q") if qu.type.num_fields else qu, ""),
    })


def prometheus_histograms(
    ds: "ray.data.Dataset", text_col: str = "text",
    id_col: str | None = None,
) -> "ray.data.Dataset":
    """Histogram sample decomposition + cumulative→per-bucket counts.

    The scraper converts prometheus' cumulative ``le`` bucket counts into
    OTLP per-bucket counts by adjacent difference (scraper.go:218-235); here
    each (blob, metric) series is co-located by hash bucket and differenced
    in ONE vectorized pandas pass per bucket (grouped-op rule, SCALE.md).
    Output: (src_row, name, le, cum_count, bucket_count).
    """

    def fn(t: pa.Table) -> pa.Table:
        return parse_prometheus_text(t, text_col, id_col)

    def buckets_only(t: pa.Table) -> pa.Table:
        m = pc.and_(pc.equal(t["type"], "histogram"),
                    pc.match_substring_regex(t["name"], "_bucket$"))
        return t.filter(m)

    from ..partitioning import bucket_fold

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        le_num = pd.to_numeric(g["le"].replace("+Inf", "inf"), errors="coerce")
        g = g.assign(_le_num=le_num).sort_values(
            ["src_row", "name", "_le_num"], kind="mergesort")
        lag = g.groupby(["src_row", "name"], sort=False)["value"].shift(1)
        out = g[["src_row", "name", "le"]].copy()
        out["cum_count"] = g["value"].to_numpy()
        out["bucket_count"] = (g["value"] - lag.fillna(0.0)).to_numpy()
        return out

    return bucket_fold(
        ds.map_batches(fn, batch_format="pyarrow")
        .map_batches(buckets_only, batch_format="pyarrow"),
        ["src_row"], per_bucket, coalesce=True)


# statsd line (+dogstatsd tags): name:value|type[|@rate][|#tags]
_STATSD_RX = (r"^(?P<name>[^:|]+):(?P<value>[^|]+)\|(?P<t>[a-z]+)"
              r"(?:\|@(?P<rate>[0-9.]+))?(?:\|#(?P<tags>.*))?$")
_STATSD_TYPES = {"c": "counter", "g": "gauge", "ms": "timing",
                 "s": "set", "h": "histogram"}


def prometheus_exporter_datapoints(parsed: pa.Table,
                                   include: "set[str] | None" = None,
                                   send_all: bool = False) -> pa.Table:
    """The smartagent prometheus-exporter monitor's conversion — the
    wrapper every DB/app exporter monitor (prometheus/redis, /postgres,
    /nginxvts, …) shares (internal/signalfx-agent/pkg/monitors/
    prometheusexporter/conversion.go:26-186):

    - gauge / untyped samples → gauge datapoints (``:14-20,66-77``)
    - counter samples → cumulative (``:49-63``)
    - summary families → ``<family>_count`` cumulative, ``<family>``
      cumulative (the sum), and ``<family>_quantile`` gauges with a
      ``quantile`` dim formatted FormatFloat(q,'f',6,64) (``:80-129``)
    - histogram families → ``<family>_bucket`` cumulatives with an
      ``upper_bound`` dim (same 6-digit formatting, +Inf verbatim),
      ``<family>_count`` / ``<family>`` cumulatives (``:131-184``)
    - ``le``/``quantile`` leave the label dims (they're Summary/Histogram
      protobuf fields, not labels, in the client model the converter
      reads) and re-enter as the formatted dims above
    - unless ``send_all`` (the monitor's sendAllMetrics / sendAll
      metadata), only CONVERTED metric names in ``include`` survive —
      the per-monitor default-metric allowlist (prometheus.go:54-92)

    Input is `parse_prometheus_text` output; fully vectorized.
    """
    name = parsed["name"].to_pandas()
    typ = parsed["type"].to_pandas()
    le = parsed["le"].to_pandas()
    quant = parsed["quantile"].to_pandas()
    is_hist = (typ == "histogram").to_numpy()
    is_summ = (typ == "summary").to_numpy()
    is_ctr = (typ == "counter").to_numpy()
    family = name.str.replace(r"_(bucket|sum|count)$", "", regex=True)
    is_bucket = (is_hist & name.str.endswith("_bucket").to_numpy())
    is_sum = ((is_hist | is_summ) & name.str.endswith("_sum").to_numpy())
    is_count = ((is_hist | is_summ)
                & name.str.endswith("_count").to_numpy())
    is_quant = (is_summ & (quant != "").to_numpy())
    metric = name.copy()
    metric[is_sum] = family[is_sum]  # SampleSum keeps the family name
    metric[is_quant] = family[is_quant] + "_quantile"
    mtype = np.where(is_ctr | is_bucket | is_sum | is_count,
                     "cumulative", "gauge")

    def fmt6(strs: "pd.Series", mask: np.ndarray) -> np.ndarray:
        out = np.full(len(strs), "", dtype=object)
        if mask.any():
            vals = strs[mask].to_numpy(dtype=object)
            inf = np.array([v == "+Inf" for v in vals])
            fv = np.where(inf, 0.0, [float(v) if v != "+Inf" else 0.0
                                     for v in vals])
            fmtd = np.char.mod("%.6f", fv).astype(object)
            fmtd[inf] = "+Inf"
            out[mask] = fmtd
        return out

    upper = fmt6(le, is_bucket)
    qdim = fmt6(quant, is_quant)
    labels = pc.replace_substring_regex(
        parsed["labels"], r'(?:^|,)(?:le|quantile)="[^"]*"', "")
    labels = pc.replace_substring_regex(labels, r"^,", "")
    out = pa.table({
        "src_row": parsed["src_row"],
        "metric": pa.array(metric.to_numpy(), type=pa.string()),
        "mtype": pa.array(mtype, type=pa.string()),
        "labels": labels,
        "quantile": pa.array(qdim, type=pa.string()),
        "upper_bound": pa.array(upper, type=pa.string()),
        "value": parsed["value"],
    })
    if send_all or include is None:
        return out
    keep = pa.array(metric.isin(include).to_numpy())
    return out.filter(keep)


def parse_statsd_text(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """statsd/dogstatsd line protocol → one row per sample, Arrow-native
    (the statsd receiver of SURVEY §2.1, reg
    /root/reference/internal/components/components.go:274).

    One extract_regex pass; type codes map through a dictionary take;
    counters are scaled by 1/sample-rate (statsd flush semantics); `s`
    (set) samples carry their raw string value with NaN numeric value.
    Malformed lines are dropped (receiver discards them).
    """
    text = batch[text_col]
    if isinstance(text, pa.ChunkedArray):
        text = text.combine_chunks()
    st = pc.extract_regex(text, _STATSD_RX)
    valid = pc.is_valid(st).to_numpy(zero_copy_only=False)
    name = st.field("name").to_pandas()[valid]
    raw = st.field("value").to_pandas()[valid]
    tcode = st.field("t").to_pandas()[valid]
    rate = pd.to_numeric(st.field("rate").to_pandas()[valid],
                         errors="coerce").fillna(1.0)
    tags = st.field("tags").to_pandas()[valid].fillna("")
    mtype = tcode.map(_STATSD_TYPES).fillna("unknown")
    value = pd.to_numeric(raw, errors="coerce").astype(np.float64)
    scaled = np.where(mtype.to_numpy() == "counter",
                      value.to_numpy() / rate.to_numpy(), value.to_numpy())
    return pa.table({
        "name": pa.array(name.to_numpy(), type=pa.string()),
        "value_raw": pa.array(raw.to_numpy(), type=pa.string()),
        "value": pa.array(value.to_numpy(), type=pa.float64()),
        "mtype": pa.array(mtype.to_numpy(), type=pa.string()),
        "rate": pa.array(rate.to_numpy(), type=pa.float64()),
        "tags": pa.array(tags.to_numpy(), type=pa.string()),
        "scaled_value": pa.array(scaled, type=pa.float64()),
    })


_GRAPHITE_RX = (r"^(?P<path>[^; ]+)(?:;(?P<tags>[^ ]*))?"
                r" (?P<value>\S+) (?P<ts>[0-9]+)$")


def parse_graphite_text(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """carbon/graphite plaintext protocol (`path[;tag=v…] value epoch`) →
    rows (the carbon receiver of SURVEY §2.1, components.go:217; plaintext
    tag extension). One extract_regex pass; epoch seconds → timestamp[us];
    the `;`-separated tag string rides as a column ("" when absent)."""
    text = batch[text_col]
    if isinstance(text, pa.ChunkedArray):
        text = text.combine_chunks()
    st = pc.extract_regex(text, _GRAPHITE_RX)
    valid = pc.is_valid(st).to_numpy(zero_copy_only=False)
    path = st.field("path").to_pandas()[valid]
    tags = st.field("tags").to_pandas()[valid].fillna("")
    value = pd.to_numeric(st.field("value").to_pandas()[valid],
                          errors="coerce").astype(np.float64)
    epoch = pd.to_numeric(st.field("ts").to_pandas()[valid],
                          errors="coerce").astype(np.int64)
    return pa.table({
        "path": pa.array(path.to_numpy(), type=pa.string()),
        "tags": pa.array(tags.to_numpy(), type=pa.string()),
        "value": pa.array(value.to_numpy(), type=pa.float64()),
        "ts": pa.array((epoch * 1_000_000).to_numpy(),
                       type=pa.timestamp("us")),
    })


# wavefront data format: metric value [epoch] source=<s> [k=v ...]
_WAVEFRONT_RX = (r'^(?P<name>[^ ]+) (?P<value>[^ ]+)(?: (?P<ts>[0-9]{9,}))? '
                 r'source=(?P<source>[^ ]+)(?: (?P<tags>.*))?$')


def parse_wavefront_text(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """wavefront line protocol (`metric value [epoch] source=... tags…`) →
    rows (the wavefront receiver of SURVEY §2.1, components.go:282). One
    extract_regex pass; missing timestamp → null."""
    text = batch[text_col]
    if isinstance(text, pa.ChunkedArray):
        text = text.combine_chunks()
    st = pc.extract_regex(text, _WAVEFRONT_RX)
    valid = pc.is_valid(st).to_numpy(zero_copy_only=False)
    name = st.field("name").to_pandas()[valid]
    value = pd.to_numeric(st.field("value").to_pandas()[valid],
                          errors="coerce").astype(np.float64)
    epoch = pd.to_numeric(st.field("ts").to_pandas()[valid], errors="coerce")
    # convert only the present epochs: on a NaN-holding float Series,
    # pandas 2.2's unit conversion can raise FloatingPointError when the
    # memory it reuses for the NaN slots holds huge doubles. An epoch whose
    # microseconds pass int64 (≥ ~9.22e12 s) would raise OverflowError and
    # fail the batch; like every other out-of-range epoch it reads as null
    us = epoch.dropna() * 1e6
    ts = pd.to_datetime(us[us < 2.0 ** 63], unit="us",
                        errors="coerce").reindex(epoch.index)
    source = st.field("source").to_pandas()[valid]
    tags = st.field("tags").to_pandas()[valid].fillna("")
    return pa.table({
        "name": pa.array(name.to_numpy(), type=pa.string()),
        "value": pa.array(value.to_numpy(), type=pa.float64()),
        "ts": pa.array(ts.to_numpy(), type=pa.timestamp("us")),
        "source": pa.array(source.to_numpy(), type=pa.string()),
        "tags": pa.array(tags.to_numpy(), type=pa.string()),
    })


# influx line protocol: measurement[,tagset] fieldset [timestamp_ns] —
# the unescaped/unquoted-space subset (the same scoping as the graphite
# plaintext-tag and wavefront subsets above)
_INFLUX_RX = (r"^(?P<measurement>[^, ]+)(?:,(?P<tags>[^ ]*))?"
              r" (?P<fields>[^ ]+)(?: (?P<ts>[0-9]+))?$")
_INFLUX_FIELD_RX = r"^(?P<key>[^=]+)=(?P<val>.*)$"


def parse_influx_text(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """InfluxDB line protocol → ONE ROW PER FIELD, Arrow-native (the
    influxdb receiver of SURVEY §2.1, reg components.go:235 — its
    converter emits one OTel metric per line-protocol field).

    One extract_regex pass over the lines, an Arrow ``split_pattern``
    explode of the comma-separated fieldset (line-level columns repeated
    per field with one ``take`` — no Python loop), then one
    extract_regex over the exploded ``k=v`` pairs. Field values keep
    the protocol's type system: ``1i`` → value_int, ``true``/``false``
    → value_bool, ``"…"`` → value_str, bare numbers → value_dbl
    (exactly one arm non-null). Nanosecond timestamps → timestamp[us];
    a line without one → null (the receiver stamps arrival time).
    Malformed lines are dropped (receiver discards them) — including
    lines where any FIELD fails to parse (missing ``=``, empty value,
    unquoted non-numeric): a field parse error invalidates its whole
    line, the protocol's error semantics."""
    text = batch[text_col]
    if isinstance(text, pa.ChunkedArray):
        text = text.combine_chunks()
    st = pc.extract_regex(text, _INFLUX_RX)
    valid_mask = pc.is_valid(st)
    st = st.filter(valid_mask)
    fields_list = pc.split_pattern(st.field("fields"), ",")
    counts = pc.list_value_length(fields_list).to_numpy(
        zero_copy_only=False).astype(np.int64)
    idx = pa.array(np.repeat(np.arange(len(counts)), counts))
    measurement = st.field("measurement").take(idx)
    tags = pc.fill_null(st.field("tags"), "").take(idx)
    ts_s = st.field("ts").take(idx)
    flat = pc.list_flatten(fields_list)
    fkv = pc.extract_regex(flat, _INFLUX_FIELD_RX)
    key = fkv.field("key")
    val = fkv.field("val")
    # type arms: int (trailing i), bool, quoted string, else float
    is_int = pc.match_substring_regex(val, r"^-?[0-9]+i$")
    is_bool = pc.match_substring_regex(
        val, r"^(t|T|true|True|TRUE|f|F|false|False|FALSE)$")
    is_str = pc.match_substring_regex(val, r'^".*"$')
    vp = val.to_pandas()
    im = pc.fill_null(is_int, False).to_numpy(zero_copy_only=False)
    bm = pc.fill_null(is_bool, False).to_numpy(zero_copy_only=False)
    sm = pc.fill_null(is_str, False).to_numpy(zero_copy_only=False)
    fm = ~(im | bm | sm)
    value_int = pd.to_numeric(vp.str.slice(0, -1).where(im),
                              errors="coerce").astype("Int64")
    value_bool = pd.Series(np.where(
        bm, vp.str.lower().str.startswith("t"), None), dtype="object")
    value_str = vp.str.slice(1, -1).where(sm)
    value_dbl = pd.to_numeric(vp.where(fm), errors="coerce")
    ts_ns = pd.to_numeric(ts_s.to_pandas(), errors="coerce")
    ts_us = (ts_ns // 1000).astype("Int64")
    # a field that matched NO arm (missing '=', empty value, unquoted
    # non-numeric like `x=abc`) invalidates its WHOLE line — the
    # protocol's parse-error semantics: the receiver drops the line,
    # never emits a phantom metric with no value
    field_ok = (im | bm | sm
                | (fm & pc.is_valid(fkv).to_numpy(zero_copy_only=False)
                   & value_dbl.notna().to_numpy()))
    n_lines = len(counts)
    bad_line = np.zeros(n_lines, dtype=bool)
    np.logical_or.at(bad_line, np.asarray(idx), ~field_ok)
    keep = ~bad_line[np.asarray(idx)]
    if not keep.all():
        kp = pa.array(keep)
        measurement = measurement.filter(kp)
        tags = tags.filter(kp)
        key = key.filter(kp)
        value_int = value_int[keep]
        value_bool = value_bool[keep]
        value_str = value_str[keep]
        value_dbl = value_dbl[keep]
        ts_us = ts_us[keep]
    return pa.table({
        "measurement": measurement,
        "tags": tags,
        "field": key,
        "value_dbl": pa.array(value_dbl, type=pa.float64()),
        "value_int": pa.array(value_int, type=pa.int64()),
        "value_bool": pa.array(value_bool, type=pa.bool_()),
        "value_str": pa.array(value_str, type=pa.string()),
        "ts": pa.array(ts_us, type=pa.int64()).cast(pa.timestamp("us")),
    })


def prometheus_error_counters(
    ds: "ray.data.Dataset", text_col: str = "text"
) -> "ray.data.Dataset":
    """Bad-sample running totals — the PRW receiver's error side-counters
    (signalfxgatewayprometheusremotewrite prometheus_to_otel.go:129-166:
    invalid-request / NaN / missing-name cumulative sums).

    Per-batch partial counters (same Arrow line/extract kernels as the
    parser — no Python line loop) → one grouped sum; returns a single row
    (total_samples, malformed_lines, nan_samples).
    """
    from ray.data.aggregate import Sum

    def partial(batch: pa.Table) -> pa.Table:
        lines, _ = _prom_lines(batch, text_col, None)
        is_comment = pc.starts_with(lines, "#")
        nonempty = pc.not_equal(lines, "")
        smask = pc.and_(pc.invert(is_comment), nonempty)
        sl = lines.filter(smask)
        st = pc.extract_regex(sl, _PROM_SAMPLE_RX)
        valid = pc.is_valid(st).to_numpy(zero_copy_only=False)
        v = pd.to_numeric(st.field("value").to_pandas()[valid],
                          errors="coerce")
        return pa.table({
            "k": ["all"],
            "total_samples": pa.array([int(valid.sum())], type=pa.int64()),
            "malformed_lines": pa.array([int((~valid).sum())],
                                        type=pa.int64()),
            "nan_samples": pa.array([int(v.isna().sum())], type=pa.int64()),
        })

    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("k")
        .aggregate(Sum("total_samples", alias_name="total_samples"),
                   Sum("malformed_lines", alias_name="malformed_lines"),
                   Sum("nan_samples", alias_name="nan_samples"))
    )


def histogram_bucket_deltas(cum_counts: np.ndarray) -> np.ndarray:
    """Cumulative `le` bucket counts → per-bucket counts (scraper.go:218-235):
    bucket[i] = cum[i] - cum[i-1], bucket[0] = cum[0]."""
    out = np.asarray(cum_counts, dtype=np.float64).copy()
    out[1:] -= out[:-1]
    return out


@dataclass
class TelegrafEmitter:
    """telegraf emitter semantics as one vectorized stage
    (/root/reference/internal/signalfx-agent/pkg/monitors/telegraf/common/
    emitter/baseemitter/baseemitter.go:34-160): drop excluded metric names
    (ExcludeDatum/IsExcluded :111-127), rename through the nameMap override
    (:55-57), apply the ordered metric-name transformation chain, merge
    addTags onto every point (AddTag overrides, :70-85), and drop omitted
    tag columns (OmitTag :131-140)."""

    exclude: tuple = ()
    name_map: dict | None = None
    name_transforms: list | None = None   # ordered (pattern, repl) pairs
    add_tags: dict | None = None
    omit_tags: tuple = ()

    def __call__(self, batch: pa.Table, name_col: str = "name") -> pa.Table:
        # GetMetricName runs FIRST (baseemitter.go:159-183): a nameMap hit
        # short-circuits — transformations are NOT applied to the override;
        # only then is the FINAL name checked against the exclude set
        # (AddMetric field loop :281-287). ADVICE r2 ordering fix.
        s = batch[name_col].to_pandas()
        if self.name_map:
            mapped = s.map(self.name_map)  # dict map: miss → NaN
            hit = mapped.notna()
        else:
            mapped = pd.Series(index=s.index, dtype=object)
            hit = pd.Series(False, index=s.index)
        rest = s[~hit]
        for pat, repl in (self.name_transforms or []):
            rest = rest.str.replace(pat, repl, regex=True)
        final = mapped.where(hit, s)
        final[~hit] = rest
        batch = batch.set_column(batch.column_names.index(name_col), name_col,
                                 pa.array(final, type=pa.string()))
        if self.exclude:
            keep = pc.invert(pc.is_in(
                batch[name_col], value_set=pa.array(list(self.exclude))))
            batch = batch.filter(keep)
        for k, v in (self.add_tags or {}).items():
            if k in batch.column_names:  # AddTag overrides existing tags
                batch = batch.drop_columns([k])
            batch = batch.append_column(
                k, pa.array([v] * batch.num_rows, type=pa.string()))
        drop = [t for t in self.omit_tags if t in batch.column_names]
        return batch.drop_columns(drop) if drop else batch


@dataclass
class MetricRenameChain:
    """Ordered regex→replacement renames with backrefs (monitor.go:103-116)."""

    rules: list[tuple[str, str]]

    def __call__(self, batch: pa.Table, col: str = "name") -> pa.Table:
        s = batch[col].to_pandas()
        for pat, repl in self.rules:
            s = s.str.replace(pat, repl, regex=True)
        return batch.set_column(
            batch.column_names.index(col), col, pa.array(s, type=pa.string()))


def rename_dimensions(batch: pa.Table, mapping: dict[str, str]) -> pa.Table:
    """dimensionTransformations: rename columns; map-to-"" deletes
    (monitor.go:117-122)."""
    for old, new in mapping.items():
        if old not in batch.column_names:
            continue
        col = batch[old]
        batch = batch.drop_columns([old])
        if new:
            batch = batch.append_column(new, col)
    return batch


def span_durations(ds: "ray.data.Dataset") -> "ray.data.Dataset":
    """Tool-call span durations — the spanmetrics connector's input
    (components.go:347): duration of a tool turn = gap to the next turn in
    the same conversation (0 for a conversation's last turn).

    Scale shape: one ``bucket_fold`` keyed on conv_id; each fold block's
    lead/shift runs as ONE vectorized pandas pass — same pattern as
    recombine; a conversation never spans fold blocks.
    """
    from ..partitioning import bucket_fold

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["conv_id", "turn_idx"], kind="mergesort")
        nxt = g.groupby("conv_id", sort=False)["ts"].shift(-1)
        dur = (nxt - g["ts"]).dt.total_seconds().fillna(0.0)
        out = g.assign(duration_s=dur)
        out = out[(out["role"] == "tool") & (out["tool"] != "")]
        return out[["conv_id", "turn_idx", "tool", "duration_s"]]

    return bucket_fold(
        ds.select_columns(["conv_id", "turn_idx", "role", "tool", "ts"]),
        ["conv_id"], per_bucket)


def calculate_metric(
    ds: "ray.data.Dataset", keys: list[str], name_col: str,
    value_col: str, numerator: str, denominator: str, out_name: str,
) -> "ray.data.Dataset":
    """`metricsgeneration` calculate semantics: a GENERATED metric =
    metric1 / metric2 per group (the memory.utilization = used/total shape;
    reg components.go:328). Two-phase: per-batch partial sums of each input
    metric (tiny rows shuffle), one grouped reduce, ratio emitted as the
    new metric's value — null when the denominator group is absent/zero.
    """
    from ray.data.aggregate import Sum

    def partial(t: pa.Table) -> pa.Table:
        m = pc.is_in(t[name_col],
                     value_set=pa.array([numerator, denominator]))
        t = t.filter(m)
        df = t.select([*keys, name_col, value_col]).to_pandas()
        g = (df.groupby([*keys, name_col], sort=False)[value_col]
             .sum().reset_index())
        return pd_table(g)

    reduced = (ds.map_batches(partial, batch_format="pyarrow")
               .groupby([*keys, name_col])
               .aggregate(Sum(value_col, alias_name="_sum")))

    from ..partitioning import bucket_fold

    def ratio_bucket(df: pd.DataFrame) -> pd.DataFrame:
        wide = df.pivot_table(index=keys, columns=name_col, values="_sum",
                              aggfunc="sum").reset_index()
        empty = pd.DataFrame({**{k: df[k][:0] for k in keys},
                              name_col: pd.Series([], dtype=object),
                              value_col: pd.Series([], dtype=np.float64)})
        if numerator not in wide.columns or denominator not in wide.columns:
            return empty
        num = wide[numerator].to_numpy(dtype=np.float64)
        den = wide[denominator].to_numpy(dtype=np.float64)
        out = wide[keys].copy()
        out[name_col] = out_name
        # SQL division semantics (the oracle's): x/0 is NULL (NaN here —
        # both sides surface as NaN in pandas), never inf; groups missing
        # either input metric are dropped (num/den IS NOT NULL)
        with np.errstate(divide="ignore", invalid="ignore"):
            out[value_col] = np.where(den != 0, num / den, np.nan)
        present = ~np.isnan(num) & ~np.isnan(den)
        return out[present]

    # both metrics of a group co-locate via one bucketed exchange of the
    # tiny reduced rows (never repartition(1) — group cardinality can be
    # 10^8 at corpus scale); one vectorized pivot per output block
    return bucket_fold(reduced, keys, ratio_bucket, coalesce=True)


def span_duration_histogram(
    ds: "ray.data.Dataset",
    bounds: tuple = (1.0, 5.0, 15.0, 60.0, 300.0),
) -> "ray.data.Dataset":
    """spanmetrics explicit-bucket duration histogram (the connector's
    histogram output next to the count/sum of `span_durations`;
    components.go:347): per-tool counts per ``le`` bucket, `+Inf` catch-all.

    Vectorized: one np.searchsorted per batch assigns buckets; only
    (tool, le, count) partials shuffle (grouped_count two-phase).
    """
    from ..pipelines.aggregate import grouped_count

    b = np.asarray(bounds, dtype=np.float64)
    labels = np.array([str(x) for x in b] + ["+Inf"], dtype=object)

    def bucketize(t: pa.Table) -> pa.Table:
        d = t["duration_s"].to_numpy(zero_copy_only=False)
        idx = np.searchsorted(b, d, side="left")  # d <= bound → that bucket
        return pa.table({
            "tool": t["tool"],
            "le": pa.array(labels[idx], type=pa.string()),
        })

    spans = span_durations(ds)
    return grouped_count(
        spans.map_batches(bucketize, batch_format="pyarrow"), ["tool", "le"])


def span_rename(batch: pa.Table, from_attributes: list[str],
                separator: str = "::", name_col: str = "span_name",
                ) -> pa.Table:
    """`span` processor rename (name.from_attributes + separator,
    /root/reference/cmd/otelcol/config/collector/full_config_linux.yaml:465-470;
    reg internal/components/components.go:334): the span name becomes the
    listed attribute values joined by the separator; a span missing ANY of
    the attributes keeps its existing name (upstream all-present guard).
    Vectorized: one binary_join_element_wise + validity mask.
    """
    cols = [batch[a] for a in from_attributes]
    joined = pc.binary_join_element_wise(*cols, separator)
    ok = np.ones(batch.num_rows, dtype=bool)
    for c in cols:
        v = c.to_pandas()
        ok &= v.notna().to_numpy() & (v != "").to_numpy()
    old = (batch[name_col] if name_col in batch.column_names
           else pa.array([""] * batch.num_rows, type=pa.string()))
    new = pc.if_else(pa.array(ok), joined, old)
    if name_col in batch.column_names:
        return batch.set_column(
            batch.column_names.index(name_col), name_col, new)
    return batch.append_column(name_col, new)


def dimension_upsert(
    ds: "ray.data.Dataset", key: str, order: str, values: list[str]
) -> "ray.data.Dataset":
    """Last-write-wins property upsert per dimension key (output.go:303-315):
    keep each key's row with the greatest ``order`` value.

    Scale shape: per-batch partial last-row (vectorized idxmax) shrinks each
    block to ≤ one row per key before the keyed shuffle.
    """
    from ..partitioning import bucket_fold

    def partial(batch: pa.Table) -> pa.Table:
        # pandas only picks the rows; Arrow's take keeps every column's
        # type (to_pandas makes an int64 key holding a null float64)
        t = batch.select([key, order, *values])
        df = t.select([key, order]).to_pandas()
        return t.take(df.groupby(key, sort=False)[order].idxmax().to_numpy())

    def final_bucket(g: pd.DataFrame) -> pd.DataFrame:
        return g.loc[g.groupby(key, sort=False)[order].idxmax()]

    # per-batch partials shrink to ≤1 row/key/batch; the final reduce runs
    # one vectorized pandas pass per block of complete hash buckets
    return bucket_fold(
        ds.map_batches(partial, batch_format="pyarrow"),
        [key], final_bucket, coalesce=True)


# --- metricstransform aggregate operations ---------------------------------

def _mt_mask(names, include: str | None, match_type: str):
    """metricstransform include/match_type metric selector
    (cmd/otelcol/config/collector/full_config_linux.yaml:506-509):
    strict = exact name equality, regexp = regex match. None = all metrics."""
    if include is None:
        return None
    if match_type == "strict":
        return pc.equal(names, include)
    return pc.match_substring_regex(names, include)


def _mt_reduce(ds: "ray.data.Dataset", keys: list[str], value_col: str,
               aggregation_type: str) -> "ray.data.Dataset":
    """Grouped datapoint merge with mergeable (n, sum, min, max) partials —
    each batch shrinks to ≤1 row/group before the exchange, so the shuffle
    moves O(groups × blocks) rows, never the stream."""
    from ray.data.aggregate import Max, Min, Sum

    def partial(batch: pa.Table) -> pa.Table:
        g = batch.select([*keys, value_col]).group_by(keys).aggregate(
            [([], "count_all"), (value_col, "sum"),
             (value_col, "min"), (value_col, "max")])
        return g.rename_columns([*keys, "_n", "_sum", "_min", "_max"])

    combined = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby(keys)
        .aggregate(Sum("_n", alias_name="_n"), Sum("_sum", alias_name="_sum"),
                   Min("_min", alias_name="_min"),
                   Max("_max", alias_name="_max")))

    def finalize(t: pa.Table) -> pa.Table:
        if aggregation_type == "sum":
            v = t["_sum"]
        elif aggregation_type == "mean":
            v = pc.divide(pc.cast(t["_sum"], pa.float64()),
                          pc.cast(t["_n"], pa.float64()))
        elif aggregation_type == "min":
            v = t["_min"]
        elif aggregation_type == "max":
            v = t["_max"]
        else:
            raise ValueError(f"unknown aggregation_type {aggregation_type!r}")
        return (t.drop_columns(["_n", "_sum", "_min", "_max"])
                .append_column(value_col, pc.cast(v, pa.float64())))

    return combined.map_batches(finalize, batch_format="pyarrow")


def metrics_aggregate_labels(
    ds: "ray.data.Dataset", *, name_col: str, labels: list[str],
    label_set: list[str], value_col: str = "value",
    aggregation_type: str = "sum", include: str | None = None,
    match_type: str = "strict",
) -> "ray.data.Dataset":
    """metricstransform `aggregate_labels` operation
    (full_config_linux.yaml:525-540): for metrics matching `include`, keep
    only the labels in `label_set` (the rest are nulled) and merge datapoints
    that became identical with `aggregation_type` (sum|mean|min|max).

    Non-matching metrics keep all their labels, so the single grouped reduce
    passes them through unchanged — no separate pass-through branch.
    """
    drop = [c for c in labels if c not in label_set]

    def nullify(t: pa.Table) -> pa.Table:
        mask = _mt_mask(t[name_col], include, match_type)
        for c in drop:
            i = t.column_names.index(c)
            arr = t[c]
            if mask is None:
                new = pa.nulls(len(t), type=arr.type)
            else:
                new = pc.if_else(mask, pa.scalar(None, type=arr.type), arr)
            t = t.set_column(i, c, new)
        return t

    nd = ds.map_batches(nullify, batch_format="pyarrow")
    return _mt_reduce(nd, [name_col, *labels], value_col, aggregation_type)


def metrics_aggregate_label_values(
    ds: "ray.data.Dataset", *, name_col: str, labels: list[str], label: str,
    aggregated_values: list[str], new_value: str, value_col: str = "value",
    aggregation_type: str = "sum", include: str | None = None,
    match_type: str = "strict",
) -> "ray.data.Dataset":
    """metricstransform `aggregate_label_values` operation
    (full_config_linux.yaml:530-540): for metrics matching `include`,
    rewrite the listed values of `label` to `new_value`, then merge
    datapoints that became identical with `aggregation_type`."""

    def collapse(t: pa.Table) -> pa.Table:
        hit = pc.is_in(t[label],
                       value_set=pa.array(aggregated_values, type=pa.string()))
        mask = _mt_mask(t[name_col], include, match_type)
        if mask is not None:
            hit = pc.and_(mask, hit)
        i = t.column_names.index(label)
        return t.set_column(
            i, label, pc.if_else(hit, pa.scalar(new_value), t[label]))

    nd = ds.map_batches(collapse, batch_format="pyarrow")
    return _mt_reduce(nd, [name_col, *labels], value_col, aggregation_type)


# --- smartagent sql monitor row→datapoint mapping ---------------------------

def sql_monitor_datapoints(
    ds: "ray.data.Dataset", metrics: list[dict],
) -> "ray.data.Dataset":
    """smartagent ``sql`` monitor structured mapping: each query-result row
    yields one datapoint per configured Metric — name from ``metricName``,
    double value from ``valueColumn``, dimensions from ``dimensionColumns``
    (null → ''), counter vs gauge from ``isCumulative``
    (internal/signalfx-agent/pkg/monitors/sql/monitor.go:50-66,
    querier.go:190-262). Column matching is case-insensitive (querier.go:217,
    EqualFold dim matching); a null value column drops that datapoint.

    Vectorized: one select/cast per metric per batch — a row-count × #metrics
    flat union, never a per-row loop.
    """
    all_dims: list[str] = []  # first spelling wins; matching stays EqualFold
    for m in metrics:
        for d in m.get("dimensionColumns", ()):
            if d.lower() not in {x.lower() for x in all_dims}:
                all_dims.append(d)

    def fn(t: pa.Table) -> pa.Table:
        cols = {c.lower(): c for c in t.column_names}
        outs = []
        for m in metrics:
            val = pc.cast(t[cols[m["valueColumn"].lower()]], pa.float64())
            ok = pc.is_valid(val)
            n = t.num_rows
            data: dict = {
                "metric": pa.array([m["metricName"]] * n),
                "value": val,
                "type": pa.array(
                    ["counter" if m.get("isCumulative") else "gauge"] * n),
            }
            mine = {d.lower() for d in m.get("dimensionColumns", ())}
            for d in all_dims:
                if d.lower() in mine:
                    data[d] = pc.fill_null(
                        pc.cast(t[cols[d.lower()]], pa.string()), "")
                else:
                    data[d] = pa.nulls(n, type=pa.string())
            outs.append(pa.table(data).filter(ok))
        return pa.concat_tables(outs)

    return ds.map_batches(fn, batch_format="pyarrow")


def cardinality_limit(
    ds: "ray.data.Dataset", series_keys: list[str], n: int = 20,
    overflow: str = "_overflow", alias: str = "n",
) -> "ray.data.Dataset":
    """Series-cardinality limiter: keep the ``n`` highest-count series and
    collapse every other series into one ``_overflow`` bucket — the
    cardinality guard of a metrics pipeline (OTel's experimental
    cardinality limits; SignalFx per-token series caps), as a batch
    operator.

    Scale shape: series counts come from per-batch partials (bounded by
    series cardinality, never the stream), the kept-set is n tuples
    broadcast in the closure, and the relabel pass is one vectorized
    MultiIndex membership test per batch. Tie-break on (count desc, keys
    asc) is a total order, so the kept set is deterministic.
    """
    from ..pipelines.aggregate import grouped_count

    counts = grouped_count(ds, series_keys, alias=alias)
    kept_df = counts.sort([alias, *series_keys],
                          descending=[True] + [False] * len(series_keys)
                          ).limit(n).to_pandas()
    kept = pd.MultiIndex.from_frame(kept_df[series_keys].astype(object))

    def relabel(t: pa.Table) -> pa.Table:
        df = t.select(series_keys).to_pandas().astype(object)
        keep = pd.MultiIndex.from_frame(df).isin(kept)
        for kcol in series_keys:
            vals = np.where(keep, df[kcol].to_numpy(dtype=object), overflow)
            t = t.set_column(t.column_names.index(kcol), kcol,
                             pa.array(vals, type=pa.string()))
        return t

    return grouped_count(ds.map_batches(relabel, batch_format="pyarrow"),
                         series_keys, alias=alias)
