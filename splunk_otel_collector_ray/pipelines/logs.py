"""The flagship logs pipeline: read → parse → enrich → route → export/aggregate.

This is the Ray-Data expression of the reference's canonical logs service
(/root/reference/cmd/otelcol/config/collector/logs_config_linux.yaml:723-755:
``filelog* → [memory_limiter, batch] → splunk_hec``, plus the routing-connector
gateway wiring gateway_config.yaml:163-221):

    read_parquet(transcripts, columns pruned)     # filelog / otlp receive
      → map_batches(ParseStage.as_fn())           # stanza operator chain
      → map_batches(make_enrich_fn(dims))         # resourcedetection/k8s
      → map_batches(RouteStage())                 # routing connector
      → map_batches(SinkWriter(out))              # per-sink HEC exporters
      + partial (sink, severity, tool) counts     # count-connector/batch

The three transform stages are plain functions, so Ray fuses them with the
read into one task chain.

Collector concerns we get from Ray Data for free (SURVEY.md §4): streaming
backpressure (memory_limiter), re-batching (batch processor), retries, and
per-stage parallelism. What stays explicit: per-partition manifests
(file_storage checkpoint analogue — state.manifest), stable
(conv_id, turn_idx) ordering at export, and partitioning/skew strategy.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from typing import Any, Iterator

import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import ray
import ray.data

from ..corpus import ensure_transcripts
from ..stages.enrich import build_dim_table, make_enrich_fn
from ..stages.parse import ParseStage
from ..stages.route import RouteStage
from ..state import manifest as mf
from .aggregate import grouped_count

INPUT_COLUMNS = ["conv_id", "turn_idx", "role", "text", "tool", "ts"]


def read_transcripts(sf_dir: str, parallelism: int | None = None,
                     include: "list[str] | None" = None,
                     exclude: "list[str] | None" = None,
                     ) -> "ray.data.Dataset":
    """Read the transcript corpus for a testdata dir (generating if absent).

    ``include`` / ``exclude`` are filelog-style file glob lists
    (fnmatch on the basename; the receiver's include/exclude config,
    /root/reference/cmd/otelcol/config/collector/logs_config_linux.yaml:
    filelog `include:` arrays + `exclude:`): only matching part files are
    read — file pruning happens BEFORE the read, so excluded bytes never
    leave storage.
    """
    import fnmatch
    import os

    path = ensure_transcripts(sf_dir)
    if include or exclude:
        names = sorted(os.listdir(path))
        keep = []
        for n in names:
            if not n.endswith(".parquet"):
                continue
            if include and not any(fnmatch.fnmatch(n, g) for g in include):
                continue
            if exclude and any(fnmatch.fnmatch(n, g) for g in exclude):
                continue
            keep.append(os.path.join(path, n))
        if not keep:
            raise ValueError(
                f"include/exclude selected no files under {path!r}")
        return ray.data.read_parquet(
            keep, columns=INPUT_COLUMNS,
            override_num_blocks=parallelism)
    return ray.data.read_parquet(path, columns=INPUT_COLUMNS,
                                 override_num_blocks=parallelism)


def flagship_num_blocks(sf_dir: str, rows_per_task: int = 1 << 16) -> int:
    """Scale-adaptive input block count for the fused flagship chain:
    ~``rows_per_task`` rows per task, floored at 2 tasks per CPU.

    The fused read→parse→route→write chain inherits its task granularity
    from the read blocks, and both failure modes are real (r4 measured):
    per-row-group blocks at small scale → fewer tasks than CPUs when a
    downstream batch_size re-bundles (14 tasks on 32 cpus, half the
    cluster idle), and naive per-block tasks at large scale → thousands of
    tiny tasks each paying scheduler + per-sink-file overhead. Row counts
    come from parquet FOOTERS (no data read)."""
    return max(min_tasks(), corpus_row_count(sf_dir) // rows_per_task)


def min_tasks() -> int:
    """The task-count floor of both runners: 2 tasks per cluster CPU."""
    return 2 * int(ray.cluster_resources().get("CPU", 8))


def corpus_row_count(sf_dir: str) -> int:
    """Total transcript rows for a scale dir, from parquet FOOTERS only."""
    import glob as _glob

    path = ensure_transcripts(sf_dir)
    return sum(pq.read_metadata(f).num_rows
               for f in _glob.glob(os.path.join(path, "*.parquet")))


def build_logs_dataset(src: "str | ray.data.Dataset") -> "ray.data.Dataset":
    """Compose parse → enrich → route over a transcript source (lazy).

    All three are task-function stages (enrich builds its lookup once per
    task, parse and route hold no state): Ray fuses Read→parse→enrich→route
    into one task chain, with zero intermediate materialization.
    """
    # A string source gets the flagship's scale-adaptive read-block count
    # (run_flagship passes its sf_dir here): the fused
    # read→parse→enrich→route chain inherits task granularity from the
    # read blocks, and default per-row-group blocks underfill the cluster
    # at sf0.1 (measured 2.4 s vs 1.0 s for route_aggregate at 32 cpus)
    # and swarm it at sf1.6+.
    ds = (read_transcripts(src, parallelism=flagship_num_blocks(src))
          if isinstance(src, str) else src)
    dims_ref = ray.put(build_dim_table())  # broadcast ONCE, read per worker
    ds = ds.map_batches(ParseStage.as_fn(), batch_format="pyarrow")
    ds = ds.map_batches(make_enrich_fn(dims_ref), batch_format="pyarrow")
    return ds.map_batches(RouteStage(), batch_format="pyarrow")


def sink_counts(ds: "ray.data.Dataset") -> dict[str, int]:
    """Per-sink routed-row counts (HEC LogRecordCount assertion analogue,
    /root/reference/tests/testutils/hec_receiver_sink.go:120-127)."""
    pdf = grouped_count(ds, ["sink"]).to_pandas()
    return dict(zip(pdf["sink"], pdf["n"].astype(int)))


@contextmanager
def reservation_off(when: bool = True) -> Iterator[None]:
    """Scope ``DataContext.op_resource_reservation_enabled = False`` (when
    ``when``) and restore the previous value on exit, also on error.

    For map-only chains: per-operator resource reservation idles ~45% of
    CPUs there and exists to protect all-to-all ops such a chain doesn't
    have (CLAUDE.md). Keep it ON for pipelines ending in a LARGE
    all-to-all."""
    from ray.data import DataContext

    ctx = DataContext.get_current()
    prev = ctx.op_resource_reservation_enabled
    if when:
        ctx.op_resource_reservation_enabled = False
    try:
        yield
    finally:
        ctx.op_resource_reservation_enabled = prev


def _export_counts(ds: "ray.data.Dataset", out_dir: str,
                   partition_col: str | None = None,
                   stats_path: str | None = None) -> "pd.DataFrame":
    """The shared export tail: per-sink Parquet under ``out_dir`` via the
    write-through SinkWriter, and its partial counts folded to ONE frame of
    ``[partition_col,] sink, severity_text, tool, n``.

    Partials are bounded by #blocks × #groups; the coalescing combine level
    (aggregate._sum_combine) folds them so the driver-side final sum sees
    O(#groups) rows. Its num_cpus=0 keeps the combine a SEPARATE zero-cost
    operator: fused, its 65k batch_size would re-bundle the read blocks
    and cut SinkWriter's batches inside input parts, so a file's name and
    bytes would follow the batch size instead of its part (export.py).
    ``stats_path`` archives the executed chain's ``ds.stats()``."""
    from ..stages.export import SinkWriter
    from .aggregate import _sum_combine

    writer = SinkWriter(out_dir, partition_col=partition_col)
    keys = writer.group_keys
    partials = ds.map_batches(writer, batch_format="pyarrow")
    pre = _sum_combine(partials, keys, ["n"])
    pdf = pre.to_pandas().groupby(keys, as_index=False)["n"].sum()
    if stats_path:
        with open(stats_path, "w") as f:
            f.write(pre.stats())
    return pdf


def run_flagship(sf_dir: str, out_dir: str) -> dict[str, Any]:
    """End-to-end run: export per-sink Parquet + per-sink aggregates.

    ONE streaming pass: the write-through SinkWriter stage exports each
    batch's per-sink parquet and emits partial (sink, severity, tool) counts;
    the only shuffled rows are those partials (collector exporter+obsreport
    coupling, see stages/export.py). Aggregates land next to the sink dirs.
    """
    t0 = time.time()
    # map-only chain (read → fused map → combine): per-operator resource
    # reservation idles ~45% of CPUs here (measured 15.5 s vs 13.3 s at
    # sf1.6/32) and exists to protect all-to-all ops this pipeline doesn't
    # have — disable for the run, restore after. BUT reservation is also
    # what bounds the read op's buffering: with it off and a stream
    # LARGER than the object store, the read runs ahead of the fused map,
    # fills the store, and spills the overflow to disk (measured at
    # sf51.2: 56 GB stream vs 37.6 GB store → ~40 GB spill → OutOfDisk).
    # Scope it off only when the footer-estimated decoded stream
    # (~115 B/turn measured across soaks) fits in the store with headroom
    # — i.e. even a fully-run-ahead read cannot overflow it (sf25.6's
    # 29 GB stream ran spill-free in 37.6 GB under exactly that regime).
    est_stream = corpus_row_count(sf_dir) * 115
    store = int(ray.cluster_resources().get("object_store_memory", 0))
    with reservation_off(est_stream < 0.8 * (store or float("inf"))):
        ds = build_logs_dataset(sf_dir)
        routed_dir = os.path.join(out_dir, "by_sink")
        os.makedirs(routed_dir, exist_ok=True)
        # GRAFT_FLAGSHIP_STATS: soak evidence, SCALE.md audits
        agg_pdf = _export_counts(
            ds, routed_dir, stats_path=os.environ.get("GRAFT_FLAGSHIP_STATS"))
    t_route = time.time() - t0

    agg_dir = os.path.join(out_dir, "aggregates")
    os.makedirs(agg_dir, exist_ok=True)
    from ..partitioning import pd_table

    pq.write_table(pd_table(agg_pdf),
                   os.path.join(agg_dir, "sink_severity_tool.parquet"))
    counts = agg_pdf.groupby("sink")["n"].sum().astype(int).to_dict()
    return {
        "rows": int(agg_pdf["n"].sum()),
        "sink_counts": counts,
        "routed_dir": routed_dir,
        "aggregate_dir": agg_dir,
        "sec_route": round(t_route, 3),
        "sec_total": round(time.time() - t0, 3),
    }


def part_bundles(parts: list, n: int) -> list[list]:
    """``parts`` cut into ``min(len(parts), n)`` contiguous bundles, in
    order, whose sizes differ by at most one (earlier bundles take the
    remainder)."""
    n = min(len(parts), n)
    q, r = divmod(len(parts), n)
    cuts = [i * q + min(i, r) for i in range(n + 1)]
    return [parts[a:b] for a, b in zip(cuts, cuts[1:])]


def read_parts(bundles: pa.Table) -> Iterator[pa.Table]:
    """``run_resumable``'s read stage: every part file of every bundle row
    (``part`` / ``path`` lists), read WHOLE as one table, with a constant
    ``part`` column holding its id. Extra columns are not read; a part
    that lacks an input column raises ``ValueError`` naming the part and
    every column it lacks."""
    for ids, paths in zip(bundles["part"].to_pylist(),
                          bundles["path"].to_pylist()):
        for part_id, path in zip(ids, paths):
            try:
                t = pq.read_table(path, columns=INPUT_COLUMNS)
            except pa.ArrowInvalid:
                have = set(pq.read_schema(path).names)
                missing = [c for c in INPUT_COLUMNS if c not in have]
                if not missing:
                    raise
                raise ValueError(f"part file {path} lacks input column(s) "
                                 f"{', '.join(missing)}") from None
            yield t.append_column(
                "part", pa.repeat(pa.scalar(part_id), t.num_rows))


def run_resumable(sf_dir: str, out_dir: str) -> dict[str, Any]:
    """Flagship run with per-partition manifests and exactly-once resume.

    Partition = one input part file (a conversation never spans part files).
    Completed partitions (valid manifest, matching fingerprint) are skipped;
    incomplete ones have their output reset and are reprocessed in ONE Ray
    Dataset job (so the streaming executor still pipelines across partitions).

    ``sf_dir`` may be a testdata scale dir (corpus generated on demand) or a
    directory that already contains ``*.parquet`` part files.
    """
    # A directory is a ready corpus when its parquet files carry the
    # transcript schema — name-based detection ("part-" prefix) silently
    # rerouted validly-named user part files to fixture generation.
    def _is_corpus_dir(d: str) -> bool:
        if not os.path.isdir(d):
            return False
        return any(
            set(INPUT_COLUMNS) <=
            set(pq.read_schema(os.path.join(d, f)).names)
            for f in sorted(os.listdir(d)) if f.endswith(".parquet"))

    src = sf_dir if _is_corpus_dir(sf_dir) else ensure_transcripts(sf_dir)
    parts = sorted(
        os.path.join(src, f) for f in os.listdir(src) if f.endswith(".parquet")
    )
    todo: list[tuple[str, str, str]] = []  # (part_id, input_path, fingerprint)
    skipped = []
    for p in parts:
        part_id = os.path.splitext(os.path.basename(p))[0]
        fp = mf.input_fingerprint(p)
        pdir = os.path.join(out_dir, f"part={part_id}")  # hive layout dir
        if mf.is_complete(pdir, fp):
            skipped.append(part_id)
        else:
            mf.reset_partition(pdir)
            todo.append((part_id, p, fp))

    processed: dict[str, dict] = {}
    if todo:
        # tasks by CPUs, not by part files: each task reads one contiguous
        # bundle of parts (one from_items block per bundle, so no Parquet
        # sampling on the driver), every part WHOLE into its batch, and
        # SinkWriter files each run of one part under that part's dir. A
        # file's name and bytes depend on its part alone, not on the
        # bundling (up to the block-size limit in stages/export.py).
        bundles = part_bundles([(part_id, p) for part_id, p, _ in todo],
                               min_tasks())
        ds = ray.data.from_items(
            [{"part": [i for i, _ in b], "path": [p for _, p in b]}
             for b in bundles], override_num_blocks=len(bundles))
        ds = build_logs_dataset(
            ds.map_batches(read_parts, batch_format="pyarrow"))
        # single pass: per-partition per-sink export + lineage partials
        # (manifest counts come from the SAME pass, no output re-read)
        cpdf = _export_counts(ds, out_dir, partition_col="part")
        # one pass over the combined frame, not one full scan per part
        by_part = dict(tuple(cpdf.groupby("part")))
        empty = cpdf.iloc[0:0]
        for part_id, p, fp in todo:
            sub = by_part.get(part_id, empty)
            sinks = sub.groupby("sink")["n"].sum().astype(int)
            payload = {
                "partition": part_id,
                "input": p,
                "fingerprint": fp,
                "rows": int(sub["n"].sum()),
                "sink_counts": sinks.to_dict(),
                # batch-processor roll-up analogue: per-severity counters
                "severity_counts": sub.groupby("severity_text")["n"].sum()
                .astype(int).to_dict(),
            }
            mf.write_manifest(os.path.join(out_dir, f"part={part_id}"), payload)
            processed[part_id] = payload
    return {"skipped": skipped, "processed": processed, "out_dir": out_dir}
