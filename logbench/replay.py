"""Traced, Ray-free replay of ``run_resumable``'s chain, batch by batch.

One batch is one input part file (the run's partition unit). Each layer is
the program's public function, called exactly as the Ray chain calls it:

    read → tag → ParseStage → EnrichStage → RouteStage
         → SinkWriter(partition_col="part")      per batch
    combine → manifest.write_manifest            once per run

Every call is one span (layer, start, end, batch id, parent span id). The
spans are held in a list and written out when the run ends. A layer's self
time is its span's duration minus the part covered by its child spans.

Probes that are not part of the chain run outside the replay's root span,
so they do not count towards its wall time: ``ParseStage.classify`` on each
batch's text (``parse.classify_s``), and a per-family parse pass
(``parse.us_per_row.<family>``).
"""

from __future__ import annotations

import os
import shutil
import time
from contextlib import contextmanager

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from splunk_otel_collector_ray.pipelines.aggregate import _sum_fold
from splunk_otel_collector_ray.pipelines.logs import INPUT_COLUMNS
from splunk_otel_collector_ray.stages.enrich import EnrichStage, build_dim_table
from splunk_otel_collector_ray.stages.export import SinkWriter
from splunk_otel_collector_ray.stages.parse import DETECT, ParseStage
from splunk_otel_collector_ray.stages.route import RouteStage
from splunk_otel_collector_ray.state import manifest as mf

PART_KEYS = ["part", "sink", "severity_text", "tool"]


class Tracer:
    """In-memory span recorder."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, layer: str, batch: str | None = None):
        sid = len(self.spans)
        rec = {"id": sid, "layer": layer, "batch": batch,
               "parent": self._stack[-1] if self._stack else None,
               "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield rec
        finally:
            self._stack.pop()
            rec["end"] = time.perf_counter()

    def self_times(self) -> dict[str, float]:
        """Σ self time per layer (children are sequential, never overlap)."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        out: dict[str, float] = {}
        for s, c in zip(self.spans, child):
            out[s["layer"]] = out.get(s["layer"], 0.0) + (
                s["end"] - s["start"] - c)
        return out


def _read(path: str) -> pa.Table:
    """The part file with the ``path`` column ``read_parquet(...,
    include_paths=True)`` adds."""
    t = pq.read_table(path, columns=INPUT_COLUMNS)
    return t.append_column("path", pa.array([path]).take(
        np.zeros(t.num_rows, dtype=np.int64)))


def _tag(t: pa.Table) -> pa.Table:
    # run_resumable's tag_part
    base = pc.replace_substring_regex(t["path"], r"^.*/|\.parquet$", "")
    return t.drop_columns(["path"]).append_column("part", base)


def replay(parts: list[str], out_dir: str) -> dict:
    """Run the chain once over ``parts``; return spans, counts and timings."""
    tr = Tracer()
    parse = ParseStage()
    enrich = EnrichStage(build_dim_table())
    route = RouteStage()
    writer = SinkWriter(out_dir, partition_col="part")
    tagged, formats, enriched, partials = [], [], [], []
    with tr.span("replay") as root:
        for p in parts:
            part_id = os.path.splitext(os.path.basename(p))[0]
            with tr.span("batch", part_id):
                with tr.span("read", part_id):
                    t = _read(p)
                with tr.span("tag", part_id):
                    t = _tag(t)
                tagged.append(t)
                with tr.span("parse", part_id):
                    t = parse(t)
                formats.append(t["log_format"])
                with tr.span("enrich", part_id):
                    t = enrich(t)
                enriched.append(t)
                with tr.span("route", part_id):
                    t = route(t)
                with tr.span("export", part_id):
                    partials.append(writer(t))
        with tr.span("aggregate"):
            # _sum_combine's fold, then run_resumable's final pandas fold
            pre = _sum_fold(PART_KEYS, ["n"])(pa.concat_tables(partials))
            cpdf = pre.to_pandas().groupby(PART_KEYS, as_index=False)["n"].sum()
            by_part = dict(tuple(cpdf.groupby("part")))
        for p in parts:
            part_id = os.path.splitext(os.path.basename(p))[0]
            with tr.span("manifest", part_id):
                sub = by_part[part_id]
                payload = {
                    "partition": part_id, "input": p,
                    "fingerprint": mf.input_fingerprint(p),
                    "rows": int(sub["n"].sum()),
                    "sink_counts": sub.groupby("sink")["n"].sum()
                    .astype(int).to_dict(),
                    "severity_counts": sub.groupby("severity_text")["n"]
                    .sum().astype(int).to_dict(),
                }
                mf.write_manifest(os.path.join(out_dir, f"part={part_id}"),
                                  payload)
    wall = root["end"] - root["start"]
    counts = {
        "read.rows": sum(len(f) for f in formats),
        "parse.hits": sum(pc.sum(pc.not_equal(f, "plain")).as_py()
                          for f in formats),
        "enrich.bytes": sum(t.nbytes for t in enriched),
    }
    sink_rows = {s: int(cpdf.loc[cpdf["sink"] == s, "n"].sum())
                 for s in route.sinks}
    self_t = tr.self_times()

    # probe: the classify share of parse, on the same batches
    t0 = time.perf_counter()
    for t in tagged:
        parse.classify(t["text"].combine_chunks())
    classify_s = time.perf_counter() - t0

    files = [os.path.join(d, f) for d, _, fs in os.walk(out_dir)
             for f in fs if f.endswith(".parquet")]
    return {
        "tracer": tr, "wall": wall, "self": self_t,
        "classify_s": classify_s, "counts": counts, "sink_rows": sink_rows,
        "partial_rows": pre.num_rows,
        "export_files": len(files),
        "export_bytes": sum(os.path.getsize(f) for f in files),
    }


def replays(parts: list[str], out_dir: str, n: int) -> dict:
    """``n`` replays, each into a fresh ``out_dir``. Returns the replay
    with the median wall time, so its self times add up to its wall; the
    classify probe is the median over the replays."""
    runs = []
    for _ in range(n):
        shutil.rmtree(out_dir, ignore_errors=True)
        runs.append(replay(parts, out_dir))
    walls = [r["wall"] for r in runs]
    out = dict(runs[walls.index(float(np.median(walls)))])
    out["classify_s"] = float(np.median([r["classify_s"] for r in runs]))
    out["spans"] = [dict(s, replay=i) for i, r in enumerate(runs)
                    for s in r["tracer"].spans]
    return out


def family_costs(sample: pa.Table, repeats: int = 3) -> dict[str, float]:
    """µs per row of ``ParseStage`` run on each family's rows alone.

    ``sample`` is raw input; its rows are split by the family the parse
    stage itself assigns. Median of ``repeats`` passes per family."""
    parse = ParseStage()
    codes, names = parse.classify(sample["text"].combine_chunks())
    out = {}
    for code, name in enumerate(names):
        rows = sample.filter(pa.array(codes == code))
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            parse(rows)
            times.append(time.perf_counter() - t0)
        out[name] = float(np.median(times)) / rows.num_rows * 1e6
    return out


FAMILY_NAMES = [name for name, _, _ in DETECT] + ["plain"]
