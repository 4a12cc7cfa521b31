"""Windowed aggregates — tumbling, sliding, session (event-time, batch-mode).

The reference collector has NO event-time windowing (SURVEY §2.12 — its only
time behavior is batch-timeout flushing), but a large-scale telemetry/training
pipeline needs windows; these are the Ray-Data-native constructions:

- tumbling: window id is a pure row function (`floor_temporal`) → add-column
  + two-phase grouped count — no extra shuffle beyond the aggregate.
- sliding: each row expands to size/slide window memberships (vectorized
  repeat) → partial counts per (key, window) per batch → grouped sum. The
  expansion happens on the tiny (key, window) partials, never on full rows.
- session: gap-based; needs per-key ordering → hash-bucketed vectorized pass
  (same pattern as recombine; one pandas pass per bucket).

Ordering/keys assumption: session windows require all rows of a key in one
bucket, ordered by (ts, tiebreaker); tumbling/sliding are order-free.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray.data
from ray.data.aggregate import Sum

from ..partitioning import pd_table


def tumbling_counts(
    ds: "ray.data.Dataset", keys: list[str], ts_col: str = "ts",
    unit: str = "hour",
) -> "ray.data.Dataset":
    """Per (keys…, window_start) count — window id via floor_temporal."""

    def add_window(t: pa.Table) -> pa.Table:
        return t.append_column("window_start",
                               pc.floor_temporal(t[ts_col], unit=unit))

    from ..pipelines.aggregate import grouped_count

    return grouped_count(
        ds.map_batches(add_window, batch_format="pyarrow"),
        [*keys, "window_start"])


def sliding_counts(
    ds: "ray.data.Dataset", keys: list[str], ts_col: str = "ts",
    size_s: int = 3600, slide_s: int = 1800,
) -> "ray.data.Dataset":
    """Per (keys…, window_start) count for overlapping windows.

    Each event belongs to ``size/slide`` windows; the k-fold copy happens on
    the per-row key frame INSIDE the batch (memory bounded by k × batch
    size) before an in-batch groupby, so only the per-batch partial rows
    (≤ groups × k) ever reach the shuffle.
    """
    assert size_s % slide_s == 0, "size must be a multiple of slide"
    k = size_s // slide_s

    def partial(t: pa.Table) -> pa.Table:
        epoch = pc.cast(t[ts_col], pa.int64()).to_numpy(
            zero_copy_only=False) // 1_000_000
        base = (epoch // slide_s) * slide_s
        df = t.select(keys).to_pandas()
        frames = []
        for j in range(k):
            f = df.copy()
            f["window_start"] = base - j * slide_s
            frames.append(f)
        big = pd.concat(frames, ignore_index=True)
        big = big[big["window_start"] >= 0]
        g = (big.groupby([*keys, "window_start"], observed=True)
             .size().reset_index(name="n"))
        g["window_start"] = pd.to_datetime(g["window_start"], unit="s")
        return pd_table(g)

    from ..pipelines.aggregate import _sum_combine

    partials = ds.map_batches(partial, batch_format="pyarrow")
    # coalesce the tiny per-batch partials before the Aggregate (its
    # ~80 ms/input-block fixed cost dominates on thousands of them)
    partials = _sum_combine(partials, [*keys, "window_start"], ["n"])
    return partials.groupby([*keys, "window_start"]).aggregate(
        Sum("n", alias_name="n"))


def session_windows(
    ds: "ray.data.Dataset", key: str, ts_col: str = "ts",
    gap_s: int = 600, order_col: str | None = None,
) -> "ray.data.Dataset":
    """Gap-based sessions per key: (key, session_id, session_start, n).

    New session when > gap since the key's previous event; per-key streams
    are co-located by one ``bucket_fold`` keyed on ``key`` and processed
    in one vectorized pass per fold block.
    """
    from ..partitioning import bucket_fold

    order = [key, ts_col] + ([order_col] if order_col else [])

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(order, kind="mergesort")
        gap = g.groupby(key, sort=False)[ts_col].diff()
        new = gap.isna() | (gap > pd.Timedelta(seconds=gap_s))
        sid = new.groupby(g[key], sort=False).cumsum() - 1
        g = g.assign(session_id=sid.astype(np.int64))
        out = (g.groupby([key, "session_id"], sort=True)
               .agg(session_start=(ts_col, "min"), n=(ts_col, "size"))
               .reset_index())
        out["n"] = out["n"].astype(np.int64)
        return out

    return bucket_fold(ds, [key], per_bucket)


def drop_late(
    ds: "ray.data.Dataset", ts_col: str = "ts",
    allowed_lateness_us: int = 3_600_000_000,
) -> "ray.data.Dataset":
    """Watermark late-data gate: drop rows older than
    ``max(ts) - allowed_lateness`` — the batch-mode equivalent of a
    streaming engine's watermark discard (the record would have missed its
    window's flush). Two passes, both bounded: per-batch max-ts partials
    (one i64 per batch) → driver max → broadcast watermark filter. The
    stream itself never shuffles.
    """
    # both passes (watermark partials, then the gate) consume ds — pin it
    # once so an expensive upstream chain does not execute twice (the
    # pack_documents precedent; for a plain read the pin costs one pass)
    ds = ds.materialize()

    def partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({"m": pa.array([], pa.timestamp("us"))})
        return pa.table({"m": [pc.max(t[ts_col]).as_py()]})

    mx = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    if not len(mx):
        return ds
    watermark = mx["m"].max() - pd.Timedelta(microseconds=allowed_lateness_us)

    def gate(t: pa.Table) -> pa.Table:
        return t.filter(pc.greater_equal(
            t[ts_col], pa.scalar(watermark, pa.timestamp("us"))))

    return ds.map_batches(gate, batch_format="pyarrow")
