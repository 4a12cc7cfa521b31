"""Distributed as-of join — a correlation primitive Ray Data lacks.

The reference correlates telemetry streams by time windows (e.g. the
correlation TTL store, state/correlation.py; trace/log association in
internal/exporter/signalfxexporter correlation client); the general batch
form of that is the as-of join: each left row matches the LATEST right row
with the same key and ``right.on <= left.on``.

Shape (the engine's standard grouped-op plan, CLAUDE.md): tag each side,
project both to one common schema, union, ONE ``bucket_fold`` keyed on
``by``, then a single vectorized ``pandas.merge_asof`` per fold
block — no per-key tasks, both streams move exactly once. The
partitioning assumption: a single key's rows fit one bucket's worth of
memory (keys are hash-spread; B is cluster-derived).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa


def _project(side: "ray.data.Dataset", tag: int,
             schema_types: "dict[str, pa.DataType]") -> "ray.data.Dataset":
    def fn(t: pa.Table) -> pa.Table:
        n = t.num_rows
        cols = {}
        for c, typ in schema_types.items():
            cols[c] = t[c] if c in t.column_names else pa.nulls(n, type=typ)
        cols["_side"] = pa.array(np.full(n, tag, dtype=np.int8))
        return pa.table(cols)

    return side.map_batches(fn, batch_format="pyarrow")


def _restore_int_cols(df: pd.DataFrame, cols, schema_types) -> pd.DataFrame:
    """The union stage nulls left payloads on right-side rows, promoting
    int columns to float64 in pandas; restore integer dtype via pandas
    NULLABLE Int64 so every block emits the same Arrow type (int64)
    regardless of whether it happens to contain a null — a conditional
    all-non-null cast made block dtype data-dependent (int64 vs float64),
    breaking schema unification whenever one bucket held a null."""
    for c in cols:
        if pa.types.is_integer(schema_types[c]):
            df[c] = df[c].astype("Int64")
    return df


def asof_join(left: "ray.data.Dataset", right: "ray.data.Dataset",
              by: str, on: str, left_cols: list[str],
              right_cols: list[str],
              direction: str = "backward") -> "ray.data.Dataset":
    """As-of join ``left`` to ``right`` on ``by`` + time column ``on``.

    ``left_cols`` / ``right_cols`` are the payload columns each side
    contributes (disjoint names; ``by``/``on`` are implicit). Unmatched
    left rows keep null right payloads (left-outer as-of semantics, like
    DuckDB's ``ASOF LEFT JOIN``). Ties on ``on`` are inclusive
    (``right.on <= left.on`` for backward).
    """
    from ..partitioning import bucket_fold, pd_table

    lsch, rsch = left.schema(), right.schema()
    types = dict(zip(lsch.names, lsch.types))
    types.update(dict(zip(rsch.names, rsch.types)))
    schema_types = {c: types[c]
                    for c in [by, on] + list(left_cols) + list(right_cols)}
    both = _project(left, 0, schema_types).union(
        _project(right, 1, schema_types))

    def bucket_asof(g: pd.DataFrame) -> pd.DataFrame:
        lf = g[g["_side"] == 0].sort_values(on, kind="mergesort")
        # a null key matches nothing (DuckDB's ASOF LEFT JOIN)
        rt = g[(g["_side"] == 1) & g[by].notna()].sort_values(
            on, kind="mergesort")
        out = pd.merge_asof(
            lf[[by, on] + list(left_cols)],
            rt[[by, on] + list(right_cols)].rename(columns={on: on + "_r"}),
            left_on=on, right_on=on + "_r", by=by, direction=direction)
        out = out.drop(columns=[on + "_r"])  # internal probe column
        # emit ARROW (int64 with nulls), so block schemas are stable
        # and the driver-facing to_pandas decides int64-vs-float64
        # once per whole column, like the SQL oracle
        return pd_table(_restore_int_cols(out, [by, *left_cols],
                                          schema_types))

    return bucket_fold(both, [by], bucket_asof)


def range_join_count(left: "ray.data.Dataset", right: "ray.data.Dataset",
                     by: str, on: str, window: "np.timedelta64",
                     left_cols: list[str], out_col: str = "n_in_window"
                     ) -> "ray.data.Dataset":
    """Range join as a count: for each left row, the number of right rows
    with the same key in ``(left.on, left.on + window]`` — the banded/
    range-join primitive (e.g. clicks within 60 s after each error).

    Same bucketed single-exchange plan as :func:`asof_join`; inside a
    bucket the count is two vectorized ``merge_asof`` passes over the
    right side's per-key cumulative counter:
    ``count(t0, t1] = cum_at(t1) - cum_at(t0)`` where ``cum_at(x)`` is the
    per-key count of right rows with ``on <= x``. No per-key Python loop.
    """
    from ..partitioning import bucket_fold, pd_table

    lsch = left.schema()
    types = dict(zip(lsch.names, lsch.types))
    schema_types = {c: types[c] for c in [by, on] + list(left_cols)}
    rt_types = {by: types[by], on: types[on]}
    both = _project(left, 0, schema_types).union(
        _project(right.select_columns([by, on]), 1,
                 {**schema_types, **rt_types}))

    def bucket_count(g: pd.DataFrame) -> pd.DataFrame:
        lf = g[g["_side"] == 0].sort_values(on, kind="mergesort")
        rt = g[g["_side"] == 1].sort_values([by, on],
                                           kind="mergesort")[[by, on]]
        rt = rt.assign(_cum=rt.groupby(by).cumcount() + 1) \
               .sort_values(on, kind="mergesort")

        def cum_at(times: pd.Series) -> np.ndarray:
            probe = lf[[by]].assign(_t=times.to_numpy()) \
                            .sort_values("_t", kind="mergesort")
            m = pd.merge_asof(probe, rt.rename(columns={on: "_t"}),
                              on="_t", by=by, direction="backward")
            # merge_asof resets the index; restore probe's original (lf)
            # labels, then realign to lf row order
            return m.set_index(probe.index)["_cum"] \
                .fillna(0).reindex(lf.index).to_numpy()

        at_t = cum_at(lf[on])
        at_upper = cum_at(lf[on] + window)
        out = lf[[by, on] + list(left_cols)].copy()
        out = _restore_int_cols(out, [by, *left_cols], schema_types)
        out[out_col] = (at_upper - at_t).astype(np.int64)
        return pd_table(out)

    return bucket_fold(both, [by], bucket_count)
