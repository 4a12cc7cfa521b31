"""Explicit partitioning & skew strategy — the 100 TB design knobs.

North-rule requirements made concrete:

- ONE owner of the bucket decision: :func:`bucket_fold`. Operators name
  the KEY columns whose equal values must meet in one fold call; this
  module alone knows the hash and the bucket domain (the loadbalancing
  exporter's consistent-hash routing key analogue, components.go:306).
  Recombine, span durations, sessionization and ordered export all
  co-locate on their conversation key this way.
- Pre-aggregation everywhere: every grouped aggregate in
  ``pipelines/aggregate`` emits per-batch partials, so a hot key contributes
  at most one row per batch to the shuffle — count-like aggregates are
  skew-immune by construction.
- For grouped ops that need the ROWS co-located (stitching, per-group
  pandas), hot keys are detected in a cheap first pass (two-pass plan,
  SURVEY.md §7.5) and split into salted sub-groups when the operation
  tolerates it; order-dependent stitches keep a conversation whole —
  the bucket size bound is then `max conv length`, which the corpus keeps
  ≪ block size.

This module provides the reusable pieces: the keyed exchange
(:func:`bucket_fold`) and the keyed join on it (:func:`bucket_join`),
hot-key detection (tiny partial counts), salted bucket assignment, and
the sorted-segment stitch (:func:`segment_fold`).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray.data
from ray.data.aggregate import Sum
from ray.data.block import BlockAccessor

# bucket_fold's internal exchange column: tagged before the sort and
# dropped before the fold, so no operator ever sees (or names) it
_BUCKET = "__bucket"
# bucket_join's side tag (0 left, 1 right); each side's own columns travel
# under an "L."/"R." prefix, so no user column can take this name
_SIDE = "__side"


def _domain() -> int:
    """Bucket DOMAIN of every :func:`bucket_fold` exchange: 64× a
    cluster-derived task-level count of 2 grouped tasks per CPU, floored
    at 64 (at 32 single-node CPUs the proven 64-bucket shape — 128 cost
    5-10% in tiny-group overhead at sf0.1 — while a 256-node/8k-CPU
    cluster scales automatically). The fold runs one vectorized pass per
    output BLOCK (not per bucket), so a wide domain costs nothing, and it
    keeps the bucket value count far above the sort partition count (=
    upstream block count): Ray's sort emits every surplus partition as a
    schemaless EMPTY block that bypasses downstream UDFs (ray
    plan_udf_map_op.py TODO(hchen)) and trips schema-divergence warnings.
    With values ≫ partitions every partition is populated and the
    executor sees one stable schema."""
    import ray

    try:
        cpus = int(ray.cluster_resources().get("CPU", 16))
    except Exception:  # no session yet (pure planning context)
        cpus = 16
    return 64 * max(64, 2 * cpus)


def _key_hash(col: "pa.Array | pa.ChunkedArray") -> np.ndarray:
    """uint64 hash of one key column, dispatched on its ARROW type (never
    the NumPy dtype, which turns int64-with-nulls into float64 per block).
    Equal keys hash equal whatever else their block holds: a null hashes
    to 0 in every type; integer, boolean and temporal keys hash as their
    int64 values, and so does a float key holding a whole number — a
    pandas round trip turns an int64 block with a null into float64, and
    its keys must keep their buckets. Beyond those, a key column must keep
    one Arrow type across blocks (a timestamp keeps its unit)."""
    typ = col.type
    if pa.types.is_string(typ) or pa.types.is_large_string(typ):
        v = pc.fill_null(col, "").to_numpy(zero_copy_only=False)
    elif pa.types.is_floating(typ):
        f = pc.fill_null(col, 0.0).to_numpy(zero_copy_only=False) \
            .astype(np.float64)
        whole = np.isfinite(f) & (f == np.trunc(f)) & (np.abs(f) < 2.0**63)
        v = np.where(whole, np.where(whole, f, 0).astype(np.int64),
                     f.view(np.int64))
    else:
        if pa.types.is_temporal(typ):
            col = pc.cast(col, pa.int32() if typ.bit_width == 32
                          else pa.int64())
        v = pc.fill_null(pc.cast(col, pa.int64(), safe=False), 0) \
            .to_numpy(zero_copy_only=False)
    h = pd.util.hash_array(v)
    if col.null_count:
        h[pc.is_null(col).to_numpy(zero_copy_only=False)] = 0
    return h


def pd_table(df: pd.DataFrame) -> pa.Table:
    """``pa.Table.from_pandas`` WITHOUT the ``b'pandas'`` schema metadata.

    The metadata dict makes the Arrow schema unhashable, which knocks Ray's
    per-reduce-task schema deduplication (``transform_pyarrow.unify_schemas``
    early-exit) onto its slow full-unify path and logs
    ``Failed to hash the schemas`` per task — measurable overhead in every
    shuffle whose map side built tables from pandas."""
    return pa.Table.from_pandas(df, preserve_index=False) \
        .replace_schema_metadata(None)


def read_parquet_clean(path: str, **kw) -> "ray.data.Dataset":
    """``ray.data.read_parquet`` with the file's ``b'pandas'`` schema
    metadata stripped at the source (same rationale as :func:`pd_table` —
    pandas-written parquet carries a metadata dict that makes every
    downstream shuffle/join schema unhashable). Passing the stripped
    schema through ``read_parquet(schema=...)`` keeps projection pushdown
    intact, unlike a post-read map_batches."""
    import glob
    import os

    import pyarrow.parquet as pq

    if "schema" not in kw:
        p = path if os.path.isfile(path) else sorted(
            glob.glob(os.path.join(path, "*.parquet")))[0]
        schema = pq.read_schema(p).remove_metadata()
        if kw.get("columns"):
            # read_parquet requires schema ⊆ columns when both are given
            schema = pa.schema([schema.field(c) for c in kw["columns"]])
        kw["schema"] = schema
    return ray.data.read_parquet(path, **kw)


def bucket_fold(ds: "ray.data.Dataset", key_cols: "list[str]", fold,
                batch_format: str = "pandas",
                coalesce: bool = False) -> "ray.data.Dataset":
    """ONE keyed exchange + ONE vectorized ``fold`` pass per output block.

    Rows with equal values in ``key_cols`` meet in one ``fold`` call. The
    exchange is ``sort(bucket) + map_batches(fold, batch_size=None)``
    instead of ``groupby(keys).map_groups(fold)``: the sort already
    guarantees a bucket value never splits across output blocks
    (verified empirically — Ray's range partitioner sends boundary-equal
    rows to one side), so the fold sees unions of COMPLETE buckets and
    must be bucket-agnostic (vectorized over its keys — every fold in
    this repo already is). Wins over map_groups: no per-group Python
    splitting loop (one pandas pass per block, ~20-40%% faster measured
    at 1M rows), and with the :func:`_domain` width there are no empty
    sort partitions, hence none of Ray's schemaless empty blocks.

    Order of work: strip the ``b'pandas'`` schema metadata and tag each
    row's bucket in one fused map (the key columns' :func:`_key_hash`
    values combined by multiply-add in uint64, mod :func:`_domain`),
    coalesce, sort, then drop the internal bucket column before the fold
    runs; the key columns stay in the rows the fold sees. A key column
    must keep one Arrow type across blocks, up to what :func:`_key_hash`
    forgives.

    ``coalesce``: for TINY-ROW exchanges (hash/pair/partial shrink streams
    — fixed-width columns, no text payload), fold many small input blocks
    into few before the sort: the Sort op pays per-block fixed costs that
    dominate when the stream is thousands of ~250 KB blocks (measured:
    exact_dedup 1.65 s → 0.94 s at 1M rows with 128k-row batches).
    Leave it off when blocks carry text/binary payloads — there the copy
    costs more than the per-block overhead saved (measured on recombine).
    """
    domain = _domain()

    # strip + tag BEFORE the coalesce: this map carries no resource
    # override so it fuses into the producer task and the b'pandas'
    # metadata dies there; coalesce breaks fusion (num_cpus=0), so a
    # coalesce-then-strip order ships metadata-carrying bundles across
    # two operator boundaries — each logging "Failed to hash the schemas"
    # once bundles go multi-block (sf0.1+)
    def tag(t: pa.Table) -> pa.Table:
        h = np.zeros(t.num_rows, dtype=np.uint64)
        for c in key_cols:
            h = h * np.uint64(0x9E3779B97F4A7C15) + _key_hash(t[c])
        return t.replace_schema_metadata(None).append_column(
            _BUCKET, pa.array((h % np.uint64(domain)).astype(np.int32)))

    def run(t: pa.Table):
        batch = BlockAccessor.for_block(t.drop_columns([_BUCKET]))
        return fold(batch.to_batch_format(batch_format))

    ds = ds.map_batches(tag, batch_format="pyarrow", batch_size=None)
    if coalesce:
        ds = coalesce_blocks(ds, 1 << 17)
    return ds.sort(_BUCKET).map_batches(
        run, batch_size=None, batch_format="pyarrow")


def _arrow_type(t) -> pa.DataType:
    """A Ray schema's column type as Arrow: a pandas block reports NumPy
    dtypes, and an ``object`` column (no Arrow twin) reads as null."""
    if isinstance(t, pa.DataType):
        return t
    try:
        return pa.from_numpy_dtype(t)
    except (TypeError, pa.ArrowNotImplementedError):
        return pa.null()


def bucket_join(left: "ray.data.Dataset", right: "ray.data.Dataset",
                on: str, right_on: "str | None" = None,
                how: str = "inner") -> "ray.data.Dataset":
    """Keyed equi-join on ONE :func:`bucket_fold`: rows whose ``on`` (left)
    and ``right_on`` (right, default ``on``) keys are equal meet in one
    fold block, and each block runs one vectorized ``pa.Table.join``.

    Each side is projected to its own columns under an ``L.``/``R.`` name
    prefix plus a side tag, and the key travels in the left key's column
    on both sides; the union promotes the two column sets, so neither
    side's schema is read up front. The output holds the left columns in
    their order, then the right side's non-key columns: the right key
    folds into the left key. A null key matches nothing (``inner`` drops
    its row, ``left_outer`` keeps it with a null right payload), and a key
    column follows :func:`_key_hash`'s one-type rule. A right non-key
    column named like a left column raises ``ValueError`` naming it.

    ``left_outer`` materializes the right side first: a fold block that
    holds no right row must still emit the right columns, and the
    materialized schema names them without a second run of the right
    side's pipeline."""
    if how not in ("inner", "left_outer"):
        raise ValueError(f"bucket_join how={how!r}: 'inner' or 'left_outer'")
    right_on = right_on or on
    join_kind = how.replace("_", " ")
    key = "L." + on
    payload: "dict[str, pa.DataType]" = {}
    if how == "left_outer":
        right = right.materialize()
        schema = right.schema()
        for n, t in zip(schema.names, schema.types) if schema else ():
            if n != right_on:
                payload[n] = _arrow_type(t)

    def project(prefix: str, own_key: str, tag: int):
        def fn(t: pa.Table) -> pa.Table:
            names = [key if c == own_key else prefix + c
                     for c in t.column_names]
            return t.rename_columns(names).append_column(
                _SIDE, pa.array(np.full(t.num_rows, tag, dtype=np.int8)))
        return fn

    def fold(t: pa.Table) -> pa.Table:
        lcols = [c for c in t.column_names if c.startswith("L.")]
        rcols = [key] + [c for c in t.column_names if c.startswith("R.")]
        is_left = pc.equal(t[_SIDE], 0)
        lt = t.select(lcols).filter(is_left).rename_columns(
            [c[2:] for c in lcols])
        rt = t.select(rcols).filter(pc.invert(is_left)).rename_columns(
            [on] + [c[2:] for c in rcols[1:]])
        for c in rt.column_names[1:]:
            if c in lt.column_names:
                raise ValueError(
                    f"bucket_join: column {c!r} is on both sides")
        out = lt.join(rt, on, None, join_kind)  # pyarrow's Table.join
        for c, typ in payload.items():  # no right row, no right columns
            if c not in out.column_names:
                out = out.append_column(c, pa.nulls(out.num_rows, typ))
        return out

    both = left.map_batches(project("L.", on, 0), batch_format="pyarrow") \
        .union(right.map_batches(project("R.", right_on, 1),
                                 batch_format="pyarrow"))
    # the sort makes one partition per input block, and a join's output
    # feeds the next join (the BSP rounds): bundle the union into tasks of
    # >= 2^17 rows first, in a map that fuses with bucket_fold's tag. A
    # zero-CPU coalesce (bucket_fold's coalesce=True) stalled a 12.5M-row
    # join under Ray Data's resource budget (4x slower on 4 CPUs)
    both = both.map_batches(lambda t: t, batch_format="pyarrow",
                            batch_size=1 << 17)
    return bucket_fold(both, [key], fold, batch_format="pyarrow")


def segment_fold(t: pa.Table, key: str, order: str, value: str,
                 sep: str = "",
                 flag: "pa.Array | pa.ChunkedArray | None" = None,
                 exclusive: bool = False) -> pa.Table:
    """Sort-segment fold: order rows by ``(key, order)``, cut them into
    segments and join each segment's ``value`` strings with ``sep`` — the
    one stitch every ordered fold in the repo runs (recombine, multiline
    framing, document reassembly).

    Segments are runs of equal ``key``. With a boolean ``flag`` (aligned
    with ``t``'s rows) each key's rows are further numbered into records
    by a prefix sum of the flag that restarts at every key: INCLUSIVE
    (a record starts at a flagged row; rows before the first flag form
    record 0) or, with ``exclusive``, EXCLUSIVE (a record ends at, and
    includes, a flagged row). A null value joins as ``""``, a null flag
    is False and null keys form one segment, sorted last. Bucket-agnostic and vectorized: one stable Arrow sort, NumPy
    boundary and prefix-sum arrays, one :func:`join_segments`.

    Returns one row per segment in ``(key, record)`` order with columns
    ``key``, ``record_id`` (int64, only when ``flag`` is given), ``value``
    (the joined string) and ``n`` (int64 rows in the segment)."""
    idx = pc.sort_indices(t, sort_keys=[(key, "ascending"),
                                        (order, "ascending")])
    keys = t[key].take(idx).combine_chunks()
    a, b = keys[1:], keys[:-1]
    # null == null is no change; null against a value is one
    changed = pc.or_(pc.fill_null(pc.not_equal(a, b), False),
                     pc.xor(pc.is_null(a), pc.is_null(b)))
    starts = np.ones(len(keys), dtype=bool)
    starts[1:] = changed.to_numpy(zero_copy_only=False)
    if flag is not None:
        f = pc.fill_null(flag, False).take(idx).to_numpy(
            zero_copy_only=False).astype(np.int64)
        csum = np.cumsum(f)
        first = np.flatnonzero(starts)
        run = np.diff(np.append(first, len(f)))
        rid = csum - np.repeat(csum[first] - f[first], run)
        if exclusive:
            rid -= f
        starts[1:] |= rid[1:] != rid[:-1]
    pos = np.flatnonzero(starts)
    out = {key: keys.take(pa.array(pos))}
    if flag is not None:
        out["record_id"] = pa.array(rid[pos], type=pa.int64())
    out[value] = join_segments(pc.fill_null(t[value], "").take(idx), pos, sep)
    out["n"] = pa.array(np.diff(np.append(pos, len(keys))), type=pa.int64())
    return pa.table(out)


def join_segments(values: "pa.Array | pa.ChunkedArray", starts: np.ndarray,
                  sep: str) -> pa.Array:
    """Join consecutive runs of ``values`` with ``sep``: segment i is
    ``values[starts[i]:starts[i + 1]]`` (the last runs to the end). One
    ``ListArray`` over the start offsets + one ``pc.binary_join`` in Arrow
    C++ — the join half of :func:`segment_fold`."""
    if isinstance(values, pa.ChunkedArray):
        values = values.combine_chunks()
    offsets = np.append(starts, len(values)).astype(np.int32)
    lists = pa.ListArray.from_arrays(pa.array(offsets), values)
    return pc.binary_join(lists, sep).cast(pa.string())


def small_fold(partials: "ray.data.Dataset", fold,
               batch_format: str = "pyarrow") -> "ray.data.Dataset":
    """Final reduce for SMALL partials (≤ ~10⁷ rows after the combiner
    level): ``repartition(1)`` + ONE vectorized ``fold`` pass.

    Replaces ``groupby(keys).aggregate(...)`` where key cardinality is far
    below the cluster's block count — there Ray's sort-based Aggregate
    creates one reduce partition per input block, emits every surplus
    partition as a schemaless EMPTY block (schema-divergence warnings,
    fragile downstream unions) and pays its ~80 ms fixed cost per input
    block. The combiner level above has already shrunk the stream to
    O(#blocks × #groups) tiny rows, so one task folding them all is both
    cheaper and schema-stable. NOT for high-cardinality finals — those use
    :func:`bucket_fold`."""
    return _strip_md(partials).repartition(1).map_batches(
        fold, batch_format=batch_format, batch_size=None)


def _strip_md(ds: "ray.data.Dataset") -> "ray.data.Dataset":
    """Fused zero-copy metadata strip ahead of an all-to-all: pandas
    blocks upstream convert to Arrow WITH the ``b'pandas'`` schema
    metadata, which makes every shuffle schema unhashable (the pd_table
    rationale, applied at the exchange boundary for all folds at once)."""
    return ds.map_batches(lambda t: t.replace_schema_metadata(None),
                          batch_format="pyarrow", batch_size=None)


def coalesce_blocks(ds: "ray.data.Dataset",
                    batch_size: int = 1 << 16) -> "ray.data.Dataset":
    """Fold many tiny blocks into few before an all-to-all. ``num_cpus=0``
    BREAKS operator fusion — fused, a coalescing map inherits the upstream
    task structure and its batch_size never crosses task boundaries, so
    the downstream Aggregate still pays its ~80 ms/block fixed cost per
    tiny partial block (and its sort emits empty partitions past the key
    cardinality)."""
    return ds.map_batches(lambda t: t, batch_format="pyarrow",
                          batch_size=batch_size, num_cpus=0)


def key_counts(ds: "ray.data.Dataset", key: str) -> "ray.data.Dataset":
    """Per-key row counts via per-batch partials (shuffles ≤ one row per key
    per batch — skew-safe). The partials coalesce before the Aggregate
    (CLAUDE.md rule: its ~80 ms/input-block fixed cost dominates on
    thousands of tiny partial blocks)."""

    def partial(t: pa.Table) -> pa.Table:
        g = t.select([key]).group_by([key]).aggregate([([], "count_all")])
        return g.rename_columns([key, "n"])

    partials = ds.map_batches(partial, batch_format="pyarrow")
    return coalesce_blocks(partials).groupby(key).aggregate(
        Sum("n", alias_name="n"))


def detect_hot_keys(ds: "ray.data.Dataset", key: str,
                    threshold_rows: int) -> set:
    """Keys owning more than ``threshold_rows`` rows. The threshold filter
    runs DISTRIBUTED, so only the hot set itself reaches the driver — by
    pigeonhole at most total_rows/threshold keys, never the full
    O(#distinct keys) count table."""
    hot = key_counts(ds, key).map_batches(
        lambda t: t.filter(pc.greater(t["n"], threshold_rows)),
        batch_format="pyarrow").to_pandas()
    return set(hot[key])


def salted_span_durations(
    ds: "ray.data.Dataset",
    hot_threshold: int = 10_000,
    chunk: int = 8192,
    salt: int = 8,
) -> "ray.data.Dataset":
    """span_durations with the two-pass salted plan WIRED (SURVEY §7.5):
    conversations longer than ``hot_threshold`` turns are split into
    turn-range chunks spread over ``salt`` buckets, so no single grouped task
    ever holds a whole hot conversation.

    The lead (next-turn ts) is order-dependent, so chunking needs a boundary
    fix: each hot chunk's LAST turn takes its `next ts` from the FIRST turn
    of the conversation's next non-empty chunk. That boundary table is built
    with per-batch partials (≤ one row per hot chunk per batch — tiny),
    reduced on the driver, and broadcast via ``ray.put``. Pass 1 =
    detect_hot_keys (partial counts); pass 2 = salted bucketed compute.
    Output is row-identical to stages.metrics.span_durations.
    """
    import ray

    from .stages.metrics import span_durations

    num_buckets = _domain()
    # Three executions of the PRUNED 5-column projection (counts,
    # boundary, compute) — the hot set gates the boundary build and the
    # broadcast boundary table gates the compute, so each pass depends on
    # the previous one's driver-side result. All three re-read only the
    # projected columns; callers passing an expensive derived chain
    # should materialize the projection first.
    cols = ds.select_columns(["conv_id", "turn_idx", "role", "tool", "ts"])
    hot = detect_hot_keys(cols, "conv_id", hot_threshold)
    if not hot:
        return span_durations(ds)

    # boundary table: first (min-turn) ts of every (hot conv, chunk)
    def boundary_partial(t: pa.Table) -> pa.Table:
        df = t.select(["conv_id", "turn_idx", "ts"]).to_pandas()
        df = df[df["conv_id"].isin(hot)]
        if not len(df):
            return pa.table({"conv_id": pa.array([], type=pa.string()),
                             "chunk_id": pa.array([], type=pa.int64()),
                             "turn_idx": pa.array([], type=pa.int32()),
                             "ts": pa.array([], type=pa.timestamp("us"))})
        df["chunk_id"] = (df["turn_idx"] // chunk).astype(np.int64)
        keep = df.loc[df.groupby(["conv_id", "chunk_id"])["turn_idx"].idxmin()]
        return pd_table(keep)

    bdf = cols.map_batches(boundary_partial, batch_format="pyarrow").to_pandas()
    bdf = bdf.loc[bdf.groupby(["conv_id", "chunk_id"])["turn_idx"].idxmin()]
    bdf = bdf.sort_values(["conv_id", "chunk_id"])
    # next non-empty chunk's first ts, per conv
    nxt_first = bdf.groupby("conv_id")["ts"].shift(-1)
    boundary = {(c, k): v for c, k, v in zip(
        bdf["conv_id"], bdf["chunk_id"], nxt_first) if not pd.isna(v)}
    boundary_ref = ray.put((hot, boundary))

    def tag(t: pa.Table) -> pa.Table:
        keys = t["conv_id"].to_pandas().to_numpy(dtype=object)
        sub = t["turn_idx"].to_pandas().to_numpy() // chunk
        b = salted_bucket(keys, sub, hot, num_buckets, salt)
        return t.append_column("_bucket", pa.array(b))

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        hot_set, bnd = ray.get(boundary_ref)
        is_hot = g["conv_id"].isin(hot_set).to_numpy()
        chunk_id = np.where(is_hot, g["turn_idx"].to_numpy() // chunk, -1)
        g = g.assign(_chunk=chunk_id)
        g = g.sort_values(["conv_id", "turn_idx"], kind="mergesort")
        nxt = g.groupby(["conv_id", "_chunk"], sort=False)["ts"].shift(-1)
        # boundary fix: last row of each hot chunk takes the next chunk's
        # first ts (None at the true end of the conversation)
        last = nxt.isna().to_numpy() & (g["_chunk"].to_numpy() >= 0)
        if last.any():
            fix = [bnd.get((c, k)) for c, k in zip(
                g.loc[last, "conv_id"], g.loc[last, "_chunk"])]
            nxt = nxt.copy()
            nxt[last] = pd.Series(fix, index=nxt.index[last],
                                  dtype="datetime64[us]")
        dur = (nxt - g["ts"]).dt.total_seconds().fillna(0.0)
        out = g.assign(duration_s=dur)
        out = out[(out["role"] == "tool") & (out["tool"] != "")]
        return out[["conv_id", "turn_idx", "tool", "duration_s"]]

    return bucket_fold(cols.map_batches(tag, batch_format="pyarrow"),
                       ["_bucket"], per_bucket)


def salted_bucket(keys: np.ndarray, sub_id: np.ndarray, hot: set,
                  num_buckets: int, salt: int = 8) -> np.ndarray:
    """Bucket assignment: ``hash(key) % B`` normally; hot keys spread over
    ``salt`` sub-buckets by ``sub_id`` (e.g. turn_idx // chunk) — use ONLY
    for operations whose per-group logic is mergeable across sub-groups."""
    # uint64 + int64 silently promotes to float64 in numpy — keep int64
    h = (pd.util.hash_array(np.asarray(keys, dtype=object)) % (1 << 62)
         ).astype(np.int64)
    bucket = h % num_buckets
    if hot:
        # C-level membership — a per-row Python set lookup here runs on
        # every row of the stream (the repo's hot-path rule)
        is_hot = pd.Series(keys).isin(hot).to_numpy()
        sub = np.asarray(sub_id, dtype=np.int64)[is_hot] % salt
        bucket[is_hot] = (h[is_hot] + sub) % num_buckets
    return bucket.astype(np.int32)
