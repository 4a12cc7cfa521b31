"""Sampling processors — probabilistic (hash-based) and tail (group decision).

Reference semantics:
- `probabilistic_sampler` — hash-based record sampling at a percentage
  (/root/reference/internal/components/components.go:330). We make it fully
  deterministic (a Knuth multiplicative hash of the record key) so reruns and
  the DuckDB oracle agree — same spirit as the collector hashing trace ids.
- `tail_sampling` — buffer a whole trace, then a policy decides keep/drop
  (components.go:335). Transcript analogue: the unit is a CONVERSATION; policy
  "keep the conversation if any turn matches" = a grouped decision.

Scale note: tail sampling is the one sampler that needs a shuffle (group by
conv_id). The grouped decision is a per-group boolean, so we pre-reduce inside
map_batches (per-batch per-conv any-match partials) and shuffle only the tiny
(conv_id, flag) pairs, then broadcast the kept-set back as a filter —
a semi-join via broadcast, not a full-row shuffle (ray_guide: semi/anti join).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data

from ..partitioning import bucket_join, pd_table
from . import stage_fn

KNUTH = 2654435761


def string_fold64(vals) -> np.ndarray:
    """Fold a string id column into uint64: the last 8 UTF-8 bytes read
    big-endian (right-NUL-padded for shorter ids), xor'd with the byte
    length. Nulls coalesce to ''. Vectorized (pandas C string kernels +
    one fixed-width numpy view); replayed bit-exactly by
    :func:`sketch.string_fold64_sql` for ASCII ids (DuckDB ``ord`` is a
    code point, so non-ASCII ids hash fine engine-side but have no SQL
    twin)."""
    if isinstance(vals, (pa.Array, pa.ChunkedArray)):
        vals = vals.to_pandas()
    b = pd.Series(vals).fillna("").astype(str).str.encode("utf-8")
    ln = b.str.len().to_numpy().astype(np.uint64)
    tail = np.asarray(b.str.slice(-8).tolist(), dtype="S8")
    return tail.view(">u8").astype(np.uint64) ^ ln


def key_hash_mod(col, modulus: int) -> np.ndarray:
    """Deterministic ``hash(id) % modulus`` over an id column of ANY type
    (r3 VERDICT fix — samplers/splits must not assume a corpus id format):

    - integer ids keep the historical Knuth multiplicative path
      ``(id * KNUTH) % m``, computed in uint64 so the product is
      WELL-DEFINED (wraps mod 2^64) for ids ≥ ⌈2^63/KNUTH⌉ ≈ 3.47e9 —
      the 100-TB id regime — instead of silently overflowing int64. SQL
      twin: ``(id * 2654435761) % m`` for ids below the wrap point (every
      existing oracle — bit-identical to before), or the exact
      ``(CAST(id AS HUGEINT) * 2654435761) % 18446744073709551616 % m``
      beyond it (DuckDB BIGINT would raise on the overflow);
    - string ids hash via mix64 over :func:`string_fold64` (SQL twin:
      ``mix64_sql_ctes`` over ``string_fold64_sql`` — sketch.py), crashing
      on NO id format, unlike the old ``str.slice(5).astype(int64)`` parse.

    Returns int64 values in [0, modulus).
    """
    from .sketch import mix64

    def int_path(ids: np.ndarray) -> np.ndarray:
        u = ids.astype(np.int64).astype(np.uint64) * np.uint64(KNUTH)
        return (u % np.uint64(modulus)).astype(np.int64)

    if isinstance(col, (pa.Array, pa.ChunkedArray)):
        if pa.types.is_integer(col.type):
            return int_path(col.to_numpy(zero_copy_only=False))
        return (mix64(string_fold64(col))
                % np.uint64(modulus)).astype(np.int64)
    arr = np.asarray(pd.Series(col).to_numpy())
    if np.issubdtype(arr.dtype, np.integer):
        return int_path(arr)
    return (mix64(string_fold64(col)) % np.uint64(modulus)).astype(np.int64)


def probabilistic_sample(ds: "ray.data.Dataset", pct: int,
                         key_col: str = "conv_id",
                         turn_col: str = "turn_idx") -> "ray.data.Dataset":
    """Keep ~pct% of records, deterministically, no shuffle.

    The record key is HASHED (``key_hash_mod`` — string ids via mix64 over
    the byte fold, int ids via Knuth), never parsed, so any id format
    works — the reference sampler hashes the trace id the same way
    (internal/components/components.go:330). Keep rule:
    ``(hash(key) % 2^31 + turn*97) % 100 < pct`` (the 2^31 reduction keeps
    the addition HUGEINT-replayable in the SQL twin without mod-2^64
    wraparound)."""

    def fn(batch: pa.Table) -> pa.Table:
        r = key_hash_mod(batch[key_col], 1 << 31)
        turn = batch[turn_col].to_numpy(zero_copy_only=False).astype(np.int64)
        return batch.filter(pa.array((r + turn * 97) % 100 < pct))

    return ds.map_batches(fn, batch_format="pyarrow")


def conv_probabilistic_sample(ds: "ray.data.Dataset", pct: int,
                              key_col: str = "conv_id") -> "ray.data.Dataset":
    """Conversation-keyed probabilistic sampler (trace-id hashing analogue):
    whole conversations kept or dropped together, keyed by the hashed id —
    no id-format parse (r3 VERDICT fix)."""

    def fn(batch: pa.Table) -> pa.Table:
        keep = key_hash_mod(batch[key_col], 100) < pct
        return batch.filter(pa.array(keep))

    return ds.map_batches(fn, batch_format="pyarrow")


def stratified_sample(
    ds: "ray.data.Dataset", keys: list[str], k: int, id_col: str,
) -> "ray.data.Dataset":
    """Deterministic per-stratum k-sample: the k rows with the smallest
    ``hash(id)`` per group — the reservoir-sample analogue a training-data
    pipeline needs, rerun-stable and oracle-checkable. Per-batch partial
    top-k (grouped_topk) keeps the shuffle at ≤ k rows per group per batch.
    """
    from ..pipelines.aggregate import grouped_topk

    def add_h(t: pa.Table) -> pa.Table:
        return t.append_column(
            "_h", pa.array(key_hash_mod(t[id_col], 1 << 31)))

    out = grouped_topk(
        ds.select_columns([*keys, id_col]).map_batches(
            add_h, batch_format="pyarrow"),
        keys, k, by=["_h", id_col], ascending=[True, True])
    return out.drop_columns(["_h"])


def hash_split(ds: "ray.data.Dataset", id_col: str,
               splits: "list[tuple[str, int]] | None" = None,
               modulus: int = 10_000) -> "ray.data.Dataset":
    """Deterministic train/val/test assignment: split = the first bucket
    whose cumulative weight exceeds ``hash(id) % modulus`` — the standard
    hash-based dataset split of a training-data pipeline. Stable across
    reruns, cluster sizes and row order (pure function of the id, Knuth
    multiplicative hash — same family as probabilistic_sample), embarrasses
    no shuffle: one vectorized searchsorted per batch.

    ``splits`` is [(name, weight)]; weights are in ``modulus`` units and
    must sum to ``modulus`` (default 90/5/5 train/val/test).
    """
    if splits is None:
        splits = [("train", 9_000), ("val", 500), ("test", 500)]
    if sum(w for _, w in splits) != modulus:
        raise ValueError("split weights must sum to the modulus")
    names = np.array([n for n, _ in splits], dtype=object)
    bounds = np.cumsum([w for _, w in splits])  # right-exclusive edges

    def fn(batch: pa.Table) -> pa.Table:
        h = key_hash_mod(batch[id_col], modulus)
        part = names[np.searchsorted(bounds, h, side="right")]
        return batch.append_column(
            "split", pa.array(part, type=pa.string()))

    return ds.map_batches(fn, batch_format="pyarrow")


def mixture_sample(ds: "ray.data.Dataset", source_col: str, id_col: str,
                   rates: dict[str, float], default_rate: float = 1.0,
                   modulus: int = 10_000) -> "ray.data.Dataset":
    """Per-source corpus mixing: keep a row iff ``hash(id) % modulus <
    rate(source) · modulus`` — the deterministic down-sampling step that
    blends corpus sources at configured weights in a training-data
    pipeline (each source keeps an exact, rerun-stable subset rather than
    a random one). Stateless map_batches, no shuffle; the rate table is a
    tiny constant captured in the closure (broadcast with the function)."""
    names = np.array(sorted(set(rates)), dtype=object)
    thresholds = np.array(
        [int(rates[n] * modulus) for n in names], dtype=np.int64)
    default_t = int(default_rate * modulus)

    def fn(batch: pa.Table) -> pa.Table:
        h = key_hash_mod(batch[id_col], modulus)
        if not len(names):  # no per-source rates: everything at the default
            return batch.filter(pa.array(h < default_t))
        src = batch[source_col].to_pandas().to_numpy(dtype=object)
        null = pd.isna(src)
        if null.any():  # None would TypeError inside searchsorted before
            src = np.where(null, names[0], src)  # the known-fallback ran
        idx = np.clip(np.searchsorted(names, src), 0, len(names) - 1)
        known = (names[idx] == src) & ~null  # null source → default rate
        thr = np.where(known, thresholds[idx], default_t)
        return batch.filter(pa.array(h < thr))

    return ds.map_batches(fn, batch_format="pyarrow")


@dataclass
class StringAttributePolicy:
    """Sample if any turn's ``column`` is in ``values`` (string_attribute)."""

    column: str
    values: tuple

    def flag(self, df: pd.DataFrame) -> pd.Series:
        return df[self.column].isin(self.values)


@dataclass
class NumericAttributePolicy:
    """Sample if any turn's ``column`` is within [min, max]
    (numeric_attribute)."""

    column: str
    min_value: float
    max_value: float

    def flag(self, df: pd.DataFrame) -> pd.Series:
        return df[self.column].astype("float64").between(
            self.min_value, self.max_value)


@dataclass
class LatencyPolicy:
    """Sample if the conversation spans ≥ threshold_s seconds (latency
    policy; trace duration analogue). Needs per-conv (min ts, max ts) —
    mergeable partials, no row shuffle."""

    threshold_s: float
    ts_col: str = "observed_ts"


@dataclass
class ProbabilisticPolicy:
    """Sample ``pct`` % of conversations by deterministic id hash."""

    pct: int


class AlwaysPolicy:
    """Unconditional sample (always_sample)."""


def _key_filter(key: str, keys: set, drop: bool):
    """Batch filter on ``key`` membership in a broadcast key set — kept
    rows for the semi join, dropped rows (``drop``) for the anti join.
    Built once per task by ``stage_fn``, so the set is unpickled once per
    task, not per batch. A null key matches nothing, a null in the key set
    included, as in the exchange shape."""

    def filter_keys(batch: pa.Table) -> pa.Table:
        col = batch[key]
        mask = col.to_pandas().isin(keys).to_numpy() \
            & pc.is_valid(col).to_numpy(zero_copy_only=False)
        return batch.filter(pa.array(mask != drop))

    return filter_keys


def semi_join_keys(
    ds: "ray.data.Dataset", kept_keys: "ray.data.Dataset", key: str,
    max_broadcast_keys: int = 1_000_000,
) -> "ray.data.Dataset":
    """Keep stream rows whose ``key`` appears in ``kept_keys`` (a
    single-column Dataset of DISTINCT keys). A null key matches nothing.

    Two shapes behind a cardinality threshold (r2 VERDICT fix — the kept
    set must not become a multi-GB driver-side Python set at 10^8
    conversations):
    - small kept-set: collect once, broadcast via ray.put, isin filter in
      map_batches (no row shuffle — the cheap common case);
    - past the threshold: a keyed inner ``bucket_join`` of the stream
      against the key table (it adds no payload columns). The stream
      shuffles once by key; the driver never holds the keys.
    """
    kept_keys = kept_keys.materialize()  # object store, NOT the driver
    if kept_keys.count() <= max_broadcast_keys:
        kept_ref = ray.put(set(kept_keys.to_pandas()[key]))
        return ds.map_batches(stage_fn(_key_filter, key, kept_ref, False),
                              batch_format="pyarrow")
    return bucket_join(ds, kept_keys, key)


def anti_join_keys(
    ds: "ray.data.Dataset", drop_keys: "ray.data.Dataset", key: str,
    max_broadcast_keys: int = 1_000_000,
) -> "ray.data.Dataset":
    """DROP stream rows whose ``key`` appears in ``drop_keys`` — the
    blocklist/anti-join complement of ``semi_join_keys``, same two shapes:
    broadcast ``~isin`` under the cardinality threshold; past it, a keyed
    left-outer ``bucket_join`` against the marker-tagged key table keeping
    only unmatched rows. A null key matches nothing, so its row stays."""
    drop_keys = drop_keys.materialize()
    if drop_keys.count() <= max_broadcast_keys:
        drop_ref = ray.put(set(drop_keys.to_pandas()[key]))
        return ds.map_batches(stage_fn(_key_filter, key, drop_ref, True),
                              batch_format="pyarrow")

    def tag(t: pa.Table) -> pa.Table:
        return t.append_column("_present", pa.array(
            np.ones(t.num_rows, np.int8)))

    tagged = drop_keys.map_batches(tag, batch_format="pyarrow")
    joined = bucket_join(ds, tagged, key, how="left_outer")
    return joined.map_batches(
        lambda t: t.filter(pc.is_null(t["_present"])).drop_columns(
            ["_present"]),
        batch_format="pyarrow")


def tail_sample_policies(
    ds: "ray.data.Dataset", policies: list, key: str = "conv_id",
    max_broadcast_keys: int = 1_000_000,
) -> "ray.data.Dataset":
    """tail_sampling with a composable POLICY TABLE (components.go:335; the
    upstream processor's policy set) — decision = OR across policies, the
    unit is the whole conversation (trace analogue).

    Scale shape: every scanning policy reduces to mergeable per-conv
    partials inside map_batches (any-match flags, min/max ts), so only one
    tiny row per conversation per batch shuffles; the per-conv DECISION is
    itself computed distributed (map_batches over the aggregate — it is
    per-row) and the kept keys apply via ``semi_join_keys`` — broadcast
    under the cardinality threshold, keyed semi-join past it. No
    driver-side key set on the join path.
    """
    from ray.data.aggregate import Max, Min

    flag_pols = [p for p in policies if hasattr(p, "flag")]
    lat_pols = [p for p in policies if isinstance(p, LatencyPolicy)]
    prob_pols = [p for p in policies if isinstance(p, ProbabilisticPolicy)]
    always = any(isinstance(p, AlwaysPolicy) for p in policies)

    # only the columns the policies actually read convert to pandas — the
    # partial runs over the FULL stream (a policy without a declared
    # .column forces the whole batch through)
    need = [key] + [p.column for p in flag_pols
                    if getattr(p, "column", None)] \
        + [p.ts_col for p in lat_pols]
    prune = all(getattr(p, "column", None) for p in flag_pols)

    def partial(batch: pa.Table) -> pa.Table:
        if prune:
            batch = batch.select(list(dict.fromkeys(need)))
        df = batch.to_pandas()
        gk = df[key]
        out = pd.DataFrame({key: pd.unique(gk)}).set_index(key)
        for i, p in enumerate(flag_pols):
            out[f"_f{i}"] = p.flag(df).groupby(gk, sort=False).max().astype(
                np.int8)
        for j, p in enumerate(lat_pols):
            out[f"_lmin{j}"] = df[p.ts_col].groupby(gk, sort=False).min()
            out[f"_lmax{j}"] = df[p.ts_col].groupby(gk, sort=False).max()
        return pd_table(out.reset_index())

    aggs = [Max(f"_f{i}", alias_name=f"_f{i}")
            for i in range(len(flag_pols))]
    for j in range(len(lat_pols)):
        aggs += [Min(f"_lmin{j}", alias_name=f"_lmin{j}"),
                 Max(f"_lmax{j}", alias_name=f"_lmax{j}")]
    from ..partitioning import coalesce_blocks

    reduced = (coalesce_blocks(ds.map_batches(partial,
                                              batch_format="pyarrow"))
               .groupby(key).aggregate(*aggs))

    def decide(batch: pa.Table) -> pa.Table:
        g = batch.to_pandas()
        decision = np.zeros(len(g), dtype=bool)
        if always:
            decision |= True
        for i in range(len(flag_pols)):
            decision |= g[f"_f{i}"].to_numpy() > 0
        for j, p in enumerate(lat_pols):
            span = (g[f"_lmax{j}"] - g[f"_lmin{j}"]).dt.total_seconds()
            decision |= span.to_numpy() >= p.threshold_s
        for p in prob_pols:
            decision |= key_hash_mod(g[key], 100) < p.pct
        # key type from the INPUT batch, not hardcoded string — integer
        # keys crashed here despite key_hash_mod's any-id-type contract
        return pa.table({key: pa.array(g.loc[decision, key].tolist(),
                                       type=batch[key].type)})

    kept_keys = reduced.map_batches(decide, batch_format="pyarrow")
    return semi_join_keys(ds, kept_keys, key,
                          max_broadcast_keys=max_broadcast_keys)


def tail_sample_conversations(
    ds: "ray.data.Dataset", flag_fn, key: str = "conv_id",
    max_broadcast_keys: int = 1_000_000,
) -> "ray.data.Dataset":
    """Keep every turn of conversations where ``flag_fn(batch) -> bool mask``
    matches at least one turn. Two passes over the (lazy) dataset:

    1. per-batch partial: distinct matching keys per batch (tiny) → one
       grouped dedup (keys stay a Dataset, never a driver set)
    2. ``semi_join_keys``: broadcast isin under the cardinality threshold,
       keyed semi-join past it (r2 VERDICT fix)
    """
    from ray.data.aggregate import Count

    def partial(batch: pa.Table) -> pa.Table:
        m = np.asarray(flag_fn(batch))
        keys = pd.unique(batch[key].to_pandas()[m])
        return pa.table({key: pa.array(keys.tolist(),
                                       type=batch[key].type)})

    from ..partitioning import coalesce_blocks

    kept_keys = (
        coalesce_blocks(ds.map_batches(partial, batch_format="pyarrow"))
        .groupby(key).aggregate(Count(alias_name="_n"))
        .drop_columns(["_n"])
    )
    return semi_join_keys(ds, kept_keys, key,
                          max_broadcast_keys=max_broadcast_keys)


def smallest_hash_sample(ds: "ray.data.Dataset", id_col: str,
                         k: int = 100) -> "ray.data.Dataset":
    """Deterministic global k-sample: the k ids with the smallest mix64
    hash — the distributed equivalent of reservoir sampling (uniform over
    ids, rerun-/order-/cluster-size-stable, mergeable: min-k of min-ks).

    Scale shape: each batch prunes to its local k smallest hashes, so the
    final exchange sorts ≤ k·#batches tiny rows, never the stream. The
    hash is order-mapped to int64 (xor 2^63) so Arrow's signed sort equals
    the oracle's unsigned HUGEINT order."""
    from .sketch import mix64

    def partial(t: pa.Table) -> pa.Table:
        ids = t[id_col].to_numpy(zero_copy_only=False)
        # any id type, like every other sampler here: integers feed mix64
        # directly, anything else hashes via the string fold (SQL twin:
        # mix64_sql_ctes over string_fold64_sql)
        base = ids if np.issubdtype(ids.dtype, np.integer) \
            else string_fold64(t[id_col])
        h = (mix64(base) ^ np.uint64(1 << 63)).view(np.int64)
        take = np.argsort(h, kind="stable")[:k]
        return pa.table({id_col: pa.array(ids[take], type=t[id_col].type),
                         "_h": pa.array(h[take], type=pa.int64())})

    return (ds.map_batches(partial, batch_format="pyarrow")
            .sort(["_h", id_col]).limit(k).select_columns([id_col]))


def weighted_sample(ds: "ray.data.Dataset", id_col: str, weight_col: str,
                    modulus: int = 10_000) -> "ray.data.Dataset":
    """Per-row importance sampling: keep iff ``hash(id) % m <
    floor(weight · m)`` — the quality-weighted downsampling step of a
    training-data pipeline (weights in [0,1] from any upstream scorer;
    weight 1 keeps everything, 0 drops everything). Deterministic and
    rerun-stable like :func:`mixture_sample`; stateless map_batches."""

    def fn(batch: pa.Table) -> pa.Table:
        w = batch[weight_col].to_numpy(zero_copy_only=False).astype(
            np.float64)
        thr = np.floor(w * modulus).astype(np.int64)
        return batch.filter(
            pa.array(key_hash_mod(batch[id_col], modulus) < thr))

    return ds.map_batches(fn, batch_format="pyarrow")


def epoch_mixture_expand(
    ds: "ray.data.Dataset", id_col: str, source_col: str,
    factors: dict[str, float], default_factor: float = 1.0,
    modulus: int = 10_000,
) -> "ray.data.Dataset":
    """Fractional-epoch repeat mixing: replicate each row
    ``floor(f(source))`` times plus one more iff ``hash(id) % m <
    frac(f)·m`` — the multi-epoch corpus-blending step (a 2.5× source
    repeats every doc twice and a deterministic half of it a third time).
    Emits an ``epoch`` index per copy. Vectorized row expansion
    (``Table.take`` over np.repeat indices); thresholds are precomputed
    ints so engine and oracle compare integers, never floats."""
    base = {s: int(f) for s, f in factors.items()}
    extra = {s: int(round((f - int(f)) * modulus))
             for s, f in factors.items()}
    dbase, dextra = (int(default_factor),
                     int(round((default_factor - int(default_factor))
                               * modulus)))

    def fn(batch: pa.Table) -> pa.Table:
        src = batch[source_col].to_pandas()
        h = key_hash_mod(batch[id_col], modulus)
        reps = (src.map(base).fillna(dbase).to_numpy(dtype=np.int64)
                + (h < src.map(extra).fillna(dextra)
                   .to_numpy(dtype=np.int64)))
        idx = np.repeat(np.arange(len(h)), reps)
        offsets = np.repeat(np.cumsum(reps) - reps, reps)
        epoch = np.arange(int(reps.sum()), dtype=np.int64) - offsets
        return batch.take(idx).append_column(
            "epoch", pa.array(epoch, type=pa.int64()))

    return ds.map_batches(fn, batch_format="pyarrow")


def _cell_of(x: np.ndarray, lo: float, hi: float, ncells: int) -> np.ndarray:
    """Grid-cell index of each value over [lo, hi]; hi clips into the last
    cell. Deterministic float arithmetic — every pass that needs 'which rows
    are in cell c' recomputes THIS expression, so counting, refinement, and
    the final pull always agree on membership."""
    if hi <= lo:
        return np.zeros(len(x), np.int64)
    c = np.floor((x - lo) * (ncells / (hi - lo))).astype(np.int64)
    return np.clip(c, 0, ncells - 1)


def quantile_buckets(
    ds: "ray.data.Dataset", k: int = 3, score_col: str = "logit",
    id_col: str = "doc_id", ncells: int = 4096, cell_cap: int = 1 << 22,
) -> "ray.data.Dataset":
    """Exact k-quantile bucket per row — NTILE(k) OVER (ORDER BY score, id).

    The CCNet head/middle/tail split (Wenzek et al. 2020: bucket a corpus by
    per-doc LM perplexity into equal groups, keep/weight the best): every row
    gets its GLOBAL rank k-tile, deterministically, matching SQL NTILE
    exactly (the first ``n % k`` buckets get the extra row; ties ordered by
    the unique ``id_col``).

    Scale shape — no global sort, the text never moves:

    1. materialize the (id, score) projection once (16 B/row blocks);
    2. one pass: per-batch (min, max, n) partials → tiny driver combine;
    3. one pass: per-batch score histogram over a fixed ``ncells`` grid →
       driver sums nonzero cells → each of the k-1 boundary RANKS lands in
       one cell with a known rank offset inside it;
    4. per boundary: pull ONLY that cell's (id, score) pairs (~n/ncells
       rows), sort on the driver, take the pair at the offset — the exact
       global (score, id) threshold;
    5. one pass: broadcast the k-1 threshold pairs, assign buckets with a
       vectorized lexicographic compare.

    A boundary cell larger than ``cell_cap`` (pathological score ties) is
    refined instead of pulled: re-grid the cell's rows (membership = the
    previous pass's exact cell predicate, composed, so no row is ever
    double-counted across a float boundary) until the cell fits or stops
    splitting; a cell that stops splitting holds ONE distinct score (a
    4096-cell grid over a ≥2-ulp window always separates two distinct
    floats), so the order inside it is by id alone and the same refinement
    runs on the id axis (ids unique ⇒ it terminates). Each refinement is
    one extra pass over the 2-column projection — never a driver pull.
    """
    scores = ds.select_columns([id_col, score_col]).materialize()

    def mm(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({"lo": pa.array([], pa.float64()),
                             "hi": pa.array([], pa.float64()),
                             "n": pa.array([], pa.int64())})
        return pa.table({
            "lo": [float(pc.min(t[score_col]).as_py())],
            "hi": [float(pc.max(t[score_col]).as_py())],
            "n": [t.num_rows]})

    st = scores.map_batches(mm, batch_format="pyarrow").to_pandas()
    n = int(st["n"].sum())
    if n == 0:
        return scores.map_batches(
            lambda t: t.append_column("bucket", pa.array([], pa.int64())),
            batch_format="pyarrow")
    glo, ghi = float(st["lo"].min()), float(st["hi"].max())

    def col_vals(t: pa.Table, col: str) -> np.ndarray:
        return t[col].to_numpy(zero_copy_only=False).astype(np.float64)

    def cell_pred(col: str, lo: float, hi: float, cell: int, inner):
        """Row predicate: (inner) AND value lands in `cell` of this grid."""
        def p(t: pa.Table) -> np.ndarray:
            m = inner(t) if inner is not None else np.ones(t.num_rows, bool)
            if m.any():
                m = m & (_cell_of(col_vals(t, col), lo, hi, ncells) == cell)
            return m
        return p

    def hist(col: str, lo: float, hi: float, pred) -> np.ndarray:
        def h(t: pa.Table) -> pa.Table:
            m = pred(t) if pred is not None else np.ones(t.num_rows, bool)
            if not m.any():
                return pa.table({"cell": pa.array([], pa.int64()),
                                 "cnt": pa.array([], pa.int64())})
            c = _cell_of(col_vals(t, col)[m], lo, hi, ncells)
            cnt = np.bincount(c, minlength=ncells)
            nz = np.flatnonzero(cnt)
            return pa.table({"cell": nz.astype(np.int64),
                             "cnt": cnt[nz].astype(np.int64)})

        hdf = (scores.map_batches(h, batch_format="pyarrow")
               .to_pandas().groupby("cell")["cnt"].sum())
        counts = np.zeros(ncells, np.int64)
        counts[hdf.index.to_numpy()] = hdf.to_numpy()
        return counts

    def window_minmax(col: str, pred) -> tuple[float, float]:
        def f(t: pa.Table) -> pa.Table:
            m = pred(t) if pred is not None else np.ones(t.num_rows, bool)
            if not m.any():
                return pa.table({"lo": pa.array([], pa.float64()),
                                 "hi": pa.array([], pa.float64())})
            v = col_vals(t, col)[m]
            return pa.table({"lo": [float(v.min())], "hi": [float(v.max())]})
        df = scores.map_batches(f, batch_format="pyarrow").to_pandas()
        return float(df["lo"].min()), float(df["hi"].max())

    def drill(col: str, lo: float, hi: float, pred, rank: int,
              order_cols: list, counts=None) -> "pd.DataFrame | None":
        """Narrow (col, grid, pred) around global in-window rank ``rank``
        until the boundary cell fits under cell_cap, then pull and return
        (sorted rows, offset) — or None if the cell stopped splitting.
        ``counts`` short-circuits the first histogram pass when the caller
        already holds it (the top-level histogram is rank-independent)."""
        base = int(rank)
        if counts is None:
            counts = hist(col, lo, hi, pred)
        while True:
            cum = np.concatenate([[0], np.cumsum(counts)])
            c = int(np.searchsorted(cum, base, side="right") - 1)
            base -= int(cum[c])
            sel = cell_pred(col, lo, hi, c, pred)
            if int(counts[c]) <= cell_cap:
                sub = scores.map_batches(
                    lambda t, s=sel: t.filter(pa.array(s(t))),
                    batch_format="pyarrow").to_pandas()
                return sub.sort_values(order_cols, kind="mergesort"), base
            nlo, nhi = window_minmax(col, sel)
            if nlo >= nhi:  # one distinct value: this grid can't order it
                return sel, base, nlo  # caller switches axis
            lo, hi, pred = nlo, nhi, sel
            counts = hist(col, lo, hi, pred)

    # the top-level histogram does not depend on the rank — compute it
    # once, not once per boundary (each recompute was a full scan)
    top_counts = hist(score_col, glo, ghi, None)

    def threshold_at(rank: int) -> tuple[float, int]:
        out = drill(score_col, glo, ghi, None, rank, [score_col, id_col],
                    counts=top_counts)
        if len(out) == 3:  # score axis saturated on one value → order by id
            sel, base, val = out
            ilo, ihi = window_minmax(id_col, sel)
            sub, off = drill(id_col, ilo, ihi, sel, base, [id_col])
            return val, int(sub.iloc[off][id_col])
        sub, off = out
        row = sub.iloc[off]
        return float(row[score_col]), int(row[id_col])

    sizes = [n // k + (1 if i < n % k else 0) for i in range(k)]
    bounds = np.cumsum(sizes)[:-1]
    thresholds = [threshold_at(int(b)) for b in bounds]

    def assign(t: pa.Table) -> pa.Table:
        x = col_vals(t, score_col)
        i = t[id_col].to_numpy(zero_copy_only=False)
        b = np.ones(t.num_rows, np.int64)
        for (ts_, ti) in thresholds:
            b += ((x > ts_) | ((x == ts_) & (i >= ti))).astype(np.int64)
        return t.append_column("bucket", pa.array(b))

    return scores.map_batches(assign, batch_format="pyarrow")


def temperature_sample(ds: "ray.data.Dataset", source_col: str = "source",
                       id_col: str = "doc_id", alpha: float = 0.5,
                       modulus: int = 10_000) -> "ray.data.Dataset":
    """Temperature-based mixture flattening (multilingual sampling of
    XLM / mT5, arXiv:1901.07291 §3.1): re-balance sources toward
    ``N_s^alpha`` proportions by DOWN-sampling only — per-source keep
    fraction ``(N_min / N_s) ** (1 - alpha)``, so the smallest source
    keeps everything and large sources are cut toward the flattened mix.
    Keep decisions reuse the :func:`mixture_sample` determinism:
    ``hash(id) % modulus < floor(modulus * fraction)``.

    Parity note: the default ``alpha=0.5`` makes the fraction a single
    division + ``sqrt`` + multiply — each IEEE-754 correctly-rounded, so
    the DuckDB twin computes bit-identical thresholds (an arbitrary
    ``pow`` would not be exactly reproducible across libms).

    Distributed shape: one per-batch source-count shrink (+ coalesce)
    feeding a tiny driver table (bounded by #sources), thresholds carried
    in the filter closure; the stream itself is one stateless
    map_batches, no shuffle."""
    from ..pipelines.aggregate import _sum_combine

    def count_partial(t: pa.Table) -> pa.Table:
        src = pc.coalesce(t[source_col], "")
        g = pa.table({source_col: src}).group_by([source_col]).aggregate(
            [([], "count_all")])
        return g.rename_columns([source_col, "n"])

    parts = _sum_combine(
        ds.map_batches(count_partial, batch_format="pyarrow"),
        [source_col], ["n"])
    pdf = parts.to_pandas()
    if source_col not in pdf.columns:  # empty input dataset
        return ds
    counts = pdf.groupby(source_col, as_index=False)["n"].sum()
    ns = counts["n"].to_numpy().astype(np.float64)
    frac = (counts["n"].min() / ns) ** (1.0 - alpha) if alpha != 0.5 \
        else np.sqrt(counts["n"].min() / ns)
    thr = np.floor(modulus * frac).astype(np.int64)
    names = counts[source_col].to_numpy(dtype=object)
    order = np.argsort(names)
    names, thr = names[order], thr[order]

    def fn(batch: pa.Table) -> pa.Table:
        h = key_hash_mod(batch[id_col], modulus)
        src = pc.coalesce(batch[source_col], "").to_pandas() \
            .to_numpy(dtype=object)
        idx = np.clip(np.searchsorted(names, src), 0, len(names) - 1)
        known = names[idx] == src
        t = np.where(known, thr[idx], modulus)  # unseen source: keep all
        return batch.filter(pa.array(h < t))

    return ds.map_batches(fn, batch_format="pyarrow")
