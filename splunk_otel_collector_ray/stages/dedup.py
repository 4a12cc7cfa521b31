"""Deduplication operators for large-scale training-data pipelines.

The reference's only dedup is the discovery receiver's emit-once keyed set
(/root/reference/internal/receiver/discoveryreceiver/evaluator.go:110-113 —
LoadOrStore on (endpoint, receiver, status, pattern)); we generalize that to
the dedup family a 100 TB corpus pipeline needs:

- exact dedup          hash-partition on a content hash, keep first per group
- MinHash + LSH        shingle → minhash sig → band buckets → candidate pairs
- SimHash              64-bit hyperplane-free token-hash sign aggregate
- n-gram Jaccard       verification kernel for candidate pairs
- embedding cosine     near-dup over an embedding column (see similarity.py)

Scale shape: exact dedup shuffles only (hash, id) pairs after a vectorized
per-batch hash; MinHash emits (band_id, band_hash, doc_id) rows — the groupby
key is the band bucket, so hot buckets are bounded by band width; candidate
verification is per-group pairwise but groups are small by construction.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

import ray.data
from ray.data.aggregate import Count, Min

from ..partitioning import (
    bucket_fold,
    bucket_join,
    join_segments,
    pd_table,
    segment_fold,
)
from . import stage_fn

MERSENNE = (1 << 61) - 1
FNV_BASIS = np.uint64(14695981039346656037)
FNV_PRIME = np.uint64(1099511628211)


def _flat_token_hashes(text: pd.Series, n: int = 5
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Hashed character n-gram shingles for a WHOLE batch in one pass:
    all docs concatenated into one byte buffer, one sliding-window
    polynomial-hash sweep, windows crossing doc boundaries masked out,
    per-doc sorted-unique via a single lexsort — no Python loop over docs
    (the batch's main CPU sink at dedup scale). Docs shorter than ``n``
    contribute the single sentinel hash 0 (matching the per-doc variant).

    Returns (flat sorted-unique hashes, per-doc offsets of length D+1).
    """
    filled = text.fillna("")
    enc = [s.encode("utf-8", "ignore") for s in filled]
    D = len(enc)
    if D == 0:
        return np.array([], dtype=np.uint64), np.zeros(1, dtype=np.int64)
    lens = np.fromiter((len(b) for b in enc), np.int64, D)
    total = int(lens.sum())
    if total >= n:
        buf = np.frombuffer(b"".join(enc), dtype=np.uint8)
        coef = (np.uint64(257) ** np.arange(n, dtype=np.uint64)) \
            % np.uint64(MERSENNE)
        win = np.lib.stride_tricks.sliding_window_view(buf, n).astype(np.uint64)
        h = (win * coef).sum(axis=1) % np.uint64(MERSENNE)
        byte_doc = np.repeat(np.arange(D), lens)
        valid = byte_doc[:total - n + 1] == byte_doc[n - 1:]
        wdoc = byte_doc[:total - n + 1][valid]
        h = h[valid]
    else:
        wdoc = np.array([], dtype=np.int64)
        h = np.array([], dtype=np.uint64)
    shorts = np.flatnonzero(lens < n)
    if len(shorts):
        wdoc = np.concatenate([wdoc, shorts])
        h = np.concatenate([h, np.zeros(len(shorts), dtype=np.uint64)])
    order = np.lexsort((h, wdoc))
    wdoc, h = wdoc[order], h[order]
    keep = np.ones(len(h), dtype=bool)
    keep[1:] = (wdoc[1:] != wdoc[:-1]) | (h[1:] != h[:-1])
    wdoc, h = wdoc[keep], h[keep]
    offsets = np.zeros(D + 1, dtype=np.int64)
    np.cumsum(np.bincount(wdoc, minlength=D), out=offsets[1:])
    return h, offsets


def _token_hashes(text: pd.Series, n: int = 5) -> list[np.ndarray]:
    """Per-doc sorted-unique shingle-hash arrays (views into the flat
    batch-level arrays of _flat_token_hashes)."""
    h, offsets = _flat_token_hashes(text, n)
    return [h[offsets[i]:offsets[i + 1]] for i in range(len(offsets) - 1)]


def add_content_hash(batch: pa.Table, col: str = "text",
                     out: str = "content_hash") -> pa.Table:
    """Vectorized 64-bit content hash (FNV-1a over utf-8) as a new column."""
    s = batch[col].to_pandas().fillna("")
    h = pd.util.hash_array(s.to_numpy(dtype=object)).astype(np.uint64)
    return batch.append_column(out, pa.array(h.astype(np.int64), type=pa.int64()))


def exact_dedup(ds: "ray.data.Dataset", col: str = "text",
                id_col: str = "doc_id") -> "ray.data.Dataset":
    """Keep the first (min id) row per distinct content, with its dupe
    count. Emit-once-per-key == the discovery receiver's LoadOrStore
    semantics, distributed.

    Shape: per-batch content hash + local (hash → min_id, count) shrink,
    then ONE ``bucket_fold`` keyed on ``content_hash`` with a vectorized
    fold per output block — measured ~2× faster at 1M mostly-unique keys
    than a sort-based ``groupby(content_hash)`` (the int32 bucket key
    sorts cheaper than the 64-bit hash, and the fold is one pandas
    pass)."""

    def partial(t: pa.Table) -> pa.Table:
        t = add_content_hash(t, col)
        df = pd.DataFrame({
            "content_hash": t["content_hash"].to_numpy(zero_copy_only=False),
            id_col: t[id_col].to_numpy(zero_copy_only=False)})
        g = df.groupby("content_hash", as_index=False).agg(
            **{id_col: (id_col, "min"), "dupes": (id_col, "size")})
        g["dupes"] = g["dupes"].astype(np.int64)
        return pd_table(g)

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        out = g.groupby("content_hash", as_index=False).agg(
            **{id_col: (id_col, "min"), "dupes": ("dupes", "sum")})
        return out[[id_col, "dupes"]].astype({"dupes": np.int64})

    return bucket_fold(ds.map_batches(partial, batch_format="pyarrow"),
                       ["content_hash"], fold, coalesce=True)


def exact_dedup_rows(ds: "ray.data.Dataset", col: str = "text",
                     id_col: str = "doc_id") -> "ray.data.Dataset":
    """Full-row exact dedup: keep each distinct content's first (min-id) ROW
    — the form a training-data pipeline feeds downstream (exact_dedup keeps
    only winner ids + counts).

    Shape: vectorized content hash per batch, per-batch local first-per-hash
    shrink, then ONE ``bucket_fold`` keyed on ``content_hash`` with a
    vectorized per-block reduction — no per-content-group tasks, and full
    text moves at most once.
    """

    def local_first(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values([id_col], kind="mergesort")
        return df.drop_duplicates("content_hash", keep="first")

    def bucket_first(g: pd.DataFrame) -> pd.DataFrame:
        return local_first(g).drop(columns=["content_hash"])

    return bucket_fold(
        ds.map_batches(lambda t: add_content_hash(t, col),
                       batch_format="pyarrow")
        .map_batches(local_first, batch_format="pandas"),
        ["content_hash"], bucket_first)


def frequent_content_hashes(ds: "ray.data.Dataset", col: str = "text",
                            key_col: str = "conv_id", min_keys: int = 3
                            ) -> np.ndarray:
    """Content hashes of values appearing in ≥ ``min_keys`` DISTINCT keys —
    the C4-style boilerplate detector (a line/turn repeated across many
    pages/conversations is template noise, not signal).

    Shape: vectorized content hash per batch → per-batch ``(hash, key)``
    dedup shrink (only distinct pairs leave the batch) → ONE
    ``bucket_fold`` keyed on the hash → per-block vectorized nunique →
    threshold.
    The result is the values that repeat across ≥ min_keys keys: bounded
    and tiny by construction (threshold caps cardinality), so it is safe
    to collect and broadcast for the removal pass.
    """

    def pair_shrink(t: pa.Table) -> pa.Table:
        t = add_content_hash(t, col)
        df = pd.DataFrame({
            "content_hash": t["content_hash"].to_numpy(zero_copy_only=False),
            "k": t[key_col].to_pandas(),
        }).drop_duplicates()
        return pa.table({"content_hash": df["content_hash"].to_numpy(),
                         "k": df["k"].to_numpy(dtype=object)})

    def bucket_count(g: pd.DataFrame) -> pd.DataFrame:
        n = g.drop_duplicates(["content_hash", "k"]) \
             .groupby("content_hash").size()
        keep = n[n >= min_keys]
        return pd.DataFrame(
            {"content_hash": keep.index.to_numpy().astype(np.int64)})

    freq = bucket_fold(
        ds.map_batches(pair_shrink, batch_format="pyarrow"),
        ["content_hash"], bucket_count, coalesce=True).to_pandas()
    if freq.empty:  # no repeats: Ray hands back a frame with no columns
        return np.zeros(0, np.int64)
    return np.sort(freq["content_hash"].to_numpy().astype(np.int64))


def remove_boilerplate(ds: "ray.data.Dataset", col: str = "text",
                       key_col: str = "conv_id", min_keys: int = 3,
                       keep_cols: "list[str] | None" = None
                       ) -> "ray.data.Dataset":
    """Drop rows whose content repeats across ≥ ``min_keys`` distinct keys.

    Two passes over the stream: detect (``frequent_content_hashes``, tiny
    result) then filter with the sorted hash set broadcast once via
    ``ray.put`` and an ``np.isin`` per batch — content never shuffles.
    """
    import ray

    freq_ref = ray.put(frequent_content_hashes(ds, col, key_col, min_keys))

    def drop_frequent(t: pa.Table) -> pa.Table:
        t = add_content_hash(t, col)
        h = t["content_hash"].to_numpy(zero_copy_only=False)
        out = t.filter(pa.array(~np.isin(h, ray.get(freq_ref))))
        return out.drop_columns(["content_hash"])

    out = ds.map_batches(drop_frequent, batch_format="pyarrow")
    return out.select_columns(keep_cols) if keep_cols else out


def _explode_segments(batch: pa.Table, sep: str, text_col: str,
                      id_col: str) -> pa.Table:
    """One row per LITERAL-separator segment with its 1-based index —
    split_sentences' flat-buffer expansion (text_analysis.py) specialized
    to a fixed separator so the DuckDB twin is a plain ``string_split``."""
    import pyarrow.compute as pc

    parts = pc.split_pattern(pc.coalesce(batch[text_col], ""), pattern=sep)
    parts = parts.combine_chunks()
    lens = pc.list_value_length(parts).to_numpy(zero_copy_only=False)
    lens = np.nan_to_num(lens.astype(np.float64)).astype(np.int64)
    ids = np.repeat(batch[id_col].to_numpy(zero_copy_only=False), lens)
    offsets = np.repeat(np.cumsum(lens) - lens, lens)
    seg_idx = np.arange(int(lens.sum()), dtype=np.int64) - offsets + 1
    flat = parts.flatten() if isinstance(parts, pa.ChunkedArray) else parts
    values = flat.values if isinstance(flat, pa.ListArray) else flat
    return pa.table({id_col: pa.array(ids, type=batch[id_col].type),
                     "seg_idx": pa.array(seg_idx, type=pa.int64()),
                     "seg": values})


def paragraph_dedup(ds: "ray.data.Dataset", sep: str = "\n\n",
                    text_col: str = "text", id_col: str = "doc_id"
                    ) -> "ray.data.Dataset":
    """Segment-level exact dedup with document reassembly — the C4 /
    RefinedWeb line-dedup step: split every document at a literal
    separator, keep each distinct segment's FIRST occurrence corpus-wide
    (min ``(doc_id, seg_idx)``), drop every other occurrence (including
    within-document repeats), and stitch each document back together from
    its surviving segments in original order. Emits
    ``(doc_id, text, n_kept)``; documents whose every segment lost
    disappear (same as the SQL twin's GROUP BY over kept rows). Exact by
    segment STRING — the hash is only the partitioning key.

    Scale shape: vectorized explode, per-batch local first-per-segment
    shrink (min of mins is safe because only global winners survive), then
    TWO `bucket_fold` exchanges — winner election keyed on ``seg`` and
    reassembly keyed on the doc id. Segment text crosses the wire at most
    twice, already locally deduped; no driver materialization, no
    broadcast of the (corpus-sized) segment set.
    """

    def explode_shrink(t: pa.Table) -> pa.Table:
        segs = _explode_segments(t, sep, text_col, id_col)
        if segs.num_rows == 0:
            return pa.table({
                id_col: pa.array([], t[id_col].type),
                "seg_idx": pa.array([], pa.int64()),
                "seg": pa.array([], pa.string())})
        df = pd.DataFrame({
            id_col: segs[id_col].to_numpy(zero_copy_only=False),
            "seg_idx": segs["seg_idx"].to_numpy(zero_copy_only=False),
            "seg": segs["seg"].to_pandas()})
        df = df.sort_values([id_col, "seg_idx"], kind="mergesort")
        return pd_table(df.drop_duplicates("seg", keep="first"))

    def elect_winner(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["seg", id_col, "seg_idx"], kind="mergesort")
        return g.drop_duplicates("seg", keep="first")

    def reassemble(t: pa.Table) -> pa.Table:
        return segment_fold(t, id_col, "seg_idx", "seg", sep) \
            .rename_columns([id_col, "text", "n_kept"])

    winners = bucket_fold(
        ds.map_batches(explode_shrink, batch_format="pyarrow"),
        ["seg"], elect_winner)
    return bucket_fold(winners, [id_col], reassemble, batch_format="pyarrow")


class MinHasher:
    """Map stage (run via ``stages.stage_fn``): text → MinHash signature →
    LSH band rows.

    Emits (doc_id, band, band_hash) rows; near-dup candidates are doc pairs
    sharing any (band, band_hash) bucket. num_perm=64, bands=16×4 targets
    Jaccard ≈ 0.5+ (standard MinHash-LSH S-curve).
    """

    def __init__(self, num_perm: int = 64, bands: int = 16, shingle: int = 5,
                 text_col: str = "text", id_col: str = "doc_id") -> None:
        rng = np.random.default_rng(1234)
        self.a = rng.integers(1, MERSENNE, num_perm, dtype=np.uint64)
        self.b = rng.integers(0, MERSENNE, num_perm, dtype=np.uint64)
        self.num_perm, self.bands = num_perm, bands
        self.rows_per_band = num_perm // bands
        self.shingle, self.text_col, self.id_col = shingle, text_col, id_col

    def signature(self, hashes: np.ndarray) -> np.ndarray:
        # (num_perm,) minima of (a*h + b) mod p over one doc's hash set
        v = (hashes[None, :] * self.a[:, None] + self.b[:, None]) % np.uint64(MERSENNE)
        return v.min(axis=1)

    def signatures(self, flat: np.ndarray, offsets: np.ndarray) -> np.ndarray:
        """All docs' signatures from the flat hash arrays in chunked
        vectorized passes: one (num_perm × chunk) permutation product, then
        a segment-min per doc via ``np.minimum.reduceat`` — no per-doc
        Python loop; the chunk bound keeps the intermediate ≲ 32 MB."""
        D = len(offsets) - 1
        sigs = np.empty((D, self.num_perm), dtype=np.uint64)
        chunk_hashes = 1 << 16
        d0 = 0
        while d0 < D:
            d1 = d0 + 1  # always take ≥1 doc, then fill up to the bound
            while d1 < D and offsets[d1 + 1] - offsets[d0] < chunk_hashes:
                d1 += 1
            seg = flat[offsets[d0]:offsets[d1]]
            v = (seg[None, :] * self.a[:, None] + self.b[:, None]) \
                % np.uint64(MERSENNE)
            local = (offsets[d0:d1] - offsets[d0]).astype(np.int64)
            sigs[d0:d1] = np.minimum.reduceat(v, local, axis=1).T
            d0 = d1
        return sigs

    def __call__(self, batch: pa.Table) -> pa.Table:
        text = batch[self.text_col].to_pandas()
        ids = batch[self.id_col].to_pandas().to_numpy()
        flat, offsets = _flat_token_hashes(text, self.shingle)
        sigs = self.signatures(flat, offsets)
        # fold each band's rows into one bucket hash: FNV-1a over the 64-bit
        # signature words (uint64 wraparound) — two docs share a bucket iff
        # their band signature tuples match (fold collisions only merge
        # buckets, which can only ADD candidates). Chosen over an opaque
        # struct hash so the oracle twin can replay it in HUGEINT SQL.
        band_hash = np.zeros((len(ids), self.bands), dtype=np.uint64)
        for bi in range(self.bands):
            seg = sigs[:, bi * self.rows_per_band:(bi + 1) * self.rows_per_band]
            fold = np.full(len(ids), FNV_BASIS, dtype=np.uint64)
            for k in range(seg.shape[1]):
                fold = (fold ^ seg[:, k]) * FNV_PRIME
            band_hash[:, bi] = fold
        n, b = len(ids), self.bands
        return pa.table({
            self.id_col: pa.array(np.repeat(ids, b)),
            "band": pa.array(np.tile(np.arange(b), n), type=pa.int32()),
            "band_hash": pa.array(band_hash.reshape(-1).astype(np.int64)),
        })


def minhash_duplicate_groups(
    ds: "ray.data.Dataset", id_col: str = "doc_id", **kw
) -> "ray.data.Dataset":
    """LSH bucket groups with >1 member: (band, band_hash, min_id, size).

    Shape: the (band, band_hash, id) stream shrinks per batch to ≤ 1 row
    per (band, band_hash) — template-heavy corpora compress hard here —
    then ONE ``bucket_fold`` keyed on (band, band_hash) with a
    vectorized fold per block (the exact_dedup pattern; measured ~4×
    faster than a sort groupby over the raw 16M-row band stream at 1M
    docs × 16 bands)."""
    bands = ds.map_batches(stage_fn(MinHasher, id_col=id_col, **kw),
                           batch_format="pyarrow")

    def partial(t: pa.Table) -> pa.Table:
        df = pd.DataFrame({
            "band": t["band"].to_numpy(zero_copy_only=False),
            "band_hash": t["band_hash"].to_numpy(zero_copy_only=False),
            "min_id": t[id_col].to_numpy(zero_copy_only=False)})
        g = df.groupby(["band", "band_hash"], as_index=False).agg(
            min_id=("min_id", "min"), size=("min_id", "size"))
        g["size"] = g["size"].astype(np.int64)
        return pd_table(g)

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        out = g.groupby(["band", "band_hash"], as_index=False).agg(
            min_id=("min_id", "min"), size=("size", "sum"))
        out["size"] = out["size"].astype(np.int64)
        return out[out["size"] > 1]

    return bucket_fold(bands.map_batches(partial, batch_format="pyarrow"),
                       ["band", "band_hash"], fold, coalesce=True)


def shingle_hash_rows(batch: pa.Table, id_col: str = "doc_id",
                      text_col: str = "text", shingle: int = 5) -> pa.Table:
    """(id, text) batch → (id, hashes: large_binary) — each doc's sorted
    unique shingle-hash set packed as raw little-endian uint64 bytes, computed
    ONCE per doc. Binary (not list) because it's the payload of the
    candidate-verification hash JOIN and Acero joins only carry fixed-width /
    binary non-key fields."""
    flat, offsets = _flat_token_hashes(batch[text_col].to_pandas(), shingle)
    hashes = pa.Array.from_buffers(
        pa.large_binary(), len(offsets) - 1,
        [None, pa.py_buffer((offsets * 8).tobytes()),
         pa.py_buffer(flat.astype("<u8").tobytes())])
    return pa.table({id_col: batch[id_col], "hashes": hashes})


def candidate_pairs_from_bands(
    bands: "ray.data.Dataset", id_col: str = "doc_id",
) -> "ray.data.Dataset":
    """(id, band, band_hash) rows → distinct candidate id pairs
    (doc_a < doc_b) from same-bucket LSH groups — the shared candidate
    generator for MinHash text near-dup AND banded embedding-cosine LSH.

    Scale shape: NOT one map_groups task per (band, band_hash) — that's
    millions of tiny groups; one ``bucket_fold`` keyed on (band,
    band_hash) and each fold block's multi-member buckets are enumerated
    with size-class vectorized triu expansion (one numpy pass per distinct
    bucket size). Pair dedup (a pair can surface from several bands) is a
    per-batch drop_duplicates shrink then ONE keyed exchange — Ray's
    composite-key hash aggregate is ~20× slower at 10^5 pairs.
    """

    def pairs_of_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop_duplicates(["band", "band_hash", id_col]).sort_values(
            ["band", "band_hash", id_col], kind="mergesort")
        sz = g.groupby(["band", "band_hash"], sort=False)[id_col] \
            .transform("size").to_numpy()
        g = g[sz > 1]
        empty = pd.DataFrame({"doc_a": g[id_col][:0], "doc_b": g[id_col][:0]})
        if not len(g):
            return empty
        gid = g.groupby(["band", "band_hash"], sort=False).ngroup().to_numpy()
        ids = g[id_col].to_numpy()
        sizes = np.bincount(gid)
        starts = np.zeros(len(sizes), dtype=np.int64)
        np.cumsum(sizes[:-1], out=starts[1:])
        out_a, out_b = [], []
        for s in np.unique(sizes):
            sel = np.flatnonzero(sizes == s)
            rows = starts[sel][:, None] + np.arange(s)[None, :]
            mat = ids[rows]  # (groups_of_size_s, s), ids ascending per group
            i, j = np.triu_indices(int(s), k=1)
            out_a.append(mat[:, i].ravel())
            out_b.append(mat[:, j].ravel())
        return pd.DataFrame({"doc_a": np.concatenate(out_a),
                             "doc_b": np.concatenate(out_b)})

    cand = bucket_fold(bands, ["band", "band_hash"], pairs_of_bucket,
                       coalesce=True)

    def local_dedup(g: pd.DataFrame) -> pd.DataFrame:
        return g.drop_duplicates(["doc_a", "doc_b"])

    def local_dedup_arrow(g: pd.DataFrame) -> pa.Table:
        # this fold's blocks feed bucket_join's keyed exchange downstream —
        # emit metadata-free Arrow (pd_table) or every exchange task pays
        # the unhashable-schema slow path ("Failed to hash the schemas")
        return pd_table(local_dedup(g))

    return bucket_fold(
        cand.map_batches(local_dedup, batch_format="pandas"),
        ["doc_a", "doc_b"], local_dedup_arrow, coalesce=True)


def neardup_pairs_ds(
    ds: "ray.data.Dataset", jaccard_threshold: float = 0.5,
    id_col: str = "doc_id", text_col: str = "text", **kw
) -> "ray.data.Dataset":
    """End-to-end near-dup detection: MinHash → LSH buckets → candidate
    pairs → exact n-gram-Jaccard verification. Yields (doc_a, doc_b) with
    doc_a < doc_b, verified ≥ threshold — as a DATASET, never touching the
    driver (the input to the distributed cluster/keep-best paths).

    Scale shape (fully distributed — no doc text ever reaches the driver):
    candidate pairs come only from same-bucket LSH groups (bounded by band
    width) and stay a Dataset; per-doc shingle-hash sets are computed once in
    map_batches and joined back onto the pairs by doc id (two keyed
    ``bucket_join`` calls, no broadcast); the Jaccard verify runs per
    joined batch.
    """
    bands = ds.map_batches(
        stage_fn(MinHasher, id_col=id_col, text_col=text_col, **kw),
        batch_format="pyarrow")
    pairs = candidate_pairs_from_bands(bands, id_col=id_col)
    hashes = ds.map_batches(
        shingle_hash_rows,
        fn_kwargs={"id_col": id_col, "text_col": text_col,
                   "shingle": kw.get("shingle", 5)},
        batch_format="pyarrow")

    # the join folds the right key column into the left key
    joined = bucket_join(pairs, hashes, "doc_a", id_col).rename_columns(
        {"hashes": "hashes_a"})
    joined = bucket_join(joined, hashes, "doc_b", id_col)

    def verify(batch: pa.Table) -> pa.Table:
        # ONE vectorized pass for the whole batch of candidate pairs:
        # concat every pair's two (already sorted-unique) hash sets tagged
        # with the pair index, lexsort, count adjacent equal values within
        # a pair (each set is unique, so every duplicate is one element of
        # the intersection) — no per-pair Python loop / re-sort
        ha = batch["hashes_a"].to_pandas()
        hb = batch["hashes"].to_pandas()
        n = batch.num_rows
        la = np.fromiter((len(x) for x in ha), np.int64, n) // 8
        lb = np.fromiter((len(x) for x in hb), np.int64, n) // 8
        if n == 0:
            return batch.select(["doc_a", "doc_b"])
        flat = np.frombuffer(b"".join(list(ha) + list(hb)), dtype="<u8")
        pair = np.repeat(np.arange(2 * n) % n, np.concatenate([la, lb]))
        order = np.lexsort((flat, pair))
        p_s, f_s = pair[order], flat[order]
        dup = (p_s[1:] == p_s[:-1]) & (f_s[1:] == f_s[:-1])
        inter = np.bincount(p_s[1:][dup], minlength=n).astype(np.float64)
        union = (la + lb).astype(np.float64) - inter
        with np.errstate(divide="ignore", invalid="ignore"):
            jac = np.where(union > 0, inter / union, 1.0)
        return batch.select(["doc_a", "doc_b"]).filter(
            pa.array(jac >= jaccard_threshold))

    return joined.map_batches(verify, batch_format="pyarrow")


def neardup_pairs(
    ds: "ray.data.Dataset", jaccard_threshold: float = 0.5,
    id_col: str = "doc_id", text_col: str = "text", **kw
) -> pd.DataFrame:
    """Driver-side collect of :func:`neardup_pairs_ds` — valid when the
    verified pair set is known-small (the cheap common case; the
    distributed consumers take the Dataset form directly)."""
    out = neardup_pairs_ds(ds, jaccard_threshold, id_col, text_col,
                           **kw).to_pandas()
    if out.empty:  # an empty Dataset collects with no columns at all
        return pd.DataFrame({"doc_a": pd.Series([], dtype="int64"),
                             "doc_b": pd.Series([], dtype="int64")})
    return out.sort_values(["doc_a", "doc_b"]).reset_index(drop=True)


def duplicate_clusters(
    ds: "ray.data.Dataset", jaccard_threshold: float = 0.5,
    id_col: str = "doc_id", text_col: str = "text", **kw
) -> "ray.data.Dataset":
    """Connected components over the verified near-dup pair graph:
    (doc_id, cluster_id) for EVERY doc, cluster_id = min doc id of its
    duplicate component (singletons map to themselves) — the canonical
    keep-one-per-cluster step of a training-data dedup pipeline.

    Scale shape: the pair graph is the output of the fully distributed
    neardup_pairs DAG and is orders of magnitude smaller than the doc set
    (bounded by verified duplicates), so the component labeling runs as
    path-compressed union-find on the pairs alone; the resulting map —
    only docs that HAVE a duplicate — is broadcast via ray.put once and
    applied to the doc stream per batch. No doc text moves, and the wide
    work (LSH bucketing, keyed joins, verify) stays in the pair DAG.
    ``distributed=True`` swaps the labeling for the BSP min-label
    propagation (:func:`cluster_from_pairs_distributed`) over the pair
    DATASET — the pair list never reaches the driver; use it when a
    loose threshold makes the list too large for one task.
    """
    distributed = kw.pop("distributed", False)
    if distributed:
        # the BSP path consumes the pair DATASET directly — the pair list
        # never touches the driver at any size
        pairs_ds = neardup_pairs_ds(ds, jaccard_threshold, id_col,
                                    text_col, **kw)
        return cluster_from_pairs_distributed(ds, pairs_ds, id_col,
                                              "doc_a", "doc_b")
    pairs = neardup_pairs(ds, jaccard_threshold, id_col, text_col, **kw)
    return cluster_from_pairs(ds, pairs, id_col, "doc_a", "doc_b")


def cluster_from_pairs(
    ds: "ray.data.Dataset", pairs: pd.DataFrame, id_col: str,
    a_col: str = "doc_a", b_col: str = "doc_b",
) -> "ray.data.Dataset":
    """Label every id with its duplicate-component min-id given a verified
    pair table (from any of the dedup family's pair generators —
    MinHash/Jaccard, SimHash hamming, embedding cosine). Union-find runs on
    the pairs alone (orders of magnitude smaller than the id set); the
    only-dup-members map broadcasts once via ray.put."""
    import ray

    parent: dict[int, int] = {}

    def find(x: int) -> int:
        root = x
        while parent.setdefault(root, root) != root:
            root = parent[root]
        while parent[x] != root:  # path compression
            parent[x], x = root, parent[x]
        return root

    for a, b in zip(pairs[a_col], pairs[b_col]):
        ra, rb = find(int(a)), find(int(b))
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    comp: dict[int, int] = {x: find(x) for x in parent}
    comp_ref = ray.put(comp)

    def label(batch: pa.Table) -> pa.Table:
        m = ray.get(comp_ref)
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        cluster = np.fromiter((m.get(int(i), int(i)) for i in ids),
                              np.int64, len(ids))
        return pa.table({id_col: batch[id_col],
                         "cluster_id": pa.array(cluster)})

    return ds.select_columns([id_col]).map_batches(
        label, batch_format="pyarrow")


def _cc_labels_distributed(
    pairs, a_col: str, b_col: str, max_iters: int = 64,
) -> "ray.data.Dataset | None":
    """BSP min-label propagation over the pair graph — the shared core of
    :func:`cluster_from_pairs_distributed` and the distributed keep-best
    path. Returns a (node:int64, label:int64) Dataset covering ONLY the
    nodes that appear in the pair graph (bounded by the verified pair
    count, not the corpus), or None for an empty graph. Labels are the
    component min-id fixpoint, certified by an unchanged label sum; raises
    if ``max_iters`` rounds don't converge (partial labels would silently
    split components)."""
    import ray
    import ray.data
    from ray.data.aggregate import Min, Sum

    if isinstance(pairs, pd.DataFrame):
        pairs = ray.data.from_arrow(pa.table({
            a_col: pa.array(pairs[a_col].to_numpy(), type=pa.int64()),
            b_col: pa.array(pairs[b_col].to_numpy(), type=pa.int64())}))

    def symmetrize(t: pa.Table) -> pa.Table:
        a = t[a_col].to_numpy(zero_copy_only=False)
        b = t[b_col].to_numpy(zero_copy_only=False)
        return pa.table({"src": pa.array(np.concatenate([a, b])),
                         "dst": pa.array(np.concatenate([b, a]))})

    edges = pairs.map_batches(symmetrize,
                              batch_format="pyarrow").materialize()
    if edges.count() == 0:
        return None

    # init: label(x) = min(x, min neighbor) — one grouped min, saves a round
    def self_offer(t: pa.Table) -> pa.Table:
        m = pa.table({"node": t["src"], "label": t["dst"]})
        return pa.concat_tables(
            [m, pa.table({"node": t["src"], "label": t["src"]})])

    labels = (edges.map_batches(self_offer, batch_format="pyarrow")
              .groupby("node").aggregate(Min("label", alias_name="label"))
              .materialize())
    prev_sum = labels.aggregate(Sum("label", alias_name="s"))["s"]

    converged = False
    for _ in range(max_iters):
        offers = bucket_join(edges, labels, "src", "node").select_columns(
            ["dst", "label"]).rename_columns({"dst": "node"})
        labels = (offers.union(labels)
                  .groupby("node")
                  .aggregate(Min("label", alias_name="label"))
                  .materialize())
        cur_sum = labels.aggregate(Sum("label", alias_name="s"))["s"]
        if cur_sum == prev_sum:
            converged = True
            break
        prev_sum = cur_sum
    if not converged:
        # returning partial labels would silently split components —
        # diameter > max_iters means the graph needs more rounds
        raise RuntimeError(
            f"connected components did not converge in {max_iters} rounds "
            "(pair-graph diameter exceeds max_iters — raise it)")
    return labels


def cluster_from_pairs_distributed(
    ds: "ray.data.Dataset", pairs, id_col: str,
    a_col: str = "doc_a", b_col: str = "doc_b", max_iters: int = 64,
) -> "ray.data.Dataset":
    """Distributed connected components over the pair graph — the scale
    path next to :func:`cluster_from_pairs`'s driver union-find (which is
    bounded by pair count and can cliff when a loose threshold makes the
    pair list itself huge — r3 VERDICT scale-table caveat).

    Min-label propagation (the standard BSP/Pregel formulation): labels
    start at ``min(node, min neighbor)``, and each round every edge offers
    its endpoint's label to the other side, folded with a grouped ``min``.
    Labels are monotone non-increasing ints, so the total label sum is a
    convergence certificate: one round with an unchanged sum IS the fixed
    point. Rounds needed = graph diameter — near-dup clusters are
    star-like (diameter ~2-3), so 3-4 rounds in practice.

    Per round: one keyed ``bucket_join`` + one grouped min of (node,
    label) rows — the driver only ever sees the scalar label sum. The
    final cluster map applies to the doc stream with a left-outer
    ``bucket_join`` (no driver-side or broadcast map at any point),
    ``coalesce(label, id)`` for docs with no duplicate.
    """
    labels = _cc_labels_distributed(pairs, a_col, b_col, max_iters)
    if labels is None:  # empty pair graph — every id is its own cluster
        return ds.select_columns([id_col]).map_batches(
            lambda t: pa.table({
                id_col: t[id_col],
                "cluster_id": t[id_col].cast(pa.int64())}),
            batch_format="pyarrow")

    def as_id(t: pa.Table) -> pa.Table:
        return pa.table({id_col: t["node"],
                         "cluster_id": t["label"].cast(pa.int64())})

    cluster_map = labels.map_batches(as_id, batch_format="pyarrow")
    joined = bucket_join(ds.select_columns([id_col]), cluster_map, id_col,
                         how="left_outer")

    def finalize(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        lab = pc.coalesce(t["cluster_id"], pc.cast(t[id_col], pa.int64()))
        return pa.table({id_col: t[id_col],
                         "cluster_id": lab.cast(pa.int64())})

    return joined.map_batches(finalize, batch_format="pyarrow")


def simhash64(text: pd.Series, shingle: int = 4) -> np.ndarray:
    """64-bit SimHash per doc (token-hash sign aggregate) — chunked
    vectorized: per-bit ±1 expansion over the flat hash arrays with a
    per-doc segment sum (np.add.reduceat), no per-doc Python loop."""
    flat, offsets = _flat_token_hashes(text, shingle)
    D = len(offsets) - 1
    out = np.zeros(D, dtype=np.uint64)
    shifts = np.arange(64, dtype=np.uint64)[None, :]
    chunk_hashes = 1 << 16
    d0 = 0
    while d0 < D:
        d1 = d0 + 1
        while d1 < D and offsets[d1 + 1] - offsets[d0] < chunk_hashes:
            d1 += 1
        seg = flat[offsets[d0]:offsets[d1]]
        bits = ((seg[:, None] >> shifts) & np.uint64(1)).astype(np.int64)
        v = 2 * bits - 1
        local = (offsets[d0:d1] - offsets[d0]).astype(np.int64)
        sums = np.add.reduceat(v, local, axis=0)  # (docs_in_chunk, 64)
        pos = (sums > 0).astype(np.uint8)
        out[d0:d1] = np.packbits(pos[:, ::-1], axis=1).view(">u8").ravel()
        d0 = d1
    return out


def simhash_rows(batch: pa.Table, id_col: str = "doc_id",
                 text_col: str = "text", shingle: int = 4) -> pa.Table:
    """(id, text) batch → (id, simhash:int64) signature rows."""
    h = simhash64(batch[text_col].to_pandas(), shingle)
    return pa.table({id_col: batch[id_col],
                     "simhash": pa.array(h.astype(np.int64), type=pa.int64())})


def simhash_neardup_pairs(
    ds: "ray.data.Dataset", max_hamming: int = 3,
    id_col: str = "doc_id", text_col: str = "text", shingle: int = 4,
) -> "ray.data.Dataset":
    """SimHash near-dup pairs: docs whose 64-bit SimHash signatures differ
    in at most ``max_hamming`` bits (doc_a < doc_b) — the banded-blocking
    dedup of Manku/Jain/Sarma, "Detecting Near-Duplicates for Web Crawling"
    (WWW'07), batch form.

    EXACT despite the blocking: signatures split into ``max_hamming + 1``
    bit-bands; by pigeonhole, any pair within the hamming radius agrees on
    at least one whole band, so every qualifying pair surfaces as a
    same-bucket candidate (recall 1.0) and the per-pair popcount verify
    keeps precision 1.0.

    Scale shape: bands stream through the shared ``candidate_pairs_from_bands``
    generator (bucketed triu expansion, no per-bucket task); the 8-byte
    signatures are joined back onto the candidate pairs by doc id (two
    keyed ``bucket_join`` calls — never a driver-side signature map); the
    verify is one vectorized xor+popcount per batch.
    """
    bands = max_hamming + 1
    if 64 % bands:
        raise ValueError("max_hamming + 1 must divide 64")
    width = 64 // bands
    mask = np.uint64((1 << width) - 1)

    sigs = ds.map_batches(
        simhash_rows,
        fn_kwargs={"id_col": id_col, "text_col": text_col, "shingle": shingle},
        batch_format="pyarrow")

    def expand_bands(t: pa.Table) -> pa.Table:
        u = t["simhash"].to_numpy(zero_copy_only=False).view(np.uint64)
        ids = t[id_col]
        parts = []
        for b in range(bands):
            bh = ((u >> np.uint64(b * width)) & mask).astype(np.int64)
            parts.append(pa.table({
                id_col: ids,
                "band": pa.array(np.full(len(u), b, dtype=np.int32)),
                "band_hash": pa.array(bh),
            }))
        return pa.concat_tables(parts)

    pairs = candidate_pairs_from_bands(
        sigs.map_batches(expand_bands, batch_format="pyarrow"), id_col=id_col)

    joined = bucket_join(pairs, sigs, "doc_a", id_col).rename_columns(
        {"simhash": "simhash_a"})
    joined = bucket_join(joined, sigs, "doc_b", id_col)

    def verify(batch: pa.Table) -> pa.Table:
        a = batch["simhash_a"].to_numpy(zero_copy_only=False).view(np.uint64)
        b = batch["simhash"].to_numpy(zero_copy_only=False).view(np.uint64)
        x = (a ^ b).view(np.uint8).reshape(-1, 8)
        ham = np.unpackbits(x, axis=1).sum(axis=1)
        return batch.select(["doc_a", "doc_b"]).filter(
            pa.array(ham <= max_hamming))

    return joined.map_batches(verify, batch_format="pyarrow")


def ngram_jaccard(a: str, b: str, n: int = 5) -> float:
    """Exact n-gram Jaccard — the verification kernel for candidate pairs."""
    ha = _token_hashes(pd.Series([a]), n)[0]
    hb = _token_hashes(pd.Series([b]), n)[0]
    inter = np.intersect1d(ha, hb).size
    union = ha.size + hb.size - inter
    return inter / union if union else 1.0


def cluster_keep_best(
    ds: "ray.data.Dataset", score_fn, jaccard_threshold: float = 0.8,
    id_col: str = "doc_id", text_col: str = "text",
    score_col: str = "logit", max_broadcast_pairs: int = 1_000_000, **kw,
) -> "ray.data.Dataset":
    """Per-duplicate-cluster winner selection by QUALITY, not min id — the
    production dedup policy (of N near-identical copies keep the best one,
    e.g. the least-boilerplate crawl of a page).

    ``score_fn`` is a map_batches-shaped scorer over the doc stream that
    emits (id_col, score_col) — e.g. text_analysis.model_score. Winner of a
    cluster = max score, ties broken by min id; singletons keep themselves.

    Two shapes behind a pair-count threshold (the semi_join_keys idiom —
    the pair graph must not become a driver-side frame when a loose
    threshold makes it huge):

    - ``count ≤ max_broadcast_pairs``: union-find over the collected pairs
      on the driver, component map + winner set broadcast once via
      ray.put, one labeling pass over the (id, score) projection — the
      cheap common case (verified near-dup pairs are orders of magnitude
      fewer than docs).
    - past the threshold: fully distributed — BSP min-label connected
      components over the pair Dataset (:func:`_cc_labels_distributed`),
      member scores attached by keyed join, per-cluster winner via ONE
      ``bucket_fold`` grouped max-by-(score, -id), and the full stream
      labeled with a keyed LEFT join. The driver only ever sees the pair
      count and the BSP convergence scalar.

    Both paths emit the identical (id_col, cluster_id, score_col, keep)
    schema and are pinned row-equal by test on the same input.

    Scale shape: scores are computed in ONE distributed pass and kept as a
    16 B/row (id, score) projection; doc text never shuffles on either
    path (the wide work lives in the LSH/verify pair DAG).
    """
    import ray

    pairs_ds = neardup_pairs_ds(
        ds, jaccard_threshold, id_col, text_col, **kw).materialize()
    scores = ds.map_batches(score_fn, batch_format="pyarrow").select_columns(
        [id_col, score_col]).materialize()
    if pairs_ds.count() > max_broadcast_pairs:
        return _keep_best_distributed(scores, pairs_ds, id_col, score_col)

    pairs = pairs_ds.to_pandas()
    if pairs.empty:  # an empty Dataset collects with no columns at all
        pairs = pd.DataFrame({"doc_a": pd.Series([], dtype="int64"),
                              "doc_b": pd.Series([], dtype="int64")})
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        root = x
        while parent.setdefault(root, root) != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    for a, b in zip(pairs["doc_a"], pairs["doc_b"]):
        ra, rb = find(int(a)), find(int(b))
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    comp = {x: find(x) for x in parent}
    comp_ref = ray.put(comp)
    mem_ids = np.fromiter(comp.keys(), np.int64, len(comp))
    mem_ids.sort()
    mem_ref = ray.put(mem_ids)

    def members(t: pa.Table) -> pa.Table:
        ids = t[id_col].to_numpy(zero_copy_only=False)
        return t.filter(pa.array(np.isin(ids, ray.get(mem_ref))))

    mem = scores.map_batches(members, batch_format="pyarrow").to_pandas()
    if len(mem):
        mem["cluster_id"] = mem[id_col].map(comp)
        mem = mem.sort_values([score_col, id_col], ascending=[False, True],
                              kind="mergesort")
        winners = np.sort(mem.groupby("cluster_id", sort=False)[id_col]
                          .first().to_numpy().astype(np.int64))
    else:
        winners = np.array([], dtype=np.int64)
    win_ref = ray.put(winners)

    def label(t: pa.Table) -> pa.Table:
        m = ray.get(comp_ref)
        ids = t[id_col].to_numpy(zero_copy_only=False)
        in_cluster = np.isin(ids, ray.get(mem_ref))
        cluster = ids.astype(np.int64).copy()
        hit = np.flatnonzero(in_cluster)
        # dict lookups only on the (small) duplicate-member subset
        cluster[hit] = np.fromiter((m[int(ids[i])] for i in hit),
                                   np.int64, len(hit))
        keep = ~in_cluster | np.isin(ids, ray.get(win_ref))
        return pa.table({id_col: t[id_col], "cluster_id": pa.array(cluster),
                         score_col: t[score_col],
                         "keep": pa.array(keep)})

    return scores.map_batches(label, batch_format="pyarrow")


def _keep_best_distributed(
    scores: "ray.data.Dataset", pairs_ds: "ray.data.Dataset",
    id_col: str, score_col: str,
) -> "ray.data.Dataset":
    """The past-the-threshold keep-best path: no pair, member or winner
    frame ever reaches the driver.

    1. BSP connected components label every pair-graph node with its
       component min id (``_cc_labels_distributed`` — the same certified
       fixpoint the docs_dup_clusters_bsp oracle pins).
    2. Member scores attach via ONE keyed inner ``bucket_join`` (bounded
       by the pair-graph node count).
    3. Per-cluster winner = max score, tie min id: one ``bucket_fold``
       (cluster-hash bucketed sort + a bucket-agnostic global
       sort/drop_duplicates pass — first row per label in (score desc,
       id asc) order IS the argmax).
    4. Winners join back onto members (member-bounded), then the full
       (id, score) stream takes ONE left-outer ``bucket_join`` against the
       member table; unmatched rows are singletons (cluster = own id,
       keep = True).
    """
    import pyarrow.compute as pc

    labels = _cc_labels_distributed(pairs_ds, "doc_a", "doc_b")
    # pair count > threshold > 0, so the graph is non-empty
    mem = bucket_join(labels, scores, "node", id_col)

    def pick_winner(g: pd.DataFrame) -> pa.Table:
        g = g.sort_values([score_col, "node"], ascending=[False, True],
                          kind="mergesort")
        w = g.drop_duplicates("label", keep="first")
        return pd_table(w[["label", "node"]].rename(
            columns={"node": "winner_id"}))

    winners = bucket_fold(mem, ["label"], pick_winner)

    memw = bucket_join(mem, winners, "label")

    def member_flags(t: pa.Table) -> pa.Table:
        return pa.table({
            id_col: t["node"],
            "cluster_id": t["label"].cast(pa.int64()),
            "_keep_m": pc.equal(t["node"], t["winner_id"])})

    member_tbl = memw.map_batches(member_flags, batch_format="pyarrow")
    final = bucket_join(scores, member_tbl, id_col, how="left_outer")

    def finalize(t: pa.Table) -> pa.Table:
        cid = pc.coalesce(t["cluster_id"],
                          pc.cast(t[id_col], pa.int64()))
        keep = pc.coalesce(t["_keep_m"], pa.scalar(True))
        return pa.table({id_col: t[id_col],
                         "cluster_id": cid.cast(pa.int64()),
                         score_col: t[score_col],
                         "keep": keep.cast(pa.bool_())})

    return final.map_batches(finalize, batch_format="pyarrow")


def _split_space_column(col) -> tuple[np.ndarray, pa.Array]:
    """LITERAL single-space tokens for a whole column: per-doc token
    counts and the flat Arrow token values, split in Arrow C++
    (``pc.split_pattern``) so the DuckDB twin is a plain
    ``string_split(text, ' ')`` — empties from doubled spaces are KEPT
    and nulls coalesce to '' on both sides. This tokenization is the
    parity contract shared by substring_dedup and the DSIR scorer — keep
    the single implementation."""
    import pyarrow.compute as pc

    parts = pc.split_pattern(pc.coalesce(col, ""), pattern=" ")
    parts = parts.combine_chunks()
    lens = pc.list_value_length(parts).to_numpy(zero_copy_only=False)
    lens = np.nan_to_num(lens.astype(np.float64)).astype(np.int64)
    return lens, pc.list_flatten(parts)


def _flat_space_tokens(batch: pa.Table, text_col: str, id_col: str
                       ) -> tuple[np.ndarray, np.ndarray, pa.Array]:
    """:func:`_split_space_column` plus the batch's id column.

    Returns (ids, per-doc token counts, flat Arrow token values)."""
    lens, values = _split_space_column(batch[text_col])
    ids = batch[id_col].to_numpy(zero_copy_only=False)
    return ids, lens, values


def _window_hashes(lens: np.ndarray, tok_hash: np.ndarray, k: int
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All within-doc k-token window starts for a batch, with an FNV-1a
    fold of the k token hashes per window — one vectorized pass, no
    per-doc loop. Returns (flat start indices, 0-based positions within
    their doc, window fold hashes); docs shorter than ``k`` tokens
    contribute nothing."""
    nw = np.maximum(lens - k + 1, 0)
    total_w = int(nw.sum())
    if total_w == 0:
        z = np.array([], dtype=np.int64)
        return z, z, np.array([], dtype=np.uint64)
    off = np.cumsum(lens) - lens
    pos = np.arange(total_w, dtype=np.int64) - np.repeat(
        np.cumsum(nw) - nw, nw)
    starts = np.repeat(off, nw) + pos
    fold = np.full(total_w, FNV_BASIS, dtype=np.uint64)
    for j in range(k):
        fold = (fold ^ tok_hash[starts + j]) * FNV_PRIME
    return starts, pos, fold


def _substring_confirm(g: pd.DataFrame, id_col: str) -> pd.DataFrame:
    """``substring_dedup``'s string-confirm fold over one bucket group of
    candidate windows → the (id, pos, is_canon) mask of windows whose exact
    gram occurs ≥ 2 times; is_canon marks each gram's first (id, pos)."""
    sent = g.head(1)
    g = g[g["gram"] != ""]
    g = g.sort_values(["gram", id_col, "pos"], kind="mergesort")
    c = g.groupby("gram", sort=False)["gram"].transform("size")
    keep = (c >= 2).to_numpy()
    first = (~g["gram"].duplicated()).to_numpy()
    out = g[keep]
    if not len(out):
        # pos=-1 sentinel, dtype-safe (reuses a real id value); filtered
        # at the driver before the mask broadcast. An empty group has no
        # id to reuse, so the sentinel is sized to it (0 rows), as
        # candidates() does with n_sent
        return pd.DataFrame({
            id_col: sent[id_col].to_numpy(),
            "pos": np.full(len(sent), -1, dtype=np.int64),
            "is_canon": np.ones(len(sent), dtype=bool)})
    return pd.DataFrame({
        id_col: out[id_col].to_numpy(),
        "pos": out["pos"].to_numpy().astype(np.int64),
        "is_canon": first[keep]})


def substring_dedup(ds: "ray.data.Dataset", k: int = 5,
                    text_col: str = "text", id_col: str = "doc_id",
                    max_broadcast_masks: int = 1_000_000,
                    ) -> "ray.data.Dataset":
    """Exact duplicated-SUBSTRING removal — the span-level ExactSubstr
    dedup of Lee et al. 2021 ("Deduplicating Training Data Makes Language
    Models Better", arXiv:2107.06499), at word-token granularity: a token
    is DROPPED iff it is covered by at least one k-token window whose
    exact string occurs ≥2 times corpus-wide AND it is not covered by that
    window set's canonical occurrence (the global first by
    ``(doc_id, pos)`` per distinct window string — the "all but one copy"
    rule). Documents are re-emitted as ``(doc_id, text, n_dropped)`` from
    their surviving tokens in original order; documents whose every token
    is dropped disappear (same as the SQL twin's GROUP BY over kept rows).
    Exact by window STRING — hashes are only the prefilter.

    Scale shape (three streaming passes over the doc stream, the corpus
    never materializes):

    1. hash prefilter — per-batch FNV window hashes, local
       (hash → count) shrink, ONE `bucket_fold` exchange of 8-byte rows;
       only hashes with corpus count ≥ 2 survive (a SUPERSET of the true
       duplicate set: collisions only add candidates, never lose one).
       The surviving set is output-bounded and broadcast via ``ray.put``.
    2. string confirm — candidate windows re-emit their exact gram string
       (duplicated spans only; clean text never shuffles), ONE
       `bucket_fold` on the window hash groups equal strings, elects the
       canonical occurrence and emits the (doc_id, pos, is_canon) mask —
       bounded by the true duplicate-occurrence count.
    3. rebuild — the mask broadcasts once; per batch an interval
       delta/cumsum marks covered tokens (no per-window loop) and each
       doc is stitched from its kept tokens.

    At 100 TB the broadcast dup set is bounded by the DISTINCT duplicated
    window count, and the MASK broadcast switches shape behind
    ``max_broadcast_masks`` (the `sample.py` cardinality-threshold
    idiom): past the threshold the rebuild runs fully distributed —
    per-doc masks packed into binary payload columns via one bucketed
    exchange, joined onto the doc stream by a left-outer ``bucket_join``,
    decoded per batch only for duplicate-carrying docs
    (:func:`_substring_rebuild_joined`; path equality pinned by test). Reference has no analogue (training-data op from the build
    brief).
    """
    import ray

    if k < 2:
        # the gram="" sentinel below is only unreachable when a real gram
        # carries >=1 separator space; k=1 would also collapse to plain
        # token dedup, which exact_dedup already covers
        raise ValueError("substring_dedup requires k >= 2")

    def hash_partial(t: pa.Table) -> pa.Table:
        _, lens, flat = _flat_space_tokens(t, text_col, id_col)
        flat = flat.to_numpy(zero_copy_only=False)
        th = pd.util.hash_array(flat)
        _, _, fold = _window_hashes(lens, th, k)
        u, c = np.unique(fold, return_counts=True)
        if not len(u):
            # cnt=0 sentinel: never passes the ≥2 filter, but keeps every
            # task's output non-empty (a 0-row block becomes a schemaless
            # RefBundle and trips Ray's schema-divergence warning)
            u = np.array([0], dtype=np.uint64)
            c = np.array([0], dtype=np.int64)
        return pa.table({
            "whash": pa.array(u.view(np.int64)),
            "cnt": pa.array(c.astype(np.int64))})

    def sum_filter(g: pd.DataFrame) -> pd.DataFrame:
        tot = g.groupby("whash", sort=False, as_index=False)["cnt"].sum()
        return tot[tot["cnt"] >= 2][["whash"]]

    # fixed-width 8-byte rows: coalesce tiny partial blocks before the
    # sort (the CLAUDE.md tiny-row-exchange rule — measured 2× on the
    # 1M-row dedup_exact stream)
    dup_hashes = bucket_fold(
        ds.map_batches(hash_partial, batch_format="pyarrow"),
        ["whash"], sum_filter, coalesce=True)
    # output-bounded driver gather (distinct duplicated windows only);
    # a duplicate-free corpus yields an EMPTY dataset whose to_pandas()
    # has no columns at all — guard before projecting
    dup_pdf = dup_hashes.to_pandas()
    dups = (np.sort(dup_pdf["whash"].to_numpy().astype(np.int64))
            if "whash" in dup_pdf.columns else np.array([], np.int64))
    dups_ref = ray.put(dups)

    def candidates(t: pa.Table) -> pa.Table:
        ids, lens, flat = _flat_space_tokens(t, text_col, id_col)
        flat = flat.to_numpy(zero_copy_only=False)
        th = pd.util.hash_array(flat)
        starts, pos, fold = _window_hashes(lens, th, k)
        d = ray.get(dups_ref)
        sfold = fold.view(np.int64)
        loc = np.searchsorted(d, sfold)
        loc_c = np.clip(loc, 0, max(len(d) - 1, 0))
        hit = (d[loc_c] == sfold) if len(d) else np.zeros(len(sfold), bool)
        if not hit.any():
            # gram="" sentinel (a real k-token gram always contains k-1
            # separator spaces, so "" is unreachable for the enforced
            # k >= 2): keeps the task output non-empty;
            # `_substring_confirm` drops it before grouping. A 0-row block
            # (possible if a future Ray version stops skipping UDFs on
            # empties) has no id value to reuse — return the typed empty
            # instead of a mismatched row.
            n_sent = min(t.num_rows, 1)
            return pa.table({
                id_col: t[id_col].slice(0, n_sent),
                "pos": pa.array([np.int64(-1)] * n_sent),
                "gram": pa.array([""] * n_sent, type=pa.string()),
                "whash": pa.array([np.int64(0)] * n_sent)})
        sc = starts[hit]
        gram = flat[sc].copy()
        for j in range(1, k):
            gram = gram + " "
            gram = gram + flat[sc + j]
        nw = np.maximum(lens - k + 1, 0)
        doc_of_w = np.repeat(np.arange(len(lens)), nw)[hit]
        return pa.table({
            id_col: pa.array(ids[doc_of_w], type=t[id_col].type),
            "pos": pa.array(pos[hit]),
            "gram": pa.array(gram, type=pa.string()),
            "whash": pa.array(sfold[hit])})

    # materialized: the threshold count and the gather/join below both
    # consume it, and a lazy plan would rerun candidates + confirm (and
    # the whole upstream chain) once per consumption
    mask_ds = bucket_fold(
        ds.map_batches(candidates, batch_format="pyarrow"),
        ["whash"], lambda g: _substring_confirm(g, id_col)).materialize()
    # pos=-1 rows are per-block "no masks" sentinels, not mask rows
    if mask_ds.filter(expr="pos >= 0").count() > max_broadcast_masks:
        return _substring_rebuild_joined(ds, mask_ds, k, text_col, id_col)

    mask_df = mask_ds.to_pandas()
    if "pos" not in mask_df.columns:
        mask_df = pd.DataFrame({id_col: pd.Series([], dtype=np.int64),
                                "pos": pd.Series([], dtype=np.int64),
                                "is_canon": pd.Series([], dtype=bool)})
    mask_df = mask_df[mask_df["pos"] >= 0]
    order = np.lexsort((mask_df["pos"].to_numpy(),
                        mask_df[id_col].to_numpy()))
    m_ids = mask_df[id_col].to_numpy()[order]
    m_pos = mask_df["pos"].to_numpy().astype(np.int64)[order]
    m_canon = mask_df["is_canon"].to_numpy().astype(bool)[order]
    mask_ref = ray.put((m_ids, m_pos, m_canon))

    def rebuild(t: pa.Table) -> pa.Table:
        ids, lens, flat = _flat_space_tokens(t, text_col, id_col)
        mi, mp, mc = ray.get(mask_ref)
        off = np.cumsum(lens) - lens
        # locate this batch's mask rows: mask is sorted by (doc_id, pos)
        sort_ids = np.argsort(ids, kind="mergesort")
        lo = np.searchsorted(mi, ids[sort_ids], side="left")
        hi = np.searchsorted(mi, ids[sort_ids], side="right")
        counts = hi - lo
        if counts.sum():
            rows = np.repeat(sort_ids, counts)
            take = np.concatenate(
                [np.arange(a, b) for a, b in zip(lo, hi) if b > a])
            g_start = off[rows] + mp[take]
            canon = mc[take]
        else:
            g_start = np.array([], dtype=np.int64)
            canon = np.array([], dtype=bool)
        return _mark_and_emit(t[id_col], ids, lens, flat, g_start, canon,
                              k, text_col, id_col)

    return ds.map_batches(rebuild, batch_format="pyarrow")


def _mark_and_emit(id_arr: "pa.Array", ids: np.ndarray, lens: np.ndarray,
                   flat: pa.Array, g_start: np.ndarray,
                   canon: np.ndarray, k: int, text_col: str,
                   id_col: str) -> pa.Table:
    """Shared rebuild tail for both substring-dedup mask paths: interval
    delta/cumsum coverage over the batch's global token index space
    (``g_start`` = window start indices, ``canon`` = canonical flags),
    then stitch each doc from its kept tokens. Docs losing every token
    are dropped (the SQL twin's GROUP BY over kept rows)."""
    total = int(lens.sum())
    dropped = np.zeros(total, dtype=bool)
    if total and len(g_start):
        for sel_canon in (False, True):
            sel = canon if sel_canon else ~canon
            delta = np.zeros(total + 1, dtype=np.int64)
            np.add.at(delta, g_start[sel], 1)
            np.add.at(delta, np.minimum(g_start[sel] + k, total), -1)
            cov = np.cumsum(delta[:total]) > 0
            if sel_canon:
                cov_can = cov
            else:
                cov_dup = cov
        dropped = cov_dup & ~cov_can
    doc_of = np.repeat(np.arange(len(lens)), lens)
    n_drop = np.bincount(doc_of[dropped], minlength=len(lens))
    # each doc's kept tokens joined in Arrow C++ (the tokens are already
    # in doc order, so only the join half of segment_fold runs); docs that
    # lost every token have no row
    n_kept = lens - n_drop
    rows_d = np.flatnonzero(n_kept)
    starts = np.cumsum(n_kept[rows_d]) - n_kept[rows_d]
    id_type = id_arr.type if isinstance(id_arr, (pa.Array, pa.ChunkedArray)) \
        else pa.int64()
    return pa.table({
        id_col: pa.array(ids[rows_d], type=id_type),
        text_col: join_segments(flat.filter(pa.array(~dropped)), starts, " "),
        "n_dropped": pa.array(n_drop[rows_d].astype(np.int64))})


def _substring_rebuild_joined(ds: "ray.data.Dataset",
                              mask_ds: "ray.data.Dataset", k: int,
                              text_col: str, id_col: str
                              ) -> "ray.data.Dataset":
    """Distributed rebuild for :func:`substring_dedup` past the mask
    broadcast threshold (the semi_join_keys cardinality-switch idiom,
    sample.py — no driver-side mask frame at 100-TB duplication density):

    1. pack each doc's mask rows into two binary payload columns (pos as
       little-endian int64 bytes, canonical flags as one byte each) via
       ONE ``bucket_fold`` keyed on the doc id — the
       shingle_hash_rows payload pattern, Acero-join-safe;
    2. left-outer ``bucket_join`` of the doc stream to the packed masks;
    3. per batch, decode only the docs WITH masks (bounded by
       duplicate-doc count) and run the shared interval-marking tail.
    """
    import pyarrow.compute as pc

    def pack(g: pd.DataFrame) -> pa.Table:
        g = g.sort_values([id_col, "pos"], kind="mergesort")
        ids = g[id_col].to_numpy()
        pos = g["pos"].to_numpy().astype("<i8")
        can = g["is_canon"].to_numpy().astype(np.uint8)
        starts = np.flatnonzero(np.r_[True, ids[1:] != ids[:-1]]) \
            if len(ids) else np.array([], dtype=np.int64)
        counts = np.diff(np.r_[starts, len(ids)])
        offsets = np.r_[0, np.cumsum(counts)].astype(np.int64)
        mpos = pa.Array.from_buffers(
            pa.large_binary(), len(starts),
            [None, pa.py_buffer((offsets * 8).tobytes()),
             pa.py_buffer(pos.tobytes())])
        mcan = pa.Array.from_buffers(
            pa.large_binary(), len(starts),
            [None, pa.py_buffer(offsets.tobytes()),
             pa.py_buffer(can.tobytes())])
        return pa.table({id_col: pa.array(ids[starts]),
                         "mpos": mpos, "mcanon": mcan})

    # drop the fold's pos=-1 sentinels before the exchange
    packed = bucket_fold(mask_ds.map_batches(
        lambda t: t.filter(pc.greater_equal(t["pos"], 0)),
        batch_format="pyarrow"), [id_col], pack)

    joined = bucket_join(ds, packed, id_col, how="left_outer")

    def rebuild(t: pa.Table) -> pa.Table:
        ids, lens, flat = _flat_space_tokens(t, text_col, id_col)
        off = np.cumsum(lens) - lens
        mp = t["mpos"].to_pandas()
        mc = t["mcanon"].to_pandas()
        rows = np.flatnonzero(mp.notna().to_numpy())
        if len(rows):
            # decode only duplicate-carrying docs (the verify() buffer
            # pattern): one frombuffer over their concatenated payloads
            pos_flat = np.frombuffer(
                b"".join(mp.iloc[i] for i in rows), dtype="<i8")
            canon = np.frombuffer(
                b"".join(mc.iloc[i] for i in rows),
                dtype=np.uint8).astype(bool)
            counts = np.fromiter(
                (len(mp.iloc[i]) // 8 for i in rows), np.int64, len(rows))
            g_start = np.repeat(off[rows], counts) + pos_flat
        else:
            g_start = np.array([], dtype=np.int64)
            canon = np.array([], dtype=bool)
        return _mark_and_emit(t[id_col], ids, lens, flat,
                              g_start.astype(np.int64), canon, k,
                              text_col, id_col)

    return joined.map_batches(rebuild, batch_format="pyarrow")
