"""Context-window packing — a distributed prefix sum over token counts.

GPT-style training data prep concatenates documents into one contiguous
token stream (in a stable document order) and slices fixed-size context
windows from it. The batch operator is: give each document its absolute
token offset ``tok_start = exclusive_prefix_sum(n_tokens)`` and the
window its first token falls in, ``bin_id = tok_start // window``.

A global ordered prefix sum is the one aggregate Ray Data's commutative
`Aggregate` API cannot express, so it gets the classic two-level scan:

1. range-bucket on the (dense, documented assumption) integer doc id —
   ``bucket = doc_id // bucket_span`` keeps buckets contiguous in doc
   order, so per-bucket results compose;
2. per-bucket token SUMS via one vectorized map_batches partial → tiny
   driver frame (≤ one row per bucket per block);
3. driver-side exclusive scan over the per-bucket sums (tiny), giving
   each bucket's absolute starting offset;
4. ONE bucketed exchange (groupby bucket) with a vectorized per-bucket
   sorted cumsum + broadcast offset — full rows move exactly once.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa


def pack_documents(ds: "ray.data.Dataset", window: int = 512,
                   count_col: str = "n_ws_tokens", id_col: str = "doc_id",
                   bucket_span: int = 65536) -> "ray.data.Dataset":
    """Assign each doc its absolute token offset and context-window id.

    ``ds`` must already carry ``count_col`` (see text_analysis.token_stats)
    and a dense integer ``id_col`` defining the pack order. Docs longer
    than ``window`` keep the window of their FIRST token (they span into
    the following windows; the slicer handles the split).
    """
    # two passes are inherent to a scan (partial sums, then the offset
    # apply); pin the narrow (id, count) projection once so the upstream
    # pipeline — possibly a full clean/dedup chain — does not re-execute,
    # and PROJECT BEFORE pinning: the scan needs 16 B/row, not the text
    ds = ds.select_columns([id_col, count_col]).materialize()

    def partial_sums(t: pa.Table) -> pa.Table:
        ids = t[id_col].to_numpy(zero_copy_only=False)
        n = t[count_col].to_numpy(zero_copy_only=False)
        bk = ids // bucket_span
        u, inv = np.unique(bk, return_inverse=True)
        return pa.table({"bk": u,
                         "s": np.bincount(inv, weights=n).astype(np.int64)})

    parts = ds.map_batches(partial_sums, batch_format="pyarrow").to_pandas()
    sums = parts.groupby("bk")["s"].sum().sort_index()
    offsets = {int(b): int(o)
               for b, o in zip(sums.index, sums.cumsum().shift(fill_value=0))}

    def add_bucket(t: pa.Table) -> pa.Table:
        ids = t[id_col].to_numpy(zero_copy_only=False)
        return t.append_column(
            "_bk", pa.array((ids // bucket_span).astype(np.int64)))

    def bucket_scan(g: pd.DataFrame) -> pd.DataFrame:
        # bucket-agnostic (a block may hold several COMPLETE range
        # buckets): within-bucket exclusive cumsum + that bucket's
        # broadcast absolute offset, all in one vectorized pass
        g = g.sort_values(["_bk", id_col], kind="mergesort")
        n = g[count_col].to_numpy()
        bk = g["_bk"].to_numpy()
        within = np.cumsum(n) - n  # running exclusive cumsum over the block
        first = np.r_[True, bk[1:] != bk[:-1]]
        seg = np.cumsum(first) - 1  # dense bucket index per row
        base = np.asarray([offsets[int(b)] for b in bk[first]],
                          dtype=np.int64)[seg]
        start = base + (within - within[first][seg])
        return pd.DataFrame({
            id_col: g[id_col].to_numpy(),
            count_col: n,
            "tok_start": start,
            "bin_id": start // window,
        })

    from ..partitioning import bucket_fold

    return bucket_fold(ds.map_batches(add_bucket, batch_format="pyarrow"),
                       ["_bk"], bucket_scan)
