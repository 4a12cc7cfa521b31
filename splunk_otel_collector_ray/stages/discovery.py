"""Discovery receiver Match-rule evaluator — status evaluation over records.

Reference semantics (citations into /root/reference):
- Match table: each rule carries exactly one of (strict | regexp | expr)
  plus a resulting status and message; "The first matching rule determines
  status" (internal/receiver/discoveryreceiver/config.go:66-83).
- evaluateMatch builds the matcher per kind — strict equality, regexp
  MatchString, compiled expr over the record env — and emits a status log
  record on match (evaluator.go:60-107).
- Emit-once: a sync.Map keyed on (endpoint, receiver, status, pattern)
  suppresses repeat emissions (evaluator.go:112-115).

Ray shape: rule masks are ONE vectorized pass each over the batch
(first-match-wins via an unclaimed mask, a short-circuit cascade — each
matcher only scans still-unclaimed rows); emit-once is a per-batch
partial first + one bucketed exchange (never a driver-side seen-set).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray.data


@dataclass
class MatchRule:
    """One Status Match entry (config.go:76-83): exactly one of
    strict / regexp / expr must be set."""

    status: str
    message: str = ""
    strict: str | None = None
    regexp: str | None = None
    expr: str | None = None

    def __post_init__(self) -> None:
        if sum(v is not None for v in
               (self.strict, self.regexp, self.expr)) != 1:
            raise ValueError(
                "exactly one of strict/regexp/expr per Match rule "
                "(evaluator.go:98-99 'no valid match field provided')")

    @property
    def pattern(self) -> str:
        return self.strict or self.regexp or self.expr


def evaluate_matches(batch: pa.Table, rules: list[MatchRule],
                     pattern_col: str) -> np.ndarray:
    """Per-record index of the FIRST matching rule (-1 = no match).
    Short-circuit: each rule's matcher only scans still-unclaimed rows
    (rows claimed by an earlier rule are never rescanned by later
    regexes)."""
    n = batch.num_rows
    idx = np.full(n, -1, dtype=np.int64)
    unclaimed = np.ones(n, dtype=bool)
    col = batch[pattern_col]
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    for i, r in enumerate(rules):
        rows = np.flatnonzero(unclaimed)
        if not len(rows):
            break
        take = pa.array(rows, type=pa.int64())
        if r.strict is not None:
            m = pc.fill_null(pc.equal(col.take(take), r.strict), False)
            m = m.to_numpy(zero_copy_only=False).astype(bool)
        elif r.regexp is not None:
            m = pc.fill_null(
                pc.match_substring_regex(col.take(take), r.regexp), False)
            m = m.to_numpy(zero_copy_only=False).astype(bool)
        else:
            from ..functions.expr import compile_predicate

            m = np.asarray(
                compile_predicate(r.expr)(batch.take(take)), dtype=bool)
        hit = rows[m]
        idx[hit] = i
        unclaimed[hit] = False
    return idx


def discovery_status(
    ds: "ray.data.Dataset", rules: list[MatchRule],
    pattern_col: str = "body", endpoint_col: str = "conv_id",
    order_col: str = "turn_idx", receiver_id: str = "receiver",
) -> "ray.data.Dataset":
    """Configured discovery-status evaluation as one queryable component:
    first-match-wins over the Match table per record, then emit-once per
    (endpoint, receiver, status, pattern) — the earliest record by
    ``order_col`` wins (the deterministic analogue of the arrival-order
    sync.Map in evaluator.go:112-115).

    Output: (endpoint, receiver, status, pattern, message, <order_col>).
    Scale shape: matching is vectorized per batch; the emit-once dedup is a
    per-batch partial first (idxmin) + ONE bucketed exchange on endpoint
    hash — tiny rows only, never the full stream and never a driver set.
    """
    from ..partitioning import bucket_fold, pd_table

    statuses = np.array([r.status for r in rules], dtype=object)
    patterns = np.array([r.pattern for r in rules], dtype=object)
    messages = np.array([r.message for r in rules], dtype=object)

    def emit(batch: pa.Table) -> pa.Table:
        idx = evaluate_matches(batch, rules, pattern_col)
        sel = np.flatnonzero(idx >= 0)
        t = batch.take(pa.array(sel, type=pa.int64()))
        ri = idx[sel]
        return pa.table({
            "endpoint": t[endpoint_col],
            "receiver": pa.array(
                np.full(len(ri), receiver_id, dtype=object),
                type=pa.string()),
            "status": pa.array(statuses[ri], type=pa.string()),
            "pattern": pa.array(patterns[ri], type=pa.string()),
            "message": pa.array(messages[ri], type=pa.string()),
            order_col: t[order_col],
        })

    KEY = ["endpoint", "receiver", "status", "pattern"]

    def local_first(g: pd.DataFrame) -> pd.DataFrame:
        return g.loc[g.groupby(KEY, sort=False)[order_col].idxmin()]

    return bucket_fold(
        ds.map_batches(emit, batch_format="pyarrow")
        .map_batches(lambda t: pd_table(local_first(t.to_pandas())),
                     batch_format="pyarrow"),
        ["endpoint"], local_first, coalesce=True)
