"""Stateful enrichment — resourcedetection / k8sattributes / resource analogues.

Reference semantics (citations into /root/reference):
- `resourcedetection`: probe detectors once, then stamp the same resource
  attributes on every record; `override: true`
  (cmd/otelcol/config/collector/agent_config.yaml:130-137;
  tests/general/splunk_platform_logs_test.go:104-107).
- `k8sattributes`: enrich each record with pod/namespace/node metadata from a
  watched state cache, associated by record identity
  (internal/components/components.go:325; docs/components.md).
- `resource` processor: stamp `com.splunk.source` / `com.splunk.sourcetype`
  (examples/otel-logs-with-sourcetypes-splunk/otel-collector-config.yml:3-21;
  splunk_logs_config_linux.yaml:56-61).
- extraDimensions override-merge: enrichment dims WIN over record attrs
  (pkg/receiver/smartagentreceiver/output.go:256-259).

Ray-Data-first mapping: the dimension state is a SMALL table → broadcast once
with `ray.put` and look it up in a `map_batches` stage. The logs pipeline
runs it as a fused task-function stage (`make_enrich_fn` =
`stages.stage_fn(EnrichStage, dims_ref)`: the ObjectRef is resolved and
the lookup built once per task — the k8s watch cache analogue).
`__call__` is a vectorized take per batch. No shuffle join.

The fixture dimension table (FIXTURES.md §5) is keyed on a conv bucket. The
bucket function must be computable by the DuckDB oracle too, so it is the
numeric conv_id suffix mod 64 (a stand-in for hash(conv_id) % 64 — at real
scale swap in a proper hash; the engine only needs *some* deterministic
record→dim association, exactly like pod-IP association in k8sattributes).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

N_BUCKETS = 64
NAMESPACES = ["ns-app", "ns-infra", "ns-batch", "ns-web"]
PROVIDERS = ["aws", "gcp", "azure"]

# resource-processor constants (resourcedetection/system + resource stamping)
SOURCE = "transcripts"


def build_dim_table() -> pd.DataFrame:
    """Deterministic 64-row dimension table (FIXTURES.md §5)."""
    b = np.arange(N_BUCKETS)
    return pd.DataFrame(
        {
            "dim_key": b,
            "k8s.pod.name": [f"pod-{i:02d}" for i in b],
            "k8s.namespace.name": [NAMESPACES[i % 4] for i in b],
            "cloud.provider": [PROVIDERS[i % 3] for i in b],
            "host.name": [f"host-{i % 8}" for i in b],
        }
    )


def conv_number(conv_id: pa.ChunkedArray | pa.Array
                ) -> pa.ChunkedArray | pa.Array:
    """conv-00000123 -> 123 as int64 (SQL: CAST(conv_id[6:] AS INT)); a
    null conv_id stays null. A conv_id whose suffix is not an int64 (no
    digits, a letter, a number past int64) raises a ValueError naming
    ``conv_id`` and its first such value."""
    import pyarrow.compute as pc

    def number(ids):
        return pc.cast(pc.utf8_slice_codeunits(ids, 5, 32), pa.int64())

    try:
        return number(conv_id)
    except pa.ArrowInvalid:
        for value in conv_id.to_pylist():  # error path: find the bad one
            try:
                number(pa.array([value], type=pa.string()))
            except pa.ArrowInvalid:
                raise ValueError(f"conv_id {value!r} is not 'conv-' and an "
                                 "int64 number") from None
        raise


def conv_bucket(conv_id_col: pa.ChunkedArray | pa.Array) -> pa.Array:
    """conv-00000123 -> 123 % 64 (SQL: CAST(conv_id[6:] AS INT) % 64).

    int64; a null conv_id has a null bucket, as in SQL. Arrow-native:
    slice+cast are C kernels; no per-row Python strings."""
    seq = conv_number(conv_id_col)
    if isinstance(seq, pa.ChunkedArray):
        seq = seq.combine_chunks()
    return pa.array(seq.fill_null(0).to_numpy() % N_BUCKETS,
                    mask=seq.is_null().to_numpy(zero_copy_only=False))


class EnrichStage:
    """`map_batches` stage: broadcast-dim lookup + resource stamp.

    ``dims`` is a pandas DataFrame (default: ``build_dim_table()``); the
    pipelines broadcast it with ``ray.put`` and run the stage through
    ``make_enrich_fn``, which resolves the ref inside the task.
    """

    DIM_COLS = ["k8s.pod.name", "k8s.namespace.name", "cloud.provider", "host.name"]

    def __init__(self, dims: pd.DataFrame | None = None) -> None:
        if dims is None:
            dims = build_dim_table()
        dims = dims.sort_values("dim_key").reset_index(drop=True)
        # dense bucket index -> small Arrow value arrays; per batch the join
        # is one C-level take (no Python string objects)
        self.lookup = {
            c: pa.array(dims[c].tolist(), type=pa.string())
            for c in self.DIM_COLS
        }

    def __call__(self, batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        b = conv_bucket(batch.column("conv_id"))
        cols = dict(zip(batch.column_names, batch.columns))
        # enrichment dims OVERRIDE existing record columns of the same name
        # (extraDimensions merge semantics, output.go:256-259); a null
        # bucket takes null dims
        for c in self.DIM_COLS:
            cols[c] = pc.take(self.lookup[c], b)
        cols["com.splunk.source"] = pa.nulls(
            batch.num_rows, pa.string()).fill_null(SOURCE)
        # sourcetype := detected format family (the per-source sourcetype
        # stamping of otel-logs-with-sourcetypes-splunk)
        cols["com.splunk.sourcetype"] = batch.column("log_format")
        return pa.table(cols)


def enrich_via_join(ds, dims: pd.DataFrame | None = None):
    """Keyed-join variant of the enrichment — the path for a dimension
    side too large to broadcast (contrast EnrichStage's broadcast lookup;
    ray_guide "both sides large"). One left-outer ``bucket_join`` on the
    association key; every record row moves once, so use ONLY when the
    dim table genuinely can't ride `ray.put`.
    """
    import ray.data

    from ..partitioning import bucket_join

    dims_ds = ray.data.from_pandas(dims if dims is not None else build_dim_table())

    def add_key(t: pa.Table) -> pa.Table:
        return t.append_column("dim_key", conv_bucket(t.column("conv_id")))

    # left outer: a null bucket (null conv_id) keeps its row with null
    # dims, as in the broadcast lookup; an inner join would drop it
    return bucket_join(ds.map_batches(add_key, batch_format="pyarrow"),
                       dims_ds, "dim_key", how="left_outer")


def make_enrich_fn(dims_ref):
    """Task-function EnrichStage over a broadcast dims ObjectRef, built once
    per task (``stages.stage_fn``) — fuses with adjacent task stages."""
    from . import stage_fn

    return stage_fn(EnrichStage, dims_ref)
