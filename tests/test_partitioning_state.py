"""Skew handling (hot-key detection, salted buckets) + correlation store."""

import numpy as np
import pytest


def test_detect_hot_keys_finds_corpus_skew(ray_session, sf_dir):
    from splunk_otel_collector_ray.partitioning import detect_hot_keys
    from splunk_otel_collector_ray.pipelines.logs import read_transcripts

    ds = read_transcripts(sf_dir)
    hot = detect_hot_keys(ds, "conv_id", threshold_rows=100)
    # corpus: first ~1% of convs are hot (~30% of rows); at sf0.001 that is
    # ~5 conversations of ~600 turns each
    assert 1 <= len(hot) <= 20
    assert all(k.startswith("conv-0000000") for k in hot)


def test_hot_convs_query_matches_oracle(ray_session, sf_dir):
    import duckdb

    from splunk_otel_collector_ray import corpus
    from splunk_otel_collector_ray.partitioning import key_counts
    from splunk_otel_collector_ray.pipelines.logs import read_transcripts

    pdf = key_counts(read_transcripts(sf_dir), "conv_id").to_pandas()
    got = set(pdf.loc[pdf.n > 100, "conv_id"])
    tglob = corpus.ensure_transcripts(sf_dir) + "/*.parquet"
    exp = {r[0] for r in duckdb.sql(
        f"SELECT conv_id FROM read_parquet('{tglob}') GROUP BY conv_id "
        "HAVING COUNT(*) > 100").fetchall()}
    assert got == exp


def test_salted_span_durations_equals_unsalted_on_skewed_corpus(ray_session):
    """One conversation owns 30k of ~36k turns: the salted two-pass plan must
    (a) return row-identical results to the plain whole-conv bucketing and
    (b) never put the whole hot conversation into one bucket."""
    import pandas as pd
    import pyarrow as pa
    import ray.data

    from splunk_otel_collector_ray.partitioning import (
        detect_hot_keys,
        salted_bucket,
        salted_span_durations,
    )
    from splunk_otel_collector_ray.stages.metrics import span_durations

    n_hot, n_cold_convs, cold_len = 30_000, 20, 300
    conv = (["conv-hot"] * n_hot
            + [f"conv-c{i:03d}" for i in range(n_cold_convs)
               for _ in range(cold_len)])
    turn = list(range(n_hot)) + list(range(cold_len)) * n_cold_convs
    n = len(conv)
    rng = np.random.default_rng(5)
    role = np.where(rng.integers(0, 3, n) == 0, "tool", "assistant")
    tool = np.where(role == "tool", "bash", "")
    ts = pd.to_datetime(1_700_000_000_000_000
                        + np.arange(n, dtype=np.int64) * 1_000_000, unit="us")
    t = pa.table({"conv_id": conv,
                  "turn_idx": pa.array(np.array(turn, dtype=np.int32)),
                  "role": role.astype(object), "tool": tool.astype(object),
                  "ts": pa.array(ts, type=pa.timestamp("us"))})
    ds = ray.data.from_arrow(t).repartition(8)

    plain = span_durations(ds).to_pandas().sort_values(
        ["conv_id", "turn_idx"]).reset_index(drop=True)
    salted = salted_span_durations(
        ds, hot_threshold=5000, chunk=4096).to_pandas().sort_values(
        ["conv_id", "turn_idx"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(plain, salted)

    # bound check: the hot conv's rows spread over >1 bucket, and no bucket
    # holds more than ~2 chunks of it (chunks collide only at stride `salt`)
    hot = detect_hot_keys(ds, "conv_id", 5000)
    assert hot == {"conv-hot"}
    b = salted_bucket(np.array(["conv-hot"] * n_hot, dtype=object),
                      np.arange(n_hot) // 4096, hot, num_buckets=64)
    counts = np.bincount(b, minlength=64)
    assert (counts > 0).sum() >= 4
    assert counts.max() <= 2 * 4096


def test_salted_bucket_spreads_hot_key():
    from splunk_otel_collector_ray.partitioning import salted_bucket

    keys = np.array(["hot"] * 1000 + ["cold"] * 10, dtype=object)
    sub = np.arange(1010)
    b = salted_bucket(keys, sub, {"hot"}, num_buckets=64, salt=8)
    assert len(set(b[:1000])) == 8       # hot key spread over 8 sub-buckets
    assert len(set(b[1000:])) == 1       # cold key stays on one bucket
    # deterministic
    assert (b == salted_bucket(keys, sub, {"hot"}, 64, 8)).all()


def test_correlation_store(ray_session):
    import ray

    from splunk_otel_collector_ray.state.correlation import CorrelationStore

    store = CorrelationStore.remote()
    ray.get(store.upsert.remote("ep1", {"receiver": "redis"}, ts=100.0))
    ray.get(store.upsert.remote("ep1", {"receiver": "mysql"}, ts=50.0))
    # last-write-wins by ts: the older write must not clobber
    assert ray.get(store.get.remote("ep1")) == {"receiver": "redis"}
    ray.get(store.upsert.remote("ep2", "x", ts=10.0))
    assert ray.get(store.size.remote()) == 2
    # TTL reap drops only stale entries (endpoint_tracker interval loop)
    assert ray.get(store.reap.remote(ttl_seconds=60.0, now=120.0)) == 1
    assert ray.get(store.get.remote("ep2")) is None
    # emit-once LoadOrStore semantics (evaluator.go:110-113)
    assert ray.get(store.emit_once.remote("k")) is True
    assert ray.get(store.emit_once.remote("k")) is False
    # never-upserted emit-once keys reap by their own emit time (bounded
    # memory over a long stream of one-shot status keys) …
    assert ray.get(store.emit_once.remote("s1", now=100.0)) is True
    ray.get(store.reap.remote(ttl_seconds=60.0, now=200.0))
    assert ray.get(store.emit_once.remote("s1", now=200.0)) is True
    # … while a key backed by a FRESH endpoint stays deduped across reaps
    ray.get(store.upsert.remote("ep3", "v", ts=200.0))
    assert ray.get(store.emit_once.remote("ep3", now=100.0)) is True
    ray.get(store.reap.remote(ttl_seconds=60.0, now=220.0))
    assert ray.get(store.emit_once.remote("ep3", now=220.0)) is False


@pytest.mark.parametrize("seed,n_blocks,n_keys,kind", [
    # production-shaped: distinct keys >> blocks
    pytest.param(0, 37, 64 * 64, "int", id="0-37-4096"),
    # distinct keys barely above block count
    pytest.param(1, 128, 256, "int", id="1-128-256"),
    pytest.param(2, 5, 4096, "int", id="2-5-4096"),  # few fat blocks
    (3, 37, 4096, "string"),
    (4, 37, 4096, "two_col"),  # (string, int64) key
    (5, 37, 4096, "timestamp"),
    (6, 37, 4096, "int_nulls"),  # even blocks hold nulls, odd blocks none
    # even blocks carry the int key as float64 with nulls, as a pandas
    # partial over a block holding a null does; odd blocks int64
    (7, 37, 4096, "int_float"),
])
def test_bucket_fold_never_splits_a_bucket(ray_session, seed, n_blocks,
                                           n_keys, kind):
    """THE bucket_fold correctness assumption, pinned directly: after the
    sort exchange, every key lands WHOLE in exactly one output block
    (Ray's range partitioner sends boundary-equal buckets to one side, and
    equal keys hash to one bucket whatever their block holds), so a
    bucket-agnostic fold sees unions of complete keys. The fold here
    emits one (key, n, s) row per key IN ITS BLOCK — a key split across
    blocks would surface as duplicate key rows. Also checks the folded
    per-key sums against ground truth, and that the fold sees exactly
    the input columns: the key columns, never the internal bucket. The
    int rows run the default pandas fold over ``from_pandas`` blocks
    (``b'pandas'`` metadata included); the other kinds need Arrow types
    pandas would not keep, so they fold Arrow over ``from_arrow``."""
    import pandas as pd
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray

    from splunk_otel_collector_ray.partitioning import bucket_fold, pd_table

    rng = np.random.default_rng(seed)
    n = 60_000
    # skewed key distribution (zipf-ish) over n_keys distinct values
    v = (rng.zipf(1.3, n) * 2654435761 % n_keys).astype("int64")
    val = rng.integers(0, 1000, n, dtype="int64")

    if kind == "int":
        keys = ["bucket"]
        df = pd.DataFrame({"bucket": v, "val": val})
        ds = ray.data.from_pandas(
            [df.iloc[i::n_blocks].reset_index(drop=True)
             for i in range(n_blocks)])

        def fold(d: "pd.DataFrame"):
            g = d.groupby("bucket", sort=False)["val"].agg(
                n="size", s="sum").reset_index()
            return pd_table(g.assign(seen=",".join(d.columns)))

        out = bucket_fold(ds, keys, fold).to_pandas()
    else:
        def block(i: int) -> pa.Table:
            k = v[i::n_blocks]
            if kind == "string":
                cols = {"k": pa.array([f"key-{x}" for x in k])}
            elif kind == "two_col":
                cols = {"a": pa.array([str(x % 37) for x in k]),
                        "b": pa.array(k // 37)}
            elif kind == "timestamp":
                cols = {"ts": pa.array(k * 1_000_003,
                                       type=pa.timestamp("us"))}
            else:
                null = (np.arange(len(k)) % 10 == 0) & (i % 2 == 0)
                cols = {"k": pa.array(k, mask=null)}
                if kind == "int_float" and i % 2 == 0:
                    cols = {"k": pc.cast(cols["k"], pa.float64())}
            return pa.table({**cols, "val": pa.array(val[i::n_blocks])})

        blocks = [block(i) for i in range(n_blocks)]
        keys = [c for c in blocks[0].column_names if c != "val"]
        df = pd.concat([b.to_pandas() for b in blocks])
        ds = ray.data.from_arrow(blocks)

        def fold(t: pa.Table) -> pa.Table:
            g = t.group_by(keys, use_threads=False).aggregate(
                [("val", "count"), ("val", "sum")])
            seen = ",".join(t.column_names)
            g = g.select([*keys, "val_count", "val_sum"])
            return g.rename_columns([*keys, "n", "s"]).append_column(
                "seen", pa.array([seen] * g.num_rows))

        out = bucket_fold(ds, keys, fold, batch_format="pyarrow").to_pandas()
    assert set(out["seen"]) == {",".join([*keys, "val"])}
    # exactly one fold row per distinct key == no key ever straddled an
    # output-block boundary
    assert not out.duplicated(keys).any()
    truth = df.groupby(keys, dropna=False)["val"].agg(n="size", s="sum")
    got = out.set_index(keys).sort_index()
    assert len(got) == len(truth)
    assert got.index.equals(truth.index)
    assert (got["n"].to_numpy() == truth["n"].to_numpy()).all()
    assert (got["s"].to_numpy() == truth["s"].to_numpy()).all()


def test_segment_fold_edge_cases():
    """segment_fold at its edges: an empty table keeps the output schema;
    single-row keys; a flag on every row; no flag at all (key segments
    only); rows arrive out of order, null values join as "" and null keys
    form one segment of their own."""
    import pyarrow as pa

    from splunk_otel_collector_ray.partitioning import segment_fold

    t = pa.table({"k": ["b", "a", "c", "a", "a"],
                  "o": pa.array([0, 2, 0, 0, 1], type=pa.int32()),
                  "v": ["b0", "a2", None, "a0", "a1"]})
    flag = pa.array([True] * 5)

    empty = segment_fold(t.slice(0, 0), "k", "o", "v", "|",
                         flag=flag.slice(0, 0))
    assert empty.num_rows == 0
    assert empty.schema == pa.schema([
        ("k", pa.string()), ("record_id", pa.int64()),
        ("v", pa.string()), ("n", pa.int64())])
    assert segment_fold(t.slice(0, 0), "k", "o", "v").schema.names == \
        ["k", "v", "n"]

    # no flag: one segment per key, in key order, values in `o` order
    out = segment_fold(t, "k", "o", "v", "|").to_pydict()
    assert out == {"k": ["a", "b", "c"], "v": ["a0|a1|a2", "b0", ""],
                   "n": [3, 1, 1]}

    # a flag on every row: every row is its own record, numbered per key
    # from 1 (inclusive) or 0 (exclusive)
    for exclusive, first in ((False, 1), (True, 0)):
        out = segment_fold(t, "k", "o", "v", "|", flag=flag,
                           exclusive=exclusive).to_pydict()
        assert out["k"] == ["a", "a", "a", "b", "c"]
        assert out["record_id"] == [first, first + 1, first + 2, first,
                                    first]
        assert out["v"] == ["a0", "a1", "a2", "b0", ""]
        assert out["n"] == [1] * 5

    nulls = pa.table({"k": ["a", None, None], "o": [0, 1, 0],
                      "v": ["a0", "n1", "n0"]})
    assert segment_fold(nulls, "k", "o", "v", "|").to_pydict() == {
        "k": ["a", None], "v": ["a0", "n0|n1"], "n": [1, 2]}

    # a flag on no row (null counts as False): one record 0 per key
    none = pa.array([False, None, False, False, False])
    for exclusive in (False, True):
        out = segment_fold(t, "k", "o", "v", "", flag=none,
                           exclusive=exclusive).to_pydict()
        assert out == {"k": ["a", "b", "c"], "record_id": [0, 0, 0],
                       "v": ["a0a1a2", "b0", ""], "n": [3, 1, 1]}
