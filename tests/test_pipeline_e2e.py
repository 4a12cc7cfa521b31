"""End-to-end pipeline tests (Ray session): flagship run, per-sink equality,
resumable manifests, and the driver-style oracle parity harness."""

import glob
import os
import shutil

import pandas as pd
import pyarrow as pa
import pytest


def test_sinkwriter_retry_idempotent_and_empty_batch(tmp_path):
    from splunk_otel_collector_ray.stages.export import SinkWriter

    batch = pa.table({
        "conv_id": ["c1", "c1", "c2"],
        "turn_idx": pa.array([0, 1, 0], type=pa.int32()),
        "sink": ["sink_a", "sink_b", "sink_a"],
        "severity_text": ["", "ERROR", ""],
        "tool": ["", "", "bash"],
    })
    w = SinkWriter(str(tmp_path))
    c1 = w(batch)
    files1 = sorted(glob.glob(f"{tmp_path}/**/*.parquet", recursive=True))
    c2 = w(batch)  # a Ray task retry re-executes the same batch
    files2 = sorted(glob.glob(f"{tmp_path}/**/*.parquet", recursive=True))
    assert files1 == files2          # deterministic names → same files
    assert c1.equals(c2)             # identical partial counts
    # zero-row batch (possible after upstream filters): no files, no counts
    ce = w(batch.slice(0, 0))
    assert ce.num_rows == 0
    assert sorted(glob.glob(f"{tmp_path}/**/*.parquet",
                            recursive=True)) == files1


def test_sinkwriter_write_plan_encodings_and_readback(tmp_path):
    """SinkWriter's write plan on one parsed, enriched and routed batch of
    two parts: the sf0.01 corpus (``part-0000``) and its free-text lines
    (``part-0001``). The int columns are delta-packed, ``conv_id`` and
    ``span_id`` prefix-delta, ``body`` carries no dictionary, every other
    leaf (the map's included) keeps one; the map leaves are zstd, ``body``
    is zstd in the corpus's files (parsed log records) and snappy in the
    free-text files, and every other leaf is snappy; every leaf but
    ``body``/``span_id`` has statistics; no Arrow schema is stored, and
    pyarrow (table and schema) and DuckDB read back the per-sink split."""
    import duckdb
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from splunk_otel_collector_ray import corpus
    from splunk_otel_collector_ray.stages.enrich import EnrichStage
    from splunk_otel_collector_ray.stages.export import SinkWriter
    from splunk_otel_collector_ray.stages.parse import ParseStage
    from splunk_otel_collector_ray.stages.route import RouteStage

    t = corpus.build_transcripts("sf0.01")
    codes, names = ParseStage.classify(t["text"])
    prose = t.filter(pa.array(codes == names.index("plain")))
    t = pa.concat_tables([
        t.append_column("part", pa.array(["part-0000"] * t.num_rows)),
        prose.append_column("part", pa.array(["part-0001"] * prose.num_rows)),
    ])
    batch = RouteStage()(EnrichStage()(ParseStage()(t)))
    SinkWriter(str(tmp_path), partition_col="part")(batch)
    files = sorted(glob.glob(f"{tmp_path}/part=*/sink=*/*.parquet"))
    logs = [f for f in files if "/part=part-0000/" in f]
    assert len(logs) == len(pc.unique(batch["sink"])) > 1
    assert len(files) - len(logs) > 1
    con = duckdb.connect()
    for f in files:
        sink = os.path.basename(os.path.dirname(f))[len("sink="):]
        part = os.path.basename(os.path.dirname(os.path.dirname(f)))
        want = batch.filter(pc.and_(pc.equal(batch["sink"], sink), pc.equal(
            batch["part"], part[len("part="):])))
        md = pq.ParquetFile(f).metadata
        enc: dict[str, set] = {}
        codec: dict[str, set] = {}
        stats: dict[str, set] = {}
        for g in range(md.num_row_groups):
            for i in range(md.num_columns):
                c = md.row_group(g).column(i)
                enc.setdefault(c.path_in_schema, set()).update(c.encodings)
                codec.setdefault(c.path_in_schema, set()).add(c.compression)
                stats.setdefault(c.path_in_schema, set()).add(c.is_stats_set)
        for col in ("ts", "observed_ts", "turn_idx"):
            assert "DELTA_BINARY_PACKED" in enc[col], (f, col, enc[col])
            assert "RLE_DICTIONARY" not in enc[col], (f, col, enc[col])
        for col in ("conv_id", "span_id"):
            assert "DELTA_BYTE_ARRAY" in enc[col], (f, col, enc[col])
            assert "RLE_DICTIONARY" not in enc[col], (f, col, enc[col])
        assert "RLE_DICTIONARY" not in enc["body"], (f, enc["body"])
        maps = ("attributes.key_value.key", "attributes.key_value.value")
        for col in (*maps, "log_format", "part"):
            assert "RLE_DICTIONARY" in enc[col], (f, col, enc[col])
        assert len(codec) == len(stats) == len(want.schema) + 1
        zstd = (*maps, "body") if f in logs else maps
        for col in codec:
            assert codec[col] == {"ZSTD" if col in zstd else "SNAPPY"}, (
                f, col, codec[col])
            assert stats[col] == {col not in ("body", "span_id")}, (
                f, col, stats[col])
        assert b"ARROW:schema" not in (md.metadata or {})
        back = pq.read_table(f)
        assert back.schema.equals(want.schema)
        assert back.equals(want)
        con.register("want", want)
        for a, b in ((f"read_parquet('{f}')", "want"),
                     ("want", f"read_parquet('{f}')")):
            assert con.execute(f"SELECT count(*) FROM (SELECT * FROM {a} "
                               f"EXCEPT ALL SELECT * FROM {b})"
                               ).fetchone() == (0,), (f, a)
        assert con.execute(f"SELECT count(*) FROM read_parquet('{f}')"
                           ).fetchone() == (want.num_rows,)
        con.unregister("want")


def _snapshot(d: str) -> dict[str, bytes]:
    return {os.path.relpath(os.path.join(a, f), d):
            open(os.path.join(a, f), "rb").read()
            for a, _, fs in os.walk(d) for f in fs}


def _runs_batch() -> pa.Table:
    return pa.table({
        "conv_id": ["c1", "c1", "c2", "c3", "c4"],
        "turn_idx": pa.array([0, 1, 0, 0, 0], type=pa.int32()),
        "part": ["p0", "p0", "p1", "p1", "p0"],
        "sink": ["sink_a", "sink_b", "sink_a", "sink_a", "sink_b"],
        "severity_text": ["", "ERROR", "", "", "ERROR"],
        "tool": ["", "", "bash", "bash", ""],
    })


def test_sinkwriter_splits_batch_into_partition_runs(tmp_path):
    """A batch with two partitions, p0 in two runs: each run is written
    under its own ``part=`` dir exactly as a batch of that run alone, and
    the partial counts are keyed by partition."""
    from splunk_otel_collector_ray.stages.export import SinkWriter

    batch = _runs_batch()
    counts = SinkWriter(str(tmp_path / "all"), partition_col="part")(batch)
    alone = SinkWriter(str(tmp_path / "alone"), partition_col="part")
    for a, b in ((0, 2), (2, 4), (4, 5)):
        alone(batch.slice(a, b - a))
    files = _snapshot(str(tmp_path / "all"))
    assert files == _snapshot(str(tmp_path / "alone"))
    dirs = sorted(os.path.dirname(f) for f in files)
    assert dirs == ["part=p0/sink=sink_a", "part=p0/sink=sink_b",
                    "part=p0/sink=sink_b", "part=p1/sink=sink_a"]
    got = {tuple(r[k] for k in ("part", "sink", "severity_text", "tool")):
           r["n"] for r in counts.to_pylist()}
    assert got == {("p0", "sink_a", "", ""): 1,
                   ("p0", "sink_b", "ERROR", ""): 2,
                   ("p1", "sink_a", "", "bash"): 2}
    with pytest.raises(ValueError, match="null 'part'"):
        SinkWriter(str(tmp_path / "null"), partition_col="part")(
            batch.set_column(2, "part", pa.array(["p0", None] * 2 + ["p0"])))


def test_sinkwriter_one_run_batch_names_and_bytes(tmp_path):
    """A one-partition batch is one run: one file per sink, named by the
    batch's fingerprint (first/last conv_id and turn_idx, row count), whose
    bytes are ``pq.write_table`` of that sink's rows under ``write_plan``
    with the file's own body codec: sink_a's rows are parsed log records,
    sink_b's one row free text."""
    import hashlib
    import io

    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from splunk_otel_collector_ray.stages.export import SinkWriter, write_plan

    batch = _runs_batch().slice(0, 4)
    batch = batch.set_column(2, "part", pa.array(["p0"] * 4))
    batch = batch.append_column(
        "log_format", pa.array(["redis_server", "plain", "redis_server",
                                "plain"]))
    batch = batch.append_column(
        "body", pa.array(["Background saving started by pid 7",
                          "and then the agent wrote some prose", "", "ok"]))
    SinkWriter(str(tmp_path), partition_col="part")(batch)
    fp = hashlib.md5(b"c1|0|c3|0|4").hexdigest()[:16]
    assert write_plan(batch.schema, True) != write_plan(batch.schema, False)
    want = {}
    for sink, log_bodies in (("sink_a", True), ("sink_b", False)):
        buf = io.BytesIO()
        pq.write_table(batch.filter(pc.equal(batch["sink"], sink)), buf,
                       **write_plan(batch.schema, log_bodies))
        want[f"part=p0/sink={sink}/part-{fp}.parquet"] = buf.getvalue()
    assert _snapshot(str(tmp_path)) == want


def test_write_plan_names_nested_leaf_paths(tmp_path):
    """``use_dictionary``, ``compression`` and ``write_statistics`` list
    the Parquet leaf paths pyarrow writes for list, map and struct columns,
    with ``body`` zstd only under ``log_bodies``; the written file follows
    them leaf by leaf, and a table lacking the planned columns still writes
    with the plan."""
    import pyarrow.parquet as pq

    from splunk_otel_collector_ray.stages.export import write_plan

    t = pa.table({
        "tags": pa.array([["a", "b"]]),
        "kv": pa.array([[("k", [1])]],
                       type=pa.map_(pa.string(), pa.list_(pa.int64()))),
        "pt": pa.array([{"x": 1, "y": "a"}]),
        "attributes": pa.array([[("k", "v")]],
                               type=pa.map_(pa.string(), pa.string())),
        "body": ["line"],
    })
    maps = ["attributes.key_value.key", "attributes.key_value.value"]
    for log_bodies in (False, True):
        plan = write_plan(t.schema, log_bodies)
        f = tmp_path / f"t-{log_bodies}.parquet"
        pq.write_table(t, f, **plan)
        leaves = [c.path for c in pq.ParquetFile(f).schema]
        assert plan["use_dictionary"] == [p for p in leaves if p != "body"]
        assert plan["write_statistics"] == [p for p in leaves
                                            if p != "body"]
        zstd = maps + ["body"] if log_bodies else maps
        assert plan["compression"] == {
            p: "zstd" if p in zstd else "snappy" for p in leaves}
        md = pq.ParquetFile(f).metadata.row_group(0)
        for i in range(md.num_columns):
            c = md.column(i)
            assert c.compression == ("ZSTD" if c.path_in_schema in zstd
                                     else "SNAPPY"), (log_bodies,
                                                      c.path_in_schema)
            assert c.is_stats_set == (c.path_in_schema != "body"), (
                c.path_in_schema)
        assert pq.read_table(f).equals(t)


def _body_codecs(d) -> dict[str, str]:
    """The ``body`` column's codec of each Parquet file under ``d``."""
    import pyarrow.parquet as pq

    out = {}
    for f in glob.glob(f"{d}/**/*.parquet", recursive=True):
        rg = pq.read_metadata(f).row_group(0)
        out[os.path.relpath(os.path.dirname(f), d)] = next(
            rg.column(i).compression for i in range(rg.num_columns)
            if rg.column(i).path_in_schema == "body")
    return out


def test_sinkwriter_body_codec_follows_parsed_share(tmp_path):
    """A file's ``body`` is zstd when its parsed rows (``log_format`` not
    "plain") hold at least half of its body bytes, exactly half included,
    and snappy below half, with no body bytes or with no ``log_format``
    column. Each file is decided by its own rows, whatever the rest of
    its batch (rows: c1/p0/a, c1/p0/b, c2/p1/a, c3/p1/a, c4/p0/b)."""
    from splunk_otel_collector_ray.stages.export import SinkWriter

    def codecs(name, body, log_format=None):
        t = _runs_batch().append_column("body", pa.array(body))
        if log_format is not None:
            t = t.append_column("log_format", pa.array(log_format))
        SinkWriter(str(tmp_path / name), partition_col="part")(t)
        return _body_codecs(tmp_path / name)

    lines = ["GET /a 200", "GET /b 200", "GET /c 200", "x", "GET /d 200"]
    assert codecs("no_format", lines) == {
        "part=p0/sink=sink_a": "SNAPPY", "part=p0/sink=sink_b": "SNAPPY",
        "part=p1/sink=sink_a": "SNAPPY"}
    parsed, plain = "apache_access", "plain"
    # p0/a all parsed; p0/b empty then null bodies; p1/a exactly half
    assert codecs("half", ["GET /a", "", "ab", "cd", None],
                  [parsed, parsed, parsed, plain, parsed]) == {
        "part=p0/sink=sink_a": "ZSTD", "part=p0/sink=sink_b": "SNAPPY",
        "part=p1/sink=sink_a": "ZSTD"}
    # p0/a all free text; p0/b parsed rows only; p1/a one byte under half
    assert codecs("under", ["prose", "GET /b", "ab", "abc", "GET /e"],
                  [plain, parsed, parsed, plain, parsed]) == {
        "part=p0/sink=sink_a": "SNAPPY", "part=p0/sink=sink_b": "ZSTD",
        "part=p1/sink=sink_a": "SNAPPY"}


def test_input_column_types_read_back_from_the_export(tmp_path):
    """ParseStage hands the export the generator's column types whatever
    the input's: a ``ts`` in UTC, in another zone, or in ns, ms or s, and
    ``large_string`` or dictionary ``conv_id``/``role``/``tool``. The
    output equals the parse of the same instants (to the microsecond) and
    strings typed as the generator types them, and every SinkWriter file
    reads back ``Table.equals`` its rows (the files store no Arrow
    schema)."""
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from splunk_otel_collector_ray import corpus
    from splunk_otel_collector_ray.stages.enrich import EnrichStage
    from splunk_otel_collector_ray.stages.export import SinkWriter
    from splunk_otel_collector_ray.stages.parse import ParseStage
    from splunk_otel_collector_ray.stages.route import RouteStage

    t = corpus.build_transcripts("sf0.001").slice(0, 3000)
    t = t.append_column("part", pa.array(["p0"] * t.num_rows))
    ts = t.column_names.index("ts")

    def with_ts(col):
        return t.set_column(ts, "ts", col)

    us = pa.timestamp("us")
    variants = {
        "utc": (with_ts(t["ts"].cast(pa.timestamp("us", tz="UTC"))), t),
        "new_york": (with_ts(t["ts"].cast(
            pa.timestamp("us", tz="America/New_York"))), t),
        "ns": (with_ts(t["ts"].cast(pa.timestamp("ns"))), t),
    }
    for unit in ("ms", "s"):
        cut = t["ts"].cast(pa.timestamp(unit), safe=False)
        variants[unit] = (with_ts(cut), with_ts(cut.cast(us)))
    for name in ("conv_id", "role", "tool"):
        i = t.column_names.index(name)
        variants[f"{name}_large"] = (
            t.set_column(i, name, t[name].cast(pa.large_string())), t)
        variants[f"{name}_dict"] = (
            t.set_column(i, name, t[name].dictionary_encode()), t)
    for key, (given, same) in variants.items():
        want = ParseStage()(same)
        assert want.schema.field("observed_ts").type == us
        out = ParseStage()(given)
        assert out.schema.equals(want.schema), key
        assert out.equals(want), key
        batch = RouteStage()(EnrichStage()(out))
        SinkWriter(str(tmp_path / key), partition_col="part")(batch)
        files = glob.glob(f"{tmp_path / key}/part=p0/sink=*/*.parquet")
        assert len(files) > 1
        for f in files:
            sink = os.path.basename(os.path.dirname(f))[len("sink="):]
            rows = batch.filter(pc.equal(batch["sink"], sink))
            back = pq.read_table(f)
            assert back.schema.equals(rows.schema), (key, f)
            assert back.equals(rows), (key, f)


def test_entry_smoke(ray_session):
    import __ray_entry__ as e

    out = e.entry()
    assert len(out) > 0
    assert {"sink", "severity_text", "tool", "n"} <= set(out.columns)
    assert out.n.sum() == 10_000  # every turn lands in exactly one sink


def test_flagship_counts_match_oracle(ray_session, sf_dir, tmp_path):
    import duckdb

    from splunk_otel_collector_ray import corpus
    from splunk_otel_collector_ray.pipelines.logs import run_flagship

    out = run_flagship(sf_dir, str(tmp_path / "flag"))
    tglob = os.path.join(corpus.ensure_transcripts(sf_dir), "*.parquet")
    import __ray_entry__ as e

    sql = e.oracle_sql()["route_counts"].replace(e.ORACLE_TGLOB, tglob)
    exp = dict(duckdb.sql(sql).fetchall())
    assert out["sink_counts"] == {k: int(v) for k, v in exp.items()}
    # routed parquet exists per sink (hive layout)
    assert sorted(os.path.basename(p) for p in
                  glob.glob(str(tmp_path / "flag" / "by_sink" / "sink=*"))) == [
        "sink=sink_assistant", "sink=sink_default", "sink=sink_errors",
        "sink=sink_tools"]


def test_routed_rows_stable_order_and_text_equality(ray_session, sf_dir, tmp_path):
    """North-rule check: per-turn body equality under (conv_id, turn_idx)
    ordering, reassembled from the per-sink outputs."""
    import duckdb

    from splunk_otel_collector_ray import corpus
    from splunk_otel_collector_ray.pipelines.logs import run_flagship

    out = run_flagship(sf_dir, str(tmp_path / "flag2"))
    files = glob.glob(str(tmp_path / "flag2" / "by_sink" / "sink=*" / "*.parquet"))
    got = (
        pd.concat([pd.read_parquet(f, columns=["conv_id", "turn_idx", "body"])
                   for f in files])
        .sort_values(["conv_id", "turn_idx"])
        .reset_index(drop=True)
    )
    import __ray_entry__ as e

    tglob = os.path.join(corpus.ensure_transcripts(sf_dir), "*.parquet")
    sql = e.oracle_sql()["parse_records"].replace(e.ORACLE_TGLOB, tglob)
    exp = (duckdb.sql(sql).fetchdf()[["conv_id", "turn_idx", "body"]]
           .sort_values(["conv_id", "turn_idx"]).reset_index(drop=True))
    assert got.equals(exp)


def test_resumable_skips_completed(ray_session, sf_dir, tmp_path):
    from splunk_otel_collector_ray.pipelines.logs import run_resumable
    from splunk_otel_collector_ray.state import manifest as mf

    out_dir = str(tmp_path / "res")
    r1 = run_resumable(sf_dir, out_dir)
    assert r1["processed"] and not r1["skipped"]
    r2 = run_resumable(sf_dir, out_dir)
    assert not r2["processed"] and r2["skipped"]
    # corrupting one manifest forces exactly that partition to rerun
    part = r2["skipped"][0]
    pdir = os.path.join(out_dir, f"part={part}")
    os.remove(mf.manifest_path(pdir))
    r3 = run_resumable(sf_dir, out_dir)
    assert list(r3["processed"]) == [part]
    assert set(r3["skipped"]) == set(r2["skipped"]) - {part}
    # manifest contents: lineage fields present, counts consistent
    m = mf.read_manifest(pdir)
    assert m["rows"] == sum(m["sink_counts"].values())
    assert m["fingerprint"] == mf.input_fingerprint(m["input"])


@pytest.mark.parametrize("subset", [
    {"parse_records", "parse_ts", "route_rows", "route_counts",
     "sink_aggregate", "enrich"},
    {"sanitize", "severity_transform", "truncate", "spans",
     "timestamp_offset", "filter_severity", "sampler"},
    {"recombine", "tail_sample"},
    {"events_count", "events_sum", "events_filtered", "events_window",
     "events_delta", "events_topk", "lineitem_pricing"},
    {"docs_exact_dedup", "docs_token_stats", "docs_quality", "emb_ann_topk"},
])
def test_oracle_parity(ray_session, sf_dir, subset):
    from splunk_otel_collector_ray.oracle_check import run_parity

    fails = run_parity(sf_dir, subset, log=lambda *_: None)
    assert not fails, fails


def test_resumable_resets_partial_output(ray_session, sf_dir, tmp_path):
    """A partition with files on disk but NO manifest (crash mid-write) must
    be wiped and reprocessed — the exactly-once recovery path."""
    import json

    from splunk_otel_collector_ray.pipelines.logs import run_resumable
    from splunk_otel_collector_ray.state import manifest as mf

    out_dir = str(tmp_path / "resx")
    r1 = run_resumable(sf_dir, out_dir)
    part = list(r1["processed"])[0]
    pdir = os.path.join(out_dir, f"part={part}")
    # simulate a crash: drop the manifest, plant junk partial output
    os.remove(mf.manifest_path(pdir))
    junk = os.path.join(pdir, "sink=sink_tools", "junk.parquet")
    with open(junk, "w") as f:
        f.write("not parquet")
    r2 = run_resumable(sf_dir, out_dir)
    assert part in r2["processed"]
    assert not os.path.exists(junk)  # partial output was reset
    m = mf.read_manifest(pdir)
    assert m["rows"] == r1["processed"][part]["rows"]
    # rows must equal severity roll-up too (lineage self-consistency)
    assert m["rows"] == sum(m["severity_counts"].values())


def test_resumable_multi_partition_matrix(ray_session, tmp_path):
    """3 input part files: complete ones skip, the stale one resets, a NEW
    part joins an existing run — the full skip/reset/extend matrix."""
    import pyarrow.parquet as pq

    from splunk_otel_collector_ray import corpus
    from splunk_otel_collector_ray.pipelines.logs import run_resumable
    from splunk_otel_collector_ray.state import manifest as mf

    t = corpus.build_transcripts("sf0.001")
    src = tmp_path / "src"
    src.mkdir()
    # conv-aligned thirds (conv never spans: split at conv boundaries)
    conv = t.column("conv_id").to_pandas().to_numpy()
    cuts = [0]
    for k in (1, 2):
        i = k * t.num_rows // 3
        while conv[i] == conv[i - 1]:
            i += 1
        cuts.append(i)
    cuts.append(t.num_rows)
    for k in range(3):
        pq.write_table(t.slice(cuts[k], cuts[k + 1] - cuts[k]),
                       str(src / f"part-{k:03d}.parquet"))
    out = str(tmp_path / "out")

    r1 = run_resumable(str(src), out)
    assert sorted(r1["processed"]) == ["part-000", "part-001", "part-002"]
    total = sum(m["rows"] for m in r1["processed"].values())
    assert total == t.num_rows

    # invalidate ONE partition's manifest; rewrite a NEW fourth part
    os.remove(mf.manifest_path(os.path.join(out, "part=part-001")))
    pq.write_table(t.slice(0, 500), str(src / "part-003.parquet"))
    r2 = run_resumable(str(src), out)
    assert sorted(r2["processed"]) == ["part-001", "part-003"]
    assert sorted(r2["skipped"]) == ["part-000", "part-002"]
    # reprocessed partition reproduces identical counts
    assert (r2["processed"]["part-001"]["sink_counts"]
            == r1["processed"]["part-001"]["sink_counts"])


def _write_conv_parts(t: pa.Table, k: int, src) -> list[int]:
    """Cut ``t`` into about ``k`` conv-aligned part files under ``src``
    (a conversation never spans two); returns each part's row count."""
    import pyarrow.parquet as pq

    conv = t.column("conv_id").to_pandas().to_numpy()
    cuts = [0]
    for j in range(1, k):
        i = j * t.num_rows // k
        while i < t.num_rows and conv[i] == conv[i - 1]:
            i += 1
        if cuts[-1] < i < t.num_rows:
            cuts.append(i)
    cuts.append(t.num_rows)
    src.mkdir()
    for j in range(len(cuts) - 1):
        pq.write_table(t.slice(cuts[j], cuts[j + 1] - cuts[j]),
                       str(src / f"part-{j:03d}.parquet"))
    return [b - a for a, b in zip(cuts, cuts[1:])]


def test_resumable_many_tiny_parts(ray_session, tmp_path):
    """~40 tiny conv-aligned part files: the read bundles them into 2 tasks
    per CPU, each task's batch spans many parts, and SinkWriter files each
    part's run under its own partition with its own manifest counts."""
    from splunk_otel_collector_ray import corpus
    from splunk_otel_collector_ray.pipelines.logs import run_resumable

    rows = _write_conv_parts(corpus.build_transcripts("sf0.001"), 40,
                             tmp_path / "src")
    assert len(rows) > 30
    r = run_resumable(str(tmp_path / "src"), str(tmp_path / "out"))
    assert sorted(r["processed"]) == [f"part-{k:03d}" for k in range(len(rows))]
    for k, n in enumerate(rows):
        assert r["processed"][f"part-{k:03d}"]["rows"] == n


def test_resumable_part_missing_columns_fails_named(ray_session, tmp_path):
    """A part file that lacks input columns fails the run with an error
    naming the part and each column it lacks, and no manifest is
    committed; once the part is repaired, a rerun processes every part."""
    import pyarrow.parquet as pq

    from splunk_otel_collector_ray import corpus
    from splunk_otel_collector_ray.pipelines.logs import run_resumable

    src, out = tmp_path / "src", str(tmp_path / "out")
    rows = _write_conv_parts(corpus.build_transcripts("sf0.001"), 4, src)
    bad = str(src / "part-001.parquet")
    whole = pq.read_table(bad)
    pq.write_table(whole.drop_columns(["tool", "ts"]), bad)
    with pytest.raises(Exception, match=r"part-001\.parquet lacks input "
                       r"column\(s\) tool, ts") as err:
        run_resumable(str(src), out)
    assert "ValueError" in str(err.value)
    assert not [f for _, _, fs in os.walk(out) for f in fs
                if f.endswith(".json")]

    pq.write_table(whole, bad)
    r = run_resumable(str(src), out)
    assert r["skipped"] == []
    assert {k: m["rows"] for k, m in r["processed"].items()} == {
        f"part-{j:03d}": n for j, n in enumerate(rows)}


def test_resumable_empty_part_and_extra_column(ray_session, tmp_path):
    """A 0-row part gets a 0-row manifest and is skipped on rerun; a
    column beyond the input columns is not read into the output."""
    import pyarrow.parquet as pq

    from splunk_otel_collector_ray import corpus
    from splunk_otel_collector_ray.pipelines.logs import run_resumable

    src, out = tmp_path / "src", str(tmp_path / "out")
    rows = _write_conv_parts(corpus.build_transcripts("sf0.001"), 3, src)
    extra = str(src / "part-000.parquet")
    t = pq.read_table(extra)
    pq.write_table(t.append_column("extra_col", pa.array(["z"] * t.num_rows)),
                   extra)
    pq.write_table(t.slice(0, 0), str(src / "part-009.parquet"))
    r1 = run_resumable(str(src), out)
    assert r1["processed"]["part-009"]["rows"] == 0
    assert [r1["processed"][f"part-{j:03d}"]["rows"]
            for j in range(len(rows))] == rows
    written = [os.path.join(d, f) for d, _, fs in os.walk(out) for f in fs
               if f.endswith(".parquet")]
    assert written and not any("extra_col" in pq.read_schema(f).names
                               for f in written)
    r2 = run_resumable(str(src), out)
    assert r2["processed"] == {}
    assert "part-009" in r2["skipped"]


def test_resumable_exactly_once_across_bundlings(ray_session, tmp_path):
    """12 parts run in 8 bundles (2 per CPU); with every other manifest
    deleted, the rerun reads its 6 parts in 6 other bundles. The kept half
    is skipped, and every file name, file's bytes and manifest equals the
    first run's: a part's output does not depend on its bundle."""
    import glob as _glob

    from splunk_otel_collector_ray import corpus
    from splunk_otel_collector_ray.pipelines.logs import (
        min_tasks, part_bundles, run_resumable)

    rows = _write_conv_parts(corpus.build_transcripts("sf0.001"), 12,
                             tmp_path / "src")
    assert len(rows) >= 10
    src, out = str(tmp_path / "src"), str(tmp_path / "out")
    ids = list(range(len(rows)))
    assert ([len(b) for b in part_bundles(ids, min_tasks())]
            != [len(b) for b in part_bundles(ids[::2], min_tasks())])
    run_resumable(src, out)
    before = _snapshot(out)
    mans = sorted(_glob.glob(os.path.join(out, "part=*", "_MANIFEST.json")))
    assert len(mans) == len(rows)
    for m in mans[::2]:
        os.remove(m)
    kept = sorted(os.path.basename(os.path.dirname(m))[len("part="):]
                  for m in mans[1::2])
    r = run_resumable(src, out)
    assert sorted(r["skipped"]) == kept
    assert len(r["processed"]) == len(rows) - len(kept)
    assert _snapshot(out) == before


def test_resumable_forced_block_splits_stay_exactly_once(ray_session,
                                                         tmp_path):
    """With a tiny ``target_max_block_size`` Ray cuts the bundles' blocks
    inside parts, so SinkWriter sees batches that start and end mid-part
    and span parts. Per partition, footer rows = manifest rows = input
    rows, and no (conv_id, turn_idx) is written twice."""
    import pyarrow.parquet as pq
    from ray.data import DataContext

    from splunk_otel_collector_ray import corpus
    from splunk_otel_collector_ray.pipelines.logs import run_resumable
    from splunk_otel_collector_ray.state import manifest as mf

    t = corpus.build_transcripts("sf0.001")
    rows = _write_conv_parts(t, 12, tmp_path / "src")
    out = str(tmp_path / "out")
    ctx = DataContext.get_current()
    prev = ctx.target_max_block_size
    ctx.target_max_block_size = 64 << 10
    try:
        run_resumable(str(tmp_path / "src"), out)
    finally:
        ctx.target_max_block_size = prev
    keys = []
    for k, n in enumerate(rows):
        pdir = os.path.join(out, f"part=part-{k:03d}")
        files = glob.glob(os.path.join(pdir, "sink=*", "*.parquet"))
        assert len(files) > len(glob.glob(os.path.join(pdir, "sink=*")))
        tables = [pq.read_table(f, columns=["conv_id", "turn_idx"])
                  for f in files]
        assert sum(x.num_rows for x in tables) == n
        assert mf.read_manifest(pdir)["rows"] == n
        keys += [key for x in tables for key in zip(
            x["conv_id"].to_pylist(), x["turn_idx"].to_pylist())]
    assert len(keys) == len(set(keys)) == t.num_rows


def _lineage_report(out: str):
    import json
    import subprocess
    import sys

    script = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "scripts", "lineage_report.py")
    p = subprocess.run([sys.executable, script, out], capture_output=True,
                       text=True, timeout=120)
    return p.returncode, json.loads(p.stdout)


def test_null_tool_rows_are_counted(ray_session, tmp_path, monkeypatch):
    """A part of 6 tool-call rows, 4 with a null ``tool`` and 1 with a null
    ``role``: the manifest counts every row the sink files hold, its
    ``sink_counts`` equal the DuckDB oracle's routing (a NULL ``tool``
    fails the tools rule), and the flagship's rows, sink counts and
    (sink, severity, tool) aggregate keep the null-``tool`` group."""
    import duckdb
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    import __ray_entry__ as e
    from splunk_otel_collector_ray import corpus
    from splunk_otel_collector_ray.pipelines import logs

    t = corpus.build_transcripts("sf0.001")
    t = t.filter(pc.equal(t["role"], "tool")).slice(0, 6)
    tool = t["tool"].to_pylist()
    tool[1:5] = [None] * 4
    role = t["role"].to_pylist()
    role[5] = None
    t = t.set_column(t.column_names.index("tool"), "tool", pa.array(tool))
    t = t.set_column(t.column_names.index("role"), "role", pa.array(role))
    src = tmp_path / "src"
    src.mkdir()
    pq.write_table(t, str(src / "part-000.parquet"))

    def oracle(q: str) -> list[tuple]:
        sql = e.oracle_sql()[q].replace(e.ORACLE_TGLOB,
                                        str(src / "*.parquet"))
        return duckdb.sql(sql).fetchall()

    want_sinks = {k: int(v) for k, v in oracle("route_counts")}
    out = str(tmp_path / "out")
    m = logs.run_resumable(str(src), out)["processed"]["part-000"]
    footer = sum(pq.read_metadata(f).num_rows for f in glob.glob(
        os.path.join(out, "part=part-000", "sink=*", "*.parquet")))
    assert m["rows"] == footer == 6
    assert m["sink_counts"] == want_sinks
    assert _lineage_report(out)[0] == 0

    monkeypatch.setattr(logs, "ensure_transcripts",
                        lambda sf, force=False: str(src))
    f = logs.run_flagship("null-tool", str(tmp_path / "flag"))
    assert f["rows"] == 6
    assert f["sink_counts"] == want_sinks
    agg = pq.read_table(os.path.join(f["aggregate_dir"],
                                     "sink_severity_tool.parquet"))
    got = [(r["sink"], r["severity_text"], r["tool"], int(r["n"]))
           for r in agg.to_pylist()]
    assert sorted(got, key=repr) == sorted(oracle("sink_aggregate"),
                                           key=repr)
    assert any(r[2] is None for r in got)


def test_resumable_invalid_utf8_fails_named(ray_session, tmp_path):
    """A part whose ``text`` holds invalid UTF-8 fails the run with a
    ``ValueError`` naming the column, and no manifest is committed."""
    import pyarrow.parquet as pq

    from splunk_otel_collector_ray import corpus
    from splunk_otel_collector_ray.pipelines.logs import run_resumable

    src, out = tmp_path / "src", str(tmp_path / "out")
    _write_conv_parts(corpus.build_transcripts("sf0.001"), 3, src)
    bad = str(src / "part-001.parquet")
    t = pq.read_table(bad)
    vals = t["text"].cast(pa.binary()).to_pylist()
    vals[5] = b"\xff\xfe bad"
    pq.write_table(t.set_column(
        t.column_names.index("text"), "text",
        pa.array(vals, type=pa.binary()).view(pa.string())), bad)
    with pytest.raises(Exception, match=r"column 'text' holds invalid "
                       r"UTF-8 at row [0-9]+: b'\\xff\\xfe bad'") as err:
        run_resumable(str(src), out)
    assert "ValueError" in str(err.value)
    assert not [f for _, _, fs in os.walk(out) for f in fs
                if f.endswith(".json")]


def test_lineage_report_reconciles_manifests_with_footers(ray_session,
                                                          tmp_path):
    """``scripts/lineage_report.py`` exits 0 on a clean run of log lines
    and of free text, and reports each sink's files, their bytes and their
    ``body`` codecs (zstd for log lines, snappy for free text); a manifest
    whose rows or sink counts disagree with its partition's Parquet
    footers is listed, and the script exits 1."""
    import pyarrow.compute as pc

    from splunk_otel_collector_ray import corpus
    from splunk_otel_collector_ray.pipelines.logs import run_resumable
    from splunk_otel_collector_ray.stages.parse import ParseStage
    from splunk_otel_collector_ray.state import manifest as mf

    t = corpus.build_transcripts("sf0.001")
    prose = t.set_column(
        t.column_names.index("text"), "text", pc.binary_join_element_wise(
            "the", t["role"], "wrote a few plain words here", " "))
    codes, names = ParseStage.classify(prose["text"])
    assert (codes == names.index("plain")).all()
    for name, table, codec in (("prose", prose, "SNAPPY"),
                               ("logs", t, "ZSTD")):
        rows = _write_conv_parts(table, 3, tmp_path / f"{name}_src")
        out = str(tmp_path / name)
        run_resumable(str(tmp_path / f"{name}_src"), out)
        code, rep = _lineage_report(out)
        assert code == 0
        assert rep["partitions_mismatched"] == []
        assert rep["rows"] == sum(rows)
        sinks = {os.path.basename(d)[len("sink="):]
                 for d in glob.glob(os.path.join(out, "part=*", "sink=*"))}
        assert set(rep["sinks"]) == sinks
        for sink, got in rep["sinks"].items():
            files = glob.glob(os.path.join(out, "part=*", f"sink={sink}",
                                           "*.parquet"))
            assert got == {
                "files": len(files),
                "bytes": sum(os.path.getsize(f) for f in files),
                "body_codec": {codec: len(files)}}, (name, sink)

    # `out` and `rows` are the log-line run's (the loop's last)
    for part, doctor in (("part-001", "rows"), ("part-002", "sink_counts")):
        pdir = os.path.join(out, f"part={part}")
        m = mf.read_manifest(pdir)
        if doctor == "rows":
            m["rows"] -= 1
        else:  # same total, one row moved to another sink
            a, b = sorted(m["sink_counts"])[:2]
            m["sink_counts"][a] -= 1
            m["sink_counts"][b] += 1
        mf.write_manifest(pdir, m)
    code, rep = _lineage_report(out)
    assert code == 1
    assert [x["partition"] for x in rep["partitions_mismatched"]] == [
        "part=part-001", "part=part-002"]
    assert rep["partitions_mismatched"][0]["footer_rows"] == rows[1]


def test_run_resumable_builds_no_parquet_read(ray_session, tmp_path,
                                              monkeypatch):
    """``run_resumable`` never calls ``ray.data.read_parquet`` (whose
    driver-side sampling tasks cost more than the read) and hands
    ``from_items`` one block per bundle: min(#parts, 2 × CPUs)."""
    import ray.data

    from splunk_otel_collector_ray import corpus
    from splunk_otel_collector_ray.pipelines.logs import (
        min_tasks, run_resumable)

    def boom(*args, **kwargs):
        raise AssertionError("run_resumable called ray.data.read_parquet")

    blocks = []
    from_items = ray.data.from_items

    def spy(items, **kwargs):
        blocks.append(kwargs.get("override_num_blocks"))
        return from_items(items, **kwargs)

    monkeypatch.setattr(ray.data, "read_parquet", boom)
    monkeypatch.setattr(ray.data, "from_items", spy)
    t = corpus.build_transcripts("sf0.001")
    for k, src in ((3, "few"), (20, "many")):
        rows = _write_conv_parts(t, k, tmp_path / src)
        r = run_resumable(str(tmp_path / src), str(tmp_path / f"out_{src}"))
        assert sum(m["rows"] for m in r["processed"].values()) == sum(rows)
    assert blocks == [3, min(20, min_tasks())] and min_tasks() < 20


def test_part_bundles_contiguous_in_order():
    from splunk_otel_collector_ray.pipelines.logs import part_bundles

    for n_parts in range(1, 30):
        parts = [f"part-{i:03d}" for i in range(n_parts)]
        for n in (1, 2, 8, 64):
            bundles = part_bundles(parts, n)
            assert len(bundles) == min(n_parts, n)
            assert [p for b in bundles for p in b] == parts
            sizes = [len(b) for b in bundles]
            assert max(sizes) - min(sizes) <= 1 and min(sizes) >= 1


def test_two_tier_matches_single_tier(ray_session, sf_dir, tmp_path):
    """agent→gateway split must reproduce the single-tier flagship exactly
    (same per-sink counts) — the tier boundary is pure transport."""
    from splunk_otel_collector_ray.pipelines.logs import run_flagship
    from splunk_otel_collector_ray.pipelines.two_tier import run_two_tier

    single = run_flagship(sf_dir, str(tmp_path / "single"))
    double = run_two_tier(sf_dir, str(tmp_path / "double"))
    assert double["sink_counts"] == single["sink_counts"]
    assert double["rows"] == single["rows"]


def test_two_tier_over_otlp_json_wire(ray_session, sf_dir, tmp_path):
    """transport='otlp' stages REAL ExportLogsServiceRequest JSON between
    the tiers; the gateway must see the identical stream (same per-sink
    counts as parquet staging) and the staged files must be valid OTLP-JSON
    with spec-shaped fields."""
    import json

    from splunk_otel_collector_ray.pipelines.two_tier import run_two_tier

    pq = run_two_tier(sf_dir, str(tmp_path / "pq"), transport="parquet")
    ot = run_two_tier(sf_dir, str(tmp_path / "ot"), transport="otlp")
    assert ot["sink_counts"] == pq["sink_counts"]
    assert ot["rows"] == pq["rows"]

    # binary protobuf transport: same stream, same counts
    pb = run_two_tier(sf_dir, str(tmp_path / "pb"), transport="otlp_pb")
    assert pb["sink_counts"] == pq["sink_counts"]

    staged = sorted((tmp_path / "ot" / "staging").glob("req-*.json"))
    assert staged
    req = json.loads(staged[0].read_text())
    rl = req["resourceLogs"][0]
    assert {a["key"] for a in rl["resource"]["attributes"]} >= {
        "host.name", "k8s.pod.name"}
    rec = rl["scopeLogs"][0]["logRecords"][0]
    assert rec["timeUnixNano"].isdigit()  # proto3 JSON uint64 = string
    assert "stringValue" in rec.get("body", {"stringValue": ""})


def test_transient_task_failure_retries_exactly_once(ray_session, tmp_path):
    """Retry/backoff analogue of the exporter sending_queue: a map stage
    that fails transiently (first attempt per flag file) completes under
    retry_exceptions and produces exactly the unfailed row set — no loss,
    no duplication."""
    import os

    import pyarrow as pa
    import ray.data

    flag = str(tmp_path / "failed_once")

    def flaky(batch: pa.Table) -> pa.Table:
        if not os.path.exists(flag):
            with open(flag, "w") as f:
                f.write("x")
            raise RuntimeError("transient export failure (injected)")
        return batch

    from splunk_otel_collector_ray.pipelines.logs import read_transcripts

    ds = read_transcripts("/root/testdata/sf0.001").map_batches(
        flaky, batch_format="pyarrow",
        retry_exceptions=True, max_retries=3)
    df = ds.groupby("role").count().to_pandas()
    assert os.path.exists(flag)              # the failure really fired
    assert int(df["count()"].sum()) == 10_000  # every row exactly once
