"""Unit tests for the remaining operator kernels (no Ray session needed)."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from splunk_otel_collector_ray.functions import scalars
from splunk_otel_collector_ray.stages.attributes import (
    Action,
    AttributesStage,
    extra_dimensions_merge,
)
from splunk_otel_collector_ray.stages.dedup import (
    MinHasher,
    ngram_jaccard,
    simhash64,
)
from splunk_otel_collector_ray.stages.multimodal import (
    FeatureExtractStage,
    decode_image,
    make_fake_items,
)
from splunk_otel_collector_ray.stages.text_analysis import (
    LangIdStage,
    quality_scores,
    token_stats,
)
from splunk_otel_collector_ray.stages.timestamp_offset import TimestampOffset
from splunk_otel_collector_ray.stages.transform import (
    RedactRegex,
    TruncateBody,
)


def test_truncate_body():
    t = pa.table({"body": ["0123456789abcdef", "short", ""]})
    out = TruncateBody(10)(t).to_pandas()
    assert out.body.tolist() == ["0123456789", "short", ""]


def test_redact():
    t = pa.table({"body": ["a 1111-222-3333 b 4444-555-6666 c", "clean"]})
    out = RedactRegex()(t).to_pandas()
    assert out.body.tolist() == ["a XXX-XXX-XXXX b XXX-XXX-XXXX c", "clean"]


def test_timestamp_offset_null_passthrough():
    t = pa.table({"ts": pa.array([pd.Timestamp("2026-01-01"), None],
                                 type=pa.timestamp("us"))})
    out = TimestampOffset(3600)(t).to_pandas()
    assert out.ts[0] == pd.Timestamp("2026-01-01 01:00:00")
    assert pd.isna(out.ts[1])  # zero/unset ts passes through (log_processor.go:32-36)


def test_attributes_actions():
    t = pa.table({"a": ["x", None], "path": ["/api/v1/buy", "/api/v2/sell"]})
    st = AttributesStage([
        Action("insert", "a", value="filled"),       # only fills the null
        Action("upsert", "b", value="B"),
        Action("extract", "path", pattern=r"/api/(?P<ver>v\d+)/(?P<op>\w+)"),
        Action("delete", "path"),
        Action("hash", "b"),
    ])
    out = st(t).to_pandas()
    assert out.a.tolist() == ["x", "filled"]
    assert out.ver.tolist() == ["v1", "v2"]
    assert out.op.tolist() == ["buy", "sell"]
    assert "path" not in out.columns
    assert (out.b == scalars.hash_value("B")).all()


def test_extra_dimensions_override():
    t = pa.table({"host": ["a", "b"], "x": [1, 2]})
    out = extra_dimensions_merge(t, {"host": "forced", "new": "v"}).to_pandas()
    assert out.host.tolist() == ["forced", "forced"]
    assert out.new.tolist() == ["v", "v"]



def test_minhash_similar_docs_share_buckets():
    base = "the quick brown fox jumps over the lazy dog " * 10
    near = base.replace("lazy", "sleepy")
    far = "completely different content about databases " * 10
    t = pa.table({"doc_id": [1, 2, 3], "text": [base, near, far]})
    rows = MinHasher()(t).to_pandas()
    buckets = rows.groupby(["band", "band_hash"]).doc_id.agg(set)
    together12 = sum({1, 2} <= s for s in buckets)
    together13 = sum({1, 3} <= s for s in buckets)
    assert together12 > 0 and together13 == 0


def test_ngram_jaccard_bounds():
    assert ngram_jaccard("abcdefgh", "abcdefgh") == 1.0
    assert ngram_jaccard("abcdefgh", "zzzzzzzz") == 0.0
    sim = ngram_jaccard("the quick brown fox", "the quick brown cat")
    assert 0.0 < sim < 1.0


def test_simhash_close_for_near_dups():
    a = "the quick brown fox jumps over the lazy dog " * 5
    b = a.replace("dog", "cat")
    c = "entirely unrelated words about ray data pipelines " * 5
    h = simhash64(pd.Series([a, b, c]))
    def hamming(x, y):
        return bin(int(x) ^ int(y)).count("1")
    assert hamming(h[0], h[1]) < hamming(h[0], h[2])


def test_token_stats_and_quality():
    t = pa.table({"text": ["hello world foo", "", "a,b,c!!!"]})
    out = token_stats(t).to_pandas()
    assert out.n_ws_tokens.tolist() == [3, 0, 1]
    assert out.n_chars_actual.tolist() == [15, 0, 8]
    q = quality_scores(t).to_pandas()
    assert q.alpha_ratio[0] > q.alpha_ratio[2]
    assert q.quality[0] > q.quality[2]


def test_repetition_stats():
    from splunk_otel_collector_ray.stages.text_analysis import repetition_stats

    t = pa.table({
        "doc_id": pa.array([1, 2, 3, 4], type=pa.int64()),
        "text": ["a b a b a b",        # top bigram "a b" 3 of 5
                 "x\ny\nx\ny",         # 2 of 4 lines are repeats
                 "",                   # no words, single empty line
                 "one"],               # single word → no bigrams
    })
    out = repetition_stats(t).to_pandas()
    assert out.dup_line_frac.tolist() == [0.0, 0.5, 0.0, 0.0]
    assert out.top_bigram_frac.tolist() == [3 / 5, 2 / 3, 0.0, 0.0]


def test_ws_token_explode_matches_findall():
    # the Arrow split tokenizer must be bit-identical to the historical
    # findall(r"[^ \t\n]+") semantics — adversarial whitespace/null cases
    import re

    import numpy as np

    from splunk_otel_collector_ray.stages.text_analysis import (
        _token_ngram_hashes, _ws_token_explode)

    texts = ["a b  c", " lead", "trail ", "\t\ttabs\tx", "a\nb\n\nc",
             "", " ", "\n", None, "one", "a b" * 50, "Ünïcode  wörds"]
    col = pa.array(texts, type=pa.string())
    toks, doc = _ws_token_explode(col)
    rx = re.compile(r"[^ \t\n]+")
    want_toks, want_doc = [], []
    for i, s in enumerate(texts):
        for w in rx.findall(s or ""):
            want_toks.append(w)
            want_doc.append(i)
    assert toks.to_pylist() == want_toks
    assert doc.tolist() == want_doc
    # ngram hashes keyed off the dictionary gather must equal hashing the
    # flat token sequence directly (cross-batch/run comparability)
    import pandas as pd

    h, _ = _token_ngram_hashes(col, n=2)
    th = pd.util.hash_array(np.array(want_toks, dtype=object)).astype(np.uint64)
    P = np.uint64(1099511628211)
    wd = np.array(want_doc)
    ref = [th[i] * P + th[i + 1] for i in range(len(th) - 1)
           if wd[i] == wd[i + 1]]
    assert h.tolist() == ref


def test_clean_stage_each_filter_fires():
    from splunk_otel_collector_ray.stages.text_analysis import CleanStage

    # distinct longish words keep alpha_ratio >= 0.82 and bigrams unique;
    # the leading stopwords pin language ID to English
    good = ("the quickest branches should whisper strange melodies "
            "and it remains that gardens flourish beneath crimson "
            "evenings for wandering travellers discover ancient pathways "
            "carrying luminous treasures homeward tonight")
    t = pa.table({
        "doc_id": pa.array(list(range(6)), type=pa.int64()),
        "text": [
            good,                              # 0: survives
            "too short",                       # 1: token floor
            good.replace("e", "#"),            # 2: alpha/punct ratios
            "der Hund und die Katze sind nicht in der Wohnung und "
            "der Mann ist zu den anderen von der Gruppe gegangen",  # 3: lang
            ("spam ham " * 20).strip(),        # 4: top-bigram cap
            "\n".join([good[:40]] * 10),       # 5: dup-line cap
        ],
    })
    out = CleanStage()(t).to_pandas()
    assert out.doc_id.tolist() == [0]


def test_langid():
    t = pa.table({"text": [
        "the cat and the dog sat in a corner of the room",
        "der Hund und die Katze sind nicht in der Wohnung",
        "le chat et le chien sont dans la maison pour que",
        "xyzzy qwerty",
    ]})
    out = LangIdStage()(t).to_pandas()
    assert out.pred_lang.tolist()[:3] == ["en", "de", "fr"]
    assert out.pred_lang[3] == "unk"


def test_multimodal_stub():
    items = make_fake_items(8)
    out = FeatureExtractStage()(items).to_pandas()
    assert len(out) == 8
    assert all(len(f) == FeatureExtractStage.FEAT_DIM for f in out.features)
    assert "payload" not in out.columns
    with pytest.raises(NotImplementedError):
        decode_image(b"\x89PNG")


def test_scalar_kernels():
    assert scalars.parse_duration("90s") == 90
    assert scalars.parse_duration("-1h") == -3600
    assert scalars.parse_duration("1h30m") == 5400
    body = "x" * 1000
    assert scalars.decode_event_body(scalars.encode_event_body(body)) == body
    assert scalars.glob_to_regex("cpu.*")


def test_attributes_include_guard():
    # processor-level include match (strict/regexp guard): actions apply only
    # to matching rows (full_config_linux.yaml:438-443)
    t = pa.table({"name": ["cpu.idle", "mem.free"], "v": ["a", "b"]})
    st = AttributesStage([Action("upsert", "tag", value="T")],
                         include={"name": ["cpu.*"]})
    out = st(t).to_pandas()
    assert out.tag.tolist() == ["T", None]
    assert out.v.tolist() == ["a", "b"]  # non-matching rows untouched


def test_tail_sample_semi_join_path_equals_broadcast(ray_session):
    """r2 VERDICT fix: forcing the keyed semi-join path
    (max_broadcast_keys=0 — no driver-side key set by construction) yields
    exactly the broadcast path's rows for both tail samplers."""
    from splunk_otel_collector_ray.pipelines.logs import read_transcripts
    from splunk_otel_collector_ray.stages.sample import (
        StringAttributePolicy,
        tail_sample_conversations,
        tail_sample_policies,
    )

    ds = read_transcripts("/root/testdata/sf0.001")

    def is_tool(batch):
        return batch["role"].to_pandas().eq("tool").to_numpy()

    def canon(d):
        return (d.to_pandas().sort_values(["conv_id", "turn_idx"])
                .reset_index(drop=True))

    a = canon(tail_sample_conversations(ds, is_tool))
    b = canon(tail_sample_conversations(ds, is_tool, max_broadcast_keys=0))
    assert a[["conv_id", "turn_idx"]].equals(b[["conv_id", "turn_idx"]])

    pols = [StringAttributePolicy(column="role", values=("tool",))]
    c = canon(tail_sample_policies(ds, pols))
    d = canon(tail_sample_policies(ds, pols, max_broadcast_keys=0))
    assert c[["conv_id", "turn_idx"]].equals(d[["conv_id", "turn_idx"]])
    assert set(a["conv_id"]) == set(c["conv_id"])


def test_multimodal_feature_vectorized_equals_reference():
    """The r3 vectorized chunk-mean kernel must equal the per-payload
    np.array_split reference byte for byte."""
    import numpy as np

    from splunk_otel_collector_ray.stages.multimodal import (
        FeatureExtractStage,
        make_fake_items,
    )

    items = make_fake_items(32)
    out = FeatureExtractStage()(items).to_pandas()
    for i, buf in enumerate(items["payload"].to_pylist()):
        b = np.frombuffer(buf, dtype=np.uint8).astype(np.float32)
        ref = [c.mean() if len(c) else 0.0
               for c in np.array_split(b, FeatureExtractStage.FEAT_DIM)]
        assert np.allclose(out.features[i], ref, rtol=1e-6)


def test_multimodal_resize_and_frame_sample():
    """Resize: payload subsampled to the target-area scale, metadata set to
    target dims. Frame-sample: every stride-th fixed-size frame becomes its
    own row with the right bytes."""
    import numpy as np
    import pyarrow as pa

    from splunk_otel_collector_ray.stages.multimodal import (
        FrameSampleStage,
        ResizeStage,
        make_fake_items,
    )

    items = make_fake_items(16)
    resized = ResizeStage(target_width=8, target_height=8)(items)
    assert set(resized["width"].to_pylist()) == {8}
    assert set(resized["height"].to_pylist()) == {8}
    for orig, new, w, h in zip(items["payload"].to_pylist(),
                               resized["payload"].to_pylist(),
                               items["width"].to_pylist(),
                               items["height"].to_pylist()):
        scale = 64 / max(w * h, 1)
        exp = int(np.clip(round(len(orig) * scale), 1, len(orig)))
        assert len(new) == exp
        assert bytes(new[:1]) == bytes(orig[:1])  # stride starts at byte 0

    # frame sampling: 4 frames of 4 bytes, stride 2 → frames 0 and 2
    t = pa.table({
        "item_id": pa.array([7], type=pa.int64()),
        "payload": pa.array([bytes(range(16))], type=pa.large_binary()),
    })
    frames = FrameSampleStage(frame_bytes=4, stride=2)(t)
    assert frames["frame_idx"].to_pylist() == [0, 2]
    assert [bytes(b) for b in frames["frame"].to_pylist()] == [
        bytes([0, 1, 2, 3]), bytes([8, 9, 10, 11])]


def test_multimodal_handles_plain_binary_payloads():
    """review fix: parquet round-trips BYTE_ARRAY back as binary (int32
    offsets) — the buffer reader must not misread them as int64."""
    import pyarrow as pa

    from splunk_otel_collector_ray.stages.multimodal import (
        FeatureExtractStage,
        make_fake_items,
    )

    items = make_fake_items(7)  # odd count exercised the crash path
    narrow = items.set_column(
        items.column_names.index("payload"), "payload",
        items["payload"].cast(pa.binary()))
    a = FeatureExtractStage()(items).to_pandas()
    b = FeatureExtractStage()(narrow).to_pandas()
    for fa, fb in zip(a.features, b.features):
        assert list(fa) == list(fb)


def test_filelog_source(ray_session, tmp_path):
    from splunk_otel_collector_ray.sources.filelog import (
        discover_files,
        read_log_lines,
    )

    (tmp_path / "a.log").write_text("alpha line\nbeta line\n")
    (tmp_path / "b.log").write_text("gamma line\n")
    (tmp_path / "skip.tmp").write_text("nope\n")
    inc = [str(tmp_path / "*")]
    assert [f.rsplit("/", 1)[1] for f in discover_files(inc, ["*.tmp"])] \
        == ["a.log", "b.log"]

    out = read_log_lines(inc, exclude=["*.tmp"]).to_pandas()
    assert sorted(out["text"]) == ["alpha line", "beta line", "gamma line"]
    assert set(out["log.file.name"]) == {"a.log", "b.log"}
    assert (out["ts"] == pd.Timestamp("1970-01-01")).all()

    with pytest.raises(ValueError):
        read_log_lines([str(tmp_path / "missing-*.log")])


def test_hec_source(ray_session, tmp_path):
    """splunk_hec receiver analogue: event JSONL → log-record columns with
    exact fractional-second time round-trip and fields splatted to attrs."""
    import json

    from splunk_otel_collector_ray.sources.hec import read_hec_events

    events = [
        {"time": 1700000000.123456, "host": "h1", "source": "app",
         "sourcetype": "httpevent", "index": "main", "event": "hello",
         "fields": {"conv_id": "c1", "turn_idx": 0, "tool": ""}},
        {"time": 1700000001.5, "host": "h2", "source": "sys",
         "sourcetype": "httpevent", "index": "main", "event": "wörld",
         "fields": {"conv_id": "c2", "turn_idx": 3, "tool": "bash"}},
    ]
    p = tmp_path / "events.jsonl"
    p.write_text("\n".join(json.dumps(e, ensure_ascii=False) for e in events)
                 + "\n", encoding="utf-8")
    out = read_hec_events(str(p)).to_pandas().sort_values("host")
    assert list(out["body"]) == ["hello", "wörld"]
    assert list(out["ts"]) == [
        pd.Timestamp("2023-11-14 22:13:20.123456"),
        pd.Timestamp("2023-11-14 22:13:21.500000"),
    ]
    assert list(out["conv_id"]) == ["c1", "c2"]
    assert list(out["turn_idx"]) == [0, 3]
    assert list(out["tool"]) == ["", "bash"]


def test_chunk_documents():
    from splunk_otel_collector_ray.stages.text_analysis import chunk_documents

    t = pa.table({"doc_id": [1, 2, 3],
                  "text": ["a" * 10, "", "x" * 401]})
    out = chunk_documents(t, size=200, stride=150).to_pandas()
    # doc1: 1 chunk; doc2 empty: 0; doc3 len 401: ceil(401/150)=3 chunks
    assert list(out[out.doc_id == 1].chunk) == ["a" * 10]
    assert (out.doc_id == 2).sum() == 0
    c3 = out[out.doc_id == 3].sort_values("chunk_idx")
    assert list(c3.chunk_idx) == [0, 1, 2]
    assert [len(c) for c in c3.chunk] == [200, 200, 101]
    # overlap: chunk k starts at k*150, so chars 150..200 repeat
    assert c3.chunk.iloc[0][150:] == c3.chunk.iloc[1][:50]


def test_decontaminate_ngram_overlap():
    from splunk_otel_collector_ray.stages.text_analysis import (
        DecontaminateStage,
        _token_ngram_hashes,
    )

    eval_text = "one two three four five six seven eight nine ten"
    leak = "X Y " + " ".join(eval_text.split()[:8]) + " Z"   # shares an 8-gram
    clean = "totally different words with no overlap at all here my friend"
    ev_h, _ = _token_ngram_hashes(pd.Series([eval_text]), 8)
    t = pa.table({"doc_id": [0, 1, 2], "text": [eval_text, leak, clean]})
    out = DecontaminateStage(ev_h, eval_mod=25)(t).to_pandas()
    assert list(out.doc_id) == [1, 2]          # eval doc 0 dropped
    assert list(out.contaminated) == [True, False]


def test_model_score_boundary():
    from splunk_otel_collector_ray.stages.text_analysis import model_score

    t = pa.table({"doc_id": [0, 1],
                  "text": ["good clean alpha words here",
                           "!!! ??? ### $$$ %%% ^^^"]})
    out = model_score(t).to_pandas()
    assert bool(out.keep[0]) and not bool(out.keep[1])
    assert (out.keep == (out.logit > 0)).all()


def test_remove_boilerplate(ray_session):
    import ray

    from splunk_otel_collector_ray.stages.dedup import remove_boilerplate

    rows = []
    for conv in range(5):
        rows.append({"conv_id": f"c{conv}", "turn_idx": 0,
                     "text": "shared boilerplate header"})
        rows.append({"conv_id": f"c{conv}", "turn_idx": 1,
                     "text": f"unique content {conv}"})
    # a text repeated within ONE conversation only — must survive
    rows.append({"conv_id": "c0", "turn_idx": 2, "text": "solo repeat"})
    rows.append({"conv_id": "c0", "turn_idx": 3, "text": "solo repeat"})
    ds = ray.data.from_items(rows)
    out = remove_boilerplate(ds, min_keys=3).to_pandas()
    assert "shared boilerplate header" not in set(out.text)
    assert (out.text == "solo repeat").sum() == 2
    assert len(out) == 7
    # no text repeats across 6 keys: the frequent set is empty (the fold
    # emits no rows) and every row survives
    assert len(remove_boilerplate(ds, min_keys=6).to_pandas()) == len(rows)


def test_asof_join(ray_session):
    import ray

    from splunk_otel_collector_ray.stages.asof import asof_join

    left = ray.data.from_items([
        {"k": 1, "t": 10, "lid": 100},
        {"k": 1, "t": 20, "lid": 101},
        {"k": 2, "t": 15, "lid": 102},   # no right rows for k=2
        {"k": 1, "t": 5, "lid": 103},    # before any right row
    ])
    right = ray.data.from_items([
        {"k": 1, "t": 10, "rid": 900},   # tie: inclusive match for t=10
        {"k": 1, "t": 18, "rid": 901},
    ])
    out = asof_join(left, right, by="k", on="t", left_cols=["lid"],
                    right_cols=["rid"]).to_pandas()
    got = {int(r.lid): (None if pd.isna(r.rid) else int(r.rid))
           for r in out.itertuples()}
    assert got == {100: 900, 101: 901, 102: None, 103: None}
    assert out.lid.dtype == np.int64   # left payload dtype restored


def test_asof_join_int_key_null_in_some_rows(ray_session):
    """An int64 ``by`` key that is null in one right row: equal keys must
    still meet in one fold (the bucket hash follows the Arrow type, so a
    block's nulls cannot move a value), the null key matches nothing and
    ``k`` stays int64 — the values DuckDB's ASOF LEFT JOIN gives."""
    import duckdb
    import ray

    from splunk_otel_collector_ray.stages.asof import asof_join

    lt = pa.table({"k": pa.array([5, 6], pa.int64()),
                   "t": pa.array([10, 10], pa.int64())})
    rt = pa.table({"k": pa.array([5, None, 6], pa.int64()),
                   "t": pa.array([5, 6, 5], pa.int64()),
                   "rv": pa.array([50, 99, 60], pa.int64())})
    out = asof_join(ray.data.from_arrow(lt), ray.data.from_arrow(rt),
                    by="k", on="t", left_cols=[],
                    right_cols=["rv"]).to_pandas().sort_values("k")
    exp = duckdb.sql("SELECT l.k, r.rv FROM lt l ASOF LEFT JOIN rt r "
                     "ON l.k = r.k AND l.t >= r.t ORDER BY l.k").fetchdf()
    assert exp["rv"].tolist() == [50, 60]
    assert out["rv"].tolist() == [50, 60]
    assert out["k"].tolist() == [5, 6]
    assert out["k"].dtype == np.int64
    # a null left key matches nothing either (pandas' merge_asof alone
    # pairs it with the null right row)
    lt = pa.table({"k": pa.array([None], pa.int64()),
                   "t": pa.array([10], pa.int64())})
    out = asof_join(ray.data.from_arrow(lt), ray.data.from_arrow(rt),
                    by="k", on="t", left_cols=[],
                    right_cols=["rv"]).to_pandas()
    exp = duckdb.sql("SELECT r.rv FROM lt l ASOF LEFT JOIN rt r "
                     "ON l.k = r.k AND l.t >= r.t").fetchdf()
    assert exp["rv"].isna().all() and out["rv"].isna().all()


def test_dimension_upsert_int_key_null_in_some_blocks(ray_session):
    """dimension_upsert over blocks whose int64 key is null in some rows
    of the even blocks and never null in the odd ones: every key still
    ends as ONE row, the one with the greatest ``order`` (the per-block
    partials must not leave a key typed int64 in one block and float64 in
    another). Enough rows that the final exchange spans several blocks."""
    import ray

    from splunk_otel_collector_ray.stages.metrics import dimension_upsert

    n_keys, n_blocks = 100_000, 6
    rng = np.random.default_rng(7)
    blocks = []
    for i in range(n_blocks):
        k = np.arange(n_keys, dtype=np.int64)
        null = (k % 10 == 0) & (i % 2 == 0)
        blocks.append(pa.table({
            "k": pa.array(k, mask=null),
            "o": pa.array(rng.permutation(n_keys * n_blocks)[:n_keys]),
            "v": pa.array(np.full(n_keys, i, dtype=np.int64))}))
    out = dimension_upsert(ray.data.from_arrow(blocks), "k", "o",
                           ["v"]).to_pandas()
    df = pa.concat_tables(blocks).to_pandas().dropna(subset=["k"])
    truth = df.loc[df.groupby("k")["o"].idxmax()].set_index("k")
    assert not out["k"].duplicated().any()
    got = out.set_index("k").sort_index()
    assert got.index.tolist() == truth.index.tolist()
    assert got["v"].tolist() == truth["v"].tolist()


def test_hec_export_roundtrip(ray_session, tmp_path):
    import ray

    from splunk_otel_collector_ray.sources.hec import (
        read_hec_events,
        write_hec_events,
    )

    ts = pd.to_datetime(["2026-01-01 00:00:01.000001",
                         "2026-01-01 12:34:56.789012"])
    src = ray.data.from_arrow(pa.table({
        "conv_id": ["c1", "c2"], "turn_idx": pa.array([0, 7], pa.int32()),
        "role": ["user", "tool"], "text": ["héllo / world", "x"],
        "tool": ["", "bash"],
        "ts": pa.array(ts, type=pa.timestamp("us")),
    }))
    out_dir = str(tmp_path / "hec")
    write_hec_events(src, out_dir)
    back = read_hec_events(out_dir).to_pandas().sort_values("conv_id")
    assert list(back.ts) == list(ts)            # µs-exact through JSON
    assert list(back.body) == ["héllo / world", "x"]
    assert list(back.turn_idx) == [0, 7]
    # re-run must not double-count (staging dir cleared)
    write_hec_events(src, out_dir)
    assert read_hec_events(out_dir).count() == 2


def test_journald_decode_units_and_severity():
    from splunk_otel_collector_ray.sources.journald import (
        decode_journald_batch,
    )

    t = pa.table({
        "__REALTIME_TIMESTAMP": ["1700000000000001", "1700000000000002",
                                 "1700000000000003"],
        "MESSAGE": ["a", "b", "c"],
        "_HOSTNAME": ["h", "h", "h"],
        "PRIORITY": ["0", "6", "7"],
        "_SYSTEMD_UNIT": ["sshd.service", "weird.service", "crond.service"],
    })
    out = decode_journald_batch(
        t, units=("sshd.service", "crond.service")).to_pandas()
    assert list(out.body) == ["a", "c"]          # allowlist drops weird
    assert list(out.severity_text) == ["FATAL", "DEBUG"]
    assert list(out.severity_number) == [21, 5]
    assert out.severity_number.dtype == np.int8
    assert out["com.splunk.sourcetype"].iloc[0] == "linux:journald"
    assert out.ts.iloc[0] == pd.Timestamp("2023-11-14 22:13:20.000001")


def test_pack_documents_prefix_sum(ray_session):
    import ray

    from splunk_otel_collector_ray.stages.packing import pack_documents

    counts = [100, 300, 200, 50, 500, 10]
    ds = ray.data.from_items([
        {"doc_id": i, "n_ws_tokens": c} for i, c in enumerate(counts)])
    out = pack_documents(ds, window=256, bucket_span=2).to_pandas() \
        .sort_values("doc_id")
    starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    assert list(out.tok_start) == list(starts)
    assert list(out.bin_id) == list(starts // 256)


def test_msgpack_codec_spec_bytes():
    """Decode hand-crafted wire bytes from the msgpack spec (not just our
    own encoder's output) to prove conformance."""
    from splunk_otel_collector_ray.sources.fluent import (
        EventTime,
        pack,
        unpack,
    )

    # [ "foo", 7, -3, true, nil, {"a": 1.5}, EventTime(1, 500) ]
    wire = (b"\x97"                       # fixarray(7)
            b"\xa3foo"                    # fixstr "foo"
            b"\x07"                       # fixint 7
            b"\xfd"                       # negative fixint -3
            b"\xc3"                       # true
            b"\xc0"                       # nil
            b"\x81\xa1a\xcb?\xf8\x00\x00\x00\x00\x00\x00"  # {"a": 1.5}
            b"\xd7\x00\x00\x00\x00\x01\x00\x00\x01\xf4")   # fixext8 t0
    obj, pos = unpack(wire)
    assert pos == len(wire)
    assert obj[:6] == ["foo", 7, -3, True, None, {"a": 1.5}]
    assert obj[6] == EventTime(1, 500)
    # round-trip our encoder through the decoder for wider types
    src = ["x" * 40, 300, 70000, 2**40, -2**40, 3.25, b"\x00\x01",
           list(range(20)), {str(i): i for i in range(20)}]
    buf = bytearray()
    pack(src, buf)
    back, pos = unpack(bytes(buf))
    assert pos == len(buf) and back == src


def test_fluent_forward_roundtrip(ray_session, tmp_path):
    from splunk_otel_collector_ray.sources.fluent import (
        EventTime,
        pack_forward_message,
        read_fluent_forward,
    )

    msg1 = pack_forward_message("app.log", [
        (EventTime(100, 123_456_000), {"message": "hello", "k": 1}),
        (1700000000, {"message": "int-time", "k": 2}),   # plain epoch-sec
    ])
    msg2 = pack_forward_message("db.log", [
        (EventTime(200, 0), {"message": "wörld", "k": 3}),
    ])
    (tmp_path / "a.msgpack").write_bytes(msg1 + msg2)  # back-to-back msgs
    out = read_fluent_forward(str(tmp_path)).to_pandas().sort_values("k")
    assert list(out.message) == ["hello", "int-time", "wörld"]
    assert list(out.tag) == ["app.log", "app.log", "db.log"]
    assert out.ts.iloc[0] == pd.Timestamp("1970-01-01 00:01:40.123456")
    assert out.ts.iloc[1] == pd.Timestamp(1700000000, unit="s")


def test_range_join_count(ray_session):
    import ray

    from splunk_otel_collector_ray.stages.asof import range_join_count

    t0 = pd.Timestamp("2024-01-01")
    s = pd.Timedelta(seconds=1)
    errors = ray.data.from_arrow(pa.table({
        "event_id": [1, 2, 3],
        "user_id": [7, 7, 9],
        "ts": pa.array([t0, t0 + 100 * s, t0], type=pa.timestamp("us")),
    }))
    clicks = ray.data.from_arrow(pa.table({
        "user_id": [7, 7, 7, 9],
        # for error1 (t0): +0s excluded (strictly after), +30s in, +60s in
        # (inclusive upper); error2's (+100s) window catches nothing;
        # user 9's click at +59s is inside error3's window
        "ts": pa.array([t0, t0 + 30 * s, t0 + 60 * s, t0 + 59 * s],
                       type=pa.timestamp("us")),
    }))
    out = range_join_count(
        errors, clicks, by="user_id", on="ts",
        window=np.timedelta64(60, "s"), left_cols=["event_id"],
        out_col="n").to_pandas().sort_values("event_id")
    assert list(out.n) == [2, 0, 1]
    assert out.event_id.dtype == np.int64


def test_grid_quantiles(ray_session):
    import ray

    from splunk_otel_collector_ray.pipelines.aggregate import grid_quantiles

    # group "a": values 0.01..1.00 → p50 = bucket of the 50th value
    vals = [round(0.01 * i, 2) for i in range(1, 101)]
    rows = [{"g": "a", "v": v} for v in vals] + [{"g": "b", "v": 5.0}]
    out = grid_quantiles(ray.data.from_items(rows), "g", "v",
                         qs=(0.5, 0.99), grid=100)
    got = {(r.g, r.q): r.quantile for r in out.itertuples()}
    assert got[("a", 0.5)] == 0.5      # rank 50 → bucket 50 → 0.50
    assert got[("a", 0.99)] == 0.99
    assert got[("b", 0.5)] == 5.0


def test_hll_distinct_accuracy_and_merge(ray_session):
    import ray.data

    from splunk_otel_collector_ray.stages.sketch import (
        _rho, hll_estimate, hll_distinct, mix64)

    rng = np.random.default_rng(11)
    vals = rng.integers(0, 10**12, 30000)
    df = pd.DataFrame({"g": np.where(np.arange(len(vals)) % 2 == 0,
                                     "a", "b"), "v": vals})
    out = hll_distinct(ray.data.from_pandas(df), "v", "g").to_pandas()
    exact = df.groupby("g")["v"].nunique()
    for r in out.itertuples():
        err = abs(r.approx_distinct - exact[r.g]) / exact[r.g]
        assert err < 0.06, (r.g, r.approx_distinct, exact[r.g])

    # register merge is associative: max-merged halves == whole-stream
    width, m = 52, 4096
    h = mix64(vals)
    bucket = (h >> np.uint64(width)).astype(np.int64)
    rho = _rho(h & np.uint64((1 << width) - 1), width)
    whole = pd.DataFrame({"b": bucket, "r": rho}).groupby("b")["r"].max()
    half = len(vals) // 2
    h1 = pd.DataFrame({"b": bucket[:half], "r": rho[:half]}).groupby("b")["r"].max()
    h2 = pd.DataFrame({"b": bucket[half:], "r": rho[half:]}).groupby("b")["r"].max()
    merged = pd.concat([h1, h2]).groupby(level=0).max()
    assert merged.equals(whole)
    assert hll_estimate(merged.to_numpy(), m) == hll_estimate(
        whole.to_numpy(), m)


def test_cm_heavy_hitters_one_sided(ray_session):
    import ray.data

    from splunk_otel_collector_ray.stages.sketch import (
        cm_heavy_hitters, cm_partial_counts)

    rng = np.random.default_rng(5)
    # zipf-ish: a few heavy keys over a long tail
    vals = np.concatenate([np.repeat([7, 13, 42], [500, 300, 200]),
                           rng.integers(1000, 5000, 2000)])
    rng.shuffle(vals)
    df = pd.DataFrame({"v": vals})
    out = cm_heavy_hitters(ray.data.from_pandas(df), "v", k=3, width=256)
    got = {r.v: (r.n_exact, r.n_est) for r in out.itertuples()}
    assert set(got) == {7, 13, 42}
    for exact, est in got.values():
        assert est >= exact  # count-min error is one-sided
    assert got[7][0] == 500 and got[7][1] >= 500

    # partials are commutative: split-and-sum equals whole-stream counts
    whole = cm_partial_counts(vals, 4, 256).groupby(
        ["d", "bucket"])["n"].sum()
    parts = pd.concat([cm_partial_counts(vals[:1000], 4, 256),
                       cm_partial_counts(vals[1000:], 4, 256)]).groupby(
        ["d", "bucket"])["n"].sum()
    assert parts.equals(whole)


def test_bloom_no_false_negatives_and_fp_bounded(ray_session):
    import numpy as np
    import pandas as pd
    import ray.data

    from splunk_otel_collector_ray.stages.sketch import bloom_build, bloom_flag

    members = np.arange(0, 500, dtype=np.int64)
    stream = pd.DataFrame({"v": np.arange(0, 20_000, dtype=np.int64)})
    bits = bloom_build(
        ray.data.from_pandas(pd.DataFrame({"v": members})), "v", m=1 << 14)
    out = bloom_flag(ray.data.from_pandas(stream), "v", bits).to_pandas()
    hit = out.set_index("v")["bloom_hit"]
    assert hit.loc[members].all()  # no false negatives, ever
    fp = hit.loc[500:].mean()
    # k=3, n=500, m=2^14 → (1 - e^(-3·500/16384))^3 ≈ 6.6e-4
    assert fp < 0.01


def test_bloom_build_is_partition_invariant(ray_session):
    import numpy as np
    import pandas as pd
    import ray.data

    from splunk_otel_collector_ray.stages.sketch import bloom_build

    vals = pd.DataFrame({"v": np.arange(100, dtype=np.int64) * 17})
    a = bloom_build(ray.data.from_pandas(vals), "v", m=1 << 12)
    b = bloom_build(ray.data.from_pandas(vals).repartition(7), "v", m=1 << 12)
    assert (a == b).all()


def test_incremental_fold_resume_and_equality(ray_session, tmp_path):
    import pandas as pd
    import ray.data

    from splunk_otel_collector_ray.pipelines.streaming import run_incremental

    df = pd.DataFrame({"k": ["a", "b", "a", "c", "b", "a"],
                       "i": range(6)})

    def shard(lo, hi):
        return lambda: ray.data.from_pandas(df[(df.i >= lo) & (df.i < hi)])

    out = str(tmp_path / "state")
    all_shards = [("s0", shard(0, 2)), ("s1", shard(2, 4)),
                  ("s2", shard(4, 6))]
    # partial run: first two shards only
    st1 = run_incremental(all_shards[:2], out, ["k"])
    assert st1.set_index("k")["n"].to_dict() == {"a": 2, "b": 1, "c": 1}
    # resumed run with the full list: s0/s1 skipped, s2 folded once
    st2 = run_incremental(all_shards, out, ["k"])
    expected = df.groupby("k").size().to_dict()
    assert st2.set_index("k")["n"].to_dict() == expected
    # idempotent rerun: nothing new arrives, state unchanged
    st3 = run_incremental(all_shards, out, ["k"])
    pd.testing.assert_frame_equal(st2, st3)


def test_smallest_hash_sample_partition_invariant(ray_session):
    import numpy as np
    import pandas as pd
    import ray.data

    from splunk_otel_collector_ray.stages.sample import smallest_hash_sample
    from splunk_otel_collector_ray.stages.sketch import mix64

    ids = np.arange(1000, dtype=np.int64)
    df = pd.DataFrame({"doc_id": ids})
    a = smallest_hash_sample(
        ray.data.from_pandas(df), "doc_id", k=50).to_pandas()
    b = smallest_hash_sample(
        ray.data.from_pandas(df.sample(frac=1, random_state=3))
        .repartition(9), "doc_id", k=50).to_pandas()
    assert sorted(a["doc_id"]) == sorted(b["doc_id"])
    # exact: the 50 globally smallest hashes
    order = np.argsort(mix64(ids), kind="stable")[:50]
    assert set(a["doc_id"]) == set(ids[order])


def test_epoch_mixture_expand(ray_session):
    import pandas as pd
    import ray.data

    from splunk_otel_collector_ray.stages.sample import (
        KNUTH, epoch_mixture_expand)

    df = pd.DataFrame({"doc_id": range(20),
                       "source": ["a"] * 10 + ["b"] * 10})
    out = epoch_mixture_expand(
        ray.data.from_pandas(df), "doc_id", "source",
        {"a": 3.0, "b": 0.5}, default_factor=1.0).to_pandas()
    # a: exactly 3 copies each, epochs 0..2
    a = out[out.source == "a"]
    assert a.groupby("doc_id").size().eq(3).all()
    assert sorted(a[a.doc_id == 0]["epoch"]) == [0, 1, 2]
    # b: 0 or 1 copies, exactly the deterministic half of the hash space
    b = out[out.source == "b"]
    kept = {i for i in range(10, 20) if (i * KNUTH) % 10_000 < 5_000}
    assert set(b["doc_id"]) == kept and (b["epoch"] == 0).all()


def test_incremental_fold_crash_between_state_and_pointer(ray_session,
                                                          tmp_path):
    import pandas as pd
    import ray.data

    from splunk_otel_collector_ray.pipelines.streaming import run_incremental

    df = pd.DataFrame({"k": ["a", "b", "a"], "i": range(3)})
    out = str(tmp_path / "state")
    shards = [("s0", lambda: ray.data.from_pandas(df.iloc[:2])),
              ("s1", lambda: ray.data.from_pandas(df.iloc[2:]))]
    run_incremental(shards[:1], out, ["k"])
    # simulate a crash AFTER the next state file is written but BEFORE the
    # pointer flips: the orphan state-v2 must be ignored and s1 replayed
    pd.DataFrame({"k": ["poison"], "n": [999]}).to_parquet(
        f"{out}/state-v2.parquet", index=False)
    st = run_incremental(shards, out, ["k"])
    assert st.set_index("k")["n"].to_dict() == {"a": 2, "b": 1}


def test_read_parquet_evolved_aligns_drifted_schemas(ray_session, tmp_path):
    import pandas as pd
    import pyarrow as pa

    from splunk_otel_collector_ray.sources.evolution import (
        read_parquet_evolved)

    # gen1: missing 'b', narrow int32 'a'; gen2: extra column 'junk'
    pd.DataFrame({"id": [1, 2], "a": pd.array([10, 20], dtype="int32")}
                 ).to_parquet(tmp_path / "g1.parquet", index=False)
    pd.DataFrame({"id": [3], "a": [30], "b": ["x"], "junk": [9.9]}
                 ).to_parquet(tmp_path / "g2.parquet", index=False)
    target = pa.schema([("id", pa.int64()), ("a", pa.int64()),
                        ("b", pa.string())])
    out = read_parquet_evolved(
        [str(tmp_path / "g1.parquet"), str(tmp_path / "g2.parquet")],
        target).to_pandas().sort_values("id").reset_index(drop=True)
    assert list(out.columns) == ["id", "a", "b"]
    assert out["a"].tolist() == [10, 20, 30]
    assert out["b"].tolist()[:2] == [None, None] and out["b"][2] == "x"


def _ntile_reference(df, k):
    import numpy as np
    import pandas as pd

    df = df.sort_values(["logit", "doc_id"], kind="mergesort").reset_index(
        drop=True)
    n = len(df)
    sizes = [n // k + (1 if i < n % k else 0) for i in range(k)]
    return pd.Series(
        np.repeat(np.arange(1, k + 1), sizes), index=df["doc_id"].to_numpy())


def test_quantile_buckets_matches_ntile(ray_session):
    import numpy as np
    import pandas as pd
    import pyarrow as pa

    import ray.data
    from splunk_otel_collector_ray.stages.sample import quantile_buckets

    rng = np.random.default_rng(7)
    df = pd.DataFrame({
        "doc_id": np.arange(1000, dtype=np.int64),
        "logit": rng.normal(size=1000),
    })
    out = quantile_buckets(
        ray.data.from_arrow(pa.Table.from_pandas(df)), k=3).to_pandas()
    ref = _ntile_reference(df, 3)
    got = out.set_index("doc_id")["bucket"]
    assert (got.reindex(ref.index).to_numpy() == ref.to_numpy()).all()
    # NTILE sizes: 1000 = 334 + 333 + 333
    assert got.value_counts().sort_index().tolist() == [334, 333, 333]


def test_quantile_buckets_all_ties_orders_by_id(ray_session):
    import numpy as np
    import pandas as pd
    import pyarrow as pa

    import ray.data
    from splunk_otel_collector_ray.stages.sample import quantile_buckets

    # every score identical → the score histogram can never split the
    # boundary cell; with a tiny cell_cap the id-axis refinement must kick
    # in, and buckets are assigned purely by doc_id order
    df = pd.DataFrame({
        "doc_id": np.arange(100, dtype=np.int64)[::-1].copy(),
        "logit": np.full(100, 0.25),
    })
    out = quantile_buckets(
        ray.data.from_arrow(pa.Table.from_pandas(df)), k=4,
        cell_cap=8).to_pandas()
    got = out.sort_values("doc_id")["bucket"].to_numpy()
    expect = np.repeat([1, 2, 3, 4], 25)
    assert (got == expect).all()


def test_quantile_buckets_refinement_equals_direct(ray_session):
    import numpy as np
    import pandas as pd
    import pyarrow as pa

    import ray.data
    from splunk_otel_collector_ray.stages.sample import quantile_buckets

    # clustered scores + a forced tiny cell_cap: the score-axis refinement
    # loop must produce the same buckets as the unconstrained path
    rng = np.random.default_rng(11)
    df = pd.DataFrame({
        "doc_id": np.arange(500, dtype=np.int64),
        "logit": np.round(rng.normal(size=500), 2),  # heavy ties
    })
    src = pa.Table.from_pandas(df)
    a = quantile_buckets(ray.data.from_arrow(src), k=5).to_pandas()
    b = quantile_buckets(ray.data.from_arrow(src), k=5,
                         cell_cap=4).to_pandas()
    ma = a.set_index("doc_id")["bucket"]
    mb = b.set_index("doc_id")["bucket"].reindex(ma.index)
    assert (ma.to_numpy() == mb.to_numpy()).all()
    ref = _ntile_reference(df, 5)
    assert (ma.reindex(ref.index).to_numpy() == ref.to_numpy()).all()


def test_drop_late_watermark(ray_session):
    import pandas as pd
    import pyarrow as pa

    import ray.data
    from splunk_otel_collector_ray.stages.windows import drop_late

    ts = pd.to_datetime([
        "2026-01-01 00:00:00", "2026-01-01 05:00:00",
        "2026-01-01 11:30:00", "2026-01-01 12:00:00",
    ])
    t = pa.table({"event_id": [1, 2, 3, 4],
                  "ts": pa.array(ts, pa.timestamp("us"))})
    out = drop_late(ray.data.from_arrow(t), "ts",
                    allowed_lateness_us=3_600_000_000).to_pandas()
    # watermark = 12:00 - 1h = 11:00 → rows 3 and 4 survive
    assert sorted(out["event_id"]) == [3, 4]
    # empty input: passthrough without error
    empty = ray.data.from_arrow(t.slice(0, 0))
    assert drop_late(empty, "ts").count() == 0


def test_grouped_quantile_select_exact(ray_session):
    import numpy as np
    import pandas as pd
    import pyarrow as pa

    import ray.data
    from splunk_otel_collector_ray.stages.stats import grouped_quantile_select

    rng = np.random.default_rng(3)
    df = pd.DataFrame({
        "g": np.repeat(["a", "b"], 500),
        "v": np.round(rng.normal(size=1000), 2),  # ties inside cells
        "i": np.arange(1000, dtype=np.int64),
    })
    out = grouped_quantile_select(
        ray.data.from_arrow(pa.Table.from_pandas(df)), "g", "v", "i",
        qs=(0.5, 0.95)).set_index("g")
    for g, sub in df.groupby("g"):
        sv = sub.sort_values(["v", "i"], kind="mergesort")["v"].to_numpy()
        n = len(sv)
        assert out.loc[g, "p50"] == sv[(n - 1) * 50 // 100]
        assert out.loc[g, "p95"] == sv[(n - 1) * 95 // 100]

    # non-whole-percent quantiles select the right rank under distinct
    # column names (ADVICE fix: 0.999 used to alias to p100/max)
    out2 = grouped_quantile_select(
        ray.data.from_arrow(pa.Table.from_pandas(df)), "g", "v", "i",
        qs=(0.999, 0.125)).set_index("g")
    for g, sub in df.groupby("g"):
        sv = sub.sort_values(["v", "i"], kind="mergesort")["v"].to_numpy()
        n = len(sv)
        assert out2.loc[g, "p99.9"] == sv[(n - 1) * 999_000 // 1_000_000]
        assert out2.loc[g, "p12.5"] == sv[(n - 1) * 125_000 // 1_000_000]
    with pytest.raises(ValueError):
        grouped_quantile_select(
            ray.data.from_arrow(pa.Table.from_pandas(df)), "g", "v", "i",
            qs=(1.5,))


def test_anti_join_keyed_path_equals_broadcast(ray_session):
    import numpy as np
    import pandas as pd
    import pyarrow as pa

    import ray.data
    from splunk_otel_collector_ray.stages.sample import anti_join_keys

    rng = np.random.default_rng(5)
    stream = pd.DataFrame({"k": rng.integers(0, 40, 500).astype(np.int64),
                           "v": np.arange(500, dtype=np.int64)})
    block = pd.DataFrame({"k": np.arange(0, 40, 3, dtype=np.int64)})
    sds = ray.data.from_arrow(pa.Table.from_pandas(stream))
    bds = ray.data.from_arrow(pa.Table.from_pandas(block))
    a = anti_join_keys(sds, bds, "k").to_pandas()
    b = anti_join_keys(sds, bds, "k", max_broadcast_keys=0).to_pandas()
    key = lambda df: df.sort_values(["k", "v"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(key(a)[["k", "v"]], key(b)[["k", "v"]])
    assert not a["k"].isin(block["k"]).any()


def test_hec_export_negative_and_null_ts(ray_session, tmp_path):
    """Pre-epoch timestamps serialize with an explicit sign (-1 µs is
    '-0.000001', not '-1.999999') and round-trip µs-exactly; null ts
    fails loudly instead of emitting NaN time strings."""
    import pyarrow as pa
    import pytest as _pt
    import ray
    import ray.data

    from splunk_otel_collector_ray.sources.hec import (read_hec_events,
                                                       write_hec_events)

    def tbl(us_values):
        n = len(us_values)
        return pa.table({
            "ts": pa.array(us_values, type=pa.timestamp("us")),
            "conv_id": [f"c{i}" for i in range(n)],
            "turn_idx": pa.array(range(n), type=pa.int32()),
            "tool": [""] * n, "role": ["user"] * n, "text": ["x"] * n})

    us = [-1, -999_999, -1_999_999, 0, 1, 1_234_567]
    out = tmp_path / "hec"
    write_hec_events(ray.data.from_arrow(tbl(us)), str(out))
    got = read_hec_events(str(out)).to_pandas()
    back = sorted(int(v) for v in
                  got["ts"].to_numpy().astype("datetime64[us]")
                  .astype("int64"))
    assert back == sorted(us)
    with _pt.raises(ray.exceptions.RayTaskError,
                    match="null ts|needs a time"):
        write_hec_events(ray.data.from_arrow(tbl([None, 5])),
                         str(tmp_path / "hec2"))


def test_hec_fields_do_not_clobber_envelope(ray_session, tmp_path):
    """A custom `fields` key colliding with an envelope column lands
    under fields.<name> instead of silently replacing the envelope."""
    import json

    from splunk_otel_collector_ray.sources.hec import read_hec_events

    p = tmp_path / "events.jsonl"
    p.write_text(json.dumps({
        "time": "1.000000", "host": "realhost", "source": "s",
        "sourcetype": "st", "index": "main", "event": "body",
        "fields": {"host": "fieldhost", "custom": "v"}}) + "\n")
    got = read_hec_events(str(p)).to_pandas()
    assert got["host"].tolist() == ["realhost"]
    assert got["fields.host"].tolist() == ["fieldhost"]
    assert got["custom"].tolist() == ["v"]


def test_align_to_schema_refuses_lossy_narrowing(ray_session):
    """Safe casts: a wide shard whose values FIT still narrows; one whose
    values overflow raises instead of silently wrapping group keys."""
    import pyarrow as pa
    import pytest as _pt

    from splunk_otel_collector_ray.sources.evolution import align_to_schema

    target = pa.schema([("k", pa.int32())])
    fn = align_to_schema(target)
    ok = fn(pa.table({"k": pa.array([1, 2], type=pa.int64())}))
    assert ok["k"].type == pa.int32()
    with _pt.raises(pa.ArrowInvalid):
        fn(pa.table({"k": pa.array([2**31 + 5], type=pa.int64())}))


def test_fluent_zero_entry_message_and_pinned_columns(ray_session,
                                                      tmp_path):
    """A Forward message with zero entries (spec-legal) plus
    record_columns= yields a STABLE schema across blocks; numpy scalars
    pack without manual int() wrapping."""
    from splunk_otel_collector_ray.sources.fluent import (
        EventTime,
        pack,
        pack_forward_message,
        read_fluent_forward,
    )

    empty = tmp_path / "a.msgpack"
    empty.write_bytes(pack_forward_message("tag.empty", []))
    full = tmp_path / "b.msgpack"
    full.write_bytes(pack_forward_message(
        "tag.full", [(EventTime(1, 0), {"message": "m1"})]))
    ds = read_fluent_forward([str(empty), str(full)],
                             record_columns=["message", "missing"])
    got = ds.to_pandas()
    assert got["message"].tolist() == ["m1"]
    assert got["missing"].isna().all()
    buf = bytearray()
    pack(np.int64(5), buf)
    pack({"k": np.uint64(2**63)}, buf)  # numpy scalars pack directly


def test_samplers_accept_any_id_and_null_source(ray_session):
    """Int keys in tail sampling, string ids in smallest-hash sampling,
    and null source values in mixture sampling all work (the r3
    'samplers must not assume a corpus id format' contract, extended to
    the kept-key emit paths and the source column)."""
    import pyarrow as pa
    import ray.data

    from splunk_otel_collector_ray.stages.sample import (
        mixture_sample,
        smallest_hash_sample,
        tail_sample_conversations,
    )

    t = pa.table({
        "user_id": pa.array([1, 1, 2, 3, 3], type=pa.int64()),
        "sev": pa.array([1, 9, 1, 9, 1], type=pa.int64())})
    kept = tail_sample_conversations(
        ray.data.from_arrow(t),
        lambda b: (b["sev"].to_numpy() >= 9), key="user_id").to_pandas()
    assert sorted(set(kept["user_id"])) == [1, 3]

    docs = pa.table({"doc_id": pa.array([f"doc-{i}" for i in range(50)])})
    s = smallest_hash_sample(ray.data.from_arrow(docs), "doc_id", k=5)
    assert len(s.to_pandas()) == 5  # string ids hash via the fold path

    mix = pa.table({
        "source": pa.array(["a", None, "b", None]),
        "doc_id": pa.array([1, 2, 3, 4], type=pa.int64())})
    out = mixture_sample(ray.data.from_arrow(mix), "source", "doc_id",
                         rates={"a": 1.0, "b": 0.0},
                         default_rate=1.0).to_pandas()
    # null source takes the default rate (kept), b's rate drops row 3
    assert sorted(out["doc_id"]) == [1, 2, 4]


def test_key_hash_mod_large_ids_match_hugeint_twin(ray_session):
    """Ids past the int64 wrap point (~3.47e9) hash well-defined (uint64
    wrap) and match the exact HUGEINT SQL twin that DuckDB BIGINT
    arithmetic would overflow on."""
    import duckdb
    import numpy as np

    from splunk_otel_collector_ray.stages.sample import key_hash_mod

    ids = np.array([4_000_000_000, 2**62, 2**63 - 1, 7], dtype=np.int64)
    got = key_hash_mod(ids, 10_000)
    want = [r[0] for r in duckdb.sql(
        "SELECT (CAST(i AS HUGEINT) * 2654435761) % 18446744073709551616 "
        "% 10000 FROM (SELECT UNNEST([4000000000, 4611686018427387904, "
        "9223372036854775807, 7]) AS i)").fetchall()]
    assert got.tolist() == [int(w) for w in want]


def test_asof_left_int_nulls_keep_stable_schema(ray_session):
    """A nullable int LEFT payload column yields one Arrow dtype (int64)
    across all buckets — previously blocks disagreed (int64 vs float64)
    whenever one bucket happened to hold the null."""
    import pyarrow as pa
    import ray.data

    from splunk_otel_collector_ray.stages.asof import asof_join

    left = pa.table({
        "k": pa.array([f"k{i}" for i in range(40)]),
        "t": pa.array(list(range(40)), type=pa.timestamp("us")),
        "lv": pa.array([None if i == 3 else i for i in range(40)],
                       type=pa.int64())})
    right = pa.table({
        "k": pa.array([f"k{i}" for i in range(40)]),
        "t": pa.array([0] * 40, type=pa.timestamp("us")),
        "rv": pa.array(range(40), type=pa.int64())})
    out = asof_join(ray.data.from_arrow(left), ray.data.from_arrow(right),
                    by="k", on="t", left_cols=["lv"], right_cols=["rv"])
    assert out.schema().types[2] == pa.int64()  # lv stays int64 w/ null
    pdf = out.to_pandas()
    assert len(pdf) == 40 and pdf["lv"].isna().sum() == 1
