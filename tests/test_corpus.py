"""Corpus generator: determinism, schema, skew, file layout (FIXTURES.md §1)."""

import glob
import hashlib
import inspect
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from splunk_otel_collector_ray import corpus


def test_schema_matches_input_hint():
    t = corpus.build_transcripts("sf0.001")
    assert t.schema.field("conv_id").type == pa.string()
    assert t.schema.field("turn_idx").type == pa.int32()
    assert t.schema.field("role").type == pa.string()
    assert t.schema.field("text").type == pa.string()
    assert t.schema.field("tool").type == pa.string()
    assert t.schema.field("ts").type == pa.timestamp("us")
    assert t.num_rows == 10_000


def test_deterministic():
    a = corpus.build_transcripts("sf0.001")
    b = corpus.build_transcripts("sf0.001")
    assert a.equals(b)


def test_sorted_and_contiguous_turns():
    df = corpus.build_transcripts("sf0.001").to_pandas()
    assert df.sort_values(["conv_id", "turn_idx"]).reset_index(drop=True).equals(
        df.reset_index(drop=True))
    per_conv = df.groupby("conv_id")["turn_idx"]
    assert (per_conv.min() == 0).all()
    assert (per_conv.max() + 1 == per_conv.size()).all()


def test_hot_conversation_skew():
    df = corpus.build_transcripts("sf0.001").to_pandas()
    counts = df.conv_id.value_counts()
    n_hot = max(1, df.conv_id.nunique() // 100)
    assert counts.head(n_hot).sum() / len(df) > 0.25  # ~30% target


def test_ts_in_order_per_conv():
    df = corpus.build_transcripts("sf0.001").to_pandas()
    assert (df.groupby("conv_id")["ts"].apply(lambda s: s.is_monotonic_increasing)).all()


def test_file_layout_conv_aligned(tmp_path):
    path = corpus.ensure_transcripts("sf0.001")
    files = sorted(glob.glob(os.path.join(path, "*.parquet")))
    assert files
    # a conversation never spans two files
    last_convs, first_convs = [], []
    for f in files:
        t = pq.read_table(f, columns=["conv_id"])
        c = t.column("conv_id").to_pylist()
        first_convs.append(c[0])
        last_convs.append(c[-1])
    for i in range(1, len(files)):
        assert last_convs[i - 1] != first_convs[i]


def test_tool_only_on_tool_role():
    df = corpus.build_transcripts("sf0.001").to_pandas()
    assert (df.loc[df.role != "tool", "tool"] == "").all()
    assert (df.loc[df.role == "tool", "tool"] != "").all()


def test_corpus_chunked_render_identical(tmp_path, monkeypatch):
    """The memory-bounded super-chunk writer emits the SAME files as a
    monolithic render: same conv-aligned split points, same values — so
    large scales (where one in-memory render would OOM) share a lineage
    with every cached fixture."""
    monkeypatch.setattr(corpus, "RENDER_CHUNK", 700)  # many tiny chunks
    monkeypatch.setattr(corpus, "ROWS_PER_FILE", 2_000)  # and many files
    monkeypatch.setattr(corpus, "FIXTURE_ROOT", str(tmp_path))
    path = corpus.ensure_transcripts("sf0.001")
    files = sorted(glob.glob(os.path.join(path, "*.parquet")))
    assert len(files) == 5  # 10k rows / 2k per file
    got = pa.concat_tables([pq.read_table(f) for f in files])
    want = corpus.build_transcripts("sf0.001")
    assert got.combine_chunks().equals(want.combine_chunks())
    # chunk boundaries stay conversation-aligned
    for i in range(1, len(files)):
        a = pq.read_table(files[i - 1], columns=["conv_id"])["conv_id"]
        b = pq.read_table(files[i], columns=["conv_id"])["conv_id"]
        assert a[-1].as_py() != b[0].as_py()


def _write(out, name="a.txt", text="x"):
    with open(os.path.join(out, name), "w") as f:
        f.write(text)


def _siblings(path):
    return sorted(os.listdir(os.path.dirname(path)))


def test_cached_fixture_hit_skips_render(tmp_path, monkeypatch):
    monkeypatch.setattr(corpus, "FIXTURE_ROOT", str(tmp_path))
    path = os.path.join(corpus.FIXTURE_ROOT, "sf0", "fx")  # parent absent
    calls = []

    def render(out):
        calls.append(out)
        _write(out)

    assert corpus._cached_fixture(path, render) == path
    assert corpus._cached_fixture(path, render) == path
    assert len(calls) == 1
    assert corpus._version_ok(path)
    corpus._cached_fixture(path, render, force=True)
    assert len(calls) == 2
    assert _siblings(path) == ["fx"]


def test_cached_fixture_stale_version_rebuilds(tmp_path, monkeypatch):
    monkeypatch.setattr(corpus, "FIXTURE_ROOT", str(tmp_path))
    path = os.path.join(corpus.FIXTURE_ROOT, "fx")
    os.makedirs(path)
    _write(path, "old.txt")
    _write(path, ".version", "stale-" + corpus.CORPUS_VERSION)
    corpus._cached_fixture(path, _write)
    assert sorted(os.listdir(path)) == [".version", "a.txt"]
    assert corpus._version_ok(path)


def test_cached_fixture_failed_render_leaves_nothing(tmp_path, monkeypatch):
    monkeypatch.setattr(corpus, "FIXTURE_ROOT", str(tmp_path))
    path = os.path.join(corpus.FIXTURE_ROOT, "fx")

    def render(out):
        _write(out)
        raise KeyboardInterrupt  # BaseException, not only Exception

    with pytest.raises(KeyboardInterrupt):
        corpus._cached_fixture(path, render)
    assert os.listdir(corpus.FIXTURE_ROOT) == []


def test_cached_fixture_lost_race_keeps_winner(tmp_path, monkeypatch):
    monkeypatch.setattr(corpus, "FIXTURE_ROOT", str(tmp_path))
    path = os.path.join(corpus.FIXTURE_ROOT, "fx")

    def render(out):
        _write(out, text="loser")
        # a concurrent builder finishes first
        os.makedirs(path)
        _write(path, text="winner")
        _write(path, ".version", corpus.CORPUS_VERSION)

    assert corpus._cached_fixture(path, render) == path
    with open(os.path.join(path, "a.txt")) as f:
        assert f.read() == "winner"
    assert _siblings(path) == ["fx"]


ENSURE = sorted(n for n in dir(corpus) if n.startswith("ensure_"))


@pytest.fixture(scope="module")
def shared_root(tmp_path_factory):
    # one root for the whole parametrization: the transcripts they all
    # derive from are built once
    return str(tmp_path_factory.mktemp("fixtures"))


def _tree_hash(path):
    h = hashlib.sha256()
    for dp, _, fs in sorted(os.walk(path)):
        for f in sorted(fs):
            full = os.path.join(dp, f)
            h.update(os.path.relpath(full, path).encode())
            with open(full, "rb") as fh:
                h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


@pytest.mark.parametrize("name", ENSURE)
def test_fixture_force_rebuild_identical(name, shared_root, monkeypatch):
    """Every ensure_* goes through _cached_fixture and rebuilds
    byte-identically under force=True."""
    monkeypatch.setattr(corpus, "FIXTURE_ROOT", shared_root)
    fn = getattr(corpus, name)
    assert "_cached_fixture(" in inspect.getsource(fn)
    args = () if name == "ensure_collectd_jsonl" else ("sf0.001",)
    path = fn(*args)
    before = _tree_hash(path)
    assert fn(*args, force=True) == path
    assert _tree_hash(path) == before
    assert not [d for d in _siblings(path) if ".tmp" in d]
