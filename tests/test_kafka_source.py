"""kafka receiver analogue: topic-dump decode + consumer-group
offset-commit resume semantics."""

import pyarrow as pa
import pyarrow.compute as pc

from splunk_otel_collector_ray import corpus
from splunk_otel_collector_ray.sources.kafka import (
    commit_offsets,
    load_offsets,
    read_kafka_dump,
)


def test_kafka_dump_decode(ray_session, sf_dir):
    path = corpus.ensure_kafka_dump(sf_dir)
    ds = read_kafka_dump(path)
    df = ds.to_pandas()
    n_turns = corpus.n_turns_for(corpus.sf_name(sf_dir))
    assert len(df) == n_turns
    assert set(df["partition"].unique()) == set(range(corpus.KAFKA_PARTITIONS))
    # offsets are dense 0..n-1 per partition (a valid consumer stream)
    for p, g in df.groupby("partition"):
        offs = g["offset"].sort_values().to_numpy()
        assert offs[0] == 0 and offs[-1] == len(g) - 1
        assert (offs == range(len(g))).all()
    # headers splatted to attribute columns; payload became body
    assert {"turn_idx", "role", "tool", "body", "key", "ts"} <= set(df.columns)
    assert df["ts"].dt.microsecond.mod(1000).eq(0).all()  # ms unit


def test_kafka_offset_commit_resume(ray_session, sf_dir, tmp_path):
    """Restarted-consumer semantics: after committing the consumed
    stream's high-water marks, a re-read yields ZERO records; committing
    a partial consumption resumes exactly after the mark; commits are
    monotone (an older commit never regresses the mark)."""
    path = corpus.ensure_kafka_dump(sf_dir)
    state = str(tmp_path / "group1.offsets.json")

    full = read_kafka_dump(path)
    total = full.count()
    marks = commit_offsets(state, full)
    assert load_offsets(state) == marks
    assert read_kafka_dump(path, state).count() == 0

    # partial consumption: only partition 0 up to offset 9 committed
    part0 = full.filter(
        lambda r: r["partition"] == 0 and r["offset"] <= 9)
    state2 = str(tmp_path / "group2.offsets.json")
    commit_offsets(state2, part0)
    resumed = read_kafka_dump(path, state2)
    assert resumed.count() == total - 10
    df = resumed.to_pandas()
    assert df.loc[df["partition"] == 0, "offset"].min() == 10

    # monotone: re-committing the small slice must not regress the marks
    commit_offsets(state, part0)
    assert load_offsets(state) == marks


def test_kafka_empty_commit_keeps_marks(ray_session, sf_dir, tmp_path):
    """Committing an empty stream — a restarted consumer re-committing
    with no new records — returns and keeps the prior marks instead of
    raising."""
    path = corpus.ensure_kafka_dump(sf_dir)
    state = str(tmp_path / "group.offsets.json")
    full = read_kafka_dump(path)
    marks = commit_offsets(state, full)
    nothing = full.map_batches(lambda t: t.filter(pc.less(t["offset"], 0)),
                               batch_format="pyarrow")
    assert commit_offsets(state, nothing) == marks
    assert load_offsets(state) == marks
    # the same through the resume read: everything is committed already
    assert commit_offsets(state, read_kafka_dump(path, state)) == marks
    assert load_offsets(state) == marks
