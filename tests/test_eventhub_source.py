"""azureeventhub receiver analogue: Capture-dump decode (one event →
many resource-log records), per-partition sequence checkpoint resume,
and producer round trip."""

import json
import os

import pyarrow.compute as pc

from splunk_otel_collector_ray import corpus
from splunk_otel_collector_ray.sources.eventhub import (
    AZURE_SEVERITY,
    EVENTHUB_PARTITIONS,
    checkpoint_sequences,
    load_checkpoint,
    read_eventhub_capture,
    write_eventhub_capture,
)


def test_eventhub_capture_decode(ray_session, sf_dir):
    path = corpus.ensure_eventhub_dump(sf_dir)
    df = read_eventhub_capture(path).to_pandas()
    n_turns = corpus.n_turns_for(corpus.sf_name(sf_dir))
    assert len(df) == n_turns
    # the explode is real: far fewer events than records
    n_events = sum(
        sum(1 for _ in open(os.path.join(path, f)))
        for f in os.listdir(path) if f.endswith(".jsonl"))
    assert n_events < n_turns
    # Azure level → OTel severity mapping, partition = conv hash mod 4
    assert (df["severity_number"].to_numpy()
            == df["level"].map(AZURE_SEVERITY).to_numpy()).all()
    conv_num = df["partition_key"].str.slice(5).astype("int64")
    assert (df["partition"].to_numpy()
            == (conv_num % EVENTHUB_PARTITIONS).to_numpy()).all()
    # spot-check one envelope's first record against its decoded row
    with open(os.path.join(path, "partition-0.jsonl")) as f:
        env = json.loads(f.readline())
    rec = json.loads(env["Body"])["records"][0]
    row = df[(df["partition_key"] == env["PartitionKey"])
             & (df["turn_idx"] == rec["properties"]["turn_idx"])].iloc[0]
    assert row["body"] == rec["properties"]["text"]
    assert row["resource_id"] == rec["resourceId"]
    assert int(row["sequence_number"]) == env["SequenceNumber"]


def test_eventhub_checkpoint_resume(ray_session, sf_dir, tmp_path):
    """Event Processor semantics: a restarted processor reads each
    partition strictly AFTER its checkpointed sequence number; commits
    are monotone and idempotent."""
    path = corpus.ensure_eventhub_dump(sf_dir)
    state = str(tmp_path / "checkpoint.json")
    ds = read_eventhub_capture(path)
    total = ds.count()
    head = ds.map_batches(
        lambda t: t.filter(pc.less_equal(t["sequence_number"], 1)),
        batch_format="pyarrow")
    n_head = head.count()
    assert 0 < n_head < total
    marks = checkpoint_sequences(state, head)
    assert marks == {p: 1 for p in range(EVENTHUB_PARTITIONS)}
    resumed = read_eventhub_capture(path, checkpoint=state)
    assert resumed.count() == total - n_head
    assert resumed.map_batches(
        lambda t: t.filter(pc.less_equal(t["sequence_number"], 1)),
        batch_format="pyarrow").count() == 0
    # checkpoint the remainder → nothing redelivers; re-checkpointing a
    # stale (lower) view never regresses the marks
    checkpoint_sequences(state, resumed)
    assert read_eventhub_capture(
        path, checkpoint=state).count() == 0
    checkpoint_sequences(state, head)
    assert read_eventhub_capture(
        path, checkpoint=state).count() == 0
    # re-committing an EMPTY resumed stream (restarted processor, no new
    # events) is a no-op, not a crash
    before = load_checkpoint(state)
    checkpoint_sequences(state, read_eventhub_capture(
        path, checkpoint=state))
    assert load_checkpoint(state) == before


def test_eventhub_producer_roundtrip(ray_session, sf_dir, tmp_path):
    """processor∘producer = identity; each produced partition file holds
    a dense 0-based sequence and a partition key's records stay in one
    event (the partition-ownership + batching shape)."""
    src = corpus.ensure_eventhub_dump(sf_dir)
    out = str(tmp_path / "produced")
    write_eventhub_capture(read_eventhub_capture(src), out)
    files = sorted(os.listdir(out))
    assert len(files) == EVENTHUB_PARTITIONS
    for fn in files:
        seqs, keys = [], set()
        with open(os.path.join(out, fn)) as f:
            for line in f:
                env = json.loads(line)
                seqs.append(env["SequenceNumber"])
                assert env["PartitionKey"] not in keys  # one event per key
                keys.add(env["PartitionKey"])
        assert seqs == list(range(len(seqs)))
    key = ["partition", "sequence_number", "partition_key", "turn_idx"]
    a = read_eventhub_capture(src).to_pandas().sort_values(
        key).reset_index(drop=True)
    b = read_eventhub_capture(out).to_pandas().sort_values(
        key).reset_index(drop=True)
    import pandas as pd

    pd.testing.assert_frame_equal(a[sorted(a.columns)], b[sorted(b.columns)])
