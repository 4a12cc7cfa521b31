"""pulsar receiver analogue: batch-entry dump decode (ledger/entry/
batchIndex coordinates), hybrid cursor resume (markDeletePosition +
individually-deleted set), and producer round trip."""

import json
import os

import numpy as np
import pyarrow as pa

from splunk_otel_collector_ray import corpus
from splunk_otel_collector_ray.sources.pulsar import (
    LEDGER_ENTRIES,
    PULSAR_PARTITIONS,
    ack_entries,
    compact_cursor,
    entry_rank,
    read_pulsar_dump,
    write_pulsar_dump,
)


def _ranks(df):
    return entry_rank(df["ledger_id"].to_numpy(), df["entry_id"].to_numpy())


def test_pulsar_dump_decode(ray_session, sf_dir):
    path = corpus.ensure_pulsar_dump(sf_dir)
    df = read_pulsar_dump(path).to_pandas()
    n_turns = corpus.n_turns_for(corpus.sf_name(sf_dir))
    assert len(df) == n_turns
    # the batch explode is real: far fewer entries than messages
    n_entries = sum(
        sum(1 for _ in open(os.path.join(path, f)))
        for f in os.listdir(path) if f.endswith(".jsonl"))
    assert n_entries < n_turns
    # ledger rollover: entry ids stay below the rollover interval and a
    # partition with > LEDGER_ENTRIES entries uses more than one ledger
    assert int(df["entry_id"].max()) < LEDGER_ENTRIES
    if n_entries > PULSAR_PARTITIONS * LEDGER_ENTRIES:
        assert int(df["ledger_id"].max()) > 0
    conv_num = df["key"].str.slice(5).astype("int64")
    assert (df["partition"].to_numpy()
            == (conv_num % PULSAR_PARTITIONS).to_numpy()).all()
    # two-timestamp model: publish (entry-level min) ≤ event (per turn)
    assert (df["publish_ts"] <= df["event_ts"]).all()
    # spot-check one entry's first batched message against its row
    with open(os.path.join(path, "partition-0.jsonl")) as f:
        env = json.loads(f.readline())
    msg = env["messages"][0]
    row = df[(df["key"] == env["key"])
             & (df["batch_index"] == msg["batchIndex"])].iloc[0]
    assert row["body"] == msg["payload"]
    assert int(row["ledger_id"]) == env["ledgerId"]
    assert int(row["entry_id"]) == env["entryId"]


def test_pulsar_cursor_resume(ray_session, sf_dir, tmp_path):
    """Hybrid cursor: acking ranks {0,1,2,7} advances markDelete to 2 and
    holds 7 individually; resume skips exactly those; acking the rest
    compacts the individual set away and nothing redelivers."""
    path = corpus.ensure_pulsar_dump(sf_dir)
    state = str(tmp_path / "cursor_state")
    ds = read_pulsar_dump(path)
    total = ds.count()

    def pick(t: pa.Table) -> pa.Table:
        r = entry_rank(t["ledger_id"].to_numpy(zero_copy_only=False),
                       t["entry_id"].to_numpy(zero_copy_only=False))
        return t.filter(pa.array(np.isin(r, [0, 1, 2, 7])))

    head = ds.map_batches(pick, batch_format="pyarrow")
    n_head = head.count()
    assert 0 < n_head < total
    ack_entries(state, head)
    cur = compact_cursor(state, path)
    assert cur["mark_delete"] == {p: 2 for p in range(PULSAR_PARTITIONS)}
    assert cur["individuals_dir"] is not None  # rank 7 held individually
    resumed = read_pulsar_dump(path, cursor=state)
    rdf = resumed.to_pandas()
    assert len(rdf) == total - n_head
    rranks = set(_ranks(rdf).tolist())
    assert {0, 1, 2, 7}.isdisjoint(rranks) and 3 in rranks
    # ack the remainder → mark jumps past everything, individuals compact
    # away, zero redelivery
    ack_entries(state, resumed)
    cur = compact_cursor(state, path)
    assert cur["individuals_dir"] is None
    assert read_pulsar_dump(path, cursor=state).count() == 0


def test_pulsar_append_after_full_consume(ray_session, sf_dir, tmp_path):
    """A fully-consumed partition's markDeletePosition is the highest
    ACKED rank, never +inf: entries appended to the topic afterwards
    still deliver, and the pruned ack state stays sufficient."""
    import shutil

    from splunk_otel_collector_ray.sources.pulsar import (
        LEDGER_ENTRIES, encode_pulsar_entry, make_pulsar_message)

    src = corpus.ensure_pulsar_dump(sf_dir)
    dump = str(tmp_path / "topic")
    shutil.copytree(src, dump)
    state = str(tmp_path / "cursor_state")
    ds = read_pulsar_dump(dump)
    total = ds.count()
    ack_entries(state, ds)
    compact_cursor(state, dump)
    assert read_pulsar_dump(dump, cursor=state).count() == 0
    # broker appends one new entry to partition 0 after the checkpoint
    with open(os.path.join(dump, "partition-0.jsonl")) as f:
        last = json.loads(f.readlines()[-1])
    rank = last["ledgerId"] * LEDGER_ENTRIES + last["entryId"] + 1
    with open(os.path.join(dump, "partition-0.jsonl"), "a") as f:
        f.write(json.dumps(encode_pulsar_entry(
            0, rank // LEDGER_ENTRIES, rank % LEDGER_ENTRIES,
            "conv-late", 1, [make_pulsar_message(
                0, 1, "late message", {"role": "user", "tool": ""})]))
            + "\n")
    resumed = read_pulsar_dump(dump, cursor=state)
    rdf = resumed.to_pandas()
    assert len(rdf) == 1 and rdf["key"].iloc[0] == "conv-late"
    # acking it advances the cursor past it again; history stays pruned
    ack_entries(state, resumed)
    cur = compact_cursor(state, dump)
    assert cur["mark_delete"][0] == rank
    assert read_pulsar_dump(dump, cursor=state).count() == 0
    assert read_pulsar_dump(dump).count() == total + 1  # dump intact


def test_pulsar_producer_roundtrip(ray_session, sf_dir, tmp_path):
    """consumer∘producer = identity; produced partitions carry dense
    append ranks with ledger rollover and one entry per key."""
    src = corpus.ensure_pulsar_dump(sf_dir)
    out = str(tmp_path / "produced")
    write_pulsar_dump(read_pulsar_dump(src), out)
    files = sorted(os.listdir(out))
    assert len(files) == PULSAR_PARTITIONS
    for fn in files:
        ranks, keys = [], set()
        with open(os.path.join(out, fn)) as f:
            for line in f:
                env = json.loads(line)
                ranks.append(
                    env["ledgerId"] * LEDGER_ENTRIES + env["entryId"])
                assert env["key"] not in keys  # one batch entry per key
                keys.add(env["key"])
        assert ranks == list(range(len(ranks)))
    key = ["partition", "ledger_id", "entry_id", "batch_index"]
    a = read_pulsar_dump(src).to_pandas().sort_values(
        key).reset_index(drop=True)
    b = read_pulsar_dump(out).to_pandas().sort_values(
        key).reset_index(drop=True)
    import pandas as pd

    pd.testing.assert_frame_equal(a[sorted(a.columns)], b[sorted(b.columns)])
