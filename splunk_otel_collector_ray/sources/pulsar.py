"""pulsar receiver analogue: partition-dump decode (batch-entry explode,
ledger/entry coordinates) with subscription-cursor resume.

The reference registers the experimental ``pulsarreceiver``
(/root/reference/internal/components/components.go:268) whose NETWORK
side (brokers, bookies, consumer load balancing) is out of scope for a
batch engine — but pulsar's DATA model contributes two semantics the
kafka/pubsub/event_hub ports don't cover:

1. **Ledger/entry/batch coordinates with ledger rollover.** A message id
   is ``(ledgerId, entryId, batchIndex)`` — entries append to a ledger
   until it rolls (here every ``LEDGER_ENTRIES`` entries, the BookKeeper
   rollover), and one ENTRY can hold a producer-side BATCH of messages
   distinguished only by ``batchIndex``. Decode therefore explodes
   entries (like event_hub's record batches) and orders by the
   three-part coordinate, not a flat offset.
2. **Hybrid cursor resume.** A subscription cursor is a per-partition
   ``markDeletePosition`` (everything at or before it is acked — kafka's
   high-water shape) PLUS an ``individuallyDeletedMessages`` set
   (out-of-order acks beyond the mark — pubsub's set shape). A restarted
   consumer skips entries at/below the mark AND entries in the
   individual set; acking a gap advances the mark over every
   now-contiguous prefix.

Input is a per-partition JSONL dump of entries (public JSON layout of
the reader API's message fields: ``ledgerId``/``entryId``/``partition``/
``key``/``publishTime``/``messages`` with per-message ``batchIndex``/
``eventTime``/``payload``/``properties``). Envelope fields decode
vectorized; the per-entry batch JSON is the wire-codec edge. Cursor
state scales: the mark filter, the per-partition folds, the acked-key
set (parquet written BY THE CLUSTER, applied via ``anti_join_keys``)
and the producer's file layout are ``wire``'s shared resume and
producer helpers — the driver never holds entry sets. This module keeps
the cursor policy: the mark rule, the pruning of the individuals and
the swap of the acks dir.
"""

from __future__ import annotations

import itertools
import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from . import wire
from .wire import iso_us as _iso_us
from .wire import repeat_per, ts_us

PULSAR_PARTITIONS = 4
LEDGER_ENTRIES = 100  # BookKeeper-style ledger rollover interval
RANK_BITS = 48  # entry coordinate = partition << 48 | rank (ranks stay
#                 far below 2^48: ledgers × entries per partition)
RANK_MASK = (1 << RANK_BITS) - 1
PROP_COLS = ("role", "tool")  # message properties the producer writes


def entry_rank(ledger_id, entry_id):
    """Global per-partition append rank of an entry — the total order the
    cursor advances through (vectorized over numpy arrays)."""
    return ledger_id * LEDGER_ENTRIES + entry_id


def encode_pulsar_entry(partition: int, ledger_id: int, entry_id: int,
                        key: str, publish_us: int,
                        messages: "list[dict]") -> dict:
    """One dump line: an ENTRY holding a producer batch of messages."""
    return {
        "partition": int(partition),
        "ledgerId": int(ledger_id),
        "entryId": int(entry_id),
        "key": key,
        "publishTime": _iso_us(publish_us),
        "messages": messages,
    }


def make_pulsar_message(batch_index: int, event_us: int, payload: str,
                        properties: "dict[str, str]") -> dict:
    return {
        "batchIndex": int(batch_index),
        "eventTime": _iso_us(event_us),
        "payload": payload,
        "properties": properties,
    }


def decode_pulsar_batch(batch: pa.Table) -> pa.Table:
    """Entries → one log row PER BATCHED MESSAGE. Entry coordinates
    replicate via one ``np.repeat``; eventTime strings parse in one
    Arrow cast after the explode; only the batch JSON is per entry."""
    from .wire import combined

    per_entry = combined(batch["messages"]).to_pylist()
    counts = np.fromiter((len(m) for m in per_entry), dtype=np.int64,
                         count=len(per_entry))

    def rep(col):
        return repeat_per(col, counts)

    pt = ts_us(batch["publishTime"])
    flat = [m for ms in per_entry for m in ms]
    ev = pa.array([m["eventTime"][:26] for m in flat], type=pa.string())
    cols: dict[str, pa.Array] = {
        "partition": pc.cast(rep(batch["partition"]), pa.int32()),
        "ledger_id": pc.cast(rep(batch["ledgerId"]), pa.int64()),
        "entry_id": pc.cast(rep(batch["entryId"]), pa.int64()),
        "batch_index": pa.array([m["batchIndex"] for m in flat],
                                type=pa.int64()),
        "key": rep(batch["key"]),
        "publish_ts": rep(pt),
        "event_ts": pc.cast(ev, pa.timestamp("us")),
        "body": pa.array([m["payload"] for m in flat], type=pa.string()),
    }
    prop_keys: list[str] = []
    for m in flat:  # stable union of property names (tiny, per batch)
        for k in m["properties"]:
            if k not in cols and k not in prop_keys:
                prop_keys.append(k)
    for k in prop_keys:
        cols[k] = pa.array([m["properties"].get(k) for m in flat],
                           type=pa.string())
    return pa.table(cols)


def read_pulsar_dump(path: str, cursor: "str | None" = None
                     ) -> "ray.data.Dataset":
    """Read a partition dump; with ``cursor`` (the state dir
    :func:`compact_cursor` writes), skip entries at/below each
    partition's markDeletePosition AND entries in the individually-
    deleted set — the restarted-subscription semantics."""
    import ray.data

    out = ray.data.read_json(path, file_extensions=["jsonl"]).map_batches(
        decode_pulsar_batch, batch_format="pyarrow")
    cur = load_cursor(cursor) if cursor else None
    if not cur:
        return out
    out = wire.drop_marked(out, cur["mark_delete"], _part_rank)
    if cur["individuals_dir"]:
        out = wire.drop_keys(out.map_batches(_add_coord,
                                             batch_format="pyarrow"),
                             cur["individuals_dir"], "_coord")
        out = out.drop_columns(["_coord"])
    return out


def _part_rank(t: pa.Table) -> "tuple[np.ndarray, np.ndarray]":
    part = t["partition"].to_numpy(zero_copy_only=False).astype(np.int64)
    return part, entry_rank(t["ledger_id"].to_numpy(zero_copy_only=False),
                            t["entry_id"].to_numpy(zero_copy_only=False))


def _split_coord(t: pa.Table) -> "tuple[np.ndarray, np.ndarray]":
    coord = t["_coord"].to_numpy(zero_copy_only=False)
    return coord >> RANK_BITS, coord & RANK_MASK


def _add_coord(t: pa.Table) -> pa.Table:
    """Append the entry coordinate as one int64 ``_coord`` column."""
    part, rank = _part_rank(t)
    return t.append_column("_coord", pa.array((part << RANK_BITS) | rank,
                                              type=pa.int64()))


def ack_entries(state_dir: str, ds: "ray.data.Dataset") -> None:
    """Record the consumed stream's entries as acked (appended parquet,
    written by the cluster — the driver never holds the set). Mark
    advancement happens in :func:`compact_cursor`."""
    wire.save_keys(os.path.join(state_dir, "acks"), "ack",
                   ds.map_batches(_add_coord, batch_format="pyarrow"),
                   ["partition", "_coord"])


def compact_cursor(state_dir: str, dump_path: str) -> dict:
    """Advance each partition's markDeletePosition over the now-contiguous
    acked prefix (the broker's cursor compaction): mark = the entry just
    below the partition's LOWEST UNACKED live entry, or the HIGHEST acked
    entry when the partition is fully consumed (never a +inf sentinel —
    entries appended to the dump later must still deliver). Commits are
    monotone against the prior cursor. The ack history is PRUNED at each
    compaction: entries at/below the new mark are redundant by the
    cursor's own semantics, so the acks dir is atomically rewritten to
    exactly the individually-deleted set — state stays bounded by the
    out-of-order ack gap, not by total messages ever consumed."""
    import shutil

    import ray.data

    prev = load_cursor(state_dir) or {"mark_delete": {},
                                      "individuals_dir": None}
    acks_root = os.path.join(state_dir, "acks")
    if not wire.has_parquet(acks_root):
        return prev  # nothing acked since the last compaction

    entries = ray.data.read_json(
        dump_path, file_extensions=["jsonl"]).map_batches(
        lambda t: _add_coord(pa.table({
            "partition": pc.cast(t["partition"], pa.int32()),
            "ledger_id": pc.cast(t["ledgerId"], pa.int64()),
            "entry_id": pc.cast(t["entryId"], pa.int64()),
        })), batch_format="pyarrow")
    # everything at/below the prior mark is acked by definition — this
    # pre-filter is what lets the ack history be pruned to the
    # individuals set at each compaction
    live = wire.drop_marked(entries, prev["mark_delete"], _split_coord)
    unacked = wire.drop_keys(live, acks_root, "_coord")
    acked = ray.data.read_parquet(acks_root,
                                  columns=["partition", "_coord"])
    low_unacked = {p: c & RANK_MASK for p, c in
                   wire.fold_marks(unacked, "_coord", "min").items()}
    high_acked = {p: c & RANK_MASK for p, c in
                  wire.fold_marks(acked, "_coord", "max").items()}
    # the entry below the lowest unacked one; a fully consumed partition
    # keeps its highest acked entry, NOT +inf — a later append must
    # still deliver. The partition universe comes from the data + prior
    # state, never a module constant.
    marks = wire.merge_marks(
        {**high_acked, **{p: r - 1 for p, r in low_unacked.items()}},
        prev["mark_delete"])

    # prune: the compacted acks dir IS the individually-deleted set
    tmp = acks_root + ".compact.tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    wire.drop_marked(acked, marks, _split_coord).write_parquet(tmp)
    shutil.rmtree(acks_root, ignore_errors=True)
    if os.path.isdir(tmp):
        os.replace(tmp, acks_root)
        ind_dir = acks_root
    else:  # zero surviving individuals → write_parquet created nothing
        ind_dir = None
    wire.publish(os.path.join(state_dir, "cursor.json"), json.dumps(
        {"mark_delete": marks, "individuals_dir": ind_dir}))
    return {"mark_delete": marks, "individuals_dir": ind_dir}


def load_cursor(state_dir: str) -> dict | None:
    path = os.path.join(state_dir, "cursor.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        raw = json.load(f)
    return {"mark_delete": wire.as_marks(raw["mark_delete"]),
            "individuals_dir": raw["individuals_dir"]}


def _encode_partition(p: int, rows: pa.Table) -> "list[str]":
    """One partition's dump lines: one entry per key, keys in order,
    messages in ``batch_index`` order; entry ranks count from 0 with
    ledger rollover every ``LEDGER_ENTRIES`` entries, and an entry's
    publishTime is its earliest message's."""
    rows = rows.sort_by([("key", "ascending"), ("batch_index", "ascending")])
    pub = pc.cast(rows["publish_ts"], pa.int64()).to_pylist()
    ev = pc.cast(rows["event_ts"], pa.int64()).to_pylist()
    d = rows.select(["key", "batch_index", "body", *PROP_COLS]).to_pydict()
    lines = []
    for rank, (key, idx) in enumerate(itertools.groupby(
            range(rows.num_rows), d["key"].__getitem__)):
        idx = list(idx)
        msgs = [make_pulsar_message(
            d["batch_index"][i], ev[i], d["body"][i],
            {c: d[c][i] for c in PROP_COLS}) for i in idx]
        lines.append(json.dumps(encode_pulsar_entry(
            p, rank // LEDGER_ENTRIES, rank % LEDGER_ENTRIES, key,
            min(pub[i] for i in idx), msgs), ensure_ascii=False))
    return lines


def write_pulsar_dump(ds: "ray.data.Dataset", out_dir: str) -> None:
    """pulsar PRODUCER analogue: regroup messages into batch entries,
    reassign ledger/entry coordinates per partition and write one JSONL
    per partition (the broker's partition-ownership shape)."""
    wire.write_partitions(ds, out_dir, "partition", "partition-{}.jsonl",
                          _encode_partition)
