"""The shared wire edge (sources/wire.py): the per-partition mark filter,
mark merging, the atomic publish and the content-hash block writer's
retry idempotence — no Ray."""

import json

import numpy as np
import pyarrow as pa
import pytest

from splunk_otel_collector_ray.sources.otlp import RESOURCE_COLS, encode_block
from splunk_otel_collector_ray.sources.wire import (
    after_marks,
    block_writer,
    load_marks,
    merge_marks,
    publish,
)

# (case, marks, partition, position, expected keep mask)
MARK_CASES = [
    ("partition above the highest mark keeps every row",
     {0: 5, 1: 3}, [2, 2, 2], [0, 3, 9], [True, True, True]),
    ("partition with no mark keeps every row",
     {0: 5, 2: 3}, [1, 1, 1], [-1, 0, 7], [True, True, True]),
    ("row at the mark is dropped, the row after it kept",
     {0: 5, 1: 3}, [0, 0, 1, 1], [5, 6, 3, 4], [False, True, False, True]),
    ("rows below the mark are dropped",
     {0: 5}, [0, 0], [0, 4], [False, False]),
    ("empty mark dict keeps everything",
     {}, [0, 3, -1], [-5, 0, 100], [True, True, True]),
    ("negative and sparse partition ids look up their own mark",
     {-1: 0, 7: 2}, [-1, -1, 0, 7, 7], [0, 1, 0, 2, 3],
     [False, True, True, False, True]),
]


def test_mark_filter_table():
    for case, marks, part, pos, keep in MARK_CASES:
        got = after_marks(marks, np.array(part), pa.chunked_array([pos]))
        assert got.tolist() == keep, case
    assert after_marks({0: 1}, np.array([], dtype=np.int64),
                       np.array([], dtype=np.int64)).tolist() == []


def test_merge_marks_is_monotone_and_ordered():
    assert merge_marks({3: 1, 0: 9}, {0: 4, 1: 2}) == {0: 9, 1: 2, 3: 1}
    assert list(merge_marks({3: 1, 0: 9}, {1: 2})) == [0, 1, 3]
    assert merge_marks({}, {2: 5}) == {2: 5}
    assert merge_marks() == {}


def test_publish_writes_atomically_and_cleans_up(tmp_path):
    path = tmp_path / "state" / "offsets.json"
    publish(str(path), json.dumps({0: 3}))
    assert load_marks(str(path)) == {0: 3}
    assert load_marks(str(tmp_path / "missing.json")) == {}
    publish(str(path), b'{"0": 4}')  # overwrite in place
    assert load_marks(str(path)) == {0: 4}
    # a failed publish (the target is a non-empty directory) raises and
    # leaves no tmp behind
    busy = tmp_path / "busy"
    (busy / "x").mkdir(parents=True)
    with pytest.raises(OSError):
        publish(str(busy), b"data")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["busy", "state"]
    assert [p.name for p in (tmp_path / "state").iterdir()] == [
        "offsets.json"]


def _log_block() -> pa.Table:
    ts = pa.array([1_700_000_000_000_000 + i for i in range(3)],
                  type=pa.timestamp("us"))
    return pa.table({
        "conv_id": ["c0", "c0", "c1"],
        "turn_idx": pa.array([0, 1, 0], type=pa.int32()),
        "role": ["user", "assistant", "user"],
        "tool": ["", "bash", ""],
        "ts": ts,
        "observed_ts": ts,
        "log_format": ["plain"] * 3,
        "body": ["hello", "wörld", None],
        "severity_text": ["INFO", "", "ERROR"],
        "severity_number": pa.array([9, 0, 17], type=pa.int8()),
        "attributes": pa.array([[("k", "v")], [], []],
                               type=pa.map_(pa.string(), pa.string())),
        "span_id": ["", "ab", ""],
        **{c: ["x"] * 3 for c in RESOURCE_COLS},
    })


def test_block_writer_retry_is_idempotent(tmp_path):
    """A retried block task rewrites the same content-hash file with the
    same bytes and leaves no tmp sibling — the exporters' retry-safety
    claim."""
    write = block_writer(str(tmp_path), "req-{}.json", encode_block)
    block = _log_block()
    assert write(block)["n"].to_pylist() == [3]
    first = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert write(block)["n"].to_pylist() == [3]
    again = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert len(first) == 1 and again == first
    (name, data), = again.items()
    assert name.startswith("req-") and name.endswith(".json")
    assert ".tmp" not in name
    assert json.loads(data)["resourceLogs"]
