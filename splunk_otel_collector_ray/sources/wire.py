"""The wire edge of the queue and exporter codecs: shared formats, file
publish and layout, and resume state.

Each codec module in ``sources/`` keeps only its own encoding; this module
owns what they would otherwise each copy, so the copies cannot drift
apart. The reference gives every exporter one sending queue, retry and
retry-safe writes, and keeps resume as per-partition state committed by
atomic rename (SURVEY.md:175-176, 452-453):

- **Formats.** The RFC3339 formatter (:func:`iso_us`), the timestamp
  parse (:func:`ts_us`), the envelope explode (:func:`repeat_per`),
  runtime protobuf fields (:func:`pb_field`) and column lists → Arrow
  (:func:`cols_to_table`).
- **Publish and layout.** :func:`publish` is the one atomic file write.
  :func:`write_blocks` is the per-block content-hash exporter (otlp,
  otlp_pb, sfx, jaeger, prw); :func:`write_partitions` is the
  per-partition queue producer (kafka, eventhub, pulsar, pubsub).
- **Resume state.** Per-partition high-water marks — kafka offsets,
  eventhub checkpoints, pulsar's markDeletePosition — go through
  :func:`drop_marked` on read and :func:`fold_marks` /
  :func:`merge_marks` / :func:`commit_marks` / :func:`load_marks` on
  commit. Acked-key sets — pubsub acks, solace settles, pulsar
  individuals — go through :func:`save_keys` / :func:`drop_keys`.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import uuid

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


def iso_us(us: int) -> str:
    """Epoch microseconds → RFC3339 with exact-µs fraction — the wire
    timestamp format every queue dump in this package emits."""
    import datetime

    dt = (datetime.datetime(1970, 1, 1)
          + datetime.timedelta(microseconds=int(us)))
    return dt.strftime("%Y-%m-%dT%H:%M:%S") + ".%06dZ" % dt.microsecond


def combined(col: "pa.ChunkedArray | pa.Array") -> pa.Array:
    return (col.combine_chunks() if isinstance(col, pa.ChunkedArray)
            else col)


def repeat_per(col: "pa.ChunkedArray | pa.Array",
               counts: np.ndarray) -> pa.Array:
    """Replicate an envelope-level column once per exploded inner record
    (one ``take`` over a ``np.repeat`` index — no Python loop)."""
    arr = combined(col)
    return arr.take(pa.array(np.repeat(np.arange(len(arr)), counts)))


def ts_us(col: "pa.ChunkedArray | pa.Array") -> pa.Array:
    """ISO8601 string column → ``timestamp[us]``; passes through columns
    the JSON reader already inferred. Handles any fraction width and
    zone form (none, Z, ±hh:mm) — a foreign dump's timestamps need not
    match this package's own 26-digit-µs ``iso_us`` shape."""
    arr = combined(col)
    if pa.types.is_timestamp(arr.type):
        return pc.cast(arr, pa.timestamp("us"))
    # Arrow refuses both zone mismatches (naive target vs Z/offset) and
    # precision loss (µs target vs ns fractions) at parse time, so try
    # the four shapes from cheapest to most general, then normalize:
    # drop the zone (instants stay UTC) and truncate sub-µs fractions.
    last: Exception | None = None
    for typ in (pa.timestamp("us"), pa.timestamp("us", "UTC"),
                pa.timestamp("ns"), pa.timestamp("ns", "UTC")):
        try:
            t = pc.cast(arr, typ)
            break
        except pa.ArrowInvalid as e:
            last = e
    else:
        raise last
    if t.type.tz is not None:
        t = pc.cast(t, pa.timestamp(t.type.unit))
    return t if t.type.unit == "us" else pc.cast(
        t, pa.timestamp("us"), safe=False)


def pb_field(name: str, number: int, ftype: int,
             type_name: "str | None" = None,
             repeated: bool = False):
    """FieldDescriptorProto builder shared by the runtime-declared
    protobuf codecs (otlp_pb/prw/sfx/jaeger) — one copy of the
    label/type_name plumbing."""
    from google.protobuf import descriptor_pb2

    t = descriptor_pb2.FieldDescriptorProto
    f = descriptor_pb2.FieldDescriptorProto(
        name=name, number=number, type=ftype,
        label=(t.LABEL_REPEATED if repeated else t.LABEL_OPTIONAL))
    if type_name:
        f.type_name = type_name
    return f


def cols_to_table(schema: pa.Schema, cols: "dict[str, list]") -> pa.Table:
    """Column lists → a schema-stable Arrow table; epoch-µs int lists
    build through int64 and cast for every timestamp field (the shared
    tail of all the decode loops in this package)."""
    arrays = []
    for f in schema:
        vals = cols[f.name]
        if pa.types.is_timestamp(f.type):
            arrays.append(pa.array(vals, type=pa.int64()).cast(f.type))
        else:
            arrays.append(pa.array(vals, type=f.type))
    return pa.Table.from_arrays(arrays, schema=schema)


# --- publish and layout ----------------------------------------------------


def publish(path: str, data: "bytes | str") -> None:
    """Atomically publish ``data`` (``str`` is written as UTF-8) at
    ``path``: write a tmp name unique to this call in the target
    directory, then ``os.replace``. Readers see the old file or the new
    one, never a torn write; a retried or concurrent writer of the same
    path never shares the tmp; a failed write leaves no tmp behind. The
    tmp ends in ``.tmp``, so no reader's file pattern matches it."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    tmp = f"{path}.{uuid.uuid4().hex}.tmp"
    try:
        with open(tmp, "xb") as f:
            f.write(data.encode("utf-8") if isinstance(data, str) else data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def block_writer(out_dir: str, name: str, encode):
    """The per-block task of :func:`write_blocks`: ``encode(t)`` returns
    the block's payloads (bytes); each is published as
    ``name.format(<first 16 hex of its sha1>)`` and the block returns a
    one-row receipt ``n`` of its rows. Writing the same block again
    rewrites the same files with the same bytes."""
    def write_block(t: pa.Table) -> pa.Table:
        for data in encode(t):
            digest = hashlib.sha1(data).hexdigest()[:16]
            publish(os.path.join(out_dir, name.format(digest)), data)
        return pa.table({"n": pa.array([t.num_rows], type=pa.int64())})

    return write_block


def write_blocks(ds: "ray.data.Dataset", out_dir: str, name: str,
                 encode) -> int:
    """Per-block content-hash exporter: clear ``out_dir``, write every
    block through :func:`block_writer` and return the rows written.

    Content-hash file names make a retried task rewrite its own files
    (the sending_queue/retry discipline of the export path), but they
    need the stream to carry unique record identities: two byte-identical
    blocks collapse to one file (log records carry conv_id + turn_idx)."""
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir, exist_ok=True)
    counts = ds.map_batches(block_writer(out_dir, name, encode),
                            batch_format="pyarrow", batch_size=None)
    return sum(sum(b["n"].to_pylist())
               for b in counts.iter_batches(batch_format="pyarrow"))


def write_partitions(ds: "ray.data.Dataset", out_dir: str, col: str,
                     name: str, encode) -> None:
    """Per-partition queue producer: one ``bucket_fold`` exchange on
    ``col`` (a partition's records must serialize contiguously — the
    producer→broker partition-ownership shape), then for each partition
    value ``p`` a block holds, ``encode(p, rows)`` returns the
    partition's JSON lines in its own record order and they are
    published as ``name.format(p)``. Rows with a null ``col`` are not
    written."""
    from ..partitioning import bucket_fold

    os.makedirs(out_dir, exist_ok=True)

    def fold(t: pa.Table) -> pa.Table:
        parts = (sorted(pc.unique(t[col]).drop_null().to_pylist())
                 if t.num_rows else [])
        ns = []
        for p in parts:
            lines = encode(p, t.filter(pc.equal(t[col], p)))
            publish(os.path.join(out_dir, name.format(p)),
                    "".join(line + "\n" for line in lines))
            ns.append(len(lines))
        return pa.table({col: pa.array(parts, type=pa.int64()),
                         "n": pa.array(ns, type=pa.int64())})

    bucket_fold(ds, [col], fold, batch_format="pyarrow").materialize()


# --- resume state: per-partition high-water marks --------------------------


def after_marks(marks: "dict[int, int]", part, pos) -> np.ndarray:
    """Row mask of the mark filter: True where ``pos`` is strictly above
    its partition's mark. A partition without a mark (none committed
    yet, or none at all) keeps every row."""
    part = np.asarray(part, dtype=np.int64)
    if not marks:
        return np.ones(len(part), dtype=bool)
    ps, ms = (np.array(v, dtype=np.int64)
              for v in zip(*sorted(marks.items())))
    i = np.minimum(np.searchsorted(ps, part), len(ps) - 1)
    return (ps[i] != part) | (np.asarray(pos, dtype=np.int64) > ms[i])


def drop_marked(ds: "ray.data.Dataset", marks: "dict[int, int]",
                coords) -> "ray.data.Dataset":
    """Drop rows at or below their partition's mark — the restarted
    consumer's skip. ``coords(t)`` returns ``(partition, position)``
    arrays for a batch (offset, sequence number, entry rank …)."""
    if not marks:
        return ds
    return ds.map_batches(
        lambda t: t.filter(pa.array(after_marks(marks, *coords(t)))),
        batch_format="pyarrow")


def fold_marks(ds: "ray.data.Dataset", col: str,
               agg: str = "max") -> "dict[int, int]":
    """Per-partition ``agg`` of ``col`` over the stream's ``partition``
    column. Partials shrink per batch to ≤ #partitions rows and one
    ``small_fold`` merges them, so the stream never collects. An empty
    stream folds to a schemaless empty result: no marks."""
    from ..partitioning import small_fold

    def partial(t: pa.Table) -> pa.Table:
        g = t.select(["partition", col]).group_by(
            "partition").aggregate([(col, agg)])
        return g.rename_columns(["partition", col])

    rows = small_fold(ds.map_batches(partial, batch_format="pyarrow"),
                      partial).take_all()
    return {int(r["partition"]): int(r[col]) for r in rows}


def merge_marks(*marks: "dict[int, int]") -> "dict[int, int]":
    """Per-partition max over mark sets, in partition order. Commits are
    monotone like a real consumer group's: merging an older view never
    regresses a mark."""
    out: dict[int, int] = {}
    for m in marks:
        for p, v in m.items():
            out[p] = max(v, out.get(p, v))
    return dict(sorted(out.items()))


def as_marks(raw: dict) -> "dict[int, int]":
    """A committed JSON mark object (string partition keys) → marks."""
    return {int(p): int(v) for p, v in raw.items()}


def load_marks(path: "str | None") -> "dict[int, int]":
    """The marks committed at ``path``; ``{}`` before the first commit
    (or with no path)."""
    if not path or not os.path.exists(path):
        return {}
    with open(path) as f:
        return as_marks(json.load(f))


def commit_marks(path: str, ds: "ray.data.Dataset",
                 col: str) -> "dict[int, int]":
    """Fold the consumed stream to per-partition max ``col``, merge it
    monotone with the marks at ``path`` and publish the result there as
    a JSON object (partition → mark). Committing an empty stream keeps
    the prior marks."""
    marks = merge_marks(fold_marks(ds, col), load_marks(path))
    publish(path, json.dumps(marks))
    return marks


# --- resume state: acked-key sets ------------------------------------------


def next_state_subdir(root: str, prefix: str) -> str:
    """Next append-slot path for a key-set directory (``<root>/
    <prefix>-0000``, ``-0001``, …)."""
    os.makedirs(root, exist_ok=True)
    part = 0
    while True:
        p = os.path.join(root, f"{prefix}-{part:04d}")
        try:
            os.makedirs(p)  # atomic claim — exists-then-return would let
            return p        # two concurrent writers share one slot
        except FileExistsError:
            part += 1


def has_parquet(path: "str | None") -> bool:
    """True when ``path`` is a directory holding at least one parquet
    file."""
    return bool(path) and os.path.isdir(path) and any(
        f.endswith(".parquet")
        for _, _, fs in os.walk(path) for f in fs)


def save_keys(root: str, prefix: str, ds: "ray.data.Dataset",
              cols: "list[str]") -> None:
    """Append the stream's ``cols`` to the key set under ``root``:
    parquet written by the cluster into the next ``<prefix>-NNNN`` slot,
    so the driver never holds the keys."""
    ds.select_columns(cols).write_parquet(next_state_subdir(root, prefix))


def drop_keys(ds: "ray.data.Dataset", root: "str | None",
              key: str) -> "ray.data.Dataset":
    """Drop stream rows whose ``key`` is in the key set under ``root``
    (``anti_join_keys``: broadcast when small, keyed anti-join when
    not). An absent or empty set drops nothing."""
    if not has_parquet(root):
        return ds
    import ray.data

    from ..stages.sample import anti_join_keys

    return anti_join_keys(ds, ray.data.read_parquet(root, columns=[key]),
                          key)
