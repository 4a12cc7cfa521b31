"""Write-through per-sink exporter — export + aggregate in ONE streaming pass.

The collector's exporter path couples the send with its observability
counters: splunk_hec serializes a batch to per-index HEC events while
obsreport counts accepted records (SURVEY.md §2.7;
/root/reference/pkg/receiver/smartagentreceiver/output.go:219,243-245). The
Ray-Data expression: a `map_batches` stage that

  1. cuts its batch into runs of one input partition (with a
     ``partition_col``) and each run by the routing `sink` column,
  2. writes each split to ``out_dir/[<partition_col>=<v>/]sink=<sink>/
     part-<fp>.parquet``, where ``<fp>`` is a DETERMINISTIC fingerprint of
     the run's content (first and last conv_id/turn_idx + row count) — a
     retried task overwrites the same file, so task retries stay
     exactly-once,
  3. emits only the tiny per-(sink, severity, tool) partial counts as its
     output batch — the downstream groupby aggregates partials, not rows.

``run_resumable`` reads each input part WHOLE into its task's batch, so a
run is a whole part and its files' names and bytes depend on the part
alone, whatever the other parts of its bundle. The limit is Ray's block
size: inside a fused task, Ray's output buffer cuts a block that reaches
1.5 × ``DataContext.target_max_block_size`` (128 MiB by default) at the
target, counted from the first row the buffer holds. So a part over half
the target (at any stage of the chain, and the enriched rows are the
largest) may be split at a row that depends on its neighbours in the
bundle. Its rows stay exactly-once — each piece is a run with its own
fingerprint, and a rerun resets the part's dir first — but its file names
and bytes can differ between runs that bundle it differently.

Compared with write_parquet + re-read, this halves the passes over the full
stream: the export IS the aggregate's input. At 100 TB the re-read pass is a
second full scan; here the shuffle moves only #batches × #groups rows.

Every file is written by one ``pq.write_table`` call with one column-encoding
plan (``write_plan``), derived from the batch schema and, for ``body``'s
codec, from the file's rows. Every per-column option names Parquet *leaf
paths* (``attributes.key_value.key`` / ``.value``, not ``attributes``):
pyarrow matches ``use_dictionary``, ``compression`` and ``write_statistics``
against leaves, and a top-level name silently drops the leaves'
dictionaries, leaves them uncompressed or drops their statistics.

- ``ts``, ``observed_ts`` and ``turn_idx`` are ``DELTA_BINARY_PACKED`` with no
  dictionary: ints that step by small amounts from row to row, where a
  dictionary overflows into a PLAIN fallback;
- ``conv_id`` and ``span_id`` are ``DELTA_BYTE_ARRAY`` (prefix-delta) with no
  dictionary: rows arrive in ``(conv_id, turn_idx)`` order, so neighbours
  share long prefixes;
- ``body`` is PLAIN with no dictionary: near-unique strings;
- every other leaf keeps its dictionary, the map leaves included;
- the map leaves are zstd; ``body`` is zstd in a file whose parsed log
  records (``log_format`` not "plain") hold at least half of its body
  bytes, and snappy in any other file (free text, no ``log_format``
  column, no body bytes); every other leaf is snappy. The choice reads the
  file's own rows only, so a file's bytes still depend on its part alone;
- every leaf but ``body`` and ``span_id`` has min/max statistics: readers
  prune row groups on ``sink``, severity, ``ts`` and ``conv_id``, never on
  free text or span ids;
- no ``ARROW:schema`` footer blob (``store_schema=False``): the Parquet
  logical types give the logs schema back exactly. A column whose Arrow
  type needs the stored schema to round-trip (tz-aware timestamp,
  ``large_string``, dictionary) must be cast before SinkWriter, as
  ParseStage casts ``conv_id``/``role``/``tool`` to ``string`` and gives
  ``ts``/``observed_ts`` as ``timestamp[us]``.

On the logbench inputs (seed 5) this writes 26.2 B/turn on ``mixed_logs``
(31.0 with snappy on every ``body``; 34.3 with snappy everywhere, a
dictionary on ``conv_id``/``span_id``, every leaf's statistics and the
stored schema; 44.1 with pyarrow's defaults) and 241.3 on ``prose_chat``
(the same with snappy bodies; 244.4; 254.4). There, 95.5% of the
``mixed_logs`` body bytes are parsed and zstd keeps 55% of snappy's body
bytes for +2.8 ms of encode per 100k turns; the ``prose_chat`` bodies are
free text, where zstd keeps 81% for +73 ms per 60k turns, so they stay
snappy. pyarrow 16.1 reads the files back ``Table.equals`` their input with
an equal schema, and DuckDB 1.0.0's ``read_parquet`` returns the same rows.
"""

from __future__ import annotations

import functools
import hashlib
import os
from typing import Iterator

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq


# ints that step by small amounts row to row: delta-packed, no dictionary
DELTA_COLUMNS = ("ts", "observed_ts", "turn_idx")
# strings whose neighbours share long prefixes in (conv_id, turn_idx) order:
# prefix-delta, no dictionary
PREFIX_COLUMNS = ("conv_id", "span_id")
# near-unique strings: no dictionary
PLAIN_COLUMNS = ("body",)
# dictionary-encoded leaves that zstd shrinks cheaply; every other leaf snappy
ZSTD_COLUMNS = ("attributes",)
# zstd in a file of parsed log records (``_log_bodies``), snappy otherwise:
# zstd is cheap on log lines but markedly slower on free text
LOG_BODY_COLUMNS = ("body",)
# never filtered on by a reader, so no row-group min/max statistics
NO_STATS_COLUMNS = ("body", "span_id")


def _leaf_paths(name: str, typ: pa.DataType) -> list[str]:
    """The Parquet leaf column paths under one Arrow field, as pyarrow
    names them (``use_dictionary``, ``compression`` and
    ``write_statistics`` match these, not top-level names)."""
    if pa.types.is_map(typ):
        return [*_leaf_paths(f"{name}.key_value.key", typ.key_type),
                *_leaf_paths(f"{name}.key_value.value", typ.item_type)]
    if (pa.types.is_list(typ) or pa.types.is_large_list(typ)
            or pa.types.is_fixed_size_list(typ)):
        return _leaf_paths(f"{name}.list.element", typ.value_type)
    if pa.types.is_struct(typ):
        return [p for f in typ for p in _leaf_paths(f"{name}.{f.name}", f.type)]
    return [name]


@functools.lru_cache(maxsize=16)
def write_plan(schema: pa.Schema, log_bodies: bool) -> dict:
    """``pq.write_table`` encoding options for a file of ``schema`` (see the
    module docstring); ``log_bodies`` (``_log_bodies`` of the file's rows)
    puts zstd on ``LOG_BODY_COLUMNS``. Every per-column option names the
    schema's Parquet leaf paths: a leaf missing from ``compression`` would
    be written uncompressed and one missing from ``write_statistics``
    without statistics. pyarrow refuses a delta column that is also in
    ``use_dictionary``."""
    leaves = {f.name: _leaf_paths(f.name, f.type) for f in schema}
    delta = DELTA_COLUMNS + PREFIX_COLUMNS
    zstd = ZSTD_COLUMNS + (LOG_BODY_COLUMNS if log_bodies else ())
    return {
        "use_dictionary": [
            p for name, ps in leaves.items()
            if name not in delta + PLAIN_COLUMNS for p in ps],
        "column_encoding": {
            name: ("DELTA_BINARY_PACKED" if name in DELTA_COLUMNS
                   else "DELTA_BYTE_ARRAY")
            for name in leaves if name in delta},
        "compression": {
            p: "zstd" if name in zstd else "snappy"
            for name, ps in leaves.items() for p in ps},
        "write_statistics": [
            p for name, ps in leaves.items()
            if name not in NO_STATS_COLUMNS for p in ps],
        # the Parquet logical types give the schema back; no ARROW:schema
        "store_schema": False,
    }


def _body_bytes(batch: pa.Table) -> tuple[np.ndarray, np.ndarray] | None:
    """Per row of ``batch``: its ``body`` bytes, and the same count where a
    log family parsed the row (``log_format`` not "plain") or 0 elsewhere.
    None when the batch lacks either column or no row is parsed, where
    every file's ``body`` is snappy."""
    if not {"body", "log_format"} <= set(batch.column_names):
        return None
    parsed = pc.fill_null(pc.not_equal(batch["log_format"], "plain"),
                          False).to_numpy()
    if not parsed.any():
        return None
    size = pc.fill_null(pc.binary_length(batch["body"]), 0).to_numpy()
    return size, size * parsed


def _log_bodies(body: tuple[np.ndarray, np.ndarray] | None, start: int,
                mask: pa.ChunkedArray) -> bool:
    """Whether a file's parsed rows hold at least half of its body bytes,
    and it has some. The file is the rows of ``mask`` in the run that
    starts at row ``start`` of the batch of ``body`` (``_body_bytes``);
    False without the columns."""
    if body is None:
        return False
    m = mask.to_numpy()
    size, parsed = (int(np.dot(m, x[start:start + len(m)])) for x in body)
    return 2 * parsed >= size > 0


class SinkWriter:
    """map_batches stage: side-effect parquet export, partial-count output.

    With ``partition_col`` set (e.g. a lineage ``part`` id tagged from the
    input file), the batch is cut into runs of equal ``partition_col``; each
    run's rows land under ``out_dir/<partition_col>=<v>/sink=<s>/`` in files
    named by that run's fingerprint, and the partial counts carry the
    partition id — one streaming pass yields resumable per-partition output
    AND its lineage metrics (see pipelines/logs.run_resumable). A batch of
    one run writes what a batch of that run alone writes."""

    def __init__(self, out_dir: str, partition_col: str | None = None
                 ) -> None:
        self.out_dir = out_dir
        self.partition_col = partition_col
        # the partial counts' group keys
        self.group_keys = ["sink", "severity_text", "tool"]
        if partition_col is not None:
            self.group_keys.insert(0, partition_col)

    def _fingerprint(self, batch: pa.Table) -> str:
        # first row + last row + count: disjoint ordered batches can't collide
        # (same endpoints + same count ⇒ same block under a fixed input order)
        n = batch.num_rows
        key = "|".join([
            str(batch["conv_id"][0]), str(batch["turn_idx"][0]),
            str(batch["conv_id"][n - 1]), str(batch["turn_idx"][n - 1]),
            str(n),
        ])
        return hashlib.md5(key.encode()).hexdigest()[:16]

    def __call__(self, batch: pa.Table) -> pa.Table:
        group_keys = self.group_keys
        if batch.num_rows == 0:  # filtered-empty upstream: no files, no counts
            counts = batch.group_by(group_keys).aggregate([("sink", "count")])
            return counts.rename_columns([*group_keys, "n"])
        if batch["sink"].null_count:
            # a null sink would silently vanish: pc.equal(col, null) masks
            # to no rows, so the export would drop the rows while creating
            # a phantom sink=None dir — fail loudly instead (the routing
            # stage always assigns a sink; null means an upstream bug)
            raise ValueError(
                f"{batch['sink'].null_count} rows with a null 'sink' "
                "reached SinkWriter — the routing stage must assign every "
                "row a sink (use an explicit default route)")
        body = _body_bytes(batch)
        for subdir, start, run in self._runs(batch):
            fp = self._fingerprint(run)
            for sink in pc.unique(run["sink"]):
                mask = pc.equal(run["sink"], sink)
                part = run.filter(mask)
                # the codec reads the file's own rows only, so its bytes
                # depend on its part alone
                plan = write_plan(batch.schema,
                                  _log_bodies(body, start, mask))
                d = os.path.join(self.out_dir, subdir, f"sink={sink}")
                os.makedirs(d, exist_ok=True)
                # deterministic name → idempotent under Ray task retries
                pq.write_table(part, os.path.join(d, f"part-{fp}.parquet"),
                               **plan)
        counts = batch.group_by(group_keys).aggregate([("sink", "count")])
        return counts.rename_columns([*group_keys, "n"])

    def _runs(self, batch: pa.Table
              ) -> Iterator[tuple[str, int, pa.Table]]:
        """``(subdir, first row, rows)`` for each run of equal
        ``partition_col`` in batch order, as zero-copy slices; without a
        partition column the whole batch is one run under ``out_dir``."""
        if self.partition_col is None:
            yield "", 0, batch
            return
        col = batch[self.partition_col]
        if col.null_count:  # would be filed under a phantom `part=None`
            raise ValueError(f"{col.null_count} rows with a null "
                             f"{self.partition_col!r} reached SinkWriter")
        change = pc.not_equal(col[1:], col[:-1])
        cuts = [0, *(np.flatnonzero(change.to_numpy()) + 1), len(col)]
        for a, b in zip(cuts, cuts[1:]):
            run = batch.slice(a, b - a)
            yield (f"{self.partition_col}={run[self.partition_col][0]}", a,
                   run)
