"""`recombine` operator — stitch split records (multiline/docker-partial).

Reference semantics (/root/reference/examples/recombine/otel-collector-config.yml:15-20):
    combine_field: attributes.log, combine_with: "",
    is_last_entry: attributes.log endsWith "\\n",
    source_identifier: attributes["log.file.path"]

i.e. consecutive entries from one source are concatenated until an entry whose
`log` ends with a newline closes the record; incomplete trailing records flush
at EOF. Our source identifier is the conversation: fragments only ever combine
within one `conv_id`, in `turn_idx` order (SURVEY.md §7.4 — the one truly
stateful cross-row parse, confined to per-conv groups).

Scale shape: the stitch needs all fragments of a conversation co-located, but
NOT one task per conversation. ONE exchange keyed on conv_id
(`partitioning.bucket_fold`) runs ONE Arrow pass per output block:
`partitioning.segment_fold` sorts by (conv, turn), numbers records with a
per-conversation prefix sum of the flag and joins each record's lines with
`ListArray` + `pc.binary_join` — a few grouped tasks instead of millions,
and no pandas or per-conv Python in the fold. Hot-key safety: a single
conversation can't exceed a bucket, and the bucket domain scales with the
cluster. The corpus writer also keeps conversations within one
input file, so a per-file variant needs no shuffle at all.

Record identity (shared with the DuckDB oracle): within a conv's fragment
stream ordered by turn_idx, ``record_id = count of PRIOR last-entries`` —
an exclusive prefix sum of the is_last flag.

Also here: the `multiline` framing config of filelog
(logs_config_linux.yaml:95-97,312-315) — splitting a text blob into records
at line_start_pattern boundaries — on the same fold.

A null line reads as ``""``: it never matches a flag, joins as empty and
still counts in ``n_fragments`` / ``n_lines`` (ParseStage's null rule).
"""

from __future__ import annotations

import re

import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from ..partitioning import bucket_fold, segment_fold

KEY, ORDER = "conv_id", "turn_idx"


def stitch_records(t: pa.Table, body_col: str = "body") -> pa.Table:
    """Stitch MANY conversations' fragments at once (one block): records
    close at a fragment ending in a newline (exclusive numbering)."""
    out = segment_fold(t, KEY, ORDER, body_col, "",
                       flag=pc.ends_with(t[body_col], "\n"), exclusive=True)
    out = out.rename_columns(["conv_id", "record_id", "body", "n_fragments"])
    # a record is complete iff its last fragment (hence its body) ends
    # the line — earlier fragments never do, or the record would end there
    return out.append_column("is_complete", pc.ends_with(out["body"], "\n"))


def recombine_fragments(ds: "ray.data.Dataset", body_col: str = "body"
                        ) -> "ray.data.Dataset":
    """Stitch fragment rows into records: one output row per record with
    columns (conv_id, record_id, body, n_fragments, is_complete)."""
    return bucket_fold(ds.select_columns([KEY, ORDER, body_col]), [KEY],
                       lambda t: stitch_records(t, body_col),
                       batch_format="pyarrow")


def frame_lines(t: pa.Table, pattern: str, text_col: str = "body",
                exclusive: bool = False) -> pa.Table:
    """Frame MANY conversations' lines at once (one block): record_id is
    the inclusive (start-anchored) or exclusive (end-anchored) per-source
    prefix sum of the ``pattern`` match."""
    out = segment_fold(t, KEY, ORDER, text_col, "\n",
                       flag=pc.match_substring_regex(t[text_col], pattern),
                       exclusive=exclusive)
    return out.rename_columns(["conv_id", "record_id", "body", "n_lines"])


def multiline_frame(
    ds: "ray.data.Dataset",
    line_start_pattern: str | None = None,
    text_col: str = "body",
    line_end_pattern: str | None = None,
) -> "ray.data.Dataset":
    """filelog `multiline` framing as a DATASET operator
    (logs_config_linux.yaml:95-97 cassandra, :368-369 mysql-slow; the
    stanza split config takes exactly one of line_start_pattern /
    line_end_pattern):

    - ``line_start_pattern``: a record STARTS at each match; lines before
      the first match form a leading record (record_id 0). record_id =
      INCLUSIVE prefix sum of is_start.
    - ``line_end_pattern``: a record ENDS at (and includes) each match;
      trailing lines after the last match form an open final record.
      record_id = EXCLUSIVE prefix sum of is_end (count of PRIOR ends) —
      the same construction recombine uses for is_last_entry.
    - the never-match idiom (`^THIS_PATTERN_WILL_NEVER_MATCH_ANYTHING$`,
      splunk_logs_config_linux.yaml:89-90): with either parameter, zero
      matches collapse each source to ONE record — the whole-blob framing
      the reference configures that way.

    Same scale shape as recombine: conversations are hash-bucketed and
    each output block is framed by one :func:`frame_lines` call (one RE2
    pass for the flag, then `segment_fold`; the same numbering as the
    DuckDB oracle's window-function construction).
    Output: (conv_id, record_id, body = lines joined with newline, n_lines).
    """
    if (line_start_pattern is None) == (line_end_pattern is None):
        raise ValueError("exactly one of line_start_pattern / "
                         "line_end_pattern must be given")
    exclusive = line_end_pattern is not None
    pattern = line_end_pattern if exclusive else line_start_pattern
    return bucket_fold(
        ds.select_columns([KEY, ORDER, text_col]), [KEY],
        lambda t: frame_lines(t, pattern, text_col, exclusive),
        batch_format="pyarrow")


def split_multiline(text: str, line_start_pattern: str | None = None,
                    line_end_pattern: str | None = None) -> list[str]:
    """filelog `multiline` framing over one blob: split into records
    beginning at each line_start match (lines before the first match form a
    leading record), or ending AFTER each line_end match's line. Exactly one
    pattern; zero matches (the never-match idiom) keep the blob whole."""
    if (line_start_pattern is None) == (line_end_pattern is None):
        raise ValueError("exactly one of line_start_pattern / "
                         "line_end_pattern must be given")
    if line_start_pattern is not None:
        rx = re.compile(line_start_pattern, re.MULTILINE)
        starts = [m.start() for m in rx.finditer(text)]
        if not starts:
            return [text] if text else []
        bounds = ([0] if starts[0] != 0 else []) + starts + [len(text)]
        return [text[a:b] for a, b in zip(bounds[:-1], bounds[1:])
                if text[a:b]]
    rx = re.compile(line_end_pattern, re.MULTILINE)
    cuts = []
    for m in rx.finditer(text):
        nl = text.find("\n", m.end())
        cuts.append(len(text) if nl < 0 else nl + 1)
    bounds = [0] + sorted(set(cuts)) + [len(text)]
    return [text[a:b] for a, b in zip(bounds[:-1], bounds[1:]) if text[a:b]]
