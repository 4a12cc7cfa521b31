"""Seeded, single-process input generators for the benchmark workloads.

Every input is a pure function of (workload, seed, turns, rows per part).
The program under test only ever sees the resulting directory of Parquet
part files with the transcript schema
(conv_id, turn_idx, role, text, tool, ts). Part files are split on
conversation boundaries, as the engine's resumable runner assumes.

Workloads:

- ``mixed_logs``: the fixture corpus's 23-family log-line mix, rendered by
  ``corpus._render_transcripts`` over a seeded ``corpus._conv_layout``
  (about 1% of conversations hold about 30% of the turns).
- ``prose_chat``: agent-transcript prose. Lognormal lengths of a few
  hundred characters; tool turns are longer. The alphabet has no digits,
  brackets, braces, angle brackets or quotes, and no vocabulary word is a
  detect prefix, so no turn matches a log family.
- ``docker_recombine``: docker-JSON partial-log fragments. Each record is
  split over several consecutive turns of one conversation; only its last
  fragment's ``log`` ends with an escaped newline.
"""

from __future__ import annotations

import json
import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from splunk_otel_collector_ray import corpus

GEN_VERSION = "1"
WORKLOADS = ("mixed_logs", "prose_chat", "docker_recombine")

WORDS = np.array(
    "the a an of to and in for on with as by from that this it is was be "
    "agent user tool model request reply context window token cache plan "
    "step result error retry search browse edit file patch test build run "
    "deploy review summary answer question check value list table column "
    "stream batch queue worker node cluster memory disk network latency "
    "throughput schedule task job pipeline stage sink route parse enrich "
    "export manifest record field string number option setting default "
    "because however therefore although while when where which after "
    "before during about between across under over into onto through "
    "quickly carefully simply clearly first next then finally also only "
    "should would could might must can will may please thanks sure okay "
    "here there again still already almost never always often sometimes".split())
CAPS = np.array([w.capitalize() for w in WORDS])
PUNCT = np.array([".", ",", ";", ":", "!", "?", " -", "'s"])


def _conv_ids(conv_seq: np.ndarray) -> pa.Array:
    digits = pc.cast(pa.array(conv_seq, type=pa.int64()), pa.string())
    return pc.binary_join_element_wise(
        "conv-", pc.utf8_lpad(digits, 8, "0"), "")


def _turn_ts(conv_seq: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """In-order per-conversation timestamps (µs since epoch)."""
    delta_ms = rng.integers(500, 30_000, len(conv_seq)).astype(np.int64)
    cum = np.cumsum(delta_ms)
    first = np.flatnonzero(np.r_[True, conv_seq[1:] != conv_seq[:-1]])
    base = np.repeat(cum[first] - delta_ms[first],
                     np.diff(np.r_[first, len(conv_seq)]))
    return (corpus.BASE_EPOCH_US + conv_seq * 60_000_000
            + (cum - base) * 1000)


def _prose(lens: np.ndarray, rng: np.random.Generator) -> pa.Array:
    """One string per entry of ``lens`` (bytes, approximate), cut from one
    seeded word stream at word boundaries, zero-copy into an Arrow array."""
    # token vocabulary: each word, capitalised or not, bare or punctuated,
    # with its trailing space — a take() over it lays out the stream
    vocab = [w + p + " " for base in (WORDS, CAPS) for w in base
             for p in ("", *PUNCT)]
    vocab = pa.array(vocab, type=pa.string())
    n_cap = len(WORDS) * (1 + len(PUNCT))
    total = int(lens.sum()) + 64
    n_words = total // 6 + 64
    while True:
        word = rng.integers(0, len(WORDS), n_words)
        punct = np.where(rng.random(n_words) < 0.09,
                         rng.integers(1, 1 + len(PUNCT), n_words), 0)
        cap = np.r_[True, rng.random(n_words - 1) < 0.08]
        tok = cap * n_cap + word * (1 + len(PUNCT)) + punct
        words = vocab.take(pa.array(tok, type=pa.int64()))
        offs = np.frombuffer(words.buffers()[1], dtype=np.int32,
                             count=n_words + 1)
        if offs[-1] > total:
            break
        n_words *= 2
    stream = words.buffers()[2].to_pybytes()[:offs[-1]]
    # word starts; snap each cut to the next one
    starts = offs[1:]
    cuts = starts[np.minimum(np.searchsorted(starts, np.cumsum(lens)),
                             len(starts) - 1)]
    offsets = np.maximum.accumulate(np.r_[0, cuts]).astype(np.int32)
    return pa.StringArray.from_buffers(
        len(lens), pa.py_buffer(offsets.tobytes()),
        pa.py_buffer(stream[:offsets[-1]]))


def _table(conv_seq, turn_idx, role, text, ts_us) -> pa.Table:
    tool = np.where(role == "tool",
                    corpus.TOOLS[(conv_seq + turn_idx) % len(corpus.TOOLS)], "")
    return pa.table({
        "conv_id": _conv_ids(conv_seq),
        "turn_idx": pa.array(turn_idx, type=pa.int32()),
        "role": pa.array(role, type=pa.string()),
        "text": text,
        "tool": pa.array(tool, type=pa.string()),
        "ts": pa.array(ts_us, type=pa.timestamp("us")),
    })


def _bounds(conv_seq: np.ndarray, rows_per_part: int) -> list[int]:
    """Part boundaries on conversation starts, about ``rows_per_part`` apart."""
    n = len(conv_seq)
    n_parts = max(1, round(n / rows_per_part))
    out = [0]
    for k in range(1, n_parts):
        i = k * n // n_parts
        while i < n and conv_seq[i] == conv_seq[i - 1]:
            i += 1
        if out[-1] < i < n:
            out.append(i)
    return out + [n]


def render(workload: str, seed: int, n_turns: int, rows_per_part: int
           ) -> "tuple[list[pa.Table], dict]":
    """(part tables, properties) for one workload and seed."""
    rng = np.random.default_rng([seed % (1 << 64), WORKLOADS.index(workload)])
    conv_seq, turn_idx = corpus._conv_layout(n_turns, rng)
    role = rng.choice(corpus.ROLES, size=n_turns, p=corpus.ROLE_W)
    props: dict = {"workload": workload, "seed": seed, "turns": n_turns,
                   "conversations": int(conv_seq[-1]) + 1,
                   "fragments_per_record": None}
    if workload == "mixed_logs":
        full = corpus._render_transcripts(conv_seq, turn_idx, role, 0, n_turns)
        fmt = (conv_seq * 1000003 + turn_idx.astype(np.int64) * 7919
               ) % corpus.N_FORMATS
        props["expected_hit_share"] = float(np.mean(fmt != 5))  # 5 = plain
    elif workload == "prose_chat":
        lens = rng.lognormal(np.log(300), 0.6, n_turns)
        lens[role == "tool"] *= 3.5
        lens = np.clip(lens, 20, 8000).astype(np.int64)
        full = _table(conv_seq, turn_idx, role, _prose(lens, rng),
                      _turn_ts(conv_seq, rng))
        props["expected_hit_share"] = 0.0
    elif workload == "docker_recombine":
        ts_us = _turn_ts(conv_seq, rng)
        piece = _prose(rng.integers(16, 72, n_turns), rng)
        # each fragment closes its record with probability 1/4, and every
        # conversation's last fragment closes its final record
        is_last = rng.random(n_turns) < 0.25
        is_last[np.r_[conv_seq[1:] != conv_seq[:-1], True]] = True
        iso = pc.strftime(pa.array(ts_us, type=pa.timestamp("us")),
                          "%Y-%m-%dT%H:%M:%S", "C")
        stream = np.where((conv_seq + turn_idx) % 3 == 0, "stderr", "stdout")
        text = pc.binary_join_element_wise(
            '{"log":"', pc.utf8_rtrim(piece, " "),
            pa.array(np.where(is_last, "\\n", "")), '","stream":"',
            pa.array(stream), '","time":"', iso, 'Z"}', "")
        full = _table(conv_seq, turn_idx, role, text, ts_us)
        props["expected_hit_share"] = 1.0
        props["records"] = int(is_last.sum())
        props["fragments_per_record"] = n_turns / props["records"]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    bounds = _bounds(conv_seq, rows_per_part)
    parts = [full.slice(a, b - a) for a, b in zip(bounds[:-1], bounds[1:])]
    props["part_files"] = len(parts)
    props["mean_text_bytes"] = pc.sum(
        pc.binary_length(full["text"])).as_py() / n_turns
    return parts, props


def ensure(cache_root: str, workload: str, seed: int, n_turns: int,
           rows_per_part: int) -> "tuple[str, dict]":
    """Write (once) and return the part-file directory and its properties.

    Cached by (workload, seed, size) under ``cache_root``; a directory is
    used only once its ``props.json`` exists, which is written last."""
    key = f"{workload}-s{seed}-n{n_turns}-p{rows_per_part}-v{GEN_VERSION}"
    d = os.path.join(cache_root, key)
    props_path = os.path.join(d, "props.json")
    if os.path.exists(props_path):
        with open(props_path) as f:
            return os.path.join(d, "parts"), json.load(f)
    shutil.rmtree(d, ignore_errors=True)
    parts, props = render(workload, seed, n_turns, rows_per_part)
    os.makedirs(os.path.join(d, "parts"))
    for i, t in enumerate(parts):
        pq.write_table(t, os.path.join(d, "parts", f"part-{i:04d}.parquet"))
    with open(props_path, "w") as f:
        json.dump(props, f, indent=1, sort_keys=True)
    return os.path.join(d, "parts"), props
