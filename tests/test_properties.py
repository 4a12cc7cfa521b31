"""Property-based tests (hypothesis) for the order/state-sensitive kernels —
invariants that fixture corpora can't sweep exhaustively."""

import numpy as np
import pandas as pd
import pyarrow as pa
from hypothesis import given, settings
from hypothesis import strategies as st

from splunk_otel_collector_ray.functions.severity import SEVERITY_NUMBER
from splunk_otel_collector_ray.stages.recombine import (
    frame_lines,
    split_multiline,
    stitch_records,
)


def _shuffled(g: pd.DataFrame, rnd) -> pa.Table:
    """``g`` as an Arrow table in a random row order — the folds must not
    depend on the order rows reach them in."""
    order = list(range(len(g)))
    rnd.shuffle(order)
    return pa.Table.from_pandas(g.iloc[order], preserve_index=False)

frag = st.text(alphabet="abc ", min_size=0, max_size=6)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(frag, st.booleans()), min_size=1, max_size=30),
       st.integers(min_value=1, max_value=3), st.randoms())
def test_stitch_preserves_content_and_boundaries(frags, n_convs, rnd):
    """Concatenation invariant: per conversation, joining the stitched
    records reproduces the joined fragments; every non-final record ends in
    exactly one trailing newline boundary."""
    rows = []
    for i, (body, last) in enumerate(frags):
        conv = f"c{i % n_convs}"
        rows.append((conv, i, body + ("\n" if last else "")))
    g = pd.DataFrame(rows, columns=["conv_id", "turn_idx", "body"])
    out = stitch_records(_shuffled(g, rnd)).to_pandas()
    for conv, sub in g.groupby("conv_id"):
        rec = out[out.conv_id == conv].sort_values("record_id")
        assert "".join(rec.body) == "".join(sub.sort_values("turn_idx").body)
        # all but possibly the last record are complete
        assert rec.is_complete.iloc[:-1].all()
        assert (rec.n_fragments.sum()) == len(sub)


@settings(max_examples=60, deadline=None)
@given(st.lists(
    st.tuples(st.booleans(), st.text(alphabet="xyz ", min_size=1, max_size=8)),
    min_size=1, max_size=20))
def test_split_multiline_roundtrip(lines):
    """Joining the split records reproduces the original text."""
    text = "".join(("REC " if start else "cont ") + body + "\n"
                   for start, body in lines)
    recs = split_multiline(text, r"^REC ")
    assert "".join(recs) == text
    # every record after the first starts at a match
    for r in recs[1:]:
        assert r.startswith("REC ")


@settings(max_examples=60, deadline=None)
@given(st.lists(
    st.tuples(st.booleans(), st.text(alphabet="xyz ", min_size=1, max_size=8)),
    min_size=1, max_size=25),
    st.integers(min_value=1, max_value=3), st.randoms())
def test_multiline_frame_agrees_with_split_multiline(lines, n_convs, rnd):
    """The dataset-level framing kernel must agree with the scalar
    split_multiline on each conversation's joined text (same anchors,
    records joined by newline reproduce the per-conv line stream)."""
    rows = []
    for i, (start, body) in enumerate(lines):
        rows.append((f"c{i % n_convs}", i,
                     ("REC " if start else "cont ") + body))
    g = pd.DataFrame(rows, columns=["conv_id", "turn_idx", "body"])
    out = frame_lines(_shuffled(g, rnd), r"^REC ").to_pandas()
    for conv, sub in g.groupby("conv_id"):
        rec = out[out.conv_id == conv].sort_values("record_id")
        text = "".join(line + "\n" for line in sub.sort_values("turn_idx").body)
        expected = split_multiline(text, r"^REC ")
        # a framed record is the split record minus its final newline
        # (frame joins lines with \n; split keeps each line's terminator)
        assert [r + "\n" for r in rec.body] == expected


def test_severity_table_is_consistent():
    """Every canonical name maps into 1..24, granularity ordering holds."""
    for name, num in SEVERITY_NUMBER.items():
        assert 1 <= num <= 24
    assert SEVERITY_NUMBER["TRACE"] < SEVERITY_NUMBER["DEBUG"] < \
        SEVERITY_NUMBER["INFO"] < SEVERITY_NUMBER["WARN"] < \
        SEVERITY_NUMBER["ERROR"] < SEVERITY_NUMBER["FATAL"]


@settings(max_examples=40, deadline=None)
@given(st.text(alphabet="abcdef.*", min_size=1, max_size=8))
def test_string_filter_negation_is_complement(item):
    from splunk_otel_collector_ray.stages.filters import StringFilter

    vals = pd.Series(["abc", "a.c", "zzz", item if "*" not in item else "q"])
    pos = StringFilter([item]).matches(vals)
    neg = StringFilter(["!" + item]).matches(vals)
    assert (pos ^ neg).all()  # negation is the exact complement per row


@settings(max_examples=80, deadline=None)
@given(st.lists(st.sampled_from(
    ["set(body, ", '"a where b"', '"x"', ")", " where ", "severity_number",
     " == 9", "'it where is'"]), min_size=1, max_size=6))
def test_split_where_never_splits_inside_literals(parts):
    """_split_where must only split on a ' where ' OUTSIDE quotes — for any
    assembled string, the reported clause position is outside literals."""
    from splunk_otel_collector_ray.functions.ottl import _split_where

    s = "".join(parts)
    call_s, cond_s = _split_where(s)
    if cond_s is None:
        assert call_s == s
        return
    assert call_s + " where " + cond_s == s
    # the split point must be at quote-depth zero: count unescaped quotes
    # of each kind before the split — both must be even
    for q in ('"', "'"):
        n = 0
        i = 0
        while i < len(call_s):
            if call_s[i] == "\\":
                i += 2
                continue
            if call_s[i] == q:
                n += 1
            i += 1
        assert n % 2 == 0


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=30), min_size=1,
                max_size=60))
def test_multiline_end_framing_roundtrip(gaps):
    """End-anchored framing: joining the framed records with newlines
    reproduces the line stream, and every record except possibly the last
    ends with an end-match."""
    import re

    lines = [("end;" if g % 3 == 0 else f"line{g}") for g in gaps]
    t = pa.table({"conv_id": ["c"] * len(lines),
                  "turn_idx": list(range(len(lines))), "body": lines})
    out = frame_lines(t, r";$", exclusive=True).to_pandas()
    out = out.sort_values("record_id")
    assert "\n".join(out.body) == "\n".join(lines)
    for rec in out.body.tolist()[:-1]:
        assert re.search(r";$", rec.split("\n")[-1])


# any printable-ish field content, incl. commas, quotes, spaces — newlines
# excluded (the operators are line-scoped by contract)
_csv_field = st.text(
    alphabet=st.characters(blacklist_characters="\n\r",
                           min_codepoint=32, max_codepoint=126),
    max_size=20)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(_csv_field, _csv_field, _csv_field),
                min_size=1, max_size=20))
def test_csv_encode_parse_roundtrip(rows):
    """RFC-4180 encode (always-quote, double inner quotes) → csv_parse
    recovers every field verbatim."""
    import pyarrow as pa

    from splunk_otel_collector_ray.stages.structured import csv_parse

    def enc(f):
        return '"' + f.replace('"', '""') + '"'

    lines = [",".join(enc(f) for f in r) for r in rows]
    out = csv_parse(pa.table({"line": lines}), "line",
                    ["a", "b", "c"]).to_pydict()
    for i, (a, b, c) in enumerate(rows):
        assert (out["a"][i], out["b"][i], out["c"][i]) == (a, b, c)


@settings(max_examples=60, deadline=None)
@given(st.lists(
    st.tuples(st.from_regex(r"[A-Za-z_][0-9A-Za-z_.]{0,8}", fullmatch=True),
              st.from_regex(r"[!-~]{0,12}", fullmatch=True)),
    min_size=1, max_size=12))
def test_kv_encode_explode_roundtrip(pairs):
    """space-joined key=value encoding → kv_explode yields exactly the
    pairs, in order (values are space-free by the operator's grammar)."""
    import pyarrow as pa

    from splunk_otel_collector_ray.stages.structured import kv_explode

    # a '=' inside a VALUE would re-split on parse; the stanza grammar
    # takes the first '=' — normalize values to the parseable alphabet
    pairs = [(k, v.replace("=", "-")) for k, v in pairs]
    line = " ".join(f"{k}={v}" for k, v in pairs)
    out = kv_explode(pa.table({"rid": [0], "line": [line]}),
                     "line", ["rid"]).to_pydict()
    assert list(zip(out["key"], out["value"])) == pairs
