"""ParseStage unit tests — stanza operator-chain semantics on fixed lines.

Pinned against the reference configs (see stages/parse.py citations):
regex/json parse, timestamp layouts, severity mapping tables, move/retain,
router first-match, sanitization EXPR.
"""

import numpy as np
import pandas as pd
import pyarrow as pa

from splunk_otel_collector_ray import corpus
from splunk_otel_collector_ray.stages.parse import FAMILY_ATTR_KEYS, ParseStage


def _parse_lines(lines, ts="2026-03-01T12:00:00"):
    n = len(lines)
    t = pa.table({
        "conv_id": pa.array([f"conv-{i:08d}" for i in range(n)]),
        "turn_idx": pa.array(np.zeros(n, dtype=np.int32)),
        "role": pa.array(["user"] * n),
        "tool": pa.array([""] * n),
        "text": pa.array(lines),
        "ts": pa.array([pd.Timestamp(ts)] * n, type=pa.timestamp("us")),
    })
    return ParseStage()(t).to_pandas()


def test_apache_access():
    line = ('10.1.2.3 - frank [10/Oct/2000:13:55:36 -0700] '
            '"GET /apache_pb.gif HTTP/1.0" 200 2326 "-" "Mozilla"')
    r = _parse_lines([line]).iloc[0]
    assert r.log_format == "apache_access"
    attrs = dict(r.attributes)
    assert attrs["host"] == "10.1.2.3"
    assert attrs["method"] == "GET"
    assert attrs["code"] == "200"
    # %z layout → UTC naive (13:55:36 -0700 == 20:55:36 UTC)
    assert r.ts == pd.Timestamp("2000-10-10 20:55:36")
    assert r.body == line  # no move in the apache-access chain
    assert r.severity_number == 0


def test_apache_error_severity_mapping():
    # custom map: fatal:emerg, error3:alert, error2:crit, info2:notice
    cases = {"emerg": ("FATAL", 21), "alert": ("ERROR3", 19),
             "crit": ("ERROR2", 18), "error": ("ERROR", 17),
             "warn": ("WARN", 13), "notice": ("INFO2", 10),
             "info": ("INFO", 9), "debug": ("DEBUG", 5), "trace1": ("TRACE", 1)}
    lines = [f"[Thu Jun 27 06:58:09 2024] [core:{lvl}] [pid 10:tid 20] boom"
             for lvl in cases]
    df = _parse_lines(lines)
    for (lvl, (txt, num)), (_, row) in zip(cases.items(), df.iterrows()):
        assert row.severity_text == txt, lvl
        assert row.severity_number == num, lvl
        assert row.body == "boom"
        assert dict(row.attributes) == {"module": "core"}
        assert row.ts == pd.Timestamp("2024-06-27 06:58:09")


def test_syslog():
    r = _parse_lines(["Mar 01 06:15:30 web-1 sshd[4321]: session opened"]).iloc[0]
    assert r.log_format == "syslog"
    assert r.body == "session opened"
    assert dict(r.attributes) == {"program": "sshd"}
    # year inferred from the observed (input) ts
    assert r.ts == pd.Timestamp("2026-03-01 06:15:30")


def test_docker_json():
    r = _parse_lines(['{"log":"hello world\\n","stream":"stderr",'
                      '"time":"2024-01-02T03:04:05.123456Z"}']).iloc[0]
    assert r.log_format == "docker"
    assert r.body == "hello world\n"        # move log → body keeps the \n
    assert dict(r.attributes) == {"stream": "stderr"}
    assert r.ts == pd.Timestamp("2024-01-02 03:04:05.123456")


def test_redis_router_first_match():
    # router order: handler pattern first, then server
    # (logs_config_linux.yaml:480-485)
    hnd = "123:signal-handler (1767225687) Received SIGTERM"
    srv = "123:M 01 Jan 2026 00:01:27.005 # Server started"
    df = _parse_lines([hnd, srv])
    assert list(df.log_format) == ["redis_handler", "redis_server"]
    assert df.iloc[0].body == "Received SIGTERM"
    assert df.iloc[0].ts == pd.Timestamp("2026-01-01 00:01:27")  # epoch secs
    assert df.iloc[1].severity_text == "WARN"  # '#' symbol map
    assert df.iloc[1].ts == pd.Timestamp("2026-01-01 00:01:27.005")
    assert dict(df.iloc[1].attributes) == {"redis_role": "M"}


def test_redis_symbol_severities():
    syms = {"#": ("WARN", 13), "*": ("INFO", 9), "-": ("INFO2", 10),
            ".": ("DEBUG", 5)}
    lines = [f"9:M 01 Jan 2026 00:00:00.000 {s} msg" for s in syms]
    df = _parse_lines(lines)
    for (s, (txt, num)), (_, row) in zip(syms.items(), df.iterrows()):
        assert (row.severity_text, row.severity_number) == (txt, num), s


def test_json_level_transform():
    cases = {"DETAIL": "DEBUG", "LOG": "INFO", "SEVERE": "WARN"}
    lines = [f'{{"Level":"{k}","message":"m","time":"2026-01-01T00:00:00"}}'
             for k in cases]
    df = _parse_lines(lines)
    assert list(df.severity_text) == list(cases.values())
    assert all(len(a) == 0 for a in df.attributes)  # delete_key'd


def test_mongodb_structured():
    cases = {"F": ("FATAL", 21), "E": ("ERROR", 17), "W": ("WARN", 13),
             "I": ("INFO", 9), "D1": ("DEBUG", 5), "D2": ("DEBUG2", 6),
             "D3": ("DEBUG3", 7), "D4": ("DEBUG4", 8)}
    lines = ['{"t":{"$date":"2026-02-03T04:05:06.123+00:00"},"s":"%s",'
             '"c":"NETWORK","ctx":"conn7","msg":"hello"}' % lvl
             for lvl in cases]
    df = _parse_lines(lines)
    assert (df.log_format == "mongodb").all()
    for (lvl, (txt, num)), (_, row) in zip(cases.items(), df.iterrows()):
        assert (row.severity_text, row.severity_number) == (txt, num), lvl
        assert row.body == "hello"
        assert dict(row.attributes) == {"ctx": "conn7"}
        assert row.ts == pd.Timestamp("2026-02-03 04:05:06.123")


def test_etcd():
    cases = {"C": "FATAL", "E": "ERROR", "W": "WARN", "N": "INFO2",
             "I": "INFO", "D": "DEBUG", "T": "TRACE"}
    lines = [f"2026-02-03 04:05:06 {lvl} | raft ready" for lvl in cases]
    df = _parse_lines(lines)
    assert (df.log_format == "etcd").all()
    assert df.severity_text.tolist() == list(cases.values())
    assert (df.body == "raft ready").all()
    assert (df.ts == pd.Timestamp("2026-02-03 04:05:06")).all()


def test_pii_sanitization():
    r = _parse_lines(["call 1234-567-8901 now"]).iloc[0]
    assert r.log_format == "pii"
    assert r.body == "call XXX-XXX-XXXX now"


def test_plain_passthrough():
    r = _parse_lines(["just some text"]).iloc[0]
    assert r.log_format == "plain"
    assert r.body == "just some text"
    assert r.severity_number == 0 and r.severity_text == ""
    assert len(r.attributes) == 0


def test_unparseable_ts_falls_back_to_observed():
    r = _parse_lines(["[not a real time] [core:error] [pid 1:tid 2] x"]).iloc[0]
    assert r.log_format == "apache_error"
    assert r.ts == r.observed_ts  # strptime failed → observed-time fallback


def test_detection_matches_generation_arithmetic():
    """Engine regex-router classification == corpus fmt arithmetic, full sf."""
    t = corpus.build_transcripts("sf0.001")
    df = ParseStage()(t).to_pandas()
    conv_seq = df.conv_id.str.slice(5).astype(np.int64)
    fmt = (conv_seq * 1000003 + df.turn_idx * 7919) % corpus.N_FORMATS
    names = {0: "apache_access", 1: "apache_error", 2: "syslog", 3: "docker",
             5: "plain", 6: "pii", 7: "json_level", 8: "docker",
             9: "mongodb", 10: "etcd", 12: "jetty9", 13: "memcached",
             14: "mysql_error", 15: "mysql_query", 16: "mysql_slow",
             17: "nginx_error", 18: "postgresql", 19: "rabbitmq",
             20: "tomcat", 21: "zookeeper", 22: "ncsa_common"}
    exp = np.where(
        fmt == 4,
        np.where(df.turn_idx % 2 == 0, "redis_server", "redis_handler"),
        np.where(
            fmt == 11,
            np.where((conv_seq + df.turn_idx) % 5 == 4, "java_stack",
                     "cassandra"),
            pd.Series(fmt).map(names)))
    assert (df.log_format.to_numpy() == exp).all()


def test_null_empty_and_garbage_text_fall_through_to_plain():
    df = _parse_lines(["", "total garbage \x01\x02", '{"log":"incomplete'])
    # empty + control-char garbage → plain passthrough, no severity, no crash
    assert df.log_format.tolist() == ["plain", "plain", "docker"]
    assert (df.severity_number[:2] == 0).all()
    # docker prefix matched but the record fails the full regex → raw body
    assert df.body.iloc[2] == '{"log":"incomplete'
    t = pa.table({
        "conv_id": ["conv-00000001"], "turn_idx": pa.array([0], type=pa.int32()),
        "role": ["user"], "tool": [""],
        "text": pa.array([None], type=pa.string()),
        "ts": pa.array([pd.Timestamp("2026-01-01")], type=pa.timestamp("us")),
    })
    out = ParseStage()(t).to_pandas()
    assert out.log_format.iloc[0] == "plain" and out.body.iloc[0] == ""


def test_classify_and_classify_fn_take_null_empty_and_garbage_lines():
    """Callers outside ParseStage (logbench's replay,
    scripts/kernel_bench.py, multiline framing) hand ``classify`` the raw
    column: a null line is plain there too, chunked input included."""
    lines = [None, "", "total garbage \x01\x02", "[x", None]
    codes, names = ParseStage.classify(pa.array(lines, type=pa.string()))
    assert [names[c] for c in codes] == [
        "plain", "plain", "plain", "apache_error", "plain"]
    chunked = pa.chunked_array([lines[:2], lines[2:]], type=pa.string())
    assert ParseStage.classify(chunked)[0].tolist() == codes.tolist()
    out = ParseStage.classify_fn()(pa.table({"text": chunked}))
    assert out.column("log_format").to_pylist() == [
        "plain", "plain", "plain", "apache_error", "plain"]
    assert out.column("text").to_pylist() == lines  # input kept as is


def test_span_ids_only_for_tool_calls():
    t = corpus.build_transcripts("sf0.001")
    df = ParseStage()(t).to_pandas()
    has = df.span_id != ""
    assert ((df.role == "tool") & (df.tool != "")).equals(has)
    assert df.loc[has, "span_id"].str.len().eq(16).all()


def test_span_id_empty_for_null_conv_id_or_turn_idx():
    """A tool-call turn with a null conv_id or turn_idx has no id to
    derive: its span is "", not the int64-min garbage of a NaN cast."""
    import warnings

    t = pa.table({
        "conv_id": ["conv-00000123", None, "conv-00000002"],
        "turn_idx": pa.array([1, 2, None], type=pa.int32()),
        "role": ["tool"] * 3, "tool": ["bash"] * 3,
        "text": ["ls", "ls", "ls"],
        "ts": pa.array([pd.Timestamp("2026-03-01")] * 3,
                       type=pa.timestamp("us")),
    })
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = ParseStage()(t)
    assert out["span_id"].to_pylist() == [f"{123 * 100_000 + 1:016x}", "", ""]


def test_passthrough_columns_survive():
    t = corpus.build_transcripts("sf0.001").slice(0, 100)
    t = t.append_column("part", pa.array(["p0"] * 100))
    out = ParseStage()(t)
    assert "part" in out.column_names


def test_family_attr_keys_retained_only():
    t = corpus.build_transcripts("sf0.001")
    df = ParseStage()(t).to_pandas()
    for fam, keys in FAMILY_ATTR_KEYS.items():
        sub = df[df.log_format == fam]
        if len(sub):
            assert all(sorted(dict(a)) == sorted(keys) for a in sub.attributes.head(20))


def test_csv_parse_quoting_and_malformed():
    import pyarrow as pa

    from splunk_otel_collector_ray.stages.structured import csv_parse

    t = pa.table({"line": [
        'a,b,c',                      # plain
        '1,"x, y",z',                 # quoted field with delimiter inside
        '2,"he said ""hi""",w',       # doubled-quote escape
        'only,two',                   # malformed: too few fields → ''
        ',,',                         # empty fields
    ]})
    out = csv_parse(t, "line", ["f", "g", "h"]).to_pydict()
    assert out["f"] == ["a", "1", "2", "", ""]
    assert out["g"] == ["b", "x, y", 'he said "hi"', "", ""]
    assert out["h"] == ["c", "z", "w", "", ""]


def test_uri_parse_components():
    import pyarrow as pa

    from splunk_otel_collector_ray.stages.structured import uri_parse

    t = pa.table({"u": [
        "https://example.com:8443/a/b?x=1&y=2#frag",
        "http://example.org/",
        "ftp://files.example.net",
        "not a uri",
    ]})
    out = uri_parse(t, "u").to_pydict()
    assert out["scheme"] == ["https", "http", "ftp", ""]
    assert out["host"] == ["example.com", "example.org", "files.example.net",
                           ""]
    assert out["port"] == ["8443", "", "", ""]
    assert out["path"] == ["/a/b", "/", "", ""]
    assert out["query"] == ["x=1&y=2", "", "", ""]
    assert out["fragment"] == ["frag", "", "", ""]


def test_kv_explode_first_delimiter_and_ids():
    import pyarrow as pa

    from splunk_otel_collector_ray.stages.structured import kv_explode

    t = pa.table({"rid": [10, 11], "line": [
        "a=1 b=two c=",          # empty value kept
        "nopairs here",          # no matches → contributes no rows
    ]})
    out = kv_explode(t, "line", ["rid"]).to_pydict()
    assert out["rid"] == [10, 10, 10]
    assert out["key"] == ["a", "b", "c"]
    assert out["value"] == ["1", "two", ""]


def test_json_array_parse_flat_subset():
    import pyarrow as pa

    from splunk_otel_collector_ray.stages.structured import json_array_parse

    t = pa.table({"line": [
        '[7, "purchase", 12]',
        '[8, "with, comma", 0]',
        '[9, "esc \\" quote", 1]',
        "not an array",
    ]})
    out = json_array_parse(t, "line", ["a", "b", "c"]).to_pydict()
    assert out["a"] == ["7", "8", "9", ""]
    assert out["b"] == ["purchase", "with, comma", 'esc \\" quote', ""]
    assert out["c"] == ["12", "0", "1", ""]


def _us(ts: pd.Series) -> pa.Array:
    """A pandas datetime Series as the stage keeps it: timestamp[us], NaT
    as null."""
    return pa.array(ts.to_numpy().astype("datetime64[us]"),
                    type=pa.timestamp("us"))


def test_numeric_strptime_matches_pandas_coerce():
    """The Arrow numeric-layout strptime must equal (in µs, the stage's
    unit) pd.to_datetime(format=..., errors='coerce') — including the
    reject-on-trailing-garbage rule, pandas' ISO fractions (any number of
    digits, even none, and 1-9 before the trailing-Z layout's Z),
    empty/null/garbage rows, and years at and past datetime64[ns]'s ends
    (NaT, not an overflow)."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa

    from splunk_otel_collector_ray.stages.parse import _parse_time

    cases = {
        "%Y-%m-%d %H:%M:%S": [
            "2026-01-05 13:04:05", "2026-1-5 13:04:05", "", None,
            "2026-01-05 13:04:05 extra", "garbage", "2026-13-40 99:99:99",
            "2262-04-11 23:47:16", "2262-04-12 00:00:00",
            "1677-09-21 00:12:44", "9999-01-05 13:04:05"],
        "%Y/%m/%d %H:%M:%S": ["2026/01/05 13:04:05", "", None, "x"],
        "%y%m%d %H:%M:%S": ["260105 13:04:05", "", None, "26010 13:04:05"],
        "%Y-%m-%d %H:%M:%S.%f": [
            "2026-01-05 13:04:05.123", "2026-01-05 13:04:05.123456",
            "2026-01-05 13:04:05.1", "2026-01-05 13:04:05",
            "2026-01-05 13:04:05.", "2026-01-05 13:04:05.1234567",
            "", None, "junk", "2026-01-05 13:04:05.12Z"],
        "%Y-%m-%dT%H:%M:%S.%fZ": [
            "2026-01-05T13:04:05.123Z", "2026-01-05T13:04:05.123456Z",
            "2026-01-05T13:04:05.1Z", "2026-01-05T13:04:05.123",
            "2026-01-05T13:04:05.Z", "", None, "junk",
            "2026-01-05T13:04:05.1234567Z",
            "2026-01-05T13:04:05.123456789Z",
            "2026-01-05T13:04:05.1234567890Z", "2026-01-05T13:04:05Z",
            "9999-01-05T13:04:05.123Z"],
    }
    for fmt, vals in cases.items():
        raw = pd.Series(np.array(vals, dtype=object),
                        dtype=object).fillna("").astype(str)
        new = _parse_time(pa.array(raw, type=pa.string()), fmt)
        old = _us(pd.to_datetime(raw, format=fmt, errors="coerce"))
        assert new.equals(old), (fmt, new, old)


def _pandas_construction(s: pd.Series, layout: str) -> pd.Series:
    """The reference for ``_FAST_LAYOUTS``: the slice construction the
    stage ran in pandas before its Arrow path, then pandas' own strptime
    on every row it left NaT."""
    s = s.fillna("").astype(str)
    s.index = pd.RangeIndex(len(s))
    months = {m: f"{i:02d}" for i, m in enumerate(
        ["Jan", "Feb", "Mar", "Apr", "May", "Jun",
         "Jul", "Aug", "Sep", "Oct", "Nov", "Dec"], 1)}

    def mon(a: int, b: int) -> pd.Series:
        return s.str.slice(a, b).map(months)

    def iso(y, m, d, hms) -> pd.Series:
        return (s.str.slice(*y) + "-" + mon(*m) + "-" + s.str.slice(*d)
                + " " + s.str.slice(*hms))

    def num(a: int, b: int) -> pd.Series:
        return pd.to_numeric(s.str.slice(a, b), errors="coerce")

    sec = "%Y-%m-%d %H:%M:%S"
    if layout == "%d/%b/%Y:%H:%M:%S %z":
        out = pd.to_datetime(iso((7, 11), (3, 6), (0, 2), (12, 20)),
                             format=sec, errors="coerce")
        sign = np.where(s.str.slice(21, 22) == "-", -1, 1)
        out = out - pd.to_timedelta(
            sign * (num(22, 24) * 60 + num(24, 26)), unit="m")
    elif layout == "%a %b %d %H:%M:%S %Y":
        out = pd.to_datetime(iso((20, 24), (4, 7), (8, 10), (11, 19)),
                             format=sec, errors="coerce")
    elif layout == "%d %b %Y %H:%M:%S.%f":
        out = pd.to_datetime(iso((7, 11), (3, 6), (0, 2), (12, None)),
                             format=sec + ".%f", errors="coerce")
    elif layout == "%d-%b-%Y %H:%M:%S":
        out = pd.to_datetime(iso((7, 11), (3, 6), (0, 2), (12, 20)),
                             format=sec, errors="coerce")
    elif layout == "%Y %b %d %H:%M:%S":  # syslog: pandas' strptime itself
        out = pd.to_datetime(s, format=layout, errors="coerce")
    else:  # mongodb's ISO layout: likewise, to UTC
        out = pd.to_datetime(s, format=layout, errors="coerce",
                             utc=True).dt.tz_localize(None)
    bad = out.isna() & (s != "")
    if bad.any():
        slow = pd.to_datetime(s[bad], format=layout, errors="coerce",
                              utc="%z" in layout)
        if getattr(slow.dt, "tz", None) is not None:
            slow = slow.dt.tz_convert("UTC").dt.tz_localize(None)
        out = out.copy()
        out[bad] = slow
    return out


def test_fast_strptime_matches_pandas_construction():
    """The Arrow %b-month fast path must equal the historical pandas
    slice construction (``_pandas_construction``) on padded, non-padded,
    empty, null and garbage, on days the month lacks (which the kernel
    would roll over), on years past datetime64[ns], on a non-digit zone
    offset (a mis-shaped slice nulls only its own row) and — for syslog's
    year-pinned layout — on everything pandas' own strptime accepts
    beyond the sliced shape."""
    from splunk_otel_collector_ray.stages.parse import _parse_time

    cases = {
        "%d/%b/%Y:%H:%M:%S %z": [
            "01/Jan/2026:00:00:01 +0000", "15/Mar/2026:23:59:59 -0530",
            "1/Jan/2026:00:00:01 +0000", "", "garbage", None,
            "31/Dec/2025:12:00:00 +1400", "30/Feb/2026:00:00:00 +0000",
            "29/Feb/2024:00:00:00 +0000", "01/Jan/9999:00:00:00 +0000",
            "01/Jan/2026:00:00:01 +00x0"],
        "%a %b %d %H:%M:%S %Y": [
            "Mon Jan 05 13:04:05 2026", "Tue Feb 17 00:00:00 2026",
            "Mon Jan  5 13:04:05 2026", "", None, "xx",
            "Mon Apr 31 13:04:05 2026"],
        "%d %b %Y %H:%M:%S.%f": [
            "05 Jan 2026 13:04:05.123", "17 Feb 2026 00:00:00.1",
            "05 Jan 2026 13:04:05.123456", "", None, "junk",
            "05 Jan 2026 13:04:05.12x"],
        "%d-%b-%Y %H:%M:%S": [
            "05-Jan-2026 13:04:05", "17-Feb-2026 00:00:00", "", None, "no"],
        "%Y %b %d %H:%M:%S": [
            "2026 Mar 01 06:15:30", "2026 Mar  1 06:15:30",
            "2026 Mar 1 06:15:30", "2026 mar 01 06:15:30",
            "2026 Mar 01 06:15:60", "2026 Mar 01 6:15:30",
            "2026 Feb 29 06:15:30", "2024 Feb 29 06:15:30",
            "2026 Mar 01 06:15:30 ", "2026 Mar 01", "", None,
            "3000 Mar 01 06:15:30", "-9223372036854773838 Mar 01 06:15:30"],
        "%Y-%m-%dT%H:%M:%S.%f%z": [
            "2026-01-01T00:05:24.021+00:00", "2026-01-01T00:05:24.021-05:30",
            "2026-01-01T23:59:59.999+14:00", "2026-01-01T00:05:24.021Z",
            "2026-01-01T00:05:24.021+0000", "2026-01-01T00:05:24.1+00:00",
            "2026-01-01T00:05:24.021123+00:00",
            "2026-02-30T00:05:24.021+00:00",
            "2026-01-01T00:05:60.021+00:00", "2026-01-01T00:05:24.021+24:00",
            "9999-01-01T00:00:00.000+00:00", "", None, "junk"],
    }
    for layout, vals in cases.items():
        new = _parse_time(pa.array(vals, type=pa.string()), layout)
        old = _us(_pandas_construction(
            pd.Series(np.array(vals, dtype=object), dtype=object), layout))
        assert new.equals(old), (layout, new, old)


def test_assembly_edge_cases_interleaved():
    """One batch, rows of eight families interleaved: every severity
    table gets an unknown token and a failed extraction (null token), both
    ("", 0); failed extractions keep the raw body and the observed ts;
    null attribute values become ""; tool rows carry a span id only when
    the tool is named."""
    obs = pd.Timestamp("2026-05-05 12:00:00")
    at = pd.Timestamp("2026-03-01 06:15:30")
    # (text, role, tool) → (format, sev, num, body, attrs, span, ts)
    rows = [
        (("[Thu Jun 27 06:58:09 2024] [core:bogus] [pid 10:tid 20] boom",
          "user", ""),
         ("apache_error", "", 0, "boom", {"module": "core"}, "",
          pd.Timestamp("2024-06-27 06:58:09"))),
        (("2026-03-01 06:15:30 Q | a\nb", "user", ""),
         ("etcd", "", 0, "2026-03-01 06:15:30 Q | a\nb", {}, "", obs)),
        (("2026-03-01 06:15:30 - BOGUS [main:Foo@12] - hi", "user", ""),
         ("zookeeper", "", 0, "hi", {"thread": "main", "class": "Foo"}, "",
          at)),
        (('{"Level":oops}', "user", ""),
         ("json_level", "", 0, '{"Level":oops}', {}, "", obs)),
        (("12:M 01 Mar 2026 06:15:30.123 ? hello", "user", ""),
         ("redis_server", "", 0, "hello", {"redis_role": "M"}, "",
          pd.Timestamp("2026-03-01 06:15:30.123"))),
        (("Mar 01 06:15:30 web-1 sshd[4321]: session opened", "tool", "bash"),
         ("syslog", "", 0, "session opened", {"program": "sshd"},
          "000000000007a152", at)),
        (('{"t":oops}', "user", ""),
         ("mongodb", "", 0, '{"t":oops}', {"ctx": ""}, "", obs)),
        (("[garbage", "user", ""),
         ("apache_error", "", 0, "[garbage", {"module": ""}, "", obs)),
        (('{"t":{"$date":"2026-03-01T06:15:30.000+00:00"},"s":"X9",'
          '"c":"NETWORK","ctx":"conn1","msg":"hi"}', "user", ""),
         ("mongodb", "", 0, "hi", {"ctx": "conn1"}, "", at)),
        (("just text", "tool", ""),
         ("plain", "", 0, "just text", {}, "", obs)),
        (("2026-03-01 06:15:30 Q | hi", "user", ""),
         ("etcd", "", 0, "hi", {}, "", at)),
        (("12:M x", "user", ""),
         ("redis_server", "", 0, "12:M x", {"redis_role": ""}, "", obs)),
        (('{"Level":"NOPE","message":"m","time":"t"}', "user", ""),
         ("json_level", "", 0, '{"Level":"NOPE","message":"m","time":"t"}',
          {}, "", obs)),
        (('127.0.0.1 - frank [10/Oct/2000:13:55:36 -0700] '
          '"GET /a.gif HTTP/1.0" 200 2326', "tool", "grep"),
         ("ncsa_common", "", 0,
          '127.0.0.1 - frank [10/Oct/2000:13:55:36 -0700] '
          '"GET /a.gif HTTP/1.0" 200 2326',
          {"host": "127.0.0.1", "remote_logname": "-", "user": "frank",
           "method": "GET", "path": "/a.gif", "protocol": "HTTP/1.0",
           "code": "200", "size": "2326"}, "000000000013d6a2",
          pd.Timestamp("2000-10-10 20:55:36"))),
        (("2026-03-01 06:15:30 - INFO [oops", "user", ""),
         ("zookeeper", "", 0, "2026-03-01 06:15:30 - INFO [oops",
          {"thread": "", "class": ""}, "", obs)),
        (("2026-03-01 06:15:30 W | warned", "user", ""),
         ("etcd", "WARN", 13, "warned", {}, "", at)),
    ]
    n = len(rows)
    t = pa.table({
        "conv_id": pa.array([f"conv-{i:08d}" for i in range(n)]),
        "turn_idx": pa.array(np.arange(n, dtype=np.int32) * 10),
        "role": pa.array([r[0][1] for r in rows]),
        "tool": pa.array([r[0][2] for r in rows]),
        "text": pa.array([r[0][0] for r in rows]),
        "ts": pa.array([obs] * n, type=pa.timestamp("us")),
    })
    df = ParseStage()(t).to_pandas()
    for (_, want), (_, r) in zip(rows, df.iterrows()):
        got = (r.log_format, r.severity_text, r.severity_number, r.body,
               dict(r.attributes), r.span_id, r.ts)
        assert got == want

    empty = ParseStage()(t.slice(0, 0))
    assert empty.num_rows == 0
    assert empty.schema.field("severity_number").type == pa.int8()
    assert empty.schema.field("attributes").type == pa.map_(
        pa.string(), pa.string())
    assert empty.schema.field("span_id").type == pa.string()


def test_epoch_seconds_matches_pandas_coerce():
    """redis_handler's epoch layout: the Arrow cast must equal pandas'
    to_numeric → to_datetime(unit="s") on short, zero-padded, last-ns,
    overflowing and null digit strings."""
    from splunk_otel_collector_ray.stages.parse import _epoch_seconds

    vals = ["1767225870", "0", "9223372036", "9223372037", "00000000000001",
            "12345678901", None]
    new = _epoch_seconds(pa.array(vals, type=pa.string()))
    old = pd.to_datetime(pd.to_numeric(pd.Series(np.array(vals, dtype=object)),
                                       errors="coerce"),
                         unit="s", errors="coerce")
    assert new.equals(_us(old))


def test_redis_handler_epoch_past_int64_keeps_observed_ts():
    """An epoch of 2**64 and more (pandas overflows converting it) is a
    failed ts: the row keeps its observed ts, and the batch its other
    rows; a zero-padded epoch still parses, to its exact value (pandas'
    to_numeric reads "0" * 14 + "1767225870" as 1760000000)."""
    df = _parse_lines([
        "1:signal-handler (18446744073709551616) x",
        "1:signal-handler (" + "9" * 40 + ") y",
        "1:signal-handler (" + "0" * 14 + "1767225870) z",
        "1:signal-handler (1767225870) w"])
    assert df.log_format.tolist() == ["redis_handler"] * 4
    assert df.body.tolist() == ["x", "y", "z", "w"]
    assert df.ts.tolist() == [pd.Timestamp("2026-03-01T12:00:00")] * 2 + [
        pd.Timestamp("2026-01-01 00:04:30")] * 2


def _groups_read(family: str) -> set[str]:
    """The RX groups the stage reads for a family: ``time`` with a layout,
    ``level`` with a severity table, the body group — or the groups a body
    function looks up — and the FAMILY_ATTR_KEYS groups."""
    from splunk_otel_collector_ray.stages.parse import PLAN

    layout, levels, _, body = PLAN[family]
    read = {"role" if k == "redis_role" else k
            for k in FAMILY_ATTR_KEYS[family]}
    read |= {"time"} if layout is not None else set()
    read |= {"level"} if levels is not None else set()

    class Probe(dict):  # records the fields a body function looks up
        def __getitem__(self, name: str) -> pa.Array:
            read.add(name)
            return pa.array([""], type=pa.string())

    if isinstance(body, str):
        read.add(body)
    elif body is not None:
        body(Probe())
    return read


def test_plan_tables_agree():
    """The family tables agree: each PLAN row reads only groups its RX
    pattern has (`time` with a layout, `level` with a severity table, the
    body group when the body is a group name); each layout is "epoch", a
    fast layout or fixed-width numeric; each FAMILY_ATTR_KEYS key is an
    RX group (redis_role reads `role`); the router names every family.
    Every RX family has a TWIN whose pieces are anchored, hold at most 4
    capture groups (RE2's one-pass limit), name only RX groups, and
    together capture exactly the groups the stage reads, but for a time
    the twin slices."""
    import re

    from splunk_otel_collector_ray.stages.parse import (
        _FAST_LAYOUTS, DETECT, PLAN, RX, TWIN)

    numeric = re.compile(r"(%[YymdHMS]|[-/: T])+(\.%f)?Z?")
    assert set(PLAN) == set(RX) == set(TWIN)
    for family, (layout, levels, _, body) in PLAN.items():
        groups = re.compile(RX[family]).groupindex
        if layout is not None:
            assert "time" in groups, family
            assert (layout == "epoch" or layout in _FAST_LAYOUTS
                    or numeric.fullmatch(layout)), (family, layout)
        if levels is not None:
            assert "level" in groups, family
        if isinstance(body, str):
            assert body in groups, family
        twin = TWIN[family]
        covered = {"time"} if twin.time_width else set()
        for piece in twin.pieces:
            names = re.compile(piece).groupindex
            assert piece.startswith("^") and piece.endswith(("$", " ", '"'))
            assert re.compile(piece).groups == len(names) <= 4, (family,
                                                                  piece)
            assert set(names) <= set(groups), (family, piece)
            assert not covered & set(names), (family, piece)
            covered |= set(names)
        assert covered == _groups_read(family), family
    for family, keys in FAMILY_ATTR_KEYS.items():
        for k in keys:
            assert ("role" if k == "redis_role" else k) in re.compile(
                RX[family]).groupindex, (family, k)
    assert set(FAMILY_ATTR_KEYS) == {name for name, _, _ in DETECT} | {
        "plain"}


def test_conv_number_names_a_bad_conv_id_in_parse_and_enrich():
    """parse's span ids and enrich's dim bucket read the conv number
    through one helper: a conv_id without an int64 suffix raises a
    ValueError naming conv_id and the first bad value (not a bare Arrow
    cast error); a null conv_id keeps its "" span and null dims."""
    import re

    import pytest

    from splunk_otel_collector_ray.stages.enrich import EnrichStage

    def batch(conv_ids: list) -> pa.Table:
        n = len(conv_ids)
        return pa.table({
            "conv_id": pa.array(conv_ids, type=pa.string()),
            "turn_idx": pa.array(np.arange(n, dtype=np.int32)),
            "role": ["tool"] * n, "tool": ["bash"] * n, "text": ["ls"] * n,
            "ts": pa.array([pd.Timestamp("2026-03-01")] * n,
                           type=pa.timestamp("us")),
        })

    for bad in ["abc", "conv-", "conv-" + "1" * 24, "conv-12x"]:
        t = batch(["conv-00000001", None, bad, "conv-"])
        want = re.escape(f"conv_id {bad!r}")
        with pytest.raises(ValueError, match=want):
            ParseStage()(t)
        with pytest.raises(ValueError, match=want):
            EnrichStage()(t.append_column(
                "log_format", pa.array(["plain"] * t.num_rows)))

    out = ParseStage()(batch(["conv-00000065", None]))
    assert out["span_id"].to_pylist() == [f"{65 * 100_000:016x}", ""]
    enriched = EnrichStage()(out)
    assert enriched["host.name"].to_pylist() == ["host-1", None]


def _family_lines() -> dict[str, str]:
    """One real line of every family the router names (plain included)."""
    text = corpus.build_transcripts("sf0.001")["text"]
    codes, names = ParseStage.classify(text)
    return {name: text[int(np.flatnonzero(codes == code)[0])].as_py()
            for code, name in enumerate(names)}


def test_large_string_text_parses_as_string():
    """A ``large_string`` text column (a part file's own string type)
    parses to the table the ``string`` column gives, for every family;
    syslog's year pin used to raise on it."""
    t = corpus.build_transcripts("sf0.001")
    big = t.set_column(t.column_names.index("text"), "text",
                       t["text"].cast(pa.large_string()))
    out = ParseStage()(t)
    assert set(out["log_format"].to_pylist()) == set(_family_lines())
    assert ParseStage()(big).equals(out)


def test_hostile_rows_equal_the_shipped_patterns():
    """Per family, a 1 MB line, a '\\n' inside the line and a syslog row
    with a null ts: nothing raises, and the stage's output equals a
    reference whose extraction runs only the shipped RX patterns."""
    import pyarrow.compute as pc

    from splunk_otel_collector_ray.stages.parse import RX

    lines = []
    for line in _family_lines().values():
        mid = len(line) // 2
        lines += [line + " " + "y" * 2**20, line[:mid] + "y" * 2**20
                  + line[mid:], line[:mid] + "\n" + line[mid:],
                  line + "\nnext", "\n" + line]
    n = len(lines)
    syslog = _family_lines()["syslog"]
    lines.append(syslog)
    ts = [pd.Timestamp("2026-03-01")] * n + [None]
    t = pa.table({
        "conv_id": pa.array([f"conv-{i:08d}" for i in range(n + 1)]),
        "turn_idx": pa.array(np.arange(n + 1, dtype=np.int32)),
        "role": ["tool", "user"] * (n // 2) + ["tool"] * (n % 2 + 1),
        "tool": ["bash"] * (n + 1),
        "text": pa.array(lines),
        "ts": pa.array(ts, type=pa.timestamp("us")),
    })
    out = ParseStage()(t)

    class Shipped(ParseStage):
        @classmethod
        def extract(cls, family, sub):
            return cls._fields(pc.extract_regex(sub, RX[family]))

    assert out.equals(Shipped()(t))
    assert out["log_format"][n].as_py() == "syslog"
    assert out["ts"][n].as_py() is None
    assert out["body"][n].as_py() == syslog.split(": ", 1)[1]


def test_invalid_utf8_is_refused_by_name():
    """A string column the stage reads or passes through (text, conv_id,
    role, tool) that holds invalid UTF-8 fails the batch with a
    ``ValueError`` naming the column and its first bad row; a valid batch
    of either string type parses as before."""
    import pytest

    t = corpus.build_transcripts("sf0.001").slice(0, 50)
    out = ParseStage()(t)
    for name in ("text", "conv_id", "role", "tool"):
        for raw, typ in ((pa.binary(), pa.string()),
                         (pa.large_binary(), pa.large_string())):
            vals = t[name].cast(pa.binary()).to_pylist()
            vals[7] = b"\xff\xfe bad"
            vals[9] = b"\xc3"
            bad = pa.array(vals, type=raw).view(typ)
            with pytest.raises(ValueError, match=rf"column '{name}' holds "
                               r"invalid UTF-8 at row 7: b'\\xff\\xfe bad'"):
                ParseStage()(t.set_column(t.column_names.index(name), name,
                                          bad))
    ok = t.set_column(t.column_names.index("tool"), "tool",
                      t["tool"].cast(pa.large_string()))
    assert ParseStage()(ok).drop_columns(["tool"]).equals(
        out.drop_columns(["tool"]))


def test_well_formed_lines_never_reach_pandas(monkeypatch):
    """Timestamps are Arrow-only: with pd.to_datetime raising, and every
    pandas call in the parse module, generator lines of every family
    parse. Rows the slicing cannot prove — a
    space-padded day, a day the month lacks — still reach pandas'
    strptime, with the values the stage always gave them."""
    from splunk_otel_collector_ray.stages import parse

    t = corpus.build_transcripts("sf0.001")
    families = set(_family_lines())
    to_datetime = pd.to_datetime

    def boom(*args, **kwargs):
        raise AssertionError("a well-formed time reached pandas")

    class NoPandas:  # the parse module's `pd`, for this first pass
        def __getattr__(self, name):
            boom()

    monkeypatch.setattr(pd, "to_datetime", boom)
    monkeypatch.setattr(parse, "pd", NoPandas())
    out = ParseStage()(t)
    assert set(out["log_format"].to_pylist()) == families
    assert out["ts"].null_count == 0
    monkeypatch.undo()

    seen: list = []

    def spy(arg, *args, **kwargs):
        seen.extend(arg.tolist())
        return to_datetime(arg, *args, **kwargs)

    monkeypatch.setattr(pd, "to_datetime", spy)
    obs = pd.Timestamp("2026-03-01T12:00:00")
    df = _parse_lines([
        "[Thu Jan  1 00:02:43 2026] [core:alert] [pid 1:tid 1] x",
        '10.0.0.1 - u [30/Feb/2026:00:00:01 +0000] "GET / HTTP/1.1" 200 5',
        "30-Feb-2026 00:04:01 WARNING [main] org.Foo.start x",
        "Feb 30 06:15:30 host-0 sshd[1]: x",
        "Mar  1 06:15:30 host-0 sshd[1]: x",
        "1:M 30 Feb 2026 00:10:12.040 # x"])
    assert df.log_format.tolist() == [
        "apache_error", "ncsa_common", "tomcat", "syslog", "syslog",
        "redis_server"]
    assert df.ts.tolist() == [pd.Timestamp("2026-01-01 00:02:43"), obs, obs,
                              obs, pd.Timestamp("2026-03-01 06:15:30"), obs]
    assert {"Thu Jan  1 00:02:43 2026", "30/Feb/2026:00:00:01 +0000",
            "30-Feb-2026 00:04:01", "2026 Feb 30 06:15:30",
            "30 Feb 2026 00:10:12.040"} <= set(seen)
