"""Deterministic synthetic transcript corpus (FIXTURES.md §1/§3).

The engine's primary input (BASELINE.json ``input_hint``) is a Parquet table of
multi-turn conversation/agent transcripts:

    (conv_id: string, turn_idx: int32, role: string,
     text: string, tool: string, ts: timestamp[us])

This module synthesizes it deterministically (pure function of the scale
name), fully vectorized with numpy/pandas, and writes it under
``/tmp/graft_fixtures/<sf>/transcripts.parquet``. The ``text`` payloads are
drawn from the log-format families whose parse semantics the reference pins
(citations into /root/reference):

  fmt 0  apache access   logs_config_linux.yaml:50-54      (NCSA combined)
  fmt 1  apache error    logs_config_linux.yaml:66-84      (%c ts + level map)
  fmt 2  syslog          logs_config_linux.yaml:520-535    (%b %e %H:%M:%S)
  fmt 3  docker json     logs_config_linux.yaml:155-171    (json_parser + move)
  fmt 4  redis           logs_config_linux.yaml:476-516    (router, 2 subformats)
  fmt 5  plain           logs_config_linux.yaml:267-272    (no operators)
  fmt 6  PII             examples/otel-logs-sanitization-splunk/otel-collector-config.yml:5-12
  fmt 7  json Level      examples/otel-logs-severity-splunk/otel-collector-config.yml:33-44
  fmt 8  continuation    examples/recombine/otel-collector-config.yml:9-23
  fmt 9  mongodb json    logs_config_linux.yaml:275-300    (t.$date ts, s map)
  fmt 10 etcd            logs_config_linux.yaml:177-200    (letter levels, |)
  fmt 11 cassandra       logs_config_linux.yaml:93-118     (+ java stack lines
                         exercising the multiline line_start framing :95-97;
                         every 5th turn is a `\tat …`/`Caused by:` fragment)
  fmt 12 jetty9          logs_config_linux.yaml:212-231    (%L ms ts)
  fmt 13 memcached       logs_config_linux.yaml:268-274    (no operators)
  fmt 14 mysql error     logs_config_linux.yaml:310-331    (default level map)
  fmt 15 mysql query     logs_config_linux.yaml:337-361    (%y%m%d ts, router)
  fmt 16 mysql slow      logs_config_linux.yaml:365-375    (`# Time:` multiline
                         framing only, no operators; 3-line record cycle)
  fmt 17 nginx error     logs_config_linux.yaml:390-415    (apache level map)
  fmt 18 postgresql      logs_config_linux.yaml:417-435    (%L %Z ts)
  fmt 19 rabbitmq        logs_config_linux.yaml:437-459    (erlang pid)
  fmt 20 tomcat          logs_config_linux.yaml:541-564    (%d-%b-%Y ts, JULI)
  fmt 21 zookeeper       logs_config_linux.yaml:606-628    (log4j @line)
  fmt 22 NCSA common     logs_config_linux.yaml:255-266    (jetty9-request /
                         tomcat access: NCSA without referer/agent)

Determinism contract (shared with the DuckDB oracle in __ray_entry__.py):

- conversations are ``conv-%08d`` for i in 0..n_convs-1; the first
  ``n_hot ≈ 1%`` conversations are "hot" and own ~30% of all turns
  (Zipf-ish skew that exercises salted repartition);
- ``fmt(row) = (conv_seq * 1000003 + turn_idx * 7919) % 11`` where
  ``conv_seq = int(conv_id[5:])`` — SQL-expressible, and unit-tested to agree
  with the engine's regex-router format detection;
- ``ts = BASE + conv_seq*60s + cumsum(1 + mix % 29)s + (gidx % 997)ms`` where
  the per-turn delta mix is taken from a seeded rng — in-order per conv.

Skew knob: ~1% of conv_ids own ~30% of turns (FIXTURES.md §1).
"""

from __future__ import annotations

import os
import shutil
import tempfile
from collections.abc import Callable

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

FIXTURE_ROOT = "/tmp/graft_fixtures"
BASE_EPOCH_US = 1_767_225_600_000_000  # 2026-01-01T00:00:00Z
N_FORMATS = 23
TURNS_PER_SF = 10_000_000  # sf0.001 → 10k turns, sf0.01 → 100k, sf0.1 → 1M

ROLES = np.array(["user", "assistant", "system", "tool"])
ROLE_W = np.array([0.35, 0.35, 0.10, 0.20])
TOOLS = np.array(["bash", "search", "browser", "editor"])
VERBS = np.array(["open", "close", "flush", "retry", "load", "sync", "drop", "scan"])
NOUNS = np.array(["socket", "buffer", "index", "shard", "segment", "cache", "queue", "page"])
METHODS = np.array(["GET", "GET", "GET", "POST", "PUT", "DELETE"])
CODES = np.array([200, 200, 200, 301, 404, 500, 503])
APACHE_MODULES = np.array(["core", "mpm_prefork", "ssl", "rewrite"])
# cycle through the full level vocabulary so every severity appears
APACHE_LEVELS = np.array(
    ["emerg", "alert", "crit", "error", "warn", "notice", "info", "debug", "trace1"]
)
SYSLOG_PROGRAMS = np.array(["sshd", "cron", "systemd", "kernel", "nginx"])
REDIS_SYMS = np.array(["#", "*", "-", "."])
REDIS_ROLES = np.array(["M", "C", "S"])
JSON_LEVELS = np.array(["DETAIL", "LOG", "SEVERE"])
STREAMS = np.array(["stdout", "stderr"])
MONGO_LEVELS = np.array(["F", "E", "W", "I", "D1", "D2", "D3", "D4"])
MONGO_COMPONENTS = np.array(["NETWORK", "STORAGE", "COMMAND", "REPL"])
ETCD_LEVELS = np.array(["C", "E", "W", "N", "I", "D", "T"])
CASSANDRA_LEVELS = np.array(["INFO", "WARN", "ERROR", "DEBUG", "TRACE"])
CASSANDRA_THREADS = np.array(
    ["main", "ReadStage:1", "MutationStage:2", "GossipStage:1"])
CASSANDRA_FILES = np.array(
    ["CassandraDaemon", "StorageService", "ColumnFamilyStore"])
JETTY_LEVELS = np.array(["INFO", "WARN", "DEBUG"])
JETTY_CLASSES = np.array(
    ["org.eclipse.jetty.server.Server", "org.eclipse.jetty.util.log",
     "org.eclipse.jetty.io.ManagedSelector"])
MEMCACHED_VERBS = np.array(["get", "set", "delete", "incr"])
MYSQL_LEVELS = np.array(["Note", "Warning", "ERROR"])
NGINX_LEVELS = np.array(
    ["emerg", "alert", "crit", "error", "warn", "notice", "info", "debug"])
PG_LEVELS = np.array(["LOG", "WARNING", "ERROR", "STATEMENT", "DETAIL"])
RABBIT_LEVELS = np.array(["debug", "info", "warning", "error"])
TOMCAT_LEVELS = np.array(["INFO", "WARNING", "SEVERE", "FINE", "CONFIG"])
TOMCAT_THREADS = np.array(["main", "Thread-3", "http-nio-8080-exec-1"])
TOMCAT_FUNCS = np.array(
    ["org.apache.catalina.startup.Catalina.start",
     "org.apache.coyote.AbstractProtocol.init"])
ZK_LEVELS = np.array(["INFO", "WARN", "ERROR", "DEBUG"])
ZK_THREADS = np.array(["main", "ProcessThread", "SyncThread:0"])
ZK_CLASSES = np.array(["QuorumPeer", "ZooKeeperServer", "FileSnap"])


def sf_name(sf_dir: str) -> str:
    """'/root/testdata/sf0.01' -> 'sf0.01'."""
    return os.path.basename(os.path.normpath(sf_dir))


def n_turns_for(sf: str) -> int:
    return max(1000, round(float(sf.removeprefix("sf")) * TURNS_PER_SF))


def transcripts_path(sf_dir_or_name: str) -> str:
    """Directory of part-*.parquet files (the unit of resumable processing)."""
    name = sf_name(sf_dir_or_name)
    return os.path.join(FIXTURE_ROOT, name, "transcripts")


def _conv_layout(n_turns: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Return (conv_seq, turn_idx) arrays of length n_turns, sorted.

    First ~1% of conversations are hot and own ~30% of the turns.
    """
    n_conv_est = max(4, n_turns // 20)
    n_hot = max(1, n_conv_est // 100)
    hot_len = max(30, int(0.30 * n_turns / n_hot))
    chunks = [np.full(n_hot, hot_len, dtype=np.int64)]
    total = int(chunks[0].sum())
    while total < n_turns:  # keep drawing normal lengths until covered
        c = rng.integers(4, 25, max(16, (n_turns - total) // 14 + 8))
        chunks.append(c)
        total += int(c.sum())
    lens = np.concatenate(chunks)
    cum = np.cumsum(lens)
    n_convs = int(np.searchsorted(cum, n_turns) + 1)
    lens = lens[:n_convs]
    lens[-1] -= cum[n_convs - 1] - n_turns
    conv_seq = np.repeat(np.arange(n_convs, dtype=np.int64), lens)
    starts = np.concatenate([[0], np.cumsum(lens)[:-1]])
    turn_idx = np.arange(n_turns, dtype=np.int64) - np.repeat(starts, lens)
    return conv_seq, turn_idx.astype(np.int32)


def _layout_and_roles(sf: str) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
    """The two rng-dependent full-length draws, in their fixed order.

    Everything else in the corpus is a pure per-row function of
    (conv_seq, turn_idx, global row index), so rendering can proceed in
    conversation-aligned chunks (see :func:`_render_transcripts`) without
    perturbing the rng stream — the chunked and monolithic paths are
    bit-identical by construction (pinned by test)."""
    n = n_turns_for(sf)
    # NOTE: rng draws below are order-sensitive; the layout draw comes first.
    rng = np.random.default_rng(int(float(sf.removeprefix("sf")) * 1e6) + 42)
    conv_seq, turn_idx = _conv_layout(n, rng)
    role = rng.choice(ROLES, size=n, p=ROLE_W)
    return conv_seq, turn_idx, role


def build_transcripts(sf: str) -> pa.Table:
    """Build the transcript table for scale name ``sf`` (e.g. 'sf0.01')."""
    conv_seq, turn_idx, role = _layout_and_roles(sf)
    return _render_transcripts(conv_seq, turn_idx, role, 0, len(conv_seq))


def _render_transcripts(conv_seq: np.ndarray, turn_idx: np.ndarray,
                        role: np.ndarray, lo: int, hi: int) -> pa.Table:
    """Render rows ``[lo, hi)`` of the corpus whose full layout is given.

    ``lo`` must sit on a conversation boundary (the per-conv timestamp
    cumsum restarts per conversation, so a conv-aligned slice reproduces
    the global values exactly); the global row index feeds the ms field."""
    conv_seq = conv_seq[lo:hi]
    turn_idx = turn_idx[lo:hi]
    role = role[lo:hi]
    n = hi - lo
    gidx = np.arange(lo, hi, dtype=np.int64)

    conv_id = pd.Series(conv_seq).map(lambda i: f"conv-{i:08d}").to_numpy()
    fmt = (conv_seq * 1000003 + turn_idx.astype(np.int64) * 7919) % N_FORMATS

    tool = np.where(role == "tool", TOOLS[(conv_seq + turn_idx) % len(TOOLS)], "")

    # timestamps: in-order per conversation, deterministic
    delta = 1 + (conv_seq * 31 + turn_idx.astype(np.int64) * 17) % 29  # seconds
    # per-conv cumulative sum of deltas
    df = pd.DataFrame({"conv": conv_seq, "delta": delta})
    cumdelta = df.groupby("conv")["delta"].cumsum().to_numpy()
    ms = gidx % 997
    ts_us = BASE_EPOCH_US + conv_seq * 60_000_000 + cumdelta * 1_000_000 + ms * 1000

    # shared message components
    verbs = VERBS[(conv_seq * 7 + turn_idx) % len(VERBS)]
    nouns = NOUNS[(conv_seq * 13 + turn_idx) % len(NOUNS)]
    nnum = ((conv_seq * 97 + turn_idx.astype(np.int64) * 11) % 10_000).astype(str)
    msg = pd.Series(verbs).str.cat(pd.Series(nouns), sep=" ").str.cat(pd.Series(nnum), sep=" ")

    msg = msg.to_numpy().astype(object)
    tss = pd.Series(pd.to_datetime(ts_us, unit="us"))
    text = np.empty(n, dtype=object)
    ti64 = turn_idx.astype(np.int64)

    def s(a) -> np.ndarray:
        """int/str array -> object array of strings (for elementwise +)."""
        return np.asarray(a).astype(str).astype(object)

    def strf(mask: np.ndarray, f: str) -> np.ndarray:
        return tss[mask].dt.strftime(f).to_numpy().astype(object)

    m = fmt == 0  # apache access
    if m.any():
        text[m] = (
            "10.0." + s(conv_seq[m] % 256) + "." + s(ti64[m] % 256)
            + " - user" + s(conv_seq[m] % 50)
            + " [" + strf(m, "%d/%b/%Y:%H:%M:%S +0000") + '] "'
            + s(METHODS[(conv_seq[m] + ti64[m]) % len(METHODS)])
            + " /api/v1/" + s(nouns[m])
            + ' HTTP/1.1" ' + s(CODES[(conv_seq[m] * 3 + ti64[m]) % len(CODES)])
            + " " + s((conv_seq[m] * 131 + ti64[m] * 7) % 100_000)
            + ' "-" "agent-' + s(conv_seq[m] % 9) + '"'
        )
    m = fmt == 1  # apache error
    if m.any():
        text[m] = (
            "[" + strf(m, "%a %b %d %H:%M:%S %Y") + "] ["
            + s(APACHE_MODULES[conv_seq[m] % len(APACHE_MODULES)])
            + ":" + s(APACHE_LEVELS[(conv_seq[m] + ti64[m]) % len(APACHE_LEVELS)])
            + "] [pid " + s(1000 + conv_seq[m] % 500)
            + ":tid " + s(ti64[m] % 64) + "] "
            + msg[m]
        )
    m = fmt == 2  # syslog
    if m.any():
        text[m] = (
            strf(m, "%b %d %H:%M:%S") + " host-" + s(conv_seq[m] % 8) + " "
            + s(SYSLOG_PROGRAMS[(conv_seq[m] + ti64[m]) % len(SYSLOG_PROGRAMS)])
            + "[" + s(100 + ti64[m] % 900) + "]: "
            + msg[m]
        )
    m = fmt == 3  # docker json (complete records: log ends with \n)
    if m.any():
        text[m] = (
            '{"log":"' + msg[m] + '\\n","stream":"'
            + s(STREAMS[(conv_seq[m] + ti64[m]) % 2])
            + '","time":"' + strf(m, "%Y-%m-%dT%H:%M:%S.%fZ") + '"}'
        )
    m = fmt == 4  # redis (router: even turn → server format, odd → handler)
    sub = m & (turn_idx % 2 == 0)
    if sub.any():  # server log: logs_config_linux.yaml:486-498
        text[sub] = (
            s(1 + conv_seq[sub] % 9999) + ":" + s(REDIS_ROLES[conv_seq[sub] % 3])
            + " " + strf(sub, "%d %b %Y %H:%M:%S.")
            + s(np.char.zfill(ms[sub].astype(str), 3))
            + " " + s(REDIS_SYMS[(conv_seq[sub] + ti64[sub]) % 4])
            + " " + msg[sub]
        )
    sub = m & (turn_idx % 2 == 1)
    if sub.any():  # handler log: logs_config_linux.yaml:499-506 (epoch secs)
        text[sub] = (
            s(1 + conv_seq[sub] % 9999) + ":signal-handler ("
            + s(ts_us[sub] // 1_000_000) + ") " + msg[sub]
        )
    m = fmt == 5  # plain
    if m.any():
        text[m] = "note " + msg[m] + " step " + s(nnum)[m]
    m = fmt == 6  # PII phone numbers 9999-999-9999
    if m.any():
        text[m] = (
            "contact " + s(verbs[m]) + " at "
            + s(np.char.zfill(((conv_seq[m] * 7 + ti64[m]) % 10_000).astype(str), 4))
            + "-" + s(np.char.zfill(((conv_seq[m] + ti64[m] * 3) % 1000).astype(str), 3))
            + "-" + s(np.char.zfill(((conv_seq[m] * 3 + ti64[m] * 7) % 10_000).astype(str), 4))
            + " re " + s(nouns[m])
        )
    m = fmt == 7  # json with Level key
    if m.any():
        text[m] = (
            '{"Level":"' + s(JSON_LEVELS[(conv_seq[m] + ti64[m]) % 3])
            + '","message":"' + msg[m]
            + '","time":"' + strf(m, "%Y-%m-%dT%H:%M:%S") + '"}'
        )
    m = fmt == 8  # continuation fragments (docker-shaped; last entry ends \n)
    if m.any():
        tail = np.where((conv_seq[m] + ti64[m]) % 3 == 0, "\\n", "").astype(object)
        text[m] = (
            '{"log":"' + msg[m] + tail + '","stream":"stdout","time":"'
            + strf(m, "%Y-%m-%dT%H:%M:%S.%fZ") + '"}'
        )
    m = fmt == 9  # mongodb structured json (v4.4+)
    if m.any():
        ms3 = s(np.char.zfill(ms[m].astype(str), 3))
        text[m] = (
            '{"t":{"$date":"' + strf(m, "%Y-%m-%dT%H:%M:%S.") + ms3
            + '+00:00"},"s":"' + s(MONGO_LEVELS[(conv_seq[m] + ti64[m]) % len(MONGO_LEVELS)])
            + '","c":"' + s(MONGO_COMPONENTS[conv_seq[m] % len(MONGO_COMPONENTS)])
            + '","ctx":"conn' + s(conv_seq[m] % 1000)
            + '","msg":"' + msg[m] + '"}'
        )
    m = fmt == 10  # etcd capnslog
    if m.any():
        text[m] = (
            strf(m, "%Y-%m-%d %H:%M:%S") + " "
            + s(ETCD_LEVELS[(conv_seq[m] + ti64[m]) % len(ETCD_LEVELS)])
            + " | " + msg[m]
        )
    m = fmt == 11  # cassandra logback (+ java stack-trace fragments)
    sub = m & ((conv_seq + ti64) % 5 != 4)
    if sub.any():
        text[sub] = (
            s(CASSANDRA_LEVELS[(conv_seq[sub] + ti64[sub]) % 5]) + "  ["
            + s(CASSANDRA_THREADS[conv_seq[sub] % 4]) + "] "
            + strf(sub, "%Y-%m-%d %H:%M:%S") + " "
            + s(CASSANDRA_FILES[(conv_seq[sub] * 3 + ti64[sub]) % 3])
            + ".java:" + s(100 + ti64[sub] % 900) + " - " + msg[sub]
        )
    sub = m & ((conv_seq + ti64) % 5 == 4)
    if sub.any():  # fragments framed by multiline.line_start_pattern :95-97
        cls = s(CASSANDRA_FILES[(conv_seq[sub] * 3 + ti64[sub]) % 3])
        text[sub] = np.where(
            ti64[sub] % 2 == 0,
            "\tat org.apache.cassandra." + cls + ".run(" + cls + ".java:"
            + s(100 + ti64[sub] % 900) + ")",
            "Caused by: java.lang.RuntimeException: " + msg[sub],
        )
    m = fmt == 12  # jetty9 (:%L ms timestamp, colon-separated)
    if m.any():
        text[m] = (
            strf(m, "%Y-%m-%d %H:%M:%S.")
            + s(np.char.zfill(ms[m].astype(str), 3)) + ":"
            + s(JETTY_LEVELS[(conv_seq[m] + ti64[m]) % 3]) + ":"
            + s(JETTY_CLASSES[conv_seq[m] % 3]) + ":main: " + msg[m]
        )
    m = fmt == 13  # memcached -vv (no operators; raw passthrough)
    if m.any():
        text[m] = (
            "<" + s(10 + conv_seq[m] % 90) + " "
            + s(MEMCACHED_VERBS[(conv_seq[m] + ti64[m]) % 4]) + " "
            + s(nouns[m]) + "_" + s(nnum)[m]
        )
    m = fmt == 14  # mysql error log
    if m.any():
        text[m] = (
            strf(m, "%Y-%m-%d %H:%M:%S") + " " + s(ti64[m] % 8)
            + " [" + s(MYSQL_LEVELS[(conv_seq[m] + ti64[m]) % 3]) + "] "
            + msg[m]
        )
    m = fmt == 15  # mysql general query log (%y%m%d ts)
    if m.any():
        text[m] = (
            strf(m, "%y%m%d %H:%M:%S") + "\t" + s(100 + conv_seq[m] % 900)
            + " Query\tSELECT * FROM " + s(nouns[m]) + " WHERE id = "
            + s(nnum)[m]
        )
    m = fmt == 16  # mysql slow log (no operators; `# Time:`-anchored records)
    sub = m & ((conv_seq + ti64) % 3 == 0)
    if sub.any():
        text[sub] = "# Time: " + strf(sub, "%y%m%d %H:%M:%S")
    sub = m & ((conv_seq + ti64) % 3 == 1)
    if sub.any():
        text[sub] = ("# User@Host: app[app] @ host-" + s(conv_seq[sub] % 8)
                     + " []")
    sub = m & ((conv_seq + ti64) % 3 == 2)
    if sub.any():
        text[sub] = ("SELECT count(*) FROM " + s(nouns[sub])
                     + " WHERE id > " + s(nnum)[sub] + ";")
    m = fmt == 17  # nginx error log
    if m.any():
        text[m] = (
            strf(m, "%Y/%m/%d %H:%M:%S") + " ["
            + s(NGINX_LEVELS[(conv_seq[m] + ti64[m]) % 8]) + "] "
            + s(1000 + conv_seq[m] % 500) + "#" + s(ti64[m] % 8) + ": "
            + msg[m]
        )
    m = fmt == 18  # postgresql (%L %Z ts; body keeps the level prefix)
    if m.any():
        text[m] = (
            strf(m, "%Y-%m-%d %H:%M:%S.")
            + s(np.char.zfill(ms[m].astype(str), 3)) + " UTC ["
            + s(1000 + conv_seq[m] % 500) + "] "
            + s(PG_LEVELS[(conv_seq[m] + ti64[m]) % 5]) + ":  " + msg[m]
        )
    m = fmt == 19  # rabbitmq broker log
    if m.any():
        text[m] = (
            strf(m, "%Y-%m-%d %H:%M:%S.")
            + s(np.char.zfill(ms[m].astype(str), 3)) + " ["
            + s(RABBIT_LEVELS[(conv_seq[m] + ti64[m]) % 4]) + "] <0."
            + s(200 + conv_seq[m] % 700) + ".0> " + msg[m]
        )
    m = fmt == 20  # tomcat catalina (JULI levels)
    if m.any():
        text[m] = (
            strf(m, "%d-%b-%Y %H:%M:%S") + " "
            + s(TOMCAT_LEVELS[(conv_seq[m] + ti64[m]) % 5]) + " ["
            + s(TOMCAT_THREADS[conv_seq[m] % 3]) + "] "
            + s(TOMCAT_FUNCS[conv_seq[m] % 2]) + " " + msg[m]
        )
    m = fmt == 21  # zookeeper log4j
    if m.any():
        text[m] = (
            strf(m, "%Y-%m-%d %H:%M:%S") + " - "
            + s(ZK_LEVELS[(conv_seq[m] + ti64[m]) % 4]) + "  ["
            + s(ZK_THREADS[conv_seq[m] % 3]) + ":"
            + s(ZK_CLASSES[(conv_seq[m] * 7 + ti64[m]) % 3]) + "@"
            + s(100 + ti64[m] % 900) + "] - " + msg[m]
        )
    m = fmt == 22  # NCSA common (jetty9-request / tomcat access: no ref/agent)
    if m.any():
        text[m] = (
            "10.1." + s(conv_seq[m] % 256) + "." + s(ti64[m] % 256)
            + " - user" + s(conv_seq[m] % 50)
            + " [" + strf(m, "%d/%b/%Y:%H:%M:%S +0000") + '] "'
            + s(METHODS[(conv_seq[m] + ti64[m]) % len(METHODS)])
            + " /app/" + s(nouns[m])
            + ' HTTP/1.0" ' + s(CODES[(conv_seq[m] * 3 + ti64[m]) % len(CODES)])
            + " " + s((conv_seq[m] * 113 + ti64[m] * 5) % 100_000)
        )

    table = pa.table(
        {
            "conv_id": pa.array(conv_id, type=pa.string()),
            "turn_idx": pa.array(turn_idx, type=pa.int32()),
            "role": pa.array(role, type=pa.string()),
            "text": pa.array(text, type=pa.string()),
            "tool": pa.array(tool, type=pa.string()),
            "ts": pa.array(ts_us, type=pa.timestamp("us")),
        }
    )
    return table


ROWS_PER_FILE = 100_000
RENDER_CHUNK = 8_000_000  # rows per render super-chunk (~3 GB transient)
CORPUS_VERSION = "6"  # bump when the generator's output changes → regenerate


def _version_ok(path: str) -> bool:
    try:
        with open(os.path.join(path, ".version")) as f:
            return f.read().strip() == CORPUS_VERSION
    except OSError:
        return False


def _cached_fixture(path: str, render: Callable[[str], None],
                    force: bool = False) -> str:
    """Build the fixture dir ``path`` once per CORPUS_VERSION; return it.

    A dir whose ``.version`` matches is a cache hit and ``render`` is not
    called (unless ``force``). Otherwise the stale dir is removed and
    ``render(out)`` fills a fresh sibling temp dir, which is stamped with
    ``.version`` and renamed into place: readers never see a partial
    fixture, a ``render`` that raises leaves no temp dir behind, and when
    a concurrent builder wins the rename race its (identical) dir stays.
    Every ``ensure_*`` fixture goes through here — a hand-rolled copy
    that skips the version check serves stale data after a generator
    change."""
    if not force and _version_ok(path):
        return path
    shutil.rmtree(path, ignore_errors=True)
    parent = os.path.dirname(path)
    os.makedirs(parent, exist_ok=True)
    tmpdir = tempfile.mkdtemp(dir=parent,
                              prefix=f".{os.path.basename(path)}.tmp")
    try:
        render(tmpdir)
        with open(os.path.join(tmpdir, ".version"), "w") as f:
            f.write(CORPUS_VERSION)
        try:
            os.replace(tmpdir, path)
        except OSError:
            if not _version_ok(path):  # not a lost race: a real failure
                raise
            # lost the race to a concurrent writer: theirs is identical
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)  # no-op once renamed
    return path


def ensure_transcripts(sf_dir_or_name: str, force: bool = False) -> str:
    """Write the transcript corpus for this scale if absent; return its dir.

    Layout: ``<dir>/part-000.parquet`` … — one file per ~100k turns, split on
    conversation boundaries (a conv never spans files, so per-file processing
    preserves per-conv grouped semantics). Atomic: built in a temp dir then
    renamed into place, so concurrent callers are safe. Row groups are 50k
    rows so Ray's read layer can split within files too.
    """
    def render(out: str) -> None:
        conv_seq, turn_idx, role = _layout_and_roles(sf_name(sf_dir_or_name))
        n = len(conv_seq)
        n_files = max(1, round(n / ROWS_PER_FILE))
        # split points aligned to conversation boundaries
        bounds = [0]
        for k in range(1, n_files):
            i = k * n // n_files
            while i < n and conv_seq[i] == conv_seq[i - 1]:
                i += 1
            if i > bounds[-1] and i < n:
                bounds.append(i)
        bounds.append(n)
        # Render in conversation-aligned SUPER-CHUNKS of ~RENDER_CHUNK rows,
        # writing each file's slice as we go: the rendered text column is
        # ~10× the numeric layout's footprint, so a monolithic render
        # OOM-kills past ~150M turns while the layout arrays alone scale to
        # billions — chunked and monolithic outputs are bit-identical
        # (pinned by test_corpus_chunked_render_identical).
        k = 0
        while k < len(bounds) - 1:
            j = k + 1
            while (j < len(bounds) - 1
                   and bounds[j + 1] - bounds[k] <= RENDER_CHUNK):
                j += 1
            chunk = _render_transcripts(conv_seq, turn_idx, role,
                                        bounds[k], bounds[j])
            for f in range(k, j):
                pq.write_table(
                    chunk.slice(bounds[f] - bounds[k],
                                bounds[f + 1] - bounds[f]),
                    os.path.join(out, f"part-{f:03d}.parquet"),
                    row_group_size=50_000,
                )
            k = j

    return _cached_fixture(transcripts_path(sf_dir_or_name), render, force)


def ensure_filelog(sf_dir_or_name: str, force: bool = False) -> str:
    """Stage the single-line subset of the transcript corpus as raw text
    log files (the filelog receiver's input format); return the dir.

    Only texts without embedded newlines are staged — a line reader would
    re-frame multi-line stanzas (java stacks, mysql-slow), and that path
    is exercised by the multiline_frame operators instead. Atomic and
    versioned like the transcript fixture: rebuilt whenever
    CORPUS_VERSION changes.
    """
    tdir = ensure_transcripts(sf_dir_or_name)
    path = os.path.join(FIXTURE_ROOT, sf_name(sf_dir_or_name), "filelog")

    def render(out: str) -> None:
        s = pq.read_table(tdir, columns=["text"]).column("text").to_pandas()
        keep = s.notna() & (s != "") & ~s.str.contains("[\n\r]", regex=True)
        lines = s[keep]
        with open(os.path.join(out, "app.log"), "w", encoding="utf-8") as f:
            f.write("\n".join(lines))
            f.write("\n")

    return _cached_fixture(path, render, force)


FLUENT_TAG = "transcripts.forward"


def ensure_fluent_msgpack(sf_dir_or_name: str, force: bool = False) -> str:
    """Stage the transcripts as Fluentd Forward-mode msgpack files (the
    fluent_forward receiver's wire format): messages of ≤5000
    ``[EventTime, record]`` entries, ~25k turns per file so the reader
    gets multiple blocks. Fixture generation — one-off, cached."""
    from .sources.fluent import EventTime, pack_forward_message

    tdir = ensure_transcripts(sf_dir_or_name)
    path = os.path.join(FIXTURE_ROOT, sf_name(sf_dir_or_name), "fluent")

    def render(out: str) -> None:
        df = pq.read_table(
            tdir, columns=["conv_id", "turn_idx", "role", "text", "tool", "ts"]
        ).to_pandas()
        us = df["ts"].astype("int64").to_numpy()
        per_file, per_msg = 25_000, 5_000
        for fi in range(0, len(df), per_file):
            with open(os.path.join(out, f"chunk-{fi // per_file:03d}.msgpack"),
                      "wb") as f:
                for mi in range(fi, min(fi + per_file, len(df)), per_msg):
                    sl = df.iloc[mi:mi + per_msg]
                    entries = [
                        (EventTime(int(u) // 1_000_000,
                                   (int(u) % 1_000_000) * 1_000),
                         {"message": text, "conv_id": conv,
                          "turn_idx": int(turn), "role": role, "tool": tool})
                        for u, conv, turn, role, text, tool in zip(
                            us[mi:mi + per_msg], sl["conv_id"],
                            sl["turn_idx"], sl["role"], sl["text"],
                            sl["tool"])
                    ]
                    f.write(pack_forward_message(FLUENT_TAG, entries))

    return _cached_fixture(path, render, force)


JOURNALD_UNITS = ("sshd.service", "crond.service", "systemd-journald.service")


def ensure_journald_jsonl(sf_dir_or_name: str, force: bool = False) -> str:
    """Stage the transcripts as journald JSON export lines (the journald
    receiver's wire format, `journalctl -o json`): one object per turn
    with ``__REALTIME_TIMESTAMP`` as a STRING of epoch µs (journald's
    actual convention), ``MESSAGE``, ``_HOSTNAME``, ``PRIORITY`` as a
    string syslog level (turn_idx % 8) and ``_SYSTEMD_UNIT`` cycling
    JOURNALD_UNITS (turn_idx % 3). Fixture generation — one-off, cached.
    """
    import json

    tdir = ensure_transcripts(sf_dir_or_name)
    path = os.path.join(FIXTURE_ROOT, sf_name(sf_dir_or_name), "journald")

    def render(out: str) -> None:
        df = pq.read_table(
            tdir, columns=["conv_id", "turn_idx", "text", "ts"]).to_pandas()
        us = df["ts"].astype("int64")
        with open(os.path.join(out, "journal.jsonl"), "w",
                  encoding="utf-8") as f:
            for t, conv, turn, text in zip(us, df["conv_id"],
                                           df["turn_idx"], df["text"]):
                f.write(json.dumps({
                    "__REALTIME_TIMESTAMP": str(t),
                    "MESSAGE": text,
                    "_HOSTNAME": conv,
                    "PRIORITY": str(int(turn) % 8),
                    "_SYSTEMD_UNIT": JOURNALD_UNITS[int(turn) % 3],
                }, ensure_ascii=False))
                f.write("\n")

    return _cached_fixture(path, render, force)


def collectd_records() -> list[dict]:
    """Deterministic collectd write_http value-list records covering the
    receiver's semantic surface: multi-ds records (dsname folded into the
    name), type_instance names, single-"value" ds (dsname label), bracket
    metadata labels, gauge vs derive/counter dstypes. The oracle twin
    reconstructs the expected datapoints from the same i-formulas."""
    recs = []
    for i in range(96):
        t = 1767225600 + i * 10
        if i % 4 == 0:
            recs.append({
                "values": [i * 100.0, i * 50.0],
                "dstypes": ["derive", "derive"],
                "dsnames": ["read", "write"], "time": t, "interval": 10.0,
                "host": f"host-{i % 8}", "plugin": "disk",
                "plugin_instance": f"sda{i % 3}", "type": "disk_octets",
                "type_instance": ""})
        elif i % 4 == 1:
            recs.append({
                "values": [i * 0.5], "dstypes": ["gauge"],
                "dsnames": ["value"], "time": t, "interval": 10.0,
                "host": f"host-{i % 8}", "plugin": "cpu",
                "plugin_instance": str(i % 8), "type": "percent",
                "type_instance": "idle"})
        elif i % 4 == 2:
            recs.append({
                "values": [i * 1024.0], "dstypes": ["gauge"],
                "dsnames": ["value"], "time": t, "interval": 10.0,
                "host": f"host-{i % 8}", "plugin": "memory",
                "plugin_instance": "", "type": "memory",
                "type_instance": "used"})
        else:
            recs.append({
                "values": [float(i)], "dstypes": ["counter"],
                "dsnames": ["value"], "time": t, "interval": 10.0,
                "host": f"host-{i % 8}", "plugin": "postgresql",
                "plugin_instance": f"mydb[env=prod,dc=dc{i % 3}]",
                "type": "pg_numbackends", "type_instance": ""})
    return recs


def ensure_collectd_jsonl(force: bool = False) -> str:
    """Stage the deterministic collectd record set as JSONL (one record
    per line — the write_http array unpacked, as the receiver sees it)."""
    import json

    def render(out: str) -> None:
        with open(os.path.join(out, "records.jsonl"), "w",
                  encoding="utf-8") as f:
            for rec in collectd_records():
                f.write(json.dumps(rec, ensure_ascii=False))
                f.write("\n")

    return _cached_fixture(os.path.join(FIXTURE_ROOT, "collectd"), render,
                           force)


def ensure_hec_jsonl(sf_dir_or_name: str, force: bool = False) -> str:
    """Stage the transcripts as HEC event JSONL (the splunk_hec receiver's
    wire format): one ``{"time", "host", "source", "sourcetype", "index",
    "event", "fields"}`` object per turn, ``time`` as fractional epoch
    seconds (Python repr → shortest exact double round-trip) and the
    transcript identity carried in ``fields`` as a receiver would splat
    custom fields into attributes. Fixture generation (one-off, versioned
    cache) — the per-row json.dumps loop is not a pipeline hot path.
    """
    import json

    tdir = ensure_transcripts(sf_dir_or_name)
    path = os.path.join(FIXTURE_ROOT, sf_name(sf_dir_or_name), "hec")

    def render(out: str) -> None:
        df = pq.read_table(
            tdir, columns=["conv_id", "turn_idx", "role", "text", "tool", "ts"]
        ).to_pandas()
        # exact double of epoch µs / 1e6
        time_s = df["ts"].astype("int64") / 1e6
        with open(os.path.join(out, "events.jsonl"), "w",
                  encoding="utf-8") as f:
            for t, conv, turn, role, text, tool in zip(
                    time_s, df["conv_id"], df["turn_idx"], df["role"],
                    df["text"], df["tool"]):
                f.write(json.dumps({
                    "time": t, "host": conv, "source": role,
                    "sourcetype": "httpevent", "index": "main",
                    "event": text,
                    "fields": {"conv_id": conv, "turn_idx": int(turn),
                               "tool": tool},
                }, ensure_ascii=False))
                f.write("\n")

    return _cached_fixture(path, render, force)


KAFKA_PARTITIONS = 4


def ensure_kafka_dump(sf_dir_or_name: str, force: bool = False) -> str:
    """Stage the transcripts as a Kafka topic dump — kcat/kafkacat ``-J``
    style JSONL, one ``{"topic", "partition", "offset", "ts", "key",
    "payload", "headers"}`` object per record. Partition =
    ``numeric(conv_id) % 4`` (keyed by conversation, like a producer
    hashing the message key), offset = 0-based per-partition sequence in
    corpus order, ts = epoch MILLISECONDS (Kafka's timestamp unit), the
    turn identity carried in headers. SQL-replayable: partition is the
    `_BUCKET_SQL` expression mod 4, offset a ROW_NUMBER window.
    One file per partition — the per-partition consumption unit a real
    consumer group owns."""
    import json

    tdir = ensure_transcripts(sf_dir_or_name)
    path = os.path.join(FIXTURE_ROOT, sf_name(sf_dir_or_name), "kafka")

    def render(out: str) -> None:
        df = pq.read_table(
            tdir, columns=["conv_id", "turn_idx", "role", "text", "tool", "ts"]
        ).to_pandas()
        conv_num = df["conv_id"].str.slice(5).astype("int64")
        part = (conv_num % KAFKA_PARTITIONS).to_numpy()
        offset = pd.DataFrame({"p": part}).groupby("p").cumcount().to_numpy()
        ts_ms = (df["ts"].astype("int64") // 1000).to_numpy()
        files = {p: open(os.path.join(out, f"transcripts-{p}.jsonl"), "w",
                         encoding="utf-8") for p in range(KAFKA_PARTITIONS)}
        try:
            for p, off, ms, conv, turn, role, text, tool in zip(
                    part, offset, ts_ms, df["conv_id"], df["turn_idx"],
                    df["role"], df["text"], df["tool"]):
                files[int(p)].write(json.dumps({
                    "topic": "transcripts", "partition": int(p),
                    "offset": int(off), "ts": int(ms), "key": conv,
                    "payload": text,
                    "headers": {"turn_idx": int(turn), "role": role,
                                "tool": tool},
                }, ensure_ascii=False) + "\n")
        finally:
            for f in files.values():
                f.close()

    return _cached_fixture(path, render, force)


def ensure_eventhub_dump(sf_dir_or_name: str, force: bool = False) -> str:
    """Stage the transcripts as an Event Hubs Capture-style dump — one
    JSONL file per partition, one event per CONVERSATION whose ``Body``
    is the Azure resource-log export ``{"records": [...]}`` (one record
    per turn, ordered by ``turn_idx``). Partition = ``numeric(conv_id) %
    4`` (the service's partition-key hash), SequenceNumber = 0-based
    rank of the conversation within its partition in ``conv_id`` order,
    EnqueuedTimeUtc = the conversation's earliest turn ``ts``. Record
    ``level`` cycles the Azure severity ladder deterministically
    (``turn_idx % 4`` → Informational/Warning/Error/Verbose) so the
    receiver's severity mapping is exercised and SQL-replayable."""
    import json

    from .sources.eventhub import (EVENTHUB_PARTITIONS,
                                   encode_eventhub_event, make_azure_record)

    tdir = ensure_transcripts(sf_dir_or_name)
    path = os.path.join(FIXTURE_ROOT, sf_name(sf_dir_or_name), "eventhub")

    def render(out: str) -> None:
        df = pq.read_table(
            tdir, columns=["conv_id", "turn_idx", "role", "text", "tool", "ts"]
        ).to_pandas().sort_values(["conv_id", "turn_idx"], kind="mergesort")
        conv_num = df["conv_id"].str.slice(5).astype("int64")
        df["_part"] = (conv_num % EVENTHUB_PARTITIONS).to_numpy()
        df["_us"] = df["ts"].astype("int64")
        levels = ("Informational", "Warning", "Error", "Verbose")
        files = {p: open(os.path.join(out, f"partition-{p}.jsonl"), "w",
                         encoding="utf-8") for p in range(EVENTHUB_PARTITIONS)}
        seq = {p: 0 for p in range(EVENTHUB_PARTITIONS)}
        try:
            for conv, rows in df.groupby("conv_id", sort=True):
                p = int(rows["_part"].iloc[0])
                recs = [make_azure_record(
                    int(us), conv, role, tool, levels[int(turn) % 4],
                    int(turn), text)
                    for us, role, tool, turn, text in zip(
                        rows["_us"], rows["role"], rows["tool"],
                        rows["turn_idx"], rows["text"])]
                files[p].write(json.dumps(encode_eventhub_event(
                    p, seq[p], conv, int(rows["_us"].min()), recs),
                    ensure_ascii=False) + "\n")
                seq[p] += 1
        finally:
            for f in files.values():
                f.close()

    return _cached_fixture(path, render, force)


def ensure_pulsar_dump(sf_dir_or_name: str, force: bool = False) -> str:
    """Stage the transcripts as a pulsar partition dump — one JSONL file
    per partition, one batch ENTRY per conversation (messages = the
    conversation's turns, ``batchIndex`` = ``turn_idx``). Partition =
    ``numeric(conv_id) % 4``; entries append per partition in ``conv_id``
    order with ledger rollover every ``LEDGER_ENTRIES`` entries
    (``ledgerId`` = rank // 100, ``entryId`` = rank % 100 — both
    SQL-replayable from a DENSE_RANK). ``publishTime`` = the entry's
    earliest turn ``ts`` (broker receive), ``eventTime`` = the turn's own
    ``ts`` (producer-set) — pulsar's two-timestamp model."""
    import json

    from .sources.pulsar import (LEDGER_ENTRIES, PULSAR_PARTITIONS,
                                 encode_pulsar_entry, make_pulsar_message)

    tdir = ensure_transcripts(sf_dir_or_name)
    path = os.path.join(FIXTURE_ROOT, sf_name(sf_dir_or_name), "pulsar")

    def render(out: str) -> None:
        df = pq.read_table(
            tdir, columns=["conv_id", "turn_idx", "role", "text", "tool", "ts"]
        ).to_pandas().sort_values(["conv_id", "turn_idx"], kind="mergesort")
        conv_num = df["conv_id"].str.slice(5).astype("int64")
        df["_part"] = (conv_num % PULSAR_PARTITIONS).to_numpy()
        df["_us"] = df["ts"].astype("int64")
        files = {p: open(os.path.join(out, f"partition-{p}.jsonl"), "w",
                         encoding="utf-8") for p in range(PULSAR_PARTITIONS)}
        rank = {p: 0 for p in range(PULSAR_PARTITIONS)}
        try:
            for conv, rows in df.groupby("conv_id", sort=True):
                p = int(rows["_part"].iloc[0])
                msgs = [make_pulsar_message(
                    int(turn), int(us), text, {"role": role, "tool": tool})
                    for us, role, tool, turn, text in zip(
                        rows["_us"], rows["role"], rows["tool"],
                        rows["turn_idx"], rows["text"])]
                files[p].write(json.dumps(encode_pulsar_entry(
                    p, rank[p] // LEDGER_ENTRIES, rank[p] % LEDGER_ENTRIES,
                    conv, int(rows["_us"].min()), msgs),
                    ensure_ascii=False) + "\n")
                rank[p] += 1
        finally:
            for f in files.values():
                f.close()

    return _cached_fixture(path, render, force)


def ensure_pubsub_dump(sf_dir_or_name: str, force: bool = False) -> str:
    """Stage the transcripts as a Pub/Sub subscription-pull dump — one
    REST ``ReceivedMessage`` JSON object per line (``data`` base64,
    ``attributes`` string→string, ``messageId``/``orderingKey``/
    ``publishTime`` coordinates). messageId = ``conv_id || '/' ||
    turn_idx`` (SQL-replayable), orderingKey = conv_id, publishTime =
    RFC3339 microseconds of ts. Sharded into one file per
    ``numeric(conv_id) % 4`` (file-layout parallelism only — Pub/Sub has
    no partitions; an ordering key's messages stay in one shard, the
    ordered-delivery guarantee)."""
    import json

    from .sources.pubsub import PUBSUB_SHARDS, encode_pubsub_record

    tdir = ensure_transcripts(sf_dir_or_name)
    path = os.path.join(FIXTURE_ROOT, sf_name(sf_dir_or_name), "pubsub")

    def render(out: str) -> None:
        df = pq.read_table(
            tdir, columns=["conv_id", "turn_idx", "role", "text", "tool", "ts"]
        ).to_pandas()
        conv_num = df["conv_id"].str.slice(5).astype("int64")
        shard = (conv_num % PUBSUB_SHARDS).to_numpy()
        ts_us = df["ts"].astype("int64").to_numpy()
        files = {s: open(os.path.join(out, f"subscription-{s}.jsonl"), "w",
                         encoding="utf-8") for s in range(PUBSUB_SHARDS)}
        try:
            for s, us, conv, turn, role, text, tool in zip(
                    shard, ts_us, df["conv_id"], df["turn_idx"], df["role"],
                    df["text"], df["tool"]):
                files[int(s)].write(json.dumps(encode_pubsub_record(
                    f"{conv}/{int(turn)}", conv, int(us), text,
                    {"turn_idx": str(int(turn)), "role": role,
                     "tool": tool}),
                    ensure_ascii=False) + "\n")
        finally:
            for f in files.values():
                f.close()

    return _cached_fixture(path, render, force)


def ensure_solace_dump(sf_dir_or_name: str, force: bool = False) -> str:
    """Stage the transcripts as a Solace broker-telemetry queue dump —
    per turn, ONE receive-family span message (the broker accepting the
    turn's publish) and ONE egress-family span message (delivery to the
    subscriber), each a ``{"topic": _telemetry/…/<family>/v1,
    "payload": SpanData JSON}`` line (sources/solace.py layout).

    Every field is SQL-replayable from the corpus (n = numeric conv_id,
    L = length(text), p = n % 4):

    - trace_id = ``%032x``(n); receive span_id = ``%016x``(n·2¹⁶ +
      2·turn_idx), egress span_id = +1 with parentSpanId = the receive id
    - receive start = ts, end = ts + L µs (proportional broker work);
      egress start = receive end + d, end = start + L, where the queue
      delay d = (31·n + 7·turn_idx) % 1000 + 1 µs — the value
      :func:`sources.solace.delivery_lag` recovers through the join
    - rgmid = ``rmid1:%05x-%012x-%05x-00000``(p, n, turn_idx), shared by
      the pair (the traced USER message's identity)
    - receive destination = ``chat/<conv_id>`` topic (publish side),
      egress destination = queue ``q/<p>``; enqueue event on the receive
      span names the same queue
    - protocol cycles (smf 3.0 / mqtt 5.0 / amqp 1.0) on turn_idx % 3;
      client_username = role on receive, ``subscriber-<p>`` on egress

    Sharded into ``SOLACE_SHARDS`` files for read parallelism only."""
    import json as _json

    from .sources.solace import (SOLACE_SHARDS, encode_egress_span,
                                 encode_receive_span)

    tdir = ensure_transcripts(sf_dir_or_name)
    path = os.path.join(FIXTURE_ROOT, sf_name(sf_dir_or_name), "solace")
    protos = [("smf", "3.0"), ("mqtt", "5.0"), ("amqp", "1.0")]

    def render(out: str) -> None:
        files = {s: open(os.path.join(out, f"telemetry-{s}.jsonl"), "w",
                         encoding="utf-8") for s in range(SOLACE_SHARDS)}
        try:
            # One transcript PART FILE at a time (~100k turns): the text
            # column is ~10x the numeric footprint, and only its LENGTH is
            # needed — the monolithic read_table(...).to_pandas() here was
            # the same unbounded shape the chunked transcript render
            # removed. Sorted filename order == global row order, so the
            # shard-file bytes are identical to the monolithic build.
            for part in sorted(os.listdir(tdir)):
                if not part.endswith(".parquet"):
                    continue
                df = pq.read_table(
                    os.path.join(tdir, part),
                    columns=["conv_id", "turn_idx", "role", "text", "ts"]
                ).to_pandas()
                n = df["conv_id"].str.slice(5).astype("int64").to_numpy()
                turn = df["turn_idx"].astype("int64").to_numpy()
                p = n % SOLACE_SHARDS
                ts_us = df["ts"].astype("int64").to_numpy()
                ln = df["text"].str.len().astype("int64").to_numpy()
                d = (31 * n + 7 * turn) % 1000 + 1
                for i, (conv, role) in enumerate(zip(df["conv_id"],
                                                     df["role"])):
                    ni, ti, pi, li, di, us = (
                        int(n[i]), int(turn[i]), int(p[i]),
                        int(ln[i]), int(d[i]), int(ts_us[i]))
                    trace = f"{ni:032x}"
                    rsp = f"{ni * 65536 + ti * 2:016x}"
                    rgmid = f"rmid1:{pi:05x}-{ni:012x}-{ti:05x}-00000"
                    proto, ver = protos[ti % 3]
                    queue = f"q/{pi}"
                    f = files[pi]
                    f.write(_json.dumps(encode_receive_span(
                        trace, rsp, us * 1000, (us + li) * 1000,
                        f"chat/{conv}", rgmid, proto, ver, role, queue),
                        ensure_ascii=False) + "\n")
                    f.write(_json.dumps(encode_egress_span(
                        trace, f"{ni * 65536 + ti * 2 + 1:016x}", rsp,
                        (us + li + di) * 1000, (us + 2 * li + di) * 1000,
                        queue, rgmid, proto, ver, f"subscriber-{pi}"),
                        ensure_ascii=False) + "\n")
        finally:
            for f in files.values():
                f.close()

    return _cached_fixture(path, render, force)


def ensure_sfx_dump(sf_dir_or_name: str, force: bool = False) -> str:
    """Stage the transcripts as a SignalFx v2 ingest dump — gzipped
    ``DataPointUploadMessage`` request bodies (``dp-<shard>-<seq>.pb.gz``,
    sources/sfx.py wire), the body the reference's signalfx exporter
    POSTs to ``/v2/datapoint`` (agent_config.yaml:159-167).

    Every datapoint is SQL-replayable from the corpus. Per turn:

    - GAUGE ``chat.turn.chars`` intValue = length(text)
    - CUMULATIVE_COUNTER ``chat.conv.turns`` intValue = turn_idx + 1
      (monotone within the conversation — the cumulative contract)

    and once per conversation (turn_idx == 0):

    - ENUM ``chat.conv.role`` strValue = role (the strValue Datum arm)

    All carry dimensions {conv_id, role, tool, turn_idx} and
    source = 'transcripts'; wire timestamps are SignalFx's millisecond
    unit (µs ts truncated — the kafka dump's precision contract).
    Sharded by numeric(conv_id) % SFX_SHARDS, chunked ~65536 datapoints
    per request body (the exporter's batch POST analogue)."""
    from .sources.sfx import SFX_SHARDS, encode_upload

    tdir = ensure_transcripts(sf_dir_or_name)
    path = os.path.join(FIXTURE_ROOT, sf_name(sf_dir_or_name), "sfx")

    def render(out: str) -> None:
        bufs: dict[int, list] = {s: [] for s in range(SFX_SHARDS)}
        seqs = {s: 0 for s in range(SFX_SHARDS)}

        def flush(s: int) -> None:
            if not bufs[s]:
                return
            with open(os.path.join(out,
                                   f"dp-{s}-{seqs[s]:05d}.pb.gz"), "wb") as f:
                f.write(encode_upload(bufs[s]))
            seqs[s] += 1
            bufs[s] = []

        # chunked per part file, like the solace stager — only LENGTH of
        # text is needed beyond the scalar columns
        for part in sorted(os.listdir(tdir)):
            if not part.endswith(".parquet"):
                continue
            df = pq.read_table(
                os.path.join(tdir, part),
                columns=["conv_id", "turn_idx", "role", "text", "tool",
                         "ts"]).to_pandas()
            n = df["conv_id"].str.slice(5).astype("int64").to_numpy()
            turn = df["turn_idx"].astype("int64").to_numpy()
            p = n % SFX_SHARDS
            ts_ms = df["ts"].astype("int64").to_numpy() // 1000
            ln = df["text"].str.len().astype("int64").to_numpy()
            for i, (conv, role, tool) in enumerate(
                    zip(df["conv_id"], df["role"], df["tool"])):
                ti, pi = int(turn[i]), int(p[i])
                base = {"source": "transcripts", "ts_ms": int(ts_ms[i]),
                        "conv_id": conv, "role": role, "tool": tool,
                        "turn_idx": str(ti)}
                buf = bufs[pi]
                buf.append({**base, "metric": "chat.turn.chars",
                            "metric_type": "GAUGE",
                            "value_int": int(ln[i])})
                buf.append({**base, "metric": "chat.conv.turns",
                            "metric_type": "CUMULATIVE_COUNTER",
                            "value_int": ti + 1})
                if ti == 0:
                    buf.append({**base, "metric": "chat.conv.role",
                                "metric_type": "ENUM", "value_str": role})
                if len(buf) >= 65536:
                    flush(pi)
        for s in range(SFX_SHARDS):
            flush(s)

    return _cached_fixture(path, render, force)


def ensure_zipkin_dump(sf_dir_or_name: str, force: bool = False) -> str:
    """Stage the transcripts as Zipkin v2 POST bodies — each file one
    JSON span ARRAY (``POST /api/v2/spans``, sources/zipkin.py wire),
    the conversation as a trace chain. Every field is SQL-replayable
    (n = numeric conv_id, t = turn_idx, L = length(text)):

    - traceId = ``%032x``(n); id = ``%016x``(n·2¹⁶ + t); parentId = the
      previous turn's id (absent at t = 0 — the root span)
    - kind by role: user→CLIENT, assistant→SERVER, tool→PRODUCER,
      system→CONSUMER; name = tool if non-empty else role;
      localEndpoint.serviceName = ``chat-<role>``
    - timestamp = exact epoch µs of ts (Zipkin's µs unit — no
      truncation, unlike the ms wires), duration = L µs
    - tags {conv_id, turn_idx} (string→string)

    Sharded by n % ZIPKIN_SHARDS, chunked ≤16384 spans per body."""
    import json as _json

    from .sources.zipkin import ZIPKIN_SHARDS, encode_span

    tdir = ensure_transcripts(sf_dir_or_name)
    path = os.path.join(FIXTURE_ROOT, sf_name(sf_dir_or_name), "zipkin")
    kinds = {"user": "CLIENT", "assistant": "SERVER", "tool": "PRODUCER",
             "system": "CONSUMER"}

    def render(out: str) -> None:
        bufs: dict[int, list] = {s: [] for s in range(ZIPKIN_SHARDS)}
        seqs = {s: 0 for s in range(ZIPKIN_SHARDS)}

        def flush(s: int) -> None:
            if not bufs[s]:
                return
            with open(os.path.join(out, f"spans-{s}-{seqs[s]:05d}.json"),
                      "w", encoding="utf-8") as f:
                _json.dump(bufs[s], f, ensure_ascii=False)
            seqs[s] += 1
            bufs[s] = []

        for part in sorted(os.listdir(tdir)):
            if not part.endswith(".parquet"):
                continue
            df = pq.read_table(
                os.path.join(tdir, part),
                columns=["conv_id", "turn_idx", "role", "text", "tool",
                         "ts"]).to_pandas()
            n = df["conv_id"].str.slice(5).astype("int64").to_numpy()
            turn = df["turn_idx"].astype("int64").to_numpy()
            p = n % ZIPKIN_SHARDS
            ts_us = df["ts"].astype("int64").to_numpy()
            ln = df["text"].str.len().astype("int64").to_numpy()
            for i, (conv, role, tool) in enumerate(
                    zip(df["conv_id"], df["role"], df["tool"])):
                ni, ti, pi = int(n[i]), int(turn[i]), int(p[i])
                sid = ni * 65536 + ti
                buf = bufs[pi]
                buf.append(encode_span(
                    f"{ni:032x}", f"{sid:016x}",
                    f"{sid - 1:016x}" if ti > 0 else None,
                    tool if tool else role, kinds[role], f"chat-{role}",
                    int(ts_us[i]), int(ln[i]),
                    {"conv_id": conv, "turn_idx": str(ti)}))
                if len(buf) >= 16384:
                    flush(pi)
        for s in range(ZIPKIN_SHARDS):
            flush(s)

    return _cached_fixture(path, render, force)


def ensure_jaeger_dump(sf_dir_or_name: str, force: bool = False) -> str:
    """Stage the transcripts as jaeger api_v2 ``PostSpansRequest``
    bodies (``batch-*.pb``, sources/jaeger.py wire) — the same
    conversation-as-trace-chain derivation as the zipkin dump (traceId
    ``%032x``(n) as 16 BYTES on this wire, span id n·2¹⁶ + t as 8
    bytes, CHILD_OF reference to the previous turn), but batched the
    way the jaeger agent emits: one request per (shard, service) with
    the service carried ONCE in Batch.process and ``span.kind`` as a
    lowercase string tag (client/server/producer/consumer by role).
    Start times ride google.protobuf.Timestamp (exact µs), durations =
    length(text) µs. Chunked ≤16384 spans per request body."""
    from .sources.jaeger import JAEGER_SHARDS, encode_batch

    tdir = ensure_transcripts(sf_dir_or_name)
    path = os.path.join(FIXTURE_ROOT, sf_name(sf_dir_or_name), "jaeger")
    kinds = {"user": "client", "assistant": "server", "tool": "producer",
             "system": "consumer"}

    def render(out: str) -> None:
        bufs: dict[tuple, list] = {}
        seqs: dict[tuple, int] = {}

        def flush(key: tuple) -> None:
            if not bufs.get(key):
                return
            p, svc = key
            seq = seqs.get(key, 0)
            with open(os.path.join(out,
                                   f"batch-{p}-{svc}-{seq:05d}.pb"),
                      "wb") as f:
                f.write(encode_batch(svc, bufs[key]))
            seqs[key] = seq + 1
            bufs[key] = []

        for part in sorted(os.listdir(tdir)):
            if not part.endswith(".parquet"):
                continue
            df = pq.read_table(
                os.path.join(tdir, part),
                columns=["conv_id", "turn_idx", "role", "text", "tool",
                         "ts"]).to_pandas()
            n = df["conv_id"].str.slice(5).astype("int64").to_numpy()
            turn = df["turn_idx"].astype("int64").to_numpy()
            p = n % JAEGER_SHARDS
            ts_us = df["ts"].astype("int64").to_numpy()
            ln = df["text"].str.len().astype("int64").to_numpy()
            for i, (conv, role, tool) in enumerate(
                    zip(df["conv_id"], df["role"], df["tool"])):
                ni, ti, pi = int(n[i]), int(turn[i]), int(p[i])
                sid = ni * 65536 + ti
                key = (pi, f"chat-{role}")
                buf = bufs.setdefault(key, [])
                buf.append({
                    "trace_id": f"{ni:032x}",
                    "span_id": f"{sid:016x}",
                    "parent_id": (f"{sid - 1:016x}" if ti > 0 else None),
                    "operation": tool if tool else role,
                    "span_kind": kinds[role],
                    "ts_us": int(ts_us[i]), "duration_us": int(ln[i]),
                    "conv_id": conv, "turn_idx": str(ti)})
                if len(buf) >= 16384:
                    flush(key)
        for key in list(bufs):
            flush(key)

    return _cached_fixture(path, render, force)


def ensure_k8sevents_dump(sf_dir_or_name: str, force: bool = False) -> str:
    """Stage the transcripts as a Kubernetes API WATCH-stream dump —
    one ``{"type": …, "object": <Event>}`` JSON line per turn
    (sources/k8sevents.py wire; the ``watch=true`` chunked-response
    framing).  Every field is SQL-replayable (n = numeric conv_id,
    t = turn_idx):

    - watch type ADDED (t even) / MODIFIED (t odd)
    - Event.metadata: name = ``conv_id || '.' || t``, namespace = role,
      uid = ``uid-%012x``(n·2¹⁶ + t), resourceVersion = n·2¹⁶ + t
    - involvedObject: Pod ``conv_id`` in namespace role,
      uid = ``uid-%08x``(n)
    - reason cycles Created/Started/Pulled/Killing on t % 4; message =
      the turn text; type = Warning when t % 5 == 0 else Normal;
      count = t + 1; eventTime = RFC3339 µs of ts (MicroTime);
      source = kubelet on ``host-<n % 8>``

    Sharded by n % K8SEVENTS_SHARDS (line-splittable JSONL)."""
    from .sources.k8sevents import K8SEVENTS_SHARDS, encode_watch_line
    from .sources.wire import iso_us

    tdir = ensure_transcripts(sf_dir_or_name)
    path = os.path.join(FIXTURE_ROOT, sf_name(sf_dir_or_name), "k8sevents")
    reasons = ["Created", "Started", "Pulled", "Killing"]

    def render(out: str) -> None:
        files = {s: open(os.path.join(out, f"watch-{s}.jsonl"), "w",
                         encoding="utf-8") for s in range(K8SEVENTS_SHARDS)}
        try:
            for part in sorted(os.listdir(tdir)):
                if not part.endswith(".parquet"):
                    continue
                df = pq.read_table(
                    os.path.join(tdir, part),
                    columns=["conv_id", "turn_idx", "role", "text",
                             "ts"]).to_pandas()
                n = df["conv_id"].str.slice(5).astype("int64").to_numpy()
                turn = df["turn_idx"].astype("int64").to_numpy()
                p = n % K8SEVENTS_SHARDS
                ts_us = df["ts"].astype("int64").to_numpy()
                for i, (conv, role, text) in enumerate(
                        zip(df["conv_id"], df["role"], df["text"])):
                    ni, ti = int(n[i]), int(turn[i])
                    rv = ni * 65536 + ti
                    ev = {
                        "apiVersion": "v1", "kind": "Event",
                        "metadata": {"name": f"{conv}.{ti}",
                                     "namespace": role,
                                     "uid": f"uid-{rv:012x}",
                                     "resourceVersion": str(rv)},
                        "involvedObject": {"kind": "Pod", "name": conv,
                                           "namespace": role,
                                           "uid": f"uid-{ni:08x}"},
                        "reason": reasons[ti % 4],
                        "message": text,
                        "type": "Warning" if ti % 5 == 0 else "Normal",
                        "count": ti + 1,
                        "eventTime": iso_us(int(ts_us[i])),
                        "source": {"component": "kubelet",
                                   "host": f"host-{ni % 8}"},
                    }
                    files[int(p[i])].write(
                        encode_watch_line(
                            "ADDED" if ti % 2 == 0 else "MODIFIED", ev)
                        + "\n")
        finally:
            for f in files.values():
                f.close()

    return _cached_fixture(path, render, force)


def ensure_filestats_dump(sf_dir_or_name: str, force: bool = False) -> str:
    """Stage a filestats stat-listing capture — each conversation as one
    matched log file (``/var/log/chat/<conv_id>.log``,
    sources/filestats.py): size = Σ length(text) over its turns,
    mtime = its last turn's epoch second, atime = its first turn's.
    One row per conversation (snapshot-bounded), sharded by
    n % FILESTATS_SHARDS."""
    from .sources.filestats import FILESTATS_SHARDS, encode_stat_line

    tdir = ensure_transcripts(sf_dir_or_name)
    path = os.path.join(FIXTURE_ROOT, sf_name(sf_dir_or_name), "filestats")

    def render(out: str) -> None:
        # accumulate per-conversation stats across part chunks (bounded by
        # conversation count, not turn count)
        size: dict[str, int] = {}
        mtime: dict[str, int] = {}
        atime: dict[str, int] = {}
        for part in sorted(os.listdir(tdir)):
            if not part.endswith(".parquet"):
                continue
            df = pq.read_table(
                os.path.join(tdir, part),
                columns=["conv_id", "text", "ts"]).to_pandas()
            ln = df["text"].str.len().astype("int64")
            ts_s = df["ts"].astype("int64") // 1_000_000
            g = df.assign(ln=ln, ts_s=ts_s).groupby("conv_id")
            agg = g.agg(sz=("ln", "sum"), mt=("ts_s", "max"),
                        at=("ts_s", "min"))
            for conv, row in agg.iterrows():
                size[conv] = size.get(conv, 0) + int(row["sz"])
                mtime[conv] = max(mtime.get(conv, 0), int(row["mt"]))
                atime[conv] = min(atime.get(conv, 1 << 62), int(row["at"]))
        files = {s: open(os.path.join(out, f"stat-{s}.jsonl"), "w",
                         encoding="utf-8") for s in range(FILESTATS_SHARDS)}
        try:
            for conv in sorted(size):
                s = int(conv[5:]) % FILESTATS_SHARDS
                files[s].write(encode_stat_line(
                    f"/var/log/chat/{conv}.log", size[conv], mtime[conv],
                    atime[conv]) + "\n")
        finally:
            for f in files.values():
                f.close()

    return _cached_fixture(path, render, force)


def ensure_cloudfoundry_dump(sf_dir_or_name: str,
                             force: bool = False) -> str:
    """Stage the transcripts as a loggregator v2 envelope dump — one
    envelope JSON line per turn (sources/cloudfoundry.py wire), the
    message oneof chosen by role:

    - user → ``log`` OUT (payload = the turn text, base64)
    - assistant → ``log`` ERR
    - tool → ``counter`` name = tool, delta = length(text), total =
      the running sum of delta over the conversation's turns with that
      tool name (cumulative counter semantics)
    - system → ``gauge`` {cpu: percentage = turn_idx,
      memory: bytes = length(text)}

    source_id = conv_id (the app-guid analogue), instance_id = n % 8,
    tags {origin: rep, deployment: cf}; timestamps are loggregator's
    STRING nanoseconds. Sharded by n % CF_SHARDS. Conversations are
    part-file-aligned (the transcript renderer's super-chunk contract),
    so the per-part running sums are global."""
    from .sources.cloudfoundry import CF_SHARDS, encode_envelope

    tdir = ensure_transcripts(sf_dir_or_name)
    path = os.path.join(FIXTURE_ROOT, sf_name(sf_dir_or_name),
                        "cloudfoundry")

    def render(out: str) -> None:
        files = {s: open(os.path.join(out, f"rlp-{s}.jsonl"), "w",
                         encoding="utf-8") for s in range(CF_SHARDS)}
        try:
            for part in sorted(os.listdir(tdir)):
                if not part.endswith(".parquet"):
                    continue
                df = pq.read_table(
                    os.path.join(tdir, part),
                    columns=["conv_id", "turn_idx", "role", "text", "tool",
                             "ts"]).to_pandas()
                n = df["conv_id"].str.slice(5).astype("int64").to_numpy()
                turn = df["turn_idx"].astype("int64").to_numpy()
                p = n % CF_SHARDS
                ts_ns = df["ts"].astype("int64").to_numpy() * 1000
                ln = df["text"].str.len().astype("int64")
                total = ln.groupby(
                    [df["conv_id"], df["tool"]]).cumsum().to_numpy()
                ln = ln.to_numpy()
                for i, (conv, role, text, tool) in enumerate(
                        zip(df["conv_id"], df["role"], df["text"],
                            df["tool"])):
                    ni, ti = int(n[i]), int(turn[i])
                    kw = {}
                    if role in ("user", "assistant"):
                        kw["log"] = {"payload": text,
                                     "type": "OUT" if role == "user"
                                     else "ERR"}
                    elif role == "tool":
                        kw["counter"] = {"name": tool, "delta": int(ln[i]),
                                         "total": int(total[i])}
                    else:
                        kw["gauge"] = {"metrics": {
                            "cpu": {"unit": "percentage", "value": ti},
                            "memory": {"unit": "bytes",
                                       "value": int(ln[i])},
                        }}
                    files[int(p[i])].write(encode_envelope(
                        int(ts_ns[i]), conv, str(ni % 8),
                        {"origin": "rep", "deployment": "cf"}, **kw) + "\n")
        finally:
            for f in files.values():
                f.close()

    return _cached_fixture(path, render, force)


def ensure_cloudwatch_dump(sf_dir_or_name: str, force: bool = False) -> str:
    """Stage the transcripts as CloudWatch Logs API event dumps — one
    FilterLogEvents-shaped JSON line per turn (sources/cloudwatch.py),
    fanned out per log group the way the receiver polls: group =
    ``/aws/chat/<role>`` (the group rides the filename slug), stream =
    conv_id, eventId = n·2¹⁶ + turn_idx (decimal string), timestamp =
    CloudWatch's millisecond unit (µs ts truncated), ingestionTime =
    timestamp + 123 ms. Sharded by n % CLOUDWATCH_SHARDS per group."""
    from .sources.cloudwatch import (CLOUDWATCH_SHARDS, encode_event,
                                     group_slug)

    tdir = ensure_transcripts(sf_dir_or_name)
    path = os.path.join(FIXTURE_ROOT, sf_name(sf_dir_or_name),
                        "cloudwatch")

    def render(out: str) -> None:
        handles: dict[tuple, object] = {}

        def handle(role: str, s: int):
            key = (role, s)
            if key not in handles:
                slug = group_slug(f"/aws/chat/{role}")
                handles[key] = open(
                    os.path.join(out, f"events-{slug}-{s}.jsonl"), "w",
                    encoding="utf-8")
            return handles[key]

        try:
            for part in sorted(os.listdir(tdir)):
                if not part.endswith(".parquet"):
                    continue
                df = pq.read_table(
                    os.path.join(tdir, part),
                    columns=["conv_id", "turn_idx", "role", "text",
                             "ts"]).to_pandas()
                n = df["conv_id"].str.slice(5).astype("int64").to_numpy()
                turn = df["turn_idx"].astype("int64").to_numpy()
                p = n % CLOUDWATCH_SHARDS
                ts_ms = df["ts"].astype("int64").to_numpy() // 1000
                for i, (conv, role, text) in enumerate(
                        zip(df["conv_id"], df["role"], df["text"])):
                    ni, ti, ms = int(n[i]), int(turn[i]), int(ts_ms[i])
                    handle(role, int(p[i])).write(encode_event(
                        ms, text, conv, str(ni * 65536 + ti), ms + 123)
                        + "\n")
        finally:
            for f in handles.values():
                f.close()

    return _cached_fixture(path, render, force)


def _capture_chunks(tdir: str):
    """Per-part-file (conv, turn, ln, role) arrays for the capture
    generators (proc/docker/kubelet/k8s) — the chunked read shape the
    solace stager established above: the text column never materializes
    whole (only its LENGTH is needed), and np.add.at scatter
    accumulation is order-independent, so consumers fold each ~100k-turn
    chunk into preallocated delta grids and post-process (cumsum, clamps)
    once after the sweep."""
    import pyarrow.compute as pc
    for part in sorted(os.listdir(tdir)):
        if not part.endswith(".parquet"):
            continue
        t = pq.read_table(os.path.join(tdir, part),
                          columns=["conv_id", "turn_idx", "role", "text"])
        conv = pc.cast(pc.utf8_slice_codeunits(t["conv_id"], 5, 99),
                       pa.int64()).to_numpy()
        turn = t["turn_idx"].to_numpy().astype("int64")
        ln = pc.utf8_length(t["text"]).to_numpy().astype("int64")
        role = t["role"].to_numpy(zero_copy_only=False)
        yield conv, turn, ln, role


def _host_tick(conv, turn, hosts: int, ticks: int):
    """The capture families' shared coordinate invariant (mirrored by
    every dump-replay SQL oracle): host (conv%64)%hosts, tick
    (conv+turn)%ticks — conv-offset so every tick sees activity even
    when conversations are short."""
    return (conv % 64) % hosts, (conv + turn) % ticks


def _scatter(grid, idx, weight):
    """Accumulating scatter-add into a preallocated grid (np.add.at
    handles repeated indices)."""
    np.add.at(grid.reshape(-1), idx, weight)


def ensure_proc_dump(sf_dir_or_name: str, force: bool = False) -> str:
    """Stage the transcripts as a hostmetrics /proc snapshot capture —
    HM_HOSTS host dirs × HM_SCRAPES 10 s ticks, each holding verbatim
    ``stat`` / ``meminfo`` / ``net_dev`` / ``diskstats`` / ``loadavg``
    text (the files the reference's enabled scrapers read,
    full_config_linux.yaml:104-120).

    Every counter derives SQL-replayably from the corpus: a turn lands on
    host ``(conv%64)%HM_HOSTS``, tick ``(conv+turn_idx)%HM_SCRAPES``
    (conv-offset so every tick sees activity even when conversations are
    short), cpu ``(conv//4)%HM_CPUS`` (independent of the host digit —
    conv%2 would pin each host's parity to one cpu), and contributes
    integer jiffy/byte/op weights
    (user=len(text), system=(turn_idx%29)+1, idle=100, rx/tx split by
    role, sectors=len//512); cumulative counters are prefix sums over
    ticks. The file count is hosts×ticks regardless of scale — the
    snapshot side stays tiny while the derivation sweeps every turn."""
    from .sources import procfs as pf

    assert pf.HM_BASE_US == BASE_EPOCH_US
    tdir = ensure_transcripts(sf_dir_or_name)
    path = os.path.join(FIXTURE_ROOT, sf_name(sf_dir_or_name), "proc")

    def render(out: str) -> None:
        H, S, C = pf.HM_HOSTS, pf.HM_SCRAPES, pf.HM_CPUS
        # preallocated delta grids, scatter-filled one transcript part file
        # at a time (never the whole text column resident)
        du, dsys, didle, rd, rs, wr, ws = (
            np.zeros((H, S, C), dtype="int64") for _ in range(7))
        (used, bufn, cache, rxb, rxp, txb, txp, lob, lop, created, running,
         blocked, sw_cached, sw_used, pgpgin, pgpgout, pswpin, pswpout,
         pgfault, pgmaj, fs_ub, fs_ob, fs_nt) = (
            np.zeros((H, S), dtype="int64") for _ in range(23))
        for conv, turn, ln, role in _capture_chunks(tdir):
            h, s = _host_tick(conv, turn, H, S)
            c = (conv // 4) % C  # independent of the host digit — conv%2
            # would pin each host's parity to one cpu
            hs = h * S + s
            hsc = hs * C + c
            is_user = role == "user"
            is_asst = role == "assistant"
            is_tool = role == "tool"
            one = np.ones_like(ln)
            # cpu jiffy deltas per (h, s, c)
            _scatter(du, hsc, ln)
            _scatter(dsys, hsc, turn % 29 + 1)
            _scatter(didle, hsc, 100 * one)
            # memory gauge components per (h, s)
            _scatter(used, hs, ln)
            _scatter(bufn, hs, one)
            _scatter(cache, hs, turn % 97)
            # network byte/packet deltas per (h, s), split by role
            _scatter(rxb, hs[is_user], ln[is_user])
            _scatter(rxp, hs[is_user], one[is_user])
            _scatter(txb, hs[is_asst], ln[is_asst])
            _scatter(txp, hs[is_asst], one[is_asst])
            _scatter(lob, hs[is_tool], ln[is_tool])
            _scatter(lop, hs[is_tool], one[is_tool])
            # disk op/sector deltas per (h, s, c); device = sda/sdb
            _scatter(rd, hsc[~is_asst], one[~is_asst])
            _scatter(rs, hsc[~is_asst], ln[~is_asst] // 512)
            _scatter(wr, hsc[is_asst], one[is_asst])
            _scatter(ws, hsc[is_asst], ln[is_asst] // 512)
            # process counters
            _scatter(created, hs, one)
            _scatter(running, hs[is_user], one[is_user])
            _scatter(blocked, hs[is_tool], one[is_tool])
            # paging swap gauges + vmstat page/swap/fault deltas (weights
            # chosen distinct from every other scraper family)
            _scatter(sw_cached, hs, turn % 53)
            _scatter(sw_used, hs, ln % 63)
            _scatter(pgpgin, hs[is_user], ln[is_user] % 127)
            _scatter(pgpgout, hs[is_asst], ln[is_asst] % 131)
            _scatter(pswpin, hs[is_tool], turn[is_tool] % 13)
            _scatter(pswpout, hs[is_asst], turn[is_asst] % 11)
            _scatter(pgfault, hs, ln % 251)
            _scatter(pgmaj, hs, (ln % 7 == 0).astype("int64"))
            # filesystem: root mount fills with user bytes, data mount rest
            _scatter(fs_ub, hs[is_user], ln[is_user])
            _scatter(fs_ob, hs[~is_user], ln[~is_user])
            _scatter(fs_nt, hs[is_tool], one[is_tool])
        # post-sweep: cumulative counters are prefix sums over ticks
        ju, js, ji = (a.cumsum(axis=1) for a in (du, dsys, didle))
        buf = 4 * bufn
        free = np.maximum(pf.HM_TOTAL_KB - used - buf - cache, 0)
        rxb, rxp, txb, txp, lob, lop = (
            a.cumsum(axis=1) for a in (rxb, rxp, txb, txp, lob, lop))
        rd, rs, wr, ws = (a.cumsum(axis=1) for a in (rd, rs, wr, ws))
        created = created.cumsum(axis=1)
        sw_free = np.maximum(pf.HM_SWAP_KB - sw_used - sw_cached, 0)
        pgpgin, pgpgout, pswpin, pswpout, pgfault, pgmaj = (
            a.cumsum(axis=1)
            for a in (pgpgin, pgpgout, pswpin, pswpout, pgfault, pgmaj))
        fs_u1 = 10240 + fs_ub.cumsum(axis=1) // 16
        fs_u2 = 20480 + fs_ob.cumsum(axis=1) // 8
        fs_i1 = 1000 + created // 4
        fs_i2 = 2000 + fs_nt.cumsum(axis=1) // 2

        for hh in range(H):
            for ss in range(S):
                d = os.path.join(out, f"host-{hh}", f"scrape-{ss:04d}")
                os.makedirs(d)
                jif = [[int(ju[hh, ss, cc]), 0, int(js[hh, ss, cc]),
                        int(ji[hh, ss, cc]), 0, 0, 0, 0] for cc in range(C)]
                with open(os.path.join(d, "stat"), "w") as f:
                    f.write(pf.render_stat(jif, int(created[hh, ss]),
                                           int(running[hh, ss]),
                                           int(blocked[hh, ss])))
                with open(os.path.join(d, "meminfo"), "w") as f:
                    f.write(pf.render_meminfo(int(free[hh, ss]),
                                              int(buf[hh, ss]),
                                              int(cache[hh, ss]),
                                              int(sw_free[hh, ss]),
                                              int(sw_cached[hh, ss])))
                with open(os.path.join(d, "vmstat"), "w") as f:
                    f.write(pf.render_vmstat(
                        int(pgpgin[hh, ss]), int(pgpgout[hh, ss]),
                        int(pswpin[hh, ss]), int(pswpout[hh, ss]),
                        int(pgfault[hh, ss]), int(pgmaj[hh, ss])))
                with open(os.path.join(d, "df"), "w") as f:
                    f.write(pf.render_df({
                        "sda1": (int(fs_u1[hh, ss]), int(fs_i1[hh, ss])),
                        "sdb1": (int(fs_u2[hh, ss]), int(fs_i2[hh, ss]))}))
                with open(os.path.join(d, "net_dev"), "w") as f:
                    f.write(pf.render_net_dev({
                        "eth0": (int(rxb[hh, ss]), int(rxp[hh, ss]),
                                 int(txb[hh, ss]), int(txp[hh, ss])),
                        "lo": (int(lob[hh, ss]), int(lop[hh, ss]),
                               int(lob[hh, ss]), int(lop[hh, ss]))}))
                with open(os.path.join(d, "diskstats"), "w") as f:
                    f.write(pf.render_diskstats({
                        "sda": (int(rd[hh, ss, 0]), int(rs[hh, ss, 0]),
                                int(wr[hh, ss, 0]), int(ws[hh, ss, 0])),
                        "sdb": (int(rd[hh, ss, 1]), int(rs[hh, ss, 1]),
                                int(wr[hh, ss, 1]), int(ws[hh, ss, 1]))}))
                u = int(used[hh, ss])
                with open(os.path.join(d, "loadavg"), "w") as f:
                    f.write(pf.render_loadavg(
                        (u * 7 + ss) % 1600, (u * 5 + ss) % 800,
                        (u * 3 + ss) % 400, int(running[hh, ss]),
                        int(created[hh, ss]), 1000 + ss))

    return _cached_fixture(path, render, force)


def ensure_docker_dump(sf_dir_or_name: str, force: bool = False) -> str:
    """Stage the transcripts as a docker_stats capture — host-H/scrape-S
    dirs (procfs layout) each holding a ``docker`` JSONL file with one
    stats-API object per container (DK_CONTAINERS per host, a turn lands
    on container ``conv % 3``).

    SQL-replayable derivations per (host h, tick s, container k):
    cpu total Δ = Σlen·100000 ns; system Δ (host-wide, every tick) =
    Σlen·400000 + 10^7; memory cache = Σ(turn%89)·1024 and usage =
    cache + Σ(len%509)·4096 (gauges); network rx/tx = cumulative user/
    assistant bytes; blkio read/write = cumulative Σ(len%1021) over
    non-assistant / Σ(len%1031) over assistant turns."""
    from .sources import dockerstats as dk
    from .sources import procfs as pf

    tdir = ensure_transcripts(sf_dir_or_name)
    path = os.path.join(FIXTURE_ROOT, sf_name(sf_dir_or_name), "docker")

    def render(out: str) -> None:
        H, S, K = pf.HM_HOSTS, pf.HM_SCRAPES, dk.DK_CONTAINERS
        total_ns, cache0, usage0, rx, tx, br, bw = (
            np.zeros((H, S, K), dtype="int64") for _ in range(7))
        sys0 = np.zeros((H, S), dtype="int64")
        for conv, turn, ln, role in _capture_chunks(tdir):
            h, s = _host_tick(conv, turn, H, S)
            k = conv % K
            hs = h * S + s
            hsk = hs * K + k
            is_user = role == "user"
            is_asst = role == "assistant"
            _scatter(total_ns, hsk, ln * 100_000)
            _scatter(sys0, hs, ln * 400_000)
            _scatter(cache0, hsk, turn % 89)
            _scatter(usage0, hsk, ln % 509)
            _scatter(rx, hsk[is_user], ln[is_user])
            _scatter(tx, hsk[is_asst], ln[is_asst])
            _scatter(br, hsk[~is_asst], ln[~is_asst] % 1021)
            _scatter(bw, hsk[is_asst], ln[is_asst] % 1031)
        total_ns = total_ns.cumsum(axis=1)
        sys_ns = (sys0 + 10_000_000).cumsum(axis=1)
        cache = cache0 * 1024
        usage = cache + usage0 * 4096
        rx, tx, br, bw = (a.cumsum(axis=1) for a in (rx, tx, br, bw))

        for hh in range(H):
            for ss in range(S):
                d = os.path.join(out, f"host-{hh}", f"scrape-{ss:04d}")
                os.makedirs(d)
                lines = [dk.render_stats_line(
                    f"ctr-{hh}-{kk}", f"svc-{kk}", f"img-{kk % 2}",
                    int(total_ns[hh, ss, kk]), int(sys_ns[hh, ss]),
                    int(usage[hh, ss, kk]), int(cache[hh, ss, kk]),
                    int(rx[hh, ss, kk]), int(tx[hh, ss, kk]),
                    int(br[hh, ss, kk]), int(bw[hh, ss, kk]))
                    for kk in range(K)]
                with open(os.path.join(d, "docker"), "w") as f:
                    f.write("\n".join(lines) + "\n")

    return _cached_fixture(path, render, force)


def ensure_kubelet_dump(sf_dir_or_name: str, force: bool = False) -> str:
    """Stage the transcripts as kubelet /stats/summary captures —
    host-H/scrape-S dirs (procfs layout) each holding ``summary.json``
    (public k8s stats/v1alpha1 Summary subset: node / pods / containers
    / volumeStats).

    SQL-replayable derivations: pod p = (conv//2) % 3, container c =
    turn_idx % 2; per (node h, tick s, pod p) cpu Δ = Σlen·50000 ns
    (cumulative), nanocores gauge = Σlen·5000, workingSet =
    Σ(len%769)·2048, network rx/tx = cumulative user/assistant bytes;
    containers use Σlen·25000 / Σ(len%521)·1024 (no nanocores field —
    exercises present-only emission); node = Σ over pods plus constant
    bases (5·10⁶ ns and 5·10⁵ nanocores per tick, 1 GiB working set);
    per-pod volume: available = max(capacity − cumΣlen·4096, 0),
    inodesUsed = 100 + cum-count//2."""
    from .sources import kubeletstats as kl
    from .sources import procfs as pf

    tdir = ensure_transcripts(sf_dir_or_name)
    path = os.path.join(FIXTURE_ROOT, sf_name(sf_dir_or_name), "kubelet")

    def render(out: str) -> None:
        H, S, P, C = (pf.HM_HOSTS, pf.HM_SCRAPES, kl.KS_PODS,
                      kl.KS_CONTAINERS)
        pod_dns, pod_nano, pod_ws0, pod_rx, pod_tx, vol_len, vol_n = (
            np.zeros((H, S, P), dtype="int64") for _ in range(7))
        ctr_dns, ctr_ws0 = (np.zeros((H, S, P, C), dtype="int64")
                            for _ in range(2))
        for conv, turn, ln, role in _capture_chunks(tdir):
            h, s = _host_tick(conv, turn, H, S)
            p = (conv // 2) % P
            c = turn % C
            hsp = (h * S + s) * P + p
            hspc = hsp * C + c
            is_user = role == "user"
            is_asst = role == "assistant"
            one = np.ones_like(ln)
            _scatter(pod_dns, hsp, ln * 50_000)
            _scatter(pod_nano, hsp, ln * 5_000)
            _scatter(pod_ws0, hsp, ln % 769)
            _scatter(pod_rx, hsp[is_user], ln[is_user])
            _scatter(pod_tx, hsp[is_asst], ln[is_asst])
            _scatter(ctr_dns, hspc, ln * 25_000)
            _scatter(ctr_ws0, hspc, ln % 521)
            _scatter(vol_len, hsp, ln)
            _scatter(vol_n, hsp, one)
        pod_cns = pod_dns.cumsum(axis=1)
        pod_ws = pod_ws0 * 2048
        pod_rx, pod_tx = pod_rx.cumsum(axis=1), pod_tx.cumsum(axis=1)
        ctr_cns = ctr_dns.cumsum(axis=1)
        ctr_ws = ctr_ws0 * 1024
        node_cns = (pod_dns.sum(axis=2) + 5_000_000).cumsum(axis=1)
        node_nano = pod_nano.sum(axis=2) + 500_000
        node_ws = pod_ws.sum(axis=2) + 1_073_741_824
        node_rx, node_tx = pod_rx.sum(axis=2), pod_tx.sum(axis=2)
        vol_used = vol_len.cumsum(axis=1) * 4096
        vol_avail = np.maximum(kl.KS_VOL_CAPACITY - vol_used, 0)
        vol_iused = 100 + vol_n.cumsum(axis=1) // 2

        for hh in range(H):
            for ss in range(S):
                d = os.path.join(out, f"host-{hh}", f"scrape-{ss:04d}")
                os.makedirs(d)
                pods = []
                for pp in range(P):
                    ctrs = [{"name": f"c{cc}",
                             "cpu": {"usageCoreNanoSeconds":
                                     int(ctr_cns[hh, ss, pp, cc])},
                             "memory": {"workingSetBytes":
                                        int(ctr_ws[hh, ss, pp, cc])}}
                            for cc in range(C)]
                    vol = {"name": f"vol-{pp}",
                           "availableBytes": int(vol_avail[hh, ss, pp]),
                           "capacityBytes": kl.KS_VOL_CAPACITY,
                           "inodes": kl.KS_VOL_INODES,
                           "inodesFree": kl.KS_VOL_INODES
                           - int(vol_iused[hh, ss, pp]),
                           "inodesUsed": int(vol_iused[hh, ss, pp])}
                    pods.append(kl.pod_entry(
                        f"pod-{pp}", f"ns-{pp % 2}", f"uid-{hh}-{pp}",
                        int(pod_cns[hh, ss, pp]), int(pod_nano[hh, ss, pp]),
                        int(pod_ws[hh, ss, pp]), int(pod_rx[hh, ss, pp]),
                        int(pod_tx[hh, ss, pp]), ctrs, vol))
                node = {"cpu": {"usageCoreNanoSeconds":
                                int(node_cns[hh, ss]),
                                "usageNanoCores": int(node_nano[hh, ss])},
                        "memory": {"workingSetBytes": int(node_ws[hh, ss])},
                        "network": {"rxBytes": int(node_rx[hh, ss]),
                                    "txBytes": int(node_tx[hh, ss])}}
                with open(os.path.join(d, "summary.json"), "w") as f:
                    f.write(kl.render_summary(f"host-{hh}", node, pods))

    return _cached_fixture(path, render, force)


def ensure_k8s_dump(sf_dir_or_name: str, force: bool = False) -> str:
    """Stage the transcripts as k8s_cluster object-state snapshots — one
    ``scrape-S/objects.json`` per 10 s tick (cluster-level, no host dim)
    listing the 12 pods (node h × pod p, the kubelet world's pods), 3
    deployments and 4 nodes.

    Corpus-swept, SQL-replayable derivations per tick s: pod (h, p)
    activity act = Σlen of its turns that tick; phase = Pending when
    act = 0, else Succeeded/Failed/Unknown when act % 23/17/13 = 0 (in
    that precedence), else Running; container restartCount = cumulative
    count of turns with len % 31 = 0; container ready ⇔ phase Running;
    deployment deploy-p: desired = 4 (one pod per node), available =
    count of its Running pods; node Ready ⇔ node activity Σlen is
    nonzero and not divisible by 11."""
    from .sources import k8scluster as kc
    from .sources import procfs as pf

    tdir = ensure_transcripts(sf_dir_or_name)
    path = os.path.join(FIXTURE_ROOT, sf_name(sf_dir_or_name), "k8s")

    def render(out: str) -> None:
        H, S, P = pf.HM_HOSTS, pf.HM_SCRAPES, 3
        act, rst = (np.zeros((H, S, P), dtype="int64") for _ in range(2))
        for conv, turn, ln, _role in _capture_chunks(tdir):
            h, s = _host_tick(conv, turn, H, S)
            p = (conv // 2) % P
            hsp = (h * S + s) * P + p
            _scatter(act, hsp, ln)
            _scatter(rst, hsp, (ln % 31 == 0).astype("int64"))
        restarts = rst.cumsum(axis=1)
        phase = np.full((H, S, P), 2, dtype="int64")
        phase[act % 13 == 0] = 5
        phase[act % 17 == 0] = 4
        phase[act % 23 == 0] = 3
        phase[act == 0] = 1
        nact = act.sum(axis=2)
        node_ready = (nact != 0) & (nact % 11 != 0)
        avail = (phase == 2).sum(axis=0)  # (S, P) running-pod counts

        # labels exercise the discovery service-name precedence chain:
        # pod-0 carries app.kubernetes.io/instance (1st), pod-2 carries
        # app (3rd), pod-1 has none → the pod-name owner regexp
        labels = {0: {"app.kubernetes.io/instance": "inst-0"},
                  1: None, 2: {"app": "app-2"}}
        for ss in range(S):
            d = os.path.join(out, f"scrape-{ss:04d}")
            os.makedirs(d)
            pods = [{"name": f"pod-{pp}", "namespace": f"ns-{pp % 2}",
                     "uid": f"uid-{hh}-{pp}", "node": f"host-{hh}",
                     "phase": kc.phase_name(int(phase[hh, ss, pp])),
                     "labels": labels[pp],
                     "containers": [
                         {"name": f"c{cc}",
                          "restartCount": int(restarts[hh, ss, pp]),
                          "ready": bool(phase[hh, ss, pp] == 2)}
                         for cc in range(2)]}
                    for hh in range(H) for pp in range(P)]
            deps = [{"name": f"deploy-{pp}", "namespace": f"ns-{pp % 2}",
                     "desired": H, "available": int(avail[ss, pp])}
                    for pp in range(P)]
            nodes = [{"name": f"host-{hh}", "uid": f"nuid-{hh}",
                      "ready": bool(node_ready[hh, ss])}
                     for hh in range(H)]
            with open(os.path.join(d, "objects.json"), "w") as f:
                f.write(kc.render_objects(pods, deps, nodes))

    return _cached_fixture(path, render, force)
