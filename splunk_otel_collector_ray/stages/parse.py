"""Vectorized parse stage — the stanza operator chain of `filelog`, Ray-Data-first.

Reproduces (semantically, not mechanically) the reference's per-source operator
chains (citations into /root/reference):

- regex_parser with named capture groups → attributes
  (apache access: cmd/otelcol/config/collector/logs_config_linux.yaml:50-54)
- embedded `timestamp:` sub-parser (strptime layouts incl. %z, %L ms, epoch,
  %c locale; logs_config_linux.yaml:52-54,503-506) — parse_from field is
  consumed, record ts replaced, input ts kept as observed_ts fallback
- embedded `severity:` sub-parser with custom mapping tables
  (logs_config_linux.yaml:71-78 apache, :491-497 redis)
- json_parser (docker: logs_config_linux.yaml:155-171)
- move log→body + retain projection (logs_config_linux.yaml:78-84)
- router first-match classification (redis two-way router
  logs_config_linux.yaml:479-485; format families here play the role of the
  per-file sources of logs_config_linux.yaml:723-753)

Hot path is Arrow-native: classification and field extraction run through
pyarrow.compute's RE2 kernels (`match_substring_regex`, `extract_regex`) on
the zero-copy `text` column — no Python-level regex loop. Classification
is the router's first match over ``DETECT``, found by one RE2 gate (the
alternation of every row; a line it rejects is plain) and a fixed
bisection tree of alternations over ``DETECT`` slices, both derived from
``DETECT`` at import: at most six scans per matched line instead of up to
one per family. Extraction runs each family's one-pass twin (``TWIN``:
anchored pieces of at most 4 groups, explicit classes that stop at the
next delimiter) and the shipped ``RX`` pattern only on the rows the twin's
guard cannot prove equal. Each family only records (row idx, Arrow
values); body, severity (int8 level codes) and the attributes open-map (a
real Arrow `map<string,string>` built by takes from flat offsets) are each
assembled once per batch. Timestamps are parsed once per layout per batch
(the families of a layout concatenated) by Arrow kernels into
timestamp[us] — slices, a month map, the strptime kernel, offsets and
fractions as durations; only rows a slice cannot prove equal go through
pandas' strptime.

Each family's chain is one row of ``PLAN`` (timestamp layout, severity
table, body), run by one generic loop; every timestamp goes through
``_parse_time``.

Deployment shape: the stage holds no state, so ``ParseStage.as_fn()`` is a
plain function stage that fuses with the read and downstream task stages.

Output schema (FIXTURES.md §2):
  conv_id, turn_idx, role, tool            passthrough (+ any extra columns)
  ts          timestamp[us]   parsed from text when matched, else input ts
  observed_ts timestamp[us]   the input ts (ingest-time surrogate)
  log_format  string          detected family (= com.splunk.sourcetype value)
  body        string          message remnant after `move`, else raw line
  severity_text string / severity_number int8
  attributes  map<string,string>
  span_id     string          deterministic surrogate for tool-call turns
"""

from __future__ import annotations

import binascii
import re
from typing import NamedTuple

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.severity import (
    APACHE_ERROR_LEVELS,
    DEFAULT_LEVELS,
    ETCD_LEVELS,
    JSON_LEVEL_MAP,
    MONGODB_LEVELS,
    REDIS_LEVELS,
    SEVERITY_NUMBER,
)
from .enrich import conv_number

# family -> attribute keys kept after the chain's `retain` projection
FAMILY_ATTR_KEYS: dict[str, list[str]] = {
    # no move/retain in the apache-access chain → all capture groups kept
    # (time consumed by the timestamp sub-parser)
    "apache_access": [
        "host", "remote_logname", "user", "method", "path",
        "protocol", "code", "size", "referer", "agent",
    ],
    "apache_error": ["module"],        # retain: logs_config_linux.yaml:81-84
    "syslog": ["program"],             # retain: logs_config_linux.yaml:529-534
    "docker": ["stream"],              # retain: logs_config_linux.yaml:164-167
    "redis_server": ["redis_role"],    # retain attributes.role :510-513
    "redis_handler": ["redis_role"],
    "mongodb": ["ctx"],                # retain: logs_config_linux.yaml:294-297
    "etcd": [],                        # retain only log.file.path :188-191
    "json_level": [],                  # transform deletes Level/message/time
    "pii": [],
    "plain": [],
    "cassandra": ["thread"],           # retain: logs_config_linux.yaml:111-114
    "java_stack": [],                  # stack fragments (multiline :95-97)
    "jetty9": [],                      # retain only log.file.path :226-228
    "memcached": [],                   # no operators :268-274
    "mysql_error": [],                 # retain only log.file.path :326-328
    "mysql_query": [],                 # retain only log.file.path :355-357
    "mysql_slow": [],                  # no operators :365-375
    "nginx_error": [],                 # retain only log.file.path :410-412
    "postgresql": [],                  # retain only log.file.path :430-432
    "rabbitmq": [],                    # retain only log.file.path :454-456
    "tomcat": ["thread", "function"],  # retain :557-560
    "zookeeper": ["thread", "class"],  # retain :621-624
    # NCSA common (jetty9-request :255-266 / tomcat access :592-604): no
    # retain op → all capture groups kept, time consumed by the ts sub-parser
    "ncsa_common": [
        "host", "remote_logname", "user", "method", "path",
        "protocol", "code", "size",
    ],
}

# extraction patterns (verbatim semantics from the shipped configs; all-named
# groups so pyarrow's RE2 extract_regex can run them)
RX = {
    # NCSA combined (logs_config_linux.yaml:51)
    "apache_access": (
        r'^(?P<host>.+) (?P<remote_logname>.+) (?P<user>.+) \[(?P<time>.+)\] '
        r'"(?P<method>.+) (?P<path>.+) (?P<protocol>.+)" (?P<code>\d+) '
        r'(?P<size>\d+) "(?P<referer>.+)" "(?P<agent>.+)"$'),
    "apache_error": (
        r"^\[(?P<time>.+?)\] \[(?P<module>\w+):(?P<level>\w+)\] "
        r"\[pid (?P<pid>\d+):tid (?P<tid>\d+)\] (?P<log>.*)$"),
    "syslog": (
        r"^(?P<time>.+?) (?P<hostname>\S+) (?P<program>[^ :\[]+)"
        r"\[?(?P<pid>\d+)?\]?: (?P<log>.*)$"),
    "redis_server": (
        r"^(?P<pid>\d+):(?P<role>\S*) (?P<time>.+?) (?P<level>.) (?P<log>.*)$"),
    "redis_handler": (
        r"^(?P<pid>\d+):(?P<role>\S*) \((?P<time>\d+)\) (?P<log>.*)$"),
    "docker": (
        r'^\{"log":"(?P<log>.*)","stream":"(?P<stream>[a-z]+)",'
        r'"time":"(?P<time>[^"]+)"\}$'),
    "json_level": (
        r'^\{"Level":"(?P<level>[A-Z]+)","message":"(?P<message>.*)",'
        r'"time":"(?P<time>[^"]+)"\}$'),
    # mongodb json_parser + attributes.t.$$date ts + s severity
    # (logs_config_linux.yaml:275-300)
    "mongodb": (
        r'^\{"t":\{"\$date":"(?P<time>[^"]+)"\},"s":"(?P<level>[A-Z0-9]+)",'
        r'"c":"(?P<component>[A-Z]+)","ctx":"(?P<ctx>[^"]+)",'
        r'"msg":"(?P<log>.*)"\}$'),
    # etcd capnslog (logs_config_linux.yaml:180-187)
    "etcd": r"^(?P<time>.+?) (?P<level>\w) \| (?P<log>.*)$",
    "pii": r"(?P<before>.*)\d\d\d\d-\d\d\d-\d\d\d\d(?P<after>.*)",
    # logs_config_linux.yaml:99 (cassandra regex_parser)
    "cassandra": (
        r"^(?P<level>\w+) +\[(?P<thread>[\w:]+)\] (?P<time>.+) "
        r"(?P<source_file>\S+):(?P<source_line>\d+) - (?P<log>[\s\S]*)$"),
    # logs_config_linux.yaml:216 (jetty9 regex_parser)
    "jetty9": (
        r"^(?P<time>[\d-]{10} [\d:.]{12}):(?P<level>\w+):"
        r"(?P<class>[\w.]+):(?P<thread>[\w:]+?): (?P<log>.*)$"),
    # logs_config_linux.yaml:317 (mysql-error regex_parser)
    "mysql_error": r"^(?P<time>.+?) \d+ \[(?P<level>\w+)\] (?P<log>[\s\S]*)$",
    # logs_config_linux.yaml:348 (mysql-query parse_query_log)
    "mysql_query": r"^(?P<time>\d{6} [\d:.]+)\s+(?P<log>[\s\S]*)$",
    # logs_config_linux.yaml:394 (nginx-error regex_parser)
    "nginx_error": (
        r"^(?P<time>.+?) \[(?P<level>\w+)\] (?P<pid>\d+)#(?P<tid>\d+): "
        r"(?P<log>.*)$"),
    # logs_config_linux.yaml:421 (postgresql regex_parser)
    "postgresql": r"^(?P<time>.+?) \[(?P<pid>\d+)\] (?P<log>.*)$",
    # logs_config_linux.yaml:443 (rabbitmq regex_parser)
    "rabbitmq": (
        r"^(?P<time>.+?) \[(?P<level>\w+)\] <(?P<erlang_pid>[\d.]+)> "
        r"(?P<log>[\s\S]*)$"),
    # logs_config_linux.yaml:548 (tomcat regex_parser)
    "tomcat": (
        r"^(?P<time>.+?) (?P<level>\w+) \[(?P<thread>[\w:-]+)\] "
        r"(?P<function>\S+) (?P<log>[\s\S]*)$"),
    # logs_config_linux.yaml:612 (zookeeper regex_parser)
    "zookeeper": (
        r"^(?P<time>.+?) - (?P<level>\w+) +\[(?P<thread>[\w:]+?):"
        r"(?P<class>\w+)@(?P<line>\d+|\?)\] - (?P<log>.*)$"),
    # logs_config_linux.yaml:259 (jetty9-request NCSA common)
    "ncsa_common": (
        r'^(?P<host>.+) (?P<remote_logname>.+) (?P<user>.+) '
        r'\[(?P<time>.+)\] "(?P<method>.+) (?P<path>.+) (?P<protocol>.+)" '
        r'(?P<code>\d+) (?P<size>\d+)$'),
}

# one-pass extraction twins of the RX patterns. The shipped patterns open
# with lazy `.+?` time groups, greedy `.+`/`.*` fields and up to 11
# groups, so RE2 leaves its one-pass matcher (it runs that only on a
# one-pass pattern with at most 4 capture groups): 0.4-12 µs/row. A twin
# captures only the groups PLAN and FAMILY_ATTR_KEYS read, at most 4 per
# piece; each piece is anchored, and each group is an explicit class that
# stops at the delimiter after it, in the shape DETECT pins, so every
# piece is one-pass (0.3-0.7 µs/row). A twin's groups are used on a row
# only when every piece matched and every `counts` substring occurs
# exactly that often; there the shipped pattern's lazy or greedy groups
# can end only where the twin's do (the twin's time is the shortest time
# RX could take, its fields stop at delimiters that occur once). Every
# other row runs the shipped pattern. No class holds '\n', because RE2's
# `.` never matches it, so a line with a '\n' never takes a twin. Where a
# family reads more than 4 groups, its fixed-width time is the line's
# first `time_width` characters, and the NCSA pair split their groups
# over pieces that each repeat the same one-pass prefix.
# `tests/test_parse_properties.py` pins twin == shipped pattern.
class Twin(NamedTuple):
    pieces: tuple[str, ...]                 # each anchored, ≤4 groups
    counts: tuple[tuple[str, int], ...] = ()  # (substring, exact count)
    time_width: int = 0                     # >0: time = the first N chars


_YMD = r"[0-9]{4}-[0-9]{2}-[0-9]{2}"
_HMS = r"[0-9]{2}:[0-9]{2}:[0-9]{2}"
# NCSA: no field class holds '[', ']' or '"', so a line the twin matches
# has exactly one '[' and one ']' and the pattern's '"' count; there no
# shipped `.+` group can hold one of them, every group is bounded by a
# fixed delimiter, and the twin's space-free classes are the only split
_NCSA_HEAD = r'^[^ \[\]"\n]+ [^ \[\]"\n]+ [^ \[\]"\n]+ \[[^\[\]"\n]+\] "'
_NCSA_PIECES = (
    r'^(?P<host>[^ \[\]"\n]+) (?P<remote_logname>[^ \[\]"\n]+) '
    r'(?P<user>[^ \[\]"\n]+) \[(?P<time>[^\[\]"\n]+)\] "',
    _NCSA_HEAD + r'(?P<method>[^ \[\]"\n]+) (?P<path>[^ \[\]"\n]+) '
    r'(?P<protocol>[^ \[\]"\n]+)" (?P<code>[0-9]+) ')
_NCSA_SIZE = (_NCSA_HEAD + r'[^ \[\]"\n]+ [^ \[\]"\n]+ [^ \[\]"\n]+" '
              r'[0-9]+ (?P<size>[0-9]+)')
TWIN: dict[str, Twin] = {
    "apache_access": Twin(_NCSA_PIECES + (
        _NCSA_SIZE + r' "(?P<referer>[^\[\]"\n]+)" '
        r'"(?P<agent>[^\[\]"\n]+)"$',)),
    "apache_error": Twin((
        r"^\[(?P<time>[^\]\n]+)\] \[(?P<module>\w+):(?P<level>\w+)\] "
        r"\[pid [0-9]+:tid [0-9]+\] (?P<log>.*)$",)),
    "syslog": Twin((
        r"^(?P<time>[A-Z][a-z]{2} [ 0-9][0-9] " + _HMS + r") [^ :\t\n\f\r]+ "
        r"(?P<program>[^ :\[\t\n\f\r]+)(?:\[[0-9]+\])?: (?P<log>.*)$",)),
    "redis_server": Twin((
        r"^[0-9]+:(?P<role>\S*) (?P<time>[0-9]{2} [A-Z][a-z]{2} [0-9]{4} "
        + _HMS + r"\.[0-9]{3}) (?P<level>.) (?P<log>.*)$",)),
    "redis_handler": Twin((
        r"^[0-9]+:(?P<role>\S*) \((?P<time>[0-9]+)\) (?P<log>.*)$",)),
    "docker": Twin((
        r'^\{"log":"(?P<log>[^"\n]*)","stream":"(?P<stream>[a-z]+)",'
        r'"time":"(?P<time>[^"\n]+)"\}$',)),
    "json_level": Twin((
        r'^\{"Level":"(?P<level>[A-Z]+)","message":"[^"\n]*",'
        r'"time":"[^"\n]+"\}$',)),
    "mongodb": Twin((
        r'^\{"t":\{"\$date":"(?P<time>[^"\n]+)"\},"s":"(?P<level>[A-Z0-9]+)",'
        r'"c":"[A-Z]+","ctx":"(?P<ctx>[^"\n]+)","msg":"(?P<log>[^"\n]*)"\}$',
    )),
    "etcd": Twin((
        r"^(?P<time>" + _YMD + " " + _HMS + r") (?P<level>\w) \| (?P<log>.*)$",
    )),
    # the phone is the line's only digit run
    "pii": Twin((
        r"^(?P<before>[^0-9\n]*)[0-9]{4}-[0-9]{3}-[0-9]{4}"
        r"(?P<after>[^0-9\n]*)$",)),
    # RX's time is greedy: it ends at the last ' - ', so allow only one
    "cassandra": Twin((
        r"^(?P<level>\w+) +\[(?P<thread>[\w:]+)\] (?P<time>" + _YMD + " "
        + _HMS + r") [^ :\t\n\f\r]+:[0-9]+ - (?P<log>.*)$",), ((" - ", 1),)),
    "jetty9": Twin((
        r"^(?P<time>[0-9-]{10} [0-9:.]{12}):(?P<level>\w+):[\w.]+:\w+: "
        r"(?P<log>.*)$",)),
    "mysql_error": Twin((
        r"^(?P<time>" + _YMD + " " + _HMS + r") [0-9]+ \[(?P<level>\w+)\] "
        r"(?P<log>.*)$",)),
    "mysql_query": Twin((
        r"^(?P<time>[0-9]{6} [0-9:.]+)[\t\f\r ]+"
        r"(?P<log>(?:[^\t\n\f\r ].*)?)$",)),
    "nginx_error": Twin((
        r"^(?P<time>[0-9]{4}/[0-9]{2}/[0-9]{2} " + _HMS + r") "
        r"\[(?P<level>\w+)\] [0-9]+#[0-9]+: (?P<log>.*)$",)),
    "postgresql": Twin((
        r"^(?P<time>" + _YMD + " " + _HMS + r"\.[0-9]{3} UTC) \[[0-9]+\] "
        r"(?P<log>.*)$",)),
    "rabbitmq": Twin((
        r"^(?P<time>" + _YMD + " " + _HMS + r"\.[0-9]{3}) \[(?P<level>\w+)\] "
        r"<[0-9.]+> (?P<log>.*)$",)),
    "tomcat": Twin((
        r"^[0-9]{2}-[A-Z][a-z]{2}-[0-9]{4} " + _HMS + r" (?P<level>\w+) "
        r"\[(?P<thread>[\w:-]+)\] (?P<function>\S+) (?P<log>.*)$",),
        time_width=20),
    # a thread without ':' (RX's lazy thread ends at the last ':')
    "zookeeper": Twin((
        r"^" + _YMD + " " + _HMS + r" - (?P<level>\w+) +\[(?P<thread>\w+):"
        r"(?P<class>\w+)@(?:[0-9]+|\?)\] - (?P<log>.*)$",), time_width=19),
    "ncsa_common": Twin(_NCSA_PIECES + (_NCSA_SIZE + "$",)),
}

# one stanza chain per family: family -> (ts layout, severity table, lower
# the severity token, body). The layout goes to `_parse_time` (None: no
# timestamp sub-parser); the body is an RX group, a function of the
# extracted fields, or None (the raw line stays the body). Families
# without a plan (memcached, mysql_slow, java_stack, plain) have no
# operator chain: body = line, no ts/severity.
PLAN: dict[str, tuple] = {
    "apache_access": ("%d/%b/%Y:%H:%M:%S %z", None, False, None),
    "apache_error": ("%a %b %d %H:%M:%S %Y", APACHE_ERROR_LEVELS, False,
                     "log"),
    # no year in the layout (%b %e %H:%M:%S): stanza infers the current
    # year, the loop pins the observed (input) ts year in front
    "syslog": ("%Y %b %d %H:%M:%S", None, False, "log"),
    "redis_server": ("%d %b %Y %H:%M:%S.%f", REDIS_LEVELS, False, "log"),
    # layout_type: epoch, layout: s (logs_config_linux.yaml:503-506)
    "redis_handler": ("epoch", None, False, "log"),
    "docker": ("%Y-%m-%dT%H:%M:%S.%fZ", None, False,
               lambda f: pc.replace_substring(f["log"], "\\n", "\n")),
    # transform deletes Level/message/time; body stays the raw line
    "json_level": (None, JSON_LEVEL_MAP, False, None),
    # layout '%Y-%m-%dT%H:%M:%S.%L%z' (logs_config_linux.yaml:280)
    "mongodb": ("%Y-%m-%dT%H:%M:%S.%f%z", MONGODB_LEVELS, False, "log"),
    "etcd": ("%Y-%m-%d %H:%M:%S", ETCD_LEVELS, False, "log"),
    # regex_parser parse_to body.parsed + add body
    # EXPR(before + "XXX-XXX-XXXX" + after)
    "pii": (None, None, False, lambda f: pc.binary_join_element_wise(
        f["before"], f["after"], "XXX-XXX-XXXX")),
    "cassandra": ("%Y-%m-%d %H:%M:%S", DEFAULT_LEVELS, True, "log"),
    "jetty9": ("%Y-%m-%d %H:%M:%S.%f", DEFAULT_LEVELS, True, "log"),
    "mysql_error": ("%Y-%m-%d %H:%M:%S", DEFAULT_LEVELS, True, "log"),
    "mysql_query": ("%y%m%d %H:%M:%S", None, False, "log"),
    "nginx_error": ("%Y/%m/%d %H:%M:%S", APACHE_ERROR_LEVELS, False, "log"),
    # layout '%Y-%m-%d %H:%M:%S.%L %Z' (:426): the loop strips the %Z zone
    # name before parsing (the corpus always stamps UTC)
    "postgresql": ("%Y-%m-%d %H:%M:%S.%f", None, False, "log"),
    "rabbitmq": ("%Y-%m-%d %H:%M:%S.%f", DEFAULT_LEVELS, True, "log"),
    "tomcat": ("%d-%b-%Y %H:%M:%S", DEFAULT_LEVELS, True, "log"),
    "zookeeper": ("%Y-%m-%d %H:%M:%S", DEFAULT_LEVELS, True, "log"),
    "ncsa_common": ("%d/%b/%Y:%H:%M:%S %z", None, False, None),
}

# detection, in router order (first match wins) — stanza router exprs; the
# JSON/bracket families are cheap prefix tests, the rest anchored RE2.
# The per-family patterns are mutually exclusive by construction (each is
# anchored on a distinct timestamp/level shape), so ordering among them only
# matters for the shared-prefix groups noted inline.
DETECT: list[tuple[str, str, str]] = [  # (family, kind, pattern)
    ("docker", "prefix", '{"log":'),
    ("json_level", "prefix", '{"Level":'),
    ("mongodb", "prefix", '{"t":'),
    ("apache_error", "prefix", "["),
    ("memcached", "prefix", "<"),
    ("java_stack", "regex", r"^(\tat |Caused by: )"),
    ("mysql_slow", "regex", r"^(# Time: |# User@Host: |SELECT )"),
    ("etcd", "regex",
     r"^\d{4}-\d{2}-\d{2} \d{2}:\d{2}:\d{2} [A-Z] \| "),
    ("jetty9", "regex",
     r"^\d{4}-\d{2}-\d{2} \d{2}:\d{2}:\d{2}\.\d{3}:[A-Z]+:"),
    ("postgresql", "regex",
     r"^\d{4}-\d{2}-\d{2} \d{2}:\d{2}:\d{2}\.\d{3} UTC \[\d+\] "),
    ("rabbitmq", "regex",
     r"^\d{4}-\d{2}-\d{2} \d{2}:\d{2}:\d{2}\.\d{3} \[[a-z]+\] <"),
    ("mysql_error", "regex",
     r"^\d{4}-\d{2}-\d{2} \d{2}:\d{2}:\d{2} \d+ \[\w+\] "),
    ("zookeeper", "regex",
     r"^\d{4}-\d{2}-\d{2} \d{2}:\d{2}:\d{2} - [A-Z]+ +\["),
    ("mysql_query", "regex", r"^\d{6} \d{2}:\d{2}:\d{2}"),
    ("nginx_error", "regex",
     r"^\d{4}/\d{2}/\d{2} \d{2}:\d{2}:\d{2} \[[a-z0-9]+\] \d+#\d+: "),
    ("tomcat", "regex",
     r"^\d{2}-[A-Z][a-z]{2}-\d{4} \d{2}:\d{2}:\d{2} [A-Z]+ \["),
    ("cassandra", "regex", r"^[A-Z]+ +\[[\w:]+\] \d"),
    # redis router expr order: handler first (logs_config_linux.yaml:480-485)
    ("redis_handler", "regex", r"^[0-9]+:[\w-]+ \([0-9]+\) "),
    ("redis_server", "regex", r"^[0-9]+:[A-Z] "),
    # combined NCSA before common NCSA: combined requires the trailing
    # "referer" "agent" pair that common lines lack (and vice versa: common
    # requires end-of-line after size) — disjoint, order kept for clarity
    ("apache_access", "regex", RX["apache_access"]),
    ("ncsa_common", "regex", RX["ncsa_common"]),
    ("syslog", "regex", r"^[A-Z][a-z]{2} [ \d]\d \d{2}:\d{2}:\d{2} \S+ "),
    # sanitization family: any line bearing a phone-shaped token
    # (examples/otel-logs-sanitization-splunk/otel-collector-config.yml:6)
    ("pii", "regex", r"\d{4}-\d{3}-\d{4}"),
]


def _detect_alt(rows: list[tuple[str, str, str]]) -> str:
    """One RE2 pattern that matches a line iff some ``DETECT`` row of
    ``rows`` does: a prefix row as its anchored literal, a regex row as a
    non-capturing group with its group names dropped. The NCSA pair share
    their names, and a regex engine may refuse a name used twice (pyarrow
    16's RE2 accepts it, Python's ``re`` does not). Only ``(?P<name>``
    changes, so an escaped ``\\(`` keeps its meaning."""
    return "|".join(
        "^" + re.escape(pat) if kind == "prefix"
        else "(?:" + re.sub(r"\(\?P<\w+>", "(", pat) + ")"
        for _, kind, pat in rows)


def _bisect_nodes(lo: int, hi: int) -> dict[tuple[int, int], str]:
    """The classify tree over ``DETECT[lo:hi]``: node (lo, hi) → the
    alternation of its left half ``DETECT[lo:mid]``, mid = (lo + hi) // 2."""
    if hi - lo < 2:
        return {}
    mid = (lo + hi) // 2
    return {(lo, hi): _detect_alt(DETECT[lo:mid]),
            **_bisect_nodes(lo, mid), **_bisect_nodes(mid, hi)}


# classify's gate (a line some DETECT row matches) and its bisection tree,
# both derived from DETECT: a new family is a DETECT row and nothing else
_GATE = _detect_alt(DETECT)
_NODES = _bisect_nodes(0, len(DETECT))


def _np(arr) -> np.ndarray:
    return arr.to_numpy(zero_copy_only=False)


_MONTH_NUM = {m: f"{i:02d}" for i, m in enumerate(
    ["Jan", "Feb", "Mar", "Apr", "May", "Jun",
     "Jul", "Aug", "Sep", "Oct", "Nov", "Dec"], 1)}

# layouts with %a/%b/%z, where strptime would need a locale or a zone:
# parsed by fixed-width slices, a month map, the numeric strptime kernel
# and a zone offset or fraction added as a duration; a row the slicing
# cannot prove (e.g. a space-padded day) takes the per-row strptime
_FAST_LAYOUTS = {
    "%d/%b/%Y:%H:%M:%S %z", "%a %b %d %H:%M:%S %Y",
    "%d %b %Y %H:%M:%S.%f", "%d-%b-%Y %H:%M:%S", "%Y %b %d %H:%M:%S",
    "%Y-%m-%dT%H:%M:%S.%f%z",
}

# the one shape of the syslog layout (year pinned in front) that is sliced;
# every other string keeps pandas' own strptime, whose %b/%d/%H accept more
_SYSLOG_SHAPE = (r"^[0-9]{4} [A-Z][a-z]{2} [ 0-9][0-9] "
                 r"[0-9]{2}:[0-9]{2}:[0-5][0-9]$")
# likewise for mongodb's ISO layout: milliseconds and a ±HH:MM offset
_MONGODB_SHAPE = (r"^[0-9]{4}-[0-9]{2}-[0-9]{2}T(?:[01][0-9]|2[0-3]):"
                  r"[0-5][0-9]:[0-5][0-9]\.[0-9]{3}[+-](?:[01][0-9]|2[0-3]):"
                  r"[0-5][0-9]$")


_MONTH_NAMES_ARR = pa.array(list(_MONTH_NUM))
_MONTH_NUMS_ARR = pa.array(list(_MONTH_NUM.values()))

# the datetime64[ns] span less a day (room for zone offsets and fractions):
# a kernel-parsed time outside it is nulled and left to pandas' strptime,
# which coerces what ns cannot hold — the values the stage always had
_NS_SPAN = (pa.scalar(pd.Timestamp.min + pd.Timedelta(days=1),
                      type=pa.timestamp("us")),
            pa.scalar(pd.Timestamp.max - pd.Timedelta(days=1),
                      type=pa.timestamp("us")))
_NS_MAX_S = pd.Timestamp.max.value // 10**9  # last whole epoch second


def _ns_safe(ts: pa.Array) -> pa.Array:
    return pc.if_else(pc.and_(pc.greater_equal(ts, _NS_SPAN[0]),
                              pc.less_equal(ts, _NS_SPAN[1])), ts, None)


def _digits(piece: pa.Array) -> pa.Array:
    """A numeric slice as int64: "" reads 0, and a slice that is not all
    ASCII digits is null (its row only), where a cast would raise."""
    z = pc.if_else(pc.equal(piece, ""), "0", piece)
    return pc.cast(pc.if_else(pc.ascii_is_decimal(z), z, None), pa.int64())


def _plus_us(ts: pa.Array, us: pa.Array) -> pa.Array:
    return pc.add(ts, pc.cast(us, pa.duration("us")))


def _strptime_rows(s: pa.Array, layout: str) -> pa.Array:
    """pandas' own strptime (``errors="coerce"``, a zone converted to naive
    UTC) → timestamp[us], null where it fails: the per-row fallback for the
    few rows an Arrow path cannot prove equal."""
    out = pd.to_datetime(pd.Series(_np(s), dtype=object), format=layout,
                         errors="coerce", utc="%z" in layout)
    if getattr(out.dt, "tz", None) is not None:
        out = out.dt.tz_convert("UTC").dt.tz_localize(None)
    return pa.array(out.to_numpy().astype("datetime64[us]"),
                    type=pa.timestamp("us"))


def _parse_time(t: pa.Array, layout: str) -> pa.Array:
    """Time strings under a ``PLAN`` layout → naive-UTC timestamp[us], null
    where unparsed. ``"epoch"`` is seconds, a ``_FAST_LAYOUTS`` layout is
    sliced and a fixed-width numeric one goes straight to the strptime
    kernel. Only the rows those Arrow paths cannot prove equal reach
    pandas' strptime (``_strptime_rows``); a well-formed line never does.
    The loop calls it once per layout per batch."""
    if layout == "epoch":
        return _epoch_seconds(t)
    if layout in _FAST_LAYOUTS:
        return _fast_strptime_arrow(t, layout)
    return _numeric_strptime_arrow(t, layout)


def _fast_strptime_arrow(arr: pa.Array, layout: str) -> pa.Array:
    """A ``_FAST_LAYOUTS`` parse: utf8 slices + dictionary month map +
    null-joining concat + ``pc.strptime(error_is_null=True)`` + a zone
    offset or fraction as a duration; rows the slicing mis-reads
    (non-padded days, a non-digit offset etc.) drop to real strptime."""
    s = pc.fill_null(arr, "")

    def sl(a: int, b: int) -> pa.Array:
        return pc.utf8_slice_codeunits(s, a, b)

    def mon(a: int, b: int) -> pa.Array:
        return pc.take(_MONTH_NUMS_ARR,
                       pc.index_in(sl(a, b), value_set=_MONTH_NAMES_ARR))

    def iso_of(y, m, d, hms) -> pa.Array:  # null month → null iso → null ts
        ymd = pc.binary_join_element_wise(y, m, d, "-")
        return pc.binary_join_element_wise(ymd, hms, " ")

    def parse(iso: pa.Array) -> pa.Array:
        ts = pc.strptime(iso, format="%Y-%m-%d %H:%M:%S", unit="us",
                         error_is_null=True)
        # the kernel rolls an out-of-range day over (30 Feb → 2 Mar); null
        # it so the row drops to real strptime, which rejects it
        day = pc.utf8_lpad(pc.cast(pc.day(ts), pa.string()), 2, "0")
        return _ns_safe(pc.if_else(
            pc.equal(day, pc.utf8_slice_codeunits(iso, 8, 10)), ts, None))

    if layout == "%d/%b/%Y:%H:%M:%S %z":
        ts = parse(iso_of(sl(7, 11), mon(3, 6), sl(0, 2), sl(12, 20)))
        mins = pc.add(pc.multiply(_digits(sl(22, 24)), 60),
                      _digits(sl(24, 26)))
        ts = _plus_us(ts, pc.multiply(mins, pc.if_else(
            pc.equal(sl(21, 22), "-"), 60_000_000, -60_000_000)))
    elif layout == "%a %b %d %H:%M:%S %Y":
        ts = parse(iso_of(sl(20, 24), mon(4, 7), sl(8, 10), sl(11, 19)))
    elif layout == "%d %b %Y %H:%M:%S.%f":
        ts = parse(iso_of(sl(7, 11), mon(3, 6), sl(0, 2), sl(12, 20)))
        # ".%f" → exact µs
        ts = _plus_us(ts, _digits(pc.utf8_rpad(sl(21, 27), 6, "0")))
    elif layout == "%d-%b-%Y %H:%M:%S":
        ts = parse(iso_of(sl(7, 11), mon(3, 6), sl(0, 2), sl(12, 20)))
    elif layout == "%Y %b %d %H:%M:%S":
        iso = iso_of(sl(0, 4), mon(5, 8),
                     pc.replace_substring(sl(9, 11), " ", "0"), sl(12, 20))
        ts = parse(pc.if_else(pc.match_substring_regex(s, _SYSLOG_SHAPE),
                              iso, None))
    elif layout == "%Y-%m-%dT%H:%M:%S.%f%z":
        shaped = pc.match_substring_regex(s, _MONGODB_SHAPE)
        ts = parse(pc.if_else(shaped, pc.binary_join_element_wise(
            sl(0, 10), sl(11, 19), " "), None))
        # a null ts has no offset to add; the shape pins the digits
        mins = pc.add(pc.multiply(_digits(sl(24, 26)), 60),
                      _digits(sl(27, 29)))
        ts = _plus_us(ts, pc.add(pc.multiply(_digits(sl(20, 23)), 1000),
                                 pc.multiply(mins, pc.if_else(
                                     pc.equal(sl(23, 24), "-"),
                                     60_000_000, -60_000_000))))
    else:  # pragma: no cover - guarded by _FAST_LAYOUTS
        raise ValueError(layout)

    bad = pc.and_(pc.is_null(ts), pc.not_equal(s, ""))
    if pc.any(bad).as_py():  # slicing mis-read (non-padded day etc.)
        ts = pc.replace_with_mask(ts, bad,
                                  _strptime_rows(s.filter(bad), layout))
    return ts


def _epoch_seconds(digits: pa.Array) -> pa.Array:
    """Epoch-seconds digit strings (the layout's ``\\d+`` group) → naive
    UTC timestamp[us] of their integer value, null past datetime64[ns]'s
    last second, as ``pd.to_datetime(pd.to_numeric(s, errors="coerce"),
    unit="s", errors="coerce")`` coerces it — whatever the count of digits
    or leading zeros (pandas overflows from 2**64 on and misreads some
    long zero-padded strings) — and null for an empty or non-digit
    string."""
    trimmed = pc.utf8_ltrim(digits, "0")
    ok = pc.and_(pc.ascii_is_decimal(digits),
                 pc.less_equal(pc.utf8_length(trimmed), 10))
    secs = pc.cast(pc.if_else(ok, pc.binary_join_element_wise(
        "0", trimmed, ""), None), pa.int64())
    secs = pc.if_else(pc.less_equal(secs, _NS_MAX_S), secs, None)
    return pc.cast(pc.multiply(secs, 1_000_000), pa.timestamp("us"))


def _rendered_len(fmt: str) -> int:
    """Character width of a fixed-width numeric strftime layout."""
    return len(fmt.replace("%Y", "####").replace("%y", "##")
               .replace("%m", "##").replace("%d", "##").replace("%H", "##")
               .replace("%M", "##").replace("%S", "##"))


def _numeric_strptime_arrow(arr: pa.Array, fmt: str) -> pa.Array:
    """A fixed-width NUMERIC layout straight to the strptime kernel, with
    a trailing ``.%f`` fraction (and optional literal ``Z``) split off —
    equal to ``pd.to_datetime(format=fmt, errors="coerce")`` in µs
    (pinned by test), including its ISO rules for what may follow the
    seconds: '.' and any number of digits (the first 9 count), or '.' and
    1-9 digits before a literal ``Z``, then the end."""
    full = pc.fill_null(arr, "")
    base, z = (fmt[:-1], "Z") if fmt.endswith("Z") else (fmt, "")
    frac = base.endswith(".%f")
    if frac:
        base = base[:-3]
    ln = _rendered_len(base)
    s, keep = full, None
    if frac or z:
        tail = (r"\.[0-9]{1,9}" if z else r"\.[0-9]*") if frac else ""
        keep = pc.match_substring_regex(full, f"^.{{{ln}}}{tail}{z}$")
        s = pc.utf8_slice_codeunits(full, 0, ln)
    ts = pc.strptime(s, format=base, unit="us", error_is_null=True)
    out = _ns_safe(ts)
    far = pc.and_(pc.is_valid(ts), pc.is_null(out))
    if frac:  # µs: the first 6 digits (whole seconds + a fraction ≥ 0)
        digits = pc.utf8_slice_codeunits(full, ln + 1, ln + 7)
        if z:  # fewer than 6 digits leave the Z in the slice
            digits = pc.replace_substring(digits, z, "")
        out = _plus_us(out, _digits(pc.utf8_rpad(digits, 6, "0")))
    if keep is not None:
        out = pc.if_else(keep, out, None)
    if pc.any(far).as_py():  # pandas' own parse, null where ns overflows
        out = pc.replace_with_mask(out, far,
                                   _strptime_rows(full.filter(far), fmt))
    return out


# severity as int8 codes into one level list; code 0 is unset ("", 0)
_LEVEL_NAMES = ["", *SEVERITY_NUMBER]
_LEVEL_TEXT = pa.array(_LEVEL_NAMES, type=pa.string())
_LEVEL_NUMBER = pa.array([0, *SEVERITY_NUMBER.values()], type=pa.int8())


def _level_codes(tokens: pa.Array, table: dict[str, str]) -> np.ndarray:
    """Level codes of raw severity tokens under a mapping table (stanza
    ``severity`` sub-parser); unknown and null tokens → 0 (unset)."""
    keys = pa.array(list(table), type=tokens.type)
    lvl = pa.array([_LEVEL_NAMES.index(v) for v in table.values()],
                   type=pa.int8())
    return _np(pc.fill_null(
        pc.take(lvl, pc.index_in(tokens, value_set=keys)), 0))


def _scatter(base: pa.Array, parts: list[tuple[np.ndarray, pa.Array]]
             ) -> pa.Array:
    """``base`` with each part's values put at its row idx: one
    ``replace_with_mask`` over the idx-sorted concatenation of the parts."""
    if not parts:
        return base
    idx = np.concatenate([i for i, _ in parts])
    vals = pa.concat_arrays([v for _, v in parts]).take(
        pa.array(np.argsort(idx, kind="stable")))
    mask = np.zeros(len(base), dtype=bool)
    mask[idx] = True
    return pc.replace_with_mask(base, pa.array(mask), vals)


def _span_ids(batch: pa.Table) -> pa.Array:
    """Deterministic tool-call span ids (FIXTURES.md §2): surrogate for the
    collector's trace/span context on tool-call turns, "" elsewhere; raw
    line sources (sources/filelog) carry no transcript columns → no spans,
    and a turn with a null conv_id or turn_idx has no id to derive → "".
    The ids are ``016x`` of conv number × 100000 + turn_idx; one hexlify of
    the big-endian u64s is the string array's data buffer as is."""
    n = batch.num_rows
    has_span = np.zeros(n, dtype=bool)
    if {"role", "tool", "conv_id", "turn_idx"} <= set(batch.column_names):
        has_span = _np(pc.fill_null(pc.and_(
            pc.and_(pc.equal(batch.column("role"), "tool"),
                    pc.not_equal(batch.column("tool"), "")),
            pc.and_(pc.is_valid(batch.column("conv_id")),
                    pc.is_valid(batch.column("turn_idx")))), False))
    hexes = b""
    if has_span.any():
        sidx = pa.array(np.flatnonzero(has_span))
        conv = conv_number(batch.column("conv_id").take(sidx))
        turn = _np(batch.column("turn_idx").take(sidx)).astype(np.int64)
        raw = _np(conv) * 100_000 + turn
        hexes = binascii.hexlify(raw.astype(">u8").tobytes())
    offsets = np.zeros(n + 1, dtype=np.int32)
    offsets[1:] = np.cumsum(has_span, dtype=np.int32) * 16
    return pa.StringArray.from_buffers(
        n, pa.py_buffer(offsets), pa.py_buffer(hexes))


def _text(text: pa.Array | pa.ChunkedArray) -> pa.Array:
    """A ``text`` column as one ``string`` Array (a ``large_string`` file
    column is cast: the element-wise joins take one string type); a null
    line reads as "" (it classifies as plain and its body is "")."""
    if isinstance(text, pa.ChunkedArray):
        text = text.combine_chunks()
    if pa.types.is_large_string(text.type):
        text = text.cast(pa.string())
    return pc.fill_null(text, "") if text.null_count else text


# the string columns the stage reads or passes through to the export
_UTF8_COLUMNS = ("text", "conv_id", "role", "tool")


def _check_utf8(batch: pa.Table) -> None:
    """Raise ``ValueError`` naming the column and the first row when a
    string column the stage reads or passes through holds invalid UTF-8.
    Parquet readers don't validate it, and a file written with such a
    value is refused by DuckDB's reader."""
    for name in _UTF8_COLUMNS:
        if name not in batch.column_names:
            continue
        col = batch.column(name)
        if not (pa.types.is_string(col.type)
                or pa.types.is_large_string(col.type)):
            continue
        try:
            col.validate(full=True)
        except pa.ArrowInvalid:
            for i, v in enumerate(col.cast(pa.binary()).to_pylist()):
                try:
                    if v is not None:
                        v.decode()
                except UnicodeDecodeError:
                    raise ValueError(
                        f"column {name!r} holds invalid UTF-8 at row {i}: "
                        f"{v[:40]!r}") from None
            raise


class ParseStage:
    """Arrow-native parse stage for ``map_batches`` (RE2 kernels, no row loop)."""

    @staticmethod
    def classify(text: pa.Array | pa.ChunkedArray
                 ) -> tuple[np.ndarray, list[str]]:
        """First-match router → (int8 family codes, family name list).

        Codes (not object strings) keep the hot path allocation-free; code
        len(names) == 'plain' fallback, also for a null line. One RE2 scan
        of ``_GATE`` sends the rows no ``DETECT`` pattern matches to
        'plain'. Every other row descends ``_NODES``: a node ``(lo, hi)``
        scans its rows once, a hit goes to ``[lo, mid)`` and a miss to
        ``[mid, hi)``. No pattern before ``lo`` matches a row at the node
        and its first match lies in ``[lo, hi)``, so the leaf a row reaches
        is its first match — no exclusivity among the patterns assumed.
        A row costs at most 1 + ⌈log2 23⌉ scans, and the whole-line patterns
        (``pii``, the NCSA pair) only see the rows of the last subtree.
        """
        text = _text(text)
        codes = np.full(len(text), len(DETECT), dtype=np.int8)
        todo = [(0, len(DETECT), np.flatnonzero(
            _np(pc.match_substring_regex(text, _GATE))))]
        while todo:
            lo, hi, idx = todo.pop()
            if not len(idx):
                continue
            if hi - lo == 1:
                codes[idx] = lo
                continue
            mid = (lo + hi) // 2
            hit = _np(pc.match_substring_regex(
                text.take(pa.array(idx, type=pa.int64())), _NODES[lo, hi]))
            todo += [(lo, mid, idx[hit]), (mid, hi, idx[~hit])]
        return codes, [*(name for name, _, _ in DETECT), "plain"]

    @classmethod
    def extract(cls, family: str, sub: pa.Array) -> dict[str, pa.Array]:
        """The groups the stage reads for ``family`` (its ``TWIN`` pieces'
        groups, plus a sliced ``time``), each equal to that field of
        ``_fields(extract_regex(sub, RX[family]))``: guarded rows (see
        ``TWIN``) take the twin's values, and only the other rows run the
        shipped pattern."""
        twin = TWIN[family]
        found = [pc.extract_regex(sub, piece) for piece in twin.pieces]
        rest = ~np.logical_and.reduce(
            [_np(pc.is_valid(st)) for st in found]
            + [_np(pc.count_substring(sub, d)) == k for d, k in twin.counts])
        out = {fld.name: st.field(fld.name) for st in found for fld in st.type}
        if twin.time_width:
            out["time"] = pc.utf8_slice_codeunits(sub, 0, twin.time_width)
        if not rest.any():
            return out
        mask = pa.array(rest)
        shipped = cls._fields(pc.extract_regex(sub.filter(mask), RX[family]))
        return {k: pc.replace_with_mask(v, mask, shipped[k])
                for k, v in out.items()}

    # -- the batch transform ----------------------------------------------

    def __call__(self, batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        _check_utf8(batch)
        text = _text(batch.column("text"))
        ts_in_np = _np(batch.column("ts")).astype("datetime64[us]")
        codes, names = self.classify(text)

        # each family only records (row idx, Arrow values); every output
        # column is assembled once, after the loop, and each ts layout is
        # parsed once over its families' time strings
        ts_out = ts_in_np.copy()
        times: dict[str, list[tuple[np.ndarray, pa.Array]]] = {}
        sev_code = np.zeros(n, dtype=np.int8)  # index into _LEVEL_TEXT
        bodies: list[tuple[np.ndarray, pa.Array]] = []
        attrs: list[tuple[np.ndarray, list[str], list[pa.Array]]] = []

        order = np.argsort(codes, kind="stable")  # rows grouped by family
        counts = np.bincount(codes, minlength=len(names))
        ends = np.cumsum(counts)
        for fam_code, family in enumerate(names):
            if family not in PLAN or not counts[fam_code]:
                continue
            layout, levels, lower, body = PLAN[family]
            idx = order[ends[fam_code] - counts[fam_code]:ends[fam_code]]
            sub = text.take(pa.array(idx, type=pa.int64()))
            f = self.extract(family, sub)
            if layout is not None:
                t = f["time"]
                if family == "syslog":  # pin the observed year (PLAN)
                    years = ts_in_np[idx].astype("datetime64[Y]").astype(int)
                    t = pc.binary_join_element_wise(pc.cast(pa.array(
                        years + 1970), pa.string()), pc.fill_null(t, ""), " ")
                elif family == "postgresql":  # %Z zone name (PLAN)
                    t = pc.replace_substring(t, " UTC", "")
                times.setdefault(layout, []).append((idx, t))
            if levels is not None:
                tok = pc.utf8_lower(f["level"]) if lower else f["level"]
                sev_code[idx] = _level_codes(tok, levels)
            if body is not None:
                vals = f[body] if isinstance(body, str) else body(f)
                # null extraction (parse failure) keeps the raw line
                bodies.append((idx, pc.coalesce(vals, sub)))
            keys = FAMILY_ATTR_KEYS[family]
            if keys:
                attrs.append((idx, keys, [pc.fill_null(
                    f["role" if k == "redis_role" else k], "")
                    for k in keys]))
        for layout, parts in times.items():
            idx = np.concatenate([i for i, _ in parts])
            v = _np(_parse_time(pa.concat_arrays([t for _, t in parts]),
                                layout))
            ok = ~np.isnat(v)
            ts_out[idx[ok]] = v[ok]  # failures keep the observed ts

        # passthrough-preserving output: keep every input column except the
        # consumed `text` and the replaced `ts` (original ts → observed_ts),
        # so upstream-added columns (e.g. a lineage `part` id) survive.
        cols = {name: col for name, col in zip(batch.column_names, batch.columns)
                if name not in ("text", "ts")}
        cols["ts"] = pa.array(ts_out, type=pa.timestamp("us"))
        cols["observed_ts"] = batch.column("ts")
        # format names materialize via Arrow take on the tiny name list —
        # a C-level string build, no per-row Python objects
        cols["log_format"] = pc.take(
            pa.array(names, type=pa.string()), pa.array(codes, type=pa.int8()))
        cols["body"] = _scatter(text, bodies)
        codes_arr = pa.array(sev_code, type=pa.int8())
        cols["severity_text"] = pc.take(_LEVEL_TEXT, codes_arr)
        cols["severity_number"] = pc.take(_LEVEL_NUMBER, codes_arr)
        cols["attributes"] = self._build_map(n, attrs)
        cols["span_id"] = _span_ids(batch)
        return pa.table(cols)

    @classmethod
    def as_fn(cls) -> "ParseStage":
        """The stage for a plain FUNCTION ``map_batches`` (fusable with the
        read and downstream task stages): it holds no state, so this is
        just an instance."""
        return cls()

    @classmethod
    def classify_fn(cls):
        """Router classification ONLY (log_format column on the raw text) —
        for stages that run BEFORE parsing, like multiline framing, which in
        the reference frames raw lines before the operator chain sees them."""

        def classify_batch(batch: pa.Table) -> pa.Table:
            codes, names = cls.classify(batch.column("text"))
            return batch.append_column("log_format", pc.take(
                pa.array(names, type=pa.string()),
                pa.array(codes, type=pa.int8())))

        return classify_batch

    @staticmethod
    def _fields(st: pa.StructArray) -> dict[str, pa.Array]:
        """extract_regex fields with parse-failure rows as NULLs.

        StructArray.field() does NOT propagate the struct-level validity —
        a non-matching row's children read as empty strings, which would
        silently clobber `body` with "" instead of keeping the raw line
        (stanza on_error=send keeps the record). Mask them back to null so
        every downstream coalesce/strptime fallback fires."""
        valid = pc.is_valid(st)
        if pc.all(valid, min_count=0).as_py():
            return {fld.name: st.field(fld.name) for fld in st.type}
        nulls = pa.nulls(len(st), pa.string())
        return {fld.name: pc.if_else(valid, st.field(fld.name), nulls)
                for fld in st.type}

    @staticmethod
    def _build_map(
        n: int, attrs: list[tuple[np.ndarray, list[str], list[pa.Array]]]
    ) -> pa.Array:
        """map<string,string> from per-family (row idx, keys, value columns):
        offsets from the per-row key counts, then one Arrow take each for the
        flat keys and the flat values — no row loop, no object arrays."""
        counts = np.zeros(n, dtype=np.int32)
        for idx, keys, _ in attrs:
            counts[idx] = len(keys)
        offsets = np.zeros(n + 1, dtype=np.int32)
        np.cumsum(counts, out=offsets[1:])
        key_at = np.empty(offsets[-1], dtype=np.int32)  # into key_names
        val_at = np.empty(offsets[-1], dtype=np.int64)  # into concat(cols)
        key_names: list[str] = []
        values: list[pa.Array] = []
        for idx, keys, cols in attrs:
            k, m = len(keys), len(idx)
            slot = offsets[idx][:, None] + np.arange(k)  # (m, k) flat slots
            key_at[slot] = len(key_names) + np.arange(k)
            val_at[slot] = (sum(map(len, values)) + np.arange(k) * m
                            + np.arange(m)[:, None])
            key_names += keys
            values += cols
        vals = (pa.concat_arrays(values) if values
                else pa.array([], type=pa.string()))
        return pa.MapArray.from_arrays(
            pa.array(offsets),
            pc.take(pa.array(key_names, type=pa.string()), pa.array(key_at)),
            pc.take(vals.cast(pa.string()), pa.array(val_at)),
        )
