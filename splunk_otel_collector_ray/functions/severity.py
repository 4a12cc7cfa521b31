"""OTel severity model + the mapping tables shipped in the reference configs.

The collector's stanza `severity` sub-parser maps a raw token extracted from a
log line to a canonical severity level. The custom mapping tables reproduced
here are pinned by the shipped configs (citations into /root/reference):

- apache error levels    cmd/otelcol/config/collector/logs_config_linux.yaml:71-78
  (``fatal: emerg, error3: alert, error2: crit, info2: notice``; remaining
  tokens use the stanza default aliases)
- redis symbol levels    logs_config_linux.yaml:491-497
  (``warning:'#', info:'*', info2:'-', debug:'.'``)
- mongodb letter levels  logs_config_linux.yaml:283-293
  (``fatal:F error:E warning:W info:I debug:D1..debug4:D4``)
- etcd letter levels     logs_config_linux.yaml:185-194
- OTTL Level-key mapping examples/otel-logs-severity-splunk/otel-collector-config.yml:33-44
  (``DETAIL→DEBUG, LOG→INFO, SEVERE→WARN``)

Severity numbers are the OTel log-data-model numbers (TRACE=1 … FATAL4=24).
``severity_text`` in this engine is the canonical upper-case level name
("ERROR3", "INFO2", …); unset severity is (``""``, 0).
"""

from __future__ import annotations

# Canonical OTel severity numbers (opentelemetry log data model).
SEVERITY_NUMBER: dict[str, int] = {
    "TRACE": 1, "TRACE2": 2, "TRACE3": 3, "TRACE4": 4,
    "DEBUG": 5, "DEBUG2": 6, "DEBUG3": 7, "DEBUG4": 8,
    "INFO": 9, "INFO2": 10, "INFO3": 11, "INFO4": 12,
    "WARN": 13, "WARN2": 14, "WARN3": 15, "WARN4": 16,
    "ERROR": 17, "ERROR2": 18, "ERROR3": 19, "ERROR4": 20,
    "FATAL": 21, "FATAL2": 22, "FATAL3": 23, "FATAL4": 24,
}

ERROR = SEVERITY_NUMBER["ERROR"]  # routing threshold (FIXTURES.md §4 rule 2)

# token (as it appears in the log line) -> canonical level name.
# Custom entries from logs_config_linux.yaml:71-78 plus stanza default aliases
# for the tokens apache actually emits.
APACHE_ERROR_LEVELS: dict[str, str] = {
    "emerg": "FATAL",    # fatal: emerg
    "alert": "ERROR3",   # error3: alert
    "crit": "ERROR2",    # error2: crit
    "error": "ERROR",
    "warn": "WARN",
    "notice": "INFO2",   # info2: notice
    "info": "INFO",
    "debug": "DEBUG",
    "trace1": "TRACE", "trace2": "TRACE", "trace3": "TRACE", "trace4": "TRACE",
    "trace5": "TRACE", "trace6": "TRACE", "trace7": "TRACE", "trace8": "TRACE",
}

# Stanza-style default severity aliases (case-insensitive token → level),
# used by the chains that configure `severity: parse_from` with no custom
# mapping table (cassandra logs_config_linux.yaml:100-101, tomcat :552-553,
# zookeeper :617-618, jetty9 :220-221, mysql-error :320-321, rabbitmq
# :447-448). Tokens are looked up lower-cased; unknown tokens stay unset.
# Java-util-logging names (severe/fine/config) are included for tomcat.
DEFAULT_LEVELS: dict[str, str] = {
    "trace": "TRACE",
    "debug": "DEBUG", "fine": "DEBUG", "finer": "DEBUG2", "finest": "DEBUG3",
    "info": "INFO", "note": "INFO",
    "notice": "INFO2", "config": "INFO2",
    "warn": "WARN", "warning": "WARN",
    "err": "ERROR", "error": "ERROR", "severe": "ERROR",
    "crit": "ERROR2", "critical": "ERROR2",
    "alert": "ERROR3",
    "emerg": "FATAL", "fatal": "FATAL",
}

# logs_config_linux.yaml:491-497 — redis single-symbol levels.
REDIS_LEVELS: dict[str, str] = {
    "#": "WARN",   # warning: '#'
    "*": "INFO",   # info: '*'
    "-": "INFO2",  # info2: '-'
    ".": "DEBUG",  # debug: '.'
}

# examples/otel-logs-severity-splunk/otel-collector-config.yml:33-44 — OTTL
# `set(severity_text, X) where attributes["Level"] == Y`.
JSON_LEVEL_MAP: dict[str, str] = {
    "DETAIL": "DEBUG",
    "LOG": "INFO",
    "SEVERE": "WARN",
}

# logs_config_linux.yaml:283-293 — mongodb structured-log severity letters.
MONGODB_LEVELS: dict[str, str] = {
    "F": "FATAL", "E": "ERROR", "W": "WARN", "I": "INFO",
    "D1": "DEBUG", "D2": "DEBUG2", "D3": "DEBUG3", "D4": "DEBUG4",
}

# logs_config_linux.yaml:185-194 — etcd capnslog letters.
ETCD_LEVELS: dict[str, str] = {
    "C": "FATAL", "E": "ERROR", "W": "WARN", "N": "INFO2",
    "I": "INFO", "D": "DEBUG", "T": "TRACE",
}
