"""Scalar kernels observed in the reference configs/code (SURVEY.md §2.10).

- glob → regex (utils/filter/filter.go:85-96 semantics — via fnmatch)
- duration parse ("10s", "2m", "-1h") → seconds
  (timestampprocessor/factory.go:61,108-117)
- zlib+base64 event-body encode (processlist.go:46-58)
- sha1/sha256 hash action (full_config_linux.yaml:456-457)
"""

from __future__ import annotations

import base64
import fnmatch
import hashlib
import re
import zlib

_DUR_MULT = {"ns": 1e-9, "us": 1e-6, "µs": 1e-6, "ms": 1e-3, "s": 1.0,
             "m": 60.0, "h": 3600.0}


def glob_to_regex(pattern: str) -> str:
    return fnmatch.translate(pattern)


def parse_duration(s: str) -> float:
    """Go-style simple duration ('300ms', '-1h', '10s') → seconds."""
    total, rest = 0.0, s.strip()
    m = re.match(r"^-", rest)
    sign = -1.0 if m else 1.0
    rest = rest.lstrip("-")
    for num, unit in re.findall(r"(\d+(?:\.\d+)?)(ns|us|µs|ms|s|m|h)", rest):
        total += float(num) * _DUR_MULT[unit]
    if total == 0.0 and not re.search(r"\d", rest):
        raise ValueError(f"bad duration {s!r}")
    return sign * total


def encode_event_body(payload: str) -> str:
    """processlist.go:46-58 — escaped text → zlib → base64 event body."""
    return base64.b64encode(zlib.compress(payload.encode())).decode()


def decode_event_body(blob: str) -> str:
    return zlib.decompress(base64.b64decode(blob)).decode()


def hash_value(v: str, algo: str = "sha1") -> str:
    return getattr(hashlib, algo)(v.encode()).hexdigest()
