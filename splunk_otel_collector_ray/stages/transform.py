"""OTTL `transform` processor analogue — vectorized truncate and redact.

`set(field, value) where cond` + `delete_key`
(examples/otel-logs-severity-splunk/otel-collector-config.yml:33-44) run as
compiled OTTL statements in functions/ottl.py.

Reference semantics (citations into /root/reference):
- body truncation `set(body, Substring(body, 0, 10))`
  (examples/otel-logs-truncate-splunk/otel-collector-config.yml:38-42)
- redaction/sanitization: regex mask of PII in body
  (examples/otel-logs-sanitization-splunk/otel-collector-config.yml:5-12;
  `redaction` processor reg internal/components/components.go:331)

All stateless vectorized `map_batches` stages (pyarrow.compute kernels).
"""

from __future__ import annotations

from dataclasses import dataclass

import pyarrow as pa
import pyarrow.compute as pc


@dataclass
class TruncateBody:
    """set(body, Substring(body, 0, n)) — unconditional, whole stream."""

    n: int = 10
    column: str = "body"

    def __call__(self, batch: pa.Table) -> pa.Table:
        sliced = pc.utf8_slice_codeunits(batch[self.column], 0, self.n)
        return batch.set_column(
            batch.column_names.index(self.column), self.column, sliced)


@dataclass
class RedactRegex:
    """Mask every occurrence of a regex in a column (redaction processor)."""

    pattern: str = r"\d{4}-\d{3}-\d{4}"
    replacement: str = "XXX-XXX-XXXX"
    column: str = "body"

    def __call__(self, batch: pa.Table) -> pa.Table:
        masked = pc.replace_substring_regex(
            batch[self.column], self.pattern, self.replacement)
        return batch.set_column(
            batch.column_names.index(self.column), self.column, masked)
