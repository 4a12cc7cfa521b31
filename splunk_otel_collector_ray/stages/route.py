"""Routing-connector analogue — ordered first-match fan-out to named sinks.

Reference semantics (citations into /root/reference):
- `routing` connector: a table of (context, OTTL condition) → pipelines with
  `default_pipelines` for non-matches, FIRST-match per record
  (cmd/otelcol/config/collector/gateway_config.yaml:163-170, wired :211-221).
- Attribute-based index routing
  (examples/otel-logs-processor-splunk/otel-collector-config.yml:29-61).
- Fan-out duplication of one stream to several exporters is the *other* mode
  (agent_config.yaml:262); here each record lands in exactly ONE sink.

Ray-Data-first mapping (SURVEY.md §2.11): one vectorized `map_batches` pass
computes a `sink` column via ordered masks (np.select over route codes ==
first-match, then one take of the sink names), then
the exporter either writes a single pass partitioned by `sink`
(`write_parquet(partition_cols=["sink"])`) or filters per sink. Per-sink
routed-row counts fall out of the same pass — the north-rule equality target.

The default rule table is FIXTURES.md §4:
    1. role == 'tool' and tool != ''        -> sink_tools
    2. severity_number >= ERROR (17)        -> sink_errors
    3. role == 'assistant'                  -> sink_assistant
    default                                  -> sink_default
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.severity import ERROR

Predicate = Callable[[pa.Table], "pa.ChunkedArray | pa.Array | np.ndarray"]


@dataclass
class Route:
    sink: str
    predicate: Predicate


def default_routes() -> list[Route]:
    """FIXTURES.md §4 rule table (first-match order is part of the fixture)."""
    return [
        Route("sink_tools", lambda t: pc.and_(
            pc.equal(t["role"], "tool"), pc.not_equal(t["tool"], ""))),
        Route("sink_errors", lambda t: pc.greater_equal(
            t["severity_number"], pa.scalar(ERROR, type=pa.int8()))),
        Route("sink_assistant", lambda t: pc.equal(t["role"], "assistant")),
    ]


@dataclass
class RouteStage:
    """`map_batches` stage appending the first-match `sink` column."""

    routes: list[Route] = field(default_factory=default_routes)
    default_sink: str = "sink_default"

    @property
    def sinks(self) -> list[str]:
        return [r.sink for r in self.routes] + [self.default_sink]

    def __call__(self, batch: pa.Table) -> pa.Table:
        masks = []
        for r in self.routes:
            m = r.predicate(batch)
            if isinstance(m, (pa.Array, pa.ChunkedArray)):
                m = np.asarray(m.combine_chunks() if isinstance(m, pa.ChunkedArray) else m)
            masks.append(np.asarray(m, dtype=bool))
        # first match wins: small-int route codes (the default sink's code
        # is len(routes)), then one take of the sink names
        code_t = np.min_scalar_type(len(masks))
        codes = (np.select(masks, np.arange(len(masks), dtype=code_t),
                           default=code_t.type(len(masks))) if masks
                 else np.zeros(batch.num_rows, dtype=code_t))
        return batch.append_column("sink", pc.take(
            pa.array(self.sinks, type=pa.string()), pa.array(codes)))
