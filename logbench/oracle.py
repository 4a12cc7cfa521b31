"""DuckDB oracle counts for a generated input, cached per (workload, seed).

The SQL is the repository's own registry oracle: ``__ray_entry__``'s
``route_counts`` and ``recombine`` entries, re-pointed from the fixture
glob to the generated part files through ``_oracle_cte(<glob>)``.
"""

from __future__ import annotations

import json
import os


def _registry(fixture_root: str):
    """Import ``__ray_entry__`` with its import-time fixture corpora written
    under ``fixture_root`` rather than the corpus module's default root."""
    from splunk_otel_collector_ray import corpus

    corpus.FIXTURE_ROOT = fixture_root
    import __ray_entry__

    return __ray_entry__


def _registry_sql(entry, name: str, glob: str) -> str:
    sql = entry.oracle_sql()[name]
    default = entry._oracle_cte()
    if not sql.startswith(default):
        raise RuntimeError(f"oracle {name!r} no longer starts with the "
                           "shared parse/route CTE")
    return entry._oracle_cte(glob) + sql[len(default):]


def compute(parts_dir: str, fixture_root: str, scratch: str) -> dict:
    import duckdb

    entry = _registry(fixture_root)
    glob = os.path.join(parts_dir, "*.parquet")
    con = duckdb.connect(config={"threads": 1,
                                 "temp_directory": scratch})
    try:
        rows = con.execute(
            f"SELECT COUNT(*) FROM read_parquet('{glob}')").fetchone()[0]
        sinks = dict(con.execute(
            _registry_sql(entry, "route_counts", glob)).fetchall())
        records = con.execute(
            "SELECT COUNT(*), SUM(n_fragments) FROM ("
            + _registry_sql(entry, "recombine", glob) + ")").fetchone()
    finally:
        con.close()
    return {"rows": int(rows),
            "sink_counts": {k: int(v) for k, v in sorted(sinks.items())},
            "records": int(records[0]),
            "record_fragments": int(records[1] or 0)}


def ensure(parts_dir: str, fixture_root: str, scratch: str) -> dict:
    """Oracle counts for ``parts_dir``, computed once and kept beside it."""
    path = os.path.join(os.path.dirname(parts_dir), "oracle.json")
    if os.path.exists(path):
        with open(path) as f:
            return json.load(f)
    os.makedirs(scratch, exist_ok=True)
    out = compute(parts_dir, fixture_root, scratch)
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(out, f, indent=1, sort_keys=True)
    os.replace(tmp, path)
    return out
