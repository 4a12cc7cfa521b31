"""Safe expression predicates (OTTL/expr hook) + config-defined routing."""

import numpy as np
import pyarrow as pa
import pytest

from splunk_otel_collector_ray.functions.expr import compile_predicate


def _batch():
    return pa.table({
        "role": ["tool", "assistant", "user", "tool"],
        "tool": ["bash", "", "", ""],
        "severity_number": pa.array([21, 17, 9, 0], type=pa.int8()),
        "body": ["123:go", "hello", "456:x", "no match"],
    })


def test_comparisons_and_boolops():
    f = compile_predicate("role == 'tool' and tool != ''")
    assert f(_batch()).tolist() == [True, False, False, False]
    f = compile_predicate("severity_number >= 17 or role == 'user'")
    assert f(_batch()).tolist() == [True, True, True, False]
    f = compile_predicate("not (severity_number < 17)")
    assert f(_batch()).tolist() == [True, True, False, False]


def test_in_and_matches():
    f = compile_predicate("role in ('tool', 'user')")
    assert f(_batch()).tolist() == [True, False, True, True]
    # stanza router expr: body matches "^\\d+" (logs_config_linux.yaml:346)
    f = compile_predicate(r"matches(body, '^\d+')")
    assert f(_batch()).tolist() == [True, False, True, False]
    # RE2 semantics (Go regexp, DuckDB): \d is ASCII-only; null is False
    assert f(pa.table({"body": ["٣:x", None]})).tolist() == [False, False]
    # a pattern RE2 cannot compile is refused when the predicate compiles
    with pytest.raises(ValueError):
        compile_predicate(r"matches(body, '(?<=a)b')")


def test_rejects_unsafe_expressions():
    for bad in ["__import__('os')", "role == open('/etc/passwd')",
                "(lambda: 1)()", "role.__class__", "1 if x else 2"]:
        with pytest.raises((ValueError, KeyError)):
            compile_predicate(bad)(_batch())


def test_unknown_column_is_clear():
    with pytest.raises(KeyError, match="unknown column"):
        compile_predicate("nope == 'x'")(_batch())


def test_config_defined_route_table(ray_session):
    from splunk_otel_collector_ray.config import build_pipeline
    from splunk_otel_collector_ray.pipelines.aggregate import grouped_count

    # the FIXTURES §4 table expressed as config strings — must reproduce the
    # built-in RouteStage exactly
    ds = build_pipeline({
        "source": {"transcripts": "/root/testdata/sf0.001"},
        "stages": [{"type": "parse"}, {"type": "route", "routes": [
            ["sink_tools", "role == 'tool' and tool != ''"],
            ["sink_errors", "severity_number >= 17"],
            ["sink_assistant", "role == 'assistant'"],
        ]}],
    })
    got = grouped_count(ds, ["sink"]).to_pandas().sort_values(
        "sink").reset_index(drop=True)
    builtin = build_pipeline({
        "source": {"transcripts": "/root/testdata/sf0.001"},
        "stages": [{"type": "parse"}, {"type": "route"}],
    })
    exp = grouped_count(builtin, ["sink"]).to_pandas().sort_values(
        "sink").reset_index(drop=True)
    assert got.equals(exp)


def test_string_helper_functions():
    """stanza EXPR string helpers: startsWith / endsWith / contains
    (recombine is_last_entry endsWith, examples/recombine config:18)."""
    import pyarrow as pa

    from splunk_otel_collector_ray.functions.expr import compile_predicate

    t = pa.table({"body": ["GET /api", "done\n", None, "abcGETdef"]})
    assert compile_predicate('startsWith(body, "GET ")')(t).tolist() == \
        [True, False, False, False]
    assert compile_predicate('endsWith(body, "\\n")')(t).tolist() == \
        [False, True, False, False]
    assert compile_predicate('contains(body, "GET")')(t).tolist() == \
        [True, False, False, True]
    # composes with boolean ops
    assert compile_predicate(
        'contains(body, "GET") and not startsWith(body, "abc")')(t).tolist() \
        == [True, False, False, False]


def test_negated_string_helpers_with_nulls_stay_boolean():
    """review fix: na=False (not fillna on an object series) — `not
    startsWith(...)` must return the complement, not all-truthy ints."""
    import pyarrow as pa

    from splunk_otel_collector_ray.functions.expr import compile_predicate

    t = pa.table({"body": ["abc", None, "xyz"]})
    m = compile_predicate('not startsWith(body, "abc")')(t)
    assert m.dtype == bool and m.tolist() == [False, True, True]
    m2 = compile_predicate('not endsWith(body, "z")')(t)
    assert m2.dtype == bool and m2.tolist() == [True, True, False]


def test_arrow_filter_pushdown(ray_session):
    """compile_arrow_filter: read-level row filters equal post-read masks
    (the prune-at-the-read rule); unsupported nodes are rejected."""
    import pytest
    import ray.data

    from splunk_otel_collector_ray.config import build_pipeline
    from splunk_otel_collector_ray.functions.expr import compile_arrow_filter

    pushed = build_pipeline({
        "source": {"parquet": "/root/testdata/sf0.01/events.parquet",
                   "filter": "event_type == 'purchase' and value >= 50"},
        "stages": [],
    }).to_pandas()
    full = ray.data.read_parquet(
        "/root/testdata/sf0.01/events.parquet").to_pandas()
    ref = full[(full.event_type == "purchase") & (full.value >= 50)]
    assert len(pushed) == len(ref) > 0
    assert sorted(pushed.event_id) == sorted(ref.event_id)
    # in-list + negation forms compile; engine-side-only forms are rejected
    compile_arrow_filter("event_type in ('a', 'b') or not (value < 3)")
    with pytest.raises((ValueError, KeyError)):
        compile_arrow_filter("matches(event_type, '^a')")
