"""The driver registry: key order, oracle coverage and shared oracles, and
the parity CLI's refusal of unknown query names."""

import importlib.util
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN_ORDER = os.path.join(ROOT, "tests", "golden", "registry_order.txt")

# queries with no SQL analogue: the driver checks their rows only
ROWS_ONLY = {
    "multimodal_video_frames", "ann_lsh", "ann_ivf", "emb_kmeans",
    "emb_neardup_lsh", "multimodal_features", "multimodal_decode",
    "multimodal_resize", "multimodal_frames",
}

# queries whose engines are checked against one and the same oracle
SHARED_ORACLES = [
    ("route_counts", "config_pipeline", "yaml_pipeline", "service_pipeline"),
    ("hec_ingest", "hec_roundtrip"),
    ("sfx_parse", "sfx_roundtrip"),
    ("jaeger_parse", "jaeger_roundtrip"),
    ("kafka_parse", "kafka_roundtrip"),
    ("pubsub_parse", "pubsub_roundtrip"),
    ("eventhub_parse", "eventhub_roundtrip"),
    ("pulsar_parse", "pulsar_roundtrip"),
    ("otlp_roundtrip", "otlp_pb_roundtrip"),
    ("docs_dup_clusters", "docs_dup_clusters_bsp"),
    ("span_metrics", "span_metrics_salted"),
]


@pytest.fixture(scope="module")
def registry():
    import __ray_entry__ as e

    return e.queries(), e.oracle_sql()


def test_registry_order_is_pinned(registry):
    """The driver samples the first ~50 keys: the order is part of the
    contract (regenerate the golden list only when it changes on
    purpose)."""
    qs, _ = registry
    with open(GOLDEN_ORDER, encoding="utf-8") as f:
        golden = f.read().split()
    assert list(qs) == golden


def test_every_query_but_the_rows_only_has_an_oracle(registry):
    qs, oracles = registry
    assert ROWS_ONLY <= set(qs)
    assert set(oracles) == set(qs) - ROWS_ONLY


@pytest.mark.parametrize("group", SHARED_ORACLES, ids=lambda g: g[0])
def test_shared_oracle_groups_return_one_sql(registry, group):
    _, oracles = registry
    assert len({oracles[name] for name in group}) == 1


def test_check_parity_refuses_unknown_names(monkeypatch, capsys, sf_dir):
    """A typo'd query name fails the CLI before Ray starts instead of
    reading as a green run that checked nothing."""
    import ray

    from splunk_otel_collector_ray import oracle_check

    started = []
    monkeypatch.setattr(ray, "init", lambda *a, **k: started.append("init"))
    monkeypatch.setattr(oracle_check, "run_parity",
                        lambda *a, **k: started.append("run_parity") or [])
    spec = importlib.util.spec_from_file_location(
        "check_parity", os.path.join(ROOT, "scripts", "check_parity.py"))
    cli = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(cli)

    monkeypatch.setattr(sys, "argv", [
        "check_parity.py", sf_dir, "route_countz", "route_rows",
        "no_such_query"])
    rc = cli.main()
    assert rc != 0
    assert started == []
    err = capsys.readouterr().err
    assert "route_countz" in err and "no_such_query" in err
    assert "route_rows" not in err
