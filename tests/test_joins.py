"""Keyed joins: ``partitioning.bucket_join`` against DuckDB, the broadcast
and exchange shapes of the semi/anti key filters, and the AST guard that
keeps every join on ``bucket_join``."""

import ast
import math
import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "splunk_otel_collector_ray")

# (file relative to the repo root, enclosing function) of each Ray
# ``Dataset.join`` call measured faster than ``bucket_join``; each entry
# names its CHANGES.md measurement. Empty: every keyed join runs on
# ``bucket_join``.
DATASET_JOIN_ALLOWLIST: set[tuple[str, str]] = set()

JOIN_KEYWORDS = {"join_type", "num_partitions", "aggregator_ray_remote_args"}


def _sources():
    for d, _, files in os.walk(PACKAGE):
        for f in files:
            if f.endswith(".py"):
                yield os.path.join(d, f)
    yield os.path.join(ROOT, "__ray_entry__.py")


def dataset_join_sites(sources) -> list[str]:
    """``path:line (function)`` of every ``.join(...)`` call that passes one
    of Ray ``Dataset.join``'s keywords (``str.join`` and ``os.path.join``
    take none of them)."""
    found = []
    for path in sources:
        rel = os.path.relpath(path, ROOT)
        tree = ast.parse(open(path, encoding="utf-8").read())
        owner = {}
        for fn in ast.walk(tree):  # innermost function wins (walk is BFS)
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for n in ast.walk(fn):
                    owner[id(n)] = fn.name
        for n in ast.walk(tree):
            if (isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
                    and n.func.attr == "join"
                    and any(k.arg in JOIN_KEYWORDS for k in n.keywords)):
                where = owner.get(id(n), "<module>")
                if (rel, where) not in DATASET_JOIN_ALLOWLIST:
                    found.append(f"{rel}:{n.lineno} ({where})")
    return found


def test_no_dataset_join_outside_bucket_join():
    """Every keyed join is a ``bucket_join``; a Ray ``Dataset.join`` comes
    back only through ``DATASET_JOIN_ALLOWLIST`` with a measurement."""
    assert dataset_join_sites(_sources()) == []


def test_join_guard_flags_each_dataset_join_shape(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text(
        "def q(ds, other, sep):\n"
        "    ds.join(other, join_type='inner', on=('k',))\n"
        "    ds.join(other, 'inner', 4, num_partitions=2)\n"
        "    ds.select_columns(['k']).join(\n"
        "        other, on=('k',), aggregator_ray_remote_args={})\n"
        "    sep.join(['a', 'b'])\n"
        "    os.path.join('a', 'b')\n"
        "    bucket_join(ds, other, 'k', how='left_outer')\n")
    got = dataset_join_sites([str(src)])
    assert [s.split(":")[1] for s in got] == ["2 (q)", "3 (q)", "4 (q)"]


def _canon(df: pd.DataFrame, cols) -> list:
    """Rows as sortable tuples: null → None, every number a float."""
    def cell(v):
        if v is None or (isinstance(v, float) and math.isnan(v)) \
                or v is pd.NA:
            return None
        return float(v) if isinstance(v, (int, float, np.number)) else v

    rows = [tuple(cell(v) for v in r)
            for r in df[list(cols)].astype(object).itertuples(index=False)]
    return sorted(rows, key=lambda r: [(v is None, v if v is not None
                                        else 0) for v in r])


def _duckdb_join(lt: pa.Table, rt: pa.Table, on, right_on, how, cols):
    import duckdb

    con = duckdb.connect()
    con.register("lt", lt)
    con.register("rt", rt)
    kind = "JOIN" if how == "inner" else "LEFT JOIN"
    return con.execute(
        f"SELECT {', '.join('l.' + c for c in lt.column_names)}, "
        f"{', '.join('r.' + c for c in rt.column_names if c != right_on)} "
        f"FROM lt l {kind} rt r ON l.{on} = r.{right_on}").df()[cols]


def _blocks(frames):
    """One Arrow block per frame, exactly as pandas typed it (an int key
    with a null is float64 in its own block only)."""
    return [pa.Table.from_pandas(f, preserve_index=False) for f in frames]


@pytest.mark.parametrize("how", ["inner", "left_outer"])
def test_bucket_join_matches_duckdb(ray_session, how):
    """Multi-block sides with many-to-many keys, null keys on both sides,
    an int key that pandas made float64 in the blocks holding its null,
    and ``on`` != ``right_on``; a string-keyed join rides along."""
    import ray.data

    from splunk_otel_collector_ray.partitioning import bucket_join

    rng = np.random.default_rng(11)
    lf = [pd.DataFrame({"a": np.arange(i * 40, i * 40 + 40),
                        "k": rng.integers(0, 12, 40),
                        "s": [f"s{j % 7}" for j in range(40)]})
          for i in range(3)]
    lf.append(pd.DataFrame({"a": [900, 901, 902], "k": [3, None, 5],
                            "s": ["x", None, "y"]}))
    rf = [pd.DataFrame({"rk": rng.integers(0, 15, 25),
                        "p": rng.random(25),
                        "q": [f"q{j % 5}" for j in range(25)]})
          for _ in range(2)]
    rf.append(pd.DataFrame({"rk": [None, 3, 4], "p": [0.5, 0.25, None],
                            "q": ["n", "m", "o"]}))
    lt_blocks, rt_blocks = _blocks(lf), _blocks(rf)
    assert {b["k"].type for b in lt_blocks} == {pa.int64(), pa.float64()}
    lt = pa.concat_tables(lt_blocks, promote_options="permissive")
    rt = pa.concat_tables(rt_blocks, promote_options="permissive")

    cols = ["a", "k", "s", "p", "q"]
    got = bucket_join(ray.data.from_arrow(lt_blocks),
                      ray.data.from_arrow(rt_blocks), "k", "rk",
                      how=how).to_pandas()
    assert list(got.columns) == cols
    want = _duckdb_join(lt, rt, "k", "rk", how, cols)
    assert _canon(got, cols) == _canon(want, cols)
    assert len(want) > 100

    # string keys, same name on both sides, nulls on both sides
    ls = pa.table({"s": pa.array(["a", "b", None, "a", "c"]),
                   "v": pa.array([1, 2, 3, 4, 5])})
    rs = pa.table({"s": pa.array(["a", None, "a", "d"]),
                   "w": pa.array([10, 20, 30, 40])})
    got = bucket_join(ray.data.from_arrow([ls.slice(0, 2), ls.slice(2)]),
                      ray.data.from_arrow([rs.slice(0, 1), rs.slice(1)]),
                      "s", how=how).to_pandas()
    want = _duckdb_join(ls, rs, "s", "s", how, ["s", "v", "w"])
    assert _canon(got, ["s", "v", "w"]) == _canon(want, ["s", "v", "w"])


@pytest.mark.parametrize("how", ["inner", "left_outer"])
def test_bucket_join_empty_side(ray_session, how):
    import ray.data

    from splunk_otel_collector_ray.partitioning import bucket_join

    lt = pa.table({"k": pa.array([1, 2, None, 2]), "v": pa.array(list("abcd"))})
    rt = pa.table({"k": pa.array([2, 3]), "w": pa.array([0.5, 1.5])})
    empty_r = rt.slice(0, 0)
    got = bucket_join(ray.data.from_arrow(lt), ray.data.from_arrow(empty_r),
                      "k", how=how).to_pandas()
    if how == "inner":
        assert len(got) == 0
    else:
        assert _canon(got, ["k", "v", "w"]) == _canon(
            _duckdb_join(lt, empty_r, "k", "k", how, ["k", "v", "w"]),
            ["k", "v", "w"])
        assert got["w"].isna().all()
    got = bucket_join(ray.data.from_arrow(lt.slice(0, 0)),
                      ray.data.from_arrow(rt), "k", how=how).to_pandas()
    assert len(got) == 0


def test_bucket_join_left_outer_block_without_right_rows(ray_session):
    """A fold block that holds no right row still emits the right columns
    (null), typed as the right side: many left blocks, one right row."""
    import ray.data

    from splunk_otel_collector_ray.partitioning import bucket_join

    lt = [pa.table({"id": pa.array(np.arange(i * 50, i * 50 + 50))})
          for i in range(8)]
    rt = pa.table({"id": pa.array([7]), "label": pa.array([1.5])})
    got = bucket_join(ray.data.from_arrow(lt), ray.data.from_arrow(rt),
                      "id", how="left_outer")
    n = 0
    for b in got.iter_batches(batch_format="pyarrow", batch_size=None):
        if b.num_rows:
            assert b.schema.field("label").type == pa.float64()
            n += b.num_rows
    assert n == 400
    out = got.to_pandas().set_index("id")["label"]
    assert out.loc[7] == 1.5 and out.drop(7).isna().all()


def test_bucket_join_name_collision_raises(ray_session):
    import ray.data

    from splunk_otel_collector_ray.partitioning import bucket_join

    left = ray.data.from_arrow(pa.table({"doc_a": [1, 2], "hashes": [b"x", b"y"]}))
    right = ray.data.from_arrow(pa.table({"doc_id": [1, 2],
                                          "hashes": [b"z", b"w"]}))
    # raised in the fold's task: Ray re-raises it wrapped, with the
    # ValueError and its message in the remote traceback
    with pytest.raises(Exception, match="column 'hashes' is on both sides") \
            as err:
        bucket_join(left, right, "doc_a", "doc_id").materialize()
    assert "ValueError" in str(err.value)
    with pytest.raises(ValueError, match="how="):
        bucket_join(left, right, "doc_a", "doc_id", how="outer")


@pytest.mark.parametrize("shape", [1_000_000, 0], ids=["broadcast", "exchange"])
@pytest.mark.parametrize("keys", [
    ([1, None, 2, 3, None, 1], [1, None]),
    (["a", None, "b", "c", None, "a"], ["a", None])], ids=["int", "str"])
def test_semi_anti_null_key_matches_nothing(ray_session, shape, keys):
    """A null stream key matches no key, a null in the key set included,
    whichever shape ``max_broadcast_keys`` picks — as DuckDB's SEMI and
    ANTI joins."""
    import duckdb
    import ray.data

    from splunk_otel_collector_ray.stages.sample import (
        anti_join_keys, semi_join_keys)

    stream_keys, set_keys = keys
    stream = pa.table({"k": pa.array(stream_keys),
                       "v": pa.array(np.arange(len(stream_keys)))})
    kset = pa.table({"k": pa.array(set_keys)})
    con = duckdb.connect()
    con.register("s", stream)
    con.register("ks", kset)
    for fn, kind in ((semi_join_keys, "SEMI"), (anti_join_keys, "ANTI")):
        got = fn(ray.data.from_arrow([stream.slice(0, 3), stream.slice(3)]),
                 ray.data.from_arrow(kset), "k",
                 max_broadcast_keys=shape).to_pandas()
        want = con.execute(
            f"SELECT s.* FROM s {kind} JOIN ks ON s.k = ks.k").df()
        assert sorted(got["v"]) == sorted(want["v"]), kind
