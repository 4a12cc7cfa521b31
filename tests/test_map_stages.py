"""Every map stage is a task function built by ``stages.stage_fn``."""

import ast
import os

import numpy as np
import pyarrow as pa

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "splunk_otel_collector_ray")

# (file relative to the repo root, enclosing function) of each map stage
# measured slower as a task function than as an actor pool; each entry
# names its CHANGES.md measurement. Empty: every stage measured as fast or
# faster as a task function.
ACTOR_POOL_ALLOWLIST: set[tuple[str, str]] = set()

UDF_METHODS = {"map_batches", "map", "flat_map", "filter"}
POOL_KEYWORDS = {"concurrency", "compute", "fn_constructor_args",
                 "fn_constructor_kwargs"}


def _sources():
    for d, _, files in os.walk(PACKAGE):
        for f in files:
            if f.endswith(".py"):
                yield os.path.join(d, f)
    yield os.path.join(ROOT, "__ray_entry__.py")


def _is_class(node) -> bool:
    """A bare class name (``Cls`` or ``mod.Cls``): map_batches would run
    it on an actor pool. A call (``stage_fn(Cls)``, ``Cls()``) is not."""
    name = (node.id if isinstance(node, ast.Name)
            else node.attr if isinstance(node, ast.Attribute) else "")
    return name[:1].isupper()


def pool_sites(sources) -> list[str]:
    """``path:line (function)`` of every Dataset UDF call that would start
    an actor pool: a class as the UDF, or a pool-only keyword."""
    found = []
    for path in sources:
        rel = os.path.relpath(path, ROOT)
        tree = ast.parse(open(path, encoding="utf-8").read())
        scopes = [(n.name, n) for n in ast.walk(tree)
                  if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
        owner = {}
        for name, fn in scopes:  # innermost function wins (walk is BFS)
            for n in ast.walk(fn):
                owner[id(n)] = name
        for n in ast.walk(tree):
            if not (isinstance(n, ast.Call)
                    and isinstance(n.func, ast.Attribute)
                    and n.func.attr in UDF_METHODS):
                continue
            udf = n.args[0] if n.args else next(
                (k.value for k in n.keywords if k.arg == "fn"), None)
            if not ((udf is not None and _is_class(udf))
                    or any(k.arg in POOL_KEYWORDS for k in n.keywords)):
                continue
            where = owner.get(id(n), "<module>")
            if (rel, where) not in ACTOR_POOL_ALLOWLIST:
                found.append(f"{rel}:{n.lineno} ({where})")
    return found


def test_no_map_stage_runs_on_an_actor_pool():
    """The engine has one map-stage shape; an actor pool comes back only
    through ``ACTOR_POOL_ALLOWLIST`` with a measurement behind it."""
    assert pool_sites(_sources()) == []


def test_pool_guard_flags_each_pool_shape(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text(
        "def q(ds, ta, ref):\n"
        "    ds.map_batches(ta.CleanStage, batch_format='pyarrow')\n"
        "    ds.map_batches(f, concurrency=(1, 4))\n"
        "    ds.map_batches(f, fn_constructor_args=(ref,))\n"
        "    ds.map(fn=Stage)\n"
        "    ds.map_batches(stage_fn(ta.CleanStage), batch_format='pyarrow')\n"
        "    ds.map_batches(RouteStage(), batch_format='pyarrow')\n")
    got = pool_sites([str(src)])
    assert [s.split(":")[1] for s in got] == ["2 (q)", "3 (q)", "4 (q)",
                                               "5 (q)"]


def test_stage_fn_builds_once_per_task(ray_session):
    """``stage_fn`` resolves the broadcast ref and builds the stage once
    per task (its docstring's claim): 8 read blocks are 8 fused tasks, each
    running 10 batches through one instance."""
    import uuid

    import ray
    import ray.data

    from splunk_otel_collector_ray.stages import stage_fn
    from splunk_otel_collector_ray.stages.similarity import LSHBucketStage

    class CountedLSH(LSHBucketStage):
        def __init__(self, planes, vec_col="embedding"):
            super().__init__(planes, vec_col)
            self.build, self.calls = uuid.uuid4().hex, 0

        def __call__(self, batch):
            self.calls += 1
            out = super().__call__(batch)
            n = out.num_rows
            return out.append_column(
                "build", pa.array([self.build] * n)).append_column(
                "call", pa.array([self.calls] * n))

    def vectors(t):
        x = t["id"].to_numpy().astype(np.float64)
        return t.append_column("embedding", pa.array(
            np.stack([np.cos(x), np.sin(x), x % 7], axis=1).tolist()))

    planes = np.random.default_rng(0).standard_normal((4, 3))
    out = (ray.data.range(800, override_num_blocks=8)
           .map_batches(vectors, batch_format="pyarrow")
           .map_batches(stage_fn(CountedLSH, ray.put(planes)),
                        batch_format="pyarrow", batch_size=10)
           .to_pandas())
    assert len(out) == 800 and out["build"].nunique() == 8
    assert out.groupby("build")["call"].max().tolist() == [10] * 8
    ref = LSHBucketStage(planes)(vectors(pa.table({"id": np.arange(800)})))
    assert np.array_equal(out.sort_values("id")["lsh_bucket"].to_numpy(),
                          ref["lsh_bucket"].to_numpy())
