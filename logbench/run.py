"""Seeded end-to-end and per-layer benchmark of the engine's logs path.

    python3 logbench/run.py --workload mixed_logs --seed 1 --seconds 18 --trace 0

Run from the repository root. Every input is generated from ``--seed``
(see ``gen.py``) into ``.bench_cache/`` and the program receives only a
directory of Parquet part files. Ray runs locally with ``num_cpus=1``; its
session files, the outputs and the traces go under ``.bench_run/``.

``--trace 0`` times the public entry calls with tracing off and reports the
end-to-end metrics: ``turns_per_s``, ``setup_s``, ``peak_rss_mb`` and
``out_bytes_per_turn``. ``--trace 1`` reports the per-layer metrics: a
Ray-free traced replay of ``run_resumable``'s chain on the same input (see
``replay.py``), the Ray recombine layer, and ``executor.s``, the untraced
end-to-end median wall time minus the replay's self time.

Each timed call is one operation, checked against a DuckDB oracle computed
once per (workload, seed). The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import re  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CACHE = os.path.join(ROOT, ".bench_cache")
WORK = os.path.join(ROOT, ".bench_run")

SIZES = {  # input turns, turns per part file; about 2 s per call each
    "mixed_logs": (100_000, 20_000),
    "prose_chat": (60_000, 15_000),
    "docker_recombine": (70_000, 14_000),
}
WARM_SIZE = (2_000, 1_000)
FAMILY_SAMPLE_TURNS = 72_000  # ≈3k rows per family for the per-family probe
SMALL_PARTS = (40, 5_000)  # files × turns per file
MIN_CALLS = 3
SESSIONS = 3  # processes per run with tracing off; each set-up costs ~8 s
REPLAYS = 3
OBJECT_STORE_BYTES = 512 << 20
RSS_PERIOD_S = 0.1
# Unix socket paths are capped at 107 bytes; Ray appends ~64 to its temp dir
MAX_RAY_TMP = 43


def require_program() -> None:
    for rel in ("splunk_otel_collector_ray/__init__.py", "__ray_entry__.py"):
        if not os.path.isfile(os.path.join(ROOT, rel)):
            print(f"logbench: {rel} not found under {ROOT}: run from a "
                  "repository checkout", file=sys.stderr)
            sys.exit(2)
    sys.path.insert(0, ROOT)
    sys.path.insert(0, HERE)


# ---------------------------------------------------------------- host probes

def ref_kernel() -> float:
    """Seconds for a fixed pure-Python loop the program never calls."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(200_000):
        acc += i * i % 7
    return time.perf_counter() - t0


def steal_ticks() -> int:
    try:
        with open("/proc/stat") as f:
            return int(f.readline().split()[8])
    except (OSError, IndexError, ValueError):
        return 0


class RssSampler:  # psutil: bundled with Ray, importable once ray is
    """Peak Σ RSS of this process and every process it started."""

    def __init__(self) -> None:
        import psutil

        self.me = psutil.Process()
        self.peak = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _sample(self) -> int:
        import psutil

        total = 0
        for p in [self.me, *self.me.children(recursive=True)]:
            try:
                total += p.memory_info().rss
            except psutil.Error:
                pass
        return total

    def _run(self) -> None:
        while not self._stop.is_set():
            self.peak = max(self.peak, self._sample())
            self._stop.wait(RSS_PERIOD_S)

    def __enter__(self) -> "RssSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self.peak = max(self.peak, self._sample())


# --------------------------------------------------------------------- engine

def ray_temp_dir() -> str | None:
    return WORK if len(WORK) <= MAX_RAY_TMP else None


def input_dir(workload: str, seed: int, size: tuple[int, int]):
    import gen

    return gen.ensure(os.path.join(CACHE, "inputs"), workload, seed, *size)


def start_engine(workload: str) -> float:
    """Imports, ``ray.init`` and one warm-up call on a tiny input.

    Returns seconds from process start until ready, minus the time spent
    generating the tiny input."""
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, os.environ.get("PYTHONPATH")) if p)
    import ray
    import ray.data

    import splunk_otel_collector_ray.pipelines.logs  # noqa: F401
    import splunk_otel_collector_ray.stages.recombine  # noqa: F401

    tmp = ray_temp_dir()
    if tmp is None:
        print("note: checkout path too long for Ray's socket files; "
              "using Ray's default temp dir", file=sys.stderr)
    ray.init(address="local", num_cpus=1, include_dashboard=False,
             logging_level="ERROR", log_to_driver=False, _temp_dir=tmp,
             object_store_memory=OBJECT_STORE_BYTES)
    ctx = ray.data.DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.print_on_execution_start = False
    t0 = time.perf_counter()
    warm, _ = input_dir(workload, 0, WARM_SIZE)
    gen_s = time.perf_counter() - t0
    out = os.path.join(WORK, "warm")
    shutil.rmtree(out, ignore_errors=True)
    timed_call(workload, warm, out)
    return time.perf_counter() - T_START - gen_s


def timed_call(workload: str, parts_dir: str, out_dir: str):
    """The public entry the workload measures."""
    if workload == "docker_recombine":
        import ray.data

        from splunk_otel_collector_ray.pipelines.logs import INPUT_COLUMNS
        from splunk_otel_collector_ray.stages.parse import ParseStage
        from splunk_otel_collector_ray.stages.recombine import (
            recombine_fragments,
        )

        ds = ray.data.read_parquet(parts_dir, columns=INPUT_COLUMNS) \
            .map_batches(ParseStage.as_fn(), batch_format="pyarrow")
        recombine_fragments(ds).write_parquet(out_dir)
        return None
    from splunk_otel_collector_ray.pipelines.logs import run_resumable

    return run_resumable(parts_dir, out_dir)


# --------------------------------------------------------------------- checks

def parquet_files(d: str) -> list[str]:
    return sorted(os.path.join(a, f) for a, _, fs in os.walk(d)
                  for f in fs if f.endswith(".parquet"))


def _nonzero(d: dict) -> dict:
    return {k: int(v) for k, v in sorted(d.items()) if v}


def check_export(out_dir: str, res: dict, oracle: dict,
                 n_turns: int) -> list[str]:
    """Per-sink counts = oracle; Σ footer rows = Σ manifest rows = input."""
    import pyarrow.parquet as pq

    from splunk_otel_collector_ray.state import manifest as mf

    errs = []
    footer: dict[str, int] = {}
    for f in parquet_files(out_dir):
        sink = next(c.split("=", 1)[1] for c in f.split(os.sep)
                    if c.startswith("sink="))
        footer[sink] = footer.get(sink, 0) + pq.read_metadata(f).num_rows
    man_rows, man_sinks = 0, {}
    for part_id in res["processed"]:
        m = mf.read_manifest(os.path.join(out_dir, f"part={part_id}"))
        if m is None:
            errs.append(f"no manifest for part {part_id}")
            continue
        man_rows += m["rows"]
        for s, n in m["sink_counts"].items():
            man_sinks[s] = man_sinks.get(s, 0) + n
    want = _nonzero(oracle["sink_counts"])
    if _nonzero(man_sinks) != want:
        errs.append(f"manifest sink counts {man_sinks} != oracle {want}")
    if _nonzero(footer) != want:
        errs.append(f"footer sink rows {footer} != oracle {want}")
    if not (sum(footer.values()) == man_rows == n_turns == oracle["rows"]):
        errs.append(f"rows: footers {sum(footer.values())}, manifests "
                    f"{man_rows}, input {n_turns}, oracle {oracle['rows']}")
    if res["skipped"]:
        errs.append(f"fresh output dir skipped {res['skipped']}")
    return errs


def check_recombine(out_dir: str, oracle: dict, n_turns: int) -> list[str]:
    """Record count = oracle; every input fragment lands in one record."""
    import pyarrow.parquet as pq

    files = parquet_files(out_dir)
    records = sum(pq.read_metadata(f).num_rows for f in files)
    frags = sum(pq.read_table(f, columns=["n_fragments"])["n_fragments"]
                .to_numpy().sum() for f in files)
    errs = []
    if records != oracle["records"]:
        errs.append(f"records {records} != oracle {oracle['records']}")
    if not (frags == oracle["record_fragments"] == n_turns):
        errs.append(f"fragments {frags}, oracle "
                    f"{oracle['record_fragments']}, input {n_turns}")
    return errs


def snapshot(d: str) -> dict[str, str]:
    out = {}
    for a, _, fs in os.walk(d):
        for f in fs:
            p = os.path.join(a, f)
            with open(p, "rb") as fh:
                out[os.path.relpath(p, d)] = hashlib.sha256(
                    fh.read()).hexdigest()
    return out


def check_exactly_once(parts_dir: str, out_dir: str) -> list[str]:
    """Delete half the manifests, rerun, and compare with the first run."""
    from splunk_otel_collector_ray.pipelines.logs import run_resumable

    before = snapshot(out_dir)
    mans = sorted(glob.glob(os.path.join(out_dir, "part=*", "_MANIFEST.json")))
    for m in mans[::2]:
        os.remove(m)
    kept = sorted(os.path.basename(os.path.dirname(m))[len("part="):]
                  for m in mans[1::2])
    res = run_resumable(parts_dir, out_dir)
    errs = []
    if sorted(res["skipped"]) != kept:
        errs.append(f"skipped {sorted(res['skipped'])} != kept {kept}")
    after = snapshot(out_dir)
    if after != before:
        diff = sorted(set(before) ^ set(after)) or sorted(
            k for k in before if before[k] != after[k])
        errs.append(f"output differs from the first run: {diff[:4]}")
    return errs


def check_small_parts(seed: int) -> dict:
    """Known defect: run_resumable over many ~5k-turn part files."""
    from splunk_otel_collector_ray.pipelines.logs import run_resumable

    n_files, per_file = SMALL_PARTS
    parts, _ = input_dir("mixed_logs", seed, (n_files * per_file, per_file))
    out = os.path.join(WORK, "small_parts")
    shutil.rmtree(out, ignore_errors=True)
    try:
        run_resumable(parts, out)
    except Exception as e:  # the check reports whatever the run raised
        flat = " ".join(str(e).split()).split(" The above exception")[0]
        last = re.search(r"\w+Error: (?:(?!\w+Error: ).)*$", flat)
        return {"passed": False,
                "error": (last.group(0) if last else repr(e))[:300]}
    return {"passed": True, "error": None}


# ----------------------------------------------------------------- measuring

def measure(workload: str, parts_dir: str, props: dict, oracle: dict,
            seconds: float, min_calls: int) -> dict:
    """Timed calls until ``seconds`` have passed (at least ``min_calls``)."""
    n = props["turns"]
    walls, peaks, out_bytes, refs, errors = [], [], [], [], []
    steal = 0
    t_end = time.perf_counter() + seconds
    k = 0
    # stop before a call that would end past the window (median call time)
    while k < min_calls or time.perf_counter() + med(walls) <= t_end:
        out = os.path.join(WORK, "out", f"call{k % 2}")
        shutil.rmtree(out, ignore_errors=True)
        refs.append(ref_kernel())
        s0 = steal_ticks()
        with RssSampler() as rss:
            t0 = time.perf_counter()
            res = timed_call(workload, parts_dir, out)
            walls.append(time.perf_counter() - t0)
        steal += steal_ticks() - s0
        refs.append(ref_kernel())
        peaks.append(rss.peak / (1 << 20))
        out_bytes.append(sum(os.path.getsize(f) for f in parquet_files(out)))
        errs = (check_recombine(out, oracle, n) if res is None
                else check_export(out, res, oracle, n))
        errors.append(errs)
        k += 1
    return {"walls": walls, "peaks": peaks, "out_bytes": out_bytes,
            "refs": refs, "steal_s": steal / os.sysconf("SC_CLK_TCK"),
            "errors": errors, "last_out": out}


def child_session(args) -> tuple[float, dict]:
    """Set-up time and timed calls of one fresh process (``--session``)."""
    proc = subprocess.Popen(
        [sys.executable, os.path.abspath(__file__), "--session",
         "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds)], cwd=ROOT,
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    try:
        stdout, _ = proc.communicate(timeout=150)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise
    lines = [ln for ln in stdout.splitlines() if ln.startswith("SESSION ")]
    if proc.returncode or not lines:
        raise RuntimeError(f"session process exited {proc.returncode}")
    out = json.loads(lines[-1][len("SESSION "):])
    return out.pop("setup"), out


def recombine_layer(parts_dir: str) -> dict:
    """Ray wall time of ``recombine_fragments(...).count()`` over the
    already-materialised parsed docker rows of the input."""
    import pyarrow.compute as pc
    import ray.data

    from splunk_otel_collector_ray.pipelines.logs import INPUT_COLUMNS
    from splunk_otel_collector_ray.stages.parse import ParseStage
    from splunk_otel_collector_ray.stages.recombine import recombine_fragments

    parsed = (ray.data.read_parquet(parts_dir, columns=INPUT_COLUMNS)
              .map_batches(ParseStage.as_fn(), batch_format="pyarrow")
              .map_batches(lambda t: t.filter(
                  pc.equal(t["log_format"], "docker")),
                  batch_format="pyarrow")
              .materialize())
    frags = parsed.count()
    t0 = time.perf_counter()
    records = recombine_fragments(parsed).count()
    wall = time.perf_counter() - t0
    return {"s": wall, "records": records, "fragments": frags}


def med(xs: list[float]) -> float:
    return float(statistics.median(xs))


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


# ---------------------------------------------------------------------- main

def per_layer_metrics(rep: dict, fam: dict, rec: dict, e2e_wall: float,
                      workload: str, m: dict) -> dict:
    import replay as rp

    st = rep["self"]
    c = rep["counts"]
    parse_s = st["parse"]
    out = {
        "read.s": metric(st["read"], "s"),
        "read.rows": metric(c["read.rows"], "count"),
        "tag.s": metric(st["tag"], "s"),
        "parse.s": metric(parse_s, "s"),
        "parse.classify_s": metric(rep["classify_s"], "s"),
        "parse.extract_s": metric(parse_s - rep["classify_s"], "s"),
        "parse.hit_share": metric(c["parse.hits"] / c["read.rows"], "share"),
    }
    for name in rp.FAMILY_NAMES:
        out[f"parse.us_per_row.{name}"] = metric(fam[name], "us")
    out["enrich.s"] = metric(st["enrich"], "s")
    out["enrich.out_mb"] = metric(c["enrich.bytes"] / (1 << 20), "MiB")
    out["route.s"] = metric(st["route"], "s")
    for sink, n in rep["sink_rows"].items():
        out[f"route.rows.{sink}"] = metric(n, "count")
    out["export.s"] = metric(st["export"], "s")
    out["export.files"] = metric(rep["export_files"], "count")
    out["export.mb"] = metric(rep["export_bytes"] / (1 << 20), "MiB")
    out["aggregate.s"] = metric(st["aggregate"], "s")
    out["aggregate.partial_rows"] = metric(rep["partial_rows"], "count")
    out["manifest.s"] = metric(st["manifest"], "s")
    out["recombine.s"] = metric(rec["s"], "s")
    out["recombine.records"] = metric(rec["records"], "count")
    out["recombine.fragments_per_record"] = metric(
        rec["fragments"] / rec["records"] if rec["records"] else 0.0,
        "ratio")
    layers = sum(st[k] for k in LAYERS)
    if workload == "docker_recombine":  # its e2e chain: read → parse → stitch
        chain = st["read"] + parse_s + rec["s"]
    else:
        chain = layers
    out["executor.s"] = metric(e2e_wall - chain, "s")
    out["replay.wall_s"] = metric(rep["wall"], "s")
    # time inside the replay but in no layer span: span bookkeeping + glue
    out["trace.overhead_s"] = metric(rep["wall"] - layers, "s")
    out["host.ref_s"] = metric(med(m["refs"]), "s")
    out["host.steal_s"] = metric(m["steal_s"], "s")
    return out


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=tuple(SIZES), required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=18)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--session", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args()
    require_program()
    os.makedirs(WORK, exist_ok=True)

    import ray

    import oracle as orc

    setup = start_engine(args.workload)
    phases = {"setup": setup}
    mark = [time.perf_counter()]

    def phase(name: str) -> None:
        now = time.perf_counter()
        phases[name] = now - mark[0]
        mark[0] = now

    parts_dir, props = input_dir(args.workload, args.seed,
                                 SIZES[args.workload])
    phase("inputs")
    oracle = orc.ensure(parts_dir, os.path.join(CACHE, "fixtures"),
                        os.path.join(WORK, "duckdb"))
    phase("oracle")
    # tracing off: the calls are split over SESSIONS processes, whose
    # set-ups are the setup_s samples; spreading the calls over the whole
    # run lets the best call escape short slow spells of the shared host
    sessions = 1 if args.trace else SESSIONS
    m = measure(args.workload, parts_dir, props, oracle,
                args.seconds / sessions, MIN_CALLS if args.trace else 2)
    phase("measure")
    if args.session:
        del m["last_out"]
        print("SESSION " + json.dumps({"setup": setup, **m}), flush=True)
        ray.shutdown()
        return
    checks = {}
    small = rec = None
    if args.workload == "mixed_logs":
        checks["exactly_once"] = check_exactly_once(parts_dir, m["last_out"])
        phase("exactly_once")
        small = check_small_parts(args.seed)
        phase("small_parts")
    if args.trace:
        rec = recombine_layer(parts_dir)
        phase("recombine")
    ray.shutdown()
    phase("shutdown")
    setups = [setup]
    for _ in range(sessions - 1):
        s, more = child_session(args)
        setups.append(s)
        for k in ("walls", "peaks", "out_bytes", "refs", "errors"):
            m[k] += more[k]
        m["steal_s"] += more["steal_s"]
    if sessions > 1:
        phase("sessions")
    checks = {**{f"call{i}": e for i, e in enumerate(m["errors"])}, **checks}

    n = props["turns"]
    e2e = {
        # the run's fastest call: the shared host only ever slows a call,
        # in spells of up to ~80 s, and the best call over the ~40 s the
        # sessions span is far steadier than any median (logbench/README.md)
        "turns_per_s": metric(n / min(m["walls"]), "1/s"),
        "setup_s": None,
        "peak_rss_mb": metric(med(m["peaks"]), "MiB"),
        "out_bytes_per_turn": metric(med(m["out_bytes"]) / n, "B"),
    }
    if args.trace:
        import pyarrow as pa
        import pyarrow.parquet as pq

        import replay as rp

        parts = sorted(glob.glob(os.path.join(parts_dir, "*.parquet")))
        rep = rp.replays(parts, os.path.join(WORK, "replay"), REPLAYS)
        fam_dir, _ = input_dir("mixed_logs", args.seed,
                               (FAMILY_SAMPLE_TURNS, FAMILY_SAMPLE_TURNS))
        fam = rp.family_costs(pa.concat_tables(
            pq.read_table(f) for f in
            sorted(glob.glob(os.path.join(fam_dir, "*.parquet")))))
        trace_path = os.path.join(
            WORK, f"trace-{args.workload}-s{args.seed}.json")
        with open(trace_path, "w") as f:
            json.dump(rep["spans"], f)
        metrics = per_layer_metrics(rep, fam, rec, med(m["walls"]),
                                    args.workload, m)
        checks["replay"] = (
            [] if _nonzero(rep["sink_rows"]) == _nonzero(
                oracle["sink_counts"]) else
            [f"replay sink rows {rep['sink_rows']} != oracle "
             f"{oracle['sink_counts']}"])
        e2e["setup_s"] = metric(setup, "s")
        phase("replay")
    else:
        e2e["setup_s"] = metric(med(setups), "s")
        metrics = e2e
        trace_path = None
    print("phases_s: " + " ".join(f"{k}={v:.2f}" for k, v in phases.items()))

    failed = sum(1 for e in checks.values() if e)
    report(args, props, m, e2e, metrics, checks, small, trace_path)
    print(json.dumps({"correct": failed == 0, "attempted": len(checks),
                      "failed": failed, "metrics": metrics}), flush=True)


NOTES = {
    "parse.extract_s": "computed: parse.s - parse.classify_s",
    "executor.s": "computed from two runs: untraced end-to-end median wall "
                  "- replay self time of the layers that call runs",
    "trace.overhead_s": "replay wall - sum of layer self times",
    "parse.us_per_row.plain": "every per-family cost is measured on a "
                              "seeded mixed_logs sample",
}
LAYERS = ("read", "tag", "parse", "enrich", "route", "export", "aggregate",
          "manifest")


def report(args, props, m, e2e, metrics, checks, small, trace_path) -> None:
    import pandas
    import pyarrow
    import ray

    cpus = len(os.sched_getaffinity(0))
    nproc = min(cpus, int(os.environ.get("OMP_NUM_THREADS") or cpus))
    print(f"host: nproc={nproc} cpus_visible={cpus} num_cpus=1 "
          f"ray={ray.__version__} pyarrow={pyarrow.__version__} "
          f"pandas={pandas.__version__}")
    print(f"input: {json.dumps(props, sort_keys=True)}")
    print(f"calls: {len(m['walls'])} walls_s="
          f"{[round(w, 3) for w in m['walls']]}")
    print(f"host probes: ref_s median={med(m['refs']):.4f} "
          f"min={min(m['refs']):.4f} max={max(m['refs']):.4f} "
          f"steal_s={m['steal_s']:.2f}")
    for name, errs in checks.items():
        state = "FAILED " + "; ".join(errs) if errs else "ok"
        print(f"check {name}: {state}")
    if small is not None:
        state = "passed" if small["passed"] else "FAILED (known defect)"
        print(f"check small_parts: {state} {small['error'] or ''}".rstrip())
    notes = dict(NOTES, setup_s="this process only") if trace_path else NOTES
    for name, v in {**e2e, **metrics}.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"metric {name} = {v['value']:.6g} {v['unit']}{note}")
    if trace_path:
        layers = sum(metrics[f"{k}.s"]["value"] for k in LAYERS)
        print(f"trace: {trace_path}  replay wall "
              f"{metrics['replay.wall_s']['value']:.4f} s = Σ layer self "
              f"{layers:.4f} s + overhead "
              f"{metrics['trace.overhead_s']['value']:.4f} s")


if __name__ == "__main__":
    main()
