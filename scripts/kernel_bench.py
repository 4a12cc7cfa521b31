"""Single-threaded kernel A/B pin (r3 VERDICT item 1).

Times the parse kernel (also split into the classify router and the rest:
extraction plus ts/severity/attribute assembly), the recombine stitch fold
and the doc-stats kernels over the sf0.1 corpus IN-PROCESS with no Ray —
pure pyarrow/pandas compute on one core.
A shared host's CPU steal inflates PARALLEL wall times by up to ~50%
between same-code captures (see BASELINE.md variance note). The
single-threaded kernel is less exposed, but not immune: on a 1-vCPU shared
VM, four runs of the same code read ``parse_kernel_sec`` at sf0.1 as 3.25,
3.53, 4.18 and 4.53 s. A single run cannot separate a ±15% code change from
host noise, so run parent and change alternately several times and compare
the medians:

  - kernel medians flat + parallel time moved  → host noise
  - kernel medians moved                       → code change

Usage: python scripts/kernel_bench.py [sf_dir]   (default /root/testdata/sf0.1)
Prints one JSON line; record it in BASELINE.md when re-pinning.
"""

import glob
import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), ".."))


def main() -> None:
    import pyarrow.parquet as pq

    from splunk_otel_collector_ray import corpus
    from splunk_otel_collector_ray.stages.parse import ParseStage

    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.1"
    path = corpus.ensure_transcripts(sf_dir)
    files = sorted(glob.glob(os.path.join(path, "*.parquet")))
    tables = [pq.read_table(f) for f in files]  # warm: data in memory
    n_rows = sum(t.num_rows for t in tables)

    fn = ParseStage.as_fn()
    # warm one batch (regex compile, numpy import paths)
    fn(tables[0].slice(0, 10_000))

    t0 = time.perf_counter()
    parsed = [fn(t) for t in tables]
    parse_s = time.perf_counter() - t0
    # the router's share of it, on the same tables; the rest is extraction
    # and ts/severity/attribute assembly
    stage = ParseStage()
    t0 = time.perf_counter()
    for t in tables:
        stage.classify(t["text"].combine_chunks())
    classify_s = time.perf_counter() - t0

    import pyarrow.compute as pc

    from splunk_otel_collector_ray.stages.recombine import stitch_records

    frag = [fn(t.filter(pc.starts_with(t["text"], '{"log":')))
            .select(["conv_id", "turn_idx", "body"]) for t in tables]
    t0 = time.perf_counter()
    n_stitch = sum(stitch_records(f).num_rows for f in frag)
    stitch_s = time.perf_counter() - t0

    # doc-stats kernels (token_stats + quality_scores + model_score over
    # the documents table) — the most-called doc kernels at corpus scale;
    # Arrow-RE2-native since r5 (was pandas str.count / Python re)
    from splunk_otel_collector_ray.stages import text_analysis as ta

    docs = pq.read_table(os.path.join(sf_dir, "documents.parquet"))
    for fn in (ta.token_stats, ta.quality_scores, ta.model_score):
        fn(docs.slice(0, 1000))  # warm
    t0 = time.perf_counter()
    ta.token_stats(docs)
    ta.quality_scores(docs)
    ta.model_score(docs)
    doc_s = time.perf_counter() - t0

    # explode-family kernels (repetition signals + n-gram hashing) — the
    # token-EXTRACTION hot path (Arrow C++ explode since r5; was pandas
    # str.findall / Python re per row)
    ta.repetition_stats(docs.slice(0, 1000))  # warm
    ta._token_ngram_hashes(docs.slice(0, 1000)["text"])
    t0 = time.perf_counter()
    ta.repetition_stats(docs)
    ta._token_ngram_hashes(docs["text"])
    explode_s = time.perf_counter() - t0

    print(json.dumps({
        "metric": "single-threaded kernel seconds (no Ray)",
        "sf": corpus.sf_name(sf_dir), "rows": n_rows,
        "parse_kernel_sec": round(parse_s, 3),
        "parse_classify_sec": round(classify_s, 3),
        "parse_extract_sec": round(parse_s - classify_s, 3),
        "parse_rows_per_sec": round(n_rows / parse_s, 1),
        "stitch_kernel_sec": round(stitch_s, 3),
        "stitch_rows": n_stitch,
        "doc_stats_kernel_sec": round(doc_s, 3),
        "doc_explode_kernel_sec": round(explode_s, 3),
        "doc_rows": docs.num_rows,
    }))


if __name__ == "__main__":
    main()
