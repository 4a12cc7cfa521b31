

def test_pii_signals_counts():
    import pyarrow as pa

    from splunk_otel_collector_ray.stages.text_analysis import pii_signals

    t = pa.table({"text": [
        "mail a@b.co and c.d+x@e.org now",
        "from 10.0.0.1 to 192.168.1.255",
        "call 555-123-4567 or 555.987.6543",
        "nothing here",
    ]})
    out = pii_signals(t).to_pandas()
    assert list(out["n_emails"]) == [2, 0, 0, 0]
    assert list(out["n_ipv4"]) == [0, 2, 0, 0]
    assert list(out["n_phones"]) == [0, 0, 2, 0]
    assert list(out["has_pii"]) == [True, True, True, False]


def test_tfidf_top_terms(ray_session):
    import math

    import pandas as pd
    import ray.data

    from splunk_otel_collector_ray.stages.text_analysis import tfidf_top_terms

    docs = pd.DataFrame({
        "doc_id": [1, 2, 3],
        "text": ["cat cat dog", "dog fish", "fish fish fish bird"],
    })
    out = tfidf_top_terms(ray.data.from_pandas(docs), k=2).to_pandas()
    got = {(r.doc_id, r.token): (r.tf, r.score) for r in out.itertuples()}
    # doc 1: cat tf=2 df=1 → 2·ln3 beats dog tf=1 df=2 → ln(3/2)
    assert got[(1, "cat")][0] == 2
    assert math.isclose(got[(1, "cat")][1], 2 * math.log(3))
    assert math.isclose(got[(1, "dog")][1], math.log(3 / 2))
    # doc 3: fish tf=3 df=2 → 3·ln(3/2) vs bird tf=1 df=1 → ln3
    assert math.isclose(got[(3, "fish")][1], 3 * math.log(3 / 2))
    assert got[(3, "bird")][0] == 1
    assert len(out) == 6  # k=2 per doc


def test_inverted_index(ray_session):
    import pandas as pd
    import ray.data

    from splunk_otel_collector_ray.stages.text_analysis import inverted_index

    docs = pd.DataFrame({
        "doc_id": [3, 1, 2],
        "text": ["cat dog cat", "dog bird", "dog cat"],
    })
    out = inverted_index(ray.data.from_pandas(docs),
                         min_df=2).to_pandas()
    got = {r.token: (r.df, r.postings) for r in out.itertuples()}
    # cat appears in docs 2,3 (twice in 3 counts once); bird df=1 pruned
    assert got["cat"] == (2, "2,3")
    assert got["dog"] == (3, "1,2,3")
    assert "bird" not in got


def test_split_sentences_punctuation():
    import pyarrow as pa

    from splunk_otel_collector_ray.stages.text_analysis import split_sentences

    t = pa.table({"doc_id": [1, 2, 3],
                  "text": ["One. Two! Three? End", "single", None]})
    out = split_sentences(t).to_pandas()
    got = list(zip(out["doc_id"], out["sent_idx"], out["sentence"]))
    assert got == [(1, 1, "One"), (1, 2, "Two"), (1, 3, "Three"),
                   (1, 4, "End"), (2, 1, "single"), (3, 1, "")]


def test_log_templates_masks_and_ranks(ray_session):
    import ray.data

    from splunk_otel_collector_ray.stages.text_analysis import log_templates

    rows = ([{"text": f"connect from 10.0.0.{i} port {1000 + i}"}
             for i in range(5)]
            + [{"text": "disk full on /dev/sda1"}] * 3
            + [{"text": "disk full on /dev/sda2"}])
    out = log_templates(ray.data.from_items(rows), "text").to_pandas()
    assert list(out["template"]) == ["connect from #.#.#.# port #",
                                     "disk full on /dev/sda#"]
    assert list(out["n"]) == [5, 4]


def test_json_int_field():
    import pyarrow as pa

    from splunk_otel_collector_ray.stages.text_analysis import json_int_field

    t = pa.table({"props": ['{"k": 42}', '{"k":-7, "j": 1}', '{"j": 9}',
                            None, '{"k": "text"}']})
    out = json_int_field(t, "props", "k", "k_val").to_pandas()
    vals = out["k_val"].tolist()
    assert vals[0] == 42 and vals[1] == -7
    assert all(v is None or v != v for v in (vals[2], vals[3], vals[4]))


def test_zscore_flags_matches_numpy(ray_session):
    import numpy as np
    import pandas as pd
    import ray.data

    from splunk_otel_collector_ray.stages.stats import zscore_flags

    rng = np.random.default_rng(7)
    df = pd.DataFrame({
        "g": np.repeat(["a", "b"], 200),
        "x": np.concatenate([rng.integers(40, 60, 199), [500],
                             rng.integers(0, 5, 200)]).astype(np.int64),
    })
    out = zscore_flags(ray.data.from_pandas(df), "x", "g").to_pandas()
    for g, sub in out.groupby("g"):
        x = sub["x"].to_numpy(np.float64)
        mu, sd = x.mean(), x.std()  # population std, ddof=0
        np.testing.assert_allclose(
            sub["z"].to_numpy(), (x - mu) / sd, rtol=1e-9)
    assert out.loc[out["x"] == 500, "is_outlier"].all()
    # constant group → z = 0, no flags
    const = pd.DataFrame({"g": ["c"] * 8, "x": np.full(8, 3, np.int64)})
    out2 = zscore_flags(ray.data.from_pandas(const), "x", "g").to_pandas()
    assert (out2["z"] == 0).all() and not out2["is_outlier"].any()


def test_familiarity_score_hand_corpus(ray_session):
    import numpy as np
    import pandas as pd
    import pyarrow as pa

    import ray.data
    from splunk_otel_collector_ray.stages.text_analysis import (
        familiarity_score,
        reference_bigram_counts,
    )

    # train split = ids where (id*K)%10000 < 9000; pick ids so membership
    # is known: 0 is train ((0*K)%m=0); find a non-train id
    K, m = 2654435761, 10000
    heldout = next(i for i in range(1, 50) if (i * K) % m >= 9000)
    docs = pd.DataFrame({
        "doc_id": np.array([0, heldout], dtype=np.int64),
        "text": ["ababa", "abzz"],
    })
    ds = ray.data.from_arrow(pa.Table.from_pandas(docs))
    ref = reference_bigram_counts(ds)
    # ref trained on doc 0 only: bigrams ab×2, ba×2
    got = dict(zip(
        ref["b"], ref["n"]))
    ab = ord("a") * 0x110000 + ord("b")
    ba = ord("b") * 0x110000 + ord("a")
    assert got == {ab: 2, ba: 2}
    out = familiarity_score(ds, ref).to_pandas().set_index("doc_id")
    # doc 0: bigrams ab,ba,ab,ba → (2+2+2+2)/4 = 2.0
    assert out.loc[0, "familiarity"] == 2.0
    # heldout "abzz": ab(2) + bz(0) + zz(0) over 3 bigrams
    assert out.loc[heldout, "familiarity"] == 2 / 3
    # short/empty docs score 0.0
    tiny = ray.data.from_arrow(pa.table({
        "doc_id": pa.array([7], pa.int64()), "text": ["x"]}))
    assert familiarity_score(tiny, ref).to_pandas()[
        "familiarity"].iloc[0] == 0.0


def test_langid_model_trains_and_beats_stopword_heuristic(ray_session):
    """Corpus-trained char-bigram language profiles must classify held-out
    (hash-test-split) docs at least as well as the stopword heuristic —
    including content-word-only docs the heuristic can only call 'unk'."""
    import numpy as np
    import pandas as pd

    import ray.data
    from splunk_otel_collector_ray.partitioning import pd_table
    from splunk_otel_collector_ray.stages import stage_fn
    from splunk_otel_collector_ray.stages.text_analysis import (
        LangIdStage,
        langid_model_predict,
        train_langid_profiles,
    )

    pools = {
        "en": ("quick brown fox jumps lazy dog evening river mountain "
               "yellow through knowledge weather brought thought"),
        "de": ("schneller brauner fuchs springt fauler hund abend fluss "
               "berg gelb durch wissen wetter brachte gedanke über"),
        "fr": ("renard brun rapide saute chien paresseux soirée rivière "
               "montagne jaune à travers connaissance météo pensée déjà"),
        "es": ("zorro marrón rápido salta perro perezoso tarde río "
               "montaña amarillo través conocimiento tiempo pensó año"),
    }
    rng = np.random.default_rng(3)
    rows, doc_id = [], 0
    for lang, pool in pools.items():
        words = pool.split()
        for _ in range(60):
            n = int(rng.integers(8, 20))
            rows.append((doc_id, " ".join(rng.choice(words, n)), lang))
            doc_id += 1
    df = pd.DataFrame(rows, columns=["doc_id", "text", "lang"])
    ds = ray.data.from_arrow(pd_table(df))

    model = train_langid_profiles(ds)
    assert set(model["lang"]) == set(pools) and (model["w"] > 0).all()
    pred = langid_model_predict(ds, model).to_pandas().set_index("doc_id")
    heur = ds.map_batches(
        stage_fn(LangIdStage),
        batch_format="pyarrow").to_pandas().set_index("doc_id")

    K, m = 2654435761, 10000
    held = df[(df["doc_id"].to_numpy() * K) % m >= 9000]
    assert len(held) >= 10  # the split must actually hold docs out
    truth = held["lang"].to_numpy()
    model_acc = (pred.loc[held["doc_id"], "pred_lang"].to_numpy()
                 == truth).mean()
    heur_acc = (heur.loc[held["doc_id"], "pred_lang"].to_numpy()
                == truth).mean()
    assert model_acc >= heur_acc
    assert model_acc >= 0.9


def test_gopher_quality_rules_hand_docs():
    import numpy as np
    import pyarrow as pa

    from splunk_otel_collector_ray.stages.text_analysis import (
        gopher_quality_rules,
    )

    good = " ".join(["the quick brown fox jumps over lazy dogs"] * 8)
    t = pa.table({"text": [
        good,                                # passes every rule
        "too few words with the and",        # < min_words
        good + " ##### ##### ##### #####",   # symbol ratio blown
        "1 2 3 " * 30,                       # no alpha words, short words
        None,                                # null → zeros, keep False
    ]})
    out = gopher_quality_rules(
        t, min_words=20, stop_words=("the", "and", "over")).to_pandas()
    assert list(out["keep"]) == [True, False, False, False, False]
    assert out["n_words"][4] == 0 and out["mean_word_len"][4] == 0.0
    # 64 words of the repeated 8-word sentence, every one alphabetic
    assert out["n_words"][0] == 64
    assert out["frac_alpha_words"][0] == 1.0
    assert out["n_stop_hits"][0] == 2
    # '...' counted non-overlapping, '#' per char
    assert np.isclose(out["symbol_to_word"][2],
                      20 / out["n_words"][2])


def test_c4_line_filter_rules(ray_session):
    import pandas as pd
    import ray.data

    from splunk_otel_collector_ray.stages.text_analysis import c4_line_filter

    docs = pd.DataFrame({"doc_id": [1, 2, 3, 4], "text": [
        # doc 1: three good lines, one too short, one no terminal punct,
        # one banned phrase — reassembles from the three survivors
        "this first line has enough words here.\n"
        "short line.\n"
        "this second line also has enough words!\n"
        "this line has no terminal punctuation at all\n"
        "enable javascript to view this page now.\n"
        "a third good line closes the document?",
        # doc 2: code-ish, dropped by the brace rule
        "function f() { return 1; }\nanother perfectly fine line here.",
        # doc 3: only one surviving line → below min_kept_lines
        "one single good line with enough words.",
        # doc 4: lines survive only when terminal punct not required
        "five words but no punctuation here\nsame again on this line too",
    ]})
    out = c4_line_filter(
        ray.data.from_pandas(docs), sep="\n", min_words_per_line=5,
        banned=("javascript",), require_terminal_punct=True,
        min_kept_lines=2).to_pandas().set_index("doc_id")
    assert list(out.index) == [1]
    assert out.loc[1, "n_lines"] == 6 and out.loc[1, "n_kept"] == 3
    assert out.loc[1, "text"] == (
        "this first line has enough words here.\n"
        "this second line also has enough words!\n"
        "a third good line closes the document?")
    # without the punctuation rule doc 4 survives, doc 2 still brace-dropped
    out2 = c4_line_filter(
        ray.data.from_pandas(docs), sep="\n", min_words_per_line=5,
        banned=("javascript",), require_terminal_punct=False,
        min_kept_lines=2).to_pandas()
    assert sorted(out2["doc_id"]) == [1, 4]


def test_contamination_fraction_semantics(ray_session):
    """Hand-built corpus: eval doc (id % 25 == 0) defines the gram set;
    a training doc sharing ALL its 8-gram occurrences scores 1.0 and
    trips the 70% verdict, a disjoint doc scores 0.0."""
    import pyarrow as pa
    import ray
    import ray.data

    from splunk_otel_collector_ray.stages import stage_fn
    from splunk_otel_collector_ray.stages import text_analysis as ta

    eval_text = "a b c d e f g h i"          # 9 tokens -> two 8-grams
    docs = pa.table({
        "doc_id": pa.array([0, 1, 2], type=pa.int64()),
        "text": [eval_text,                   # eval split (0 % 25 == 0)
                 eval_text,                   # full overlap
                 "q r s t u v w x y z"],      # disjoint
    })
    ds = ray.data.from_arrow(docs)
    ref = ray.put(ta.build_eval_ngram_hashes(ds))
    stage = stage_fn(ta.DecontaminateStage, ref, fractions=True)
    out = (ds.map_batches(stage, batch_format="pyarrow")
           .to_pandas().sort_values("doc_id").reset_index(drop=True))
    assert out["doc_id"].tolist() == [1, 2]   # eval doc dropped
    assert out["n_grams"].tolist() == [2, 3]
    assert out["n_hit"].tolist() == [2, 0]
    assert out["contamination_frac"].tolist() == [1.0, 0.0]
    assert out["contaminated_hi"].tolist() == [True, False]
