"""CheckQuery-style filter correctness + BM25 parity vs brute-force oracle
(reference pattern: tests/search/filter_test_case_base.hpp:379-404)."""

import numpy as np
import pytest

from iresearch_ray.analysis import get_analyzer
from iresearch_ray.index.build import build_index
from iresearch_ray.search import (
    BM25,
    AllFilter,
    AndFilter,
    FuzzyFilter,
    IndexReader,
    IndexSearcher,
    NotFilter,
    OrFilter,
    PhraseFilter,
    PrefixFilter,
    RangeFilter,
    TermFilter,
    TermsFilter,
    WildcardFilter,
)
from iresearch_ray.search.distributed import DistributedSearcher
from iresearch_ray.sources.pages import synthesize_pages, write_pages
from tests.oracle import OracleIndex

N_DOCS = 800


@pytest.fixture(scope="module")
def index(ray_session, tmp_path_factory):
    base = tmp_path_factory.mktemp("idx")
    pages_path = str(base / "pages.parquet")
    write_pages(pages_path, N_DOCS, row_group_size=100)
    index_dir = str(base / "index")
    man = build_index(pages_path, index_dir, analyzer="ascii", target_docs=300)
    assert man["build_stats"]["segments_built"] == 3
    reader = IndexReader(index_dir)
    ana = get_analyzer("ascii")
    oracle = OracleIndex(ana)
    t = synthesize_pages(N_DOCS)
    for url, text in zip(t["url"].to_pylist(), t["text"].to_pylist()):
        oracle.add(url, text)
    return reader, oracle


def _engine_matches(reader, flt, scorer=None):
    s = IndexSearcher(reader, scorer or BM25())
    out_docs, out_scores = [], []
    for seg, docs, scores in s.execute(flt):
        out_docs.append(docs + seg.base)
        out_scores.append(scores)
    if not out_docs:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float32)
    return np.concatenate(out_docs), np.concatenate(out_scores)


def test_global_stats(index):
    reader, oracle = index
    assert reader.num_docs == oracle.num_docs
    assert reader.stats.total_tokens == sum(oracle.doc_len)
    for t in ("hterm", "mterm", "lterm", "ref", "abcd"):
        assert reader.df(t) == oracle.df(t), t


@pytest.mark.parametrize("term", ["hterm", "mterm", "lterm", "the-missing"])
def test_term_scores_bitwise(index, term):
    reader, oracle = index
    docs, scores = _engine_matches(reader, TermFilter(term))
    exp = oracle.bm25_scores(term)
    assert list(docs) == sorted(exp)
    exp_scores = np.array([exp[d] for d in docs], dtype=np.float32)
    assert np.array_equal(scores, exp_scores)


def test_bm25_variants(index):
    reader, oracle = index
    for k, b in ((1.2, 0.75), (1.2, 0.0), (1.2, 1.0), (1.5, 0.3)):
        docs, scores = _engine_matches(reader, TermFilter("hterm"), BM25(k=k, b=b))
        exp = oracle.bm25_scores("hterm", k=k, b=b)
        exp_scores = np.array([exp[d] for d in docs], dtype=np.float32)
        assert np.array_equal(scores, exp_scores), (k, b)


def test_and(index):
    reader, oracle = index
    docs, scores = _engine_matches(reader, AndFilter([TermFilter("hterm"), TermFilter("mterm")]))
    a = oracle.bm25_scores("hterm")
    b = oracle.bm25_scores("mterm")
    exp_docs = sorted(set(a) & set(b))
    assert list(docs) == exp_docs
    exp = np.array([np.float32(np.float32(0) + np.float32(a[d])) + np.float32(b[d])
                    for d in exp_docs], dtype=np.float32)
    assert np.allclose(scores, exp, rtol=0, atol=0)


def test_or_and_min_match(index):
    reader, oracle = index
    terms = ["hterm", "mterm", "lterm"]
    per = [oracle.bm25_scores(t) for t in terms]
    docs, scores = _engine_matches(reader, OrFilter([TermFilter(t) for t in terms]))
    exp_docs = sorted(set().union(*[set(p) for p in per]))
    assert list(docs) == exp_docs
    for mm in (2, 3):
        docs_mm, _ = _engine_matches(
            reader, OrFilter([TermFilter(t) for t in terms], min_match=mm))
        exp_mm = sorted(d for d in exp_docs if sum(d in p for p in per) >= mm)
        assert list(docs_mm) == exp_mm, mm


def test_not(index):
    reader, oracle = index
    docs, _ = _engine_matches(reader, NotFilter(TermFilter("hterm"), TermFilter("mterm")))
    a, b = oracle.bm25_scores("hterm"), oracle.bm25_scores("mterm")
    assert list(docs) == sorted(set(a) - set(b))


def test_all_filter(index):
    reader, oracle = index
    docs, scores = _engine_matches(reader, AllFilter(boost=2.5))
    assert len(docs) == oracle.num_docs
    assert (scores == np.float32(2.5)).all()


def test_terms_filter_with_boosts(index):
    reader, oracle = index
    docs, scores = _engine_matches(reader, TermsFilter(["hterm", "mterm"], boosts=[2.0, 0.5]))
    a = oracle.bm25_scores("hterm", boost=2.0)
    b = oracle.bm25_scores("mterm", boost=0.5)
    exp_docs = sorted(set(a) | set(b))
    assert list(docs) == exp_docs


def _oracle_phrase(oracle, words):
    out = {}
    for doc_id, key in enumerate(oracle.keys, start=1):
        pass
    # rebuild doc token lists from postings is awkward; scan positions instead
    first = oracle.postings.get(words[0], [])
    for doc, _, positions in first:
        cnt = 0
        for p in positions:
            ok = True
            for j, w in enumerate(words[1:], start=1):
                plist = next((ps for d, _, ps in oracle.postings.get(w, []) if d == doc), None)
                if plist is None or (p + j) not in plist:
                    ok = False
                    break
            if ok:
                cnt += 1
        if cnt:
            out[doc] = cnt
    return out


def test_phrase(index):
    reader, oracle = index
    docs, scores = _engine_matches(reader, PhraseFilter(["ref", "name"]))
    exp = _oracle_phrase(oracle, ["ref", "name"])
    assert list(docs) == sorted(exp)
    assert len(docs) > 0
    # scored with summed idf and phrase freq as tf
    scorer = BM25()
    idf_sum = sum(scorer.idf(oracle.num_docs, oracle.df(w)) for w in ("ref", "name"))
    sp = scorer.prepare(
        __import__("iresearch_ray.search.scorers", fromlist=["FieldStats"]).FieldStats(
            oracle.num_docs, sum(oracle.doc_len)), 0, idf_override=idf_sum)
    exp_scores = sp.score(np.array([exp[int(d)] for d in docs]),
                          np.array([oracle.doc_len[int(d) - 1] for d in docs]), True)
    assert np.array_equal(scores, exp_scores)


def test_phrase_three_words_and_missing(index):
    reader, oracle = index
    docs, _ = _engine_matches(reader, PhraseFilter(["ref", "name", "zzzznotthere"]))
    assert len(docs) == 0


def test_prefix(index):
    reader, oracle = index
    docs, _ = _engine_matches(reader, PrefixFilter("abcd"))
    exp_terms = [t for t in oracle.sorted_terms() if t.startswith("abcd")]
    exp_docs = sorted({d for t in exp_terms for d, _, _ in oracle.postings[t]})
    assert list(docs) == exp_docs
    assert "abcde" in exp_terms and "abcdef" in exp_terms


def test_range(index):
    reader, oracle = index
    docs, _ = _engine_matches(reader, RangeFilter("hterm", "lterm", include_hi=True))
    exp_terms = [t for t in oracle.sorted_terms() if "hterm" <= t <= "lterm"]
    exp_docs = sorted({d for t in exp_terms for d, _, _ in oracle.postings[t]})
    assert list(docs) == exp_docs


def test_wildcard(index):
    reader, oracle = index
    docs, _ = _engine_matches(reader, WildcardFilter("abc%"))
    exp_terms = [t for t in oracle.sorted_terms() if t.startswith("abc")]
    exp_docs = sorted({d for t in exp_terms for d, _, _ in oracle.postings[t]})
    assert list(docs) == exp_docs
    docs2, _ = _engine_matches(reader, WildcardFilter("_term"))
    exp_terms2 = [t for t in oracle.sorted_terms() if len(t) == 5 and t.endswith("term")]
    exp_docs2 = sorted({d for t in exp_terms2 for d, _, _ in oracle.postings[t]})
    assert list(docs2) == exp_docs2


def test_fuzzy(index):
    reader, oracle = index

    def dist(a, b):
        import functools

        @functools.lru_cache(maxsize=None)
        def d(i, j):
            if i == 0:
                return j
            if j == 0:
                return i
            return min(d(i - 1, j) + 1, d(i, j - 1) + 1,
                       d(i - 1, j - 1) + (a[i - 1] != b[j - 1]))
        return d(len(a), len(b))

    for probe, maxd in (("fuzzy", 1), ("fuzzy", 2)):
        docs, _ = _engine_matches(reader, FuzzyFilter(probe, max_distance=maxd))
        exp_terms = [t for t in oracle.sorted_terms() if dist(t, probe) <= maxd]
        exp_docs = sorted({d for t in exp_terms for d, _, _ in oracle.postings[t]})
        assert list(docs) == exp_docs, (probe, maxd)
        assert "fuzy" in exp_terms


def test_scored_terms_limit(index):
    reader, oracle = index
    docs_all, _ = _engine_matches(reader, PrefixFilter("abcd"))
    docs_lim, scores_lim = _engine_matches(reader, PrefixFilter("abcd", scored_terms_limit=1))
    assert np.array_equal(docs_all, docs_lim)  # same matches, fewer scored


def test_topk_search_rank_and_ties(index):
    reader, oracle = index
    s = IndexSearcher(reader)
    df = s.search(TermFilter("hterm"), k=10)
    exp = oracle.top_k(["hterm"], k=10)
    assert list(df["doc"]) == [d for d, _ in exp]
    assert np.allclose(df["score"].to_numpy(),
                       np.array([sc for _, sc in exp]), rtol=1e-6)
    assert list(df.columns) == ["doc", "key", "score"]


def test_topk_wand_equals_all(index):
    reader, oracle = index
    s = IndexSearcher(reader)
    for term in ("hterm", "mterm", "lterm"):
        a = s.search(TermFilter(term), k=10, mode="all")
        b = s.search(TermFilter(term), k=10, mode="top")
        assert list(a["doc"]) == list(b["doc"]), term
        assert np.array_equal(a["score"].to_numpy(), b["score"].to_numpy())


def _var_part_pred(part):
    import re as _re

    from iresearch_ray.search.automaton import levenshtein_distances, wildcard_to_regex

    if isinstance(part, str):
        return lambda w: w == part
    if isinstance(part, (list, set, tuple)):
        s = set(part)
        return lambda w: w in s
    if "prefix" in part:
        return lambda w: w.startswith(part["prefix"])
    if "wildcard" in part:
        rx = wildcard_to_regex(part["wildcard"])
        return lambda w: bool(rx.fullmatch(w))
    if "fuzzy" in part:
        d = part.get("max_distance", 1)
        return lambda w: int(levenshtein_distances([w], part["fuzzy"], d)[0]) <= d
    raise ValueError(part)


def _oracle_var_phrase(texts, parts):
    """doc_id -> phrase freq for the variadic phrase, brute force."""
    ana = get_analyzer("ascii")
    preds = [_var_part_pred(p) for p in parts]
    out = {}
    for doc_id, text in enumerate(texts, start=1):
        toks = ana.tokens(text)
        cnt = sum(1 for p in range(len(toks) - len(preds) + 1)
                  if all(pred(toks[p + i]) for i, pred in enumerate(preds)))
        if cnt:
            out[doc_id] = cnt
    return out


@pytest.mark.parametrize("parts", [
    [{"prefix": "abc"}, "ghi"],          # prefix at position 0
    ["ref", ["name", "books"]],          # any-of set at position 1
    [{"wildcard": "fu%y"}, {"prefix": ""}],   # wildcard then match-any-token
    [{"fuzzy": "ref", "max_distance": 1}, "name"],
])
def test_variadic_phrase_vs_bruteforce(index, parts):
    reader, oracle = index
    t = synthesize_pages(N_DOCS)
    texts = t["text"].to_pylist()
    exp = _oracle_var_phrase(texts, parts)
    docs, scores = _engine_matches(reader, PhraseFilter(parts))
    assert list(docs) == sorted(exp)
    # phrase freq drives tf: re-derive scores from the engine's own idf
    if len(docs):
        prep = PhraseFilter(parts).prepare(reader, BM25())
        freqs = np.array([exp[int(d)] for d in docs])
        dls = np.array([oracle.doc_len[int(d) - 1] for d in docs])
        assert np.array_equal(scores, prep.sp.score(freqs, dls, True))


def test_variadic_phrase_fixed_path_unchanged(index):
    reader, _ = index
    fixed = PhraseFilter(["ref", "name"]).prepare(reader, BM25())
    assert hasattr(fixed, "idx_maps")  # fixed flavor keeps the exact-term path
    var = PhraseFilter([["ref"], "name"]).prepare(reader, BM25())
    d1, s1 = _engine_matches(reader, PhraseFilter(["ref", "name"]))
    d2, s2 = _engine_matches(reader, PhraseFilter([["ref"], "name"]))
    assert list(d1) == list(d2)
    assert np.array_equal(s1, s2)  # single-variant set: same clamped df sum


@pytest.mark.parametrize("make", [
    lambda: OrFilter([TermFilter("hterm"), TermFilter("mterm")]),
    lambda: OrFilter([TermFilter("hterm"), TermFilter("lterm"),
                      TermFilter("mterm")]),
    lambda: OrFilter([TermFilter("hterm"), TermFilter("mterm"),
                      TermFilter("lterm")], min_match=2),
    lambda: TermsFilter(["hterm", "mterm"], boosts=[2.0, 1.0]),
])
def test_topk_wand_union_equals_all(index, make):
    """Block-max WAND for disjunctions: identical top-k + exact scores."""
    reader, _ = index
    s = IndexSearcher(reader, BM25())
    a = s.search(make(), k=10, mode="all")
    t = s.search(make(), k=10, mode="top")
    assert list(a["doc"]) == list(t["doc"])
    assert np.array_equal(a["score"].to_numpy(), t["score"].to_numpy())
    assert list(a["key"]) == list(t["key"])


def test_topk_tie_break_prefers_lower_doc(ray_session, tmp_path_factory):
    """Docs with IDENTICAL scores at the k boundary must resolve by
    ascending doc id (argpartition alone keeps arbitrary ties)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from iresearch_ray.index.build import build_index

    base = tmp_path_factory.mktemp("ties")
    # identical docs -> identical scores within one segment
    t = pa.table({"url": [f"u{i:03d}" for i in range(120)],
                  "text": ["same tie text"] * 120})
    path = str(base / "p.parquet")
    pq.write_table(t, path, row_group_size=40)
    idx = str(base / "idx")
    build_index(path, idx, analyzer="ascii", target_docs=60)
    # one segment per actor group: the ties cross the group merge
    dist = DistributedSearcher(idx, num_groups=2)
    for s in (IndexSearcher(IndexReader(idx), BM25()), dist):
        for k in (1, 5, 17, 60):
            res = s.search(TermFilter("tie"), k=k)
            assert list(res["doc"]) == list(range(1, k + 1))  # lowest ids win
            res_t = s.search(TermFilter("tie"), k=k, mode="top")
            assert list(res_t["doc"]) == list(range(1, k + 1))
    dist.close()


def test_degenerate_k_and_mode_rejected(index):
    """k < 1 and an unknown mode raise a ValueError naming the argument,
    on the local and the distributed searcher alike (k=0 used to surface
    numpy's 'kth out of bounds'; mode='wand' silently ran exhaustively)."""
    reader, _ = index
    dist = DistributedSearcher(reader.index_dir, num_groups=2)
    for s in (IndexSearcher(reader, BM25()), dist):
        for k in (0, -1):
            with pytest.raises(ValueError, match="k must be >= 1"):
                s.search(TermFilter("hterm"), k=k)
        for mode in ("wand", "TOP"):
            with pytest.raises(ValueError, match="mode must be 'all' or 'top'"):
                s.search(TermFilter("hterm"), k=10, mode=mode)
        assert len(s.search(TermFilter("hterm"), k=1, mode="top")) == 1
    dist.close()


def test_empty_filter(index):
    """Match-none node (reference empty_filter_tests.cpp): matches nothing
    alone, is a neutral element under Or, annihilates under And."""
    from iresearch_ray.search import EmptyFilter

    reader, oracle = index
    searcher = IndexSearcher(reader, BM25())
    assert len(searcher.search(EmptyFilter(), k=10)) == 0
    just_term = searcher.search(TermFilter("hterm"), k=10)
    both = searcher.search(OrFilter([TermFilter("hterm"), EmptyFilter()]), k=10)
    assert list(both["doc"]) == list(just_term["doc"])
    assert len(searcher.search(
        AndFilter([TermFilter("hterm"), EmptyFilter()]), k=10)) == 0


def test_expansion_match_cache(index):
    """Repeated fuzzy/wildcard probes reuse the cached matched-row array
    from the reader's postings LRU (reference parametric-DFA cache role,
    levenshtein_default_pdp.cpp): the DP runs once per (probe, distance)
    per segment, and scoring knobs (boost, scored_terms_limit) share it."""
    reader, oracle = index
    for seg in reader.segments:  # reset any earlier test's cache
        seg.reader._post_cache = None
    seg_reader = reader.segments[0].reader

    calls = {"n": 0}
    orig = FuzzyFilter._match

    def counting(self, r):
        calls["n"] += 1
        return orig(self, r)

    FuzzyFilter._match = counting
    try:
        f1 = FuzzyFilter("fuzzy", max_distance=1)
        d1, s1 = _engine_matches(reader, f1)
        first = calls["n"]
        assert first == len(reader.segments)
        # same probe again, different scoring knobs -> zero new DP runs
        d2, s2 = _engine_matches(reader, FuzzyFilter("fuzzy", max_distance=1,
                                                     boost=2.0))
        assert calls["n"] == first
        assert np.array_equal(d1, d2)
        assert np.allclose(s2, 2.0 * s1)
        # different distance -> its own cache entry
        _engine_matches(reader, FuzzyFilter("fuzzy", max_distance=2))
        assert calls["n"] == 2 * first
    finally:
        FuzzyFilter._match = orig
    assert any(isinstance(k, tuple) and k and k[0] == "__match__"
               for k in seg_reader._post_cache)


def test_postings_lru_eviction_covers_all_entry_kinds():
    """Every artifact kind in the shared postings LRU (postings tuples,
    skip dicts, occurrence keys, match rows, None, empties) participates
    in size-bounded eviction — a sweep over many distinct entries cannot
    grow the cache past the budget (round-2 advice: skips() never ran
    the eviction loop)."""
    from iresearch_ray.index.segment import SegmentReader, _cache_entry_size

    assert _cache_entry_size(None) == 1
    assert _cache_entry_size(np.empty(0, dtype=np.int64)) == 1
    assert _cache_entry_size({"a": np.arange(3), "b": np.arange(2)}) == 5
    assert _cache_entry_size((np.arange(4), np.arange(4))) == 8

    r = SegmentReader.__new__(SegmentReader)
    budget = SegmentReader._CACHE_MAX_POSTINGS
    # many mid-size entries: size must stay bounded by the budget
    for i in range(50):
        r.cached_entry(("skips", i), lambda: {"last_doc": np.arange(budget // 10)})
    assert r._post_cache_size <= budget
    assert len(r._post_cache) <= 11
    # oversize bypass: huge occurrence-key arrays never enter the cache
    before = r._post_cache_size
    out = r.cached_entry(("keys", 0), lambda: np.arange(budget // 2),
                         oversize_bypass=True)
    assert len(out) == budget // 2
    assert r._post_cache_size == before


def test_phrase_lru_caches_only_occurrence_keys(tmp_path):
    """A warm fixed phrase leaves one LRU artifact per term: its
    occurrence keys, never the positional tuple they were decoded from.
    With a budget small enough that the keys are oversize
    (> budget // 4) each term keeps its positional tuple cached and its
    keys uncached.  The answers are identical either way."""
    from iresearch_ray.analysis.tokenizers import flatten_batch
    from iresearch_ray.index.manifest import commit as manifest_commit
    from iresearch_ray.index.segment import SegmentWriter, _cache_entry_size

    ana = get_analyzer("ascii")
    w = SegmentWriter("seg-00000", ana.config())
    texts = ["x y x y x y x y", "y x y x y x y x", "x x y y x x y y", "z"]
    w.add_batch_coded(flatten_batch(ana, texts), ["a", "b", "c", "d"])
    meta = w.flush(str(tmp_path))
    manifest_commit(str(tmp_path), [{k: meta[k] for k in (
        "segment_id", "num_docs", "sum_doc_len", "num_terms")}])
    reader = IndexReader(str(tmp_path))
    r = reader.segments[0].reader
    rows = [r.lookup("x"), r.lookup("y")]
    flt = PhraseFilter(["x", "y"])

    cold = _engine_matches(reader, flt)
    warm = _engine_matches(reader, flt)
    for i in rows:
        assert (i, "keys") in r._post_cache
        assert (i, True) not in r._post_cache

    r._post_cache = None
    tuples = [r._decode_postings(i, positions=True) for i in rows]
    # both positional tuples fit; both key arrays are oversize
    r._cache_budget_v = sum(_cache_entry_size(t) for t in tuples)
    assert all(t[2].size > r._cache_budget_v // 4 for t in tuples)
    small = _engine_matches(reader, flt)
    small_warm = _engine_matches(reader, flt)
    for i in rows:
        assert (i, True) in r._post_cache
        assert (i, "keys") not in r._post_cache

    assert list(cold[0]) == [1, 2, 3]
    for docs, scores in (warm, small, small_warm):
        assert np.array_equal(docs, cold[0])
        assert np.array_equal(scores, cold[1])


def test_expansion_match_cache_uses_oversize_bypass():
    """Expansion match-row arrays enter the LRU with oversize_bypass: one
    broad wildcard/range matching most of a large dictionary must not
    flush every postings/skips entry for an array too big to retain."""
    from iresearch_ray.search.filters import _ExpansionFilter

    seen = {}

    class FakeReader:
        def cached_entry(self, key, build, oversize_bypass=False):
            seen["bypass"] = oversize_bypass
            return build()

    class Probe(_ExpansionFilter):
        def _match(self, seg_reader):
            return np.arange(3)

    out = Probe()._cached_match(FakeReader())
    assert list(out) == [0, 1, 2]
    assert seen["bypass"] is True


def test_more_like_this(index):
    """mlt_terms picks the seed's highest tf-idf indexed terms
    deterministically (brute-force cross-check) and more_like_this
    returns the BM25 top-k of their disjunction minus the seed."""
    import math
    from collections import Counter

    from iresearch_ray.search.executor import mlt_terms, more_like_this

    reader, oracle = index
    t = synthesize_pages(N_DOCS)
    corpus = dict(zip(t["url"].to_pylist(), t["text"].to_pylist()))
    seed_key = oracle.keys[0]
    seed_text = corpus[seed_key]
    terms = mlt_terms(reader, seed_text, n_terms=3)
    assert len(terms) == 3

    # brute-force the selection from the synthesized corpus
    ana = get_analyzer("ascii")
    tf = Counter(ana.tokens(seed_text))
    n_total = len(corpus)
    df = Counter()
    for text in corpus.values():
        df.update(set(ana.tokens(text)))
    scored = sorted(
        (-f * math.log((n_total + 1) / (df[t] + 1)), t)
        for t, f in tf.items() if df[t] > 0)
    assert terms == [t for _, t in scored[:3]]

    s = IndexSearcher(reader, BM25())
    out = more_like_this(s, seed_text, n_terms=3, k=10,
                         exclude_keys={seed_key})
    # tf-idf favors RARE terms, so the disjunction may match < k docs
    assert 0 < len(out) <= 10
    assert seed_key not in set(out["key"])
    # scores equal the engine's own OR-query scores for the same docs
    flt = OrFilter([TermFilter(t) for t in terms], min_match=1)
    ref = s.search(flt, k=11, mode="all")
    ref = ref[ref["key"] != seed_key].head(10).reset_index(drop=True)
    assert list(out["key"]) == list(ref["key"])
    assert np.allclose(out["score"], ref["score"])


def test_more_like_this_empty_seed(index):
    from iresearch_ray.search.executor import more_like_this

    reader, _ = index
    out = more_like_this(IndexSearcher(reader, BM25()), "??? !!!")
    assert len(out) == 0


def test_hits_frame_columns_and_dtypes(index):
    """Every searcher returns (doc int64, key object, score float64), also
    when nothing matches."""
    from iresearch_ray.search.executor import hits_frame

    cols, dtypes = ["doc", "key", "score"], ["int64", "object", "float64"]
    empty = hits_frame((), (), ())
    assert list(empty.columns) == cols and len(empty) == 0
    assert [str(t) for t in empty.dtypes] == dtypes
    f = hits_frame(np.array([3, 1], dtype=np.int32),
                   np.array([1.5, 0.5], dtype=np.float32), ["a", "b\x00"])
    assert [str(t) for t in f.dtypes] == dtypes
    assert f.to_dict("list") == {"doc": [3, 1], "key": ["a", "b\x00"],
                                 "score": [1.5, 0.5]}
    reader, _ = index
    s = IndexSearcher(reader, BM25())
    for flt in (TermFilter("hterm"), TermFilter("the-missing")):
        assert [str(t) for t in s.search(flt, k=5).dtypes] == dtypes
