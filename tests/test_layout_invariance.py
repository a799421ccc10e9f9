"""Layout invariance: every query answers the same on every physical
layout of the same documents.

One seeded corpus (Zipf vocabulary plus planted head, mid and rare terms,
phrases, a prefix family and a fuzzy family) is built Ray-free through
``BuildSegmentTask.build_one`` into one segment and into K segments; the
K segments are spliced with ``merge_run``, converted with
``convert_index``, served as two segment groups the way the distributed
searcher serves them, and masked with ``delete_by_filter``.  Every query
kind of the benchmark's reference categories, plus not, boosted term
sets, ranges, variadic phrases and nested composites, runs at k = 1, 10
and 100 in both modes under three scorers.  The rules:

- every unmasked (layout, mode) equals (one segment, ``all``) on docs,
  keys, float scores and dtypes, and (one segment, ``all``) equals the
  per-segment execution (``IndexSearcher.execute``) ranked by
  (-score, doc);
- every masked layout equals the masked splice, which equals its own
  per-segment execution;
- a layout that mixes tiny segments (max doc length < 256, the one-byte
  norms path) with a non-tiny one scores each segment on its own path, so
  it equals its per-segment execution, not the single segment;
- a snapshot with no segments answers an empty frame.
"""

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from iresearch_ray.index import build as build_mod
from iresearch_ray.index import manifest as manifest_mod
from iresearch_ray.index.delete import delete_by_filter
from iresearch_ray.index.merge import merge_run
from iresearch_ray.search import (BM25, AndFilter, FuzzyFilter, IndexReader,
                                  IndexSearcher, NotFilter, OrFilter,
                                  PhraseFilter, PrefixFilter, RangeFilter,
                                  TermFilter, TermsFilter, WildcardFilter)
from iresearch_ray.search.distributed_core import (GroupSearchCore,
                                                   merge_group_hits,
                                                   pilot_threshold)
from iresearch_ray.search.executor import hits_frame
from iresearch_ray.search.filters import df_collect_nodes
from iresearch_ray.tools import convert_index

SEED = 7
N_DOCS = 6_000
SEG_DOCS = 1_200  # K = 5; every segment holds >= 8 blocks of `wterm`
KS = (1, 10, 100)
SCORERS = {"bm25": BM25(), "bm15": BM25(b=0.0),
           "bm25_f64": BM25(dtype=np.float64)}
# planted term sequence -> share of docs (a family cycles by doc index)
PLANTED = {("hterm",): 0.30, ("mterm",): 0.04, ("lterm",): 0.004,
           ("ref", "name"): 0.03, ("books", "id"): 0.005, ("delme",): 0.05}
FAMILIES = {"abc": (["abcd"], ["abcde"], ["abcdef"]),
            "fuzzy": (["fuzzy"], ["fuzy"], ["fuzzzy"], ["buzzy"], ["fzzy"])}


def _vocabulary(rng, n=500):
    letters = np.array(list("defghijklmnopqrstuvwxy"))
    words, seen = [], set()
    while len(words) < n:
        w = "".join(rng.choice(letters, size=int(rng.integers(3, 9))))
        if w not in seen:
            seen.add(w)
            words.append(w)
    return words


def _corpus(n_docs, long_doc=None):
    """(urls, texts, vocabulary in Zipf rank order).  ``wterm`` occurs
    once in every doc of segments 1 and 2 only, so its BM15 scores tie
    and the block-max bound is exact there."""
    rng = np.random.default_rng(SEED)
    vocab = _vocabulary(rng)
    p = 1.0 / np.arange(1, len(vocab) + 1) ** 1.1
    p /= p.sum()
    texts = []
    for i in range(n_docs):
        words = list(rng.choice(vocab, size=int(rng.integers(3, 40)), p=p))
        for seq, share in PLANTED.items():
            if rng.random() < share:
                at = int(rng.integers(0, len(words) + 1))
                words[at:at] = list(seq)
        for fam in FAMILIES.values():
            if rng.random() < 0.03:
                words.extend(fam[i % len(fam)])
        if SEG_DOCS <= i < 3 * SEG_DOCS:
            words.append("wterm")
        if i == long_doc:
            words.extend(rng.choice(vocab, size=300, p=p))
        texts.append(" ".join(words))
    return [f"u{i:05d}" for i in range(n_docs)], texts, vocab


def _build(base, name, urls, texts, target_docs):
    path = os.path.join(base, name + ".parquet")
    pq.write_table(pa.table({"url": urls, "text": texts}), path,
                   row_group_size=SEG_DOCS)
    idx = os.path.join(base, name)
    task = build_mod.BuildSegmentTask(idx, "ascii", {}, "text", "url")
    metas = [task.build_one(s)
             for s in build_mod.plan_segments(path, target_docs=target_docs)]
    manifest_mod.commit(idx, [_entry(m) for m in metas])
    return idx, [m["segment_id"] for m in metas]


def _entry(meta):
    return {k: meta[k] for k in ("segment_id", "num_docs", "sum_doc_len",
                                 "num_terms")}


class _Group(GroupSearchCore):
    """One segment group of a K-segment snapshot, served in-process."""

    def __init__(self, segments, stats):
        self.segments, self.stats = segments, stats


class _GroupedSearcher:
    """The distributed searcher's driver half without Ray: segments
    round-robin into two groups, one global df collect, a pilot group
    whose k-th score prunes the others in mode top, one bounded merge."""

    def __init__(self, reader, scorer):
        self.reader, self.scorer = reader, scorer
        segs = reader.segments
        self.groups = [_Group(segs[i::2], reader.stats) for i in range(2)]

    def search(self, flt, k, mode):
        df_map = {t: self.reader.df(t) for t in flt.terms_needed()}
        for node in df_collect_nodes(flt):
            df_map.update(node.expand_dfs(self.reader))
        g0, *rest = self.groups
        pilot = g0.execute_topk(flt, self.scorer, df_map, k, mode)
        thr = (pilot_threshold(pilot[1], k, self.scorer.dtype)
               if mode == "top" else float("-inf"))
        return merge_group_hits(
            [pilot] + [g.execute_topk(flt, self.scorer, df_map, k, mode, thr)
                       for g in rest], k)


def _per_segment(reader, scorer, flt, k):
    """Top-k from per-segment execution, ranked by (-score, doc)."""
    docs, scores = [np.empty(0, np.int64)], [np.empty(0)]
    for seg, d, s in IndexSearcher(reader, scorer).execute(flt):
        docs.append(d + seg.base)
        scores.append(s.astype(np.float64))
    docs, scores = np.concatenate(docs), np.concatenate(scores)
    top = np.lexsort((docs, -scores))[:k]
    return hits_frame(docs[top], scores[top],
                      [reader.key_of(int(d)) for d in docs[top]])


def _same(got, want, what):
    assert list(got.columns) == ["doc", "key", "score"], what
    assert [str(t) for t in got.dtypes] == ["int64", "object", "float64"], what
    assert got["doc"].tolist() == want["doc"].tolist(), what
    assert got["key"].tolist() == want["key"].tolist(), what
    assert np.array_equal(got["score"].to_numpy().view(np.uint64),
                          want["score"].to_numpy().view(np.uint64)), what


def _queries(vocab):
    high, med, low = vocab[:6], vocab[40:44], vocab[300:302]
    T = lambda *ws: [TermFilter(w) for w in ws]  # noqa: E731
    return {
        "term_h": TermFilter("hterm"), "term_m": TermFilter("mterm"),
        "term_l": TermFilter("lterm"), "term_w": TermFilter("wterm"),
        "term_top": TermFilter(high[0]),
        "and_hh": AndFilter(T("hterm", high[0])),
        "and_hm": AndFilter(T("hterm", "mterm")),
        "and_hl": AndFilter(T("hterm", "lterm")),
        "or_hh": OrFilter(T("hterm", high[0])),
        "or_hm": OrFilter(T("hterm", "mterm")),
        "or_hl": OrFilter(T("hterm", "lterm")),
        "mm2_hml": OrFilter(T("hterm", "mterm", "lterm"), min_match=2),
        "phrase_head": PhraseFilter([high[0], high[1]]),
        "phrase_med": PhraseFilter(["ref", "name"]),
        "phrase_low": PhraseFilter(["books", "id"]),
        "prefix": PrefixFilter("abc", scored_terms_limit=16),
        "prefix_lim": PrefixFilter("abc", scored_terms_limit=2),
        "prefix_wide": PrefixFilter(high[0][:1], scored_terms_limit=16),
        "wildcard": WildcardFilter("abc%", scored_terms_limit=16),
        "fuzzy1": FuzzyFilter("fuzzy", max_distance=1, scored_terms_limit=16),
        "fuzzy2": FuzzyFilter("fuzzy", max_distance=2, scored_terms_limit=16),
        "or4high": OrFilter(T(*high[:4])),
        "or6h4m2l": OrFilter(T(*high, *med, *low)),
        "mm2_h2m2": OrFilter(T(*high[:2], *med[:2]), min_match=2),
        "or_w_missing": OrFilter(T("wterm", "nosuchterm")),
        "not": NotFilter(TermFilter("hterm"), TermFilter("mterm")),
        "terms_boost": TermsFilter(["hterm", "mterm", "lterm"],
                                   boosts=[2.0, 1.0, 0.5]),
        "terms_boost_one": TermsFilter(["hterm"], boosts=[3.0]),
        "range": RangeFilter(lo="f", hi="h", scored_terms_limit=8),
        "var_phrase": PhraseFilter([["ref", "books"], ["name", "id"]]),
        "and_or_phrase": AndFilter([OrFilter(T("hterm", "mterm")),
                                    PhraseFilter(["ref", "name"])]),
    }


@pytest.fixture(scope="module")
def layouts(tmp_path_factory):
    base = str(tmp_path_factory.mktemp("layouts"))
    urls, texts, vocab = _corpus(N_DOCS)
    one, _ = _build(base, "one", urls, texts, N_DOCS)
    kdir, ids = _build(base, "k", urls, texts, SEG_DOCS)
    delme = TermFilter("delme")
    masked_k = delete_by_filter(kdir, delme)["generation"]      # gen 2
    merge_run(kdir, ids, "seg-splice")
    meta = manifest_mod.load(kdir, 1)  # K plain: sum stats for the splice
    splice = manifest_mod.commit(kdir, [{
        "segment_id": "seg-splice", "num_docs": meta["num_docs"],
        "sum_doc_len": meta["sum_doc_len"], "num_terms": 0}])["generation"]
    masked_splice = delete_by_filter(kdir, delme)["generation"]  # gen 4
    convert_index(kdir, os.path.join(base, "conv-splice"),
                  target_docs=N_DOCS, generation=splice, index_format="1_2")
    convert_index(kdir, os.path.join(base, "conv-k"),
                  target_docs=2 * SEG_DOCS + 100, generation=1)
    murls, mtexts, _ = _corpus(N_DOCS, long_doc=SEG_DOCS + 5)
    mixed, _ = _build(base, "mixed", murls, mtexts, SEG_DOCS)
    readers = {
        "one": IndexReader(one),
        "k": IndexReader(kdir, 1),
        "splice": IndexReader(kdir, splice),
        "conv_splice": IndexReader(os.path.join(base, "conv-splice")),
        "conv_k": IndexReader(os.path.join(base, "conv-k")),
        "masked_k": IndexReader(kdir, masked_k),
        "masked_splice": IndexReader(kdir, masked_splice),
        "mixed": IndexReader(mixed),
    }
    assert [len(r.segments) for r in readers.values()] == [1, 5, 1, 1, 3,
                                                           5, 1, 5]
    assert all(s.tiny for n, r in readers.items() if n != "mixed"
               for s in r.segments)
    assert sorted({s.tiny for s in readers["mixed"].segments}) == [False, True]
    assert readers["masked_k"].segments[0].mask is not None
    return readers, _queries(vocab)


@pytest.mark.parametrize("scorer_name", sorted(SCORERS))
def test_every_layout_answers_alike(layouts, scorer_name):
    readers, queries = layouts
    scorer = SCORERS[scorer_name]
    searchers = {n: IndexSearcher(r, scorer) for n, r in readers.items()}
    searchers["grouped_k"] = _GroupedSearcher(readers["k"], scorer)
    searchers["grouped_masked_k"] = _GroupedSearcher(readers["masked_k"],
                                                     scorer)
    plain = ("one", "k", "splice", "conv_splice", "conv_k", "grouped_k")
    masked = ("masked_k", "masked_splice", "grouped_masked_k")
    for qn, flt in queries.items():
        for k in KS:
            what = f"{scorer_name} {qn} k={k}"
            want = _per_segment(readers["one"], scorer, flt, k)
            want_masked = _per_segment(readers["masked_splice"], scorer,
                                       flt, k)
            want_mixed = _per_segment(readers["mixed"], scorer, flt, k)
            for mode in ("all", "top"):
                for name in plain:
                    _same(searchers[name].search(flt, k=k, mode=mode), want,
                          f"{what} {name} {mode}")
                for name in masked:
                    _same(searchers[name].search(flt, k=k, mode=mode),
                          want_masked, f"{what} {name} {mode}")
                _same(searchers["mixed"].search(flt, k=k, mode=mode),
                      want_mixed, f"{what} mixed {mode}")


def test_empty_snapshot(tmp_path):
    manifest_mod.commit(str(tmp_path), [])
    reader = IndexReader(str(tmp_path))
    empty = hits_frame((), (), ())
    for flt in _queries(["x"] * 400).values():
        for mode in ("all", "top"):
            _same(IndexSearcher(reader, BM25()).search(flt, k=10, mode=mode),
                  empty, f"{flt!r} {mode}")


def test_snapshot_memo_stays_within_budget(layouts):
    """A sweep over many distinct terms never holds more elements than the
    memo's budget, and an entry larger than a quarter of it is served
    uncached and equal to the cached computation."""
    readers, _ = layouts
    reader = IndexReader(readers["k"].index_dir, 1)
    memo = reader.memo
    terms = sorted({t for s in reader.segments for t in s.reader.terms})
    assert len(terms) > 400
    scorer = BM25()

    def scored(t):
        rows, df, _ = memo.rows(t)
        return memo.scored(t, rows, scorer.prepare(reader.stats, df))

    head = scored("hterm")
    memo._post_cache, memo._cache_budget_v = None, 12_000
    assert 2 * len(head[0]) > memo._cache_budget() // 4
    for t in terms:
        scored(t)
        assert memo._post_cache_size <= memo._cache_budget()
    assert len(memo._post_cache) < 2 * len(terms)  # rows + scored, evicted
    before = memo._post_cache_size
    again = scored("hterm")
    assert memo._post_cache_size <= before + len(reader.segments)
    assert not any(k[0] == "scored" and k[1] == "hterm"
                   for k in memo._post_cache)
    assert np.array_equal(again[0], head[0])
    assert np.array_equal(again[1], head[1])
