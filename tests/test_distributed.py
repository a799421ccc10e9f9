"""Distributed (actor-pool) search must equal the local searcher."""

import numpy as np
import pytest

from iresearch_ray.index.build import build_index
from iresearch_ray.search import (
    BM25,
    AndFilter,
    FuzzyFilter,
    IndexReader,
    IndexSearcher,
    OrFilter,
    PhraseFilter,
    PrefixFilter,
    TermFilter,
)
from iresearch_ray.search.distributed import DistributedSearcher
from iresearch_ray.sources.pages import write_pages


@pytest.fixture(scope="module")
def dist(ray_session, tmp_path_factory):
    base = tmp_path_factory.mktemp("dist")
    pages = str(base / "pages.parquet")
    write_pages(pages, 600, row_group_size=75)
    index_dir = str(base / "index")
    build_index(pages, index_dir, analyzer="ascii", target_docs=150)
    d = DistributedSearcher(index_dir, num_groups=3)
    local = IndexSearcher(IndexReader(index_dir), BM25())
    yield d, local
    d.close()


def test_distributed_masked_index_equals_local(ray_session, tmp_path):
    """Deleted docs are masked on the actors exactly as locally, and a
    masked segment never runs WAND: its masked top docs would otherwise
    set a threshold that prunes the live docs below them.  Runs before the
    module's ``dist`` pool exists, so its own actors get free CPUs."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from iresearch_ray.index.delete import delete_by_filter

    # two 1,280-doc segments of ~100-token docs, so scores order by the
    # freq of "w": segment 1 sets a threshold from its freq-5 docs;
    # segment 2's first block (freq 60) is deleted, its second (freq 10)
    # must still win — its block bound is below a freq-60 score, so a
    # threshold taken from the deleted block would prune it
    freqs = [5 if i < 20 else 1 for i in range(1280)]
    freqs += [60] * 128 + [10] * 128 + [1] * 1024
    texts = [" ".join(["w"] * f + ["v"] * (i % 3 == 0)
                      + ["x"] * (100 - f) + ["gone"] * (f == 60))
             for i, f in enumerate(freqs)]
    path = str(tmp_path / "p.parquet")
    pq.write_table(pa.table({"url": [f"u{i:05d}" for i in range(2560)],
                             "text": texts}), path, row_group_size=1280)
    idx = str(tmp_path / "idx")
    build_index(path, idx, analyzer="ascii", target_docs=1280)
    man = delete_by_filter(idx, TermFilter("gone"))
    assert [bool(s.get("docmask")) for s in man["segments"]] == [False, True]
    local = IndexSearcher(IndexReader(idx), BM25())
    flts = {"term": lambda: TermFilter("w"),
            "union": lambda: OrFilter([TermFilter("w"), TermFilter("v")])}
    for groups in (1, 3):
        d = DistributedSearcher(idx, num_groups=groups)
        for name, make in flts.items():
            want = local.search(make(), k=10, mode="all")
            assert want["doc"].min() > 1280 + 128, name  # freq-10 docs win
            for mode in ("all", "top"):
                for got in (d.search(make(), k=10, mode=mode),
                            local.search(make(), k=10, mode=mode)):
                    assert list(got["doc"]) == list(want["doc"]), (name, mode)
                    assert list(got["key"]) == list(want["key"]), (name, mode)
                    assert np.array_equal(got["score"].to_numpy(),
                                          want["score"].to_numpy())
        d.close()


@pytest.mark.parametrize("name,make", [
    ("term", lambda: TermFilter("hterm")),
    ("and", lambda: AndFilter([TermFilter("hterm"), TermFilter("mterm")])),
    ("or_mm", lambda: OrFilter([TermFilter("hterm"), TermFilter("mterm"),
                                TermFilter("lterm")], min_match=2)),
    ("phrase", lambda: PhraseFilter(["ref", "name"])),
    ("prefix", lambda: PrefixFilter("abcd")),
    ("fuzzy", lambda: FuzzyFilter("fuzzy", max_distance=1)),
    # variadic phrase parts need their own df collect round: without it
    # each actor sums part dfs over its own segment group only, and the
    # same doc scores differently depending on which group holds it
    ("var_phrase_prefix", lambda: PhraseFilter([{"prefix": "re"}, "name"])),
    ("var_phrase_any", lambda: PhraseFilter([{"any": ["ref", "the"]},
                                             {"wildcard": "nam%"}])),
])
def test_distributed_equals_local(dist, name, make):
    d, local = dist
    a = d.search(make(), k=15)
    b = local.search(make(), k=15)
    assert list(a["doc"]) == list(b["doc"]), name
    assert list(a["key"]) == list(b["key"]), name
    assert np.allclose(a["score"].to_numpy(), b["score"].to_numpy(),
                       rtol=0, atol=0), name  # exact: expansions collect
    # global dfs via the extra round, same as local prepare


def test_distributed_wand_equals_all(dist):
    """Two-wave threshold-shared WAND returns the same top-k as full scan."""
    searcher, driver_results = dist
    from iresearch_ray.search import TermFilter

    for term in ("hterm", "mterm"):
        a = searcher.search(TermFilter(term), k=10, mode="all")
        t = searcher.search(TermFilter(term), k=10, mode="top")
        assert list(a["doc"]) == list(t["doc"])
        assert np.array_equal(a["score"].to_numpy(), t["score"].to_numpy())


def test_distributed_wand_union_equals_all(dist):
    searcher, _ = dist
    from iresearch_ray.search import OrFilter, TermFilter

    flt = lambda: OrFilter([TermFilter("hterm"), TermFilter("mterm"),
                            TermFilter("lterm")], min_match=2)
    a = searcher.search(flt(), k=10, mode="all")
    t = searcher.search(flt(), k=10, mode="top")
    assert list(a["doc"]) == list(t["doc"])
    assert np.array_equal(a["score"].to_numpy(), t["score"].to_numpy())


def test_actor_crash_recovery(dist):
    """A killed segment-group actor restarts (immutable artifacts + plain
    ctor args) and the next query still answers identically."""
    import ray

    searcher, local = dist
    from iresearch_ray.search import TermFilter

    before = searcher.search(TermFilter("hterm"), k=10)
    ray.kill(searcher.actors[0], no_restart=False)
    after = searcher.search(TermFilter("hterm"), k=10)
    assert list(before["doc"]) == list(after["doc"])
    assert np.array_equal(before["score"].to_numpy(),
                          after["score"].to_numpy())


def test_distributed_nested_expansion_scores(dist):
    """Review finding: an expansion filter nested in a composite must get
    GLOBAL dfs (previously scored zero in distributed mode)."""
    searcher, local = dist
    from iresearch_ray.search import OrFilter, PrefixFilter, TermFilter

    flt = lambda: OrFilter([PrefixFilter("abcd"), TermFilter("lterm")])
    a = searcher.search(flt(), k=15)
    b = local.search(flt(), k=15)
    assert len(a) > 0 and a["score"].max() > 0  # expansion contributes
    assert list(a["doc"]) == list(b["doc"])
    assert np.allclose(a["score"].to_numpy(), b["score"].to_numpy(),
                       rtol=0, atol=0)


def test_distributed_shared_part_df_not_double_counted(dist):
    """Review finding: the same variadic part (or a term matched by two
    overlapping expansions) appearing in TWO nodes of one query tree must
    not be summed twice into the global df map."""
    searcher, local = dist

    cases = [
        OrFilter([PhraseFilter([{"prefix": "re"}, "name"]),
                  PhraseFilter([{"prefix": "re"}, "ref"])]),
        OrFilter([PrefixFilter("abcd"), PrefixFilter("abcd")]),
    ]
    for flt in cases:
        a = searcher.search(flt, k=15)
        b = local.search(flt, k=15)
        assert list(a["doc"]) == list(b["doc"])
        assert np.allclose(a["score"].to_numpy(), b["score"].to_numpy(),
                           rtol=0, atol=0)


def test_distributed_scored_terms_limit_isolated(dist):
    """Review finding (confirmed repro): sibling exact terms / other
    nodes' df_map entries must NOT enter an expansion's scored_terms_limit
    cut — a high-df sibling evicted real matched terms so they scored 0.
    Node-namespaced df keys keep each expansion's candidate set its own."""
    searcher, local = dist

    # Or puts the high-df exact term's bare key into the shared df_map;
    # pre-fix the expansion adopted it into its 1-slot scored cut and the
    # genuinely matched prefix term scored 0
    flt = lambda: OrFilter([TermFilter("hterm"),
                            PrefixFilter("abcd", scored_terms_limit=1)])
    a = searcher.search(flt(), k=25)
    b = local.search(flt(), k=25)
    assert list(a["doc"]) == list(b["doc"])
    assert np.allclose(a["score"].to_numpy(), b["score"].to_numpy(),
                       rtol=0, atol=0)
    pa_ = searcher.search(PrefixFilter("abcd", scored_terms_limit=1), k=25)
    pb_ = local.search(PrefixFilter("abcd", scored_terms_limit=1), k=25)
    assert list(pa_["doc"]) == list(pb_["doc"])
    assert np.allclose(pa_["score"].to_numpy(), pb_["score"].to_numpy(),
                       rtol=0, atol=0)
    assert (pa_["score"].to_numpy() > 0).any()


def test_negative_boost_rejected(dist):
    """Negative boosts invert the WAND block upper bound (mode='top'
    would silently drop winners); rejected loudly engine-wide."""
    d, local = dist[0], dist[1]
    with pytest.raises(ValueError, match="negative boost"):
        local.search(TermFilter("the", boost=-1.0), k=5)
    with pytest.raises(Exception, match="negative boost"):
        d.search(TermFilter("the", boost=-2.0), k=5)


def test_distributed_empty_index(ray_session, tmp_path):
    """Zero segments -> empty frame, matching the local searcher (was a
    np.concatenate ValueError; review finding, round 5)."""
    import json
    import os

    idx = str(tmp_path / "empty_idx")
    os.makedirs(idx)
    with open(os.path.join(idx, "index_1.json"), "w") as f:
        json.dump({"format_version": 1, "generation": 1, "num_docs": 0,
                   "sum_doc_len": 0, "segments": [],
                   "build_stats": {}}, f)
    d = DistributedSearcher(idx)
    out = d.search(TermFilter("anything"), k=5)
    assert len(out) == 0
    assert list(out.columns) == ["doc", "key", "score"]


def test_group_result_bounded_to_k(dist):
    """execute_topk returns at most k rows per GROUP (the wire-traffic
    bound distributed.py documents), and the merge stays exact."""
    d, local = dist[0], dist[1]
    flt = TermFilter("the")
    got = d.search(flt, k=7)
    want = local.search(flt, k=7)
    assert got["key"].tolist() == want["key"].tolist()
    import ray as _ray

    from iresearch_ray.search.distributed_core import collect_df_map
    df_map = collect_df_map(d.actors, flt)
    for a in d.actors:
        r = _ray.get(a.execute_topk.remote(flt, d.scorer, df_map, 7, "all"))
        assert len(r[0]) <= 7

