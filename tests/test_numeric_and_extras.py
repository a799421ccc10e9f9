"""Granular numeric range, same-position, proxy filters."""

import numpy as np
import pytest

from iresearch_ray.analysis import get_analyzer
from iresearch_ray.analysis.tokenizers import flatten_batch
from iresearch_ray.analysis.numeric import NumericAnalyzer, cover_term_ranges
from iresearch_ray.index.manifest import commit as manifest_commit
from iresearch_ray.index.segment import SegmentWriter
from iresearch_ray.search import (
    BM25,
    BoostScore,
    GranularRangeFilter,
    IndexReader,
    IndexSearcher,
    ProxyFilter,
    SamePositionFilter,
    TermFilter,
)


def _numeric_index(tmp_path, values):
    ana = NumericAnalyzer()
    w = SegmentWriter("seg-00000", ana.config())
    w.add_batch_coded(flatten_batch(ana, values),
                      [str(i) for i in range(len(values))])
    meta = w.flush(str(tmp_path))
    manifest_commit(str(tmp_path), [{k: meta[k] for k in
                                     ("segment_id", "num_docs", "sum_doc_len", "num_terms")}])
    return IndexReader(str(tmp_path))


def test_granular_range_exhaustive(tmp_path):
    rng = np.random.default_rng(7)
    values = rng.integers(-500, 200_000, size=400).tolist() + [0, -500, 199_999]
    reader = _numeric_index(tmp_path, values)
    s = IndexSearcher(reader, BoostScore())
    varr = np.array(values)
    for lo, hi in [(-500, 200_000), (0, 0), (100, 99), (-200, 150),
                   (65535, 65537), (65536, 131071), (1, 100_000), (-500, -1)]:
        flt = GranularRangeFilter(lo, hi)
        got = set()
        for seg, docs, _ in s.execute(flt):
            got |= {int(d) for d in docs}
        exp = {i + 1 for i in np.flatnonzero((varr >= lo) & (varr <= hi))}
        assert got == exp, (lo, hi)


def test_granular_cover_uses_fewer_terms():
    # interior of a wide range must be covered at coarse levels
    ranges = cover_term_ranges(0, 1_000_000)
    levels = {r[0][:2] for r in ranges}
    assert "01" in levels or "02" in levels
    assert len(ranges) <= 6


def test_same_position(tmp_path):
    # feed overlapping positions directly (synonym-style doubled tokens)
    ana = get_analyzer("ascii")
    w = SegmentWriter("seg-00000", ana.config())
    # doc1: a@0 b@0 c@1 ; doc2: a@0 b@1
    w.add_batch_coded({
        "codes": np.array([0, 1, 2, 0, 1]),
        "dict": np.array(["a", "b", "c"], dtype=object),
        "doc_idx": np.array([0, 0, 0, 1, 1]),
        "position": np.array([0, 0, 1, 0, 1]),
        "doc_len": np.array([3, 2]),
    }, ["d1", "d2"])
    meta = w.flush(str(tmp_path))
    manifest_commit(str(tmp_path), [{k: meta[k] for k in
                                     ("segment_id", "num_docs", "sum_doc_len", "num_terms")}])
    reader = IndexReader(str(tmp_path))
    s = IndexSearcher(reader, BM25())
    res = s.execute(SamePositionFilter(["a", "b"]))
    docs = np.concatenate([d for _, d, _ in res])
    assert list(docs) == [1]  # only doc1 has a,b at identical position
    res2 = s.execute(SamePositionFilter(["a", "c"]))
    assert sum(len(d) for _, d, _ in res2) == 0


def test_proxy_filter_caches(tmp_path):
    ana = get_analyzer("ascii")
    w = SegmentWriter("seg-00000", ana.config())
    w.add_batch_coded(flatten_batch(ana, ["x y", "y z", "x"]), ["a", "b", "c"])
    meta = w.flush(str(tmp_path))
    manifest_commit(str(tmp_path), [{k: meta[k] for k in
                                     ("segment_id", "num_docs", "sum_doc_len", "num_terms")}])
    reader = IndexReader(str(tmp_path))
    calls = {"n": 0}

    class Counting(TermFilter):
        def prepare(self, r, s, df_map=None):
            inner = super().prepare(r, s, df_map)
            orig = inner.execute

            def wrapped(seg):
                calls["n"] += 1
                return orig(seg)

            inner.execute = wrapped
            return inner

    prep = ProxyFilter(Counting("x")).prepare(reader, BM25())
    seg = reader.segments[0]
    r1 = prep.execute(seg)
    r2 = prep.execute(seg)
    assert calls["n"] == 1
    assert np.array_equal(r1[0], r2[0]) and list(r1[0]) == [1, 3]
