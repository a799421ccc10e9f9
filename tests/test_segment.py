"""Segment invert/flush/read round-trip vs the pure-Python oracle index."""

import numpy as np
import pytest

from iresearch_ray.analysis import get_analyzer
from iresearch_ray.analysis.tokenizers import flatten_batch
from iresearch_ray.index.segment import SegmentReader, SegmentWriter
from tests.oracle import OracleIndex


def _zipf_texts(n_docs=300, seed=42):
    rng = np.random.default_rng(seed)
    vocab = np.array([f"w{i:04d}" for i in range(800)], dtype=object)
    probs = 1.0 / np.arange(1, len(vocab) + 1) ** 1.1
    probs /= probs.sum()
    texts = []
    for i in range(n_docs):
        n = int(rng.integers(5, 200))
        texts.append(" ".join(rng.choice(vocab, size=n, p=probs)))
    return texts


@pytest.fixture(scope="module")
def built(tmp_path_factory):
    idx_dir = str(tmp_path_factory.mktemp("seg"))
    ana = get_analyzer("ascii")
    texts = _zipf_texts()
    oracle = OracleIndex(ana)
    keys = [f"https://x/{i:06d}" for i in range(len(texts))]
    for k, t in zip(keys, texts):
        oracle.add(k, t)
    w = SegmentWriter("seg-000", ana.config())
    # feed in two batches to exercise doc-id continuation
    mid = len(texts) // 3
    for lo, hi in ((0, mid), (mid, len(texts))):
        w.add_batch_coded(flatten_batch(ana, texts[lo:hi]), keys[lo:hi])
    meta = w.flush(idx_dir)
    return idx_dir, meta, oracle


def test_meta_and_docmap(built):
    idx_dir, meta, oracle = built
    r = SegmentReader(f"{idx_dir}/seg-000")
    assert r.num_docs == oracle.num_docs
    assert r.sum_doc_len == sum(oracle.doc_len)
    assert meta["num_terms"] == len(oracle.postings)
    assert np.array_equal(r.doc_len, np.array(oracle.doc_len))
    assert list(r.keys[:3]) == oracle.keys[:3]


def test_dictionary_sorted_and_complete(built):
    idx_dir, _, oracle = built
    r = SegmentReader(f"{idx_dir}/seg-000")
    assert list(r.terms) == oracle.sorted_terms()
    dfs = r.df_array()
    for i, t in enumerate(r.terms):
        assert dfs[i] == oracle.df(t)


def test_postings_match_oracle_every_term(built):
    idx_dir, _, oracle = built
    r = SegmentReader(f"{idx_dir}/seg-000")
    for i, t in enumerate(r.terms):
        docs, freqs, pos, run_offs = r.postings(i, positions=True)
        exp = oracle.postings[t]
        assert list(docs) == [d for d, _, _ in exp], t
        assert list(freqs) == [f for _, f, _ in exp], t
        exp_pos = [p for _, _, ps in exp for p in ps]
        assert list(pos) == exp_pos, t
        assert (np.diff(docs) > 0).all()


def test_skip_blocks_decode(built):
    idx_dir, _, oracle = built
    r = SegmentReader(f"{idx_dir}/seg-000")
    # pick the highest-df term — should exceed one block (300 docs, zipf head)
    dfs = r.df_array()
    i = int(dfs.argmax())
    assert dfs[i] > 128, "fixture should produce a multi-block term"
    sk = r.skips(i)
    assert sk is not None
    full_docs, full_freqs = r.postings(i)
    n_blocks = len(sk["last_doc"])
    # decode every single block alone and compare slices
    for b in range(n_blocks):
        mask = np.zeros(n_blocks, dtype=bool)
        mask[b] = True
        d, f = r.decode_blocks(i, mask)
        lo, hi = b * 128, min((b + 1) * 128, len(full_docs))
        assert np.array_equal(d, full_docs[lo:hi])
        assert np.array_equal(f, full_freqs[lo:hi])
        assert sk["last_doc"][b] == full_docs[hi - 1]
        assert sk["max_freq"][b] == full_freqs[lo:hi].max()


def test_lookup_and_ranges(built):
    idx_dir, _, oracle = built
    r = SegmentReader(f"{idx_dir}/seg-000")
    assert r.lookup("w0000") == 0
    assert r.lookup("zzz-missing") == -1
    lo, hi = r.prefix_range("w00")
    assert [t for t in r.terms[lo:hi]] == [t for t in oracle.sorted_terms() if t.startswith("w00")]
    lo, hi = r.term_range("w0010", "w0020")
    assert all("w0010" <= t < "w0020" for t in r.terms[lo:hi])


def test_arrow_and_python_tokenize_paths_write_identical_segments(
        tmp_path, monkeypatch):
    """The Arrow tokenize path and ``flatten_batch`` must write the same
    bytes: one ascii corpus (mixed case, punctuation, NULs, null and
    empty rows, an all-null batch, many batches so the per-batch
    dictionaries merge at flush) built twice through ``build_one``, the
    second time with ``arrow_tokenize`` cleared on the analyzer."""
    import os

    import pyarrow as pa
    import pyarrow.parquet as pq

    from iresearch_ray.index import build as build_mod

    texts = [t.upper() if i % 3 == 0 else t
             for i, t in enumerate(_zipf_texts(n_docs=400))]
    texts[5] = "Foo, BAR!\x00baz\tfoo-bar 42 ÉTÉ été"
    texts[7] = ""
    texts[64:128] = [None] * 64          # one whole tokenize batch
    texts[200] = None
    path = str(tmp_path / "pages.parquet")
    pq.write_table(pa.table({
        "url": [f"u{i:04d}" for i in range(len(texts))],
        "text": pa.array(texts, pa.string())}), path)
    monkeypatch.setattr(build_mod, "TOKENIZE_BATCH_ROWS", 64)
    arrow_calls = []
    arrow_fn = build_mod.flatten_batch_arrow
    monkeypatch.setattr(build_mod, "flatten_batch_arrow",
                        lambda *a: arrow_calls.append(1) or arrow_fn(*a))

    def build(name, arrow):
        task = build_mod.BuildSegmentTask(str(tmp_path / name), "ascii", {},
                                          "text", "url")
        if not arrow:
            task.analyzer.arrow_tokenize = False
        n_before = len(arrow_calls)
        spec, = build_mod.plan_segments(path, target_docs=len(texts))
        meta = task.build_one(spec)
        assert (len(arrow_calls) > n_before) == arrow
        return str(tmp_path / name / spec["segment_id"]), meta

    seg_a, meta_a = build("arrow", True)
    seg_p, meta_p = build("python", False)
    for name in ("terms.parquet", "docmap.parquet"):
        with open(os.path.join(seg_a, name), "rb") as fa, \
                open(os.path.join(seg_p, name), "rb") as fp:
            assert fa.read() == fp.read(), name
    assert {k: v for k, v in meta_a.items() if k != "_wall_s"} == \
        {k: v for k, v in meta_p.items() if k != "_wall_s"}
    assert meta_a["num_terms"] > 100


def test_sorted_index_build(ray_session, tmp_path_factory):
    """Reference 'sorted index' (comparer.hpp:31-44): docs within each
    segment physically ordered by a field, doc ids reassigned densely."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from iresearch_ray.index.build import build_index
    from iresearch_ray.index.segment import SegmentReader
    from iresearch_ray.search import BM25, IndexReader, IndexSearcher, TermFilter

    base = tmp_path_factory.mktemp("sorted")
    rng = np.random.default_rng(3)
    n = 200
    prio = rng.permutation(n).astype(np.int64)
    t = pa.table({
        "url": [f"u{i:04d}" for i in range(n)],
        "text": [f"word{i % 7} common probe" for i in range(n)],
        "prio": prio,
    })
    path = str(base / "p.parquet")
    pq.write_table(t, path, row_group_size=50)
    index_dir = str(base / "idx")
    man = build_index(path, index_dir, analyzer="ascii", target_docs=100,
                      sort_by="prio", store_columns=("prio",))
    reader = IndexReader(index_dir)
    # within each segment, stored prio is ascending and doc ids dense
    for seg in reader.segments:
        vals = seg.reader.column("prio").to_numpy()
        assert (np.diff(vals) > 0).all()
    # resume honors the sort lineage (same sort -> skip)
    man2 = build_index(path, index_dir, analyzer="ascii", target_docs=100,
                       sort_by="prio", store_columns=("prio",))
    assert man2["build_stats"]["segments_skipped"] == len(man2["segments"])
    # different sort -> rebuild
    man3 = build_index(path, index_dir, analyzer="ascii", target_docs=100,
                       sort_by="prio", sort_descending=True,
                       store_columns=("prio",))
    assert man3["build_stats"]["segments_built"] == len(man3["segments"])
    # queries still correct after reorder
    res = IndexSearcher(IndexReader(index_dir), BM25()).search(
        TermFilter("word3"), k=500)
    assert sorted(res["key"]) == [f"u{i:04d}" for i in range(n) if i % 7 == 3]


def test_norm_feature_writer(ray_session, tmp_path):
    """Pluggable per-doc feature writers (reference Norm/Norm2,
    core/index/norm.hpp): 'norm' stores float32 1/sqrt(len) in the
    docmap; scoring from the stored column equals the on-the-fly
    TFIDF(with_norms) path bit-for-bit."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from iresearch_ray.index.build import build_index
    from iresearch_ray.index.features import (
        get_norm_feature,
        known_norm_features,
        register_norm_feature,
    )
    from iresearch_ray.search import IndexReader, IndexSearcher, TFIDF, TermFilter

    assert {"norm", "norm2"} <= set(known_norm_features())
    with pytest.raises(KeyError):
        get_norm_feature("nope")

    t = pa.table({"url": [f"u{i}" for i in range(50)],
                  "text": [("probe " + "pad " * (i % 9)).strip()
                           for i in range(50)]})
    p = str(tmp_path / "p.parquet")
    pq.write_table(t, p, row_group_size=25)
    idx = str(tmp_path / "idx")
    build_index(p, idx, analyzer="ascii", target_docs=25, norm_feature="norm")

    reader = IndexReader(idx)
    for sv in reader.segments:
        stored = sv.reader.norms("norm")
        assert stored is not None and stored.dtype == np.float32
        dl = sv.reader.doc_len
        assert np.array_equal(
            stored, np.float32(1) / np.sqrt(np.maximum(dl, 1).astype(np.float32)))
        assert sv.reader.norms("norm2") is dl  # norm2 IS doc_len
        assert sv.reader.norms("missing") is None

    # score computed FROM the stored column == with_norms on-the-fly path
    s = IndexSearcher(reader, TFIDF(with_norms=True))
    res = s.search(TermFilter("probe"), k=50)
    sv0 = reader.segments[0]
    i = sv0.reader.lookup("probe")
    docs, freqs = sv0.reader.postings(i)
    sp = TFIDF(with_norms=True).prepare(reader.stats, reader.df("probe"))
    from_stored = (np.sqrt(freqs.astype(np.float32)) * sp.num
                   * sv0.reader.norms("norm")[docs - 1])
    by_doc = dict(zip(res["doc"], res["score"]))
    for d, v in zip(docs + sv0.base, from_stored):
        assert np.float32(by_doc[int(d)]) == v

    # custom writers plug into the same registry + column path; the
    # (name, callable) form ships the writer to worker processes
    idx2 = str(tmp_path / "idx2")
    build_index(p, idx2, analyzer="ascii", target_docs=25,
                norm_feature=("sqrt_len",
                              lambda dl: np.sqrt(dl.astype(np.float64))))
    r2 = IndexReader(idx2)
    got = r2.segments[0].reader.norms("sqrt_len")
    assert np.allclose(got, np.sqrt(r2.segments[0].reader.doc_len))


def test_norm_feature_guards(ray_session, tmp_path):
    """Reserved docmap names are rejected; custom-callable lineage hashes
    closure state (edited captures invalidate resume); non-hashable
    callables are rejected with guidance."""
    import functools

    import pyarrow as pa
    import pyarrow.parquet as pq

    from iresearch_ray.index.build import BuildSegmentTask, _stable_fn_hash, build_index

    with pytest.raises(ValueError):
        BuildSegmentTask(str(tmp_path / "x"), "ascii", {}, "text", "url",
                         norm_feature="doc_len")

    def make(k):
        return lambda dl: dl * k

    h2, h3 = _stable_fn_hash(make(2)), _stable_fn_hash(make(3))
    assert h2 != h3                      # closure value is part of identity
    assert h2 == _stable_fn_hash(make(2))  # and deterministic
    with pytest.raises(ValueError):
        _stable_fn_hash(functools.partial(lambda dl, k: dl * k, k=2))

    # end-to-end: rebuilding with a changed capture re-runs the segments
    t = pa.table({"url": ["a", "b"], "text": ["x y", "x"]})
    p = str(tmp_path / "p.parquet")
    pq.write_table(t, p)
    idx = str(tmp_path / "idx")
    import numpy as _np

    build_index(p, idx, analyzer="ascii", target_docs=10,
                norm_feature=("scaled", make(2)))
    from iresearch_ray.search import IndexReader

    assert list(IndexReader(idx).segments[0].reader.norms("scaled")) == [4, 2]
    man = build_index(p, idx, analyzer="ascii", target_docs=10,
                      norm_feature=("scaled", make(3)))
    assert man["build_stats"]["segments_skipped"] == 0  # resume invalidated
    # new reader: the old one caches the stale docmap
    assert list(IndexReader(idx).segments[0].reader.norms("scaled")) == [6, 3]


_NORM_SCALE = 7  # module-level global read by the feature below


def test_norm_feature_hash_covers_globals():
    """A custom norm feature's lineage hash covers module-level globals it
    reads (round-2 advice: editing one silently kept stale resume), while
    module / helper-function globals stay hashable and builtins are free."""
    import numpy as _np

    from iresearch_ray.index.build import _stable_fn_hash

    def reads_global(dl):
        return dl * _NORM_SCALE

    def reads_module(dl):
        return _np.log1p(dl)

    def reads_builtin(dl):
        return max(dl, 1)

    h1 = _stable_fn_hash(reads_global)
    assert h1 == _stable_fn_hash(reads_global)
    g = globals()
    try:
        g["_NORM_SCALE"] = 8
        assert _stable_fn_hash(reads_global) != h1  # global edit invalidates
    finally:
        g["_NORM_SCALE"] = 7
    assert _stable_fn_hash(reads_global) == h1
    # module + function globals hash stably; non-primitive data rejected
    assert _stable_fn_hash(reads_module) == _stable_fn_hash(reads_module)
    assert _stable_fn_hash(reads_builtin) == _stable_fn_hash(reads_builtin)
    import pytest as _pytest

    def reads_array(dl):
        return dl * _BAD_GLOBAL_ARR  # noqa: F821

    g["_BAD_GLOBAL_ARR"] = _np.arange(3)
    try:
        with _pytest.raises(ValueError, match="non-primitive global"):
            _stable_fn_hash(reads_array)
    finally:
        del g["_BAD_GLOBAL_ARR"]


def test_norm_feature_hash_helper_depth_and_c_callables():
    """Referenced helper functions are fingerprinted RECURSIVELY — two
    helpers with identical bytecode but different constants must yield
    different feature hashes (else editing a helper's constant keeps a
    stale resume) — and C-implemented callables like numpy ufuncs are
    accepted as stable named dependencies, not rejected."""
    import numpy as _np

    from iresearch_ray.index.build import _stable_fn_hash

    def helper_a(x):
        return x * 3.0

    def helper_b(x):
        return x * 4.0

    assert helper_a.__code__.co_code == helper_b.__code__.co_code

    def mk(h):
        def f(dl):
            return h(dl)
        return f

    assert _stable_fn_hash(mk(helper_a)) != _stable_fn_hash(mk(helper_b))
    assert _stable_fn_hash(mk(helper_a)) == _stable_fn_hash(mk(helper_a))
    # numpy ufuncs captured directly (`from numpy import sqrt` style)
    h_sqrt = _stable_fn_hash(mk(_np.sqrt))
    assert h_sqrt == _stable_fn_hash(mk(_np.sqrt))
    assert h_sqrt != _stable_fn_hash(mk(_np.log1p))
    # module-level C functions are fine (__self__ IS the module) ...
    import math as _math
    assert (_stable_fn_hash(mk(_math.sqrt))
            != _stable_fn_hash(mk(_math.log1p)))
    # ... but bound methods of INSTANCES hide state the name can't see:
    # re.Pattern.match / dict.get with different state must NOT collide
    import re as _re

    import pytest as _pytest
    for bound in (_re.compile("a+").match, {"a": 1}.get):
        with _pytest.raises(ValueError):
            _stable_fn_hash(mk(bound))


def test_nul_and_overlong_terms_exact(tmp_path):
    """Round-5 review fixes: (a) doc keys with trailing NULs survive the
    writer intact; (b) term_chars lens are EXACT code-point counts, so
    'a' and 'a\\x00' are distinct to fuzzy matching; (c) a mega-token
    caps the char-matrix width instead of inflating n_terms x len; (d)
    prefix_range's upper bound admits prefix+U10FFFF+more."""
    from iresearch_ray.index.segment import TERM_CHARS_MAX_WIDTH
    from iresearch_ray.search.filters import FuzzyFilter

    ana = get_analyzer("delimiter", delimiter="|")
    texts = ["a\x00|a|" + "z" * 600,
             "pre\U0010FFFFx|pre\U0010FFFF|prefix"]
    keys = ["k", "k\x00"]
    w = SegmentWriter("seg-000", ana.config())
    w.add_batch_coded(flatten_batch(ana, texts), keys)
    idx_dir = str(tmp_path)
    w.flush(idx_dir)
    r = SegmentReader(f"{idx_dir}/seg-000")
    # (a) writer preserved both keys distinctly
    assert list(r.keys) == ["k", "k\x00"]
    # (b) exact lens: 'a' is 1 char, 'a\x00' is 2
    mat, lens = r.term_chars
    terms = list(r.terms)
    assert lens[terms.index("a")] == 1
    assert lens[terms.index("a\x00")] == 2
    # fuzzy 'a' at distance 0 must match ONLY 'a'
    f0 = FuzzyFilter("a", max_distance=0)
    assert [terms[i] for i in f0._match(r)] == ["a"]
    f1 = FuzzyFilter("a", max_distance=1)
    assert sorted(terms[i] for i in f1._match(r)) == ["a", "a\x00"]
    # (c) width capped; the mega-token keeps its exact length
    assert mat.shape[1] == TERM_CHARS_MAX_WIDTH
    assert lens[terms.index("z" * 600)] == 600
    # (d) prefix scan catches the term sorting AFTER prefix+U10FFFF
    lo, hi = r.prefix_range("pre")
    got = set(terms[lo:hi])
    assert {"pre\U0010FFFF", "pre\U0010FFFFx", "prefix"} <= got


def test_encode_postings_empty_last_group_is_loud():
    """The (df == 0) guard must fire BEFORE reduceat, which raises an
    opaque IndexError when the LAST dictionary position is empty."""
    from iresearch_ray.index.segment import encode_postings_table

    uniques = np.array(["a", "b"], dtype=object)
    offs = np.array([0, 2, 2], dtype=np.int64)  # 'b' has df=0
    docs = np.array([1, 2], dtype=np.int64)
    freqs = np.array([1, 1], dtype=np.int64)
    poss = np.array([0, 0], dtype=np.int64)
    runs = np.array([0, 1, 2], dtype=np.int64)
    with pytest.raises(ValueError, match="empty posting list"):
        encode_postings_table(uniques, offs, docs, freqs, poss, runs)


def test_prefix_upper_bound_unit():
    from iresearch_ray.index.segment import prefix_upper_bound

    assert prefix_upper_bound("abc") == "abd"
    assert prefix_upper_bound("ab\U0010FFFF") == "ac"
    assert prefix_upper_bound("\U0010FFFF" * 3) is None
    # ordering property on adversarial neighbors
    for p in ("x", "x\U0010FFFF", "zz"):
        ub = prefix_upper_bound(p)
        if ub is not None:
            assert ub > p + "\U0010FFFF" * 4


def test_resume_invalidates_on_same_name_different_content(
        ray_session, tmp_path):
    """Lineage now pins file SIZE: a same-named input regenerated with
    different text must rebuild, not silently serve stale segments."""
    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq

    from iresearch_ray.index.build import build_index

    src = str(tmp_path / "pages.parquet")
    idx = str(tmp_path / "idx")

    def write(texts):
        pq.write_table(pa.table({
            "url": [f"u{i}" for i in range(len(texts))],
            "text": texts}), src)

    write(["alpha beta"] * 4)
    man1 = build_index(src, idx, analyzer="ascii", target_docs=10)
    assert man1["build_stats"]["segments_built"] == 1
    write(["gamma delta variant content"] * 4)  # same name, new content
    man2 = build_index(src, idx, analyzer="ascii", target_docs=10)
    assert man2["build_stats"]["segments_built"] == 1  # NOT skipped


def _commit_segments(idx_dir, batches, ana=None):
    """Ray-free index: one segment per (texts, keys) batch, one commit."""
    from iresearch_ray.index import manifest

    ana = ana or get_analyzer("ascii")
    entries = []
    for i, (texts, keys) in enumerate(batches):
        w = SegmentWriter(f"seg-{i:03d}", ana.config())
        w.add_batch_coded(flatten_batch(ana, texts), keys)
        meta = w.flush(idx_dir)
        entries.append({k: meta[k] for k in ("segment_id", "num_docs",
                                              "sum_doc_len", "num_terms")})
    return manifest.commit(idx_dir, entries)


def test_reader_loads_column_groups_on_first_use(tmp_path, monkeypatch):
    """A fresh reader reads the dictionary at the first lookup, doc/freq
    blobs at the first decode, and pos_blob only once a positional query
    needs it; a zero-term segment opens and answers empty."""
    import pyarrow.parquet as pq

    from iresearch_ray.index.segment import DICT_COLUMNS, SKIP_COLUMNS
    from iresearch_ray.search import (IndexReader, IndexSearcher,
                                      PhraseFilter, TermFilter)

    idx = str(tmp_path)
    _commit_segments(idx, [(_zipf_texts(n_docs=300), [f"u{i}" for i in range(300)]),
                           ([None] * 5, [f"n{i}" for i in range(5)])])
    calls = []
    real_read = pq.ParquetFile.read

    def spy(self, columns=None, **kw):
        calls.append((self, None if columns is None else tuple(columns)))
        return real_read(self, columns=columns, **kw)

    def terms_reads():  # column groups read from the two terms.parquet
        files = (full.terms_file, empty.terms_file)
        return [cols for f, cols in calls if any(f is g for g in files)]

    monkeypatch.setattr(pq.ParquetFile, "read", spy)
    reader = IndexReader(idx)
    full, empty = (seg.reader for seg in reader.segments)
    assert len(empty.terms) == 0 and full.df_array()[0] > 0
    assert terms_reads() == [DICT_COLUMNS, DICT_COLUMNS]

    s = IndexSearcher(reader)
    hits = s.search(TermFilter("w0000"), k=5, mode="all")
    assert len(hits) == 5
    assert terms_reads()[2:] == [("doc_blob", "freq_blob")]  # no pos, no skips
    assert not full.has_offsets and not full.has_payloads
    assert len(terms_reads()) == 3  # schema checks read no column

    hits = s.search(PhraseFilter(["w0000", "w0001"]), k=5)
    assert len(hits) > 0
    assert terms_reads()[3:] == [("pos_blob",)]
    assert len(s.search(TermFilter("w0000"), k=5, mode="top")) == 5
    assert terms_reads()[4:] == [SKIP_COLUMNS]  # WAND block skips

    assert empty.lookup("w0000") == -1
    assert len(s.search(TermFilter("absent"), k=5)) == 0


def test_reader_keeps_its_snapshot_after_segments_are_deleted(tmp_path):
    """Columns first read after the segment files were unlinked (as
    ``tools purge`` does) still come from the file version the reader
    opened: phrase and WAND answers equal a fresh reader's from before."""
    import shutil

    from iresearch_ray.search import (IndexReader, IndexSearcher, OrFilter,
                                      PhraseFilter, TermFilter)

    idx = str(tmp_path)
    texts = _zipf_texts(n_docs=400)
    keys = [f"u{i:04d}" for i in range(len(texts))]
    _commit_segments(idx, [(texts[:200], keys[:200]), (texts[200:], keys[200:])])
    queries = [(PhraseFilter(["w0000", "w0001"]), "all"),
               (TermFilter("w0000"), "top"),
               (OrFilter([TermFilter("w0000"), TermFilter("w0002")]), "top")]
    fresh = IndexSearcher(IndexReader(idx))
    expected = [fresh.search(f, k=10, mode=m) for f, m in queries]

    s = IndexSearcher(IndexReader(idx))
    first = s.search(TermFilter("w0003"), k=10)
    assert len(first) == 10
    for seg in s.reader.segments:
        shutil.rmtree(seg.reader.dir)
    for (f, m), exp in zip(queries, expected):
        assert s.search(f, k=10, mode=m).equals(exp), (f, m)
    assert s.search(TermFilter("w0003"), k=10).equals(first)


def test_terms_and_keys_convert_like_to_pylist(tmp_path):
    """``terms``/``keys`` (Arrow ``to_numpy``) give the same values, order,
    object dtype and ``str`` elements as ``to_pylist`` for NUL-bearing,
    non-ASCII and empty strings."""
    import pyarrow.parquet as pq

    words = ["alpha", "gamma\x00x", "d\x00", "tail\x00", "ünï", "İstanbul",
             "", "ÇA", "x|p\x00ay"]
    texts = ["|".join(words), "d\x00|İstanbul|", "tail\x00|ünï|gamma\x00x"]
    keys = ["gamma\x00x", "", "İstanbul"]
    idx = str(tmp_path)
    _commit_segments(idx, [(texts, keys)],
                     get_analyzer("delimiter", delimiter="|"))
    r = SegmentReader(f"{idx}/seg-000")
    old_terms = np.asarray(
        pq.read_table(f"{idx}/seg-000/terms.parquet")["term"].to_pylist(),
        dtype=object)
    old_keys = np.asarray(
        pq.read_table(f"{idx}/seg-000/docmap.parquet")["key"].to_pylist(),
        dtype=object)
    for new, old in ((r.terms, old_terms), (r.keys, old_keys)):
        assert new.dtype == object
        assert all(type(v) is str for v in new)
        assert list(new) == list(old)
    assert list(r.keys) == keys
    assert {"gamma\x00x", "d\x00", "tail\x00", "ünï", "İstanbul", ""} \
        <= set(r.terms)
    for t in r.terms:
        assert r.terms[r.lookup(t)] == t


def _table_in_order(order, codes, uniques, docs, poss):
    """``encode_postings_table`` over occurrences taken in ``order``: the
    (term, doc) runs and per-term slices computed directly."""
    from iresearch_ray.index.segment import encode_postings_table

    codes, docs, poss = codes[order], docs[order], poss[order]
    new_posting = np.r_[True, (codes[1:] != codes[:-1])
                        | (docs[1:] != docs[:-1])][:len(codes)]
    p_starts = np.flatnonzero(new_posting)
    runs = np.r_[p_starts, len(codes)]
    p_codes = codes[p_starts]
    term_post_offs = np.searchsorted(p_codes, np.arange(len(uniques) + 1))
    return encode_postings_table(uniques, term_post_offs, docs[p_starts],
                                 np.diff(runs), poss, runs)


@pytest.mark.parametrize("n_terms", [70_000, 65_536, 0])
def test_radix_invert_matches_lexsort_order(n_terms):
    """``invert_coded``'s radix order (one 16-bit pass up to 65,536
    terms, two above) writes the table the (term, doc, position) lexsort
    order writes, down to an empty segment."""
    from iresearch_ray.index.segment import invert_coded

    rng = np.random.default_rng(n_terms)
    uniques = np.array([f"t{i:06d}" for i in range(n_terms)], dtype=object)
    n = 3 * n_terms
    # every term occurs; occurrences arrive in (doc, position) order
    codes = rng.permutation(np.r_[np.arange(n_terms),
                                  rng.integers(0, max(n_terms, 1),
                                               n - n_terms)]).astype(np.int64)
    docs = np.sort(rng.integers(1, n_terms // 20 + 2, n)).astype(np.int64)
    first = np.searchsorted(docs, docs)
    poss = np.arange(n, dtype=np.int64) - first
    got = invert_coded(codes, uniques, docs, poss)
    want = _table_in_order(np.lexsort((poss, docs, codes)), codes, uniques,
                           docs, poss)
    assert got.num_rows == n_terms
    assert got.equals(want)


@pytest.mark.parametrize("docs,poss", [([2, 1], [0, 0]), ([1, 1], [1, 0])])
def test_invert_rejects_occurrences_out_of_doc_order(docs, poss):
    from iresearch_ray.index.segment import invert_coded

    with pytest.raises(ValueError, match="docs out of order"):
        invert_coded(np.array([0, 1]), np.array(["a", "b"], dtype=object),
                     np.array(docs), np.array(poss))
