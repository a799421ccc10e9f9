"""Consolidation: merged index must answer rank-identically (reference
merge_writer semantics) + resume/lineage checkpointing (FIXTURES.md F6)."""

import json
import os

import numpy as np
import pytest

from iresearch_ray.index.build import build_index
from iresearch_ray.index import manifest as manifest_mod
from iresearch_ray.index.merge import consolidate, plan_consolidation
from iresearch_ray.index.segment import META_FILE
from iresearch_ray.search import BM25, IndexReader, IndexSearcher, OrFilter, PhraseFilter, TermFilter
from iresearch_ray.sources.pages import write_pages

N_DOCS = 600


@pytest.fixture(scope="module")
def built(ray_session, tmp_path_factory):
    base = tmp_path_factory.mktemp("merge")
    pages = str(base / "pages.parquet")
    write_pages(pages, N_DOCS, row_group_size=50)
    index_dir = str(base / "index")
    man = build_index(pages, index_dir, analyzer="ascii", target_docs=100)
    assert len(man["segments"]) == 6
    return pages, index_dir, man


def _results(index_dir, flt, generation=None, k=20):
    r = IndexReader(index_dir, generation)
    return IndexSearcher(r, BM25()).search(flt, k=k)


def test_consolidate_rank_identical(built):
    _, index_dir, man = built
    queries = [TermFilter("hterm"), TermFilter("mterm"),
               OrFilter([TermFilter("hterm"), TermFilter("lterm")]),
               PhraseFilter(["ref", "name"])]
    before = [_results(index_dir, q, man["generation"]) for q in queries]
    man2 = consolidate(index_dir, target_docs=300)
    assert man2["generation"] == man["generation"] + 1
    assert len(man2["segments"]) < len(man["segments"])
    assert man2["num_docs"] == man["num_docs"]
    after = [_results(index_dir, q, man2["generation"]) for q in queries]
    for b, a in zip(before, after):
        assert list(b["doc"]) == list(a["doc"])
        assert np.array_equal(b["score"].to_numpy(), a["score"].to_numpy())
        assert list(b["key"]) == list(a["key"])


def test_old_generation_still_readable(built):
    _, index_dir, man = built
    r_old = IndexReader(index_dir, man["generation"])
    assert r_old.num_docs == N_DOCS


def test_merged_dictionary_totals(built):
    _, index_dir, _ = built
    man2 = manifest_mod.load(index_dir)
    r = IndexReader(index_dir, man2["generation"])
    assert r.df("hterm") > 0
    r1 = IndexReader(index_dir, 1)
    for t in ("hterm", "mterm", "ref", "abcd"):
        assert r.df(t) == r1.df(t)


def test_plan_consolidation_adjacency():
    segs = [{"segment_id": f"s{i}", "num_docs": 100} for i in range(5)]
    runs = plan_consolidation(segs, target_docs=250)
    assert runs == [["s0", "s1"], ["s2", "s3"]] or runs == [["s0", "s1"], ["s2", "s3"], ["s4"]][:2]
    # singleton tail never merges alone
    assert all(len(r) >= 2 for r in runs)


def test_resume_skips_done_segments(built, ray_session):
    pages, index_dir, man = built
    # delete ONE segment dir; rebuild must reprocess only that one (F6)
    victim = man["segments"][2]["segment_id"]
    import shutil
    shutil.rmtree(os.path.join(index_dir, victim))
    man3 = build_index(pages, index_dir, analyzer="ascii", target_docs=100)
    bs = man3["build_stats"]
    assert bs["segments_built"] == 1
    assert bs["segments_skipped"] == 5
    with open(os.path.join(index_dir, victim, META_FILE)) as f:
        meta = json.load(f)
    assert meta["counters"]["docs_tokenized"] == meta["num_docs"]
    # rebuilt index answers identically to generation 1
    a = _results(index_dir, TermFilter("hterm"), generation=1)
    b = _results(index_dir, TermFilter("hterm"), generation=man3["generation"])
    assert list(a["doc"]) == list(b["doc"])
    assert np.array_equal(a["score"].to_numpy(), b["score"].to_numpy())


def test_analyzer_change_invalidates_resume(built, ray_session):
    pages, index_dir, _ = built
    man = build_index(pages, index_dir, analyzer="unicode", target_docs=100)
    assert man["build_stats"]["segments_built"] == 6  # different lineage hash


def test_incremental_commit_appends_segments(ray_session, tmp_path_factory):
    """Reference multi-commit semantics (index_writer commit generations):
    appending a new input file builds ONLY its segments and commits a new
    generation; existing segments resume-skip (no re-tokenization)."""
    from iresearch_ray.search import TermFilter as TF

    base = tmp_path_factory.mktemp("incr")
    p1, p2 = str(base / "a.parquet"), str(base / "b.parquet")
    write_pages(p1, 200, row_group_size=50)
    write_pages(p2, 100, row_group_size=50, seed=7)
    index_dir = str(base / "idx")

    man1 = build_index(p1, index_dir, analyzer="ascii", target_docs=100)
    n1 = len(man1["segments"])
    hits1 = len(_results(index_dir, TF("hterm"), k=500))

    man2 = build_index([p1, p2], index_dir, analyzer="ascii", target_docs=100)
    assert man2["generation"] == man1["generation"] + 1
    assert man2["build_stats"]["segments_skipped"] == n1  # old: untouched
    assert man2["build_stats"]["segments_built"] == len(man2["segments"]) - n1
    assert man2["num_docs"] == 300

    hits2 = len(_results(index_dir, TF("hterm"), k=500))
    assert hits2 > hits1
    # old generation still serves the pre-append view (MVCC)
    assert len(_results(index_dir, TF("hterm"), man1["generation"], k=500)) == hits1


def test_carry_forward_masks_and_merges(ray_session, tmp_path_factory):
    """A later build commit must not lose prior state (reference
    index_writer commits are append-only): doc masks survive, consolidated
    segments stay consolidated, replacement segments stay."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from iresearch_ray.index.delete import delete_by_filter, replace_by_filter
    from iresearch_ray.search import TermFilter as TF

    base = tmp_path_factory.mktemp("carry")
    p1, p2 = str(base / "a.parquet"), str(base / "b.parquet")
    write_pages(p1, 200, row_group_size=50)
    write_pages(p2, 100, row_group_size=50, seed=11)
    idx = str(base / "idx")
    build_index(p1, idx, analyzer="ascii", target_docs=100)          # gen1
    delete_by_filter(idx, TF("mterm"))                               # gen2
    man3 = consolidate(idx, target_docs=400)                         # gen3
    repl = pa.table({"url": ["https://r/1"], "text": ["only replacement mterm"]})
    pq.write_table(repl, str(base / "r.parquet"))
    replace_by_filter(idx, TF("lterm"), str(base / "r.parquet"),
                      analyzer="ascii")                              # gen4

    man5 = build_index([p1, p2], idx, analyzer="ascii", target_docs=100)  # gen5
    ids = [e["segment_id"] for e in man5["segments"]]
    # consolidated segment survived (original constituents not resurrected)
    assert any(i.startswith("seg-m") for i in ids)
    assert not any(i in ("seg-00000", "seg-00001") for i in ids)
    # replacement segment survived
    assert any(i.startswith("seg-r") for i in ids)

    r = IndexReader(idx)
    s = IndexSearcher(r, BM25())
    # original mterm docs were purged at consolidation; the replacement doc
    # and the appended seed-11 docs are the only mterm matches now
    from iresearch_ray.sources.pages import synthesize_pages
    appended = set(synthesize_pages(100, seed=11)["url"].to_pylist())
    got = set(s.search(TF("mterm"), k=500)["key"])
    assert "https://r/1" in got
    assert got - {"https://r/1"} <= appended
    # lterm mask (gen4) survived on the consolidated segment
    lterm_hits = set(s.search(TF("lterm"), k=500)["key"])
    assert lterm_hits <= appended


def test_carry_forward_two_level_consolidation(ray_session, tmp_path_factory):
    """Finding from review: a resumed no-op build after a SECOND
    consolidation must keep the second-level merged segment (transitive
    source_leaves lineage), not resurrect constituents."""
    from iresearch_ray.index.delete import delete_by_filter
    from iresearch_ray.search import TermFilter as TF

    base = tmp_path_factory.mktemp("carry2")
    p1, p2 = str(base / "a.parquet"), str(base / "b.parquet")
    write_pages(p1, 200, row_group_size=50)
    write_pages(p2, 100, row_group_size=50, seed=13)
    idx = str(base / "idx")
    build_index(p1, idx, analyzer="ascii", target_docs=50)     # 4 segs
    consolidate(idx, target_docs=200)                          # m1
    delete_by_filter(idx, TF("mterm"))
    build_index([p1, p2], idx, analyzer="ascii", target_docs=50)  # + b segs
    man = consolidate(idx, target_docs=400)                    # m2 over all
    assert len(man["segments"]) == 1
    m2 = man["segments"][0]["segment_id"]
    deleted_before = IndexSearcher(IndexReader(idx), BM25()).search(
        TF("mterm"), k=500)

    # resubmit the same (no-op) build: manifest must still be [m2]
    man2 = build_index([p1, p2], idx, analyzer="ascii", target_docs=50)
    assert [e["segment_id"] for e in man2["segments"]] == [m2]
    assert man2["num_docs"] == man["num_docs"]
    after = IndexSearcher(IndexReader(idx), BM25()).search(TF("mterm"), k=500)
    assert list(after["doc"]) == list(deleted_before["doc"])


def test_merge_preserves_format_and_norm_feature(ray_session, tmp_path):
    """Review findings: consolidation must keep the operator's storage
    format (not silently re-encode in 1_0) and recompute stored
    norm-feature columns instead of dropping them."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from iresearch_ray.index.build import build_index
    from iresearch_ray.index.merge import consolidate
    from iresearch_ray.search import IndexReader

    t = pa.table({"url": [f"u{i}" for i in range(60)],
                  "text": [f"alpha beta row{i % 5}" for i in range(60)]})
    p = str(tmp_path / "p.parquet")
    pq.write_table(t, p, row_group_size=20)
    idx = str(tmp_path / "idx")
    build_index(p, idx, analyzer="ascii", target_docs=20,
                index_format="1_1", norm_feature="norm")
    man = consolidate(idx, 1000)
    merged = [s["segment_id"] for s in man["segments"]
              if s["segment_id"].startswith("seg-m")]
    assert merged
    seg_dir = f"{idx}/{merged[0]}"
    md = pq.ParquetFile(f"{seg_dir}/terms.parquet").metadata
    assert md.row_group(0).column(0).compression == "LZ4"  # format kept
    r = IndexReader(idx)
    for sv in r.segments:
        stored = sv.reader.norms("norm")
        assert stored is not None
        dl = sv.reader.doc_len
        assert np.array_equal(
            stored,
            np.float32(1) / np.sqrt(np.maximum(dl, 1).astype(np.float32)))


def test_mixed_feature_merge_roundtrip(ray_session, tmp_path):
    """VERDICT r3 item 6: segments with DIFFERENT feature sets merge like
    the reference (merge_writer.cpp:1116-1174 accepts any combination).
    A source lacking a stream contributes empty entries — zero-width
    offsets / zero-byte payloads — and heterogeneous norm features merge
    as the union, each recomputed from merged doc_len."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from iresearch_ray import FORMAT_VERSION
    from iresearch_ray.index.build import build_index
    from iresearch_ray.index.features import register_norm_feature
    from iresearch_ray.index.merge import merge_segment_tables
    from iresearch_ray.index.segment import SegmentReader, write_segment_dir
    from iresearch_ray.search import IndexReader

    def _invlen(dl):
        return 1.0 / np.maximum(dl, 1)

    # registered on the driver for the merge; build ships (name, fn) so
    # worker processes register it too
    register_norm_feature("invlen2_test", _invlen)

    def mk(name, texts, **kw):
        t = pa.table({"url": [f"{name}{i}" for i in range(len(texts))],
                      "text": texts})
        p = str(tmp_path / f"{name}.parquet")
        pq.write_table(t, p)
        idx = str(tmp_path / f"{name}_idx")
        build_index(p, idx, target_docs=100, **kw)
        return IndexReader(idx).segments[0].reader

    r_offs = mk("offs", ["alpha beta alpha", "gamma alpha"],
                analyzer="ascii", index_features=("pos", "offs"),
                norm_feature=("invlen2_test", _invlen))
    r_pay = mk("pay", ["alpha|P0 delta|D0"], analyzer="payload-delimiter",
               index_features=("pos", "pay"))
    r_plain = mk("plain", ["alpha epsilon"], analyzer="ascii",
                 norm_feature="norm")

    terms_tbl, docmap, stats, columns_tbl = merge_segment_tables(
        [r_offs, r_pay, r_plain])
    # union of streams present
    assert "offs_start_blob" in terms_tbl.column_names
    assert "pay_blob" in terms_tbl.column_names
    out_dir = str(tmp_path / "merged_idx")
    meta = {"format_version": FORMAT_VERSION, "segment_id": "seg-m0000",
            **stats}
    write_segment_dir(out_dir, "seg-m0000", terms_tbl, docmap, meta,
                      columns_tbl)
    seg = SegmentReader(f"{out_dir}/seg-m0000")

    # 'alpha' lives in all three sources: docs 1,2 (offs), 3 (pay), 4 (plain)
    i = seg.lookup("alpha")
    docs, freqs, starts, ends, run_offs = seg.postings_offsets(i)
    assert list(docs) == [1, 2, 3, 4]
    by_doc = {int(d): list(zip(starts[run_offs[j]:run_offs[j + 1]],
                               ends[run_offs[j]:run_offs[j + 1]]))
              for j, d in enumerate(docs)}
    assert by_doc[1] == [(0, 5), (11, 16)]  # real spans from the offs source
    assert by_doc[2] == [(6, 11)]
    assert by_doc[3] == [(0, 0)]            # synthesized empty: pay source
    assert by_doc[4] == [(0, 0)]            # synthesized empty: plain source
    docs_p, _, pays, run_p = seg.postings_payloads(i)
    assert list(docs_p) == [1, 2, 3, 4]
    pay_by_doc = {int(d): list(pays[run_p[j]:run_p[j + 1]])
                  for j, d in enumerate(docs_p)}
    assert pay_by_doc[3] == [b"P0"]          # verbatim from the pay source
    assert pay_by_doc[1] == [b"", b""]       # synthesized empty elsewhere
    assert pay_by_doc[4] == [b""]
    # payload term from the pay source survives untouched
    j = seg.lookup("delta")
    _, _, pays_d, _ = seg.postings_payloads(j)
    assert list(pays_d) == [b"D0"]

    # heterogeneous norm features: union, each recomputed over merged lens
    assert stats["norm_features"] == ["invlen2_test", "norm"]
    dl = seg.doc_len
    assert np.allclose(seg.norms("invlen2_test"), 1.0 / np.maximum(dl, 1))
    assert np.allclose(
        seg.norms("norm"),
        np.float32(1) / np.sqrt(np.maximum(dl, 1).astype(np.float32)))

    # RE-merge the heterogeneous merged segment: its meta records the norm
    # union only under the plural 'norm_features' key (singular is ambiguous
    # there), and a later tier consolidation must still carry both features —
    # this used to silently drop every norm column
    r_more = mk("more", ["alpha zeta eta"], analyzer="ascii",
                norm_feature="norm")
    terms2, docmap2, stats2, cols2 = merge_segment_tables([seg, r_more])
    assert stats2["norm_features"] == ["invlen2_test", "norm"]
    out2 = str(tmp_path / "merged_idx2")
    write_segment_dir(out2, "seg-m0001", terms2, docmap2,
                      {"format_version": FORMAT_VERSION,
                       "segment_id": "seg-m0001", **stats2}, cols2)
    seg2 = SegmentReader(f"{out2}/seg-m0001")
    dl2 = seg2.doc_len
    assert len(dl2) == 5
    assert np.allclose(seg2.norms("invlen2_test"), 1.0 / np.maximum(dl2, 1))
    assert np.allclose(
        seg2.norms("norm"),
        np.float32(1) / np.sqrt(np.maximum(dl2, 1).astype(np.float32)))


# ---- splice merge, Ray-free: K built segments merge into exactly the
# segment a one-segment build of the same rows writes ----

SPLICE_DOCS = 600  # three 200-doc segments


def _splice_texts():
    rng = np.random.default_rng(5)
    fill = ["f0", "f1|a", "f2|bb", "f3"]
    texts = []
    for i in range(SPLICE_DOCS):
        words = list(rng.choice(fill, size=int(rng.integers(1, 8))))
        words += ["dense|x"] * int(rng.integers(1, 4))
        if 100 <= i < 300:
            words.append("blk")  # posting 128 lies in the second input
        if i in (0, 200):
            words.append("wide")  # 2nd input's first delta 1 -> 200
        if i in (199, 340):
            words.append("narrow")  # local doc 141 -> delta 125 once masked
        if 400 <= i < 450:
            words.append("late")  # last input only; the masks delete it
        if i in (460, 470):
            words.append("late2")
        if i % 50 == 7:
            words += ["f0"] * 150 + ["far"]  # 2-byte position deltas
        texts.append(" ".join(words))
    return texts


def _build_rows(tmp_path, name, texts, keys, seg_docs, analyzer, feats):
    """Build ``texts`` as segments of ``seg_docs`` rows (Ray-free)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from iresearch_ray.index.build import BuildSegmentTask, plan_segments
    from iresearch_ray.index.segment import SegmentReader

    p = str(tmp_path / f"{name}.parquet")
    pq.write_table(pa.table({"url": keys, "text": texts}), p,
                   row_group_size=seg_docs)
    idx = str(tmp_path / name)
    task = BuildSegmentTask(idx, analyzer, {}, "text", "url",
                            index_features=feats)
    return [SegmentReader(os.path.join(idx, task.build_one(s)["segment_id"]))
            for s in plan_segments(p, target_docs=seg_docs)]


def _assert_same_segment(terms, docmap, stats, reader):
    import pyarrow.parquet as pq

    from iresearch_ray.index.segment import DOCMAP_FILE, TERMS_FILE

    assert terms.equals(pq.read_table(os.path.join(reader.dir, TERMS_FILE)))
    assert docmap.equals(pq.read_table(os.path.join(reader.dir, DOCMAP_FILE)))
    for k in ("num_docs", "sum_doc_len", "max_doc_len", "num_terms"):
        assert stats[k] == reader.meta[k], k


def _doc_bytes(terms, term):
    i = terms.column("term").to_pylist().index(term)
    return terms.column("doc_blob")[i].as_py()


@pytest.mark.parametrize("analyzer,feats", [
    ("ascii", ("pos",)), ("ascii", ("pos", "offs")),
    ("payload-delimiter", ("pos", "pay"))])
def test_splice_merge_equals_one_segment_build(tmp_path, analyzer, feats):
    """Merging 3 built segments (plain, and with docmasks) gives the terms
    table and docmap that one build of the same (surviving) rows writes:
    a term crossing a 128-posting block between inputs, a term only in
    the last input, a fully deleted term, and cross-input first doc
    deltas that need a wider and a narrower varint than the input's own."""
    from iresearch_ray.index import codec
    from iresearch_ray.index.merge import merge_segment_tables

    texts = _splice_texts()
    keys = [f"u{i:04d}" for i in range(SPLICE_DOCS)]
    parts = _build_rows(tmp_path, "k", texts, keys, 200, analyzer, feats)
    assert len(parts) == 3
    [one] = _build_rows(tmp_path, "one", texts, keys, SPLICE_DOCS,
                        analyzer, feats)
    terms, docmap, stats, _ = merge_segment_tables(parts)
    _assert_same_segment(terms, docmap, stats, one)
    assert [p.lookup("late") >= 0 for p in parts] == [False, False, True]
    i = one.lookup("blk")
    assert one.df(i) == 200 and parts[0].df(parts[0].lookup("blk")) == 100
    assert _doc_bytes(terms, "wide") == bytes(
        codec.varint_encode(np.array([1, 200])))  # 1 byte -> 2 bytes

    deleted = {0: [4, 51], 1: list(range(1, 17)), 2: list(range(1, 51))}
    masks = [np.array(deleted[s], dtype=np.int64) for s in range(3)]
    gone = {s * 200 + d - 1 for s, ds in deleted.items() for d in ds}
    rows = [r for r in range(SPLICE_DOCS) if r not in gone]
    [survivors] = _build_rows(tmp_path, "surv", [texts[r] for r in rows],
                              [keys[r] for r in rows], SPLICE_DOCS,
                              analyzer, feats)
    terms, docmap, stats, _ = merge_segment_tables(parts, masks)
    _assert_same_segment(terms, docmap, stats, survivors)
    assert "late" not in terms.column("term").to_pylist()
    # the second input stores 141 (2 bytes); merged it follows doc 198
    own = parts[1].term_blob("doc_blob", parts[1].lookup("narrow"))
    assert bytes(own) == bytes(codec.varint_encode(np.array([141])))
    assert _doc_bytes(terms, "narrow") == bytes(
        codec.varint_encode(np.array([198, 125])))


@pytest.mark.parametrize("column,cut", [
    ("pos_blob", "truncate"), ("pos_blob", "shift"), ("freq_blob", "flip")])
def test_corrupt_postings_fail_loudly(tmp_path, column, cut):
    """A blob row cut short, one byte moved to the next row (same varint
    count, misaligned term slices), or a continuation bit set in a blob of
    one-byte values (same length) is a ValueError naming the segment and
    the column (explicit checks: they hold under ``python -O``)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from iresearch_ray.index.merge import merge_segment_tables
    from iresearch_ray.index.segment import TERMS_FILE, SegmentReader

    texts = _splice_texts()[:400]
    parts = _build_rows(tmp_path, "c", texts, [f"u{i}" for i in range(400)],
                        200, "ascii", ("pos",))
    path = os.path.join(parts[1].dir, TERMS_FILE)
    t = pq.read_table(path)
    rows = t.column(column).to_pylist()
    if cut == "flip":
        rows[3] = bytes([rows[3][0] | 0x80]) + rows[3][1:]
    else:
        if cut == "shift":
            rows[4] = rows[3][-1:] + rows[4]
        rows[3] = rows[3][:-1]
    at = t.schema.get_field_index(column)
    pq.write_table(t.set_column(at, column,
                                pa.array(rows, pa.large_binary())), path)
    with pytest.raises(ValueError, match=f"seg-00001.*{column}"):
        merge_segment_tables([SegmentReader(p.dir) for p in parts])
