"""End-to-end ingest pipeline: extract -> dedup -> stage -> index, with
the byte-identical-text invariant and resume."""

import numpy as np
import pyarrow.parquet as pq
import pytest
import ray.data

from iresearch_ray.pipelines.ingest import ingest
from iresearch_ray.search import BM25, IndexReader, IndexSearcher, TermFilter
from iresearch_ray.sources.pages import synthesize_pages, write_pages


def test_ingest_end_to_end(ray_session, tmp_path_factory):
    base = tmp_path_factory.mktemp("ingest")
    pages = str(base / "pages.parquet")
    write_pages(pages, 300, row_group_size=100)  # includes a planted dup pair
    ds = ray.data.read_parquet(pages)
    work = str(base / "work")

    man = ingest(ds, work, analyzer="ascii", target_docs=100,
                 store_columns=("text",))
    assert man["ingest_counters"]["duplicates_dropped"] >= 1
    n_after = man["num_docs"]
    assert n_after == 300 - man["ingest_counters"]["duplicates_dropped"]

    reader = IndexReader(f"{work}/index")
    s = IndexSearcher(reader, BM25())
    res = s.search(TermFilter("hterm"), k=300)
    assert len(res) > 0

    # byte-identical extracted text per url (north-rule invariant): the
    # stored text equals the original pages table's text for sampled urls
    t = synthesize_pages(300)
    orig = dict(zip(t["url"].to_pylist(), t["text"].to_pylist()))
    st = reader.stored(res["doc"].to_numpy()[:20], ["text"])
    for doc, text in zip(res["key"][:20], st["text"]):
        assert orig[doc] == text

    # resume: second ingest skips staging AND every segment
    man2 = ingest(ray.data.read_parquet(pages), work, analyzer="ascii",
                  target_docs=100, store_columns=("text",))
    assert man2["build_stats"]["segments_skipped"] == len(man2["segments"])
    assert man2["num_docs"] == n_after


def test_ingest_crash_resume_no_duplication(ray_session, tmp_path_factory):
    """Review finding: stale staged.tmp from a crashed run must not double
    the corpus; resumed runs report the prior dedup counter."""
    import os
    import ray.data

    base = tmp_path_factory.mktemp("ingestcrash")
    pages = str(base / "p.parquet")
    write_pages(pages, 100, row_group_size=50)
    work = str(base / "work")
    # simulate a crash AFTER writing tmp but BEFORE the atomic rename
    os.makedirs(work, exist_ok=True)
    tmp = os.path.join(work, "staged.tmp")
    ray.data.read_parquet(pages).write_parquet(tmp)
    assert os.listdir(tmp)

    man = ingest(ray.data.read_parquet(pages), work, analyzer="ascii",
                 target_docs=60)
    dropped = man["ingest_counters"]["duplicates_dropped"]
    assert man["num_docs"] == 100 - dropped  # not doubled

    man2 = ingest(ray.data.read_parquet(pages), work, analyzer="ascii",
                  target_docs=60)
    assert man2["ingest_counters"]["duplicates_dropped"] == dropped  # persisted
    assert man2["num_docs"] == man["num_docs"]


def test_ingest_near_dup_minhash(ray_session, tmp_path_factory):
    """near_dup='minhash' drops near-duplicate docs (signature Jaccard >=
    threshold), keeping each component's min-key member; exact pipeline
    behavior is unchanged for the rest of the corpus."""
    import pyarrow as pa

    base = tmp_path_factory.mktemp("ingest_nd")
    body = ("the quick brown fox jumps over the lazy dog again and again "
            "while seven wizards mix quartz flasks beside the old river")
    rows = []
    for i in range(40):
        if i in (5, 17):   # near-duplicates of doc 3 (one word changed)
            text = body.replace("river", f"canal{i}")
        elif i == 3:
            text = body
        else:
            text = f"unique document number {i} " + " ".join(
                f"w{i}x{j}" for j in range(20))
        rows.append({"url": f"u{i:03d}",
                     "html": f"<html><body>{text}</body></html>",
                     "warc_ts": 1700000000000000 + i, "lang": "en",
                     "text": text})
    pages = str(base / "pages.parquet")
    pa.parquet.write_table(pa.Table.from_pylist(rows), pages)

    work = str(base / "work")
    man = ingest(ray.data.read_parquet(pages), work, analyzer="ascii",
                 target_docs=100, near_dup="minhash",
                 near_dup_threshold=0.8, store_columns=("text",))
    dropped = man["ingest_counters"]["near_duplicates_dropped"]
    assert dropped == 2  # u005 and u017 fold into u003's component
    assert man["num_docs"] == 40 - dropped
    reader = IndexReader(f"{work}/index")
    keys = set()
    for sv in reader.segments:
        keys.update(sv.reader.keys.tolist())
    assert "u003" in keys and "u005" not in keys and "u017" not in keys

    with pytest.raises(ValueError):
        ingest(ray.data.read_parquet(pages), str(base / "w2"),
               near_dup="bogus")

    # exact-Jaccard near-dup drops the same planted component — no
    # estimation, so the threshold behaves deterministically
    work2 = str(base / "work_jac")
    man2 = ingest(ray.data.read_parquet(pages), work2, analyzer="ascii",
                  target_docs=100, near_dup="jaccard",
                  near_dup_threshold=0.8, store_columns=("text",))
    assert man2["ingest_counters"]["near_duplicates_dropped"] == 2
    assert man2["num_docs"] == 38
    r2 = IndexReader(f"{work2}/index")
    keys2 = set()
    for sv in r2.segments:
        keys2.update(sv.reader.keys.tolist())
    assert "u003" in keys2 and "u005" not in keys2 and "u017" not in keys2


def test_stage_parquet_atomic_contract(ray_session, tmp_path):
    """Atomic staging: reuse on matching params, rebuild on mismatch, and
    a half-written attempt (tmp left behind, no final dir) never serves
    partial data."""
    import os
    import shutil

    import ray.data

    from iresearch_ray.util import stage_parquet_atomic

    staged = str(tmp_path / "st")
    assert stage_parquet_atomic(lambda: ray.data.range(10), staged,
                                {"v": 1}) is True
    assert ray.data.read_parquet(staged).count() == 10
    calls = {"n": 0}

    def factory():
        calls["n"] += 1
        return ray.data.range(10)

    assert stage_parquet_atomic(factory, staged, {"v": 1}) is False
    assert calls["n"] == 0  # factory never invoked on reuse
    # params mismatch -> rebuild with the new dataset
    assert stage_parquet_atomic(lambda: ray.data.range(5), staged,
                                {"v": 2}) is True
    assert ray.data.read_parquet(staged).count() == 5
    # simulate a crash mid-staging: only the tmp dir exists
    shutil.rmtree(staged)
    os.makedirs(staged + ".tmp")
    with open(os.path.join(staged + ".tmp", "junk.parquet"), "wb"):
        pass
    assert stage_parquet_atomic(lambda: ray.data.range(3), staged,
                                {"v": 3}) is True
    assert ray.data.read_parquet(staged).count() == 3


def test_ingest_restages_on_changed_params(ray_session, tmp_path):
    """A resubmit with different dedup knobs must NOT silently reuse the
    old staging (round-3 review finding on the pre-marker contract)."""
    import pyarrow as pa

    body = "same text every doc for exact dup drops"
    rows = [{"url": f"u{i}", "html": f"<html><body>{body} {i%3}</body></html>",
             "warc_ts": 1700000000000000 + i, "lang": "en",
             "text": f"{body} {i%3}"} for i in range(12)]
    pages = str(tmp_path / "pages.parquet")
    pa.parquet.write_table(pa.Table.from_pylist(rows), pages)
    work = str(tmp_path / "work")
    man1 = ingest(ray.data.read_parquet(pages), work, analyzer="ascii",
                  dedup=False, target_docs=50)
    assert man1["num_docs"] == 12
    # same work_dir, dedup ON: staging rebuilds, duplicates drop
    man2 = ingest(ray.data.read_parquet(pages), work, analyzer="ascii",
                  dedup=True, target_docs=50)
    assert man2["ingest_counters"]["duplicates_dropped"] == 9


def test_ingest_span_dup_filter(ray_session, tmp_path_factory):
    """span_dup_max drops documents whose duplicated-span fraction exceeds
    the threshold (the substring-dedup boilerplate filter); unique docs
    and the counters are unaffected."""
    import pyarrow as pa

    base = tmp_path_factory.mktemp("ingest_span")
    body = ("alpha beta gamma delta epsilon zeta eta theta iota kappa "
            "lambda mu nu xi omicron pi rho sigma tau upsilon")
    rows = []
    for i in range(30):
        if i in (4, 9):    # verbatim copies of doc 2 plus a unique tail
            text = body + f" tail{i} extra{i}"
        elif i == 2:
            text = body
        else:
            text = f"unique document {i} " + " ".join(
                f"w{i}x{j}" for j in range(20))
        rows.append({"url": f"u{i:03d}",
                     "html": f"<html><body>{text}</body></html>",
                     "warc_ts": 1700000000000000 + i, "lang": "en",
                     "text": text})
    pages = str(base / "pages.parquet")
    pa.parquet.write_table(pa.Table.from_pylist(rows), pages)

    work = str(base / "work")
    man = ingest(ray.data.read_parquet(pages), work, analyzer="ascii",
                 target_docs=100, span_dup_max=0.5, store_columns=("text",))
    # u002 is 100% duplicated spans; u004/u009 are mostly duplicated
    # (short unique tails keep them under 1.0 but over 0.5)
    dropped = man["ingest_counters"]["span_heavy_dropped"]
    assert dropped == 3
    assert man["num_docs"] == 30 - dropped
    reader = IndexReader(f"{work}/index")
    keys = set()
    for sv in reader.segments:
        keys.update(sv.reader.keys.tolist())
    assert "u002" not in keys and "u004" not in keys and "u009" not in keys
    assert "u005" in keys

    with pytest.raises(ValueError, match="span_dup_max"):
        ingest(ray.data.read_parquet(pages), str(base / "w2"),
               span_dup_max=1.5)


def test_ingest_span_filter_restages_on_analyzer_change(ray_session,
                                                        tmp_path_factory):
    """The span filter's drop set depends on tokenization, so changing
    the analyzer on resubmit must restage (not serve stale data)."""
    import json as _json
    import pyarrow as pa

    base = tmp_path_factory.mktemp("ingest_span_an")
    rows = [{"url": f"u{i}", "html": f"<html><body>w{i} x{i} y{i}</body></html>",
             "warc_ts": 1700000000000000 + i, "lang": "en",
             "text": f"w{i} x{i} y{i}"} for i in range(6)]
    pages = str(base / "pages.parquet")
    pa.parquet.write_table(pa.Table.from_pylist(rows), pages)
    work = str(base / "work")
    ingest(ray.data.read_parquet(pages), work, analyzer="ascii",
           target_docs=10, span_dup_max=0.9)
    marker = f"{work}/staged/_staged_meta.json"
    with open(marker) as f:
        first = _json.load(f)
    assert first["analyzer"] == "ascii"
    ingest(ray.data.read_parquet(pages), work, analyzer="segmentation",
           target_docs=10, span_dup_max=0.9)
    with open(marker) as f:
        second = _json.load(f)
    assert second["analyzer"] == "segmentation"


def test_classify_rejects_unknown_hash(ray_session):
    import pytest as _pytest

    from iresearch_ray.pipelines.classify import ClassifyBatch

    with _pytest.raises(ValueError, match="hash family"):
        ClassifyBatch(hash="MD5")


def test_ingest_domain_cap(ray_session, tmp_path_factory):
    """domain_cap keeps at most N docs per domain (smallest keys),
    applied after exact dedup so duplicates never consume quota."""
    import pyarrow as pa

    base = tmp_path_factory.mktemp("ingest_cap")
    rows = []
    for i in range(12):  # template farm: one domain, 12 pages
        rows.append({"url": f"http://farm.io/p{i:02d}",
                     "html": f"<html><body>farm page {i} words "
                             f"x{i} y{i}</body></html>",
                     "warc_ts": 1700000000000000 + i, "lang": "en",
                     "text": f"farm page {i} words x{i} y{i}"})
    for i in range(3):   # small site, under the cap
        rows.append({"url": f"http://tiny.org/q{i}",
                     "html": f"<html><body>tiny doc {i} unique "
                             f"a{i} b{i}</body></html>",
                     "warc_ts": 1700000000100000 + i, "lang": "en",
                     "text": f"tiny doc {i} unique a{i} b{i}"})
    # an exact duplicate of farm p00 under a DIFFERENT key: dedup drops
    # it first, so it must not consume farm.io quota
    rows.append({"url": "http://farm.io/p99",
                 "html": rows[0]["html"],
                 "warc_ts": 1700000001000000, "lang": "en",
                 "text": rows[0]["text"]})
    pages = str(base / "pages.parquet")
    pa.parquet.write_table(pa.Table.from_pylist(rows), pages)

    work = str(base / "work")
    man = ingest(ray.data.read_parquet(pages), work, analyzer="ascii",
                 target_docs=100, domain_cap=5)
    c = man["ingest_counters"]
    assert c["duplicates_dropped"] == 1        # p99 (dup of p00)
    assert c["domain_capped_dropped"] == 7     # farm.io 12 -> 5
    assert man["num_docs"] == 16 - 1 - 7
    reader = IndexReader(f"{work}/index")
    keys = set()
    for sv in reader.segments:
        keys.update(sv.reader.keys.tolist())
    # survivors: the 5 smallest farm keys + all of tiny.org
    assert {f"http://farm.io/p{i:02d}" for i in range(5)} <= keys
    assert "http://farm.io/p05" not in keys
    assert {f"http://tiny.org/q{i}" for i in range(3)} <= keys

    with pytest.raises(ValueError, match="domain_cap"):
        ingest(ray.data.read_parquet(pages), str(base / "w2"),
               domain_cap=0)


def test_ingest_wet_extractor(ray_session, tmp_path_factory):
    """extractor='wet' routes real markup through curate.extract_text:
    script/style junk never reaches the index, entities decode, and the
    indexed text matches the WET chain byte-for-byte."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    base = tmp_path_factory.mktemp("ingest_wet")
    rows = [{"url": f"http://s.io/{i}",
             "html": f"<html><head><script>var x={i};</script></head>"
                     f"<body><h1>Doc {i}</h1><p>alpha&nbsp;beta "
                     f"uniq{i}</p></body></html>",
             "text": ""} for i in range(40)]
    pages = str(base / "pages.parquet")
    pq.write_table(pa.Table.from_pylist(rows), pages)
    work = str(base / "work")

    man = ingest(ray.data.read_parquet(pages), work, analyzer="ascii",
                 extractor="wet", dedup=False, target_docs=20,
                 store_columns=("text",))
    assert man["num_docs"] == 40
    reader = IndexReader(f"{work}/index")
    s = IndexSearcher(reader, BM25())
    assert len(s.search(TermFilter("alpha"), k=50)) == 40
    assert len(s.search(TermFilter("uniq7"), k=50)) == 1
    assert len(s.search(TermFilter("script"), k=50)) == 0  # stripped
    res = s.search(TermFilter("uniq3"), k=5)
    st = reader.stored(res["doc"].to_numpy(), ["text"])
    assert st["text"][0] == "Doc 3 alpha beta uniq3"
    with pytest.raises(ValueError):
        ingest(ray.data.read_parquet(pages), str(base / "w2"),
               extractor="nope")

    # re-ingesting a dump that already carries 'text_extracted' must not
    # collide with the wet chain's working column
    rows2 = [dict(r, text_extracted="stale") for r in rows[:10]]
    pages2 = str(base / "pages2.parquet")
    pq.write_table(pa.Table.from_pylist(rows2), pages2)
    man2 = ingest(ray.data.read_parquet(pages2), str(base / "w3"),
                  analyzer="ascii", extractor="wet", dedup=False,
                  target_docs=20, store_columns=("text",))
    assert man2["num_docs"] == 10

    # ... nor may an input that carries the PRIVATE working column
    # itself ('__ingest_wet_text'): append_column would create a
    # duplicate field name and the rename raises an ambiguous-field
    # error (round-5 ADVICE) — the column is shed up front
    rows3 = [dict(r, __ingest_wet_text="stale") for r in rows[:7]]
    pages3 = str(base / "pages3.parquet")
    pq.write_table(pa.Table.from_pylist(rows3), pages3)
    man3 = ingest(ray.data.read_parquet(pages3), str(base / "w4"),
                  analyzer="ascii", extractor="wet", dedup=False,
                  target_docs=20, store_columns=("text",))
    assert man3["num_docs"] == 7


def test_anchor_text_index(ray_session, tmp_path_factory):
    """build_anchor_index: domains are ranked by what OTHER pages' links
    call them; the per-domain anchor cap keeps the deterministic-first
    (page, position) anchors."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from iresearch_ray.pipelines.websearch import build_anchor_index

    rows = [{"url": f"http://srcs{i}.io/p",
             "html": '<a href="http://shop.example/x">cheap widgets</a>'
                     '<a href="http://news.example/y">breaking news</a>'}
            for i in range(6)]
    rows.append({"url": "http://one.io/p",
                 "html": '<a href="http://news.example/z">widgets</a>'})
    base = tmp_path_factory.mktemp("anchoridx")
    work = str(base / "work")
    man = build_anchor_index(ray.data.from_items(rows), work,
                             analyzer="ascii", target_docs=10)
    assert man["num_docs"] == 2  # shop.example, news.example

    from iresearch_ray.search import BM25, IndexReader, IndexSearcher, TermFilter

    reader = IndexReader(f"{work}/index")
    s = IndexSearcher(reader, BM25())
    res = s.search(TermFilter("widgets"), k=10)
    # both domains carry "widgets", but shop.example says it 6/6 anchors
    assert list(res["key"]) [0] == "shop.example"
    assert len(res) == 2
    assert list(s.search(TermFilter("breaking"), k=10)["key"]) == [
        "news.example"]
    st = reader.stored(res["doc"].to_numpy(), ["n_anchors"])
    assert sorted(st["n_anchors"].tolist()) == [6, 7]

    # capped rebuild: at most 2 anchors per domain survive
    work2 = str(base / "work2")
    man2 = build_anchor_index(ray.data.from_items(rows), work2,
                              analyzer="ascii", target_docs=10,
                              anchors_per_domain=2)
    reader2 = IndexReader(f"{work2}/index")
    st2 = reader2.stored(np.arange(1, man2["num_docs"] + 1), ["n_anchors"])
    assert sorted(st2["n_anchors"].tolist()) == [2, 2]

    # a NUL-bearing source url would make the packed (url \x00 ordinal)
    # anchor id ambiguous — such pages drop (round-5 ADVICE); ordinals
    # pad to 20 digits so id order == numeric order past 10^8
    rows3 = rows + [{"url": "http://nul.io/p\x00q",
                     "html": '<a href="http://shop.example/n">nulpage</a>'}]
    work3 = str(base / "work3")
    build_anchor_index(ray.data.from_items(rows3), work3,
                       analyzer="ascii", target_docs=10)
    reader3 = IndexReader(f"{work3}/index")
    s3 = IndexSearcher(reader3, BM25())
    assert len(s3.search(TermFilter("nulpage"), k=10)) == 0
    assert len(s3.search(TermFilter("widgets"), k=10)) == 2


def test_drop_stages_compare_whole_keys(ray_session, tmp_path):
    """Keys that differ only by trailing NULs stay distinct in ingest's
    drop stages, whichever side holds the NUL (a fixed-width numpy
    unicode array strips trailing NULs, so there 'u1' == 'u1\\x00')."""
    import pyarrow as pa

    from iresearch_ray.pipelines.ingest import _drop_ids

    ds = ray.data.from_arrow(pa.table({"url": ["u1", "u1\x00", "u2", ""]}))

    def kept(ids):
        return sorted(r["url"] for r in _drop_ids(ds, ids, "url").take_all())

    assert kept({"u1"}) == ["", "u1\x00", "u2"]
    assert kept({"u1\x00"}) == ["", "u1", "u2"]

    # an exact-duplicate group keeps its min id 'u1' and drops the copy
    t = synthesize_pages(3)
    html = t["html"].to_pylist()
    t = t.set_column(t.schema.get_field_index("url"), "url",
                     pa.array(["u1", "u1\x00", "u2"]))
    t = t.set_column(t.schema.get_field_index("html"), "html",
                     pa.array([html[0], html[0], html[2]]))
    pages = str(tmp_path / "pages.parquet")
    pq.write_table(t, pages)
    man = ingest(ray.data.read_parquet(pages), str(tmp_path / "work"),
                 target_docs=10)
    reader = IndexReader(str(tmp_path / "work" / "index"))
    keys = sorted(k for seg in reader.segments for k in seg.reader.keys)
    assert keys == ["u1", "u2"]
    assert man["ingest_counters"]["duplicates_dropped"] == 1
