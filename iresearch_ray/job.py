"""Cluster job entry point — the ``ray job submit`` surface.

The north-rule launch story: the whole pipeline (build → consolidate →
query) runs as a Ray job against a fixed-size cluster:

    ray job submit --working-dir . -- \
        python -m iresearch_ray.job build --input 's3://bucket/pages/*.parquet' \
            --index-dir /shared/index --target-docs 50000 --analyzer segmentation

    ray job submit --working-dir . -- \
        python -m iresearch_ray.job query --index-dir /shared/index \
            --term hterm --k 10 --distributed

Owns its Ray session (CLI only — the library never calls ray.init):
``address='auto'`` inside a cluster/job, falling back to a local session
outside one.  Build is resumable: re-submitting the same job skips
completed segments by lineage (the reference's two-phase commit +
recovery, index_writer.cpp:2606-2720).
"""

from __future__ import annotations

import argparse
import json
import sys
import time


def _ray_init() -> bool:
    """Init Ray if nobody has; returns True iff this call owns the session."""
    import ray

    if ray.is_initialized():
        return False
    try:
        ray.init(address="auto", ignore_reinit_error=True,
                 logging_level="ERROR")
    except Exception:
        ray.init(address="local", ignore_reinit_error=True,
                 include_dashboard=False, logging_level="ERROR")
    return True


def cmd_build(a) -> dict:
    from iresearch_ray.index.build import build_index
    from iresearch_ray.index.merge import consolidate

    t0 = time.monotonic()
    inputs = a.input
    if getattr(a, "input_format", "parquet") == "lines":
        # reference index-put corpus format: stage the TSV lines to
        # Parquet once (segment specs derive from Parquet footers, which
        # is what makes the build resumable).  stage_parquet_atomic
        # rebuilds rather than reuse a half-written dir (tmp + rename)
        # or one staged from DIFFERENT --input files (params marker).
        from iresearch_ray.sources.lines import read_benchmark_lines
        from iresearch_ray.util import stage_parquet_atomic

        staged = a.index_dir.rstrip("/") + "_staged"
        stage_parquet_atomic(
            lambda: read_benchmark_lines(a.input), staged,
            params={"format": "lines", "input": sorted(a.input)})
        inputs = staged
    man = build_index(inputs, a.index_dir, analyzer=a.analyzer,
                      analyzer_opts=json.loads(a.analyzer_opts),
                      text_column=a.text_column, key_column=a.key_column,
                      target_docs=a.target_docs,
                      cpus_per_task=a.cpus_per_task,
                      store_columns=tuple(a.store or ()),
                      sort_by=a.sort_by, sort_descending=a.sort_descending)
    build_s = time.monotonic() - t0
    out = {"generation": man["generation"], "num_docs": man["num_docs"],
           "segments": len(man["segments"]),
           "build_stats": man.get("build_stats", {}), "build_s": build_s}
    if a.consolidate_target:
        t1 = time.monotonic()
        man2 = consolidate(a.index_dir, a.consolidate_target)
        out.update(consolidated_generation=man2["generation"],
                   consolidated_segments=len(man2["segments"]),
                   consolidate_s=time.monotonic() - t1)
    return out


def cmd_query(a) -> dict:
    from iresearch_ray.search import BM25, IndexReader, IndexSearcher, TermFilter
    from iresearch_ray.search.query_parser import parse_query

    ana = None
    if a.query:
        # query words go through the INDEX's analyzer (read from the first
        # segment's recorded config), like the reference's search tool
        import json as _json
        import os as _os

        from iresearch_ray.analysis.tokenizers import analyzer_from_config
        from iresearch_ray.index import manifest as _mf
        from iresearch_ray.index.segment import META_FILE

        man = _mf.load(a.index_dir)
        seg0 = man["segments"][0]["segment_id"]
        with open(_os.path.join(a.index_dir, seg0, META_FILE)) as f:
            cfg = _json.load(f).get("analyzer", {})
        try:
            # full recorded config (stopwords, lowercase, delimiter, ngram
            # bounds, ...), not just the name — query words must be
            # analyzed exactly as the indexed terms were
            ana = analyzer_from_config(cfg)
        except KeyError:
            ana = None
    flt = parse_query(a.query, analyzer=ana) if a.query else TermFilter(a.term)
    t0 = time.monotonic()
    if a.distributed:
        from iresearch_ray.search.distributed import DistributedSearcher

        s = DistributedSearcher(a.index_dir, scorer=BM25())
        df = s.search(flt, k=a.k, mode="top" if a.wand else "all")
    else:
        df = IndexSearcher(IndexReader(a.index_dir), BM25()).search(
            flt, k=a.k, mode="top" if a.wand else "all")
    wall = time.monotonic() - t0
    return {"query": a.query or a.term, "k": a.k, "wall_s": wall,
            "hits": [{"doc": int(r.doc), "key": str(r.key),
                      "score": float(r.score)} for r in df.itertuples()]}


def _count_parquet_rows(path: str) -> int:
    import glob
    import os

    import pyarrow.parquet as pq

    return sum(pq.ParquetFile(f).metadata.num_rows
               for f in glob.glob(os.path.join(path, "*.parquet")))


def _run_staged_op(a, name_field: str, build_op, extra_params: dict,
                   columns: list | None = None) -> dict:
    """Shared runner for the dedup/stats subcommands: column-pruned read
    (ops that never touch the id column read text only), atomic staged
    Parquet output (resumable: same input + config is a no-op on
    resubmit), row counts from Parquet footers — never a re-execution."""
    import ray.data

    from iresearch_ray.util import input_fingerprint, stage_parquet_atomic

    t0 = time.monotonic()
    ds = ray.data.read_parquet(
        a.input, columns=columns or [a.id_column, a.text_column])
    params = {name_field: getattr(a, name_field),
              "analyzer": a.analyzer, "text_column": a.text_column,
              "id_column": a.id_column, **extra_params,
              "input": input_fingerprint(ds)}
    ran = stage_parquet_atomic(lambda: build_op(ds), a.output, params)
    return {name_field: getattr(a, name_field), "output": a.output,
            "resumed": not ran, "rows": _count_parquet_rows(a.output),
            "wall_s": time.monotonic() - t0}


def cmd_dedup(a) -> dict:
    from iresearch_ray.pipelines import dedup as D

    common = dict(text_column=a.text_column, id_column=a.id_column,
                  analyzer=a.analyzer)

    def build_op(ds):
        if a.method == "exact":
            return D.exact_dedup_groups(ds, text_column=a.text_column,
                                        id_column=a.id_column, hash="md5")
        if a.method == "fingerprint":
            return D.fingerprint_dedup_groups(ds, **common)
        if a.method == "simhash":
            return D.simhash_groups(ds, **common)
        if a.method == "minhash":
            return D.minhash_lsh_pairs(ds, threshold=a.threshold, **common)
        if a.method == "jaccard":
            return D.ngram_jaccard_pairs(ds, threshold=a.threshold, **common)
        if a.method == "spans":
            return D.duplicated_spans(ds, k=a.k, **common)
        if a.method == "clusters":
            # transitive near-dup clusters over the minhash pair list
            return D.dedup_clusters(
                D.minhash_lsh_pairs(ds, threshold=a.threshold, **common))
        if a.method == "corpus":
            # end-to-end keep-one-per-cluster: the surviving rows
            return D.dedup_corpus(ds, threshold=a.threshold, **common)
        if a.method == "cap-domain":
            from iresearch_ray.pipelines import curate

            return curate.cap_per_domain(ds, cap=a.cap,
                                         url_column=a.url_column,
                                         id_column=a.id_column)
        return D.duplicated_span_stats(ds, k=a.k, **common)  # span-stats

    cols = ([a.id_column, a.url_column, a.text_column]
            if a.method == "cap-domain" else None)
    return _run_staged_op(a, "method", build_op,
                          {"threshold": a.threshold, "k": a.k,
                           "cap": a.cap}, columns=cols)


def cmd_stats(a) -> dict:
    from iresearch_ray.pipelines import textstats as T

    def build_op(ds):
        if a.op == "quality":
            return T.quality_stats(ds, text_column=a.text_column,
                                   analyzer=a.analyzer)
        if a.op == "langid":
            return T.langid(ds, text_column=a.text_column,
                            analyzer=a.analyzer)
        if a.op == "repetition":
            return T.repetition_stats(ds, text_column=a.text_column,
                                      id_column=a.id_column,
                                      analyzer=a.analyzer)
        if a.op == "bigrams":
            return T.top_bigrams(ds, text_column=a.text_column,
                                 k_top=a.k_top, analyzer=a.analyzer)
        if a.op == "keyterms":
            return T.keyterms(ds, n_terms=a.k_top, text_column=a.text_column,
                              id_column=a.id_column, analyzer=a.analyzer)
        if a.op == "quality-filter":
            return T.quality_filter(ds, text_column=a.text_column,
                                    analyzer=a.analyzer)
        if a.op == "quantiles":
            import ray.data

            return ray.data.from_pandas(T.token_count_quantiles(
                ds, text_column=a.text_column, analyzer=a.analyzer))
        if a.op == "redact-pii":
            return T.redact_pii(ds, text_column=a.text_column,
                                id_column=a.id_column)
        if a.op == "domains":
            from iresearch_ray.pipelines import curate

            return curate.domain_stats(ds, url_column=a.url_column,
                                       text_column=a.text_column,
                                       analyzer=a.analyzer,
                                       domain_mode=a.domain_mode)
        if a.op == "links":
            from iresearch_ray.pipelines import curate

            return curate.domain_links(ds, html_column=a.html_column,
                                       url_column=a.url_column,
                                       domain_mode=a.domain_mode)
        if a.op == "domain-rank":
            from iresearch_ray.pipelines import graph

            return graph.domain_rank(ds, html_column=a.html_column,
                                     url_column=a.url_column,
                                     domain_mode=a.domain_mode)
        if a.op == "extract-text":
            from iresearch_ray.pipelines import curate

            return curate.extract_text(
                ds, html_column=a.html_column).select_columns(
                [a.id_column, "text_extracted"])
        return T.term_frequencies(ds, text_column=a.text_column,
                                  analyzer=a.analyzer)  # termfreq

    # corpus-global ops never touch the id column — prune it at the read
    cols = ([a.text_column] if a.op in ("bigrams", "termfreq", "quantiles")
            else [a.url_column, a.text_column] if a.op == "domains"
            else [a.url_column, a.html_column] if a.op in ("links",
                                                           "domain-rank")
            else [a.id_column, a.html_column] if a.op == "extract-text"
            else [a.id_column, a.text_column])
    # url/html columns are staging-relevant knobs for the webgraph ops:
    # a re-run with a different --html-column must restage, not resume
    return _run_staged_op(a, "op", build_op,
                          {"k_top": a.k_top, "url_column": a.url_column,
                           "html_column": a.html_column,
                           "domain_mode": a.domain_mode},
                          columns=cols)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="iresearch_ray.job")
    sub = ap.add_subparsers(dest="cmd", required=True)

    b = sub.add_parser("build")
    b.add_argument("--input", required=True, nargs="+")
    b.add_argument("--input-format", choices=("parquet", "lines"),
                   default="parquet",
                   help="'lines' = reference enwiki line files "
                        "(title\\tdate\\tbody), staged to Parquet once")
    b.add_argument("--index-dir", required=True)
    b.add_argument("--analyzer", default="segmentation")
    b.add_argument("--analyzer-opts", default="{}")
    b.add_argument("--text-column", default="text")
    b.add_argument("--key-column", default="url")
    b.add_argument("--target-docs", type=int, default=50_000)
    b.add_argument("--cpus-per-task", type=int, default=1)
    b.add_argument("--store", nargs="*", default=None,
                   help="columns to keep in the segment columnstore")
    b.add_argument("--sort-by", default=None,
                   help="physically order each segment's docs by this column")
    b.add_argument("--sort-descending", action="store_true")
    b.add_argument("--consolidate-target", type=int, default=0,
                   help="if set, tier-merge segments up to this many docs")

    q = sub.add_parser("query")
    q.add_argument("--index-dir", required=True)
    g = q.add_mutually_exclusive_group(required=True)
    g.add_argument("--term")
    g.add_argument("--query",
                   help="Lucene-ish query string: terms, \"phrases\", "
                        "pre*, fuzz~1, [a TO b], OR, -exclusions, ^boost")
    q.add_argument("--k", type=int, default=10)
    q.add_argument("--wand", action="store_true")
    q.add_argument("--distributed", action="store_true",
                   help="segment-group query actors instead of driver scan")

    d = sub.add_parser("dedup")
    d.add_argument("--input", required=True, nargs="+")
    d.add_argument("--output", required=True)
    d.add_argument("--method", required=True,
                   choices=("exact", "fingerprint", "simhash", "minhash",
                            "jaccard", "spans", "span-stats", "clusters",
                            "corpus", "cap-domain"))
    d.add_argument("--threshold", type=float, default=0.9)
    d.add_argument("--k", type=int, default=5,
                   help="span window length for spans/span-stats")
    d.add_argument("--id-column", default="doc_id")
    d.add_argument("--text-column", default="text")
    d.add_argument("--analyzer", default="ascii")
    d.add_argument("--url-column", default="url")
    d.add_argument("--cap", type=int, default=1000,
                   help="max docs kept per domain for cap-domain")

    s = sub.add_parser("stats")
    s.add_argument("--input", required=True, nargs="+")
    s.add_argument("--output", required=True)
    s.add_argument("--op", required=True,
                   choices=("quality", "langid", "repetition", "bigrams",
                            "keyterms", "termfreq", "quality-filter",
                            "quantiles", "redact-pii", "domains", "links",
                            "domain-rank", "extract-text"))
    s.add_argument("--k-top", type=int, default=20)
    s.add_argument("--id-column", default="doc_id")
    s.add_argument("--text-column", default="text")
    s.add_argument("--analyzer", default="ascii")
    s.add_argument("--url-column", default="url")
    s.add_argument("--html-column", default="html")
    s.add_argument("--domain-mode", choices=("host", "registrable"),
                   default="host",
                   help="per-domain key: raw host or the public-suffix"
                        "-list registrable domain (vendored PSL subset)")

    a = ap.parse_args(argv)
    owns = _ray_init()
    try:
        out = {"build": cmd_build, "query": cmd_query,
               "dedup": cmd_dedup, "stats": cmd_stats}[a.cmd](a)
    finally:
        if owns:
            import ray

            ray.shutdown()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
