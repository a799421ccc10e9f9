"""End-to-end ingest: raw HTML pages Dataset -> extracted text -> exact
dedup -> staged Parquet -> segment index.

The north-star flow in one call, each stage the scale-correct shape:

1. extraction is a per-batch Arrow transform (byte-identical text per
   url by construction — `sources.pages.extract_text_batch`);
2. dedup drops exact duplicates by content hash: the groupby ships only
   (hash, id) pairs, and the DROP set (duplicates minus the kept min-id
   doc) is broadcast via `ray.put` — output-sized, not corpus-sized;
3. the cleaned stream stages to partitioned Parquet (one file per block,
   deterministic order), because segment specs derive from Parquet
   footers — this is what makes the subsequent build RESUMABLE: a
   re-submitted ingest skips both the staging write (if present) and
   every completed segment;
4. `build_index` over the staged files.
"""

from __future__ import annotations

import json
import os
import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from iresearch_ray.analysis.hashing import hash_family
from iresearch_ray.index.build import build_index
from iresearch_ray.pipelines.dedup import _sorted_member
from iresearch_ray.sources.pages import extract_text_batch


def _is_in(col, value_set: pa.Array) -> np.ndarray:
    """Whether each value of ``col`` is in ``value_set``, comparing whole
    values: a fixed-width numpy unicode array strips trailing NULs, so
    there ``'u1' == 'u1\x00'`` whichever side holds the NUL."""
    return pc.is_in(col, value_set=value_set.cast(col.type)).to_numpy(
        zero_copy_only=False)


def _drop_ids(stream, ids, key_column: str):
    """Filter out rows whose ``key_column`` is in ``ids`` (broadcast once
    as an Arrow array), shared by the domain-cap, near-dup and
    span-duplication drop stages."""
    import ray

    ref = ray.put(pa.array(list(ids)))

    def drop(b: pa.Table) -> pa.Table:
        if not b.num_rows:
            return b
        return b.filter(pa.array(~_is_in(b[key_column], ray.get(ref))))

    return stream.map_batches(drop, batch_format="pyarrow")


def ingest(ds, work_dir: str, *, analyzer: str = "ascii",
           analyzer_opts: dict | None = None, dedup: bool = True,
           near_dup: str | None = None, near_dup_threshold: float = 0.9,
           span_dup_max: float | None = None, span_k: int = 5,
           domain_cap: int | None = None, extractor: str = "body",
           dedup_hash: str = "stable",
           key_column: str = "url", target_docs: int = 50_000,
           store_columns: tuple = (), **build_kw) -> dict:
    """Run the full pipeline; returns the index manifest plus counters.

    ``near_dup='minhash'`` additionally drops MinHash-LSH near-duplicates
    (signature Jaccard >= ``near_dup_threshold``), keeping each duplicate
    component's min-id member: the candidate-pair set is output-sized, so
    the union-find and the broadcast drop-set stay small at any corpus
    size.  ``near_dup='jaccard'`` does the same with EXACT shingle-set
    Jaccard (prefix-filtered candidates + true intersections,
    ngram_jaccard_pairs) — deterministic, estimation-free drops.

    ``span_dup_max`` (0..1) drops documents whose verbatim-duplication
    score exceeds it: the fraction of a doc's distinct ``span_k``-token
    windows that also appear in another document
    (`dedup.duplicated_span_stats`) — the substring-dedup filter a
    training-data pipeline applies to boilerplate-heavy pages.  The drop
    set (ids over threshold) is broadcast, bounded by the filtered
    volume, not the corpus.

    ``domain_cap`` keeps at most that many documents per domain (the
    RefinedWeb-style template-farm trim), applied AFTER exact dedup so
    duplicate pages never consume a site's quota; survivors are the cap
    lexicographically-smallest keys per domain (deterministic across
    re-runs).  Exact at any domain skew (`grouped_rank_drop_ids`).

    ``extractor`` picks the html->text stage: ``'body'`` (the
    synthetic-corpus body strip, `sources.pages.extract_text_batch`) or
    ``'wet'`` — the real WET-style chain (`curate.extract_text`:
    script/style/comment strip, tags->spaces, entity decode, whitespace
    collapse) for arbitrary crawled markup.

    ``dedup_hash`` picks the exact-dedup content hash: ``'stable'``
    (default — vectorized 128-bit siphash pair, the at-scale fast path)
    or ``'md5'`` (per-row C md5, the SQL-reproducible key space).  Both
    are exact; survivors only differ if two DIFFERENT texts collide
    (negligible at 128 bits)."""
    import ray
    import ray.data

    from iresearch_ray.pipelines.dedup import (
        dedup_drop_set,
        duplicated_span_stats,
        exact_dedup_groups,
        minhash_lsh_pairs,
        ngram_jaccard_pairs,
    )

    from iresearch_ray.util import input_fingerprint, stage_parquet_atomic

    if near_dup not in (None, "minhash", "jaccard"):
        raise ValueError(f"unknown near_dup method {near_dup!r}")
    if extractor not in ("body", "wet"):
        raise ValueError(f"unknown extractor {extractor!r}")
    if span_dup_max is not None and not (0.0 <= span_dup_max <= 1.0):
        raise ValueError(f"span_dup_max must be in [0, 1], got {span_dup_max}")
    if domain_cap is not None and domain_cap < 1:
        raise ValueError(f"domain_cap must be >= 1, got {domain_cap}")
    family = hash_family(dedup_hash)
    staged = os.path.join(work_dir, "staged")
    index_dir = os.path.join(work_dir, "index")
    counters_path = os.path.join(work_dir, "ingest.json")
    staging_params = {"dedup": bool(dedup), "near_dup": near_dup,
                      "extractor": extractor,
                      "near_dup_threshold": float(near_dup_threshold),
                      "span_dup_max": span_dup_max, "span_k": int(span_k),
                      "domain_cap": domain_cap, "dedup_hash": dedup_hash,
                      # the span filter's drop set depends on tokenization,
                      # so a changed analyzer (or its options) must restage
                      "analyzer": analyzer,
                      "analyzer_opts": analyzer_opts or {},
                      "key_column": key_column,
                      "input": input_fingerprint(ds)}
    counters = {"n_dropped": 0, "n_near_dropped": 0, "n_span_dropped": 0,
                "n_domain_dropped": 0}

    def _extract_and_dedup():
        if extractor == "wet":
            from iresearch_ray.pipelines.curate import extract_text

            # private out column: an input corpus that already carries
            # 'text_extracted' (a re-ingested dump) must not collide
            out_col = "__ingest_wet_text"

            # an input that ALREADY carries the private column (e.g. a
            # staged dump re-ingested) would otherwise end with two
            # fields of that name (append_column doesn't replace) and
            # b[out_col] below would raise pyarrow's ambiguous-field
            # error mid-pipeline — shed it up front
            src = ds
            if out_col in src.schema().names:
                src = src.map_batches(
                    lambda b, _c=out_col: b.remove_column(
                        b.schema.get_field_index(_c)),
                    batch_format="pyarrow")

            def to_text(b: pa.Table) -> pa.Table:
                i = b.schema.get_field_index("text")
                col, b = b[out_col], b.remove_column(
                    b.schema.get_field_index(out_col))
                return (b.set_column(i, "text", col) if i >= 0
                        else b.append_column("text", col))

            extracted = extract_text(src, out_column=out_col).map_batches(
                to_text, batch_format="pyarrow")
        else:
            extracted = ds.map_batches(extract_text_batch,
                                       batch_format="pyarrow")
        if dedup:
            groups = exact_dedup_groups(extracted, id_column=key_column,
                                        hash=dedup_hash)
            # Arrow kernel filter (one row per DISTINCT hash flows through
            # here — corpus-cardinality when most docs are unique, so a
            # per-row lambda would be a hot Python loop)
            dup_groups = (groups.map_batches(
                lambda t: t.filter(pc.greater(t["dup_count"], 1)),
                batch_format="pyarrow").take_all())  # output-sized
            # drop-set = duplicate members minus each group's survivor;
            # needs member ids, which exact_dedup aggregates away — rebuild
            # them from a second hash pass filtered to duplicated hashes
            # (both passes ship only (hash, id) pairs)
            if dup_groups:
                # both key spaces flow through 32-hex-char S32 arrays;
                # sorted fixed-width arrays -> searchsorted membership (no
                # per-row Python set lookups), same shape as dedup.keep_hot
                hashes_ref = ray.put(np.sort(family.key_hex(
                    [g["text_hash"] for g in dup_groups])))
                keep_ref = ray.put(pa.array(
                    [g["keep_id"] for g in dup_groups]))

                def drop_dups(b: pa.Table) -> pa.Table:
                    if not b.num_rows:
                        return b
                    hs = ray.get(hashes_ref)
                    kp = ray.get(keep_ref)
                    is_dup = _sorted_member(
                        hs, family.content_hex(b["text"]))
                    mask = ~is_dup
                    if is_dup.any():  # survivors: each group's keep_id
                        mask |= _is_in(b[key_column], kp)
                    return b.filter(pa.array(mask))

                extracted = extracted.map_batches(drop_dups,
                                                  batch_format="pyarrow")
                # the counter derives from data already on the driver — no
                # extra corpus passes just to count
                counters["n_dropped"] = sum(
                    g["dup_count"] - 1 for g in dup_groups)
        if domain_cap is not None:
            # anti-spam trim after exact dedup: (domain, key)-only rows
            # through the rank-repaired sort; drop set is trim-sized
            from iresearch_ray.pipelines.curate import extract_domain
            from iresearch_ray.pipelines.dedup import grouped_rank_drop_ids

            keyed = extract_domain(
                extracted, url_column=key_column).select_columns(
                ["domain", key_column])
            over = grouped_rank_drop_ids(
                keyed, "domain", key_column, domain_cap).to_pandas()
            counters["n_domain_dropped"] = int(len(over))
            if len(over):
                extracted = _drop_ids(extracted, over[key_column].tolist(),
                                      key_column)
        if near_dup is not None:
            finder = (minhash_lsh_pairs if near_dup == "minhash"
                      else ngram_jaccard_pairs)
            pairs = finder(extracted, id_column=key_column,
                           threshold=near_dup_threshold).to_pandas()
            drop = dedup_drop_set(pairs)
            counters["n_near_dropped"] = len(drop)
            if drop:
                extracted = _drop_ids(extracted, drop, key_column)
        if span_dup_max is not None:
            # only the over-threshold ids reach the driver (Arrow-side
            # filter on the per-doc stats stream, never the full listing)
            over = (duplicated_span_stats(
                        extracted, id_column=key_column, k=span_k,
                        analyzer=analyzer, analyzer_opts=analyzer_opts)
                    .map_batches(lambda t: t.filter(
                        pc.greater(t["dup_frac"], span_dup_max)),
                        batch_format="pyarrow")
                    .select_columns([key_column]).to_pandas())
            # an all-under-threshold result arrives as a COLUMN-LESS
            # empty frame — guard before indexing
            counters["n_span_dropped"] = int(len(over))
            if len(over):
                extracted = _drop_ids(extracted, over[key_column].tolist(),
                                      key_column)
        return extracted

    # atomic tmp+rename staging with a params marker: a half-written dir
    # is never reused (write_parquet APPENDS UUID files — reusing one
    # would double docs) and a resubmit with different inputs/knobs
    # rebuilds instead of silently serving stale data
    ran = stage_parquet_atomic(_extract_and_dedup, staged, staging_params)
    if ran:
        with open(counters_path, "w") as f:
            json.dump({"duplicates_dropped": int(counters["n_dropped"]),
                       "near_duplicates_dropped":
                           int(counters["n_near_dropped"]),
                       "span_heavy_dropped":
                           int(counters["n_span_dropped"]),
                       "domain_capped_dropped":
                           int(counters["n_domain_dropped"])}, f)
    elif os.path.exists(counters_path):
        with open(counters_path) as f:  # resumed run: report prior counters
            c = json.load(f)
        counters["n_dropped"] = c.get("duplicates_dropped", 0)
        counters["n_near_dropped"] = c.get("near_duplicates_dropped", 0)
        counters["n_span_dropped"] = c.get("span_heavy_dropped", 0)
        counters["n_domain_dropped"] = c.get("domain_capped_dropped", 0)

    man = build_index(staged, index_dir, analyzer=analyzer,
                      analyzer_opts=analyzer_opts, key_column=key_column,
                      target_docs=target_docs,
                      store_columns=tuple(store_columns), **build_kw)
    man["ingest_counters"] = {
        "duplicates_dropped": int(counters["n_dropped"]),
        "near_duplicates_dropped": int(counters["n_near_dropped"]),
        "span_heavy_dropped": int(counters["n_span_dropped"]),
        "domain_capped_dropped": int(counters["n_domain_dropped"]),
        "staged_dir": staged}
    return man
