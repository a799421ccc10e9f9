"""Tiered segment consolidation: k-way merge of adjacent segments.

The analogue of the reference's consolidation path (`merge_writer` k-way
merge with doc-id remap, /root/reference/core/index/merge_writer.cpp:
207-307,1116-1174; tier policy core/utils/index_utils.hpp:36-90), built as
whole-segment vectorized decode -> remap -> re-encode:

- a segment's ENTIRE postings stream decodes in a handful of numpy sweeps
  (the per-term varint blobs are byte-contiguous in the Arrow column, so
  one `varint_decode` pass recovers every delta);
- doc ids shift by the segment's base offset (merge_writer.hpp:46-50's
  doc-id remapping — ours is a pure add because segments are merged in
  manifest order and deletes are out of scope);
- the union dictionary comes from one factorize(sort) over the input
  dictionaries; postings interleave by one lexsort.

Only ADJACENT runs merge, so global doc order (segment_base + local id) is
stable across generations — rank-identical top-k before and after
consolidation.  Each run is one Ray task; the driver commits a new
manifest generation (MVCC: readers of the old generation are unaffected).
"""

from __future__ import annotations

import json
import os
import time

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

from iresearch_ray.index import codec
from iresearch_ray.index import manifest as manifest_mod
from iresearch_ray.util import nul_safe_factorize
from iresearch_ray.index.segment import (
    META_FILE,
    SegmentReader,
    encode_postings_table,
    write_segment_dir,
)


def _column_blob(reader: SegmentReader, name: str) -> np.ndarray:
    """Concatenated bytes of one large_binary ``terms.parquet`` column."""
    col = reader.terms_column(name).combine_chunks()
    if col.offset != 0:
        col = pa.concat_arrays([col])  # force re-layout at offset 0
    bufs = col.buffers()
    offs = np.frombuffer(bufs[1], dtype=np.int64)[: len(col) + 1]
    data = (np.frombuffer(bufs[2], dtype=np.uint8)[: offs[-1]]
            if bufs[2] is not None else np.empty(0, dtype=np.uint8))
    return data


def decode_segment_full(reader: SegmentReader) -> dict:
    """Vectorized full decode of one segment's postings.

    Returns: terms (object), df, p_docs / freqs (concatenated per-posting,
    term-major order), poss (concatenated position occurrences),
    posting_offs (len n_postings+1 into poss).  When the segment was built
    with the OFFS/PAY features the occurrence-aligned streams decode too
    (offs_starts/offs_lens, pay_sizes/pay_bytes) — they lay out exactly
    like positions, so the same whole-column sweeps recover them (the
    reference merges all index features through the same doc-id remap,
    merge_writer.cpp:1116-1174).
    """
    df = reader.df_array().astype(np.int64)
    n_post = int(df.sum())
    term_offs = np.zeros(len(df) + 1, dtype=np.int64)
    np.cumsum(df, out=term_offs[1:])

    doc_blob = _column_blob(reader, "doc_blob")
    deltas = codec.varint_decode(doc_blob).astype(np.int64)
    assert len(deltas) == n_post, (len(deltas), n_post)
    glob = np.cumsum(deltas)
    prior = np.r_[0, glob][term_offs[:-1]]
    p_docs = glob - np.repeat(prior, df)

    freq_blob = _column_blob(reader, "freq_blob")
    freqs = codec.varint_decode(freq_blob).astype(np.int64)
    assert len(freqs) == n_post

    pos_blob = _column_blob(reader, "pos_blob")
    pos_deltas = codec.varint_decode(pos_blob).astype(np.int64)
    posting_offs = np.zeros(n_post + 1, dtype=np.int64)
    np.cumsum(freqs, out=posting_offs[1:])
    pglob = np.cumsum(pos_deltas)
    pprior = np.r_[0, pglob][posting_offs[:-1]]
    poss = pglob - np.repeat(pprior, freqs)

    out = {"terms": reader.terms, "df": df,
           "p_docs": p_docs, "freqs": freqs, "poss": poss,
           "posting_offs": posting_offs}
    if reader.has_offsets:
        # starts delta-encode per posting run (like positions); lens are
        # plain varints — both one occurrence per position entry
        s_blob = _column_blob(reader, "offs_start_blob")
        s_deltas = codec.varint_decode(s_blob).astype(np.int64)
        sglob = np.cumsum(s_deltas)
        sprior = np.r_[0, sglob][posting_offs[:-1]]
        out["offs_starts"] = sglob - np.repeat(sprior, freqs)
        l_blob = _column_blob(reader, "offs_len_blob")
        out["offs_lens"] = codec.varint_decode(l_blob).astype(np.int64)
        assert len(out["offs_starts"]) == len(poss)
    if reader.has_payloads:
        sz_blob = _column_blob(reader, "pay_size_blob")
        out["pay_sizes"] = codec.varint_decode(sz_blob).astype(np.int64)
        out["pay_bytes"] = _column_blob(reader, "pay_blob")
        assert len(out["pay_sizes"]) == len(poss)
    return out


def merge_segment_tables(readers: list[SegmentReader],
                         masks: list[np.ndarray | None] | None = None,
                         ) -> tuple[pa.Table, pa.Table, dict]:
    """Merge K segments (in order) into one; returns (terms, docmap, stats).

    ``masks[i]``: sorted deleted local doc ids (1-based) for reader i — those
    docs are physically purged and surviving doc ids densely remapped, like
    the reference merge_writer's doc_map (merge_writer.cpp:207-307)."""
    if masks is None:
        masks = [None] * len(readers)
    decoded = [decode_segment_full(r) for r in readers]
    kept_counts = [r.num_docs - (len(m) if m is not None else 0)
                   for r, m in zip(readers, masks)]
    bases = np.zeros(len(readers), dtype=np.int64)
    np.cumsum(kept_counts[:-1], out=bases[1:])

    all_terms = np.concatenate([d["terms"] for d in decoded])
    codes_flat, uniques = nul_safe_factorize(all_terms, sort=True)
    # per-posting term code and remapped doc, in segment order
    code_parts, doc_parts, freq_parts = [], [], []
    run_start_parts, run_len_parts = [], []
    keep_rows_parts = []
    t_cursor = 0
    pos_base = 0
    for d, base, m, r in zip(decoded, bases, masks, readers):
        n_t = len(d["terms"])
        codes = np.repeat(codes_flat[t_cursor:t_cursor + n_t], d["df"])
        t_cursor += n_t
        p_docs, freqs = d["p_docs"], d["freqs"]
        run_start = d["posting_offs"][:-1] + pos_base
        pos_base += d["posting_offs"][-1]
        if m is not None and len(m):
            at = np.searchsorted(m, p_docs)
            dele = (at < len(m)) & (m[np.minimum(at, len(m) - 1)] == p_docs)
            keep = ~dele
            codes, freqs, run_start = codes[keep], freqs[keep], run_start[keep]
            p_docs = p_docs[keep] - np.searchsorted(m, p_docs[keep])
            rows = np.ones(r.num_docs, dtype=bool)
            rows[m - 1] = False
            keep_rows_parts.append(rows)
        else:
            keep_rows_parts.append(np.ones(r.num_docs, dtype=bool))
        code_parts.append(codes)
        doc_parts.append(p_docs + base)
        freq_parts.append(freqs)
        run_start_parts.append(run_start)
        run_len_parts.append(freqs)
    code_all = np.concatenate(code_parts) if code_parts else np.empty(0, dtype=np.int64)
    doc_all = np.concatenate(doc_parts) if doc_parts else np.empty(0, dtype=np.int64)
    freq_all = np.concatenate(freq_parts) if freq_parts else np.empty(0, dtype=np.int64)
    run_start = np.concatenate(run_start_parts) if run_start_parts else np.empty(0, dtype=np.int64)
    poss_all = (np.concatenate([d["poss"] for d in decoded])
                if decoded else np.empty(0, dtype=np.int64))

    order = np.lexsort((doc_all, code_all))
    p_docs = doc_all[order]
    freqs = freq_all[order]
    # term boundaries over sorted codes
    sc = code_all[order]
    if len(sc):
        new_term = np.empty(len(sc), dtype=bool)
        new_term[0] = True
        new_term[1:] = sc[1:] != sc[:-1]
        term_post_offs = np.r_[np.flatnonzero(new_term), len(sc)].astype(np.int64)
    else:
        term_post_offs = np.zeros(1, dtype=np.int64)
    # gather position runs into the new posting order
    out_offs = np.zeros(len(freqs) + 1, dtype=np.int64)
    np.cumsum(freqs, out=out_offs[1:])
    total = int(out_offs[-1])
    gather = (np.repeat(run_start[order], freqs)
              + (np.arange(total, dtype=np.int64) - np.repeat(out_offs[:-1], freqs)))
    poss = poss_all[gather] if total else np.empty(0, dtype=np.int64)

    # OFFS/PAY streams are occurrence-aligned with positions, so the same
    # gather permutation remaps them (deleted postings' runs drop out with
    # their position runs).  MIXED feature sets merge like the reference
    # (merge_writer.cpp:1116-1174 merges any segment combination): a
    # segment lacking a stream contributes EMPTY entries — zero-width
    # [0, 0) offsets / zero-byte payloads per occurrence — so the merged
    # segment declares the union of features and readers see absent data
    # as empty, never an error
    has_offs = [("offs_starts" in d) for d in decoded]
    has_pay = [("pay_sizes" in d) for d in decoded]
    offs = None
    if decoded and any(has_offs):
        starts_all = np.concatenate(
            [d["offs_starts"] if h else np.zeros(len(d["poss"]), np.int64)
             for d, h in zip(decoded, has_offs)])
        lens_all = np.concatenate(
            [d["offs_lens"] if h else np.zeros(len(d["poss"]), np.int64)
             for d, h in zip(decoded, has_offs)])
        starts = starts_all[gather] if total else np.empty(0, dtype=np.int64)
        lens = lens_all[gather] if total else np.empty(0, dtype=np.int64)
        offs = (starts, starts + lens)
    pays = None
    if decoded and any(has_pay):
        sizes_all = np.concatenate(
            [d["pay_sizes"] if h else np.zeros(len(d["poss"]), np.int64)
             for d, h in zip(decoded, has_pay)])
        blob_all = np.concatenate(
            [d["pay_bytes"] for d, h in zip(decoded, has_pay) if h]
            or [np.empty(0, dtype=np.uint8)])
        by_bounds = np.zeros(len(sizes_all) + 1, dtype=np.int64)
        np.cumsum(sizes_all, out=by_bounds[1:])
        new_sizes = sizes_all[gather] if total else np.empty(0, dtype=np.int64)
        new_cum = np.zeros(len(new_sizes) + 1, dtype=np.int64)
        np.cumsum(new_sizes, out=new_cum[1:])
        nbytes = int(new_cum[-1])
        if nbytes:
            byte_gather = (np.repeat(by_bounds[:-1][gather], new_sizes)
                           + (np.arange(nbytes, dtype=np.int64)
                              - np.repeat(new_cum[:-1], new_sizes)))
            new_blob = blob_all[byte_gather]
        else:
            new_blob = np.empty(0, dtype=np.uint8)
        pays = (new_sizes, new_blob)

    # compact the dictionary to terms that still have postings (a fully
    # masked term vanishes, like the reference's merged term dictionary)
    used = (np.asarray(uniques, dtype=object)[sc[term_post_offs[:-1]]]
            if len(sc) else np.empty(0, dtype=object))
    terms_tbl = encode_postings_table(used, term_post_offs, p_docs, freqs,
                                      poss, out_offs, offs=offs, pays=pays)
    keep_rows = (np.concatenate(keep_rows_parts) if keep_rows_parts
                 else np.empty(0, dtype=bool))
    all_keys = (np.concatenate([r.keys for r in readers])[keep_rows]
                if readers else np.empty(0, dtype=object))
    all_lens = (np.concatenate([r.doc_len for r in readers])[keep_rows]
                if readers else np.empty(0, dtype=np.int64))
    num_docs = int(len(all_keys))
    docmap_cols = {
        "doc_id": pa.array(np.arange(1, num_docs + 1, dtype=np.int64)),
        "key": pa.array(all_keys.tolist(), type=pa.string()),
        "doc_len": pa.array(all_lens, type=pa.int64()),
    }
    stats = {
        "num_docs": num_docs,
        "sum_doc_len": int(all_lens.sum()),
        "max_doc_len": int(all_lens.max()) if num_docs else 0,
        "num_terms": terms_tbl.num_rows,
    }
    # carry stored norm-feature columns through the merge: writers are
    # pure functions of doc_len (index/features.py), so each feature
    # recomputes over the merged lengths — which also makes HETEROGENEOUS
    # sets mergeable (merge_writer.cpp:1116-1174 merges any combination):
    # the merged segment declares the union of features, every doc gets
    # each feature's value (identical to what build would have written,
    # since the writer sees only doc_len).  An unregistered custom
    # feature must still fail loudly rather than silently vanish.
    # a previously-merged heterogeneous segment records the union under the
    # plural key only (the singular key is ambiguous there), so read the
    # plural first — otherwise re-merging such a segment would silently drop
    # every norm column, the exact outcome the loud-failure policy forbids
    _norm_set: set = set()
    for r in readers:
        plural = r.meta.get("norm_features")
        if plural:
            _norm_set.update(plural)
        elif r.meta.get("norm_feature"):
            _norm_set.add(r.meta["norm_feature"])
    norm_names = sorted(_norm_set)
    if norm_names:
        from iresearch_ray.index.features import get_norm_feature

        for name in norm_names:
            if name in docmap_cols:
                raise ValueError(
                    f"norm feature name {name!r} collides with a reserved "
                    "docmap column")
            try:
                fn = get_norm_feature(name)
            except KeyError:
                raise NotImplementedError(
                    f"cannot merge segments with unregistered norm feature "
                    f"{name!r}; register it in this process first") from None
            docmap_cols[name] = pa.array(fn(all_lens))
        # meta keeps the singular key when unambiguous (existing readers/
        # tools expect a string); the full union is always recorded
        if len(norm_names) == 1:
            stats["norm_feature"] = norm_names[0]
        stats["norm_features"] = norm_names
    docmap = pa.table(docmap_cols)

    # stored-field columnstore: concat per-segment tables (schema-promoted —
    # a segment lacking a column contributes nulls), purge masked rows,
    # re-assign dense doc ids
    columns_tbl = None
    if any(r.stored_columns for r in readers):
        parts = []
        for r, rows in zip(readers, keep_rows_parts):
            t = r.columns_table
            if t is None:
                t = pa.table({"doc_id": pa.array(
                    np.arange(1, r.num_docs + 1, dtype=np.int64))})
            parts.append(t.filter(pa.array(rows)))
        columns_tbl = pa.concat_tables(parts, promote_options="default")
        columns_tbl = columns_tbl.drop_columns(["doc_id"]).add_column(
            0, "doc_id", pa.array(np.arange(1, num_docs + 1, dtype=np.int64)))
        stats["stored_columns"] = [c for c in columns_tbl.column_names
                                   if c != "doc_id"]
    return terms_tbl, docmap, stats, columns_tbl


def merge_run(index_dir: str, segment_ids: list[str], out_id: str,
              mask_files: dict[str, str] | None = None) -> dict:
    """Merge one adjacent run of segments into `out_id` (idempotent).

    ``mask_files``: segment_id -> docmask parquet name (from the manifest);
    masked docs are purged during the merge."""
    from iresearch_ray import FORMAT_VERSION

    mask_files = mask_files or {}
    lineage_key = [sid + (":" + mask_files[sid] if mask_files.get(sid) else "")
                   for sid in segment_ids]
    out_meta_path = os.path.join(index_dir, out_id, META_FILE)
    if os.path.exists(out_meta_path):
        with open(out_meta_path) as f:
            meta = json.load(f)
        if meta.get("lineage", {}).get("merged_from") == lineage_key:
            meta["_skipped"] = True
            return meta
    t0 = time.monotonic()
    readers = [SegmentReader(os.path.join(index_dir, sid)) for sid in segment_ids]
    masks = []
    for sid in segment_ids:
        name = mask_files.get(sid)
        if name:
            t = pq.read_table(os.path.join(index_dir, sid, name))
            masks.append(t["deleted_doc"].to_numpy().astype(np.int64))
        else:
            masks.append(None)
    terms_tbl, docmap, stats, columns_tbl = merge_segment_tables(readers, masks)
    # transitive leaf lineage: resolvable even after intermediate merged
    # segments are purged (directory cleaner)
    leaves: list[str] = []
    for r in readers:
        prior = r.meta.get("lineage", {}).get("source_leaves")
        leaves.extend(prior if prior else [r.segment_id])
    meta = {
        "format_version": FORMAT_VERSION,
        # preserve the operator's chosen storage format across merges
        # (write_segment_dir would otherwise re-encode in default 1_0)
        "format": readers[0].meta.get("format", "1_0"),
        "segment_id": out_id,
        # features derive from the merged table itself (offs/pay streams
        # carry through the doc-id remap like positions)
        "index_features": sorted(
            {"pos"}
            | ({"offs"} if "offs_start_blob" in terms_tbl.column_names else set())
            | ({"pay"} if "pay_blob" in terms_tbl.column_names else set())),
        **stats,
        "analyzer": readers[0].meta.get("analyzer", {}),
        "analyzer_hash": readers[0].meta.get("analyzer_hash", ""),
        "lineage": {"merged_from": lineage_key,
                    "source_leaves": sorted(set(leaves))},
        "counters": {
            "docs_tokenized": 0,  # merge re-tokenizes nothing
            "tokens_emitted": 0,
            "docs_merged": stats["num_docs"],
        },
    }
    write_segment_dir(index_dir, out_id, terms_tbl, docmap, meta,
                      columns_tbl)
    meta["_skipped"] = False
    meta["_wall_s"] = time.monotonic() - t0
    return meta


def plan_consolidation(segments: list[dict], target_docs: int,
                       min_run: int = 2, max_run: int = 10) -> list[list[str]]:
    """Greedy tier policy over ADJACENT segments (after consolidate_tier,
    reference core/utils/index_utils.hpp:84-90): group consecutive segments
    while combined docs stay under target."""
    runs: list[list[str]] = []
    cur: list[str] = []
    cur_docs = 0
    for s in segments:
        if cur and (cur_docs + s["num_docs"] > target_docs or len(cur) >= max_run):
            if len(cur) >= min_run:
                runs.append(cur)
            cur, cur_docs = [], 0
        cur.append(s["segment_id"])
        cur_docs += s["num_docs"]
    if len(cur) >= min_run:
        runs.append(cur)
    return runs


def consolidate(index_dir: str, target_docs: int, generation: int | None = None,
                min_run: int = 2, max_run: int = 10) -> dict:
    """Run tiered consolidation as parallel Ray tasks; commit new manifest."""
    import ray
    import ray.data

    man = manifest_mod.load(index_dir, generation)
    runs = plan_consolidation(man["segments"], target_docs, min_run, max_run)
    if not runs:
        return man
    gen = man["generation"] + 1
    mask_files = {s["segment_id"]: s["docmask"]
                  for s in man["segments"] if s.get("docmask")}
    jobs = [{"out_id": f"seg-m{gen}-{i:04d}", "ids": json.dumps(run)}
            for i, run in enumerate(runs)]

    # merge runs are few and heavy -> one Ray task per run (the Dataset API
    # adds nothing over direct tasks for a handful of opaque directory jobs)
    @ray.remote(num_cpus=1)
    def _task(out_id, ids_json, masks_json):
        return merge_run(index_dir, json.loads(ids_json), out_id,
                         json.loads(masks_json))

    masks_json = json.dumps(mask_files)
    metas = ray.get([_task.remote(j["out_id"], j["ids"], masks_json)
                     for j in jobs])
    merged_first = {run[0]: (jobs[i]["out_id"], metas[i]) for i, run in enumerate(runs)}
    merged_members = {sid for run in runs for sid in run}

    new_segments = []
    for s in man["segments"]:
        sid = s["segment_id"]
        if sid in merged_first:
            out_id, meta = merged_first[sid]
            new_segments.append({"segment_id": out_id, "num_docs": meta["num_docs"],
                                 "sum_doc_len": meta["sum_doc_len"],
                                 "num_terms": meta["num_terms"]})
        elif sid in merged_members:
            continue  # covered by its run's merged segment
        else:
            new_segments.append(s)
    return manifest_mod.commit(index_dir, new_segments, generation=gen,
                               extra={"consolidated_runs": runs})
