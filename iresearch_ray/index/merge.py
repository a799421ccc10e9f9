"""Tiered segment consolidation: k-way merge of adjacent segments.

The analogue of the reference's consolidation path (`merge_writer` k-way
merge with doc-id remap, /root/reference/core/index/merge_writer.cpp:
207-307,1116-1174; tier policy core/utils/index_utils.hpp:36-90), built as
a byte splice of the inputs' postings:

- only ADJACENT runs merge, in manifest order, so the doc-id remap
  (merge_writer.hpp:46-50) is a pure add of each input's base: a merged
  posting list is its inputs' lists concatenated in input order;
- term order comes from one stable sort of the inputs' term rows;
- every occurrence-aligned stream (freqs, positions, OFFS, PAY) is a byte
  concatenation — their deltas reset at every posting, so no position is
  ever decoded; in the doc stream only the first delta of each input's
  slice changes;
- per-posting byte extents come from terminal-byte scans (a LEB128 value
  ends at its one byte < 0x80), and the shared ``encode_postings_table``
  derives the skip rows from them;
- a masked input first drops its deleted postings as byte ranges and
  re-encodes only its surviving doc deltas.

Global doc order (segment_base + local id) is therefore stable across
generations — rank-identical top-k before and after consolidation.  Each
run is one Ray task; ``consolidate`` then commits a new manifest
generation (MVCC: readers of the old generation are unaffected).
"""

from __future__ import annotations

import json
import os
import time

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from iresearch_ray.index import codec
from iresearch_ray.index import manifest as manifest_mod
from iresearch_ray.index.delete import load_mask
from iresearch_ray.index.segment import (
    BLOB_COLUMNS,
    DOCMAP_FILE,
    META_FILE,
    OFFS_COLUMNS,
    PAY_COLUMNS,
    SegmentReader,
    _binary_array,
    encode_postings_table,
    write_segment_dir,
)


def _offsets(sizes: np.ndarray) -> np.ndarray:
    """Exclusive cumsum: start offsets of consecutive pieces (len n + 1)."""
    out = np.zeros(len(sizes) + 1, dtype=np.int64)
    np.cumsum(sizes, out=out[1:])
    return out


def _array_bytes(arr: pa.Array) -> tuple[np.ndarray, np.ndarray]:
    """(data bytes, row byte offsets rebased to 0) of a large_binary array."""
    bufs = arr.buffers()
    offs = np.frombuffer(bufs[1], dtype=np.int64)[arr.offset:
                                                   arr.offset + len(arr) + 1]
    data = (np.frombuffer(bufs[2], dtype=np.uint8)[offs[0]:offs[-1]]
            if bufs[2] is not None else np.empty(0, dtype=np.uint8))
    return data, offs - offs[0]


def decode_segment_full(reader: SegmentReader) -> dict:
    """Read one merge input: its term rows, doc ids and freqs decoded, and
    the byte extent of every posting in every blob column.

    Returns ``terms`` (the Arrow term column), ``df``, ``term_post_offs``
    (len n_terms+1), per posting (term-major) ``docs`` (local, 1-based)
    and ``freqs``, the docmap's ``keys`` (Arrow) and ``doc_len``, and
    ``streams``: blob column -> (bytes, byte offset of each posting, len
    n_postings+1).  Only doc ids, freqs and payload sizes are decoded;
    positions and OFFS values never are.  Raises ValueError naming the
    segment and column when a blob's value count or term slices disagree
    with the dictionary's df / ttf.
    """
    sid = reader.segment_id
    df = reader.df_array().astype(np.int64)
    term_post_offs = _offsets(df)
    n_post = int(term_post_offs[-1])
    n_occ = int(reader.terms_table["ttf"].to_numpy().sum())

    def fail(name, what, got, want):
        raise ValueError(f"segment {sid!r} column {name!r}: {what} {got}, "
                         f"expected {want}; the segment is corrupt")

    def stream(name, n_values, last=None, sizes=None):
        """(bytes, per-posting byte offsets) of one blob column holding
        one value per posting, or per occurrence when ``last`` gives each
        posting's last value; a value ends at its terminal byte, or spans
        ``sizes`` bytes (``pay_blob``)."""
        data, row_offs = _array_bytes(
            reader.terms_column(name).combine_chunks())
        if sizes is not None:
            ends = np.cumsum(sizes)
            n_bytes = int(ends[-1]) if n_values else 0
            if len(data) != n_bytes:
                fail(name, "byte count", len(data), n_bytes)
        elif len(data) == n_values and not (data >= 0x80).any():
            ends = np.arange(1, n_values + 1)  # one byte per value
        else:
            ends = np.flatnonzero(data < 0x80) + 1
            if len(ends) != n_values:
                fail(name, "varint count", len(ends), n_values)
        at = np.zeros(n_post + 1, dtype=np.int64)
        at[1:] = ends if last is None else ends[last]
        bad = np.flatnonzero(at[term_post_offs] != row_offs)
        if len(bad):
            fail(name, f"byte offset of term row {bad[0]}",
                 int(row_offs[bad[0]]), int(at[term_post_offs][bad[0]]))
        return data, at

    streams = {"doc_blob": stream("doc_blob", n_post),
               "freq_blob": stream("freq_blob", n_post)}
    glob = np.cumsum(codec.varint_decode(streams["doc_blob"][0]).astype(np.int64))
    prior = np.r_[0, glob][term_post_offs[:-1]]
    docs = glob - np.repeat(prior, df)
    if len(docs) and (docs.min() < 1 or docs.max() > reader.num_docs):
        fail("doc_blob", "doc id range", (int(docs.min()), int(docs.max())),
             (1, reader.num_docs))
    freqs = codec.varint_decode(streams["freq_blob"][0]).astype(np.int64)
    last = np.cumsum(freqs) - 1  # each posting's last occurrence
    if len(freqs) and (freqs.min() < 1 or last[-1] + 1 != n_occ):
        fail("freq_blob", "(min freq, occurrences)",
             (int(freqs.min()), int(last[-1] + 1)), (1, n_occ))
    occurrence = ["pos_blob"]
    if reader.has_offsets:
        occurrence += OFFS_COLUMNS
    if reader.has_payloads:
        occurrence.append("pay_size_blob")
    for name in occurrence:
        streams[name] = stream(name, n_occ, last)
    if reader.has_payloads:
        sizes = codec.varint_decode(streams["pay_size_blob"][0]).astype(np.int64)
        streams["pay_blob"] = stream("pay_blob", n_occ, last, sizes)
    dm = pq.read_table(os.path.join(reader.dir, DOCMAP_FILE),
                       columns=["key", "doc_len"])
    if dm.num_rows != reader.num_docs:
        fail("key", "docmap rows", dm.num_rows, reader.num_docs)
    return {"terms": reader.terms_table["term"].combine_chunks(), "df": df,
            "term_post_offs": term_post_offs, "docs": docs, "freqs": freqs,
            "keys": dm["key"].combine_chunks(),
            "doc_len": dm["doc_len"].to_numpy(), "streams": streams}


def _drop_deleted(d: dict, deleted: np.ndarray) -> dict:
    """``d`` without the postings of the sorted ``deleted`` local doc ids:
    every blob loses those postings' byte ranges, surviving doc ids close
    the gaps (the reference merge_writer's doc_map, merge_writer.cpp:
    207-307) and only their doc deltas are re-encoded.  A term left
    without postings keeps its row with df 0."""
    docs = d["docs"]
    at = np.searchsorted(deleted, docs)
    keep = ~((at < len(deleted))
             & (deleted[np.minimum(at, len(deleted) - 1)] == docs))
    term_post_offs = _offsets(keep)[d["term_post_offs"]]
    docs = docs[keep] - at[keep]
    streams = {"doc_blob": codec.varint_encode_offsets(
        codec.delta_encode(docs, term_post_offs))}
    for name, (blob, offs) in d["streams"].items():
        if name != "doc_blob":
            sizes = np.diff(offs)
            streams[name] = (blob[np.repeat(keep, sizes)],
                             _offsets(sizes[keep]))
    return {**d, "df": np.diff(term_post_offs),
            "term_post_offs": term_post_offs, "docs": docs,
            "freqs": d["freqs"][keep], "streams": streams}


def _absent_stream(d: dict, name: str) -> tuple[np.ndarray, np.ndarray]:
    """Stream ``name`` for an input built without its feature: an empty
    entry per occurrence — varint 0 (zero-width offset, zero-byte payload)
    in the varint columns, nothing in ``pay_blob``."""
    runs = _offsets(d["freqs"])
    if name == "pay_blob":
        return np.empty(0, dtype=np.uint8), np.zeros_like(runs)
    return np.zeros(runs[-1], dtype=np.uint8), runs


def _head_cuts(offs: np.ndarray, term_post_offs: np.ndarray) -> np.ndarray:
    """Byte offsets splitting every term row in two: its first posting's
    value, then the rest (a row without postings gives two empty
    pieces)."""
    starts = term_post_offs[:-1]
    cuts = np.empty(2 * len(starts) + 1, dtype=np.int64)
    cuts[0:-1:2] = offs[starts]
    cuts[1::2] = offs[np.minimum(starts + 1, term_post_offs[1:])]
    cuts[-1] = offs[term_post_offs[-1]]
    return cuts


def merge_segment_tables(readers: list[SegmentReader],
                         masks: list[np.ndarray | None] | None = None,
                         ) -> tuple[pa.Table, pa.Table, dict, pa.Table | None]:
    """Merge K segments (in order) into one; returns (terms, docmap, stats,
    stored columns or None).

    ``masks[i]``: sorted deleted local doc ids (1-based) for reader i — those
    docs are physically purged and surviving doc ids densely remapped, like
    the reference merge_writer's doc_map (merge_writer.cpp:207-307)."""
    if masks is None:
        masks = [None] * len(readers)
    inputs, keep_rows_parts = [], []
    for r, m in zip(readers, masks):
        d = decode_segment_full(r)
        kept = np.ones(r.num_docs, dtype=bool)
        if m is not None and len(m):
            kept[m - 1] = False
            d = _drop_deleted(d, m)
        inputs.append(d)
        keep_rows_parts.append(kept)
    kept_counts = [r.num_docs - (len(m) if m is not None else 0)
                   for r, m in zip(readers, masks)]
    bases = _offsets(kept_counts)[:-1]
    post_bases = _offsets([len(d["docs"]) for d in inputs])[:-1]

    # merged order of the term rows: by term, then input (a stable sort of
    # the input-major rows); a row left without postings by a mask drops
    terms = pa.concat_arrays([d["terms"] for d in inputs])
    row_df = np.concatenate([d["df"] for d in inputs])
    live = np.flatnonzero(row_df > 0)
    rows = live[pc.sort_indices(terms.take(live)).to_numpy()]
    row_terms = terms.take(rows)
    new_term = np.ones(len(rows), dtype=bool)
    if len(rows) > 1:
        new_term[1:] = pc.not_equal(row_terms[1:], row_terms[:-1]).to_numpy(
            zero_copy_only=False)
    # each row's postings, gathered into merged order
    row_df = row_df[rows]
    row_offs = _offsets(row_df)
    row_start = np.concatenate([d["term_post_offs"][:-1] + b
                                for d, b in zip(inputs, post_bases)])[rows]
    gather = (np.repeat(row_start - row_offs[:-1], row_df)
              + np.arange(row_offs[-1], dtype=np.int64))
    p_docs = np.concatenate([d["docs"] + b
                             for d, b in zip(inputs, bases)])[gather]
    freqs = np.concatenate([d["freqs"] for d in inputs])[gather]
    term_post_offs = np.r_[row_offs[:-1][new_term], row_offs[-1]]

    # blob columns: each row's byte slice, concatenated in merged order.
    # MIXED feature sets merge like the reference (merge_writer.cpp:
    # 1116-1174 merges any segment combination): the merged segment
    # declares the union of features and an input lacking a stream
    # contributes empty entries
    names = list(BLOB_COLUMNS)
    for group in (OFFS_COLUMNS, PAY_COLUMNS):
        if any(group[0] in d["streams"] for d in inputs):
            names += group
    # a row's first doc delta counts from 0 in its input; merged, it
    # follows the previous row's last doc of the same term, so doc_blob
    # rows are cut after their first value and get a new one
    heads = row_offs[:-1]
    prev_last = np.zeros(len(rows), dtype=np.int64)
    prev_last[1:] = p_docs[heads[1:] - 1]
    prev_last[new_term] = 0
    firsts, first_offs = codec.varint_encode_offsets(p_docs[heads] - prev_last)
    streams = {}
    for name in names:
        parts = [d["streams"][name] if name in d["streams"]
                 else _absent_stream(d, name) for d in inputs]
        sizes = np.concatenate([np.diff(offs) for _, offs in parts])[gather]
        if name == "doc_blob":
            pieces = [_binary_array(blob, _head_cuts(offs, d["term_post_offs"]))
                      for (blob, offs), d in zip(parts, inputs)]
            pieces.append(_binary_array(firsts, first_offs))
            # piece order: new first value, then the rest, per merged row
            order = np.column_stack((2 * len(terms) + np.arange(len(rows)),
                                     2 * rows + 1)).ravel()
            sizes[heads] = np.diff(first_offs)
        else:
            pieces = [_binary_array(blob, offs[d["term_post_offs"]])
                      for (blob, offs), d in zip(parts, inputs)]
            order = rows
        sliced = pa.concat_arrays(pieces).take(pa.array(order))
        streams[name] = (_array_bytes(sliced)[0], _offsets(sizes))

    terms_tbl = encode_postings_table(row_terms.filter(pa.array(new_term)),
                                      term_post_offs, p_docs, freqs,
                                      streams=streams)
    keep_rows = np.concatenate(keep_rows_parts)
    all_lens = np.concatenate([d["doc_len"] for d in inputs])[keep_rows]
    num_docs = int(len(all_lens))
    docmap_cols = {
        "doc_id": pa.array(np.arange(1, num_docs + 1, dtype=np.int64)),
        "key": pa.concat_arrays([d["keys"] for d in inputs]).filter(
            pa.array(keep_rows)),
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
    masks = [load_mask(index_dir, {"segment_id": sid,
                                   "docmask": mask_files.get(sid)})
             for sid in segment_ids]
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
        # (write_segment_dir would otherwise write default 1_0)
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
