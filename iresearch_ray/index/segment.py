"""Immutable index segments: vectorized invert, Parquet artifacts, readers.

A segment mirrors the reference's self-contained segment (term dictionary +
postings + per-doc norms + docmap — see /root/reference/core/index/
segment_writer.hpp and core/formats/formats_10.cpp) re-expressed as three
Parquet/JSON artifacts:

- ``terms.parquet``   term-sorted dictionary; per term: df, ttf, max_freq,
  varint blobs (docs/freqs/positions) and per-128-block skip arrays
  (last_doc, max_freq, byte offsets) for lists longer than one block.
- ``docmap.parquet``  segment-local doc_id (1-based, dense, insertion order —
  reference core/index/segment_writer.hpp:282) -> key (url) + doc_len.
- ``segment.json``    stats + lineage + counters (resume / checkpoint unit).

Inversion is whole-segment vectorized: one factorize + one lexsort over all
token occurrences — the numpy equivalent of the reference's per-thread
postings hash (core/index/postings.hpp:74-126), with terms flushed in byte
order exactly like core/index/postings.cpp:36.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import dataclass, field

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

from iresearch_ray import FORMAT_VERSION
from iresearch_ray.index import codec
from iresearch_ray.util import nul_safe_factorize

TERMS_FILE = "terms.parquet"
# fuzzy/wildcard char-matrix row cap: one mega-token must not allocate
# n_terms x its length (see SegmentReader.term_chars); far above any
# realistic fuzzy query length (reference/Lucene cap terms near 255)
TERM_CHARS_MAX_WIDTH = 512
DOCMAP_FILE = "docmap.parquet"
COLUMNS_FILE = "columns.parquet"  # stored-field columnstore (optional)
META_FILE = "segment.json"


def _cache_entry_size(entry) -> int:
    """Element count of one postings-LRU entry (tuple of decoded arrays,
    an occurrence-key array, a skips dict, an expansion match-row array,
    or None).  Every entry counts at least 1 so zero-length artifacts
    (empty match sets, skip-less terms) still age out instead of
    accumulating key overhead forever."""
    if entry is None:
        return 1
    if isinstance(entry, np.ndarray):
        return max(len(entry), 1)
    if isinstance(entry, dict):
        return max(sum(len(v) for v in entry.values()), 1)
    return max(sum(len(a) for a in entry if isinstance(a, np.ndarray)), 1)


def _binary_array(blob: np.ndarray, byte_offsets: np.ndarray) -> pa.Array:
    """Zero-copy large_binary array from one blob + per-row byte offsets."""
    return pa.Array.from_buffers(
        pa.large_binary(), len(byte_offsets) - 1,
        [None, pa.py_buffer(np.ascontiguousarray(byte_offsets, dtype=np.int64)),
         pa.py_buffer(np.ascontiguousarray(blob, dtype=np.uint8))])


def _large_list_array(values: np.ndarray, offsets: np.ndarray) -> pa.Array:
    """Zero-copy large_list<int64> from flat values + per-row value offsets."""
    child = pa.array(np.ascontiguousarray(values, dtype=np.int64), type=pa.int64())
    return pa.LargeListArray.from_arrays(
        pa.array(np.ascontiguousarray(offsets, dtype=np.int64), type=pa.int64()), child)


def _np_keys(keys) -> np.ndarray:
    """Doc-key list -> ndarray WITHOUT numpy's fixed-width string dtypes:
    a '<U' array strips trailing NULs on .tolist() ('x\\x00' -> 'x'),
    silently colliding distinct keys — the NUL-key class the factorize
    sweep protects terms against.  Numeric keys stay zero-copy."""
    a = np.asarray(keys)
    if a.dtype.kind in "US":
        a = np.asarray(keys, dtype=object)
    return a


def prefix_upper_bound(prefix: str) -> str | None:
    """Smallest string greater than EVERY string with this prefix —
    the exclusive upper bound for a sorted-dictionary prefix scan.
    ``prefix + '\\U0010FFFF'`` is NOT it: a term like
    ``prefix + '\\U0010FFFF' + 'x'`` sorts after that sentinel and a
    prefix query would miss it.  Increment the last incrementable code
    point instead; ``None`` = unbounded (prefix is all U+10FFFF)."""
    for i in range(len(prefix) - 1, -1, -1):
        c = ord(prefix[i])
        if c < 0x10FFFF:
            return prefix[:i] + chr(c + 1)
    return None


def analyzer_config_hash(config: dict) -> str:
    return hashlib.sha256(json.dumps(config, sort_keys=True).encode()).hexdigest()[:16]


@dataclass
class SegmentWriter:
    """Accumulates tokenized batches for ONE segment, then flushes artifacts.

    Bounded like the reference's segment buffer (segment_memory_max,
    index_writer.hpp:359-376): the caller sizes a segment via its input row
    range; accumulation is flat int32/int64 arrays, ~20 bytes/token.
    """

    segment_id: str
    analyzer_config: dict
    lineage: dict = field(default_factory=dict)
    fmt: str = "1_0"  # registered storage format (index/formats.py)
    norm_feature: str | None = None  # extra docmap column (index/features.py)

    def __post_init__(self):
        self._term_chunks: list[np.ndarray] = []
        self._code_chunks: list[np.ndarray] = []   # coded fast path
        self._dict_chunks: list[np.ndarray] = []
        self._doc_chunks: list[np.ndarray] = []
        self._pos_chunks: list[np.ndarray] = []
        self._off_start_chunks: list[np.ndarray] = []  # OFFS feature
        self._off_end_chunks: list[np.ndarray] = []
        self._payload_chunks: list[np.ndarray] = []  # PAY feature
        self._doc_len_chunks: list[np.ndarray] = []
        self._key_chunks: list = []
        self._stored_chunks: list[pa.Table] = []  # columnstore (STORE action)
        self._num_docs = 0

    def add_stored(self, tbl: pa.Table) -> None:
        """Stored-field values for the batch just added (reference STORE
        action, segment_writer.hpp:47-61): verbatim columns, row-aligned
        with the batch's docs; nulls mean 'doc has no such field'."""
        self._stored_chunks.append(tbl)

    @property
    def num_docs(self) -> int:
        return self._num_docs

    def add_batch(self, flat: dict, keys) -> None:
        """Add one tokenized batch (from analysis.flatten_batch) + doc keys."""
        if self._code_chunks:
            raise ValueError("cannot mix coded and object batches")
        n = len(flat["doc_len"])
        # densely assign 1-based segment-local doc ids in insertion order
        self._term_chunks.append(flat["terms"])
        self._doc_chunks.append(flat["doc_idx"] + (self._num_docs + 1))
        self._pos_chunks.append(flat["position"])
        if "start" in flat:  # OFFS feature: per-occurrence char offsets
            self._off_start_chunks.append(flat["start"])
            self._off_end_chunks.append(flat["end"])
        if "payload" in flat:  # PAY feature: per-occurrence bytes
            self._payload_chunks.append(flat["payload"])
        self._doc_len_chunks.append(flat["doc_len"])
        self._key_chunks.append(_np_keys(keys))
        self._num_docs += n

    def add_batch_coded(self, flat: dict, keys) -> None:
        """Add one CODED batch (from analysis.flatten_batch_arrow) + keys.

        Stores int codes + the batch's small term dictionary — no per-token
        Python objects; the cross-batch dictionary merge happens at flush.
        """
        if self._term_chunks:
            raise ValueError("cannot mix coded and object batches")
        n = len(flat["doc_len"])
        self._code_chunks.append(flat["codes"])
        self._dict_chunks.append(flat["dict"])
        self._doc_chunks.append(flat["doc_idx"] + (self._num_docs + 1))
        self._pos_chunks.append(flat["position"])
        self._doc_len_chunks.append(flat["doc_len"])
        self._key_chunks.append(_np_keys(keys))
        self._num_docs += n

    def flush(self, out_dir: str) -> dict:
        """Invert + encode + atomically write artifacts; return segment meta."""
        docs = (np.concatenate(self._doc_chunks) if self._doc_chunks
                else np.empty(0, dtype=np.int64))
        poss = (np.concatenate(self._pos_chunks) if self._pos_chunks
                else np.empty(0, dtype=np.int64))
        doc_lens = (np.concatenate(self._doc_len_chunks) if self._doc_len_chunks
                    else np.empty(0, dtype=np.int64))
        keys = (np.concatenate(self._key_chunks) if self._key_chunks
                else np.empty(0, dtype=object))

        if self._code_chunks:
            # merge per-batch dictionaries (small) -> global sorted ranks,
            # then remap each batch's codes through its slice of the mapping
            all_dicts = np.concatenate(self._dict_chunks)
            g_codes, uniques = nul_safe_factorize(all_dicts, sort=True)
            remapped = []
            off = 0
            for codes, d in zip(self._code_chunks, self._dict_chunks):
                remapped.append(g_codes[off + codes])
                off += len(d)
            codes = (np.concatenate(remapped) if remapped
                     else np.empty(0, dtype=np.int64))
            n_tokens = len(codes)
            table = invert_coded(codes, np.asarray(uniques, dtype=object),
                                 docs, poss)
        else:
            terms = (np.concatenate(self._term_chunks) if self._term_chunks
                     else np.empty(0, dtype=object))
            n_tokens = len(terms)
            offs = None
            if self._off_start_chunks:
                offs = (np.concatenate(self._off_start_chunks),
                        np.concatenate(self._off_end_chunks))
            pays = (np.concatenate(self._payload_chunks)
                    if self._payload_chunks else None)
            table = invert_to_table(terms, docs, poss, offs=offs, pays=pays)
        meta = {
            "format_version": FORMAT_VERSION,
            "format": self.fmt,
            "segment_id": self.segment_id,
            "index_features": sorted(
                {"pos"} | ({"offs"} if self._off_start_chunks else set())
                | ({"pay"} if self._payload_chunks else set())),
            "num_docs": int(self._num_docs),
            "sum_doc_len": int(doc_lens.sum()),
            "max_doc_len": int(doc_lens.max()) if len(doc_lens) else 0,
            "num_terms": table.num_rows,
            "analyzer": self.analyzer_config,
            "analyzer_hash": analyzer_config_hash(self.analyzer_config),
            "lineage": self.lineage,
            "counters": {"docs_tokenized": int(self._num_docs),
                         "tokens_emitted": int(n_tokens)},
        }
        docmap_cols = {
            "doc_id": pa.array(np.arange(1, self._num_docs + 1, dtype=np.int64)),
            "key": pa.array(keys.tolist(), type=pa.string()),
            "doc_len": pa.array(doc_lens, type=pa.int64()),
        }
        if self.norm_feature and self.norm_feature != "norm2":
            # norm2 IS doc_len (always stored); other features add a column
            from iresearch_ray.index.features import get_norm_feature

            if self.norm_feature in docmap_cols:
                raise ValueError(
                    f"norm feature name {self.norm_feature!r} collides "
                    "with a reserved docmap column")
            docmap_cols[self.norm_feature] = pa.array(
                get_norm_feature(self.norm_feature)(doc_lens))
            meta["norm_feature"] = self.norm_feature
        docmap = pa.table(docmap_cols)
        columns = None
        if self._stored_chunks:
            columns = pa.concat_tables(self._stored_chunks)
            assert columns.num_rows == self._num_docs, \
                (columns.num_rows, self._num_docs)
            columns = columns.add_column(
                0, "doc_id", pa.array(np.arange(1, self._num_docs + 1,
                                                dtype=np.int64)))
            meta["stored_columns"] = [c for c in columns.column_names
                                      if c != "doc_id"]
        write_segment_dir(out_dir, self.segment_id, table, docmap, meta,
                          columns)
        return meta


def invert_to_table(terms: np.ndarray, docs: np.ndarray, poss: np.ndarray,
                    offs: tuple[np.ndarray, np.ndarray] | None = None,
                    pays: np.ndarray | None = None) -> pa.Table:
    """Build the term-dictionary table from flat (term, doc, position) rows.

    One factorize + one stable sort; postings ordered by (term bytes, doc id,
    position) — the doc-order invariant the reference enforces
    (formats_10.cpp:823-828).  ``offs``: optional (start, end) char-offset
    arrays aligned with occurrences (the OFFS index feature).
    """
    codes, uniques = nul_safe_factorize(terms, sort=True)
    return invert_coded(codes, np.asarray(uniques, dtype=object), docs, poss,
                        offs=offs, pays=pays)


def invert_coded(codes: np.ndarray, sorted_uniques: np.ndarray,
                 docs: np.ndarray, poss: np.ndarray,
                 offs: tuple[np.ndarray, np.ndarray] | None = None,
                 pays: np.ndarray | None = None) -> pa.Table:
    """Invert from pre-coded occurrences (codes are ranks into the SORTED
    unique-term array) — the zero-object fast path's entry point."""
    uniques = sorted_uniques
    # one stable sort of one packed int64 key instead of a 3-array lexsort
    # (~1.5x): positions arrive ascending within each doc (tokens are
    # generated in document order), so stability alone keeps them sorted
    # inside every (term, doc) run
    if len(docs):
        stride = np.int64(docs.max()) + 1
        if int(codes.max() if len(codes) else 0) < (1 << 62) // int(stride):
            key = codes.astype(np.int64) * stride + docs
            order = np.argsort(key, kind="stable")
        else:  # overflow-safe fallback
            order = np.lexsort((poss, docs, codes))
    else:
        order = np.lexsort((poss, docs, codes))
    codes, docs, poss = codes[order], docs[order], poss[order]
    if offs is not None:
        offs = (offs[0][order], offs[1][order])
    if pays is not None:
        pays = pays[order]

    # posting (term,doc) run boundaries
    if len(codes):
        new_posting = np.empty(len(codes), dtype=bool)
        new_posting[0] = True
        new_posting[1:] = (codes[1:] != codes[:-1]) | (docs[1:] != docs[:-1])
        p_starts = np.flatnonzero(new_posting)
        freqs = np.diff(np.r_[p_starts, len(codes)])
        p_docs = docs[p_starts]
        p_codes = codes[p_starts]
        new_term = np.empty(len(p_codes), dtype=bool)
        new_term[0] = True
        new_term[1:] = p_codes[1:] != p_codes[:-1]
        t_starts = np.flatnonzero(new_term)           # into posting arrays
    else:
        p_starts = np.empty(0, dtype=np.int64)
        freqs = np.empty(0, dtype=np.int64)
        p_docs = np.empty(0, dtype=np.int64)
        t_starts = np.empty(0, dtype=np.int64)

    term_post_offs = np.r_[t_starts, len(p_docs)].astype(np.int64)   # len n_terms+1
    return encode_postings_table(np.asarray(uniques, dtype=object), term_post_offs,
                                 p_docs, freqs, poss, np.r_[p_starts, len(codes)],
                                 offs=offs, pays=pays)


def encode_postings_table(uniques: np.ndarray, term_post_offs: np.ndarray,
                          p_docs: np.ndarray, freqs: np.ndarray,
                          poss: np.ndarray,
                          posting_offs_in_tokens: np.ndarray,
                          offs: tuple[np.ndarray, np.ndarray] | None = None,
                          pays: "np.ndarray | tuple | None" = None) -> pa.Table:
    """Encode already-inverted postings into the terms.parquet schema.

    Inputs: sorted unique terms; per-term posting offsets (len n_terms+1);
    concatenated per-posting (doc, freq); concatenated position occurrences
    with per-posting run offsets (len n_postings+1).  Shared by the segment
    flush and the k-way segment merge (which produces already-inverted runs).
    """
    n_terms = len(uniques)
    t_starts = term_post_offs[:-1]
    df = np.diff(term_post_offs)
    if len(freqs) and (df == 0).any():
        # reduceat can't handle empty groups (and raises an opaque
        # IndexError when the LAST group is empty — check FIRST so the
        # named diagnostic always wins); merge never produces them
        raise ValueError("empty posting list for a dictionary term")
    ttf = (np.add.reduceat(freqs, t_starts) if len(freqs)
           else np.empty(0, dtype=np.int64))
    if n_terms and len(freqs) == 0:
        ttf = np.zeros(n_terms, dtype=np.int64)
    max_freq = (codec.block_max_reduce(freqs, term_post_offs)
                if len(freqs) else np.empty(0, dtype=np.int64))
    if n_terms and len(freqs) == 0:
        max_freq = np.zeros(n_terms, dtype=np.int64)
    blocks_per_term = (df + codec.BLOCK - 1) // codec.BLOCK

    # ---- per-term 128-posting block boundaries (in posting index space) ----
    blk_term = np.repeat(np.arange(n_terms, dtype=np.int64), blocks_per_term)
    if len(blk_term):
        blk_ord = np.arange(len(blk_term), dtype=np.int64)
        blk_first = np.zeros(n_terms, dtype=np.int64)
        np.cumsum(blocks_per_term[:-1], out=blk_first[1:])
        blk_local = blk_ord - blk_first[blk_term]
        blk_start = term_post_offs[blk_term] + blk_local * codec.BLOCK
        blk_end = np.minimum(blk_start + codec.BLOCK, term_post_offs[blk_term + 1])
    else:
        blk_start = np.empty(0, dtype=np.int64)
        blk_end = np.empty(0, dtype=np.int64)
    blk_bounds = np.r_[blk_start, len(p_docs)].astype(np.int64)  # reduceat-style starts

    # ---- encode doc deltas + freqs, offsets at both term and block grain ----
    deltas = codec.delta_encode(p_docs, term_post_offs)
    doc_nb = codec.varint_nbytes(deltas)
    doc_cum = np.zeros(len(deltas) + 1, dtype=np.int64)
    np.cumsum(doc_nb, out=doc_cum[1:])
    doc_blob = codec.varint_encode(deltas)

    freq_nb = codec.varint_nbytes(freqs)
    freq_cum = np.zeros(len(freqs) + 1, dtype=np.int64)
    np.cumsum(freq_nb, out=freq_cum[1:])
    freq_blob = codec.varint_encode(freqs)

    # ---- positions: delta per posting run; byte offsets per posting ----
    posting_offs_in_tokens = np.asarray(posting_offs_in_tokens, dtype=np.int64)
    pos_deltas = codec.positions_delta_encode(poss, posting_offs_in_tokens)
    pos_nb = codec.varint_nbytes(pos_deltas)
    pos_cum = np.zeros(len(pos_deltas) + 1, dtype=np.int64)
    np.cumsum(pos_nb, out=pos_cum[1:])
    pos_blob = codec.varint_encode(pos_deltas)
    # byte offset of each POSTING's position run; term/block offsets index this
    posting_pos_off = pos_cum[posting_offs_in_tokens]

    # ---- skip arrays, only for terms with >1 block ----
    has_skip = blocks_per_term > 1
    skip_counts = np.where(has_skip, blocks_per_term, 0)
    skip_offs = np.zeros(n_terms + 1, dtype=np.int64)
    np.cumsum(skip_counts, out=skip_offs[1:])
    if len(blk_term):
        keep = has_skip[blk_term]
        k_start, k_end, k_term = blk_start[keep], blk_end[keep], blk_term[keep]
        skip_last_doc = p_docs[k_end - 1]
        skip_max_freq = np.maximum.reduceat(freqs, blk_bounds[:-1])[keep] if len(freqs) else k_start
        # offsets relative to the term's own blob slice
        skip_doc_off = doc_cum[k_start] - doc_cum[term_post_offs[k_term]]
        skip_freq_off = freq_cum[k_start] - freq_cum[term_post_offs[k_term]]
        skip_pos_off = posting_pos_off[k_start] - posting_pos_off[term_post_offs[k_term]]
        # position-count offset so a block seek knows how many position values precede
        freq_presum = np.zeros(len(freqs) + 1, dtype=np.int64)
        np.cumsum(freqs, out=freq_presum[1:])
        skip_pos_cnt = freq_presum[k_start] - freq_presum[term_post_offs[k_term]]
    else:
        skip_last_doc = skip_max_freq = skip_doc_off = skip_freq_off = skip_pos_off = skip_pos_cnt = np.empty(0, dtype=np.int64)

    term_doc_offs = doc_cum[term_post_offs]
    term_freq_offs = freq_cum[term_post_offs]
    term_pos_offs = posting_pos_off  # per-posting; per-term via term_post_offs
    term_pos_byte_offs = term_pos_offs[term_post_offs]

    cols = {
        "term": pa.array(uniques.tolist(), type=pa.string()),
        "df": pa.array(df, type=pa.int64()),
        "ttf": pa.array(ttf, type=pa.int64()),
        "max_freq": pa.array(max_freq, type=pa.int64()),
        "doc_blob": _binary_array(doc_blob, term_doc_offs),
        "freq_blob": _binary_array(freq_blob, term_freq_offs),
        "pos_blob": _binary_array(pos_blob, term_pos_byte_offs),
        "skip_last_doc": _large_list_array(skip_last_doc, skip_offs),
        "skip_max_freq": _large_list_array(skip_max_freq, skip_offs),
        "skip_doc_off": _large_list_array(skip_doc_off, skip_offs),
        "skip_freq_off": _large_list_array(skip_freq_off, skip_offs),
        "skip_pos_off": _large_list_array(skip_pos_off, skip_offs),
        "skip_pos_cnt": _large_list_array(skip_pos_cnt, skip_offs),
    }
    if offs is not None:
        # OFFS feature (reference .pay/offset stream, formats_10.cpp:
        # 345-353): per-occurrence char offsets, laid out exactly like
        # positions — starts delta-encoded per posting run, lengths
        # (end - start) as plain varints — so term-slice byte offsets
        # reuse the position bookkeeping shape
        starts, ends = offs
        os_deltas = codec.positions_delta_encode(starts, posting_offs_in_tokens)
        os_nb = codec.varint_nbytes(os_deltas)
        os_cum = np.zeros(len(os_deltas) + 1, dtype=np.int64)
        np.cumsum(os_nb, out=os_cum[1:])
        lens = (ends - starts).astype(np.int64)
        ln_nb = codec.varint_nbytes(lens)
        ln_cum = np.zeros(len(lens) + 1, dtype=np.int64)
        np.cumsum(ln_nb, out=ln_cum[1:])
        tok_offs = posting_offs_in_tokens[term_post_offs]
        cols["offs_start_blob"] = _binary_array(codec.varint_encode(os_deltas),
                                                os_cum[tok_offs])
        cols["offs_len_blob"] = _binary_array(codec.varint_encode(lens),
                                              ln_cum[tok_offs])
    if pays is not None:
        # PAY feature (reference formats_10.cpp .pay stream): raw payload
        # bytes concatenated in occurrence order + varint sizes, sliced
        # per term exactly like the position blobs.  Accepts either a
        # sequence of bytes objects (build path) or an already-flattened
        # (sizes, blob) pair (segment merge — avoids round-tripping every
        # occurrence through a Python bytes object)
        if isinstance(pays, tuple):
            sizes = np.asarray(pays[0], dtype=np.int64)
            blob = np.asarray(pays[1], dtype=np.uint8)
        else:
            sizes = np.fromiter((len(p) for p in pays), dtype=np.int64,
                                count=len(pays))
            blob = np.frombuffer(b"".join(pays), dtype=np.uint8) \
                if len(pays) else np.empty(0, dtype=np.uint8)
        sz_nb = codec.varint_nbytes(sizes)
        sz_cum = np.zeros(len(sizes) + 1, dtype=np.int64)
        np.cumsum(sz_nb, out=sz_cum[1:])
        by_cum = np.zeros(len(sizes) + 1, dtype=np.int64)
        np.cumsum(sizes, out=by_cum[1:])
        tok_offs = posting_offs_in_tokens[term_post_offs]
        cols["pay_size_blob"] = _binary_array(codec.varint_encode(sizes),
                                              sz_cum[tok_offs])
        cols["pay_blob"] = _binary_array(blob, by_cum[tok_offs])
    return pa.table(cols)


def write_segment_dir(index_dir: str, segment_id: str, terms: pa.Table,
                      docmap: pa.Table, meta: dict,
                      columns: pa.Table | None = None) -> str:
    """Atomically write a segment directory (tmp + rename — the reference's
    commit discipline, index_meta_writer formats_10.cpp:3518).  The
    registered format named by ``meta['format']`` (default 1_0) selects
    each artifact's compression codec."""
    from iresearch_ray.index.formats import get_format

    fmt = get_format(meta.get("format"))
    os.makedirs(index_dir, exist_ok=True)
    final = os.path.join(index_dir, segment_id)
    tmp = tempfile.mkdtemp(prefix=f".{segment_id}.", dir=index_dir)
    try:
        pq.write_table(terms, os.path.join(tmp, TERMS_FILE),
                       compression=fmt["terms"])
        pq.write_table(docmap, os.path.join(tmp, DOCMAP_FILE),
                       compression=fmt["docmap"])
        if columns is not None:
            pq.write_table(columns, os.path.join(tmp, COLUMNS_FILE),
                           compression=fmt["columns"])
        with open(os.path.join(tmp, META_FILE), "w") as f:
            json.dump(meta, f, indent=1)
        if os.path.isdir(final):
            # stale content from an older lineage (e.g. analyzer change):
            # move it ASIDE atomically instead of rmtree(final) —
            # rmtree->replace leaves a window where a reader sees NO
            # segment, and a concurrent duplicate writer's rmtree can
            # race FileNotFoundError / ENOTEMPTY.  os.replace onto the
            # trash name is atomic; duplicate attempts write identical
            # bytes (deterministic build), so last-wins stays safe.
            import shutil
            trash = tempfile.mkdtemp(dir=index_dir, prefix=".stale-")
            try:
                os.replace(final, os.path.join(trash, "old"))
            except FileNotFoundError:
                pass  # a concurrent duplicate already swapped it
            shutil.rmtree(trash, ignore_errors=True)
        os.replace(tmp, final)
    except BaseException:
        import shutil
        shutil.rmtree(tmp, ignore_errors=True)
        raise
    return final


class SegmentReader:
    """Lazy in-memory view of one segment's artifacts (query-side cache —
    the analogue of reference segment_reader, core/index/segment_reader.cpp:257)."""

    def __init__(self, seg_dir: str):
        self.dir = seg_dir
        with open(os.path.join(seg_dir, META_FILE)) as f:
            self.meta = json.load(f)
        self.segment_id = self.meta["segment_id"]
        self.num_docs = self.meta["num_docs"]
        self.sum_doc_len = self.meta["sum_doc_len"]
        self.max_doc_len = self.meta.get("max_doc_len", 1 << 30)
        self._terms_tbl: pa.Table | None = None
        self._terms_np: np.ndarray | None = None
        self._doc_len: np.ndarray | None = None
        self._keys: np.ndarray | None = None

    # -- lazy loads ---------------------------------------------------------
    @property
    def terms_table(self) -> pa.Table:
        if self._terms_tbl is None:
            self._terms_tbl = pq.read_table(os.path.join(self.dir, TERMS_FILE))
        return self._terms_tbl

    @property
    def terms(self) -> np.ndarray:
        if self._terms_np is None:
            self._terms_np = np.asarray(self.terms_table["term"].to_pylist(), dtype=object)
        return self._terms_np

    @property
    def term_chars(self):
        """(char_matrix int32 [n_terms x max_len], term_lens int64) — cached
        vectorized views of the dictionary for automaton/fuzzy matching
        (the query-side per-segment state the reference keeps in its
        long-lived readers).  Built with one numpy unicode view, no
        per-term Python work."""
        if getattr(self, "_term_chars", None) is None:
            t = self.terms
            if len(t) == 0:
                self._term_chars = (np.empty((0, 0), dtype=np.int32),
                                    np.empty(0, dtype=np.int64))
            else:
                import pyarrow.compute as pc

                # EXACT code-point lengths from Arrow: np.char.str_len
                # undercounts terms with trailing NULs (numpy U-dtype
                # padding is NUL), which would let fuzzy distance treat
                # 'a' and 'a\x00' as the same term
                lens = pc.utf8_length(
                    self.terms_table["term"]).to_numpy().astype(np.int64)
                u = t.astype("U")  # U<maxlen>, NUL-padded (interior exact)
                width = u.dtype.itemsize // 4
                if width > TERM_CHARS_MAX_WIDTH:
                    # one outlier mega-token must not allocate an
                    # n_terms x width matrix (1M x 4096 int32 = 16 GB):
                    # clip ROWS, keep exact lens — the fuzzy length
                    # prefilter excludes clipped terms unless the query
                    # itself is ~width chars (guarded loudly there)
                    u = np.asarray(
                        [s[:TERM_CHARS_MAX_WIDTH] for s in t],
                        dtype=f"U{TERM_CHARS_MAX_WIDTH}")
                    width = TERM_CHARS_MAX_WIDTH
                mat = u.view(np.uint32).reshape(len(t), width).astype(np.int32)
                self._term_chars = (mat, lens)
        return self._term_chars

    def _load_docmap(self):
        t = pq.read_table(os.path.join(self.dir, DOCMAP_FILE))
        self._docmap_tbl = t  # keep: norm-feature columns read from here
        self._doc_len = t["doc_len"].to_numpy()
        self._keys = np.asarray(t["key"].to_pylist(), dtype=object)

    @property
    def doc_len(self) -> np.ndarray:
        if self._doc_len is None:
            self._load_docmap()
        return self._doc_len

    @property
    def keys(self) -> np.ndarray:
        if self._keys is None:
            self._load_docmap()
        return self._keys

    def norms(self, name: str = "norm") -> np.ndarray | None:
        """Stored per-doc norm column written by a registered feature
        writer (index/features.py; reference Norm/Norm2 norm.hpp).
        ``norm2`` always resolves (it IS doc_len); other features resolve
        only when the index was built with ``norm_feature=<name>``.
        Cached after first read (query-hot, like doc_len/keys)."""
        if name == "norm2":
            return self.doc_len
        cache = getattr(self, "_norms_cache", None)
        if cache is None:
            cache = self._norms_cache = {}
        if name not in cache:
            if getattr(self, "_docmap_tbl", None) is None:
                self._load_docmap()  # one read serves doc_len/keys/norms
            t = self._docmap_tbl
            cache[name] = (t[name].to_numpy(zero_copy_only=False)
                           if name in t.column_names else None)
        return cache[name]

    # -- columnstore (stored fields) ----------------------------------------
    @property
    def stored_columns(self) -> list[str]:
        return self.meta.get("stored_columns", [])

    @property
    def columns_table(self) -> pa.Table | None:
        """Lazy stored-field table (doc_id + stored columns), or None
        (reference columnstore, core/formats/formats_10.cpp columnstore)."""
        if not self.stored_columns:
            return None
        if getattr(self, "_columns_tbl", None) is None:
            self._columns_tbl = pq.read_table(
                os.path.join(self.dir, COLUMNS_FILE))
        return self._columns_tbl

    def column(self, name: str) -> pa.ChunkedArray | None:
        t = self.columns_table
        if t is None or name not in t.column_names:
            return None
        return t[name]

    def column_docs(self, name: str) -> np.ndarray:
        """Local doc ids whose stored column is present (non-null)."""
        col = self.column(name)
        if col is None:
            return np.empty(0, dtype=np.int64)
        valid = ~np.asarray(col.is_null())
        return np.flatnonzero(valid).astype(np.int64) + 1

    # -- dictionary ---------------------------------------------------------
    def lookup(self, term: str) -> int:
        """Return row index of `term` or -1 (binary search, terms sorted)."""
        t = self.terms
        i = int(np.searchsorted(t, term))
        if i < len(t) and t[i] == term:
            return i
        return -1

    def term_range(self, lo: str | None, hi: str | None,
                   include_lo=True, include_hi=False) -> tuple[int, int]:
        """Row-index half-open range [i, j) of terms within [lo, hi]."""
        t = self.terms
        i = 0 if lo is None else int(np.searchsorted(t, lo, side="left" if include_lo else "right"))
        j = len(t) if hi is None else int(np.searchsorted(t, hi, side="right" if include_hi else "left"))
        return i, max(i, j)

    def prefix_range(self, prefix: str) -> tuple[int, int]:
        t = self.terms
        i = int(np.searchsorted(t, prefix, side="left"))
        hi = prefix_upper_bound(prefix)
        j = (len(t) if hi is None
             else int(np.searchsorted(t, hi, side="left")))
        return i, max(i, j)

    def df(self, idx: int) -> int:
        return int(self.terms_table["df"][idx].as_py())

    def df_array(self) -> np.ndarray:
        # cached: IndexReader.df() is called once per probe TERM (e.g.
        # mlt_terms over a long seed doc) — re-materializing the whole
        # column per call is O(terms x vocab) copies
        cached = getattr(self, "_df_np", None)
        if cached is None:
            cached = self.terms_table["df"].to_numpy()
            self._df_np = cached
        return cached

    def term_max_freq(self, idx: int) -> int:
        """Whole-list max freq of term row ``idx`` (term-level WAND bound)."""
        mf = getattr(self, "_max_freq_np", None)
        if mf is None:
            mf = self._max_freq_np = self.terms_table["max_freq"].to_numpy()
        return int(mf[idx])

    # -- postings -----------------------------------------------------------
    # decoded-postings LRU: long-lived query serving re-decodes the same
    # hot terms every query; bound by TOTAL cached postings so head terms
    # can't blow the heap (the reference leans on the OS page cache +
    # per-reader format caches for the same effect)
    # _CACHE_MAX_POSTINGS is the element-count FLOOR, sized so a
    # 1M-doc-corpus head term's occurrence-key array fits many times over
    # (≈240k occurrences/segment; ~16 MB/reader at the floor);
    # _cache_budget() scales it with segment size — see the 5M-doc
    # HighPhrase finding in BASELINE.md
    _CACHE_MAX_POSTINGS = 2_000_000
    _MISSING = object()

    def _cache_budget(self) -> int:
        """Postings-LRU element budget: max(floor, 80 elements per doc in
        the segment).  A phrase term costs its occurrence-key array only,
        ≈ tf·n_docs elements (head tf≈16 at a 5M-doc corpus); its
        positional tuple (docs+freqs+positions+run_offsets, ≈ (tf+3)·n_docs)
        is cached only for oversize terms, whose keys exceed budget // 4
        and are rebuilt from it per query (see ``occurrence_keys``).  The
        fixed 2M floor stopped covering head terms once segments passed
        ~30k docs — at 78k docs/segment every warm phrase query re-decoded
        ~2M position varints per term (measured: HighPhrase 4.4 s at 5M vs
        the expected ~0.7 s linear growth).  80 el/doc keeps a
        multi-head-term phrase working set resident and caps a fully-hot
        reader at ~640 B/doc (50 MB at 78k docs); only readers actually
        serving head queries ever fill it, and distributed serving spreads
        segment groups across actors."""
        b = getattr(self, "_cache_budget_v", None)
        if b is None:
            n = int(getattr(self, "num_docs", 0) or 0)
            b = self._cache_budget_v = max(self._CACHE_MAX_POSTINGS, 80 * n)
        return b

    def cached_entry(self, key, build, oversize_bypass: bool = False):
        """Get-or-build in the postings LRU: every query-hot derived
        artifact (decoded postings, packed occurrence keys, skip dicts,
        expansion match rows) shares ONE size-bounded cache, so total
        reader memory stays bounded no matter which query mix is hot.
        ``oversize_bypass``: serve entries larger than 1/4 of the budget
        uncached instead of letting one head-term artifact evict
        everything else (the 1M-doc LRU-thrash fix)."""
        cache = getattr(self, "_post_cache", None)
        if cache is None:
            from collections import OrderedDict

            cache = self._post_cache = OrderedDict()
            self._post_cache_size = 0
        hit = cache.get(key, self._MISSING)
        if hit is not self._MISSING:
            cache.move_to_end(key)
            return hit
        out = build()
        n = _cache_entry_size(out)
        budget = self._cache_budget()
        if oversize_bypass and n > budget // 4:
            return out
        cache[key] = out
        self._post_cache_size += n
        while self._post_cache_size > budget and cache:
            _, old = cache.popitem(last=False)
            self._post_cache_size -= _cache_entry_size(old)
        return out

    def postings(self, idx: int, positions: bool = False):
        """Decode term row `idx` -> (docs, freqs[, pos_runs, run_offsets])."""
        return self.cached_entry(
            (idx, positions), lambda: self._decode_postings(idx, positions))

    def _decode_postings(self, idx: int, positions: bool = False):
        tbl = self.terms_table
        doc_blob = np.frombuffer(tbl["doc_blob"][idx].as_py(), dtype=np.uint8)
        freq_blob = np.frombuffer(tbl["freq_blob"][idx].as_py(), dtype=np.uint8)
        docs = codec.delta_decode(codec.varint_decode(doc_blob))
        freqs = codec.varint_decode(freq_blob).astype(np.int64)
        if not positions:
            return docs, freqs
        pos_blob = np.frombuffer(tbl["pos_blob"][idx].as_py(), dtype=np.uint8)
        pos_deltas = codec.varint_decode(pos_blob).astype(np.int64)
        run_offs = np.zeros(len(freqs) + 1, dtype=np.int64)
        np.cumsum(freqs, out=run_offs[1:])
        # per-run cumsum = global cumsum minus the sum preceding each run
        glob = np.cumsum(pos_deltas)
        prior = np.r_[0, glob][run_offs[:-1]]
        pos = glob - np.repeat(prior, freqs)
        return docs, freqs, pos, run_offs

    @property
    def pos_bits(self) -> int:
        """Bits reserved for the position field in packed occurrence keys
        — sized to this segment's longest document, so keys stay dense
        (doc * 2^pos_bits + pos) and phrase intersection can use a
        boolean-mark table instead of per-element binary search."""
        pb = getattr(self, "_pos_bits", None)
        if pb is None:
            dl = self.doc_len
            pb = self._pos_bits = int(dl.max() + 1).bit_length() if len(dl) else 1
        return pb

    def occurrence_keys(self, idx: int) -> np.ndarray:
        """Sorted int64 ``(doc << pos_bits) | position`` per occurrence of
        term row ``idx`` — the working set of every positional filter
        (phrase, same-position, variadic phrase).  Only the keys enter the
        postings LRU: a miss decodes the term's blobs straight into keys
        and drops the positional tuple.  Oversize terms (keys > budget // 4,
        the 1M-doc LRU-thrash fix) instead cache the positional tuple and
        serve their keys uncached, rebuilt per query by one vectorized
        repeat+shift."""
        def build():
            post = (self._post_cache.get((idx, True))
                    or self._decode_postings(idx, positions=True))
            docs, freqs, pos, _ = post
            keys = (np.repeat(docs.astype(np.int64, copy=False), freqs)
                    << np.int64(self.pos_bits)) | pos
            if _cache_entry_size(keys) > self._cache_budget() // 4:
                self.cached_entry((idx, True), lambda: post)
            return keys

        return self.cached_entry((idx, "keys"), build, oversize_bypass=True)

    @property
    def has_offsets(self) -> bool:
        return "offs_start_blob" in self.terms_table.column_names

    def postings_offsets(self, idx: int):
        """Decode term row ``idx`` with stored char offsets (OFFS feature)
        -> (docs, freqs, starts, ends, run_offsets).  Raises if the index
        was built without ``index_features=('pos', 'offs')``."""
        if not self.has_offsets:
            raise ValueError(
                "segment has no stored offsets; build with "
                "index_features=('pos', 'offs') or use re-tokenizing "
                "highlight()")
        tbl = self.terms_table
        docs, freqs = self.postings(idx)
        run_offs = np.zeros(len(freqs) + 1, dtype=np.int64)
        np.cumsum(freqs, out=run_offs[1:])
        s_blob = np.frombuffer(tbl["offs_start_blob"][idx].as_py(), dtype=np.uint8)
        s_deltas = codec.varint_decode(s_blob).astype(np.int64)
        glob = np.cumsum(s_deltas)
        prior = np.r_[0, glob][run_offs[:-1]]
        starts = glob - np.repeat(prior, freqs)
        l_blob = np.frombuffer(tbl["offs_len_blob"][idx].as_py(), dtype=np.uint8)
        lens = codec.varint_decode(l_blob).astype(np.int64)
        return docs, freqs, starts, starts + lens, run_offs

    @property
    def has_payloads(self) -> bool:
        return "pay_blob" in self.terms_table.column_names

    def postings_payloads(self, idx: int):
        """Decode term row ``idx`` with stored per-occurrence payload bytes
        (PAY feature) -> (docs, freqs, payloads: object ndarray of bytes,
        run_offsets).  Raises on indexes built without 'pay'."""
        if not self.has_payloads:
            raise ValueError(
                "segment has no stored payloads; build with "
                "index_features=('pos', 'pay') and a payload-capable "
                "analyzer (tokens_with_payloads)")
        tbl = self.terms_table
        docs, freqs = self.postings(idx)
        run_offs = np.zeros(len(freqs) + 1, dtype=np.int64)
        np.cumsum(freqs, out=run_offs[1:])
        sizes = codec.varint_decode(np.frombuffer(
            tbl["pay_size_blob"][idx].as_py(), dtype=np.uint8)).astype(np.int64)
        raw = tbl["pay_blob"][idx].as_py()
        ends = np.cumsum(sizes)
        starts = ends - sizes
        out = np.empty(len(sizes), dtype=object)
        for i in range(len(sizes)):  # opt-in feature: bytes rows are Python
            out[i] = raw[starts[i]:ends[i]]
        return docs, freqs, out, run_offs

    def skips(self, idx: int) -> dict | None:
        """Per-128-block skip metadata of term row ``idx`` — cached in the
        postings LRU: WAND touches every term's skips on every query, and
        the Arrow list-column extraction dominated the union-WAND profile
        when re-done per call."""
        def build():
            tbl = self.terms_table

            def col(name):
                return tbl[name][idx].values.to_numpy(
                    zero_copy_only=False).astype(np.int64)

            last = col("skip_last_doc")
            return None if len(last) == 0 else {
                "last_doc": last,
                "max_freq": col("skip_max_freq"),
                "doc_off": col("skip_doc_off"),
                "freq_off": col("skip_freq_off"),
                "pos_off": col("skip_pos_off"),
                "pos_cnt": col("skip_pos_cnt"),
            }

        return self.cached_entry((idx, "skips"), build)

    def term_blobs(self, idx: int) -> tuple[np.ndarray, np.ndarray]:
        """(doc_blob, freq_blob) of term row ``idx`` as uint8 views —
        extracted ONCE per query so a block-at-a-time WAND loop doesn't
        re-materialize the full blobs per decoded block."""
        tbl = self.terms_table
        return (np.frombuffer(tbl["doc_blob"][idx].as_py(), dtype=np.uint8),
                np.frombuffer(tbl["freq_blob"][idx].as_py(), dtype=np.uint8))

    def decode_blocks(self, idx: int, block_mask: np.ndarray, blobs=None):
        """Decode only the selected 128-posting blocks (WAND path)."""
        sk = self.skips(idx)
        doc_blob, freq_blob = blobs if blobs is not None \
            else self.term_blobs(idx)
        if sk is None:
            docs = codec.delta_decode(codec.varint_decode(doc_blob))
            return docs, codec.varint_decode(freq_blob).astype(np.int64)
        n_blocks = len(sk["last_doc"])
        doc_end = np.r_[sk["doc_off"][1:], len(doc_blob)]
        freq_end = np.r_[sk["freq_off"][1:], len(freq_blob)]
        out_docs, out_freqs = [], []
        for b in np.flatnonzero(block_mask[:n_blocks]):
            base = 0 if b == 0 else int(sk["last_doc"][b - 1])
            d = codec.delta_decode(
                codec.varint_decode(doc_blob[sk["doc_off"][b]:doc_end[b]]), base)
            f = codec.varint_decode(freq_blob[sk["freq_off"][b]:freq_end[b]]).astype(np.int64)
            out_docs.append(d)
            out_freqs.append(f)
        if not out_docs:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        return np.concatenate(out_docs), np.concatenate(out_freqs)
