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

Inversion is whole-segment vectorized: every analyzer's batches arrive
coded (int codes into a small per-batch term dictionary); flush merges the
dictionaries into sorted global ranks and runs one stable sort over all
token occurrences — the numpy equivalent of the reference's per-thread
postings hash (core/index/postings.hpp:74-126), with terms flushed in byte
order exactly like core/index/postings.cpp:36.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

from iresearch_ray import FORMAT_VERSION
from iresearch_ray.index import codec
from iresearch_ray.util import nul_safe_factorize

TERMS_FILE = "terms.parquet"
# terms.parquet columns a reader loads together (SegmentReader): the
# dictionary at the first lookup, each postings group at its first use
DICT_COLUMNS = ("term", "df", "ttf", "max_freq")
SKIP_COLUMNS = ("skip_last_doc", "skip_max_freq", "skip_doc_off",
                "skip_freq_off", "skip_pos_off", "skip_pos_cnt")
POSTINGS_COLUMN_GROUPS = (("doc_blob", "freq_blob"), SKIP_COLUMNS,
                          ("pos_blob",))
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


class BoundedLRU:
    """A get-or-build cache bounded by the total element count of its
    entries (``_cache_entry_size``), least recently used out first.
    ``SegmentReader`` holds one for its decoded postings and derived
    artifacts; a search snapshot holds one for its per-term results.

    The budget is max(``_CACHE_MAX_POSTINGS``, 80 elements per doc) of the
    owner's ``num_docs``.  The floor is sized so a 1M-doc-corpus head
    term's occurrence-key array fits many times over (≈240k
    occurrences/segment; ~16 MB at the floor).  A phrase term costs its
    occurrence-key array only, ≈ tf·n_docs elements (head tf≈16 at a
    5M-doc corpus); its positional tuple (docs+freqs+positions+
    run_offsets, ≈ (tf+3)·n_docs) is cached only for oversize terms,
    whose keys exceed budget // 4 and are rebuilt from it per query (see
    ``SegmentReader.occurrence_keys``).  The fixed floor stopped covering
    head terms once segments passed ~30k docs — at 78k docs/segment every
    warm phrase query re-decoded ~2M position varints per term (measured:
    HighPhrase 4.4 s at 5M vs the expected ~0.7 s linear growth; see
    BASELINE.md).  80 el/doc keeps a multi-head-term phrase working set
    resident and caps a fully-hot segment reader at ~640 B/doc (50 MB at
    78k docs); only readers actually serving head queries ever fill it,
    and distributed serving spreads segment groups across actors."""

    _CACHE_MAX_POSTINGS = 2_000_000
    _MISSING = object()

    def _cache_budget(self) -> int:
        b = getattr(self, "_cache_budget_v", None)
        if b is None:
            n = int(getattr(self, "num_docs", 0) or 0)
            b = self._cache_budget_v = max(self._CACHE_MAX_POSTINGS, 80 * n)
        return b

    def _lru_get(self, key, build, oversize_bypass: bool = False):
        """The entry under ``key``, built and inserted on a miss.
        ``oversize_bypass``: serve entries larger than 1/4 of the budget
        uncached instead of letting one head-term artifact evict
        everything else (the 1M-doc LRU-thrash fix)."""
        cache = getattr(self, "_post_cache", None)
        if cache is None:
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
    """Accumulates coded batches for ONE segment, then flushes artifacts.

    Bounded like the reference's segment buffer (segment_memory_max,
    index_writer.hpp:359-376): the caller sizes a segment via its input row
    range; accumulation is flat int64 arrays plus each batch's small term
    dictionary, ~24 bytes/token for every analyzer (OFFS adds 16, PAY one
    bytes object per token).
    """

    segment_id: str
    analyzer_config: dict
    lineage: dict = field(default_factory=dict)
    fmt: str = "1_0"  # registered storage format (index/formats.py)
    norm_feature: str | None = None  # extra docmap column (index/features.py)

    def __post_init__(self):
        self._code_chunks: list[np.ndarray] = []
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

    def add_batch_coded(self, flat: dict, keys) -> None:
        """Add one coded batch (``analysis.flatten_batch`` or
        ``flatten_batch_arrow``) + its doc keys.

        Stores int codes + the batch's small term dictionary — no per-token
        term objects; the cross-batch dictionary merge happens at flush.
        Optional per-occurrence ``start``/``end`` (OFFS) and ``payload``
        (PAY) arrays ride along in ``flat``.
        """
        n = len(flat["doc_len"])
        self._code_chunks.append(flat["codes"])
        self._dict_chunks.append(flat["dict"])
        # densely assign 1-based segment-local doc ids in insertion order
        self._doc_chunks.append(flat["doc_idx"] + (self._num_docs + 1))
        self._pos_chunks.append(flat["position"])
        if "start" in flat:
            self._off_start_chunks.append(flat["start"])
            self._off_end_chunks.append(flat["end"])
        if "payload" in flat:
            self._payload_chunks.append(flat["payload"])
        self._doc_len_chunks.append(flat["doc_len"])
        self._key_chunks.append(_np_keys(keys))
        self._num_docs += n

    def flush(self, out_dir: str) -> dict:
        """Invert + encode + atomically write artifacts; return segment meta."""
        def cat(chunks, dtype=np.int64):
            return np.concatenate(chunks) if chunks else np.empty(0, dtype=dtype)

        docs, poss = cat(self._doc_chunks), cat(self._pos_chunks)
        doc_lens = cat(self._doc_len_chunks)
        keys = cat(self._key_chunks, object)
        # merge per-batch dictionaries (small) -> global sorted ranks,
        # then remap each batch's codes through its slice of the mapping
        g_codes, uniques = nul_safe_factorize(cat(self._dict_chunks, object),
                                              sort=True)
        remapped = []
        off = 0
        for codes, d in zip(self._code_chunks, self._dict_chunks):
            remapped.append(g_codes[off + codes])
            off += len(d)
        codes = cat(remapped)
        n_tokens = len(codes)
        offs = ((cat(self._off_start_chunks), cat(self._off_end_chunks))
                if self._off_start_chunks else None)
        pays = cat(self._payload_chunks) if self._payload_chunks else None
        table = invert_coded(codes, np.asarray(uniques, dtype=object),
                             docs, poss, offs=offs, pays=pays)
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


def invert_coded(codes: np.ndarray, sorted_uniques: np.ndarray,
                 docs: np.ndarray, poss: np.ndarray,
                 offs: tuple[np.ndarray, np.ndarray] | None = None,
                 pays: np.ndarray | None = None) -> pa.Table:
    """Build the term-dictionary table from coded occurrences (codes are
    ranks into the SORTED unique-term array) — the one invert every segment
    flush runs.  Postings are ordered by (term, doc id, position), the
    doc-order invariant the reference enforces (formats_10.cpp:823-828).
    ``offs``: optional (start, end) char offsets, ``pays``: optional
    payload bytes, both aligned with the occurrences, which must arrive in
    (doc id, position) order."""
    uniques = sorted_uniques
    order = _term_order(codes, len(uniques), docs, poss)
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


def _term_order(codes: np.ndarray, n_terms: int, docs: np.ndarray,
                poss: np.ndarray) -> np.ndarray:
    """The permutation that orders occurrences by (term, doc, position).

    Occurrences arrive in (doc, position) order — ``SegmentWriter``
    assigns dense ascending doc ids, and the sorted-index build reorders
    docs before it assigns them — so a stable sort by term code alone
    gives it: an LSD radix sort over 16-bit digits, one numpy radix pass
    per digit (a single pass up to 65,536 terms)."""
    if len(docs) > 1:
        step = np.diff(docs)
        if (step < 0).any() or ((step == 0) & (poss[1:] < poss[:-1])).any():
            raise ValueError("docs out of order: occurrences must arrive "
                             "in (doc id, position) order")
    order = np.argsort((codes & 0xFFFF).astype(np.uint16), kind="stable")
    shift = 16
    while n_terms > (1 << shift):
        digit = (codes[order] >> shift) & 0xFFFF
        order = order[np.argsort(digit.astype(np.uint16), kind="stable")]
        shift += 16
    return order


# terms.parquet blob columns, in schema order; the last four exist only
# with the OFFS / PAY index features
BLOB_COLUMNS = ("doc_blob", "freq_blob", "pos_blob")
OFFS_COLUMNS = ("offs_start_blob", "offs_len_blob")
PAY_COLUMNS = ("pay_size_blob", "pay_blob")


def _encode_streams(term_post_offs: np.ndarray, p_docs: np.ndarray,
                   freqs: np.ndarray, poss: np.ndarray,
                   posting_offs_in_tokens: np.ndarray,
                   offs: tuple[np.ndarray, np.ndarray] | None = None,
                   pays: np.ndarray | None = None) -> dict:
    """Varint-encode inverted postings into the blob columns' streams:
    column name -> (bytes, byte offset of each posting, len n_postings+1).

    Doc ids delta-encode per term, positions and OFFS starts per posting
    run, OFFS lengths (end - start) and payload sizes are plain varints;
    ``pay_blob`` holds the raw payload bytes (``pays``: one bytes object
    per occurrence) in occurrence order."""
    runs = np.asarray(posting_offs_in_tokens, dtype=np.int64)
    streams = {
        "doc_blob": codec.varint_encode_offsets(
            codec.delta_encode(p_docs, term_post_offs)),
        "freq_blob": codec.varint_encode_offsets(freqs),
    }
    occurrence_values = {"pos_blob": codec.positions_delta_encode(poss, runs)}
    if offs is not None:
        starts, ends = offs
        occurrence_values["offs_start_blob"] = codec.positions_delta_encode(
            starts, runs)
        occurrence_values["offs_len_blob"] = (ends - starts).astype(np.int64)
    if pays is not None:
        sizes = np.fromiter((len(p) for p in pays), dtype=np.int64,
                            count=len(pays))
        occurrence_values["pay_size_blob"] = sizes
        blob = (np.frombuffer(b"".join(pays), dtype=np.uint8) if len(pays)
                else np.empty(0, dtype=np.uint8))
        by_cum = np.zeros(len(sizes) + 1, dtype=np.int64)
        np.cumsum(sizes, out=by_cum[1:])
        streams["pay_blob"] = (blob, by_cum[runs])
    for name, values in occurrence_values.items():
        blob, value_offs = codec.varint_encode_offsets(values)
        streams[name] = (blob, value_offs[runs])
    return streams


def encode_postings_table(uniques, term_post_offs: np.ndarray,
                          p_docs: np.ndarray, freqs: np.ndarray,
                          poss: np.ndarray | None = None,
                          posting_offs_in_tokens: np.ndarray | None = None,
                          offs: tuple[np.ndarray, np.ndarray] | None = None,
                          pays: np.ndarray | None = None,
                          streams: dict | None = None) -> pa.Table:
    """Encode inverted postings into the terms.parquet schema.

    Inputs: sorted unique terms (an object ndarray, or an Arrow string
    array used as the column as-is); per-term posting offsets (len
    n_terms+1); concatenated per-posting (doc, freq).  The blob columns
    come in one of two forms: as values (the segment flush) — position
    occurrences ``poss`` with per-posting run offsets (len n_postings+1)
    and the optional OFFS ``offs`` / PAY ``pays``, encoded here by
    ``_encode_streams`` — or as ``streams`` already encoded in its output
    form (the merge, which splices its inputs' bytes).  Dictionary stats
    and the per-128-posting skip rows come from the doc ids, freqs and the
    streams' per-posting byte offsets alike.
    """
    n_terms = len(uniques)
    t_starts = term_post_offs[:-1]
    df = np.diff(term_post_offs)
    if len(freqs) and (df == 0).any():
        # reduceat can't handle empty groups (and raises an opaque
        # IndexError when the LAST group is empty — check FIRST so the
        # named diagnostic always wins); merge never produces them
        raise ValueError("empty posting list for a dictionary term")
    if streams is None:
        streams = _encode_streams(term_post_offs, p_docs, freqs, poss,
                                 posting_offs_in_tokens, offs, pays)
    ttf = (np.add.reduceat(freqs, t_starts) if len(freqs)
           else np.zeros(n_terms, dtype=np.int64))
    max_freq = (codec.block_max_reduce(freqs, term_post_offs)
                if len(freqs) else np.zeros(n_terms, dtype=np.int64))
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

    # ---- skip arrays, only for terms with >1 block; byte offsets are
    # relative to the term's own blob slice ----
    has_skip = blocks_per_term > 1
    skip_counts = np.where(has_skip, blocks_per_term, 0)
    skip_offs = np.zeros(n_terms + 1, dtype=np.int64)
    np.cumsum(skip_counts, out=skip_offs[1:])
    skip = {}
    if len(blk_term):
        keep = has_skip[blk_term]
        k_start, k_end, k_term = blk_start[keep], blk_end[keep], blk_term[keep]
        k_head = term_post_offs[k_term]
        skip["skip_last_doc"] = p_docs[k_end - 1]
        skip["skip_max_freq"] = np.maximum.reduceat(freqs, blk_bounds[:-1])[keep]
        for col, name in (("skip_doc_off", "doc_blob"),
                          ("skip_freq_off", "freq_blob"),
                          ("skip_pos_off", "pos_blob")):
            at = streams[name][1]
            skip[col] = at[k_start] - at[k_head]
        # position-count offset so a block seek knows how many position values precede
        freq_presum = np.zeros(len(freqs) + 1, dtype=np.int64)
        np.cumsum(freqs, out=freq_presum[1:])
        skip["skip_pos_cnt"] = freq_presum[k_start] - freq_presum[k_head]

    cols = {
        "term": (uniques if isinstance(uniques, pa.Array)
                 else pa.array(uniques, type=pa.string())),
        "df": pa.array(df, type=pa.int64()),
        "ttf": pa.array(ttf, type=pa.int64()),
        "max_freq": pa.array(max_freq, type=pa.int64()),
    }
    # OFFS (reference .pay/offset stream, formats_10.cpp:345-353) and PAY
    # (its .pay stream) lay out per occurrence exactly like positions, so
    # every blob column is sliced per term the same way
    for name in BLOB_COLUMNS:
        blob, at = streams[name]
        cols[name] = _binary_array(blob, at[term_post_offs])
    for name in SKIP_COLUMNS:
        cols[name] = _large_list_array(
            skip.get(name, np.empty(0, dtype=np.int64)), skip_offs)
    for name in OFFS_COLUMNS + PAY_COLUMNS:
        if name in streams:
            blob, at = streams[name]
            cols[name] = _binary_array(blob, at[term_post_offs])
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


class SegmentReader(BoundedLRU):
    """Lazy view of one segment's artifacts (query-side cache — the
    analogue of reference segment_reader, core/index/segment_reader.cpp:257).

    Opening reads only ``segment.json``.  Everything else is read on first
    use and cached for the reader's life:

    - ``terms_table``, the term dictionary (``term``, ``df``, ``ttf``,
      ``max_freq``), on the first lookup; it opens ``terms.parquet`` and
      the reader keeps that file open, so every later read of its columns
      comes from the same file version even after ``tools purge`` or a
      stale-lineage ``write_segment_dir`` unlinked it;
    - the postings columns through ``terms_column``, one group per read:
      ``doc_blob`` + ``freq_blob`` on the first postings decode, the six
      ``skip_*`` lists on the first WAND block skip, ``pos_blob`` on the
      first positional decode, each OFFS/PAY column on its first use;
    - ``docmap.parquet`` (keys, doc lengths, norms), whole, on the first
      score or key lookup; ``columns.parquet``, whole, on the first
      stored-field fetch.

    The open file handle makes a reader unpicklable: Ray actors build
    their own readers from the segment directory instead."""

    def __init__(self, seg_dir: str):
        self.dir = seg_dir
        with open(os.path.join(seg_dir, META_FILE)) as f:
            self.meta = json.load(f)
        self.segment_id = self.meta["segment_id"]
        self.num_docs = self.meta["num_docs"]
        self.sum_doc_len = self.meta["sum_doc_len"]
        self.max_doc_len = self.meta.get("max_doc_len", 1 << 30)
        self._terms_file: pq.ParquetFile | None = None
        self._terms_tbl: pa.Table | None = None
        self._terms_cols: dict[str, pa.ChunkedArray] = {}
        self._terms_np: np.ndarray | None = None
        self._doc_len: np.ndarray | None = None
        self._keys: np.ndarray | None = None

    # -- lazy loads ---------------------------------------------------------
    @property
    def terms_file(self) -> pq.ParquetFile:
        """``terms.parquet``, opened once and held for the reader's life."""
        if self._terms_file is None:
            self._terms_file = pq.ParquetFile(os.path.join(self.dir, TERMS_FILE))
        return self._terms_file

    @property
    def terms_table(self) -> pa.Table:
        """The term dictionary: ``DICT_COLUMNS`` of every term row."""
        if self._terms_tbl is None:
            self._terms_tbl = self.terms_file.read(columns=list(DICT_COLUMNS))
        return self._terms_tbl

    def terms_column(self, name: str) -> pa.ChunkedArray:
        """One postings column of ``terms.parquet``, read on first use
        together with the rest of its ``POSTINGS_COLUMN_GROUPS`` group (a
        column outside every group is read alone)."""
        col = self._terms_cols.get(name)
        if col is None:
            group = next((g for g in POSTINGS_COLUMN_GROUPS if name in g),
                         (name,))
            t = self.terms_file.read(columns=list(group))
            self._terms_cols.update(zip(group, t.columns))
            col = self._terms_cols[name]
        return col

    def term_blob(self, name: str, idx: int) -> np.ndarray:
        """Row ``idx`` of the binary ``terms.parquet`` column ``name`` as a
        uint8 view."""
        return np.frombuffer(self.terms_column(name)[idx].as_py(),
                             dtype=np.uint8)

    @property
    def terms(self) -> np.ndarray:
        if self._terms_np is None:
            self._terms_np = self.terms_table["term"].to_numpy(
                zero_copy_only=False)
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
        t = pq.ParquetFile(os.path.join(self.dir, DOCMAP_FILE)).read()
        self._docmap_tbl = t  # keep: norm-feature columns read from here
        self._doc_len = t["doc_len"].to_numpy()
        self._keys = t["key"].to_numpy(zero_copy_only=False)

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
        return int(self.df_array()[idx])

    def df_array(self) -> np.ndarray:
        # cached: IndexReader.df() is called once per probe TERM (e.g.
        # mlt_terms over a long seed doc) — re-materializing the whole
        # column per call is O(terms x vocab) copies
        cached = getattr(self, "_df_np", None)
        if cached is None:
            cached = self.terms_table["df"].to_numpy()
            self._df_np = cached
        return cached

    # -- postings -----------------------------------------------------------
    def cached_entry(self, key, build, oversize_bypass: bool = False):
        """Get-or-build in the postings LRU: every query-hot derived
        artifact (decoded postings, packed occurrence keys, skip dicts,
        expansion match rows) shares ONE size-bounded cache, so total
        reader memory stays bounded no matter which query mix is hot."""
        return self._lru_get(key, build, oversize_bypass)

    def postings(self, idx: int, positions: bool = False):
        """Decode term row `idx` -> (docs, freqs[, pos_runs, run_offsets])."""
        return self.cached_entry(
            (idx, positions), lambda: self._decode_postings(idx, positions))

    def _decode_postings(self, idx: int, positions: bool = False):
        doc_blob, freq_blob = self.term_blobs(idx)
        docs = codec.delta_decode(codec.varint_decode(doc_blob))
        freqs = codec.varint_decode(freq_blob).astype(np.int64)
        if not positions:
            return docs, freqs
        pos_deltas = codec.varint_decode(
            self.term_blob("pos_blob", idx)).astype(np.int64)
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
        return "offs_start_blob" in self.terms_file.schema_arrow.names

    def postings_offsets(self, idx: int):
        """Decode term row ``idx`` with stored char offsets (OFFS feature)
        -> (docs, freqs, starts, ends, run_offsets).  Raises if the index
        was built without ``index_features=('pos', 'offs')``."""
        if not self.has_offsets:
            raise ValueError(
                "segment has no stored offsets; build with "
                "index_features=('pos', 'offs') or use re-tokenizing "
                "highlight()")
        docs, freqs = self.postings(idx)
        run_offs = np.zeros(len(freqs) + 1, dtype=np.int64)
        np.cumsum(freqs, out=run_offs[1:])
        s_deltas = codec.varint_decode(
            self.term_blob("offs_start_blob", idx)).astype(np.int64)
        glob = np.cumsum(s_deltas)
        prior = np.r_[0, glob][run_offs[:-1]]
        starts = glob - np.repeat(prior, freqs)
        lens = codec.varint_decode(
            self.term_blob("offs_len_blob", idx)).astype(np.int64)
        return docs, freqs, starts, starts + lens, run_offs

    @property
    def has_payloads(self) -> bool:
        return "pay_blob" in self.terms_file.schema_arrow.names

    def postings_payloads(self, idx: int):
        """Decode term row ``idx`` with stored per-occurrence payload bytes
        (PAY feature) -> (docs, freqs, payloads: object ndarray of bytes,
        run_offsets).  Raises on indexes built without 'pay'."""
        if not self.has_payloads:
            raise ValueError(
                "segment has no stored payloads; build with "
                "index_features=('pos', 'pay') and a payload-capable "
                "analyzer (tokens_with_payloads)")
        docs, freqs = self.postings(idx)
        run_offs = np.zeros(len(freqs) + 1, dtype=np.int64)
        np.cumsum(freqs, out=run_offs[1:])
        sizes = codec.varint_decode(
            self.term_blob("pay_size_blob", idx)).astype(np.int64)
        raw = self.terms_column("pay_blob")[idx].as_py()
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
            def col(name):
                return self.terms_column(name)[idx].values.to_numpy(
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
        return self.term_blob("doc_blob", idx), self.term_blob("freq_blob", idx)

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
