"""Index reader + top-k search execution (driver-local and Ray-distributed).

Mirrors the reference flow (utils/index-search.cpp:628-748): prepare a
filter against the whole index, then execute it.  The reference executes
segment by segment, which costs little in C++; here each segment adds a
fixed Python cost to every query, so a prepared filter runs ONCE over the
snapshot's global doc space (``Prepared.execute_global``) and the query
makes one top-k selection.  Term results come from the snapshot's memo
(``SnapshotMemo``): each term is decoded, scored with its own segment's
norms path and masked once per snapshot, then reused by every query that
asks for it under the same scorer constants.

``mode='all'`` is the rank-identity ground truth.  ``mode='top'`` keeps
the reference's per-segment loop for the two roots the block-max kernels
serve (a term, or a union of terms): a bounded top-k whose k-th score
feeds back as the threshold below which 128-posting blocks are skipped
(ExecutionMode::kTop / `wanderator`, core/formats/formats_10.cpp:
2235-2564; best-case block score at block max_freq, a conservative
freq-monotone bound like formats_10.cpp:2369-2391).  Every other root
answers ``top`` exactly as ``all``.

Deterministic global doc order: ``global_doc = segment_base + local_doc``;
ties in score break by ascending global doc (the arrival order of the
reference's sequential segment scan).
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np
import pandas as pd

from iresearch_ray.index import manifest as manifest_mod
from iresearch_ray.index.segment import BoundedLRU, SegmentReader
from iresearch_ray.search.filters import _PreparedTerm, _PreparedUnion
from iresearch_ray.search.scorers import BM25, FieldStats


@dataclass
class SegmentView:
    reader: SegmentReader
    base: int  # global doc id offset (global = base + local)
    mask: np.ndarray | None = None  # sorted deleted local doc ids (1-based)

    @property
    def id(self) -> str:
        return self.reader.segment_id

    def apply_mask(self, docs: np.ndarray, scores: np.ndarray):
        """Drop masked docs from a (docs, scores) result — the reference
        applies document_mask at read (formats_10.cpp:3546)."""
        if self.mask is None or not len(docs):
            return docs, scores
        idx = np.searchsorted(self.mask, docs)
        hit = ((idx < len(self.mask))
               & (self.mask[np.minimum(idx, len(self.mask) - 1)] == docs))
        if not hit.any():
            return docs, scores
        keep = ~hit
        return docs[keep], scores[keep]

    @property
    def tiny(self) -> bool:
        """Norms fit one byte -> reference Norm2Tiny scoring path."""
        return self.reader.max_doc_len < 256


class SnapshotMemo(BoundedLRU):
    """A search snapshot's memo of per-term results, bounded like a
    segment's postings LRU (``BoundedLRU``: max(2M, 80 elements per doc)
    over the snapshot's docs, oversize entries served uncached).  Its two
    kinds of entry:

    - ``rows(term)``: the term's dictionary row in each segment (-1 where
      absent), its df summed over the segments, and the rows by segment
      id, which per-segment execution reads;
    - ``scored(term, rows, sp)``: the term's postings over the snapshot's
      global doc space as one (sorted int64 global docs, scores) pair,
      each segment's slice scored with that segment's own norms path
      (``tiny``) and masked, keyed by the scorer's ``key()`` and dtype.

    A slice is decoded with ``SegmentReader._decode_postings`` and never
    entered in the segment's LRU, so a hot term is resident once.
    Entries are read-only arrays shared by every query that asks for the
    same term under the same scorer constants; nothing is keyed by a
    whole query or its result."""

    def __init__(self, segments: list[SegmentView]):
        self.segments = segments
        self.num_docs = sum(s.reader.num_docs for s in segments)

    def rows(self, term: str) -> tuple[np.ndarray, int, dict]:
        def build():
            rows = np.array([s.reader.lookup(term) for s in self.segments],
                            dtype=np.int64)
            df = sum(int(s.reader.df_array()[i])
                     for s, i in zip(self.segments, rows) if i >= 0)
            return rows, df, dict(zip((s.id for s in self.segments),
                                      rows.tolist()))

        return self._lru_get(("rows", term), build)

    def scored(self, term: str, rows: np.ndarray,
               sp) -> tuple[np.ndarray, np.ndarray]:
        key = getattr(sp, "key", None)
        if key is None:  # a scorer without a stable key: score per query
            return self._score(rows, sp)
        return self._lru_get(
            ("scored", term, key(), np.dtype(sp.dtype).str),
            lambda: self._score(rows, sp), oversize_bypass=True)

    def _score(self, rows: np.ndarray, sp) -> tuple[np.ndarray, np.ndarray]:
        docs_l, scores_l = [], []
        for seg, i in zip(self.segments, rows.tolist()):
            if i < 0:
                continue
            docs, freqs = seg.reader._decode_postings(i)
            docs = docs.astype(np.int64, copy=False)
            docs, scores = seg.apply_mask(
                docs, sp.score(freqs, seg.reader.doc_len[docs - 1], seg.tiny))
            docs_l.append(docs + seg.base)
            scores_l.append(scores)
        if not docs_l:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=sp.dtype)
        docs, scores = np.concatenate(docs_l), np.concatenate(scores_l)
        docs.flags.writeable = scores.flags.writeable = False
        return docs, scores


class IndexReader:
    """MVCC snapshot over the latest (or given) manifest generation
    (reference directory_reader, core/index/directory_reader.cpp:219)."""

    def __init__(self, index_dir: str, generation: int | None = None):
        self.index_dir = index_dir
        self.manifest = manifest_mod.load(index_dir, generation)
        self.segments: list[SegmentView] = []
        base = 0
        for s in self.manifest["segments"]:
            r = SegmentReader(os.path.join(index_dir, s["segment_id"]))
            mask = None
            if s.get("docmask"):
                from iresearch_ray.index.delete import load_mask
                mask = load_mask(index_dir, s)
            self.segments.append(SegmentView(r, base, mask))
            base += r.num_docs
        self.memo = SnapshotMemo(self.segments)
        self.stats = FieldStats(docs_with_field=self.manifest["num_docs"],
                                total_tokens=self.manifest["sum_doc_len"])

    @property
    def num_docs(self) -> int:
        return self.manifest["num_docs"]

    def df(self, term: str) -> int:
        return self.memo.rows(term)[1]

    def stored(self, global_docs: np.ndarray, columns: list[str]) -> pd.DataFrame:
        """Fetch stored-field values for global doc ids (columnstore read —
        reference columnstore lookup at materialization time)."""
        global_docs = np.asarray(global_docs, dtype=np.int64)
        parts = []
        for seg in self.segments:
            in_seg = ((global_docs > seg.base)
                      & (global_docs <= seg.base + seg.reader.num_docs))
            if not in_seg.any():
                continue
            local = global_docs[in_seg] - seg.base
            tbl = seg.reader.columns_table
            if tbl is None:
                df = pd.DataFrame({c: pd.Series([None] * len(local))
                                   for c in columns})
            else:
                df = tbl.take(local - 1).select(
                    [c for c in columns if c in tbl.column_names]).to_pandas()
                for c in columns:
                    if c not in df.columns:
                        df[c] = None
            df.insert(0, "doc", global_docs[in_seg])
            parts.append(df)
        if not parts:
            return pd.DataFrame({"doc": np.empty(0, dtype=np.int64),
                                 **{c: [] for c in columns}})
        out = pd.concat(parts, ignore_index=True)
        return out.set_index("doc").loc[global_docs].reset_index()

    def key_of(self, global_doc: int) -> str:
        for seg in self.segments:
            if seg.base < global_doc <= seg.base + seg.reader.num_docs:
                return seg.reader.keys[global_doc - seg.base - 1]
        raise KeyError(global_doc)


class IndexSearcher:
    def __init__(self, reader: IndexReader, scorer=None):
        self.reader = reader
        self.scorer = scorer or BM25()

    def execute(self, flt) -> list[tuple[SegmentView, np.ndarray, np.ndarray]]:
        """All matches per segment (local docs, scores) — test/CheckQuery API."""
        prep = flt.prepare(self.reader, self.scorer)
        return [(seg, *seg.apply_mask(*prep.execute(seg)))
                for seg in self.reader.segments]

    def search(self, flt, k: int = 10, mode: str = "all") -> pd.DataFrame:
        """Top-k over all segments -> DataFrame(doc, key, score), sorted by
        (-score, doc)."""
        prep = flt.prepare(self.reader, self.scorer)
        return hits_frame(*collect_topk(prep, self.reader.segments, k, mode))


def hits_frame(docs, scores, keys) -> pd.DataFrame:
    """The (doc, key, score) frame every searcher returns, with int64 /
    object / float64 columns also when empty."""
    key = np.empty(len(keys), dtype=object)
    key[:] = keys
    return pd.DataFrame({"doc": np.asarray(docs, dtype=np.int64), "key": key,
                         "score": np.asarray(scores, dtype=np.float64)},
                        copy=False)


def check_topk_args(k: int, mode: str) -> None:
    """Reject what no top-k search can serve, naming the argument."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k!r}")
    if mode not in ("all", "top"):
        raise ValueError(f"mode must be 'all' or 'top', got {mode!r}")


def _topk_rows(docs: np.ndarray, scores: np.ndarray, k: int) -> np.ndarray:
    """Row indices of the k best hits ordered by (-score, doc).  Tie-exact:
    partition at the k-th score, keep EVERY row tied with it, and lexsort
    only those (argpartition alone keeps arbitrary ties)."""
    cand = np.arange(len(scores))
    if len(scores) > k:
        kth = np.partition(scores, len(scores) - k)[len(scores) - k]
        cand = np.flatnonzero(scores >= kth)
    return cand[np.lexsort((docs[cand], -scores[cand]))[:k]]


def _kth_floor(scores: np.ndarray, k: int, threshold: float) -> float:
    """Raise ``threshold`` to one ulp below the k-th largest score (kept
    as is with fewer than k scores).  One ulp down so that docs TIED with
    the k-th are never pruned: the final selection breaks ties by doc.
    The ulp is the scores' own: a float64 ulp below a float32 score
    rounds back to it wherever the kernels compare float32 arrays."""
    if len(scores) < k:
        return threshold
    kth = np.partition(scores, len(scores) - k)[len(scores) - k]
    return max(threshold, float(np.nextafter(kth, kth.dtype.type(-np.inf))))


def collect_topk(prep, segments, k: int, mode: str = "all",
                 threshold: float = -np.inf):
    """The one per-query top-k, run by ``IndexSearcher.search`` over the
    whole index and by every segment-group actor over its group: the
    prepared filter's global (docs, scores) once, then one tie-exact
    selection by (-score, doc).  ``mode='top'`` on a term or a union of
    terms runs ``_collect_wand`` instead, starting from ``threshold`` (a
    pilot group's, on the distributed path).  Returns (global docs,
    float64 scores, keys) in that order; keys are resolved for the final
    rows only."""
    check_topk_args(k, mode)
    if mode == "top" and segments and _wand_root(prep, segments[0]):
        top_docs, top_scores = _collect_wand(prep, segments, k, threshold)
    else:
        docs, scores = prep.execute_global(segments)
        sel = _topk_rows(docs, scores, k)
        top_docs, top_scores = docs[sel], scores[sel]
    if not len(top_docs):
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64), []
    # segment i owns global docs (base, end]: the first end >= doc
    ends = np.array([s.base + s.reader.num_docs for s in segments])
    at = np.searchsorted(ends, top_docs, side="left")
    keys = [segments[a].reader.keys[d - segments[a].base - 1]
            for a, d in zip(at, top_docs)]
    return (top_docs.astype(np.int64, copy=False),
            top_scores.astype(np.float64), keys)


def _wand_root(prep, seg) -> bool:
    """Whether the block-max kernels serve this root: a term, or a union
    whose children are all terms (field-bound nodes count as what they
    route to)."""
    node, _ = prep.route(seg)
    return isinstance(node, _PreparedTerm) or (
        isinstance(node, _PreparedUnion)
        and all(isinstance(c.route(seg)[0], _PreparedTerm)
                for c in node.children))


def _collect_wand(prep, segments, k: int, threshold: float):
    """The reference's per-segment top-k loop (utils/index-search.cpp:
    646-748) with block-max pruning.  Per segment: route, WAND or the
    exhaustive execute, mask, then merge into a buffer of the <= k best
    rows by (-score, doc); the buffer's k-th score feeds back to the WAND
    kernels as the pruning threshold (the reference's score_threshold).
    Returns the buffer's (global docs, scores)."""
    top_docs = top_scores = None
    for seg in segments:
        # field-bound wrappers re-route to their own sub-index's aligned
        # segment so WAND prunes with that field's block-max; masked
        # scores must not set a threshold, so WAND runs only where the
        # segment and every segment it routes to are unmasked
        node, eseg = prep.route(seg)
        raw = None
        if eseg is not None and seg.mask is None and eseg.mask is None:
            if isinstance(node, _PreparedTerm):
                raw = _wand_term(node, eseg, k, threshold)
            elif isinstance(node, _PreparedUnion) and all(
                    isinstance(cn, _PreparedTerm)
                    and (cs is None or cs.mask is None)
                    for cn, cs in (c.route(eseg) for c in node.children)):
                raw = _wand_union(node, eseg, threshold)
        if raw is None:
            raw = prep.execute(seg)
        docs, scores = seg.apply_mask(*raw)
        if not len(docs):
            continue
        docs = docs + seg.base
        if top_docs is not None:
            docs = np.concatenate([top_docs, docs])
            scores = np.concatenate([top_scores, scores])
        sel = _topk_rows(docs, scores, k)
        top_docs, top_scores = docs[sel], scores[sel]
        threshold = _kth_floor(top_scores, k, threshold)
    if top_docs is None:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
    return top_docs, top_scores


def _block_ub(node, cseg, i: int) -> np.ndarray | None:
    """Per-block score upper bounds of term row ``i`` (block max_freq at
    the most favorable doc length), cached in the reader's postings LRU
    keyed by the scorer's determining constants — for a static index the
    same term always yields the same df/idf, so repeated WAND queries
    (and every query sharing the term) skip the per-block re-scoring.
    None when the term has no skip metadata (short list)."""
    sk = cseg.reader.skips(i)
    if sk is None:
        return None
    sp = node.sp

    def build():
        return sp.score(sk["max_freq"],
                        np.zeros(len(sk["max_freq"]), dtype=np.int64),
                        cseg.tiny)

    key = getattr(sp, "key", None)
    if key is None:  # registry-registered scorer without a stable key
        return build()
    return cseg.reader.cached_entry((i, "blockub", key(), cseg.tiny),
                                    build)


def _wand_union(prep, seg: SegmentView,
                threshold: float) -> tuple[np.ndarray, np.ndarray]:
    """Block-max pruning for a UNION of term children (reference
    wanderator under disjunctions; MaxScore-flavored bound): a block of
    child c is skipped when ``ub_block + sum(other children's max block
    ub) <= threshold`` — any doc confined to skipped blocks in every child
    that contains it is then provably <= threshold.  Surviving candidate
    docs are re-scored EXACTLY: every child decodes the blocks holding a
    candidate (targeted seek via the skip last_doc array), so returned
    scores are identical to the full scan's."""
    from iresearch_ray.search.filters import union_sum

    kids = prep.children
    dtype = prep.dtype
    # term-level bail-out: a block of child c is skippable iff its block
    # ub < threshold - sum(other children's max ub).  Scores are
    # nonnegative, so if that bound is <= 0 for every child (dense unions
    # of head terms, or an early -inf threshold), NO block can ever be
    # pruned here — run the plain exact union and skip the whole
    # skip-fetch + per-block-ub machinery (measured ~30% of union-WAND
    # time on Or4High where pruning never engages)
    # dense-streak short-circuit: once 8 consecutive segments of this
    # query chose the dense accumulator, stop checking (pruning potential
    # is a corpus property — on uniform segments it won't re-appear; if
    # it would have, the dense path is still EXACT, only slower).  The
    # streak lives on the per-query prepared node, so every query
    # re-evaluates its first segments.
    streak = getattr(prep, "_wand_dense_streak", 0)
    if streak >= 8:
        return prep.execute(seg)
    # one pass per child: cached per-block ub array; its max IS the
    # term-level bound (score is monotonic in freq).  Short lists
    # decode+score now — exact, tiny, and reused verbatim by the block
    # path below.
    pre: list[tuple | None] = []
    for c in kids:
        # per-child routing: a field-bound child reads ITS sub-index's
        # aligned segment (postings, skips, doc_len norms) — local doc ids
        # align across fields by construction
        node, cseg = c.route(seg)
        i = node.idx_by_seg.get(cseg.id, -1) if cseg is not None else -1
        if i < 0:
            pre.append(None)
            continue
        ub = _block_ub(node, cseg, i)
        if ub is None or len(ub) < 8:
            docs, freqs = cseg.reader.postings(i)
            docs = docs.astype(np.int64, copy=False)
            scores = node.sp.score(freqs, cseg.reader.doc_len[docs - 1],
                                   cseg.tiny)
            mu = float(scores.max()) if len(scores) else 0.0
            pre.append((node, cseg, i, None, mu, (docs, scores)))
        else:
            pre.append((node, cseg, i, ub, float(ub.max()), None))
    live_pre = [p for p in pre if p is not None]
    if not live_pre:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=dtype)
    tot0 = sum(p[4] for p in live_pre)
    # union-level cost model (two levels): (a) term-level bail-out — no
    # block of any child can prune when threshold <= tot0 - mu for all;
    # (b) prune-fraction — some block COULD prune, but below 25% of
    # blocks the dense accumulator beats the per-block machinery
    # (without this, 63/64 Or4High segments ran the block path pruning
    # nothing, costing +30% over mode=all).
    dense = all(threshold <= tot0 - p[4] for p in live_pre)
    if not dense:
        prunable = total_b = 0
        for p in live_pre:
            if p[3] is not None:
                total_b += len(p[3])
                prunable += int((p[3] <= (threshold - (tot0 - p[4]))).sum())
        dense = total_b == 0 or prunable < 0.25 * total_b
    if dense:
        prep._wand_dense_streak = streak + 1
        return prep.execute(seg)
    prep._wand_dense_streak = 0
    infos: list[dict | None] = []
    for ci, c in enumerate(kids):
        p = pre[ci]
        if p is None:
            infos.append(None)
            continue
        node, cseg, i, ub, mu, full = p
        if full is not None:
            infos.append({"full": full, "max_ub": mu})
        else:
            infos.append({"sk": cseg.reader.skips(i), "i": i, "ub": ub,
                          "prep": node, "seg": cseg, "max_ub": mu})
    live = [x for x in infos if x is not None]
    if not live:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=dtype)
    tot = sum(x["max_ub"] for x in live)

    child_data: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    decoded: dict[int, np.ndarray] = {}
    parts = []
    for ci, x in enumerate(infos):
        if x is None:
            continue
        if "full" in x:
            child_data[ci] = x["full"]
            parts.append(x["full"][0])
        else:
            need = x["ub"] > (threshold - (tot - x["max_ub"]))
            if need.mean() > 0.5:
                # pruning degenerates (head terms / loose threshold): one
                # whole-blob varint pass beats per-block decodes
                docs, freqs = x["seg"].reader.postings(x["i"])
                docs = docs.astype(np.int64, copy=False)
                scores = x["prep"].sp.score(freqs,
                                            x["seg"].reader.doc_len[docs - 1],
                                            x["seg"].tiny)
                infos[ci] = x = {"full": (docs, scores),
                                 "max_ub": x["max_ub"]}
                child_data[ci] = x["full"]
                parts.append(docs)
                continue
            decoded[ci] = need
            x["blobs"] = x["seg"].reader.term_blobs(x["i"])
            docs, freqs = x["seg"].reader.decode_blocks(x["i"], need,
                                                        blobs=x["blobs"])
            child_data[ci] = (docs.astype(np.int64, copy=False), freqs)
            parts.append(child_data[ci][0])
    if not decoded:  # every child fully decoded -> plain exact union
        docs_l = [child_data[ci][0] for ci, x in enumerate(infos) if x]
        scores_l = [child_data[ci][1] for ci, x in enumerate(infos) if x]
        docs, scores, counts = union_sum(docs_l, scores_l,
                                         counts_needed=True, dtype=dtype)
        if prep.min_match > 1:
            keep = counts >= prep.min_match
            docs, scores = docs[keep], scores[keep]
        return docs, scores
    cand = np.unique(np.concatenate(parts)) if parts else np.empty(0, np.int64)
    if not len(cand):
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=dtype)
    # exact re-score: decode any block that holds a candidate
    for ci, x in enumerate(infos):
        if x is None or "full" in x:
            continue
        blk = np.searchsorted(x["sk"]["last_doc"], cand, side="left")
        blk = blk[blk < len(x["sk"]["last_doc"])]
        need_extra = np.zeros(len(x["sk"]["last_doc"]), dtype=bool)
        need_extra[np.unique(blk)] = True
        extra = need_extra & ~decoded[ci]
        if extra.any():
            d2, f2 = x["seg"].reader.decode_blocks(x["i"], extra,
                                                   blobs=x["blobs"])
            d0, f0 = child_data[ci]
            docs = np.concatenate([d0, d2.astype(np.int64, copy=False)])
            freqs = np.concatenate([f0, f2])
            o = np.argsort(docs, kind="stable")
            child_data[ci] = (docs[o], freqs[o])
    docs_l, scores_l = [], []
    for ci, x in enumerate(infos):
        if x is None:
            continue
        docs, payload = child_data[ci]
        if "full" in x:
            scores = payload
        else:
            scores = x["prep"].sp.score(payload,
                                        x["seg"].reader.doc_len[docs - 1],
                                        x["seg"].tiny)
        at = np.searchsorted(cand, docs)
        member = (at < len(cand)) & (cand[np.minimum(at, len(cand) - 1)] == docs)
        docs_l.append(docs[member])
        scores_l.append(scores[member])
    docs, scores, counts = union_sum(docs_l, scores_l, counts_needed=True,
                                     dtype=dtype)
    if prep.min_match > 1:
        keep = counts >= prep.min_match
        docs, scores = docs[keep], scores[keep]
    return docs, scores


def _wand_term(prep: _PreparedTerm, seg: SegmentView, k: int,
               threshold: float) -> tuple[np.ndarray, np.ndarray]:
    """Block-max pruning for a single-term top-k (reference wanderator)."""
    i = prep.idx_by_seg.get(seg.id, -1)
    dtype = prep.sp.dtype
    if i < 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=dtype)
    sk = seg.reader.skips(i)
    if sk is None or len(sk["last_doc"]) < 8:
        # short list: decode fully — block pruning can't recoup its skip
        # bookkeeping below ~1k postings (the reference likewise enables
        # WAND only for lists longer than one block, formats_10.cpp:2355-57)
        docs, freqs = seg.reader.postings(i)
        docs = docs.astype(np.int64, copy=False)
        return docs, prep.sp.score(freqs, seg.reader.doc_len[docs - 1], seg.tiny)
    # best-case upper bound per block: max_freq at the most favorable length
    ub = _block_ub(prep, seg, i)
    if float((ub > threshold).mean()) > 0.5:
        # pruning degenerates (uniform head-term block maxima / loose
        # threshold): one whole-blob varint pass beats decoding most
        # blocks one at a time — measured 9x on a 1M-doc head term
        docs, freqs = seg.reader.postings(i)
        docs = docs.astype(np.int64, copy=False)
        return docs, prep.sp.score(freqs, seg.reader.doc_len[docs - 1], seg.tiny)
    out_docs: list[np.ndarray] = []
    out_scores: list[np.ndarray] = []
    kept = 0
    blobs = seg.reader.term_blobs(i)  # extract the varint blobs ONCE
    for b in np.argsort(-ub, kind="stable"):  # best blocks first -> tight threshold early
        if kept >= k and ub[b] <= threshold:
            # ub is visited descending and threshold only grows: every
            # remaining block is also prunable
            break
        mask = np.zeros(len(ub), dtype=bool)
        mask[b] = True
        docs, freqs = seg.reader.decode_blocks(i, mask, blobs=blobs)
        docs = docs.astype(np.int64, copy=False)
        scores = prep.sp.score(freqs, seg.reader.doc_len[docs - 1], seg.tiny)
        out_docs.append(docs)
        out_scores.append(scores)
        kept += len(docs)
        if kept >= k:
            threshold = _kth_floor(np.concatenate(out_scores), k, threshold)
    if not out_docs:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=dtype)
    docs = np.concatenate(out_docs)
    scores = np.concatenate(out_scores)
    order = np.argsort(docs, kind="stable")
    return docs[order], scores[order]


def mlt_terms(reader, seed_text: str, n_terms: int = 3,
              analyzer="ascii") -> list[str]:
    """Pick the seed text's top ``n_terms`` representative terms by
    tf-idf: tf within the seed times ln((N+1)/(df+1)), df summed over
    segment dictionaries, ties broken by term ascending.  Terms absent
    from the index (df=0) are skipped.  Deterministic by construction,
    so the whole selection is reproducible in SQL for the correctness
    oracle."""
    from collections import Counter

    from iresearch_ray.analysis import get_analyzer

    ana = get_analyzer(analyzer) if isinstance(analyzer, str) else analyzer
    tf = Counter(ana.tokens(seed_text))
    if not tf:
        return []
    n_total = reader.num_docs
    scored = []
    for t, f in tf.items():
        df = reader.df(t)
        if df > 0:
            w = float(f) * float(np.log((n_total + 1) / (df + 1)))
            scored.append((-w, t))
    scored.sort()
    return [t for _, t in scored[:n_terms]]


def more_like_this(searcher: IndexSearcher, seed_text: str,
                   n_terms: int = 3, k: int = 10, analyzer="ascii",
                   exclude_keys=()) -> pd.DataFrame:
    """Classic More-Like-This (the Lucene MoreLikeThis role, beyond the
    reference's filter surface): the seed's top tf-idf terms become a
    scored disjunction; the BM25 top-k matches excluding
    ``exclude_keys`` (normally the seed doc itself) are returned with
    the same (doc, key, score) shape as ``search``."""
    from iresearch_ray.search.filters import OrFilter, TermFilter

    terms = mlt_terms(searcher.reader, seed_text, n_terms, analyzer)
    if not terms:
        return hits_frame((), (), ())
    flt = OrFilter([TermFilter(t) for t in terms], min_match=1)
    excl = set(exclude_keys)
    out = searcher.search(flt, k=k + len(excl), mode="all")
    out = out[~out["key"].isin(excl)].head(k).reset_index(drop=True)
    return out
