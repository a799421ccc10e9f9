"""Filter tree: prepare (collect global stats) then execute.

Same two-phase shape as the reference (core/search/filter.hpp:52-139): a
filter ``prepare``s against the WHOLE index — summing df / field stats over
segments exactly like `field_collector` / `term_collector`
(core/search/bm25.cpp:209-256) — and the prepared node executes in one of
two ways:

- ``execute(seg)``: one segment, (sorted local doc ids, scores), masks NOT
  applied — the reference's per-segment execution, kept for every caller
  that walks segments itself (match listing, deletes, stored-field
  aggregates, the block-max top-k loop);
- ``execute_global(segments)``: the whole snapshot, (sorted global doc
  ids, scores) with masks applied.  Its default runs ``execute`` per
  segment, masks, shifts by ``base`` and concatenates.  Terms read the
  snapshot's memo of scored arrays instead, and unions, min-match,
  conjunctions and dictionary expansions combine their children's global
  arrays in one pass — a per-doc combination commutes with masking, and
  each doc's score is still summed in child order.  Positional and
  structural nodes (phrases, same-position, nested, ngram, all, column
  existence, not, proxy) keep the default.

All math is vectorized numpy over decoded posting arrays.

Composition semantics:
- And:     intersection, child scores summed (conjunction.hpp:97-260)
- Or:      union with ``min_match`` (disjunction.hpp:590,868;
           min_match_disjunction.hpp:43), scores summed over matched children
- Not:     positive minus negative matches (boolean_filter.cpp:599)
- Phrase:  exact positional adjacency; the phrase frequency is the scored
           tf and per-term idfs are summed into one stats buffer, as the
           reference collects per-position terms into one stats
           (phrase_query.cpp)
- Prefix / Range / Wildcard / Fuzzy: dictionary expansion; each matched
  term scored with its own global df; ``scored_terms_limit`` keeps only the
  N highest-df terms scored (reference limited_sample_collector.hpp:48-258)
  while the rest still match with zero score contribution.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from iresearch_ray.search import automaton
from iresearch_ray.search.scorers import FieldStats


def _empty(dtype):
    return np.empty(0, dtype=np.int64), np.empty(0, dtype=dtype)


def union_sum(docs_list, scores_list, counts_needed=False, dtype=np.float32):
    """Union posting arrays, summing scores per doc (stable child order).

    Dense accumulator over the doc ids (segment-local, or global over a
    snapshot) when the postings are dense enough — O(n_postings), no sort.
    Each child's docs are unique, so fancy-index += applies each child
    once and the per-doc addition order is child order — bitwise
    identical to the reference's heap-union accumulation.  The sparse
    path sums each doc's run in the same order, so the choice of path
    never changes a score."""
    pairs = [(d, s) for d, s in zip(docs_list, scores_list) if len(d)]
    if not pairs:
        out = _empty(dtype)
        return (*out, np.empty(0, dtype=np.int64)) if counts_needed else out
    m = max(int(d[-1]) for d, _ in pairs)  # docs sorted ascending per child
    n_post = sum(len(d) for d, _ in pairs)
    if n_post * 8 >= m:  # dense enough for the accumulator to win
        acc = np.zeros(m + 1, dtype=dtype)
        # one byte per doc while the child count fits: over a 5M-doc
        # global doc space the accumulators are the union's transient
        cnt = np.zeros(m + 1, dtype=np.uint8 if len(pairs) < 256
                       else np.int64)
        for d, s in pairs:
            acc[d] += s.astype(dtype, copy=False)
            cnt[d] += 1
        u_docs = np.flatnonzero(cnt).astype(np.int64, copy=False)
        u_scores = acc[u_docs]
        if counts_needed:
            return u_docs, u_scores, cnt[u_docs].astype(np.int64)
        return u_docs, u_scores
    # sparse: postings << segment size (e.g. rare terms in a consolidated
    # multi-million-doc segment) — O(n log n) merge beats an O(segment)
    # zeroed allocation; stable sort keeps per-doc addition in child order
    docs = np.concatenate([d for d, _ in pairs])
    scores = np.concatenate([s for _, s in pairs]).astype(dtype, copy=False)
    order = np.argsort(docs, kind="stable")
    docs, scores = docs[order], scores[order]
    new = np.empty(len(docs), dtype=bool)
    new[0] = True
    new[1:] = docs[1:] != docs[:-1]
    starts = np.flatnonzero(new)
    u_docs = docs[starts]
    # explicit empty+fill, not np.r_ (~35us of Python per call)
    ends = np.empty(len(starts), np.int64)
    ends[:-1] = starts[1:]
    ends[-1] = len(docs)
    lens = ends - starts
    # sum each doc's run left to right, as the dense accumulator does:
    # np.add.reduceat adds a run's tail pairwise, which rounds
    # differently once a doc matches three or more children
    u_scores = scores[starts]
    live = np.flatnonzero(lens > 1)
    j = 1
    while len(live):
        u_scores[live] += scores[starts[live] + j]
        j += 1
        live = live[lens[live] > j]
    if counts_needed:
        return u_docs, u_scores, lens
    return u_docs, u_scores


def intersect_sum(res, dtype):
    """Docs present in every child's (docs, scores) of ``res`` —
    intersected smallest-first, which is order-free — with the children's
    scores summed per doc in child order."""
    if not res:
        return _empty(dtype)
    order = sorted(range(len(res)), key=lambda i: len(res[i][0]))
    common = res[order[0]][0]
    for i in order[1:]:
        if not len(common):
            break
        common = common[_isin_sorted(common, res[i][0])]
    if not len(common):
        return _empty(dtype)
    total = np.zeros(len(common), dtype=dtype)
    for docs, scores in res:
        at = np.searchsorted(docs, common)
        total = total + scores[at].astype(dtype, copy=False)
    return common, total


class Filter:
    boost: float = 1.0

    def prepare(self, reader, scorer, df_map: dict | None = None) -> "Prepared":
        """Two-phase query compilation (reference filter::prepare).

        ``df_map`` optionally supplies GLOBAL term -> df stats collected
        elsewhere (the distributed path: actors report local dfs, the
        driver sums and passes the map back down); when None, stats are
        collected by scanning ``reader.segments`` directly.
        """
        raise NotImplementedError

    def terms_needed(self) -> set[str]:
        """Terms whose global df this filter's scoring depends on."""
        return set()


class Prepared:
    def execute(self, seg) -> tuple[np.ndarray, np.ndarray]:
        raise NotImplementedError

    def execute_global(self, segments) -> tuple[np.ndarray, np.ndarray]:
        """Every match over ``segments`` — the snapshot this node was
        prepared on — as (sorted int64 global docs, scores), masks
        applied: ``execute`` per segment, masked, shifted by ``base``."""
        docs_l, scores_l = [], []
        for seg in segments:
            docs, scores = seg.apply_mask(*self.execute(seg))
            if len(docs):
                docs_l.append(docs + seg.base)
                scores_l.append(scores)
        if not docs_l:
            return _empty(np.float64)
        return np.concatenate(docs_l), np.concatenate(scores_l)

    def route(self, seg):
        """(node, segment) the executor should run WAND kernels against —
        identity by default; field-bound wrappers re-route to their own
        sub-index's aligned segment (doc ids align by construction)."""
        return self, seg



def df_collect_nodes(flt) -> list:
    """Nodes of a filter tree that need a global df collect round in
    distributed serving: dictionary expansions and variadic phrases.
    Field-routing wrappers (Fielded) are returned AS the node — their
    expand_dfs covers the inner tree against the right sub-index — and
    are not descended into."""
    from iresearch_ray.search.filters import PhraseFilter, _ExpansionFilter

    needs = isinstance(flt, _ExpansionFilter) or (
        isinstance(flt, PhraseFilter) and not flt.fixed)
    if getattr(flt, "_df_collect_boundary", False):  # Fielded + subclasses
        return [flt]
    out = [flt] if needs else []
    for attr in ("children", "filters"):
        kids = getattr(flt, attr, None)
        if isinstance(kids, (list, tuple)):
            for c in kids:
                if isinstance(c, Filter):
                    out.extend(df_collect_nodes(c))
    for attr in ("positive", "negative", "inner", "parent", "child"):
        kid = getattr(flt, attr, None)
        if isinstance(kid, Filter):
            out.extend(df_collect_nodes(kid))
    return out


def _aligned_keys(seg_reader, ti: int, i: int) -> np.ndarray:
    """Occurrence keys of term row ``ti`` shifted to the phrase start for
    a term at phrase offset ``i``: ``(doc << pos_bits) | (position - i)``
    over the occurrences with position >= i (subtracting i elsewhere
    would borrow into the doc id).  Sorted, like the cached keys."""
    base = seg_reader.occurrence_keys(ti)
    if not i:
        return base
    pos_mask = (np.int64(1) << np.int64(seg_reader.pos_bits)) - np.int64(1)
    return base[(base & pos_mask) >= i] - np.int64(i)


def _isin_sorted(keys: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Membership of sorted ``keys`` in sorted ``k`` via searchsorted —
    no re-sort (np.isin would sort both again)."""
    if not len(k):
        return np.zeros(len(keys), dtype=bool)
    at = np.searchsorted(k, keys)
    return (at < len(k)) & (k[np.minimum(at, len(k) - 1)] == keys)


# ---------------------------------------------------------------- term ----
class TermFilter(Filter):
    """Exact term match (reference by_term, core/search/term_filter.cpp)."""

    def __init__(self, term: str, boost: float = 1.0):
        self.term, self.boost = term, boost

    def terms_needed(self):
        return {self.term}

    def prepare(self, reader, scorer, df_map=None):
        rows, df, idx_by_seg = reader.memo.rows(self.term)
        if df_map is not None:
            df = df_map.get(self.term, 0)
        return _PreparedTerm(self.term, rows, idx_by_seg, reader.memo,
                             scorer.prepare(reader.stats, df, self.boost))


class _PreparedTerm(Prepared):
    def __init__(self, term, rows, idx_by_seg, memo, scorer_prep):
        self.term, self.rows, self.idx_by_seg = term, rows, idx_by_seg
        self.memo = memo
        self.sp = scorer_prep

    def execute_global(self, segments):
        if segments is not self.memo.segments:
            return super().execute_global(segments)
        return self.memo.scored(self.term, self.rows, self.sp)

    def execute(self, seg):
        i = self.idx_by_seg.get(seg.id, -1)
        if i < 0:
            return _empty(self.sp.dtype)
        docs, freqs = seg.reader.postings(i)
        docs = docs.astype(np.int64, copy=False)
        scores = self.sp.score(freqs, seg.reader.doc_len[docs - 1], seg.tiny)
        return docs, scores


# ---------------------------------------------------- explicit term set ----
class TermsFilter(Filter):
    """Disjunction over an explicit term set with per-term boosts
    (reference by_terms, core/search/terms_filter.cpp:170)."""

    def __init__(self, terms, boosts=None, boost: float = 1.0):
        self.terms = list(terms)
        self.boosts = list(boosts) if boosts else [1.0] * len(self.terms)
        self.boost = boost

    def terms_needed(self):
        return set(self.terms)

    def prepare(self, reader, scorer, df_map=None):
        children = [TermFilter(t, b * self.boost).prepare(reader, scorer, df_map)
                    for t, b in zip(self.terms, self.boosts)]
        return _PreparedUnion(children, 1, scorer.dtype)


class _PreparedUnion(Prepared):
    def __init__(self, children, min_match, dtype):
        self.children = children
        self.min_match = min_match
        self.dtype = dtype

    def execute(self, seg):
        docs, scores, _ = self.execute_counts(seg)
        return docs, scores

    def execute_counts(self, seg):
        """(docs, scores, n matched children per doc) after min_match."""
        return self._combine([c.execute(seg) for c in self.children], True)

    def execute_global(self, segments):
        docs, scores, _ = self._combine([c.execute_global(segments)
                                         for c in self.children], False)
        return docs, scores

    def _combine(self, res, counts_needed: bool):
        """union_sum + min_match; counts are None unless asked for (a
        global union's counts array is as long as its result)."""
        need = counts_needed or self.min_match > 1
        out = union_sum([r[0] for r in res], [r[1] for r in res],
                        counts_needed=need, dtype=self.dtype)
        if not need:
            return (*out, None)
        docs, scores, counts = out
        if self.min_match > 1:
            keep = counts >= self.min_match
            return docs[keep], scores[keep], counts[keep]
        return docs, scores, counts


# ------------------------------------------------------------- boolean ----
class AndFilter(Filter):
    """Conjunction; child scores summed (reference And, conjunction.hpp)."""

    def __init__(self, children, boost: float = 1.0):
        self.children = list(children)
        self.boost = boost

    def terms_needed(self):
        return set().union(*(c.terms_needed() for c in self.children))

    def prepare(self, reader, scorer, df_map=None):
        return _PreparedAnd([c.prepare(reader, scorer, df_map)
                             for c in self.children], scorer.dtype)


class _PreparedAnd(Prepared):
    def __init__(self, children, dtype):
        self.children = children
        self.dtype = dtype

    def execute(self, seg):
        return intersect_sum([c.execute(seg) for c in self.children],
                             self.dtype)

    def execute_global(self, segments):
        return intersect_sum([c.execute_global(segments)
                              for c in self.children], self.dtype)


class OrFilter(Filter):
    """Disjunction with optional min_match (reference Or(min_match_count))."""

    def __init__(self, children, min_match: int = 1, boost: float = 1.0):
        self.children = list(children)
        self.min_match = min_match
        self.boost = boost

    def terms_needed(self):
        return set().union(*(c.terms_needed() for c in self.children))

    def prepare(self, reader, scorer, df_map=None):
        return _PreparedUnion([c.prepare(reader, scorer, df_map)
                               for c in self.children],
                              self.min_match, scorer.dtype)


class NotFilter(Filter):
    """positive AND NOT negative (reference exclusion / Not)."""

    def __init__(self, positive: Filter, negative: Filter, boost: float = 1.0):
        self.positive, self.negative = positive, negative
        self.boost = boost

    def terms_needed(self):
        return self.positive.terms_needed() | self.negative.terms_needed()

    def prepare(self, reader, scorer, df_map=None):
        return _PreparedNot(self.positive.prepare(reader, scorer, df_map),
                            self.negative.prepare(reader, scorer, df_map),
                            scorer.dtype)


class _PreparedNot(Prepared):
    def __init__(self, pos, neg, dtype):
        self.pos, self.neg, self.dtype = pos, neg, dtype

    def execute(self, seg):
        docs, scores = self.pos.execute(seg)
        if not len(docs):
            return _empty(self.dtype)
        ndocs, _ = self.neg.execute(seg)
        keep = ~np.isin(docs, ndocs, assume_unique=True)
        return docs[keep], scores[keep]


class AllFilter(Filter):
    """Match-all, constant boost score (reference all_filter.cpp)."""

    def __init__(self, boost: float = 1.0):
        self.boost = boost

    def prepare(self, reader, scorer, df_map=None):
        return _PreparedAll(self.boost, scorer.dtype)


class _PreparedAll(Prepared):
    def __init__(self, boost, dtype):
        self.boost, self.dtype = boost, dtype

    def execute(self, seg):
        docs = np.arange(1, seg.reader.num_docs + 1, dtype=np.int64)
        return docs, np.full(len(docs), self.dtype(self.boost), dtype=self.dtype)


class EmptyFilter(Filter):
    """Match-none node (reference empty filter, core/search/filter.hpp
    irs::empty / empty_filter_tests.cpp): useful as a neutral element when
    composing query trees programmatically."""

    def prepare(self, reader, scorer, df_map=None):
        return _PreparedEmpty(scorer.dtype)


class _PreparedEmpty(Prepared):
    def __init__(self, dtype):
        self.dtype = dtype

    def execute(self, seg):
        return _empty(self.dtype)


# -------------------------------------------------- column existence ----
class ColumnExistenceFilter(Filter):
    """Docs holding a stored column (reference by_column_existence,
    core/search/column_existence_filter.cpp): constant boost score, like
    the reference's filter-boost scoring of existence matches."""

    def __init__(self, column: str, boost: float = 1.0):
        self.column, self.boost = column, boost

    def prepare(self, reader, scorer, df_map=None):
        return _PreparedColumnExistence(self.column, self.boost, scorer.dtype)


class _PreparedColumnExistence(Prepared):
    def __init__(self, column, boost, dtype):
        self.column, self.boost, self.dtype = column, boost, dtype

    def execute(self, seg):
        docs = seg.reader.column_docs(self.column)
        return docs, np.full(len(docs), self.dtype(self.boost), dtype=self.dtype)


# -------------------------------------------------------------- phrase ----
def _phrase_parts(terms) -> list[dict]:
    """Normalize phrase elements (reference by_phrase variadic parts,
    core/search/phrase_filter.hpp:42-148): str -> exact term; list/set ->
    any-of term set; dict -> {"term"|"any"|"prefix"|"wildcard"|"fuzzy"...}."""
    parts = []
    for p in terms:
        if isinstance(p, str):
            parts.append({"term": p})
        elif isinstance(p, (list, tuple, set, frozenset)):
            parts.append({"any": sorted(p)})
        elif isinstance(p, dict):
            if not ({"term", "any", "prefix", "wildcard", "fuzzy"} & set(p)):
                raise ValueError(f"unknown phrase part {p!r}")
            parts.append(p)
        else:
            raise TypeError(f"bad phrase part {p!r}")
    return parts


class PhraseFilter(Filter):
    """Positional phrase over consecutive tokens (reference by_phrase,
    core/search/phrase_filter.hpp:42-148).  Fixed flavor: all parts exact
    terms (rank-identical scoring: per-term idfs summed into one stats
    buffer, phrase_query.cpp).  Variadic flavor: a part may be an any-of
    set, prefix, wildcard, or fuzzy probe; a variadic position's df is the
    clamped sum of its matched terms' dfs (documented approximation of the
    reference's per-variant term_collector union)."""

    def __init__(self, terms, boost: float = 1.0):
        if not terms:
            raise ValueError("empty phrase")
        self.parts = _phrase_parts(terms)
        self.fixed = all(set(p) == {"term"} for p in self.parts)
        self.terms = [p["term"] for p in self.parts] if self.fixed else []
        self.boost = boost

    def terms_needed(self):
        out = set(self.terms)
        for p in self.parts:
            out |= set(p.get("any", ()))
        return out

    @staticmethod
    def _part_key(part: dict) -> str:
        """Stable df_map key for one variadic part (content-derived so
        identical parts in different filters share the same global df)."""
        return "__vppart__:" + repr(sorted(part.items()))

    def expand_dfs(self, reader) -> dict:
        """Distributed collect half for variadic phrases: one scalar per
        part — the sum of locally matched terms' local dfs.  Summed by the
        driver across segment groups this equals the global per-part
        df_sum, because part matching depends only on the term string (a
        term matched in one group is matched wherever it exists)."""
        if self.fixed:
            return {}
        out: dict[str, int] = {}
        for part in self.parts:
            key = self._part_key(part)
            if key in out:  # duplicate part: same matched set, count once
                continue
            s = 0
            for seg in reader.segments:
                rows = self._part_rows(part, seg.reader)
                if len(rows):
                    s += int(seg.reader.df_array()[rows].sum())
            out[key] = s
        return out

    @staticmethod
    def _part_rows(part: dict, r) -> np.ndarray:
        """Dictionary rows matched by one variadic part in one segment."""
        if "term" in part:
            i = r.lookup(part["term"])
            return (np.array([i], dtype=np.int64) if i >= 0
                    else np.empty(0, dtype=np.int64))
        if "any" in part:
            idxs = [r.lookup(t) for t in part["any"]]
            return np.array(sorted(i for i in idxs if i >= 0), dtype=np.int64)
        if "prefix" in part:
            lo, hi = r.prefix_range(part["prefix"])
            return np.arange(lo, hi, dtype=np.int64)
        if "wildcard" in part:
            return automaton.match_wildcard(r.terms, part["wildcard"])
        if "fuzzy" in part:
            rows, _ = automaton.match_fuzzy(
                r.terms, part["fuzzy"], int(part.get("max_distance", 1)),
                int(part.get("prefix_len", 0)))
            return rows
        raise ValueError(f"unknown phrase part {part!r}")

    def prepare(self, reader, scorer, df_map=None):
        if self.fixed:
            idf_sum = 0.0
            idx_maps = []
            for t in self.terms:
                _, df, idxs = reader.memo.rows(t)
                if df_map is not None:
                    df = df_map.get(t, 0)
                idf_sum += scorer.idf(reader.stats.docs_with_field, df)
                idx_maps.append(idxs)
            prep = scorer.prepare(reader.stats, df=0, boost=self.boost,
                                  idf_override=idf_sum)
            return _PreparedPhrase(idx_maps, prep)
        idf_sum = 0.0
        pos_rows = []
        n_field = reader.stats.docs_with_field
        for part in self.parts:
            rows_by_seg: dict[str, np.ndarray] = {}
            df_sum = 0
            for seg in reader.segments:
                rows = self._part_rows(part, seg.reader)
                rows_by_seg[seg.id] = rows
                if len(rows):
                    df_sum += int(seg.reader.df_array()[rows].sum())
            pk = self._part_key(part)
            if df_map is not None and pk in df_map:
                # distributed: global per-part df from the collect round,
                # identical on every actor (group-local dfs would give
                # group-dependent idfs and corrupt the merged ranking)
                df_sum = int(df_map[pk])
            idf_sum += scorer.idf(n_field, min(df_sum, n_field))
            pos_rows.append(rows_by_seg)
        prep = scorer.prepare(reader.stats, df=0, boost=self.boost,
                              idf_override=idf_sum)
        return _PreparedVarPhrase(pos_rows, prep)


class _PreparedVarPhrase(Prepared):
    """Variadic phrase: per position, UNION the matched terms' occurrence
    keys, then intersect aligned (doc, start) keys across positions."""

    def __init__(self, pos_rows, scorer_prep):
        self.pos_rows = pos_rows
        self.sp = scorer_prep

    def execute(self, seg):
        keys = None
        for i, rows_by_seg in enumerate(self.pos_rows):
            rows = rows_by_seg.get(seg.id)
            if rows is None or len(rows) == 0:
                return _empty(self.sp.dtype)
            ks = [_aligned_keys(seg.reader, int(r), i) for r in rows]
            k = np.unique(np.concatenate(ks))  # variants may share a start
            keys = k if keys is None else keys[_isin_sorted(keys, k)]
            if len(keys) == 0:
                return _empty(self.sp.dtype)
        match_docs = keys >> np.int64(seg.reader.pos_bits)
        u_docs, phrase_freq = np.unique(match_docs, return_counts=True)
        scores = self.sp.score(phrase_freq, seg.reader.doc_len[u_docs - 1],
                               seg.tiny)
        return u_docs, scores


class _PreparedPhrase(Prepared):
    def __init__(self, idx_maps, scorer_prep):
        self.idx_maps = idx_maps
        self.sp = scorer_prep

    def execute(self, seg):
        # aligned occurrence keys (doc << pos_bits) | (position -
        # part_index) per part, from the reader's cached sorted key
        # arrays; intersect SMALLEST-first (order-free: symmetric)
        pb = np.int64(seg.reader.pos_bits)
        parts = []
        for i, idxs in enumerate(self.idx_maps):
            ti = idxs.get(seg.id, -1)
            if ti < 0:
                return _empty(self.sp.dtype)
            parts.append(_aligned_keys(seg.reader, ti, i))
        parts.sort(key=len)
        doc_len = seg.reader.doc_len
        occ = sum(len(p) for p in parts)
        dense = (len(doc_len) + 2) << int(pb)
        if dense <= 32 * occ + (1 << 16):
            # dense-mark intersection: mark the rarest part's keys in a
            # boolean table, gather the others — O(occ) with no
            # per-element binary search (searchsorted is ~40ns/element;
            # this is one vectorized scatter + gathers).  A fresh
            # np.zeros per part is deliberate: calloc's lazily-zeroed
            # pages beat a reused scratch that needs an extra un-scatter
            # pass (measured interleaved, 34.4 vs 37.5 ms HighPhrase)
            keys = parts[0]
            for k in parts[1:]:
                mark = np.zeros(dense, dtype=bool)
                mark[keys] = True  # keys unique: plain scatter, no .at
                keys = k[mark[k]]
                if len(keys) == 0:
                    return _empty(self.sp.dtype)
        else:
            keys = parts[0]
            for k in parts[1:]:
                keys = keys[_isin_sorted(keys, k)]
                if len(keys) == 0:
                    return _empty(self.sp.dtype)
        match_docs = keys >> pb
        # match_docs is sorted: boundary-diff unique beats np.unique's
        # sort.  Explicit empty+fill, not np.r_ — np.r_ is ~35us of
        # Python per call, 2 calls per segment execute
        idx = np.flatnonzero(match_docs[1:] != match_docs[:-1])
        starts = np.empty(len(idx) + 1, np.int64)
        starts[0] = 0
        starts[1:] = idx + 1
        u_docs = match_docs[starts]
        ends = np.empty_like(starts)
        ends[:-1] = starts[1:]
        ends[-1] = len(match_docs)
        phrase_freq = ends - starts
        scores = self.sp.score(phrase_freq, seg.reader.doc_len[u_docs - 1], seg.tiny)
        return u_docs, scores


# ------------------------------------------------- nested (block join) ----
class NestedFilter(Filter):
    """Parent/child block join (reference ByNestedFilter,
    core/search/nested_filter.cpp; Lucene block-join layout): children are
    indexed immediately BEFORE their parent doc in the same segment; a
    matched child resolves to the nearest following parent (the reference's
    prev_doc walked from the other side).

    ``merge``: how child scores fold into the parent's score — 'sum', 'avg',
    'max', 'min', or 'none' (constant boost).  ``min_children``: parent
    matches only if at least this many of its children match.
    """

    def __init__(self, parent: Filter, child: Filter, merge: str = "sum",
                 min_children: int = 1, boost: float = 1.0):
        if merge not in ("sum", "avg", "max", "min", "none"):
            raise ValueError(f"bad merge {merge!r}")
        self.parent, self.child = parent, child
        self.merge = merge
        self.min_children = int(min_children)
        self.boost = boost

    def terms_needed(self):
        return self.parent.terms_needed() | self.child.terms_needed()

    def prepare(self, reader, scorer, df_map=None):
        return _PreparedNested(self.parent.prepare(reader, scorer, df_map),
                               self.child.prepare(reader, scorer, df_map),
                               self.merge, self.min_children, self.boost,
                               scorer.dtype)


class _PreparedNested(Prepared):
    def __init__(self, pp, cp, merge, min_children, boost, dtype):
        self.pp, self.cp = pp, cp
        self.merge, self.min_children = merge, min_children
        self.boost, self.dtype = boost, dtype

    def execute(self, seg):
        parents, _ = self.pp.execute(seg)
        if not len(parents):
            return _empty(self.dtype)
        cdocs, cscores = self.cp.execute(seg)
        # children are non-parent docs; a parent doc matching the child
        # filter is not its own child
        if len(cdocs):
            at = np.searchsorted(parents, cdocs)
            is_parent = ((at < len(parents))
                         & (parents[np.minimum(at, len(parents) - 1)] == cdocs))
            cdocs, cscores = cdocs[~is_parent], cscores[~is_parent]
        if not len(cdocs):
            return _empty(self.dtype)
        owner = np.searchsorted(parents, cdocs, side="left")
        ok = owner < len(parents)  # trailing children with no parent drop
        owner, cscores = owner[ok], cscores[ok]
        if not len(owner):
            return _empty(self.dtype)
        u_own, counts = np.unique(owner, return_counts=True)
        if self.merge == "sum" or self.merge == "avg":
            agg = np.zeros(len(parents), dtype=np.float64)
            np.add.at(agg, owner, cscores.astype(np.float64))
            vals = agg[u_own]
            if self.merge == "avg":
                vals = vals / counts
        elif self.merge == "max":
            agg = np.full(len(parents), -np.inf)
            np.maximum.at(agg, owner, cscores.astype(np.float64))
            vals = agg[u_own]
        elif self.merge == "min":
            agg = np.full(len(parents), np.inf)
            np.minimum.at(agg, owner, cscores.astype(np.float64))
            vals = agg[u_own]
        else:  # none
            vals = np.full(len(u_own), self.boost, dtype=np.float64)
        keep = counts >= self.min_children
        return (parents[u_own[keep]].astype(np.int64),
                vals[keep].astype(self.dtype))


# ---------------------------------------------------- ngram similarity ----
class NgramSimilarityFilter(Filter):
    """Docs whose longest positionally-ordered common ngram sequence with
    the query covers >= ``threshold`` of the query's ngrams (reference
    by_ngram_similarity, core/search/ngram_similarity_filter.cpp — LCS with
    positional chaining, ngram_similarity_query.cpp).

    ``ngrams``: the query's ngram sequence (produce with NgramAnalyzer).
    Score = boost * (longest_chain / num_query_ngrams) — the similarity
    ratio itself (documented deviation: the reference feeds the ratio into
    its scorer stats; we score the ratio directly).
    """

    def __init__(self, ngrams, threshold: float = 0.7, boost: float = 1.0):
        if not ngrams:
            raise ValueError("empty ngram sequence")
        if not (0.0 < threshold <= 1.0):
            raise ValueError("threshold must be in (0, 1]")
        self.ngrams = list(ngrams)
        self.threshold = threshold
        self.boost = boost

    def terms_needed(self):
        return set(self.ngrams)

    def prepare(self, reader, scorer, df_map=None):
        idx_maps = [reader.memo.rows(t)[2] for t in self.ngrams]
        m = len(self.ngrams)
        min_matches = max(1, int(np.ceil(self.threshold * m)))
        return _PreparedNgramSim(idx_maps, m, min_matches, self.boost,
                                 scorer.dtype)


class _PreparedNgramSim(Prepared):
    def __init__(self, idx_maps, m, min_matches, boost, dtype):
        self.idx_maps = idx_maps
        self.m = m
        self.min_matches = min_matches
        self.boost = boost
        self.dtype = dtype

    def execute(self, seg):
        from bisect import bisect_left

        occ_d, occ_p, occ_q = [], [], []
        for qi, idxs in enumerate(self.idx_maps):
            ti = idxs.get(seg.id, -1)
            if ti < 0:
                continue
            docs, freqs, pos, _ = seg.reader.postings(ti, positions=True)
            occ_d.append(np.repeat(docs.astype(np.int64), freqs))
            occ_p.append(pos.astype(np.int64, copy=False))
            occ_q.append(np.full(int(freqs.sum()), qi, dtype=np.int64))
        if not occ_d:
            return _empty(self.dtype)
        d = np.concatenate(occ_d)
        p = np.concatenate(occ_p)
        q = np.concatenate(occ_q)
        # prefilter: chain length <= distinct matched query indexes per doc
        du, dinv = np.unique(d, return_inverse=True)
        pair = dinv * np.int64(self.m) + q
        upair = np.unique(pair)
        distinct = np.bincount(upair // self.m, minlength=len(du))
        cand = np.flatnonzero(distinct >= self.min_matches)
        if not len(cand):
            return _empty(self.dtype)
        keep = np.isin(dinv, cand)
        d, p, q = d[keep], p[keep], q[keep]
        # LCS via Hunt–Szymanski: sort by (doc, pos asc, qidx desc), then
        # longest strictly-increasing subsequence of qidx per doc
        order = np.lexsort((-q, p, d))
        d, q = d[order], q[order]
        idx = np.flatnonzero(d[1:] != d[:-1])
        bounds = np.empty(len(idx) + 2, np.int64)  # not np.r_: ~35us/call
        bounds[0] = 0
        bounds[1:-1] = idx + 1
        bounds[-1] = len(d)
        starts, lens = bounds[:-1], np.diff(bounds)
        # kernel choice is a SIZE crossover, measured interleaved on the
        # 200k-doc bench: the bitmask DP pays ~10 whole-array numpy ops
        # per occurrence ordinal, which beats the per-doc Python bisect
        # loop only once a segment has >=~100 candidate docs (HighNGram
        # 312 docs/seg: 1.6x faster; LowNGram 4 docs/seg: 1.35x slower)
        if self.m <= 63 and len(starts) >= 128:
            # vectorized patience DP: the tails array of the classic LIS
            # is a strictly increasing SUBSET of {0..m-1}, i.e. an m-bit
            # mask per doc.  bisect-replace becomes pure bit ops, and the
            # per-doc sequential scan vectorizes ACROSS docs by
            # processing occurrence ordinal r of every doc together
            T = np.zeros(len(starts), dtype=np.int64)
            active = np.arange(len(starts), dtype=np.int64)
            r = 0
            max_len = int(lens.max()) if len(lens) else 0
            while r < max_len:
                live = lens[active] > r
                active = active[live]
                t = T[active]
                x = q[starts[active] + r]
                xbit = np.int64(1) << x
                # remove the smallest tail element > x (patience replace);
                # if x already present the state is unchanged
                z = (t >> (x + np.int64(1))) << (x + np.int64(1))
                rm = z & -z
                T[active] = np.where((t & xbit) != 0, t,
                                     (t | xbit) & ~rm)
                r += 1
            # SWAR popcount of the m-bit tail masks = chain lengths
            v = T.astype(np.uint64)
            v = v - ((v >> np.uint64(1)) & np.uint64(0x5555555555555555))
            v = ((v & np.uint64(0x3333333333333333))
                 + ((v >> np.uint64(2)) & np.uint64(0x3333333333333333)))
            v = (v + (v >> np.uint64(4))) & np.uint64(0x0F0F0F0F0F0F0F0F)
            chains = ((v * np.uint64(0x0101010101010101))
                      >> np.uint64(56)).astype(np.int64)
            keep2 = chains >= self.min_matches
            if not keep2.any():
                return _empty(self.dtype)
            docs = d[starts[keep2]]
            scores = ((chains[keep2] / self.m) * self.boost).astype(self.dtype)
            return docs, scores
        out_docs, out_scores = [], []
        for s, e in zip(bounds[:-1], bounds[1:]):
            tails: list[int] = []
            for x in q[s:e]:
                i = bisect_left(tails, x)
                if i == len(tails):
                    tails.append(x)
                else:
                    tails[i] = x
            chain = len(tails)
            if chain >= self.min_matches:
                out_docs.append(int(d[s]))
                out_scores.append(chain / self.m)
        if not out_docs:
            return _empty(self.dtype)
        docs = np.asarray(out_docs, dtype=np.int64)
        scores = (np.asarray(out_scores) * self.boost).astype(self.dtype)
        return docs, scores


# ----------------------------------------------- dictionary expansions ----
class _ExpansionFilter(Filter):
    """Base for prefix/range/wildcard/fuzzy: match dictionary rows per
    segment, collect global df per matched term string, score the
    ``scored_terms_limit`` highest-df terms (None = all)."""

    scored_terms_limit: int | None = None

    def __init__(self, boost: float = 1.0, scored_terms_limit: int | None = None):
        self.boost = boost
        self.scored_terms_limit = scored_terms_limit

    def _match(self, seg_reader) -> np.ndarray:
        raise NotImplementedError

    def _match_key(self) -> tuple:
        """Cache key of the *match set* — the matching params only
        (boost / scored_terms_limit change scoring, not which dictionary
        rows match), so repeated fuzzy/prefix/wildcard probes with
        different scoring knobs still share one cached row array."""
        params = sorted((k, repr(v)) for k, v in self.__dict__.items()
                        if k not in ("boost", "scored_terms_limit"))
        return ("__match__", type(self).__name__, tuple(params))

    def _cached_match(self, seg_reader) -> np.ndarray:
        """Matched dictionary rows, cached in the reader's postings LRU
        (the reference caches parametric-Levenshtein automata per
        (term, distance), levenshtein_default_pdp.cpp — here the cached
        artifact is the matched-row array itself, so a repeated fuzzy /
        wildcard probe skips the banded DP / regex sweep entirely)."""
        ce = getattr(seg_reader, "cached_entry", None)
        if ce is None:
            return self._match(seg_reader)
        # oversize_bypass: one broad wildcard/range can match most of a
        # large dictionary — serving it uncached beats flushing every
        # postings/skips entry for an array too big to retain anyway
        return ce(self._match_key(), lambda: self._match(seg_reader),
                  oversize_bypass=True)

    def _node_key(self) -> str:
        """Content-derived df_map namespace for THIS expansion node.
        Without it, every entry of the shared flat df_map (sibling exact
        terms, other nodes' matches, phrase-part sums) would be adopted
        as a matched-term df and could crowd real matches out of the
        scored_terms_limit cut (verified ranking corruption)."""
        params = sorted((k, repr(v)) for k, v in self.__dict__.items()
                        if k != "boost")
        return f"__exp__:{type(self).__name__}:{params!r}:"

    def expand_dfs(self, reader) -> dict:
        """Matched term -> summed df over ``reader.segments`` (the
        collect half of distributed expansion: each actor reports its
        groups' contribution, the driver sums).  Keys carry the node's
        namespace prefix; prepare() only consumes its own entries."""
        pfx = self._node_key()
        df_by_term: dict[str, int] = defaultdict(int)
        for seg in reader.segments:
            rows = self._cached_match(seg.reader)
            if len(rows):
                terms = seg.reader.terms[rows]
                dfs = seg.reader.df_array()[rows]
                for t, d in zip(terms, dfs):
                    df_by_term[pfx + t] += int(d)
        return dict(df_by_term)

    def prepare(self, reader, scorer, df_map=None):
        matches = {seg.id: self._cached_match(seg.reader)
                   for seg in reader.segments}
        local_df: dict[str, int] = defaultdict(int)
        for seg in reader.segments:
            rows = matches[seg.id]
            if len(rows):
                terms = seg.reader.terms[rows]
                dfs = seg.reader.df_array()[rows]
                for t, d in zip(terms, dfs):
                    local_df[t] += int(d)
        if df_map is not None:
            pfx = self._node_key()
            df_by_term: dict[str, int] = {
                k[len(pfx):]: v for k, v in df_map.items()
                if isinstance(k, str) and k.startswith(pfx)}
        else:
            df_by_term = dict(local_df)
        scored = set(df_by_term)
        if self.scored_terms_limit is not None and len(scored) > self.scored_terms_limit:
            best = sorted(df_by_term.items(), key=lambda kv: (-kv[1], kv[0]))
            scored = {t for t, _ in best[:self.scored_terms_limit]}
        preps = {t: scorer.prepare(reader.stats, df_by_term[t], self.boost)
                 for t in scored}
        return _PreparedExpansion(matches, preps, scorer.dtype,
                                  sorted(local_df), reader.memo)


class _ZeroScore:
    """Scores every posting 0: a matched term beyond scored_terms_limit."""

    def __init__(self, dtype):
        self.dtype = dtype

    def score(self, freqs, doc_lens, tiny):
        return np.zeros(len(freqs), dtype=self.dtype)

    def key(self):
        return ("zero",)


class _PreparedExpansion(Prepared):
    def __init__(self, matches, preps, dtype, terms, memo):
        self.matches = matches
        self.preps = preps
        self.dtype = dtype
        self.terms = terms  # matched in the snapshot, code-point order
        self.memo = memo

    def execute_global(self, segments):
        """Every matched term's memo entry, summed per doc in code-point
        term order — each segment's dictionary row order."""
        if segments is not self.memo.segments:
            return super().execute_global(segments)
        zero = _ZeroScore(self.dtype)
        docs_l, scores_l = [], []
        for t in self.terms:
            docs, scores = self.memo.scored(t, self.memo.rows(t)[0],
                                            self.preps.get(t, zero))
            docs_l.append(docs)
            scores_l.append(scores)
        return union_sum(docs_l, scores_l, dtype=self.dtype)

    def execute(self, seg):
        docs, scores, _ = self.execute_counts(seg)
        return docs, scores

    def execute_counts(self, seg):
        """(docs, scores, n distinct matched terms per doc)."""
        rows = self.matches.get(seg.id)
        if rows is None or len(rows) == 0:
            e = _empty(self.dtype)
            return e[0], e[1], np.empty(0, dtype=np.int64)
        docs_l, scores_l = [], []
        terms = seg.reader.terms
        for r in rows:
            docs, freqs = seg.reader.postings(int(r))
            docs = docs.astype(np.int64, copy=False)
            sp = self.preps.get(terms[r])
            if sp is None:  # matched but unscored (beyond scored_terms_limit)
                scores = np.zeros(len(docs), dtype=self.dtype)
            else:
                scores = sp.score(freqs, seg.reader.doc_len[docs - 1], seg.tiny)
            docs_l.append(docs)
            scores_l.append(scores)
        return union_sum(docs_l, scores_l, counts_needed=True, dtype=self.dtype)


class PrefixFilter(_ExpansionFilter):
    """Term-prefix scan (reference by_prefix)."""

    def __init__(self, prefix: str, **kw):
        super().__init__(**kw)
        self.prefix = prefix

    def _match(self, r):
        lo, hi = r.prefix_range(self.prefix)
        return np.arange(lo, hi, dtype=np.int64)


class RangeFilter(_ExpansionFilter):
    """Dictionary range scan (reference by_range)."""

    def __init__(self, lo=None, hi=None, include_lo=True, include_hi=False, **kw):
        super().__init__(**kw)
        self.lo, self.hi = lo, hi
        self.include_lo, self.include_hi = include_lo, include_hi

    def _match(self, r):
        lo, hi = r.term_range(self.lo, self.hi, self.include_lo, self.include_hi)
        return np.arange(lo, hi, dtype=np.int64)


class WildcardFilter(_ExpansionFilter):
    """%/_ pattern over the dictionary (reference by_wildcard)."""

    def __init__(self, pattern: str, **kw):
        super().__init__(**kw)
        self.pattern = pattern

    def _match(self, r):
        return automaton.match_wildcard(r.terms, self.pattern)


class GranularRangeFilter(_ExpansionFilter):
    """Numeric [lo, hi] range over granularity terms (reference
    by_granular_range, core/search/granular_range_filter.cpp): dictionary
    scans at multiple precision levels instead of one flat value scan."""

    def __init__(self, lo: int, hi: int, step: int | None = None, **kw):
        super().__init__(**kw)
        from iresearch_ray.analysis.numeric import PRECISION_STEP_DEF, cover_term_ranges

        self.lo, self.hi = int(lo), int(hi)
        self.step = step or PRECISION_STEP_DEF
        self._ranges = cover_term_ranges(self.lo, self.hi, self.step)

    def _match(self, r):
        parts = []
        for t_lo, t_hi in self._ranges:
            a, b = r.term_range(t_lo, t_hi, include_lo=True, include_hi=True)
            if b > a:
                parts.append(np.arange(a, b, dtype=np.int64))
        if not parts:
            return np.empty(0, dtype=np.int64)
        return np.concatenate(parts)


class SamePositionFilter(Filter):
    """All terms co-occurring at the SAME position (reference
    by_same_position, core/search/same_position_filter.cpp) — the offset-0
    variant of the phrase intersection."""

    def __init__(self, terms, boost: float = 1.0):
        if not terms:
            raise ValueError("empty same-position term list")
        self.terms = list(terms)
        self.boost = boost

    def terms_needed(self):
        return set(self.terms)

    def prepare(self, reader, scorer, df_map=None):
        inner = PhraseFilter(self.terms, boost=self.boost)
        prep = inner.prepare(reader, scorer, df_map)
        return _PreparedSamePosition(prep)


class _PreparedSamePosition(Prepared):
    def __init__(self, phrase_prep):
        self.pp = phrase_prep
        self.sp = phrase_prep.sp

    def execute(self, seg):
        keys = None  # occurrence keys, no per-term offset
        for idxs in self.pp.idx_maps:
            ti = idxs.get(seg.id, -1)
            if ti < 0:
                return _empty(self.sp.dtype)
            k = seg.reader.occurrence_keys(ti)
            keys = k if keys is None else keys[_isin_sorted(keys, k)]
            if len(keys) == 0:
                return _empty(self.sp.dtype)
        match_docs = keys >> np.int64(seg.reader.pos_bits)
        u_docs, freq = np.unique(match_docs, return_counts=True)
        scores = self.sp.score(freq, seg.reader.doc_len[u_docs - 1], seg.tiny)
        return u_docs, scores


class ProxyFilter(Filter):
    """Per-segment result cache around an inner filter (reference
    proxy_filter, core/search/proxy_filter.hpp:36-41) — repeated execution
    against the same prepared query reuses the (docs, scores) arrays."""

    def __init__(self, inner: Filter):
        self.inner = inner
        self.boost = getattr(inner, "boost", 1.0)

    def terms_needed(self):
        return self.inner.terms_needed()

    def prepare(self, reader, scorer, df_map=None):
        return _PreparedProxy(self.inner.prepare(reader, scorer, df_map))


class _PreparedProxy(Prepared):
    def __init__(self, inner):
        self.inner = inner
        self._cache: dict[str, tuple] = {}

    def execute(self, seg):
        hit = self._cache.get(seg.id)
        if hit is None:
            hit = self.inner.execute(seg)
            self._cache[seg.id] = hit
        return hit


class FuzzyFilter(_ExpansionFilter):
    """Levenshtein distance <= max_distance (reference by_edit_distance;
    plain edit distance, no transpositions)."""

    def __init__(self, term: str, max_distance: int = 1, prefix_len: int = 0, **kw):
        super().__init__(**kw)
        self.term = term
        self.max_distance = max_distance
        self.prefix_len = prefix_len

    def _match(self, r):
        """Fully vectorized: length prefilter then banded DP over the
        segment's CACHED char matrix (r.term_chars) — no per-term Python
        work at query time (the reference's parametric-DFA-over-FST walk
        traded for numpy sweeps over the resident dictionary)."""
        from iresearch_ray.index.segment import prefix_upper_bound

        terms = r.terms
        if self.prefix_len:
            prefix = self.term[:self.prefix_len]
            lo = int(np.searchsorted(terms, prefix, side="left"))
            ub = prefix_upper_bound(prefix)
            hi = (len(terms) if ub is None
                  else int(np.searchsorted(terms, ub, side="left")))
        else:
            lo, hi = 0, len(terms)
        if hi <= lo:
            return np.empty(0, dtype=np.int64)
        mat, lens = r.term_chars
        lens_w = lens[lo:hi]
        feas = np.flatnonzero(np.abs(lens_w - len(self.term))
                              <= self.max_distance)
        if not len(feas):
            return np.empty(0, dtype=np.int64)
        if (len(self.term) + self.max_distance > mat.shape[1]
                and (lens_w[feas] > mat.shape[1]).any()):
            # the char matrix clips rows at TERM_CHARS_MAX_WIDTH; a
            # feasible term longer than the matrix would DP over
            # truncated chars — refuse loudly (only reachable with a
            # ~512-char fuzzy probe against a same-length mega-token)
            raise ValueError(
                f"fuzzy probe of {len(self.term)} chars exceeds the "
                f"term char-matrix width {mat.shape[1]}")
        d = automaton.levenshtein_from_matrix(mat[lo:hi][feas], lens_w[feas],
                                              self.term, self.max_distance)
        return lo + feas[d <= self.max_distance]
