"""Text-analysis stages: quality scores, language-ID, token counts,
top terms — all map_batches + small pre-aggregated groupbys.

Each operator tokenizes with the deterministic `ascii` analyzer by default
so the DuckDB correctness oracle can reproduce it in ANSI SQL
(`string_split_regex(lower(text), '[^a-z0-9]+')`).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from iresearch_ray.analysis import get_analyzer
from iresearch_ray.analysis.tokenizers import flatten_batch, flatten_batch_arrow
from iresearch_ray.util import StatelessBatchFn, nul_safe_factorize, pool_size


def _coded_tokens(analyzer, col):
    """(codes, dict_np, doc_idx, doc_len) for a text column.

    Uses the zero-Python-object Arrow tokenize path (case fold, one byte
    table, literal split and dictionary encode in Arrow C kernels)
    whenever the analyzer selects it, else the Python path; both return
    the same coded form, so every downstream stat is a vectorized
    bincount either way."""
    tokenize = (flatten_batch_arrow
                if getattr(analyzer, "arrow_tokenize", False)
                else flatten_batch)
    out = tokenize(analyzer, col)
    return out["codes"], out["dict"], out["doc_idx"], out["doc_len"]


def _dict_mask(dict_np: np.ndarray, vocab: frozenset) -> np.ndarray:
    """Membership mask over the (small) batch dictionary — O(|dict|), not
    O(tokens)."""
    return np.fromiter((t in vocab for t in dict_np), dtype=np.float64,
                       count=len(dict_np))

# fixed stopword profiles for the language-ID heuristic (deterministic,
# SQL-reproducible; tiny on purpose)
LANG_PROFILES: dict[str, tuple[str, ...]] = {
    "en": ("the", "and", "of", "to", "in", "is", "a"),
    "de": ("der", "die", "das", "und", "ist", "nicht", "ein"),
    "fr": ("le", "la", "les", "et", "est", "un", "une"),
    "es": ("el", "la", "los", "y", "es", "un", "una"),
}
LANG_ORDER = ("en", "de", "fr", "es")

STOPWORDS_EN = frozenset(LANG_PROFILES["en"])


class QualityBatch:
    """(doc) -> n_tokens, n_unique_tokens, stopword_ratio, mean_token_len."""

    def __init__(self, text_column="text", analyzer="ascii", round_to: int = 6):
        self.text_column = text_column
        self.analyzer = get_analyzer(analyzer)
        self.round_to = round_to

    def __call__(self, b: pa.Table) -> pa.Table:
        codes, dict_np, doc_idx, n_tok = _coded_tokens(
            self.analyzer, b[self.text_column])
        n_docs = len(n_tok)
        D = max(1, len(dict_np))
        # per-doc distinct terms: unique (doc, code) pairs, one bincount
        u = np.unique(doc_idx * D + codes)
        n_uniq = np.bincount(u // D, minlength=n_docs).astype(np.int64)
        # stopword hits / token lengths: O(|dict|) lookups, then bincounts
        is_stop = _dict_mask(dict_np, STOPWORDS_EN)
        tok_len = np.fromiter((len(t) for t in dict_np), dtype=np.float64,
                              count=len(dict_np))
        denom = np.maximum(n_tok, 1).astype(np.float64)
        sw_ratio = np.bincount(doc_idx, weights=is_stop[codes],
                               minlength=n_docs) / denom
        mean_len = np.bincount(doc_idx, weights=tok_len[codes],
                               minlength=n_docs) / denom
        cols = {name: b[name] for name in b.column_names
                if name not in ("n_tokens", "n_unique_tokens", "stopword_ratio",
                                "mean_token_len")}
        cols.update({
            "n_tokens": pa.array(n_tok),
            "n_unique_tokens": pa.array(n_uniq),
            "stopword_ratio": pa.array(np.round(sw_ratio, self.round_to)),
            "mean_token_len": pa.array(np.round(mean_len, self.round_to)),
        })
        return pa.table(cols)


def quality_stats(ds, text_column="text", analyzer="ascii", concurrency=None):
    # stateless tasks, not an actor pool: analyzer construction is cheap
    # and plain tasks reuse Ray's prestarted workers (no per-run spawn)
    return ds.map_batches(
        StatelessBatchFn(QualityBatch,
                         dict(text_column=text_column, analyzer=analyzer)),
        batch_format="pyarrow",
        concurrency=pool_size(concurrency) if concurrency else None)


class LangIdBatch:
    """Heuristic language ID: argmax of stopword-profile hits, first-max
    wins in LANG_ORDER (deterministic; SQL-reproducible)."""

    def __init__(self, text_column="text", analyzer="ascii"):
        self.text_column = text_column
        self.analyzer = get_analyzer(analyzer)
        self.profiles = {k: frozenset(v) for k, v in LANG_PROFILES.items()}

    def __call__(self, b: pa.Table) -> pa.Table:
        codes, dict_np, doc_idx, doc_len = _coded_tokens(
            self.analyzer, b[self.text_column])
        n_docs = len(doc_len)
        # per-lang hit counts: one O(|dict|) mask + one bincount each;
        # first-max-wins in LANG_ORDER (strict > against the running best)
        best = np.full(n_docs, -1.0)
        pred = np.zeros(n_docs, dtype=np.int64)
        for li, lang in enumerate(LANG_ORDER):
            mask = _dict_mask(dict_np, self.profiles[lang])
            hits = np.bincount(doc_idx, weights=mask[codes], minlength=n_docs)
            win = hits > best
            pred[win] = li
            best = np.where(win, hits, best)
        preds = np.asarray(LANG_ORDER, dtype=object)[pred]
        return b.append_column("lang_pred", pa.array(preds, type=pa.string()))


def langid(ds, text_column="text", analyzer="ascii", concurrency=None):
    return ds.map_batches(
        StatelessBatchFn(LangIdBatch,
                         dict(text_column=text_column, analyzer=analyzer)),
        batch_format="pyarrow",
        concurrency=pool_size(concurrency) if concurrency else None)


def token_count_by(ds, group_column: str, text_column="text", analyzer="ascii",
                   concurrency=None):
    """SUM(token count) per group, pre-aggregated inside each batch so the
    groupby shuffles one row per (group, batch) — the combiner pattern."""
    from ray.data.aggregate import Sum

    class CountBatch:
        def __init__(self):
            self.analyzer = get_analyzer(analyzer)

        def __call__(self, b: pa.Table) -> pa.Table:
            import pyarrow.compute as pc

            # null group keys drop, matching the pandas-groupby history
            # (and nul_safe_factorize's null-free input contract)
            valid = pc.is_valid(b[group_column])
            if not pc.all(valid).as_py():
                b = b.filter(valid)
            _, _, _, doc_len = _coded_tokens(self.analyzer, b[text_column])
            # NUL-safe partial (pandas groupby collapses NUL-bearing
            # group keys): factorize through Arrow + one bincount
            codes, uniques = nul_safe_factorize(b[group_column])
            sums = np.bincount(codes, weights=doc_len,
                               minlength=len(uniques)).astype(np.int64)
            return pa.table({
                group_column: pa.array(uniques.tolist(),
                                       b[group_column].type),
                "n": pa.array(sums, pa.int64())})

    partial = ds.map_batches(
        StatelessBatchFn(CountBatch), batch_format="pyarrow",
        concurrency=pool_size(concurrency) if concurrency else None)
    return partial.groupby(group_column).aggregate(Sum("n", alias_name="total_tokens"))


def term_frequencies(ds, text_column="text", analyzer="ascii", concurrency=None):
    """Corpus-wide (term, df, ttf) via per-batch partial counts + one small
    groupby — the index-build dictionary computed purely in Ray Data
    (cross-checks the segment build)."""
    from ray.data.aggregate import Sum

    class TermBatch:
        def __init__(self):
            self.analyzer = get_analyzer(analyzer)

        def __call__(self, b: pa.Table) -> pa.Table:
            codes, dict_np, doc_idx, _ = _coded_tokens(
                self.analyzer, b[text_column])
            D = max(1, len(dict_np))
            ttf = np.bincount(codes, minlength=len(dict_np)).astype(np.int64)
            # df: unique (doc, code) pairs, then count per code
            u = np.unique(doc_idx * D + codes)
            df_ = np.bincount(u % D, minlength=len(dict_np)).astype(np.int64)
            return pa.table({
                "term": pa.array(dict_np, type=pa.string()),
                "df": pa.array(df_),
                "ttf": pa.array(ttf),
            })

    partial = ds.map_batches(
        StatelessBatchFn(TermBatch), batch_format="pyarrow",
        concurrency=pool_size(concurrency) if concurrency else None)
    return partial.groupby("term").aggregate(Sum("df", alias_name="df"),
                                             Sum("ttf", alias_name="ttf"))


def _bigram_codes(codes: np.ndarray, doc_len: np.ndarray):
    """(c1, c2, pair_doc) adjacent-token code pairs that stay INSIDE one
    document — vectorized: a boolean mask kills the pairs straddling doc
    boundaries."""
    n = len(codes)
    if n < 2:
        z = np.empty(0, dtype=np.int64)
        return z, z, z
    offs = np.zeros(len(doc_len) + 1, dtype=np.int64)
    np.cumsum(doc_len, out=offs[1:])
    valid = np.ones(n - 1, dtype=bool)
    cuts = offs[1:-1] - 1          # last token index before each doc start
    cuts = cuts[(cuts >= 0) & (cuts < n - 1)]
    valid[cuts] = False
    doc_of = np.repeat(np.arange(len(doc_len), dtype=np.int64), doc_len)
    return codes[:-1][valid], codes[1:][valid], doc_of[:-1][valid]


def top_bigrams(ds, text_column="text", k_top: int = 20, analyzer="ascii",
                concurrency=None):
    """Corpus-wide collocation counts: top ``k_top`` adjacent-token
    bigrams by count -> Dataset(bigram, n), ordered (n DESC, bigram ASC).

    Per batch the tokens stay dictionary-CODED: bigrams are packed
    (c1 * |dict| + c2) int64 keys counted with one np.unique, and only
    the batch's DISTINCT bigram strings (dictionary-sized, not
    token-sized) are materialized for the shuffle.  One small groupby
    sums the partials; sort+limit runs over distinct-bigram cardinality.
    """
    from ray.data.aggregate import Sum

    class BigramBatch:
        def __init__(self):
            self.analyzer = get_analyzer(analyzer)

        def __call__(self, b: pa.Table) -> pa.Table:
            codes, dict_np, _, doc_len = _coded_tokens(
                self.analyzer, b[text_column])
            c1, c2, _ = _bigram_codes(codes, doc_len)
            if not len(c1):
                return pa.table({"bigram": pa.array([], pa.string()),
                                 "n": pa.array([], pa.int64())})
            D = len(dict_np)
            uq, cnt = np.unique(c1 * D + c2, return_counts=True)
            a, bb = uq // D, uq % D
            grams = [f"{dict_np[i]} {dict_np[j]}" for i, j in zip(a, bb)]
            return pa.table({"bigram": pa.array(grams, pa.string()),
                             "n": pa.array(cnt.astype(np.int64))})

    partial = ds.map_batches(
        StatelessBatchFn(BigramBatch), batch_format="pyarrow",
        concurrency=pool_size(concurrency) if concurrency else None)
    agg = partial.groupby("bigram").aggregate(Sum("n", alias_name="n"))

    def block_topk(t: pa.Table) -> pa.Table:
        # the groupby output holds each bigram exactly once across all
        # blocks, so trimming each block to its own top k_top keeps every
        # global winner; the final sort then runs over blocks x k_top
        # rows instead of ALL distinct bigrams (web-scale: billions)
        if len(t) <= k_top:
            return t
        n = t["n"].to_numpy()
        grams = np.asarray(t["bigram"].to_pylist(), dtype=object)
        order = np.lexsort((grams, -n))[:k_top]
        return t.take(pa.array(np.sort(order)))

    trimmed = agg.map_batches(block_topk, batch_format="pyarrow",
                              batch_size=None)
    return trimmed.sort(["n", "bigram"],
                        descending=[True, False]).limit(k_top)


def repetition_stats(ds, text_column="text", id_column="doc_id",
                     analyzer="ascii", concurrency=None):
    """Per-document repetition quality signals (the Gopher-style
    repetition filters re-expressed over token streams) ->
    Dataset(doc_id, n_tokens, distinct_ratio, top_token_frac,
    top_bigram_frac); docs with zero tokens are dropped.

    - distinct_ratio  = |distinct tokens| / n_tokens  (low => repetitive)
    - top_token_frac  = count(most frequent token) / n_tokens
    - top_bigram_frac = count(most frequent bigram) / (n_tokens - 1)
      (0.0 for single-token docs)

    Pure map_batches, no shuffle: per-doc groupings are packed int64
    keys over the batch dictionary, reduced with sorted-run reduceat —
    O(tokens) vector work, no per-row Python.  Fractions are raw IEEE
    double divisions so the SQL oracle reproduces them bit-for-bit.
    """

    class RepBatch:
        def __init__(self):
            self.analyzer = get_analyzer(analyzer)

        def __call__(self, b: pa.Table) -> pa.Table:
            codes, dict_np, doc_idx, doc_len = _coded_tokens(
                self.analyzer, b[text_column])
            n_docs = len(doc_len)
            doc_len = np.asarray(doc_len, dtype=np.int64)
            D = max(1, len(dict_np))
            distinct = np.zeros(n_docs, dtype=np.int64)
            top_tok = np.zeros(n_docs, dtype=np.int64)
            if len(codes):
                uq, cnt = np.unique(doc_idx * D + codes, return_counts=True)
                udoc = uq // D
                distinct += np.bincount(udoc, minlength=n_docs)
                runs = np.flatnonzero(np.r_[True, udoc[1:] != udoc[:-1]])
                top_tok[udoc[runs]] = np.maximum.reduceat(cnt, runs)
            top_big = np.zeros(n_docs, dtype=np.int64)
            c1, c2, bdoc = _bigram_codes(codes, doc_len)
            if len(c1):
                pu, pinv = np.unique(c1 * D + c2, return_inverse=True)
                u2, cnt2 = np.unique(bdoc * len(pu) + pinv,
                                     return_counts=True)
                udoc2 = u2 // len(pu)
                runs2 = np.flatnonzero(np.r_[True, udoc2[1:] != udoc2[:-1]])
                top_big[udoc2[runs2]] = np.maximum.reduceat(cnt2, runs2)
            keep = doc_len > 0
            n = doc_len[keep].astype(np.float64)
            nb = np.maximum(doc_len[keep] - 1, 1).astype(np.float64)
            ids = b[id_column].to_numpy(zero_copy_only=False)[keep]
            return pa.table({
                # explicit id type: an all-tokenless batch would
                # otherwise infer a null-typed empty column
                id_column: pa.array(ids, type=b[id_column].type),
                "n_tokens": pa.array(doc_len[keep]),
                "distinct_ratio": pa.array(distinct[keep] / n),
                "top_token_frac": pa.array(top_tok[keep] / n),
                "top_bigram_frac": pa.array(top_big[keep] / nb),
            })

    return ds.map_batches(
        StatelessBatchFn(RepBatch), batch_format="pyarrow",
        concurrency=pool_size(concurrency) if concurrency else None)


def _materialize_derived(ds):
    """Materialize a DERIVED lineage once so multi-pass consumers
    (keyterms' df pass + count + scoring pass) don't re-execute the
    upstream transforms per pass.  Bare reads (`Read`: re-scanning a
    column-pruned Parquet read is cheap and streaming-friendly) and
    already-in-object-store inputs (`InputData` = materialized,
    `AbstractFrom` = from_items/pandas/arrow) pass through untouched.
    Inspects Ray Data's logical plan; if that private surface moves,
    falls back to materializing (the safe side — correct either way,
    at worst an unneeded copy that can spill)."""
    try:
        from ray.data._internal.logical.operators.from_operators import (
            AbstractFrom,
        )
        from ray.data._internal.logical.operators.input_data_operator import (
            InputData,
        )
        from ray.data._internal.logical.operators.read_operator import Read

        if isinstance(ds._logical_plan.dag, (Read, InputData, AbstractFrom)):
            return ds
    except Exception:
        pass
    return ds.materialize()


def keyterms(ds, n_terms: int = 3, text_column="text", id_column="doc_id",
             analyzer="ascii", concurrency=None, hash: str = "stable",
             n_total: int | None = None, max_broadcast: int = 50_000_000):
    """Per-document keyword extraction: each doc's top ``n_terms`` terms
    by tf-idf (tf within the doc x ln((N+1)/(df+1)), ties broken by term
    ascending) -> Dataset(doc_id, term, rank) — the tagging operator a
    training-data pipeline uses to label corpus slices.

    Two passes, both scale-shaped: (1) the corpus (term, df) table from
    per-batch partials + one small groupby, pulled sorted BY TERM HASH
    and broadcast once via ray.put (vocabulary-sized — the standard
    broadcast-side assumption, documented); (2) a shuffle-free
    map_batches that scores every (doc, term) pair against the broadcast
    df map with one searchsorted per batch and ranks per doc with a
    single lexsort.  The selection arithmetic is IEEE-identical to the
    SQL oracle (same tf * ln((N+1)/(df+1)) double ops).

    The df map keys on 64-bit term hashes (vocab^2 / 2^64 collision odds
    — the same documented assumption as the LSH band keys; a collision
    would only nudge one term's idf).

    keyterms consumes its input up to three times (the (term, df) pass,
    the default ``n_total=ds.count()``, the scoring pass).  A DERIVED
    (non-read) lineage is therefore AUTO-MATERIALIZED once up front
    (object store, spills under pressure) instead of re-executing per
    pass; bare Parquet reads and already-materialized datasets pass
    through untouched (re-scanning a column-pruned read is the cheap,
    streaming-friendly shape).  Pass ``n_total`` explicitly to also skip
    the count pass.
    """
    import ray

    from iresearch_ray.analysis.hashing import hash_family

    hasher = hash_family(hash).strings64
    ds = _materialize_derived(ds)
    # pass 1: (term, df) partials -> small groupby -> broadcast hash map
    df_tbl = term_frequencies(ds, text_column=text_column,
                              analyzer=analyzer,
                              concurrency=concurrency).to_pandas()
    if len(df_tbl) > max_broadcast:
        raise ValueError(
            f"vocabulary ({len(df_tbl)} terms) exceeds "
            f"max_broadcast={max_broadcast}; pre-filter noise tokens (e.g. "
            "a min-df pass) before keyword extraction")
    if n_total is None:
        # metadata-only for parquet reads; for derived datasets pass
        # n_total explicitly to avoid re-executing the upstream lineage
        n_total = ds.count()
    if len(df_tbl):
        th = hasher(df_tbl["term"].to_numpy())
        order = np.argsort(th)
        df_ref = ray.put((th[order],
                          df_tbl["df"].to_numpy()[order].astype(np.float64)))
    else:
        df_ref = ray.put((np.empty(0, np.uint64), np.empty(0, np.float64)))

    class KeyTermBatch:
        def __init__(self):
            self.analyzer = get_analyzer(analyzer)

        def __call__(self, b: pa.Table) -> pa.Table:
            codes, dict_np, doc_idx, doc_len = _coded_tokens(
                self.analyzer, b[text_column])
            empty = pa.table({id_column: pa.array([], b[id_column].type),
                              "term": pa.array([], pa.string()),
                              "rank": pa.array([], pa.int64())})
            if not len(codes):
                return empty
            D = len(dict_np)
            uq, tf = np.unique(doc_idx * D + codes, return_counts=True)
            udoc, ucode = uq // D, uq % D
            th_sorted, df_sorted = ray.get(df_ref)
            bh = hasher(dict_np)
            if len(th_sorted):
                pos = np.searchsorted(th_sorted, bh)
                pos[pos == len(th_sorted)] = 0
                dfv = np.where(th_sorted[pos] == bh, df_sorted[pos], 0.0)
            else:
                dfv = np.zeros(len(bh), dtype=np.float64)
            score = tf.astype(np.float64) * np.log(
                (n_total + 1) / (dfv[ucode] + 1))
            keep = dfv[ucode] > 0
            udoc, ucode, score = udoc[keep], ucode[keep], score[keep]
            if not len(udoc):
                return empty
            terms = dict_np[ucode]
            order = np.lexsort((terms, -score, udoc))
            udoc, terms = udoc[order], terms[order]
            starts = np.flatnonzero(np.r_[True, udoc[1:] != udoc[:-1]])
            ordinal = np.arange(len(udoc)) - np.repeat(
                starts, np.diff(np.r_[starts, len(udoc)]))
            keep2 = ordinal < n_terms
            ids = b[id_column].to_numpy(zero_copy_only=False)
            return pa.table({
                id_column: pa.array(ids[udoc[keep2]],
                                    type=b[id_column].type),
                "term": pa.array(terms[keep2], pa.string()),
                "rank": pa.array((ordinal[keep2] + 1).astype(np.int64)),
            })

    return ds.map_batches(
        StatelessBatchFn(KeyTermBatch), batch_format="pyarrow",
        concurrency=pool_size(concurrency) if concurrency else None)


class QualityFilterBatch:
    """Gopher-style rule filter (Rae et al. 2021, "Scaling Language
    Models: Methods, Analysis & Insights from Training Gopher", published
    rule family): per-doc keep/drop from vectorized token stats.  Rules
    (each its own bit in ``fail_mask`` so downstream audits can count
    drop reasons without re-running the filter):

    - bit 0: n_tokens outside [min_tokens, max_tokens]
    - bit 1: mean_token_len outside [min_mean_token_len, max_mean_token_len]
    - bit 2: stopword_ratio < min_stopword_ratio
    - bit 3: unique_ratio (distinct/total tokens) < min_unique_ratio

    All ratios are rounded to 6 places BEFORE comparison (both here and
    in the SQL oracle) so IEEE noise can never flip a boundary doc."""

    def __init__(self, text_column="text", analyzer="ascii",
                 min_tokens=50, max_tokens=100_000,
                 min_mean_token_len=3.0, max_mean_token_len=10.0,
                 min_stopword_ratio=0.0, min_unique_ratio=0.0):
        self.q = QualityBatch(text_column=text_column, analyzer=analyzer)
        self.min_tokens = min_tokens
        self.max_tokens = max_tokens
        self.min_mean_token_len = min_mean_token_len
        self.max_mean_token_len = max_mean_token_len
        self.min_stopword_ratio = min_stopword_ratio
        self.min_unique_ratio = min_unique_ratio

    def __call__(self, b: pa.Table) -> pa.Table:
        s = self.q(b)
        n = s["n_tokens"].to_numpy()
        uniq = s["n_unique_tokens"].to_numpy()
        sw = s["stopword_ratio"].to_numpy()
        ml = s["mean_token_len"].to_numpy()
        uratio = np.round(uniq / np.maximum(n, 1).astype(np.float64), 6)
        mask = ((n < self.min_tokens) | (n > self.max_tokens)).astype(np.int64)
        mask |= ((ml < self.min_mean_token_len)
                 | (ml > self.max_mean_token_len)).astype(np.int64) << 1
        mask |= (sw < self.min_stopword_ratio).astype(np.int64) << 2
        mask |= (uratio < self.min_unique_ratio).astype(np.int64) << 3
        cols = {name: s[name] for name in s.column_names
                if name not in ("unique_ratio", "keep", "fail_mask")}
        cols["unique_ratio"] = pa.array(uratio)
        cols["keep"] = pa.array(mask == 0)
        cols["fail_mask"] = pa.array(mask)
        return pa.table(cols)


def quality_filter(ds, text_column="text", analyzer="ascii",
                   concurrency=None, **rules):
    """Per-doc Gopher-rule quality filter: appends n_tokens,
    n_unique_tokens, stopword_ratio, mean_token_len, unique_ratio, keep
    (bool) and fail_mask (reason bitmask) — one map_batches pass, no
    shuffle.  See :class:`QualityFilterBatch` for the rule set; pass rule
    thresholds as keyword overrides."""
    return ds.map_batches(
        StatelessBatchFn(QualityFilterBatch,
                         dict(text_column=text_column, analyzer=analyzer,
                              **rules)),
        batch_format="pyarrow",
        concurrency=pool_size(concurrency) if concurrency else None)


def column_quantiles(ds, column: str, qs=(0.5,)):
    """EXACT distributed order statistics of a column via a value
    histogram: one sort+combine count per distinct value
    (`dedup._grouped_count_min` — light keys-only shuffle), then a driver
    cumsum over the (distinct-value-sized, NOT row-count-sized) histogram
    picks ANSI ``percentile_disc`` answers: the smallest value whose
    1-indexed position in the sorted multiset is >= ceil(q * n) — exactly
    DuckDB's ``quantile_disc`` (index parity pinned by tests).

    Exact for any column whose distinct-value count fits the driver
    (token counts, document lengths, scores quantized upstream); for
    unbounded continuous columns, quantize first.  Returns a pandas
    DataFrame (q, value) — output is len(qs) rows, driver-small.
    """
    import math

    from iresearch_ray.pipelines.dedup import _grouped_count_min

    def project(b: pa.Table) -> pa.Table:
        return b.select([column])

    hist = _grouped_count_min(
        ds.map_batches(project, batch_format="pyarrow"),
        column, None, count_alias="n").to_pandas()
    hist = hist.sort_values(column).reset_index(drop=True)
    cnt = hist["n"].to_numpy()
    cum = np.cumsum(cnt)
    n = int(cum[-1]) if len(cum) else 0
    out_q, out_v = [], []
    for q in qs:
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile {q!r} outside [0, 1]")
        if n == 0:
            continue
        target = max(1, math.ceil(q * n))  # ANSI percentile_disc position
        idx = int(np.searchsorted(cum, target, side="left"))
        out_q.append(float(q))
        out_v.append(hist[column].iloc[idx])
    return pd.DataFrame({"q": pd.Series(out_q, dtype=np.float64),
                         "value": pd.Series(out_v)})


def token_count_quantiles(ds, qs=(0.1, 0.25, 0.5, 0.75, 0.9, 0.99),
                          text_column="text", analyzer="ascii",
                          concurrency=None):
    """Exact quantiles of per-doc token counts (the length screen a
    quality pipeline sizes its filters from): tokenize in map_batches,
    then :func:`column_quantiles` over the count column."""
    class CountBatch:
        def __init__(self):
            self.analyzer = get_analyzer(analyzer)

        def __call__(self, b: pa.Table) -> pa.Table:
            _, _, _, doc_len = _coded_tokens(self.analyzer, b[text_column])
            return pa.table({"n_tokens": pa.array(
                np.asarray(doc_len, dtype=np.int64))})

    counts = ds.map_batches(
        StatelessBatchFn(CountBatch), batch_format="pyarrow",
        concurrency=pool_size(concurrency) if concurrency else None)
    out = column_quantiles(counts, "n_tokens", qs=qs)
    return out.rename(columns={"value": "n_tokens_q"})


# PII redaction patterns, applied IN ORDER (counts for pattern i are
# taken on the text already redacted by patterns < i, so an IP inside an
# email address is never double-counted).  RE2 syntax only — both Arrow
# (`replace_substring_regex`) and DuckDB (`regexp_replace(..., 'g')`)
# link RE2, which is what makes the oracle byte-exact.
PII_PATTERNS = (
    ("email", r"[A-Za-z0-9._%+\-]+@[A-Za-z0-9.\-]+\.[A-Za-z]{2,}",
     "<EMAIL>"),
    ("ip", r"\b([0-9]{1,3}\.){3}[0-9]{1,3}\b", "<IP>"),
    ("phone", r"\+[0-9][0-9() \-]{6,}[0-9]", "<PHONE>"),
)


def redact_pii(ds, text_column="text", id_column="doc_id",
               concurrency=None):
    """PII scrubbing for training corpora: replace emails, IPv4
    addresses and international phone numbers with typed placeholders ->
    Dataset(id, text_redacted, n_email, n_ip, n_phone).

    Entirely Arrow-side (`pc.replace_substring_regex` /
    `pc.count_substring_regex` — compiled RE2 over the raw string
    buffers, no Python per row) in one shuffle-free map_batches pass.
    NULL text is treated as '' (the classify-stub convention).  The
    phone pattern is deliberately conservative (must start with '+') so
    prose numbers survive; extend ``PII_PATTERNS`` for jurisdictional
    variants.
    """
    import pyarrow.compute as pc

    def redact(b: pa.Table) -> pa.Table:
        txt = pc.fill_null(b[text_column], "")
        cols = {id_column: b[id_column]}
        counts = {}
        for name, pat, repl in PII_PATTERNS:
            counts[f"n_{name}"] = pc.cast(
                pc.count_substring_regex(txt, pattern=pat), pa.int64())
            txt = pc.replace_substring_regex(
                txt, pattern=pat, replacement=repl)
        cols["text_redacted"] = txt
        cols.update(counts)
        return pa.table(cols)

    return ds.map_batches(
        redact, batch_format="pyarrow",
        concurrency=pool_size(concurrency) if concurrency else None)
