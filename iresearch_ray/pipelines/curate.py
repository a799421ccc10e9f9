"""Corpus-curation stages: deterministic held-out splits and webtext URL
canonicalization — shuffle-free map_batches passes whose arithmetic is
reproducible in ANSI SQL for exact oracles.
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa

from iresearch_ray.analysis.hashing import hash_family
from iresearch_ray.util import pool_size

SPLIT_BUCKETS = 10_000


def hash_split(ds, ratios=(0.98, 0.01, 0.01),
               names=("train", "valid", "test"),
               id_column: str = "doc_id", hash: str | None = None,
               concurrency: int | None = None):
    """Deterministic corpus splits -> Dataset(id, split): bucket =
    hash(id) % 10000, assigned to ``names`` by cumulative ``ratios``.

    The held-out-split primitive a training pipeline needs at 100 TB:
    membership is a pure function of the document id, so re-runs, added
    shards and resumed jobs never reshuffle documents between splits
    (a random_sample would).  One shuffle-free map_batches pass.

    ``hash='stable'`` (default) is the at-scale path: vectorized siphash
    over the id strings, no Python per row.  ``hash='md5'`` equals
    DuckDB ``md5_number_lower(id::VARCHAR)`` so the assignment is
    SQL-reproducible bit-for-bit (the oracle mode; a per-row C md5 —
    ~1 us/id).  Both are deterministic, they just draw different
    (equally uniform) bucket assignments.

    COMPAT: the default was ``'md5'`` before round 5.  The two families
    draw DIFFERENT splits, so a corpus whose held-out assignment was
    minted under the old default must pin ``hash='md5'`` explicitly —
    re-running with the new default would move documents between splits
    (the reshuffle this function exists to prevent).  Omitting ``hash``
    uses ``'stable'`` and emits a ``FutureWarning`` saying so.
    """
    import warnings

    if hash is None:
        warnings.warn(
            "hash_split: no hash= given, using 'stable', which draws "
            "different splits than the former 'md5' default; pass "
            "hash='stable' or hash='md5' explicitly",
            FutureWarning, stacklevel=2)
        hash = "stable"
    hash_fn = hash_family(hash).strings64
    if len(ratios) != len(names):
        raise ValueError("ratios and names must align")
    cum = np.cumsum(np.asarray(ratios, dtype=np.float64))
    if not np.isclose(cum[-1], 1.0):
        raise ValueError(f"ratios must sum to 1.0, got {cum[-1]}")
    bounds = np.round(cum * SPLIT_BUCKETS).astype(np.int64)
    bounds[-1] = SPLIT_BUCKETS
    labels = list(names)

    def assign(b: pa.Table) -> pa.Table:
        col = b[id_column]
        a = col.to_numpy(zero_copy_only=False)
        if a.dtype.kind in "iu" and col.null_count == 0:
            # vectorized decimal rendering == str(int) for every int64,
            # so the md5 oracle key space is unchanged.  A null in an
            # int column makes to_numpy float64 ('1.0'/'nan' keys), so
            # nullable batches take the exact to_pylist path below —
            # membership must be a pure function of the id, never of
            # which batch the id landed in.
            ids = a.astype("U")
        else:
            ids = np.asarray(
                [v if isinstance(v, str) else str(v)
                 for v in col.to_pylist()],
                dtype=object)
        bucket = (hash_fn(ids) % SPLIT_BUCKETS).astype(np.int64)
        idx = np.searchsorted(bounds, bucket, side="right")
        # label gather via numpy take — no per-row list indexing
        lab_arr = np.asarray(labels, dtype=object)
        return pa.table({
            id_column: b[id_column],
            "split": pa.array(lab_arr[idx], pa.string())})

    return ds.map_batches(
        assign, batch_format="pyarrow",
        concurrency=pool_size(concurrency) if concurrency else None)


# URL canonicalization: RE2-only rewrite chain, applied IN ORDER.  Both
# Arrow (`replace_substring_regex`) and DuckDB (`regexp_replace(...,'g')`)
# link RE2, so the oracle is byte-exact by construction.  Deliberate
# simplifications (documented, not bugs): only scheme+host lowercase,
# only utm_* params stripped, only the default :80/:443 ports removed,
# only a single trailing slash on the bare authority trimmed.
URL_CANON_STEPS = (
    # 1. fragment
    (r"#.*$", ""),
    # 2. utm_* tracking params: interior runs (anchored at a '?'/'&'
    #    boundary so a param merely CONTAINING 'utm_' — e.g. 'xutm_a' —
    #    is untouched; '+' eats consecutive utm params whose boundary
    #    char was consumed by the previous repetition), then a
    #    trailing/only param (consumes the preceding '?'/'&')
    (r"([?&])(?:utm_[A-Za-z0-9_]*=[^&#]*&)+", r"\1"),
    (r"[?&]utm_[A-Za-z0-9_]*=[^&#]*$", ""),
    # 4-5 run AFTER the scheme/host lowercase pass (so they match the
    # lowered scheme): default ports, then a bare trailing slash
    (r"^(http://[^/?#:]*):80([/?#].*)?$", r"\1\2"),
    (r"^(https://[^/?#:]*):443([/?#].*)?$", r"\1\2"),
    (r"^([a-z][a-z0-9+.-]*://[^/?#]+)/$", r"\1"),
)
# named groups for Arrow's extract_regex; the SQL twin uses the same
# pattern with plain groups and regexp_extract(url, pat, i)
_SCHEME_HOST = (r"^(?P<scheme>[A-Za-z][A-Za-z0-9+.\-]*)://"
                r"(?P<host>[^/?#]*)(?P<rest>.*)$")


def url_canonicalize(ds, url_column: str = "url", out_column: str =
                     "url_canonical", concurrency: int | None = None):
    """Webtext URL canonicalization -> the input columns plus
    ``out_column``: strip fragments and utm_* tracking params, lowercase
    scheme+host (path/query case is significant and kept), drop default
    :80/:443 ports and a bare trailing slash.

    The canonical form is the key for URL-level dedup
    (``exact_dedup_groups(ds, text_column=out_column)``) and for
    per-domain grouping.  Entirely Arrow-side: two RE2 rewrites, one
    RE2 group-extract for the scheme/host lowercase (URLs without a
    scheme pass through unchanged), then three more rewrites — compiled
    once per pattern, no Python per row.
    """
    import pyarrow.compute as pc

    def canon(b: pa.Table) -> pa.Table:
        u = pc.fill_null(b[url_column], "")
        if isinstance(u, pa.ChunkedArray):
            u = u.combine_chunks()
        for pat, repl in URL_CANON_STEPS[:3]:
            u = pc.replace_substring_regex(u, pattern=pat,
                                           replacement=repl)
        # lowercase scheme + host, keep the rest verbatim
        parts = pc.extract_regex(u, pattern=_SCHEME_HOST)
        has = pc.is_valid(parts)
        lowered = pc.binary_join_element_wise(
            pc.utf8_lower(pc.struct_field(parts, "scheme")), "://",
            pc.binary_join_element_wise(
                pc.utf8_lower(pc.struct_field(parts, "host")),
                pc.struct_field(parts, "rest"), ""), "")
        u = pc.if_else(has, pc.fill_null(lowered, ""), u)
        for pat, repl in URL_CANON_STEPS[3:]:
            u = pc.replace_substring_regex(u, pattern=pat,
                                           replacement=repl)
        return b.append_column(out_column, u)

    return ds.map_batches(
        canon, batch_format="pyarrow",
        concurrency=pool_size(concurrency) if concurrency else None)


# domain (mode='host') = lowercase URL authority, default-port and
# "www." stripped.  mode='registrable' additionally resolves through
# the vendored public-suffix list (load_psl/registrable_domains below)
# so "a.co.uk"/"b.co.uk" key as registrable domains — round 5; host
# mode stays the oracle-checked default.  RE2 on both sides keeps the
# host chain's SQL oracle byte-exact.
_DOMAIN_PATTERN = r"^[A-Za-z][A-Za-z0-9+.\-]*://([^/?#]*)"
_DOMAIN_STEPS = (
    (r":[0-9]+$", ""),   # port
    (r"^www\.", ""),     # canonical www-less host
    # a host with an embedded NUL is not a hostname — map it to ''
    # (dropped everywhere '' drops).  This keeps domain_links' packed
    # (src \x00 dst) edge key unambiguous: no surviving domain can
    # contain the separator, so the unpack split is exact.  Shared
    # verbatim with the SQL twins ((?s) so hosts with newlines still
    # match; RE2 interprets the \x00 escape on both sides).
    (r"(?s)^.*\x00.*$", ""),
)


def extract_domain(ds, url_column: str = "url",
                   out_column: str = "domain",
                   concurrency: int | None = None,
                   mode: str = "host", psl_path: str | None = None):
    """Input columns plus ``out_column``: the document's host — lowercase
    URL authority with the port and a leading ``www.`` stripped; ``''``
    for null urls / urls without a scheme.  One RE2 group-extract + two
    RE2 rewrites per batch, shuffle-free; the key for every per-domain
    curation policy (stats, caps, per-site dedup).

    ``mode='registrable'`` resolves the host to its public-suffix-list
    registrable domain (``a.co.uk`` and ``b.co.uk`` both -> their own
    ``<name>.co.uk``; ``sub.example.com`` -> ``example.com``) — what a
    real curation pipeline means by "domain".  A host that IS a public
    suffix resolves to ``''`` (dropped wherever ``''`` drops).  Rules
    come from the vendored :func:`load_psl` subset or ``psl_path``."""
    import pyarrow.compute as pc

    if mode not in ("host", "registrable"):
        raise ValueError(f"mode must be 'host' or 'registrable', "
                         f"got {mode!r}")
    psl = load_psl(psl_path) if mode == "registrable" else None

    def dom(b: pa.Table) -> pa.Table:
        u = pc.fill_null(b[url_column], "")
        if isinstance(u, pa.ChunkedArray):
            u = u.combine_chunks()
        parts = pc.extract_regex(u, pattern=r"^[A-Za-z][A-Za-z0-9+.\-]*"
                                            r"://(?P<host>[^/?#]*)")
        host = pc.fill_null(
            pc.utf8_lower(pc.struct_field(parts, "host")), "")
        for pat, repl in _DOMAIN_STEPS:
            host = pc.replace_substring_regex(host, pattern=pat,
                                              replacement=repl)
        if psl is not None:
            host = pa.array(registrable_domains(
                host.to_numpy(zero_copy_only=False), psl), pa.string())
        return b.append_column(out_column, host)

    return ds.map_batches(
        dom, batch_format="pyarrow",
        concurrency=pool_size(concurrency) if concurrency else None)


_PSL_CACHE: dict = {}


def load_psl(psl_path: str | None = None) -> dict:
    """Parse a publicsuffix.org-format rules file (default: the vendored
    subset at ``iresearch_ray/data/psl_subset.dat`` — the container has
    no network; drop in the full upstream
    ``public_suffix_list.dat`` via ``psl_path`` for production use).

    Returns ``{'exact', 'wild', 'exc'}`` as sorted ``pd.Index`` objects
    (hash-based ``get_indexer`` membership — the NUL-safe idiom) plus
    ``'depth'``, the deepest public suffix any rule can produce."""
    path = psl_path or os.path.join(os.path.dirname(__file__), "..",
                                    "data", "psl_subset.dat")
    path = os.path.abspath(path)
    if path in _PSL_CACHE:
        return _PSL_CACHE[path]
    exact, wild, exc = set(), set(), set()
    with open(path, encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if not line or line.startswith("//"):
                continue
            rule = line.split()[0].lower()
            if rule.startswith("!"):
                exc.add(rule[1:])
            elif rule.startswith("*."):
                wild.add(rule[2:])
            else:
                exact.add(rule)
    depth = max([r.count(".") + 1 for r in exact]
                + [r.count(".") + 2 for r in wild] + [1])
    out = {"exact": pd.Index(sorted(exact), dtype=object),
           "wild": pd.Index(sorted(wild), dtype=object),
           "exc": pd.Index(sorted(exc), dtype=object),
           "depth": int(depth)}
    _PSL_CACHE[path] = out
    return out


def psl_fingerprint(psl_path: str | None = None) -> str:
    """Content fingerprint (md5 hex) of the EFFECTIVE public-suffix-list
    file ``extract_domain(mode='registrable')`` would load — resolved
    path included so staleness params (``stage_parquet_atomic``) rebuild
    when either the file or the choice of file changes."""
    import hashlib

    path = os.path.abspath(psl_path or os.path.join(
        os.path.dirname(__file__), "..", "data", "psl_subset.dat"))
    with open(path, "rb") as f:
        return path + ":" + hashlib.md5(f.read()).hexdigest()


def registrable_domains(hosts, psl: dict):
    """Vectorized publicsuffix.org resolution over a host array ->
    object ndarray of registrable domains ('' when the host is empty,
    IS a public suffix, or has no label left of its public suffix).

    Algorithm (the PSL spec, applied label-suffix-wise): the prevailing
    public-suffix depth is the LONGEST matching rule — exact rules match
    their own label count, a wildcard ``*.base`` matches one label
    deeper, an exception ``!rule`` overrides to one label shallower; a
    host matching nothing gets the default ``*`` rule (depth 1).  The
    registrable domain is the suffix one label deeper than the public
    suffix.  All membership tests are hash-based ``pd.Index.get_indexer``
    sweeps over per-depth suffix arrays — no Python per row.

    Deliberate deviations, documented: hosts arrive lowercased and
    www-stripped from the shared host chain (so ``www.com`` resolves via
    host ``com`` -> ''); punycode/IDN labels are matched verbatim."""
    hosts = np.asarray(hosts, dtype=object)
    n = len(hosts)
    if n == 0:
        return hosts
    D = psl["depth"] + 1  # registrable domains are one label deeper
    s = pd.Series(hosts, dtype=object).fillna("")
    sfx = [None] * (D + 1)    # sfx[k] = last k labels joined by '.'
    exists = np.zeros((D + 1, n), dtype=bool)
    rest = s
    for k in range(1, D + 1):
        rp = rest.str.rpartition(".")
        lab = rp[2]
        if k == 1:
            exists[1] = (s != "").to_numpy()
            sfx[1] = lab
        else:
            # label k exists iff the previous split found a dot — NOT
            # "rest non-empty", which would drop a leading empty label
            # ('.a' has two labels: '' and 'a'; matches the SQL twin's
            # string_split semantics)
            exists[k] = exists[k - 1] & had_dot
            sfx[k] = lab.str.cat(sfx[k - 1], sep=".")
        had_dot = (rp[1] == ".").to_numpy()
        rest = rp[0]
    sfx = [None] + [x.to_numpy(dtype=object) for x in sfx[1:]]

    depth = np.ones(n, np.int64)  # default '*' rule
    for k in range(1, D + 1):
        if not exists[k].any():
            break
        m = exists[k] & (psl["exact"].get_indexer(sfx[k]) >= 0)
        np.maximum.at(depth, np.flatnonzero(m), k)
        if k + 1 <= D:
            w = exists[k + 1] & (psl["wild"].get_indexer(sfx[k]) >= 0)
            np.maximum.at(depth, np.flatnonzero(w), k + 1)
    if len(psl["exc"]):
        for k in range(1, D + 1):
            e = exists[k] & (psl["exc"].get_indexer(sfx[k]) >= 0)
            depth[e] = k - 1  # exception rules beat everything
    out = np.full(n, "", dtype=object)
    need = depth + 1
    for k in range(1, D + 1):
        m = exists[k] & (need == k)
        if m.any():
            out[m] = sfx[k][m]
    return out


def domain_stats(ds, url_column: str = "url", text_column: str = "text",
                 analyzer: str = "ascii",
                 concurrency: int | None = None,
                 domain_mode: str = "host", psl_path: str | None = None):
    """Per-domain corpus profile -> Dataset(domain, n_docs, total_tokens):
    the first thing a Common-Crawl-scale curation run asks of a crawl
    ("which sites dominate the corpus?") and the input to cap / boost
    decisions.

    Tokenizes once per batch (pooled analyzer), reduces each batch to
    (domain, tokens) rows, then aggregates with the boundary-repaired
    sort+combine (count + sum share one sweep) — keys-only shuffle,
    exact at any domain skew."""
    from iresearch_ray.analysis import get_analyzer
    from iresearch_ray.pipelines.dedup import _grouped_count_min
    from iresearch_ray.pipelines.textstats import _coded_tokens
    from iresearch_ray.util import StatelessBatchFn

    class DomainTok:
        def __init__(self):
            self.analyzer = get_analyzer(analyzer)

        def __call__(self, b: pa.Table) -> pa.Table:
            _, _, _, doc_len = _coded_tokens(self.analyzer, b[text_column])
            return pa.table({"domain": b["domain"],
                             "_tok": pa.array(doc_len.astype(np.int64))})

    rows = extract_domain(
        ds, url_column=url_column, concurrency=concurrency,
        mode=domain_mode, psl_path=psl_path
    ).map_batches(
        StatelessBatchFn(DomainTok), batch_format="pyarrow",
        concurrency=pool_size(concurrency) if concurrency else None)
    return _grouped_count_min(rows, "domain", None, count_alias="n_docs",
                              sum_column="_tok", sum_alias="total_tokens")


def cap_per_domain(ds, cap: int, url_column: str = "url",
                   id_column: str = "doc_id",
                   max_broadcast: int = 50_000_000,
                   concurrency: int | None = None,
                   domain_mode: str = "host", psl_path: str | None = None):
    """Keep at most ``cap`` documents per domain (the ``cap`` SMALLEST
    ids — deterministic, so re-runs and resumed jobs keep the same
    survivors) -> the surviving rows of ``ds``, full schema, streaming.

    The RefinedWeb-style anti-spam trim: without it one template farm
    can be a double-digit fraction of a crawl.  (domain, id) rows —
    never text — go through ONE range sort + the edge-piece rank repair
    (:func:`~iresearch_ray.pipelines.dedup.grouped_rank_drop_ids`, exact
    at any domain skew); the over-cap drop set is pulled sorted to the
    driver under ``max_broadcast`` and applied as one shuffle-free
    searchsorted filter pass (the dedup_corpus idiom — drop sets are
    trim-sized, not corpus-sized, for any sane cap)."""
    import ray

    from iresearch_ray.pipelines.dedup import (
        _sorted_member,
        grouped_rank_drop_ids,
    )

    keyed = extract_domain(
        ds, url_column=url_column, concurrency=concurrency,
        mode=domain_mode, psl_path=psl_path
    ).select_columns(["domain", id_column])
    dropped = grouped_rank_drop_ids(keyed, "domain", id_column, cap)
    chunks = []
    for b in dropped.iter_batches(batch_format="pyarrow"):
        if b.num_rows:
            chunks.append(b[id_column].to_numpy(zero_copy_only=False))
    drop = np.sort(np.concatenate(chunks)) if chunks else np.empty(0)
    if len(drop) > max_broadcast:
        raise ValueError(
            f"per-domain drop set ({len(drop)} ids) exceeds "
            f"max_broadcast={max_broadcast}; raise cap or partition the "
            "corpus by domain hash first")
    ref = ray.put(drop)

    def keep_rows(b: pa.Table) -> pa.Table:
        if not b.num_rows:
            return b
        ids = b[id_column].to_numpy(zero_copy_only=False)
        return b.filter(pa.array(~_sorted_member(ray.get(ref), ids)))

    return ds.map_batches(keep_rows, batch_format="pyarrow")


# HTML -> text: script/style/comment blocks drop whole, remaining tags
# become spaces, the six ubiquitous entities decode (&amp; LAST so
# double-encoded text never double-decodes), whitespace collapses.
# Every step is RE2 or literal replace on both engine and oracle sides
# (Arrow replace_substring_regex / DuckDB regexp_replace both link RE2)
# so the extracted text is byte-exact.  Deliberately not a full parser:
# the reference point is WET-style extraction, not DOM fidelity.
TEXT_STRIP_STEPS = (
    (r"(?is)<script[^>]*>.*?</script>", " "),
    (r"(?is)<style[^>]*>.*?</style>", " "),
    (r"(?s)<!--.*?-->", " "),
    (r"<[^>]*>", " "),
)
HTML_ENTITIES = (
    ("&nbsp;", " "), ("&lt;", "<"), ("&gt;", ">"),
    ("&quot;", '"'), ("&#39;", "'"), ("&amp;", "&"),
)
_WS_COLLAPSE = (r"[ \t\r\n]+", " ")
_WS_TRIM = (r"^ | $", "")


def _as_string_filled(col):
    """Arrow column -> combined, null-free string array (binary and
    all-null blocks cast first) — the shared preamble of every markup
    operator."""
    import pyarrow.compute as pc

    if (pa.types.is_binary(col.type) or pa.types.is_large_binary(col.type)
            or pa.types.is_null(col.type)):
        col = col.cast(pa.string())
    u = pc.fill_null(col, "")
    if isinstance(u, pa.ChunkedArray):
        u = u.combine_chunks()
    return u


def _clean_text_array(u):
    """The extract_text strip/entity/whitespace chain over an Arrow
    string array — ONE shared implementation so every operator that
    cleans markup (extract_text, extract_anchors) stays byte-exact
    against the single SQL twin chain."""
    import pyarrow.compute as pc

    for pat, repl in TEXT_STRIP_STEPS:
        u = pc.replace_substring_regex(u, pattern=pat, replacement=repl)
    for ent, ch in HTML_ENTITIES:
        u = pc.replace_substring(u, pattern=ent, replacement=ch)
    u = pc.replace_substring_regex(u, pattern=_WS_COLLAPSE[0],
                                   replacement=_WS_COLLAPSE[1])
    u = pc.replace_substring_regex(u, pattern=_WS_TRIM[0],
                                   replacement=_WS_TRIM[1])
    return u


def extract_text(ds, html_column: str = "html",
                 out_column: str = "text_extracted",
                 concurrency: int | None = None):
    """WET-style page-text extraction -> the input columns plus
    ``out_column``: strip script/style/comment blocks, replace tags
    with spaces, decode the common entities, collapse whitespace.

    One compiled-RE2 pass per pattern over the Arrow string buffers —
    no Python per row; feeds the quality / dedup / indexing stages the
    same way a WARC->WET conversion feeds a crawl pipeline."""
    def ext(b: pa.Table) -> pa.Table:
        u = _clean_text_array(_as_string_filled(b[html_column]))
        return b.append_column(out_column, u)

    return ds.map_batches(
        ext, batch_format="pyarrow",
        concurrency=pool_size(concurrency) if concurrency else None)


# raw href attribute scan — tag-agnostic by design (real crawls carry
# href on <a>/<link>/<area> and the link-graph use cares about the
# targets, not the carrying tag).  SPLIT-SCAN SPEC, replicated verbatim
# in the SQL twins (string_split + the same anchored regex): a findall
# of 'href="([^"]*)"' differs on pathological values that themselves
# contain 'href="' (findall consumes through the inner occurrence, the
# split emits the inner one) — the differential fuzz pins the split
# behavior on both sides
_HREF_SPLIT = 'href="'
_HREF_TAIL = r'^(?P<h>[^"]*)"'


def extract_links(ds, html_column: str = "html",
                  key_column: str = "url",
                  out_column: str = "href",
                  concurrency: int | None = None):
    """Out-link extraction -> Dataset(key_column, href): one row per
    ``href="..."`` occurrence in the page markup, in page order — the
    Common-Crawl webgraph primitive.

    Fully vectorized fan-out: one Arrow ``split_pattern`` on the
    attribute prefix, a flatten, and one RE2 group-extract for the
    closing quote; no Python per row or per link.  Order inside a page
    is source order, so downstream anchor/position heuristics can rely
    on it."""
    import pyarrow.compute as pc

    def links(b: pa.Table) -> pa.Table:
        u = _as_string_filled(b[html_column])
        parts = pc.split_pattern(u, pattern=_HREF_SPLIT)
        flat = pc.list_flatten(parts)
        offs = parts.offsets.to_numpy()
        counts = np.diff(offs)
        parent = np.repeat(np.arange(len(parts)), counts)
        elem = np.arange(len(flat)) - np.repeat(offs[:-1], counts)
        ex = pc.extract_regex(flat, pattern=_HREF_TAIL)
        href = pc.struct_field(ex, "h")
        keep = (elem > 0) & pc.is_valid(href).to_numpy(
            zero_copy_only=False)
        return pa.table({
            key_column: b[key_column].take(pa.array(parent[keep])),
            out_column: href.filter(pa.array(keep))})

    return ds.map_batches(
        links, batch_format="pyarrow",
        concurrency=pool_size(concurrency) if concurrency else None)


# attribute-bearing <a> tags, case-sensitive, split-scan semantics (a
# fragment starts right after each '<a '; the anchored regex takes the
# first href before the tag close and the non-greedy body up to the
# first '</a>').  The SQL twin replicates the SAME split + regex, so
# the two sides agree by construction even on pathological nesting.
_ANCHOR_SPLIT = "<a "
_ANCHOR_PAT = r'^[^>]*?href="(?P<h>[^"]*)"[^>]*>(?P<t>(?s:.*?))</a>'


def extract_anchors(ds, html_column: str = "html",
                    key_column: str = "url",
                    ordinal_column: str | None = None,
                    concurrency: int | None = None):
    """Anchor-text extraction -> Dataset(key_column, href, anchor[,
    ordinal]): one row per attribute-bearing ``<a href="...">text</a>``
    occurrence, in page order; ``anchor`` is the inner text run through
    the same strip/entity/whitespace chain as :func:`extract_text`.

    ``ordinal_column`` (optional) adds the anchor's in-page fragment
    index — computed HERE, in the same batch the page fans out from, so
    (page key, ordinal) stays a stable per-anchor identity no matter
    how downstream stages re-block the rows.

    (target, anchor) pairs are the classic off-page relevance signal —
    an anchor-text index over them is how web search ranks pages by
    what OTHER sites call them."""
    import pyarrow.compute as pc

    def anchors(b: pa.Table) -> pa.Table:
        u = _as_string_filled(b[html_column])
        parts = pc.split_pattern(u, pattern=_ANCHOR_SPLIT)
        flat = pc.list_flatten(parts)
        offs = parts.offsets.to_numpy()
        counts = np.diff(offs)
        parent = np.repeat(np.arange(len(parts)), counts)
        elem = np.arange(len(flat)) - np.repeat(offs[:-1], counts)
        ex = pc.extract_regex(flat, pattern=_ANCHOR_PAT)
        href = pc.struct_field(ex, "h")
        text = pc.struct_field(ex, "t")
        keep = (elem > 0) & pc.is_valid(href).to_numpy(
            zero_copy_only=False)
        kt = _clean_text_array(text.filter(pa.array(keep)))
        cols = {
            key_column: b[key_column].take(pa.array(parent[keep])),
            "href": href.filter(pa.array(keep)),
            "anchor": kt}
        if ordinal_column is not None:
            cols[ordinal_column] = pa.array(elem[keep], pa.int64())
        return pa.table(cols)

    return ds.map_batches(
        anchors, batch_format="pyarrow",
        concurrency=pool_size(concurrency) if concurrency else None)


def domain_links(ds, html_column: str = "html",
                 url_column: str = "url",
                 concurrency: int | None = None,
                 domain_mode: str = "host", psl_path: str | None = None):
    """Domain-level link graph -> Dataset(src_domain, dst_domain, n):
    extract every href, resolve source and target hosts, count edges —
    the (domain, domain) webgraph a crawl-frontier or PageRank-style
    prioritizer consumes.

    Only (src, dst) host pairs leave the extraction tasks (never
    markup), pre-packed into one key so the count rides the
    boundary-repaired sort+combine; edges with an unresolvable target
    host (relative hrefs, fragments) drop, matching the SQL twin."""
    import pyarrow.compute as pc

    from iresearch_ray.pipelines.dedup import _grouped_count_min

    links = extract_links(ds, html_column=html_column,
                          key_column=url_column,
                          concurrency=concurrency)
    with_src = extract_domain(links, url_column=url_column,
                              out_column="_src", mode=domain_mode,
                              psl_path=psl_path)
    with_dst = extract_domain(with_src, url_column="href",
                              out_column="_dst", mode=domain_mode,
                              psl_path=psl_path)

    def pack(b: pa.Table) -> pa.Table:
        keep = pc.and_(pc.not_equal(b["_src"], ""),
                       pc.not_equal(b["_dst"], ""))
        t = b.filter(keep)
        key = pc.binary_join_element_wise(t["_src"], t["_dst"], "\x00")
        return pa.table({"_edge": key})

    edges = with_dst.map_batches(pack, batch_format="pyarrow")
    counted = _grouped_count_min(edges, "_edge", None, count_alias="n")

    def unpack(t: pa.Table) -> pa.Table:
        sp = pc.split_pattern(t["_edge"], pattern="\x00", max_splits=1)
        return pa.table({
            "src_domain": pc.list_element(sp, 0),
            "dst_domain": pc.list_element(sp, 1),
            "n": t["n"]})

    return counted.map_batches(unpack, batch_format="pyarrow")
