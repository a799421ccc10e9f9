"""Link-graph analytics: weighted PageRank over an edge list.

Reference parity: the reference engine has no graph operators — this is
part of the beyond-reference webtext family (SURVEY.md §2 "LLM-data
pipeline operators"), the consumer of ``curate.domain_links``'s
(src, dst, n) edges: crawl-frontier prioritisation and domain-quality
weighting both want a PageRank-style score per host.

FIXED-POINT EXACT: ranks are int64 micro-units (``scale`` units = rank
1.0).  Every per-edge contribution is ``floor(((d * r) * n) / W + 0.5)``
evaluated in IEEE float64 with that exact association — numpy here,
``CAST(... AS DOUBLE)`` in the DuckDB oracle — so both sides produce the
same int64, integer sums are order-free, and ten iterations stay
bit-identical end-to-end (same discipline as the ann_ivf k-means-in-SQL
oracle).

Distribution shape (SCALE.md §4): below ``max_broadcast`` the edge
table is materialized once and never re-shuffled; each iteration is one
shuffle-free map_batches over the edges (rank + out-weight vectors
broadcast via ``ray.put``) followed by ONE keys-only sort+combine
summing per-target contributions.  Above the guard (or with
``partitions=`` forced) the rank vector is range-partitioned into P
object-store refs and edges are co-range-sorted once, so no node-sized
vector ever lives on the driver — the ~90M-host Common-Crawl design
point runs (10M-node probe in SCALE.md).  Both shapes target-sort the
edge table once so every iteration's per-target sum runs PRESORTED (no
per-iteration all-to-all), and both are bit-identical by construction.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

import ray


def pagerank(edges, src_column: str = "src_domain",
             dst_column: str = "dst_domain", weight_column: str = "n",
             damping: float = 0.85, iterations: int = 10,
             scale: int = 10 ** 12,
             max_broadcast: int = 200_000_000,
             partitions: int | None = None):
    """Weighted PageRank -> Dataset(node, rank_units, rank).

    ``rank_units`` is the exact int64 fixed-point mass (``scale`` units
    = 1.0); ``rank`` is the single float64 division units/scale.
    Dangling mass (nodes with no out-edges) redistributes uniformly
    each iteration.

    Two execution shapes, bit-identical by construction (same sorted
    node-id assignment, same IEEE scalar expressions, order-free int64
    sums):

    - **broadcast** (node vectors fit ``max_broadcast``): rank +
      out-weight vectors ship via ``ray.put``; each iteration is one
      shuffle-free map over the integer-ified, TARGET-sorted edge table
      feeding a PRESORTED boundary-repaired combine — all iterations
      together pay one sort.
    - **partitioned** (above the guard, or ``partitions=`` forced): the
      rank vector lives as P object-store refs of contiguous node-id
      ranges; edges integer-ify ONCE via two range sorts (by src for
      ids+out-weights, by dst last so the table ends TARGET-sorted);
      per iteration the contrib map gathers rank slices piecewise
      (zero-copy plasma reads of int64 arrays, shared per node), the
      per-target sum is the presorted combine (no per-iteration
      all-to-all), and P small tasks rebuild the next rank partitions.
      Driver state is O(P) metadata — a ~90M-host Common-Crawl graph
      runs without any node-sized driver vector.
    """
    damping = float(damping)
    edges = edges.materialize()

    from iresearch_ray.pipelines.dedup import _grouped_count_min

    # Endpoint/weight dtype contract, enforced ONCE up front:
    # - node ids are compared as STRINGS everywhere (the node table is
    #   built via cast(pa.string()) below) — a raw int64 src column
    #   would silently get_indexer to -1 in the broadcast path (garbage
    #   ranks, no error) and crash on str/int bisect in the partitioned
    #   path, so non-string endpoint columns are cast here and both
    #   shapes see identical keys;
    # - weights are summed as int64 by the sort+combine (W) but shipped
    #   exact as float64 per edge (nf) — a fractional weight would make
    #   the two disagree (rank mass silently inflates), so the
    #   fixed-point contract requires an integer weight column.
    def _patype(t):
        # Ray Schema types are pyarrow DataTypes for Arrow blocks but
        # numpy dtypes / Python types for pandas-backed datasets; None
        # = undeterminable (e.g. pandas object, which arrives as Arrow
        # string at batch time anyway)
        if isinstance(t, pa.DataType):
            return t
        try:
            return pa.from_numpy_dtype(np.dtype(t))
        except (pa.ArrowNotImplementedError, TypeError):
            return None

    sch = edges.schema()
    # a zero-block edge list has no schema at all (schema() is None);
    # the n_nodes == 0 early return below covers it
    types = ({n: _patype(t) for n, t in zip(sch.names, sch.types)}
             if sch is not None else {})
    wt = types.get(weight_column)
    if wt is not None and not pa.types.is_integer(wt):
        raise ValueError(
            f"pagerank: {weight_column!r} must be an integer column "
            f"(got {wt}); the fixed-point contract "
            f"sums weights as int64 — cast/round explicitly first")

    def _stringy(t):
        return t is None or pa.types.is_string(t) \
            or pa.types.is_large_string(t)

    if not (_stringy(types.get(src_column))
            and _stringy(types.get(dst_column))):
        def to_str(b: pa.Table) -> pa.Table:
            for col in {src_column, dst_column}:
                i = b.schema.get_field_index(col)
                b = b.set_column(i, col, b[col].cast(pa.string()))
            return b

        edges = edges.map_batches(
            to_str, batch_format="pyarrow").materialize()

    # node universe: distinct union of both endpoints, distributed
    # (sorted output -> contiguous global ids fall out of block order)
    def node_rows(b: pa.Table) -> pa.Table:
        s = b[src_column].combine_chunks() if isinstance(
            b[src_column], pa.ChunkedArray) else b[src_column]
        d = b[dst_column].combine_chunks() if isinstance(
            b[dst_column], pa.ChunkedArray) else b[dst_column]
        return pa.table({"v": pa.concat_arrays(
            [s.cast(pa.string()), d.cast(pa.string())])})

    nodes_ds = _grouped_count_min(
        edges.map_batches(node_rows, batch_format="pyarrow"),
        "v", None, count_alias="_c").materialize()
    n_nodes = nodes_ds.count()
    if n_nodes == 0:
        return ray.data.from_arrow(pa.table({
            "node": pa.array([], pa.string()),
            "rank_units": pa.array([], pa.int64()),
            "rank": pa.array([], pa.float64())}))

    # static per-source out-weight W = sum(n)
    def src_rows(b: pa.Table) -> pa.Table:
        return pa.table({"s": b[src_column], "n": b[weight_column]})

    outw_ds = _grouped_count_min(
        edges.map_batches(src_rows, batch_format="pyarrow"),
        "s", None, count_alias="_c", sum_column="n",
        sum_alias="w").materialize()

    if partitions is not None or n_nodes * 48 > max_broadcast:
        return _pagerank_partitioned(
            edges, nodes_ds, outw_ds, n_nodes,
            src_column=src_column, dst_column=dst_column,
            weight_column=weight_column, damping=damping,
            iterations=iterations, scale=scale,
            max_broadcast=max_broadcast, partitions=partitions)

    outw = outw_ds.to_pandas()
    src_sorted = np.sort(outw["s"].to_numpy())
    w_units = outw.set_index("s").loc[src_sorted, "w"].to_numpy(
        np.int64)
    # a source whose weights sum to <= 0 (zero/negative weight_column
    # values on the public API; domain_links can't produce them) would
    # make contrib() divide by w=0 -> inf/nan silently cast to garbage
    # int64 rank units.  Fail loudly instead.
    if (w_units <= 0).any():
        bad = src_sorted[(w_units <= 0).argmax()]
        raise ValueError(
            f"pagerank: source {bad!r} has non-positive out-weight sum; "
            f"every edge needs {weight_column} >= 1")
    # distinct union of both endpoint sets == np.unique (the
    # sort+combine output is NOT globally sorted — boundary-repaired
    # edge runs ride in an appended union block — so sort here)
    nodes = np.sort(nodes_ds.select_columns(["v"]).to_pandas()["v"].to_numpy())
    # hash-based membership: np.isin on object arrays degrades to an
    # O(nodes x srcs) broadcast compare (487 s at 200k nodes, measured)
    is_dangling = pd.Index(src_sorted).get_indexer(nodes) < 0

    # Integer-ify the edge table ONCE: node-index src/dst plus float64
    # n and W columns (int->float64 conversions are exact below 2^53).
    # All string handling happens here; the iteration loop is pure
    # numeric numpy + one int-key sort+combine, and the only broadcast
    # that repeats per iteration is the int64 rank vector (plain
    # numeric arrays stay zero-copy in the object store).  The
    # per-iteration string lookups of the first version cost ~45 s/iter
    # at 2M edges; this shape runs the same iteration in ~2 s.
    # per-node out-weight vector indexed by NODE id, so intify does one
    # string-hash lookup per endpoint (not a second per-source probe)
    w_by_node = np.zeros(n_nodes, np.float64)
    w_by_node[pd.Index(nodes).get_indexer(src_sorted)] = \
        w_units.astype(np.float64)
    node_ref = ray.put((pd.Index(nodes), w_by_node))
    sc, dc, wc = src_column, dst_column, weight_column

    def intify(b: pa.Table, _ref=node_ref) -> pa.Table:
        nd, wbn = ray.get(_ref)
        si = nd.get_indexer(b[sc].to_numpy(zero_copy_only=False))
        ti = nd.get_indexer(b[dc].to_numpy(zero_copy_only=False))
        return pa.table({
            "si": pa.array(si, pa.int64()),
            "ti": pa.array(ti, pa.int64()),
            "nf": pa.array(b[wc].to_numpy(
                zero_copy_only=False).astype(np.float64), pa.float64()),
            "wf": pa.array(wbn[si], pa.float64())})

    # TARGET-sorted once (round 5): contrib emits (ti, c) in iedges' row
    # order, so a ti-sorted edge table makes every iteration's per-
    # target sum PRESORTED — the boundary-repaired combine runs with no
    # per-iteration all-to-all.  Ten iterations pay ONE sort total.
    iedges = edges.map_batches(
        intify, batch_format="pyarrow").sort("ti").materialize()

    # all scalar expressions mirror the SQL oracle byte-for-byte
    units = np.full(n_nodes, np.int64(
        np.floor(float(scale) / float(n_nodes) + 0.5)))
    base = np.int64(np.floor(
        ((1.0 - damping) * float(scale)) / float(n_nodes) + 0.5))

    for _ in range(iterations):
        ref = ray.put(units)

        def contrib(b: pa.Table, _ref=ref) -> pa.Table:
            u = ray.get(_ref)
            r = u[b["si"].to_numpy()].astype(np.float64)
            n = b["nf"].to_numpy()
            w = b["wf"].to_numpy()
            c = np.floor(((damping * r) * n) / w + 0.5).astype(np.int64)
            return pa.table({"ti": b["ti"],
                             "c": pa.array(c, pa.int64())})

        summed = _grouped_count_min(
            iedges.map_batches(contrib, batch_format="pyarrow",
                               batch_size=None),
            "ti", None, count_alias="_c", sum_column="c",
            sum_alias="csum", _presorted=True).to_pandas()
        dang_mass = int(units[is_dangling].sum())
        dang = np.int64(np.floor(
            (damping * float(dang_mass)) / float(n_nodes) + 0.5))
        nxt = np.full(n_nodes, base + dang, dtype=np.int64)
        nxt[summed["ti"].to_numpy(np.int64)] += \
            summed["csum"].to_numpy(np.int64)
        units = nxt

    return ray.data.from_arrow(pa.table({
        "node": pa.array(nodes.tolist(), pa.string()),
        "rank_units": pa.array(units, pa.int64()),
        "rank": pa.array(units.astype(np.float64) / float(scale),
                         pa.float64())}))


@ray.remote
def _pr_scan_str(t, key):
    """(first, last, rows) of a sorted string block (None, None, 0 if empty)."""
    if t.num_rows == 0:
        return None, None, 0
    col = t[key]
    return col[0].as_py(), col[len(col) - 1].as_py(), t.num_rows


@ray.remote
def _pr_scan_outw(t):
    """(min_s, max_s, rows, min_w, argmin source) of an out-weight
    block.  min/max, NOT first/last: _grouped_count_min output blocks
    are not individually sorted (the boundary-repair union block)."""
    if t.num_rows == 0:
        return None, None, 0, None, None
    w = t["w"].to_numpy()
    i = int(w.argmin())
    s = t["s"].to_numpy(zero_copy_only=False)
    return (s.min(), s.max(), t.num_rows, int(w[i]), str(t["s"][i].as_py()))


@ray.remote
def _pr_scan_int(t):
    """(min_ti, max_ti, rows) of a summed block (min/max — the
    sort+combine union block is not positionally sorted)."""
    if t.num_rows == 0:
        return 0, -1, 0
    ti = t["ti"].to_numpy()
    return int(ti.min()), int(ti.max()), t.num_rows


@ray.remote
def _pr_dang_mask(node_block, *ow_blocks):
    """Per-partition dangling mask: node has NO out-edges (absent from
    every overlapping out-weight block)."""
    nodes = node_block["v"].to_numpy(zero_copy_only=False)
    if not ow_blocks:
        return np.ones(len(nodes), bool)
    srcs = np.concatenate([b["s"].to_numpy(zero_copy_only=False)
                           for b in ow_blocks])
    return pd.Index(srcs).get_indexer(nodes) < 0


@ray.remote
def _pr_mass(units, mask):
    return int(units[mask].sum())


@ray.remote
def _pr_rebuild(lo, cnt, fill, *blocks):
    """Next rank partition: base+dangling fill, then scatter-add the
    per-target sums whose ids fall in [lo, lo+cnt).  Each target id
    appears in exactly one summed row globally (the sort+combine dedups
    keys), so += is exact."""
    u = np.full(cnt, fill, np.int64)
    for t in blocks:
        ti = t["ti"].to_numpy()
        m = (ti >= lo) & (ti < lo + cnt)
        if m.any():
            u[ti[m] - lo] += t["csum"].to_numpy()[m]
    return u


@ray.remote
def _pr_emit(node_block, units, scale):
    return pa.table({
        "node": node_block["v"].combine_chunks().cast(pa.string())
        if isinstance(node_block["v"], pa.ChunkedArray)
        else node_block["v"].cast(pa.string()),
        "rank_units": pa.array(units, pa.int64()),
        "rank": pa.array(units.astype(np.float64) / float(scale),
                         pa.float64())})


def _pagerank_partitioned(edges, nodes_ds, outw_ds, n_nodes, *,
                          src_column, dst_column, weight_column,
                          damping, iterations, scale,
                          max_broadcast, partitions):
    """PageRank past the broadcast ceiling (SCALE.md §4): the rank
    vector is P object-store refs over contiguous ranges of the sorted
    node-id space; edges integer-ify ONCE via two range sorts (by src
    for source ids + out-weights, then by dst so the final table is
    TARGET-sorted) with each attach stage joining only the 1-2 node
    partitions its sorted block overlaps; each iteration is one contrib
    map (piecewise zero-copy rank gathers), a PRESORTED boundary-
    repaired combine (no per-iteration all-to-all — 2.25x on the 10M
    probe), and P small rebuild tasks.  Driver state is O(P) boundary
    metadata.  Bit-identical to the broadcast path: same sorted-id
    assignment, same IEEE scalar expressions, order-free int64 sums."""
    import bisect

    from iresearch_ray.pipelines.dedup import _grouped_count_min

    # partition size targets broadcastable per-task payloads: a rank
    # slice (8 B/node) plus a node-string block at ~48 B/node stays
    # well under max_broadcast even with a couple of partitions fetched
    target = max(1, max_broadcast // 192)
    n_parts = partitions or -(-n_nodes // target)
    n_parts = max(1, min(int(n_parts), n_nodes))

    # the distinct-union output is NOT globally sorted (the repair
    # union block) — one explicit node-table range sort makes block
    # order == id order, which the contiguous-offset scheme needs
    node_refs_all = (nodes_ds.select_columns(["v"]).sort("v")
                     .repartition(n_parts).materialize().to_arrow_refs())
    scans = ray.get([_pr_scan_str.remote(r, "v") for r in node_refs_all])
    node_refs, firsts, lasts, counts = [], [], [], []
    for ref, (f, l, n) in zip(node_refs_all, scans):
        if n:
            node_refs.append(ref)
            firsts.append(f)
            lasts.append(l)
            counts.append(n)
    P = len(node_refs)
    counts = np.asarray(counts, np.int64)
    offsets = np.concatenate([[0], np.cumsum(counts)])
    assert offsets[-1] == n_nodes

    ow_refs_all = outw_ds.to_arrow_refs()
    ow_scans = ray.get([_pr_scan_outw.remote(r) for r in ow_refs_all])
    ow_refs, ow_firsts, ow_lasts = [], [], []
    for ref, (f, l, n, mw, ms) in zip(ow_refs_all, ow_scans):
        if not n:
            continue
        if mw <= 0:
            raise ValueError(
                f"pagerank: source {ms!r} has non-positive out-weight "
                f"sum; every edge needs {weight_column} >= 1")
        ow_refs.append(ref)
        ow_firsts.append(f)
        ow_lasts.append(l)

    def part_of(key):
        return max(0, bisect.bisect_right(firsts, key) - 1)

    sc, dc, wc = src_column, dst_column, weight_column
    nrefs_t = tuple(node_refs)
    orefs_t = tuple(ow_refs)

    def ow_overlap(lo_s, hi_s):
        return [orefs_t[q] for q in range(len(orefs_t))
                if not (ow_lasts[q] < lo_s or ow_firsts[q] > hi_s)]

    # pass 1: range-sort by SOURCE, attach source ids + out-weights
    # (batch sorted by src -> the 1-2 node/outw blocks it overlaps)
    def attach_si(b: pa.Table) -> pa.Table:
        s = b[sc].to_numpy(zero_copy_only=False)
        if len(s) == 0:
            return pa.table({"si": pa.array([], pa.int64()),
                             dc: pa.array([], pa.string()),
                             "nf": pa.array([], pa.float64()),
                             "wf": pa.array([], pa.float64())})
        p_lo, p_hi = part_of(s[0]), part_of(s[-1])
        cat = np.concatenate([
            ray.get(nrefs_t[p])["v"].to_numpy(zero_copy_only=False)
            for p in range(p_lo, p_hi + 1)])
        si = pd.Index(cat).get_indexer(s) + offsets[p_lo]
        ow = [ray.get(r) for r in ow_overlap(s[0], s[-1])]
        osrc = np.concatenate([t["s"].to_numpy(zero_copy_only=False)
                               for t in ow])
        ow_w = np.concatenate([t["w"].to_numpy() for t in ow])
        pos = pd.Index(osrc).get_indexer(s)
        return pa.table({
            "si": pa.array(si, pa.int64()),
            dc: b[dc],
            "nf": pa.array(b[wc].to_numpy(
                zero_copy_only=False).astype(np.float64), pa.float64()),
            "wf": pa.array(ow_w[pos].astype(np.float64), pa.float64())})

    e1 = (edges.sort(sc).map_batches(attach_si, batch_format="pyarrow",
                                     batch_size=None))

    # pass 2: range-sort by TARGET, attach target ids; strings leave
    # the pipeline here.  Ending TI-SORTED is the round-5 perf shape:
    # contrib preserves row order, so every iteration's per-target sum
    # runs the PRESORTED boundary-repaired combine — no per-iteration
    # all-to-all; ten iterations pay these two sorts total.
    def attach_ti(b: pa.Table) -> pa.Table:
        d = b[dc].to_numpy(zero_copy_only=False)
        if len(d) == 0:
            return pa.table({"si": pa.array([], pa.int64()),
                             "ti": pa.array([], pa.int64()),
                             "nf": pa.array([], pa.float64()),
                             "wf": pa.array([], pa.float64())})
        p_lo, p_hi = part_of(d[0]), part_of(d[-1])
        cat = np.concatenate([
            ray.get(nrefs_t[p])["v"].to_numpy(zero_copy_only=False)
            for p in range(p_lo, p_hi + 1)])
        ti = pd.Index(cat).get_indexer(d) + offsets[p_lo]
        return pa.table({"si": b["si"],
                         "ti": pa.array(ti, pa.int64()),
                         "nf": b["nf"], "wf": b["wf"]})

    iedges = (e1.sort(dc).map_batches(attach_ti, batch_format="pyarrow",
                                      batch_size=None).materialize())

    dang_refs = []
    for p in range(P):
        over = ow_overlap(firsts[p], lasts[p])
        dang_refs.append(_pr_dang_mask.remote(node_refs[p], *over))

    # identical scalar expressions to the broadcast path / SQL oracle
    fill0 = np.int64(np.floor(float(scale) / float(n_nodes) + 0.5))
    base = np.int64(np.floor(
        ((1.0 - damping) * float(scale)) / float(n_nodes) + 0.5))
    unit_refs = [ray.put(np.full(c, fill0, np.int64)) for c in counts]

    for _ in range(iterations):
        urefs = tuple(unit_refs)

        def contrib(b: pa.Table, _u=urefs) -> pa.Table:
            si = b["si"].to_numpy()
            if len(si) == 0:
                return pa.table({"ti": pa.array([], pa.int64()),
                                 "c": pa.array([], pa.int64())})
            # ti-sorted blocks scatter si across partitions: gather the
            # rank piecewise — each ray.get is a zero-copy plasma read
            # of one int64 slice (shared per node, never concatenated)
            route = np.searchsorted(offsets, si, "right") - 1
            r = np.empty(len(si), np.float64)
            for p in np.unique(route):
                sel = route == p
                u = ray.get(_u[p])
                r[sel] = u[si[sel] - offsets[p]].astype(np.float64)
            c = np.floor(((damping * r) * b["nf"].to_numpy())
                         / b["wf"].to_numpy() + 0.5).astype(np.int64)
            return pa.table({"ti": b["ti"], "c": pa.array(c, pa.int64())})

        summed = _grouped_count_min(
            iedges.map_batches(contrib, batch_format="pyarrow",
                               batch_size=None),
            "ti", None, count_alias="_c", sum_column="c",
            sum_alias="csum", _presorted=True).materialize()
        srefs = summed.to_arrow_refs()
        sinfo = ray.get([_pr_scan_int.remote(r) for r in srefs])
        dang_mass = int(sum(ray.get(
            [_pr_mass.remote(u, m)
             for u, m in zip(unit_refs, dang_refs)])))
        dang = np.int64(np.floor(
            (damping * float(dang_mass)) / float(n_nodes) + 0.5))
        fill = base + dang
        unit_refs = [
            _pr_rebuild.remote(
                int(offsets[p]), int(counts[p]), fill,
                *[r for r, (slo, shi, sn) in zip(srefs, sinfo)
                  if sn and not (shi < offsets[p]
                                 or slo >= offsets[p + 1])])
            for p in range(P)]

    return ray.data.from_arrow_refs(
        [_pr_emit.remote(node_refs[p], unit_refs[p], scale)
         for p in range(P)])


@ray.remote
def _fr_nbytes(t):
    """String payload + 8 B/row of a kept-node block (driver never sees
    the strings)."""
    return (t["node"].nbytes if t.num_rows else 0) + 8 * t.num_rows


@ray.remote
def _fr_pack(t):
    """Kept-node block -> contiguous (2, n) uint64 hash matrix (h1
    sorted) — numeric, so workers read it zero-copy from the object
    store instead of each unpickling a node-sized string array."""
    h = np.empty((2, t.num_rows), np.uint64)
    h[0] = t["h1"].to_numpy()
    h[1] = t["h2"].to_numpy()
    return np.ascontiguousarray(h)


@ray.remote
def _fr_scan(h):
    return (int(h[0, 0]), int(h[0, -1]), h.shape[1]) if h.shape[1] \
        else None


def _member128(block, q1, q2):
    """Membership of (q1, q2) hash pairs in a (2, n) h1-sorted block.
    Equal-h1 runs are ~length-1 (128-bit hashes of distinct domains);
    the general run case falls back to a loop over those rare rows."""
    h1, h2 = block[0], block[1]
    lo = np.searchsorted(h1, q1, side="left")
    hi = np.searchsorted(h1, q1, side="right")
    member = np.zeros(len(q1), bool)
    simple = (hi - lo) == 1
    if simple.any():
        member[simple] = h2[lo[simple]] == q2[simple]
    multi = np.flatnonzero((hi - lo) > 1)
    for i in multi:
        member[i] = bool((h2[lo[i]:hi[i]] == q2[i]).any())
    return member


def filter_by_domain_rank(ds, ranks, min_rank_units: int,
                          url_column: str = "url",
                          max_broadcast: int = 200_000_000,
                          domain_mode: str = "host",
                          psl_path: str | None = None):
    """Rank-aware curation: keep rows whose url's domain has
    ``rank_units >= min_rank_units`` in ``ranks`` (a :func:`pagerank` /
    :func:`domain_rank` result) — "docs from reputable hosts", the
    quality-weighting step a crawl pipeline runs after ranking.

    The threshold compares int64 fixed-point units, so the decision is
    exact.  Rows whose domain is absent from the graph (or has no
    extractable host) drop.

    Two membership shapes (round 5 — the node-sized ceiling is gone):
    under ``max_broadcast`` the kept-domain set broadcasts sorted via
    ``ray.put`` (string compare, exact); above it the kept set re-sorts
    by 128-bit content hash into P numeric (2, n) uint64 blocks that
    workers read zero-copy from the object store, and each batch routes
    its domain hashes to the 1-few blocks they fall in (a false keep
    needs a 128-bit collision with a kept domain: ~n_kept/2^128).  The
    driver never materializes the node strings in either shape."""
    import pyarrow.compute as pc

    from iresearch_ray.analysis.hashing import stable_hash_strings128_packed
    from iresearch_ray.pipelines.curate import extract_domain
    from iresearch_ray.pipelines.dedup import _sorted_member

    kept_ds = ranks.filter(
        expr=f"rank_units >= {int(min_rank_units)}").select_columns(
        ["node"]).materialize()
    payload = int(sum(ray.get(
        [_fr_nbytes.remote(r) for r in kept_ds.to_arrow_refs()])))

    tagged = extract_domain(ds, url_column=url_column,
                            out_column="_rank_domain", mode=domain_mode,
                            psl_path=psl_path)

    if payload <= max_broadcast:
        kept = np.sort(kept_ds.to_pandas()["node"].to_numpy())
        # extractionless rows ('') must drop even when '' is itself a
        # ranked node (a caller-built edge list can contain '' endpoints)
        # — same rule the hashed path applies, so both shapes agree
        kept = kept[kept != ""]
        ref = ray.put(kept)

        def keep_rows(b: pa.Table) -> pa.Table:
            doms = b["_rank_domain"].to_numpy(zero_copy_only=False)
            mask = _sorted_member(ray.get(ref), doms)
            return b.filter(pa.array(mask)).drop_columns(["_rank_domain"])

        return tagged.map_batches(keep_rows, batch_format="pyarrow")

    def _empty_result():
        # schema-true zero-row result (no _rank_domain leak, no pass
        # over the corpus, no per-row Python filter); limit(0) would
        # lose the schema entirely (Dataset.schema() -> None)
        sch = tagged.schema().base_schema
        return ray.data.from_arrow(pa.schema(
            [f for f in sch if f.name != "_rank_domain"]).empty_table())

    if kept_ds.count() == 0:
        # an entirely-empty kept set never runs to_hash, so the sorted
        # blocks would keep the node schema and _fr_pack would KeyError
        # on 'h1' — exit with the schema contract intact instead
        return _empty_result()

    # hash-partitioned membership: kept nodes -> (h1, h2) -> h1 sort ->
    # P numeric blocks; O(P) driver metadata
    def to_hash(b: pa.Table) -> pa.Table:
        packed = stable_hash_strings128_packed(b["node"])
        return pa.table({"h1": pa.array(packed[:, 0], pa.uint64()),
                         "h2": pa.array(packed[:, 1], pa.uint64())})

    hrefs = (kept_ds.map_batches(to_hash, batch_format="pyarrow")
             .sort("h1").materialize().to_arrow_refs())
    pack_refs, scans = [], []
    for r in hrefs:
        p = _fr_pack.remote(r)
        pack_refs.append(p)
        scans.append(_fr_scan.remote(p))
    infos = ray.get(scans)
    pack_refs = [p for p, i in zip(pack_refs, infos) if i]
    infos = [i for i in infos if i]
    if not pack_refs:
        return _empty_result()
    starts = np.array([i[0] for i in infos], np.uint64)
    P = len(pack_refs)
    prefs_t = tuple(pack_refs)

    def keep_rows_hashed(b: pa.Table) -> pa.Table:
        doms = b["_rank_domain"]
        n = len(doms)
        if n == 0:
            return b.drop_columns(["_rank_domain"])
        q = stable_hash_strings128_packed(doms)
        q1, q2 = q[:, 0], q[:, 1]
        route = np.clip(
            np.searchsorted(starts, q1, side="right") - 1, 0, P - 1)
        member = np.zeros(n, bool)
        for p in np.unique(route):
            blk = ray.get(prefs_t[p])
            sel = route == p
            m = _member128(blk, q1[sel], q2[sel])
            # an equal-h1 run straddling a block boundary: probe the
            # neighbors for queries sitting exactly on a block edge
            if p > 0:
                edge = q1[sel] == blk[0, 0]
                if edge.any():
                    m[edge] |= _member128(ray.get(prefs_t[p - 1]),
                                          q1[sel][edge], q2[sel][edge])
            if p < P - 1:
                edge = q1[sel] == blk[0, -1]
                if edge.any():
                    m[edge] |= _member128(ray.get(prefs_t[p + 1]),
                                          q1[sel][edge], q2[sel][edge])
            member[sel] = m
        # extractionless rows ('') must drop even if '' hashes into
        # the kept set's range by accident — exact check, not hash
        empty = pc.equal(doms, "").to_numpy(zero_copy_only=False)
        member &= ~empty
        return (b.filter(pa.array(member))
                .drop_columns(["_rank_domain"]))

    return tagged.map_batches(keep_rows_hashed, batch_format="pyarrow")


def domain_rank(ds, html_column: str = "html", url_column: str = "url",
                damping: float = 0.85, iterations: int = 10,
                concurrency: int | None = None,
                domain_mode: str = "host", psl_path: str | None = None,
                **kw):
    """PageRank over the domain link graph of a crawled-page corpus:
    ``curate.domain_links`` (href fan-out -> host-pair edge counts)
    feeding :func:`pagerank`."""
    from iresearch_ray.pipelines.curate import domain_links

    edges = domain_links(ds, html_column=html_column,
                         url_column=url_column, concurrency=concurrency,
                         domain_mode=domain_mode, psl_path=psl_path)
    return pagerank(edges, damping=damping, iterations=iterations, **kw)
