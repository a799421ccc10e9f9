"""Similarity search over an embedding column (list<float>).

- ``cosine_topk``  — brute-force baseline: one numpy matmul per batch
  against a broadcast query matrix (`ray.put` once, read per actor), then
  per-batch top-k partials merged by one tiny driver-side reduction.
- ``build_lsh_index`` / ``lsh_index_topk`` — the scale path: a ONE-TIME
  pass writes the vectors as bucket-partitioned Parquet (hive layout,
  ``bucket=<id>/``); queries then READ only the probed bucket partitions,
  so bytes read per query scale with bucket selectivity, not corpus size.
- ``build_ivf_index`` / ``ivf_index_topk`` — same persisted layout keyed
  by a spherical-k-means cell (coarse quantizer trained on a scattered
  deterministic sample), queries read only the ``n_probe`` nearest cells.
- ``lsh_topk`` / ``ivf_topk`` — ad-hoc one-shot variants over an
  un-indexed Dataset: they necessarily stream the WHOLE corpus once
  (there is no persisted layout to prune reads against) and prune only
  the scoring matmul; use the index variants for repeated queries.
"""

from __future__ import annotations

import heapq
import json
import os

import numpy as np
import pandas as pd
import pyarrow as pa

from iresearch_ray.analysis.hashing import stable_id_hash
from iresearch_ray.util import pool_size


def _as_matrix(col, dtype=np.float32) -> np.ndarray:
    """(n, dim) matrix from a list<float> column — zero-copy for
    fixed-size lists and for uniform-width variable lists (one flat
    buffer view + reshape; no per-row Python objects)."""
    arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    n = len(arr)
    if n == 0:
        return np.empty((0, 0), dtype=dtype)
    flat = arr.flatten()  # honors array offset for both list layouts
    if pa.types.is_fixed_size_list(arr.type):
        dim = arr.type.list_size
    else:
        offs = np.asarray(arr.offsets, dtype=np.int64)
        widths = np.diff(offs)
        dim = int(widths[0])
        if not np.all(widths == dim):
            raise ValueError("ragged embedding column: row widths differ")
    vals = flat.to_numpy(zero_copy_only=False)
    return vals.reshape(n, dim).astype(dtype, copy=False)


class CosineTopKBatch:
    """Per-batch brute-force cosine top-k against broadcast queries."""

    def __init__(self, query_ref, id_column: str, vec_column: str, k: int,
                 dtype=np.float32):
        import ray

        self.dtype = np.dtype(dtype).type
        q = ray.get(query_ref) if not isinstance(query_ref, np.ndarray) else query_ref
        self.q = np.asarray(q, dtype=self.dtype)
        if self.q.ndim == 1:
            self.q = self.q[None, :]
        self.qn = self.q / np.maximum(np.linalg.norm(self.q, axis=1, keepdims=True), 1e-30)
        self.id_column = id_column
        self.vec_column = vec_column
        self.k = k

    def __call__(self, b: pa.Table) -> pa.Table:
        ids = b[self.id_column].to_numpy()
        m = _as_matrix(b[self.vec_column], self.dtype)
        mn = m / np.maximum(np.linalg.norm(m, axis=1, keepdims=True), 1e-30)
        sims = mn @ self.qn.T  # (batch, n_queries)
        out_q, out_id, out_s = [], [], []
        for qi in range(sims.shape[1]):
            s = sims[:, qi]
            k = min(self.k, len(s))
            # tie-exact per-batch trim: keep ALL vectors tied with the k-th
            # similarity, cut by (cosine desc, id asc) — argpartition alone
            # keeps arbitrary ties (identical/duplicate embeddings)
            kth = np.partition(-s, k - 1)[k - 1]
            cand = np.flatnonzero(-s <= kth)
            sel = cand[np.lexsort((ids[cand], -s[cand]))[:k]]
            out_q.extend([qi] * len(sel))
            out_id.extend(ids[sel])
            out_s.extend(s[sel].astype(np.float64))
        return pa.table({"query_id": pa.array(out_q, type=pa.int64()),
                         self.id_column: pa.array(out_id),
                         "cosine": pa.array(out_s, type=pa.float64())})


def cosine_topk(ds, query: np.ndarray, k: int = 10, id_column: str = "vec_id",
                vec_column: str = "embedding", concurrency: int | None = None,
                dtype=np.float32) -> pd.DataFrame:
    """Exact cosine top-k (per query row in `query`): the per-batch partial
    top-k keeps the shuffle tiny (k rows per batch per query)."""
    import ray

    qref = ray.put(np.asarray(query, dtype=dtype))
    partials = ds.map_batches(
        CosineTopKBatch,
        fn_constructor_kwargs=dict(query_ref=qref, id_column=id_column,
                                   vec_column=vec_column, k=k, dtype=dtype),
        batch_format="pyarrow", concurrency=pool_size(concurrency))
    df = partials.to_pandas()  # tiny: k rows per (batch, query)
    out = []
    for qi, g in df.groupby("query_id"):
        top = heapq.nsmallest(k, g.itertuples(index=False),
                              key=lambda r: (-r.cosine, getattr(r, id_column)))
        out.extend(top)
    res = pd.DataFrame(out)
    return res.sort_values(["query_id", "cosine", id_column],
                           ascending=[True, False, True]).reset_index(drop=True)


def _projection_planes(dim: int, planes: int, seed: int = 42) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.standard_normal((dim, planes)).astype(np.float32)


def lsh_bucket_ids(vectors: np.ndarray, planes: np.ndarray) -> np.ndarray:
    bits = (vectors @ planes) > 0
    weights = (1 << np.arange(planes.shape[1], dtype=np.int64))
    return bits.astype(np.int64) @ weights


def _probe_buckets(q: np.ndarray, P: np.ndarray, planes: int,
                   multiprobe: int) -> set[int]:
    """Query bucket(s) plus all buckets within Hamming distance <= multiprobe."""
    target = set(lsh_bucket_ids(q, P).tolist())
    frontier = set(target)
    for _ in range(max(0, multiprobe)):
        nxt = {b ^ (1 << j) for b in frontier for j in range(planes)}
        frontier = nxt - target
        target |= nxt
    return target


def lsh_topk(ds, query: np.ndarray, k: int = 10, planes: int = 8,
             id_column: str = "vec_id", vec_column: str = "embedding",
             seed: int = 42, multiprobe: int = 1, concurrency: int | None = None) -> pd.DataFrame:
    """Ad-hoc approximate cosine top-k over an UN-INDEXED dataset: streams
    the whole corpus once, scoring only rows whose sign-LSH bucket is near
    the query's (``multiprobe`` = max Hamming distance probed).

    One-shot only — every call re-reads the corpus.  For repeated queries
    build a persisted bucket-partitioned layout with ``build_lsh_index``
    and query via ``lsh_index_topk``, which reads ONLY probed partitions.
    """
    q = np.asarray(query, dtype=np.float32)
    if q.ndim == 1:
        q = q[None, :]
    P = _projection_planes(q.shape[1], planes, seed)
    target = _probe_buckets(q, P, planes, multiprobe)
    target_arr = np.fromiter(target, dtype=np.int64, count=len(target))

    def filter_bucket(t: pa.Table) -> pa.Table:
        m = _as_matrix(t[vec_column])
        buckets = lsh_bucket_ids(m, P)
        return t.filter(pa.array(np.isin(buckets, target_arr)))

    pruned = ds.map_batches(filter_bucket, batch_format="pyarrow")
    return cosine_topk(pruned, q, k, id_column, vec_column, concurrency)


def _spherical_kmeans(sample: np.ndarray, n_cells: int, iters: int = 10,
                      seed: int = 42) -> np.ndarray:
    """Deterministic spherical k-means (cosine): seeded shuffled init,
    fixed Lloyd iterations; returns L2-normalized centroids."""
    rng = np.random.default_rng(seed)
    s = sample / np.maximum(np.linalg.norm(sample, axis=1, keepdims=True), 1e-30)
    init = rng.permutation(len(s))[:n_cells]
    c = s[init].copy()
    for _ in range(iters):
        assign = np.argmax(s @ c.T, axis=1)
        for j in range(n_cells):
            members = s[assign == j]
            if len(members):
                c[j] = members.mean(axis=0)
        c /= np.maximum(np.linalg.norm(c, axis=1, keepdims=True), 1e-30)
    return c


def scattered_sample(ds, n: int, id_column: str, columns: list[str]) -> pa.Table:
    """Deterministic ~n-row sample SCATTERED across the whole dataset:
    keep rows whose stable id-hash falls under a rate-sized threshold
    (oversampled 1.5x), then trim to the globally smallest n hashes.
    Unlike ``ds.limit(n)`` (the FIRST rows — biased on sorted/clustered
    inputs) every region of the input is equally likely to contribute."""
    import ray

    total = ds.count()  # metadata-only for parquet sources
    rate = min(1.0, 1.5 * n / max(1, total))
    threshold = (np.iinfo(np.uint64).max if rate >= 1.0
                 else np.uint64(rate * 2.0**64))

    def keep(t: pa.Table) -> pa.Table:
        h = stable_id_hash(t[id_column].to_numpy(zero_copy_only=False))
        t = t.select(columns).append_column(
            "__h", pa.array(h, type=pa.uint64()))
        return t.filter(pa.array(h <= threshold))

    tabs = [t for t in ray.get(
        ds.map_batches(keep, batch_format="pyarrow").to_arrow_refs())
        if t.num_rows]
    if not tabs:  # tiny input + aggressive rate rounding: fall back to all
        return pa.concat_tables(
            [t.select(columns) for t in ray.get(ds.to_arrow_refs())])
    tab = pa.concat_tables(tabs).combine_chunks()
    order = np.argsort(tab["__h"].to_numpy(zero_copy_only=False),
                       kind="stable")[:n]
    return tab.take(order).drop_columns(["__h"])


def ivf_topk(ds, query: np.ndarray, k: int = 10, n_cells: int = 16,
             n_probe: int = 3, train_sample: int = 2048,
             id_column: str = "vec_id", vec_column: str = "embedding",
             seed: int = 42, concurrency: int | None = None) -> pd.DataFrame:
    """Ad-hoc IVF-flavor approximate top-k over an UN-INDEXED dataset: a
    coarse spherical-k-means quantizer (trained on a scattered
    deterministic sample) routes scoring to the query's ``n_probe``
    nearest cells; the corpus is still streamed once to assign cells.

    One-shot only — for repeated queries persist the cell-partitioned
    layout with ``build_ivf_index`` and query via ``ivf_index_topk``.
    ``n_probe == n_cells`` degenerates to the exact brute-force scan.
    """
    import ray

    q = np.asarray(query, dtype=np.float32)
    if q.ndim == 1:
        q = q[None, :]
    sample = _as_matrix(
        scattered_sample(ds, train_sample, id_column, [vec_column])[vec_column])
    centroids = _spherical_kmeans(sample, min(n_cells, len(sample)),
                                  seed=seed)
    qn = q / np.maximum(np.linalg.norm(q, axis=1, keepdims=True), 1e-30)
    probe = np.argsort(-(qn @ centroids.T), axis=1)[:, :n_probe]
    cells = np.unique(probe.reshape(-1))
    cref = ray.put(centroids)

    def keep_cells(t: pa.Table) -> pa.Table:
        c = ray.get(cref)
        m = _as_matrix(t[vec_column])
        mn = m / np.maximum(np.linalg.norm(m, axis=1, keepdims=True), 1e-30)
        assign = np.argmax(mn @ c.T, axis=1)
        return t.filter(pa.array(np.isin(assign, cells)))

    pruned = ds.map_batches(keep_cells, batch_format="pyarrow")
    return cosine_topk(pruned, q, k, id_column, vec_column, concurrency)


# ---------------------------------------------------------------------------
# Persisted ANN indexes: one-time bucket/cell-partitioned Parquet layouts.
# Queries read ONLY the probed partitions (hive dirs), so per-query bytes
# read scale with bucket selectivity — the property the ad-hoc scans above
# cannot provide.  Mirrors the role of the reference's nearest-neighbors
# surface (core/analysis/nearest_neighbors_stream.cpp) re-expressed as a
# Ray Data layout problem.
# ---------------------------------------------------------------------------

_ANN_META = "ann_meta.json"


def _write_partitioned(ds, index_dir: str, part_col: str) -> None:
    import shutil

    tmp = index_dir + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    ds.write_parquet(tmp, partition_cols=[part_col])
    shutil.rmtree(index_dir, ignore_errors=True)
    os.rename(tmp, index_dir)  # atomic publish, same as segment artifacts


def _load_meta(index_dir: str) -> dict:
    with open(os.path.join(index_dir, _ANN_META)) as f:
        return json.load(f)


def _partition_paths(index_dir: str, part_col: str, values) -> list[str]:
    """Parquet files of the probed hive partitions (missing buckets simply
    have no vectors).  File-level expansion because read_parquet takes a
    flat file list."""
    out = []
    for v in sorted(int(v) for v in values):
        p = os.path.join(index_dir, f"{part_col}={v}")
        if os.path.isdir(p):
            out.extend(sorted(
                os.path.join(p, f) for f in os.listdir(p)
                if f.endswith(".parquet")))
    return out


def build_lsh_index(ds, index_dir: str, planes: int = 8,
                    id_column: str = "vec_id", vec_column: str = "embedding",
                    seed: int = 42) -> dict:
    """One-time sign-LSH layout: assign each vector its bucket, write
    ``index_dir/bucket=<b>/*.parquet`` (hive-partitioned).  Returns meta.
    Resumable: an existing index with the same config is kept as-is."""
    from iresearch_ray.util import input_fingerprint

    # "input" makes resume corpus-aware: rerunning against changed data in
    # the same dir rebuilds instead of silently serving stale partitions
    meta = {"kind": "lsh", "planes": planes, "seed": seed,
            "id_column": id_column, "vec_column": vec_column,
            "input": input_fingerprint(ds)}
    meta_path = os.path.join(index_dir, _ANN_META)
    if os.path.exists(meta_path):
        old = _load_meta(index_dir)
        if {k_: old.get(k_) for k_ in meta} == meta:
            return old
    dim = len(ds.take(1)[0][vec_column])
    P = _projection_planes(dim, planes, seed)

    def assign(t: pa.Table) -> pa.Table:
        m = _as_matrix(t[vec_column])
        b = lsh_bucket_ids(m, P)
        return t.append_column("bucket", pa.array(b, type=pa.int64()))

    _write_partitioned(ds.map_batches(assign, batch_format="pyarrow"),
                       index_dir, "bucket")
    meta["dim"] = dim
    with open(meta_path, "w") as f:
        json.dump(meta, f)
    return meta


def plan_lsh_query(index_dir: str, query: np.ndarray,
                   multiprobe: int = 1) -> list[str]:
    """The partition dirs a query will read — exposed so tests (and ops)
    can assert bytes-read is proportional to probed buckets."""
    meta = _load_meta(index_dir)
    q = np.asarray(query, dtype=np.float32)
    if q.ndim == 1:
        q = q[None, :]
    P = _projection_planes(meta["dim"], meta["planes"], meta["seed"])
    target = _probe_buckets(q, P, meta["planes"], multiprobe)
    return _partition_paths(index_dir, "bucket", target)


def lsh_index_topk(index_dir: str, query: np.ndarray, k: int = 10,
                   multiprobe: int = 1,
                   concurrency: int | None = None) -> pd.DataFrame:
    """Approximate cosine top-k against a ``build_lsh_index`` layout:
    reads ONLY the probed bucket partitions."""
    import ray.data

    meta = _load_meta(index_dir)
    q = np.asarray(query, dtype=np.float32)
    if q.ndim == 1:
        q = q[None, :]
    paths = plan_lsh_query(index_dir, q, multiprobe)
    if not paths:
        return pd.DataFrame({"query_id": [], meta["id_column"]: [],
                             "cosine": []})
    ds = ray.data.read_parquet(
        paths, columns=[meta["id_column"], meta["vec_column"]])
    return cosine_topk(ds, q, k, meta["id_column"], meta["vec_column"],
                       concurrency)


def build_ivf_index(ds, index_dir: str, n_cells: int = 16,
                    train_sample: int = 2048, id_column: str = "vec_id",
                    vec_column: str = "embedding", seed: int = 42) -> dict:
    """One-time IVF layout: train a spherical-k-means coarse quantizer on a
    scattered deterministic sample, assign each vector its nearest cell,
    write ``index_dir/cell=<c>/*.parquet``; centroids persist alongside."""
    import ray

    from iresearch_ray.util import input_fingerprint

    meta = {"kind": "ivf", "n_cells": n_cells, "seed": seed,
            "train_sample": train_sample,
            "id_column": id_column, "vec_column": vec_column,
            "input": input_fingerprint(ds)}
    meta_path = os.path.join(index_dir, _ANN_META)
    if os.path.exists(meta_path):
        old = _load_meta(index_dir)
        if {k_: old.get(k_) for k_ in meta} == meta:
            return old
    sample = _as_matrix(
        scattered_sample(ds, train_sample, id_column, [vec_column])[vec_column])
    centroids = _spherical_kmeans(sample, min(n_cells, len(sample)), seed=seed)
    cref = ray.put(centroids)

    def assign(t: pa.Table) -> pa.Table:
        c = ray.get(cref)
        m = _as_matrix(t[vec_column])
        mn = m / np.maximum(np.linalg.norm(m, axis=1, keepdims=True), 1e-30)
        cell = np.argmax(mn @ c.T, axis=1)
        return t.append_column("cell", pa.array(cell, type=pa.int64()))

    _write_partitioned(ds.map_batches(assign, batch_format="pyarrow"),
                       index_dir, "cell")
    np.save(os.path.join(index_dir, "centroids.npy"), centroids)
    meta["dim"] = int(centroids.shape[1])
    with open(meta_path, "w") as f:
        json.dump(meta, f)
    return meta


def plan_ivf_query(index_dir: str, query: np.ndarray,
                   n_probe: int = 3) -> list[str]:
    """Partition dirs an IVF query will read (n_probe nearest cells)."""
    c = np.load(os.path.join(index_dir, "centroids.npy"))
    q = np.asarray(query, dtype=np.float32)
    if q.ndim == 1:
        q = q[None, :]
    qn = q / np.maximum(np.linalg.norm(q, axis=1, keepdims=True), 1e-30)
    probe = np.argsort(-(qn @ c.T), axis=1)[:, :n_probe]
    return _partition_paths(index_dir, "cell", np.unique(probe.reshape(-1)))


def ivf_index_topk(index_dir: str, query: np.ndarray, k: int = 10,
                   n_probe: int = 3,
                   concurrency: int | None = None) -> pd.DataFrame:
    """Approximate cosine top-k against a ``build_ivf_index`` layout:
    reads ONLY the ``n_probe`` nearest cells' partitions."""
    import ray.data

    meta = _load_meta(index_dir)
    q = np.asarray(query, dtype=np.float32)
    if q.ndim == 1:
        q = q[None, :]
    paths = plan_ivf_query(index_dir, q, n_probe)
    if not paths:
        return pd.DataFrame({"query_id": [], meta["id_column"]: [],
                             "cosine": []})
    ds = ray.data.read_parquet(
        paths, columns=[meta["id_column"], meta["vec_column"]])
    return cosine_topk(ds, q, k, meta["id_column"], meta["vec_column"],
                       concurrency)
