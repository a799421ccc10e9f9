"""MinHash / SimHash / rolling-hash sketches, batch-vectorized.

MinHash mirrors the behavior of the reference's MinHashTokenStream
(/root/reference/core/analysis/minhash_token_stream.hpp:34-49, .cpp:468-527
ComputeSignature): a fixed-size signature of universal-hash minima over the
token/shingle set, usable both as analyzer output and as the LSH-banding
input for near-duplicate detection.  All hashing is deterministic across
processes (pandas siphash with its fixed key + affine universal hashes from
a seeded generator) — a hard requirement for resumable distributed builds.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

_MERSENNE = np.uint64((1 << 61) - 1)


def stable_hash_strings(values) -> np.ndarray:
    """Deterministic 64-bit hash of a string array (cross-process stable)."""
    arr = np.asarray(values, dtype=object)
    return pd.util.hash_array(arr, categorize=False)


def stable_hash_strings128(values) -> "pa.FixedSizeBinaryArray":
    """128-bit deterministic content hash as fixed_size_binary[16] (two
    independent 64-bit siphashes — distinct pandas hash keys).  The
    exact-dedup fast path: vectorized like :func:`stable_hash_strings`,
    but collision-safe at 10^12 documents where a single 64-bit hash
    expects ~10^6 birthday collisions (and an exact-dedup collision
    silently DROPS a unique document).  fixed_size_binary, never a
    numpy 'S16' view — numpy bytes strip trailing NULs, which would
    alias keys differing only in trailing zero bytes."""
    import pyarrow as pa

    packed = _stable128_packed(values)
    return pa.FixedSizeBinaryArray.from_buffers(
        pa.binary(16), len(packed), [None, pa.py_buffer(packed.tobytes())])


def stable_hash_strings128_hex(values) -> np.ndarray:
    """The same 128-bit content hash as :func:`stable_hash_strings128`,
    as a 32-hex-char numpy ``S32`` array — for sorted-membership tests
    (hex never contains NUL bytes, so numpy's trailing-NUL stripping
    cannot alias keys)."""
    import binascii

    packed = _stable128_packed(values)
    return np.frombuffer(binascii.hexlify(packed.tobytes()), dtype="S32")


def _stable128_packed(values) -> np.ndarray:
    """(n, 2) uint64 of two independent 64-bit hashes.  Backend: polars
    ``Series.hash`` (vectorized multithreaded xxhash over the Arrow
    buffers, zero-copy from a pa.Array — 5.1x faster than the per-row C
    md5 loop on the 100k probe corpus even computing both seeds,
    measured interleaved); pandas ``hash_array`` when polars is absent.
    Deterministic across processes within one environment; the key
    space is backend/version-internal, which is all run-internal group
    keys need (persisted split/sketch keys use
    :func:`stable_hash_strings` / :func:`md5_hash_strings` instead)."""
    import pyarrow as pa

    if isinstance(values, pa.ChunkedArray):
        values = values.combine_chunks()
    try:
        import polars as pl

        s = (pl.from_arrow(values) if isinstance(values, pa.Array)
             else pl.Series(list(values)))
        packed = np.empty((len(s), 2), "<u8")
        packed[:, 0] = s.hash(seed=0).to_numpy()
        packed[:, 1] = s.hash(seed=0x67726166).to_numpy()
        return packed
    except ImportError:
        arr = (values.to_numpy(zero_copy_only=False)
               if isinstance(values, pa.Array)
               else np.asarray(values, dtype=object))
        packed = np.empty((len(arr), 2), "<u8")
        packed[:, 0] = pd.util.hash_array(arr, categorize=False)
        packed[:, 1] = pd.util.hash_array(arr, hash_key="graft_exactdedup",
                                          categorize=False)
        return packed


def md5_hash_strings(values) -> np.ndarray:
    """64-bit hash equal to DuckDB's ``md5_number_lower`` (bytes 8..16 of
    the md5 digest, little-endian) — lets SQL oracles reproduce sketch
    pipelines exactly.  Python-loop md5: apply to batch DICTIONARIES
    (unique terms), not per occurrence."""
    import hashlib

    out = np.empty(len(values), dtype=np.uint64)
    for i, v in enumerate(values):
        out[i] = int.from_bytes(hashlib.md5(v.encode()).digest()[8:16],
                                "little")
    return out


def _affine_params(num_hashes: int, seed: int = 42) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    a = rng.integers(1, (1 << 61) - 1, size=num_hashes, dtype=np.uint64) | np.uint64(1)
    b = rng.integers(0, (1 << 61) - 1, size=num_hashes, dtype=np.uint64)
    return a, b


def shingles(tokens: list[str], k: int = 3) -> list[str]:
    """Token k-shingles (documents shorter than k yield one shingle)."""
    if len(tokens) <= k:
        return [" ".join(tokens)] if tokens else []
    return [" ".join(tokens[i:i + k]) for i in range(len(tokens) - k + 1)]


def minhash_signatures(shingle_hashes: np.ndarray, doc_offsets: np.ndarray,
                       num_hashes: int = 64, seed: int = 42) -> np.ndarray:
    """Signatures for many docs at once.

    `shingle_hashes`: concatenated uint64 shingle hashes; `doc_offsets`
    (len n_docs+1) marks each doc's slice.  Returns (n_docs, num_hashes)
    uint64; empty docs get all-ones (max) signatures.
    """
    n_docs = len(doc_offsets) - 1
    out = np.full((n_docs, num_hashes), np.iinfo(np.uint64).max, dtype=np.uint64)
    if len(shingle_hashes) == 0:
        return out
    a, b = _affine_params(num_hashes, seed)
    x = shingle_hashes.astype(np.uint64, copy=False)
    starts = doc_offsets[:-1]
    nonempty = np.diff(doc_offsets) > 0
    red_idx = starts[nonempty]
    for h in range(num_hashes):
        hx = (a[h] * x + b[h]) % _MERSENNE  # uint64 wraparound then mod: still
        # a deterministic universal-ish hash family (exactness of the mod
        # identity is irrelevant — only determinism and spread matter)
        out[nonempty, h] = np.minimum.reduceat(hx, red_idx)
    return out


def band_hashes(signatures: np.ndarray, bands: int) -> np.ndarray:
    """(n_docs, bands) uint64 — each band hashes its signature rows."""
    n_docs, num_hashes = signatures.shape
    if num_hashes % bands:
        raise ValueError("num_hashes must be divisible by bands")
    r = num_hashes // bands
    out = np.zeros((n_docs, bands), dtype=np.uint64)
    mult = np.uint64(0x9E3779B97F4A7C15)
    for j in range(r):
        cols = signatures[:, [b * r + j for b in range(bands)]]
        out = (out ^ (cols + mult + (out << np.uint64(6)) + (out >> np.uint64(2))))
    return out


def simhash(token_hashes: np.ndarray, doc_offsets: np.ndarray) -> np.ndarray:
    """64-bit SimHash per doc from concatenated token hashes."""
    n_docs = len(doc_offsets) - 1
    out = np.zeros(n_docs, dtype=np.uint64)
    if len(token_hashes) == 0:
        return out
    bits = np.unpackbits(token_hashes.view(np.uint8).reshape(-1, 8), axis=1)  # (n,64)
    signed = bits.astype(np.int32) * 2 - 1
    starts = doc_offsets[:-1]
    nonempty = np.diff(doc_offsets) > 0
    sums = np.add.reduceat(signed, starts[nonempty], axis=0)
    packed = np.packbits((sums > 0).astype(np.uint8), axis=1)
    vals = packed.copy().view(np.uint64).reshape(-1)
    out[nonempty] = vals
    return out


def rolling_fingerprints(token_hashes: np.ndarray, doc_offsets: np.ndarray,
                         k: int = 5, sample_mod: int = 8):
    """Rabin-Karp rolling hash over token windows of size k, 0-mod-q sampled.

    Returns (doc_idx, fingerprint) arrays — the classic document
    fingerprinting scheme (selected window hashes identify near-copies).
    Docs shorter than k emit their full-prefix hash.
    """
    B = np.uint64(1099511628211)
    n_docs = len(doc_offsets) - 1
    fp_doc: list[np.ndarray] = []
    fp_val: list[np.ndarray] = []
    x = token_hashes.astype(np.uint64, copy=False)
    for d in range(n_docs):
        lo, hi = int(doc_offsets[d]), int(doc_offsets[d + 1])
        n = hi - lo
        if n == 0:
            continue
        kk = min(k, n)
        h = np.zeros(n - kk + 1, dtype=np.uint64)
        for j in range(kk):
            h = h * B + x[lo + j: lo + j + n - kk + 1]
        sel = h[h % np.uint64(sample_mod) == 0]
        if len(sel) == 0:  # always keep at least one fingerprint
            sel = h[:1]
        sel = np.unique(sel)
        fp_doc.append(np.full(len(sel), d, dtype=np.int64))
        fp_val.append(sel)
    if not fp_doc:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.uint64)
    return np.concatenate(fp_doc), np.concatenate(fp_val)


class MinHashAnalyzer:
    """Analyzer-style wrapper: text -> signature component tokens (hex),
    mirroring the reference's MinHash analyzer emitting signature tokens."""

    name = "minhash"

    def __init__(self, inner, num_hashes: int = 64, shingle_k: int = 3, seed: int = 42):
        self.inner = inner
        self.num_hashes = num_hashes
        self.shingle_k = shingle_k
        self.seed = seed

    def tokens(self, text: str) -> list[str]:
        toks = self.inner.tokens(text)
        sh = shingles(toks, self.shingle_k)
        if not sh:
            return []
        hashes = stable_hash_strings(sh)
        sig = minhash_signatures(hashes, np.array([0, len(hashes)]),
                                 self.num_hashes, self.seed)[0]
        return [f"{v:016x}" for v in sig]

    def config(self) -> dict:
        return {"name": self.name, "inner": self.inner.config(),
                "num_hashes": self.num_hashes, "shingle_k": self.shingle_k,
                "seed": self.seed}


def _make_minhash(inner: str = "unicode", inner_opts: dict | None = None, **o):
    from iresearch_ray.analysis.tokenizers import get_analyzer

    return MinHashAnalyzer(get_analyzer(inner, **(inner_opts or {})), **o)


from iresearch_ray.analysis.tokenizers import register_analyzer  # noqa: E402

register_analyzer("minhash", _make_minhash)
