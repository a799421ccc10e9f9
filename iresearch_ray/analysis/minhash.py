"""MinHash / SimHash / rolling-hash sketches, batch-vectorized.

MinHash mirrors the behavior of the reference's MinHashTokenStream
(/root/reference/core/analysis/minhash_token_stream.hpp:34-49, .cpp:468-527
ComputeSignature): a fixed-size signature of universal-hash minima over the
token/shingle set, usable both as analyzer output and as the LSH-banding
input for near-duplicate detection.  All hashing is deterministic across
processes (affine universal hashes from a seeded generator over the token
or shingle hashes) — a hard requirement for resumable distributed builds.
The string hash kernels live in :mod:`iresearch_ray.analysis.hashing`.
"""

from __future__ import annotations

import numpy as np

from iresearch_ray.analysis.hashing import stable_hash_strings

_MERSENNE = np.uint64((1 << 61) - 1)


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
