"""Every string and id hash kernel, and :func:`hash_family`: the one
table a pipeline resolves its ``hash=`` name through, once, on the driver
(``stable`` pandas siphash, ``md5`` == DuckDB ``md5_number_lower`` /
``md5``, ``fnv`` for the fake models).  Outputs are pinned by
``tests/test_hashing.py``: oracles and persisted keys depend on them.
pyarrow and polars are imported lazily."""

from __future__ import annotations

import binascii
import hashlib
from typing import Callable, NamedTuple

import numpy as np
import pandas as pd


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

    packed = stable_hash_strings128_packed(values)
    return pa.FixedSizeBinaryArray.from_buffers(
        pa.binary(16), len(packed), [None, pa.py_buffer(packed.tobytes())])


def stable_hash_strings128_hex(values) -> np.ndarray:
    """The same 128-bit content hash as :func:`stable_hash_strings128`,
    as a 32-hex-char numpy ``S32`` array — for sorted-membership tests
    (hex never contains NUL bytes, so numpy's trailing-NUL stripping
    cannot alias keys)."""
    packed = stable_hash_strings128_packed(values)
    return np.frombuffer(binascii.hexlify(packed.tobytes()), dtype="S32")


def stable_hash_strings128_packed(values) -> np.ndarray:
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
    out = np.empty(len(values), dtype=np.uint64)
    for i, v in enumerate(values):
        out[i] = int.from_bytes(hashlib.md5(v.encode()).digest()[8:16],
                                "little")
    return out


def md5_hex_strings(values) -> list[str]:
    """32-char md5 hex digests, equal to DuckDB ``md5(text)``."""
    return [hashlib.md5(v.encode()).hexdigest() for v in values]


def fnv1a64(s: str) -> int:
    """64-bit FNV-1a over the UTF-8 bytes, with offset basis
    1469598103934665603 (the standard one minus its last digit; kept,
    since it defines the fake models' outputs)."""
    h = 1469598103934665603
    for b in s.encode():
        h = ((h ^ b) * 1099511628211) & 0xFFFFFFFFFFFFFFFF
    return h


def stable_id_hash(ids: np.ndarray) -> np.ndarray:
    """Deterministic uint64 hash of an id column (int or string)."""
    if np.issubdtype(ids.dtype, np.integer):
        # splitmix64 finalizer — uniform, cross-process stable
        h = ids.astype(np.uint64, copy=True)
        h = (h ^ (h >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        h = (h ^ (h >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return h ^ (h >> np.uint64(31))
    return stable_hash_strings(ids.astype(object))


def _md5_content_key(col) -> "pa.Array":
    import pyarrow as pa

    # explicit type: an empty block would infer null and break schema
    # unification under the downstream range sort
    return pa.array(md5_hex_strings(col.to_pylist()), type=pa.string())


class HashFamily(NamedTuple):
    """``strings64``: str sequence -> uint64.  Exact-dedup content key
    (stable/md5 only): ``content_key`` maps an Arrow string column to the
    group key; ``content_hex`` maps it, and ``key_hex`` maps keys collected
    on the driver, to the same key as S32 hex (no NUL bytes, so numpy 'S'
    storage and sorted membership cannot alias keys)."""

    strings64: Callable[..., np.ndarray]
    content_key: Callable | None = None
    content_hex: Callable | None = None
    key_hex: Callable | None = None


_FAMILIES = {
    "stable": HashFamily(
        stable_hash_strings, stable_hash_strings128,
        stable_hash_strings128_hex,
        lambda keys: np.array([binascii.hexlify(k) for k in keys], "S32")),
    "md5": HashFamily(
        md5_hash_strings, _md5_content_key,
        lambda col: np.array(md5_hex_strings(col.to_pylist()), "S32"),
        lambda keys: np.array(keys, "S32")),
    "fnv": HashFamily(lambda values: np.fromiter(
        map(fnv1a64, values), np.uint64, len(values))),
}
# sketch, dedup and split pipelines accept STRING_FAMILIES; the fake
# classify/nearest_neighbors models accept FAKE_MODEL_FAMILIES
STRING_FAMILIES = ("md5", "stable")
FAKE_MODEL_FAMILIES = ("fnv", "md5")


def hash_family(name: str, accepted=STRING_FAMILIES) -> HashFamily:
    """The family called ``name``; ValueError unless ``name in accepted``."""
    if name not in accepted:
        raise ValueError(f"unknown hash family {name!r}; accepted: "
                         + ", ".join(map(repr, accepted)))
    return _FAMILIES[name]
